#include "channel/vehicular.h"

#include <algorithm>
#include <string>

#include "util/contracts.h"

namespace vifi::channel {

VehicularChannel::VehicularChannel(VehicularChannelParams params,
                                   PositionFn positions, Rng rng)
    : params_(params),
      curve_(params.distance),
      positions_(std::move(positions)),
      rng_(rng),
      draw_rng_(rng.fork("per-packet-draws")) {
  VIFI_EXPECTS(positions_ != nullptr);
}

void VehicularChannel::mark_mobile(NodeId node) {
  const std::size_t i = channel_index(node);
  if (i >= rows_.size()) rows_.resize(i + 1);
  if (!rows_[i].fade_on)
    rows_[i].fade_on = process("fade", node, node, params_.common_mean_on,
                               params_.common_mean_off);
  last_.valid = false;  // the node now carries a fade term
}

TwoStateProcess VehicularChannel::process(const char* kind, NodeId a,
                                          NodeId b, Time mean_on,
                                          Time mean_off) const {
  const std::string name = std::string(kind) + "/" + std::to_string(a.value()) +
                           "/" + std::to_string(b.value());
  return TwoStateProcess::stationary(mean_on, mean_off,
                                     rng_.fork(name).fork("proc"));
}

double VehicularChannel::distance(NodeId a, NodeId b, Time now) const {
  const std::size_t i = channel_index(a), j = channel_index(b);
  if (std::max(i, j) >= rows_.size()) rows_.resize(std::max(i, j) + 1);
  auto position = [&](Row& r, NodeId node) {
    if (r.at != now) {
      r.pos = positions_(node, now);
      r.at = now;
    }
    return r.pos;
  };
  return mobility::distance(position(rows_[i], a), position(rows_[j], b));
}

double VehicularChannel::geometric_reception_prob(NodeId tx, NodeId rx,
                                                  Time now) const {
  return curve_.reception_prob(distance(tx, rx, now));
}

double VehicularChannel::instantaneous_prob(NodeId tx, NodeId rx,
                                            Time now) const {
  if (!last_.valid || last_.tx != tx || last_.rx != rx || last_.now != now)
    last_ = {tx, rx, now, evaluate(tx, rx, now), true};
  return last_.p;
}

double VehicularChannel::evaluate(NodeId tx, NodeId rx, Time now) const {
  const double d = distance(tx, rx, now);
  if (d > curve_.cutoff_m()) return 0.0;
  double p = curve_.reception_prob(d);
  PairState& pair = pairs_.get_or_create(tx, rx, [this](NodeId lo, NodeId hi) {
    const auto& c = params_;
    return PairState{
        {process("ge", lo, hi, c.ge_mean_bad, c.ge_mean_good),
         process("ge", hi, lo, c.ge_mean_bad, c.ge_mean_good)},
        process("gray", lo, hi, c.gray_mean_on, c.gray_mean_off)};
  });
  if (pair.ge_bad[tx > rx ? 1 : 0].on_at(now)) p *= params_.ge_bad_multiplier;
  if (pair.gray_on.on_at(now)) p *= params_.gray_multiplier;
  for (NodeId end : {tx, rx}) {  // distance() made both rows
    auto& fade = rows_[static_cast<std::size_t>(end.value())].fade_on;
    if (fade && fade->on_at(now)) p *= params_.common_multiplier;
  }
  return std::clamp(p, 0.0, 1.0);
}

bool VehicularChannel::sample_delivery(NodeId tx, NodeId rx, Time now) {
  return draw_rng_.bernoulli(instantaneous_prob(tx, rx, now));
}

double VehicularChannel::reception_prob(NodeId tx, NodeId rx,
                                        Time now) const {
  return instantaneous_prob(tx, rx, now);
}

}  // namespace vifi::channel
