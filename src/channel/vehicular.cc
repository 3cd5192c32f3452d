#include "channel/vehicular.h"

#include <algorithm>
#include <string>

#include "util/contracts.h"

namespace vifi::channel {

namespace {
// Node ids are dense (testbeds number BSes, vehicles and the wired host
// from 0); a bound keeps a stray large id from sizing the cache.
constexpr int kMaxCachedNode = 1 << 16;

std::string link_name(const char* prefix, NodeId a, NodeId b) {
  return std::string(prefix) + "/" + std::to_string(a.value()) + "/" +
         std::to_string(b.value());
}
}  // namespace

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
  VIFI_EXPECTS(node.valid());
  mobile_ids_.insert(node);
  last_.valid = false;  // the node now carries a fade term
}

mobility::Vec2 VehicularChannel::position(NodeId node, Time now) const {
  if (!node.valid() || node.value() >= kMaxCachedNode)
    return positions_(node, now);
  const auto i = static_cast<std::size_t>(node.value());
  if (i >= positions_at_.size()) positions_at_.resize(i + 1);
  CachedPosition& c = positions_at_[i];
  if (!c.valid || c.at != now) c = {now, positions_(node, now), true};
  return c.pos;
}

VehicularChannel::LinkState& VehicularChannel::link_state(NodeId tx,
                                                          NodeId rx) const {
  const sim::LinkKey key{tx, rx};
  auto it = links_.find(key);
  if (it == links_.end()) {
    Rng fork = rng_.fork(link_name("ge", tx, rx));
    it = links_
             .emplace(key, LinkState{TwoStateProcess::stationary(
                               params_.ge_mean_bad, params_.ge_mean_good,
                               fork.fork("proc"))})
             .first;
  }
  return it->second;
}

VehicularChannel::PathState& VehicularChannel::path_state(NodeId a,
                                                          NodeId b) const {
  if (b < a) std::swap(a, b);
  const sim::LinkKey key{a, b};
  auto it = paths_.find(key);
  if (it == paths_.end()) {
    Rng fork = rng_.fork(link_name("gray", a, b));
    it = paths_
             .emplace(key, PathState{TwoStateProcess::stationary(
                               params_.gray_mean_on, params_.gray_mean_off,
                               fork.fork("proc"))})
             .first;
  }
  return it->second;
}

VehicularChannel::NodeState* VehicularChannel::node_state(NodeId n) const {
  if (!mobile_ids_.contains(n)) return nullptr;
  auto it = mobile_.find(n);
  if (it == mobile_.end()) {
    Rng fork = rng_.fork(link_name("fade", n, n));
    it = mobile_
             .emplace(n, NodeState{TwoStateProcess::stationary(
                             params_.common_mean_on, params_.common_mean_off,
                             fork.fork("proc"))})
             .first;
  }
  return &it->second;
}

double VehicularChannel::geometric_reception_prob(NodeId tx, NodeId rx,
                                                  Time now) const {
  const double d = mobility::distance(position(tx, now), position(rx, now));
  return curve_.reception_prob(d);
}

double VehicularChannel::instantaneous_prob(NodeId tx, NodeId rx,
                                            Time now) const {
  if (!last_.valid || last_.tx != tx || last_.rx != rx || last_.now != now)
    last_ = {tx, rx, now, evaluate(tx, rx, now), true};
  return last_.p;
}

double VehicularChannel::evaluate(NodeId tx, NodeId rx, Time now) const {
  const double d = mobility::distance(position(tx, now), position(rx, now));
  if (d > curve_.cutoff_m()) return 0.0;
  double p = curve_.reception_prob(d);
  if (link_state(tx, rx).ge_bad.on_at(now)) p *= params_.ge_bad_multiplier;
  if (path_state(tx, rx).gray_on.on_at(now)) p *= params_.gray_multiplier;
  for (NodeId end : {tx, rx}) {
    if (NodeState* ns = node_state(end); ns && ns->fade_on.on_at(now))
      p *= params_.common_multiplier;
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
