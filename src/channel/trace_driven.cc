#include "channel/trace_driven.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::channel {

void TraceLossModel::set_loss_rate(NodeId a, NodeId b, int sec, double loss) {
  VIFI_EXPECTS(sec >= 0);
  VIFI_EXPECTS(loss >= 0.0 && loss <= 1.0);
  auto& sched = pairs_.get_or_create(a, b);
  if (sched.per_second.size() <= static_cast<std::size_t>(sec))
    sched.per_second.resize(static_cast<std::size_t>(sec) + 1, -1.0);
  sched.per_second[static_cast<std::size_t>(sec)] = loss;
  horizon_ = std::max(horizon_, sec + 1);
}

void TraceLossModel::set_constant_loss_rate(NodeId a, NodeId b, double loss) {
  VIFI_EXPECTS(loss >= 0.0 && loss <= 1.0);
  pairs_.get_or_create(a, b).constant = loss;
}

double TraceLossModel::loss_rate(NodeId a, NodeId b, Time now) const {
  const PairSchedule* sched = pairs_.find(a, b);
  if (sched == nullptr) return 1.0;
  const auto sec = static_cast<std::size_t>(
      std::max<std::int64_t>(0, now.to_micros() / 1'000'000));
  if (sec < sched->per_second.size() && sched->per_second[sec] >= 0.0)
    return sched->per_second[sec];
  if (sched->constant >= 0.0) return sched->constant;
  return 1.0;
}

bool TraceLossModel::sample_delivery(NodeId tx, NodeId rx, Time now) {
  return rng_.bernoulli(1.0 - loss_rate(tx, rx, now));
}

double TraceLossModel::reception_prob(NodeId tx, NodeId rx, Time now) const {
  return 1.0 - loss_rate(tx, rx, now);
}

}  // namespace vifi::channel
