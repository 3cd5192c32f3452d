#include "core/pab.h"

#include <algorithm>

#include "util/contracts.h"

namespace vifi::core {
namespace {

/// Estimates go stale after this long (boundaries: see pab.h).
constexpr double kFreshnessSeconds = 5.0;

bool stale(Time last_update, Time now) {
  return (now - last_update).to_seconds() > kFreshnessSeconds;
}

}  // namespace

PabTable::PabTable(NodeId self, int beacons_per_second, double alpha)
    : self_(self), beacons_per_second_(beacons_per_second), alpha_(alpha) {
  VIFI_EXPECTS(self.valid());
  VIFI_EXPECTS(beacons_per_second > 0);
}

void PabTable::note_beacon(NodeId from, Time now) {
  auto it = std::ranges::lower_bound(neighbors_, from, {}, &Neighbor::id);
  if (it == neighbors_.end() || it->id != from)
    it = neighbors_.insert(it, Neighbor{from, 0, Ewma(alpha_), {}, {}});
  ++it->count_this_second;
  it->last_heard = now;
}

void PabTable::fold_reports(const std::vector<mac::ProbReport>& reports,
                            Time now) {
  for (const mac::ProbReport& r : reports) {
    if (!r.from.valid() || !r.to.valid()) continue;
    if (r.to == self_) continue;  // we know our own incoming better
    const sim::LinkKey key{r.from, r.to};
    auto it = std::ranges::lower_bound(remote_, key, {}, &Remote::key);
    if (it == remote_.end() || it->key != key)
      it = remote_.insert(it, {key, 0.0, {}});
    it->prob = std::clamp(r.prob, 0.0, 1.0);
    it->last_update = now;
  }
}

void PabTable::tick_second(Time now) {
  // Silence counts as zero while the neighbour is fresh: estimates age out.
  for (Neighbor& n : neighbors_) {
    const bool fresh = (now - n.last_heard).to_seconds() < kFreshnessSeconds;
    if (n.count_this_second > 0 || fresh) {
      n.avg.update(std::min(
          1.0, static_cast<double>(n.count_this_second) / beacons_per_second_));
      n.last_update = now;
    }
    n.count_this_second = 0;
  }
  // Staleness only grows with time and every reader already treats a stale
  // entry as absent, so dropping it here changes no answer; a later report
  // re-inserts the pair exactly as an overwrite would have set it.
  std::erase_if(remote_, [now](const Remote& r) {
    return stale(r.last_update, now);
  });
}

double PabTable::incoming(NodeId from, Time now, double fallback) const {
  const auto it = std::ranges::lower_bound(neighbors_, from, {}, &Neighbor::id);
  if (it == neighbors_.end() || it->id != from || !it->avg.initialized() ||
      stale(it->last_update, now))
    return fallback;
  return it->avg.value();
}

double PabTable::get(NodeId from, NodeId to, Time now,
                     double fallback) const {
  if (to == self_) return incoming(from, now, fallback);
  const sim::LinkKey key{from, to};
  const auto it = std::ranges::lower_bound(remote_, key, {}, &Remote::key);
  if (it == remote_.end() || it->key != key || stale(it->last_update, now))
    return fallback;
  return it->prob;
}

std::vector<NodeId> PabTable::recent_neighbors(Time now,
                                               Time staleness) const {
  std::vector<NodeId> out;
  for (const Neighbor& n : neighbors_)
    if (now - n.last_heard <= staleness) out.push_back(n.id);
  return out;
}

std::vector<mac::ProbReport> PabTable::export_reports(Time now) const {
  std::vector<mac::ProbReport> out;
  // Own incoming estimates: (neighbour -> self).
  for (const Neighbor& n : neighbors_)
    if (n.avg.initialized() && !stale(n.last_update, now))
      out.push_back({n.id, self_, n.avg.value()});
  // Reverse direction from gossip: the key range (self -> neighbour).
  auto it = std::ranges::lower_bound(
      remote_, self_, {}, [](const Remote& e) { return e.key.tx; });
  for (; it != remote_.end() && it->key.tx == self_; ++it)
    if (!stale(it->last_update, now))
      out.push_back({self_, it->key.rx, it->prob});
  return out;
}

}  // namespace vifi::core
