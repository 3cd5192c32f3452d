#pragma once

/// \file pab.h
/// Beacon-based estimation and dissemination of pairwise packet reception
/// probabilities p_ab (§4.6). Each node:
///
///   * estimates incoming probability from every neighbour as an
///     exponential average (alpha = 0.5) of the per-second beacon
///     reception ratio;
///   * gossips those estimates in its own beacons;
///   * re-gossips what it learned so that an auxiliary BS can know, e.g.,
///     the anchor-to-vehicle probability without hearing the vehicle.
///
/// Staleness is asymmetric at 5 s, and sweep bytes depend on it: a silent
/// neighbour gets zero samples only while < 5 s have passed since its last
/// beacon, but `incoming`/`get`/`export_reports` still answer at exactly 5 s.

#include <vector>

#include "mac/frame.h"
#include "sim/ids.h"
#include "util/ewma.h"
#include "util/time.h"

namespace vifi::core {

using sim::NodeId;

class PabTable {
 public:
  /// \p self is the owning node; \p beacons_per_second calibrates ratios.
  PabTable(NodeId self, int beacons_per_second = 10, double alpha = 0.5);

  /// Records reception of one beacon from \p from (direct observation).
  void note_beacon(NodeId from, Time now);

  /// Merges gossip carried in a received beacon.
  void fold_reports(const std::vector<mac::ProbReport>& reports, Time now);

  /// Rolls the current second's beacon counts into the exponential
  /// averages. Call once per second.
  void tick_second(Time now);

  /// Best known estimate of P(b receives from a); \p fallback when unknown
  /// or stale.
  double get(NodeId from, NodeId to, Time now, double fallback = 0.0) const;

  /// Incoming-probability estimate from \p from to self.
  double incoming(NodeId from, Time now, double fallback = 0.0) const;

  /// Neighbours heard within \p staleness of \p now.
  std::vector<NodeId> recent_neighbors(Time now, Time staleness) const;

  /// Gossip payload for this node's next beacon: all fresh incoming
  /// estimates (from=neighbour, to=self) plus fresh reverse estimates
  /// (from=self, to=neighbour) learned from neighbours' gossip.
  std::vector<mac::ProbReport> export_reports(Time now) const;

  NodeId self() const { return self_; }

 private:
  struct Neighbor {  // a directly heard neighbour
    NodeId id;
    int count_this_second = 0;
    Ewma avg;  // initialized by the first tick after the first beacon
    Time last_update, last_heard;
  };
  struct Remote {  // gossip: P(key.tx -> key.rx) as last reported
    sim::LinkKey key;
    double prob = 0.0;
    Time last_update;
  };

  NodeId self_;
  int beacons_per_second_;
  double alpha_;
  std::vector<Neighbor> neighbors_;  // sorted by id
  std::vector<Remote> remote_;       // sorted by key (tx, rx)
};

}  // namespace vifi::core
