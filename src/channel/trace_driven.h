#pragma once

/// \file trace_driven.h
/// The paper's §5.1 trace-driven methodology: "The beacon loss ratio from a
/// BS to the vehicle in each one-second interval is used as the packet loss
/// rate from that BS to the vehicle and from the vehicle to the BS", with
/// inter-BS pairs that are never simultaneously visible treated as
/// unreachable and other pairs given a Uniform(0,1) loss ratio.
///
/// The schedule is symmetric per one-second bucket; finer-timescale
/// behaviour and asymmetry are deliberately ignored, as in the paper.

#include <vector>

#include "channel/loss_model.h"
#include "channel/pair_table.h"
#include "util/rng.h"

namespace vifi::channel {

/// A per-second, per-pair loss-rate schedule driving a memoryless channel.
/// Node ids follow the channel id rule (pair_table.h).
class TraceLossModel final : public LossModel {
 public:
  explicit TraceLossModel(Rng rng) : rng_(rng) {}

  /// Sets the loss rate (in [0,1]) between a and b for second \p sec.
  /// Symmetric: stored once per unordered pair.
  void set_loss_rate(NodeId a, NodeId b, int sec, double loss);

  /// Sets a time-invariant loss rate for the pair (used for inter-BS links).
  void set_constant_loss_rate(NodeId a, NodeId b, double loss);

  /// Loss rate in effect for the pair at time \p now; 1.0 (unreachable)
  /// where nothing was recorded.
  double loss_rate(NodeId a, NodeId b, Time now) const;

  /// Number of seconds covered by the longest per-pair schedule.
  int horizon_seconds() const { return horizon_; }

  bool sample_delivery(NodeId tx, NodeId rx, Time now) override;
  double reception_prob(NodeId tx, NodeId rx, Time now) const override;

 private:
  struct PairSchedule {
    std::vector<double> per_second;  // loss rate per second; <0 => unset
    double constant = -1.0;          // >= 0 overrides when second unset
  };

  PairTable<PairSchedule> pairs_;
  int horizon_ = 0;
  Rng rng_;
};

}  // namespace vifi::channel
