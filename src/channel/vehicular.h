#pragma once

/// \file vehicular.h
/// The stochastic vehicular radio environment used for "deployment"
/// experiments (the reproduction's VanLAN). It composes, per link:
///
///   reception = distance_curve(d)            (slow, geometry-driven)
///             x Gilbert–Elliott burst state  (fast, path-dependent fading)
///             x gray-period state            (rare seconds-long collapses)
///             x common-mode vehicle fade     (small receiver-dependent term)
///
/// Calibration targets are the paper's measured statistics, not RF truth:
/// Fig. 5 (number of BSes audible per second), Fig. 6(a) (burstiness:
/// P(loss_{i+k} | loss_i) decaying from ~0.7 to the unconditional rate) and
/// Fig. 6(b) (losses nearly independent across BSes — the common-mode fade
/// supplies the paper's small residual correlation).
///
/// Per-instant caching. Everything a link evaluation reads is a function of
/// (tx, rx, now) within one instant: positions are a pure function of
/// (node, time) and a TwoStateProcess queried again at the same `now`
/// neither advances nor draws. The channel therefore keeps two exact caches
/// per instance: each node's position stamped with its query time, and the
/// last (tx, rx, now) -> probability evaluation, so the medium's
/// reception_prob() + sample_delivery() pair on one link costs one
/// evaluation. sample_delivery() still draws its Bernoulli on every call.
///
/// Dense state: a row per node (position cache, fade process if mobile) and
/// a record per unordered pair (both burst directions, the gray process).
/// Each process is a pure function of its fork name (ge/tx/rx, gray/lo/hi,
/// fade/n/n) and draws only as time advances, so creating it early, or
/// with its reverse direction, does not change the realisation.

#include <functional>
#include <optional>
#include <vector>

#include "channel/distance_loss.h"
#include "channel/loss_model.h"
#include "channel/markov.h"
#include "channel/pair_table.h"
#include "mobility/vec2.h"
#include "util/rng.h"

namespace vifi::channel {

struct VehicularChannelParams {
  DistanceLossCurve::Params distance{};

  // Gilbert–Elliott burst fading (per directed link).
  Time ge_mean_good = Time::seconds(3.0);
  Time ge_mean_bad = Time::seconds(0.9);
  double ge_bad_multiplier = 0.12;  ///< Reception multiplier in Bad state.

  // Gray periods (per undirected path; §3.3): sharp unpredictable drops
  // even close to a BS.
  Time gray_mean_off = Time::seconds(55.0);
  Time gray_mean_on = Time::seconds(4.0);
  double gray_multiplier = 0.05;

  // Common-mode fade tied to a *mobile node* (vehicle passing an
  // obstruction). Affects all of that node's links at once; kept weak so
  // cross-BS losses stay roughly independent (Fig. 6b).
  Time common_mean_off = Time::seconds(30.0);
  Time common_mean_on = Time::seconds(1.2);
  double common_multiplier = 0.45;
};

/// Stochastic per-link delivery model; see file comment.
class VehicularChannel final : public LossModel {
 public:
  /// \p positions maps any registered node to its position at a time. It
  /// must be a pure function of (node, time): the channel caches its
  /// answers per node for the query instant. Node ids must be valid and
  /// below kMaxChannelNodes (pair_table.h), or calls throw.
  using PositionFn = std::function<mobility::Vec2(NodeId, Time)>;

  VehicularChannel(VehicularChannelParams params, PositionFn positions,
                   Rng rng);

  /// Marks a node as mobile: it gets a common-mode fade process.
  void mark_mobile(NodeId node);

  bool sample_delivery(NodeId tx, NodeId rx, Time now) override;
  double reception_prob(NodeId tx, NodeId rx, Time now) const override;

  /// Distance-only mean reception (no fade states); for analysis and tests.
  double geometric_reception_prob(NodeId tx, NodeId rx, Time now) const;

  const VehicularChannelParams& params() const { return params_; }

 private:
  struct Row {
    std::optional<Time> at;  // query time of `pos`
    mobility::Vec2 pos;
    std::optional<TwoStateProcess> fade_on;  // mobile only; ON == faded
  };
  struct PairState {
    TwoStateProcess ge_bad[2];  // ON == Bad state; [0] lo->hi, [1] hi->lo
    TwoStateProcess gray_on;    // ON == gray period on the path
  };
  struct LastEval {
    NodeId tx;
    NodeId rx;
    Time now;
    double p = 0.0;
    bool valid = false;
  };

  TwoStateProcess process(const char* kind, NodeId a, NodeId b, Time mean_on,
                          Time mean_off) const;
  double instantaneous_prob(NodeId tx, NodeId rx, Time now) const;
  double evaluate(NodeId tx, NodeId rx, Time now) const;
  /// Distance at \p now; makes both rows and caches their positions.
  double distance(NodeId a, NodeId b, Time now) const;

  VehicularChannelParams params_;
  DistanceLossCurve curve_;
  PositionFn positions_;
  Rng rng_;
  mutable std::vector<Row> rows_;  // indexed by node id
  mutable PairTable<PairState> pairs_;
  mutable Rng draw_rng_;
  mutable LastEval last_;
};

}  // namespace vifi::channel
