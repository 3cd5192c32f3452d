#pragma once

/// \file markov.h
/// Continuous-time two-state processes underlying the channel model:
///
///  * Gilbert–Elliott burst fading — packet losses cluster in Bad-state
///    episodes, reproducing Fig. 6(a)'s conditional loss decay; and
///  * gray periods — rare, seconds-long collapses of connection quality
///    that hit even clients near a BS (§3.3).
///
/// Both are exact CTMC simulations: exponential sojourn times are drawn
/// lazily as simulated time advances, so per-packet sampling is O(jumps).

#include "util/contracts.h"
#include "util/rng.h"
#include "util/time.h"

namespace vifi::channel {

/// A two-state (ON/OFF) continuous-time Markov chain advanced lazily.
class TwoStateProcess {
 public:
  /// Mean sojourn times must be positive. \p start_on picks the initial
  /// state; pass rng-derived values for a stationary start.
  TwoStateProcess(Time mean_on, Time mean_off, bool start_on, Rng rng);

  /// Creates a process whose initial state is drawn from the stationary
  /// distribution.
  static TwoStateProcess stationary(Time mean_on, Time mean_off, Rng rng);

  /// Advances to \p now (non-decreasing across calls) and returns the state.
  bool on_at(Time now) {
    VIFI_EXPECTS(now >= last_query_);
    last_query_ = now;
    while (next_transition_ <= now) {
      on_ = !on_;
      draw_next_transition();
    }
    return on_;
  }

  /// Fraction of time spent ON in steady state.
  double stationary_on_fraction() const;

  /// The Gilbert–Elliott sojourn means this process was built with —
  /// exposed so fitted models (tracegen) can round-trip the parameters.
  Time mean_on() const { return mean_on_; }
  Time mean_off() const { return mean_off_; }

 private:
  void draw_next_transition();

  Time mean_on_;
  Time mean_off_;
  bool on_;
  Time next_transition_;
  Time last_query_ = Time::zero();
  Rng rng_;
};

}  // namespace vifi::channel
