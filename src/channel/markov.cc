#include "channel/markov.h"

namespace vifi::channel {

TwoStateProcess::TwoStateProcess(Time mean_on, Time mean_off, bool start_on,
                                 Rng rng)
    : mean_on_(mean_on), mean_off_(mean_off), on_(start_on), rng_(rng) {
  VIFI_EXPECTS(mean_on > Time::zero());
  VIFI_EXPECTS(mean_off > Time::zero());
  next_transition_ = Time::zero();
  draw_next_transition();
}

TwoStateProcess TwoStateProcess::stationary(Time mean_on, Time mean_off,
                                            Rng rng) {
  const double p_on =
      mean_on.to_seconds() / (mean_on.to_seconds() + mean_off.to_seconds());
  const bool start_on = rng.bernoulli(p_on);
  return TwoStateProcess(mean_on, mean_off, start_on, rng);
}

void TwoStateProcess::draw_next_transition() {
  const Time mean = on_ ? mean_on_ : mean_off_;
  next_transition_ += Time::seconds(rng_.exponential(mean.to_seconds()));
}

double TwoStateProcess::stationary_on_fraction() const {
  return mean_on_.to_seconds() /
         (mean_on_.to_seconds() + mean_off_.to_seconds());
}

}  // namespace vifi::channel
