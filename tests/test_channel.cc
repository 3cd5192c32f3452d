// Unit tests for the channel models: two-state processes, distance curve,
// the composite vehicular channel, and the trace-driven loss schedule.
// Includes the calibration properties behind Figs. 5 and 6.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "channel/distance_loss.h"
#include "channel/markov.h"
#include "channel/pair_table.h"
#include "channel/trace_driven.h"
#include "channel/vehicular.h"
#include "mobility/vec2.h"
#include "scenario/testbed.h"
#include "util/contracts.h"

namespace vifi::channel {
namespace {

using mobility::Vec2;
using sim::NodeId;

// -------------------------------------------------------- TwoStateProcess --

TEST(TwoStateProcess, StationaryFraction) {
  Rng r(1);
  TwoStateProcess p(Time::seconds(1.0), Time::seconds(3.0), true, r);
  EXPECT_NEAR(p.stationary_on_fraction(), 0.25, 1e-12);
}

TEST(TwoStateProcess, LongRunOnFractionMatchesStationary) {
  Rng r(2);
  TwoStateProcess p =
      TwoStateProcess::stationary(Time::seconds(2.0), Time::seconds(6.0), r);
  int on = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (p.on_at(Time::millis(10.0 * i))) ++on;
  }
  EXPECT_NEAR(static_cast<double>(on) / n, 0.25, 0.02);
}

TEST(TwoStateProcess, StateIsPersistentAtShortLags) {
  // Consecutive 10 ms samples should almost always agree when sojourn
  // times are seconds long — that's what makes losses bursty.
  Rng r(3);
  TwoStateProcess p =
      TwoStateProcess::stationary(Time::seconds(2.0), Time::seconds(2.0), r);
  int flips = 0;
  bool prev = p.on_at(Time::zero());
  for (int i = 1; i < 10000; ++i) {
    const bool cur = p.on_at(Time::millis(10.0 * i));
    if (cur != prev) ++flips;
    prev = cur;
  }
  EXPECT_LT(flips, 200);
}

TEST(TwoStateProcess, NonMonotoneQueryThrows) {
  Rng r(4);
  TwoStateProcess p(Time::seconds(1.0), Time::seconds(1.0), true, r);
  p.on_at(Time::seconds(5.0));
  EXPECT_THROW(p.on_at(Time::seconds(4.0)), ContractViolation);
}

TEST(TwoStateProcess, DeterministicForSameSeed) {
  TwoStateProcess a =
      TwoStateProcess::stationary(Time::seconds(1), Time::seconds(1), Rng(7));
  TwoStateProcess b =
      TwoStateProcess::stationary(Time::seconds(1), Time::seconds(1), Rng(7));
  for (int i = 0; i < 1000; ++i)
    EXPECT_EQ(a.on_at(Time::millis(5.0 * i)), b.on_at(Time::millis(5.0 * i)));
}

// ------------------------------------------------------ DistanceLossCurve --

TEST(DistanceLossCurve, NearFieldIsNearPMax) {
  // The wide logistic shoulder means even d = 0 sits slightly below p_max
  // (outdoor WiFi is never loss-free, Fig. 6b's P(A) = 0.75 at a *chosen*
  // nearby BS).
  DistanceLossCurve c;
  EXPECT_GT(c.reception_prob(0.0), 0.88);
  EXPECT_LE(c.reception_prob(0.0), c.params().p_max);
}

TEST(DistanceLossCurve, HalvesAtMidpoint) {
  DistanceLossCurve c;
  EXPECT_NEAR(c.reception_prob(c.params().midpoint_m),
              c.params().p_max / 2.0, 1e-9);
}

TEST(DistanceLossCurve, MonotoneDecreasing) {
  DistanceLossCurve c;
  double prev = 1.1;
  for (double d = 0.0; d < 400.0; d += 10.0) {
    const double p = c.reception_prob(d);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(DistanceLossCurve, CutoffIsNegligible) {
  DistanceLossCurve c;
  EXPECT_LE(c.reception_prob(c.cutoff_m()), 1.1e-3);
}

TEST(DistanceLossCurve, NegativeDistanceThrows) {
  DistanceLossCurve c;
  EXPECT_THROW(c.reception_prob(-1.0), vifi::ContractViolation);
}

TEST(DistanceLossCurve, RangeForInvertsTheCurve) {
  DistanceLossCurve c;
  for (const double p : {0.9, 0.5, 0.1, 0.05, 0.01, 1e-3}) {
    const double d = c.range_for(p);
    EXPECT_NEAR(c.reception_prob(d), p, 1e-9) << "p = " << p;
    // One meter past the range is strictly below p — the sub-audibility
    // proof spatial culling rests on.
    EXPECT_LT(c.reception_prob(d + 1.0), p) << "p = " << p;
  }
}

TEST(DistanceLossCurve, RangeForIsMonotoneInThreshold) {
  DistanceLossCurve c;
  EXPECT_GT(c.range_for(0.01), c.range_for(0.05));
  EXPECT_GT(c.range_for(0.05), c.range_for(0.5));
}

TEST(DistanceLossCurve, RangeForUnreachableThresholdIsZero) {
  DistanceLossCurve c;
  // Even distance zero sits below p_max, so a p_max threshold (or higher)
  // is unreachable: the whole plane is sub-threshold.
  EXPECT_EQ(c.range_for(c.params().p_max), 0.0);
  EXPECT_EQ(c.range_for(0.999), 0.0);
}

TEST(SynthesizeRssi, DecreasesWithDistance) {
  Rng r(5);
  double near = 0.0, far = 0.0;
  for (int i = 0; i < 200; ++i) {
    near += synthesize_rssi_dbm(10.0, r);
    far += synthesize_rssi_dbm(200.0, r);
  }
  EXPECT_GT(near / 200, far / 200 + 10.0);
}

// -------------------------------------------------------- VehicularChannel --

VehicularChannel::PositionFn static_positions(double separation) {
  return [separation](NodeId id, Time) {
    return id.value() == 0 ? Vec2{0.0, 0.0} : Vec2{separation, 0.0};
  };
}

TEST(VehicularChannel, CloseLinkDeliversMost) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(20.0), Rng(11));
  int got = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (ch.sample_delivery(NodeId(0), NodeId(1), Time::millis(10.0 * i)))
      ++got;
  const double rate = static_cast<double>(got) / n;
  // Even next to a BS the vehicular channel is lossy — the paper measures
  // P(A) = 0.75 for a chosen nearby BS (Fig. 6b); burst fading and gray
  // periods shave a lot off p_max.
  EXPECT_GT(rate, 0.55);
  EXPECT_LT(rate, 0.95);
}

TEST(VehicularChannel, FarLinkDeliversNothing) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(1000.0), Rng(13));
  for (int i = 0; i < 1000; ++i)
    EXPECT_FALSE(
        ch.sample_delivery(NodeId(0), NodeId(1), Time::millis(10.0 * i)));
}

TEST(VehicularChannel, LossesAreBursty) {
  // P(loss_{i+1} | loss_i) must clearly exceed the unconditional loss —
  // the core Fig. 6(a) structure.
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(60.0), Rng(17));
  std::vector<bool> rx;
  const int n = 200000;
  rx.reserve(n);
  for (int i = 0; i < n; ++i)
    rx.push_back(
        ch.sample_delivery(NodeId(0), NodeId(1), Time::millis(10.0 * i)));
  int losses = 0, pairs = 0, both = 0;
  for (int i = 0; i + 1 < n; ++i) {
    if (!rx[static_cast<std::size_t>(i)]) {
      ++losses;
      ++pairs;
      if (!rx[static_cast<std::size_t>(i) + 1]) ++both;
    }
  }
  const double uncond = static_cast<double>(losses) / n;
  const double cond = static_cast<double>(both) / pairs;
  // Conditional loss clearly exceeds unconditional: the Fig. 6(a) core.
  EXPECT_GT(cond, 1.35 * uncond);
  EXPECT_GT(cond, 0.55);
}

TEST(VehicularChannel, LossesRoughlyIndependentAcrossBSes) {
  // Two BSes at the same distance from a receiver: conditional reception
  // from B after a loss from A should be close to unconditional (§3.4.2).
  VehicularChannelParams params;
  auto positions = [](NodeId id, Time) {
    if (id.value() == 0) return Vec2{0.0, 0.0};     // A
    if (id.value() == 1) return Vec2{100.0, 0.0};   // B
    return Vec2{50.0, 40.0};                        // receiver
  };
  VehicularChannel ch(params, positions, Rng(19));
  ch.mark_mobile(NodeId(2));
  int n = 150000;
  int b_got = 0, a_lost = 0, b_got_after_a_lost = 0;
  bool prev_a_lost = false;
  for (int i = 0; i < n; ++i) {
    const Time t = Time::millis(20.0 * i);
    const bool a = ch.sample_delivery(NodeId(0), NodeId(2), t);
    const bool b =
        ch.sample_delivery(NodeId(1), NodeId(2), t + Time::millis(10.0));
    if (b) ++b_got;
    if (prev_a_lost) {
      ++a_lost;
      if (b) ++b_got_after_a_lost;
    }
    prev_a_lost = !a;
  }
  const double p_b = static_cast<double>(b_got) / n;
  const double p_b_cond = static_cast<double>(b_got_after_a_lost) / a_lost;
  // Slightly lower than unconditional (common-mode fade) but nowhere near
  // the collapse seen on the same path.
  EXPECT_GT(p_b_cond, 0.6 * p_b);
  EXPECT_LE(p_b_cond, p_b + 0.05);
}

TEST(VehicularChannel, ReceptionProbMatchesEmpiricalRate) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(120.0), Rng(23));
  // Average the instantaneous probability and compare with realized rate.
  double psum = 0.0;
  int got = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const Time t = Time::millis(10.0 * i);
    psum += ch.reception_prob(NodeId(0), NodeId(1), t);
    if (ch.sample_delivery(NodeId(0), NodeId(1), t)) ++got;
  }
  EXPECT_NEAR(psum / n, static_cast<double>(got) / n, 0.02);
}

TEST(VehicularChannel, GeometricProbIgnoresFades) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(params.distance.midpoint_m),
                      Rng(29));
  EXPECT_NEAR(ch.geometric_reception_prob(NodeId(0), NodeId(1), Time::zero()),
              params.distance.p_max / 2.0, 1e-9);
}

TEST(VehicularChannel, DeterministicForSameSeed) {
  VehicularChannelParams params;
  VehicularChannel a(params, static_positions(80.0), Rng(31));
  VehicularChannel b(params, static_positions(80.0), Rng(31));
  for (int i = 0; i < 5000; ++i) {
    const Time t = Time::millis(10.0 * i);
    EXPECT_EQ(a.sample_delivery(NodeId(0), NodeId(1), t),
              b.sample_delivery(NodeId(0), NodeId(1), t));
  }
}

// The per-instant caches are exact. Channel `a` is queried the way the
// medium queries it: reception_prob then sample_delivery on the same link
// and instant, so the one-entry memo hits and each node's position is
// evaluated once per instant. Its twin `b` defeats both caches before every
// evaluation, with an unrelated link query (memo) and a distance-only query
// one microsecond later (positions; it touches no fade state), so `b`
// computes everything from scratch. The two must agree exactly.
TEST(VehicularChannel, PerInstantCachesAreExact) {
  constexpr int kNodes = 6;
  using CallCount = std::map<std::pair<int, std::int64_t>, int>;
  // Nodes 0-1 are fixed BSes, 2-5 vehicles driving along x at 15-30 m/s.
  auto counting_positions = [](CallCount& calls) {
    return [&calls](NodeId id, Time t) {
      ++calls[{id.value(), t.to_micros()}];
      if (id.value() < 2) return Vec2{120.0 * id.value(), 0.0};
      const double speed = 5.0 + 5.0 * id.value();
      return Vec2{-150.0 + speed * t.to_seconds(), 20.0 * id.value()};
    };
  };
  CallCount calls_a, calls_b;
  VehicularChannelParams params;
  VehicularChannel a(params, counting_positions(calls_a), Rng(41));
  VehicularChannel b(params, counting_positions(calls_b), Rng(41));
  for (int n = 2; n < kNodes; ++n) {
    a.mark_mobile(NodeId(n));
    b.mark_mobile(NodeId(n));
  }

  std::vector<std::pair<double, bool>> seq_a, seq_b;
  int delivered = 0;
  for (int i = 0; i < 3000; ++i) {
    const Time now = Time::millis(7.0 * i);
    const Time later = now + Time::micros(1);
    const NodeId sender(i % kNodes);
    // Every instant starts and ends on the same link (2 -> 0), so the last
    // evaluation of one instant names the first link of the next.
    std::vector<std::pair<NodeId, NodeId>> links = {{NodeId(2), NodeId(0)}};
    for (int r = 0; r < kNodes; ++r)
      if (NodeId(r) != sender) links.emplace_back(sender, NodeId(r));
    links.emplace_back(NodeId(2), NodeId(0));
    for (const auto& [tx, rx] : links) {
      const double pa = a.reception_prob(tx, rx, now);
      seq_a.emplace_back(pa, a.sample_delivery(tx, rx, now));
      delivered += seq_a.back().second ? 1 : 0;

      b.geometric_reception_prob(tx, rx, later);
      const double pb = b.reception_prob(tx, rx, now);
      b.reception_prob(rx, tx, now);
      b.geometric_reception_prob(tx, rx, later);
      seq_b.emplace_back(pb, b.sample_delivery(tx, rx, now));
    }
  }
  EXPECT_TRUE(seq_a == seq_b);
  // The schedule exercises both outcomes.
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, static_cast<int>(seq_a.size()));
  for (const auto& [key, count] : calls_a)
    EXPECT_EQ(count, 1) << "node " << key.first << " at " << key.second
                        << " us";
  // The twin really recomputed: positions at each query instant were
  // evaluated again after the cache was defeated.
  EXPECT_GT(calls_b.at({0, Time::millis(7.0).to_micros()}), 1);
}

// Marking a node mobile between the medium's reception_prob and
// sample_delivery calls on one link must not serve the memoised
// probability computed without that node's fade term.
TEST(VehicularChannel, MarkMobileInvalidatesTheMemo) {
  VehicularChannelParams params;
  // A fade that is on essentially always once the node is mobile.
  params.common_mean_on = Time::seconds(1e6);
  params.common_mean_off = Time::micros(1);
  VehicularChannel ch(params, static_positions(20.0), Rng(43));
  const Time now = Time::seconds(1.0);
  const double still = ch.reception_prob(NodeId(0), NodeId(1), now);
  ch.mark_mobile(NodeId(1));
  const double moving = ch.reception_prob(NodeId(0), NodeId(1), now);
  EXPECT_GT(still, 0.0);
  EXPECT_DOUBLE_EQ(moving, still * params.common_multiplier);
}

// Node ids are dense channel indices: an invalid or out-of-range id is a
// contract violation, never a silent slower path.
TEST(VehicularChannel, RejectsInvalidAndOutOfRangeIds) {
  VehicularChannelParams params;
  VehicularChannel ch(params, static_positions(20.0), Rng(47));
  const NodeId past(kMaxChannelNodes);
  const Time now = Time::zero();
  EXPECT_THROW(ch.mark_mobile(NodeId{}), ContractViolation);
  EXPECT_THROW(ch.mark_mobile(past), ContractViolation);
  EXPECT_THROW(ch.reception_prob(NodeId{}, NodeId(1), now), ContractViolation);
  EXPECT_THROW(ch.reception_prob(NodeId(0), past, now), ContractViolation);
  EXPECT_THROW(ch.sample_delivery(past, NodeId(0), now), ContractViolation);
  EXPECT_THROW(ch.geometric_reception_prob(NodeId(0), NodeId(-2), now),
               ContractViolation);
  // The largest valid id is served (a distance-only query: it builds no
  // pair slots).
  EXPECT_NO_THROW(ch.geometric_reception_prob(
      NodeId(0), NodeId(kMaxChannelNodes - 1), now));
  EXPECT_GT(ch.reception_prob(NodeId(0), NodeId(1), now), 0.0);
}

// Pins the channel's realisation: every process is a pure function of its
// fork name (ge/tx/rx, gray/lo/hi, fade/n/n) and draws only as time
// advances. A change to a fork name, the draw order or the composition
// moves this digest, and with it every live sweep's bytes. The probability
// is hashed at 1e-9 resolution so libm's last bit cannot move it.
TEST(VehicularChannel, GoldenRealisationDigest) {
  const scenario::Testbed bed = scenario::make_vanlan(2);
  const auto ch = bed.make_channel(Rng(2008));
  const int radios = bed.wired_host().value();  // BSes and both vans
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&digest](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (word >> (8 * b)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  int delivered = 0;
  for (int i = 0; i < 10000; ++i) {
    const Time now = Time::millis(20.0 * i);
    const NodeId tx(i % radios);
    const NodeId rx((i % radios + 1 + (i / radios) % (radios - 1)) % radios);
    const double p = ch->reception_prob(tx, rx, now);
    const bool got = ch->sample_delivery(tx, rx, now);
    mix(static_cast<std::uint64_t>(std::llround(p * 1e9)));
    mix(got ? 1 : 0);
    delivered += got ? 1 : 0;
  }
  EXPECT_GT(delivered, 500);
  EXPECT_EQ(digest, 0x98edbd3a95e2c510ull);
}

// --------------------------------------------------------- TraceLossModel --

TEST(TraceLossModel, UnknownPairsAreUnreachable) {
  TraceLossModel m(Rng(37));
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(0), NodeId(1), Time::zero()), 1.0);
  EXPECT_FALSE(m.sample_delivery(NodeId(0), NodeId(1), Time::zero()));
}

TEST(TraceLossModel, PerSecondScheduleLookup) {
  TraceLossModel m(Rng(41));
  m.set_loss_rate(NodeId(0), NodeId(1), 0, 0.25);
  m.set_loss_rate(NodeId(0), NodeId(1), 1, 0.75);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(0), NodeId(1), Time::millis(500.0)),
                   0.25);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(0), NodeId(1), Time::millis(1500.0)),
                   0.75);
  // Symmetric by construction (§5.1).
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(1), NodeId(0), Time::millis(500.0)),
                   0.25);
}

TEST(TraceLossModel, ConstantRateFillsGaps) {
  TraceLossModel m(Rng(43));
  m.set_constant_loss_rate(NodeId(2), NodeId(3), 0.5);
  m.set_loss_rate(NodeId(2), NodeId(3), 2, 0.1);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(2), NodeId(3), Time::seconds(0.5)), 0.5);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(2), NodeId(3), Time::seconds(2.5)), 0.1);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(2), NodeId(3), Time::seconds(9.0)), 0.5);
}

TEST(TraceLossModel, SampleRateMatchesSchedule) {
  TraceLossModel m(Rng(47));
  m.set_constant_loss_rate(NodeId(0), NodeId(1), 0.3);
  int got = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (m.sample_delivery(NodeId(0), NodeId(1), Time::millis(i))) ++got;
  EXPECT_NEAR(static_cast<double>(got) / n, 0.7, 0.02);
}

TEST(TraceLossModel, HorizonTracksLongestSchedule) {
  TraceLossModel m(Rng(53));
  EXPECT_EQ(m.horizon_seconds(), 0);
  m.set_loss_rate(NodeId(0), NodeId(1), 41, 0.5);
  EXPECT_EQ(m.horizon_seconds(), 42);
}

TEST(TraceLossModel, RejectsInvalidAndOutOfRangeIds) {
  TraceLossModel m(Rng(61));
  const NodeId past(kMaxChannelNodes);
  EXPECT_THROW(m.set_loss_rate(NodeId{}, NodeId(1), 0, 0.5), ContractViolation);
  EXPECT_THROW(m.set_constant_loss_rate(NodeId(0), past, 0.5),
               ContractViolation);
  EXPECT_THROW(m.loss_rate(past, NodeId(0), Time::zero()), ContractViolation);
  // A valid id past every stored pair is still just unreachable.
  m.set_constant_loss_rate(NodeId(0), NodeId(1), 0.25);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(0), NodeId(9), Time::zero()), 1.0);
  EXPECT_DOUBLE_EQ(m.loss_rate(NodeId(1), NodeId(0), Time::zero()), 0.25);
}

TEST(TraceLossModel, RejectsOutOfRangeInputs) {
  TraceLossModel m(Rng(59));
  EXPECT_THROW(m.set_loss_rate(NodeId(0), NodeId(1), -1, 0.5),
               vifi::ContractViolation);
  EXPECT_THROW(m.set_loss_rate(NodeId(0), NodeId(1), 0, 1.5),
               vifi::ContractViolation);
}

}  // namespace
}  // namespace vifi::channel
