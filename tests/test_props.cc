// Parameterized property suites (TEST_P sweeps) over the library's core
// invariants: session accounting, relay-probability guarantees, channel
// processes and pair state, the pab table against its map-based reference,
// CDFs, TCP delivery exactness, and time arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sessions.h"
#include "apps/tcp.h"
#include "apps/transport.h"
#include "channel/distance_loss.h"
#include "channel/markov.h"
#include "channel/trace_driven.h"
#include "channel/vehicular.h"
#include "core/pab.h"
#include "core/relay_policy.h"
#include "mac/frame.h"
#include "mobility/vec2.h"
#include "sim/ids.h"
#include "util/cdf.h"
#include "util/ewma.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace vifi {
namespace {

// ----------------------------------------------------- session invariants --

struct SessionCase {
  double interval_s;
  double min_ratio;
};

class SessionProperties : public ::testing::TestWithParam<SessionCase> {};

analysis::SlotStream random_stream(std::uint64_t seed, int slots = 1200) {
  analysis::SlotStream s;
  Rng rng(seed);
  // Bursty synthetic stream: alternating good/bad phases.
  bool good = true;
  int left = 0;
  for (int i = 0; i < slots; ++i) {
    if (left == 0) {
      good = !good;
      left = static_cast<int>(rng.uniform_int(5, 80));
    }
    --left;
    const double p = good ? 0.9 : 0.15;
    s.delivered.push_back((rng.bernoulli(p) ? 1 : 0) +
                          (rng.bernoulli(p) ? 1 : 0));
  }
  return s;
}

TEST_P(SessionProperties, TotalSessionTimeNeverExceedsStreamDuration) {
  const auto [interval_s, min_ratio] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto stream = random_stream(seed);
    analysis::SessionDef def{Time::seconds(interval_s), min_ratio};
    const auto lengths = analysis::session_lengths_s(stream, def);
    const double total =
        std::accumulate(lengths.begin(), lengths.end(), 0.0);
    EXPECT_LE(total, stream.duration().to_seconds() + 1e-9);
    for (double len : lengths) {
      EXPECT_GT(len, 0.0);
      // Lengths are whole multiples of the interval.
      const double k = len / interval_s;
      EXPECT_NEAR(k, std::round(k), 1e-9);
    }
  }
}

TEST_P(SessionProperties, SessionsMatchTimelineAccounting) {
  const auto [interval_s, min_ratio] = GetParam();
  const auto stream = random_stream(42);
  analysis::SessionDef def{Time::seconds(interval_s), min_ratio};
  const auto lengths = analysis::session_lengths_s(stream, def);
  const auto tl = analysis::connectivity_timeline(stream, def);
  const double total = std::accumulate(lengths.begin(), lengths.end(), 0.0);
  EXPECT_NEAR(total, tl.adequate_s, 1e-9);
  // '#' characters match total adequate intervals.
  const auto hashes = std::count(tl.strip.begin(), tl.strip.end(), '#');
  EXPECT_NEAR(static_cast<double>(hashes) * interval_s, total, 1e-9);
}

TEST_P(SessionProperties, MedianIsAnActualSessionLength) {
  const auto [interval_s, min_ratio] = GetParam();
  const auto stream = random_stream(7);
  analysis::SessionDef def{Time::seconds(interval_s), min_ratio};
  const auto lengths = analysis::session_lengths_s(stream, def);
  if (lengths.empty()) return;
  const double med = analysis::median_session_length(lengths);
  EXPECT_NE(std::find(lengths.begin(), lengths.end(), med), lengths.end());
}

INSTANTIATE_TEST_SUITE_P(
    DefinitionSweep, SessionProperties,
    ::testing::Values(SessionCase{0.5, 0.5}, SessionCase{1.0, 0.1},
                      SessionCase{1.0, 0.5}, SessionCase{1.0, 0.9},
                      SessionCase{2.0, 0.3}, SessionCase{4.0, 0.5},
                      SessionCase{8.0, 0.7}, SessionCase{16.0, 0.5}));

// ------------------------------------------------ relay-policy invariants --

struct RelayCase {
  int n_aux;
  double ps;    // p(src -> aux)
  double psd;   // p(src -> dst)
  double pd;    // p(dst -> aux)
  double pbd;   // p(aux -> dst)
};

class RelayProperties : public ::testing::TestWithParam<RelayCase> {
 protected:
  core::PabTable build_table(const RelayCase& c) {
    core::PabTable pab(sim::NodeId(0), 10, 0.5);
    std::vector<mac::ProbReport> reports;
    const sim::NodeId src(100), dst(101);
    const int own_beacons = static_cast<int>(c.ps * 10.0 + 0.5);
    for (int k = 0; k < own_beacons; ++k)
      pab.note_beacon(src, Time::millis(k * 10.0));
    const int dst_beacons = static_cast<int>(c.pd * 10.0 + 0.5);
    for (int k = 0; k < dst_beacons; ++k)
      pab.note_beacon(dst, Time::millis(k * 10.0 + 1.0));
    pab.tick_second(Time::seconds(1.0));
    for (int i = 1; i < c.n_aux; ++i) {
      reports.push_back({src, sim::NodeId(i), c.ps});
      reports.push_back({dst, sim::NodeId(i), c.pd});
      reports.push_back({sim::NodeId(i), dst, c.pbd});
    }
    reports.push_back({sim::NodeId(0), dst, c.pbd});
    reports.push_back({src, dst, c.psd});
    pab.fold_reports(reports, Time::seconds(1.0));
    return pab;
  }

  core::RelayContext context(const core::PabTable& pab, int n_aux,
                             sim::NodeId self) {
    core::RelayContext ctx;
    ctx.self = self;
    ctx.src = sim::NodeId(100);
    ctx.dst = sim::NodeId(101);
    for (int i = 0; i < n_aux; ++i) ctx.auxiliaries.push_back(sim::NodeId(i));
    ctx.pab = &pab;
    ctx.now = Time::seconds(1.0);
    return ctx;
  }
};

TEST_P(RelayProperties, AllVariantsYieldValidProbabilities) {
  const RelayCase c = GetParam();
  const core::PabTable pab = build_table(c);
  for (const auto variant :
       {core::RelayVariant::ViFi, core::RelayVariant::NoG1,
        core::RelayVariant::NoG2, core::RelayVariant::NoG3}) {
    const core::RelayContext ctx = context(pab, c.n_aux, sim::NodeId(0));
    const double r = core::relay_probability(ctx, variant);
    EXPECT_GE(r, 0.0) << core::to_string(variant);
    EXPECT_LE(r, 1.0) << core::to_string(variant);
  }
}

TEST_P(RelayProperties, ViFiExpectedRelaysIsOneUnlessClamped) {
  const RelayCase c = GetParam();
  const core::PabTable pab = build_table(c);
  double expectation = 0.0;
  bool clamped = false;
  for (int i = 0; i < c.n_aux; ++i) {
    core::RelayContext ctx = context(pab, c.n_aux, sim::NodeId(i));
    const double ci = core::contention_probability(ctx, sim::NodeId(i));
    const double ri = core::relay_probability(ctx, core::RelayVariant::ViFi);
    if (ri >= 1.0) clamped = true;
    expectation += ci * ri;
  }
  if (!clamped) {
    // Gossip-vs-own-estimate asymmetry at B0 makes the sum approximate.
    EXPECT_NEAR(expectation, 1.0, 0.15);
  } else {
    EXPECT_LE(expectation, 1.0 + 1e-9);
  }
}

TEST_P(RelayProperties, ContentionDecreasesWithAckAudibility) {
  const RelayCase c = GetParam();
  const core::PabTable pab = build_table(c);
  core::RelayContext ctx = context(pab, c.n_aux, sim::NodeId(0));
  const double base = core::contention_probability(ctx, sim::NodeId(0));
  // c_i = ps * (1 - psd * pd): must always lie in [ps*(1-psd), ps].
  const double ps = std::max(c.ps, 0.05);
  EXPECT_LE(base, ps + 1e-9);
  EXPECT_GE(base, ps * (1.0 - c.psd) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, RelayProperties,
    ::testing::Values(RelayCase{1, 0.8, 0.5, 0.5, 0.6},
                      RelayCase{2, 0.8, 0.5, 0.5, 0.6},
                      RelayCase{3, 0.6, 0.3, 0.2, 0.4},
                      RelayCase{5, 0.9, 0.7, 0.6, 0.8},
                      RelayCase{8, 0.5, 0.2, 0.3, 0.3},
                      RelayCase{12, 0.7, 0.5, 0.4, 0.5},
                      RelayCase{4, 0.3, 0.1, 0.1, 0.2},
                      RelayCase{6, 1.0, 0.9, 0.9, 0.9}));

// -------------------------------------------------- two-state CTMC sweep --

struct MarkovCase {
  double mean_on_s;
  double mean_off_s;
};

class MarkovProperties : public ::testing::TestWithParam<MarkovCase> {};

TEST_P(MarkovProperties, LongRunFractionMatchesStationary) {
  const auto [on_s, off_s] = GetParam();
  channel::TwoStateProcess p = channel::TwoStateProcess::stationary(
      Time::seconds(on_s), Time::seconds(off_s), Rng(99));
  int on = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (p.on_at(Time::millis(20.0 * i))) ++on;
  const double expected = on_s / (on_s + off_s);
  EXPECT_NEAR(static_cast<double>(on) / n, expected, 0.05);
}

INSTANTIATE_TEST_SUITE_P(SojournSweep, MarkovProperties,
                         ::testing::Values(MarkovCase{1.0, 1.0},
                                           MarkovCase{0.5, 4.0},
                                           MarkovCase{4.0, 0.5},
                                           MarkovCase{2.0, 8.0},
                                           MarkovCase{10.0, 50.0}));

// ------------------------------------------- vehicular channel pair state --

// The channel builds one record per unordered pair, both burst directions
// and the gray process at once, the first time either direction is
// evaluated. That is exact only because each process is a pure function of
// its fork name and draws only as time advances. Channel `late` first
// touches every pair hi -> lo at the start of the shared grid; `early`
// touches it lo -> hi long before. Both must match each other and a
// reference that builds each process on its own under its documented name
// (ge/tx/rx, gray/lo/hi, fade/n/n).
TEST(VehicularChannel, PairStateIsIndependentOfFirstTouch) {
  using channel::TwoStateProcess;
  using sim::NodeId;
  constexpr int kNodes = 7;
  constexpr int kBses = 3;  // 0-2 fixed BSes; 3-6 vehicles driving past
  const Rng root(61);
  auto positions = [](NodeId id, Time t) {
    if (id.value() < kBses) return mobility::Vec2{90.0 * id.value(), 0.0};
    const double speed = 4.0 * id.value();
    return mobility::Vec2{-60.0 + speed * t.to_seconds(), 15.0 * id.value()};
  };
  const channel::VehicularChannelParams params;
  channel::VehicularChannel early(params, positions, root);
  channel::VehicularChannel late(params, positions, root);
  for (int n = kBses; n < kNodes; ++n) {
    early.mark_mobile(NodeId(n));
    late.mark_mobile(NodeId(n));
  }

  const channel::DistanceLossCurve curve(params.distance);
  std::map<std::string, TwoStateProcess> procs;
  Rng ref_draws = root.fork("per-packet-draws");
  auto on = [&](const char* kind, int a, int b, Time mean_on, Time mean_off,
                Time now) {
    const std::string name = std::string(kind) + "/" + std::to_string(a) +
                             "/" + std::to_string(b);
    auto it = procs.find(name);
    if (it == procs.end())
      it = procs
               .emplace(name, TwoStateProcess::stationary(
                                  mean_on, mean_off,
                                  root.fork(name).fork("proc")))
               .first;
    return it->second.on_at(now);
  };
  auto ref_prob = [&](int tx, int rx, Time now) {
    const double d = mobility::distance(positions(NodeId(tx), now),
                                        positions(NodeId(rx), now));
    if (d > curve.cutoff_m()) return 0.0;
    double p = curve.reception_prob(d);
    if (on("ge", tx, rx, params.ge_mean_bad, params.ge_mean_good, now))
      p *= params.ge_bad_multiplier;
    if (on("gray", std::min(tx, rx), std::max(tx, rx), params.gray_mean_on,
           params.gray_mean_off, now))
      p *= params.gray_multiplier;
    for (int end : {tx, rx}) {
      if (end >= kBses && on("fade", end, end, params.common_mean_on,
                             params.common_mean_off, now))
        p *= params.common_multiplier;
    }
    return std::clamp(p, 0.0, 1.0);
  };

  // Every pair is in range at both touch instants.
  const Time touch = Time::seconds(1.0), start = Time::seconds(5.0);
  for (int hi = 1; hi < kNodes; ++hi) {
    for (int lo = 0; lo < hi; ++lo) {
      EXPECT_GT(early.reception_prob(NodeId(lo), NodeId(hi), touch), 0.0);
      EXPECT_GT(late.reception_prob(NodeId(hi), NodeId(lo), start), 0.0);
    }
  }

  using Draw = std::pair<double, bool>;
  std::vector<Draw> seq_early, seq_late, seq_ref;
  int delivered = 0, out_of_range = 0;
  for (int k = 0; k < 500; ++k) {
    const Time now = start + Time::millis(37.0 * k);
    for (int tx = 0; tx < kNodes; ++tx) {
      for (int rx = 0; rx < kNodes; ++rx) {
        if (tx == rx) continue;
        const NodeId t(tx), r(rx);
        const double pe = early.reception_prob(t, r, now);
        seq_early.emplace_back(pe, early.sample_delivery(t, r, now));
        const double pl = late.reception_prob(t, r, now);
        seq_late.emplace_back(pl, late.sample_delivery(t, r, now));
        const double pr = ref_prob(tx, rx, now);
        seq_ref.emplace_back(pr, ref_draws.bernoulli(pr));
        delivered += seq_ref.back().second ? 1 : 0;
        out_of_range += pr == 0.0 ? 1 : 0;
      }
    }
  }
  EXPECT_TRUE(seq_early == seq_ref);
  EXPECT_TRUE(seq_late == seq_ref);
  // The grid sees deliveries, losses and links that drive out of range.
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, static_cast<int>(seq_ref.size()));
  EXPECT_GT(out_of_range, 0);
}

// ------------------------------------------- PabTable vs. a map reference --

/// The map-based `PabTable` the flat sorted tables replaced, kept as a
/// reference model with the same logic. It also counts the edge cases a
/// random sequence reached, so the differential test can require each.
class MapPabTable {
 public:
  struct Coverage {
    int middle_inserts = 0;   // a new gossip key between two known ones
    int overwrites = 0;       // a gossip key reported again
    int stale_reads = 0;      // a known entry answered with the fallback
    int first_seconds = 0;    // a neighbour's first tick
    int aged_out = 0;         // a silent neighbour past freshness
  };

  MapPabTable(sim::NodeId self, int beacons_per_second, double alpha)
      : self_(self), beacons_per_second_(beacons_per_second), alpha_(alpha) {}

  void note_beacon(sim::NodeId from, Time now) {
    ++counts_this_second_[from];
    last_heard_[from] = now;
  }

  void fold_reports(const std::vector<mac::ProbReport>& reports, Time now) {
    for (const mac::ProbReport& r : reports) {
      if (!r.from.valid() || !r.to.valid()) continue;
      if (r.to == self_) continue;
      const sim::LinkKey key{r.from, r.to};
      const auto at = remote_.lower_bound(key);
      if (at != remote_.end() && at->first == key)
        ++coverage.overwrites;
      else if (at != remote_.begin() && at != remote_.end())
        ++coverage.middle_inserts;
      remote_[key] = {std::clamp(r.prob, 0.0, 1.0), now};
    }
  }

  void tick_second(Time now) {
    for (auto& [from, est] : incoming_) {
      const auto it = counts_this_second_.find(from);
      const int c = it == counts_this_second_.end() ? 0 : it->second;
      const auto lh = last_heard_.find(from);
      const bool fresh = lh != last_heard_.end() &&
                         (now - lh->second).to_seconds() < kFreshnessSeconds;
      if (c > 0 || fresh) {
        est.avg.update(std::min(
            1.0, static_cast<double>(c) / beacons_per_second_));
        est.last_update = now;
      } else {
        ++coverage.aged_out;
      }
    }
    for (const auto& [from, c] : counts_this_second_) {
      if (incoming_.contains(from)) continue;
      ++coverage.first_seconds;
      Estimate est;
      est.avg = Ewma(alpha_);
      est.avg.update(
          std::min(1.0, static_cast<double>(c) / beacons_per_second_));
      est.last_update = now;
      incoming_.emplace(from, est);
    }
    counts_this_second_.clear();
  }

  double incoming(sim::NodeId from, Time now, double fallback) {
    const auto it = incoming_.find(from);
    if (it == incoming_.end() || !it->second.avg.initialized())
      return fallback;
    if ((now - it->second.last_update).to_seconds() > kFreshnessSeconds) {
      ++coverage.stale_reads;
      return fallback;
    }
    return it->second.avg.value();
  }

  double get(sim::NodeId from, sim::NodeId to, Time now, double fallback) {
    if (to == self_) return incoming(from, now, fallback);
    const auto it = remote_.find({from, to});
    if (it == remote_.end()) return fallback;
    if ((now - it->second.last_update).to_seconds() > kFreshnessSeconds) {
      ++coverage.stale_reads;
      return fallback;
    }
    return it->second.prob;
  }

  std::vector<sim::NodeId> recent_neighbors(Time now, Time staleness) const {
    std::vector<sim::NodeId> out;
    for (const auto& [from, t] : last_heard_)
      if (now - t <= staleness) out.push_back(from);
    return out;
  }

  std::vector<mac::ProbReport> export_reports(Time now) const {
    std::vector<mac::ProbReport> out;
    for (const auto& [from, est] : incoming_) {
      if (!est.avg.initialized()) continue;
      if ((now - est.last_update).to_seconds() > kFreshnessSeconds) continue;
      out.push_back({from, self_, est.avg.value()});
    }
    for (const auto& [key, rem] : remote_) {
      if (key.tx != self_) continue;
      if ((now - rem.last_update).to_seconds() > kFreshnessSeconds) continue;
      out.push_back({key.tx, key.rx, rem.prob});
    }
    return out;
  }

  Coverage coverage;

 private:
  struct Estimate {
    Ewma avg{0.5};
    Time last_update;
  };
  struct Remote {
    double prob = 0.0;
    Time last_update;
  };
  static constexpr double kFreshnessSeconds = 5.0;

  sim::NodeId self_;
  int beacons_per_second_;
  double alpha_;
  std::map<sim::NodeId, int> counts_this_second_;
  std::map<sim::NodeId, Estimate> incoming_;
  std::map<sim::LinkKey, Remote> remote_;
  std::map<sim::NodeId, Time> last_heard_;
};

void expect_same_reports(const std::vector<mac::ProbReport>& got,
                         const std::vector<mac::ProbReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].from, want[i].from);
    EXPECT_EQ(got[i].to, want[i].to);
    EXPECT_EQ(got[i].prob, want[i].prob);  // bit-equal, not near
  }
}

// 1000 seeded random operation sequences drive the flat table and the map
// reference side by side; every answer must be bit-equal. Time moves in
// 100 ms steps with occasional multi-second gaps, so ticks and reads land
// exactly on the 5 s freshness boundaries.
TEST(PabTable, MatchesMapReferenceOnRandomSequences) {
  constexpr int kIds = 12;  // node ids 0..11; -1 stands for an invalid id
  const Rng root = Rng(2008).fork("pab-differential");
  MapPabTable::Coverage total;
  for (int seq = 0; seq < 1000 && !HasFailure(); ++seq) {
    SCOPED_TRACE("sequence " + std::to_string(seq));
    Rng rng = root.fork("seq/" + std::to_string(seq));
    const sim::NodeId self(static_cast<int>(rng.uniform_int(0, kIds - 1)));
    core::PabTable flat(self, 10, 0.5);
    MapPabTable ref(self, 10, 0.5);
    auto id_from = [&rng](int lo) {
      return sim::NodeId(static_cast<int>(rng.uniform_int(lo, kIds - 1)));
    };
    auto any_id = [&id_from] { return id_from(-1); };
    Time now = Time::zero();
    for (int op = 0; op < 200 && !HasFailure(); ++op) {
      now = now + Time::millis(100.0 * (rng.bernoulli(0.05)
                                            ? rng.uniform_int(10, 80)
                                            : rng.uniform_int(0, 3)));
      switch (rng.uniform_int(0, 6)) {
        case 0: {
          const sim::NodeId from = id_from(0);
          flat.note_beacon(from, now);
          ref.note_beacon(from, now);
          break;
        }
        case 1: {
          std::vector<mac::ProbReport> reports(
              static_cast<std::size_t>(rng.uniform_int(0, 6)));
          for (mac::ProbReport& r : reports) {
            r.from = rng.bernoulli(0.3) ? self : any_id();
            r.to = rng.bernoulli(0.2) ? self : any_id();
            r.prob = rng.uniform(-0.2, 1.2);
          }
          flat.fold_reports(reports, now);
          ref.fold_reports(reports, now);
          break;
        }
        case 2:
          flat.tick_second(now);
          ref.tick_second(now);
          break;
        case 3: {
          const sim::NodeId from = any_id();
          const sim::NodeId to = rng.bernoulli(0.3) ? self : any_id();
          EXPECT_EQ(flat.get(from, to, now, -1.0),
                    ref.get(from, to, now, -1.0));
          break;
        }
        case 4: {
          const sim::NodeId from = any_id();
          EXPECT_EQ(flat.incoming(from, now, -1.0),
                    ref.incoming(from, now, -1.0));
          break;
        }
        case 5: {
          const Time staleness = Time::seconds(rng.uniform_int(0, 6));
          EXPECT_EQ(flat.recent_neighbors(now, staleness),
                    ref.recent_neighbors(now, staleness));
          break;
        }
        default:
          expect_same_reports(flat.export_reports(now),
                              ref.export_reports(now));
          break;
      }
    }
    total.middle_inserts += ref.coverage.middle_inserts;
    total.overwrites += ref.coverage.overwrites;
    total.stale_reads += ref.coverage.stale_reads;
    total.first_seconds += ref.coverage.first_seconds;
    total.aged_out += ref.coverage.aged_out;
  }
  EXPECT_GT(total.middle_inserts, 0);
  EXPECT_GT(total.overwrites, 0);
  EXPECT_GT(total.stale_reads, 0);
  EXPECT_GT(total.first_seconds, 0);
  EXPECT_GT(total.aged_out, 0);
}

// ------------------------------------------------------------- CDF sweep --

class CdfProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfProperties, QuantileAndFractionAreConsistent) {
  Rng rng(GetParam());
  Cdf cdf;
  for (int i = 0; i < 300; ++i)
    cdf.add(rng.uniform(0.0, 100.0), rng.uniform(0.5, 2.0));
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double v = cdf.quantile(q);
    // At the q-quantile, at least q of the weight lies at or below v.
    EXPECT_GE(cdf.fraction_at_or_below(v), q - 1e-9);
  }
  EXPECT_NEAR(cdf.fraction_at_or_below(1000.0), 1.0, 1e-12);
}

TEST_P(CdfProperties, MonotoneInX) {
  Rng rng(GetParam() + 1000);
  Cdf cdf;
  for (int i = 0; i < 200; ++i) cdf.add(rng.normal(50.0, 20.0));
  double prev = -1.0;
  for (double x = -20.0; x <= 120.0; x += 2.5) {
    const double y = cdf.fraction_at_or_below(x);
    EXPECT_GE(y, prev - 1e-12);
    prev = y;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfProperties,
                         ::testing::Values(1, 2, 3, 4, 5));

// ----------------------------------------------------- TCP delivery sweep --

struct TcpCase {
  std::int64_t bytes;
  int drop_every;  ///< Drop every n-th transport send (0 = none).
};

/// Loopback transport that drops deterministically.
class DroppyTransport final : public apps::Transport {
 public:
  explicit DroppyTransport(sim::Simulator& sim, int drop_every)
      : sim_(sim), drop_every_(drop_every) {}

  void send(net::Direction dir, int bytes, int flow, std::uint64_t app_seq,
            net::AppPayload data) override {
    ++count_;
    if (drop_every_ > 0 && count_ % drop_every_ == 0) return;
    auto p = factory_.make(dir, sim::NodeId(0), sim::NodeId(1), bytes,
                           sim_.now(), flow, app_seq, std::move(data));
    sim_.schedule(Time::millis(5), [this, p] {
      const auto it = handlers_.find(p->flow);
      if (it != handlers_.end()) it->second(p);
    });
  }
  void subscribe(int flow, Handler handler) override {
    handlers_[flow] = std::move(handler);
  }
  void unsubscribe(int flow) override { handlers_.erase(flow); }
  Time now() const override { return sim_.now(); }

 private:
  sim::Simulator& sim_;
  int drop_every_;
  int count_ = 0;
  net::PacketFactory factory_;
  std::map<int, Handler> handlers_;
};

class TcpProperties : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpProperties, TransfersCompleteExactly) {
  const auto [bytes, drop_every] = GetParam();
  sim::Simulator sim;
  DroppyTransport link(sim, drop_every);
  apps::TcpTransfer xfer(sim, link, 1, net::Direction::Downstream, bytes);
  xfer.start();
  sim.run_until(Time::seconds(120.0));
  ASSERT_TRUE(xfer.complete())
      << "bytes=" << bytes << " drop_every=" << drop_every;
  EXPECT_EQ(xfer.bytes_acked(), bytes);
  if (drop_every == 0) {
    EXPECT_EQ(xfer.retransmissions(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeAndLossSweep, TcpProperties,
    ::testing::Values(TcpCase{100, 0}, TcpCase{1200, 0}, TcpCase{1201, 0},
                      TcpCase{10 * 1024, 0}, TcpCase{100 * 1024, 0},
                      TcpCase{10 * 1024, 7}, TcpCase{10 * 1024, 4},
                      TcpCase{100 * 1024, 9}, TcpCase{3 * 1024, 3}));

// --------------------------------------------------------- TraceLossModel --

class ScheduleProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleProperties, EmpiricalRateTracksSchedule) {
  Rng rng(GetParam());
  channel::TraceLossModel model(Rng(GetParam() + 1));
  std::vector<double> rates;
  for (int sec = 0; sec < 5; ++sec) {
    const double loss = rng.uniform(0.0, 1.0);
    rates.push_back(loss);
    model.set_loss_rate(sim::NodeId(0), sim::NodeId(1), sec, loss);
  }
  for (int sec = 0; sec < 5; ++sec) {
    int got = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      const Time t = Time::seconds(sec) + Time::micros(200 * i);
      if (model.sample_delivery(sim::NodeId(0), sim::NodeId(1), t)) ++got;
    }
    EXPECT_NEAR(static_cast<double>(got) / n, 1.0 - rates[static_cast<std::size_t>(sec)],
                0.04);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleProperties,
                         ::testing::Values(11, 22, 33));

// ------------------------------------------------------------ time sweep --

class TimeProperties : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TimeProperties, ArithmeticRoundTrips) {
  const std::int64_t us = GetParam();
  const Time t = Time::micros(us);
  EXPECT_EQ(Time::seconds(t.to_seconds()).to_micros(), us);
  EXPECT_EQ((t + Time::zero()), t);
  EXPECT_EQ((t - t), Time::zero());
  EXPECT_EQ((t * 2.0) / 2.0, t);
}

INSTANTIATE_TEST_SUITE_P(Values, TimeProperties,
                         ::testing::Values(0, 1, -1, 999, 1'000'000,
                                           -5'000'000, 123'456'789));

}  // namespace
}  // namespace vifi
