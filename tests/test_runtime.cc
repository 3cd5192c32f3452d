// Tests for the parallel experiment runtime: grid enumeration, seed
// derivation, thread-safe result aggregation, and — the core contract —
// byte-identical serialised output regardless of worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <sstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "runtime/executor.h"
#include "runtime/runner.h"
#include "scenario/campaign.h"
#include "tracegen/catalog.h"
#include "util/contracts.h"

namespace vifi::runtime {
namespace {

ExperimentSpec small_replay_spec() {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"AllBSes", "BRR"};
  spec.grid.seeds = {1, 2};
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.base_seed = 99;
  return spec;
}

TEST(ParamGrid, EnumeratesRowMajorWithDenseIndices) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1"};
  spec.grid.policies = {"BRR", "BestBS", "AllBSes"};
  spec.grid.seeds = {1, 2};
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 12u);
  EXPECT_EQ(points.size(), spec.grid.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
  // Row-major: seeds vary fastest, testbeds slowest.
  EXPECT_EQ(points[0].testbed, "VanLAN");
  EXPECT_EQ(points[0].policy, "BRR");
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 2u);
  EXPECT_EQ(points[2].policy, "BestBS");
  EXPECT_EQ(points[6].testbed, "DieselNet-Ch1");
}

TEST(ParamGrid, CampaignSeedIgnoresPolicyButPointSeedDoesNot) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"BRR", "BestBS"};
  spec.grid.seeds = {7};
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 2u);
  // Policies are compared on the same campaign realisation...
  EXPECT_EQ(points[0].campaign_seed, points[1].campaign_seed);
  // ...but point-local streams must not collide across policies.
  EXPECT_NE(points[0].point_seed, points[1].point_seed);
}

TEST(ParamGrid, SeedsDifferAcrossAxes) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1", "DieselNet-Ch6"};
  spec.grid.policies = {"BRR"};
  spec.grid.seeds = {1, 2, 3, 4};
  std::set<std::uint64_t> campaign_seeds;
  for (const auto& p : spec.enumerate()) campaign_seeds.insert(p.campaign_seed);
  EXPECT_EQ(campaign_seeds.size(), 12u);
}

TEST(ParamGrid, FleetAxisEnumeratesBetweenTestbedAndPolicy) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.fleet_sizes = {1, 4};
  spec.grid.policies = {"ViFi", "BRR"};
  spec.grid.seeds = {1};
  const auto points = spec.enumerate();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].fleet_size, 1);
  EXPECT_EQ(points[0].policy, "ViFi");
  EXPECT_EQ(points[1].policy, "BRR");
  EXPECT_EQ(points[2].fleet_size, 4);
  // Fleet-1 points keep the historical (base seed, testbed, seed)
  // derivation; larger fleets realise different campaigns.
  ExperimentSpec single = spec;
  single.grid.fleet_sizes = {1};
  EXPECT_EQ(points[0].campaign_seed, single.enumerate()[0].campaign_seed);
  EXPECT_NE(points[0].campaign_seed, points[2].campaign_seed);
}

TEST(MakeTestbed, FleetSizePropagatesToTheTestbed) {
  const scenario::Testbed bed = make_testbed("VanLAN", 3);
  EXPECT_EQ(bed.fleet_size(), 3);
  EXPECT_EQ(bed.vehicle_ids().size(), 3u);
}

TEST(MixSeed, DeterministicAndSensitive) {
  EXPECT_EQ(mix_seed(1, "abc"), mix_seed(1, "abc"));
  EXPECT_NE(mix_seed(1, "abc"), mix_seed(2, "abc"));
  EXPECT_NE(mix_seed(1, "abc"), mix_seed(1, "abd"));
  EXPECT_EQ(mix_seed(1, std::uint64_t{5}), mix_seed(1, std::uint64_t{5}));
  EXPECT_NE(mix_seed(1, std::uint64_t{5}), mix_seed(1, std::uint64_t{6}));
}

TEST(MakeTestbed, KnowsBothTestbedFamilies) {
  EXPECT_TRUE(known_testbed("VanLAN"));
  EXPECT_TRUE(known_testbed("DieselNet-Ch1"));
  EXPECT_TRUE(known_testbed("DieselNet-Ch6"));
  EXPECT_FALSE(known_testbed("CabLAN"));
  EXPECT_THROW(make_testbed("CabLAN"), ContractViolation);
}

TEST(ResultSink, OrdersByIndexRegardlessOfInsertionOrder) {
  ResultSink sink;
  for (const std::size_t i : {2u, 0u, 1u}) {
    PointResult r;
    r.index = i;
    r.policy = "p";
    r.policy += std::to_string(i);  // += form: avoids GCC 12 -Wrestrict FP
    sink.add(std::move(r));
  }
  const auto ordered = sink.ordered();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0].index, 0u);
  EXPECT_EQ(ordered[1].index, 1u);
  EXPECT_EQ(ordered[2].index, 2u);
}

TEST(ResultSink, CsvUnionsMetricColumnsSorted) {
  ResultSink sink;
  PointResult a;
  a.index = 0;
  a.metrics["zeta"] = 1.0;
  PointResult b;
  b.index = 1;
  b.metrics["alpha"] = 2.5;
  sink.add(std::move(a));
  sink.add(std::move(b));
  const std::string csv = sink.to_csv();
  EXPECT_NE(csv.find("index,testbed,fleet,policy,seed,alpha,zeta,error"),
            std::string::npos);
}

TEST(Runner, ShardsAllIndicesExactlyOnce) {
  const Runner runner({.threads = 4});
  const ResultSink sink = runner.run_indexed(37, [](std::size_t i) {
    PointResult r;
    r.index = i;
    r.metrics["i"] = static_cast<double>(i);
    return r;
  });
  const auto results = sink.ordered();
  ASSERT_EQ(results.size(), 37u);
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].metrics.at("i"), static_cast<double>(i));
}

TEST(Runner, RecordsPointFailuresWithoutAbortingTheSweep) {
  const Runner runner({.threads = 2});
  const ResultSink sink = runner.run_indexed(4, [](std::size_t i) {
    if (i == 2) throw std::runtime_error("boom");
    PointResult r;
    r.index = i;
    return r;
  });
  EXPECT_TRUE(sink.any_errors());
  const auto results = sink.ordered();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[2].error, "boom");
  EXPECT_TRUE(results[3].error.empty());
}

TEST(Runner, EmptySweepYieldsEmptySink) {
  const Runner runner({.threads = 4});
  const ResultSink sink =
      runner.run_indexed(0, [](std::size_t) { return PointResult{}; });
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_FALSE(sink.any_errors());
}

// The core determinism contract: the serialised output of a sweep is a pure
// function of the spec — identical bytes for 1 worker and N workers.
TEST(Runner, ReplaySweepIsThreadCountInvariant) {
  const ExperimentSpec spec = small_replay_spec();
  const ResultSink one = Runner({.threads = 1}).run(spec);
  const ResultSink four = Runner({.threads = 4}).run(spec);
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), four.to_json());
  EXPECT_EQ(one.to_csv(), four.to_csv());
}

TEST(Runner, SameSpecTwiceIsIdentical) {
  const ExperimentSpec spec = small_replay_spec();
  const Runner runner({.threads = 2});
  EXPECT_EQ(runner.run(spec).to_json(), runner.run(spec).to_json());
}

TEST(Runner, BaseSeedChangesResults) {
  ExperimentSpec a = small_replay_spec();
  ExperimentSpec b = small_replay_spec();
  b.base_seed = a.base_seed + 1;
  const Runner runner({.threads = 2});
  EXPECT_NE(runner.run(a).to_json(), runner.run(b).to_json());
}

TEST(Runner, LiveCbrSweepIsThreadCountInvariant) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi", "BRR"};
  spec.grid.seeds = {1};
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(20.0);
  spec.workload = "cbr";
  const ResultSink one = Runner({.threads = 1}).run(spec);
  const ResultSink four = Runner({.threads = 4}).run(spec);
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), four.to_json());
}

TEST(Runner, FleetReplaySweepIsThreadCountInvariant) {
  ExperimentSpec spec = small_replay_spec();
  spec.grid.fleet_sizes = {1, 2};
  spec.trip_duration = Time::seconds(20.0);
  const ResultSink one = Runner({.threads = 1}).run(spec);
  const ResultSink four = Runner({.threads = 4}).run(spec);
  EXPECT_FALSE(one.any_errors());
  EXPECT_EQ(one.to_json(), four.to_json());
  EXPECT_EQ(one.to_csv(), four.to_csv());
}

TEST(Executor, FleetReplayPointAggregatesEveryVehiclesLog) {
  ExperimentSpec spec = small_replay_spec();
  spec.grid.policies = {"AllBSes"};
  spec.grid.seeds = {1};
  spec.trip_duration = Time::seconds(20.0);
  const PointResult solo = run_point(spec.enumerate()[0]);
  spec.grid.fleet_sizes = {3};
  const PointResult fleet = run_point(spec.enumerate()[0]);
  EXPECT_TRUE(fleet.error.empty());
  EXPECT_EQ(fleet.fleet, 3);
  // Three vehicles log three slot streams per trip.
  EXPECT_EQ(fleet.metrics.at("slots"), 3.0 * solo.metrics.at("slots"));
}

TEST(Executor, ReplayPointProducesTheStandardMetricSet) {
  const auto points = small_replay_spec().enumerate();
  const PointResult r = run_point(points[0]);
  EXPECT_TRUE(r.error.empty());
  for (const char* key :
       {"slots", "packets_sent", "packets_delivered", "delivery_rate",
        "packets_per_day", "session_count", "median_session_s"})
    EXPECT_TRUE(r.metrics.count(key)) << key;
  ASSERT_TRUE(r.series.count("session_len_s_q"));
  ASSERT_TRUE(r.series.count("throughput_kbps_q"));
  EXPECT_EQ(r.series.at("session_len_s_q").size(), cdf_quantiles().size());
  EXPECT_GT(r.metrics.at("delivery_rate"), 0.0);
  EXPECT_LE(r.metrics.at("delivery_rate"), 1.0);
}

// Pool-size invariance of the executor on a catalog replay point: four
// workers, each loading only its own trip groups, reproduce the pool of
// one (run_point) byte for byte.
TEST(Executor, ShardedCatalogPointMatchesSequentialByteForByte) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_sharded_catalog";
  fs::remove_all(dir);
  const scenario::Testbed bed = make_testbed("DieselNet-Ch1", 2);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(10.0);
  cfg.seed = 42;
  cfg.log_probes = false;
  tracegen::write_catalog(dir.string(), "unit",
                          scenario::generate_campaign(bed, cfg));

  ExperimentSpec spec;
  spec.grid.testbeds = {"DieselNet-Ch1"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {dir.string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  const ExperimentPoint point = spec.enumerate().front();

  tracegen::drop_catalog_cache();
  const PointResult sequential = run_point(point);
  const PointResult sharded = run_point_sharded(point, Runner({.threads = 4}));
  fs::remove_all(dir);
  tracegen::drop_catalog_cache();
  ASSERT_TRUE(sequential.error.empty()) << sequential.error;

  ResultSink a, b;
  a.add(sequential);
  b.add(sharded);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

// Points carrying a TripScope session (trace dump and/or metric columns)
// shard too, stitching per-trip recorders/registries in trip order. The
// whole output — result bytes AND every exported trace file — must match
// the pool of one exactly.
TEST(Executor, ShardedInstrumentedPointMatchesSequentialByteForByte) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_sharded_instr";
  const fs::path seq_dir = dir / "seq", shard_dir = dir / "shard";
  fs::remove_all(dir);
  const scenario::Testbed bed = make_testbed("DieselNet-Ch1", 2);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(10.0);
  cfg.seed = 42;
  cfg.log_probes = false;
  tracegen::write_catalog((dir / "catalog").string(), "unit",
                          scenario::generate_campaign(bed, cfg));

  ExperimentSpec spec;
  spec.grid.testbeds = {"DieselNet-Ch1"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {(dir / "catalog").string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  spec.metric_columns = {"mac.transmissions", "core.salvaged"};
  spec.trace_dir = seq_dir.string();
  ExperimentPoint point = spec.enumerate().front();

  tracegen::drop_catalog_cache();
  const PointResult sequential = run_point(point);
  point.trace_dir = shard_dir.string();
  const PointResult sharded = run_point_sharded(point, Runner({.threads = 4}));
  tracegen::drop_catalog_cache();
  ASSERT_TRUE(sequential.error.empty()) << sequential.error;

  // The metric columns landed and agree exactly.
  for (const std::string& name : spec.metric_columns) {
    ASSERT_TRUE(sequential.metrics.count("obs." + name)) << name;
    EXPECT_EQ(sequential.metrics.at("obs." + name),
              sharded.metrics.at("obs." + name))
        << name;
  }
  ResultSink a, b;
  PointResult seq_copy = sequential;
  seq_copy.index = 0;
  a.add(std::move(seq_copy));
  b.add(sharded);
  EXPECT_EQ(a.to_json(), b.to_json());

  // Every exported trace artifact is byte-identical across pool sizes.
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    EXPECT_TRUE(in.good()) << p;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  for (const char* name :
       {"point_0000.trace.json", "point_0000.jsonl",
        "point_0000.metrics.json"}) {
    const std::string seq_bytes = slurp(seq_dir / name);
    EXPECT_FALSE(seq_bytes.empty()) << name;
    EXPECT_EQ(seq_bytes, slurp(shard_dir / name)) << name;
  }
  fs::remove_all(dir);
}

// The coordination axis rides the sharded path too: a coord point's
// sharded run must reproduce the sequential bytes (the predictor history
// fit and every per-trip manager decision are functions of the point).
TEST(Executor, ShardedCoordPointMatchesSequentialByteForByte) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_sharded_coord";
  fs::remove_all(dir);
  const scenario::Testbed bed = make_testbed("VanLAN", 2);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(10.0);
  cfg.seed = 7;
  cfg.log_probes = false;
  tracegen::write_catalog(dir.string(), "unit",
                          scenario::generate_campaign(bed, cfg));

  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.fleet_sizes = {2};
  spec.grid.trace_sets = {dir.string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.coordinations = {"coord"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  const ExperimentPoint point = spec.enumerate().front();

  tracegen::drop_catalog_cache();
  const PointResult sequential = run_point(point);
  const PointResult sharded = run_point_sharded(point, Runner({.threads = 4}));
  fs::remove_all(dir);
  tracegen::drop_catalog_cache();
  ASSERT_TRUE(sequential.error.empty()) << sequential.error;
  EXPECT_EQ(sequential.coordination, "coord");

  ResultSink a, b;
  a.add(sequential);
  b.add(sharded);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.to_csv(), b.to_csv());
}

TEST(Executor, UnknownCoordinationFailsLoudly) {
  ExperimentSpec spec;
  spec.grid.testbeds = {"VanLAN"};
  spec.grid.policies = {"ViFi"};
  spec.grid.coordinations = {"teleport"};
  spec.grid.seeds = {1};
  spec.workload = "cbr";
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(5.0);
  EXPECT_THROW(run_point(spec.enumerate().front()), std::runtime_error);
}

TEST(Executor, ShardedStochasticShapesMatchSequential) {
  // Stochastic points have no catalog, yet they shard too: their trips
  // are functions of (point seed, trip index), so the sharded entry point
  // must reproduce the sequential executor's exact result.
  ExperimentSpec live;
  live.grid.testbeds = {"VanLAN"};
  live.grid.fleet_sizes = {3};
  live.grid.policies = {"ViFi"};
  live.grid.seeds = {1};
  live.days = 1;
  live.trips_per_day = 2;
  live.trip_duration = Time::seconds(10.0);
  live.workload = "cbr";
  for (const ExperimentPoint& point : {small_replay_spec().enumerate().front(),
                                       live.enumerate().front()}) {
    ResultSink a, b;
    a.add(run_point(point));
    b.add(run_point_sharded(point, Runner({.threads = 2})));
    EXPECT_TRUE(a.ordered().front().error.empty()) << point.workload;
    EXPECT_EQ(a.to_json(), b.to_json()) << point.workload;
    EXPECT_EQ(a.to_csv(), b.to_csv()) << point.workload;
  }
}

// A trip that fails mid-point fails the whole point with that trip's own
// exception — type and message — whatever the pool size, so sweep error
// rows are byte-identical with and without trip sharding. Which of several
// defects is reported depends on the point shape alone: streamed (pab)
// points meet trace-level defects in trip order, so a ragged trip 0 wins
// over a damaged trip 2; coord points load the whole catalog up front, and
// the eager loader parses every trace before it checks durations.
TEST(Executor, DamagedCatalogErrorRowIsPoolSizeInvariant) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_damaged_catalog";
  const struct {
    bool ragged;  // Also stretch trip 0's second trace by a second.
    const char* coordination;
    const char* reported;
    const char* hidden;
  } cases[] = {
      {false, "", "trace parse error", "is ragged"},
      {true, "pab", "(day 0, trip 0) is ragged", "trace parse error"},
      {true, "coord", "trace parse error", "is ragged"},
  };
  for (const auto& c : cases) {
    // DieselNet-Ch1 V=2, three 10 s trips, trip 2's second trace truncated.
    fs::remove_all(dir);
    const scenario::Testbed bed = make_testbed("DieselNet-Ch1", 2);
    scenario::CampaignConfig cfg;
    cfg.days = 1;
    cfg.trips_per_day = 3;
    cfg.trip_duration = Time::seconds(10.0);
    cfg.seed = 5;
    cfg.log_probes = false;
    trace::Campaign campaign = scenario::generate_campaign(bed, cfg);
    if (c.ragged) campaign.trips[1].duration += Time::seconds(1.0);
    tracegen::write_catalog(dir.string(), "damaged", campaign);
    const fs::path victim = dir / "day0_trip2_veh11.vifitrace";
    ASSERT_TRUE(fs::exists(victim));
    fs::resize_file(victim, 40);

    ExperimentSpec spec;
    spec.grid.testbeds = {"DieselNet-Ch1"};
    spec.grid.fleet_sizes = {2};
    spec.grid.trace_sets = {dir.string()};
    spec.grid.policies = {"ViFi"};
    if (*c.coordination != '\0') spec.grid.coordinations = {c.coordination};
    spec.grid.seeds = {1};
    spec.workload = "cbr";
    const std::vector<ExperimentPoint> points = spec.enumerate();

    // Runner at 1 and 4 threads, and run_point_sharded on pools of 1 and 4.
    std::vector<std::string> sweeps;
    for (const int threads : {1, 4}) {
      tracegen::drop_catalog_cache();
      sweeps.push_back(Runner({.threads = threads}).run(spec).to_json());
      const Runner pool({.threads = threads});
      sweeps.push_back(Runner({.threads = 1})
                           .run(points,
                                [&](const ExperimentPoint& p) {
                                  return run_point_sharded(p, pool);
                                })
                           .to_json());
    }
    tracegen::drop_catalog_cache();
    fs::remove_all(dir);
    EXPECT_NE(sweeps[0].find("\"error\": \"catalog error ("), std::string::npos)
        << sweeps[0];
    EXPECT_NE(sweeps[0].find(c.reported), std::string::npos) << sweeps[0];
    EXPECT_EQ(sweeps[0].find(c.hidden), std::string::npos) << sweeps[0];
    for (std::size_t i = 1; i < sweeps.size(); ++i)
      EXPECT_EQ(sweeps[0], sweeps[i]) << c.coordination << " run " << i;
  }
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// \p text with every number rewritten to 10 significant digits, so a
/// digest pins what the program computes rather than the last bits a
/// particular compiler, optimisation level or libm gives a double.
std::string round_numbers(const std::string& text) {
  const auto digit = [&](std::size_t i) {
    return i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])) != 0;
  };
  std::string out;
  for (std::size_t i = 0; i < text.size();) {
    const bool word = i > 0 && (std::isalnum(static_cast<unsigned char>(
                                    text[i - 1])) != 0 ||
                                text[i - 1] == '_' || text[i - 1] == '.');
    if (word || !(digit(i) || (text[i] == '-' && digit(i + 1)))) {
      out += text[i++];
      continue;
    }
    char* end = nullptr;
    const double v = std::strtod(text.c_str() + i, &end);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    out += buf;
    i = static_cast<std::size_t>(end - text.c_str());
  }
  return out;
}

/// FNV-1a over a point's result JSON and every file it exported into
/// \p trace_dir (name, then bytes, in name order), numbers rounded by
/// round_numbers. The catalog path is replaced by its directory name, so
/// the digest does not depend on where the temporary directory lives.
std::uint64_t point_digest(PointResult r, const std::filesystem::path& trace_dir) {
  namespace fs = std::filesystem;
  if (!r.trace_set.empty())
    r.trace_set = fs::path(r.trace_set).filename().string();
  ResultSink sink;
  sink.add(std::move(r));
  std::uint64_t h = fnv1a(14695981039346656037ull, round_numbers(sink.to_json()));
  std::vector<fs::path> files;
  if (fs::exists(trace_dir))
    for (const auto& entry : fs::directory_iterator(trace_dir))
      files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    h = fnv1a(h, f.filename().string());
    h = fnv1a(h, round_numbers(bytes.str()));
  }
  return h;
}

// Pins the executor's output bytes — results and trace exports — for the
// three point shapes it runs: a stochastic §3.1 replay point, a stochastic
// live fleet point with a TripScope session, and a catalog coord point.
// The constants were produced by the executor as it stood before the
// sequential and sharded paths were merged, so they carry the guarantee
// the old sequential-vs-sharded comparisons gave. Each point must match
// through run_point and through run_point_sharded on four workers.
TEST(Executor, GoldenPointDigests) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "vifi_test_golden";
  fs::remove_all(dir);

  ExperimentSpec replay = small_replay_spec();
  replay.grid.fleet_sizes = {2};
  replay.grid.policies = {"BRR"};
  replay.grid.seeds = {1};
  replay.trips_per_day = 2;
  replay.trip_duration = Time::seconds(20.0);

  ExperimentSpec live;
  live.grid.testbeds = {"VanLAN"};
  live.grid.fleet_sizes = {4};
  live.grid.policies = {"ViFi"};
  live.grid.seeds = {1};
  live.days = 1;
  live.trips_per_day = 2;
  live.trip_duration = Time::seconds(10.0);
  live.workload = "cbr";
  live.metric_columns = {"mac.transmissions", "core.salvaged"};

  const scenario::Testbed bed = make_testbed("DieselNet-Ch1", 2);
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 3;
  cfg.trip_duration = Time::seconds(10.0);
  cfg.seed = 42;
  cfg.log_probes = false;
  tracegen::write_catalog((dir / "catalog").string(), "golden",
                          scenario::generate_campaign(bed, cfg));
  ExperimentSpec coord;
  coord.grid.testbeds = {"DieselNet-Ch1"};
  coord.grid.fleet_sizes = {2};
  coord.grid.trace_sets = {(dir / "catalog").string()};
  coord.grid.policies = {"ViFi"};
  coord.grid.coordinations = {"coord"};
  coord.grid.seeds = {1};
  coord.workload = "cbr";

  const struct {
    const char* name;
    ExperimentSpec spec;
    std::uint64_t digest;
  } cases[] = {
      {"replay", replay, 0xb0ac33638de1eb32ull},
      {"live", live, 0xf2a22ad6ad972ac9ull},
      {"coord", coord, 0x032306ccfa07d71full},
  };
  for (const auto& c : cases) {
    ExperimentPoint point = c.spec.enumerate().front();
    for (const bool sharded : {false, true}) {
      point.trace_dir =
          (dir / (std::string(c.name) + (sharded ? "_sharded" : ""))).string();
      tracegen::drop_catalog_cache();
      const PointResult r = sharded
                                ? run_point_sharded(point, Runner({.threads = 4}))
                                : run_point(point);
      EXPECT_TRUE(r.error.empty()) << c.name << ": " << r.error;
      const std::uint64_t got = point_digest(r, point.trace_dir);
      EXPECT_EQ(got, c.digest) << c.name << (sharded ? " sharded" : "")
                               << ": got 0x" << std::hex << got;
    }
  }
  tracegen::drop_catalog_cache();
  fs::remove_all(dir);
}

/// The campaign config a stochastic §3.1 replay point generates from.
scenario::CampaignConfig replay_config(const ExperimentPoint& p) {
  scenario::CampaignConfig cfg;
  cfg.days = p.days;
  cfg.trips_per_day = p.trips_per_day;
  cfg.trip_duration = p.trip_duration;
  cfg.seed = p.campaign_seed;
  cfg.log_probes = true;
  return cfg;
}

/// A short one-day VanLAN campaign, distinct for every \p seed.
scenario::CampaignConfig short_config(std::uint64_t seed) {
  scenario::CampaignConfig cfg;
  cfg.days = 1;
  cfg.trips_per_day = 2;
  cfg.trip_duration = Time::seconds(10.0);
  cfg.seed = seed;
  return cfg;
}

// Each test below uses campaign seeds of its own, so its keys start cold
// whatever ran earlier in the process.
TEST(SharedCampaign, PolicyTwinsShareOneObjectAndSeedsDoNot) {
  ExperimentSpec spec = small_replay_spec();
  spec.grid.policies = {"AllBSes", "History", "Sticky"};
  spec.base_seed = 16001;
  spec.trip_duration = Time::seconds(10.0);
  const auto points = spec.enumerate();  // policy-major, seeds fastest
  ASSERT_EQ(points.size(), 6u);
  std::vector<std::shared_ptr<const trace::Campaign>> got;
  for (const ExperimentPoint& p : points)
    got.push_back(shared_campaign(p.testbed, p.fleet_size, replay_config(p)));
  for (std::size_t i = 2; i < got.size(); ++i)
    EXPECT_EQ(got[i], got[i % 2]) << "point " << i;
  EXPECT_NE(got[0], got[1]);
  EXPECT_EQ(got[0]->trips.size(), 1u);
  EXPECT_EQ(got[0]->testbed, "VanLAN");
}

TEST(SharedCampaign, ConcurrentColdRequestsGenerateOnce) {
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const trace::Campaign>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = shared_campaign("VanLAN", 1, short_config(16002));
    });
  for (std::thread& t : threads) t.join();
  ASSERT_NE(got[0], nullptr);
  for (const auto& c : got) EXPECT_EQ(c, got[0]);
}

TEST(SharedCampaign, FailedGenerationReachesEveryWaiterAndIsNotCached) {
  const auto a = shared_campaign("VanLAN", 1, short_config(16003));
  const auto b = shared_campaign("VanLAN", 1, short_config(16004));
  scenario::CampaignConfig bad = short_config(16005);
  bad.days = 0;  // generate_campaign rejects it
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      start.arrive_and_wait();
      try {
        shared_campaign("VanLAN", 1, bad);
      } catch (const ContractViolation&) {
        ++failures;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_THROW(shared_campaign("VanLAN", 1, bad), ContractViolation);
  // The failed key evicted `a` but holds no slot itself: a new key fits
  // beside `b` without evicting it. A cached failure would have been the
  // more recent entry, and `b` would go.
  shared_campaign("VanLAN", 1, short_config(16006));
  EXPECT_EQ(shared_campaign("VanLAN", 1, short_config(16004)), b);
  EXPECT_NE(shared_campaign("VanLAN", 1, short_config(16003)), a);
}

TEST(SharedCampaign, ReplayPointBytesMatchColdWarmAndAfterEviction) {
  ExperimentSpec spec = small_replay_spec();
  spec.grid.policies = {"History"};  // reads the whole campaign
  spec.grid.seeds = {1};
  spec.base_seed = 16007;
  spec.trips_per_day = 2;
  spec.trip_duration = Time::seconds(20.0);
  const ExperimentPoint point = spec.enumerate().front();
  const auto digest = [&point] { return point_digest(run_point(point), {}); };
  const std::uint64_t cold = digest();
  const auto held = shared_campaign(point.testbed, point.fleet_size,
                                    replay_config(point));
  EXPECT_EQ(digest(), cold);
  // Two new keys evict everything the two-entry memo held.
  shared_campaign("VanLAN", 1, short_config(16008));
  shared_campaign("VanLAN", 1, short_config(16009));
  EXPECT_EQ(digest(), cold);
  EXPECT_NE(shared_campaign(point.testbed, point.fleet_size,
                            replay_config(point)),
            held);
}

TEST(Executor, UnknownWorkloadOrPolicyIsAContractViolation) {
  ExperimentSpec spec = small_replay_spec();
  spec.workload = "warp-drive";
  EXPECT_THROW(run_point(spec.enumerate()[0]), ContractViolation);

  ExperimentSpec live = small_replay_spec();
  live.workload = "cbr";
  live.grid.policies = {"Sticky"};  // replay-only policy, invalid live
  EXPECT_THROW(run_point(live.enumerate()[0]), ContractViolation);
}

}  // namespace
}  // namespace vifi::runtime
