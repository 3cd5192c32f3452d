// ViFiBench measurement binary. One invocation runs one workload for one
// seed and prints one raw JSON document on stdout; run.py derives the
// benchmark's metrics and checks from it (derive.py).
//
//   vifibench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//
// --trace 0: set-up (repeated, see kSetupReps), then a closed-loop sweep
//   through runtime::run_point / run_point_sharded with tracing off,
//   repeated until --seconds have passed and at least one full sweep ran.
// --trace 1: set-up, then the pass's first Sweep::traced points once
//   untraced and once through the traced mirror (mirror.h), plus the
//   catalog workload's 1-worker vs N-worker timing.
//
// Workload inputs are generated from --seed: stochastic sweeps take it as
// ExperimentSpec::base_seed, the catalog workload records, fits and
// synthesizes its catalog from it. DIR receives the catalog and is removed
// on exit.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mirror.h"
#include "probe.h"
#include "runtime/executor.h"
#include "runtime/runner.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "tracegen/catalog.h"
#include "tracegen/fit.h"
#include "tracegen/synth.h"

#ifndef VIFIBENCH_BUILD_TYPE
#define VIFIBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vifi;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

/// Set-up runs this many times per invocation; setup_s is their median.
constexpr int kSetupReps = 5;
/// Catalog workload: worker cap for the sharded executor.
constexpr int kMaxWorkers = 4;
/// 1-worker vs N-worker timing pairs in the traced catalog run.
constexpr int kSpeedupPairs = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The fixed point list a workload sweeps, plus what timing needs to know.
struct Sweep {
  std::vector<runtime::ExperimentPoint> points;
  /// Consecutive points timed as one unit: heterogeneous sweeps (the
  /// §3.1 replay grid) time whole sweeps, uniform ones single points.
  std::size_t batch = 1;
  bool sharded = false;
  /// Points the traced run covers: the first ones of the pass.
  std::size_t traced = 0;
  /// Simulated seconds per live point (all points of a live sweep share
  /// trip shape); replay points report replayed trip-seconds instead.
  double live_sim_s = 0.0;
  std::string catalog_digest;
};

runtime::ExperimentSpec base_spec(std::uint64_t seed) {
  runtime::ExperimentSpec spec;
  spec.name = "vifibench";
  spec.base_seed = seed;
  return spec;
}

/// §3.1 replay: both testbeds, all six policies, two replicates, 2-day
/// campaigns. Warm-up: one campaign trip per testbed.
Sweep setup_policy_replay(std::uint64_t seed) {
  runtime::ExperimentSpec spec = base_spec(seed);
  spec.grid.testbeds = {"VanLAN", "DieselNet-Ch1"};
  spec.grid.policies = runtime::replay_policy_names();
  spec.grid.seeds = {1, 2};
  spec.days = 2;
  spec.trips_per_day = 2;
  spec.workload = "replay";
  Sweep s;
  s.points = spec.enumerate();
  s.batch = s.points.size();
  s.traced = s.points.size();
  for (const std::string& name : spec.grid.testbeds) {
    scenario::CampaignConfig cfg;
    cfg.days = 1;
    cfg.trips_per_day = 1;
    cfg.seed = runtime::mix_seed(seed, "warmup");
    scenario::generate_campaign(runtime::make_testbed(name), cfg);
  }
  return s;
}

/// Stochastic live CBR with ViFi, one trip per point. Warm-up: one trip's
/// stack built and run through the protocol warm-up.
Sweep setup_live(std::uint64_t seed, const std::string& testbed, int fleet,
                 bool cull, int replicates, double trip_s,
                 std::size_t traced) {
  runtime::ExperimentSpec spec = base_spec(seed);
  spec.grid.testbeds = {testbed};
  spec.grid.fleet_sizes = {fleet};
  spec.grid.policies = {"ViFi"};
  spec.grid.seeds.clear();
  for (int i = 1; i <= replicates; ++i)
    spec.grid.seeds.push_back(static_cast<std::uint64_t>(i));
  spec.days = 1;
  spec.trips_per_day = 1;
  spec.trip_duration = Time::seconds(trip_s);
  spec.workload = "cbr";
  spec.cull_medium = cull;
  Sweep s;
  s.points = spec.enumerate();
  s.traced = traced;
  s.live_sim_s =
      (scenario::LiveTrip::warmup() + spec.trip_duration + Time::seconds(1.0))
          .to_seconds();
  const scenario::Testbed bed = runtime::make_testbed(testbed, fleet);
  core::SystemConfig sys;
  sys.vifi.max_retx = 0;
  if (cull) sys.medium.culling = bed.make_culling(sys.medium.audibility_threshold);
  scenario::LiveTrip warm(bed, sys, runtime::mix_seed(seed, "warmup"));
  warm.run_until(scenario::LiveTrip::warmup());
  return s;
}

/// Incremental FNV-1a: result digests and catalog bytes compare by it.
class Fnv1a {
 public:
  void add(const std::string& bytes) {
    for (const unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of every file of \p dir: names and bytes, in name order.
std::string digest_dir(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  Fnv1a h;
  for (const fs::path& f : files) {
    h.add(f.filename().string());
    std::ifstream in(f, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    h.add(bytes.str());
  }
  return h.hex();
}

/// Catalog replay with CoordTier: record a 4-bus DieselNet-Ch1 campaign,
/// fit a model, synthesize a 16-bus catalog of 16 trip groups and write it
/// under \p dir — all from the seed. Warm-up: open the stream and load the
/// shared catalog the coord history fit reads (only this set-up's catalog
/// stays cached).
Sweep setup_catalog(std::uint64_t seed, const fs::path& dir) {
  tracegen::drop_catalog_cache();
  const std::string testbed = "DieselNet-Ch1";
  scenario::CampaignConfig rec;
  rec.days = 1;
  rec.trips_per_day = 8;
  rec.trip_duration = Time::seconds(120.0);
  rec.seed = runtime::mix_seed(seed, "record");
  rec.log_probes = false;
  const tracegen::TraceModel model = tracegen::fit_model(
      scenario::generate_campaign(runtime::make_testbed(testbed, 4), rec));
  tracegen::SynthesisSpec synth;
  synth.vehicles = 16;
  synth.days = 1;
  synth.trips_per_day = 16;
  synth.trip_duration = Time::seconds(60.0);
  synth.seed = runtime::mix_seed(seed, "synth");
  const trace::Campaign campaign = tracegen::synthesize_fleet(model, synth);
  tracegen::write_catalog(dir.string(), "vifibench", campaign);

  Sweep s;
  s.catalog_digest = digest_dir(dir);
  const tracegen::CatalogStream stream =
      tracegen::CatalogStream::open(dir.string());
  tracegen::load_catalog_shared(dir.string());
  for (std::size_t g = 0; g < stream.trip_groups(); ++g) {
    const Time horizon =
        campaign.trips[g * static_cast<std::size_t>(synth.vehicles)].duration;
    s.live_sim_s += (std::max(scenario::LiveTrip::warmup(), horizon) +
                     Time::seconds(1.0))
                        .to_seconds();
  }

  runtime::ExperimentSpec spec = base_spec(seed);
  spec.grid.testbeds = {testbed};
  spec.grid.fleet_sizes = {16};
  spec.grid.trace_sets = {dir.string()};
  spec.grid.policies = {"ViFi"};
  spec.grid.coordinations = {"coord"};
  spec.grid.seeds = {1, 2};
  spec.workload = "cbr";
  s.points = spec.enumerate();
  s.traced = s.points.size();
  s.sharded = true;
  return s;
}

Sweep setup(const std::string& workload, std::uint64_t seed,
            const fs::path& rep_dir) {
  if (workload == "policy_replay") return setup_policy_replay(seed);
  if (workload == "live_vanlan_v16")
    return setup_live(seed, "VanLAN", 16, false, 4, 60.0, 4);
  if (workload == "city_dieselnet_v256")
    return setup_live(seed, "DieselNet-Ch1", 256, true, 10, 5.0, 3);
  if (workload == "catalog_replay_coord")
    return setup_catalog(seed, rep_dir / "catalog");
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

// ---- JSON output -------------------------------------------------------

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Digest of the point's serialized result (the sweep JSON bytes).
std::string digest(const runtime::PointResult& r) {
  runtime::ResultSink sink;
  sink.add(r);
  Fnv1a h;
  h.add(sink.to_json());
  return h.hex();
}

/// One execution of a point, untraced or through the mirror.
struct Run {
  std::size_t point = 0;
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::string digest;
  double delivered = 0.0, sent = 0.0;
  std::string error;
};

Run run_untraced(const Sweep& sweep, std::size_t i,
                 const runtime::Runner& pool) {
  const runtime::ExperimentPoint& p = sweep.points[i];
  Run run;
  run.point = i;
  const auto t0 = Clock::now();
  try {
    const runtime::PointResult r = sweep.sharded
                                       ? runtime::run_point_sharded(p, pool)
                                       : runtime::run_point(p);
    run.wall_s = since(t0);
    run.digest = digest(r);
    run.delivered = r.metrics.at("packets_delivered");
    run.sent = r.metrics.at("packets_sent");
    run.sim_s = p.workload == "replay" ? r.metrics.at("slots") * 0.1
                                       : sweep.live_sim_s;
  } catch (const std::exception& e) {
    run.wall_s = since(t0);
    run.error = e.what();
  }
  return run;
}

std::string run_json(const Run& r) {
  return "{\"point\": " + std::to_string(r.point) +
         ", \"wall_s\": " + num(r.wall_s) + ", \"sim_s\": " + num(r.sim_s) +
         ", \"digest\": " + str(r.digest) +
         ", \"delivered\": " + num(r.delivered) + ", \"sent\": " +
         num(r.sent) + ", \"error\": " + str(r.error) + "}";
}

template <typename T, typename F>
std::string list(const std::vector<T>& xs, F&& f) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i)
    out += (i ? ", " : "") + f(xs[i]);
  return out + "]";
}

int usage() {
  std::cerr << "usage: vifibench --workload NAME --seed N --seconds S "
               "--trace 0|1 --scratch DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace_mode = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") trace_mode = std::stoi(value);
      else if (flag == "--scratch") scratch = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || workload.empty() || scratch.empty() || seconds < 0 ||
      (trace_mode != 0 && trace_mode != 1))
    return usage();

  const int workers = std::max(
      1, std::min<int>(kMaxWorkers,
                       static_cast<int>(std::thread::hardware_concurrency())));
  std::ostringstream out;
  int rc = 0;
  try {
    fs::remove_all(scratch);
    // ---- Set-up, repeated; the last repetition's sweep is the one run.
    Sweep sweep;
    std::vector<double> setup_s;
    std::vector<std::string> catalog_digests;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      sweep = setup(workload, seed, fs::path(scratch) / ("setup" + std::to_string(rep)));
      setup_s.push_back(since(t0));
      if (!sweep.catalog_digest.empty())
        catalog_digests.push_back(sweep.catalog_digest);
    }
    const runtime::Runner pool(runtime::RunnerOptions{workers});

    out << "{\"workload\": " << str(workload) << ", \"seed\": " << seed
        << ", \"trace\": " << trace_mode << ",\n \"host\": {\"nproc\": "
        << std::thread::hardware_concurrency()
        << ", \"compiler\": " << str(std::string("g++ ") + __VERSION__)
        << ", \"build_type\": " << str(VIFIBENCH_BUILD_TYPE)
        << "},\n \"workers\": " << (sweep.sharded ? workers : 1)
        << ", \"points\": " << sweep.points.size()
        << ", \"batch\": " << sweep.batch
        << ",\n \"setup_s\": " << list(setup_s, num)
        << ", \"catalog_digests\": " << list(catalog_digests, str);

    std::vector<Run> runs;
    if (trace_mode == 0) {
      // ---- Closed-loop timed sweep: next point starts when one ends.
      const auto t0 = Clock::now();
      for (bool done = false; !done;) {
        for (std::size_t i = 0; i < sweep.points.size() && !done; ++i) {
          runs.push_back(run_untraced(sweep, i, pool));
          done = since(t0) >= seconds && runs.size() >= sweep.points.size();
        }
      }
      out << ",\n \"runs\": " << list(runs, run_json);
      if (sweep.sharded) {
        // Thread-count invariance: point 0 again on a 1-worker pool.
        const runtime::Runner one(runtime::RunnerOptions{1});
        out << ",\n \"one_worker\": " << run_json(run_untraced(sweep, 0, one));
      }
    } else {
      // ---- Traced run: each point untraced, then through the mirror.
      vifibench::Trace trace;
      std::vector<Run> traced_runs;
      // Sharded points run untraced on one worker here, as the mirror
      // does, so trace_overhead compares like with like.
      const runtime::Runner one(runtime::RunnerOptions{1});
      for (std::size_t i = 0; i < sweep.traced; ++i) {
        runs.push_back(run_untraced(sweep, i, one));
        Run& traced = traced_runs.emplace_back();
        traced.point = i;
        const auto t0 = Clock::now();
        try {
          const vifibench::MirrorResult m =
              vifibench::mirror_point(sweep.points[i], trace);
          traced.wall_s = since(t0);
          traced.digest = digest(m.result);
          traced.sim_s = m.sim_s;
        } catch (const std::exception& e) {
          traced.error = e.what();
        }
      }
      out << ",\n \"runs\": " << list(runs, run_json)
          << ",\n \"traced\": " << list(traced_runs, run_json)
          << ",\n \"trips\": "
          << list(trace.trips, [](const vifibench::TripRecord& t) {
               std::string o = "{\"point\": " + std::to_string(t.point);
               for (const auto& [k, v] : t.counters)
                 o += ", " + str(k) + ": " + num(v);
               return o + "}";
             });
      out << ",\n \"layers\": {";
      for (std::size_t l = 0; l < static_cast<std::size_t>(vifibench::Layer::kCount); ++l) {
        const auto layer = static_cast<vifibench::Layer>(l);
        out << (l ? ", " : "") << str(vifibench::layer_name(layer))
            << ": {\"self_s\": " << num(trace.clock.self_s(layer))
            << ", \"inclusive_s\": " << num(trace.clock.inclusive_s(layer))
            << ", \"calls\": " << trace.clock.calls(layer)
            << ", \"child_calls\": " << trace.clock.child_calls(layer) << "}";
      }
      const vifibench::LayerClock::Cost cost = vifibench::LayerClock::calibrate();
      out << "},\n \"probe_cost\": {\"inner_s\": " << num(cost.inner_s)
          << ", \"outer_s\": " << num(cost.outer_s) << "}";
      if (sweep.sharded) {
        // runtime sharding: point 0 on 1 worker vs the full pool.
        std::vector<Run> ones, alls;
        for (int k = 0; k < kSpeedupPairs; ++k) {
          ones.push_back(run_untraced(sweep, 0, one));
          alls.push_back(run_untraced(sweep, 0, pool));
        }
        out << ",\n \"speedup\": {\"one\": " << list(ones, run_json)
            << ", \"all\": " << list(alls, run_json) << "}";
      }
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    out << ",\n \"peak_rss_kb\": " << usage.ru_maxrss << "}\n";
  } catch (const std::exception& e) {
    std::cerr << "vifibench: " << e.what() << "\n";
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);
  if (rc != 0) return rc;
  std::cout << out.str();
  return 0;
}
