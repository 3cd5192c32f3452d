#include "runtime/executor.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "analysis/sessions.h"
#include "apps/cbr.h"
#include "apps/mos.h"
#include "coord/predictor.h"
#include "handoff/policies.h"
#include "mac/airtime.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "runtime/runner.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "tracegen/catalog.h"
#include "util/cdf.h"
#include "util/contracts.h"

namespace vifi::runtime {

namespace {

constexpr int kProbePayloadBytes = 500;  // §3.1 / §5.2 workload packets.

/// Shape checks shared by the eager and streaming catalog paths — replay
/// points must name a catalog recorded on their exact scenario.
void validate_catalog_shape(const ExperimentPoint& point,
                            const scenario::Testbed& bed,
                            const std::string& testbed, int fleet_size,
                            const std::vector<sim::NodeId>& vehicle_ids) {
  if (testbed != point.testbed)
    throw std::runtime_error("trace set '" + point.trace_set +
                             "' was recorded on testbed '" + testbed +
                             "', not '" + point.testbed + "'");
  if (fleet_size != point.fleet_size)
    throw std::runtime_error(
        "trace set '" + point.trace_set + "' carries " +
        std::to_string(fleet_size) +
        " vehicles per trip but the point asks for fleet " +
        std::to_string(point.fleet_size));
  // Ids must match the testbed convention too, or the per-vehicle
  // accounting would key foreign ids and report silently empty fairness.
  for (const sim::NodeId v : vehicle_ids)
    if (!bed.is_vehicle(v))
      throw std::runtime_error(
          "trace set '" + point.trace_set + "' was logged by vehicle " +
          v.to_string() + ", which is not a vehicle of testbed " +
          point.testbed + " at fleet " + std::to_string(point.fleet_size));
}

/// Loads and validates the point's TraceCatalog (shared, immutable).
std::shared_ptr<const tracegen::TraceCatalog> resolve_catalog(
    const ExperimentPoint& point, const scenario::Testbed& bed) {
  auto catalog = tracegen::load_catalog_shared(point.trace_set);
  validate_catalog_shape(point, bed, catalog->testbed(),
                         catalog->fleet_size(), catalog->vehicle_ids());
  return catalog;
}

/// What a memoised campaign is a pure function of: the generator's inputs
/// for a generated campaign, or the catalog a catalog copy is made from.
/// A catalog compares by address, and the key pins it, so the address
/// cannot be recycled under a cached key even after
/// tracegen::drop_catalog_cache().
struct CampaignKey {
  std::string testbed;
  int fleet_size = 0;
  scenario::CampaignConfig config;
  std::shared_ptr<const tracegen::TraceCatalog> catalog;

  bool operator==(const CampaignKey&) const = default;
};

/// The executor's one campaign cache (see shared_campaign in the header):
/// returns the campaign under \p key, running \p make for it on a miss.
std::shared_ptr<const trace::Campaign> memo_campaign(
    CampaignKey key, const std::function<trace::Campaign()>& make) {
  using Future = std::shared_future<std::shared_ptr<const trace::Campaign>>;
  struct Entry {
    CampaignKey key;
    Future campaign;
    std::uint64_t id = 0;        // the lookup that inserted it
    std::uint64_t last_use = 0;  // the lookup that last returned it
  };
  // Two entries cover a grid's alternation between consecutive seeds of
  // one testbed (points enumerate testbed -> policy -> seed).
  constexpr std::size_t kMaxCachedCampaigns = 2;
  static std::mutex mu;
  static std::vector<Entry> memo;
  static std::uint64_t lookups = 0;

  std::promise<std::shared_ptr<const trace::Campaign>> promise;
  Future campaign;
  std::uint64_t owned = 0;  // nonzero: this call generates entry `owned`
  {
    const std::lock_guard<std::mutex> lock(mu);
    const std::uint64_t now = ++lookups;
    const auto hit = std::ranges::find(memo, key, &Entry::key);
    if (hit != memo.end()) {
      hit->last_use = now;
      campaign = hit->campaign;
    } else {
      // Evict before generating, so a miss holds at most one campaign
      // beyond the bound while it builds the new one.
      if (memo.size() >= kMaxCachedCampaigns)
        memo.erase(std::ranges::min_element(memo, {}, &Entry::last_use));
      campaign = promise.get_future().share();
      memo.push_back({std::move(key), campaign, now, now});
      owned = now;
    }
  }
  if (owned == 0) return campaign.get();  // Rethrows a failed generation.
  try {
    promise.set_value(std::make_shared<const trace::Campaign>(make()));
  } catch (...) {
    // A failure is not cached: drop the entry (unless already evicted)
    // before waking the waiters, so a retry generates afresh.
    {
      const std::lock_guard<std::mutex> lock(mu);
      std::erase_if(memo, [owned](const Entry& e) { return e.id == owned; });
    }
    promise.set_exception(std::current_exception());
  }
  return campaign.get();
}

/// One Campaign copy per catalog (not per point): the §3.1 replay path
/// needs trips by value (HistoryPolicy consumes a Campaign), and a
/// policies x seeds sweep over one catalog must not deep-copy every
/// trace per point.
std::shared_ptr<const trace::Campaign> catalog_campaign(
    const std::shared_ptr<const tracegen::TraceCatalog>& catalog) {
  CampaignKey key;
  key.catalog = catalog;
  return memo_campaign(std::move(key), [&catalog] {
    trace::Campaign campaign;
    campaign.testbed = catalog->testbed();
    campaign.trips = catalog->traces();
    return campaign;
  });
}

/// Everything one trip contributes to its point: the shared metric
/// accumulation; for fleet points the per-vehicle fairness view (live
/// trips: delivered/sent packets, airtime from the medium's ledger and
/// the infrastructure/client occupancy split; replay trips: their logging
/// vehicle's deliveries); the trip's span on the point's timeline; and,
/// when the point is instrumented, the trip's own recorder and registry.
struct TripOutcome {
  MetricAccumulator acc;
  std::vector<double> veh_delivered, veh_sent, veh_airtime_s;
  double infra_airtime_s = 0.0, vehicle_airtime_s = 0.0;
  Time span = Time::zero();
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::unique_ptr<obs::MetricsRegistry> metrics;

  /// \p fleet_rows per-vehicle rows: the fleet size on fleet points, else 0.
  explicit TripOutcome(std::size_t fleet_rows = 0)
      : veh_delivered(fleet_rows, 0.0),
        veh_sent(fleet_rows, 0.0),
        veh_airtime_s(fleet_rows, 0.0) {}

  /// Folds \p trip in after everything added so far. Adding trips in trip
  /// order reproduces a sequential accumulation, floating-point sums
  /// included, bit for bit.
  void add(const TripOutcome& trip) {
    acc.merge(trip.acc);
    for (std::size_t i = 0; i < veh_delivered.size(); ++i) {
      veh_delivered[i] += trip.veh_delivered[i];
      veh_sent[i] += trip.veh_sent[i];
      veh_airtime_s[i] += trip.veh_airtime_s[i];
    }
    infra_airtime_s += trip.infra_airtime_s;
    vehicle_airtime_s += trip.vehicle_airtime_s;
  }
};

/// A point's trips: how many, the campaign days they cover, and the body
/// that runs trip i into its outcome. The body depends only on the point
/// and i, and is called concurrently for different trips.
struct PointTrips {
  std::size_t count = 0;
  int days = 1;
  std::function<void(std::size_t, TripOutcome&)> run;
};

/// §3.1 replay: every logged trip of the point's campaign (its catalog's,
/// else one generated from the point's campaign seed) replays under the
/// policy. Fleet campaigns log one trace per vehicle per trip; each trace's
/// deliveries count toward its vehicle's fairness row.
PointTrips replay_trips(const ExperimentPoint& point,
                        const scenario::Testbed& bed) {
  std::shared_ptr<const trace::Campaign> campaign;
  int days = point.days;
  if (point.trace_set.empty()) {
    scenario::CampaignConfig cfg;
    cfg.days = point.days;
    cfg.trips_per_day = point.trips_per_day;
    cfg.trip_duration = point.trip_duration;
    cfg.seed = point.campaign_seed;
    cfg.log_probes = true;
    cfg.log_bs_beacons = false;
    // Policy twins share the campaign seed: one generation serves them all.
    campaign = shared_campaign(point.testbed, point.fleet_size, cfg);
  } else {
    const auto catalog = resolve_catalog(point, bed);
    // §3.1 policy replay consumes 100 ms probe slots; beacon-only
    // catalogs (everything traceforge record/synth produces) would
    // replay to silent all-zero metrics — fail loudly instead.
    const bool any_slots = std::any_of(
        catalog->traces().begin(), catalog->traces().end(),
        [](const trace::MeasurementTrace& t) { return !t.slots.empty(); });
    if (!any_slots)
      throw std::runtime_error(
          "trace set '" + point.trace_set +
          "' carries no probe slots (beacon-only traces); the §3.1 "
          "replay workload needs log_probes campaigns — replay this "
          "catalog with the cbr workload instead");
    // The History policy needs a whole Campaign by value, assembled
    // once per catalog and shared across every point that replays it.
    campaign = catalog_campaign(catalog);
    days = catalog->days();
  }
  const std::size_t count = campaign->trips.size();
  return {count, days,
          [&point, &bed, campaign](std::size_t i, TripOutcome& out) {
            const trace::MeasurementTrace& trip = campaign->trips[i];
            const auto stream = outcomes_to_stream(
                replay_trip(trip, point.policy, *campaign));
            out.acc.add_trip(stream, point.session);
            // Slot-relative event times: the next trip starts after this
            // trip's horizon.
            out.span = std::max(trip.duration, Time::seconds(1.0));
            if (out.veh_delivered.empty()) return;
            const auto& ids = bed.vehicle_ids();
            const auto v = std::find(ids.begin(), ids.end(), trip.vehicle);
            if (v == ids.end()) return;
            double delivered = 0.0;
            for (const int d : stream.delivered) delivered += d;
            out.veh_delivered[static_cast<std::size_t>(v - ids.begin())] =
                delivered;
          }};
}

/// The live stack configuration a point runs under (§5.2): policy switches,
/// link-layer retransmissions off, and — for city-scale points — the
/// medium's spatial culling derived from the testbed geometry.
core::SystemConfig live_system_config(const ExperimentPoint& point,
                                      const scenario::Testbed& bed) {
  core::SystemConfig sys;
  if (point.policy == "ViFi") {
    // Defaults: diversity + salvage on.
  } else if (point.policy == "BRR") {
    sys.vifi.diversity = false;
    sys.vifi.salvage = false;
  } else if (point.policy == "Diversity") {
    sys.vifi.salvage = false;
  } else {
    VIFI_EXPECTS(!"unknown live policy (expected ViFi/BRR/Diversity)");
  }
  sys.vifi.max_retx = 0;  // §5.2: link-layer retransmissions disabled.
  if (point.cull_medium)
    sys.medium.culling = bed.make_culling(sys.medium.audibility_threshold);
  return sys;
}

/// Applies the point's coordination axis to the live stack config. "" and
/// "pab" run the vehicle-driven baseline untouched; "coord" enables the
/// BS-side ConnectivityManager and seeds its next-BS predictor from
/// mobility history — the replayed catalog's own contact timelines, or
/// (for stochastic points) a small generated campaign on the same testbed.
/// The history seed deliberately derives from the campaign seed with a
/// fixed salt, never from the coordination string itself: coord and pab
/// twins of a point replay identical trips (experiment.cc keeps the axis
/// out of both campaign_seed and point_seed).
void seed_coordination(const ExperimentPoint& point,
                       const tracegen::TraceCatalog* catalog,
                       core::SystemConfig& sys) {
  if (point.coordination.empty() || point.coordination == "pab") return;
  if (point.coordination != "coord")
    throw std::runtime_error("unknown coordination '" + point.coordination +
                             "' (expected pab/coord)");
  sys.coord.enabled = true;
  std::vector<const trace::MeasurementTrace*> trips;
  std::shared_ptr<const trace::Campaign> history_campaign;
  if (catalog != nullptr) {
    trips.reserve(catalog->traces().size());
    for (const trace::MeasurementTrace& t : catalog->traces())
      trips.push_back(&t);
  } else {
    scenario::CampaignConfig cfg;
    cfg.days = 1;
    cfg.trips_per_day = 4;  // Enough laps to clear the support floor.
    cfg.trip_duration = point.trip_duration;
    cfg.seed = mix_seed(point.campaign_seed, "coord-history");
    cfg.log_probes = false;
    cfg.log_bs_beacons = false;
    history_campaign = shared_campaign(point.testbed, point.fleet_size, cfg);
    trips.reserve(history_campaign->trips.size());
    for (const trace::MeasurementTrace& t : history_campaign->trips)
      trips.push_back(&t);
  }
  sys.coord.history = coord::fit_history(trips);
}

/// Runs one already-constructed live trip to its horizon and measures it
/// into \p out. \p trace_horizon carries a replay trip's absolute schedule
/// horizon; nullopt means a stochastic trip (one route lap).
void measure_live_trip(const scenario::Testbed& bed,
                       const ExperimentPoint& point, scenario::LiveTrip& live,
                       std::optional<Time> trace_horizon, TripOutcome& out) {
  live.run_until(scenario::LiveTrip::warmup());
  // One CBR probe stream per vehicle, all sharing the trip's medium —
  // fleet points measure the stack under real multi-client contention.
  std::vector<std::unique_ptr<apps::CbrWorkload>> cbrs;
  for (const auto& transport : live.transports())
    cbrs.push_back(
        std::make_unique<apps::CbrWorkload>(live.simulator(), *transport));
  // Replay trips end at the trace's *absolute* horizon: the loss
  // schedule covers seconds [0, duration) and reads 100% lossy beyond
  // it, so measuring past the horizon would count dead air as loss.
  // An explicit trip_duration is the caller's to overrun with.
  const Time end =
      !point.trip_duration.is_zero()
          ? live.simulator().now() + point.trip_duration
      : trace_horizon.has_value()
          ? std::max(live.simulator().now(), *trace_horizon)
          : live.simulator().now() + bed.trip_duration();
  for (auto& cbr : cbrs) cbr->start(end);
  live.run_until(end + Time::seconds(1.0));
  // Each trip's simulator restarts at zero: the next trip's events land
  // after this one's final clock.
  out.span = live.simulator().now();
  if (obs::MetricsRegistry* metrics = obs::current_metrics()) {
    live.system().medium().publish(*metrics);
    live.system().stats().publish(*metrics);
    for (const auto& cbr : cbrs) cbr->publish(*metrics);
    if (live.coord() != nullptr) live.coord()->publish(*metrics);
  }
  for (auto& cbr : cbrs) out.acc.add_trip(cbr->slot_stream(), point.session);
  if (out.veh_delivered.empty()) return;
  const mac::MediumStats ms = live.medium_stats();
  for (std::size_t i = 0; i < out.veh_delivered.size(); ++i) {
    out.veh_delivered[i] = static_cast<double>(cbrs[i]->delivered());
    out.veh_sent[i] = static_cast<double>(cbrs[i]->sent());
    const mac::NodeAirtime& row = ms.node(bed.vehicle_ids()[i]);
    out.veh_airtime_s[i] = (row.tx_airtime + row.rx_airtime).to_seconds();
  }
  out.infra_airtime_s =
      ms.tx_airtime(mac::NodeRole::Infrastructure).to_seconds();
  out.vehicle_airtime_s = ms.tx_airtime(mac::NodeRole::Vehicle).to_seconds();
}

/// §5.2 live CBR: stochastic trips draw a fresh channel; catalog trips
/// drive the fleet loss schedule from their trip group's traces. Coord
/// points load the whole catalog for the history fit (through the shared
/// cache, parsed once per process) and read each group from it; other
/// catalog points stream each group from disk in the trip that replays it,
/// so memory scales with the fleet times one trip, not the whole catalog.
PointTrips live_trips(const ExperimentPoint& point,
                      const scenario::Testbed& bed) {
  std::shared_ptr<const tracegen::TraceCatalog> catalog;
  std::optional<tracegen::CatalogStream> stream;
  if (!point.trace_set.empty() && point.coordination == "coord") {
    catalog = resolve_catalog(point, bed);
  } else if (!point.trace_set.empty()) {
    stream = tracegen::CatalogStream::open(point.trace_set);
    validate_catalog_shape(point, bed, stream->testbed(),
                           stream->fleet_size(), stream->vehicle_ids());
  }
  core::SystemConfig sys = live_system_config(point, bed);
  seed_coordination(point, catalog.get(), sys);
  // Catalog points run every trip group exactly once; the point's
  // days/trips knobs describe generated campaigns only.
  const std::size_t count =
      catalog != nullptr  ? catalog->trip_groups()
      : stream.has_value() ? stream->trip_groups()
                           : static_cast<std::size_t>(
                                 std::max(0, point.days * point.trips_per_day));
  const int days = catalog != nullptr  ? catalog->days()
                   : stream.has_value() ? stream->days()
                                        : point.days;
  return {count, days,
          [&point, &bed, sys = std::move(sys), catalog,
           stream = std::move(stream)](std::size_t i, TripOutcome& out) {
            const std::uint64_t seed =
                mix_seed(point.point_seed, static_cast<std::uint64_t>(i));
            if (catalog == nullptr && !stream.has_value()) {
              scenario::LiveTrip live(bed, sys, seed);
              measure_live_trip(bed, point, live, std::nullopt, out);
              return;
            }
            std::vector<trace::MeasurementTrace> loaded;
            std::vector<const trace::MeasurementTrace*> group;
            if (catalog != nullptr) {
              group = catalog->fleet_trip(i);
            } else {
              loaded = stream->load_group(i);
              for (const trace::MeasurementTrace& t : loaded)
                group.push_back(&t);
            }
            scenario::LiveTrip live(bed, group, sys, seed);
            measure_live_trip(bed, point, live, group.front()->duration,
                              out);
          }};
}

/// The point's result columns from its folded trips: the shared metric
/// set, the fairness columns (fleet points only) and, for live points,
/// §5.3.2 call quality.
void finish_point(const TripOutcome& total, int days, bool live,
                  PointResult& r) {
  total.acc.finish(days, r);
  if (!total.veh_delivered.empty()) {
    r.metrics["fairness_jain_delivery"] =
        mac::jain_index(total.veh_delivered);
    r.series["veh_delivered"] = total.veh_delivered;
  }
  if (!live) return;
  if (!total.veh_delivered.empty()) {
    double min_rate = 1.0;
    for (std::size_t i = 0; i < total.veh_delivered.size(); ++i)
      min_rate = std::min(min_rate, total.veh_sent[i] > 0.0
                                        ? total.veh_delivered[i] /
                                              total.veh_sent[i]
                                        : 0.0);
    r.metrics["airtime_infra_s"] = total.infra_airtime_s;
    r.metrics["airtime_vehicle_s"] = total.vehicle_airtime_s;
    r.metrics["fairness_jain_airtime"] = mac::jain_index(total.veh_airtime_s);
    r.metrics["per_vehicle_delivery_min"] = min_rate;
    r.series["veh_airtime_s"] = total.veh_airtime_s;
  }

  // §5.3.2 call quality under the fixed delay budget, charging half the
  // wireless deadline to the wireless segment.
  const apps::VoipDelayBudget budget;
  const double delay_ms = budget.coding_ms + budget.jitter_buffer_ms +
                          budget.wired_ms + budget.wireless_deadline_ms() / 2;
  r.metrics["mos"] =
      apps::mos_g729(delay_ms, 1.0 - r.metrics["delivery_rate"]);
}

/// The recorder a point that owns its session records into: ring-backed
/// by default, stream-backed (full-fidelity disk spool next to the other
/// trace artifacts) when the point asks for --trace-stream.
std::unique_ptr<obs::TraceRecorder> make_point_recorder(
    const ExperimentPoint& point) {
  if (!point.trace_stream || point.trace_dir.empty())
    return std::make_unique<obs::TraceRecorder>();
  namespace fs = std::filesystem;
  fs::create_directories(point.trace_dir);
  char tag[40];
  std::snprintf(tag, sizeof(tag), "point_%04zu.spool",
                static_cast<std::size_t>(point.index));
  return std::make_unique<obs::TraceRecorder>(
      std::make_unique<obs::StreamSink>(
          (fs::path(point.trace_dir) / tag).string()));
}

/// Shared TripScope tail of both point executors: metric result columns
/// drawn from the session registry, and per-point trace files when the
/// point owns its recorder (an ambient caller owns its own export).
void export_tripscope(const ExperimentPoint& point, PointResult& r,
                      const obs::TraceRecorder* own_recorder,
                      obs::MetricsRegistry* metrics,
                      const obs::MetricsRegistry* own_metrics) {
  // Ring truncation is loud, not silent: a dropped-events counter beside
  // the export warnings, so reconciliation failures name their cause.
  const obs::TraceRecorder* rec =
      own_recorder != nullptr ? own_recorder : obs::current_recorder();
  if (rec != nullptr && metrics != nullptr && rec->dropped() > 0)
    metrics->counter("obs.trace.dropped_events")
        .add(static_cast<double>(rec->dropped()));
  if (metrics != nullptr && !point.metric_columns.empty()) {
    // Exact flattened key first (`mac.frames_tx{node=n3,role=vehicle}`),
    // else the bare name summed across its label variants.
    const auto flat = metrics->flatten();
    for (const std::string& name : point.metric_columns) {
      const auto it = flat.find(name);
      r.metrics["obs." + name] =
          it != flat.end() ? it->second : metrics->total(name);
    }
  }
  if (own_recorder != nullptr && !point.trace_dir.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(point.trace_dir);
    char tag[32];
    std::snprintf(tag, sizeof(tag), "point_%04zu",
                  static_cast<std::size_t>(point.index));
    const std::string base = (fs::path(point.trace_dir) / tag).string();
    std::ofstream chrome(base + ".trace.json");
    obs::write_chrome_trace(*own_recorder, chrome);
    std::ofstream jsonl(base + ".jsonl");
    obs::write_jsonl(*own_recorder, jsonl);
    if (own_metrics != nullptr) {
      std::ofstream mjson(base + ".metrics.json");
      mjson << own_metrics->to_json();
    }
  }
}

/// A trip's own recorder, of its session's kind: a part spool beside a
/// streaming session's spool, else a ring of the session's capacity.
/// Absorbed in trip order, either reproduces exactly what recording the
/// trips directly into the session would have (spool bytes included).
std::unique_ptr<obs::TraceRecorder> trip_recorder(
    const obs::TraceRecorder& session, std::size_t trip) {
  if (!session.streaming())
    return std::make_unique<obs::TraceRecorder>(session.per_node_capacity());
  char part[24];
  std::snprintf(part, sizeof(part), ".trip%05zu.part", trip);
  return std::make_unique<obs::TraceRecorder>(
      std::make_unique<obs::StreamSink>(session.spool_path() + part));
}

/// Drops a trip recorder, deleting a streaming one's part spool with it.
void release(std::unique_ptr<obs::TraceRecorder>& recorder) {
  if (recorder == nullptr || !recorder->streaming()) {
    recorder.reset();
    return;
  }
  const std::string part = recorder->spool_path();
  recorder.reset();
  std::error_code ignored;  // A leftover part file changes no result.
  std::filesystem::remove(part, ignored);
}

}  // namespace

const std::vector<std::string>& replay_policy_names() {
  static const std::vector<std::string> names{
      "AllBSes", "BestBS", "History", "RSSI", "BRR", "Sticky"};
  return names;
}

std::shared_ptr<const trace::Campaign> shared_campaign(
    const std::string& testbed, int fleet_size,
    const scenario::CampaignConfig& config) {
  return memo_campaign({testbed, fleet_size, config, nullptr}, [&] {
    return scenario::generate_campaign(make_testbed(testbed, fleet_size),
                                       config);
  });
}

const std::vector<double>& cdf_quantiles() {
  static const std::vector<double> qs{0.10, 0.25, 0.50, 0.75, 0.90};
  return qs;
}

void MetricAccumulator::add_trip(const analysis::SlotStream& stream,
                                 const analysis::SessionDef& def) {
  slots += static_cast<std::int64_t>(stream.delivered.size());
  for (const int d : stream.delivered) delivered += d;
  const auto lengths = analysis::session_lengths_s(stream, def);
  session_lengths.insert(session_lengths.end(), lengths.begin(),
                         lengths.end());
  // Per-second goodput of the mirrored workload: reception ratio times
  // the slot capacity (2 x 500 bytes per 100 ms slot).
  const Time interval = Time::seconds(1.0);
  const double slots_per_interval = interval / stream.slot;
  const double interval_capacity_kbits =
      slots_per_interval * stream.per_slot_max * kProbePayloadBytes * 8.0 /
      1000.0;
  for (const double ratio : analysis::interval_ratios(stream, interval))
    throughput_kbps.push_back(ratio * interval_capacity_kbits);
}

void MetricAccumulator::merge(const MetricAccumulator& other) {
  slots += other.slots;
  delivered += other.delivered;
  session_lengths.insert(session_lengths.end(),
                         other.session_lengths.begin(),
                         other.session_lengths.end());
  throughput_kbps.insert(throughput_kbps.end(),
                         other.throughput_kbps.begin(),
                         other.throughput_kbps.end());
}

void MetricAccumulator::finish(int days, PointResult& r) const {
  r.metrics["slots"] = static_cast<double>(slots);
  r.metrics["packets_sent"] = static_cast<double>(2 * slots);
  r.metrics["packets_delivered"] = static_cast<double>(delivered);
  r.metrics["delivery_rate"] =
      slots > 0 ? static_cast<double>(delivered) /
                      static_cast<double>(2 * slots)
                : 0.0;
  r.metrics["packets_per_day"] =
      static_cast<double>(delivered) / static_cast<double>(days);
  r.metrics["session_count"] = static_cast<double>(session_lengths.size());
  r.metrics["median_session_s"] =
      analysis::median_session_length(session_lengths);

  const Cdf sessions = analysis::session_time_cdf(session_lengths);
  Cdf throughput;
  for (const double kbps : throughput_kbps) throughput.add(kbps);
  std::vector<double> session_q, throughput_q;
  for (const double q : cdf_quantiles()) {
    session_q.push_back(sessions.empty() ? 0.0 : sessions.quantile(q));
    throughput_q.push_back(throughput.empty() ? 0.0
                                              : throughput.quantile(q));
  }
  r.series["session_len_s_q"] = std::move(session_q);
  r.series["throughput_kbps_q"] = std::move(throughput_q);
}

analysis::SlotStream outcomes_to_stream(
    const std::vector<handoff::SlotOutcome>& outcomes) {
  analysis::SlotStream s;
  s.slot = Time::millis(100);
  s.per_slot_max = 2;
  s.delivered.reserve(outcomes.size());
  for (const auto& o : outcomes) s.delivered.push_back(o.delivered());
  return s;
}

std::vector<handoff::SlotOutcome> replay_trip(
    const trace::MeasurementTrace& trip, const std::string& policy,
    const trace::Campaign& campaign) {
  using namespace handoff;
  if (policy == "AllBSes") return replay_allbses(trip);
  std::unique_ptr<HandoffPolicy> p;
  if (policy == "BestBS") p = std::make_unique<BestBsPolicy>();
  if (policy == "History") p = std::make_unique<HistoryPolicy>(campaign);
  if (policy == "RSSI") p = std::make_unique<RssiPolicy>();
  if (policy == "BRR") p = std::make_unique<BrrPolicy>();
  if (policy == "Sticky") p = std::make_unique<StickyPolicy>();
  VIFI_EXPECTS(p != nullptr);
  return replay_hard_handoff(trip, *p);
}

PointResult run_point(const ExperimentPoint& point) {
  return run_point_sharded(point, Runner(RunnerOptions{1}));
}

PointResult run_point_sharded(const ExperimentPoint& point,
                              const Runner& pool) {
  PointResult r = result_header(point);

  // TripScope session. A caller (e.g. examples/tripscope) may have
  // installed a recorder/registry on this thread already — the point then
  // records into those and the caller owns the export. Otherwise, when the
  // point asks for a trace dump or metric columns, the point runs inside
  // its own session; content is a pure function of the point, so sweep
  // trace files are byte-identical for any worker count.
  std::unique_ptr<obs::TraceRecorder> own_recorder;
  std::unique_ptr<obs::MetricsRegistry> own_metrics;
  std::optional<obs::TraceScope> trace_scope;
  std::optional<obs::MetricsScope> metrics_scope;
  if (!point.trace_dir.empty() || !point.metric_columns.empty()) {
    if (obs::current_recorder() == nullptr) {
      own_recorder = make_point_recorder(point);
      trace_scope.emplace(*own_recorder);
    }
    if (obs::current_metrics() == nullptr) {
      own_metrics = std::make_unique<obs::MetricsRegistry>();
      metrics_scope.emplace(*own_metrics);
    }
  }
  obs::TraceRecorder* const session_rec = obs::current_recorder();
  obs::MetricsRegistry* const session_metrics = obs::current_metrics();

  const scenario::Testbed bed = make_testbed(point.testbed, point.fleet_size);
  PointTrips trips;
  if (point.workload == "replay") {
    trips = replay_trips(point, bed);
  } else if (point.workload == "cbr") {
    trips = live_trips(point, bed);
  } else {
    VIFI_EXPECTS(!"unknown workload (expected replay/cbr)");
  }
  // Fleet points (V > 1) carry the per-vehicle fairness view on top of the
  // shared metric set; fleet-1 points skip all of it so their output bytes
  // stay identical to the single-vehicle sweeps.
  const std::size_t rows =
      bed.fleet_size() > 1 ? static_cast<std::size_t>(bed.fleet_size()) : 0;

  // Map each trip to its outcome on whichever worker claims it, then fold
  // the outcomes in trip order: metric and fairness sums, the timeline
  // (each trip's events land after the previous trips' spans) and the
  // registries all replay a sequential accumulation exactly, so the bytes
  // do not depend on the pool size. The fold drains as soon as the next
  // trip is ready. A trip that starts once every earlier trip is folded
  // records straight into the session at the running base; any other trip
  // records into its own recorder, absorbed when its turn comes — the
  // same bytes either way. So a pool of one records as a plain sequential
  // loop would, with no per-trip ring or part spool.
  std::vector<TripOutcome> outcomes(trips.count);
  std::mutex fold_mu;  // Guards ready, next, total, base and the session.
  std::vector<bool> ready(trips.count, false);
  std::size_t next = 0;
  TripOutcome total(rows);
  Time base = session_rec != nullptr ? session_rec->time_base() : Time::zero();
  try {
    pool.for_each_index(trips.count, [&](std::size_t i) {
      TripOutcome& out = outcomes[i] = TripOutcome(rows);
      {
        // Instrumented trips install their recorder/registry before the
        // trip is built (VifiSystem labels its nodes through
        // current_recorder()).
        std::optional<obs::TraceScope> trip_trace;
        std::optional<obs::MetricsScope> trip_metrics;
        if (session_rec != nullptr) {
          const std::lock_guard<std::mutex> lock(fold_mu);
          // While next == i nothing else touches the session: earlier
          // trips are folded and later ones wait for this one.
          if (next == i) {
            session_rec->set_time_base(base);
            trip_trace.emplace(*session_rec);
          } else {
            out.recorder = trip_recorder(*session_rec, i);
            trip_trace.emplace(*out.recorder);
          }
        }
        if (session_metrics != nullptr) {
          out.metrics = std::make_unique<obs::MetricsRegistry>();
          trip_metrics.emplace(*out.metrics);
        }
        trips.run(i, out);
      }
      const std::lock_guard<std::mutex> lock(fold_mu);
      ready[i] = true;
      for (; next < trips.count && ready[next]; ++next) {
        TripOutcome& trip = outcomes[next];
        total.add(trip);
        if (trip.recorder != nullptr) {
          session_rec->absorb(*trip.recorder, base);
          release(trip.recorder);
        }
        if (session_rec != nullptr) base = base + trip.span;
        if (trip.metrics != nullptr) session_metrics->merge(*trip.metrics);
        trip = TripOutcome();
      }
    });
  } catch (...) {
    for (TripOutcome& trip : outcomes) release(trip.recorder);
    throw;
  }
  if (session_rec != nullptr) session_rec->set_time_base(base);
  finish_point(total, trips.days, point.workload == "cbr", r);
  export_tripscope(point, r, own_recorder.get(), session_metrics,
                   own_metrics.get());
  return r;
}

}  // namespace vifi::runtime
