#include "mirror.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "analysis/sessions.h"
#include "apps/cbr.h"
#include "apps/mos.h"
#include "apps/transport.h"
#include "coord/manager.h"
#include "coord/predictor.h"
#include "core/system.h"
#include "mac/airtime.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "scenario/campaign.h"
#include "scenario/live.h"
#include "trace/loss_schedule.h"
#include "tracegen/catalog.h"

namespace vifibench {

namespace {

using namespace vifi;
using runtime::ExperimentPoint;
using runtime::MetricAccumulator;
using runtime::PointResult;

constexpr int kProbePayloadBytes = 500;  // executor.cc's workload packets.
/// Longer than any frame's airtime on the 1 Mbps medium (a 2346-byte
/// 802.11 MPDU takes under 19 ms): a decode sampled earlier than this
/// before a trip's horizon has had its outcome counted.
constexpr Time kMaxAirtime = Time::millis(50);

/// MetricAccumulator::add_trip with its two analysis calls timed.
void add_trip(MetricAccumulator& acc, const analysis::SlotStream& stream,
              const analysis::SessionDef& def, LayerClock& clock) {
  acc.slots += static_cast<std::int64_t>(stream.delivered.size());
  for (const int d : stream.delivered) acc.delivered += d;
  const auto lengths = clock.time(
      Layer::Analysis, [&] { return analysis::session_lengths_s(stream, def); });
  acc.session_lengths.insert(acc.session_lengths.end(), lengths.begin(),
                             lengths.end());
  const Time interval = Time::seconds(1.0);
  const double slots_per_interval = interval / stream.slot;
  const double interval_capacity_kbits =
      slots_per_interval * stream.per_slot_max * kProbePayloadBytes * 8.0 /
      1000.0;
  const auto ratios = clock.time(Layer::Analysis, [&] {
    return analysis::interval_ratios(stream, interval);
  });
  for (const double ratio : ratios)
    acc.throughput_kbps.push_back(ratio * interval_capacity_kbits);
}

PointResult header(const ExperimentPoint& point) {
  PointResult r;
  r.index = point.index;
  r.testbed = point.testbed;
  r.fleet = point.fleet_size;
  r.trace_set = point.trace_set;
  r.policy = point.policy;
  r.coordination = point.coordination;
  r.seed = point.seed;
  return r;
}

double mirror_replay(const ExperimentPoint& point, PointResult& r,
                     LayerClock& clock) {
  if (!point.trace_set.empty())
    throw std::runtime_error("mirror: catalog §3.1 replay is not covered");
  const scenario::Testbed bed =
      runtime::make_testbed(point.testbed, point.fleet_size);
  scenario::CampaignConfig cfg;
  cfg.days = point.days;
  cfg.trips_per_day = point.trips_per_day;
  cfg.trip_duration = point.trip_duration;
  cfg.seed = point.campaign_seed;
  cfg.log_probes = true;
  cfg.log_bs_beacons = false;
  const trace::Campaign campaign = clock.time(
      Layer::Scenario, [&] { return scenario::generate_campaign(bed, cfg); });

  MetricAccumulator acc;
  const bool fairness = bed.fleet_size() > 1;
  std::map<sim::NodeId, double> per_vehicle;
  double replayed_s = 0.0;
  for (const auto& trip : campaign.trips) {
    const auto outcomes = clock.time(Layer::Handoff, [&] {
      return runtime::replay_trip(trip, point.policy, campaign);
    });
    const analysis::SlotStream stream = runtime::outcomes_to_stream(outcomes);
    replayed_s += static_cast<double>(stream.delivered.size()) *
                  stream.slot.to_seconds();
    if (fairness) {
      double delivered = 0.0;
      for (const int d : stream.delivered) delivered += d;
      per_vehicle[trip.vehicle] += delivered;
    }
    add_trip(acc, stream, point.session, clock);
  }
  acc.finish(point.days, r);
  if (fairness) {
    std::vector<double> veh_delivered;
    for (const sim::NodeId v : bed.vehicle_ids())
      veh_delivered.push_back(per_vehicle[v]);
    r.metrics["fairness_jain_delivery"] = mac::jain_index(veh_delivered);
    r.series["veh_delivered"] = std::move(veh_delivered);
  }
  return replayed_s;
}

/// executor.cc's live_system_config.
core::SystemConfig live_config(const ExperimentPoint& point,
                               const scenario::Testbed& bed) {
  core::SystemConfig sys;
  if (point.policy == "BRR") {
    sys.vifi.diversity = false;
    sys.vifi.salvage = false;
  } else if (point.policy == "Diversity") {
    sys.vifi.salvage = false;
  } else if (point.policy != "ViFi") {
    throw std::runtime_error("mirror: unknown live policy " + point.policy);
  }
  sys.vifi.max_retx = 0;
  if (point.cull_medium)
    sys.medium.culling = bed.make_culling(sys.medium.audibility_threshold);
  return sys;
}

/// LiveTrip's stack, assembled with a timed channel and timed positions.
/// Member order mirrors LiveTrip so construction and teardown match.
class TracedTrip {
 public:
  /// Stochastic channel: positions reach the channel (and the culling
  /// index, when on) through the mobility timer.
  TracedTrip(const scenario::Testbed& bed, core::SystemConfig config,
             std::uint64_t trip_seed, LayerClock& clock)
      : clock_(clock) {
    Rng root(trip_seed);
    const auto positions = timed_positions(bed.position_fn(), clock);
    if (config.medium.culling) config.medium.culling->position = positions;
    auto ch = std::make_unique<channel::VehicularChannel>(
        bed.channel_params(), positions, root.fork("channel"));
    for (const sim::NodeId v : bed.vehicle_ids()) ch->mark_mobile(v);
    inner_ = std::move(ch);
    build(bed, std::move(config), root.fork("system").next_u64());
  }

  /// Catalog trip: the fleet loss schedule of one trip group.
  TracedTrip(const scenario::Testbed& bed,
             const std::vector<const trace::MeasurementTrace*>& trips,
             core::SystemConfig config, std::uint64_t trip_seed,
             LayerClock& clock)
      : clock_(clock) {
    Rng root(trip_seed);
    inner_ = clock.time(Layer::ScheduleBuild, [&] {
      return trace::build_fleet_loss_schedule(trips, false,
                                              root.fork("schedule"));
    });
    build(bed, std::move(config), root.fork("system").next_u64());
  }

  sim::Simulator& simulator() { return sim_; }
  core::VifiSystem& system() { return *system_; }
  coord::ConnectivityManager* coord() { return coord_.get(); }
  const std::vector<std::unique_ptr<apps::VifiTransport>>& transports() const {
    return transports_;
  }
  const TimedLossModel& loss() const { return *loss_; }

  /// LiveTrip::run_until, with the simulator run timed as the stack layer.
  void run_until(Time until) {
    if (!started_) {
      started_ = true;
      system_->start();
      if (coord_ != nullptr) coord_->start();
    }
    clock_.time(Layer::Stack, [&] { sim_.run_until(until); });
  }

 private:
  void build(const scenario::Testbed& bed, core::SystemConfig config,
             std::uint64_t system_seed) {
    loss_ = std::make_unique<TimedLossModel>(*inner_, clock_, kMaxAirtime);
    config.seed = system_seed;
    system_ = std::make_unique<core::VifiSystem>(
        sim_, *loss_, bed.bs_ids(), bed.vehicle_ids(), bed.wired_host(),
        config);
    if (config.coord.enabled) {
      coord_ = std::make_unique<coord::ConnectivityManager>(sim_, config.coord);
      coord::attach(*system_, *coord_);
    }
    if (bed.fleet_size() == 1) {
      transports_.push_back(std::make_unique<apps::VifiTransport>(*system_));
    } else {
      for (const sim::NodeId v : bed.vehicle_ids())
        transports_.push_back(
            std::make_unique<apps::VifiTransport>(*system_, v));
    }
  }

  LayerClock& clock_;
  sim::Simulator sim_;
  std::unique_ptr<channel::LossModel> inner_;
  std::unique_ptr<TimedLossModel> loss_;
  std::unique_ptr<core::VifiSystem> system_;
  std::unique_ptr<coord::ConnectivityManager> coord_;
  std::vector<std::unique_ptr<apps::VifiTransport>> transports_;
  bool started_ = false;
};

/// executor.cc's LiveFold: the point-level sums, in trip order.
struct LiveFold {
  MetricAccumulator acc;
  std::vector<double> veh_delivered, veh_sent, veh_airtime_s;
  double infra_airtime_s = 0.0, vehicle_airtime_s = 0.0;
};

/// The counters the per-layer metrics draw on, read from a trip registry.
const char* const kTripCounters[] = {
    "mac.transmissions",   "mac.deliveries",        "mac.collisions",
    "mac.channel_losses",  "mac.decode_attempts",   "mac.deferral_wait_s",
    "core.wireless_data_tx", "core.app_delivered",  "core.salvaged",
    "coord.transitions",   "coord.predictions",     "coord.prediction_hits",
    "coord.suppressed_relays", "app.cbr_sent",      "app.cbr_delivered",
};

/// executor.cc's measure_live_trip + LiveFold::add, plus the trip record.
/// Returns the trip's final simulator clock.
Time measure_trip(const scenario::Testbed& bed, const ExperimentPoint& point,
                  TracedTrip& live, std::optional<Time> trace_horizon,
                  bool fairness, LiveFold& fold, obs::MetricsRegistry& metrics,
                  Trace& trace) {
  live.run_until(scenario::LiveTrip::warmup());
  std::vector<std::unique_ptr<apps::CbrWorkload>> cbrs;
  for (const auto& transport : live.transports())
    cbrs.push_back(
        std::make_unique<apps::CbrWorkload>(live.simulator(), *transport));
  const Time end =
      !point.trip_duration.is_zero()
          ? live.simulator().now() + point.trip_duration
      : trace_horizon.has_value()
          ? std::max(live.simulator().now(), *trace_horizon)
          : live.simulator().now() + bed.trip_duration();
  for (auto& cbr : cbrs) cbr->start(end);
  live.run_until(end + Time::seconds(1.0));
  const Time sim_end = live.simulator().now();

  live.system().medium().publish(metrics);
  live.system().stats().publish(metrics);
  for (const auto& cbr : cbrs) cbr->publish(metrics);
  if (live.coord() != nullptr) live.coord()->publish(metrics);

  TripRecord rec;
  rec.point = point.index;
  for (const char* name : kTripCounters) rec.counters[name] = metrics.total(name);
  const auto flat = metrics.flatten();
  double fp = 0.0;
  for (const char* key : {"core.false_positive_rate{dir=up}",
                          "core.false_positive_rate{dir=down}"})
    if (const auto it = flat.find(key); it != flat.end()) fp += it->second / 2;
  rec.counters["core.false_positive_rate"] = fp;
  rec.counters["channel.samples"] = static_cast<double>(live.loss().samples());
  rec.counters["channel.failed_samples"] =
      static_cast<double>(live.loss().failed_samples());
  rec.counters["channel.tail_decodes"] =
      static_cast<double>(live.loss().decodes_since(sim_end));
  rec.counters["channel.prob_queries"] =
      static_cast<double>(live.loss().prob_queries());
  rec.counters["sim.events"] =
      static_cast<double>(live.simulator().events_executed());
  rec.counters["net.packets_created"] =
      static_cast<double>(live.system().packets().packets_created());
  trace.trips.push_back(std::move(rec));

  for (auto& cbr : cbrs)
    add_trip(fold.acc, cbr->slot_stream(), point.session, trace.clock);
  if (fairness) {
    const std::size_t fleet = static_cast<std::size_t>(bed.fleet_size());
    const mac::MediumStats ms = live.system().medium().snapshot();
    for (std::size_t i = 0; i < fleet; ++i) {
      fold.veh_delivered[i] += static_cast<double>(cbrs[i]->delivered());
      fold.veh_sent[i] += static_cast<double>(cbrs[i]->sent());
      const mac::NodeAirtime& row = ms.node(bed.vehicle_ids()[i]);
      fold.veh_airtime_s[i] += (row.tx_airtime + row.rx_airtime).to_seconds();
    }
    fold.infra_airtime_s +=
        ms.tx_airtime(mac::NodeRole::Infrastructure).to_seconds();
    fold.vehicle_airtime_s +=
        ms.tx_airtime(mac::NodeRole::Vehicle).to_seconds();
  }
  return sim_end;
}

/// executor.cc's finish_live_point.
void finish_live(const LiveFold& fold, int days, bool fairness,
                 PointResult& r) {
  fold.acc.finish(days, r);
  if (fairness) {
    double min_rate = 1.0;
    for (std::size_t i = 0; i < fold.veh_delivered.size(); ++i)
      min_rate = std::min(min_rate, fold.veh_sent[i] > 0.0
                                        ? fold.veh_delivered[i] /
                                              fold.veh_sent[i]
                                        : 0.0);
    r.metrics["airtime_infra_s"] = fold.infra_airtime_s;
    r.metrics["airtime_vehicle_s"] = fold.vehicle_airtime_s;
    r.metrics["fairness_jain_airtime"] = mac::jain_index(fold.veh_airtime_s);
    r.metrics["fairness_jain_delivery"] = mac::jain_index(fold.veh_delivered);
    r.metrics["per_vehicle_delivery_min"] = min_rate;
    r.series["veh_airtime_s"] = fold.veh_airtime_s;
    r.series["veh_delivered"] = fold.veh_delivered;
  }
  const apps::VoipDelayBudget budget;
  const double delay_ms = budget.coding_ms + budget.jitter_buffer_ms +
                          budget.wired_ms + budget.wireless_deadline_ms() / 2;
  r.metrics["mos"] =
      apps::mos_g729(delay_ms, 1.0 - r.metrics["delivery_rate"]);
}

double mirror_cbr(const ExperimentPoint& point, PointResult& r,
                  Trace& trace) {
  LayerClock& clock = trace.clock;
  const scenario::Testbed bed =
      runtime::make_testbed(point.testbed, point.fleet_size);
  core::SystemConfig sys = live_config(point, bed);
  const std::size_t fleet = static_cast<std::size_t>(bed.fleet_size());
  const bool fairness = fleet > 1;
  LiveFold fold;
  fold.veh_delivered.assign(fleet, 0.0);
  fold.veh_sent.assign(fleet, 0.0);
  fold.veh_airtime_s.assign(fleet, 0.0);
  double sim_s = 0.0;

  // Each trip publishes into its own registry, as run_cbr does whenever a
  // metrics session is installed; the registry is live while the stack is
  // built, since instrumented constructors look it up.
  const auto run_trip = [&](std::size_t trip, auto&& make_trip,
                            std::optional<Time> horizon) {
    obs::MetricsRegistry metrics;
    const obs::MetricsScope scope(metrics);
    const std::uint64_t seed = runtime::mix_seed(point.point_seed, trip);
    std::unique_ptr<TracedTrip> live = make_trip(seed);
    sim_s += measure_trip(bed, point, *live, horizon, fairness, fold,
                          metrics, trace)
                 .to_seconds();
  };

  if (point.trace_set.empty()) {
    if (!point.coordination.empty() && point.coordination != "pab")
      throw std::runtime_error("mirror: stochastic coord points not covered");
    const int trips = point.days * point.trips_per_day;
    for (int trip = 0; trip < trips; ++trip)
      run_trip(
          static_cast<std::size_t>(trip),
          [&](std::uint64_t seed) {
            return std::make_unique<TracedTrip>(bed, sys, seed, clock);
          },
          std::nullopt);
    finish_live(fold, point.days, fairness, r);
    return sim_s;
  }

  // Catalog point: the streaming path run_point_sharded takes, one trip
  // group at a time on this thread.
  const tracegen::CatalogStream stream = clock.time(Layer::CatalogOpen, [&] {
    return tracegen::CatalogStream::open(point.trace_set);
  });
  if (point.coordination == "coord") {
    const auto catalog = tracegen::load_catalog_shared(point.trace_set);
    std::vector<const trace::MeasurementTrace*> history;
    for (const trace::MeasurementTrace& t : catalog->traces())
      history.push_back(&t);
    sys.coord.enabled = true;
    sys.coord.history = coord::fit_history(history);
  } else if (!point.coordination.empty() && point.coordination != "pab") {
    throw std::runtime_error("mirror: unknown coordination " +
                             point.coordination);
  }
  for (std::size_t trip = 0; trip < stream.trip_groups(); ++trip) {
    const std::vector<trace::MeasurementTrace> traces = clock.time(
        Layer::TripLoad, [&] { return stream.load_group(trip); });
    std::vector<const trace::MeasurementTrace*> ptrs;
    for (const trace::MeasurementTrace& t : traces) ptrs.push_back(&t);
    run_trip(
        trip,
        [&](std::uint64_t seed) {
          return std::make_unique<TracedTrip>(bed, ptrs, sys, seed, clock);
        },
        traces.front().duration);
  }
  finish_live(fold, stream.days(), fairness, r);
  return sim_s;
}

}  // namespace

MirrorResult mirror_point(const ExperimentPoint& point, Trace& trace) {
  MirrorResult out;
  out.result = header(point);
  if (point.workload == "replay")
    out.sim_s = mirror_replay(point, out.result, trace.clock);
  else if (point.workload == "cbr")
    out.sim_s = mirror_cbr(point, out.result, trace);
  else
    throw std::runtime_error("mirror: unknown workload " + point.workload);
  return out;
}

}  // namespace vifibench
