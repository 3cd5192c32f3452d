#pragma once

/// \file executor.h
/// Built-in interpretation of an `ExperimentPoint`: construct the testbed,
/// realise the measurement campaign from the point's derived seed, run the
/// policy — trace replay for the §3.1 policies, the live ViFi/BRR stack for
/// the "cbr" workload — and distil the standard metric set (delivery rate,
/// packets/day, session lengths, throughput CDF quantiles, MOS).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sessions.h"
#include "handoff/replay.h"
#include "runtime/experiment.h"
#include "runtime/result.h"
#include "scenario/campaign.h"
#include "trace/observations.h"

namespace vifi::runtime {

class Runner;

/// Replay policy names understood by the executor, in the paper's ordering.
const std::vector<std::string>& replay_policy_names();

/// Converts replay outcomes into the analysis slot stream (100 ms slots,
/// one packet each way).
analysis::SlotStream outcomes_to_stream(
    const std::vector<handoff::SlotOutcome>& outcomes);

/// Quantile grid used for every CDF series the executor emits.
const std::vector<double>& cdf_quantiles();

/// Replays one trip under a named §3.1 policy (AllBSes handled specially;
/// History needs the whole campaign). Shared with bench ports.
std::vector<handoff::SlotOutcome> replay_trip(
    const trace::MeasurementTrace& trip, const std::string& policy,
    const trace::Campaign& campaign);

/// The campaign generate_campaign(make_testbed(testbed, fleet_size), config)
/// returns, from the executor's process-wide campaign memo. Equal arguments
/// share one immutable Campaign: policy twins of a point (same campaign
/// seed) replay the very same object. Concurrent requests for one cold key
/// are single-flight — one caller generates, the others wait for it — and a
/// generation that throws is not cached: its exception reaches every
/// waiter. The memo holds at most two campaigns (catalog copies included)
/// and evicts the least recently used one before a new generation starts.
/// Points enumerate testbed -> policy -> seed, so a grid with at most two
/// seeds per testbed generates each campaign once; with more seeds, only
/// points that run at the same time share one.
std::shared_ptr<const trace::Campaign> shared_campaign(
    const std::string& testbed, int fleet_size,
    const scenario::CampaignConfig& config);

/// Accumulates the metric set shared by replay and live workloads, one
/// trip at a time. Counters are exact and sample vectors append in call
/// order, so folding per-trip partials with merge() *in trip order*
/// reproduces a sequential accumulation bit for bit — the contract the
/// executor's pool-size invariance rests on.
struct MetricAccumulator {
  std::int64_t slots = 0;
  std::int64_t delivered = 0;
  std::vector<double> session_lengths;
  /// Per-second goodput samples of the mirrored workload, in kbit/s.
  std::vector<double> throughput_kbps;

  void add_trip(const analysis::SlotStream& stream,
                const analysis::SessionDef& def);
  /// Appends \p other's counters and samples after this accumulator's.
  void merge(const MetricAccumulator& other);
  /// Distils the standard metric/series set into \p r.
  void finish(int days, PointResult& r) const;
};

/// Executes one point end-to-end on the calling thread: run_point_sharded
/// on a pool of one. The point is the only input: the executor builds its
/// own Testbed, Simulator and Rng streams, so concurrent calls share no
/// mutable state beyond the thread-safe campaign memo.
PointResult run_point(const ExperimentPoint& point);

/// Executes one point with its trips sharded across \p pool's workers.
/// The point's trips (its replay campaign's logged trips, its stochastic
/// live trips, or its catalog's trip groups, which a live pab point loads
/// from disk in the trip that replays each group) map to per-trip outcomes
/// that fold back in trip order, so the result and every TripScope
/// artifact (trace files, spools, metric columns; the caller's
/// recorder/registry when one is installed) are byte-identical for any
/// pool size. A failing trip fails the point with that trip's own
/// exception; with several, the lowest trip's.
PointResult run_point_sharded(const ExperimentPoint& point,
                              const Runner& pool);

}  // namespace vifi::runtime
