#pragma once

/// \file mirror.h
/// The traced mirror of `runtime::run_point`: it runs the same point
/// through the layers' public entry points (testbed, channel, LiveTrip's
/// stack assembly, CBR apps, §3.1 replay, catalog streaming) with every
/// entry point wrapped by a probe.h timer. Its PointResult must equal the
/// untraced executor's byte for byte; the benchmark checks that on every
/// traced point, so the per-layer numbers describe the program the
/// end-to-end numbers timed.
///
/// Covered point shapes are the benchmark's own: stochastic §3.1 replay,
/// stochastic live CBR (culled or not, no coordination axis), and catalog
/// live CBR (pab or coord). Other shapes throw std::runtime_error.

#include <map>
#include <string>
#include <vector>

#include "probe.h"
#include "runtime/experiment.h"
#include "runtime/result.h"

namespace vifibench {

/// Counters of one live trip: what the layers published into the trip's
/// obs::MetricsRegistry, plus the probe's own counts.
struct TripRecord {
  std::size_t point = 0;
  std::map<std::string, double> counters;
};

/// Everything the traced run accumulates across its points.
struct Trace {
  LayerClock clock;
  std::vector<TripRecord> trips;
};

struct MirrorResult {
  vifi::runtime::PointResult result;
  double sim_s = 0.0;  ///< Simulated (or replayed) seconds the point covered.
};

MirrorResult mirror_point(const vifi::runtime::ExperimentPoint& point,
                          Trace& trace);

}  // namespace vifibench
