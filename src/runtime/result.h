#pragma once

/// \file result.h
/// Structured per-point results and their thread-safe aggregation. Metric
/// and series maps are ordered, and the sink restores grid order before
/// serialising, so the JSON/CSV output of a sweep is byte-identical
/// regardless of the order in which workers finish (and therefore of the
/// worker count).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace vifi::runtime {

struct ExperimentPoint;

/// Everything one scenario point produced. Scalars go in `metrics`;
/// fixed-grid vectors (CDF quantiles, per-trip values, slot streams) go in
/// `series`. Wall-clock timings are deliberately excluded — results must be
/// a pure function of the point.
///
/// Fleet points (fleet > 1) additionally carry the per-vehicle fairness
/// columns the executor computes from the medium's airtime ledger:
/// `fairness_jain_delivery`/`fairness_jain_airtime` (Jain's index over the
/// fleet), `airtime_infra_s`/`airtime_vehicle_s` (occupancy split),
/// `per_vehicle_delivery_min`, and the per-vehicle `veh_delivered` /
/// `veh_airtime_s` series. Fleet-1 points omit them all, keeping
/// single-vehicle output byte-identical to pre-fairness sweeps.
struct PointResult {
  std::size_t index = 0;
  std::string testbed;
  int fleet = 1;  ///< Vehicles riding the testbed at this point.
  /// TraceCatalog directory the point replayed; empty for stochastic
  /// points. Serialised (JSON field, CSV column) only when some point in
  /// the sweep carries one, so non-replay output bytes stay unchanged.
  std::string trace_set;
  std::string policy;
  /// CoordTier axis value ("pab"/"coord"); empty when the sweep carried no
  /// coordination axis. Serialised only when some point has one, exactly
  /// like trace_set, so historical output bytes stay unchanged.
  std::string coordination;
  std::uint64_t seed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> series;
  std::string error;  ///< Non-empty if the point failed; metrics are empty.
};

/// A result carrying only \p point's identity columns (index, testbed,
/// fleet, trace set, policy, coordination, seed): the header every result
/// row starts from, error rows included.
PointResult result_header(const ExperimentPoint& point);

/// Thread-safe collector for a sweep's results.
class ResultSink {
 public:
  ResultSink() = default;
  // Movable (the mutex is not moved) so runners can return sinks by value;
  // moving while workers still hold a reference is a caller bug.
  ResultSink(ResultSink&& o) noexcept;
  ResultSink& operator=(ResultSink&& o) noexcept;

  void add(PointResult r);
  std::size_t size() const;
  bool any_errors() const;

  /// Results sorted by grid index.
  std::vector<PointResult> ordered() const;

  /// Deterministic serialisations (doubles rendered with %.17g).
  std::string to_json() const;
  std::string to_csv() const;

  void write_json(const std::string& path) const;
  void write_csv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<PointResult> results_;
};

}  // namespace vifi::runtime
