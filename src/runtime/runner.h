#pragma once

/// \file runner.h
/// Shards a sweep's points across a worker thread pool. Workers claim whole
/// points from an atomic cursor and execute them with thread-local state
/// only — the point function builds its own Simulator, Testbed and Rng
/// streams from the point's derived seeds — so the result *set* is
/// independent of the sharding, and the sink restores grid order before
/// serialising. Net effect: byte-identical output for any thread count.

#include <cstddef>
#include <functional>
#include <vector>

#include "runtime/experiment.h"
#include "runtime/result.h"

namespace vifi::runtime {

struct RunnerOptions {
  /// Worker threads; 0 or negative means std::thread::hardware_concurrency().
  int threads = 1;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  using PointFn = std::function<PointResult(const ExperimentPoint&)>;
  using IndexFn = std::function<PointResult(std::size_t)>;
  using IndexBody = std::function<void(std::size_t)>;

  /// Number of workers the pool will actually use.
  int threads() const { return threads_; }

  /// Runs every point of the spec through the built-in executor
  /// (runtime::run_point).
  ResultSink run(const ExperimentSpec& spec) const;

  /// Runs explicit points through a custom point function. \p fn is called
  /// concurrently from several threads and must depend only on its point.
  ResultSink run(const std::vector<ExperimentPoint>& points,
                 const PointFn& fn) const;

  /// Lowest-level form for bench ports with bespoke sweep shapes: shards
  /// the indices [0, n) over the pool. \p fn must depend only on its index
  /// (plus shared *immutable* state) for thread-count invariance, and
  /// should set PointResult::index to the given index.
  ResultSink run_indexed(std::size_t n, const IndexFn& fn) const;

  /// The pool loop every form above runs on: calls \p body once per index
  /// in [0, n), across the workers (a pool of one runs inline on the
  /// calling thread). Once an index throws, no further index is claimed;
  /// after the join the lowest failing index's exception is rethrown
  /// as it was thrown — every lower index had been claimed already, so
  /// which failure surfaces does not depend on the worker count.
  void for_each_index(std::size_t n, const IndexBody& body) const;

 private:
  int threads_;
};

}  // namespace vifi::runtime
