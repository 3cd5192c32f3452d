#pragma once

/// \file pair_table.h
/// Per-pair state for the channel models. Node ids are dense, so the pair
/// {lo, hi} owns slot hi*(hi+1)/2 + lo of a triangular table that a larger
/// id only extends. Slots index a pool of blocks that never reallocate.

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/ids.h"
#include "util/contracts.h"

namespace vifi::channel {

/// Every node id a channel model sees must be valid and below this bound.
/// Pairs up to id n take n(n+1)/2 four-byte slots: 134 MB at the bound.
inline constexpr int kMaxChannelNodes = 1 << 13;

/// Checks the channel id rule and returns \p node as an index.
inline std::size_t channel_index(sim::NodeId node) {
  VIFI_EXPECTS(node.valid() && node.value() < kMaxChannelNodes);
  return static_cast<std::size_t>(node.value());
}

/// One T per unordered node pair, created on demand.
template <typename T>
class PairTable {
 public:
  /// The pair's state, or nullptr if it was never created.
  const T* find(sim::NodeId a, sim::NodeId b) const {
    const std::size_t s = slot(a, b);
    if (s >= slots_.size() || slots_[s] < 0) return nullptr;
    const auto i = static_cast<std::size_t>(slots_[s]);
    return &blocks_[i / kBlock][i % kBlock];
  }

  /// The pair's state; the first call for a pair stores make(lo, hi), or a
  /// default T when there is no \p make.
  template <typename Make>
  T& get_or_create(sim::NodeId a, sim::NodeId b, Make&& make) {
    if (b < a) std::swap(a, b);
    const std::size_t s = slot(a, b);
    if (s >= slots_.size()) slots_.resize(slot(b, b) + 1, -1);
    if (slots_[s] < 0) {
      if (blocks_.empty() || blocks_.back().size() == kBlock)
        blocks_.emplace_back().reserve(kBlock);
      blocks_.back().push_back(make(a, b));
      slots_[s] = static_cast<std::int32_t>((blocks_.size() - 1) * kBlock +
                                            blocks_.back().size() - 1);
    }
    const auto i = static_cast<std::size_t>(slots_[s]);
    return blocks_[i / kBlock][i % kBlock];
  }
  T& get_or_create(sim::NodeId a, sim::NodeId b) {
    return get_or_create(a, b, [](sim::NodeId, sim::NodeId) { return T{}; });
  }

 private:
  static constexpr std::size_t kBlock = 256;

  static std::size_t slot(sim::NodeId a, sim::NodeId b) {
    std::size_t lo = channel_index(a), hi = channel_index(b);
    if (hi < lo) std::swap(lo, hi);
    return hi * (hi + 1) / 2 + lo;
  }

  std::vector<std::int32_t> slots_;     // -1: pair not created yet
  std::vector<std::vector<T>> blocks_;  // reserved once: never moves
};

}  // namespace vifi::channel
