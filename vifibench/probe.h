#pragma once

/// \file probe.h
/// Pass-through timing and counting wrappers for the traced run. Each
/// wrapper calls the layer's public entry point unchanged and charges the
/// wall time to a layer on a `LayerClock`. The clock keeps a stack of open
/// layer frames, so a layer's self time excludes the layers nested inside
/// it: channel time excludes the positions the channel asks for, and
/// `Simulator::run_until` self time (the "stack" layer) excludes both.
///
/// The traced run is single-threaded; one clock is shared by every
/// wrapper of that run and is not thread-safe.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "channel/loss_model.h"
#include "channel/vehicular.h"

namespace vifibench {

/// The layers the traced run separates. Names match the per-layer metric
/// prefixes in BENCHMARK.json.
enum class Layer : std::size_t {
  Mobility,       ///< PositionFn handed to VehicularChannel / SpatialCulling.
  Channel,        ///< LossModel::sample_delivery / reception_prob.
  Stack,          ///< Simulator::run_until (sim, mac, core, coord, apps).
  Scenario,       ///< scenario::generate_campaign.
  Handoff,        ///< runtime::replay_trip.
  Analysis,       ///< analysis::session_lengths_s / interval_ratios.
  CatalogOpen,    ///< tracegen::CatalogStream::open.
  TripLoad,       ///< tracegen::CatalogStream::load_group.
  ScheduleBuild,  ///< trace::build_fleet_loss_schedule.
  kCount,
};

const char* layer_name(Layer layer);

class LayerClock {
 public:
  using Clock = std::chrono::steady_clock;

  /// Runs \p fn with its wall time charged to \p layer; returns its result.
  template <typename F>
  decltype(auto) time(Layer layer, F&& fn) {
    const Frame frame(*this, layer);
    return std::forward<F>(fn)();
  }

  double self_s(Layer l) const { return self_s_[idx(l)]; }
  double inclusive_s(Layer l) const { return inclusive_s_[idx(l)]; }
  std::uint64_t calls(Layer l) const { return calls_[idx(l)]; }
  /// Frames of any layer opened directly inside a frame of \p l.
  std::uint64_t child_calls(Layer l) const { return child_calls_[idx(l)]; }

  /// The probe's own cost per frame, measured on this host: `inner_s` is
  /// the part a frame charges to its own layer, `outer_s` the part its
  /// parent's self time absorbs. derive.py subtracts both.
  struct Cost {
    double inner_s = 0.0;
    double outer_s = 0.0;
  };
  static Cost calibrate();

 private:
  static std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };

  /// RAII frame: closes on scope exit, exceptions included.
  class Frame {
   public:
    Frame(LayerClock& clock, Layer layer) : clock_(clock) {
      clock_.open_.push_back({layer, Clock::now(), 0.0});
    }
    ~Frame() {
      const Open top = clock_.open_.back();
      clock_.open_.pop_back();
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - top.start).count();
      const std::size_t i = idx(top.layer);
      clock_.inclusive_s_[i] += elapsed;
      clock_.self_s_[i] += elapsed - top.child_s;
      ++clock_.calls_[i];
      if (!clock_.open_.empty()) {
        Open& parent = clock_.open_.back();
        parent.child_s += elapsed;
        ++clock_.child_calls_[idx(parent.layer)];
      }
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    LayerClock& clock_;
  };

  static constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
  std::vector<Open> open_;
  std::array<double, kLayers> self_s_{};
  std::array<double, kLayers> inclusive_s_{};
  std::array<std::uint64_t, kLayers> calls_{};
  std::array<std::uint64_t, kLayers> child_calls_{};
};

/// LossModel decorator: forwards every query to \p inner, timed as the
/// channel layer and counted per method. It also counts failed samples and
/// keeps the times of the successful ones within the last \p tail window,
/// so a trip's decodes still on the air at its horizon can be bounded.
class TimedLossModel final : public vifi::channel::LossModel {
 public:
  TimedLossModel(vifi::channel::LossModel& inner, LayerClock& clock,
                 vifi::Time tail)
      : inner_(inner), clock_(clock), tail_(tail) {}

  bool sample_delivery(vifi::channel::NodeId tx, vifi::channel::NodeId rx,
                       vifi::Time now) override {
    ++samples_;
    const bool ok = clock_.time(
        Layer::Channel, [&] { return inner_.sample_delivery(tx, rx, now); });
    if (!ok) {
      ++failed_;
    } else {
      while (!recent_.empty() && recent_.front() + tail_ < now)
        recent_.pop_front();
      recent_.push_back(now);
    }
    return ok;
  }
  double reception_prob(vifi::channel::NodeId tx, vifi::channel::NodeId rx,
                        vifi::Time now) const override {
    ++prob_queries_;
    return clock_.time(Layer::Channel,
                       [&] { return inner_.reception_prob(tx, rx, now); });
  }

  std::uint64_t samples() const { return samples_; }
  std::uint64_t failed_samples() const { return failed_; }
  std::uint64_t prob_queries() const { return prob_queries_; }
  /// Successful samples taken within the tail window before \p horizon.
  std::uint64_t decodes_since(vifi::Time horizon) const {
    return static_cast<std::uint64_t>(std::count_if(
        recent_.begin(), recent_.end(),
        [&](vifi::Time t) { return t + tail_ >= horizon; }));
  }

 private:
  vifi::channel::LossModel& inner_;
  LayerClock& clock_;
  vifi::Time tail_;
  std::uint64_t samples_ = 0;
  std::uint64_t failed_ = 0;
  mutable std::uint64_t prob_queries_ = 0;
  std::deque<vifi::Time> recent_;
};

/// Wraps a position callback so each call is timed as the mobility layer.
/// The returned function refers to \p clock, which must outlive it.
vifi::channel::VehicularChannel::PositionFn timed_positions(
    vifi::channel::VehicularChannel::PositionFn inner, LayerClock& clock);

}  // namespace vifibench
