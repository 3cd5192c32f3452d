#pragma once

/// \file medium.h
/// The shared wireless medium. Physics only: per-receiver delivery sampling
/// through the channel's LossModel, airtime occupancy at a fixed bitrate
/// (1 Mbps, §5.1), and collisions — two overlapping transmissions audible at
/// the same receiver destroy each other there (no capture). CSMA deferral
/// lives in Radio; the medium answers "is the channel busy for me?".
///
/// One row per attached node holds its airtime ledger (NodeAirtime, see
/// airtime.h; snapshotted as MediumStats) and the O(1) carrier-sense and
/// collision state; the global counters are sums of the rows. A frame is
/// *heard* at a node if it is audible there at start-of-frame or the node
/// sent it. With heard_until = latest end of any frame heard at a node:
///  - busy_until(n, now) = max(now, heard_until[n]);
///  - a decode at rx collides with an earlier overlapping frame iff
///    heard_until[rx] > start before this frame is heard, and with a later
///    one iff rx heard more frames by the end than right after this frame
///    started, excluding frames starting exactly at the end (overlap is
///    strict at both ends; frames must have positive airtime).

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "channel/loss_model.h"
#include "mac/airtime.h"
#include "mac/frame.h"
#include "mobility/vec2.h"
#include "sim/ids.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace vifi::obs {
class MetricsRegistry;
}

namespace vifi::mac {

/// Spatial interference culling (city-scale fleets). The medium keeps a
/// grid of cell coordinates keyed off the node positions and skips the
/// per-receiver decode/audibility sampling for pairs whose cells prove the
/// link longer than `max_audible_m` — i.e. *provably* below the audibility
/// threshold for any channel state (see DistanceLossCurve::range_for).
/// Cached cells refresh every `refresh`; `margin_m` of extra range absorbs
/// the motion both endpoints can accumulate between refreshes, so the
/// sub-audibility proof holds at every transmit instant as long as
/// `margin_m >= max node speed x refresh`.
///
/// Semantics when enabled: culled links get *no* sample_delivery call, so
/// their hidden burst state is not advanced per frame (the channel models
/// advance state lazily by wall-clock time, so this is safe but changes
/// the shared draw sequence) — a culled run is deterministic and conserves
/// airtime/decode counts exactly, but its results differ from an unculled
/// run. Leaving `MediumParams::culling` unset keeps the historical
/// every-node broadcast byte-for-byte.
struct SpatialCulling {
  /// Position of any attached node at a time (e.g. Testbed::position_fn();
  /// the provider must outlive the medium). Must be a pure function of
  /// (node, time), like VehicularChannel::PositionFn.
  std::function<mobility::Vec2(NodeId, Time)> position;
  /// Links longer than this are provably sub-audibility.
  double max_audible_m = 250.0;
  /// Grid cell edge in meters; 0 derives (max_audible_m + 2*margin_m) / 8.
  /// The cull check is O(1) per pair regardless of cell size, so smaller
  /// cells only sharpen the keep radius (cell-quantisation slack is about
  /// one cell diagonal); the floor is keeping cell indices well inside
  /// 32-bit for any plausible coordinate.
  double cell_m = 0.0;
  /// Cached cell coordinates refresh when older than this.
  Time refresh = Time::millis(250);
  /// Motion allowance per endpoint between refreshes.
  double margin_m = 25.0;
  /// Optional frequency partition: nodes on different channels never pay
  /// decode cost for each other. Unset = everyone shares one channel.
  std::function<int(NodeId)> channel_of;
};

struct MediumParams {
  /// Fixed 802.11b broadcast rate (§5.1). Every frame's airtime must round
  /// to at least one microsecond.
  double bitrate_bps = 1e6;
  int phy_overhead_bytes = 24;   ///< PLCP preamble/header equivalent.
  /// Links with current reception probability above this are "audible" for
  /// carrier sense and collision purposes.
  double audibility_threshold = 0.05;
  bool model_collisions = true;
  /// Spatial interference culling; unset (the default) keeps the
  /// historical all-pairs broadcast byte-for-byte.
  std::optional<SpatialCulling> culling;
};

/// Single shared channel connecting all attached nodes.
class Medium {
 public:
  Medium(sim::Simulator& sim, channel::LossModel& loss, MediumParams params);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Attaches a node; frames it successfully decodes arrive at \p sink.
  ///
  /// Contract for attach during an in-flight transmission: a transmission
  /// samples its receiver set (decode attempts, audibility) once at
  /// start-of-frame, so a node attached mid-flight joins *subsequent*
  /// transmissions only — for frames already in the air it gets no decode
  /// attempt, cannot deliver, and does not hear them for carrier sense
  /// (busy_for()/busy_until() report idle for it). This keeps the
  /// conservation invariants exact: the new node's ledger row starts at
  /// zero and only counts transmissions that started after the attach.
  /// Pinned by Medium.AttachDuringFlightJoinsSubsequentTransmissionsOnly.
  void attach(NodeId node, FrameSink* sink);

  /// Tags an attached node's role so snapshots can split infrastructure
  /// from client airtime. Untagged nodes stay Unknown.
  void set_role(NodeId node, NodeRole role);

  /// Charges CSMA deferral wait to an attached node's ledger row. Called
  /// by the Radio, which owns carrier-sense timing.
  void note_deferral(NodeId node, Time wait);

  /// Starts transmitting \p frame from node \p frame.tx immediately. The
  /// caller (Radio) is responsible for carrier-sense deferral; the medium
  /// will happily model the resulting collision otherwise. Returns the
  /// time the channel is held (airtime).
  Time transmit(Frame frame);

  /// Airtime of a frame with the given MAC-body size.
  Time airtime(int mac_bytes) const;

  /// True if any in-progress transmission is heard at \p listener.
  bool busy_for(NodeId listener, Time now);

  /// Latest end time among transmissions heard at \p listener (now if the
  /// channel is idle for them). O(1); \p now must not precede the clock.
  Time busy_until(NodeId listener, Time now);

  /// Global counters: sums over the per-node rows, O(nodes) each.
  std::uint64_t transmissions() const { return sum(&NodeAirtime::frames_tx); }
  std::uint64_t transmissions_from(NodeId node) const;
  std::uint64_t collisions() const {
    return sum(&NodeAirtime::collisions_seen);
  }
  std::uint64_t deliveries() const {
    return sum(&NodeAirtime::frames_received);
  }
  std::uint64_t channel_losses() const {
    return sum(&NodeAirtime::channel_losses);
  }
  std::uint64_t decode_attempts() const {
    return sum(&NodeAirtime::decode_attempts);
  }

  /// Consistent copy of the global counters and the per-node ledger.
  MediumStats snapshot() const;

  /// Compatibility shim onto the unified metrics registry: adds the global
  /// counters and the per-node ledger rows (labeled node/role) under the
  /// `mac.*` namespace. Counters *add*, so publishing once per trip
  /// accumulates a whole point's totals.
  void publish(obs::MetricsRegistry& registry) const;

  /// Transmission records not yet pruned (tests pin prune behaviour).
  std::size_t active_records() const { return active_.size(); }

  const MediumParams& params() const { return params_; }

 private:
  /// One attached node, in attach order.
  struct Row {
    NodeId node;
    FrameSink* sink = nullptr;
    NodeAirtime air;
    Time heard_until;
    /// Frames heard here, and how many of them started at last_heard_start.
    std::uint64_t heard = 0;
    Time last_heard_start;
    std::uint64_t heard_at_last_start = 0;
    /// Spatial-culling cell and channel; unused when culling is off.
    std::pair<std::int32_t, std::int32_t> cell{0, 0};
    int channel = 0;
  };

  /// A node that sampled a successful decode at start-of-frame, with its
  /// heard count right after this frame started and whether an earlier
  /// frame heard there overlaps this one.
  struct Decoder {
    std::size_t row = 0;
    std::uint64_t heard_at_start = 0;
    bool overlapped_earlier = false;
  };

  struct ActiveTx {
    std::uint64_t seq = 0;
    std::size_t tx_row = 0;
    Time start;
    Time end;
    Frame frame;
    std::vector<Decoder> decoders;
  };

  /// Index into rows_ of \p node, or -1 when it is not attached.
  std::int32_t row_index(NodeId node) const;
  /// Index into rows_ of an attached node (contract violation otherwise).
  std::size_t row_of(NodeId node) const;
  static void hear(Row& row, Time start, Time end);
  std::uint64_t sum(std::uint64_t NodeAirtime::* field) const;

  void finish(std::uint64_t seq);
  void prune(Time now);
  void refresh_cells(Time now);
  bool culled(std::size_t tx_row, std::size_t rx_row) const;

  sim::Simulator& sim_;
  channel::LossModel& loss_;
  MediumParams params_;
  std::vector<Row> rows_;
  /// NodeId value -> index into rows_, -1 when not attached.
  std::vector<std::int32_t> row_by_id_;
  Time cull_refreshed_;
  bool cull_fresh_ = false;
  double cull_cell_size_ = 0.0;
  double cull_range_sq_ = 0.0;  ///< (max_audible + 2*margin)^2, m^2.
  /// Transmissions in seq order, pruned lazily from the front. A deque so
  /// records stay put while finish() dispatches from them even if a sink
  /// synchronously transmits (appends); prune is deferred meanwhile.
  std::deque<ActiveTx> active_;
  std::vector<std::size_t> deliver_scratch_;  ///< Reused by finish().
  bool delivering_ = false;
  std::uint64_t next_seq_ = 1;
};

}  // namespace vifi::mac
