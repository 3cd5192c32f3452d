#include "mac/medium.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/contracts.h"

namespace vifi::mac {

Medium::Medium(sim::Simulator& sim, channel::LossModel& loss,
               MediumParams params)
    : sim_(sim), loss_(loss), params_(std::move(params)) {
  VIFI_EXPECTS(params_.bitrate_bps > 0.0);
  VIFI_EXPECTS(params_.phy_overhead_bytes >= 0);
  if (params_.culling) {
    const SpatialCulling& c = *params_.culling;
    VIFI_EXPECTS(c.position != nullptr);
    VIFI_EXPECTS(c.max_audible_m > 0.0);
    VIFI_EXPECTS(c.margin_m >= 0.0);
    VIFI_EXPECTS(c.cell_m >= 0.0);
    VIFI_EXPECTS(c.refresh > Time::zero());
    const double range = c.max_audible_m + 2.0 * c.margin_m;
    cull_cell_size_ = c.cell_m > 0.0 ? c.cell_m : range / 8.0;
    cull_range_sq_ = range * range;
  }
}

void Medium::attach(NodeId node, FrameSink* sink) {
  VIFI_EXPECTS(node.valid());
  VIFI_EXPECTS(sink != nullptr);
  VIFI_EXPECTS(row_index(node) < 0);
  const auto id = static_cast<std::size_t>(node.value());
  if (id >= row_by_id_.size()) row_by_id_.resize(id + 1, -1);
  row_by_id_[id] = static_cast<std::int32_t>(rows_.size());
  Row& r = rows_.emplace_back();
  r.node = node;
  r.sink = sink;
  if (params_.culling && params_.culling->channel_of)
    r.channel = params_.culling->channel_of(node);
  cull_fresh_ = false;  // the new node needs a cell before the next frame
}

std::int32_t Medium::row_index(NodeId node) const {
  const auto id = static_cast<std::size_t>(node.value());
  return node.valid() && id < row_by_id_.size() ? row_by_id_[id] : -1;
}

std::size_t Medium::row_of(NodeId node) const {
  const std::int32_t i = row_index(node);
  VIFI_EXPECTS(i >= 0);
  return static_cast<std::size_t>(i);
}

void Medium::hear(Row& row, Time start, Time end) {
  row.heard_until = std::max(row.heard_until, end);
  ++row.heard;
  row.heard_at_last_start =
      row.last_heard_start == start ? row.heard_at_last_start + 1 : 1;
  row.last_heard_start = start;
}

void Medium::refresh_cells(Time now) {
  const SpatialCulling& c = *params_.culling;
  if (cull_fresh_ && now - cull_refreshed_ < c.refresh) return;
  for (Row& r : rows_) {
    const mobility::Vec2 p = c.position(r.node, now);
    r.cell = {static_cast<std::int32_t>(std::floor(p.x / cull_cell_size_)),
              static_cast<std::int32_t>(std::floor(p.y / cull_cell_size_))};
  }
  cull_refreshed_ = now;
  cull_fresh_ = true;
}

bool Medium::culled(std::size_t tx_row, std::size_t rx_row) const {
  if (rows_[tx_row].channel != rows_[rx_row].channel) return true;
  // Two points in cells (di, dj) apart are at least
  // hypot(max(0,|di|-1), max(0,|dj|-1)) * cell apart. Cull only when that
  // floor exceeds max_audible + 2*margin: the pair was provably out of
  // audible range at refresh time, and the margin absorbs what both
  // endpoints can have moved since.
  const auto [ax, ay] = rows_[tx_row].cell;
  const auto [bx, by] = rows_[rx_row].cell;
  const double dx =
      std::max(0, std::abs(ax - bx) - 1) * cull_cell_size_;
  const double dy =
      std::max(0, std::abs(ay - by) - 1) * cull_cell_size_;
  return dx * dx + dy * dy > cull_range_sq_;
}

void Medium::set_role(NodeId node, NodeRole role) {
  rows_[row_of(node)].air.role = role;
}

void Medium::note_deferral(NodeId node, Time wait) {
  VIFI_EXPECTS(!wait.is_negative());
  rows_[row_of(node)].air.deferral_wait += wait;
}

Time Medium::airtime(int mac_bytes) const {
  VIFI_EXPECTS(mac_bytes >= 0);
  const double bits =
      static_cast<double>(mac_bytes + params_.phy_overhead_bytes) * 8.0;
  return Time::seconds(bits / params_.bitrate_bps);
}

Time Medium::transmit(Frame frame) {
  VIFI_EXPECTS(frame.tx.valid());
  const Time now = sim_.now();
  prune(now);

  ActiveTx tx;
  tx.seq = next_seq_++;
  tx.tx_row = row_of(frame.tx);
  tx.start = now;
  tx.end = now + airtime(frame.bytes_on_air());
  VIFI_EXPECTS(tx.end > now);
  tx.frame = std::move(frame);
  const NodeId sender = tx.frame.tx;

  obs::TraceRecorder* rec = obs::current_recorder();
  if (rec)
    rec->record(obs::EventKind::FrameTx, now, sender, tx.frame.data.hop_dst,
                tx.frame.data.packet_id, (tx.end - tx.start).to_seconds(),
                static_cast<double>(tx.frame.data.attempt),
                static_cast<std::int32_t>(tx.frame.type));

  // Sample decode + audibility per receiver at start-of-frame. Channel
  // coherence over one frame (< 5 ms) is reasonable at vehicular speeds.
  // With spatial culling enabled, provably sub-audibility receivers skip
  // the sampling entirely; the survivors keep attach order, so the shared
  // draw sequence stays a deterministic function of positions + schedule.
  const bool cull = params_.culling.has_value();
  if (cull) refresh_cells(now);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i == tx.tx_row) continue;
    if (cull && culled(tx.tx_row, i)) continue;
    Row& rx = rows_[i];
    const double p = loss_.reception_prob(sender, rx.node, now);
    // Read before this frame's own contribution: any frame heard here that
    // ends after now overlaps this one.
    const bool overlapped_earlier = rx.heard_until > now;
    if (p >= params_.audibility_threshold) hear(rx, now, tx.end);
    ++rx.air.decode_attempts;
    // Decode sampling also advances burst state for sub-threshold links,
    // keeping the stochastic processes in sync with wall-clock time.
    if (loss_.sample_delivery(sender, rx.node, now)) {
      tx.decoders.push_back({i, rx.heard, overlapped_earlier});
      if (rec)
        rec->record(obs::EventKind::FrameDecode, now, rx.node, sender,
                    tx.frame.data.packet_id, p, 0.0,
                    static_cast<std::int32_t>(tx.frame.type));
    } else {
      ++rx.air.channel_losses;
    }
  }

  Row& tx_row = rows_[tx.tx_row];
  hear(tx_row, now, tx.end);
  ++tx_row.air.frames_tx;
  tx_row.air.tx_airtime += tx.end - tx.start;
  const std::uint64_t seq = tx.seq;
  const Time end = tx.end;
  active_.push_back(std::move(tx));
  sim_.schedule_at(end, [this, seq] { finish(seq); });
  return end - now;
}

void Medium::finish(std::uint64_t seq) {
  // Records are kept in seq order and only pruned from the front. Frame
  // sinks may synchronously transmit (e.g. an ACK), which appends to
  // active_ — a deque, so this record stays put — and tries to prune,
  // which is deferred while delivering_.
  VIFI_EXPECTS(!active_.empty() && seq - active_.front().seq < active_.size());
  const ActiveTx& tx = active_[seq - active_.front().seq];

  // Resolve every decoder before dispatching anything.
  obs::TraceRecorder* rec = obs::current_recorder();
  const Time held = tx.end - tx.start;
  Row& tx_row = rows_[tx.tx_row];
  deliver_scratch_.clear();
  for (const Decoder& d : tx.decoders) {
    Row& rx = rows_[d.row];
    bool collided = false;
    if (params_.model_collisions) {
      // Frames heard at rx since this one started, minus those starting
      // exactly at its end (overlap is strict).
      std::uint64_t later = rx.heard - d.heard_at_start;
      if (rx.last_heard_start == tx.end) later -= rx.heard_at_last_start;
      collided = d.overlapped_earlier || later > 0;
    }
    if (collided) {
      ++tx_row.air.frames_collided;
      ++rx.air.collisions_seen;
      rx.air.collided_airtime += held;
      if (rec)
        rec->record(obs::EventKind::FrameCollide, sim_.now(), rx.node,
                    tx.frame.tx, tx.frame.data.packet_id, 0.0, 0.0,
                    static_cast<std::int32_t>(tx.frame.type));
    } else {
      ++tx_row.air.frames_delivered;
      ++rx.air.frames_received;
      rx.air.rx_airtime += held;
      deliver_scratch_.push_back(d.row);
    }
  }
  // Sinks may attach nodes, so rows are re-indexed per dispatch.
  delivering_ = true;
  for (std::size_t i : deliver_scratch_) {
    if (rec)
      rec->record(obs::EventKind::FrameDeliver, sim_.now(), rows_[i].node,
                  tx.frame.tx, tx.frame.data.packet_id, 0.0, 0.0,
                  static_cast<std::int32_t>(tx.frame.type));
    rows_[i].sink->on_frame(tx.frame);
  }
  delivering_ = false;
}

void Medium::prune(Time now) {
  // A finished transmission is kept a max-frame-time past its end, then
  // dropped; records are only consulted by their own finish(). Deferred
  // while finish() is dispatching out of active_.
  if (delivering_) return;
  const Time keep_after = now - airtime(2000);
  while (!active_.empty() && active_.front().end < keep_after)
    active_.pop_front();
}

bool Medium::busy_for(NodeId listener, Time now) {
  return busy_until(listener, now) > now;
}

Time Medium::busy_until(NodeId listener, Time now) {
  VIFI_EXPECTS(now >= sim_.now());
  // Prune here too, so a node that only listens still lets records go.
  // At the simulation clock, not \p now: a query about a future instant
  // must not evict a still-in-flight record out from under its finish().
  prune(sim_.now());
  const std::int32_t i = row_index(listener);
  return i < 0 ? now
               : std::max(now, rows_[static_cast<std::size_t>(i)].heard_until);
}

std::uint64_t Medium::sum(std::uint64_t NodeAirtime::* field) const {
  std::uint64_t total = 0;
  for (const Row& r : rows_) total += r.air.*field;
  return total;
}

std::uint64_t Medium::transmissions_from(NodeId node) const {
  const std::int32_t i = row_index(node);
  return i < 0 ? 0 : rows_[static_cast<std::size_t>(i)].air.frames_tx;
}

MediumStats Medium::snapshot() const {
  MediumStats s;
  for (const Row& r : rows_) {
    s.busy_airtime += r.air.tx_airtime;
    s.nodes.emplace(r.node, r.air);
  }
  s.transmissions = transmissions();
  s.deliveries = deliveries();
  s.collisions = collisions();
  s.channel_losses = channel_losses();
  s.decode_attempts = decode_attempts();
  return s;
}

void Medium::publish(obs::MetricsRegistry& registry) const {
  // Per-node rows through the ordered snapshot so key insertion order (and
  // with it first-registration cost) is deterministic.
  const MediumStats s = snapshot();
  registry.counter("mac.transmissions")
      .add(static_cast<double>(s.transmissions));
  registry.counter("mac.deliveries").add(static_cast<double>(s.deliveries));
  registry.counter("mac.collisions").add(static_cast<double>(s.collisions));
  registry.counter("mac.channel_losses")
      .add(static_cast<double>(s.channel_losses));
  registry.counter("mac.decode_attempts")
      .add(static_cast<double>(s.decode_attempts));
  registry.counter("mac.busy_airtime_s").add(s.busy_airtime.to_seconds());

  for (const auto& [node, row] : s.nodes) {
    const obs::Labels labels = {{"node", node.to_string()},
                                {"role", to_string(row.role)}};
    const auto add = [&](const char* name, double v) {
      registry.counter(name, labels).add(v);
    };
    add("mac.frames_tx", static_cast<double>(row.frames_tx));
    add("mac.tx_airtime_s", row.tx_airtime.to_seconds());
    add("mac.frames_delivered", static_cast<double>(row.frames_delivered));
    add("mac.frames_collided", static_cast<double>(row.frames_collided));
    add("mac.frames_received", static_cast<double>(row.frames_received));
    add("mac.rx_airtime_s", row.rx_airtime.to_seconds());
    add("mac.collided_airtime_s", row.collided_airtime.to_seconds());
    add("mac.node_decode_attempts", static_cast<double>(row.decode_attempts));
    add("mac.collisions_seen", static_cast<double>(row.collisions_seen));
    add("mac.node_channel_losses", static_cast<double>(row.channel_losses));
    add("mac.deferral_wait_s", row.deferral_wait.to_seconds());
  }
}

}  // namespace vifi::mac
