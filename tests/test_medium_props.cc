// Property tests for the medium's airtime ledger and its O(1) carrier-sense
// and collision bookkeeping. Randomized multi-node transmission schedules
// must conserve airtime and decode outcomes exactly. For every schedule,
// once the simulator drains:
//   - per-node tx airtime sums to the medium's total busy airtime, which in
//     turn equals the independently computed sum of frame airtimes;
//   - every receiver-side decode attempt ends as exactly one of delivery,
//     collision loss, or channel loss (per node and globally);
//   - the ledger's totals reconcile with the global counters (which the
//     medium derives from the ledger rows, so that part only pins the
//     derivation).
// A brute-force reference model of overlap and audibility checks every
// per-frame outcome and every busy_until() answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mobility/vec2.h"

#include "channel/loss_model.h"
#include "mac/airtime.h"
#include "mac/frame.h"
#include "mac/medium.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace vifi::mac {
namespace {

using sim::NodeId;

/// Loss model with random (but per-seed fixed) link probabilities and
/// stochastic per-frame delivery sampling.
class RandomLoss final : public channel::LossModel {
 public:
  RandomLoss(int nodes, Rng probs, Rng samples) : samples_(samples) {
    for (int a = 0; a < nodes; ++a)
      for (int b = 0; b < nodes; ++b)
        if (a != b) probs_[{NodeId(a), NodeId(b)}] = probs.uniform01();
  }

  bool sample_delivery(NodeId tx, NodeId rx, Time) override {
    return samples_.bernoulli(probs_.at({tx, rx}));
  }
  double reception_prob(NodeId tx, NodeId rx, Time) const override {
    return probs_.at({tx, rx});
  }

 private:
  std::map<sim::LinkKey, double> probs_;
  Rng samples_;
};

class NullSink final : public FrameSink {
 public:
  void on_frame(const Frame&) override {}
};

Frame data_frame(net::PacketFactory& factory, NodeId tx, int bytes) {
  Frame f;
  f.type = FrameType::Data;
  f.tx = tx;
  f.packet = factory.make(net::Direction::Upstream, tx, NodeId(0), bytes,
                          Time::zero());
  f.data.packet_id = f.packet->id;
  f.data.origin = tx;
  f.data.hop_dst = NodeId(0);
  return f;
}

// One random schedule per seed: 2-6 nodes, 1-12 transmissions at random
// offsets (gaps short enough that overlaps are common), random sizes and
// transmitters.
TEST(MediumProperties, RandomSchedulesConserveAirtimeAndDecodes) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    sim::Simulator sim;
    const int nodes = static_cast<int>(rng.uniform_int(2, 6));
    RandomLoss loss(nodes, rng.fork("probs"), rng.fork("samples"));
    Medium medium(sim, loss, {});
    std::vector<NullSink> sinks(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
      medium.attach(NodeId(n), &sinks[static_cast<std::size_t>(n)]);

    net::PacketFactory factory;
    const int transmissions = static_cast<int>(rng.uniform_int(1, 12));
    Time expected_airtime;
    Time at;
    for (int i = 0; i < transmissions; ++i) {
      const NodeId tx(static_cast<int>(rng.uniform_int(0, nodes - 1)));
      const int bytes = static_cast<int>(rng.uniform_int(0, 800));
      Frame f = data_frame(factory, tx, bytes);
      expected_airtime += medium.airtime(f.bytes_on_air());
      // Random gap: anywhere from simultaneous to comfortably past the
      // previous frame, so schedules mix heavy overlap with clean air.
      at += Time::micros(rng.uniform_int(0, 8000));
      sim.schedule_at(at, [&medium, f = std::move(f)]() mutable {
        medium.transmit(std::move(f));
      });
    }
    sim.run();

    const MediumStats s = medium.snapshot();
    SCOPED_TRACE("seed " + std::to_string(seed));

    // --- airtime conservation (exact integer-microsecond equality) ------
    EXPECT_EQ(s.busy_airtime, expected_airtime);
    Time ledger_tx_airtime;
    for (const auto& [id, row] : s.nodes) ledger_tx_airtime += row.tx_airtime;
    EXPECT_EQ(ledger_tx_airtime, s.busy_airtime);

    // --- decode attempts partition into the three outcomes --------------
    EXPECT_EQ(s.decode_attempts,
              s.deliveries + s.collisions + s.channel_losses);
    EXPECT_EQ(s.decode_attempts,
              s.transmissions * static_cast<std::uint64_t>(nodes - 1));
    for (const auto& [id, row] : s.nodes) {
      EXPECT_EQ(row.decode_attempts, row.frames_received +
                                         row.collisions_seen +
                                         row.channel_losses)
          << "node " << id.to_string();
      EXPECT_TRUE(row.frames_tx > 0 ||
                  (row.frames_delivered == 0 && row.frames_collided == 0))
          << "node " << id.to_string()
          << " has tx outcomes without transmissions";
    }

    // --- ledger totals reconcile with the global counters ---------------
    // The medium derives its global counters from the rows, so these
    // checks pin that derivation (and the tx/rx-side symmetry) only.
    std::uint64_t tx = 0, delivered_tx = 0, collided_tx = 0, received = 0,
                  collisions_seen = 0, losses = 0, attempts = 0;
    Time rx_airtime, collided_airtime;
    for (const auto& [id, row] : s.nodes) {
      tx += row.frames_tx;
      delivered_tx += row.frames_delivered;
      collided_tx += row.frames_collided;
      received += row.frames_received;
      collisions_seen += row.collisions_seen;
      losses += row.channel_losses;
      attempts += row.decode_attempts;
      rx_airtime += row.rx_airtime;
      collided_airtime += row.collided_airtime;
      EXPECT_EQ(medium.transmissions_from(id), row.frames_tx);
    }
    EXPECT_EQ(tx, medium.transmissions());
    EXPECT_EQ(delivered_tx, medium.deliveries());
    EXPECT_EQ(received, medium.deliveries());
    EXPECT_EQ(collided_tx, medium.collisions());
    EXPECT_EQ(collisions_seen, medium.collisions());
    EXPECT_EQ(losses, medium.channel_losses());
    EXPECT_EQ(attempts, medium.decode_attempts());
    EXPECT_EQ(s.transmissions, medium.transmissions());

    // Received/destroyed airtime can only come from decoded frames, and a
    // decode's airtime equals its transmission's.
    EXPECT_LE(rx_airtime + collided_airtime,
              s.busy_airtime * static_cast<double>(nodes - 1));

    // --- fairness index stays in (0, 1] over any subset -----------------
    std::vector<NodeId> everyone;
    everyone.reserve(s.nodes.size());
    for (const auto& [id, row] : s.nodes) everyone.push_back(id);
    const double jain_tx = s.jain_tx_airtime(everyone);
    const double jain_rx = s.jain_frames_received(everyone);
    EXPECT_GT(jain_tx, 0.0);
    EXPECT_LE(jain_tx, 1.0 + 1e-12);
    EXPECT_GT(jain_rx, 0.0);
    EXPECT_LE(jain_rx, 1.0 + 1e-12);
  }
}

/// Loss model for the reference-model test: fixed per-seed link
/// probabilities, a share of them below the audibility threshold (rarely
/// decoded, never heard) or zero, and a log of the receivers that decoded
/// the latest transmission.
class OracleLoss final : public channel::LossModel {
 public:
  OracleLoss(int nodes, Rng probs, Rng samples) : samples_(samples) {
    for (int a = 0; a < nodes; ++a)
      for (int b = 0; b < nodes; ++b) {
        if (a == b) continue;
        const double kind = probs.uniform01();
        probs_[{NodeId(a), NodeId(b)}] =
            kind < 0.15   ? 0.0
            : kind < 0.35 ? 0.049 * probs.uniform01()
                          : 0.05 + 0.95 * probs.uniform01();
      }
  }

  bool sample_delivery(NodeId tx, NodeId rx, Time) override {
    const bool ok = samples_.bernoulli(probs_.at({tx, rx}));
    if (ok) decoded_.push_back(rx);
    return ok;
  }
  double reception_prob(NodeId tx, NodeId rx, Time) const override {
    return probs_.at({tx, rx});
  }

  /// Receivers that decoded since the last call, in sampling order.
  std::vector<NodeId> take_decoded() { return std::exchange(decoded_, {}); }

 private:
  std::map<sim::LinkKey, double> probs_;
  Rng samples_;
  std::vector<NodeId> decoded_;
};

class CallbackSink final : public FrameSink {
 public:
  std::function<void(const Frame&)> fn;
  void on_frame(const Frame& f) override { fn(f); }
};

/// One transmission as the brute-force reference sees it.
struct RefFrame {
  NodeId tx;
  Time start;
  Time end;
  std::uint64_t packet = 0;
  std::vector<bool> heard;      ///< Per node: audible there, or sent by it.
  std::vector<NodeId> decoders;
};

// The medium's O(1) bookkeeping against brute-force reference rules:
//   - a decode at rx collides iff another frame overlapping it (strictly, at
//     both ends) was audible at rx or sent by rx;
//   - busy_until(n, q) is the latest end among frames heard at n that are
//     still in flight at q, or q.
// Schedules mix same-instant starts, frames starting exactly at another's
// end, mid-flight attaches, and a sink that answers synchronously from
// on_frame (a frame starting exactly at the end of the one it received).
TEST(MediumProperties, BookkeepingMatchesBruteForceReference) {
  const double kAudibility = MediumParams{}.audibility_threshold;
  int same_instant = 0, end_aligned = 0, mid_flight_attaches = 0, replies = 0;
  std::uint64_t collisions = 0, busy_checks = 0, busy_hits = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int nodes = static_cast<int>(rng.uniform_int(2, 7));
    OracleLoss loss(nodes, rng.fork("probs"), rng.fork("samples"));
    Rng replies_rng = rng.fork("replies");
    sim::Simulator sim;
    Medium medium(sim, loss, {});
    net::PacketFactory factory;
    std::vector<RefFrame> frames;
    std::vector<bool> attached(static_cast<std::size_t>(nodes), false);
    std::set<std::pair<std::uint64_t, int>> delivered;  // (packet, rx)

    const auto check_busy = [&](NodeId n, Time q) {
      Time expected = q;
      for (const RefFrame& f : frames)
        if (f.heard[static_cast<std::size_t>(n.value())] && f.end > q)
          expected = std::max(expected, f.end);
      busy_hits += expected > q ? 1 : 0;
      ++busy_checks;
      EXPECT_EQ(medium.busy_until(n, q), expected)
          << "busy_until(" << n.to_string() << ", " << q.to_micros()
          << " us) at " << sim.now().to_micros() << " us";
    };
    const auto send = [&](NodeId tx, int bytes) {
      Frame f = data_frame(factory, tx, bytes);
      RefFrame ref;
      ref.tx = tx;
      ref.start = sim.now();
      ref.end = sim.now() + medium.airtime(f.bytes_on_air());
      ref.packet = f.data.packet_id;
      for (int n = 0; n < nodes; ++n)
        ref.heard.push_back(
            NodeId(n) == tx ||
            (attached[static_cast<std::size_t>(n)] &&
             loss.reception_prob(tx, NodeId(n), sim.now()) >= kAudibility));
      medium.transmit(std::move(f));
      ref.decoders = loss.take_decoded();
      frames.push_back(std::move(ref));
      check_busy(NodeId(static_cast<int>(rng.uniform_int(0, nodes - 1))),
                 sim.now());
      return frames.back().packet;
    };

    // Nodes 0 and 1 answer about half the planned frames they decode at
    // once, from inside on_frame (never a reply, so chains stay short).
    std::set<std::uint64_t> reply_packets;
    std::vector<CallbackSink> sinks(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n) {
      sinks[static_cast<std::size_t>(n)].fn = [&, n](const Frame& f) {
        delivered.emplace(f.data.packet_id, n);
        if (n < 2 && !reply_packets.contains(f.data.packet_id) &&
            replies_rng.bernoulli(0.5)) {
          ++replies;
          reply_packets.insert(send(NodeId(n), 20));
        }
      };
    }
    const auto attach = [&](int n) {
      medium.attach(NodeId(n), &sinks[static_cast<std::size_t>(n)]);
      attached[static_cast<std::size_t>(n)] = true;
      if (std::any_of(frames.begin(), frames.end(),
                      [&](const RefFrame& f) { return f.end > sim.now(); }))
        ++mid_flight_attaches;
    };
    const int initial = static_cast<int>(rng.uniform_int(1, nodes));
    for (int n = 0; n < initial; ++n) attach(n);
    for (int n = initial; n < nodes; ++n) {
      sim.schedule_at(Time::micros(rng.uniform_int(0, 20000)),
                      [&attach, n] { attach(n); });
    }

    // Planned transmissions: the sender falls back to node 0 if it is not
    // attached yet when its start comes.
    const int planned = static_cast<int>(rng.uniform_int(1, 16));
    std::vector<Time> ends;
    Time at;
    for (int i = 0; i < planned; ++i) {
      const int bytes = static_cast<int>(rng.uniform_int(0, 800));
      const double kind = rng.uniform01();
      if (kind < 0.25 && i > 0) {
        ++same_instant;  // same start as the previous plan
      } else if (kind < 0.5 && i > 0) {
        ++end_aligned;  // starts exactly as an earlier plan ends
        at = ends[static_cast<std::size_t>(rng.uniform_int(0, i - 1))];
      } else {
        at += Time::micros(rng.uniform_int(1, 6000));
      }
      ends.push_back(at + medium.airtime(24 + bytes));
      const int want = static_cast<int>(rng.uniform_int(0, nodes - 1));
      sim.schedule_at(at, [&, want, bytes] {
        send(attached[static_cast<std::size_t>(want)] ? NodeId(want)
                                                      : NodeId(0),
             bytes);
      });
    }
    // Carrier-sense probes at random instants, about now and the future.
    for (int i = 0; i < 12; ++i) {
      const NodeId n(static_cast<int>(rng.uniform_int(0, nodes - 1)));
      const Time offset = Time::micros(rng.uniform_int(0, 3) == 0
                                           ? rng.uniform_int(0, 4000)
                                           : 0);
      sim.schedule_at(Time::micros(rng.uniform_int(0, 40000)),
                      [&, n, offset] { check_busy(n, sim.now() + offset); });
    }
    sim.run();

    std::uint64_t decodes = 0, expected_collisions = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const RefFrame& f = frames[i];
      for (NodeId rx : f.decoders) {
        ++decodes;
        bool collided = false;
        for (std::size_t j = 0; j < frames.size(); ++j) {
          const RefFrame& o = frames[j];
          if (j != i && o.start < f.end && f.start < o.end &&
              o.heard[static_cast<std::size_t>(rx.value())])
            collided = true;
        }
        expected_collisions += collided ? 1 : 0;
        EXPECT_EQ(delivered.contains({f.packet, rx.value()}), !collided)
            << "frame " << i << " from " << f.tx.to_string() << " ["
            << f.start.to_micros() << ", " << f.end.to_micros()
            << ") us at " << rx.to_string();
      }
    }
    EXPECT_EQ(medium.transmissions(), frames.size());
    EXPECT_EQ(medium.collisions(), expected_collisions);
    EXPECT_EQ(medium.deliveries(), decodes - expected_collisions);
    EXPECT_EQ(delivered.size(), decodes - expected_collisions);
    collisions += expected_collisions;
  }
  // The schedules exercise every rule they are meant to.
  EXPECT_GT(same_instant, 100);
  EXPECT_GT(end_aligned, 100);
  EXPECT_GT(mid_flight_attaches, 50);
  EXPECT_GT(replies, 100);
  EXPECT_GT(collisions, 100u);
  EXPECT_GT(busy_hits, 100u);
  EXPECT_GT(busy_checks, busy_hits);
}

/// Loss model whose reception probability is a pure function of node
/// distance (linear falloff, zero at 1 km) and which logs every
/// sample_delivery call — the oracle for checking that culled receivers
/// are exactly the provably sub-audibility ones.
class DistanceLoss final : public channel::LossModel {
 public:
  DistanceLoss(std::vector<mobility::Vec2> positions, Rng samples)
      : positions_(std::move(positions)), samples_(samples) {}

  double prob(NodeId a, NodeId b) const {
    const mobility::Vec2 pa = positions_[static_cast<std::size_t>(a.value())];
    const mobility::Vec2 pb = positions_[static_cast<std::size_t>(b.value())];
    const double d = std::hypot(pa.x - pb.x, pa.y - pb.y);
    return std::max(0.0, 1.0 - d / 1000.0);
  }

  bool sample_delivery(NodeId tx, NodeId rx, Time now) override {
    samples_log_.emplace_back(tx, rx, now);
    return samples_.bernoulli(prob(tx, rx));
  }
  double reception_prob(NodeId tx, NodeId rx, Time) const override {
    return prob(tx, rx);
  }

  const std::vector<std::tuple<NodeId, NodeId, Time>>& samples_log() const {
    return samples_log_;
  }

 private:
  std::vector<mobility::Vec2> positions_;
  Rng samples_;
  std::vector<std::tuple<NodeId, NodeId, Time>> samples_log_;
};

// The culled medium over random geometries: conservation invariants must
// hold exactly with a *subset* of receivers sampled, every skipped
// receiver must be provably below the audibility threshold at its
// transmit instant, and a re-run of the same schedule must reproduce the
// same counters and the same sample sequence (determinism — culling only
// removes draws, never reorders the survivors).
TEST(MediumProperties, CulledSchedulesConserveAndOnlySkipSubAudibility) {
  constexpr double kAudibility = 0.05;
  // reception_prob(d) = 1 - d/1000 >= 0.05  <=>  d <= 950.
  constexpr double kMaxAudible = 950.0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int nodes = static_cast<int>(rng.uniform_int(6, 14));
    // Positions spread well past audibility range, so schedules mix
    // audible neighborhoods with provably-deaf pairs.
    std::vector<mobility::Vec2> positions;
    positions.reserve(static_cast<std::size_t>(nodes));
    for (int n = 0; n < nodes; ++n)
      positions.push_back({rng.uniform01() * 3000.0,
                           rng.uniform01() * 3000.0});
    const int transmissions = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<std::pair<NodeId, int>> schedule;  // (tx, bytes)
    std::vector<Time> at;
    Time t;
    for (int i = 0; i < transmissions; ++i) {
      schedule.emplace_back(
          NodeId(static_cast<int>(rng.uniform_int(0, nodes - 1))),
          static_cast<int>(rng.uniform_int(0, 800)));
      // Gaps of at least 1 us keep transmit instants distinct, so the
      // sample log groups unambiguously per transmission.
      t += Time::micros(rng.uniform_int(1, 8000));
      at.push_back(t);
    }

    const std::uint64_t sample_seed = rng.fork("samples").next_u64();
    auto run_once = [&](DistanceLoss& loss) {
      sim::Simulator sim;
      MediumParams params;
      SpatialCulling cull;
      cull.position = [&positions](NodeId id, Time) {
        return positions[static_cast<std::size_t>(id.value())];
      };
      cull.max_audible_m = kMaxAudible;
      cull.margin_m = 0.0;  // static geometry
      params.culling = std::move(cull);
      Medium medium(sim, loss, std::move(params));
      std::vector<NullSink> sinks(static_cast<std::size_t>(nodes));
      for (int n = 0; n < nodes; ++n)
        medium.attach(NodeId(n), &sinks[static_cast<std::size_t>(n)]);
      net::PacketFactory factory;
      Time expected_airtime;
      for (int i = 0; i < transmissions; ++i) {
        Frame f = data_frame(factory, schedule[static_cast<std::size_t>(i)].first,
                             schedule[static_cast<std::size_t>(i)].second);
        expected_airtime += medium.airtime(f.bytes_on_air());
        sim.schedule_at(at[static_cast<std::size_t>(i)],
                        [&medium, f = std::move(f)]() mutable {
                          medium.transmit(std::move(f));
                        });
      }
      sim.run();
      EXPECT_EQ(medium.snapshot().busy_airtime, expected_airtime);
      return medium.snapshot();
    };

    DistanceLoss loss(positions, Rng(sample_seed));
    const MediumStats s = run_once(loss);

    // --- conservation holds on the culled subset -------------------------
    Time ledger_tx_airtime;
    for (const auto& [id, row] : s.nodes) ledger_tx_airtime += row.tx_airtime;
    EXPECT_EQ(ledger_tx_airtime, s.busy_airtime);
    EXPECT_EQ(s.decode_attempts,
              s.deliveries + s.collisions + s.channel_losses);
    EXPECT_LE(s.decode_attempts,
              s.transmissions * static_cast<std::uint64_t>(nodes - 1));
    for (const auto& [id, row] : s.nodes)
      EXPECT_EQ(row.decode_attempts, row.frames_received +
                                         row.collisions_seen +
                                         row.channel_losses)
          << "node " << id.to_string();

    // --- every skipped receiver is provably sub-audibility ---------------
    // Group the sample log by transmission (distinct transmit instants):
    // any (tx, rx) pair absent from a transmission's samples must sit
    // below the audibility threshold at that instant.
    std::uint64_t logged = 0;
    for (int i = 0; i < transmissions; ++i) {
      const NodeId tx = schedule[static_cast<std::size_t>(i)].first;
      const Time when = at[static_cast<std::size_t>(i)];
      std::vector<bool> sampled(static_cast<std::size_t>(nodes), false);
      for (const auto& [stx, srx, st] : loss.samples_log()) {
        if (stx != tx || st != when) continue;
        sampled[static_cast<std::size_t>(srx.value())] = true;
        ++logged;
      }
      for (int rx = 0; rx < nodes; ++rx) {
        if (NodeId(rx) == tx || sampled[static_cast<std::size_t>(rx)])
          continue;
        EXPECT_LT(loss.reception_prob(tx, NodeId(rx), when), kAudibility)
            << "transmission " << i << " culled audible receiver n" << rx;
      }
    }
    EXPECT_EQ(logged, s.decode_attempts);

    // --- determinism: identical schedule, identical run ------------------
    DistanceLoss again(positions, Rng(sample_seed));
    const MediumStats s2 = run_once(again);
    EXPECT_EQ(s2.decode_attempts, s.decode_attempts);
    EXPECT_EQ(s2.deliveries, s.deliveries);
    EXPECT_EQ(s2.collisions, s.collisions);
    EXPECT_EQ(s2.channel_losses, s.channel_losses);
    EXPECT_TRUE(again.samples_log() == loss.samples_log());
  }
}

// Frequency partitioning: co-located nodes on different channels never pay
// decode cost for each other, and the partition alone accounts for every
// skipped receiver.
TEST(MediumProperties, CullingChannelPartitionSkipsCrossChannelPairs) {
  constexpr int kNodes = 8;
  // Everyone at the origin: distance can never cull, only the channel map.
  std::vector<mobility::Vec2> positions(kNodes, mobility::Vec2{0.0, 0.0});
  DistanceLoss loss(positions, Rng(77));
  sim::Simulator sim;
  MediumParams params;
  SpatialCulling cull;
  cull.position = [](NodeId, Time) { return mobility::Vec2{0.0, 0.0}; };
  cull.max_audible_m = 950.0;
  cull.margin_m = 0.0;
  cull.channel_of = [](NodeId id) { return id.value() % 2; };
  params.culling = std::move(cull);
  Medium medium(sim, loss, std::move(params));
  std::vector<NullSink> sinks(kNodes);
  for (int n = 0; n < kNodes; ++n)
    medium.attach(NodeId(n), &sinks[static_cast<std::size_t>(n)]);
  net::PacketFactory factory;
  Time at;
  for (int i = 0; i < kNodes; ++i) {
    Frame f = data_frame(factory, NodeId(i), 400);
    at += Time::millis(10);
    sim.schedule_at(at, [&medium, f = std::move(f)]() mutable {
      medium.transmit(std::move(f));
    });
  }
  sim.run();

  // Each transmission reaches exactly the 3 co-channel peers.
  const MediumStats s = medium.snapshot();
  EXPECT_EQ(s.decode_attempts,
            static_cast<std::uint64_t>(kNodes) * (kNodes / 2 - 1));
  EXPECT_EQ(s.decode_attempts,
            s.deliveries + s.collisions + s.channel_losses);
  for (const auto& [stx, srx, st] : loss.samples_log())
    EXPECT_EQ(stx.value() % 2, srx.value() % 2)
        << "cross-channel pair sampled: " << stx.to_string() << " -> "
        << srx.to_string();
}

}  // namespace
}  // namespace vifi::mac
