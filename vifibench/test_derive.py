#!/usr/bin/env python3
"""Self-test of ViFiBench's derived-metric arithmetic (derive.py).

    python3 vifibench/test_derive.py

Hand-made raw documents with known answers: the end-to-end medians and
rates, the per-layer ratios, the probe-cost correction behind the wall
shares, and every output check firing on a doctored input.
"""

import sys
import unittest

sys.dont_write_bytecode = True
import derive  # noqa: E402

LAYERS = ("mobility", "channel", "stack", "scenario", "handoff", "analysis",
          "tracegen.catalog_open", "tracegen.trip_load",
          "trace.schedule_build")


def run(point, wall, sim=10.0, digest="d", delivered=5.0, sent=10.0):
    return {"point": point, "wall_s": wall, "sim_s": sim, "digest": digest,
            "delivered": delivered, "sent": sent, "error": ""}


def trip(point=0, **over):
    t = {"point": point, "mac.transmissions": 10.0, "mac.deliveries": 30.0,
         "mac.collisions": 5.0, "mac.channel_losses": 65.0,
         "mac.decode_attempts": 100.0, "mac.deferral_wait_s": 0.5,
         "core.wireless_data_tx": 12.0, "core.app_delivered": 8.0,
         "core.salvaged": 1.0, "core.false_positive_rate": 0.2,
         "coord.transitions": 3.0, "coord.predictions": 4.0,
         "coord.prediction_hits": 3.0, "coord.suppressed_relays": 2.0,
         "app.cbr_sent": 20.0, "app.cbr_delivered": 8.0,
         "channel.samples": 100.0, "channel.failed_samples": 65.0,
         "channel.tail_decodes": 0.0, "channel.prob_queries": 150.0,
         "sim.events": 1000.0, "net.packets_created": 20.0}
    t.update(over)
    return t


def traced_raw():
    layers = {name: {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0,
                     "child_calls": 0} for name in LAYERS}
    # 1000 position calls inside 300 channel calls inside 2 run_until calls.
    layers["mobility"].update(self_s=1.0 + 1000 * 1e-4, calls=1000)
    layers["channel"].update(self_s=2.0 + 300 * 1e-4 + 1000 * 2e-4,
                             calls=300, child_calls=1000)
    layers["stack"].update(self_s=3.0 + 2 * 1e-4 + 300 * 2e-4, calls=2,
                           child_calls=300)
    layers["tracegen.catalog_open"].update(self_s=0.25, inclusive_s=0.25,
                                           calls=1)
    frames = 1303
    return {
        "setup_s": [0.1], "catalog_digests": [], "points": 1, "batch": 1,
        "runs": [run(0, 4.0)],
        # Probe-free wall is 8 s; each of the 1303 frames added 3e-4 s.
        "traced": [{"point": 0, "wall_s": 8.0 + frames * 3e-4, "sim_s": 10.0,
                    "digest": "d", "error": ""}],
        "trips": [trip(0), trip(0, **{"core.false_positive_rate": 0.4})],
        "layers": layers,
        "probe_cost": {"inner_s": 1e-4, "outer_s": 2e-4},
        "speedup": {"one": [run(0, 3.0), run(0, 3.2), run(0, 2.8)],
                    "all": [run(0, 1.0), run(0, 1.5), run(0, 0.9)]},
    }


class EndToEnd(unittest.TestCase):
    def test_units_trim_and_delivery(self):
        # Two-point batches (walls 3, 2, 6, 4, 5 s; 60 simulated s each)
        # plus an incomplete batch, which is ignored.
        walls = [(1.0, 2.0), (1.0, 1.0), (3.0, 3.0), (2.0, 2.0), (4.0, 1.0)]
        runs = []
        for w0, w1 in walls:
            runs += [run(0, w0, sim=30.0), run(1, w1, sim=30.0)]
        runs[0].update(delivered=1.0, sent=4.0)
        runs[1].update(delivered=2.0, sent=4.0)
        raw = {"points": 2, "batch": 2, "setup_s": [0.3, 0.1, 0.2],
               "peak_rss_kb": 2048, "runs": runs + [run(0, 9.0)]}
        m = derive.end_to_end(raw)
        # The fastest (2 s) and slowest (6 s) batches are trimmed: 180
        # simulated s and 6 points over 3 + 4 + 5 s.
        self.assertAlmostEqual(m["sim_s_per_wall_s"], 15.0)
        self.assertAlmostEqual(m["points_per_hour"], 1800.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)
        # First sweep only: (1 + 2) / (4 + 4).
        self.assertAlmostEqual(m["delivery_rate"], 0.375)

    def test_few_units_are_not_trimmed(self):
        raw = {"points": 1, "batch": 1, "setup_s": [0.1], "peak_rss_kb": 1,
               "runs": [run(0, 1.0), run(0, 3.0)]}
        self.assertAlmostEqual(derive.end_to_end(raw)["sim_s_per_wall_s"], 5.0)

    def test_no_complete_unit_is_an_error(self):
        raw = {"points": 2, "batch": 2, "setup_s": [0.1], "peak_rss_kb": 1,
               "runs": [run(0, 1.0)]}
        with self.assertRaises(ValueError):
            derive.end_to_end(raw)


class PerLayer(unittest.TestCase):
    def setUp(self):
        self.m = derive.per_layer(traced_raw())

    def test_ratios(self):
        m = self.m
        self.assertEqual(m["mobility.position_calls"], 1000)
        self.assertAlmostEqual(m["mobility.position_calls_per_tx"], 50.0)
        self.assertAlmostEqual(m["channel.prob_queries_per_tx"], 15.0)
        self.assertAlmostEqual(m["mac.decode_attempts_per_tx"], 10.0)
        self.assertAlmostEqual(m["mac.useful_decode_ratio"], 0.3)
        self.assertAlmostEqual(m["core.wireless_tx_per_delivery"], 1.5)
        self.assertAlmostEqual(m["core.false_positive_rate"], 0.3)
        self.assertAlmostEqual(m["coord.prediction_hit_ratio"], 0.75)
        self.assertAlmostEqual(m["app.cbr_sent"], 40.0)
        self.assertAlmostEqual(m["runtime.parallel_speedup"], 3.0)
        self.assertAlmostEqual(m["tracegen.catalog_open_s"], 0.25)

    def test_shares_remove_probe_cost(self):
        m = self.m
        self.assertAlmostEqual(m["mobility.wall_share"], 1.0 / 8.0)
        self.assertAlmostEqual(m["channel.wall_share"], 2.0 / 8.0)
        self.assertAlmostEqual(m["stack.wall_share"], 3.0 / 8.0)
        self.assertAlmostEqual(m["scenario.wall_share"], 0.0)
        # (3 + 2 + 1) s of probe-free run_until over 2000 events.
        self.assertAlmostEqual(m["sim.wall_ns_per_event"], 3e6)
        self.assertAlmostEqual(m["trace_overhead"],
                               (8.0 + 1303 * 3e-4) / 4.0)

    def test_empty_denominators_read_zero(self):
        raw = traced_raw()
        raw["trips"] = []
        raw.pop("speedup")
        m = derive.per_layer(raw)
        self.assertEqual(m["mobility.position_calls_per_tx"], 0.0)
        self.assertEqual(m["mac.useful_decode_ratio"], 0.0)
        self.assertEqual(m["runtime.parallel_speedup"], 0.0)


class Checks(unittest.TestCase):
    def test_clean_document_passes(self):
        attempted, failures = derive.checks(traced_raw())
        self.assertEqual(failures, [])
        # 1 set-up + 1 run + 6 speedup runs + 1 traced run.
        self.assertEqual(attempted, 9)

    def test_partition_fires_on_doctored_counters(self):
        raw = traced_raw()
        raw["trips"][1]["mac.collisions"] += 1
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("mac.decode_attempts", failures[0])

    def test_partition_allows_decodes_still_on_the_air(self):
        raw = traced_raw()
        # Two decodes sampled in the last airtime have no outcome yet.
        raw["trips"][0].update({"mac.deliveries": 28.0,
                                "channel.tail_decodes": 3.0})
        self.assertEqual(derive.checks(raw)[1], [])
        raw["trips"][0]["channel.tail_decodes"] = 1.0
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("on the air", failures[0])

    def test_partition_fires_on_more_outcomes_than_attempts(self):
        raw = traced_raw()
        raw["trips"][0].update({"mac.deliveries": 31.0,
                                "channel.tail_decodes": 5.0})
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)

    def test_losses_must_match_failed_samples(self):
        raw = traced_raw()
        raw["trips"][0].update({"mac.channel_losses": 64.0,
                                "mac.deliveries": 31.0})
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed channel samples", failures[0])

    def test_app_delivered_above_sent_fires(self):
        raw = traced_raw()
        raw["trips"][0]["app.cbr_delivered"] = 21.0
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("app.cbr_delivered", failures[0])

    def test_traced_result_must_match(self):
        raw = traced_raw()
        raw["traced"][0]["digest"] = "other"
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("untraced", failures[0])

    def test_traced_sim_seconds_must_match(self):
        raw = traced_raw()
        raw["traced"][0]["sim_s"] = 11.0
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)

    def test_repeated_point_must_repeat_its_result(self):
        raw = {"setup_s": [0.1], "catalog_digests": [],
               "runs": [run(0, 1.0), run(1, 1.0, digest="e"),
                        run(0, 1.0, digest="x"), run(1, 1.0, digest="e")]}
        attempted, failures = derive.checks(raw)
        self.assertEqual(attempted, 5)
        self.assertEqual(len(failures), 1)
        self.assertIn("point 0", failures[0])

    def test_worker_count_must_not_change_result(self):
        raw = {"setup_s": [0.1], "catalog_digests": [],
               "runs": [run(0, 1.0)],
               "one_worker": run(0, 3.0, digest="x")}
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("1-worker", failures[0])

    def test_delivered_above_sent_fires(self):
        raw = {"setup_s": [0.1], "catalog_digests": [],
               "runs": [run(0, 1.0, delivered=11.0)]}
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)

    def test_catalog_bytes_must_repeat(self):
        raw = {"setup_s": [0.1, 0.1, 0.1], "catalog_digests": ["a", "a", "b"],
               "runs": [run(0, 1.0)]}
        _, failures = derive.checks(raw)
        self.assertEqual(len(failures), 1)
        self.assertIn("set-up 2", failures[0])

    def test_errors_are_failures(self):
        raw = traced_raw()
        raw["traced"][0]["error"] = "boom"
        _, failures = derive.checks(raw)
        self.assertEqual(failures, ["traced point 0: boom"])


if __name__ == "__main__":
    unittest.main()
