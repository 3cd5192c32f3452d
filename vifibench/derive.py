"""Derived metrics and output checks for ViFiBench.

The measurement binary (vifibench.cc) prints raw measurements: per-run wall
times and result digests, per-trip counters, per-layer probe times. This
module turns them into the metrics BENCHMARK.json names and runs the
output checks. It is pure arithmetic over the raw document, so
test_derive.py can exercise it on hand-made counter sets.
"""

import statistics

# Outcomes of a live trip's decode attempts.
PARTITION = ("mac.deliveries", "mac.collisions", "mac.channel_losses")


def ratio(num, den):
    """num / den, or 0.0 when the denominator is empty."""
    return num / den if den else 0.0


def _units(runs, batch):
    """Consecutive complete batches of runs, each timed as one unit."""
    n = len(runs) // batch
    return [runs[k * batch:(k + 1) * batch] for k in range(n)]


def _rate(unit):
    return sum(r["sim_s"] for r in unit) / sum(r["wall_s"] for r in unit)


def trimmed(units):
    """The units left after dropping the tenth with the highest and the
    tenth with the lowest simulated-seconds rate (one each from 5 units)."""
    ranked = sorted(units, key=_rate)
    k = max(1, len(ranked) // 10) if len(ranked) >= 5 else 0
    return ranked[k:len(ranked) - k]


def end_to_end(raw):
    """The end-to-end metrics of an untraced run (--trace 0). Throughput
    is a ratio of sums over the trimmed units: the host's slow and fast
    phases last seconds, so a mean over the run tracks it more steadily
    than any one unit's median, and the trim drops one-off stalls."""
    runs = [r for r in raw["runs"] if not r["error"]]
    kept = trimmed(_units(runs, raw["batch"]))
    if not kept:
        raise ValueError("no complete timing unit")
    wall = sum(r["wall_s"] for u in kept for r in u)
    first_sweep = raw["runs"][: raw["points"]]
    return {
        "sim_s_per_wall_s": sum(r["sim_s"] for u in kept for r in u) / wall,
        "points_per_hour": 3600.0 * sum(len(u) for u in kept) / wall,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "delivery_rate": ratio(sum(r["delivered"] for r in first_sweep),
                               sum(r["sent"] for r in first_sweep)),
    }


def self_times(layers, cost):
    """Per-layer self time with the probe's own cost taken out: each frame
    charged `inner_s` to its layer and `outer_s` to its parent's."""
    return {
        name: max(0.0, l["self_s"] - l["calls"] * cost["inner_s"]
                  - l["child_calls"] * cost["outer_s"])
        for name, l in layers.items()
    }


def per_layer(raw):
    """The per-layer metrics of a traced run (--trace 1)."""
    trips = raw["trips"]
    total = {}
    for t in trips:
        for k, v in t.items():
            if k != "point":
                total[k] = total.get(k, 0.0) + v
    s = lambda k: total.get(k, 0.0)  # noqa: E731
    layers = raw["layers"]
    cost = raw["probe_cost"]
    frames = sum(l["calls"] for l in layers.values())
    traced_wall = sum(r["wall_s"] for r in raw["traced"])
    # Wall time the traced points would have taken without the probes.
    base_wall = max(traced_wall - frames * (cost["inner_s"] + cost["outer_s"]),
                    1e-12)
    own = self_times(layers, cost)
    share = lambda name: own[name] / base_wall  # noqa: E731
    tx = s("mac.transmissions")
    events = s("sim.events")
    speed = raw.get("speedup")
    return {
        "mobility.position_calls": layers["mobility"]["calls"],
        "mobility.position_calls_per_tx": ratio(layers["mobility"]["calls"], tx),
        "mobility.wall_share": share("mobility"),
        "channel.samples": s("channel.samples"),
        "channel.prob_queries": s("channel.prob_queries"),
        "channel.prob_queries_per_tx": ratio(s("channel.prob_queries"), tx),
        "channel.wall_share": share("channel"),
        "mac.transmissions": tx,
        "mac.decode_attempts_per_tx": ratio(s("mac.decode_attempts"), tx),
        "mac.useful_decode_ratio": ratio(s("mac.deliveries"),
                                         s("mac.decode_attempts")),
        "mac.collisions": s("mac.collisions"),
        "mac.deferral_wait_s": s("mac.deferral_wait_s"),
        "sim.events": events,
        # run_until wall per event, probe cost removed: live points reach
        # channel and mobility only from inside the simulator run.
        "sim.wall_ns_per_event": ratio(
            1e9 * (own["stack"] + own["channel"] + own["mobility"]), events),
        "core.wireless_tx_per_delivery": ratio(s("core.wireless_data_tx"),
                                               s("core.app_delivered")),
        "core.false_positive_rate": ratio(s("core.false_positive_rate"),
                                          len(trips)),
        "core.salvaged": s("core.salvaged"),
        "net.packets_created": s("net.packets_created"),
        "coord.transitions": s("coord.transitions"),
        "coord.prediction_hit_ratio": ratio(s("coord.prediction_hits"),
                                            s("coord.predictions")),
        "coord.suppressed_relays": s("coord.suppressed_relays"),
        "app.cbr_sent": s("app.cbr_sent"),
        "app.cbr_delivered": s("app.cbr_delivered"),
        "stack.wall_share": share("stack"),
        "scenario.wall_share": share("scenario"),
        "handoff.wall_share": share("handoff"),
        "analysis.wall_share": share("analysis"),
        "tracegen.catalog_open_s": layers["tracegen.catalog_open"]["inclusive_s"],
        "tracegen.trip_load_s": layers["tracegen.trip_load"]["inclusive_s"],
        "trace.schedule_build_s": layers["trace.schedule_build"]["inclusive_s"],
        "runtime.parallel_speedup": ratio(
            statistics.median(r["wall_s"] for r in speed["one"]),
            statistics.median(r["wall_s"] for r in speed["all"]))
        if speed else 0.0,
        "trace_overhead": ratio(traced_wall,
                                sum(r["wall_s"] for r in raw["runs"])),
    }


def trip_failures(trip):
    """Why a live trip's counters are inconsistent (empty if they are not).

    The medium counts a decode attempt, and a channel loss, when a frame
    starts, and the delivery or collision when it ends; a trip stops with
    frames still on the air. So the partition reads
    attempts == deliveries + collisions + channel_losses + pending, where
    pending, the decodes of frames on the air at the horizon, is at least 0
    and at most the successful channel samples of the last frame airtime
    (channel.tail_decodes). The probe's own sample counts pin the rest:
    every sample is an attempt, every failed sample a loss.
    """
    out = []
    attempts = trip["mac.decode_attempts"]
    pending = attempts - sum(trip[k] for k in PARTITION)
    if not 0 <= pending <= trip["channel.tail_decodes"]:
        out.append("mac.decode_attempts %g - (deliveries + collisions + "
                   "channel_losses) = %g, outside [0, %g decodes on the air]"
                   % (attempts, pending, trip["channel.tail_decodes"]))
    if attempts != trip["channel.samples"]:
        out.append("mac.decode_attempts %g != channel samples %g"
                   % (attempts, trip["channel.samples"]))
    if trip["mac.channel_losses"] != trip["channel.failed_samples"]:
        out.append("mac.channel_losses %g != failed channel samples %g"
                   % (trip["mac.channel_losses"],
                      trip["channel.failed_samples"]))
    if trip["app.cbr_delivered"] > trip["app.cbr_sent"]:
        out.append("app.cbr_delivered %g > app.cbr_sent %g"
                   % (trip["app.cbr_delivered"], trip["app.cbr_sent"]))
    return out


def checks(raw):
    """Runs every output check. Returns (attempted, failures): attempted
    counts set-ups and point executions, failures lists one message per
    failed one."""
    failures = []
    attempted = len(raw["setup_s"])
    digests = raw["catalog_digests"]
    for k, d in enumerate(digests[1:], 1):
        if d != digests[0]:
            failures.append("set-up %d: catalog bytes differ from set-up 0 "
                            "for the same seed" % k)

    reference = {}  # point -> first digest

    def check_run(label, r):
        if r["error"]:
            failures.append("%s point %d: %s" % (label, r["point"], r["error"]))
            return
        ref = reference.setdefault(r["point"], r["digest"])
        if r["digest"] != ref:
            failures.append("%s point %d: result differs from the point's "
                            "first run" % (label, r["point"]))
        elif r["delivered"] > r["sent"]:
            failures.append("%s point %d: delivered %g > sent %g"
                            % (label, r["point"], r["delivered"], r["sent"]))

    for r in raw["runs"]:
        check_run("run", r)
    attempted += len(raw["runs"])
    if "one_worker" in raw:
        check_run("1-worker", raw["one_worker"])
        attempted += 1
    for label in ("one", "all"):
        for r in raw.get("speedup", {}).get(label, []):
            check_run("speedup/%s" % label, r)
            attempted += 1

    untraced = {r["point"]: r for r in raw["runs"]}
    bad_trips = {}
    for t in raw.get("trips", []):
        for why in trip_failures(t):
            bad_trips.setdefault(t["point"], why)
    for r in raw.get("traced", []):
        attempted += 1
        p = r["point"]
        if r["error"]:
            failures.append("traced point %d: %s" % (p, r["error"]))
        elif r["digest"] != untraced[p]["digest"]:
            failures.append("traced point %d: result differs from the "
                            "untraced run" % p)
        elif abs(r["sim_s"] - untraced[p]["sim_s"]) > 1e-9 * max(1.0, r["sim_s"]):
            failures.append("traced point %d: simulated %g s, untraced "
                            "accounting %g s" % (p, r["sim_s"],
                                                 untraced[p]["sim_s"]))
        elif p in bad_trips:
            failures.append("traced point %d: %s" % (p, bad_trips[p]))
    return attempted, failures
