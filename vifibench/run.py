#!/usr/bin/env python3
"""ViFiBench entry point.

    python3 vifibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the ViFi library and the measurement binary from
source (cmake, Release) into $CARGO_TARGET_DIR/vifibench (default
.bench_build/vifibench), runs the binary, derives metrics and checks
(derive.py), writes the full result set with the host record to
<build>/results/, and prints one JSON object as the last stdout line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero, without
a result, when the build or the measurement fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark directory clean
import derive  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("policy_replay", "live_vanlan_v16", "city_dieselnet_v256",
             "catalog_replay_coord")
# Whole-invocation budgets: a run that first has to build gets the long one.
BUILD_BUDGET_S = 880
RUN_BUDGET_S = 170


def declared_metrics(kind):
    """{name: unit} of the BENCHMARK.json list \p kind, in file order."""
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(cmd, timeout, **kw):
    """subprocess.run that kills and reaps the child on timeout."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out, err


def build(build_dir, timeout, env):
    if not (build_dir / "CMakeCache.txt").exists():
        rc, _, err = run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"], timeout, env=env,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if rc != 0:
            sys.stderr.write(err.decode(errors="replace"))
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc, out, _ = run(["cmake", "--build", str(build_dir), "-j", jobs,
                      "--target", "vifibench"], timeout, env=env,
                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if rc != 0:
        sys.stderr.write(out.decode(errors="replace")[-8000:])
        return False
    return True


def host_record(root):
    """nproc, CPU model, commit and a digest of the sources built."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # Only when root itself is a git work tree.
    try:
        rc, out, _ = run(["git", "rev-parse", "--show-toplevel", "HEAD"], 10,
                         cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
        top, _, head = out.decode().strip().partition("\n")
        if rc == 0 and pathlib.Path(top).resolve() == root.resolve():
            commit = head
    except OSError:
        pass
    h = hashlib.sha256()
    for sub in ("src", HERE.name):
        for p in sorted((root / sub).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "source_sha256": h.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    root = pathlib.Path.cwd()
    build_dir = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
                 / "vifibench").resolve()
    budget = RUN_BUDGET_S if (build_dir / "vifibench").exists() \
        else BUILD_BUDGET_S
    # Compiler and measurement temporaries stay inside the build tree.
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    try:
        built = build(build_dir, budget, env)
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        print("vifibench: build failed", file=sys.stderr)
        return 2

    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    scratch = build_dir / "scratch" / ("%s-%d" % (tag, os.getpid()))
    cmd = [str(build_dir / "vifibench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--scratch", str(scratch)]
    try:
        rc, out, err = run(cmd, budget - (time.monotonic() - start), env=env,
                           stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("vifibench: measurement timed out", file=sys.stderr)
        return 3
    sys.stderr.write(err.decode(errors="replace"))
    if rc != 0:
        print("vifibench: measurement exited %d" % rc, file=sys.stderr)
        return 3
    raw = json.loads(out)

    attempted, failures = derive.checks(raw)
    metrics = derive.per_layer(raw) if args.trace else derive.end_to_end(raw)
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print("vifibench: derived metrics %s do not match BENCHMARK.json %s"
              % (sorted(metrics), sorted(units)), file=sys.stderr)
        return 4
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    host = dict(host_record(root), compiler=raw["host"]["compiler"],
                build_type=raw["host"]["build_type"],
                workers=raw["workers"])
    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / (tag + ".json"), "w") as f:
        json.dump({"host": host, "result": result, "failures": failures,
                   "wall_s": time.monotonic() - start, "raw": raw}, f,
                  indent=1)
    for msg in failures:
        print("vifibench: check failed: " + msg, file=sys.stderr)
    print("vifibench: host " + json.dumps(host, sort_keys=True),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
