"""stabq benchmark: one workload, one seed, every metric printed by name
and unit, every output checked.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

--trace 0  untraced run: set-up probes, then one timed pass of --seconds of
           timed calls; prints the end-to-end metrics.  Their times are in
           reference time, counted in runs of a fixed calibration kernel
           sampled every 0.1 s during the calls, so that they hold still
           while the speed of a shared machine moves; the wall-clock times
           are printed too.
--trace 1  traced run: an untraced reference pass, a pass with spans and a
           cProfile pass, each on the workload's fixed number of calls;
           prints the per-layer metrics and trace.overhead.

Every pass is a fresh interpreter, started after the previous one has
ended: the engine's process-wide caches would otherwise carry verdicts from
one pass into the next.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; a record of the run
goes to .bench_out/.  Exit status: 0 when every output check passed, 1 when
one failed, 2 when the program is missing or a pass could not run (no
result line then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import beyond, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 6
# every pass must end by this many seconds after the run started
RUN_LIMIT_S = 175
START = time.monotonic()

END_TO_END = {
    "setup_s": "s",
    "throughput_per_ref_s": "items/ref_s",
    "latency_ref_ms.p50": "ref_ms",
    "latency_ref_ms.p99": "ref_ms",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics, but not compared: wall-clock times
# move with the speed of a shared machine, and failed_share is 0 on a
# correct commit
WALL_CLOCK = {
    "throughput_per_s": "items/s",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
    "kernel_ms.p50": "ms",
    "failed_share": "ratio",
}
# units of the per-layer metrics, by the part of the name after the layer
LAYER_UNITS = {
    "calls": "count", "points": "count", "calls_per_point": "calls/point",
    "first_call_ms.p50": "ms", "repeat_call_us.p50": "us",
    "unknown_share": "ratio", "undecidable_share": "ratio",
    "union_ms.p50": "ms", "union_ms.p99": "ms", "subreps_s": "s",
    "compare_us.p50": "us", "self_share": "ratio", "span_self_share": "ratio",
    "overhead": "ratio",
}


class PassFailed(RuntimeError):
    pass


def worker(mode: str, args, **extra) -> dict:
    """Run one pass in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           args.workload, str(args.seed)]
    for k, v in extra.items():
        cmd += ["--" + k.replace("_", "-"), str(v)]
    # fixed string hashing, so that call counts repeat exactly
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=max(1.0, START + RUN_LIMIT_S - t0))
    except subprocess.TimeoutExpired:
        raise PassFailed("%s pass ran past the %d s limit of a run" % (mode, RUN_LIMIT_S))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed("%s pass failed (exit %d):\n%s" % (
            mode, proc.returncode, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit_of(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest(root: str) -> str:
    """sha256 of the program's sources: names the code under test where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "stabq")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def untraced(args):
    # set-up probes on both sides of the timed pass, so that their median
    # spans more than one short spell of a shared machine's speed
    setups = [worker("setup", args)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    r = worker("timed", args, seconds=args.seconds)
    setups.append(r["setup_s"])
    setups += [worker("setup", args)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    lat, ref, t = r["latencies_s"], r["reference_s"], r["tally"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_ref_s": t["attempted"] / sum(ref),
        "latency_ref_ms.p50": percentile(ref, 50) * 1e3,
        "latency_ref_ms.p99": percentile(ref, 99) * 1e3,
        "decided_share": t["decided"] / t["attempted"],
        "peak_rss_mb": r["rss_mb"],
    }
    wall = {
        "throughput_per_s": t["attempted"] / sum(lat),
        "latency_ms.p50": percentile(lat, 50) * 1e3,
        "latency_ms.p99": percentile(lat, 99) * 1e3,
        "kernel_ms.p50": statistics.median(r["kernels_s"]) * 1e3,
        "failed_share": t["failed"] / t["attempted"],
    }
    notes = {
        "calls": len(lat),
        "timed_s": sum(lat),
        "speed_samples": len(r["kernels_s"]),
        "p99_calls_beyond": beyond(99, len(lat)),
        "setup_runs_s": setups,
        "rss_after_calls": r["rss_calls"],
        "wall_clock": wall,
    }
    return metrics, notes, t


def traced(args):
    ref = worker("reference", args)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, "%s-seed%d.spans.tsv.gz" % (args.workload, args.seed))
    sp = worker("spans", args, spans_out=spans_out)
    pr = worker("profile", args)
    metrics = dict(sp["metrics"])
    metrics.update(pr["metrics"])
    metrics["trace.overhead"] = sum(sp["reference_s"]) / sum(ref["reference_s"])
    notes = {
        "reference_calls": len(ref["latencies_s"]),
        "span_calls": len(sp["latencies_s"]),
        "spans": sp["spans"],
        "spans_file": os.path.relpath(spans_out, ROOT),
        "profile_calls": len(pr["latencies_s"]),
        "reference_digest": ref["tally"]["digest"],
    }
    t = dict(sp["tally"])
    for other in (ref["tally"], pr["tally"]):
        for k in ("attempted", "decided", "failed"):
            t[k] += other[k]
        t["failures"] = t["failures"] + other["failures"]
    return metrics, notes, t


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or WALL_CLOCK.get(name) or LAYER_UNITS[name.split(".", 1)[1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "stabq", "__init__.py")):
        print("bench: no program under test at src/stabq", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_before": os.getloadavg(),
        "commit": commit_of(ROOT),
        "source": source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        metrics, notes, tally = (traced if args.trace else untraced)(args)
    except PassFailed as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    env["load_after"] = os.getloadavg()

    correct = tally["failed"] == 0
    record = {"env": env, "metrics": metrics, "notes": notes, "tally": tally}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)

    print("# env %s" % json.dumps(env))
    print("# notes %s" % json.dumps(notes))
    print("# counters %s" % json.dumps(tally["counters"]))
    print("# digest %s over the first %d calls" % (tally["digest"], tally["digest_calls"]))
    for d in tally["failures"]:
        print("# FAILED %s" % d)
    for name, value in sorted(metrics.items()) + sorted(notes.get("wall_clock", {}).items()):
        print("%-28s %14.6g %s" % (name, value, unit_of(name)))
    print(json.dumps({
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
