"""One pass of a workload in a fresh interpreter; prints its result as one
JSON line.  Started by run.py, one at a time:

    python3 bench/worker.py MODE WORKLOAD SEED --t0 T [--seconds S]

MODE is one of
  setup      make the inputs and stop (a set-up time probe)
  timed      untraced calls for S seconds of timed work, and at least the
             workload's minimum number of calls
  reference  the workload's trace_calls calls, untraced
  spans      the same calls with spans on the public functions of harness,
             regions, engine and ff
  profile    the workload's profile_calls calls under cProfile

T is the caller's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is system-wide), so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
from workloads import WORKLOADS, Tally  # noqa: E402

# a timed pass stops by this wall time whatever its minimum call count, so a
# run ends well inside its 180 s limit
HARD_STOP_S = 150.0
# wall time between two samples of the machine's speed
SAMPLE_EVERY_S = 0.1


class Stabq:
    """The modules of the program under test, imported once."""

    def __init__(self):
        for mod in ("harness", "regions", "engine", "ff", "triples"):
            setattr(self, mod, importlib.import_module("stabq." + mod))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Calls:
    """What a pass measured: per-call wall times net of the speed
    sampler's own time, when each call started and ended, and the
    sampler's kernel times."""

    def __init__(self):
        self.latencies_s: list = []
        self.starts: list = []
        self.ends: list = []
        self.speed = measure.SpeedSampler(SAMPLE_EVERY_S)

    def reference_s(self) -> list:
        return measure.reference_times(self.latencies_s, self.starts, self.ends,
                                       self.speed.times, self.speed.kernels)

    def to_json(self) -> dict:
        out = {"latencies_s": self.latencies_s}
        if self.speed.kernels:
            out.update(reference_s=self.reference_s(), kernels_s=self.speed.kernels)
        return out


def run_calls(wl, tally: Tally, n_calls, seconds, call=None, on_done=None,
              sample_speed: bool = True) -> Calls:
    """The closed loop.  Input generation (prepare) and output checks stay
    outside the timed region; so does the speed sampler's time, which is
    taken out of the calls it interrupts."""
    call = call or wl.call
    out = Calls()
    lat, speed = out.latencies_s, out.speed
    busy = 0.0
    stop_at = time.monotonic() + HARD_STOP_S
    i = 0
    with speed if sample_speed else contextlib.nullcontext():
        while True:
            if i % wl.group == 0:
                if n_calls is not None:
                    if i >= n_calls:
                        break
                elif time.monotonic() > stop_at:
                    break
                # stop where the next call would overshoot more than undershoot
                elif i >= wl.min_calls and busy >= seconds - 0.5 * busy / max(i, 1):
                    break
            wl.prepare(i)
            tally.attempted += wl.items_per_call
            t0, spent0 = speed.clock()
            try:
                r = call(i)
            except Exception as e:  # an item that raises fails; the run goes on
                t1, spent1 = speed.clock()
                tally.fail(wl.items_per_call, "call %d raised %s" % (
                    i, "".join(traceback.format_exception_only(type(e), e)).strip()))
                tally.record(i, "raised " + type(e).__name__)
            else:
                t1, spent1 = speed.clock()
                wl.check(i, r, tally)
            dt = (t1 - t0) - (spent1 - spent0)
            lat.append(dt)
            out.starts.append(t0)
            out.ends.append(t1)
            busy += dt
            i += 1
            if on_done is not None:
                on_done(i)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "timed", "reference", "spans", "profile"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    stabq = Stabq()
    wl = WORKLOADS[args.workload](args.seed, stabq)
    setup_s = time.monotonic() - args.t0
    result = {"mode": args.mode, "setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tally = Tally(wl.digest_calls)
    if args.mode != "timed":
        # fixed-count passes make all their inputs first, so that no span
        # or profile covers input generation
        wl.prepare(max(wl.trace_calls, wl.profile_calls) - 1)
    if args.mode == "timed":
        rss_at_digest = []

        def on_done(i):
            if i == wl.digest_calls:
                rss_at_digest.append(rss_mb())

        calls = run_calls(wl, tally, None, args.seconds, on_done=on_done)
        # memory after a fixed number of calls, so that a faster program,
        # which makes more calls in a run, is not charged for it
        result["rss_mb"] = rss_at_digest[0] if rss_at_digest else rss_mb()
        result["rss_calls"] = min(len(calls.latencies_s), wl.digest_calls)
    elif args.mode == "reference":
        calls = run_calls(wl, tally, wl.trace_calls, 0.0)
    elif args.mode == "spans":
        tr = measure.Tracer(undecidable=stabq.regions.Undecidable)
        for layer in measure.SPAN_LAYERS:
            tr.instrument(layer, getattr(stabq, layer))
        calls = run_calls(wl, tally, wl.trace_calls, 0.0, call=tr.wrap("bench.item", wl.call))
        result["metrics"] = measure.span_metrics(tr)
        result["spans"] = len(tr)
        if args.spans_out:
            tr.write_tsv(args.spans_out)
    else:
        import cProfile
        import pstats

        prof = cProfile.Profile()
        # no speed samples: the profiler would attribute the kernel's work
        calls = run_calls(wl, tally, wl.profile_calls, 0.0,
                          call=lambda i: prof.runcall(wl.call, i), sample_speed=False)
        result["metrics"] = measure.profile_metrics(pstats.Stats(prof).stats.items())
    result.update(calls.to_json())
    result["tally"] = tally.to_json()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
