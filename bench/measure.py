"""Measurement primitives of the benchmark: the percentile rule, the
calibration kernel and the speed sampler that turn wall times into
reference times, span recording by wrapping public module attributes, span
self time, and the cProfile attribution of self time to module files.

Nothing here imports stabq; the worker hands in the modules to wrap.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import math
import os
import signal
import time
import types
from array import array
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence

# Layers whose public functions get spans, outermost first.  Only calls
# through a module attribute are seen: regions and harness reach engine and
# ff as ``engine.f`` / ``ff.f``, while exact, catalog and triples are bound
# by ``from ... import`` and so are attributed by cProfile only.
SPAN_LAYERS = ("harness", "regions", "engine", "ff")

# Buckets of the cProfile self-time attribution.  Every profiled function
# lands in exactly one, so the shares sum to 1.
PROFILE_BUCKETS = (
    "fractions", "exact", "catalog", "triples", "quiver", "engine",
    "regions", "ff", "gf", "harness", "other",
)
# Layers without spans whose work is counted as profiled function calls.
PROFILE_CALLS = ("fractions", "exact", "catalog", "triples")

OK, UNKNOWN, UNDECIDABLE, RAISED = 0, 1, 2, 3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it.  With n values, n - ceil(p n / 100) lie beyond
    it, so p99 has ten values beyond it once n >= 1000."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def beyond(p: float, n: int) -> int:
    """How many of n values lie strictly beyond the nearest-rank p-th."""
    return n - math.ceil(p * n / 100)


# The calibration kernel: exact Gaussian elimination of a fixed 7x7 matrix
# of Fractions, with tuple keys in a dict -- the kind of work stabq does,
# written here so that no change to stabq changes it.
_CAL_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5)
                for j in range(7)] for i in range(7)]
_CAL_DET = Fraction(18485423, 100000)


def calibration_kernel() -> Fraction:
    """One run of the kernel; returns the matrix's determinant."""
    a = [row[:] for row in _CAL_MATRIX]
    n = len(a)
    det = Fraction(1)
    seen = {}
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        seen[(c, det)] = len(seen)
    return det


def kernel_time(runs: int = 3) -> float:
    """The machine's speed now: the fastest of ``runs`` back-to-back runs
    of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(runs):
        t0 = time.perf_counter()
        det = calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    if det != _CAL_DET:
        raise RuntimeError("calibration kernel gave %s" % det)
    return best


class SpeedSampler:
    """Samples the machine's speed while calls run.  A SIGALRM handler runs
    kernel_time() every ``every`` seconds of wall time, in the middle of a
    call as well as between calls; one more sample is taken on entry and
    one on exit.  ``spent`` is the wall time the handler has taken so far,
    which a caller subtracts from the calls it interrupted."""

    def __init__(self, every: float = 0.1):
        self.every = every
        self.times: List[float] = []
        self.kernels: List[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # a tick that fell inside the previous one
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernels.append(kernel_time())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def clock(self):
        """(time.perf_counter(), spent) read together, with no sample
        taken between the two reads."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:
                return t, spent

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()


def reference_times(latencies: Sequence[float], starts: Sequence[float],
                    ends: Sequence[float], times: Sequence[float],
                    kernels: Sequence[float]) -> List[float]:
    """Per-call times in reference seconds: a call's wall time over the
    mean kernel time sampled from the last sample before it started to the
    first after it ended, in thousands.  One reference millisecond is one
    run of the kernel, so a machine that runs everything at half speed
    gives the same reference times.  ``times`` are the sample times in
    increasing order, on the clock of ``starts`` and ``ends``."""
    out = []
    for dt, s, e in zip(latencies, starts, ends):
        lo = max(bisect.bisect_right(times, s) - 1, 0)
        hi = bisect.bisect_left(times, e)
        ks = kernels[lo:hi + 1]
        out.append(dt / (sum(ks) / len(ks)) * 1e-3)
    return out


class Tracer:
    """In-memory span recorder.

    A span is (parent, name, start, end, outcome); its id is its index, so
    ids grow in start order.  Columns are arrays to keep a few hundred
    thousand spans small.  For engine spans the first argument (the point)
    is kept as well, so first and repeat calls on a point can be told apart.
    """

    def __init__(self, undecidable: type = ()):
        self.names: List[str] = []
        self.parent = array("l")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("b")
        self.arg = array("l")
        self.args: list = []
        self._arg_index: Dict[int, int] = {}
        self._stack = [-1]
        self._undecidable = undecidable

    def __len__(self) -> int:
        return len(self.start)

    def _arg_key(self, obj) -> int:
        # keyed by identity; self.args keeps the object alive, so an id is
        # never reused within one run
        k = self._arg_index.get(id(obj))
        if k is None:
            k = self._arg_index[id(obj)] = len(self.args)
            self.args.append(obj)
        return k

    def wrap(self, name: str, fn: Callable, keep_arg: bool = False) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter_ns
        parent, names, start, end = self.parent, self.name, self.start, self.end
        outcome, arg = self.outcome, self.arg
        undecidable = self._undecidable

        @functools.wraps(fn)
        def spanned(*a, **kw):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0)
            outcome.append(OK)
            arg.append(self._arg_key(a[0]) if keep_arg and a else -1)
            stack.append(sid)
            start.append(clock())
            try:
                r = fn(*a, **kw)
            except BaseException as e:
                end[sid] = clock()
                outcome[sid] = UNDECIDABLE if isinstance(e, undecidable) else RAISED
                raise
            finally:
                stack.pop()
            end[sid] = clock()
            if getattr(r, "status", None) == "unknown":
                outcome[sid] = UNKNOWN
            return r

        return spanned

    def instrument(self, layer: str, module: types.ModuleType) -> List[str]:
        """Replace every public function defined in ``module`` by a spanned
        wrapper; calls through the module attribute (from other modules or
        from the module's own globals) then record spans."""
        done = []
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or isinstance(value, type):
                continue
            is_fn = isinstance(value, types.FunctionType) or hasattr(value, "cache_info")
            if not is_fn or getattr(value, "__module__", None) != module.__name__:
                continue
            name = "%s.%s" % (layer, attr)
            setattr(module, attr, self.wrap(name, value, keep_arg=layer == "engine"))
            done.append(name)
        return done

    def write_tsv(self, path: str) -> None:
        """One line per span: id, parent, name, start_ns, end_ns, outcome."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\toutcome\n")
            for i in range(len(self.start)):
                f.write("%d\t%d\t%s\t%d\t%d\t%d\n" % (
                    i, self.parent[i], self.names[self.name[i]],
                    self.start[i], self.end[i], self.outcome[i]))


def self_times(parent: Sequence[int], start: Sequence[int],
               end: Sequence[int]) -> List[int]:
    """Each span's duration minus the part of its interval that the union
    of its child spans covers (children clipped to the parent)."""
    kids: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        covered, run_s, run_e = 0, None, None
        for c in sorted(children, key=lambda c: start[c]):
            s, e = max(start[c], lo), min(end[c], hi)
            if e <= s:
                continue
            if run_e is not None and s <= run_e:
                run_e = max(run_e, e)
                continue
            if run_e is not None:
                covered += run_e - run_s
            run_s, run_e = s, e
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


def _p(values, p, scale):
    return percentile(values, p) * scale if values else 0.0


def span_metrics(tr: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans.  Layers a workload never
    calls report 0."""
    layer_of = [n.split(".", 1)[0] for n in tr.names]
    layers = [layer_of[k] for k in tr.name]
    fn = [tr.names[k] for k in tr.name]
    dur = [e - s for s, e in zip(tr.start, tr.end)]
    own = self_times(tr.parent, tr.start, tr.end)

    # a call into a layer from outside it; a layer's calls to its own
    # public functions are spans too, but not counted again
    entry = [p < 0 or layers[p] != lay for lay, p in zip(layers, tr.parent)]
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, int] = defaultdict(int)
    for lay, t, e in zip(layers, own, entry):
        calls[lay] += e
        busy[lay] += t
    total = sum(d for d, p in zip(dur, tr.parent) if p < 0) or 1

    # engine: first call on a point pays the rule fixpoint, later ones are
    # lookups; points are compared by equality, as the engine's caches do
    canon: Dict[object, int] = {}
    seen = set()
    first, repeat = [], []
    for i, lay in enumerate(layers):
        if lay != "engine" or not entry[i]:
            continue
        key = canon.setdefault(tr.args[tr.arg[i]], len(canon))
        if key in seen:
            repeat.append(dur[i])
        else:
            seen.add(key)
            first.append(dur[i])
    ss = [o for f, o in zip(fn, tr.outcome) if f == "engine.semistable"]
    reg = [o for lay, o in zip(layers, tr.outcome) if lay == "regions"]
    union = [d for f, d in zip(fn, dur) if f == "regions.in_cells_union"]
    subreps = [d for f, d in zip(fn, dur) if f == "ff.all_subreps"]
    compare = [d for f, d in zip(fn, dur) if f == "ff.semistable_in_heart"]

    out = {
        "engine.calls": float(calls["engine"]),
        "engine.points": float(len(canon)),
        "engine.calls_per_point": calls["engine"] / len(canon) if canon else 0.0,
        "engine.first_call_ms.p50": _p(first, 50, 1e-6),
        "engine.repeat_call_us.p50": _p(repeat, 50, 1e-3),
        "engine.unknown_share": ss.count(UNKNOWN) / len(ss) if ss else 0.0,
        "regions.calls": float(calls["regions"]),
        "regions.undecidable_share": reg.count(UNDECIDABLE) / len(reg) if reg else 0.0,
        "regions.union_ms.p50": _p(union, 50, 1e-6),
        "regions.union_ms.p99": _p(union, 99, 1e-6),
        "ff.calls": float(calls["ff"]),
        "ff.subreps_s": sum(subreps) * 1e-9,
        "ff.compare_us.p50": _p(compare, 50, 1e-3),
    }
    for lay in SPAN_LAYERS:
        out["%s.span_self_share" % lay] = busy[lay] / total
    return out


def bucket_of(filename: str) -> str:
    """The PROFILE_BUCKETS entry a profiled function's file belongs to."""
    head, base = os.path.split(filename)
    mod = base[:-3] if base.endswith(".py") else None
    if mod == "fractions" and os.path.basename(head) != "stabq":
        return "fractions"
    if os.path.basename(head) == "stabq" and mod in PROFILE_BUCKETS:
        return mod
    return "other"


def profile_metrics(entries: Iterable) -> Dict[str, float]:
    """Self-time shares and call counts by bucket, from pstats entries
    ``((file, line, func), (primitive, calls, tottime, cumtime, callers))``.
    Builtins and generated dataclass methods (file "~" or "<string>") go to
    "other"."""
    tt: Dict[str, float] = defaultdict(float)
    nc: Dict[str, int] = defaultdict(int)
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in entries:
        b = bucket_of(filename)
        tt[b] += tottime
        nc[b] += ncalls
    total = sum(tt.values()) or 1.0
    out = {}
    for b in PROFILE_BUCKETS:
        out["%s.self_share" % b] = tt[b] / total
    for b in PROFILE_CALLS:
        out["%s.calls" % b] = float(nc[b])
    return out
