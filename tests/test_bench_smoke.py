"""The benchmark's use of the package: every workload in ``bench/`` runs and
passes its own output checks, the names its tracer reads still exist, and
the benchmark's self-test passes.  The bench files are imported and run
as they are, without writing bytecode next to them."""

import importlib.util
import inspect
import os
import re
import subprocess
import sys
import types

import pytest

from stabq import engine, ff, harness, regions, triples

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, os.path.join(BENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


workloads = _load("workloads")
measure = _load("measure")

# what bench/worker.py hands a workload: the program's modules by name
_STABQ = types.SimpleNamespace(
    harness=harness, regions=regions, engine=engine, ff=ff, triples=triples
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_calls_pass_their_checks(name):
    wl = workloads.WORKLOADS[name](7, _STABQ)
    tally = workloads.Tally(wl.digest_calls)
    for i in range(2):
        wl.prepare(i)
        wl.check(i, wl.call(i), tally)
    assert tally.failed == 0, tally.failures
    assert tally.decided > 0


def test_traced_names_exist():
    """The tracer wraps the public functions of each span layer and picks
    spans out by name; the profiler buckets self time by module file."""
    import stabq

    src = os.path.dirname(stabq.__file__)
    for bucket in measure.PROFILE_BUCKETS:
        if bucket not in ("fractions", "other"):
            assert os.path.isfile(os.path.join(src, bucket + ".py")), bucket
    names = re.findall(r'f == "(\w+)\.(\w+)"', inspect.getsource(measure.span_metrics))
    assert names
    for layer, fn in names:
        assert layer in measure.SPAN_LAYERS and not fn.startswith("_"), (layer, fn)
        mod = importlib.import_module("stabq." + layer)
        value = getattr(mod, fn, None)
        assert inspect.isfunction(value) and value.__module__ == mod.__name__, (layer, fn)


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join(BENCH, "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
