"""Tests of the benchmark's own logic: the percentile rule, reference time,
span self time, the cProfile attribution, the output checks on planted bad
outputs, and that BENCHMARK.json names exactly the metrics the benchmark
prints.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import Classify, HeartOracle, LemmaSuite, Tally, classify_problems  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1000, 0, -1))
        self.assertEqual(measure.percentile(values, 99), 990)
        self.assertEqual(measure.percentile(values, 50), 500)
        self.assertEqual(measure.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(measure.percentile([7.5], 99), 7.5)
        self.assertEqual(measure.percentile([1, 2, 3], 100), 3)

    def test_ten_beyond_p99_needs_a_thousand(self):
        self.assertEqual(measure.beyond(99, 1000), 10)
        self.assertEqual(measure.beyond(99, 999), 9)
        values = list(range(1000))
        p = measure.percentile(values, 99)
        self.assertEqual(sum(v > p for v in values), measure.beyond(99, 1000))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            measure.percentile([], 50)
        with self.assertRaises(ValueError):
            measure.percentile([1], 0)


class ReferenceTime(unittest.TestCase):
    def test_calls_are_scaled_by_the_samples_around_and_inside_them(self):
        # samples at t = 0, 1, 2, 3 of 1, 3, 2 and 4 ms.  Call 0 (0.2-0.4)
        # lies between the first two samples; call 1 (1.5-3.5) spans the
        # samples at 2 and 3 and has no sample after it
        times, kernels = [0.0, 1.0, 2.0, 3.0], [0.001, 0.003, 0.002, 0.004]
        ref = measure.reference_times([0.004, 0.018], [0.2, 1.5], [0.4, 3.5],
                                      times, kernels)
        self.assertAlmostEqual(ref[0], 0.004 / 0.002 * 1e-3)
        self.assertAlmostEqual(ref[1], 0.018 / 0.003 * 1e-3)

    def test_a_slower_machine_gives_the_same_reference_time(self):
        args = ([0.3, 0.1], [0.5, 1.5], [0.8, 1.6], [0.0, 1.0, 2.0])
        fast = measure.reference_times(*args, [0.001, 0.001, 0.001])
        slow = measure.reference_times([0.6, 0.2], *args[1:], [0.002, 0.002, 0.002])
        for f, s in zip(fast, slow):
            self.assertAlmostEqual(f, s)

    def test_sampler_time_is_taken_out_of_the_calls(self):
        class Slow:
            group, items_per_call, min_calls = 1, 1, 0

            def prepare(self, i):
                pass

            def call(self, i):
                t = time.perf_counter() + 0.25
                while time.perf_counter() < t:
                    pass

            def check(self, i, out, tally):
                pass

        calls = worker.run_calls(Slow(), Tally(0), 2, 0.0)
        speed = calls.speed
        # samples on entry, on exit and about every 0.1 s in between
        self.assertGreaterEqual(len(speed.kernels), 5)
        self.assertEqual(speed.times, sorted(speed.times))
        wall = sum(e - s for s, e in zip(calls.starts, calls.ends))
        self.assertGreater(wall, sum(calls.latencies_s))
        self.assertEqual(len(calls.reference_s()), 2)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_kernel_result_is_checked(self):
        self.assertEqual(measure.calibration_kernel(), measure._CAL_DET)
        self.assertGreater(measure.kernel_time(1), 0)


class SelfTime(unittest.TestCase):
    def test_children_union_is_clipped_and_merged(self):
        # 0: [0, 100] with children 1: [10, 30], 2: [20, 50] (overlapping),
        # 3: [90, 120] (ends after its parent); 4: [12, 15] inside 1
        parent = [-1, 0, 0, 0, 1]
        start = [0, 10, 20, 90, 12]
        end = [100, 30, 50, 120, 15]
        own = measure.self_times(parent, start, end)
        self.assertEqual(own, [100 - 40 - 10, 20 - 3, 30, 30, 3])

    def test_leaf_and_empty(self):
        self.assertEqual(measure.self_times([-1], [5], [9]), [4])
        self.assertEqual(measure.self_times([], [], []), [])


class Spans(unittest.TestCase):
    def test_nesting_outcomes_and_first_calls(self):
        class Undecidable(ValueError):
            pass

        class V:
            def __init__(self, status):
                self.status = status

        tr = measure.Tracer(undecidable=Undecidable)
        semistable = tr.wrap("engine.semistable", lambda pt, x: V("unknown" if x else "semistable"), keep_arg=True)

        def member(pt):
            semistable(pt, 0)
            semistable(pt, 1)
            raise Undecidable()

        member = tr.wrap("regions.in_cells_union", member)

        def item(pt):
            try:
                member(pt)
            except Undecidable:
                pass
            return semistable(pt, 0)

        item = tr.wrap("bench.item", item)
        a, b = ("point", 1), ("point", 2)
        item(a)
        item(b)
        item(tuple(["point", 2]))  # equal to b, another object
        self.assertEqual(len(tr), 15)
        self.assertEqual(list(tr.parent[:5]), [-1, 0, 1, 1, 0])
        self.assertEqual(list(tr.outcome[:5]), [0, 2, 0, 1, 0])
        m = measure.span_metrics(tr)
        self.assertEqual(m["engine.calls"], 9)
        # the second and third items use equal points: two points in all
        self.assertEqual(m["engine.points"], 2)
        self.assertEqual(m["engine.calls_per_point"], 4.5)
        self.assertAlmostEqual(m["engine.unknown_share"], 3 / 9)
        self.assertEqual(m["regions.undecidable_share"], 1.0)
        self.assertEqual(m["regions.calls"], 3)
        self.assertEqual(m["ff.calls"], 0)
        shares = sum(m["%s.span_self_share" % lay] for lay in measure.SPAN_LAYERS)
        self.assertLessEqual(shares, 1.0)

    def test_instrument_wraps_public_functions_only(self):
        import types

        mod = types.ModuleType("fake")
        exec("import os\ndef f(x):\n    return g(x)\ndef g(x):\n    return x\n"
             "def _h(x):\n    return x\nclass C:\n    pass\n", mod.__dict__)
        tr = measure.Tracer()
        self.assertEqual(tr.instrument("regions", mod), ["regions.f", "regions.g"])
        self.assertEqual(mod.f(3), 3)
        # the module's own call to g goes through its globals: a child span,
        # but not a second call into the layer
        self.assertEqual(list(tr.parent), [-1, 0])
        self.assertEqual(measure.span_metrics(tr)["regions.calls"], 1)


class ProfileAttribution(unittest.TestCase):
    def test_buckets_and_shares(self):
        entries = [
            (("/usr/lib/python3.11/fractions.py", 1, "_add"), (5, 5, 2.0, 2.0, {})),
            (("/x/src/stabq/engine.py", 1, "_decide"), (1, 1, 1.0, 9.0, {})),
            (("/x/src/stabq/exact.py", 1, "cmp"), (3, 4, 0.5, 0.5, {})),
            (("<string>", 2, "__hash__"), (7, 7, 0.25, 0.25, {})),
            (("~", 0, "<built-in method builtins.len>"), (9, 9, 0.25, 0.25, {})),
            (("/x/src/stabq/polyhedra.py", 1, "f"), (1, 1, 0.0, 0.0, {})),
        ]
        m = measure.profile_metrics(entries)
        self.assertAlmostEqual(m["fractions.self_share"], 0.5)
        self.assertAlmostEqual(m["engine.self_share"], 0.25)
        self.assertAlmostEqual(m["other.self_share"], 0.125)
        self.assertEqual(m["fractions.calls"], 5)
        self.assertEqual(m["exact.calls"], 4)
        total = sum(v for k, v in m.items() if k.endswith(".self_share"))
        self.assertAlmostEqual(total, 1.0)


class Stabq:
    """The real modules, for the output checks."""

    def __init__(self):
        from stabq import harness, regions, triples
        self.harness, self.regions, self.triples = harness, regions, triples


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.stabq = Stabq()

    def test_classify_planted_ta_tb_hit(self):
        comp = self.stabq.regions.COMPOSITES
        good = [("cell", "F1", 0), ("region", "Ta"), ("region", "LeftMp"),
                ("region", "SetZ"), ("region", "St")]
        self.assertEqual(classify_problems(good, comp), [])
        self.assertIn("both Ta and Tb", classify_problems(good + [("region", "Tb")], comp))
        missing = [e for e in good if e != ("region", "SetZ")]
        self.assertEqual(len(classify_problems(missing, comp)), 1)

    def test_classify_check_counts_a_failure(self):
        wl = Classify(0, self.stabq)
        tally = Tally(wl.digest_calls)
        wl.check(0, [("region", "Ta"), ("region", "Tb"), ("region", "St")], tally)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.decided, 1)

    def test_lemma_planted_mismatch(self):
        wl = LemmaSuite(0, self.stabq)
        rep = self.stabq.harness.VerificationReport(wl.ids[3], attempted=1, decided=1)
        tally = Tally(wl.digest_calls)
        wl.check(3, rep, tally)
        self.assertEqual(tally.failed, 0)
        rep.mismatches.append({"detail": "planted", "point": {}})
        wl.check(3 + wl.group, rep, tally)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.counters[wl.ids[3]]["mismatch"], 1)
        wl.check(4, rep, tally)  # a report for another lemma than asked
        self.assertEqual(tally.failed, 2)

    def test_oracle_planted_mismatch(self):
        wl = HeartOracle(0, self.stabq)
        n = wl.CHUNK
        rep = self.stabq.harness.VerificationReport("oracle-agreement", attempted=n, decided=n)
        rep.mismatches += [{"detail": "planted", "point": {"p": 1}},
                           {"detail": "planted", "point": {"p": 1}},
                           {"detail": "planted", "point": {"p": 2}}]
        tally = Tally(wl.digest_calls)
        wl.check(0, rep, tally)
        self.assertEqual(tally.failed, 2)  # mismatching points, not objects

    def test_raising_item_fails_and_the_run_goes_on(self):
        class Flaky:
            group, items_per_call, min_calls = 1, 1, 0

            def prepare(self, i):
                pass

            def call(self, i):
                if i == 1:
                    raise ZeroDivisionError("planted")
                return i

            def check(self, i, out, tally):
                tally.decided += 1

        tally = Tally(10)
        calls = worker.run_calls(Flaky(), tally, 3, 0.0)
        self.assertEqual(len(calls.latencies_s), 3)
        self.assertEqual(len(calls.reference_s()), 3)
        self.assertEqual((tally.attempted, tally.decided, tally.failed), (3, 2, 1))
        self.assertIn("ZeroDivisionError", tally.failures[0])


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_what_is_printed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        printed = set(measure.span_metrics(measure.Tracer()))
        printed |= set(measure.profile_metrics([]))
        printed.add("trace.overhead")
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(set(layer), printed)
        for name, unit in layer.items():
            self.assertEqual(run.unit_of(name), unit, name)
        from workloads import WORKLOADS
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
