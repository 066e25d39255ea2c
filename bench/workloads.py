"""The benchmark's workloads: how each makes its inputs from the seed, the
call it times, and the checks on that call's output.

Each workload is a closed loop with one client: call i starts when call
i - 1 has returned.  Every call is independent of the others' outputs.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter, defaultdict

# Composites the four-piece decomposition (Ta, MidMp, MidM, Tb) is made of.
DECOMPOSITION = ("Ta", "MidMp", "MidM", "Tb")


class Tally:
    """Outcome counters of one run, plus a digest of the outputs of the
    first ``digest_calls`` calls (the same inputs on every commit)."""

    def __init__(self, digest_calls: int):
        self.attempted = 0
        self.decided = 0
        self.failed = 0
        self.failures: list = []
        self.counters: dict = defaultdict(Counter)
        self.digest_calls = digest_calls
        self._digest = hashlib.sha256()

    def fail(self, items: int, detail: str) -> None:
        self.failed += items
        if len(self.failures) < 5:
            self.failures.append(detail)

    def record(self, i: int, text: str) -> None:
        if i < self.digest_calls:
            self._digest.update(text.encode())
            self._digest.update(b"\n")

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted,
            "decided": self.decided,
            "failed": self.failed,
            "failures": self.failures,
            "counters": {k: dict(v) for k, v in sorted(self.counters.items())},
            "digest": self.digest(),
            "digest_calls": self.digest_calls,
        }


class LemmaSuite:
    """``harness.verify_lemma`` on one sample per call, cycling through
    ``LEMMA_IDS``; a run stops only after a whole cycle, so every run has
    the same lemma mix.  The path of ``stab verify all``."""

    def __init__(self, seed: int, stabq):
        self.harness = stabq.harness
        self.ids = stabq.harness.LEMMA_IDS
        self.seed = seed
        self.group = len(self.ids)
        self.items_per_call = 1
        self.digest_calls = 20 * self.group
        self.min_calls = self.digest_calls
        self.trace_calls = 20 * self.group
        self.profile_calls = 8 * self.group

    def prepare(self, i: int) -> None:
        pass

    def call(self, i: int):
        # verify_lemma seeds its sampler from (lemma id, seed), so a fresh
        # seed per cycle gives a fresh sample of every lemma
        lid = self.ids[i % self.group]
        return self.harness.verify_lemma(lid, 1, seed=self.seed * 1_000_000 + i // self.group)

    def check(self, i: int, rep, tally: Tally) -> None:
        lid = self.ids[i % self.group]
        c = tally.counters[lid]
        if rep.lemma_id != lid or rep.attempted != 1 or rep.decided + rep.unknown != 1:
            tally.fail(1, "%s: inconsistent report %r" % (lid, rep.to_json()))
            return
        tally.decided += rep.decided
        c["decided"] += rep.decided
        c["unknown"] += rep.unknown
        c["mismatch"] += len(rep.mismatches)
        if rep.mismatches:
            tally.fail(1, "%s: %s" % (lid, rep.mismatches[0]["detail"]))
        tally.record(i, "%s %d %d %d" % (lid, rep.decided, rep.unknown, len(rep.mismatches)))


class HeartOracle:
    """``harness.oracle_agreement`` on standard-heart points: engine
    verdicts against brute-force subrepresentation search, the check of
    criterion 6 in calls of 20 points.  Each call also rebuilds the
    oracle's subrepresentation tables with ``ff.all_subreps``, about a
    fifth of its time.  Calls this short give a run 25 to 30 calls for its
    latency percentiles; calls of 50 points gave no steadier figures."""

    CHUNK = 20

    def __init__(self, seed: int, stabq):
        self.harness = stabq.harness
        self.seed = seed
        self.group = 1
        self.items_per_call = self.CHUNK
        self.digest_calls = 20
        self.min_calls = self.digest_calls
        self.trace_calls = 10
        self.profile_calls = 10

    def prepare(self, i: int) -> None:
        pass

    def call(self, i: int):
        return self.harness.oracle_agreement(self.CHUNK, seed=self.seed * 1_000_000 + i)

    def check(self, i: int, rep, tally: Tally) -> None:
        c = tally.counters["oracle"]
        if rep.attempted != self.CHUNK or rep.decided + rep.unknown != self.CHUNK:
            tally.fail(self.CHUNK, "oracle: inconsistent report %r" % (
                {k: v for k, v in rep.to_json().items() if k != "mismatches"},))
            return
        tally.decided += rep.decided
        c["decided"] += rep.decided
        c["unknown"] += rep.unknown
        c["mismatch"] += len(rep.mismatches)
        bad = {repr(m["point"]) for m in rep.mismatches}
        if bad:
            tally.fail(len(bad), "oracle: %s" % rep.mismatches[0]["detail"])
        tally.record(i, "%d %d %s" % (rep.decided, rep.unknown,
                                      sorted(m["detail"] for m in rep.mismatches)))


def classify_problems(out, composites) -> list:
    """What is wrong with one ``regions.classify`` output: Ta and Tb both
    named, or a cell listed without every composite containing its family."""
    problems = []
    named = {e[1] for e in out if e[0] == "region"}
    if "Ta" in named and "Tb" in named:
        problems.append("both Ta and Tb")
    for e in out:
        if e[0] != "cell":
            continue
        for name, fids in composites.items():
            if e[1] in fids and name not in named:
                problems.append("cell %s@%d listed without region %s" % (e[1], e[2], name))
    return problems


class Classify:
    """``regions.classify`` on points of all eight families with m in
    [-2, 2] and charge bound 32, made by ``harness.sample_sigma``; the path
    of ``stab classify``."""

    BATCH = 64

    def __init__(self, seed: int, stabq):
        self.harness = stabq.harness
        self.regions = stabq.regions
        self.families = stabq.triples.FAMILY_IDS
        self.rng = random.Random(repr(("classify", seed)))
        self.points: list = []
        self.group = 1
        self.items_per_call = 1
        # p99 needs ten calls beyond it
        self.min_calls = 1000
        self.digest_calls = 300
        self.trace_calls = 200
        self.profile_calls = 40
        self.prepare(0)

    def prepare(self, i: int) -> None:
        # inputs are made in batches between timed calls, in seed order
        while len(self.points) <= i:
            for _ in range(self.BATCH):
                fid = self.rng.choice(self.families)
                m = self.rng.randint(-2, 2)
                self.points.append(
                    self.harness.sample_sigma((fid, m), rng=self.rng, bound=32))

    def call(self, i: int):
        return self.regions.classify(self.points[i])

    def check(self, i: int, out, tally: Tally) -> None:
        c = tally.counters["classify"]
        problems = classify_problems(out, self.regions.COMPOSITES)
        if problems:
            tally.fail(1, "classify %s: %s" % (self.points[i].to_json(), problems[0]))
        named = [e[1] for e in out if e[0] == "region"]
        if any(n in DECOMPOSITION for n in named):
            tally.decided += 1
            c["decided"] += 1
        else:
            c["undecided"] += 1
        for n in named:
            c["region:" + n] += 1
        c["cells"] += len(out) - len(named)
        tally.record(i, repr(out))


WORKLOADS = {
    "lemma-suite": LemmaSuite,
    "heart-oracle": HeartOracle,
    "classify": Classify,
}
