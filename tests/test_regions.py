"""Region membership predicates: cells, composites, the two Theta variants,
and the registered inequality systems."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import _reference
from stabq import engine, harness, regions
from stabq.catalog import ExcObject
from stabq.exact import ExactError, Gaussian
from stabq.triples import (
    FAMILY_IDS,
    extreme_shift,
    family_triple,
    mutate_triple,
    shift_set_members,
)


def _std():
    return engine.standard_heart_point(
        (Gaussian.of(-1, 1), Gaussian.of(0, 1), Gaussian.of(1, 1))
    )


def test_standard_heart_classification():
    got = regions.classify(_std())
    assert ("cell", "F8", 0) in got
    assert ("region", "MidM") in got
    assert ("region", "St") in got


def test_classify_consistent_with_membership():
    rng = random.Random(21)
    for _ in range(10):
        pt = harness.sample_sigma(
            (rng.choice(list(FAMILY_IDS)), rng.randint(-1, 1)), rng=rng, bound=16
        )
        got = regions.classify(pt, window=4)
        for tag in got:
            if tag[0] == "cell":
                assert regions.in_named_cell(pt, tag[1], tag[2], 4)
            else:
                assert regions.in_composite(pt, tag[1], window=4)


def test_cells_imply_stability_region():
    rng = random.Random(7)
    hits = 0
    for _ in range(30):
        pt = harness.sample_sigma(
            (rng.choice(list(FAMILY_IDS)), rng.randint(-1, 1)), rng=rng, bound=16
        )
        got = regions.classify(pt, window=4)
        if any(tag[0] == "cell" for tag in got):
            hits += 1
            assert ("region", "St") in got
    assert hits > 0


def test_Ta_Tb_disjoint():
    rng = random.Random(13)
    seen = {"Ta": 0, "Tb": 0}
    for _ in range(60):
        pt = harness.sample_sigma(
            (rng.choice(list(FAMILY_IDS)), rng.randint(-1, 1)), rng=rng, bound=16
        )
        try:
            ta = regions.in_composite(pt, "Ta", window=4)
            tb = regions.in_composite(pt, "Tb", window=4)
        except regions.Undecidable:
            continue
        assert not (ta and tb)
        seen["Ta"] += ta
        seen["Tb"] += tb
    assert seen["Ta"] > 0 and seen["Tb"] > 0


def test_theta_iff_shifted_theta_prime():
    rng = random.Random(3)
    decided = 0
    for _ in range(40):
        fid = rng.choice(list(FAMILY_IDS))
        pt = harness.sample_sigma((fid, rng.randint(-1, 1)), rng=rng, bound=16)
        t = family_triple(fid, pt.m)
        try:
            lhs = regions.in_theta(pt, t)
            rhs = any(
                regions.in_theta_prime(pt, t.shifted(p))
                for p in shift_set_members(t, depth=6)
            )
        except regions.Undecidable:
            continue
        assert lhs == rhs, (fid, pt)
        decided += 1
    assert decided > 0


def test_anchor_triple_in_theta_prime():
    pt = _std()
    t = family_triple("F8", 0)
    assert regions.in_theta_prime(pt, t.shifted(pt.shift))
    assert regions.in_theta(pt, t)


def test_intersection_systems_evaluate():
    rng = random.Random(17)
    kw_by_id = {
        "(_,_,X)0": dict(kind="a", m=0),
        "(X,_,_)0": dict(kind="b", m=0),
        "T12Zcap(E_1)": dict(m=0),
        "T43Zcap(E_1)": dict(m=0),
        "middle M cap left M'": dict(p=0),
        "middle M cap left M": dict(p=0),
        "middle M cap left right M": dict(p=0),
        "middle M' cap left M": dict(p=0),
        "middle M' cap left M'": dict(p=0),
        "middle M' cap left right middle M": dict(p=0),
        "Theta_E n=2 3": dict(fid="F8", m=0),
        "Theta_E n=2 6": dict(fid="F8", m=0),
    }
    assert set(kw_by_id) == set(regions.SYSTEM_IDS)
    for _ in range(5):
        pt = harness.sample_sigma(
            (rng.choice(list(FAMILY_IDS)), 0), rng=rng, bound=16
        )
        for sys_id in regions.SYSTEM_IDS:
            try:
                got = regions.in_intersection_system(pt, sys_id, **kw_by_id[sys_id])
            except regions.Undecidable:
                continue
            assert got in (True, False)
    with pytest.raises(ValueError):
        regions.in_intersection_system(_std(), "no-such-system")


def test_undecidable_is_soft_error():
    assert issubclass(regions.Undecidable, ValueError)
    # classify must swallow undecidability rather than raise
    rng = random.Random(29)
    for _ in range(10):
        pt = harness.sample_sigma(
            (rng.choice(list(FAMILY_IDS)), rng.randint(-1, 1)), rng=rng, bound=16
        )
        regions.classify(pt, window=4)


def _widened_tail_point():
    # the only (b^j, b^{j+1}, M') cells of this point sit around j = -20
    F = Fraction
    return engine.StabilityPoint(
        "F8",
        2,
        (0, 0, -1),
        (
            Gaussian.of(F(-26, 5), F(29, 21)),
            Gaussian.of(F(-7, 12), F(3, 10)),
            Gaussian.of(F(-12, 25), F(28, 25)),
        ),
    )


def test_union_membership_beyond_the_scan_block():
    # the finite block scan misses the point's RightMp cells, the tail
    # certificate triggers the widened rescan, and the union still decides
    # True
    pt = _widened_tail_point()
    hit, _ = regions.scan_cells(pt, regions.COMPOSITES["RightMp"])
    assert not hit
    assert regions.in_composite(pt, "RightMp") is True
    # while the a-side tails are certified empty
    assert regions.in_composite(pt, "Ta") is False


def _fresh(pt):
    """An equal point with no analysis yet."""
    return engine.StabilityPoint.from_json(pt.to_json())


def _one_at_a_time(pt, window):
    """classify's output rebuilt from the public predicates, each called on
    its own."""
    out = []
    for fid in FAMILY_IDS:
        for m in range(pt.m - window, pt.m + window + 1):
            try:
                if regions.in_named_cell(pt, fid, m, window):
                    out.append(("cell", fid, m))
            except regions.Undecidable:
                pass
    for name in regions.COMPOSITES:
        try:
            if regions.in_composite(pt, name, window):
                out.append(("region", name))
        except regions.Undecidable:
            pass
    return out


def test_classify_matches_public_predicates():
    """classify's shared cell table changes no verdict: its output is what
    a fresh equal point answers to the cell and composite predicates called
    one at a time, and the tail hom degrees are the five-probe computation
    they replace, on the sampled reference objects and on every chain
    object within 30 steps of the edge and M, M', shifted."""
    rng = random.Random(41)
    pts = [
        harness.sample_sigma(
            (rng.choice(list(FAMILY_IDS)), rng.randint(-2, 2)), rng=rng, bound=32
        )
        for _ in range(40)
    ] + [_widened_tail_point()]
    refs = set()
    for pt in pts:
        for window in (4, 8):
            assert regions.classify(pt, window) == _one_at_a_time(
                _fresh(pt), window
            ), (window, pt.to_json())
            refs.update(ref for ref, _ in regions._reference_objects(pt, window))
    assert ("region", "RightMp") in regions.classify(_widened_tail_point())

    for j_edge in range(-12, 13):
        near = [
            ExcObject(kind, j_edge + d, s)
            for kind in "ab" for d in range(-30, 31) for s in (-1, 0, 2)
        ] + [ExcObject(kind, 0, s) for kind in ("M", "Mp") for s in (-1, 0, 2)]
        for ref in refs.union(near):
            for kind in "ab":
                for direction in (1, -1):
                    got = regions._tail_degrees(kind, j_edge, direction, ref)
                    want = _reference.tail_degrees(kind, j_edge, direction, ref)
                    assert got == want, (kind, j_edge, direction, ref)


def test_classify_golden_digest():
    """classify's output on 100 sampled points of every family and the
    widened-tail point, at windows 4 and 8, hashed.  The constant was
    computed before the lookup path read each object's status and phase
    from one table and each family's block from one scan; any change to
    what classify answers, or in which order, changes it."""
    rng = random.Random("classify-digest")
    pts = [
        harness.sample_sigma(
            (FAMILY_IDS[i % 8], rng.randint(-2, 2)), rng=rng, bound=32
        )
        for i in range(100)
    ] + [_widened_tail_point()]
    h = hashlib.sha256()
    for pt in pts:
        for window in (4, 8):
            h.update(repr(regions.classify(pt, window)).encode())
    assert h.hexdigest() == (
        "2ffd54a14b733313fcbdc09ba8056fa9450375a5966527d956f5df2d5afc247d"
    )


def test_classify_decides_each_cell_once(monkeypatch):
    """Every cell classify reads is decided once per call, from the slot
    row (``_run_cells``), and no cell goes through the per-object path
    (``_phases``)."""
    decided = Counter()
    run_cells = regions._run_cells

    def counted(point, fid, ms, window):
        for m, v in run_cells(point, fid, ms, window):
            decided[fid, m, window] += 1
            yield m, v

    def per_object(*args):
        raise AssertionError("a cell read its objects one by one")

    monkeypatch.setattr(regions, "_run_cells", counted)
    monkeypatch.setattr(regions, "_phases", per_object)
    for pt in (_std(), _widened_tail_point()):
        decided.clear()
        regions.classify(pt)
        assert decided and max(decided.values()) == 1, decided.most_common(3)
        # each family's block is scanned once: every cell of it is read
        # once, by the direct cell scan, and never again by a composite
        block = Counter(k for k in decided.elements() if k[2] == regions.WINDOW)
        assert len(block) == len(FAMILY_IDS) * (2 * regions.WINDOW + 1)
        assert max(block.values()) == 1, block.most_common(3)
    # the widened rescan ran, and its cells too were decided once
    assert any(w == regions.WINDOW + regions.TAIL_EXT for _, _, w in decided)


def _lookup_points(sampled=175, total=210):
    """Sampled points of every family, every fifth turned a quarter and
    every seventh shifted globally, and standard-heart points."""
    rng = random.Random("lookup-reference")
    pts = []
    for i in range(sampled):
        pt = harness._sample_point(rng, FAMILY_IDS, -3, 3, 32)
        if i % 5 == 0:
            pt = engine.rotate_quarter(pt, 1)
        if i % 7 == 0:
            pt = engine.shift(pt, rng.choice((-2, -1, 1, 2)))
        pts.append(pt)
    while len(pts) < total:
        charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
        try:
            pts.append(engine.standard_heart_point(charges))
        except ValueError:
            pass
    return pts


def test_lookup_matches_the_two_call_path():
    """_phases reads each object's status and phase from one table entry;
    it answers exactly what the two engine calls per object answered, with
    the same phase representations and the same certified flag, on
    shifted and unshifted labels at windows 0, 4 and 8.  The table's two
    fields are semistable's status and conditional_phase, recomputed.

    Every reader of the analysis's slot state (semistable, lookup,
    phase_of, conditional_phase) agrees with the verdicts of a fresh
    fixpoint spelled out, ``_decide(p, w).verdicts()``, on every universe
    object, on chain objects beyond the window and on shifted labels: the
    same status, rules, witness and phase representation."""
    pts = _lookup_points()
    assert {p.family for p in pts} == set(FAMILY_IDS)
    statuses = Counter()
    witnesses = 0
    for pt in pts:
        for window in (0, 4, 8):
            universe = engine._universe(pt.m, window)
            spelled = _reference.spelled_verdicts(pt, window)
            far = [ExcObject(k, pt.m + d, 0) for k in ("a", "b")
                   for d in (-window - 1, -window - 6, window + 2, window + 7)]
            for xb in universe + far:
                status, ph = engine.lookup(pt, xb, window)
                statuses[status, ph is None] += 1
                v = spelled.get(xb, engine.UNKNOWN)
                witnesses += v.witness is not None
                assert status == v.status
                assert ph == engine.conditional_phase(pt, xb, window)
                want_ph = _reference.conditional_phase_uncached(pt, xb, window)
                assert repr(ph) == repr(want_ph)
                for x in (xb, xb.shifted(1), xb.shifted(-2)):
                    want = v
                    if v.status == "semistable" and x.shift:
                        want = engine.Verdict(
                            v.status, v.phase.plus(x.shift), v.witness, v.rules
                        )
                    got = engine.semistable(pt, x, window)
                    assert got == want and repr(got) == repr(want), (x, window)
                    if v.status == "semistable":
                        assert repr(engine.phase_of(pt, x, window)) == repr(want.phase)
                    else:
                        with pytest.raises(engine.UndecidedError):
                            engine.phase_of(pt, x, window)
            labels = [o.shifted(s) for o in universe for s in (0, 1, -2)]
            groups = [[x] for x in labels] + [
                labels[i:i + 3] for i in range(0, len(labels) - 2, 2)
            ]
            for objs in groups:
                got = regions._phases(pt, objs, window)
                want = _reference.two_call_phases(pt, objs, window)
                assert got == want and repr(got) == repr(want), (objs, window)
    # every kind of table entry was met
    assert set(statuses) == {
        ("semistable", False), ("unstable", True),
        ("unknown", False), ("unknown", True),
    }, statuses
    assert witnesses  # a big-gap witness was spelled


def test_row_cells_match_the_per_object_path():
    """classify decides its cells from the analysis's slot row, a run of
    indices at a time (``_run_cells``): every cell of the block at windows
    0, 4, 8 and 32 answers True, False or None (undecidable) as the same
    cell decided alone from the slot row (_reference.row_cell) and as the
    same cell read object by object on a fresh equal point
    (_reference.in_named_cell: one engine.lookup per label, then
    Phase.plus and Phase.cmp per inequality).  Runs that split the block
    answer as the whole block does.

    After classify, no analysis of the point holds a table entry for an
    object of the plan's universe: those live in the slot row, whose
    index arithmetic is the plan's slot map, as is the arithmetic of the
    cell slots over the block."""
    pts = _lookup_points(265, 300) + [_widened_tail_point()]
    assert {p.family for p in pts} == set(FAMILY_IDS)
    outcomes = Counter()
    for pt in pts:
        regions.classify(pt)
        for window, an in pt.analyses.items():
            plan = an.state.plan
            assert all(plan.index(xb, pt.m) is None for xb in an.table), window
        ref = _fresh(pt)
        for window in (0, 4, 8, 32):
            block = regions._block(pt, window)
            halves = (block[:window], block[window:])
            for fid in FAMILY_IDS:
                run = list(regions._run_cells(pt, fid, block, window))
                assert run == [c for ms in halves
                               for c in regions._run_cells(pt, fid, ms, window)]
                assert [m for m, _ in run] == list(block)
                for m, got in run:
                    assert got == _reference.row_cell(pt, fid, m, window)
                    want = _outcome(_reference.in_named_cell, ref, fid, m, window)
                    assert got == (None if want == "undecidable" else want), (
                        fid, m, window, pt.to_json())
                    outcomes[got] += 1
        with pytest.raises(ValueError, match="outside the block"):
            list(regions._run_cells(pt, "F1", range(pt.m, pt.m + 10), 8))
    assert set(outcomes) == {True, False, None}, outcomes
    for window in (0, 4, 8, 32):
        plan = engine._plan(window)
        slots = regions._cell_slots(window)
        for fid in FAMILY_IDS:
            for k in range(-window, window + 1):
                assert [s + step * k for s, step in slots[fid]] == [
                    plan.slot[o] for o in family_triple(fid, k).objs
                ], (fid, k, window)
        for dm in (-3, 0, 5):
            for xb in [ExcObject("M", 0, 0), ExcObject("Mp", 0, 0)] + [
                ExcObject(k, i, 0) for k in "ab"
                for i in range(dm - window - 3, dm + window + 5)
            ]:
                assert plan.index(xb, dm) == plan.slot.get(xb.translated(-dm))


def _outcome(predicate, *args):
    try:
        return predicate(*args)
    except regions.Undecidable:
        return "undecidable"


def test_clause_rows_match_the_hand_written_predicates():
    """in_named_cell, in_theta and in_theta_prime read clause rows through
    _evaluate, and answer True, False or Undecidable exactly as the
    hand-written predicates they replace (_reference).  The points are
    sampled on every family with m in -3..3.  The cells cover the whole
    block at windows 4 and 8 and three indices beyond it on either side,
    and Theta and Theta' the standard triples near the point's index and
    beyond the window, with their shift-set members.  Only objects beyond
    the window make a predicate undecidable on these points."""
    rng = random.Random("clause-rows")
    outcomes = Counter()
    for i in range(304):
        pt = harness.sample_sigma(
            (FAMILY_IDS[i % 8], rng.randint(-3, 3)), rng=rng, bound=32
        )
        for window in (4, 8):
            for fid in FAMILY_IDS:
                for m in range(pt.m - window - 3, pt.m + window + 4):
                    got = _outcome(regions.in_named_cell, pt, fid, m, window)
                    assert got == _outcome(
                        _reference.in_named_cell, pt, fid, m, window
                    ), (fid, m, window, pt.to_json())
                    outcomes["cell", got] += 1
        for fid in FAMILY_IDS:
            for dm in (-10, -9, -2, -1, 0, 1, 2, 9, 10):
                t = family_triple(fid, pt.m + dm)
                got = _outcome(regions.in_theta, pt, t)
                assert got == _outcome(_reference.in_theta, pt, t), (fid, dm)
                outcomes["theta", got] += 1
                for p in shift_set_members(t, 1):
                    ts = t.shifted(p)
                    got = _outcome(regions.in_theta_prime, pt, ts)
                    assert got == _outcome(_reference.in_theta_prime, pt, ts)
                    outcomes["theta'", got] += 1
    # every predicate met every outcome
    assert set(outcomes) == {
        (name, v) for name in ("cell", "theta", "theta'")
        for v in (True, False, "undecidable")
    }, outcomes


def test_undecided_cell_keeps_the_union_undecided(monkeypatch):
    """With no hit and certified tails, one undecidable cell leaves every
    union containing its family Undecidable, never False."""
    pt = _std()

    def cells(point, fid, ms, window):
        for m in ms:
            yield m, None if (fid, m) == ("F1", pt.m) else False

    monkeypatch.setattr(regions, "_run_cells", cells)
    monkeypatch.setattr(regions, "_tails_excluded", lambda *a: True)
    assert regions.scan_cells(pt, ("F1",)) == (False, True)
    for name, fids in regions.COMPOSITES.items():
        if "F1" in fids:
            with pytest.raises(regions.Undecidable):
                regions.in_composite(pt, name)
        else:
            assert regions.in_composite(pt, name) is False
    assert regions.classify(pt) == []


def test_classify_block_summaries_are_block_scans(monkeypatch):
    """The block summaries classify enters during its direct cell scan are
    the _scan of each family's block on a fresh table: (hit, undecided)
    stopping at the first hit, so an undecidable cell after a hit does not
    count."""
    pt = _std()
    stub = {("F1", pt.m): None, ("F2", pt.m - 1): True, ("F2", pt.m): None}

    def cells(point, fid, ms, window):
        for m in ms:
            yield m, stub.get((fid, m), False)

    def named_cell(point, fid, m, window=regions.WINDOW):
        # the public predicate that _one_at_a_time reads, on the same stub
        v = stub.get((fid, m), False)
        if v is None:
            raise regions.Undecidable("stub")
        return v

    tables = []
    union = regions._cells_union

    def spy(point, fids, window, cells):
        tables.append(cells)
        return union(point, fids, window, cells)

    monkeypatch.setattr(regions, "_run_cells", cells)
    monkeypatch.setattr(regions, "in_named_cell", named_cell)
    monkeypatch.setattr(regions, "_tails_excluded", lambda *a: True)
    monkeypatch.setattr(regions, "_cells_union", spy)
    w = regions.WINDOW
    assert regions.classify(pt) == _one_at_a_time(pt, w)
    assert ("cell", "F2", pt.m - 1) in regions.classify(pt)
    runs = (regions._block(pt, w),)
    summaries = {fid: tables[0][fid, w, runs] for fid in FAMILY_IDS}
    assert summaries["F1"] == (False, True)
    assert summaries["F2"] == (True, False)
    for fid in FAMILY_IDS:
        assert summaries[fid] == regions._scan(pt, (fid,), runs, w, {})


def test_union_false_certified_when_far_objects_dead():
    # both chains stop being semistable well inside the block; the hom
    # brackets against the anchors empty out the tails, so the unions are a
    # decided False rather than Undecidable
    pt = engine.StabilityPoint.from_json(
        {
            "anchor": {"family": "F7", "m": 1, "shift": [0, -1, -3]},
            "charges": [
                {"re": "-1/6", "im": "0"},
                {"re": "-11/12", "im": "7/11"},
                {"re": "-1/5", "im": "28/15"},
            ],
            "global_shift": 0,
        }
    )
    assert regions.in_composite(pt, "Ta") is False
    assert regions.in_composite(pt, "Tb") is False


def test_system_tables_well_formed():
    def check_ineqs(ineqs):
        for i, j, c in ineqs:
            assert {i, j} <= {0, 1, 2} and i != j and isinstance(c, int)

    for ineqs in regions._PATTERN_INEQS.values():
        check_ineqs(ineqs)
    assert set(regions._PATTERN_INEQS) == set(FAMILY_IDS)
    # every registered id has exactly one row
    assert regions.SYSTEM_IDS == tuple(regions._SYSTEMS)
    assert len(set(regions.SYSTEM_IDS)) == 12
    for sys_id, row in regions._SYSTEMS.items():
        if isinstance(row, str):
            kws = [dict(fid=fid, m=0) for fid in FAMILY_IDS]
        elif row[0] is None:
            kws = [dict(kind=kind, m=0) for kind in "ab"]
        else:
            kws = [{row[1]: 0}]
        for kw in kws:
            objs, clauses = regions._instance(sys_id, kw)
            assert len(objs) == 3
            for ineqs, ref in clauses:
                check_ineqs(ineqs)
                if ref is not None:
                    i, j, lo, k, c, sign = ref
                    assert {i, j, lo, k} <= {0, 1, 2} and i != j
                    assert isinstance(c, int) and sign in (-1, 1)
    # every system-backed suite names a registered system, by its keyword
    for sys_id, (_, key, _, _) in harness._SYSTEM_SUITES.items():
        assert sys_id in regions.SYSTEM_IDS
        assert regions._SYSTEMS[sys_id][1] == key
    assert set(harness._SYSTEM_SUITES) == {
        lid for lid, (checker, _) in harness._SUITES.items() if checker is None
    }


# Points where the refinement clause is the only clause of its system whose
# inequalities hold, so the window-argument refinement alone decides the
# verdict.  Found by seeded search over the suites' anchor pools.
_REFINEMENT_CASES = [
    ("middle M cap left M'", True, {
        "anchor": {"family": "F8", "m": 2, "shift": [0, 0, -1]},
        "charges": [{"re": "-5/11", "im": "5"}, {"re": "-5/6", "im": "26"},
                    {"re": "4", "im": "7/2"}]}),
    ("middle M cap left M'", False, {
        "anchor": {"family": "F8", "m": 0, "shift": [0, 0, -1]},
        "charges": [{"re": "-6/5", "im": "12/23"}, {"re": "1", "im": "23/2"},
                    {"re": "2/9", "im": "6/5"}]}),
    ("middle M cap left M", True, {
        "anchor": {"family": "F8", "m": 0, "shift": [0, 0, -1]},
        "charges": [{"re": "29/18", "im": "1"}, {"re": "5/2", "im": "3/5"},
                    {"re": "27/8", "im": "5/17"}]}),
    ("middle M cap left M", False, {
        "anchor": {"family": "F8", "m": -2, "shift": [0, 0, -1]},
        "charges": [{"re": "-2", "im": "1"}, {"re": "-7/4", "im": "21/8"},
                    {"re": "13/6", "im": "1/6"}]}),
    ("T43Zcap(E_1)", True, {
        "anchor": {"family": "F6", "m": -2, "shift": [0, -1, -1]},
        "charges": [{"re": "-27/7", "im": "4/3"}, {"re": "5/8", "im": "2/3"},
                    {"re": "0", "im": "2/5"}]}),
    ("T43Zcap(E_1)", False, {
        "anchor": {"family": "F6", "m": 1, "shift": [0, -1, -1]},
        "charges": [{"re": "-19/5", "im": "0"}, {"re": "29/2", "im": "4"},
                    {"re": "-2", "im": "8/13"}]}),
    ("T12Zcap(E_1)", True, {
        "anchor": {"family": "F3", "m": 1, "shift": [0, -1, -1]},
        "charges": [{"re": "-29/22", "im": "31/16"}, {"re": "5", "im": "1"},
                    {"re": "7/4", "im": "5/9"}]}),
    ("T12Zcap(E_1)", False, {
        "anchor": {"family": "F3", "m": 1, "shift": [0, -1, -1]},
        "charges": [{"re": "1/11", "im": "8"}, {"re": "1", "im": "8"},
                    {"re": "9/16", "im": "24"}]}),
]


@pytest.mark.parametrize("sys_id, expected, point", _REFINEMENT_CASES)
def test_refinement_decides_the_verdict(sys_id, expected, point):
    pt = engine.StabilityPoint.from_json(dict(point, global_shift=0))
    key = harness._SYSTEM_SUITES[sys_id][1]
    objs, clauses = regions._instance(sys_id, {key: pt.m})
    ph, certified = regions._phases(pt, objs)
    assert certified
    assert [regions._holds(ph, ineqs) for ineqs, _ in clauses] == [
        ref is not None for _, ref in clauses
    ]
    _check_system_and_definition(pt, sys_id, expected)


def test_left_right_m_fourth_clause_decides_without_refinement():
    """"middle M cap left right M" on an F8 anchor with phi(a^m) = phi(M),
    the only place its fourth clause is reached: the first three clauses
    fail and the fourth holds alone.  That clause is the refined clause of
    "middle M cap left M'" with its refinement dropped.  The first three
    fail only when phi(a^m) = phi(M); there Z(a^m) - Z(b^{m+1}) is a
    positive combination of charges at phases phi(a^m) and
    phi(b^{m+1}) - 1, so its window argument lies strictly between
    phi(b^{m+1}) - 1 and phi(a^m) = phi(M), and the refinement "< phi(M)"
    could never fail."""
    sys_id = "middle M cap left right M"
    pt = engine.StabilityPoint.from_json({
        "anchor": {"family": "F8", "m": 1, "shift": [0, 0, -1]},
        "charges": [{"re": "1/15", "im": "3"}, {"re": "1/9", "im": "5"},
                    {"re": "1/2", "im": "2"}],
        "global_shift": 0,
    })
    objs, clauses = regions._instance(sys_id, {"p": pt.m})
    ph, certified = regions._phases(pt, objs)
    assert certified
    assert [regions._holds(ph, ineqs) for ineqs, _ in clauses] == [
        False, False, False, True
    ]
    assert all(ref is None for _, ref in clauses)
    assert ph[0].same_as(ph[1])
    _check_system_and_definition(pt, sys_id, True)


def _check_system_and_definition(pt, sys_id, expected):
    family, key, terms, _ = harness._SYSTEM_SUITES[sys_id]
    n = pt.m
    assert regions.in_intersection_system(pt, sys_id, **{key: n}) is expected
    # the definitional side: Theta at n and the union of the terms, with
    # every second index the suite may draw
    union = any(
        any(
            regions.in_theta(pt, family_triple(family, n + term * k))
            for k in (1, 2, 3)
        )
        if isinstance(term, int)
        else regions.in_composite(pt, term)
        for term in terms
    )
    assert (regions.in_theta(pt, family_triple(family, n)) and union) is expected


def test_theta_e_right_system_is_theta_of_triple_and_its_right_mutation():
    """Dual path for "Theta_E n=2 3": the system's one clause against
    Theta(t) and Theta of the first right mutation of t, for every family's
    triple at the point's m, at its extreme shift."""
    _check_mutation_system("Theta_E n=2 3", "R0")


def test_theta_e_left_system_is_theta_of_triple_and_its_left_mutation():
    """Dual path for "Theta_E n=2 6": the system's one clause against
    Theta(t) and Theta of the second left mutation of t, as on the right."""
    _check_mutation_system("Theta_E n=2 6", "L1")


def _check_mutation_system(sys_id, op):
    rng = random.Random(5)
    soft = (regions.Undecidable, engine.UndecidedError, ExactError)
    decided = {True: 0, False: 0}
    for _ in range(400):
        pt = harness._sample_point(rng, FAMILY_IDS)
        for fid in FAMILY_IDS:
            t = family_triple(fid, pt.m)
            t = t.shifted(extreme_shift(t))
            try:
                got = regions.in_intersection_system(
                    pt, sys_id, fid=fid, m=pt.m
                )
                want = regions.in_theta(pt, t) and regions.in_theta(
                    pt, mutate_triple(t, op)
                )
            except soft:
                continue
            assert got == want, (fid, pt.to_json())
            decided[got] += 1
    assert sum(decided.values()) >= 3000 and min(decided.values()) > 0
