"""Region membership predicates: cells, composites, the two Theta variants,
and the registered inequality systems."""

import gc
import hashlib
import random
import sys
import types
from collections import Counter
from fractions import Fraction

import pytest

import _reference
from stabq import engine, harness, regions
from stabq.catalog import ExcObject
from stabq.exact import ExactError, Gaussian, window_arg
from stabq.triples import (
    FAMILY_IDS,
    FAMILY_SHAPES,
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
    assert regions.scan_cells(pt, regions.COMPOSITES["RightMp"]) is False
    assert regions.in_composite(pt, "RightMp") is True
    # while the a-side tails are certified empty
    assert regions.in_composite(pt, "Ta") is False


def _tracked(roots, stop):
    """The GC-tracked objects reachable from roots, crossing no object
    whose id is in stop, and no type, module or function."""
    seen, out, todo = set(stop), [], list(roots)
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(
                o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        if gc.is_tracked(o):
            out.append(o)
        todo.extend(gc.get_referents(o))
    return out


def test_classified_points_keep_little_alive():
    """What a classified point's analyses keep alive is what later lookups
    and region tests read: on 240 sampled points classified at window 8,
    at most 30 GC-tracked objects per point on average after a collection
    (about 21; about 58 while each analysis kept its charges and a
    (rule, witness) tuple per decided slot).  Not counted: the shared plans, with their rows and tokens,
    ``engine._DEAD``, and the point's own charges and phases.  No rule is
    a per-slot tuple (each is a plan's token or a string), and a witness
    is kept only for a slot a big gap killed."""
    rng = random.Random("retention")
    pts = [harness._sample_point(rng, FAMILY_IDS) for _ in range(240)]
    for p in pts:
        regions.classify(p, 8)
    # a collection untracks the tuples and dicts that hold only untracked
    # values, which otherwise stay tracked until one happens to run
    gc.collect()
    plans = {id(an.plan): an.plan for p in pts for an in p.analyses.values()}
    shared = {id(o) for o in _tracked([*plans.values(), engine._DEAD], ())}
    kept = 0
    for p in pts:
        own = _tracked([p.anchor_phases, p.simple, p.charges], shared)
        kept += len(_tracked(p.analyses.values(), shared | set(map(id, own))))
        for an in p.analyses.values():
            assert all(isinstance(r, str) or id(r) in shared
                       for r in an.rule if r is not None)
            assert set(an.witness) == {
                s for s, r in enumerate(an.rule) if r == "big-gap"}
    assert kept / len(pts) <= 30, kept / len(pts)


def _ring_taker_point():
    # a criterion-8 sample whose MidMp tails at window 8 are not excluded:
    # its ring rescan misses, and both sides are excluded at window 32
    F = Fraction
    return engine.StabilityPoint(
        "F1",
        1,
        (0, -1, -2),
        (
            Gaussian.of(F(4, 17), F(5, 14)),
            Gaussian.of(F(-11, 3), 0),
            Gaussian.of(F(7, 2), F(5, 18)),
        ),
    )


def test_each_tail_exclusion_is_computed_once(monkeypatch):
    """The eleven composites share each analysis's tail exclusions: on
    400 sampled points, the widened-tail point and a point that reaches
    the exclusions of the widened window, classify and every composite
    called after it compute each family's exclusion on each side's far
    bounds, and each letter's far bounds on each side, at most once per
    analysis, the widened window's included."""
    calls, letters = Counter(), Counter()
    real, far = regions._tail_family_excluded, regions._far_phases

    def counted(point, fid, bounds, window):
        calls[id(point), window, id(bounds), fid] += 1
        return real(point, fid, bounds, window)

    def counted_far(point, window, hi, kind):
        letters[id(point), window, hi, kind] += 1
        return far(point, window, hi, kind)

    monkeypatch.setattr(regions, "_tail_family_excluded", counted)
    monkeypatch.setattr(regions, "_far_phases", counted_far)
    rng = random.Random("tails-once")
    pts = [harness._sample_point(rng, FAMILY_IDS) for _ in range(400)]
    pts += [_widened_tail_point(), _ring_taker_point()]
    for p in pts:
        regions.classify(p, 8)
        for name in regions.COMPOSITES:
            try:
                regions.in_composite(p, name)
            except regions.Undecidable:
                pass
    assert max(calls.values()) == 1 and max(letters.values()) == 1
    windows = Counter(w for _, w, _, _ in calls)
    assert windows[8] and windows[8 + regions.TAIL_EXT]


def test_classify_builds_no_object_once_the_plan_rows_exist(monkeypatch):
    """``classify`` reads the block cells, the far tails and the fixed
    objects M and M' by plan slot, so on points whose plan rows are
    already built (an equal copy of each is classified first; the rows
    are built on first use and shared by every point) it constructs no
    ``catalog.ExcObject``.  On 200 sampled points of every family, the
    widened-tail point and a point that reaches the exclusions of the
    widened window."""
    rng = random.Random("no-labels")
    pts = [harness.sample_sigma((rng.choice(FAMILY_IDS), rng.randint(-2, 2)),
                                rng=rng, bound=32) for _ in range(200)]
    pts += [_widened_tail_point(), _ring_taker_point()]
    for pt in pts:
        regions.classify(_fresh(pt))
    built = []
    init = ExcObject.__init__

    def counted(self, kind, m, shift):
        built.append((kind, m, shift))
        init(self, kind, m, shift)

    monkeypatch.setattr(ExcObject, "__init__", counted)
    for pt in pts:
        regions.classify(pt)
    assert built == []
    assert 8 + regions.TAIL_EXT in pts[-1].analyses
    ExcObject("a", 0, 0)  # the wrapper sees a construction
    assert built == [("a", 0, 0)]


def test_warm_brackets_make_no_comparison_call(monkeypatch):
    """Once an equal copy of each point is classified, ``classify`` folds
    its hom brackets (``engine._bracket``) on integer parts and inline
    cross products: the fold calls neither ``engine.cmp_shifted`` nor
    ``Gaussian.cross``.  A call per decided slot costs about 15% of a
    warm ``classify``.  Each wrapper records its caller's code object; the
    rest of the engine still calls ``cmp_shifted``, so the wrapper is seen
    to work.  The points of the no-object test."""
    rng = random.Random("no-labels")
    pts = [harness.sample_sigma((rng.choice(FAMILY_IDS), rng.randint(-2, 2)),
                                rng=rng, bound=32) for _ in range(200)]
    pts += [_widened_tail_point(), _ring_taker_point()]
    for pt in pts:
        regions.classify(_fresh(pt))
    callers = Counter()
    folds = []
    cmp_shifted, cross, bracket = (engine.cmp_shifted, Gaussian.cross,
                                   engine._bracket)

    def counted_cmp(*args):
        callers[sys._getframe(1).f_code] += 1
        return cmp_shifted(*args)

    def counted_cross(self, other):
        callers[sys._getframe(1).f_code] += 1
        return cross(self, other)

    def counted_bracket(an, degrees):
        folds.append(None)
        return bracket(an, degrees)

    monkeypatch.setattr(engine, "cmp_shifted", counted_cmp)
    monkeypatch.setattr(Gaussian, "cross", counted_cross)
    monkeypatch.setattr(engine, "_bracket", counted_bracket)
    for pt in pts:
        regions.classify(pt)
    assert len(folds) > len(pts)
    assert bracket.__code__ not in callers
    assert callers[engine._sigma_triple_rules.__code__]


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


def _public_points():
    """40 sampled points of every family, and the widened-tail point."""
    rng = random.Random(41)
    return [
        harness.sample_sigma(
            (rng.choice(list(FAMILY_IDS)), rng.randint(-2, 2)), rng=rng, bound=32
        )
        for _ in range(40)
    ] + [_widened_tail_point()]


def test_classify_matches_public_predicates():
    """classify's shared cell verdicts change no verdict: its output is what
    a fresh equal point answers to the cell and composite predicates called
    one at a time."""
    for pt in _public_points():
        for window in (4, 8):
            assert regions.classify(pt, window) == _one_at_a_time(
                _fresh(pt), window
            ), (window, pt.to_json())
    assert ("region", "RightMp") in regions.classify(_widened_tail_point())


def _tail_point_sets(n=500):
    """Six point sets, each with the two windows it is read at: sampled
    points at m -2..2 and bound 32, at m -6..6 and bounds 8 and 64,
    sampled points turned a quarter, standard-heart points, and
    phi(M)=phi(M') points."""
    rng = random.Random("tail-superset")

    def sampled(mlo, mhi, bound):
        return [harness._sample_point(rng, FAMILY_IDS, mlo, mhi, bound)
                for _ in range(n)]

    heart = []
    while len(heart) < n:
        charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
        try:
            heart.append(engine.standard_heart_point(charges))
        except ValueError:
            pass
    return {
        "m -2..2, bound 32": (sampled(-2, 2, 32), (8, 32)),
        "m -6..6, bound 8": (sampled(-6, 6, 8), (4, 8)),
        "m -6..6, bound 64": (sampled(-6, 6, 64), (0, 8)),
        "quarter-turned": ([engine.rotate_quarter(p, 1 + i % 3)
                            for i, p in enumerate(sampled(-2, 2, 32))], (4, 8)),
        "standard heart": (heart, (4, 8)),
        "phi(M)=phi(M')": ([
            harness.sample_sigma(("F8", rng.randint(-2, 2)), "phi(M)=phi(M')",
                                 rng=rng)
            for _ in range(n)], (4, 8)),
    }


def _far_bounds(pt, window, hi):
    """Both letters' far bounds on one side, the mapping
    ``_tail_family_excluded`` reads."""
    return {k: regions._far_phases(pt, window, hi, k) for k in "ab"}


def test_tail_enclosure_excludes_every_tail_the_old_one_did():
    """The far bounds drawn from the engine's brackets exclude every
    family's far cells wherever the enclosure they replace
    (``_reference._tail_enclosure``: a bracket against the anchors and M,
    M' over the degrees the whole tail shares, replaced by the ray
    enclosure where that exists) excluded them, on both sides of six
    point sets at two windows each; and on the standard heart, where
    edge phases are often undecided, they exclude more.  Where the ray
    enclosure exists, the bound narrows it rather than replacing it: on
    one point the b tail below the window-0 block is left with the edge
    phase alone, where the ray enclosure leaves an interval below it."""
    gained = {}
    for name, (pts, windows) in _tail_point_sets().items():
        gained[name] = 0
        for pt in pts:
            for window in windows:
                for hi in (False, True):
                    old = _reference._tail_enclosure(pt, window, hi)
                    new = _far_bounds(pt, window, hi)
                    for fid in FAMILY_IDS:
                        was = regions._tail_family_excluded(pt, fid, old, window)
                        now = regions._tail_family_excluded(pt, fid, new, window)
                        assert now or not was, (name, fid, window, hi, pt.to_json())
                        gained[name] += now and not was
    assert gained["standard heart"] > 0, gained

    F = Fraction
    pt = engine.StabilityPoint("F7", 0, (0, 0, -2), (
        Gaussian.of(F(-4, 9), F(41, 57)),
        Gaussian.of(F(10, 23), F(9, 11)),
        Gaussian.of(F(-20, 43), F(25, 18)),
    ))
    new = _far_bounds(pt, 0, False)
    assert new["b"][0] == new["b"][1]
    assert regions._tail_family_excluded(pt, "F6", new, 0)
    old = _reference._tail_enclosure(pt, 0, False)
    assert not regions._tail_family_excluded(pt, "F6", old, 0)


def _height_one_points():
    """Every point at m = 0 with its family's extreme shift whose three
    charges are integer Gaussians of height at most 1: 8 x 4^3 = 512."""
    zs = [Gaussian.of(x, y) for y in (0, 1) for x in (-1, 0, 1) if y or x < 0]
    return [
        engine.StabilityPoint(fid, 0, extreme_shift(family_triple(fid, 0)),
                              (z0, z1, z2))
        for fid in FAMILY_IDS for z0 in zs for z1 in zs for z2 in zs
    ]


def test_excluded_tails_hold_no_cell_of_the_ring():
    """Soundness of the exclusion, read off the cells themselves: wherever
    a family's far tail on one side of the window-4 block is excluded, the
    TAIL_EXT cells of the widened block beyond it hold no cell containing
    the point.  On the 512 height-1 points and 300 sampled points, where
    rings with a hit exist."""
    rng = random.Random("tail-soundness")
    pts = _height_one_points() + [
        harness._sample_point(rng, FAMILY_IDS) for _ in range(300)]
    w, ext = 4, regions.TAIL_EXT
    hits = 0
    for pt in pts:
        for hi in (False, True):
            bounds = _far_bounds(pt, w, hi)
            for fid in FAMILY_IDS:
                vs = regions._block_cells(pt, fid, w + ext)
                ring = vs[-ext:] if hi else vs[:ext]
                if regions._tail_family_excluded(pt, fid, bounds, w):
                    assert True not in ring, (fid, hi, pt.to_json())
                hits += True in ring
    assert hits > 100, hits


def test_tail_table_is_the_hand_reduction():
    """The exclusion test derived from each family's pattern is the hand
    reduction of its inequalities over the far bounds (lo, up) of its
    letters: every pattern has at most one fixed object; F2 and F5 are
    excluded outright, reading no letter; F1, F3, F4 and F6 need their
    letter's far phases not to fall, and are excluded where
    up_a <= phi(M')+1, lo_a >= phi(M), up_b <= phi(M)+1 and
    lo_b >= phi(M') respectively; F7 where lo_b >= phi(M')+1 or
    up_a <= phi(M'), and F8 where lo_a >= phi(M)+1 or up_b <= phi(M).
    Of the bound tests of one end of one letter, the weakest (the least
    shift on a lower end, the greatest on an upper end) decides."""
    hand = {
        "F1": ("a", "Mp", {("a", 1): 1}),
        "F3": ("a", "M", {("a", 0): 0}),
        "F4": ("b", "M", {("b", 1): 1}),
        "F6": ("b", "Mp", {("b", 0): 0}),
        "F7": (None, "Mp", {("b", 0): 1, ("a", 1): 0}),
        "F8": (None, "M", {("a", 0): 1, ("b", 1): 0}),
    }
    for fid in FAMILY_IDS:
        shape = FAMILY_SHAPES[fid]
        assert sum(r is None for _, r in shape) <= 1, fid
        letters, impossible, rising, fixed, tests = regions._TAIL_TESTS[fid]
        if fid in ("F2", "F5"):
            assert impossible and letters == (), fid
            continue
        assert not impossible, fid
        assert letters == tuple(sorted({k for k, r in shape if r is not None}))
        weakest = {}
        for k, end, c in tests:
            pick = min if end == 0 else max
            weakest[k, end] = pick(c, weakest.get((k, end), c))
        assert (rising, fixed, weakest) == hand[fid], fid


def test_a_lone_family_reads_only_its_letters(monkeypatch):
    """A union of one family folds the far brackets of its own chain
    letter only, on each side (F3 reads a), and F2 and F5, excluded
    outright, fold none.  A far bracket is the fold on the plan slot of a
    chain object past an end of its chain (``Analysis.slot_bracket``),
    recorded as (letter, side) with the side read off that object's
    index in the plan's coordinates."""
    read = []
    bracket = engine.Analysis.slot_bracket

    def recorded(an, s):
        x = an.plan.reps[s]
        read.append((x.kind, x.m > 0))
        return bracket(an, s)

    monkeypatch.setattr(engine.Analysis, "slot_bracket", recorded)
    assert regions.in_cells_union(_std(), ("F3",)) is False
    assert set(read) == {("a", False), ("a", True)}, read
    read.clear()
    assert regions.in_cells_union(_std(), ("F2", "F5")) is False
    assert read == []


def _far_phases_by_label(point, window, hi, kind):
    """``regions._far_phases`` computed from the objects' labels through
    the engine's public functions (``conditional_phase``,
    ``phase_bracket``, ``charge_of``): the hull of the edge's and the
    outer neighbour's conditional phases and the bracket of the object
    two steps out, narrowed by the chain's charge ray where the block
    edge lies in the linear zone of the K-classes."""
    d = 1 if hi else -1
    j = point.m + window + 1 if hi else point.m - window
    ph_edge, ph_next = (engine.conditional_phase(
        point, ExcObject(kind, j + k, 0), window) for k in (0, d))
    far = engine.phase_bracket(point, ExcObject(kind, j + 2 * d, 0), window)
    known = [ph for ph in (ph_edge, ph_next) if ph is not None]
    if far is None and not known:
        return regions._DEAD
    lo, up = far or (known[0], known[0])
    lo = None if lo is None else min(known + [lo])
    up = None if up is None else max(known + [up])
    if ph_edge is None or (j < 1 if hi else j > 0):
        return lo, up, None
    edge = engine.charge_of(point, ExcObject(kind, j, 0))
    step = engine.charge_of(point, ExcObject(kind, j + d, 0)) - edge
    turn = edge.cross(step)
    if turn == 0:
        return lo, up, None
    if turn < 0:
        limit = window_arg(step, ph_edge, -1)
        return (limit if lo is None else max(lo, limit)), ph_edge, not hi
    limit = window_arg(step, ph_edge, 0)
    return ph_edge, (limit if up is None else min(up, limit)), hi


def test_far_phases_read_by_slot_match_the_label_route():
    """``_far_phases`` reads the plan slots of the block's edge object and
    of the chain objects one and two steps past it, and builds no label;
    its value is ``repr``-equal to the same bounds computed from labels
    (``_far_phases_by_label``), on the six point sets of the superset
    test and the height-1 points, at windows 0, 4, 8 and 32, on both
    sides for both letters.  The narrowing by the charge ray and the
    dead tails are both reached."""
    pts = [pt for pts, _ in _tail_point_sets().values() for pt in pts]
    pts += _height_one_points()
    seen = Counter()
    for pt in pts:
        for window in (0, 4, 8, 32):
            for hi in (False, True):
                for kind in "ab":
                    got = regions._far_phases(pt, window, hi, kind)
                    want = _far_phases_by_label(pt, window, hi, kind)
                    assert repr(got) == repr(want), (
                        pt.to_json(), window, hi, kind)
                    seen[got if got is regions._DEAD else got[2]] += 1
    assert seen[regions._DEAD] and seen[None] and seen[True] and seen[False]


def test_bracket_matches_the_reference_fold_on_every_plan_row():
    """``engine._bracket`` on every ``reps`` row of the plan, for the
    512 height-1 points at windows 0, 4 and 8, is ``repr``-equal to the
    fold that builds every bound as a Phase (``_reference.hom_bracket``),
    None included.  Empty brackets are reached, and so are ends with
    equal integer parts, where the emptiness test reads a cross
    product."""
    seen = Counter()
    for pt in _height_one_points():
        for window in (0, 4, 8):
            an = pt.analysis(window)
            for s in range(len(an.plan.reps)):
                degrees = an.plan.degrees_of(s)
                bounds = [(an.row[t][1], *degrees[t]) for t in an.order
                          if an.row[t][1] is not None]
                got = engine._bracket(an, degrees)
                want = _reference.hom_bracket(iter(bounds))
                assert repr(got) == repr(want), (pt.to_json(), window, s)
                seen["empty"] += got is None
                seen["tied ends"] += (
                    got is not None and got[0].offset == got[1].offset)
    assert seen["empty"] and seen["tied ends"], seen


def test_tail_exclusion_golden_digest():
    """Every tail exclusion, per point, window, side and family, and the
    exclusion of each family on both sides (``_tail_excluded``),
    over the six point sets of the superset test and the height-1 points
    at windows 4 and 8, hashed.  The constant was computed before the far
    bounds were filled per letter and read by one table-driven test per
    family; any change to what is excluded changes it."""
    sets = dict(_tail_point_sets())
    sets["height 1"] = (_height_one_points(), (4, 8))
    h = hashlib.sha256()
    for name, (pts, windows) in sets.items():
        for pt in pts:
            for w in windows:
                low, high = _far_bounds(pt, w, False), _far_bounds(pt, w, True)
                bits = "".join(
                    "%d%d%d" % (regions._tail_family_excluded(pt, fid, low, w),
                                regions._tail_family_excluded(pt, fid, high, w),
                                regions._tail_excluded(pt, fid, w))
                    for fid in FAMILY_IDS)
                h.update(("%s|%d|%s;" % (name, w, bits)).encode())
    assert h.hexdigest() == (
        "8e47f1da2b1c961b44118ab111cacc777bc328181f6cfff3b617db5935feb7a5"
    )


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
    """Every cell classify reads is decided once per analysis, from the
    slot row (``_block_cells``), and no cell goes through the per-object
    path (``_phases``); a second classify of the same point decides
    none."""
    decided = Counter()
    block_cells = regions._block_cells

    def counted(point, fid, window):
        known = fid in point.analysis(window).cells
        vs = block_cells(point, fid, window)
        if not known:
            for m in regions._block(point, window):
                decided[fid, m, window] += 1
        return vs

    def per_object(*args):
        raise AssertionError("a cell read its objects one by one")

    monkeypatch.setattr(regions, "_block_cells", counted)
    monkeypatch.setattr(regions, "_phases", per_object)
    for pt in (_std(), _widened_tail_point()):
        decided.clear()
        regions.classify(pt)
        assert decided and max(decided.values()) == 1, decided.most_common(3)
        # each family's block is decided once: every cell of it is read by
        # the direct cell scan, and never decided again by a composite
        block = Counter(k for k in decided.elements() if k[2] == regions.WINDOW)
        assert len(block) == len(FAMILY_IDS) * (2 * regions.WINDOW + 1)
        before = Counter(decided)
        regions.classify(pt)
        assert decided == before
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
                v = spelled.get(xb) or engine.Verdict("unknown")
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
    """classify decides its cells from the analysis's slot row, a family's
    block at a time (``_block_cells``): every cell of the block at windows
    0, 4, 8 and 32 answers True, False or None (undecidable) as the same
    cell decided alone from the slot row (_reference.row_cell) and as the
    same cell read object by object on a fresh equal point
    (_reference.in_named_cell: one engine.lookup per label, then
    Phase.plus and Phase.cmp per inequality)."""
    pts = _lookup_points(265, 300) + [_widened_tail_point()]
    assert {p.family for p in pts} == set(FAMILY_IDS)
    outcomes = Counter()
    for pt in pts:
        regions.classify(pt)
        ref = _fresh(pt)
        for window in (0, 4, 8, 32):
            block = regions._block(pt, window)
            for fid in FAMILY_IDS:
                vs = regions._block_cells(pt, fid, window)
                assert len(vs) == len(block)
                for m, got in zip(block, vs):
                    assert got == _reference.row_cell(pt, fid, m, window)
                    want = _outcome(_reference.in_named_cell, ref, fid, m, window)
                    assert got == (None if want == "undecidable" else want), (
                        fid, m, window, pt.to_json())
                    outcomes[got] += 1
    assert set(outcomes) == {True, False, None}, outcomes


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


def _stub_block_cells(stub):
    """A ``_block_cells`` reading each cell's verdict from the dict stub
    keyed on (fid, m), False where it has none."""
    def cells(point, fid, window):
        return tuple(stub.get((fid, m), False) for m in regions._block(point, window))
    return cells


def test_undecided_cell_keeps_the_union_undecided(monkeypatch):
    """With no hit and certified tails, one undecidable cell leaves every
    union containing its family Undecidable, never False."""
    pt = _std()
    monkeypatch.setattr(regions, "_block_cells",
                        _stub_block_cells({("F1", pt.m): None}))
    monkeypatch.setattr(regions, "_tail_excluded", lambda *a: True)
    assert regions.scan_cells(pt, ("F1",)) is False
    for name, fids in regions.COMPOSITES.items():
        if "F1" in fids:
            with pytest.raises(regions.Undecidable):
                regions.in_composite(pt, name)
        else:
            assert regions.in_composite(pt, name) is False
    assert regions.classify(pt) == []


def test_classify_block_summaries_are_block_scans(monkeypatch):
    """The block scans classify's composites read are ``scan_cells``: a
    hit in any family's block, whatever undecidable cells come before or
    after it.  classify's output is what the public predicates answer one
    at a time on the same verdicts."""
    pt = _std()
    stub = {("F1", pt.m): None, ("F2", pt.m - 1): True, ("F2", pt.m): None,
            ("F5", pt.m - 1): None, ("F5", pt.m): True,
            ("F6", pt.m - 1): True, ("F6", pt.m + 1): None}

    def named_cell(point, fid, m, window=regions.WINDOW):
        # the public predicate that _one_at_a_time reads, on the same stub
        v = stub.get((fid, m), False)
        if v is None:
            raise regions.Undecidable("stub")
        return v

    monkeypatch.setattr(regions, "_block_cells", _stub_block_cells(stub))
    monkeypatch.setattr(regions, "in_named_cell", named_cell)
    monkeypatch.setattr(regions, "_tail_excluded", lambda *a: True)
    w = regions.WINDOW
    assert regions.classify(pt) == _one_at_a_time(pt, w)
    assert ("cell", "F2", pt.m - 1) in regions.classify(pt)
    assert regions.scan_cells(pt, ("F1",)) is False
    assert regions.scan_cells(pt, ("F2",)) is True
    assert regions.scan_cells(pt, ("F2", "F1")) is True
    assert regions.scan_cells(pt, ("F1", "F2")) is True
    assert regions.scan_cells(pt, ("F3", "F4")) is False
    assert regions.scan_cells(pt, ("F5",)) is True
    assert regions.scan_cells(pt, ("F6",)) is True


@pytest.mark.parametrize("inner", [True, None])
@pytest.mark.parametrize("offset", [-regions.WINDOW, 0, regions.WINDOW])
def test_widened_rescan_reads_only_the_ring(monkeypatch, inner, offset):
    """The widened tail rescan reads only the TAIL_EXT cells on either side
    of the block at ``window``, never the inner cells of the wide block:
    with every block cell False and the tails excluded only at the wide
    window, one inner hit or one inner undecidable cell of the wide block
    leaves the union False."""
    pt = _std()
    w, wide = regions.WINDOW, regions.WINDOW + regions.TAIL_EXT

    def cells(point, fid, window):
        vs = [False] * (2 * window + 1)
        if window == wide:
            vs[wide + offset] = inner  # the cell at index point.m + offset
        return tuple(vs)

    monkeypatch.setattr(regions, "_block_cells", cells)
    monkeypatch.setattr(regions, "_tail_excluded",
                        lambda point, fid, window: window == wide)
    assert regions.in_cells_union(pt, ("F1",), w) is False
    assert regions.in_composite(pt, "St", w) is False
    assert ("region", "St") not in regions.classify(pt, w)


def test_a_family_excluded_at_either_window_decides_the_union(monkeypatch):
    """Each family's union is decided on its own: with every block cell
    False, F1's tails excluded only at the window and F2's only at the
    widened window, each family's answer is False, and so is their
    union's; no family's far cells are left open."""
    pt = _std()
    w = regions.WINDOW
    monkeypatch.setattr(regions, "_block_cells", _stub_block_cells({}))
    monkeypatch.setattr(regions, "_tail_excluded",
                        lambda point, fid, window: (fid == "F1") == (window == w))
    assert regions.in_cells_union(pt, ("F1", "F2"), w) is False
    assert regions.in_cells_union(pt, ("F2", "F1"), w) is False


def _reason(predicate, *args):
    """The answer, or the reason the union is undecidable."""
    try:
        return predicate(*args)
    except regions.Undecidable as e:
        return str(e)


def test_union_reasons_name_far_before_undecided_cells(monkeypatch):
    """An undecidable union says why: "far cells" when some family's
    tails are excluded at neither window, whatever the other families'
    cells, and "undecided cells" when only undecidable cells are left."""
    pt = _std()
    far, undecided = ("union not certified false (%s)" % r
                      for r in ("far cells", "undecided cells"))
    monkeypatch.setattr(regions, "_block_cells",
                        _stub_block_cells({("F1", pt.m): None}))
    monkeypatch.setattr(regions, "_tail_excluded",
                        lambda point, fid, window: fid != "F3")
    assert _reason(regions.in_cells_union, pt, ("F1",)) == undecided
    assert _reason(regions.in_cells_union, pt, ("F1", "F2")) == undecided
    assert _reason(regions.in_cells_union, pt, ("F3",)) == far
    assert _reason(regions.in_cells_union, pt, ("F1", "F3")) == far
    assert _reason(regions.in_cells_union, pt, ("F3", "F1")) == far
    assert _reason(regions.in_cells_union, pt, ("F2",)) is False


def _fold(answers):
    """A union's answer from its families' answers: True if any is, else
    the far-cells reason if any has it, else any other reason, else
    False."""
    if True in answers:
        return True
    for reason in ("far cells", "undecided cells"):
        if any(isinstance(a, str) and reason in a for a in answers):
            return "union not certified false (%s)" % reason
    return False


def test_composites_are_folds_of_their_families():
    """On sampled points and standard-heart points at windows 4 and 8,
    every composite answers, on a fresh point, the fold of what each of
    its families' unions answers alone on another fresh point, reasons
    included."""
    rng = random.Random("union-folds")
    pts = [harness._sample_point(rng, FAMILY_IDS, -6, 6, 8) for _ in range(120)]
    while len(pts) < 280:
        charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
        try:
            pts.append(engine.standard_heart_point(charges))
        except ValueError:
            pass
    met = Counter()
    for pt in pts:
        for window in (4, 8):
            alone = _fresh(pt)
            single = {fid: _reason(regions.in_cells_union, alone, (fid,), window)
                      for fid in FAMILY_IDS}
            both = _fresh(pt)
            for name, fids in regions.COMPOSITES.items():
                got = _reason(regions.in_composite, both, name, window)
                assert got == _fold([single[f] for f in fids]), (
                    name, window, pt.to_json())
                met[got] += 1
    assert {True, False, "union not certified false (far cells)"} <= set(met), met


def _predicate_answers(pt, window):
    """Every composite, block scan and single-family union of pt at window,
    the composites' families read in reverse as well."""
    out = []
    for name, fids in regions.COMPOSITES.items():
        out.append(_outcome(regions.in_composite, pt, name, window))
        out.append(regions.scan_cells(pt, fids, window))
        out.append(_outcome(regions.in_cells_union, pt, fids[::-1], window))
    for fid in FAMILY_IDS:
        out.append(regions.scan_cells(pt, (fid,), window))
        out.append(_outcome(regions.in_cells_union, pt, (fid,), window))
    return out


def test_cell_verdicts_are_shared_in_any_order():
    """The cell verdicts kept on a point's analysis answer the same
    whichever call fills them: on one point object, every composite, block
    scan and union called before classify, and after it, give the answers
    they give on their own, and classify the output of classify on a fresh
    equal point."""
    pts = _public_points()
    for pt in pts:
        for window in (4, 8):
            want = regions.classify(_fresh(pt), window)
            first = _fresh(pt)
            answers = _predicate_answers(first, window)
            assert regions.classify(first, window) == want, pt.to_json()
            last = _fresh(pt)
            assert regions.classify(last, window) == want, pt.to_json()
            assert _predicate_answers(last, window) == answers, pt.to_json()
            assert last.analysis(window).cells == first.analysis(window).cells


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
