"""The rule-based semistability engine: anchors, derived verdicts, symmetry
invariance, and conditional phases."""

import gc
import hashlib
import random
import re
import sys
import types
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from stabq import catalog, engine, ff, harness, regions
from stabq.catalog import (
    ExcObject,
    build_matrices,
    dim_vector,
    hom_dims,
    kclass,
    parse_label,
)
from stabq.exact import Gaussian, Phase, int_phase, phase_add, phase_diff
from stabq.quiver import Vec3
from stabq.triples import (
    FAMILY_IDS,
    ExcTriple,
    alpha_beta_gamma,
    closure_content,
    ext_pair,
    family_triple,
    in_shift_set,
    shift_set_members,
)


def _g(re, im):
    return Gaussian.of(Fraction(re), Fraction(im))


def _std(z0=None, z1=None, z2=None):
    return engine.standard_heart_point(
        (z0 or _g(-1, 1), z1 or _g(0, 1), z2 or _g(1, 1))
    )


def test_standard_heart_simples():
    pt = _std()
    t = pt.anchor()
    from stabq.catalog import kclass

    assert sorted(tuple(kclass(o)) for o in t.objs) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


def test_anchor_objects_semistable_with_window_phases():
    pt = _std()
    phs = []
    for o in pt.anchor().objs:
        v = engine.semistable(pt, o)
        assert v.status == "semistable"
        phs.append(engine.phase_of(pt, o))
    lo, hi = min(phs), max(phs)
    assert phase_diff(hi, lo).cmp(int_phase(1)) < 0


def test_charge_of_is_linear():
    pt = _std()
    za = engine.charge_of(pt, parse_label("a[0]"))
    zb = engine.charge_of(pt, parse_label("b[0]"))
    zm = engine.charge_of(pt, parse_label("M"))
    # [b^0] = [a^0] + [M]  (dimension vectors (1,1,0) = (1,0,0) + (0,1,0))
    from stabq.catalog import kclass

    assert kclass(parse_label("b[0]")) == kclass(parse_label("a[0]")) + kclass(
        parse_label("M")
    )
    assert zb == za + zm


def test_shift_convention_on_verdicts():
    pt = _std()
    x = parse_label("a[0]")
    p0 = engine.phase_of(pt, x)
    p2 = engine.phase_of(pt, x.shifted(2))
    assert phase_diff(p2, p0).same_as(int_phase(2))


def test_global_shift_moves_all_phases():
    pt = _std()
    pt1 = engine.shift(pt, 1)
    for label in ("a[0]", "b[1]", "M"):
        p = engine.phase_of(pt, parse_label(label))
        q = engine.phase_of(pt1, parse_label(label))
        assert phase_diff(q, p).same_as(int_phase(1))


def test_rescale_preserves_everything():
    pt = _std()
    pt2 = engine.rescale(pt, Fraction(7, 3))
    for o in engine._universe(pt.m, 4):
        v1 = engine.semistable(pt, o)
        v2 = engine.semistable(pt2, o)
        assert v1.status == v2.status
        if v1.status == "semistable" and v1.phase is not None:
            assert v1.phase.same_as(v2.phase)


def test_rotate_quarter_moves_phases_by_half():
    pt = _std()
    pt2 = engine.rotate_quarter(pt, 1)
    half = Phase(0, Gaussian.of(0, 1))  # the value 1/2
    for label in ("a[0]", "b[1]", "M"):
        p = engine.phase_of(pt, parse_label(label))
        q = engine.phase_of(pt2, parse_label(label))
        d = phase_diff(q, p)
        assert d.same_as(half)


def test_rotate_full_turn_is_shift_by_two():
    pt = _std()
    pt4 = engine.rotate_quarter(pt, 4)
    for label in ("a[0]", "M"):
        p = engine.phase_of(pt, parse_label(label))
        q = engine.phase_of(pt4, parse_label(label))
        assert phase_diff(q, p).same_as(int_phase(2))
    # a full turn stores extra offsets (2, 2, 2); the conditional phases of
    # far chain objects, and the cells they decide, must not depend on it
    pt = engine.StabilityPoint.from_json({
        "anchor": {"family": "F1", "m": -2, "shift": [0, -2, -3]},
        "charges": [{"re": "19/22", "im": "21/23"}, {"re": "0", "im": "11/10"},
                    {"re": "17/32", "im": "14/17"}],
    })
    turned, shifted = engine.rotate_quarter(pt, 4), engine.shift(pt, 2)
    assert turned.extra_offsets == (2, 2, 2)
    for kind in ("a", "b"):
        for j in range(-12, 12):
            o = ExcObject(kind, j, 0)
            assert engine.conditional_phase(turned, o) == (
                engine.conditional_phase(shifted, o)
            ), o

    def cell(p, fid, m):
        try:
            return regions.in_named_cell(p, fid, m)
        except regions.Undecidable:
            return "undecidable"

    for fid in FAMILY_IDS:
        for m in range(-12, 11):
            assert cell(turned, fid, m) == cell(shifted, fid, m), (fid, m)
    assert regions.classify(turned) == regions.classify(shifted)


# rotate_quarter(pt, k).to_json() for k = 0..4, as written before the engine
# computed on integer-normalised charges
_ROTATED = {
    "F2": [
        ([("-1", "1"), ("1/2", "2"), ("3", "1/3")], None),
        ([("1", "1"), ("-2", "1/2"), ("-1/3", "3")], [1, 0, 0]),
        ([("-1", "1"), ("1/2", "2"), ("3", "1/3")], [1, 1, 1]),
        ([("1", "1"), ("-2", "1/2"), ("-1/3", "3")], [2, 1, 1]),
        ([("-1", "1"), ("1/2", "2"), ("3", "1/3")], [2, 2, 2]),
    ],
    "F8": [
        ([("-3/4", "2/9"), ("5/6", "7/10"), ("-4", "0")], None),
        ([("2/9", "3/4"), ("-7/10", "5/6"), ("0", "4")], [1, 0, 1]),
        ([("-3/4", "2/9"), ("5/6", "7/10"), ("-4", "0")], [1, 1, 1]),
        ([("2/9", "3/4"), ("-7/10", "5/6"), ("0", "4")], [2, 1, 2]),
        ([("-3/4", "2/9"), ("5/6", "7/10"), ("-4", "0")], [2, 2, 2]),
    ],
}


def test_rotate_quarter_keeps_stored_charges_exact():
    pts = [
        engine.StabilityPoint(
            "F2", 1, (0, -1, -2), (_g(-1, 1), _g("1/2", 2), _g(3, "1/3")), 1
        ),
        _std(_g("-3/4", "2/9"), _g("5/6", "7/10"), _g(-4, 0)),
    ]
    for pt in pts:
        for k, (charges, extras) in enumerate(_ROTATED[pt.family]):
            want = {
                "anchor": {
                    "family": pt.family,
                    "m": pt.m,
                    "shift": list(pt.shift),
                },
                "charges": [{"re": re, "im": im} for re, im in charges],
                "global_shift": pt.global_shift,
            }
            if extras is not None:
                want["extra_offsets"] = extras
            assert engine.rotate_quarter(pt, k).to_json() == want
        assert engine.rotate_quarter(pt, 4).charges == pt.charges
        turned = pt
        for _ in range(4):
            turned = engine.rotate_quarter(turned, 1)
        assert turned.charges == pt.charges
        assert turned == engine.rotate_quarter(pt, 4)


def _det3(cols):
    (a, b, c), (d, e, f), (g, h, i) = cols
    return a * (e * i - f * h) - d * (b * i - c * h) + g * (b * f - c * e)


def _true_charge(pt, c):
    """Z(c) from the stored rational charges by a Fraction Cramer solve."""
    cols = [tuple(k) for k in pt.anchor().kclasses()]
    det = Fraction(_det3(cols))
    re = im = Fraction(0)
    for i, z in enumerate(pt.charges):
        m = list(cols)
        m[i] = tuple(c)
        lam = _det3(m) / det
        if (pt.global_shift + pt.extra_offsets[i]) % 2:
            lam = -lam
        re += lam * z.re
        im += lam * z.im
    return re, im


def test_charge_of_is_positive_multiple_of_true_charge():
    from stabq.catalog import kclass

    rng = random.Random(17)
    for fid in FAMILY_IDS:
        base = harness.sample_sigma((fid, rng.randint(-2, 2)), rng=rng, bound=24)
        for pt in (base, engine.shift(base, 1), engine.rotate_quarter(base, 1)):
            factor = None
            for o in engine._universe(pt.m, 3):
                for x in (o, o.shifted(1)):
                    z = engine.charge_of(pt, x)
                    assert type(z.re) is int and type(z.im) is int
                    re, im = _true_charge(pt, kclass(x))
                    # z = t * Z(x) with t > 0, the same t for the whole point
                    t = Fraction(z.re, 1) / re if re else Fraction(z.im, 1) / im
                    assert t > 0 and (z.re, z.im) == (t * re, t * im)
                    assert factor in (None, t)
                    factor = t


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    turn=st.integers(0, 3),
    scale=st.fractions(min_value=Fraction(1, 50), max_value=50),
    gshift=st.integers(-2, 2),
    labels=st.lists(
        st.tuples(st.sampled_from(["a", "b", "M", "Mp"]), st.integers(-60, 60),
                  st.integers(-2, 2)),
        max_size=6,
    ),
    vecs=st.lists(st.tuples(*[st.integers(-50, 50)] * 3), max_size=3),
    n=st.integers(-40, 40),
)
def test_charge_of_matches_the_cramer_solve(seed, turn, scale, gshift, labels,
                                            vecs, n):
    """charge_of, three multiply-adds on the point's simple charges, equals
    Cramer's rule on the anchor K-classes solved per call
    (_reference.charge_of) on sampled points turned, rescaled and shifted,
    at labels inside and far beyond the universe and at raw K-classes; and
    the simple charges read through n chain steps give the charges of the
    translated labels, and at n = m they are the point's ``plan_simple``,
    which each fixpoint reads its slots against."""
    pt = harness._sample_point(random.Random(seed), FAMILY_IDS, -3, 3, 32)
    if turn:
        pt = engine.rotate_quarter(pt, turn)
    pt = engine.shift(engine.rescale(pt, scale), gshift)

    def moved_by(n):
        # the simple classes moved n steps, T^n(c) = c + n (c_T - c_L) delta,
        # solved by Cramer's rule
        return tuple(_reference.charge_of(pt, v)
                     for v in ((1 - n, -n, -n), (0, 1, 0), (n, n, 1 + n)))

    assert pt.plan_simple == moved_by(pt.m)
    assert pt.simple == moved_by(0)
    moved = moved_by(n)
    for kind, d, sh in labels:
        x = ExcObject(kind, pt.m + d if kind in ("a", "b") else 0, sh)
        z = engine.charge_of(pt, x)
        assert type(z.re) is int and type(z.im) is int
        assert z == _reference.charge_of(pt, x)
        assert engine._charge(moved, kclass(x)) == engine.charge_of(
            pt, x.translated(n)
        )
    for v in vecs:
        assert engine.charge_of(pt, Vec3(*v)) == _reference.charge_of(pt, v)


def test_simple_charges_match_the_cramer_solve_per_point():
    """A point's simple charges, read from the per-family cofactor table,
    equal Cramer's rule on its shifted anchor K-classes
    (_reference.charge_of) at the three simple classes: every family,
    m in -6..6, every shift of shift_set_members(..., 4), and a quarter
    turn of each point."""
    rng = random.Random(6)
    simples = [Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)]
    n = 0
    for fid in FAMILY_IDS:
        for m in range(-6, 7):
            for sh in shift_set_members(family_triple(fid, m), 4):
                charges = tuple(harness._rand_charge(rng, 9) for _ in range(3))
                pt = engine.StabilityPoint(fid, m, sh, charges, rng.randint(-2, 2))
                for q in (pt, engine.rotate_quarter(pt, 1 + n % 3)):
                    assert q.simple == tuple(
                        _reference.charge_of(q, e) for e in simples
                    ), (fid, m, sh)
                n += 1
    assert n == 2600


@pytest.mark.parametrize("window", (0, 4, 8, 32))
def test_degree_rows_match_the_hom_degrees(window):
    """Every entry of a plan's hom-degree rows is the degrees of its two
    objects from hom_dims; each row is built once, and its entries are the
    tuples of the table of catalog.hom_degrees."""
    plan = engine._plan(window)
    u = plan.universe
    table = {id(pair) for pair in catalog._DEGREES.values()}
    for s, x in enumerate(u):
        row = plan.degrees_of(s)
        assert row is plan.degrees_of(s)
        assert row == tuple(_reference.degree_pair(x, y) for y in u)
        assert all(id(pair) in table for pair in row)


@pytest.mark.parametrize("window", (0, 4, 8, 32))
def test_beyond_rows_match_the_hom_degrees(window):
    """A chain object 1 to 30 steps past either end of the plan's chains,
    in the labels of points at several indices, reads the row of the
    object one or two steps past that end (``_Plan.hom_row``), and that
    row is its own degrees to every slot from hom_dims."""
    plan = engine._plan(window)
    u = plan.universe
    ends = ((plan.low, -1), (plan.low + plan.span - 1, 1))
    for kind in ("a", "b"):
        for edge, direction in ends:
            rows = set()
            for k in range(1, 31):
                x = ExcObject(kind, edge + direction * k, 0)
                want = tuple(_reference.degree_pair(x, y) for y in u)
                for dm in (-3, 0, 5):
                    assert plan.index(x.translated(dm), dm) is None
                    row = plan.hom_row(x.translated(dm), dm)
                    assert row == want, (kind, edge, k, dm)
                    rows.add(id(row))
            assert len(rows) == 2, (kind, edge)
    for s, x in enumerate(u):
        assert plan.hom_row(x) is plan.degrees_of(s)


def test_lookup_refuses_a_shifted_label():
    """lookup and conditional_phase answer for base objects: a shifted
    label raises a ValueError naming it, inside the plan's universe and
    beyond it."""
    pt = _std()
    for label in ("a[0][1]", "a[20][1]", "M'[-2]"):
        x = parse_label(label)
        with pytest.raises(ValueError,
                           match="^%s is not a base object$" % re.escape(label)):
            engine.lookup(pt, x)
        with pytest.raises(ValueError, match="not a base object"):
            engine.conditional_phase(pt, x)
        assert engine.lookup(pt, x.base()) == engine.lookup(pt, x.base(), 8)


def test_unstable_verdict_from_big_gap():
    # phases of a^0 and a^1 more than one apart: the rest of the a-chain dies
    pt = engine.StabilityPoint(
        "F3",
        0,
        (0, -1, -1),
        (_g(-1, "1/100"), _g(1, "1/100"), _g(0, 1)),
    )
    va = engine.semistable(pt, parse_label("a[0]"))
    vb = engine.semistable(pt, parse_label("a[1]"))
    if va.status == vb.status == "semistable":
        gap = phase_diff(
            engine.phase_of(pt, parse_label("a[1]")),
            engine.phase_of(pt, parse_label("a[0]")),
        )
        if gap.cmp(int_phase(1)) > 0:
            assert engine.semistable(pt, parse_label("a[2]")).status == "unstable"
            assert engine.semistable(pt, parse_label("a[-1]")).status == "unstable"


def test_no_rule_contradictions_on_samples():
    rng = random.Random(99)
    for _ in range(60):
        fid = rng.choice(list(FAMILY_IDS))
        pt = harness.sample_sigma((fid, rng.randint(-2, 2)), rng=rng, bound=24)
        for o in engine._universe(pt.m, engine.DEFAULT_WINDOW):
            engine.semistable(pt, o)  # EngineError would fail the test


def test_conditional_phase_consistency():
    rng = random.Random(5)
    for _ in range(20):
        pt = harness.sample_sigma(("F8", 0), rng=rng, bound=16)
        for o in engine._universe(pt.m, 4):
            v = engine.semistable(pt, o)
            cp = engine.conditional_phase(pt, o.base())
            if v.status == "unstable":
                assert cp is None
            elif v.status == "semistable" and v.phase is not None:
                assert cp.same_as(v.phase)


def test_equal_points_compute_identical_results():
    rng = random.Random(17)
    for fid in FAMILY_IDS:
        p1 = harness.sample_sigma((fid, rng.randint(-2, 2)), rng=rng, bound=32)
        p2 = engine.StabilityPoint.from_json(p1.to_json())
        assert p1 == p2 and hash(p1) == hash(p2) and p1 is not p2
        out = regions.classify(p1)
        assert p1.analyses and not p2.analyses  # results are per object
        assert regions.classify(p2) == out
        for o in engine._universe(p1.m, engine.DEFAULT_WINDOW):
            assert engine.semistable(p1, o) == engine.semistable(p2, o)
            assert engine.conditional_phase(p1, o) == (
                engine.conditional_phase(p2, o)
            )


def test_point_frees_its_analysis():
    pt = harness.sample_sigma(("F8", 0), seed=3)
    regions.classify(pt)
    refs = [weakref.ref(pt)] + [weakref.ref(a) for a in pt.analyses.values()]
    del pt
    gc.collect()
    assert all(r() is None for r in refs)


def test_anchor_brackets_every_object():
    """The hom bracket of conditional_phase is bounded and shorter than 1.

    Some anchor object A_i has a nonzero hom from x in degree d and some
    A_j one to x in degree e with d + e <= 0 (the top and bottom cohomology
    of x in the anchor's heart); with the anchor phases less than 1 apart
    this leaves phi(A_j) - e <= phi(x) <= phi(A_i) + d, a window shorter
    than 1."""
    for fid in FAMILY_IDS:
        for m in range(-3, 4):
            t = family_triple(fid, m)
            xs = [ExcObject(k, j, 0) for k in ("a", "b")
                  for j in range(m - 30, m + 32)]
            xs += [ExcObject("M", 0, 0), ExcObject("Mp", 0, 0)]
            for s in shift_set_members(t, 4):
                anchor = t.shifted(s).objs
                for x in xs:
                    d = [h[0] for h in (hom_dims(x, a) for a in anchor) if h]
                    e = [h[0] for h in (hom_dims(a, x) for a in anchor) if h]
                    assert d and e and min(d) + min(e) <= 0, (fid, m, s, x)


def test_zero_charge_has_no_conditional_phase():
    # [M] = [A0] + [A1] - [A2] in this anchor's K-classes, and
    # z0 + z1 = z2, so M has zero charge and cannot be semistable
    pt = engine.StabilityPoint(
        "F1", 0, (0, -3, -5), (_g("3/4", "1/4"), _g("-3/4", "1/4"), _g(0, "1/2"))
    )
    M = parse_label("M")
    assert engine.charge_of(pt, M).is_zero()
    assert engine.semistable(pt, M).status == "unknown"
    assert engine.conditional_phase(pt, M) is None


def _moved(x, n):
    """x with every catalog object in it moved n steps along its chain."""
    if isinstance(x, ExcObject):
        return x.translated(n)
    if isinstance(x, ExcTriple):
        return ExcTriple(_moved(x.objs, n))
    if isinstance(x, tuple):
        return tuple(_moved(y, n) for y in x)
    return x


def _spelled(plan, row):
    """The row with its (slot, shift) pairs spelled as the plan's objects."""
    if row is None:
        return None

    def obj(ref):
        return plan.universe[ref[0]].shifted(ref[1])

    return (
        tuple(map(obj, row.B)),
        tuple((i, tuple(map(obj, c)), rule) for i, c, rule in row.closures),
        None if row.outer is None else (obj(row.outer[0]), row.outer[1]),
    )


@pytest.mark.parametrize("window", range(9))
def test_plan_rows_are_translation_invariant(window):
    """The engine keeps one plan per window, built at m = 0, and runs every
    point relative to its m.  That is sound because the plan built at any m
    is the one at 0 moved m steps: slot i at m is slot i at 0 translated,
    and triples, big-gap tables and every row (shift-set membership,
    closure contents inside the scope, outer step), spelled as objects,
    move with it, over a grid of shifts wider than the sampled ones (s1 in
    -4..0, s2 in -7..-1 on 300 points)."""
    base = engine._Plan(window)
    for m in range(-6, 7):
        plan = engine._Plan(window, m)
        assert plan.universe == [o.translated(m) for o in base.universe]
        assert plan.gaps == base.gaps
        assert len(plan.triples) == len(base.triples)
        for (t, slots, rows), (t0, slots0, rows0) in zip(plan.triples, base.triples):
            assert t == _moved(t0, m)
            assert slots == slots0
            assert [plan.universe[i] for i in slots] == list(t.objs)
            for s1 in range(-5, 2):
                for s2 in range(-8, 2):
                    assert _spelled(plan, plan.row(t, rows, s1, s2)) == _moved(
                        _spelled(base, base.row(t0, rows0, s1, s2)), m
                    )


@pytest.mark.parametrize("window", (0, 4, 8, 32))
def test_plan_layout_pins_index_and_cells(window):
    """``_Plan.index`` maps an object of the universe to its slot, and
    ``_Plan.columns`` holds the slots of each cell of a family's block,
    as three columns, which ``regions`` reads.  For plans at m in -6..6, index maps each universe object, at
    shifts -2..2 and in the labels of a point with index dm, to its
    position, and each chain object one step beyond either end of the
    universe to None.  The cell slots of (fid, k) are the positions of
    family_triple(fid, k), for k over the plan's block m - window ..
    m + window.  The shift-set bounds the fixpoint reads per triple are
    its own ``alpha_beta_gamma``."""
    for m in range(-6, 7):
        plan = engine._Plan(window, m)
        u = plan.universe
        for dm in (-3, 0, 5):
            for i, o in enumerate(u):
                for sh in range(-2, 3):
                    assert plan.index(o.translated(dm).shifted(sh), dm) == i
            for kind in "ab":
                for j in (m - window - 1, m + window + 2):
                    assert plan.index(ExcObject(kind, j + dm, 0), dm) is None
        assert plan.bounds == [alpha_beta_gamma(t) for t, _, _ in plan.triples]
        for fid in FAMILY_IDS:
            ks = range(m - window, m + window + 1)
            assert list(zip(*plan.columns[fid])) == [
                tuple(u.index(o) for o in family_triple(fid, k).objs) for k in ks
            ], (fid, m)


@pytest.mark.parametrize("window", (0, 1, 4, 8, 32))
def test_plan_slot_is_the_one_map_to_reps(window):
    """``_Plan.slot`` maps M to slot 0, M' to slot 1, and the chain object
    of each letter at every index from 5 below the universe to 5 above
    it, in the labels of a point with index dm, to the ``reps`` slot of
    that object clamped to two steps past the chain's end.  ``index``
    agrees with it inside the universe and is None outside, and
    ``hom_row`` is the row of its slot."""
    plan = engine._plan(window)
    lo, hi = plan.low, plan.low + plan.span - 1
    assert (plan.slot("M"), plan.slot("Mp")) == (0, 1)
    for dm in (-3, 0, 5):
        for label, s in (("M", 0), ("M'", 1)):
            x = parse_label(label)
            assert plan.index(x, dm) == s
            assert plan.hom_row(x, dm) is plan.degrees_of(s)
        for kind in "ab":
            for j in range(lo - 5, hi + 6):
                s = plan.slot(kind, j + dm, dm)
                x = ExcObject(kind, j + dm, 0)
                assert plan.reps[s] == ExcObject(kind, min(max(j, lo - 2), hi + 2), 0)
                inside = lo <= j <= hi
                assert plan.index(x, dm) == (s if inside else None)
                assert (s < len(plan.universe)) == inside
                assert plan.hom_row(x, dm) is plan.degrees_of(s)


def test_plan_gaps_kill_the_rest_of_the_chain():
    plan = engine._Plan(3)
    u = plan.universe
    for s, o in enumerate(u):
        nxt = o.translated(1)
        if o.kind not in ("a", "b") or nxt not in u:
            assert plan.gaps[s] is None
            continue
        succ, kills = plan.gaps[s]
        assert u[succ] == nxt
        assert [u[i] for i in kills] == [
            y for y in u if y.kind == o.kind and y.m not in (o.m, o.m + 1)
        ]


def test_unit_shifts_closed_form():
    """k with |d + k| < 1 for d = p1 - p0, against the definition on a grid
    of d, each d reached from several p0."""
    one = int_phase(1)
    starts = (int_phase(0), Phase(0, Gaussian.of(1, 1)), Phase(-1, Gaussian.of(-2, 3)))
    for off in range(-4, 5):
        for z in (Gaussian.of(1, 2), Gaussian.of(0, 1), Gaussian.of(-3, 1),
                  Gaussian.of(-1, 0)):
            d = Phase(off, z)
            want = tuple(
                k for k in range(-off - 3, -off + 3)
                if d.plus(k).cmp(one.plus(-2)) > 0 and d.plus(k).cmp(one) < 0
            )
            for p0 in starts:
                assert engine._unit_shifts(phase_add(p0, d), p0) == want


# phases on few directions, each at several scales, so that equal offsets
# with a cross product of zero are common; (-1, 0) gives the real charges
_DIRECTIONS = ((-1, 0), (1, 1), (0, 1), (-2, 1), (3, 1), (-1, 3))
_phases = st.builds(
    lambda off, d, k: Phase(off, Gaussian(d[0] * k, d[1] * k)),
    st.integers(-2, 2), st.sampled_from(_DIRECTIONS), st.integers(1, 3),
)
_degrees = st.none() | st.integers(-2, 2)
_HALF, _HALF2 = Phase(0, Gaussian(0, 1)), Phase(0, Gaussian(0, 2))
_ONE, _TWO = Phase(0, Gaussian(-1, 0)), Phase(1, Gaussian(-2, 0))
# phases for bounds whose integer parts tie across different offsets and
# degrees: 3/2 at two scales (offsets 1 and 2), 5/4, and -3/4 at a second
# scale
_3HALF, _3HALF2 = Phase(1, Gaussian(0, 1)), Phase(2, Gaussian(0, 3))
_5QUARTER, _NEG3QUARTER = Phase(1, Gaussian(1, 1)), Phase(-1, Gaussian(2, 2))


@settings(max_examples=500, deadline=None)
@given(bounds=st.lists(st.tuples(_phases, _degrees, _degrees), max_size=6))
@example(bounds=[])
@example(bounds=[(_HALF, 0, None), (_HALF2, 0, None)])  # a tie on up
@example(bounds=[(_HALF, None, 0), (_HALF2, None, 0)])  # a tie on lo
@example(bounds=[(_HALF, 0, 0), (_ONE, None, 1), (_TWO, 0, None)])  # real
@example(bounds=[(_HALF, 0, None), (_HALF, None, -1), (_ONE, 0, 0)])  # empty
@example(bounds=[(_ONE, 1, None), (_TWO, None, 0)])  # one point, real ends
@example(bounds=[(_ONE, 1, None), (_TWO, None, -1)])  # empty, real ends
# integer parts that tie, each bound 1 + a charge: on up, parallel (the
# first kept), lower and higher; on lo, parallel, higher and lower
@example(bounds=[(_HALF, 1, None), (Phase(1, Gaussian(0, 2)), 0, None)])
@example(bounds=[(_3HALF, 0, None), (_NEG3QUARTER, 2, None)])
@example(bounds=[(_NEG3QUARTER, 2, None), (_3HALF, 0, None)])
@example(bounds=[(_HALF, None, -1), (_3HALF2, None, 1)])
@example(bounds=[(_5QUARTER, None, 0), (Phase(0, Gaussian(0, 3)), None, -1)])
@example(bounds=[(_3HALF, None, 0), (_NEG3QUARTER, None, -2)])
# the emptiness test on tied integer parts: lo above up, lo below up, and
# one point at two scales
@example(bounds=[(_NEG3QUARTER, 2, None), (_3HALF2, None, 1)])
@example(bounds=[(_HALF, 1, None), (_5QUARTER, None, 0)])
@example(bounds=[(_HALF, 1, None), (_3HALF2, None, 1)])
def test_hom_bracket_matches_the_allocating_fold(bounds):
    """_bracket compares integer parts, then one inline cross product on a
    tie, and builds a Phase only for the ends it returns; on a stand-in
    analysis whose decided-semistable slots carry the drawn phases, in the
    drawn order, with the drawn degrees as the row, it answers what the
    fold that built every bound answers: the same ends in the same
    representation (of equal bounds the first), the same unbounded ends,
    and None for an empty bracket.  An unstable slot between them is
    skipped."""
    an = types.SimpleNamespace(row=[], order=[])
    degrees = []
    for ph, fwd, bwd in bounds:
        an.order.append(len(an.row))
        an.row.append(("semistable", ph))
        degrees.append((fwd, bwd))
        an.order.append(len(an.row))
        an.row.append(engine._DEAD["unstable"])
        degrees.append((0, 0))
    got = engine._bracket(an, degrees)
    want = _reference.hom_bracket(iter(bounds))
    assert got == want and repr(got) == repr(want)


@settings(max_examples=500, deadline=None)
@given(p0=_phases, p1=_phases)
@example(p0=_HALF, p1=_HALF2)  # equal offsets, cross product 0
@example(p0=_ONE, p1=_TWO)  # real charges
@example(p0=_HALF, p1=_ONE)  # equal offsets, one real charge
@example(p0=_TWO, p1=_HALF)
def test_unit_shifts_match_the_phase_difference(p0, p1):
    """_unit_shifts(p1, p0) reads one cross product where the fixpoint
    used to build phase_diff(p1, p0) and read its unit shifts."""
    assert engine._unit_shifts(p1, p0) == _reference.unit_shifts(phase_diff(p1, p0))


def test_rederivation_that_conflicts_still_raises():
    """A pin of an object already decided takes a short path only when it
    agrees with the decided phase; a conflict raises as the full path
    does, with the same message.  Each case pins a[0], decided at the
    phase 3/4 on a fresh analysis, into a window [lo + a, hi + b] given as
    phases and integer shifts, with a constant charge."""
    plan = engine._plan(0)
    a0 = plan.ref(ExcObject("a", 0, 0))
    z = Gaussian.of(-1, 1)  # the phase 3/4
    quarter, half = Phase(0, Gaussian.of(1, 1)), Phase(0, Gaussian.of(0, 1))

    def decided(m=0):
        st = engine.Analysis(plan, m)
        st.set_ss(a0, Phase(0, z), "anchor")
        return st

    def pin(st, window, w, ref=a0):
        engine._pin_in_window(st, ref, *window, lambda r: w, "closure(x)[0]")

    # a window that excludes the decided phase
    with pytest.raises(engine.EngineError) as ei:
        pin(decided(), (quarter, 0, half, 0), z)
    assert str(ei.value) == (
        "paper-rule inconsistency: phase of a[0] escapes "
        "[Phase(0, Gaussian(1, 1)), Phase(0, Gaussian(0, 1))]"
    )
    # a window holding another phase of the same direction
    with pytest.raises(engine.EngineError) as ei:
        pin(decided(), (quarter, 2, Phase(0, z), 2), z)
    assert str(ei.value) == (
        "paper-rule inconsistency: a[0] has phases Phase(0, Gaussian(-1, 1)) "
        "(('anchor',)) and Phase(2, Gaussian(-1, 1)) (closure(x)[0])"
    )
    # a charge of another direction, in a window holding the decided phase
    st = decided()
    with pytest.raises(engine.EngineError) as ei:
        pin(st, (quarter, 0, Phase(0, z), 0), Gaussian.of(0, 1))
    assert str(ei.value) == (
        "paper-rule inconsistency: a[0] has phases Phase(0, Gaussian(-1, 1)) "
        "(('anchor',)) and Phase(0, Gaussian(0, 1)) (closure(x)[0])"
    )
    # the agreeing re-derivation changes nothing, also one shift up, where
    # both the charge and the window move
    st = decided()
    before = st.order[:]
    pin(st, (quarter, 0, Phase(0, z), 0), z.scale(3))
    pin(st, (quarter, 1, Phase(0, z), 1), -z, ref=(a0[0], 1))
    assert st.order == before and st.verdict(a0[0]).rules == ("anchor",)
    assert st.order == [a0[0]]
    # errors name the point's own objects: here m = 2
    st = engine.Analysis(plan, 2)
    st.set_ss((a0[0], -1), Phase(-1, z), ("closure", (ExcObject("a", 0, 0),) * 3, "[1]"))
    with pytest.raises(engine.EngineError) as ei:
        pin(st, (quarter, 0, half, 0), z)
    assert str(ei.value).startswith("paper-rule inconsistency: phase of a[2] escapes")
    assert st.verdicts()[ExcObject("a", 2, 0)].rules == (
        "closure(a[2],a[2],a[2])[1]",
    )


def test_rederivation_that_conflicts_raises_through_the_closure_loop():
    """The closure loop of _sigma_triple_rules decides a re-pin itself only
    when it holds; a re-pin of a slot decided semistable at a phase
    outside the window still raises the message of the full path.  Each
    case re-pins a[0], decided at the phase 3/4, by a closure between the
    triple's phases p0 (the window's top) and p1 (its bottom).  A slot
    whose decided phase has another direction than its charge is a state
    the fixpoint cannot reach: its anchor check raises first
    (``test_anchor_check_stops_a_point_with_negated_charges``)."""
    plan = engine._plan(0)
    a0 = plan.ref(ExcObject("a", 0, 0))
    z = Gaussian.of(-1, 1)  # the phase 3/4
    quarter, half = Phase(0, Gaussian.of(1, 1)), Phase(0, Gaussian.of(0, 1))
    row = engine._Row(((0, 0),) * 3, ((0, (a0,), "closure(x)[0]"),), None)

    def decided():
        an = engine.Analysis(plan, 0)
        an.set_ss(a0, Phase(0, z), "anchor")
        return an

    def closure(an, lo, hi, w):
        engine._sigma_triple_rules(an, row, (hi, lo, hi), (0, 0, 0),
                                   lambda r: w)

    # the first re-pins change nothing; the next one, in a window that
    # excludes 3/4, raises
    an = decided()
    closure(an, quarter, Phase(0, z), z)
    assert an.order == [a0[0]]
    closure(an, quarter, Phase(0, z), z.scale(3))  # decided in the loop
    assert an.order == [a0[0]] and an.verdict(a0[0]).rules == ("anchor",)
    with pytest.raises(engine.EngineError) as ei:
        closure(an, quarter, half, z)
    assert str(ei.value) == (
        "paper-rule inconsistency: phase of a[0] escapes "
        "[Phase(0, Gaussian(1, 1)), Phase(0, Gaussian(0, 1))]"
    )


def test_every_decided_phase_has_the_direction_of_its_slot_charge():
    """The engine's invariant: every phase the fixpoint decides is a
    phase of its slot's plan charge, whose direction is a positive
    multiple of ``Analysis.slot_charge``.  Checked on points of all eight
    families, m in -6..6 and charge bounds 4 to 64, some rotated a
    quarter turn or shifted, at windows 0, 4 and 8, and 32 on some."""
    rng = random.Random("phase-directions")
    families, n = set(), 0
    for i in range(600):
        pt = harness._sample_point(rng, FAMILY_IDS, -6, 6,
                                   rng.choice((4, 8, 16, 32, 64)))
        if i % 5 == 0:
            pt = engine.rotate_quarter(pt, 1)
        if i % 7 == 0:
            pt = engine.shift(pt, 1)
        families.add(pt.family)
        for w in (0, 4, 8, 32) if i % 20 == 0 else (0, 4, 8):
            an = pt.analysis(w)
            for s in an.order:
                ph = an.row[s][1]
                if ph is not None:
                    d, z = ph.direction(), an.slot_charge(s)
                    assert d.cross(z) == 0 and d.dot(z) > 0, (pt, w, an.name(s))
                    n += 1
    assert families == set(FAMILY_IDS) and n > 6000


def test_anchor_check_stops_a_point_with_negated_charges():
    """A point whose plan charges all have the wrong sign breaks the
    invariant at its anchor, and the fixpoint stops there, before any
    rule reads a phase, with the anchor's message."""
    rng = random.Random("negated-charges")
    for _ in range(40):
        pt = harness._sample_point(rng, FAMILY_IDS, -6, 6, 32)
        pt.__dict__["plan_simple"] = tuple(-z for z in pt.plan_simple)
        with pytest.raises(engine.EngineError, match=(
                r"^paper-rule inconsistency: the anchor phase Phase\(.*\) of "
                r"\S+ is not the direction of its charge Gaussian\(")):
            engine._decide(pt, 8)


def test_each_round_reads_the_phases_decided_before_it():
    """Every rule of a fixpoint round reads the phases decided before the
    round.  Reading phases decided earlier in the same round would, on
    this point, decide b[6] before b[-3], and so change the verdicts'
    order."""
    pt = engine.StabilityPoint.from_json({
        "anchor": {"family": "F6", "m": 1, "shift": [0, -1, -3]},
        "charges": [{"re": "-7/16", "im": "0"}, {"re": "14/23", "im": "21/22"},
                    {"re": "-4/15", "im": "10"}],
    })
    verdicts = engine._decide(pt, 4).verdicts()
    assert [str(o) for o in verdicts] == [
        "b[1]", "b[2]", "M'", "b[0]", "b[-1]", "b[-2]", "b[3]", "b[4]", "b[5]",
        "b[-3]", "b[6]",
    ]
    assert verdicts[parse_label("b[-3]")].rules[0] == "closure(b[-2],b[-1][-1],M'[-4])[0]"
    assert verdicts[parse_label("b[6]")].rules[0] == "closure(b[2],b[3][-1],M'[-3])[0]"


def _rescan_points():
    """300 points: 150 sampled from every family, 50 on the standard
    heart, and 50 each quarter-rotated and globally shifted from those."""
    rng = random.Random("rescan-reference")
    pts = [harness._sample_point(rng, FAMILY_IDS, -3, 3, 24) for _ in range(150)]
    while len(pts) < 200:
        charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
        try:
            pts.append(engine.standard_heart_point(charges))
        except ValueError:
            pass
    pts += [engine.rotate_quarter(p, rng.randint(1, 3)) for p in pts[::4]]
    pts += [engine.shift(p, rng.randint(-3, 3)) for p in pts[1:200:4]]
    return pts


class _Reads(list):
    """A list that records the indices read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, j):
        self.reads.append(j)
        return super().__getitem__(j)


@pytest.mark.parametrize("window", (0, 4, 8))
def test_fixpoint_matches_the_rescan(window, monkeypatch):
    """The readiness index scans the triples the rescan of every pending
    triple scanned, in the same rounds and order: the verdicts, their
    spelling and the verdict order are equal on every point.  Each
    standard triple is scanned exactly once when its three slots end up
    semistable, and never otherwise."""
    pts = _rescan_points()
    assert {p.family for p in pts} == set(FAMILY_IDS)
    assert any(any(p.extra_offsets) for p in pts)
    assert any(p.global_shift for p in pts)
    plan = engine._plan(window)
    triples = _Reads(plan.triples)
    monkeypatch.setattr(plan, "triples", triples)
    for p in pts:
        want = _reference.decide_by_rescan(p, window)
        del triples.reads[:]
        got = engine._decide(p, window)
        assert list(got.verdicts().items()) == list(want.verdicts().items()), p
        assert got.order == want.order
        full = [j for j, (_, slots, _) in enumerate(triples)
                if all(got.row[s] is not None and got.row[s][1] is not None
                       for s in slots)]
        assert sorted(triples.reads) == full, p


@pytest.mark.parametrize("window", (0, 4, 8, 32))
def test_analysis_keeps_each_verdict_once(window):
    """An analysis keeps each decided slot's verdict once: ``order`` holds
    exactly the slots that have a ``rule``, each once, and each of those
    slots' ``row`` entry is its spelled verdict's (status, phase).  An
    undecided slot has no rule, and its entry stays None until ``entry``
    fills it with an ``unknown`` one, which leaves its verdict
    ``unknown``.  At window 0 no chain is long enough for a phase gap to
    kill an object, so no verdict is ``unstable`` there.

    A rule is the token itself, never a per-slot tuple: "anchor",
    "big-gap" or the very token of one of the plan's rows.  A witness is
    kept exactly for the slots a big gap killed, and it is the plan's
    universe object that the verdict spells."""
    statuses, undecided = set(), 0
    plan = engine._plan(window)
    for p in _rescan_points():
        an = engine._decide(p, window)
        assert sorted(an.order) == [s for s, r in enumerate(an.rule) if r is not None]
        tokens = set()  # the tokens of the plan's rows built so far
        for _, _, rows in plan.triples:
            for row in filter(None, rows.values()):
                tokens.update(id(c[2]) for c in row.closures)
                if row.outer:
                    tokens.add(id(row.outer[1]))
        assert set(an.witness) == {s for s in an.order if an.rule[s] == "big-gap"}
        for s in an.order:
            v = an.verdict(s)
            statuses.add(v.status)
            assert an.row[s] == (v.status, v.phase)
            assert repr(an.row[s][1]) == repr(v.phase)
            rule = an.rule[s]
            assert rule in ("anchor", "big-gap") or id(rule) in tokens, rule
            w = an.witness.get(s)
            assert (v.witness is None) == (w is None)
            if w is not None:
                assert any(w is o for o in plan.universe)
                w = an.at(w)
                assert v.witness == "phase gap %s..x[%d]" % (w, w.m + 1)
        for s, r in enumerate(an.rule):
            if r is None:
                undecided += 1
                assert an.row[s] is None
                e = an.entry(s)
                assert e[0] == "unknown" and an.row[s] is e
                assert an.verdict(s) == engine.Verdict("unknown")
        assert an.verdict(None) == engine.Verdict("unknown")
    want = {"semistable"} if window == 0 else {"semistable", "unstable"}
    assert statuses == want and undecided


def test_verdicts_and_transformed_points_share_nothing():
    """``semistable`` returns a new Verdict on every call, ``unknown``
    ones included, so a caller that mutates one changes no later answer.
    ``rescale``, ``shift`` and ``rotate_quarter`` of a point whose
    analysis is built, or which is classified, return points with no
    analysis, so no cell verdicts, and with the derived fields of a point
    built afresh from their fields."""
    pts = _rescan_points()
    for p in pts:
        an = p.analysis(8)
        objs = [an.name(s) for s in range(len(an.row))]
        statuses = {engine.semistable(p, x).status for x in objs}
        if statuses == {"semistable", "unstable", "unknown"}:
            break
    assert statuses == {"semistable", "unstable", "unknown"}
    far = ExcObject("a", p.m + 20, 0)  # beyond the universe: unknown
    for x in objs + [far, objs[2].shifted(1)]:
        got = engine.semistable(p, x)
        want = engine.Verdict(got.status, got.phase, got.witness, got.rules)
        got.status, got.phase, got.witness, got.rules = "x", None, "x", ("x",)
        again = engine.semistable(p, x)
        assert again is not got and again == want
    for i, p in enumerate(pts[::15]):
        if i % 2:
            p.analysis(4)
        else:
            regions.classify(p, 4)
            assert p.analysis(4).cells
        for q in (engine.rescale(p, Fraction(3, 7)), engine.shift(p, -1),
                  engine.rotate_quarter(p, 3)):
            assert p.analyses and q.analyses == {}
            assert q.analysis(4).cells == {}
            fresh = engine.StabilityPoint(q.family, q.m, q.shift, q.charges,
                                          q.global_shift, q.extra_offsets)
            assert q == fresh
            assert q.simple == fresh.simple
            assert repr(q.anchor_phases) == repr(fresh.anchor_phases)


def _digest_points():
    rng = random.Random("fixpoint-digest")
    pts = [harness._sample_point(rng, FAMILY_IDS, -3, 3, 24) for _ in range(100)]
    while len(pts) < 200:
        charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
        try:
            pts.append(engine.standard_heart_point(charges))
        except ValueError:
            pass
    return pts


def test_fixpoint_golden_digest():
    """The rule fixpoint's verdicts, phase representations, witnesses, rules
    and dict order on 100 sampled points of every family and 100
    standard-heart points, at windows 4 and 8, hashed.  The constant was
    computed before the fixpoint moved from object-keyed dicts to the
    plan's slots; any change to what the fixpoint derives, or in which
    order, changes it."""
    pts = _digest_points()
    assert {p.family for p in pts} == set(FAMILY_IDS)
    h = hashlib.sha256()
    for p in pts:
        for w in (4, 8):
            h.update(repr(list(engine._decide(p, w).verdicts().items())).encode())
    assert h.hexdigest() == (
        "b614fb67d634954ac825c09627a77a807724cf03d2e2050d7beedb4bbdccb6cf"
    )


def _eager_verdict(an, s):
    """The verdict on slot s spelled in full when it is built, as
    ``Analysis.verdict`` did before it spelled witnesses and rules on
    read."""
    rule = an.rule[s]
    if rule is None:
        return engine.Verdict("unknown")
    w = an.witness.get(s)
    if w is not None:
        w = an.at(w)
        w = "phase gap %s..x[%d]" % (w, w.m + 1)
    if not isinstance(rule, str):
        name, B, suffix = rule
        rule = "%s(%s,%s,%s)%s" % (name, *map(an.at, B), suffix)
    return engine.Verdict(*an.row[s], w, (rule,))


def test_verdicts_spell_rules_and_witnesses_only_when_read(monkeypatch):
    """A verdict spells its rules and witness on their first read, and
    then as it did when it spelled them on construction: on every slot of
    the fixpoint digest's points at windows 4 and 8 the lazy verdict
    equals, and has the repr of, the eager one, whichever field is read
    or assigned first.  ``stab explain`` prints them as before
    (``test_cli_explain`` pins its JSON).  Criterion 6 reads only
    statuses, so a whole ``oracle_agreement`` call spells none."""
    kinds = set()
    for p in _digest_points():
        for w in (4, 8):
            an = p.analysis(w)
            for s in range(len(an.row)):
                want = _eager_verdict(an, s)
                kinds.add((want.status, want.witness is not None))
                assert an.verdict(s) == want and want == an.verdict(s)
                assert repr(an.verdict(s)) == repr(want)
                v = an.verdict(s)
                assert (v.status, v.phase) == (want.status, want.phase)
                assert (v.witness, v.rules) == (want.witness, want.rules)
                v = an.verdict(s)
                v.rules = ("x",)
                assert (v.witness, v.rules) == (want.witness, ("x",))
                v = an.verdict(s)
                v.witness = "x"
                assert (v.witness, v.rules) == ("x", want.rules)
    assert kinds == {("semistable", False), ("unstable", True), ("unknown", False)}
    with pytest.raises(TypeError):
        hash(an.verdict(an.order[0]))

    def unspelled(*args):
        raise AssertionError("spelled a rule or a witness")

    monkeypatch.setattr(engine.Analysis, "label", unspelled)
    monkeypatch.setattr(engine.Analysis, "spelled", unspelled)
    rep = harness.oracle_agreement(20, seed=28)
    assert rep.decided == 20 and not rep.mismatches


def test_closure_contents_leave_out_their_pair(monkeypatch):
    """No closure of a plan row lists the pair it comes from among its
    contents, and with the pair's two objects the contents are the
    closure's objects inside the scope, in order (rows built by the
    fixpoints at windows 0, 4 and 8 of the fixpoint digest's points).
    Those two re-pins could neither decide nor raise because every slot
    decided semistable has a phase with the direction of its charge,
    which the same fixpoints show."""
    rows = 0
    for w in (0, 4, 8):
        plan = engine._Plan(w)
        monkeypatch.setattr(engine, "_plan", lambda window: plan)
        for p in _digest_points():
            an = engine._decide(p, w)
            for s in an.order:
                ph = an.row[s][1]
                if ph is not None:
                    d, z = ph.direction(), engine.charge_of(p, an.name(s))
                    assert d.cross(z) == 0 and d.dot(z) > 0
        for _, _, built in plan.triples:
            for row in filter(None, built.values()):
                for i, inside, rule in row.closures:
                    B = rule[1]
                    ends = {plan.ref(B[i]), plan.ref(B[i + 1])}
                    whole = [r for r in map(plan.ref, closure_content(
                        ext_pair(B[i], B[i + 1]), w)) if r is not None]
                    assert ends <= set(whole) and not ends & set(inside)
                    assert [r for r in whole if r not in ends] == list(inside)
                    rows += 1
    assert rows


def test_lookup_golden_digest():
    """``engine.lookup``'s entry, status and conditional-phase
    representation, of every universe slot and of the six chain objects
    beyond each end of the universe, on the fixpoint digest's points at
    windows 4 and 8, hashed.  An undecided universe object has no
    conditional phase on these points, so the objects beyond the universe
    are the ones whose phases ``phase_in_closed_window`` finds (1,021 of
    them).  The constant was computed before window representatives were
    found by one cross product instead of an offset loop; any change to a
    conditional phase, or to how it is represented, changes it."""
    h = hashlib.sha256()
    for p in _digest_points():
        for w in (4, 8):
            st = p.analysis(w)
            beyond = [ExcObject(kind, p.m + j, 0) for kind in "ab"
                      for j in (*range(-w - 6, -w), *range(w + 2, w + 8))]
            for s in range(len(st.plan.universe)):
                h.update(repr(engine.lookup(p, st.name(s), w)).encode())
            for xb in beyond:
                h.update(repr(engine.lookup(p, xb, w)).encode())
    assert h.hexdigest() == (
        "25ea7c18a557092cd01f2344bad2b1e638058da195688a55788158724514eff9"
    )


def test_fixpoint_builds_only_rows_of_the_shift_set(monkeypatch):
    """The fixpoint skips the shifts outside a triple's shift set before it
    asks the plan for a row (``_Plan.bounds``), so every row it builds, on
    fresh plans at windows 4, 8 and 32 for the fixpoint digest's points,
    is a sigma-triple instance of the shift set, and none is None."""
    built = []
    build = engine._Plan._build

    def recording(self, t, s1, s2):
        row = build(self, t, s1, s2)
        built.append((self.window, t, s1, s2, row))
        return row

    monkeypatch.setattr(engine._Plan, "_build", recording)
    plans = {w: engine._Plan(w) for w in (4, 8, 32)}
    monkeypatch.setattr(engine, "_plan", plans.__getitem__)
    for p in _digest_points():
        for w in plans:
            engine._decide(p, w)
    assert {w for w, *_ in built} == set(plans)
    for w, t, s1, s2, row in built:
        assert in_shift_set(t, (0, s1, s2)) and row is not None, (w, t, s1, s2)


def test_wider_windows_agree_and_decide_a_superset():
    """A wider window runs the fixpoint on more objects and more standard
    triples, but the rules are sound at every window: for every pair of
    windows 0, 4, 8 and 32, on each object both decide the statuses match
    and the semistable phases are the same value, and every object the
    narrower window decides, the wider one decides too.  Checked on the
    fixpoint digest's points (100 sampled from every family and 100 on
    the standard heart)."""
    windows, shared = (0, 4, 8, 32), 0
    for p in _digest_points():
        decided = [p.analysis(w).verdicts() for w in windows]
        for i, small in enumerate(decided):
            for large in decided[i + 1:]:
                assert small.keys() <= large.keys(), (p, small.keys() - large.keys())
                for x, v in small.items():
                    w = large[x]
                    assert v.status == w.status, (p, x, v, w)
                    if v.status == "semistable":
                        assert v.phase.same_as(w.phase), (p, x, v, w)
                shared += len(small)
    assert shared > 0


# Points where a rarely fired rule is the first rule of a verdict, found by
# seeded search (harness._sample_point, and standard-heart charges drawn as
# oracle_agreement draws them).  two-factor fires on the standard heart, so
# the brute-force oracle can judge it; three-factor fired at 120 of 20,000
# sampled points, never with the standard simples semistable in one unit
# interval (so never on a point of the standard heart).
_RARE_RULE_POINTS = [
    ("two-factor", "M'", {
        "anchor": {"family": "F8", "m": 0, "shift": [0, 0, -1]},
        "charges": [{"re": "-1/5", "im": "0"}, {"re": "10/3", "im": "9/11"},
                    {"re": "8/5", "im": "1/3"}]}),
    ("two-factor", "M'", {
        "anchor": {"family": "F8", "m": 0, "shift": [0, 0, -1]},
        "charges": [{"re": "-8/7", "im": "4/5"}, {"re": "-10", "im": "2/15"},
                    {"re": "-5/7", "im": "15/7"}]}),
    ("two-factor", "M", {
        "anchor": {"family": "F7", "m": -2, "shift": [0, 0, -1]},
        "charges": [{"re": "-9", "im": "1"}, {"re": "17/10", "im": "6/7"},
                    {"re": "31/16", "im": "29/13"}]}),
    ("three-factor", "M'", {
        "anchor": {"family": "F3", "m": -1, "shift": [0, -1, -1]},
        "charges": [{"re": "-3", "im": "3/11"}, {"re": "5/13", "im": "2"},
                    {"re": "14/27", "im": "22/5"}]}),
    ("three-factor", "M", {
        "anchor": {"family": "F6", "m": 1, "shift": [0, -1, -1]},
        "charges": [{"re": "5/4", "im": "21/13"}, {"re": "31/23", "im": "17/25"},
                    {"re": "25/29", "im": "17/23"}]}),
    # the three-factor rule anchored at its third object (``anchor_low =
    # p2, s2``), once per letter
    ("three-factor", "M'", {
        "anchor": {"family": "F3", "m": 1, "shift": [0, -1, -1]},
        "charges": [{"re": "-13/11", "im": "0"}, {"re": "-11/9", "im": "0"},
                    {"re": "2", "im": "1"}]}),
    ("three-factor", "M", {
        "anchor": {"family": "F6", "m": -2, "shift": [0, -1, -1]},
        "charges": [{"re": "-1/8", "im": "0"}, {"re": "-7/8", "im": "0"},
                    {"re": "1/5", "im": "6"}]}),
]


@pytest.mark.parametrize("rule, label, point", _RARE_RULE_POINTS)
def test_rare_rule_decides_first(rule, label, point):
    """The rule decides the object first.  Its phase respects every hom
    bound against the other decided objects (a nonzero hom in degree d from
    U to V forces phi(U) <= phi(V) + d).  On the standard heart, every
    verdict on an object under the oracle's size cap matches brute-force
    subrepresentation search."""
    pt = engine.StabilityPoint.from_json(dict(point, global_shift=0))
    x = parse_label(label)
    v = engine.semistable(pt, x)
    assert v.status == "semistable" and v.rules[0].startswith(rule + "(")
    verdicts = engine._decide(pt, engine.DEFAULT_WINDOW).verdicts()
    for o, w in verdicts.items():
        if w.status != "semistable" or o == x:
            continue
        for (u, pu), (y, py) in (((x, v.phase), (o, w.phase)),
                                 ((o, w.phase), (x, v.phase))):
            h = hom_dims(u, y)
            assert h is None or pu.cmp(py.plus(h[0])) <= 0, (u, y)
    if (pt.family, pt.m, pt.shift) != ("F8", 0, (0, 0, -1)):
        return
    checked = 0
    for o, w in verdicts.items():
        if w.status == "unknown" or sum(dim_vector(o)) > ff.MAX_TOTAL_DIM:
            continue
        ok, _ = ff.semistable_in_heart(build_matrices(o), pt.charges)
        assert ok == (w.status == "semistable"), o
        checked += 1
    assert checked > 3


def test_collinear_constraint_makes_charges_parallel():
    # constructed collinear point: phi(M) = phi(M') makes Z(M) || Z(M')
    cpt = harness.sample_sigma(("F8", 0), constraints="phi(M)=phi(M')", seed=3)
    zm = engine.charge_of(cpt, parse_label("M"))
    zmp = engine.charge_of(cpt, parse_label("M'"))
    assert zm.cross(zmp) == 0


def test_point_json_roundtrip():
    pt = engine.StabilityPoint(
        "F2", 1, (0, -1, -2), (_g(-1, 1), _g("1/2", 2), _g(3, "1/3")), 1, (0, 0, 0)
    )
    assert engine.StabilityPoint.from_json(pt.to_json()) == pt


def test_invalid_points_rejected():
    with pytest.raises(ValueError):
        engine.StabilityPoint("F9", 0, (0, 0, -1), (_g(0, 1),) * 3)
    with pytest.raises(ValueError):
        engine.StabilityPoint("F8", 0, (0, 5, 0), (_g(0, 1),) * 3)
    # charges are checked by exact.branch_checked, with its messages
    with pytest.raises(ValueError, match=r"^charge outside the upper branch: "
                       r"Gaussian\(1, -1\)$"):
        engine.StabilityPoint("F8", 0, (0, 0, -1), (_g(0, 1), _g(1, -1), _g(0, 1)))
    with pytest.raises(ValueError, match="^zero charge$"):
        engine.StabilityPoint("F8", 0, (0, 0, -1), (_g(0, 1), _g(0, 0), _g(0, 1)))
    z = _g(0, 1)
    for args in (
        ("F8", 0, (0, 0, -1), ()),
        ("F8", 0, (0, 0, -1), (z, z)),
        ("F8", 0, (0, 0, -1), (z,) * 4),
        ("F8", 0, (0, 0, -1), [z, z, z]),
        ("F8", 0, (0, 0), (z,) * 3),
        ("F8", 0, (0, 0, -1, 0), (z,) * 3),
        ("F8", 0, (0, 0, -1), (z,) * 3, 0, ()),
        ("F8", 0, (0, 0, -1), (z,) * 3, 0, (0, 0)),
        ("F8", 0, (0, 0, -1), (z,) * 3, 0, (0, 0, 0, 0)),
        # anchor phases (1/2, 7/2, 1/2), 3 apart, and (1, 2, 1), 1 apart
        ("F8", 0, (0, 0, -1), (z,) * 3, 0, (0, 3, 0)),
        ("F8", 0, (0, 0, -1), (_g(-1, 0),) * 3, 0, (0, 1, 0)),
    ):
        with pytest.raises(ValueError):
            engine.StabilityPoint(*args)


# ---------------------------------------------------------------------------
# point construction


def _construction_streams():
    """Every point, in order, of the sampler streams the tests and the bench
    workloads draw, and the text of each standard-heart draw that is
    rejected: the first sample of ``verify_lemma`` on every lemma (the
    lemma-suite stream), the ``classify`` workload's stream, the
    ``oracle_agreement`` stream (the heart-oracle workload), the
    test streams of ``_sample_point`` and ``sample_sigma``, the collinear
    sampler, and the rescan points' quarter rotations and global
    shifts."""
    out = []
    for seed in (0, 3101, 7501):
        for k in range(8):
            for lid in harness.LEMMA_IDS:
                rng = random.Random(repr((lid, seed * 1_000_000 + k)))
                if lid == "semi-stability of b" and rng.random() < 0.25:
                    out.append(harness.sample_sigma(
                        ("F8", rng.randint(-2, 2)),
                        constraints="phi(M)=phi(M')", rng=rng, bound=32))
                else:
                    out.append(harness._sample_point(rng, harness._SUITES[lid][1]))
    for seed in (7, 7401):
        rng = random.Random(repr(("classify", seed)))
        for _ in range(400):
            fid = rng.choice(FAMILY_IDS)
            out.append(harness.sample_sigma((fid, rng.randint(-2, 2)),
                                            rng=rng, bound=32))
    for seed in (0, 7601):
        rng = random.Random(("oracle-agreement", seed).__repr__())
        for _ in range(300):
            charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
            try:
                out.append(engine.standard_heart_point(charges))
            except ValueError as e:
                out.append("%s: %s" % (type(e).__name__, e))
    for seed in range(40):
        for lo, hi, bound in ((-2, 2, 32), (-3, 3, 24), (-2, 2, 16)):
            out.append(harness._sample_point(random.Random(seed), FAMILY_IDS,
                                             lo, hi, bound))
    rng = random.Random(17)
    for fid in FAMILY_IDS * 10:
        out.append(harness.sample_sigma((fid, rng.randint(-2, 2)), rng=rng,
                                        bound=24))
    for seed in range(60):
        out.append(harness.sample_sigma(("F8", seed % 5 - 2),
                                        constraints="phi(M)=phi(M')", seed=seed))
    out += _rescan_points() + _digest_points()
    return out


def test_sampled_points_golden_digest():
    """Each point of ``_construction_streams`` as its JSON form, the repr
    of its anchor phases and its simple charges, and each rejected draw
    as its exception, hashed.  The constant was computed before point
    construction was rewritten as one pass (one integer normalisation,
    the spread test on offsets, the shift set from a per-family table):
    any change to a sampled point or to what its construction derives
    changes it."""
    h = hashlib.sha256()
    families = set()
    for p in _construction_streams():
        if isinstance(p, str):
            h.update(p.encode())
            continue
        families.add(p.family)
        h.update(repr((p.to_json(), repr(p.anchor_phases), p.simple)).encode())
    assert families == set(FAMILY_IDS)
    assert h.hexdigest() == (
        "07d35be86d3ccb03a25ccd4dab1cf8d2b9b84cc0067db22d41283b6b8a9882f7"
    )


# each construction that must be rejected, with its exception type and
# text; the checks run in this order: the three tuples, the family, the
# shift set, each charge's branch, the anchor spread
_REJECTED = [
    (("F8", 0, (0, 0, -1), (_g(0, 1), _g(0, 0), _g(0, 1))),
     "ExactError", "zero charge"),
    (("F8", 0, (0, 0, -1), (_g(0, 0),) * 3), "ExactError", "zero charge"),
    (("F8", 0, (0, 0, -1), (_g(0, 1), _g(1, -1), _g(0, 1))),
     "ExactError", "charge outside the upper branch: Gaussian(1, -1)"),
    (("F8", 0, (0, 0, -1), (_g(0, 1), _g(0, 1), _g(1, 0))),
     "ExactError", "charge outside the upper branch: Gaussian(1, 0)"),
    (("F8", 0, (0, 0, -1), (_g(0, 0), _g(1, -1), _g(0, 1))),
     "ExactError", "zero charge"),
    (("F8", 0, (0, 0, -1), (_g(0, 1),) * 3, 0, (0, 3, 0)), "ValueError",
     "anchor phases (Phase(0, Gaussian(0, 1)), Phase(3, Gaussian(0, 1)), "
     "Phase(0, Gaussian(0, 1))) spread by 1 or more (extra_offsets (0, 3, 0))"),
    # a spread of exactly 1, decided by a cross product
    (("F8", 0, (0, 0, -1), (_g(-1, 0),) * 3, 0, (0, 1, 0)), "ValueError",
     "anchor phases (Phase(0, Gaussian(-1, 0)), Phase(1, Gaussian(-1, 0)), "
     "Phase(0, Gaussian(-1, 0))) spread by 1 or more (extra_offsets (0, 1, 0))"),
    (("F8", 2, (0, 0, -1), (_g(1, 1), _g(-1, 1), _g(0, 1)), 5, (-1, 0, 0)),
     "ValueError",
     "anchor phases (Phase(4, Gaussian(1, 1)), Phase(5, Gaussian(-1, 1)), "
     "Phase(5, Gaussian(0, 1))) spread by 1 or more (extra_offsets (-1, 0, 0))"),
    (("F8", 0, (0, 5, 0), (_g(0, 1),) * 3), "ValueError",
     "shift (0, 5, 0) leaves (a[0], M, b[1]) outside Ext position"),
    (("F3", -4, (0, -1, 1), (_g(0, 1),) * 3), "ValueError",
     "shift (0, -1, 1) leaves (a[-4], a[-3], M) outside Ext position"),
    (("F1", 3, (1, -1, -1), (_g(0, 1),) * 3), "ValueError",
     "shift (1, -1, -1) leaves (M', a[3], a[4]) outside Ext position"),
    (("F8", 0, (0, 5, 0), (_g(0, 0),) * 3), "ValueError",
     "shift (0, 5, 0) leaves (a[0], M, b[1]) outside Ext position"),
    (("F9", 0, (0, 0, -1), (_g(0, 1),) * 3), "ValueError",
     "unknown family 'F9'"),
    (("F9", 0, (0, 9, 9), (_g(0, 0),) * 3), "ValueError",
     "unknown family 'F9'"),
    (("F8", 0, [0, 0, -1], (_g(0, 1),) * 3), "ValueError",
     "shift must be a 3-tuple, got [0, 0, -1]"),
    (("F8", 0, (0, 0, -1), [_g(0, 1)] * 3), "ValueError",
     "charges must be a 3-tuple, got [Gaussian(0, 1), Gaussian(0, 1), "
     "Gaussian(0, 1)]"),
    (("F8", 0, (0, 0, -1), (_g(0, 1),) * 3, 0, [0, 0, 0]), "ValueError",
     "extra_offsets must be a 3-tuple, got [0, 0, 0]"),
    (("F8", 0, (0, 0, -1), (_g(0, 1),) * 2), "ValueError",
     "charges must be a 3-tuple, got (Gaussian(0, 1), Gaussian(0, 1))"),
    (("F9", 0, (0, 0), (_g(0, 1),) * 3), "ValueError",
     "shift must be a 3-tuple, got (0, 0)"),
]


@pytest.mark.parametrize("args, kind, text", _REJECTED)
def test_rejected_constructions_keep_their_type_and_text(args, kind, text):
    """Each check of the constructor, in its order, with its exception
    type and message; written before point construction became one pass,
    which had to keep every check, message and order."""
    with pytest.raises(ValueError) as info:
        engine.StabilityPoint(*args)
    assert (type(info.value).__name__, str(info.value)) == (kind, text)


_branch_charges = st.tuples(st.integers(-3, 3), st.integers(0, 3)).filter(
    lambda c: c[1] > 0 or c[0] < 0).map(lambda c: _g(*c))


@settings(max_examples=300, deadline=None)
@given(charges=st.tuples(*[_branch_charges] * 3),
       extra=st.tuples(*[st.integers(-2, 2)] * 3), g=st.integers(-2, 2),
       scale=st.sampled_from([Fraction(1), Fraction(2, 7)]))
@example(charges=(_g(-1, 0),) * 3, extra=(0, 1, 0), g=0, scale=Fraction(1))
@example(charges=(_g(1, 1), _g(-1, 1), _g(0, 1)), extra=(1, 0, 0), g=0,
         scale=Fraction(1))
def test_anchor_spread_matches_the_phase_order(charges, extra, g, scale):
    """The constructor refuses anchor phases that spread by 1 or more
    exactly when the ``Phase`` order says max >= min + 1, on offsets that
    tie, differ by one (where a cross product decides) or by more."""
    charges = tuple(z.scale(scale) for z in charges)
    phases = [Phase(g + e, z) for e, z in zip(extra, charges)]
    spread = max(phases) >= min(phases).plus(1)
    try:
        engine.StabilityPoint("F8", 0, (0, 0, -1), charges, g, extra)
    except ValueError as e:
        assert spread and "spread by 1 or more" in str(e)
    else:
        assert not spread


def test_shift_tables_hold_at_every_chain_index():
    """The per-family tables that construction and the shift draw read
    at import, at m = 0, are those of every index m: the shift-set
    bounds (alpha, beta, gamma), and the depth-2 members the sampler
    draws from, in the order ``rng.choice`` indexes."""
    for fid in FAMILY_IDS:
        for m in range(-8, 9):
            t = family_triple(fid, m)
            assert engine._SHIFT_BOUNDS[fid] == alpha_beta_gamma(t), (fid, m)
            assert harness._SHIFT_MEMBERS[fid] == tuple(
                shift_set_members(t, 2)), (fid, m)


def test_point_fields_must_hold_integers():
    """m, global_shift and each entry of shift and extra_offsets are read
    by the rule of ``exact.exact_int``: a bool, a float or a string is a
    ValueError naming the field, where the point was once built with
    phases whose offset was not an integer (and a later ``classify``
    raised a false paper-rule inconsistency) or a JSON form that
    ``from_json`` refused."""
    pt = _std()
    z = pt.charges
    for make, text in (
        (lambda: engine.shift(pt, 0.5), "global_shift: 0.5 is not an integer"),
        (lambda: engine.StabilityPoint("F8", True, (0, 0, -1), z),
         "m: True is not an integer"),
        (lambda: engine.StabilityPoint("F8", 0, (0, 0.0, -1.0), z),
         "shift: 0.0 is not an integer"),
        (lambda: engine.StabilityPoint("F8", 0, (0, 0, -1), z, "0"),
         "global_shift: '0' is not an integer"),
        (lambda: engine.StabilityPoint("F8", 0, (0, 0, -1), z, 0, (0, 0.5, 0)),
         "extra_offsets: 0.5 is not an integer"),
        # read before the family, like from_json's integers
        (lambda: engine.StabilityPoint("F9", 1.0, (0, 0, -1), z),
         "m: 1.0 is not an integer"),
    ):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == text
    anchor = ("F8", 0, (0, 0.0, -1.0))
    with pytest.raises(ValueError, match=re.escape(repr(anchor))):
        harness.sample_sigma(anchor)
    # what is accepted comes back from its JSON form
    for p in _construction_streams():
        if not isinstance(p, str):
            for q in (p, engine.shift(p, -3), engine.rotate_quarter(p, 3)):
                assert engine.StabilityPoint.from_json(q.to_json()) == q


def test_sampling_reads_its_tables_and_checks_each_charge_once():
    """Drawing and building 200 sampled points calls no ``Phase``
    comparison or constructor (the anchor phases carry charges checked
    once, by ``branch_checked``, and the spread test reads offsets and
    cross products), no shift-set function of ``triples`` (the bounds
    and the drawn members come from per-family tables) and no
    translation of the simple charges (``simple`` and ``plan_simple`` are
    computed once, in the constructor).  Every Python call is recorded by
    its file and qualified name, so a function brought back under any
    name or import is seen."""
    rng = random.Random("one-pass")
    calls = Counter()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename.rpartition("/")[2], code.co_qualname)] += 1

    sys.setprofile(record)
    try:
        pts = [harness.sample_sigma((rng.choice(FAMILY_IDS), rng.randint(-2, 2)),
                                    rng=rng, bound=32) for _ in range(200)]
    finally:
        sys.setprofile(None)
    assert calls[("engine.py", "StabilityPoint.__post_init__")] == len(pts)
    assert calls[("exact.py", "branch_checked")] == 3 * len(pts)
    assert calls[("exact.py", "primitive_multiple")] == len(pts)
    forbidden = [k for k in calls if k in {
        ("exact.py", "Phase.__init__"), ("exact.py", "Phase.cmp"),
        ("engine.py", "_translated_simple"), ("triples.py", "in_shift_set"),
        ("triples.py", "shift_set_members"), ("triples.py", "alpha_beta_gamma"),
    } or k[0] == "exact.py" and k[1] in (
        "Phase.__lt__", "Phase.__le__", "Phase.__gt__", "Phase.__ge__")]
    assert forbidden == []
    assert {p.family for p in pts} == set(FAMILY_IDS)
