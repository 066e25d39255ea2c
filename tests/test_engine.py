"""The rule-based semistability engine: anchors, derived verdicts, symmetry
invariance, and the collinearity scan."""

import random
from fractions import Fraction

import pytest

from stabq import engine, harness
from stabq.catalog import ExcObject, parse_label
from stabq.exact import Gaussian, Phase, int_phase, phase_diff
from stabq.triples import FAMILY_IDS, family_triple


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
    for o in engine._universe(pt, 4):
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
            for o in engine._universe(pt, 3):
                for x in (o, o.shifted(1)):
                    z = engine.charge_of(pt, x)
                    assert type(z.re) is int and type(z.im) is int
                    re, im = _true_charge(pt, kclass(x))
                    # z = t * Z(x) with t > 0, the same t for the whole point
                    t = Fraction(z.re, 1) / re if re else Fraction(z.im, 1) / im
                    assert t > 0 and (z.re, z.im) == (t * re, t * im)
                    assert factor in (None, t)
                    factor = t


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
        for o in engine._universe(pt, engine.DEFAULT_WINDOW):
            engine.semistable(pt, o)  # EngineError would fail the test


def test_conditional_phase_consistency():
    rng = random.Random(5)
    for _ in range(20):
        pt = harness.sample_sigma(("F8", 0), rng=rng, bound=16)
        for o in engine._universe(pt, 4):
            v = engine.semistable(pt, o)
            try:
                cp = engine.conditional_phase(pt, o.base())
            except Exception:
                continue
            if v.status == "unstable":
                assert cp is None
            elif v.status == "semistable" and v.phase is not None:
                assert cp.same_as(v.phase)


def test_collinearity_scan_generic_and_degenerate():
    pt = _std()
    rep = engine.collinearity_scan(pt, "a", half=3)
    assert not rep["degenerate"]
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
    with pytest.raises(ValueError):
        engine.StabilityPoint("F8", 0, (0, 0, -1), (_g(0, 1), _g(1, -1), _g(0, 1)))
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
    ):
        with pytest.raises(ValueError):
            engine.StabilityPoint(*args)
