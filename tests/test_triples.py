"""Exceptional triples: families, shift sets, mutations, extension closures."""

import random

import pytest

from stabq.catalog import ExcObject, hom_dims, kclass, parse_label
from stabq.triples import (
    FAMILY_IDS,
    ExcTriple,
    alpha_beta_gamma,
    closure_content,
    ext_pair,
    extreme_shift,
    family_triple,
    in_shift_set,
    is_exceptional_collection,
    is_ext_collection,
    match_family,
    mutate_left,
    mutate_right,
    mutate_triple,
    shift_set_members,
)

_ABG = {
    "F1": (-1, -1, -1),
    "F2": (-1, -1, -1),
    "F3": (-1, 0, 0),
    "F4": (-1, -1, -1),
    "F5": (-1, -1, -1),
    "F6": (-1, 0, 0),
    "F7": (0, -1, -1),
    "F8": (0, -1, -1),
}


@pytest.mark.parametrize("fid", FAMILY_IDS)
@pytest.mark.parametrize("m", range(-3, 4))
def test_families_are_exceptional(fid, m):
    t = family_triple(fid, m)
    assert is_exceptional_collection(t)
    assert is_ext_collection(t.shifted(extreme_shift(t)))


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_alpha_beta_gamma_values(fid):
    for m in (-2, 0, 3):
        assert alpha_beta_gamma(family_triple(fid, m)) == _ABG[fid]


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_shift_set_structure(fid):
    t = family_triple(fid, 1)
    top = extreme_shift(t)
    assert in_shift_set(t, top)
    # componentwise maximal
    assert not in_shift_set(t, (top[0], top[1] + 1, top[2]))
    assert not in_shift_set(t, (top[0], top[1], top[2] + 1))
    members = shift_set_members(t, depth=3)
    assert top in members
    for p in members:
        assert in_shift_set(t, p)
        assert is_ext_collection(t.shifted(p))


# the families as label strings: the reference for the shape table
_FAMILY_LABELS = {
    "F1": ("M'", "a[{m}]", "a[{m1}]"),
    "F2": ("a[{m}]", "b[{m1}]", "a[{m1}]"),
    "F3": ("a[{m}]", "a[{m1}]", "M"),
    "F4": ("M", "b[{m}]", "b[{m1}]"),
    "F5": ("b[{m}]", "a[{m}]", "b[{m1}]"),
    "F6": ("b[{m}]", "b[{m1}]", "M'"),
    "F7": ("b[{m}]", "M'", "a[{m}]"),
    "F8": ("a[{m}]", "M", "b[{m1}]"),
}


def test_family_triple_matches_label_reference():
    assert set(_FAMILY_LABELS) == set(FAMILY_IDS)
    for fid, labels in _FAMILY_LABELS.items():
        for m in range(-30, 31):
            ref = ExcTriple(
                tuple(parse_label(s.format(m=m, m1=m + 1)) for s in labels)
            )
            assert family_triple(fid, m) == ref


def test_match_family_roundtrip():
    for fid in FAMILY_IDS:
        for m in (-2, 0, 2):
            t = family_triple(fid, m)
            assert match_family(t) == (fid, m, 0)
            assert match_family(t.shift_all(3)) == (fid, m, 3)


def _base_in_families(t: ExcTriple):
    base = tuple(o.base() for o in t.objs)
    ms = [o.m for o in base if o.kind in ("a", "b")]
    for fid in FAMILY_IDS:
        for m in range(min(ms) - 1, max(ms) + 1):
            ft = family_triple(fid, m)
            if tuple(o.base() for o in ft.objs) == base:
                return (fid, m)
    return None


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_single_mutations_stay_in_the_family_list(fid):
    for m in range(-3, 4):
        t = family_triple(fid, m)
        for op in ("L0", "R0", "L1", "R1"):
            mt = mutate_triple(t, op)
            assert is_exceptional_collection(mt)
            assert _base_in_families(mt) is not None, (fid, m, op, str(mt))


def test_mutations_are_inverse_up_to_shift():
    for fid in FAMILY_IDS:
        t = family_triple(fid, 2)
        x, y = t[0], t[1]
        assert mutate_left(y, mutate_right(x, y)).base() == x.base()
        assert mutate_right(mutate_left(x, y), x).base() == y.base()


def test_braid_relation():
    for fid in FAMILY_IDS:
        t = family_triple(fid, 0)
        lhs = mutate_triple(mutate_triple(mutate_triple(t, "R0"), "R1"), "R0")
        rhs = mutate_triple(mutate_triple(mutate_triple(t, "R1"), "R0"), "R1")
        assert tuple(kclass(o) for o in lhs) == tuple(kclass(o) for o in rhs)


def test_kronecker_orbits_do_not_mix():
    rng = random.Random(11)
    for kind in ("a", "b"):
        pair = (ExcObject(kind, 0, 0), ExcObject(kind, 1, 0))
        for _ in range(50):
            if rng.random() < 0.5:
                pair = (pair[1], mutate_right(pair[0], pair[1]))
            else:
                pair = (mutate_left(pair[0], pair[1]), pair[0])
            assert {pair[0].kind, pair[1].kind} == {kind}
            h = hom_dims(pair[0], pair[1])
            assert h is not None and h[1] == 2


def test_ext_pair_detection():
    p = ext_pair(parse_label("a[0]"), parse_label("a[1][-1]"))
    assert p is not None and (p.degree, p.dim) == (1, 2)
    assert ext_pair(parse_label("a[1]"), parse_label("a[0]")) is None  # backward hom
    p1 = ext_pair(parse_label("a[0]"), parse_label("M"))
    assert p1 is not None and (p1.degree, p1.dim) == (1, 1)


def test_closure_content_two_dim():
    p = ext_pair(parse_label("a[0]"), parse_label("a[1][-1]"))
    content = closure_content(p, window=3)
    labels = {str(o) for o in content}
    assert "a[0]" in labels and "a[1][-1]" in labels
    assert "a[-2]" in labels and "a[3][-1]" in labels
    assert len(content) == 6


def test_closure_content_middle_classes():
    """For rank-one pairs the middle object carries the sum of the classes of
    the degree-one pair."""
    cases = [
        ("a[2]", "M"),
        ("b[2]", "M'"),
        ("M", "b[-1]"),
        ("M'", "a[3]"),
        ("a[1]", "b[2]"),
        ("b[0]", "a[0]"),
    ]
    for xs, ys in cases:
        x, y = parse_label(xs), parse_label(ys)
        p = ext_pair(x, y)
        assert p is not None and p.dim == 1
        content = closure_content(p)
        assert content is not None and len(content) == 3
        x0, y1, mid = content
        assert x0 == x
        assert kclass(mid) == kclass(x0) + kclass(y1), (xs, ys)


def test_closure_content_respects_explicit_shifts():
    x, y = parse_label("a[2][2]"), parse_label("M[1]")
    p = ext_pair(x, y)
    content = closure_content(p)
    x0, y1, mid = content
    assert kclass(mid) == kclass(x0) + kclass(y1)
