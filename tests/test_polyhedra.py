"""Polyhedral membership: difference-interval sets, shifted unions, and the
angular sets with their deformation tracks."""

import random
from fractions import Fraction

import pytest

from stabq.exact import Gaussian, Phase
from stabq.polyhedra import (
    APPENDIX_IDS,
    IntervalFamily,
    a0_union_member,
    appendix_member,
    homotopy_track,
    s_n_member,
    union_square_member,
)
from stabq.triples import FAMILY_IDS, family_triple

from _reference import sample_angular_members

F = Fraction


def test_s_n_member_basics():
    unit = IntervalFamily.uniform(2, -1, 1)
    assert s_n_member((0, F(1, 2), F(1, 4)), unit)
    assert not s_n_member((0, 1, 0), unit)  # y0 - y1 = -1 not strict
    assert not s_n_member((0, F(1, 2), 2), unit)
    half = IntervalFamily.uniform(1, None, 1)
    assert s_n_member((0, F(5)), half)  # y0 - y1 = -5 < 1, no lower bound
    assert not s_n_member((0, F(-3, 2)), IntervalFamily.uniform(1, -1, 1))


def test_s_n_member_validates_dimension():
    with pytest.raises(ValueError):
        s_n_member((0, 0), IntervalFamily.uniform(2, -1, 1))
    with pytest.raises(ValueError):
        IntervalFamily.uniform(1, 1, -1)


def _rand_vec(rng, n):
    return [F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n + 1)]


@pytest.mark.parametrize("n", (1, 2))
def test_union_square_matches_half_infinite_set(n):
    fam = IntervalFamily.uniform(n, None, 1)
    rng = random.Random(n)
    agree = {True: 0, False: 0}
    for _ in range(300):
        y = _rand_vec(rng, n)
        got = union_square_member(y, n)
        want = s_n_member(y, fam)
        assert got == want, y
        agree[got] += 1
    assert agree[True] > 0 and agree[False] > 0


def test_union_square_counterexample_dimension_three():
    y = (0, F(-1, 2), F(1, 2), 0)
    assert s_n_member(y, IntervalFamily.uniform(3, None, 1))
    assert not union_square_member(y, 3)


def test_union_square_rejects_small_range():
    with pytest.raises(ValueError):
        union_square_member((0, 0), 4)


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_a0_union_closed_form_consistency(fid):
    t = family_triple(fid, 0)
    rng = random.Random(fid)
    hits = 0
    for _ in range(60):
        phi = _rand_vec(rng, 2)
        hits += a0_union_member(phi, t)  # RuntimeError on any disagreement
    assert 0 < hits < 60


def test_a0_union_hand_values():
    t8 = family_triple("F8", 0)  # bounds (0, -1, -1)
    assert not a0_union_member((0, 0, 0), t8)
    assert a0_union_member((0, 1, 2), t8)
    t3 = family_triple("F3", 0)  # bounds (-1, 0, 0)
    assert not a0_union_member((0, 0, 0), t3)
    assert a0_union_member((0, 1, 1), t3)


def test_appendix_member_hand_case():
    p0 = Phase(0, Gaussian.of(1, 1))
    p1 = Phase(0, Gaussian.of(0, 1))
    p2 = Phase(0, Gaussian.of(3, 4))
    pt = (p0, p1, p2)
    # v0 + v1 = (1, 2); its window argument exceeds p2
    assert appendix_member(pt, "Ugt")
    assert not appendix_member(pt, "Ult")
    # same directions with p2 past the extension argument
    pt2 = (p0, p1, Phase(0, Gaussian.of(1, 3)))
    assert appendix_member(pt2, "Ult")
    assert not appendix_member(pt2, "Ugt")
    with pytest.raises(ValueError):
        appendix_member(pt, "nope")


def test_appendix_member_translation_invariance():
    for set_id in ("Ugt", "Ult", "U2"):
        for pt in sample_angular_members(set_id, 5, seed=42):
            shifted = tuple(p.plus(1) for p in pt)
            assert appendix_member(shifted, set_id)
            assert appendix_member(tuple(p.plus(-2) for p in pt), set_id)


@pytest.mark.parametrize("set_id", APPENDIX_IDS)
def test_appendix_sets_are_nonempty_or_evaluable(set_id):
    # every registered id at least evaluates on a generic triple
    pt = (
        Phase(0, Gaussian.of(1, 1)),
        Phase(0, Gaussian.of(0, 1)),
        Phase(0, Gaussian.of(-1, 1)),
    )
    assert appendix_member(pt, set_id) in (True, False)


@pytest.mark.parametrize("set_id", ("Ugt", "Ult", "U2"))
def test_homotopy_track_smoke(set_id):
    samples = sample_angular_members(set_id, 3, seed=7)
    rep = homotopy_track(set_id, samples, grid=6)
    assert rep["ok"], rep
    assert rep["points_checked"] > 0
    assert rep["samples"] == 3 and rep["set"] == set_id


def test_homotopy_track_rejects_bad_input():
    with pytest.raises(ValueError):
        homotopy_track("V1a", [])
    non_member = (
        Phase(0, Gaussian.of(1, 1)),
        Phase(0, Gaussian.of(1, 1)),
        Phase(0, Gaussian.of(1, 1)),
    )
    with pytest.raises(ValueError):
        homotopy_track("Ugt", [non_member])
