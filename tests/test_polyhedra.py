"""Polyhedral membership: difference-interval sets, shifted unions, and the
angular sets with their deformation tracks."""

import random
from fractions import Fraction
from itertools import product
from math import floor

import pytest

from stabq.exact import Gaussian, Phase
from stabq.polyhedra import (
    APPENDIX_IDS,
    IntervalFamily,
    a0_union_member,
    appendix_member,
    feasible,
    homotopy_track,
    s_n_member,
    union_square_member,
)
from stabq.triples import FAMILY_IDS, alpha_beta_gamma, family_triple

from _reference import sample_angular_members, union_square_by_shifts

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


def test_feasible_hand_cases():
    # x0 - x1 <= 1, x1 - x2 <= -2, x2 - x0 <= 0: a cycle of weight -1
    assert not feasible(3, [(0, 1, 1), (1, 2, -2), (2, 0, 0)])
    # weight 0 around the cycle: x = (0, -1, 1) meets it with equality
    assert feasible(3, [(0, 1, 1), (1, 2, -2), (2, 0, 1)])
    # of two parallel bounds the lesser one counts
    assert feasible(2, [(0, 1, 5), (1, 0, -5)])
    assert not feasible(2, [(0, 1, 5), (0, 1, 4), (1, 0, -5)])
    assert not feasible(2, [(0, 1, 4), (0, 1, 5), (1, 0, -5)])
    assert feasible(1, [])
    assert not feasible(1, [(0, 0, -1)])


def _union_draws(rng, n, count):
    """count points of dimension n + 1: random rationals, and every fourth
    one with integer differences, the faces where floor(d) = ceil(d)."""
    def rat():
        return F(rng.randint(-6, 6), rng.randint(1, 3))

    out = []
    for k in range(count):
        if k % 4:
            out.append([rat() for _ in range(n + 1)])
        else:
            c = rat()
            out.append([c + rng.randint(-3, 3) for _ in range(n + 1)])
    return out


@pytest.mark.parametrize("n", (1, 2, 3))
def test_union_square_matches_the_shift_enumeration(n):
    rng = random.Random(10 + n)
    seen = set()
    for y in _union_draws(rng, n, 200):
        got = union_square_member(y, n)
        assert got == union_square_by_shifts(y, n), y
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("n", (1, 2))
def test_union_square_equals_half_infinite_set_on_the_sixth_grid(n):
    """Both sides of criterion 9 on every point (0, y_1..y_n) of the 1/6
    grid with |y_i| <= 6, which meets every face type of the arrangement
    {y_i - y_j in Z}: 73 points for n = 1, 5,329 for n = 2.  Both sides
    read only differences, so y_0 = 0 loses nothing."""
    fam = IntervalFamily.uniform(n, None, 1)
    grid = [F(k, 6) for k in range(-36, 37)]
    count = 0
    for tail in product(grid, repeat=n):
        y = (0,) + tail
        assert union_square_member(y, n) == s_n_member(y, fam), y
        count += 1
    assert count == 73 ** n


def _a0_by_shift_system(phi, t):
    """Some shift (0, s1, s2) of the shift set of t whose copy of
    S^2(-inf, 1) holds phi, decided as one difference system on
    (s0, s1, s2): the copy holds phi exactly when floor(phi_i - phi_j) <=
    s_j - s_i, and the set is s1 <= alpha, s2 <= beta, s2 - s1 <= gamma
    (a None bound being no bound)."""
    pairs = ((0, 1), (0, 2), (1, 2))
    bounds = [(i, j, -floor(phi[i] - phi[j])) for i, j in pairs]
    bounds += [(j, i, w) for (i, j), w in zip(pairs, alpha_beta_gamma(t))
               if w is not None]
    return feasible(3, bounds)


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_a0_union_closed_form_consistency(fid):
    t = family_triple(fid, 0)
    rng = random.Random(fid)
    hits = 0
    for _ in range(60):
        phi = _rand_vec(rng, 2)
        got = a0_union_member(phi, t)
        assert got == _a0_by_shift_system(phi, t), phi
        hits += got
    assert 0 < hits < 60
    # integer differences, where each copy's boundary sits
    for d1, d2 in product(range(-4, 5), repeat=2):
        phi = (F(1, 3), F(1, 3) + d1, F(1, 3) + d2)
        assert a0_union_member(phi, t) == _a0_by_shift_system(phi, t), phi


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
