"""Finite-field oracle: explicit matrices, subrepresentation search, and
brute-force semistability in the standard heart."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from stabq import engine, ff, harness
from stabq.catalog import build_matrices, hom_dims, parse_label
from stabq.exact import ExactError, Gaussian, primitive_multiple
from stabq.ff import (
    FiniteRep,
    all_subreps,
    all_subspaces_with_sets,
    restrict,
    semistable_in_heart,
)
from stabq.gf import GF, mat_vec
from stabq.quiver import Vec3

_SMALL = [
    "M",
    "M'",
    "a[0]",
    "a[-1]",
    "a[1]",
    "a[2]",
    "b[0]",
    "b[-1]",
    "b[1]",
    "b[2]",
]


@pytest.mark.parametrize("label", _SMALL)
@pytest.mark.parametrize("q", (2, 3))
def test_built_matrices_are_exceptional(label, q):
    rep = build_matrices(parse_label(label), q=q)
    assert rep.is_exceptional()


def test_hom_dims_match_matrix_computation():
    """On plain representations the abstract oracle and the matrix-level
    computation agree in degrees 0 and 1."""
    labels = ["M", "M'", "a[0]", "a[-1]", "a[1]", "b[0]", "b[1]", "b[-1]"]
    for xs in labels:
        for ys in labels:
            x, y = parse_label(xs), parse_label(ys)
            rx = build_matrices(x)
            ry = build_matrices(y)
            h = hom_dims(x.shifted(-x.baked_shift()), y.shifted(-y.baked_shift()))
            hom0 = 0 if h is None or h[0] != 0 else h[1]
            ext1 = 0 if h is None or h[0] != 1 else h[1]
            assert rx.hom_dim(ry) == hom0, (xs, ys)
            assert rx.ext1_dim(ry) == ext1, (xs, ys)


def test_all_subreps_simple_cases():
    m = build_matrices(parse_label("M"))
    assert set(all_subreps(m)) == {Vec3(0, 0, 0), Vec3(0, 1, 0)}
    mp = build_matrices(parse_label("M'"))
    assert set(all_subreps(mp)) == {
        Vec3(0, 0, 0),
        Vec3(0, 0, 1),
        Vec3(1, 0, 1),
    }


def test_all_subreps_closed_under_arrows():
    rep = build_matrices(parse_label("a[2]"))
    subs = all_subreps(rep)
    assert Vec3(0, 0, 0) in subs and rep.dims in subs
    # every witness really is a subrepresentation: restriction works and has
    # the recorded dimensions
    for d, w in subs.items():
        sub = restrict(rep, w)
        assert sub.dims == d


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q", (2, 3, 4))
def test_subspace_tables_count_and_are_shared(q):
    for d in range(5):
        table = all_subspaces_with_sets(GF(q), d)
        assert len(table) == sum(_gaussian_binomial(d, k, q) for k in range(d + 1))
        assert len({s for _, s in table}) == len(table)
        assert all(len(s) == q ** len(b) for b, s in table)
        # built once: a second call, with a new field object, gets the same
        # table, made of tuples and frozensets only
        assert all_subspaces_with_sets(GF(q), d) is table
        assert isinstance(table, tuple)
        for entry in table:
            assert isinstance(entry, tuple) and isinstance(entry[1], frozenset)
            assert isinstance(entry[0], tuple)
            assert all(isinstance(v, tuple) for v in entry[0])
        with pytest.raises(TypeError):
            table[0] = table[-1]
    assert len(all_subspaces_with_sets(GF(2), 4)) == 67
    assert len(all_subspaces_with_sets(GF(3), 3)) == 28


def _fresh_subreps(rep):
    """all_subreps by brute force over fresh subspace tables: every triple
    of subspaces, the last vertex innermost, kept when the arrows map it
    into itself; the first witness of each dimension vector wins."""
    F = rep.F
    tables = [ff._subspaces(F, d) for d in rep.dims]
    arrows = ((0, 1, rep.lr), (0, 2, rep.lt), (1, 2, rep.rt))
    out = {}
    for triple in product(*tables):
        if all(
            tuple(mat_vec(F, mat, v)) in triple[dst][1]
            for src, dst, mat in arrows
            for v in triple[src][0]
        ):
            d = Vec3(*(len(b) for b, _ in triple))
            out.setdefault(d, tuple(b for b, _ in triple))
    return out


def test_all_subreps_matches_fresh_enumeration():
    for obj, rep, _ in harness._heart_test_objects():
        ref = _fresh_subreps(rep)
        subs = all_subreps(rep)
        assert list(subs.items()) == list(ref.items()), obj
        # the witnesses are the caller's own lists: changing one leaves the
        # shared subspace tables, and so the next enumeration, intact
        for w in subs.values():
            for basis in w:
                basis.append(None)
        assert list(all_subreps(rep).items()) == list(ref.items()), obj


def test_heart_test_objects_are_the_oracle_sized_heart_objects():
    """Criterion 6 judges the exceptional objects of the standard heart of
    total dimension at most ``ff.MAX_TOTAL_DIM``, the size ``stab oracle``
    accepts, in this order."""
    assert [str(o) for o, _, _ in harness._heart_test_objects()] == [
        "M", "M'", "a[0]", "a[1][1]", "b[1][1]", "b[0]", "a[-1]", "a[2][1]",
        "b[2][1]", "b[-1]", "a[-2]", "a[3][1]", "b[3][1]", "b[-2]", "a[-3]",
        "a[4][1]", "b[4][1]", "b[-3]"]
    for o, rep, _ in harness._heart_test_objects():
        assert sum(rep.dims) <= ff.MAX_TOTAL_DIM, o


def test_heart_test_objects_built_once_and_immutable():
    objs = harness._heart_test_objects()
    assert harness._heart_test_objects() is objs
    assert isinstance(objs, tuple) and len(objs) == 18
    with pytest.raises(TypeError):
        objs[0] = objs[-1]
    for obj, rep, rays in objs:
        assert isinstance(rays, tuple)
        assert rays == ff.extreme_rays(all_subreps(rep), rep.dims), obj
        with pytest.raises(TypeError):
            rays[0] = rep.dims
        if rep.lr:
            with pytest.raises(TypeError):
                rep.lr[0] = ()


def _solve(cols, v):
    """The coefficients of v in the vectors cols, exactly, when cols are
    linearly independent and v lies in their span; None otherwise."""
    n = len(cols)
    rows = [[Fraction(c[i]) for c in cols] + [Fraction(v[i])] for i in range(3)]
    for j in range(n):
        p = next((i for i in range(j, 3) if rows[i][j]), None)
        if p is None:
            return None
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i in range(3):
            if i != j and rows[i][j]:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[j])]
    if any(rows[i][n] for i in range(n, 3)):
        return None
    return [rows[i][n] for i in range(n)]


def _in_cone(v, rays):
    """Whether v is a nonnegative combination of rays: by Caratheodory's
    theorem, of a linearly independent subset of at most three."""
    return any(
        (lam := _solve(cols, v)) is not None and min(lam) >= 0
        for k in (1, 2, 3)
        for cols in combinations(rays, k)
    )


def test_extreme_rays_of_a_small_cone():
    """Vectors of one ray keep the first; points inside the hull or inside
    an edge are no rays; zero and the whole are left out."""
    whole = Vec3(3, 3, 3)
    vs = [Vec3(0, 0, 0), Vec3(2, 0, 0), Vec3(1, 1, 1), Vec3(1, 0, 0),
          Vec3(0, 1, 0), Vec3(1, 1, 0), Vec3(0, 0, 2), whole]
    assert ff.extreme_rays(vs, whole) == (Vec3(2, 0, 0), Vec3(0, 1, 0),
                                          Vec3(0, 0, 2))
    # all on one line of the projection: its two ends
    line = [Vec3(1, 0, 1), Vec3(0, 0, 1), Vec3(2, 0, 2), Vec3(1, 0, 0)]
    assert ff.extreme_rays(line, whole) == (Vec3(0, 0, 1), Vec3(1, 0, 0))
    assert ff.extreme_rays([Vec3(0, 0, 0), Vec3(1, 0, 1)], whole) == (
        Vec3(1, 0, 1),)
    assert ff.extreme_rays([Vec3(0, 0, 0), whole], whole) == ()


def test_extreme_rays_span_every_subrepresentation():
    """On each of the 18 test objects the rays are subrepresentation
    vectors, every proper nonzero subrepresentation vector is a
    nonnegative combination of them, and none of them is one of the
    others; 221 vectors (zero and whole included) give 45 rays."""
    n_subs = n_rays = 0
    for obj, rep, rays in harness._heart_test_objects():
        subs = list(all_subreps(rep))
        assert set(rays) <= set(subs), obj
        proper = [d for d in subs if not d.is_zero() and d != rep.dims]
        assert all(_in_cone(d, rays) for d in proper), obj
        for r in rays:
            assert not _in_cone(r, [x for x in rays if x != r]), (obj, r)
        n_subs += len(subs)
        n_rays += len(rays)
    assert (n_subs, n_rays) == (221, 45)


def test_extreme_rays_follow_one_pattern_per_kind():
    """The rays of the four chain kinds for k = 1..3: dimension vectors of
    simples, of M, M' and delta, and of chain neighbours."""
    rays = {tuple(rep.dims): set(map(tuple, r))
            for _, rep, r in harness._heart_test_objects()}
    for k in (1, 2, 3):
        assert rays[(k + 1, k, k)] == {(0, 0, 1), (0, 1, 1), (1, 1, 1),
                                       (1, 0, 1)}
        assert rays[(k + 1, k + 1, k)] == {(0, 0, 1), (0, 1, 0), (1, 1, 1)}
        assert rays[(k, k + 1, k + 1)] == {(0, 0, 1), (0, 1, 1),
                                           (k - 1, k, k), (k, k, k + 1)}
        assert rays[(k, k, k + 1)] == {(0, 0, 1), (0, 1, 1),
                                       (k - 1, k - 1, k), (k - 1, k, k)}


def test_king_compare_on_the_rays_matches_the_full_scan():
    """On 2,000 standard-heart points, King's compare on the rays gives the
    verdict of the scan over every subrepresentation, and a destabilizer
    whose charge has the direction of the full scan's."""
    rng = random.Random(("rays", 2000).__repr__())
    objs = _full_scan_objects()
    rays = [r for _, _, r in harness._heart_test_objects()]
    unstable = 0
    for _ in range(2000):
        charges = tuple(harness._rand_charge(rng, 16) for _ in range(3))
        simple = engine.standard_heart_point(charges).simple
        for (obj, rep, subs), rs in zip(objs, rays):
            ok, destab = semistable_in_heart(rep, simple, subreps=subs)
            got_ok, got = semistable_in_heart(rep, simple, subreps=rs)
            assert got_ok == ok, obj
            if ok:
                assert got is None
                continue
            unstable += 1
            z, w = (engine._charge(simple, d) for d in (destab, got))
            assert z.cross(w) == 0 and z.dot(w) > 0, (obj, destab, got)
    assert 0 < unstable < 2000 * 18


def _report_without_time(rep):
    out = rep.to_json()
    del out["wall_time"]
    return out


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_oracle_agreement_same_from_cold_and_warm_table(seed):
    harness._heart_test_objects.cache_clear()
    cold = _report_without_time(harness.oracle_agreement(200, seed=seed))
    warm = _report_without_time(harness.oracle_agreement(200, seed=seed))
    assert cold == warm
    assert cold["mismatches"] == [] and cold["decided"] > 0


def _rand_rational_charge(rng):
    im = Fraction(rng.randint(0, 16), rng.randint(1, 16))
    if im == 0:
        re = Fraction(-rng.randint(1, 16), rng.randint(1, 16))
    else:
        re = Fraction(rng.randint(-16, 16), rng.randint(1, 16))
    return Gaussian.of(re, im)


@lru_cache(maxsize=None)
def _full_scan_objects():
    """The oracle's 18 test objects with every subrepresentation vector,
    ``tuple(all_subreps(rep))``, where the oracle's table keeps rays."""
    return tuple((obj, rep, tuple(all_subreps(rep)))
                 for obj, rep, _ in harness._heart_test_objects())


def _reference_semistable(rep, charges, subs):
    """The oracle's verdict on Fraction charges, comparing arguments in
    (0, pi] by the sign of the cross product."""
    def z(d):
        return (
            sum(Fraction(c.re) * k for c, k in zip(charges, d)),
            sum(Fraction(c.im) * k for c, k in zip(charges, d)),
        )

    def above(u, v):  # arg u > arg v
        return v[0] * u[1] - v[1] * u[0] > 0

    whole = z(rep.dims)
    worst = None
    for d in subs:
        if d.is_zero() or d == rep.dims:
            continue
        if above(z(d), whole) and (worst is None or above(z(d), z(worst))):
            worst = d
    return (worst is None, worst)


def test_semistable_in_heart_matches_fraction_reference():
    rng = random.Random(2024)
    objs = _full_scan_objects()
    assert len(objs) == 18
    unstable = 0
    for _ in range(200):
        charges = tuple(_rand_rational_charge(rng) for _ in range(3))
        lam = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        scaled = tuple(c.scale(lam) for c in charges)
        for obj, rep, subs in objs:
            want = _reference_semistable(rep, charges, subs)
            assert semistable_in_heart(rep, charges, subreps=subs) == want, obj
            assert semistable_in_heart(rep, scaled, subreps=subs) == want, obj
            unstable += not want[0]
    assert 0 < unstable < 200 * 18


def test_king_compare_reads_int_fraction_and_mixed_charges_alike():
    """``semistable_in_heart`` gives one (ok, witness) for integer charges,
    for their multiples by a positive ``Fraction`` (integral ones
    included) and for the same charges with each component an ``int`` or
    a ``Fraction`` at random, on every subrepresentation and on the rays;
    the integer verdict is the Fraction reference's.  A zero
    representation is a ValueError whatever the charges."""
    rng = random.Random("king-compare-component-types")
    objs = _full_scan_objects()
    rays = [r for _, _, r in harness._heart_test_objects()]
    unstable = 0
    for _ in range(150):
        ints = tuple(Gaussian(rng.randint(-16, 16), rng.randint(1, 16))
                     for _ in range(3))
        lam = Fraction(rng.randint(1, 9), rng.choice((1, rng.randint(1, 9))))
        scaled = tuple(z.scale(lam) for z in ints)
        mixed = tuple(Gaussian(*(c if rng.random() < 0.5 else Fraction(c)
                                 for c in (z.re, z.im))) for z in ints)
        for (obj, rep, subs), rs in zip(objs, rays):
            want = _reference_semistable(rep, ints, subs)
            assert semistable_in_heart(rep, ints, subreps=subs) == want, obj
            on_rays = semistable_in_heart(rep, ints, subreps=rs)
            for zs in (scaled, mixed):
                assert semistable_in_heart(rep, zs, subreps=subs) == want, obj
                assert semistable_in_heart(rep, zs, subreps=rs) == on_rays, obj
            unstable += not want[0]
    assert 0 < unstable < 150 * len(objs)
    rep = objs[0][1]
    zero = FiniteRep(rep.F, Vec3(0, 0, 0), (), (), ())
    for zs in (ints, scaled, mixed):
        with pytest.raises(ValueError, match="zero representation"):
            semistable_in_heart(zero, zs)
        with pytest.raises(ValueError, match="zero representation"):
            semistable_in_heart(zero, zs, subreps=rays[0])


_RAT = st.fractions(min_value=-16, max_value=16, max_denominator=16)
_POS = st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16)
# an upper-branch charge: on the negative real axis, or above the real axis
_UPPER = st.one_of(
    st.builds(lambda r: Gaussian.of(-r, 0), _POS),
    st.builds(Gaussian.of, _RAT, _POS),
)


# two or more subrepresentations tie for the largest argument above the
# whole (e.g. (0,0,1) and (0,1,1) of a[-1] at the first), so the first one
# in key order must be the witness
@example(charges=(Gaussian.of(1, 1), Gaussian.of(0, 1), Gaussian.of(0, 1)),
         lam=Fraction(1))
@example(charges=(Gaussian.of(1, 1), Gaussian.of(-1, 1), Gaussian.of(1, 1)),
         lam=Fraction(3, 7))
@example(charges=(Gaussian.of(1, 2), Gaussian.of(1, 2), Gaussian.of(-1, 1)),
         lam=Fraction(5))
@settings(max_examples=150, deadline=None)
@given(charges=st.tuples(_UPPER, _UPPER, _UPPER), lam=_POS)
def test_king_compare_matches_the_normarg_reference(charges, lam):
    """The oracle's (ok, destabilizer) equals the version that compares
    with two normarg_cmp calls per subrepresentation, on rational charges,
    on a positively scaled copy, and on their integer normalisation."""
    scaled = tuple(c.scale(lam) for c in charges)
    ints = primitive_multiple(charges)
    for obj, rep, subs in _full_scan_objects():
        want = _reference.semistable_in_heart(rep, charges, subs)
        for zs in (charges, scaled, ints):
            assert semistable_in_heart(rep, zs, subreps=subs) == want, obj


def test_king_compare_rejects_charges_outside_the_branch():
    """A simple charge below the real axis makes some subrepresentation's
    charge leave the upper branch: both versions raise the same
    ExactError."""
    charges = (Gaussian.of(3, -1), Gaussian.of(0, 1), Gaussian.of(0, 1))
    obj, rep, subs = next(o for o in harness._heart_test_objects()
                          if o[1].dims.L > 0 and len(o[2]) > 2)
    with pytest.raises(ExactError) as want:
        _reference.semistable_in_heart(rep, charges, subs)
    with pytest.raises(ExactError) as got:
        semistable_in_heart(rep, charges, subreps=subs)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("charge outside the upper branch")


def _chg(re0, im0, re1, im1, re2, im2):
    return (
        Gaussian.of(Fraction(re0), Fraction(im0)),
        Gaussian.of(Fraction(re1), Fraction(im1)),
        Gaussian.of(Fraction(re2), Fraction(im2)),
    )


def test_simples_always_semistable():
    charges = _chg(-3, 1, 0, 2, 5, 1)
    for label in ("M",):
        rep = build_matrices(parse_label(label))
        ok, destab = semistable_in_heart(rep, charges)
        assert ok and destab is None


def test_known_destabilizer():
    # b^0 has dimension (1,1,0) and contains the simple (0,1,0); pushing the
    # argument of z_R far ahead destabilizes it.
    rep = build_matrices(parse_label("b[0]"))
    assert rep.dims == Vec3(1, 1, 0)
    charges = _chg(1, 1, -5, 1, 1, 2)  # arg z_R near pi
    ok, destab = semistable_in_heart(rep, charges)
    assert not ok and destab == Vec3(0, 1, 0)
    # with z_R behind z_L the subobject does not destabilize
    charges = _chg(-5, 1, 1, 1, 1, 2)
    ok, destab = semistable_in_heart(rep, charges)
    assert ok
