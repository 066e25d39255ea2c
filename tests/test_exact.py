"""Property and hand-check tests for the exact phase arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _reference
from stabq.exact import (
    ExactError,
    Gaussian,
    Phase,
    frac_to_str,
    int_phase,
    phase_add,
    phase_diff,
    phase_in_closed_window,
    window_arg,
)

_fracs = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)


def _charges():
    return st.builds(Gaussian, _fracs, _fracs).filter(lambda z: not z.is_zero())


def _upper():
    return _charges().map(lambda z: z if z.in_upper_branch() else -z)


def _phases():
    return st.builds(Phase, st.integers(-3, 3), _upper())


# ---------------------------------------------------------------------------
# Gaussian arithmetic


@given(_charges(), _charges())
def test_cross_antisymmetric(z, w):
    assert z.cross(w) == -w.cross(z)


@given(_charges(), _charges(), _charges())
def test_cross_bilinear(z, w, u):
    assert (z + w).cross(u) == z.cross(u) + w.cross(u)
    assert z.cross(w + u) == z.cross(w) + z.cross(u)


@given(_charges())
def test_quarter_turns(z):
    i = Gaussian.of(0, 1)
    assert z * i * i * i * i == z
    assert z * i * i == -z
    assert z * i == Gaussian(-z.im, z.re)


@given(_charges(), _charges())
def test_side_of_antisymmetric(z, v):
    Side = _reference.Side
    s1, s2 = _reference.side_of(z, v), _reference.side_of(v, z)
    if s1 is Side.ON_LINE:
        assert s2 is Side.ON_LINE
    else:
        assert s2 is not s1 and s2 is not Side.ON_LINE


@given(_charges())
def test_json_roundtrip(z):
    assert Gaussian.from_json(z.to_json()) == z


def test_json_reads_rational_strings_and_ints_only():
    assert Gaussian.from_json({"re": "-7/2", "im": 3}) == Gaussian.of("-7/2", 3)
    for bad in (0.1, True, False, 1.0, None, [1]):
        with pytest.raises(ValueError, match="not a rational string"):
            Gaussian.from_json({"re": "1", "im": bad})
        with pytest.raises(ValueError, match="not a rational string"):
            Gaussian.from_json({"re": bad, "im": "1"})


def test_frac_to_str():
    assert frac_to_str(Fraction(3)) == "3"
    assert frac_to_str(Fraction(-7, 2)) == "-7/2"


# ---------------------------------------------------------------------------
# phases


@given(_phases(), _phases())
def test_phase_order_total(p, q):
    c = p.cmp(q)
    assert c in (-1, 0, 1)
    assert q.cmp(p) == -c


@given(_phases(), _phases(), _phases())
def test_phase_order_transitive(p, q, r):
    trio = sorted([p, q, r])
    assert trio[0] <= trio[1] <= trio[2]
    assert trio[0] <= trio[2]


@given(_phases(), _phases())
def test_diff_then_add_roundtrip(p, q):
    assert phase_add(q, phase_diff(p, q)).same_as(p)


@given(_phases(), st.integers(-3, 3))
def test_plus_shifts_by_integers(p, n):
    assert phase_diff(p.plus(n), p).same_as(int_phase(n))


@given(_phases(), st.integers())
def test_plus_equals_the_validated_constructor(p, n):
    """plus builds its result without re-validating the unchanged charge;
    the result is the phase the validating constructor builds."""
    q, twin = p.plus(n), Phase(p.offset + n, p.charge)
    assert q == twin and hash(q) == hash(twin) and repr(q) == repr(twin)
    assert q.cmp(twin) == 0 and twin.cmp(q) == 0
    assert p.plus(0).same_as(p) and p.plus(0) == p


def test_int_phase_values():
    assert int_phase(0) < int_phase(1)
    assert phase_diff(int_phase(5), int_phase(2)).same_as(int_phase(3))
    # the phase of the value 0 has direction -(-1) on the even side
    assert int_phase(0).offset == -1


def test_integer_components_stay_int():
    z = Gaussian.of(3, -2)
    w = z.scale(5) * Gaussian.of(1, 1) - Gaussian.of(0, 7)
    assert all(type(c) is int for c in (z.re, z.im, w.re, w.im))
    assert type(z.cross(w)) is int
    # equal values compare and hash equal whichever type holds them
    q = Gaussian.of(Fraction(3), Fraction(-2))
    assert z == q and hash(z) == hash(q) and z.to_json() == q.to_json()


def test_phase_rejects_charges_as_branch_checked_does():
    with pytest.raises(ExactError, match="^zero charge$"):
        Phase(0, Gaussian.of(0, 0))
    with pytest.raises(ExactError,
                       match=r"^charge outside the upper branch: Gaussian\(1, 0\)$"):
        Phase(0, Gaussian.of(1, 0))


def test_phase_eq_is_representation_equality():
    p, q = Phase(0, Gaussian.of(1, 1)), Phase(0, Gaussian.of(2, 2))
    assert p != q
    assert p.same_as(q) and p.cmp(q) == 0


@given(_phases())
def test_direction_parity(p):
    d = p.direction()
    assert d == (p.charge if p.offset % 2 == 0 else -p.charge)


# ---------------------------------------------------------------------------
# window arguments


@given(_charges(), _phases())
def test_window_arg_in_open_window(z, anchor):
    try:
        w = window_arg(z, anchor)
    except ExactError:
        return
    assert anchor < w < anchor.plus(1)
    # direction matches z up to positive scale
    assert w.direction().cross(z) == 0 and w.direction().dot(z) > 0


def test_window_arg_boundary_raises():
    anchor = int_phase(0)  # window (0, 1): directions in the upper half-plane
    with pytest.raises(ExactError):
        window_arg(Gaussian.of(1, 0), anchor)
    with pytest.raises(ExactError):
        window_arg(Gaussian.of(2, -3), anchor)


def test_window_arg_hand_values():
    # arg(1+i)/pi = 1/4 lies in (0, 1)
    w = window_arg(Gaussian.of(1, 1), int_phase(0))
    assert w.same_as(Phase(0, Gaussian.of(1, 1)))
    # same direction two windows up (the direction recurs with period two)
    w2 = window_arg(Gaussian.of(1, 1), int_phase(2))
    assert w2.same_as(Phase(2, Gaussian.of(1, 1)))
    assert phase_diff(w2, w).same_as(int_phase(2))
    # the window (1, 2) contains the opposite direction only
    with pytest.raises(ExactError):
        window_arg(Gaussian.of(1, 1), int_phase(1))
    wm = window_arg(Gaussian.of(-1, -1), int_phase(1))
    assert phase_diff(wm, w).same_as(int_phase(1))


@given(_charges(), _phases())
def test_closed_window_agrees_with_open(z, low):
    high_charge = Gaussian.of(Fraction(-1), Fraction(1, 3))
    high = phase_add(low, Phase(0, high_charge))  # low + something in (0,1)
    try:
        got = phase_in_closed_window(z, low, high)
    except ExactError:
        return
    if got is None:
        return
    assert low <= got <= high
    assert got.direction().cross(z) == 0 and got.direction().dot(z) > 0


def test_closed_window_includes_endpoints():
    low = Phase(0, Gaussian.of(1, 1))
    high = low.plus(0)
    assert phase_in_closed_window(Gaussian.of(2, 2), low, high).same_as(low)
    assert phase_in_closed_window(Gaussian.of(1, -1), low, high) is None


# small integer charges make ties, boundary directions and empty windows
# common; zero is allowed
_small = st.builds(Gaussian, st.integers(-3, 3), st.integers(-3, 3))
_small_upper = _small.filter(lambda z: z.in_upper_branch())


def _outcome(f, *args):
    try:
        return f(*args)
    except ExactError as e:
        return "ExactError: %s" % (e,)


@settings(max_examples=200)
@given(st.one_of(_small, _charges()),
       st.builds(Phase, st.integers(-3, 3), st.one_of(_small_upper, _upper())))
@example(Gaussian.of(0, 0), int_phase(0))  # zero charge
@example(Gaussian.of(2, 0), int_phase(0))  # boundary argument
@example(Gaussian.of(-1, 0), Phase(1, Gaussian.of(-1, 0)))  # boundary
@example(Gaussian.of(1, -1), int_phase(0))  # outside the half-plane
@example(Gaussian.of(-1, -1), Phase(-3, Gaussian.of(1, 1)))  # the anchor's own
@example(Gaussian.of(1, -2), Phase(-3, Gaussian.of(1, 1)))  # at the anchor's offset
@example(Gaussian.of(-2, -1), Phase(2, Gaussian.of(1, 1)))  # one offset higher
def test_window_arg_matches_the_offset_loop(z, anchor):
    """The same Phase representation, or the same ExactError message."""
    got = _outcome(window_arg, z, anchor)
    assert got == _outcome(_reference.window_arg, z, anchor)
    assert isinstance(got, Phase) or got.startswith("ExactError: ")


@settings(max_examples=200)
@given(st.one_of(_small, _charges()),
       st.builds(Phase, st.integers(-3, 3), st.one_of(_small_upper, _upper())),
       st.integers(-1, 1),
       st.one_of(_small_upper, _upper()))
@example(Gaussian.of(0, 0), int_phase(0), 0, Gaussian.of(1, 1))  # zero
@example(Gaussian.of(1, 1), int_phase(0), 1, Gaussian.of(-1, 0))  # length 1
@example(Gaussian.of(1, 1), Phase(0, Gaussian.of(1, 1)), 1,
         Gaussian.of(1, 2))  # too long
@example(Gaussian.of(2, 2), Phase(0, Gaussian.of(1, 1)), 0,
         Gaussian.of(1, 1))  # one-point window
@example(Gaussian.of(1, 0), Phase(0, Gaussian.of(1, 1)), 1,
         Gaussian.of(2, 1))  # only the opposite direction in the window
@example(Gaussian.of(1, 3), Phase(0, Gaussian.of(1, 1)), 0,
         Gaussian.of(1, 2))  # above high
@example(Gaussian.of(1, 1), Phase(0, Gaussian.of(1, 2)), 0,
         Gaussian.of(1, 3))  # below low
@example(Gaussian.of(1, 1), Phase(0, Gaussian.of(1, 2)), -1,
         Gaussian.of(1, 3))  # high below low
def test_closed_window_matches_the_offset_loop(z, low, dk, high_charge):
    """The same Phase representation or None, or the same ExactError
    message, with high at offsets low - 1 .. low + 1."""
    high = Phase(low.offset + dk, high_charge)
    got = _outcome(phase_in_closed_window, z, low, high)
    assert got == _outcome(_reference.phase_in_closed_window, z, low, high)
    assert got is None or isinstance(got, Phase) or got.startswith("ExactError: ")


@settings(max_examples=50)
@given(_phases(), _phases())
def test_diff_reflects_order(p, q):
    d = phase_diff(p, q)
    zero = int_phase(0)
    assert (d.cmp(zero) > 0) == (p > q)
    assert (d.cmp(zero) == 0) == p.same_as(q)
