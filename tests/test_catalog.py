"""The object catalog: labels, dimension vectors, the hom oracle, and the
K-group identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabq import catalog
from stabq.catalog import (
    ExcObject,
    NotExceptionalClass,
    dim_vector,
    hom_degrees,
    hom_dims,
    kclass,
    object_from_kclass,
    parse_label,
)
from stabq.quiver import DELTA, Vec3, euler_form, is_real_root

from _reference import (
    check_hom_table,
    check_k_identities,
    check_kronecker_dims,
    degree_pair,
)

_objs = st.builds(
    ExcObject,
    st.sampled_from(["a", "b"]),
    st.integers(-6, 6),
    st.integers(-3, 3),
) | st.builds(
    ExcObject, st.sampled_from(["M", "Mp"]), st.just(0), st.integers(-3, 3)
)


def test_label_roundtrip():
    for s in ("a[0]", "b[-3]", "a[4][-2]", "M", "M'", "M'[1]", "M[-1]"):
        assert str(parse_label(s)) == s


def test_bad_labels():
    for s in ("c[0]", "a", "M''", "a[1][2][3]"):
        with pytest.raises(ValueError):
            parse_label(s)


@given(_objs)
def test_kclass_sign_matches_total_shift(o):
    d = dim_vector(o)
    assert kclass(o) == (d if o.total_shift() % 2 == 0 else -d)


@given(_objs)
def test_objects_are_real_roots(o):
    assert is_real_root(dim_vector(o))


@given(_objs, _objs)
def test_hom_degree_translates_with_shifts(x, y):
    h0 = hom_dims(x.base(), y.base())
    h = hom_dims(x, y)
    if h0 is None:
        assert h is None
    else:
        assert h == (h0[0] + x.shift - y.shift, h0[1])


@given(_objs, _objs)
def test_hom_euler_consistency(x, y):
    """hom - ext agrees with the Euler pairing on K-classes."""
    h = hom_dims(x, y)
    chi = euler_form(kclass(x), kclass(y))
    if h is None:
        assert chi == 0
    else:
        assert chi == h[1] * (-1) ** h[0]


def test_hom_degrees_match_hom_dims_on_a_grid():
    """The table of hom_degrees against two hom_dims calls per pair, on
    every pair of a, b at indices -30..30, -1000 and 997 and of M, M', all
    at shifts -2, 0, 1 and 3; an unshifted pair gets a tuple of the
    table."""
    objs = [
        ExcObject(kind, m, s)
        for kind in ("a", "b")
        for m in [*range(-30, 31), -1000, 997]
        for s in (-2, 0, 1, 3)
    ] + [ExcObject(kind, 0, s) for kind in ("M", "Mp") for s in (-2, 0, 1, 3)]
    table = {id(pair) for pair in catalog._DEGREES.values()}
    for x in objs:
        for y in objs:
            got = hom_degrees(x, y)
            assert got == degree_pair(x, y), (x, y)
            if not (x.shift or y.shift):
                assert id(got) in table


_far_objs = st.builds(
    ExcObject,
    st.sampled_from(["a", "b"]),
    st.integers(-10**6, 10**6),
    st.integers(-5, 5),
) | st.builds(
    ExcObject, st.sampled_from(["M", "Mp"]), st.just(0), st.integers(-5, 5)
)


@settings(max_examples=400)
@given(_far_objs, _far_objs)
def test_hom_degrees_match_hom_dims_far_out(x, y):
    assert hom_degrees(x, y) == degree_pair(x, y)


def test_hom_reference_table():
    assert check_hom_table(-6, 6) > 0


def test_kronecker_reference_dims():
    assert check_kronecker_dims(-6, 6) > 0


def test_k_identities():
    assert check_k_identities(6) > 0


@settings(max_examples=400)
@given(
    kind=st.sampled_from(["a", "b", "M", "Mp"]),
    m=st.integers(-30, 30),
    shift=st.integers(-3, 3),
    n=st.integers(-40, 40),
)
def test_translation_is_linear_on_kclasses(kind, m, shift, n):
    """n steps along the chains act on K as T^n(c) = c + n * (c_T - c_L) *
    delta: a chain object moves by -+ delta per step, M and M' stay."""
    x = ExcObject(kind, m if kind in ("a", "b") else 0, shift)
    c = kclass(x)
    assert kclass(x.translated(n)) == c + DELTA.scale(n * (c.T - c.L))


def test_delta_is_isotropic_and_orthogonal():
    assert euler_form(DELTA, DELTA) == 0
    for o in (parse_label("a[2]"), parse_label("b[-1]"), parse_label("M")):
        assert euler_form(kclass(o), DELTA) + euler_form(DELTA, kclass(o)) == 0


@given(_objs)
def test_object_from_kclass_roundtrip(o):
    got = object_from_kclass(kclass(o))
    assert got.kind == o.kind and got.m == o.m
    assert kclass(got) == kclass(o)
    assert got.shift in (0, 1)


def test_object_from_kclass_rejects_non_exceptional():
    for v in (Vec3(0, 0, 0), DELTA, Vec3(2, -1, 0), Vec3(1, 1, 1)):
        with pytest.raises(NotExceptionalClass):
            object_from_kclass(v)


def test_object_from_kclass_parity_check():
    c = kclass(parse_label("a[0]"))
    assert object_from_kclass(c, parity="even").shift == 0
    with pytest.raises(NotExceptionalClass):
        object_from_kclass(c, parity="odd")
