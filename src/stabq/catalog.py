"""Catalog of the exceptional objects and the exact hom/ext dimension oracle.

Objects are labeled in the two-sided notation a^m / b^m (m ranging over all
integers) plus the two special rank-one objects M and M'.  For m <= 0 the
label a^m is an honest representation; for m >= 1 it carries a baked-in
homological shift by one.  The K-class of any labeled object is the signed
dimension vector, the sign being (-1)^(total shift).

Hom dimensions are *computed* from the Euler form plus the fact that for
any ordered pair of catalog objects at most one homological degree survives;
the known nonvanishing tables then become a test oracle rather than an input.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import lru_cache

from .exact import frozen_guard
from .quiver import Vec3, euler_form

KINDS = ("a", "b", "M", "Mp")


@frozen_guard
@dataclass(frozen=True, order=True, slots=True, init=False)
class ExcObject:
    kind: str  # 'a', 'b', 'M', 'Mp'
    m: int  # index for a/b; must be 0 for M/Mp
    shift: int  # explicit homological shift [shift]

    def __init__(self, kind, m, shift):
        if kind not in KINDS:
            raise ValueError("bad kind %r" % (kind,))
        if kind in ("M", "Mp") and m != 0:
            raise ValueError("M/M' carry no index")
        _set_kind(self, kind)
        _set_m(self, m)
        _set_shift(self, shift)

    def base(self) -> "ExcObject":
        return self if self.shift == 0 else ExcObject(self.kind, self.m, 0)

    def shifted(self, n: int) -> "ExcObject":
        return ExcObject(self.kind, self.m, self.shift + n)

    def translated(self, n: int) -> "ExcObject":
        """The object n steps along its chain, a^m -> a^{m+n}; M and M'
        stay.  Hom dimensions between catalog objects do not change under
        it, and it acts on K-classes linearly with determinant 1."""
        if n == 0 or self.kind not in ("a", "b"):
            return self
        return ExcObject(self.kind, self.m + n, self.shift)

    def baked_shift(self) -> int:
        """The shift hidden inside the label itself (1 for a^m/b^m, m>=1)."""
        if self.kind in ("a", "b") and self.m >= 1:
            return 1
        return 0

    def total_shift(self) -> int:
        return self.shift + self.baked_shift()

    def __str__(self):
        if self.kind == "M":
            s = "M"
        elif self.kind == "Mp":
            s = "M'"
        else:
            s = "%s[%d]" % (self.kind, self.m)
        if self.shift:
            s += "[%d]" % self.shift
        return s


_set_kind, _set_m, _set_shift = (
    ExcObject.kind.__set__, ExcObject.m.__set__, ExcObject.shift.__set__)


_LABEL_RE = _re.compile(
    r"^(?:(?P<ab>[ab])\[(?P<m>-?\d+)\]|(?P<sp>M'|M))(?:\[(?P<sh>-?\d+)\])?$"
)


def parse_label(s: str) -> ExcObject:
    m = _LABEL_RE.match(s.strip())
    if not m:
        raise ValueError("cannot parse object label %r" % (s,))
    shift = int(m.group("sh") or 0)
    if m.group("ab"):
        return ExcObject(m.group("ab"), int(m.group("m")), shift)
    return ExcObject("Mp" if m.group("sp") == "M'" else "M", 0, shift)


def underlying_rep_family(obj: ExcObject):
    """(family, k) of the plain representation underneath the label, with
    family in {'E1','E2','E3','E4','M','Mp'}."""
    if obj.kind == "M":
        return ("M", 0)
    if obj.kind == "Mp":
        return ("Mp", 0)
    m = obj.m
    if obj.kind == "a":
        return ("E1", -m) if m <= 0 else ("E2", m - 1)
    return ("E4", -m) if m <= 0 else ("E3", m - 1)


def family_dim(family: str, k: int) -> Vec3:
    if family == "E1":
        return Vec3(k + 1, k, k)
    if family == "E2":
        return Vec3(k, k + 1, k + 1)
    if family == "E3":
        return Vec3(k, k, k + 1)
    if family == "E4":
        return Vec3(k + 1, k + 1, k)
    if family == "M":
        return Vec3(0, 1, 0)
    if family == "Mp":
        return Vec3(1, 0, 1)
    raise ValueError(family)


def dim_vector(obj: ExcObject) -> Vec3:
    """Dimension vector of the underlying representation (shift-blind)."""
    return _dim_vector(obj.kind, obj.m)


@lru_cache(maxsize=None)
def _dim_vector(kind: str, m: int) -> Vec3:
    # one entry per labelled object, whatever its shift
    return family_dim(*underlying_rep_family(ExcObject(kind, m, 0)))


def kclass(obj: ExcObject) -> Vec3:
    d = dim_vector(obj)
    return d if obj.total_shift() % 2 == 0 else -d


def hom_dims(x: ExcObject, y: ExcObject):
    """None, or (degree, dim) of the single nonvanishing hom space.

    The underlying representations live in a hereditary category, so at most
    one degree survives and the Euler pairing determines both the degree
    (by its sign) and the dimension (by its absolute value); explicit and
    baked-in shifts then translate the degree.
    """
    chi = euler_form(dim_vector(x), dim_vector(y))
    if chi == 0:
        return None
    d0 = 0 if chi > 0 else 1
    return (d0 + x.total_shift() - y.total_shift(), abs(chi))


def _degree_key(x: ExcObject, y: ExcObject):
    """The key of ``_DEGREES``: the kinds, and y.m - x.m clamped to -2..2,
    or 0 when either object is M or M'."""
    if x.kind in ("M", "Mp") or y.kind in ("M", "Mp"):
        return x.kind, y.kind, 0
    return x.kind, y.kind, max(-2, min(2, y.m - x.m))


# the unshifted (fwd, bwd) by key, from hom_dims on representatives: x at
# index 0 and y at -2..2, M and M' at 0
_DEGREES = {
    _degree_key(x, y): tuple(
        None if h is None else h[0] for h in (hom_dims(x, y), hom_dims(y, x))
    )
    for x in (ExcObject(kx, 0, 0) for kx in KINDS)
    for ky in KINDS
    for y in (ExcObject(ky, d if ky in ("a", "b") else 0, 0) for d in range(-2, 3))
}


def hom_degrees(x: ExcObject, y: ExcObject):
    """(fwd, bwd): the degrees of the homs x -> y and y -> x, None where one
    vanishes.  One step along both chains (``ExcObject.translated``) is an
    autoequivalence, so they depend only on the kinds and the index
    difference; they are constant beyond a difference of 2, and the same
    for M and M' against every object of a chain.  So they are a lookup in
    ``_DEGREES``, moved by the explicit shifts; equal shifts get the
    table's own tuple."""
    pair = _DEGREES[_degree_key(x, y)]
    s = x.shift - y.shift
    if not s:
        return pair
    fwd, bwd = pair
    return (None if fwd is None else fwd + s, None if bwd is None else bwd - s)


class NotExceptionalClass(ValueError):
    pass


def _match_dim_pattern(d: Vec3):
    """Identify a nonnegative vector as a catalog dimension vector; returns
    the base label (kind, m) or None."""
    L, R, T = d
    if (L, R, T) == (0, 1, 0):
        return ("M", 0)
    if (L, R, T) == (1, 0, 1):
        return ("Mp", 0)
    if R == T and L == R + 1:  # E1^k = (k+1,k,k) -> a^{-k}
        return ("a", -R)
    if R == T and L == R - 1 and L >= 0:  # E2^k = (k,k+1,k+1) -> a^{k+1}
        return ("a", L + 1)
    if L == R and T == L + 1:  # E3^k = (k,k,k+1) -> b^{k+1}
        return ("b", L + 1)
    if L == R and T == L - 1 and T >= 0:  # E4^k = (k+1,k+1,k) -> b^{-k}
        return ("b", -T)
    return None


def object_from_kclass(c: Vec3, parity: str | None = None) -> ExcObject:
    """The catalog object (explicit shift 0 or 1) whose K-class is exactly c.

    The sign of c pins the total-shift parity; an explicitly requested
    ``parity`` ('even'/'odd', of the total shift) is validated against it.
    """
    for sgn in (1, -1):
        d = c.scale(sgn)
        if not d.is_nonneg() or d.is_zero():
            continue
        hit = _match_dim_pattern(d)
        if hit is None:
            continue
        kind, m = hit
        base = ExcObject(kind, m, 0)
        # want (-1)^(baked + s) == sgn with s in {0, 1}
        want_odd = (sgn == -1)
        s = (int(want_odd) - base.baked_shift()) % 2
        obj = ExcObject(kind, m, s)
        assert kclass(obj) == c
        if parity is not None:
            got = "even" if obj.total_shift() % 2 == 0 else "odd"
            if got != parity:
                raise NotExceptionalClass(
                    "class %r has %s total shift, %s requested" % (c, got, parity)
                )
        return obj
    raise NotExceptionalClass("not an exceptional class: %r" % (c,))


def build_matrices(obj: ExcObject, q: int = 2):
    """Explicit matrices over the field with q elements for the underlying
    representation.  Returns a FiniteRep."""
    from .ff import FiniteRep
    from .gf import GF, identity, zeros

    fam, k = underlying_rep_family(obj)
    d = family_dim(fam, k)
    F = GF(q)

    def pi_plus(m):  # k^{m+1} -> k^m, drop last coordinate
        mat = zeros(m, m + 1)
        for i in range(m):
            mat[i][i] = 1
        return mat

    def pi_minus(m):  # drop first coordinate
        mat = zeros(m, m + 1)
        for i in range(m):
            mat[i][i + 1] = 1
        return mat

    def j_plus(m):  # k^m -> k^{m+1}, append zero
        mat = zeros(m + 1, m)
        for i in range(m):
            mat[i][i] = 1
        return mat

    def j_minus(m):  # prepend zero
        mat = zeros(m + 1, m)
        for i in range(m):
            mat[i + 1][i] = 1
        return mat

    if fam == "E1":
        lr, lt, rt = pi_minus(k), pi_plus(k), identity(k)
    elif fam == "E2":
        lr, lt, rt = j_minus(k), j_plus(k), identity(k + 1)
    elif fam == "E3":
        lr, lt, rt = identity(k), j_plus(k), j_minus(k)
    elif fam == "E4":
        lr, lt, rt = identity(k + 1), pi_plus(k), pi_minus(k)
    elif fam == "M":
        lr, lt, rt = zeros(1, 0), zeros(0, 0), zeros(0, 1)
    else:  # Mp
        lr, lt, rt = zeros(0, 1), identity(1), zeros(1, 0)
    return FiniteRep(F, d, lr, lt, rt)
