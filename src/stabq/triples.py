"""Exceptional triples: the eight standard families, shift sets, mutations,
and the extension closures of rigid pairs.

A triple here is an ordered exceptional collection of three catalog objects.
The numbers (alpha, beta, gamma) record, for each of the three ordered pairs,
one less than the degree of the unique surviving hom space (None standing for
+infinity when every degree vanishes); they control which downward shifts of
the collection are Ext-exceptional.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from .catalog import ExcObject, hom_dims, kclass, object_from_kclass
from .quiver import Vec3, det3, euler_form


@dataclass(frozen=True)
class ExcTriple:
    objs: Tuple[ExcObject, ExcObject, ExcObject]

    def __post_init__(self):
        assert len(self.objs) == 3

    def __getitem__(self, i: int) -> ExcObject:
        return self.objs[i]

    def __iter__(self):
        return iter(self.objs)

    def shifted(self, p: Tuple[int, int, int]) -> "ExcTriple":
        return ExcTriple(tuple(o.shifted(n) for o, n in zip(self.objs, p)))

    def kclasses(self) -> Tuple[Vec3, Vec3, Vec3]:
        return tuple(kclass(o) for o in self.objs)

    def __str__(self):
        return "(%s, %s, %s)" % self.objs


def is_exceptional_collection(t: ExcTriple) -> bool:
    """No hom in any degree from a later object to an earlier one, and the
    three K-classes are linearly independent."""
    for j in range(3):
        for i in range(j):
            if hom_dims(t[j], t[i]) is not None:
                return False
    return det3(*t.kclasses()) != 0


def is_ext_collection(t: ExcTriple) -> bool:
    """Exceptional, and every forward hom is concentrated in degrees >= 1."""
    if not is_exceptional_collection(t):
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            h = hom_dims(t[i], t[j])
            if h is not None and h[0] < 1:
                return False
    return True


# ---------------------------------------------------------------------------
# the eight standard families

FAMILY_IDS = ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8")
A_SIDE = ("F1", "F2", "F3")  # the a-chain families
B_SIDE = ("F4", "F5", "F6")  # the b-chain families

# the slots of each family: (kind, index relative to m) for the chain
# objects a/b, (kind, None) for the rigid objects M and M'
FAMILY_SHAPES = {
    "F1": (("Mp", None), ("a", 0), ("a", 1)),
    "F2": (("a", 0), ("b", 1), ("a", 1)),
    "F3": (("a", 0), ("a", 1), ("M", None)),
    "F4": (("M", None), ("b", 0), ("b", 1)),
    "F5": (("b", 0), ("a", 0), ("b", 1)),
    "F6": (("b", 0), ("b", 1), ("Mp", None)),
    "F7": (("b", 0), ("Mp", None), ("a", 0)),
    "F8": (("a", 0), ("M", None), ("b", 1)),
}


@lru_cache(maxsize=4096)
def family_triple(fid: str, m: int) -> ExcTriple:
    """The standard triple of family ``fid`` at index ``m``, built from
    ``FAMILY_SHAPES``; memoised, and shared, as triples are immutable."""
    return ExcTriple(tuple(
        ExcObject(kind, 0 if rel is None else m + rel, 0)
        for kind, rel in FAMILY_SHAPES[fid]
    ))


# ---------------------------------------------------------------------------
# (alpha, beta, gamma) and the shift set


def _pair_value(x: ExcObject, y: ExcObject) -> Optional[int]:
    h = hom_dims(x, y)
    return None if h is None else h[0] - 1


@lru_cache(maxsize=4096)
def alpha_beta_gamma(t: ExcTriple):
    """One less than the surviving hom degree for the pairs (0,1), (0,2),
    (1,2); None encodes +infinity.  Memoised: the shift set of one triple
    is tested for many shifts, and triples are immutable."""
    return (
        _pair_value(t[0], t[1]),
        _pair_value(t[0], t[2]),
        _pair_value(t[1], t[2]),
    )


def _le(p: int, bound: Optional[int]) -> bool:
    return True if bound is None else p <= bound


def in_shift_set(t: ExcTriple, p: Tuple[int, int, int]) -> bool:
    """Membership of (0, p1, p2) in the set of downward shifts keeping the
    collection Ext-exceptional."""
    if p[0] != 0:
        return False
    a, b, g = alpha_beta_gamma(t)
    return _le(p[1], a) and _le(p[2], b) and _le(p[2] - p[1], g)


def shift_set_members(t: ExcTriple, depth: int = 4) -> List[Tuple[int, int, int]]:
    """The members (0, p1, p2) of the shift set with components within
    ``depth`` of the extreme member.  Requires finite bounds."""
    a, b, g = alpha_beta_gamma(t)
    if a is None or b is None or g is None:
        raise ValueError("shift set unbounded for %s" % (t,))
    out = []
    for p1 in range(a - depth, a + 1):
        hi2 = min(b, p1 + g)
        for p2 in range(hi2 - depth, hi2 + 1):
            p = (0, p1, p2)
            if in_shift_set(t, p):
                out.append(p)
    return out


@lru_cache(maxsize=4096)
def theta_bounds(t: ExcTriple) -> Tuple[Optional[int], Optional[int], Optional[int]]:
    """(alpha, min(beta, alpha + gamma), gamma), None encoding +infinity:
    the largest p1, p2 and p2 - p1 over the shift set, which bound the
    phase gaps of Theta(t).  Memoised like ``alpha_beta_gamma``."""
    a, b, g = alpha_beta_gamma(t)
    ag = None if a is None or g is None else a + g
    return a, min((v for v in (b, ag) if v is not None), default=None), g


def extreme_shift(t: ExcTriple) -> Tuple[int, int, int]:
    """The componentwise-largest member of the shift set."""
    a, top, _ = theta_bounds(t)
    if a is None or top is None:
        raise ValueError("shift set unbounded for %s" % (t,))
    return (0, a, top)


# ---------------------------------------------------------------------------
# mutations

def mutate_left(x: ExcObject, y: ExcObject) -> ExcObject:
    """The left mutation of y through x, pinned down by its K-class
    chi(x, y) [x] - [y]; the representative carries explicit shift 0 or 1."""
    chi = euler_form(kclass(x), kclass(y))
    return object_from_kclass(kclass(x).scale(chi) - kclass(y))


def mutate_right(x: ExcObject, y: ExcObject) -> ExcObject:
    """The right mutation of x through y: class chi(x, y) [y] - [x]."""
    chi = euler_form(kclass(x), kclass(y))
    return object_from_kclass(kclass(y).scale(chi) - kclass(x))


MUTATION_OPS = ("L0", "R0", "L1", "R1")


def mutate_triple(t: ExcTriple, op: str) -> ExcTriple:
    a0, a1, a2 = t.objs
    if op == "R0":
        return ExcTriple((a1, mutate_right(a0, a1), a2))
    if op == "L0":
        return ExcTriple((mutate_left(a0, a1), a0, a2))
    if op == "R1":
        return ExcTriple((a0, a2, mutate_right(a1, a2)))
    if op == "L1":
        return ExcTriple((a0, mutate_left(a1, a2), a1))
    raise ValueError("unknown mutation %r" % (op,))


# ---------------------------------------------------------------------------
# extension closures of rigid pairs


@dataclass(frozen=True)
class ExtPair:
    """An ordered pair (x, y) of semistable candidates whose only backward
    hom vanishes and whose forward hom lives in a single degree d0.  The
    associated pair with hom in degree one is (x, y[d0 - 1])."""

    x: ExcObject
    y: ExcObject
    degree: int  # d0
    dim: int  # 1 or 2


def ext_pair(x: ExcObject, y: ExcObject) -> Optional[ExtPair]:
    if hom_dims(y, x) is not None:
        return None
    h = hom_dims(x, y)
    if h is None:
        return None
    return ExtPair(x, y, h[0], h[1])


def closure_content(pair: ExtPair, window: int = 8) -> Optional[List[ExcObject]]:
    """The indecomposable objects of the extension closure of the degree-one
    pair (x, y[d0-1]), or None when the pair matches no known pattern.

    For a two-dimensional hom the closure is a full Kronecker subcategory and
    the (infinite) list is truncated ``window`` steps out on either side.
    For a one-dimensional hom the closure contains exactly the two members
    and the unique middle extension.
    """
    x, y = pair.x, pair.y
    xb, yb = x.base(), y.base()
    s = x.shift
    # pattern matching is on the base objects; kbase is the relative shift of
    # the degree-one pair at base level (independent of the explicit shifts)
    kbase = pair.degree - 1 - x.shift + y.shift

    if pair.dim == 2:
        # same-letter neighbors x^p, x^{p+1}
        if xb.kind == yb.kind and xb.kind in ("a", "b") and yb.m == xb.m + 1:
            p = xb.m
            lo = [ExcObject(xb.kind, i, s) for i in range(p, p - window, -1)]
            hi = [
                ExcObject(xb.kind, j, s + kbase)
                for j in range(p + 1, p + 1 + window)
            ]
            return lo + hi
        return None

    if pair.dim != 1:
        return None

    middle = _kron1_middle(xb, yb)
    if middle is None:
        return None
    return [x, y.shifted(pair.degree - 1), middle.shifted(s)]


def _kron1_middle(xb: ExcObject, yb: ExcObject) -> Optional[ExcObject]:
    """The third indecomposable of the closure for the six rank-one patterns,
    as a base-level object (to be shifted with the pair)."""
    kx, ky = xb.kind, yb.kind
    if kx == "a" and ky == "M":
        return ExcObject("b", xb.m, 0)
    if kx == "b" and ky == "Mp":
        return ExcObject("a", xb.m - 1, 0)
    if kx == "M" and ky == "b":
        return ExcObject("a", yb.m, -1)
    if kx == "Mp" and ky == "a":
        return ExcObject("b", yb.m + 1, -1)
    if kx == "a" and ky == "b" and yb.m == xb.m + 1:
        return ExcObject("Mp", 0, 0)
    if kx == "b" and ky == "a" and yb.m == xb.m:
        return ExcObject("M", 0, 0)
    return None
