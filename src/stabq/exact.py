"""Exact complex-rational arithmetic and exact phase comparisons.

Charges are Gaussian rationals (rational real and imaginary parts).  A
component that is a Python ``int`` stays an ``int`` through construction,
scaling and the ring operations, so integer Gaussians never touch
``Fraction``; the engine computes on each stability point's primitive
integer normalisation of its charges.

A phase is stored as an integer offset together with a nonzero charge lying
in the closed upper branch

    Hbar = {im > 0} u {im = 0, re < 0},

and represents the real number ``offset + arg(charge)/pi`` with the argument
normalized into (0, 1].  No transcendental function is ever evaluated: every
comparison reduces to sign tests on cross and dot products.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

Rat = Union[int, Fraction, str]


def _frac(x: Rat) -> Union[int, Fraction]:
    if isinstance(x, (int, Fraction)):
        return x
    return Fraction(x)


def frac_to_str(x: Fraction) -> str:
    """Serialize a rational as "p" or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True)
class Gaussian:
    """A Gaussian rational re + im*i.  Each component is an ``int`` or a
    ``Fraction`` (kept reduced by ``Fraction`` itself); equal values compare
    and hash equal whichever type holds them."""

    re: Union[int, Fraction]
    im: Union[int, Fraction]

    @staticmethod
    def of(re: Rat, im: Rat = 0) -> "Gaussian":
        return Gaussian(_frac(re), _frac(im))

    def __add__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Gaussian":
        return Gaussian(-self.re, -self.im)

    def __mul__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, k: Rat) -> "Gaussian":
        k = _frac(k)
        return Gaussian(self.re * k, self.im * k)

    def conj(self) -> "Gaussian":
        return Gaussian(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def in_upper_branch(self) -> bool:
        """True iff the argument lies in (0, pi]."""
        return self.im > 0 or (self.im == 0 and self.re < 0)

    def cross(self, other: "Gaussian") -> Fraction:
        """im(conj(self) * other); positive iff other is counterclockwise
        from self by an angle in (0, pi)."""
        return self.re * other.im - self.im * other.re

    def dot(self, other: "Gaussian") -> Fraction:
        return self.re * other.re + self.im * other.im

    def to_json(self):
        return {"re": frac_to_str(self.re), "im": frac_to_str(self.im)}

    @staticmethod
    def from_json(d) -> "Gaussian":
        return Gaussian(Fraction(d["re"]), Fraction(d["im"]))

    def __repr__(self):
        return "Gaussian(%s, %s)" % (frac_to_str(self.re), frac_to_str(self.im))


def primitive_multiple(zs) -> Tuple[Gaussian, ...]:
    """The Gaussians zs times the positive rational that clears every
    denominator and leaves their integer components with gcd 1; all-zero
    input comes back as integer zeros.  Arguments, and so every phase
    comparison, are unchanged by a positive scaling."""
    parts = [c for z in zs for c in (z.re, z.im)]
    den = lcm(*(c.denominator for c in parts))
    ints = [c.numerator * (den // c.denominator) for c in parts]
    g = gcd(*ints) or 1
    return tuple(
        Gaussian(ints[i] // g, ints[i + 1] // g) for i in range(0, len(ints), 2)
    )


class ExactError(ValueError):
    pass


def branch_checked(z: Gaussian) -> Gaussian:
    """z itself, once it is checked to be nonzero and in the closed upper
    branch; ``ExactError`` otherwise.  Two checked charges compare by
    argument with one cross product: arg z1 < arg z2 iff z1.cross(z2) > 0,
    and a vanishing cross product means equality (opposite directions
    cannot both be in the branch)."""
    if z.is_zero():
        raise ExactError("zero charge")
    if not z.in_upper_branch():
        raise ExactError("charge outside the upper branch: %r" % (z,))
    return z


class Side(enum.Enum):
    PLUS = 1
    ON_LINE = 0
    MINUS = -1


def side_of(z: Gaussian, v: Gaussian) -> Side:
    """Side of z relative to the line R*v: PLUS iff z in v*(R + i*R_{>0})."""
    if v.is_zero():
        raise ExactError("zero direction")
    s = sign(v.cross(z))
    if s > 0:
        return Side.PLUS
    if s < 0:
        return Side.MINUS
    return Side.ON_LINE


@dataclass(frozen=True)
class Phase:
    """offset + arg(charge)/pi with arg(charge) in (0, pi].

    ``==`` and ``hash`` compare the representation: ``Phase(0, 1+i)`` and
    ``Phase(0, 2+2i)`` are the same value but not ``==``.  Compare values
    with ``same_as`` and ``cmp`` (equal iff the offsets agree and the
    charges are positive real multiples of each other); the total order is
    decided exactly.
    """

    offset: int
    charge: Gaussian

    def __post_init__(self):
        if self.charge.is_zero():
            raise ExactError("zero charge")
        if not self.charge.in_upper_branch():
            raise ExactError("phase charge must lie in the upper branch")

    def cmp(self, other: "Phase") -> int:
        if self.offset != other.offset:
            return -1 if self.offset < other.offset else 1
        # both charges are checked upper-branch at construction, so the
        # cross product decides (see branch_checked)
        return -sign(self.charge.cross(other.charge))

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def same_as(self, other: "Phase") -> bool:
        return self.cmp(other) == 0

    def plus(self, n: int) -> "Phase":
        p = object.__new__(Phase)  # the charge is unchanged: skip validation
        object.__setattr__(p, "offset", self.offset + n)
        object.__setattr__(p, "charge", self.charge)
        return p

    def direction(self) -> Gaussian:
        """The actual direction of exp(i*pi*value): the stored charge for an
        even offset, its negative for an odd one."""
        return self.charge if self.offset % 2 == 0 else -self.charge

    def __repr__(self):
        return "Phase(%d, %r)" % (self.offset, self.charge)


def cmp_shifted(p: Phase, a: int, q: Phase, b: int) -> int:
    """``p.plus(a).cmp(q.plus(b))`` without building either Phase: the
    offsets first, then the sign of one cross product."""
    d = p.offset + a - q.offset - b
    if d:
        return -1 if d < 0 else 1
    return -sign(p.charge.cross(q.charge))


def exact_int(x) -> int:
    """x as an int when it is one exactly: a bool, or a number with a
    fractional part, raises ValueError instead of being truncated the way
    ``int`` would (``int(1.5) == 1``, ``int(True) == 1``)."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError("%r is not an integer" % (x,))
    return int(x)


def phase_diff(p1: Phase, p0: Phase) -> Phase:
    """The exact value p1 - p0 (always in (-1, 1) up to the offset part),
    returned as a Phase."""
    w = p0.charge.conj() * p1.charge
    k = p1.offset - p0.offset
    if w.in_upper_branch():
        return Phase(k, w)
    return Phase(k - 1, -w)


def phase_add(p: Phase, d: Phase) -> Phase:
    """The exact value p + d as a Phase."""
    w = p.charge * d.charge
    k = p.offset + d.offset
    if w.in_upper_branch():
        return Phase(k, w)
    return Phase(k + 1, -w)


def window_arg(z: Gaussian, anchor: Phase) -> Phase:
    """The unique phase in the open window (anchor, anchor + 1) whose
    direction is z.

    Requires z to lie strictly inside the open half-plane of window
    directions; a z on the boundary line raises "boundary argument".
    """
    if z.is_zero():
        raise ExactError("zero charge")
    d = anchor.direction()
    s = side_of(z, d)
    if s is not Side.PLUS:
        if s is Side.ON_LINE:
            raise ExactError("boundary argument")
        raise ExactError("charge outside the window half-plane")
    if z.in_upper_branch():
        zb, parity = z, 0
    else:
        zb, parity = -z, 1
    hi = anchor.plus(1)
    found = None
    for o in range(anchor.offset - 2, anchor.offset + 4):
        if o % 2 != parity % 2:
            continue
        cand = Phase(o, zb)
        if anchor < cand < hi:
            found = cand
            break
    if found is None:  # pragma: no cover - precondition guarantees existence
        raise ExactError("no window representative")
    return found


def phase_in_closed_window(z: Gaussian, low: Phase, high: Phase):
    """The phase with direction z inside the closed window [low, high], or
    None.  The window must be shorter than 1, which makes the representative
    unique when it exists."""
    if z.is_zero():
        raise ExactError("zero charge")
    if phase_diff(high, low) >= _PHASE_ONE:
        raise ExactError("window too long")
    if z.in_upper_branch():
        zb, parity = z, 0
    else:
        zb, parity = -z, 1
    for o in range(low.offset - 2, low.offset + 4):
        if o % 2 != parity % 2:
            continue
        cand = Phase(o, zb)
        if low <= cand <= high:
            return cand
    return None


def int_phase(n: int) -> Phase:
    """The integer n as a Phase (charge -1, arg pi)."""
    return Phase(n - 1, Gaussian.of(-1, 0))


_PHASE_ONE = int_phase(1)
