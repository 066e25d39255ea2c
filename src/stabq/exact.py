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
normalized into (0, 1].  No transcendental function is ever evaluated.  The
kernel is one primitive: two checked charges (``branch_checked``) compare
by argument with the sign of one cross product.  Every phase comparison
(``cmp_shifted``, which ``Phase.cmp`` calls, and ``engine._bracket``,
which writes the same order inline) and every representative search
(``window_arg``, ``phase_in_closed_window``) reads offsets and that
sign, and builds only the ``Phase`` it returns.

``Gaussian`` and ``Phase`` are frozen, slotted dataclasses with their own
``__init__``, which writes the slots through their descriptors (bound once
below each class) instead of one ``object.__setattr__`` per field, as the
generated ``__init__`` does; ``Phase``'s also checks its charge.  The
dataclass still provides ``==`` and ``hash``, and ``frozen_guard`` the
guard against assignment.
"""

from __future__ import annotations

import re
import sys
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

Rat = Union[int, Fraction, str]


def frozen_guard(cls):
    """cls, a frozen dataclass with slots and no subclasses, whose
    instances refuse to set or delete any attribute, declared or not, with
    ``FrozenInstanceError``.  The guard ``dataclass`` generates names the
    class it replaces when it adds the slots, so on Python 3.11 it raised
    ``TypeError`` from a ``super()`` call for an undeclared name."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % (name,))

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


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


@frozen_guard
@dataclass(frozen=True, slots=True, init=False)
class Gaussian:
    """A Gaussian rational re + im*i.  Each component is an ``int`` or a
    ``Fraction`` (kept reduced by ``Fraction`` itself); equal values compare
    and hash equal whichever type holds them."""

    re: Union[int, Fraction]
    im: Union[int, Fraction]

    def __init__(self, re, im):
        _set_re(self, re)
        _set_im(self, im)

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
        """The inverse of ``to_json``: each component a string "p" or "p/q"
        (an optional "-", ASCII digits, q >= 1), or an ``int``.  Anything
        else raises ValueError, where ``Fraction`` would read 0.1 as its
        binary value, true as 1, and "1e5", "1_0" and " 1 " as numbers."""
        json_typed(d, dict, "a charge")
        return Gaussian(_json_rat(d["re"]), _json_rat(d["im"]))

    def __repr__(self):
        return "Gaussian(%s, %s)" % (frac_to_str(self.re), frac_to_str(self.im))


_set_re, _set_im = Gaussian.re.__set__, Gaussian.im.__set__


# what frac_to_str writes: "p" or "p/q", with q >= 1
_RATIONAL = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def _json_rat(x) -> Fraction:
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        return Fraction(digits_checked(x))
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError("%r is not a rational string or an integer" % (x,))


def digits_checked(s: str) -> str:
    """s, a number string ("p" or "p/q" with an optional "-"), once no
    integer in it has more digits than Python reads from a string
    (``sys.get_int_max_str_digits``); else a ValueError that names its
    size, where ``int`` would name the interpreter's setting."""
    limit = sys.get_int_max_str_digits()
    n = max(len(part.lstrip("-")) for part in s.split("/"))
    if limit and n > limit:
        raise ValueError("a number of %d digits exceeds the %d-digit limit"
                         % (n, limit))
    return s


_INTEGER = re.compile(r"-?[0-9]+")


def int_of_digits(s: str) -> int:
    """The integer s spells as an optional "-" and ASCII digits, read
    through ``digits_checked``; anything else raises ValueError, where
    ``int`` would also read "1_0", " 10 " and the digits of other
    scripts."""
    if not _INTEGER.fullmatch(s):
        raise ValueError("%r is not an integer" % (s,))
    return int(digits_checked(s))


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


@frozen_guard
@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, offset, charge):
        _set_offset(self, offset)
        _set_charge(self, branch_checked(charge))

    def cmp(self, other: "Phase") -> int:
        return cmp_shifted(self, 0, other, 0)

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
        return _checked_phase(self.offset + n, self.charge)

    def direction(self) -> Gaussian:
        """The actual direction of exp(i*pi*value): the stored charge for an
        even offset, its negative for an odd one."""
        return self.charge if self.offset % 2 == 0 else -self.charge

    def __repr__(self):
        return "Phase(%d, %r)" % (self.offset, self.charge)


_set_offset, _set_charge = Phase.offset.__set__, Phase.charge.__set__


def _checked_phase(offset: int, charge: Gaussian) -> Phase:
    """Phase(offset, charge) for a charge already known to be nonzero and
    in the closed upper branch: skips ``branch_checked``."""
    p = object.__new__(Phase)
    _set_offset(p, offset)
    _set_charge(p, charge)
    return p


def cmp_shifted(p: Phase, a: int, q: Phase, b: int) -> int:
    """The sign of (p + a) - (q + b), building no Phase: the offsets
    first, then the sign of one cross product (both charges are checked
    at construction, see ``branch_checked``)."""
    d = p.offset + a - q.offset - b
    if d:
        return -1 if d < 0 else 1
    return -sign(p.charge.cross(q.charge))


def json_typed(x, want: type, name: str):
    """x when it is what ``json.load`` makes of a JSON object (want = dict)
    or array (want = list); else a ValueError naming the field and the
    type it wants, where indexing x would fail in Python's own words."""
    if not isinstance(x, want):
        raise ValueError("%s must be a JSON %s" % (
            name, "object" if want is dict else "array"))
    return x


def exact_int(x) -> int:
    """x when it is an ``int``, the only form ``to_json`` writes an integer
    in: a bool, a float or a string raises ValueError, where ``int`` would
    read ``True`` as 1, truncate 1.5, read 1e23 as 99999999999999991611392
    and "0" as 0."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError("%r is not an integer" % (x,))
    return x


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


def window_arg(z: Gaussian, anchor: Phase, k: int = 0) -> Phase:
    """The unique phase in the open window (anchor + k, anchor + k + 1)
    whose direction is z: the anchor moved by the integer k.

    Requires z to lie strictly inside the open half-plane of window
    directions; a z on the boundary line raises "boundary argument".  The
    representative at the moved anchor's offset lies below its top, and
    lies above its bottom iff its charge is counterclockwise from the
    anchor's; otherwise the one an offset higher is in the window.  Builds
    only the Phase it returns.
    """
    if z.is_zero():
        raise ExactError("zero charge")
    # the cross product with the moved anchor's direction, (-1)^offset times
    # its charge
    o = anchor.offset + k
    s = anchor.charge.cross(z)
    if o % 2:
        s = -s
    if s <= 0:
        if s == 0:
            raise ExactError("boundary argument")
        raise ExactError("charge outside the window half-plane")
    # the charge in the upper branch, and the parity of z's offsets
    zb, parity = (z, 0) if z.in_upper_branch() else (-z, 1)
    if anchor.charge.cross(zb) <= 0:
        o += 1
    if (o - parity) % 2:  # pragma: no cover - the half-plane test excludes it
        raise ExactError("no window representative")
    return _checked_phase(o, zb)


def phase_in_closed_window(z: Gaussian, low: Phase, high: Phase,
                           a: int = 0, b: int = 0):
    """The phase with direction z inside the closed window
    [low + a, high + b] (its ends moved by the integers a and b), or None.
    The window must be shorter than 1, which makes the representative
    unique when it exists: it is the least phase of charge z or -z at or
    above low + a, when its offset has z's parity and it is not above
    high + b.  Builds only the Phase it returns."""
    if z.is_zero():
        raise ExactError("zero charge")
    if cmp_shifted(high, b, low, a + 1) >= 0:
        raise ExactError("window too long")
    zb, parity = (z, 0) if z.in_upper_branch() else (-z, 1)
    o = low.offset + a if low.charge.cross(zb) >= 0 else low.offset + a + 1
    if (o - parity) % 2:
        return None
    d = o - high.offset - b
    if d > 0 or d == 0 and zb.cross(high.charge) < 0:
        return None
    return _checked_phase(o, zb)


def int_phase(n: int) -> Phase:
    """The integer n as a Phase (charge -1, arg pi)."""
    return Phase(n - 1, Gaussian.of(-1, 0))
