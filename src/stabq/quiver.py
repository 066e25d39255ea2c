"""The fixed quiver: three vertices L, R, T with arrows L->R, L->T, R->T.

Dimension vectors and K-classes are integer triples in (L, R, T) order.  The
Grothendieck group is free of rank 3; delta = (1,1,1) is the isotropic class.
"""

from __future__ import annotations

from typing import NamedTuple


class Vec3(NamedTuple):
    L: int
    R: int
    T: int

    def __add__(self, other):
        return Vec3(self.L + other.L, self.R + other.R, self.T + other.T)

    def __sub__(self, other):
        return Vec3(self.L - other.L, self.R - other.R, self.T - other.T)

    def __neg__(self):
        return Vec3(-self.L, -self.R, -self.T)

    def scale(self, k: int) -> "Vec3":
        return Vec3(self.L * k, self.R * k, self.T * k)

    def is_zero(self) -> bool:
        return self == (0, 0, 0)

    def is_nonneg(self) -> bool:
        return self.L >= 0 and self.R >= 0 and self.T >= 0


DELTA = Vec3(1, 1, 1)


def det3(u: Vec3, v: Vec3, w: Vec3) -> int:
    """The determinant with columns u, v, w."""
    return (
        u.L * (v.R * w.T - v.T * w.R)
        - v.L * (u.R * w.T - u.T * w.R)
        + w.L * (u.R * v.T - u.T * v.R)
    )


def euler_form(x: Vec3, y: Vec3) -> int:
    """Euler form of the quiver: sum over vertices minus one term per arrow."""
    return (
        x.L * y.L + x.R * y.R + x.T * y.T
        - x.L * y.R - x.L * y.T - x.R * y.T
    )


def is_real_root(d: Vec3) -> bool:
    """True iff <d, d> = 1 (d must be nonzero)."""
    if d.is_zero():
        raise ValueError("zero vector")
    return euler_form(d, d) == 1
