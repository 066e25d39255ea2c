"""Exact polyhedral membership: interval-constrained difference sets S^n(I),
their shifted unions, and six angular half-plane sets with explicit in-set
deformation tracks.

Points of the angular sets live in (R_{>0} x R)^3, but every sample here is
presented as a triple of Phases whose charges are Gaussian rationals: the
radius is the (implicit) modulus of the charge and the angle is the phase.
All comparisons are exact sign tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import (
    ExactError,
    Gaussian,
    Phase,
    phase_add,
    phase_diff,
    phase_in_closed_window,
    window_arg,
)
from .triples import ExcTriple, alpha_beta_gamma

Rat = Fraction
RatVec = Sequence[Fraction]


# ---------------------------------------------------------------------------
# S^n(I): open convex sets cut out by pairwise-difference intervals


@dataclass(frozen=True)
class IntervalFamily:
    """Open intervals I_{ij} for 0 <= i < j <= n; None encodes an infinite
    endpoint."""

    n: int
    intervals: Tuple[Tuple[Tuple[int, int], Tuple[Optional[Fraction], Optional[Fraction]]], ...]

    @staticmethod
    def uniform(n: int, lo, hi) -> "IntervalFamily":
        lo = None if lo is None else Fraction(lo)
        hi = None if hi is None else Fraction(hi)
        if lo is not None and hi is not None and lo >= hi:
            raise ValueError("empty interval")
        pairs = tuple(
            ((i, j), (lo, hi)) for i in range(n) for j in range(i + 1, n + 1)
        )
        return IntervalFamily(n, pairs)

    def bounds(self) -> Dict[Tuple[int, int], Tuple[Optional[Fraction], Optional[Fraction]]]:
        return dict(self.intervals)


def s_n_member(y: RatVec, fam: IntervalFamily) -> bool:
    if len(y) != fam.n + 1:
        raise ValueError("point dimension %d != n+1 = %d" % (len(y), fam.n + 1))
    y = [Fraction(v) for v in y]
    for (i, j), (lo, hi) in fam.intervals:
        d = y[i] - y[j]
        if lo is not None and not (lo < d):
            return False
        if hi is not None and not (d < hi):
            return False
    return True


def _gap_margin(y: Sequence[Fraction]) -> int:
    g = max(abs(a - b) for a in y for b in y) if len(y) > 1 else Fraction(0)
    return int(ceil(g)) + 2


def union_square_member(y: RatVec, n: int, krange: Optional[int] = None) -> bool:
    """Membership in the union of S^n(-1,1) + v over nondecreasing integer
    shift vectors v (v_0 = 0).  The union is infinite; shifts are enumerated
    up to a margin that is sound for the given point."""
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    y = [Fraction(v) for v in y]
    if len(y) != n + 1:
        raise ValueError("point dimension mismatch")
    need = _gap_margin(y)
    if krange is None:
        krange = need
    elif krange < need:
        raise ValueError(
            "shift range %d too small for this point (need %d)" % (krange, need)
        )
    unit = IntervalFamily.uniform(n, -1, 1)

    def shifts(depth):
        if depth == 0:
            yield ()
            return
        for head in shifts(depth - 1):
            for k in range(krange + 1):
                yield head + (k,)

    for inc in shifts(n):
        v = [0]
        for k in inc:
            v.append(v[-1] + k)
        if s_n_member([yi - vi for yi, vi in zip(y, v)], unit):
            return True
    return False


def a0_union_member(phi: RatVec, t: ExcTriple) -> bool:
    """Membership of a rational phase triple in the union, over the shift
    set of t, of shifted copies of S^2(-inf, 1).

    Evaluates both the truncated union and its three-inequality closed form
    and insists they agree; the closed form is returned.
    """
    y = [Fraction(v) for v in phi]
    if len(y) != 3:
        raise ValueError("need a triple")
    a, b, g = alpha_beta_gamma(t)

    def lt(x, bound) -> bool:
        return True if bound is None else x < 1 + bound

    ag = None if (a is None or g is None) else a + g
    top = None
    if b is not None or ag is not None:
        top = min(v for v in (b, ag) if v is not None)
    closed = lt(y[0] - y[1], a) and lt(y[0] - y[2], top) and lt(y[1] - y[2], g)

    M = _gap_margin(y) + max(abs(v) for v in (a or 0, b or 0, g or 0)) + 2
    hi1 = a if a is not None else M
    direct = False
    for p1 in range(hi1 - M, hi1 + 1):
        hi2_opts = [M]
        if b is not None:
            hi2_opts.append(b)
        if g is not None:
            hi2_opts.append(p1 + g)
        hi2 = min(hi2_opts)
        for p2 in range(hi2 - M, hi2 + 1):
            if (
                y[0] - y[1] < 1 + p1
                and y[0] - y[2] < 1 + p2
                and y[1] - y[2] < 1 + p2 - p1
            ):
                direct = True
                break
        if direct:
            break
    if direct != closed:
        raise RuntimeError(
            "truncated union disagrees with the closed form at %s" % (y,)
        )
    return closed


# ---------------------------------------------------------------------------
# the six angular sets

APPENDIX_IDS = ("Ugt", "Ult", "V1a", "V1b", "U2", "V2a")

AngularPoint = Tuple[Phase, Phase, Phase]


def _warg(z: Gaussian, low: Phase) -> Optional[Phase]:
    try:
        return window_arg(z, low)
    except ExactError:
        return None


def appendix_member(pt: AngularPoint, set_id: str) -> bool:
    p0, p1, p2 = pt
    v0, v1, v2 = (p.direction() for p in pt)
    if set_id == "Ugt" or set_id == "Ult":
        if not (p0 < p1 < p0.plus(1) and p0 < p2 < p0.plus(1)):
            return False
        wa = _warg(v0 + v1, p0)
        if wa is None:
            return False
        return wa > p2 if set_id == "Ugt" else wa < p2
    if set_id == "V1a":
        low = p2.plus(-1)
        if not (low < p0 < p2 and low < p1 < p2):
            return False
        wa = _warg(v0 - v2, low)
        return wa is not None and wa > p1
    if set_id == "V1b":
        low = p0.plus(-1)
        if not (low < p1 < p0 and low < p2 < p0):
            return False
        wa = _warg(v0 + v2, low)
        return wa is not None and wa > p1
    if set_id == "U2":
        if not (p2 < p1 < p0 < p2.plus(1)):
            return False
        wa = _warg(v0 + v2, p2)
        return wa is not None and wa < p1
    if set_id == "V2a":
        low = p2.plus(-1)
        if not (low < p1 < p0 < p2):
            return False
        wa = _warg(v0 - v2, low)
        return wa is not None and wa < p1
    raise ValueError("unknown set id %r" % (set_id,))


# ---------------------------------------------------------------------------
# deformation tracks

# Each track is the computable shadow of a two-stage contraction: a stage
# that moves every sample to a point with extremal radii and common angular
# gaps while staying inside the monotone closure of the set, followed by a
# rigid rotation-and-scaling onto a single reference point.  Tracks are
# evaluated on a rational grid and every evaluated point is checked for
# membership exactly.


def _msq(p: Phase) -> Fraction:
    # a Fraction even for an integer charge, so quotients stay exact
    return Fraction(p.charge.norm_sq())


def _scale_phase(p: Phase, f: Fraction) -> Phase:
    if f <= 0:
        raise ValueError("scale must be positive")
    return Phase(p.offset, p.charge.scale(f))


def _ratio(wa: Gaussian, wb: Gaussian) -> Gaussian:
    """wa / wb as a Gaussian rational."""
    return wa * wb.conj() * Gaussian.of(Fraction(1, wb.norm_sq()), 0)


def _grid(n: int) -> List[Fraction]:
    return [Fraction(j, n) for j in range(n + 1)]


class _TrackFailure(Exception):
    pass


def _extremes(samples: Sequence[AngularPoint], set_id: str):
    """Target radii scales and common angular gaps for the first stage."""
    g1 = [phase_diff(s[1], s[0]) for s in samples]
    g2 = [phase_diff(s[2], s[0]) for s in samples]
    if set_id == "Ugt":
        u = max(g1)
        v = min(g2)
        r0_sq = min(_msq(s[0]) for s in samples)  # shrink r0
        r1_sq = max(_msq(s[1]) for s in samples)  # grow r1
        grow1 = True
    elif set_id == "Ult":
        u = min(g1)
        v = max(g2)
        r0_sq = max(_msq(s[0]) for s in samples)  # grow r0
        r1_sq = min(_msq(s[1]) for s in samples)  # shrink r1
        grow1 = False
    else:
        raise ValueError(set_id)
    return u, v, r0_sq, r1_sq, grow1


def _stage1_point_u1(sample: AngularPoint, s: Fraction, u, v, r0_sq, r1_sq,
                     grow1: bool, boost: Fraction) -> Optional[AngularPoint]:
    """Stage-one track point for Ugt/Ult at parameter s."""
    p0, p1, p2 = sample
    # radius 0: monotone rational rescale toward the extremal radius
    m0 = _msq(p0)
    f_end = r0_sq / m0
    if grow1:  # Ugt shrinks r0
        f_end = min(Fraction(1), f_end)
    else:  # Ult grows r0
        f_end = max(Fraction(1), f_end)
    q0 = _scale_phase(p0, (1 - s) + s * f_end)
    # coordinate 1: move angle to phi0 + u
    t1 = phase_add(p0, u)
    m1 = _msq(t1)
    if grow1:
        mu1 = max(Fraction(1), r1_sq / m1) * boost
    else:
        mu1 = min(Fraction(1), Fraction(1, int(m1) + 1)) / boost
    w1 = p1.direction().scale(1 - s) + t1.direction().scale(mu1 * s)
    # coordinate 2: move angle to phi0 + v, small radius
    t2 = phase_add(p0, v)
    w2 = p2.direction().scale(1 - s) + t2.direction().scale(s)
    wa1 = _warg(w1, q0) if s > 0 else p1
    wa2 = _warg(w2, q0) if s > 0 else p2
    if wa1 is None or wa2 is None:
        return None
    return (q0, wa1, wa2)


def _stage1_point_u2(sample: AngularPoint, s: Fraction,
                     r0_sq: Fraction, boost: Fraction) -> AngularPoint:
    """Stage-one track point for U2: angles fixed, radii rescaled (r0 down
    to the common minimum, r2 up by the boost factor)."""
    p0, p1, p2 = sample
    f0 = min(Fraction(1), r0_sq / _msq(p0))
    return (
        _scale_phase(p0, (1 - s) + s * f0),
        p1,
        _scale_phase(p2, (1 - s) + s * boost),
    )


def _stage2_points(end_t: AngularPoint, end_0: AngularPoint, grid: int,
                   set_id: str) -> List[Optional[AngularPoint]]:
    """Rigid rotation-and-scaling from the stage-one endpoint of a sample to
    the endpoint of the reference sample."""
    rho = _ratio(end_0[0].direction(), end_t[0].direction())
    gaps = tuple(_ratio(end_t[i].direction(), end_t[0].direction()) for i in (1, 2))
    lowest = min(end_t[0], end_0[0])
    highest = max(end_t[0], end_0[0])
    out: List[Optional[AngularPoint]] = []
    for s in _grid(grid):
        f = Gaussian.of(1 - s, 0) + rho.scale(s)
        w0 = end_t[0].direction() * f
        if w0.is_zero():
            out.append(None)
            continue
        q0 = phase_in_closed_window(w0, lowest, highest)
        if q0 is None:
            out.append(None)
            continue
        if set_id == "U2":
            # angles below phi0: anchor the window one step down
            q1 = _warg(w0 * gaps[0], q0.plus(-1))
            q2 = _warg(w0 * gaps[1], q0.plus(-1))
        else:
            q1 = _warg(w0 * gaps[0], q0)
            q2 = _warg(w0 * gaps[1], q0)
        if q1 is None or q2 is None:
            out.append(None)
            continue
        out.append((q0, q1, q2))
    return out


def homotopy_track(set_id: str, samples: Sequence[AngularPoint],
                   grid: int = 16) -> Dict:
    """Evaluate the two-stage contraction track on a rational parameter grid
    and report any evaluated point that leaves the set.

    Supported sets: Ugt, Ult, U2.  All samples must be members.
    """
    if set_id not in ("Ugt", "Ult", "U2"):
        raise ValueError("tracks available for Ugt, Ult, U2 only")
    for i, pt in enumerate(samples):
        if not appendix_member(pt, set_id):
            raise ValueError("sample %d is not a member of %s" % (i, set_id))

    exits: List[Dict] = []
    checked = 0

    for boost_pow in range(12):
        boost = Fraction(2) ** boost_pow
        exits = []
        checked = 0
        if set_id == "U2":
            r0_sq = min(_msq(s[0]) for s in samples)
            stage1 = {
                i: [_stage1_point_u2(pt, s, r0_sq, boost) for s in _grid(grid)]
                for i, pt in enumerate(samples)
            }
        else:
            u, v, r0_sq, r1_sq, grow1 = _extremes(samples, set_id)
            stage1 = {
                i: [
                    _stage1_point_u1(pt, s, u, v, r0_sq, r1_sq, grow1, boost)
                    for s in _grid(grid)
                ]
                for i, pt in enumerate(samples)
            }
        ref_end = stage1[0][-1]
        for i, track in stage1.items():
            pts = list(track)
            end = track[-1]
            if end is not None and ref_end is not None:
                try:
                    pts += _stage2_points(end, ref_end, grid, set_id)
                except ExactError:
                    pts += [None]
            for j, q in enumerate(pts):
                checked += 1
                if q is None or not appendix_member(q, set_id):
                    exits.append({"sample": i, "step": j})
        if not exits:
            break

    return {
        "set": set_id,
        "samples": len(samples),
        "grid": grid,
        "points_checked": checked,
        "exits": exits,
        "ok": not exits,
    }
