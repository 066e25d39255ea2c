"""Exact polyhedral membership: interval-constrained difference sets S^n(I),
their shifted unions, and six angular half-plane sets with explicit in-set
deformation tracks.

A shifted union is decided exactly, with no shift enumerated: membership
is the feasibility of one integer difference system on the shift
(``feasible``).

Points of the angular sets live in (R_{>0} x R)^3, but every sample here is
presented as a triple of Phases whose charges are Gaussian rationals: the
radius is the (implicit) modulus of the charge and the angle is the phase.
All comparisons are exact sign tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, inf
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
from .triples import ExcTriple, theta_bounds

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


def feasible(n: int, bounds: Sequence[Tuple[int, int, int]]) -> bool:
    """Whether some integers x_0..x_{n-1} meet every bound (i, j, w), w an
    integer, meaning x_i - x_j <= w: exactly when the graph with an edge
    i -> j of weight w per bound has no negative cycle (Cormen, Leiserson,
    Rivest and Stein, Introduction to Algorithms, 24.4), found by
    Floyd-Warshall as a negative diagonal entry."""
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i, j, w in bounds:
        d[i][j] = min(d[i][j], w)
    for k in range(n):
        dk = d[k]
        for di in d:
            dik = di[k]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return all(d[i][i] >= 0 for i in range(n))


def union_square_member(y: RatVec, n: int) -> bool:
    """Membership in the union of S^n(-1,1) + v over nondecreasing integer
    shift vectors v (v_0 = 0).  An integer k has d - 1 < k < d + 1 exactly
    when floor(d) <= k <= ceil(d), so y - v lies in S^n(-1,1) exactly when
    floor(y_i - y_j) <= v_i - v_j <= ceil(y_i - y_j) for every i < j."""
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    y = [Fraction(v) for v in y]
    if len(y) != n + 1:
        raise ValueError("point dimension mismatch")
    bounds = [(i, i + 1, 0) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n + 1):
            d = y[i] - y[j]
            bounds += [(i, j, ceil(d)), (j, i, -floor(d))]
    return feasible(n + 1, bounds)


def a0_union_member(phi: RatVec, t: ExcTriple) -> bool:
    """Membership of a rational phase triple p in the union, over the
    shift set of t, of shifted copies of S^2(-inf, 1): exactly the three
    inequalities p_i - p_j < 1 + bound of ``triples.theta_bounds``.

    Proof.  With F_ij = floor(p_i - p_j), the copy at the shift (0, s1,
    s2) holds p exactly when F01 <= s1, F02 <= s2 and F12 <= s2 - s1; the
    shift set is s1 <= alpha, s2 <= beta, s2 - s1 <= gamma.  This system
    on (0, s1, s2) is feasible exactly when no cycle of its graph is
    negative (``feasible``): F01 <= alpha, F02 <= beta, F12 <= gamma,
    F02 <= alpha + gamma and F01 + F12 <= beta, the last implied by the
    second as F01 + F12 <= floor(p0 - p2) = F02.  A None bound removes
    the cycles through it, hence min(beta, alpha + gamma) over the finite
    ones; and F_ij <= b is p_i - p_j < 1 + b."""
    y = [Fraction(v) for v in phi]
    if len(y) != 3:
        raise ValueError("need a triple")
    return all(
        bound is None or y[i] - y[j] < 1 + bound
        for (i, j), bound in zip(((0, 1), (0, 2), (1, 2)), theta_bounds(t))
    )


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
