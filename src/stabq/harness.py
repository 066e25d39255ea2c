"""Seeded samplers, dual-path lemma verification suites, and SVG slices.

Every verification suite checks a set-theoretic statement two ways on each
sample: once through the definitional membership predicates (semistability
verdicts plus phase comparisons) and once through the statement's inequality
characterization.  Samples where a needed verdict is out of reach count as
"unknown" and are reported, never hidden.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import engine, regions
from .catalog import ExcObject, parse_label
from .exact import (
    ExactError, Gaussian, Phase, exact_int, json_typed, window_arg
)
from .triples import (
    A_SIDE, B_SIDE, FAMILY_IDS, family_triple, in_shift_set, shift_set_members
)

DEFAULT_BOUND = 64


# ---------------------------------------------------------------------------
# samplers


def _rand_frac(rng: random.Random, bound: int, positive=False) -> Fraction:
    lo = 1 if positive else -bound
    return Fraction(rng.randint(lo, bound), rng.randint(1, bound))


def _rand_charge(rng: random.Random, bound: int) -> Gaussian:
    if rng.random() < 0.05:
        # boundary of the upper branch: negative real axis
        return Gaussian.of(-_rand_frac(rng, bound, positive=True), 0)
    return Gaussian.of(_rand_frac(rng, bound), _rand_frac(rng, bound, positive=True))


# per family the members of its shift set within 2 of its largest shifts,
# in increasing order: the shift set is the same at every index of the
# family's chains
_SHIFT_MEMBERS = {fid: tuple(shift_set_members(family_triple(fid, 0), 2))
                  for fid in FAMILY_IDS}


def _rand_shift(rng: random.Random, fid: str):
    return rng.choice(_SHIFT_MEMBERS[fid])


def sample_sigma(
    anchor,
    constraints: Optional[str] = None,
    seed: int = 0,
    bound: int = DEFAULT_BOUND,
    rng: Optional[random.Random] = None,
) -> engine.StabilityPoint:
    """A deterministic random stability point on the given anchor.

    ``anchor`` is (family, m) or (family, m, shift); with no shift a random
    member of the shift set is chosen.  ``constraints`` may be the string
    "phi(M)=phi(M')", which is realized constructively on the middle-M
    family F8.  An anchor no point can have, or any other constraint,
    raises ValueError before any draw.
    """
    if constraints not in (None, "phi(M)=phi(M')"):
        raise ValueError("unknown constraint %r" % (constraints,))
    fid, m = anchor[:2]
    shift = anchor[2] if len(anchor) > 2 else None
    if (fid not in FAMILY_IDS or type(m) is not int or len(anchor) > 3
            or shift is not None and not (
                isinstance(shift, tuple) and len(shift) == 3
                and all(type(x) is int for x in shift)
                and in_shift_set(family_triple(fid, m), shift))):
        raise ValueError("no point has the anchor %r" % (anchor,))
    collinear = constraints is not None
    if collinear and fid != "F8":
        raise ValueError("collinear M/M' construction needs the middle-M family")
    # [M'] = [a^m] + [b^{m+1}[s2]] exactly when s2 is odd, and Z(M) = z1
    # exactly when s1 is even; the construction below needs such a shift,
    # and the three consecutive values of each a drawn member ranges over
    # hold one
    if collinear and shift is not None and (shift[1] % 2 or not shift[2] % 2):
        raise ValueError("no point with phi(M)=phi(M') has the anchor %r"
                         % (anchor,))
    if rng is None:
        rng = random.Random(seed)
    while True:
        sh = shift if shift is not None else _rand_shift(rng, fid)
        if not collinear:
            return engine.StabilityPoint(
                fid, m, sh, tuple(_rand_charge(rng, bound) for _ in range(3)))
        if sh[1] % 2 != 0 or sh[2] % 2 == 0:
            continue
        # on these anchors Z(M') = z0 + z2; force z0 + z2 parallel (same
        # direction) to z1 = Z(M).
        z0 = _rand_charge(rng, bound)
        z1 = _rand_charge(rng, bound)
        t = _rand_frac(rng, bound, positive=True)
        z2 = z1.scale(t) - z0
        if not z2.is_zero() and z2.in_upper_branch():
            return engine.StabilityPoint(fid, m, sh, (z0, z1, z2))


def _sample_point(rng: random.Random, fids: Sequence[str],
                  mlo: int = -2, mhi: int = 2,
                  bound: int = 32) -> engine.StabilityPoint:
    fid = rng.choice(list(fids))
    m = rng.randint(mlo, mhi)
    return sample_sigma((fid, m), rng=rng, bound=bound)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class VerificationReport:
    lemma_id: str
    attempted: int = 0
    decided: int = 0
    unknown: int = 0
    mismatches: List[dict] = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma_id,
            "attempted": self.attempted,
            "decided": self.decided,
            "unknown": self.unknown,
            "mismatches": self.mismatches,
            "seed": self.seed,
            "wall_time": round(self.wall_time, 3),
            "ok": self.ok,
        }


_SOFT = (regions.Undecidable, engine.UndecidedError, ExactError)


class _Mismatch(Exception):
    def __init__(self, detail: str):
        self.detail = detail


def _eq(lhs: bool, rhs: bool, what: str):
    if lhs != rhs:
        raise _Mismatch("%s: definitional %s vs system %s" % (what, lhs, rhs))


def _imp(lhs: bool, rhs: bool, what: str):
    if lhs and not rhs:
        raise _Mismatch("%s: definitional True but system False" % (what,))


def _phase(pt, label: str) -> Phase:
    return engine.phase_of(pt, parse_label(label))


def _status(pt, label: str) -> str:
    return engine.semistable(pt, parse_label(label)).status


def _require_ss(pt, label: str):
    """Fail on a decided-unstable object, escalate unknowns."""
    st = _status(pt, label)
    if st == "unstable":
        raise _Mismatch("%s decidedly unstable where the lemma demands ss" % label)
    if st == "unknown":
        raise regions.Undecidable(label)


def _zdiff_ab(pt, p: int) -> Gaussian:
    return engine.charge_of(pt, ExcObject("a", p, 0)) - engine.charge_of(
        pt, ExcObject("b", p + 1, 0)
    )


# ---------------------------------------------------------------------------
# the individual suites; each checker may raise _Mismatch or an unknown


def _chk_t12lemma1(pt, rng):
    in_f2 = regions.in_cells_union(pt, ("F2",))
    in_f5 = regions.in_cells_union(pt, ("F5",))
    if in_f2 and in_f5:
        raise _Mismatch("a-side and b-side Kronecker cells intersect")
    p = pt.m
    for dq in (1, 2, -1, -2):
        q = p + dq
        if regions.in_theta(pt, family_triple("F2", p)):
            if regions.in_theta(pt, family_triple("F3", q)):
                raise _Mismatch("F2@%d meets F3@%d" % (p, q))
            if regions.in_theta(pt, family_triple("F1", q)):
                raise _Mismatch("F2@%d meets F1@%d" % (p, q))
        if regions.in_theta(pt, family_triple("F5", p)):
            if regions.in_theta(pt, family_triple("F6", q)):
                raise _Mismatch("F5@%d meets F6@%d" % (p, q))
            if regions.in_theta(pt, family_triple("F4", q)):
                raise _Mismatch("F5@%d meets F4@%d" % (p, q))


def _chk_t12lemma3(pt, rng):
    p = pt.m
    if regions.in_theta(pt, family_triple("F2", p)):
        _eq(
            regions.in_cells_union(pt, ("F3",)),
            regions.in_theta(pt, family_triple("F3", p)),
            "F2@%d with right-M union" % p,
        )
        _eq(
            regions.in_cells_union(pt, ("F1",)),
            regions.in_theta(pt, family_triple("F1", p)),
            "F2@%d with left-M' union" % p,
        )
    if regions.in_theta(pt, family_triple("F5", p)):
        _eq(
            regions.in_cells_union(pt, ("F6",)),
            regions.in_theta(pt, family_triple("F6", p)),
            "F5@%d with right-M' union" % p,
        )
        _eq(
            regions.in_cells_union(pt, ("F4",)),
            regions.in_theta(pt, family_triple("F4", p)),
            "F5@%d with left-M union" % p,
        )


# The suites backed by a registered system: sys_id -> (family, instance
# keyword, union terms, equivalence).  Each checks Theta of the family at
# the sample's index n intersected with the union of the terms against the
# system at n, as an equivalence (True) or an inclusion (False).  The family
# is given per letter for the chain systems, whose letter is drawn first.
# A term is a composite name, or -1/+1 for Theta of the same family at
# n -/+ randint(1, 3).
_SYSTEM_SUITES = {
    "(_,_,X)0": ({"a": "F3", "b": "F6"}, "m", (-1,), True),
    "(X,_,_)0": ({"a": "F1", "b": "F4"}, "m", (1,), True),
    "T12Zcap(E_1)": ("F3", "m", ("SetZ",), True),
    "T43Zcap(E_1)": ("F6", "m", ("SetW",), True),
    "middle M cap left M'": ("F8", "p", ("Ta",), True),
    "middle M cap left M": ("F8", "p", ("Tb",), True),
    "middle M cap left right M": ("F8", "p", ("Ta", -1, "Tb"), True),
    "middle M' cap left M": ("F7", "p", ("Tb",), False),
    "middle M' cap left M'": ("F7", "p", ("Ta",), False),
    "middle M' cap left right middle M": ("F7", "p", ("Ta", "MidM", "Tb"), True),
}

_OFFSET_NAME = {"m": "j", "p": "q"}  # the second index, in mismatch details


def _chk_system(sys_id, pt, rng):
    family, key, terms, equivalence = _SYSTEM_SUITES[sys_id]
    kw = {}
    if isinstance(family, dict):
        kw["kind"] = rng.choice("ab")
        family = family[kw["kind"]]
    n = kw[key] = pt.m
    detail = "%s %s=%d" % (sys_id, key, n)
    q = None
    for term in terms:  # at most one Theta term per row
        if isinstance(term, int):
            q = n + term * rng.randint(1, 3)
            detail += " %s=%d" % (_OFFSET_NAME[key], q)
    lhs = regions.in_theta(pt, family_triple(family, n)) and any(
        regions.in_theta(pt, family_triple(family, q))
        if isinstance(term, int)
        else regions.in_composite(pt, term)
        for term in terms
    )
    rhs = regions.in_intersection_system(pt, sys_id, **kw)
    (_eq if equivalence else _imp)(lhs, rhs, detail)


def _chk_one_inclusion(pt, rng):
    p = pt.m
    q = p + rng.randint(1, 3)
    lhs = regions.in_theta(pt, family_triple("F7", p)) and regions.in_theta(
        pt, family_triple("F7", q)
    )
    rhs = (
        regions.in_composite(pt, "Ta")
        or regions.in_composite(pt, "MidM")
        or regions.in_composite(pt, "Tb")
    )
    _imp(lhs, rhs, "one inclusion p=%d q=%d" % (p, q))


def _warg_or_unknown(z: Gaussian, low: Phase) -> Phase:
    try:
        return window_arg(z, low)
    except ExactError as e:
        raise regions.Undecidable(str(e))


def _chk_ss_a(pt, rng):
    p = pt.m
    if not regions.in_theta(pt, family_triple("F8", p)):
        return
    pa = _phase(pt, "a[%d]" % p)
    pM = _phase(pt, "M")
    pb1 = _phase(pt, "b[%d]" % (p + 1))
    if not (pb1.plus(-1) < pM < pb1):
        return
    # (a)
    _require_ss(pt, "a[%d]" % (p + 1))
    pa1 = _phase(pt, "a[%d]" % (p + 1))
    if not (pb1.plus(-1) < pa1.plus(-1) < pM):
        raise _Mismatch("ss-a(a): phase of a^{p+1} outside its bracket")
    # (b)
    if pa < pM and not regions.in_theta(pt, family_triple("F3", p)):
        raise _Mismatch("ss-a(b): expected membership in (a^p,a^{p+1},M)")
    # (c)
    if pb1.plus(-1) < pa < pb1:
        _require_ss(pt, "M'")
        pMp = _phase(pt, "M'")
        wa = _warg_or_unknown(_zdiff_ab(pt, p), pb1.plus(-1))
        if not (pb1.plus(-1) < pMp < pa) or wa.cmp(pMp) != 0:
            raise _Mismatch("ss-a(c): phase of M' not the window argument")
        # (d)
        if pMp < pM and not regions.in_composite(pt, "RightM"):
            raise _Mismatch("ss-a(d): expected membership in the right-M union")


def _chk_ss_b(pt, rng):
    p = pt.m
    if not regions.in_theta(pt, family_triple("F8", p)):
        return
    pa = _phase(pt, "a[%d]" % p)
    pM = _phase(pt, "M")
    pb1 = _phase(pt, "b[%d]" % (p + 1))
    if not (pa.plus(-1) < pM < pa):
        return
    # (a)
    _require_ss(pt, "b[%d]" % p)
    pb = _phase(pt, "b[%d]" % p)
    if not (pM < pb < pa):
        raise _Mismatch("ss-b(a): phase of b^p outside its bracket")
    # (b)
    if pM.plus(1) < pb1 and not regions.in_theta(pt, family_triple("F4", p)):
        raise _Mismatch("ss-b(b): expected membership in (M,b^p,b^{p+1})")
    # (c)
    if pa.plus(-1) < pb1.plus(-1) < pa:
        _require_ss(pt, "M'")
        pMp = _phase(pt, "M'")
        wa = _warg_or_unknown(_zdiff_ab(pt, p), pa.plus(-1))
        if not (pb1.plus(-1) < pMp < pa) or wa.cmp(pMp) != 0:
            raise _Mismatch("ss-b(c): phase of M' not the window argument")
        # (d)
        if pM < pMp:
            if not (
                regions.in_composite(pt, "RightMp")
                or regions.in_theta(pt, family_triple("F4", p))
            ):
                raise _Mismatch("ss-b(d): expected right-M' union or (M,b^p,b^{p+1})")
        # (e)
        elif pM.cmp(pMp) == 0:
            for j in (p - 1, p - 2):
                if not regions.in_theta(pt, family_triple("F8", j)):
                    raise _Mismatch("ss-b(e): expected (a^j,M,b^{j+1}) at j=%d" % j)


def _chk_ss_ap(pt, rng):
    p = pt.m
    if not regions.in_theta(pt, family_triple("F7", p)):
        return
    pb = _phase(pt, "b[%d]" % p)
    pMp = _phase(pt, "M'")
    pa = _phase(pt, "a[%d]" % p)
    if not (pb.plus(-1) < pMp < pb):
        return
    # (a)
    _require_ss(pt, "a[%d]" % (p - 1))
    pam = _phase(pt, "a[%d]" % (p - 1))
    if not (pMp < pam < pb < pa):
        raise _Mismatch("ss-a'(a): phase chain M' < a^{p-1} < b^p < a^p broken")
    # (b)
    if pMp.plus(1) < pa and not regions.in_theta(pt, family_triple("F1", p - 1)):
        raise _Mismatch("ss-a'(b): expected membership in (M',a^{p-1},a^p)")
    # (c)
    if pb.plus(-1) < pa.plus(-1) < pb and not regions.in_theta(
        pt, family_triple("F8", p - 1)
    ):
        raise _Mismatch("ss-a'(c): expected membership in (a^{p-1},M,b^p)")


def _chk_ss_bp(pt, rng):
    p = pt.m
    if not regions.in_theta(pt, family_triple("F7", p)):
        return
    pb = _phase(pt, "b[%d]" % p)
    pMp = _phase(pt, "M'")
    pa = _phase(pt, "a[%d]" % p)
    if not (pa.plus(-1) < pMp < pa):
        return
    # (a)
    _require_ss(pt, "b[%d]" % (p + 1))
    pb1 = _phase(pt, "b[%d]" % (p + 1))
    if not (pb.plus(-1) < pa.plus(-1) < pb1.plus(-1) < pMp):
        raise _Mismatch("ss-b'(a): phase chain for b^{p+1} broken")
    # (b)
    if pb < pMp and not regions.in_theta(pt, family_triple("F6", p)):
        raise _Mismatch("ss-b'(b): expected membership in (b^p,b^{p+1},M')")
    # (c)
    if pa.plus(-1) < pb < pa and not regions.in_theta(
        pt, family_triple("F8", p)
    ):
        raise _Mismatch("ss-b'(c): expected membership in (a^p,M,b^{p+1})")


def _tri_composite(pt, name):
    """Three-valued composite membership: True/False or None (undecided)."""
    try:
        return regions.in_composite(pt, name)
    except regions.Undecidable:
        return None


def _chk_disjoint(pt, rng):
    # in_composite scans the finite block first, so a block hit costs no
    # tail work; Tb is not read when Ta is decided False
    a = _tri_composite(pt, "Ta")
    if a is False:
        return
    b = _tri_composite(pt, "Tb")
    if a and b:
        raise _Mismatch("Ta and Tb both contain the sample")
    if b is not False:
        raise regions.Undecidable("Ta/Tb disjointness not decided")


# Ta, MidMp, MidM and Tb: together the families F1-F8
_COVER = sum((regions.COMPOSITES[n] for n in ("Ta", "MidMp", "MidM", "Tb")), ())


def _chk_coverage(pt, rng):
    # one union over the four pieces' families: a block hit costs no tail
    # work, and the families' answers are kept on the point's analysis
    if not regions.in_cells_union(pt, _COVER):
        raise _Mismatch("sample escapes the four-piece decomposition")


# suite id -> (checker, anchor pool: where the sampler places its points); a
# None checker marks a suite backed by the registered system of the same
# id, checked by _chk_system
_SUITES: Dict[str, Tuple[Optional[Callable], Tuple[str, ...]]] = {
    "(_,_,X)0": (None, A_SIDE + B_SIDE),
    "(X,_,_)0": (None, A_SIDE + B_SIDE),
    "T12lemma1": (_chk_t12lemma1, ("F2", "F5", "F3", "F4")),
    "T12lemma3": (_chk_t12lemma3, ("F2", "F5")),
    "T12Zcap(E_1)": (None, ("F1", "F2", "F3")),
    "T43Zcap(E_1)": (None, ("F4", "F5", "F6")),
    "middle M cap left M'": (None, ("F8", "F1", "F2", "F3")),
    "middle M cap left M": (None, ("F8", "F4", "F5", "F6")),
    "middle M cap left right M": (None, ("F8", "F3", "F4")),
    "middle M' cap left M": (None, ("F7", "F4", "F5", "F6")),
    "middle M' cap left M'": (None, ("F7", "F1", "F2", "F3")),
    "middle M' cap left right middle M": (None, ("F7", "F8", "F3", "F4")),
    "one inclusion": (_chk_one_inclusion, ("F7",)),
    "semi-stability of a": (_chk_ss_a, ("F8",)),
    "semi-stability of b": (_chk_ss_b, ("F8",)),
    "semi-stability of a'": (_chk_ss_ap, ("F7",)),
    "semi-stability of b'": (_chk_ss_bp, ("F7",)),
    "disjointness-TaTb": (_chk_disjoint, FAMILY_IDS),
    "coverage": (_chk_coverage, FAMILY_IDS),
}

LEMMA_IDS = tuple(_SUITES)

DEFAULT_SAMPLES = 500


def _report(report_id: str, n_samples: int, seed: int, draw, check
            ) -> VerificationReport:
    """The report on ``n_samples`` points ``draw(rng)`` makes, with rng
    seeded from (report_id, seed).  ``check(pt, rng)`` returns the
    point's mismatches (dicts with a "detail"), or None for none, or
    raises: ``_Mismatch`` is one mismatch, ``engine.EngineError`` one
    "engine contradiction", and ``_SOFT`` (also raised by ``draw``) an
    unknown sample.  Every other sample is decided."""
    rng = random.Random((report_id, seed).__repr__())
    rep = VerificationReport(report_id, seed=seed)
    t0 = time.monotonic()
    for _ in range(n_samples):
        rep.attempted += 1
        try:
            pt = draw(rng)
            found = check(pt, rng) or []
        except _Mismatch as mm:
            found = [{"detail": mm.detail}]
        except engine.EngineError as ee:
            found = [{"detail": "engine contradiction: %s" % ee}]
        except _SOFT:
            rep.unknown += 1
            continue
        rep.decided += 1
        rep.mismatches += [dict(f, point=pt.to_json()) for f in found]
    rep.wall_time = time.monotonic() - t0
    return rep


def verify_lemma(lemma_id: str, n_samples: int = DEFAULT_SAMPLES,
                 seed: int = 0) -> VerificationReport:
    if lemma_id not in _SUITES:
        raise ValueError("unknown lemma id %r" % (lemma_id,))
    checker, pool = _SUITES[lemma_id]
    if checker is None:
        checker = partial(_chk_system, lemma_id)

    def draw(rng):
        if lemma_id == "semi-stability of b" and rng.random() < 0.25:
            return sample_sigma(("F8", rng.randint(-2, 2)),
                                constraints="phi(M)=phi(M')", rng=rng, bound=32)
        return _sample_point(rng, pool)

    return _report(lemma_id, n_samples, seed, draw, checker)


def verify_all(n_samples: int = DEFAULT_SAMPLES, seed: int = 0) -> List[VerificationReport]:
    return [verify_lemma(lid, n_samples, seed) for lid in LEMMA_IDS]


# ---------------------------------------------------------------------------
# differential test: rule engine vs brute-force heart oracle


@lru_cache(maxsize=None)
def _heart_test_objects():
    """Exceptional representations of the standard heart of total dimension
    at most ``ff.MAX_TOTAL_DIM``, the objects ``stab oracle`` accepts, as
    (catalog object, FiniteRep, rays).

    The rays are the extreme rays of the cone spanned by the proper nonzero
    dimension vectors of ``ff.all_subreps`` (``ff.extreme_rays``, in its
    key order), which decide King's criterion on the standard heart (see
    ``oracle_agreement``).  The table depends on no point, so it is
    built on the first call and shared by every later one; it is made of
    tuples and holds no witnesses, so no caller can change it."""
    from . import ff
    from .catalog import build_matrices, object_from_kclass
    from .quiver import Vec3

    dims = [Vec3(0, 1, 0), Vec3(1, 0, 1)]
    for k in range(ff.MAX_TOTAL_DIM // 3 + 1):
        dims += [
            Vec3(k + 1, k, k),
            Vec3(k, k + 1, k + 1),
            Vec3(k, k, k + 1),
            Vec3(k + 1, k + 1, k),
        ]
    out = []
    for d in dims:
        if sum(d) > ff.MAX_TOTAL_DIM:
            continue
        obj = object_from_kclass(d)
        rep = build_matrices(obj)
        out.append((obj, rep, ff.extreme_rays(ff.all_subreps(rep), d)))
    return tuple(out)


def oracle_agreement(n_samples: int = 1000, seed: int = 0) -> VerificationReport:
    """Compare the rule engine against exhaustive subrepresentation search on
    the standard-heart anchor: every decided engine verdict must match the
    oracle's.  Engine unknowns are counted, never compared.  The oracle's
    table of test objects and the extreme rays of their subrepresentation
    cones (``_heart_test_objects``) is built by the first call in a process
    and read by every later one, and it reads each point's integer charges
    of the simple classes, ``simple``: on the standard heart those are its
    charges scaled to a primitive integer triple.

    King's compare on the rays decides what it decides on every
    subrepresentation.  The closed upper branch H is closed under positive
    sums, so each subrepresentation vector, a nonnegative combination of
    the rays, has its charge in H (nonzero) when the rays' charges are:
    the branch and zero-charge checks pass on all of them iff they pass
    on the rays.  For an argument t in (0, pi], the charges in H of
    argument at most t are H cut by a closed half-plane through 0, again
    closed under positive sums; so the largest argument over all the
    subrepresentations is attained on a ray, and some subrepresentation
    has a larger argument than the whole iff some ray has.  A destabilizer
    named on the rays has a charge parallel to the one the full scan
    names, and is printed only in a mismatch.  ``stab oracle`` still scans
    every subrepresentation."""
    from . import ff

    objs = _heart_test_objects()

    def draw(rng):
        return engine.standard_heart_point(
            tuple(_rand_charge(rng, 16) for _ in range(3)))

    def check(pt, rng):
        found, decided_any = [], False
        for obj, frep, rays in objs:
            st = engine.semistable(pt, obj).status
            if st == "unknown":
                continue
            decided_any = True
            ok, destab = ff.semistable_in_heart(frep, pt.simple, subreps=rays)
            if ok != (st == "semistable"):
                found.append({
                    "detail": "engine %s vs oracle %s on %s"
                    % (st, "semistable" if ok else "unstable", obj),
                    "destabilizer": None if destab is None else list(destab),
                })
        if not decided_any:
            raise engine.UndecidedError("no test object decided")
        return found

    return _report("oracle-agreement", n_samples, seed, draw, check)


# ---------------------------------------------------------------------------
# slice rendering


_SLICE_COLORS = {
    "Ta": "#d94f4f",
    "Tb": "#4f6fd9",
    "MidM": "#4fb56a",
    "MidMp": "#c9a23a",
    "SetZ": "#e08f8f",
    "SetW": "#8fa4e0",
}


def _grid_charge(i: int, res: int) -> Gaussian:
    u = Fraction(i + 1, res + 1)
    return Gaussian.of(1 - u * u, 2 * u)


# the keys of a slice spec: its own, and those of a point's JSON form, whose
# anchor it reads and the rest of which it ignores
SLICE_KEYS = frozenset(("regions", "resolution", "z2")) | engine.POINT_KEYS


def slice_params(spec: dict):
    """The regions, anchor (family, m, shift), resolution and third charge
    of a slice spec, checked: a malformed spec raises KeyError, TypeError,
    ValueError or ArithmeticError here rather than midway through the
    render.

    spec keys: regions (list of composite names), anchor {family,m,shift},
    resolution (grid size per axis), z2 {re, im} (optional), and the other
    keys of a point's JSON form, ignored (``SLICE_KEYS``); any other key,
    or one outside the anchor's three, raises ValueError.
    """
    if not isinstance(spec, dict):
        raise TypeError("a slice spec is a JSON object")
    json_typed(spec, dict, "the slice spec", SLICE_KEYS)
    names = list(json_typed(spec.get("regions", ["Ta", "Tb", "MidM"]), list,
                            "regions"))
    unknown = [n for n in names if n not in regions.COMPOSITES]
    if unknown:
        raise ValueError("unknown regions %s" % (unknown,))
    a = spec.get("anchor", {"family": "F8", "m": 0, "shift": [0, 0, -1]})
    a = json_typed(a, dict, "anchor", engine.ANCHOR_KEYS)
    shift = json_typed(a["shift"], list, "anchor.shift")
    anchor = (a["family"], exact_int(a["m"]), tuple(exact_int(x) for x in shift))
    res = exact_int(spec.get("resolution", 16))
    if res < 1:
        raise ValueError("resolution must be positive")
    z2 = (
        Gaussian.from_json(spec["z2"])
        if "z2" in spec
        else Gaussian.of(Fraction(-1), Fraction(1))
    )
    # the anchor and z2 are valid iff the first grid point is
    engine.StabilityPoint(*anchor, (_grid_charge(0, res),) * 2 + (z2,))
    return names, anchor, res, z2


def slice_csv_path(out_path: str) -> str:
    """The path of the .csv written beside the .svg ``out_path``: its
    extension, if any, replaced by .csv.  Raises ValueError when that is
    ``out_path`` itself, which would leave only one of the two files."""
    csv_path = os.path.splitext(out_path)[0] + ".csv"
    if csv_path == out_path:
        raise ValueError("%s ends in .csv, the extension of the grid written "
                         "beside the .svg" % (out_path,))
    return csv_path


def slice_svg(spec: dict, out_path: str) -> None:
    """Render membership of the named regions over a 2D rational grid of
    first/second anchor charge directions; the third charge is fixed.
    ``spec`` is described at ``slice_params``; the grid also goes to
    ``slice_csv_path(out_path)``."""
    names, anchor, res, z2 = slice_params(spec)
    csv_path = slice_csv_path(out_path)
    # both outputs are opened before the render, so an unwritable path fails
    # at once, and a .csv that cannot be written leaves no .svg behind
    svg_file = open(out_path, "w")
    try:
        csv_file = open(csv_path, "w")
    except OSError:
        svg_file.close()
        os.remove(out_path)
        raise
    with svg_file, csv_file:
        cell = 12
        rows: List[str] = ["i,j," + ",".join(names)]
        rects: List[str] = []
        for i in range(res):
            for j in range(res):
                pt = engine.StabilityPoint(
                    *anchor, (_grid_charge(i, res), _grid_charge(j, res), z2)
                )
                hits = []
                for name in names:
                    try:
                        hits.append(regions.in_composite(pt, name))
                    except regions.Undecidable:
                        hits.append(None)
                rows.append(
                    "%d,%d,%s"
                    % (i, j, ",".join("" if h is None else str(int(h)) for h in hits))
                )
                color = "#eeeeee"
                for name, h in zip(names, hits):
                    if h:
                        color = _SLICE_COLORS.get(name, "#888888")
                        break
                rects.append(
                    '<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>'
                    % (i * cell, (res - 1 - j) * cell, cell, cell, color)
                )
        svg = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">\n'
            % (res * cell, res * cell)
            + "\n".join(rects)
            + "\n</svg>\n"
        )
        svg_file.write(svg)
        csv_file.write("\n".join(rows) + "\n")
