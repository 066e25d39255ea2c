"""Exact membership predicates for cells, composite regions, and the
intersection characterizations, plus region classification.

All predicates are three-valued in spirit: True/False when every needed
semistability verdict is decided, and an Undecidable error otherwise --
an undecided verdict must never silently read as "not in the region".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import engine
from .catalog import ExcObject, hom_dims
from .exact import ExactError, Phase, window_arg
from .triples import (
    A_SIDE,
    B_SIDE,
    FAMILY_SHAPES,
    ExcTriple,
    alpha_beta_gamma,
    extreme_shift,
    family_triple,
    mutate_left,
    mutate_right,
)

WINDOW = engine.DEFAULT_WINDOW


class Undecidable(ValueError):
    pass


def _phases(
    point, objs, window: int = WINDOW
) -> Tuple[Optional[List[Phase]], bool]:
    """Conditional phases of the given objects, with a certification flag.

    Returns (None, True) when some object cannot be semistable, so any
    region requiring all of them semistable is decidedly missed.  Otherwise
    the list holds, for each object, its decided phase or the unique phase
    it would have were it semistable; the flag is True only when every
    verdict is a decided "semistable".  Inequalities that fail on these
    phases certify non-membership even without full verdicts."""
    out, certified = [], True
    for o in objs:
        v = engine.semistable(point, o, window)
        if v.status == "unstable":
            return None, True
        if v.status != "semistable":
            certified = False
        try:
            ph = engine.conditional_phase(point, o.base(), window)
        except (engine.UndecidedError, ExactError) as e:
            raise Undecidable(str(e))
        if ph is None:
            return None, True
        out.append(ph.plus(o.shift))
    return out, certified


def _certify(ok: bool, certified: bool) -> bool:
    """Sound three-valued conjunction of an inequality check with the
    semistability requirement."""
    if not ok:
        return False
    if not certified:
        raise Undecidable("inequalities hold but semistability undecided")
    return True


def _lt(p: Phase, q: Phase, n: int = 0) -> bool:
    """p < q + n."""
    return p.cmp(q.plus(n)) < 0


def _min_bound(*vals):
    """None-aware minimum (None = +infinity)."""
    finite = [v for v in vals if v is not None]
    return min(finite) if finite else None


# ---------------------------------------------------------------------------
# the basic regions


def in_theta_prime(point, t: ExcTriple) -> bool:
    ph, cert = _phases(point, t.objs)
    if ph is None:
        return False
    ok = all(
        _lt(ph[i], ph[j], 1) and _lt(ph[j], ph[i], 1)
        for i in range(3)
        for j in range(i + 1, 3)
    )
    return _certify(ok, cert)


def in_theta(point, t: ExcTriple) -> bool:
    """Closed-form membership: semistability plus the three strict gap
    bounds derived from the surviving hom degrees."""
    ph, cert = _phases(point, t.objs)
    if ph is None:
        return False
    a, b, g = alpha_beta_gamma(t)
    ag = None if (a is None or g is None) else a + g
    bounds = ((0, 1, a), (0, 2, _min_bound(b, ag)), (1, 2, g))
    ok = all(
        bound is None or _lt(ph[i], ph[j], 1 + bound) for i, j, bound in bounds
    )
    return _certify(ok, cert)


# the three inequality patterns of the cell tables, as strict comparisons
# p_i < p_j + c on the phase triple
def _pattern_ineqs(fid: str) -> Tuple[Tuple[int, int, int], ...]:
    if fid in ("F1", "F2", "F4", "F5"):
        return ((0, 1, 0), (0, 2, -1), (1, 2, 0))
    if fid in ("F3", "F6"):
        return ((0, 1, 0), (0, 2, 0), (1, 2, 1))
    # F7, F8
    return ((0, 1, 1), (0, 2, 0), (1, 2, 0))


def _cell_pattern(fid: str, ph) -> bool:
    return all(_lt(ph[i], ph[j], c) for i, j, c in _pattern_ineqs(fid))


def in_named_cell(point, fid: str, m: int, window: int = WINDOW) -> bool:
    t = family_triple(fid, m)
    ph, cert = _phases(point, t.objs, window)
    if ph is None:
        return False
    return _certify(_cell_pattern(fid, ph), cert)


# ---------------------------------------------------------------------------
# composite regions

_UNRESOLVED = object()

TAIL_EXT = 24  # extra cell indices scanned when a tail cannot be excluded


def _cond3(point, obj: ExcObject, window: int):
    """Conditional phase, None (cannot be semistable), or _UNRESOLVED."""
    try:
        return engine.conditional_phase(point, obj, window)
    except (engine.UndecidedError, ExactError):
        return _UNRESOLVED


_DEAD = "dead"  # no far chain object of the letter can be semistable


def _reference_objects(point, window: int):
    """Decided-semistable objects with pinned phases: the anchors, plus M
    and M' when the engine certifies them."""
    refs = list(zip(point.anchor().objs, point.anchor_phases()))
    for name in ("M", "Mp"):
        x = ExcObject(name, 0, 0)
        if engine.semistable(point, x, window).status == "semistable":
            try:
                refs.append((x, engine.phase_of(point, x, window)))
            except (engine.UndecidedError, ExactError):
                pass
    return refs


def _far_bracket(point, kind: str, j_edge: int, direction: int, window: int):
    """A closed bracket [lo, up] every unscanned chain object's phase must
    satisfy were it semistable, from the hom degrees against the decided
    reference objects (a nonzero hom in degree d from U to V forces
    phi(U) <= phi(V) + d).  The degrees are eventually constant in the
    chain index; only references whose degree has stabilized over the whole
    tail are used.  Ends may be None (unbounded); returns _DEAD when the
    bracket is empty."""
    probes = [j_edge + direction * k for k in (0, 1, 2, 7, 999)]
    lo = up = None
    for ref, ph in _reference_objects(point, window):
        fwd = {
            (h[0] if h is not None else None)
            for h in (hom_dims(ExcObject(kind, j, 0), ref) for j in probes)
        }
        if len(fwd) == 1:
            d = fwd.pop()
            if d is not None:
                bound = ph.plus(d)
                if up is None or bound.cmp(up) < 0:
                    up = bound
        bwd = {
            (h[0] if h is not None else None)
            for h in (hom_dims(ref, ExcObject(kind, j, 0)) for j in probes)
        }
        if len(bwd) == 1:
            d = bwd.pop()
            if d is not None:
                bound = ph.plus(-d)
                if lo is None or bound.cmp(lo) > 0:
                    lo = bound
    if lo is not None and up is not None and lo.cmp(up) > 0:
        return _DEAD
    return lo, up


def _tail_enclosure(point, window: int, hi: bool) -> Dict[str, Optional[tuple]]:
    """Constraints on the phase any chain object beyond the scanned block
    could have, were it semistable.

    Beyond the block the chain K-classes move along exact rays
    [x^(j -/+ 1)] = [x^j] +/- [delta], so the window arguments of their
    charges are strictly monotone and converge to the window representative
    of the ray direction; with a decided phase at the block edge this
    encloses every far phase between the edge phase and the ray limit.
    Without one, the hom brackets against the decided reference objects
    still bound (or empty out) the possible phases.  Per letter the result
    is (lo, lo_strict, up, up_strict, inc): an enclosure with open/closed
    ends (None = unbounded) and whether the phases increase with the chain
    index (None when unknown); the sentinel _DEAD marks a letter whose far
    objects cannot be semistable at all, and None certifies nothing."""
    direction = 1 if hi else -1
    j_edge = point.m + window + 1 if hi else point.m - window
    out: Dict[str, Optional[tuple]] = {}
    for kind in ("a", "b"):
        bracket = _far_bracket(point, kind, j_edge, direction, window)
        if bracket == _DEAD:
            out[kind] = _DEAD
            continue
        fallback = None
        if bracket != (None, None):
            fallback = (bracket[0], False, bracket[1], False, None)
        out[kind] = fallback
        if (hi and j_edge < 1) or (not hi and j_edge > 0):
            continue  # block edge outside the linear zone of the K-classes
        ph_edge = _cond3(point, ExcObject(kind, j_edge, 0), window)
        if ph_edge is None:
            continue  # edge object dead; keep the bracket fallback
        if not isinstance(ph_edge, Phase):
            continue
        edge = engine.charge_of(point, ExcObject(kind, j_edge, 0))
        step = (
            engine.charge_of(point, ExcObject(kind, j_edge + direction, 0))
            - edge
        )
        if step.is_zero() or step.cross(edge) == 0:
            continue
        try:
            limit = window_arg(step, ph_edge.plus(-1))
        except ExactError:
            try:
                limit = window_arg(step, ph_edge)
            except ExactError:
                continue
        below = limit.cmp(ph_edge) < 0
        lo, up = (limit, ph_edge) if below else (ph_edge, limit)
        # the limit sits at the far end, so the phases increase with the
        # index exactly when the block edge is the high end of a low tail,
        # or the low end of a high tail
        inc = below if not hi else not below
        out[kind] = (lo, below, up, not below, inc)
    return out


def _tail_family_excluded(point, fid: str, encl, window: int) -> bool:
    """True when no cell of the family beyond the scanned block can contain
    the point; False when that cannot be certified."""
    shape = FAMILY_SHAPES[fid]
    if any(encl[k] == _DEAD for k, r in shape if r is not None):
        return True
    lowers: Dict[int, list] = {}
    uppers: Dict[int, list] = {}
    fixed_needed = []
    for i, j, c in _pattern_ineqs(fid):
        (ki, ri), (kj, rj) = shape[i], shape[j]
        if ri is not None and rj is not None:
            # two chain members: the surviving hom and ext between far
            # chain neighbours keep their phase gap inside [-1, 1], with a
            # known sign for a same-letter pair when the enclosure says
            # which way the phases move
            if ki == kj and encl[ki] is not None and encl[ki][4] is not None:
                dmin = -1 if encl[ki][4] == (ri < rj) else 0
            else:
                dmin = -1
            if c <= dmin:
                return True
        elif ri is not None:  # chain < fixed + c
            uppers.setdefault(i, []).append((kj, c))
            fixed_needed.append(kj)
        elif rj is not None:  # fixed < chain + c
            lowers.setdefault(j, []).append((ki, -c))
            fixed_needed.append(ki)
    fixed_ph: Dict[str, Phase] = {}
    for kind in set(fixed_needed):
        ph = _cond3(point, ExcObject(kind, 0, 0), window)
        if ph is None:  # the rigid object cannot be semistable at all
            return True
        if not isinstance(ph, Phase):
            return False
        fixed_ph[kind] = ph
    for pos, (kind, rel) in enumerate(shape):
        if rel is None or encl[kind] is None:
            continue
        eff_lo, lo_strict, eff_up, up_strict, _ = encl[kind]
        for fk, shift in lowers.get(pos, ()):
            bound = fixed_ph[fk].plus(shift)
            if eff_lo is None or bound.cmp(eff_lo) >= 0:
                eff_lo, lo_strict = bound, True
        for fk, shift in uppers.get(pos, ()):
            bound = fixed_ph[fk].plus(shift)
            if eff_up is None or bound.cmp(eff_up) <= 0:
                eff_up, up_strict = bound, True
        if eff_lo is None or eff_up is None:
            continue
        s = eff_lo.cmp(eff_up)
        if s > 0 or (s == 0 and (lo_strict or up_strict)):
            return True
    return False


def _tails_excluded(point, fids, window: int) -> bool:
    tails = point.analysis(window).tails
    for hi in (False, True):
        encl = tails.get(hi)
        if encl is None:
            encl = tails[hi] = _tail_enclosure(point, window, hi)
        for fid in fids:
            if not _tail_family_excluded(point, fid, encl, window):
                return False
    return True


def scan_cells(point, fids, window: int = WINDOW) -> Tuple[bool, bool]:
    """Scan the finite block of cell indices around the anchor.  Returns
    (hit, undecided); a hit is sound for the full infinite union, while
    hit == False says nothing about the cells beyond the block."""
    undecided = False
    for fid in fids:
        for m in range(point.m - window, point.m + window + 1):
            try:
                if in_named_cell(point, fid, m, window):
                    return True, undecided
            except Undecidable:
                undecided = True
    return False, undecided


def in_cells_union(point, fids, window: int = WINDOW) -> bool:
    hit, undecided = scan_cells(point, fids, window)
    if hit:
        return True
    if not _tails_excluded(point, fids, window):
        # a far cell might contain the point: rescan a widened block, then
        # require the remaining tails to be excluded
        wide = window + TAIL_EXT
        for fid in fids:
            for m in (
                *range(point.m - wide, point.m - window),
                *range(point.m + window + 1, point.m + wide + 1),
            ):
                try:
                    if in_named_cell(point, fid, m, wide):
                        return True
                except Undecidable:
                    undecided = True
        if not _tails_excluded(point, fids, wide):
            raise Undecidable("union not certified false (far cells)")
    if undecided:
        raise Undecidable("union not certified false (undecided cells)")
    return False


def in_Ta(point, window: int = WINDOW) -> bool:
    return in_cells_union(point, A_SIDE, window)


def in_Tb(point, window: int = WINDOW) -> bool:
    return in_cells_union(point, B_SIDE, window)


COMPOSITES = {
    "Ta": A_SIDE,
    "Tb": B_SIDE,
    "LeftMp": ("F1",),  # (M',_,_)
    "RightM": ("F3",),  # (_,_,M)
    "LeftM": ("F4",),  # (M,_,_)
    "RightMp": ("F6",),  # (_,_,M')
    "MidMp": ("F7",),  # (_,M',_)
    "MidM": ("F8",),  # (_,M,_)
    "SetZ": ("F1", "F2"),
    "SetW": ("F4", "F5"),
    "St": ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8"),
}


def in_composite(point, name: str, window: int = WINDOW) -> bool:
    return in_cells_union(point, COMPOSITES[name], window)


def classify(point, window: int = WINDOW) -> List[Tuple]:
    """Every region decidedly containing the point; undecidable regions are
    skipped (classification never errors)."""
    out: List[Tuple] = []
    for fid in ("F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8"):
        for m in range(point.m - window, point.m + window + 1):
            try:
                if in_named_cell(point, fid, m):
                    out.append(("cell", fid, m))
            except Undecidable:
                pass
    for name in COMPOSITES:
        try:
            if in_composite(point, name, window):
                out.append(("region", name))
        except Undecidable:
            pass
    return out


# ---------------------------------------------------------------------------
# intersection characterizations


def _warg_vs(point, diff_charge, low: Phase, rhs: Phase) -> Optional[int]:
    """Sign of (window-argument of diff_charge in (low, low+1)) - rhs, or
    None when the charge is not strictly inside the window half-plane."""
    try:
        wa = window_arg(diff_charge, low)
    except ExactError:
        return None
    return wa.cmp(rhs)


def _sys_chain_with_X(point, kind: str, m: int) -> Optional[bool]:
    """0 < phi(x^{m+1}) - phi(x^m) < 1, phi(x^m) < phi(X),
    phi(x^{m+1}) < phi(X) + 1, where X = M for a, M' for b."""
    X = ExcObject("M" if kind == "a" else "Mp", 0, 0)
    ph, cert = _phases(
        point, (ExcObject(kind, m, 0), ExcObject(kind, m + 1, 0), X)
    )
    if ph is None:
        return False
    pm, pm1, pX = ph
    ok = _lt(pm, pm1) and _lt(pm1, pm, 1) and _lt(pm, pX) and _lt(pm1, pX, 1)
    return _certify(ok, cert)


def _sys_X_with_chain(point, kind: str, m: int) -> Optional[bool]:
    """phi(X) < phi(x^m), phi(X) + 1 < phi(x^{m+1}),
    0 < phi(x^{m+1}) - phi(x^m) < 1, where X = M' for a, M for b."""
    X = ExcObject("Mp" if kind == "a" else "M", 0, 0)
    ph, cert = _phases(
        point, (X, ExcObject(kind, m, 0), ExcObject(kind, m + 1, 0))
    )
    if ph is None:
        return False
    pX, pm, pm1 = ph
    ok = _lt(pX, pm) and _lt(pX, pm1, -1) and _lt(pm, pm1) and _lt(pm1, pm, 1)
    return _certify(ok, cert)


def _sys_chain_cap_Z(point, kind: str, m: int) -> bool:
    """Characterization of (x^m, x^{m+1}, X) meeting the one-sided composite
    built from the other chain letter, for x = a (X = M) and x = b (X = M')."""
    X = ExcObject("M" if kind == "a" else "Mp", 0, 0)
    xm, xm1 = ExcObject(kind, m, 0), ExcObject(kind, m + 1, 0)
    ph, cert = _phases(point, (xm, xm1, X))
    if ph is None:
        return False
    pm, pm1, pX = ph
    sys2 = (
        _lt(pX, pm1)
        and _lt(pm, pm1)
        and _lt(pm, pX)
        and _lt(pm1, pX, 1)
    )
    sys1 = (
        _lt(pm, pm1) and _lt(pm1, pm, 1)
        and _lt(pm, pX) and _lt(pX, pm, 1)
    )
    if sys1 and not sys2:
        zdiff = engine.charge_of(point, xm) - engine.charge_of(point, xm1)
        cmp = _warg_vs(point, zdiff, pm.plus(-1), pX.plus(-1))
        sys1 = cmp is not None and cmp > 0
    return _certify(sys2 or sys1, cert)


def _mid_m_phases(point, p: int):
    return _phases(
        point,
        (ExcObject("a", p, 0), ExcObject("M", 0, 0), ExcObject("b", p + 1, 0)),
    )


def _mid_m_zdiff(point, p: int):
    return engine.charge_of(point, ExcObject("a", p, 0)) - engine.charge_of(
        point, ExcObject("b", p + 1, 0)
    )


def _sys_mid_m_cap_a_side(point, p: int) -> bool:
    ph, cert = _mid_m_phases(point, p)
    if ph is None:
        return False
    pa, pM, pb = ph
    ok = _lt(pa, pM) and _lt(pb, pM, 1) and _lt(pM, pb)
    if not ok and (
        _lt(pb, pM, 1) and _lt(pM, pb) and _lt(pb, pa, 1) and _lt(pa, pb)
    ):
        cmp = _warg_vs(point, _mid_m_zdiff(point, p), pb.plus(-1), pM)
        ok = cmp is not None and cmp < 0
    return _certify(ok, cert)


def _sys_mid_m_cap_b_side(point, p: int) -> bool:
    ph, cert = _mid_m_phases(point, p)
    if ph is None:
        return False
    pa, pM, pb = ph
    ok = False
    if _lt(pa, pM, 1) and _lt(pM, pa):
        if _lt(pM, pb, -1):
            ok = True
        elif _lt(pa, pb) and _lt(pb, pa, 1):
            cmp = _warg_vs(point, _mid_m_zdiff(point, p), pa.plus(-1), pM)
            ok = cmp is not None and cmp > 0
    return _certify(ok, cert)


def _sys_mid_m_cap_both(point, p: int) -> bool:
    """Four-system disjunction; independent of the second middle index."""
    ph, cert = _mid_m_phases(point, p)
    if ph is None:
        return False
    pa, pM, pb = ph
    s11 = _lt(pa, pM, 1) and _lt(pM, pa) and _lt(pa, pb) and _lt(pb, pa, 1)
    s12 = _lt(pa, pM, 1) and _lt(pM, pa) and _lt(pM, pb, -1)
    s21 = _lt(pa, pM) and _lt(pb, pM, 1) and _lt(pM, pb)
    ok = s11 or s12 or s21
    if not ok and (
        _lt(pb, pM, 1) and _lt(pM, pb) and _lt(pb, pa, 1) and _lt(pa, pb)
    ):
        cmp = _warg_vs(point, _mid_m_zdiff(point, p), pb.plus(-1), pM)
        ok = cmp is not None and cmp < 0
    return _certify(ok, cert)


def _mid_mp_phases(point, p: int):
    return _phases(
        point,
        (ExcObject("b", p, 0), ExcObject("Mp", 0, 0), ExcObject("a", p, 0)),
    )


def _sys_mid_mp_cap_b_side(point, p: int) -> bool:
    ph, cert = _mid_mp_phases(point, p)
    if ph is None:
        return False
    pb, pMp, pa = ph
    ok = (_lt(pa, pMp, 1) and _lt(pMp, pa)) and (
        (_lt(pa, pb, 1) and _lt(pb, pa)) or _lt(pb, pMp)
    )
    return _certify(ok, cert)


def _sys_mid_mp_cap_a_side(point, p: int) -> bool:
    ph, cert = _mid_mp_phases(point, p)
    if ph is None:
        return False
    pb, pMp, pa = ph
    ok = (_lt(pb, pMp, 1) and _lt(pMp, pb)) and (
        (_lt(pb, pa) and _lt(pa, pb, 1)) or _lt(pMp, pa, -1)
    )
    return _certify(ok, cert)


def _sys_mid_mp_cap_all(point, p: int) -> bool:
    ph, cert = _mid_mp_phases(point, p)
    if ph is None:
        return False
    pb, pMp, pa = ph
    s11 = _lt(pa, pMp, 1) and _lt(pMp, pa) and _lt(pa, pb, 1) and _lt(pb, pa)
    s12 = _lt(pa, pMp, 1) and _lt(pMp, pa) and _lt(pb, pMp)
    s21 = _lt(pb, pMp, 1) and _lt(pMp, pb) and _lt(pb, pa) and _lt(pa, pb, 1)
    s22 = _lt(pb, pMp, 1) and _lt(pMp, pb) and _lt(pMp, pa, -1)
    return _certify(s11 or s12 or s21 or s22, cert)


# mutation-pair intersections for a downward-shifted triple


def _sys_mutation_r0(point, t: ExcTriple) -> bool:
    """Membership system for Theta of t meeting Theta of its first right
    mutation (t must have alpha = gamma = 0)."""
    ph, cert = _phases(point, t.objs)
    if ph is None:
        return False
    p0, p1, p2 = ph
    _, b, _ = alpha_beta_gamma(t)
    x = mutate_right(t[0], t[1]).shifted(-1)
    _, _, gp = alpha_beta_gamma(ExcTriple((t[1], x, t[2])))
    b_bound = _min_bound(b, 0)
    g_bound = _min_bound(gp, 1)
    ok = (
        _lt(p1, p0)
        and _lt(p0, p1, 1)
        and (b_bound is None or _lt(p0, p2, 1 + b_bound))
        and (g_bound is None or _lt(p1, p2, g_bound))
    )
    return _certify(ok, cert)


def _sys_mutation_l1(point, t: ExcTriple) -> bool:
    """Membership system for Theta of t meeting Theta of its second left
    mutation (t must have alpha = gamma = 0)."""
    ph, cert = _phases(point, t.objs)
    if ph is None:
        return False
    p0, p1, p2 = ph
    _, b, _ = alpha_beta_gamma(t)
    y = mutate_left(t[1], t[2]).shifted(1)
    ap, _, _ = alpha_beta_gamma(ExcTriple((t[0], y, t[1])))
    b_bound = _min_bound(b, 0)
    a_bound = _min_bound(ap, 1)
    ok = (
        _lt(p2, p1)
        and _lt(p1, p2, 1)
        and (b_bound is None or _lt(p0, p2, 1 + b_bound))
        and (a_bound is None or _lt(p0, p1, a_bound))
    )
    return _certify(ok, cert)


SYSTEM_IDS = (
    "(_,_,X)0",
    "(X,_,_)0",
    "T12Zcap(E_1)",
    "T43Zcap(E_1)",
    "middle M cap left M'",
    "middle M cap left M",
    "middle M cap left right M",
    "middle M' cap left M",
    "middle M' cap left M'",
    "middle M' cap left right middle M",
    "Theta_E n=2 3",
    "Theta_E n=2 6",
)


def in_intersection_system(point, sys_id: str, **kw) -> bool:
    """Evaluate one of the registered inequality systems.  Keyword arguments
    select the instance: kind/m for the chain systems, p for the middle
    systems, fid/m (triple at its extreme downward shift) for the mutation
    systems."""
    if sys_id == "(_,_,X)0":
        return _sys_chain_with_X(point, kw["kind"], kw["m"])
    if sys_id == "(X,_,_)0":
        return _sys_X_with_chain(point, kw["kind"], kw["m"])
    if sys_id == "T12Zcap(E_1)":
        return _sys_chain_cap_Z(point, "a", kw["m"])
    if sys_id == "T43Zcap(E_1)":
        return _sys_chain_cap_Z(point, "b", kw["m"])
    if sys_id == "middle M cap left M'":
        return _sys_mid_m_cap_a_side(point, kw["p"])
    if sys_id == "middle M cap left M":
        return _sys_mid_m_cap_b_side(point, kw["p"])
    if sys_id == "middle M cap left right M":
        return _sys_mid_m_cap_both(point, kw["p"])
    if sys_id == "middle M' cap left M":
        return _sys_mid_mp_cap_b_side(point, kw["p"])
    if sys_id == "middle M' cap left M'":
        return _sys_mid_mp_cap_a_side(point, kw["p"])
    if sys_id == "middle M' cap left right middle M":
        return _sys_mid_mp_cap_all(point, kw["p"])
    if sys_id in ("Theta_E n=2 3", "Theta_E n=2 6"):
        t = family_triple(kw["fid"], kw["m"]).shifted(
            extreme_shift(family_triple(kw["fid"], kw["m"]))
        )
        if sys_id == "Theta_E n=2 3":
            return _sys_mutation_r0(point, t)
        return _sys_mutation_l1(point, t)
    raise ValueError("unknown system id %r" % (sys_id,))
