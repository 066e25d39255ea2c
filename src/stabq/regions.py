"""Exact membership predicates for cells, composite regions, and the
intersection characterizations, plus region classification.

All predicates are three-valued in spirit: True/False when every needed
semistability verdict is decided, and an Undecidable error otherwise --
an undecided verdict must never silently read as "not in the region".

Every phase-inequality predicate is a row of clauses read by one
evaluator, ``_evaluate``: three objects and a disjunction of clauses of
strict phase inequalities, some refined by the sign of one window
argument.  A cell is its family's pattern as one clause, Theta of a triple
is the clause of the bounds ``triples.theta_bounds``, Theta' is the
constant clause "every pairwise gap below 1", and the intersection lemmas'
systems are one table row each.  A chain system written for the letter a
serves the letter b through the swap a <-> b, M <-> M'.

A composite is a union of cells.  ``classify`` decides each cell at most
once per call.  One decider, ``_run_cells``, walks a run of a family's
cell indices in increasing order and decides each cell from the
analysis's slot row: a table per window, built once from the window's
rule plan and independent of any point, says in which plan slots each
family's cell at each index of the block sits, relative to the point's
m, and the row's entries are filled on first read.  The direct cell scan
reads each family's block in full; a composite's scan stops at its first
hit.  Each family's (hit, undecided) over its block, and over the widened
ring of a tail rescan, is kept in a table local to the call and freed
with it, so the composites never decide a cell twice.  The hom degrees
that bound the far tails are read from ``catalog.hom_degrees`` at the few
index differences a tail meets (``_tail_degrees``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from . import engine
from .catalog import ExcObject, hom_degrees
from .exact import ExactError, Phase, cmp_shifted, window_arg
from .triples import (
    A_SIDE,
    B_SIDE,
    FAMILY_IDS,
    FAMILY_SHAPES,
    ExcTriple,
    alpha_beta_gamma,
    extreme_shift,
    family_triple,
    mutate_left,
    mutate_right,
    theta_bounds,
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
        status, ph = engine.lookup(point, o.base(), window)
        if ph is None:  # unstable, or cannot be semistable
            return None, True
        if status != "semistable":
            certified = False
        out.append(ph.plus(o.shift) if o.shift else ph)
    return out, certified


def _holds(ph, ineqs) -> bool:
    """Every strict inequality (i, j, c), p_i < p_j + c, holds on ph: the
    clause test of every row and of the cells, comparing offsets and then
    the sign of one cross product, building no Phase."""
    return all(cmp_shifted(ph[i], 0, ph[j], c) < 0 for i, j, c in ineqs)


def _min_bound(*vals):
    """None-aware minimum (None = +infinity)."""
    finite = [v for v in vals if v is not None]
    return min(finite) if finite else None


# A row is a disjunction of clauses over the phases p_0, p_1, p_2 of three
# objects.  A clause is a tuple of strict inequalities (i, j, c), meaning
# p_i < p_j + c, plus an optional refinement (i, j, lo, k, c, sign): the
# window argument of Z(o_i) - Z(o_j) in (p_lo - 1, p_lo), compared with
# p_k + c, has that sign.  A refinement is evaluated only when its clause's
# inequalities hold, and a charge on the window boundary fails it.


def _refined(point, objs, ph, refinement) -> bool:
    i, j, lo, k, c, sign = refinement
    diff = engine.charge_of(point, objs[i]) - engine.charge_of(point, objs[j])
    try:
        wa = window_arg(diff, ph[lo].plus(-1))
    except ExactError:
        return False
    return wa.cmp(ph[k].plus(c)) == sign


def _evaluate(point, objs, clauses, window: int = WINDOW) -> bool:
    """Membership in the region where every object is semistable and some
    clause of the row holds on their phases: False as soon as either
    fails, Undecidable when the clause holds on undecided objects."""
    ph, cert = _phases(point, objs, window)
    if ph is None or not any(
        _holds(ph, ineqs) and (ref is None or _refined(point, objs, ph, ref))
        for ineqs, ref in clauses
    ):
        return False
    if not cert:
        raise Undecidable("inequalities hold but semistability undecided")
    return True


# ---------------------------------------------------------------------------
# the basic regions

# Theta': every pairwise phase gap strictly below 1
_THETA_PRIME = (
    (((0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1), (1, 2, 1), (2, 1, 1)), None),
)


def in_theta_prime(point, t: ExcTriple) -> bool:
    return _evaluate(point, t.objs, _THETA_PRIME)


def in_theta(point, t: ExcTriple) -> bool:
    """Closed-form membership: semistability plus the three strict gap
    bounds p_i < p_j + 1 + bound of ``theta_bounds``."""
    ineqs = tuple(
        (i, j, 1 + bound)
        for (i, j), bound in zip(((0, 1), (0, 2), (1, 2)), theta_bounds(t))
        if bound is not None
    )
    return _evaluate(point, t.objs, ((ineqs, None),))


# the inequality pattern of each family's cells, as strict comparisons
# p_i < p_j + c on the phase triple
_PATTERN_INEQS = {
    "F1": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F2": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F3": ((0, 1, 0), (0, 2, 0), (1, 2, 1)),
    "F4": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F5": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F6": ((0, 1, 0), (0, 2, 0), (1, 2, 1)),
    "F7": ((0, 1, 1), (0, 2, 0), (1, 2, 0)),
    "F8": ((0, 1, 1), (0, 2, 0), (1, 2, 0)),
}
_CELL_ROWS = {fid: ((ineqs, None),) for fid, ineqs in _PATTERN_INEQS.items()}


def in_named_cell(point, fid: str, m: int, window: int = WINDOW) -> bool:
    return _evaluate(point, family_triple(fid, m).objs, _CELL_ROWS[fid], window)


@lru_cache(maxsize=None)
def _cell_slots(window: int) -> Dict[str, Tuple[Tuple[int, int], ...]]:
    """Per family, where the three objects of its cell at index k sit in
    ``engine._plan(window)``, for k in -window..window (the block of a
    point with m = 0, and of every point relative to its m, as the plan's
    slots are): (slot at k = 0, step), the slot at k being slot + step * k.
    A chain object moves one slot per index step (``_Plan.index``), M and
    M' stay.  Point-independent, built once per window."""
    plan = engine._plan(window)
    return {
        fid: tuple(
            (plan.slot[o], 1 if o.kind in ("a", "b") else 0)
            for o in family_triple(fid, 0).objs
        )
        for fid in FAMILY_IDS
    }


def _run_cells(point, fid: str, ms: range, window: int):
    """``in_named_cell`` at the indices ms, a run of the point's block at
    ``window`` in increasing order, yielded as (m, True, False or None for
    undecidable).  The cells are decided from the analysis's slot row: the
    entries ``_phases`` would read, in its order and with its stop at the
    first object that cannot be semistable, and the same clause test."""
    if ms and not (-window <= ms[0] - point.m and ms[-1] - point.m <= window):
        raise ValueError(
            "cell indices %d..%d outside the block at window %d"
            % (ms[0], ms[-1], window)
        )
    an = point.analysis(window)
    row, entry = an.row, an.entry
    slots = _cell_slots(window)[fid]
    ineqs = _PATTERN_INEQS[fid]
    for m in ms:
        k = m - point.m
        ph, certified = [], True
        for s, step in slots:
            status, p = row[s + step * k] or entry(s + step * k)
            if p is None:
                break
            certified = certified and status == "semistable"
            ph.append(p)
        else:
            if _holds(ph, ineqs):
                yield m, True if certified else None
                continue
        yield m, False


# ---------------------------------------------------------------------------
# composite regions

TAIL_EXT = 24  # extra cell indices scanned when a tail cannot be excluded

_DEAD = "dead"  # no far chain object of the letter can be semistable


def _reference_objects(point, window: int):
    """Decided-semistable objects with pinned phases: the anchors, plus M
    and M' when the engine certifies them."""
    refs = list(zip(point.anchor().objs, point.anchor_phases))
    for name in ("M", "Mp"):
        x = ExcObject(name, 0, 0)
        status, ph = engine.lookup(point, x, window)
        if status == "semistable":
            refs.append((x, ph))
    return refs


def _tail_degrees(kind: str, j_edge: int, direction: int, ref: ExcObject):
    """The hom degrees (to ref, from ref) shared by every chain object of
    the letter from j_edge on in the given direction, or None where they
    do not all agree on one nonzero hom.  Exact, with no probe: the degrees
    depend on the index difference to ref only clamped to -2..2
    (``hom_degrees``), and a tail index outside ref.m - 2..ref.m + 2 has
    the clamped difference of the edge or of the nearest of those indices,
    so the edge and those indices in the tail meet every value."""
    degs = {hom_degrees(ExcObject(kind, j_edge, 0), ref)}
    for j in range(ref.m - 2, ref.m + 3):
        if direction * (j - j_edge) > 0:
            degs.add(hom_degrees(ExcObject(kind, j, 0), ref))
    if len(degs) == 1:
        return degs.pop()
    return tuple(s.pop() if len(s) == 1 else None for s in map(set, zip(*degs)))


def _tail_enclosure(point, window: int, hi: bool) -> Dict[str, Optional[tuple]]:
    """Constraints on the phase any chain object beyond the scanned block
    could have, were it semistable.

    Beyond the block the chain K-classes move along exact rays
    [x^(j -/+ 1)] = [x^j] +/- [delta], so the window arguments of their
    charges are strictly monotone and converge to the window representative
    of the ray direction; with a decided phase at the block edge this
    encloses every far phase between the edge phase and the ray limit.
    Without one, the hom brackets against the decided reference objects,
    over the degrees the whole tail shares (``_tail_degrees``), still bound
    (or empty out) the possible phases.  Per letter the result
    is (lo, lo_strict, up, up_strict, inc): an enclosure with open/closed
    ends (None = unbounded) and whether the phases increase with the chain
    index (None when unknown); the sentinel _DEAD marks a letter whose far
    objects cannot be semistable at all, and None certifies nothing."""
    direction = 1 if hi else -1
    j_edge = point.m + window + 1 if hi else point.m - window
    out: Dict[str, Optional[tuple]] = {}
    refs = _reference_objects(point, window)
    for kind in ("a", "b"):
        bracket = engine.hom_bracket(
            (ph, *_tail_degrees(kind, j_edge, direction, ref)) for ref, ph in refs
        )
        if bracket is None:
            out[kind] = _DEAD
            continue
        fallback = None
        if bracket != (None, None):
            fallback = (bracket[0], False, bracket[1], False, None)
        out[kind] = fallback
        if (hi and j_edge < 1) or (not hi and j_edge > 0):
            continue  # block edge outside the linear zone of the K-classes
        ph_edge = engine.conditional_phase(
            point, ExcObject(kind, j_edge, 0), window
        )
        if ph_edge is None:
            continue  # edge object dead; keep the bracket fallback
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
    for i, j, c in _PATTERN_INEQS[fid]:
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
        ph = engine.conditional_phase(point, ExcObject(kind, 0, 0), window)
        if ph is None:  # the rigid object cannot be semistable at all
            return True
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


def _block(point, window: int) -> range:
    """The cell indices scanned around the anchor."""
    return range(point.m - window, point.m + window + 1)


def _summary(cells) -> Tuple[bool, bool]:
    """(hit, undecided) of a walk of (m, verdict) cells, stopping at the
    first hit; undecided counts only the cells before it."""
    undecided = False
    for _, v in cells:
        if v:
            return True, undecided
        undecided = undecided or v is None
    return False, undecided


def _scan(point, fids, runs, window: int, cells: dict) -> Tuple[bool, bool]:
    """(hit, undecided) over the cells of the families at the index runs
    ``runs`` of the block at ``window``, stopping at the first hit.  Each
    family's summary over the runs is entered in the table ``cells`` under
    (fid, window, runs) on first use, so its cells are decided once."""
    undecided = False
    for fid in fids:
        key = (fid, window, runs)
        v = cells.get(key)
        if v is None:
            v = cells[key] = _summary(
                c for ms in runs for c in _run_cells(point, fid, ms, window)
            )
        if v[0]:
            return True, undecided
        undecided = undecided or v[1]
    return False, undecided


def _cells_union(point, fids, window: int, cells: dict) -> bool:
    """in_cells_union, reading and filling the cell table ``cells``."""
    hit, undecided = _scan(point, fids, (_block(point, window),), window, cells)
    if hit:
        return True
    if not _tails_excluded(point, fids, window):
        # a far cell might contain the point: rescan a widened block, then
        # require the remaining tails to be excluded
        wide = window + TAIL_EXT
        outer = (
            range(point.m - wide, point.m - window),
            range(point.m + window + 1, point.m + wide + 1),
        )
        hit, far_undecided = _scan(point, fids, outer, wide, cells)
        if hit:
            return True
        undecided = undecided or far_undecided
        if not _tails_excluded(point, fids, wide):
            raise Undecidable("union not certified false (far cells)")
    if undecided:
        raise Undecidable("union not certified false (undecided cells)")
    return False


def scan_cells(point, fids, window: int = WINDOW) -> Tuple[bool, bool]:
    """Scan the finite block of cell indices around the anchor.  Returns
    (hit, undecided); a hit is sound for the full infinite union, while
    hit == False says nothing about the cells beyond the block."""
    return _scan(point, fids, (_block(point, window),), window, {})


def in_cells_union(point, fids, window: int = WINDOW) -> bool:
    return _cells_union(point, fids, window, {})


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
    skipped (classification never errors).  The direct cell scan reads each
    family's block in full and enters its summary in the cell table that
    the composites share, so each cell is decided once per call."""
    cells: dict = {}
    out: List[Tuple] = []
    runs = (_block(point, window),)
    for fid in FAMILY_IDS:
        vs = list(_run_cells(point, fid, runs[0], window))
        out += [("cell", fid, m) for m, v in vs if v]
        cells[fid, window, runs] = _summary(vs)
    for name, fids in COMPOSITES.items():
        try:
            if _cells_union(point, fids, window, cells):
                out.append(("region", name))
        except Undecidable:
            pass
    return out


# ---------------------------------------------------------------------------
# intersection characterizations, as data

# (a^m, a^{m+1}, M) meets the one-sided composite of the other chain letter
_CHAIN_CAP_Z = (
    "m",
    (("a", 0), ("a", 1), ("M", None)),
    (
        (((2, 1, 0), (0, 1, 0), (0, 2, 0), (1, 2, 1)), None),
        (((0, 1, 0), (1, 0, 1), (0, 2, 0), (2, 0, 1)), (0, 1, 0, 2, -1, 1)),
    ),
)
_MID_M = (("a", 0), ("M", None), ("b", 1))  # (a^p, M, b^{p+1})
_MID_MP = (("b", 0), ("Mp", None), ("a", 0))  # (b^p, M', a^p)
_MID_MP_LEFT_M = (
    (((2, 1, 1), (1, 2, 0), (2, 0, 1), (0, 2, 0)), None),
    (((2, 1, 1), (1, 2, 0), (0, 1, 0)), None),
)
_MID_MP_LEFT_MP = (
    (((0, 1, 1), (1, 0, 0), (0, 2, 0), (2, 0, 1)), None),
    (((0, 1, 1), (1, 0, 0), (1, 2, -1)), None),
)

# sys_id -> (letter, instance keyword, objects, clauses).  The objects are
# (letter, index offset from the instance index), with offset None for M and
# M', written for letter a; letter b reads them through the swap a <-> b,
# M <-> M', and letter None takes it from the ``kind`` keyword.  The two
# mutation systems are "right" and "left": their clauses depend on the
# triple and are built by _mutation_clauses.
_SYSTEMS = {
    "(_,_,X)0": (None, "m", (("a", 0), ("a", 1), ("M", None)), (
        (((0, 1, 0), (1, 0, 1), (0, 2, 0), (1, 2, 1)), None),
    )),
    "(X,_,_)0": (None, "m", (("Mp", None), ("a", 0), ("a", 1)), (
        (((0, 1, 0), (0, 2, -1), (1, 2, 0), (2, 1, 1)), None),
    )),
    "T12Zcap(E_1)": ("a",) + _CHAIN_CAP_Z,
    "T43Zcap(E_1)": ("b",) + _CHAIN_CAP_Z,
    "middle M cap left M'": ("a", "p", _MID_M, (
        (((0, 1, 0), (2, 1, 1), (1, 2, 0)), None),
        (((2, 1, 1), (1, 2, 0), (2, 0, 1), (0, 2, 0)), (0, 2, 2, 1, 0, -1)),
    )),
    "middle M cap left M": ("a", "p", _MID_M, (
        (((0, 1, 1), (1, 0, 0), (1, 2, -1)), None),
        (((0, 1, 1), (1, 0, 0), (0, 2, 0), (2, 0, 1)), (0, 2, 0, 1, 0, 1)),
    )),
    # the fourth clause is the refined clause of "middle M cap left M'"
    # without its refinement: it is reached only when the first three fail,
    # which forces phi(a^p) = phi(M), and there the refinement always holds
    "middle M cap left right M": ("a", "p", _MID_M, (
        (((0, 1, 1), (1, 0, 0), (0, 2, 0), (2, 0, 1)), None),
        (((0, 1, 1), (1, 0, 0), (1, 2, -1)), None),
        (((0, 1, 0), (2, 1, 1), (1, 2, 0)), None),
        (((2, 1, 1), (1, 2, 0), (2, 0, 1), (0, 2, 0)), None),
    )),
    "middle M' cap left M": ("a", "p", _MID_MP, _MID_MP_LEFT_M),
    "middle M' cap left M'": ("a", "p", _MID_MP, _MID_MP_LEFT_MP),
    "middle M' cap left right middle M": (
        "a", "p", _MID_MP, _MID_MP_LEFT_M + _MID_MP_LEFT_MP
    ),
    "Theta_E n=2 3": "right",
    "Theta_E n=2 6": "left",
}

SYSTEM_IDS = tuple(_SYSTEMS)

_SWAP = {"a": "b", "b": "a", "M": "Mp", "Mp": "M"}


def _mutation_clauses(t: ExcTriple, side: str):
    """The clause of Theta of t (alpha = gamma = 0) meeting Theta of its
    first right mutation (side "right") or its second left mutation
    ("left").  Both sides read the bound of the pair that joins the mutated
    object, shifted down by one, to the object of t the mutation leaves
    alone."""
    outer = (0, 2, 1 + theta_bounds(t)[1])
    if side == "right":
        x = mutate_right(t[0], t[1]).shifted(-1)
        _, _, gp = alpha_beta_gamma(ExcTriple((t[1], x, t[2])))
        return ((((1, 0, 0), (0, 1, 1), outer, (1, 2, _min_bound(gp, 1))), None),)
    y = mutate_left(t[1], t[2]).shifted(-1)
    ap, _, _ = alpha_beta_gamma(ExcTriple((t[0], y, t[1])))
    return ((((2, 1, 0), (1, 2, 1), outer, (0, 1, _min_bound(ap, 1))), None),)


def _instance(sys_id: str, kw) -> Tuple[tuple, tuple]:
    """The objects and the clauses of one instance of a registered system."""
    if sys_id not in _SYSTEMS:
        raise ValueError("unknown system id %r" % (sys_id,))
    row = _SYSTEMS[sys_id]
    if isinstance(row, str):
        t = family_triple(kw["fid"], kw["m"])
        t = t.shifted(extreme_shift(t))
        return t.objs, _mutation_clauses(t, row)
    letter, key, shape, clauses = row
    letter = letter or kw["kind"]
    if letter not in ("a", "b"):
        raise ValueError("bad kind %r" % (letter,))
    n = kw[key]
    swap = _SWAP if letter == "b" else {}
    objs = tuple(
        ExcObject(swap.get(kind, kind), 0 if rel is None else n + rel, 0)
        for kind, rel in shape
    )
    return objs, clauses


def in_intersection_system(point, sys_id: str, **kw) -> bool:
    """Evaluate one of the registered inequality systems.  Keyword arguments
    select the instance: kind/m for the chain systems, p for the middle
    systems, fid/m (triple at its extreme downward shift) for the mutation
    systems."""
    return _evaluate(point, *_instance(sys_id, kw))
