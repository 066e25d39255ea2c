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

A composite is a union of families' cells.  Each cell is decided once
per analysis: ``_block_cells`` decides a family's whole block at a window
from the analysis's slot row and keeps the verdicts, one tuple per
family, in the analysis's ``cells``.  At window w the cells of a point's
block are the standard triples of the window's rule plan, relative to
the point's m, so the plan says in which slots each cell sits, as three
slot columns, and the row's entries are filled on first read.
``classify``, the composites and a widened tail rescan, which reads only
the ring beyond the narrower block, all read those tuples, so no cell of
an analysis is decided twice.  Beyond the block, each letter's far
phases on each side are bounded by the engine's own brackets and the
chain's charge ray (``_far_phases``), kept on the analysis when a family
first reads the letter, and each family's cells there are excluded by
one interval test, a row of a table read off its pattern
(``_tail_family_excluded``).  The block cells, the far tails and the
fixed objects M and M' of the tail tests are all read from the analysis
by plan slot (``engine.Analysis.slot_phase``, ``slot_bracket``,
``slot_charge``), building no object label.  Each family's union is
decided once per analysis (``_in_family_union``), and a composite's
membership is the fold of its families' answers: a composite reads the
analysis once, and reads each family's kept block tuple (``cells``) and
kept union answer (``unions``) directly, deciding only a family not
kept yet.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import engine
from .catalog import ExcObject
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


def _block_cells(point, fid: str, window: int) -> tuple:
    """``in_named_cell`` at every index of the point's block at ``window``,
    in increasing order, as True, False or None (undecidable), decided once
    per analysis and kept in its ``cells``.  Each cell is decided from the
    analysis's slot row, at the slots of the plan's cell, read as the
    block's three slot columns (``_Plan.columns``): the first object of
    every cell, the second only where the first can be semistable and the
    third only where the second can.  These are the entries ``_phases``
    would read, with its stop at the first object that cannot be
    semistable, and the clause test is the same."""
    an = point.analysis(window)
    vs = an.cells.get(fid)
    if vs is not None:
        return vs
    row, entry = an.row, an.entry
    c0, c1, c2 = an.plan.columns[fid]
    ineqs = _PATTERN_INEQS[fid]
    heads = [row[s] or entry(s) for s in c0]
    out = [False] * len(heads)
    for i, (st0, p0) in enumerate(heads):
        if p0 is None:
            continue
        st1, p1 = row[c1[i]] or entry(c1[i])
        if p1 is None:
            continue
        st2, p2 = row[c2[i]] or entry(c2[i])
        if p2 is not None and _holds((p0, p1, p2), ineqs):
            out[i] = st0 == st1 == st2 == "semistable" or None
    vs = an.cells[fid] = tuple(out)
    return vs


# ---------------------------------------------------------------------------
# composite regions

TAIL_EXT = 24  # extra cell indices scanned when a tail cannot be excluded

_DEAD = "dead"  # no far chain object of the letter can be semistable


def _far_phases(point, window: int, hi: bool, kind: str):
    """(lo, up, inc): a closed interval (an end None where unbounded)
    holding the phase that any chain object of the letter beyond the
    block on the side could have were it semistable, and whether those
    phases increase with the chain index (None when unknown); _DEAD when
    none of them can be semistable.

    The far objects are the block's edge object, its outer neighbour and
    the objects further out, which share one row of hom degrees
    (``engine._Plan.hom_row``), so the bracket of the object two steps
    out holds all their phases.  The hull of the edge's and the
    neighbour's conditional phases and that bracket bounds the tail.
    All three are read by the plan slots of their chain indices
    (``_Plan.slot``) from the analysis (``Analysis.slot_phase``,
    ``slot_bracket`` and ``slot_charge``), the values
    ``engine.conditional_phase``, ``phase_bracket`` and ``charge_of`` give
    for their labels, and no label is built.  Beyond the block the chain
    K-classes move along exact rays [x^(j -/+ 1)] = [x^j] +/- [delta], so
    the window arguments of the charges move monotonically from the edge
    phase towards the window representative of the ray direction, on the
    side the sign of ``z_edge.cross(step)`` gives, and that interval
    narrows the hull."""
    an = point.analysis(window)
    # the edge object's chain index in the point's labels, and the step out
    j_edge, out = (point.m + window + 1, 1) if hi else (point.m - window, -1)
    slot, m = an.plan.slot, point.m
    edge, nxt, beyond = (slot(kind, j_edge, m), slot(kind, j_edge + out, m),
                         slot(kind, j_edge + 2 * out, m))
    ph_edge, ph_next = an.slot_phase(edge), an.slot_phase(nxt)
    far = an.slot_bracket(beyond)
    known = [ph for ph in (ph_edge, ph_next) if ph is not None]
    if far is None and not known:
        return _DEAD
    lo, up = far or (known[0], known[0])
    lo = None if lo is None else min(known + [lo])
    up = None if up is None else max(known + [up])
    if ph_edge is None or (j_edge < 1 if hi else j_edge > 0):
        # edge object dead, or the block edge outside the linear zone of
        # the K-classes: keep the hull
        return lo, up, None
    z_edge = an.slot_charge(edge)
    step = an.slot_charge(nxt) - z_edge
    turn = z_edge.cross(step)
    if turn == 0:  # the step is zero or parallel to the edge charge
        return lo, up, None
    # the hull holds the edge phase, so the ray narrows it to that on one
    # side and to the limit where tighter on the other; the phases rise
    # with the index exactly when the limit lies below a low tail's edge
    # or above a high tail's
    if turn < 0:
        limit = window_arg(step, ph_edge, -1)
        return (limit if lo is None else max(lo, limit)), ph_edge, not hi
    limit = window_arg(step, ph_edge, 0)
    return ph_edge, (limit if up is None else min(up, limit)), hi


def _tail_test(fid: str) -> tuple:
    """The family's row of ``_TAIL_TESTS``, read off its pattern: (letters,
    impossible, rising, fixed, bounds).  Far chain neighbours keep their
    phase gap inside [-1, 1], so a chain pair p_i < p_j + c with c <= -1
    is impossible, and a same-letter pair (written lower index first)
    with c <= 0 needs the phases of the letter ``rising`` not to fall.
    Every other inequality pairs a chain letter with the one fixed object
    ``fixed``, and is one entry (letter, end, c) of ``bounds``: the tail
    is excluded where the letter's far lower end (end 0) is at least, or
    its upper end (1) at most, the fixed phase plus c.  ``letters`` are
    the chain letters the test reads, none for an impossible family."""
    shape = FAMILY_SHAPES[fid]
    impossible, rising, fixed, bounds = False, None, None, []
    for i, j, c in _PATTERN_INEQS[fid]:
        (ki, ri), (kj, rj) = shape[i], shape[j]
        if ri is not None and rj is not None:
            impossible = impossible or c <= -1
            if ki == kj and c <= 0:
                rising = ki
        elif ri is not None:  # chain < fixed + c
            fixed = kj
            bounds.append((ki, 0, c))
        else:  # fixed < chain + c
            fixed = ki
            bounds.append((kj, 1, -c))
    if impossible:
        return (), True, None, None, ()
    letters = tuple(sorted({k for k, r in shape if r is not None}))
    return letters, False, rising, fixed, tuple(bounds)


_TAIL_TESTS = {fid: _tail_test(fid) for fid in FAMILY_IDS}


def _tail_family_excluded(point, fid: str, bounds, window: int) -> bool:
    """True when no cell of the family beyond the scanned block can contain
    the point, given each chain letter's far bounds (``_far_phases``) in
    ``bounds``; False when that cannot be certified.  Every inequality
    with the fixed object is strict, so a far bound that meets the moved
    fixed phase already excludes, and since the far bounds of a letter
    never form an empty interval on their own, their ends can be read as
    closed."""
    letters, impossible, rising, fixed, tests = _TAIL_TESTS[fid]
    if impossible or any(bounds[k] is _DEAD for k in letters):
        return True
    if rising is not None and bounds[rising][2] is False:
        return True
    an = point.analysis(window)
    ph = an.slot_phase(an.plan.slot(fixed))
    if ph is None:  # the rigid object cannot be semistable at all
        return True
    for k, end, c in tests:
        b = bounds[k][end]
        if b is not None:
            s = cmp_shifted(b, 0, ph, c)
            if s == 0 or (s > 0) == (end == 0):
                return True
    return False


def _tail_excluded(point, fid: str, window: int) -> bool:
    """Whether the family's cells beyond the block at ``window`` are
    excluded on both sides.  The analysis's ``tails`` keeps, per side,
    each letter's far bounds, each filled when a family first reads it, so
    a family reads only its own letters."""
    tails = point.analysis(window).tails
    for hi in (False, True):
        side = tails.setdefault(hi, {})
        for k in _TAIL_TESTS[fid][0]:
            if k not in side:
                side[k] = _far_phases(point, window, hi, k)
        if not _tail_family_excluded(point, fid, side, window):
            return False
    return True


def _block(point, window: int) -> range:
    """The cell indices scanned around the anchor."""
    return range(point.m - window, point.m + window + 1)


def scan_cells(point, fids, window: int = WINDOW) -> bool:
    """Whether some cell of the families' blocks around the anchor holds
    the point: sound for the full infinite union, while False says nothing
    about the cells beyond the block."""
    return _scan(point, point.analysis(window).cells, fids, window)


def _scan(point, cells, fids, window: int) -> bool:
    """``scan_cells`` on the analysis's kept block tuples ``cells``,
    deciding (``_block_cells``) only the block of a family not kept
    yet."""
    for fid in fids:
        if True in (cells.get(fid) or _block_cells(point, fid, window)):
            return True
    return False


def _in_family_union(point, fid: str, window: int):
    """Membership in the union of the family's cells at every index: True,
    False, or the reason it is undecidable, decided once per analysis and
    kept in its ``unions``.  True on a hit in the block; where the tails
    beyond it are excluded, False unless a block cell is undecidable.
    Otherwise the same on the block and the ring of a widened block, the
    TAIL_EXT cells on either side, with "far cells" where the widened
    block's tails are not excluded either."""
    an = point.analysis(window)
    unions = an.unions
    if fid not in unions:
        vs, far = an.cells.get(fid) or _block_cells(point, fid, window), False
        if True not in vs and not _tail_excluded(point, fid, window):
            ring = _block_cells(point, fid, window + TAIL_EXT)
            vs += ring[:TAIL_EXT] + ring[-TAIL_EXT:]
            far = True not in vs and not _tail_excluded(
                point, fid, window + TAIL_EXT)
        unions[fid] = (True if True in vs else "far cells" if far
                       else "undecided cells" if None in vs else False)
    return unions[fid]


def in_cells_union(point, fids, window: int = WINDOW) -> bool:
    """Membership in the union of the families' cells at every index: after
    one block scan, so that a hit costs no tail work, the fold of the
    families' answers (``_in_family_union``): True if one is, else
    Undecidable if one is, for far cells before undecided cells, else
    False.  Both read the analysis, fetched once, for kept answers."""
    an = point.analysis(window)
    if _scan(point, an.cells, fids, window):
        return True
    unions, answers = an.unions, set()
    for fid in fids:
        answer = unions.get(fid)
        if answer is None:
            answer = _in_family_union(point, fid, window)
        if answer is True:
            return True
        answers.add(answer)
    for reason in ("far cells", "undecided cells"):
        if reason in answers:
            raise Undecidable("union not certified false (%s)" % reason)
    return False


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
    skipped (classification never errors).  The cells are read off each
    family's block verdicts, which the composites then share."""
    out: List[Tuple] = [
        ("cell", fid, m)
        for fid in FAMILY_IDS
        for m, v in enumerate(_block_cells(point, fid, window),
                              point.m - window)
        if v
    ]
    for name, fids in COMPOSITES.items():
        try:
            if in_cells_union(point, fids, window):
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
