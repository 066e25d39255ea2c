"""Stability conditions as exact data, and the rule-based semistability engine.

A stability point is an anchor triple (one of the eight standard families,
downward-shifted into Ext position) together with three upper-branch charges
and a global shift: the anchor objects are declared semistable with phases
inside a unit window, the charge extends linearly over K-classes, and a small
set of closure rules is iterated to a fixpoint to decide semistability of the
other catalog objects.  "unknown" is a legal verdict; a rule contradiction is
an error, never silently resolved.

Phases and verdicts do not change when every charge is scaled by a positive
rational, so the engine computes on each point's primitive integer
normalisation of its charges (denominators cleared, common factor divided
out) and never on ``Fraction``: the anchor phases carry the integer charges
and ``charge_of`` returns integer Gaussians.  The point's rational charges
are what it stores, serializes, compares and transforms.  A central
charge is a homomorphism on K, so each point also stores, when it is
built, the charges of the three simple classes (``StabilityPoint.simple``),
and ``charge_of`` is three multiply-adds on a K-class.  They are read
from a table built at import: per family, the Cramer cofactor rows of the
simple classes in its triple's K-classes at m = 0, applied to the
point's anchor charges signed by the shift, and moved to its m.

The rule fixpoint reads a plan, one per window and shared by every point
(``_Plan``).  The plan numbers its objects (slots), and its rows are the
sigma-triple instances of the window's standard triples as (slot, shift)
pairs relative to the point's m: closure contents inside the scope, and
the outer step (the two-factor middle object or the three-factor
extension, each K-class-checked against its factors).  The plan is keyed
on the window alone, as all of this is unchanged when every chain index
moves by one step; rows are built on first use, and it keeps each
triple's shift-set bounds, so that a fixpoint builds and reads only the
rows of shifts inside the shift set.  The plan also keeps each slot's
K-class, and, built on first use, the row of hom degrees to every slot
(``catalog.hom_degrees``) of each slot and, per letter, of the chain
objects one and two steps past each end of its chain, the latter shared
by every object further out.  Moving n steps along the chains
acts on K as T^n(c) = c + n (c_T - c_L) delta, so a fixpoint reads its
slots' K-classes against the point's simple charges moved once by its m.
Per point the fixpoint computes only charges, window arguments and phase
comparisons on lists indexed by slot, seeding the anchor from its
family's cell (``_Plan.cells``) at the point's m; objects, rules and
witnesses are spelled in the point's own labels only when read.
The plan also indexes, per slot, the standard triples holding it (the
readiness index), so a point's fixpoint scans each triple once, in the
round after its last slot is decided semistable, and never rescans the
triples still waiting.

An object the rules leave undecided still has a conditional phase, the
one it would have were it semistable: the only phase of its charge
direction inside its hom bracket against the decided-semistable objects,
one fold (``_bracket``) for every object on its plan row
(``_Plan.hom_row``).  The anchor alone bounds that bracket to less than
one unit, so the phase is unique or absent and never left unresolved.

Each point owns its analyses, one ``Analysis`` per window
(``StabilityPoint.analysis``).  An analysis keeps each fact once, by
slot: one row of the (status, conditional phase) entries of ``lookup``,
which the fixpoint writes for each slot it decides and a lookup fills
for an undecided one; per decided slot the rule token that decided it,
shared with the plan; the witness of each slot a big gap killed; and the
decided slots in the order of their verdicts.
``semistable`` builds one verdict at a time from these, and the
verdict spells its rule and witness only when either is read, so a
caller of the status alone (criterion 6) spells nothing.  A lookup
takes a base object, finds its slot by arithmetic on its label
(``_Plan.index``, the one map from objects to slots) and builds no
object.  An object beyond the universe keeps no entry: each lookup of
it folds its bracket anew.  ``regions``, which knows its objects by
slot, skips the labels: the analysis's slot readers give a slot's
charge, conditional phase and bracket, for the universe and for the
chain objects one and two steps past its ends, from which ``regions``
derives its far tail bounds.  An analysis is built on the first lookup at
its window and lives exactly as long as its point; nothing is cached
process-wide on points, so equal but distinct point objects each compute
their own (identical) results.

The phase comparisons on the hot paths (the fixpoint's unit shifts and
rule comparisons, the region clause test) read a phase shifted by an
integer as an (offset, charge) pair and decide with one cross product
(``exact.cmp_shifted``), building no Phase per comparison; the hom
bracket fold writes that order inline, integer parts first, with no
call per slot.
A rule that pins an object builds one Phase, its base object's: the
window functions of ``exact`` take integer shifts of their ends or
anchor, so a pin hands over the triple's phases with their shifts less
the pinned object's, and an outer step reads its target slot's charge.
Most closure pins re-derive an object already decided; whether its
decided phase has the direction of its charge does not depend on the
shift, so that is tested once per slot, and the closure loop decides
such a re-pin itself, on the offsets and one integer cross product per
window end.  A closure's contents leave out its pair's own two objects,
which sit at the ends of its window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import inf
from typing import Dict, List, Optional, Tuple

from .catalog import ExcObject, hom_degrees, hom_dims, kclass
from .exact import (
    ExactError,
    Gaussian,
    Phase,
    branch_checked,
    cmp_shifted,
    exact_int,
    int_phase,
    json_typed,
    phase_add,
    phase_in_closed_window,
    primitive_multiple,
    window_arg,
)
from .quiver import Vec3, det3
from .triples import (
    ExcTriple,
    FAMILY_IDS,
    alpha_beta_gamma,
    closure_content,
    ext_pair,
    family_triple,
    in_shift_set,
)

DEFAULT_WINDOW = 8


class EngineError(ValueError):
    """Raised when the rule set contradicts itself ("paper-rule
    inconsistency") or a precondition is violated."""


class UndecidedError(ValueError):
    """A predicate needed a verdict the rules could not supply."""


@dataclass(frozen=True)
class StabilityPoint:
    family: str
    m: int
    shift: Tuple[int, int, int]
    charges: Tuple[Gaussian, Gaussian, Gaussian]
    global_shift: int = 0
    # per-charge offset corrections; nonzero only after quarter rotations
    extra_offsets: Tuple[int, int, int] = (0, 0, 0)
    # the anchor phases, carrying the charges times the positive rational
    # that makes them a primitive integer triple; derived, so not part of
    # ==, hash or the JSON form
    anchor_phases: Tuple[Phase, Phase, Phase] = field(
        init=False, repr=False, compare=False
    )
    # the integer charges of the simple classes (1,0,0), (0,1,0), (0,0,1),
    # so that charge_of is linear on K-classes: the family's row of
    # _COFACTORS applied to the anchor charges, moved to m; derived like
    # anchor_phases
    simple: Tuple[Gaussian, Gaussian, Gaussian] = field(
        init=False, repr=False, compare=False
    )
    # window -> Analysis, filled on first lookup; derived like anchor_phases
    analyses: Dict[int, "Analysis"] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for name in ("charges", "shift", "extra_offsets"):
            v = getattr(self, name)
            if not isinstance(v, tuple) or len(v) != 3:
                raise ValueError("%s must be a 3-tuple, got %r" % (name, v))
        if self.family not in FAMILY_IDS:
            raise ValueError("unknown family %r" % (self.family,))
        base = family_triple(self.family, self.m)
        if not in_shift_set(base, self.shift):
            raise ValueError(
                "shift %r leaves %s outside Ext position" % (self.shift, base)
            )
        for z in self.charges:
            branch_checked(z)
        # a sigma-exceptional anchor: its phases lie in one unit interval,
        # which bounds every conditional phase (see conditional_phase)
        phases = tuple(
            Phase(self.global_shift + e, z)
            for e, z in zip(self.extra_offsets, primitive_multiple(self.charges))
        )
        if max(phases) >= min(phases).plus(1):
            raise ValueError(
                "anchor phases %r spread by 1 or more (extra_offsets %r)"
                % (phases, self.extra_offsets)
            )
        object.__setattr__(self, "anchor_phases", phases)
        # the true integer charge of anchor i is its phase's direction, and
        # that of the unshifted object is moved by shift i as well
        signed = [ph.direction() if s % 2 == 0 else -ph.direction()
                  for ph, s in zip(phases, self.shift)]
        object.__setattr__(self, "simple", _translated_simple(
            tuple(_charge(signed, c) for c in _COFACTORS[self.family]),
            -self.m,
        ))
        object.__setattr__(self, "analyses", {})

    def analysis(self, window: int = DEFAULT_WINDOW) -> "Analysis":
        """The engine's analysis of this point at ``window``: the one
        ``_decide`` returns on first use, kept for the life of the point."""
        a = self.analyses.get(window)
        if a is None:
            a = self.analyses[window] = _decide(self, window)
        return a

    def anchor(self) -> ExcTriple:
        return family_triple(self.family, self.m).shifted(self.shift)

    def to_json(self) -> dict:
        out = {
            "anchor": {
                "family": self.family,
                "m": self.m,
                "shift": list(self.shift),
            },
            "charges": [z.to_json() for z in self.charges],
            "global_shift": self.global_shift,
        }
        if any(self.extra_offsets):
            out["extra_offsets"] = list(self.extra_offsets)
        return out

    @staticmethod
    def from_json(d: dict) -> "StabilityPoint":
        """The inverse of ``to_json``; a mistyped field is a ValueError."""
        a = json_typed(json_typed(d, dict, "the top level")["anchor"],
                       dict, "anchor")
        return StabilityPoint(
            a["family"],
            exact_int(a["m"]),
            tuple(exact_int(x) for x in json_typed(a["shift"], list, "anchor.shift")),
            tuple(Gaussian.from_json(z)
                  for z in json_typed(d["charges"], list, "charges")),
            exact_int(d.get("global_shift", 0)),
            tuple(exact_int(x) for x in json_typed(
                d.get("extra_offsets", [0, 0, 0]), list, "extra_offsets")),
        )


def standard_heart_point(charges, global_shift: int = 0) -> StabilityPoint:
    """The anchor whose extension closure is the category of representations:
    simples (1,0,0), (0,1,0), (0,0,1)."""
    return StabilityPoint("F8", 0, (0, 0, -1), tuple(charges), global_shift)


# ---------------------------------------------------------------------------
# central charge on all of K


def _cofactor_rows(fid: str):
    """Per simple class (1,0,0), (0,1,0), (0,0,1), its coordinates in the
    K-classes k_i of family fid's triple at m = 0 by Cramer's rule, scaled
    by |det|: the signed integer cofactors sign(det) * d_i = |det| * lam_i
    of c = sum lam_i k_i.

    A point's shifted anchor has the K-classes T^m M0 D, with M0 those at
    m = 0, T the chain step (determinant 1) and D the signs of the shift,
    so |det| is that of M0: the rows applied to the shift-signed anchor
    charges give the point's simple charges at m = 0, and
    ``_translated_simple`` moves them to its m."""
    k0, k1, k2 = family_triple(fid, 0).kclasses()
    s = 1 if det3(k0, k1, k2) > 0 else -1
    return tuple(
        (s * det3(c, k1, k2), s * det3(k0, c, k2), s * det3(k0, k1, c))
        for c in (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))
    )


# the point-independent part of each point's ``simple``, eight solves
_COFACTORS = {fid: _cofactor_rows(fid) for fid in FAMILY_IDS}


def _charge(simple, c) -> Gaussian:
    """The charge of the K-class c = (c_L, c_R, c_T), given the charges of
    the three simple classes: three multiply-adds."""
    (l, r, t), (zl, zr, zt) = c, simple
    return Gaussian(l * zl.re + r * zr.re + t * zt.re,
                    l * zl.im + r * zr.im + t * zt.im)


def _translated_simple(simple, n: int):
    """The simple charges of ``_charge`` read through n steps along the
    chains (``ExcObject.translated``).  The step acts on K-classes as
    T^n(c) = c + n * (c_T - c_L) * delta, so Z(T^n c) is c read against
    (W_L - n Z(delta), W_R, W_T + n Z(delta))."""
    zl, zr, zt = simple
    dre, dim = n * (zl.re + zr.re + zt.re), n * (zl.im + zr.im + zt.im)
    return (Gaussian(zl.re - dre, zl.im - dim), zr,
            Gaussian(zt.re + dre, zt.im + dim))


def charge_of(point: StabilityPoint, x) -> Gaussian:
    """Z extended linearly, times a positive factor fixed per point: x may be
    an ExcObject or a K-class triple.

    The result is an integer Gaussian: Z(x) scaled by |det| of the anchor
    K-classes and by the point's integer normalisation of its charges.  It
    has the direction of Z(x), and sums and differences of charges of one
    point have the directions of the true sums and differences, which is
    all that phases use.  It is ``point.simple`` applied to the K-class.
    """
    return _charge(point.simple, kclass(x) if isinstance(x, ExcObject) else x)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    """A verdict, with the rules that decided it and the witness of a big
    gap spelled in the point's own labels.  A verdict of
    ``Analysis.verdict`` leaves ``witness`` and ``rules`` unset and spells
    both on the first read of either (``Analysis.spelled``), so a caller
    that reads only the status or the phase spells nothing; ``==`` and
    ``repr`` read them like any field."""

    status: str  # "semistable" | "unstable" | "unknown"
    phase: Optional[Phase] = None  # phase of the *base* object when semistable
    witness: Optional[str] = None
    rules: Tuple[str, ...] = ()

    def __getattr__(self, name):
        # reached only for an attribute unset on the instance
        d = self.__dict__
        if name not in ("witness", "rules") or "_an" not in d:
            raise AttributeError(name)
        an, s = d.pop("_an"), d.pop("_slot")
        w, rules = an.spelled(s)
        d.setdefault("witness", w)
        d.setdefault("rules", rules)
        return d[name]


# the class defaults would hide unset fields from __getattr__; the
# constructor keeps its own
del Verdict.witness, Verdict.rules


# the slots of M and M' in every plan: its universe begins with them
RIGID_SLOTS = {"M": 0, "Mp": 1}


def _universe(m: int, window: int) -> List[ExcObject]:
    """The objects a fixpoint at index m and ``window`` decides, M and M'
    first (``RIGID_SLOTS``)."""
    objs = [ExcObject("M", 0, 0), ExcObject("Mp", 0, 0)]
    for kind in ("a", "b"):
        for i in range(m - window, m + window + 2):
            objs.append(ExcObject(kind, i, 0))
    return objs


# ---------------------------------------------------------------------------
# the rule plan


@dataclass(frozen=True)
class _Row:
    """The static part of the rules for one sigma-triple instance
    B = (t[0], t[1][s1], t[2][s2]): for each consecutive pair with a hom in
    degree one, its closure contents inside the scope, and the outer step,
    a rule token with the object it pins (the two-factor middle object or
    the three-factor extension).  Objects are (slot, shift) pairs, and rule
    tokens (name, B, suffix) with B as objects."""

    B: Tuple[Tuple[int, int], ...]
    closures: Tuple[Tuple[int, Tuple[Tuple[int, int], ...], tuple], ...]
    outer: Optional[Tuple[Tuple[int, int], tuple]]


class _Plan:
    """The point-independent part of the rule fixpoint at one window, in the
    coordinates of a point with index ``m``.  A slot is an index into the
    universe, found by ``index`` alone, and an object is a (slot, shift)
    pair (``ref``).  ``triples`` holds the
    window's standard triples in scan order with their slots and rows, the
    rows built on first use and keyed by (s1, s2), None outside the shift
    set.  ``bounds`` holds per triple the numbers (alpha, beta, gamma) that
    ``in_shift_set`` reads, so that the fixpoint asks only for rows inside
    the shift set.  ``holders`` holds per slot the indices
    of the triples that contain it, and ``sizes`` per triple its number of
    distinct slots: a triple is ready once that many of its slots are
    decided semistable.
    ``gaps`` holds, per a/b slot, None or its chain successor and the
    slots a phase gap above it kills, in universe order.  ``reps`` holds
    the slots' objects and then, per letter, the chain objects one and two
    steps past each end of its chain; ``kclasses`` holds the K-class of
    each of them, and ``degrees_of`` its row of ``hom_degrees`` to every
    slot, built on first use.  ``ends`` holds per letter and end of its
    chain the ``reps`` indices of the end object and of the objects one
    and two steps past it.  ``blocks`` holds per family its block of
    cells, read by ``cells``, and ``columns`` the same block as three
    columns of slots, one per object of the cells.

    Hom dimensions, closure contents, the scope and K-class relations are
    unchanged when every chain index moves by the same step
    (``ExcObject.translated``), so the engine keeps one plan per window at
    m = 0 and runs each point's fixpoint in coordinates relative to its m."""

    def __init__(self, window: int, m: int = 0):
        self.window = window
        self.universe = u = _universe(m, window)
        # the lowest chain index and the length of each chain in the universe
        self.low, self.span = m - window, 2 * window + 2
        ks = range(m - window, m + window + 1)
        ts = [family_triple(f, k) for f in FAMILY_IDS for k in ks]
        self.triples = [(t, tuple(map(self.index, t.objs)), {}) for t in ts]
        # per triple its shift-set bounds, its family's: they are finite,
        # and unchanged along the chains
        self.bounds = [alpha_beta_gamma(family_triple(f, 0))
                       for f in FAMILY_IDS for _ in ks]
        # per family the slots of its triples, a block of len(ks) cells
        n = len(ks)
        self.blocks = {f: [slots for _, slots, _ in self.triples[j:j + n]]
                       for f, j in zip(FAMILY_IDS, range(0, len(ts), n))}
        # and the same block as three slot columns, one per object
        self.columns = {f: tuple(zip(*b)) for f, b in self.blocks.items()}
        # the readiness index: per slot the triples holding it, in plan
        # order, and per triple its number of distinct slots
        self.holders = [[] for _ in u]
        self.sizes = []
        for j, (_, slots, _) in enumerate(self.triples):
            distinct = set(slots)
            for s in distinct:
                self.holders[s].append(j)
            self.sizes.append(len(distinct))
        # the slots, then per letter the chain objects two and one steps
        # below its chain and one and two steps above it (``hom_row``)
        self.reps = u + [ExcObject(k, self.low + j, 0) for k in ("a", "b")
                         for j in (-2, -1, self.span, self.span + 1)]
        self.kclasses = [kclass(o) for o in self.reps]
        self.degrees: List[Optional[tuple]] = [None] * len(self.reps)
        # per letter and end of its chain (True for the high end) the
        # slots of the end object and of the objects one and two steps
        # past it
        self.ends = {
            (k, hi): (2 + self.span * (k == "b") + (self.span - 1) * hi,
                      len(u) + 4 * (k == "b") + (2 if hi else 1),
                      len(u) + 4 * (k == "b") + (3 if hi else 0))
            for k in ("a", "b") for hi in (False, True)}
        self.gaps = [None] * len(u)
        for s, o in enumerate(u):
            nxt = self.index(o.translated(1))
            if o.kind in ("a", "b") and nxt is not None:
                self.gaps[s] = (nxt, tuple(
                    i for i, y in enumerate(u)
                    if y.kind == o.kind and y.m not in (o.m, o.m + 1)))

    def degrees_of(self, s: int) -> tuple:
        """Per slot t, ``hom_degrees`` from the object ``reps[s]`` (slot s,
        for s inside the universe) to slot t, built on the first call for
        s.  The entries are tuples of that function's table."""
        row = self.degrees[s]
        if row is None:
            x = self.reps[s]
            row = self.degrees[s] = tuple(hom_degrees(x, y) for y in self.universe)
        return row

    def hom_row(self, x: ExcObject, dm: int = 0) -> tuple:
        """``degrees_of`` the base object x, in the labels of a point with
        index ``dm``: its slot's, and beyond the universe that of its
        letter's chain object one or two steps past the chain's end; the
        degrees clamp index differences to -2..2, so every object further
        out shares the latter."""
        s = self.index(x, dm)
        if s is None:  # j is below 0 or from span on
            j = x.m - dm - self.low
            s = len(self.universe) + 4 * (x.kind == "b") + (
                max(j, -2) + 2 if j < 0 else min(j - self.span, 1) + 2)
        return self.degrees_of(s)

    def ref(self, obj: ExcObject) -> Optional[Tuple[int, int]]:
        """The object obj as a (slot, shift) pair; None beyond the universe."""
        s = self.index(obj)
        return None if s is None else (s, obj.shift)

    def index(self, x: ExcObject, dm: int = 0) -> Optional[int]:
        """The slot of x's base object, in the labels of a point with index
        ``dm``: the position of ``x.base().translated(-dm)`` in the
        universe, None beyond it.  The only map from objects to slots, by
        arithmetic on the universe's order (M, M', the a chain, the b
        chain); it ignores the explicit shift and builds no object."""
        if x.kind == "M":
            return 0
        if x.kind == "Mp":
            return 1
        j = x.m - dm - self.low
        if not 0 <= j < self.span:
            return None
        return 2 + j if x.kind == "a" else 2 + self.span + j

    def cells(self, fid: str) -> List[Tuple[int, int, int]]:
        """The slots of family fid's standard triples at the indices
        m - window .. m + window of the plan's m, in that order: at
        ``window``, the cells of a point's block, relative to its m.  The
        list is the plan's own, built with it."""
        return self.blocks[fid]

    def row(self, t: ExcTriple, rows: dict, s1: int, s2: int) -> Optional[_Row]:
        key = (s1, s2)
        if key not in rows:
            rows[key] = self._build(t, s1, s2)
        return rows[key]

    def _build(self, t: ExcTriple, s1: int, s2: int) -> Optional[_Row]:
        if not in_shift_set(t, (0, s1, s2)):
            return None
        B = (t[0], t[1].shifted(s1), t[2].shifted(s2))
        closures = []
        for i in (0, 1):
            if hom_degrees(B[i], B[i + 1])[0] != 1:
                continue
            pair = ext_pair(B[i], B[i + 1])
            content = None if pair is None else closure_content(pair, self.window)
            if content:
                # the pair's own objects are decided at the window's ends
                ends = self.ref(B[i]), self.ref(B[i + 1])
                inside = tuple(r for r in map(self.ref, content)
                               if r is not None and r not in ends)
                closures.append((i, inside, ("closure", B, "[%d]" % i)))
        outer = y_obj = None
        h02 = hom_dims(B[0], B[2])
        if h02 is not None and h02[0] == 1 and h02[1] == 1:
            pair = ext_pair(B[0], B[2])
            content = None if pair is None else closure_content(pair, self.window)
            if content is not None:
                y_obj, name, factors = content[2], "two-factor", (B[0], B[2])
        elif h02 is None or h02[0] != 1:
            y_obj, name, factors = self._three_factor_target(B), "three-factor", B
        if y_obj is not None and self.index(y_obj) is not None:
            # the fixpoint reads the charge of Y's slot for the factors' sum
            cls = sum(map(kclass, factors[1:]), kclass(factors[0]))
            if kclass(y_obj) != cls:  # pragma: no cover - pattern sanity check
                raise EngineError(
                    "paper-rule inconsistency: filtration class mismatch for "
                    "(%s,%s,%s), indices relative to the point's m" % B
                )
            outer = (self.ref(y_obj), (name, B, ""))
        return _Row(tuple(map(self.ref, B)), tuple(closures), outer)

    def _three_factor_target(self, B) -> Optional[ExcObject]:
        """The three-factor extension Y: X extends B[1] by B[2] and Y
        extends B[0] by X.  Y is certified as an iterated extension by
        requiring both steps to be unique (one-dimensional, in degree one)."""
        y_obj = B[2]
        for x in (B[1], B[0]):
            pair = ext_pair(x, y_obj)
            if pair is None or pair.dim != 1 or pair.degree != 1:
                return None
            content = closure_content(pair, self.window)
            if content is None:
                return None
            y_obj = content[2]
        return y_obj


@lru_cache(maxsize=None)
def _plan(window: int) -> _Plan:
    """The plan at ``window`` for m = 0, built on the first fixpoint that
    needs it and shared by every point; it holds nothing of any point."""
    return _Plan(window)


# ---------------------------------------------------------------------------
# the fixpoint


class Analysis:
    """What the engine derives for one point at one window, and the one
    object ``StabilityPoint.analysis`` keeps per window: one run of the rule
    fixpoint on the window's plan, relative to the point's m (``dm``), and
    what ``lookup`` and ``regions`` read from it.

    ``simple`` holds the point's simple charges read through dm steps
    (``_translated_simple``), so that a slot's charge is its plan K-class
    against them.  Indexed by slot: ``row`` the ``lookup`` entries, each
    a status with the conditional phase (None for an object that cannot
    be semistable), ``rule`` the rule token that decided each decided
    slot, and ``agrees`` whether each decided phase has the direction of
    its charge.  A slot is decided when it has a ``rule``; ``set_ss`` and
    ``set_unstable`` write its entry then, and ``entry`` fills an
    undecided slot's ``unknown`` entry on its first read, after the
    fixpoint.  ``witness`` maps each slot a big gap killed to the chain
    object below the gap.  ``order`` holds the decided slots in
    first-verdict order, ``tails`` per side (True for the high tail) the
    far bounds of each chain letter beyond the block that ``regions`` has
    needed so far, ``cells`` its cell verdicts: per family, one True,
    False or None (undecidable) for each cell of the point's block, in
    index order, and ``unions`` per family its answer to membership in
    the union of the family's cells at every index: True, False or the
    reason it is undecidable.
    ``slot_charge``, ``slot_phase`` and ``slot_bracket`` read a slot of
    the plan's ``reps`` by number: its charge, its conditional phase (a
    universe slot's through ``entry``, so kept; one beyond the universe
    computed on each call and kept nowhere) and the bracket fold on its
    plan row, what ``charge_of``, ``conditional_phase`` and
    ``phase_bracket`` give for its label.
    Rules are tokens, the plan's own: a string ("anchor", "big-gap") or a
    row's (name, B, suffix).  Tokens and witnesses are spelled in the
    point's own labels only by ``verdict`` and in error messages.  The
    fixpoint's charges are a local of ``_decide``, so an analysis keeps,
    besides ``agrees``, only what a later lookup or ``regions`` reads, and
    no reference to its point."""

    def __init__(self, plan: _Plan, dm: int = 0, simple=None):
        self.plan = plan
        self.dm = dm
        self.simple = simple
        n = len(plan.universe)
        self.row: List[Optional[Tuple[str, Optional[Phase]]]] = [None] * n
        self.rule: List[Optional[object]] = [None] * n
        self.witness: Dict[int, ExcObject] = {}
        # per slot, whether its decided phase has the direction of its
        # charge; tested on the first re-pin (see _agrees)
        self.agrees: List[Optional[bool]] = [None] * n
        self.order: List[int] = []
        self.tails: Dict[bool, Dict[str, object]] = {}
        self.cells: Dict[str, tuple] = {}
        self.unions: Dict[str, object] = {}

    def entry(self, s: int) -> Tuple[str, Optional[Phase]]:
        """The ``lookup`` entry of the universe slot s; an undecided slot's
        is computed on the first read, with its charge."""
        e = self.row[s]
        if e is None:
            e = self.row[s] = _undecided(
                self, _charge(self.simple, self.plan.kclasses[s]),
                self.plan.degrees_of(s))
        return e

    def slot_charge(self, s: int) -> Gaussian:
        """``charge_of`` the object ``plan.reps[s]`` in the point's labels:
        its plan K-class against ``simple``."""
        return _charge(self.simple, self.plan.kclasses[s])

    def slot_phase(self, s: int) -> Optional[Phase]:
        """``conditional_phase`` of the object ``plan.reps[s]``: the phase
        of a universe slot's ``entry``, and beyond the universe computed
        on each call and kept nowhere."""
        if s < len(self.row):
            return self.entry(s)[1]
        return _undecided(self, self.slot_charge(s), self.plan.degrees_of(s))[1]

    def slot_bracket(self, s: int):
        """``phase_bracket`` of the object ``plan.reps[s]``: the bracket
        fold (``_bracket``) on the slot's plan row."""
        return _bracket(self, self.plan.degrees_of(s))

    def at(self, obj: ExcObject) -> ExcObject:
        return obj.translated(self.dm)

    def name(self, s: int, shift: int = 0) -> ExcObject:
        """The object (s, shift) in the point's own labels."""
        return self.at(self.plan.universe[s].shifted(shift))

    def label(self, rule) -> str:
        if isinstance(rule, str):
            return rule
        name, B, suffix = rule
        return "%s(%s,%s,%s)%s" % (name, *map(self.at, B), suffix)

    def verdict(self, s: Optional[int]) -> Verdict:
        """The verdict on slot s, a new object whose witness and rules are
        spelled in the point's own labels on first read (``spelled``);
        ``unknown`` when s is undecided or None (beyond the universe)."""
        if s is None or self.rule[s] is None:
            return Verdict("unknown")
        v = object.__new__(Verdict)
        v.status, v.phase = self.row[s]
        v._an, v._slot = self, s
        return v

    def spelled(self, s: int) -> Tuple[Optional[str], Tuple[str, ...]]:
        """The witness and rules of the decided slot s, in the point's own
        labels."""
        w = self.witness.get(s)
        if w is not None:
            w = self.at(w)
            w = "phase gap %s..x[%d]" % (w, w.m + 1)
        return w, (self.label(self.rule[s]),)

    def verdicts(self) -> Dict[ExcObject, Verdict]:
        return {self.name(s): self.verdict(s) for s in self.order}

    def set_ss(self, ref: Tuple[int, int], phase: Phase, rule):
        s, shift = ref
        if shift:
            phase = phase.plus(-shift)
        decided = self.rule[s]
        if decided is None:
            self.row[s] = ("semistable", phase)
            self.rule[s] = rule
            self.order.append(s)
            return
        cur = self.row[s][1]
        if cur is None:
            raise EngineError(
                "paper-rule inconsistency: %s semistable by %s, unstable by %s"
                % (self.name(s), self.label(rule), (self.label(decided),))
            )
        if not cur.same_as(phase):
            raise EngineError(
                "paper-rule inconsistency: %s has phases %r (%s) and %r (%s)"
                % (self.name(s), cur, (self.label(decided),), phase,
                   self.label(rule))
            )

    def set_unstable(self, s: int, witness: ExcObject, rule):
        decided = self.rule[s]
        if decided is None:
            self.row[s] = _DEAD["unstable"]
            self.rule[s] = rule
            self.witness[s] = witness
            self.order.append(s)
        elif self.row[s][1] is not None:
            raise EngineError(
                "paper-rule inconsistency: %s unstable by %s, semistable by %s"
                % (self.name(s), self.label(rule), (self.label(decided),))
            )


def _unit_shifts(p1: Phase, p0: Phase) -> Tuple[int, ...]:
    """The integers k with |p1 - p0 + k| < 1, in increasing order, building
    no Phase.  With k0 the offset difference, p1 - p0 lies in (k0 - 1,
    k0 + 1), and the sign of the cross product of the charges says where:
    in (k0, k0 + 1) when positive, in (k0 - 1, k0) when negative, and at
    k0 when zero (two upper-branch charges with cross product zero point
    the same way)."""
    k = p1.offset - p0.offset
    c = p0.charge.cross(p1.charge)
    if c > 0:
        return (-k - 1, -k)
    if c < 0:
        return (-k, 1 - k)
    return (-k,)


def _agrees(an: Analysis, s: int, charge) -> bool:
    """Whether slot s is decided at a phase with the direction of its
    charge.  Moving an object by k shifts negates both its charge and the
    direction of its phase k times, so this does not depend on the shift:
    it is tested once per decided slot and kept in ``Analysis.agrees``."""
    ok = an.agrees[s]
    if ok is None:
        ph = (an.row[s] or _DEAD["unknown"])[1]
        if ph is None:
            return False
        d, z = ph.direction(), charge((s, 0))
        ok = an.agrees[s] = d.cross(z) == 0 and d.dot(z) > 0
    return ok


def _pin_in_window(an: Analysis, ref: Tuple[int, int], lo: Phase, a: int,
                   hi: Phase, b: int, charge, rule):
    """Declare the object ref semistable with its phase in the closed
    window [lo + a, hi + b]: the phases lo and hi moved by the integers a
    and b.  ``charge`` maps an object to its charge.  Builds one Phase,
    that of ref's base object, in the window moved down by ref's shift
    (the ends are built only for an error message), and raises on a
    contradiction; a slot already decided is direction-tested first
    (``_agrees``).

    The window is shorter than 1: it runs between two phases of a scanned
    triple, and ``_unit_shifts`` keeps every pairwise gap of those below 1.
    So a slot already decided at a phase in the window, with the direction
    of its charge, keeps that phase: it is the only one found here, and
    ``_sigma_triple_rules`` leaves such a re-pin out."""
    s, k = ref
    _agrees(an, s, charge)
    z = charge(ref)
    if z.is_zero():
        raise EngineError(
            "paper-rule inconsistency: zero charge on %s" % an.name(*ref)
        )
    # the base object's charge, and its window
    ph = phase_in_closed_window(-z if k % 2 else z, lo, hi, a - k, b - k)
    if ph is None:
        raise EngineError(
            "paper-rule inconsistency: phase of %s escapes [%r, %r]"
            % (an.name(*ref), lo.plus(a), hi.plus(b))
        )
    an.set_ss((s, 0), ph, rule)


def _sigma_triple_rules(an: Analysis, row: _Row, phis, shifts, charge):
    """All consequences of one sigma-exceptional triple (all three objects
    semistable, pairwise phase gaps strictly below one):

    * each descending consecutive pair with a hom in degree one spans a
      finite-length subcategory whose exceptional objects are semistable;
    * the extension of the outer pair pins the unique middle object;
    * when the outer hom vanishes in degree one, the filtration through the
      middle object pins the three-factor extension instead.

    The triple's phases are the base phases ``phis`` moved by the integers
    ``shifts`` = (0, s1, s2), compared with ``cmp_shifted`` and handed to
    the window functions with their shifts; a Phase is built only for a
    pinned object, at its base offset, and for the three-factor test
    phase.  An outer step reads the charge of its target's base object,
    whose K-class the plan checked against the sum of the factors'.

    Most closure pins re-derive a slot decided at a phase with the
    direction of its charge (``_agrees``); such a re-pin holds, and
    changes nothing, exactly when the decided phase moved by the pin's
    shift lies in the window, which the loop tests on the offsets and one
    integer cross product per end.  Every other pin (a new slot, a
    conflict) goes to ``_pin_in_window``.  The pair's own two objects are
    not among the contents (``_Plan._build``): each is decided, from its
    own charge, at exactly one end of the window, so its re-pin could
    neither decide nor raise.
    """
    entries, agrees = an.row, an.agrees
    for i, content, rule in row.closures:
        hi, a, lo, b = phis[i], shifts[i], phis[i + 1], shifts[i + 1]
        if cmp_shifted(hi, a, lo, b) < 0:
            continue
        # the window [lo + b, hi + a] as offsets and charges
        lo_o, lz, hi_o, hz = lo.offset + b, lo.charge, hi.offset + a, hi.charge
        for c in content:
            s, k = c
            if agrees[s] or _agrees(an, s, charge):
                ph = entries[s][1]
                o, z = ph.offset + k, ph.charge
                if ((o > lo_o or o == lo_o and lz.re * z.im >= lz.im * z.re) and
                        (o < hi_o or o == hi_o and z.re * hz.im >= z.im * hz.re)):
                    continue
            _pin_in_window(an, c, lo, b, hi, a, charge, rule)
    if row.outer is None:
        return
    p0, p1, p2 = phis
    _, s1, s2 = shifts
    B = row.B
    c10 = cmp_shifted(p1, s1, p0, 0)
    c20 = cmp_shifted(p2, s2, p0, 0)
    c21 = cmp_shifted(p2, s2, p1, s1)
    (y, k), rule = row.outer
    target = (y, 0)  # the target's base object
    if rule[0] == "two-factor":
        if not ((c20 < 0 and c21 < 0) or (c10 < 0 and c20 < 0)):
            return
        try:
            py = window_arg(charge(target), p0, -1 - k)
        except ExactError:
            raise EngineError(
                "paper-rule inconsistency: boundary phase for the "
                "extension of %s" % an.label(("", rule[1], ""))
            )
        an.set_ss(target, py, rule)
        return
    anchor_low = None
    if c10 < 0 and c20 < 0:
        try:
            wa = window_arg(charge(B[0]) + charge(B[1]), p0, -1)
        except ExactError:
            wa = None
        if wa is not None and cmp_shifted(wa, 0, p2, s2) > 0:
            anchor_low = p0, -1
    if anchor_low is None and c21 < 0 and c10 <= 0:
        anchor_low = p2, s2
    if anchor_low is None:
        return
    try:
        py = window_arg(charge(target), anchor_low[0], anchor_low[1] - k)
    except ExactError:
        raise EngineError(
            "paper-rule inconsistency: boundary phase for the "
            "three-factor extension of %s" % an.label(("", rule[1], ""))
        )
    if cmp_shifted(py, k, p0, 0) >= 0:
        raise EngineError(
            "paper-rule inconsistency: three-factor extension of %s "
            "above its bound" % an.label(("", rule[1], ""))
        )
    an.set_ss(target, py, rule)


def _decide(point: StabilityPoint, window: int) -> Analysis:
    """The point's analysis at ``window``: the rule fixpoint, run on the
    window's plan in coordinates relative to ``point.m``; per point it
    computes only charges, window arguments and phase comparisons, by slot.

    Each verdict writes its slot's entry and rule (``Analysis.set_ss``,
    ``set_unstable``), and the fixpoint stops after a round that decides
    no slot.  Every rule of a round reads the phases decided before the
    round.  A standard triple is scanned once, exhaustively, in the round
    after its last slot is decided semistable (decided phases are
    immutable): at the start of each round the slots decided semistable
    in the round before count down their triples' ``_Plan.sizes``, and
    the triples that reach 0 are scanned in plan order, each at the shifts
    (0, s1, s2) that keep its pairwise phase gaps below one
    (``_unit_shifts``) and lie inside its shift set (``_Plan.bounds``),
    so that only rows of the shift set are built or read.  Likewise each
    chain pair (slot, successor) of ``_Plan.gaps`` is compared for a big
    gap once, in the first round in which both ends are decided."""
    plan = _plan(window)
    an = Analysis(plan, point.m, _translated_simple(point.simple, point.m))
    simple, kclasses = an.simple, plan.kclasses
    # the charges by slot, computed on first use; no lookup reads them
    zs: List[Optional[Gaussian]] = [None] * len(plan.universe)

    def charge(ref: Tuple[int, int]) -> Gaussian:
        # [x[k]] = (-1)^k [x], and charges are linear with integer values
        s = ref[0]
        z = zs[s]
        if z is None:
            z = zs[s] = _charge(simple, kclasses[s])
        return -z if ref[1] % 2 else z

    # the anchor is the family's cell at the point's m, shifted
    for ref, ph in zip(zip(plan.cells(point.family)[window], point.shift),
                       point.anchor_phases):
        an.set_ss(ref, ph, "anchor")

    row, holders, missing, bounds = an.row, plan.holders, plan.sizes[:], plan.bounds
    gapped = [False] * len(plan.universe)  # chain pairs compared for a big gap
    counted = 0  # the verdicts whose slots have counted down their triples
    # every round but the last decides at least one slot
    for _ in range(len(plan.universe) + 1):
        ready = []
        for s in an.order[counted:]:
            if row[s][1] is not None:
                for j in holders[s]:
                    missing[j] -= 1
                    if not missing[j]:
                        ready.append(j)
        counted = len(an.order)

        # chain neighbors more than one phase apart kill the rest of the
        # chain; this sets no phase, so the round's phases are still those
        # decided before it.  A pair is compared in the first round in
        # which both ends are decided, and never again: its phases cannot
        # change, and its kills would repeat as no-ops
        for s in an.order[:counted]:
            px, gap = row[s][1], plan.gaps[s]
            if px is None or gap is None or gapped[s] or row[gap[0]] is None:
                continue
            gapped[s] = True
            py = row[gap[0]][1]
            if py is not None and cmp_shifted(py, 0, px, 1) > 0:
                for o in gap[1]:
                    an.set_unstable(o, plan.universe[s], "big-gap")

        # sigma-exceptional shifts of the standard triples, inside each
        # triple's shift set
        for j in sorted(ready):
            t, (i0, i1, i2), rows = plan.triples[j]
            a, b, g = bounds[j]
            phis = p0, p1, p2 = row[i0][1], row[i1][1], row[i2][1]
            u12, u02 = _unit_shifts(p2, p1), _unit_shifts(p2, p0)
            for s1 in _unit_shifts(p1, p0):
                if s1 > a:
                    continue
                for s2 in u02:
                    if s2 > b or s2 - s1 > g or s2 - s1 not in u12:
                        continue
                    _sigma_triple_rules(an, plan.row(t, rows, s1, s2), phis,
                                        (0, s1, s2), charge)
        if len(an.order) == counted:
            break
    else:  # pragma: no cover
        raise EngineError("rule fixpoint did not converge")
    return an


def semistable(point: StabilityPoint, x: ExcObject, window: int = DEFAULT_WINDOW) -> Verdict:
    """The verdict on x from the point's analysis at ``window``, spelled
    out on each call.  Results belong to the point object: equal but
    distinct points compute their own."""
    an = point.analysis(window)
    v = an.verdict(an.plan.index(x, an.dm))
    if v.status == "semistable" and x.shift:
        v.phase = v.phase.plus(x.shift)
    return v


def phase_of(point: StabilityPoint, x: ExcObject, window: int = DEFAULT_WINDOW) -> Phase:
    status, ph = lookup(point, x.base(), window)
    if status != "semistable":
        raise UndecidedError("%s is not decided semistable" % (x,))
    return ph.plus(x.shift) if x.shift else ph


def phase_bracket(point: StabilityPoint, xb: ExcObject, window: int = DEFAULT_WINDOW):
    """``_bracket`` of the base object xb in the point's analysis at
    ``window``, on its plan row (``_Plan.hom_row``)."""
    an = point.analysis(window)
    return _bracket(an, an.plan.hom_row(xb, an.dm))


def _bracket(an: Analysis, degrees) -> Optional[Tuple[Optional[Phase], Optional[Phase]]]:
    """The closed bracket [lo, up] the phase of an object x must lie in were
    x semistable, folded over the analysis's decided-semistable slots in
    verdict order, with ``degrees[s]`` the degrees (fwd, bwd) of the homs
    from x to slot s and back (a plan row): a nonzero hom in degree d from
    U to V forces phi(U) <= phi(V) + d.  An end is None while nothing
    bounds it, and of equal bounds the first read is kept.  Returns None,
    reading no further slot, once the bracket is empty.

    Each end is kept as its integer part (a slot's offset + fwd for the
    upper end, offset - bwd for the lower one) and the phase of the slot
    that set it.  Bounds compare in exactly ``cmp_shifted``'s order,
    written inline so that the fold makes no call per slot: a bound
    n + arg(z)/pi with arg(z) in (0, pi] lies in (n, n + 1], so distinct
    integer parts decide; on a tie, two upper-branch charges z, w have
    arg z < arg w iff z.re * w.im - z.im * w.re > 0, a cross product
    that is zero only when they have one direction (opposite ones cannot
    both lie in the branch), that is for equal bounds.  A Phase is built
    (``Phase.plus``) only for the ends returned."""
    row = an.row
    lo, up = -inf, inf  # the integer parts of the ends
    lph = uph = None  # the phases they were read from
    for s in an.order:
        ph = row[s][1]
        if ph is None:
            continue
        fwd, bwd = degrees[s]
        if fwd is not None:
            n = ph.offset + fwd
            if n < up or n == up and (
                    ph.charge.re * uph.charge.im > ph.charge.im * uph.charge.re):
                up, uph = n, ph
        if bwd is not None:
            n = ph.offset - bwd
            if n > lo or n == lo and (
                    ph.charge.re * lph.charge.im < ph.charge.im * lph.charge.re):
                lo, lph = n, ph
        if lo >= up and (lo > up or (
                lph.charge.re * uph.charge.im < lph.charge.im * uph.charge.re)):
            return None
    return (
        None if lph is None else lph.plus(lo - lph.offset),
        None if uph is None else uph.plus(up - uph.offset),
    )


def conditional_phase(point: StabilityPoint, xb: ExcObject,
                      window: int = DEFAULT_WINDOW) -> Optional[Phase]:
    """The phase the base object has -- or would have, were it semistable.

    Returns the decided phase for a semistable object, and None when the
    object cannot be semistable: decided unstable, zero charge (Z(E) != 0
    for a semistable E), or no phase of its charge direction in the hom
    bracket against the decided-semistable objects (``phase_bracket``).

    It never raises.  The anchor is a full Ext-exceptional collection, so
    its extension closure is a finite-length heart with simples A0, A1, A2
    (Macri, arXiv:0705.3794, Lemma 3.14).  Let x have its cohomology in
    that heart in degrees p..q.  A simple quotient A_i of the top one and
    a simple subobject A_j of the bottom one give nonzero homs from x to
    A_i in degree -q and from A_j to x in degree p, so the bracket lies in
    [phi(A_j) - p, phi(A_i) - q].  The anchor phases spread by less than 1
    (``StabilityPoint``), so the bracket is bounded and shorter than
    1 - (q - p) <= 1, and of the phases of one charge direction, 2 apart,
    at most one fits.  The second field of ``lookup``."""
    return lookup(point, xb, window)[1]


# status -> the entry, shared by every analysis, of an object with no phase
_DEAD = {"unstable": ("unstable", None), "unknown": ("unknown", None)}


def lookup(point: StabilityPoint, xb: ExcObject,
           window: int = DEFAULT_WINDOW) -> Tuple[str, Optional[Phase]]:
    """(status of the verdict, ``conditional_phase``) of the base object xb:
    for an object of the plan's universe, the analysis's slot row, filled
    on the first read; beyond it, computed on each call.  A shifted label
    is a ValueError: its entry is its base object's, moved by the shift."""
    if xb.shift:
        raise ValueError("%s is not a base object" % (xb,))
    an = point.analysis(window)
    s = an.plan.index(xb, an.dm)
    if s is not None:
        return an.entry(s)
    return _undecided(an, charge_of(point, xb), an.plan.hom_row(xb, an.dm))


def _undecided(an: Analysis, z: Gaussian, degrees) -> Tuple[str, Optional[Phase]]:
    """The ``lookup`` entry of an object the rules left undecided, of
    charge z and with the plan row ``degrees`` of its hom degrees: the
    phase of its charge direction in its hom bracket, or None."""
    bracket = None if z.is_zero() else _bracket(an, degrees)
    ph = None if bracket is None else phase_in_closed_window(z, *bracket)
    return _DEAD["unknown"] if ph is None else ("unknown", ph)


# ---------------------------------------------------------------------------
# symmetries


def rescale(point: StabilityPoint, lam) -> StabilityPoint:
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("scale must be positive")
    return replace(point, charges=tuple(z.scale(lam) for z in point.charges))


def shift(point: StabilityPoint, n: int) -> StabilityPoint:
    return replace(point, global_shift=point.global_shift + n)


def rotate_quarter(point: StabilityPoint, k: int) -> StabilityPoint:
    """Multiply every stored charge by i^k; every phase moves by exactly k/2,
    with offsets recomputed when a charge crosses the branch cut."""
    if k % 2 == 0:
        delta = int_phase(k // 2) if k else None
    else:
        delta = Phase((k - 1) // 2, Gaussian.of(0, 1))
    charges = []
    extras = []
    for e, z in zip(point.extra_offsets, point.charges):
        ph = Phase(point.global_shift + e, z)
        np = phase_add(ph, delta) if delta is not None else ph
        charges.append(np.charge)
        extras.append(np.offset - point.global_shift)
    return replace(point, charges=tuple(charges), extra_offsets=tuple(extras))
