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
built, the charges of the three simple classes (``StabilityPoint.simple``,
solved once by Cramer's rule in its shifted anchor's K-classes), and
``charge_of`` is three multiply-adds on a K-class.

The rule fixpoint reads a plan, one per window and shared by every point
(``_Plan``).  The plan numbers its objects (slots), and its rows are the
sigma-triple instances of the window's standard triples as (slot, shift)
pairs relative to the point's m: shift-set membership, closure contents
inside the scope, and the outer step (the two-factor middle object or the
K-class-checked three-factor extension).  The plan is keyed on the window
alone, as all of this is unchanged when every chain index moves by one
step; rows are built on first use.  The plan also keeps each slot's
K-class, and, built on first use, per slot the row of its hom degrees to
every slot (``catalog.hom_degrees``).  Moving n steps along the chains
acts on K as T^n(c) = c + n (c_T - c_L) delta, so a fixpoint reads its
slots' K-classes against the point's simple charges moved once by its m.
Per point the fixpoint computes only charges, window arguments and phase
comparisons on lists indexed by slot, and spells out objects, rules and
witnesses in the point's own labels.
The plan also indexes, per slot, the standard triples holding it (the
readiness index), so a point's fixpoint scans each triple once, in the
round after its last slot is decided semistable, and never rescans the
triples still waiting.

An object the rules leave undecided still has a conditional phase, the
one it would have were it semistable: the only phase of its charge
direction inside its hom bracket against the decided-semistable objects
(``hom_bracket``).  The anchor alone bounds that bracket to less than one
unit, so the phase is unique or absent and never left unresolved.

Each point owns its analyses, one per window (``StabilityPoint.analysis``):
the rule fixpoint's slot state (its one store of verdicts, which
``semistable`` spells out one at a time), the (status, conditional phase)
entries of ``lookup`` in one row indexed by the same slots (a memo by
object only for the objects beyond the plan's universe), and the tail
enclosures ``regions`` derives from them.  A lookup takes a base object,
finds its slot by arithmetic on its label and builds no object; an
undecided slot's bracket reads the plan's hom-degree row, and an object
beyond the universe reads ``hom_degrees`` directly.  An analysis is
built on the first lookup at its window and lives exactly as long as its
point; nothing is cached process-wide on points, so equal but distinct
point objects each compute their own (identical) results.

The phase comparisons on the hot paths (the fixpoint's unit shifts and
rule comparisons, the hom bracket, the region clause test) read a phase
shifted by an integer as an (offset, charge) pair and decide with one
cross product (``exact.cmp_shifted``), building no Phase per comparison.
Most closure pins re-derive an object already decided; whether its
decided phase has the direction of its charge does not depend on the
shift, so that is tested once per slot, and such a re-pin costs two
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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
    phase_add,
    phase_in_closed_window,
    primitive_multiple,
    window_arg,
)
from .quiver import Vec3, det3
from .triples import (
    ExcTriple,
    FAMILY_IDS,
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
    # the charges times the positive rational that makes them a primitive
    # integer triple; derived, so not part of ==, hash or the JSON form
    int_charges: Tuple[Gaussian, Gaussian, Gaussian] = field(
        init=False, repr=False, compare=False
    )
    # the integer charges of the simple classes (1,0,0), (0,1,0), (0,0,1),
    # so that charge_of is linear on K-classes; derived like int_charges
    simple: Tuple[Gaussian, Gaussian, Gaussian] = field(
        init=False, repr=False, compare=False
    )
    # the anchor phases, carrying the integer charges; derived like int_charges
    anchor_phases: Tuple[Phase, Phase, Phase] = field(
        init=False, repr=False, compare=False
    )
    # window -> Analysis, filled on first lookup; derived like int_charges
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
        object.__setattr__(self, "int_charges", primitive_multiple(self.charges))
        # a sigma-exceptional anchor: its phases lie in one unit interval,
        # which bounds every conditional phase (see conditional_phase)
        phases = tuple(
            Phase(self.global_shift + e, z)
            for e, z in zip(self.extra_offsets, self.int_charges)
        )
        if max(phases) >= min(phases).plus(1):
            raise ValueError(
                "anchor phases %r spread by 1 or more (extra_offsets %r)"
                % (phases, self.extra_offsets)
            )
        object.__setattr__(self, "anchor_phases", phases)
        object.__setattr__(self, "simple", _simple_charges(
            base.shifted(self.shift).kclasses(), phases
        ))
        object.__setattr__(self, "analyses", {})

    def analysis(self, window: int = DEFAULT_WINDOW) -> "Analysis":
        """The engine's analysis of this point at ``window``, built on first
        use and kept for the life of the point."""
        a = self.analyses.get(window)
        if a is None:
            a = self.analyses[window] = Analysis(self, window)
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
        a = d["anchor"]
        return StabilityPoint(
            a["family"],
            exact_int(a["m"]),
            tuple(exact_int(x) for x in a["shift"]),
            tuple(Gaussian.from_json(z) for z in d["charges"]),
            exact_int(d.get("global_shift", 0)),
            tuple(exact_int(x) for x in d.get("extra_offsets", (0, 0, 0))),
        )


def standard_heart_point(charges, global_shift: int = 0) -> StabilityPoint:
    """The anchor whose extension closure is the category of representations:
    simples (1,0,0), (0,1,0), (0,0,1)."""
    return StabilityPoint("F8", 0, (0, 0, -1), tuple(charges), global_shift)


# ---------------------------------------------------------------------------
# central charge on all of K


def _basis_solver(k0: Vec3, k1: Vec3, k2: Vec3):
    """Cramer's rule for c = sum lam_i k_i, scaled by |det|: the solver
    returns the signed integer cofactors sign(det) * d_i = |det| * lam_i."""
    det = det3(k0, k1, k2)
    if det == 0:  # pragma: no cover - excluded by the anchor invariant
        raise EngineError("anchor K-classes degenerate")
    s = 1 if det > 0 else -1

    def solve(c: Vec3):
        return (s * det3(c, k1, k2), s * det3(k0, c, k2), s * det3(k0, k1, c))

    return solve


def _simple_charges(kclasses, phases):
    """The charges of the simple classes, in the scale of ``charge_of``:
    each simple class solved in the anchor's K-classes (``_basis_solver``),
    and the solution applied to the anchor's true integer charges.

    The stored charges are upper-branch representatives; the true charge
    of anchor ``i`` is the direction of its phase ``phases[i]``."""
    solve = _basis_solver(*kclasses)
    signed = [ph.direction() for ph in phases]
    return tuple(_charge(signed, solve(e)) for e in _SIMPLE_CLASSES)


_SIMPLE_CLASSES = (Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1))


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
    status: str  # "semistable" | "unstable" | "unknown"
    phase: Optional[Phase] = None  # phase of the *base* object when semistable
    witness: Optional[str] = None
    rules: Tuple[str, ...] = ()


UNKNOWN = Verdict("unknown")


def _universe(m: int, window: int) -> List[ExcObject]:
    """The objects a fixpoint at index m and ``window`` decides."""
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
    universe, and an object is a (slot, shift) pair.  ``triples`` holds the
    window's standard triples in scan order with their slots and rows, the
    rows built on first use and keyed by (s1, s2), None outside the shift
    set.  ``holders`` holds per slot the indices of the triples that
    contain it, and ``sizes`` per triple its number of distinct slots: a
    triple is ready once that many of its slots are decided semistable.
    ``gaps`` holds, per a/b slot, None or its chain successor and the
    slots a phase gap above it kills, in universe order.  ``kclasses``
    holds the K-class of each slot, and ``degrees_of`` the row of
    ``hom_degrees`` from a slot to every slot, built on first use.

    Hom dimensions, closure contents, the scope and K-class relations are
    unchanged when every chain index moves by the same step
    (``ExcObject.translated``), so the engine keeps one plan per window at
    m = 0 and runs each point's fixpoint in coordinates relative to its m."""

    def __init__(self, window: int, m: int = 0):
        self.window = window
        self.universe = u = _universe(m, window)
        self.slot = {o: i for i, o in enumerate(u)}
        # the lowest chain index and the length of each chain in the universe
        self.low, self.span = m - window, 2 * window + 2
        ks = range(m - window, m + window + 1)
        ts = [family_triple(f, k) for f in FAMILY_IDS for k in ks]
        self.triples = [(t, tuple(self.slot[o] for o in t.objs), {}) for t in ts]
        # the readiness index: per slot the triples holding it, in plan
        # order, and per triple its number of distinct slots
        self.holders = [[] for _ in u]
        self.sizes = []
        for j, (_, slots, _) in enumerate(self.triples):
            distinct = set(slots)
            for s in distinct:
                self.holders[s].append(j)
            self.sizes.append(len(distinct))
        self.kclasses = [kclass(o) for o in u]
        self.degrees: List[Optional[tuple]] = [None] * len(u)
        self.gaps = [None] * len(u)
        for s, o in enumerate(u):
            if o.kind in ("a", "b") and o.translated(1) in self.slot:
                self.gaps[s] = (self.slot[o.translated(1)], tuple(
                    i for i, y in enumerate(u)
                    if y.kind == o.kind and y.m not in (o.m, o.m + 1)))

    def degrees_of(self, s: int) -> tuple:
        """Per slot t, ``hom_degrees`` from slot s to slot t, built on the
        first call for s.  The entries are tuples of that function's table."""
        row = self.degrees[s]
        if row is None:
            x = self.universe[s]
            row = self.degrees[s] = tuple(hom_degrees(x, y) for y in self.universe)
        return row

    def ref(self, obj: ExcObject) -> Tuple[int, int]:
        return self.slot[obj.base()], obj.shift

    def index(self, xb: ExcObject, dm: int = 0) -> Optional[int]:
        """The slot of the base object xb, in the labels of a point with
        index ``dm``; None beyond the universe.  The same as
        ``slot.get(xb.translated(-dm))``, by arithmetic on the universe's
        order (M, M', the a chain, the b chain), building no object."""
        if xb.kind == "M":
            return 0
        if xb.kind == "Mp":
            return 1
        j = xb.m - dm - self.low
        if not 0 <= j < self.span:
            return None
        return 2 + j if xb.kind == "a" else 2 + self.span + j

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
                inside = tuple(self.ref(c) for c in content if c.base() in self.slot)
                closures.append((i, inside, ("closure", B, "[%d]" % i)))
        outer = None
        h02 = hom_dims(B[0], B[2])
        if h02 is not None and h02[0] == 1 and h02[1] == 1:
            pair = ext_pair(B[0], B[2])
            content = None if pair is None else closure_content(pair, self.window)
            if content is not None and content[2].base() in self.slot:
                outer = (self.ref(content[2]), ("two-factor", B, ""))
        elif h02 is None or h02[0] != 1:
            y_obj = self._three_factor_target(B)
            if y_obj is not None:
                outer = (self.ref(y_obj), ("three-factor", B, ""))
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
        if y_obj.base() not in self.slot:
            return None
        cls = kclass(B[0]) + kclass(B[1]) + kclass(B[2])
        if kclass(y_obj) != cls:  # pragma: no cover - pattern sanity check
            raise EngineError(
                "paper-rule inconsistency: filtration class mismatch for "
                "(%s,%s,%s), indices relative to the point's m" % B
            )
        return y_obj


@lru_cache(maxsize=None)
def _plan(window: int) -> _Plan:
    """The plan at ``window`` for m = 0, built on the first fixpoint that
    needs it and shared by every point; it holds nothing of any point."""
    return _Plan(window)


# ---------------------------------------------------------------------------
# the fixpoint


class _State:
    """One fixpoint run on a plan, relative to the point's m (``dm``): the
    point's simple charges read through dm steps (``_translated_simple``),
    so that a slot's charge is its plan K-class against them, and the
    verdicts, semistable phases and charges of the base objects by slot,
    whether each decided phase agrees with its charge, and the decided
    slots in first-verdict order.  Rules are tokens, a string or a plan's
    (name, B, suffix), and a big-gap witness is the chain object below the
    gap; both are spelled in the point's own labels only by ``spell`` and
    in error messages."""

    def __init__(self, plan: _Plan, dm: int = 0, simple=None):
        self.plan = plan
        self.dm = dm
        self.simple = simple
        n = len(plan.universe)
        self.v, self.phase, self.z = [None] * n, [None] * n, [None] * n
        # per slot, whether its decided phase has the direction of its
        # charge; tested on the first re-pin (see _pin_in_window)
        self.agrees: List[Optional[bool]] = [None] * n
        self.order: List[int] = []
        self.changed = False

    def charge(self, s: int) -> Gaussian:
        """The charge of the base object of slot s, computed on first use."""
        z = self.z[s]
        if z is None:
            z = self.z[s] = _charge(self.simple, self.plan.kclasses[s])
        return z

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

    def _labels(self, rules) -> Tuple[str, ...]:
        return tuple(map(self.label, rules))

    def get(self, xb: ExcObject) -> Optional[Verdict]:
        """The verdict on the base object xb, in the point's own labels;
        None when undecided or outside the universe."""
        s = self.plan.index(xb, self.dm)
        return None if s is None else self.v[s]

    def spell(self, v: Verdict) -> Verdict:
        """A verdict with its witness and rules in the point's own labels."""
        w = v.witness
        if w is not None:
            w = self.at(w)
            w = "phase gap %s..x[%d]" % (w, w.m + 1)
        return Verdict(v.status, v.phase, w, self._labels(v.rules))

    def verdicts(self) -> Dict[ExcObject, Verdict]:
        return {self.name(s): self.spell(self.v[s]) for s in self.order}

    def set_ss(self, ref: Tuple[int, int], phase: Phase, rule):
        s, shift = ref
        if shift:
            phase = phase.plus(-shift)
        cur = self.v[s]
        if cur is None:
            self.v[s] = Verdict("semistable", phase, None, (rule,))
            self.phase[s] = phase
            self.order.append(s)
            self.changed = True
            return
        if cur.status == "unstable":
            raise EngineError(
                "paper-rule inconsistency: %s semistable by %s, unstable by %s"
                % (self.name(s), self.label(rule), self._labels(cur.rules))
            )
        if not cur.phase.same_as(phase):
            raise EngineError(
                "paper-rule inconsistency: %s has phases %r (%s) and %r (%s)"
                % (self.name(s), cur.phase, self._labels(cur.rules), phase,
                   self.label(rule))
            )

    def set_unstable(self, s: int, witness: ExcObject, rule):
        cur = self.v[s]
        if cur is None:
            self.v[s] = Verdict("unstable", None, witness, (rule,))
            self.order.append(s)
            self.changed = True
        elif cur.status == "semistable":
            raise EngineError(
                "paper-rule inconsistency: %s unstable by %s, semistable by %s"
                % (self.name(s), self.label(rule), self._labels(cur.rules))
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


def _pin_in_window(st: _State, ref: Tuple[int, int], lo: Phase, a: int,
                   hi: Phase, b: int, charge, rule):
    """Declare the object ref semistable with its phase in the closed
    window [lo + a, hi + b]: the phases lo and hi moved by the integers a
    and b.  ``charge`` maps an object to its charge.

    The window is shorter than 1: it runs between two phases of a scanned
    triple, and ``_unit_shifts`` keeps every pairwise gap of those below 1.
    So an object already decided at a phase in the window, with the
    direction of its charge, is left as it is: that phase is the only one
    the full path could find.  Moving an object by k shifts negates both
    its charge and the direction of its phase k times, so the direction
    test is made once per slot (``_State.agrees``).  Every other case
    takes the full path, which builds the window's ends and raises on a
    contradiction."""
    s, k = ref
    ph = st.phase[s]
    if (ph is not None and cmp_shifted(lo, a, ph, k) <= 0
            and cmp_shifted(ph, k, hi, b) <= 0):
        ok = st.agrees[s]
        if ok is None:
            d, z = ph.direction(), charge((s, 0))
            ok = st.agrees[s] = d.cross(z) == 0 and d.dot(z) > 0
        if ok:
            return
    z = charge(ref)
    if z.is_zero():
        raise EngineError(
            "paper-rule inconsistency: zero charge on %s" % st.name(*ref)
        )
    lo, hi = lo.plus(a), hi.plus(b)
    ph = phase_in_closed_window(z, lo, hi)
    if ph is None:
        raise EngineError(
            "paper-rule inconsistency: phase of %s escapes [%r, %r]"
            % (st.name(*ref), lo, hi)
        )
    st.set_ss(ref, ph, rule)


def _sigma_triple_rules(st: _State, row: _Row, phis, shifts, charge):
    """All consequences of one sigma-exceptional triple (all three objects
    semistable, pairwise phase gaps strictly below one):

    * each descending consecutive pair with a hom in degree one spans a
      finite-length subcategory whose exceptional objects are semistable;
    * the extension of the outer pair pins the unique middle object;
    * when the outer hom vanishes in degree one, the filtration through the
      middle object pins the three-factor extension instead.

    The triple's phases are the base phases ``phis`` moved by the integers
    ``shifts`` = (0, s1, s2), compared with ``cmp_shifted``; a Phase is
    built only as a ``window_arg`` anchor or on a pin's full path.
    """
    for i, content, rule in row.closures:
        hi, a, lo, b = phis[i], shifts[i], phis[i + 1], shifts[i + 1]
        if cmp_shifted(hi, a, lo, b) < 0:
            continue
        for c in content:
            _pin_in_window(st, c, lo, b, hi, a, charge, rule)
    if row.outer is None:
        return
    p0, p1, p2 = phis
    _, s1, s2 = shifts
    B = row.B
    c10 = cmp_shifted(p1, s1, p0, 0)
    c20 = cmp_shifted(p2, s2, p0, 0)
    c21 = cmp_shifted(p2, s2, p1, s1)
    target, rule = row.outer
    if rule[0] == "two-factor":
        if not ((c20 < 0 and c21 < 0) or (c10 < 0 and c20 < 0)):
            return
        try:
            py = window_arg(charge(B[0]) + charge(B[2]), p0.plus(-1))
        except ExactError:
            raise EngineError(
                "paper-rule inconsistency: boundary phase for the "
                "extension of %s" % st.label(("", rule[1], ""))
            )
        st.set_ss(target, py, rule)
        return
    anchor_low = None
    if c10 < 0 and c20 < 0:
        try:
            wa = window_arg(charge(B[0]) + charge(B[1]), p0.plus(-1))
        except ExactError:
            wa = None
        if wa is not None and cmp_shifted(wa, 0, p2, s2) > 0:
            anchor_low = p0.plus(-1)
    if anchor_low is None and c21 < 0 and c10 <= 0:
        anchor_low = p2.plus(s2)
    if anchor_low is None:
        return
    try:
        py = window_arg(charge(B[0]) + charge(B[1]) + charge(B[2]), anchor_low)
    except ExactError:
        raise EngineError(
            "paper-rule inconsistency: boundary phase for the "
            "three-factor extension of %s" % st.label(("", rule[1], ""))
        )
    if py.cmp(p0) >= 0:
        raise EngineError(
            "paper-rule inconsistency: three-factor extension of %s "
            "above its bound" % st.label(("", rule[1], ""))
        )
    st.set_ss(target, py, rule)


def _decide(point: StabilityPoint, window: int) -> _State:
    """The rule fixpoint at ``window``, run on the window's plan in
    coordinates relative to ``point.m``; per point it computes only
    charges, window arguments and phase comparisons, by slot.

    Every rule of a round reads the phases decided before the round.  A
    standard triple is scanned once, exhaustively, in the round after its
    last slot is decided semistable (decided phases are immutable): at
    the start of each round the slots decided semistable in the round
    before count down their triples' ``_Plan.sizes``, and the triples that
    reach 0 are scanned in plan order."""
    plan = _plan(window)
    st = _State(plan, point.m, _translated_simple(point.simple, point.m))
    zs, slot_charge = st.z, st.charge

    def charge(ref: Tuple[int, int]) -> Gaussian:
        # [x[k]] = (-1)^k [x], and charges are linear with integer values
        z = zs[ref[0]] or slot_charge(ref[0])
        return -z if ref[1] % 2 else z

    anchor = family_triple(point.family, 0).shifted(point.shift)
    for obj, ph in zip(anchor.objs, point.anchor_phases):
        st.set_ss(plan.ref(obj), ph, "anchor")

    phase, holders, missing = st.phase, plan.holders, plan.sizes[:]
    counted = 0  # the verdicts whose slots have counted down their triples
    # every iteration before the fixpoint makes at least one verdict
    # transition, and each object makes at most two
    for _ in range(2 * len(plan.universe) + 2):
        st.changed = False
        ready = []
        for s in st.order[counted:]:
            if phase[s] is not None:
                for j in holders[s]:
                    missing[j] -= 1
                    if not missing[j]:
                        ready.append(j)
        counted = len(st.order)

        # chain neighbors more than one phase apart kill the rest of the
        # chain; this sets no phase, so the round's phases are still those
        # decided before it
        for s in st.order[:]:
            px, gap = phase[s], plan.gaps[s]
            if px is None or gap is None:
                continue
            py = phase[gap[0]]
            if py is None or py.cmp(px.plus(1)) <= 0:
                continue
            for o in gap[1]:
                st.set_unstable(o, plan.universe[s], "big-gap")

        # sigma-exceptional shifts of the standard triples
        for j in sorted(ready):
            t, (i0, i1, i2), rows = plan.triples[j]
            phis = p0, p1, p2 = phase[i0], phase[i1], phase[i2]
            u12 = _unit_shifts(p2, p1)
            for s1 in _unit_shifts(p1, p0):
                for s2 in _unit_shifts(p2, p0):
                    if s2 - s1 not in u12:
                        continue
                    row = plan.row(t, rows, s1, s2)
                    if row is not None:
                        _sigma_triple_rules(st, row, phis, (0, s1, s2), charge)
        if not st.changed:
            break
    else:  # pragma: no cover
        raise EngineError("rule fixpoint did not converge")
    return st


class Analysis:
    """What the engine derives for one point at one window.

    ``state`` is the rule fixpoint's slot state (``_State``), the one store
    of its verdicts.  ``row`` is the memo of ``lookup`` for the plan's
    universe, a list indexed by slot: the verdict's status with the
    conditional phase, None for an object that cannot be semistable.
    ``table`` is the same memo, by base object, for the objects beyond the
    universe, which are all undecided.  ``tails`` holds the tail
    enclosures of ``regions``, by side (True for the high tail).  An
    analysis keeps no reference to its point."""

    def __init__(self, point: StabilityPoint, window: int):
        self.state = _decide(point, window)
        u = self.state.plan.universe
        self.row: List[Optional[Tuple[str, Optional[Phase]]]] = [None] * len(u)
        self.table: Dict[ExcObject, Tuple[str, Optional[Phase]]] = {}
        self.tails: Dict[bool, dict] = {}

    def entry(self, s: int) -> Tuple[str, Optional[Phase]]:
        """The ``lookup`` entry of the universe slot s, computed on the
        first read; an undecided object's charge is the fixpoint's when it
        computed one."""
        e = self.row[s]
        if e is None:
            st = self.state
            v = st.v[s]
            if v is None:
                e = _undecided(st, st.charge(s), st.plan.degrees_of(s).__getitem__)
            else:
                e = _DEAD[v.status] if v.phase is None else (v.status, v.phase)
            self.row[s] = e
        return e


def semistable(point: StabilityPoint, x: ExcObject, window: int = DEFAULT_WINDOW) -> Verdict:
    """The verdict on x from the point's analysis at ``window``, spelled
    out on each call.  Results belong to the point object: equal but
    distinct points compute their own."""
    st = point.analysis(window).state
    v = st.spell(st.get(x.base()) or UNKNOWN)
    if v.status == "semistable" and x.shift:
        v.phase = v.phase.plus(x.shift)
    return v


def phase_of(point: StabilityPoint, x: ExcObject, window: int = DEFAULT_WINDOW) -> Phase:
    status, ph = lookup(point, x.base(), window)
    if status != "semistable":
        raise UndecidedError("%s is not decided semistable" % (x,))
    return ph.plus(x.shift) if x.shift else ph


def hom_bracket(bounds) -> Optional[Tuple[Optional[Phase], Optional[Phase]]]:
    """The closed bracket [lo, up] the phase of an object x must lie in were
    x semistable, folded from triples (phase of a semistable V, degree of
    the hom from x to V, degree of the hom from V to x), a degree None where
    the hom vanishes: a nonzero hom in degree d from U to V forces
    phi(U) <= phi(V) + d.  An end is None while nothing bounds it, and of
    equal bounds the first read is kept.  Returns None, without reading
    further triples, once the bracket is empty.

    Each end is kept as a (phase, integer shift) pair and compared with
    ``cmp_shifted``; a Phase is built only for the ends returned."""
    lo = up = None
    for ph, fwd, bwd in bounds:
        if fwd is not None and (up is None or cmp_shifted(ph, fwd, *up) < 0):
            up = ph, fwd
        if bwd is not None and (lo is None or cmp_shifted(ph, -bwd, *lo) > 0):
            lo = ph, -bwd
        if lo is not None and up is not None and cmp_shifted(*lo, *up) > 0:
            return None
    return (
        None if lo is None else lo[0].plus(lo[1]),
        None if up is None else up[0].plus(up[1]),
    )


def phase_bracket(point: StabilityPoint, xb: ExcObject, window: int = DEFAULT_WINDOW):
    """``hom_bracket`` of the base object xb against the decided-semistable
    objects of the point's analysis at ``window``, in verdict order.  The
    hom degrees are read on the plan's labels, relative to m = 0."""
    st = point.analysis(window).state
    return _bracket(st, _degrees(st, xb))


def _degrees(st: _State, xb: ExcObject):
    """The map from a slot to the hom degrees of the base object xb to it:
    the plan's row for an object of its universe, ``hom_degrees`` on the
    plan's labels beyond it."""
    s = st.plan.index(xb, st.dm)
    if s is not None:
        return st.plan.degrees_of(s).__getitem__
    x, u = xb.translated(-st.dm), st.plan.universe
    return lambda t: hom_degrees(x, u[t])


def _bracket(st: _State, degrees):
    """``hom_bracket`` against the decided-semistable slots, in verdict
    order, with the hom degrees to slot s read as ``degrees(s)``."""
    phase = st.phase
    return hom_bracket(
        (phase[s], *degrees(s)) for s in st.order if phase[s] is not None
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


# status -> the entry, shared by every row and table, of an object with no phase
_DEAD = {"unstable": ("unstable", None), "unknown": ("unknown", None)}


def lookup(point: StabilityPoint, xb: ExcObject,
           window: int = DEFAULT_WINDOW) -> Tuple[str, Optional[Phase]]:
    """(status of the verdict, ``conditional_phase``) of the base object xb,
    computed on the first read: from the analysis's slot row for an object
    of the plan's universe, from its table by base object beyond it.  A
    shifted label is a ValueError: its entry is its base object's, moved
    by the shift."""
    if xb.shift:
        raise ValueError("%s is not a base object" % (xb,))
    an = point.analysis(window)
    st = an.state
    s = st.plan.index(xb, st.dm)
    if s is not None:
        return an.entry(s)
    e = an.table.get(xb)
    if e is None:
        e = an.table[xb] = _undecided(st, charge_of(point, xb), _degrees(st, xb))
    return e


def _undecided(st: _State, z: Gaussian, degrees) -> Tuple[str, Optional[Phase]]:
    """The ``lookup`` entry of an object the rules left undecided, of
    charge z and with the hom degrees ``degrees`` to each slot: the phase
    of its charge direction in its hom bracket, or None."""
    bracket = None if z.is_zero() else _bracket(st, degrees)
    ph = None if bracket is None else phase_in_closed_window(z, *bracket)
    return _DEAD["unknown"] if ph is None else ("unknown", ph)


# ---------------------------------------------------------------------------
# symmetries


def rescale(point: StabilityPoint, lam) -> StabilityPoint:
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("scale must be positive")
    return StabilityPoint(
        point.family,
        point.m,
        point.shift,
        tuple(z.scale(lam) for z in point.charges),
        point.global_shift,
        point.extra_offsets,
    )


def shift(point: StabilityPoint, n: int) -> StabilityPoint:
    return StabilityPoint(
        point.family,
        point.m,
        point.shift,
        point.charges,
        point.global_shift + n,
        point.extra_offsets,
    )


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
    return StabilityPoint(
        point.family,
        point.m,
        point.shift,
        tuple(charges),
        point.global_shift,
        tuple(extras),
    )
