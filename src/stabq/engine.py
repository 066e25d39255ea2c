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
are what it stores, serializes, compares and transforms.  Each point also
stores, when it is built, the Cramer solver of its shifted anchor's
K-classes, which ``charge_of`` applies to every K-class it is asked about.

Each point owns its analyses, one per window (``StabilityPoint.analysis``):
the rule fixpoint's verdicts, the memoised conditional phases, and the tail
enclosures ``regions`` derives from them.  An analysis is built on the first
lookup at its window and lives exactly as long as its point; nothing is
cached process-wide on points, so equal but distinct point objects each
compute their own (identical) results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .catalog import ExcObject, hom_dims, kclass
from .exact import (
    ExactError,
    Gaussian,
    Phase,
    Side,
    int_phase,
    phase_add,
    phase_diff,
    phase_in_closed_window,
    primitive_multiple,
    side_of,
    window_arg,
)
from .quiver import DELTA, Vec3
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
    # Cramer's rule on the anchor's K-classes (see _basis_solver), built
    # once per point; derived like int_charges
    anchor_solver: Callable[[Vec3], Tuple[int, int, int]] = field(
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
            if z.is_zero() or not z.in_upper_branch():
                raise ValueError("charges must be nonzero upper-branch values")
        object.__setattr__(self, "int_charges", primitive_multiple(self.charges))
        object.__setattr__(
            self, "anchor_solver",
            _basis_solver(*base.shifted(self.shift).kclasses()),
        )
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

    def anchor_phases(self) -> Tuple[Phase, Phase, Phase]:
        """The anchor phases, carrying the integer-normalised charges."""
        return tuple(
            Phase(self.global_shift + e, z)
            for e, z in zip(self.extra_offsets, self.int_charges)
        )

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
            int(a["m"]),
            tuple(int(x) for x in a["shift"]),
            tuple(Gaussian.from_json(z) for z in d["charges"]),
            int(d.get("global_shift", 0)),
            tuple(int(x) for x in d.get("extra_offsets", (0, 0, 0))),
        )


def standard_heart_point(charges, global_shift: int = 0) -> StabilityPoint:
    """The anchor whose extension closure is the category of representations:
    simples (1,0,0), (0,1,0), (0,0,1)."""
    return StabilityPoint("F8", 0, (0, 0, -1), tuple(charges), global_shift)


# ---------------------------------------------------------------------------
# central charge on all of K


def _det3(u: Vec3, v: Vec3, w: Vec3) -> int:
    """The determinant with columns u, v, w."""
    return (
        u.L * (v.R * w.T - v.T * w.R)
        - v.L * (u.R * w.T - u.T * w.R)
        + w.L * (u.R * v.T - u.T * v.R)
    )


def _basis_solver(k0: Vec3, k1: Vec3, k2: Vec3):
    """Cramer's rule for c = sum lam_i k_i, scaled by |det|: the solver
    returns the signed integer cofactors sign(det) * d_i = |det| * lam_i."""
    det = _det3(k0, k1, k2)
    if det == 0:  # pragma: no cover - excluded by the anchor invariant
        raise EngineError("anchor K-classes degenerate")
    s = 1 if det > 0 else -1

    def solve(c: Vec3):
        return (s * _det3(c, k1, k2), s * _det3(k0, c, k2), s * _det3(k0, k1, c))

    return solve


def charge_of(point: StabilityPoint, x) -> Gaussian:
    """Z extended linearly, times a positive factor fixed per point: x may be
    an ExcObject or a K-class triple.

    The result is an integer Gaussian: Z(x) scaled by |det| of the anchor
    K-classes and by the point's integer normalisation of its charges.  It
    has the direction of Z(x), and sums and differences of charges of one
    point have the directions of the true sums and differences, which is
    all that phases use.

    The stored charges are upper-branch representatives; the direction of the
    anchor phase ``Phase(g + e_i, z_i)`` is ``(-1) ** (g + e_i) * z_i``, so
    the true charge of anchor ``i`` carries that sign.
    """
    c = kclass(x) if isinstance(x, ExcObject) else Vec3(*x)
    lam = point.anchor_solver(c)
    g = point.global_shift
    re = im = 0
    for li, e, z in zip(lam, point.extra_offsets, point.int_charges):
        if (g + e) % 2:
            li = -li
        re += li * z.re
        im += li * z.im
    return Gaussian(re, im)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    status: str  # "semistable" | "unstable" | "unknown"
    phase: Optional[Phase] = None  # phase of the *base* object when semistable
    witness: Optional[str] = None
    rules: Tuple[str, ...] = ()


UNKNOWN = Verdict("unknown")


def _universe(point: StabilityPoint, window: int) -> List[ExcObject]:
    objs = [ExcObject("M", 0, 0), ExcObject("Mp", 0, 0)]
    for kind in ("a", "b"):
        for i in range(point.m - window, point.m + window + 2):
            objs.append(ExcObject(kind, i, 0))
    return objs


class _State:
    def __init__(self):
        self.v: Dict[ExcObject, Verdict] = {}
        self.changed = False

    def set_ss(self, obj: ExcObject, phase: Phase, rule: str):
        base = obj.base()
        if obj.shift:
            phase = phase.plus(-obj.shift)
        cur = self.v.get(base)
        if cur is None:
            self.v[base] = Verdict("semistable", phase, None, (rule,))
            self.changed = True
            return
        if cur.status == "unstable":
            raise EngineError(
                "paper-rule inconsistency: %s semistable by %s, unstable by %s"
                % (base, rule, cur.rules)
            )
        if not cur.phase.same_as(phase):
            raise EngineError(
                "paper-rule inconsistency: %s has phases %r (%s) and %r (%s)"
                % (base, cur.phase, cur.rules, phase, rule)
            )

    def set_unstable(self, obj: ExcObject, witness: str, rule: str):
        base = obj.base()
        cur = self.v.get(base)
        if cur is None:
            self.v[base] = Verdict("unstable", None, witness, (rule,))
            self.changed = True
        elif cur.status == "semistable":
            raise EngineError(
                "paper-rule inconsistency: %s unstable by %s, semistable by %s"
                % (base, rule, cur.rules)
            )


_PHASE_P1 = int_phase(1)
_PHASE_M1 = int_phase(-1)


def _unit_window_shifts(p_ref: Phase, p: Phase) -> List[int]:
    """Integers k with |(p + k) - p_ref| < 1 (at most two of them)."""
    base = p_ref.offset - p.offset
    out = []
    for k in range(base - 2, base + 3):
        d = phase_diff(p.plus(k), p_ref)
        if d.cmp(_PHASE_M1) > 0 and d.cmp(_PHASE_P1) < 0:
            out.append(k)
    return out


def _pin_in_window(point: StabilityPoint, st: "_State", obj: ExcObject,
                   lo: Phase, hi: Phase, rule: str):
    z = charge_of(point, obj)
    if z.is_zero():
        raise EngineError("paper-rule inconsistency: zero charge on %s" % obj)
    ph = phase_in_closed_window(z, lo, hi)
    if ph is None:
        raise EngineError(
            "paper-rule inconsistency: phase of %s escapes [%r, %r]"
            % (obj, lo, hi)
        )
    st.set_ss(obj, ph, rule)


def _sigma_triple_rules(point: StabilityPoint, st: "_State", scope,
                        window: int, B, phis):
    """All consequences of one sigma-exceptional triple (all three objects
    semistable, pairwise phase gaps strictly below one):

    * each descending consecutive pair with a hom in degree one spans a
      finite-length subcategory whose exceptional objects are semistable;
    * the extension of the outer pair pins the unique middle object;
    * when the outer hom vanishes in degree one, the filtration through the
      middle object pins the three-factor extension instead.
    """
    p0, p1, p2 = phis
    name = "(%s,%s,%s)" % B

    # consecutive-pair closures
    for i in (0, 1):
        h = hom_dims(B[i], B[i + 1])
        if h is None or h[0] != 1:
            continue
        if phis[i].cmp(phis[i + 1]) < 0:
            continue
        pair = ext_pair(B[i], B[i + 1])
        if pair is None:  # pragma: no cover - excluded by exceptionality
            continue
        content = closure_content(pair, window)
        if content is None:
            continue
        for c in content:
            if c.base() not in scope:
                continue
            _pin_in_window(
                point, st, c, phis[i + 1], phis[i], "closure%s[%d]" % (name, i)
            )

    # the outer pair
    h02 = hom_dims(B[0], B[2])
    if h02 is not None and h02[0] == 1 and h02[1] == 1:
        s1 = p2.cmp(p0) < 0 and p2.cmp(p1) < 0
        s2 = p1.cmp(p0) < 0 and p2.cmp(p0) < 0
        if s1 or s2:
            pair = ext_pair(B[0], B[2])
            content = None if pair is None else closure_content(pair, window)
            if content is not None:
                mid = content[2]
                if mid.base() in scope:
                    zy = charge_of(point, B[0]) + charge_of(point, B[2])
                    try:
                        py = window_arg(zy, p0.plus(-1))
                    except ExactError:
                        raise EngineError(
                            "paper-rule inconsistency: boundary phase for the "
                            "extension of %s" % name
                        )
                    st.set_ss(mid, py, "two-factor%s" % name)
    elif h02 is None or h02[0] != 1:
        # outer hom vanishes in degree one: three-factor filtration.  The
        # filtration object must be certified as an iterated extension, so we
        # require both extension steps to be unique (one-dimensional arrows).
        p12 = ext_pair(B[1], B[2])
        if p12 is None or p12.dim != 1 or p12.degree != 1:
            return
        c12 = closure_content(p12, window)
        if c12 is None:
            return
        x_obj = c12[2]
        p0x = ext_pair(B[0], x_obj)
        if p0x is None or p0x.dim != 1 or p0x.degree != 1:
            return
        c0x = closure_content(p0x, window)
        if c0x is None:
            return
        y_obj = c0x[2]
        if y_obj.base() not in scope:
            return
        cls = kclass(B[0]) + kclass(B[1]) + kclass(B[2])
        if kclass(y_obj) != cls:  # pragma: no cover - pattern sanity check
            raise EngineError(
                "paper-rule inconsistency: filtration class mismatch for %s"
                % name
            )
        z0, z1, z2 = (charge_of(point, b) for b in B)
        anchor_low = None
        if p1.cmp(p0) < 0 and p2.cmp(p0) < 0:
            try:
                wa = window_arg(z0 + z1, p0.plus(-1))
            except ExactError:
                wa = None
            if wa is not None and wa.cmp(p2) > 0:
                anchor_low = p0.plus(-1)
        if anchor_low is None and p2.cmp(p1) < 0 and p1.cmp(p0) <= 0:
            anchor_low = p2
        if anchor_low is None:
            return
        try:
            py = window_arg(z0 + z1 + z2, anchor_low)
        except ExactError:
            raise EngineError(
                "paper-rule inconsistency: boundary phase for the "
                "three-factor extension of %s" % name
            )
        if py.cmp(p0) >= 0:
            raise EngineError(
                "paper-rule inconsistency: three-factor extension of %s "
                "above its bound" % name
            )
        st.set_ss(y_obj, py, "three-factor%s" % name)


def _decide(point: StabilityPoint, window: int) -> Dict[ExcObject, Verdict]:
    st = _State()
    # the phases of one point recur across triples; memoised for this run
    shifts: Dict[Tuple[Phase, Phase], List[int]] = {}

    def unit_shifts(p_ref: Phase, p: Phase) -> List[int]:
        out = shifts.get((p_ref, p))
        if out is None:
            out = shifts[p_ref, p] = _unit_window_shifts(p_ref, p)
        return out

    anchor = point.anchor()
    scope = {o.base() for o in _universe(point, window)}
    for obj, ph in zip(anchor.objs, point.anchor_phases()):
        st.set_ss(obj, ph, "anchor")

    done = set()
    # every iteration before the fixpoint makes at least one verdict
    # transition, and each object makes at most two
    for _ in range(2 * len(scope) + 2):
        st.changed = False
        known = {o: v.phase for o, v in st.v.items() if v.status == "semistable"}

        # chain neighbors more than one phase apart kill the rest of the chain
        for (x, px) in list(known.items()):
            if x.kind not in ("a", "b"):
                continue
            py = known.get(ExcObject(x.kind, x.m + 1, 0))
            if py is None:
                continue
            if phase_diff(py, px).cmp(_PHASE_P1) > 0:
                for o in _universe(point, window):
                    if o.kind == x.kind and o.m not in (x.m, x.m + 1):
                        st.set_unstable(
                            o, "phase gap %s..x[%d]" % (x, x.m + 1), "big-gap"
                        )

        # sigma-exceptional shifts of the standard triples
        for fid in FAMILY_IDS:
            for m in range(point.m - window, point.m + window + 1):
                if (fid, m) in done:
                    continue
                t = family_triple(fid, m)
                ph = []
                for o in t.objs:
                    pb = known.get(o.base())
                    if pb is None:
                        break
                    ph.append(pb.plus(o.shift))
                if len(ph) != 3:
                    continue
                for s1 in unit_shifts(ph[0], ph[1]):
                    for s2 in unit_shifts(ph[0], ph[2]):
                        if not in_shift_set(t, (0, s1, s2)):
                            continue
                        f1, f2 = ph[1].plus(s1), ph[2].plus(s2)
                        d12 = phase_diff(f2, f1)
                        if not (
                            d12.cmp(_PHASE_M1) > 0 and d12.cmp(_PHASE_P1) < 0
                        ):
                            continue
                        B = (t[0], t[1].shifted(s1), t[2].shifted(s2))
                        _sigma_triple_rules(
                            point, st, scope, window, B, (ph[0], f1, f2)
                        )
                # decided phases are immutable, so the scan is exhaustive
                done.add((fid, m))
        if not st.changed:
            break
    else:  # pragma: no cover
        raise EngineError("rule fixpoint did not converge")
    return st.v


class Analysis:
    """What the engine derives for one point at one window.

    ``verdicts`` is the rule fixpoint, by base object.  ``phases`` memoises
    ``conditional_phase`` by base object: a phase, None, or, for an offset
    left unresolved, the number of candidates (an int), so that no
    exception object and its traceback are kept.  ``tails`` holds the tail
    enclosures of ``regions``, by side (True for the high tail).  An
    analysis keeps no reference to its point."""

    def __init__(self, point: StabilityPoint, window: int):
        self.verdicts: Dict[ExcObject, Verdict] = _decide(point, window)
        self.phases: Dict[ExcObject, object] = {}
        self.tails: Dict[bool, dict] = {}


def semistable(point: StabilityPoint, x: ExcObject, window: int = DEFAULT_WINDOW) -> Verdict:
    """The verdict on x from the point's analysis at ``window``.  Results
    belong to the point object: equal but distinct points compute their
    own."""
    v = point.analysis(window).verdicts.get(x.base(), UNKNOWN)
    if v.status == "semistable" and x.shift:
        return Verdict(v.status, v.phase.plus(x.shift), v.witness, v.rules)
    return v


def phase_of(point: StabilityPoint, x: ExcObject, window: int = DEFAULT_WINDOW) -> Phase:
    v = semistable(point, x, window)
    if v.status != "semistable":
        raise UndecidedError("%s is not decided semistable" % (x,))
    return v.phase


def _offset_candidates(point: StabilityPoint, xb: ExcObject,
                       verdicts: Dict[ExcObject, Verdict]) -> List[Phase]:
    """Phases the base object could have if semistable: the hom constraints
    against every decided-semistable object with a pinned phase (a nonzero
    hom in degree d from U to V forces phi(U) <= phi(V) + d) usually leave a
    single integer offset for the argument of its charge."""
    z = charge_of(point, xb)
    if z.is_zero():
        raise ExactError("zero charge on %s" % (xb,))
    if z.in_upper_branch():
        zb, parity = z, 0
    else:
        zb, parity = -z, 1
    g = point.global_shift
    known = [
        (o, v.phase)
        for o, v in verdicts.items()
        if v.status == "semistable" and o != xb
    ]
    hits = []
    for o in range(g - 3, g + 5):
        if (o - parity) % 2:
            continue
        cand = Phase(o, zb)
        ok = True
        for (ob, pb) in known:
            h = hom_dims(xb, ob)
            if h is not None and cand.cmp(pb.plus(h[0])) > 0:
                ok = False
                break
            h = hom_dims(ob, xb)
            if h is not None and pb.cmp(cand.plus(h[0])) > 0:
                ok = False
                break
        if ok:
            hits.append(cand)
    return hits


_MISSING = object()


def conditional_phase(point: StabilityPoint, xb: ExcObject,
                      window: int = DEFAULT_WINDOW) -> Optional[Phase]:
    """The phase the base object has -- or would have, were it semistable.

    Returns the decided phase for a semistable object, None when the object
    cannot be semistable (decided unstable, or no offset is consistent with
    the hom constraints), and raises ExactError, on every call, when several
    offsets remain.  Memoised in the point's analysis at ``window``."""
    an = point.analysis(window)
    ph = an.phases.get(xb, _MISSING)
    if ph is _MISSING:
        ph = an.phases[xb] = _conditional_phase(point, xb, an.verdicts)
    if isinstance(ph, int):
        raise ExactError("offset unresolved for %s (%d candidates)" % (xb, ph))
    return ph


def _conditional_phase(point: StabilityPoint, xb: ExcObject,
                       verdicts: Dict[ExcObject, Verdict]):
    """conditional_phase's outcome, with the candidate count standing for
    an unresolved offset."""
    v = verdicts.get(xb, UNKNOWN)
    if v.status == "unstable":
        return None
    if v.status == "semistable":
        return v.phase
    hits = _offset_candidates(point, xb, verdicts)
    if not hits:
        return None
    if len(hits) > 1:
        return len(hits)
    return hits[0]


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


# ---------------------------------------------------------------------------
# collinearity scan


def collinearity_scan(point: StabilityPoint, kind: str, half: int = 5) -> dict:
    """Check the charge chain Z(x^{-N}) .. Z(x^N) together with Z(delta) for
    collinear pairs, and when there are none verify the monotone window-
    argument chain on the plus side of Z(delta)."""
    if kind not in ("a", "b"):
        raise ValueError("kind must be 'a' or 'b'")
    zd = charge_of(point, DELTA)
    if zd.is_zero():
        return {"degenerate": True, "collinear_pairs": "all (Z(delta) = 0)"}
    js = list(range(point.m - half, point.m + half + 1))
    zs = {j: charge_of(point, ExcObject(kind, j, 0)) for j in js}
    coll = []
    items = [("delta", zd)] + [(j, zs[j]) for j in js]
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i][1].cross(items[j][1]) == 0:
                coll.append((items[i][0], items[j][0]))
    report = {"degenerate": False, "collinear_pairs": coll}
    if coll:
        return report
    plus = all(side_of(zs[j], zd) is Side.PLUS for j in js)
    report["all_plus_side"] = plus
    if plus:
        t = Phase(0, zd) if zd.in_upper_branch() else Phase(1, -zd)
        args = [window_arg(zs[j], t) for j in js]
        report["monotone"] = all(a.cmp(b) < 0 for a, b in zip(args, args[1:]))
    return report
