"""Reference data for the hom oracle and the K-group identities.

The tables below were tabulated independently of the implementation (the
degrees and dimensions follow from the known classification of the
indecomposables of the quiver) and serve as a frozen cross-check of
``catalog.hom_dims`` and ``catalog.kclass``.
"""

import enum
from functools import lru_cache

from stabq.catalog import ExcObject, family_dim, hom_dims
from stabq.quiver import DELTA, Vec3

M = ExcObject("M", 0, 0)
Mp = ExcObject("Mp", 0, 0)


def a(m, s=0):
    return ExcObject("a", m, s)


def b(m, s=0):
    return ExcObject("b", m, s)


def check_hom_table(lo: int = -10, hi: int = 10) -> int:
    """Assert the seven reference nonvanishing groups on the index range;
    returns the number of pairs checked."""
    checked = 0

    def expect(x, y, degree):
        nonlocal checked
        checked += 1
        h = hom_dims(x, y)
        assert h is not None and h[0] == degree, (str(x), str(y), h, degree)

    def expect_zero(x, y):
        nonlocal checked
        checked += 1
        assert hom_dims(x, y) is None, (str(x), str(y))

    for m in range(lo, hi + 1):
        # group 1: hom(M', a^m), hom(M, b^m) in degree 0; hom*(a^m, M') = 0
        expect(Mp, a(m), 0)
        expect(M, b(m), 0)
        expect_zero(a(m), Mp)
        # group 2: hom^1(a^m, M), hom^1(b^m, M'); hom*(b^m, M) = 0
        expect(a(m), M, 1)
        expect(b(m), Mp, 1)
        expect_zero(b(m), M)
        # group 3 / 4 boundary vanishings
        expect_zero(b(m + 1), a(m))
        expect_zero(a(m), b(m))
        # group 5 / 6 boundary vanishings
        expect_zero(a(m), a(m - 1))
        expect_zero(b(m), b(m - 1))
        for n in range(lo, hi + 1):
            # group 3: b-to-a chain homs
            if m > n:
                expect(b(m + 1), a(n), 1)
            else:
                expect(b(m), a(n), 0)
            # group 4: a-to-b chain homs
            if m > n:
                expect(a(m), b(n), 1)
            else:
                expect(a(m), b(n + 1), 0)
            # groups 5 and 6: the chains themselves
            if m <= n:
                expect(a(m), a(n), 0)
                expect(b(m), b(n), 0)
            elif m > n + 1:
                expect(a(m), a(n), 1)
                expect(b(m), b(n), 1)
    # group 7
    expect(M, Mp, 1)
    expect(Mp, M, 1)
    return checked


def check_kronecker_dims(lo: int = -10, hi: int = 10) -> int:
    """Hom dimension is exactly 2 on the chain-neighbor orbits and exactly 1
    on the rank-one mixed pairs."""
    checked = 0
    for m in range(lo, hi + 1):
        for kind in ("a", "b"):
            x, y = ExcObject(kind, m, 0), ExcObject(kind, m + 1, -1)
            h = hom_dims(x, y)
            assert h == (1, 2), (str(x), str(y), h)
            checked += 1
        for x, y in ((Mp, a(m, -1)), (M, b(m, -1))):
            h = hom_dims(x, y)
            assert h == (1, 1), (str(x), str(y), h)
            checked += 1
    return checked


def check_k_identities(max_m: int = 10) -> int:
    """The reference identities in the K-group, expressed on the dimension
    vectors of the four representation families and M, M'."""
    e1 = lambda m: family_dim("E1", m)
    e2 = lambda m: family_dim("E2", m)
    e3 = lambda m: family_dim("E3", m)
    e4 = lambda m: family_dim("E4", m)
    kM, kMp = Vec3(0, 1, 0), Vec3(1, 0, 1)
    checked = 0

    assert DELTA == e1(0) + e3(0) + kM
    assert DELTA == e1(0) + e2(0)
    assert DELTA == e3(0) + e4(0)
    assert DELTA == kM + kMp
    checked += 4
    for m in range(0, max_m + 1):
        assert e1(m) == DELTA.scale(m) + e1(0)
        assert e1(m) == DELTA.scale(m + 1) - e2(0)
        assert e2(m) == DELTA.scale(m) + e2(0)
        assert e2(m) == DELTA.scale(m + 1) - e1(0)
        assert e3(m) == DELTA.scale(m) + e3(0)
        assert e3(m) == DELTA.scale(m + 1) - e4(0)
        assert e4(m) == DELTA.scale(m) + e4(0)
        assert e4(m) == DELTA.scale(m + 1) - e3(0)
        assert e1(m) + kM == e4(m)
        assert e3(m) + kM == e2(m)
        assert e4(m) + kMp == e1(m + 1)
        assert e2(m) + kMp == e3(m + 1)
        checked += 12
    return checked


# ---------------------------------------------------------------------------
# rejection sampler for the angular sets


def sample_angular_members(set_id, count, seed=0, budget=20000):
    """Deterministic members of one of the angular sets Ugt / Ult / U2,
    found by rejection sampling of rational phase triples."""
    import random
    from fractions import Fraction

    from stabq.exact import ExactError, Gaussian, Phase, window_arg
    from stabq.polyhedra import appendix_member

    rng = random.Random(repr((set_id, seed)))

    def charge(upper=False):
        while True:
            re = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            im = Fraction(rng.randint(1 if upper else -8, 8), rng.randint(1, 8))
            z = Gaussian(re, im)
            if not z.is_zero() and (not upper or z.in_upper_branch()):
                return z

    def warg(z, low):
        try:
            return window_arg(z, low)
        except ExactError:
            return None

    out = []
    for _ in range(budget):
        if len(out) >= count:
            break
        p0 = Phase(0, charge(upper=True))
        w1, w2 = charge(), charge()
        if set_id in ("Ugt", "Ult"):
            p1 = warg(w1, p0)
            p2 = warg(w2, p0)
            if p1 is None or p2 is None:
                continue
            pt = (p0, p1, p2)
        elif set_id == "U2":
            p2 = warg(w2, p0.plus(-1))
            if p2 is None:
                continue
            p1 = warg(w1, p2)
            if p1 is None or not p1 < p0:
                continue
            pt = (p0, p1, p2)
        else:
            raise ValueError(set_id)
        if appendix_member(pt, set_id):
            out.append(pt)
    if len(out) < count:
        raise RuntimeError("sampling budget exhausted for %s" % set_id)
    return out


# ---------------------------------------------------------------------------
# the two-call lookup path of the region predicates


@lru_cache(maxsize=8)
def spelled_verdicts(point, window):
    """Every verdict of a fresh rule fixpoint on the point, spelled out by
    base object; memoised on equal points, which have equal verdicts."""
    from stabq import engine

    return engine._decide(point, window).verdicts()


def conditional_phase_uncached(point, xb, window):
    """engine.conditional_phase computed afresh from the spelled verdicts:
    the decided phase; None for an unstable object or a zero charge; else
    the phase of the charge direction in the hom bracket, or None."""
    from stabq import engine
    from stabq.exact import phase_in_closed_window

    v = spelled_verdicts(point, window).get(xb, engine.UNKNOWN)
    if v.status != "unknown":
        return v.phase
    z = engine.charge_of(point, xb)
    bracket = None if z.is_zero() else engine.phase_bracket(point, xb, window)
    return None if bracket is None else phase_in_closed_window(z, *bracket)


def two_call_phases(point, objs, window):
    """regions._phases as two engine calls per object, semistable and then
    the conditional phase of the base object, moved by the label's shift."""
    from stabq import engine

    out, certified = [], True
    for o in objs:
        v = engine.semistable(point, o, window)
        if v.status == "unstable":
            return None, True
        if v.status != "semistable":
            certified = False
        ph = conditional_phase_uncached(point, o.base(), window)
        if ph is None:
            return None, True
        out.append(ph.plus(o.shift))
    return out, certified


# ---------------------------------------------------------------------------
# the Cramer charge and the per-cell decider that the engine's simple
# charges and regions._run_cells replace


def charge_of(point, x):
    """engine.charge_of by Cramer's rule on the point's shifted anchor
    K-classes, solved afresh on every call: the signed integer cofactors
    |det| * lam_i of c = sum lam_i k_i, applied to the anchor charges with
    the sign of their phase offsets."""
    from stabq.catalog import ExcObject, kclass
    from stabq.exact import Gaussian
    from stabq.quiver import det3

    c = kclass(x) if isinstance(x, ExcObject) else Vec3(*x)
    k0, k1, k2 = point.anchor().kclasses()
    s = 1 if det3(k0, k1, k2) > 0 else -1
    lam = (s * det3(c, k1, k2), s * det3(k0, c, k2), s * det3(k0, k1, c))
    g = point.global_shift
    re = im = 0
    for li, e, z in zip(lam, point.extra_offsets, point.int_charges):
        if (g + e) % 2:
            li = -li
        re += li * z.re
        im += li * z.im
    return Gaussian(re, im)


def row_cell(point, fid, m, window):
    """One cell of the point's block at ``window``, as True, False or None
    (undecidable), read from the analysis's slot row one object at a time:
    the entries regions._phases would read, in its order and with its stop
    at the first object that cannot be semistable, then the cell's
    inequalities as Phase.plus and Phase.cmp."""
    from stabq.triples import family_triple

    if not -window <= m - point.m <= window:
        raise ValueError("cell index %d outside the block at window %d" % (m, window))
    an = point.analysis(window)
    plan = an.state.plan
    ph, certified = [], True
    for o in family_triple(fid, m).objs:
        status, p = an.entry(plan.index(o.base(), point.m))
        if p is None:
            return False
        certified = certified and status == "semistable"
        ph.append(p.plus(o.shift) if o.shift else p)
    if not all(_lt(ph[i], ph[j], c) for i, j, c in PATTERN_INEQS[fid]):
        return False
    return True if certified else None


# ---------------------------------------------------------------------------
# the hom degrees from hom_dims, per pair and per tail, that the table of
# catalog.hom_degrees replaces


def degree_pair(x, y):
    """The degrees (fwd, bwd) of the homs x -> y and y -> x, None where one
    vanishes, from two hom_dims calls."""
    return tuple(None if h is None else h[0] for h in (hom_dims(x, y), hom_dims(y, x)))


def tail_degrees(kind, j_edge, direction, ref):
    """regions._tail_degrees as five probes: the chain objects of the letter
    at offsets 0, 1, 2, 7 and 999 from j_edge in the direction, each degree
    kept where every probe agrees on it."""
    probes = [ExcObject(kind, j_edge + direction * k, 0) for k in (0, 1, 2, 7, 999)]

    def stable(homs):
        degs = {h[0] if h is not None else None for h in homs}
        return degs.pop() if len(degs) == 1 else None

    return (
        stable(hom_dims(x, ref) for x in probes),
        stable(hom_dims(ref, x) for x in probes),
    )


# ---------------------------------------------------------------------------
# the allocating phase comparisons that engine.hom_bracket and
# engine._unit_shifts replace


def hom_bracket(bounds):
    """engine.hom_bracket as it was: every bound built as a Phase with
    Phase.plus, then compared."""
    lo = up = None
    for ph, fwd, bwd in bounds:
        if fwd is not None:
            b = ph.plus(fwd)
            if up is None or b.cmp(up) < 0:
                up = b
        if bwd is not None:
            b = ph.plus(-bwd)
            if lo is None or b.cmp(lo) > 0:
                lo = b
        if lo is not None and up is not None and lo.cmp(up) > 0:
            return None
    return lo, up


def unit_shifts(d):
    """The integers k with |d + k| < 1 for a Phase d; the rule fixpoint
    read them as unit_shifts(phase_diff(p1, p0))."""
    if d.charge.im == 0:
        return (-d.offset - 1,)
    return (-d.offset - 1, -d.offset)


# ---------------------------------------------------------------------------
# the rule fixpoint as it was before the readiness index: every round
# rescans every pending standard triple, and every rule comparison builds
# its shifted phases


def _pin_in_window_short(st, ref, z, lo, hi, short, rule):
    """engine._pin_in_window with the window's length passed in: ``short``
    says whether hi < lo + 1, and the decided phase is built and its
    direction tested on every re-pin."""
    from stabq import engine
    from stabq.exact import phase_in_closed_window

    ph = st.phase[ref[0]]
    if ph is not None and short:
        ph = ph.plus(ref[1]) if ref[1] else ph
        d = ph.direction()
        if (lo.cmp(ph) <= 0 and ph.cmp(hi) <= 0
                and d.cross(z) == 0 and d.dot(z) > 0):
            return
    if z.is_zero():
        raise engine.EngineError(
            "paper-rule inconsistency: zero charge on %s" % st.name(*ref)
        )
    ph = phase_in_closed_window(z, lo, hi)
    if ph is None:
        raise engine.EngineError(
            "paper-rule inconsistency: phase of %s escapes [%r, %r]"
            % (st.name(*ref), lo, hi)
        )
    st.set_ss(ref, ph, rule)


def _sigma_triple_rules_allocating(st, row, phis, charge):
    """engine._sigma_triple_rules on shifted phases built as Phase objects,
    with every pinned object's charge computed before the pin."""
    from stabq import engine
    from stabq.exact import ExactError, window_arg

    p0, p1, p2 = phis
    B = row.B
    for i, content, rule in row.closures:
        hi, lo = phis[i], phis[i + 1]
        if hi.cmp(lo) < 0:
            continue
        short = hi.cmp(lo.plus(1)) < 0
        for c in content:
            _pin_in_window_short(st, c, charge(c), lo, hi, short, rule)
    if row.outer is None:
        return
    target, rule = row.outer
    if rule[0] == "two-factor":
        s1 = p2.cmp(p0) < 0 and p2.cmp(p1) < 0
        s2 = p1.cmp(p0) < 0 and p2.cmp(p0) < 0
        if not (s1 or s2):
            return
        try:
            py = window_arg(charge(B[0]) + charge(B[2]), p0.plus(-1))
        except ExactError:
            raise engine.EngineError(
                "paper-rule inconsistency: boundary phase for the "
                "extension of %s" % st.label(("", rule[1], ""))
            )
        st.set_ss(target, py, rule)
        return
    anchor_low = None
    if p1.cmp(p0) < 0 and p2.cmp(p0) < 0:
        try:
            wa = window_arg(charge(B[0]) + charge(B[1]), p0.plus(-1))
        except ExactError:
            wa = None
        if wa is not None and wa.cmp(p2) > 0:
            anchor_low = p0.plus(-1)
    if anchor_low is None and p2.cmp(p1) < 0 and p1.cmp(p0) <= 0:
        anchor_low = p2
    if anchor_low is None:
        return
    try:
        py = window_arg(charge(B[0]) + charge(B[1]) + charge(B[2]), anchor_low)
    except ExactError:
        raise engine.EngineError(
            "paper-rule inconsistency: boundary phase for the "
            "three-factor extension of %s" % st.label(("", rule[1], ""))
        )
    if py.cmp(p0) >= 0:
        raise engine.EngineError(
            "paper-rule inconsistency: three-factor extension of %s "
            "above its bound" % st.label(("", rule[1], ""))
        )
    st.set_ss(target, py, rule)


def decide_by_rescan(point, window):
    """engine._decide as a rescan: each round snapshots the decided phases
    and scans every pending standard triple, in plan order, keeping those
    with a phase still missing for the next round."""
    from stabq import engine
    from stabq.triples import family_triple

    plan = engine._plan(window)
    st = engine._State(plan, point.m)

    def charge(ref):
        z = st.z[ref[0]]
        if z is None:
            z = st.z[ref[0]] = engine.charge_of(point, st.name(ref[0]))
        return -z if ref[1] % 2 else z

    anchor = family_triple(point.family, 0).shifted(point.shift)
    for obj, ph in zip(anchor.objs, point.anchor_phases):
        st.set_ss(plan.ref(obj), ph, "anchor")

    pending = plan.triples
    for _ in range(2 * len(plan.universe) + 2):
        st.changed = False
        known = st.phase[:]
        for s in st.order[:]:
            px, gap = known[s], plan.gaps[s]
            if px is None or gap is None:
                continue
            py = known[gap[0]]
            if py is None or py.cmp(px.plus(1)) <= 0:
                continue
            for o in gap[1]:
                st.set_unstable(o, plan.universe[s], "big-gap")
        waiting = []
        for entry in pending:
            t, (i0, i1, i2), rows = entry
            p0, p1, p2 = known[i0], known[i1], known[i2]
            if p0 is None or p1 is None or p2 is None:
                waiting.append(entry)
                continue
            u12 = engine._unit_shifts(p2, p1)
            for s1 in engine._unit_shifts(p1, p0):
                for s2 in engine._unit_shifts(p2, p0):
                    if s2 - s1 not in u12:
                        continue
                    row = plan.row(t, rows, s1, s2)
                    if row is not None:
                        _sigma_triple_rules_allocating(
                            st, row, (p0, p1.plus(s1), p2.plus(s2)), charge
                        )
        pending = waiting
        if not st.changed:
            break
    else:
        raise engine.EngineError("rule fixpoint did not converge")
    return st


# ---------------------------------------------------------------------------
# King's criterion compared with normarg_cmp, which validates both charges
# on every comparison


def normarg_cmp(z1, z2):
    """Compare arguments normalized into (0, pi]: -1 / 0 / +1.  Both inputs
    must be nonzero and lie in the closed upper branch; the sign of the
    cross product decides."""
    from stabq.exact import ExactError, sign

    for z in (z1, z2):
        if z.is_zero():
            raise ExactError("zero charge")
        if not z.in_upper_branch():
            raise ExactError("charge outside the upper branch: %r" % (z,))
    return -sign(z1.cross(z2))


def heart_charge(charges, d):
    """d_L z_L + d_R z_R + d_T z_T; stays in the upper branch for d >= 0."""
    from stabq.exact import Gaussian

    zL, zR, zT = charges
    L, R, T = d
    return Gaussian(
        zL.re * L + zR.re * R + zT.re * T, zL.im * L + zR.im * R + zT.im * T
    )


def semistable_in_heart(rep, charges, subreps):
    """ff.semistable_in_heart with two normarg_cmp calls per
    subrepresentation, on Gaussian charges: (True, None), or (False, the
    first subrepresentation of largest argument among those above the
    whole)."""
    from stabq.exact import primitive_multiple

    zs = primitive_multiple(charges)
    z = heart_charge(zs, rep.dims)
    worst = worst_z = None
    for d in subreps:
        if d.is_zero() or d == rep.dims:
            continue
        zd = heart_charge(zs, d)
        if normarg_cmp(zd, z) > 0 and (
            worst is None or normarg_cmp(zd, worst_z) > 0
        ):
            worst, worst_z = d, zd
    if worst is None:
        return (True, None)
    return (False, worst)


# ---------------------------------------------------------------------------
# the hand-written region predicates and Theta bound that the clause rows
# of regions._evaluate and triples.theta_bounds replace


def _lt(p, q, n=0):
    """p < q + n."""
    return p.cmp(q.plus(n) if n else q) < 0


def _certify(ok, certified):
    from stabq import regions

    if not ok:
        return False
    if not certified:
        raise regions.Undecidable("inequalities hold but semistability undecided")
    return True


def _min_bound(*vals):
    finite = [v for v in vals if v is not None]
    return min(finite) if finite else None


def in_theta_prime(point, t):
    from stabq import regions

    ph, cert = regions._phases(point, t.objs)
    if ph is None:
        return False
    ok = all(
        _lt(ph[i], ph[j], 1) and _lt(ph[j], ph[i], 1)
        for i in range(3)
        for j in range(i + 1, 3)
    )
    return _certify(ok, cert)


def in_theta(point, t):
    from stabq import regions
    from stabq.triples import alpha_beta_gamma

    ph, cert = regions._phases(point, t.objs)
    if ph is None:
        return False
    a, b, g = alpha_beta_gamma(t)
    ag = None if (a is None or g is None) else a + g
    bounds = ((0, 1, a), (0, 2, _min_bound(b, ag)), (1, 2, g))
    ok = all(
        bound is None or _lt(ph[i], ph[j], 1 + bound) for i, j, bound in bounds
    )
    return _certify(ok, cert)


PATTERN_INEQS = {
    "F1": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F2": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F3": ((0, 1, 0), (0, 2, 0), (1, 2, 1)),
    "F4": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F5": ((0, 1, 0), (0, 2, -1), (1, 2, 0)),
    "F6": ((0, 1, 0), (0, 2, 0), (1, 2, 1)),
    "F7": ((0, 1, 1), (0, 2, 0), (1, 2, 0)),
    "F8": ((0, 1, 1), (0, 2, 0), (1, 2, 0)),
}


def in_named_cell(point, fid, m, window):
    """A cell read object by object: regions._phases (engine.lookup on each
    label), then each inequality with Phase.plus and Phase.cmp."""
    from stabq import regions
    from stabq.triples import family_triple

    ph, cert = regions._phases(point, family_triple(fid, m).objs, window)
    if ph is None:
        return False
    ok = all(_lt(ph[i], ph[j], c) for i, j, c in PATTERN_INEQS[fid])
    return _certify(ok, cert)


def extreme_shift(t):
    from stabq.triples import alpha_beta_gamma

    a, b, g = alpha_beta_gamma(t)
    if a is None or (b is None and g is None):
        raise ValueError("shift set unbounded for %s" % (t,))
    if b is None:
        top = a + g
    elif g is None:
        top = b
    else:
        top = min(b, a + g)
    return (0, a, top)


# ---------------------------------------------------------------------------
# window representatives by the offset loops: each of six candidate offsets
# is tried as a validated Phase, and the half-plane test reads side_of


class Side(enum.Enum):
    PLUS = 1
    ON_LINE = 0
    MINUS = -1


def side_of(z, v):
    """Side of z relative to the line R*v: PLUS iff z in v*(R + i*R_{>0})."""
    from stabq.exact import ExactError, sign

    if v.is_zero():
        raise ExactError("zero direction")
    s = sign(v.cross(z))
    if s > 0:
        return Side.PLUS
    if s < 0:
        return Side.MINUS
    return Side.ON_LINE


def window_arg(z, anchor):
    """exact.window_arg by a loop over the offsets around the anchor's."""
    from stabq.exact import ExactError, Phase

    if z.is_zero():
        raise ExactError("zero charge")
    d = anchor.direction()
    s = side_of(z, d)
    if s is not Side.PLUS:
        if s is Side.ON_LINE:
            raise ExactError("boundary argument")
        raise ExactError("charge outside the window half-plane")
    if z.in_upper_branch():
        zb, parity = z, 0
    else:
        zb, parity = -z, 1
    hi = anchor.plus(1)
    for o in range(anchor.offset - 2, anchor.offset + 4):
        if o % 2 != parity % 2:
            continue
        cand = Phase(o, zb)
        if anchor < cand < hi:
            return cand
    raise ExactError("no window representative")


def phase_in_closed_window(z, low, high):
    """exact.phase_in_closed_window by a loop over the offsets around
    low's, with the window's length read from phase_diff."""
    from stabq.exact import ExactError, Phase, int_phase, phase_diff

    if z.is_zero():
        raise ExactError("zero charge")
    if phase_diff(high, low) >= int_phase(1):
        raise ExactError("window too long")
    if z.in_upper_branch():
        zb, parity = z, 0
    else:
        zb, parity = -z, 1
    for o in range(low.offset - 2, low.offset + 4):
        if o % 2 != parity % 2:
            continue
        cand = Phase(o, zb)
        if low <= cand <= high:
            return cand
    return None
