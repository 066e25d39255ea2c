"""Brute-force ground truth over a small finite field.

A representation assigns a vector space to each of the three vertices and a
matrix to each arrow.  Subobjects are subspace triples closed under the three
maps; enumerating them decides semistability exactly for any central charge
whose three simple values lie in the closed upper branch, and a greedy
maximal-destabilizer loop produces the filtration with strictly decreasing
factor phases.  A variant does the same inside the module category of the
two-arrow Kronecker quiver.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from .exact import Gaussian, normarg_cmp
from .gf import GF, Matrix, mat_vec, rref, zeros
from .quiver import Vec3, euler_form


class SizeLimit(ValueError):
    pass


class FiniteRep:
    """Quiver representation over a small finite field."""

    def __init__(self, F: GF, dims: Vec3, lr: Matrix, lt: Matrix, rt: Matrix):
        self.F = F
        self.dims = dims
        self.lr = lr  # L -> R, shape (d_R, d_L)
        self.lt = lt  # L -> T, shape (d_T, d_L)
        self.rt = rt  # R -> T, shape (d_T, d_R)
        dL, dR, dT = dims
        assert _shape_ok(lr, dR, dL), (dims, _shape(lr))
        assert _shape_ok(lt, dT, dL)
        assert _shape_ok(rt, dT, dR)

    def hom_dim(self, other: "FiniteRep") -> int:
        """dim Hom(self, other): solution space of the commuting-square
        constraints, one unknown per matrix entry of (f_L, f_R, f_T)."""
        F = self.F
        dL, dR, dT = self.dims
        eL, eR, eT = other.dims
        nL, nR, nT = eL * dL, eR * dR, eT * dT
        n = nL + nR + nT

        def idxL(i, j):
            return i * dL + j

        def idxR(i, j):
            return nL + i * dR + j

        def idxT(i, j):
            return nL + nR + i * dT + j

        rows: List[List[int]] = []

        def add_eq(pos_terms, neg_terms):
            row = [0] * n
            for (k, c) in pos_terms:
                row[k] = F.add(row[k], c)
            for (k, c) in neg_terms:
                row[k] = F.add(row[k], F.neg(c))
            rows.append(row)

        # f_R . lr = lr' . f_L
        for i in range(eR):
            for j in range(dL):
                pos = [(idxR(i, k), self.lr[k][j]) for k in range(dR)]
                neg = [(idxL(l, j), other.lr[i][l]) for l in range(eL)]
                add_eq(pos, neg)
        # f_T . lt = lt' . f_L
        for i in range(eT):
            for j in range(dL):
                pos = [(idxT(i, k), self.lt[k][j]) for k in range(dT)]
                neg = [(idxL(l, j), other.lt[i][l]) for l in range(eL)]
                add_eq(pos, neg)
        # f_T . rt = rt' . f_R
        for i in range(eT):
            for j in range(dR):
                pos = [(idxT(i, k), self.rt[k][j]) for k in range(dT)]
                neg = [(idxR(l, j), other.rt[i][l]) for l in range(eR)]
                add_eq(pos, neg)

        if n == 0:
            return 0
        if not rows:
            return n
        rk = sum(1 for r in rref(F, rows) if any(r))
        return n - rk

    def ext1_dim(self, other: "FiniteRep") -> int:
        return self.hom_dim(other) - euler_form(self.dims, other.dims)

    def is_exceptional(self) -> bool:
        return self.hom_dim(self) == 1 and self.ext1_dim(self) == 0


def _shape(m: Matrix) -> Tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def _shape_ok(m: Matrix, rows: int, cols: int) -> bool:
    # a zero-row matrix carries no column information
    return len(m) == rows and all(len(r) == cols for r in m)


# ---------------------------------------------------------------------------
# subspace enumeration


def _span_set(F: GF, basis: List[Tuple[int, ...]], dim: int) -> frozenset:
    if not basis:
        return frozenset({(0,) * dim})
    out = set()
    for coeffs in product(F.elements(), repeat=len(basis)):
        v = [0] * dim
        for c, b in zip(coeffs, basis):
            if c == 0:
                continue
            for i in range(dim):
                v[i] = F.add(v[i], F.mul(c, b[i]))
        out.add(tuple(v))
    return frozenset(out)


def all_subspaces_with_sets(F: GF, dim: int):
    """[(basis_rows, vector_set)] for every subspace of F^dim."""
    zero = (0,) * dim
    vectors = [v for v in product(F.elements(), repeat=dim) if v != zero]
    seen = {frozenset({zero}): []}
    frontier = [[]]
    while frontier:
        nxt = []
        for basis in frontier:
            cur = _span_set(F, basis, dim)
            for v in vectors:
                if v in cur:
                    continue
                nb = basis + [v]
                ns = _span_set(F, nb, dim)
                if ns not in seen:
                    seen[ns] = nb
                    nxt.append(nb)
        frontier = nxt
    return [(b, s) for s, b in seen.items()]


MAX_TOTAL_DIM = 12


def all_subreps(rep: FiniteRep):
    """Every subrepresentation, as a dict keyed by dimension vector; the
    value is one witness (bases of the three subspaces).  Includes the zero
    and the full subrepresentation."""
    dL, dR, dT = rep.dims
    if dL + dR + dT > MAX_TOTAL_DIM:
        raise SizeLimit("total dimension %d too large" % (dL + dR + dT))
    F = rep.F
    subL = all_subspaces_with_sets(F, dL)
    subR = all_subspaces_with_sets(F, dR)
    subT = all_subspaces_with_sets(F, dT)
    out: Dict[Vec3, tuple] = {}
    for bL, sL in subL:
        imgR = [tuple(mat_vec(F, rep.lr, v)) for v in bL]
        imgTL = [tuple(mat_vec(F, rep.lt, v)) for v in bL]
        for bR, sR in subR:
            if any(w not in sR for w in imgR):
                continue
            imgTR = [tuple(mat_vec(F, rep.rt, v)) for v in bR]
            for bT, sT in subT:
                if any(w not in sT for w in imgTL):
                    continue
                if any(w not in sT for w in imgTR):
                    continue
                key = Vec3(len(bL), len(bR), len(bT))
                if key not in out:
                    out[key] = (bL, bR, bT)
    return out


def _coords_in_basis(F: GF, basis: List[Tuple[int, ...]], v) -> List[int]:
    """Coordinates of v in the span of basis (must be solvable)."""
    if not basis:
        assert not any(v)
        return []
    dim = len(basis[0])
    rows = [[basis[j][i] for j in range(len(basis))] + [v[i]] for i in range(dim)]
    red = rref(F, rows)
    coords = [0] * len(basis)
    for row in red:
        piv = next((j for j, x in enumerate(row[:-1]) if x != 0), None)
        if piv is None:
            assert row[-1] == 0, "vector not in span"
            continue
        coords[piv] = row[-1]
    return coords


def restrict(rep: FiniteRep, witness) -> FiniteRep:
    """The subrepresentation carried by a witness, with its own coordinates."""
    F = rep.F
    bL, bR, bT = witness

    def arrow(mat, src, dst):
        out = zeros(len(dst), len(src))
        for j, v in enumerate(src):
            w = mat_vec(F, mat, list(v))
            for i, c in enumerate(_coords_in_basis(F, dst, w)):
                out[i][j] = c
        return out

    return FiniteRep(
        F,
        Vec3(len(bL), len(bR), len(bT)),
        arrow(rep.lr, bL, bR),
        arrow(rep.lt, bL, bT),
        arrow(rep.rt, bR, bT),
    )


def quotient(rep: FiniteRep, witness) -> FiniteRep:
    """The quotient representation by a witness subrepresentation."""
    F = rep.F
    bL, bR, bT = witness
    dL, dR, dT = rep.dims

    def setup(basis, dim):
        """rref rows + the non-pivot coordinates giving quotient coords."""
        rows = rref(F, [list(v) for v in basis]) if basis else []
        rows = [r for r in rows if any(r)]
        pivots = []
        for r in rows:
            pivots.append(next(j for j, x in enumerate(r) if x != 0))
        free = [j for j in range(dim) if j not in pivots]
        return rows, pivots, free

    def project(v, rows, pivots, free):
        v = list(v)
        for r, p in zip(rows, pivots):
            if v[p] != 0:
                f = v[p]
                v = [F.add(x, F.neg(F.mul(f, y))) for x, y in zip(v, r)]
        return [v[j] for j in free]

    sL, sR, sT = setup(bL, dL), setup(bR, dR), setup(bT, dT)

    def arrow(mat, src_setup, src_dim, dst_setup):
        _, _, src_free = src_setup
        out = zeros(len(dst_setup[2]), len(src_free))
        for j, col in enumerate(src_free):
            e = [0] * src_dim
            e[col] = 1
            w = mat_vec(F, mat, e)
            for i, c in enumerate(project(w, *dst_setup)):
                out[i][j] = c
        return out

    return FiniteRep(
        F,
        Vec3(len(sL[2]), len(sR[2]), len(sT[2])),
        arrow(rep.lr, sL, dL, sR),
        arrow(rep.lt, sL, dL, sT),
        arrow(rep.rt, sR, dR, sT),
    )


# ---------------------------------------------------------------------------
# semistability inside the standard heart


def heart_charge(charges: Tuple[Gaussian, Gaussian, Gaussian], d: Vec3) -> Gaussian:
    """d_L z_L + d_R z_R + d_T z_T; stays in the upper branch for d >= 0."""
    zL, zR, zT = charges
    return zL.scale(d.L) + zR.scale(d.R) + zT.scale(d.T)


def semistable_in_heart(rep: FiniteRep, charges, subreps=None):
    """(True, None) or (False, destabilizing dimension vector).

    A proper nonzero subrepresentation destabilizes iff its charge has a
    strictly larger normalized argument.
    """
    if rep.dims.is_zero():
        raise ValueError("zero representation")
    if subreps is None:
        subreps = all_subreps(rep)
    z = heart_charge(charges, rep.dims)
    worst = None
    for d in subreps:
        if d.is_zero() or d == rep.dims:
            continue
        if normarg_cmp(heart_charge(charges, d), z) > 0:
            if worst is None or normarg_cmp(
                heart_charge(charges, d), heart_charge(charges, worst)
            ) > 0:
                worst = d
    if worst is None:
        return (True, None)
    return (False, worst)


def hn_in_heart(rep: FiniteRep, charges) -> List[Vec3]:
    """Dimension vectors of the filtration factors, maximal-slope-first.

    Greedy: peel off a maximal destabilizer (largest argument; ties broken
    by largest total dimension) and recurse on the quotient.
    """
    factors: List[Vec3] = []
    cur = rep
    while not cur.dims.is_zero():
        subs = all_subreps(cur)
        best: Optional[Vec3] = None
        for d in subs:
            if d.is_zero():
                continue
            if best is None:
                best = d
                continue
            c = normarg_cmp(heart_charge(charges, d), heart_charge(charges, best))
            if c > 0 or (c == 0 and sum(d) > sum(best)):
                best = d
        assert best is not None
        factors.append(best)
        cur = quotient(cur, subs[best])
    return factors


# ---------------------------------------------------------------------------
# the two-arrow Kronecker quiver


class KronRep:
    def __init__(self, F: GF, d1: int, d2: int, a: Matrix, b: Matrix):
        self.F = F
        self.d1 = d1
        self.d2 = d2
        self.a = a  # shape (d2, d1)
        self.b = b
        assert _shape(a) == (d2, d1) and _shape(b) == (d2, d1)


def kronecker_rep(F: GF, d1: int, d2: int) -> KronRep:
    """The indecomposable rigid module with dimension vector (d1, d2); only
    |d1 - d2| = 1 occurs here."""
    if d1 == d2 + 1:  # maps drop first / last coordinate
        a = zeros(d2, d1)
        b = zeros(d2, d1)
        for i in range(d2):
            a[i][i] = 1
            b[i][i + 1] = 1
        return KronRep(F, d1, d2, a, b)
    if d2 == d1 + 1:  # maps append / prepend a zero
        a = zeros(d2, d1)
        b = zeros(d2, d1)
        for i in range(d1):
            a[i][i] = 1
            b[i + 1][i] = 1
        return KronRep(F, d1, d2, a, b)
    raise ValueError("not a rigid dimension vector: (%d, %d)" % (d1, d2))


def kron_subrep_classes(rep: KronRep):
    if rep.d1 + rep.d2 > MAX_TOTAL_DIM:
        raise SizeLimit("total dimension too large")
    F = rep.F
    out = set()
    for b1, s1 in all_subspaces_with_sets(F, rep.d1):
        ia = [tuple(mat_vec(F, rep.a, v)) for v in b1]
        ib = [tuple(mat_vec(F, rep.b, v)) for v in b1]
        for b2, s2 in all_subspaces_with_sets(F, rep.d2):
            if any(w not in s2 for w in ia):
                continue
            if any(w not in s2 for w in ib):
                continue
            out.add((len(b1), len(b2)))
    return out


def kron_semistable(rep: KronRep, zu: Gaussian, zv: Gaussian):
    """Semistability for the charge sending the two simples to zu, zv (both
    in the upper branch).  Returns (bool, destabilizing (d1,d2) or None)."""

    def charge(d):
        return zu.scale(d[0]) + zv.scale(d[1])

    whole = (rep.d1, rep.d2)
    z = charge(whole)
    for d in kron_subrep_classes(rep):
        if d == (0, 0) or d == whole:
            continue
        if normarg_cmp(charge(d), z) > 0:
            return (False, d)
    return (True, None)
