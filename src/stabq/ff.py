"""Brute-force ground truth over a small finite field.

A representation assigns a vector space to each of the three vertices and a
matrix to each arrow.  Subobjects are subspace triples closed under the three
maps; enumerating them decides semistability exactly for any central charge
whose three simple values lie in the closed upper branch (King's criterion:
compare the argument of each subrepresentation's charge with the whole's).

The subspace table of F^d, each subspace with a basis and its vector set,
is a pure function of the field order and d: it is built once per process
per (q, d), as immutable tuples, and shared by every enumeration.  The
semistability test reads only the dimension vectors of the
subrepresentations, so a caller that tests one representation often
enumerates them once and passes them in, or passes only the extreme rays
of the cone they span (``extreme_rays``), which decide the same verdicts:
``harness._heart_test_objects`` keeps the rays for the whole process, and
``stab oracle`` scans every subrepresentation.  Semistability compares
arguments on integers: rational simple charges are scaled once per call
by a positive rational that clears their denominators
(``exact.primitive_multiple``), which changes no argument, and integer
ones, such as a point's ``simple`` charges, are read as they are.
King's compare checks the whole's charge and each subrepresentation's
charge once, and then decides each subrepresentation by the sign of one
cross product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, List, Tuple

from .exact import Gaussian, branch_checked, primitive_multiple
from .gf import GF, Matrix, mat_vec, rref, zeros
from .quiver import Vec3, euler_form


class SizeLimit(ValueError):
    pass


class FiniteRep:
    """Quiver representation over a small finite field."""

    def __init__(self, F: GF, dims: Vec3, lr: Matrix, lt: Matrix, rt: Matrix):
        self.F = F
        self.dims = dims
        # row tuples: a representation can be shared without being changed
        self.lr = _frozen(lr)  # L -> R, shape (d_R, d_L)
        self.lt = _frozen(lt)  # L -> T, shape (d_T, d_L)
        self.rt = _frozen(rt)  # R -> T, shape (d_T, d_R)
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


def _frozen(m: Matrix) -> Tuple[Tuple[int, ...], ...]:
    return tuple(map(tuple, m))


def _shape(m: Matrix) -> Tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def _shape_ok(m: Matrix, rows: int, cols: int) -> bool:
    # a zero-row matrix carries no column information
    return len(m) == rows and all(len(r) == cols for r in m)


# ---------------------------------------------------------------------------
# subspace enumeration


def _subspaces(F: GF, dim: int):
    """[(basis_rows, vector_set)] for every subspace of F^dim, by dimension,
    each with the first basis found by extending smaller bases one vector
    at a time in lexicographic order."""
    zero = (0,) * dim
    vectors = [v for v in product(F.elements(), repeat=dim) if v != zero]
    seen = {frozenset({zero}): []}
    frontier = [([], frozenset({zero}))]
    while frontier:
        nxt = []
        for basis, cur in frontier:
            covered = set(cur)  # vectors whose span with cur is already known
            for v in vectors:
                if v in covered:
                    continue
                cvs = [tuple(F.mul(c, x) for x in v) for c in F.elements()]
                ns = frozenset(
                    tuple(F.add(a, b) for a, b in zip(w, cv))
                    for w in cur
                    for cv in cvs
                )
                covered |= ns
                if ns not in seen:
                    nb = basis + [v]
                    seen[ns] = nb
                    nxt.append((nb, ns))
        frontier = nxt
    return [(b, s) for s, b in seen.items()]


@lru_cache(maxsize=None)
def _subspace_table(q: int, dim: int):
    return tuple((tuple(b), s) for b, s in _subspaces(GF(q), dim))


def all_subspaces_with_sets(F: GF, dim: int):
    """((basis_rows, vector_set), ...) for every subspace of F^dim.

    A pure function of the field order and the dimension, so each table is
    built once per process and shared; it is made of tuples and frozensets,
    so no caller can change it."""
    return _subspace_table(F.q, dim)


MAX_TOTAL_DIM = 12


def _closed_subspaces(F: GF, dims, arrows):
    """Every tuple of subspaces, one per vertex, closed under the arrows
    (src, dst, matrix) with src < dst, as a tuple of bases.  Vertices are
    looped in order, the last innermost, each over the subspaces in the
    order of ``all_subspaces_with_sets``."""
    if sum(dims) > MAX_TOTAL_DIM:
        raise SizeLimit("total dimension %d too large" % sum(dims))
    subs = [all_subspaces_with_sets(F, d) for d in dims]
    return _extend(F, subs, arrows, (), [[] for _ in dims])


def _extend(F: GF, subs, arrows, chosen, images):
    # images[v]: where the arrows send the bases chosen so far
    v = len(chosen)
    if v == len(subs):
        yield chosen
        return
    for basis, vectors in subs[v]:
        if any(w not in vectors for w in images[v]):
            continue
        nxt = list(images)
        for src, dst, mat in arrows:
            if src == v:
                nxt[dst] = nxt[dst] + [tuple(mat_vec(F, mat, x)) for x in basis]
        yield from _extend(F, subs, arrows, chosen + (basis,), nxt)


def all_subreps(rep: FiniteRep):
    """Every subrepresentation, as a dict keyed by dimension vector; the
    value is one witness (bases of the three subspaces).  Includes the zero
    and the full subrepresentation."""
    arrows = ((0, 1, rep.lr), (0, 2, rep.lt), (1, 2, rep.rt))
    out: Dict[Vec3, tuple] = {}
    for bases in _closed_subspaces(rep.F, rep.dims, arrows):
        d = Vec3(*map(len, bases))
        if d not in out:  # a witness of lists, apart from the shared table
            out[d] = tuple(list(b) for b in bases)
    return out


def extreme_rays(subreps, whole: Vec3) -> Tuple[Vec3, ...]:
    """The extreme rays of the cone spanned by the proper nonzero vectors
    among ``subreps`` (dimension vectors, ``whole`` the representation's),
    one vector per ray: the first in the order given.

    Exact: each vector is projected onto L + R + T = 1 as a point of
    ``Fraction`` coordinates (L, R), vectors of one ray meet in one point,
    and the rays are the strict vertices of the points' convex hull
    (Andrew's monotone chain; a point inside an edge is not a vertex).
    The rays come in the order of their first vectors."""
    first: Dict[Tuple[Fraction, Fraction], Vec3] = {}
    for d in subreps:
        if d.is_zero() or d == whole:
            continue
        n = sum(d)
        first.setdefault((Fraction(d[0], n), Fraction(d[1], n)), d)
    pts = sorted(first)
    if len(pts) > 2:
        pts = _hull_side(pts)[:-1] + _hull_side(pts[::-1])[:-1]
    keep = {first[p] for p in pts}
    return tuple(d for d in first.values() if d in keep)


def _hull_side(pts):
    # one side of the strict convex hull of the sorted points, both ends
    # included: a point is dropped unless the chain turns strictly left
    out = []
    for p in pts:
        while len(out) > 1 and _turn(out[-2], out[-1], p) <= 0:
            out.pop()
        out.append(p)
    return out


def _turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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


# ---------------------------------------------------------------------------
# semistability inside the standard heart


def semistable_in_heart(rep: FiniteRep, charges, subreps=None):
    """(True, None) or (False, destabilizing dimension vector).

    A proper nonzero subrepresentation destabilizes iff its charge has a
    strictly larger normalized argument; the witness is the first one of
    largest argument.  ``subreps`` is the subrepresentations' dimension
    vectors in ``all_subreps`` key order (its keys, or a tuple of them),
    enumerated here when not given, or their ``extreme_rays``: the
    verdict is the same, and the witness has a charge parallel to the
    full scan's (``harness.oracle_agreement``).

    The six charge components are read once.  Integer charges (a point's
    ``simple``) are used as they are; rational ones are first scaled by a
    positive factor to integers, which no argument comparison sees.  The
    whole and each subrepresentation are tested for zero on their
    unpacked entries.  The whole's charge and each
    subrepresentation's charge are computed once, as integer pairs, and
    checked once (nonzero, in the closed upper branch, else ``ExactError``;
    the whole's is checked after the first subrepresentation's).  Then one
    cross product against the largest argument so far, the whole's until a
    subrepresentation beats it, decides each subrepresentation.
    """
    whole = L, R, T = rep.dims
    if not (L or R or T):
        raise ValueError("zero representation")
    if subreps is None:
        subreps = all_subreps(rep)
    zl, zr, zt = charges
    lx, ly, rx, ry, tx, ty = zl.re, zl.im, zr.re, zr.im, zt.re, zt.im
    if not (type(lx) is type(ly) is type(rx) is type(ry) is type(tx)
            is type(ty) is int):
        zl, zr, zt = primitive_multiple(charges)
        lx, ly, rx, ry, tx, ty = zl.re, zl.im, zr.re, zr.im, zt.re, zt.im
    # (x, y): the charge of largest argument so far
    x, y = lx * L + rx * R + tx * T, ly * L + ry * R + ty * T
    worst = None
    checked = False
    for d in subreps:
        L, R, T = d
        if not (L or R or T) or d == whole:
            continue
        u, v = lx * L + rx * R + tx * T, ly * L + ry * R + ty * T
        if not (v > 0 or (v == 0 and u < 0)):
            branch_checked(Gaussian(u, v))  # zero or outside: raises
        if not checked:
            branch_checked(Gaussian(x, y))
            checked = True
        if x * v - y * u > 0:
            worst, x, y = d, u, v
    if worst is None:
        return (True, None)
    return (False, worst)
