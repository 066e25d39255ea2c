"""Tiny finite fields (order 2, 3, 4) and dense linear algebra over them.

Elements are plain ints 0..q-1; GF(4) is GF(2)[x]/(x^2+x+1) with elements
encoded as bit pairs.  Just enough here for the row reductions and
matrix-vector products of the subrepresentation search on desk-scale
matrices.
"""

from __future__ import annotations

from typing import List, Sequence


class GF:
    def __init__(self, q: int):
        if q not in (2, 3, 4):
            raise ValueError("unsupported field size %d" % q)
        self.q = q
        if q == 4:
            # multiplication table for GF(2)[x]/(x^2+x+1), elements 0,1,x,x+1
            self._mul = [[0] * 4 for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    # polynomial multiply mod x^2+x+1
                    a0, a1 = a & 1, a >> 1
                    b0, b1 = b & 1, b >> 1
                    c0 = a0 & b0
                    c1 = (a0 & b1) ^ (a1 & b0)
                    c2 = a1 & b1
                    # x^2 = x + 1
                    c0 ^= c2
                    c1 ^= c2
                    self._mul[a][b] = c0 | (c1 << 1)

    def add(self, a: int, b: int) -> int:
        if self.q == 4:
            return a ^ b
        return (a + b) % self.q

    def neg(self, a: int) -> int:
        if self.q == 4:
            return a
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        if self.q == 4:
            return self._mul[a][b]
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError

    def elements(self):
        return range(self.q)


Matrix = List[List[int]]  # row-major


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_vec(F: GF, a: Matrix, v: Sequence[int]) -> List[int]:
    out = [0] * len(a)
    for i, row in enumerate(a):
        acc = 0
        for x, y in zip(row, v):
            acc = F.add(acc, F.mul(x, y))
        out[i] = acc
    return out


def rref(F: GF, m: Matrix) -> Matrix:
    """Row-reduced echelon form (in place on a copy)."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [F.add(x, F.neg(F.mul(f, y))) for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return m
