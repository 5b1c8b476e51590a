"""Dense exact linear algebra over Fraction entries.

Matrices are lists of lists.  Everything here is small (fibers of form
bundles, at most a few hundred rows), so plain Gaussian elimination with
exact division is both simple and fast enough.  All callers pass rational
matrices; the exact core has no complex entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, s):
    return [[x * s for x in row] for row in a]


def mat_eq(a, b) -> bool:
    return all(all(x == y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)) and len(a) == len(b)


def rref(m: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    a = [list(row) for row in m]
    if not a:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(rref(m)[1])


def null_space(m: Sequence[Sequence]) -> list[list]:
    """Exact basis of {v : Mv = 0}, one vector per free column."""
    if not m:
        return []
    cols = len(m[0])
    r, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][fc]
        basis.append(v)
    return basis


def solve(a: Sequence[Sequence], b: Sequence):
    """One solution of Ax = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][cols]
    return x


def invert(a: Sequence[Sequence]) -> list[list]:
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def in_span(basis: Sequence[Sequence], v: Sequence) -> bool:
    """Whether v lies in the column span of the given basis vectors."""
    if not basis:
        return all(x == 0 for x in v)
    cols = [list(b) for b in basis]
    a = transpose(cols)
    return solve(a, list(v)) is not None


def projector_onto_complement(basis: Sequence[Sequence], n: int,
                              weights: Sequence | None = None) -> list[list]:
    """Projector with kernel span(basis), orthogonal for the given metric.

    `basis` lists linearly independent vectors spanning the kernel; the
    projector maps onto their orthogonal complement with respect to the
    diagonal inner product `weights` (Euclidean when omitted).  Returns the
    exact n x n matrix  I - N (N^T W N)^{-1} N^T W.
    """
    if not basis:
        return identity(n)
    nmat = transpose([list(b) for b in basis])  # n x r, columns span kernel
    if weights is None:
        wn = nmat
    else:
        wn = [[weights[i] * nmat[i][j] for j in range(len(basis))] for i in range(n)]
    gram = mat_mul(transpose(nmat), wn)
    inv = invert(gram)
    corr = mat_mul(mat_mul(nmat, inv), transpose(wn))
    return mat_sub(identity(n), corr)
