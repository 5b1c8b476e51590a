"""Sparse exact linear algebra over Fraction entries.

Matrices cross the interface as lists of lists.  The fiber matrices of the
form bundles are almost all zeros, so elimination holds rows as
{column: value} dicts, touches only nonzero entries and drops entries that
cancel.  The reduced row echelon form is unique, so every result equals the
dense route's, which the tests keep as their oracle.  No inverse and no
projector is formed here: the fiber projectors of `hktcalc.salamon` are
polynomials in the sp(1) Casimir.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse_rows(m: Sequence[Sequence]) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _dense_rows(rows: Sequence[dict], cols: int) -> list[list]:
    return [[row.get(j, _ZERO) for j in range(cols)] for row in rows]


def _reduce(rows: list[dict], cols: int) -> list[int]:
    """Bring sparse rows to reduced row echelon form in place; returns the
    pivot columns.  Row i < len(pivots) is the row of pivot i.

    Each pivot row is divided by its pivot taken as a Fraction, so int
    input is eliminated exactly, never in floats."""
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = Fraction(rows[r][c])
        pivot_row = {j: x / pv for j, x in rows[r].items()}
        rows[r] = pivot_row
        for i, row in enumerate(rows):
            if i != r and c in row:
                f = row[c]
                for j, y in pivot_row.items():
                    v = row.get(j, 0) - f * y
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rref(m: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    if not m:
        return [], []
    rows = _sparse_rows(m)
    pivots = _reduce(rows, len(m[0]))
    return _dense_rows(rows, len(m[0])), pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(rref(m)[1])


def null_space(m: Sequence[Sequence]) -> list[list]:
    """Exact basis of {v : Mv = 0}, one vector per free column.

    Repeated and zero rows span nothing new, so they are dropped before the
    elimination: stacked fiber conditions repeat many rows."""
    if not m:
        return []
    cols = len(m[0])
    rows = list({tuple(row.items()): row for row in _sparse_rows(m) if row}.values())
    pivots = _reduce(rows, cols)
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = [_ZERO] * cols
        v[fc] = _ONE
        for row, pc in zip(rows, pivots):
            v[pc] = -row.get(fc, _ZERO)
        basis.append(v)
    return basis


def solve(a: Sequence[Sequence], b: Sequence):
    """One solution of Ax = b, or None if inconsistent."""
    cols = len(a[0]) if a else 0
    rows = _sparse_rows([*row, y] for row, y in zip(a, b))
    pivots = _reduce(rows, cols + 1)
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for row, pc in zip(rows, pivots):
        x[pc] = row.get(cols, _ZERO)
    return x


def inertia(m: Sequence[Sequence]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Symmetric Gaussian elimination replaces S by E S E^T with E invertible,
    a congruence, so by Sylvester's law of inertia the signs of the pivots
    it takes off the diagonal count the signs of the eigenvalues.  When
    every remaining diagonal entry is 0 but some S[i][j] is not, adding row
    and column j to row and column i (again a congruence) makes
    S[i][i] = 2 S[i][j] a nonzero pivot.  Raises ValueError on a
    non-symmetric matrix.
    """
    n = len(m)
    if any(len(row) != n or any(m[i][j] != m[j][i] for j in range(i)) for i, row in enumerate(m)):
        raise ValueError("inertia needs a square symmetric matrix")
    rows = {i: {j: Fraction(x) for j, x in enumerate(row) if x} for i, row in enumerate(m)}
    positive = negative = 0
    while True:
        p = next((i for i, row in rows.items() if i in row), None)
        if p is None:
            p = next((i for i, row in rows.items() if row), None)
            if p is None:
                break  # the rest of S is zero
            _fold(rows, p, next(iter(rows[p])))
        pivot_row = rows.pop(p)
        d = pivot_row.pop(p)
        if d > 0:
            positive += 1
        else:
            negative += 1
        for k, s_kp in pivot_row.items():
            f = s_kp / d
            row = rows[k]
            del row[p]
            for j, s_pj in pivot_row.items():
                v = row.get(j, 0) - f * s_pj
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
    return positive, negative, n - positive - negative


def _fold(rows: dict, i: int, j: int) -> None:
    """S <- E S E^T for E = Id + e_i e_j^T on symmetric {i: {j: S_ij}} rows:
    add row and column j to row and column i, in place."""
    ri, rj = rows[i], rows[j]
    touched = (set(ri) | set(rj)) - {i}
    new = {k: ri.get(k, 0) + rj.get(k, 0) for k in touched}
    new[i] = ri.get(i, 0) + 2 * ri.get(j, 0) + rj.get(j, 0)
    new = {k: v for k, v in new.items() if v}
    for k in touched:
        if k in new:
            rows[k][i] = new[k]
        else:
            rows[k].pop(i, None)
    rows[i] = new

