"""Sparse exact linear algebra over int and Fraction entries.

Matrices cross the interface as lists of lists.  The fiber matrices of the
form bundles are almost all zeros, so elimination holds rows as
{column: value} dicts, touches only nonzero entries and drops entries that
cancel.  The reduced row echelon form is unique, so every result equals the
dense route's, which the tests keep as their oracle.  `rref`, `rank`,
`null_space` and `solve` have no command caller: they are test oracles,
for the exact bases of B^k and of the (1,1)-forms among others.
`inertia`, which the signature samples of `hkt check` read, forms no
Fraction: it eliminates in ints (see its docstring), and the tests keep
the Fraction elimination it replaced as its oracle.  No inverse and no
projector is formed here: the fiber projectors of `hktcalc.salamon` are
polynomials in the sp(1) Casimir.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse_rows(m: Sequence[Sequence]) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


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
    """Reduced row echelon form; returns (R, pivot column indices).  A test
    oracle with no command caller."""
    if not m:
        return [], []
    rows = _sparse_rows(m)
    pivots = _reduce(rows, len(m[0]))
    return [[row.get(j, _ZERO) for j in range(len(m[0]))] for row in rows], pivots


def rank(m: Sequence[Sequence]) -> int:
    """The rank, from `rref`.  A test oracle with no command caller."""
    return len(rref(m)[1])


def null_space(m: Sequence[Sequence]) -> list[list]:
    """Exact basis of {v : Mv = 0}, one vector per free column.

    Repeated and zero rows span nothing new, so they are dropped before the
    elimination: stacked fiber conditions repeat many rows.  A test oracle
    with no command caller."""
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
    """One solution of Ax = b, or None if inconsistent.  A test oracle with
    no command caller."""
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
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix
    with int or Fraction entries, by fraction-free elimination.

    Gaussian elimination on a symmetric S with pivots taken off the
    diagonal is a congruence, so by Sylvester's law of inertia the signs
    of its pivots count the signs of the eigenvalues.  Each row of the
    remaining Schur complement is kept as an int row that is a positive
    multiple of it, reduced by the gcd of its entries.  Row i of the
    input starts times the lcm of its denominators.  Pivoting on p maps
    row k to |d| row_k - sign(d) s_kp row_p for the stored diagonal entry
    d, again a positive multiple, so the sign of d is the pivot's; rows
    with s_kp = 0 are left alone.  Dividing out each row's content keeps
    its entries no larger than the minors Bareiss's elimination would
    carry, and far smaller when the input's denominators differ from row
    to row.  The pivot is the nonzero diagonal entry of least absolute
    value, which keeps a large entry out of the other rows until the end.

    When every remaining diagonal entry is 0 but some s_ij is not, the
    block [[0, s_ij], [s_ij, 0]] has one positive and one negative
    eigenvalue, and eliminating it maps row k to
    s_ij s_ji row_k - s_kj s_ji row_i - s_ki s_ij row_j (s_ij s_ji > 0).
    Raises ValueError on a non-symmetric matrix.
    """
    n = len(m)
    if any(len(row) != n or any(m[i][j] != m[j][i] for j in range(i)) for i, row in enumerate(m)):
        raise ValueError("inertia needs a square symmetric matrix")
    rows = {}
    for i, row in enumerate(m):
        scale = math.lcm(*(x.denominator for x in row))
        rows[i] = {j: x.numerator * (scale // x.denominator) for j, x in enumerate(row) if x}
    positive = negative = 0
    while True:
        p = min((i for i, row in rows.items() if i in row), key=lambda i: abs(rows[i][i]), default=None)
        if p is not None:
            pivot_row = rows.pop(p)
            d = pivot_row[p]
            if d > 0:
                positive += 1
            else:
                negative += 1
            for k, row in rows.items():
                s_kp = row.get(p)
                if s_kp:
                    rows[k] = _primitive_combination([(abs(d), row), (-s_kp if d > 0 else s_kp, pivot_row)])
            continue
        i = next((i for i, row in rows.items() if row), None)
        if i is None:
            break  # the rest of S is zero
        row_i = rows.pop(i)
        j = next(iter(row_i))
        row_j = rows.pop(j)
        s_ij, s_ji = row_i[j], row_j[i]
        positive += 1
        negative += 1
        for k, row in rows.items():
            s_ki, s_kj = row.get(i, 0), row.get(j, 0)
            if s_ki or s_kj:
                rows[k] = _primitive_combination([(s_ij * s_ji, row), (-s_kj * s_ji, row_i), (-s_ki * s_ij, row_j)])
    return positive, negative, n - positive - negative


def _primitive_combination(terms: Sequence[tuple[int, dict]]) -> dict:
    """The sparse int row sum of c * row over `terms`, zeros dropped and
    divided by the gcd of its entries."""
    out: dict = {}
    for c, row in terms:
        if c:
            for j, x in row.items():
                out[j] = out.get(j, 0) + c * x
    out = {j: v for j, v in out.items() if v}
    g = math.gcd(*out.values())
    return {j: v // g for j, v in out.items()} if g > 1 else out
