"""The sparse exact linear algebra against the dense route it replaced.

`conftest.dense_rref` is the dense Gaussian elimination that
`hktcalc.exact_linalg` used before it skipped zeros, kept only as the
oracle; `dense_null_space` there and `dense_solve` here are the old derived
routines on top of it.  The reduced row echelon form is unique, so the
sparse results must be equal to the oracle's, not merely close.  The
projector table is checked against `conftest.dense_projector` of the
null-space basis of B^k, the route it was built by before the Casimir.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktcalc import exact_linalg as ela
from hktcalc.forms import compose_operators, multi_indices
from hktcalc.salamon import ProjectorTable, _condition_operators
from hktcalc.structures import HypercomplexModel

from conftest import (
    bundle_B,
    condition_matrix,
    condition_rank,
    dense_mat_mul,
    dense_null_space,
    dense_projector,
    dense_rref,
    eta_matrix,
    fraction_inertia,
    random_sphere_points,
    table_json,
)


def dense_solve(a, b):
    cols = len(a[0]) if a else 0
    r, pivots = dense_rref([list(a[i]) + [b[i]] for i in range(len(a))])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][cols]
    return x


def dense_table(model):
    """(B bases, eta matrices) for k = 2, 3, built on the dense oracle."""
    bases, etas = {}, {}
    for k in (2, 3):
        stacked = condition_matrix(model, k, _condition_operators(model, k))
        bases[k] = dense_null_space(stacked)
        etas[k] = dense_projector(bases[k], len(multi_indices(model.dim, k)))
    return bases, etas


# Mostly-zero small rationals, like the fiber matrices.
ENTRY = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                  st.fractions(min_value=-4, max_value=4, max_denominator=5))


def matrices(min_rows=0, max_rows=6, min_cols=0, max_cols=6):
    return st.tuples(st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)).flatmap(
        lambda shape: st.lists(st.lists(ENTRY, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


PROPERTY = settings(deadline=None)


def integer_matrices():
    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.lists(st.lists(st.integers(-5, 5), min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


def as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


class TestSparseMatchesDense:
    @PROPERTY
    @given(matrices(min_cols=1))
    def test_rref_and_pivots(self, m):
        assert ela.rref(m) == dense_rref(m)

    @PROPERTY
    @given(matrices(min_cols=1))
    def test_null_space_and_rank(self, m):
        basis = ela.null_space(m)
        assert basis == dense_null_space(m)
        assert ela.null_space(m + m[::-1]) == basis  # repeated rows are dropped
        assert ela.rank(m) == len(dense_rref(m)[1])
        if m:
            assert ela.rank(m) + len(basis) == len(m[0])
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)

    @PROPERTY
    @given(matrices(min_rows=1, min_cols=1), st.data())
    def test_solve(self, a, data):
        b = data.draw(st.lists(ENTRY, min_size=len(a), max_size=len(a)))
        x = ela.solve(a, b)
        assert x == dense_solve(a, b)
        if x is not None:
            assert dense_mat_mul(a, [[v] for v in x]) == [[y] for y in b]


class TestIntegerInput:
    """Python ints are eliminated exactly: the same results as the dense
    oracle on the same matrix as Fractions, never float division."""

    def test_singular_block_has_exact_rank(self):
        m = [[0] * 11 for _ in range(11)]
        for i, row in enumerate([[-5, -1, -2], [-1, -1, 0], [-2, 0, -1]]):
            m[i][:3] = row
        assert ela.rank(m) == 2
        basis = ela.null_space(m)
        assert len(basis) == 9
        assert all(type(x) is Fraction for v in basis for x in v)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m for v in basis)

    @PROPERTY
    @given(integer_matrices())
    def test_rref_null_space_and_rank(self, m):
        exact = as_fractions(m)
        assert ela.rref(m) == dense_rref(exact)
        assert ela.null_space(m) == dense_null_space(exact)
        assert ela.rank(m) == len(dense_rref(exact)[1])

    @PROPERTY
    @given(integer_matrices(), st.data())
    def test_solve(self, a, data):
        b = data.draw(st.lists(st.integers(-5, 5), min_size=len(a), max_size=len(a)))
        assert ela.solve(a, b) == dense_solve(as_fractions(a), [Fraction(y) for y in b])


# SHA-1 of json.dumps(table_json(ProjectorTable(n)), sort_keys=True), frozen
# from the Fraction-built B conditions the integer-built ones replaced.
TABLE_SHA1 = {
    1: "88e2dc3cadee8f32b5885ea54e8c171de0647bf8",
    2: "b5a3df03c43058729e2972622ab77d1ba9abaf76",
    3: "08b63ad4e02a297c08698adc64445739320a8313",
}


def table_sha1(table):
    return hashlib.sha1(json.dumps(table_json(table), sort_keys=True).encode()).hexdigest()


class TestProjectorTableMatchesDense:
    @pytest.mark.parametrize("n", [1, 2])
    def test_table_equals_dense_build(self, n, table1, table2):
        table = table1 if n == 1 else table2
        bases, etas = dense_table(table.model)
        for k in (2, 3):
            assert bundle_B(table.model, k).basis == bases[k]
            assert eta_matrix(table, k) == etas[k]
        dense_json = {str(k): [[[str(x.numerator), str(x.denominator)] for x in row] for row in etas[k]]
                      for k in (2, 3)}
        assert json.dumps(table_json(table)) == json.dumps({"n": n, "eta": dense_json})
        assert table_sha1(table) == TABLE_SHA1[n]


class TestN3Table:
    @pytest.fixture(scope="class")
    def table3(self):
        return ProjectorTable(HypercomplexModel(3))

    def test_to_json_digest_is_frozen(self, table3):
        assert table_sha1(table3) == TABLE_SHA1[3]

    @pytest.fixture(scope="class")
    def b_ranks3(self, table3):
        return {k: bundle_B(table3.model, k).rank for k in (2, 3)}

    def test_eta_idempotent_and_splits_the_fiber(self, table3, b_ranks3):
        for k in (2, 3):
            eta = eta_matrix(table3, k)
            assert compose_operators(table3.columns[k], table3.columns[k]) == table3.columns[k]
            total = len(multi_indices(12, k))
            assert ela.rank(eta) + b_ranks3[k] == total

    def test_b_ranks_stable_under_extra_sphere_points(self, table3, b_ranks3):
        # Frozen from the exact null-space computation: 21 = n(2n + 1).
        assert (b_ranks3[2], b_ranks3[3]) == (21, 140)
        extra = random_sphere_points(4, seed=77)
        for k in (2, 3):
            base = condition_rank(table3.model, k)
            assert base == len(multi_indices(12, k)) - b_ranks3[k]
            assert condition_rank(table3.model, k, extra) == base


def float_inertia(m):
    """The former float route: sign counts of numpy's eigvalsh with a
    relative tolerance, kept as the oracle for `ela.inertia`."""
    import numpy as np

    eig = np.linalg.eigvalsh(np.array(m, dtype=float).reshape(len(m), len(m)))
    tol = 1e-9 * max(1.0, float(np.abs(eig).max(initial=0.0)))
    return int((eig > tol).sum()), int((eig < -tol).sum()), int((np.abs(eig) <= tol).sum())


@st.composite
def symmetric_integer_matrices(draw):
    """Symmetric small-integer matrices up to 12 x 12: plain, with a zero
    diagonal, or a signed sum of fewer rank-one terms than rows (singular)."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["plain", "zero_diagonal", "low_rank"]))
    if kind == "low_rank":
        vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=n - 1))
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(vectors), max_size=len(vectors)))
        return [[sum(s * v[i] * v[j] for s, v in zip(signs, vectors)) for j in range(n)] for i in range(n)]
    upper = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    m = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "zero_diagonal":
        for i in range(n):
            m[i][i] = 0
    return m


def symmetric_rational_matrix(n, kind, seed):
    """A symmetric Fraction matrix whose elimination meets an all-zero
    diagonal ("zero_diagonal"), is singular ("low_rank"), meets negative pivots ("negative": minus a
    sum of squares, plus a small perturbation) or has entries of 100 to 160
    digits ("huge"); drawn from `random.Random(seed)`, which is much faster
    than drawing 144 entries through hypothesis."""
    rng = random.Random(seed)

    def small():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 7)) if rng.random() < 0.6 else Fraction(0)

    def entry():
        if kind == "huge" and rng.random() < 0.4:
            return Fraction(rng.choice([-1, 1]) * rng.randint(10**99, 10**160), rng.randint(10**99, 10**160))
        return small()

    if kind == "low_rank":
        vectors = [[small() for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
        signs = [rng.choice([-1, 1]) for _ in vectors]
        return [[sum(s * v[i] * v[j] for s, v in zip(signs, vectors)) for j in range(n)] for i in range(n)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(0) if kind == "zero_diagonal" and i == j else entry()
    if kind == "negative":
        vectors = [[small() for _ in range(n)] for _ in range(n)]
        m = [[m[i][j] / 100 - sum(v[i] * v[j] for v in vectors) for j in range(n)] for i in range(n)]
    return m


class TestInertia:
    @given(symmetric_integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_eigvalsh_sign_counts(self, m):
        counts = ela.inertia(m)
        assert counts == float_inertia(m)
        assert counts[2] == len(m) - ela.rank([[Fraction(x) for x in row] for row in m])

    @pytest.mark.parametrize("m, expected", [
        ([[0, 1], [1, 0]], (1, 1, 0)),
        ([[0, 0], [0, 0]], (0, 0, 2)),
        ([[1, 1], [1, 1]], (1, 0, 1)),
        ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (1, 1, 1)),
        ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], (1, 1, 1)),
        ([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(1)]], (2, 0, 0)),
        ([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 4)]], (1, 0, 1)),
        # Below the float route's 1e-9 relative tolerance, still exactly positive.
        ([[1, 0], [0, Fraction(1, 10**12)]], (2, 0, 0)),
        ([], (0, 0, 0)),
    ])
    def test_known_cases(self, m, expected):
        assert ela.inertia(m) == expected

    @given(st.integers(1, 12), st.sampled_from(["plain", "zero_diagonal", "low_rank", "negative", "huge"]),
           st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_fraction_free_elimination_matches_the_fraction_elimination(self, n, kind, seed):
        m = symmetric_rational_matrix(n, kind, seed)
        counts = ela.inertia(m)
        assert counts == fraction_inertia(m)
        # A 1e-9 relative tolerance cannot resolve entries of 100+ digits.
        if kind != "huge":
            assert counts == float_inertia(m)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            ela.inertia([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            ela.inertia([[1, 0]])
