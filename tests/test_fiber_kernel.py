"""The exact hot path against the code it replaced.

Three oracles live here, kept only as the references the new code must
equal:

* `oracle_apply_operator` -- the former `forms.apply_operator`, which
  scaled every input polynomial and built a new `Polynomial` for every
  partial sum;
* `oracle_conjugate_by` -- the former dense O(dim^4) `BilinearForm.conjugate_by`;
* `oracle_fiber_op` -- the former `structures._fiber_op`, which expanded
  the sphere matrix aI + bJ + cK in Fractions (with the former
  `_wedge_expansion` and insertion sum) instead of the integer matrix
  den * (aI + bJ + cK);
* `oracle_pair_insertion_operator` -- the former
  `forms.pair_insertion_operator`, verbatim but for its helpers (the former
  `_rows`, which kept the Fraction entries of I, J and K as Fractions, and
  `oracle_wedge_expansion`): it expanded in Fractions and added half of
  every coefficient into a Fraction total, where the new builder expands
  integer-valued matrices in ints and divides each sum once by 2.

All arithmetic is exact, so new and old results must be equal, not close.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktcalc.forms import (
    BilinearForm,
    KForm,
    apply_operator,
    insertion_operator,
    multi_indices,
    operator_matrix,
    pair_insertion_operator,
    pullback_operator,
    routed_operator,
)
from hktcalc.geometry import default_sphere_witnesses
from hktcalc.scalars import Polynomial
from hktcalc.structures import HypercomplexModel, SpherePoint, _fiber_op

MODELS = {1: HypercomplexModel(1), 2: HypercomplexModel(2)}
KINDS = {"pullback": range(0, 4), "insert1": range(1, 4), "insert2": range(2, 4)}


def oracle_apply_operator(op, form):
    out = {}
    for idx, poly in form.terms.items():
        for out_idx, coeff in op.get(idx, ()):
            scaled = poly.scale(coeff)
            acc = out.get(out_idx)
            scaled = scaled if acc is None else acc + scaled
            if scaled.is_zero():
                out.pop(out_idx, None)
            else:
                out[out_idx] = scaled
    return KForm(form.degree, form.dim, out)


def oracle_conjugate_by(b, matrix):
    n = b.dim
    out = [[Polynomial.zero(n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Polynomial.zero(n)
            for k in range(n):
                mki = Fraction(matrix[k][i])
                if not mki:
                    continue
                for l in range(n):
                    mlj = Fraction(matrix[l][j])
                    if not mlj:
                        continue
                    acc = acc + b.entries[k][l].scale(mki * mlj)
            out[i][j] = acc
    return BilinearForm(out, symmetric=b.symmetric or None)


def oracle_wedge_expansion(factors):
    partial = {(): Fraction(1)}
    for factor in factors:
        nxt = {}
        for idx, coeff in partial.items():
            for j, a in factor:
                if j in idx:
                    continue
                pos = sum(1 for e in idx if e < j)
                sign = -1 if (len(idx) - pos) % 2 else 1
                new = idx[:pos] + (j,) + idx[pos:]
                val = nxt.get(new, Fraction(0)) + sign * coeff * a
                if val:
                    nxt[new] = val
                elif new in nxt:
                    del nxt[new]
        partial = nxt
    return partial


def oracle_fiber_op(model, point, k, kind):
    """Pullback (all k slots) or the one- or two-slot insertion sum, in Fractions."""
    rows = [[(j, Fraction(v)) for j, v in enumerate(row) if v] for row in model.sphere_matrix(point)]
    plain = [[(i, Fraction(1))] for i in range(model.dim)]
    slots = {"pullback": k, "insert1": 1, "insert2": 2}[kind]
    op = {}
    for idx in multi_indices(model.dim, k):
        total = {}
        for chosen in itertools.combinations(range(k), slots):
            factors = [rows[i] if pos in chosen else plain[i] for pos, i in enumerate(idx)]
            for out_idx, coeff in oracle_wedge_expansion(factors).items():
                total[out_idx] = total.get(out_idx, Fraction(0)) + coeff
        op[idx] = sorted((i, c) for i, c in total.items() if c)
    return op


def oracle_rows(matrix, dim):
    return [[(j, v if isinstance(v, int) else Fraction(v)) for j, v in enumerate(matrix[i]) if v]
            for i in range(dim)]


def oracle_pair_insertion_operator(a, b, k, dim):
    if k < 2:
        raise ValueError("needs degree >= 2")
    rows_a = oracle_rows(a, dim)
    rows_b = oracle_rows(b, dim)
    plain = [[(i, 1)] for i in range(dim)]
    half = Fraction(1, 2)
    op = {}
    for idx in multi_indices(dim, k):
        total: dict = {}
        for s, t in itertools.permutations(range(k), 2):
            factors = []
            for pos, i in enumerate(idx):
                if pos == s:
                    factors.append(rows_a[i])
                elif pos == t:
                    factors.append(rows_b[i])
                else:
                    factors.append(plain[i])
            for out_idx, coeff in oracle_wedge_expansion(factors).items():
                val = total.get(out_idx, Fraction(0)) + half * coeff
                if val:
                    total[out_idx] = val
                elif out_idx in total:
                    del total[out_idx]
        op[idx] = sorted(total.items())
    return op


def _canonical(poly):
    """Tuple exponents of ints, nonzero Fraction values."""
    return all(type(exp) is tuple and len(exp) == poly.dim and all(type(e) is int for e in exp)
               and type(c) is Fraction and c for exp, c in poly.terms.items())


# Small coefficient pools make cancellations, and so zero-dropping, common.
COEFFS = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(-1, 2), Fraction(1, 3)])


def polynomials(dim):
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    return st.dictionaries(exps, COEFFS, max_size=4).map(lambda t: Polynomial(dim, t))


@st.composite
def forms_and_operators(draw):
    dim = draw(st.sampled_from([4, 8]))
    k = draw(st.integers(0, 3))
    basis = multi_indices(dim, k)
    indices = st.sampled_from(basis)
    form = KForm(k, dim, draw(st.dictionaries(indices, polynomials(dim), max_size=5)))
    columns = st.dictionaries(indices, COEFFS, max_size=4).map(lambda c: sorted(c.items()))
    op = draw(st.dictionaries(indices, columns, max_size=12))
    return op, form


@given(forms_and_operators())
@settings(max_examples=150, deadline=None)
def test_apply_operator_matches_oracle(case):
    op, form = case
    out = apply_operator(op, form)
    assert out == oracle_apply_operator(op, form)
    assert all(_canonical(p) for p in out.terms.values())


def sphere_points():
    params = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    return st.builds(SpherePoint.from_parameters, params, params)


def bilinear_forms(dim):
    entry = st.one_of(st.just(Polynomial.zero(dim)), polynomials(dim))
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def bilinear_cases(draw):
    n = draw(st.sampled_from([1, 2]))
    model = MODELS[n]
    entries = draw(bilinear_forms(model.dim))
    if draw(st.booleans()):
        entries = [[entries[min(i, j)][max(i, j)] for j in range(model.dim)] for i in range(model.dim)]
    matrix = draw(st.one_of(st.sampled_from([model.I, model.J, model.K]),
                            sphere_points().map(model.sphere_matrix)))
    return BilinearForm(entries), matrix


@given(bilinear_cases())
@settings(max_examples=60, deadline=None)
def test_conjugate_by_matches_dense_oracle(case):
    b, matrix = case
    new, old = b.conjugate_by(matrix), oracle_conjugate_by(b, matrix)
    assert new == old and new.symmetric == old.symmetric
    assert all(_canonical(p) for row in new.entries for p in row)


def _assert_fiber_op_matches(model, point):
    for kind, degrees in KINDS.items():
        for k in degrees:
            op = _fiber_op(model, point, k, kind)
            assert op == oracle_fiber_op(model, point, k, kind), (model.n, point, k, kind)
            assert all(type(c) is Fraction for column in op.values() for _, c in column)


@pytest.mark.parametrize("n", [1, 2])
def test_fiber_op_matches_oracle_at_default_witnesses(n):
    for point in default_sphere_witnesses():
        _assert_fiber_op_matches(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=12, deadline=None)
def test_fiber_op_matches_oracle_at_random_points(point, n):
    _assert_fiber_op_matches(MODELS[n], point)


@given(polynomials(4), polynomials(4), COEFFS, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_are_canonical(a, b, scalar, index):
    results = [a + b, a - b, a - a, -a, a * b, a * scalar, a.scale(scalar), a.scale(0),
               a.partial(index), Polynomial.zero(4)]
    for r in results:
        assert r == Polynomial(r.dim, r.terms)
        assert _canonical(r)


def test_sphere_matrix_is_checked():
    point = SpherePoint(Fraction(3, 5), Fraction(4, 5), Fraction(0))
    broken = HypercomplexModel(1)
    broken.J = broken.I  # (aI + bI)^2 = -(a + b)^2 Id, not -Id
    with pytest.raises(AssertionError):
        broken.sphere_matrix(point)


INT_MATRICES = [tuple(tuple(int(v) for v in row) for row in MODELS[1].I),
                ((2, 0, 0, 1), (0, -3, 0, 0), (1, 0, 1, 0), (0, 0, 5, 1))]


@pytest.mark.parametrize("matrix", INT_MATRICES)
def test_builders_store_fractions_for_integer_matrices(matrix):
    ops = [(pullback_operator(matrix, k, 4), k) for k in range(0, 4)]
    ops += [(insertion_operator(matrix, k, 4, s), k) for k in range(1, 4) for s in range(1, k + 1)]
    ops += [(pair_insertion_operator(matrix, matrix, k, 4), k) for k in (2, 3)]
    for op, k in ops:
        assert all(type(c) is Fraction for column in op.values() for _, c in column)
        assert all(type(c) is Fraction for row in operator_matrix(op, k, 4) for c in row)
    assert pullback_operator(matrix, 0, 4) == {(): [((), Fraction(1))]}


def test_routed_operator_rejects_more_slots_than_degree():
    with pytest.raises(ValueError):
        routed_operator(INT_MATRICES[1], 2, 4, 3)


def _assert_pair_insertion_matches(a, b, dim):
    for k in (2, 3):
        new, old = pair_insertion_operator(a, b, k, dim), oracle_pair_insertion_operator(a, b, k, dim)
        assert new == old, (a, b, k)
        assert list(new) == list(old)  # the same input indices, in the same order
        assert all(type(c) is Fraction for column in new.values() for _, c in column)


@pytest.mark.parametrize("n", [1, 2])
def test_pair_insertion_matches_oracle_for_structure_pairs(n):
    model = MODELS[n]
    for a, b in itertools.product("IJK", repeat=2):
        _assert_pair_insertion_matches(model.matrix(a), model.matrix(b), model.dim)


def integer_matrices(dim):
    entry = st.integers(-3, 3)
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def integer_matrix_pairs(draw):
    dim = draw(st.sampled_from([4, 8]))
    return draw(integer_matrices(dim)), draw(integer_matrices(dim)), dim


@given(integer_matrix_pairs())
@settings(max_examples=25, deadline=None)
def test_pair_insertion_matches_oracle_for_random_integer_matrices(case):
    _assert_pair_insertion_matches(*case)


def test_pair_insertion_matches_oracle_for_fraction_matrices():
    point = SpherePoint.from_parameters(Fraction(1, 3), Fraction(-2, 5))
    for n in (1, 2):
        model = MODELS[n]
        _assert_pair_insertion_matches(model.sphere_matrix(point), model.matrix("J"), model.dim)
