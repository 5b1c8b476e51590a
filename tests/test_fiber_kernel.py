"""The exact hot path against the code it replaced.

These oracles live here, kept only as the references the new code must
equal:

* `oracle_apply_operator` -- the former `forms.apply_operator`, which
  scaled every input polynomial and built a new `Polynomial` for every
  partial sum;
* `oracle_conjugate_by` -- the former dense O(dim^4) `BilinearForm.conjugate_by`;
* `oracle_sphere_matrix` -- an earlier `HypercomplexModel.sphere_matrix`,
  which built aI + bJ + cK in Fractions;
* `oracle_fiber_op` -- an earlier `structures._fiber_op`, which expanded
  that Fraction matrix (with `_wedge_expansion` and the insertion sum).
  The package now builds the insertions as rho_P = a rho_I + b rho_J +
  c rho_K and (rho_P^2 + k)/2 from the axis derivations, and pullbacks at
  the axes only; the P* identities below tie rho_P to the pullback at
  every sphere point;
* `oracle_pair_insertion_operator` -- the former
  `forms.pair_insertion_operator` S(A, B), the symmetrized insertion of two
  maps into two distinct slots, which built the degree-3 B conditions.
  Those conditions are now the six coefficient conditions
  (rho_A^2 + 1)/2 and (rho_A rho_B + rho_B rho_A)/2; the polarization
  S(aI + bJ + cK) = sum_ij a_i a_j S(A_i, A_j) that makes the condition
  sets equivalent is checked against it.

The wedge-expansion builder `routed_operator` and the sphere matrices
come from `conftest`, where they are kept as oracles.

All arithmetic is exact, so new and old results must be equal, not close.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktcalc import exact_linalg as ela
from hktcalc.forms import (
    BilinearForm,
    KForm,
    apply_operator,
    combine_operators,
    compose_operators,
    multi_indices,
    operator_matrix,
)
from hktcalc.salamon import bundle_B
from hktcalc.scalars import Polynomial
from hktcalc.structures import (
    HypercomplexModel,
    SpherePoint,
    _fiber_op,
    random_sphere_points,
)

from conftest import (
    FIXED_WITNESSES,
    condition_rank,
    default_sphere_witnesses,
    integer_sphere_matrix,
    routed_fiber_op,
    routed_operator,
    sphere_matrix,
)

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


def oracle_sphere_matrix(model, point):
    return tuple(
        tuple(point.a * model.I[r][c] + point.b * model.J[r][c] + point.c * model.K[r][c]
              for c in range(model.dim))
        for r in range(model.dim)
    )


def oracle_fiber_op(model, point, k, kind):
    """Pullback (all k slots) or the one- or two-slot insertion sum, in Fractions."""
    rows = [[(j, Fraction(v)) for j, v in enumerate(row) if v] for row in oracle_sphere_matrix(model, point)]
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
                            sphere_points().map(lambda point: sphere_matrix(model, point))))
    return BilinearForm(entries), matrix


@given(bilinear_cases())
@settings(max_examples=60, deadline=None)
def test_conjugate_by_matches_dense_oracle(case):
    b, matrix = case
    new, old = b.conjugate_by(matrix), oracle_conjugate_by(b, matrix)
    assert new == old and new.symmetric == old.symmetric
    assert all(_canonical(p) for row in new.entries for p in row)


def _assert_fiber_op_matches(model, point):
    # Pullbacks are built at the axes only.
    is_axis = point.as_tuple().count(0) == 2
    for kind, degrees in KINDS.items():
        if kind == "pullback" and not is_axis:
            continue
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


def test_pullback_is_built_at_the_axes_only():
    with pytest.raises(ValueError, match="axes"):
        _fiber_op(MODELS[1], FIXED_WITNESSES[3], 2, "pullback")


def entries(op):
    """{(input index, output index): coeff} of a fiber operator, zeros dropped."""
    return {(in_idx, out_idx): c for in_idx, column in op.items() for out_idx, c in column if c}


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=12, deadline=None)
def test_pullback_is_a_polynomial_in_rho_at_random_points(point, n):
    # P* acts as i^(p-q) and rho_P as i(p - q) on (p,q)-forms, so
    # P* = 1 + rho_P^2/2 on 2-forms and (7 rho_P + rho_P^3)/6 on 3-forms.
    model = MODELS[n]
    rho2, rho3 = (_fiber_op(model, point, k, "insert1") for k in (2, 3))
    pull2, pull3 = (routed_fiber_op(model, point, k, k) for k in (2, 3))
    assert entries(combine_operators([(2, pull2)])) == entries(combine_operators([(1, compose_operators(rho2, rho2))], 2))
    cube = compose_operators(rho3, compose_operators(rho3, rho3))
    assert entries(combine_operators([(6, pull3)])) == entries(combine_operators([(7, rho3), (1, cube)]))


def test_sphere_matrix_is_checked():
    point = SpherePoint(Fraction(3, 5), Fraction(4, 5), Fraction(0))
    broken = HypercomplexModel(1)
    broken.J = broken.I  # (aI + bI)^2 = -(a + b)^2 Id, not -Id
    with pytest.raises(AssertionError):
        sphere_matrix(broken, point)
    with pytest.raises(AssertionError):
        integer_sphere_matrix(broken, point)


def _assert_integer_sphere_matrix_matches(model, point):
    den, mat = integer_sphere_matrix(model, point)
    assert all(type(v) is int for row in mat for v in row)
    assert den == math.lcm(*(v.denominator for v in point.as_tuple()))
    fractions = tuple(tuple(Fraction(v, den) for v in row) for row in mat)
    assert fractions == sphere_matrix(model, point) == oracle_sphere_matrix(model, point)


@pytest.mark.parametrize("n", [1, 2])
def test_integer_sphere_matrix_over_den_is_the_fraction_matrix(n):
    for point in default_sphere_witnesses():
        _assert_integer_sphere_matrix_matches(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=30, deadline=None)
def test_integer_sphere_matrix_at_random_points(point, n):
    _assert_integer_sphere_matrix_matches(MODELS[n], point)


INT_MATRICES = [tuple(tuple(int(v) for v in row) for row in MODELS[1].I),
                ((2, 0, 0, 1), (0, -3, 0, 0), (1, 0, 1, 0), (0, 0, 5, 1))]


@pytest.mark.parametrize("matrix", INT_MATRICES)
def test_builders_store_fractions_for_integer_matrices(matrix):
    ops = [(routed_operator(matrix, k, 4, s), k) for k in range(0, 4) for s in range(0, k + 1)]
    for op, k in ops:
        assert all(type(c) is Fraction for column in op.values() for _, c in column)
        assert all(type(c) is Fraction for row in operator_matrix(op, k, 4) for c in row)
    assert routed_operator(matrix, 0, 4, 0) == {(): [((), Fraction(1))]}


def test_routed_operator_rejects_more_slots_than_degree():
    with pytest.raises(ValueError):
        routed_operator(INT_MATRICES[1], 2, 4, 3)


def combination(terms):
    """The entries of sum c * op over the (c, op) pairs in `terms`."""
    total = {}
    for c, op in terms:
        for key, value in entries(op).items():
            total[key] = total.get(key, 0) + c * value
    return {key: value for key, value in total.items() if value}


def _assert_polarization(a, b, dim):
    """S(a, b) = (R(a + b) - R(a) - R(b)) / 2, R the two-slot insertion sum."""
    a_plus_b = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    half = Fraction(1, 2)
    for k in (2, 3):
        pair = oracle_pair_insertion_operator(a, b, k, dim)
        polarized = [(half, routed_operator(a_plus_b, k, dim, 2)),
                     (-half, routed_operator(a, k, dim, 2)), (-half, routed_operator(b, k, dim, 2))]
        assert combination(polarized) == entries(pair), (a, b, k)


@functools.cache
def structure_pair_oracle(n, k):
    """oracle_pair_insertion_operator(A_i, A_j) for the structures (I, J, K) of MODELS[n]."""
    mats = [MODELS[n].matrix(name) for name in "IJK"]
    return {(i, j): oracle_pair_insertion_operator(mats[i], mats[j], k, MODELS[n].dim)
            for i in range(3) for j in range(3)}


def _assert_insert2_is_polarized(model, point):
    """The cached two-slot insertion sum at (a, b, c) is sum_ij a_i a_j S(A_i, A_j)."""
    coords = point.as_tuple()
    for k in (2, 3):
        pairs = structure_pair_oracle(model.n, k)
        expected = combination((coords[i] * coords[j], op) for (i, j), op in pairs.items())
        assert entries(_fiber_op(model, point, k, "insert2")) == expected, (model.n, point, k)


def test_fixed_witnesses_determine_a_quadratic_form():
    evaluation = [[a * a, b * b, c * c, a * b, b * c, c * a]
                  for a, b, c in (point.as_tuple() for point in FIXED_WITNESSES)]
    assert ela.rank(evaluation) == 6


@pytest.mark.parametrize("n", [1, 2])
def test_pair_insertion_matches_oracle_for_structure_pairs(n):
    # At the six fixed witnesses, whose evaluation matrix on the quadratic
    # monomials is invertible, so these six identities determine every
    # S(A, B) of a structure pair from the cached operators.
    for point in FIXED_WITNESSES:
        _assert_insert2_is_polarized(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=10, deadline=None)
def test_insert2_is_polarized_pair_insertion_at_random_points(point, n):
    _assert_insert2_is_polarized(MODELS[n], point)


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
    _assert_polarization(*case)


def test_pair_insertion_matches_oracle_for_fraction_matrices():
    point = SpherePoint.from_parameters(Fraction(1, 3), Fraction(-2, 5))
    for n in (1, 2):
        model = MODELS[n]
        _assert_polarization(sphere_matrix(model, point), model.matrix("J"), model.dim)


def oracle_b3_conditions(model, points):
    """The former degree-3 B conditions: S(A, A) - Id and S(A, B) for the
    structure pairs, then the two-slot insertion sum minus Id per extra point."""
    ops = []
    for a, b in [("I", "I"), ("J", "J"), ("K", "K"), ("I", "J"), ("J", "K"), ("K", "I")]:
        op = oracle_pair_insertion_operator(model.matrix(a), model.matrix(b), 3, model.dim)
        ops.append(combine_operators([(1, op)], -1) if a == b else op)
    ops += [combine_operators([(1, oracle_fiber_op(model, pt, 3, "insert2"))], -1) for pt in points]
    return [row for op in ops for row in operator_matrix(op, 3, model.dim)]


@pytest.mark.parametrize("n", [1, 2])
def test_b3_conditions_match_the_pair_insertion_conditions(n):
    model = MODELS[n]
    for extra in ([], random_sphere_points(3, seed=41)):
        stacked = oracle_b3_conditions(model, extra)
        assert condition_rank(model, 3, extra) == ela.rank(stacked)
        assert bundle_B(model, 3).basis == ela.null_space(stacked)
