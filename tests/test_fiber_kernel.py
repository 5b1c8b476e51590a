"""The exact hot path against the code it replaced.

These oracles live here, kept only as the references the new code must
equal:

* `oracle_apply_operator` -- the former `forms.apply_operator`, which
  scaled every input polynomial and built a new `Polynomial` for every
  partial sum;
* `oracle_conjugate_by` -- the dense sandwich M^T b M of the former
  `BilinearForm.conjugate_by`; I, J and K now act on 2-tensors, and turn
  metrics into Kahler forms and back, through their index maps
  (`structures.axis_image`), checked against it and against the dense
  `oracle_transpose_times` of `conftest`;
* `oracle_sphere_matrix` -- an earlier `HypercomplexModel.sphere_matrix`,
  which built aI + bJ + cK in Fractions;
* `oracle_fiber_op` -- an earlier `structures._fiber_op`, which expanded
  that Fraction matrix (with `_wedge_expansion` and the insertion sum).
  The package now builds pullbacks at the axes only, with int entries,
  and the (0,2) and (0,3) type projectors as polynomials in
  rho_P = a rho_I + b rho_J + c rho_K; the tests below check them against
  the one- and two-slot insertion sums S1, S2 of the oracle, and the P*
  identities tie rho_P to the pullback at every sphere point;
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
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktcalc import exact_linalg as ela
from hktcalc.batteries import random_kform
from hktcalc.forms import (
    BilinearForm,
    KForm,
    apply_operator,
    combine_operators,
    compose_operators,
    multi_indices,
    operator_matrix,
)
from hktcalc.geometry import HyperhermitianMetric, kahler_form, metric_from_form
from hktcalc.salamon import bundle_B, is_salamon_11
from hktcalc.scalars import Polynomial, exact_coefficient, random_polynomial
from hktcalc.structures import (
    HypercomplexModel,
    SpherePoint,
    StructureOperator,
    _axis_operators,
    axis_derivations,
    random_sphere_points,
    type_projector,
)

from conftest import (
    FIXED_WITNESSES,
    condition_rank,
    default_sphere_witnesses,
    form_component_matrix,
    integer_sphere_matrix,
    oracle_transpose_times,
    routed_fiber_op,
    routed_operator,
    sphere_matrix,
)

MODELS = {1: HypercomplexModel(1), 2: HypercomplexModel(2)}


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
    return BilinearForm(out)


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


def oracle_fiber_op(model, point, k, slots):
    """The `slots`-slot insertion sum on k-forms, in Fractions (slots = k is the pullback)."""
    rows = [[(j, Fraction(v)) for j, v in enumerate(row) if v] for row in oracle_sphere_matrix(model, point)]
    plain = [[(i, Fraction(1))] for i in range(model.dim)]
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
    """Tuple exponents of ints, nonzero int or Fraction values (never a bool
    or a float)."""
    return all(type(exp) is tuple and len(exp) == poly.dim and all(type(e) is int for e in exp)
               and type(c) in (int, Fraction) and c for exp, c in poly.terms.items())


def _exact_form(form):
    return all(_canonical(p) for p in form.terms.values())


# Small coefficient pools make cancellations, and so zero-dropping, common.
COEFFS = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(-1, 2), Fraction(1, 3)])


def polynomials(dim):
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    return st.dictionaries(exps, COEFFS, max_size=4).map(lambda t: Polynomial(dim, t))


def kforms(dim, k):
    indices = st.sampled_from(multi_indices(dim, k))
    return st.dictionaries(indices, polynomials(dim), max_size=5).map(lambda t: KForm(k, dim, t))


@st.composite
def forms_and_operators(draw):
    dim = draw(st.sampled_from([4, 8]))
    k = draw(st.integers(0, 3))
    indices = st.sampled_from(multi_indices(dim, k))
    form = draw(kforms(dim, k))
    columns = st.dictionaries(indices, COEFFS, max_size=4).map(lambda c: sorted(c.items()))
    op = draw(st.dictionaries(indices, columns, max_size=12))
    return op, form


@st.composite
def form_pairs_and_operators(draw):
    op, form = draw(forms_and_operators())
    return op, form, draw(kforms(form.dim, form.degree))


@given(forms_and_operators())
@settings(max_examples=150, deadline=None)
def test_apply_operator_matches_oracle(case):
    op, form = case
    out = apply_operator(op, form)
    assert out == oracle_apply_operator(op, form)
    assert _exact_form(out)


def sphere_points():
    params = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    return st.builds(SpherePoint.from_parameters, params, params)


def bilinear_forms(dim):
    entry = st.one_of(st.just(Polynomial.zero(dim)), polynomials(dim))
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def bilinear_cases(draw):
    """(model, b, axis name): b symmetric or not, n = 1 or 2."""
    model = MODELS[draw(st.sampled_from([1, 2]))]
    entries = draw(bilinear_forms(model.dim))
    if draw(st.booleans()):
        entries = [[entries[min(i, j)][max(i, j)] for j in range(model.dim)] for i in range(model.dim)]
    return model, BilinearForm(entries), draw(st.sampled_from("IJK"))


@given(bilinear_cases())
@settings(max_examples=60, deadline=None)
def test_conjugate_by_matches_dense_oracle(case):
    model, b, name = case
    new = model.operator(name).act_bilinear(b)
    assert new == oracle_conjugate_by(b, model.matrix(name))
    assert all(_canonical(p) for row in new.entries for p in row)


def _random_tensor(model, rng):
    """A sparse random polynomial 2-tensor, neither symmetric nor invariant."""
    d = model.dim
    return BilinearForm([[random_polynomial(d, 2, 2, seed=rng.randrange(2**31)) if rng.random() < 0.3 else 0
                          for _ in range(d)] for _ in range(d)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_metric_actions_match_dense_oracles(n):
    """act_bilinear, kahler_form and metric_from_form read the index map;
    the dense sandwich, F_A = A^T g and g = -I^T F must give the same."""
    model = HypercomplexModel(n)
    d = model.dim
    rng = random.Random(2500 + n)
    for _ in range(3):
        raw = _random_tensor(model, rng)
        for name in "IJK":
            assert model.operator(name).act_bilinear(raw) == oracle_conjugate_by(raw, model.matrix(name))
        # The average of b + b^T over {1, I, J, K} is a hyperhermitian metric.
        tensor = raw + BilinearForm([list(col) for col in zip(*raw.entries)])
        tensor = sum((oracle_conjugate_by(tensor, model.matrix(name)) for name in "IJK"), tensor)
        metric = HyperhermitianMetric(model, tensor)
        for name in "IJK":
            comp = oracle_transpose_times(model.matrix(name), tensor.entries)
            assert all(comp[a][b] == -comp[b][a] for a in range(d) for b in range(d))
            expected = KForm(2, d, {(a, b): comp[a][b] for a, b in itertools.combinations(range(d), 2)})
            assert kahler_form(metric, name) == expected
        form = kahler_form(metric, "I")
        comp = oracle_transpose_times(model.matrix("I"), form_component_matrix(form))
        assert metric_from_form(model, form).tensor == BilinearForm([[-p for p in row] for row in comp]) == tensor


def _klein_projection(model, form, signs):
    """(1 + s_I I*)(1 + s_J J*)/4: the projection of 2-forms onto the character
    of the Klein four-group {1, I*, J*, K*} with I* = s_I, J* = s_J."""
    s_i, s_j = signs
    op_i, op_j = model.operator("I"), model.operator("J")
    half = form + op_i.pullback(form) * s_i
    return (half + op_j.pullback(half) * s_j) * Fraction(1, 4)


@given(st.sampled_from([1, 2]), st.data())
@settings(max_examples=60, deadline=None)
def test_metric_from_form_raises_exactly_off_type_11(n, data):
    model = MODELS[n]
    form = data.draw(kforms(model.dim, 2))
    signs = data.draw(st.sampled_from([None, (1, 1), (1, -1), (-1, 1), (-1, -1)]))
    if signs is not None:
        form = _klein_projection(model, form, signs)
    if is_salamon_11(model, form):
        assert kahler_form(metric_from_form(model, form), "I") == form
    else:
        with pytest.raises(ValueError):
            metric_from_form(model, form)


def entries(op):
    """{(input index, output index): coeff} of a fiber operator, zeros dropped."""
    return {(in_idx, out_idx): c for in_idx, column in op.items() for out_idx, c in column if c}


def _assert_type_projectors_match(model, point):
    """pi02 = ((1 - S2) + i S1)/4 and pi03 = (1 - S2)/8 - i S1 (S2 - 1)/24,
    with S1, S2 the oracle's one- and two-slot insertion sums."""
    for k in (2, 3):
        s1, s2 = (routed_fiber_op(model, point, k, slots) for slots in (1, 2))
        if k == 2:
            expected = combine_operators([(-1, s2)], 1, 4), combine_operators([(1, s1)], den=4)
        else:
            s2_minus_1 = combine_operators([(1, s2)], -1)
            expected = combine_operators([(-1, s2)], 1, 8), combine_operators([(-1, compose_operators(s1, s2_minus_1))], den=24)
        pair = type_projector(model, point, k)
        assert [entries(op) for op in pair] == [entries(op) for op in expected], (model.n, point, k)
        assert all(type(c) is Fraction for op in pair for column in op.values() for _, c in column)


@pytest.mark.parametrize("n", [1, 2])
def test_type_projectors_match_oracle_at_fixed_witnesses(n):
    for point in FIXED_WITNESSES:
        _assert_type_projectors_match(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=12, deadline=None)
def test_type_projectors_match_oracle_at_random_points(point, n):
    _assert_type_projectors_match(MODELS[n], point)


def test_type_projectors_are_built_in_degrees_2_and_3_only():
    for k in (1, 4):
        with pytest.raises(ValueError, match="2- and 3-forms"):
            type_projector(MODELS[2], FIXED_WITNESSES[3], k)


@pytest.mark.parametrize("n", [1, 2])
def test_axis_pullbacks_are_int_and_keep_int_forms_int(n):
    model = MODELS[n]
    for name in "IJK":
        for k in range(0, 4):
            pull = _axis_operators(model, name, k)[1]
            assert entries(pull) == entries(oracle_fiber_op(model, SpherePoint.axis(name), k, k)), (n, name, k)
            assert all(type(c) is int for column in pull.values() for _, c in column)
            form = random_kform(model.dim, k, random.Random(100 * n + k), n_components=4)
            assert not form.is_zero() and _int_valued(form)
            moved = model.operator(name).pullback(form)
            assert moved == apply_operator(oracle_fiber_op(model, SpherePoint.axis(name), k, k), form)
            assert _int_valued(moved)


def _int_valued(form):
    return all(type(c) is int for poly in form.terms.values() for c in poly.terms.values())


@given(polynomials(4), polynomials(4), COEFFS, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_are_canonical(a, b, scalar, index):
    results = [a + b, a - b, a - a, -a, a * b, a * scalar, a.scale(scalar), a.scale(0),
               a.partial(index), Polynomial.zero(4)]
    for r in results:
        assert r == Polynomial(r.dim, r.terms)
        assert _canonical(r)


@given(form_pairs_and_operators())
@settings(max_examples=150, deadline=None)
def test_form_results_are_canonical(case):
    # +, -, wedge, d and apply_operator adopt their results through
    # KForm._raw unchecked; the public constructor re-validates each one.
    op, form, other = case
    results = [form + other, form - other, form - form, -form, form.wedge(other),
               form.wedge(other.d()), form.d(), form.d().d(), apply_operator(op, form)]
    for r in results:
        assert r == KForm(r.degree, r.dim, r.terms) and _exact_form(r)


def _fraction_valued(poly):
    """The same polynomial with every value a Fraction, adopted by `_raw`."""
    return Polynomial._raw(poly.dim, {e: Fraction(c) for e, c in poly.terms.items()})


def _fraction_valued_form(form):
    return KForm._raw(form.degree, form.dim, {i: _fraction_valued(p) for i, p in form.terms.items()})


# Integral values are ints and the rest Fractions, so each input below is
# built twice: as stored (ints where integral) and with every value a
# Fraction.  Both must give equal results.  Equality alone cannot see a
# float (0.5 == Fraction(1, 2)), so the value types are checked as well.
POINTS = st.tuples(*[st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))] * 4)


@given(polynomials(4), polynomials(4), st.sampled_from([-2, 3, Fraction(1, 3), Fraction(4, 2)]),
       st.integers(0, 3), POINTS)
@settings(max_examples=150, deadline=None)
def test_int_and_fraction_values_give_equal_polynomials(a, b, scalar, index, point):
    af, bf = _fraction_valued(a), _fraction_valued(b)

    def results(x, y):
        return [x + y, x - y, -x, x * y, x * scalar, x.scale(scalar), x.partial(index)]

    for r, rf, mixed in zip(results(a, b), results(af, bf), results(a, bf)):
        assert r == rf == mixed
        assert _canonical(r) and _canonical(rf) and _canonical(mixed)
    values = [a.evaluate(point), af.evaluate(point)]
    assert values[0] == values[1] and all(type(v) is Fraction for v in values)


@given(form_pairs_and_operators())
@settings(max_examples=100, deadline=None)
def test_int_and_fraction_values_give_equal_forms(case):
    op, form, other = case
    op_int = {idx: [(i, exact_coefficient(c)) for i, c in column] for idx, column in op.items()}
    op_frac = {idx: [(i, Fraction(c)) for i, c in column] for idx, column in op.items()}

    def results(w, v, o):
        return [w + v, w - v, -w, w.d(), w.wedge(v), w.wedge(v.d()), apply_operator(o, w)]

    as_stored = results(form, other, op_int)
    as_fractions = results(_fraction_valued_form(form), _fraction_valued_form(other), op_frac)
    for r, rf in zip(as_stored, as_fractions):
        assert r == rf and _exact_form(r) and _exact_form(rf)


@given(bilinear_cases(), POINTS)
@settings(max_examples=40, deadline=None)
def test_int_and_fraction_values_give_equal_conjugates(case, point):
    model, b, name = case
    b_frac = BilinearForm([[_fraction_valued(p) for p in row] for row in b.entries])
    op = model.operator(name)
    new, new_frac = op.act_bilinear(b), op.act_bilinear(b_frac)
    assert new == new_frac
    assert all(_canonical(p) for form in (new, new_frac) for row in form.entries for p in row)
    point = (point * b.dim)[:b.dim]
    values = [b.evaluate(point), b_frac.evaluate(point)]
    assert values[0] == values[1]
    assert all(type(v) is Fraction for m in values for row in m for v in row)


def test_pullback_is_built_at_the_axes_only():
    model, point = MODELS[1], FIXED_WITNESSES[3]
    with pytest.raises(ValueError, match="axes"):
        StructureOperator(model, point).pullback(KForm.basis(4, (0, 1)))


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=12, deadline=None)
def test_pullback_is_a_polynomial_in_rho_at_random_points(point, n):
    # P* acts as i^(p-q) and rho_P as i(p - q) on (p,q)-forms, so
    # P* = 1 + rho_P^2/2 on 2-forms and (7 rho_P + rho_P^3)/6 on 3-forms.
    model = MODELS[n]
    rho2, rho3 = (combine_operators(list(zip(point.as_tuple(), axis_derivations(model, k)))) for k in (2, 3))
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


def _assert_two_slot_sum_is_polarized(model, point):
    """The two-slot insertion sum at (a, b, c), read off the type projectors
    as S2 = 1 - 4 Re pi02 and 1 - 8 Re pi03, is sum_ij a_i a_j S(A_i, A_j)."""
    coords = point.as_tuple()
    for k, scale in ((2, -4), (3, -8)):
        pairs = structure_pair_oracle(model.n, k)
        expected = combination((coords[i] * coords[j], op) for (i, j), op in pairs.items())
        two_slot = combine_operators([(scale, type_projector(model, point, k)[0])], 1)
        assert entries(two_slot) == expected, (model.n, point, k)


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
        _assert_two_slot_sum_is_polarized(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=10, deadline=None)
def test_two_slot_sum_is_polarized_pair_insertion_at_random_points(point, n):
    _assert_two_slot_sum_is_polarized(MODELS[n], point)


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
    ops += [combine_operators([(1, oracle_fiber_op(model, pt, 3, 2))], -1) for pt in points]
    return [row for op in ops for row in operator_matrix(op, 3, model.dim)]


@pytest.mark.parametrize("n", [1, 2])
def test_b3_conditions_match_the_pair_insertion_conditions(n):
    model = MODELS[n]
    for extra in ([], random_sphere_points(3, seed=41)):
        stacked = oracle_b3_conditions(model, extra)
        assert condition_rank(model, 3, extra) == ela.rank(stacked)
        assert bundle_B(model, 3).basis == ela.null_space(stacked)
