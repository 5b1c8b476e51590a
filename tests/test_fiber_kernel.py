"""The exact hot path against the code it replaced.

These oracles live here, kept only as the references the new code must
equal:

* `oracle_apply_operator` -- the former `forms.apply_operator`, which
  scaled every input polynomial and built a new `Polynomial` for every
  partial sum;
* `oracle_combine_operators` -- the former `forms.combine_operators`,
  which divided every entry into a Fraction.  `fraction_operators`
  rebuilds with it each operator the package keeps as int entries over a
  denominator (eta_2, eta_3, the B conditions and the type projectors at
  the axes), and applying the two must agree;
* the dense metric kernels of `conftest`, `oracle_transpose_times` and
  `oracle_conjugate` (the sandwich M^T b M of the former
  `BilinearForm.conjugate_by`): I, J and K now turn a metric into F_I,
  F_I into F_J, F_K and the metric's signature, and a potential's Hessian
  into the averaged Hessian's F_I through their index maps
  (`structures.axis_image`).  The tests check these against the dense
  products, check that a metric passes validation exactly when it is
  symmetric with A^T g A = g for A = I, J, K, and compare signatures with
  `exact_linalg.inertia` of the oracle metric;
* `oracle_sphere_matrix` -- an earlier `HypercomplexModel.sphere_matrix`,
  which built aI + bJ + cK in Fractions;
* `oracle_fiber_op` -- an earlier `structures._fiber_op`, which expanded
  that Fraction matrix (with `_wedge_expansion` and the insertion sum).
  The package now builds pullbacks and the real type projectors E_2 and
  E_3 at the axes only, with int entries.  The twistor certificate
  homogenizes the complex (0,2) and (0,3) projectors as polynomials in
  rho_P = a rho_I + b rho_J + c rho_K (`conftest.
  homogeneous_type_projector`); the tests below check them, and the jet
  residuals built from them, against the one- and two-slot insertion sums
  S1, S2 of the oracle off the axes, and twice their real part against
  `type_projector` at the axes, and the P* identities tie rho_P to the
  pullback at every sphere point;
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
from hktcalc.conventions import HESSIAN_AVERAGE_FACTOR
from hktcalc.documents import DocumentError, InputDocument
from hktcalc.forms import (
    FiberOperator,
    KForm,
    apply_operator,
    combine_operators,
    compose_operators,
    multi_indices,
)
from hktcalc.conventions import ConventionError
from hktcalc.geometry import (
    default_sample_points,
    hessian_kahler_form,
    is_hkt_definition,
    kahler_form,
    kahler_forms,
    signature_samples,
)
from hktcalc.salamon import _ETA_FROM_CASIMIR, ProjectorTable, is_salamon_11
from hktcalc.scalars import Polynomial, exact_coefficient, random_polynomial
from hktcalc.structures import (
    HypercomplexModel,
    _axis_operators,
    axis_derivations,
    axis_squares,
    type_projector,
)

from conftest import (
    FIXED_WITNESSES,
    JET_SCALE,
    SpherePoint,
    b_conditions,
    bundle_B,
    condition_rank,
    form_component_matrix,
    fraction_evaluate,
    fraction_inertia,
    homogeneous_projector_at,
    integer_sphere_matrix,
    operator_matrix,
    oracle_conjugate,
    oracle_transpose_times,
    oracle_twistor_residual,
    oracle_type_projector,
    random_sphere_points,
    routed_fiber_op,
    routed_operator,
    sphere_evaluate,
    sphere_matrix,
    structure_matrix,
    transpose,
)
from test_twistor_certificate import _basis_forms, jet_columns

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
    i_mat, j_mat, k_mat = (structure_matrix(model, name) for name in "IJK")
    return tuple(
        tuple(point.a * i_mat[r][c] + point.b * j_mat[r][c] + point.c * k_mat[r][c]
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
    return FiberOperator(op)


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
    return FiberOperator(op)


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
    op = FiberOperator(draw(st.dictionaries(indices, columns, max_size=12)))
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


def oracle_combine_operators(terms, shift=0, den=None):
    """(sum of c * op + shift * Id) / den with each entry divided into a Fraction."""
    total = {}
    for c, op in terms:
        for idx, column in op.items():
            acc = total.get(idx)
            if acc is None:
                total[idx] = acc = {idx: shift}
            for out_idx, v in column:
                acc[out_idx] = acc.get(out_idx, 0) + c * v
    return FiberOperator({idx: sorted((i, v if den is None else Fraction(v, den)) for i, v in acc.items() if v)
                          for idx, acc in total.items()})


@functools.lru_cache(maxsize=None)
def fraction_operators(n):
    """[(k, operator, oracle)]: each operator the package stores as int
    entries over a denominator (1 for the B^2 conditions, which
    `conftest.b_conditions` combines from the package's axis pullbacks),
    and the same operator with Fraction entries, rebuilt by
    `oracle_combine_operators` from the int axis operators as the package
    built it before."""
    model = HypercomplexModel(n)
    table = ProjectorTable(model)
    old = oracle_combine_operators
    pairs = [(k, table.columns[k], old([(-1, sq) for sq in axis_squares(model, k)], -shift, den))
             for k, (shift, den) in _ETA_FROM_CASIMIR.items()]
    b2 = [old([(1, _axis_operators(model, name, 2)[1])], -1, 1) for name in "IJK"]
    rho = axis_derivations(model, 3)
    b3 = ([old([(1, sq)], 1, 2) for sq in axis_squares(model, 3)]
          + [old([(1, compose_operators(rho[a], rho[b])), (1, compose_operators(rho[b], rho[a]))], 0, 2)
             for a, b in ((0, 1), (1, 2), (2, 0))])
    for k, oracles in ((2, b2), (3, b3)):
        conditions = b_conditions(model, k)
        assert len(conditions) == len(oracles)
        pairs += [(k, op, oracle) for op, oracle in zip(conditions, oracles)]
    for name in "IJK":
        for k, (shift, den) in ((2, (0, 4)), (3, (-1, 8))):
            square = axis_squares(model, k)["IJK".index(name)]
            pairs.append((k, type_projector(model, name, k), old([(-1, square)], shift, den)))
    return pairs


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_int_operators_over_den_apply_like_fraction_operators(data):
    n = data.draw(st.sampled_from([1, 2, 3]))
    pairs = fraction_operators(n)
    k, op, oracle = pairs[data.draw(st.integers(0, len(pairs) - 1))]
    coeffs = data.draw(st.sampled_from([st.integers(-3, 3), COEFFS]))
    indices = st.sampled_from(multi_indices(4 * n, k))
    exps = st.tuples(*[st.integers(0, 2)] * (4 * n))
    polys = st.dictionaries(exps, coeffs, max_size=3).map(lambda t: Polynomial(4 * n, t))
    form = data.draw(st.dictionaries(indices, polys, max_size=5).map(lambda t: KForm(k, 4 * n, t)))
    assert op.den >= 1 and all(type(v) is int for column in op.values() for _, v in column)
    out = apply_operator(op, form)
    assert out == oracle_apply_operator(oracle, form)
    assert _exact_form(out)
    # An integral output coefficient is stored as an int, not a Fraction.
    assert all(type(c) is int or c.denominator != 1 for p in out.terms.values() for c in p.terms.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_int_operators_over_den_have_the_fraction_matrices(n):
    for k, op, oracle in fraction_operators(n):
        assert operator_matrix(op, k, 4 * n) == operator_matrix(oracle, k, 4 * n)
        # Equal matrices over different denominators: dict's own != would
        # compare the columns.
        assert op == oracle and not op != oracle


def sphere_points():
    params = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    return st.builds(SpherePoint.from_parameters, params, params)


def bilinear_forms(dim):
    entry = st.one_of(st.just(Polynomial.zero(dim)), polynomials(dim))
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)


@st.composite
def bilinear_cases(draw):
    """(model, rows): raw, symmetric or averaged over {1, I, J, K}, n = 1 or 2."""
    model = MODELS[draw(st.sampled_from([1, 2]))]
    rows = draw(bilinear_forms(model.dim))
    kind = draw(st.sampled_from(["raw", "symmetric", "averaged"]))
    if kind != "raw":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(model.dim)] for i in range(model.dim)]
    if kind == "averaged":
        rows = _oracle_average(model, rows)
    return model, rows


def _oracle_kahler_rows(model, g):
    """F_I = I^T g, the dense oracle of g(I., .)."""
    return oracle_transpose_times(structure_matrix(model, "I"), g)


@given(bilinear_cases())
@settings(max_examples=60, deadline=None)
def test_kahler_form_matches_dense_oracle(case):
    """kahler_form reads g(I., .) off the index map of I; it is I^T g, and
    the form is refused exactly when I^T g does not alternate."""
    model, g = case
    d = model.dim
    comp = _oracle_kahler_rows(model, g)
    if all(comp[a][b] == -comp[b][a] for a in range(d) for b in range(a + 1)):
        f_i = kahler_form(model, g)
        assert f_i == KForm(2, d, {(a, b): comp[a][b] for a, b in itertools.combinations(range(d), 2)})
        assert _exact_form(f_i)
    else:
        with pytest.raises(ValueError, match="alternate"):
            kahler_form(model, g)


def _random_tensor(model, rng):
    """A sparse random polynomial 2-tensor, neither symmetric nor invariant."""
    d = model.dim
    zero = Polynomial.zero(d)
    return [[random_polynomial(d, 2, 2, seed=rng.randrange(2**31)) if rng.random() < 0.3 else zero
             for _ in range(d)] for _ in range(d)]


def _oracle_average(model, g):
    """g + sum_A A^T g A over A = I, J, K, with the dense oracle."""
    total = [list(row) for row in g]
    for name in "IJK":
        conj = oracle_conjugate(structure_matrix(model, name), g)
        total = [[p + q for p, q in zip(r, c)] for r, c in zip(total, conj)]
    return total


def _hyperhermitian_metric(model, rng):
    """The average of b + b^T over {1, I, J, K}, b a random tensor."""
    raw = _random_tensor(model, rng)
    return _oracle_average(model, [[p + q for p, q in zip(r, c)] for r, c in zip(raw, transpose(raw))])


def _oracle_metric(model, form):
    """g = -I^T F, the dense oracle of the metric a 2-form F = F_I fixes."""
    comp = oracle_transpose_times(structure_matrix(model, "I"), form_component_matrix(form))
    return [[-p for p in row] for row in comp]


def _oracle_hyperhermitian(model, g):
    """The dense oracle of a valid metric: symmetric, and A^T g A = g for A = I, J, K."""
    return g == transpose(g) and all(oracle_conjugate(structure_matrix(model, name), g) == g for name in "IJK")


def _validates(model, g):
    """Whether `hkt check` accepts g: a metric document's F_I, or None."""
    doc = {"kind": "metric", "model": {"n": model.n},
           "payload": {"g": [[p.to_json() for p in row] for row in g]}}
    try:
        return InputDocument.from_json(doc).payload
    except DocumentError:
        return None


@pytest.mark.parametrize("n", [1, 2])
def test_metric_validation_matches_dense_oracle(n):
    """A metric document is accepted exactly when the dense oracle calls
    its tensor hyperhermitian, on valid tensors, on valid tensors with one
    entry perturbed (or one symmetric pair), which breaks symmetry or
    invariance, and on random ones; an accepted metric enters as the
    oracle's F_I = I^T g."""
    model = HypercomplexModel(n)
    d = model.dim
    rng = random.Random(2600 + n)
    verdicts = []
    for case in range(30):
        g = _hyperhermitian_metric(model, rng) if case % 3 < 2 else _random_tensor(model, rng)
        if case % 3 == 1:
            a, b = rng.randrange(d), rng.randrange(d)
            bump = Polynomial.variable(d, rng.randrange(d)) + Polynomial.constant(d, rng.randint(1, 3))
            g = [list(row) for row in g]
            g[a][b] = g[a][b] + bump
            if rng.random() < 0.5:
                g[b][a] = g[a][b]
        expected = _oracle_hyperhermitian(model, g)
        f_i = _validates(model, g)
        assert (f_i is not None) == expected
        if expected:
            comp = _oracle_kahler_rows(model, g)
            assert f_i == KForm(2, d, {(a, b): comp[a][b] for a, b in itertools.combinations(range(d), 2)})
        verdicts.append(expected)
    assert verdicts.count(True) == 10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hessian_kahler_form_matches_dense_oracle(n):
    """hessian_kahler_form, built as (1 + I* - J* - K*) alt H(I., .), is
    the F_I = I^T G of the dense average G = HESSIAN_AVERAGE_FACTOR (H +
    sum_A A^T H A) of the Hessian H."""
    model = HypercomplexModel(n)
    d = model.dim
    rng = random.Random(2700 + n)
    nonzero = 0
    for _ in range(3 if n < 3 else 1):
        mu = random_polynomial(d, 3, 4, seed=rng.randrange(2**31))
        h = [[mu.partial(i).partial(j) for j in range(d)] for i in range(d)]
        avg = [[p.scale(HESSIAN_AVERAGE_FACTOR) for p in row] for row in _oracle_average(model, h)]
        assert _oracle_hyperhermitian(model, avg)
        comp = _oracle_kahler_rows(model, avg)
        expected = KForm(2, d, {(a, b): comp[a][b] for a, b in itertools.combinations(range(d), 2)})
        assert hessian_kahler_form(model, mu) == expected == kahler_form(model, avg)
        nonzero += not expected.is_zero()
    assert nonzero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_metric_actions_match_dense_oracles(n):
    """kahler_form, kahler_forms and the signature samples read the index
    maps; F_A = A^T g, g = -I^T F_I and the inertia of g at each sample
    point must give the same."""
    model = HypercomplexModel(n)
    d = model.dim
    rng = random.Random(2500 + n)
    for _ in range(3):
        tensor = _hyperhermitian_metric(model, rng)
        expected = []
        for name in "IJK":
            comp = oracle_transpose_times(structure_matrix(model, name), tensor)
            assert all(comp[a][b] == -comp[b][a] for a in range(d) for b in range(d))
            expected.append(KForm(2, d, {(a, b): comp[a][b] for a, b in itertools.combinations(range(d), 2)}))
        f_i = kahler_form(model, tensor)
        assert f_i == expected[0]
        assert kahler_forms(model, f_i) == tuple(expected)
        assert _oracle_metric(model, f_i) == tensor
        points = default_sample_points(d)
        counts = [(s["positive"], s["negative"], s["zero"]) for s in signature_samples(model, f_i, points)]
        assert counts == [ela.inertia([[p.evaluate(pt) for p in row] for row in tensor]) for pt in points]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signature_samples_match_the_fraction_oracle_at_mixed_denominators(n):
    """The inertia at each point equals the former Fraction elimination of
    the dense oracle metric, evaluated term by term in Fractions, with
    unlike denominators in the coefficients and in the points."""
    model = HypercomplexModel(n)
    d = model.dim
    rng = random.Random(2600 + n)
    for _ in range(3):
        parts = [_hyperhermitian_metric(model, rng) for _ in range(2)]
        weights = (Fraction(1, 7), Fraction(5, 10**9 + 7))
        tensor = [[a.scale(weights[0]) + b.scale(weights[1]) for a, b in zip(ra, rb)] for ra, rb in zip(*parts)]
        if rng.random() < 0.5:
            tensor = [[p + Polynomial.constant(d, 3) if i == j else p for j, p in enumerate(row)]
                      for i, row in enumerate(tensor)]
        points = [tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10**6, 2**40])) for _ in range(d))
                  for _ in range(4)] + [(0,) * d]
        samples = signature_samples(model, kahler_form(model, tensor), points)
        counts = [(s["positive"], s["negative"], s["zero"]) for s in samples]
        assert counts == [fraction_inertia([[fraction_evaluate(p, pt) for p in row] for row in tensor]) for pt in points]


def _klein_projection(model, form, signs):
    """(1 + s_I I*)(1 + s_J J*)/4: the projection of 2-forms onto the character
    of the Klein four-group {1, I*, J*, K*} with I* = s_I, J* = s_J."""
    s_i, s_j = signs
    op_i, op_j = model.operator("I"), model.operator("J")
    half = form + op_i.pullback(form) * s_i
    return (half + op_j.pullback(half) * s_j) * Fraction(1, 4)


@given(st.sampled_from([1, 2]), st.data())
@settings(max_examples=60, deadline=None)
def test_oracle_metric_of_a_form_is_hyperhermitian_exactly_on_type_11(n, data):
    """is_salamon_11(F) holds exactly when the oracle g = -I^T F is
    hyperhermitian by the dense oracle, and exactly when the definition
    check, which reads F_J and F_K off F, accepts F."""
    model = MODELS[n]
    form = data.draw(kforms(model.dim, 2))
    signs = data.draw(st.sampled_from([None, (1, 1), (1, -1), (-1, 1), (-1, -1)]))
    if signs is not None:
        form = _klein_projection(model, form, signs)
    tensor = _oracle_metric(model, form)
    assert _oracle_hyperhermitian(model, tensor) == is_salamon_11(model, form)
    if is_salamon_11(model, form):
        assert kahler_form(model, tensor) == form
        is_hkt_definition(model, form)
    else:
        with pytest.raises(ConventionError, match="not alternating"):
            is_hkt_definition(model, form)


def entries(op):
    """{(input index, output index): matrix entry} of a fiber operator, each
    stored entry over the operator's denominator, zeros dropped."""
    den = getattr(op, "den", 1)
    return {(in_idx, out_idx): Fraction(c, den) for in_idx, column in op.items() for out_idx, c in column if c}


def _assert_homogenized_projectors_match(model, point):
    """The homogenized pi02 and pi03 at `point` equal the dense oracle's
    pi02 = ((1 - S2) + i S1)/4 and pi03 = (1 - S2)/8 - i S1 (S2 - 1)/24,
    with S1, S2 its one- and two-slot insertion sums, and at an axis twice
    their real part is `type_projector`."""
    coords = point.as_tuple()
    axis = "IJK"[coords.index(1)] if 1 in coords else None
    for k in (2, 3):
        pair = [entries(op) for op in homogeneous_projector_at(model, point, k)]
        assert pair == [entries(op) for op in oracle_type_projector(model, point, k)], (model.n, point, k)
        if axis is not None:
            real = {key: 2 * x for key, x in pair[0].items()}
            assert real == entries(type_projector(model, axis, k)), (model.n, axis, k)


def _constant_form(model, k, terms):
    return KForm(k, model.dim, {idx: Polynomial.constant(model.dim, x) for idx, x in terms.items()})


def _assert_jet_residuals_match(model, point):
    """The sphere stack of the twistor certificate, evaluated at `point`, is
    JET_SCALE times the dense oracle's twistor residual of F = x_c v, for
    every jet (c, v)."""
    columns = jet_columns(model.n)
    for v, basis_form in enumerate(_basis_forms(model)):
        for c in range(model.dim):
            parts = {"re": {}, "im": {}}
            for key, x in columns[(c, v)].items():
                if key[0] == "sphere":
                    _, part, exponent, idx = key
                    parts[part].setdefault(exponent, {})[idx] = x
            at_point = [_constant_form(model, 3, sphere_evaluate(parts[part], point)) for part in ("re", "im")]
            oracle = oracle_twistor_residual(model, point, basis_form * Polynomial.variable(model.dim, c))
            assert at_point == [oracle.re * JET_SCALE, oracle.im * JET_SCALE], (model.n, point, c)


@pytest.mark.parametrize("n", [1, 2])
def test_homogenized_projectors_match_oracle_at_fixed_witnesses(n):
    # The three axes, where `type_projector` is compared too, and the
    # three mixed Pythagorean points.
    for point in FIXED_WITNESSES:
        _assert_homogenized_projectors_match(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=12, deadline=None)
def test_homogenized_projectors_match_oracle_at_random_points(point, n):
    _assert_homogenized_projectors_match(MODELS[n], point)


@pytest.mark.parametrize("n", [1, 2])
def test_homogenized_jet_residuals_match_oracle_at_fixed_witnesses(n):
    for point in FIXED_WITNESSES:
        _assert_jet_residuals_match(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=6, deadline=None)
def test_homogenized_jet_residuals_match_oracle_at_random_points(point, n):
    _assert_jet_residuals_match(MODELS[n], point)


def test_type_projectors_are_built_in_degrees_2_and_3_only():
    for k in (1, 4):
        with pytest.raises(ValueError, match="2- and 3-forms"):
            type_projector(MODELS[2], "J", k)


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
    op_int = FiberOperator({idx: [(i, exact_coefficient(c)) for i, c in column] for idx, column in op.items()})
    op_frac = FiberOperator({idx: [(i, Fraction(c)) for i, c in column] for idx, column in op.items()})

    def results(w, v, o):
        return [w + v, w - v, -w, w.d(), w.wedge(v), w.wedge(v.d()), apply_operator(o, w)]

    as_stored = results(form, other, op_int)
    as_fractions = results(_fraction_valued_form(form), _fraction_valued_form(other), op_frac)
    for r, rf in zip(as_stored, as_fractions):
        assert r == rf and _exact_form(r) and _exact_form(rf)


@given(bilinear_cases(), POINTS)
@settings(max_examples=40, deadline=None)
def test_int_and_fraction_values_give_equal_kahler_forms(case, point):
    model, b = case
    g = _oracle_average(model, [[p + q for p, q in zip(r, c)] for r, c in zip(b, transpose(b))])
    g_frac = [[_fraction_valued(p) for p in row] for row in g]
    f_i, f_frac = kahler_form(model, g), kahler_form(model, g_frac)
    assert f_i == f_frac
    assert _exact_form(f_i) and _exact_form(f_frac)
    point = (point * model.dim)[:model.dim]
    values = [[[p.evaluate(point) for p in row] for row in m] for m in (g, g_frac)]
    assert values[0] == values[1]
    assert all(type(v) is Fraction for m in values for row in m for v in row)


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


def test_sphere_matrix_is_checked(monkeypatch):
    import conftest

    point = SpherePoint(Fraction(3, 5), Fraction(4, 5), Fraction(0))
    broken = HypercomplexModel(1)
    # J = I: (aI + bI)^2 = -(a + b)^2 Id, not -Id
    monkeypatch.setitem(conftest.DENSE_BLOCKS, "J", conftest.DENSE_BLOCKS["I"])
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
    for point in list(FIXED_WITNESSES) + random_sphere_points(4, seed=20):
        _assert_integer_sphere_matrix_matches(MODELS[n], point)


@given(sphere_points(), st.sampled_from([1, 2]))
@settings(max_examples=30, deadline=None)
def test_integer_sphere_matrix_at_random_points(point, n):
    _assert_integer_sphere_matrix_matches(MODELS[n], point)


INT_MATRICES = [structure_matrix(MODELS[1], "I"),
                ((2, 0, 0, 1), (0, -3, 0, 0), (1, 0, 1, 0), (0, 0, 5, 1))]


@pytest.mark.parametrize("matrix", INT_MATRICES)
def test_builders_store_fractions_for_integer_matrices(matrix):
    ops = [(routed_operator(matrix, k, 4, s), k) for k in range(0, 4) for s in range(0, k + 1)]
    for op, k in ops:
        assert all(type(c) is Fraction for column in op.values() for _, c in column)
        assert all(type(c) is Fraction for row in operator_matrix(op, k, 4) for c in row)
    assert routed_operator(matrix, 0, 4, 0) == FiberOperator({(): [((), Fraction(1))]})


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
    mats = [structure_matrix(MODELS[n], name) for name in "IJK"]
    return {(i, j): oracle_pair_insertion_operator(mats[i], mats[j], k, MODELS[n].dim)
            for i in range(3) for j in range(3)}


def _assert_two_slot_sum_is_polarized(model, point):
    """The two-slot insertion sum at (a, b, c), read off the homogenized type
    projectors as S2 = 1 - 4 Re pi02 and 1 - 8 Re pi03, is
    sum_ij a_i a_j S(A_i, A_j)."""
    coords = point.as_tuple()
    for k, scale in ((2, -4), (3, -8)):
        pairs = structure_pair_oracle(model.n, k)
        expected = combination((coords[i] * coords[j], op) for (i, j), op in pairs.items())
        two_slot = combine_operators([(scale, homogeneous_projector_at(model, point, k)[0])], 1)
        assert entries(two_slot) == expected, (model.n, point, k)


def test_fixed_witnesses_determine_a_quadratic_form():
    evaluation = [[a * a, b * b, c * c, a * b, b * c, c * a]
                  for a, b, c in (point.as_tuple() for point in FIXED_WITNESSES)]
    assert ela.rank(evaluation) == 6


@pytest.mark.parametrize("n", [1, 2])
def test_pair_insertion_matches_oracle_for_structure_pairs(n):
    # At the six fixed witnesses, whose evaluation matrix on the quadratic
    # monomials is invertible, so these six identities determine every
    # S(A, B) of a structure pair from rho_I, rho_J and rho_K.
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
        _assert_polarization(sphere_matrix(model, point), structure_matrix(model, "J"), model.dim)


def oracle_b3_conditions(model, points):
    """The former degree-3 B conditions: S(A, A) - Id and S(A, B) for the
    structure pairs, then the two-slot insertion sum minus Id per extra point."""
    ops = []
    for a, b in [("I", "I"), ("J", "J"), ("K", "K"), ("I", "J"), ("J", "K"), ("K", "I")]:
        op = oracle_pair_insertion_operator(structure_matrix(model, a), structure_matrix(model, b), 3, model.dim)
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
