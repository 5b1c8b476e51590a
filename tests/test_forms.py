import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktcalc.batteries import random_kform
from hktcalc.forms import (
    KForm,
    hessian,
    multi_indices,
    operator_matrix,
)
from hktcalc.scalars import Polynomial, random_polynomial

from conftest import DENSE_BLOCKS, constant_rows, norm_squared, pullback, routed_operator


def x(i, dim=4):
    return Polynomial.variable(dim, i)


class TestWedge:
    def test_basis_two_form(self):
        w = KForm.dx(4, 0).wedge(KForm.dx(4, 1))
        assert w == KForm(2, 4, {(0, 1): Polynomial.constant(4, 1)})

    def test_alternation(self):
        assert KForm.dx(4, 0).wedge(KForm.dx(4, 0)).is_zero()

    def test_even_degree_commutes(self):
        a = KForm.basis(4, (0, 1))
        b = KForm.basis(4, (2, 3))
        assert a.wedge(b) == b.wedge(a)

    def test_graded_sign(self):
        rng = random.Random(0)
        for i in range(30):
            ka, kb = 1 + i % 2, 1 + (i // 2) % 2
            a = random_kform(4, ka, rng)
            b = random_kform(4, kb, rng)
            sign = Fraction(-1) if (ka * kb) % 2 else Fraction(1)
            assert a.wedge(b) == b.wedge(a) * sign

    def test_over_degree_is_zero(self):
        a = KForm.basis(4, (0, 1, 2))
        b = KForm.basis(4, (1, 2, 3))
        assert a.wedge(b).is_zero()
        assert a.wedge(b).degree == 6

    def test_unsorted_basis_input_sign(self):
        assert KForm.basis(4, (1, 0)) == -KForm.basis(4, (0, 1))


class TestExteriorDerivative:
    def test_d_of_x0_dx1(self):
        w = KForm(1, 4, {(1,): x(0)})
        assert w.d() == KForm.basis(4, (0, 1))

    def test_leibniz_on_functions(self):
        f = KForm.from_polynomial(x(0) * x(1))
        expected = KForm(1, 4, {(0,): x(1), (1,): x(0)})
        assert f.d() == expected

    def test_d_squared_zero_random(self):
        rng = random.Random(1)
        for i in range(100):
            w = random_kform(4, i % 4, rng)
            assert w.d().d().is_zero()

    def test_graded_leibniz(self):
        rng = random.Random(2)
        for i in range(30):
            ka = i % 3
            a = random_kform(4, ka, rng)
            b = random_kform(4, 1 + i % 2, rng)
            sign = Fraction(-1) if ka % 2 else Fraction(1)
            assert a.wedge(b).d() == a.d().wedge(b) + a.wedge(b.d()) * sign

    def test_top_degree(self):
        top = KForm.basis(4, (0, 1, 2, 3))
        assert top.d().is_zero()

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_one_pass_d_is_the_sum_of_dx_c_wedge_partials(self, data):
        # The oracle builds d from `Polynomial.partial`, as d was built
        # before it made one pass over the coefficient triples.
        dim = data.draw(st.sampled_from([4, 8, 12]))
        k = data.draw(st.integers(0, dim))
        coeffs = data.draw(st.sampled_from([INT_COEFFS, FRACTION_COEFFS]))
        form = data.draw(sparse_kforms(dim, k, coeffs))
        expected = KForm.zero(k + 1, dim)
        for c in range(dim):
            partial = KForm(k, dim, {idx: p.partial(c) for idx, p in form.terms.items()})
            expected = expected + KForm.dx(dim, c).wedge(partial)
        assert form.d() == expected
        assert form.d().degree == k + 1
        if k == dim:
            assert form.d().is_zero()


INT_COEFFS = st.integers(-3, 3)
FRACTION_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@functools.lru_cache(maxsize=None)
def _indices(dim, k):
    return multi_indices(dim, k)


@st.composite
def sparse_kforms(draw, dim, k, coeffs):
    """A few components of a few terms each; exponents up to 3, so some
    partials vanish and some outputs cancel."""
    indices = _indices(dim, k)
    exps = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)
    polys = st.dictionaries(exps, coeffs, max_size=4).map(lambda t: Polynomial(dim, t))
    terms = draw(st.lists(st.tuples(st.integers(0, len(indices) - 1), polys), max_size=4))
    return KForm(k, dim, {indices[i]: p for i, p in terms})


class TestPullback:
    def test_identity(self):
        rng = random.Random(3)
        ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        for k in (0, 1, 2, 3):
            w = random_kform(4, k, rng)
            assert pullback(w, ident) == w

    def test_slots_only_dx01_under_standard_i(self):
        w = KForm.basis(4, (0, 1))
        assert pullback(w, DENSE_BLOCKS["I"]) == w

    def test_contravariant_functoriality(self):
        rng = random.Random(4)
        for seed in range(10):
            a = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            b = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
            ba = [[sum(b[i][k] * a[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
            w = random_kform(4, 2, rng)
            assert pullback(pullback(w, b), a) == pullback(w, ba)

    def test_linearity(self):
        rng = random.Random(5)
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        u = random_kform(4, 2, rng)
        v = random_kform(4, 2, rng)
        assert pullback(u + v, a) == pullback(u, a) + pullback(v, a)


class TestHessian:
    def test_half_norm_squared(self):
        h = hessian(norm_squared(4) * Fraction(1, 2))
        assert h == constant_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])

    def test_cross_term(self):
        h = hessian(x(0) * x(1))
        expected = [[0] * 4 for _ in range(4)]
        expected[0][1] = expected[1][0] = 1
        assert h == constant_rows(expected)

    def test_affine_vanishes(self):
        f = x(0) * 3 - x(2) + Polynomial.constant(4, 5)
        assert all(p.is_zero() for row in hessian(f) for p in row)

    def test_symmetry_random(self):
        for seed in range(10):
            h = hessian(random_polynomial(4, 4, 5, seed=seed))
            assert all(h[i][j] == h[j][i] for i in range(4) for j in range(4))

    def test_trace(self):
        h = hessian(norm_squared(4))
        assert sum((h[i][i] for i in range(4)), Polynomial.zero(4)) == Polynomial.constant(4, 8)


def at_point(form, point):
    """The constant form of the values of each component at `point`."""
    return KForm(form.degree, form.dim, {idx: p.evaluate(point) for idx, p in form.terms.items()})


class TestFormEvaluation:
    def test_evaluation_commutes_with_wedge(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_kform(4, 1, rng)
            b = random_kform(4, 2, rng)
            pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
            assert at_point(a.wedge(b), pt) == at_point(a, pt).wedge(at_point(b, pt))

    def test_d_against_central_differences(self):
        # (dw)_J at a point vs central differences of the components of w.
        rng = random.Random(8)
        h = 1e-4
        w = random_kform(4, 1, rng, n_components=3)
        dw = w.d()
        pt = [0.3, -0.2, 0.5, 0.1]
        for (a, b), poly in dw.terms.items():
            exact = poly.evaluate(pt)
            approx = 0.0
            # (dw)(e_a, e_b) = d_a w_b - d_b w_a by finite differences
            for sign, diff_axis, comp in ((1, a, (b,)), (-1, b, (a,))):
                up = list(pt)
                down = list(pt)
                up[diff_axis] += h
                down[diff_axis] -= h
                w_up = w.coefficient(comp).evaluate(up)
                w_down = w.coefficient(comp).evaluate(down)
                approx += sign * (w_up - w_down) / (2 * h)
            assert abs(exact - approx) < 5e-6


class TestKFormJson:
    def test_round_trip(self):
        rng = random.Random(9)
        w = random_kform(4, 2, rng, n_components=3)
        assert KForm.from_json(w.to_json()) == w

    def test_gaussian_keys_rejected(self):
        doc = KForm(2, 4, {(0, 1): random_polynomial(4, 2, 3, seed=31)}).to_json()
        doc["terms"][0]["poly"]["terms"][0].update({"inum": "1", "iden": "2"})
        with pytest.raises(ValueError, match="inum/iden"):
            KForm.from_json(doc)

    @pytest.mark.parametrize("field", ["k", "dim", "idx"])
    def test_non_integer_fields_rejected(self, field):
        doc = KForm.basis(4, (0, 2)).to_json()
        if field == "idx":
            doc["terms"][0]["idx"][1] = 2.5
        else:
            doc[field] = float(doc[field])
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            KForm.from_json(doc)

    def test_schema_keys(self):
        doc = KForm.basis(4, (0, 2)).to_json()
        assert set(doc) == {"k", "dim", "terms"}
        assert doc["terms"][0]["idx"] == [0, 2]


class TestOperatorMatrix:
    def test_pullback_matrix_identity(self):
        ident = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        op = routed_operator(ident, 2, 4, 2)
        mat = operator_matrix(op, 2, 4)
        n = len(multi_indices(4, 2))
        assert mat == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
