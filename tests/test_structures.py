import random
from fractions import Fraction

import pytest

from hktcalc import exact_linalg as ela
from hktcalc.batteries import random_kform
from hktcalc.forms import KForm, hessian, multi_indices, operator_matrix
from hktcalc.scalars import Polynomial, random_polynomial
from hktcalc.structures import (
    ComplexForm,
    HypercomplexModel,
    SpherePoint,
    complex_type_part,
    random_sphere_points,
    two_form_type_components,
)

from conftest import bilinear_from_constant, flat_form, norm_squared, routed_operator, sphere_operator


class TestStandardModel:
    def test_ij_on_first_basis_vector(self, model1):
        # IJ(e0) = I(e2) = e3 = K(e0), by explicit matrix products.
        ij = ela.mat_mul(model1.I, model1.J)
        col0 = [row[0] for row in ij]
        assert col0 == [row[0] for row in model1.K]
        assert col0 == [0, 0, 0, 1]

    def test_squares_to_minus_identity(self, model1):
        minus_id = ela.mat_scale(ela.identity(4), Fraction(-1))
        for name in ("I", "J", "K"):
            m = model1.matrix(name)
            assert ela.mat_eq(ela.mat_mul(m, m), minus_id)

    def test_n2_block_structure(self, model2):
        assert len(model2.I) == 8
        for name in ("I", "J", "K"):
            m = model2.matrix(name)
            for r in range(8):
                for c in range(8):
                    if (r // 4) != (c // 4):
                        assert m[r][c] == 0
                    else:
                        assert m[r][c] == m[r % 4][c % 4]

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            HypercomplexModel(0)


class TestSpherePoints:
    def test_axis_point_is_i(self, model1):
        op = sphere_operator(model1, SpherePoint.axis("I"))
        assert ela.mat_eq(op.matrix, model1.I)

    def test_pythagorean_point(self, model1):
        op = sphere_operator(model1, SpherePoint(Fraction(3, 5), Fraction(4, 5), Fraction(0)))
        minus_id = ela.mat_scale(ela.identity(4), Fraction(-1))
        assert ela.mat_eq(ela.mat_mul(op.matrix, op.matrix), minus_id)

    def test_two_thirds_point(self, model1):
        pt = SpherePoint(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
        op = sphere_operator(model1, pt)
        minus_id = ela.mat_scale(ela.identity(4), Fraction(-1))
        assert ela.mat_eq(ela.mat_mul(op.matrix, op.matrix), minus_id)

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError):
            SpherePoint(Fraction(1), Fraction(1), Fraction(0))

    def test_stereographic_parametrization(self):
        pt = SpherePoint.from_parameters(Fraction(1, 2), Fraction(-1, 3))
        assert pt.a**2 + pt.b**2 + pt.c**2 == 1

    def test_random_points_deterministic(self):
        assert random_sphere_points(4, seed=5) == random_sphere_points(4, seed=5)

    def test_random_points_avoid_the_axes(self):
        # u, v in {0, +-1} map to +-I, +-J or +-K; seed 8 draws -I first.
        for seed in range(300):
            for pt in random_sphere_points(5, seed):
                assert pt.as_tuple().count(0) < 2, (seed, pt)


class TestSignedAction:
    def test_i_on_dx0(self, model1):
        assert model1.operator("I").act(KForm.dx(4, 0)) == KForm.dx(4, 1)

    def test_i_fixes_dx01(self, model1):
        w = KForm.basis(4, (0, 1))
        assert model1.operator("I").act(w) == w

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_double_action_sign(self, model1, k):
        rng = random.Random(10 + k)
        op = model1.operator("I")
        for _ in range(10):
            w = random_kform(4, k, rng)
            expected = w if k % 2 == 0 else -w
            assert op.act(op.act(w)) == expected

    def test_sphere_operator_action_interpolates(self, model1):
        # At the I axis the sphere action equals the named action.
        w = random_kform(4, 2, random.Random(11))
        axis = sphere_operator(model1, SpherePoint.axis("I"))
        assert axis.act(w) == model1.operator("I").act(w)


class TestTwistedDifferential:
    def test_on_x0_squared(self, model1):
        f = KForm.from_polynomial(Polynomial.variable(4, 0) ** 2)
        d_i = model1.operator("I").twisted_d(f)
        assert d_i == KForm(1, 4, {(1,): Polynomial.variable(4, 0) * 2})

    def test_on_constant(self, model1):
        f = KForm.from_polynomial(Polynomial.constant(4, 9))
        assert model1.operator("I").twisted_d(f).is_zero()

    def test_d_then_twisted(self, model1):
        f = KForm.from_polynomial(Polynomial.variable(4, 0) ** 2)
        out = model1.operator("I").twisted_d(f).d()
        assert out == KForm.basis(4, (0, 1), coeff=2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_twisted_d_squares_to_zero(self, n, model1, model2):
        model = model1 if n == 1 else model2
        rng = random.Random(20 + n)
        for name in ("I", "J", "K"):
            op = model.operator(name)
            for k in (0, 1, 2):
                w = random_kform(model.dim, k, rng)
                assert op.twisted_d(op.twisted_d(w)).is_zero()

    def test_sphere_twisted_d_squares_to_zero(self, model1):
        rng = random.Random(23)
        for pt in random_sphere_points(3, seed=40):
            op = sphere_operator(model1, pt)
            w = random_kform(4, 1, rng)
            assert op.twisted_d(op.twisted_d(w)).is_zero()

    def test_anticommutation(self, model1):
        rng = random.Random(24)
        ops = {name: model1.operator(name) for name in ("I", "J", "K")}

        def diff(name, w):
            return w.d() if name == "d" else ops[name].twisted_d(w)

        names = ("d", "I", "J", "K")
        for i in range(40):
            w = random_kform(4, i % 3, rng)
            for ai, a in enumerate(names):
                for b in names[ai + 1:]:
                    assert (diff(a, diff(b, w)) + diff(b, diff(a, w))).is_zero()


class TestActBilinear:
    def test_identity_fixed(self, model1):
        delta = bilinear_from_constant([[int(i == j) for j in range(4)] for i in range(4)])
        assert model1.operator("I").act_bilinear(delta) == delta

    def test_hessian_of_half_norm(self, model1):
        h = hessian(norm_squared(4) * Fraction(1, 2))
        assert model1.operator("J").act_bilinear(h) == h

    def test_group_average_is_invariant(self, model1):
        rng = random.Random(30)
        entries = [[Polynomial.zero(4)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                p = random_polynomial(4, 2, 2, seed=rng.randrange(10**6))
                entries[i][j] = p
                entries[j][i] = p
        from hktcalc.forms import BilinearForm

        b = BilinearForm(entries, symmetric=True)
        avg = b
        for name in ("I", "J", "K"):
            avg = avg + model1.operator(name).act_bilinear(b)
        avg = avg.scale(Fraction(1, 4))
        for name in ("I", "J", "K"):
            assert model1.operator(name).act_bilinear(avg) == avg


class TestTypeDecomposition:
    def test_flat_form_has_no_02_part(self, model1):
        part = complex_type_part(model1, SpherePoint.axis("I"), flat_form("I"), "02")
        assert part.is_zero()

    def test_two_form_completeness(self, model1):
        rng = random.Random(31)
        pt = SpherePoint(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
        for _ in range(10):
            w = random_kform(4, 2, rng)
            comps = two_form_type_components(model1, pt, w)
            total = comps["20"] + comps["11"] + comps["02"]
            assert total == ComplexForm.real(w)

    def test_20_part_is_conjugate_of_02(self, model1):
        # For a real form the (2,0) part is the complex conjugate of the
        # (0,2) part; conjugation of a pair is (re, im) -> (re, -im).
        rng = random.Random(36)
        for pt in random_sphere_points(3, seed=51):
            w = random_kform(4, 2, rng)
            p02 = complex_type_part(model1, pt, w, "02")
            assert not p02.im.is_zero()
            assert complex_type_part(model1, pt, w, "20") == ComplexForm(p02.re, -p02.im)

    def test_02_projector_idempotent_and_kills_20(self, model1):
        rng = random.Random(32)
        for pt in random_sphere_points(3, seed=50):
            w = random_kform(4, 2, rng)
            p02 = complex_type_part(model1, pt, w, "02")
            assert complex_type_part(model1, pt, p02, "02") == p02
            assert complex_type_part(model1, pt, p02, "20").is_zero()
            p20 = complex_type_part(model1, pt, w, "20")
            assert complex_type_part(model1, pt, p20, "02").is_zero()

    def test_02_projector_against_eigenspace_oracle(self, model1):
        # Independent oracle: sigma_1 has eigenvalues (2i, 0, -2i) on the
        # (2,0)/(1,1)/(0,2) splitting, so the Lagrange interpolation
        # (s1^2 - 2i s1)/(-8) is the (0,2) projector: its real part is the
        # rational matrix -s1^2/8 and its imaginary part s1/4.
        pt = SpherePoint(Fraction(3, 5), Fraction(0), Fraction(4, 5))
        mat = [
            [pt.a * model1.I[r][c] + pt.b * model1.J[r][c] + pt.c * model1.K[r][c]
             for c in range(4)]
            for r in range(4)
        ]
        s1 = operator_matrix(routed_operator(mat, 2, 4, 1), 2, 4)
        real_part = ela.mat_scale(ela.mat_mul(s1, s1), Fraction(-1, 8))
        imag_part = ela.mat_scale(s1, Fraction(1, 4))
        basis = multi_indices(4, 2)

        def apply(matrix, w):
            vec = [w.terms.get(idx, Polynomial.zero(4)) for idx in basis]
            terms = {}
            for i, row in enumerate(matrix):
                acc = Polynomial.zero(4)
                for coeff, poly in zip(row, vec):
                    if coeff and not poly.is_zero():
                        acc = acc + poly.scale(coeff)
                if not acc.is_zero():
                    terms[basis[i]] = acc
            return KForm(2, 4, terms)

        rng = random.Random(33)
        for _ in range(5):
            w = random_kform(4, 2, rng)
            mine = complex_type_part(model1, pt, w, "02")
            assert mine == ComplexForm(apply(real_part, w), apply(imag_part, w))

    def test_three_form_extreme_parts(self, model1):
        rng = random.Random(34)
        pt = SpherePoint.axis("I")
        for _ in range(5):
            w = random_kform(4, 3, rng)
            p03 = complex_type_part(model1, pt, w, "03")
            p30 = complex_type_part(model1, pt, w, "30")
            assert complex_type_part(model1, pt, p03, "03") == p03
            assert complex_type_part(model1, pt, p03, "30").is_zero()
            # On R^4 there are no (3,0) or (0,3) forms: two complex dims.
            assert p03.is_zero() and p30.is_zero()

    def test_three_form_extreme_parts_n2(self, model2):
        rng = random.Random(35)
        pt = SpherePoint(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
        found_nonzero = False
        for _ in range(5):
            w = random_kform(8, 3, rng)
            p03 = complex_type_part(model2, pt, w, "03")
            assert complex_type_part(model2, pt, p03, "03") == p03
            assert complex_type_part(model2, pt, p03, "30").is_zero()
            found_nonzero = found_nonzero or not p03.is_zero()
        assert found_nonzero

    def test_bad_part_label(self, model1):
        with pytest.raises(ValueError):
            complex_type_part(model1, SpherePoint.axis("I"), KForm.zero(2, 4), "12")


class TestComplexForm:
    def _pair(self, seed):
        rng = random.Random(seed)
        return ComplexForm(random_kform(4, 2, rng), random_kform(4, 2, rng))

    def test_times_i_squares_to_minus_one(self):
        z = self._pair(40)
        assert z.times_i().times_i() == ComplexForm(-z.re, -z.im)
        assert z.times_i().times_i().times_i().times_i() == z

    def test_complex_linearity(self):
        a, b = self._pair(41), self._pair(42)
        q = Fraction(-3, 7)
        assert (a + b).times_i() == a.times_i() + b.times_i()
        assert (a - b) + b == a
        assert (a * q).times_i() == a.times_i() * q
        # d is real, so it commutes with multiplication by i.
        assert a.times_i().d() == a.d().times_i()

    def test_summary_counts_union_of_halves(self):
        re = KForm(2, 4, {(0, 1): Polynomial.constant(4, Fraction(5, 3))})
        im = KForm(2, 4, {(0, 1): Polynomial.constant(4, 1), (2, 3): Polynomial.constant(4, 7)})
        z = ComplexForm(re, im)
        assert z.nonzero_terms() == 2
        assert z.coefficient_height() == 7
        assert ComplexForm.real(KForm.zero(2, 4)).is_zero()
        assert not z.is_zero()


class TestAxisSquares:
    def test_cold_table_and_negative_report_compose_each_square_once(self, monkeypatch):
        # rho_A^2 is composed once per (n, axis, k) and shared by eta, the
        # B^3 conditions and the two-slot insertions at the axes.
        from hktcalc import structures
        from hktcalc.batteries import random_a11_form
        from hktcalc.forms import combine_operators, compose_operators
        from hktcalc.geometry import hkt_report
        from hktcalc.salamon import ProjectorTable

        monkeypatch.setattr(structures, "_FIBER_CACHE", {})
        squared = []

        def spy(a, b):
            if a is b:
                squared.append(a)
            return compose_operators(a, b)

        monkeypatch.setattr(structures, "compose_operators", spy)
        model = HypercomplexModel(2)
        report = hkt_report(ProjectorTable(model), random_a11_form(model, random.Random(504)))
        assert not report.twistor_ok
        rho = {(name, k): structures._axis_operators(model, name, k)[0] for name in "IJK" for k in (2, 3)}
        assert sorted(id(op) for op in squared) == sorted(id(op) for op in rho.values())
        for (name, k), op in rho.items():
            insertion = structures._fiber_op(model, SpherePoint.axis(name), k, "insert2")
            assert insertion == combine_operators([(1, compose_operators(op, op))], k, 2)
