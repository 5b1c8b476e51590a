import itertools
import random
from fractions import Fraction

import pytest

from hktcalc import structures
from hktcalc.batteries import random_kform
from hktcalc.conventions import ConventionError
from hktcalc.forms import KForm, apply_operator, multi_indices
from hktcalc.scalars import Polynomial
from hktcalc.structures import (
    HypercomplexModel,
    _compose,
    axis_image,
    complex_type_part,
)

from conftest import (
    DENSE_BLOCKS,
    ComplexForm,
    SpherePoint,
    dense_mat_mul,
    flat_form,
    homogeneous_projector_at,
    operator_matrix,
    random_sphere_points,
    routed_operator,
    sphere_matrix,
    sphere_operator,
    structure_matrix,
)

MINUS_ID4 = [[-int(i == j) for j in range(4)] for i in range(4)]


def imaginary_spectrum_projector(s1, spectrum, target):
    """(Re, Im) of the product of (s1 - it)/(i(target - t)) over t in
    `spectrum`, t != target, in Fraction matrices: the projector onto the
    i*target eigenspace of a matrix s1 with eigenvalues it, t in `spectrum`."""
    size = len(s1)
    re = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    im = [[Fraction(0)] * size for _ in range(size)]
    for t in spectrum:
        if t == target:
            continue
        # (re + i im)(s1 - it) = (re s1 + t im) + i(im s1 - t re), then / i(target - t).
        x = [[a + t * b for a, b in zip(ra, rb)] for ra, rb in zip(dense_mat_mul(re, s1), im)]
        y = [[a - t * b for a, b in zip(ra, rb)] for ra, rb in zip(dense_mat_mul(im, s1), re)]
        scale = Fraction(1, target - t)
        re, im = [[v * scale for v in row] for row in y], [[-v * scale for v in row] for row in x]
    return re, im


def index_map(matrix) -> tuple:
    """The index map of a signed permutation matrix: (j, M[i][j]) per row i."""
    assert all(sorted(map(abs, row)) == [0] * (len(row) - 1) + [1] for row in matrix)
    return tuple(next((j, s) for j, s in enumerate(row) if s) for row in matrix)


def negated(image) -> tuple:
    return tuple((j, -s) for j, s in image)


class TestStandardModel:
    def test_ij_on_first_basis_vector(self):
        # IJ(e0) = I(e2) = e3 = K(e0), by explicit matrix products.
        ij = dense_mat_mul(DENSE_BLOCKS["I"], DENSE_BLOCKS["J"])
        col0 = [row[0] for row in ij]
        assert col0 == [row[0] for row in DENSE_BLOCKS["K"]]
        assert col0 == [0, 0, 0, 1]

    def test_squares_to_minus_identity(self):
        for name in ("I", "J", "K"):
            m = DENSE_BLOCKS[name]
            assert dense_mat_mul(m, m) == MINUS_ID4

    def test_n2_block_structure(self, model2):
        for name in ("I", "J", "K"):
            image = axis_image(model2, name)
            assert len(image) == 8
            for r, (c, s) in enumerate(image):
                assert r // 4 == c // 4 and (c % 4, s) == image[r % 4]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_maps_match_the_dense_blocks(self, n):
        # Ties the index tables to the hand-written blocks of conftest.
        model = HypercomplexModel(n)
        dense = {name: structure_matrix(model, name) for name in "IJK"}
        for name in "IJK":
            assert axis_image(model, name) == index_map(dense[name])
        for a, b in itertools.product("IJK", repeat=2):
            composed = _compose(axis_image(model, a), axis_image(model, b))
            assert composed == index_map(dense_mat_mul(dense[a], dense[b]))

    def test_ij_equal_k_forces_ji_equal_minus_k(self):
        # The model checks A^2 = -Id and IJ = K only.  Among all signed 4 x 4
        # permutations, every triple of square roots of -Id with IJ = K
        # also has JI = -K.
        perms = [tuple(zip(p, signs)) for p in itertools.permutations(range(4))
                 for signs in itertools.product((1, -1), repeat=4)]
        minus_id = tuple((i, -1) for i in range(4))
        roots = [m for m in perms if _compose(m, m) == minus_id]
        assert len(roots) == 12
        triples = [(i, j, _compose(i, j)) for i in roots for j in roots if _compose(i, j) in roots]
        assert len(triples) == 48
        assert all(_compose(j, i) == negated(k) for i, j, k in triples)

    @pytest.mark.parametrize("name, message", [("I", "I^2 != -Id"), ("J", "J^2 != -Id"),
                                               ("K", "K^2 != -Id"), ("IJ", "IJ != K")])
    def test_each_broken_identity_has_its_own_message(self, monkeypatch, name, message):
        table = structures._BLOCK_IMAGES
        if name == "IJ":
            # -K still squares to -Id, but IJ = K then fails.
            monkeypatch.setitem(table, "K", negated(table["K"]))
        else:
            # One flipped sign: A^2 sends e0 to +e0.
            (j, s), *rest = table[name]
            monkeypatch.setitem(table, name, ((j, -s), *rest))
        with pytest.raises(ConventionError) as info:
            HypercomplexModel(2)
        assert str(info.value) == message

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            HypercomplexModel(0)


class TestSpherePoints:
    def test_axis_point_is_i(self, model1):
        op = sphere_operator(model1, SpherePoint.axis("I"))
        assert op.matrix == structure_matrix(model1, "I")

    def test_pythagorean_point(self, model1):
        op = sphere_operator(model1, SpherePoint(Fraction(3, 5), Fraction(4, 5), Fraction(0)))
        assert dense_mat_mul(op.matrix, op.matrix) == MINUS_ID4

    def test_two_thirds_point(self, model1):
        pt = SpherePoint(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
        op = sphere_operator(model1, pt)
        assert dense_mat_mul(op.matrix, op.matrix) == MINUS_ID4

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
        assert model1.operator("I").act(KForm.basis(4, (0,))) == KForm.basis(4, (1,))

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


class TestTypeDecomposition:
    def test_flat_form_has_no_02_part(self, model1):
        assert complex_type_part(model1, "I", flat_form("I")).is_zero()

    @pytest.mark.parametrize("name", ["I", "J", "K"])
    def test_two_form_completeness(self, model1, name):
        # w = (w20 + w02) + w11, with the (1,1) part (w + A*w)/2 from the
        # oracle pullback.
        rng = random.Random(31)
        oracle = sphere_operator(model1, SpherePoint.axis(name))
        for _ in range(10):
            w = random_kform(4, 2, rng)
            w11 = (w + oracle.pullback(w)) * Fraction(1, 2)
            assert complex_type_part(model1, name, w) + w11 == w

    def test_2_projector_idempotent_and_kills_11(self, model1):
        rng = random.Random(32)
        for name in "IJK":
            w = random_kform(4, 2, rng)
            part = complex_type_part(model1, name, w)
            assert not part.is_zero()
            assert complex_type_part(model1, name, part) == part
            assert complex_type_part(model1, name, w - part).is_zero()

    @pytest.mark.parametrize("name", ["K", None])
    def test_02_projector_against_eigenspace_oracle(self, model1, model2, name):
        # Independent oracle: the one-slot insertion sum s1 acts as i(p - q)
        # on (p,q)-forms, so its eigenvalues are 2i, 0, -2i on 2-forms and
        # 3i, i, -i, -3i on 3-forms.  The Lagrange interpolant at -ki over
        # them, multiplied out in Fraction matrices, is the (0,k) projector:
        # twice its real part is the package's E_k at the axis K, and it is
        # the homogenized one off the axes.
        pt = SpherePoint.axis(name) if name else SpherePoint(Fraction(3, 5), Fraction(0), Fraction(4, 5))
        rng = random.Random(33)
        for model, k, spectrum in ((model1, 2, (2, 0, -2)), (model2, 3, (3, 1, -1, -3))):
            dim = model.dim
            mat = sphere_matrix(model, pt)
            s1 = operator_matrix(routed_operator(mat, k, dim, 1), k, dim)
            real_part, imag_part = imaginary_spectrum_projector(s1, spectrum, -k)
            basis = multi_indices(dim, k)

            def apply(matrix, w):
                vec = [w.terms.get(idx, Polynomial.zero(dim)) for idx in basis]
                terms = {}
                for i, row in enumerate(matrix):
                    acc = Polynomial.zero(dim)
                    for coeff, poly in zip(row, vec):
                        if coeff and not poly.is_zero():
                            acc = acc + poly.scale(coeff)
                    if not acc.is_zero():
                        terms[basis[i]] = acc
                return KForm(k, dim, terms)

            for _ in range(5):
                w = random_kform(dim, k, rng, 4)
                if name:
                    mine = complex_type_part(model, name, w)
                    assert mine == apply(real_part, w) * 2
                else:
                    mine = ComplexForm(*(apply_operator(op, w) for op in homogeneous_projector_at(model, pt, k)))
                    assert mine == ComplexForm(apply(real_part, w), apply(imag_part, w))
                assert not mine.is_zero()

    def test_three_form_extreme_parts(self, model1):
        rng = random.Random(34)
        for _ in range(5):
            # On R^4 there are no (3,0) or (0,3) forms: two complex dims.
            assert complex_type_part(model1, "I", random_kform(4, 3, rng)).is_zero()

    def test_three_form_extreme_parts_n2(self, model2):
        rng = random.Random(35)
        found_nonzero = False
        for _ in range(5):
            w = random_kform(8, 3, rng)
            part = complex_type_part(model2, "J", w)
            assert complex_type_part(model2, "J", part) == part
            assert complex_type_part(model2, "J", w - part).is_zero()
            found_nonzero = found_nonzero or not part.is_zero()
        assert found_nonzero

    def test_bad_degree(self, model1):
        with pytest.raises(ValueError, match="2- and 3-forms"):
            complex_type_part(model1, "I", KForm.zero(1, 4))


class TestAxisSquares:
    def test_cold_table_and_negative_report_compose_each_square_once(self, monkeypatch):
        # rho_A^2 is composed once per (n, axis, k) and shared by eta, the
        # B^3 conditions and the type projectors at the axes; the only other
        # squares are I*^2 and J*^2 on 2-forms, composed once by the Klein
        # law check of the (1,1) projector.
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
        pullbacks = [structures._axis_operators(model, name, 2)[1] for name in "IJ"]
        assert sorted(id(op) for op in squared) == sorted(id(op) for op in [*rho.values(), *pullbacks])
        for (name, k), op in rho.items():
            square = compose_operators(op, op)
            expected = combine_operators([(-1, square)], den=4) if k == 2 else combine_operators([(-1, square)], -1, 8)
            assert structures.type_projector(model, name, k) == expected
