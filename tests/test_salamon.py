import random
from fractions import Fraction
from math import comb

import pytest

from hktcalc import exact_linalg as ela
from hktcalc.batteries import random_kform
from hktcalc.forms import KForm, combine_operators, compose_operators, multi_indices
from hktcalc.salamon import (
    DegreeError,
    ProjectorTable,
    a11_subspace,
    _condition_operators,
    is_salamon_11,
    proj_formula_D,
    salamon_D,
)
from hktcalc.scalars import Polynomial, random_polynomial
from hktcalc.structures import HypercomplexModel

from conftest import (
    bundle_B,
    condition_matrix,
    condition_rank,
    dense_projector,
    eta_matrix,
    flat_form,
    operator_matrix,
    quarter_norm_potential,
    random_sphere_points,
    routed_operator,
    salamon_DI,
    structure_matrix,
    table_json,
)


def eta2_closed_form(model: HypercomplexModel, form: KForm) -> KForm:
    """Test oracle: the closed-form degree-2 projector
    (1/2)(1-I) + (1/4)(1+I)(1-J).

    All actions slots-only; on 2-forms these agree with the signed action.
    An independent code path, compared with the matrix projector.
    """
    if form.degree != 2:
        raise ValueError("expected a 2-form")
    op_i = model.operator("I")
    op_j = model.operator("J")
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    part1 = (form - op_i.pullback(form)) * half
    tmp = form - op_j.pullback(form)
    part2 = (tmp + op_i.pullback(tmp)) * quarter
    return part1 + part2


class TestBundleDimensions:
    def test_n1_b3_is_everything(self, model1):
        sub = bundle_B(model1, 3)
        assert sub.rank == 4 == len(multi_indices(4, 3))

    def test_n1_b2_dimension(self, model1):
        assert bundle_B(model1, 2).rank == 3

    def test_n1_a11_dimension(self, model1):
        assert len(a11_subspace(model1)) == 1

    def test_n2_dimensions(self, model2):
        # Frozen from the exact null-space computation.
        assert bundle_B(model2, 2).rank == 10
        assert bundle_B(model2, 3).rank == 40
        assert len(a11_subspace(model2)) == 6

    def test_n2_rank_stable_under_extra_sphere_points(self, model2):
        base = condition_rank(model2, 3)
        extra = random_sphere_points(5, seed=77)
        assert condition_rank(model2, 3, extra) == base

    def test_unsupported_degree(self, model1):
        with pytest.raises(DegreeError):
            bundle_B(model1, 4)

    def test_b_invariant_under_structure_pullbacks(self, model1, model2):
        for model in (model1, model2):
            for k in (2, 3):
                sub = bundle_B(model, k)
                base_rank = ela.rank(sub.basis)
                for name in ("I", "J", "K"):
                    mat = operator_matrix(routed_operator(structure_matrix(model, name), k, model.dim, k), k, model.dim)
                    for vec in sub.basis:
                        image = [sum(x * y for x, y in zip(row, vec)) for row in mat]  # M v
                        assert ela.rank(sub.basis + [image]) == base_rank


class TestEta:
    def test_fixes_flat_kahler_form(self, table1):
        f = flat_form("I")
        assert table1.eta(f) == f

    def test_kills_anti_self_dual(self, table1):
        asd = KForm(2, 4, {(0, 1): Polynomial.constant(4, 1), (2, 3): Polynomial.constant(4, -1)})
        assert table1.eta(asd).is_zero()

    def test_idempotent_on_random_forms(self, table1, table2):
        rng = random.Random(50)
        for table in (table1, table2):
            for i in range(25):
                w = random_kform(table.model.dim, 2 + i % 2, rng)
                once = table.eta(w)
                assert table.eta(once) == once

    def test_identity_on_low_degrees(self, table1):
        rng = random.Random(51)
        f = random_kform(4, 0, rng)
        th = random_kform(4, 1, rng)
        assert table1.eta(f) == f
        assert table1.eta(th) == th

    def test_degree_above_three_rejected(self, table1):
        with pytest.raises(DegreeError):
            table1.eta(KForm.basis(4, (0, 1, 2, 3)))

    def test_rank_splitting(self, table1, table2):
        for table in (table1, table2):
            for k in (2, 3):
                total = len(multi_indices(table.model.dim, k))
                b_rank = bundle_B(table.model, k).rank
                eta_rank = ela.rank(eta_matrix(table, k))
                assert b_rank + eta_rank == total

    def test_closed_form_matches_matrix_projector(self, model1, table1, model2, table2):
        rng = random.Random(52)
        for model, table in ((model1, table1), (model2, table2)):
            for _ in range(15):
                w = random_kform(model.dim, 2, rng)
                assert eta2_closed_form(model, w) == table.eta(w)

    def test_alternative_hyperhermitian_inner_product_gives_same_projector(self, model2, table2):
        # Diagonal hyperhermitian metric with blocks (1,1,1,1,2,2,2,2):
        # the induced fiber weights change the inner product but not the
        # projector, because the Casimir is symmetric for every
        # hyperhermitian inner product.
        diag = [Fraction(1)] * 4 + [Fraction(2)] * 4
        for k in (2, 3):
            weights = []
            for idx in multi_indices(8, k):
                w = Fraction(1)
                for i in idx:
                    w *= diag[i]
                weights.append(w)
            sub = bundle_B(model2, k)
            alt = dense_projector(sub.basis, sub.ambient_dim, weights)
            assert alt == eta_matrix(table2, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_casimir_projectors_and_rank_formulas(self, n):
        # eta_k o eta_k = eta_k, so the trace of eta_k is its rank and
        # dim Lambda^k - trace is rank B^k: n(2n + 1) and C(4n,3) - 4 C(2n,3).
        table = ProjectorTable(HypercomplexModel(n))
        for k, b_rank in ((2, n * (2 * n + 1)), (3, comb(4 * n, 3) - 4 * comb(2 * n, 3))):
            eta = table.columns[k]
            square = compose_operators(eta, eta)
            # eta_k o eta_k is over den^2: its columns are den times eta_k's.
            assert square.den == eta.den ** 2
            assert {idx: [(i, v * eta.den) for i, v in column] for idx, column in eta.items()} == dict(square)
            trace = Fraction(sum(v for idx, column in eta.items() for out_idx, v in column if out_idx == idx), eta.den)
            assert comb(4 * n, k) - trace == b_rank
        # Every coefficient condition kills B^3 = image(Id - eta_3).
        complement = combine_operators([(-1, table.columns[3])], 1)
        for condition in table.conditions[3]:
            assert not any(compose_operators(condition, complement).values())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b3_condition_rank_formula(self, n):
        # rank = dim Lambda^3 - dim B^3 = 4 C(2n, 3), independently of eta.
        model = HypercomplexModel(n)
        assert ela.rank(condition_matrix(model, 3, _condition_operators(model, 3))) == 4 * comb(2 * n, 3)

    def test_table_build_needs_no_elimination(self, monkeypatch):
        model = HypercomplexModel(2)

        def refuse(*args, **kwargs):
            raise AssertionError("the projector table must not eliminate")

        for name in ("null_space", "rref"):
            monkeypatch.setattr(ela, name, refuse)
        table = ProjectorTable(model)
        assert set(table.columns) == {2, 3}

    def test_table_builds_each_degree_conditions_once(self, monkeypatch):
        # The B^2 and B^3 conditions are about half of a cold table build.
        import hktcalc.salamon as salamon

        degrees = []

        def spy(model, k):
            degrees.append(k)
            return _condition_operators(model, k)

        monkeypatch.setattr(salamon, "_condition_operators", spy)
        for n in (1, 2):
            degrees.clear()
            table = ProjectorTable(HypercomplexModel(n))
            assert degrees == [2, 3]
            assert set(table.conditions) == {2, 3}


class TestProjectedDifferential:
    @pytest.mark.parametrize("n", [1, 2])
    def test_d_squared_zero(self, n, table1, table2):
        table = table1 if n == 1 else table2
        rng = random.Random(60 + n)
        for _ in range(15):
            theta = random_kform(table.model.dim, 1, rng)
            assert salamon_D(table, salamon_D(table, theta)).is_zero()

    def test_two_code_paths_agree(self, table1):
        rng = random.Random(61)
        theta = KForm(1, 4, {(0,): Polynomial.variable(4, 1)})
        assert salamon_D(table1, theta) == proj_formula_D(table1.model, theta)
        for _ in range(20):
            theta = random_kform(4, 1, rng)
            assert salamon_D(table1, theta) == proj_formula_D(table1.model, theta)

    def test_d_of_exact_form_vanishes(self, table1):
        f = KForm.from_polynomial(random_polynomial(4, 3, 4, seed=62))
        assert salamon_D(table1, salamon_D(table1, f)).is_zero()

    def test_degree_limit(self, table1):
        with pytest.raises(DegreeError):
            salamon_D(table1, KForm.basis(4, (0, 1, 2)))


class TestTwistedProjectedDifferential:
    def test_affine_potential_gives_zero(self, table1):
        f = KForm.from_polynomial(Polynomial.variable(4, 2) * 5 + Polynomial.constant(4, 1))
        assert salamon_D(table1, salamon_DI(table1, f)).is_zero()

    def test_flat_potential_reproduces_kahler_form(self, table1):
        mu = KForm.from_polynomial(quarter_norm_potential(4))
        dd = salamon_D(table1, salamon_DI(table1, mu))
        assert dd == flat_form("I")

    def test_equals_twisted_d_on_functions(self, table1):
        f = KForm.from_polynomial(random_polynomial(4, 3, 3, seed=63))
        assert salamon_DI(table1, f) == table1.model.operator("I").twisted_d(f)


class TestSalamonType:
    def test_flat_form_is_11(self, model1):
        assert is_salamon_11(model1, flat_form("I"))

    def test_plain_two_form_is_not(self, model1):
        form = KForm.basis(4, (0, 1))
        assert is_salamon_11(model1, form) is False
        # dx0 ^ dx1 is I-invariant; the J condition is the one that fails.
        assert model1.operator("I").pullback(form) == form
        assert model1.operator("J").pullback(form) != -form

    def test_k_residual_follows(self, model1, model2):
        # On the computed A^{1,1} fiber the K residual vanishes with I, J.
        rng = random.Random(64)
        for model in (model1, model2):
            acc = KForm.zero(2, model.dim)
            for form in a11_subspace(model):
                acc = acc + form * random_polynomial(model.dim, 2, 2, seed=rng.randrange(10**6))
            assert is_salamon_11(model, acc)
            assert model.operator("K").pullback(acc) == -acc

    def test_wrong_degree(self, model1):
        with pytest.raises(ValueError):
            is_salamon_11(model1, KForm.basis(4, (0,)))


class TestProjectorExport:
    def test_json_shape(self, table1):
        doc = table_json(table1)
        assert doc["n"] == 1
        assert set(doc["eta"]) == {"2", "3"}
        mat = doc["eta"]["2"]
        assert len(mat) == 6 and len(mat[0]) == 6
