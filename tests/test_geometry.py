import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from hktcalc.batteries import positive_conformal_factor, random_a11_form
from hktcalc.conventions import COFRAME_SIGN, ConventionError
from hktcalc.documents import DocumentError, InputDocument
from hktcalc.forms import KForm
from hktcalc.geometry import (
    PotentialForms,
    conformal_metric,
    default_sample_points,
    hessian_kahler_form,
    hkt_report,
    is_hkt_definition,
    is_hkt_potential,
    is_hkt_salamon,
    is_hkt_twistor,
    kahler_form,
    kahler_forms,
    potential_to_forms,
    signature_samples,
    theta_from_potential,
)
from hktcalc.salamon import is_salamon_11, salamon_D
from hktcalc.scalars import Polynomial, random_polynomial
from hktcalc.structures import HypercomplexModel

from conftest import (
    SpherePoint,
    coefficient,
    complex_laplacian,
    complex_laplacian_at,
    flat_form,
    homogeneous_projector_at,
    norm_squared,
    quarter_norm_potential,
    salamon_DI,
    sphere_twistor_residual,
)


def x(i, dim=4):
    return Polynomial.variable(dim, i)


def conformal(model, phi):
    return conformal_metric(model, phi)


def metric_document(model, rows):
    """A metric document's F_I: `InputDocument` validates the metric."""
    doc = {"kind": "metric", "model": {"n": model.n},
           "payload": {"g": [[p.to_json() for p in row] for row in rows]}}
    return InputDocument.from_json(doc).payload


# Two constructions no verdict of the package uses, kept here as test
# oracles: the coframe forms must equal the Kahler forms of the metric they
# induce, and a Kahler potential's forms must be closed HKT forms.

@dataclass
class CoframeForms:
    f_i: KForm
    f_j: KForm
    f_k: KForm
    metric: list
    sign: int


def coframe_forms(model: HypercomplexModel, alpha: KForm) -> CoframeForms:
    """The three 2-forms of a quaternionic coframe (alpha, Ia, Ja, Ka).

    Four-dimensional model only.  Uses the signed 1-form action; each
    output is certified against the Kahler form of the induced metric
    sum of squares of the coframe legs (global sign from the ledger).
    """
    if model.n != 1:
        raise ValueError("coframe construction is specific to n = 1")
    if alpha.degree != 1:
        raise ValueError("expected a 1-form")
    legs = {
        "a": alpha,
        "I": model.operator("I").act(alpha),
        "J": model.operator("J").act(alpha),
        "K": model.operator("K").act(alpha),
    }
    f_i = legs["a"].wedge(legs["I"]) + legs["J"].wedge(legs["K"])
    f_j = legs["a"].wedge(legs["J"]) + legs["K"].wedge(legs["I"])
    f_k = legs["a"].wedge(legs["K"]) + legs["I"].wedge(legs["J"])
    d = model.dim
    zero = Polynomial.zero(d)
    entries = [[zero for _ in range(d)] for _ in range(d)]
    for leg in legs.values():
        comps = [coefficient(leg, (i,)) for i in range(d)]
        for i in range(d):
            for j in range(d):
                entries[i][j] = entries[i][j] + comps[i] * comps[j]
    sign = Fraction(COFRAME_SIGN)
    # kahler_forms raises ConventionError unless the metric's F_I is (1,1).
    for kahler, f in zip(kahler_forms(model, kahler_form(model, entries)), (f_i, f_j, f_k)):
        if kahler != f * sign:
            raise ConventionError("coframe forms disagree with the induced metric")
    return CoframeForms(f_i, f_j, f_k, entries, COFRAME_SIGN)


def kahler_potential_to_forms(model: HypercomplexModel, nu: Polynomial) -> PotentialForms:
    """The three 2-forms a Kahler potential for I induces:

    F_I = d d_I nu,
    F_J = (1/2)(d d_J + d_K d_I) nu,
    F_K = (1/2)(d d_K + d_I d_J) nu.
    """
    f0 = KForm.from_polynomial(nu)
    half = Fraction(1, 2)
    op = {name: model.operator(name) for name in ("I", "J", "K")}
    f_i = op["I"].twisted_d(f0).d()
    f_j = (op["J"].twisted_d(f0).d() + op["K"].twisted_d(op["I"].twisted_d(f0))) * half
    f_k = (op["K"].twisted_d(f0).d() + op["I"].twisted_d(op["J"].twisted_d(f0))) * half
    return PotentialForms(f_i, f_j, f_k)


class TestMetricValidation:
    def test_flat_is_hyperhermitian(self, model1, flat1):
        assert metric_document(model1, flat1) == flat_form("I")

    def test_non_invariant_tensor_rejected(self, model1):
        entries = [[Polynomial.zero(4)] * 4 for _ in range(4)]
        for i in range(4):
            entries[i][i] = Polynomial.constant(4, 1)
        entries[0][0] = Polynomial.constant(4, 2)  # breaks I-invariance
        with pytest.raises(ValueError, match="alternate"):
            kahler_form(model1, entries)
        with pytest.raises(DocumentError, match=r"^payload \(metric\): "):
            metric_document(model1, entries)

    def test_j_breaking_tensor_rejected(self, model1):
        # diag(2, 2, 1, 1) is I-invariant, so its F_I alternates, but J
        # swaps e0 and e2: F_I is not of type (1,1).
        entries = [[Polynomial.constant(4, (2 if i < 2 else 1) if i == j else 0) for j in range(4)]
                   for i in range(4)]
        assert not is_salamon_11(model1, kahler_form(model1, entries))
        with pytest.raises(DocumentError, match="invariant under I, J and K"):
            metric_document(model1, entries)

    def test_non_symmetric_tensor_rejected(self, model1):
        entries = [[Polynomial.constant(4, int(i == j)) for j in range(4)] for i in range(4)]
        entries[0][1] = Polynomial.constant(4, 1)
        with pytest.raises(ValueError, match="symmetric"):
            kahler_form(model1, entries)

    def test_indefinite_metric_reported_not_rejected(self, model1):
        phi = x(0) * x(0) - Polynomial.constant(4, 2)
        metric = conformal(model1, phi)
        samples = signature_samples(model1, kahler_form(model1, metric), [(0, 0, 0, 0), (2, 0, 0, 0)])
        assert samples[0]["negative"] == 4
        assert samples[1]["positive"] == 4

    def test_signature_samples_are_exact(self, model1):
        # phi = x0^2 - 10^-12 is negative at the origin, zero at x0 = 10^-6
        # and positive at x0 = 1; a 1e-9 float tolerance called the first zero.
        tiny = Fraction(1, 10**12)
        metric = conformal(model1, x(0) * x(0) - Polynomial.constant(4, tiny))
        points = [(0, 0, 0, 0), (Fraction(1, 10**6), 0, 0, 0), (1, 0, 0, 0)]
        samples = signature_samples(model1, kahler_form(model1, metric), points)
        counts = [(s["positive"], s["negative"], s["zero"]) for s in samples]
        assert counts == [(0, 4, 0), (0, 0, 4), (4, 0, 0)]
        assert samples[1]["point"] == ["1/1000000", "0", "0", "0"]


class TestKahlerForm:
    def test_flat_i(self, model1, flat1):
        assert kahler_form(model1, flat1) == flat_form("I")

    def test_flat_j(self, model1, flat1):
        assert kahler_forms(model1, kahler_form(model1, flat1))[1] == flat_form("J")

    def test_flat_k(self, model1, flat1):
        assert kahler_forms(model1, kahler_form(model1, flat1))[2] == flat_form("K")

    def test_conformal_scales_linearly(self, model1):
        phi = Polynomial.constant(4, 1) + x(0) * x(0)
        assert kahler_form(model1, conformal(model1, phi)) == flat_form("I") * phi


class TestKahlerForms:
    def test_flat_forms(self, model1):
        assert kahler_forms(model1, flat_form("I")) == tuple(flat_form(name) for name in "IJK")

    def test_linearity(self, model1):
        assert kahler_forms(model1, flat_form("I") * 2) == tuple(flat_form(name) * 2 for name in "IJK")

    def test_random_forms_have_extreme_type(self, model1, model2):
        # F_A(AX, AY) = F_A(X, Y), and the other two axes flip its sign.
        rng = random.Random(70)
        for model in (model1, model2):
            for _ in range(10):
                form = random_a11_form(model, rng)
                if form.is_zero():
                    continue
                forms = kahler_forms(model, form)
                assert forms[0] is form
                for name, f in zip("IJK", forms):
                    for axis in "IJK":
                        assert model.operator(axis).pullback(f) == (f if axis == name else -f)

    def test_conformal_metric(self, model1):
        phi = positive_conformal_factor(random.Random(71))
        forms = kahler_forms(model1, kahler_form(model1, conformal(model1, phi)))
        assert forms == tuple(flat_form(name) * phi for name in "IJK")

    def test_rejects_non_salamon_form(self, model1):
        with pytest.raises(ConventionError, match="not alternating"):
            kahler_forms(model1, KForm.basis(4, (0, 1)))


class TestDefinitionCriterion:
    def test_flat_metric(self, model1, flat1):
        check = is_hkt_definition(model1, kahler_form(model1, flat1))
        assert check.ok and check.torsion_candidate.is_zero()

    def test_conformal_has_nonzero_torsion(self, model1):
        metric = conformal(model1, Polynomial.constant(4, 1) + x(0) * x(0))
        check = is_hkt_definition(model1, kahler_form(model1, metric))
        assert check.ok
        assert not check.torsion_candidate.is_zero()

    def test_generic_n2_fails_and_matches_projection(self, model2, table2):
        rng = random.Random(72)
        form = random_a11_form(model2, rng)
        sal = is_hkt_salamon(table2, form)
        defn = is_hkt_definition(model2, form)
        assert sal.ok == defn.ok == False  # noqa: E712  (generic case)

    def test_form_not_of_type_11_raises(self, model1):
        # F_J and F_K, read off F_I, alternate only when F_I is (1,1).
        for form in (KForm.basis(4, (0, 1)), flat_form("J"), flat_form("I") + flat_form("K")):
            assert not is_salamon_11(model1, form)
            with pytest.raises(ConventionError, match="not alternating"):
                is_hkt_definition(model1, form)


class TestProjectionCriterion:
    def test_every_n1_salamon_form_is_closed(self, model1, table1):
        rng = random.Random(73)
        for _ in range(10):
            form = random_a11_form(model1, rng)
            if form.is_zero():
                continue
            assert is_hkt_salamon(table1, form).ok

    def test_potential_forms_are_closed(self, model2, table2):
        mu = random_polynomial(8, 3, 4, seed=74)
        form = potential_to_forms(model2, mu).f_i
        # is_hkt_salamon raises ConventionError if in_b disagrees with eta.
        assert is_hkt_salamon(table2, form).ok


class TestTwistorCriterion:
    def test_flat_form_any_point(self, model1):
        check = is_hkt_twistor(model1, flat_form("I"))
        assert check.ok

    def test_nonzero_02_part_off_axis_but_closed(self, model1):
        # At a generic sphere point the (0,2) part of the flat form is a
        # nonzero complex form, yet remains del-bar closed since dF = 0: its
        # residual vanishes on the whole sphere.
        from hktcalc.forms import apply_operator

        pt = SpherePoint(Fraction(3, 5), Fraction(4, 5), Fraction(0))
        g_part = [apply_operator(op, flat_form("I")) for op in homogeneous_projector_at(model1, pt, 2)]
        assert not all(part.is_zero() for part in g_part)
        assert sphere_twistor_residual(model1, flat_form("I")) == {}

    def test_conformal_family(self, model1):
        rng = random.Random(75)
        for _ in range(3):
            metric = conformal(model1, positive_conformal_factor(rng))
            assert is_hkt_twistor(model1, kahler_form(model1, metric)).ok

    def test_negative_matches_projection(self, model2, table2):
        rng = random.Random(76)
        form = random_a11_form(model2, rng)
        assert not salamon_D(table2, form).is_zero()
        assert not is_hkt_twistor(model2, form).ok


class TestTorsion:
    def test_flat_torsion_zero_and_strong(self, table1, flat1):
        report = hkt_report(table1, kahler_form(table1.model, flat1))
        assert report.torsion.is_zero() and report.strong

    def test_conformal_torsion_value(self, table1, model1):
        # Frozen by hand from the block matrices: for g = (1+x0^2) delta,
        # dF_I = 2 x0 dx0^dx2^dx3 and the signed I-action sends it to
        # 2 x0 dx1^dx2^dx3.
        metric = conformal(model1, Polynomial.constant(4, 1) + x(0) * x(0))
        report = hkt_report(table1, kahler_form(model1, metric))
        assert report.torsion == KForm(3, 4, {(1, 2, 3): x(0) * 2})
        assert not report.strong

    def test_scaling_linearity(self, table1, model1):
        metric = conformal(model1, positive_conformal_factor(random.Random(77)))
        torsion = hkt_report(table1, kahler_form(model1, metric)).torsion
        doubled = [[p * 2 for p in row] for row in metric]
        assert hkt_report(table1, kahler_form(model1, doubled)).torsion == torsion * 2


class TestCoframe:
    def test_dx0_coframe_reproduces_flat_forms(self, model1, flat1):
        cf = coframe_forms(model1, KForm.basis(4, (0,)))
        assert (cf.f_i, cf.f_j, cf.f_k) == kahler_forms(model1, kahler_form(model1, flat1))
        assert cf.sign == 1

    def test_polynomial_coframe_certificate(self, model1):
        rng = random.Random(79)
        terms = {(i,): random_polynomial(4, 2, 2, seed=rng.randrange(10**6)) for i in range(4)}
        cf = coframe_forms(model1, KForm(1, 4, terms))
        assert kahler_form(model1, cf.metric) == cf.f_i

    def test_scaled_coframe_matches_conformal_route(self, model1):
        # alpha = f dx0 induces g = f^2 delta; the coframe forms must agree
        # with the Kahler forms of that conformal metric.
        f = Polynomial.constant(4, 1) + x(1) * x(1)
        cf = coframe_forms(model1, KForm(1, 4, {(0,): f}))
        metric = conformal(model1, f * f)
        assert (cf.f_i, cf.f_j, cf.f_k) == kahler_forms(model1, kahler_form(model1, metric))
        check = is_hkt_definition(model1, kahler_form(model1, cf.metric))
        assert check.ok

    def test_requires_n1(self, model2):
        with pytest.raises(ValueError):
            coframe_forms(model2, KForm.basis(8, (0,)))


class TestPotentialForms:
    def test_flat_potential_exact(self, model1, flat1):
        forms = potential_to_forms(model1, quarter_norm_potential(4))
        assert forms.as_tuple() == kahler_forms(model1, kahler_form(model1, flat1))
        assert forms.as_tuple() == tuple(flat_form(name) for name in "IJK")

    def test_affine_potential_gives_zero(self, model1):
        mu = x(0) * 3 + Polynomial.constant(4, 2)
        forms = potential_to_forms(model1, mu)
        assert all(f.is_zero() for f in forms.as_tuple())

    def test_random_outputs_are_closed_salamon_forms(self, model1, table1, model2, table2):
        from hktcalc.salamon import is_salamon_11

        rng = random.Random(80)
        for model, table in ((model1, table1), (model2, table2)):
            for _ in range(5):
                mu = random_polynomial(model.dim, 3, 4, seed=rng.randrange(10**6))
                form = potential_to_forms(model, mu).f_i
                if form.is_zero():
                    continue
                assert is_salamon_11(model, form)
                assert is_hkt_salamon(table, form).ok


class TestPotentialCheck:
    # One verdict stands for all four identities: a disagreement among them
    # raises ConventionError, so `ok` and the residual sizes must agree.
    def test_flat_pair_passes_all_four(self, model1):
        result = is_hkt_potential(model1, quarter_norm_potential(4), flat_form("I"))
        assert result.ok
        assert all(r["nonzero_terms"] == 0 for r in result.residuals.values())

    def test_scaled_metric_fails_all_four(self, model1):
        result = is_hkt_potential(model1, quarter_norm_potential(4), flat_form("I") * 2)
        assert not result.ok
        assert set(result.residuals) == {"form_I", "form_J", "form_K", "hessian"}
        assert all(r["nonzero_terms"] > 0 for r in result.residuals.values())

    def test_reconstructed_metric_passes(self, model1, model2):
        rng = random.Random(81)
        for model in (model1, model2):
            mu = random_polynomial(model.dim, 3, 4, seed=rng.randrange(10**6))
            assert is_hkt_potential(model, mu, hessian_kahler_form(model, mu)).ok


class TestKahlerPotential:
    def test_half_norm_doubles_flat_forms(self, model1, flat1):
        forms = kahler_potential_to_forms(model1, norm_squared(4) * Fraction(1, 2))
        assert forms.f_i == flat_form("I") * 2
        assert forms.f_j == flat_form("J") * 2
        assert forms.f_k == flat_form("K") * 2
        for f in forms.as_tuple():
            assert f.d().is_zero()
        assert is_hkt_definition(model1, forms.f_i).ok

    def test_affine_gives_zero(self, model1):
        forms = kahler_potential_to_forms(model1, x(3) - Polynomial.constant(4, 4))
        assert all(f.is_zero() for f in forms.as_tuple())

    def test_projection_identity_for_random_potentials(self, model1):
        # (1/2)(dd_I + d_J d_K) nu = (1/2)(dd_I nu - J dd_I nu): the two
        # halves of the potential form agree whenever dd_I nu has type
        # (1,1), which holds identically for the constant structure.
        rng = random.Random(82)
        op_i = model1.operator("I")
        op_j = model1.operator("J")
        for _ in range(10):
            nu = random_polynomial(4, 3, 4, seed=rng.randrange(10**6))
            dd_i = op_i.twisted_d(KForm.from_polynomial(nu)).d()
            assert op_i.pullback(dd_i) == dd_i
            lhs = potential_to_forms(model1, nu).f_i
            rhs = (dd_i - op_j.act(dd_i)) * Fraction(1, 2)
            assert lhs == rhs


class TestThetaFromPotential:
    def test_flat_theta(self, table1):
        theta = theta_from_potential(table1, quarter_norm_potential(4), flat_form("I"))
        half = Fraction(1, 2)
        expected = KForm(1, 4, {
            (0,): x(1) * -half, (1,): x(0) * half,
            (2,): x(3) * -half, (3,): x(2) * half,
        })
        assert theta == expected
        assert salamon_D(table1, theta) == flat_form("I")

    def test_affine_gives_constant_theta(self, table1):
        theta = theta_from_potential(table1, x(0) * 7, KForm(2, 4, {}))
        assert theta == KForm(1, 4, {(1,): Polynomial.constant(4, 7)})
        assert salamon_D(table1, theta).is_zero()

    def test_random_battery(self, table1, table2):
        # theta_from_potential raises ConventionError unless D theta is the
        # potential form; the test restates both halves of the certificate.
        rng = random.Random(83)
        for table in (table1, table2):
            op_i = table.model.operator("I")
            for _ in range(15):
                mu = random_polynomial(table.model.dim, 3, 4, seed=rng.randrange(10**6))
                forms = potential_to_forms(table.model, mu)
                theta = theta_from_potential(table, mu, forms.f_i)
                assert op_i.pullback(theta.d()) == theta.d()
                assert salamon_D(table, theta) == forms.f_i
                if forms.f_j != forms.f_i:
                    with pytest.raises(ConventionError, match="theta certificate failed"):
                        theta_from_potential(table, mu, forms.f_j)


class TestClassShift:
    def test_adding_dd_i_of_function_preserves_closedness(self, model2, table2):
        # Forward construction: F' = F + D(D_I phi) stays a D-closed
        # Salamon (1,1)-form and differs from F by an exact class.
        rng = random.Random(87)
        for _ in range(5):
            mu = random_polynomial(8, 3, 3, seed=rng.randrange(10**6))
            base = potential_to_forms(model2, mu).f_i
            phi = random_polynomial(8, 3, 3, seed=rng.randrange(10**6))
            shift = salamon_D(table2, salamon_DI(table2, KForm.from_polynomial(phi)))
            shifted = base + shift
            if shifted.is_zero():
                continue
            assert is_salamon_11(model2, shifted)
            assert is_hkt_salamon(table2, shifted).ok


class TestComplexLaplacian:
    def test_affine_flat(self, flat1):
        assert complex_laplacian(x(2) * 5, flat1).is_zero()

    def test_quarter_norm_flat(self, flat1):
        out = complex_laplacian(quarter_norm_potential(4), flat1)
        assert out == Polynomial.constant(4, 2)

    def test_known_kernel_case(self, flat1):
        # dd_I(x0 x2) is anti-self-dual, hence in the kernel of D D_I, and
        # pairs to zero with the flat Kahler form.
        assert complex_laplacian(x(0) * x(2), flat1).is_zero()

    def test_pointwise_variant_matches_constant_route(self, flat1):
        f = random_polynomial(4, 3, 4, seed=84)
        poly = complex_laplacian(f, flat1)
        for pt in default_sample_points(4, count=5, seed=85):
            assert complex_laplacian_at(f, flat1, pt) == poly.evaluate(pt)

    def test_polynomial_metric_requires_pointwise(self, model1):
        metric = conformal(model1, Polynomial.constant(4, 1) + x(0) * x(0))
        with pytest.raises(ValueError):
            complex_laplacian(quarter_norm_potential(4), metric)
        value = complex_laplacian_at(quarter_norm_potential(4), metric, (0, 0, 0, 0))
        assert value == 2  # at the origin the factor is 1

    def test_degenerate_point_rejected(self, model1):
        metric = conformal(model1, x(0) * x(0))
        with pytest.raises(ValueError):
            complex_laplacian_at(quarter_norm_potential(4), metric, (0, 0, 0, 0))


class TestReport:
    def test_positive_report(self, table1, flat1):
        rep = hkt_report(table1, kahler_form(table1.model, flat1))
        assert rep.is_hkt and rep.strong
        assert rep.torsion.is_zero()
        doc = rep.to_json()
        assert doc["definition_ok"] and doc["salamon_ok"] and doc["twistor_ok"]
        assert doc["signature_samples"][0]["positive"] == 4

    def test_negative_report(self, table2, model2):
        rng = random.Random(86)
        form = random_a11_form(model2, rng)
        rep = hkt_report(table2, form)
        assert not rep.is_hkt
        assert rep.torsion is None
        assert rep.details["salamon"]["residual_D"]["nonzero_terms"] > 0
