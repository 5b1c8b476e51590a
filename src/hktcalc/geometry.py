"""Hyperhermitian metrics, Kahler forms, HKT criteria and potentials.

Three equivalent HKT characterizations are implemented side by side:

* definition:  I dF_I = J dF_J = K dF_K  (signed action on 3-forms);
* projection:  the Kahler form F_I is killed by the projected
  differential D;
* twistor:     for every structure on the sphere, the (0,2)-part of F_I
  is closed under the corresponding del-bar, i.e. the (0,3)-part of its
  exterior derivative vanishes.  It is decided at the three axes I, J
  and K: on a Salamon (1,1)-form every criterion is a constant matrix
  applied to the first jet of the coefficients, and
  tests/test_twistor_certificate.py proves for n <= 3 that the axes'
  stacked matrix has the same row space as the Salamon residual's and as
  ten sphere points' (the axes, three mixed Pythagorean points and four
  random ones).

They must agree on every input; a disagreement is a convention bug, never
a valid outcome, and the report type asserts this.  Metrics may be
indefinite or degenerate -- this is reported via pointwise signature
sampling, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exact_linalg as ela
from .conventions import HESSIAN_AVERAGE_FACTOR
from .forms import BilinearForm, KForm, hessian
from .salamon import ProjectorTable, is_salamon_11, salamon_D
from .scalars import Polynomial
from .structures import (
    ComplexForm,
    HypercomplexModel,
    SpherePoint,
    StructureOperator,
    complex_type_part,
)


class ConventionError(AssertionError):
    """An internal sign/scale invariant was violated."""


def residual_summary(form: KForm | ComplexForm) -> dict:
    """Size summary of an exact residual: term count and coefficient height."""
    return {"nonzero_terms": form.nonzero_terms(), "max_height": form.coefficient_height()}


class HyperhermitianMetric:
    """A symmetric polynomial 2-tensor invariant under I, J and K.

    Invariance is verified exactly at construction.  Definiteness is not
    required; `signature_samples` reports the exact pointwise signature
    instead.
    """

    __slots__ = ("model", "tensor")

    def __init__(self, model: HypercomplexModel, tensor: BilinearForm):
        if tensor.dim != model.dim:
            raise ValueError("tensor dimension does not match the model")
        if not tensor.symmetric:
            raise ValueError("metric tensor must be symmetric")
        for name in ("I", "J", "K"):
            moved = tensor.conjugate_by(model.matrix(name))
            if moved != tensor:
                raise ValueError(f"tensor is not invariant under {name}")
        self.model = model
        self.tensor = tensor

    @classmethod
    def flat(cls, model: HypercomplexModel) -> "HyperhermitianMetric":
        one = Polynomial.constant(model.dim, 1)
        return cls(model, BilinearForm.scaled_identity(model.dim, one))

    @classmethod
    def conformal(cls, model: HypercomplexModel, phi: Polynomial) -> "HyperhermitianMetric":
        if phi.dim != model.dim:
            raise ValueError("conformal factor dimension mismatch")
        return cls(model, BilinearForm.scaled_identity(model.dim, phi))

    def scale(self, scalar) -> "HyperhermitianMetric":
        return HyperhermitianMetric(self.model, self.tensor.scale(scalar))

    def __eq__(self, other):
        if not isinstance(other, HyperhermitianMetric):
            return NotImplemented
        return self.model.n == other.model.n and self.tensor == other.tensor

    def signature_samples(self, points: Sequence[Sequence]) -> list[dict]:
        """Exact inertia of g at rational sample points: the counts of
        positive, negative and zero eigenvalues (`exact_linalg.inertia`)."""
        out = []
        for pt in points:
            positive, negative, zero = ela.inertia(self.tensor.evaluate(pt))
            out.append({"point": [str(c) for c in pt], "positive": positive,
                        "negative": negative, "zero": zero})
        return out


def _form_component_matrix(form: KForm) -> list[list[Polynomial]]:
    """The full antisymmetric component matrix F[i][j] = F(e_i, e_j)."""
    d = form.dim
    zero = Polynomial.zero(d)
    mat = [[zero] * d for _ in range(d)]
    for (a, b), poly in form.terms.items():
        mat[a][b] = poly
        mat[b][a] = -poly
    return mat


def _transpose_times(m, rows: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    """(M^T P)[a][b] = sum_k M[k][a] P[k][b] for a constant matrix M and a
    polynomial matrix P."""
    d = len(rows)
    out = [[Polynomial.zero(d) for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(d):
            acc = Polynomial.zero(d)
            for k in range(d):
                if m[k][a]:
                    acc = acc + rows[k][b].scale(m[k][a])
            out[a][b] = acc
    return out


def kahler_form(metric: HyperhermitianMetric, op: StructureOperator | str) -> KForm:
    """The 2-form F(X, Y) = g(SX, Y) for a structure S.

    The output is asserted alternating; failure signals a convention
    violation, not bad input.
    """
    model = metric.model
    if isinstance(op, str):
        op = model.operator(op)
    d = model.dim
    comp = _transpose_times(op.matrix, metric.tensor.entries)
    terms = {}
    for a in range(d):
        if not comp[a][a].is_zero():
            raise ConventionError("Kahler form has a nonzero diagonal component")
        for b in range(a + 1, d):
            if comp[a][b] != -comp[b][a]:
                raise ConventionError("Kahler form output is not alternating")
            if not comp[a][b].is_zero():
                terms[(a, b)] = comp[a][b]
    return KForm(2, d, terms)


def metric_from_form(model: HypercomplexModel, form: KForm) -> HyperhermitianMetric:
    """Recover the metric g = -F(I., .) from a Salamon (1,1)-form."""
    check = is_salamon_11(model, form)
    if not check.ok:
        raise ValueError("form is not of Salamon type (1,1)")
    comp = _transpose_times(model.I, _form_component_matrix(form))
    return HyperhermitianMetric(model, BilinearForm([[-p for p in row] for row in comp], symmetric=None))


@dataclass
class DefinitionCheck:
    ok: bool
    residual_ij: KForm
    residual_jk: KForm
    torsion_candidate: KForm

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "residual_IJ": residual_summary(self.residual_ij),
            "residual_JK": residual_summary(self.residual_jk),
        }


def is_hkt_definition(metric: HyperhermitianMetric) -> DefinitionCheck:
    """Exact test of I dF_I = J dF_J = K dF_K."""
    model = metric.model
    parts = {}
    for name in ("I", "J", "K"):
        op = model.operator(name)
        parts[name] = op.act(kahler_form(metric, op).d())
    res_ij = parts["I"] - parts["J"]
    res_jk = parts["J"] - parts["K"]
    return DefinitionCheck(res_ij.is_zero() and res_jk.is_zero(), res_ij, res_jk, parts["I"])


@dataclass
class SalamonCheck:
    ok: bool
    residual: KForm
    bilinear_consistent: bool

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "residual_D": residual_summary(self.residual),
            "bilinear_consistent": self.bilinear_consistent,
        }


def is_hkt_salamon(table: ProjectorTable, form: KForm) -> SalamonCheck:
    """D-closedness of a Salamon (1,1)-form, with a bilinear cross-check.

    The cross-check verifies that D F = 0 coincides exactly with the six
    bilinearized sphere conditions holding on dF.
    """
    model = table.model
    if not is_salamon_11(model, form).ok:
        raise ValueError("form is not of Salamon type (1,1)")
    df = form.d()
    residual = table.eta(df)
    ok = residual.is_zero()
    consistent = table.in_b(df) == ok
    return SalamonCheck(ok, residual, consistent)


# The structures at which `is_hkt_twistor` decides by default.  A (1,1)-form
# has no (0,2)-part for I, so its residual at I is zero; J alone already has
# the full rank of the Salamon residual (tests/test_twistor_certificate.py).
TWISTOR_AXES = tuple(SpherePoint.axis(name) for name in ("I", "J", "K"))


@dataclass
class TwistorCheck:
    ok: bool
    point_residuals: list

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "points": [
                {"point": [str(p.a), str(p.b), str(p.c)], **residual_summary(r)}
                for p, r in self.point_residuals
            ],
        }


def is_hkt_twistor(
    model: HypercomplexModel,
    form: KForm,
    points: Sequence[SpherePoint] | None = None,
) -> TwistorCheck:
    """Sphere-family test: the (0,3)-part of d(F^{0,2}) vanishes pointwise.

    For each sample structure the (0,2)-part of the form is taken as a
    (real, imaginary) pair of rational forms, its exterior derivative
    computed, and the (0,3)-part w.r.t. the same structure must vanish
    exactly; each point's residual is a `ComplexForm`.

    By default the structures are the three axes `TWISTOR_AXES`.  For a
    Salamon (1,1)-form on n <= 3 this decides the whole sphere family:
    tests/test_twistor_certificate.py proves, with first-jet rank
    certificates, that the axes' residuals vanish exactly when those at
    the ten former witnesses and the Salamon residual do.
    """
    if points is None:
        points = TWISTOR_AXES
    results = []
    ok = True
    for pt in points:
        g_part = complex_type_part(model, pt, form, "02")
        residual = complex_type_part(model, pt, g_part.d(), "03")
        if not residual.is_zero():
            ok = False
        results.append((pt, residual))
    return TwistorCheck(ok, results)


@dataclass
class PotentialForms:
    f_i: KForm
    f_j: KForm
    f_k: KForm

    def as_tuple(self):
        return (self.f_i, self.f_j, self.f_k)


def potential_to_forms(model: HypercomplexModel, mu: Polynomial) -> PotentialForms:
    """F_I = (1/2)(d d_I + d_J d_K) mu and the two cyclic companions."""
    if mu.dim != model.dim:
        raise ValueError("potential dimension mismatch")
    f0 = KForm.from_polynomial(mu)
    half = Fraction(1, 2)
    op = {name: model.operator(name) for name in ("I", "J", "K")}

    def build(a: str, b: str, c: str) -> KForm:
        first = op[a].twisted_d(f0).d()
        second = op[b].twisted_d(op[c].twisted_d(f0))
        return (first + second) * half

    return PotentialForms(build("I", "J", "K"), build("J", "K", "I"), build("K", "I", "J"))


def hessian_average_metric(model: HypercomplexModel, mu: Polynomial) -> HyperhermitianMetric:
    """The metric reconstructed from a potential via the averaged Hessian."""
    h = hessian(mu)
    total = h
    for name in ("I", "J", "K"):
        total = total + model.operator(name).act_bilinear(h)
    return HyperhermitianMetric(model, total.scale(HESSIAN_AVERAGE_FACTOR))


@dataclass
class PotentialCheck:
    form_i_ok: bool
    form_j_ok: bool
    form_k_ok: bool
    hessian_ok: bool
    residuals: dict

    @property
    def ok(self) -> bool:
        return self.form_i_ok and self.form_j_ok and self.form_k_ok and self.hessian_ok


def is_hkt_potential(
    model: HypercomplexModel, mu: Polynomial, metric: HyperhermitianMetric
) -> PotentialCheck:
    """Test all four equivalent potential identities against a metric.

    Three form identities plus the averaged-Hessian reconstruction; the
    four verdicts must agree (they are equivalent statements), which is
    asserted.
    """
    forms = potential_to_forms(model, mu)
    oks = []
    residuals = {}
    for name, built in zip("IJK", forms.as_tuple()):
        res = built - kahler_form(metric, name)
        oks.append(res.is_zero())
        residuals[f"form_{name}"] = residual_summary(res)
    rec = hessian_average_metric(model, mu)
    diff = rec.tensor - metric.tensor
    hess_ok = diff.is_zero()
    residuals["hessian"] = {
        "nonzero_terms": sum(0 if p.is_zero() else 1 for row in diff.entries for p in row)
    }
    verdicts = set(oks + [hess_ok])
    if len(verdicts) != 1:
        raise ConventionError("the four potential identities disagree")
    return PotentialCheck(oks[0], oks[1], oks[2], hess_ok, residuals)


@dataclass
class ThetaCertificate:
    theta: KForm
    d_theta_is_11: bool
    matches_potential_form: bool

    @property
    def ok(self) -> bool:
        return self.d_theta_is_11 and self.matches_potential_form


def theta_from_potential(table: ProjectorTable, mu: Polynomial) -> ThetaCertificate:
    """The primitive theta = I(d mu), certified: D theta equals the
    potential form of mu exactly and d theta is of type (1,1) for I."""
    model = table.model
    theta = model.operator("I").act(KForm.from_polynomial(mu).d())
    d_theta = theta.d()
    is_11 = model.operator("I").pullback(d_theta) == d_theta
    matches = salamon_D(table, theta) == potential_to_forms(model, mu).f_i
    if not (is_11 and matches):
        raise ConventionError("theta certificate failed; action conventions are inconsistent")
    return ThetaCertificate(theta, is_11, matches)


@dataclass
class HKTReport:
    """Joint outcome of the three equivalent HKT criteria.

    The three verdicts must agree; the constructor-level assertion lives
    in `hkt_report`, so a materialized report always carries a consistent
    triple together with torsion data and signature samples.
    """

    definition_ok: bool
    salamon_ok: bool
    twistor_ok: bool
    torsion: KForm | None
    strong: bool | None
    details: dict = field(default_factory=dict)
    signature_samples: list = field(default_factory=list)

    @property
    def is_hkt(self) -> bool:
        return self.definition_ok

    def to_json(self) -> dict:
        return {
            "definition_ok": self.definition_ok,
            "salamon_ok": self.salamon_ok,
            "twistor_ok": self.twistor_ok,
            "is_hkt": self.is_hkt,
            "strong": self.strong,
            "torsion": None if self.torsion is None else self.torsion.to_json(),
            "details": self.details,
            "signature_samples": self.signature_samples,
        }


def default_sample_points(dim: int, count: int = 5, seed: int = 3) -> list[tuple]:
    """Small deterministic rational sample points for pointwise checks."""
    import random as _random

    rng = _random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)))
    return pts


def hkt_report(table: ProjectorTable, source: HyperhermitianMetric | KForm) -> HKTReport:
    """Run all three criteria on a metric or a Salamon (1,1)-form.

    The twistor criterion is decided at `TWISTOR_AXES`, and the metric's
    signature is sampled at `default_sample_points`.  The three booleans
    are required to coincide; disagreement raises instead of producing a
    report.
    """
    model = table.model
    if isinstance(source, HyperhermitianMetric):
        metric = source
        form = kahler_form(metric, "I")
    else:
        form = source
        metric = metric_from_form(model, form)
    defn = is_hkt_definition(metric)
    sal = is_hkt_salamon(table, form)
    tw = is_hkt_twistor(model, form)
    if not (defn.ok == sal.ok == tw.ok):
        raise ConventionError(
            f"HKT criteria disagree: definition={defn.ok} projection={sal.ok} twistor={tw.ok}"
        )
    if not sal.bilinear_consistent:
        raise ConventionError("bilinearized sphere conditions disagree with the projector")
    torsion = strong = None
    if defn.ok:
        torsion = defn.torsion_candidate
        strong = torsion.d().is_zero()
    return HKTReport(
        defn.ok,
        sal.ok,
        tw.ok,
        torsion,
        strong,
        details={
            "definition": defn.summary(),
            "salamon": sal.summary(),
            "twistor": tw.summary(),
        },
        signature_samples=metric.signature_samples(default_sample_points(model.dim)),
    )
