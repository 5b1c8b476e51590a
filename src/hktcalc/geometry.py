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
a valid outcome.  Each check returns its verdict and the residuals a
report prints, and raises `ConventionError` (`hktcalc.conventions`) when
an invariant it checks fails.  Metrics may be
indefinite or degenerate -- this is reported via pointwise signature
sampling, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import exact_linalg as ela
from .conventions import HESSIAN_AVERAGE_FACTOR, ConventionError
from .forms import BilinearForm, KForm, hessian
from .salamon import ProjectorTable, salamon_D
from .scalars import Polynomial
from .structures import (
    ComplexForm,
    HypercomplexModel,
    SpherePoint,
    axis_image,
    complex_type_part,
)


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
        entries = tensor.entries
        if any(entries[i][j] != entries[j][i] for i in range(model.dim) for j in range(i)):
            raise ValueError("metric tensor must be symmetric")
        for name in ("I", "J", "K"):
            if model.operator(name).act_bilinear(tensor) != tensor:
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


def kahler_form(metric: HyperhermitianMetric, name: str) -> KForm:
    """The 2-form F_A(X, Y) = g(AX, Y) for the axis A = `name`.

    With A e_a = -s_a e_(j_a) (`axis_image`), F_A[a][b] = -s_a g[j_a][b].
    The output is asserted alternating; failure signals a convention
    violation, not bad input.
    """
    d = metric.model.dim
    comp = [[p.scale(-s) for p in metric.tensor.entries[j]] for j, s in axis_image(metric.model, name)]
    if any(comp[a][b] != -comp[b][a] for a in range(d) for b in range(a, d)):
        raise ConventionError("Kahler form output is not alternating")
    return KForm(2, d, {(a, b): comp[a][b] for a in range(d) for b in range(a + 1, d)})


def metric_from_form(model: HypercomplexModel, form: KForm) -> HyperhermitianMetric:
    """Recover the metric g = -F(I., .), g[a][b] = s_a F(e_(j_a), e_b), from
    a Salamon (1,1)-form.  g is a metric exactly when the form is (1,1), so
    the metric's constructor raises `ValueError` on any other 2-form.
    """
    rows = [[form.coefficient((j, b)).scale(s) for b in range(model.dim)] for j, s in axis_image(model, "I")]
    return HyperhermitianMetric(model, BilinearForm(rows))


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
        parts[name] = model.operator(name).act(kahler_form(metric, name).d())
    res_ij = parts["I"] - parts["J"]
    res_jk = parts["J"] - parts["K"]
    return DefinitionCheck(res_ij.is_zero() and res_jk.is_zero(), res_ij, res_jk, parts["I"])


@dataclass
class SalamonCheck:
    ok: bool
    residual: KForm

    def summary(self) -> dict:
        return {"ok": self.ok, "residual_D": residual_summary(self.residual)}


def is_hkt_salamon(table: ProjectorTable, form: KForm) -> SalamonCheck:
    """D-closedness of a Salamon (1,1)-form, with a bilinear cross-check.

    The caller ensures the form is (1,1) (`is_salamon_11`, or a metric's
    Kahler form).  D F = eta_3(dF) must vanish exactly when dF meets the
    six bilinearized sphere conditions (`ProjectorTable.in_b`, independent
    of eta); a disagreement raises `ConventionError`.
    """
    df = form.d()
    residual = table.eta(df)
    ok = residual.is_zero()
    if table.in_b(df) != ok:
        raise ConventionError("bilinearized sphere conditions disagree with the projector")
    return SalamonCheck(ok, residual)


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

    No `src/` caller passes `points`; tests/test_twistor_certificate.py
    passes the ten witnesses as the oracle of the axes.
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
    ok: bool
    residuals: dict


def is_hkt_potential(
    model: HypercomplexModel, mu: Polynomial, metric: HyperhermitianMetric
) -> PotentialCheck:
    """Test all four equivalent potential identities against a metric.

    Three form identities plus the averaged-Hessian reconstruction; the
    four verdicts must agree (they are equivalent statements), and a
    disagreement raises `ConventionError`.
    """
    forms = potential_to_forms(model, mu)
    oks = []
    residuals = {}
    for name, built in zip("IJK", forms.as_tuple()):
        res = built - kahler_form(metric, name)
        oks.append(res.is_zero())
        residuals[f"form_{name}"] = residual_summary(res)
    diff = hessian_average_metric(model, mu).tensor - metric.tensor
    hess_ok = diff.is_zero()
    residuals["hessian"] = {
        "nonzero_terms": sum(0 if p.is_zero() else 1 for row in diff.entries for p in row)
    }
    if len(set(oks + [hess_ok])) != 1:
        raise ConventionError("the four potential identities disagree")
    return PotentialCheck(hess_ok, residuals)


def theta_from_potential(table: ProjectorTable, mu: Polynomial) -> KForm:
    """The primitive theta = I(d mu), certified: D theta equals the
    potential form of mu exactly and d theta is of type (1,1) for I;
    `ConventionError` otherwise."""
    op_i = table.model.operator("I")
    theta = op_i.act(KForm.from_polynomial(mu).d())
    d_theta = theta.d()
    if (op_i.pullback(d_theta) != d_theta
            or salamon_D(table, theta) != potential_to_forms(table.model, mu).f_i):
        raise ConventionError("theta certificate failed; action conventions are inconsistent")
    return theta


@dataclass
class HKTReport:
    """Joint outcome of the three equivalent HKT criteria.

    The three verdicts must agree; `hkt_report` checks this before it
    builds a report, so a materialized report always carries a consistent
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
    are required to coincide; disagreement raises `ConventionError`
    instead of producing a report.
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
