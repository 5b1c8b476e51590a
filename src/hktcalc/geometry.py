"""Kahler forms of hyperhermitian metrics, HKT criteria and potentials.

Three equivalent HKT characterizations are implemented side by side:

* definition:  I dF_I = J dF_J = K dF_K  (signed action on 3-forms);
* projection:  the Kahler form F_I is killed by the projected
  differential D;
* twistor:     for every structure on the sphere, the (0,2)-part of F_I
  is closed under the corresponding del-bar, i.e. the (0,3)-part X of its
  exterior derivative vanishes.  X is zero exactly when X + conj(X) is,
  and at an axis A that real form is E_3 d E_2 F_I, with E_k the real
  projector onto the types (k,0) + (0,k) (`complex_type_part`): d maps
  (2,0)-forms into (3,0) + (2,1), so no cross term survives.  It is
  decided at the three axes I, J and K: on a Salamon (1,1)-form every
  criterion is a constant matrix applied to the first jet of the
  coefficients, and tests/test_twistor_certificate.py proves for n <= 3
  that the axes' stacked matrix has the same row space as the Salamon
  residual's and as the whole sphere's (the coefficients of the residual
  as a homogeneous polynomial in P = (a, b, c)).

All three read one object, the Salamon (1,1)-form F_I.  It fixes the
metric g = -F_I(I., .), so F_J, F_K (`kahler_forms`) and the signature
samples are read off F_I through the index maps.  A metric enters once, as
its F_I (`kahler_form`, which with `is_salamon_11` decides that it is
hyperhermitian), and a potential's averaged Hessian is built as its F_I
(`hessian_kahler_form`); no 2-tensor is kept and no metric is rebuilt
from a form.

They must agree on every input; a disagreement is a convention bug, never
a valid outcome.  Each check returns its verdict and the residuals a
report prints, and raises `ConventionError` (`hktcalc.conventions`) when
an invariant it checks fails.  Metrics may be
indefinite or degenerate -- this is reported via pointwise signature
sampling, not rejected.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import exact_linalg as ela
from .conventions import HESSIAN_AVERAGE_FACTOR, ConventionError
from .forms import KForm, apply_operator, hessian
from .salamon import ProjectorTable, salamon_D
from .scalars import Polynomial, cleared_point
from .structures import (
    HypercomplexModel,
    _compose,
    axis_image,
    complex_type_part,
    type11_projector,
)


def residual_summary(form: KForm) -> dict:
    """Size summary of an exact residual: term count and coefficient height."""
    return {"nonzero_terms": form.nonzero_terms(), "max_height": form.coefficient_height()}


def _i_rows(model: HypercomplexModel, g: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    """The rows of g(I., .): with I e_a = -s_a e_(j_a) (`axis_image`), row a is -s_a g[j_a]."""
    return [[p.scale(-s) for p in g[j]] for j, s in axis_image(model, "I")]


def kahler_form(model: HypercomplexModel, g: Sequence[Sequence[Polynomial]]) -> KForm:
    """F_I(X, Y) = g(IX, Y) of a metric g given as square polynomial rows.

    `ValueError` unless g(I., .) alternates.  Alternation and I*F_I = F_I
    make g symmetric and I-invariant, J*F_I = -F_I makes it J-invariant,
    and K-invariance follows from IJ = K: g is hyperhermitian exactly when
    its F_I alternates and is a Salamon (1,1)-form (`is_salamon_11`).
    Definiteness is not required; `signature_samples` reports the exact
    pointwise signature instead.
    """
    d = model.dim
    if len(g) != d or any(len(row) != d for row in g):
        raise ValueError(f"metric must be {d}x{d}, the dimension of the model")
    if any(p.dim != d for row in g for p in row):
        raise ValueError("coefficient polynomial dimension mismatch")
    f = _i_rows(model, g)
    if any(f[a][b] != -f[b][a] for a in range(d) for b in range(a + 1)):
        raise ValueError("g(I., .) does not alternate: the metric is not symmetric and I-invariant")
    return KForm(2, d, {(a, b): f[a][b] for a in range(d) for b in range(a + 1, d)})


def conformal_metric(model: HypercomplexModel, phi: Polynomial) -> list[list[Polynomial]]:
    """The rows of phi * Id."""
    if phi.dim != model.dim:
        raise ValueError("conformal factor dimension mismatch")
    zero = Polynomial.zero(model.dim)
    return [[phi if i == j else zero for j in range(model.dim)] for i in range(model.dim)]


def kahler_forms(model: HypercomplexModel, f_i: KForm) -> tuple[KForm, KForm, KForm]:
    """F_I, F_J and F_K of the metric g = -F_I(I., .) that F_I fixes.

    F_A(X, Y) = g(AX, Y) = -F_I(IAX, Y): F_A[a][b] = -s F_I[j][b] with
    (j, s) row a of the index map of AI.  F_J and F_K alternate exactly
    when F_I is a Salamon (1,1)-form; `ConventionError` otherwise, which is
    how every HKT report (`hkt_report`) enforces that type.
    """
    rows: list[dict] = [{} for _ in range(model.dim)]
    for (a, b), p in f_i.terms.items():
        rows[a][b], rows[b][a] = p, -p
    forms = [f_i]
    for name in ("J", "K"):
        comp = {(a, b): p.scale(-s)
                for a, (j, s) in enumerate(_compose(axis_image(model, name), axis_image(model, "I")))
                for b, p in rows[j].items()}
        if any(a == b or comp.get((b, a)) != -p for (a, b), p in comp.items()):
            raise ConventionError(f"Kahler form F_{name} is not alternating; F_I is not of type (1,1)")
        forms.append(KForm(2, model.dim, {(a, b): p for (a, b), p in comp.items() if a < b}))
    return tuple(forms)


def signature_samples(model: HypercomplexModel, f_i: KForm, points: Sequence[Sequence]) -> list[dict]:
    """Exact inertia (`exact_linalg.inertia`) of g = -F_I(I., .) at rational
    points: g[a][b] = s_a F_I[j_a][b] (`axis_image`), so each nonzero
    coefficient of F_I is evaluated once per point, in ints over the
    point's common denominator (`Polynomial.evaluate_cleared`)."""
    d = model.dim
    out = []
    for pt in points:
        ys, q = cleared_point(pt)
        values = [[0] * d for _ in range(d)]
        for (a, b), p in f_i.terms.items():
            values[a][b] = v = p.evaluate_cleared(ys, q)
            values[b][a] = -v
        positive, negative, zero = ela.inertia([values[j] if s > 0 else [-v for v in values[j]]
                                                for j, s in axis_image(model, "I")])
        out.append({"point": [str(c) for c in pt], "positive": positive, "negative": negative, "zero": zero})
    return out


class DefinitionCheck:
    def __init__(self, ok: bool, residual_ij: KForm, residual_jk: KForm, torsion_candidate: KForm):
        self.ok = ok
        self.residual_ij = residual_ij
        self.residual_jk = residual_jk
        self.torsion_candidate = torsion_candidate

    def summary(self) -> dict:
        return {
            "ok": self.ok,
            "residual_IJ": residual_summary(self.residual_ij),
            "residual_JK": residual_summary(self.residual_jk),
        }


def is_hkt_definition(model: HypercomplexModel, f_i: KForm) -> DefinitionCheck:
    """Exact test of I dF_I = J dF_J = K dF_K, with F_J and F_K from
    `kahler_forms`; a form F_I that is not (1,1) raises `ConventionError`."""
    part_i, part_j, part_k = (model.operator(name).act(form.d())
                              for name, form in zip("IJK", kahler_forms(model, f_i)))
    res_ij = part_i - part_j
    res_jk = part_j - part_k
    return DefinitionCheck(res_ij.is_zero() and res_jk.is_zero(), res_ij, res_jk, part_i)


class SalamonCheck:
    def __init__(self, ok: bool, residual: KForm):
        self.ok = ok
        self.residual = residual

    def summary(self) -> dict:
        return {"ok": self.ok, "residual_D": residual_summary(self.residual)}


def is_hkt_salamon(table: ProjectorTable, form: KForm) -> SalamonCheck:
    """D-closedness of a Salamon (1,1)-form, with a bilinear cross-check.

    The caller ensures the form is (1,1): `hkt_report` runs this after the
    definition check, whose `kahler_forms` refuses any other.  D F = eta_3(dF)
    must vanish exactly when dF meets the six bilinearized sphere
    conditions (`ProjectorTable.in_b`, independent of eta); a disagreement
    raises `ConventionError`.
    """
    df = form.d()
    residual = table.eta(df)
    ok = residual.is_zero()
    if table.in_b(df) != ok:
        raise ConventionError("bilinearized sphere conditions disagree with the projector")
    return SalamonCheck(ok, residual)


# The structures at which `is_hkt_twistor` decides.  A (1,1)-form has no
# (0,2)-part for I, so its residual at I is zero; J alone already has the
# full rank of the Salamon residual (tests/test_twistor_certificate.py).
TWISTOR_AXES = ("I", "J", "K")


class TwistorCheck:
    def __init__(self, ok: bool, point_residuals: list):
        self.ok = ok
        self.point_residuals = point_residuals

    def summary(self) -> dict:
        # Each axis is reported as its point of the sphere: I is (1, 0, 0).
        return {
            "ok": self.ok,
            "points": [
                {"point": [str(int(name == axis)) for axis in TWISTOR_AXES], **residual_summary(r)}
                for name, r in self.point_residuals
            ],
        }


def is_hkt_twistor(model: HypercomplexModel, form: KForm) -> TwistorCheck:
    """Sphere-family test: the (0,3)-part of d(F^{0,2}) vanishes.

    At each axis A of `TWISTOR_AXES` the residual is the real 3-form
    E_3 d E_2 F (`complex_type_part`), twice the real part of that
    (0,3)-part, which it determines; each is listed with its axis.

    For a Salamon (1,1)-form on n <= 3 the axes decide the whole sphere
    family: tests/test_twistor_certificate.py proves, with first-jet rank
    certificates, that the axes' residuals vanish exactly when the
    residual at every point of S^2 and the Salamon residual do.
    """
    results = [(name, complex_type_part(model, name, complex_type_part(model, name, form).d()))
               for name in TWISTOR_AXES]
    return TwistorCheck(all(r.is_zero() for _, r in results), results)


class PotentialForms:
    def __init__(self, f_i: KForm, f_j: KForm, f_k: KForm):
        self.f_i = f_i
        self.f_j = f_j
        self.f_k = f_k

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


def hessian_kahler_form(model: HypercomplexModel, mu: Polynomial) -> KForm:
    """F_I of the averaged Hessian HESSIAN_AVERAGE_FACTOR (H + sum_A A^T H A).

    With T = H(I., .), F_I(A^T H A) is I*T, -J*T and -K*T for A = I, J, K,
    and F_I of the average alternates, so it is HESSIAN_AVERAGE_FACTOR
    (1 + I* - J* - K*) alt T, the (1,1) projector P (`type11_projector`)
    of 2 HESSIAN_AVERAGE_FACTOR (T[a][b] - T[b][a]).
    """
    if mu.dim != model.dim:
        raise ValueError("potential dimension mismatch")
    t = _i_rows(model, hessian(mu))
    skew = KForm(2, model.dim, {(a, b): (t[a][b] - t[b][a]).scale(2 * HESSIAN_AVERAGE_FACTOR)
                                for a in range(model.dim) for b in range(a + 1, model.dim)})
    return apply_operator(type11_projector(model), skew)


class PotentialCheck:
    def __init__(self, ok: bool, residuals: dict):
        self.ok = ok
        self.residuals = residuals


def is_hkt_potential(model: HypercomplexModel, mu: Polynomial, f_i: KForm) -> PotentialCheck:
    """Test all four equivalent potential identities against the Salamon
    (1,1)-form F_I of a metric.

    Three form identities, against F_I and the F_J, F_K it fixes
    (`kahler_forms`), plus the averaged Hessian's F_I
    (`hessian_kahler_form`); the four verdicts must agree (they are
    equivalent statements), and a disagreement raises `ConventionError`.
    """
    forms = potential_to_forms(model, mu)
    oks = []
    residuals = {}
    for name, built, expected in zip("IJK", forms.as_tuple(), kahler_forms(model, f_i)):
        res = built - expected
        oks.append(res.is_zero())
        residuals[f"form_{name}"] = residual_summary(res)
    diff = hessian_kahler_form(model, mu) - f_i
    hess_ok = diff.is_zero()
    residuals["hessian"] = residual_summary(diff)
    if len(set(oks + [hess_ok])) != 1:
        raise ConventionError("the four potential identities disagree")
    return PotentialCheck(hess_ok, residuals)


def theta_from_potential(table: ProjectorTable, mu: Polynomial, f_i: KForm) -> KForm:
    """The primitive theta = I(d mu), certified against `f_i`, the F_I of
    mu from `potential_to_forms`: D theta equals f_i exactly and d theta
    is of type (1,1) for I; `ConventionError` otherwise."""
    op_i = table.model.operator("I")
    theta = op_i.act(KForm.from_polynomial(mu).d())
    d_theta = theta.d()
    if (op_i.pullback(d_theta) != d_theta
            or salamon_D(table, theta) != f_i):
        raise ConventionError("theta certificate failed; action conventions are inconsistent")
    return theta


def default_sample_points(dim: int, count: int = 5, seed: int = 3) -> list[tuple]:
    """Small deterministic rational sample points for pointwise checks."""
    import random as _random

    rng = _random.Random(seed)
    return [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)) for _ in range(count)]


def hkt_report(table: ProjectorTable, f_i: KForm) -> dict:
    """The JSON report of all three criteria on a 2-form F_I.

    `kahler_forms`, run by the definition check, raises `ConventionError`
    unless F_I is a Salamon (1,1)-form.  The twistor criterion is decided
    at `TWISTOR_AXES`, and the signature of the metric F_I fixes is sampled
    at `default_sample_points`.  The three verdicts must coincide, and
    `ConventionError` is raised instead of a report when they do not; the
    torsion I dF_I and whether it is closed (`strong`) are reported when
    they hold, None otherwise.
    """
    model = table.model
    defn = is_hkt_definition(model, f_i)
    sal = is_hkt_salamon(table, f_i)
    tw = is_hkt_twistor(model, f_i)
    if not (defn.ok == sal.ok == tw.ok):
        raise ConventionError(f"HKT criteria disagree: definition={defn.ok} projection={sal.ok} twistor={tw.ok}")
    torsion = defn.torsion_candidate
    return {
        "definition_ok": defn.ok,
        "salamon_ok": sal.ok,
        "twistor_ok": tw.ok,
        "is_hkt": defn.ok,
        "strong": torsion.d().is_zero() if defn.ok else None,
        "torsion": torsion.to_json() if defn.ok else None,
        "details": {"definition": defn.summary(), "salamon": sal.summary(), "twistor": tw.summary()},
        "signature_samples": signature_samples(model, f_i, default_sample_points(model.dim)),
    }
