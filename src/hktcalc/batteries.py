"""Randomized identity batteries driving the exact calculus end to end.

Each battery draws reproducible inputs from a seed, checks an identity
with exact equality, and reports a `CheckOutcome`.  The CLI identity
suite and the acceptance tests both run through these, so there is one
source of truth for what gets verified.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .documents import CheckOutcome
from .forms import KForm, apply_operator, multi_indices
from .geometry import (
    conformal_metric,
    hessian_kahler_form,
    hkt_report,
    is_hkt_definition,
    is_hkt_potential,
    kahler_form,
    potential_to_forms,
    theta_from_potential,
)
from .salamon import ProjectorTable, a11_subspace, proj_formula_D, salamon_D
from .scalars import Polynomial, random_polynomial
from .structures import HypercomplexModel, type11_projector


def random_kform(dim: int, k: int, rng: random.Random, n_components: int = 2) -> KForm:
    """A sparse random form: a few components with small random polynomials."""
    form = KForm.zero(k, dim)
    basis = multi_indices(dim, k)
    for _ in range(n_components):
        idx = basis[rng.randrange(len(basis))] if basis else ()
        poly = random_polynomial(dim, 2, 2, seed=rng.randrange(2**31))
        form = form + KForm(k, dim, {idx: poly})
    return form


def positive_conformal_factor(rng: random.Random) -> Polynomial:
    """A random polynomial guaranteed positive on [-1, 1]^4.

    Built as (1 + sum of |coefficients|) + p, which dominates |p| on the
    unit box; positivity is still checked at sample points by callers.
    """
    p = random_polynomial(4, 2, 3, seed=rng.randrange(2**31))
    bound = sum(abs(c) for c in p.terms.values())
    return Polynomial.constant(4, 1 + bound) + p


def random_a11_form(model: HypercomplexModel, rng: random.Random) -> KForm:
    """A random polynomial combination of the type-(1,1) fiber basis."""
    acc = KForm.zero(2, model.dim)
    for form in a11_subspace(model):
        acc = acc + form * random_polynomial(model.dim, 2, 2, seed=rng.randrange(2**31))
    return acc


def d_squared_battery(model: HypercomplexModel, seed: int, count: int) -> CheckOutcome:
    """d(d(w)) = 0 exactly on random forms of degree 0..3."""
    rng = random.Random(seed)
    for i in range(count):
        k = i % 4
        w = random_kform(model.dim, k, rng)
        if not w.d().d().is_zero():
            return CheckOutcome("d-squared", False, count, f"failed at case {i} (degree {k})")
    return CheckOutcome("d-squared", True, count)


def leibniz_battery(model: HypercomplexModel, seed: int, count: int) -> CheckOutcome:
    """d(w ^ t) = dw ^ t + (-1)^k w ^ dt exactly on random pairs."""
    rng = random.Random(seed)
    for i in range(count):
        ka, kb = i % 3, (i // 3) % 2 + 1
        a = random_kform(model.dim, ka, rng)
        b = random_kform(model.dim, kb, rng)
        lhs = a.wedge(b).d()
        sign = -1 if ka % 2 else 1
        rhs = a.d().wedge(b) + a.wedge(b.d()) * sign
        if lhs != rhs:
            return CheckOutcome("graded-leibniz", False, count, f"failed at case {i}")
    return CheckOutcome("graded-leibniz", True, count)


def anticommute_battery(model: HypercomplexModel, seed: int, count: int) -> CheckOutcome:
    """Pairwise anticommutation of d, d_I, d_J, d_K on random forms."""
    rng = random.Random(seed)
    ops = {name: model.operator(name) for name in ("I", "J", "K")}

    def diff(name: str, w: KForm) -> KForm:
        return w.d() if name == "d" else ops[name].twisted_d(w)

    names = ("d", "I", "J", "K")
    pairs = [(a, b) for ai, a in enumerate(names) for b in names[ai + 1:]]
    for i in range(count):
        w = random_kform(model.dim, i % 3, rng)
        a, b = pairs[i % len(pairs)]
        if not (diff(a, diff(b, w)) + diff(b, diff(a, w))).is_zero():
            return CheckOutcome("anticommutation", False, count, f"{{d_{a}, d_{b}}} failed at case {i}")
    return CheckOutcome("anticommutation", True, count)


def projected_d_squared_battery(table: ProjectorTable, seed: int, count: int) -> CheckOutcome:
    """D(D(theta)) = 0 on random 1-forms, with D computed two ways.

    The matrix-projector route and the explicit type-projection formula
    must agree exactly before the square is taken.
    """
    rng = random.Random(seed)
    model = table.model
    for i in range(count):
        theta = random_kform(model.dim, 1, rng)
        d_theta = salamon_D(table, theta)
        if d_theta != proj_formula_D(model, theta):
            return CheckOutcome("projected-d-two-paths", False, count, f"path mismatch at case {i}")
        if not salamon_D(table, d_theta).is_zero():
            return CheckOutcome("projected-d-squared", False, count, f"D^2 != 0 at case {i}")
    return CheckOutcome("projected-d-squared", True, count)


def eta_idempotence_battery(table: ProjectorTable, seed: int, count: int) -> CheckOutcome:
    """eta o eta = eta on random 2- and 3-forms."""
    rng = random.Random(seed)
    model = table.model
    for i in range(count):
        w = random_kform(model.dim, 2 + i % 2, rng)
        once = table.eta(w)
        if table.eta(once) != once:
            return CheckOutcome("eta-idempotent", False, count, f"failed at case {i}")
    return CheckOutcome("eta-idempotent", True, count)


def conformal_battery(table: ProjectorTable, seed: int, count: int) -> CheckOutcome:
    """Every 4D conformal metric is HKT: exact definition residuals.

    Conformal factors are random polynomials positive on the unit box
    (positivity double-checked at sample points).
    """
    if table.model.n != 1:
        raise ValueError("the conformal battery runs on n = 1")
    rng = random.Random(seed)
    sample_points = [tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(4)) for _ in range(5)]
    for i in range(count):
        phi = positive_conformal_factor(rng)
        for pt in sample_points:
            if phi.evaluate(pt) <= 0:
                return CheckOutcome("conformal-4d", False, count, f"factor not positive at {pt}")
        check = is_hkt_definition(table.model, kahler_form(table.model, conformal_metric(table.model, phi)))
        if not check.ok:
            return CheckOutcome("conformal-4d", False, count, f"definition residual nonzero at case {i}")
    return CheckOutcome("conformal-4d", True, count)


def remark_battery(model: HypercomplexModel, table: ProjectorTable, seed: int, count: int) -> CheckOutcome:
    """Equivalence of the four potential identities on random potentials.

    For each mu the Kahler form F_I is rebuilt from the averaged Hessian
    (`hessian_kahler_form`) and all four identities must then hold;
    `theta_from_potential` checks the primitive certificate
    D(I d mu) = F_I(mu) as well and raises `ConventionError` if it fails.
    At case 0 they must all fail on F_I plus the constant (1,1)-form
    P(dx0 ^ dx1), so the Hessian identity meets a form other than its own.
    """
    rng = random.Random(seed)
    shift = apply_operator(type11_projector(model), KForm.basis(model.dim, (0, 1)))
    for i in range(count):
        mu = random_polynomial(model.dim, 3, 4, seed=rng.randrange(2**31))
        f_i = hessian_kahler_form(model, mu)
        if not is_hkt_potential(model, mu, f_i).ok:
            return CheckOutcome("potential-remark", False, count, f"identities failed at case {i}")
        if i == 0 and is_hkt_potential(model, mu, f_i + shift).ok:
            return CheckOutcome("potential-remark", False, count, "the identities accepted a shifted F_I")
        theta_from_potential(table, mu, f_i)
    return CheckOutcome("potential-remark", True, count)


# The case cycle of the default equivalence battery: (n, kind) pairs.
EQUIVALENCE_CYCLE = ((1, "potential"), (1, "conformal"), (2, "potential"), (2, "negative"))


def equivalence_battery(tables: dict[int, ProjectorTable], seed: int, count: int,
                        cycle: tuple = EQUIVALENCE_CYCLE) -> CheckOutcome:
    """The three HKT criteria agree on positives and certified negatives.

    Case i is `cycle[i % len(cycle)]`, an (n, kind) pair.  Kinds:
    "potential" (a potential-generated form, positive), "conformal" (F_I of
    a conformal metric, n = 1, positive) and "negative" (a generic type-(1,1)
    form certified generic by a nonzero D-residual, resampled otherwise).
    By default: potential forms on n = 1 and 2, conformal metrics on n = 1
    and negatives on n = 2.  `hkt_report` raises on any pairwise
    disagreement.
    """
    rng = random.Random(seed)
    positives = negatives = 0

    def potential_form(table: ProjectorTable, degree: int) -> KForm:
        for _ in range(20):
            mu = random_polynomial(table.model.dim, degree, 3, seed=rng.randrange(2**31))
            form = potential_to_forms(table.model, mu).f_i
            if not form.is_zero():
                return form
        raise RuntimeError("random potentials kept producing the zero form")

    for i in range(count):
        n, kind = cycle[i % len(cycle)]
        table = tables[n]
        expect = kind != "negative"
        if kind == "potential":
            form = potential_form(table, 3)
        elif kind == "conformal":
            phi = positive_conformal_factor(rng)
            form = kahler_form(table.model, conformal_metric(table.model, phi))
        else:
            form = None
            for _ in range(10):
                candidate = random_a11_form(table.model, rng)
                if not salamon_D(table, candidate).is_zero():
                    form = candidate
                    break
            if form is None:
                return CheckOutcome("hkt-equivalence", False, count,
                                    "could not certify a generic negative")
        report = hkt_report(table, form)
        if report.is_hkt != expect:
            return CheckOutcome("hkt-equivalence", False, count,
                                f"case {i}: expected is_hkt={expect}, got {report.is_hkt}")
        if expect:
            positives += 1
        else:
            negatives += 1
    return CheckOutcome("hkt-equivalence", True, count,
                        f"{positives} positive / {negatives} negative cases")


def identity_suite(ns: list[int], seed: int, count: int) -> list[CheckOutcome]:
    """The full identity battery the default CLI command runs."""
    outcomes = []
    tables: dict[int, ProjectorTable] = {}
    for n in ns:
        tables[n] = ProjectorTable(HypercomplexModel(n))
    for n in ns:
        table = tables[n]
        model = table.model
        outcomes.append(_tag(d_squared_battery(model, seed + n, count), n))
        outcomes.append(_tag(leibniz_battery(model, seed + n, count), n))
        outcomes.append(_tag(anticommute_battery(model, seed + n, count), n))
        outcomes.append(_tag(projected_d_squared_battery(table, seed + n, max(1, count // 2)), n))
        outcomes.append(_tag(eta_idempotence_battery(table, seed + n, max(1, count // 2)), n))
        outcomes.append(_tag(remark_battery(model, table, seed + n, max(1, count // 3)), n))
        if n == 1:
            outcomes.append(_tag(conformal_battery(table, seed + n, count), n))
    if 1 in tables and 2 in tables:
        outcomes.append(equivalence_battery(tables, seed, max(4, count // 2)))
    if 3 in tables:
        # One positive and one certified negative, whatever --count is: an
        # n = 3 negative is the costliest case of any battery.
        cycle = ((3, "potential"), (3, "negative"))
        outcomes.append(_tag(equivalence_battery(tables, seed + 3, len(cycle), cycle), 3))
    return outcomes


def _tag(outcome: CheckOutcome, n: int) -> CheckOutcome:
    outcome.name = f"{outcome.name}[n={n}]"
    return outcome
