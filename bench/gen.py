"""Seeded input documents for the benchmark, with their expected outcomes.

Every document is built from a `random.Random` seeded by the workload seed,
so one seed always gives the same inputs.  Random polynomials are drawn
here rather than with `hktcalc.random_polynomial`, so a change to the
program's own sampler cannot change the benchmark's inputs.  The program
is used only to derive forms whose verdict is known from theory (a
potential's Kaehler form, a type-(1,1) projection) and to certify each
negative (`salamon_D != 0`) at generation time.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hktcalc import HypercomplexModel, KForm, Polynomial, ProjectorTable, salamon_D
from hktcalc.geometry import potential_to_forms

# The conformal4d documents are solved on this box; positivity of phi is
# certified on the whole box, hence on every grid inside it.
BOX = (-1, 1)


def rand_poly(rng: random.Random, dim: int, degree: int, n_terms: int,
              coeffs=range(-9, 10)) -> Polynomial:
    """Up to `n_terms` monomials of total degree `degree`, with nonzero integer
    coefficients from `coeffs`.  A fixed degree keeps the cost of the
    documents nearly the same from seed to seed."""
    pool = [c for c in coeffs if c]
    terms: dict[tuple, int] = {}
    for _ in range(n_terms):
        exp = [0] * dim
        for _ in range(degree):
            exp[rng.randrange(dim)] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + rng.choice(pool)
    return poly_from_terms(dim, {e: Fraction(c) for e, c in terms.items()})


def poly_from_terms(dim: int, terms: dict) -> Polynomial:
    """Build through the documented JSON schema (zero terms dropped)."""
    items = [{"num": str(c.numerator), "den": str(c.denominator), "exp": list(e)}
             for e, c in sorted(terms.items()) if c]
    return Polynomial.from_json({"dim": dim, "terms": items})


def box_lower_bound(p: Polynomial) -> Fraction:
    """A lower bound of p on [-1, 1]^dim: constant term minus the other |coefficients|."""
    const = Fraction(0)
    rest = Fraction(0)
    for exp, c in p.terms.items():
        if any(exp):
            rest += abs(Fraction(c))
        else:
            const += Fraction(c)
    return const - rest


def positive_factor(rng: random.Random) -> Polynomial:
    """A quadratic conformal factor certified positive on the box."""
    p = rand_poly(rng, 4, 2, 3)
    return p + Polynomial.constant(4, 1 - box_lower_bound(p))


def manufactured_conformal(rng: random.Random) -> tuple[Polynomial, Polynomial]:
    """(phi, mu*) with mu* = |x|^2/2 + q/20 for a seeded quartic q, phi = Delta mu*/4.

    The solver's continuum equation is Delta mu = 4 phi, so mu* is the exact
    potential and its boundary values are the Dirichlet data.  q always has
    a pure x_j^4 term: central second differences are exact on every other
    quartic monomial, and without one the discrete solution would be exact
    and the convergence order undefined.  q is resampled until phi is
    certified positive on the box.
    """
    half = {tuple(2 if j == i else 0 for j in range(4)): Fraction(1, 2) for i in range(4)}
    while True:
        q = rand_poly(rng, 4, 4, 2, coeffs=range(-3, 4))
        axis = rng.randrange(4)
        pure = tuple(4 if j == axis else 0 for j in range(4))
        mu_terms = dict(half)
        mu_terms[pure] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), 20)
        for e, c in q.terms.items():
            mu_terms[e] = mu_terms.get(e, 0) + Fraction(c) / 20
        mu = poly_from_terms(4, mu_terms)
        lap = sum((mu.partial(i).partial(i) for i in range(4)), Polynomial.zero(4))
        phi = lap.scale(Fraction(1, 4))
        if box_lower_bound(phi) >= Fraction(1, 4):
            return phi, mu


def _doc(kind: str, n: int, payload: dict) -> dict:
    return {"kind": kind, "model": {"n": n, "convention": "left"}, "payload": payload}


def conformal4d_doc(rng: random.Random) -> dict:
    phi, mu = manufactured_conformal(rng)
    return _doc("conformal4d", 1, {"phi": phi.to_json(), "box": list(BOX), "dirichlet": mu.to_json()})


def _type11(model: HypercomplexModel, form: KForm) -> KForm:
    """Projection (1 + I* - J* - K*)/4 onto the Salamon (1,1) forms.

    The pullbacks I*, J*, K* of 2-forms form a Klein four-group with
    I*J* = K*, and this is the projector onto its character I* = 1, J* = -1.
    """
    pull = {name: model.operator(name).pullback(form) for name in "IJK"}
    return (form + pull["I"] - pull["J"] - pull["K"]) * Fraction(1, 4)


def negative_form(model: HypercomplexModel, table: ProjectorTable, rng: random.Random) -> KForm:
    """A generic (1,1)-form, certified non-HKT by a nonzero D-residual."""
    dim = model.dim
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    for _ in range(20):
        raw = KForm.zero(2, dim)
        for idx in rng.sample(pairs, 8):
            raw = raw + KForm(2, dim, {idx: rand_poly(rng, dim, 2, 2)})
        form = _type11(model, raw)
        if not salamon_D(table, form).is_zero():
            return form
    raise RuntimeError("could not certify a non-HKT form")


def potential_form(model: HypercomplexModel, rng: random.Random) -> KForm:
    """The Kaehler form F_I of a random cubic potential (HKT by construction)."""
    for _ in range(20):
        form = potential_to_forms(model, rand_poly(rng, model.dim, 3, 3)).f_i
        if not form.is_zero():
            return form
    raise RuntimeError("random potentials kept producing the zero form")


def check_cases(seed: int) -> list[dict]:
    """The five `hkt check` documents of the check-docs cycle.

    Each case carries its document and the exit code, `all_ok` and
    `verdicts` a correct program reports for it.
    """
    rng = random.Random(f"check-docs:{seed}")
    m2 = HypercomplexModel(2)
    table2 = ProjectorTable(m2)
    hkt = {"exit": 0, "all_ok": True, "verdicts": {"is_hkt": True}}
    phi = positive_factor(rng)
    zero = Polynomial.zero(4).to_json()
    metric = [[phi.to_json() if i == j else zero for j in range(4)] for i in range(4)]
    return [
        {"name": "form-n2-negative",
         "doc": _doc("form", 2, {"form": negative_form(m2, table2, rng).to_json()}),
         "expect": {"exit": 1, "all_ok": False, "verdicts": {"is_hkt": False}}},
        {"name": "form-n2-potential",
         "doc": _doc("form", 2, {"form": potential_form(m2, rng).to_json()}),
         "expect": hkt},
        {"name": "potential-n2",
         "doc": _doc("potential", 2, {"mu": rand_poly(rng, m2.dim, 3, 4).to_json()}),
         "expect": {"exit": 0, "all_ok": True, "verdicts": {
             "form_salamon_11": True, "d_closed": True, "theta_certificate": True}}},
        {"name": "metric-n1-conformal",
         "doc": _doc("metric", 1, {"g": metric}),
         "expect": hkt},
        {"name": "conformal4d-n1",
         "doc": conformal4d_doc(rng),
         "expect": hkt},
    ]


def identity_seeds(seed: int, count: int) -> list[int]:
    """The `hkt identities --seed S` values of one run."""
    rng = random.Random(f"identity-suite:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def solve_docs(seed: int, count: int) -> list[dict]:
    """Manufactured conformal4d documents for `hkt solve`."""
    rng = random.Random(f"conformal-solve:{seed}")
    return [conformal4d_doc(rng) for _ in range(count)]
