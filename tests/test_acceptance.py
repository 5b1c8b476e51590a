"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Exact checks use equality of normalized representations (zero
tolerance); only the 4D solver criteria carry numeric tolerances.
"""

import math
import time
from fractions import Fraction

import numpy as np

from hktcalc import exact_linalg as ela
from hktcalc.batteries import (
    anticommute_battery,
    conformal_battery,
    d_squared_battery,
    equivalence_battery,
    leibniz_battery,
    projected_d_squared_battery,
)
from hktcalc.elliptic import ConformalMetricSpec, SolverConfig, solve_potential
from hktcalc.forms import KForm, multi_indices
from hktcalc.geometry import (
    default_sample_points,
    hessian_kahler_form,
    is_hkt_potential,
    potential_to_forms,
    theta_from_potential,
)
from hktcalc.salamon import a11_subspace, salamon_D
from hktcalc.scalars import Polynomial, random_polynomial

from conftest import (
    bundle_B,
    complex_laplacian,
    complex_laplacian_at,
    condition_rank,
    flat_form,
    grid_from_polynomial,
    norm_squared,
    quarter_norm_potential,
    random_sphere_points,
)

SEED = 20260811


def _verdict(num: int, ok: bool, description: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {description}{tail}")
    assert ok, f"criterion {num} failed: {description} {tail}"


def test_criterion_1_exact_calculus(model1, model2):
    """d^2 = 0, graded Leibniz, anticommutation: >= 100 cases each."""
    start = time.perf_counter()
    outcomes = []
    for model in (model1, model2):
        outcomes.append(d_squared_battery(model, SEED, 60))
        outcomes.append(leibniz_battery(model, SEED + 1, 60))
        outcomes.append(anticommute_battery(model, SEED + 2, 60))
    elapsed = time.perf_counter() - start
    ok = all(o.ok for o in outcomes) and elapsed <= 60
    detail = "; ".join(o.detail for o in outcomes if not o.ok) or f"{elapsed:.1f}s"
    _verdict(1, ok, "exactness of d, Leibniz, anticommutation (120 cases each)", detail)


def test_criterion_2_projected_differential(table1, table2):
    """D^2 = 0 on >= 50 random 1-forms per n, both code paths equal."""
    start = time.perf_counter()
    out1 = projected_d_squared_battery(table1, SEED + 3, 50)
    out2 = projected_d_squared_battery(table2, SEED + 4, 50)
    elapsed = time.perf_counter() - start
    ok = out1.ok and out2.ok and elapsed <= 120
    _verdict(2, ok, "D^2 = 0 with both projection routes (50 cases per n)",
             out1.detail or out2.detail or f"{elapsed:.1f}s")


def test_criterion_3_bundle_structure(model1, model2):
    """Exact fiber ranks and rank stability, no tolerance."""
    a11_rank = len(a11_subspace(model1))
    b3 = bundle_B(model1, 3)
    base = condition_rank(model2, 3)
    extra = condition_rank(model2, 3, random_sphere_points(5, seed=SEED))
    ok = a11_rank == 1 and b3.rank == 4 == len(multi_indices(4, 3)) and base == extra
    _verdict(3, ok, "fiber ranks: dim A11(n=1)=1, B3(n=1)=Lambda3, stable n=2 rank",
             f"A11={a11_rank}, B3={b3.rank}, rank {base}->{extra}")


def test_criterion_4_four_dimensional_lemma(table1):
    """20 positive conformal factors: definition residuals exactly zero."""
    start = time.perf_counter()
    outcome = conformal_battery(table1, SEED + 5, 20)
    elapsed = time.perf_counter() - start
    ok = outcome.ok and elapsed <= 60
    _verdict(4, ok, "every positive 4D conformal metric satisfies the definition exactly",
             outcome.detail or f"{elapsed:.1f}s")


def test_criterion_5_equivalence_battery(table1, table2):
    """>= 50 positive/negative cases; three predicates agree pairwise."""
    outcome = equivalence_battery({1: table1, 2: table2}, SEED + 6, 56)
    positives = negatives = 0
    if outcome.ok:
        left, right = outcome.detail.split("/")
        positives = int(left.strip().split()[0])
        negatives = int(right.strip().split()[0])
    ok = outcome.ok and positives + negatives >= 50 and negatives >= 10
    _verdict(5, ok, "definition/projection/twistor agree on every case", outcome.detail)


def test_criterion_6_potential_calculus(model1, table1, model2, table2):
    """Flat potential exact; 30 random potentials: D(I d mu) route and
    all four equivalent identities."""
    flat_ok = True
    forms = potential_to_forms(model1, quarter_norm_potential(4))
    for name, built in zip("IJK", forms.as_tuple()):
        flat_ok = flat_ok and built == flat_form(name)
    cases = 0
    random_ok = True
    for i in range(30):
        model, table = (model1, table1) if i % 2 == 0 else (model2, table2)
        mu = random_polynomial(model.dim, 3, 4, seed=SEED + 7 + i)
        built = potential_to_forms(model, mu)
        # theta_from_potential and is_hkt_potential raise ConventionError on
        # a broken certificate or disagreeing identities.
        d_route = salamon_D(table, theta_from_potential(table, mu, built.f_i))
        check = is_hkt_potential(model, mu, hessian_kahler_form(model, mu))
        random_ok = random_ok and d_route == built.f_i and check.ok
        cases += 1
    ok = flat_ok and random_ok and cases >= 30
    _verdict(6, ok, "potential calculus: flat forms exact, D(I d mu) route, four identities",
             f"{cases} random potentials")


def test_criterion_7_complex_laplacian(model1, table1, flat1):
    """Every constructed function with D D_I f = 0 has complex Laplacian 0
    at 10 rational sample points (exactly, flat metric)."""
    # Affine battery.
    functions = [
        Polynomial.variable(4, i) * c
        for i, c in ((0, 3), (1, -2), (2, 1), (3, 5))
    ]
    functions.append(Polynomial.constant(4, 7))
    # Constructed cases: quadratics in the kernel of D o D_I, found by an
    # exact null-space computation of mu -> eta(d d_I mu) on quadratics.
    dim = 4
    quadratics = []
    for a in range(dim):
        for b in range(a, dim):
            quadratics.append(Polynomial.variable(dim, a) * Polynomial.variable(dim, b))
    basis2 = multi_indices(dim, 2)
    columns = []
    op_i = model1.operator("I")
    for q in quadratics:
        w = table1.eta(op_i.twisted_d(KForm.from_polynomial(q)).d())
        columns.append([w.terms.get(idx, Polynomial.zero(dim)).constant_term() for idx in basis2])
    rows = [[columns[j][i] for j in range(len(quadratics))] for i in range(len(basis2))]
    kernel = ela.null_space(rows)
    constructed = 0
    for vec in kernel:
        f = Polynomial.zero(dim)
        for coeff, q in zip(vec, quadratics):
            if coeff:
                f = f + q * coeff
        if f.is_zero():
            continue
        dd_i = op_i.twisted_d(KForm.from_polynomial(f)).d()
        if not dd_i.is_zero():
            constructed += 1
        functions.append(f)
    points = default_sample_points(4, count=10, seed=SEED)
    ok = constructed >= 3
    for f in functions:
        poly = complex_laplacian(f, flat1)
        ok = ok and poly.is_zero()
        ok = ok and all(complex_laplacian_at(f, flat1, pt) == 0 for pt in points)
    _verdict(7, ok, "complex Laplacian vanishes on the D D_I kernel at 10 points",
             f"{len(functions)} functions, {constructed} with dd_I f != 0")


def test_criterion_8_flat_manufactured_solver():
    """17^4 flat solve against the exact potential: error <= 10x tolerance."""
    tol = 1e-10
    mu_star = norm_squared(4) * Fraction(1, 2)
    spec = ConformalMetricSpec(Polynomial.constant(4, 1), (-1.0, 1.0))
    start = time.perf_counter()
    result = solve_potential(spec, 17, SolverConfig(tol=tol, dirichlet=mu_star))
    elapsed = time.perf_counter() - start
    exact = grid_from_polynomial(17, -1.0, 1.0, mu_star)
    err = float(np.max(np.abs(result.grid.values - exact.values)))
    ok = err <= 10 * tol and elapsed <= 300
    _verdict(8, ok, "flat manufactured solution on 17^4",
             f"max error {err:.2e} vs 10*tol {10 * tol:.0e}, {elapsed:.1f}s, "
             f"{result.diagnostics['iterations']} iterations")


def test_criterion_9_conformal_convergence():
    """Observed order in [1.6, 2.4] between 9^4 and 17^4; trace residual
    decreases monotonically under refinement."""
    x0 = Polynomial.variable(4, 0)
    x1 = Polynomial.variable(4, 1)
    phi = Polynomial.constant(4, 1) + (x0 * x0 + x1 * x1) * Fraction(1, 4)
    mu_star = norm_squared(4) * Fraction(1, 2) + (x0**4 + x1**4) * Fraction(1, 12)
    spec = ConformalMetricSpec(phi, (-1.0, 1.0))
    reports = {}
    for m in (9, 13, 17):
        reports[m] = solve_potential(spec, m, SolverConfig(tol=1e-11, dirichlet=mu_star)).diagnostics
    order = math.log2(reports[9]["form_residual_max"] / reports[17]["form_residual_max"])
    traces = [reports[m]["trace_residual_max"] for m in (9, 13, 17)]
    ok = 1.6 <= order <= 2.4 and traces[0] > traces[1] > traces[2]
    _verdict(9, ok, "conformal solver: reconstruction order and trace monotonicity",
             f"order {order:.2f}, trace residuals {traces[0]:.2e} > {traces[1]:.2e} > {traces[2]:.2e}")
