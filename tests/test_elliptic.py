import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hktcalc.conventions import SOLVER_FORM_SCALE, TRACE_TARGET
from hktcalc.elliptic import (
    ConformalMetricSpec,
    Grid4D,
    SolverConfig,
    SolverError,
    _dst_poisson_solve,
    _linear_system,
    _mixed_diff,
    _negative_laplacian,
    _phi_arrays,
    _second_diff_sum,
    _wide_second_diff,
    laplace_beltrami_apply,
    potential_operator_apply,
    solve_potential,
    verify_potential,
    weyl_form,
    weyl_identity_residuals,
)
from hktcalc.scalars import Polynomial, random_polynomial
from hktcalc.structures import HypercomplexModel

from conftest import norm_squared


def _conjugate_gradient(b: np.ndarray, h: float, tol: float, max_iter: int):
    """Plain CG on  A v = b; stops on max-norm recursive residual <= tol.

    The solver does not use it: it is the independent oracle the DST solve
    is compared against.
    """
    x = np.zeros_like(b)
    r = b.copy()
    if float(np.max(np.abs(r))) <= tol:
        return x, 0
    p = r.copy()
    rr = float(np.sum(r * r))
    for it in range(1, max_iter + 1):
        ap = _negative_laplacian(p, h)
        pap = float(np.sum(p * ap))
        if pap <= 0.0:
            raise SolverError("system is not positive definite")
        alpha = rr / pap
        x = x + alpha * p
        r = r - alpha * ap
        if float(np.max(np.abs(r))) <= tol:
            return x, it
        rr_new = float(np.sum(r * r))
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise SolverError(f"conjugate gradient did not reach tol={tol} in {max_iter} iterations")


def x(i):
    return Polynomial.variable(4, i)


def one():
    return Polynomial.constant(4, 1)


def flat_spec(box=(-1.0, 1.0)):
    return ConformalMetricSpec(one(), box)


def half_norm():
    return norm_squared(4) * Fraction(1, 2)


def conformal_spec():
    phi = one() + (x(0) * x(0) + x(1) * x(1)) * Fraction(1, 4)
    return ConformalMetricSpec(phi, (-1.0, 1.0))


def conformal_manufactured():
    # trace(Hess mu) = 4 + x0^2 + x1^2 = 4 phi: an exact quartic solution.
    return half_norm() + (x(0) ** 4 + x(1) ** 4) * Fraction(1, 12)


class TestWeylForm:
    def test_flat_factor_gives_zero(self):
        dphi, phi = weyl_form(flat_spec())
        assert dphi.is_zero() and phi == one()

    def test_logarithmic_derivative_pair(self):
        from hktcalc.forms import KForm

        spec = ConformalMetricSpec(one() + x(0) * x(0))
        dphi, phi = weyl_form(spec)
        assert dphi == KForm(1, 4, {(0,): x(0) * 2})
        assert phi == spec.phi

    def test_identity_residuals_vanish(self):
        rng = random.Random(90)
        for _ in range(10):
            phi = Polynomial.constant(4, 3) + random_polynomial(4, 2, 3, seed=rng.randrange(10**6))
            residuals = weyl_identity_residuals(ConformalMetricSpec(phi))
            assert len(residuals) == 4
            assert all(r.is_zero() for r in residuals)

    def test_wrong_closed_form_leaves_residual(self):
        spec = conformal_spec()
        dphi = spec.gradient()
        for wrong in ([-d for d in dphi], [d * 2 for d in dphi], [d * -4 for d in dphi]):
            residuals = weyl_identity_residuals(spec, closed_form=wrong)
            assert not residuals[0].is_zero()
            assert not residuals[1].is_zero()


class TestDiscreteOperator:
    def test_quadratic_quarter_norm(self):
        grid = Grid4D.from_polynomial(9, -1.0, 1.0, norm_squared(4) * Fraction(1, 4))
        out = laplace_beltrami_apply(flat_spec(), grid)
        inner = out.values[1:-1, 1:-1, 1:-1, 1:-1]
        assert np.allclose(inner, -2.0, atol=1e-12)

    def test_affine_gives_zero(self):
        grid = Grid4D.from_polynomial(7, -1.0, 1.0, x(0) * 3 - x(2))
        out = laplace_beltrami_apply(flat_spec(), grid)
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_flat_self_adjointness(self):
        rng = np.random.default_rng(91)
        spec = flat_spec()
        g1 = Grid4D(7, -1.0, 1.0)
        g2 = Grid4D(7, -1.0, 1.0)
        g1.values[2:-2, 2:-2, 2:-2, 2:-2] = rng.normal(size=(3, 3, 3, 3))
        g2.values[2:-2, 2:-2, 2:-2, 2:-2] = rng.normal(size=(3, 3, 3, 3))
        lap1 = laplace_beltrami_apply(spec, g1).values
        lap2 = laplace_beltrami_apply(spec, g2).values
        assert np.sum(lap1 * g2.values) == pytest.approx(np.sum(g1.values * lap2), rel=1e-12)

    def test_flat_stencil_reduction_exact(self):
        # With phi = 1 the drift vanishes identically, so the geometric
        # operator IS the plain Laplacian stencil, bit for bit.
        grid = Grid4D(7, -1.0, 1.0)
        grid.values[:] = np.random.default_rng(92).normal(size=(7,) * 4)
        combined = potential_operator_apply(flat_spec(), grid)
        expected = np.zeros_like(grid.values)
        expected[1:-1, 1:-1, 1:-1, 1:-1] = -_second_diff_sum(grid.values, grid.h)
        assert np.array_equal(combined.values, expected)

    def test_drift_cancellation_for_variable_factor(self):
        spec = conformal_spec()
        grid = Grid4D(7, -1.0, 1.0)
        grid.values[:] = np.random.default_rng(93).normal(size=(7,) * 4)
        combined = potential_operator_apply(spec, grid)
        phi = np.ones((7,) * 4)
        mesh = grid.meshgrid()
        from hktcalc.elliptic import _eval_poly_on_mesh

        phi = np.broadcast_to(_eval_poly_on_mesh(spec.phi, mesh), (7,) * 4)
        expected = np.zeros_like(grid.values)
        expected[1:-1, 1:-1, 1:-1, 1:-1] = (
            -_second_diff_sum(grid.values, grid.h) / phi[1:-1, 1:-1, 1:-1, 1:-1]
        )
        assert np.allclose(combined.values, expected, rtol=1e-12, atol=1e-12)

    def test_matches_symbolic_on_quadratics(self):
        # For degree <= 2 the stencils are exact, so the discrete operator
        # must match the symbolic conformal Laplacian at the nodes.
        spec = conformal_spec()
        mu = half_norm() + x(0) * x(1) - x(2) * 2
        grid = Grid4D.from_polynomial(5, -1.0, 1.0, mu)
        out = laplace_beltrami_apply(spec, grid)
        ax = grid.axis()
        phi = spec.phi
        dphi = spec.gradient()
        dmu = [mu.partial(i) for i in range(4)]
        trace_hess = Polynomial.zero(4)
        for i in range(4):
            trace_hess = trace_hess + mu.partial(i).partial(i)
        inner_prod = Polynomial.zero(4)
        for k in range(4):
            inner_prod = inner_prod + dphi[k] * dmu[k]
        for idx in [(1, 1, 1, 1), (2, 1, 3, 2), (1, 2, 2, 3)]:
            pt = [Fraction(float(ax[i])) for i in idx]
            pv = phi.evaluate(pt)
            expected = -trace_hess.evaluate(pt) / pv - inner_prod.evaluate(pt) / pv**2
            assert out.values[idx] == pytest.approx(float(expected), rel=1e-12)


class TestSolver:
    def test_flat_manufactured_solution(self):
        tol = 1e-10
        result = solve_potential(flat_spec(), 17, SolverConfig(tol=tol, dirichlet=half_norm()))
        exact = Grid4D.from_polynomial(17, -1.0, 1.0, half_norm())
        err = np.max(np.abs(result.grid.values - exact.values))
        assert err <= 10 * tol
        assert result.residual_max <= 100 * tol

    def test_zero_data_maximum_principle(self):
        result = solve_potential(flat_spec(), 9, SolverConfig(tol=1e-11))
        interior = result.grid.values[1:-1, 1:-1, 1:-1, 1:-1]
        assert np.all(interior < 0)
        boundary = result.grid.values[result.grid.boundary_mask()]
        assert np.all(boundary == 0)

    def test_rhs_scaling_linearity(self):
        base = solve_potential(flat_spec(), 7, SolverConfig(tol=1e-12))
        doubled_spec = ConformalMetricSpec(Polynomial.constant(4, 2), (-1.0, 1.0))
        doubled = solve_potential(doubled_spec, 7, SolverConfig(tol=1e-12))
        assert np.allclose(doubled.grid.values, 2 * base.grid.values, atol=1e-9)

    def test_self_convergence_ratio(self):
        spec = conformal_spec()
        cfg = SolverConfig(tol=1e-11)
        sols = {m: solve_potential(spec, m, cfg).grid for m in (9, 17, 33)}
        d1 = np.max(np.abs(sols[9].values - sols[17].values[::2, ::2, ::2, ::2]))
        d2 = np.max(np.abs(sols[17].values - sols[33].values[::2, ::2, ::2, ::2]))
        assert 3.2 <= d1 / d2 <= 4.8

    def test_nonpositive_factor_rejected_before_assembly(self):
        spec = ConformalMetricSpec(x(0), (-1.0, 1.0))
        with pytest.raises(ValueError):
            solve_potential(spec, 7)

    def test_dirichlet_must_be_polynomial(self):
        with pytest.raises(ValueError):
            SolverConfig(dirichlet=lambda *xs: 0.0)
        with pytest.raises(ValueError):
            SolverConfig(dirichlet=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dirichlet=Polynomial.variable(2, 1))

    @pytest.mark.parametrize("m", [9, 17])
    @pytest.mark.parametrize("case", ["flat", "conformal"])
    def test_dst_matches_cg_oracle(self, m, case):
        if case == "flat":
            spec, cfg = flat_spec(), SolverConfig(tol=1e-12)
        else:
            spec, cfg = conformal_spec(), SolverConfig(tol=1e-12, dirichlet=conformal_manufactured())
        grid = Grid4D(m, *spec.box)
        _, _, b = _linear_system(spec, grid, cfg)
        v_dst, sweeps = _dst_poisson_solve(b, grid.h, cfg.tol, cfg.max_iter)
        v_cg, _ = _conjugate_gradient(b, grid.h, cfg.tol, cfg.max_iter)
        assert sweeps == 1
        assert np.max(np.abs(v_dst - v_cg)) <= 1e-10

    @pytest.mark.parametrize("m", [9, 17])
    def test_returned_grid_meets_true_residual(self, m):
        spec = conformal_spec()
        cfg = SolverConfig(tol=1e-11, dirichlet=conformal_manufactured())
        result = solve_potential(spec, m, cfg)
        _, _, b = _linear_system(spec, Grid4D(m, *spec.box), cfg)
        v = result.grid.values[1:-1, 1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(b - _negative_laplacian(v, result.grid.h))) <= cfg.tol

    @pytest.mark.parametrize("m", [17, 33])
    def test_manufactured_solve_takes_one_sweep(self, m):
        result = solve_potential(conformal_spec(), m, SolverConfig(tol=1e-10, dirichlet=conformal_manufactured()))
        assert result.iterations == 1
        assert result.diagnostics["iterations"] == 1

    def test_tolerance_below_floor_raises(self):
        # The true residual cannot fall below its rounding floor (about 3e-14
        # at m = 9), so the solve stops with an error instead of sweeping on
        # until max_iter.
        with pytest.raises(SolverError, match="stalled"):
            solve_potential(flat_spec(), 9, SolverConfig(tol=1e-16))

    def test_nonconvergence_raises(self):
        with pytest.raises(SolverError):
            solve_potential(flat_spec(), 9, SolverConfig(tol=1e-15, max_iter=2))


class TestVerification:
    def test_flat_residuals_machine_scale(self):
        result = solve_potential(flat_spec(), 9, SolverConfig(tol=1e-12, dirichlet=half_norm()))
        report = verify_potential(result.grid, flat_spec())
        assert report["trace_residual_max"] < 1e-9
        assert report["form_residual_max"] < 1e-9

    def test_conformal_residual_convergence_order(self):
        spec = conformal_spec()
        mu_star = conformal_manufactured()
        reports = {}
        for m in (9, 13, 17):
            result = solve_potential(spec, m, SolverConfig(tol=1e-11, dirichlet=mu_star))
            reports[m] = verify_potential(result.grid, spec)
        order = math.log2(reports[9]["form_residual_max"] / reports[17]["form_residual_max"])
        assert 1.6 <= order <= 2.4
        traces = [reports[m]["trace_residual_max"] for m in (9, 13, 17)]
        assert traces[0] > traces[1] > traces[2]

    def test_perturbation_sensitivity(self):
        spec = flat_spec()
        base = Grid4D.from_polynomial(9, -1.0, 1.0, half_norm())
        bump = np.zeros((9,) * 4)
        bump[4, 4, 4, 4] = 1.0
        residuals = []
        for eps in (1e-4, 2e-4):
            grid = Grid4D(9, -1.0, 1.0, base.values + eps * bump)
            residuals.append(verify_potential(grid, spec)["trace_residual_max"])
        assert residuals[1] / residuals[0] == pytest.approx(2.0, rel=0.05)


def einsum_verify(grid, spec):
    """The dense-Hessian einsum formulation of verify_potential (oracle)."""
    margin = 2
    h = grid.h
    phi, _ = _phi_arrays(spec, grid)
    sl = (slice(margin, -margin),) * 4
    phi_in = phi[sl]
    hess = np.zeros((4, 4) + phi_in.shape)
    for a in range(4):
        hess[a, a] = _wide_second_diff(grid.values, a, h, margin)
        for b in range(a + 1, 4):
            hess[a, b] = hess[b, a] = _mixed_diff(grid.values, a, b, h, margin)
    trace = hess[0, 0] + hess[1, 1] + hess[2, 2] + hess[3, 3]
    trace_res = np.abs(trace / phi_in - float(TRACE_TARGET))
    model = HypercomplexModel(1)
    mats = [np.array([[float(v) for v in row] for row in model.matrix(nm)]) for nm in ("I", "J", "K")]
    avg = hess.copy()
    for mat in mats:
        avg = avg + np.einsum("ka,kl...,lb->ab...", mat, hess, mat)
    avg = 0.5 * avg
    i_mat = mats[0]
    f_rec = np.einsum("ka,kb...->ab...", i_mat, avg)
    form_res = np.zeros_like(phi_in)
    for a in range(4):
        for b in range(a + 1, 4):
            expected = float(SOLVER_FORM_SCALE) * phi_in * i_mat[b, a]
            form_res = np.maximum(form_res, np.abs(f_rec[a, b] - expected))
    return {
        "trace_residual_max": float(trace_res.max()),
        "trace_residual_mean": float(trace_res.mean()),
        "form_residual_max": float(form_res.max()),
        "form_residual_mean": float(form_res.mean()),
    }


class TestVerificationOracle:
    @pytest.mark.parametrize("m", [9, 13])
    def test_matches_einsum_formulation(self, m):
        rng = np.random.default_rng(400 + m)
        spec = conformal_spec()
        base = Grid4D.from_polynomial(m, -1.0, 1.0, conformal_manufactured())
        for noise in (0.0, 1e-3, 1.0):
            grid = Grid4D(m, -1.0, 1.0, base.values + noise * rng.normal(size=(m,) * 4))
            lean = verify_potential(grid, spec)
            dense = einsum_verify(grid, spec)
            for key, value in dense.items():
                assert lean[key] == pytest.approx(value, rel=1e-12, abs=0.0)


class TestGrid:
    def test_spacing(self):
        assert Grid4D(17, -1.0, 1.0).h == pytest.approx(0.125)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid4D(2, 0.0, 1.0)

    def test_csv_slice_export(self, tmp_path):
        grid = Grid4D.from_polynomial(5, -1.0, 1.0, x(0) + x(1))
        path = tmp_path / "slice.csv"
        grid.export_slice_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,mu"
        assert len(lines) == 1 + 25
