import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hktcalc import elliptic
from hktcalc.conventions import SOLVER_FORM_SCALE, TRACE_TARGET, ConventionError
from hktcalc.elliptic import (
    ConformalMetricSpec,
    Grid4D,
    SolverConfig,
    SolverError,
    _dst4,
    _dst_poisson_solve,
    _eigenvalue_row,
    _eval_poly_on_mesh,
    _factor_minimum,
    _interior,
    _residual_rows,
    _sample_rows,
    _second_diff_sum,
    _shifted,
    _sine_matrix,
    _slab_rows,
    _wide_second_diff,
    _write_dirichlet_faces,
    solve_potential,
    verify_potential,
)
from hktcalc.forms import KForm
from hktcalc.scalars import Polynomial, random_polynomial
from hktcalc.structures import HypercomplexModel

from conftest import grid_from_polynomial, norm_squared, oracle_conjugate, structure_matrix


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
        ap = pad_negative_laplacian(p, h)
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


# Whole-array formulation of the linear solve: every step allocates its
# result.  The library solves in the solution grid's own buffer, forming
# each residual (b first, as the residual of the zero interior) row by row
# and sampling phi slab by slab, and allocates a residual array only for a
# refinement sweep; these are the oracles it must reproduce bit for bit.

def gradient(spec: ConformalMetricSpec) -> list[Polynomial]:
    return [spec.phi.partial(i) for i in range(4)]


def whole_samples(spec: ConformalMetricSpec, grid: Grid4D):
    """(phi, [d_0 phi, .., d_3 phi]) sampled on the whole m^4 mesh at once."""
    mesh, shape = grid.meshgrid(), (grid.m,) * 4
    phi = np.broadcast_to(_eval_poly_on_mesh(spec.phi, mesh), shape)
    return phi, [np.broadcast_to(_eval_poly_on_mesh(p, mesh), shape) for p in gradient(spec)]


def linear_system(spec: ConformalMetricSpec, grid: Grid4D, config: SolverConfig):
    """(phi, b): the factor on the whole grid and the right-hand side b of
    A v = b, stored whole.  The Dirichlet data are written into the
    boundary of grid.values, whose interior must be zero."""
    phi, _ = whole_samples(spec, grid)
    if not np.all(phi > 0):
        raise ValueError("conformal factor must be positive at every grid node")
    _write_dirichlet_faces(config, grid)
    return phi, _second_diff_sum(grid.values, grid.h) + -float(TRACE_TARGET) * _interior(phi)


def stored_residual(b: np.ndarray, values: np.ndarray, h: float):
    """The `residual` argument of _dst_poisson_solve for a stored b: the
    rows of b - A v, v the interior of `values` when it is called."""
    return lambda: enumerate(b - pad_negative_laplacian(_interior(values), h))


def boundary_mask(m: int) -> np.ndarray:
    mask = np.zeros((m,) * 4, dtype=bool)
    for a in range(4):
        sl = [slice(None)] * 4
        sl[a] = 0
        mask[tuple(sl)] = True
        sl[a] = -1
        mask[tuple(sl)] = True
    return mask


def mask_dirichlet_values(config: SolverConfig, grid: Grid4D) -> np.ndarray:
    full = np.zeros((grid.m,) * 4)
    if config.dirichlet is None:
        return full
    vals = np.broadcast_to(_eval_poly_on_mesh(config.dirichlet, grid.meshgrid()), (grid.m,) * 4)
    mask = boundary_mask(grid.m)
    full[mask] = vals[mask]
    return full


def pad_negative_laplacian(v_int: np.ndarray, h: float) -> np.ndarray:
    """A v = -sum_i D2_i v, with v extended by zero Dirichlet data."""
    return -_second_diff_sum(np.pad(v_int, 1), h)


def dense_dst4(a: np.ndarray, sines: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    for _ in range(4):
        a = (a.reshape(n, -1).T @ sines).reshape((n,) * 4)
    return a


def dense_dst_poisson_solve(mu: np.ndarray, phi: np.ndarray, h: float, tol: float, max_iter: int,
                            divisor_scale: float = 1.0) -> int:
    """Sweep count of the DST solve on the padded grid `mu`, whose interior
    must be zero on entry and holds v on return, with the eigenvalues
    materialized as one cube, each divisor then multiplied by
    `divisor_scale`.  Every residual is b's own formula on the current
    grid, sum_i D2_i mu + -4 phi."""

    def residual():
        return _second_diff_sum(mu, h) + -float(TRACE_TARGET) * _interior(phi)

    big_n = mu.shape[0] - 1
    axis_eig = (4.0 / (h * h)) * np.sin(np.pi * np.arange(1, big_n) / (2 * big_n)) ** 2
    eig = (
        axis_eig[:, None, None, None]
        + axis_eig[None, :, None, None]
        + axis_eig[None, None, :, None]
        + axis_eig[None, None, None, :]
    )
    eig *= (2.0 * big_n) ** 4
    eig *= divisor_scale
    sines = _sine_matrix(big_n - 1)
    v = _interior(mu)
    r = residual()
    res = float(np.max(np.abs(r)))
    for sweep in range(1, max_iter + 1):
        v += dense_dst4(dense_dst4(r, sines) / eig, sines)
        r = residual()
        new_res = float(np.max(np.abs(r)))
        if new_res <= tol:
            return sweep
        if not new_res < res:
            raise SolverError(f"DST sweeps stalled at residual {new_res:.3g}, above tol={tol}")
        res = new_res
    raise SolverError(f"DST solve did not reach tol={tol} in {max_iter} sweeps")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def dense_solve(spec: ConformalMetricSpec, m: int, config: SolverConfig, divisor_scale: float = 1.0):
    """(solution grid, sweeps, residual_max) of the whole-array solve,
    ungated."""
    grid = Grid4D(m, *spec.box)
    phi, _ = whole_samples(spec, grid)
    mu = mask_dirichlet_values(config, grid)
    sweeps = dense_dst_poisson_solve(mu, phi, grid.h, config.tol, elliptic.MAX_SWEEPS, divisor_scale)
    solution = Grid4D(m, grid.lo, grid.hi, mu)
    return solution, sweeps, float(np.max(whole_residual(spec, solution)))


def _dst1(a: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along `axis`: 2 sum_j a_j sin(pi j k / N), N = n + 1.

    Computed as the real FFT of the odd extension (0, a, 0, -reversed a).
    The solver applies the sine matrix instead; this is the oracle its
    products are compared against.
    """
    x = np.moveaxis(a, axis, -1)
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    return np.moveaxis(-np.fft.rfft(ext, axis=-1).imag[..., 1 : n + 1], -1, axis)


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


def four_axis_spec():
    # phi uses every coordinate, so no sample is constant along a slab's rows.
    phi = Polynomial.constant(4, 2) + x(0) * x(1) * Fraction(1, 3) + x(2) * x(2) * Fraction(1, 4)
    phi = phi - x(3) * Fraction(1, 5) + x(0) * x(3) * Fraction(1, 7)
    return ConformalMetricSpec(phi, (-0.5, 1.5))


# The exact Weyl data and the two geometric summands one at a time.  The
# library computes only their sum, |4 - phi^{-1} sum_i D2_i mu|
# (`verify_potential`'s residual), in which the first-order parts cancel; these
# build each summand on the whole grid and check the cancellation.

def weyl_form(spec: ConformalMetricSpec) -> tuple[KForm, Polynomial]:
    """The Weyl 1-form of g = phi*delta as the exact pair (d phi, phi).

    The 1-form itself is d(log phi) = dphi / phi; returning numerator and
    denominator keeps it inside polynomial arithmetic.
    """
    return KForm.from_polynomial(spec.phi).d(), spec.phi


def weyl_identity_residuals(spec: ConformalMetricSpec, closed_form=None) -> list[Polynomial]:
    """Exact residuals of the contracted Christoffel closed form.

    The Christoffel symbols of g = phi*delta come from the general formula
    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), with the
    inverse metric g^{kl} = delta^{kl} / phi.  Multiplying the contraction
    by 2 phi^2 clears every denominator:

        2 phi^2 g^{ij} Gamma^k_ij
            = sum_{i,j,l} delta^{ij} delta^{kl} (d_i g_jl + d_j g_il - d_l g_ij).

    Residual k is that polynomial minus `closed_form[k]`, by default
    -2 d_k phi: the closed form g^{ij} Gamma^k_ij = -phi^{-2} d_k phi that
    the Laplace-Beltrami summand relies on.  All four must be exactly zero.
    """
    phi = spec.phi
    zero = Polynomial.zero(4)
    g = [[phi if i == j else zero for j in range(4)] for i in range(4)]
    phi_g_inv = [[one() if i == j else zero for j in range(4)] for i in range(4)]
    dg = [[[g[j][l].partial(i) for l in range(4)] for j in range(4)] for i in range(4)]
    if closed_form is None:
        closed_form = [dp * -2 for dp in gradient(spec)]
    residuals = []
    for k in range(4):
        contraction = zero
        for i in range(4):
            for j in range(4):
                for l in range(4):
                    first_kind = dg[i][j][l] + dg[j][i][l] - dg[l][i][j]
                    contraction = contraction + phi_g_inv[i][j] * phi_g_inv[k][l] * first_kind
        residuals.append(contraction - closed_form[k])
    return residuals


def _first_diff(full: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central first difference on interior nodes."""
    return (_shifted(full, axis, 1, 1) - _shifted(full, axis, -1, 1)) / (2.0 * h)


def whole_laplace_beltrami(spec, grid):
    """Geometer-sign Laplacian of g = phi*delta at interior nodes.

    Delta mu = -g^{ij}(d_i d_j mu - Gamma^k_ij d_k mu); for the conformal
    metric the contracted Christoffel term reduces to
    g^{ij} Gamma^k_ij = -phi^{-2} d_k phi.  Boundary entries are zero.
    """
    phi, dphi = whole_samples(spec, grid)
    h = grid.h
    phi_in = _interior(phi)
    phi_sq = phi_in**2
    out = np.zeros_like(grid.values)
    acc = -_second_diff_sum(grid.values, h)
    acc /= phi_in
    for k in range(4):
        acc -= (_interior(dphi[k]) / phi_sq) * _first_diff(grid.values, k, h)
    out[1:-1, 1:-1, 1:-1, 1:-1] = acc
    return Grid4D(grid.m, grid.lo, grid.hi, out)


def whole_weyl_drift(spec, grid):
    """The drift term omega-sharp(mu) = phi^{-2} <d phi, d mu> (interior)."""
    phi, dphi = whole_samples(spec, grid)
    h = grid.h
    phi_in = _interior(phi)
    phi_sq = phi_in**2
    out = np.zeros_like(grid.values)
    acc = np.zeros_like(phi_in)
    for k in range(4):
        acc += (_interior(dphi[k]) / phi_sq) * _first_diff(grid.values, k, h)
    out[1:-1, 1:-1, 1:-1, 1:-1] = acc
    return Grid4D(grid.m, grid.lo, grid.hi, out)


def whole_potential_operator(spec, grid):
    """The assembled left-hand side  Delta mu + omega-sharp(mu)  (interior)."""
    lap = whole_laplace_beltrami(spec, grid)
    drift = whole_weyl_drift(spec, grid)
    return Grid4D(grid.m, grid.lo, grid.hi, lap.values + drift.values)


def whole_residual(spec, grid) -> np.ndarray:
    """|4 - phi^{-1} sum_i D2_i mu| at the interior nodes, on the whole grid
    at once: the oracle of `verify_potential`'s residual."""
    phi, _ = whole_samples(spec, grid)
    return np.abs(float(TRACE_TARGET) - _second_diff_sum(grid.values, grid.h) / _interior(phi))


class TestWeylForm:
    def test_flat_factor_gives_zero(self):
        dphi, phi = weyl_form(flat_spec())
        assert dphi.is_zero() and phi == one()

    def test_logarithmic_derivative_pair(self):
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
        dphi = gradient(spec)
        for wrong in ([-d for d in dphi], [d * 2 for d in dphi], [d * -4 for d in dphi]):
            residuals = weyl_identity_residuals(spec, closed_form=wrong)
            assert not residuals[0].is_zero()
            assert not residuals[1].is_zero()


class TestDiscreteOperator:
    def test_quadratic_quarter_norm(self):
        grid = grid_from_polynomial(9, -1.0, 1.0, norm_squared(4) * Fraction(1, 4))
        out = whole_laplace_beltrami(flat_spec(), grid)
        inner = out.values[1:-1, 1:-1, 1:-1, 1:-1]
        assert np.allclose(inner, -2.0, atol=1e-12)

    def test_affine_gives_zero(self):
        grid = grid_from_polynomial(7, -1.0, 1.0, x(0) * 3 - x(2))
        out = whole_laplace_beltrami(flat_spec(), grid)
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_flat_self_adjointness(self):
        rng = np.random.default_rng(91)
        spec = flat_spec()
        g1 = Grid4D(7, -1.0, 1.0)
        g2 = Grid4D(7, -1.0, 1.0)
        g1.values[2:-2, 2:-2, 2:-2, 2:-2] = rng.normal(size=(3, 3, 3, 3))
        g2.values[2:-2, 2:-2, 2:-2, 2:-2] = rng.normal(size=(3, 3, 3, 3))
        lap1 = whole_laplace_beltrami(spec, g1).values
        lap2 = whole_laplace_beltrami(spec, g2).values
        assert np.sum(lap1 * g2.values) == pytest.approx(np.sum(g1.values * lap2), rel=1e-12)

    def test_flat_stencil_reduction_exact(self):
        # With phi = 1 the drift vanishes identically, so the geometric
        # operator IS the plain Laplacian stencil, bit for bit.
        grid = Grid4D(7, -1.0, 1.0)
        grid.values[:] = np.random.default_rng(92).normal(size=(7,) * 4)
        combined = whole_potential_operator(flat_spec(), grid)
        expected = np.zeros_like(grid.values)
        expected[1:-1, 1:-1, 1:-1, 1:-1] = -_second_diff_sum(grid.values, grid.h)
        assert np.array_equal(combined.values, expected)

    def test_drift_cancellation_for_variable_factor(self):
        spec = conformal_spec()
        grid = Grid4D(7, -1.0, 1.0)
        grid.values[:] = np.random.default_rng(93).normal(size=(7,) * 4)
        combined = whole_potential_operator(spec, grid)
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
        grid = grid_from_polynomial(5, -1.0, 1.0, mu)
        out = whole_laplace_beltrami(spec, grid)
        ax = grid.axis()
        phi = spec.phi
        dphi = gradient(spec)
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
        exact = grid_from_polynomial(17, -1.0, 1.0, half_norm())
        err = np.max(np.abs(result.grid.values - exact.values))
        assert err <= 10 * tol
        assert result.diagnostics["residual_max"] <= 100 * tol

    def test_zero_data_maximum_principle(self):
        result = solve_potential(flat_spec(), 9, SolverConfig(tol=1e-11))
        interior = result.grid.values[1:-1, 1:-1, 1:-1, 1:-1]
        assert np.all(interior < 0)
        boundary = result.grid.values[boundary_mask(9)]
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
        _, b = linear_system(spec, grid, cfg)
        values = np.zeros((m,) * 4)
        sweeps = _dst_poisson_solve(stored_residual(b, values, grid.h), lambda: None, values, grid.h, cfg.tol)
        v_cg, _ = _conjugate_gradient(b, grid.h, cfg.tol, elliptic.MAX_SWEEPS)
        assert sweeps == 1
        assert np.max(np.abs(_interior(values) - v_cg)) <= 1e-10

    @pytest.mark.parametrize("m", [9, 17])
    def test_returned_grid_meets_true_residual(self, m):
        spec = conformal_spec()
        cfg = SolverConfig(tol=1e-11, dirichlet=conformal_manufactured())
        result = solve_potential(spec, m, cfg)
        _, b = linear_system(spec, Grid4D(m, *spec.box), cfg)
        v = result.grid.values[1:-1, 1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(b - pad_negative_laplacian(v, result.grid.h))) <= cfg.tol

    @pytest.mark.parametrize("m", [17, 33])
    def test_manufactured_solve_takes_one_sweep(self, m):
        result = solve_potential(conformal_spec(), m, SolverConfig(tol=1e-10, dirichlet=conformal_manufactured()))
        assert result.diagnostics["iterations"] == 1

    def test_tolerance_below_floor_raises(self):
        # The true residual cannot fall below its rounding floor (about 7e-14
        # at m = 9), so the solve stops with an error instead of sweeping on
        # until MAX_SWEEPS.
        with pytest.raises(SolverError, match="stalled"):
            solve_potential(flat_spec(), 9, SolverConfig(tol=1e-16))

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(elliptic, "MAX_SWEEPS", 2)
        with pytest.raises(SolverError, match="did not reach tol=1e-15 in 2 sweeps"):
            solve_potential(flat_spec(), 9, SolverConfig(tol=1e-15))

    @pytest.mark.parametrize("corruption", [1.0, float("nan")])
    def test_corrupted_residual_raises(self, monkeypatch, corruption):
        # The solve forms its residuals row by row and never calls
        # _second_diff_sum, so corrupting it leaves the solution alone and
        # trips the gate.
        stencil = elliptic._second_diff_sum
        monkeypatch.setattr(elliptic, "_second_diff_sum", lambda full, h: stencil(full, h) + corruption)
        with pytest.raises(SolverError, match=r"^geometric residual .* above .* at m = 7$"):
            solve_potential(flat_spec(), 7)

    @pytest.mark.parametrize("phi, shift, ok", [(1, 0.9e-8, True), (1, 1.1e-8, False),
                                                (2, 0.9e-8, True), (2, 1.1e-8, False)])
    def test_gate_bound_is_100_tol_over_min_phi(self, monkeypatch, phi, shift, ok):
        # A constant phi and a stencil shifted by `shift` give a residual of
        # shift / phi, up to a rounding floor near 1e-13; the bound is
        # 100 * 1e-10 / phi, so shift = 1e-8 is the edge for either factor.
        stencil = elliptic._second_diff_sum
        monkeypatch.setattr(elliptic, "_second_diff_sum", lambda full, h: stencil(full, h) + shift)
        spec = ConformalMetricSpec(Polynomial.constant(4, phi))
        if ok:
            assert solve_potential(spec, 7).diagnostics["residual_max"] == pytest.approx(shift / phi, rel=1e-3)
        else:
            with pytest.raises(SolverError, match=rf"^geometric residual .* above {1e-8 / phi:.3g} at m = 7$"):
                solve_potential(spec, 7)


class TestSineTransform:
    @pytest.mark.parametrize("n", range(1, 64))
    def test_sine_matrix_matches_fft_oracle(self, n):
        block = np.random.default_rng(500 + n).normal(size=(n, 7))
        oracle = _dst1(block, 0)
        products = _sine_matrix(n).T @ block
        assert np.max(np.abs(products - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_sine_depends_only_on_the_reduced_product(self):
        # The argument is reduced mod 2N in integers before the sine, so
        # entries whose k j agree mod 2N are bit-identical; with the plain
        # argument pi k j / N they differ in the last bits and the m = 17
        # solve needs a second sweep.
        for n in range(1, 64):
            k = np.arange(1, n + 1)
            residues = np.outer(k, k) % (2 * (n + 1))
            sines = _sine_matrix(n)
            for r in np.unique(residues):
                assert np.ptp(sines[residues == r]) == 0.0

    @pytest.mark.parametrize("n", range(1, 32))
    def test_dst4_matches_four_fft_passes(self, n):
        # Cubes up to n = 31 (m = 33); an n = 63 cube is 126 MB per copy,
        # and the per-axis matrix above is checked up to n = 63.
        a = np.random.default_rng(600 + n).normal(size=(n,) * 4)
        oracle = a
        for axis in range(4):
            oracle = _dst1(oracle, axis)
        got = _dst4(a.copy(), np.empty((n,) * 3), _sine_matrix(n))
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 31])
    def test_dst4_twice_scales_by_2n_to_the_fourth(self, n):
        a = np.random.default_rng(700 + n).normal(size=(n,) * 4)
        sines = _sine_matrix(n)
        scale = (2.0 * (n + 1)) ** 4
        scratch = np.empty((n,) * 3)
        twice = _dst4(_dst4(a.copy(), scratch, sines), scratch, sines)
        assert np.max(np.abs(twice - scale * a)) <= 1e-13 * scale * np.max(np.abs(a))


def _fresh_phi(spec, m):
    return np.broadcast_to(_eval_poly_on_mesh(spec.phi, Grid4D(m, *spec.box).meshgrid()), (m,) * 4)


def write_conformal_doc(tmp_path) -> str:
    """Path of a conformal4d document for conformal_spec() with the
    manufactured Dirichlet data."""
    doc = {"kind": "conformal4d", "model": {"n": 1},
           "payload": {"phi": conformal_spec().phi.to_json(), "dirichlet": conformal_manufactured().to_json()}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSlabSampling:
    def test_solve_samples_phi_per_slab(self, monkeypatch, tmp_path):
        from hktcalc.cli import main

        calls = []
        original = elliptic._eval_poly_on_mesh

        def counting(poly, mesh):
            calls.append(poly)
            return original(poly, mesh)

        monkeypatch.setattr(elliptic, "_eval_poly_on_mesh", counting)
        # Slabs of three rows at m = 9 and one row at m = 13.
        monkeypatch.setattr(elliptic, "SLAB_NODES", 3 * 9**3)
        path = write_conformal_doc(tmp_path)
        assert main(["solve", path, "--grid", "9", "--grid", "13", "--out", str(tmp_path / "r.json")]) == 0

        def slabs(m, margin):
            return len(list(_slab_rows(m, margin)))

        # Per grid: phi once per slab of the positivity pass (every row,
        # slabs(m, 0)), of the residual (b before the one sweep, b - A v
        # after it) and of the one verification pass (3 * slabs(m, 1)); the
        # Dirichlet data once per pair of opposite boundary faces (4), written
        # before the sweep and again after it, whose first transform uses the
        # boundary slots as workspace (8).  That is 3 + 9 + 8 = 20 for m = 9
        # and 13 + 33 + 8 = 54 for m = 13.
        expected = sum(slabs(m, 0) + 3 * slabs(m, 1) + 8 for m in (9, 13))
        assert len(calls) == expected == 74
        assert calls.count(conformal_manufactured()) == 16

    @pytest.mark.parametrize("make_spec", [conformal_spec, four_axis_spec])
    def test_slab_samples_match_the_whole_mesh(self, monkeypatch, make_spec):
        spec = make_spec()
        cfg = SolverConfig(tol=1e-10, dirichlet=conformal_manufactured())
        for m in (9, 13):
            monkeypatch.setattr(elliptic, "SLAB_NODES", 4 * m**3)
            grid = Grid4D(m, *spec.box)
            fresh = _fresh_phi(spec, m)
            for margin in (0, 1, 2):
                for start, stop in _slab_rows(m, margin):
                    sampled = _sample_rows(spec.phi, grid.meshgrid(), start, stop)
                    assert sampled.shape == (stop - start,) + (m,) * 3
                    assert np.array_equal(sampled, fresh[start:stop])
            phi_min = float(np.min(fresh[1:-1, 1:-1, 1:-1, 1:-1]))
            assert _factor_minimum(spec, grid) == phi_min
            assert solve_potential(spec, m, cfg).diagnostics["phi_min"] == phi_min

    @pytest.mark.parametrize("phi", [one() + x(0), one() - x(3), x(1) * x(1)], ids=["row0", "face", "interior"])
    def test_positivity_covers_every_node(self, phi):
        # Each factor vanishes on part of the box [-1, 1]^4 only: on grid row
        # 0, on the x3 = 1 face of every row, or on the x1 = 0 interior slice.
        with pytest.raises(ValueError, match="positive at every grid node"):
            _factor_minimum(ConformalMetricSpec(phi), Grid4D(9, -1.0, 1.0))

    def test_samples_follow_the_factor(self):
        grid = Grid4D(7, -1.0, 1.0)
        grid.values[:] = np.random.default_rng(94).normal(size=(7,) * 4)
        first, second = conformal_spec(), ConformalMetricSpec(one() + x(2) * x(3) * Fraction(1, 3))
        verify_potential(grid, first)
        report = verify_potential(grid, second)
        assert report["residual_max"] == float(np.max(whole_residual(second, grid)))
        # Nothing is cached: replacing the factor of a spec changes the pass.
        first.phi = second.phi
        assert verify_potential(grid, first) == report


class TestVerification:
    def test_flat_residuals_machine_scale(self):
        report = solve_potential(flat_spec(), 9, SolverConfig(tol=1e-12, dirichlet=half_norm())).diagnostics
        assert report["trace_residual_max"] < 1e-9
        assert report["form_residual_max"] < 1e-9

    def test_conformal_residual_convergence_order(self):
        spec = conformal_spec()
        mu_star = conformal_manufactured()
        reports = {}
        for m in (9, 13, 17):
            reports[m] = solve_potential(spec, m, SolverConfig(tol=1e-11, dirichlet=mu_star)).diagnostics
        order = math.log2(reports[9]["form_residual_max"] / reports[17]["form_residual_max"])
        assert 1.6 <= order <= 2.4
        traces = [reports[m]["trace_residual_max"] for m in (9, 13, 17)]
        assert traces[0] > traces[1] > traces[2]

    def test_perturbation_sensitivity(self):
        spec = flat_spec()
        base = grid_from_polynomial(9, -1.0, 1.0, half_norm())
        bump = np.zeros((9,) * 4)
        bump[4, 4, 4, 4] = 1.0
        residuals = []
        for eps in (1e-4, 2e-4):
            grid = Grid4D(9, -1.0, 1.0, base.values + eps * bump)
            residuals.append(verify_potential(grid, spec)["trace_residual_max"])
        assert residuals[1] / residuals[0] == pytest.approx(2.0, rel=0.05)


def _mixed_diff(full: np.ndarray, a: int, b: int, h: float, margin: int = 2) -> np.ndarray:
    """D1_a D1_b mixed central difference on the margin interior.  The
    library never forms it (the mixed entries cancel in the Sp(1) average);
    the oracles below build the whole Hessian from it."""

    def at(step_a, step_b):
        sl = [slice(margin, n - margin) for n in full.shape]
        for axis, step in ((a, step_a), (b, step_b)):
            sl[axis] = slice(margin + step, full.shape[axis] - margin + step)
        return full[tuple(sl)]

    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * h * h)


def einsum_verify(grid, spec):
    """The dense-Hessian einsum formulation of verify_potential (oracle)."""
    margin = 2
    h = grid.h
    phi = np.broadcast_to(_eval_poly_on_mesh(spec.phi, grid.meshgrid()), (grid.m,) * 4)
    sl = (slice(margin, -margin),) * 4
    phi_in = phi[sl]
    hess = np.zeros((4, 4) + phi_in.shape)
    for a in range(4):
        hess[a, a] = _wide_second_diff(grid.values, a, h)
        for b in range(a + 1, 4):
            hess[a, b] = hess[b, a] = _mixed_diff(grid.values, a, b, h, margin)
    trace = hess[0, 0] + hess[1, 1] + hess[2, 2] + hess[3, 3]
    trace_res = np.abs(trace / phi_in - float(TRACE_TARGET))
    model = HypercomplexModel(1)
    mats = [np.array([[float(v) for v in row] for row in structure_matrix(model, nm)]) for nm in ("I", "J", "K")]
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
        base = grid_from_polynomial(m, -1.0, 1.0, conformal_manufactured())
        for noise in (0.0, 1e-3, 1.0):
            grid = Grid4D(m, -1.0, 1.0, base.values + noise * rng.normal(size=(m,) * 4))
            lean = verify_potential(grid, spec)
            dense = einsum_verify(grid, spec)
            for key, value in dense.items():
                assert lean[key] == pytest.approx(value, rel=1e-12, abs=0.0)


def zero_filled_eval(poly, mesh):
    """_eval_poly_on_mesh accumulating into a zero-filled array of the
    full result shape (oracle)."""
    used = [x.shape for i, x in enumerate(mesh) if any(exp[i] for exp in poly.terms)]
    total = np.zeros(np.broadcast_shapes(*used))
    for exp, coeff in poly.terms.items():
        term = np.full((), float(coeff))
        for x, e in zip(mesh, exp):
            if e:
                term = term * x**e
        total += term
    return total


# The averaged Hessian compiled entry by entry from the signed permutations
# I, J, K: the oracle of the form check, whose shape TestAveragedHessian
# proves.

def _signed_permutation(matrix) -> list[tuple[int, float]]:
    """Column a of a signed permutation matrix as (row k, sign M_ka)."""
    cols = []
    for a in range(len(matrix)):
        rows = [k for k in range(len(matrix)) if matrix[k][a] != 0]
        if len(rows) != 1 or abs(matrix[rows[0]][a]) != 1:
            raise ConventionError("structure matrix is not a signed permutation")
        cols.append((rows[0], float(matrix[rows[0]][a])))
    return cols


def _form_table(perms) -> list:
    """Entries a < b of f_ab = I_ca avg_cb, avg = (H + sum_M M^T H M) / 2 over
    `perms` = I, J, K, as (c == b, [((k, l), coefficient), ...]): the nonzero
    integer coefficients of avg_cb in the order the sum meets them (I_ca =
    +-1 drops out of the residual).  ConventionError if an off-diagonal
    Hessian entry survives."""
    table = []
    for a, b in itertools.combinations(range(4), 2):
        c = perms[0][a][0]
        coeffs: dict = {}
        for (kc, sc), (kb, sb) in [((c, 1), (b, 1))] + [(perm[c], perm[b]) for perm in perms]:
            key = (min(kc, kb), max(kc, kb))
            coeffs[key] = coeffs.get(key, 0) + (1 if sc == sb else -1)
        terms = [(key, coeff) for key, coeff in coeffs.items() if coeff]
        if any(k != l for (k, l), _ in terms):
            raise ConventionError("the averaged Hessian keeps an off-diagonal entry")
        if terms:
            table.append((c == b, terms))
    return table


def symmetric_basis(dim: int) -> list[list[list[Polynomial]]]:
    """E_kk and E_kl + E_lk, k < l, as rows: a basis of the symmetric dim x dim matrices."""
    zero, one_ = Polynomial.zero(dim), Polynomial.constant(dim, 1)
    return [[[one_ if {i, j} == {k, l} else zero for j in range(dim)] for i in range(dim)]
            for k in range(dim) for l in range(k, dim)]


class TestAveragedHessian:
    """The exact fact behind `verify_potential`'s form check: for the n = 1
    model, H + I^T H I + J^T H J + K^T H K = tr(H) Id over Q.  The map is
    linear in H, so checking the 10 basis matrices proves it for every
    symmetric H.  The rebuilt Kahler form (1/2) I^T (that sum) is then
    tr(H) / 2 times I^T: +-tr(H) / 2 on the pairs (0, 1) and (2, 3) and zero
    elsewhere, so its residual against SOLVER_FORM_SCALE * phi * I^T is
    |tr(H) / 2 - SOLVER_FORM_SCALE * phi| on both nonzero entries.  The
    conjugates A^T H A come from the dense oracle of `conftest`."""

    def test_sum_of_conjugates_is_trace_times_identity(self):
        model = HypercomplexModel(1)
        i_mat = structure_matrix(model, "I")
        basis = symmetric_basis(4)
        assert len(basis) == 10
        zero = Polynomial.zero(4)
        for hess in basis:
            trace = sum((hess[c][c] for c in range(4)), zero)
            total = hess
            for name in ("I", "J", "K"):
                conj = oracle_conjugate(structure_matrix(model, name), hess)
                total = [[p + q for p, q in zip(r, c)] for r, c in zip(total, conj)]
            assert total == [[trace if i == j else zero for j in range(4)] for i in range(4)]
            half_trace = trace * Fraction(1, 2)
            for a, b in itertools.combinations(range(4), 2):
                f_ab = sum((total[c][b] * Fraction(i_mat[c][a], 2) for c in range(4)), zero)
                if (a, b) in ((0, 1), (2, 3)):
                    assert i_mat[b][a] in (1, -1) and f_ab == half_trace * i_mat[b][a]
                else:
                    assert f_ab.is_zero()


class TestFormTable:
    def test_model_one_keeps_the_diagonal_in_rebuild_order(self):
        # Exact oracle: f_ab = sum_k I_ka avg_kb, avg = (H + sum_M M^T H M) / 2,
        # for random symmetric rational Hessians.
        model = HypercomplexModel(1)
        mats = [structure_matrix(model, nm) for nm in ("I", "J", "K")]
        perms = [_signed_permutation(mat) for mat in mats]
        table = _form_table(perms)
        rebuilt = {}
        for a in range(4):
            c, _ = perms[0][a]
            for b in range(a + 1, 4):
                if c == b:
                    rebuilt[a, b] = [c] + [perm[c][0] for perm in perms]
        assert [(on_diagonal, [k for (k, _), _ in terms]) for on_diagonal, terms in table] == [
            (True, order) for order in rebuilt.values()
        ]
        assert all(k == l and coeff == 1 for _, terms in table for (k, l), coeff in terms)
        rng = random.Random(19)
        for _ in range(5):
            hess = [[Fraction(0)] * 4 for _ in range(4)]
            for k in range(4):
                for l in range(k, 4):
                    hess[k][l] = hess[l][k] = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            avg = [[hess[k][l] + sum(mat[p][k] * hess[p][q] * mat[q][l] for mat in mats for p in range(4) for q in range(4))
                    for l in range(4)] for k in range(4)]
            exact = {(a, b): sum(mats[0][k][a] * avg[k][b] for k in range(4)) / 2 for a in range(4) for b in range(a + 1, 4)}
            compiled = dict.fromkeys(exact, Fraction(0))
            for (a, b), (_, terms) in zip(rebuilt, table):
                sign_i = int(perms[0][a][1])
                compiled[a, b] = Fraction(sign_i, 2) * sum(coeff * hess[k][l] for (k, l), coeff in terms)
            assert compiled == exact

    @pytest.mark.parametrize("perms", [
        [[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)]] * 3,
        [[(1, 1.0), (0, 1.0), (3, 1.0), (2, 1.0)]] * 3,
    ], ids=["identity", "swaps"])
    def test_off_diagonal_survivor_is_a_convention_error(self, perms):
        with pytest.raises(ConventionError, match="off-diagonal"):
            _form_table(perms)


class TestGrid:
    def test_spacing(self):
        assert Grid4D(17, -1.0, 1.0).h == pytest.approx(0.125)

    def test_minimum_size(self):
        # The verification stencils need a node 2 rows from every face.
        for m in (2, 4):
            with pytest.raises(ValueError, match="between 5 and"):
                Grid4D(m, 0.0, 1.0)

    def test_samples_keep_only_the_axes_they_use(self):
        mesh = Grid4D(5, -1.0, 1.0).meshgrid()
        assert _eval_poly_on_mesh(x(0) * x(0) + one(), mesh).shape == (5, 1, 1, 1)
        assert _eval_poly_on_mesh(x(1) * x(3), mesh).shape == (1, 5, 1, 5)
        assert _eval_poly_on_mesh(one() * 3, mesh) == 3.0
        grid = grid_from_polynomial(5, -1.0, 1.0, x(2))
        assert grid.values.shape == (5,) * 4 and grid.values.flags.writeable
        assert np.array_equal(grid.values[1, 2, :, 3], grid.axis())

    def test_sampling_matches_zero_filled_accumulation(self):
        mesh = Grid4D(7, -0.5, 1.5).meshgrid()
        slab = [mesh[0][2:5], *mesh[1:]]
        polys = [Polynomial.zero(4), one() * Fraction(-7, 3), x(2) * Fraction(1, 3) - x(2) ** 3 * Fraction(2, 7)]
        polys += [random_polynomial(4, 4, 6, seed=1900 + k) * Fraction(1, 3 + k) for k in range(8)]
        polys += [Polynomial.constant(4, 1) + x(0) * x(1) * x(2) * x(3) * Fraction(1, 11)]
        for poly in polys:
            for points in (mesh, slab):
                got, expected = _eval_poly_on_mesh(poly, points), zero_filled_eval(poly, points)
                assert np.shape(got) == expected.shape
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_sampling_adds_in_place_once_the_sum_is_full(self):
        # Reads 2.26 results (the sum, a term and its last factor); a new
        # array for every partial sum reads 3.0.
        mesh = Grid4D(17, -1.0, 1.0).meshgrid()
        poly = (one() + x(0) + x(1) + x(2) + x(3)) ** 4
        assert traced_peak_above_live(lambda: _eval_poly_on_mesh(poly, mesh)) < 2.6 * 17**4 * 8

    def test_csv_slice_export(self, tmp_path):
        grid = grid_from_polynomial(5, -1.0, 1.0, x(0) + x(1))
        path = tmp_path / "slice.csv"
        grid.export_slice_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,mu"
        assert len(lines) == 1 + 25
        # Every cell is a number that reads back exactly: under numpy 2 the
        # repr of a numpy scalar was the text np.float64(...).
        ax, mid = grid.axis(), grid.m // 2
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        assert rows == [[ax[i], ax[j], grid.values[i, j, mid, mid]] for i in range(5) for j in range(5)]


# Whole-grid version of the slab verification pass: it builds its m^4
# arrays in one piece.  The library no longer uses it; it is the oracle the
# slab version must reproduce.

def whole_verify(grid, spec):
    margin = 2
    h = grid.h
    phi, _ = whole_samples(spec, grid)
    phi_in = phi[(slice(margin, -margin),) * 4]
    wide = [_wide_second_diff(grid.values, a, h) for a in range(4)]
    mixed = {(a, b): _mixed_diff(grid.values, a, b, h, margin) for a in range(4) for b in range(a + 1, 4)}

    def hess(k, l):
        return wide[k] if k == l else mixed[min(k, l), max(k, l)]

    trace_res = wide[0] + wide[1]
    trace_res += wide[2]
    trace_res += wide[3]
    trace_res /= phi_in
    trace_res -= float(TRACE_TARGET)
    np.abs(trace_res, out=trace_res)
    model = HypercomplexModel(1)
    perms = [_signed_permutation(structure_matrix(model, nm)) for nm in ("I", "J", "K")]
    form_res = np.zeros_like(phi_in)
    scale = float(SOLVER_FORM_SCALE)
    for a in range(4):
        c, sign_i = perms[0][a]
        for b in range(a + 1, 4):
            f_rec = hess(c, b).copy()
            for perm in perms:
                (kc, sc), (kb, sb) = perm[c], perm[b]
                if sc == sb:
                    f_rec += hess(kc, kb)
                else:
                    f_rec -= hess(kc, kb)
            f_rec *= 0.5 * sign_i
            if c == b:
                f_rec -= scale * phi_in * sign_i
            np.abs(f_rec, out=f_rec)
            np.maximum(form_res, f_rec, out=form_res)
    return {
        "trace_residual_max": float(trace_res.max()),
        "trace_residual_mean": float(trace_res.mean()),
        "form_residual_max": float(form_res.max()),
        "form_residual_mean": float(form_res.mean()),
    }


def whole_form_residual_max(grid, spec) -> float:
    """max |S / 2 - SOLVER_FORM_SCALE * phi| over the margin-2 interior, S the
    width-2h second differences summed in axis order, on the whole grid."""
    phi, _ = whole_samples(spec, grid)
    wide = [_wide_second_diff(grid.values, a, grid.h) for a in range(4)]
    trace = wide[0] + wide[1] + wide[2] + wide[3]
    return float(np.max(np.abs(0.5 * trace - float(SOLVER_FORM_SCALE) * phi[(slice(2, -2),) * 4])))


class TestSlabPasses:
    @pytest.mark.parametrize("m", range(5, 18))
    def test_residual_matches_whole_grid_oracles(self, monkeypatch, m):
        # Bit for bit (the max) against the same stencil on the whole grid,
        # and to rounding against the two textbook summands, whose
        # first-order parts cancel only up to rounding; with slabs of one
        # and of four rows.
        rng = np.random.default_rng(800 + m)
        for spec, rows in ((four_axis_spec(), 1), (conformal_spec(), 4)):
            monkeypatch.setattr(elliptic, "SLAB_NODES", rows * m**3)
            base = grid_from_polynomial(m, *spec.box, conformal_manufactured())
            for noise in (0.0, 1.0):
                grid = Grid4D(m, *spec.box, base.values + noise * rng.normal(size=(m,) * 4))
                report = verify_potential(grid, spec)
                whole = whole_residual(spec, grid)
                assert report["residual_max"] == float(np.max(whole))
                assert report["residual_mean"] == pytest.approx(float(np.mean(whole)), rel=1e-13, abs=0.0)
                lap, drift = whole_laplace_beltrami(spec, grid).values, whole_weyl_drift(spec, grid).values
                textbook = _interior(lap + drift + float(TRACE_TARGET))
                scale = _interior(np.abs(lap) + np.abs(drift)) + float(TRACE_TARGET)
                assert np.all(np.abs(np.abs(textbook) - whole) <= 8 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("m", range(5, 18))
    def test_verification_matches_whole_grid_oracle(self, monkeypatch, m):
        # m = 5 has a single margin-2 row.  One-row slabs leave a slab with
        # no margin-2 row at both ends; with four-row slabs m - 3 is a
        # multiple of 4, leaving one last, for m = 7, 11 and 15.  The form
        # residual sums the four second differences in axis order, bit for
        # bit as |S / 2 - 2 phi|; the entry-by-entry oracle sums them in the
        # orders (1, 0, 3, 2) and (3, 2, 1, 0), which can move the last bit.
        rng = np.random.default_rng(900 + m)
        spec = four_axis_spec()
        base = grid_from_polynomial(m, *spec.box, conformal_manufactured())
        for noise, rows in ((0.0, 1), (1e-3, 4)):
            monkeypatch.setattr(elliptic, "SLAB_NODES", rows * m**3)
            grid = Grid4D(m, *spec.box, base.values + noise * rng.normal(size=(m,) * 4))
            slab, whole = verify_potential(grid, spec), whole_verify(grid, spec)
            assert slab["trace_residual_max"] == whole["trace_residual_max"]
            assert slab["form_residual_max"] == whole_form_residual_max(grid, spec)
            eps = np.finfo(float).eps
            assert abs(slab["form_residual_max"] - whole["form_residual_max"]) <= 2 * eps * whole["form_residual_max"]
            for key in ("trace_residual_mean", "form_residual_mean"):
                assert slab[key] == pytest.approx(whole[key], rel=1e-13, abs=0.0), key

    def test_form_residual_leaves_out_the_cancelled_entries(self):
        # A quadratic potential of the flat factor with large cross terms:
        # the form residual is at rounding level, and at some nodes the
        # oracle's entries built from mixed differences, which cancel in
        # exact arithmetic, leave residues of order eps |H| above it.  The
        # compiled table never forms them.
        cross = x(1) * x(2) * Fraction(1, 3) + x(0) * x(3) * Fraction(1, 7)
        cross = cross + x(1) * x(3) * Fraction(5, 11) + x(0) * x(2) * Fraction(3, 13)
        grid = grid_from_polynomial(13, -1.0, 1.0, half_norm() + cross * 1000)
        slab, whole = verify_potential(grid, flat_spec()), whole_verify(grid, flat_spec())
        assert slab["trace_residual_max"] == whole["trace_residual_max"]
        assert slab["form_residual_max"] <= whole["form_residual_max"] < 1e-11
        assert slab["form_residual_mean"] < whole["form_residual_mean"]

    def test_verification_carries_nan_through_the_maxima(self):
        grid = grid_from_polynomial(13, -1.0, 1.0, conformal_manufactured())
        grid.values[10, 6, 6, 6] = np.nan
        report = verify_potential(grid, conformal_spec())
        assert math.isnan(report["trace_residual_max"]) and math.isnan(report["form_residual_max"])


class TestWholeArrayOracle:
    """The buffered solve against the whole-array formulation above."""

    @pytest.mark.parametrize("m", [5, 6, 8, 9, 17, 33])
    @pytest.mark.parametrize("make_spec", [flat_spec, conformal_spec, four_axis_spec])
    @pytest.mark.parametrize("dirichlet", [None, conformal_manufactured()], ids=["zero", "manufactured"])
    def test_solution_is_bit_identical(self, m, make_spec, dirichlet):
        # The sweep leaves its compact rows in the boundary slots; with no
        # Dirichlet data they must read zero again afterwards.
        cfg = SolverConfig(tol=1e-10, dirichlet=dirichlet)
        result = solve_potential(make_spec(), m, cfg)
        grid, sweeps, res_max = dense_solve(make_spec(), m, cfg)
        assert np.array_equal(result.grid.values, grid.values)
        assert result.diagnostics["iterations"] == sweeps
        assert result.diagnostics["residual_max"] == res_max
        if dirichlet is None:
            assert not result.grid.values[boundary_mask(m)].any()

    @pytest.mark.parametrize("m", [6, 9, 17])
    @pytest.mark.parametrize("make_spec", [conformal_spec, four_axis_spec])
    def test_refinement_sweeps_are_bit_identical(self, monkeypatch, m, make_spec):
        # Divisors 1e-3 too large make every sweep leave a residual about
        # 1e-3 of the last, so the solve runs the refinement sweeps and their
        # residual array; the whole-array oracle divides by the same values.
        scale = 1 + 1e-3
        monkeypatch.setattr(elliptic, "_eigenvalue_row", lambda axis_eig, i: _eigenvalue_row(axis_eig, i) * scale)
        cfg = SolverConfig(tol=1e-10, dirichlet=conformal_manufactured())
        result = solve_potential(make_spec(), m, cfg)
        grid, sweeps, res_max = dense_solve(make_spec(), m, cfg, divisor_scale=scale)
        assert result.diagnostics["iterations"] == sweeps >= 3
        assert np.array_equal(result.grid.values, grid.values)
        assert result.diagnostics["residual_max"] == res_max

    @pytest.mark.parametrize("make_spec, tol", [(flat_spec, 5e-14), (four_axis_spec, 1e-13)])
    def test_second_sweep_is_bit_identical(self, make_spec, tol):
        cfg = SolverConfig(tol=tol, dirichlet=conformal_manufactured())
        result = solve_potential(make_spec(), 9, cfg)
        grid, sweeps, res_max = dense_solve(make_spec(), 9, cfg)
        assert result.diagnostics["iterations"] == sweeps == 2
        assert np.array_equal(result.grid.values, grid.values)
        assert result.diagnostics["residual_max"] == res_max

    @pytest.mark.parametrize("make_spec", [flat_spec, four_axis_spec])
    def test_huge_tolerance_is_bit_identical(self, make_spec):
        cfg = SolverConfig(tol=1e300, dirichlet=conformal_manufactured())
        result = solve_potential(make_spec(), 9, cfg)
        grid, sweeps, res_max = dense_solve(make_spec(), 9, cfg)
        assert result.diagnostics["iterations"] == sweeps == 1
        assert np.array_equal(result.grid.values, grid.values)
        assert result.diagnostics["residual_max"] == res_max

    @pytest.mark.parametrize("tol, max_sweeps", [(1e-16, elliptic.MAX_SWEEPS), (1e-15, 2)])
    def test_failures_match(self, monkeypatch, tol, max_sweeps):
        monkeypatch.setattr(elliptic, "MAX_SWEEPS", max_sweeps)
        cfg = SolverConfig(tol=tol)
        with pytest.raises(SolverError) as lean:
            solve_potential(flat_spec(), 9, cfg)
        with pytest.raises(SolverError) as dense:
            dense_solve(flat_spec(), 9, cfg)
        assert str(dense.value) in str(lean.value)

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 31])
    def test_dst4_matches_dense_products(self, n):
        a = np.random.default_rng(1100 + n).normal(size=(n,) * 4)
        sines = _sine_matrix(n)
        assert np.array_equal(_dst4(a.copy(), np.empty((n,) * 3), sines), dense_dst4(a, sines))

    @pytest.mark.parametrize("m", [5, 6, 9, 10, 33])
    def test_dirichlet_faces_match_mask(self, m):
        spec = four_axis_spec()
        for poly in (conformal_manufactured(), one() * 3, x(3) * x(3) - x(0), Polynomial.zero(4)):
            cfg = SolverConfig(dirichlet=poly)
            grid = Grid4D(m, *spec.box)
            _write_dirichlet_faces(cfg, grid)
            assert np.array_equal(grid.values, mask_dirichlet_values(cfg, grid))

    @staticmethod
    def rows_of_residual(spec, grid):
        r = np.full((grid.m - 2,) * 4, np.nan)
        for i, row in _residual_rows(spec, grid):
            r[i] = row
        return r

    @pytest.mark.parametrize("m", [5, 6, 9, 10, 33])
    def test_residual_rows_match_whole_array(self, m):
        # The rows are b's own formula on the whole grid, faces included: b
        # while the interior is zero, b - A v once it holds v.  At m = 5 the
        # one slab holds both boundary rows.
        spec = four_axis_spec()
        rng = np.random.default_rng(1200 + m)
        phi, _ = whole_samples(spec, Grid4D(m, *spec.box))

        def whole_formula(mu, h):
            return _second_diff_sum(mu, h) + -float(TRACE_TARGET) * _interior(phi)

        for poly in (conformal_manufactured(), one() * 3, x(3) * x(3) - x(0), Polynomial.zero(4)):
            grid = Grid4D(m, *spec.box)
            _write_dirichlet_faces(SolverConfig(dirichlet=poly), grid)
            for unknowns in (0.0, rng.normal(size=(m - 2,) * 4)):
                grid.values[1:-1, 1:-1, 1:-1, 1:-1] = unknowns
                assert np.array_equal(self.rows_of_residual(spec, grid), whole_formula(grid.values, grid.h))
        # A NaN and an inf on the x1 = lo face reach r where the whole-grid
        # stencil puts them: the NaN next to an edge of the last row.
        for node, value in (((m - 2, 0, 1, m // 2), np.nan), ((m // 2, 0, m // 2, m - 2), np.inf)):
            grid.values[node] = value
        expected = whole_formula(grid.values, grid.h)
        assert np.isinf(expected).any() and np.isnan(expected).any()
        assert np.array_equal(self.rows_of_residual(spec, grid), expected, equal_nan=True)

    @pytest.mark.parametrize("m", [5, 9])
    def test_residual_rows_never_run_the_whole_stencil(self, monkeypatch, m):
        # The solve's residual is separate code from the stencil of the
        # check after it, so a fault in either shows in the residual gate.
        def refuse(*args):
            pytest.fail("_residual_rows ran the 9-point stencil of the check")

        spec, grid = four_axis_spec(), Grid4D(m, -0.5, 1.5)
        _write_dirichlet_faces(SolverConfig(dirichlet=conformal_manufactured()), grid)
        monkeypatch.setattr(elliptic, "_second_diff_sum", refuse)
        assert len(list(_residual_rows(spec, grid))) == m - 2


def traced_peak_above_live(fn):
    """Peak traced allocation (bytes) during fn() above what was live before it;
    numpy reports its array buffers to tracemalloc, so this counts them."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return peak - live


class TestStencilMemory:
    # m = 33 interior arrays are 7 MiB each (31^4 doubles), the whole grid is
    # 9 MiB and a one-row slab about 0.3 MiB.
    MB = 2**20

    @pytest.mark.parametrize("make_spec", [conformal_spec, four_axis_spec])
    def test_verification_never_holds_the_whole_hessian(self, make_spec):
        # Guards the one slab loop of verify_potential: slab temporaries only,
        # with phi sampled per slab.  Reads 0.44 MiB (conformal_spec) and 0.71
        # MiB (four_axis_spec) with one-row slabs; four-row slabs read 2.3 and
        # 4.5.  A whole-grid pass holding the ten margin-interior Hessian
        # arrays peaked at 79 MiB.
        spec = make_spec()
        grid = grid_from_polynomial(33, *spec.box, conformal_manufactured())
        assert traced_peak_above_live(lambda: verify_potential(grid, spec)) < 1 * self.MB

    @pytest.mark.parametrize("make_spec", [conformal_spec, four_axis_spec])
    def test_solve_holds_one_grid(self, make_spec):
        # Guards the in-place DST solve: the solution grid (9.05 MiB) is its
        # only large array, with row and (m - 2)^3 temporaries besides.  Reads
        # 10.24 MiB (conformal_spec) and 10.42 MiB (four_axis_spec).  Holding
        # the residual r (7 MiB) besides read 17.5 and 19.4 MiB; storing b
        # and a whole-cube transform scratch as well read 30.8 and 39.8 MiB.
        cfg = SolverConfig(tol=1e-10, dirichlet=conformal_manufactured())
        spec = make_spec()
        assert traced_peak_above_live(lambda: solve_potential(spec, 33, cfg)) < 33**4 * 8 + 2 * self.MB

    def test_second_grid_holds_one_grid(self, tmp_path):
        # `hkt solve` drops each grid before solving the next, so --grid 23
        # --grid 25 peaks as high as --grid 25 alone: 3.57 and 3.56 MiB.  With
        # the first grid kept alive the pair would read its 2.1 MiB more.  (A
        # repeated --grid is an input error, so it cannot show this.)
        from hktcalc.cli import main

        path, out = write_conformal_doc(tmp_path), str(tmp_path / "r.json")
        solve = lambda *grids: main(["solve", path, *(a for m in grids for a in ("--grid", str(m))), "--out", out])
        assert solve(25) == 0  # imports are not measured
        codes = []
        single = traced_peak_above_live(lambda: codes.append(solve(25)))
        pair = traced_peak_above_live(lambda: codes.append(solve(23, 25)))
        assert codes == [0, 0]
        assert pair < single + 23**4 * 8 // 4
