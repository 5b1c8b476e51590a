import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hktcalc.conventions import SOLVER_FORM_SCALE, TRACE_TARGET
from hktcalc.elliptic import (
    SLAB_ROWS,
    ConformalMetricSpec,
    Grid4D,
    SolverConfig,
    SolverError,
    _dst4,
    _dst_poisson_solve,
    _eval_poly_on_mesh,
    _first_diff,
    _geometric_slabs,
    _interior,
    _linear_system,
    _mixed_diff,
    _negative_laplacian,
    _second_diff_sum,
    _signed_permutation,
    _sine_matrix,
    _wide_second_diff,
    potential_operator_apply,
    solve_potential,
    verify_potential,
)
from hktcalc.forms import KForm
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
# result.  The library solves in three reused interior buffers with the
# unknowns in the solution grid; these are the oracles it must reproduce
# bit for bit.

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


def dense_dst_poisson_solve(b: np.ndarray, h: float, tol: float, max_iter: int):
    """(v, sweeps) with the eigenvalues materialized as one cube."""
    big_n = b.shape[0] + 1
    axis_eig = (4.0 / (h * h)) * np.sin(np.pi * np.arange(1, big_n) / (2 * big_n)) ** 2
    eig = (
        axis_eig[:, None, None, None]
        + axis_eig[None, :, None, None]
        + axis_eig[None, None, :, None]
        + axis_eig[None, None, None, :]
    )
    eig *= (2.0 * big_n) ** 4
    sines = _sine_matrix(big_n - 1)
    v = np.zeros_like(b)
    r = b
    res = float(np.max(np.abs(r)))
    if res <= tol:
        return v, 0
    for sweep in range(1, max_iter + 1):
        v += dense_dst4(dense_dst4(r, sines) / eig, sines)
        r = b - pad_negative_laplacian(v, h)
        new_res = float(np.max(np.abs(r)))
        if new_res <= tol:
            return v, sweep
        if not new_res < res:
            raise SolverError(f"DST sweeps stalled at residual {new_res:.3g}, above tol={tol}")
        res = new_res
    raise SolverError(f"DST solve did not reach tol={tol} in {max_iter} sweeps")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def dense_solve(spec: ConformalMetricSpec, m: int, config: SolverConfig):
    """(solution grid, sweeps, residual_max) of the whole-array solve."""
    grid = Grid4D(m, *spec.box)
    phi, _ = spec.on_grid(grid)
    mu = mask_dirichlet_values(config, grid)
    b = -float(TRACE_TARGET) * _interior(phi) + _second_diff_sum(mu, grid.h)
    v, sweeps = dense_dst_poisson_solve(b, grid.h, config.tol, config.max_iter)
    mu[1:-1, 1:-1, 1:-1, 1:-1] = v
    solution = Grid4D(m, grid.lo, grid.hi, mu)
    residual = np.abs(_interior(potential_operator_apply(spec, solution).values) + float(TRACE_TARGET))
    return solution, sweeps, float(np.max(residual))


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


# The exact Weyl data and the two geometric summands one at a time.  The
# library assembles only their sum (`potential_operator_apply`); these
# check the pieces it is built from.

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
        closed_form = [dp * -2 for dp in spec.gradient()]
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


def laplace_beltrami_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """Geometer-sign Laplacian of g = phi*delta at interior nodes: the
    `lap` summand of the solver's slab pass.

    Delta mu = -g^{ij}(d_i d_j mu - Gamma^k_ij d_k mu); for the conformal
    metric the contracted Christoffel term reduces to
    g^{ij} Gamma^k_ij = -phi^{-2} d_k phi.  Boundary entries are zero.
    """
    out = np.zeros_like(grid.values)
    for rows, lap, _ in _geometric_slabs(spec, grid):
        out[rows, 1:-1, 1:-1, 1:-1] = lap
    return Grid4D(grid.m, grid.lo, grid.hi, out)


def weyl_drift_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """The drift term omega-sharp(mu) = phi^{-2} <d phi, d mu> (interior):
    the `drift` summand of the solver's slab pass."""
    out = np.zeros_like(grid.values)
    for rows, _, drift in _geometric_slabs(spec, grid):
        out[rows, 1:-1, 1:-1, 1:-1] = drift
    return Grid4D(grid.m, grid.lo, grid.hi, out)


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
        _, b = _linear_system(spec, grid, cfg)
        v_dst = np.zeros_like(b)
        sweeps = _dst_poisson_solve(b, v_dst, grid.h, cfg.tol, cfg.max_iter)
        v_cg, _ = _conjugate_gradient(b, grid.h, cfg.tol, cfg.max_iter)
        assert sweeps == 1
        assert np.max(np.abs(v_dst - v_cg)) <= 1e-10

    @pytest.mark.parametrize("m", [9, 17])
    def test_returned_grid_meets_true_residual(self, m):
        spec = conformal_spec()
        cfg = SolverConfig(tol=1e-11, dirichlet=conformal_manufactured())
        result = solve_potential(spec, m, cfg)
        _, b = _linear_system(spec, Grid4D(m, *spec.box), cfg)
        v = result.grid.values[1:-1, 1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(b - _negative_laplacian(v, result.grid.h, np.empty_like(b)))) <= cfg.tol

    @pytest.mark.parametrize("m", [17, 33])
    def test_manufactured_solve_takes_one_sweep(self, m):
        result = solve_potential(conformal_spec(), m, SolverConfig(tol=1e-10, dirichlet=conformal_manufactured()))
        assert result.iterations == 1
        assert result.diagnostics["iterations"] == 1

    def test_tolerance_below_floor_raises(self):
        # The true residual cannot fall below its rounding floor (about 7e-14
        # at m = 9), so the solve stops with an error instead of sweeping on
        # until max_iter.
        with pytest.raises(SolverError, match="stalled"):
            solve_potential(flat_spec(), 9, SolverConfig(tol=1e-16))

    def test_nonconvergence_raises(self):
        with pytest.raises(SolverError):
            solve_potential(flat_spec(), 9, SolverConfig(tol=1e-15, max_iter=2))


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
        got = _dst4(a.copy(), np.empty_like(a), _sine_matrix(n))
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 31])
    def test_dst4_twice_scales_by_2n_to_the_fourth(self, n):
        a = np.random.default_rng(700 + n).normal(size=(n,) * 4)
        sines = _sine_matrix(n)
        scale = (2.0 * (n + 1)) ** 4
        scratch = np.empty_like(a)
        twice = _dst4(_dst4(a.copy(), scratch, sines), scratch, sines)
        assert np.max(np.abs(twice - scale * a)) <= 1e-13 * scale * np.max(np.abs(a))


def _fresh_samples(spec, m):
    mesh = Grid4D(m, *spec.box).meshgrid()
    return [_eval_poly_on_mesh(p, mesh) for p in [spec.phi, *spec.gradient()]]


def write_conformal_doc(tmp_path) -> str:
    """Path of a conformal4d document for conformal_spec() with the
    manufactured Dirichlet data."""
    doc = {"kind": "conformal4d", "model": {"n": 1},
           "payload": {"phi": conformal_spec().phi.to_json(), "dirichlet": conformal_manufactured().to_json()}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSamplingOnce:
    def test_solve_samples_phi_once_per_grid(self, monkeypatch, tmp_path):
        from hktcalc import elliptic
        from hktcalc.cli import main

        calls = []
        original = elliptic._eval_poly_on_mesh

        def counting(poly, mesh):
            calls.append(poly)
            return original(poly, mesh)

        monkeypatch.setattr(elliptic, "_eval_poly_on_mesh", counting)
        path = write_conformal_doc(tmp_path)
        assert main(["solve", path, "--grid", "9", "--grid", "13", "--out", str(tmp_path / "r.json")]) == 0
        # Per grid: phi and its four partials once, the Dirichlet data once
        # per pair of opposite boundary faces.
        assert len(calls) == 18
        assert calls.count(conformal_manufactured()) == 8

    def test_sampling_follows_the_grid(self):
        spec = conformal_spec()
        cfg = SolverConfig(tol=1e-11, dirichlet=conformal_manufactured())
        for m in (9, 13, 9):
            result = solve_potential(spec, m, cfg)
            phi, dphi = spec.on_grid(Grid4D(m, *spec.box))
            fresh = [np.broadcast_to(a, (m,) * 4) for a in _fresh_samples(spec, m)]
            for sampled, expected in zip([phi, *dphi], fresh):
                assert sampled.shape == (m,) * 4
                assert np.array_equal(sampled, expected)
            assert result.diagnostics["phi_min"] == float(np.min(fresh[0][1:-1, 1:-1, 1:-1, 1:-1]))

    def test_sampling_follows_the_factor(self):
        grid = Grid4D(7, -1.0, 1.0)
        grid.values[:] = np.random.default_rng(94).normal(size=(7,) * 4)
        first, second = conformal_spec(), ConformalMetricSpec(one() + x(2) * x(3) * Fraction(1, 3))
        potential_operator_apply(first, grid)
        combined = potential_operator_apply(second, grid)
        phi = np.broadcast_to(_fresh_samples(second, 7)[0], (7,) * 4)[1:-1, 1:-1, 1:-1, 1:-1]
        expected = -_second_diff_sum(grid.values, grid.h) / phi
        assert np.allclose(combined.values[1:-1, 1:-1, 1:-1, 1:-1], expected, rtol=1e-12, atol=1e-12)
        # Replacing the factor of a spec drops its sampling too.
        first.phi = second.phi
        assert np.array_equal(potential_operator_apply(first, grid).values, combined.values)


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
    phi = np.broadcast_to(_eval_poly_on_mesh(spec.phi, grid.meshgrid()), (grid.m,) * 4)
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

    def test_samples_keep_only_the_axes_they_use(self):
        mesh = Grid4D(5, -1.0, 1.0).meshgrid()
        assert _eval_poly_on_mesh(x(0) * x(0) + one(), mesh).shape == (5, 1, 1, 1)
        assert _eval_poly_on_mesh(x(1) * x(3), mesh).shape == (1, 5, 1, 5)
        assert _eval_poly_on_mesh(one() * 3, mesh) == 3.0
        grid = Grid4D.from_polynomial(5, -1.0, 1.0, x(2))
        assert grid.values.shape == (5,) * 4 and grid.values.flags.writeable
        assert np.array_equal(grid.values[1, 2, :, 3], grid.axis())

    def test_csv_slice_export(self, tmp_path):
        grid = Grid4D.from_polynomial(5, -1.0, 1.0, x(0) + x(1))
        path = tmp_path / "slice.csv"
        grid.export_slice_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,mu"
        assert len(lines) == 1 + 25


# Whole-grid versions of the slab passes: each builds its m^4 arrays in one
# piece.  The library no longer uses them; they are the oracles the slab
# versions must reproduce.

def whole_laplace_beltrami(spec, grid):
    phi, dphi = spec.on_grid(grid)
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
    phi, dphi = spec.on_grid(grid)
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
    lap = whole_laplace_beltrami(spec, grid)
    drift = whole_weyl_drift(spec, grid)
    return Grid4D(grid.m, grid.lo, grid.hi, lap.values + drift.values)


def whole_verify(grid, spec):
    margin = 2
    h = grid.h
    phi, _ = spec.on_grid(grid)
    phi_in = phi[(slice(margin, -margin),) * 4]
    wide = [_wide_second_diff(grid.values, a, h, margin) for a in range(4)]
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
    perms = [_signed_permutation(model.matrix(nm)) for nm in ("I", "J", "K")]
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


def four_axis_spec():
    # phi uses every coordinate, so no sample is constant along a slab's rows.
    phi = Polynomial.constant(4, 2) + x(0) * x(1) * Fraction(1, 3) + x(2) * x(2) * Fraction(1, 4)
    phi = phi - x(3) * Fraction(1, 5) + x(0) * x(3) * Fraction(1, 7)
    return ConformalMetricSpec(phi, (-0.5, 1.5))


class TestSlabPasses:
    @pytest.mark.parametrize("m", range(3, 18))
    def test_operators_match_whole_grid_oracles(self, m):
        rng = np.random.default_rng(800 + m)
        for spec in (four_axis_spec(), conformal_spec()):
            grid = Grid4D(m, *spec.box, rng.normal(size=(m,) * 4))
            for slab, whole in ((laplace_beltrami_apply, whole_laplace_beltrami),
                                (weyl_drift_apply, whole_weyl_drift),
                                (potential_operator_apply, whole_potential_operator)):
                assert np.array_equal(slab(spec, grid).values, whole(spec, grid).values), slab.__name__

    @pytest.mark.parametrize("m", range(5, 18))
    def test_verification_matches_whole_grid_oracle(self, m):
        # m = 5 has a single margin-2 row; m - 4 is a multiple of SLAB_ROWS
        # only for m = 8, 12 and 16.
        rng = np.random.default_rng(900 + m)
        spec = four_axis_spec()
        base = Grid4D.from_polynomial(m, *spec.box, conformal_manufactured())
        for noise in (0.0, 1e-3):
            grid = Grid4D(m, *spec.box, base.values + noise * rng.normal(size=(m,) * 4))
            slab, whole = verify_potential(grid, spec), whole_verify(grid, spec)
            for key in ("trace_residual_max", "form_residual_max"):
                assert slab[key] == whole[key], key
            for key in ("trace_residual_mean", "form_residual_mean"):
                assert slab[key] == pytest.approx(whole[key], rel=1e-13, abs=0.0), key

    def test_verification_carries_nan_through_the_maxima(self):
        grid = Grid4D.from_polynomial(13, -1.0, 1.0, conformal_manufactured())
        grid.values[10, 6, 6, 6] = np.nan
        report = verify_potential(grid, conformal_spec())
        assert math.isnan(report["trace_residual_max"]) and math.isnan(report["form_residual_max"])

    @pytest.mark.parametrize("m", [3, 5, 11, 17])
    def test_products_are_computed_once_per_slab(self, monkeypatch, m):
        from hktcalc import elliptic

        calls = []

        def counting(full, axis, h):
            calls.append(axis)
            return _first_diff(full, axis, h)

        monkeypatch.setattr(elliptic, "_first_diff", counting)
        grid = Grid4D(m, -1.0, 1.0, np.random.default_rng(m).normal(size=(m,) * 4))
        potential_operator_apply(conformal_spec(), grid)
        slabs = -(-(m - 2) // SLAB_ROWS)
        assert calls == [0, 1, 2, 3] * slabs


class TestWholeArrayOracle:
    """The buffered solve against the whole-array formulation above."""

    @pytest.mark.parametrize("m", [9, 17, 33])
    @pytest.mark.parametrize("make_spec", [flat_spec, conformal_spec, four_axis_spec])
    @pytest.mark.parametrize("dirichlet", [None, conformal_manufactured()], ids=["zero", "manufactured"])
    def test_solution_is_bit_identical(self, m, make_spec, dirichlet):
        cfg = SolverConfig(tol=1e-10, dirichlet=dirichlet)
        result = solve_potential(make_spec(), m, cfg)
        grid, sweeps, res_max = dense_solve(make_spec(), m, cfg)
        assert np.array_equal(result.grid.values, grid.values)
        assert result.iterations == sweeps
        assert result.residual_max == res_max

    @pytest.mark.parametrize("make_spec, tol", [(flat_spec, 5e-14), (four_axis_spec, 1e-13)])
    def test_second_sweep_is_bit_identical(self, make_spec, tol):
        cfg = SolverConfig(tol=tol, dirichlet=conformal_manufactured())
        result = solve_potential(make_spec(), 9, cfg)
        grid, sweeps, res_max = dense_solve(make_spec(), 9, cfg)
        assert result.iterations == sweeps == 2
        assert np.array_equal(result.grid.values, grid.values)
        assert result.residual_max == res_max

    @pytest.mark.parametrize("cfg", [SolverConfig(tol=1e-16), SolverConfig(tol=1e-15, max_iter=2)])
    def test_failures_match(self, cfg):
        with pytest.raises(SolverError) as lean:
            solve_potential(flat_spec(), 9, cfg)
        with pytest.raises(SolverError) as dense:
            dense_solve(flat_spec(), 9, cfg)
        assert str(dense.value) in str(lean.value)

    @pytest.mark.parametrize("n", [1, 2, 7, 15])
    def test_negative_laplacian_matches_pad(self, n):
        full = np.random.default_rng(1000 + n).normal(size=(n + 2,) * 4)
        v = _interior(full)  # a strided view, as the solver passes it
        out = _negative_laplacian(v, 0.3, np.empty(v.shape))
        assert np.array_equal(out, pad_negative_laplacian(v, 0.3))

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 31])
    def test_dst4_matches_dense_products(self, n):
        a = np.random.default_rng(1100 + n).normal(size=(n,) * 4)
        sines = _sine_matrix(n)
        assert np.array_equal(_dst4(a.copy(), np.empty_like(a), sines), dense_dst4(a, sines))

    @pytest.mark.parametrize("m", [3, 4, 9])
    def test_dirichlet_faces_match_mask(self, m):
        spec = four_axis_spec()
        for poly in (conformal_manufactured(), one() * 3, x(3) * x(3) - x(0), Polynomial.zero(4)):
            cfg = SolverConfig(dirichlet=poly)
            grid = Grid4D(m, *spec.box)
            _, b = _linear_system(spec, grid, cfg)
            mu = mask_dirichlet_values(cfg, grid)
            phi, _ = spec.on_grid(grid)
            assert np.array_equal(grid.values, mu)
            assert np.array_equal(b, -float(TRACE_TARGET) * _interior(phi) + _second_diff_sum(mu, grid.h))


@pytest.fixture(scope="module")
def manufactured_m33():
    spec = conformal_spec()
    result = solve_potential(spec, 33, SolverConfig(tol=1e-10, dirichlet=conformal_manufactured()))
    return spec, result.grid


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
    # m = 33 interior arrays are 7 MB each (31^4 doubles), the whole grid is
    # 9 MB and a 4-row slab about 1 MB.
    MB = 2**20

    def test_verification_never_holds_the_whole_hessian(self, manufactured_m33):
        # Guards the slab loop of verify_potential: the whole-grid pass held
        # ten margin-interior Hessian arrays and peaked at 79 MB.
        spec, grid = manufactured_m33
        assert traced_peak_above_live(lambda: verify_potential(grid, spec)) < 20 * self.MB

    def test_solve_holds_three_interior_arrays(self, manufactured_m33):
        # Guards the buffered DST solve: the solution grid (9 MB) and the
        # interior arrays b, r and the transform scratch (7 MB each), with
        # phi already sampled.  Read 30.8 MB here; the whole-array solve,
        # which allocated every transform step, the eigenvalue cube, the
        # padded residual stencil and a separate unknown vector, read
        # 55.4 MB.
        spec, _ = manufactured_m33
        cfg = SolverConfig(tol=1e-10, dirichlet=conformal_manufactured())
        assert traced_peak_above_live(lambda: solve_potential(spec, 33, cfg)) < 40 * self.MB

    def test_repeated_grid_holds_one_grid(self, tmp_path):
        # `hkt solve` drops each grid before solving the next, so a repeated
        # --grid 25 peaks as high as a single one: both read 10.2 MB.  With
        # the previous grid kept alive the repeated run read 13.3 MB, its
        # 3 MB more.
        from hktcalc.cli import main

        path, out = write_conformal_doc(tmp_path), str(tmp_path / "r.json")
        solve = lambda *grids: main(["solve", path, *(a for m in grids for a in ("--grid", str(m))), "--out", out])
        solve(25)  # imports and the first sampling of phi are not measured
        single = traced_peak_above_live(lambda: solve(25))
        repeated = traced_peak_above_live(lambda: solve(25, 25))
        assert repeated < single + 25**4 * 8 // 4

    def test_geometric_residual_builds_one_grid(self, manufactured_m33):
        # Guards the shared slab loop of the geometric operators: the output
        # grid (9 MB) plus a few slab temporaries.  Building the Laplacian
        # and drift grids separately and adding them peaked at 49 MB.
        spec, grid = manufactured_m33
        assert traced_peak_above_live(lambda: potential_operator_apply(spec, grid)) < 20 * self.MB
