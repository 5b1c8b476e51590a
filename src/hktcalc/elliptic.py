"""Numerical HKT potentials on a 4D box for conformally flat metrics.

On R^4 every hyperhermitian metric is conformal, g = phi * delta, and a
potential is characterized by the trace identity

    trace_g(Hess mu) = 4   i.e.   sum_i d^2 mu / dx_i^2 = 4 * phi.

The geometric operator is assembled from its two textbook pieces -- the
Levi-Civita Laplacian of g (geometer sign, with exact Christoffel symbols
of the conformal factor) and the Weyl drift term -- whose first-order
parts cancel exactly at the stencil level, leaving a plain Poisson system.
The cancellation is a test obligation, not an assumption.

Conformal factors are polynomials with rational coefficients, so the Weyl
form and all Christoffel data come from the exact core; only the linear
solve is floating point.  Discretization is second-order central
differences with Dirichlet data.  The resulting constant-coefficient
Dirichlet Laplacian is diagonalized by the discrete sine transform, so
the linear system is solved by a direct DST-I Poisson solve (Buzbee,
Golub & Nielson 1970), refined against the true residual.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conventions import SOLVER_FORM_SCALE, TRACE_TARGET
from .forms import KForm
from .geometry import ConventionError
from .scalars import Polynomial
from .structures import HypercomplexModel


# Largest grid (nodes per axis) a solve accepts.  Peak memory grows like
# m^4, about 110 bytes per node: `hkt solve --grid m` peaked at 189 MB for
# m = 33 and 2.2 GB for m = 65 (max RSS), so the next odd grid, 97, would
# need about 10 GB.
MAX_GRID = 65


class SolverError(RuntimeError):
    """The linear solve failed (non-convergence or indefiniteness)."""


def check_grid_size(m: int) -> None:
    """Raise ValueError unless 3 <= m <= MAX_GRID; allocates nothing."""
    if not 3 <= m <= MAX_GRID:
        raise ValueError(f"grid must have between 3 and {MAX_GRID} nodes per axis, got {m}")


@dataclass
class ConformalMetricSpec:
    """g = phi * delta on a box [lo, hi]^4; phi must be positive there."""

    phi: Polynomial
    box: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.phi.dim != 4:
            raise ValueError("conformal solver is specific to dimension 4 (n = 1)")
        lo, hi = self.box
        if not lo < hi:
            raise ValueError("box must satisfy lo < hi")

    def gradient(self) -> list[Polynomial]:
        return [self.phi.partial(i) for i in range(4)]


@dataclass(frozen=True)
class SolverConfig:
    """Linear-solve controls for the direct DST-I Poisson solve.

    `tol` bounds the max-norm of the true linear residual b - A v,
    recomputed after every sweep; `max_iter` caps the number of DST
    sweeps; `dirichlet` is a Polynomial, or None for zero boundary data.
    """

    tol: float = 1e-10
    max_iter: int = 50_000
    dirichlet: Polynomial | None = None

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.dirichlet is not None and not (
            isinstance(self.dirichlet, Polynomial) and self.dirichlet.dim == 4
        ):
            raise ValueError("dirichlet data must be a Polynomial on R^4 or None")


class Grid4D:
    """Scalar samples on a uniform m^4 grid over [lo, hi]^4."""

    __slots__ = ("m", "lo", "hi", "values")

    def __init__(self, m: int, lo: float, hi: float, values: np.ndarray | None = None):
        check_grid_size(m)
        self.m = m
        self.lo = float(lo)
        self.hi = float(hi)
        if values is None:
            values = np.zeros((m, m, m, m))
        if values.shape != (m, m, m, m):
            raise ValueError("values shape mismatch")
        self.values = values

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m)

    def meshgrid(self) -> list[np.ndarray]:
        ax = self.axis()
        return list(np.meshgrid(ax, ax, ax, ax, indexing="ij", sparse=True))

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros((self.m,) * 4, dtype=bool)
        for a in range(4):
            sl = [slice(None)] * 4
            sl[a] = 0
            mask[tuple(sl)] = True
            sl[a] = -1
            mask[tuple(sl)] = True
        return mask

    @classmethod
    def from_polynomial(cls, m: int, lo: float, hi: float, poly: Polynomial) -> "Grid4D":
        grid = cls(m, lo, hi)
        grid.values = _eval_poly_on_mesh(poly, grid.meshgrid())
        return grid

    def copy(self) -> "Grid4D":
        return Grid4D(self.m, self.lo, self.hi, self.values.copy())

    def export_slice_csv(self, path, fixed_axes=(2, 3)) -> None:
        """Write the 2D slice through the box center as x_a, x_b, value."""
        free = [a for a in range(4) if a not in fixed_axes]
        mid = self.m // 2
        ax = self.axis()
        idx: list = [mid] * 4
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"x{free[0]}", f"x{free[1]}", "mu"])
            for i in range(self.m):
                for j in range(self.m):
                    idx[free[0]] = i
                    idx[free[1]] = j
                    writer.writerow([repr(ax[i]), repr(ax[j]), repr(self.values[tuple(idx)])])


def _eval_poly_on_mesh(poly: Polynomial, mesh: Sequence[np.ndarray]) -> np.ndarray:
    """Float values of `poly` on the mesh; ValueError if a coefficient
    exceeds the float range."""
    total = np.zeros(np.broadcast_shapes(*(m.shape for m in mesh)))
    for exp, coeff in poly.terms.items():
        try:
            term = np.full((), float(coeff))
        except OverflowError:
            raise ValueError("a coefficient is too large for the float solver") from None
        for x, e in zip(mesh, exp):
            if e:
                term = term * x**e
        total = total + term
    return total


def _interior(a: np.ndarray) -> np.ndarray:
    return a[1:-1, 1:-1, 1:-1, 1:-1]


def _second_diff_sum(full: np.ndarray, h: float) -> np.ndarray:
    """sum_i D2_i on interior nodes (standard 9-point 4D stencil)."""
    core = full[1:-1, 1:-1, 1:-1, 1:-1]
    out = -8.0 * core
    out = out + full[2:, 1:-1, 1:-1, 1:-1] + full[:-2, 1:-1, 1:-1, 1:-1]
    out = out + full[1:-1, 2:, 1:-1, 1:-1] + full[1:-1, :-2, 1:-1, 1:-1]
    out = out + full[1:-1, 1:-1, 2:, 1:-1] + full[1:-1, 1:-1, :-2, 1:-1]
    out = out + full[1:-1, 1:-1, 1:-1, 2:] + full[1:-1, 1:-1, 1:-1, :-2]
    return out / (h * h)


def _first_diff(full: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central first difference on interior nodes."""
    plus = [slice(1, -1)] * 4
    minus = [slice(1, -1)] * 4
    plus[axis] = slice(2, None)
    minus[axis] = slice(None, -2)
    return (full[tuple(plus)] - full[tuple(minus)]) / (2.0 * h)


def weyl_form(spec: ConformalMetricSpec) -> tuple[KForm, Polynomial]:
    """The Weyl 1-form of g = phi*delta as the exact pair (d phi, phi).

    The 1-form itself is d(log phi) = dphi / phi; returning numerator and
    denominator keeps it inside polynomial arithmetic.
    """
    dphi = KForm.from_polynomial(spec.phi).d()
    return dphi, spec.phi


def weyl_identity_residuals(
    spec: ConformalMetricSpec, closed_form: Sequence[Polynomial] | None = None
) -> list[Polynomial]:
    """Exact residuals of the contracted Christoffel closed form.

    The Christoffel symbols of g = phi*delta come from the general formula
    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), with the
    inverse metric g^{kl} = delta^{kl} / phi.  Multiplying the contraction
    by 2 phi^2 clears every denominator:

        2 phi^2 g^{ij} Gamma^k_ij
            = sum_{i,j,l} delta^{ij} delta^{kl} (d_i g_jl + d_j g_il - d_l g_ij).

    Residual k is that polynomial minus `closed_form[k]`, by default
    -2 d_k phi: the closed form g^{ij} Gamma^k_ij = -phi^{-2} d_k phi that
    `laplace_beltrami_apply` relies on.  All four must be exactly zero.
    """
    phi = spec.phi
    zero = Polynomial.zero(4)
    one = Polynomial.constant(4, 1)
    g = [[phi if i == j else zero for j in range(4)] for i in range(4)]
    phi_g_inv = [[one if i == j else zero for j in range(4)] for i in range(4)]
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


def _phi_arrays(spec: ConformalMetricSpec, grid: Grid4D):
    mesh = grid.meshgrid()
    phi = _eval_poly_on_mesh(spec.phi, mesh)
    phi = np.broadcast_to(phi, (grid.m,) * 4)
    dphi = [np.broadcast_to(_eval_poly_on_mesh(p, mesh), (grid.m,) * 4) for p in spec.gradient()]
    return phi, dphi


def laplace_beltrami_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """Geometer-sign Laplacian of g = phi*delta at interior nodes.

    Delta mu = -g^{ij}(d_i d_j mu - Gamma^k_ij d_k mu); for the conformal
    metric the contracted Christoffel term reduces to
    g^{ij} Gamma^k_ij = -phi^{-2} d_k phi, evaluated exactly from phi.
    Boundary entries of the output are zero.
    """
    phi, dphi = _phi_arrays(spec, grid)
    h = grid.h
    phi_in = _interior(phi)
    second = _second_diff_sum(grid.values, h)
    out = np.zeros_like(grid.values)
    acc = -second / phi_in
    for k in range(4):
        acc = acc - (_interior(dphi[k]) / phi_in**2) * _first_diff(grid.values, k, h)
    out[1:-1, 1:-1, 1:-1, 1:-1] = acc
    return Grid4D(grid.m, grid.lo, grid.hi, out)


def weyl_drift_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """The drift term omega-sharp(mu) = phi^{-2} <d phi, d mu> (interior)."""
    phi, dphi = _phi_arrays(spec, grid)
    h = grid.h
    phi_in = _interior(phi)
    out = np.zeros_like(grid.values)
    acc = np.zeros_like(phi_in)
    for k in range(4):
        acc = acc + (_interior(dphi[k]) / phi_in**2) * _first_diff(grid.values, k, h)
    out[1:-1, 1:-1, 1:-1, 1:-1] = acc
    return Grid4D(grid.m, grid.lo, grid.hi, out)


def potential_operator_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """The assembled left-hand side  Delta mu + omega-sharp(mu).

    The first-order stencils of the two summands cancel exactly (same
    nodal coefficients, same differences), leaving -phi^{-1} sum_i D2_i.
    """
    lap = laplace_beltrami_apply(spec, grid)
    drift = weyl_drift_apply(spec, grid)
    return Grid4D(grid.m, grid.lo, grid.hi, lap.values + drift.values)


@dataclass
class SolveResult:
    grid: Grid4D
    iterations: int
    residual_max: float
    residual_mean: float
    diagnostics: dict = field(default_factory=dict)


def _dirichlet_values(config: SolverConfig, grid: Grid4D) -> np.ndarray:
    full = np.zeros((grid.m,) * 4)
    if config.dirichlet is None:
        return full
    vals = np.broadcast_to(_eval_poly_on_mesh(config.dirichlet, grid.meshgrid()), (grid.m,) * 4)
    mask = grid.boundary_mask()
    full[mask] = vals[mask]
    return full


def _linear_system(spec: ConformalMetricSpec, grid: Grid4D, config: SolverConfig):
    """(phi, mu0, b): the factor on the grid, the Dirichlet extension mu0
    and the right-hand side b of  A v = b  for the interior unknowns v."""
    phi, _ = _phi_arrays(spec, grid)
    if not np.all(phi > 0):
        raise ValueError("conformal factor must be positive at every grid node")
    mu0 = _dirichlet_values(config, grid)
    b = -float(TRACE_TARGET) * _interior(phi) + _second_diff_sum(mu0, grid.h)
    return phi, mu0, b


def _negative_laplacian(v_int: np.ndarray, h: float) -> np.ndarray:
    """A v = -sum_i D2_i v, with v extended by zero Dirichlet data."""
    return -_second_diff_sum(np.pad(v_int, 1), h)


def _dst1(a: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DST-I along `axis`: 2 sum_j a_j sin(pi j k / N), N = n + 1.

    Computed as the real FFT of the odd extension (0, a, 0, -reversed a);
    applying it twice multiplies by 2N.
    """
    x = np.moveaxis(a, axis, -1)
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    return np.moveaxis(-np.fft.rfft(ext, axis=-1).imag[..., 1 : n + 1], -1, axis)


def _dst4(a: np.ndarray) -> np.ndarray:
    for axis in range(4):
        a = _dst1(a, axis)
    return a


def _dst_poisson_solve(b: np.ndarray, h: float, tol: float, max_iter: int):
    """Direct DST-I solve of  A v = b, refined until max|b - A v| <= tol.

    The sines diagonalize A with eigenvalues sum_axes (4/h^2) sin^2(pi k / 2N),
    so each sweep applies A^{-1} exactly up to rounding: v += A^{-1} r, then
    the true residual r = b - A v is recomputed.  Returns (v, sweeps).
    """
    big_n = b.shape[0] + 1
    axis_eig = (4.0 / (h * h)) * np.sin(np.pi * np.arange(1, big_n) / (2 * big_n)) ** 2
    eig = (
        axis_eig[:, None, None, None]
        + axis_eig[None, :, None, None]
        + axis_eig[None, None, :, None]
        + axis_eig[None, None, None, :]
    )
    eig *= (2.0 * big_n) ** 4
    v = np.zeros_like(b)
    r = b
    res = float(np.max(np.abs(r)))
    if res <= tol:
        return v, 0
    for sweep in range(1, max_iter + 1):
        v = v + _dst4(_dst4(r) / eig)
        r = b - _negative_laplacian(v, h)
        new_res = float(np.max(np.abs(r)))
        if new_res <= tol:
            return v, sweep
        if not new_res < res:
            raise SolverError(
                f"DST sweeps stalled at residual {new_res:.3g}, above tol={tol} "
                "(below the floating-point floor of this grid)"
            )
        res = new_res
    raise SolverError(f"DST solve did not reach tol={tol} in {max_iter} sweeps")


def solve_potential(spec: ConformalMetricSpec, m: int, config: SolverConfig | None = None) -> SolveResult:
    """Solve the potential equation on an m^4 grid with Dirichlet data.

    The continuum problem is  Delta mu + omega-sharp(mu) + 4 = 0, whose
    discrete form reduces (after the exact drift cancellation and row
    scaling by -phi) to the SPD system  (-sum_i D2_i) mu = -4 phi.  That
    system is solved by a direct DST-I Poisson solve; `iterations` counts
    its sweeps, each ending on a recomputed true residual.  The residual
    reported at the end goes through the geometric operators, exercising
    the cancellation rather than assuming it.
    """
    config = config or SolverConfig()
    grid = Grid4D(m, *spec.box)
    phi, mu0, b = _linear_system(spec, grid, config)
    h = grid.h
    v, iterations = _dst_poisson_solve(b, h, config.tol, config.max_iter)
    mu = mu0
    mu[1:-1, 1:-1, 1:-1, 1:-1] = v
    solution = Grid4D(m, grid.lo, grid.hi, mu)

    geo = potential_operator_apply(spec, solution)
    residual = _interior(geo.values) + float(TRACE_TARGET)
    res_max = float(np.max(np.abs(residual)))
    res_mean = float(np.mean(np.abs(residual)))
    return SolveResult(
        solution,
        iterations,
        res_max,
        res_mean,
        diagnostics={
            "residual_max": res_max,
            "residual_mean": res_mean,
            "iterations": iterations,
            "h": h,
            "unknowns": (m - 2) ** 4,
            "tol": config.tol,
            "phi_min": float(np.min(_interior(phi))),
        },
    )


def _shifted(full: np.ndarray, shifts: dict, margin: int) -> np.ndarray:
    """Margin-interior view shifted by `shifts[axis]` nodes per axis."""
    sl = []
    for axis in range(4):
        s = shifts.get(axis, 0)
        sl.append(slice(margin + s, full.shape[axis] - margin + s))
    return full[tuple(sl)]


def _wide_second_diff(full: np.ndarray, axis: int, h: float, margin: int = 2) -> np.ndarray:
    """Width-2h second difference, independent of the solver stencil."""
    return (
        _shifted(full, {axis: 2}, margin)
        - 2.0 * _shifted(full, {}, margin)
        + _shifted(full, {axis: -2}, margin)
    ) / (4.0 * h * h)


def _mixed_diff(full: np.ndarray, a: int, b: int, h: float, margin: int = 2) -> np.ndarray:
    """D1_a D1_b mixed central difference on the margin interior."""
    return (
        _shifted(full, {a: 1, b: 1}, margin)
        - _shifted(full, {a: 1, b: -1}, margin)
        - _shifted(full, {a: -1, b: 1}, margin)
        + _shifted(full, {a: -1, b: -1}, margin)
    ) / (4.0 * h * h)


def _signed_permutation(matrix) -> list[tuple[int, float]]:
    """Column a of a signed permutation matrix as (row k, sign M_ka)."""
    cols = []
    for a in range(len(matrix)):
        rows = [k for k in range(len(matrix)) if matrix[k][a] != 0]
        if len(rows) != 1 or abs(matrix[rows[0]][a]) != 1:
            raise ConventionError("structure matrix is not a signed permutation")
        cols.append((rows[0], float(matrix[rows[0]][a])))
    return cols


def verify_potential(grid: Grid4D, spec: ConformalMetricSpec) -> dict:
    """Residual diagnostics of a candidate potential, via independent stencils.

    (a) trace identity:  phi^{-1} sum_i d_i^2 mu  vs the target constant,
        using width-2h second differences so a solved grid is not checked
        against its own stencil;
    (b) form reconstruction:  the Kahler 2-form rebuilt from the averaged
        finite-difference Hessian vs SOLVER_FORM_SCALE * phi * (flat form).
    Both are reported as max and mean over the margin-2 interior.

    I, J and K are signed permutations, so every entry of M^T H M and of
    the I-contraction is a single signed Hessian entry; only the six
    entries a < b of the rebuilt form are computed.
    """
    margin = 2
    if grid.m < 2 * margin + 1:
        raise ValueError("grid too small for verification stencils")
    h = grid.h
    phi, _ = _phi_arrays(spec, grid)
    sl = (slice(margin, -margin),) * 4
    phi_in = phi[sl]

    wide = [_wide_second_diff(grid.values, a, h, margin) for a in range(4)]
    mixed = {(a, b): _mixed_diff(grid.values, a, b, h, margin) for a in range(4) for b in range(a + 1, 4)}

    def hess(k: int, l: int) -> np.ndarray:
        return wide[k] if k == l else mixed[min(k, l), max(k, l)]

    trace = wide[0] + wide[1] + wide[2] + wide[3]
    trace_res = np.abs(trace / phi_in - float(TRACE_TARGET))

    model = HypercomplexModel(1)
    perms = [_signed_permutation(model.matrix(nm)) for nm in ("I", "J", "K")]
    form_res = np.zeros_like(phi_in)
    scale = float(SOLVER_FORM_SCALE)
    for a in range(4):
        c, sign_i = perms[0][a]
        for b in range(a + 1, 4):
            # avg_cb = (H + I^T H I + J^T H J + K^T H K)_cb / 2 and f_ab = I_ca avg_cb.
            avg = hess(c, b)
            for perm in perms:
                (kc, sc), (kb, sb) = perm[c], perm[b]
                avg = avg + hess(kc, kb) if sc == sb else avg - hess(kc, kb)
            f_rec = 0.5 * sign_i * avg
            expected = scale * phi_in * sign_i if c == b else 0.0
            form_res = np.maximum(form_res, np.abs(f_rec - expected))

    return {
        "trace_residual_max": float(trace_res.max()),
        "trace_residual_mean": float(trace_res.mean()),
        "form_residual_max": float(form_res.max()),
        "form_residual_mean": float(form_res.mean()),
        "h": h,
        "margin": margin,
    }
