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
Golub & Nielson 1970), refined against the true residual.  The DST-I is
applied as four dense sine-matrix products, one per axis, with the sine
argument reduced in integers, pi * ((k * j) mod 2N) / N, so every sine is
taken of an angle in [0, 2 pi).

The conformal factor and its gradient are sampled once per grid
(`ConformalMetricSpec.on_grid`); the solve, both geometric operators and
the verification share that sampling.  Overflow in the float solve is
not warned about: non-finite values end in the solver's stall error or
in the caller's residual gate.

The two stencil passes after the solve -- the geometric residual and the
verification -- run slab by slab: SLAB_ROWS rows along axis 0 at a time,
read with a halo of 1 row (solver stencil) or 2 rows (verification
stencils).  Every node goes through the same arithmetic in the same
order as in a whole-grid pass, so every nodal value is bit-identical to
it (only the verification means, sums of slab sums, may differ in the
last bits), but no temporary of the full m^4 size is ever alive.
Within a slab the four first-order products (d_k phi / phi^2) D1_k mu
are computed once; the Laplace-Beltrami summand subtracts them, the
drift summand adds them, and the two summands are added afterwards, so
the cancellation is computed rather than assumed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conventions import SOLVER_FORM_SCALE, TRACE_TARGET
from .forms import KForm
from .geometry import ConventionError
from .scalars import Polynomial
from .structures import HypercomplexModel


# Largest grid (nodes per axis) a solve accepts.  Peak memory grows like
# m^4, about 50 bytes per node: `hkt solve --grid m` peaked at 97 MB for
# m = 33, 332 MB for m = 49 and 970 MB for m = 65 (max RSS), so the next
# odd grid above 65, 97, would need about 4.5 GB.
MAX_GRID = 65

# Rows along axis 0 per slab of the stencil passes after the solve.  1, 2,
# 4 and 8 rows gave the same peak RSS at m = 33 and times within noise.
SLAB_ROWS = 4


class SolverError(RuntimeError):
    """The linear solve failed (non-convergence or indefiniteness)."""


def check_grid_size(m: int) -> None:
    """Raise ValueError unless 3 <= m <= MAX_GRID; allocates nothing."""
    if not 3 <= m <= MAX_GRID:
        raise ValueError(f"grid must have between 3 and {MAX_GRID} nodes per axis, got {m}")


def check_grid_spacing(m: int, lo: float, hi: float) -> None:
    """Raise ValueError unless the spacing h of an m-node grid on [lo, hi]
    has a positive finite square, the divisor of every stencil."""
    h = (hi - lo) / (m - 1)
    if not (h * h > 0 and math.isfinite(h * h)):
        raise ValueError(
            f"box [{lo!r}, {hi!r}] gives grid spacing h = {h!r} on grid m = {m}, "
            "whose square is not a positive finite float"
        )


@dataclass
class ConformalMetricSpec:
    """g = phi * delta on a box [lo, hi]^4; phi must be positive there."""

    phi: Polynomial
    box: tuple[float, float] = (-1.0, 1.0)
    _sampled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.phi.dim != 4:
            raise ValueError("conformal solver is specific to dimension 4 (n = 1)")
        lo, hi = self.box
        if not lo < hi:
            raise ValueError("box must satisfy lo < hi")

    def gradient(self) -> list[Polynomial]:
        return [self.phi.partial(i) for i in range(4)]

    def on_grid(self, grid: "Grid4D") -> tuple[np.ndarray, list[np.ndarray]]:
        """(phi, [d_0 phi, .., d_3 phi]) on the nodes of `grid`, as read-only
        m^4 views of samples that store only the axes each one depends on.

        Only the latest sampling is kept, keyed by phi and the grid's
        (m, lo, hi), so a solve and its verification on one grid sample
        phi once and two grids' samples are never held together.
        """
        key = (grid.m, grid.lo, grid.hi)
        cached = self._sampled
        if cached is None or cached[0] is not self.phi or cached[1] != key:
            mesh = grid.meshgrid()
            shape = (grid.m,) * 4
            phi = np.broadcast_to(_eval_poly_on_mesh(self.phi, mesh), shape)
            dphi = [np.broadcast_to(_eval_poly_on_mesh(p, mesh), shape) for p in self.gradient()]
            self._sampled = cached = (self.phi, key, phi, dphi)
        return cached[2], cached[3]


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
        check_grid_spacing(m, self.lo, self.hi)
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
        grid.values[...] = _eval_poly_on_mesh(poly, grid.meshgrid())
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
    """Float values of `poly` on the sparse mesh; ValueError if a coefficient
    exceeds the float range.

    The result broadcasts to the full grid but keeps length 1 on every axis
    whose variable `poly` does not contain.
    """
    used = [x.shape for i, x in enumerate(mesh) if any(exp[i] for exp in poly.terms)]
    total = np.zeros(np.broadcast_shapes(*used))
    for exp, coeff in poly.terms.items():
        try:
            term = np.full((), float(coeff))
        except OverflowError:
            raise ValueError("a coefficient is too large for the float solver") from None
        for x, e in zip(mesh, exp):
            if e:
                term = term * x**e
        total += term
    return total


def _interior(a: np.ndarray) -> np.ndarray:
    return a[1:-1, 1:-1, 1:-1, 1:-1]


def _second_diff_sum(full: np.ndarray, h: float) -> np.ndarray:
    """sum_i D2_i on interior nodes (standard 9-point 4D stencil)."""
    out = -8.0 * full[1:-1, 1:-1, 1:-1, 1:-1]
    out += full[2:, 1:-1, 1:-1, 1:-1]
    out += full[:-2, 1:-1, 1:-1, 1:-1]
    out += full[1:-1, 2:, 1:-1, 1:-1]
    out += full[1:-1, :-2, 1:-1, 1:-1]
    out += full[1:-1, 1:-1, 2:, 1:-1]
    out += full[1:-1, 1:-1, :-2, 1:-1]
    out += full[1:-1, 1:-1, 1:-1, 2:]
    out += full[1:-1, 1:-1, 1:-1, :-2]
    out /= h * h
    return out


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


def _slab_rows(m: int, margin: int):
    """(start, stop) row ranges of at most SLAB_ROWS rows covering the
    margin-interior rows margin .. m - margin - 1 along axis 0."""
    for start in range(margin, m - margin, SLAB_ROWS):
        yield start, min(start + SLAB_ROWS, m - margin)


def _geometric_slabs(spec: ConformalMetricSpec, grid: Grid4D):
    """Yield (rows, lap, drift) slab by slab over the interior.

    `lap` and `drift` are the Laplace-Beltrami and Weyl drift summands at
    the interior nodes of axis-0 rows `rows`, computed from those rows and
    a halo of one row on each side.  The products
    (d_k phi / phi^2) D1_k mu are formed once and enter both summands.
    """
    phi, dphi = spec.on_grid(grid)
    h = grid.h
    for start, stop in _slab_rows(grid.m, 1):
        rows = slice(start, stop)
        full = grid.values[start - 1 : stop + 1]
        phi_in = phi[rows, 1:-1, 1:-1, 1:-1]
        phi_sq = phi_in**2
        lap = -_second_diff_sum(full, h)
        lap /= phi_in
        drift = np.zeros(lap.shape)
        for k in range(4):
            product = dphi[k][rows, 1:-1, 1:-1, 1:-1] / phi_sq
            product *= _first_diff(full, k, h)
            lap -= product
            drift += product
        yield rows, lap, drift


def laplace_beltrami_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """Geometer-sign Laplacian of g = phi*delta at interior nodes.

    Delta mu = -g^{ij}(d_i d_j mu - Gamma^k_ij d_k mu); for the conformal
    metric the contracted Christoffel term reduces to
    g^{ij} Gamma^k_ij = -phi^{-2} d_k phi, evaluated exactly from phi.
    Boundary entries of the output are zero.
    """
    out = np.zeros_like(grid.values)
    for rows, lap, _ in _geometric_slabs(spec, grid):
        out[rows, 1:-1, 1:-1, 1:-1] = lap
    return Grid4D(grid.m, grid.lo, grid.hi, out)


def weyl_drift_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """The drift term omega-sharp(mu) = phi^{-2} <d phi, d mu> (interior)."""
    out = np.zeros_like(grid.values)
    for rows, _, drift in _geometric_slabs(spec, grid):
        out[rows, 1:-1, 1:-1, 1:-1] = drift
    return Grid4D(grid.m, grid.lo, grid.hi, out)


def potential_operator_apply(spec: ConformalMetricSpec, grid: Grid4D) -> Grid4D:
    """The assembled left-hand side  Delta mu + omega-sharp(mu).

    The first-order stencils of the two summands cancel exactly (same
    nodal coefficients, same differences), leaving -phi^{-1} sum_i D2_i.
    Both summands are still built and added, slab by slab.
    """
    out = np.zeros_like(grid.values)
    for rows, lap, drift in _geometric_slabs(spec, grid):
        np.add(lap, drift, out=out[rows, 1:-1, 1:-1, 1:-1])
    return Grid4D(grid.m, grid.lo, grid.hi, out)


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
    phi, _ = spec.on_grid(grid)
    if not np.all(phi > 0):
        raise ValueError("conformal factor must be positive at every grid node")
    mu0 = _dirichlet_values(config, grid)
    b = -float(TRACE_TARGET) * _interior(phi) + _second_diff_sum(mu0, grid.h)
    return phi, mu0, b


def _negative_laplacian(v_int: np.ndarray, h: float) -> np.ndarray:
    """A v = -sum_i D2_i v, with v extended by zero Dirichlet data."""
    return -_second_diff_sum(np.pad(v_int, 1), h)


def _sine_matrix(n: int) -> np.ndarray:
    """S_kj = 2 sin(pi ((k j) mod 2N) / N) for k, j = 1..n, N = n + 1.

    The unnormalized DST-I matrix; applying it twice multiplies by 2N.
    The product k j is reduced mod 2N in integers, so every sine is taken
    of an angle below 2 pi: with the plain argument pi k j / N the
    rounding of the large angles shows in the solve's residual floor.
    """
    big_n = n + 1
    k = np.arange(1, big_n)
    return 2.0 * np.sin(np.pi * (np.outer(k, k) % (2 * big_n)) / big_n)


def _dst4(a: np.ndarray, sines: np.ndarray) -> np.ndarray:
    """DST-I along all four axes of a cube `a` with `sines` = _sine_matrix(n).

    Each step is one matrix product that transforms the first axis and
    leaves it last, so after four steps the axes are back in order.
    """
    n = a.shape[0]
    for _ in range(4):
        a = (a.reshape(n, -1).T @ sines).reshape((n,) * 4)
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
    sines = _sine_matrix(big_n - 1)
    v = np.zeros_like(b)
    r = b
    res = float(np.max(np.abs(r)))
    if res <= tol:
        return v, 0
    for sweep in range(1, max_iter + 1):
        v += _dst4(_dst4(r, sines) / eig, sines)
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    np.abs(residual, out=residual)
    res_max = float(np.max(residual))
    res_mean = float(np.mean(residual))
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
    entries a < b of the rebuilt form are computed.  The Hessian is built
    and reduced one slab of rows at a time (halo 2): the maxima are exact
    maxima over the slabs, the means are the sums of the slab sums over
    the node count.
    """
    margin = 2
    if grid.m < 2 * margin + 1:
        raise ValueError("grid too small for verification stencils")
    h = grid.h
    phi, _ = spec.on_grid(grid)
    model = HypercomplexModel(1)
    perms = [_signed_permutation(model.matrix(nm)) for nm in ("I", "J", "K")]
    scale = float(SOLVER_FORM_SCALE)
    inner = (slice(margin, -margin),) * 3
    trace_max = form_max = -math.inf
    trace_sum = form_sum = 0.0

    for start, stop in _slab_rows(grid.m, margin):
        full = grid.values[start - margin : stop + margin]
        phi_in = phi[(slice(start, stop), *inner)]
        wide = [_wide_second_diff(full, a, h, margin) for a in range(4)]
        mixed = {(a, b): _mixed_diff(full, a, b, h, margin) for a in range(4) for b in range(a + 1, 4)}

        def hess(k: int, l: int) -> np.ndarray:
            return wide[k] if k == l else mixed[min(k, l), max(k, l)]

        trace_res = wide[0] + wide[1]
        trace_res += wide[2]
        trace_res += wide[3]
        trace_res /= phi_in
        trace_res -= float(TRACE_TARGET)
        np.abs(trace_res, out=trace_res)

        form_res = np.zeros(trace_res.shape)
        for a in range(4):
            c, sign_i = perms[0][a]
            for b in range(a + 1, 4):
                # avg_cb = (H + I^T H I + J^T H J + K^T H K)_cb / 2 and f_ab = I_ca avg_cb.
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

        # np.maximum, unlike max(), carries a NaN through as the whole-grid max would.
        trace_max = float(np.maximum(trace_max, trace_res.max()))
        form_max = float(np.maximum(form_max, form_res.max()))
        trace_sum += float(trace_res.sum())
        form_sum += float(form_res.sum())

    nodes = (grid.m - 2 * margin) ** 4
    return {
        "trace_residual_max": trace_max,
        "trace_residual_mean": trace_sum / nodes,
        "form_residual_max": form_max,
        "form_residual_mean": form_sum / nodes,
        "h": h,
        "margin": margin,
    }
