"""Numerical HKT potentials on a 4D box for conformally flat metrics.

On R^4 every hyperhermitian metric is conformal, g = phi * delta, and a
potential is characterized by the trace identity

    trace_g(Hess mu) = 4   i.e.   sum_i d^2 mu / dx_i^2 = 4 * phi.

The geometric operator is assembled from its two textbook pieces -- the
Levi-Civita Laplacian of g (geometer sign; the contracted Christoffel
symbols of the conformal metric reduce to -phi^{-2} d_k phi) and the Weyl
drift term -- whose first-order parts cancel exactly at the stencil
level, leaving a plain Poisson system.  The cancellation is a test
obligation, not an assumption: the tests derive the Christoffel closed
form in the exact core and check each summand against whole-grid oracles.

Conformal factors are polynomials with rational coefficients; only the
linear solve is floating point.  Discretization is second-order central
differences with Dirichlet data.  The resulting constant-coefficient
Dirichlet Laplacian is diagonalized by the discrete sine transform, so
the linear system is solved by a direct DST-I Poisson solve (Buzbee,
Golub & Nielson 1970), refined against the true residual.  The DST-I is
applied as four dense sine-matrix products, one per axis, with the sine
argument reduced in integers, pi * ((k * j) mod 2N) / N, so every sine is
taken of an angle in [0, 2 pi).

The solve holds the solution grid and three arrays of the interior's
size: the right-hand side b, the residual r and a transform scratch.
The unknowns are the interior view of the solution grid itself; each
transform step is a matrix product written into r or the scratch, the
eigenvalue division builds its divisors one axis-0 row at a time, and
the residual b - A v is formed in r by slice updates.  The Dirichlet data
are evaluated on the boundary faces only.  Every value goes through the
same float operations as in the textbook whole-array formulation (kept
in the tests as the oracle), so the solution is bit-identical to it.

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
from .geometry import ConventionError
from .scalars import Polynomial
from .structures import HypercomplexModel


# Largest grid (nodes per axis) a solve accepts.  Peak memory grows like
# m^4, about 40 bytes per node (the solution grid, three interior arrays
# and, for a factor using all four coordinates, its m^4 sample):
# `hkt solve --grid m` peaked at 80 MB for m = 33, 247 MB for m = 49 and
# 687 MB for m = 65 (max RSS), so the next odd grid above 65, 97, would
# need about 3.3 GB.
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
    has a positive finite square, the divisor of every stencil, and the DST
    solve's eigenvalues stay finite: each is below 16/h^2 (four axes of
    4/h^2) times the (2(m - 1))^4 of the unnormalized transform pair.  A
    subnormal h^2 passes the first test but not the second."""
    h = (hi - lo) / (m - 1)
    h2 = h * h
    if not (h2 > 0 and math.isfinite(h2) and math.isfinite(16.0 / h2 * (2.0 * (m - 1)) ** 4)):
        raise ValueError(
            f"box [{lo!r}, {hi!r}] gives grid spacing h = {h!r} on grid m = {m}, "
            "whose square is not a positive finite float or overflows 16/h^2 (2(m-1))^4"
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


def _write_dirichlet_faces(config: SolverConfig, grid: Grid4D) -> None:
    """Write the Dirichlet data into the eight boundary faces of grid.values.

    Each pair of opposite faces is one evaluation on the sparse mesh with
    its axis cut to the two end nodes, so no m^4 sample is ever built.
    """
    if config.dirichlet is None:
        return
    mesh = grid.meshgrid()
    for a in range(4):
        ends = (slice(None),) * a + (slice(None, None, grid.m - 1),)
        cut = [x[ends] if i == a else x for i, x in enumerate(mesh)]
        grid.values[ends] = _eval_poly_on_mesh(config.dirichlet, cut)


def _linear_system(spec: ConformalMetricSpec, grid: Grid4D, config: SolverConfig):
    """(phi, b): the factor on the grid and the right-hand side b of
    A v = b for the interior unknowns v.  The Dirichlet data are written
    into the boundary of grid.values, whose interior must be zero."""
    phi, _ = spec.on_grid(grid)
    if not np.all(phi > 0):
        raise ValueError("conformal factor must be positive at every grid node")
    _write_dirichlet_faces(config, grid)
    b = _second_diff_sum(grid.values, grid.h)
    # b += -4 phi, one row at a time so no interior temporary is built.
    target = -float(TRACE_TARGET)
    phi_in = _interior(phi)
    for i in range(b.shape[0]):
        b[i] += target * phi_in[i]
    return phi, b


def _negative_laplacian(v: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """out = A v = -sum_i D2_i v with v extended by zero Dirichlet data.

    Formed in `out` as 8 v minus each neighbour, one slice update per
    neighbour.  Float rounding is symmetric in sign, so this equals, bit
    for bit, the negation of  -8 v + neighbours  added in the same order."""
    np.multiply(v, 8.0, out=out)
    for a in range(4):
        lo = (slice(None),) * a + (slice(None, -1),)
        hi = (slice(None),) * a + (slice(1, None),)
        out[lo] -= v[hi]
        out[hi] -= v[lo]
    out /= h * h
    return out


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


def _dst4(a: np.ndarray, scratch: np.ndarray, sines: np.ndarray) -> np.ndarray:
    """DST-I along all four axes of a cube `a`, in place; returns `a`.

    `sines` = _sine_matrix(n) and `scratch` is a buffer of a's shape.  Each
    step is one matrix product that transforms the first axis and leaves
    it last, written alternately into `scratch` and back into `a`, so
    after four steps the axes are back in order and the result is in `a`.
    """
    n = a.shape[0]
    for src, dst in ((a, scratch), (scratch, a)) * 2:
        np.matmul(src.reshape(n, -1).T, sines, out=dst.reshape(-1, n))
    return a


def _dst_poisson_solve(b: np.ndarray, v: np.ndarray, h: float, tol: float, max_iter: int) -> int:
    """Direct DST-I solve of  A v = b, refined until max|b - A v| <= tol.

    `v` holds zeros on entry (typically the interior view of the solution
    grid) and the solution on return.  The sines diagonalize A with
    eigenvalues sum_axes (4/h^2) sin^2(pi k / 2N), so each sweep applies
    A^{-1} exactly up to rounding: v += A^{-1} r, then the true residual
    r = b - A v is recomputed.  Besides b, the sweeps use two work arrays
    of b's shape, r and the transform scratch.  Returns the sweep count.
    """
    big_n = b.shape[0] + 1
    axis_eig = (4.0 / (h * h)) * np.sin(np.pi * np.arange(1, big_n) / (2 * big_n)) ** 2
    scale = (2.0 * big_n) ** 4
    sines = _sine_matrix(big_n - 1)
    # max|r| as max(max r, -min r): no |r| temporary, and a NaN still
    # propagates into the stall check.
    res = float(max(b.max(), -b.min()))
    if res <= tol:
        return 0
    r = b.copy()
    scratch = np.empty_like(b)
    for sweep in range(1, max_iter + 1):
        _dst4(r, scratch, sines)
        # Divide by the eigenvalues (2N)^4 (a_i + a_j + a_k + a_l) one
        # axis-0 row at a time, never materializing the whole cube.
        for i, a_i in enumerate(axis_eig):
            row = (a_i + axis_eig[:, None, None]) + axis_eig[None, :, None] + axis_eig
            row *= scale
            r[i] /= row
        v += _dst4(r, scratch, sines)
        np.subtract(b, _negative_laplacian(v, h, r), out=r)
        new_res = float(max(r.max(), -r.min()))
        if new_res <= tol:
            return sweep
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
    solution = Grid4D(m, *spec.box)
    phi, b = _linear_system(spec, solution, config)
    h = solution.h
    iterations = _dst_poisson_solve(b, _interior(solution.values), h, config.tol, config.max_iter)
    del b  # freed before the geometric residual allocates its grid

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
