"""Numerical HKT potentials on a 4D box for conformally flat metrics.

On R^4 every hyperhermitian metric is conformal, g = phi * delta, and a
potential is characterized by the trace identity

    trace_g(Hess mu) = 4   i.e.   sum_i d^2 mu / dx_i^2 = 4 * phi.

For g = phi * delta the Weyl drift omega-sharp cancels the first-order
part of the Levi-Civita Laplacian exactly (the contracted Christoffel
symbols reduce to -phi^{-2} d_k phi), so Delta mu + omega-sharp(mu) + 4 = 0
is the trace identity and its discrete form is a plain Poisson system.
The cancellation is a test obligation, not an assumption: the tests derive
the Christoffel closed form in the exact core and keep the two textbook
summands as whole-grid oracles, which the solver's residual must match.

Conformal factors are polynomials with rational coefficients; only the
linear solve is floating point.  Discretization is second-order central
differences with Dirichlet data.  The resulting constant-coefficient
Dirichlet Laplacian is diagonalized by the discrete sine transform, so
the linear system is solved by a direct DST-I Poisson solve (Buzbee,
Golub & Nielson 1970), refined against the true residual.  The DST-I is
applied as four dense sine-matrix products, one per axis, with the sine
argument reduced in integers, pi * ((k * j) mod 2N) / N, so every sine is
taken of an angle in [0, 2 pi).

The solve holds the solution grid, whose interior view is the unknowns,
one interior array (the residual r) and temporaries of O(m^3) size.  The
transform runs in place in r, the eigenvalue divisors are built one row
at a time, and b is never stored: each residual b - A v is A v formed in
r by slice updates, subtracted from b rebuilt row by row from the faces.
The Dirichlet data are sampled on the boundary faces only, phi per row or
slab.  Up to added exact zeros, every value goes through the float
operations of the textbook whole-array formulation (the tests' oracle), so
the solution is bit-identical to it.  Overflow is not warned about:
non-finite values end in the stall error or the residual gate.

The one stencil pass after the solve computes the geometric residual
|4 - phi^{-1} sum_i D2_i mu|, whose 9-point stencil the solve itself never
runs, and the trace and form checks of the width-2h second differences.
It runs slab by slab: SLAB_ROWS rows along axis 0 at a time, read with a
halo of 2 rows and sampled for phi once, reduced to max and mean as it
goes.  Every node goes through the same arithmetic in the same order as
in a whole-grid pass, so every nodal value is bit-identical to it (only
the means, sums of slab sums, may differ in the last bits), but no
temporary of the full m^4 size is ever alive.  The form check needs no
Hessian beyond its trace: tests/test_elliptic.py (`TestAveragedHessian`,
with the dense I, J, K of tests/conftest.py) proves over Q that the
Sp(1)-averaged Hessian of the n = 1 model is (tr H / 2) Id.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

import numpy as np

from .conventions import SOLVER_FORM_SCALE, TRACE_TARGET
from .scalars import Polynomial


# Largest grid (nodes per axis) a solve accepts.  Peak memory grows like
# m^4, about 17 bytes per node (the solution grid and the residual r):
# `hkt solve --grid m` on a factor using all four coordinates peaked at
# 53 MB for m = 33, 127 MB for m = 49 and 318 MB for m = 65 (max RSS), so
# the next odd grid above 65, 97, would need about 1.5 GB.
MAX_GRID = 65

# Rows along axis 0 per slab of the factor check and of the stencil pass
# after the solve.  1, 2, 4 and 8 rows gave the same peak RSS at m = 33 and
# times within noise.
SLAB_ROWS = 4

# Cap on the DST sweeps of one solve.  Each sweep applies the exact inverse
# up to rounding, so a solve reaches its tolerance or stalls long before it.
MAX_SWEEPS = 50_000


class SolverError(RuntimeError):
    """The linear solve failed (non-convergence or indefiniteness)."""


def check_grid_size(m: int) -> None:
    """Raise ValueError unless 5 <= m <= MAX_GRID; allocates nothing.  The
    verification's width-2h stencils need a node 2 rows from every face."""
    if not 5 <= m <= MAX_GRID:
        raise ValueError(f"grid must have between 5 and {MAX_GRID} nodes per axis, got {m}")


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


class ConformalMetricSpec:
    """g = phi * delta on a box [lo, hi]^4; phi must be positive there."""

    def __init__(self, phi: Polynomial, box: tuple[float, float] = (-1.0, 1.0)):
        if phi.dim != 4:
            raise ValueError("conformal solver is specific to dimension 4 (n = 1)")
        lo, hi = box
        if not lo < hi:
            raise ValueError("box must satisfy lo < hi")
        self.phi = phi
        self.box = box


class SolverConfig:
    """Linear-solve controls for the direct DST-I Poisson solve.

    `tol` bounds the max-norm of the true linear residual b - A v,
    recomputed after every sweep, at most `MAX_SWEEPS` times;
    `dirichlet` is a Polynomial, or None for zero boundary data.
    """

    def __init__(self, tol: float = 1e-10, dirichlet: Polynomial | None = None):
        # An infinite or NaN tolerance bounds nothing: the residual gate's
        # 100 * tol / min(phi) would pass any finite residual, or none.
        if not (0 < tol < math.inf):
            raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")
        if dirichlet is not None and not (isinstance(dirichlet, Polynomial) and dirichlet.dim == 4):
            raise ValueError("dirichlet data must be a Polynomial on R^4 or None")
        self.tol = tol
        self.dirichlet = dirichlet


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

    def export_slice_csv(self, path) -> None:
        """Write the (x0, x1) slice through the box center as x0, x1, mu,
        each cell the repr of a Python float, which `float()` reads back exactly."""
        mid = self.m // 2
        ax = self.axis()
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x0", "x1", "mu"])
            for i in range(self.m):
                for j in range(self.m):
                    writer.writerow([repr(float(v)) for v in (ax[i], ax[j], self.values[i, j, mid, mid])])


def _eval_poly_on_mesh(poly: Polynomial, mesh: Sequence[np.ndarray]) -> np.ndarray:
    """Float values of `poly` on the sparse mesh; ValueError if a coefficient
    exceeds the float range.

    The result broadcasts to the full grid; it, like each partial sum, keeps
    length 1 on every axis whose variable none of the terms summed contains.
    """
    total = np.zeros(())
    for exp, coeff in poly.terms.items():
        try:
            term = np.full((), float(coeff))
        except OverflowError:
            raise ValueError("a coefficient is too large for the float solver") from None
        for x, e in zip(mesh, exp):
            if e:
                term = term * x**e
        if np.broadcast_shapes(total.shape, term.shape) == total.shape:
            total += term
        else:
            total = total + term
    return total


def _sample_rows(poly: Polynomial, grid: Grid4D, start: int, stop: int) -> np.ndarray:
    """`poly` on the axis-0 rows start .. stop - 1 of `grid`, as a read-only
    (stop - start, m, m, m) view of a sample that stores only the axes it
    depends on.  Every value is bit-identical to the one a whole-mesh sample
    holds at that node."""
    mesh = grid.meshgrid()
    mesh[0] = mesh[0][start:stop]
    return np.broadcast_to(_eval_poly_on_mesh(poly, mesh), (stop - start,) + (grid.m,) * 3)


def _interior(a: np.ndarray) -> np.ndarray:
    return a[1:-1, 1:-1, 1:-1, 1:-1]


def _shifted(full: np.ndarray, axis: int, step: int, margin: int) -> np.ndarray:
    """Margin-interior view shifted by `step` nodes along `axis`."""
    sl = [slice(margin, n - margin) for n in full.shape]
    sl[axis] = slice(margin + step, full.shape[axis] - margin + step)
    return full[tuple(sl)]


def _second_diff_sum(full: np.ndarray, h: float) -> np.ndarray:
    """sum_i D2_i on interior nodes (standard 9-point 4D stencil)."""
    out = -8.0 * _interior(full)
    for a in range(4):
        out += _shifted(full, a, 1, 1)
        out += _shifted(full, a, -1, 1)
    out /= h * h
    return out


def _wide_second_diff(full: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Width-2h second difference on the margin-2 interior, independent of
    the solver stencil."""
    return (
        _shifted(full, axis, 2, 2) - 2.0 * _shifted(full, axis, 0, 2) + _shifted(full, axis, -2, 2)
    ) / (4.0 * h * h)


def _slab_rows(m: int, margin: int):
    """(start, stop) row ranges of at most SLAB_ROWS rows covering the
    margin-interior rows margin .. m - margin - 1 along axis 0."""
    for start in range(margin, m - margin, SLAB_ROWS):
        yield start, min(start + SLAB_ROWS, m - margin)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_potential(grid: Grid4D, spec: ConformalMetricSpec) -> dict:
    """Residual diagnostics of a candidate potential, in one slab pass.

    (a) geometric residual  |4 - phi^{-1} sum_i D2_i mu|  over the interior,
        with the 9-point stencil, which the DST solve never runs;
    (b) trace residual  |phi^{-1} S - 4|,  S = sum_i Dw2_i mu  the sum of the
        width-2h second differences, so a solved grid is not checked
        against its own stencil;
    (c) form residual  |S / 2 - SOLVER_FORM_SCALE * phi|:  the Kahler form
        rebuilt from the averaged Hessian against SOLVER_FORM_SCALE * phi
        times the flat form.
    (b) and (c) cover the margin-2 interior.  For n = 1 the Sp(1) average
    of a symmetric Hessian is (tr H / 2) Id, so the rebuilt form is
    +-S / 2 on its two nonzero entries and zero on the four others (the
    tests prove this over Q with dense I, J, K); (c) is exactly
    phi / 2 times the signed (b) in exact arithmetic, kept for `hkt
    solve`'s order estimate.  Each slab of rows is read with a halo of 2 and sampled for
    phi once, and reduced as it goes: the maxima are exact, the means are
    the sums of the slab sums over the node count.
    """
    m, h = grid.m, grid.h
    maxima, sums = [-math.inf] * 3, [0.0] * 3

    def fold(k: int, part: np.ndarray) -> None:
        np.abs(part, out=part)
        # np.maximum, unlike max(), carries a NaN through as the whole-grid max would.
        maxima[k] = float(np.maximum(maxima[k], part.max(initial=-math.inf)))
        sums[k] += float(part.sum())

    for start, stop in _slab_rows(m, 1):
        phi = _sample_rows(spec.phi, grid, start, stop)
        res = _second_diff_sum(grid.values[start - 1 : stop + 1], h)
        res /= phi[:, 1:-1, 1:-1, 1:-1]
        fold(0, np.subtract(float(TRACE_TARGET), res, out=res))
        # Each part is freed before the next is formed: that halves the peak.
        del res
        # The slab's rows at least 2 from a face (none in a last one-row slab).
        lo, hi = max(start, 2), min(stop, m - 2)
        full = grid.values[lo - 2 : hi + 2]
        wide = _wide_second_diff(full, 0, h)
        for a in (1, 2, 3):
            wide += _wide_second_diff(full, a, h)
        phi_in = phi[lo - start : hi - start, 2:-2, 2:-2, 2:-2]
        trace = wide / phi_in
        trace -= float(TRACE_TARGET)
        fold(1, trace)
        del trace
        wide *= 0.5
        wide -= float(SOLVER_FORM_SCALE) * phi_in
        fold(2, wide)
    inner = (m - 4) ** 4
    return {
        "residual_max": maxima[0],
        "residual_mean": sums[0] / (m - 2) ** 4,
        "trace_residual_max": maxima[1],
        "trace_residual_mean": sums[1] / inner,
        "form_residual_max": maxima[2],
        "form_residual_mean": sums[2] / inner,
        "margin": 2,
    }


class SolveResult:
    def __init__(self, grid: Grid4D, diagnostics: dict):
        self.grid = grid
        self.diagnostics = diagnostics


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


def _factor_minimum(spec: ConformalMetricSpec, grid: Grid4D) -> float:
    """min phi over the interior nodes; ValueError unless phi > 0 at every
    node.  Sampled and reduced slab by slab."""
    m, phi_min = grid.m, math.inf
    for start, stop in _slab_rows(m, 0):
        phi = _sample_rows(spec.phi, grid, start, stop)
        if not np.all(phi > 0):
            raise ValueError("conformal factor must be positive at every grid node")
        inner = phi[max(start, 1) - start : min(stop, m - 1) - start, 1:-1, 1:-1, 1:-1]
        phi_min = min(phi_min, float(inner.min(initial=math.inf)))
    return phi_min


def _rhs_rows(spec: ConformalMetricSpec, grid: Grid4D):
    """Yield (rows, b[rows]) one interior row at a time for b = sum_i D2_i
    (Dirichlet data) - 4 phi: -4 phi (phi sampled per slab) plus, at nodes
    next to a face, the face neighbours summed in stencil order over h^2; the
    stencil's other terms are exact zeros, so every value is bit-identical."""
    m, h = grid.m, grid.h
    inner = (slice(1, -1),) * 3
    # (nodes of a row, their neighbours in it) for the faces of axes 1 .. 3.
    faces = [((slice(None),) * a + (node,), inner[:a] + (face,) + inner[a + 1 :])
             for a in range(3) for node, face in ((m - 3, m - 1), (0, 0))]
    for start, stop in _slab_rows(m, 1):
        phi = _sample_rows(spec.phi, grid, start, stop)
        for i in range(start, stop):
            near = np.zeros((m - 2,) * 3)
            # Grid rows 0 and m - 1 are boundary faces throughout.
            for edge in [m - 1] * (i == m - 2) + [0] * (i == 1):
                near += grid.values[edge][inner]
            for nodes, face in faces:
                near[nodes] += grid.values[i][face]
            b = -float(TRACE_TARGET) * phi[i - start : i - start + 1, 1:-1, 1:-1, 1:-1]
            b[0] += near / (h * h)
            yield slice(i - 1, i), b


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
    """DST-I along all four axes of a cube `a` of side n, in place; returns `a`.

    `sines` = _sine_matrix(n) and `scratch` is an (n, n, n) buffer.  Axis 0
    is transformed in blocks of n^2 columns, then each axis-0 row takes
    three products that each transform its first axis and leave it last.
    Every product is `block.T @ sines`, as in the whole-array formulation,
    which it matches bit for bit.
    """
    n = a.shape[0]
    columns, out = a.reshape(n, -1), scratch.reshape(-1, n)
    for c in range(0, n**3, n * n):
        block = columns[:, c : c + n * n]
        np.matmul(block.T, sines, out=out)
        block[...] = out.T
    for row in a:
        for src, dst in ((row, scratch), (scratch, row), (row, scratch)):
            np.matmul(src.reshape(n, -1).T, sines, out=dst.reshape(-1, n))
        row[...] = scratch
    return a


def _dst_poisson_solve(rhs, v: np.ndarray, h: float, tol: float) -> int:
    """Direct DST-I solve of  A v = b, refined until max|b - A v| <= tol.

    `rhs()` yields (rows, b[rows]) slabs covering b, rebuilt for every
    residual.  `v` holds zeros on entry (typically the interior view of the
    solution grid) and the solution on return.  The sines diagonalize A
    with eigenvalues sum_axes (4/h^2) sin^2(pi k / 2N), so each sweep
    applies A^{-1} exactly up to rounding: v += A^{-1} r, then the true
    residual r = b - A v is recomputed.  Returns the sweep count, at least
    1: the zero start is never accepted, however large `tol` is.
    """
    big_n = v.shape[0] + 1
    axis_eig = (4.0 / (h * h)) * np.sin(np.pi * np.arange(1, big_n) / (2 * big_n)) ** 2
    scale = (2.0 * big_n) ** 4
    sines = _sine_matrix(big_n - 1)
    r = np.empty(v.shape)
    for rows, b in rhs():
        r[rows] = b
    # max|r| as max(max r, -min r): no |r| temporary, and a NaN still
    # propagates into the stall check.
    res = float(max(r.max(), -r.min()))
    scratch = np.empty((big_n - 1,) * 3)
    for sweep in range(1, MAX_SWEEPS + 1):
        _dst4(r, scratch, sines)
        # Divide by the eigenvalues (2N)^4 (a_i + a_j + a_k + a_l) one
        # axis-0 row at a time, never materializing the whole cube.
        for i, a_i in enumerate(axis_eig):
            row = (a_i + axis_eig[:, None, None]) + axis_eig[None, :, None] + axis_eig
            row *= scale
            r[i] /= row
        v += _dst4(r, scratch, sines)
        _negative_laplacian(v, h, r)
        for rows, b in rhs():
            np.subtract(b, r[rows], out=r[rows])
        new_res = float(max(r.max(), -r.min()))
        if new_res <= tol:
            return sweep
        if not new_res < res:
            raise SolverError(
                f"DST sweeps stalled at residual {new_res:.3g}, above tol={tol} "
                "(below the floating-point floor of this grid)"
            )
        res = new_res
    raise SolverError(f"DST solve did not reach tol={tol} in {MAX_SWEEPS} sweeps")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_potential(spec: ConformalMetricSpec, m: int, config: SolverConfig | None = None) -> SolveResult:
    """Solve the potential equation on an m^4 grid with Dirichlet data.

    The continuum problem is  Delta mu + omega-sharp(mu) + 4 = 0, whose
    discrete form reduces (after the exact drift cancellation and row
    scaling by -phi) to the SPD system  (-sum_i D2_i) mu = -4 phi.  That
    system is solved by a direct DST-I Poisson solve; the diagnostics'
    `iterations` counts its sweeps, each ending on a recomputed true
    residual.  `verify_potential` then checks the grid once; its geometric
    residual |4 - phi^{-1} sum_i D2_i mu| is gated: SolverError unless it
    is finite and within 100 * tol / min(phi), the linear residual bound
    carried through the row scaling by phi, with room for the rounding of
    a stencil the solve did not run.  The diagnostics hold the grid size
    m and every key of the check.
    """
    config = config or SolverConfig()
    solution = Grid4D(m, *spec.box)
    phi_min = _factor_minimum(spec, solution)
    _write_dirichlet_faces(config, solution)
    h = solution.h
    iterations = _dst_poisson_solve(
        lambda: _rhs_rows(spec, solution), _interior(solution.values), h, config.tol
    )
    checks = verify_potential(solution, spec)
    res_max = checks["residual_max"]
    bound = 100 * config.tol / phi_min
    if not (math.isfinite(res_max) and res_max <= bound):
        raise SolverError(f"geometric residual {res_max:.3g} above {bound:.3g} at m = {m}")
    return SolveResult(solution, {"m": m, "iterations": iterations, "h": h, "unknowns": (m - 2) ** 4,
                                  "tol": config.tol, "phi_min": phi_min, **checks})
