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

The two stencil passes after the solve -- the geometric residual
|4 - phi^{-1} sum_i D2_i mu|, whose 9-point stencil the solve itself never
runs, and the verification -- run slab by slab: SLAB_ROWS rows along axis
0 at a time, read with a halo of 1 row (residual) or 2 rows (verification
stencils), and reduce to max and mean as they go.  Every node goes
through the same arithmetic in the same order as in a whole-grid pass, so
every nodal value is bit-identical to it (only the means, sums of slab
sums, may differ in the last bits), but no temporary of the full m^4 size
is ever alive.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conventions import SOLVER_FORM_SCALE, TRACE_TARGET
from .geometry import ConventionError
from .scalars import Polynomial
from .structures import HypercomplexModel


# Largest grid (nodes per axis) a solve accepts.  Peak memory grows like
# m^4, about 17 bytes per node (the solution grid and the residual r):
# `hkt solve --grid m` on a factor using all four coordinates peaked at
# 54 MB for m = 33, 127 MB for m = 49 and 318 MB for m = 65 (max RSS), so
# the next odd grid above 65, 97, would need about 1.5 GB.
MAX_GRID = 65

# Rows along axis 0 per slab of the factor check and of the stencil passes
# after the solve.  1, 2, 4 and 8 rows gave the same peak RSS at m = 33 and
# times within noise.
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

    def __post_init__(self):
        if self.phi.dim != 4:
            raise ValueError("conformal solver is specific to dimension 4 (n = 1)")
        lo, hi = self.box
        if not lo < hi:
            raise ValueError("box must satisfy lo < hi")


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
        # An infinite or NaN tolerance bounds nothing: the residual gate's
        # 100 * tol / min(phi) would pass any finite residual, or none.
        if not (0 < self.tol < math.inf):
            raise ValueError(f"tolerance must be a positive finite number, got {self.tol!r}")
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


def _slab_rows(m: int, margin: int):
    """(start, stop) row ranges of at most SLAB_ROWS rows covering the
    margin-interior rows margin .. m - margin - 1 along axis 0."""
    for start in range(margin, m - margin, SLAB_ROWS):
        yield start, min(start + SLAB_ROWS, m - margin)


def _geometric_residual(spec: ConformalMetricSpec, grid: Grid4D) -> tuple[float, float]:
    """(max, mean) of |4 - phi^{-1} sum_i D2_i mu| over the interior, reduced
    slab by slab.  With the drift's first-order part cancelled, this is
    |Delta mu + omega-sharp(mu) + 4|; the tests check it against the two
    textbook summands."""
    res_max, res_sum = -math.inf, 0.0
    for start, stop in _slab_rows(grid.m, 1):
        res = _second_diff_sum(grid.values[start - 1 : stop + 1], grid.h)
        res /= _sample_rows(spec.phi, grid, start, stop)[:, 1:-1, 1:-1, 1:-1]
        np.subtract(float(TRACE_TARGET), res, out=res)
        np.abs(res, out=res)
        # np.maximum, unlike max(), carries a NaN through as the whole-grid max would.
        res_max = float(np.maximum(res_max, res.max()))
        res_sum += float(res.sum())
    return res_max, res_sum / (grid.m - 2) ** 4


@dataclass
class SolveResult:
    grid: Grid4D
    diagnostics: dict


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


def _dst_poisson_solve(rhs, v: np.ndarray, h: float, tol: float, max_iter: int) -> int:
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
    for sweep in range(1, max_iter + 1):
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
    raise SolverError(f"DST solve did not reach tol={tol} in {max_iter} sweeps")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_potential(spec: ConformalMetricSpec, m: int, config: SolverConfig | None = None) -> SolveResult:
    """Solve the potential equation on an m^4 grid with Dirichlet data.

    The continuum problem is  Delta mu + omega-sharp(mu) + 4 = 0, whose
    discrete form reduces (after the exact drift cancellation and row
    scaling by -phi) to the SPD system  (-sum_i D2_i) mu = -4 phi.  That
    system is solved by a direct DST-I Poisson solve; the diagnostics'
    `iterations` counts its sweeps, each ending on a recomputed true
    residual.  The geometric
    residual |4 - phi^{-1} sum_i D2_i mu| is then gated: SolverError
    unless it is finite and within 100 * tol / min(phi), the linear
    residual bound carried through the row scaling by phi, with room for
    the rounding of a stencil the solve did not run.
    """
    config = config or SolverConfig()
    solution = Grid4D(m, *spec.box)
    phi_min = _factor_minimum(spec, solution)
    _write_dirichlet_faces(config, solution)
    h = solution.h
    iterations = _dst_poisson_solve(
        lambda: _rhs_rows(spec, solution), _interior(solution.values), h, config.tol, config.max_iter
    )
    res_max, res_mean = _geometric_residual(spec, solution)
    bound = 100 * config.tol / phi_min
    if not (math.isfinite(res_max) and res_max <= bound):
        raise SolverError(f"geometric residual {res_max:.3g} above {bound:.3g} at m = {m}")
    return SolveResult(
        solution,
        {
            "residual_max": res_max,
            "residual_mean": res_mean,
            "iterations": iterations,
            "h": h,
            "unknowns": (m - 2) ** 4,
            "tol": config.tol,
            "phi_min": phi_min,
        },
    )


def _wide_second_diff(full: np.ndarray, axis: int, h: float, margin: int = 2) -> np.ndarray:
    """Width-2h second difference, independent of the solver stencil."""
    return (
        _shifted(full, axis, 2, margin)
        - 2.0 * _shifted(full, axis, 0, margin)
        + _shifted(full, axis, -2, margin)
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_potential(grid: Grid4D, spec: ConformalMetricSpec) -> dict:
    """Residual diagnostics of a candidate potential, via independent stencils.

    (a) trace identity:  phi^{-1} sum_i d_i^2 mu  vs the target constant,
        using width-2h second differences so a solved grid is not checked
        against its own stencil;
    (b) form reconstruction:  the Kahler 2-form rebuilt from the averaged
        finite-difference Hessian vs SOLVER_FORM_SCALE * phi * (flat form).
    Both are reported as max and mean over the margin-2 interior.

    For n = 1 the Sp(1) average of a symmetric Hessian is (tr H / 2) Id, so
    (b) is the trace identity through the paper's potential formula (form
    residual ~ phi / 2 * trace residual), kept for `hkt solve`'s order
    estimate.  Only its two nonvanishing entries are evaluated; the four
    vanishing ones, from mixed differences, left residues of order eps |H|.
    Slabs of rows (halo 2) are reduced as they go: the maxima are exact, the
    means are the sums of the slab sums over the node count.
    """
    margin = 2
    if grid.m < 2 * margin + 1:
        raise ValueError("grid too small for verification stencils")
    h = grid.h
    model = HypercomplexModel(1)
    table = _form_table([_signed_permutation(model.matrix(nm)) for nm in ("I", "J", "K")])
    inner = (slice(margin, -margin),) * 3
    trace_max = form_max = -math.inf
    trace_sum = form_sum = 0.0

    for start, stop in _slab_rows(grid.m, margin):
        full = grid.values[start - margin : stop + margin]
        phi = _sample_rows(spec.phi, grid, start, stop)
        phi_in = phi[(slice(None), *inner)]
        wide = [_wide_second_diff(full, a, h, margin) for a in range(4)]

        trace_res = np.abs(sum(wide) / phi_in - float(TRACE_TARGET))

        form_res = np.zeros(trace_res.shape)
        for on_diagonal, terms in table:
            f_rec = 0.5 * sum(coeff * wide[k] for (k, _), coeff in terms)
            if on_diagonal:
                f_rec -= float(SOLVER_FORM_SCALE) * phi_in
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
