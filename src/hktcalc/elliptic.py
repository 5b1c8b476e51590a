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

The solve holds the solution grid and temporaries of O(m^3) size: a
solve that meets its tolerance in one sweep, as the usual ones do,
allocates no other array of m^4 or (m - 2)^4 size, since that sweep runs
in the grid's own buffer (`_dst_poisson_solve`).  b is the residual of
the zero interior: the one residual -4 phi - A mu of the padded grid,
faces included, formed row by row with phi sampled per slab, is b while
the unknowns are zero and b - A v once they hold v, so neither is ever
stored.  The Dirichlet data are sampled on the boundary faces only.
Every value goes through the float operations of the textbook
whole-array formulation (the tests' oracle), up to a sign that rounds
symmetrically, so the solution is bit-identical to it.  Overflow is not
warned about: non-finite values end in the stall error or the residual
gate.

The one stencil pass after the solve computes the geometric residual
|4 - phi^{-1} sum_i D2_i mu|, and the trace and form checks of the
width-2h second differences.  Its 9-point stencil reads the data of the solve's
residual, the grid with its faces and phi per slab, but it is
`_second_diff_sum`, code the solve never runs, so the residual gate is an
independent check of the solve.  It runs slab by slab, a few rows along
axis 0 at a time (one row for m >= 27, see SLAB_NODES), read with a halo
of 2 rows and sampled for phi once, reduced to max and mean as it goes.
Every node goes through the same arithmetic in the same order as in a
whole-grid pass, so every nodal value is bit-identical to it (only the
means, sums of slab sums, may differ in the last bits), but no temporary
of the full m^4 size is ever alive.  The form check needs no Hessian
beyond its trace: tests/test_elliptic.py (`TestAveragedHessian`, with the
dense I, J, K of tests/conftest.py) proves over Q that the Sp(1)-averaged
Hessian of the n = 1 model is (tr H / 2) Id.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

import numpy as np

from .conventions import SOLVER_FORM_SCALE, TRACE_TARGET
from .scalars import Polynomial


# Largest grid (nodes per axis) a solve accepts.  Peak memory grows like
# m^4, about 8 bytes per node (the solution grid) over a base of about
# 34 MB, plus slabs of O(m^3): `hkt solve --grid m` on a factor using all
# four coordinates peaked at 44 MB for m = 17 and 33, 82 MB for m = 49 and
# 179 MB for m = 65 (max RSS), so the next odd grid above 65, 97, would
# need about 0.8 GB.
MAX_GRID = 65

# Nodes per slab of the factor check, of the solve's residual and of the
# stencil pass after the solve: a slab is SLAB_NODES // m^3 rows along
# axis 0, at least one, so one row for m >= 27.  The slabs set the peak
# above the grid, and a slab that fits the cache runs faster.  At m = 33
# (--grid 17 --grid 33) slabs of 1, 2 and 4 rows peaked at 44.2, 44.7 and
# 45.7 MB of max RSS, and at m = 65 one row at 182 MB against 196 MB for
# four; on 2 vCPUs (numpy 2.4.6) the verification pass took 37 ms at
# m = 33 with one row against 45 ms with 2 to 8, but at m = 17 4 ms with
# one row against 2 ms with 4 to 8.
SLAB_NODES = 33**3

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
            term = float(coeff)
        except OverflowError:
            raise ValueError("a coefficient is too large for the float solver") from None
        for x, e in zip(mesh, exp):
            if e:
                # x**1 would be a copy of x.
                term = term * (x if e == 1 else x**e)
        # In place once the sum has every axis of the term (each axis of
        # either is 1 or the mesh's length along it).
        if np.ndim(term) <= total.ndim and all(t <= s for t, s in zip(np.shape(term), total.shape)):
            total += term
        else:
            total = total + term
    return total


def _sample_rows(poly: Polynomial, mesh: Sequence[np.ndarray], start: int, stop: int) -> np.ndarray:
    """`poly` on the axis-0 rows start .. stop - 1 of the sparse grid `mesh`,
    as a read-only (stop - start, m, m, m) view of a sample that stores only
    the axes it depends on.  Every value is bit-identical to the one a
    whole-mesh sample holds at that node."""
    cut = [mesh[0][start:stop], *mesh[1:]]
    return np.broadcast_to(_eval_poly_on_mesh(poly, cut), (stop - start,) + (mesh[1].size,) * 3)


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


def _wide_second_diff(full: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Width-2h second difference on the margin-2 interior, independent of
    the solver stencil: (u[+2] - 2 u + u[-2]) / (4 h^2), formed in `out`
    (a new array if None)."""
    out = np.multiply(_shifted(full, axis, 0, 2), 2.0, out=out)
    np.subtract(_shifted(full, axis, 2, 2), out, out=out)
    out += _shifted(full, axis, -2, 2)
    out /= 4.0 * h * h
    return out


def _slab_rows(m: int, margin: int):
    """(start, stop) row ranges of at most max(1, SLAB_NODES // m^3) rows
    covering the margin-interior rows margin .. m - margin - 1 along axis 0."""
    rows = max(1, SLAB_NODES // m**3)
    for start in range(margin, m - margin, rows):
        yield start, min(start + rows, m - margin)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_potential(grid: Grid4D, spec: ConformalMetricSpec) -> dict:
    """Residual diagnostics of a candidate potential, in one slab pass.

    (a) geometric residual  |4 - phi^{-1} sum_i D2_i mu|  over the interior,
        with the 9-point stencil, reading the Dirichlet faces from the
        grid and phi per slab (the solve's residual reads the same data
        through its own row stencil);
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
    m, h, mesh = grid.m, grid.h, grid.meshgrid()
    maxima, sums = [-math.inf] * 3, [0.0] * 3

    def fold(k: int, part: np.ndarray) -> None:
        np.abs(part, out=part)
        # np.maximum, unlike max(), carries a NaN through as the whole-grid max would.
        maxima[k] = float(np.maximum(maxima[k], part.max(initial=-math.inf)))
        sums[k] += float(part.sum())

    def check(start: int, stop: int) -> None:
        phi = _sample_rows(spec.phi, mesh, start, stop)
        res = _second_diff_sum(grid.values[start - 1 : stop + 1], h)
        res /= phi[:, 1:-1, 1:-1, 1:-1]
        fold(0, np.subtract(float(TRACE_TARGET), res, out=res))
        # Each part is freed before the next is formed: that halves the peak.
        del res
        # The slab's rows at least 2 from a face (none in a slab of row 1 or m - 2 alone).
        lo, hi = max(start, 2), min(stop, m - 2)
        if lo >= hi:
            return
        full = grid.values[lo - 2 : hi + 2]
        wide = _wide_second_diff(full, 0, h)
        part = np.empty_like(wide)
        for a in (1, 2, 3):
            wide += _wide_second_diff(full, a, h, out=part)
        phi_in = phi[lo - start : hi - start, 2:-2, 2:-2, 2:-2]
        np.divide(wide, phi_in, out=part)
        part -= float(TRACE_TARGET)
        fold(1, part)
        wide *= 0.5
        wide -= np.multiply(float(SOLVER_FORM_SCALE), phi_in, out=part)
        fold(2, wide)

    # A slab's arrays are freed on return, before the next slab samples phi.
    for start, stop in _slab_rows(m, 1):
        check(start, stop)
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
    """Write the Dirichlet data, or zero when there are none, into every
    boundary slot of grid.values; the interior is left alone.

    Each pair of opposite faces is one evaluation on the sparse mesh with
    its axis cut to the two end nodes, so no m^4 sample is ever built.
    """
    mesh = grid.meshgrid()
    for a in range(4):
        ends = (slice(None),) * a + (slice(None, None, grid.m - 1),)
        if config.dirichlet is None:
            grid.values[ends] = 0.0
        else:
            cut = [x[ends] if i == a else x for i, x in enumerate(mesh)]
            grid.values[ends] = _eval_poly_on_mesh(config.dirichlet, cut)


def _factor_minimum(spec: ConformalMetricSpec, grid: Grid4D) -> float:
    """min phi over the interior nodes; ValueError unless phi > 0 at every
    node.  Sampled and reduced slab by slab."""
    m, mesh, phi_min = grid.m, grid.meshgrid(), math.inf
    for start, stop in _slab_rows(m, 0):
        phi = _sample_rows(spec.phi, mesh, start, stop)
        if not np.all(phi > 0):
            raise ValueError("conformal factor must be positive at every grid node")
        inner = phi[max(start, 1) - start : min(stop, m - 1) - start, 1:-1, 1:-1, 1:-1]
        phi_min = min(phi_min, float(inner.min(initial=math.inf)))
    return phi_min


def _residual_rows(spec: ConformalMetricSpec, grid: Grid4D):
    """Yield (i, r[i]) for each interior row i = 0 .. m - 3, in order, of
    r = -4 phi - A mu on the padded grid mu = grid.values, faces included.
    Every row is formed in the same (m - 2)^3 array, so r[i] holds only
    until the next row is asked for; it reads grid rows i .. i + 2.

    A mu is 8 mu minus each neighbour (axis 0 first, then axes 1 .. 3, +1
    side before -1) over h^2, phi is sampled per slab.  Float rounding is
    symmetric in sign, so every value is bit-identical to the whole-array
    sum_i D2_i mu + -4 phi.  While the interior is zero, r is b; once it
    holds v, r is b - A v.  This stencil is separate code from
    `_second_diff_sum`, which the check after the solve runs.
    """
    m, h, mesh = grid.m, grid.h, grid.meshgrid()
    inner = (slice(1, -1),) * 3
    r, a_mu = np.empty((m - 2,) * 3), np.empty((m - 2,) * 3)
    for start, stop in _slab_rows(m, 1):
        phi = _sample_rows(spec.phi, mesh, start, stop)
        for i in range(start, stop):
            row = grid.values[i]
            np.multiply(row[inner], 8.0, out=a_mu)
            a_mu -= grid.values[i + 1][inner]
            a_mu -= grid.values[i - 1][inner]
            for a in range(3):
                a_mu -= _shifted(row, a, 1, 1)
                a_mu -= _shifted(row, a, -1, 1)
            a_mu /= h * h
            np.multiply(-float(TRACE_TARGET), phi[i - start][inner], out=r)
            r -= a_mu
            yield i - 1, r
        # Freed before the next slab is sampled.
        del phi


def _residual_max(residual, out: np.ndarray | None = None) -> float:
    """max|r| over the rows (i, r[i]) that `residual()` yields; with `out`,
    each row is also stored in out[i].  A NaN anywhere gives NaN."""
    res = -math.inf
    for i, row in residual():
        if out is not None:
            out[i] = row
        # max|r| as max(max r, -min r): no |r| temporary, and np.maximum,
        # unlike max(), carries a NaN on into the stall check.
        res = np.maximum(res, max(row.max(), -row.min()))
    return float(res)


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


def _eigenvalue_row(axis_eig: np.ndarray, i: int) -> np.ndarray:
    """Eigenvalues (2N)^4 (a_i + a_j + a_k + a_l) of A, N = n + 1, for the
    transformed axis-0 row i, as a new (n, n, n) cube: the divisor of that
    row, so the whole eigenvalue cube is never materialized."""
    row = (axis_eig[i] + axis_eig[:, None, None]) + axis_eig[None, :, None] + axis_eig
    row *= (2.0 * (len(axis_eig) + 1)) ** 4
    return row


def _apply_inverse(r: np.ndarray, sines: np.ndarray, axis_eig: np.ndarray) -> np.ndarray:
    """r = A^{-1} r up to rounding, in place: transform, divide each row by
    its eigenvalues, transform back; returns `r`."""
    scratch = np.empty(r.shape[1:])
    _dst4(r, scratch, sines)
    for i in range(len(r)):
        r[i] /= _eigenvalue_row(axis_eig, i)
    return _dst4(r, scratch, sines)


def _dst_poisson_solve(residual, boundary, values: np.ndarray, h: float, tol: float) -> int:
    """Direct DST-I solve of  A v = b, refined until max|b - A v| <= tol.

    `values` is a C-contiguous (n + 2)^4 array, typically the solution
    grid, whose interior must be zero on entry; on return it holds v.
    `residual()` yields (i, r[i]) for the rows i = 0 .. n - 1 along axis 0,
    in order, of r = b - A v, v the interior of `values` as the row is
    formed.  b is the residual of the zero interior, so the one callable
    gives the first sweep's b and every later residual.  `boundary()`
    rewrites the boundary slots of `values`, which the sweep uses as
    workspace.

    The first sweep runs in the first n^4 slots of `values` itself: b is
    written there row by row, transformed, divided by the eigenvalues
    sum_axes (4/h^2) sin^2(pi k / 2N) and transformed back, so it holds
    A^{-1} b up to rounding.  When residual() forms b[i], only compact rows
    0 .. i - 1 are written, and they end before padded row i starts, so
    b[i] reads padded rows i .. i + 2 untouched: zero inside, data on the
    faces.  Each row then moves to its padded place, last row first:
    padded row i + 1 starts past the end of compact row i, so no row is
    overwritten before it moves.  After boundary(), the true residual is
    formed row by row and only its max kept.  Only if that misses `tol` is
    an n^4 residual array r allocated, for the refinement sweeps
    v += A^{-1} r.  Returns the sweep count, at least 1: the zero start is
    never accepted, however large `tol` is.
    """
    n = values.shape[0] - 2
    compact, v = values.reshape(-1)[: n**4].reshape((n,) * 4), _interior(values)
    axis_eig = (4.0 / (h * h)) * np.sin(np.pi * np.arange(1, n + 1) / (2 * (n + 1))) ** 2
    sines = _sine_matrix(n)
    res = _residual_max(residual, out=compact)
    _apply_inverse(compact, sines, axis_eig)
    for i in range(n - 1, -1, -1):
        v[i] = compact[i]
    boundary()
    r = None
    for sweep in range(1, MAX_SWEEPS + 1):
        if sweep > 1:
            if r is None:
                # The first refinement forms the last residual again, kept.
                r = np.empty((n,) * 4)
                _residual_max(residual, out=r)
            v += _apply_inverse(r, sines, axis_eig)
        new_res = _residual_max(residual, out=r)
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
    the division by phi.  The diagnostics hold the grid size m and every
    key of the check.
    """
    config = config or SolverConfig()
    solution = Grid4D(m, *spec.box)
    phi_min = _factor_minimum(spec, solution)
    _write_dirichlet_faces(config, solution)
    h = solution.h
    iterations = _dst_poisson_solve(
        lambda: _residual_rows(spec, solution), lambda: _write_dirichlet_faces(config, solution),
        solution.values, h, config.tol,
    )
    checks = verify_potential(solution, spec)
    res_max = checks["residual_max"]
    bound = 100 * config.tol / phi_min
    if not (math.isfinite(res_max) and res_max <= bound):
        raise SolverError(f"geometric residual {res_max:.3g} above {bound:.3g} at m = {m}")
    return SolveResult(solution, {"m": m, "iterations": iterations, "h": h, "unknowns": (m - 2) ** 4,
                                  "tol": config.tol, "phi_min": phi_min, **checks})
