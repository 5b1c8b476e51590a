import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest

from hktcalc import HypercomplexModel, KForm, Polynomial, ProjectorTable
from hktcalc import exact_linalg as ela
from hktcalc.conventions import HESSIAN_AVERAGE_FACTOR
from hktcalc.forms import (
    FiberOperator,
    apply_operator,
    combine_operators,
    compose_operators,
    hessian,
    multi_indices,
    sort_with_sign,
)
from hktcalc.geometry import conformal_metric, kahler_form
from hktcalc.salamon import DegreeError, _condition_operators, salamon_D
from hktcalc.structures import _axis_operators, axis_derivations, axis_image


# Dense exact linear algebra: test oracles.  `hktcalc.exact_linalg` is the
# sparse route, checked against these; the package forms no inverse and no
# projector, so the tests take theirs from here.

def transpose(m):
    return [list(col) for col in zip(*m)]


def dense_mat_mul(a, b):
    """The dense product; zero factors are skipped, not multiplied."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in bt] for row in a]


def dense_rref(m):
    a = [list(row) for row in m]
    if not a:
        return a, []
    rows, cols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def dense_null_space(m):
    if not m:
        return []
    cols = len(m[0])
    r, pivots = dense_rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][fc]
        basis.append(v)
    return basis


def dense_invert(a):
    """Exact inverse of a Fraction matrix; ValueError when singular."""
    n = len(a)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    r, pivots = dense_rref([list(a[i]) + ident[i] for i in range(n)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def dense_projector(basis, n, weights=None):
    """I - N (N^T W N)^{-1} N^T W: the projector with kernel span(basis),
    orthogonal for the diagonal inner product `weights` (Euclidean when
    omitted)."""
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if not basis:
        return ident
    nmat = transpose(basis)
    wn = nmat if weights is None else [[weights[i] * x for x in nmat[i]] for i in range(n)]
    inv = dense_invert(dense_mat_mul(transpose(nmat), wn))
    corr = dense_mat_mul(dense_mat_mul(nmat, inv), transpose(wn))
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ident, corr)]


def fraction_inertia(m):
    """The former `exact_linalg.inertia`: symmetric Gaussian elimination in
    Fractions, each pivot a Schur complement entry, whose signs count the
    eigenvalues' (Sylvester's law); an all-zero diagonal is folded by
    adding row and column j to row and column i.  The oracle of the
    fraction-free elimination that replaced it."""
    n = len(m)
    rows = {i: {j: Fraction(x) for j, x in enumerate(row) if x} for i, row in enumerate(m)}
    positive = negative = 0
    while True:
        p = next((i for i, row in rows.items() if i in row), None)
        if p is None:
            p = next((i for i, row in rows.items() if row), None)
            if p is None:
                break
            i, j = p, next(iter(rows[p]))
            ri, rj = rows[i], rows[j]
            touched = (set(ri) | set(rj)) - {i}
            new = {k: ri.get(k, 0) + rj.get(k, 0) for k in touched}
            new[i] = ri.get(i, 0) + 2 * ri.get(j, 0) + rj.get(j, 0)
            new = {k: v for k, v in new.items() if v}
            for k in touched:
                if k in new:
                    rows[k][i] = new[k]
                else:
                    rows[k].pop(i, None)
            rows[i] = new
        pivot_row = rows.pop(p)
        d = pivot_row.pop(p)
        if d > 0:
            positive += 1
        else:
            negative += 1
        for k, s_kp in pivot_row.items():
            f = s_kp / d
            row = rows[k]
            del row[p]
            for j, s_pj in pivot_row.items():
                v = row.get(j, 0) - f * s_pj
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
    return positive, negative, n - positive - negative


def fraction_evaluate(poly: Polynomial, point) -> Fraction:
    """The former `Polynomial.evaluate`: the value summed term by term in
    Fractions.  The oracle of the evaluation in ints."""
    coords = [Fraction(c) for c in point]
    total = Fraction(0)
    for exp, coeff in poly.terms.items():
        total += coeff * math.prod(x ** e for x, e in zip(coords, exp))
    return total


# The dense and null-space routes of the form bundles: test oracles.  The
# package applies every fiber operator sparse and forms no matrix; these
# export an operator as its exact matrix and take B^k as the null space of
# its condition operators, a basis independent of eta.

def operator_matrix(op: FiberOperator, k: int, dim: int) -> list[list[Fraction]]:
    """Dense exact matrix of a fiber operator (rows/cols in lex order),
    with Fraction entries."""
    pos = {idx: i for i, idx in enumerate(multi_indices(dim, k))}
    mat = [[Fraction(0)] * len(pos) for _ in pos]
    for in_idx, column in op.items():
        j = pos[in_idx]
        for out_idx, coeff in column:
            mat[pos[out_idx]][j] = Fraction(coeff, op.den)
    return mat


class FiberSubspace:
    """An exact-basis subspace of the k-form fiber."""

    def __init__(self, ambient_dim: int, basis: list[list[Fraction]]):
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def rank(self) -> int:
        return len(self.basis)


def condition_matrix(model: HypercomplexModel, k: int, ops: Sequence[FiberOperator]) -> list[list[Fraction]]:
    """The dense rows of the stacked condition operators `ops` on k-forms."""
    return [row for op in ops for row in operator_matrix(op, k, model.dim)]


def b_conditions(model: HypercomplexModel, k: int) -> list[FiberOperator]:
    """The exact conditions cutting out B^k: A* - Id at the three axes for
    k = 2, which no command reads, and the package's six coefficient
    conditions for k = 3; `DegreeError` for any other k."""
    if k == 2:
        return [combine_operators([(1, _axis_operators(model, name, 2)[1])], -1) for name in "IJK"]
    if k != 3:
        raise DegreeError(f"B conditions are built for degrees 2 and 3, got {k}")
    return _condition_operators(model)


def bundle_B(model: HypercomplexModel, k: int) -> FiberSubspace:
    """Test oracle: the exact basis of B^k (k in {2, 3}) as the null space of
    its conditions (`b_conditions`); `DegreeError` for any other k."""
    stacked = condition_matrix(model, k, b_conditions(model, k))
    return FiberSubspace(len(multi_indices(model.dim, k)), ela.null_space(stacked))


def eta_matrix(table: ProjectorTable, k: int) -> list[list[Fraction]]:
    """Test oracle: the dense eta_k of a projector table."""
    return operator_matrix(table.columns[k], k, table.model.dim)


def table_json(table: ProjectorTable) -> dict:
    """The exact projector matrices of a table, for golden-file digests."""
    eta = {str(k): [[[str(x.numerator), str(x.denominator)] for x in row] for row in eta_matrix(table, k)]
           for k in table.columns}
    return {"n": table.model.n, "eta": eta}


def salamon_DI(table: ProjectorTable, form: KForm) -> KForm:
    """Test oracle: the twisted projected differential (-1)^k I D I on
    degrees <= 2, the oracle of `twisted_d` and of the potential forms."""
    op_i = table.model.operator("I")
    out = op_i.act(salamon_D(table, op_i.act(form)))
    return out if form.degree % 2 == 0 else -out


def coefficient(form: KForm, indices: Sequence[int]) -> Polynomial:
    """The component of `form` against an arbitrary index tuple (sign handled)."""
    idx, sign = sort_with_sign(indices)
    if idx is None or idx not in form.terms:
        return Polynomial.zero(form.dim)
    poly = form.terms[idx]
    return poly if sign == 1 else -poly


def grid_from_polynomial(m: int, lo: float, hi: float, poly: Polynomial):
    """The samples of `poly` on the m^4 grid over [lo, hi]^4."""
    from hktcalc.elliptic import Grid4D, _eval_poly_on_mesh

    grid = Grid4D(m, lo, hi)
    grid.values[...] = _eval_poly_on_mesh(poly, grid.meshgrid())
    return grid


# The dense structure matrices: a test oracle.  The package holds I, J and K
# only as index maps (`structures.axis_image`); these are the documented
# left-multiplication blocks written out by hand, tiled by `structure_matrix`.
DENSE_BLOCKS = {
    "I": ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    "J": ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0)),
    "K": ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0)),
}


def structure_matrix(model: HypercomplexModel, name: str) -> tuple:
    """Test oracle: the block-diagonal (4n) x (4n) int matrix of the axis `name`."""
    block = DENSE_BLOCKS[name]
    return tuple(tuple(block[r % 4][c % 4] if r // 4 == c // 4 else 0 for c in range(model.dim))
                 for r in range(model.dim))


def bench_check_cases(seed):
    """The documents of the benchmark's check-docs workload (`bench/gen.py`)."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "bench"))
    try:
        from gen import check_cases
    finally:
        sys.path.pop(0)
    return check_cases(seed)


@pytest.fixture(scope="session")
def model1():
    return HypercomplexModel(1)


@pytest.fixture(scope="session")
def model2():
    return HypercomplexModel(2)


@pytest.fixture(scope="session")
def table1(model1):
    return ProjectorTable(model1)


@pytest.fixture(scope="session")
def table2(model2):
    return ProjectorTable(model2)


@pytest.fixture(scope="session")
def flat1(model1):
    """The rows of the flat metric on R^4."""
    return conformal_metric(model1, Polynomial.constant(4, 1))


def norm_squared(dim: int) -> Polynomial:
    """sum_i x_i^2"""
    total = Polynomial.zero(dim)
    for i in range(dim):
        xi = Polynomial.variable(dim, i)
        total = total + xi * xi
    return total


def quarter_norm_potential(dim: int) -> Polynomial:
    """|x|^2 / 4, the flat potential in the form convention."""
    return norm_squared(dim) * Fraction(1, 4)


def pullback_hessian_kahler_form(model: HypercomplexModel, mu: Polynomial) -> KForm:
    """Test oracle: the former `geometry.hessian_kahler_form`, the sum
    alt + I*alt - J*alt - K*alt of three axis pullbacks, with
    alt = (HESSIAN_AVERAGE_FACTOR / 2)(T[a][b] - T[b][a]) for T = H(I., .)."""
    h = hessian(mu)
    t = [[p.scale(-s) for p in h[j]] for j, s in axis_image(model, "I")]
    factor = HESSIAN_AVERAGE_FACTOR / 2
    alt = KForm(2, model.dim, {(a, b): (t[a][b] - t[b][a]).scale(factor)
                               for a in range(model.dim) for b in range(a + 1, model.dim)})
    pulled = [model.operator(name).pullback(alt) for name in "IJK"]
    return alt + pulled[0] - pulled[1] - pulled[2]


def three_pullback_is_11(model: HypercomplexModel, form: KForm) -> bool:
    """Test oracle: the former `salamon.is_salamon_11`, I*w = w and
    J*w = -w by two pullbacks, with K*w = -w asserted when both hold."""
    ops = {name: model.operator(name) for name in "IJK"}
    ok = ops["I"].pullback(form) == form and ops["J"].pullback(form) == -form
    assert not ok or ops["K"].pullback(form) == -form, "I and J residuals vanish but the K residual does not"
    return ok


# Flat Kahler forms frozen from the documented left-multiplication blocks:
# F(e_a, e_b) = delta(M e_a, e_b) = M[b][a].
def flat_form(name: str) -> KForm:
    terms = {
        "I": {(0, 1): 1, (2, 3): 1},
        "J": {(0, 2): 1, (1, 3): -1},
        "K": {(0, 3): 1, (1, 2): 1},
    }[name]
    return KForm(2, 4, {idx: Polynomial.constant(4, c) for idx, c in terms.items()})


# Sphere points: oracle inputs.  The package names a structure by its axis
# only; the oracles below take any exact rational point of S^2.

@dataclass(frozen=True)
class SpherePoint:
    """An exact rational point (a, b, c) with a^2 + b^2 + c^2 = 1."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.a * self.a + self.b * self.b + self.c * self.c != 1:
            raise ValueError(f"({self.a}, {self.b}, {self.c}) is not on the unit sphere")

    @classmethod
    def from_parameters(cls, u, v) -> "SpherePoint":
        """Stereographic image of a rational plane point; always exact."""
        u, v = Fraction(u), Fraction(v)
        s = 1 + u * u + v * v
        return cls(2 * u / s, 2 * v / s, (1 - u * u - v * v) / s)

    @staticmethod
    def axis(name: str) -> "SpherePoint":
        return SpherePoint(*(int(name == axis) for axis in "IJK"))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)


def random_sphere_points(count: int, seed: int) -> list[SpherePoint]:
    """Deterministic exact rational sphere points (no axis points)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        pt = SpherePoint.from_parameters(u, v)
        # u, v in {0, +-1} can land on an axis; those have two zero coordinates.
        if pt not in points and pt.as_tuple().count(0) < 2:
            points.append(pt)
    return points


# The wedge-expansion builder: a test oracle.  The package builds every
# sphere fiber operator from the axis derivations rho_I, rho_J, rho_K
# (`hktcalc.structures`); these helpers build the same operators from the
# matrix den * (aI + bJ + cK) by expanding wedges of its rows, as the
# package once did, and the tests compare the two.

def constant_rows(matrix: Sequence[Sequence]) -> list[list[Polynomial]]:
    """The polynomial rows with constant entries `matrix`."""
    dim = len(matrix)
    return [[Polynomial.constant(dim, v) for v in row] for row in matrix]


# The dense metric kernels: test oracles.  The package applies I, J and K to
# metrics and Kahler forms through their index maps
# (`structures.axis_image`); these are the dense matrix products it used
# before, and tests/test_fiber_kernel.py compares the two.

def form_component_matrix(form: KForm) -> list[list[Polynomial]]:
    """The full antisymmetric component matrix F[i][j] = F(e_i, e_j)."""
    d = form.dim
    zero = Polynomial.zero(d)
    mat = [[zero] * d for _ in range(d)]
    for (a, b), poly in form.terms.items():
        mat[a][b] = poly
        mat[b][a] = -poly
    return mat


def oracle_transpose_times(m, rows: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    """(M^T P)[a][b] = sum_k M[k][a] P[k][b] for a constant matrix M and a
    polynomial matrix P."""
    d = len(rows)
    out = [[Polynomial.zero(d) for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(d):
            acc = Polynomial.zero(d)
            for k in range(d):
                if m[k][a]:
                    acc = acc + rows[k][b].scale(m[k][a])
            out[a][b] = acc
    return out


def oracle_conjugate(m, rows: Sequence[Sequence[Polynomial]]) -> list[list[Polynomial]]:
    """M^T P M = (M^T (M^T P)^T)^T, from `oracle_transpose_times`: the
    2-tensor P(M., M.) for a constant matrix M."""
    return transpose(oracle_transpose_times(m, transpose(oracle_transpose_times(m, rows))))


def _wedge_expansion(factors: Sequence[Sequence[tuple[int, Fraction]]]) -> dict:
    """Expand a wedge of 1-form expansions into {multi-index: coeff}.

    Integer factors give integer coefficients."""
    partial: dict = {(): 1}
    for factor in factors:
        nxt: dict = {}
        for idx, coeff in partial.items():
            for j, a in factor:
                if j in idx:
                    continue
                pos = sum(1 for e in idx if e < j)
                sign = -1 if (len(idx) - pos) % 2 else 1
                new = idx[:pos] + (j,) + idx[pos:]
                val = nxt.get(new, 0) + sign * coeff * a
                if val:
                    nxt[new] = val
                elif new in nxt:
                    del nxt[new]
        partial = nxt
    return partial


def _int_or_fraction(value) -> int | Fraction:
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _rows(matrix: Sequence[Sequence], dim: int) -> list[list[tuple[int, int | Fraction]]]:
    """Nonzero entries of each row; integer values become ints, anything
    else a Fraction."""
    return [[(j, _int_or_fraction(v)) for j, v in enumerate(matrix[i]) if v] for i in range(dim)]


def routed_operator(matrix: Sequence[Sequence], k: int, dim: int, slots: int, den: int = 1) -> FiberOperator:
    """Test oracle: route `slots` of the k slots through matrix / den,
    summed over all choices.

    An integer `matrix` is expanded in ints only; each summed coefficient
    is then divided once by den**slots.  The result is a `FiberOperator`
    over den 1 whose stored coefficients are Fractions whatever the
    entries of `matrix` are.
    """
    if not 0 <= slots <= k:
        raise ValueError("slots must lie in [0, k]")
    rows = _rows(matrix, dim)
    plain = [[(i, 1)] for i in range(dim)]
    scale = den ** slots
    op: dict = {}
    for idx in multi_indices(dim, k):
        total: dict = {}
        for chosen in itertools.combinations(range(k), slots):
            factors = [rows[i] if pos in chosen else plain[i] for pos, i in enumerate(idx)]
            for out_idx, coeff in _wedge_expansion(factors).items():
                val = total.get(out_idx, 0) + coeff
                if val:
                    total[out_idx] = val
                elif out_idx in total:
                    del total[out_idx]
        op[idx] = sorted((out_idx, Fraction(coeff, scale)) for out_idx, coeff in total.items())
    return FiberOperator(op)


def pullback(form: KForm, matrix: Sequence[Sequence]) -> KForm:
    """Test oracle: the slots-only pullback (A*w)(X1..Xk) = w(A X1, .., A Xk)
    by any constant matrix; the coefficient functions are not composed
    with the map."""
    if len(matrix) != form.dim:
        raise ValueError("matrix dimension mismatch")
    return apply_operator(routed_operator(matrix, form.degree, form.dim, form.degree), form)


def integer_sphere_matrix(model: HypercomplexModel, point: SpherePoint) -> tuple[int, tuple]:
    """Test oracle: (den, den * (aI + bJ + cK)) for the structure at `point`.

    den is the lcm of the point's denominators, so the matrix has int
    entries; it is checked to square to -den^2 Id in ints.
    """
    den = math.lcm(point.a.denominator, point.b.denominator, point.c.denominator)
    a, b, c = (v.numerator * (den // v.denominator) for v in point.as_tuple())
    mat = tuple(
        tuple(a * i + b * j + c * k for i, j, k in zip(row_i, row_j, row_k))
        for row_i, row_j, row_k in zip(*(structure_matrix(model, name) for name in "IJK"))
    )
    rows = [[(j, v) for j, v in enumerate(row) if v] for row in mat]
    for r, row in enumerate(rows):
        square: dict = {}
        for k, x in row:
            for j, y in rows[k]:
                square[j] = square.get(j, 0) + x * y
        if {j: v for j, v in square.items() if v} != {r: -den * den}:
            raise AssertionError("sphere matrix fails to square to -Id")
    return den, mat


def sphere_matrix(model: HypercomplexModel, point: SpherePoint) -> tuple:
    """Test oracle: the exact Fraction matrix aI + bJ + cK at `point`."""
    den, mat = integer_sphere_matrix(model, point)
    return tuple(tuple(Fraction(v, den) for v in row) for row in mat)


def routed_fiber_op(model: HypercomplexModel, point: SpherePoint, k: int, slots: int) -> FiberOperator:
    """Test oracle: the `slots`-slot insertion sum at `point` on k-forms,
    expanded from den * (aI + bJ + cK) (slots = k is the pullback)."""
    den, mat = integer_sphere_matrix(model, point)
    return routed_operator(mat, k, model.dim, slots, den)


class OracleSphereOperator:
    """Test oracle: the structure at any sphere point, with its matrix
    aI + bJ + cK, whose pullback expands that matrix with
    `routed_operator`.  The package acts at the axes only."""

    __slots__ = ("model", "point", "matrix")

    def __init__(self, model: HypercomplexModel, point: SpherePoint):
        self.model = model
        self.point = point
        self.matrix = sphere_matrix(model, point)

    def pullback(self, form: KForm) -> KForm:
        return pullback(form, self.matrix)

    def act(self, form: KForm) -> KForm:
        moved = self.pullback(form)
        return moved if form.degree % 2 == 0 else -moved

    def twisted_d(self, form: KForm) -> KForm:
        out = self.act(self.act(form).d())
        return out if form.degree % 2 == 0 else -out


def sphere_operator(model: HypercomplexModel, point: SpherePoint) -> OracleSphereOperator:
    return OracleSphereOperator(model, point)


@dataclass(frozen=True)
class ComplexForm:
    """Test oracle: a complex form re + i im, as two rational forms.  The
    package reads every type part as a real form; the oracles below are
    complex."""

    re: KForm
    im: KForm

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()


@functools.lru_cache(maxsize=None)
def oracle_type_projector(model: HypercomplexModel, point: SpherePoint, k: int) -> tuple[FiberOperator, FiberOperator]:
    """Test oracle: (Re, Im) of the (0,k) type projector at `point`, k = 2 or 3,
    from the one- and two-slot insertion sums S1, S2 of aI + bJ + cK:
    pi02 = ((1 - S2) + i S1)/4 and pi03 = (1 - S2)/8 - i S1 (S2 - 1)/24."""
    s1, s2 = (routed_fiber_op(model, point, k, slots) for slots in (1, 2))
    if k == 2:
        return combine_operators([(-1, s2)], 1, 4), combine_operators([(1, s1)], den=4)
    s2_minus_1 = combine_operators([(1, s2)], -1)
    return combine_operators([(-1, s2)], 1, 8), combine_operators([(-1, compose_operators(s1, s2_minus_1))], den=24)


def oracle_twistor_residual(model: HypercomplexModel, point: SpherePoint, form: KForm) -> ComplexForm:
    """Test oracle: pi03_P(d pi02_P(form)) at any sphere point, from
    `oracle_type_projector`; with R + iS the projector, x + iy maps to
    (Rx - Sy) + i(Sx + Ry)."""
    (re2, im2), (re3, im3) = (oracle_type_projector(model, point, k) for k in (2, 3))
    x, y = apply_operator(re2, form).d(), apply_operator(im2, form).d()
    return ComplexForm(apply_operator(re3, x) - apply_operator(im3, y),
                       apply_operator(im3, x) + apply_operator(re3, y))


# The three axes and three mixed Pythagorean points: a test oracle.  A
# quadratic form in (a, b, c) is fixed by its values at these six points
# (their evaluation matrix on the monomials a^2, b^2, c^2, ab, bc, ca is
# invertible), so the degree-3 B conditions once were the two-slot
# insertion sums at them; the package now uses the six coefficient
# conditions, and the tests check that both give one row space.
FIXED_WITNESSES = (
    SpherePoint.axis("I"),
    SpherePoint.axis("J"),
    SpherePoint.axis("K"),
    SpherePoint(Fraction(3, 5), Fraction(4, 5), Fraction(0)),
    SpherePoint(Fraction(0), Fraction(3, 5), Fraction(4, 5)),
    SpherePoint(Fraction(4, 5), Fraction(0), Fraction(3, 5)),
)


def condition_rank(model: HypercomplexModel, k: int, extra_points: Sequence[SpherePoint] = ()) -> int:
    """Rank of the stacked B^k conditions (for stability checks).

    Each extra point appends S(P) - Id for the oracle two-slot insertion
    sum S(P), which on 2-forms is the pullback.
    """
    ops = b_conditions(model, k)
    ops += [combine_operators([(1, routed_fiber_op(model, pt, k, 2))], -1) for pt in extra_points]
    return ela.rank(condition_matrix(model, k, ops))


# The whole sphere as polynomials: a test oracle.  rho_P = a rho_I + b rho_J
# + c rho_K (`structures.axis_derivations`), so a fiber operator at P applied
# to a constant form is a polynomial in P = (a, b, c) with constant form
# coefficients.  A sphere polynomial is {(i, j, k): {multi-index: value}},
# the exponent of a^i b^j c^k first.  Writing |P|^2 = a^2 + b^2 + c^2 for the
# 1 of the type projectors makes each part homogeneous, and a homogeneous
# polynomial vanishes on S^2 only if it vanishes identically: its
# coefficients speak for every sphere point at once.

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _shift(exponent, unit):
    return tuple(e + u for e, u in zip(exponent, unit))


def sphere_combination(terms) -> dict:
    """sum of c * poly over the (c, sphere polynomial) pairs in `terms`."""
    out: dict = {}
    for c, poly in terms:
        for exponent, form in poly.items():
            acc = out.setdefault(exponent, {})
            for idx, x in form.items():
                acc[idx] = acc.get(idx, 0) + c * x
    return {e: f for e, f in ((e, {i: x for i, x in f.items() if x}) for e, f in out.items()) if f}


def sphere_rho(model: HypercomplexModel, k: int, poly: dict) -> dict:
    """rho_P applied to a sphere polynomial of k-forms."""
    out: dict = {}
    for unit, rho in zip(_UNITS, axis_derivations(model, k)):
        for exponent, form in poly.items():
            acc = out.setdefault(_shift(exponent, unit), {})
            for idx, x in form.items():
                for out_idx, y in rho[idx]:
                    acc[out_idx] = acc.get(out_idx, 0) + x * y
    return sphere_combination([(1, out)])


def sphere_norm(poly: dict) -> dict:
    """|P|^2 times a sphere polynomial."""
    return sphere_combination([(1, {_shift(e, (2 * i, 2 * j, 2 * k)): f for e, f in poly.items()}) for i, j, k in _UNITS])


def sphere_wedge(c: int, poly: dict) -> dict:
    """e_c ^ a sphere polynomial."""
    out = {}
    for exponent, form in poly.items():
        wedged = {}
        for idx, x in form.items():
            if c not in idx:
                pos = sum(1 for i in idx if i < c)
                wedged[idx[:pos] + (c,) + idx[pos:]] = -x if pos % 2 else x
        if wedged:
            out[exponent] = wedged
    return out


def sphere_evaluate(poly: dict, point: SpherePoint) -> dict:
    """{multi-index: value} of a sphere polynomial at `point`."""
    out: dict = {}
    for exponent, form in poly.items():
        weight = math.prod(v ** e for v, e in zip(point.as_tuple(), exponent))
        for idx, x in form.items():
            out[idx] = out.get(idx, 0) + weight * x
    return {idx: x for idx, x in out.items() if x}


# The scales (of Re, of Im) that make the homogenized projectors integral.
TYPE_SCALE = {2: (8, 4), 3: (16, 48)}


def homogeneous_type_projector(model: HypercomplexModel, k: int, poly: dict) -> tuple[dict, dict]:
    """(8 Re, 4 Im) of pi02_P = -rho_P^2/8 + i rho_P/4 (k = 2), or (16 Re,
    48 Im) of pi03_P = -(rho_P^2 + |P|^2)/16 - i (rho_P^3 + |P|^2 rho_P)/48
    (k = 3), applied to a sphere polynomial of k-forms."""
    rho = sphere_rho(model, k, poly)
    square = sphere_rho(model, k, rho)
    if k == 2:
        return sphere_combination([(-1, square)]), rho
    return (sphere_combination([(-1, square), (-1, sphere_norm(poly))]),
            sphere_combination([(-1, sphere_rho(model, k, square)), (-1, sphere_norm(rho))]))


def homogeneous_projector_at(model: HypercomplexModel, point: SpherePoint, k: int) -> tuple[FiberOperator, FiberOperator]:
    """(Re, Im) of the (0,k) type projector at `point` as fiber operators:
    `homogeneous_type_projector` of each basis k-form, evaluated there."""
    pair = (FiberOperator(), FiberOperator())
    for idx in multi_indices(model.dim, k):
        for op, scale, poly in zip(pair, TYPE_SCALE[k], homogeneous_type_projector(model, k, {(0, 0, 0): {idx: 1}})):
            op[idx] = sorted((i, Fraction(x, scale)) for i, x in sphere_evaluate(poly, point).items())
    return pair


# pi03_P(e_c ^ pi02_P(v)) times JET_SCALE has integral coefficients.
JET_SCALE = 384


def jet_residual(model: HypercomplexModel, c: int, v_parts: tuple[dict, dict]) -> dict:
    """{("re" or "im", exponent): {multi-index: value}}: JET_SCALE times the
    twistor residual pi03_P(e_c ^ pi02_P(v)) of the jet (c, v), homogenized.

    `v_parts` is (8X, 4Y) = `homogeneous_type_projector(model, 2, v)`, the
    real and imaginary parts of pi02_P(v) over their scales.  With R + iS
    = pi03_P, the residual (RX - SY) + i(SX + RY) times 384 is

        3 (16R)(8X) - 2 (48S)(4Y), of degree 4, and
        (48S)(8X) + 6 |P|^2 (16R)(4Y), of degree 5.
    """
    (r8, s8), (r4, s4) = (homogeneous_type_projector(model, 3, sphere_wedge(c, part)) for part in v_parts)
    re = sphere_combination([(3, r8), (-2, s4)])
    im = sphere_combination([(1, s8), (6, sphere_norm(r4))])
    return {(part, exponent): form for part, poly in (("re", re), ("im", im)) for exponent, form in poly.items()}


def sphere_twistor_residual(model: HypercomplexModel, form: KForm) -> dict:
    """Test oracle: the twistor residual of a polynomial 2-form at every point
    of S^2 at once, as {("re" or "im", exponent): KForm}, JET_SCALE times the
    homogenized pi03_P(d pi02_P(form)); empty exactly when the residual
    vanishes on the whole sphere.

    By linearity it is the sum over the jets: d_c F_idx times the
    `jet_residual` of (c, e_idx)."""
    out: dict = {}
    for idx, p in form.terms.items():
        v_parts = homogeneous_type_projector(model, 2, {(0, 0, 0): {idx: 1}})
        for c in range(model.dim):
            dp = p.partial(c)
            if dp.is_zero():
                continue
            for key, column in jet_residual(model, c, v_parts).items():
                acc = out.setdefault(key, {})
                for out_idx, x in column.items():
                    acc[out_idx] = acc[out_idx] + dp.scale(x) if out_idx in acc else dp.scale(x)
    forms = {key: KForm(3, model.dim, {i: p for i, p in terms.items() if not p.is_zero()})
             for key, terms in out.items()}
    return {key: f for key, f in forms.items() if not f.is_zero()}


def evaluate_residual(model: HypercomplexModel, residual: dict, point: SpherePoint) -> ComplexForm:
    """The twistor residual at `point` of a `sphere_twistor_residual`."""
    parts = {"re": KForm.zero(3, model.dim), "im": KForm.zero(3, model.dim)}
    for (part, exponent), f in residual.items():
        weight = math.prod(v ** e for v, e in zip(point.as_tuple(), exponent))
        parts[part] = parts[part] + f * Fraction(weight, JET_SCALE)
    return ComplexForm(parts["re"], parts["im"])


# The complex Laplacian: a test oracle.  No verdict of the package uses it;
# the acceptance criterion 7 and the geometry tests check it on the kernel
# of D D_I.

def _pairing_2forms(alpha: KForm, beta: KForm, ginv: Sequence[Sequence[Fraction]]) -> Polynomial:
    """<dx^a^dx^b, dx^c^dx^d> = g^{ac} g^{bd} - g^{ad} g^{bc}, extended
    bilinearly over the polynomial components."""
    out = Polynomial.zero(alpha.dim)
    for (a, b), pa in alpha.terms.items():
        for (c, d), pb in beta.terms.items():
            w = ginv[a][c] * ginv[b][d] - ginv[a][d] * ginv[b][c]
            if w:
                out = out + (pa * pb).scale(w)
    return out


def complex_laplacian(f: Polynomial, g: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """The complex Laplacian g(d d_I f, F_I) for a constant-entry metric,
    given as its rows.

    For metrics with genuinely polynomial entries the inverse is not
    polynomial; use `complex_laplacian_at` for exact pointwise values.
    """
    model = HypercomplexModel(len(g) // 4)
    const = [[p.constant_term() for p in row] for row in g]
    for i, row in enumerate(g):
        for j, p in enumerate(row):
            if p != Polynomial.constant(model.dim, const[i][j]):
                raise ValueError("metric entries are not constant; use complex_laplacian_at")
    ginv = dense_invert([[Fraction(c) for c in row] for row in const])
    dd_i = model.operator("I").twisted_d(KForm.from_polynomial(f)).d()
    return _pairing_2forms(dd_i, kahler_form(model, g), ginv)


def complex_laplacian_at(f: Polynomial, g: Sequence[Sequence[Polynomial]], point: Sequence) -> Fraction:
    """Exact pointwise complex Laplacian for a polynomial metric, given as its rows."""
    model = HypercomplexModel(len(g) // 4)
    try:
        ginv = dense_invert([[p.evaluate(point) for p in row] for row in g])
    except ValueError:
        raise ValueError(f"metric is degenerate at sample point {point}")
    dd_i = model.operator("I").twisted_d(KForm.from_polynomial(f)).d()
    return _pairing_2forms(dd_i, kahler_form(model, g), ginv).evaluate(point)
