import itertools
import math
from fractions import Fraction
from typing import Sequence

import pytest

from hktcalc import HypercomplexModel, KForm, Polynomial, ProjectorTable
from hktcalc import exact_linalg as ela
from hktcalc.forms import BilinearForm, apply_operator, combine_operators, multi_indices
from hktcalc.geometry import HyperhermitianMetric, kahler_form
from hktcalc.salamon import _condition_matrix, _condition_operators
from hktcalc.structures import SpherePoint, StructureOperator, random_sphere_points


# Dense exact linear algebra: test oracles.  `hktcalc.exact_linalg` is the
# sparse route, checked against these; the package forms no inverse and no
# projector, so the tests take theirs from here.

def transpose(m):
    return [list(col) for col in zip(*m)]


def dense_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
    return HyperhermitianMetric.flat(model1)


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


# Flat Kahler forms frozen from the documented left-multiplication blocks:
# F(e_a, e_b) = delta(M e_a, e_b) = M[b][a].
def flat_form(name: str) -> KForm:
    terms = {
        "I": {(0, 1): 1, (2, 3): 1},
        "J": {(0, 2): 1, (1, 3): -1},
        "K": {(0, 3): 1, (1, 2): 1},
    }[name]
    return KForm(2, 4, {idx: Polynomial.constant(4, c) for idx, c in terms.items()})


# The wedge-expansion builder: a test oracle.  The package builds every
# sphere fiber operator from the axis derivations rho_I, rho_J, rho_K
# (`hktcalc.structures`); these helpers build the same operators from the
# matrix den * (aI + bJ + cK) by expanding wedges of its rows, as the
# package once did, and the tests compare the two.

def bilinear_from_constant(matrix: Sequence[Sequence]) -> BilinearForm:
    """The bilinear form with constant entries `matrix`."""
    dim = len(matrix)
    return BilinearForm([[Polynomial.constant(dim, v) for v in row] for row in matrix])


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


def routed_operator(matrix: Sequence[Sequence], k: int, dim: int, slots: int, den: int = 1) -> dict:
    """Test oracle: route `slots` of the k slots through matrix / den,
    summed over all choices.

    An integer `matrix` is expanded in ints only; each summed coefficient
    is then divided once by den**slots.  The stored coefficients are
    Fractions whatever the entries of `matrix` are.
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
    return op


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
        for row_i, row_j, row_k in zip(model.I, model.J, model.K)
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


def routed_fiber_op(model: HypercomplexModel, point: SpherePoint, k: int, slots: int) -> dict:
    """Test oracle: the `slots`-slot insertion sum at `point` on k-forms,
    expanded from den * (aI + bJ + cK) (slots = k is the pullback)."""
    den, mat = integer_sphere_matrix(model, point)
    return routed_operator(mat, k, model.dim, slots, den)


class OracleSphereOperator(StructureOperator):
    """Test oracle: the structure at any sphere point, with its matrix
    aI + bJ + cK, whose pullback expands that matrix with
    `routed_operator`.  The package builds pullbacks at the axes only."""

    __slots__ = ("matrix",)

    def __init__(self, model: HypercomplexModel, point: SpherePoint):
        super().__init__(model, point)
        self.matrix = sphere_matrix(model, point)

    def pullback(self, form: KForm) -> KForm:
        return pullback(form, self.matrix)


def sphere_operator(model: HypercomplexModel, point: SpherePoint) -> OracleSphereOperator:
    return OracleSphereOperator(model, point)


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
    ops = _condition_operators(model, k)
    ops += [combine_operators([(1, routed_fiber_op(model, pt, k, 2))], -1) for pt in extra_points]
    return ela.rank(_condition_matrix(model, k, ops))


def default_sphere_witnesses(count_random: int = 4, seed: int = 20) -> list[SpherePoint]:
    """Test oracle: the ten sphere points the twistor check once decided on.

    The six `FIXED_WITNESSES` plus four random points (denominators up to
    385).  `is_hkt_twistor` now decides at the three axes; the tests keep
    these points to prove, and to spot-check, that the verdict is unchanged.
    """
    return list(FIXED_WITNESSES) + random_sphere_points(count_random, seed)


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


def complex_laplacian(f: Polynomial, metric: HyperhermitianMetric) -> Polynomial:
    """The complex Laplacian g(d d_I f, F_I) for a constant-entry metric.

    For metrics with genuinely polynomial entries the inverse is not
    polynomial; use `complex_laplacian_at` for exact pointwise values.
    """
    model = metric.model
    entries = metric.tensor.entries
    const = [[p.constant_term() for p in row] for row in entries]
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            if p != Polynomial.constant(model.dim, const[i][j]):
                raise ValueError("metric entries are not constant; use complex_laplacian_at")
    ginv = dense_invert([[Fraction(c) for c in row] for row in const])
    dd_i = model.operator("I").twisted_d(KForm.from_polynomial(f)).d()
    f_i = kahler_form(metric, "I")
    return _pairing_2forms(dd_i, f_i, ginv)


def complex_laplacian_at(f: Polynomial, metric: HyperhermitianMetric, point: Sequence) -> Fraction:
    """Exact pointwise complex Laplacian for a polynomial metric."""
    model = metric.model
    try:
        ginv = dense_invert([[Fraction(x) for x in row] for row in metric.tensor.evaluate(point)])
    except ValueError:
        raise ValueError(f"metric is degenerate at sample point {point}")
    dd_i = model.operator("I").twisted_d(KForm.from_polynomial(f)).d()
    return _pairing_2forms(dd_i, kahler_form(metric, "I"), ginv).evaluate(point)
