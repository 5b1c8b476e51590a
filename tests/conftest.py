from fractions import Fraction
from typing import Sequence

import pytest

from hktcalc import HypercomplexModel, KForm, Polynomial, ProjectorTable
from hktcalc.geometry import HyperhermitianMetric, kahler_form
from hktcalc.structures import FIXED_WITNESSES, SpherePoint, random_sphere_points


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
