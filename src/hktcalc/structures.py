"""The flat hypercomplex model: constant I, J, K on R^(4n).

The three structures act by left quaternion multiplication on each block
of four coordinates (x0, x1, x2, x3) ~ x0 + x1 i + x2 j + x3 k:

    I = L_i : e0 -> e1,  e1 -> -e0,  e2 -> e3,  e3 -> -e2
    J = L_j : e0 -> e2,  e1 -> -e3,  e2 -> -e0, e3 -> e1
    K = L_k : e0 -> e3,  e1 -> e2,   e2 -> -e1, e3 -> -e0

so that IJ = K and JI = -K hold as exact matrix identities, checked at
construction (`ConventionError` otherwise).  These integer block matrices
are the single source of truth for every expected value in the tests.

Each is a signed permutation, and its index map `axis_image` (row i of A
has one entry s, at column j) builds every action of I, J and K: on forms,
on 2-tensors, and between metrics and Kahler forms in `geometry`.  No
other module reads a dense structure matrix.

Two actions on forms coexist and both are exposed:

* `StructureOperator.pullback`  -- slots-only: (Aw)(X1..Xk) = w(AX1..AXk);
* `StructureOperator.act`       -- the signed action (-1)^k of the pullback,
  used by the twisted differentials and the HKT criteria.

Every call site states which one it uses.  Sphere points are exact
rational triples, generated from an integer (stereographic)
parametrization so the whole sphere family stays inside exact arithmetic.

The fiber operators come from the three axis derivations.  sp(1) acts on
forms by the derivations rho_A (A = I, J, K), the one-slot insertions
(Salamon's E-H splitting).  I, J and K are signed permutation matrices, so
rho_A is a sum of signed single-slot index replacements and the axis
pullback A* a signed permutation of the basis k-forms; both are built
directly, with int entries.  At a sphere point P = (a, b, c) the
structure's derivation is rho_P = a rho_I + b rho_J + c rho_K, and every
fiber operator at P is a polynomial in it, composed in ints over den, the
lcm of the point's denominators, and divided once.  No matrix
aI + bJ + cK is formed.

Complex type components are `ComplexForm` values: (re, im) pairs of
rational forms.  The (0,2) and (0,3) type projectors are stored as pairs
(Re, Im) of real polynomials in rho_P (`type_projector`), so the exact
core never needs complex coefficients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import exact_linalg as ela
from .conventions import ConventionError
from .forms import (
    BilinearForm,
    FiberOperator,
    KForm,
    apply_operator,
    combine_operators,
    compose_operators,
    multi_indices,
    sort_with_sign,
)

_BLOCK_I = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
_BLOCK_J = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
_BLOCK_K = ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def _block_diagonal(block, n: int) -> tuple:
    dim = 4 * n
    rows = []
    for r in range(dim):
        row = [0] * dim
        base = 4 * (r // 4)
        for c in range(4):
            row[base + c] = block[r % 4][c]
        rows.append(tuple(row))
    return tuple(rows)


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
        return _AXES[name]

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)


# Built once: a SpherePoint is immutable.
_AXES = {"I": SpherePoint(1, 0, 0), "J": SpherePoint(0, 1, 0), "K": SpherePoint(0, 0, 1)}

def random_sphere_points(count: int, seed: int) -> list[SpherePoint]:
    """Deterministic exact rational sphere points (no axis points).

    No `src/` caller; test oracles: the random twistor witnesses of
    tests/test_twistor_certificate.py, and extra points that leave the B
    ranks unchanged in tests/test_salamon.py and tests/test_exact_linalg.py.
    """
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


class HypercomplexModel:
    """R^(4n) with the constant left-multiplication structures I, J, K."""

    __slots__ = ("n", "dim", "I", "J", "K")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("quaternionic dimension must be >= 1")
        self.n = n
        self.dim = 4 * n
        self.I = _block_diagonal(_BLOCK_I, n)
        self.J = _block_diagonal(_BLOCK_J, n)
        self.K = _block_diagonal(_BLOCK_K, n)
        self._verify_quaternion_identities()

    def _verify_quaternion_identities(self):
        minus_id = ela.mat_scale(ela.identity(self.dim), Fraction(-1))
        for name, m in (("I", self.I), ("J", self.J), ("K", self.K)):
            if not ela.mat_eq(ela.mat_mul(m, m), minus_id):
                raise ConventionError(f"{name}^2 != -Id")
        if not ela.mat_eq(ela.mat_mul(self.I, self.J), [list(r) for r in self.K]):
            raise ConventionError("IJ != K")
        if not ela.mat_eq(ela.mat_mul(self.J, self.I), ela.mat_scale(self.K, Fraction(-1))):
            raise ConventionError("JI != -K")

    def matrix(self, name: str):
        return {"I": self.I, "J": self.J, "K": self.K}[name]

    def operator(self, name: str) -> "StructureOperator":
        return StructureOperator(self, SpherePoint.axis(name))

    def __repr__(self):
        return f"HypercomplexModel(n={self.n})"


class StructureOperator:
    """A complex structure from the sphere family; it acts on forms and 2-tensors at the axes only."""

    __slots__ = ("model", "point")

    def __init__(self, model: HypercomplexModel, point: SpherePoint):
        self.model = model
        self.point = point

    def _axis_name(self) -> str:
        name = _AXIS_NAMES.get(self.point)
        if name is None:
            raise ValueError("structures act at the axes I, J, K only")
        return name

    def pullback(self, form: KForm) -> KForm:
        """Slots-only action, no degree sign."""
        if form.dim != self.model.dim:
            raise ValueError("dimension mismatch")
        return apply_operator(_axis_operators(self.model, self._axis_name(), form.degree)[1], form)

    def act(self, form: KForm) -> KForm:
        """The signed action on k-forms: (-1)^k times the pullback."""
        moved = self.pullback(form)
        return moved if form.degree % 2 == 0 else -moved

    def twisted_d(self, form: KForm) -> KForm:
        """The twisted differential: (-1)^k act(d(act(form)))."""
        out = self.act(self.act(form).d())
        return out if form.degree % 2 == 0 else -out

    def act_bilinear(self, b: BilinearForm) -> BilinearForm:
        """b(., .) -> b(A., A.) = A^T b A, entry (i, j) s_i s_j b[j_i][j_j]
        with `axis_image`; sign-free, preserves symmetry."""
        if b.dim != self.model.dim:
            raise ValueError("dimension mismatch")
        image = axis_image(self.model, self._axis_name())
        return BilinearForm([[b.entries[j][l].scale(s * t) for l, t in image] for j, s in image])

    def __repr__(self):
        return f"StructureOperator({self.point.a}, {self.point.b}, {self.point.c})"


# Fiber operators for a given (n, sphere point or axis, degree) are cached;
# the table is read-only after construction so concurrent reads are safe.
_FIBER_CACHE: dict = {}

_AXIS_NAMES = {point: name for name, point in _AXES.items()}


def axis_image(model: HypercomplexModel, name: str) -> tuple[tuple[int, int], ...]:
    """The axis A = `name` as its index map: (j, s) per row i, with A[i][j] = s.

    A is a signed permutation and A^T = -A, so A* dx_i = s dx_j and
    A e_i = -s e_j.  The one place where the dense matrices are read.
    """
    key = (model.n, name, "image")
    cached = _FIBER_CACHE.get(key)
    if cached is None:
        cached = _FIBER_CACHE[key] = tuple(next((j, s) for j, s in enumerate(row) if s)
                                           for row in model.matrix(name))
    return cached


def _axis_operators(model: HypercomplexModel, name: str, k: int) -> tuple[FiberOperator, FiberOperator]:
    """(rho_A, A*) on k-forms for the axis A = `name`, with int entries.

    rho_A replaces one slot at a time by its image under A* dx_i = s dx_j
    (`axis_image`), and A* replaces every slot at once.
    """
    key = (model.n, name, k)
    cached = _FIBER_CACHE.get(key)
    if cached is not None:
        return cached
    image = axis_image(model, name)
    rho: FiberOperator = {}
    pull: FiberOperator = {}
    for idx in multi_indices(model.dim, k):
        column: dict = {}
        for pos, i in enumerate(idx):
            j, s = image[i]
            out_idx, sign = sort_with_sign(idx[:pos] + (j,) + idx[pos + 1:])
            if out_idx is not None:
                column[out_idx] = column.get(out_idx, 0) + s * sign
        rho[idx] = sorted((i, v) for i, v in column.items() if v)
        out_idx, sign = sort_with_sign([image[i][0] for i in idx])
        pull[idx] = [(out_idx, sign * math.prod(image[i][1] for i in idx))]
    _FIBER_CACHE[key] = rho, pull
    return rho, pull


def axis_derivations(model: HypercomplexModel, k: int) -> list[FiberOperator]:
    """rho_I, rho_J, rho_K on k-forms, with int entries."""
    return [_axis_operators(model, name, k)[0] for name in ("I", "J", "K")]


def axis_squares(model: HypercomplexModel, k: int) -> list[FiberOperator]:
    """rho_I^2, rho_J^2, rho_K^2 on k-forms, with int entries, each composed
    once per (n, axis, k): eta, the B^3 conditions and the type projectors
    at the axes share them."""
    for name, rho in zip("IJK", axis_derivations(model, k)):
        if (model.n, name, k, "square") not in _FIBER_CACHE:
            _FIBER_CACHE[model.n, name, k, "square"] = compose_operators(rho, rho)
    return [_FIBER_CACHE[model.n, name, k, "square"] for name in "IJK"]


def type_projector(model: HypercomplexModel, point: SpherePoint, k: int) -> tuple[FiberOperator, FiberOperator]:
    """(Re, Im) of the (0,k) type projector at `point` on k-forms, k = 2 or 3.

    rho_P acts as i(p - q) on (p,q)-forms, so the Lagrange polynomials in
    rho_P that are 1 on (0,k) and 0 on the other types are

        pi02 = -rho_P^2/8 + i rho_P/4,
        pi03 = -(rho_P^2 + 1)/16 - i (rho_P^3 + rho_P)/48.

    Both halves are built in ints from den * rho_P (at an axis from the
    cached rho_A^2) and divided once; their entries are Fractions.  The
    (k,0) projector is the conjugate pair (Re, -Im).
    """
    if k not in (2, 3):
        raise ValueError("type projectors are built on 2- and 3-forms only")
    key = (model.n, point.as_tuple(), k, "type")
    cached = _FIBER_CACHE.get(key)
    if cached is not None:
        return cached
    name = _AXIS_NAMES.get(point)
    if name is not None:
        den, rho, square = 1, _axis_operators(model, name, k)[0], axis_squares(model, k)["IJK".index(name)]
    else:
        # Only tests come here, with off-axis points as oracles: the twistor
        # witnesses of tests/test_twistor_certificate.py and the insertion
        # sums of tests/test_fiber_kernel.py.
        den = math.lcm(point.a.denominator, point.b.denominator, point.c.denominator)
        rho = combine_operators([(v.numerator * (den // v.denominator), r)
                                 for v, r in zip(point.as_tuple(), axis_derivations(model, k)) if v])
        square = compose_operators(rho, rho)
    den2 = den * den
    if k == 2:
        pair = combine_operators([(-1, square)], den=8 * den2), combine_operators([(1, rho)], den=4 * den)
    else:
        cube = compose_operators(rho, square)
        pair = (combine_operators([(-1, square)], -den2, 16 * den2),
                combine_operators([(-1, cube), (-den2, rho)], den=48 * den2 * den))
    _FIBER_CACHE[key] = pair
    return pair


@dataclass(frozen=True)
class ComplexForm:
    """A complex form re + i*im, stored as two rational forms.

    The type projectors and the exterior derivative act on each half
    separately.  This is the only complex object in the package.
    """

    re: KForm
    im: KForm

    def d(self) -> "ComplexForm":
        return ComplexForm(self.re.d(), self.im.d())

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def nonzero_terms(self) -> int:
        """Multi-indices whose complex coefficient is nonzero."""
        return len(self.re.terms.keys() | self.im.terms.keys())

    def coefficient_height(self) -> int:
        return max(self.re.coefficient_height(), self.im.coefficient_height())


def complex_type_part(model: HypercomplexModel, point: SpherePoint,
                      form: KForm | ComplexForm, part: str) -> ComplexForm:
    """One complex type component of a 2- or 3-form.

    `part` is one of "20", "02" (degree 2) or "30", "03" (degree 3).  With
    R + iS the (0,k) projector, a complex input x + iy maps to
    (Rx - Sy) + i(Sx + Ry), and a rational input is x alone.  The (k,0)
    part is the conjugate of the (0,k) part of the conjugate input.  The
    output is always a `ComplexForm`.
    """
    if part not in ("20", "02", "30", "03"):
        raise ValueError(f"unknown type part {part!r}")
    x, y = (form.re, form.im) if isinstance(form, ComplexForm) else (form, None)
    k = int(part[0]) + int(part[1])
    if x.degree != k:
        raise ValueError(f"expected a {k}-form")
    re_op, im_op = type_projector(model, point, k)
    conjugate = part[0] != "0"
    re, im = apply_operator(re_op, x), apply_operator(im_op, x)
    if y is not None:
        y = -y if conjugate else y
        re, im = re - apply_operator(im_op, y), im + apply_operator(re_op, y)
    return ComplexForm(re, -im if conjugate else im)
