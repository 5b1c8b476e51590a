"""The flat hypercomplex model: constant I, J, K on R^(4n).

The three structures act by left quaternion multiplication on each block
of four coordinates (x0, x1, x2, x3) ~ x0 + x1 i + x2 j + x3 k:

    I = L_i : e0 -> e1,  e1 -> -e0,  e2 -> e3,  e3 -> -e2
    J = L_j : e0 -> e2,  e1 -> -e3,  e2 -> -e0, e3 -> e1
    K = L_k : e0 -> e3,  e1 -> e2,   e2 -> -e1, e3 -> -e0

so that IJ = K and JI = -K hold as exact matrix identities.  These
integer block matrices are the single source of truth for every expected
value in the test suite.

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
directly.  At a sphere point P = (a, b, c) the one-slot insertion is
rho_P = a rho_I + b rho_J + c rho_K and the two-slot insertion is
(rho_P^2 + k)/2, which on 2-forms is the pullback P*.  They are composed
in ints over den, the lcm of the point's denominators, and divided once.
No matrix aI + bJ + cK is formed.

Complex type components are `ComplexForm` values: (re, im) pairs of
rational forms.  All operators of the decomposition are real, so the
exact core never needs complex coefficients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import exact_linalg as ela
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

    def to_json(self) -> dict:
        return {
            "a": [str(self.a.numerator), str(self.a.denominator)],
            "b": [str(self.b.numerator), str(self.b.denominator)],
            "c": [str(self.c.numerator), str(self.c.denominator)],
        }


# Built once: a SpherePoint is immutable.
_AXES = {"I": SpherePoint(1, 0, 0), "J": SpherePoint(0, 1, 0), "K": SpherePoint(0, 0, 1)}

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
                raise AssertionError(f"{name}^2 != -Id")
        if not ela.mat_eq(ela.mat_mul(self.I, self.J), [list(r) for r in self.K]):
            raise AssertionError("IJ != K")
        if not ela.mat_eq(ela.mat_mul(self.J, self.I), ela.mat_scale(self.K, Fraction(-1))):
            raise AssertionError("JI != -K")

    def matrix(self, name: str):
        return {"I": self.I, "J": self.J, "K": self.K}[name]

    def operator(self, name: str) -> "StructureOperator":
        point = SpherePoint.axis(name)
        return StructureOperator(self, self.matrix(name), point)

    def to_json(self) -> dict:
        return {"n": self.n, "convention": "left"}

    def __repr__(self):
        return f"HypercomplexModel(n={self.n})"


class StructureOperator:
    """A complex structure from the sphere family; it acts on forms at the axes only."""

    __slots__ = ("model", "matrix", "point")

    def __init__(self, model: HypercomplexModel, matrix, point: SpherePoint):
        self.model = model
        self.matrix = matrix
        self.point = point

    def pullback(self, form: KForm) -> KForm:
        """Slots-only action, no degree sign."""
        if form.dim != self.model.dim:
            raise ValueError("dimension mismatch")
        op = _fiber_op(self.model, self.point, form.degree, "pullback")
        return apply_operator(op, form)

    def act(self, form: KForm) -> KForm:
        """The signed action on k-forms: (-1)^k times the pullback."""
        moved = self.pullback(form)
        return moved if form.degree % 2 == 0 else -moved

    def twisted_d(self, form: KForm) -> KForm:
        """The twisted differential: (-1)^k act(d(act(form)))."""
        out = self.act(self.act(form).d())
        return out if form.degree % 2 == 0 else -out

    def act_bilinear(self, b: BilinearForm) -> BilinearForm:
        """b(., .) -> b(Ix, Iy); sign-free, preserves symmetry."""
        if b.dim != self.model.dim:
            raise ValueError("dimension mismatch")
        return b.conjugate_by(self.matrix)

    def __repr__(self):
        return f"StructureOperator({self.point.a}, {self.point.b}, {self.point.c})"


# Fiber operators for a given (n, sphere point or axis, degree) are cached;
# the table is read-only after construction so concurrent reads are safe.
_FIBER_CACHE: dict = {}

_AXIS_NAMES = {point: name for name, point in _AXES.items()}


def _axis_operators(model: HypercomplexModel, name: str, k: int) -> tuple[FiberOperator, FiberOperator]:
    """(rho_A, A*) on k-forms for the axis A = `name`, with int entries.

    Each row i of the signed permutation matrix A has one entry s at j, so
    A* dx_i = s dx_j.  rho_A replaces one slot at a time by its image, and
    A* replaces every slot at once.
    """
    key = (model.n, name, k)
    cached = _FIBER_CACHE.get(key)
    if cached is not None:
        return cached
    image = [next((j, s) for j, s in enumerate(row) if s) for row in model.matrix(name)]
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
    once per (n, axis, k): eta, the B^3 conditions and the two-slot
    insertions at the axes share them."""
    for name, rho in zip("IJK", axis_derivations(model, k)):
        if (model.n, name, k, "square") not in _FIBER_CACHE:
            _FIBER_CACHE[model.n, name, k, "square"] = compose_operators(rho, rho)
    return [_FIBER_CACHE[model.n, name, k, "square"] for name in "IJK"]


def _fiber_op(model: HypercomplexModel, point: SpherePoint, k: int, kind: str):
    """The fiber operator of `kind` for the structure at `point` on k-forms.

    "insert1" is rho_P and "insert2" is (rho_P^2 + k)/2, built in ints from
    den * rho_P and divided once (at an axis from the cached rho_A^2);
    "pullback" is built at the three axes only.  The stored coefficients
    are Fractions.
    """
    key = (model.n, point.as_tuple(), k, kind)
    cached = _FIBER_CACHE.get(key)
    if cached is not None:
        return cached
    name = _AXIS_NAMES.get(point)
    if kind == "pullback":
        if name is None:
            raise ValueError("pullbacks are built at the axes I, J, K only")
        op = combine_operators([(1, _axis_operators(model, name, k)[1])], den=1)
    elif kind in ("insert1", "insert2"):
        den = math.lcm(point.a.denominator, point.b.denominator, point.c.denominator)
        terms = [(v.numerator * (den // v.denominator), rho)
                 for v, rho in zip(point.as_tuple(), axis_derivations(model, k)) if v]
        if kind == "insert1":
            op = combine_operators(terms, den=den)
        elif name is not None:
            op = combine_operators([(1, axis_squares(model, k)["IJK".index(name)])], k, 2)
        else:
            scaled = combine_operators(terms)
            op = combine_operators([(1, compose_operators(scaled, scaled))], k * den * den, 2 * den * den)
    else:
        raise ValueError(kind)
    _FIBER_CACHE[key] = op
    return op


@dataclass(frozen=True)
class ComplexForm:
    """A complex form re + i*im, stored as two rational forms.

    Every fiber operator of the type decomposition (pullback, one- and
    two-slot insertion) and the exterior derivative are real, so they act
    on each half separately, and multiplying by i maps (re, im) to
    (-im, re).  This is the only complex object in the package.
    """

    re: KForm
    im: KForm

    @classmethod
    def real(cls, form: KForm) -> "ComplexForm":
        return cls(form, KForm.zero(form.degree, form.dim))

    @property
    def degree(self) -> int:
        return self.re.degree

    def __add__(self, other: "ComplexForm") -> "ComplexForm":
        return ComplexForm(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexForm") -> "ComplexForm":
        return ComplexForm(self.re - other.re, self.im - other.im)

    def __mul__(self, scalar) -> "ComplexForm":
        """Multiplication by a rational scalar."""
        return ComplexForm(self.re * scalar, self.im * scalar)

    def times_i(self) -> "ComplexForm":
        return ComplexForm(-self.im, self.re)

    def d(self) -> "ComplexForm":
        return ComplexForm(self.re.d(), self.im.d())

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def nonzero_terms(self) -> int:
        """Multi-indices whose complex coefficient is nonzero."""
        return len(self.re.terms.keys() | self.im.terms.keys())

    def coefficient_height(self) -> int:
        return max(self.re.coefficient_height(), self.im.coefficient_height())


def _complex(form: KForm | ComplexForm) -> ComplexForm:
    return form if isinstance(form, ComplexForm) else ComplexForm.real(form)


def _apply(op, form: ComplexForm) -> ComplexForm:
    """A real fiber operator acts on each half of a complex form."""
    return ComplexForm(apply_operator(op, form.re), apply_operator(op, form.im))


def two_form_type_components(model: HypercomplexModel, point: SpherePoint,
                             form: KForm | ComplexForm) -> dict:
    """Type components of a 2-form for the structure at `point`.

    Keys "20", "11", "02", each a `ComplexForm`.  The construction uses the
    slots-only pullback P, on 2-forms the two-slot insertion (rho_P^2 + 2)/2,
    and the one-slot insertion sum s1 = rho_P (which acts as 2i on (2,0),
    0 on (1,1), -2i on (0,2)):

        rho = (w - Pw)/2 = -rho_P^2 w/4,  w11 = (w + Pw)/2,  T = s1(rho)/2,
        w02 = (rho + i T)/2,   w20 = (rho - i T)/2.
    """
    if form.degree != 2:
        raise ValueError("expected a 2-form")
    form = _complex(form)
    pulled = _apply(_fiber_op(model, point, 2, "insert2"), form)
    rho = (form - pulled) * Fraction(1, 2)
    w11 = (form + pulled) * Fraction(1, 2)
    i_t = _apply(_fiber_op(model, point, 2, "insert1"), rho).times_i()
    half_rho, half_i_t = rho * Fraction(1, 2), i_t * Fraction(1, 4)
    return {"20": half_rho - half_i_t, "11": w11, "02": half_rho + half_i_t}


def three_form_type_components(model: HypercomplexModel, point: SpherePoint,
                               form: KForm | ComplexForm) -> dict:
    """Extreme type components of a 3-form (keys "30", "03"), as `ComplexForm`s.

    s2 (two-slot insertion sum) acts as -3 on (3,0)+(0,3) and +1 on
    (2,1)+(1,2), so psi = (w - s2 w)/4 isolates the extreme part; the
    one-slot sum, scaled by 1/3, then splits it by eigenvalue +-i.
    """
    if form.degree != 3:
        raise ValueError("expected a 3-form")
    form = _complex(form)
    s2 = _apply(_fiber_op(model, point, 3, "insert2"), form)
    psi = (form - s2) * Fraction(1, 4)
    i_t = _apply(_fiber_op(model, point, 3, "insert1"), psi).times_i()
    half_psi, half_i_t = psi * Fraction(1, 2), i_t * Fraction(1, 6)
    return {"30": half_psi - half_i_t, "03": half_psi + half_i_t}


def complex_type_part(model: HypercomplexModel, point: SpherePoint,
                      form: KForm | ComplexForm, part: str) -> ComplexForm:
    """One complex type component of a 2- or 3-form.

    `part` is one of "20", "02" (degree 2) or "30", "03" (degree 3).
    Works for rational and complex input forms alike; the output is
    always a `ComplexForm`.
    """
    if part in ("20", "02"):
        return two_form_type_components(model, point, form)[part]
    if part in ("30", "03"):
        return three_form_type_components(model, point, form)[part]
    raise ValueError(f"unknown type part {part!r}")
