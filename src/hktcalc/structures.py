"""The flat hypercomplex model: constant I, J, K on R^(4n).

The three structures act by left quaternion multiplication on each block
of four coordinates (x0, x1, x2, x3) ~ x0 + x1 i + x2 j + x3 k:

    I = L_i : e0 -> e1,  e1 -> -e0,  e2 -> e3,  e3 -> -e2
    J = L_j : e0 -> e2,  e1 -> -e3,  e2 -> -e0, e3 -> e1
    K = L_k : e0 -> e3,  e1 -> e2,   e2 -> -e1, e3 -> -e0

Each is a signed permutation, held only as its index map `axis_image`
(row i of A has one entry s, at column j), tiled over the n blocks from
one four-row table per axis.  A model composes these maps to check
I^2 = J^2 = K^2 = -Id and IJ = K (`ConventionError` otherwise), and the
maps build every action of I, J and K: on forms, and between a metric
and its Kahler forms in `geometry`.  No dense structure matrix is
formed.

Two actions on forms coexist and both are exposed:

* `StructureOperator.pullback`  -- slots-only: (Aw)(X1..Xk) = w(AX1..AXk);
* `StructureOperator.act`       -- the signed action (-1)^k of the pullback,
  used by the twisted differentials and the HKT criteria.

Every call site states which one it uses.  A structure is named by its
axis, "I", "J" or "K"; the package acts at the axes only.

The fiber operators come from the three axis derivations.  sp(1) acts on
forms by the derivations rho_A (A = I, J, K), the one-slot insertions
(Salamon's E-H splitting).  I, J and K are signed permutation matrices, so
rho_A is a sum of signed single-slot index replacements and the axis
pullback A* a signed permutation of the basis k-forms; both are built
directly, with int entries.  A structure P = aI + bJ + cK of the sphere
has the derivation rho_P = a rho_I + b rho_J + c rho_K, and every fiber
operator at P is a polynomial in it; tests/test_twistor_certificate.py
uses this to certify the axes' twistor verdict on all of S^2.

The type projectors at an axis are real: E_k onto the types (k,0) + (0,k)
is a polynomial in rho_A^2 (`type_projector`), and the Salamon (1,1)
projector (1 + I* - J* - K*)/4 is one operator (`type11_projector`).  A
(0,k)-form X is zero exactly when X + conj(X) is, so the twistor residual
is read as a real form and the package holds no complex object.
"""

from __future__ import annotations

import math

from .conventions import ConventionError
from .forms import (
    FiberOperator,
    KForm,
    apply_operator,
    combine_operators,
    compose_operators,
    multi_indices,
    sort_with_sign,
)

# One block of each axis as (column, sign) per row: row r of the block has
# its one entry, sign, at column.
_BLOCK_IMAGES = {
    "I": ((1, -1), (0, 1), (3, -1), (2, 1)),
    "J": ((2, -1), (3, 1), (0, 1), (1, -1)),
    "K": ((3, -1), (2, -1), (1, 1), (0, 1)),
}


def _compose(a, b):
    """The index map of AB: (AB)[i] = (k, s t) for A[i] = (j, s), B[j] = (k, t)."""
    return tuple((b[j][0], s * b[j][1]) for j, s in a)


class HypercomplexModel:
    """R^(4n) with the constant left-multiplication structures I, J, K."""

    __slots__ = ("n", "dim", "images")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("quaternionic dimension must be >= 1")
        self.n = n
        self.dim = 4 * n
        self.images = {name: tuple((4 * b + j, s) for b in range(n) for j, s in block)
                       for name, block in _BLOCK_IMAGES.items()}
        self._verify_quaternion_identities()

    def _verify_quaternion_identities(self):
        """I^2 = J^2 = K^2 = -Id and IJ = K, on the index maps.

        JI = -K follows: IJIJ = K^2 = -Id, so JIJ = I (multiply by I on
        the left) and -JI = JIJJ = IJ = K (multiply by J on the right).
        """
        minus_id = tuple((i, -1) for i in range(self.dim))
        for name, image in self.images.items():
            if _compose(image, image) != minus_id:
                raise ConventionError(f"{name}^2 != -Id")
        if _compose(self.images["I"], self.images["J"]) != self.images["K"]:
            raise ConventionError("IJ != K")

    def operator(self, name: str) -> "StructureOperator":
        return StructureOperator(self, name)

    def __repr__(self):
        return f"HypercomplexModel(n={self.n})"


class StructureOperator:
    """The axis structure I, J or K, named by `name`, acting on forms."""

    __slots__ = ("model", "name")

    def __init__(self, model: HypercomplexModel, name: str):
        self.model = model
        self.name = name

    def pullback(self, form: KForm) -> KForm:
        """Slots-only action, no degree sign."""
        if form.dim != self.model.dim:
            raise ValueError("dimension mismatch")
        return apply_operator(_axis_operators(self.model, self.name, form.degree)[1], form)

    def act(self, form: KForm) -> KForm:
        """The signed action on k-forms: (-1)^k times the pullback."""
        moved = self.pullback(form)
        return moved if form.degree % 2 == 0 else -moved

    def twisted_d(self, form: KForm) -> KForm:
        """The twisted differential (-1)^k act(d(act(form))).

        The three signs (-1)^k, (-1)^k and (-1)^(k+1) multiply to
        (-1)^(k+1), so it is (-1)^(k+1) A* d A* form, negated once at most.
        """
        out = self.pullback(self.pullback(form).d())
        return -out if form.degree % 2 == 0 else out

    def __repr__(self):
        return f"StructureOperator({self.name})"


# Fiber operators for a given (n, axis, degree) are cached; the table is
# read-only after construction so concurrent reads are safe.
_FIBER_CACHE: dict = {}


def axis_image(model: HypercomplexModel, name: str) -> tuple[tuple[int, int], ...]:
    """The axis A = `name` as its index map: (j, s) per row i, with A[i][j] = s.

    A is a signed permutation and A^T = -A, so A* dx_i = s dx_j and
    A e_i = -s e_j.
    """
    return model.images[name]


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
    rho, pull = FiberOperator(), FiberOperator()
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


def type11_projector(model: HypercomplexModel) -> FiberOperator:
    """P = (1 + I* - J* - K*)/4, the projector of 2-forms onto the Salamon
    (1,1)-forms: the character I* = 1, J* = K* = -1 of the Klein four-group
    {1, I*, J*, K*}, whose law is checked once, here (`ConventionError`)."""
    key = (model.n, "type11")
    if key not in _FIBER_CACHE:
        p_i, p_j, p_k = (_axis_operators(model, name, 2)[1] for name in "IJK")
        identity = combine_operators([(0, p_i)], 1)
        if not (compose_operators(p_i, p_i) == compose_operators(p_j, p_j) == identity
                and compose_operators(p_i, p_j) == compose_operators(p_j, p_i) == p_k):
            raise ConventionError("the axis pullbacks on 2-forms break I*^2 = J*^2 = Id, I*J* = J*I* = K*")
        _FIBER_CACHE[key] = combine_operators([(1, p_i), (-1, p_j), (-1, p_k)], 1, 4)
    return _FIBER_CACHE[key]


def type_projector(model: HypercomplexModel, name: str, k: int) -> FiberOperator:
    """E_k, the real projector of k-forms onto the types (k,0) + (0,k) of
    the axis `name`, k = 2 or 3.

    rho_A acts as i(p - q) on (p,q)-forms, so rho_A^2 is -(p - q)^2 and

        E_2 = -rho_A^2/4          (= (Id - A*)/2),
        E_3 = -(rho_A^2 + 1)/8,

    both built in ints from the cached rho_A^2 (`axis_squares`).
    """
    if k not in (2, 3):
        raise ValueError("type projectors are built on 2- and 3-forms only")
    key = (model.n, name, k, "type")
    if key not in _FIBER_CACHE:
        square = axis_squares(model, k)["IJK".index(name)]
        shift, den = (0, 4) if k == 2 else (-1, 8)
        _FIBER_CACHE[key] = combine_operators([(-1, square)], shift, den)
    return _FIBER_CACHE[key]


def complex_type_part(model: HypercomplexModel, name: str, form: KForm) -> KForm:
    """The (k,0) + (0,k) part E_k form of a 2- or 3-form for the axis
    `name`: twice the real part of its (0,k) part."""
    return apply_operator(type_projector(model, name, form.degree), form)
