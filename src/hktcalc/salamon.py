"""Form-bundle splitting and the projected differential.

For degree k <= 3 the fiber of Lambda^k splits into the part generated by
the extreme types (k,0)+(0,k) over the whole sphere of structures and its
complement B^k; the projection *eta* kills B^k, and the projected
differential is D = eta o d.

eta is a polynomial in the sp(1) Casimir.  I, J and K act on k-forms as
derivations rho_A (the one-slot insertions at the axes), with
[rho_I, rho_J] = -2 rho_K cyclically, so C = rho_I^2 + rho_J^2 + rho_K^2 is
four times the su(2) Casimir.  In Salamon's E-H splitting Lambda^k is a
sum of pieces F_j(E) (x) S^j H with j <= k, j = k mod 2, and C acts as
-j(j + 2) on S^j H.  B^2 is the j = 0 part and B^3 the j = 1 part; eta_k,
the projection onto j = k, is 1 at -k(k + 2) and 0 at the other eigenvalue:

    eta_2 = -C/8,    eta_3 = -(C + 3)/12,

one sparse fiber operator each, with no inversion or elimination.  It is
orthogonal for every constant hyperhermitian inner product g: each A is
g-skew, so each rho_A is skew and C symmetric for the inner product g
induces on Lambda^k, and the eigenspaces of C are g-orthogonal.  The tests
compare it with the weighted dense projector onto the complement of B^k.

B^k is also cut out by exact linear conditions, independent of eta.
"For every structure on the sphere" is a quadratic condition in the
sphere coordinates, so it reduces to finitely many exact linear
conditions, all built from the axis derivations of `hktcalc.structures`:

* degree 2:  the fixed locus of the three slots-only axis pullbacks, i.e.
  { w : Iw = w, Jw = w, Kw = w }, the conditions A* - Id;
* degree 3:  S(P)w = w for the two-slot insertion sum
  S(P) = (rho_P^2 + 3)/2 at every P = (a, b, c) on the sphere.

Both reductions are exactly equivalent to the all-sphere condition.  For
degree 3, S(P)w - w is a homogeneous quadratic in (a, b, c) (use
a^2 + b^2 + c^2 = 1 on the identity term), since rho_P is linear in P.
It vanishes on the sphere exactly when its six coefficients do:

    (rho_A^2 + 1)/2            for A = I, J, K,
    (rho_A rho_B + rho_B rho_A)/2   for the pairs AB = IJ, JK, KI,

the six coefficient conditions.  The three rho_A^2 are shared with eta_3
and the type projectors at the axes (`structures.axis_squares`).  Rank stability
under extra random sphere points is asserted separately as a guard.

Only the B^3 conditions are built here: `ProjectorTable.in_b` applies them
to dF, a 3-form, for the cross-check of `geometry.is_hkt_salamon`.  No
command reads B^2 as conditions, so the tests build A* - Id themselves
(`tests/conftest.py`), and take their exact bases of B^2 and B^3, oracles
independent of eta, from the two sets of conditions.
"""

from __future__ import annotations

from fractions import Fraction

from . import structures
from .forms import FiberOperator, KForm, apply_operator, combine_operators, compose_operators
from .structures import HypercomplexModel, axis_derivations, axis_squares, type11_projector


class DegreeError(ValueError):
    """Requested degree is outside the supported range."""


def _condition_operators(model: HypercomplexModel) -> list[FiberOperator]:
    """The six coefficient conditions whose common kernel is B^3."""
    rho = axis_derivations(model, 3)
    pairs = [(compose_operators(rho[a], rho[b]), compose_operators(rho[b], rho[a]))
             for a, b in ((0, 1), (1, 2), (2, 0))]
    return ([combine_operators([(1, sq)], 1, 2) for sq in axis_squares(model, 3)]
            + [combine_operators([(1, ab), (1, ba)], 0, 2) for ab, ba in pairs])


def a11_subspace(model: HypercomplexModel) -> tuple[KForm, ...]:
    """A basis of the constant 2-forms with Iw = w and Jw = -w (slots-only),
    kept in `structures._FIBER_CACHE`: per orbit of {1, I*, J*, K*} with a
    nonzero (1,1) projector column at its largest index e, that column
    scaled to 1 at e, the null-space vector of [I* - Id; J* + Id] for e."""
    cache, key = structures._FIBER_CACHE, (model.n, "a11")
    if key not in cache:
        cache[key] = tuple(KForm(2, model.dim, {out_idx: Fraction(x, column[-1][1]) for out_idx, x in column})
                           for idx, column in type11_projector(model).items() if column and column[-1][0] == idx)
    return cache[key]


# k -> (shift, den) with eta_k = -(C + shift Id)/den.
_ETA_FROM_CASIMIR = {2: (0, 8), 3: (3, 12)}


class ProjectorTable:
    """Cached exact fiber projectors eta_k for k <= 3, each one sparse fiber
    operator in `columns`: eta_2 = -C/8 and eta_3 = -(C + 3)/12 for the
    Casimir C (see the module docstring).

    The table also keeps the six condition operators whose common kernel
    is B^3; `in_b` applies them to dF as an eta-free membership test.
    Construction is eager, so a fully built table is read-only and safe to
    query concurrently.
    """

    def __init__(self, model: HypercomplexModel):
        self.model = model
        self.columns: dict[int, FiberOperator] = {
            k: combine_operators([(-1, sq) for sq in axis_squares(model, k)], -shift, den)
            for k, (shift, den) in _ETA_FROM_CASIMIR.items()}
        self.conditions = _condition_operators(model)

    def eta(self, form: KForm) -> KForm:
        """Project a polynomial form fiberwise onto the complement of B."""
        if form.dim != self.model.dim:
            raise ValueError("dimension mismatch")
        if form.degree in (0, 1):
            return form
        if form.degree not in self.columns:
            raise DegreeError(f"eta is available for degrees <= 3, got {form.degree}")
        return apply_operator(self.columns[form.degree], form)

    def in_b(self, form: KForm) -> bool:
        """Whether a polynomial 3-form lies in B^3 identically: every exact
        condition operator kills it.  Independent of eta."""
        if form.degree != 3:
            raise DegreeError(f"B conditions are available for degree 3, got {form.degree}")
        return all(apply_operator(op, form).is_zero() for op in self.conditions)


def salamon_D(table: ProjectorTable, form: KForm) -> KForm:
    """D = eta o d on degrees <= 2."""
    if form.degree > 2:
        raise DegreeError(f"D is defined here for degrees <= 2, got {form.degree}")
    return table.eta(form.d())


def proj_formula_D(model: HypercomplexModel, theta: KForm) -> KForm:
    """D on 1-forms via the explicit type-projection formula.

    D(theta) = (dtheta)^{2,0} + (dtheta)^{0,2} + P dtheta
             = (dtheta - I* dtheta)/2 + P dtheta,
    with types taken for I and P the (1,1) projector
    (`structures.type11_projector`).  Independent of the Casimir eta.
    """
    if theta.degree != 1:
        raise ValueError("expected a 1-form")
    w = theta.d()
    return (w - model.operator("I").pullback(w)) * Fraction(1, 2) + apply_operator(type11_projector(model), w)


def is_salamon_11(model: HypercomplexModel, form: KForm) -> bool:
    """Whether Iw = w and Jw = Kw = -w hold exactly (slots-only actions):
    whether the (1,1) projector P (`structures.type11_projector`) fixes w."""
    if form.degree != 2 or form.dim != model.dim:
        raise ValueError("expected a 2-form on the model")
    return apply_operator(type11_projector(model), form) == form
