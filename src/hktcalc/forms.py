"""Exterior algebra of polynomial-coefficient k-forms on R^(4n).

A `KForm` stores its components against strictly increasing multi-indices,
so every form has one canonical representation and equality of forms is
equality of term maps.  Coefficients are `Polynomial` values over Q.
Wedge products and exterior derivatives are exact.

The module also provides the fiberwise machinery shared by the structure
and projection layers: a constant linear operator on the k-form fiber is
represented sparsely as a map  input-index -> [(output-index, coeff), ...]
and can be applied coefficient-wise to polynomial forms or exported as an
exact matrix.

Every such operator -- structure pullbacks, type projectors, the projectors
eta, the B conditions -- goes through one kernel, `apply_operator`: it adds
coeff times each input term straight into one {exponent: coefficient} map
per output index, drops zeros once at the end and builds each output
polynomial once.

Operators are built by two sparse routines.  `compose_operators` composes
two of them, and `combine_operators` forms sum c_i op_i + shift Id over one
int denominator.  `hktcalc.structures` builds the axis derivations
rho_I, rho_J, rho_K with int entries, and every sphere operator is a
polynomial in them: products and sums stay in ints, and each entry is
divided once at the end.  Operator entries are ints or Fractions, like
polynomial coefficients: the axis operators keep int entries, and an
operator divided by a denominator stores Fractions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from .scalars import Polynomial, json_int

MultiIndex = tuple


def multi_indices(dim: int, k: int) -> list[MultiIndex]:
    """All strictly increasing k-tuples in [0, dim), lexicographic."""
    return list(itertools.combinations(range(dim), k))


def sort_with_sign(indices: Sequence[int]) -> tuple[MultiIndex | None, int]:
    """Sort an index tuple, tracking the permutation sign.

    Returns (None, 0) when an index repeats (the component vanishes).
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


def merge_indices(a: MultiIndex, b: MultiIndex) -> tuple[MultiIndex | None, int]:
    """Merge two sorted disjoint index tuples with the shuffle sign."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None, 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def insert_index(idx: MultiIndex, c: int) -> tuple[MultiIndex | None, int]:
    """Insert one index at the front position, i.e. dx_c ^ dx_idx."""
    if c in idx:
        return None, 0
    pos = sum(1 for i in idx if i < c)
    merged = idx[:pos] + (c,) + idx[pos:]
    return merged, -1 if pos % 2 else 1


class KForm:
    """A degree-k exterior form with polynomial coefficients."""

    __slots__ = ("degree", "dim", "terms")

    def __init__(self, degree: int, dim: int, terms: Mapping | None = None):
        # Degrees above dim are allowed but carry no terms (canonical zero).
        if degree < 0:
            raise ValueError(f"degree {degree} must be non-negative")
        clean = {}
        for idx, poly in (terms or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"multi-index {idx} does not have length {degree}")
            if any(not 0 <= i < dim for i in idx) or any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"multi-index {idx} is not strictly increasing in [0, {dim})")
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(dim, poly)
            if poly.dim != dim:
                raise ValueError("coefficient polynomial dimension mismatch")
            if poly.is_zero():
                continue
            clean[idx] = poly
        self.degree = degree
        self.dim = dim
        self.terms = clean

    @classmethod
    def _raw(cls, degree: int, dim: int, terms: dict) -> "KForm":
        """Internal: adopt the canonical result of `+`, `-`, `wedge`, `d` or
        `apply_operator` without re-checking it."""
        form = object.__new__(cls)
        form.degree = degree
        form.dim = dim
        form.terms = terms
        return form

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree: int, dim: int) -> "KForm":
        return cls(degree, dim, {})

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "KForm":
        return cls(0, poly.dim, {(): poly})

    @classmethod
    def basis(cls, dim: int, indices: Sequence[int], coeff=1) -> "KForm":
        idx, sign = sort_with_sign(indices)
        if idx is None:
            return cls.zero(len(indices), dim)
        poly = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(dim, coeff)
        return cls(len(indices), dim, {idx: poly * sign})

    @classmethod
    def dx(cls, dim: int, i: int) -> "KForm":
        return cls.basis(dim, (i,))

    # -- queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> Polynomial:
        """Component against an arbitrary index tuple (sign handled)."""
        idx, sign = sort_with_sign(indices)
        if idx is None or idx not in self.terms:
            return Polynomial.zero(self.dim)
        poly = self.terms[idx]
        return poly if sign == 1 else -poly

    def nonzero_terms(self) -> int:
        return len(self.terms)

    def coefficient_height(self) -> int:
        return max((p.coefficient_height() for p in self.terms.values()), default=0)

    # -- linear structure -------------------------------------------------

    def _check(self, other: "KForm"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __add__(self, other: "KForm") -> "KForm":
        self._check(other)
        out = dict(self.terms)
        for idx, poly in other.terms.items():
            acc = out.get(idx)
            poly = poly if acc is None else acc + poly
            if poly.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = poly
        return KForm._raw(self.degree, self.dim, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm._raw(self.degree, self.dim, {i: -p for i, p in self.terms.items()})

    def __mul__(self, other) -> "KForm":
        if isinstance(other, Polynomial):
            return KForm(self.degree, self.dim, {i: p * other for i, p in self.terms.items()})
        return KForm(self.degree, self.dim, {i: p.scale(other) for i, p in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        return (self.degree, self.dim) == (other.degree, other.dim) and self.terms == other.terms

    # -- exterior algebra -------------------------------------------------

    def wedge(self, other: "KForm") -> "KForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        degree = self.degree + other.degree
        if degree > self.dim:
            return KForm.zero(degree, self.dim)
        out: dict = {}
        for ia, pa in self.terms.items():
            for ib, pb in other.terms.items():
                idx, sign = merge_indices(ia, ib)
                if idx is None:
                    continue
                poly = pa * pb
                if sign < 0:
                    poly = -poly
                acc = out.get(idx)
                poly = poly if acc is None else acc + poly
                if poly.is_zero():
                    out.pop(idx, None)
                else:
                    out[idx] = poly
        return KForm._raw(degree, self.dim, out)

    def d(self) -> "KForm":
        """Exterior derivative; top-degree input yields the zero form."""
        out: dict = {}
        for idx, poly in self.terms.items():
            for c in range(self.dim):
                dp = poly.partial(c)
                if dp.is_zero():
                    continue
                new_idx, sign = insert_index(idx, c)
                if new_idx is None:
                    continue
                if sign < 0:
                    dp = -dp
                acc = out.get(new_idx)
                dp = dp if acc is None else acc + dp
                if dp.is_zero():
                    out.pop(new_idx, None)
                else:
                    out[new_idx] = dp
        return KForm._raw(self.degree + 1, self.dim, out)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {
            "k": self.degree,
            "dim": self.dim,
            "terms": [
                {"idx": list(idx), "poly": self.terms[idx].to_json()}
                for idx in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "KForm":
        return cls(
            json_int(obj["k"], "k"),
            json_int(obj["dim"], "dim"),
            {tuple(json_int(i, "idx") for i in t["idx"]): Polynomial.from_json(t["poly"])
             for t in obj.get("terms", [])},
        )

    def __repr__(self):
        if not self.terms:
            return f"KForm(k={self.degree}, 0)"
        bits = []
        for idx in sorted(self.terms):
            label = "^".join(f"dx{i}" for i in idx) or "1"
            bits.append(f"({self.terms[idx]!r}) {label}")
        return " + ".join(bits)


class BilinearForm:
    """A dim x dim matrix of polynomials: metrics, Hessians and their
    images under I, J and K.

    Keeping them apart from alternating forms avoids sign mistakes when
    both occur in one computation.  Symmetry is not tracked here;
    `geometry.HyperhermitianMetric` checks it.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        dim = len(entries)
        rows = []
        for row in entries:
            if len(row) != dim:
                raise ValueError("entries must form a square matrix")
            rows.append(tuple(p if isinstance(p, Polynomial) else Polynomial.constant(dim, p) for p in row))
        self.dim = dim
        self.entries = tuple(rows)

    @classmethod
    def scaled_identity(cls, dim: int, scale: Polynomial) -> "BilinearForm":
        z = Polynomial.zero(dim)
        return cls([[scale if i == j else z for j in range(dim)] for i in range(dim)])

    def __add__(self, other: "BilinearForm") -> "BilinearForm":
        return BilinearForm(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "BilinearForm") -> "BilinearForm":
        return BilinearForm(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def scale(self, scalar) -> "BilinearForm":
        return BilinearForm([[p.scale(scalar) for p in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def trace(self) -> Polynomial:
        out = Polynomial.zero(self.dim)
        for i in range(self.dim):
            out = out + self.entries[i][i]
        return out

    def evaluate(self, point: Sequence) -> list[list]:
        """The matrix of exact values at a point; the point becomes Fractions once."""
        point = [Fraction(v) for v in point]
        return [[p.evaluate(point) for p in row] for row in self.entries]


def hessian(f: Polynomial) -> BilinearForm:
    """The symmetric matrix of second partials of a function."""
    n = f.dim
    firsts = [f.partial(i) for i in range(n)]
    entries = [[Polynomial.zero(n)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = firsts[i].partial(j)
    for i in range(n):
        for j in range(i):
            entries[i][j] = entries[j][i]
    return BilinearForm(entries)


# -- fiberwise constant operators on k-forms ------------------------------

FiberOperator = dict


def _accumulate(acc: dict, terms: dict, coeff) -> None:
    """acc += coeff * terms, on {exponent: int or Fraction} maps; zeros are kept."""
    for exp, value in terms.items():
        prev = acc.get(exp)
        acc[exp] = value * coeff if prev is None else prev + value * coeff


def _polynomial(dim: int, acc: dict) -> Polynomial:
    """The canonical polynomial of an accumulated term map."""
    return Polynomial._raw(dim, {exp: value for exp, value in acc.items() if value})


def apply_operator(op: FiberOperator, form: KForm) -> KForm:
    """Apply a fiber operator coefficient-wise to a polynomial form.

    The one kernel for every constant-coefficient fiber operator: each
    output index accumulates into one term map, which becomes one
    polynomial at the end.
    """
    sums: dict = {}
    for idx, poly in form.terms.items():
        for out_idx, coeff in op.get(idx, ()):
            acc = sums.get(out_idx)
            if acc is None:
                sums[out_idx] = acc = {}
            _accumulate(acc, poly.terms, coeff)
    terms = {}
    for out_idx, acc in sums.items():
        poly = _polynomial(form.dim, acc)
        if poly.terms:
            terms[out_idx] = poly
    return KForm._raw(form.degree, form.dim, terms)


def compose_operators(a: FiberOperator, b: FiberOperator) -> FiberOperator:
    """The fiber operator a o b (first b, then a), with b's input indices.

    Each column lists its nonzero entries sorted by output index, as the
    builders do, so `apply_operator` meets the same order either way.
    """
    out: FiberOperator = {}
    for idx, column in b.items():
        acc: dict = {}
        for mid, x in column:
            for out_idx, y in a.get(mid, ()):
                acc[out_idx] = acc.get(out_idx, 0) + y * x
        out[idx] = sorted((i, v) for i, v in acc.items() if v)
    return out


def combine_operators(terms: Sequence[tuple[int, FiberOperator]], shift: int = 0,
                      den: int | None = None) -> FiberOperator:
    """(sum of c * op over `terms` + shift * Id) / den, on the terms' input indices.

    Integer coefficients and entries are summed in ints.  With `den` each
    entry is divided once into a Fraction; without it the sums are kept as
    they are.  Columns are sorted by output index, as the builders do.
    """
    total: dict = {}
    for c, op in terms:
        for idx, column in op.items():
            acc = total.get(idx)
            if acc is None:
                total[idx] = acc = {idx: shift}
            for out_idx, v in column:
                acc[out_idx] = acc.get(out_idx, 0) + c * v
    return {idx: sorted((i, v if den is None else Fraction(v, den)) for i, v in acc.items() if v)
            for idx, acc in total.items()}


def operator_matrix(op: FiberOperator, k: int, dim: int) -> list[list[Fraction]]:
    """Dense exact matrix of a fiber operator (rows/cols in lex order)."""
    basis = multi_indices(dim, k)
    pos = {idx: i for i, idx in enumerate(basis)}
    n = len(basis)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for in_idx, column in op.items():
        j = pos[in_idx]
        for out_idx, coeff in column:
            mat[pos[out_idx]][j] = coeff
    return mat


def vector_to_form(vec: Sequence, basis: Sequence[MultiIndex], k: int, dim: int) -> KForm:
    return KForm(k, dim, dict(zip(basis, vec)))
