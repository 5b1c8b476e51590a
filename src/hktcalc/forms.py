"""Exterior algebra of polynomial-coefficient k-forms on R^(4n).

A `KForm` stores its components against strictly increasing multi-indices,
so every form has one canonical representation and equality of forms is
equality of term maps.  Coefficients are `Polynomial` values over Q.
Wedge products and exterior derivatives are exact.

`d` makes one pass over the (index, exponent, coefficient) triples and
adds each derivative term straight into the term map of its output index.

The module also provides the fiberwise machinery shared by the structure
and projection layers.  Every constant linear operator on the k-form fiber
-- structure pullbacks, type projectors, the (1,1) projector, the
projectors eta, the B conditions -- is a `FiberOperator`, a sparse map
input-index -> [(output-index, entry), ...] of int entries over one
positive int denominator `den`, and goes through one kernel,
`apply_operator`: it adds entry times each input term straight into one
{exponent: coefficient} map per output index, divides each accumulated
coefficient by `den` once (an integral value stays an int), drops zeros
and builds each output polynomial once, so no term pays a Fraction product.
`compose_operators` and `combine_operators`, which forms
(sum c_i op_i + shift Id)/den, build them from the axis derivations
rho_I, rho_J, rho_K of `hktcalc.structures`: every sphere operator is a
polynomial in those, in ints over the product of the denominators until
it is applied.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .scalars import Polynomial, json_int, json_list

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


# (dx_j ^ dx_idx as `insert_index` gives it) for j in range(dim), per (idx, dim).
_INSERTIONS: dict = {}


def _insertions(idx: MultiIndex, dim: int) -> tuple:
    table = _INSERTIONS.get((idx, dim))
    if table is None:
        table = _INSERTIONS[idx, dim] = tuple(insert_index(idx, j) for j in range(dim))
    return table


def _nonzero_terms(dim: int, sums: dict) -> dict:
    """{multi-index: Polynomial} of accumulated {multi-index: {exponent: value}}
    maps, zero values and empty components dropped."""
    out = {}
    for idx, acc in sums.items():
        coeffs = {exp: value for exp, value in acc.items() if value}
        if coeffs:
            out[idx] = Polynomial._raw(dim, coeffs)
    return out


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

    # -- queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
        """Exterior derivative; top-degree input yields the zero form.

        One pass over the (index, exponent, coefficient) triples: the term
        c x^e of the idx component adds e_j c x^(e - u_j), with the sign
        of dx_j ^ dx_idx, to that component for each j with e_j > 0.
        """
        sums: dict = {}
        for idx, poly in self.terms.items():
            inserted = _insertions(idx, self.dim)
            for exp, coeff in poly.terms.items():
                for j, e in enumerate(exp):
                    if not e:
                        continue
                    new_idx, sign = inserted[j]
                    if new_idx is None:
                        continue
                    acc = sums.get(new_idx)
                    if acc is None:
                        sums[new_idx] = acc = {}
                    new_exp = exp[:j] + (e - 1,) + exp[j + 1:]
                    value = coeff * e if sign > 0 else coeff * -e
                    prev = acc.get(new_exp)
                    acc[new_exp] = value if prev is None else prev + value
        return KForm._raw(self.degree + 1, self.dim, _nonzero_terms(self.dim, sums))

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
            {tuple(json_int(i, "idx") for i in json_list(t["idx"], "idx")): Polynomial.from_json(t["poly"])
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


def hessian(f: Polynomial) -> list[list[Polynomial]]:
    """The symmetric matrix of second partials of a function, as rows."""
    n = f.dim
    firsts = [f.partial(i) for i in range(n)]
    rows = [[Polynomial.zero(n)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = firsts[i].partial(j)
    return rows


# -- fiberwise constant operators on k-forms ------------------------------

class FiberOperator(dict):
    """A constant linear operator on the k-form fiber, over one denominator.

    A map input index -> [(output index, entry), ...], each column sorted
    by output index with no zero entry; the operator is the entries over
    the positive int `den`.  The builders keep int entries, so applying
    the operator multiplies ints and divides once per output coefficient.
    Two operators are equal when their matrices are, whatever their
    denominators.
    """

    __slots__ = ("den",)

    def __init__(self, columns=(), den: int = 1):
        super().__init__(columns)
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, FiberOperator):
            return False
        a, b = self.den, other.den
        return self.keys() == other.keys() and all(
            [(i, v * b) for i, v in column] == [(i, v * a) for i, v in other[idx]]
            for idx, column in self.items())

    def __ne__(self, other):
        return not self == other


def _divided(value, den: int):
    """value / den for an int or Fraction value, an int when integral."""
    if type(value) is int:
        q, r = divmod(value, den)
        return Fraction(value, den) if r else q
    value = value / den
    return value.numerator if value.denominator == 1 else value


def apply_operator(op: FiberOperator, form: KForm) -> KForm:
    """Apply a fiber operator coefficient-wise to a polynomial form.

    The one kernel for every constant-coefficient fiber operator: each
    output index accumulates entry times coefficient into one term map,
    whose values are divided by the operator's denominator once and
    become one polynomial at the end.  An integral value is stored as an
    int, also where a sum of Fractions lands on an integer over den 1.
    """
    sums: dict = {}
    for idx, poly in form.terms.items():
        column = op.get(idx)
        if column is None:
            continue
        terms = poly.terms
        for out_idx, coeff in column:
            acc = sums.get(out_idx)
            if acc is None:
                sums[out_idx] = {exp: value * coeff for exp, value in terms.items()}
                continue
            for exp, value in terms.items():
                prev = acc.get(exp)
                acc[exp] = value * coeff if prev is None else prev + value * coeff
    if op.den != 1:
        for acc in sums.values():
            for exp, value in acc.items():
                acc[exp] = _divided(value, op.den)
    else:
        for acc in sums.values():
            for exp, value in acc.items():
                if type(value) is Fraction and value.denominator == 1:
                    acc[exp] = value.numerator
    return KForm._raw(form.degree, form.dim, _nonzero_terms(form.dim, sums))


def compose_operators(a: FiberOperator, b: FiberOperator) -> FiberOperator:
    """The fiber operator a o b (first b, then a), with b's input indices,
    over the product of the two denominators.

    Each column lists its nonzero entries sorted by output index, as the
    builders do, so `apply_operator` meets the same order either way.
    """
    out = FiberOperator(den=a.den * b.den)
    for idx, column in b.items():
        acc: dict = {}
        for mid, x in column:
            for out_idx, y in a.get(mid, ()):
                acc[out_idx] = acc.get(out_idx, 0) + y * x
        out[idx] = sorted((i, v) for i, v in acc.items() if v)
    return out


def combine_operators(terms: Sequence[tuple[int, FiberOperator]], shift: int = 0,
                      den: int = 1) -> FiberOperator:
    """(sum of c * op over `terms` + shift * Id) / den, on the terms' input indices.

    The sum is taken in ints over the lcm L of the terms' denominators,
    and the result is stored over L * den, with no division.  Columns are
    sorted by output index, as the builders do.
    """
    common = math.lcm(*(op.den for _, op in terms))
    total: dict = {}
    for c, op in terms:
        c *= common // op.den
        for idx, column in op.items():
            acc = total.get(idx)
            if acc is None:
                total[idx] = acc = {idx: shift * common}
            for out_idx, v in column:
                acc[out_idx] = acc.get(out_idx, 0) + c * v
    return FiberOperator({idx: sorted((i, v) for i, v in acc.items() if v) for idx, acc in total.items()},
                         common * den)
