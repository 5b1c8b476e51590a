"""Exact scalar arithmetic: rationals, Gaussian rationals, sparse polynomials.

Rational coefficients are `fractions.Fraction`: arbitrary precision, always
stored reduced with positive denominator.  `GaussianRational` adjoins the
imaginary unit, giving the exact field Q(i) needed wherever complex type
decompositions appear.

`Polynomial` is a sparse map from exponent vectors to coefficients:

    x0^2*x1 + 3/2  on R^4   ->   {(2, 1, 0, 0): 1, (0, 0, 0, 0): 3/2}

Zero coefficients are never stored, so two polynomials are equal exactly
when their term maps are equal.  Every operation is exact.  The coefficient
field of a polynomial is fixed at construction; combining a Q polynomial
with a Q(i) polynomial raises `CoefficientFieldError` unless the rational
side is promoted first with `to_gaussian()`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

RATIONAL = "rational"
GAUSSIAN = "gaussian"

#: An exponent vector; entry i is the power of x_i.
Monomial = tuple


class CoefficientFieldError(TypeError):
    """Q and Q(i) values were combined without explicit promotion."""


class GaussianRational:
    """An exact element re + im*i of the field Q(i).

    Immutable by convention.  Arithmetic accepts int and Fraction on either
    side (the canonical embedding of Q into Q(i)); anything else is a
    TypeError.  Conjugation is an involution and division goes through the
    conjugate, so the full field structure is available exactly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(value) -> "GaussianRational":
        """Embed an int, Fraction, or GaussianRational into Q(i)."""
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise CoefficientFieldError(f"cannot lift {type(value).__name__} into Q(i)")

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """The field norm re^2 + im^2 (a non-negative rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __add__(self, other):
        other = GaussianRational.lift(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.lift(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.lift(other) - self

    def __mul__(self, other):
        other = GaussianRational.lift(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * GaussianRational.lift(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.lift(other) * self.inverse()

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # Real Gaussian rationals must hash like the rational they equal.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


#: The imaginary unit of Q(i).
IMAG_UNIT = GaussianRational(0, 1)


def _coerce(coeff, field: str):
    """Bring a raw coefficient into the requested field, or raise."""
    if field == RATIONAL:
        if isinstance(coeff, GaussianRational):
            if coeff.is_real:
                return coeff.re
            raise CoefficientFieldError(
                "Gaussian coefficient in a rational polynomial; call to_gaussian() first"
            )
        return Fraction(coeff)
    return GaussianRational.lift(coeff)


class Polynomial:
    """A sparse multivariate polynomial with exact coefficients.

    `dim` is the number of variables, `terms` maps exponent tuples to
    nonzero coefficients, and `field` is RATIONAL or GAUSSIAN.  Instances
    are immutable by convention; all operations return new polynomials in
    canonical form (no zero terms).
    """

    __slots__ = ("dim", "field", "terms")

    def __init__(self, dim: int, terms: Mapping | None = None, field: str | None = None):
        if dim < 1:
            raise ValueError("polynomial dimension must be >= 1")
        terms = dict(terms or {})
        if field is None:
            field = GAUSSIAN if any(
                isinstance(c, GaussianRational) and not c.is_real for c in terms.values()
            ) else RATIONAL
            if field == RATIONAL and any(isinstance(c, GaussianRational) for c in terms.values()):
                field = GAUSSIAN
        if field not in (RATIONAL, GAUSSIAN):
            raise ValueError(f"unknown coefficient field {field!r}")
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent vector {exp} does not have length {dim}")
            if any((not isinstance(e, int)) or e < 0 for e in exp):
                raise ValueError(f"exponents must be non-negative integers: {exp}")
            coeff = _coerce(coeff, field)
            if coeff:
                clean[exp] = coeff
        self.dim = dim
        self.field = field
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int, field: str = RATIONAL) -> "Polynomial":
        return cls(dim, {}, field)

    @classmethod
    def constant(cls, dim: int, value, field: str | None = None) -> "Polynomial":
        return cls(dim, {(0,) * dim: value}, field)

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise IndexError(f"variable index {index} out of range for dimension {dim}")
        exp = [0] * dim
        exp[index] = 1
        return cls(dim, {tuple(exp): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def constant_term(self):
        zero = Fraction(0) if self.field == RATIONAL else GaussianRational(0)
        return self.terms.get((0,) * self.dim, zero)

    def coefficient_height(self) -> int:
        """max(|numerator|, denominator) over all coefficient components."""
        height = 0
        for c in self.terms.values():
            parts = (c.re, c.im) if isinstance(c, GaussianRational) else (c,)
            for p in parts:
                height = max(height, abs(p.numerator), p.denominator)
        return height

    # -- field handling -------------------------------------------------

    def to_gaussian(self) -> "Polynomial":
        """Explicit promotion Q -> Q(i); a no-op on Q(i) polynomials."""
        if self.field == GAUSSIAN:
            return self
        return Polynomial(self.dim, {e: GaussianRational.lift(c) for e, c in self.terms.items()}, GAUSSIAN)

    def conjugate(self) -> "Polynomial":
        if self.field == RATIONAL:
            return self
        return Polynomial(self.dim, {e: c.conjugate() for e, c in self.terms.items()}, GAUSSIAN)

    def real_part(self) -> "Polynomial":
        if self.field == RATIONAL:
            return self
        return Polynomial(self.dim, {e: c.re for e, c in self.terms.items()}, RATIONAL)

    def imag_part(self) -> "Polynomial":
        if self.field == RATIONAL:
            return Polynomial.zero(self.dim)
        return Polynomial(self.dim, {e: c.im for e, c in self.terms.items()}, RATIONAL)

    def _check_compatible(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.terms and other.terms and self.field != other.field:
            raise CoefficientFieldError(
                "mixed coefficient fields; promote the rational side with to_gaussian()"
            )

    def _result_field(self, other: "Polynomial") -> str:
        if not self.terms:
            return other.field
        return self.field

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        field = GAUSSIAN if GAUSSIAN in (self._result_field(other), other._result_field(self)) else RATIONAL
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                out[exp] = coeff
            elif exp in out:
                del out[exp]
        return Polynomial(self.dim, out, field)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()}, self.field)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            field = GAUSSIAN if GAUSSIAN in (self._result_field(other), other._result_field(self)) else RATIONAL
            out: dict = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    exp = tuple(x + y for x, y in zip(ea, eb))
                    prod = ca * cb
                    acc = out.get(exp)
                    prod = prod if acc is None else acc + prod
                    if prod:
                        out[exp] = prod
                    elif exp in out:
                        del out[exp]
            return Polynomial(self.dim, out, field)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        scalar = _coerce(scalar, self.field)
        if not scalar:
            return Polynomial.zero(self.dim, self.field)
        return Polynomial(self.dim, {e: c * scalar for e, c in self.terms.items()}, self.field)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Polynomial.constant(self.dim, 1, self.field)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        # Value equality: a rational polynomial equals its promoted copy.
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus -------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index."""
        if not 0 <= index < self.dim:
            raise IndexError(f"coordinate index {index} out of range for dimension {self.dim}")
        out = {}
        for exp, coeff in self.terms.items():
            e = exp[index]
            if e == 0:
                continue
            new = list(exp)
            new[index] = e - 1
            out[tuple(new)] = coeff * e
        return Polynomial(self.dim, out, self.field)

    def evaluate(self, point: Sequence):
        """Evaluate at a point.

        Exact mode (all entries int or Fraction) returns a Fraction or
        GaussianRational.  If any entry is a float the evaluation happens in
        IEEE double precision (round-to-nearest), returning float or complex.
        """
        point = list(point)
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        exact = all(isinstance(v, (int, Fraction)) for v in point)
        if exact:
            coords = [Fraction(v) for v in point]
            total = Fraction(0) if self.field == RATIONAL else GaussianRational(0)
            # Cache powers per variable; exponents repeat across terms.
            powers: list[dict[int, Fraction]] = [{} for _ in coords]
            for exp, coeff in self.terms.items():
                v = coeff
                for i, e in enumerate(exp):
                    if e:
                        cache = powers[i]
                        if e not in cache:
                            cache[e] = coords[i] ** e
                        v = v * cache[e]
                total = total + v
            return total
        coords_f = [float(v) for v in point]
        if self.field == RATIONAL:
            total_f = 0.0
            for exp, coeff in self.terms.items():
                v = float(coeff)
                for i, e in enumerate(exp):
                    if e:
                        v *= coords_f[i] ** e
                total_f += v
            return total_f
        total_c = 0j
        for exp, coeff in self.terms.items():
            v = complex(coeff)
            for i, e in enumerate(exp):
                if e:
                    v *= coords_f[i] ** e
            total_c += v
        return total_c

    def substitute_linear(self, matrix: Sequence[Sequence]) -> "Polynomial":
        """Compose with the linear map x -> Ax, i.e. return p(Ax).

        `matrix` is dim x dim with exact rational entries; variable x_i is
        replaced by sum_j A[i][j] x_j.
        """
        if len(matrix) != self.dim or any(len(row) != self.dim for row in matrix):
            raise ValueError("matrix shape does not match polynomial dimension")
        images = []
        for i in range(self.dim):
            row = {}
            for j, a in enumerate(matrix[i]):
                a = Fraction(a)
                if a:
                    exp = [0] * self.dim
                    exp[j] = 1
                    row[tuple(exp)] = a
            images.append(Polynomial(self.dim, row))
        out = Polynomial.zero(self.dim, self.field)
        for exp, coeff in self.terms.items():
            term = Polynomial.constant(self.dim, coeff, self.field)
            for i, e in enumerate(exp):
                for _ in range(e):
                    img = images[i] if self.field == RATIONAL else images[i].to_gaussian()
                    term = term * img
            out = out + term
        return out

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        """Encode as {"dim": n, "terms": [...]}, rationals as int-strings."""
        items = []
        for exp in sorted(self.terms):
            coeff = self.terms[exp]
            if isinstance(coeff, GaussianRational):
                entry = {
                    "num": str(coeff.re.numerator),
                    "den": str(coeff.re.denominator),
                    "inum": str(coeff.im.numerator),
                    "iden": str(coeff.im.denominator),
                    "exp": list(exp),
                }
            else:
                entry = {
                    "num": str(coeff.numerator),
                    "den": str(coeff.denominator),
                    "exp": list(exp),
                }
            items.append(entry)
        return {"dim": self.dim, "terms": items}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Polynomial":
        dim = int(obj["dim"])
        terms = {}
        gaussian = False
        for entry in obj.get("terms", []):
            exp = tuple(int(e) for e in entry["exp"])
            re = Fraction(int(entry["num"]), int(entry["den"]))
            if "inum" in entry or "iden" in entry:
                gaussian = True
                im = Fraction(int(entry.get("inum", 0)), int(entry.get("iden", 1)))
                terms[exp] = GaussianRational(re, im)
            else:
                terms[exp] = re
        return cls(dim, terms, GAUSSIAN if gaussian else None)

    def __repr__(self):
        if not self.terms:
            return f"Polynomial({self.dim}, 0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exp) if e)
            c = self.terms[exp]
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return f"Polynomial({self.dim}, {' + '.join(bits)})"


def random_polynomial(
    dim: int,
    max_degree: int,
    n_terms: int,
    seed: int,
    field: str = RATIONAL,
) -> Polynomial:
    """A reproducible pseudo-random polynomial.

    Coefficients are nonzero small integers in [-9, 9]; each term's total
    degree is at most `max_degree`.  Colliding monomials merge, so the
    result can have fewer than `n_terms` terms.  The same arguments always
    produce the same polynomial.
    """
    if dim < 1 or max_degree < 0 or n_terms < 0:
        raise ValueError("bounds must be positive (n_terms may be 0)")
    rng = random.Random(seed)
    coeff_pool = [c for c in range(-9, 10) if c != 0]
    terms: dict = {}
    for _ in range(n_terms):
        degree = rng.randint(0, max_degree)
        exp = [0] * dim
        for _ in range(degree):
            exp[rng.randrange(dim)] += 1
        if field == GAUSSIAN:
            coeff = GaussianRational(rng.choice(coeff_pool), rng.choice(coeff_pool))
        else:
            coeff = Fraction(rng.choice(coeff_pool))
        key = tuple(exp)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Polynomial(dim, terms, field)
