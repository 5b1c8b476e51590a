"""Exact scalar arithmetic: rationals and sparse polynomials over Q.

A coefficient is a nonzero `int` or `fractions.Fraction`, never a float or
a bool.  The constructors store an integral value as an `int`, so integer
data stays in int arithmetic (no gcd per product) through `+`, `*` and
`partial`; a sum of Fractions may still be integral.  Two ints are never
divided, which would give a float.  The exact core is real; the one place
that needs complex values (type decompositions for the twistor criterion)
stores them as (real, imaginary) pairs of rational forms in
`hktcalc.structures`.

`Polynomial` is a sparse map from exponent vectors to coefficients:

    x0^2*x1 + 3/2  on R^4   ->   {(2, 1, 0, 0): 1, (0, 0, 0, 0): 3/2}

Zero coefficients are never stored, so two polynomials are equal exactly
when their term maps are equal.  Every operation is exact.

The public constructor (and `from_json`) validates every exponent and
converts every coefficient.  `Polynomial._raw` is internal only: it wraps
a term map that is already canonical -- tuple exponents, nonzero `int` or
`Fraction` values -- without checking it, and the arithmetic (`+`, `-`,
`*`, `scale`, `partial`, `zero`) and the fiber kernels of `hktcalc.forms`
use it for results that are canonical by construction.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import Mapping, Sequence

# The largest total degree of a term `Polynomial.from_json` accepts.  Exact
# evaluation at rational points (the signature samples of `hkt check`)
# computes powers x^e: a metric document with g = (2 + x0^e) Id checks in
# about 0.15 s up to e = 10^5, 0.4 s at e = 10^6 and takes more than 60 s
# at e = 10^8.
MAX_JSON_DEGREE = 10_000

# The most digits a JSON integer may have, as a number or a decimal string:
# Python's default limit for converting text to int.  Documents are parsed
# with `parse_json_int`, so a longer integer becomes a `LongJsonInt` marker
# and `json_int` rejects it with the name of the field that reads it.
MAX_JSON_DIGITS = 4300


class Polynomial:
    """A sparse multivariate polynomial with rational coefficients.

    `dim` is the number of variables and `terms` maps exponent tuples to
    nonzero int or Fraction coefficients.  Instances are immutable by
    convention; all operations return new polynomials in canonical form (no
    zero terms).
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping | None = None):
        if dim < 1:
            raise ValueError("polynomial dimension must be >= 1")
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent vector {exp} does not have length {dim}")
            if any((not isinstance(e, int)) or e < 0 for e in exp):
                raise ValueError(f"exponents must be non-negative integers: {exp}")
            coeff = exact_coefficient(coeff)
            if coeff:
                clean[exp] = coeff
        self.dim = dim
        self.terms = clean

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "Polynomial":
        """Internal: adopt an already-canonical term map (tuple exponents of
        length `dim`, nonzero int or Fraction values) without re-checking it."""
        poly = object.__new__(cls)
        poly.dim = dim
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        if dim < 1:
            raise ValueError("polynomial dimension must be >= 1")
        return cls._raw(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise IndexError(f"variable index {index} out of range for dimension {dim}")
        exp = [0] * dim
        exp[index] = 1
        return cls._raw(dim, {tuple(exp): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.dim, 0)

    def coefficient_height(self) -> int:
        """max(|numerator|, denominator) over all coefficients."""
        return max((max(abs(c.numerator), c.denominator) for c in self.terms.values()), default=0)

    def _check_compatible(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                out[exp] = coeff
            elif exp in out:
                del out[exp]
        return Polynomial._raw(self.dim, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial._raw(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
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
            return Polynomial._raw(self.dim, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Polynomial":
        scalar = exact_coefficient(scalar)
        if not scalar:
            return Polynomial._raw(self.dim, {})
        return Polynomial._raw(self.dim, {e: c * scalar for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Polynomial.constant(self.dim, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
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
        return Polynomial._raw(self.dim, out)

    def evaluate(self, point: Sequence) -> Fraction:
        """The exact value at a point, a Fraction.

        Coordinates convert exactly through `Fraction`, a float included.
        """
        point = list(point)
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        coords = [v if type(v) is Fraction else Fraction(v) for v in point]
        total = Fraction(0)
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

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        """Encode as {"dim": n, "terms": [...]}, rationals as int-strings."""
        items = []
        for exp in sorted(self.terms):
            coeff = self.terms[exp]
            items.append({
                "num": str(coeff.numerator),
                "den": str(coeff.denominator),
                "exp": list(exp),
            })
        return {"dim": self.dim, "terms": items}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Polynomial":
        """Decode `to_json` output; a malformed term, or one of total degree
        above `MAX_JSON_DEGREE`, raises ValueError."""
        dim = json_int(obj["dim"], "dim")
        terms = {}
        for entry in obj.get("terms", []):
            if "inum" in entry or "iden" in entry:
                raise ValueError("complex coefficients (inum/iden) are not supported; "
                                 "coefficients are rational")
            exp = tuple(json_int(e, "exp") for e in entry["exp"])
            if sum(exp) > MAX_JSON_DEGREE:
                raise ValueError(f"the term with degree {sum(exp)} exceeds the maximum "
                                 f"degree {MAX_JSON_DEGREE}")
            den = json_int(entry["den"], "den")
            if den == 0:
                raise ValueError(f"zero denominator in the term with exponents {list(exp)}")
            terms[exp] = Fraction(json_int(entry["num"], "num"), den)
        return cls(dim, terms)

    def __repr__(self):
        if not self.terms:
            return f"Polynomial({self.dim}, 0)"
        bits = []
        for exp in sorted(self.terms):
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exp) if e)
            c = self.terms[exp]
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return f"Polynomial({self.dim}, {' + '.join(bits)})"


def exact_coefficient(value):
    """`value` as an exact coefficient: a Python int when it is integral (a bool
    or a numpy integer too), else a Fraction; a float converts exactly."""
    if type(value) is int:
        return value
    value = value if type(value) is Fraction else Fraction(value)
    return int(value.numerator) if value.denominator == 1 else value


class LongJsonInt:
    """A JSON integer literal of more than MAX_JSON_DIGITS digits, kept as text."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self):
        return f"<integer of {len(self.text.lstrip('-'))} digits>"


def parse_json_int(text: str):
    """The `parse_int` hook of `json.load`: an int, or a LongJsonInt marker
    for a literal the int conversion would refuse."""
    return LongJsonInt(text) if len(text.lstrip("-")) > MAX_JSON_DIGITS else int(text)


def json_int(value, name: str) -> int:
    """A JSON integer (not a bool) or a signed decimal string of at most
    MAX_JSON_DIGITS digits; anything else, a float in particular, raises
    ValueError instead of being truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    text = value.text if isinstance(value, LongJsonInt) else value
    if isinstance(text, str) and re.fullmatch(r"[-+]?[0-9]+", text):
        digits = len(text.lstrip("+-"))
        if digits > MAX_JSON_DIGITS:
            raise ValueError(f"{name} has {digits} digits, above the limit of {MAX_JSON_DIGITS} digits")
        return int(text)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def random_polynomial(dim: int, max_degree: int, n_terms: int, seed: int) -> Polynomial:
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
        coeff = rng.choice(coeff_pool)
        key = tuple(exp)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Polynomial(dim, terms)
