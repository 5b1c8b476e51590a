import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hktcalc.scalars import (
    MAX_JSON_DEGREE,
    MAX_JSON_DIGITS,
    LongJsonInt,
    Polynomial,
    cleared_point,
    json_int,
    parse_json_int,
    random_polynomial,
)


from conftest import fraction_evaluate


def x(i, dim=4):
    return Polynomial.variable(dim, i)


def const(c, dim=4):
    return Polynomial.constant(dim, c)


class TestPolynomialArithmetic:
    def test_difference_of_squares(self):
        p = (x(0) + const(1)) * (x(0) - const(1))
        assert p == x(0) * x(0) - const(1)

    def test_additive_identity(self):
        p = random_polynomial(4, 3, 4, seed=1)
        assert p + Polynomial.zero(4) == p

    def test_rational_coefficient_product(self):
        p = x(0) * Fraction(1, 2)
        q = x(1) * Fraction(2, 3)
        assert p * q == (x(0) * x(1)) * Fraction(1, 3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.variable(4, 0) + Polynomial.variable(8, 0)

    def test_complex_coefficient_rejected(self):
        # Coefficients are rational; complex values live only in the
        # (re, im) pairs of hktcalc.structures.
        with pytest.raises(TypeError):
            Polynomial(4, {(0, 0, 0, 0): 1j})

    def test_complex_scalar_rejected(self):
        with pytest.raises(TypeError):
            x(0) * 1j

    @pytest.mark.parametrize("value, stored", [(3, 3), (True, 1), (np.int64(-4), -4), (2.0, 2),
                                               (Fraction(6, 3), 2), (0.5, Fraction(1, 2)),
                                               ("3/2", Fraction(3, 2))])
    def test_integral_values_are_stored_as_int(self, value, stored):
        # Never a bool, a float or a fixed-width numpy int in a term map.
        for p in (Polynomial.constant(4, value), x(0).scale(value), Polynomial(4, {(1, 0, 0, 0): value})):
            (c,) = p.terms.values()
            assert c == stored and type(c) is type(stored)

    @pytest.mark.parametrize("seed", range(10))
    def test_ring_axioms(self, seed):
        rng = random.Random(seed)
        a = random_polynomial(4, 3, 3, seed=rng.randrange(10**6))
        b = random_polynomial(4, 3, 3, seed=rng.randrange(10**6))
        c = random_polynomial(4, 3, 3, seed=rng.randrange(10**6))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_power(self):
        assert (x(0) + const(1)) ** 2 == x(0) * x(0) + x(0) * 2 + const(1)

    def test_truth_and_hash_follow_equality(self):
        assert not Polynomial.zero(4) and x(0)
        assert hash(x(0) * 2) == hash(x(0) + x(0))
        assert len({x(0) * 2, x(0) + x(0), const(0), Polynomial.zero(4)}) == 2


class TestPartial:
    def test_power_rule(self):
        p = x(0) * x(0) * x(1)
        assert p.partial(0) == x(0) * x(1) * 2

    def test_missing_variable(self):
        assert (x(0) * x(0)).partial(1).is_zero()

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            x(0).partial(4)

    def test_mixed_partials_commute(self):
        for seed in range(100):
            p = random_polynomial(4, 4, 4, seed=seed)
            assert p.partial(0).partial(1) == p.partial(1).partial(0)

    def test_product_rule(self):
        for seed in range(20):
            p = random_polynomial(4, 3, 3, seed=seed)
            q = random_polynomial(4, 3, 3, seed=1000 + seed)
            for i in range(4):
                assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


class TestEvaluate:
    def test_simple_point(self):
        p = x(0) * x(0) + x(1)
        assert p.evaluate((3, 1, 0, 0)) == 10

    def test_origin_gives_constant_term(self):
        p = random_polynomial(4, 3, 5, seed=2) + const(Fraction(7, 3))
        assert p.evaluate((0, 0, 0, 0)) == p.constant_term()

    def test_against_naive_term_sum(self):
        # Independent oracle: plain per-term power products, no caching.
        rng = random.Random(5)
        for seed in range(25):
            p = random_polynomial(4, 4, 5, seed=seed)
            pt = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)]
            expected = Fraction(0)
            for exp, coeff in p.terms.items():
                term = coeff
                for v, e in zip(pt, exp):
                    term *= Fraction(v) ** e
                expected += term
            assert p.evaluate(pt) == expected

    def test_evaluation_is_ring_morphism(self):
        rng = random.Random(9)
        for seed in range(20):
            p = random_polynomial(4, 3, 3, seed=seed)
            q = random_polynomial(4, 3, 3, seed=500 + seed)
            pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(4)]
            assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
            assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)

    def test_float_mode(self):
        # A float coordinate converts exactly: 0.1 is the double nearest 1/10.
        p = x(0) * x(0) + x(1)
        value = p.evaluate((0.1, 1.0, 0.0, 0.0))
        assert type(value) is Fraction and value == Fraction(0.1) ** 2 + 1
        assert value != Fraction(101, 100)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            x(0).evaluate((1, 2))

    @given(st.dictionaries(st.tuples(*[st.integers(0, 6)] * 4),
                           st.fractions(max_denominator=10**6).filter(bool), max_size=6),
           st.lists(st.one_of(st.integers(-9, 9), st.fractions(max_denominator=60),
                              st.floats(-4, 4, allow_nan=False)), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_int_evaluation_matches_the_fraction_sum(self, terms, point):
        # Mixed denominators in the point and in the coefficients.
        p = Polynomial(4, terms)
        ys, q = cleared_point(point)
        assert q > 0 and all(type(y) is int for y in ys)
        assert [Fraction(y, q) for y in ys] == [Fraction(c) for c in point]
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == fraction_evaluate(p, point) == p.evaluate_cleared(ys, q)


class TestRandomPolynomial:
    def test_deterministic(self):
        a = random_polynomial(4, 2, 3, seed=7)
        b = random_polynomial(4, 2, 3, seed=7)
        assert a == b and a.terms == b.terms

    def test_zero_degree_is_constant(self):
        p = random_polynomial(4, 0, 3, seed=11)
        assert p.degree() == 0

    def test_degree_bound(self):
        for seed in range(100):
            assert random_polynomial(4, 3, 5, seed=seed).degree() <= 3

    def test_coefficients_small_integers(self):
        p = random_polynomial(4, 3, 8, seed=13)
        for c in p.terms.values():
            assert type(c) is int and abs(c) <= 9 * 8


class TestJson:
    def test_round_trip_rational(self):
        p = random_polynomial(4, 4, 6, seed=17) * Fraction(1, 3)
        assert Polynomial.from_json(p.to_json()) == p

    def test_gaussian_keys_rejected(self):
        doc = {"dim": 4, "terms": [{"num": "1", "den": "1", "inum": "2", "iden": "3",
                                    "exp": [1, 0, 0, 0]}]}
        with pytest.raises(ValueError, match="inum/iden"):
            Polynomial.from_json(doc)

    def test_zero_denominator_rejected(self):
        doc = {"dim": 4, "terms": [{"num": "1", "den": "0", "exp": [0, 0, 0, 0]}]}
        with pytest.raises(ValueError, match="zero denominator"):
            Polynomial.from_json(doc)

    @pytest.mark.parametrize("field, bad", [
        ("num", 1.5), ("num", True), ("num", "1.5"),
        ("den", 2.0), ("den", False), ("den", "2/1"),
        ("exp", 1.7), ("exp", True), ("exp", " 1"),
        ("dim", 4.0), ("dim", True), ("dim", "4.0"),
    ])
    def test_non_integer_fields_rejected(self, field, bad):
        # A float used to be truncated through int(): num 1.5 read as 1.
        doc = {"dim": 4, "terms": [{"num": "1", "den": "1", "exp": [0, 1, 0, 0]}]}
        if field == "dim":
            doc["dim"] = bad
        elif field == "exp":
            doc["terms"][0]["exp"][1] = bad
        else:
            doc["terms"][0][field] = bad
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Polynomial.from_json(doc)

    def test_total_degree_is_capped(self):
        def doc(exp):
            return {"dim": 4, "terms": [{"num": "1", "den": "1", "exp": exp}]}

        top = MAX_JSON_DEGREE // 2
        assert Polynomial.from_json(doc([top, MAX_JSON_DEGREE - top, 0, 0])).degree() == MAX_JSON_DEGREE
        with pytest.raises(ValueError, match=f"maximum degree {MAX_JSON_DEGREE}"):
            Polynomial.from_json(doc([top, MAX_JSON_DEGREE - top, 1, 0]))

    def test_integer_fields_accept_ints_and_digit_strings(self):
        doc = {"dim": "4", "terms": [{"num": -3, "den": "+7", "exp": ["0", 1, 0, 0]}]}
        assert Polynomial.from_json(doc) == x(1) * Fraction(-3, 7)

    def test_integer_digits_are_capped(self):
        top = "9" * MAX_JSON_DIGITS
        assert parse_json_int(top) == int(top) and parse_json_int("-" + top) == -int(top)
        assert json_int("+" + top, "num") == int(top)
        marker = parse_json_int("-" + top + "9")
        assert isinstance(marker, LongJsonInt)
        for value, digits in ((marker, MAX_JSON_DIGITS + 1), (top + "99", MAX_JSON_DIGITS + 2)):
            with pytest.raises(ValueError, match=f"den has {digits} digits, above the limit of {MAX_JSON_DIGITS}"):
                json_int(value, "den")

    def test_big_integers_survive(self):
        big = Fraction(10**40 + 1, 10**39)
        p = const(big)
        q = Polynomial.from_json(p.to_json())
        assert q.constant_term() == big

    def test_int_string_encoding(self):
        doc = (x(0) * Fraction(-3, 7)).to_json()
        assert doc["terms"][0]["num"] == "-3"
        assert doc["terms"][0]["den"] == "7"
