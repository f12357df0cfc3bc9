"""Exact field arithmetic in Q(sqrt(d)).

The independent oracle here is the regular representation: a + b*sqrt(d)
acts on the basis (1, sqrt(d)) as the 2x2 matrix [[a, b*d], [b, a]], so
scalar arithmetic must agree with exact matrix arithmetic over Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hurwitzq.scalars import (
    ONE,
    SUPPORTED_FIELDS,
    ZERO,
    FieldMismatchError,
    QuadScalar,
    ScalarParseError,
    parse_scalar,
)


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 9))


def random_scalar(rng: random.Random, d: int) -> QuadScalar:
    return QuadScalar(random_fraction(rng), random_fraction(rng), d)


def as_matrix(value: QuadScalar, d: int):
    a, b = value.rational, value.surd
    return ((a, b * d), (b, a))


def matrix_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def matrix_add(m, n):
    return (
        (m[0][0] + n[0][0], m[0][1] + n[0][1]),
        (m[1][0] + n[1][0], m[1][1] + n[1][1]),
    )


class TestConstruction:
    def test_rational_values_normalize_to_d_1(self):
        assert QuadScalar(Fraction(3), Fraction(0), 5).d == 1
        assert QuadScalar(Fraction(1, 2)).d == 1

    def test_d_1_surd_folds_into_rational(self):
        assert QuadScalar(1, 2, 1) == QuadScalar(3)
        assert QuadScalar(Fraction(1, 2), Fraction(1, 2), 1) == QuadScalar(1)

    def test_integer_inputs_coerce_to_fraction(self):
        value = QuadScalar(1, 1, 5)
        assert value.rational == Fraction(1)
        assert value.surd == Fraction(1)
        assert value.d == 5

    def test_unsupported_field_rejected(self):
        with pytest.raises(ValueError):
            QuadScalar(0, 1, 3)
        with pytest.raises(ValueError):
            QuadScalar(0, 1, 4)

    def test_sqrt_constructor(self):
        for d in (2, 5):
            root = QuadScalar.sqrt(d)
            assert root * root == QuadScalar(d)

    def test_predicates(self):
        assert QuadScalar(2).is_integer()
        assert not QuadScalar(Fraction(1, 2)).is_integer()
        assert QuadScalar(Fraction(3, 2)).is_half_odd()
        assert not QuadScalar(1).is_half_odd()
        assert QuadScalar(Fraction(2, 4)).is_half_odd()

    def test_to_fraction_requires_rational_value(self):
        assert QuadScalar(Fraction(5, 3)).to_fraction() == Fraction(5, 3)
        with pytest.raises(ValueError):
            QuadScalar(0, 1, 2).to_fraction()


class TestArithmetic:
    def test_matches_matrix_representation(self):
        rng = random.Random(20260822)
        for _ in range(1200):
            d = rng.choice((2, 5))
            x = random_scalar(rng, d)
            y = random_scalar(rng, d)
            assert as_matrix(x * y, d) == matrix_mul(as_matrix(x, d), as_matrix(y, d))
            assert as_matrix(x + y, d) == matrix_add(as_matrix(x, d), as_matrix(y, d))
            assert x - y == x + (-y)

    def test_field_norm_is_multiplicative(self):
        rng = random.Random(7)
        for _ in range(400):
            d = rng.choice((2, 5))
            x = random_scalar(rng, d)
            y = random_scalar(rng, d)
            assert (x * y).field_norm() == x.field_norm() * y.field_norm()

    def test_field_conjugate_flips_surd_sign(self):
        x = QuadScalar(Fraction(1, 2), Fraction(-3, 4), 5)
        assert x.field_conjugate() == QuadScalar(Fraction(1, 2), Fraction(3, 4), 5)
        assert x * x.field_conjugate() == QuadScalar(x.field_norm())

    def test_division_inverts_multiplication(self):
        rng = random.Random(99)
        checked = 0
        while checked < 300:
            d = rng.choice((1, 2, 5))
            x = random_scalar(rng, d)
            y = random_scalar(rng, d)
            if not y:
                continue
            assert (x / y) * y == x
            checked += 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_pow(self):
        x = QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)
        assert x**0 == ONE
        assert x**3 == x * x * x
        assert x**-2 == ONE / (x * x)

    def test_mixed_fraction_and_int_operands(self):
        x = QuadScalar(0, 1, 2)
        assert x + 1 == QuadScalar(1, 1, 2)
        assert 2 * x == QuadScalar(0, 2, 2)
        assert x - Fraction(1, 2) == QuadScalar(Fraction(-1, 2), 1, 2)

    def test_rationals_mix_with_any_field(self):
        # A d=1 value is a plain rational, so it combines with surds freely.
        half = QuadScalar(Fraction(1, 2))
        root2 = QuadScalar.sqrt(2)
        assert (half + root2).d == 2
        assert half * root2 == QuadScalar(0, Fraction(1, 2), 2)

    def test_distinct_surd_fields_do_not_mix(self):
        with pytest.raises(FieldMismatchError):
            QuadScalar.sqrt(2) + QuadScalar.sqrt(5)
        with pytest.raises(FieldMismatchError):
            QuadScalar.sqrt(5) * QuadScalar.sqrt(2)

    def test_equality_and_hash(self):
        assert QuadScalar(2) == Fraction(2) == 2
        assert hash(QuadScalar(2)) == hash(QuadScalar(Fraction(4, 2)))
        assert QuadScalar(0, 1, 2) != QuadScalar(0, 1, 5)

    @pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3)])
    def test_rational_values_hash_like_their_fraction(self, value):
        scalar = QuadScalar(value)
        assert scalar == value
        assert hash(scalar) == hash(value) == hash(Fraction(value))
        assert {value: "x"}.get(scalar) == "x"
        assert hash(QuadScalar(value, 0, 5)) == hash(value)

    def test_bool(self):
        assert not ZERO
        assert ONE
        assert QuadScalar(0, Fraction(1, 3), 2)


class TestTextForm:
    def test_canonical_strings(self):
        assert str(QuadScalar(0)) == "0"
        assert str(QuadScalar(Fraction(-3, 2))) == "-3/2"
        assert str(QuadScalar(0, 1, 2)) == "1*sqrt(2)"
        assert str(QuadScalar(0, -1, 2)) == "-1*sqrt(2)"
        assert str(QuadScalar(Fraction(1, 2), Fraction(1, 2), 5)) == "1/2+1/2*sqrt(5)"
        assert str(QuadScalar(Fraction(1, 4), Fraction(-1, 4), 5)) == "1/4-1/4*sqrt(5)"

    def test_parse_examples(self):
        assert parse_scalar("-3/2") == QuadScalar(Fraction(-3, 2))
        assert parse_scalar("1/2+1/2*sqrt(5)") == QuadScalar(
            Fraction(1, 2), Fraction(1, 2), 5
        )
        assert parse_scalar("1*sqrt(2)") == QuadScalar(0, 1, 2)
        assert parse_scalar(" 2 ") == QuadScalar(2)

    def test_parse_accepts_either_term_order(self):
        assert parse_scalar("1/2*sqrt(5)+1/4") == parse_scalar("1/4+1/2*sqrt(5)")
        assert parse_scalar("1*sqrt(2)-1") == QuadScalar(-1, 1, 2)

    def test_round_trip_on_random_values(self):
        rng = random.Random(424242)
        for _ in range(1000):
            d = rng.choice(SUPPORTED_FIELDS)
            value = random_scalar(rng, d)
            assert parse_scalar(str(value)) == value

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty scalar"),
            ("   ", "empty scalar"),
            ("sqrt", "rational"),
            ("1/0", "zero denominator"),
            ("1*sqrt(3)", "unsupported field"),
            ("1+2", "two rational terms"),
            ("1*sqrt(2)+1*sqrt(2)", "two sqrt terms"),
            ("1*cos(2)", "sqrt"),
            ("1/2!", "unexpected character"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ScalarParseError) as excinfo:
            parse_scalar(text)
        assert fragment in str(excinfo.value)

    def test_parse_error_reports_position(self):
        with pytest.raises(ScalarParseError) as excinfo:
            parse_scalar("1/2?", offset=10)
        assert excinfo.value.position == 13
        assert "position 13" in str(excinfo.value)

    def test_repr_is_evaluable(self):
        value = QuadScalar(Fraction(1, 2), Fraction(-1, 4), 5)
        assert eval(repr(value), {"QuadScalar": QuadScalar, "Fraction": Fraction}) == value
