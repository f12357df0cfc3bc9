"""Hamilton quaternion arithmetic.

The independent oracle is the left-regular representation: q = (a, b, c, d)
acts on the basis (1, i, j, k) as a 4x4 matrix, and quaternion products
must agree with exact matrix products.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hurwitzq.quaternions import I, J, K, ONE, ZERO, Quaternion, parse_quaternion
from hurwitzq.scalars import FieldMismatchError, QuadScalar, ScalarParseError


def random_quaternion(rng: random.Random, d: int = 1) -> Quaternion:
    def scalar() -> QuadScalar:
        if d == 1:
            return QuadScalar(Fraction(rng.randint(-8, 8), rng.randint(1, 6)))
        return QuadScalar(
            Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 6)),
            d,
        )

    return Quaternion(scalar(), scalar(), scalar(), scalar())


def left_matrix(q: Quaternion):
    a, b, c, d = q.components
    return (
        (a, -b, -c, -d),
        (b, a, -d, c),
        (c, d, a, -b),
        (d, -c, b, a),
    )


def matrix_mul(m, n):
    return tuple(
        tuple(sum(m[r][t] * n[t][c] for t in range(4)) for c in range(4))
        for r in range(4)
    )


class TestHamiltonTable:
    def test_squares(self):
        assert I * I == -ONE
        assert J * J == -ONE
        assert K * K == -ONE

    def test_products(self):
        assert I * J == K
        assert J * K == I
        assert K * I == J
        assert J * I == -K
        assert K * J == -I
        assert I * K == -J

    def test_ijk(self):
        assert I * J * K == -ONE

    def test_half_unit_square(self):
        h1 = Quaternion(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert h1 * h1 == Quaternion(
            Fraction(-1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
        )


class TestAlgebra:
    def test_matches_matrix_representation(self):
        rng = random.Random(31415)
        for _ in range(600):
            d = rng.choice((1, 2, 5))
            p = random_quaternion(rng, d)
            q = random_quaternion(rng, d)
            assert left_matrix(p * q) == matrix_mul(left_matrix(p), left_matrix(q))

    def test_norm_is_multiplicative(self):
        rng = random.Random(2718)
        for _ in range(400):
            d = rng.choice((1, 2, 5))
            p = random_quaternion(rng, d)
            q = random_quaternion(rng, d)
            assert (p * q).norm() == p.norm() * q.norm()

    def test_conjugation_reverses_products(self):
        rng = random.Random(161803)
        for _ in range(400):
            p = random_quaternion(rng)
            q = random_quaternion(rng)
            assert (p * q).conjugate() == q.conjugate() * p.conjugate()

    def test_conjugate_recovers_scalar_and_norm(self):
        q = Quaternion(1, -2, 3, Fraction(1, 2))
        assert q + q.conjugate() == Quaternion(2, 0, 0, 0)
        assert q * q.conjugate() == Quaternion(q.norm(), 0, 0, 0)
        assert q.scalar_part() == QuadScalar(1)

    def test_inverse(self):
        rng = random.Random(55)
        checked = 0
        while checked < 200:
            q = random_quaternion(rng)
            if not q:
                continue
            assert q * q.inverse() == ONE
            assert q.inverse() * q == ONE
            checked += 1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_scalar_multiplication_and_division(self):
        q = Quaternion(1, 2, 3, 4)
        assert 2 * q == q * 2 == Quaternion(2, 4, 6, 8)
        assert q / 2 == Quaternion(Fraction(1, 2), 1, Fraction(3, 2), 2)
        assert Fraction(1, 3) * q == q / 3

    def test_addition_and_negation(self):
        p = Quaternion(1, 0, -1, 2)
        q = Quaternion(0, 1, 1, -2)
        assert p + q == Quaternion(1, 1, 0, 0)
        assert p - q == Quaternion(1, -1, -2, 4)
        assert -p + p == ZERO

    def test_field_tag_join(self):
        mixed = Quaternion(QuadScalar.sqrt(2), 0, 1, 0)
        assert mixed.d == 2
        assert Quaternion(1, 2, 3, 4).d == 1

    def test_field_mismatch_between_components(self):
        with pytest.raises(FieldMismatchError):
            Quaternion(QuadScalar.sqrt(2), QuadScalar.sqrt(5), 0, 0)

    def test_field_mismatch_between_operands(self):
        with pytest.raises(FieldMismatchError):
            Quaternion(QuadScalar.sqrt(2), 0, 0, 0) + Quaternion(
                QuadScalar.sqrt(5), 0, 0, 0
            )

    def test_rational_quaternions_mix_with_surd_fields(self):
        assert (I + Quaternion(QuadScalar.sqrt(5), 0, 0, 0)).d == 5

    def test_equality_and_hash(self):
        assert Quaternion(1, 0, 0, 0) == ONE
        assert hash(Quaternion(Fraction(2, 2), 0, 0, 0)) == hash(ONE)
        assert Quaternion(1, 0, 0, 0) != Quaternion(0, 1, 0, 0)

    @pytest.mark.parametrize(
        "value",
        [0, 1, Fraction(-1, 2), QuadScalar.sqrt(2), QuadScalar(Fraction(1, 4), Fraction(1, 4), 5)],
    )
    def test_scalar_quaternions_hash_like_their_scalar(self, value):
        q = Quaternion(value)
        assert q == value
        assert hash(q) == hash(value)
        assert {value: "x"}.get(q) == "x"


class TestTextForm:
    def test_canonical_string(self):
        assert str(Quaternion(1, -1, -1, -1)) == "(1, -1, -1, -1)"
        h1 = Quaternion(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert str(h1) == "(1/2, 1/2, 1/2, 1/2)"

    def test_parse_examples(self):
        assert parse_quaternion("(1,-1,0,0)") == Quaternion(1, -1, 0, 0)
        assert parse_quaternion(" ( 1/2 , 1/2 , 1/2 , 1/2 ) ") == Quaternion(
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
        )
        assert parse_quaternion("(0, 1/2*sqrt(2), 0, 1/2*sqrt(2))") == Quaternion(
            0, QuadScalar(0, Fraction(1, 2), 2), 0, QuadScalar(0, Fraction(1, 2), 2)
        )

    def test_round_trip_on_random_values(self):
        rng = random.Random(8128)
        for _ in range(1000):
            d = rng.choice((1, 2, 5))
            q = random_quaternion(rng, d)
            assert parse_quaternion(str(q)) == q

    @pytest.mark.parametrize(
        "text",
        ["", "1, 2, 3, 4", "(1, 2, 3)", "(1, 2, 3, 4, 5)", "(1, 2, 3, oops)"],
    )
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ScalarParseError):
            parse_quaternion(text)

    def test_parse_error_position_points_into_original_text(self):
        with pytest.raises(ScalarParseError) as excinfo:
            parse_quaternion("(1, 2, x, 4)")
        assert excinfo.value.position == 7
