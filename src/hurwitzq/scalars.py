"""Exact arithmetic in the real quadratic fields Q(sqrt(d)), d in {1, 2, 5}.

Every value is a + b*sqrt(d) with exact rational coefficients.  Nothing in
this module (or anything built on it) touches floating point: equality,
arithmetic, and the canonical text form are all exact and decidable.
"""

from __future__ import annotations

import re
from fractions import Fraction

SUPPORTED_FIELDS = (1, 2, 5)


class FieldMismatchError(ValueError):
    """Raised when arithmetic would mix sqrt(2) and sqrt(5) quantities."""


class ScalarParseError(ValueError):
    """Malformed scalar text; ``position`` is the offset of the offending token."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class QuadScalar:
    """An exact element a + b*sqrt(d) of Q(sqrt(d)).

    Values are immutable and hashable.  A value whose irrational part is
    zero is normalised to the d=1 tag, so plain rationals compare equal no
    matter which field produced them, and a rational operand silently
    adapts to the other side's field.  Combining sqrt(2) with sqrt(5)
    raises :class:`FieldMismatchError`.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a=0, b=0, d: int = 1) -> None:
        if d not in SUPPORTED_FIELDS:
            raise ValueError(f"unsupported field Q(sqrt({d})); d must be one of {SUPPORTED_FIELDS}")
        a = _rational(a)
        b = _rational(b)
        if d == 1:
            a, b = a + b, Fraction(0)
        if not b:
            d = 1
            b = Fraction(0)
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_d", d)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QuadScalar is immutable")

    @classmethod
    def sqrt(cls, d: int) -> "QuadScalar":
        """The value sqrt(d) itself."""
        return cls(0, 1, d)

    @property
    def rational(self) -> Fraction:
        """The rational part a."""
        return self._a

    @property
    def surd(self) -> Fraction:
        """The coefficient b of sqrt(d)."""
        return self._b

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._b

    def is_integer(self) -> bool:
        """True for a plain rational integer."""
        return self.is_rational and self._a.denominator == 1

    def is_half_odd(self) -> bool:
        """True for an odd multiple of 1/2 (e.g. 1/2, -3/2)."""
        return self.is_rational and self._a.denominator == 2

    def to_fraction(self) -> Fraction:
        """This value as a Fraction; raises unless the surd part is zero."""
        if self._b:
            raise FieldMismatchError(f"{self} is irrational; it has no Fraction form")
        return self._a

    def field_conjugate(self) -> "QuadScalar":
        """The image a - b*sqrt(d) under the nontrivial field automorphism."""
        return QuadScalar(self._a, -self._b, self._d)

    def field_norm(self) -> Fraction:
        """The rational a^2 - d*b^2 (product with the field conjugate)."""
        return self._a * self._a - self._d * self._b * self._b

    def _join(self, other: "QuadScalar") -> int:
        if self._d == other._d:
            return self._d
        if self._d == 1:
            return other._d
        if other._d == 1:
            return self._d
        raise FieldMismatchError(
            f"cannot combine sqrt({self._d}) and sqrt({other._d}) quantities"
        )

    @staticmethod
    def _coerce(value) -> "QuadScalar | None":
        if isinstance(value, QuadScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadScalar(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._join(other)
        return QuadScalar(self._a + other._a, self._b + other._b, d)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._join(other)
        return QuadScalar(self._a - other._a, self._b - other._b, d)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return QuadScalar(-self._a, -self._b, self._d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._join(other)
        a = self._a * other._a + d * self._b * other._b
        b = self._a * other._b + self._b * other._a
        return QuadScalar(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        d = self._join(other)
        # 1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - d*b^2)
        norm = other.field_norm()
        inverse = QuadScalar(other._a / norm, -other._b / norm, d)
        return self * inverse

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        n = exponent
        if n < 0:
            base = QuadScalar(1) / base
            n = -n
        result = QuadScalar(1)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # A rational value (always tagged d=1) equals its Fraction, so it
        # must hash like one.
        if self._d == 1:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __str__(self) -> str:
        if self.is_rational:
            return str(self._a)
        surd = f"{abs(self._b)}*sqrt({self._d})"
        if not self._a:
            return surd if self._b > 0 else f"-{surd}"
        sign = "+" if self._b > 0 else "-"
        return f"{self._a}{sign}{surd}"

    def __repr__(self) -> str:
        if self._d == 1:
            return f"QuadScalar({self._a!r})"
        return f"QuadScalar({self._a!r}, {self._b!r}, {self._d})"


ZERO = QuadScalar(0)
ONE = QuadScalar(1)

_WS = re.compile(r"\s*")
_RATIONAL = re.compile(r"(-?\d+)(?:\s*/\s*(\d+))?")
_SQRT = re.compile(r"sqrt\(\s*(\d+)\s*\)")


def _parse_rational(text: str, pos: int, offset: int, signed: bool) -> "tuple[Fraction, int]":
    match = _RATIONAL.match(text, pos)
    if match is None:
        raise ScalarParseError("expected a rational number", offset + pos)
    if not signed and match.group(1).startswith("-"):
        raise ScalarParseError("expected an unsigned rational after the sign", offset + pos)
    numerator = int(match.group(1))
    if match.group(2) is not None:
        denominator = int(match.group(2))
        if denominator == 0:
            raise ScalarParseError("zero denominator", offset + pos)
        value = Fraction(numerator, denominator)
    else:
        value = Fraction(numerator)
    return value, match.end()


def _parse_term(text: str, pos: int, offset: int, signed: bool) -> "tuple[Fraction, int | None, int]":
    """One term: a rational, optionally followed by ``*sqrt(D)``.

    Returns (coefficient, D or None, position after the term).
    """
    coefficient, pos = _parse_rational(text, pos, offset, signed)
    pos = _WS.match(text, pos).end()
    if pos < len(text) and text[pos] == "*":
        pos = _WS.match(text, pos + 1).end()
        match = _SQRT.match(text, pos)
        if match is None:
            raise ScalarParseError("expected sqrt(D) after '*'", offset + pos)
        d = int(match.group(1))
        if d not in SUPPORTED_FIELDS:
            raise ScalarParseError(f"unsupported field sqrt({d})", offset + pos)
        return coefficient, d, match.end()
    return coefficient, None, pos


def parse_scalar(text: str, *, offset: int = 0) -> QuadScalar:
    """Parse the canonical scalar form: ``a/b`` or ``a/b+c/e*sqrt(D)``.

    Either term may appear alone; whitespace around tokens is ignored.
    ``offset`` shifts reported error positions, for callers that parse a
    scalar embedded in a larger string.
    """
    pos = _WS.match(text, 0).end()
    if pos == len(text):
        raise ScalarParseError("empty scalar", offset + pos)
    rational: Fraction | None = None
    surd: "tuple[Fraction, int] | None" = None

    coefficient, d, pos = _parse_term(text, pos, offset, signed=True)
    if d is None:
        rational = coefficient
    else:
        surd = (coefficient, d)

    pos = _WS.match(text, pos).end()
    if pos < len(text) and text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        sign_pos = pos
        pos = _WS.match(text, pos + 1).end()
        coefficient, d, pos = _parse_term(text, pos, offset, signed=False)
        coefficient *= sign
        if d is None:
            if rational is not None:
                raise ScalarParseError("two rational terms", offset + sign_pos)
            rational = coefficient
        else:
            if surd is not None:
                raise ScalarParseError("two sqrt terms", offset + sign_pos)
            surd = (coefficient, d)
        pos = _WS.match(text, pos).end()

    if pos != len(text):
        raise ScalarParseError(f"unexpected character {text[pos]!r}", offset + pos)

    a = rational if rational is not None else Fraction(0)
    if surd is None:
        return QuadScalar(a)
    return QuadScalar(a, surd[0], surd[1])
