"""Exact quaternions w + x*i + y*j + z*k over the quadratic scalars.

The product is Hamilton's: i^2 = j^2 = k^2 = ijk = -1, so ij = k = -ji and
cyclically.  Conjugation negates the vector part and reverses products;
the norm w^2 + x^2 + y^2 + z^2 is multiplicative.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import FieldMismatchError, QuadScalar, ScalarParseError, parse_scalar


def _component(value) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return QuadScalar(value)
    raise TypeError(f"quaternion components must be exact scalars, got {type(value).__name__}")


class Quaternion:
    """An exact quaternion with components in a single Q(sqrt(d)).

    Components may mix plain rationals with one irrational field; two
    different irrational fields in one quaternion (or one product) raise
    :class:`FieldMismatchError`.
    """

    __slots__ = ("_w", "_x", "_y", "_z", "_d")

    def __init__(self, w=0, x=0, y=0, z=0) -> None:
        w, x, y, z = _component(w), _component(x), _component(y), _component(z)
        tags = {c.d for c in (w, x, y, z)} - {1}
        if len(tags) > 1:
            raise FieldMismatchError(
                f"components mix fields: sqrt({min(tags)}) and sqrt({max(tags)})"
            )
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "_y", y)
        object.__setattr__(self, "_z", z)
        object.__setattr__(self, "_d", tags.pop() if tags else 1)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Quaternion is immutable")

    @property
    def w(self) -> QuadScalar:
        return self._w

    @property
    def x(self) -> QuadScalar:
        return self._x

    @property
    def y(self) -> QuadScalar:
        return self._y

    @property
    def z(self) -> QuadScalar:
        return self._z

    @property
    def d(self) -> int:
        """The field tag shared by all components (1 if all rational)."""
        return self._d

    @property
    def components(self) -> "tuple[QuadScalar, QuadScalar, QuadScalar, QuadScalar]":
        return (self._w, self._x, self._y, self._z)

    def _check_field(self, other: "Quaternion") -> None:
        if self._d != 1 and other._d != 1 and self._d != other._d:
            raise FieldMismatchError(
                f"cannot combine sqrt({self._d}) and sqrt({other._d}) quaternions"
            )

    @staticmethod
    def _coerce(value) -> "Quaternion | None":
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, (QuadScalar, int, Fraction)):
            return Quaternion(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_field(other)
        return Quaternion(
            self._w + other._w, self._x + other._x, self._y + other._y, self._z + other._z
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_field(other)
        return Quaternion(
            self._w - other._w, self._x - other._x, self._y - other._y, self._z - other._z
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self._w, -self._x, -self._y, -self._z)

    def __mul__(self, other):
        if isinstance(other, (QuadScalar, int, Fraction)):
            s = _component(other)
            return Quaternion(self._w * s, self._x * s, self._y * s, self._z * s)
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._check_field(other)
        a, b, c, d = self._w, self._x, self._y, self._z
        e, f, g, h = other._w, other._x, other._y, other._z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other):
        if isinstance(other, (QuadScalar, int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (QuadScalar, int, Fraction)):
            s = _component(other)
            return Quaternion(self._w / s, self._x / s, self._y / s, self._z / s)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        """w - x*i - y*j - z*k; reverses products and fixes the norm."""
        return Quaternion(self._w, -self._x, -self._y, -self._z)

    def scalar_part(self) -> QuadScalar:
        """The w component, equal to (q + conj(q)) / 2."""
        return self._w

    def norm(self) -> QuadScalar:
        """The squared length w^2 + x^2 + y^2 + z^2 (multiplicative)."""
        return self._w * self._w + self._x * self._x + self._y * self._y + self._z * self._z

    def inverse(self) -> "Quaternion":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("zero quaternion has no inverse")
        conj = self.conjugate()
        return Quaternion(conj._w / n, conj._x / n, conj._y / n, conj._z / n)

    def __bool__(self) -> bool:
        return bool(self._w) or bool(self._x) or bool(self._y) or bool(self._z)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (
            self._w == other._w
            and self._x == other._x
            and self._y == other._y
            and self._z == other._z
        )

    def __hash__(self) -> int:
        # With no vector part the value equals its scalar, so it hashes like one.
        if not (self._x or self._y or self._z):
            return hash(self._w)
        return hash((self._w, self._x, self._y, self._z))

    def __str__(self) -> str:
        return f"({self._w}, {self._x}, {self._y}, {self._z})"

    def __repr__(self) -> str:
        return f"Quaternion({self._w}, {self._x}, {self._y}, {self._z})"


ZERO = Quaternion(0, 0, 0, 0)
ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def parse_quaternion(text: str) -> Quaternion:
    """Parse the canonical form ``(w, x, y, z)`` with scalar components.

    Error positions refer to offsets in ``text`` itself.
    """
    stripped_start = len(text) - len(text.lstrip())
    body = text.strip()
    if not body.startswith("("):
        raise ScalarParseError("expected '('", stripped_start)
    if not body.endswith(")"):
        raise ScalarParseError("expected ')'", stripped_start + len(body))
    inner = body[1:-1]
    parts = inner.split(",")
    if len(parts) != 4:
        raise ScalarParseError(f"expected 4 components, got {len(parts)}", stripped_start)
    components = []
    offset = stripped_start + 1
    for part in parts:
        components.append(parse_scalar(part, offset=offset))
        offset += len(part) + 1
    return Quaternion(*components)
