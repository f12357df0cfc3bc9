"""The Hurwitz integers, their 24 units, and the 81 trit quaternions.

A Hurwitz integer has components that are all integers or all odd
multiples of 1/2.  Its units (norm-1 elements) are the 8 Hamilton units
+-1, +-i, +-j, +-k together with the 16 half-integer units
(+-1 +- i +- j +- k)/2, named h1..h8 and -h1..-h8 here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import quaternions
from .quaternions import Quaternion
from .scalars import FieldMismatchError

HALF = Fraction(1, 2)

# h1..h8 all have +1/2 real part; the vector signs run through the eight
# patterns below, in this order.
_H_SIGNS = (
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, -1, -1),
    (-1, 1, 1),
    (-1, 1, -1),
    (-1, -1, 1),
    (-1, -1, -1),
)


@dataclass(frozen=True)
class UnitAtom:
    """A named unit: one of the 24 Hurwitz units with its display name."""

    name: str
    value: Quaternion

    def __str__(self) -> str:
        return self.name


def _build_units() -> "tuple[UnitAtom, ...]":
    atoms = [
        UnitAtom("1", quaternions.ONE),
        UnitAtom("-1", -quaternions.ONE),
        UnitAtom("i", quaternions.I),
        UnitAtom("-i", -quaternions.I),
        UnitAtom("j", quaternions.J),
        UnitAtom("-j", -quaternions.J),
        UnitAtom("k", quaternions.K),
        UnitAtom("-k", -quaternions.K),
    ]
    halves = [
        Quaternion(HALF, sx * HALF, sy * HALF, sz * HALF) for sx, sy, sz in _H_SIGNS
    ]
    atoms.extend(UnitAtom(f"h{n}", q) for n, q in enumerate(halves, start=1))
    atoms.extend(UnitAtom(f"-h{n}", -q) for n, q in reversed(list(enumerate(halves, start=1))))
    return tuple(atoms)


_UNITS = _build_units()
_BY_NAME = {atom.name: atom for atom in _UNITS}
_BY_VALUE = {atom.value: atom for atom in _UNITS}


def hurwitz_units() -> "list[UnitAtom]":
    """All 24 units, in the fixed display order (Hamilton units first)."""
    return list(_UNITS)


def hamilton_units() -> "list[UnitAtom]":
    """The 8 units +-1, +-i, +-j, +-k."""
    return list(_UNITS[:8])


def unit_named(name: str) -> UnitAtom:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no unit named {name!r}") from None


def unit_for_value(q: Quaternion) -> "UnitAtom | None":
    """The named unit with this exact value, or None."""
    return _BY_VALUE.get(q)


def negate_unit(atom: UnitAtom) -> UnitAtom:
    return _BY_VALUE[-atom.value]


def conjugate_unit(atom: UnitAtom) -> UnitAtom:
    return _BY_VALUE[atom.value.conjugate()]


def is_hurwitz_integer(q: Quaternion) -> bool:
    """True when all components are integers or all are odd halves."""
    if q.d != 1:
        raise FieldMismatchError("Hurwitz integers live in the rational quaternions")
    fractions = [c.rational for c in q.components]
    return all(f.denominator == 1 for f in fractions) or all(
        f.denominator == 2 for f in fractions
    )


@dataclass(frozen=True)
class TritQuaternion:
    """A quaternion with every component in {-1, 0, +1}, plus sign counts."""

    value: Quaternion
    pos_count: int
    neg_count: int

    @classmethod
    def from_components(cls, w: int, x: int, y: int, z: int) -> "TritQuaternion":
        components = (w, x, y, z)
        if any(c not in (-1, 0, 1) for c in components):
            raise ValueError(f"components must be trits in -1..1, got {components}")
        return cls(
            value=Quaternion(w, x, y, z),
            pos_count=sum(1 for c in components if c == 1),
            neg_count=sum(1 for c in components if c == -1),
        )


def trit_quaternions() -> "list[TritQuaternion]":
    """All 81 trit quaternions, in lexicographic component order."""
    return [
        TritQuaternion.from_components(w, x, y, z)
        for w, x, y, z in product((-1, 0, 1), repeat=4)
    ]


def satisfies_parity_rule(t: TritQuaternion) -> bool:
    """The sign-count rule: both counts must lie in {0, 1, 3}.

    Any object with ``pos_count`` and ``neg_count`` is judged the same
    way, so the registry's parity report shares this one rule.
    """
    allowed = (0, 1, 3)
    return t.pos_count in allowed and t.neg_count in allowed


def parity_survivors() -> "list[TritQuaternion]":
    return [t for t in trit_quaternions() if satisfies_parity_rule(t)]


def conjugation_classes(items: "list[TritQuaternion]") -> "list[list[TritQuaternion]]":
    """Partition ``items`` into {t, conj(t)} classes, preserving order.

    A class is a singleton when conj(t) equals t or is absent from
    ``items``.
    """
    by_value = {t.value: t for t in items}
    seen: set[Quaternion] = set()
    classes: list[list[TritQuaternion]] = []
    for t in items:
        if t.value in seen:
            continue
        cls = [t]
        seen.add(t.value)
        partner = by_value.get(t.value.conjugate())
        if partner is not None and partner.value not in seen:
            cls.append(partner)
            seen.add(partner.value)
        classes.append(cls)
    return classes
