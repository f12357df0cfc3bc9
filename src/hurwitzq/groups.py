"""Finite groups of unit quaternions: Q8, Q24, Q48, Q120, and closures.

Group elements are exact unit quaternions; the group law is Hamilton's
product and the inverse is conjugation.  Everything here is decided by
exact arithmetic: membership, closure, conjugacy, normality.

"Permutable" subgroup means normal subgroup: gH = Hg for every g, i.e.
the subgroup is a union of conjugacy classes.  The enumeration of normal
subgroups uses exactly that characterisation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import lcm

from . import quaternions
from .lattices import hamilton_units, hurwitz_units
from .quaternions import Quaternion
from .scalars import FieldMismatchError, QuadScalar


class GroupConstructionError(ValueError):
    """The given elements do not form a group under the Hamilton product."""


class ClosureCapError(RuntimeError):
    """A closure run grew past its element cap without stabilising."""


class NotASubgroupError(ValueError):
    """A subgroup-relative query was asked of a non-subgroup."""


def _cayley_table(elements, d: int) -> "tuple[tuple[int, ...], ...]":
    """The index table of ``elements`` under the Hamilton product, on ints.

    With ``s`` the lcm of every coefficient's denominator, each element is
    8 ints (a, b per component, the component being (a + b*sqrt(d))/s).  The
    product of two such tuples is over s**2, so elements are indexed by
    their ints times ``s`` and a product's key is looked up as computed.
    Only a miss builds a real Quaternion product, for the error message.
    """
    s = 1
    for q in elements:
        for c in q.components:
            s = lcm(s, c.rational.denominator, c.surd.denominator)
    coords = [
        tuple(int(part * s) for c in q.components for part in (c.rational, c.surd))
        for q in elements
    ]
    index = {tuple(s * v for v in ints): i for i, ints in enumerate(coords)}
    # Letters as in Quaternion.__mul__: a..d on the left, e..h on the right;
    # suffix 0 is a component's rational int, suffix 1 its surd int.
    table = []
    for p, (a0, a1, b0, b1, c0, c1, d0, d1) in zip(elements, coords):
        row = []
        for q, (e0, e1, f0, f1, g0, g1, h0, h1) in zip(elements, coords):
            idx = index.get((
                a0 * e0 - b0 * f0 - c0 * g0 - d0 * h0 + d * (a1 * e1 - b1 * f1 - c1 * g1 - d1 * h1),
                a0 * e1 + a1 * e0 - b0 * f1 - b1 * f0 - c0 * g1 - c1 * g0 - d0 * h1 - d1 * h0,
                a0 * f0 + b0 * e0 + c0 * h0 - d0 * g0 + d * (a1 * f1 + b1 * e1 + c1 * h1 - d1 * g1),
                a0 * f1 + a1 * f0 + b0 * e1 + b1 * e0 + c0 * h1 + c1 * h0 - d0 * g1 - d1 * g0,
                a0 * g0 - b0 * h0 + c0 * e0 + d0 * f0 + d * (a1 * g1 - b1 * h1 + c1 * e1 + d1 * f1),
                a0 * g1 + a1 * g0 - b0 * h1 - b1 * h0 + c0 * e1 + c1 * e0 + d0 * f1 + d1 * f0,
                a0 * h0 + b0 * g0 - c0 * f0 + d0 * e0 + d * (a1 * h1 + b1 * g1 - c1 * f1 + d1 * e1),
                a0 * h1 + a1 * h0 + b0 * g1 + b1 * g0 - c0 * f1 - c1 * f0 + d0 * e1 + d1 * e0,
            ))
            if idx is None:
                raise GroupConstructionError(f"not closed: {p} * {q} = {p * q} is missing")
            row.append(idx)
        table.append(tuple(row))
    return tuple(table)


class QGroup:
    """A finite group of unit quaternions, validated at construction.

    Elements are stored in a canonical order (sorted by their textual
    form), so two constructions of the same set are indistinguishable:
    same element order, same Cayley table, same reports.
    """

    def __init__(self, elements, name: "str | None" = None) -> None:
        unique = list(dict.fromkeys(elements))
        if not unique:
            raise GroupConstructionError("a group needs at least one element")
        tags = {q.d for q in unique} - {1}
        if len(tags) > 1:
            raise FieldMismatchError(
                f"group elements mix fields: {sorted(tags)}"
            )
        for q in unique:
            if q.norm() != QuadScalar(1):
                raise GroupConstructionError(f"element {q} does not have norm 1")
        unique.sort(key=str)
        self._elements = tuple(unique)
        self._d = tags.pop() if tags else 1
        self.name = name
        self._index = {q: i for i, q in enumerate(self._elements)}
        if quaternions.ONE not in self._index:
            raise GroupConstructionError("identity (1, 0, 0, 0) is missing")
        self._identity = self._index[quaternions.ONE]
        for q in self._elements:
            if q.conjugate() not in self._index:
                raise GroupConstructionError(f"inverse of {q} is missing")
        self._inverse = tuple(self._index[q.conjugate()] for q in self._elements)
        self._table = _cayley_table(self._elements, self._d)
        self._classes: "tuple[tuple[int, ...], ...] | None" = None

    @property
    def elements(self) -> "tuple[Quaternion, ...]":
        return self._elements

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def d(self) -> int:
        return self._d

    @property
    def identity_index(self) -> int:
        return self._identity

    def element(self, index: int) -> Quaternion:
        return self._elements[index]

    def index_of(self, q: Quaternion) -> int:
        try:
            return self._index[q]
        except KeyError:
            raise KeyError(f"{q} is not an element of this group") from None

    def cayley_table(self) -> "tuple[tuple[int, ...], ...]":
        """Index table: entry [i][j] is the index of element i * element j."""
        return self._table

    def product_index(self, i: int, j: int) -> int:
        return self._table[i][j]

    def inverse_index(self, i: int) -> int:
        return self._inverse[i]

    def is_latin_square(self) -> bool:
        """Every row and column of the Cayley table is a permutation."""
        full = set(range(self.order))
        for row in self._table:
            if set(row) != full:
                return False
        for j in range(self.order):
            if {row[j] for row in self._table} != full:
                return False
        return True

    def conjugacy_classes(self) -> "tuple[tuple[int, ...], ...]":
        """Conjugacy classes as sorted index tuples, by smallest member."""
        if self._classes is None:
            seen: set[int] = set()
            classes = []
            for start in range(self.order):
                if start in seen:
                    continue
                orbit = {
                    self._table[self._table[g][start]][self._inverse[g]]
                    for g in range(self.order)
                }
                seen.update(orbit)
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(classes)
        return self._classes

    def __contains__(self, q) -> bool:
        return q in self._index

    def __iter__(self):
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QGroup):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        label = self.name or "QGroup"
        return f"<{label} of order {self.order}>"


def closure(seed, cap: int = 240) -> QGroup:
    """The group generated by ``seed`` (unit quaternions), found by search.

    Products are taken in both orders until the set stabilises; the seed's
    conjugates are thrown in up front so inverses are present from the
    start.  Growing past ``cap`` elements raises :class:`ClosureCapError`.
    """
    if cap < 1:
        raise ValueError("cap must be a positive element budget")
    seeds = list(seed)
    for q in seeds:
        if q.norm() != QuadScalar(1):
            raise ValueError(f"closure seeds must have norm 1; {q} does not")
    elements = {quaternions.ONE}
    frontier = []
    for s in seeds:
        for q in (s, s.conjugate()):
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    if len(elements) > cap:
        raise ClosureCapError(f"closure exceeded cap={cap}")
    while frontier:
        fresh = []
        for q in frontier:
            for e in list(elements):
                for p in (q * e, e * q):
                    if p not in elements:
                        elements.add(p)
                        fresh.append(p)
                        if len(elements) > cap:
                            raise ClosureCapError(f"closure exceeded cap={cap}")
        frontier = fresh
    return QGroup(elements)


# The 12 even permutations of four positions, for the icosian coordinates.
_EVEN_PERMUTATIONS = tuple(
    p
    for p in permutations(range(4))
    if sum(1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b]) % 2 == 0
)


@cache
def group_q8() -> QGroup:
    """The quaternion group: the 8 Hamilton units."""
    return QGroup([atom.value for atom in hamilton_units()], name="q8")


@cache
def group_q24() -> QGroup:
    """The binary tetrahedral group: the 24 Hurwitz units."""
    return QGroup([atom.value for atom in hurwitz_units()], name="q24")


@cache
def group_q48() -> QGroup:
    """The binary octahedral group: Q24 plus the 24 units (+-e_a +- e_b)/sqrt(2)."""
    inv_sqrt2 = QuadScalar(0, Fraction(1, 2), 2)
    axes = (quaternions.ONE, quaternions.I, quaternions.J, quaternions.K)
    elements = [atom.value for atom in hurwitz_units()]
    for a in range(4):
        for b in range(a + 1, 4):
            for sa, sb in product((1, -1), repeat=2):
                elements.append((axes[a] * sa + axes[b] * sb) * inv_sqrt2)
    return QGroup(elements, name="q48")


@cache
def group_q120() -> QGroup:
    """The binary icosahedral group.

    Q24's 8 axis units and 16 half units, plus the 96 icosians obtained
    from (0, +-1, +-phi, +-1/phi)/2 by even permutations of coordinates,
    with phi the golden ratio (1 + sqrt(5))/2.
    """
    phi_half = QuadScalar(Fraction(1, 4), Fraction(1, 4), 5)
    phi_inv_half = QuadScalar(Fraction(-1, 4), Fraction(1, 4), 5)
    elements = [atom.value for atom in hurwitz_units()]
    for s1, s2, s3 in product((1, -1), repeat=3):
        magnitudes = (
            QuadScalar(0),
            QuadScalar(Fraction(s1, 2)),
            phi_half * s2,
            phi_inv_half * s3,
        )
        for perm in _EVEN_PERMUTATIONS:
            comp: "list[QuadScalar | None]" = [None] * 4
            for slot, target in enumerate(perm):
                comp[target] = magnitudes[slot]
            elements.append(Quaternion(*comp))
    return QGroup(elements, name="q120")


_NAMED_GROUPS = {
    "q8": group_q8,
    "q24": group_q24,
    "q48": group_q48,
    "q120": group_q120,
}


def named_group(name: str) -> QGroup:
    try:
        builder = _NAMED_GROUPS[name]
    except KeyError:
        raise KeyError(f"no group named {name!r}; known: {sorted(_NAMED_GROUPS)}") from None
    return builder()


def group_names() -> "tuple[str, ...]":
    return tuple(_NAMED_GROUPS)


def is_subgroup(h: QGroup, g: QGroup) -> bool:
    """True when every element of ``h`` lies in ``g``.

    ``h`` is already closed (it is a QGroup), so containment is enough.
    """
    if h.d not in (1, g.d):
        raise FieldMismatchError(
            f"sqrt({h.d}) elements cannot lie in a sqrt({g.d}) group"
        )
    return all(e in g for e in h)


def _subgroup_indices(h: QGroup, g: QGroup) -> "frozenset[int]":
    return frozenset(g.index_of(e) for e in h)


def is_permutable(h: QGroup, g: QGroup) -> bool:
    """Whether gH = Hg for every g, i.e. ``h`` is a normal subgroup of ``g``."""
    if not is_subgroup(h, g):
        raise NotASubgroupError(f"{h!r} is not a subgroup of {g!r}")
    members = _subgroup_indices(h, g)
    table = g.cayley_table()
    for gi in range(g.order):
        ginv = g.inverse_index(gi)
        for x in members:
            if table[table[gi][x]][ginv] not in members:
                return False
    return True


def normal_subgroups(g: QGroup) -> "list[QGroup]":
    """All normal subgroups of ``g``, smallest first.

    A normal subgroup is a union of conjugacy classes that contains the
    identity class, has order dividing |g|, and is closed under the
    product; candidates are enumerated directly from that description.
    """
    classes = g.conjugacy_classes()
    identity_class = next(c for c in classes if g.identity_index in c)
    others = [c for c in classes if c is not identity_class]
    table = g.cayley_table()
    found = []
    for mask in range(1 << len(others)):
        members = set(identity_class)
        for bit, cls in enumerate(others):
            if mask >> bit & 1:
                members.update(cls)
        if g.order % len(members):
            continue
        member_set = frozenset(members)
        if any(table[i][j] not in member_set for i in member_set for j in member_set):
            continue
        if len(member_set) == g.order:
            found.append(g)
        else:
            found.append(QGroup(g.element(i) for i in sorted(member_set)))
    found.sort(key=lambda sub: (sub.order, tuple(str(e) for e in sub.elements)))
    return found
