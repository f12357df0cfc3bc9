"""Expressing particle charges in Hurwitz units, by exhaustive search.

Three searches cover everything: unordered unit pairs summing to a
target, ordered unit pairs whose difference is a target, and the
isospin-doublet search that asks one shared unit H_n and one flipped
unit H_m to satisfy up = H_n + H_m and down = H_n + conj(H_m)
simultaneously.  Each search is exhaustive over the 24 x 24 pair space
but takes it one first unit at a time: the target fixes the only
possible partner, which is looked up by value.  So each search costs
24 lookups, and pairs come out in the order of a full scan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import quaternions
from .lattices import (
    UnitAtom,
    conjugate_unit,
    hurwitz_units,
    negate_unit,
    unit_for_value,
    unit_named,
)
from .particles import VerificationError, antiparticle_name, particle, registry
from .quaternions import Quaternion
from .scalars import FieldMismatchError


def _require_rational(q: Quaternion) -> None:
    if q.d != 1:
        raise FieldMismatchError("decomposition targets must be rational quaternions")


@dataclass(frozen=True)
class Decomposition:
    """All unit pairs that sum to ``target`` (unordered) or differ by it (ordered)."""

    target: Quaternion
    pairs: "tuple[tuple[UnitAtom, UnitAtom], ...]"

    @property
    def multiplicity(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class DoubletAssignment:
    """A fermion doublet written over one shared and one flipped unit.

    charge(up) = shared + flipped and charge(down) = shared + conj(flipped).
    """

    up_name: str
    down_name: str
    shared: UnitAtom
    flipped: UnitAtom


def sum_decompositions(target: Quaternion) -> Decomposition:
    """Every unordered pair of Hurwitz units summing to ``target``.

    Pairs are deduplicated under swap; a degenerate pair {a, a} is
    counted once.
    """
    _require_rational(target)
    units = hurwitz_units()
    position = {atom.name: i for i, atom in enumerate(units)}
    pairs = []
    for i, a in enumerate(units):
        b = unit_for_value(target - a.value)
        if b is not None and position[b.name] >= i:
            pairs.append((a, b))
    return Decomposition(target=target, pairs=tuple(pairs))


def diff_decompositions(target: Quaternion) -> Decomposition:
    """Every ordered pair of Hurwitz units with a - b = ``target``."""
    _require_rational(target)
    pairs = []
    for a in hurwitz_units():
        b = unit_for_value(a.value - target)
        if b is not None:
            pairs.append((a, b))
    return Decomposition(target=target, pairs=tuple(pairs))


def doublet_search(up: Quaternion, down: Quaternion) -> "list[tuple[UnitAtom, UnitAtom]]":
    """All (shared, flipped) unit pairs realising an isospin doublet.

    Requires shared + flipped = ``up`` and shared + conj(flipped) =
    ``down`` simultaneously; an empty list is a valid result.
    """
    _require_rational(up)
    _require_rational(down)
    pairs = []
    for n in hurwitz_units():
        m = unit_for_value(up - n.value)
        if m is not None and n.value + m.value.conjugate() == down:
            pairs.append((n, m))
    return pairs


_DOUBLET_NAMES = (("nu", "e-"), ("u_R", "d_R"), ("u_B", "d_B"), ("u_G", "d_G"))
_EXPECTED_SHARED = ("h8", "h5", "h3", "h2")

# Canonical gluon differences; the antigluon rows are the termwise
# sign flips of these.
_GLUON_CANONICAL = (
    ("g_BbarG", "h6", "h7"),
    ("g_GbarR", "h7", "h4"),
    ("g_RbarB", "h4", "h6"),
)


@dataclass(frozen=True)
class Table3Assignments:
    """The canonical unit expressions behind the charge table."""

    doublets: "tuple[DoubletAssignment, ...]"
    w_plus: "tuple[UnitAtom, UnitAtom]"
    w_minus: "tuple[UnitAtom, UnitAtom]"
    #: Each canonical gluon (name, a, b) is followed by its antigluon (name, b, a).
    gluons: "tuple[tuple[str, UnitAtom, UnitAtom], ...]"


def table3_assignments() -> Table3Assignments:
    """Run the doublet searches and attach the boson decompositions.

    Every identity is re-verified by exact arithmetic; a doublet search
    returning anything but exactly one assignment is an error.
    """
    doublets = []
    for (up_name, down_name), expected in zip(_DOUBLET_NAMES, _EXPECTED_SHARED):
        matches = doublet_search(particle(up_name).charge, particle(down_name).charge)
        if len(matches) != 1:
            raise VerificationError(
                f"doublet ({up_name}, {down_name}): expected exactly one "
                f"assignment, found {len(matches)}"
            )
        shared, flipped = matches[0]
        if shared.name != expected or flipped.name != "h1":
            raise VerificationError(
                f"doublet ({up_name}, {down_name}): found ({shared}, {flipped}), "
                f"expected ({expected}, h1)"
            )
        doublets.append(
            DoubletAssignment(
                up_name=up_name, down_name=down_name, shared=shared, flipped=flipped
            )
        )

    h1, h8 = unit_named("h1"), unit_named("h8")
    w_plus, w_minus = (h1, h8), (h8, h1)
    if h1.value - h8.value != particle("W+").charge:
        raise VerificationError("W+ is not h1 - h8")
    if h8.value - h1.value != particle("W-").charge:
        raise VerificationError("W- is not h8 - h1")

    gluons = []
    for name, a_name, b_name in _GLUON_CANONICAL:
        a, b = unit_named(a_name), unit_named(b_name)
        if a.value - b.value != particle(name).charge:
            raise VerificationError(f"{name} is not {a_name} - {b_name}")
        gluons.append((name, a, b))
        anti = antiparticle_name(name)
        if b.value - a.value != particle(anti).charge:
            raise VerificationError(f"{anti} is not {b_name} - {a_name}")
        gluons.append((anti, b, a))

    return Table3Assignments(
        doublets=tuple(doublets),
        w_plus=w_plus,
        w_minus=w_minus,
        gluons=tuple(gluons),
    )


_TERM_FIRST = re.compile(r"\s*([+-]?)\s*(?:conj\(\s*([^()\s]+)\s*\)|([^+\-\s()]+))")
_TERM_NEXT = re.compile(r"\s*([+-])\s*(?:conj\(\s*([^()\s]+)\s*\)|([^+\-\s()]+))")


def evaluate_unit_expression(expression: str) -> Quaternion:
    """Evaluate a signed sum of unit names, e.g. ``+h5+conj(h1)``.

    The empty expression denotes the zero quaternion.
    """
    if not expression.strip():
        return quaternions.ZERO
    total = quaternions.ZERO
    pos = 0
    pattern = _TERM_FIRST
    while pos < len(expression):
        match = pattern.match(expression, pos)
        if match is None:
            raise ValueError(f"bad unit expression {expression!r} at offset {pos}")
        sign = -1 if match.group(1) == "-" else 1
        name = match.group(2) or match.group(3)
        try:
            value = unit_named(name).value
        except KeyError:
            raise ValueError(
                f"bad unit expression {expression!r}: unknown unit {name!r}"
            ) from None
        if match.group(2):
            value = value.conjugate()
        total = total + value * sign
        pos = match.end()
        pattern = _TERM_NEXT
        while pos < len(expression) and expression[pos].isspace():
            pos += 1
    return total


_SIGN_FLIP = str.maketrans("+-", "-+")


def _negated(expression: str) -> str:
    """The termwise sign flip of a unit expression: its antiparticle's."""
    flipped = expression.translate(_SIGN_FLIP)
    return flipped if flipped[:1] in ("+", "-") else f"-{flipped}"


@dataclass(frozen=True)
class Table3Row:
    name: str
    charge: Quaternion
    expression: str


def table3_rows() -> "list[Table3Row]":
    """The full charge table with unit expressions, in registry order.

    Expressions are regenerated from the searched assignments and then
    re-verified against each row's charge; the neutral bosons get an
    empty expression, and every antiparticle row is the termwise sign
    flip of its particle's.  The neutrino row is written as the
    simplified 1 (h8 + h1 collapses to 1).
    """
    assignments = table3_assignments()
    canonical = {"W+": "+i+j+k"}
    for name, a, b in assignments.gluons[::2]:
        canonical[name] = f"+{a}-{b}"
    for doublet in assignments.doublets:
        n, m = doublet.shared, doublet.flipped
        canonical[doublet.up_name] = "1" if doublet.up_name == "nu" else f"+{n}+{m}"
        canonical[doublet.down_name] = f"+{n}+conj({m})"
    expressions = {name: "" for name in ("gamma", "Z0", "g_CbarC", "g_CCbar")}
    for name, expression in canonical.items():
        expressions[name] = expression
        expressions[antiparticle_name(name)] = _negated(expression)

    rows = []
    for row in registry():
        expression = expressions[row.name]
        if evaluate_unit_expression(expression) != row.charge:
            raise VerificationError(
                f"expression {expression!r} does not evaluate to the charge of {row.name}"
            )
        rows.append(Table3Row(name=row.name, charge=row.charge, expression=expression))
    return rows


@dataclass(frozen=True)
class ExclusionCheck:
    """One conjugate-combination identity and its registry exclusion."""

    expression: str
    value: Quaternion
    conjugate_of: str
    matches: bool
    excluded: bool

    @property
    def passed(self) -> bool:
        return self.matches and self.excluded


_EXCLUSION_IDENTITIES = (
    ("h4", False, "d_R"),
    ("h4", True, "u_R"),
    ("h6", False, "d_B"),
    ("h6", True, "u_B"),
    ("h7", False, "d_G"),
    ("h7", True, "u_G"),
)


def conjugate_exclusions() -> "list[ExclusionCheck]":
    """The six conjugate combinations that name no actual particle.

    Each h4/h6/h7 combination with h1 (or conj(h1)) equals the
    conjugate of a quark charge, and none of those conjugates occurs as
    a registry charge.  Any failure raises; the report is returned for
    display.
    """
    charges = {row.charge for row in registry()}
    checks = []
    for base, use_conj, name in _EXCLUSION_IDENTITIES:
        expression = f"+{base}+conj(h1)" if use_conj else f"+{base}+h1"
        value = evaluate_unit_expression(expression)
        expected = particle(name).charge.conjugate()
        checks.append(
            ExclusionCheck(
                expression=expression,
                value=value,
                conjugate_of=name,
                matches=value == expected,
                excluded=value not in charges,
            )
        )
    bad = [c.expression for c in checks if not c.passed]
    if bad:
        raise VerificationError(f"conjugate exclusions fail for: {', '.join(bad)}")
    return checks


@dataclass(frozen=True)
class CoverageReport:
    """Which of the 24 units the canonical table expressions use."""

    sources: "tuple[tuple[str, tuple[str, ...]], ...]"

    def units_used_by(self, source: str) -> "set[str]":
        return {name for name, tags in self.sources if source in tags}

    @property
    def missing(self) -> "list[str]":
        return [name for name, tags in self.sources if not tags]

    @property
    def complete(self) -> bool:
        return not self.missing


def unit_coverage_report() -> CoverageReport:
    """Tally unit usage across the table expressions; all 24 must appear.

    Fermion rows contribute their doublet units (and the negations, via
    the antifermion rows); the neutrino rows contribute 1 and -1; the W
    rows contribute both sides of the identity +-(h1 - h8) = +-(i+j+k);
    the gluon rows contribute the h4/h6/h7 differences.
    """
    assignments = table3_assignments()
    used: "dict[str, set[str]]" = {atom.name: set() for atom in hurwitz_units()}

    def mark(atom: UnitAtom, source: str) -> None:
        used[atom.name].add(source)
        used[negate_unit(atom).name].add(source)

    for doublet in assignments.doublets:
        for atom in (doublet.shared, doublet.flipped, conjugate_unit(doublet.flipped)):
            mark(atom, "doublets")
    mark(unit_named("1"), "neutrino")
    for name in ("h1", "h8", "i", "j", "k"):
        mark(unit_named(name), "w-bosons")
    for _, a, b in assignments.gluons:
        mark(a, "gluons")
        mark(b, "gluons")

    report = CoverageReport(
        sources=tuple((name, tuple(sorted(tags))) for name, tags in used.items())
    )
    if not report.complete:
        raise VerificationError(f"units never used: {', '.join(report.missing)}")
    return report
