"""The particle registry and its quantum-number bookkeeping.

Each of the 28 rows carries a quaternion charge.  Two numbers are
computed from it and never stored: the fermion number F_nb = scal(q),
and the electric charge Z_el = (1/3) scal(e * conj(q)) with e = i+j+k,
which works out to (x+y+z)/3.  The baryon number N and isospin
projection I_z are transcribed constants, cross-checked at load time
against the Gell-Mann--Nishijima-style relation Z_el = N/2 + I_z
(the "Heisenberg formula").

The vertex checker settles conservation questions by exact quaternion
arithmetic: a vertex balances iff the oriented sum of its leg charges
is the zero quaternion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from . import quaternions
from .groups import group_q24, group_q48
from .lattices import is_hurwitz_integer, satisfies_parity_rule
from .quaternions import Quaternion
from .scalars import FieldMismatchError, QuadScalar


class VerificationError(AssertionError):
    """An exact identity that must hold on a correct build failed."""


class UnknownParticleError(KeyError):
    """A vertex leg or lookup named a particle that is not in the registry."""


#: The fixed vector e = i + j + k entering the electric-charge formula.
CHARGE_VECTOR = Quaternion(0, 1, 1, 1)


def fermion_number(q: Quaternion) -> Fraction:
    """The scalar part of a rational quaternion charge."""
    if q.d != 1:
        raise FieldMismatchError("fermion number is defined for rational quaternions")
    return q.scalar_part().to_fraction()


def electric_charge(q: Quaternion) -> "Fraction | QuadScalar":
    """One third of scal(e * conj(q)), i.e. (x + y + z)/3.

    Rational inputs give a Fraction; quadratic-field inputs give the
    exact QuadScalar.
    """
    s = (CHARGE_VECTOR * q.conjugate()).scalar_part() / 3
    return s.to_fraction() if s.d == 1 else s


@dataclass(frozen=True)
class Particle:
    """One registry row.  All quantum numbers are exact rationals."""

    name: str
    category: str  # gauge-boson | fermion | antifermion
    charge: Quaternion
    fermion_number: Fraction
    electric_charge: Fraction
    baryon_number: Fraction
    isospin_z: Fraction


_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)

# Transcribed rows: name, category, charge components, N, I_z.
# F_nb and Z_el are computed, never transcribed.
_RAW_ROWS = (
    ("gamma", "gauge-boson", (0, 0, 0, 0), Fraction(0), Fraction(0)),
    ("Z0", "gauge-boson", (0, 0, 0, 0), Fraction(0), Fraction(0)),
    ("g_CbarC", "gauge-boson", (0, 0, 0, 0), Fraction(0), Fraction(0)),
    ("g_CCbar", "gauge-boson", (0, 0, 0, 0), Fraction(0), Fraction(0)),
    ("W-", "gauge-boson", (0, -1, -1, -1), Fraction(0), Fraction(-1)),
    ("W+", "gauge-boson", (0, 1, 1, 1), Fraction(0), Fraction(1)),
    ("g_BbarG", "gauge-boson", (0, 0, 1, -1), Fraction(0), Fraction(0)),
    ("g_GbarR", "gauge-boson", (0, -1, 0, 1), Fraction(0), Fraction(0)),
    ("g_RbarB", "gauge-boson", (0, 1, -1, 0), Fraction(0), Fraction(0)),
    ("g_GbarB", "gauge-boson", (0, 0, -1, 1), Fraction(0), Fraction(0)),
    ("g_RbarG", "gauge-boson", (0, 1, 0, -1), Fraction(0), Fraction(0)),
    ("g_BbarR", "gauge-boson", (0, -1, 1, 0), Fraction(0), Fraction(0)),
    ("nu", "fermion", (1, 0, 0, 0), Fraction(-1), _HALF),
    ("e-", "fermion", (1, -1, -1, -1), Fraction(-1), -_HALF),
    ("u_R", "fermion", (1, 0, 1, 1), _THIRD, _HALF),
    ("u_B", "fermion", (1, 1, 0, 1), _THIRD, _HALF),
    ("u_G", "fermion", (1, 1, 1, 0), _THIRD, _HALF),
    ("d_R", "fermion", (1, -1, 0, 0), _THIRD, -_HALF),
    ("d_B", "fermion", (1, 0, -1, 0), _THIRD, -_HALF),
    ("d_G", "fermion", (1, 0, 0, -1), _THIRD, -_HALF),
    ("nubar", "antifermion", (-1, 0, 0, 0), Fraction(1), -_HALF),
    ("e+", "antifermion", (-1, 1, 1, 1), Fraction(1), _HALF),
    ("ubar_R", "antifermion", (-1, 0, -1, -1), -_THIRD, -_HALF),
    ("ubar_B", "antifermion", (-1, -1, 0, -1), -_THIRD, -_HALF),
    ("ubar_G", "antifermion", (-1, -1, -1, 0), -_THIRD, -_HALF),
    ("dbar_R", "antifermion", (-1, 1, 0, 0), -_THIRD, _HALF),
    ("dbar_B", "antifermion", (-1, 0, 1, 0), -_THIRD, _HALF),
    ("dbar_G", "antifermion", (-1, 0, 0, 1), -_THIRD, _HALF),
)


@cache
def _registry() -> "tuple[Particle, ...]":
    rows = []
    for name, category, components, baryon, isospin in _RAW_ROWS:
        charge = Quaternion(*components)
        row = Particle(
            name=name,
            category=category,
            charge=charge,
            fermion_number=fermion_number(charge),
            electric_charge=electric_charge(charge),
            baryon_number=baryon,
            isospin_z=isospin,
        )
        rows.append(row)
    heisenberg_consistency(rows)
    if len({row.name for row in rows}) != len(rows):
        raise VerificationError("registry names are not unique")
    return tuple(rows)


def registry() -> "list[Particle]":
    """All 28 rows, in table order (bosons, fermions, antifermions)."""
    return list(_registry())


def particle(name: str, rows: "list[Particle] | None" = None) -> Particle:
    for row in rows if rows is not None else _registry():
        if row.name == name:
            return row
    raise UnknownParticleError(f"no particle named {name!r}")


def corrupted_registry() -> "list[Particle]":
    """A copy of the registry with one deliberately wrong quantum number.

    Exists so the verification suite can demonstrate that it actually
    detects inconsistencies.
    """
    rows = registry()
    victim = rows[13]  # e-
    rows[13] = replace(victim, electric_charge=victim.electric_charge + 1)
    return rows


@dataclass(frozen=True)
class FormulaCheck:
    """One row of the Z_el = N/2 + I_z consistency report."""

    name: str
    electric_charge: Fraction
    half_baryon_plus_isospin: Fraction

    @property
    def passed(self) -> bool:
        return self.electric_charge == self.half_baryon_plus_isospin


def heisenberg_report(rows: "list[Particle] | None" = None) -> "list[FormulaCheck]":
    """Both sides of the charge formula for every row; never raises."""
    checks = []
    for row in rows if rows is not None else _registry():
        checks.append(
            FormulaCheck(
                name=row.name,
                electric_charge=row.electric_charge,
                half_baryon_plus_isospin=row.baryon_number / 2 + row.isospin_z,
            )
        )
    return checks


def heisenberg_consistency(rows: "list[Particle] | None" = None) -> "list[FormulaCheck]":
    """The charge-formula report, raising if any row fails."""
    checks = heisenberg_report(rows)
    bad = [c.name for c in checks if not c.passed]
    if bad:
        raise VerificationError("Z_el = N/2 + I_z fails for: " + ", ".join(bad))
    return checks


@dataclass(frozen=True)
class ParityCheck:
    """Sign counts of one nonzero charge, against the {0, 1, 3} rule."""

    name: str
    pos_count: int
    neg_count: int

    @property
    def passed(self) -> bool:
        return satisfies_parity_rule(self)


def verify_parity_rule(rows: "list[Particle] | None" = None) -> "list[ParityCheck]":
    """Sign-count report over the 24 rows with nonzero charge."""
    checks = []
    for row in rows if rows is not None else _registry():
        if not row.charge:
            continue
        components = [c.rational for c in row.charge.components]
        checks.append(
            ParityCheck(
                name=row.name,
                pos_count=sum(1 for c in components if c > 0),
                neg_count=sum(1 for c in components if c < 0),
            )
        )
    return checks


@dataclass(frozen=True)
class Vertex:
    """An interaction vertex: named legs, each oriented in or out."""

    label: str
    legs: "tuple[tuple[str, str], ...]"

    def __post_init__(self) -> None:
        if len(self.legs) < 2:
            raise ValueError(f"vertex {self.label!r} needs at least 2 legs")
        for name, orientation in self.legs:
            if orientation not in ("in", "out"):
                raise ValueError(f"bad orientation {orientation!r} on leg {name!r}")

    def flipped(self) -> "Vertex":
        """The crossed vertex: every in-leg becomes out and vice versa."""
        swapped = tuple(
            (name, "out" if orientation == "in" else "in") for name, orientation in self.legs
        )
        return Vertex(label=f"{self.label} [crossed]", legs=swapped)


@dataclass(frozen=True)
class VertexCheck:
    vertex: Vertex
    residual: Quaternion

    @property
    def passed(self) -> bool:
        return not self.residual


def check_vertex(vertex: Vertex, rows: "list[Particle] | None" = None) -> VertexCheck:
    """Conservation check: sum of in-charges minus sum of out-charges.

    The vertex balances iff the residual is the exact zero quaternion.
    """
    table = {row.name: row for row in (rows if rows is not None else _registry())}
    residual = quaternions.ZERO
    for name, orientation in vertex.legs:
        row = table.get(name)
        if row is None:
            raise UnknownParticleError(f"vertex {vertex.label!r}: unknown particle {name!r}")
        residual = residual + row.charge if orientation == "in" else residual - row.charge
    return VertexCheck(vertex=vertex, residual=residual)


_COLORS = ("R", "B", "G")
# Ordered color pairs (X, Y) naming the six charged gluons g_XbarY.
_COLOR_PAIRS = (("B", "G"), ("G", "R"), ("R", "B"), ("G", "B"), ("R", "G"), ("B", "R"))

_ANTINAME = {
    "nu": "nubar",
    "e-": "e+",
    "W+": "W-",
    "g_CbarC": "g_CCbar",
    **{f"u_{c}": f"ubar_{c}" for c in _COLORS},
    **{f"d_{c}": f"dbar_{c}" for c in _COLORS},
    **{f"g_{a}bar{b}": f"g_{b}bar{a}" for a, b in _COLOR_PAIRS[:3]},
}
_ANTINAME.update({anti: name for name, anti in list(_ANTINAME.items())})
_ANTINAME.update({"gamma": "gamma", "Z0": "Z0"})


def antiparticle_name(name: str) -> str:
    """The registry name of a row's antiparticle (self for gamma and Z0)."""
    try:
        return _ANTINAME[name]
    except KeyError:
        raise UnknownParticleError(f"{name!r} has no antiparticle row") from None


def vertex_catalog() -> "list[Vertex]":
    """Tree-level three-leg vertices of the first generation (40 total).

    Families: the lepton and quark charged currents, gluon emission for
    both quark flavors over all ordered color pairs, fermion-pair
    annihilation to the neutral bosons (photon couplings only for
    electrically charged fermions, gluon couplings only for quarks),
    W-pair annihilation, and the two triple-gluon cycles.
    """
    vertices = [
        Vertex("W- -> e- + nubar", (("W-", "in"), ("e-", "out"), ("nubar", "out"))),
    ]
    for c in _COLORS:
        vertices.append(
            Vertex(
                f"W+ -> u_{c} + dbar_{c}",
                (("W+", "in"), (f"u_{c}", "out"), (f"dbar_{c}", "out")),
            )
        )
    for x, y in _COLOR_PAIRS:
        for flavor in ("u", "d"):
            gluon = f"g_{x}bar{y}"
            vertices.append(
                Vertex(
                    f"{gluon} -> {flavor}_{y} + {flavor}bar_{x}",
                    ((gluon, "in"), (f"{flavor}_{y}", "out"), (f"{flavor}bar_{x}", "out")),
                )
            )

    def annihilation(name: str, boson: str) -> Vertex:
        anti = _ANTINAME[name]
        return Vertex(f"{name} + {anti} -> {boson}", ((name, "in"), (anti, "in"), (boson, "out")))

    charged = ["e-"] + [f"{flavor}_{c}" for flavor in ("u", "d") for c in _COLORS]
    vertices += [annihilation(name, "gamma") for name in charged]
    vertices += [annihilation(name, "Z0") for name in ["nu"] + charged]
    for flavor, diagonal in (("u", "g_CbarC"), ("d", "g_CCbar")):
        vertices += [annihilation(f"{flavor}_{c}", diagonal) for c in _COLORS]
    vertices.append(annihilation("W+", "gamma"))
    # The two triple-gluon color cycles.
    for pairs in (_COLOR_PAIRS[:3], _COLOR_PAIRS[3:]):
        cycle = [f"g_{x}bar{y}" for x, y in pairs]
        vertices.append(Vertex(" + ".join(cycle) + " -> 0", tuple((g, "in") for g in cycle)))
    return vertices


def color_violating_control() -> Vertex:
    """A vertex that must fail: the W+ current with mismatched colors."""
    return Vertex(
        "W+ -> u_R + dbar_B [control]",
        (("W+", "in"), ("u_R", "out"), ("dbar_B", "out")),
    )


@dataclass(frozen=True)
class Q48Row:
    """One of the 24 unit quaternions in Q48 beyond the Hurwitz units."""

    value: Quaternion
    fermion_number: QuadScalar
    electric_charge: QuadScalar
    norm_is_one: bool
    in_hurwitz_ring: bool


def q48_exploration() -> "list[Q48Row]":
    """Quantum numbers of the 24 elements of Q48 outside Q24.

    Their charges involve sqrt(2)/2, so fermion number and electric
    charge come out as exact QuadScalar values over d=2; no particle
    assignment is made.
    """
    inner = set(group_q24().elements)
    rows = []
    for q in group_q48().elements:
        if q in inner:
            continue
        z = electric_charge(q)
        rows.append(
            Q48Row(
                value=q,
                fermion_number=q.scalar_part(),
                electric_charge=z if isinstance(z, QuadScalar) else QuadScalar(z),
                norm_is_one=q.norm() == QuadScalar(1),
                in_hurwitz_ring=q.d == 1 and is_hurwitz_integer(q),
            )
        )
    return rows
