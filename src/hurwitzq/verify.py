"""The named check suite behind ``verify``: every fact the package claims.

Each check either returns a short detail string (pass) or raises
VerificationError (fail); the runner turns that into an ordered list of
named results.  Checks that read the particle registry accept an
explicit row list so the suite can demonstrate it catches corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decompose import (
    conjugate_exclusions,
    table3_assignments,
    table3_rows,
    unit_coverage_report,
)
from .groups import (
    group_q8,
    group_q24,
    group_q48,
    group_q120,
    is_permutable,
    normal_subgroups,
)
from .lattices import conjugation_classes, hurwitz_units, parity_survivors, trit_quaternions
from .particles import (
    Particle,
    VerificationError,
    check_vertex,
    color_violating_control,
    electric_charge,
    fermion_number,
    heisenberg_consistency,
    registry,
    verify_parity_rule,
    vertex_catalog,
)

_THIRD = Fraction(1, 3)
_SIXTH = Fraction(1, 6)
_HALF = Fraction(1, 2)

#: Quantum numbers (F_nb, Z_el) of the particle table, by row name.
TABLE1_EXPECTED = {
    "gamma": (Fraction(0), Fraction(0)),
    "Z0": (Fraction(0), Fraction(0)),
    "g_CbarC": (Fraction(0), Fraction(0)),
    "g_CCbar": (Fraction(0), Fraction(0)),
    "W-": (Fraction(0), Fraction(-1)),
    "W+": (Fraction(0), Fraction(1)),
    "g_BbarG": (Fraction(0), Fraction(0)),
    "g_GbarR": (Fraction(0), Fraction(0)),
    "g_RbarB": (Fraction(0), Fraction(0)),
    "g_GbarB": (Fraction(0), Fraction(0)),
    "g_RbarG": (Fraction(0), Fraction(0)),
    "g_BbarR": (Fraction(0), Fraction(0)),
    "nu": (Fraction(1), Fraction(0)),
    "e-": (Fraction(1), Fraction(-1)),
    "u_R": (Fraction(1), Fraction(2, 3)),
    "u_B": (Fraction(1), Fraction(2, 3)),
    "u_G": (Fraction(1), Fraction(2, 3)),
    "d_R": (Fraction(1), -_THIRD),
    "d_B": (Fraction(1), -_THIRD),
    "d_G": (Fraction(1), -_THIRD),
    "nubar": (Fraction(-1), Fraction(0)),
    "e+": (Fraction(-1), Fraction(1)),
    "ubar_R": (Fraction(-1), Fraction(-2, 3)),
    "ubar_B": (Fraction(-1), Fraction(-2, 3)),
    "ubar_G": (Fraction(-1), Fraction(-2, 3)),
    "dbar_R": (Fraction(-1), _THIRD),
    "dbar_B": (Fraction(-1), _THIRD),
    "dbar_G": (Fraction(-1), _THIRD),
}

#: Quantum numbers (F_nb, Z_el) of the 24 units, by unit name.
TABLE2_EXPECTED = {
    "1": (Fraction(1), Fraction(0)),
    "-1": (Fraction(-1), Fraction(0)),
    "i": (Fraction(0), _THIRD),
    "-i": (Fraction(0), -_THIRD),
    "j": (Fraction(0), _THIRD),
    "-j": (Fraction(0), -_THIRD),
    "k": (Fraction(0), _THIRD),
    "-k": (Fraction(0), -_THIRD),
    "h1": (_HALF, _HALF),
    "h2": (_HALF, _SIXTH),
    "h3": (_HALF, _SIXTH),
    "h4": (_HALF, -_SIXTH),
    "h5": (_HALF, _SIXTH),
    "h6": (_HALF, -_SIXTH),
    "h7": (_HALF, -_SIXTH),
    "h8": (_HALF, -_HALF),
    "-h8": (-_HALF, _HALF),
    "-h7": (-_HALF, _SIXTH),
    "-h6": (-_HALF, _SIXTH),
    "-h5": (-_HALF, -_SIXTH),
    "-h4": (-_HALF, _SIXTH),
    "-h3": (-_HALF, -_SIXTH),
    "-h2": (-_HALF, -_SIXTH),
    "-h1": (-_HALF, -_HALF),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_table1(rows: "list[Particle]") -> str:
    if len(rows) != 28:
        raise VerificationError(f"expected 28 rows, found {len(rows)}")
    bad = []
    for row in rows:
        expected = TABLE1_EXPECTED.get(row.name)
        recomputed = (fermion_number(row.charge), electric_charge(row.charge))
        if expected is None or recomputed != expected:
            bad.append(f"{row.name} (recomputed {recomputed})")
        elif (row.fermion_number, row.electric_charge) != expected:
            bad.append(f"{row.name} (stored diverges)")
    if bad:
        raise VerificationError("quantum numbers differ: " + "; ".join(bad))
    return "28 rows; F_nb and Z_el recomputed from the charges match the table"


def _check_table2() -> str:
    units = hurwitz_units()
    if len(units) != 24:
        raise VerificationError(f"expected 24 units, found {len(units)}")
    bad = []
    for atom in units:
        recomputed = (fermion_number(atom.value), electric_charge(atom.value))
        if recomputed != TABLE2_EXPECTED[atom.name]:
            bad.append(atom.name)
    if bad:
        raise VerificationError("unit quantum numbers differ: " + ", ".join(bad))
    return "24 units; F_nb and Z_el match the unit table"


def _check_table3() -> str:
    rows = table3_rows()
    return f"{len(rows)} unit expressions regenerate and re-verify"


def _check_heisenberg(rows: "list[Particle]") -> str:
    heisenberg_consistency(rows)
    return "Z_el = N/2 + I_z holds for every row"


def _check_parity_rule(rows: "list[Particle]") -> str:
    checks = verify_parity_rule(rows)
    bad = [c.name for c in checks if not c.passed]
    if bad:
        raise VerificationError("sign-count rule fails for: " + ", ".join(bad))
    return f"{len(checks)} nonzero charges satisfy the sign-count rule"


def _check_survivor_count() -> str:
    count = len(parity_survivors())
    if count != 37:
        raise VerificationError(f"expected 37 survivors, found {count}")
    return "37 of the 81 trit quaternions satisfy the rule"


def _check_class_count() -> str:
    count = len(conjugation_classes(trit_quaternions()))
    if count != 42:
        raise VerificationError(f"expected 42 conjugation classes, found {count}")
    return "81 trit quaternions fall into 42 conjugation classes"


def _check_vertices(rows: "list[Particle]") -> str:
    catalog = vertex_catalog()
    bad = [
        result.vertex.label
        for result in (check_vertex(v, rows) for v in catalog)
        if not result.passed
    ]
    if bad:
        raise VerificationError("vertices do not conserve: " + "; ".join(bad))
    control = check_vertex(color_violating_control(), rows)
    if control.passed:
        raise VerificationError("color-violating control unexpectedly conserves")
    return f"{len(catalog)} vertices conserve; the color-violating control does not"


def _check_doublets() -> str:
    table3_assignments()
    return "all four doublet searches return exactly one assignment"


def _check_exclusions() -> str:
    checks = conjugate_exclusions()
    return f"{len(checks)} conjugate combinations verified and absent from the registry"


def _check_coverage() -> str:
    report = unit_coverage_report()
    return f"all {len(report.sources)} units appear in the table expressions"


def _check_group_orders() -> str:
    expected = ((group_q8(), 8), (group_q24(), 24), (group_q48(), 48), (group_q120(), 120))
    for group, order in expected:
        if group.order != order:
            raise VerificationError(f"{group.name} has order {group.order}, expected {order}")
        if not group.is_latin_square():
            raise VerificationError(f"{group.name} Cayley table is not a Latin square")
    return "orders 8, 24, 48, 120 with Latin-square Cayley tables"


def _check_normality() -> str:
    cases = (
        (group_q8(), group_q24()),
        (group_q8(), group_q48()),
        (group_q24(), group_q48()),
    )
    for h, g in cases:
        if not is_permutable(h, g):
            raise VerificationError(f"{h.name} is not normal in {g.name}")
    return "q8 in q24, q8 in q48, q24 in q48 are all normal"


def _check_q120_normal_subgroups() -> str:
    subs = normal_subgroups(group_q120())
    orders = [s.order for s in subs]
    if orders != [1, 2, 120]:
        raise VerificationError(f"normal subgroup orders {orders}, expected [1, 2, 120]")
    center = subs[1]
    values = sorted(str(e) for e in center.elements)
    if values != ["(-1, 0, 0, 0)", "(1, 0, 0, 0)"]:
        raise VerificationError("order-2 normal subgroup is not {1, -1}")
    return "only {1}, {1, -1} and the whole group are normal in q120"


def run_verification(rows: "list[Particle] | None" = None) -> "list[CheckResult]":
    """Run every check in a fixed order; never raises."""
    rows = registry() if rows is None else rows
    checks = (
        ("table-1-recomputation", lambda: _check_table1(rows)),
        ("table-2-recomputation", _check_table2),
        ("table-3-recomputation", _check_table3),
        ("charge-formula", lambda: _check_heisenberg(rows)),
        ("parity-rule", lambda: _check_parity_rule(rows)),
        ("parity-survivor-count", _check_survivor_count),
        ("conjugation-class-count", _check_class_count),
        ("vertex-conservation", lambda: _check_vertices(rows)),
        ("doublet-uniqueness", _check_doublets),
        ("conjugate-exclusions", _check_exclusions),
        ("unit-coverage", _check_coverage),
        ("group-orders", _check_group_orders),
        ("subgroup-normality", _check_normality),
        ("q120-normal-subgroups", _check_q120_normal_subgroups),
    )
    results = []
    for name, fn in checks:
        try:
            detail = fn()
            results.append(CheckResult(name=name, passed=True, detail=detail))
        except VerificationError as error:
            results.append(CheckResult(name=name, passed=False, detail=str(error)))
    return results
