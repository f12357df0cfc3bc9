"""Exact quaternion arithmetic over the Hurwitz units.

The package models elementary-particle quantum numbers as integer and
half-integer quaternions: each particle is tagged with a charge quaternion
whose scalar part gives the fermion number and whose vector part, paired
against i+j+k, gives the electric charge.  Everything is computed in exact
rational (or quadratic-surd) arithmetic -- no floating point anywhere.

Modules:

- ``scalars``      exact elements of Q(sqrt(d)) for d in {1, 2, 5}
- ``quaternions``  Hamilton quaternions over those scalars
- ``lattices``     the 24 Hurwitz units and the trit-quaternion survey
- ``groups``       finite unit groups Q8, Q24, Q48, Q120 and normality tests
- ``particles``    the particle registry and its conservation checks
- ``decompose``    unit-sum/difference searches and the expression table
- ``verify``       the named verification suite backing ``hurwitzq verify``
- ``reports``      text/csv/json rendering shared by the CLI
- ``cli``          the ``hurwitzq`` command itself
"""

from __future__ import annotations

from .decompose import (
    Decomposition,
    DoubletAssignment,
    Table3Row,
    conjugate_exclusions,
    diff_decompositions,
    doublet_search,
    evaluate_unit_expression,
    sum_decompositions,
    table3_assignments,
    table3_rows,
    unit_coverage_report,
)
from .groups import (
    ClosureCapError,
    GroupConstructionError,
    NotASubgroupError,
    QGroup,
    closure,
    group_names,
    group_q8,
    group_q24,
    group_q48,
    group_q120,
    is_permutable,
    is_subgroup,
    named_group,
    normal_subgroups,
)
from .lattices import (
    TritQuaternion,
    UnitAtom,
    conjugation_classes,
    hamilton_units,
    hurwitz_units,
    is_hurwitz_integer,
    parity_survivors,
    satisfies_parity_rule,
    trit_quaternions,
    unit_for_value,
    unit_named,
)
from .particles import (
    CHARGE_VECTOR,
    Particle,
    UnknownParticleError,
    VerificationError,
    Vertex,
    antiparticle_name,
    check_vertex,
    color_violating_control,
    corrupted_registry,
    electric_charge,
    fermion_number,
    heisenberg_consistency,
    heisenberg_report,
    particle,
    q48_exploration,
    registry,
    verify_parity_rule,
    vertex_catalog,
)
from .quaternions import Quaternion, parse_quaternion
from .scalars import (
    SUPPORTED_FIELDS,
    FieldMismatchError,
    QuadScalar,
    ScalarParseError,
    parse_scalar,
)
from .verify import CheckResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "CHARGE_VECTOR",
    "CheckResult",
    "ClosureCapError",
    "Decomposition",
    "DoubletAssignment",
    "FieldMismatchError",
    "GroupConstructionError",
    "NotASubgroupError",
    "Particle",
    "QGroup",
    "QuadScalar",
    "Quaternion",
    "SUPPORTED_FIELDS",
    "ScalarParseError",
    "Table3Row",
    "TritQuaternion",
    "UnitAtom",
    "UnknownParticleError",
    "VerificationError",
    "Vertex",
    "antiparticle_name",
    "check_vertex",
    "closure",
    "color_violating_control",
    "conjugate_exclusions",
    "conjugation_classes",
    "corrupted_registry",
    "diff_decompositions",
    "doublet_search",
    "electric_charge",
    "evaluate_unit_expression",
    "fermion_number",
    "group_names",
    "group_q120",
    "group_q24",
    "group_q48",
    "group_q8",
    "hamilton_units",
    "heisenberg_consistency",
    "heisenberg_report",
    "hurwitz_units",
    "is_hurwitz_integer",
    "is_permutable",
    "is_subgroup",
    "named_group",
    "normal_subgroups",
    "parity_survivors",
    "parse_quaternion",
    "parse_scalar",
    "particle",
    "q48_exploration",
    "registry",
    "run_verification",
    "satisfies_parity_rule",
    "sum_decompositions",
    "table3_assignments",
    "table3_rows",
    "trit_quaternions",
    "unit_coverage_report",
    "unit_for_value",
    "unit_named",
    "verify_parity_rule",
    "vertex_catalog",
]
