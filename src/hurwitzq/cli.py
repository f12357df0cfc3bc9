"""Command-line interface: tables, verify, decompose, groups, explore-q48.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage or parse
error.  Output is deterministic byte-for-byte for a given command line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .decompose import (
    diff_decompositions,
    doublet_search,
    sum_decompositions,
    table3_rows,
)
from .groups import NotASubgroupError, group_names, is_permutable, named_group, normal_subgroups
from .lattices import hurwitz_units
from .particles import (
    corrupted_registry,
    electric_charge,
    fermion_number,
    particle,
    q48_exploration,
    registry,
)
from .quaternions import Quaternion, parse_quaternion
from .reports import FORMATS, ReportEnvelope, render
from .verify import run_verification


def _signed(value: Fraction) -> str:
    """Table-style rendering with an explicit sign on positives."""
    if value > 0:
        return f"+{value}"
    return str(value)


def _compact(q: Quaternion) -> str:
    return str(q).replace(", ", ",")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="text", dest="report_format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitzq",
        description="Exact quaternion arithmetic over the Hurwitz units: "
        "charge tables, conservation checks, group structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate a charge or unit table")
    p.add_argument("which", choices=["1", "2", "3"], help="1 particles, 2 units, 3 unit expressions")
    _add_format(p)

    p = sub.add_parser("verify", help="run the full verification suite")
    _add_format(p)
    p.add_argument(
        "--corrupt-registry",
        action="store_true",
        help="corrupt one registry row first, to demonstrate failure detection",
    )

    p = sub.add_parser("decompose", help="search unit decompositions of a target charge")
    p.add_argument("target", nargs="+", help="quaternion '(w, x, y, z)'; doublet mode takes two")
    p.add_argument("--mode", choices=["sum", "diff", "doublet"], required=True)
    _add_format(p)

    p = sub.add_parser("groups", help="finite-group computations")
    p.add_argument("name", choices=group_names())
    p.add_argument(
        "action", choices=["order", "cayley", "classes", "normal-subgroups", "check-normal"]
    )
    p.add_argument("subgroup", nargs="?", choices=group_names())
    _add_format(p)

    p = sub.add_parser("explore-q48", help="quantum numbers of the units beyond the Hurwitz ring")
    _add_format(p)

    return parser


def _particle_rows():
    for p in registry():
        numbers = (p.fermion_number, p.electric_charge, p.baryon_number, p.isospin_z)
        yield p.name, p.charge, numbers, ()


def _unit_rows():
    for atom in hurwitz_units():
        yield atom.name, atom.value, (fermion_number(atom.value), electric_charge(atom.value)), ()


def _expression_rows():
    for r in table3_rows():
        p = particle(r.name)
        yield r.name, r.charge, (p.fermion_number, p.electric_charge), (r.expression,)


# One column spec per table: the text headers of the key and quaternion
# columns, the signed-rational and plain-text column headers, and a row
# source yielding (key, quaternion, rationals, texts).  Text output shows
# the quaternion compactly and signs the rationals; csv and json split the
# quaternion into w, x, y, z and print the rationals unsigned.
_TABLES = {
    "1": ("particle", "charge", ("F_nb", "Z_el", "N", "I_z"), (), _particle_rows),
    "2": ("unit", "value", ("F_nb", "Z_el"), (), _unit_rows),
    "3": ("particle", "charge", ("F_nb", "Z_el"), ("expression",), _expression_rows),
}


def _tables_envelope(which: str, report_format: str) -> ReportEnvelope:
    key, quaternion, rationals, texts, source = _TABLES[which]
    if report_format == "text":
        columns = [key, quaternion, *rationals, *texts]
        rows = [[k, _compact(q), *map(_signed, r), *t] for k, q, r, t in source()]
    else:
        columns = ["name", "w", "x", "y", "z", *rationals, *texts]
        rows = [[k, *map(str, q.components), *map(str, r), *t] for k, q, r, t in source()]
    return ReportEnvelope(
        command=f"tables {which}",
        report_format=report_format,
        payload={"columns": columns, "rows": rows},
    )


def _verify_envelope(report_format: str, corrupt: bool) -> ReportEnvelope:
    rows = corrupted_registry() if corrupt else None
    results = run_verification(rows)
    return ReportEnvelope(
        command="verify",
        report_format=report_format,
        payload={
            "columns": ["check", "result", "detail"],
            "rows": [
                [r.name, "pass" if r.passed else "fail", r.detail] for r in results
            ],
        },
        pass_count=sum(1 for r in results if r.passed),
        fail_count=sum(1 for r in results if not r.passed),
    )


def _decompose_envelope(targets: "list[str]", mode: str, report_format: str) -> ReportEnvelope:
    expected = 2 if mode == "doublet" else 1
    if len(targets) != expected:
        raise ValueError(f"mode {mode} takes exactly {expected} target(s), got {len(targets)}")
    parsed = [parse_quaternion(t) for t in targets]
    if mode == "doublet":
        pairs = doublet_search(parsed[0], parsed[1])
        notes = [f"up {parsed[0]}", f"down {parsed[1]}"]
        columns = ["shared", "flipped"]
    else:
        search = sum_decompositions if mode == "sum" else diff_decompositions
        pairs = search(parsed[0]).pairs
        notes = [f"target {parsed[0]}", f"mode {mode}"]
        columns = ["a", "b"]
    notes.append(f"multiplicity {len(pairs)}")
    return ReportEnvelope(
        command=f"decompose {mode}",
        report_format=report_format,
        payload={"notes": notes, "columns": columns, "rows": [[a.name, b.name] for a, b in pairs]},
    )


def _groups_envelope(
    name: str, action: str, subgroup: "str | None", report_format: str
) -> ReportEnvelope:
    if action == "check-normal" and subgroup is None:
        raise ValueError("check-normal needs a subgroup name")
    if action != "check-normal" and subgroup is not None:
        raise ValueError(f"action {action} takes no subgroup argument")
    group = named_group(name)
    command = f"groups {name} {action}"
    pass_count = fail_count = 0
    notes: "list[str]" = []
    if action == "order":
        columns = ["group", "order"]
        rows = [[name, str(group.order)]]
    elif action == "cayley":
        columns = ["*"] + [str(e) for e in group.elements]
        rows = [
            [str(group.element(i))]
            + [str(group.element(group.product_index(i, j))) for j in range(group.order)]
            for i in range(group.order)
        ]
    elif action == "classes":
        columns = ["size", "representative"]
        rows = [
            [str(len(cls)), str(group.element(cls[0]))]
            for cls in group.conjugacy_classes()
        ]
    elif action == "normal-subgroups":
        columns = ["order", "elements"]
        rows = [
            [str(sub.order), " ".join(str(e) for e in sub.elements)]
            for sub in normal_subgroups(group)
        ]
    else:
        columns = ["question", "answer"]
        try:
            normal = is_permutable(named_group(subgroup), group)
        except NotASubgroupError:
            rows = [["is-subgroup", "no"], ["is-normal", "-"]]
            fail_count = 1
        else:
            rows = [["is-subgroup", "yes"], ["is-normal", "yes" if normal else "no"]]
            pass_count = 1
        notes = [f"subgroup {subgroup} in group {name}"]
    payload = {"columns": columns, "rows": rows}
    if notes:
        payload = {"notes": notes, "columns": columns, "rows": rows}
    return ReportEnvelope(
        command=command,
        report_format=report_format,
        payload=payload,
        pass_count=pass_count,
        fail_count=fail_count,
    )


def _explore_envelope(report_format: str) -> ReportEnvelope:
    rows = [
        [
            str(r.value),
            str(r.fermion_number),
            str(r.electric_charge),
            "yes" if r.norm_is_one else "no",
            "yes" if r.in_hurwitz_ring else "no",
        ]
        for r in q48_exploration()
    ]
    return ReportEnvelope(
        command="explore-q48",
        report_format=report_format,
        payload={
            "notes": [f"elements {len(rows)}"],
            "columns": ["element", "F_nb", "Z_el", "norm-1", "hurwitz-integer"],
            "rows": rows,
        },
    )


def _dispatch(args: argparse.Namespace) -> ReportEnvelope:
    if args.command == "tables":
        return _tables_envelope(args.which, args.report_format)
    if args.command == "verify":
        return _verify_envelope(args.report_format, args.corrupt_registry)
    if args.command == "decompose":
        return _decompose_envelope(args.target, args.mode, args.report_format)
    if args.command == "groups":
        return _groups_envelope(args.name, args.action, args.subgroup, args.report_format)
    return _explore_envelope(args.report_format)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        return int(exit_request.code or 0)
    try:
        envelope = _dispatch(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render(envelope))
    return 1 if envelope.fail_count else 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
