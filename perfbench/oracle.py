"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports ``hurwitzq``.  The 24 Hurwitz units are kept in
doubled integer coordinates (2q has integer components for every unit),
so the decomposition searches are plain integer-tuple comparisons, and
the expected ``decompose`` output is rendered byte for byte from them.
Hamilton products over Q(sqrt(d)) are recomputed on (rational, surd)
pairs of Fractions.
"""

from __future__ import annotations

import json
from fractions import Fraction

# h1..h8 have real part +1/2; their vector signs, in naming order.
_H_SIGNS = (
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
)


def _units() -> "list[tuple[str, tuple[int, int, int, int]]]":
    """(name, doubled coordinates) in the CLI's display order."""
    units = []
    for axis, label in enumerate(("1", "i", "j", "k")):
        v = [0, 0, 0, 0]
        v[axis] = 2
        units.append((label, tuple(v)))
        units.append(("-" + label, tuple(-c for c in v)))
    halves = [(f"h{n}", (1, *signs)) for n, signs in enumerate(_H_SIGNS, start=1)]
    units.extend(halves)
    units.extend(("-" + name, tuple(-c for c in v)) for name, v in reversed(halves))
    return units


UNITS = _units()


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def sum_pairs(target2) -> "list[tuple[str, str]]":
    """Unordered unit pairs {a, b}, a first in display order, with a + b = target."""
    return [
        (na, nb)
        for i, (na, a) in enumerate(UNITS)
        for nb, b in UNITS[i:]
        if _add(a, b) == target2
    ]


def diff_pairs(target2) -> "list[tuple[str, str]]":
    """Ordered unit pairs (a, b) with a - b = target."""
    return [(na, nb) for na, a in UNITS for nb, b in UNITS if _sub(a, b) == target2]


def doublet_pairs(up2, down2) -> "list[tuple[str, str]]":
    """(shared, flipped) pairs with shared + flipped = up, shared + conj(flipped) = down."""
    return [
        (nn, nm)
        for nn, n in UNITS
        for nm, m in UNITS
        if _add(n, m) == up2 and _add(n, _conj(m)) == down2
    ]


def half_text(c: int) -> str:
    """The canonical text of the rational c/2."""
    return str(Fraction(c, 2))


def quaternion_text(q2) -> str:
    """The canonical ``(w, x, y, z)`` text of the quaternion q2/2."""
    return "(" + ", ".join(half_text(c) for c in q2) + ")"


def _render(command: str, report_format: str, notes, columns, rows) -> str:
    if report_format == "json":
        document = {
            "schema_version": 1,
            "command": command,
            "format": report_format,
            "pass_count": 0,
            "fail_count": 0,
            "payload": {"notes": notes, "columns": columns, "rows": [list(r) for r in rows]},
        }
        return json.dumps(document, indent=2) + "\n"
    if report_format == "csv":
        return "\n".join(",".join(line) for line in [columns, *rows]) + "\n"
    lines = [*notes, " ".join(columns), *(" ".join(r) for r in rows)]
    return "\n".join(lines) + "\n"


def decompose_stdout(mode: str, targets2, report_format: str) -> str:
    """The exact stdout of ``hurwitzq decompose`` for doubled-coordinate targets."""
    if mode == "doublet":
        up2, down2 = targets2
        rows = doublet_pairs(up2, down2)
        notes = [f"up {quaternion_text(up2)}", f"down {quaternion_text(down2)}"]
        columns = ["shared", "flipped"]
    else:
        (target2,) = targets2
        rows = sum_pairs(target2) if mode == "sum" else diff_pairs(target2)
        notes = [f"target {quaternion_text(target2)}", f"mode {mode}"]
        columns = ["a", "b"]
    notes.append(f"multiplicity {len(rows)}")
    return _render(f"decompose {mode}", report_format, notes, columns, rows)


# Exact arithmetic in Q(sqrt(d)) on (rational, surd) pairs.

def _smul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _sadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _sneg(x):
    return (-x[0], -x[1])


def hamilton(p, q, d):
    """The Hamilton product of two quaternions given as four (a, b) pairs each."""
    a, b, c, e = p
    f, g, h, k = q

    def dot(*terms):
        total = (Fraction(0), Fraction(0))
        for sign, x, y in terms:
            t = _smul(x, y, d)
            total = _sadd(total, t if sign > 0 else _sneg(t))
        return total

    return (
        dot((1, a, f), (-1, b, g), (-1, c, h), (-1, e, k)),
        dot((1, a, g), (1, b, f), (1, c, k), (-1, e, h)),
        dot((1, a, h), (-1, b, k), (1, c, f), (1, e, g)),
        dot((1, a, k), (1, b, h), (-1, c, g), (1, e, f)),
    )


def element_order(q, d, limit: int = 240) -> int:
    """The multiplicative order of a unit quaternion of finite order."""
    one = ((Fraction(1), Fraction(0)),) + ((Fraction(0), Fraction(0)),) * 3
    power = q
    for n in range(1, limit + 1):
        if power == one:
            return n
        power = hamilton(power, q, d)
    raise ValueError("element has no finite order within the limit")
