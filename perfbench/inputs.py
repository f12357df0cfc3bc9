"""Seeded inputs for the cold-process workloads, and what each must print.

Every command comes with an expectation: a golden recorded at the seed
commit (``golden.json``), an output rendered by :mod:`oracle`, or the
malformed-input contract (exit 2, empty stdout, one ``error:`` line).
Commands are drawn in cycles that hold every template once, so runs
with different seeds do the same mix of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

FORMATS = ("text", "csv", "json")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

VERIFY_COMMANDS = [
    ["verify", "--format", fmt, *corrupt]
    for corrupt in ([], ["--corrupt-registry"])
    for fmt in FORMATS
]
TABLE_COMMANDS = [["tables", which, "--format", fmt] for which in "123" for fmt in FORMATS]
GROUP_ACTIONS = [
    ["q8", "order"],
    ["q24", "order"],
    ["q8", "classes"],
    ["q24", "classes"],
    ["q8", "normal-subgroups"],
    ["q24", "normal-subgroups"],
    ["q24", "check-normal", "q8"],
    ["q8", "check-normal", "q24"],
]
GROUP_COMMANDS = [["groups", *action, "--format", fmt] for action in GROUP_ACTIONS for fmt in FORMATS]
GOLDEN_COMMANDS = VERIFY_COMMANDS + TABLE_COMMANDS + GROUP_COMMANDS


def golden_key(argv) -> str:
    return " ".join(argv)


def load_goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def golden_expect(argv, goldens, kind=None):
    """The expectation for a command with a recorded golden; ``kind`` groups its timings."""
    entry = goldens[golden_key(argv)]
    return {"argv": argv, "kind": kind or golden_key(argv), "code": entry["code"], "stdout": entry["stdout"]}


def verify_sequence(seed: int, goldens: dict):
    """Cold ``verify`` calls: formats in rotation, one call in four corrupted."""
    rng = random.Random(seed)
    offset = rng.randrange(3)
    n = 0
    while True:
        corrupt_slot = rng.randrange(4)
        for slot in range(4):
            fmt = FORMATS[(offset + n) % 3]
            argv = ["verify", "--format", fmt]
            if slot == corrupt_slot:
                argv.append("--corrupt-registry")
            yield golden_expect(argv, goldens, "verify")
            n += 1


def trit_target(rng: random.Random):
    return tuple(2 * rng.choice((-1, 0, 1)) for _ in range(4))


def charge_pair(rng: random.Random):
    """An (up, down) pair shaped like a doublet: up = n + m, down = n + conj(m)."""
    n = rng.choice(oracle.UNITS)[1]
    m = rng.choice(oracle.UNITS)[1]
    up = tuple(a + b for a, b in zip(n, m))
    down = (n[0] + m[0], n[1] - m[1], n[2] - m[2], n[3] - m[3])
    return up, down


def _decompose(rng: random.Random, mode: str):
    fmt = rng.choice(FORMATS)
    targets2 = charge_pair(rng) if mode == "doublet" else (trit_target(rng),)
    argv = ["decompose", *(oracle.quaternion_text(t) for t in targets2), "--mode", mode, "--format", fmt]
    return {"argv": argv, "kind": f"decompose {mode}", "code": 0, "stdout": oracle.decompose_stdout(mode, targets2, fmt)}


def malformed_target(rng: random.Random) -> str:
    """A target the parser must reject; it never starts with '-', which argparse would take."""
    a, b, c, d = (rng.randint(1, 9) for _ in range(4))
    shapes = (
        f"({a}, {b}, {c})",
        f"({a}, {b}, x{c}, {d})",
        f"({a}/0, {b}, {c}, {d})",
        f"{a}, {b}, {c}, {d})",
        f"({a}, {b}, {c}, {d}",
        f"({a}, {b}*sqrt(3), {c}, {d})",
        f"({a}, {b}*sqrt(2), {c}, {d})",
        f"({a}, {b}/, {c}, {d})",
    )
    return rng.choice(shapes)


def _malformed(rng: random.Random):
    mode = rng.choice(("sum", "diff", "doublet"))
    targets = [malformed_target(rng)]
    if mode == "doublet":
        targets.insert(rng.randrange(2), "(1, 0, 0, 0)")
    argv = ["decompose", *targets, "--mode", mode]
    return {"argv": argv, "kind": "malformed", "code": 2, "stdout": "", "malformed": True}


def query_sequence(seed: int, goldens: dict):
    """Light commands in shuffled cycles of 25: 9 tables, 8 groups, 6 decompose, 2 malformed."""
    rng = random.Random(seed)
    while True:
        cycle = [("golden", argv) for argv in TABLE_COMMANDS]
        cycle += [("group", action) for action in GROUP_ACTIONS]
        cycle += [("decompose", mode) for mode in ("sum", "diff", "doublet") for _ in range(2)]
        cycle += [("malformed", None)] * 2
        rng.shuffle(cycle)
        for kind, item in cycle:
            if kind == "golden":
                yield golden_expect(item, goldens)
            elif kind == "group":
                argv = ["groups", *item, "--format", rng.choice(FORMATS)]
                yield golden_expect(argv, goldens, " ".join(["groups", *item]))
            elif kind == "decompose":
                yield _decompose(rng, item)
            else:
                yield _malformed(rng)


QUERY_CYCLE = 25


def check_output(expect: dict, code: int, stdout: str, stderr: str) -> "str | None":
    """Why a finished command is wrong, or None when it is right."""
    if code != expect["code"]:
        return f"exit {code}, expected {expect['code']}"
    if expect.get("malformed"):
        lines = stderr.splitlines()
        if stdout:
            return "malformed input printed to stdout"
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected one 'error:' line on stderr, got {len(lines)} lines"
        return None
    if not stdout:
        return "empty stdout"
    if stdout != expect["stdout"]:
        return "stdout differs from the expected bytes"
    if stderr:
        return "unexpected stderr output"
    return None
