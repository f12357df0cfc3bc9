"""Self-test: the benchmark counts wrong output and wrong exit codes as failures.

    python3 perfbench/selftest.py

Each case feeds the benchmark's own checks a run that is right or one that
has been broken on purpose (a changed byte, a wrong exit code, empty
stdout, a stray stderr line, a wrong oracle answer) and asserts the
verdict.  It also shows why the cold workloads call ``hurwitzq.cli.main``
through ``python -c``: ``python -m hurwitzq.cli verify`` exits 0 and prints
nothing, which the checks count as a failure.  Exits 1 if any case fails.
"""

from __future__ import annotations

import random
import sys

import inputs
import oracle
import run

sys.path.insert(0, str(run.SRC))

import libwarm  # noqa: E402


def main() -> int:
    goldens = inputs.load_goldens()
    table = inputs.golden_expect(["tables", "2", "--format", "csv"], goldens)
    bad_cli = {"argv": ["decompose", "(1, 2)", "--mode", "sum"], "code": 2, "stdout": "", "malformed": True}
    target2 = (2, 2, 0, 0)
    decompose = {
        "argv": ["decompose", oracle.quaternion_text(target2), "--mode", "sum"],
        "code": 0,
        "stdout": oracle.decompose_stdout("sum", [target2], "text"),
    }
    wrong_oracle = dict(decompose, stdout=oracle.decompose_stdout("sum", [(2, 0, 2, 0)], "text"))
    out = table["stdout"]
    flipped = out[:10] + ("X" if out[10] != "X" else "Y") + out[11:]
    cases = [
        ("golden output passes", inputs.check_output(table, 0, out, ""), False),
        ("one changed byte fails", inputs.check_output(table, 0, flipped, ""), True),
        ("wrong exit code fails", inputs.check_output(table, 1, out, ""), True),
        ("empty stdout fails", inputs.check_output(table, 0, "", ""), True),
        ("stray stderr fails", inputs.check_output(table, 0, out, "warning\n"), True),
        ("malformed: one error line passes", inputs.check_output(bad_cli, 2, "", "error: x\n"), False),
        ("malformed: exit 0 fails", inputs.check_output(bad_cli, 0, "", "error: x\n"), True),
        ("malformed: stdout output fails", inputs.check_output(bad_cli, 2, "x\n", "error: x\n"), True),
        ("malformed: traceback fails", inputs.check_output(bad_cli, 2, "", "Traceback\nerror: x\n"), True),
        ("real malformed command passes", run.cold_call(bad_cli)[1], False),
        ("real decompose matches the oracle", run.cold_call(decompose)[1], False),
        ("real decompose against a wrong oracle fails", run.cold_call(wrong_oracle)[1], True),
    ]

    _, proc = run.run_child([sys.executable, "-m", "hurwitzq.cli", "verify"])
    verify = inputs.golden_expect(["verify", "--format", "text"], goldens)
    cases.append(
        ("python -m hurwitzq.cli verify is counted as a failure",
         inputs.check_output(verify, proc.returncode, proc.stdout, proc.stderr), True)
    )

    rng = random.Random(0)
    product_run, product_check = libwarm._product(rng, {}, unit=False)
    p, multiplicative = product_run()
    cases += [
        ("library product passes", product_check((p, multiplicative)), False),
        ("library product with a wrong value fails", product_check((p + 1, multiplicative)), True),
        ("library product with a failed norm check fails", product_check((p, False)), True),
    ]
    search_run, search_check = libwarm._search(rng, "doublet")
    pairs = search_run()
    cases += [
        ("library search passes", search_check(pairs), False),
        ("library search with a dropped pair fails", search_check(pairs[1:]), True),
    ]

    broken = 0
    for label, failure, should_fail in cases:
        ok = (failure is not None) == should_fail
        broken += not ok
        print(f"{'ok  ' if ok else 'BAD '} {label}" + (f"  [{failure}]" if failure else ""))
    print(f"{len(cases) - broken} of {len(cases)} self-test cases behave as expected")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
