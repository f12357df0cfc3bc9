"""Op-count determinism check for the traced runs.

    python3 perfbench/determinism.py

Runs ``run.py --trace 1`` twice with seed 1 and once with seed 5, for
each workload.  Every count and ratio (``*_calls``, ``cayley_entries``,
``qgroup_builds``, ``bytes_out``, ``*_ratio``) must repeat exactly under
the same seed.  Under the other seed the counts of ``query-cold`` and
``library-warm`` must change and those of ``verify-cold`` must not,
apart from ``reports.bytes_out``, which follows the output format the
seed picks.
Exits 1 if any of that does not hold.
"""

from __future__ import annotations

import sys

import run

# Seed 5's traced verify calls differ from seed 1's in format and in corruption.
SEED, OTHER_SEED = 1, 5
# The seed picks verify-cold's output formats; this count follows them.
FORMAT_COUNTS = {"reports.bytes_out"}


def counts(workload: str, seed: int) -> dict:
    result = run.invoke(workload, seed, 1, 1)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] in ("count", "bytes") or name.endswith("_ratio")
    }


def main() -> int:
    bad = 0
    for workload in run.WORKLOADS:
        first, second, other = (counts(workload, s) for s in (SEED, SEED, OTHER_SEED))
        drift = sorted(k for k in first if first[k] != second[k])
        changed = sorted(k for k in first if first[k] != other[k])
        if workload == "verify-cold":
            ok = not drift and not set(changed) - FORMAT_COUNTS
        else:
            ok = not drift and bool(changed)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {workload}: {len(first)} counts; same seed differs in {drift or 'none'}; "
              f"other seed differs in {changed or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
