"""Record ``golden.json``: exit code and exact stdout of the fixed commands.

    python3 perfbench/record_goldens.py

Run it only at a commit whose output is known to be right; the benchmark
compares every later run byte for byte against what it writes.
"""

from __future__ import annotations

import json
import sys

import inputs
import run


def main() -> int:
    goldens = {}
    for argv in inputs.GOLDEN_COMMANDS:
        _, proc = run.run_child([sys.executable, "-c", run.BOOT, *argv])
        if proc.stderr or not proc.stdout or proc.returncode not in (0, 1):
            print(f"error: {' '.join(argv)} exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
            return 1
        goldens[inputs.golden_key(argv)] = {"code": proc.returncode, "stdout": proc.stdout}
    with open(inputs.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(goldens)} commands in {inputs.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
