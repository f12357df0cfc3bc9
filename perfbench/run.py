"""The hurwitzq benchmark: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0

Workloads (one client, at most one child process at a time):

- ``verify-cold``: a fresh interpreter per ``hurwitzq verify``, formats in
  rotation, one call in four with ``--corrupt-registry`` (exit 1).
- ``query-cold``: a fresh interpreter per light command: ``tables``,
  ``groups q8|q24``, seeded ``decompose`` targets, malformed targets (exit 2).
- ``library-warm``: one long-lived process calling the public API
  (see ``libwarm.py``).

Every output is checked: goldens recorded at the seed commit, an
independent oracle (``oracle.py``), and the malformed-input contract.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` a fixed, seeded sequence runs once untraced and once
under ``layertrace.py`` and the per-layer metrics are printed instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import layertrace  # noqa: E402
from reference import START_REFERENCE_S, SpeedProbe, quantile  # noqa: E402

WORKLOADS = ("verify-cold", "query-cold", "library-warm")
# The hurwitzq entry point: there is no __main__.py, so `python -m hurwitzq.cli`
# would exit 0 and print nothing.
BOOT = "import sys; from hurwitzq.cli import main; sys.exit(main(sys.argv[1:]))"
# Fresh imports of hurwitzq.cli timed after each round of a cold workload,
# and library workers started per library-warm run.
SETUP_REPEATS = {"verify-cold": 5, "query-cold": 4, "library-warm": 3}
CALL_TIMEOUT = 170
TRACED_VERIFY_CALLS = 2


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


ENV = child_env()


def run_child(cmd):
    """Run one child to completion: (wall seconds, CompletedProcess)."""
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=ENV, capture_output=True, encoding="utf-8", timeout=CALL_TIMEOUT
    )
    return time.perf_counter() - start, proc


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11], n


def describe(label, values):
    line = f"# {label}: n={len(values)} p10={quantile(values, 0.1):.6f}s p50={statistics.median(values):.6f}s"
    t = tail(values)
    if t:
        line += f" tail p{t[0]:.1f}={t[1]:.6f}s ({t[2]} samples)"
    return line


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, the one the speed probe samples."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def timed_import():
    """One fresh import of hurwitzq.cli: (raw, scaled) seconds.

    The scale is a bare interpreter start timed right after it.
    """
    wall, _ = run_child([sys.executable, "-c", "import hurwitzq.cli"])
    bare, _ = run_child([sys.executable, "-c", "pass"])
    return wall, wall / bare * START_REFERENCE_S


def end_to_end(setups, times, rounds, rss_mb, probe):
    """The end-to-end metrics from one run.

    ``setups`` and ``times[kind]`` hold (raw, scaled) seconds; ``times``
    covers ``rounds`` whole rounds.  The mix time is one round with every
    call at its own kind's median.
    """
    def column(pairs, i):
        return [pair[i] for pair in pairs]

    every = [pair for pairs in times.values() for pair in pairs]
    mix = [sum(len(pairs) / rounds * statistics.median(column(pairs, i)) for pairs in times.values()) for i in (0, 1)]
    for kind, pairs in sorted(times.items()):
        print(describe(f"kind {kind} (raw)", column(pairs, 0)))
    print(describe("all calls (raw)", column(every, 0)))
    print(describe("all calls (scaled)", column(every, 1)))
    print(describe("reference task", probe.all_seconds()))
    print(f"# raw: setup {statistics.median(column(setups, 0)):.6f}s, call p50 {statistics.median(column(every, 0)):.6f}s, "
          f"mix p50 {mix[0]:.6f}s over {rounds} rounds")
    return {
        "setup_s": (statistics.median(column(setups, 1)), "s"),
        "call_p50_s": (statistics.median(column(every, 1)), "s"),
        "mix_p50_s": (mix[1], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def probed(probe, fn, *args, around=3):
    """Run a child through ``fn`` with the probe sampling before, during and after it.

    Returns fn's result and the scale factor for the child's wall time.
    """
    start = time.monotonic()
    probe.sample(around)
    with probe.running():
        result = fn(*args)
    probe.sample(around)
    return result, probe.scale(start, time.monotonic())


# -- cold workloads ---------------------------------------------------------


def cold_call(expect, trace_path=None):
    """Run one command; (wall, failure or None, trace or None)."""
    if trace_path is None:
        wall, proc = run_child([sys.executable, "-c", BOOT, *expect["argv"]])
        stderr, trace = proc.stderr, None
    else:
        cmd = [sys.executable, "-X", "importtime", str(BENCH / "layertrace.py"), str(trace_path), *expect["argv"]]
        launch = time.monotonic()
        wall, proc = run_child(cmd)
        imports, stderr = layertrace.import_self_seconds(proc.stderr)
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        os.remove(trace_path)
        # Start-up ends where the tracer is installed, so tracer costs stay out of it.
        trace.update(imports=imports, wall_s=wall, startup_s=trace["installed_at"] - launch)
    failure = inputs.check_output(expect, proc.returncode, proc.stdout, stderr)
    if failure:
        failure = f"{' '.join(expect['argv'])}: {failure}"
    return wall, failure, trace


def sequence(workload, seed, goldens):
    if workload == "verify-cold":
        return inputs.verify_sequence(seed, goldens)
    return inputs.query_sequence(seed, goldens)


def run_cold(workload, seed, seconds, goldens):
    probe = SpeedProbe()
    setups, times, failures, rounds, attempted = [], defaultdict(list), [], 0, 0
    calls = sequence(workload, seed, goldens)
    per_round = 1 if workload == "verify-cold" else inputs.QUERY_CYCLE
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        for _ in range(per_round):
            expect = next(calls)
            (wall, failure, _), factor = probed(probe, cold_call, expect)
            times[expect["kind"]].append((wall, wall * factor))
            attempted += 1
            if failure:
                failures.append(failure)
        rounds += 1
        # Set-up is timed between rounds, so that its median spans the whole
        # run; the time it takes is left out of the run's length.
        start = time.perf_counter()
        setups += [timed_import() for _ in range(SETUP_REPEATS[workload])]
        deadline += time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return attempted, failures, end_to_end(setups, times, rounds, rss_mb, probe)


def trace_cold(workload, seed, goldens):
    calls = sequence(workload, seed, goldens)
    n = TRACED_VERIFY_CALLS if workload == "verify-cold" else inputs.QUERY_CYCLE
    expects = [next(calls) for _ in range(n)]
    WORK.mkdir(exist_ok=True)
    traces, failures, plain, traced = [], [], 0.0, 0.0
    try:
        for n, expect in enumerate(expects):
            wall, failure, _ = cold_call(expect)
            plain += wall
            failures += [failure] if failure else []
            wall, failure, trace = cold_call(expect, WORK / f"trace-{os.getpid()}-{n}.json")
            traced += wall
            failures += [failure] if failure else []
            traces.append(trace)
    finally:
        for leftover in WORK.glob(f"trace-{os.getpid()}-*.json"):
            leftover.unlink()
        try:
            WORK.rmdir()
        except OSError:
            pass
    startup = sum(t["startup_s"] for t in traces)
    return 2 * len(expects), failures, layer_metrics(traces, startup, traced - plain)


# -- library-warm -------------------------------------------------------------


def library_worker(seed, *flags, trace=False):
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    t0 = time.monotonic()
    cmd += [str(BENCH / "libwarm.py"), "--seed", str(seed), "--t0", repr(t0), *flags]
    wall, proc = run_child(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"library worker failed with exit {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(wall_s=wall, t0=t0)
    result["imports"], _ = layertrace.import_self_seconds(proc.stderr)
    return result


def run_library(seed, seconds):
    probe = SpeedProbe()
    setups, main = [], None
    for flags in [("--seconds", str(seconds))] + [("--setup-only",)] * (SETUP_REPEATS["library-warm"] - 1):
        probe.sample(3)
        with probe.running():
            worker = library_worker(seed, *flags)
        factor = probe.scale(worker["t0"], worker["t0"] + worker["setup_s"])
        setups.append((worker["setup_s"], worker["setup_s"] * factor))
        main = main or worker
    times = {
        kind: [(seconds, seconds * probe.scale(start, start + seconds)) for start, seconds in calls]
        for kind, calls in main["calls"].items()
    }
    metrics = end_to_end(setups, times, main["rounds"], main["rss_mb"], probe)
    return sum(len(v) for v in times.values()), main["failures"], metrics


def trace_library(seed):
    plain = library_worker(seed, "--rounds", "1")
    traced = library_worker(seed, "--rounds", "1", "--trace", trace=True)
    trace = dict(traced["trace"], imports=traced["imports"], wall_s=traced["wall_s"])
    attempted = sum(len(v) for v in plain["calls"].values()) + sum(len(v) for v in traced["calls"].values())
    metrics = layer_metrics([trace], traced["startup_s"], traced["wall_s"] - plain["wall_s"])
    return attempted, plain["failures"] + traced["failures"], metrics


# -- per-layer metrics --------------------------------------------------------


def layer_metrics(traces, startup_s, overhead_s):
    """Sum the traced processes' spans and counts into the per-layer metrics."""
    calls, self_s, incl, extra, imports = (defaultdict(float) for _ in range(5))
    doublet_keys = set()
    wall = 0.0
    for trace in traces:
        for table, key in ((calls, "calls"), (self_s, "self_s"), (incl, "inclusive_s"), (extra, "extra"), (imports, "imports")):
            for name, value in trace[key].items():
                table[name] += value
        doublet_keys.update(trace["doublet_keys"])
        wall += trace["wall_s"]

    def count(layer, *methods):
        return int(sum(calls[f"{layer}.{m}"] for m in methods))

    arithmetic = {"mul_calls": ("__mul__", "__rmul__"), "add_calls": ("__add__", "__radd__", "__sub__", "__rsub__")}
    doublets = count("decompose", "doublet_search")
    m = {}
    for layer, cls in (("scalars", "QuadScalar"), ("quaternions", "Quaternion")):
        for name, methods in arithmetic.items():
            m[f"{layer}.{name}"] = (count(layer, *(f"{cls}.{x}" for x in methods)), "count")
    m["scalars.div_calls"] = (count("scalars", "QuadScalar.__truediv__", "QuadScalar.__rtruediv__"), "count")
    m["groups.qgroup_builds"] = (count("groups", "QGroup.__init__"), "count")
    m["groups.cayley_entries"] = (int(extra["cayley_entries"]), "count")
    m["groups.qgroup_build_s"] = (incl["qgroup_build"], "s")
    m["groups.qgroup_build_share"] = (incl["qgroup_build"] / wall, "ratio")
    m["groups.closure_calls"] = (count("groups", "closure"), "count")
    products = extra["closure_products"]
    m["groups.closure_useful_ratio"] = (extra["closure_new_elements"] / products if products else 0.0, "ratio")
    m["groups.normal_subgroups_s"] = (incl["normal_subgroups"], "s")
    m["groups.is_permutable_s"] = (incl["is_permutable"], "s")
    m["lattices.calls"] = (int(sum(v for k, v in calls.items() if k.startswith("lattices."))), "count")
    m["particles.registry_s"] = (incl["registry"], "s")
    m["particles.check_vertex_calls"] = (count("particles", "check_vertex"), "count")
    m["decompose.search_calls"] = (count("decompose", "sum_decompositions", "diff_decompositions", "doublet_search"), "count")
    m["decompose.search_s"] = (incl["search"], "s")
    m["decompose.table3_s"] = (incl["table3"], "s")
    m["decompose.doublet_useful_ratio"] = (len(doublet_keys) / doublets if doublets else 0.0, "ratio")
    m["reports.render_calls"] = (count("reports", "render"), "count")
    m["reports.bytes_out"] = (int(extra["bytes_out"]), "bytes")
    m["cli.startup_s"] = (startup_s, "s")
    for layer in layertrace.LAYERS:
        # A module's own code runs at import and inside its functions.
        m[f"{layer}.import_s"] = (imports[layer], "s")
        m[f"{layer}.self_s"] = (imports[layer] + self_s[layer], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


# -- entry point ----------------------------------------------------------------


def invoke(workload, seed, seconds, trace) -> dict:
    """Run the benchmark as a separate process and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, encoding="utf-8", check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hurwitzq" / "cli.py").is_file():
        print(f"error: no hurwitzq sources under {SRC}", file=sys.stderr)
        return 2
    goldens = inputs.load_goldens()
    pin_to_one_cpu()
    if args.workload == "library-warm":
        attempted, failures, metrics = trace_library(args.seed) if args.trace else run_library(args.seed, args.seconds)
    elif args.trace:
        attempted, failures, metrics = trace_cold(args.workload, args.seed, goldens)
    else:
        attempted, failures, metrics = run_cold(args.workload, args.seed, args.seconds, goldens)
    for failure in failures:
        print(f"# FAILED {failure}")
    print(f"# failed_ratio={len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
