"""The ``library-warm`` worker: one long-lived process calling the public API.

Set-up is the import of ``hurwitzq.cli`` plus ``group_q8/q24/q48/q120()``
and ``registry()``; it is timed from the parent's launch of this process.
The timed loop then runs whole rounds until ``--seconds`` have passed.
A round holds a fixed number of calls of each kind, in seeded order:

- ``product``: 400 Hamilton products with a norm-multiplicativity check,
  half on Q24/Q48/Q120 elements, half on random quaternions over Q(sqrt(d))
  with numerators and denominators of up to six digits;
- ``closure``: 3 closures of seeded generator pairs (random conjugates of
  generators of Q24, of a Q16 inside Q48, and of Q8), each followed by
  ``conjugacy_classes`` and ``normal_subgroups``;
- ``cyclic``: 2 closures of one random Q120 element;
- ``search``: 4 ``sum``, 4 ``diff`` and 4 ``doublet`` searches;
- ``verify``: 1 ``run_verification()``.

Q120-generating pairs are left out: each closure takes about 20 s.
Only the call is timed, as (start, seconds) on ``time.monotonic()``; its
result is then checked against :mod:`oracle`.  The worker prints one JSON
object on stdout.  With ``--trace`` it installs
the layer tracer before set-up and runs exactly ``--rounds`` rounds.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction

import hurwitzq.cli  # noqa: F401  (the import the cold workloads time)
import hurwitzq as hq
from hurwitzq import quaternions

import inputs
import oracle

PRODUCTS_PER_ROUND = 400
SEARCHES_PER_MODE = 4
CYCLIC_PER_ROUND = 2
CHECK_NAMES = (
    "table-1-recomputation", "table-2-recomputation", "table-3-recomputation",
    "charge-formula", "parity-rule", "parity-survivor-count", "conjugation-class-count",
    "vertex-conservation", "doublet-uniqueness", "conjugate-exclusions", "unit-coverage",
    "group-orders", "subgroup-normality", "q120-normal-subgroups",
)


def _pairs(q):
    return tuple((c.rational, c.surd) for c in q.components)


def _random_quaternion(rng, d):
    def rational():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))

    return hq.Quaternion(*(hq.QuadScalar(rational(), rational(), d) for _ in range(4)))


def _quaternion(q2):
    return hq.Quaternion(*(Fraction(c, 2) for c in q2))


def _product(rng, groups, unit):
    if unit:
        group = rng.choice((groups["q24"], groups["q48"], groups["q120"]))
        a, b, d = rng.choice(group.elements), rng.choice(group.elements), group.d
    else:
        d = rng.choice(hq.SUPPORTED_FIELDS)
        a, b = _random_quaternion(rng, d), _random_quaternion(rng, d)
    expected = oracle.hamilton(_pairs(a), _pairs(b), d)

    def run():
        p = a * b
        return p, p.norm() == a.norm() * b.norm()

    def check(found):
        p, multiplicative = found
        if not multiplicative:
            return f"norm of {a} * {b} is not multiplicative"
        return None if _pairs(p) == expected else f"{a} * {b} differs from the oracle"

    return run, check


def _closure(rng, groups, template):
    _, (x, y), expected = template
    g = rng.choice(groups["q48"].elements)
    pair = [g * x * g.conjugate(), g * y * g.conjugate()]
    pair = [p.conjugate() if rng.random() < 0.5 else p for p in pair]
    rng.shuffle(pair)

    def run():
        group = hq.closure(pair)
        return group.order, len(group.conjugacy_classes()), len(hq.normal_subgroups(group))

    def check(found):
        return None if found == expected else f"closure of {pair} gave (order, classes, normal subgroups) {found}"

    return run, check


def _cyclic(rng, groups):
    q = rng.choice(groups["q120"].elements)
    expected = oracle.element_order(_pairs(q), q.d)

    def run():
        return hq.closure([q]).order

    def check(order):
        return None if order == expected else f"cyclic closure of {q} has order {order}, expected {expected}"

    return run, check


def _search(rng, mode):
    if mode == "doublet":
        up2, down2 = inputs.charge_pair(rng)
        expected = oracle.doublet_pairs(up2, down2)
        up, down = _quaternion(up2), _quaternion(down2)

        def run():
            return hq.doublet_search(up, down)
    else:
        target2 = inputs.trit_target(rng)
        expected = oracle.sum_pairs(target2) if mode == "sum" else oracle.diff_pairs(target2)
        target = _quaternion(target2)
        search = hq.sum_decompositions if mode == "sum" else hq.diff_decompositions

        def run():
            return search(target).pairs

    def check(pairs):
        found = [(a.name, b.name) for a, b in pairs]
        return None if found == expected else f"{mode} search differs from the oracle"

    return run, check


def _verify():
    def check(results):
        if tuple(r.name for r in results) == CHECK_NAMES and all(r.passed for r in results):
            return None
        return "run_verification did not pass all 14 named checks"

    return hq.run_verification, check


def round_calls(rng, groups):
    """The seeded (kind, run, check) calls of one round, shuffled."""
    calls = [
        (f"product-{'unit' if unit else 'general'}", *_product(rng, groups, unit))
        for unit in (True, False)
        for _ in range(PRODUCTS_PER_ROUND // 2)
    ]
    calls += [(f"closure-{t[0]}", *_closure(rng, groups, t)) for t in groups["templates"]]
    calls += [("cyclic", *_cyclic(rng, groups)) for _ in range(CYCLIC_PER_ROUND)]
    calls += [
        (f"search-{mode}", *_search(rng, mode))
        for mode in ("sum", "diff", "doublet")
        for _ in range(SEARCHES_PER_MODE)
    ]
    calls.append(("verify", *_verify()))
    rng.shuffle(calls)
    return calls


def _templates():
    """Generator pairs with the (order, classes, normal subgroups) of the group they make."""
    half = Fraction(1, 2)
    s = hq.QuadScalar(0, half, 2)
    h1 = hq.Quaternion(half, half, half, half)
    return [
        ("q24", (h1, quaternions.I), (24, 7, 4)),
        ("q16", (hq.Quaternion(s, s, 0, 0), quaternions.J), (16, 7, 7)),
        ("q8", (quaternions.I, quaternions.J), (8, 5, 6)),
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds")
    args = parser.parse_args()

    first_call = time.monotonic()
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    groups = {"q8": hq.group_q8(), "q24": hq.group_q24(), "q48": hq.group_q48(), "q120": hq.group_q120()}
    hq.registry()
    result = {"setup_s": time.monotonic() - args.t0, "startup_s": first_call - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    def tracing(flag):
        if tracer is not None:
            tracer.enabled = flag

    tracing(False)  # inputs and checks are the benchmark's own work
    groups["templates"] = _templates()
    rng = random.Random(args.seed)
    calls: "dict[str, list[tuple[float, float]]]" = {}
    failures: "list[str]" = []
    rounds = 0

    def more_rounds():
        if args.rounds:
            return rounds < args.rounds
        return not rounds or time.perf_counter() - loop_start < args.seconds

    loop_start = time.perf_counter()
    while more_rounds():
        for kind, run, check in round_calls(rng, groups):
            tracing(True)
            start = time.monotonic()
            found = run()
            elapsed = time.monotonic() - start
            tracing(False)
            calls.setdefault(kind, []).append((start, elapsed))
            failure = check(found)
            if failure:
                failures.append(failure)
        rounds += 1
    result.update(
        calls=calls,
        rounds=rounds,
        failures=failures,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
