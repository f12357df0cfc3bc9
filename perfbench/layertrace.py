"""Per-layer tracing of ``hurwitzq`` from outside the package.

:class:`Tracer` wraps the public functions and the arithmetic, hashing
and construction methods of each ``hurwitzq`` module.  Modules bind
names with ``from .x import f``, so a wrapped function replaces every
binding of it across ``hurwitzq.*`` (module globals and module-level
dicts); methods are wrapped on their class.  Spans are aggregated in
memory as they close: call counts, self time per layer (span time minus
child spans), and inclusive time for a few named groups of functions.
:meth:`Tracer.dump` writes them out when the process is done.

Run as a script it is the traced cold child::

    PYTHONPATH=src python -X importtime perfbench/layertrace.py OUT.json verify

which imports ``hurwitzq.cli``, installs the tracer, calls
``hurwitzq.cli.main(argv)`` and writes the trace to OUT.json, together
with ``installed_at``, the ``time.monotonic()`` reading just before the
tracer was installed: the end of the process's start-up.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "quaternions", "lattices", "groups", "particles", "decompose", "verify", "reports", "cli")

# Dunder methods worth a span: arithmetic, hashing/equality (every group
# index lookup), and QGroup construction.
_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__", "__hash__",
}

# Inclusive-time groups: the outermost span of any member counts once.
GROUPS = {
    "groups.QGroup.__init__": "qgroup_build",
    "groups.normal_subgroups": "normal_subgroups",
    "groups.is_permutable": "is_permutable",
    "particles.registry": "registry",
    "decompose.sum_decompositions": "search",
    "decompose.diff_decompositions": "search",
    "decompose.doublet_search": "search",
    "decompose.table3_rows": "table3",
    "decompose.table3_assignments": "table3",
    "cli.main": "main",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: "defaultdict[str, int]" = defaultdict(int)
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        self.inclusive: "defaultdict[str, float]" = defaultdict(float)
        self.extra: "defaultdict[str, int]" = defaultdict(int)
        self.doublet_keys: "set[str]" = set()
        self._depth: "defaultdict[str, int]" = defaultdict(int)
        self._stack: "list[float]" = []
        self._on = [True]

    @property
    def enabled(self) -> bool:
        return self._on[0]

    @enabled.setter
    def enabled(self, flag: bool) -> None:
        self._on[0] = flag

    # -- wrappers -----------------------------------------------------

    def _plain(self, fn, key: str, layer: str):
        calls, self_s, stack, on, clock = self.calls, self.self_s, self._stack, self._on, time.perf_counter

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _grouped(self, fn, key: str, layer: str, group: str):
        inner = self._plain(fn, key, layer)
        depth, inclusive, on, clock = self._depth, self.inclusive, self._on, time.perf_counter

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            depth[group] += 1
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                depth[group] -= 1
                if not depth[group]:
                    inclusive[group] += clock() - start

        return wrapper

    def _special(self, key: str, fn, wrapped):
        """Extra counts that need a look at arguments or results."""
        extra, on = self.extra, self._on
        if key == "groups.QGroup.__init__":

            def qgroup_init(group, *args, **kwargs):
                wrapped(group, *args, **kwargs)
                if on[0]:
                    extra["cayley_entries"] += group.order ** 2

            return qgroup_init
        if key == "groups.closure":
            from hurwitzq.quaternions import ONE

            calls = self.calls

            def closure(seed, *args, **kwargs):
                if not on[0]:
                    return fn(seed, *args, **kwargs)
                seeds = list(seed)
                before = calls["quaternions.Quaternion.__mul__"] + calls["quaternions.Quaternion.__rmul__"]
                result = wrapped(seeds, *args, **kwargs)
                after = calls["quaternions.Quaternion.__mul__"] + calls["quaternions.Quaternion.__rmul__"]
                self.enabled = False
                try:
                    start = {ONE, *seeds, *(s.conjugate() for s in seeds)}
                finally:
                    self.enabled = True
                # The closing QGroup build multiplies every pair once.
                extra["closure_products"] += after - before - result.order ** 2
                extra["closure_new_elements"] += result.order - len(start)
                return result

            return closure
        if key == "decompose.doublet_search":
            keys = self.doublet_keys

            def doublet_search(up, down):
                if on[0]:
                    keys.add(f"{up}|{down}")
                return wrapped(up, down)

            return doublet_search
        if key == "reports.render":

            def render(envelope):
                text = wrapped(envelope)
                if on[0]:
                    extra["bytes_out"] += len(text.encode())
                return text

            return render
        return wrapped

    def _wrap(self, fn, key: str, layer: str):
        group = GROUPS.get(key)
        wrapped = self._grouped(fn, key, layer, group) if group else self._plain(fn, key, layer)
        wrapped = self._special(key, fn, wrapped)
        try:
            functools.update_wrapper(wrapped, fn)
        except AttributeError:
            pass
        return wrapped

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every ``hurwitzq`` layer; the package must be imported."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "hurwitzq" or name.startswith("hurwitzq.")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"hurwitzq.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    key = f"{layer}.{name}"
                    replacements[id(obj)] = (obj, self._wrap(obj, key, layer))
        for module in modules:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[name] = hit[1]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = replacements.get(id(v))
                        if hit is not None and hit[0] is v:
                            value[k] = hit[1]

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            wanted = name in _DUNDERS or (name == "__init__" and cls.__name__ == "QGroup") or (
                not name.startswith("_") and inspect.isfunction(attr)
            )
            if wanted and inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, f"{layer}.{cls.__name__}.{name}", layer))

    # -- output ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive),
            "extra": dict(self.extra),
            "doublet_keys": sorted(self.doublet_keys),
        }

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**self.snapshot(), **extra}, handle)


def import_self_seconds(stderr: str) -> "tuple[dict, str]":
    """Split ``-X importtime`` lines off stderr: (self seconds per hurwitzq layer, rest)."""
    times, rest = {}, []
    for line in stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if len(parts) == 3 and parts[2].startswith("hurwitzq.") and parts[0].isdigit():
                times[parts[2][len("hurwitzq."):]] = int(parts[0]) / 1e6
        else:
            rest.append(line)
    return times, "".join(rest)


def main(argv: "list[str]") -> int:
    out, cli_argv = argv[0], argv[1:]
    import hurwitzq.cli

    tracer = Tracer()
    installed_at = time.monotonic()
    tracer.install()
    try:
        return hurwitzq.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out, installed_at=installed_at)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
