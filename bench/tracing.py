"""Per-layer tracing from outside the program.

The traced run replaces each listed public function of ``mphecke`` by a
wrapper that records a span (name, parent, duration) for every call.
Spans are folded as they close: per function the calls, total time and
self time (duration minus the time of its child spans), and per
(parent, child) edge the calls and total time.  Durations of
``rf_normalize`` are kept one by one for its percentiles.
"""

from __future__ import annotations

import importlib
import math
import sys
import time

# (module, attribute path inside the module); the metric prefix is
# "<module>.<attribute path>" with dunder methods named by their operator.
TARGETS = [
    ("laurent", "QLaurent.__mul__"),
    ("laurent", "QLaurent.__add__"),
    ("laurent", "QLaurent.gcd"),
    ("laurent", "GroupAlgebraElement.__mul__"),
    ("laurent", "GroupAlgebraElement.exact_div"),
    ("laurent", "rf_normalize"),
    ("rankone", "verify_quadratic"),
    ("rankone", "RankOneAlgebra.mul"),
    ("rankone", "mu_build"),
    ("hecke", "he_mul"),
    ("hecke", "commute_zu_ga"),
    ("hecke", "ext_mul"),
    ("rootdata", "reduced_word"),
    ("rootdata", "weyl_length"),
    ("rootdata", "group_closure"),
    ("blocks", "classify"),
    ("mpparams", "enumerate_blocks"),
    ("mpparams", "verify_match"),
    ("mpparams", "hecke_for_block"),
    ("cli", "main"),
    ("cli", "emit"),
]
KEEP_DURATIONS = "laurent.rf_normalize"
EMIT = "cli.emit"


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__mul__', 'mul').replace('__add__', 'add')}"


NAMES = [metric_name(m, a) for m, a in TARGETS]


class Tracer:
    ROOT = "op"

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in NAMES}   # calls, total_s, self_s
        self.edges: dict[tuple[str, str], list] = {}             # (parent, child) -> [calls, total_s]
        self.durations: list[float] = []
        self.emit_bytes = 0
        self.ops: list[list] = []                                # [op index, kind, start, duration]
        self._stack = [[self.ROOT, 0.0]]                         # open spans: [name, child time]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, stats, edges = self._stack, self.stats[name], self.edges
        durations = self.durations if name == KEEP_DURATIONS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
                if durations is not None:
                    durations.append(dur)

        if name == EMIT:
            inner = traced

            def traced(payload, args):
                before = sys.stdout.tell()
                try:
                    return inner(payload, args)
                finally:
                    self.emit_bytes += sys.stdout.tell() - before
        return traced

    def install(self):
        """Wrap every target where it is defined and wherever its name was imported."""
        for module, _ in TARGETS:
            importlib.import_module(f"mphecke.{module}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mphecke" or n.startswith("mphecke.")]
        for (module, attr), name in zip(TARGETS, NAMES):
            owner = sys.modules[f"mphecke.{module}"]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[last]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(name, fn)
            self._set(owner, last, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
            if not path:
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(last) is fn:
                        self._set(mod, last, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def op_span(self, index: int, kind: str, start: float, duration: float):
        """Record the root span of one operation; spans inside it have parent "op"."""
        self.ops.append([index, kind, start, duration])

    def metrics(self, passes: int) -> dict:
        """Per-round figures: totals over ``passes`` traced runs of one round, divided by it."""
        out = {}
        for name in NAMES:
            calls, _, self_s = self.stats[name]
            out[f"{name}.calls"] = (_per_pass(calls, passes), "count")
            out[f"{name}.self_s"] = (self_s / passes, "s")
        d = sorted(self.durations)
        out["laurent.rf_normalize.p50_ms"] = (_quantile(d, 0.50) * 1e3, "ms")
        out["laurent.rf_normalize.p99_ms"] = (_quantile(d, 0.99) * 1e3, "ms")
        out["cli.emit.bytes"] = (_per_pass(self.emit_bytes, passes), "bytes")
        return out

    def dump(self) -> dict:
        return {
            "functions": {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in self.stats.items()},
            "edges": [[p, c, n, t] for (p, c), (n, t) in sorted(self.edges.items())],
            "ops": self.ops,
        }


def _per_pass(count: int, passes: int):
    """An exact per-pass count; a fraction shows that the passes differed."""
    return count // passes if count % passes == 0 else count / passes


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values (the function was not called)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
