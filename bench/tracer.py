"""External tracer: spans and counters around metriclift's public functions.

The tracer wraps, from outside the package, each public function (the
module's ``__all__``) of ``exprlang``, ``metric``, ``harmonic``, ``lifts``,
``gallery`` and ``cli``, in every module namespace that bound it by name.
``jets`` is not wrapped: it is reached only through
``metric.metric_jets_at``.  The exprlang node constructors (``add``,
``mul`` ...) are left alone: they run once per node during symbolic
assembly, and a span per node would swamp the functions that call them.

A wrapped function that is already running calls straight through, so the
recursive ``to_source``, ``differentiate`` and ``tree_size`` produce one
span per top-level call, not one per node.  Spans stay in memory as
``(op, parent, name, start, end)`` tuples until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "metriclift"
LAYERS = ("exprlang", "metric", "harmonic", "lifts", "gallery", "cli")
NODE_CONSTRUCTORS = frozenset(
    {"const", "sym", "add", "sub", "mul", "div", "power", "neg", "func"}
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._active: defaultdict = defaultdict(int)
        self._wrappers: dict[int, object] = {}
        self._patches: list = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not (layer == "exprlang" and name in NODE_CONSTRUCTORS)
                ):
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)

    # -- counters measured at the boundary where the work happens ---------

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "metric.metric_jets_at":
            c["metric.metric_jets_at.points"] += _points(_arg(args, kwargs, 1, "x"))
            if self._active["lifts.check_lift_conditions"]:
                c["lifts.jet_calls"] += 1
        elif name == "metric.metric_at":
            c["metric.metric_at.points"] += _points(_arg(args, kwargs, 1, "x"))
        elif name == "harmonic.lattice_points":
            c["harmonic.candidates_scanned"] += int(_arg(args, kwargs, 1, "count"))
        elif name == "harmonic.check_harmonic":
            c["harmonic.samples_kept"] += result.samples_used
        elif name == "lifts.check_lift_conditions":
            c["harmonic.samples_kept"] += result.samples_used
            c["lifts.samples"] += result.samples_used
        elif name == "exprlang.parse_expression":
            source = _arg(args, kwargs, 0, "source")
            c["exprlang.parse_expression.source_bytes"] += len(str(source).encode())
        elif name == "exprlang.to_source":
            c["exprlang.to_source.bytes"] += len(result.encode())

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                spans[idx] = (self.op, parent, name, t0, t1)
            self._count(name, args, kwargs, result)
            return result

        return traced

    # -- install / remove -----------------------------------------------

    def install(self):
        """Rebind every wrapped function in each package module that
        holds it by name (including the package's own re-exports)."""
        prefix = PACKAGE + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, total seconds and self seconds (duration
        minus the time its direct child spans cover)."""
        child = [0.0] * len(self.spans)
        for op, parent, name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (op, parent, name, t0, t1) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
        return out

    def write(self, path):
        """Write every span as CSV (gzip): op, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("index,op,parent,name,start_s,end_s\n")
            for i, (op, parent, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{op},{parent},{name},{t0:.9f},{t1:.9f}\n")
