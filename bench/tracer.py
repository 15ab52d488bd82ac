"""Outside-in span tracer for the traced benchmark run.

The package carries no instrumentation of its own. Instead the tracer
replaces each public entry point, in every ``mwclust`` namespace that holds
a reference to it (``from`` imports included), with a wrapper that records
a span ``[name, start, end, parent, attrs]``. Spans stay in memory until the
run ends; ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "clusters", "variance", "regression", "diagnostics", "dgp", "harness", "stein")

# private functions that mark a cost the per-layer metrics split out
EXTRA_FUNCTIONS = {
    "cli": ("_read_table", "_floats"),
    "stein": ("_analytic", "_monte_carlo"),
}
CLASS_METHODS = (
    ("clusters", "ClusterScheme", "from_labels"),
    ("clusters", "NeighborhoodIndex", "neighborhood"),
    ("clusters", "NeighborhoodIndex", "neighborhood_sizes"),
)

# argument summaries kept on the span, for the computed counts; each takes
# the call's arguments bound to the wrapped function's parameter names
ATTRS = {
    "variance.cgm_raw": lambda a: [int(a["sample"].W.shape[0]), int(a["sample"].W.shape[1])],
    "stein._analytic": lambda a: int(a["oracle"].scheme.n),
    "harness.run_coverage": lambda a: int(a["reps"]),
    "harness.run_consistency": lambda a: int(a["reps"]) * len(a["n_sweep"]),
}

# spans whose return values are kept, for counts taken after the round
KEEP_RESULTS = ("clusters.build_index",)


class Tracer:
    """Records nested spans around wrapped callables; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.results: dict[str, list] = {}  # name -> return values of KEEP_RESULTS spans

    def wrap(self, name: str, fn, attrs=None, keep_result: bool = False):
        spans, stack, clock = self.spans, self._stack, self.clock
        results = self.results.setdefault(name, []) if keep_result else None
        signature = inspect.signature(fn) if attrs else None

        def summary(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return attrs(bound.arguments)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          summary(args, kwargs) if attrs else None])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()
            if results is not None:
                results.append(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is referenced."""
        modules = {layer: sys.modules[f"mwclust.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            names = [
                n for n, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
            ]
            for n in (*names, *EXTRA_FUNCTIONS.get(layer, ())):
                fn = getattr(mod, n)
                full = f"{layer}.{n}"
                wrapped[id(fn)] = self.wrap(full, fn, ATTRS.get(full), full in KEEP_RESULTS)
        namespaces = [m for k, m in sys.modules.items() if k == "mwclust" or k.startswith("mwclust.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(ns, attr, wrapped[id(obj)])
        for layer, cls_name, meth in CLASS_METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._patch(cls, meth, self.wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "attrs": attrs}) + "\n")


def self_times(spans: list[list], start: int = 0) -> list[float]:
    """Per-span self time: duration minus the durations of its direct children.

    Children of one span never overlap (one thread, strict nesting), so the
    sum of their durations is the part of the parent they cover.
    """
    out = [s[2] - s[1] for s in spans[start:]]
    for s in spans[start:]:
        if s[3] >= start:
            out[s[3] - start] -= s[2] - s[1]
    return out
