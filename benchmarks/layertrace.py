"""Per-layer spans for the benchmark's traced passes.

`LayerTracer.install()` wraps every public function defined in each dtlab
layer module, at every binding inside the dtlab package, plus
`ExpSum.sign` and `ExpSum.enclosure`; `remove()` puts the originals back.
`exactexp.exp_bounds` stays unwrapped so its lru_cache counters stay exact.
Nothing under `src/` is edited: the wrappers replace module attributes.

Spans live in memory as (name, start, end, parent, run id) and are written
as JSONL by `write_jsonl`.  A span with no open parent starts a new run id,
so each top-level call into dtlab (one `cli.main`, one `hardcore_solve`) is
one run.  Self time is a span's duration minus the time its direct children
cover; calls nest on one thread, so that is the children's summed duration.
Generator functions (`trees.cube_points`) return before they are iterated,
so their iteration time counts toward the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "dtlab"
LAYERS = ("functions", "trees", "synth", "hardcore", "transforms", "bounds",
          "exactexp", "instances", "scenarios", "cli")
METHODS = (("exactexp", "ExpSum", "sign"), ("exactexp", "ExpSum", "enclosure"))


def _observe_leaf_stats(tracer, result):
    tracer.counts["trees.leaf_stats.leaves"] += len(result)


def _observe_frontier(tracer, result):
    tracer.counts["synth.frontier_points"] += len(result.points)


def _observe_report_bytes(tracer, result):
    tracer.counts["scenarios.report_bytes"] += len(result)


def _observe_run_config(tracer, result):
    for name, seconds in result[1]:
        tracer.scenario_s[name] += seconds


# Counters read off return values, at the boundary where the work happens.
OBSERVERS = {
    "trees.leaf_stats": _observe_leaf_stats,
    "synth.pareto_frontier": _observe_frontier,
    "scenarios.report_to_bytes": _observe_report_bytes,
    "scenarios.run_config": _observe_run_config,
}


class LayerTracer:
    def __init__(self):
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.scenario_s: dict[str, float] = defaultdict(float)
        self._stack: list = []
        self._run_id = 0
        self._restore: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1][0]
            else:
                parent = -1
                self._run_id += 1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent, self._run_id)
                calls[name] += 1
                self_s[name] += duration - frame[1]
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def install(self) -> "LayerTracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))
            self._restore.append((cls, meth, original))
        return self

    def remove(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
