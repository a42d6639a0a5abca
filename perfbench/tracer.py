"""Spans around calls into bootperc's public functions.

A traced run calls `Tracer().install()`, which replaces each target
function by a wrapper in every loaded bootperc module that holds it
(modules that imported the function by name included).  An untraced run
never imports this module, so it runs bootperc unwrapped.

A span records its duration, its self time (duration minus the direct
child spans) and a few counts read off the call's arguments and result.
Reading the counts is timed apart and charged to no span.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

TARGETS = {
    "engine": ("run_process", "martingale_series", "write_trace_csv"),
    "graph": ("sample_gnp_with", "largest_component", "count_neighbors_in"),
    "stages": ("run_stage_pipeline", "giant_in_qualified", "bridge_and_expand"),
    "montecarlo": ("sweep", "run_experiment"),
    "thresholds": ("critical_pair",),
}


def _counts(name: str, args, kwargs, result) -> dict:
    if name == "engine.run_process":
        opts = kwargs.get("opts", args[3] if len(args) > 3 else None)
        capped = opts is not None and opts.max_steps is not None
        steps = result.T if result.T is not None else opts.max_steps
        return {
            "steps": steps,
            "draws": result.bernoulli_draws,
            "percolated": result.classification == "AlmostPercolated",
            "capped": capped,
        }
    if name == "graph.sample_gnp_with":
        return {"edges": result.edge_count}
    if name == "thresholds.critical_pair":
        params = kwargs.get("params", args[0] if args else None)
        return {"scan_steps": result.t0_int - params.r + 1}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def install(self) -> None:
        wrappers = {}
        for mod, names in TARGETS.items():
            module = importlib.import_module(f"bootperc.{mod}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "bootperc" and not modname.startswith("bootperc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            span = {"name": name, "child_s": 0.0}
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["s"] = time.perf_counter() - start
                stack.pop()
            span["self_s"] = span["s"] - span.pop("child_s")
            if stack:
                stack[-1]["child_s"] += span["s"]
            mark = time.perf_counter()
            span.update(_counts(name, args, kwargs, result))
            if stack:
                # keep the parent's self time free of the tracer's own reads
                stack[-1]["child_s"] += time.perf_counter() - mark
            spans.append(span)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced run, as
    name -> (value, unit).  A layer the workload does not reach reads 0."""
    by = defaultdict(list)
    for span in spans:
        by[span["name"]].append(span)

    def total(name: str, key: str = "s") -> float:
        return sum(span[key] for span in by[name])

    runs = by["engine.run_process"]
    steps = total("engine.run_process", "steps")
    edges = total("graph.sample_gnp_with", "edges")
    return {
        "engine.run_process.calls": (len(runs), "count"),
        "engine.run_process.s": (total("engine.run_process"), "s"),
        "engine.steps": (steps, "count"),
        "engine.us_per_step": (1e6 * total("engine.run_process") / steps if steps else 0.0, "us"),
        "engine.pairs_accounted": (total("engine.run_process", "draws"), "count"),
        "engine.run_process.percolated_s": (_median([s["s"] for s in runs if s["percolated"]]), "s"),
        "engine.run_process.capped_ms": (1e3 * _median([s["s"] for s in runs if s["capped"]]), "ms"),
        "engine.martingale_series.s": (total("engine.martingale_series"), "s"),
        "engine.write_trace_csv.s": (total("engine.write_trace_csv"), "s"),
        "graph.sample_gnp_with.calls": (len(by["graph.sample_gnp_with"]), "count"),
        "graph.sample_gnp_with.s": (total("graph.sample_gnp_with"), "s"),
        "graph.edges": (edges, "count"),
        "graph.ns_per_edge": (1e9 * total("graph.sample_gnp_with") / edges if edges else 0.0, "ns"),
        "graph.largest_component.s": (total("graph.largest_component"), "s"),
        "graph.count_neighbors_in.s": (total("graph.count_neighbors_in"), "s"),
        "stages.run_stage_pipeline.s": (total("stages.run_stage_pipeline"), "s"),
        "stages.giant_in_qualified.s": (total("stages.giant_in_qualified"), "s"),
        "stages.bridge_and_expand.s": (total("stages.bridge_and_expand"), "s"),
        "montecarlo.sweep.s": (total("montecarlo.sweep"), "s"),
        "montecarlo.run_experiment.calls": (len(by["montecarlo.run_experiment"]), "count"),
        "montecarlo.run_experiment.self_s": (total("montecarlo.run_experiment", "self_s"), "s"),
        "thresholds.critical_pair.calls": (len(by["thresholds.critical_pair"]), "count"),
        "thresholds.critical_pair.s": (total("thresholds.critical_pair"), "s"),
        "thresholds.scan_steps": (total("thresholds.critical_pair", "scan_steps"), "count"),
    }
