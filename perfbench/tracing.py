"""Outside-in tracing of redmpc's layers for the per-layer metrics.

Wrappers are installed where each caller looks a name up, so the library
itself is unchanged: ``redmpc.simulate``'s own ``solver_map`` and
``solve_optimal``, ``redmpc.certify``'s own ``solve_optimal``,
``iterate_map`` and ``cost``, ``redmpc.cli``'s writers, and so on. The
submodules are reached through ``importlib`` because the package attribute
``redmpc.simulate`` is the function, not the module.

Timed wrappers append one span ``(name, start, end, parent)`` per call to an
in-memory list; self times are derived from the spans after the run. Plant
methods are only counted (a timer per call would cost more than the call);
``plant.busy_s`` is the count of outermost plant calls times each method's
per-call time, measured separately in a calibration loop.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). A name reached from two modules is the same
# function seen by two callers; both wrappers record the same span name except
# certify's direct cost calls, which the certify metrics report apart from the
# line-search cost calls.
TIMED = [
    ("redmpc.ocp", "rollout", "ocp.rollout"),
    ("redmpc.ocp", "cost", "ocp.cost"),
    ("redmpc.ocp", "gradient", "ocp.gradient"),
    ("redmpc.ocp", "iterate_map", "ocp.iterate_map"),
    ("redmpc.simulate", "simulate", "simulate.simulate"),
    ("redmpc.simulate", "solver_map", "ocp.solver_map"),
    ("redmpc.simulate", "solve_optimal", "ocp.solve_optimal"),
    ("redmpc.certify", "full_certificate", "certify.full_certificate"),
    ("redmpc.certify", "solve_optimal", "ocp.solve_optimal"),
    ("redmpc.certify", "iterate_map", "ocp.iterate_map"),
    ("redmpc.certify", "cost", "certify.cost"),
    ("redmpc.certify", "boundary_layer_check", "certify.boundary_layer_check"),
    ("redmpc.certify", "closed_loop_decrease_check", "certify.closed_loop_decrease_check"),
    ("redmpc.cli", "load_config", "config.load_config"),
    ("redmpc.cli", "compare_strategies", "cli.compare_strategies"),
    ("redmpc.cli", "write_comparison_csv", "cli.write_outputs"),
    ("redmpc.cli", "write_gnuplot_script", "cli.write_outputs"),
    ("redmpc.cli", "main", "cli.main"),
]

# Plant methods counted on the model class (every instance, including the
# ones the CLI builds itself). The Jacobian pieces are only ever called from
# reduced_jacobians, whose calibrated time covers them.
PLANT_METHODS = ("reduced_map", "reduced_jacobians", "equilibrium_map", "extra_map", "target_map")

# the optimizer's entry points; the outermost of them is one optimizer update
SOLVER_SPANS = ("ocp.solver_map", "ocp.iterate_map", "ocp.solve_optimal")


class Tracer:
    """Span recorder and plant call counter for one traced section."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.info: dict[int, object] = {}
        self.calls: Counter = Counter()
        self.outer_calls: Counter = Counter()
        self._stack: list[int] = []
        self._plant_depth = [0]  # 1 while inside a plant method

    def timed(self, name, fn):
        spans, stack, info = self.spans, self._stack, self.info
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            info[idx] = _span_info(name, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        calls, outer, depth = self.calls, self.outer_calls, self._plant_depth

        def wrapper(*args):
            calls[name] += 1
            if depth[0]:
                return fn(*args)
            outer[name] += 1
            depth[0] = 1
            try:
                return fn(*args)
            finally:
                depth[0] = 0

        return wrapper

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent]) + "\n")


def _span_info(name, args, result):
    """What a span's metrics need from its call: iterations, rejections, delta, steps."""
    if name == "ocp.solve_optimal":
        return (result.iterations_used, result.rejected_steps, result.converged)
    if name == "ocp.iterate_map":
        return (args[2].iters_per_sample, result[1])
    if name == "simulate.simulate":
        return (float(args[3].delta), int(result.step.size))
    if name == "certify.closed_loop_decrease_check":
        return result.samples
    return None


@contextmanager
def installed(tracer: Tracer, plant_class):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in TIMED:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.timed(span, getattr(module, attr)))
        for method in PLANT_METHODS:
            saved.append((plant_class, method, plant_class.__dict__.get(method)))
            setattr(plant_class, method, tracer.counted(method, getattr(plant_class, method)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def calibrate_plant(model, delta: float, calls: int = 3000) -> dict[str, float]:
    """Seconds per call of each plant method on representative arguments."""
    x = np.array([0.3, -0.2])
    xi = np.array([0.5])
    u = np.array([1.5])
    arguments = {
        "reduced_map": (x, u, delta),
        "reduced_jacobians": (x, u, delta),
        "equilibrium_map": (x, u),
        "extra_map": (xi, x, u, delta),
        "target_map": (x, xi, u, delta),
    }
    per_call = {}
    for method, args in arguments.items():
        fn = getattr(model, method)
        fn(*args)
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        per_call[method] = (time.perf_counter() - start) / calls
    return per_call


class SpanIndex:
    """Spans grouped by name, with self times."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.info = tracer.info
        child_time = [0.0] * len(self.spans)
        self.by_name: dict[str, list[int]] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self.by_name.setdefault(name, []).append(idx)
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [s[2] - s[1] - c for s, c in zip(self.spans, child_time)]

    def of(self, name):
        return self.by_name.get(name, [])

    def duration(self, idx) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def total(self, name) -> float:
        return sum(self.duration(i) for i in self.of(name))

    def self_total(self, name) -> float:
        return sum(self.self_time[i] for i in self.of(name))

    def parent_name(self, idx):
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def solver_figures(index: SpanIndex) -> dict[str, float]:
    """Iteration-level figures of the optimizer: rollouts and backtracks per iteration."""
    iterate = index.of("ocp.iterate_map")
    optimal = index.of("ocp.solve_optimal")
    iterations = sum(index.info[i][0] for i in iterate) + sum(index.info[i][0] for i in optimal)
    rollouts = len(index.of("ocp.rollout"))
    line_search_costs = [
        i for i in index.of("ocp.cost") if index.parent_name(i) in ("ocp.iterate_map", "ocp.solve_optimal")
    ]
    # iterate_map evaluates cost(z) once per iteration, solve_optimal once per
    # call; every other line-search cost is a trial, and each iteration's
    # first trial is not a backtrack.
    references = sum(index.info[i][0] for i in iterate) + len(optimal)
    backtracks = len(line_search_costs) - references - iterations
    return {
        "rollouts_per_iteration": rollouts / iterations if iterations else 0.0,
        "backtracks_per_iteration": backtracks / iterations if iterations else 0.0,
        "rejected": sum(index.info[i][1] for i in iterate) + sum(index.info[i][1] for i in optimal),
    }


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(
    tracer: Tracer, plant_seconds: dict[str, float], units: int, wall_s: float, load_config_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced section.

    ``units`` is the number of units of work the section covered (closed-loop
    steps, or certificates), ``wall_s`` its wall time, and ``load_config_s``
    the time of the set-up's first ``load_config`` call. Every workload
    reports every metric: a layer that did not run reads 0 calls and 0 %.
    """
    index = SpanIndex(tracer)
    out: dict[str, float] = {}

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s

    for method in ("reduced_map", "reduced_jacobians", "equilibrium_map", "extra_map"):
        out[f"plant.{method}.calls"] = tracer.calls[method] / units
    out["plant.busy_s"] = sum(n * plant_seconds[m] for m, n in tracer.outer_calls.items()) / units

    for name in ("rollout", "cost", "gradient"):
        ids = index.of(f"ocp.{name}") + (index.of("certify.cost") if name == "cost" else [])
        out[f"ocp.{name}.calls"] = len(ids) / units
        out[f"ocp.{name}.us"] = 1e6 * _mean([index.duration(i) for i in ids])
    for name in ("solver_map", "iterate_map", "solve_optimal"):
        out[f"ocp.{name}.calls"] = len(index.of(f"ocp.{name}")) / units
        out[f"ocp.{name}.pct"] = pct(index.total(f"ocp.{name}"))
    optimal = index.of("ocp.solve_optimal")
    out["ocp.solve_optimal.iters"] = _mean([index.info[i][0] for i in optimal])
    out["ocp.solve_optimal.unconverged"] = sum(1 for i in optimal if not index.info[i][2]) / units
    figures = solver_figures(index)
    out["ocp.rejected_steps"] = figures["rejected"] / units
    out["ocp.backtracks_per_iteration"] = figures["backtracks_per_iteration"]
    out["ocp.rollouts_per_iteration"] = figures["rollouts_per_iteration"]
    # one optimizer update: an outermost solver_map, iterate_map or solve_optimal call
    updates = [i for name in SOLVER_SPANS for i in index.of(name) if index.parent_name(i) not in SOLVER_SPANS]
    update_ms = [1e3 * index.duration(i) for i in updates]
    out["ocp.update.calls"] = len(updates) / units
    out["ocp.update.ms_p50"] = _percentile(update_ms, 50)
    out["ocp.update.ms_p90"] = _percentile(update_ms, 90)

    sims = index.of("simulate.simulate")
    deltas = {i: index.info[i][0] for i in sims}
    steps = sum(index.info[i][1] for i in sims)
    out["simulate.self.pct"] = pct(index.self_total("simulate.simulate"))
    over = [i for i in updates if index.spans[i][3] in deltas]
    out["simulate.steps_over_delta"] = (
        sum(index.duration(i) > deltas[index.spans[i][3]] for i in over) / steps if steps else 0.0
    )

    out["certify.self.pct"] = pct(index.self_total("certify.full_certificate"))
    for name in ("cost", "boundary_layer_check", "closed_loop_decrease_check"):
        out[f"certify.{name}.pct"] = pct(index.total(f"certify.{name}"))
    checks = index.of("certify.closed_loop_decrease_check")
    solves = [i for i in optimal if index.parent_name(i) == "certify.closed_loop_decrease_check"]
    samples = sum(index.info[i] for i in checks)
    out["certify.closed_loop.solves_per_sample"] = len(solves) / samples if samples else 0.0

    out["config.load_config.ms"] = 1e3 * load_config_s
    out["config.load_config.pct"] = pct(index.total("config.load_config"))
    out["cli.self.pct"] = pct(index.self_total("cli.main") + index.self_total("cli.compare_strategies"))
    out["cli.write_outputs.pct"] = pct(index.total("cli.write_outputs"))
    return {k: float(v) for k, v in out.items()}
