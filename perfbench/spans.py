"""Spans around the library's layer entry points, installed from outside.

:class:`Tracer` replaces each entry point in :data:`ENTRY_POINTS` with a
wrapper that records a span (name, start, end, parent span, operation
id) or, for entry points called tens of thousands of times per
operation, only a call count.  Nothing in the library changes; removing
the wrappers restores the original attributes.  An entry point that no
longer exists is reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: (layer name, module, class, attribute, how to record).
#: "span" records a span; "count" only counts calls; "events" adds the
#: event loop's processed-event delta to a counter.
ENTRY_POINTS = (
    ("compile.solve", "repro.core.rld", "RLDOptimizer", "solve", "span"),
    ("parameter_space.build", "repro.core.parameter_space", "ParameterSpace", "from_estimates", "span"),
    ("partitioning", "repro.core.partitioning", "EarlyTerminatedRobustPartitioning", "run", "span"),
    ("optimizer", "repro.query.optimizer", "PointOptimizer", "optimize", "span"),
    ("logical.plan_cells", "repro.core.logical", "RobustLogicalSolution", "plan_cells", "span"),
    ("logical.plan_weights", "repro.core.logical", "RobustLogicalSolution", "plan_weights", "span"),
    ("logical.expected_loads", "repro.core.logical", "RobustLogicalSolution", "expected_loads", "span"),
    ("logical.worst_case_loads", "repro.core.logical", "RobustLogicalSolution", "worst_case_loads", "span"),
    ("occurrence.cell_probability", "repro.core.occurrence", "NormalOccurrenceModel", "cell_probability", "count"),
    ("cost_tensor.build", "repro.core.cost_tensor", "CostTensorCache", "cost_tensor", "span"),
    ("cost_tensor.build", "repro.core.cost_tensor", "CostTensorCache", "load_tensor", "span"),
    ("physical.load_table", "repro.core.physical", "PlanLoadTable", "from_solution", "span"),
    ("rld_runtime.route", "repro.runtime.rld_runtime", "RLDStrategy", "route", "span"),
    ("rld_runtime.on_fault", "repro.runtime.rld_runtime", "RLDStrategy", "on_fault", "span"),
    ("dyn.tick", "repro.runtime.dyn", "DYNStrategy", "on_tick", "span"),
    ("dyn.on_fault", "repro.runtime.dyn", "DYNStrategy", "on_fault", "span"),
    ("monitor.sample", "repro.engine.monitor", "StatisticsMonitor", "sample", "span"),
    ("engine.run", "repro.engine.system", "StreamSimulator", "run", "span"),
    ("engine.events", "repro.engine.events", "EventLoop", "run_until", "events"),
)


class Tracer:
    """In-memory spans and counters, attributed to the current operation."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, operation id)
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self.counts: Counter[tuple[str, Any]] = Counter()
        self.absent: list[str] = []
        self.op: Any = None
        self._stack: list[int] = []
        self._saved: list[tuple[type, str, Any]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point that exists; note the ones that do not."""
        for name, module, cls, attr, how in ENTRY_POINTS:
            try:
                owner = getattr(importlib.import_module(module), cls)
                original = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, self._wrap_descriptor(original, name, how))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _wrap_descriptor(self, original: Any, name: str, how: str) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name, how))
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(original.__func__, name, how))
        if isinstance(original, property):
            return property(self._wrap(original.fget, name, how))
        return self._wrap(original, name, how)

    def _wrap(self, fn: Callable[..., Any], name: str, how: str) -> Callable[..., Any]:
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        if how == "count":
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name, tracer.op] += 1
                return fn(*args, **kwargs)

            return counted

        if how == "events":
            def events(loop: Any, *args: Any, **kwargs: Any) -> Any:
                before = loop.processed
                try:
                    return fn(loop, *args, **kwargs)
                finally:
                    counts[name, tracer.op] += loop.processed - before

            return events

        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op))
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3], tracer.op)

        return spanned

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        """Write every span, with its self time, as one JSON line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for (name, start, end, parent, op), own in zip(self.spans, self.self_times()):
                out.write(json.dumps([name, start, end, parent, op, own]) + "\n")


_MISSING = object()


def layer_metrics(
    tracer: Tracer,
    facts: dict[Any, dict[str, float]],
    n_setups: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Times and counts are per operation: the total over traced
    operations divided by their number.  A layer that no traced
    operation entered but the traced set-up did (the q1 compile of the
    simulate workloads) is reported per set-up instead.  ``facts`` holds
    outputs read from each operation's results, keyed like the spans.

    Span times are self times.  ``rld_runtime.route_first_s`` is the
    slowest route call of each operation (median over operations): the
    first on-grid call, which builds the routing table lazily.
    """
    ops = sorted({op for op in facts if op != "setup"})
    self_s: dict[tuple[str, Any], float] = defaultdict(float)
    incl_s: dict[tuple[str, Any], float] = defaultdict(float)
    calls: Counter[tuple[str, Any]] = Counter()
    slowest_route: dict[Any, float] = {}
    for (name, start, end, _, op), own in zip(tracer.spans, tracer.self_times()):
        self_s[name, op] += own
        incl_s[name, op] += end - start
        calls[name, op] += 1
        if name == "rld_runtime.route":
            slowest_route[op] = max(slowest_route.get(op, 0.0), end - start)

    def per_op(table: dict[tuple[str, Any], float], name: str) -> float:
        in_ops = sum(table.get((name, op), 0) for op in ops)
        if in_ops:
            return in_ops / len(ops)
        return table.get((name, "setup"), 0) / max(n_setups, 1)

    def fact(name: str) -> float:
        in_ops = sum(facts[op].get(name, 0.0) for op in ops)
        if in_ops:
            return in_ops / len(ops)
        return facts.get("setup", {}).get(name, 0.0)

    opt_calls = per_op(calls, "optimizer")
    opt_busy = per_op(incl_s, "optimizer")
    hits = sum(facts[op].get("table_hits", 0.0) for op in ops)
    misses = sum(facts[op].get("table_misses", 0.0) for op in ops)
    events = sum(tracer.counts.get(("engine.events", op), 0) for op in ops)
    run_s = sum(incl_s.get(("engine.run", op), 0.0) for op in ops)
    return {
        "parameter_space.build_s": per_op(self_s, "parameter_space.build"),
        "partitioning.self_s": per_op(self_s, "partitioning"),
        "partitioning.regions": fact("regions"),
        "optimizer.calls": opt_calls,
        "optimizer.busy_s": opt_busy,
        "optimizer.ms_per_call": 1000.0 * opt_busy / opt_calls if opt_calls else 0.0,
        "logical.plan_cells_s": per_op(self_s, "logical.plan_cells"),
        "logical.plan_weights_s": per_op(self_s, "logical.plan_weights"),
        "logical.expected_loads_s": per_op(self_s, "logical.expected_loads"),
        "logical.worst_case_loads_s": per_op(self_s, "logical.worst_case_loads"),
        "occurrence.cell_probability_calls": per_op(tracer.counts, "occurrence.cell_probability"),
        "cost_tensor.build_s": per_op(self_s, "cost_tensor.build"),
        "physical.load_table_s": per_op(self_s, "physical.load_table"),
        "physical.search_s": per_op(self_s, "compile.solve"),
        "physical.nodes_explored": fact("nodes_explored"),
        "rld_runtime.route_calls": per_op(calls, "rld_runtime.route"),
        "rld_runtime.route_s": per_op(self_s, "rld_runtime.route"),
        "rld_runtime.route_first_s": statistics.median(slowest_route.values()) if slowest_route else 0.0,
        "rld_runtime.table_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "rld_runtime.table_rebuilds": fact("table_rebuilds"),
        "rld_runtime.on_fault_s": per_op(self_s, "rld_runtime.on_fault"),
        "dyn.tick_s": per_op(self_s, "dyn.tick"),
        "dyn.migrations": fact("dyn_migrations"),
        "dyn.on_fault_s": per_op(self_s, "dyn.on_fault"),
        "monitor.sample_s": per_op(self_s, "monitor.sample"),
        "engine.run_s": per_op(self_s, "engine.run"),
        "engine.events": events / len(ops) if ops else 0.0,
        "engine.events_per_s": events / run_s if run_s else 0.0,
        "engine.batches_injected": fact("batches_injected"),
        "engine.batches_dropped": fact("batches_dropped"),
        "engine.batch_stalls": fact("batch_stalls"),
        "faults.events_applied": fact("fault_events"),
    }

