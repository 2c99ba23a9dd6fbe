"""Output checks: each operation's outputs against stored references and invariants.

An operation's outputs are first reduced to a JSON-able *record*.  A
record passes when it equals the reference record stored for its input
in ``reference.json`` (exactly for discrete values, within a relative
tolerance of 1e-9 for floats, so a vectorisation that reorders float
sums still passes) and when the invariants below hold on it:

* compile: every plan weight lies in [0, 1] and the weights sum to at
  most 1; the supported plans are a subset of the logical plans; under
  each supported plan every node's worst-case load is within its
  capacity;
* simulate: ``SimulationReport.conservation_holds()`` for every strategy.
"""

from __future__ import annotations

import math
from typing import Any

REL_TOL = 1e-9
#: Slack for float accumulation; the library's own support test uses it.
CAPACITY_SLACK = 1e-12


def _label(plan: Any) -> str:
    return "-".join(str(op) for op in plan.order)


def compile_record(solution: Any) -> dict[str, Any]:
    """Reduce an ``RLDSolution`` to the outputs the benchmark checks."""
    table = solution.load_table
    placement = solution.physical.physical_plan
    assignment = [sorted(ops) for ops in placement.assignment] if placement else []
    supported = sorted(solution.supported_plans)
    return {
        "plans": sorted(_label(p) for p in solution.logical.plans),
        "supported": [_label(p) for p in supported],
        "placement": assignment,
        "optimizer_calls": solution.partitioning.optimizer_calls,
        "weights": {_label(p): table.weight_of(p) for p in sorted(table.plans)},
        "score": solution.physical.score,
        "capacities": list(solution.cluster.capacities),
        "node_loads": [
            [table.config_load(table.plans.index(plan), ops) for ops in assignment]
            for plan in supported
        ],
    }


def simulate_record(comparison: Any) -> dict[str, Any]:
    """Reduce a ``StrategyComparison`` to the outputs the benchmark checks."""
    return {
        name: {
            "batches_injected": report.batches_injected,
            "batches_completed": report.batches_completed,
            "batches_dropped": report.batches_dropped,
            "batches_in_flight": report.batches_in_flight,
            "avg_latency_ms": report.avg_tuple_latency_ms,
            "p95_latency_ms": report.latency_percentile_ms(95),
            "tuples_out": report.tuples_out,
            "conservation_holds": report.conservation_holds(),
        }
        for name, report in comparison.reports.items()
    }


def compile_facts(solution: Any) -> dict[str, float]:
    """Counts read from a compiled solution, for the per-layer metrics."""
    return {
        "optimizer_calls": solution.partitioning.optimizer_calls,
        "regions": solution.partitioning.regions_processed,
        "nodes_explored": solution.physical.nodes_explored,
    }


def outputs(output: Any) -> tuple[dict[str, Any], dict[str, float]]:
    """(checked record, per-layer facts) of one operation's output.

    A compile operation returns an ``RLDSolution``; a simulate operation
    returns ``(StrategyComparison, strategies by name)``.
    """
    if not isinstance(output, tuple):
        return compile_record(output), compile_facts(output)
    comparison, strategies = output
    reports = comparison.reports.values()
    rld = strategies["RLD"]
    facts = {
        "batches_injected": sum(r.batches_injected for r in reports),
        "batches_dropped": sum(r.batches_dropped for r in reports),
        "batch_stalls": sum(r.batch_stalls for r in reports),
        "fault_events": sum(r.fault_events for r in reports),
        "dyn_migrations": comparison.reports["DYN"].migrations,
        "table_hits": rld.table_hits,
        "table_misses": rld.table_misses,
        "table_rebuilds": rld.table_rebuilds,
    }
    return simulate_record(comparison), facts


def differences(actual: Any, expected: Any, path: str = "") -> list[str]:
    """Where ``actual`` departs from ``expected``; empty when they match."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual) if isinstance(actual, dict) else actual!r} != {sorted(expected)}"]
        out: list[str] = []
        for key in expected:
            out += differences(actual[key], expected[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: {actual!r} != {expected!r}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += differences(a, e, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and not isinstance(actual, bool):
        if isinstance(actual, (int, float)) and math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=0.0
        ):
            return []
        return [f"{path}: {actual!r} != {expected!r} (rel tol {REL_TOL})"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def invariant_violations(record: dict[str, Any]) -> list[str]:
    """Invariants that must hold on any record, whatever the reference says."""
    if "weights" not in record:
        return [
            f"{name}: batch accounting does not conserve batches"
            for name, report in record.items()
            if report["conservation_holds"] is not True
        ]
    out = []
    weights = list(record["weights"].values())
    if any(not 0.0 <= w <= 1.0 for w in weights):
        out.append(f"plan weight outside [0, 1]: {weights}")
    if sum(weights) > 1.0:
        out.append(f"plan weights sum to {sum(weights)} > 1")
    extra = sorted(set(record["supported"]) - set(record["plans"]))
    if extra:
        out.append(f"supported plans {extra} are not logical plans")
    for plan, loads in zip(record["supported"], record["node_loads"]):
        for node, (load, cap) in enumerate(zip(loads, record["capacities"])):
            if load > cap * (1 + CAPACITY_SLACK):
                out.append(f"plan {plan}: node {node} load {load} > capacity {cap}")
    return out


def check(record: dict[str, Any], reference: dict[str, Any] | None) -> list[str]:
    """All problems with one operation's record; empty means it passed."""
    if reference is None:
        return ["no reference record for this input"] + invariant_violations(record)
    return differences(record, reference) + invariant_violations(record)
