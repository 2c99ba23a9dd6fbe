"""Perf: the vectorized cost-evaluation core vs the scalar path.

Times the work every compile-time consumer (ERP coverage, plan-cell
partitioning, load-table construction) performs over a parameter-space
grid — the full per-plan cost vector plus per-operator load vectors —
two ways on the Fig. 13 Q1 compile-time configuration (``Q1_DIMS``,
ε = 0.1, top uncertainty level):

* **scalar** — the pre-refactor idiom: one ``plan_cost`` /
  ``operator_loads`` call per (plan, grid point) pair inside Python
  loops over ``space.grid_indices()``;
* **vectorized** — the batch kernels ``plan_costs`` and
  ``operator_loads_batch``, one NumPy call per plan over
  ``space.points_matrix`` of the full grid (building that matrix is
  timed too).

Results (plus the observed speedup) are written to
``BENCH_costkernel.json`` at the repo root so CI can archive the perf
trajectory; the test asserts the batch results are *bitwise* equal to
the scalar results and that the speedup clears 10×.

Runs on plain ``time.perf_counter`` — no pytest-benchmark dependency —
so the CI smoke step can execute it with the tier-1 requirements only.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from _harness import Q1_DIMS

from repro.core import ParameterSpace
from repro.core.partitioning import EarlyTerminatedRobustPartitioning
from repro.query.cost import PlanCostModel
from repro.workloads import build_q1

EPSILON = 0.1
LEVEL = 4  # the largest Q1 panel of the Figure 13 sweep
POINTS_PER_LEVEL = 2
REPEATS = 5
TARGET_SPEEDUP = 10.0

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_costkernel.json"


def _scenario():
    query = build_q1()
    estimate = query.default_estimates({d: LEVEL for d in Q1_DIMS})
    space = ParameterSpace.from_estimates(
        estimate, points_per_level=POINTS_PER_LEVEL
    )
    plans = (
        EarlyTerminatedRobustPartitioning(query, space, epsilon=EPSILON)
        .run()
        .solution.plans
    )
    return query, space, plans


def _scalar_eval(model, space, plans):
    """The pre-refactor evaluation: scalar calls over the full grid."""
    costs = []
    loads = []
    for plan in plans:
        plan_costs = []
        plan_loads = []
        for index in space.grid_indices():
            point = space.point_at(index)
            plan_costs.append(model.plan_cost(plan, point))
            plan_loads.append(model.operator_loads(plan, point))
        costs.append(plan_costs)
        loads.append(plan_loads)
    return costs, loads


def _vectorized_eval(model, space, plans):
    """The batch kernels over the full grid's value matrix."""
    matrix = space.points_matrix(list(space.grid_indices()))
    names = list(space.names)
    tensor = np.vstack([model.plan_costs(plan, matrix, names) for plan in plans])
    load_tensors = [model.operator_loads_batch(plan, matrix, names) for plan in plans]
    return tensor, load_tensors


def _best_of(repeats, fn):
    """Best wall-clock of ``repeats`` runs; returns (seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_vectorized_costkernel_speedup():
    query, space, plans = _scenario()
    model = PlanCostModel(query)

    scalar_seconds, (scalar_costs, scalar_loads) = _best_of(
        REPEATS, lambda: _scalar_eval(model, space, plans)
    )
    vector_seconds, (tensor, load_tensors) = _best_of(
        REPEATS, lambda: _vectorized_eval(model, space, plans)
    )

    # Correctness first: the batch results must be *bitwise* identical
    # to the scalar results, or every argmin consumer could drift.
    assert np.array_equal(np.asarray(scalar_costs), tensor)
    for p in range(len(plans)):
        for flat, per_op in enumerate(scalar_loads[p]):
            for op_id, load in per_op.items():
                assert load_tensors[p][op_id][flat] == load

    speedup = scalar_seconds / vector_seconds
    payload = {
        "benchmark": "costkernel",
        "config": {
            "query": "q1",
            "dims": list(Q1_DIMS),
            "epsilon": EPSILON,
            "level": LEVEL,
            "points_per_level": POINTS_PER_LEVEL,
            "repeats": REPEATS,
        },
        "n_points": space.n_points,
        "n_plans": len(plans),
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vector_seconds,
        "speedup": speedup,
        "bitwise_equal": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\ncostkernel: {space.n_points} points x {len(plans)} plans  "
        f"scalar {scalar_seconds * 1e3:.2f} ms  "
        f"vectorized {vector_seconds * 1e3:.2f} ms  speedup {speedup:.1f}x"
    )
    assert speedup >= TARGET_SPEEDUP, (
        f"vectorized kernel only {speedup:.1f}x faster than scalar "
        f"(target {TARGET_SPEEDUP}x); see {RESULT_PATH}"
    )
