"""Tests for robust logical solutions (plan routing, regions, weights)."""

from __future__ import annotations

import pytest

from repro.core import (
    NormalOccurrenceModel,
    ParameterSpace,
    RobustLogicalSolution,
)
from repro.core.logical import MAX_EXACT_GRID_POINTS, PlanDiscovery
from repro.core.parameter_space import Dimension
from repro.query import LogicalPlan, Operator, PlanCostModel, Query


@pytest.fixture
def setup(four_op_query):
    est = four_op_query.default_estimates({"sel:1": 1, "sel:2": 3})
    space = ParameterSpace.from_estimates(est, points_per_level=3)
    plans = [
        LogicalPlan((3, 2, 1, 0)),
        LogicalPlan((3, 1, 2, 0)),
    ]
    solution = RobustLogicalSolution(four_op_query, space, plans)
    return four_op_query, space, solution


class TestConstruction:
    def test_deduplicates_preserving_order(self, four_op_query, setup):
        _, space, _ = setup
        plans = [
            LogicalPlan((0, 1, 2, 3)),
            LogicalPlan((3, 2, 1, 0)),
            LogicalPlan((0, 1, 2, 3)),
        ]
        solution = RobustLogicalSolution(four_op_query, space, plans)
        assert solution.plans == (LogicalPlan((0, 1, 2, 3)), LogicalPlan((3, 2, 1, 0)))

    def test_empty_rejected(self, four_op_query, setup):
        _, space, _ = setup
        with pytest.raises(ValueError, match="at least one plan"):
            RobustLogicalSolution(four_op_query, space, [])

    def test_contains_and_len(self, setup):
        _, _, solution = setup
        assert len(solution) == 2
        assert LogicalPlan((3, 2, 1, 0)) in solution
        assert LogicalPlan((0, 1, 2, 3)) not in solution

    def test_discoveries_kept(self, four_op_query, setup):
        _, space, _ = setup
        plan = LogicalPlan((0, 1, 2, 3))
        solution = RobustLogicalSolution(
            four_op_query, space, [plan], discoveries=[PlanDiscovery(plan, 3)]
        )
        assert solution.discoveries[0].at_call == 3


class TestRouting:
    def test_best_plan_is_argmin_cost(self, setup):
        query, space, solution = setup
        model = PlanCostModel(query)
        for index in space.grid_indices():
            point = space.point_at(index)
            chosen = solution.best_plan_at(point)
            best_cost = min(model.plan_cost(p, point) for p in solution.plans)
            assert model.plan_cost(chosen, point) == pytest.approx(best_cost)

    def test_plan_cells_partition_grid(self, setup):
        _, space, solution = setup
        cells = solution.plan_cells()
        all_indices = [idx for cell in cells.values() for idx in cell]
        assert sorted(all_indices) == sorted(space.grid_indices())
        assert len(all_indices) == space.n_points

    def test_corner_plans_own_their_corners(self, setup):
        query, space, solution = setup
        lo_plan = solution.best_plan_at(space.full_region().pnt_lo)
        hi_plan = solution.best_plan_at(space.full_region().pnt_hi)
        # The fixture's two plans are the corner optima.
        assert lo_plan == LogicalPlan((3, 2, 1, 0))
        assert hi_plan == LogicalPlan((3, 1, 2, 0))


def _tie_solution(steps: int) -> RobustLogicalSolution:
    """Three plans over a ``steps``³ grid; two of them tie exactly.

    Operators 0 and 1 share cost and selectivity and are not space
    dimensions, so ``(1, 0, 2, 3)`` and ``(0, 1, 2, 3)`` cost the same
    bit for bit everywhere; ``(2, 3, 0, 1)`` wins at low selectivities.
    The tied pair is listed in reverse order so that the tie-break, not
    construction order, must pick ``(0, 1, 2, 3)``.
    """
    query = Query(
        "ties",
        (
            Operator(op_id=0, name="a", cost_per_tuple=2.0, selectivity=0.5),
            Operator(op_id=1, name="b", cost_per_tuple=2.0, selectivity=0.5),
            Operator(op_id=2, name="c", cost_per_tuple=1.0, selectivity=0.6),
            Operator(op_id=3, name="d", cost_per_tuple=1.5, selectivity=0.6),
        ),
    )
    space = ParameterSpace(
        [
            Dimension("sel:2", 0.2, 1.4, steps),
            Dimension("sel:3", 0.2, 1.4, steps),
            Dimension("rate", 80.0, 120.0, steps),
        ]
    )
    plans = [
        LogicalPlan((1, 0, 2, 3)),
        LogicalPlan((2, 3, 0, 1)),
        LogicalPlan((0, 1, 2, 3)),
    ]
    return RobustLogicalSolution(query, space, plans)


class TestPlanCellTieBreak:
    @pytest.mark.parametrize("steps", [9, 30], ids=["exact", "sampled"])
    def test_plan_cells_agree_with_best_plan_at(self, steps):
        solution = _tie_solution(steps)
        space = solution.space
        assert solution.uses_sampled_grid == (space.n_points > MAX_EXACT_GRID_POINTS)
        assert solution.uses_sampled_grid == (steps == 30)
        cells = solution.plan_cells()
        scanned = [tuple(row) for row in solution._representative_indices().tolist()]
        assert sorted(i for c in cells.values() for i in c) == sorted(scanned)
        for plan, plan_cells in cells.items():
            for index in plan_cells:
                assert solution.best_plan_at(space.point_at(index)) == plan

        later, low, first = solution.plans
        model = solution.cost_model
        point = space.point_at(next(iter(cells[first])))
        assert model.plan_cost(first, point) == model.plan_cost(later, point)
        assert cells[first] and cells[low]
        assert not cells[later]


class TestWeights:
    def test_weights_sum_to_total_mass(self, setup):
        _, space, solution = setup
        occurrence = NormalOccurrenceModel(space)
        weights = solution.plan_weights(occurrence)
        assert sum(weights.values()) == pytest.approx(occurrence.total_mass(), rel=1e-9)

    def test_area_fractions_sum_to_one(self, setup):
        _, _, solution = setup
        fractions = solution.area_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_weights_default_occurrence(self, setup):
        _, _, solution = setup
        weights = solution.plan_weights()
        assert all(w >= 0 for w in weights.values())


class TestWorstCaseLoads:
    def test_loads_dominate_every_cell(self, setup):
        query, space, solution = setup
        model = PlanCostModel(query)
        for plan, cells in solution.plan_cells().items():
            worst = solution.worst_case_loads(plan)
            for index in cells:
                point = space.point_at(index)
                loads = model.operator_loads(plan, point)
                for op_id, load in loads.items():
                    assert worst[op_id] >= load - 1e-9

    def test_every_operator_present(self, setup):
        query, _, solution = setup
        worst = solution.worst_case_loads(solution.plans[0])
        assert set(worst) == set(query.operator_ids)

    def test_plan_without_cells_uses_space_corner(self, four_op_query, setup):
        _, space, _ = setup
        # A dominated plan (never cheapest) still gets conservative loads.
        dominated = LogicalPlan((0, 1, 2, 3))
        winner = LogicalPlan((3, 2, 1, 0))
        solution = RobustLogicalSolution(four_op_query, space, [winner, dominated])
        cells = solution.plan_cells()
        if not cells[dominated]:
            worst = solution.worst_case_loads(dominated)
            assert all(v > 0 for v in worst.values())
