"""Tests for ε-robustness checks and coverage measurement."""

from __future__ import annotations

import pytest

from repro.core import (
    ParameterSpace,
    RobustnessChecker,
    covered_indices,
    grid_optimal_costs,
    measure_coverage,
    robust_region_of_plan,
)
from repro.core.parameter_space import Region
from repro.core.robustness import coverage_against_sequence
from repro.query import LogicalPlan, PlanCostModel, make_optimizer


@pytest.fixture
def setup(three_op_query):
    est = three_op_query.default_estimates({"sel:0": 3, "sel:2": 3})
    space = ParameterSpace.from_estimates(est, points_per_level=3)
    optimizer = make_optimizer(three_op_query)
    return three_op_query, space, optimizer


class TestRobustnessChecker:
    def test_single_cell_trivially_robust(self, setup):
        query, space, optimizer = setup
        checker = RobustnessChecker(optimizer, epsilon=0.0)
        cell = Region(space, (0, 0), (0, 0))
        check = checker.check_region(cell)
        assert check.robust
        assert check.cost_ratio == 1.0

    def test_same_corner_plans_robust(self, setup):
        query, space, optimizer = setup
        checker = RobustnessChecker(optimizer, epsilon=0.0)
        # A tiny region around one point almost surely has one optimal plan.
        region = Region(space, (0, 0), (1, 0))
        check = checker.check_region(region)
        if check.plan == check.opt_hi:
            assert check.robust

    def test_check_honours_epsilon(self, setup):
        query, space, optimizer = setup
        region = space.full_region()
        strict = RobustnessChecker(make_optimizer(query), epsilon=0.0)
        loose = RobustnessChecker(make_optimizer(query), epsilon=10.0)
        strict_check = strict.check_region(region)
        loose_check = loose.check_region(region)
        assert loose_check.robust  # ε = 1000% forgives anything
        if strict_check.plan != strict_check.opt_hi:
            assert strict_check.cost_ratio > 1.0

    def test_corner_cache_saves_calls(self, setup):
        query, space, optimizer = setup
        checker = RobustnessChecker(optimizer, epsilon=0.2)
        region = space.full_region()
        checker.check_region(region)
        calls_after_first = optimizer.call_count
        # Sub-regions share corners with the parent.
        pieces = region.split_at((4, 4))
        for piece in pieces:
            checker.check_region(piece)
        # 4 sub-regions have 8 corners total, of which 2 coincide with the
        # parent's; at most 6 new optimizer calls.
        assert optimizer.call_count - calls_after_first <= 6

    def test_negative_epsilon_rejected(self, setup):
        _, _, optimizer = setup
        with pytest.raises(ValueError, match="epsilon"):
            RobustnessChecker(optimizer, epsilon=-0.1)

    def test_robust_plan_satisfies_definition_1(self, setup):
        query, space, optimizer = setup
        epsilon = 0.25
        checker = RobustnessChecker(optimizer, epsilon=epsilon)
        region = space.full_region()
        check = checker.check_region(region)
        pnt_hi = region.pnt_hi
        cost_plan = optimizer.plan_cost(check.plan, pnt_hi)
        cost_opt = optimizer.plan_cost(check.opt_hi, pnt_hi)
        assert check.robust == (cost_plan <= (1 + epsilon) * cost_opt)


class TestCoverage:
    def test_all_optimal_plans_give_full_coverage(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        optimal_costs = grid_optimal_costs(space, oracle)
        plans = {oracle.optimize(space.point_at(i)) for i in space.grid_indices()}
        coverage = measure_coverage(
            plans, space, PlanCostModel(query), optimal_costs, epsilon=0.0
        )
        assert coverage == 1.0

    def test_empty_plan_set_covers_nothing(self, setup):
        query, space, optimizer = setup
        optimal_costs = grid_optimal_costs(space, make_optimizer(query))
        assert (
            measure_coverage([], space, PlanCostModel(query), optimal_costs, 0.2)
            == 0.0
        )

    def test_single_plan_coverage_grows_with_epsilon(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        optimal_costs = grid_optimal_costs(space, oracle)
        plan = oracle.optimize(space.full_region().pnt_lo)
        model = PlanCostModel(query)
        tight = measure_coverage([plan], space, model, optimal_costs, 0.0)
        loose = measure_coverage([plan], space, model, optimal_costs, 0.5)
        assert loose >= tight
        assert loose > 0.0

    def test_coverage_over_plan_subset(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        optimal_costs = grid_optimal_costs(space, oracle)
        model = PlanCostModel(query)
        region = space.full_region()
        sequence = [
            (1, oracle.optimize(region.pnt_lo)),
            (2, LogicalPlan((1, 2, 0))),
            (3, oracle.optimize(region.pnt_hi)),
        ]
        # A point is covered when the cheapest plan of the subset is
        # within (1 + ε) of the optimum there — the scalar definition.
        subset = [sequence[0][1], sequence[2][1]]
        expected = {
            index
            for index in space.grid_indices()
            if min(model.plan_cost(p, space.point_at(index)) for p in subset)
            <= 1.1 * optimal_costs[index] * (1 + 1e-12)
        }
        assert covered_indices(subset, space, model, optimal_costs, 0.1) == expected
        # Each budget of the sweep covers exactly its own plan subset.
        budgets = [0, 1, 2, 3]
        sweep = coverage_against_sequence(
            sequence, budgets, space, model, optimal_costs, 0.1
        )
        assert sweep == [
            measure_coverage(
                [p for calls, p in sequence if calls <= budget],
                space,
                model,
                optimal_costs,
                0.1,
            )
            for budget in budgets
        ]
        assert sweep[0] == 0.0

    def test_covered_indices_subset_of_grid(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        optimal_costs = grid_optimal_costs(space, oracle)
        plan = oracle.optimize(space.full_region().pnt_hi)
        covered = covered_indices(
            [plan], space, PlanCostModel(query), optimal_costs, 0.2
        )
        assert covered <= set(space.grid_indices())

    def test_robust_region_contains_optimality_region(self, setup):
        query, space, optimizer = setup
        oracle = make_optimizer(query)
        optimal_costs = grid_optimal_costs(space, oracle)
        plan = oracle.optimize(space.full_region().pnt_lo)
        region = robust_region_of_plan(
            plan, space, PlanCostModel(query), optimal_costs, epsilon=0.2
        )
        # Everywhere the plan is optimal it is also ε-robust.
        for index in space.grid_indices():
            if oracle.optimize(space.point_at(index)) == plan:
                assert index in region
