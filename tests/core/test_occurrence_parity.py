"""Table-gather kernels vs the scalar formulas they replaced, compared with ``==``.

The occurrence model tabulates per-dimension cell masses once and the
plan-cell scan keeps its scanned indices as an array; plan weights,
typical loads and the grid sample are then computed in batch.  These
properties re-implement the scalar formulas here, in the same process,
and demand bitwise-equal results — so they hold whatever the Python
version's ``sum`` does, as long as both sides use it the same way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    Cluster,
    Dimension,
    NormalOccurrenceModel,
    ParameterSpace,
    RLDConfig,
    RLDOptimizer,
    RobustLogicalSolution,
)
from repro.core.logical import GRID_SAMPLE_SIZE, MAX_EXACT_GRID_POINTS
from repro.query import LogicalPlan
from repro.util.rng import derive_rng
from repro.workloads import build_nway, build_q1

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _spaces(draw, max_dims: int = 4, max_steps: int = 9) -> ParameterSpace:
    """Random spaces, some dimensions pinned to a single value."""
    n_dims = draw(st.integers(1, max_dims))
    dims = []
    for d in range(n_dims):
        steps = draw(st.integers(1, max_steps))
        lo = draw(st.floats(0.01, 5.0))
        width = 0.0 if steps == 1 else draw(st.floats(0.01, 5.0))
        dims.append(Dimension(f"p{d}", lo, lo + width, steps))
    return ParameterSpace(dims)


def _all_indices(space: ParameterSpace) -> np.ndarray:
    return np.array(list(space.grid_indices()), dtype=np.intp)


def _scalar_cell_probability(model: NormalOccurrenceModel, index) -> float:
    """The pre-table formula: one ``_dim_probability`` per dimension."""
    mass = 1.0
    for dim, i in enumerate(index):
        mass *= model._dim_probability(dim, i, i)
    return mass


class TestNormalTables:
    @_SETTINGS
    @given(
        space=_spaces(),
        sigma_fraction=st.floats(0.05, 2.0),
        shift=st.floats(-0.6, 0.6),
    )
    def test_batch_and_scalar_match_the_old_formula(self, space, sigma_fraction, shift):
        means = {d.name: d.lo + (0.5 + shift) * d.width for d in space.dimensions}
        model = NormalOccurrenceModel(space, means=means, sigma_fraction=sigma_fraction)
        indices = _all_indices(space)
        expected = [_scalar_cell_probability(model, tuple(row)) for row in indices.tolist()]
        assert model.cell_probabilities(indices).tolist() == expected
        assert [model.cell_probability(tuple(row)) for row in indices.tolist()] == expected

    @_SETTINGS
    @given(space=_spaces())
    def test_default_model_matches_the_old_formula(self, space):
        model = NormalOccurrenceModel(space)
        indices = _all_indices(space)
        expected = [_scalar_cell_probability(model, tuple(row)) for row in indices.tolist()]
        assert model.cell_probabilities(indices).tolist() == expected

    def test_bad_indices_are_rejected(self):
        space = ParameterSpace([Dimension("x", 0.0, 1.0, 5)])
        model = NormalOccurrenceModel(space)
        with pytest.raises(IndexError):
            model.cell_probability((-1,))
        with pytest.raises(IndexError):
            model.cell_probability((5,))
        with pytest.raises(ValueError):
            model.cell_probability((1, 2))


class TestCorrelatedBatch:
    @settings(max_examples=10, deadline=None)
    @given(
        space=_spaces(max_dims=3, max_steps=4),
        rho=st.floats(-0.9, 0.9),
    )
    def test_batch_matches_scalar_path(self, space, rho):
        pytest.importorskip("scipy")
        from repro.core.correlation import CorrelatedOccurrenceModel

        # Up to two varying dimensions: SciPy's bivariate CDF is exact,
        # so repeated calls agree bit for bit.
        varying = sum(1 for d in space.dimensions if d.width > 0)
        assume(1 <= varying <= 2)
        model = CorrelatedOccurrenceModel.anti_synchronized(space, rho=rho)
        indices = _all_indices(space)
        expected = [model.cell_probability(tuple(row)) for row in indices.tolist()]
        assert model.cell_probabilities(indices).tolist() == expected


def _solution_over(space: ParameterSpace) -> RobustLogicalSolution:
    query = build_q1()
    return RobustLogicalSolution(query, space, [LogicalPlan(query.operator_ids)])


def _scalar_sample(space: ParameterSpace) -> list[tuple[int, ...]]:
    """The pre-vectorization sampler: one ``integers`` call per draw."""
    rng = derive_rng(20121107)
    sample = {
        tuple(int(rng.integers(0, s)) for s in space.shape)
        for _ in range(GRID_SAMPLE_SIZE)
    }
    full = space.full_region()
    sample.add(full.lo)
    sample.add(full.hi)
    return sorted(sample)


class TestGridSample:
    @settings(max_examples=10, deadline=None)
    @given(
        steps=st.lists(st.integers(2, 40), min_size=3, max_size=6),
        pinned=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    )
    def test_one_call_sampler_matches_scalar_draws(self, steps, pinned):
        assume(math.prod(steps) > MAX_EXACT_GRID_POINTS)
        for position in pinned:
            steps.insert(min(position, len(steps)), 1)
        space = ParameterSpace(
            [
                Dimension(f"p{d}", 1.0, 1.0 if s == 1 else 2.0, s)
                for d, s in enumerate(steps)
            ]
        )
        solution = _solution_over(space)
        assert solution.uses_sampled_grid
        scanned = [tuple(row) for row in solution._representative_indices().tolist()]
        assert scanned == _scalar_sample(space)

    def test_exact_grid_scans_every_index_in_order(self):
        space = ParameterSpace(
            [Dimension("a", 0.0, 1.0, 4), Dimension("b", 2.0, 2.0, 1), Dimension("c", 0.0, 1.0, 3)]
        )
        solution = _solution_over(space)
        assert not solution.uses_sampled_grid
        scanned = [tuple(row) for row in solution._representative_indices().tolist()]
        assert scanned == list(space.grid_indices())


def _compiled(name: str):
    if name == "q1-exact":
        query = build_q1()
        levels = {op.selectivity_param: 2 for op in query.operators} | {"rate": 2}
        config = RLDConfig(epsilon=0.05)
    else:
        query = build_nway(12, seed=3)
        levels = {op.selectivity_param: 3 for op in query.operators} | {"rate": 2}
        config = RLDConfig()
    estimate = query.default_estimates(levels)
    return RLDOptimizer(query, Cluster.homogeneous(4, 380.0), config=config).solve(estimate)


@pytest.fixture(scope="module", params=["q1-exact", "nway12-sampled"])
def compiled(request):
    solution = _compiled(request.param)
    assert solution.logical.uses_sampled_grid == (request.param == "nway12-sampled")
    return solution


class TestPlanWeightsAndLoads:
    def test_plan_weights_match_the_scalar_formula(self, compiled):
        logical, model = compiled.logical, compiled.occurrence
        cells = logical.plan_cells()
        scanned = sum(len(c) for c in cells.values())
        scale = logical.space.n_points / scanned
        expected = {
            plan: scale * sum(_scalar_cell_probability(model, index) for index in plan_cells)
            for plan, plan_cells in cells.items()
        }
        assert logical.plan_weights(model) == expected

    def test_expected_loads_match_the_scalar_formula(self, compiled):
        logical, model = compiled.logical, compiled.occurrence
        space, cost_model = logical.space, logical.cost_model
        for plan, cells in logical.plan_cells().items():
            if not cells:
                continue
            ordered = sorted(cells)
            weights = np.fromiter(
                (_scalar_cell_probability(model, index) for index in ordered),
                dtype=float,
                count=len(ordered),
            )
            batch = cost_model.operator_loads_batch(
                plan, space.points_matrix(ordered), list(space.names)
            )
            mass = float(weights.sum())
            expected = {
                op_id: float(batch[op_id] @ weights) / mass
                for op_id in logical.query.operator_ids
            }
            assert logical.expected_loads(plan, model) == expected

    def test_worst_case_loads_match_the_sorted_cell_formula(self, compiled):
        logical = compiled.logical
        space, cost_model = logical.space, logical.cost_model
        for plan, cells in logical.plan_cells().items():
            if not cells:
                continue
            batch = cost_model.operator_loads_batch(
                plan, space.points_matrix(sorted(cells)), list(space.names)
            )
            expected = {
                op_id: float(batch[op_id].max()) for op_id in logical.query.operator_ids
            }
            assert logical.worst_case_loads(plan) == expected
