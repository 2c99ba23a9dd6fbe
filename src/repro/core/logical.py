"""Robust logical solutions: plan sets covering the parameter space.

A *robust logical solution* ``LP_i`` (Def. 2 / §2.4) is a set of
logical plans such that for (almost) every point of the parameter
space, at least one plan in the set is ε-robust there.  Beyond holding
the plans, this class provides the two derived artifacts the rest of
the pipeline needs:

* the **plan-cell partition** — each grid point assigned to the plan
  that is cheapest there, which is both the runtime classifier's
  routing table and the "robust region" used for plan weights; and
* **plan weights** — the occurrence-probability mass of each plan's
  region (§5.2 Example 4), the priority order in which GreedyPhy and
  OptPrune try to support plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.occurrence import NormalOccurrenceModel, OccurrenceModel
from repro.core.parameter_space import GridIndex, ParameterSpace, Region
from repro.query.cost import PlanCostModel
from repro.query.model import Query
from repro.query.plans import LogicalPlan
from repro.util.rng import derive_rng
from repro.util.types import IntArray

__all__ = ["RobustLogicalSolution", "PlanDiscovery"]

#: Above this many grid points, per-cell scans switch to a deterministic
#: uniform sample (high-dimensional spaces are exponentially large).
MAX_EXACT_GRID_POINTS = 20_000

#: Sample size used for large grids.
GRID_SAMPLE_SIZE = 4_096


@dataclass(frozen=True)
class PlanDiscovery:
    """One distinct plan with the optimizer-call count at its discovery.

    The discovery log is the raw series behind Figure 11: coverage as a
    function of the optimizer-call budget.
    """

    plan: LogicalPlan
    at_call: int


@dataclass(frozen=True)
class _PlanScan:
    """The plan-cell partition of the scanned grid points.

    ``indices`` lists the scanned grid indices in sorted order and
    ``index_array`` holds the same indices as rows; ``owner[k]`` is the
    position (in the solution's plan tuple) of the cheapest plan at row
    ``k``.  ``cells`` is the same partition as sets of index tuples,
    built by adding the rows in order.
    """

    indices: list[GridIndex]
    index_array: IntArray
    owner: IntArray
    cells: dict[LogicalPlan, set[GridIndex]]


class RobustLogicalSolution:
    """A set of robust logical plans over one parameter space.

    Parameters
    ----------
    query:
        The query the plans order.
    space:
        The parameter space the solution covers.
    plans:
        The distinct robust logical plans (order preserved, de-duplicated).
    verified_regions:
        Optional mapping from plan to the regions in which partitioning
        *verified* its Def. 1 robustness (WRP/ERP produce these).
    discoveries:
        Optional discovery log (plan, optimizer-call count) pairs.
    """

    def __init__(
        self,
        query: Query,
        space: ParameterSpace,
        plans: Iterable[LogicalPlan],
        *,
        verified_regions: Mapping[LogicalPlan, list[Region]] | None = None,
        discoveries: Iterable[PlanDiscovery] = (),
    ) -> None:
        unique: list[LogicalPlan] = []
        seen: set[LogicalPlan] = set()
        for plan in plans:
            if plan not in seen:
                seen.add(plan)
                unique.append(plan)
        if not unique:
            raise ValueError("a robust logical solution needs at least one plan")
        self._query = query
        self._space = space
        self._plans = tuple(unique)
        self._cost_model = PlanCostModel(query)
        self._verified_regions = {
            plan: list(regions) for plan, regions in (verified_regions or {}).items()
        }
        self._discoveries = tuple(discoveries)
        self._position = {plan: i for i, plan in enumerate(self._plans)}
        self._scan_cache: _PlanScan | None = None

    @property
    def query(self) -> Query:
        """The underlying query."""
        return self._query

    @property
    def space(self) -> ParameterSpace:
        """The parameter space this solution covers."""
        return self._space

    @property
    def plans(self) -> tuple[LogicalPlan, ...]:
        """The distinct robust logical plans, in discovery order."""
        return self._plans

    @property
    def cost_model(self) -> PlanCostModel:
        """Cost model shared by routing and weighting."""
        return self._cost_model

    @property
    def discoveries(self) -> tuple[PlanDiscovery, ...]:
        """Discovery log: (plan, optimizer-call count) per distinct plan."""
        return self._discoveries

    def verified_regions_of(self, plan: LogicalPlan) -> list[Region]:
        """Regions where partitioning verified the plan's robustness."""
        return list(self._verified_regions.get(plan, []))

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, plan: LogicalPlan) -> bool:
        return plan in set(self._plans)

    # ------------------------------------------------------------------
    # Routing (the runtime classifier's decision function)
    # ------------------------------------------------------------------

    def best_plan_at(self, point: Mapping[str, float]) -> LogicalPlan:
        """Cheapest plan in the solution at ``point``.

        This is the online classifier's decision (§3 "Robust load
        executor"): given the latest runtime statistics, route the next
        batch through the matching robust logical plan.  Ties break
        toward the lexicographically smaller ordering.
        """
        return min(
            self._plans,
            key=lambda plan: (self._cost_model.plan_cost(plan, point), plan.order),
        )

    def _representative_indices(self) -> IntArray:
        """Grid indices scanned by per-cell operations, one per row.

        The full grid when it is small; otherwise a deterministic
        uniform sample of :data:`GRID_SAMPLE_SIZE` indices (always
        including the space corners), since high-dimensional grids are
        exponentially large.  Rows are distinct and sorted as index
        tuples sort.
        """
        shape = self._space.shape
        if not self.uses_sampled_grid:
            # Row-major enumeration: already sorted.
            return np.indices(shape, dtype=np.intp).reshape(len(shape), -1).T
        rng = derive_rng(20121107)  # fixed: results must be stable
        # One call draws the same stream as a scalar draw per
        # (sample, dimension) pair in row-major order.
        draws = rng.integers(0, shape, size=(GRID_SAMPLE_SIZE, len(shape)))
        full = self._space.full_region()
        rows = np.vstack([draws, np.array([full.lo, full.hi])]).astype(np.intp)
        # Sort rows as tuples sort (first column primary), then drop
        # repeats: the rows of sorted(set(...)) over the index tuples.
        rows = rows[np.lexsort(rows.T[::-1])]
        distinct = np.ones(len(rows), dtype=bool)
        distinct[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return rows[distinct]

    @property
    def uses_sampled_grid(self) -> bool:
        """True when per-cell scans run on a sample, not the full grid."""
        return self._space.n_points > MAX_EXACT_GRID_POINTS

    def plan_cells(self) -> dict[LogicalPlan, set[GridIndex]]:
        """Partition of (representative) grid points by cheapest plan.

        Every scanned grid point is assigned to exactly one plan — each
        plan's effective region of responsibility at runtime.  On
        spaces larger than :data:`MAX_EXACT_GRID_POINTS` the scan uses
        the deterministic sample of :meth:`_representative_indices`.

        Computed as one columnwise argmin over a ``(plans × scanned
        points)`` batch cost matrix rather than a scalar cost call per
        (plan, point) pair.  Rows are sorted by ``plan.order`` and
        ``argmin`` keeps the first of tied minima, which is the
        ``(cost, plan.order)`` tie-break of :meth:`best_plan_at`.
        """
        return {plan: set(cells) for plan, cells in self._scan().cells.items()}

    def _scan(self) -> _PlanScan:
        """The memoized plan-cell partition behind :meth:`plan_cells`."""
        if self._scan_cache is None:
            index_array = self._representative_indices()
            indices: list[GridIndex] = list(map(tuple, index_array.tolist()))
            ordered = sorted(self._plans, key=lambda plan: plan.order)
            matrix = self._space.points_matrix(index_array)
            names = list(self._space.names)
            costs = np.vstack(
                [self._cost_model.plan_costs(plan, matrix, names) for plan in ordered]
            )
            positions = np.array([self._position[plan] for plan in ordered], dtype=np.intp)
            owner = positions[costs.argmin(axis=0)]
            # Shared with every weight and load pass: read-only.
            index_array.setflags(write=False)
            owner.setflags(write=False)
            sets: list[set[GridIndex]] = [set() for _ in self._plans]
            for index, position in zip(indices, owner.tolist()):
                sets[position].add(index)
            self._scan_cache = _PlanScan(
                indices, index_array, owner, dict(zip(self._plans, sets))
            )
        return self._scan_cache

    def _rows_of(self, plan: LogicalPlan) -> IntArray:
        """Sorted scanned grid indices whose cheapest plan is ``plan``."""
        scan = self._scan()
        position = self._position.get(plan)
        if position is None:
            return scan.index_array[:0]
        return scan.index_array[scan.owner == position]

    # ------------------------------------------------------------------
    # Plan weights (§5.2)
    # ------------------------------------------------------------------

    def plan_weights(
        self, occurrence: OccurrenceModel | None = None
    ) -> dict[LogicalPlan, float]:
        """Occurrence-probability weight of each plan's region.

        ``weight(lp) = Σ_{pnt ∈ area(lp)} Pr(pnt)`` with ``Pr`` from the
        normal occurrence model (§5.2).  Defaults to a fresh model with
        means at the estimate point.
        """
        model = occurrence or NormalOccurrenceModel(self._space)
        scan = self._scan()
        mass_of = dict(
            zip(scan.indices, model.cell_probabilities(scan.index_array).tolist())
        )
        # Builtin sum over each copied set, in its iteration order: the
        # order (and Python's own float sum) fixes the weights' last bit.
        cells = self.plan_cells()
        scanned = sum(len(c) for c in cells.values())
        # Unbiased estimator on sampled grids: scale each plan's sampled
        # mass by (grid points / points scanned); exact grids scale by 1.
        scale = self._space.n_points / scanned if scanned else 1.0
        return {
            plan: scale * sum([mass_of[index] for index in plan_cells])
            for plan, plan_cells in cells.items()
        }

    def area_fractions(self) -> dict[LogicalPlan, float]:
        """Fraction of scanned grid points in each plan's cell set."""
        cells = self.plan_cells()
        scanned = sum(len(c) for c in cells.values())
        if scanned == 0:
            return {plan: 0.0 for plan in self._plans}
        return {plan: len(c) / scanned for plan, c in cells.items()}

    # ------------------------------------------------------------------
    # Worst-case operator loads (input to physical planning)
    # ------------------------------------------------------------------

    def worst_case_loads(self, plan: LogicalPlan) -> dict[int, float]:
        """Max per-operator load of ``plan`` over its region cells.

        The physical plan must fit each supported plan's operators on
        their machines at *any* point of the plan's region, so
        feasibility uses the per-operator maximum over the region.
        Falls back to the whole-space top corner for a plan with no
        cells of its own (possible when another plan dominates it
        everywhere).
        """
        rows = self._rows_of(plan)
        if not len(rows):
            point = self._space.full_region().pnt_hi
            return dict(self._cost_model.operator_loads(plan, point))
        matrix = self._space.points_matrix(rows)
        batch = self._cost_model.operator_loads_batch(
            plan, matrix, list(self._space.names)
        )
        return {
            op_id: float(batch[op_id].max())
            for op_id in self._query.operator_ids
        }

    def expected_loads(
        self, plan: LogicalPlan, occurrence: OccurrenceModel | None = None
    ) -> dict[int, float]:
        """Occurrence-weighted mean per-operator load over a plan's cells.

        The *typical* load profile the plan imposes at runtime —
        distinct from :meth:`worst_case_loads`, whose independent
        per-operator maxima describe a point that never actually occurs.
        Placement balancing wants typical loads; feasibility wants the
        worst case.
        """
        model = occurrence or NormalOccurrenceModel(self._space)
        rows = self._rows_of(plan)
        if not len(rows):
            point = self._space.point_at(
                tuple(s // 2 for s in self._space.shape)
            )
            return self._cost_model.operator_loads(plan, point)
        weights = model.cell_probabilities(rows)
        matrix = self._space.points_matrix(rows)
        batch = self._cost_model.operator_loads_batch(
            plan, matrix, list(self._space.names)
        )
        mass = float(weights.sum())
        if mass <= 0:
            # Degenerate: cells carry no occurrence mass; plain mean.
            return {
                op_id: float(batch[op_id].mean())
                for op_id in self._query.operator_ids
            }
        return {
            op_id: float(batch[op_id] @ weights) / mass
            for op_id in self._query.operator_ids
        }

    def __repr__(self) -> str:
        labels = ", ".join(plan.label for plan in self._plans[:4])
        suffix = ", ..." if len(self._plans) > 4 else ""
        return (
            f"RobustLogicalSolution({len(self._plans)} plans over "
            f"{self._space.n_points} grid points: {labels}{suffix})"
        )
