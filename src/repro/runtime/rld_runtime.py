"""The RLD runtime strategy: fixed placement, per-batch plan switching.

Implements the paper's "Robust load executor" (§3): the physical plan
produced at compile time is instantiated once and never changes; an
online classifier inspects the monitor's latest statistics and routes
each tuple batch through the robust logical plan that is cheapest
there.  Classification is cheap — the paper measures it at about 2% of
query execution cost — and is charged here as a configurable fraction
of each batch's expected processing time, so the reported
``overhead_fraction`` reproduces that measurement.
"""

from __future__ import annotations

from repro.core.physical import InfeasiblePlacementError, PhysicalPlan
from repro.core.rld import RLDSolution
from repro.engine.faults import FaultEvent
from repro.engine.system import RoutingDecision, StreamSimulator
from repro.query.cost import PlanCostModel
from repro.query.plans import LogicalPlan
from repro.query.statistics import StatPoint, rate_param
from repro.util.validation import ensure_in_range

__all__ = ["RLDStrategy"]

#: Above this many grid points the routing memo is disabled and every
#: batch is classified at its exact, unsnapped statistics.
MAX_TABLE_POINTS = 200_000


class RLDStrategy:
    """Online classifier over a compiled :class:`RLDSolution`.

    Parameters
    ----------
    solution:
        Compile-time output of :class:`~repro.core.rld.RLDOptimizer`.
    classify_overhead_fraction:
        Routing cost charged per batch, as a fraction of the batch's
        expected processing seconds (§6.5 measures ≈ 0.02).
    batch_size:
        Expected tuples per batch, for the overhead estimate.
    mean_capacity:
        Average node capacity, for converting work to seconds.
    """

    name = "RLD"

    def __init__(
        self,
        solution: RLDSolution,
        *,
        classify_overhead_fraction: float = 0.02,
        batch_size: float = 100.0,
        overload_threshold: float = 0.95,
    ) -> None:
        ensure_in_range(
            classify_overhead_fraction, "classify_overhead_fraction", 0.0, 1.0
        )
        if overload_threshold <= 0:
            raise ValueError(
                f"overload_threshold must be > 0, got {overload_threshold}"
            )
        if not solution.feasible:
            raise InfeasiblePlacementError(
                "RLD solution's physical plan supports no logical plan; "
                "increase cluster resources or relax epsilon"
            )
        self._solution = solution
        self._plans: tuple[LogicalPlan, ...] = solution.supported_plans
        self._cost_model: PlanCostModel = solution.logical.cost_model
        self._overhead_fraction = classify_overhead_fraction
        self._batch_size = batch_size
        self._overload_threshold = overload_threshold
        self._rate_name = rate_param()
        # Placement geometry for bottleneck-aware routing: which node
        # hosts each operator, and each node's capacity.
        placement = solution.physical.physical_plan
        assert placement is not None  # guarded above
        self._node_of = {
            op_id: placement.node_of(op_id)
            for op_id in solution.query.operator_ids
        }
        self._capacities = solution.cluster.capacities
        #: Nodes currently offline (maintained via the on_fault hook).
        self._down: set[int] = set()
        # ---- Per-cell routing memo ---------------------------------
        # On-grid statistics snap to the nearest grid cell; each cell's
        # decision is _route_live at the cell's grid point, computed on
        # first use and kept until node liveness (or, for RLD+M, the
        # placement) changes.
        self._space = solution.space
        self._memo: dict[int, LogicalPlan] | None = None
        self._table_hits = 0
        self._table_misses = 0
        self._table_rebuilds = 0
        self._table_enabled = self._space.n_points <= MAX_TABLE_POINTS
        # Cost-relevant parameters that are *not* space dimensions are
        # fixed at their model defaults in a cell's grid point; if the
        # monitor reports a drifted value for one of them, the snapped
        # decision no longer describes the live cost surface and the
        # lookup must miss.
        dim_names = set(self._space.names)
        self._off_dim_defaults: dict[str, float] = {}
        if self._rate_name not in dim_names:
            self._off_dim_defaults[self._rate_name] = solution.query.driving_rate
        for op in solution.query.operators:
            if op.selectivity_param not in dim_names:
                self._off_dim_defaults[op.selectivity_param] = op.selectivity

    @property
    def placement(self) -> PhysicalPlan:
        """The fixed robust physical plan (never migrates)."""
        plan = self._solution.physical.physical_plan
        assert plan is not None  # guarded in __init__
        return plan

    @property
    def candidate_plans(self) -> tuple[LogicalPlan, ...]:
        """Robust logical plans the classifier may route batches to."""
        return self._plans

    def _node_loads(self, plan: LogicalPlan, stats: StatPoint) -> list[float]:
        """Per-node load (cost units/second) this plan would impose."""
        node_loads = [0.0] * len(self._capacities)
        for op_id, load in self._cost_model.operator_loads(plan, stats).items():
            node_loads[self._node_of[op_id]] += load
        return node_loads

    def _bottleneck_utilization(self, plan: LogicalPlan, stats: StatPoint) -> float:
        """Peak node utilization this plan would impose on the placement."""
        return max(
            load / capacity
            for load, capacity in zip(self._node_loads(plan, stats), self._capacities)
        )

    def bottleneck_node(self, plan: LogicalPlan, stats: StatPoint) -> int:
        """The node this plan loads hardest relative to its capacity."""
        utilizations = [
            load / capacity
            for load, capacity in zip(self._node_loads(plan, stats), self._capacities)
        ]
        return max(range(len(utilizations)), key=lambda i: (utilizations[i], -i))

    def _down_load(self, plan: LogicalPlan, stats: StatPoint) -> float:
        """Load this plan sends to currently-offline nodes."""
        return sum(
            load
            for op_id, load in self._cost_model.operator_loads(plan, stats).items()
            if self._node_of[op_id] in self._down
        )

    @property
    def down_nodes(self) -> frozenset[int]:
        """Nodes the strategy currently believes are offline."""
        return frozenset(self._down)

    # ------------------------------------------------------------------
    # Per-cell routing memo (the classifier fast path)
    # ------------------------------------------------------------------

    @property
    def routing_table_enabled(self) -> bool:
        """False when the space is too large to snap statistics to."""
        return self._table_enabled

    @property
    def table_hits(self) -> int:
        """Batches routed by their grid cell's decision."""
        return self._table_hits

    @property
    def table_misses(self) -> int:
        """Batches routed at exact statistics (off-grid or disabled)."""
        return self._table_misses

    @property
    def table_rebuilds(self) -> int:
        """Times the memo was started fresh, including the first time."""
        return self._table_rebuilds

    def _table_plan(self, stats: StatPoint) -> LogicalPlan | None:
        """Decision of the grid cell nearest ``stats``; ``None`` demands
        the live path.

        Misses when the memo is disabled (space too large), when any
        cost parameter *outside* the space drifted from the default a
        grid point carries, or when the statistics fall off-grid
        (beyond half a cell outside the box).
        """
        if not self._table_enabled:
            return None
        for name, default in self._off_dim_defaults.items():
            value = stats.get(name)
            if value is not None and abs(float(value) - default) > 1e-9 * max(
                abs(default), 1.0
            ):
                return None
        flat = self._space.nearest_flat_index(stats)
        if flat is None:
            return None
        if self._memo is None:
            self._memo = {}
            self._table_rebuilds += 1
        plan = self._memo.get(flat)
        if plan is None:
            cell = self._space.index_of_flat(flat)
            plan = self._memo[flat] = self._route_live(self._space.point_at(cell))
        return plan

    def route(self, time: float, stats: StatPoint) -> RoutingDecision:
        """Classify the batch to a supported robust plan.

        The fast path snaps the statistics to the nearest grid cell and
        reuses that cell's decision — :meth:`_route_live` at the cell's
        grid point, evaluated once per cell and down-set.  Statistics
        off the grid (or a space too large to snap to) are classified
        by :meth:`_route_live` at their exact values.
        """
        plan = self._table_plan(stats)
        if plan is not None:
            self._table_hits += 1
        else:
            self._table_misses += 1
            plan = self._route_live(stats)
        overhead = self._classification_overhead(plan, stats)
        return RoutingDecision(plan=plan, overhead_seconds=overhead)

    def _route_live(self, stats: StatPoint) -> LogicalPlan:
        """Scalar classification at exact statistics.

        Normally the cheapest plan at the current statistics (§3's
        online classifier).  Two degraded modes:

        * When the preferred plan's bottleneck node is *down* (fault
          injection), fall back to the best surviving candidate — a
          supported plan whose bottleneck is still online, cheapest
          first; if every candidate bottlenecks on a dead node, pick
          the one sending the least load to dead nodes.  Batches still
          traverse every operator, but the surviving plan thins them
          before the dead node's operator, so the stalled queue there
          stays short and drains quickly after recovery.
        * When even the cheapest plan would saturate some machine
          (bottleneck utilization ≥ ``overload_threshold``), switch
          objective to minimizing that bottleneck — the statistics are
          then outside the space the plan set was costed for, and
          sustained throughput is governed by the hottest node, not by
          total work.
        """
        plan = min(
            self._plans,
            key=lambda p: (self._cost_model.plan_cost(p, stats), p.order),
        )
        if (
            self._down
            and len(self._plans) > 1
            and self.bottleneck_node(plan, stats) in self._down
        ):
            surviving = [
                p
                for p in self._plans
                if self.bottleneck_node(p, stats) not in self._down
            ]
            pool = surviving or list(self._plans)
            plan = min(
                pool,
                key=lambda p: (
                    self._down_load(p, stats),
                    self._cost_model.plan_cost(p, stats),
                    p.order,
                ),
            )
        elif (
            len(self._plans) > 1
            and self._bottleneck_utilization(plan, stats) >= self._overload_threshold
        ):
            plan = min(
                self._plans,
                key=lambda p: (
                    self._bottleneck_utilization(p, stats),
                    self._cost_model.plan_cost(p, stats),
                    p.order,
                ),
            )
        return plan

    def _classification_overhead(self, plan: LogicalPlan, stats: StatPoint) -> float:
        """Charge ≈ ``fraction`` of the batch's expected service seconds."""
        if self._overhead_fraction <= 0.0:
            return 0.0
        rate = float(stats.get(self._rate_name, 1.0))
        if rate <= 0:
            return 0.0
        per_tuple_cost = self._cost_model.plan_cost(plan, stats) / rate
        expected_seconds = (
            self._batch_size * per_tuple_cost / self._mean_capacity()
        )
        return self._overhead_fraction * expected_seconds

    def _mean_capacity(self) -> float:
        cluster = self._solution.cluster
        return cluster.total_capacity / cluster.n_nodes

    def on_start(self, simulator: StreamSimulator) -> None:
        """Take node liveness from the simulator whose run begins.

        A strategy instance may drive several runs; nodes a previous
        run crashed are not down in this one.
        """
        down = {node.node_id for node in simulator.nodes if not node.online}
        if down != self._down:
            self._down = down
            self._memo = None

    def on_tick(self, simulator: StreamSimulator, time: float) -> None:
        """RLD never migrates; nothing to do on ticks."""

    def on_fault(self, simulator: StreamSimulator | None, event: FaultEvent) -> None:
        """Track node liveness so routing can avoid dead bottlenecks.

        RLD's graceful degradation is purely logical: the placement
        never changes, but the classifier reroutes batches through the
        candidate plan that burdens the dead node least.  Any liveness
        change empties the routing memo, so every cell is decided again
        for the new down-set.
        """
        if event.kind == "crash" and event.node is not None:
            if event.node not in self._down:
                self._down.add(event.node)
                self._memo = None
        elif event.kind == "recover" and event.node is not None:
            if event.node in self._down:
                self._down.discard(event.node)
                self._memo = None
