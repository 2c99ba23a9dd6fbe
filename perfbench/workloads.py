"""The four benchmark workloads: input catalogs, per-seed draws, set-up, operation.

Every input a run can draw comes from a finite catalog, so its expected
outputs can be stored in ``reference.json`` (see ``record.py``).  The
workload seed only chooses which catalog entries a run uses: the
``build_nway`` statistics seeds, the simulator seed and the
fault-schedule seed.  The program under test receives nothing else from
it.

Operations run through the library's public API, with the default
serial compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core import Cluster, RLDConfig, RLDOptimizer
from repro.engine.faults import FaultSchedule
from repro.query.optimizer import DPOptimizer
from repro.runtime.comparison import build_standard_strategies, compare_strategies
from repro.workloads import build_nway, build_q1, build_q2, stock_workload

#: Statistics seeds ``build_nway`` may receive in compile-default.
DEFAULT_STATS_SEEDS = range(16)
#: Statistics seeds ``record.py`` scans for compile-dp.
DP_SCAN_SEEDS = range(96)
#: compile-dp keeps only statistics seeds whose compile makes this many
#: optimizer calls.  Below the range ERP stops after its corner calls and
#: the compile is no longer optimizer-bound; above it one compile takes
#: 2-4 s, too long for a run to hold ~20 operations (see README).
DP_CALLS = range(40, 201)
#: compile-dp draws ``DP_DRAWS`` statistics seeds from each of
#: ``DP_STRATA`` strata of the catalog, ordered by optimizer calls, so
#: every workload seed gets the same mix of light and heavy compiles.
DP_STRATA = 14
DP_DRAWS = 2
#: Simulator (and fault-schedule) seeds the simulate workloads may draw.
SIM_SEEDS = range(24)
#: Distinct simulator seeds one run rotates over.
SIM_DRAWS = 4

SIM_DURATION = 3600.0
FAULT_SPEC = "random:crashes=2:slowdowns=2:partitions=1"
#: Simulated seconds of the (unchecked) warm-up simulation.
WARMUP_DURATION = 300.0


@dataclass(frozen=True)
class CompileInput:
    """One ``RLDOptimizer(query, cluster).solve(estimate)`` scenario."""

    query: str  # "q1", "q2" or "nway:<k>"
    stats_seed: int | None
    nodes: int
    capacity: float
    dp: bool = False

    @property
    def key(self) -> str:
        """Reference key of this input."""
        if self.stats_seed is None:
            return self.query
        return f"{self.query}@{self.stats_seed}"


@dataclass(frozen=True)
class SimulateInput:
    """One three-strategy comparison over the stock workload."""

    sim_seed: int
    faults: bool

    @property
    def key(self) -> str:
        """Reference key of this input."""
        return f"sim@{self.sim_seed}" + ("+faults" if self.faults else "")


Input = CompileInput | SimulateInput


def default_input(query: str, stats_seed: int | None = None) -> CompileInput:
    """A compile-default scenario with the CLI's cluster for ``query``."""
    nodes = 6 if query == "nway:16" else 4
    return CompileInput(query, stats_seed, nodes, 380.0)


def dp_input(stats_seed: int) -> CompileInput:
    """The compile-dp scenario for one ``build_nway(10)`` statistics seed."""
    return CompileInput("nway:10", stats_seed, 4, 420.0, dp=True)


def catalog(workload: str) -> list[Input]:
    """Every input of ``workload`` that ``record.py`` may store."""
    if workload == "compile-default":
        inputs: list[Input] = [default_input("q1"), default_input("q2")]
        for query in ("nway:8", "nway:12", "nway:16"):
            inputs += [default_input(query, s) for s in DEFAULT_STATS_SEEDS]
        return inputs
    if workload == "compile-dp":
        return [dp_input(s) for s in DP_SCAN_SEEDS]
    if workload in ("simulate", "simulate-faults"):
        return [SimulateInput(s, workload == "simulate-faults") for s in SIM_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload: str, seed: int, reference: dict[str, Any]) -> list[Input]:
    """The inputs one run rotates over, drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    if workload == "compile-default":
        s8, s12 = (int(s) for s in rng.choice(DEFAULT_STATS_SEEDS, size=2))
        a, b, c = (int(s) for s in rng.choice(DEFAULT_STATS_SEEDS, 3, replace=False))
        # nway:16 appears three times per rotation: with one slot in five
        # it would hold about ten of a run's ~40 operations, so the
        # 11th-slowest operation (op_tail_s) would flip between the
        # nway:16 and nway:12 classes from run to run.
        return [
            default_input("q1"),
            default_input("nway:16", a),
            default_input("q2"),
            default_input("nway:16", b),
            default_input("nway:8", s8),
            default_input("nway:16", c),
            default_input("nway:12", s12),
        ]
    if workload == "compile-dp":
        eligible = sorted(
            (record["optimizer_calls"], int(key.split("@")[1]))
            for key, record in reference.items()
        )
        strata = np.array_split(np.array(eligible), DP_STRATA)
        picks = [rng.choice(stratum[:, 1], size=DP_DRAWS, replace=False) for stratum in strata]
        # Alternate light and heavy strata so a partial rotation is balanced.
        order = [i for pair in zip(range(DP_STRATA), reversed(range(DP_STRATA))) for i in pair]
        return [dp_input(int(picks[i][d])) for d in range(DP_DRAWS) for i in order[:DP_STRATA]]
    if workload in ("simulate", "simulate-faults"):
        seeds = rng.choice(SIM_SEEDS, size=SIM_DRAWS, replace=False)
        return [SimulateInput(int(s), workload == "simulate-faults") for s in seeds]
    raise ValueError(f"unknown workload {workload!r}")


def _query(name: str, stats_seed: int | None):
    if name == "q1":
        return build_q1()
    if name == "q2":
        return build_q2()
    k = int(name.split(":")[1])
    return build_nway(k, seed=stats_seed)


@dataclass
class Prepared:
    """An input with every object its operation needs, built at set-up."""

    input: Input
    run: Callable[[], Any]


def _prepare_compile(inp: CompileInput) -> Prepared:
    query = _query(inp.query, inp.stats_seed)
    cluster = Cluster.homogeneous(inp.nodes, inp.capacity)
    if inp.dp:
        uncertainty = {f"sel:{i}": 3 for i in range(4)}
        estimate = query.default_estimates(uncertainty)
        config = RLDConfig(epsilon=0.02)

        def run() -> Any:
            optimizer = RLDOptimizer(
                query, cluster, config=config, point_optimizer=DPOptimizer(query)
            )
            return optimizer.solve(estimate)

    else:
        # The CLI defaults: selectivity level 3, rate level 2, epsilon 0.2.
        uncertainty = {op.selectivity_param: 3 for op in query.operators}
        uncertainty["rate"] = 2
        estimate = query.default_estimates(uncertainty)

        def run() -> Any:
            return RLDOptimizer(query, cluster).solve(estimate)

    return Prepared(inp, run)


@dataclass
class SimulationScenario:
    """The shared simulate set-up: q1 compiled once on 4x380."""

    query: Any
    cluster: Cluster
    estimate: Any
    solution: Any
    workload: Any


def simulation_scenario() -> SimulationScenario:
    """Build q1, compile it with the CLI defaults and build its workload."""
    query = build_q1()
    uncertainty = {op.selectivity_param: 3 for op in query.operators}
    uncertainty["rate"] = 2
    estimate = query.default_estimates(uncertainty)
    cluster = Cluster.homogeneous(4, 380.0)
    solution = RLDOptimizer(query, cluster).solve(estimate)
    workload = stock_workload(query, uncertainty_level=3, regime_period=60)
    return SimulationScenario(query, cluster, estimate, solution, workload)


def simulate(
    scenario: SimulationScenario,
    sim_seed: int,
    faults: FaultSchedule | None,
    duration: float = SIM_DURATION,
) -> tuple[Any, dict[str, Any]]:
    """One operation: fresh ROD/DYN/RLD strategies, then the comparison."""
    s = scenario
    strategies = build_standard_strategies(
        s.query, s.cluster, estimate=s.estimate, rld_solution=s.solution
    )
    comparison = compare_strategies(
        s.query,
        s.cluster,
        s.workload,
        strategies,
        duration=duration,
        seed=sim_seed,
        faults=faults,
    )
    return comparison, strategies


def fault_schedule(sim_seed: int, nodes: int = 4) -> FaultSchedule:
    """The seeded chaos schedule of simulate-faults for one seed."""
    return FaultSchedule.parse(
        FAULT_SPEC, n_nodes=nodes, duration=SIM_DURATION, seed=sim_seed
    )


def setup(inputs: list[Input]) -> tuple[list[Prepared], Any]:
    """Build every object the operations need; returns (prepared, scenario).

    ``scenario`` is the compiled simulation scenario, or ``None`` for the
    compile workloads.
    """
    compiles = [inp for inp in inputs if isinstance(inp, CompileInput)]
    if compiles:
        return [_prepare_compile(inp) for inp in compiles], None
    scenario = simulation_scenario()
    prepared = []
    for inp in inputs:
        assert isinstance(inp, SimulateInput)
        faults = fault_schedule(inp.sim_seed) if inp.faults else None
        prepared.append(
            Prepared(
                inp,
                lambda seed=inp.sim_seed, f=faults: simulate(scenario, seed, f),
            )
        )
    return prepared, scenario


def warm_up(prepared: list[Prepared], scenario: Any) -> None:
    """One unchecked operation so lazy imports and allocations settle."""
    if scenario is None:
        _prepare_compile(default_input("q1")).run()
    else:
        first = prepared[0].input
        assert isinstance(first, SimulateInput)
        faults = fault_schedule(first.sim_seed) if first.faults else None
        simulate(scenario, first.sim_seed, faults, duration=WARMUP_DURATION)

