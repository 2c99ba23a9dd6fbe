"""Smoke check and self-test of the benchmark itself.

Run from the root of a checkout (about a minute)::

    python3 perfbench/smoke.py

1. Self-test: one real compile and one real simulation pass the checks
   unchanged, and each perturbed copy of their outputs fails them, so a
   wrong output counts as a failed operation.
2. Smoke: every workload runs one operation untraced and one traced;
   every metric named in ``BENCHMARK.json`` is emitted with its unit,
   and ``ok_frac`` is 1.0.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

import checks
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def self_test() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    compiled = workloads.setup([workloads.default_input("q1")])[0][0].run()
    scenario = workloads.simulation_scenario()
    simulated = workloads.simulate(scenario, 3, workloads.fault_schedule(3))
    cases: list[tuple[str, Any, dict[str, Any], list[tuple[str, Callable[[dict], None]]]]] = [
        ("compile q1", compiled, reference["compile-default"]["q1"], [
            ("weight moved by 1e-6", lambda r: _scale_first(r["weights"], 1 + 1e-6)),
            ("plan dropped", lambda r: r["plans"].pop()),
            ("optimizer call added", lambda r: r.update(optimizer_calls=r["optimizer_calls"] + 1)),
            ("placement swapped", lambda r: r["placement"].reverse()),
            ("score moved", lambda r: r.update(score=r["score"] * (1 + 1e-6))),
            ("weights sum above 1", lambda r: _scale_first(r["weights"], 1e6)),
            ("node over capacity", lambda r: r["node_loads"][0].__setitem__(0, 1e9)),
        ]),
        ("simulate sim@3+faults", simulated, reference["simulate-faults"]["sim@3+faults"], [
            ("batch dropped", lambda r: r["RLD"].update(batches_dropped=r["RLD"]["batches_dropped"] + 1)),
            ("latency moved", lambda r: r["DYN"].update(avg_latency_ms=r["DYN"]["avg_latency_ms"] * (1 + 1e-6))),
            ("conservation broken", lambda r: r["ROD"].update(conservation_holds=False)),
        ]),
    ]
    for label, output, expected, perturbations in cases:
        record, _ = checks.outputs(output)
        problems = checks.check(record, expected)
        assert not problems, f"{label}: unperturbed output fails: {problems}"
        noise = copy.deepcopy(record)
        _scale_all_floats(noise, 1 + 1e-12)
        assert not checks.check(noise, expected), f"{label}: 1e-12 float noise fails"
        for name, perturb in perturbations:
            bad = copy.deepcopy(record)
            perturb(bad)
            assert checks.check(bad, expected), f"{label}: '{name}' was not caught"
        print(f"self-test {label}: {len(perturbations)} perturbations caught")


def _scale_first(weights: dict[str, float], factor: float) -> None:
    key = next(iter(weights))
    weights[key] *= factor


def _scale_all_floats(value: Any, factor: float) -> None:
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in list(items):
        if isinstance(item, float):
            value[key] = item * factor
        else:
            _scale_all_floats(item, factor)


def smoke() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in WORKLOADS:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", "0", "--seconds", "0", "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, check=False, cwd=ROOT)
            assert done.returncode == 0, f"{workload}: exit {done.returncode}\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, f"{workload} trace={trace}: {emitted} != {expected}"
            assert result["correct"] and result["failed"] == 0, f"{workload}: {done.stderr}"
            if trace == 0:
                assert result["metrics"]["ok_frac"]["value"] == 1.0
            print(f"smoke {workload} trace={trace}: {result['attempted']} operation(s), "
                  f"{len(emitted)} metrics")


if __name__ == "__main__":
    self_test()
    smoke()
    print("smoke check passed")
