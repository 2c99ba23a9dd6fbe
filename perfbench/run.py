"""Benchmark harness for ``repro compile`` and ``repro simulate``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-default --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process, one closed-loop client, no threads: each operation starts
when the previous one has returned and its outputs have been checked.
With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it runs the first half of ``--seconds``
untraced and the second half with spans around the library's layer
entry points, reports the per-layer metrics and writes the spans to
``perfbench/out/``.  Operation and set-up times are scaled to a
reference host speed (``calibration.py``); the unscaled figures are
printed on the ``unscaled:`` line.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs the four workloads one after another, each in
its own process, and prints their end-to-end metrics as one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

import calibration
import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile-default", "compile-dp", "simulate", "simulate-faults")
#: Set-ups per run; the median is reported as setup_s.
SETUPS = {"compile-default": 25, "compile-dp": 25, "simulate": 3, "simulate-faults": 3}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; one table of end-to-end metrics."""
    rows = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        rows[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'metric':<12} {'unit':<9}" + "".join(f"{w:>17}" for w in WORKLOADS))
    for metric, unit in END_TO_END_UNITS.items():
        values = "".join(f"{rows[w]['metrics'][metric]['value']:>17.6g}" for w in WORKLOADS)
        print(f"{metric:<12} {unit:<9}{values}")
    summary = {
        "correct": all(row["correct"] for row in rows.values()),
        "attempted": sum(row["attempted"] for row in rows.values()),
        "failed": sum(row["failed"] for row in rows.values()),
        "metrics": {
            f"{w}/{metric}": row["metrics"][metric] for w, row in rows.items() for metric in row["metrics"]
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    inputs = workloads.draw(args.workload, args.seed, reference)
    print("inputs: " + " ".join(inp.key for inp in inputs))

    tracer = spans.Tracer() if args.trace else None
    scaler = calibration.Scaler()
    setup_times = []
    for _ in range(SETUPS[args.workload]):
        if tracer is not None:
            tracer.op = "setup"
            tracer.install()
        prepared, scenario = scaler.run(lambda: workloads.setup(inputs))
        setup_times.append((scaler.last_scaled, scaler.last_raw))
        if tracer is not None:
            tracer.uninstall()
    workloads.warm_up(prepared, scenario)

    def run_ops(seconds: float, traced: bool) -> list[dict[str, Any]]:
        """Closed loop over the rotation until ``seconds`` have passed."""
        results: list[dict[str, Any]] = []
        start = perf_counter()
        while not results or perf_counter() - start < seconds:
            item = prepared[len(results) % len(prepared)]
            if traced:
                tracer.op = len(results)
            output = None
            try:
                output = scaler.run(item.run)
                record, facts = checks.outputs(output)
                problems = checks.check(record, reference.get(item.input.key))
            except Exception as exc:  # a failed operation is counted, not fatal
                facts, problems = {}, [f"{type(exc).__name__}: {exc}"]
            if problems:
                print(f"FAILED {item.input.key}: " + "; ".join(problems[:5]), file=sys.stderr)
            results.append({
                "key": item.input.key, "seconds": scaler.last_scaled,
                "raw_seconds": scaler.last_raw, "wall_seconds": scaler.last_wall,
                "ok": not problems, "facts": facts,
            })
            # Each operation starts from a clean heap, as a fresh CLI
            # process would, rather than inheriting the last one's cycles.
            del output
            gc.collect()
        return results

    if tracer is None:
        results = run_ops(args.seconds, traced=False)
        metrics = end_to_end(results, setup_times)
    else:
        plain = run_ops(args.seconds / 2, traced=False)
        tracer.install()
        try:
            traced = run_ops(args.seconds / 2, traced=True)
        finally:
            tracer.uninstall()
        results = plain + traced
        facts = {i: r["facts"] for i, r in enumerate(traced)}
        if scenario is not None:
            facts["setup"] = checks.compile_facts(scenario.solution)
        metrics = spans.layer_metrics(tracer, facts, SETUPS[args.workload])
        metrics["trace.overhead_frac"] = tracing_overhead(plain, traced)
        if tracer.absent:
            print("absent layers (entry point gone, their metrics read 0): " + ", ".join(tracer.absent))
        print_shares(tracer, len(traced), statistics.fmean(r["wall_seconds"] for r in traced))
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans written to {out.relative_to(ROOT)}")

    calls = [r["facts"].get("optimizer_calls") for r in results if "optimizer_calls" in r["facts"]]
    if calls:
        print("optimizer calls per operation: " + " ".join(str(c) for c in calls))
    units = END_TO_END_UNITS if tracer is None else {m: layer_unit(m) for m in metrics}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    failed = sum(not r["ok"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def end_to_end(results: list[dict[str, Any]], setup_times: list[tuple[float, float]]) -> dict[str, float]:
    """The six end-to-end metrics of an untraced run, at reference speed.

    Operation and set-up times are scaled to the reference host speed
    (see ``calibration.py``); the unscaled figures are printed alongside.
    """
    n = len(results)
    # The highest percentile with at least ten samples beyond it is the
    # 11th-slowest operation, at percentile 100 * (n - 10) / n.
    rank, percentile = (n - 11, 100.0 * (n - 10) / n) if n > 10 else (n - 1, 100.0)
    print(f"op_tail_s is percentile {percentile:.1f} of {n} operations")
    timing = {}
    for label, key, column in (("scaled", "seconds", 0), ("unscaled", "raw_seconds", 1)):
        times = sorted(r[key] for r in results)
        timing[label] = {
            "ops_per_s": n / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": times[rank],
            "setup_s": statistics.median(t[column] for t in setup_times),
        }
    print("unscaled: " + json.dumps(timing["unscaled"]))
    return {
        **timing["scaled"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(r["ok"] for r in results) / n,
    }


def tracing_overhead(plain: list[dict[str, Any]], traced: list[dict[str, Any]]) -> float:
    """Extra time per operation with tracing on, matched input by input.

    Each traced operation is compared with the median untraced time of
    the same input, so the two halves' different input mixes cancel.
    """
    untraced: dict[str, list[float]] = {}
    for r in plain:
        untraced.setdefault(r["key"], []).append(r["seconds"])
    pairs = [(r["seconds"], statistics.median(untraced[r["key"]])) for r in traced if r["key"] in untraced]
    return sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0 if pairs else 0.0


def print_shares(tracer: Any, n_ops: int, mean_op_s: float) -> None:
    """Self time per layer per traced operation, as a share of its wall time.

    Spans are unscaled and include the calibration probes that interrupt
    them, so they are compared with the operation's wall time.
    """
    per_layer: dict[str, float] = {}
    for (name, _, _, _, op), own in zip(tracer.spans, tracer.self_times()):
        if op != "setup":
            per_layer[name] = per_layer.get(name, 0.0) + own / n_ops
    print(f"layer self time per operation (mean operation {mean_op_s:.4f} s):")
    for name, seconds in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<30} {seconds:>10.5f} s  {100.0 * seconds / mean_op_s:6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
