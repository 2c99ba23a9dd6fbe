"""Regenerate ``reference.json``: the expected outputs of every catalog input.

Run from the root of a checkout, on a commit whose outputs are trusted::

    python3 perfbench/record.py                 # every workload
    python3 perfbench/record.py compile-dp      # one workload

Each input of each workload's catalog is run once; its checked record is
stored under the input's key.  compile-dp stores only statistics seeds
whose compile makes a number of optimizer calls in ``DP_CALLS``.  A record that
breaks an invariant is refused, so the references never encode a
defect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def record(workload: str) -> dict[str, dict]:
    import workloads

    prepared, _ = workloads.setup(workloads.catalog(workload))
    entries = {}
    for item in prepared:
        rec, _facts = checks.outputs(item.run())
        if workload == "compile-dp" and rec["optimizer_calls"] not in workloads.DP_CALLS:
            continue
        problems = checks.invariant_violations(rec)
        if problems:
            raise SystemExit(f"{workload} {item.input.key}: {problems}")
        entries[item.input.key] = rec
        print(f"{workload} {item.input.key}", flush=True)
    return entries


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    names = argv or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise SystemExit(f"unknown workload(s): {unknown}")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names:
        reference[name] = record(name)
    # One line per input keeps diffs of a re-recorded reference readable.
    lines = []
    for name in sorted(reference):
        entries = reference[name]
        body = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
            for key in sorted(entries)
        )
        lines.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
