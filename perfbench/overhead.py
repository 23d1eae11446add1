"""Per-layer report and tracing overhead.

Run from the root of a source checkout:

    python3 perfbench/overhead.py

For each workload in BENCHMARK.json this makes one untraced and one traced
run at seed 1.  It prints the traced run's per-layer metrics (per round of the
workload's list) and, for every end-to-end metric, the untraced value, the
value measured under tracing and the overhead: how much worse the traced
value is, as a share of the untraced one.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from steady import run_once

ROOT = Path.cwd()
SEED = 1


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second value is than the first, as a share of it."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    report = {}
    ok = True
    for w in workloads:
        plain = run_once(bench, w, SEED, trace=0)
        traced = run_once(bench, w, SEED, trace=1)
        ok &= plain["correct"] and traced["correct"]
        summary = traced["summary"]
        print(f"== {w} (seed {SEED}, {summary['rounds']} round(s) of "
              f"{summary['ops_per_round']} operations traced; spans in "
              f"{summary['spans_file']})")
        for name, m in traced["metrics"].items():
            print(f"  {name:36} {m['value']:14.6g} {m['unit']}")
        rows = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            off = plain["metrics"][name]["value"]
            on = summary["end_to_end"][name]["value"]
            rows[name] = {"untraced": off, "traced": on,
                          "overhead": worse_by(off, on, m["better"])}
            print(f"  overhead {name:27} untraced {off:10.5g}  traced {on:10.5g}  "
                  f"{100 * rows[name]['overhead']:+.1f} %")
        report[w] = {"per_layer": traced["metrics"], "end_to_end": rows}
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "overhead.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
