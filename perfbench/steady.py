"""Steadiness check: two sets of runs of the same code, compared per workload
and end-to-end metric against the bounds in BENCHMARK.json.

Run from the root of a source checkout:

    python3 perfbench/steady.py

Every workload in BENCHMARK.json gets ten runs per set.  Run i of set 1 uses
seed i and run i of set 2 uses seed 100 + i; the two sets alternate run by
run.  For each metric the report gives both medians, each set's spread
(distance between the first and third quartile over the median), how far the
second median lies from the first (as a share of the first, either way) and
whether the metric holds: both spreads within the bound and the two medians
within the bound of each other.  The share of failed operations must be the
same in both sets.  Raw results go to ./.perfbench/steady.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
#: Runs per set.
RUNS = 10


def run_once(bench: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    summary = [ln for ln in lines if ln.startswith("perfbench-summary ")]
    if summary:
        result["summary"] = json.loads(summary[-1].split(" ", 1)[1])
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    sets: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    started = time.perf_counter()
    for w in workloads:
        for i in range(1, RUNS + 1):
            for s, seed in enumerate((i, 100 + i)):
                res = run_once(bench, w, seed)
                sets[w][s].append(res)
                print(f"{w} set {s + 1} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"wall={res['wall_s']:.1f}s " + " ".join(
                          f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      flush=True)
    total = time.perf_counter() - started
    ok = True
    print(f"\n{'workload':12} {'metric':12} {'median 1':>12} {'median 2':>12} "
          f"{'spread 1':>9} {'spread 2':>9} {'apart':>7} {'bound':>6}  holds")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v1 = [r["metrics"][name]["value"] for r in sets[w][0]]
            v2 = [r["metrics"][name]["value"] for r in sets[w][1]]
            m1, m2 = statistics.median(v1), statistics.median(v2)
            s1, s2 = spread(v1), spread(v2)
            apart = abs(m2 - m1) / m1
            holds = apart <= bound and max(s1, s2) <= bound
            ok &= holds
            print(f"{w:12} {name:12} {m1:12.6g} {m2:12.6g} {s1:9.4f} {s2:9.4f} "
                  f"{apart:7.4f} {bound:6.3f}  {'yes' if holds else 'NO'}")
        shares = [{(r["failed"], r["attempted"]) for r in runs} for runs in sets[w]]
        fail_share = [{f / a for f, a in s} for s in shares]
        same = len(fail_share[0] | fail_share[1]) == 1
        correct = all(r["correct"] for runs in sets[w] for r in runs)
        ok &= same and correct
        print(f"{w:12} failed share {sorted(fail_share[0] | fail_share[1])} "
              f"{'same in every run' if same else 'DIFFERS'}; "
              f"{'all correct' if correct else 'INCORRECT RESULTS'}")
    runs = sum(len(s) for v in sets.values() for s in v)
    print(f"\n{runs} runs in {total:.0f} s ({total / runs:.1f} s per run)")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(sets, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
