"""Alternating before/after pairs of the awflow benchmark, written to BENCH_<pr>.json.

Run from the root of a source checkout:

    python3 tools/bench_pairs.py --pr 8 --base HEAD~1 --workload deep_series ladder

The base revision is exported with `git archive` into a temporary directory;
the change is the working tree itself.  Each pair runs `perfbench/run.py` once
on each side, untraced, at seed 1 and the `run_seconds` of BENCHMARK.json, with
the order swapped on every other pair so a slow stretch of the machine does not
always hit the same side.  Each side of a pair also runs a child process in
its checkout that builds the same operation list, runs one warm round, then
times at least `CPU_ROUNDS` rounds and `CPU_SECONDS` of run time in process
CPU time, `op.run` and `op.check` apart, calling `check` as perfbench/run.py
does.  Its medians, `cpu_run_s` and
`cpu_check_s`, move far less than wall time with the load from other
processes on the host.  For every end-to-end metric of BENCHMARK.json, and
under `cpu` for the two CPU times, the file records both sides' medians and
quartiles, and in how many pairs the change was better.  Re-running with the
same --pr adds the new sets to the file: a workload measured again is stored
under the first free key of `<workload>_rerun`, `<workload>_rerun2`, ..., so
no earlier set is lost.  Each entry records the base, seed and run length it
was measured with.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SEED = 1
CPU_ROUNDS, CPU_SECONDS = 10, 2.0  # a round of `tables` takes a few ms
CPU_METRICS = [{"name": "cpu_run_s", "unit": "s", "better": "lower"},
               {"name": "cpu_check_s", "unit": "s", "better": "lower"}]
# run in the checkout: argv is the workload, the seed, and the least number of
# rounds and of seconds of run time to time
CPU_CHILD = """
import json, statistics, sys, time
sys.path[:0] = ["src", "perfbench"]
from workloads import WORKLOADS
ops = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
run_s, check_s, warm = [], [], True
while warm or len(run_s) < int(sys.argv[3]) or sum(run_s) < float(sys.argv[4]):
    results, spent_run, spent_check = {}, 0.0, 0.0
    for op in ops:
        t0 = time.process_time()
        results[op.label] = op.run()
        t1 = time.process_time()
        if all(n in results for n in op.needs):
            errs = op.check(results[op.label], {n: results[n] for n in op.needs})
            if errs:
                sys.exit(f"{op.label}: {errs[0]}")
        spent_run += t1 - t0
        spent_check += time.process_time() - t1
    if not warm:
        run_s.append(spent_run)
        check_s.append(spent_check)
    warm = False
print(json.dumps({"cpu_run_s": statistics.median(run_s),
                  "cpu_check_s": statistics.median(check_s)}))
"""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least 2 pairs")
    return args


def export(rev: str, dest: Path) -> str:
    """Write the committed files of `rev` under dest; return the full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {workload} failed in {checkout}:\n{out.stderr}")
    res = json.loads(lines[-1])
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            **{k: v["value"] for k, v in res["metrics"].items()}}


def cpu_once(checkout: Path, workload: str) -> dict:
    """The CPU time per round of `op.run` and of `op.check`, medians over the
    rounds after a warm one, in a child process in the checkout."""
    cmd = [sys.executable, "-c", CPU_CHILD, workload, str(SEED), str(CPU_ROUNDS),
           str(CPU_SECONDS)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"bench_pairs: CPU rounds of {workload} failed in {checkout}:\n"
                 f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        entry = {"unit": m["unit"], "better": m["better"]}
        for side in ("parent", "change"):
            vals = [r[name] for r in runs[side]]
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            entry[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3}
        wins = sum((c[name] > p[name]) if higher else (c[name] < p[name])
                   for p, c in zip(runs["parent"], runs["change"]))
        entry["change_wins"] = f"{wins}/{len(runs['change'])}"
        out[name] = entry
    return out


def merge(doc: dict, workload: str, entry: dict) -> str:
    """Store a workload's set in doc["workloads"] under a key no set holds
    yet, and return the key."""
    sets = doc["workloads"]
    key, n = workload, 1
    while key in sets:
        key = f"{workload}_rerun{n if n > 1 else ''}"
        n += 1
    sets[key] = entry
    return key


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    path = ROOT / f"BENCH_{args.pr}.json"
    doc = (json.loads(path.read_text()) if path.exists()
           else {"command": bench["command"], "workloads": {}})
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        sha = export(args.base, parent)
        sides = {"parent": parent, "change": ROOT}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append({**run_once(sides[side], workload, seconds),
                                       **cpu_once(sides[side], workload)})
                print(f"{workload} pair {i + 1}: " + ", ".join(
                    f"{s} {runs[s][-1]['ops_per_s']:.3f} ops/s, "
                    f"{runs[s][-1]['cpu_run_s']:.4f} s run CPU" for s in ("parent", "change")),
                    file=sys.stderr)
            merge(doc, workload, {
                "base": sha, "seed": SEED, "seconds": seconds, "pairs": args.pairs,
                "all_correct": all(r["correct"] and r["failed"] == 0
                                   for side in runs.values() for r in side),
                "metrics": summarize(runs, bench["end_to_end"]),
                "cpu": {"rounds": CPU_ROUNDS, "seconds": CPU_SECONDS,
                        **summarize(runs, CPU_METRICS)},
                "runs": runs,
            })
            path.write_text(json.dumps(doc, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
