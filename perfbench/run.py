"""Run one workload of the awflow benchmark and print its result line.

Run from the root of a source checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 22 --trace 0

The run builds the workload's operation list from the seed, measures set-up
time in fresh interpreters, then repeats the list in whole rounds for about
`--seconds` seconds, checking every result.  The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the public
functions of each module are wrapped and the metrics are the per-layer ones,
per round of the list.  A traced run also writes its spans and a summary
under ./.perfbench/.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def use_checkout_source() -> None:
    src = ROOT / "src"
    if not (src / "awflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no awflow package under {src}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(src))


def measure_setup(args) -> float:
    """Median time from interpreter start to inputs built, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", str(args.trace),
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                sys.exit("perfbench: set-up probe failed")
        times.append(t1 - t0)
    return statistics.median(times)


def install_tracer():
    """Wrap the public functions each per-layer metric reads."""
    from awflow import (analysis, exact, integrate, polyident, reptheory, solver,
                        systems)
    from tracer import Tracer

    tr = Tracer()
    solver_entries = ("solver.solve_series", "solver.einstein_series")

    def series_done(t, sol):
        if any(t.inside(n) for n in solver_entries):
            return  # a nested solve; the outer call reports the work
        logs = [log for log in sol.diagnostics if isinstance(log.get("order"), int)]
        t.count("orders", len(logs))
        t.count("eliminations", sum(log.get("rank", 0) for log in logs))
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for s in sol.functions.values() for c in s.coef)
        t.max_coef_bits = max(t.max_coef_bits, bits)

    def integrated(t, traj):
        t.count("nfev", traj.stats["nfev"])

    def rhs_done(t, _):
        if t.inside("integrate.integrate"):
            t.count("rhs_in_integrate")

    for name, owner, attr, after in [
        ("analysis.verify_case", analysis, "verify_case", None),
        ("analysis.cross_check_free_params", analysis, "cross_check_free_params", None),
        ("solver.solve_series", solver, "solve_series", series_done),
        ("solver.free_slots", solver, "free_slots", None),
        ("solver.einstein_series", solver, "einstein_series", series_done),
        ("solver.check_smoothness", solver, "check_smoothness", None),
        ("solver.verify_exact", solver.SeriesSolution, "verify_exact", None),
        ("polyident.eval_series", polyident.PolyIdentity, "eval_series", None),
        ("exact.series_mul", exact.TruncSeries, "__mul__", None),
        ("integrate.launch_state", integrate, "launch_state", None),
        ("integrate.integrate", integrate, "integrate", integrated),
        ("integrate.monitor_residuals", integrate, "monitor_residuals", None),
        ("integrate.first_order_defect", integrate, "first_order_defect", None),
        ("integrate.transform_trajectory", integrate, "transform_trajectory", None),
        ("systems.rhs_first_order", systems, "rhs_first_order", rhs_done),
        ("systems.residual_einstein", systems, "residual_einstein", None),
        ("reptheory.first_return_time", reptheory, "first_return_time", None),
        ("reptheory.circle_normalization", reptheory, "circle_normalization", None),
        ("reptheory.dim_W", reptheory, "dim_W", None),
        ("reptheory.dim_W_s5", reptheory, "dim_W_s5", None),
    ]:
        tr.install(name, owner, attr, after)
    return tr


def layer_values(tr, rounds: int) -> dict[str, float]:
    """Per-layer metric values, per round of the workload's list."""
    def busy(name):
        return tr.inclusive.get(name, 0.0) / rounds

    def calls(name):
        return tr.calls.get(name, 0) / rounds

    verifies = tr.calls.get("analysis.verify_case", 0)
    nfev = tr.counts.get("nfev", 0)
    return {
        "solver.solve_series_s": busy("solver.solve_series"),
        "solver.solve_series_calls": calls("solver.solve_series"),
        "solver.free_slots_s": busy("solver.free_slots"),
        "solver.free_slots_per_verify":
            tr.calls.get("solver.free_slots", 0) / verifies if verifies else 0.0,
        "solver.einstein_series_s": busy("solver.einstein_series"),
        "solver.verify_exact_s": busy("solver.verify_exact"),
        "polyident.eval_series_s": busy("polyident.eval_series"),
        "solver.check_smoothness_s": busy("solver.check_smoothness"),
        "solver.orders": tr.counts.get("orders", 0) / rounds,
        "solver.eliminations": tr.counts.get("eliminations", 0) / rounds,
        "exact.series_mul_calls": calls("exact.series_mul"),
        "exact.series_mul_s": busy("exact.series_mul"),
        "exact.max_coef_bits": tr.max_coef_bits,
        "integrate.launch_state_s": busy("integrate.launch_state"),
        "integrate.integrate_s": busy("integrate.integrate"),
        "integrate.nfev": nfev / rounds,
        "systems.rhs_first_order_calls": calls("systems.rhs_first_order"),
        "systems.rhs_first_order_s": busy("systems.rhs_first_order"),
        "systems.rhs_calls_per_nfev":
            tr.counts.get("rhs_in_integrate", 0) / nfev if nfev else 0.0,
        "integrate.monitor_residuals_s": busy("integrate.monitor_residuals"),
        "systems.residual_einstein_calls": calls("systems.residual_einstein"),
        "integrate.first_order_defect_s": busy("integrate.first_order_defect"),
        "integrate.transform_trajectory_s": busy("integrate.transform_trajectory"),
        "analysis.verify_case_self_s":
            tr.self_time.get("analysis.verify_case", 0.0) / rounds,
        "analysis.cross_check_free_params_s": busy("analysis.cross_check_free_params"),
        "reptheory.first_return_time_s": busy("reptheory.first_return_time"),
        "reptheory.dim_W_s": busy("reptheory.dim_W"),
        "reptheory.dim_W_calls": calls("reptheory.dim_W"),
    }


def with_units(values: dict[str, float], kind: str) -> dict:
    """Attach the units BENCHMARK.json declares for its `kind` metrics."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        sys.exit(f"perfbench: {kind} metrics {sorted(set(values) ^ set(units))} "
                 "are not both measured and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_rounds(ops, seconds: float, tracer):
    """Repeat the list in whole rounds: one, then another only while it is
    expected to end no later than half a round past `seconds`.  Returns the
    time each round spent in its operations."""
    attempted = failed = 0
    round_s: list[float] = []
    broken: set[str] = set()
    raised: list[str] = []
    wrong: list[str] = []
    start = time.perf_counter()
    while True:
        rnd = len(round_s)
        results = {}
        spent = 0.0
        for i, op in enumerate(ops):
            attempted += 1
            ctx = tracer.recording_op(rnd * len(ops) + i) if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with ctx:
                    result = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                spent += time.perf_counter() - t0
                failed += 1
                broken.add(op.label)
                raised.append(f"round {rnd} {op.label}: {type(exc).__name__}: {exc}")
                continue
            spent += time.perf_counter() - t0
            results[op.label] = result
            if all(n in results for n in op.needs):
                for err in op.check(result, {n: results[n] for n in op.needs}):
                    wrong.append(f"round {rnd} {op.label}: {err}")
        round_s.append(spent)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / len(round_s)) > seconds:
            break
    return {"attempted": attempted, "failed": failed, "rounds": len(round_s),
            "completed": len(ops) - len(broken), "round_s": round_s,
            "wall_s": time.perf_counter() - start, "raised": raised, "wrong": wrong}


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed)
        if args.trace:
            install_tracer()
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args)
    ops = WORKLOADS[args.workload](args.seed)
    tracer = install_tracer() if args.trace else None
    res = run_rounds(ops, args.seconds, tracer)
    end_to_end = with_units({
        "ops_per_s": res["completed"] / statistics.median(res["round_s"]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, "end_to_end")
    for err in res["raised"]:
        print(f"perfbench: failed: {err}", file=sys.stderr)
    for err in res["wrong"]:
        print(f"perfbench: wrong result: {err}", file=sys.stderr)
    correct = not res["wrong"]
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": res["rounds"], "ops_per_round": len(ops),
               "round_s": res["round_s"], "wall_s": res["wall_s"],
               "ops": [{"label": op.label, **op.info} for op in ops],
               "end_to_end": end_to_end}
    metrics = end_to_end
    if tracer is not None:
        metrics = with_units(layer_values(tracer, res["rounds"]), "per_layer")
        if tracer.child_over_parent:
            correct = False
            print(f"perfbench: {tracer.child_over_parent} spans outlast their parent",
                  file=sys.stderr)
        spans = OUT / f"spans-{args.workload}.jsonl.gz"
        tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                             "ops": [op.label for op in ops]})
        summary["spans_file"] = str(spans.relative_to(ROOT))
        summary["per_layer"] = metrics
        summary["spans"] = {name: {"calls": tracer.calls[name],
                                   "busy_s": tracer.inclusive.get(name, 0.0),
                                   "self_s": tracer.self_time[name]}
                            for name in sorted(tracer.calls)}
        OUT.mkdir(exist_ok=True)
        (OUT / f"summary-{args.workload}.json").write_text(
            json.dumps(summary, indent=1, default=str))
    print("perfbench-summary " + json.dumps(summary, default=str))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
