"""Show that every workload's checks reject deliberately corrupted results.

Run from the root of a source checkout:

    python3 perfbench/selfcheck.py

For each workload this runs a few operations once, confirms that their
checks accept the real results, then corrupts a copy of each result (a
series coefficient, a trajectory sample, a table entry, a report flag) and
confirms that the check reports it.  Exits 1 if a corruption goes unnoticed.
"""
from __future__ import annotations

import copy
import dataclasses
import sys
from fractions import Fraction as F
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

_failures = 0


def expect(title: str, errs: list[str], caught: bool, match: str = "") -> None:
    """`caught`: the check must report an error containing `match`."""
    global _failures
    errs = [e for e in errs if match in e]
    ok = bool(errs) == caught
    _failures += not ok
    what = errs[0] if errs else "no error"
    print(f"{'PASS' if ok else 'FAIL'} {title}: {what}")


def _bump(series, i: int):
    coef = list(series.coef)
    coef[i] += 1
    return type(series)(coef)


def _with_coef(sol, fn: str, i: int):
    functions = dict(sol.functions)
    functions[fn] = _bump(functions[fn], i)
    return dataclasses.replace(sol, functions=functions)


def ladder() -> None:
    ops = {op.label: op for op in wl.ladder(1)}
    for label in ("C", "A0", "fault"):
        op = ops[label]
        report = op.run()
        expect(f"ladder {label} as computed", op.check(report), caught=False)
        if label == "C":
            bad = copy.deepcopy(report)
            bad["su4_family"] = not bad["su4_family"]
            expect("ladder C with the SU(4) flag flipped", op.check(bad), caught=True)
            bad = copy.deepcopy(report)
            bad["checks"][-1]["ok"] = False
            bad["ok"] = False
            expect("ladder C with one failed rung", op.check(bad), caught=True)
        if label == "A0":
            bad = copy.deepcopy(report)
            for c in bad["checks"]:
                if c["name"] == "degenerate_f_vanishes":
                    c["ok"] = False
            expect("ladder A with f not vanishing", op.check(bad), caught=True)
    # the fault point's check, given the clean report of the same point
    clean = wl._ladder_op("clean", *wl.FAULT_POINT[:2]).run()
    expect("ladder fault point whose corruption went unnoticed",
           ops["fault"].check(clean), caught=True)


def deep_series() -> None:
    ops = {op.label: op for op in wl.deep_series(1)}
    for case_id in ("C", "D", "E"):
        base, scaled = ops[case_id], ops[f"{case_id}*s"]
        r0, r1 = base.run(), scaled.run()
        expect(f"deep_series {case_id} as computed", base.check(r0), caught=False)
        expect(f"deep_series {case_id} copy as computed",
               scaled.check(r1, {case_id: r0}), caught=False)
        fn = next(iter(r1[0].functions))
        bad = (_with_coef(r1[0], fn, 5), True, True)
        expect(f"deep_series {case_id} copy with {fn}[5] corrupted",
               scaled.check(bad, {case_id: r0}), caught=True, match="scaling")
        fn1 = {"C": "f", "D": "a", "E": "f"}[case_id]
        bad = (_with_coef(r0[0], fn1, 1), True, True)
        expect(f"deep_series {case_id} with {fn1}'(0) corrupted", base.check(bad),
               caught=True, match="(0)|")
        if case_id == "C":
            bad = (_with_coef(r0[0], "b", 4), True, True)
            expect("deep_series C with b[4] corrupted", base.check(bad), caught=True,
                   match="Einstein identities")


def einstein() -> None:
    for op in wl.einstein(1):
        sol = op.run()
        expect(f"einstein {op.label} as computed", op.check(sol), caught=False)
        fn = "a" if op.label.startswith("D") else "f"
        expect(f"einstein {op.label} with {fn}[3] corrupted",
               op.check(_with_coef(sol, fn, 3)), caught=True, match="re-substitution")
        if fn == "f":
            expect(f"einstein {op.label} with f[3] corrupted",
                   op.check(_with_coef(sol, fn, 3)), caught=True, match="requested f3")


def scan() -> None:
    ops = {op.label: op for op in wl.scan(1)}
    for case_id in ("C", "F"):
        base, scaled = ops[case_id], ops[f"{case_id}*2"]
        r0, r1 = base.run(), scaled.run()
        expect(f"scan {case_id} as computed", base.check(r0), caught=False)
        expect(f"scan {case_id} copy as computed", scaled.check(r1, {case_id: r0}),
               caught=False)
        col = r0.traj.functions.index("a2" if case_id == "C" else "b")
        bad = copy.deepcopy(r0)
        bad.traj.y[len(bad.traj.t) // 2, col] += 1e-6
        expect(f"scan {case_id} with one trajectory sample moved by 1e-6",
               base.check(bad), caught=True, match="SU(4)" if case_id == "C" else "mirror")
        bad = copy.deepcopy(r0)
        bad.traj.y[1, :] *= 1 + 1e-6
        expect(f"scan {case_id} with the first step off the series",
               base.check(bad), caught=True, match="series gives")
        bad = copy.deepcopy(r1)
        bad.traj.y[-1, :] *= 1 + 1e-4
        expect(f"scan {case_id} copy with its end state moved",
               scaled.check(bad, {case_id: r0}), caught=True, match="copy ends")
        bad = copy.deepcopy(r0)
        bad.monitors["einstein_lambda0"]["max"] = 2e-6
        expect(f"scan {case_id} with the Ricci-flat monitor at 2e-6",
               base.check(bad), caught=True, match="Ricci-flat")
        bad = copy.deepcopy(r0)
        name = next(iter(bad.transported))
        bad.transported[name] = 11 * bad.defect
        expect(f"scan {case_id} with a transported defect 11x the original",
               base.check(bad), caught=True, match="defect after")


def tables() -> None:
    ops = {op.label: op for op in wl.tables(1)}
    for label in ("(1,1)", "(2,1)", "s5"):
        op = ops[label]
        out = op.run()
        expect(f"tables {label} as computed", op.check(out), caught=False)
        bad = copy.deepcopy(out)
        if label == "s5":
            bad["h"][4] += 1
            expect("tables s5 with one dimension off", op.check(bad), caught=True)
            continue
        key = next(iter(bad["dims"]))
        bad["dims"][key][3] += 1
        expect(f"tables {label} with one dimension off", op.check(bad), caught=True)
        bad = copy.deepcopy(out)
        bad["return"] = bad["return"] / 2
        expect(f"tables {label} with the return time halved", op.check(bad), caught=True)
        bad = copy.deepcopy(out)
        bad["return_q"] = bad["return_q"] + F(1, 1000)
        expect(f"tables {label} with the quotient return time off the lattice",
               op.check(bad), caught=True)


def main() -> int:
    for part in (ladder, deep_series, einstein, scan, tables):
        part()
    print(f"{_failures} corruption(s) not caught" if _failures else "every corruption caught")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
