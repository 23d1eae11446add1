"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks on their outputs.

Every workload builds one list of operations from its seed; a run repeats
that list in whole rounds.  An operation is a closure around calls into the
public `awflow` functions, always looked up as module attributes at call
time so the traced run sees its wrappers.  Each check recomputes what it
compares against from the inputs (closed forms, symmetry and scaling laws of
the equations), never from a stored copy of earlier output.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

from awflow import analysis, integrate, reptheory, solver, systems

# -- shared settings -----------------------------------------------------------

#: The `awflow verify` defaults the ladder runs at.
LADDER = dict(order=20, t0=1e-2, t_end=1.0, tol=1e-10)
#: Scale of the homothetic copies of the ladder's D, F, G and H unit points.
LADDER_SCALE = 2
#: Parameters that carry length (scale with the metric); slot parameters are
#: held fixed under y -> s*y(t/s).
_LENGTHS = {"a0", "b0", "c0", "f0"}
#: Holonomy series order of `deep_series`: coefficients pass 300 bits here.
DEEP_ORDER = 28
#: Einstein series order of `deep_series`.
EINSTEIN_ORDER = 12
#: Continuation settings of `scan`; copies at scale s run over [s*t0, s*t_end].
SCAN_T0, SCAN_T_END, SCAN_TOL, SCAN_SCALE = 1e-2, 1.0, 1e-10, 2
#: Lowest series order at which every `scan` point and its copy pass
#: launch_state's truncation test (all triples and swaps for C, every slot
#: value the seed can draw for F and G).
SCAN_ORDER = 7
#: Relative agreement required between a `scan` copy's end state and s times
#: the original's.
COPY_RTOL = 1e-5
#: Order up to which `deep_series` checks a C series against the Einstein
#: identities (a prefix of a solution is a solution to that order).
RICCI_CHECK_ORDER = 16
#: m range of the dimension tables.
TABLE_M = range(11)

PYTHAGOREAN = [(5, 3, 4), (13, 5, 12), (17, 8, 15)]
#: Generic orbits (k, l) for the flag case A.
A_ORBITS = [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2)]
#: Orbits of the projective-plane case E, up to delta = 93.
E_ORBITS = [(2, 1), (5, 3), (7, 4)]
#: Generic orbits for `tables`, grouped so that the orbits of one group take
#: about the same number of lattice steps in the first-return-time searches
#: (within 8 %: about 38 000 and 88 000 per orbit).
TABLE_MID = [(7, 2), (7, 3), (6, 5)]
TABLE_HIGH = [(7, 4), (8, 3), (9, 1), (7, 5), (8, 5)]
#: The corrupted ladder point: fixed, so its verdict does not depend on the seed.
FAULT_POINT = ("D", {"b0": 1, "f0": 1}, ("b", 4))


def _rat(rng: random.Random) -> F:
    """A positive rational of small height: the cost of an exact solve grows
    with the heights of its data, so the draws stay in one narrow class."""
    return F(rng.choice([1, 2, 3, 5, 7]), rng.choice([1, 2, 3]))


#: Values of a free-slot parameter.  At unit scale, H with q < 0 and F with
#: q1, q2 of opposite signs blow up before t = 1 (integrate reports
#: step_underflow), so those cases draw from the nonnegative values only.
SLOTS = [F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(1)]
SLOTS_NONNEG = [q for q in SLOTS if q >= 0]


def _scaled(params: dict, names, s) -> dict:
    return {k: (v * s if k in names else v) for k, v in params.items()}


@dataclass
class Op:
    """One timed operation and the check of its result."""

    label: str
    run: Callable[[], object]
    check: Callable[..., list[str]]
    #: labels of earlier operations of the same round whose results the
    #: check also reads, passed as a dict
    needs: tuple[str, ...] = ()
    info: dict = field(default_factory=dict)


# -- ladder ----------------------------------------------------------------------


def _ladder_check(case_id: str, params: dict, k, l, fault: bool):
    def check(report: dict, _=None) -> list[str]:
        errs = []
        names = {c["name"]: c["ok"] for c in report["checks"]}
        if report["case"] != case_id:
            errs.append(f"report is for case {report['case']}")
        if k is not None and (report["k"], report["l"]) != (k, l):
            errs.append(f"report is for orbit ({report['k']}, {report['l']})")
        if fault:
            if report["ok"] or names.get("exact_resubstitution", True):
                errs.append("corrupted coefficient passed exact_resubstitution")
        elif not report["ok"]:
            errs.append("ladder failed: " + ", ".join(n for n, ok in names.items() if not ok))
        if case_id == "C":
            p = {n: F(v) for n, v in params.items()}
            if report["su4_family"] != (p["a0"] ** 2 == p["b0"] ** 2 + p["c0"] ** 2):
                errs.append("su4_family flag disagrees with a0^2 == b0^2 + c0^2")
        if case_id in ("A", "B") and names.get("degenerate_f_vanishes") is not True:
            errs.append("f did not vanish identically on the degenerate branch")
        return errs
    return check


def _ladder_op(label: str, case_id: str, params: dict, k=None, l=None,
               fault=None) -> Op:
    kw = {} if k is None else {"k": k, "l": l}

    def run():
        return analysis.verify_case(case_id, params, **kw, **LADDER,
                                    fault_inject=fault)
    return Op(label, run, _ladder_check(case_id, params, k, l, fault is not None),
              info={"case": case_id, "params": params, **kw})


def ladder(seed: int) -> list[Op]:
    rng = random.Random(f"ladder:{seed}")
    ops = []
    for i, (k, l) in enumerate(rng.sample(A_ORBITS, 2)):
        params = {n: _rat(rng) for n in ("a0", "b0", "c0")}
        ops.append(_ladder_op(f"A{i}", "A", params, k, l))
    ops.append(_ladder_op("B", "B", {n: _rat(rng) for n in ("a0", "b0", "c0")}))
    a0, b0, c0 = rng.choice(PYTHAGOREAN)
    if rng.random() < 0.5:
        b0, c0 = c0, b0
    ops.append(_ladder_op("C", "C", {"a0": a0, "b0": b0, "c0": c0}))
    k, l = rng.choice(E_ORBITS)
    ops.append(_ladder_op("E", "E", {"b0": rng.choice([F(1), F(2)]),
                                     "q": rng.choice(SLOTS)}, k, l))
    units = [
        ("D", {"b0": F(1), "f0": F(1)}),
        ("F", {"b0": F(1), "q1": rng.choice(SLOTS_NONNEG), "q2": rng.choice(SLOTS_NONNEG)}),
        ("G", {"a0": F(1), "q": rng.choice(SLOTS)}),
        ("H", {"a0": F(1), "q": rng.choice(SLOTS_NONNEG)}),
    ]
    for case_id, params in units:
        ops.append(_ladder_op(case_id, case_id, params))
        copy = _scaled(params, _LENGTHS, LADDER_SCALE)
        ops.append(_ladder_op(f"{case_id}*{LADDER_SCALE}", case_id, copy))
    case_id, params, fault = FAULT_POINT
    ops.append(_ladder_op("fault", case_id, params, fault=fault))
    return ops


# -- deep_series -------------------------------------------------------------------


def _normalization(case_id: str, k, l) -> tuple[str, F] | None:
    """|first derivative| of the collapsing circle, from the orbit alone."""
    if case_id == "C":
        return "f", F(12)
    if case_id == "D":
        return "a", F(2)
    if case_id == "E":
        return "f", F(2 * (k * k + k * l + l * l), abs(k + l))
    return None


def _series_op(label: str, case_id: str, params: dict, kw: dict,
               pair: tuple[str, F] | None = None) -> Op:
    def run():
        sol = solver.solve_series(case_id, params, order=DEEP_ORDER, **kw)
        exact = sol.verify_exact()
        smooth = solver.check_smoothness(sol)
        return sol, exact, smooth.ok

    def check(result, earlier=None) -> list[str]:
        sol, exact, smooth = result
        errs = []
        if not exact:
            errs.append("series fails exact re-substitution")
        if not smooth:
            errs.append("series fails the smoothness checks")
        norm = _normalization(case_id, kw.get("k"), kw.get("l"))
        if norm is not None:
            fn, want = norm
            if abs(sol.functions[fn].coef[1]) != want:
                errs.append(f"|{fn}'(0)| = {abs(sol.functions[fn].coef[1])}, expected {want}")
        if case_id == "C":
            # a Spin(7) metric is Ricci-flat: the holonomy series must zero the
            # Einstein identities at lambda = 0 as well
            prefix = {fn: f.truncated(RICCI_CHECK_ORDER) for fn, f in sol.functions.items()}
            ricci = dataclasses.replace(sol, functions=prefix, einstein_lambda=F(0))
            if not all(r.is_zero() for r in ricci.residual_series().values()):
                errs.append("holonomy series does not solve the lambda = 0 Einstein identities")
        if pair is not None:
            base_label, s = pair
            base = earlier[base_label][0]
            for fn, series in base.functions.items():
                want = [s ** (1 - n) * c for n, c in enumerate(series.coef)]
                if list(sol.functions[fn].coef) != want:
                    errs.append(f"{fn} breaks scaling covariance coef[n] -> s^(1-n) coef[n] at s = {s}")
        return errs

    return Op(label, run, check, needs=(pair[0],) if pair else (),
              info={"case": case_id, "params": params, **kw})


def deep_series(seed: int) -> list[Op]:
    rng = random.Random(f"deep_series:{seed}")
    points = [
        ("C", {n: _rat(rng) for n in ("a0", "b0", "c0")}, {}),
        ("D", {"b0": _rat(rng), "f0": _rat(rng)}, {}),
        ("E", {"b0": _rat(rng), "q": rng.choice(SLOTS)}, dict(zip("kl", rng.choice(E_ORBITS)))),
        ("F", {"b0": _rat(rng), "q1": rng.choice(SLOTS), "q2": rng.choice(SLOTS)}, {}),
        ("G", {"a0": _rat(rng), "q": rng.choice(SLOTS)}, {}),
        ("H", {"a0": _rat(rng), "q": rng.choice(SLOTS)}, {}),
    ]
    ops = []
    for case_id, params, kw in points:
        s = rng.choice([F(2), F(3)])
        ops.append(_series_op(case_id, case_id, params, kw))
        ops.append(_series_op(f"{case_id}*s", case_id, _scaled(params, _LENGTHS, s), kw,
                              pair=(case_id, s)))
    return ops + einstein(seed)


# -- einstein series (part of deep_series) ----------------------------------------


def _einstein_op(label: str, case_id: str, params: dict, lam, kw: dict) -> Op:
    def run():
        return solver.einstein_series(case_id, params, lam, order=EINSTEIN_ORDER, **kw)

    def check(sol, _=None) -> list[str]:
        errs = []
        if not sol.verify_exact():
            errs.append("Einstein series fails exact re-substitution")
        if "f3" in params and 6 * sol.functions["f"].coef[3] != params["f3"]:
            errs.append(f"6 f[3] = {6 * sol.functions['f'].coef[3]}, requested f3 = {params['f3']}")
        norm = _normalization(case_id, kw.get("k"), kw.get("l"))
        if case_id == "D" and abs(sol.functions["a"].coef[1]) != norm[1]:
            errs.append("|a'(0)| != 2 on the five-sphere")
        return errs

    return Op(label, run, check, info={"case": case_id, "params": params,
                                       "lambda": str(lam), **kw})


def einstein(seed: int) -> list[Op]:
    """The Einstein series that close each `deep_series` round: the same
    staircase used with second-order identities, a longer lag and two
    calibration passes on the flag cases."""
    rng = random.Random(f"einstein:{seed}")
    f3 = lambda: rng.choice([F(-2), F(-1), F(1, 2), F(1), F(2)])  # noqa: E731
    flag = lambda: {n: _rat(rng) for n in ("a0", "b0", "c0")}  # noqa: E731
    return [
        _einstein_op("A/0", "A", {**flag(), "f3": f3()}, 0, {"k": 2, "l": 1}),
        _einstein_op("A/1", "A", {**flag(), "f3": f3()}, 1, {"k": 2, "l": 1}),
        _einstein_op("C/1", "C", {**flag(), "f3": f3()}, 1, {}),
        _einstein_op("D/1", "D", {"b0": _rat(rng), "f0": _rat(rng)}, 1, {}),
    ]


# -- scan -----------------------------------------------------------------------------


@dataclass
class ScanResult:
    sol: object
    traj: object
    monitors: dict
    defect: float
    transported: dict


def _scan_op(label: str, case_id: str, params: dict, s: int,
             base_label: str | None) -> Op:
    order = SCAN_ORDER
    t0, t_end = s * SCAN_T0, s * SCAN_T_END

    def run():
        sol = solver.solve_series(case_id, params, order=order)
        start = integrate.launch_state(sol, t0)
        sysid = sol.system()
        traj = integrate.integrate(sysid, start, t_end, SCAN_TOL)
        wanted = ["einstein_lambda0"]
        wanted += {"C": ["su4_constraint"], "F": ["mirror_bc"],
                   "G": ["mirror_a12"]}.get(case_id, [])
        mon = integrate.monitor_residuals(sysid, traj, wanted)
        defect = integrate.first_order_defect(sysid, traj)
        moved = {}
        for smap in systems.symmetry_maps(sysid):
            other = integrate.transform_trajectory(smap, traj)
            moved[smap.name] = integrate.first_order_defect(sysid, other)
        return ScanResult(sol, traj, mon, defect, moved)

    def check(res: ScanResult, earlier=None) -> list[str]:
        return scan_errors(case_id, res, t0,
                           earlier[base_label] if base_label else None, s)

    return Op(label, run, check, needs=(base_label,) if base_label else (),
              info={"case": case_id, "params": params, "order": order,
                    "t0": t0, "t_end": t_end})


def scan_errors(case_id: str, res: ScanResult, t0: float, base: ScanResult | None,
                s: int) -> list[str]:
    errs = []
    traj = res.traj
    if traj.termination != "reached_t_end":
        return [f"integration ended with {traj.termination}"]
    col = {fn: traj.y[:, i] for i, fn in enumerate(traj.functions)}
    if case_id == "C":
        if float(abs(col["a1"] + col["a2"]).max()) >= 1e-8:
            errs.append("SU(4) trajectory leaves a1 + a2 = 0")
        if float(abs(col["a1"] ** 2 - col["b"] ** 2 - col["c"] ** 2).max()) >= 1e-6:
            errs.append("SU(4) trajectory leaves a1^2 = b^2 + c^2")
    if case_id == "F" and float(abs(col["b"] - col["c"]).max()) >= 1e-10:
        errs.append("mirror b = c broken along the trajectory")
    if case_id == "G" and float(abs(col["a1"] - col["a2"]).max()) >= 1e-10:
        errs.append("mirror a1 = a2 broken along the trajectory")
    # a short time after launch the trajectory still follows the series
    i = 1
    t1 = float(traj.t[i])
    for fn, series in res.sol.functions.items():
        value, proxy = series.eval_float(t1)
        # the tail estimate launch_state uses: a zero top coefficient (parity)
        # would hide the tail from the proxy alone
        tail = max(proxy, abs(float(series.coef[-2])) * t1 ** (series.order - 1))
        got = float(col[fn][i])
        if abs(got - value) > 10 * (SCAN_TOL * max(1.0, abs(value)) + tail):
            errs.append(f"{fn} at t = {traj.t[i]:.4g} is {got!r}, series gives {value!r}")
    if res.monitors["einstein_lambda0"]["max"] >= 1e-6:
        errs.append(f"Ricci-flat monitor reached {res.monitors['einstein_lambda0']['max']:.2e}")
    for name, d in res.transported.items():
        if not d <= 10 * max(res.defect, 1e-300):
            errs.append(f"defect after {name} is {d:.2e}, original {res.defect:.2e}")
    if base is not None:
        # y -> s*y(t/s): the copy ends at s times the original end state.  The
        # absolute tolerance does not scale, so the two runs accept different
        # steps and differ by their global errors: up to 2e-7 relative on the
        # drawn points against a 1e-13 reference run.
        want = s * base.traj.y[-1]
        got = traj.y[-1]
        if abs(traj.t[-1] - s * base.traj.t[-1]) > 1e-12 * s:
            errs.append("copy does not end at s * t_end")
        elif float(abs(got - want).max()) > COPY_RTOL * max(1.0, float(abs(want).max())):
            errs.append(f"copy ends at {got.tolist()}, expected {want.tolist()}")
    return errs


def scan(seed: int) -> list[Op]:
    rng = random.Random(f"scan:{seed}")
    a0, b0, c0 = rng.choice(PYTHAGOREAN)
    if rng.random() < 0.5:
        b0, c0 = c0, b0
    points = [
        ("C", {"a0": F(a0), "b0": F(b0), "c0": F(c0)}),
        ("D", {"b0": F(1), "f0": F(1)}),
        ("F", {"b0": F(1), "q1": rng.choice(SLOTS_NONNEG), "q2": rng.choice(SLOTS_NONNEG)}),
        ("G", {"a0": F(1), "q": rng.choice(SLOTS)}),
    ]
    ops = []
    for case_id, params in points:
        ops.append(_scan_op(case_id, case_id, params, 1, None))
        copy = _scaled(params, _LENGTHS, SCAN_SCALE)
        ops.append(_scan_op(f"{case_id}*2", case_id, copy, SCAN_SCALE, case_id))
    return ops


# -- tables ------------------------------------------------------------------------------


def generic_h(m: int) -> int:
    """dim W_m^h off the exceptional orbits: the normal weight (2 delta, 0)
    meets no nontrivial weight of S^2 of the tangent space, so only the three
    trivial summands pair with the trivial part of S^m (m even)."""
    return 3 if m % 2 == 0 else 0


def torus_v(m: int) -> int:
    """dim W_m^v on a torus orbit: S^2 of the normal disc is the trivial line
    plus twice the normal weight, met by S^m for even m."""
    return 0 if m % 2 else (1 if m == 0 else 3)


#: The closed-form tables stated by the acceptance suite (criterion 2).
STATED = {
    ((1, 0), "u12", "h"): lambda m: 3 if m % 2 == 0 else (0 if m == 1 else 2),
    ((1, 1), "u12", "h"): lambda m: 3 if m == 0 else (5 if m % 2 == 0 else 2),
    ((1, 1), "u12", "v"): torus_v,
    ((1, 1), "u12-z2", "h"): lambda m: 3 if m % 2 == 0 else 2,
    ("s5", "h"): lambda m: 2 if m % 2 == 0 else 3,
    ("s5", "v"): lambda m: 1 if m == 0 else (2 if m % 2 == 0 else 0),
}


def _table_op(k: int, l: int) -> Op:
    aw = reptheory.AloffWallach(k, l)
    orbits = ["u12", "u12-z2"] if (k, l) == (1, 1) else ["u12"]

    def run():
        out = {
            "return": reptheory.first_return_time(aw),
            "return_q": reptheory.first_return_time(aw, quotient_by_h=True),
            "norm": reptheory.circle_normalization(aw),
            "dims": {(o, part): [reptheory.dim_W(aw, o, m, part) for m in TABLE_M]
                     for o in orbits for part in ("h", "v")},
        }
        if (k, l) == (1, 1):
            out["norm_q"] = reptheory.circle_normalization(aw, quotient_by_h=True)
        return out

    def check(out, _=None) -> list[str]:
        errs = []
        delta = aw.delta
        if out["return"] != F(1, delta):
            errs.append(f"first return time {out['return']}, expected 1/{delta}")
        if out["norm"] != 2 * delta:
            errs.append(f"circle normalization {out['norm']}, expected {2 * delta}")
        rq = out["return_q"]
        if (k, l) == (1, 1):
            if rq != F(1, 6) or out["norm_q"] != 12:
                errs.append(f"(1,1) quotient: return {rq}, normalization {out['norm_q']}")
        elif not (0 < rq <= out["return"] and (4 * delta * rq).denominator == 1):
            # a larger isotropy group returns no later, on the 1/(4 delta) lattice
            errs.append(f"quotient return time {rq} off the lattice or later than {out['return']}")
        for (orbit, part), row in out["dims"].items():
            want = STATED.get(((k, l), orbit, part))
            if want is None:
                want = torus_v if part == "v" else generic_h
            if row != [want(m) for m in TABLE_M]:
                errs.append(f"dim W ({orbit}, {part}) = {row}")
        return errs

    return Op(f"({k},{l})", run, check, info={"k": k, "l": l, "delta": aw.delta})


def _s5_op() -> Op:
    def run():
        return {part: [reptheory.dim_W_s5(m, part) for m in TABLE_M] for part in ("h", "v")}

    def check(out, _=None) -> list[str]:
        return [f"dim W_s5 ({part}) = {row}" for part, row in out.items()
                if row != [STATED[("s5", part)](m) for m in TABLE_M]]

    return Op("s5", run, check, info={"orbit": "s5"})


def tables(seed: int) -> list[Op]:
    rng = random.Random(f"tables:{seed}")
    orbits = [(1, 1), (1, 0), (2, 1)]
    orbits += rng.sample(TABLE_MID, 2) + rng.sample(TABLE_HIGH, 2)
    return [_table_op(k, l) for k, l in orbits] + [_s5_op()]


WORKLOADS = {
    "ladder": ladder,
    "deep_series": deep_series,
    "scan": scan,
    "tables": tables,
}
