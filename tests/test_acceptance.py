"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Golden coefficient comparisons are exact (zero tolerance); numerical
tolerances are pinned in the assertions, nothing is deferred to calibration.
"""
import random
from fractions import Fraction as F

import pytest

from awflow import integrate as integ
from awflow.analysis import su4_family_check
from awflow.exact import TruncSeries
from awflow.polyident import polynomialize
from awflow.reptheory import AloffWallach, dim_W, dim_W_s5
from awflow.solver import (check_smoothness, einstein_series, free_slots,
                           solve_series)
from awflow.systems import State, SystemId, symmetry_maps

SEED = 20260811


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# -- 1. golden coefficients ------------------------------------------------------

GOLDEN = {
    "C": ({"a0": 2, "b0": 1, "c0": 1}, {}, {
        "a1": [2, -1, F(11, 4)],
        "a2": [-2, -1, F(-11, 4)],
        "b": [1, 0, F(1, 2)],
        "c": [1, 0, F(1, 2)],
        "f": [0, 12, 0],
    }),
    "D": ({"b0": 1, "f0": 1}, {}, {
        "a": [0, 2, 0, F(-35, 27)],
        "b": [1, F(-1, 6), F(67, 72), F(337, 6480)],
        "c": [1, F(1, 6), F(67, 72), F(-337, 6480)],
        "f": [1, 0, F(1, 6), 0],
    }),
    "E": ({"b0": 1, "q": 0}, dict(k=1, l=0), {
        "a": [0, 1, 0, F(-1, 2), 0],
        "b": [1, 0, F(2, 3), 0, F(-13, 36)],
        "c": [1, 0, F(5, 6), 0, F(-35, 72)],
        "f": [0, 2, 0, 0, 0],
    }),
    "F": ({"b0": 1, "q1": 0, "q2": 0}, {}, {
        "a1": [0, 1, 0, 0, 0, 0],
        "a2": [0, 1, 0, 0, 0, 0],
        "b": [1, 0, F(3, 4), 0, F(-39, 96), 0],
        "c": [1, 0, F(3, 4), 0, F(-39, 96), 0],
        "f": [0, 3, 0, -3, 0, F(9, 2)],
    }),
    "G": ({"a0": 1, "q": 0}, {}, {
        "a1": [1, 0, 1, 0, F(-7, 8), 0],
        "a2": [1, 0, 1, 0, F(-7, 8), 0],
        "b": [0, 1, 0, 0, 0, F(-3, 40)],
        "c": [1, 0, F(1, 2), 0, F(-1, 4), 0],
        "f": [0, -6, 0, 6, 0, F(-123, 10)],
    }),
    "H": ({"a0": 1, "q": 0}, {}, {
        "a1": [1, 0, 1, 0, F(-23, 24), 0],
        "a2": [-1, 0, -2, 0, F(7, 24), 0],
        "b": [0, 1, 0, F(-1, 6), 0, F(-5, 48)],
        "c": [1, 0, 0, 0, F(1, 8), 0],
        "f": [0, 6, 0, -4, 0, F(35, 4)],
    }),
}


def test_criterion_1_golden_coefficients():
    ok = True
    for cid, (params, kw, golden) in GOLDEN.items():
        sol = solve_series(cid, params, order=8, **kw)
        for fn, expected in golden.items():
            got = list(sol.functions[fn].coef[: len(expected)])
            if got != [F(e) for e in expected]:
                ok = False
    report("1 golden coefficients (exact)", ok)


# -- 2. dimension tables ---------------------------------------------------------


def test_criterion_2_dimension_tables():
    M = range(11)
    aw21, aw10, aw11 = AloffWallach(2, 1), AloffWallach(1, 0), AloffWallach(1, 1)
    ok = (
        [dim_W(aw21, "u12", m, "h") for m in M]
        == [3 if m % 2 == 0 else 0 for m in M]
        and [dim_W(aw10, "u12", m, "h") for m in M]
        == [3 if m % 2 == 0 else (0 if m == 1 else 2) for m in M]
        and [dim_W(aw11, "u12", m, "h") for m in M]
        == [3 if m == 0 else (5 if m % 2 == 0 else 2) for m in M]
        and [dim_W(aw11, "u12", m, "v") for m in M]
        == [1 if m == 0 else (3 if m % 2 == 0 else 0) for m in M]
        and [dim_W(aw11, "u12-z2", m, "h") for m in M]
        == [3 if m % 2 == 0 else 2 for m in M]
        and [dim_W_s5(m, "h") for m in M]
        == [2 if m % 2 == 0 else 3 for m in M]
        and [dim_W_s5(m, "v") for m in M]
        == [1 if m == 0 else (2 if m % 2 == 0 else 0) for m in M]
        and dim_W(aw21, "u12", 2, "v") == 3
    )
    report("2 dimension tables (exact)", ok)


# -- 3. vanishing induction ------------------------------------------------------


def test_criterion_3_circle_function_vanishes():
    rng = random.Random(SEED)
    ok = True
    for k, l in [(2, 1), (3, 1), (1, 0)]:
        cid = "B" if (k, l) == (1, 0) else "A"
        kw = {} if cid == "B" else dict(k=k, l=l)
        for _ in range(5):
            params = {name: F(rng.randint(1, 12), rng.randint(1, 12))
                      for name in ("a0", "b0", "c0")}
            sol = solve_series(cid, params, order=30, **kw)
            if not sol.functions["f"].is_zero():
                ok = False
    report("3 circle-function vanishing through order 30", ok)


# -- 4. Ricci-flatness oracle ----------------------------------------------------


def test_criterion_4_ricci_flat_trajectories():
    ok = True
    for cid, params, kw in [
        ("C", {"a0": 5, "b0": 3, "c0": 4}, {}),
        ("D", {"b0": 1, "f0": 1}, {}),
        ("E", {"b0": 1, "q": 0}, dict(k=1, l=0)),
    ]:
        sol = solve_series(cid, params, order=20, **kw)
        start = integ.launch_state(sol, 1e-2)
        traj = integ.integrate(sol.system(), start, 1.0, 1e-10)
        if traj.termination != "reached_t_end":
            ok = False
            continue
        mon = integ.monitor_residuals(sol.system(), traj, ["einstein_lambda0"])
        if mon["einstein_lambda0"]["max"] >= 1e-6:
            ok = False
    report("4 Ricci-flatness residual < 1e-6 on [1e-2, 1]", ok)


# -- 5. reduced-holonomy family --------------------------------------------------


def test_criterion_5_su4_family_discriminates():
    member = su4_family_check(5, 3, 4, t0=1e-2, t_end=1.0, tol=1e-10)
    outsider = su4_family_check(2, 1, 1, t0=1e-2, t_end=0.5, tol=1e-10)
    ok = (member["in_family"]
          and member["monitors"]["max_sum"] < 1e-8
          and member["monitors"]["max_quadric"] < 1e-6
          and not outsider["in_family"]
          and outsider["monitors"]["max_sum"] > 1e-3
          and outsider["monitors"]["max_quadric"] > 1e-3)
    report("5 reduced-holonomy family membership", ok)


# -- 6. identities proven order by order -----------------------------------------


def test_criterion_6_pair_identities():
    f = solve_series("F", {"b0": 1, "q1": 0, "q2": 0}, order=20)
    g = solve_series("G", {"a0": 1, "q": 0}, order=20)
    ok = (f.functions["b"] == f.functions["c"]
          and g.functions["a1"] == g.functions["a2"])
    report("6 pair identities exact through order 20", ok)


# -- 7. free-slot census ---------------------------------------------------------


def test_criterion_7_free_slot_census():
    expected = {
        "C": [],
        "D": [],
        "E": [("f", 3)],
        "F": [("a1", 3), ("a2", 3)],
        "G": [("b", 3)],
        "H": [("c", 2)],
    }
    param_sets = {
        "C": [{"a0": 2, "b0": 1, "c0": 1}, {"a0": F(1, 2), "b0": 3, "c0": F(5, 7)}],
        "D": [{"b0": 1, "f0": 1}, {"b0": F(3, 2), "f0": F(-2, 5)}],
        "E": [{"b0": 1}, {"b0": F(7, 3)}],
        "F": [{"b0": 1}, {"b0": F(2, 3)}],
        "G": [{"a0": 1}, {"a0": F(5, 4)}],
        "H": [{"a0": 1}, {"a0": F(-3, 2)}],
    }
    ok = True
    for cid, slots in expected.items():
        kw = dict(k=2, l=1) if cid == "E" else {}
        for params in param_sets[cid]:
            if free_slots(cid, order=8, params=params, **kw) != slots:
                ok = False
    report("7 free-slot census at two parameter sets", ok)


# -- 8. smoothness suite ---------------------------------------------------------


def test_criterion_8_smoothness():
    runs = [
        ("C", {"a0": 2, "b0": 1, "c0": 1}, {}, ("f", 12)),
        ("D", {"b0": 1, "f0": 1}, {}, ("a", 2)),
        ("E", {"b0": 1, "q": 0}, dict(k=2, l=1), ("f", F(14, 3))),
        ("F", {"b0": 1, "q1": 0, "q2": 0}, {}, ("f", 3)),
        ("G", {"a0": 1, "q": 0}, {}, ("f", 6)),
        ("H", {"a0": 1, "q": 0}, {}, ("f", 6)),
    ]
    ok = True
    for cid, params, kw, (fn, const) in runs:
        sol = solve_series(cid, params, order=10, **kw)
        rep = check_smoothness(sol)
        if not rep.ok or abs(sol.functions[fn].coef[1]) != const:
            ok = False
    # |f'(0)| = 2 delta / |k+l| for the projective flag family
    aw = AloffWallach(2, 1)
    assert F(14, 3) == F(2 * aw.delta, abs(aw.k + aw.l))
    # fault injection: one corrupted coefficient is detected exactly once
    sol = solve_series("C", {"a0": 2, "b0": 1, "c0": 1}, order=10)
    coefs = list(sol.functions["b"].coef)
    coefs[3] += 1
    sol.functions["b"] = TruncSeries(coefs)
    rep = check_smoothness(sol)
    if rep.ok or len(rep.violations) != 1 or rep.violations[0][:2] != ("b", 3):
        ok = False
    report("8 smoothness suite incl. normalizations and fault injection", ok)


# -- 9. Einstein series ----------------------------------------------------------


def test_criterion_9_einstein():
    ok = True
    for lam in (0, 1):
        sol = einstein_series("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 1}, lam,
                              order=8, k=2, l=1)
        if not (sol.verify_exact() and sol.free_slots_found == [("f", 3)]
                and 6 * sol.functions["f"].coef[3] == 1):
            ok = False
    spin7 = solve_series("C", {"a0": 2, "b0": 1, "c0": 1}, order=20)
    for ident in polynomialize(SystemId("E2")):
        res = ident.eval_series(spin7.functions, lam=F(0))
        if res.order < 18 or not res.is_zero():
            ok = False
    report("9 Einstein series: slot structure and zero residual to order 18", ok)


# -- 10. property suites ---------------------------------------------------------


def test_criterion_10_property_suites():
    rng = random.Random(SEED)
    ok = True

    # symmetry involutions on random states
    for sysid in (SystemId("S1", AloffWallach(2, 1)), SystemId("S2")):
        for smap in symmetry_maps(sysid):
            values = {fn: rng.uniform(0.5, 2.0) * rng.choice([1, -1])
                      for fn in sysid.functions}
            if smap.apply_to_values(smap.apply_to_values(values)) != \
                    pytest.approx(values):
                ok = False

    # solution transport: transformed trajectories keep small defects
    sol = solve_series("C", {"a0": 5, "b0": 3, "c0": 4}, order=20)
    sysid = sol.system()
    start = integ.launch_state(sol, 1e-2)
    traj = integ.integrate(sysid, start, 1.0, 1e-10)
    base = max(integ.first_order_defect(sysid, traj), 1e-11)
    for smap in symmetry_maps(sysid):
        moved = integ.transform_trajectory(smap, traj)
        if integ.first_order_defect(sysid, moved) > 10 * base:
            ok = False

    # homothety covariance of the series
    base_sol = solve_series("D", {"b0": 1, "f0": 1}, order=10)
    scaled = solve_series("D", {"b0": 3, "f0": 3}, order=10)
    for fn in base_sol.functions:
        for i in range(11):
            if scaled.functions[fn].coef[i] != \
                    base_sol.functions[fn].coef[i] * F(3) ** (1 - i):
                ok = False

    # homothety transport of the flow
    dsol = solve_series("D", {"b0": 1, "f0": 1}, order=20)
    dsys = dsol.system()
    st = integ.launch_state(dsol, 1e-3)
    tr = integ.integrate(dsys, st, 1e-2, 1e-12, n_samples=128)
    sigma = 2.0
    st2 = State({fn: sigma * v for fn, v in st.values.items()}, t=sigma * st.t)
    tr2 = integ.integrate(dsys, st2, sigma * 1e-2, 1e-12, n_samples=128)
    for j, fn in enumerate(tr.functions):
        if abs(tr2.y[-1][j] - sigma * tr.y[-1][j]) > 1e-9:
            ok = False

    # series/flow consistency for every reduced-holonomy case
    tol = 1e-12
    for cid, params, kw in [
        ("C", {"a0": 5, "b0": 3, "c0": 4}, {}),
        ("D", {"b0": 1, "f0": 1}, {}),
        ("E", {"b0": 1, "q": 0}, dict(k=1, l=0)),
        ("F", {"b0": 1, "q1": 0, "q2": 0}, {}),
        ("G", {"a0": 1, "q": 0}, {}),
        ("H", {"a0": 1, "q": 0}, {}),
    ]:
        s = solve_series(cid, params, order=20, **kw)
        st = integ.launch_state(s, 1e-3)
        t = integ.integrate(s.system(), st, 1e-2, tol, n_samples=200)
        end = dict(zip(t.functions, t.y[-1]))
        for fn, series in s.functions.items():
            value, proxy = series.eval_float(1e-2)
            if abs(end[fn] - value) > 10 * (tol + proxy):
                ok = False
    report("10 property suites (symmetry, homothety, series/flow)", ok)
