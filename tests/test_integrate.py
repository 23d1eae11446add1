import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from awflow import integrate as integ
from awflow.reptheory import AloffWallach
from awflow.solver import solve_series
from awflow.systems import State, SystemId, symmetry_maps


@pytest.fixture(scope="module")
def sol_c534():
    return solve_series("C", {"a0": 5, "b0": 3, "c0": 4}, order=20)


@pytest.fixture(scope="module")
def traj_c534(sol_c534):
    start = integ.launch_state(sol_c534, 1e-2)
    return integ.integrate(sol_c534.system(), start, 1.0, 1e-10)


class TestLaunch:
    def test_exceptional_flag_values(self):
        sol = solve_series("C", {"a0": 2, "b0": 1, "c0": 1}, order=20)
        st = integ.launch_state(sol, 1e-3)
        assert abs(st.values["f"] - 0.012) < 1e-6
        assert abs(st.values["a1"] - 1.999) < 1e-4
        assert abs(st.values["a2"] + 2.001) < 1e-4

    def test_sphere_values(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=20)
        st = integ.launch_state(sol, 1e-2)
        assert abs(st.values["a"] - 0.0199987) < 1e-6

    def test_zero_t0_rejected(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=10)
        with pytest.raises(ValueError, match="positive"):
            integ.launch_state(sol, 0.0)

    def test_large_t0_rejected(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=6)
        with pytest.raises(integ.NumericalFailure, match="too large"):
            integ.launch_state(sol, 0.5)


class TestIntegrate:
    def test_reaches_end_with_small_defect(self, sol_c534, traj_c534):
        assert traj_c534.termination == "reached_t_end"
        assert traj_c534.stats["n_samples"] >= 200
        defect = integ.first_order_defect(sol_c534.system(), traj_c534)
        assert defect < 1e-7

    def test_convergence_order_probe(self, sol_c534):
        sysid = sol_c534.system()
        start = integ.launch_state(sol_c534, 1e-2)
        d_loose = integ.first_order_defect(
            sysid, integ.integrate(sysid, start, 1.0, 1e-8))
        d_tight = integ.first_order_defect(
            sysid, integ.integrate(sysid, start, 1.0, 1e-10))
        assert d_loose >= 10 * d_tight

    def test_invalid_tolerance(self, sol_c534):
        start = integ.launch_state(sol_c534, 1e-2)
        with pytest.raises(ValueError):
            integ.integrate(sol_c534.system(), start, 1.0, -1e-10)

    def test_needs_first_order_system(self, sol_c534):
        start = integ.launch_state(sol_c534, 1e-2)
        with pytest.raises(ValueError):
            integ.integrate(sol_c534.system().einstein(), start, 1.0, 1e-10)

    def test_start_on_a_collapse_point_is_numerical_failure(self):
        sys = SystemId("S1", AloffWallach(2, 1))
        start = State({"a": 0.0, "b": 1.0, "c": 1.0, "f": 1.0}, t=1e-3)
        with pytest.raises(integ.NumericalFailure, match="collapse point"):
            integ.integrate(sys, start, 1.0, 1e-10)

    def test_zero_circle_function_is_invariant(self):
        # the degenerate flag branch keeps f identically zero
        sys = SystemId("S1", AloffWallach(2, 1))
        start = State({"a": 1.0, "b": 1.0, "c": 1.0, "f": 0.0}, t=1e-3)
        traj = integ.integrate(sys, start, 1.0, 1e-10)
        assert traj.termination == "reached_t_end"
        icol = traj.functions.index("f")
        assert np.max(np.abs(traj.y[:, icol])) == 0.0

    def test_collapse_event_reports_function(self):
        # the mirrored five-sphere flow crosses a = 0 at the singular orbit
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=20)
        t0 = 0.1
        vals = {fn: s.eval_float(t0)[0] for fn, s in sol.functions.items()}
        mirrored = State({"a": -vals["a"], "b": vals["c"], "c": vals["b"],
                          "f": vals["f"]}, t=-t0)
        traj = integ.integrate(sol.system(), mirrored, 0.5, 1e-10,
                               collapse_eps=1e-6)
        assert traj.termination == "function_zero:a"
        assert abs(traj.t[-1]) < 1e-3  # the collapse sits at t = 0

    def test_csv_output(self, traj_c534, tmp_path):
        path = tmp_path / "traj.csv"
        traj_c534.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,a1,a2,b,c,f,res_max"


class TestMonitors:
    def test_einstein_residual_small_on_flow(self, sol_c534, traj_c534):
        mon = integ.monitor_residuals(sol_c534.system(), traj_c534,
                                      ["einstein_lambda0"])
        assert mon["einstein_lambda0"]["max"] < 1e-6

    def test_su4_constraint_in_family(self, sol_c534, traj_c534):
        mon = integ.monitor_residuals(sol_c534.system(), traj_c534,
                                      ["su4_constraint"])
        assert mon["su4_constraint"]["max_sum"] < 1e-8
        assert mon["su4_constraint"]["max_quadric"] < 1e-6

    def test_mirror_monitor(self):
        sol = solve_series("F", {"b0": 1, "q1": 0, "q2": 0}, order=20)
        start = integ.launch_state(sol, 1e-2)
        traj = integ.integrate(sol.system(), start, 1.0, 1e-10)
        mon = integ.monitor_residuals(sol.system(), traj, ["mirror_bc"])
        assert mon["mirror_bc"]["max"] < 1e-10

    def test_incompatible_check_rejected(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=10)
        start = integ.launch_state(sol, 1e-2)
        traj = integ.integrate(sol.system(), start, 0.1, 1e-8)
        with pytest.raises(ValueError):
            integ.monitor_residuals(sol.system(), traj, ["su4_constraint"])

    def test_unknown_check_rejected(self, sol_c534, traj_c534):
        with pytest.raises(ValueError, match="unknown check"):
            integ.monitor_residuals(sol_c534.system(), traj_c534, ["bogus"])


class TestConsistency:
    @pytest.mark.parametrize("cid,params,kw", [
        ("C", {"a0": 5, "b0": 3, "c0": 4}, {}),
        ("D", {"b0": 1, "f0": 1}, {}),
        ("E", {"b0": 1, "q": 0}, dict(k=1, l=0)),
        ("F", {"b0": 1, "q1": 0, "q2": 0}, {}),
        ("G", {"a0": 1, "q": 0}, {}),
        ("H", {"a0": 1, "q": 0}, {}),
    ])
    def test_series_flow_agreement(self, cid, params, kw):
        tol = 1e-12
        sol = solve_series(cid, params, order=20, **kw)
        start = integ.launch_state(sol, 1e-3)
        traj = integ.integrate(sol.system(), start, 1e-2, tol, n_samples=200)
        assert traj.termination == "reached_t_end"
        end = dict(zip(traj.functions, traj.y[-1]))
        for fn, series in sol.functions.items():
            value, proxy = series.eval_float(1e-2)
            assert abs(end[fn] - value) <= 10 * (tol + proxy), (cid, fn)

    def test_symmetry_transport(self, sol_c534, traj_c534):
        sysid = sol_c534.system()
        base = integ.first_order_defect(sysid, traj_c534)
        floor = 1e-11  # discretization floor of the defect metric
        for smap in symmetry_maps(sysid):
            moved = integ.transform_trajectory(smap, traj_c534)
            defect = integ.first_order_defect(sysid, moved)
            assert defect <= 10 * max(base, floor), smap.name

    def test_homothety_transport(self):
        # scaling the start state and the window produces the scaled flow
        sigma = 2.0
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=20)
        sysid = sol.system()
        start = integ.launch_state(sol, 1e-3)
        traj = integ.integrate(sysid, start, 1e-2, 1e-12, n_samples=128)
        scaled_start = State({fn: sigma * v for fn, v in start.values.items()},
                             t=sigma * start.t)
        straj = integ.integrate(sysid, scaled_start, sigma * 1e-2, 1e-12,
                                n_samples=128)
        end = dict(zip(traj.functions, traj.y[-1]))
        send = dict(zip(straj.functions, straj.y[-1]))
        for fn in end:
            assert abs(send[fn] - sigma * end[fn]) < 1e-9


class TestStopReport:
    def test_step_underflow_shows_derivative_blow_up(self):
        # F with slots of opposite signs ends in finite time before t = 1:
        # the state stays moderate while its derivative explodes
        sol = solve_series("F", {"b0": 1, "q1": -1, "q2": 1}, order=20)
        traj = integ.integrate(sol.system(), integ.launch_state(sol, 1e-2), 1.0, 1e-10)
        assert traj.termination == "step_underflow"
        stats = traj.stats
        assert stats["max_abs_dy"] > 1e3 * stats["max_abs_y"]
        assert 0 < stats["min_abs_y"] <= stats["max_abs_y"]
        assert "step size" in stats["message"]

    @pytest.mark.parametrize("cid,params,t_stop", [
        ("F", {"b0": 1, "q1": -1, "q2": 1}, 0.9594),
        ("H", {"a0": 1, "q": -1}, 0.7223),
        ("C", {"a0": 2, "b0": 1, "c0": 1}, 0.7881),
    ], ids=["F1-11", "H1-1", "C211"])
    def test_finite_time_stop_at_verify_defaults(self, cid, params, t_stop):
        # the step size underflows before the state reaches the blow-up event
        sol = solve_series(cid, params, order=20)
        traj = integ.integrate(sol.system(), integ.launch_state(sol, 1e-2), 1.0, 1e-10)
        assert traj.termination == "step_underflow"
        assert abs(traj.t[-1] - t_stop) < 1e-3

    def test_reached_end_stats(self, traj_c534):
        stats = traj_c534.stats
        assert stats["max_abs_y"] == float(np.max(np.abs(traj_c534.y[-1])))
        assert stats["min_abs_y"] == float(np.min(np.abs(traj_c534.y[-1])))
        assert stats["max_abs_dy"] == float(np.max(np.abs(traj_c534.d[-1])))


class TestLaunchScale:
    def test_homothetic_copy_launches_at_same_order(self):
        # y -> s*y(t/s) scales every coefficient's term at s*t0 by s, so the
        # truncation test must pass or fail for both alike
        for params, t0 in [({"a0": 5, "b0": 3, "c0": 4}, 1e-2),
                           ({"a0": 10, "b0": 6, "c0": 8}, 2e-2)]:
            sol = solve_series("C", params, order=6)
            st = integ.launch_state(sol, t0)
            assert st.t == t0


class TestStepStats:
    def test_steps_account_for_nfev(self, traj_c534):
        # one evaluation at t0, one for the initial step, twelve per attempt
        # and three for each accepted step's dense output
        stats = traj_c534.stats
        assert stats["nfev"] == (2 + 12 * (stats["n_steps"] + stats["n_rejected"])
                                 + 3 * stats["n_steps"])
        # no cap: a step spans many samples
        assert stats["h_max"] > 10 * (1.0 - 1e-2) / 1024
        assert 0 < stats["h_min"] <= stats["h_max"]

    def test_step_underflow_shrinks_the_step(self):
        sol = solve_series("F", {"b0": 1, "q1": -1, "q2": 1}, order=20)
        traj = integ.integrate(sol.system(), integ.launch_state(sol, 1e-2), 1.0, 1e-10)
        assert traj.termination == "step_underflow"
        assert traj.stats["h_min"] < 1e-12

    def test_reversed_interval_rejected(self, sol_c534):
        start = integ.launch_state(sol_c534, 1e-2)
        for t_end in (1e-2, 5e-3):
            with pytest.raises(ValueError, match="t_end > t0"):
                integ.integrate(sol_c534.system(), start, t_end, 1e-10)

    def test_tiny_tolerance_floored_with_warning(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=20)
        start = integ.launch_state(sol, 1e-2)
        with pytest.warns(UserWarning, match="rtol"):
            traj = integ.integrate(sol.system(), start, 2e-2, 1e-17, n_samples=200)
        assert traj.termination == "reached_t_end"


def test_scipy_stays_off_the_import_path():
    # awflow never imports scipy: the step loop and the event root are in-house
    code = ("import sys; from awflow import integrate as integ; "
            "from awflow.solver import solve_series; "
            "assert 'scipy' not in sys.modules; "
            "sol = solve_series('D', {'b0': 1, 'f0': 1}, order=20); "
            "traj = integ.integrate(sol.system(), integ.launch_state(sol, 1e-2), 1.0, 1e-10); "
            "assert traj.termination == 'reached_t_end'; "
            "assert 'scipy' not in sys.modules")
    src = str(Path(integ.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _mirrored_d_start():
    # the mirrored five-sphere flow crosses a = 0 at the singular orbit
    sol = solve_series("D", {"b0": 1, "f0": 1}, order=20)
    vals = {fn: s.eval_float(0.1)[0] for fn, s in sol.functions.items()}
    return sol.system(), State({"a": -vals["a"], "b": vals["c"], "c": vals["b"],
                                "f": vals["f"]}, t=-0.1)


def test_collapse_event_state_exactly_on_zero(monkeypatch):
    # a crossing root can land on a = 0.0, where the flow is unbounded
    real = integ._dop853

    def zeroing(*args):
        run = real(*args)
        kind, i, t_ev, y_ev = run.event
        run.event = (kind, i, t_ev, [0.0 if j == i else v for j, v in enumerate(y_ev)])
        return run

    monkeypatch.setattr(integ, "_dop853", zeroing)
    sysid, start = _mirrored_d_start()
    traj = integ.integrate(sysid, start, 0.5, 1e-10, collapse_eps=1e-6)
    assert traj.termination == "function_zero:a"
    assert traj.y[-1, 0] == 0.0
    assert np.all(np.isinf(traj.d[-1])) and np.all(np.isfinite(traj.d[:-1]))
    assert traj.stats["max_abs_dy"] == np.inf
    # the row consumers leave the unbounded sample out or report it there
    head = integ.Trajectory(system=sysid, t=traj.t[:-1], y=traj.y[:-1],
                            d=traj.d[:-1], termination=traj.termination)
    assert integ.first_order_defect(sysid, traj) == integ.first_order_defect(sysid, head)
    mon = integ.monitor_residuals(sysid, traj, ["einstein_lambda0"])
    assert mon["einstein_lambda0"] == {"max": np.inf, "argmax_t": traj.t[-1]}
    integ.monitor_residuals(sysid, head, ["einstein_lambda0"])
    assert np.array_equal(traj.stats["res_max_per_sample"][:-1],
                          head.stats["res_max_per_sample"])
    smap = next(m for m in symmetry_maps(sysid) if m.t_sign < 0)
    moved = integ.transform_trajectory(smap, traj)
    assert np.all(np.isinf(moved.d[0])) and np.all(np.isfinite(moved.d[1:]))


def test_bisection_meets_its_tolerance():
    eps = np.finfo(float).eps
    for g, lo, hi, root in [(lambda x: x ** 3 - 2, 1.0, 2.0, 2 ** (1 / 3)),
                            (lambda x: np.cos(x) - x, 0.0, 1.0, 0.7390851332151607),
                            (lambda x: x - 0.25, 0.0, 1.0, 0.25),
                            (lambda x: 0.25 - x, 0.0, 1.0, 0.25)]:
        assert abs(integ._bisect(g, lo, hi) - root) <= 8 * eps
    assert integ._bisect(lambda x: x, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="same sign"):
        integ._bisect(lambda x: x * x + 1, -1.0, 1.0)


def test_events_leave_scipy_unimported():
    # a blow-up and a collapse locate their roots without scipy
    code = ("import sys; from awflow import integrate as integ; "
            "from awflow.solver import solve_series; "
            "from awflow.systems import State; "
            "sol = solve_series('H', {'a0': 1, 'q': -1}, order=20); "
            "traj = integ.integrate(sol.system(), integ.launch_state(sol, 1e-2), 1.0, "
            "1e-10, blow_up=10); "
            "assert traj.termination == 'blow_up', traj.termination; "
            "sol = solve_series('D', {'b0': 1, 'f0': 1}, order=20); "
            "v = {fn: s.eval_float(0.1)[0] for fn, s in sol.functions.items()}; "
            "start = State({'a': -v['a'], 'b': v['c'], 'c': v['b'], 'f': v['f']}, t=-0.1); "
            "traj = integ.integrate(sol.system(), start, 0.5, 1e-10, collapse_eps=1e-6); "
            "assert traj.termination == 'function_zero:a', traj.termination; "
            "assert 'scipy' not in sys.modules")
    src = str(Path(integ.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
