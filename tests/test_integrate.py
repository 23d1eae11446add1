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
        with pytest.raises(ValueError, match="too large"):
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
            sysid, integ.integrate(sysid, start, 1.0, 1e-8, step_cap=False))
        d_tight = integ.first_order_defect(
            sysid, integ.integrate(sysid, start, 1.0, 1e-10, step_cap=False))
        assert d_loose >= 10 * d_tight

    def test_invalid_tolerance(self, sol_c534):
        start = integ.launch_state(sol_c534, 1e-2)
        with pytest.raises(ValueError):
            integ.integrate(sol_c534.system(), start, 1.0, -1e-10)

    def test_needs_first_order_system(self, sol_c534):
        start = integ.launch_state(sol_c534, 1e-2)
        with pytest.raises(ValueError):
            integ.integrate(sol_c534.system().einstein(), start, 1.0, 1e-10)

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
    def test_capped_steps_account_for_nfev(self, traj_c534):
        # one evaluation at t0, one for the initial step, six per attempt
        stats = traj_c534.stats
        assert stats["nfev"] == 2 + 6 * (stats["n_steps"] + stats["n_rejected"])
        assert stats["h_max"] <= (1.0 - 1e-2) / 1024 * (1 + 1e-12)
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
    # scipy is imported only to locate an event's root
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
