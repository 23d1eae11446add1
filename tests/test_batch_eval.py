"""Trajectory-wide evaluation against a per-sample reference.

The monitors, the midpoint defect and symmetry transport evaluate the flow
once over all samples.  The reference here walks the samples one at a time
with scalar `rhs_first_order` calls and, for the Einstein monitor, a
per-sample complex-step Jacobian.

The Einstein residual of the first-order flow vanishes identically, so at
any state it is rounding noise: its terms cancel, and only an agreement
relative to the size of those terms (and no arg-max) is meaningful.  The
algebraic monitors and the defect are compared on a perturbed copy of each
trajectory as well, where they are far from zero.
"""
import numpy as np
import pytest

from awflow import integrate as integ
from awflow.solver import solve_series
from awflow.systems import (State, SystemId, ZeroDenominator, residual_einstein,
                            rhs_first_order, symmetry_maps)

RTOL = 1e-12

#: Case, parameters and the algebraic monitors compared (D does not keep b = c,
#: so its mirror monitor reads far from zero even on the true trajectory).
POINTS = {
    "C": ("C", {"a0": 5, "b0": 3, "c0": 4}, ["su4_constraint"]),
    "D": ("D", {"b0": 1, "f0": 1}, ["mirror_bc"]),
    "G": ("G", {"a0": 1, "q": -1}, ["mirror_a12"]),
}


@pytest.fixture(scope="module", params=sorted(POINTS))
def point(request):
    case_id, params, checks = POINTS[request.param]
    sol = solve_series(case_id, params, order=7)
    sysid = sol.system()
    traj = integ.integrate(sysid, integ.launch_state(sol, 1e-2), 1.0, 1e-10,
                           n_samples=256)
    return sysid, traj, checks


def _rhs(sysid, row):
    d = rhs_first_order(sysid, State(dict(zip(sysid.functions, row))))
    return [d[fn] for fn in sysid.functions]


def _perturbed(sysid, traj):
    """The trajectory moved off the flow by a smooth relative wobble that
    differs per function, with derivatives recomputed sample by sample."""
    phase = np.arange(len(sysid.functions))
    y = traj.y * (1 + 1e-2 * np.cos(3 * traj.t[:, None] + phase))
    d = np.array([_rhs(sysid, row) for row in y.tolist()])
    return integ.Trajectory(system=sysid, t=traj.t, y=y, d=d,
                            termination=traj.termination)


def _einstein_ref(sysid, row):
    """Max |residual| at one state, and the size of the terms that cancel in it."""
    fns = sysid.functions
    values = dict(zip(fns, row))
    d1 = rhs_first_order(sysid, State(values))
    jac = np.empty((len(fns), len(fns)))
    for j, fn in enumerate(fns):
        h = 1e-100 * max(1.0, abs(values[fn]))
        bumped = {name: complex(v) for name, v in values.items()}
        bumped[fn] += 1j * h
        fu = rhs_first_order(sysid, State(bumped))
        jac[:, j] = [fu[out].imag / h for out in fns]
    d2 = dict(zip(fns, jac @ np.array([d1[fn] for fn in fns])))
    res = residual_einstein(sysid.einstein(), State(values), d1, d2, 0.0)
    terms = max(max(1 / values[fn] ** 2, (d1[fn] / values[fn]) ** 2,
                    abs(d2[fn] / values[fn])) for fn in fns)
    return max(abs(r) for r in res), terms


def _monitor_ref(sysid, traj, check):
    vals = []
    for row in traj.y.tolist():
        v = dict(zip(sysid.functions, row))
        if check == "su4_constraint":
            # x * x, not x ** 2: libm pow is not always correctly rounded
            a1, b, c = v["a1"], v["b"], v["c"]
            vals.append(max(abs(a1 + v["a2"]), abs(a1 * a1 - b * b - c * c)))
        else:
            fn1, fn2 = integ.MIRRORS[check]
            vals.append(abs(v[fn1] - v[fn2]))
    return np.array(vals)


def _defect_ref(sysid, traj):
    worst = 0.0
    for i in range(len(traj.t) - 1):
        h = traj.t[i + 1] - traj.t[i]
        y0, y1, d0, d1 = traj.y[i], traj.y[i + 1], traj.d[i], traj.d[i + 1]
        ym = 0.5 * (y0 + y1) + 0.125 * h * (d0 - d1)
        dm = 1.5 * (y1 - y0) / h - 0.25 * (d0 + d1)
        worst = max(worst, float(np.max(np.abs(dm - _rhs(sysid, ym.tolist())))))
    return worst


def test_einstein_monitor_matches_per_sample_reference(point):
    sysid, traj, _ = point
    report = integ.monitor_residuals(sysid, traj, ["einstein_lambda0"])
    ref, terms = np.array([_einstein_ref(sysid, row) for row in traj.y.tolist()]).T
    got = traj.stats["res_max_per_sample"]
    assert np.all(np.abs(got - ref) <= RTOL * terms)
    assert report["einstein_lambda0"]["max"] == got.max()
    assert report["einstein_lambda0"]["max"] < 1e-6


def test_algebraic_monitors_match_per_sample_reference(point):
    sysid, traj, checks = point
    for tr in (traj, _perturbed(sysid, traj)):
        report = integ.monitor_residuals(sysid, tr, checks)
        per_sample = np.zeros(len(tr.t))
        for check in checks:
            ref = _monitor_ref(sysid, tr, check)
            per_sample = np.maximum(per_sample, ref)
            assert report[check]["max"] == pytest.approx(ref.max(), rel=RTOL)
            assert report[check]["argmax_t"] == tr.t[int(np.argmax(ref))]
        np.testing.assert_allclose(tr.stats["res_max_per_sample"], per_sample,
                                   rtol=RTOL)


def test_defect_matches_per_sample_reference(point):
    sysid, traj, _ = point
    for tr in (traj, _perturbed(sysid, traj)):
        assert integ.first_order_defect(sysid, tr) == pytest.approx(
            _defect_ref(sysid, tr), rel=RTOL)


def test_stored_and_transported_derivatives_match_reference(point):
    sysid, traj, _ = point
    ref = np.array([_rhs(sysid, row) for row in traj.y.tolist()])
    np.testing.assert_allclose(traj.d, ref, rtol=RTOL)
    for smap in symmetry_maps(sysid):
        moved = integ.transform_trajectory(smap, traj)
        ref = np.array([_rhs(sysid, row) for row in moved.y.tolist()])
        np.testing.assert_allclose(moved.d, ref, rtol=RTOL)
        assert integ.first_order_defect(sysid, moved) == pytest.approx(
            _defect_ref(sysid, moved), rel=RTOL)


def test_one_zero_in_a_batch_raises():
    sysid = SystemId("S2")
    y = np.ones((4, len(sysid.functions)))
    y[2, sysid.functions.index("b")] = 0.0
    columns = State(dict(zip(sysid.functions, y.T)))
    with pytest.raises(ZeroDenominator) as err:
        rhs_first_order(sysid, columns)
    assert err.value.name == "b"
    with pytest.raises(ZeroDenominator):
        residual_einstein(sysid.einstein(), columns, columns.values, columns.values, 0.0)
    traj = integ.Trajectory(system=sysid, t=np.linspace(0.1, 0.4, 4), y=y,
                            d=np.ones_like(y), termination="reached_t_end")
    with pytest.raises(ZeroDenominator):
        integ.monitor_residuals(sysid, traj, ["einstein_lambda0"])
    with pytest.raises(ZeroDenominator):
        integ.transform_trajectory(symmetry_maps(sysid)[0], traj)
    y[2, sysid.functions.index("b")] = 1.0
    rhs_first_order(sysid, State(dict(zip(sysid.functions, y.T))))  # no zero left
