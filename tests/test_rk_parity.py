"""The in-house DOP853 loop of `integrate` against scipy's DOP853 and RK45.

The oracle is `solve_ivp(method="DOP853")` at the settings `integrate` runs
with: rtol = atol = tol / TOL_RATIO, no bound on the step, samples on an even
grid read from the dense output (built on every accepted step), and terminal
events for collapse and blow-up.  Both must take the same steps (equal
`nfev`), stop the same way at the same time and sample the same grid.

Sample values agree to rounding.  Neither side rounds exactly as the other
(scipy's sums go through BLAS), and near a blow-up or a collapse the flow
amplifies rounding: there, a one-ulp change in the right-hand side moves
scipy's own trajectory by up to 2e-8 (7e-6 at the collapse).  So each
sample must lie within 1e-12 of max(1, |y|), widened by ten times the
spread that a change of one ulp either way in the flow causes in scipy's
trajectory up to that sample.

Against scipy's RK45, run with the arguments the former Dormand-Prince 5(4)
loop used (rtol = atol = tol, the step capped by the grid spacing or not),
both must stop the same way and sample the same grid, and converge to the
same flow.  Each side's error is estimated against a run of its own at a
tighter tolerance (RK45 at tol / 1000, `integrate` at tol / 10), and every
sample may differ by the requested tol, plus twice the sum of the two
estimates, plus ten times the rounding spread above; event times likewise.
A wrong step in either loop leaves it converging to another trajectory.
"""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from awflow import integrate as integ
from awflow.solver import solve_series
from awflow.systems import State, rhs_first_order

TOL = 1e-10
ULP = 2.0 ** -52


def oracle(sys, start, t_end, tol, n_samples=1024, collapse_eps=integ.COLLAPSE_EPS,
           blow_up=integ.BLOW_UP, bump=0.0, method="DOP853", step_cap=False):
    """scipy at integrate's settings, or RK45 at the former loop's arguments.

    DOP853 runs at rtol = atol = tol / TOL_RATIO; RK45 runs at rtol = atol =
    tol with the step capped by the grid spacing if `step_cap`.  `bump`
    scales the flow.
    """
    fns = sys.functions

    def rhs(t, y):
        d = rhs_first_order(sys, State(dict(zip(fns, y.tolist())), t=t))
        return [d[fn] * (1 + bump) for fn in fns]

    events = []
    for i, fn in enumerate(fns):
        if abs(start.values[fn]) <= collapse_eps:
            continue

        def threshold(t, y, i=i):
            return abs(y[i]) - collapse_eps
        threshold.terminal, threshold.direction = True, -1

        def crossing(t, y, i=i):
            return y[i]
        crossing.terminal, crossing.direction = True, 0
        events += [(fn, threshold), (fn, crossing)]

    def blow(t, y):
        return float(np.max(np.abs(y))) - blow_up
    blow.terminal, blow.direction = True, 1
    events.append(("blow_up", blow))

    n = max(n_samples, 200)
    rtol = tol / integ.TOL_RATIO if method == "DOP853" else tol
    res = solve_ivp(rhs, (start.t, t_end), [start.values[fn] for fn in fns],
                    method=method, rtol=rtol, atol=rtol,
                    t_eval=np.linspace(start.t, t_end, n), dense_output=True,
                    max_step=(t_end - start.t) / n if step_cap else np.inf,
                    events=[ev for _, ev in events])
    t, y = res.t, res.y.T
    t_event = None
    if res.status == 1:
        name, t_event, y_event = next((name, te[0], ye[0]) for (name, _), te, ye
                                      in zip(events, res.t_events, res.y_events)
                                      if len(te))
        termination = "blow_up" if name == "blow_up" else f"function_zero:{name}"
        if t_event > t[-1]:
            t, y = np.append(t, t_event), np.vstack([y, y_event])
    elif res.status == 0:
        termination = "reached_t_end"
    else:
        termination = "step_underflow"
    return {"t": t, "y": y, "termination": termination, "nfev": res.nfev,
            "t_event": t_event, "message": res.message}


def _launch(cid, params, **kw):
    sol = solve_series(cid, params, order=20, **kw)
    return sol.system(), integ.launch_state(sol, 1e-2)


def _mirrored_d():
    # the mirrored five-sphere flow crosses a = 0 at the singular orbit
    sol = solve_series("D", {"b0": 1, "f0": 1}, order=20)
    vals = {fn: s.eval_float(0.1)[0] for fn, s in sol.functions.items()}
    return sol.system(), State({"a": -vals["a"], "b": vals["c"], "c": vals["b"],
                                "f": vals["f"]}, t=-0.1)


F_OPPOSITE = ("F", {"b0": 1, "q1": -1, "q2": 1})
H_NEGATIVE = ("H", {"a0": 1, "q": -1})

#: id -> (start builder, t_end, integrate options, termination, event time)
PATHS = {
    "C534": (lambda: _launch("C", {"a0": 5, "b0": 3, "c0": 4}), 1.0, {},
             "reached_t_end", None),
    "D11": (lambda: _launch("D", {"b0": 1, "f0": 1}), 1.0, {},
            "reached_t_end", None),
    "E74": (lambda: _launch("E", {"b0": 2, "q": 0}, k=7, l=4), 1.0, {},
            "reached_t_end", None),
    "G1-1": (lambda: _launch("G", {"a0": 1, "q": -1}), 1.0, {},
             "reached_t_end", None),
    "mirrored-D": (_mirrored_d, 0.5, {"collapse_eps": 1e-6},
                   "function_zero:a", 0.0),
    "H-blow-up": (lambda: _launch(*H_NEGATIVE), 1.0, {"blow_up": 10},
                  "blow_up", 0.7121),
    "F-blow-up": (lambda: _launch(*F_OPPOSITE), 1.0, {"blow_up": 10},
                  "blow_up", 0.9591),
    "F-underflow": (lambda: _launch(*F_OPPOSITE), 1.0, {},
                    "step_underflow", None),
}


def _deviation(other, base, scale, n):
    """Per-sample max relative distance of `other` from `base` on the first n
    samples, running maximum, held past the end of `other`."""
    m = min(len(other), n)
    dev = np.zeros(n)
    dev[:m] = np.max(np.abs(other[:m] - base[:m]) / scale[:m], axis=1)
    dev[m:] = dev[m - 1]
    return np.maximum.accumulate(dev)


def _spread(sys, start, t_end, ref, scale, opts, **method):
    """How far a one-ulp change in the flow moves scipy's trajectory."""
    return np.maximum.reduce([
        _deviation(oracle(sys, start, t_end, TOL, bump=bump, **method, **opts)["y"],
                   ref["y"], scale, len(scale))
        for bump in (ULP, -ULP)])


def _grid(y, has_event):
    """The samples on the even grid, without an event state."""
    return y[:len(y) - has_event]


@pytest.mark.parametrize("path", list(PATHS))
def test_parity_with_scipy_dop853(path):
    build, t_end, opts, termination, t_event = PATHS[path]
    sys, start = build()
    ours = integ.integrate(sys, start, t_end, TOL, **opts)
    ref = oracle(sys, start, t_end, TOL, **opts)

    assert ours.termination == ref["termination"] == termination
    assert ours.stats["nfev"] == ref["nfev"]
    assert ours.stats["message"] == ref["message"]
    assert ours.t.shape == ref["t"].shape
    if ref["t_event"] is None:
        assert np.array_equal(ours.t, ref["t"])
    else:
        assert np.array_equal(ours.t[:-1], ref["t"][:-1])
        assert abs(ours.t[-1] - ref["t_event"]) < 1e-10
        assert abs(ours.t[-1] - t_event) < 1e-3

    scale = np.maximum(1.0, np.abs(ref["y"]))
    err = np.max(np.abs(ours.y - ref["y"]) / scale, axis=1)
    spread = _spread(sys, start, t_end, ref, scale, opts)
    worst = int(np.argmax(err - 10 * spread))
    assert err[worst] <= 1e-12 + 10 * spread[worst], (worst, err[worst], spread[worst])


@pytest.mark.parametrize("step_cap", [True, False], ids=["cap", "nocap"])
@pytest.mark.parametrize("path", list(PATHS))
def test_parity_with_scipy_rk45(path, step_cap):
    build, t_end, opts, termination, t_event = PATHS[path]
    sys, start = build()
    rk45 = {"method": "RK45", "step_cap": step_cap}
    ours = integ.integrate(sys, start, t_end, TOL, **opts)
    ours_tight = integ.integrate(sys, start, t_end, TOL / 10, **opts)
    ref = oracle(sys, start, t_end, TOL, **rk45, **opts)
    ref_tight = oracle(sys, start, t_end, TOL / 1000, **rk45, **opts)

    assert ours.termination == ref["termination"] == termination
    assert ours.t.shape == ref["t"].shape
    t, y = (_grid(a, ref["t_event"] is not None) for a in (ref["t"], ref["y"]))
    assert np.array_equal(ours.t[:len(t)], t)
    if ref["t_event"] is not None:
        assert ref_tight["t_event"] is not None
        assert abs(ours.t[-1] - ref["t_event"]) <= TOL + 2 * (
            abs(ref["t_event"] - ref_tight["t_event"]) + abs(ours.t[-1] - ours_tight.t[-1]))

    # samples on the grid; an event state is checked through its time
    scale = np.maximum(1.0, np.abs(y))
    err = np.max(np.abs(ours.y[:len(t)] - y) / scale, axis=1)
    ref_err = _deviation(_grid(ref_tight["y"], ref_tight["t_event"] is not None),
                         y, scale, len(t))
    ours_err = _deviation(
        _grid(ours_tight.y, ours_tight.termination.startswith(("blow_up", "function_zero"))),
        ours.y, scale, len(t))
    spread = _spread(sys, start, t_end, ref, scale, opts, **rk45)
    bound = TOL + 2 * (ref_err + ours_err) + 10 * spread
    worst = int(np.argmax(err - bound))
    assert err[worst] <= bound[worst], (worst, err[worst], ref_err[worst],
                                        ours_err[worst], spread[worst])
