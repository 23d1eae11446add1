"""Numerical continuation of series solutions away from the singular orbit.

A series solution is evaluated at a small t0 > 0 to launch an adaptive
Runge-Kutta 5(4) integration of the first-order system.  Residual monitors
evaluate the Einstein equations (second derivatives by the chain rule with a
complex-step Jacobian), the reduced-holonomy constraint, and mirror identities
along the trajectory.  Everything that reads a stored trajectory evaluates the
system once over all samples, on arrays of shape (samples, functions).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .solver import SeriesSolution
from .systems import State, SystemId, ZeroDenominator, rhs_first_order, residual_einstein

COLLAPSE_EPS = 1e-12
BLOW_UP = 1e12


@dataclass
class Trajectory:
    system: SystemId
    t: np.ndarray
    y: np.ndarray  # shape (n_samples, n_functions)
    d: np.ndarray  # stored derivatives, same shape
    termination: str
    stats: dict = field(default_factory=dict)

    @property
    def functions(self) -> tuple[str, ...]:
        return self.system.functions

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            res = self.stats.get("res_max_per_sample")
            writer.writerow(["t", *self.functions, "res_max"])
            for i in range(len(self.t)):
                row = [f"{self.t[i]:.16g}"] + [f"{v:.16g}" for v in self.y[i]]
                row.append(f"{res[i]:.3e}" if res is not None else "")
                writer.writerow(row)


def launch_state(sol: SeriesSolution, t0: float, rel_tol: float = 1e-10) -> State:
    """Evaluate the series at t0 > 0 and check the truncation-error proxy."""
    if t0 <= 0:
        raise ValueError("t0 must be positive: the series is singular at t = 0")
    values, tails = {}, {}
    for fn, series in sol.functions.items():
        values[fn], proxy = series.eval_float(t0)
        # an exactly-zero top coefficient (parity) would hide the tail
        tails[fn] = max(proxy, abs(float(series.coef[-2]) * t0 ** (series.order - 1)))
    # the state's own size sets the scale, so y -> s*y(t/s) launches alike
    scale = max(abs(v) for v in values.values())
    for fn, tail in tails.items():
        if tail > rel_tol * scale:
            raise ValueError(
                f"t0 too large for series order: {fn} truncation proxy "
                f"{tail:.2e} exceeds {rel_tol:.0e} * {scale:.2e}"
            )
    return State(values, t=t0)


def integrate(sys: SystemId, start: State, t_end: float, tol: float,
              n_samples: int = 1024, collapse_eps: float = COLLAPSE_EPS,
              blow_up: float = BLOW_UP, step_cap: bool = True) -> Trajectory:
    """Adaptive RK5(4) continuation with collapse and blow-up events.

    With step_cap the step size is bounded by the sample spacing, so every
    sample is an actual Runge-Kutta node and the stored derivatives are
    step-consistent; without it the error is purely tolerance-controlled
    (used by the convergence-order probe).
    """
    if not sys.is_first_order:
        raise ValueError("integrate needs a first-order system")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    fns = sys.functions

    def rhs(t, y):
        # one state per call: Python floats beat length-1 arrays here
        d = rhs_first_order(sys, State(dict(zip(fns, y.tolist())), t=t))
        return [d[fn] for fn in fns]

    events = []
    for i, fn in enumerate(fns):
        if abs(start.values[fn]) <= collapse_eps:
            continue  # an identically-zero function is an invariant subspace

        def make_threshold(idx):
            # asymptotic collapse: the magnitude decays through the threshold
            def ev(t, y):
                return abs(y[idx]) - collapse_eps
            ev.terminal = True
            ev.direction = -1
            return ev

        def make_crossing(idx):
            # transversal collapse: the value changes sign within one step
            def ev(t, y):
                return y[idx]
            ev.terminal = True
            ev.direction = 0
            return ev

        events.append((fn, make_threshold(i)))
        events.append((fn, make_crossing(i)))

    def blow(t, y):
        return float(np.max(np.abs(y))) - blow_up
    blow.terminal = True
    blow.direction = 1
    events.append(("blow_up", blow))

    t_eval = np.linspace(start.t, t_end, max(n_samples, 200))
    max_step = (t_end - start.t) / max(n_samples, 200) if step_cap else np.inf
    try:
        res = solve_ivp(rhs, (start.t, t_end), [start.values[fn] for fn in fns],
                        method="RK45", rtol=tol, atol=tol, t_eval=t_eval,
                        max_step=max_step,
                        events=[ev for _, ev in events], dense_output=False)
    except ZeroDenominator as exc:
        raise ValueError(f"integration hit a collapse point: {exc}") from exc

    if res.status == 1:
        hit = next(name for (name, _), te in zip(events, res.t_events) if len(te))
        termination = "blow_up" if hit == "blow_up" else f"function_zero:{hit}"
        t_ev = next(te[0] for te in res.t_events if len(te))
        y_ev = next(ye[0] for ye in res.y_events if len(ye))
        if res.t.size and t_ev > res.t[-1]:
            t = np.append(res.t, t_ev)
            y = np.vstack([res.y.T, y_ev])
        elif res.t.size:
            t, y = res.t, res.y.T
        else:
            t, y = np.array([start.t, t_ev]), np.array([
                [start.values[fn] for fn in fns], y_ev])
    elif res.status == 0:
        termination = "reached_t_end"
        t, y = res.t, res.y.T
    else:
        termination = "step_underflow"
        t, y = res.t, res.y.T
    if t.size < 2:
        raise ValueError(f"integration terminated immediately: {termination}")
    d = _rhs_rows(sys, y)
    # the last sample tells a derivative blow-up from a collapse or a large state
    stats = {"n_samples": int(t.size), "nfev": int(res.nfev),
             "termination": termination, "message": res.message,
             "max_abs_y": float(np.max(np.abs(y[-1]))),
             "min_abs_y": float(np.min(np.abs(y[-1]))),
             "max_abs_dy": float(np.max(np.abs(d[-1])))}
    return Trajectory(system=sys, t=np.asarray(t), y=np.asarray(y), d=d,
                      termination=termination, stats=stats)


def _rhs_rows(sys: SystemId, y: np.ndarray) -> np.ndarray:
    """The first-order flow at every row of y (samples x functions), in one call."""
    fns = sys.functions
    d = rhs_first_order(sys, State(dict(zip(fns, y.T))))
    return np.column_stack([d[fn] for fn in fns])


def first_order_defect(sys: SystemId, traj: Trajectory) -> float:
    """Max defect of the stored flow at segment midpoints (cubic Hermite)."""
    h = np.diff(traj.t)
    seg = np.flatnonzero(h > 0)
    h = h[seg, None]
    y0, y1 = traj.y[seg], traj.y[seg + 1]
    d0, d1 = traj.d[seg], traj.d[seg + 1]
    ym = 0.5 * (y0 + y1) + 0.125 * h * (d0 - d1)
    dm = 1.5 * (y1 - y0) / h - 0.25 * (d0 + d1)
    return float(np.max(np.abs(dm - _rhs_rows(sys, ym)), initial=0.0))


def _einstein_rows(sys: SystemId, y: np.ndarray, lam: float = 0.0) -> list[np.ndarray]:
    """Einstein residuals at every row of y, with d2 = J d1 by the chain rule.

    Column j of the flow's Jacobian J is one complex-step call on the batch:
    the right-hand sides are rational, so a purely imaginary step avoids the
    subtractive cancellation of real differences, which near a collapsing
    function cannot meet the residual budget.
    """
    sysf = sys.first_order()
    fns = sysf.functions
    d1 = _rhs_rows(sysf, y)
    d2 = np.zeros_like(d1)
    for j in range(len(fns)):
        h = 1e-100 * np.maximum(1.0, np.abs(y[:, j]))
        bumped = y.astype(complex)
        bumped[:, j] += 1j * h
        d2 += _rhs_rows(sysf, bumped).imag / h[:, None] * d1[:, j, None]
    return residual_einstein(sysf.einstein(), State(dict(zip(fns, y.T))),
                             dict(zip(fns, d1.T)), dict(zip(fns, d2.T)), lam)


def einstein_residual_at(sys: SystemId, values: dict[str, float],
                         lam: float = 0.0) -> list[float]:
    """Einstein residual on a first-order state, d2 by the chain rule."""
    y = np.array([[values[fn] for fn in sys.first_order().functions]], dtype=float)
    return [float(r[0]) for r in _einstein_rows(sys, y, lam)]


#: Mirror monitors and the pair of functions each one compares.
MIRRORS = {"mirror_bc": ("b", "c"), "mirror_a12": ("a1", "a2")}
CHECKS = ("einstein_lambda0", "su4_constraint", *MIRRORS)


def monitor_residuals(sys: SystemId, traj: Trajectory, checks) -> dict:
    """Per-sample evaluation of the requested monitors; max and arg-max t."""
    checks = list(checks)
    for check in checks:
        if check not in CHECKS:
            raise ValueError(f"unknown check {check!r}; available: {CHECKS}")
        if check in ("su4_constraint", "mirror_a12") and sys.first_order().kind != "S2":
            raise ValueError(f"check {check!r} needs the exceptional-orbit system")
    col = dict(zip(traj.functions, traj.y.T))
    report: dict = {}
    per_sample = np.zeros(len(traj.t))
    for check in checks:
        extra = {}
        if check == "einstein_lambda0":
            vals = np.max(np.abs(_einstein_rows(sys, traj.y)), axis=0)
        elif check == "su4_constraint":
            s = np.abs(col["a1"] + col["a2"])
            q = np.abs(col["a1"] ** 2 - col["b"] ** 2 - col["c"] ** 2)
            vals = np.maximum(s, q)
            extra = {"max_sum": float(s.max()), "max_quadric": float(q.max())}
        else:
            fn1, fn2 = MIRRORS[check]
            vals = np.abs(col[fn1] - col[fn2])
        per_sample = np.maximum(per_sample, vals)
        imax = int(np.argmax(vals))
        report[check] = {"max": float(vals[imax]), "argmax_t": float(traj.t[imax]),
                         **extra}
    traj.stats["res_max_per_sample"] = per_sample
    return report


def transform_trajectory(smap, traj: Trajectory) -> Trajectory:
    """Apply a symmetry map to a trajectory; t-reversal reverses sample order."""
    fns = traj.functions
    src = dict(smap.source)
    sgn = dict(smap.signs)
    cols = {fn: i for i, fn in enumerate(fns)}
    y = np.column_stack([sgn[fn] * traj.y[:, cols[src[fn]]] for fn in fns])
    t = smap.t_sign * traj.t
    if smap.t_sign < 0:
        t = t[::-1]
        y = y[::-1]
    return Trajectory(system=traj.system, t=t, y=y, d=_rhs_rows(traj.system, y),
                      termination=traj.termination,
                      stats={"transformed_by": smap.name})
