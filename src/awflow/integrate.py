"""Numerical continuation of series solutions away from the singular orbit.

A series solution is evaluated at a small t0 > 0 to launch an adaptive
Runge-Kutta 5(4) integration of the first-order system.  Residual monitors
evaluate the Einstein equations (second derivatives via a finite-difference
Jacobian chain rule), the reduced-holonomy constraint, and mirror identities
along the trajectory.
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
    values = {}
    for fn, series in sol.functions.items():
        value, proxy = series.eval_float(t0)
        # an exactly-zero top coefficient (parity) would hide the tail
        tail = max(proxy, abs(float(series.coef[-2]) * t0 ** (series.order - 1)))
        scale = max(abs(value), 1.0)
        if tail > rel_tol * scale:
            raise ValueError(
                f"t0 too large for series order: {fn} truncation proxy "
                f"{tail:.2e} exceeds {rel_tol:.0e} * {scale:.2e}"
            )
        values[fn] = value
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
        d = rhs_first_order(sys, State(dict(zip(fns, y)), t=t))
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
    d = np.array([rhs(ti, yi) for ti, yi in zip(t, y)])
    stats = {"n_samples": int(t.size), "nfev": int(res.nfev),
             "termination": termination}
    return Trajectory(system=sys, t=np.asarray(t), y=np.asarray(y), d=d,
                      termination=termination, stats=stats)


def first_order_defect(sys: SystemId, traj: Trajectory) -> float:
    """Max defect of the stored flow at segment midpoints (cubic Hermite)."""
    fns = sys.functions
    worst = 0.0
    for i in range(len(traj.t) - 1):
        h = traj.t[i + 1] - traj.t[i]
        if h <= 0:
            continue
        y0, y1 = traj.y[i], traj.y[i + 1]
        d0, d1 = traj.d[i], traj.d[i + 1]
        ym = 0.5 * (y0 + y1) + 0.125 * h * (d0 - d1)
        dm = 1.5 * (y1 - y0) / h - 0.25 * (d0 + d1)
        d = rhs_first_order(sys, State(dict(zip(fns, ym))))
        rhs_m = np.array([d[fn] for fn in fns])
        worst = max(worst, float(np.max(np.abs(dm - rhs_m))))
    return worst


def _fd_jacobian(sys: SystemId, values: dict[str, float]) -> np.ndarray:
    """Jacobian of the flow by complex-step differentiation.

    The right-hand sides are rational, so a purely imaginary step avoids the
    subtractive cancellation of real differences; near a collapsing function
    a real step cannot meet the residual budget.
    """
    fns = sys.functions
    n = len(fns)
    jac = np.empty((n, n))
    for j, fn in enumerate(fns):
        h = 1e-100 * max(1.0, abs(values[fn]))
        bumped = {name: complex(v) for name, v in values.items()}
        bumped[fn] += 1j * h
        fu = rhs_first_order(sys, State(bumped))
        for i, out in enumerate(fns):
            jac[i, j] = fu[out].imag / h
    return jac


def einstein_residual_at(sys: SystemId, values: dict[str, float],
                         lam: float = 0.0) -> list[float]:
    """Einstein residual on a first-order state, d2 by the chain rule."""
    sysf = sys.first_order()
    fns = sysf.functions
    d1 = rhs_first_order(sysf, State(dict(values)))
    jac = _fd_jacobian(sysf, values)
    vec = np.array([d1[fn] for fn in fns])
    d2v = jac @ vec
    d2 = dict(zip(fns, d2v))
    return residual_einstein(sysf.einstein(), State(dict(values)), d1, d2, lam)


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
    report: dict = {}
    per_sample = np.zeros(len(traj.t))
    for check in checks:
        vals = []
        for i in range(len(traj.t)):
            values = dict(zip(traj.functions, traj.y[i]))
            if check == "einstein_lambda0":
                v = max(abs(r) for r in einstein_residual_at(sys, values))
            elif check == "su4_constraint":
                v = max(abs(values["a1"] + values["a2"]),
                        abs(values["a1"] ** 2 - values["b"] ** 2 - values["c"] ** 2))
            else:
                fn1, fn2 = MIRRORS[check]
                v = abs(values[fn1] - values[fn2])
            vals.append(v)
        vals = np.array(vals)
        per_sample = np.maximum(per_sample, vals)
        imax = int(np.argmax(vals))
        report[check] = {"max": float(vals[imax]), "argmax_t": float(traj.t[imax])}
        if check == "su4_constraint":
            report[check]["max_sum"] = float(
                max(abs(traj.y[i][0] + traj.y[i][1]) for i in range(len(traj.t))))
            report[check]["max_quadric"] = float(max(
                abs(traj.y[i][0] ** 2 - traj.y[i][traj.functions.index("b")] ** 2
                    - traj.y[i][traj.functions.index("c")] ** 2)
                for i in range(len(traj.t))))
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
    d = np.empty_like(y)
    if smap.t_sign < 0:
        t = t[::-1]
        y = y[::-1]
    for i in range(len(t)):
        di = rhs_first_order(traj.system, State(dict(zip(fns, y[i]))))
        d[i] = [di[fn] for fn in fns]
    return Trajectory(system=traj.system, t=t, y=y, d=d,
                      termination=traj.termination,
                      stats={"transformed_by": smap.name})
