"""Numerical continuation of series solutions away from the singular orbit.

A series solution is evaluated at a small t0 > 0 to launch an adaptive
Dormand-Prince 5(4) integration of the first-order system, a step loop on
plain floats that takes the same steps as scipy's RK45.  Residual monitors
evaluate the Einstein equations (second derivatives by the chain rule with a
complex-step Jacobian), the reduced-holonomy constraint, and mirror identities
along the trajectory.  Everything that reads a stored trajectory evaluates the
system once over all samples, on arrays of shape (samples, functions).
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .polyident import compiled
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

    The samples lie on an even grid and are read off each step's quartic
    interpolant.  With step_cap the step size is bounded by the sample
    spacing, so every sample sits inside a step no longer than that spacing;
    without it the error is purely tolerance-controlled (used by the
    convergence-order probe).
    """
    if not sys.is_first_order:
        raise ValueError("integrate needs a first-order system")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    t0 = start.t
    if not t_end > t0:
        raise ValueError(f"integration needs t_end > t0, got t0 = {t0:g}, "
                         f"t_end = {t_end:g}")
    fns = sys.functions
    if tol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=2)
    rtol = max(tol, 100 * _EPS)
    y0 = [float(start.values[fn]) for fn in fns]
    n_eval = max(n_samples, 200)
    # an identically-zero function is an invariant subspace: no collapse event
    live = [i for i, v in enumerate(y0) if abs(v) > collapse_eps]
    try:
        run = _dopri5(compiled(sys), t0, y0, t_end, rtol, tol,
                      (t_end - t0) / n_eval if step_cap else math.inf,
                      np.linspace(t0, t_end, n_eval).tolist(),
                      live, collapse_eps, blow_up)
    except ZeroDenominator as exc:
        raise ValueError(f"integration hit a collapse point: {exc}") from exc

    t, y = run.t, run.y
    if run.status == 1:
        kind, i, t_ev, y_ev = run.event
        termination = "blow_up" if kind == "blow_up" else f"function_zero:{fns[i]}"
        if t and t_ev > t[-1]:
            t.append(t_ev)
            y.append(y_ev)
    elif run.status == 0:
        termination = "reached_t_end"
    else:
        termination = "step_underflow"
    if len(t) < 2:
        raise ValueError(f"integration terminated immediately: {termination}")
    t, y = np.array(t), np.array(y)
    try:
        d = _rhs_rows(sys, y)
    except ZeroDenominator:  # an event state exactly on zero: the flow is unbounded
        if run.status != 1:
            raise
        d = np.vstack([_rhs_rows(sys, y[:-1]), np.full(len(fns), np.inf)])
    # the last sample tells a derivative blow-up from a collapse or a large state
    stats = {"n_samples": int(t.size), "nfev": run.nfev,
             "n_steps": run.n_steps, "n_rejected": run.n_rejected,
             "h_min": run.h_min, "h_max": run.h_max,
             "termination": termination, "message": _MESSAGES[run.status],
             "max_abs_y": float(np.max(np.abs(y[-1]))),
             "min_abs_y": float(np.min(np.abs(y[-1]))),
             "max_abs_dy": float(np.max(np.abs(d[-1])))}
    return Trajectory(system=sys, t=t, y=y, d=d, termination=termination,
                      stats=stats)


# Dormand-Prince 5(4) with scipy's RK45 tableau, step-size controller and
# quartic dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6).
_EPS = float(np.finfo(float).eps)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_A21 = 1/5
_A31, _A32 = 3/40, 9/40
_A41, _A42, _A43 = 44/45, -56/15, 32/9
_A51, _A52, _A53, _A54 = 19372/6561, -25360/2187, 64448/6561, -212/729
_A61, _A62, _A63, _A64, _A65 = 9017/3168, -355/33, 46732/5247, 49/176, -5103/18656
# the fifth-order weights: B2 = 0, and B equals the seventh stage's A row
_B1, _B3, _B4, _B5, _B6 = 35/384, 500/1113, 125/192, -2187/6784, 11/84
_E1, _E3, _E4, _E5, _E6, _E7 = (-71/57600, 71/16695, -71/1920, 17253/339200,
                                -22/525, 1/40)
# dense output: stage j enters with weight x * (P[j] polynomial in x), where
# x is the fraction of the step; stage 2's row is zero and left out
_P = ((1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
      (0, 131558114200/32700410799, -68118460800/10900136933,
       87487479700/32700410799),
      (0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
      (0, 127303824393/49829197408, -318862633887/49829197408,
       701980252875 / 199316789632),
      (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
      (0, 40617522/29380423, -110615467/29380423, 69997945/29380423))
_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred.",
             -1: "Required step size is less than spacing between numbers."}


def _norm(x: list[float]) -> float:
    """RMS norm."""
    return math.sqrt(sum(v * v for v in x)) / len(x) ** 0.5


@dataclass
class _Run:
    t: list[float]
    y: list[list[float]]
    status: int  # 0 reached t_end, 1 terminal event, -1 step underflow
    nfev: int
    n_steps: int
    n_rejected: int
    h_min: float
    h_max: float
    event: tuple | None  # (kind, function index, t, y) of a terminal event


def _dopri5(flow, t0: float, y0: list[float], t_end: float, rtol: float,
            atol: float, max_step: float, t_eval: list[float], live: list[int],
            collapse_eps: float, blow_up: float) -> _Run:
    """Integrate forward on plain floats, sampling at t_eval.

    Each accepted step is checked once for the terminal events: |y_i| falling
    to collapse_eps, y_i changing sign (for i in live), and max |y| rising to
    blow_up.  Only a step where one fires has its root located, by bisection
    on the step's interpolant.  h_min leaves out steps clipped to t_end.
    """
    t, y = t0, y0
    f = flow(y)
    # the initial step of Hairer, Norsett & Wanner, II.4
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _norm([v / s for v, s in zip(y, scale)])
    d1 = _norm([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    f1 = flow([v + h0 * df for v, df in zip(y, f)])
    d2 = _norm([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h_abs, t_end - t, max_step)

    ts, ys = [], []
    i_eval, n_eval = 0, len(t_eval)
    n_steps = n_rejected = 0
    h_min, h_max = math.inf, 0.0
    status = event = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs
            clipped = t_new - t_end > 0
            if clipped:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k1 = f
            k2 = flow([v + (_A21 * a) * h for v, a in zip(y, k1)])
            k3 = flow([v + (_A31 * a + _A32 * b) * h for v, a, b in zip(y, k1, k2)])
            k4 = flow([v + (_A41 * a + _A42 * b + _A43 * c) * h
                       for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = flow([v + (_A51 * a + _A52 * b + _A53 * c + _A54 * d) * h
                       for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = flow([v + (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e) * h
                       for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = flow(y_new)
            err = _norm([(_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * p)
                         * h / (atol + max(abs(v), abs(w)) * rtol)
                         for v, w, a, c, d, e, g, p
                         in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
            if err < 1:
                factor = (_MAX_FACTOR if err == 0
                          else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
            n_rejected += 1
        if status == -1:
            break
        n_steps += 1
        if not clipped:
            h_min = min(h_min, h)
        h_max = max(h_max, h)
        if t_new - t_end >= 0:
            status = 0

        def dense(tt):
            """This step's quartic interpolant at tt."""
            x = (tt - t) / h
            w1, w3, w4, w5, w6, w7 = [x * (p0 + x * (p1 + x * (p2 + x * p3)))
                                      for p0, p1, p2, p3 in _P]
            return [v + h * (w1 * a + w3 * c + w4 * d + w5 * e + w6 * g + w7 * p)
                    for v, a, c, d, e, g, p in zip(y, k1, k3, k4, k5, k6, k7)]

        fired = _fired(y, y_new, live, collapse_eps, blow_up)
        if fired:
            def root(event):
                kind, i = event
                if kind == "blow_up":
                    g = lambda tt: max(map(abs, dense(tt))) - blow_up  # noqa: E731
                elif kind == "threshold":
                    g = lambda tt: abs(dense(tt)[i]) - collapse_eps  # noqa: E731
                else:
                    g = lambda tt: dense(tt)[i]  # noqa: E731
                return _bisect(g, t, t_new)
            # the earliest root wins; a tie goes to the first event listed
            t_new, j = min((root(ev), j) for j, ev in enumerate(fired))
            event = (*fired[j], t_new, dense(t_new))
            status = 1
        while i_eval < n_eval and t_eval[i_eval] <= t_new:
            ts.append(t_eval[i_eval])
            ys.append(dense(t_eval[i_eval]))
            i_eval += 1
        t, y, f = t_new, y_new, k7
    # one evaluation at t0, one for the initial step, six per attempted step;
    # a run whose only step was clipped reports that step as h_min
    return _Run(ts, ys, status, 2 + 6 * (n_steps + n_rejected), n_steps,
                n_rejected, min(h_min, h_max), h_max, event)


def _bisect(g, lo: float, hi: float) -> float:
    """A root of g between lo and hi, where it changes sign, by bisection to
    4 eps relative; the end returned is the one where the sign has changed."""
    g_lo, g_hi = g(lo), g(hi)
    if g_lo and g_hi and (g_lo < 0) == (g_hi < 0):
        raise ValueError("the event function has the same sign at both ends")
    if not g_lo:
        return lo
    while hi - lo > 4 * _EPS * (1 + abs(lo)):
        mid = 0.5 * (lo + hi)
        if (g(mid) < 0) == (g_lo < 0):
            lo = mid
        else:
            hi = mid
    return hi


def _fired(y: list[float], y_new: list[float], live: list[int],
           collapse_eps: float, blow_up: float) -> list[tuple[str, int]]:
    """The terminal events whose functions pass their trigger within a step."""
    fired = []
    for i in live:
        a, b = y[i], y_new[i]
        if abs(a) - collapse_eps >= 0 and abs(b) - collapse_eps <= 0:
            fired.append(("threshold", i))  # asymptotic collapse
        if a <= 0 <= b or a >= 0 >= b:
            fired.append(("crossing", i))  # transversal collapse
    if max(map(abs, y)) - blow_up <= 0 and max(map(abs, y_new)) - blow_up >= 0:
        fired.append(("blow_up", -1))
    return fired


def _rhs_rows(sys: SystemId, y: np.ndarray) -> np.ndarray:
    """The first-order flow at every row of y (samples x functions), in one call."""
    fns = sys.functions
    d = rhs_first_order(sys, State(dict(zip(fns, y.T))))
    return np.column_stack([d[fn] for fn in fns])


def first_order_defect(sys: SystemId, traj: Trajectory) -> float:
    """Max defect of the stored flow at segment midpoints (cubic Hermite),
    leaving out a segment that ends at a non-finite row (a collapse on zero)."""
    h = np.diff(traj.t)
    finite = np.isfinite(traj.d).all(axis=1)
    seg = np.flatnonzero((h > 0) & finite[:-1] & finite[1:])
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
            # unbounded where the stored flow is: a collapse sample exactly on zero
            finite = np.isfinite(traj.d).all(axis=1)
            vals = np.full(len(traj.t), np.inf)
            vals[finite] = np.max(np.abs(_einstein_rows(sys, traj.y[finite])), axis=0)
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
    """Apply a symmetry map to a trajectory; t-reversal reverses sample order.
    Derivatives come from the flow, except that a non-finite row stays inf."""
    fns = traj.functions
    finite = np.isfinite(traj.d).all(axis=1)
    src = dict(smap.source)
    sgn = dict(smap.signs)
    cols = {fn: i for i, fn in enumerate(fns)}
    y = np.column_stack([sgn[fn] * traj.y[:, cols[src[fn]]] for fn in fns])
    t = smap.t_sign * traj.t
    if smap.t_sign < 0:
        t, y, finite = t[::-1], y[::-1], finite[::-1]
    d = np.full_like(y, np.inf)
    d[finite] = _rhs_rows(traj.system, y[finite])
    return Trajectory(system=traj.system, t=t, y=y, d=d,
                      termination=traj.termination,
                      stats={"transformed_by": smap.name})
