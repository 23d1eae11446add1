"""Numerical continuation of series solutions away from the singular orbit.

A series solution is evaluated at a small t0 > 0 to launch an adaptive
Dormand-Prince 8(5,3) integration (DOP853) of the first-order system, a step
loop on plain floats that takes the same steps as scipy's DOP853.  The step
size follows the tolerance alone, and the samples are read off each step's
seventh-order continuous extension.  Residual monitors evaluate the Einstein
equations (second derivatives by the chain rule, from one complex step along
the flow), the reduced-holonomy constraint, and mirror identities along the
trajectory.  Everything that reads a stored trajectory evaluates the system
once over all samples, on arrays of shape (samples, functions).
"""
from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import mul, truediv

import numpy as np

from .polyident import compiled
from .solver import SeriesSolution
from .systems import State, SystemId, ZeroDenominator, residual_einstein

COLLAPSE_EPS = 1e-12
BLOW_UP = 1e12
# largest truncation proxy launch_state accepts, relative to the state's size
LAUNCH_REL_TOL = 1e-10
# the step loop runs at rtol = atol = tol / TOL_RATIO: at the verify default
# tol = 1e-10 that keeps the defect and the monitors within their gates
TOL_RATIO = 100


class NumericalFailure(ValueError):
    """A launch or an integration that cannot proceed from the given data."""


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


def launch_state(sol: SeriesSolution, t0: float) -> State:
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
        if tail > LAUNCH_REL_TOL * scale:
            raise NumericalFailure(
                f"t0 too large for series order: {fn} truncation proxy "
                f"{tail:.2e} exceeds {LAUNCH_REL_TOL:.0e} * {scale:.2e}"
            )
    return State(values, t=t0)


def integrate(sys: SystemId, start: State, t_end: float, tol: float,
              n_samples: int = 1024, collapse_eps: float = COLLAPSE_EPS,
              blow_up: float = BLOW_UP) -> Trajectory:
    """Adaptive DOP853 continuation with collapse and blow-up events.

    The step loop runs at rtol = atol = tol / TOL_RATIO, with no bound on the
    step size.  The samples lie on an even grid and are read off each step's
    seventh-order interpolant.
    """
    if not sys.is_first_order:
        raise ValueError("integrate needs a first-order system")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol:g}")
    t0 = start.t
    if not math.isfinite(t_end):
        raise ValueError(f"integration needs a finite t_end, got {t_end:g}")
    if not t_end > t0:
        raise ValueError(f"integration needs t_end > t0, got t0 = {t0:g}, "
                         f"t_end = {t_end:g}")
    fns = sys.functions
    rtol = atol = tol / TOL_RATIO
    if rtol < 100 * _EPS:
        warnings.warn(f"tol = {tol:g} gives rtol = atol = tol / {TOL_RATIO} = {rtol:g}; "
                      f"the step loop runs at the floor rtol = 100*eps = {100 * _EPS:g}",
                      stacklevel=2)
    rtol = max(rtol, 100 * _EPS)
    y0 = [float(start.values[fn]) for fn in fns]
    n_eval = max(n_samples, 200)
    # an identically-zero function is an invariant subspace: no collapse event
    live = [i for i, v in enumerate(y0) if abs(v) > collapse_eps]
    try:
        run = _dop853(compiled(sys), t0, y0, t_end, rtol, atol,
                      np.linspace(t0, t_end, n_eval).tolist(),
                      live, collapse_eps, blow_up)
    except ZeroDenominator as exc:
        raise NumericalFailure(f"integration hit a collapse point: {exc}") from exc

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
        raise NumericalFailure(f"integration terminated immediately: {termination}")
    t, y = np.array(t), np.vstack(y)
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


# DOP853 with scipy's tableau, step-size controller and seventh-order dense
# output (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6 and II.10).
_EPS = float(np.finfo(float).eps)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
# Stage s = 1..15 adds h times the weighted sum of stages 0..s-1 (stage 0 is
# the flow at the step's start) to y and evaluates the flow there.  The flow
# is autonomous, so the stage times are left out.  Row 12 is the eighth-order
# weights B: stage 12 is the flow at the step's end.  Stages 13-15 feed only
# the dense output.
_A = (
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
)
# the error estimators: fifth order, and B less the third-order weights
_E5 = {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
       7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
       10: 0.08192320648511571, 11: -0.022355307863886294}
_BHH = {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766}
_E3 = {j: b - _BHH.get(j, 0.0) for j, b in _A[11].items()}
# A step's interpolant is y + sum F_j p_j(x) at the fraction x of the step,
# with p = x, x(1-x), x^2(1-x), x^2(1-x)^2, x^3(1-x)^2, x^3(1-x)^3, x^4(1-x)^3.
# F_0..F_2 make the cubic Hermite interpolant; F_3..F_6 are h times these
# weighted sums of all sixteen stages.
_D = (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
)
_MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
             1: "A termination event occurred.",
             -1: "Required step size is less than spacing between numbers."}


def _norm(x: list[float]) -> float:
    """RMS norm."""
    return math.sqrt(sum(v * v for v in x)) / len(x) ** 0.5


def _dot(ks: list[list[float]], row: dict[int, float]) -> list[float]:
    """The row's weighted sum of the stages ks, per component."""
    return [sum(map(mul, row.values(), col)) for col in zip(*[ks[j] for j in row])]


@dataclass
class _Run:
    t: list[float]
    y: list  # sample rows, in blocks of one step's samples
    status: int  # 0 reached t_end, 1 terminal event, -1 step underflow
    nfev: int
    n_steps: int
    n_rejected: int
    h_min: float
    h_max: float
    event: tuple | None  # (kind, function index, t, y) of a terminal event


def _dop853(flow, t0: float, y0: list[float], t_end: float, rtol: float,
            atol: float, t_eval: list[float], live: list[int],
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
        h_abs = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h_abs, t_end - t)

    ts, ys = [], []
    i_eval = 0
    n_steps = n_rejected = 0
    h_min, h_max = math.inf, 0.0
    status = event = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs
            clipped = t_new - t_end > 0
            if clipped:
                t_new = t_end
            h = h_abs = t_new - t
            ks = [f]
            for row in _A[:12]:  # the last pass leaves y_new and its flow
                y_new = [v + s * h for v, s in zip(y, _dot(ks, row))]
                ks.append(flow(y_new))
            scale = [atol + max(abs(v), abs(w)) * rtol for v, w in zip(y, y_new)]
            e5, e3 = (sum(v * v for v in map(truediv, _dot(ks, row), scale))
                      for row in (_E5, _E3))
            err = 0.0 if e5 == 0 and e3 == 0 else (
                h * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale)))
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

        # the continuous extension, its three extra stages on every accepted step
        for row in _A[12:]:
            ks.append(flow([v + s * h for v, s in zip(y, _dot(ks, row))]))
        dy = [w - v for v, w in zip(y, y_new)]
        coef = np.array([
            dy, [h * a - b for a, b in zip(f, dy)],
            [2 * b - h * (a + c) for a, b, c in zip(f, dy, ks[12])],
            *([h * s for s in _dot(ks, row)] for row in _D)])[::-1]
        y_old = np.array(y)

        def dense(tt):
            """This step's interpolant at tt, a time or a column of times."""
            x = (tt - t) / h
            q = 0.0  # Horner's rule in x and 1 - x alternately, from F_6 down
            for j, c in enumerate(coef):
                q = (q + c) * (1 - x if j % 2 else x)
            return q + y_old

        fired = _fired(y, y_new, live, collapse_eps, blow_up)
        if fired:
            def root(event):
                kind, i = event
                if kind == "blow_up":
                    g = lambda tt: np.max(np.abs(dense(tt))) - blow_up  # noqa: E731
                elif kind == "threshold":
                    g = lambda tt: abs(dense(tt)[i]) - collapse_eps  # noqa: E731
                else:
                    g = lambda tt: dense(tt)[i]  # noqa: E731
                return _bisect(g, t, t_new)
            # the earliest root wins; a tie goes to the first event listed
            t_new, j = min((root(ev), j) for j, ev in enumerate(fired))
            event = (*fired[j], t_new, dense(t_new))
            status = 1
        i_new = bisect_right(t_eval, t_new, i_eval)
        if i_new > i_eval:
            step_t = t_eval[i_eval:i_new]
            ts += step_t
            ys.append(dense(np.array(step_t)[:, None]))
            i_eval = i_new
        t, y, f = t_new, y_new, ks[12]
    # one evaluation at t0, one for the initial step, twelve per attempted
    # step and three for each accepted step's dense output; a run whose only
    # step was clipped reports that step as h_min
    return _Run(ts, ys, status, 2 + 12 * (n_steps + n_rejected) + 3 * n_steps,
                n_steps, n_rejected, min(h_min, h_max), h_max, event)


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
    return np.column_stack(compiled(sys, batch=True)(list(y.T)))


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


def _einstein_rows(sys: SystemId, y: np.ndarray) -> list[np.ndarray]:
    """Ricci-flat residuals at every row of y, with d2 = J d1 by the chain rule.

    J d1 is one complex-step call on the batch along d1: the right-hand
    sides are rational, so the imaginary part is the step times J d1 to
    rounding, free of the subtractive cancellation of a real difference,
    which near a collapsing function cannot meet the residual budget.
    """
    sysf = sys.first_order()
    fns = sysf.functions
    d1 = _rhs_rows(sysf, y)
    d2 = _rhs_rows(sysf, y + 1e-100j * d1).imag * 1e100
    return residual_einstein(sysf.einstein(), State(dict(zip(fns, y.T))),
                             dict(zip(fns, d1.T)), dict(zip(fns, d2.T)), 0.0)


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
