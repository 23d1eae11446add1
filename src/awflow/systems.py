"""The four ODE systems and their symmetry maps.

S1/S2 are the first-order holonomy-reduction systems for a generic and for
the exceptional (1,1) principal orbit; E1/E2 are the corresponding
second-order Einstein systems.  Evaluators are stateless plain arithmetic, so
a state holding one numpy array per function is evaluated at every sample in
one call; residuals take derivatives as explicit inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reptheory import AloffWallach

S1_FUNCTIONS = ("a", "b", "c", "f")
S2_FUNCTIONS = ("a1", "a2", "b", "c", "f")


class ZeroDenominator(ValueError):
    """A metric coefficient appearing in a denominator vanished."""

    def __init__(self, name: str):
        super().__init__(f"function {name!r} vanished in a denominator "
                         "(orbit degeneration or collapse point)")
        self.name = name


@dataclass(frozen=True)
class SystemId:
    kind: str  # "S1" | "S2" | "E1" | "E2"
    aw: AloffWallach | None = None

    def __post_init__(self):
        if self.kind not in ("S1", "S2", "E1", "E2"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        if self.kind in ("S1", "E1") and self.aw is None:
            raise ValueError(f"{self.kind} requires orbit parameters (k, l)")
        if self.kind in ("S2", "E2"):
            if self.aw is None:
                object.__setattr__(self, "aw", AloffWallach(1, 1))
            elif (self.aw.k, self.aw.l) != (1, 1):
                raise ValueError(f"{self.kind} is specific to (k, l) = (1, 1)")

    @property
    def functions(self) -> tuple[str, ...]:
        return S1_FUNCTIONS if self.kind in ("S1", "E1") else S2_FUNCTIONS

    @property
    def is_first_order(self) -> bool:
        return self.kind in ("S1", "S2")

    def first_order(self) -> "SystemId":
        return SystemId("S1" if self.kind in ("S1", "E1") else "S2", self.aw)

    def einstein(self) -> "SystemId":
        return SystemId("E1" if self.kind in ("S1", "E1") else "E2", self.aw)


@dataclass
class State:
    values: dict[str, float]
    t: float = 0.0


def _require_nonzero(values: dict[str, float], names) -> None:
    """Raise ZeroDenominator if a named value, or any entry of an array, is zero."""
    for name in names:
        v = values[name]
        if not (v.all() if isinstance(v, np.ndarray) else v):
            raise ZeroDenominator(name)


def rhs_first_order(sys: SystemId, st: State) -> dict[str, float]:
    """Right-hand side of the first-order holonomy system at a state."""
    if not sys.is_first_order:
        raise ValueError("rhs_first_order needs a first-order system")
    v = st.values
    if sys.kind == "S1":
        _require_nonzero(v, ("a", "b", "c"))
        k, l = sys.aw.k, sys.aw.l
        twod = 2.0 * sys.aw.delta
        a, b, c, f = v["a"], v["b"], v["c"], v["f"]
        abc = a * b * c
        return {
            "a": a * ((b * b + c * c - a * a) / abc + (-k - l) / twod * f / (a * a)),
            "b": b * ((c * c + a * a - b * b) / abc + l / twod * f / (b * b)),
            "c": c * ((a * a + b * b - c * c) / abc + k / twod * f / (c * c)),
            "f": f * (-(-k - l) / twod * f / (a * a)
                      - l / twod * f / (b * b)
                      - k / twod * f / (c * c)),
        }
    _require_nonzero(v, ("a1", "a2", "b", "c", "f"))
    a1, a2, b, c, f = v["a1"], v["a2"], v["b"], v["c"], v["f"]
    return {
        "a1": a1 * ((b * b + c * c - a1 * a1) / (a1 * b * c)
                    + 3.0 * (a1 * a1 - a2 * a2) / (a1 * a2 * f)
                    - f / (3.0 * a1 * a2)),
        "a2": a2 * ((b * b + c * c - a2 * a2) / (a2 * b * c)
                    + 3.0 * (a2 * a2 - a1 * a1) / (a1 * a2 * f)
                    - f / (3.0 * a1 * a2)),
        "b": b * (0.5 * (a1 * a1 + c * c - b * b) / (a1 * b * c)
                  + 0.5 * (a2 * a2 + c * c - b * b) / (a2 * b * c)
                  + f / (6.0 * b * b)),
        "c": c * (0.5 * (a1 * a1 + b * b - c * c) / (a1 * b * c)
                  + 0.5 * (a2 * a2 + b * b - c * c) / (a2 * b * c)
                  + f / (6.0 * c * c)),
        "f": f * (-3.0 * (a1 - a2) ** 2 / (a1 * a2 * f)
                  + f / (3.0 * a1 * a2)
                  - f / (6.0 * b * b)
                  - f / (6.0 * c * c)),
    }


def residual_einstein(sys: SystemId, st: State, d1: dict[str, float],
                      d2: dict[str, float], lam: float) -> list[float]:
    """LHS - lambda of each displayed Einstein equation (trace included)."""
    if sys.is_first_order:
        raise ValueError("residual_einstein needs an Einstein system (E1/E2)")
    v = st.values
    if sys.kind == "E1":
        _require_nonzero(v, ("a", "b", "c", "f"))
        k, l = sys.aw.k, sys.aw.l
        dd = float(sys.aw.delta) ** 2
        a, b, c, f = v["a"], v["b"], v["c"], v["f"]
        da, db, dc, df = d1["a"], d1["b"], d1["c"], d1["f"]
        S = 2 * da / a + 2 * db / b + 2 * dc / c + df / f
        abc2 = a * a * b * b * c * c
        res = [
            -d2["a"] / a + (da / a) ** 2 - da / a * S + 6 / (a * a)
            - 0.5 * (k + l) ** 2 / dd * f * f / a ** 4
            + (a ** 4 - b ** 4 - c ** 4) / abc2 - lam,
            -d2["b"] / b + (db / b) ** 2 - db / b * S + 6 / (b * b)
            - 0.5 * l ** 2 / dd * f * f / b ** 4
            + (b ** 4 - a ** 4 - c ** 4) / abc2 - lam,
            -d2["c"] / c + (dc / c) ** 2 - dc / c * S + 6 / (c * c)
            - 0.5 * k ** 2 / dd * f * f / c ** 4
            + (c ** 4 - a ** 4 - b ** 4) / abc2 - lam,
            -d2["f"] / f + (df / f) ** 2 - df / f * S
            + 0.5 * (k + l) ** 2 / dd * f * f / a ** 4
            + 0.5 * l ** 2 / dd * f * f / b ** 4
            + 0.5 * k ** 2 / dd * f * f / c ** 4 - lam,
            -2 * d2["a"] / a - 2 * d2["b"] / b - 2 * d2["c"] / c - d2["f"] / f - lam,
        ]
        return res
    _require_nonzero(v, ("a1", "a2", "b", "c", "f"))
    a1, a2, b, c, f = v["a1"], v["a2"], v["b"], v["c"], v["f"]
    d_a1, d_a2, db, dc, df = d1["a1"], d1["a2"], d1["b"], d1["c"], d1["f"]
    S = d_a1 / a1 + d_a2 / a2 + 2 * db / b + 2 * dc / c + df / f
    res = [
        -d2["a1"] / a1 + (d_a1 / a1) ** 2 - d_a1 / a1 * S + 6 / (a1 * a1)
        - 2.0 / 9.0 * f * f / (a1 * a1 * a2 * a2)
        + 18 * (a1 ** 4 - a2 ** 4) / (a1 * a1 * a2 * a2 * f * f)
        + (a1 ** 4 - b ** 4 - c ** 4) / (a1 * a1 * b * b * c * c) - lam,
        -d2["a2"] / a2 + (d_a2 / a2) ** 2 - d_a2 / a2 * S + 6 / (a2 * a2)
        - 2.0 / 9.0 * f * f / (a1 * a1 * a2 * a2)
        + 18 * (a2 ** 4 - a1 ** 4) / (a1 * a1 * a2 * a2 * f * f)
        + (a2 ** 4 - b ** 4 - c ** 4) / (a2 * a2 * b * b * c * c) - lam,
        -d2["b"] / b + (db / b) ** 2 - db / b * S + 6 / (b * b)
        - f * f / (18 * b ** 4)
        + (b ** 4 - a1 ** 4 - c ** 4) / (2 * a1 * a1 * b * b * c * c)
        + (b ** 4 - a2 ** 4 - c ** 4) / (2 * a2 * a2 * b * b * c * c) - lam,
        -d2["c"] / c + (dc / c) ** 2 - dc / c * S + 6 / (c * c)
        - f * f / (18 * c ** 4)
        + (c ** 4 - a1 ** 4 - b ** 4) / (2 * a1 * a1 * b * b * c * c)
        + (c ** 4 - a2 ** 4 - b ** 4) / (2 * a2 * a2 * b * b * c * c) - lam,
        -d2["f"] / f + (df / f) ** 2 - df / f * S + 36 / (f * f)
        - 18 * a1 * a1 / (a2 * a2 * f * f) - 18 * a2 * a2 / (a1 * a1 * f * f)
        + 2.0 / 9.0 * f * f / (a1 * a1 * a2 * a2)
        + f * f / (18 * b ** 4) + f * f / (18 * c ** 4) - lam,
        -d2["a1"] / a1 - d2["a2"] / a2 - 2 * d2["b"] / b - 2 * d2["c"] / c
        - d2["f"] / f - lam,
    ]
    return res


# -- symmetry maps ---------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryMap:
    """An involution-type transform: new_i(t) = sign_i * old_{source_i}(t_sign*t)."""

    name: str
    source: tuple[tuple[str, str], ...]  # (new function, old function) pairs
    signs: tuple[tuple[str, int], ...]
    t_sign: int = -1

    def apply_to_values(self, values: dict[str, float]) -> dict[str, float]:
        src = dict(self.source)
        sgn = dict(self.signs)
        return {fn: sgn[fn] * values[src[fn]] for fn in src}

    def apply_to_series(self, series: dict) -> dict:
        """Transform a dict of TruncSeries; t-reversal alternates signs."""
        src = dict(self.source)
        sgn = dict(self.signs)
        out = {}
        for fn in src:
            s = series[src[fn]]
            coef = [
                sgn[fn] * (self.t_sign ** i) * s.coef[i] for i in range(len(s.coef))
            ]
            out[fn] = type(s)(coef)
        return out


def _sym(name, functions, signs, perm=None, t_sign=-1):
    perm = perm or {}
    source = tuple((fn, perm.get(fn, fn)) for fn in functions)
    return SymmetryMap(name=name, source=source,
                       signs=tuple(zip(functions, signs)), t_sign=t_sign)


def symmetry_maps(sys: SystemId) -> list[SymmetryMap]:
    """The discrete symmetries of the first-order system."""
    sysf = sys.first_order()
    if sysf.kind == "S1":
        maps = [_sym("flip_af", S1_FUNCTIONS, (-1, 1, 1, -1))]
        if (sysf.aw.k, sysf.aw.l) == (1, -1):
            maps.append(_sym("mirror_bc", S1_FUNCTIONS, (-1, 1, 1, 1),
                             perm={"b": "c", "c": "b"}))
        return maps
    fs = S2_FUNCTIONS
    return [
        _sym("mirror_a12", fs, (-1, -1, 1, 1, -1), perm={"a1": "a2", "a2": "a1"}),
        _sym("flip_a_f", fs, (-1, -1, 1, 1, -1)),
        _sym("flip_b_f", fs, (1, 1, -1, 1, -1)),
        _sym("flip_c_f", fs, (1, 1, 1, -1, -1)),
        _sym("swap_bc", fs, (1, 1, 1, 1, 1), perm={"b": "c", "c": "b"}, t_sign=1),
        _sym("swap_a12", fs, (1, 1, 1, 1, 1), perm={"a1": "a2", "a2": "a1"}, t_sign=1),
        # swap composed with the b-flip; the published form of this map carries
        # a stray sign on a1 that fails the vector-field check
        _sym("mirror_a12_flip_b", fs, (1, 1, -1, 1, -1),
             perm={"a1": "a2", "a2": "a1"}),
    ]


def apply_symmetry(smap: SymmetryMap, obj):
    """Apply a symmetry to series, per-function values, solutions, trajectories."""
    if isinstance(obj, dict):
        sample = next(iter(obj.values()))
        if hasattr(sample, "coef"):
            return smap.apply_to_series(obj)
        return smap.apply_to_values(obj)
    if hasattr(obj, "functions") and isinstance(obj.functions, dict):
        import dataclasses
        return dataclasses.replace(obj, functions=smap.apply_to_series(obj.functions))
    if hasattr(obj, "y") and hasattr(obj, "termination"):
        from .integrate import transform_trajectory
        return transform_trajectory(smap, obj)
    raise TypeError(f"cannot apply a symmetry to {type(obj).__name__}")
