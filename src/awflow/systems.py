"""The four ODE systems and their symmetry maps.

S1/S2 are the first-order holonomy-reduction systems for a generic and for
the exceptional (1,1) principal orbit; E1/E2 are the corresponding
second-order Einstein systems.  Their equations are written once, as the
term tables of `polyident`; `rhs_first_order` and `residual_einstein` are
thin wrappers over the straight-line code that `polyident.compiled` builds
from those tables.  The code is plain arithmetic, so a state holding one
numpy array per function is evaluated at every sample in one call; residuals
take derivatives as explicit inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyident import compiled
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


def _compiled_at(sys: SystemId, st: State):
    """The compiled code and the values; any numpy column makes all columns."""
    y = [st.values[fn] for fn in sys.functions]
    if any(isinstance(v, np.ndarray) for v in y):
        return compiled(sys, batch=True), [np.asarray(v) for v in y]
    return compiled(sys), y


def rhs_first_order(sys: SystemId, st: State) -> dict[str, float]:
    """Right-hand side of the first-order holonomy system at a state."""
    if not sys.is_first_order:
        raise ValueError("rhs_first_order needs a first-order system")
    flow, y = _compiled_at(sys, st)
    return dict(zip(sys.functions, flow(y)))


def residual_einstein(sys: SystemId, st: State, d1: dict[str, float],
                      d2: dict[str, float], lam: float) -> list[float]:
    """LHS - lambda of each displayed Einstein equation (trace included)."""
    if sys.is_first_order:
        raise ValueError("residual_einstein needs an Einstein system (E1/E2)")
    residual, y = _compiled_at(sys, st)
    return residual(y, [d1[fn] for fn in sys.functions],
                    [d2[fn] for fn in sys.functions], lam)


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

