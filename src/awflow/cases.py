"""Catalog of the eight singular-orbit initial value problems.

Each case pins: which system applies, the singular orbit, which functions
vanish at t=0, the initial data the caller supplies and the values it
forces on the other functions, the first derivatives forced by the
collapsing-sphere geometry, the free higher-order slots, the parity /
mirror structure used by the smoothness checks, and the vertical
free-parameter counts.  The catalog is data: the solver and the
verification ladder read these fields and never branch on a case id.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .exact import rat
from .reptheory import TORUS_ORBITS, AloffWallach, circle_normalization
from .systems import S1_FUNCTIONS, S2_FUNCTIONS, SystemId

Params = dict[str, Fraction]
Values = dict[str, Fraction]

_0 = Fraction(0)


class ConstraintError(ValueError):
    """Caller-supplied parameters violate a case constraint (exit code 3)."""


class MissingSlotValue(ConstraintError):
    """A required free-slot parameter was not supplied."""

    def __init__(self, function: str, order: int, param: str):
        super().__init__(
            f"free slot ({function}, {order}) needs a value: pass --param {param}=<rational>"
        )
        self.slot = (function, order)
        self.param = param


@dataclass(frozen=True)
class SlotSpec:
    """A free coefficient: series coefficient (function, order) = scale(params) * param.

    `scale` is None for the Einstein slots, which are realized through other
    data rather than bound directly.
    """

    param: str
    function: str
    order: int
    scale: Callable[[Params], Fraction] | None = None


@dataclass(frozen=True)
class MirrorSpec:
    """Coefficient identity fn1(t) = sign * fn2(t_sign * t)."""

    fn1: str
    fn2: str
    sign: int = 1
    t_sign: int = -1


@dataclass(frozen=True)
class EinsteinSpec:
    """Diagonal Einstein solve data: order-1 seeding and free slots."""

    combo_slots: tuple[tuple[str, str, int], ...]  # (param, label, order)
    coeff_slots: tuple[SlotSpec, ...]
    order1: Callable[[Params], Values]  # first derivatives of every function
    shifts: tuple[int, ...]  # the step offset of each identity (see OrbitCase)

    @property
    def slots(self) -> list[tuple[str, int]]:
        """Reported free slots: combination labels, then coefficients."""
        return ([(label, o) for _, label, o in self.combo_slots]
                + [(s.function, s.order) for s in self.coeff_slots])


@dataclass(frozen=True)
class VerticalCount:
    """Vertical free-parameter count of the Einstein theory at the orbit.

    The raw vertical freedom dim(W_2^v) - dim(W_0^v) counts equivariant
    second-derivative data; `gauge_ignored` entries, which change the radial
    coordinate or the radial-fiber mixing, are removed by the arclength and
    diagonal gauge.  `theorem` is the third-order count of the Einstein
    theory in the diagonal sector, or None where the theorem's assumption
    fails and the Spin(7) comparison is reported, not asserted.
    """

    gauge_ignored: int
    theorem: int | None


@dataclass(frozen=True)
class OrbitCase:
    id: str
    long_id: str
    system_kind: str
    orbit: str  # "u12" | "u12-z2" | "s5" | "cp2"
    fixed_kl: tuple[int, int] | None
    excluded_kl: tuple[tuple[int, int], ...]
    vanishing: frozenset[str]
    required_params: tuple[str, ...]
    initial: Callable[[Params], Values]  # t=0 values outside `vanishing`
    slots: tuple[SlotSpec, ...]
    parity: dict[str, str]
    mirror: tuple[MirrorSpec, ...]
    einstein: EinsteinSpec | None
    holonomy: str
    description: str
    # identity i of the holonomy system is read at step n + shifts[i], where
    # its row reads no coefficient above order n: the rows of order n form
    # one square block in the coefficients of order n
    shifts: tuple[int, ...]
    # forced first derivatives where the order-by-order step is quadratic
    first_order_seed: Callable[[AloffWallach, Params], Values] = lambda aw, p: {}
    # |first derivative| at t=0 of the collapsing functions other than a
    # flag-orbit circle fiber, whose constant comes from the orbit
    collapse_rates: Callable[[AloffWallach], Values] = lambda aw: {}
    vertical: VerticalCount | None = None
    # f vanishes identically: the branch is not a smooth-collapse metric
    degenerate: bool = False

    def __reduce__(self):
        # entries hold functions; a pickled case refers to its catalog entry
        return get_case, (self.id,)

    # -- orbit / system ---------------------------------------------------------

    def resolve_aw(self, k: int | None = None, l: int | None = None) -> AloffWallach:
        """The orbit of the case at (k, l): a pinned case takes the pinned pair
        or its sign flip and returns the pinned pair."""
        if self.fixed_kl is not None:
            aw = AloffWallach(*self.fixed_kl)
            if k is not None and not aw.same_orbit(k, l):
                raise ConstraintError(
                    f"case {self.id} is pinned to (k, l) = {self.fixed_kl}"
                )
            return aw
        if k is None or l is None:
            raise ConstraintError(f"case {self.id} needs --k and --l")
        aw = AloffWallach(k, l)
        if any(aw.same_orbit(*kl) for kl in self.excluded_kl):
            raise ConstraintError(
                f"(k, l) = ({k}, {l}) is excluded for case {self.id}"
            )
        return aw

    def system(self, aw: AloffWallach) -> SystemId:
        return SystemId(self.system_kind, aw)

    # -- caller parameters -------------------------------------------------------

    def check_params(self, params: dict[str, Fraction]) -> dict[str, Fraction]:
        params = {name: rat(value) for name, value in params.items()}
        for name in self.required_params:
            if name not in params:
                raise ConstraintError(f"case {self.id} requires parameter {name!r}")
            if params[name] == 0:
                raise ConstraintError(f"parameter {name!r} must be nonzero")
        return params

    def param_names(self, einstein: bool = False) -> list[str]:
        """The parameter names a holonomy solve of the case reads, or with
        einstein its diagonal Einstein solve, sorted."""
        fns = S1_FUNCTIONS if self.system_kind == "S1" else S2_FUNCTIONS
        names = {*self.required_params, *(f"{fn}0" for fn in fns)}
        spec = self.einstein if einstein else None
        if spec is None:
            names.update(s.param for s in self.slots)
        else:
            names.update(p for p, _, _ in spec.combo_slots)
            names.update(s.param for s in spec.coeff_slots)
            names.update(["f1"] if self.orbit in TORUS_ORBITS else [])
        return sorted(names)

    def initial_values(self, aw: AloffWallach, params: dict[str, Fraction]) -> Values:
        """Values at t=0; an optional <fn>0 parameter must match a forced value."""
        p = self.check_params(params)
        given = self.initial(p)
        for fn, value in given.items():
            name = f"{fn}0"
            if name not in self.required_params and name in p and p[name] != value:
                raise ConstraintError(
                    f"case {self.id} forces {name} = {value}, got {p[name]}"
                )
        return {fn: given.get(fn, _0) for fn in self.system(aw).functions}

    def seeds(self, aw: AloffWallach, params: dict[str, Fraction]
              ) -> dict[tuple[str, int], Fraction]:
        """Seed coefficients {(function, order): value} of the holonomy solve."""
        seeds = {(fn, 0): v for fn, v in self.initial_values(aw, params).items()}
        return seeds | {(fn, 1): v for fn, v in self.first_order_seed(aw, params).items()}

    def einstein_seeds(self, aw: AloffWallach, params: dict[str, Fraction]
                       ) -> dict[tuple[str, int], Fraction]:
        """Seed coefficients of the diagonal Einstein solve, whose datum gives
        the first derivative of every function."""
        seeds = self.seeds(aw, params)
        return seeds | {(fn, 1): v for fn, v in self.einstein.order1(params).items()}

    # -- smoothness data -----------------------------------------------------------

    @property
    def equal_pairs(self) -> tuple[tuple[str, str], ...]:
        """Functions equal identically: the mirrors without sign or t-reversal."""
        return tuple((m.fn1, m.fn2) for m in self.mirror
                     if m.sign == 1 and m.t_sign == 1)

    def circle_rate(self, aw: AloffWallach) -> Fraction:
        """|f'(0)| of the circle fiber collapsing at a flag orbit."""
        return circle_normalization(aw, quotient_by_h=self.orbit == "u12-z2")

    def normalization(self, aw: AloffWallach) -> Values:
        """|first derivative| at t=0 of each collapsing function."""
        rates = dict(self.collapse_rates(aw))
        if self.orbit in TORUS_ORBITS and not self.degenerate:
            rates["f"] = self.circle_rate(aw)
        return rates

    def to_json(self, aw: AloffWallach | None = None) -> dict:
        if aw is None and self.fixed_kl is not None:
            aw = AloffWallach(*self.fixed_kl)
        data = {
            "id": self.id,
            "long_id": self.long_id,
            "system": self.system_kind,
            "kl": list(self.fixed_kl) if self.fixed_kl else None,
            "vanishing": sorted(self.vanishing),
            "params": list(self.required_params),
            "free_slots": [[s.function, s.order, s.param] for s in self.slots],
            "parity": dict(self.parity),
            "mirror": [[m.fn1, m.fn2, m.sign, m.t_sign] for m in self.mirror],
            "holonomy": self.holonomy,
            "description": self.description,
        }
        if aw is not None:
            data["normalization"] = {
                fn: str(v) for fn, v in self.normalization(aw).items()
            }
        return data


CASES: dict[str, OrbitCase] = {}


def _register(case: OrbitCase) -> OrbitCase:
    CASES[case.id] = case
    return case


def _flag_initial(p: Params) -> Values:
    return {"a": p["a0"], "b": p["b0"], "c": p["c0"]}


def _flag_order1(p: Params) -> Values:
    return {"a": _0, "b": _0, "c": _0, "f": p["f1"]}


def _quotient_flag_order1(p: Params) -> Values:
    # the equations force a1'(0) = a2'(0); their common value is the free
    # first-derivative datum (the pair difference in sign conventions where
    # both fiber functions start at +a0)
    s = p.get("asum1", _0)
    return {"a1": s / 2, "a2": s / 2, "b": _0, "c": _0, "f": p["f1"]}


def _sphere_order1(p: Params) -> Values:
    diff = p.get("bdiff1", _0)
    return {"a": Fraction(2), "b": diff / 2, "c": -diff / 2, "f": _0}


def _inv_6b0sq(p: Params) -> Fraction:
    return 1 / (6 * p["b0"] ** 2)


_FLAG_EINSTEIN = EinsteinSpec(combo_slots=(), coeff_slots=(SlotSpec("f3", "f", 3),),
                              order1=_flag_order1, shifts=(-1, -1, -1, -2, -2))

_register(OrbitCase(
    id="A", long_id="A_generic_flag", system_kind="S1", orbit="u12",
    fixed_kl=None, excluded_kl=((1, 1),),
    vanishing=frozenset({"f"}),
    required_params=("a0", "b0", "c0"),
    initial=_flag_initial,
    slots=(),
    # the degenerate branch is not a smooth-collapse metric: only the forced
    # f-parity is checkable (the even parities belong to the Einstein family)
    parity={"f": "odd"},
    mirror=(),
    einstein=_FLAG_EINSTEIN,
    holonomy="degenerate: f == 0 forces a product branch with holonomy in G2",
    description="flag singular orbit, generic principal orbit; the first-order "
                "system forces f to vanish identically",
    shifts=(-1, -1, -1, -1),
    vertical=VerticalCount(gauge_ignored=1, theorem=1),
    degenerate=True,
))

_register(OrbitCase(
    id="B", long_id="B_N10_flag", system_kind="S1", orbit="u12",
    fixed_kl=(1, 0), excluded_kl=(),
    vanishing=frozenset({"f"}),
    required_params=("a0", "b0", "c0"),
    initial=_flag_initial,
    slots=(),
    parity={"f": "odd"},
    mirror=(),
    einstein=_FLAG_EINSTEIN,
    holonomy="degenerate: f == 0 forces a product branch with holonomy in G2",
    description="flag singular orbit, (1,0) principal orbit (diagonal metrics)",
    shifts=(-1, -1, -1, -1),
    degenerate=True,
))

_register(OrbitCase(
    id="C", long_id="C_N11Z2_flag", system_kind="S2", orbit="u12-z2",
    fixed_kl=(1, 1), excluded_kl=(),
    vanishing=frozenset({"f"}),
    required_params=("a0", "b0", "c0"),
    initial=lambda p: {"a1": p["a0"], "a2": -p["a0"], "b": p["b0"], "c": p["c0"]},
    slots=(),
    parity={"b": "even", "c": "even", "f": "odd"},
    mirror=(MirrorSpec("a1", "a2", sign=-1, t_sign=-1),),
    einstein=EinsteinSpec(
        combo_slots=(("asum1", "a1+a2", 1),),
        coeff_slots=(SlotSpec("f3", "f", 3),),
        order1=_quotient_flag_order1, shifts=(0, 0, -1, -1, -1, -2)),
    holonomy="subgroup of Spin(7); SU(4) exactly on the family a0^2 = b0^2 + c0^2",
    description="flag singular orbit, order-two quotient of the (1,1) principal "
                "orbit; unique solution from (a0, b0, c0)",
    shifts=(0, 0, -1, -1, -1),
    first_order_seed=lambda aw, p: {"b": _0, "c": _0, "f": Fraction(12)},
    vertical=VerticalCount(gauge_ignored=1, theorem=1),
))

_register(OrbitCase(
    id="D", long_id="D_N1m1_S5", system_kind="S1", orbit="s5",
    fixed_kl=(1, -1), excluded_kl=(),
    vanishing=frozenset({"a"}),
    required_params=("b0", "f0"),
    initial=lambda p: {"b": p["b0"], "c": p["b0"], "f": p["f0"]},
    slots=(),
    parity={"a": "odd", "f": "even"},
    mirror=(MirrorSpec("b", "c", sign=1, t_sign=-1),),
    einstein=EinsteinSpec(
        combo_slots=(("bdiff1", "b-c", 1),),
        coeff_slots=(SlotSpec("a3", "a", 3),),
        order1=_sphere_order1, shifts=(1, 0, 0, 2, -2)),
    holonomy="Spin(7)",
    description="five-sphere singular orbit; a collapses with |a'(0)| = 2",
    shifts=(0, 0, 0, 1),
    first_order_seed=lambda aw, p: {"a": Fraction(2), "b": -p["f0"] / (6 * p["b0"]),
                                    "c": p["f0"] / (6 * p["b0"]), "f": _0},
    collapse_rates=lambda aw: {"a": Fraction(2)},
    vertical=VerticalCount(gauge_ignored=0, theorem=1),
))

_register(OrbitCase(
    id="E", long_id="E_generic_CP2", system_kind="S1", orbit="cp2",
    # k + l = 0 leaves the forced f'(0) = 2 delta / (k + l) undefined
    fixed_kl=None, excluded_kl=((1, -1), (1, 1), (1, -2), (2, -1)),
    vanishing=frozenset({"a", "f"}),
    required_params=("b0",),
    initial=lambda p: {"b": p["b0"], "c": p["b0"]},
    slots=(SlotSpec("q", "f", 3, scale=_inv_6b0sq),),
    parity={"a": "odd", "b": "even", "c": "even", "f": "odd"},
    mirror=(),
    einstein=None,
    holonomy="Spin(7)",
    description="complex projective plane singular orbit, generic principal "
                "orbit; third-order parameter q with f'''(0) = q/b0^2",
    shifts=(0, 0, 0, 1),
    first_order_seed=lambda aw, p: {"a": Fraction(1), "b": _0, "c": _0,
                                    "f": Fraction(2 * aw.delta, aw.k + aw.l)},
    collapse_rates=lambda aw: {"a": Fraction(1),
                               "f": abs(Fraction(2 * aw.delta, aw.k + aw.l))},
    vertical=VerticalCount(gauge_ignored=1, theorem=2),
))

_register(OrbitCase(
    id="F", long_id="F_N11_CP2_aa", system_kind="S2", orbit="cp2",
    fixed_kl=(1, 1), excluded_kl=(),
    vanishing=frozenset({"a1", "a2", "f"}),
    required_params=("b0",),
    initial=lambda p: {"b": p["b0"], "c": p["b0"]},
    slots=(SlotSpec("q1", "a1", 3, scale=_inv_6b0sq),
           SlotSpec("q2", "a2", 3, scale=_inv_6b0sq)),
    parity={"a1": "odd", "a2": "odd", "b": "even", "c": "even", "f": "odd"},
    mirror=(MirrorSpec("b", "c", sign=1, t_sign=1),),
    einstein=None,
    holonomy="subgroup of Spin(7)",
    description="complex projective plane singular orbit with a1, a2, f "
                "collapsing; b = c holds identically",
    shifts=(1, 1, 1, 1, 1),
    first_order_seed=lambda aw, p: {"a1": Fraction(1), "a2": Fraction(1), "b": _0,
                                    "c": _0, "f": Fraction(3)},
    collapse_rates=lambda aw: {"a1": Fraction(1), "a2": Fraction(1), "f": Fraction(3)},
    vertical=VerticalCount(gauge_ignored=1, theorem=2),
))

_register(OrbitCase(
    id="G", long_id="G_N11_CP2_bplus", system_kind="S2", orbit="cp2",
    fixed_kl=(1, 1), excluded_kl=(),
    vanishing=frozenset({"b", "f"}),
    required_params=("a0",),
    initial=lambda p: {"a1": p["a0"], "a2": p["a0"], "c": p["a0"]},
    slots=(SlotSpec("q", "b", 3, scale=lambda p: 1 / (6 * p["a0"] ** 2)),),
    parity={"a1": "even", "a2": "even", "b": "odd", "c": "even", "f": "odd"},
    mirror=(MirrorSpec("a1", "a2", sign=1, t_sign=1),),
    einstein=None,
    holonomy="subgroup of Spin(7)",
    description="complex projective plane singular orbit with b, f collapsing "
                "and a1(0) = a2(0); a1 = a2 holds identically",
    shifts=(1, 1, 0, 0, 1),
    first_order_seed=lambda aw, p: {"a1": _0, "a2": _0, "b": Fraction(1), "c": _0,
                                    "f": Fraction(-6)},
    collapse_rates=lambda aw: {"b": Fraction(1), "f": Fraction(6)},
    vertical=VerticalCount(gauge_ignored=1, theorem=None),
))

_register(OrbitCase(
    id="H", long_id="H_N11_CP2_bminus", system_kind="S2", orbit="cp2",
    fixed_kl=(1, 1), excluded_kl=(),
    vanishing=frozenset({"b", "f"}),
    required_params=("a0",),
    initial=lambda p: {"a1": p["a0"], "a2": -p["a0"], "c": p["a0"]},
    slots=(SlotSpec("q", "c", 2, scale=lambda p: 1 / (2 * p["a0"])),),
    parity={"a1": "even", "a2": "even", "b": "odd", "c": "even", "f": "odd"},
    mirror=(),
    einstein=None,
    holonomy="subgroup of Spin(7)",
    description="complex projective plane singular orbit with b, f collapsing "
                "and a1(0) = -a2(0); second-order parameter c''(0) = q/a0",
    shifts=(1, 1, 0, 0, 1),
    first_order_seed=lambda aw, p: {"a1": _0, "a2": _0, "b": Fraction(1), "c": _0,
                                    "f": Fraction(6)},
    collapse_rates=lambda aw: {"b": Fraction(1), "f": Fraction(6)},
    vertical=VerticalCount(gauge_ignored=1, theorem=None),
))


def get_case(case_id: str) -> OrbitCase:
    cid = case_id.strip().upper()
    if cid not in CASES:
        raise KeyError(f"unknown case {case_id!r}; catalog: {sorted(CASES)}")
    return CASES[cid]


def catalog_json() -> list[dict]:
    return [CASES[cid].to_json() for cid in sorted(CASES)]
