"""Order-by-order exact solution of the singular initial value problems.

The cleared polynomial identities are consumed as a stream of Taylor
coefficients.  At each order the identity coefficients are affine in the
highest-order unknowns; the resulting linear systems are solved exactly over
the rationals.  Underdetermined directions that survive one extra order are
free slots: they consume a caller-supplied value (or a probe value when the
solver runs in slot-census mode).  Re-substitution of the finished series
into every identity is an exact zero check.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cases import ConstraintError, MissingSlotValue, OrbitCase, get_case
from .exact import TruncSeries, rat, rat_str, ratio_sum
from .polyident import PolyIdentity, polynomialize
from .reptheory import AloffWallach
from .systems import SystemId


class InconsistentSystem(ValueError):
    """The linear step has no solution (exit code 4)."""


# -- polynomial values over pending unknowns ------------------------------------


def _accumulate(acc: dict, mon: dict, q: Fraction = Fraction(1)) -> None:
    """Add q * mon to acc, which maps each monomial to the integer ratios
    (n, d) of its terms; `_collect` sums each monomial once."""
    qn, qd = q.numerator, q.denominator
    for m, c in mon.items():
        acc.setdefault(m, []).append((c.numerator * qn, c.denominator * qd))


def _collect(acc: dict) -> "P":
    """The polynomial of an accumulator; cancelled monomials are dropped."""
    mon = {}
    for m, terms in acc.items():
        c = ratio_sum(terms)
        if c:
            mon[m] = c
    return P(mon)


class P:
    """Sparse polynomial in the pending unknowns, coefficients in Q.

    Monomials are sorted tuples of (pid, exponent).  Rows of the linear step
    are degree <= 1; products of unresolved coefficients may have higher
    degree and wait until elimination or slot binding linearizes them.
    """

    __slots__ = ("mon",)

    def __init__(self, mon=None):
        self.mon = mon or {}

    @classmethod
    def const(cls, value) -> "P":
        q = Fraction(value)
        return cls({(): q} if q else {})

    @classmethod
    def pending(cls, pid: int) -> "P":
        return cls({((pid, 1),): Fraction(1)})

    @property
    def is_const(self) -> bool:
        return not self.mon or (len(self.mon) == 1 and () in self.mon)

    @property
    def value(self) -> Fraction:
        return self.mon.get((), Fraction(0))

    def degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.mon), default=0)

    def pids(self) -> set[int]:
        return {p for m in self.mon for p, _ in m}

    def lin_items(self) -> dict[int, Fraction]:
        """pid -> coefficient for a degree <= 1 polynomial."""
        out = {}
        for m, c in self.mon.items():
            if m:
                out[m[0][0]] = c
        return out

    def __mul__(self, other: "P") -> "P":
        acc: dict = {}
        for m1, c1 in self.mon.items():
            for m2, c2 in other.mon.items():
                powers = dict(m1)
                for p, e in m2:
                    powers[p] = powers.get(p, 0) + e
                acc.setdefault(tuple(sorted(powers.items())), []).append(
                    (c1.numerator * c2.numerator, c1.denominator * c2.denominator))
        return _collect(acc)

    def scaled(self, q) -> "P":
        q = Fraction(q)
        return P({m: c * q for m, c in self.mon.items()})

    def subst(self, env: dict[int, "P"]) -> "P":
        """Replace resolved pendings; env values are degree <= 1."""
        if not any(p in env for m in self.mon for p, _ in m):
            return self
        acc: dict = {}
        for m, c in self.mon.items():
            if len(m) == 1 and m[0][1] == 1 and m[0][0] in env:
                # a single pending to the first power: c times its substitute
                _accumulate(acc, env[m[0][0]].mon, c)
            elif not any(p in env for p, _ in m):
                _accumulate(acc, {m: c})
            else:
                term = P.const(c)
                for p, e in m:
                    rep = env.get(p)
                    base = rep if rep is not None else P.pending(p)
                    for _ in range(e):
                        term = term * base
                _accumulate(acc, term.mon)
        return _collect(acc)


# -- streaming staircase solver ----------------------------------------------------


def _settled(poly: P) -> Fraction | P:
    """A polynomial without pendings is kept as its plain Fraction value."""
    return poly.value if poly.is_const else poly


def _subst(value: Fraction | P, env: dict[int, P]) -> Fraction | P:
    """Replace resolved pendings in a settled value or a live polynomial."""
    if type(value) is Fraction:
        return value
    new = value.subst(env)
    return value if new is value else _settled(new)


def _add_product(acc: dict, x: Fraction | P, y: Fraction | P) -> None:
    """Add x * y to the accumulator."""
    if type(x) is not Fraction:
        x, y = y, x  # x is the settled factor if there is one
    if type(y) is Fraction:
        acc.setdefault((), []).append(
            (x.numerator * y.numerator, x.denominator * y.denominator))
    elif type(x) is Fraction:
        _accumulate(acc, y.mon, x)
    else:
        _accumulate(acc, (x * y).mon)


class _Stream:
    """Streaming staircase: row j of every identity is processed at step j.

    Rows that are affine in the pending coefficients are eliminated exactly;
    rows of higher degree wait (later eliminations and slot bindings
    linearize them).  The system order d is the highest derivative in the
    identities: coefficient o is introduced at step o - d, and a pending
    still live at step o + d (a lag of 2d) is a free slot and consumes a
    value from the binder.

    Coefficients, prefix products and rows are plain Fractions once they
    settle; a `P` is kept only for a value that still holds a live pending.
    Cauchy sums and rows go through one accumulator, summed by `ratio_sum`.
    """

    def __init__(self, identities: list[PolyIdentity], functions: tuple[str, ...],
                 target_order: int, seeds: dict[tuple[str, int], Fraction],
                 slot_binder, lam: Fraction | None,
                 avoid_pivot: frozenset[tuple[str, int]]):
        self.identities = identities
        self.functions = functions
        self.d = max(dord for ident in identities for term in ident.terms
                     for _, dord in term.factors)
        self.target = target_order
        self.internal = target_order + 3 * self.d
        self.slot_binder = slot_binder
        self.avoid_pivot = avoid_pivot
        self.coeffs: dict[str, list[Fraction | P | None]] = {
            fn: [None] * (self.internal + 1) for fn in functions
        }
        for (fn, o), v in seeds.items():
            self.coeffs[fn][o] = Fraction(v)
        self.env: dict[int, P] = {}
        self.live: dict[int, tuple[str, int]] = {}  # pid -> (fn, order)
        self._next_pid = 0
        self.diagnostics: list[dict] = []
        self.free_slots_found: list[tuple[str, int]] = []
        # anchor prefix products at zero: vanishing-at-0 functions first
        vanishing = {fn for fn in functions if seeds.get((fn, 0), None) == 0}

        def anchor(f):
            return (0 if (f[1] == 0 and f[0] in vanishing) else 1, f[0], f[1])

        # one prefix-product cache per distinct factor prefix, shared by every
        # term of every identity; single factors cache the derivative series
        self._prefixes: dict[tuple[tuple[str, int], ...], list] = {}
        self._terms: list[list[tuple[Fraction, tuple[tuple[str, int], ...]]]] = []
        for ident in identities:
            terms = []
            for term in ident.terms:
                factors = tuple(sorted(term.factors, key=anchor))
                for n, f in enumerate(factors):
                    self._prefixes.setdefault(factors[:n + 1], [])
                    self._prefixes.setdefault((f,), [])
                coeff = term.coeff
                if term.lam:
                    if lam is None:
                        raise ValueError(
                            "identity carries the Einstein constant; pass lambda")
                    coeff = coeff * lam ** term.lam
                terms.append((coeff, factors))
            self._terms.append(terms)

    # ---- coefficient bookkeeping

    def _introduce(self, order: int) -> list[str]:
        fresh = []
        for fn in self.functions:
            if self.coeffs[fn][order] is None:
                pid = self._next_pid
                self._next_pid += 1
                self.coeffs[fn][order] = P.pending(pid)
                self.live[pid] = (fn, order)
                fresh.append(f"{fn}[{order}]")
        return fresh

    def _coef(self, fn: str, order: int) -> Fraction | P:
        value = self.coeffs[fn][order]
        if value is None:  # pragma: no cover - guarded by the staircase layout
            raise AssertionError(f"coefficient {fn}[{order}] read before introduction")
        value = self.coeffs[fn][order] = _subst(value, self.env)
        return value

    def _factor_coef(self, fn: str, dord: int, u: int) -> Fraction | P:
        value = self._coef(fn, u + dord)
        if dord == 0:
            return value
        mult = 1
        for i in range(dord):
            mult *= (u + 1 + i)
        return value * mult if type(value) is Fraction else value.scaled(mult)

    # ---- identity coefficient via shared prefix products

    def _product(self, key: tuple[tuple[str, int], ...], j: int) -> Fraction | P:
        """Coefficient j of the product of the factors in `key`."""
        cache = self._prefixes[key]
        if len(key) == 1:
            for jj in range(len(cache), j + 1):
                cache.append(self._factor_coef(*key[0], jj))
        else:
            head, last = key[:-1], key[-1:]
            for jj in range(len(cache), j + 1):
                self._product(head, jj)
                self._product(last, jj)
                cache.append(self._cauchy(self._prefixes[head],
                                          self._prefixes[last], jj))
        value = cache[j]
        if type(value) is not Fraction:
            value = cache[j] = _subst(value, self.env)
        return value

    def _cauchy(self, left: list, right: list, j: int) -> Fraction | P:
        """Coefficient j of the product of two cached series."""
        env = self.env
        acc: dict = {}
        for u in range(j + 1):
            a = left[u]
            if type(a) is not Fraction:
                a = left[u] = _subst(a, env)
            if not a:
                continue
            b = right[j - u]
            if type(b) is not Fraction:
                b = right[j - u] = _subst(b, env)
            if not b:
                continue
            _add_product(acc, a, b)
        return _settled(_collect(acc))

    def _row(self, ident_idx: int, j: int) -> Fraction | P:
        acc: dict = {}
        for coeff, factors in self._terms[ident_idx]:
            if coeff:
                _add_product(acc, coeff, self._product(factors, j))
        return _settled(_collect(acc))

    # ---- elimination

    def _resolve(self, pid: int, expr: P) -> None:
        self.env[pid] = expr
        del self.live[pid]
        sub = {pid: expr}
        for other, val in list(self.env.items()):
            if pid in val.pids():
                self.env[other] = val.subst(sub)

    def _eliminate_row(self, label: str, row: Fraction | P, j, log: dict) -> bool:
        """Use an affine row to resolve one pending; defer nonlinear rows."""
        if type(row) is Fraction:
            if row:
                raise InconsistentSystem(
                    f"no formal solution at order {j}: identity {label!r} "
                    f"reduces to {row} = 0"
                )
            return True
        if row.degree() > 1:
            return False
        lin = row.lin_items()

        # never pivot a declared slot coefficient while anything else is
        # available, so the free direction is reported in the cataloged
        # coordinates; otherwise resolve the freshest unknown first
        def rank_key(p):
            return (self.live[p] not in self.avoid_pivot, self.live[p][1], p)

        pivot = max(lin, key=rank_key)
        fn, order = self.live[pivot]
        cp = lin[pivot]
        rest = P({m: c for m, c in row.mon.items() if not (m and m[0][0] == pivot)})
        self._resolve(pivot, rest.scaled(Fraction(-1) / cp))
        log["rank"] += 1
        log["resolved"].append(f"{fn}[{order}]")
        return True

    # ---- slot binding

    def _bind(self, pid: int, log: dict) -> None:
        fn, order = self.live[pid]
        value = self.slot_binder(fn, order)
        self.free_slots_found.append((fn, order))
        log["free"].append(f"{fn}[{order}]")
        self._resolve(pid, P.const(value))

    def _overdue(self, j: int) -> list[int]:
        due = [p for p, (_, order) in self.live.items() if order <= j - self.d]
        return sorted(due, key=lambda p: (self.live[p][1], self.live[p][0]))

    # ---- main loop

    def run(self) -> None:
        deferred: list[tuple[str, Fraction | P]] = []
        for j in range(0, self.internal - self.d + 1):
            log = {"order": j, "introduced": [], "resolved": [], "free": [],
                   "rank": 0}
            for o in range(j + self.d + 1):
                log["introduced"].extend(self._introduce(o))
            queue = deferred + [
                (ident.label, self._row(i, j))
                for i, ident in enumerate(self.identities)
            ]
            deferred = self._drain(queue, j, log)
            # a free slot is bound only when elimination has stalled, so a
            # deferred row cannot still determine the coefficient
            for pid in self._overdue(j):
                if pid in self.live:
                    self._bind(pid, log)
                    deferred = self._drain(deferred, j, log)
            self.diagnostics.append(log)
        # no row is left deferred: every live pending has order > target + d,
        # and a row of step j <= target + 2d has factor orders summing to at
        # most j + 2d < 2 (target + d + 1) (target > 2d - 2), so it is affine

    def _drain(self, queue: list[tuple[str, Fraction | P]], j: int, log: dict
               ) -> list[tuple[str, Fraction | P]]:
        while True:
            progressed = False
            leftover = []
            for label, row in queue:
                row = _subst(row, self.env)
                if self._eliminate_row(label, row, j, log):
                    progressed = True
                else:
                    leftover.append((label, row))
            queue = leftover
            if not queue or not progressed:
                return queue

    def series(self) -> dict[str, TruncSeries]:
        out = {}
        for fn in self.functions:
            coef = []
            for o in range(self.target + 1):
                value = self._coef(fn, o)
                if type(value) is not Fraction:
                    raise InconsistentSystem(
                        f"coefficient {fn}[{o}] left undetermined"
                    )
                coef.append(value)
            out[fn] = TruncSeries(coef)
        return out


# -- public solution object --------------------------------------------------------


@dataclass
class SeriesSolution:
    case: OrbitCase
    aw: AloffWallach
    functions: dict[str, TruncSeries]
    bound_params: dict[str, Fraction]
    free_slots_found: list[tuple[str, int]]
    diagnostics: list[dict] = field(default_factory=list)
    einstein_lambda: Fraction | None = None

    @property
    def order(self) -> int:
        return min(s.order for s in self.functions.values())

    def system(self) -> SystemId:
        sysid = self.case.system(self.aw)
        return sysid.einstein() if self.einstein_lambda is not None else sysid

    def residual_series(self) -> dict[str, TruncSeries]:
        """Exact substitution into every identity of the solved system."""
        sysid = self.system()
        lam = self.einstein_lambda
        return {
            ident.label: ident.eval_series(self.functions, lam=lam)
            for ident in polynomialize(sysid)
        }

    def verify_exact(self) -> bool:
        return all(r.is_zero() for r in self.residual_series().values())

    def to_json(self) -> dict:
        data = {
            "case": self.case.id,
            "k": self.aw.k,
            "l": self.aw.l,
            "params": {k: rat_str(v) for k, v in sorted(self.bound_params.items())},
            "functions": {fn: s.to_json() for fn, s in self.functions.items()},
            "free_slots": [[fn, o] for fn, o in self.free_slots_found],
            "diagnostics": self.diagnostics,
        }
        if self.einstein_lambda is not None:
            data["lambda"] = rat_str(self.einstein_lambda)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SeriesSolution":
        case = get_case(data["case"])
        aw = AloffWallach(int(data["k"]), int(data["l"]))
        return cls(
            case=case,
            aw=aw,
            functions={fn: TruncSeries.from_json(c)
                       for fn, c in data["functions"].items()},
            bound_params={k: rat(v) for k, v in data["params"].items()},
            free_slots_found=[(fn, int(o)) for fn, o in data["free_slots"]],
            diagnostics=data.get("diagnostics", []),
            einstein_lambda=rat(data["lambda"]) if "lambda" in data else None,
        )


# -- entry points -------------------------------------------------------------------


def _split_params(case: OrbitCase, params: dict) -> tuple[dict, dict]:
    params = {k: rat(v) for k, v in params.items()}
    slot_names = {s.param for s in case.slots}
    slot_params = {k: v for k, v in params.items() if k in slot_names}
    init_params = {k: v for k, v in params.items() if k not in slot_names}
    return init_params, slot_params


def _run(case: OrbitCase, aw: AloffWallach, seeds: dict, order: int, binder,
         lam: Fraction | None = None) -> _Stream:
    """Run the staircase of the holonomy system, or with lam its Einstein
    system, never pivoting a cataloged slot coefficient."""
    sysid = case.system(aw)
    if lam is not None:
        sysid = sysid.einstein()
    avoid = frozenset((s.function, s.order) for s in case.slots)
    stream = _Stream(polynomialize(sysid), sysid.functions, order, seeds, binder,
                     lam, avoid)
    stream.run()
    return stream


def solve_series(case: OrbitCase | str, params: dict, order: int = 20,
                 k: int | None = None, l: int | None = None) -> SeriesSolution:
    """Exact power-series solution of a cataloged singular IVP."""
    if isinstance(case, str):
        case = get_case(case)
    max_slot = max((s.order for s in case.slots), default=0)
    if order < max_slot + 1:
        raise ConstraintError(
            f"case {case.id} needs order >= {max_slot + 1}, got {order}"
        )
    aw = case.resolve_aw(k, l)
    init_params, slot_params = _split_params(case, params)
    seeds = case.seeds(aw, init_params)
    by_coeff = {(s.function, s.order): s for s in case.slots}

    def binder(fn: str, o: int) -> Fraction:
        spec = by_coeff.get((fn, o))
        if spec is None:
            raise InconsistentSystem(
                f"unexpected free direction ({fn}, {o}) for case {case.id}"
            )
        if spec.param not in slot_params:
            raise MissingSlotValue(fn, o, spec.param)
        return slot_params[spec.param] * spec.scale(init_params)

    stream = _run(case, aw, seeds, order, binder)
    missing = set(by_coeff) - set(stream.free_slots_found)
    if missing:
        raise InconsistentSystem(
            f"declared free slots never became free: {sorted(missing)}"
        )
    return SeriesSolution(
        case=case, aw=aw, functions=stream.series(),
        bound_params={**init_params, **slot_params},
        free_slots_found=sorted(stream.free_slots_found, key=lambda s: (s[1], s[0])),
        diagnostics=stream.diagnostics,
    )


def free_slots(case: OrbitCase | str, order: int = 8, params: dict | None = None,
               k: int | None = None, l: int | None = None,
               probe=Fraction(0)) -> list[tuple[str, int]]:
    """Census of the underdetermined slots, probing with placeholder values."""
    if isinstance(case, str):
        case = get_case(case)
    if order < 6:
        raise ConstraintError("slot census needs order >= 6")
    aw = case.resolve_aw(k, l)
    if params is None:
        params = {name: Fraction(i + 2) for i, name in enumerate(case.required_params)}
    init_params, _ = _split_params(case, params)
    seeds = case.seeds(aw, init_params)
    found: list[tuple[str, int]] = []

    def binder(fn: str, o: int) -> Fraction:
        found.append((fn, o))
        return rat(probe)

    _run(case, aw, seeds, order, binder)
    return sorted(found, key=lambda s: (s[1], s[0]))


def einstein_series(case: OrbitCase | str, params: dict, lam, order: int = 10,
                    k: int | None = None, l: int | None = None) -> SeriesSolution:
    """Diagonal Einstein series at the flag or five-sphere singular orbits.

    Slot parameters carry the theorems' derivative values: f3 is f'''(0)
    (six times the Taylor coefficient).  At the flag orbits the circle fiber
    admits a continuous cone datum f'(0) and the third-derivative slot is
    realized through it (they are proportional once the orbit metric and
    lambda are fixed); the request f'''(0) = 0 lands on the degenerate
    f == 0 branch.  The five-sphere fiber is a two-sphere with no cone
    datum: there the recursion determines the third derivative.
    """
    if isinstance(case, str):
        case = get_case(case)
    spec = case.einstein
    if spec is None:
        raise ConstraintError(
            f"case {case.id} has no diagonal Einstein solve (flag and "
            "five-sphere orbits only)"
        )
    if order < 3:
        raise ConstraintError(
            f"the Einstein series of case {case.id} needs order >= 3, got {order}"
        )
    lam = rat(lam)
    aw = case.resolve_aw(k, l)
    params = {key: rat(v) for key, v in params.items()}
    if case.orbit == "s5":
        return _einstein_sphere(case, spec, aw, params, lam, order)
    return _einstein_flag(case, spec, aw, params, lam, order)


def _einstein_sphere(case, spec, aw, params, lam, order):
    """Five-sphere Einstein solve.

    In the diagonal arclength gauge the recursion determines a'''(0) from
    (b0, f0, (b-c)'(0), lambda); the further third-order freedom of the
    general theory lives in the non-diagonal sector, which this artifact
    counts but does not solve.  A supplied a3 is checked, not consumed.
    """
    sol = _einstein_run(case, spec, aw, params, lam, order)
    realized = 6 * sol.functions["a"].coef[3]
    if "a3" in params and params["a3"] != realized:
        raise ConstraintError(
            f"in the diagonal arclength gauge a'''(0) is determined as "
            f"{realized}; the requested value {params['a3']} needs the "
            "non-diagonal sector"
        )
    sol.free_slots_found = [(label, o) for _, label, o in spec.combo_slots]
    sol.diagnostics.append({"order": "post", "determined": {"a3": str(realized)}})
    return sol


def _einstein_flag(case, spec, aw, params, lam, order):
    """Flag-orbit Einstein solve: realize the f'''(0) slot via the cone datum."""
    fslot = spec.coeff_slots[0]
    if "f1" in params:
        if params["f1"] == 0:
            return _einstein_degenerate(case, params, lam, order, aw)
        return _einstein_run(case, spec, aw, params, lam, order)
    if fslot.param not in params:
        raise MissingSlotValue(fslot.function, fslot.order, fslot.param)
    f3 = params[fslot.param]
    combo = {p: params.get(p, Fraction(0)) for p, _, _ in spec.combo_slots}
    if f3 == 0:
        return _einstein_degenerate(case, params, lam, order, aw)
    if any(v != 0 for v in combo.values()):
        raise ConstraintError(
            "with a nonzero first-derivative datum the cone datum is not "
            "rational in f'''(0); pass f1 explicitly instead of "
            f"{fslot.param}"
        )
    # reference pass: f'''(0) is proportional to the cone datum f'(0); the
    # slope only reads f[3], which an order-4 staircase already settles
    ref = dict(params)
    ref["f1"] = case.circle_rate(aw)
    ref.pop(fslot.param, None)
    refsol = _einstein_run(case, spec, aw, ref, lam, min(order, 4))
    slope = 6 * refsol.functions["f"].coef[3] / ref["f1"]
    if slope == 0:
        raise ConstraintError(
            f"no formal solution: f'''(0) is forced to 0 at lambda={lam}"
        )
    final = dict(params)
    final["f1"] = f3 / slope
    sol = _einstein_run(case, spec, aw, final, lam, order)
    if 6 * sol.functions["f"].coef[3] != f3:  # pragma: no cover
        raise InconsistentSystem("cone-datum calibration failed")
    sol.bound_params = dict(params)
    return sol


def _einstein_run(case, spec, aw, params, lam, order):
    seeds = case.einstein_seeds(aw, params)

    def binder(fn: str, o: int) -> Fraction:
        raise InconsistentSystem(
            f"unexpected Einstein free direction ({fn}, {o}) for case {case.id}"
        )

    stream = _run(case, aw, seeds, order, binder, lam)
    return SeriesSolution(
        case=case, aw=aw, functions=stream.series(), bound_params=dict(params),
        free_slots_found=spec.slots, diagnostics=stream.diagnostics,
        einstein_lambda=lam,
    )


def _einstein_degenerate(case: OrbitCase, params: dict, lam: Fraction, order: int,
                         aw: AloffWallach) -> SeriesSolution:
    """The f == 0 branch: the cleared Einstein identities degenerate.

    With the circle fiber identically zero the remaining functions follow the
    first-order flag branch; the combined series satisfies every cleared
    Einstein identity exactly (checked), but only lambda = 0 is meaningful.
    """
    if not case.degenerate:
        raise ConstraintError(
            f"the f'(0) = 0 degeneration is not cataloged for case {case.id}"
        )
    if lam != 0:
        raise ConstraintError(
            "f'''(0) = 0 forces the degenerate f == 0 branch, which is "
            "Ricci-flat only; pass lambda 0"
        )
    base = solve_series(case, params, order=order, k=aw.k, l=aw.l)
    sol = SeriesSolution(
        case=case, aw=aw, functions=base.functions, bound_params=params,
        free_slots_found=[("f", 3)], diagnostics=base.diagnostics,
        einstein_lambda=lam,
    )
    if not sol.verify_exact():  # pragma: no cover - trivially zero residuals
        raise InconsistentSystem("degenerate branch failed the Einstein identities")
    return sol


# -- smoothness ----------------------------------------------------------------------


@dataclass
class SmoothnessReport:
    parity_ok: dict[str, bool]
    normalization_ok: dict[str, bool]
    mirror_ok: bool
    violations: list[tuple[str, int, str]]

    @property
    def ok(self) -> bool:
        return (all(self.parity_ok.values()) and all(self.normalization_ok.values())
                and self.mirror_ok)

    def to_json(self) -> dict:
        return {
            "parity_ok": self.parity_ok,
            "normalization_ok": self.normalization_ok,
            "mirror_ok": self.mirror_ok,
            "violations": [list(v) for v in self.violations],
            "ok": self.ok,
        }


def check_smoothness(sol: SeriesSolution) -> SmoothnessReport:
    """Coefficient-level parity, mirror and first-derivative checks."""
    if sol.order < 4:
        raise ConstraintError("smoothness checks need order >= 4")
    case = sol.case
    violations: list[tuple[str, int, str]] = []
    parity_ok: dict[str, bool] = {}
    for fn, kind in case.parity.items():
        s = sol.functions[fn]
        bad = [
            i for i in range(s.order + 1)
            if s.coef[i] != 0 and (i % 2 == (1 if kind == "even" else 0))
        ]
        parity_ok[fn] = not bad
        for i in bad:
            violations.append((fn, i, f"{kind} function has nonzero t^{i} term"))
    mirror_ok = True
    for m in case.mirror:
        s1, s2 = sol.functions[m.fn1], sol.functions[m.fn2]
        for i in range(min(s1.order, s2.order) + 1):
            expect = m.sign * (m.t_sign ** i) * s2.coef[i]
            if s1.coef[i] != expect:
                mirror_ok = False
                violations.append(
                    (m.fn1, i,
                     f"mirror {m.fn1}(t) = {'-' if m.sign < 0 else ''}{m.fn2}"
                     f"({'-t' if m.t_sign < 0 else 't'}) fails at t^{i}"))
    normalization_ok: dict[str, bool] = {}
    for fn, const in case.normalization(sol.aw).items():
        got = abs(sol.functions[fn].coef[1])
        normalization_ok[fn] = got == const
        if got != const:
            violations.append((fn, 1, f"|{fn}'(0)| = {got}, expected {const}"))
    return SmoothnessReport(parity_ok, normalization_ok, mirror_ok, violations)
