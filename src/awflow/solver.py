"""Order-by-order exact solution of the singular initial value problems.

The cleared polynomial identities are solved as Taylor coefficients, one
order n at a time, in the block form of Eschenburg and Wang: identity i is
read at step n + r_i, its shift, so that every row reads no coefficient
above order n and is affine in the coefficients x_n of order n.  The rows
of order n make one block M(n) x_n = -r(n), solved exactly over the
rationals.  Where M(n) drops rank a cataloged free slot takes a
caller-supplied value (or a probe value when the solver runs in
slot-census mode).  Re-substitution of the finished series into every
identity is an exact zero check.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, repeat
from math import gcd, lcm, perm
from operator import add, mul

from .cases import ConstraintError, MissingSlotValue, OrbitCase, get_case
from .exact import Scaled, TruncSeries, rat, rat_str
from .polyident import PolyIdentity, eval_identities, polynomialize, product_plan
from .reptheory import AloffWallach
from .systems import SystemId


class InconsistentSystem(ValueError):
    """The linear step has no solution (exit code 4)."""


class ResonantDatum(ConstraintError):
    """An Einstein datum at which a coefficient no slot binds is free (exit code 3)."""


# -- the block recursion -----------------------------------------------------------


class _Stream:
    """One block per order n through target + d, d the highest derivative in
    the identities (1 for holonomy, 2 for Einstein systems).

    Every product a term needs is cached once, split as `product_plan` says,
    as a `Scaled` series over one common denominator; an entry reads the
    coefficients not known yet as 0.  Row i of order n is its value at
    x_n = 0 plus M(n)_i x_n: M(n)_i,fn sums perm(n, dord) times entry
    r_i + dord of dN/dl over dord, N the terms of identity i, l the leaf
    (fn, dord).  A multiplier of x_n reads the same coefficients at every n,
    all below the first order n0 with unknowns, so M(n)'s constants are
    built at n0 (again at n0 + 1 if n0 also held seeded coefficients, whose
    columns read the ones solved at n0 as 0).  From order 2d + max r + 1 on
    no entry multiplies two coefficients of order n: the constants are built
    once more from settled entries, and dN/dl patches the entries that read
    x_n as 0.  Before, the entries are recomputed once x_n is known, and
    every row must then vanish: one that does not was not affine in x_n.
    """

    def __init__(self, identities: tuple[PolyIdentity, ...], functions: tuple[str, ...],
                 shifts: tuple[int, ...], target_order: int,
                 seeds: dict[tuple[str, int], Fraction], slot_binder,
                 lam: Fraction | None, slots: frozenset[tuple[str, int]]):
        if lam is None and any(t.lam for ident in identities for t in ident.terms):
            raise ValueError("identity carries the Einstein constant; pass lambda")
        self.identities, self.functions, self.shifts = identities, functions, shifts
        self.d = max(dord for ident in identities for t in ident.terms for _, dord in t.factors)
        self.target, self.last, self.rmax = target_order, target_order + self.d, max(shifts)
        self.lin_from = 2 * self.d + self.rmax + 1
        self.slot_binder, self.slots = slot_binder, slots
        size = self.last + self.rmax + self.d + 1  # the orders a cache entry reads
        self.x: dict[str, list[Fraction | None]] = {fn: [None] * size for fn in functions}
        for (fn, o), v in seeds.items():
            self.x[fn][o] = Fraction(v)
        self.diagnostics: list[dict] = []
        self.free_slots_found: list[tuple[str, int]] = []
        self._terms = [[(q.as_integer_ratio(), t.factors) for t in ident.terms
                        if (q := t.coeff * (lam or 0) ** t.lam)] for ident in identities]
        keys = frozenset(key for terms in self._terms for _, key in terms)
        self._plan = plan = product_plan(keys)
        halves = {half for split in plan.values() for half in split}
        self._by_size = sorted({(f,) for key in keys for f in key} | set(plan),
                               key=lambda node: (len(node), node))
        self.den = 1
        # every leaf and half is cached; a top product, a term's that is no
        # node's half, is read only through its halves
        self._caches = {node: Scaled([]) for node in self._by_size
                        if len(node) == 1 or node in halves}
        self._leaves = [(c, *node[0]) for node, c in self._caches.items() if len(node) == 1]
        self._nodes = [(c, *(self._caches[h] for h in plan[node]))
                       for node, c in self._caches.items() if len(node) > 1]
        self._rows = []  # per identity: lcd, then (weight, cache, None) or (weight, halves)
        for terms in self._terms:
            lcd = lcm(*(cd for (_, cd), _ in terms))
            self._rows.append((lcd, [(cn * (lcd // cd), *(
                (self._caches[key], None) if key in self._caches
                else (self._caches[h] for h in plan[key]))) for (cn, cd), key in terms]))
        self._lin: list | None = None  # M(n)'s constants
        self._lin_due: int | None = 0  # build them at the first order with unknowns from here

    # ---- the caches

    def _grow(self, need: int) -> None:
        """Put every cache over a multiple of need and of the common denominator,
        taking the factor it lacked twice: coefficient denominators gain the
        same small primes order after order."""
        g = need // gcd(need, self.den)
        self.den *= g * g
        for cache in self._caches.values():
            cache.rescale(self.den)

    def _over_den(self, n: int, d: int) -> int:
        """The numerator of n / d over the common denominator, grown if needed."""
        q, r = divmod(n * self.den, d)
        if not r:
            return q
        self._grow(d // gcd(n, d))
        return n * self.den // d

    def _fill(self, lo: int, m: int) -> None:
        """Recompute every cache entry from index lo through m: an entry of a
        product is one integer dot of its halves' numerators over den^2."""
        for cache, fn, dord in self._leaves:
            del cache.nums[lo:]
            for u in range(lo, m + 1):
                v = self.x[fn][u + dord]
                n = 0 if v is None else self._over_den(v.numerator * perm(u + dord, dord),
                                                       v.denominator)
                cache.nums.append(n)  # after _over_den, which may replace cache.nums
        for cache, left, right in self._nodes:  # halves first
            del cache.nums[lo:]
            for k in range(lo, m + 1):
                n = self._over_den(sum(map(mul, left.nums[:k + 1], right.nums[k::-1])),
                                   self.den * self.den)
                cache.nums.append(n)

    def _patch_in(self, n: int, values: dict[str, Fraction]) -> None:
        """Add x_n to every entry that read it as 0, through dN/dl; the
        common denominator grows at most once."""
        fresh = [(fn, dord, Fraction(v.numerator * perm(n, dord),
                                     v.denominator * self._patch_den))
                 for fn, v in values.items() for dord in range(min(n, self.d) + 1)
                 if v and (fn, dord) in self._patch]
        if (need := lcm(*(q.denominator for *_, q in fresh))) > gcd(need, self.den):
            self._grow(need)
        for fn, dord, q in fresh:
            f, u = q.numerator * (self.den // q.denominator), n - dord
            for cache, series in self._patch[fn, dord]:  # as long as the tail from u
                cache.nums[u:] = map(add, cache.nums[u:], map(mul, series, repeat(f)))

    # ---- the block of order n

    def _deriv(self) -> dict:
        """node -> leaf -> (h, nums): dN/dl to index max(r) + dord of the
        leaf, nums[k] / den^h, at the current entries."""
        rmax, den, out = self.rmax, self.den, {}
        for node in self._by_size:
            if len(node) == 1:
                (_, dord), = node
                out[node] = {node[0]: (0, [1] + [0] * (rmax + dord))} if dord >= -rmax else {}
                continue
            acc: dict = {}
            for a, b in permutations(self._plan[node]):  # dN = dA B + A dB
                other = self._caches[b].nums
                for leaf, (h, s) in out[a].items():
                    p = [sum(map(mul, s[:k + 1], other[k::-1])) for k in range(len(s))]
                    if leaf in acc:
                        h0, q = acc[leaf]
                        p = [u * den ** max(h0 - h - 1, 0) + v * den ** max(h + 1 - h0, 0)
                             for u, v in zip(p, q)]
                        h = max(h0 - 1, h)
                    acc[leaf] = (h + 1, p)
            out[node] = acc
        return out

    def _constants(self, deriv: dict) -> list[tuple[int, dict]]:
        """Per identity, (den, (fn, dord) -> num): M(n)_i,fn sums perm(n, dord)
        num / den over dord."""
        out = []
        for r, (lcd, _), terms in zip(self.shifts, self._rows, self._terms):
            parts: dict = defaultdict(list)
            for (cn, cd), key in terms:
                for leaf, (h, s) in deriv[key].items():
                    if 0 <= r + leaf[1] and s[r + leaf[1]]:
                        parts[leaf].append((cn * (lcd // cd) * s[r + leaf[1]], h))
            row = {}
            for leaf, vals in parts.items():
                h = max(hv for _, hv in vals)
                row[leaf] = Fraction(sum(v * self.den ** (h - hv) for v, hv in vals),
                                     lcd * self.den ** h)
            den = lcm(*(a.denominator for a in row.values()))
            out.append((den, {leaf: a.numerator * (den // a.denominator)
                              for leaf, a in row.items() if a}))
        return out

    def _go_linear(self) -> None:
        """M(n)'s constants and the patch series, from settled entries."""
        deriv = self._deriv()
        self._lin = self._constants(deriv)
        series = []
        for node, cache in self._caches.items():
            for leaf, (h, s) in deriv[node].items():
                g = gcd(self.den ** h, *s)
                series.append((leaf, cache, self.den ** h // g, [v // g for v in s]))
        self._patch_den = lcm(*(den for _, _, den, _ in series))
        self._patch = defaultdict(list)  # leaf -> (cache, dN/dl numerators)
        for leaf, cache, den, nums in series:
            if any(nums):
                self._patch[leaf].append((cache, [v * (self._patch_den // den) for v in nums]))

    def _value(self, i: int, j: int) -> int:
        """Row j of identity i at the current entries, over lcd_i den^2."""
        cached = top = 0
        for w, a, b in self._rows[i][1]:
            if b is None:
                cached += w * a.nums[j]
            else:
                top += w * sum(map(mul, a.nums[:j + 1], b.nums[j::-1]))
        return cached * self.den + top

    def _solve(self, n: int, block: list, unknowns: list[str],
               log: dict) -> dict[str, Fraction]:
        """Fraction-free Gauss-Jordan on integer rows [identity, c, b, s] of
        c y = b (y = den^2 x_n, s the factor on the row's own equation),
        pivoting on a cataloged slot last, else on the latest function; the
        free columns are bound and the other rows checked."""
        pivots: dict[int, list] = {}
        for col in sorted(range(len(unknowns)), key=lambda c: (
                (unknowns[c], n) in self.slots, -self.functions.index(unknowns[c]))):
            row = next((row for row in block if row[1][col]
                        and all(row is not p for p in pivots.values())), None)
            if row is not None:
                p = pivots[col] = row
                for other in block:
                    if other is not row and (e := other[1][col]):
                        other[1] = [row[1][col] * u - e * v for u, v in zip(other[1], p[1])]
                        other[2] = row[1][col] * other[2] - e * row[2]
                        other[3] *= row[1][col]
        values, scale = {}, self.den * self.den
        for row in block:
            if row[2] and all(row is not p for p in pivots.values()):
                raise InconsistentSystem(
                    f"no formal solution at order {n}: identity "
                    f"{self.identities[row[0]].label!r} reduces to "
                    f"{Fraction(-row[2], self._rows[row[0]][0] * row[3] * scale)} = 0")
        for col, fn in enumerate(unknowns):
            if col not in pivots:
                values[fn] = Fraction(self.slot_binder(fn, n))
                self.free_slots_found.append((fn, n))
                log["free"].append(f"{fn}[{n}]")
        for col, row in sorted(pivots.items()):
            rest = [(c, unknowns[k]) for k, c in enumerate(row[1]) if c and k != col]
            values[unknowns[col]] = Fraction(
                row[2] - scale * sum(c * values[fn] for c, fn in rest), scale * row[1][col])
            log["resolved"].append(f"{unknowns[col]}[{n}]")
        log["rank"] = len(pivots)
        if len(pivots) < len(unknowns):
            log["rank_drop"] = {"rank": len(pivots), "unknowns": len(unknowns)}
        return values

    def _order(self, n: int) -> None:
        unknowns = [fn for fn in self.functions if self.x[fn][n] is None]
        rows = [i for i, r in enumerate(self.shifts) if n + r >= 0]
        if unknowns and self._lin_due is not None and self._lin_due <= n < self.lin_from:
            mixed = self._lin is None and len(unknowns) < len(self.functions)
            self._lin = self._constants(self._deriv())
            self._lin_due = n + 1 if mixed else None
        block = []
        for i in rows:
            den, consts = self._lin[i] if unknowns else (1, {})
            c = [0] * len(unknowns)
            for (fn, dord), num in consts.items():
                if fn in unknowns:
                    c[unknowns.index(fn)] += perm(n, dord) * num * self._rows[i][0]
            block.append([i, c, -den * self._value(i, n + self.shifts[i]), den])
        log = {"order": n, "resolved": [], "free": []}
        values = self._solve(n, block, unknowns, log)
        for fn, v in values.items():
            self.x[fn][n] = v
        if n >= self.lin_from:
            self._patch_in(n, values)
        elif values:
            self._fill(max(n - self.d, 0), n + self.rmax)
            for i in rows:
                if self._value(i, n + self.shifts[i]):
                    raise InconsistentSystem(
                        f"no formal solution at order {n}: identity "
                        f"{self.identities[i].label!r} is not affine in the "
                        f"coefficients of order {n}")
        if values:
            self.diagnostics.append(log)

    def run(self) -> None:
        for n in range(self.last + 1):
            if n + self.rmax >= 0:  # one new index, or 0..rmax at first
                self._fill(len(self._leaves[0][0].nums), n + self.rmax)
            if n == self.lin_from:
                self._go_linear()
            self._order(n)

    def series(self) -> dict[str, TruncSeries]:
        return {fn: TruncSeries(self.x[fn][:self.target + 1]) for fn in self.functions}


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
        idents = polynomialize(self.system())
        res = eval_identities(idents, self.functions, self.einstein_lambda)
        return {ident.label: r for ident, r in zip(idents, res)}

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


def slot_key(slot: tuple[str, int]) -> tuple[int, str]:
    """The order slot lists are kept in: by series order, then function."""
    return slot[1], slot[0]


def _run(case: OrbitCase, aw: AloffWallach, seeds: dict, order: int, binder,
         lam: Fraction | None = None) -> _Stream:
    """Run the staircase of the holonomy system, or with lam its Einstein
    system, never pivoting a cataloged slot coefficient."""
    sysid = case.system(aw)
    if lam is not None:
        sysid = sysid.einstein()
    shifts = case.shifts if lam is None else case.einstein.shifts
    slots = frozenset((s.function, s.order) for s in case.slots)
    stream = _Stream(polynomialize(sysid), sysid.functions, shifts, order, seeds, binder,
                     lam, slots)
    stream.run()
    return stream


def _setup(kind: str, case: OrbitCase | str, params: dict | None, order: int,
           k: int | None, l: int | None, lam=None) -> tuple:
    """The case, its orbit, the parameters as rationals and, for kind
    "einstein", lambda as a rational, once the order passes the check of the
    solve's kind ("series", "census" or "einstein") and every parameter name
    is one the solve reads; a census's parameters default to initial values
    2, 3, ...  The seeds and slot scales read the initial data only, so the
    slot values need no split."""
    case = get_case(case) if isinstance(case, str) else case
    least = max((s.order for s in case.slots), default=0) + 1
    if kind == "series" and order < least:
        raise ConstraintError(f"case {case.id} needs order >= {least}, got {order}")
    if kind == "census" and order < 6:
        raise ConstraintError("slot census needs order >= 6")
    if kind == "einstein" and case.einstein is None:
        raise ConstraintError(
            f"case {case.id} has no diagonal Einstein solve (flag and "
            "five-sphere orbits only)"
        )
    names = case.param_names(kind == "einstein")
    if params is not None and (unread := sorted(set(params) - set(names))):
        raise ConstraintError(
            f"the {'Einstein' if kind == 'einstein' else 'holonomy'} solve of case "
            f"{case.id} reads no parameter(s) {', '.join(unread)}; accepted names: "
            f"{', '.join(names)}"
        )
    if kind == "einstein" and order < 3:
        raise ConstraintError(
            f"the Einstein series of case {case.id} needs order >= 3, got {order}"
        )
    lam = rat(lam) if kind == "einstein" else None
    aw = case.resolve_aw(k, l)
    if params is None:
        params = {name: i + 2 for i, name in enumerate(case.required_params)}
    return case, aw, {key: rat(v) for key, v in params.items()}, lam


def solve_series(case: OrbitCase | str, params: dict, order: int = 20,
                 k: int | None = None, l: int | None = None) -> SeriesSolution:
    """Exact power-series solution of a cataloged singular IVP."""
    case, aw, params, _ = _setup("series", case, params, order, k, l)
    by_coeff = {(s.function, s.order): s for s in case.slots}

    def binder(fn: str, o: int) -> Fraction:
        spec = by_coeff.get((fn, o))
        if spec is None:
            raise InconsistentSystem(
                f"unexpected free direction ({fn}, {o}) for case {case.id}"
            )
        if spec.param not in params:
            raise MissingSlotValue(fn, o, spec.param)
        return params[spec.param] * spec.scale(params)

    stream = _run(case, aw, case.seeds(aw, params), order, binder)
    missing = set(by_coeff) - set(stream.free_slots_found)
    if missing:
        raise InconsistentSystem(
            f"declared free slots never became free: {sorted(missing)}"
        )
    return SeriesSolution(
        case=case, aw=aw, functions=stream.series(), bound_params=params,
        free_slots_found=sorted(stream.free_slots_found, key=slot_key),
        diagnostics=stream.diagnostics,
    )


def free_slots(case: OrbitCase | str, order: int = 8, params: dict | None = None,
               k: int | None = None, l: int | None = None,
               probe=Fraction(0)) -> list[tuple[str, int]]:
    """Census of the underdetermined slots, probing with placeholder values."""
    case, aw, params, _ = _setup("census", case, params, order, k, l)
    found: list[tuple[str, int]] = []

    def binder(fn: str, o: int) -> Fraction:
        found.append((fn, o))
        return rat(probe)

    _run(case, aw, case.seeds(aw, params), order, binder)
    return sorted(found, key=slot_key)


def einstein_series(case: OrbitCase | str, params: dict, lam, order: int = 10,
                    k: int | None = None, l: int | None = None) -> SeriesSolution:
    """Diagonal Einstein series at the flag or five-sphere singular orbits.

    Slot parameters carry the theorems' derivative values: f3 is f'''(0)
    (six times the Taylor coefficient).  At the flag orbits the circle fiber
    admits a continuous cone datum f1 = f'(0) and the third-derivative slot
    is realized through it (they are proportional once the orbit metric and
    lambda are fixed); f1 = 0, or the request f'''(0) = 0, lands on the
    degenerate f == 0 branch.  The five-sphere fiber is a two-sphere with no
    cone datum: in the diagonal arclength gauge the recursion determines
    a'''(0) from (b0, f0, (b-c)'(0), lambda); the further third-order
    freedom of the general theory lives in the non-diagonal sector, which
    this artifact counts but does not solve.  A third derivative the datum
    determines (a3, or f3 next to f1) is checked, not consumed.
    """
    case, aw, params, lam = _setup("einstein", case, params, order, k, l, lam)
    spec, flag = case.einstein, case.orbit != "s5"
    slot, run = spec.coeff_slots[0], params
    if flag and "f1" not in params:
        if slot.param not in params:
            raise MissingSlotValue(slot.function, slot.order, slot.param)
        f3 = params[slot.param]
        if f3 and any(params.get(p) for p, _, _ in spec.combo_slots):
            raise ConstraintError(
                "with a nonzero first-derivative datum the cone datum is not "
                f"rational in f'''(0); pass f1 explicitly instead of {slot.param}"
            )
        if f3:
            # reference pass: f'''(0) is proportional to the cone datum f'(0);
            # the slope only reads f[3]: at target order 1 the blocks run
            # through order 1 + d = 3
            ref = {key: v for key, v in params.items() if key != slot.param}
            ref["f1"] = case.circle_rate(aw)
            slope = 6 * _einstein_stream(case, aw, ref, lam, 1).x["f"][3] / ref["f1"]
            if slope == 0:
                raise ConstraintError(
                    f"no formal solution: f'''(0) is forced to 0 at lambda={lam}"
                )
            f3 /= slope
        run = {**params, "f1": f3}
    degenerate = flag and run["f1"] == 0
    if degenerate:
        # the circle fiber vanishes identically and the other functions follow
        # the first-order flag branch: a Ricci-flat branch only
        if not case.degenerate:
            raise ConstraintError(
                f"the f'(0) = 0 degeneration is not cataloged for case {case.id}"
            )
        if lam != 0:
            raise ConstraintError(
                "f'''(0) = 0 forces the degenerate f == 0 branch, which is "
                "Ricci-flat only; pass lambda 0"
            )
        names = case.param_names()
        solved = solve_series(case, {key: v for key, v in params.items() if key in names},
                              order=order, k=aw.k, l=aw.l)
        functions, log = solved.functions, solved.diagnostics
    else:
        stream = _einstein_stream(case, aw, run, lam, order)
        functions, log = stream.series(), stream.diagnostics
    # the five-sphere recursion determines the coefficient slot: not free there
    sol = SeriesSolution(
        case=case, aw=aw, functions=functions, bound_params=params,
        free_slots_found=spec.slots if flag else spec.slots[:len(spec.combo_slots)],
        diagnostics=log, einstein_lambda=lam,
    )
    if degenerate and not sol.verify_exact():  # pragma: no cover - zero residuals
        raise InconsistentSystem("degenerate branch failed the Einstein identities")
    realized = 6 * functions[slot.function].coef[slot.order]
    if params.get(slot.param, realized) != realized:
        raise ConstraintError(
            f"in the diagonal arclength gauge {slot.function}'''(0) is determined as "
            f"{realized}; the requested value {params[slot.param]} needs "
            + (f"another cone datum than f1 = {run['f1']}" if flag
               else "the non-diagonal sector")
        )
    if not flag:
        log.append({"order": "post", "determined": {slot.param: str(realized)}})
    return sol


def _einstein_stream(case: OrbitCase, aw: AloffWallach, params: dict, lam: Fraction,
                     order: int) -> _Stream:
    """The Einstein staircase; no slot binds a free coefficient there."""
    def binder(fn: str, o: int) -> Fraction:
        datum = ", ".join(f"{key}={v}" for key, v in sorted(params.items()))
        raise ResonantDatum(
            f"case {case.id}: the datum {datum}, lambda={lam} is resonant at "
            f"order n = {o}: the Einstein recursion leaves {fn}[{o}] free and "
            "no cataloged slot binds it"
        )

    return _run(case, aw, case.einstein_seeds(aw, params), order, binder, lam)


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
