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

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, repeat
from math import gcd, lcm, perm
from operator import add, mul

from .cases import ConstraintError, MissingSlotValue, OrbitCase, get_case
from .exact import Scaled, TruncSeries, pair_sum, rat, rat_str, ratio_sum
from .polyident import PolyIdentity, eval_identities, polynomialize, product_plan
from .reptheory import AloffWallach
from .systems import SystemId


class InconsistentSystem(ValueError):
    """The linear step has no solution (exit code 4)."""


class ResonantDatum(ConstraintError):
    """An Einstein datum at which a coefficient no slot binds is free (exit code 3)."""


# -- affine values over pending unknowns ----------------------------------------


def _affine(acc: dict) -> dict:
    """The affine form {pid: Fraction, None: constant} of an accumulator that
    maps each key to the integer ratios (n, d) of its terms; zero terms drop."""
    return {p: c for p, terms in acc.items() if (c := ratio_sum(terms))}


def _settle(form: dict) -> dict | tuple[int, int]:
    """An affine form without pendings as its reduced pair (n, d)."""
    if any(p is not None for p in form):
        return form
    return Fraction(form.get(None, 0)).as_integer_ratio()


def _subst(form: dict, env: dict[int, dict]) -> dict:
    """Replace the resolved pendings of an affine form by their affine forms."""
    acc: dict = {}
    for p, c in form.items():
        for q, e in (env[p] if p in env else {p: 1}).items():
            acc.setdefault(q, []).append((c.numerator * e.numerator,
                                          c.denominator * e.denominator))
    return _affine(acc)


def _fresh(value: tuple[int, int] | dict, env: dict[int, dict]) -> tuple[int, int] | dict:
    """A live value with its resolved pendings replaced; a settled or an
    untouched value comes back as it is."""
    if type(value) is tuple or not any(p in env for p in value):
        return value
    return _settle(_subst(value, env))


def _dot(products) -> tuple[int, int] | dict | None:
    """Sum of a * b over pairs of cache entries: settled products go through
    one `pair_sum`, products with one live factor through the accumulator.
    A product of two live factors, or of a `None` entry and a factor that is
    not a settled zero, makes the sum `None`: not affine yet."""
    pairs, acc = [], {}
    for a, b in products:
        if type(a) is not tuple:
            a, b = b, a
        if type(a) is not tuple:
            return None
        if not a[0]:
            continue
        if type(b) is tuple:
            if b[0]:
                pairs.append((a[0] * b[0], a[1] * b[1]))
        elif b is None:
            return None
        else:
            for p, c in b.items():
                acc.setdefault(p, []).append((a[0] * c.numerator, a[1] * c.denominator))
    if not acc:
        return pair_sum(pairs)
    acc.setdefault(None, []).extend(pairs)
    return _settle(_affine(acc))


# -- streaming staircase solver ----------------------------------------------------


class _Stream:
    """Streaming staircase: row j of every identity is processed at step j.

    Rows that are affine in the pending coefficients are eliminated exactly;
    a row with a product of two live pendings waits (later eliminations and
    slot bindings linearize it).  The system order d is the highest
    derivative in the identities: coefficient o is introduced at step o - d,
    and a pending still live at step o + d (a lag of 2d) is a free slot and
    consumes a value from the binder.

    Every product a term needs is cached once, split as `product_plan` says and
    shared by all terms.  A settled value is a reduced pair (n, d), a live
    one an affine form {pid: Fraction, None: constant}.  In the bootstrap a
    cache entry or row that is not affine yet is `None` and is computed again
    when it is read.  After the bootstrap (see `_go_linear`) every cache is a
    `Scaled` series that reads the unsettled coefficients as 0, patched as
    they settle, and a row is its settled part plus the leading-order L(j)
    times them.  All caches then share one denominator, so a Cauchy
    coefficient is one integer dot over its square.
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
        self.coeffs: dict[str, list[tuple[int, int] | dict | None]] = {
            fn: [None] * (self.internal + 1) for fn in functions
        }
        for (fn, o), v in seeds.items():
            self.coeffs[fn][o] = Fraction(v).as_integer_ratio()
        self.env: dict[int, dict] = {}
        self.live: dict[int, tuple[str, int]] = {}  # pid -> (fn, order)
        self._next_pid = 0
        self.diagnostics: list[dict] = []
        self.free_slots_found: list[tuple[str, int]] = []
        self._caches: dict[tuple[tuple[str, int], ...], list | Scaled] = defaultdict(list)
        # linear phase: the coefficients the entries read as 0; the common
        # denominator of the caches and that of the patch series; per leaf
        # (fn, dord) the (cache, numerators of the low coefficients of d node /
        # d leaf) of its nodes; per identity the lcm of its term coefficients'
        # denominators with its terms (weight, cache, None) or, for a top
        # product, (weight, left half, right half), and (fn, delta) -> (den,
        # ((dord, num), ...)) with L_{fn[j+delta]}(j) = sum num perm(j + delta,
        # dord) / den
        self._zeroed: dict[tuple[str, int], None] | None = None
        self._den = self._patch_den = 1
        self._patch: dict[tuple[str, int], list[tuple[Scaled, list[int]]]] = defaultdict(list)
        self._leaves: list[tuple[Scaled, str, int]] = []  # (cache, fn, dord)
        self._nodes: list[tuple[Scaled, Scaled, Scaled]] = []  # (cache, left, right)
        self._row_terms: list[tuple[int, list[tuple[int, Scaled, Scaled | None]]]] = []
        self._lin: list[dict[tuple[str, int], tuple]] = []
        if lam is None and any(t.lam for ident in identities for t in ident.terms):
            raise ValueError("identity carries the Einstein constant; pass lambda")
        self._terms = [[(q.as_integer_ratio(), t.factors) for t in ident.terms
                        if (q := t.coeff * (lam or 0) ** t.lam)] for ident in identities]
        self._keys = frozenset(key for terms in self._terms for _, key in terms)
        self._plan = product_plan(self._keys)

    # ---- coefficient bookkeeping

    def _introduce(self, order: int) -> list[str]:
        fresh = []
        for fn in self.functions:
            if self.coeffs[fn][order] is None:
                pid = self._next_pid
                self._next_pid += 1
                self.coeffs[fn][order] = {pid: Fraction(1)}
                self.live[pid] = (fn, order)
                fresh.append(f"{fn}[{order}]")
        return fresh

    def _coef(self, fn: str, order: int) -> tuple[int, int] | dict:
        value = self.coeffs[fn][order]
        if value is None:  # pragma: no cover - guarded by the staircase layout
            raise AssertionError(f"coefficient {fn}[{order}] read before introduction")
        value = self.coeffs[fn][order] = _fresh(value, self.env)
        return value

    def _factor_coef(self, fn: str, dord: int, u: int) -> tuple[int, int] | dict:
        """Coefficient u of the dord-th derivative of fn, as a cache entry."""
        value, mult = self._coef(fn, u + dord), perm(u + dord, dord)
        if type(value) is tuple:
            return Fraction(value[0] * mult, value[1]).as_integer_ratio()
        return {p: c * mult for p, c in value.items()}

    # ---- identity coefficient via the shared product plan

    def _product(self, key: tuple[tuple[str, int], ...], j: int
                 ) -> tuple[int, int] | dict | None:
        """Coefficient j of the product of the factors in `key`."""
        cache = self._caches[key]
        if len(cache) <= j:
            if len(key) == 1:
                for jj in range(len(cache), j + 1):
                    cache.append(self._factor_coef(*key[0], jj))
            else:
                for half in self._plan[key]:
                    self._product(half, j)
                for jj in range(len(cache), j + 1):
                    cache.append(self._cauchy(key, jj))
        value = cache[j]
        if type(value) is not tuple:
            value = cache[j] = (self._cauchy(key, j) if value is None
                                else _fresh(value, self.env))
        return value

    def _cauchy(self, key: tuple[tuple[str, int], ...], j: int
                ) -> tuple[int, int] | dict | None:
        """Coefficient j of a product node from the two halves of its split."""
        left, right = self._plan[key]
        for half in (left, right):
            cache = self._caches[half]
            for u in range(j + 1):
                if type(cache[u]) is not tuple:
                    self._product(half, u)
        return _dot(zip(self._caches[left][:j + 1], self._caches[right][j::-1]))

    def _row(self, ident_idx: int, j: int) -> tuple[int, int] | dict | None:
        if self._zeroed is None:
            return _dot((coeff, self._product(key, j)) for coeff, key in self._terms[ident_idx])
        lcd, terms = self._row_terms[ident_idx]
        cached = top = 0
        for w, a, b in terms:
            if b is None:
                cached += w * a.nums[j]
            else:
                top += w * sum(map(mul, a.nums[:j + 1], b.nums[j::-1]))
        products = [((cached * self._den + top, lcd * self._den * self._den), (1, 1))]
        for fn, o in self._zeroed:  # plus L(j) times each unsettled coefficient
            if (a := self._lin[ident_idx].get((fn, o - j))) is not None:
                products.append(((sum(n * perm(o, dord) for dord, n in a[1]), a[0]),
                                 self._coef(fn, o)))
        return _dot(products)

    # ---- linear phase

    def _go_linear(self, j: int) -> None:
        """Switch at the start of step j = 4d + 1 or later, with no row deferred.

        Every declared slot has order <= 3d and the Einstein systems declare
        none, so all slots are bound by step 4d; with no slot left a pivot is
        the freshest unknown, so a resolved form holds only pendings of at
        most its own order, and `_overdue` leaves none below j - d.  Every
        unsettled coefficient thus has order >= j - d and enters a product
        at index >= j - 2d: no coefficient of index <= j of any product holds
        two of them (2 (j - 2d) > j), and every row is affine in them.  The
        rows that are not affine (E, G and H at step 3, the Einstein trace
        row of D through step 4) all lie in the bootstrap.
        """
        d, keep = self.d, j - 2 * self.d
        for key, cache in list(self._caches.items()):  # entries below keep are final
            del cache[keep:]
            for m, value in enumerate(cache):
                if type(value) is not tuple:
                    self._product(key, m)
        assert all(type(self._coef(fn, o)) is tuple for fn in self.functions
                   for o in range(j - d))
        zeroed = {(fn, o): None for fn in self.functions for o in range(j - d, j + d)
                  if type(self._coef(fn, o)) is not tuple}
        # dN/dl = dL/dl R + L dR/dl over the split N = L R, to index d + dord
        # of the leaf l = (fn, dord): it reads the halves' entries <= 2d, all
        # final.  A top product, a term's that is no node's half, is not
        # cached from here on, as nothing reads it again.
        halves = {half for split in self._plan.values() for half in split}
        tops = {key for key in self._keys if len(key) > 1 and key not in halves}
        deriv = {(f,): {f: [(1, 1)] + [(0, 1)] * (d + f[1])}
                 for f in {f for key in self._keys for f in key}}
        for node in sorted({*self._plan, *self._keys} - deriv.keys(), key=len):
            sums: dict = {}
            for a, b in permutations(self._plan[node]):
                low = [(v, *p) for v, p in enumerate(self._caches[b][:2 * d + 1]) if p[0]]
                for leaf, series in deriv[a].items():
                    terms = sums.setdefault(leaf, [[] for _ in series])
                    for u, (x, dx) in enumerate(series):
                        for v, y, dy in low if x else ():
                            if u + v < len(terms):
                                terms[u + v].append((x * y, dx * dy))
            deriv[node] = {leaf: [pair_sum(t) if len(t) > 1 else t[0] if t else (0, 1)
                                  for t in terms] for leaf, terms in sums.items()}
        caches = self._caches = {node: Scaled.of(self._caches[node])
                                 for node in deriv if node not in tops}
        self._grow(lcm(*(cache.den for cache in caches.values())))
        self._leaves = [(caches[node], *node[0]) for node in caches if len(node) == 1]
        self._nodes = [(caches[node], *(caches[h] for h in self._plan[node]))
                       for node in caches if len(node) > 1]  # in size order
        patch = [(cache, leaf, series) for node, cache in caches.items()
                 for leaf, series in deriv[node].items()]
        self._patch_den = lcm(*(den for *_, series in patch for _, den in series))
        for cache, leaf, series in patch:
            self._patch[leaf].append(
                (cache, [n * (self._patch_den // den) for n, den in series]))
        for terms in self._terms:
            lcd = lcm(*(cd for (_, cd), _ in terms))
            self._row_terms.append((lcd, [
                (cn * (lcd // cd), *((caches[h] for h in self._plan[key]) if key in tops
                                     else (caches[key], None))) for (cn, cd), key in terms]))
            acc = defaultdict(list)
            for (cn, cd), key in terms:
                for (fn, dord), series in deriv[key].items():
                    for k, (n, den) in enumerate(series):
                        if n:
                            acc[fn, dord - k, dord].append((cn * n, cd * den))
            lin = defaultdict(list)
            for (fn, delta, dord), pairs in acc.items():
                if (a := pair_sum(pairs))[0]:
                    lin[fn, delta].append((dord, a))
            self._lin.append({c: (den := lcm(*(a[1] for _, a in row)), tuple(
                (dord, n * (den // ad)) for dord, (n, ad) in row)) for c, row in lin.items()})
        self._zeroed = zeroed

    def _grow(self, den: int) -> None:
        """Put every cache over den, a multiple of their common denominator."""
        self._den = den
        for cache in self._caches.values():
            cache.rescale(den)

    def _sync(self, j: int) -> None:
        """Patch every entry that read a now settled coefficient as 0 and
        read the coefficients of order j + d as 0.  The common denominator
        grows at most once; a patch is then one integer add per entry."""
        fresh = []
        for fn, o in list(self._zeroed):
            if type(value := self._coef(fn, o)) is not tuple:
                continue
            del self._zeroed[fn, o]
            if value[0]:
                fresh.append((fn, o, *value))
        den = lcm(self._den, *(vd * self._patch_den for *_, vd in fresh))
        if den != self._den:
            self._grow(den)
        size = len(self._leaves[0][0].nums)  # the length of every cache
        for fn, o, vn, vd in fresh:
            for dord in range(max(o - size + 1, 0), self.d + 1):
                f = vn * perm(o, dord) * (den // (vd * self._patch_den))
                for cache, series in self._patch[fn, dord]:
                    nums = cache.nums  # series is no shorter than this tail
                    nums[o - dord:] = map(add, nums[o - dord:], map(mul, series, repeat(f)))
        for fn in self.functions:
            self._zeroed[fn, j + self.d] = None

    def _extend(self, j: int) -> None:
        """Extend every cache through index j, reading the unsettled
        coefficients as 0: a new entry of a product is one integer dot of
        its halves' numerators over den^2 and one exact division by den."""
        for cache, fn, dord in self._leaves:
            for o in range(len(cache.nums) + dord, j + dord + 1):
                n, d = (0, 1) if (fn, o) in self._zeroed else self._coef(fn, o)
                n = self._over_den(n * perm(o, dord), d)  # may replace cache.nums
                cache.nums.append(n)
        for cache, left, right in self._nodes:  # halves first
            for m in range(len(cache.nums), j + 1):
                n = sum(map(mul, left.nums[:m + 1], right.nums[m::-1]))
                n = self._over_den(n, self._den * self._den)
                cache.nums.append(n)

    def _over_den(self, n: int, d: int) -> int:
        """The numerator of n / d over the common denominator, which grows to
        the lcm with the reduced d when that does not divide it."""
        q, r = divmod(n * self._den, d)
        if not r:
            return q
        self._grow(lcm(self._den, d // gcd(n, d)))
        return n * self._den // d

    # ---- elimination

    def _resolve(self, pid: int, form: dict) -> None:
        self.env[pid] = form
        del self.live[pid]
        sub = {pid: form}
        for other, val in list(self.env.items()):
            if pid in val:
                self.env[other] = _subst(val, sub)

    def _eliminate_row(self, ident_idx: int, j_row: int, j: int, log: dict) -> bool:
        """Use an affine row to resolve one pending; defer a row not affine yet."""
        row = self._row(ident_idx, j_row)
        if row is None:
            return False
        if type(row) is tuple:
            if row[0]:
                raise InconsistentSystem(
                    f"no formal solution at order {j}: identity "
                    f"{self.identities[ident_idx].label!r} reduces to "
                    f"{Fraction(*row)} = 0"
                )
            return True

        # never pivot a declared slot coefficient while anything else is
        # available, so the free direction is reported in the cataloged
        # coordinates; otherwise resolve the freshest unknown first
        def rank_key(p):
            return (self.live[p] not in self.avoid_pivot, self.live[p][1], p)

        pivot = max((p for p in row if p is not None), key=rank_key)
        fn, order = self.live[pivot]
        cp = row[pivot]
        self._resolve(pivot, {p: -c / cp for p, c in row.items() if p != pivot})
        log["rank"] += 1
        log["resolved"].append(f"{fn}[{order}]")
        return True

    # ---- slot binding

    def _bind(self, pid: int, log: dict) -> None:
        fn, order = self.live[pid]
        value = self.slot_binder(fn, order)
        self.free_slots_found.append((fn, order))
        log["free"].append(f"{fn}[{order}]")
        self._resolve(pid, {None: Fraction(value)})

    def _overdue(self, j: int) -> list[int]:
        due = [p for p, (_, order) in self.live.items() if order <= j - self.d]
        return sorted(due, key=lambda p: (self.live[p][1], self.live[p][0]))

    # ---- main loop

    def run(self) -> None:
        deferred: list[tuple[int, int]] = []
        for j in range(0, self.internal - self.d + 1):
            if self._zeroed is None and j > 4 * self.d and not deferred:
                self._go_linear(j)
            log = {"order": j, "introduced": [], "resolved": [], "free": [],
                   "rank": 0}
            for o in range(j + self.d + 1):
                log["introduced"].extend(self._introduce(o))
            if self._zeroed is not None:
                self._sync(j)
                self._extend(j)
            queue = deferred + [(i, j) for i in range(len(self.identities))]
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

    def _drain(self, queue: list[tuple[int, int]], j: int, log: dict
               ) -> list[tuple[int, int]]:
        """Eliminate the queued rows (identity, step) until none makes
        progress; the rows not affine yet are returned."""
        while True:
            leftover = [item for item in queue if not self._eliminate_row(*item, j, log)]
            if not leftover or len(leftover) == len(queue):
                return leftover
            queue = leftover

    def series(self) -> dict[str, TruncSeries]:
        out = {}
        for fn in self.functions:
            coef = []
            for o in range(self.target + 1):
                value = self._coef(fn, o)
                if type(value) is not tuple:
                    raise InconsistentSystem(
                        f"coefficient {fn}[{o}] left undetermined"
                    )
                coef.append(Fraction(*value))
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


def _split_params(case: OrbitCase, params: dict) -> tuple[dict, dict]:
    params = {k: rat(v) for k, v in params.items()}
    slot_names = {s.param for s in case.slots}
    slot_params = {k: v for k, v in params.items() if k in slot_names}
    init_params = {k: v for k, v in params.items() if k not in slot_names}
    return init_params, slot_params


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
        free_slots_found=sorted(stream.free_slots_found, key=slot_key),
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
    return sorted(found, key=slot_key)


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
    # slope only reads f[3], which the steps 0..2d of a staircase settle
    ref = {**params, "f1": case.circle_rate(aw)}
    ref.pop(fslot.param, None)
    ref3 = _einstein_stream(case, aw, ref, lam, 0)._coef("f", 3)
    if type(ref3) is not tuple:
        raise InconsistentSystem("the reference staircase left f[3] undetermined")
    slope = 6 * Fraction(*ref3) / ref["f1"]
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
    stream = _einstein_stream(case, aw, params, lam, order)
    return SeriesSolution(
        case=case, aw=aw, functions=stream.series(), bound_params=dict(params),
        free_slots_found=spec.slots, diagnostics=stream.diagnostics,
        einstein_lambda=lam,
    )


def _einstein_stream(case, aw, params, lam, order):
    """The Einstein staircase; no slot binds a free coefficient there."""
    def binder(fn: str, o: int) -> Fraction:
        datum = ", ".join(f"{key}={v}" for key, v in sorted(params.items()))
        raise ResonantDatum(
            f"case {case.id}: the datum {datum}, lambda={lam} is resonant at "
            f"order n = {o}: the Einstein recursion leaves {fn}[{o}] free and "
            "no cataloged slot binds it"
        )

    return _run(case, aw, case.einstein_seeds(aw, params), order, binder, lam)


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
