"""Polynomial identities obtained by clearing denominators in the ODE systems.

Each identity is a sum of terms coeff * lambda^p * prod(function^(derivative))
that vanishes identically on exact solutions.  These drive the order-by-order
recursion and the exact re-substitution checks, and `compiled` turns them
into the straight-line float code of the flow and of the Einstein residual.
"""
from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm, perm
from operator import mul
from types import MappingProxyType
from typing import TYPE_CHECKING

from .exact import Scaled, TruncSeries

if TYPE_CHECKING:
    from .systems import SystemId


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    factors: tuple[tuple[str, int], ...]  # sorted (function, derivative order)
    lam: int = 0  # power of the Einstein constant


@dataclass(frozen=True)
class PolyIdentity:
    label: str
    terms: tuple[Term, ...]

    def eval_series(self, funcs: dict[str, TruncSeries],
                    lam: Fraction | None = None) -> TruncSeries:
        """Substitute exact series; the result is zero iff they solve the ODE."""
        return eval_identities([self], funcs, lam)[0]


def eval_identities(identities: list[PolyIdentity], funcs: dict[str, TruncSeries],
                    lam: Fraction | None = None) -> list[TruncSeries]:
    """Substitute exact series into every identity in one pass.

    Each function is scaled once to integer numerators over one common
    denominator (`exact.Scaled`).  Its derivative series and the products of
    `term_plan` are built from those once per call and shared by every term
    of every identity, each product reduced once by its content.  An output
    coefficient sums its terms' numerators over the lcm of their
    denominators and is reduced once.
    """
    base = min(s.order for s in funcs.values())
    plan = term_plan(identities)
    factors = {f for ident in identities for t in ident.terms for f in t.factors}
    scaled = {fn: Scaled.of(c.as_integer_ratio() for c in funcs[fn].coef[:base + 1])
              for fn in {fn for fn, _ in factors}}
    prods = {((fn, d),): Scaled([n * perm(i, d) for i, n in enumerate(scaled[fn].nums[d:], d)],
                                scaled[fn].den)
             for fn, d in factors}
    prods[()] = Scaled([1] + [0] * base)
    out = []
    for ident in identities:
        if lam is None and any(t.lam for t in ident.terms):
            raise ValueError(f"identity {ident.label} needs a lambda value")
        terms = [(q, _product(prods, plan, t.factors))
                 for t in ident.terms if (q := t.coeff * Fraction(lam or 0) ** t.lam)]
        # one derivative drops the usable order by its level
        n = base - max((d for t in ident.terms for _, d in t.factors), default=0)
        den = lcm(*(q.denominator * p.den for q, p in terms))
        weights = [q.numerator * (den // (q.denominator * p.den)) for q, p in terms]
        out.append(TruncSeries([Fraction(sum(map(mul, weights, column)), den) for column
                                in zip(*(p.nums[:n + 1] for _, p in terms))], order=n))
    return out


def _product(prods: dict, plan: MappingProxyType, key: tuple) -> Scaled:
    """The product of the factors in key, memoized in prods; a leaf is a
    `Scaled` or a list of integer ratios."""
    if key not in prods:
        a, b = (_product(prods, plan, half) for half in plan[key])
        prods[key] = Scaled.of(a) * Scaled.of(b)
    return prods[key]


def term_plan(identities) -> MappingProxyType:
    """The `product_plan` of the factor multisets of the identities' terms."""
    return product_plan(frozenset(t.factors for ident in identities for t in ident.terms))


@cache
def product_plan(keys: frozenset) -> MappingProxyType:
    """node -> (left, right) for every product of two or more factors that the
    terms, keyed by their sorted factor tuples, need.  Greedy: the pair of
    sub-products held by the most terms (ties: the lexicographically least)
    is merged in each term holding it, until every term is one node.  The
    pairs are counted afresh at every merge; the plan is built once per key
    set.
    """
    nodes = sorted({(f,) for key in keys for f in key})
    ids = {node: i for i, node in enumerate(nodes)}
    plan: dict = {}
    terms = [Counter(ids[(f,)] for f in key) for key in sorted(keys) if len(key) > 1]
    while True:
        held = Counter()  # pair of ids, the lower first -> terms holding it
        for term in terms:
            s = sorted(term)
            held.update((x, y) for i, x in enumerate(s) for y in s[i + (term[x] < 2):])
        if not held:
            return MappingProxyType(plan)
        most = max(held.values())
        x, y = min((pair for pair, n in held.items() if n == most),
                   key=lambda pair: (nodes[pair[0]], nodes[pair[1]]))
        node = tuple(sorted(nodes[x] + nodes[y]))
        if node not in ids:
            ids[node], plan[node] = len(nodes), (nodes[x], nodes[y])
            nodes.append(node)
        for term in terms:
            if k := min(term[x], term[y]) // (1 + (x == y)):
                term.subtract([x, y] * k)
                term[ids[node]] += k
                for old in {x, y}:
                    if not term[old]:
                        del term[old]


def _t(coeff, *factors, lam=0):
    counted = []
    for fac in factors:
        if isinstance(fac, tuple):
            name, d, power = (*fac, 1) if len(fac) == 2 else fac
        else:
            name, d, power = fac, 0, 1
        counted.extend([(name, d)] * power)
    return Term(Fraction(coeff), tuple(sorted(counted)), lam)


def _torus_weights(k: int, l: int) -> tuple[int, dict[str, int]]:
    """delta = k^2 + kl + l^2 and the torus weight of N^{k,l} on a, b, c."""
    return k * k + k * l + l * l, {"a": k + l, "b": -l, "c": -k}


def _s1_identities(k: int, l: int) -> list[PolyIdentity]:
    D, w = _torus_weights(k, l)

    def metric(x: str, o1: str, o2: str) -> PolyIdentity:
        return PolyIdentity(x, (
            _t(2 * D, (x, 1), "a", "b", "c"),
            _t(-2 * D, x, (o1, 0, 2)),
            _t(-2 * D, x, (o2, 0, 2)),
            _t(2 * D, (x, 0, 3)),
            _t(w[x], "f", o1, o2),
        ))
    i_f = PolyIdentity("f", (
        _t(2 * D, ("f", 1), ("a", 0, 2), ("b", 0, 2), ("c", 0, 2)),
        *(_t(-w[x], ("f", 0, 2), (y, 0, 2), (z, 0, 2)) for x, y, z in ("abc", "bac", "cab")),
    ))
    return [metric("a", "b", "c"), metric("b", "c", "a"), metric("c", "a", "b"), i_f]


def _s2_identities() -> list[PolyIdentity]:
    def fiber(x: str, y: str) -> PolyIdentity:  # a1, or a2 with the roles swapped
        return PolyIdentity(x, (
            _t(3, (x, 1), y, "b", "c", "f"),
            _t(-3, y, "f", ("b", 0, 2)),
            _t(-3, y, "f", ("c", 0, 2)),
            _t(3, y, "f", (x, 0, 2)),
            _t(-9, "b", "c", (x, 0, 2)),
            _t(9, "b", "c", (y, 0, 2)),
            _t(1, ("f", 0, 2), "b", "c"),
        ))

    def base(x: str, o: str) -> PolyIdentity:  # b, or c with the roles swapped
        return PolyIdentity(x, (
            _t(6, (x, 1), "a1", "a2", "b", "c"),
            _t(-3, "a2", x, ("a1", 0, 2)),
            _t(-3, "a2", x, (o, 0, 2)),
            _t(3, "a2", (x, 0, 3)),
            _t(-3, "a1", x, ("a2", 0, 2)),
            _t(-3, "a1", x, (o, 0, 2)),
            _t(3, "a1", (x, 0, 3)),
            _t(-1, "f", "a1", "a2", o),
        ))
    i5 = PolyIdentity("f", (
        _t(6, ("f", 1), "a1", "a2", ("b", 0, 2), ("c", 0, 2)),
        _t(18, ("a1", 0, 2), ("b", 0, 2), ("c", 0, 2)),
        _t(-36, "a1", "a2", ("b", 0, 2), ("c", 0, 2)),
        _t(18, ("a2", 0, 2), ("b", 0, 2), ("c", 0, 2)),
        _t(-2, ("f", 0, 2), ("b", 0, 2), ("c", 0, 2)),
        _t(1, ("f", 0, 2), "a1", "a2", ("c", 0, 2)),
        _t(1, ("f", 0, 2), "a1", "a2", ("b", 0, 2)),
    ))
    return [fiber("a1", "a2"), fiber("a2", "a1"), base("b", "c"), base("c", "b"), i5]


def _einstein(x: str, mult: dict[str, int], clear: dict[str, int], *orbit) -> PolyIdentity:
    """The Einstein equation of x, or of d/dt for "trace", times its clearing
    multiplier M = prod(fn^clear[fn]).  The metric is dt^2 + sum(fn^2 g_fn),
    g_fn spanning mult[fn] orbit directions, mult in the system's order.  The
    radial part is -x''/x - (mult[x] - 1)(x'/x)^2 - sum over fn != x of
    mult[fn] x'fn'/(x fn), and -sum(mult[fn] fn''/fn) for the trace.  The
    identity is M times it, then the orbit terms (given cleared), then -lambda M."""
    def term(coeff, *derivs, lam=0) -> Term:  # M times the product of fn^(d)/fn
        over = Counter(fn for fn, _ in derivs)
        return _t(coeff, *derivs, *((fn, 0, p - over[fn]) for fn, p in clear.items()), lam=lam)

    if x == "trace":
        radial = [term(-m, (fn, 2)) for fn, m in mult.items()]
    else:
        radial = [term(-1, (x, 2))]
        if mult[x] > 1:
            radial.append(term(1 - mult[x], (x, 1), (x, 1)))
        radial += [term(-m, (x, 1), (fn, 1)) for fn, m in mult.items() if fn != x]
    return PolyIdentity(x, (*radial, *orbit, term(-1, lam=1)))


def _e1_identities(k: int, l: int) -> list[PolyIdentity]:
    """The generic Einstein system; the multipliers are a^4 b^2 c^2 f for the
    a-equation (b and c alike), a^4 b^4 c^4 f for f and abcf for the trace."""
    D, w = _torus_weights(k, l)
    w2 = {x: Fraction(v * v, D * D) for x, v in w.items()}
    mult = {"a": 2, "b": 2, "c": 2, "f": 1}

    def metric(x: str, o1: str, o2: str) -> PolyIdentity:
        return _einstein(
            x, mult, {x: 4, o1: 2, o2: 2, "f": 1},
            _t(6, (x, 0, 2), (o1, 0, 2), (o2, 0, 2), "f"),
            _t(-w2[x] / 2, ("f", 0, 3), (o1, 0, 2), (o2, 0, 2)),
            _t(1, (x, 0, 6), "f"),
            *(_t(-1, (x, 0, 2), (o, 0, 4), "f") for o in (o1, o2)),
        )
    i_f = _einstein(
        "f", mult, {"a": 4, "b": 4, "c": 4, "f": 1},
        *(_t(w2[x] / 2, ("f", 0, 3), (y, 0, 4), (z, 0, 4)) for x, y, z in ("abc", "bac", "cab")),
    )
    return [metric("a", "b", "c"), metric("b", "a", "c"), metric("c", "a", "b"), i_f,
            _einstein("trace", mult, dict.fromkeys(mult, 1))]


def _e2_identities() -> list[PolyIdentity]:
    """The (1, 1) Einstein system; the multipliers are a1^4 a2^2 b^2 c^2 f^2
    for the a1-equation (a2 alike), a1^2 a2^2 b^4 c^2 f for b (c alike),
    a1^2 a2^2 b^4 c^4 f^2 for f and a1 a2 b c f for the trace."""
    mult = {"a1": 1, "a2": 1, "b": 2, "c": 2, "f": 1}

    def fiber(x: str, y: str) -> PolyIdentity:
        return _einstein(
            x, mult, {x: 4, y: 2, "b": 2, "c": 2, "f": 2},
            _t(6, (x, 0, 2), (y, 0, 2), ("b", 0, 2), ("c", 0, 2), ("f", 0, 2)),
            _t(Fraction(-2, 9), ("f", 0, 4), (x, 0, 2), ("b", 0, 2), ("c", 0, 2)),
            _t(18, (x, 0, 6), ("b", 0, 2), ("c", 0, 2)),
            _t(-18, (x, 0, 2), (y, 0, 4), ("b", 0, 2), ("c", 0, 2)),
            _t(1, (x, 0, 6), (y, 0, 2), ("f", 0, 2)),
            *(_t(-1, (x, 0, 2), (y, 0, 2), (o, 0, 4), ("f", 0, 2)) for o in "bc"),
        )

    def base(x: str, o: str) -> PolyIdentity:
        return _einstein(
            x, mult, {"a1": 2, "a2": 2, x: 4, o: 2, "f": 1},
            _t(6, (x, 0, 2), ("a1", 0, 2), ("a2", 0, 2), (o, 0, 2), "f"),
            _t(Fraction(-1, 18), ("f", 0, 3), ("a1", 0, 2), ("a2", 0, 2), (o, 0, 2)),
            # (x^4 - z^4 - o^4) / (2 z^2 x^2 o^2) for each fibre z, y the other
            *(t for z, y in (("a1", "a2"), ("a2", "a1")) for t in (
                _t(Fraction(1, 2), (x, 0, 6), (y, 0, 2), "f"),
                _t(Fraction(-1, 2), (z, 0, 4), (y, 0, 2), (x, 0, 2), "f"),
                _t(Fraction(-1, 2), (y, 0, 2), (x, 0, 2), (o, 0, 4), "f"))),
        )
    i_f = _einstein(
        "f", mult, {"a1": 2, "a2": 2, "b": 4, "c": 4, "f": 2},
        _t(36, ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 4), ("c", 0, 4)),
        _t(-18, ("a1", 0, 4), ("b", 0, 4), ("c", 0, 4)),
        _t(-18, ("a2", 0, 4), ("b", 0, 4), ("c", 0, 4)),
        _t(Fraction(2, 9), ("f", 0, 4), ("b", 0, 4), ("c", 0, 4)),
        _t(Fraction(1, 18), ("f", 0, 4), ("a1", 0, 2), ("a2", 0, 2), ("c", 0, 4)),
        _t(Fraction(1, 18), ("f", 0, 4), ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 4)),
    )
    return [fiber("a1", "a2"), fiber("a2", "a1"), base("b", "c"), base("c", "b"), i_f,
            _einstein("trace", mult, dict.fromkeys(mult, 1))]


@cache
def polynomialize(sys: SystemId) -> tuple[PolyIdentity, ...]:
    """The cleared polynomial identities of a system, one per equation, built
    once per system."""
    if sys.kind == "S1":
        return tuple(_s1_identities(sys.aw.k, sys.aw.l))
    if sys.kind == "S2":
        return tuple(_s2_identities())
    if sys.kind == "E1":
        return tuple(_e1_identities(sys.aw.k, sys.aw.l))
    return tuple(_e2_identities())


# -- compiled evaluation -----------------------------------------------------------


def _monomial(coeff: Fraction, powers: Counter) -> str:
    """Source of |coeff| * prod(factor ** power), the coefficient an integer ratio."""
    names = [(("", "d_", "dd_")[d] + fn, p) for (fn, d), p in sorted(powers.items())]
    num = [name for name, p in names for _ in range(p)]
    den = [name for name, p in names for _ in range(-p)]
    c = abs(coeff)
    if c.numerator != 1 or not num:
        num.insert(0, str(c.numerator))
    if c.denominator != 1:
        den.insert(0, str(c.denominator))
    text = "*".join(num) + ("/" if den else "") + "*".join(den)
    return text if len(den) < 2 else text.replace("/", "/(", 1) + ")"


def _source(sys: SystemId, batch: bool) -> str:
    fns, first = sys.functions, sys.is_first_order
    exprs, checked = [], set()
    for ident in polynomialize(sys):
        if first:  # the one term in x' gives x' = -(the others) / (its cofactor)
            (key,) = [t for t in ident.terms if (ident.label, 1) in t.factors]
            base = Counter(key.factors) - Counter([(ident.label, 1)])
        else:  # the lambda term is -lambda times the clearing multiplier
            (key,) = [t for t in ident.terms if t.lam]
            base = Counter(key.factors)
        expr = ""
        for term in ident.terms:
            powers = Counter(term.factors + (("lam", 0),) * term.lam)
            powers.subtract(base)
            coeff = term.coeff / -key.coeff
            if coeff and not (first and term is key):
                expr += (" - " if coeff < 0 else " + ") + _monomial(coeff, powers)
        exprs.append(expr[3:] if expr.startswith(" + ") else "-" + expr[3:])
        checked.update(fn for fn, _ in base)
    shared, exprs = _name_shared(exprs)
    prefixes = ("",) if first else ("", "d_", "dd_")
    return "\n".join([
        "def flow(y):" if first else "def residual(y, d1, d2, lam):",
        *(f"    {', '.join(p + fn for fn in fns)}, = {arg}"
          for p, arg in zip(prefixes, ("y", "d1", "d2"))),
        *(f"    if not {fn}{'.all()' if batch else ''}: raise ZeroDenominator({fn!r})"
          for fn in fns if fn in checked),
        *(f"    {line}" for line in shared),
        "    return [", *(f"        {e}," for e in exprs), "    ]\n"])


def _name_shared(exprs: list[str]) -> tuple[list[str], list[str]]:
    """Assignments `t<i> = ...` of every operation that occurs more than once
    in exprs, and exprs reading those names.

    Two operations are the same when they apply the same operator to the same
    operands in the same order, as Python parses exprs; a negated constant is
    a constant.  Operations are hash-consed into a DAG, and a node used by two
    or more parents (or roots) is named, children before parents, so each
    distinct operation is computed once.
    """
    ids: dict = {}  # (operator, *operand ids) or the source of a leaf -> id
    nodes: list = []  # id -> (its key, the first node parsed with that key)
    uses = Counter()  # id -> parents and roots reading it

    def intern(node) -> int:
        if isinstance(node, ast.BinOp):
            key = (type(node.op), intern(node.left), intern(node.right))
        elif isinstance(node, ast.UnaryOp) and not isinstance(node.operand, ast.Constant):
            key = (type(node.op), intern(node.operand))
        else:
            key = ast.unparse(node)
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append((key, node))
            uses.update(key[1:] if isinstance(key, tuple) else ())
        return ids[key]

    roots = [intern(ast.parse(e, mode="eval").body) for e in exprs]
    uses.update(roots)
    names: dict[int, str] = {}
    shared: list[str] = []

    def emit(i: int):
        """Node i over its operands, or the name it was given."""
        if i in names:
            return ast.Name(names[i])
        key, node = nodes[i]
        if not isinstance(key, tuple):
            return node
        if isinstance(node, ast.BinOp):
            node = ast.BinOp(emit(key[1]), node.op, emit(key[2]))
        else:
            node = ast.UnaryOp(node.op, emit(key[1]))
        if uses[i] < 2:
            return node
        names[i] = f"t{len(names)}"
        shared.append(f"{names[i]} = {ast.unparse(node)}")
        return ast.Name(names[i])
    return shared, [ast.unparse(emit(i)) for i in roots]


def compiled(sys: SystemId, batch: bool = False):
    """The system as straight-line code, built and compiled once per system.

    A first-order system gives flow(y) -> y': each identity has one term
    c_0 M_0 x', so x' = -sum(c_i M_i) / (c_0 M_0) over its other terms.  An
    Einstein system gives residual(y, d1, d2, lam) -> LHS - lambda per
    equation: the identity over its clearing multiplier, which is minus the
    factor of lambda in its lambda term.  y, d1 and d2 list the values (numpy
    columns with batch) in the system's order.  The nonzero checks cover the
    multipliers' factors in that order, so ZeroDenominator names the first
    that vanished.  Coefficients are integer ratios, so the code runs exactly
    on Fraction inputs.  An operation that occurs more than once is computed
    once, into a local (`_name_shared`), which leaves every result as it was.
    """
    return _compiled(sys, bool(batch))


@cache
def _compiled(sys: SystemId, batch: bool):
    from .systems import ZeroDenominator  # systems imports this module
    namespace = {"ZeroDenominator": ZeroDenominator}
    exec(compile(_source(sys, batch), f"<awflow {sys.kind}>", "exec"), namespace)
    return namespace["flow" if sys.is_first_order else "residual"]
