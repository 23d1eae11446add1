"""Polynomial identities obtained by clearing denominators in the ODE systems.

Each identity is a sum of terms coeff * lambda^p * prod(function^(derivative))
that vanishes identically on exact solutions.  These drive the order-by-order
recursion and the exact re-substitution checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import TruncSeries
from .systems import SystemId


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    factors: tuple[tuple[str, int], ...]  # (function, derivative order)
    lam: int = 0  # power of the Einstein constant


@dataclass(frozen=True)
class PolyIdentity:
    label: str
    terms: tuple[Term, ...]

    def eval_series(self, funcs: dict[str, TruncSeries],
                    lam: Fraction | None = None) -> TruncSeries:
        """Substitute exact series; the result is zero iff they solve the ODE."""
        base = min(s.order for s in funcs.values())
        # one derivative drops the usable order by its level
        max_d = max((d for t in self.terms for _, d in t.factors), default=0)
        out = TruncSeries.zero(base - max_d)
        for term in self.terms:
            coeff = term.coeff
            if term.lam:
                if lam is None:
                    raise ValueError(f"identity {self.label} needs a lambda value")
                coeff = coeff * Fraction(lam) ** term.lam
            prod = TruncSeries.const(coeff, out.order)
            for fn, d in term.factors:
                s = funcs[fn]
                for _ in range(d):
                    s = s.derivative()
                prod = prod * s
            out = out + prod
        return out


def _t(coeff, *factors, lam=0):
    counted = []
    for fac in factors:
        if isinstance(fac, tuple):
            name, d, power = (*fac, 1) if len(fac) == 2 else fac
        else:
            name, d, power = fac, 0, 1
        counted.extend([(name, d)] * power)
    return Term(Fraction(coeff), tuple(sorted(counted)), lam)


def _s1_identities(k: int, l: int) -> list[PolyIdentity]:
    D = k * k + k * l + l * l
    ia = PolyIdentity("a", (
        _t(2 * D, ("a", 1), "a", "b", "c"),
        _t(-2 * D, "a", ("b", 0, 2)),
        _t(-2 * D, "a", ("c", 0, 2)),
        _t(2 * D, ("a", 0, 3)),
        _t(k + l, "f", "b", "c"),
    ))
    ib = PolyIdentity("b", (
        _t(2 * D, ("b", 1), "a", "b", "c"),
        _t(-2 * D, "b", ("c", 0, 2)),
        _t(-2 * D, "b", ("a", 0, 2)),
        _t(2 * D, ("b", 0, 3)),
        _t(-l, "f", "a", "c"),
    ))
    ic = PolyIdentity("c", (
        _t(2 * D, ("c", 1), "a", "b", "c"),
        _t(-2 * D, "c", ("a", 0, 2)),
        _t(-2 * D, "c", ("b", 0, 2)),
        _t(2 * D, ("c", 0, 3)),
        _t(-k, "f", "a", "b"),
    ))
    i_f = PolyIdentity("f", (
        _t(2 * D, ("f", 1), ("a", 0, 2), ("b", 0, 2), ("c", 0, 2)),
        _t(-k - l, ("f", 0, 2), ("b", 0, 2), ("c", 0, 2)),
        _t(l, ("f", 0, 2), ("a", 0, 2), ("c", 0, 2)),
        _t(k, ("f", 0, 2), ("a", 0, 2), ("b", 0, 2)),
    ))
    return [ia, ib, ic, i_f]


def _s2_identities() -> list[PolyIdentity]:
    i1 = PolyIdentity("a1", (
        _t(3, ("a1", 1), "a2", "b", "c", "f"),
        _t(-3, "a2", "f", ("b", 0, 2)),
        _t(-3, "a2", "f", ("c", 0, 2)),
        _t(3, "a2", "f", ("a1", 0, 2)),
        _t(-9, "b", "c", ("a1", 0, 2)),
        _t(9, "b", "c", ("a2", 0, 2)),
        _t(1, ("f", 0, 2), "b", "c"),
    ))
    i2 = PolyIdentity("a2", (
        _t(3, ("a2", 1), "a1", "b", "c", "f"),
        _t(-3, "a1", "f", ("b", 0, 2)),
        _t(-3, "a1", "f", ("c", 0, 2)),
        _t(3, "a1", "f", ("a2", 0, 2)),
        _t(-9, "b", "c", ("a2", 0, 2)),
        _t(9, "b", "c", ("a1", 0, 2)),
        _t(1, ("f", 0, 2), "b", "c"),
    ))
    i3 = PolyIdentity("b", (
        _t(6, ("b", 1), "a1", "a2", "b", "c"),
        _t(-3, "a2", "b", ("a1", 0, 2)),
        _t(-3, "a2", "b", ("c", 0, 2)),
        _t(3, "a2", ("b", 0, 3)),
        _t(-3, "a1", "b", ("a2", 0, 2)),
        _t(-3, "a1", "b", ("c", 0, 2)),
        _t(3, "a1", ("b", 0, 3)),
        _t(-1, "f", "a1", "a2", "c"),
    ))
    i4 = PolyIdentity("c", (
        _t(6, ("c", 1), "a1", "a2", "b", "c"),
        _t(-3, "a2", "c", ("a1", 0, 2)),
        _t(-3, "a2", "c", ("b", 0, 2)),
        _t(3, "a2", ("c", 0, 3)),
        _t(-3, "a1", "c", ("a2", 0, 2)),
        _t(-3, "a1", "c", ("b", 0, 2)),
        _t(3, "a1", ("c", 0, 3)),
        _t(-1, "f", "a1", "a2", "b"),
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
    return [i1, i2, i3, i4, i5]


def _e1_metric_identity(x: str, others: tuple[str, str], weight2: Fraction) -> PolyIdentity:
    """The cleared x-equation of the generic Einstein system.

    x is one of a, b, c; others are the remaining two metric functions;
    weight2 is the square of the torus weight entering the f^2/x^4 term.
    multiplier: x^4 * o1^2 * o2^2 * f.
    """
    o1, o2 = others
    return PolyIdentity(x, (
        _t(-1, (x, 2), (x, 0, 3), (o1, 0, 2), (o2, 0, 2), "f"),
        _t(-1, (x, 1, 2), (x, 0, 2), (o1, 0, 2), (o2, 0, 2), "f"),
        _t(-2, (x, 1), (o1, 1), (x, 0, 3), o1, (o2, 0, 2), "f"),
        _t(-2, (x, 1), (o2, 1), (x, 0, 3), (o1, 0, 2), o2, "f"),
        _t(-1, (x, 1), ("f", 1), (x, 0, 3), (o1, 0, 2), (o2, 0, 2)),
        _t(6, (x, 0, 2), (o1, 0, 2), (o2, 0, 2), "f"),
        _t(-weight2 / 2, ("f", 0, 3), (o1, 0, 2), (o2, 0, 2)),
        _t(1, (x, 0, 6), "f"),
        _t(-1, (x, 0, 2), (o1, 0, 4), "f"),
        _t(-1, (x, 0, 2), (o2, 0, 4), "f"),
        _t(-1, (x, 0, 4), (o1, 0, 2), (o2, 0, 2), "f", lam=1),
    ))


def _e1_identities(k: int, l: int) -> list[PolyIdentity]:
    D = Fraction(k * k + k * l + l * l)
    wa = Fraction((k + l) ** 2) / D ** 2
    wb = Fraction(l ** 2) / D ** 2
    wc = Fraction(k ** 2) / D ** 2
    ia = _e1_metric_identity("a", ("b", "c"), wa)
    ib = _e1_metric_identity("b", ("a", "c"), wb)
    ic = _e1_metric_identity("c", ("a", "b"), wc)
    # f-equation multiplied by a^4 b^4 c^4 f
    i_f = PolyIdentity("f", (
        _t(-1, ("f", 2), ("a", 0, 4), ("b", 0, 4), ("c", 0, 4)),
        _t(-2, ("f", 1), ("a", 1), ("a", 0, 3), ("b", 0, 4), ("c", 0, 4)),
        _t(-2, ("f", 1), ("b", 1), ("a", 0, 4), ("b", 0, 3), ("c", 0, 4)),
        _t(-2, ("f", 1), ("c", 1), ("a", 0, 4), ("b", 0, 4), ("c", 0, 3)),
        _t(wa / 2, ("f", 0, 3), ("b", 0, 4), ("c", 0, 4)),
        _t(wb / 2, ("f", 0, 3), ("a", 0, 4), ("c", 0, 4)),
        _t(wc / 2, ("f", 0, 3), ("a", 0, 4), ("b", 0, 4)),
        _t(-1, "f", ("a", 0, 4), ("b", 0, 4), ("c", 0, 4), lam=1),
    ))
    tr = PolyIdentity("trace", (
        _t(-2, ("a", 2), "b", "c", "f"),
        _t(-2, ("b", 2), "a", "c", "f"),
        _t(-2, ("c", 2), "a", "b", "f"),
        _t(-1, ("f", 2), "a", "b", "c"),
        _t(-1, "a", "b", "c", "f", lam=1),
    ))
    return [ia, ib, ic, i_f, tr]


def _e2_a_identity(x: str, y: str) -> PolyIdentity:
    """Cleared a1 (or a2) equation; multiplier x^4 y^2 b^2 c^2 f^2."""
    return PolyIdentity(x, (
        _t(-1, (x, 2), (x, 0, 3), (y, 0, 2), ("b", 0, 2), ("c", 0, 2), ("f", 0, 2)),
        _t(-1, (x, 1), (y, 1), (x, 0, 3), y, ("b", 0, 2), ("c", 0, 2), ("f", 0, 2)),
        _t(-2, (x, 1), ("b", 1), (x, 0, 3), (y, 0, 2), "b", ("c", 0, 2), ("f", 0, 2)),
        _t(-2, (x, 1), ("c", 1), (x, 0, 3), (y, 0, 2), ("b", 0, 2), "c", ("f", 0, 2)),
        _t(-1, (x, 1), ("f", 1), (x, 0, 3), (y, 0, 2), ("b", 0, 2), ("c", 0, 2), "f"),
        _t(6, (x, 0, 2), (y, 0, 2), ("b", 0, 2), ("c", 0, 2), ("f", 0, 2)),
        _t(Fraction(-2, 9), ("f", 0, 4), (x, 0, 2), ("b", 0, 2), ("c", 0, 2)),
        _t(18, (x, 0, 6), ("b", 0, 2), ("c", 0, 2)),
        _t(-18, (x, 0, 2), (y, 0, 4), ("b", 0, 2), ("c", 0, 2)),
        _t(1, (x, 0, 6), (y, 0, 2), ("f", 0, 2)),
        _t(-1, (x, 0, 2), (y, 0, 2), ("b", 0, 4), ("f", 0, 2)),
        _t(-1, (x, 0, 2), (y, 0, 2), ("c", 0, 4), ("f", 0, 2)),
        _t(-1, (x, 0, 4), (y, 0, 2), ("b", 0, 2), ("c", 0, 2), ("f", 0, 2), lam=1),
    ))


def _e2_bc_identity(x: str, o: str) -> PolyIdentity:
    """Cleared b (or c) equation; multiplier a1^2 a2^2 x^4 o^2 f."""
    return PolyIdentity(x, (
        _t(-1, (x, 2), (x, 0, 3), ("a1", 0, 2), ("a2", 0, 2), (o, 0, 2), "f"),
        _t(-1, (x, 1, 2), (x, 0, 2), ("a1", 0, 2), ("a2", 0, 2), (o, 0, 2), "f"),
        _t(-1, (x, 1), ("a1", 1), (x, 0, 3), "a1", ("a2", 0, 2), (o, 0, 2), "f"),
        _t(-1, (x, 1), ("a2", 1), (x, 0, 3), ("a1", 0, 2), "a2", (o, 0, 2), "f"),
        _t(-2, (x, 1), (o, 1), (x, 0, 3), ("a1", 0, 2), ("a2", 0, 2), o, "f"),
        _t(-1, (x, 1), ("f", 1), (x, 0, 3), ("a1", 0, 2), ("a2", 0, 2), (o, 0, 2)),
        _t(6, (x, 0, 2), ("a1", 0, 2), ("a2", 0, 2), (o, 0, 2), "f"),
        _t(Fraction(-1, 18), ("f", 0, 3), ("a1", 0, 2), ("a2", 0, 2), (o, 0, 2)),
        _t(Fraction(1, 2), (x, 0, 6), ("a2", 0, 2), "f"),
        _t(Fraction(-1, 2), ("a1", 0, 4), ("a2", 0, 2), (x, 0, 2), "f"),
        _t(Fraction(-1, 2), ("a2", 0, 2), (x, 0, 2), (o, 0, 4), "f"),
        _t(Fraction(1, 2), (x, 0, 6), ("a1", 0, 2), "f"),
        _t(Fraction(-1, 2), ("a2", 0, 4), ("a1", 0, 2), (x, 0, 2), "f"),
        _t(Fraction(-1, 2), ("a1", 0, 2), (x, 0, 2), (o, 0, 4), "f"),
        _t(-1, ("a1", 0, 2), ("a2", 0, 2), (x, 0, 4), (o, 0, 2), "f", lam=1),
    ))


def _e2_identities() -> list[PolyIdentity]:
    ia1 = _e2_a_identity("a1", "a2")
    ia2 = _e2_a_identity("a2", "a1")
    ib = _e2_bc_identity("b", "c")
    ic = _e2_bc_identity("c", "b")
    # f-equation multiplied by a1^2 a2^2 b^4 c^4 f^2
    i_f = PolyIdentity("f", (
        _t(-1, ("f", 2), "f", ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 4), ("c", 0, 4)),
        _t(-1, ("f", 1), ("a1", 1), "f", "a1", ("a2", 0, 2), ("b", 0, 4), ("c", 0, 4)),
        _t(-1, ("f", 1), ("a2", 1), "f", ("a1", 0, 2), "a2", ("b", 0, 4), ("c", 0, 4)),
        _t(-2, ("f", 1), ("b", 1), "f", ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 3), ("c", 0, 4)),
        _t(-2, ("f", 1), ("c", 1), "f", ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 4), ("c", 0, 3)),
        _t(36, ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 4), ("c", 0, 4)),
        _t(-18, ("a1", 0, 4), ("b", 0, 4), ("c", 0, 4)),
        _t(-18, ("a2", 0, 4), ("b", 0, 4), ("c", 0, 4)),
        _t(Fraction(2, 9), ("f", 0, 4), ("b", 0, 4), ("c", 0, 4)),
        _t(Fraction(1, 18), ("f", 0, 4), ("a1", 0, 2), ("a2", 0, 2), ("c", 0, 4)),
        _t(Fraction(1, 18), ("f", 0, 4), ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 4)),
        _t(-1, ("f", 0, 2), ("a1", 0, 2), ("a2", 0, 2), ("b", 0, 4), ("c", 0, 4), lam=1),
    ))
    tr = PolyIdentity("trace", (
        _t(-1, ("a1", 2), "a2", "b", "c", "f"),
        _t(-1, ("a2", 2), "a1", "b", "c", "f"),
        _t(-2, ("b", 2), "a1", "a2", "c", "f"),
        _t(-2, ("c", 2), "a1", "a2", "b", "f"),
        _t(-1, ("f", 2), "a1", "a2", "b", "c"),
        _t(-1, "a1", "a2", "b", "c", "f", lam=1),
    ))
    return [ia1, ia2, ib, ic, i_f, tr]


def polynomialize(sys: SystemId) -> list[PolyIdentity]:
    """The cleared polynomial identities of a system, one per equation."""
    if sys.kind == "S1":
        return _s1_identities(sys.aw.k, sys.aw.l)
    if sys.kind == "S2":
        return _s2_identities()
    if sys.kind == "E1":
        return _e1_identities(sys.aw.k, sys.aw.l)
    return _e2_identities()
