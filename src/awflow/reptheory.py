"""Weight bookkeeping for the isotropy representations at the singular orbits.

Everything here is finite combinatorics over integer weights: decompose
symmetric powers of torus and SU(2) modules, count equivariant maps between
them, and derive the collapsing-circle normalization constants from first
return times of one-parameter subgroups.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class AloffWallach:
    """Principal-orbit parameters (k, l), coprime and not both zero."""

    k: int
    l: int

    def __post_init__(self):
        if (self.k, self.l) == (0, 0):
            raise ValueError("(k, l) = (0, 0) is not an orbit parameter")
        if math.gcd(self.k, self.l) != 1:
            raise ValueError(f"(k, l) = ({self.k}, {self.l}) must be coprime")

    @property
    def delta(self) -> int:
        return self.k * self.k + self.k * self.l + self.l * self.l

    def __str__(self):
        return f"N^{{{self.k},{self.l}}}"


def canon_weight(r: int, s: int) -> tuple[int, int]:
    """Canonical representative of the conjugation pair {(r,s), (-r,-s)}."""
    return (r, s) if (r, s) >= (-r, -s) else (-r, -s)


@dataclass
class TorusModuleSum:
    """Multiset of nontrivial canonical torus weights plus trivial summands."""

    weights: Counter = field(default_factory=Counter)
    trivial: int = 0

    def add(self, r: int, s: int, mult: int = 1) -> None:
        if (r, s) == (0, 0):
            self.trivial += mult
        else:
            self.weights[canon_weight(r, s)] += mult

    @property
    def total_dim(self) -> int:
        return 2 * sum(self.weights.values()) + self.trivial


def isotropy_modules(aw: AloffWallach) -> dict[str, tuple[int, int]]:
    """Torus weights of the three 2-dim tangent modules and the normal disc."""
    k, l = aw.k, aw.l
    return {
        "V1": canon_weight(3 * k + 3 * l, k - l),
        "V2": canon_weight(3 * l, 2 * k + l),
        "V3": canon_weight(-3 * k, k + 2 * l),
        "pperp": canon_weight(2 * aw.delta, 0),
    }


def torus_sym_power(w: tuple[int, int], m: int) -> TorusModuleSum:
    """S^m of a single 2-dim torus module of weight w."""
    if w == (0, 0):
        raise ValueError("weight (0, 0) is trivial; symmetric powers are degenerate")
    if m < 0:
        raise ValueError("m must be >= 0")
    out = TorusModuleSum()
    r, s = w
    for p in range(m // 2 + 1):
        j = m - 2 * p
        out.add(j * r, j * s)
    return out


def _S2_p_weights(aw: AloffWallach) -> list[tuple[int, int]]:
    """The nine nontrivial torus weights of S^2 of the flag orbit's 6-dim
    tangent space (not canonicalized); the other three summands are trivial."""
    k, l = aw.k, aw.l
    return [
        (6 * k + 6 * l, 2 * k - 2 * l),
        (6 * l, 4 * k + 2 * l),
        (-6 * k, 2 * k + 4 * l),
        (3 * k + 6 * l, 3 * k),
        (3 * k, -k - 2 * l),
        (3 * l, 2 * k + l),
        (6 * k + 3 * l, -3 * l),
        (-3 * k + 3 * l, 3 * k + 3 * l),
        (3 * k + 3 * l, k - l),
    ]


def decompose_S2_p(aw: AloffWallach) -> TorusModuleSum:
    """S^2 of the 6-dim tangent space of the flag singular orbit."""
    out = TorusModuleSum()
    out.trivial = 3
    for r, s in _S2_p_weights(aw):
        out.add(r, s)
    return out


def dim_hom_torus(src: TorusModuleSum, dst: TorusModuleSum) -> int:
    """Real dimension of the space of equivariant maps src -> dst.

    A matched nontrivial pair contributes 2 (the maps between equivalent
    complex-type modules form a complex line); trivial pairs contribute 1.
    """
    dim = src.trivial * dst.trivial
    for w, m in src.weights.items():
        dim += 2 * m * dst.weights.get(w, 0)
    return dim


#: Orbit tokens accepted by dim_W.  "u12" is the flag orbit with the principal
#: orbit unquotiented; "u12-z2" is the same orbit under the order-two quotient
#: of the exceptional principal orbit.
TORUS_ORBITS = ("u12", "u12-z2")


def dim_W(aw: AloffWallach, orbit: str, m: int, part: str) -> int:
    """dim of the equivariant-map space S^m(normal) -> S^2(tangent or normal).

    Counted on weights: S^m of the normal weight (r, 0) has the weights
    (j r, 0) for 0 < j <= m, j = m (mod 2), plus the trivial line when m is
    even.  Each target weight (a, 0) among them adds 2 (once per occurrence),
    the trivial line pairs with the target's trivial summands.  This is
    dim_hom_torus(torus_sym_power(pperp, m), target) without building either.
    """
    if orbit == "s5":
        raise ValueError("use dim_W_s5")
    if orbit not in TORUS_ORBITS:
        raise ValueError(f"unknown orbit {orbit!r}; expected one of {TORUS_ORBITS + ('s5',)}")
    if orbit == "u12-z2":
        if (aw.k, aw.l) != (1, 1):
            raise ValueError("the order-two quotient exists only for (k, l) = (1, 1)")
        r = 4 * aw.delta
    else:
        r = 2 * aw.delta
    if m < 0:
        raise ValueError("m must be >= 0")
    src = range((2 - m % 2) * r, m * r + 1, 2 * r)  # the a > 0 of the weights (a, 0)
    if part == "h":
        weights, trivial = _S2_p_weights(aw), 3
    elif part == "v":
        weights, trivial = [(2 * r, 0)], 1
    else:
        raise ValueError("part must be 'h' or 'v'")
    return (1 - m % 2) * trivial + 2 * sum(s == 0 and abs(a) in src for a, s in weights)


# -- SU(2) side (five-sphere singular orbit) -----------------------------------


@dataclass
class Su2ModuleSum:
    """Multiset of SU(2) irreducibles as real modules.

    Entries are (weight, kind): kind "R" for the real irreducible of even
    weight (dim weight+1), kind "C" for a complex irreducible taken as a real
    module (odd weight, dim 2(weight+1)).
    """

    entries: Counter = field(default_factory=Counter)

    def add(self, weight: int, kind: str | None = None, mult: int = 1) -> None:
        if kind is None:
            kind = "R" if weight % 2 == 0 else "C"
        if kind == "R" and weight % 2 != 0:
            raise ValueError("real-type entries have even weight")
        if kind == "C" and weight % 2 == 0:
            raise ValueError("complex-type entries have odd weight")
        self.entries[(weight, kind)] += mult

    @property
    def total_dim(self) -> int:
        return sum(
            ((w + 1) if kind == "R" else 2 * (w + 1)) * m
            for (w, kind), m in self.entries.items()
        )


def su2_sym_power(m: int) -> Su2ModuleSum:
    """S^m of the 3-dim real module (the normal space of the five-sphere)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = Su2ModuleSum()
    for p in range(m // 2 + 1):
        out.add(2 * m - 4 * p, "R")
    return out


#: S^2 of the five-sphere's tangent and normal spaces as (weight, kind, mult).
_S5_S2 = {
    "h": ((2, "R", 3), (1, "C", 1), (0, "R", 2)),
    "v": ((4, "R", 1), (0, "R", 1)),
}


def dim_W_s5(m: int, part: str) -> int:
    """Equivariant-map dimensions at the five-sphere singular orbit.

    S^m of the 3-dim real module has the real weights 2m - 4p, p = 0..m/2:
    each real target entry of such a weight adds its multiplicity, and
    complex-type entries meet none.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    src = range(2 * m % 4, 2 * m + 1, 4)
    if part not in ("h", "v"):
        raise ValueError("part must be 'h' or 'v'")
    return sum(mult for w, kind, mult in _S5_S2[part] if kind == "R" and w in src)


# -- first return times and collapsing-circle normalization ---------------------


def first_return_time(aw: AloffWallach, quotient_by_h: bool = False) -> Fraction:
    """Smallest t > 0 with exp(t e7) in the isotropy group, as a multiple of pi.

    With quotient_by_h the isotropy group is enlarged by the order-two element
    diag(i, -i, 1); returns r such that t = r * pi.  Write t = 2 pi u, and e = 0,
    or e = 1/4 for the element.  Commensurability forces 2 delta u = n + (k+l) e
    with n an integer; the phases (2l+k)u - kv - e, -(2k+l)u - lv + e and
    (k-l)u + (k+l)v sum to zero, so kv - A and lv - B in Z decide, where
    A = (2l+k)u - e and B = e - (2k+l)u.

    Every such u returns: with xk + yl = 1, v = xA + yB gives kv - A = -yn and
    lv - B = xn.  So r = 1/delta, or with the element the smaller of 1/delta
    and s/delta, s the least positive (k+l)/4 + n over n >= 0.
    """
    r = Fraction(1, aw.delta)
    if quotient_by_h:
        s = Fraction(aw.k + aw.l, 4)
        if s <= 0:
            s = s % 1 or Fraction(1)
        r = min(r, s * r)
    return r


def circle_normalization(aw: AloffWallach, quotient_by_h: bool = False) -> Fraction:
    """|f'(0)| forced by the collapsing circle: 2*pi / (first return time)."""
    return Fraction(2) / first_return_time(aw, quotient_by_h)
