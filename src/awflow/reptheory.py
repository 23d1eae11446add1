"""Weight bookkeeping for the isotropy representations at the singular orbits.

Everything here is finite combinatorics over integer weights: count the
equivariant maps S^m(normal) -> S^2(tangent or normal) at each singular
orbit by matching weights, and derive the collapsing-circle normalization
constants from first return times of one-parameter subgroups.  The module
sums these counts abbreviate live in the tests, as their reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

    def same_orbit(self, k: int, l: int) -> bool:
        """Whether (k, l) names this orbit: N^{k,l} and N^{-k,-l} are one."""
        return (k, l) in ((self.k, self.l), (-self.k, -self.l))

    def __str__(self):
        return f"N^{{{self.k},{self.l}}}"


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


#: Orbit tokens accepted by dim_W.  "u12" is the flag orbit with the principal
#: orbit unquotiented; "u12-z2" is the same orbit under the order-two quotient
#: of the exceptional principal orbit N^{1,1} (which is also N^{-1,-1}).
TORUS_ORBITS = ("u12", "u12-z2")


def dim_W(aw: AloffWallach, orbit: str, m: int, part: str) -> int:
    """dim of the equivariant-map space S^m(normal) -> S^2(tangent or normal).

    Counted on weights: S^m of the normal weight (r, 0) has the weights
    (j r, 0) for 0 < j <= m, j = m (mod 2), plus the trivial line when m is
    even.  Each target weight (a, 0) among them adds 2 (once per occurrence),
    the trivial line pairs with the target's trivial summands.  Only |a| is
    read, so N^{k,l} and N^{-k,-l}, whose weights differ in sign, agree.
    """
    if orbit == "s5":
        raise ValueError("use dim_W_s5")
    if orbit not in TORUS_ORBITS:
        raise ValueError(f"unknown orbit {orbit!r}; expected one of {TORUS_ORBITS + ('s5',)}")
    if orbit == "u12-z2":
        if not aw.same_orbit(1, 1):
            raise ValueError("the order-two quotient exists only for "
                             "(k, l) = (1, 1) or (-1, -1)")
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
