"""Module sums: the reference the weight counts of `awflow.reptheory` are
tested against.

Each builder writes out the representation it names as a multiset of
irreducibles, and `dim_hom_torus` counts equivariant maps between two such
sums summand by summand.  Nothing here reads a table of `awflow.reptheory`:
the flag orbit's S^2 of the tangent space is built as the symmetric square
of the three tangent weights.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from awflow.reptheory import AloffWallach


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


def decompose_S2_p(aw: AloffWallach) -> TorusModuleSum:
    """S^2 of the 6-dim tangent space V1 + V2 + V3 of the flag singular orbit.

    S^2(Vi) is the weight 2Vi plus a trivial line, and Vi (x) Vj for i < j
    is the pair of weights Vi + Vj and Vi - Vj.
    """
    mods = isotropy_modules(aw)
    tangent = [mods["V1"], mods["V2"], mods["V3"]]
    out = TorusModuleSum()
    for r, s in tangent:
        out.add(2 * r, 2 * s)
        out.add(0, 0)
    for (r, s), (u, v) in combinations(tangent, 2):
        out.add(r + u, s + v)
        out.add(r - u, s - v)
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
