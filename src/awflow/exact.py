"""Exact rational arithmetic and truncated univariate power series.

Every coefficient that enters the order-by-order recursion is an exact
rational, so golden-value comparisons downstream are equality tests.  The
truncation order of a series is explicit state: operations truncate to the
smaller operand order and never extend precision.

Two kernels sum rational products.  `pair_sum` adds integer ratios (n, d)
over a running common denominator and reduces once; `TruncSeries.__mul__`
uses it.  `Scaled` holds a whole series as integer numerators over one
common denominator, so a Cauchy coefficient is one C-level integer dot,
`sum(map(mul, a[:k + 1], b[k::-1]))`, over the product of the two
denominators; the solver's product caches and the re-substitution check use
it.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(value) -> Fraction:
    """Coerce an int, Fraction or canonical "p/q" string to a Fraction.

    Floats and decimal strings are rejected: series parameters are exact by
    contract.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RAT_RE.match(text):
            raise TypeError(f"expected an exact rational 'p/q', got {value!r}")
        return Fraction(text)
    raise TypeError(f"expected exact rational, got {type(value).__name__}: {value!r}")


def rat_str(value) -> str:
    """Canonical "num/den" form used in all JSON output ("0/1" for zero)."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def pair_sum(terms) -> tuple[int, int]:
    """Sum of n/d over integer pairs (n, d) with d > 0, as a reduced pair.

    Numerators accumulate over a running common denominator, so a Cauchy sum
    of k products costs one normalization instead of two per product.
    """
    num, den = 0, 1
    for n, d in terms:
        if d == den:
            num += n
        else:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
    g = gcd(num, den)
    return num // g, den // g


class Scaled:
    """Rationals as integer numerators over one common denominator.

    Entry m is nums[m] / den, and den is a multiple of every entry's reduced
    denominator.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: list[int], den: int = 1):
        self.nums, self.den = nums, den

    @classmethod
    def of(cls, values) -> "Scaled":
        """Integer ratios (n, d) with d > 0 over the lcm of their d; a
        `Scaled` comes back as it is."""
        if isinstance(values, cls):
            return values
        values = list(values)
        den = lcm(*(d for _, d in values))
        return cls([n * (den // d) for n, d in values], den)

    def __mul__(self, other: "Scaled") -> "Scaled":
        """The product truncated to the shorter operand, divided by its
        content gcd(den, *nums): den is then the lcm of the reduced
        denominators."""
        a, b = self.nums, other.nums
        nums = [sum(map(mul, a[:k + 1], b[k::-1])) for k in range(min(len(a), len(b)))]
        den = self.den * other.den
        g = gcd(den, *nums)
        return Scaled([n // g for n in nums], den // g) if g > 1 else Scaled(nums, den)

    def rescale(self, den: int) -> None:
        """Put the entries over den, a multiple of the current den."""
        f = den // self.den
        self.nums = [n * f for n in self.nums]
        self.den = den


class TruncSeries:
    """Power series in t truncated at an explicit order.

    A series of order N stores exactly N+1 coefficients; trailing zeros are
    retained.  Binary operations truncate to min(order(a), order(b)).
    """

    __slots__ = ("coef",)

    def __init__(self, coefficients, order: int | None = None):
        coef = [rat(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            if len(coef) > order + 1:
                coef = coef[: order + 1]
            else:
                coef.extend([Fraction(0)] * (order + 1 - len(coef)))
        if not coef:
            raise ValueError("a series needs at least the constant coefficient")
        self.coef = tuple(coef)

    # -- basic interface -------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coef) - 1

    def __iter__(self):
        return iter(self.coef)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.coef == other.coef

    def __hash__(self):
        return hash(self.coef)

    def __repr__(self) -> str:
        return f"TruncSeries({[str(c) for c in self.coef]})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coef)

    def truncated(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coef[: order + 1])

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            n = min(self.order, other.order)
            return TruncSeries([self.coef[i] + other.coef[i] for i in range(n + 1)])
        return TruncSeries([self.coef[0] + rat(other), *self.coef[1:]])

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coef])

    def __sub__(self, other) -> "TruncSeries":
        return self + (-other if isinstance(other, TruncSeries) else -rat(other))

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            n = min(self.order, other.order)
            a = [(c.numerator, c.denominator) for c in self.coef[:n + 1]]
            b = [(c.numerator, c.denominator) for c in other.coef[n::-1]]
            # coefficient k pairs a[u] with b[k - u], which sits at n - k + u
            return TruncSeries([
                Fraction(*pair_sum((x * y, dx * dy) for (x, dx), (y, dy)
                                   in zip(a[:k + 1], b[n - k:]) if x and y))
                for k in range(n + 1)])
        q = rat(other)
        return TruncSeries([c * q for c in self.coef])

    __rmul__ = __mul__

    # -- calculus and evaluation -----------------------------------------------

    def derivative(self) -> "TruncSeries":
        if self.order == 0:
            raise ValueError("cannot differentiate constant-only series")
        return TruncSeries([(i + 1) * self.coef[i + 1] for i in range(self.order)])

    def eval_float(self, t: float) -> tuple[float, float]:
        """Horner evaluation at a float t.

        Returns (value, |last retained term|); the second entry is a cheap
        truncation-error proxy.  No convergence guarantee is implied.
        """
        acc = 0.0
        for c in reversed(self.coef):
            acc = acc * t + float(c)
        proxy = abs(float(self.coef[-1]) * t ** self.order)
        return acc, proxy

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coef]

    @classmethod
    def from_json(cls, data) -> "TruncSeries":
        return cls([rat(str(c)) for c in data])

