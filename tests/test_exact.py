import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awflow.exact import Scaled, TruncSeries, pair_sum, rat, rat_str

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
series = st.lists(rationals, min_size=4, max_size=9).map(TruncSeries)
# coefficients for the product kernel: zeros, signs and heights past 300 bits
tall = st.builds(Fraction, st.integers(-2**400, 2**400), st.integers(1, 2**400))
kernel_series = st.lists(st.one_of(st.just(Fraction(0)), rationals, tall),
                         min_size=1, max_size=12).map(TruncSeries)


def S(coeffs, order=None):
    return TruncSeries(coeffs, order=order)


def schoolbook(a, b):
    """Reference product: one Fraction multiply and add per pair."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a.coef[i] * b.coef[j]
    return out


class TestRational:
    def test_parse_and_format(self):
        assert rat("3/4") == Fraction(3, 4)
        assert rat("-35/27") == Fraction(-35, 27)
        assert rat(5) == Fraction(5)
        assert rat_str(Fraction(0)) == "0/1"
        assert rat_str(Fraction(-6, 4)) == "-3/2"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_field_axioms_random_triples(self):
        rng = random.Random(20260811)

        def q():
            return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

        for _ in range(10_000):
            a, b, c = q(), q(), q()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) - b == a


class TestTruncSeries:
    def test_mul_difference_of_squares(self):
        a = S([1, 1], order=2)
        b = S([1, -1], order=2)
        assert (a * b).coef == (Fraction(1), Fraction(0), Fraction(-1))

    def test_mul_identity(self):
        one = S([1], order=5)
        s = S([3, "1/2", 0, -7], order=5)
        assert one * s == s

    def test_mul_square_for_sphere_collapse(self):
        # (2t - (35/27)t^3)^2 truncated at order 4
        a = S([0, 2, 0, "-35/27"], order=4)
        sq = a * a
        assert sq.coef == (Fraction(0), Fraction(0), Fraction(4), Fraction(0),
                           Fraction(-140, 27))

    def test_truncation_to_min_order(self):
        a = S([1, 1, 1], order=2)
        b = S([1, 1, 1, 1, 1], order=4)
        assert (a * b).order == 2
        assert (a + b).order == 2
        assert (a - b).order == 2

    def test_derivative_power_rule(self):
        s = S([0, 1, 0, "-1/2"])
        assert s.derivative().coef == (Fraction(1), Fraction(0), Fraction(-3, 2))

    def test_derivative_of_constant_series(self):
        s = S([5], order=3)
        assert s.derivative() == S([0], order=2)

    def test_derivative_order_zero_errors(self):
        with pytest.raises(ValueError, match="constant-only"):
            S([5]).derivative()

    def test_derivative_matches_known_expansion(self):
        # b-series of the five-sphere collapse at unit parameters
        b = S([1, "-1/6", "67/72", "337/6480"])
        assert b.derivative().coef == (Fraction(-1, 6), Fraction(67, 36),
                                       Fraction(337, 2160))

    def test_eval_float(self):
        v, _ = S([1, 1]).eval_float(0.0)
        assert v == 1.0
        v, _ = S([0, 2, 0, "-35/27"]).eval_float(0.1)
        assert abs(v - 0.19870370370370371) < 1e-15
        v, _ = S([0, 12]).eval_float(0.001)
        assert abs(v - 0.012) < 1e-18

    def test_eval_float_truncation_proxy(self):
        _, proxy = S([0, 2, 0, "-35/27"]).eval_float(0.1)
        assert abs(proxy - abs(-35 / 27 * 0.1 ** 3)) < 1e-18

    def test_trailing_zeros_retained(self):
        s = S([1], order=4)
        assert len(s.coef) == 5
        assert s.order == 4

    def test_json_round_trip(self):
        s = S([0, "5/3", -2, 0], order=5)
        assert TruncSeries.from_json(s.to_json()) == s

    @given(a=kernel_series, b=kernel_series)
    @settings(max_examples=300, deadline=None)
    def test_mul_matches_schoolbook(self, a, b):
        want = schoolbook(a, b)
        assert list((a * b).coef) == want
        # the pair kernel on the same products gives each coefficient reduced
        for k, q in enumerate(want):
            terms = [(x.numerator * y.numerator, x.denominator * y.denominator)
                     for x, y in zip(a.coef[:k + 1], b.coef[k::-1])]
            assert pair_sum(terms) == (q.numerator, q.denominator)

    def test_mul_kernel_edge_cases(self):
        big = Fraction(3**200 + 1, 2**310 - 1)
        cases = [
            (S([Fraction(-7, 3)]), S([Fraction(9, 14)])),       # order 0
            (S([0, 0, 5]), S([0, -1, 0, 0, 2])),                # zeros, unequal
            (S([big, -big, 0, 1 / big]), S([big, Fraction(-1, 3), big])),
            (S([1, big]), S([1, -big])),                        # cancels at t^1
        ]
        for a, b in cases:
            prod = a * b
            assert list(prod.coef) == schoolbook(a, b)
            assert prod.order == min(a.order, b.order)
            assert all(type(c) is Fraction for c in prod.coef)
        assert max(c.denominator.bit_length() for c in (cases[2][0] * cases[2][1])) > 300

    @given(a=series, b=series)
    @settings(max_examples=200, deadline=None)
    def test_leibniz_property(self, a, b):
        n = min(a.order, b.order) - 1
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs.truncated(n) == rhs.truncated(n)

    @given(a=series, b=series, c=series)
    @settings(max_examples=200, deadline=None)
    def test_series_ring_properties(self, a, b, c):
        n = min(a.order, b.order, c.order)
        assert (a * b).truncated(n) == (b * a).truncated(n)
        assert ((a + b) + c).truncated(n) == (a + (b + c)).truncated(n)
        assert (a * (b + c)).truncated(n) == (a * b + a * c).truncated(n)

    def test_eval_derivative_matches_finite_difference(self):
        rng = random.Random(11)
        h = 1e-5
        for _ in range(50):
            s = S([Fraction(rng.randint(-10, 10)) for _ in range(11)])
            d = s.derivative()
            for t in (-0.1, -0.03, 0.05, 0.1):
                fd = (s.eval_float(t + h)[0] - s.eval_float(t - h)[0]) / (2 * h)
                assert abs(d.eval_float(t)[0] - fd) < 1e-8


def scaled(s):
    return Scaled.of(c.as_integer_ratio() for c in s.coef)


class TestScaled:
    """Integer numerators over one common denominator: the product kernel of
    the solver's caches and of the re-substitution check."""

    def check_product(self, a, b):
        prod = scaled(a) * scaled(b)
        got = [Fraction(*v) for v in prod]
        assert got == schoolbook(a, b) == list((a * b).coef)
        # divided by its content: den is the lcm of the reduced denominators
        assert gcd(prod.den, *prod.nums) == 1
        assert prod.den == lcm(*(q.denominator for q in got))
        return prod

    @given(a=kernel_series, b=kernel_series)
    @settings(max_examples=300, deadline=None)
    def test_product_matches_schoolbook_and_mul(self, a, b):
        self.check_product(a, b)

    def test_product_edge_cases(self):
        big = Fraction(3**200 + 1, 2**310 - 1)
        self.check_product(S([Fraction(-7, 3)]), S([Fraction(9, 14)]))  # order 0
        self.check_product(S([0, 0, 5]), S([0, -1, 0, 0, 2]))         # zeros, unequal
        prod = self.check_product(S([big, -big, 0, 1 / big]), S([big, Fraction(-1, 3), big]))
        assert prod.den.bit_length() > 600
        prod = self.check_product(S([1, big]), S([1, -big]))         # cancels at t^1
        assert prod.nums[1] == 0
        prod = self.check_product(S([0, 0, 0]), S([big, 1, -big]))   # cancels to 0
        assert prod.nums == [0, 0, 0] and prod.den == 1

    def test_reads_as_integer_ratios(self):
        s = Scaled.of([(1, 2), (-2, 3), (0, 1)])
        assert (s.nums, s.den) == ([3, -4, 0], 6)
        assert len(s) == 3 and s[1] == (-4, 6) and s[1:] == [(-4, 6), (0, 6)]
        assert list(s) == [(3, 6), (-4, 6), (0, 6)]
        assert Scaled.of(s) is s
        s.rescale(12)
        assert (s.nums, s.den) == ([6, -8, 0], 12)
