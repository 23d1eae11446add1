from fractions import Fraction
from math import gcd

import pytest

from awflow.reptheory import (AloffWallach, Su2ModuleSum, canon_weight,
                              circle_normalization, decompose_S2_p, dim_hom_torus,
                              dim_W, dim_W_s5, first_return_time, isotropy_modules,
                              su2_sym_power, torus_sym_power)


class TestAloffWallach:
    def test_delta(self):
        assert AloffWallach(2, 1).delta == 7
        assert AloffWallach(1, 1).delta == 3
        assert AloffWallach(1, -1).delta == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AloffWallach(0, 0)
        with pytest.raises(ValueError):
            AloffWallach(2, 4)


class TestWeights:
    def test_canonicalization_idempotent(self):
        for r in range(-6, 7):
            for s in range(-6, 7):
                w = canon_weight(r, s)
                assert canon_weight(*w) == w
                assert w >= (-w[0], -w[1])

    def test_isotropy_modules(self):
        m = isotropy_modules(AloffWallach(2, 1))
        assert m == {"V1": (9, 1), "V2": (3, 5), "V3": (6, -4), "pperp": (14, 0)}
        m = isotropy_modules(AloffWallach(1, 1))
        assert m == {"V1": (6, 0), "V2": (3, 3), "V3": (3, -3), "pperp": (6, 0)}
        m = isotropy_modules(AloffWallach(1, 0))
        assert m == {"V1": (3, 1), "V2": (0, 2), "V3": (3, -1), "pperp": (2, 0)}

    def test_sym_power_even(self):
        s = torus_sym_power((14, 0), 2)
        assert dict(s.weights) == {(28, 0): 1}
        assert s.trivial == 1

    def test_sym_power_zeroth(self):
        s = torus_sym_power((5, 3), 0)
        assert not s.weights and s.trivial == 1

    def test_sym_power_odd(self):
        s = torus_sym_power((6, 0), 3)
        assert dict(s.weights) == {(18, 0): 1, (6, 0): 1}
        assert s.trivial == 0

    def test_sym_power_total_dimension(self):
        for m in range(13):
            assert torus_sym_power((14, 0), m).total_dim == m + 1

    def test_tangent_square_generic(self):
        s = decompose_S2_p(AloffWallach(2, 1))
        assert s.trivial == 3
        assert dict(s.weights) == {
            (18, 2): 1, (6, 10): 1, (12, -8): 1, (12, 6): 1, (6, -4): 1,
            (3, 5): 1, (15, -3): 1, (3, -9): 1, (9, 1): 1,
        }

    def test_tangent_square_one_zero(self):
        s = decompose_S2_p(AloffWallach(1, 0))
        assert s.weights[(6, 0)] == 1

    def test_tangent_square_exceptional(self):
        s = decompose_S2_p(AloffWallach(1, 1))
        assert s.trivial == 3
        assert dict(s.weights) == {
            (12, 0): 1, (6, 6): 1, (6, -6): 1, (9, 3): 1, (3, -3): 1,
            (3, 3): 1, (9, -3): 1, (0, 6): 1, (6, 0): 1,
        }


class TestHomCounting:
    def test_trivial_times_trivial(self):
        src = torus_sym_power((14, 0), 0)
        dst = decompose_S2_p(AloffWallach(2, 1))
        assert dim_hom_torus(src, dst) == 3

    def test_single_nontrivial_match(self):
        src = torus_sym_power((2, 0), 3)  # contains (6,0) and (2,0)
        dst = decompose_S2_p(AloffWallach(1, 0))
        assert dim_hom_torus(src, dst) == 2

    def test_vertical_second_power(self):
        pperp = torus_sym_power((14, 0), 2)
        assert dim_hom_torus(pperp, pperp) == 3

    def test_symmetry(self):
        a = decompose_S2_p(AloffWallach(2, 1))
        b = torus_sym_power((14, 0), 4)
        assert dim_hom_torus(a, b) == dim_hom_torus(b, a)


# the displayed closed-form tables, m = 0..10
GENERIC_H = [3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3]
GENERIC_V = [1, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3]
N10_H = [3, 0, 3, 2, 3, 2, 3, 2, 3, 2, 3]
N11_H = [3, 2, 5, 2, 5, 2, 5, 2, 5, 2, 5]
N11_V = [1, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3]
N11_Z2_H = [3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3]
S5_H = [2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2]
S5_V = [1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2]


class TestDimensionTables:
    @pytest.mark.parametrize("kl", [(2, 1), (3, 1), (3, 2), (5, 2)])
    def test_generic_flag(self, kl):
        aw = AloffWallach(*kl)
        assert [dim_W(aw, "u12", m, "h") for m in range(11)] == GENERIC_H
        assert [dim_W(aw, "u12", m, "v") for m in range(11)] == GENERIC_V

    def test_one_zero_flag(self):
        aw = AloffWallach(1, 0)
        assert [dim_W(aw, "u12", m, "h") for m in range(11)] == N10_H

    def test_exceptional_flag(self):
        aw = AloffWallach(1, 1)
        assert [dim_W(aw, "u12", m, "h") for m in range(11)] == N11_H
        assert [dim_W(aw, "u12", m, "v") for m in range(11)] == N11_V

    def test_exceptional_flag_quotient(self):
        aw = AloffWallach(1, 1)
        assert [dim_W(aw, "u12-z2", m, "h") for m in range(11)] == N11_Z2_H
        assert [dim_W(aw, "u12-z2", m, "v") for m in range(11)] == N11_V

    def test_five_sphere(self):
        assert [dim_W_s5(m, "h") for m in range(11)] == S5_H
        assert [dim_W_s5(m, "v") for m in range(11)] == S5_V

    def test_sphere_orbit_rejected(self):
        with pytest.raises(ValueError, match="use dim_W_s5"):
            dim_W(AloffWallach(1, -1), "s5", 2, "h")

    def test_quotient_needs_exceptional(self):
        with pytest.raises(ValueError):
            dim_W(AloffWallach(2, 1), "u12-z2", 2, "h")


_PAIRS_12 = [(k, l) for k in range(-12, 13) for l in range(-12, 13)
             if (k, l) != (0, 0) and gcd(k, l) == 1]


class TestCountingMatchesModuleSums:
    """dim_W and dim_W_s5 count matching weights; the module sums are the
    reference they must agree with."""

    def test_torus_orbits(self):
        checked = 0
        for k, l in _PAIRS_12:
            aw = AloffWallach(k, l)
            normal = isotropy_modules(aw)["pperp"]
            orbits = {"u12": normal}
            if (k, l) == (1, 1):
                orbits["u12-z2"] = canon_weight(4 * aw.delta, 0)
            for orbit, pperp in orbits.items():
                targets = {"h": decompose_S2_p(aw), "v": torus_sym_power(pperp, 2)}
                for m in range(25):
                    src = torus_sym_power(pperp, m)
                    for part, dst in targets.items():
                        assert dim_W(aw, orbit, m, part) == dim_hom_torus(src, dst), \
                            (k, l, orbit, m, part)
                        checked += 1
        assert checked == (len(_PAIRS_12) + 1) * 25 * 2

    def test_five_sphere(self):
        targets = {"h": Su2ModuleSum(), "v": Su2ModuleSum()}
        targets["h"].add(2, "R", 3)
        targets["h"].add(1, "C", 1)
        targets["h"].add(0, "R", 2)
        targets["v"].add(4, "R")
        targets["v"].add(0, "R")
        for m in range(25):
            src = su2_sym_power(m)
            for part, dst in targets.items():
                want = sum(ms * dst.entries.get((w, "R"), 0)
                           for (w, kind), ms in src.entries.items() if kind == "R")
                assert dim_W_s5(m, part) == want, (m, part)


class TestErrors:
    """Each ValueError of the tables, and the order the checks run in."""

    @pytest.mark.parametrize("kl, orbit, m, part, message", [
        ((1, 1), "s5", -1, "x", "use dim_W_s5"),
        ((1, 1), "u13", -1, "x",
         "unknown orbit 'u13'; expected one of ('u12', 'u12-z2', 's5')"),
        ((2, 1), "u12-z2", -1, "x",
         "the order-two quotient exists only for (k, l) = (1, 1)"),
        ((2, 1), "u12", -1, "x", "m must be >= 0"),
        ((1, 1), "u12-z2", -3, "h", "m must be >= 0"),
        ((2, 1), "u12", 0, "x", "part must be 'h' or 'v'"),
        ((1, 1), "u12-z2", 4, "hv", "part must be 'h' or 'v'"),
    ])
    def test_dim_W(self, kl, orbit, m, part, message):
        with pytest.raises(ValueError) as exc:
            dim_W(AloffWallach(*kl), orbit, m, part)
        assert str(exc.value) == message

    @pytest.mark.parametrize("m, part, message", [
        (-1, "x", "m must be >= 0"),
        (-2, "h", "m must be >= 0"),
        (0, "x", "part must be 'h' or 'v'"),
        (3, "V", "part must be 'h' or 'v'"),
    ])
    def test_dim_W_s5(self, m, part, message):
        with pytest.raises(ValueError) as exc:
            dim_W_s5(m, part)
        assert str(exc.value) == message


class TestSu2SymPower:
    def test_second_power(self):
        s = su2_sym_power(2)
        assert dict(s.entries) == {(4, "R"): 1, (0, "R"): 1}

    def test_zeroth(self):
        assert dict(su2_sym_power(0).entries) == {(0, "R"): 1}

    def test_third(self):
        assert dict(su2_sym_power(3).entries) == {(6, "R"): 1, (2, "R"): 1}

    def test_total_dimension(self):
        for m in range(12):
            assert su2_sym_power(m).total_dim == (m + 1) * (m + 2) // 2


class TestFirstReturn:
    def test_exceptional(self):
        aw = AloffWallach(1, 1)
        assert first_return_time(aw) == Fraction(1, 3)
        assert circle_normalization(aw) == 6

    def test_exceptional_quotient(self):
        aw = AloffWallach(1, 1)
        assert first_return_time(aw, quotient_by_h=True) == Fraction(1, 6)
        assert circle_normalization(aw, quotient_by_h=True) == 12

    @pytest.mark.parametrize("kl", [(2, 1), (3, 1), (3, 2), (1, 0)])
    def test_generic_matches_normal_weight(self, kl):
        # the return time is pi/delta, consistent with the Einstein seed
        aw = AloffWallach(*kl)
        assert first_return_time(aw) == Fraction(1, aw.delta)
        assert circle_normalization(aw) == 2 * aw.delta


#: first_return_time(aw) and first_return_time(aw, quotient_by_h=True) for every
#: coprime (k, l) with |k|, |l| <= 5, as multiples of pi.
RETURN_TIMES = {
    (-5, -4): ("1/61", "3/244"), (-5, -3): ("1/49", "1/49"),
    (-5, -2): ("1/39", "1/156"), (-5, -1): ("1/31", "1/62"),
    (-5, 1): ("1/21", "1/21"), (-5, 2): ("1/19", "1/76"), (-5, 3): ("1/19", "1/38"),
    (-5, 4): ("1/21", "1/28"), (-4, -5): ("1/61", "3/244"),
    (-4, -3): ("1/37", "1/148"), (-4, -1): ("1/21", "1/28"),
    (-4, 1): ("1/13", "1/52"), (-4, 3): ("1/13", "3/52"), (-4, 5): ("1/21", "1/84"),
    (-3, -5): ("1/49", "1/49"), (-3, -4): ("1/37", "1/148"),
    (-3, -2): ("1/19", "3/76"), (-3, -1): ("1/13", "1/13"),
    (-3, 1): ("1/7", "1/14"), (-3, 2): ("1/7", "3/28"), (-3, 4): ("1/13", "1/52"),
    (-3, 5): ("1/19", "1/38"), (-2, -5): ("1/39", "1/156"),
    (-2, -3): ("1/19", "3/76"), (-2, -1): ("1/7", "1/28"), (-2, 1): ("1/3", "1/4"),
    (-2, 3): ("1/7", "1/28"), (-2, 5): ("1/19", "3/76"), (-1, -5): ("1/31", "1/62"),
    (-1, -4): ("1/21", "1/28"), (-1, -3): ("1/13", "1/13"),
    (-1, -2): ("1/7", "1/28"), (-1, -1): ("1/3", "1/6"), (-1, 0): ("1", "3/4"),
    (-1, 1): ("1", "1"), (-1, 2): ("1/3", "1/12"), (-1, 3): ("1/7", "1/14"),
    (-1, 4): ("1/13", "3/52"), (-1, 5): ("1/21", "1/21"), (0, -1): ("1", "3/4"),
    (0, 1): ("1", "1/4"), (1, -5): ("1/21", "1/21"), (1, -4): ("1/13", "1/52"),
    (1, -3): ("1/7", "1/14"), (1, -2): ("1/3", "1/4"), (1, -1): ("1", "1"),
    (1, 0): ("1", "1/4"), (1, 1): ("1/3", "1/6"), (1, 2): ("1/7", "3/28"),
    (1, 3): ("1/13", "1/13"), (1, 4): ("1/21", "1/21"), (1, 5): ("1/31", "1/31"),
    (2, -5): ("1/19", "1/76"), (2, -3): ("1/7", "3/28"), (2, -1): ("1/3", "1/12"),
    (2, 1): ("1/7", "3/28"), (2, 3): ("1/19", "1/19"), (2, 5): ("1/39", "1/39"),
    (3, -5): ("1/19", "1/38"), (3, -4): ("1/13", "3/52"), (3, -2): ("1/7", "1/28"),
    (3, -1): ("1/7", "1/14"), (3, 1): ("1/13", "1/13"), (3, 2): ("1/19", "1/19"),
    (3, 4): ("1/37", "1/37"), (3, 5): ("1/49", "1/49"), (4, -5): ("1/21", "1/28"),
    (4, -3): ("1/13", "1/52"), (4, -1): ("1/13", "3/52"), (4, 1): ("1/21", "1/21"),
    (4, 3): ("1/37", "1/37"), (4, 5): ("1/61", "1/61"), (5, -4): ("1/21", "1/84"),
    (5, -3): ("1/19", "1/38"), (5, -2): ("1/19", "3/76"), (5, -1): ("1/21", "1/21"),
    (5, 1): ("1/31", "1/31"), (5, 2): ("1/39", "1/39"), (5, 3): ("1/49", "1/49"),
    (5, 4): ("1/61", "1/61"),
}


@pytest.mark.parametrize("kl", sorted(RETURN_TIMES))
def test_first_return_time_pinned(kl):
    aw = AloffWallach(*kl)
    plain, quotient = RETURN_TIMES[kl]
    assert first_return_time(aw) == Fraction(plain)
    assert first_return_time(aw, quotient_by_h=True) == Fraction(quotient)


def _bezout(k, l):
    """(x, y) with x*k + y*l = 1, for coprime k and l."""
    r0, r1, x0, x1 = k, l, 1, 0
    while r1:
        q = r0 // r1
        r0, r1, x0, x1 = r1, r0 - q * r1, x1, x0 - q * x1
    # r0 = +-1 and x0*k = r0 (mod l)
    x = x0 * r0
    return x, ((1 - x * k) // l if l else 0)


def lattice_return_time(aw, quotient_by_h=False):
    """Reference: walk the commensurability lattice, testing each point exactly
    for a torus angle v that makes every phase integral."""
    k, l, delta = aw.k, aw.l, aw.delta
    x, y = _bezout(k, l)

    def admissible(u, eps):
        # the three phases sum to zero, so kv = A and lv = B (mod 1) decide;
        # as gcd(k, l) = 1 their only solution mod 1, if any, is v = xA + yB
        e = Fraction(eps, 4)
        a = (2 * l + k) * u - e
        b = e - (2 * k + l) * u
        v = x * a + y * b
        return (k * v - a).denominator == 1 and (l * v - b).denominator == 1

    best = None
    for eps in ((0, 1) if quotient_by_h else (0,)):
        for n in range(0, 8 * delta + 2):
            u = (Fraction(n) + Fraction((k + l) * eps, 4)) / (2 * delta)
            if u > 0 and admissible(u, eps):
                best = u if best is None else min(best, u)
                break
    assert best is not None, f"no return time found for {aw}"
    return 2 * best


def test_closed_form_matches_lattice_search():
    pairs = [(k, l) for k in range(-25, 26) for l in range(-25, 26)
             if (k, l) != (0, 0) and gcd(k, l) == 1]
    assert len(pairs) == 1600
    for k, l in pairs:
        aw = AloffWallach(k, l)
        for q in (False, True):
            assert first_return_time(aw, q) == lattice_return_time(aw, q), (k, l, q)
