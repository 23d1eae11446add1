import random
from fractions import Fraction

import pytest

from awflow.polyident import polynomialize
from awflow.reptheory import AloffWallach
from awflow.solver import solve_series
from awflow.systems import (State, SystemId, ZeroDenominator, residual_einstein,
                            rhs_first_order, symmetry_maps)


def random_state(fns, rng, lo=0.5, hi=2.5):
    return State({fn: rng.uniform(lo, hi) * rng.choice([1, -1]) for fn in fns})


class TestSystemId:
    def test_functions(self):
        assert SystemId("S1", AloffWallach(2, 1)).functions == ("a", "b", "c", "f")
        assert SystemId("S2").functions == ("a1", "a2", "b", "c", "f")

    def test_exceptional_pinned(self):
        assert SystemId("S2").aw == AloffWallach(1, 1)
        with pytest.raises(ValueError):
            SystemId("S2", AloffWallach(2, 1))

    def test_generic_needs_orbit(self):
        with pytest.raises(ValueError):
            SystemId("S1")


class TestRhs:
    def test_symmetric_state_one_minus_one(self):
        sys = SystemId("S1", AloffWallach(1, -1))
        d = rhs_first_order(sys, State({"a": 1, "b": 1, "c": 1, "f": 0}))
        assert d == {"a": 1.0, "b": 1.0, "c": 1.0, "f": 0.0}

    def test_exceptional_f_component(self):
        sys = SystemId("S2")
        st = State({"a1": 2, "a2": -2, "b": 1, "c": 1, "f": 12})
        d = rhs_first_order(sys, st)
        assert abs(d["f"] - (-48.0)) < 1e-12

    def test_series_launch_consistency(self):
        # the vector field at a series point matches the series derivative
        sol = solve_series("E", {"b0": 1, "q": 0}, order=20, k=2, l=1)
        sys = sol.system()
        t0 = 1e-3
        st = State({fn: s.eval_float(t0)[0] for fn, s in sol.functions.items()})
        d = rhs_first_order(sys, st)
        for fn, s in sol.functions.items():
            expected = s.derivative().eval_float(t0)[0]
            assert abs(d[fn] - expected) < 1e-8

    def test_zero_denominator_names_function(self):
        sys = SystemId("S1", AloffWallach(2, 1))
        with pytest.raises(ZeroDenominator, match="'b'"):
            rhs_first_order(sys, State({"a": 1, "b": 0, "c": 1, "f": 1}))

    def test_equal_fiber_functions_kill_difference_terms(self):
        # the difference terms of the exceptional system vanish exactly
        sys = SystemId("S2")
        st = State({"a1": 1.3, "a2": 1.3, "b": 0.7, "c": 1.1, "f": 2.0})
        d = rhs_first_order(sys, st)
        assert d["a1"] == d["a2"]
        a, b, c, f = 1.3, 0.7, 1.1, 2.0
        expected_f = f * (f / (3 * a * a) - f / (6 * b * b) - f / (6 * c * c))
        assert abs(d["f"] - expected_f) < 1e-15


class TestEinsteinResidual:
    def setup_method(self):
        self.rng = random.Random(991)

    def test_needs_second_order_system(self):
        sys = SystemId("S1", AloffWallach(2, 1))
        with pytest.raises(ValueError):
            residual_einstein(sys, State({}), {}, {}, 0.0)

    def test_trace_symmetry_under_equal_pairs(self):
        # with a1 = a2 and b = c the fiber equations coincide pairwise
        sys = SystemId("E2")
        st = State({"a1": 1.2, "a2": 1.2, "b": 0.8, "c": 0.8, "f": 2.0})
        d1 = {fn: 0.3 for fn in sys.functions}
        d2 = {fn: -0.1 for fn in sys.functions}
        r = residual_einstein(sys, st, d1, d2, 0.5)
        assert r[0] == r[1]
        assert r[2] == r[3]

    @pytest.mark.parametrize("kind,kl", [("E1", (2, 1)), ("E2", (1, 1))])
    def test_invariance_under_first_derivative_flip(self, kind, kl):
        sys = SystemId(kind, AloffWallach(*kl))
        for _ in range(20):
            st = random_state(sys.functions, self.rng)
            d1 = {fn: self.rng.uniform(-2, 2) for fn in sys.functions}
            d2 = {fn: self.rng.uniform(-2, 2) for fn in sys.functions}
            r = residual_einstein(sys, st, d1, d2, 0.7)
            flipped = residual_einstein(sys, st, {f: -v for f, v in d1.items()},
                                        d2, 0.7)
            assert r == flipped

    @pytest.mark.parametrize("kind,kl", [("E1", (2, 1)), ("E2", (1, 1))])
    def test_invariance_under_single_function_sign_flip(self, kind, kl):
        sys = SystemId(kind, AloffWallach(*kl))
        for fn in sys.functions:
            st = random_state(sys.functions, self.rng)
            d1 = {f: self.rng.uniform(-2, 2) for f in sys.functions}
            d2 = {f: self.rng.uniform(-2, 2) for f in sys.functions}
            r = residual_einstein(sys, st, d1, d2, 0.0)
            st2 = State(dict(st.values))
            st2.values[fn] = -st2.values[fn]
            d1b = dict(d1); d1b[fn] = -d1b[fn]
            d2b = dict(d2); d2b[fn] = -d2b[fn]
            r2 = residual_einstein(sys, st2, d1b, d2b, 0.0)
            assert r == r2


def series_solves(sysid, funcs):
    return all(i.eval_series(funcs).is_zero() for i in polynomialize(sysid))


class TestSymmetryMaps:
    def test_involutions_on_values(self):
        rng = random.Random(5)
        for sysid in (SystemId("S1", AloffWallach(2, 1)),
                      SystemId("S1", AloffWallach(1, -1)), SystemId("S2")):
            st = random_state(sysid.functions, rng)
            for smap in symmetry_maps(sysid):
                twice = smap.apply_to_values(smap.apply_to_values(st.values))
                assert twice == pytest.approx(st.values)

    def test_catalog_sizes(self):
        assert len(symmetry_maps(SystemId("S1", AloffWallach(2, 1)))) == 1
        assert len(symmetry_maps(SystemId("S1", AloffWallach(1, -1)))) == 2
        assert len(symmetry_maps(SystemId("S2"))) == 7

    def test_maps_preserve_solutions_exactly(self):
        # transformed series still satisfy the polynomial identities
        sol_f = solve_series("F", {"b0": 1, "q1": "1/2", "q2": "-1/3"}, order=10)
        sysid = sol_f.system()
        for smap in symmetry_maps(sysid):
            transformed = smap.apply_to_series(sol_f.functions)
            assert series_solves(sysid, transformed), smap.name

        sol_d = solve_series("D", {"b0": 1, "f0": 2}, order=10)
        sysid = sol_d.system()
        for smap in symmetry_maps(sysid):
            transformed = smap.apply_to_series(sol_d.functions)
            assert series_solves(sysid, transformed), smap.name

    def test_swap_fixes_equal_pair_solution(self):
        sol = solve_series("F", {"b0": 1, "q1": 0, "q2": 0}, order=8)
        swap = next(m for m in symmetry_maps(sol.system()) if m.name == "swap_bc")
        assert swap.apply_to_series(sol.functions) == sol.functions

    def test_quotient_mirror_fixes_flag_solution(self):
        sol = solve_series("C", {"a0": 2, "b0": 1, "c0": 1}, order=10)
        mirror = next(m for m in symmetry_maps(sol.system())
                      if m.name == "mirror_a12")
        assert mirror.apply_to_series(sol.functions) == sol.functions

    def test_sphere_mirror_maps_solution_to_solution(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=10)
        sysid = sol.system()
        mirror = next(m for m in symmetry_maps(sysid) if m.name == "mirror_bc")
        transformed = mirror.apply_to_series(sol.functions)
        assert series_solves(sysid, transformed)
        assert transformed == sol.functions  # same initial data, unique series

    def test_identity_like_composition(self):
        sol = solve_series("G", {"a0": 1, "q": 1}, order=8)
        smap = next(m for m in symmetry_maps(sol.system()) if m.name == "swap_a12")
        assert smap.apply_to_series(sol.functions) == sol.functions

    def test_t_reversal_parity(self):
        from awflow.exact import TruncSeries
        sysid = SystemId("S1", AloffWallach(2, 1))
        smap = symmetry_maps(sysid)[0]  # (-a, b, c, -f)(-t)
        odd = TruncSeries([0, 1, 0, -1])
        series = {"a": odd, "b": odd, "c": odd, "f": odd}
        out = smap.apply_to_series(series)
        assert out["a"] == odd  # odd function with sign -1 under reversal
        assert out["b"] == TruncSeries([0, -1, 0, 1])
