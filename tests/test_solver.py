from dataclasses import replace
from fractions import Fraction as F
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awflow import polyident, solver
from awflow.analysis import cross_check_free_params
from awflow.cases import CASES, ConstraintError, MissingSlotValue, SlotSpec, get_case
from awflow.exact import Scaled, TruncSeries
from awflow.polyident import eval_identities, polynomialize
from awflow.reptheory import AloffWallach
from awflow.solver import (InconsistentSystem, ResonantDatum, SeriesSolution,
                           check_smoothness, einstein_series, free_slots, slot_key,
                           solve_series)
from awflow.systems import SystemId


def coef(sol, fn, n):
    return list(sol.functions[fn].coef[: n + 1])


class TestGoldenCoefficients:
    """Exact equality against the displayed expansions, zero tolerance."""

    def test_case_c(self):
        sol = solve_series("C", {"a0": 2, "b0": 1, "c0": 1}, order=6)
        assert coef(sol, "a1", 2) == [2, -1, F(11, 4)]
        assert coef(sol, "a2", 2) == [-2, -1, F(-11, 4)]
        assert coef(sol, "b", 2) == [1, 0, F(1, 2)]
        assert coef(sol, "c", 2) == [1, 0, F(1, 2)]
        assert coef(sol, "f", 2) == [0, 12, 0]

    def test_case_c_general_parameters(self):
        a0, b0, c0 = F(3), F(2), F(5)
        sol = solve_series("C", {"a0": a0, "b0": b0, "c0": c0}, order=4)
        assert sol.functions["a1"].coef[1] == -F(1, 2) * (a0**2 - b0**2 - c0**2) / (b0 * c0)
        assert sol.functions["a1"].coef[2] == F(1, 8) * (
            3 * a0**4 - 2 * a0**2 * b0**2 - 2 * a0**2 * c0**2
            - b0**4 + 14 * b0**2 * c0**2 - c0**4) / (a0 * b0**2 * c0**2)
        assert sol.functions["b"].coef[2] == -F(1, 4) * (
            a0**4 - 6 * a0**2 * c0**2 - b0**4 + c0**4) / (a0**2 * b0 * c0**2)
        assert sol.functions["c"].coef[2] == -F(1, 4) * (
            a0**4 - 6 * a0**2 * b0**2 + b0**4 - c0**4) / (a0**2 * b0**2 * c0)

    def test_case_d(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=6)
        assert coef(sol, "a", 3) == [0, 2, 0, F(-35, 27)]
        assert coef(sol, "b", 3) == [1, F(-1, 6), F(67, 72), F(337, 6480)]
        assert coef(sol, "c", 3) == [1, F(1, 6), F(67, 72), F(-337, 6480)]
        assert coef(sol, "f", 3) == [1, 0, F(1, 6), 0]

    def test_case_d_general_parameters(self):
        b0, f0 = F(3), F(2)
        sol = solve_series("D", {"b0": b0, "f0": f0}, order=4)
        assert sol.functions["a"].coef[3] == -F(1, 27) * (36 * b0**2 - f0**2) / b0**4
        assert sol.functions["b"].coef[2] == F(1, 72) * (72 * b0**2 - 5 * f0**2) / b0**3
        assert sol.functions["b"].coef[3] == F(1, 6480) * f0 * (
            504 * b0**2 - 167 * f0**2) / b0**5
        assert sol.functions["f"].coef[2] == F(1, 6) * f0**3 / b0**4

    def test_case_e_at_one_zero(self):
        sol = solve_series("E", {"b0": 1, "q": 0}, order=6, k=1, l=0)
        assert coef(sol, "a", 4) == [0, 1, 0, F(-1, 2), 0]
        assert coef(sol, "b", 4) == [1, 0, F(2, 3), 0, F(-13, 36)]
        assert coef(sol, "c", 4) == [1, 0, F(5, 6), 0, F(-35, 72)]
        assert coef(sol, "f", 4) == [0, 2, 0, 0, 0]

    def test_case_e_general(self):
        k, l, b0, q = 3, 1, F(2), F(5)
        D = k * k + k * l + l * l
        sol = solve_series("E", {"b0": b0, "q": q}, order=5, k=k, l=l)
        assert sol.functions["a"].coef[1] == 1
        assert sol.functions["f"].coef[1] == F(2 * D, k + l)
        assert sol.functions["f"].coef[3] == q / (6 * b0**2)
        assert sol.functions["a"].coef[3] == -F(1, 24) * (12 * D + q * (k + l)) / (D * b0**2)
        assert sol.functions["b"].coef[2] == F(4 * k + 5 * l, 6 * (k + l)) / b0
        assert sol.functions["c"].coef[2] == F(5 * k + 4 * l, 6 * (k + l)) / b0
        # fourth order: the (k+l)^2 normalization is pinned by exact
        # re-substitution; it coincides with the published display at (1, 0)
        den = D * (k + l) ** 2 * b0**3
        assert sol.functions["b"].coef[4] == F(1, 288) * (
            (-104 * k**2 - 224 * k * l - 140 * l**2) * D
            + q * (-k**3 - k**2 * l + k * l**2 + l**3)) / den
        assert sol.functions["c"].coef[4] == F(1, 288) * (
            (-140 * k**2 - 224 * k * l - 104 * l**2) * D
            + q * (k**3 + k**2 * l - k * l**2 - l**3)) / den

    def test_case_f(self):
        sol = solve_series("F", {"b0": 1, "q1": 0, "q2": 0}, order=7)
        assert coef(sol, "a1", 5) == [0, 1, 0, 0, 0, 0]
        assert coef(sol, "a2", 5) == [0, 1, 0, 0, 0, 0]
        assert coef(sol, "b", 5) == [1, 0, F(3, 4), 0, F(-39, 96), 0]
        assert coef(sol, "c", 5) == [1, 0, F(3, 4), 0, F(-39, 96), 0]
        assert coef(sol, "f", 5) == [0, 3, 0, -3, 0, F(9, 2)]

    def test_case_f_with_parameters(self):
        b0, q1, q2 = F(1), F(1), F(-2)
        sol = solve_series("F", {"b0": b0, "q1": q1, "q2": q2}, order=6)
        assert sol.functions["a1"].coef[3] == q1 / (6 * b0**2)
        assert sol.functions["a2"].coef[3] == q2 / (6 * b0**2)
        assert sol.functions["f"].coef[3] == -(6 + q1 + q2) / (2 * b0**2)
        assert sol.functions["f"].coef[5] == (
            2 * q1**2 + 7 * q1 * q2 + 2 * q2**2 + 27 * q1 + 27 * q2 + 90
        ) / (20 * b0**4)
        assert sol.functions["a2"].coef[5] == (
            -3 * q1**2 - 3 * q1 * q2 + 2 * q2**2 - 18 * q1 - 3 * q2
        ) / (60 * b0**4)

    def test_case_g(self):
        sol = solve_series("G", {"a0": 1, "q": 0}, order=7)
        assert coef(sol, "a1", 5) == [1, 0, 1, 0, F(-7, 8), 0]
        assert coef(sol, "a2", 5) == [1, 0, 1, 0, F(-7, 8), 0]
        assert coef(sol, "b", 5) == [0, 1, 0, 0, 0, F(-3, 40)]
        assert coef(sol, "c", 5) == [1, 0, F(1, 2), 0, F(-1, 4), 0]
        assert coef(sol, "f", 5) == [0, -6, 0, 6, 0, F(-123, 10)]

    def test_case_g_with_parameter(self):
        a0, q = F(1), F(1)
        sol = solve_series("G", {"a0": a0, "q": q}, order=6)
        assert sol.functions["a1"].coef[4] == -(q + 21) / (24 * a0**3)
        assert sol.functions["b"].coef[3] == q / (6 * a0**2)
        assert sol.functions["b"].coef[5] == -(8 * q**2 + 42 * q + 9) / (120 * a0**4)
        assert sol.functions["c"].coef[4] == (q - 6) / (24 * a0**3)
        assert sol.functions["f"].coef[3] == 2 * (q + 3) / a0**2
        assert sol.functions["f"].coef[5] == -(11 * q**2 + 54 * q + 123) / (10 * a0**4)

    def test_case_h(self):
        sol = solve_series("H", {"a0": 1, "q": 0}, order=7)
        assert coef(sol, "a1", 5) == [1, 0, 1, 0, F(-23, 24), 0]
        assert coef(sol, "a2", 5) == [-1, 0, -2, 0, F(7, 24), 0]
        assert coef(sol, "b", 5) == [0, 1, 0, F(-1, 6), 0, F(-5, 48)]
        assert coef(sol, "c", 5) == [1, 0, 0, 0, F(1, 8), 0]
        assert coef(sol, "f", 5) == [0, 6, 0, -4, 0, F(35, 4)]

    def test_case_h_with_parameter(self):
        a0, q = F(1), F(2)
        sol = solve_series("H", {"a0": a0, "q": q}, order=6)
        assert sol.functions["c"].coef[2] == q / (2 * a0)
        assert sol.functions["a1"].coef[4] == (3 * q - 23) / (24 * a0**3)
        assert sol.functions["a2"].coef[2] == (q - 2) / a0
        assert sol.functions["a2"].coef[4] == -(12 * q**2 - 25 * q - 7) / (24 * a0**3)
        assert sol.functions["b"].coef[5] == -(39 * q**2 - 114 * q + 25) / (240 * a0**4)
        assert sol.functions["c"].coef[4] == (3 * q**2 - 13 * q + 3) / (24 * a0**3)
        assert sol.functions["f"].coef[5] == (3 * q**2 - 18 * q + 175) / (20 * a0**4)

    def test_case_a_forces_circle_function_to_zero(self):
        sol = solve_series("A", {"a0": 1, "b0": 2, "c0": 3}, order=12, k=2, l=1)
        assert sol.functions["f"].is_zero()


class TestSolverContracts:
    def test_resubstitution_exact(self):
        for cid, params, kw in [
            ("A", {"a0": 1, "b0": 1, "c0": 1}, dict(k=3, l=1)),
            ("B", {"a0": 1, "b0": 2, "c0": 3}, {}),
            ("C", {"a0": 2, "b0": 1, "c0": 1}, {}),
            ("D", {"b0": 1, "f0": 1}, {}),
            ("E", {"b0": 1, "q": "1/3"}, dict(k=2, l=1)),
            ("F", {"b0": 2, "q1": 1, "q2": 2}, {}),
            ("G", {"a0": 2, "q": "-1/2"}, {}),
            ("H", {"a0": 3, "q": 5}, {}),
        ]:
            sol = solve_series(cid, params, order=10, **kw)
            assert sol.verify_exact(), cid

    def test_uniqueness_no_hidden_nondeterminism(self):
        for cid, params in [("C", {"a0": 2, "b0": 1, "c0": 1}),
                            ("D", {"b0": 1, "f0": 1})]:
            s1 = solve_series(cid, params, order=20)
            s2 = solve_series(cid, params, order=20)
            assert s1.functions == s2.functions

    def test_homothety_covariance(self):
        # (b0, f0) -> (2 b0, 2 f0) rescales coefficient i by 2^(1-i)
        base = solve_series("D", {"b0": 1, "f0": 1}, order=10)
        scaled = solve_series("D", {"b0": 2, "f0": 2}, order=10)
        for fn in base.functions:
            for i in range(11):
                assert scaled.functions[fn].coef[i] == \
                    base.functions[fn].coef[i] * F(2) ** (1 - i)

    def test_missing_initial_parameter(self):
        with pytest.raises(ConstraintError, match="requires parameter"):
            solve_series("D", {"b0": 1}, order=6)

    def test_zero_initial_parameter(self):
        with pytest.raises(ConstraintError, match="nonzero"):
            solve_series("D", {"b0": 0, "f0": 1}, order=6)

    def test_constraint_violation(self):
        with pytest.raises(ConstraintError, match="forces c0"):
            solve_series("D", {"b0": 1, "f0": 1, "c0": 2}, order=6)

    def test_missing_slot_value_names_slot(self):
        with pytest.raises(MissingSlotValue, match=r"\(f, 3\)") as err:
            solve_series("E", {"b0": 1}, order=6, k=1, l=0)
        assert err.value.slot == ("f", 3)
        assert err.value.param == "q"

    def test_float_parameters_rejected(self):
        with pytest.raises(TypeError):
            solve_series("D", {"b0": 0.5, "f0": 1}, order=6)

    def test_kl_exclusions(self):
        with pytest.raises(ConstraintError):
            solve_series("E", {"b0": 1, "q": 0}, order=6, k=1, l=-1)
        with pytest.raises(ConstraintError):
            solve_series("A", {"a0": 1, "b0": 1, "c0": 1}, order=6, k=1, l=1)

    def test_json_round_trip(self):
        sol = solve_series("F", {"b0": 1, "q1": 1, "q2": 0}, order=8)
        back = SeriesSolution.from_json(sol.to_json())
        assert back.functions == sol.functions
        assert back.bound_params == sol.bound_params
        assert back.free_slots_found == sol.free_slots_found
        assert back.verify_exact()


class TestEntryErrors:
    """The typed errors of the entry layer above the block recursion."""

    _E = {"b0": F(2, 3), "q": F(1, 2)}

    def test_census_needs_order_6(self):
        with pytest.raises(ConstraintError, match=r"^slot census needs order >= 6$"):
            free_slots("E", order=5, k=2, l=1)

    def test_declared_slot_that_never_becomes_free(self):
        # b[4] is solved at its order: the catalog's promise is not kept
        case = get_case("E")
        case = replace(case, slots=case.slots + (SlotSpec("p", "b", 4, scale=lambda p: 1),))
        with pytest.raises(InconsistentSystem,
                           match=r"^declared free slots never became free: \[\('b', 4\)\]$"):
            solve_series(case, {**self._E, "p": 1}, order=8, k=2, l=1)

    def test_free_direction_no_slot_declares(self):
        # M(3) drops rank; with no slot to pivot last, a[3] is the column left
        case = replace(get_case("E"), slots=())
        with pytest.raises(InconsistentSystem,
                           match=r"^unexpected free direction \(a, 3\) for case E$"):
            solve_series(case, self._E, order=8, k=2, l=1)

    def test_no_einstein_solve_message(self):
        with pytest.raises(ConstraintError, match=r"^case E has no diagonal Einstein solve "
                           r"\(flag and five-sphere orbits only\)$"):
            einstein_series("E", {"b0": 1, "q": 0}, 0, order=6, k=2, l=1)

    def test_cone_datum_not_rational_in_f3(self):
        with pytest.raises(ConstraintError, match=r"the cone datum is not rational in "
                           r"f'''\(0\); pass f1 explicitly instead of f3$"):
            einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "asum1": 1, "f3": 1}, 1,
                            order=6)

    def test_degeneration_not_cataloged(self):
        with pytest.raises(ConstraintError, match=r"^the f'\(0\) = 0 degeneration is not "
                           r"cataloged for case C$"):
            einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "f3": 0}, 0, order=6)


_NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


class TestForcedFirstDerivatives:
    """C's forced b'(0), c'(0) and f'(0) = 12 are catalog data that the
    equations check; every order is then one linear solve."""

    @staticmethod
    def _run(seeds):
        case = get_case("C")
        aw = case.resolve_aw()
        return solver._run(case, aw, seeds(case.seeds(aw, {"a0": 1, "b0": 1, "c0": 1})),
                           8, lambda fn, o: F(0))

    def test_order_zero_seeds_alone_are_not_affine(self):
        # unseeded, f[1] multiplies a1[1] and a2[1] in rows a1 and a2 at n = 1
        with pytest.raises(InconsistentSystem,
                           match=r"order 1: identity 'a[12]' is not affine"):
            self._run(lambda seeds: {key: v for key, v in seeds.items() if key[1] == 0})

    def test_wrong_circle_rate_is_inconsistent(self):
        with pytest.raises(InconsistentSystem,
                           match=r"order 1: identity 'f' reduces to 36 = 0"):
            self._run(lambda seeds: {**seeds, ("f", 1): F(6)})

    @given(a0=_NONZERO, b0=_NONZERO, c0=_NONZERO)
    @settings(max_examples=25, deadline=None)
    def test_solves_at_any_nonzero_datum(self, a0, b0, c0):
        sol = solve_series("C", {"a0": a0, "b0": b0, "c0": c0}, order=8)
        assert sol.verify_exact()
        assert sol.diagnostics[0]["resolved"] == ["a1[1]", "a2[1]"]


class TestFreeSlots:
    EXPECTED = {
        "C": [],
        "D": [],
        "E": [("f", 3)],
        "F": [("a1", 3), ("a2", 3)],
        "G": [("b", 3)],
        "H": [("c", 2)],
    }

    @pytest.mark.parametrize("cid", sorted(EXPECTED))
    def test_census(self, cid):
        kw = dict(k=2, l=1) if cid == "E" else {}
        assert free_slots(cid, order=8, **kw) == self.EXPECTED[cid]

    @pytest.mark.parametrize("cid", sorted(EXPECTED))
    def test_census_independent_of_parameters(self, cid):
        kw = dict(k=1, l=0) if cid == "E" else {}
        case = get_case(cid)
        sets = [
            {name: F(i + 2, 3) for i, name in enumerate(case.required_params)},
            {name: F(7 - i, 2) for i, name in enumerate(case.required_params)},
        ]
        censuses = {tuple(free_slots(cid, order=8, params=p, **kw)) for p in sets}
        assert len(censuses) == 1
        assert list(censuses.pop()) == self.EXPECTED[cid]

    def test_census_probe_value_irrelevant(self):
        assert free_slots("G", order=8, probe=F(0)) == \
            free_slots("G", order=8, probe=F(3, 7))


class TestSmoothness:
    @pytest.mark.parametrize("cid,params,kw", [
        ("C", {"a0": 2, "b0": 1, "c0": 1}, {}),
        ("D", {"b0": 1, "f0": 1}, {}),
        ("E", {"b0": 1, "q": "1/2"}, dict(k=2, l=1)),
        ("F", {"b0": 1, "q1": 1, "q2": -1}, {}),
        ("G", {"a0": 1, "q": 2}, {}),
        ("H", {"a0": 1, "q": 2}, {}),
    ])
    def test_all_cases_smooth(self, cid, params, kw):
        sol = solve_series(cid, params, order=10, **kw)
        report = check_smoothness(sol)
        assert report.ok, report.violations

    def test_normalizations(self):
        sol = solve_series("C", {"a0": 2, "b0": 1, "c0": 1}, order=6)
        assert abs(sol.functions["f"].coef[1]) == 12
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=6)
        assert abs(sol.functions["a"].coef[1]) == 2
        sol = solve_series("E", {"b0": 1, "q": 0}, order=6, k=2, l=1)
        aw = AloffWallach(2, 1)
        assert abs(sol.functions["f"].coef[1]) == F(2 * aw.delta, 3)
        assert abs(sol.functions["a"].coef[1]) == 1

    def test_fault_injection_detected(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=8)
        coefs = list(sol.functions["b"].coef)
        coefs[3] = -coefs[3]  # break the mirror b(t) = c(-t) at one order
        sol.functions["b"] = TruncSeries(coefs)
        report = check_smoothness(sol)
        assert not report.ok
        assert len(report.violations) == 1
        assert report.violations[0][:2] == ("b", 3)

    def test_parity_fault_injection(self):
        sol = solve_series("G", {"a0": 1, "q": 0}, order=8)
        coefs = list(sol.functions["c"].coef)
        coefs[5] = F(1, 7)  # even function acquires an odd term
        sol.functions["c"] = TruncSeries(coefs)
        report = check_smoothness(sol)
        assert not report.ok
        assert ("c", 5) in {v[:2] for v in report.violations}


class TestEinstein:
    def test_flag_formal_solution_both_lambdas(self):
        for lam in (0, 1):
            sol = einstein_series("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 1},
                                  lam, order=8, k=2, l=1)
            assert sol.verify_exact()
            assert sol.free_slots_found == [("f", 3)]
            assert 6 * sol.functions["f"].coef[3] == 1

    def test_flag_slot_is_consumed(self):
        s1 = einstein_series("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 1}, 0,
                             order=6, k=2, l=1)
        s2 = einstein_series("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 2}, 0,
                             order=6, k=2, l=1)
        assert s1.functions["f"] != s2.functions["f"]
        assert 6 * s2.functions["f"].coef[3] == 2

    def test_degenerate_branch(self):
        sol = einstein_series("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 0}, 0,
                              order=6, k=2, l=1)
        assert sol.functions["f"].is_zero()
        assert sol.free_slots_found == [("f", 3)]
        base = solve_series("A", {"a0": 1, "b0": 1, "c0": 1}, order=6, k=2, l=1)
        assert sol.functions == base.functions

    def test_degenerate_branch_needs_ricci_flat(self):
        with pytest.raises(ConstraintError, match="Ricci-flat only"):
            einstein_series("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 0}, 1,
                            order=6, k=2, l=1)

    def test_one_zero_flag(self):
        sol = einstein_series("B", {"a0": 1, "b0": 2, "c0": 3, "f3": 1}, 0, order=8)
        assert sol.verify_exact()

    def test_exceptional_flag(self):
        sol = einstein_series("C", {"a0": 2, "b0": 1, "c0": 1, "asum1": 0,
                                    "f3": 1}, 0, order=8)
        assert sol.verify_exact()
        assert sol.free_slots_found == [("a1+a2", 1), ("f", 3)]

    def test_exceptional_flag_contains_holonomy_witness(self):
        witness = solve_series("C", {"a0": 2, "b0": 1, "c0": 1}, order=8)
        s = 2 * witness.functions["a1"].coef[1]
        sol = einstein_series("C", {"a0": 2, "b0": 1, "c0": 1, "asum1": s,
                                    "f1": 12}, 0, order=8)
        assert sol.functions == witness.functions

    @pytest.mark.parametrize("cid, params, kw", [
        ("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 1}, {"k": 2, "l": 1}),
        ("B", {"a0": 1, "b0": 2, "c0": 3, "f3": 1}, {}),
        ("C", {"a0": 5, "b0": 3, "c0": 4, "f3": 1}, {}),
    ])
    def test_reference_pass_solves_no_order_above_3(self, monkeypatch, cid, params, kw):
        # the reference only reads f[3]; orders 0 and 1 are seeded
        sol, (reference, main) = _streams(
            monkeypatch, lambda: einstein_series(cid, params, 1, order=10, **kw))
        assert [log["order"] for log in reference.diagnostics] == [2, 3]
        assert main.diagnostics == sol.diagnostics
        assert 6 * sol.functions["f"].coef[3] == 1

    def test_sphere(self):
        sol = einstein_series("D", {"b0": 1, "f0": 1, "bdiff1": 0}, 0, order=8)
        assert sol.verify_exact()
        assert sol.free_slots_found == [("b-c", 1)]

    def test_sphere_contains_holonomy_witness(self):
        witness = solve_series("D", {"b0": 1, "f0": 1}, order=8)
        bd = witness.functions["b"].coef[1] - witness.functions["c"].coef[1]
        sol = einstein_series("D", {"b0": 1, "f0": 1, "bdiff1": bd}, 0, order=8)
        assert sol.functions == witness.functions

    def test_sphere_third_derivative_is_determined(self):
        with pytest.raises(ConstraintError, match="determined"):
            einstein_series("D", {"b0": 1, "f0": 1, "bdiff1": 0, "a3": 7}, 0,
                            order=8)

    def test_flag_third_derivative_next_to_f1_is_checked(self):
        # f1 = 5/2 determines f'''(0) = 887/360 at lambda 1
        params = {"a0": 5, "b0": 3, "c0": 4, "f1": F(5, 2)}
        with pytest.raises(ConstraintError, match=r"f'''\(0\) is determined as 887/360; "
                           r"the requested value 7 needs another cone datum than f1 = 5/2"):
            einstein_series("C", {**params, "f3": 7}, 1, order=8)
        sol = einstein_series("C", {**params, "f3": F(887, 360)}, 1, order=8)
        assert sol.functions == einstein_series("C", params, 1, order=8).functions
        assert sol.bound_params["f3"] == F(887, 360)

    def test_degenerate_third_derivative_next_to_f1_is_checked(self):
        params = {"a0": 1, "b0": 2, "c0": 3, "f1": 0}
        with pytest.raises(ConstraintError, match=r"f'''\(0\) is determined as 0; "
                           r"the requested value 2 needs another cone datum than f1 = 0"):
            einstein_series("B", {**params, "f3": 2}, 0, order=6)
        sol = einstein_series("B", {**params, "f3": 0}, 0, order=6)
        assert sol.functions["f"].is_zero()

    def test_missing_slot(self):
        with pytest.raises(MissingSlotValue):
            einstein_series("A", {"a0": 1, "b0": 1, "c0": 1}, 0, order=6,
                            k=2, l=1)

    def test_no_einstein_catalog_for_projective_cases(self):
        with pytest.raises(ConstraintError):
            einstein_series("E", {"b0": 1, "q": 0}, 0, order=6, k=2, l=1)


class TestEinsteinResonance:
    """At the flag orbit C the cone datum f1 = +-12/n is an indicial root of
    the Einstein recursion: a1[n] is left free, and no slot binds it."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_resonant_cone_datum_is_typed(self, n, sign):
        f1 = sign * F(12, n)
        with pytest.raises(ResonantDatum) as err:
            # lambda cycles through -1, 0 and 1 with n
            einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "f1": f1}, n % 3 - 1,
                            order=n + 1)
        assert isinstance(err.value, ConstraintError)
        message = str(err.value)
        assert f"order n = {n}:" in message
        assert f"a1[{n}] free" in message
        assert f"f1={f1}," in message

    def test_non_resonant_control(self):
        sol = einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "f1": F(5, 2)}, 1,
                              order=14)
        assert sol.order == 14
        assert sol.verify_exact()

    def test_resonance_past_the_requested_order(self):
        # the blocks run through order + d = 12 for the requested order 10
        with pytest.raises(ResonantDatum, match=r"order n = 12: .* a1\[12\] free"):
            einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "f1": 1}, 1, order=10)

    @pytest.mark.parametrize("f1", [5, 6])
    def test_constant_row_stays_inconsistent(self, f1):
        with pytest.raises(InconsistentSystem, match="reduces to"):
            einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "asum1": 1, "f1": f1},
                            1, order=6)


class TestEinsteinCrossCheck:
    @pytest.mark.parametrize("cid,params,kw", [
        ("C", {"a0": 2, "b0": 1, "c0": 1}, {}),
        ("D", {"b0": 1, "f0": 1}, {}),
        ("E", {"b0": 1, "q": 1}, dict(k=2, l=1)),
        ("F", {"b0": 1, "q1": 1, "q2": -2}, {}),
        ("G", {"a0": 1, "q": 1}, {}),
        ("H", {"a0": 1, "q": 1}, {}),
    ])
    def test_holonomy_solutions_are_ricci_flat_series(self, cid, params, kw):
        sol = solve_series(cid, params, order=10, **kw)
        esys = sol.case.system(sol.aw).einstein()
        for ident in polynomialize(esys):
            res = ident.eval_series(sol.functions, lam=F(0))
            assert res.is_zero(), (cid, ident.label)


def _streams(monkeypatch, solve):
    """Run `solve` and return its solution with every stream `_run` built."""
    streams = []
    run = solver._run

    def recording(*args, **kwargs):
        streams.append(run(*args, **kwargs))
        return streams[-1]

    monkeypatch.setattr(solver, "_run", recording)
    return solve(), streams


_HOLONOMY_28 = [
    ("C", {"a0": 5, "b0": 3, "c0": 4}, {}), ("D", {"b0": F(3, 2), "f0": F(2, 3)}, {}),
    ("E", {"b0": F(2, 3), "q": F(1, 2)}, {"k": 2, "l": 1}),
    ("F", {"b0": F(3, 2), "q1": 1, "q2": F(1, 3)}, {}),
    ("G", {"a0": F(5, 3), "q": F(1, 2)}, {}), ("H", {"a0": F(2, 5), "q": F(1, 2)}, {})]
_A_21 = {"a0": F(3, 2), "b0": 1, "c0": F(2, 3)}


class TestLinearPhase:
    """From order 2d + max r + 1 on the product caches read the unknown
    coefficients as 0 and are patched as these are solved; at the end they
    hold the products of the final series."""

    @pytest.mark.parametrize("solve", [
        *(lambda c=c, p=p, kw=kw: solve_series(c, p, order=28, **kw)
          for c, p, kw in _HOLONOMY_28),
        lambda: solve_series("A", _A_21, order=20, k=2, l=1),
        lambda: solve_series("E", {"b0": 1, "q": 1}, order=20, k=2, l=1),
        lambda: einstein_series("A", {**_A_21, "f3": 1}, 1, order=12, k=2, l=1),
        lambda: einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "f3": 1}, -1, order=12),
        lambda: einstein_series("D", {"b0": F(3, 2), "f0": F(2, 3)}, 1, order=12),
    ], ids=["C", "D", "E", "F", "G", "H", "A-21", "E-21", "einstein-A", "einstein-C",
            "einstein-D"])
    def test_cache_entries_equal_the_products_of_the_final_series(self, monkeypatch,
                                                                   solve):
        sol, streams = _streams(monkeypatch, solve)
        stream = streams[-1]
        assert stream.lin_from <= stream.last  # the patched orders ran
        base = sol.order
        prods = {((fn, d),): [(c.numerator * perm(i + d, d), c.denominator)
                              for i, c in enumerate(sol.functions[fn].coef[d:base + 1])]
                 for key in stream._caches for fn, d in key}
        for key, cache in stream._caches.items():
            want = Scaled.of(polyident._product(prods, stream._plan, key))
            assert [F(n, stream.den) for n in cache.nums[:len(want.nums)]] == \
                [F(n, want.den) for n in want.nums], key


def _final_blocks(monkeypatch, solve):
    """Run `solve`; return its solution, its last stream, and for each order
    that stream's unknowns with each identity's row of M(n) and r(n), as
    `_Stream._solve` received them."""
    blocks, record = [], solver._Stream._solve

    def recording(self, n, block, unknowns, log):
        d2 = self.den * self.den
        blocks.append((self, n, list(unknowns), {
            i: ({fn: F(c, self._rows[i][0] * s) for fn, c in zip(unknowns, cs)},
                F(-b, self._rows[i][0] * s * d2)) for i, cs, b, s in block}))
        return record(self, n, [[i, list(c), b, s] for i, c, b, s in block], unknowns,
                      log)

    monkeypatch.setattr(solver._Stream, "_solve", recording)
    sol, streams = _streams(monkeypatch, solve)
    return sol, streams[-1], [(n, u, rows) for s, n, u, rows in blocks if s is streams[-1]]


@pytest.mark.parametrize("solve", [
    lambda: solve_series("C", {"a0": 5, "b0": 3, "c0": 4}, order=10),
    lambda: solve_series("E", {"b0": F(2, 3), "q": F(1, 2)}, order=8, k=2, l=1),
    lambda: solve_series("G", {"a0": F(5, 3), "q": F(1, 2)}, order=8),
    lambda: solve_series("H", {"a0": F(2, 5), "q": F(1, 2)}, order=8),
    lambda: einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "f1": F(5, 2)}, -1, order=8),
    lambda: einstein_series("D", {"b0": F(3, 2), "f0": F(2, 3)}, 1, order=8),
], ids=["C", "E", "G", "H", "einstein-C", "einstein-D"])
def test_block_rows_are_the_identity_coefficients(monkeypatch, solve):
    """Row i of order n is coefficient n + r_i of identity i at the final
    series with the unknowns of order n set to 0, and to 0 plus a unit
    in one function, and every coefficient above n set to 0: it reads no
    higher order and is affine in x_n, with r(n) and M(n) as solved."""
    sol, stream, blocks = _final_blocks(monkeypatch, solve)
    idents = polynomialize(sol.system())
    assert [n for n, *_ in blocks] == sorted({n for n, *_ in blocks})  # one solve per order
    for n, unknowns, rows in blocks:
        top = n + stream.rmax + stream.d
        for unit in [None, *unknowns]:
            funcs = {fn: TruncSeries([stream.x[fn][o] if o < n or (
                o == n and fn not in unknowns) else int(o == n and fn == unit)
                for o in range(top + 1)]) for fn in stream.functions}
            res = eval_identities(idents, funcs, sol.einstein_lambda)
            for i, (m, r) in rows.items():
                assert res[i].coef[n + stream.shifts[i]] == r + m.get(unit, 0), (n, unit, i)


@pytest.mark.parametrize("cid", sorted(CASES))
def test_rank_drops_are_the_cataloged_slots(cid):
    """M(n) drops rank exactly at the cataloged slots, by their number, and
    the census agrees with the rep-theory counts of the cross-check."""
    case = get_case(cid)
    kw = {"k": 2, "l": 1} if case.fixed_kl is None else {}
    params = {**{name: 1 for name in case.required_params},
              **{s.param: 0 for s in case.slots}}
    sol = solve_series(cid, params, order=10, **kw)
    slots = sorted(((s.function, s.order) for s in case.slots), key=slot_key)
    drops = [log for log in sol.diagnostics if "rank_drop" in log]
    assert sorted(((f[:f.index("[")], log["order"]) for log in drops for f in log["free"]),
                  key=slot_key) == slots == free_slots(cid, **kw)
    for log in drops:
        lost = log["rank_drop"]["unknowns"] - log["rank_drop"]["rank"]
        assert lost == len(log["free"]) == sum(o == log["order"] for _, o in slots)
    if case.vertical is not None:
        report = cross_check_free_params(cid, **kw)
        assert report["spin7_slots"] == slots
        assert report["match"] or not report["assumption_satisfied"]
