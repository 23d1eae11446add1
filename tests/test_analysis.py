import dataclasses
import random
from fractions import Fraction as F

import pytest

from awflow import analysis, solver
from awflow.analysis import (cross_check_free_params, detect_f_vanishing,
                             su4_family_check, verify_case)
from awflow.cases import CASES, ConstraintError, SlotSpec, get_case
from awflow.reptheory import AloffWallach
from awflow.solver import free_slots, solve_series


class TestVanishingInduction:
    def test_generic(self):
        rec = detect_f_vanishing(AloffWallach(2, 1), order=30)
        assert rec["all_zero"]
        assert len(rec["f_coefficients"]) == 31
        assert rec["branch"].startswith("degenerate")
        assert rec["induction_trace"]

    def test_one_zero(self):
        rec = detect_f_vanishing(AloffWallach(1, 0), order=30,
                                 params={"a0": 1, "b0": 2, "c0": 3})
        assert rec["all_zero"]

    def test_exceptional_rejected(self):
        with pytest.raises(ConstraintError):
            detect_f_vanishing(AloffWallach(1, 1))

    def test_stable_under_random_parameters(self):
        rng = random.Random(20260811)
        for _ in range(5):
            params = {name: F(rng.randint(1, 9), rng.randint(1, 9))
                      for name in ("a0", "b0", "c0")}
            rec = detect_f_vanishing(AloffWallach(3, 1), order=18, params=params)
            assert rec["all_zero"], params


class TestSu4Family:
    def test_in_family(self):
        rep = su4_family_check(5, 3, 4, t0=1e-2)
        assert rep["in_family"]
        assert rep["monitors"]["max_sum"] < 1e-8
        assert rep["monitors"]["max_quadric"] < 1e-6
        assert rep["holonomy"] == "SU(4)"

    def test_out_of_family(self):
        rep = su4_family_check(2, 1, 1, t0=1e-2, t_end=0.5)
        assert not rep["in_family"]
        assert rep["monitors"]["max"] > 1e-3

    def test_rational_approximation_is_not_membership(self):
        # 17/12 approximates the square root but fails the exact test
        rep = su4_family_check(F(17, 12), 1, 1, t0=1e-2, t_end=0.1)
        assert not rep["in_family"]

    def test_invariant_under_scaling(self):
        for sigma in (F(2), F(1, 3)):
            rep = su4_family_check(5 * sigma, 3 * sigma, 4 * sigma,
                                   t0=1e-2, t_end=0.1)
            assert rep["in_family"]


class TestCrossChecks:
    def test_generic_flag(self):
        rep = cross_check_free_params("A", k=2, l=1)
        assert rep["dim_W2v"] == 3 and rep["dim_W0v"] == 1
        assert rep["raw_vertical"] == 2 and rep["net_vertical"] == 1
        assert rep["einstein_slots"] == [("f", 3)]
        assert rep["match"]

    def test_exceptional_flag(self):
        rep = cross_check_free_params("C")
        assert rep["net_vertical"] == 1
        assert rep["spin7_slots"] == []
        assert rep["match"]

    def test_sphere(self):
        rep = cross_check_free_params("D")
        assert rep["dim_W2v"] == 2 and rep["net_vertical"] == 1
        assert rep["spin7_slots"] == []
        assert ("b-c", 1) in rep["einstein_slots"]
        assert rep["match"]

    def test_projective_generic(self):
        rep = cross_check_free_params("E", k=2, l=1)
        assert rep["net_vertical"] == 2
        assert rep["spin7_higher_count"] == 1  # strict subset
        assert rep["match"]

    def test_projective_exceptional_pair(self):
        rep = cross_check_free_params("F")
        assert rep["spin7_slots"] == [("a1", 3), ("a2", 3)]
        assert rep["net_vertical"] == 2
        assert rep["match"]

    def test_unproven_cases_reported_not_asserted(self):
        for cid in ("G", "H"):
            rep = cross_check_free_params(cid)
            assert not rep["assumption_satisfied"]
            assert rep["subset_ok"]

    def test_spin7_slots_never_exceed_einstein_freedom(self):
        for cid, kw in [("A", dict(k=2, l=1)), ("C", {}), ("D", {}),
                        ("E", dict(k=2, l=1)), ("F", {})]:
            rep = cross_check_free_params(cid, **kw)
            assert rep["subset_ok"], cid


class TestVerifyCase:
    def test_su4_member_passes(self):
        rep = verify_case("C", {"a0": 5, "b0": 3, "c0": 4}, tol=1e-10)
        assert rep["ok"], rep
        names = {c["name"] for c in rep["checks"]}
        assert "su4_monitor" in names

    def test_degenerate_flag_passes_with_marker(self):
        rep = verify_case("A", {"a0": 1, "b0": 1, "c0": 1}, k=2, l=1)
        assert rep["ok"]
        markers = [c for c in rep["checks"] if c["name"] == "degenerate_f_vanishes"]
        assert markers and markers[0]["detail"]["marker"] == "degenerate: f == 0"
        # the degenerate branch swaps checks, not the report's layout
        member = verify_case("C", {"a0": 5, "b0": 3, "c0": 4}, tol=1e-10)
        assert rep.keys() == member.keys()
        assert rep["params"] == {"a0": "1/1", "b0": "1/1", "c0": "1/1"}
        assert rep["su4_family"] is None

    def test_fault_injection_fails(self):
        rep = verify_case("D", {"b0": 1, "f0": 1}, t_end=0.2,
                          fault_inject=("b", 3))
        assert not rep["ok"]


def _census(rep):
    (check,) = [c for c in rep["checks"] if c["name"] == "free_slot_census"]
    return check


class TestSlotCensus:
    """verify_case reads the census off the user's own staircase."""

    @pytest.mark.parametrize("cid,params", [
        ("D", {"b0": 1, "f0": 1}),
        ("F", {"b0": 1, "q1": 1, "q2": -2}),
    ])
    def test_one_staircase_per_verify(self, monkeypatch, cid, params):
        def no_census(*args, **kwargs):
            raise AssertionError("verify_case ran the placeholder-point census")
        runs = []
        real_run = solver._run

        def counting_run(*args, **kwargs):
            runs.append(args[0].id)
            return real_run(*args, **kwargs)
        monkeypatch.setattr(analysis, "free_slots", no_census)
        monkeypatch.setattr(solver, "_run", counting_run)
        rep = verify_case(cid, params, t_end=0.2)
        assert rep["ok"]
        assert runs == [cid]

    @pytest.mark.parametrize("cid", sorted(CASES))
    def test_census_equals_placeholder_census(self, cid):
        # the CLI defaults: initial values 1, slots 0, A and E at (2, 1)
        case = get_case(cid)
        kw = {"k": 2, "l": 1} if cid in ("A", "E") else {}
        params = {**{name: 1 for name in case.required_params},
                  **{slot.param: 0 for slot in case.slots}}
        rep = verify_case(cid, params, **kw)
        assert rep["ok"]
        assert _census(rep)["detail"]["found"] == free_slots(case, order=10, **kw)

    def test_census_sort_key_spans_orders(self, monkeypatch):
        # a synthetic case whose slots sit at two orders, listed by function
        case = dataclasses.replace(get_case("F"), slots=(
            SlotSpec("q1", "a1", 3), SlotSpec("q2", "a2", 2)))
        sol = solve_series("F", {"b0": 1, "q1": 1, "q2": -2}, order=12)
        sol.free_slots_found = [("a2", 2), ("a1", 3)]  # the solver lists by order
        monkeypatch.setattr(analysis, "get_case", lambda cid: case)
        monkeypatch.setattr(analysis, "solve_series", lambda *a, **kw: sol)
        census = _census(verify_case("F", {}, order=12, t_end=0.2))
        assert census["ok"]
        assert census["detail"]["found"] == census["detail"]["expected"] \
            == [("a2", 2), ("a1", 3)]
