"""The public surface of the package is a deliberate list, and the orbit
parameters the API accepts."""
from math import gcd

import pytest

import awflow
from awflow import CASES, AloffWallach, ConstraintError, get_case

PUBLIC = [
    "AloffWallach", "CASES", "ConstraintError", "InconsistentSystem",
    "MissingSlotValue", "OrbitCase", "SeriesSolution", "SmoothnessReport",
    "State", "SymmetryMap", "SystemId", "TruncSeries", "ZeroDenominator",
    "check_smoothness", "circle_normalization", "dim_W", "dim_W_s5",
    "einstein_series", "first_return_time", "free_slots", "get_case", "rat",
    "rat_str", "residual_einstein", "rhs_first_order", "solve_series",
    "symmetry_maps",
]


def test_all_is_pinned():
    assert sorted(awflow.__all__) == sorted(PUBLIC)
    assert len(set(awflow.__all__)) == len(awflow.__all__)


def test_every_public_name_resolves():
    for name in awflow.__all__:
        assert getattr(awflow, name, None) is not None, name


_PAIRS_12 = [(k, l) for k in range(-12, 13) for l in range(-12, 13) if gcd(k, l) == 1]


def _resolve(case, k, l):
    try:
        return case.resolve_aw(k, l)
    except ConstraintError:
        return None


@pytest.mark.parametrize("cid", sorted(CASES))
def test_a_pair_and_its_sign_flip_resolve_alike(cid):
    """N^{k,l} and N^{-k,-l} are one orbit: a pair raises ConstraintError iff
    its flip does, and a pinned case resolves both to the pinned pair."""
    case = get_case(cid)
    for k, l in _PAIRS_12:
        got, flipped = _resolve(case, k, l), _resolve(case, -k, -l)
        assert (got is None) == (flipped is None), (k, l)
        if case.fixed_kl is None:
            assert got in (None, AloffWallach(k, l)), (k, l)
        elif (k, l) in (case.fixed_kl, tuple(-x for x in case.fixed_kl)):
            assert got == flipped == AloffWallach(*case.fixed_kl), (k, l)
        else:
            assert got is None, (k, l)
