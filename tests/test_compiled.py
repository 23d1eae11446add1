"""The straight-line code that `polyident.compiled` builds from the term tables.

Its coefficients are integer ratios, so on Fraction inputs it is exact:
substituting (y, flow(y)) into every first-order identity must give exactly
zero, and the residual times its clearing multiplier must equal the identity.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from awflow.polyident import compiled, polynomialize
from awflow.reptheory import AloffWallach
from awflow.systems import State, SystemId, ZeroDenominator, rhs_first_order

FIRST_ORDER = {
    "S1(2,1)": SystemId("S1", AloffWallach(2, 1)),
    "S1(1,-1)": SystemId("S1", AloffWallach(1, -1)),
    "S2": SystemId("S2"),
}
EINSTEIN = {"E1(2,1)": SystemId("E1", AloffWallach(2, 1)), "E2": SystemId("E2")}


def random_rationals(rng, n):
    return [Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice([1, -1])
            for _ in range(n)]


def evaluate(ident, values, lam=None):
    """An identity at exact values: values[(function, derivative order)]."""
    total = Fraction(0)
    for term in ident.terms:
        prod = term.coeff * (lam ** term.lam if term.lam else 1)
        for factor in term.factors:
            prod *= values[factor]
        total += prod
    return total


@pytest.mark.parametrize("name", list(FIRST_ORDER))
def test_each_first_order_identity_has_one_derivative_term(name):
    sysid = FIRST_ORDER[name]
    for ident in polynomialize(sysid):
        derived = [t for t in ident.terms if any(d for _, d in t.factors)]
        assert len(derived) == 1, ident.label
        assert [f for f in derived[0].factors if f[1]] == [(ident.label, 1)]


@pytest.mark.parametrize("name", list(FIRST_ORDER))
def test_flow_solves_every_identity_exactly(name):
    sysid = FIRST_ORDER[name]
    flow = compiled(sysid)
    rng = random.Random(17)
    for _ in range(25):
        y = random_rationals(rng, len(sysid.functions))
        dy = flow(y)
        assert all(isinstance(v, Fraction) for v in dy)
        values = {**{(fn, 0): v for fn, v in zip(sysid.functions, y)},
                  **{(fn, 1): v for fn, v in zip(sysid.functions, dy)}}
        for ident in polynomialize(sysid):
            assert evaluate(ident, values) == 0, ident.label


@pytest.mark.parametrize("name", list(EINSTEIN))
def test_residual_is_identity_over_its_multiplier(name):
    sysid = EINSTEIN[name]
    residual = compiled(sysid)
    rng = random.Random(29)
    n = len(sysid.functions)
    for _ in range(10):
        y, d1, d2 = (random_rationals(rng, n) for _ in range(3))
        lam = random_rationals(rng, 1)[0]
        values = {(fn, d): v for d, vs in enumerate((y, d1, d2))
                  for fn, v in zip(sysid.functions, vs)}
        res = residual(y, d1, d2, lam)
        for ident, r in zip(polynomialize(sysid), res):
            (lam_term,) = [t for t in ident.terms if t.lam]
            multiplier = -lam_term.coeff * math.prod(values[f] for f in lam_term.factors)
            assert r * multiplier == evaluate(ident, values, lam), ident.label


def test_batch_code_takes_columns_and_names_the_zero():
    sysid = FIRST_ORDER["S1(2,1)"]
    rows = np.array([[1.1, 0.9, 1.3, 0.4], [0.7, -1.2, 2.0, 0.3]])
    batch = compiled(sysid, batch=True)(list(rows.T))
    scalar = [compiled(sysid)(row) for row in rows.tolist()]
    assert np.array_equal(np.column_stack(batch), np.array(scalar))
    rows[1, 2] = 0.0
    with pytest.raises(ZeroDenominator) as err:
        compiled(sysid, batch=True)(list(rows.T))
    assert err.value.name == "c"


def test_built_once_per_system():
    sysid = SystemId("S2")
    assert compiled(sysid) is compiled(SystemId("S2")) is compiled(sysid, False)
    assert compiled(sysid, True) is compiled(sysid, batch=True) is not compiled(sysid)


def test_state_mixing_columns_and_scalars():
    sysid = FIRST_ORDER["S1(2,1)"]
    col = np.array([1.1, 0.7])
    mixed = rhs_first_order(sysid, State({"a": col, "b": 0.9, "c": 1.3, "f": 0.4}))
    for i, a in enumerate(col):
        row = rhs_first_order(sysid, State({"a": a, "b": 0.9, "c": 1.3, "f": 0.4}))
        assert all(mixed[fn][i] == row[fn] for fn in sysid.functions)
    with pytest.raises(ZeroDenominator) as err:
        rhs_first_order(sysid, State({"a": col, "b": 0.0, "c": 1.3, "f": 0.4}))
    assert err.value.name == "b"


def test_float_run_agrees_with_exact_run():
    rng = random.Random(41)
    for sysid in FIRST_ORDER.values():
        for _ in range(10):
            y = random_rationals(rng, len(sysid.functions))
            exact = compiled(sysid)(y)
            got = compiled(sysid)([float(v) for v in y])
            scale = max(abs(float(v)) for v in exact)
            assert all(abs(g - float(e)) <= 1e-14 * scale for g, e in zip(got, exact))
