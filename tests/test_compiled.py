"""The straight-line code that `polyident.compiled` builds from the term tables.

Its coefficients are integer ratios, so on Fraction inputs it is exact:
substituting (y, flow(y)) into every first-order identity must give exactly
zero, and the residual times its clearing multiplier must equal the identity.
"""
import ast
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from awflow.polyident import _source, compiled, polynomialize
from awflow.reptheory import AloffWallach
from awflow.systems import State, SystemId, ZeroDenominator, rhs_first_order

FIRST_ORDER = {
    "S1(2,1)": SystemId("S1", AloffWallach(2, 1)),
    "S1(1,-1)": SystemId("S1", AloffWallach(1, -1)),
    "S2": SystemId("S2"),
}
EINSTEIN = {"E1(2,1)": SystemId("E1", AloffWallach(2, 1)), "E2": SystemId("E2")}
SYSTEMS = {**FIRST_ORDER, **EINSTEIN}


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


#: Arithmetic operations in each system's code, each distinct one once.  Written
#: out monomial by monomial, the code made 46, 36, 106, 202 and 353.
OPERATIONS = {"S1(2,1)": 41, "S1(1,-1)": 33, "S2": 82, "E1(2,1)": 125, "E2": 209}


@pytest.mark.parametrize("name", list(OPERATIONS))
@pytest.mark.parametrize("batch", [False, True])
def test_each_operation_computed_once(name, batch):
    # the same operator on the same operands, as parsed, occurs once; `not` is
    # the nonzero checks
    tree = ast.parse(_source(SYSTEMS[name], batch))
    ops = [ast.dump(node) for node in ast.walk(tree)
           if isinstance(node, (ast.BinOp, ast.UnaryOp)) and not isinstance(node.op, ast.Not)]
    assert len(set(ops)) == len(ops) == OPERATIONS[name]


def test_float_run_agrees_with_exact_run():
    rng = random.Random(41)
    for sysid in FIRST_ORDER.values():
        for _ in range(10):
            y = random_rationals(rng, len(sysid.functions))
            exact = compiled(sysid)(y)
            got = compiled(sysid)([float(v) for v in y])
            scale = max(abs(float(v)) for v in exact)
            assert all(abs(g - float(e)) <= 1e-14 * scale for g, e in zip(got, exact))


# -- bit-identity pins ---------------------------------------------------------------
#
# sha256 digests of the generated code's outputs on fixed inputs.  A rewrite of the
# generated code (naming shared subexpressions, say) must leave every output bit
# as it was: identical IEEE-754 operations on identical operands round identically.

BATCH_ROWS = 1024


def _inputs(sysid, kind):
    """One set of arguments of the code for sysid: kind is "float", "complex",
    "fraction", "batch" (1024-row float columns) or "batch-complex"."""
    rng = random.Random(f"{sysid.kind}:{sysid.aw.k},{sysid.aw.l}:{kind}")
    n = len(sysid.functions)

    def value():
        if kind == "fraction":
            return random_rationals(rng, 1)[0]
        x = rng.choice([-1, 1]) * rng.uniform(0.25, 4.0)
        if kind == "float":
            return x
        if kind == "complex":
            return complex(x, rng.uniform(-1e-3, 1e-3))
        rows = [rng.choice([-1, 1]) * rng.uniform(0.25, 4.0) for _ in range(BATCH_ROWS)]
        if kind == "batch":
            return np.array(rows)
        return np.array(rows) + 1e-100j * np.array(
            [rng.uniform(-4.0, 4.0) for _ in range(BATCH_ROWS)])

    args = [[value() for _ in range(n)]]
    if not sysid.is_first_order:
        args += [[value() for _ in range(n)], [value() for _ in range(n)],
                 random_rationals(rng, 1)[0] if kind == "fraction"
                 else rng.uniform(-2.0, 2.0)]
    return args


def _output_digest(sysid, kind) -> str:
    code = compiled(sysid, batch=kind.startswith("batch"))
    out = code(*_inputs(sysid, kind))
    if kind == "fraction":
        assert all(isinstance(v, Fraction) for v in out)
        data = repr(out).encode()
    else:
        arr = np.asarray(out)
        data = f"{arr.dtype}{arr.shape}".encode() + arr.tobytes()
    return hashlib.sha256(data).hexdigest()


OUTPUT_DIGESTS = {
    ('S1(2,1)', 'float'):
        "7cc38802aea27c9309732759c9eb660fe95c7152883f52ca4cb056c482c2c47e",
    ('S1(2,1)', 'complex'):
        "1cf79ad0f707e7b3a14ead11d483d800f0f98c9847f84b4298d689510819b896",
    ('S1(2,1)', 'fraction'):
        "b2199e4f0c4a5d2ea6d7c3bec00f0083b6dff992ab3b1c6577f0ff83766669e6",
    ('S1(2,1)', 'batch'):
        "dd54da3e356eea1e6f06c8953defd8094a00b921aa95a378dd5c6520521e8fca",
    ('S1(2,1)', 'batch-complex'):
        "2ba1ab8ca52bd3cbb082784d7079a1c6cafca3cb200d5d52fd79fd625d5534e9",
    ('S1(1,-1)', 'float'):
        "de03765697fdd1b86d147aa8a2c5444d02767db8e2b863ca0f2a1308827369fd",
    ('S1(1,-1)', 'complex'):
        "1a0fb9ab9c62c24768ddf41ec406a94ede8af1a81c478f93083a01e3f190b056",
    ('S1(1,-1)', 'fraction'):
        "3366c8a35011df2f7f10947f12bc020f5e120b8eed41e040a9f3944f4f08b387",
    ('S1(1,-1)', 'batch'):
        "c7f51472b63a22390fd09b5d0a348cdbc58597e858e871617e4e86b7f58fa695",
    ('S1(1,-1)', 'batch-complex'):
        "fadddcfa12c9585cdac2d3dba646fdf798663aba5d06f7f1f4537c31d588a489",
    ('S2', 'float'):
        "1a9f4a573c1bb76e9d5f0fd36d110e0127b9290c0481227d6f0a3e5ea64b3c76",
    ('S2', 'complex'):
        "eb827aa146b3e1aa11a06126614826ac8bcf95b435d474118057acc9a2f475da",
    ('S2', 'fraction'):
        "38e6a385dd8ea87e9bb91109e3029d1bbbadb018f3bf8077e52b52cdfe3df6b6",
    ('S2', 'batch'):
        "e407de5b1544c7af7d71f4944d34cd0e682de62c8e80bc10f6777462ae3d3ee2",
    ('S2', 'batch-complex'):
        "75da80d7b4bc04b2b1efda8781810ae21786c2772164943fce0542848a289591",
    ('E1(2,1)', 'float'):
        "be3cadd82a549a06adf64e60412e5f9c869277c342cc9859df8499fccd71ea66",
    ('E1(2,1)', 'complex'):
        "30a7466ac66f6dcbdde57752c304e03be8e29e9d00198ae039d3358d8ef92216",
    ('E1(2,1)', 'fraction'):
        "7e6b41cbad4903621e295571584df8d43b8c84843cb94cacea1bd454a4755421",
    ('E1(2,1)', 'batch'):
        "a7a5ac808f5b5968b9cc02225be61ee562bdc6fe2c46376192bedd3fa7fbc425",
    ('E1(2,1)', 'batch-complex'):
        "5e86c92103fcd507ce4c6b7599ad3b57971b44be89ae4fb6e43620306c58c22d",
    ('E2', 'float'):
        "07f6b1dc89ba80af2bf249da7a4e8e2822316af78213c8c11f3b3ce00ba228ed",
    ('E2', 'complex'):
        "061ecbb354631d08023170bc907211b26458c834544ce189e1fe37b6a2db77a3",
    ('E2', 'fraction'):
        "6334e317d58010172b5edb88b1fcee8236dc3d45c454006e5dbc78125933fd3e",
    ('E2', 'batch'):
        "b4e0486661e8b7ed1d4326288859798dbe0c9f0907885b501055172030529152",
    ('E2', 'batch-complex'):
        "85e4e966ce3876d0001182c25e692ae70c0ede8b9ba1016fb72353ec066724c4",
}


@pytest.mark.parametrize("name", list(SYSTEMS))
@pytest.mark.parametrize("kind", ["float", "complex", "fraction", "batch", "batch-complex"])
def test_outputs_bit_identical_to_pins(name, kind):
    assert _output_digest(SYSTEMS[name], kind) == OUTPUT_DIGESTS[name, kind]
