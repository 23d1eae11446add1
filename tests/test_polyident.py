"""The cleared identities must equal denominator * (displayed equation)."""
import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp

import awflow
from awflow.exact import TruncSeries
from awflow.polyident import eval_identities, polynomialize, product_plan, term_plan
from awflow.reptheory import AloffWallach
from awflow.solver import einstein_series, solve_series
from awflow.systems import SystemId

t = sp.symbols("t")
lam = sp.symbols("lam")


def to_sympy(ident, fns):
    total = 0
    for term in ident.terms:
        expr = sp.Rational(term.coeff.numerator, term.coeff.denominator)
        expr = expr * lam ** term.lam
        for fn, d in term.factors:
            expr *= sp.diff(fns[fn], t, d) if d else fns[fn]
        total += expr
    return total


@pytest.fixture(scope="module")
def s1_functions():
    return {n: sp.Function(n)(t) for n in ("a", "b", "c", "f")}


@pytest.fixture(scope="module")
def s2_functions():
    return {n: sp.Function(n)(t) for n in ("a1", "a2", "b", "c", "f")}


@pytest.mark.parametrize("kl", [(2, 1), (1, 0), (1, -1)])
def test_first_order_generic(kl, s1_functions):
    k, l = kl
    D = k * k + k * l + l * l
    a, b, c, f = (s1_functions[n] for n in ("a", "b", "c", "f"))
    rhs = {
        "a": a * ((b**2 + c**2 - a**2) / (a * b * c)
                  + sp.Rational(-k - l, 2 * D) * f / a**2),
        "b": b * ((c**2 + a**2 - b**2) / (a * b * c)
                  + sp.Rational(l, 2 * D) * f / b**2),
        "c": c * ((a**2 + b**2 - c**2) / (a * b * c)
                  + sp.Rational(k, 2 * D) * f / c**2),
        "f": f * (-sp.Rational(-k - l, 2 * D) * f / a**2
                  - sp.Rational(l, 2 * D) * f / b**2
                  - sp.Rational(k, 2 * D) * f / c**2),
    }
    lcds = {"a": 2 * D * a**2 * b * c, "b": 2 * D * a * b**2 * c,
            "c": 2 * D * a * b * c**2, "f": 2 * D * a**2 * b**2 * c**2 * f}
    for ident in polynomialize(SystemId("S1", AloffWallach(k, l))):
        fn = ident.label
        want = sp.expand((s1_functions[fn].diff(t) - rhs[fn]) * lcds[fn] / s1_functions[fn])
        got = sp.expand(to_sympy(ident, s1_functions))
        assert sp.simplify(got - want) == 0, fn


def test_first_order_exceptional(s2_functions):
    a1, a2, b, c, f = (s2_functions[n] for n in ("a1", "a2", "b", "c", "f"))
    rhs = {
        "a1": a1 * ((b**2 + c**2 - a1**2) / (a1 * b * c)
                    + 3 * (a1**2 - a2**2) / (a1 * a2 * f)
                    - f / (3 * a1 * a2)),
        "a2": a2 * ((b**2 + c**2 - a2**2) / (a2 * b * c)
                    + 3 * (a2**2 - a1**2) / (a1 * a2 * f)
                    - f / (3 * a1 * a2)),
        "b": b * ((a1**2 + c**2 - b**2) / (2 * a1 * b * c)
                  + (a2**2 + c**2 - b**2) / (2 * a2 * b * c)
                  + f / (6 * b**2)),
        "c": c * ((a1**2 + b**2 - c**2) / (2 * a1 * b * c)
                  + (a2**2 + b**2 - c**2) / (2 * a2 * b * c)
                  + f / (6 * c**2)),
        "f": f * (-3 * (a1 - a2)**2 / (a1 * a2 * f) + f / (3 * a1 * a2)
                  - f / (6 * b**2) - f / (6 * c**2)),
    }
    lcds = {"a1": 3 * a1 * a2 * b * c * f, "a2": 3 * a1 * a2 * b * c * f,
            "b": 6 * a1 * a2 * b**2 * c, "c": 6 * a1 * a2 * b * c**2,
            "f": 6 * a1 * a2 * b**2 * c**2 * f}
    for ident in polynomialize(SystemId("S2")):
        fn = ident.label
        want = sp.expand((s2_functions[fn].diff(t) - rhs[fn]) * lcds[fn] / s2_functions[fn])
        got = sp.expand(to_sympy(ident, s2_functions))
        assert sp.simplify(got - want) == 0, fn


@pytest.mark.parametrize("kl", [(2, 1), (1, -1), (1, 0), (3, -1), (-2, -1)])
def test_einstein_generic(kl, s1_functions):
    k, l = kl
    D = k * k + k * l + l * l
    a, b, c, f = (s1_functions[n] for n in ("a", "b", "c", "f"))
    S = 2 * a.diff(t) / a + 2 * b.diff(t) / b + 2 * c.diff(t) / c + f.diff(t) / f
    wa = sp.Rational((k + l)**2, D**2)
    wb = sp.Rational(l**2, D**2)
    wc = sp.Rational(k**2, D**2)
    eqs = {
        "a": (-a.diff(t, 2) / a + a.diff(t)**2 / a**2 - a.diff(t) / a * S
              + 6 / a**2 - wa / 2 * f**2 / a**4
              + (a**4 - b**4 - c**4) / (a**2 * b**2 * c**2) - lam),
        "b": (-b.diff(t, 2) / b + b.diff(t)**2 / b**2 - b.diff(t) / b * S
              + 6 / b**2 - wb / 2 * f**2 / b**4
              + (b**4 - a**4 - c**4) / (a**2 * b**2 * c**2) - lam),
        "c": (-c.diff(t, 2) / c + c.diff(t)**2 / c**2 - c.diff(t) / c * S
              + 6 / c**2 - wc / 2 * f**2 / c**4
              + (c**4 - a**4 - b**4) / (a**2 * b**2 * c**2) - lam),
        "f": (-f.diff(t, 2) / f + f.diff(t)**2 / f**2 - f.diff(t) / f * S
              + wa / 2 * f**2 / a**4 + wb / 2 * f**2 / b**4
              + wc / 2 * f**2 / c**4 - lam),
        "trace": (-2 * a.diff(t, 2) / a - 2 * b.diff(t, 2) / b
                  - 2 * c.diff(t, 2) / c - f.diff(t, 2) / f - lam),
    }
    lcds = {"a": a**4 * b**2 * c**2 * f, "b": a**2 * b**4 * c**2 * f,
            "c": a**2 * b**2 * c**4 * f, "f": a**4 * b**4 * c**4 * f,
            "trace": a * b * c * f}
    for ident in polynomialize(SystemId("E1", AloffWallach(k, l))):
        got = to_sympy(ident, s1_functions)
        want = sp.expand(eqs[ident.label] * lcds[ident.label])
        assert sp.simplify(got - want) == 0, ident.label


def test_einstein_exceptional(s2_functions):
    a1, a2, b, c, f = (s2_functions[n] for n in ("a1", "a2", "b", "c", "f"))
    S = (a1.diff(t) / a1 + a2.diff(t) / a2 + 2 * b.diff(t) / b
         + 2 * c.diff(t) / c + f.diff(t) / f)
    eqs = {
        "a1": (-a1.diff(t, 2) / a1 + a1.diff(t)**2 / a1**2 - a1.diff(t) / a1 * S
               + 6 / a1**2 - sp.Rational(2, 9) * f**2 / (a1**2 * a2**2)
               + 18 * (a1**4 - a2**4) / (a1**2 * a2**2 * f**2)
               + (a1**4 - b**4 - c**4) / (a1**2 * b**2 * c**2) - lam),
        "a2": (-a2.diff(t, 2) / a2 + a2.diff(t)**2 / a2**2 - a2.diff(t) / a2 * S
               + 6 / a2**2 - sp.Rational(2, 9) * f**2 / (a1**2 * a2**2)
               + 18 * (a2**4 - a1**4) / (a1**2 * a2**2 * f**2)
               + (a2**4 - b**4 - c**4) / (a2**2 * b**2 * c**2) - lam),
        "b": (-b.diff(t, 2) / b + b.diff(t)**2 / b**2 - b.diff(t) / b * S
              + 6 / b**2 - sp.Rational(1, 18) * f**2 / b**4
              + (b**4 - a1**4 - c**4) / (2 * a1**2 * b**2 * c**2)
              + (b**4 - a2**4 - c**4) / (2 * a2**2 * b**2 * c**2) - lam),
        "c": (-c.diff(t, 2) / c + c.diff(t)**2 / c**2 - c.diff(t) / c * S
              + 6 / c**2 - sp.Rational(1, 18) * f**2 / c**4
              + (c**4 - a1**4 - b**4) / (2 * a1**2 * b**2 * c**2)
              + (c**4 - a2**4 - b**4) / (2 * a2**2 * b**2 * c**2) - lam),
        "f": (-f.diff(t, 2) / f + f.diff(t)**2 / f**2 - f.diff(t) / f * S
              + 36 / f**2 - 18 * a1**2 / (a2**2 * f**2)
              - 18 * a2**2 / (a1**2 * f**2)
              + sp.Rational(2, 9) * f**2 / (a1**2 * a2**2)
              + sp.Rational(1, 18) * f**2 / b**4
              + sp.Rational(1, 18) * f**2 / c**4 - lam),
        "trace": (-a1.diff(t, 2) / a1 - a2.diff(t, 2) / a2 - 2 * b.diff(t, 2) / b
                  - 2 * c.diff(t, 2) / c - f.diff(t, 2) / f - lam),
    }
    lcds = {"a1": a1**4 * a2**2 * b**2 * c**2 * f**2,
            "a2": a2**4 * a1**2 * b**2 * c**2 * f**2,
            "b": a1**2 * a2**2 * b**4 * c**2 * f,
            "c": a1**2 * a2**2 * b**2 * c**4 * f,
            "f": a1**2 * a2**2 * b**4 * c**4 * f**2,
            "trace": a1 * a2 * b * c * f}
    for ident in polynomialize(SystemId("E2")):
        got = to_sympy(ident, s2_functions)
        want = sp.expand(eqs[ident.label] * lcds[ident.label])
        assert sp.simplify(got - want) == 0, ident.label


class TestEvalSeries:
    def test_identity_counts(self):
        assert len(polynomialize(SystemId("S1", AloffWallach(2, 1)))) == 4
        assert len(polynomialize(SystemId("S2"))) == 5
        assert len(polynomialize(SystemId("E1", AloffWallach(2, 1)))) == 5
        assert len(polynomialize(SystemId("E2"))) == 6

    def test_substitution_oracle(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=8)
        for ident in polynomialize(sol.system()):
            assert ident.eval_series(sol.functions).is_zero()

    def test_non_solution_detected(self):
        sysid = SystemId("S1", AloffWallach(1, -1))
        consts = {fn: TruncSeries([v], order=4)
                  for fn, v in {"a": 1, "b": 1, "c": 1, "f": 0}.items()}
        res = polynomialize(sysid)[0].eval_series(consts)
        assert res.coef[0] != 0  # constant term catches the non-solution


def _per_term(ident, funcs, lam=None):
    """Reference: one identity, one term at a time, through TruncSeries."""
    base = min(s.order for s in funcs.values())
    max_d = max((d for term in ident.terms for _, d in term.factors), default=0)
    out = TruncSeries([0], order=base - max_d)
    for term in ident.terms:
        coeff = term.coeff * Fraction(lam or 0) ** term.lam
        prod = None
        for fn, d in term.factors:
            s = funcs[fn]
            for _ in range(d):
                s = s.derivative()
            prod = s.truncated(out.order) if prod is None else prod * s
        out = out + (coeff if prod is None else prod * coeff)
    return out


def _corrupted(funcs, fn, i):
    coef = list(funcs[fn].coef)
    coef[i] += Fraction(1, 3)
    return {**funcs, fn: TruncSeries(coef)}


class TestSharedEvaluator:
    """eval_identities shares products across identities; it must equal the
    per-identity, per-term sum exactly, on solutions and off them."""

    @pytest.mark.parametrize("cid,params,kw", [
        ("A", {"a0": 1, "b0": 2, "c0": 3}, {"k": 2, "l": 1}),
        ("C", {"a0": 5, "b0": 3, "c0": 4}, {}),
        ("D", {"b0": 1, "f0": 1}, {}),
        ("F", {"b0": 1, "q1": 1, "q2": -2}, {}),
        ("H", {"a0": 1, "q": 1}, {}),
    ])
    def test_holonomy_solutions_and_corrupted_copies(self, cid, params, kw):
        sol = solve_series(cid, params, order=12, **kw)
        fns = sorted(sol.functions)
        for funcs in (sol.functions, _corrupted(sol.functions, fns[0], 3),
                      _corrupted(sol.functions, fns[-1], 0)):
            for sysid, lam in ((sol.system(), None),
                               (sol.system().einstein(), Fraction(0))):
                idents = polynomialize(sysid)
                got = eval_identities(idents, funcs, lam)
                assert got == [_per_term(i, funcs, lam) for i in idents], sysid.kind

    @pytest.mark.parametrize("cid,params,lam,kw", [
        ("A", {"a0": 1, "b0": 1, "c0": 1, "f3": 1}, 0, {"k": 2, "l": 1}),
        ("A", {"a0": 2, "b0": Fraction(3, 2), "c0": 1, "f3": -2}, 1, {"k": 2, "l": 1}),
        ("C", {"a0": 3, "b0": 2, "c0": Fraction(5, 3), "f3": Fraction(1, 2)}, 1, {}),
        ("D", {"b0": 1, "f0": 1, "bdiff1": 0}, 0, {}),
        ("D", {"b0": Fraction(3, 2), "f0": Fraction(2, 3)}, 1, {}),
    ])
    def test_einstein_series(self, cid, params, lam, kw):
        sol = einstein_series(cid, params, lam, order=8, **kw)
        idents = polynomialize(sol.system())
        for funcs in (sol.functions, _corrupted(sol.functions, "b", 2)):
            got = eval_identities(idents, funcs, Fraction(lam))
            assert got == [_per_term(i, funcs, lam) for i in idents]
        assert all(r.is_zero() for r in sol.residual_series().values())

    @pytest.mark.parametrize("solve,lam,corrupt", [
        (lambda: solve_series("C", {"a0": 5, "b0": 3, "c0": 4}, order=28), None, ("a1", 3)),
        (lambda: einstein_series("C", {"a0": 5, "b0": 3, "c0": 4, "f3": 1}, -1, order=12),
         Fraction(-1), ("b", 2)),
    ], ids=["S2-order-28", "E2-order-12"])
    def test_deep_orders(self, solve, lam, corrupt):
        # the unreduced products pass 300 bits here (455 for S2, 302 for E2)
        sol = solve()
        idents = polynomialize(sol.system())
        for funcs in (sol.functions, _corrupted(sol.functions, *corrupt)):
            got = eval_identities(idents, funcs, lam)
            assert got == [_per_term(i, funcs, lam) for i in idents]
        assert all(r.is_zero() for r in sol.residual_series().values())
        assert not any(r.is_zero() for r in got)  # the corrupted copy's

    def test_eval_series_is_the_one_identity_call(self):
        sol = solve_series("G", {"a0": 1, "q": 1}, order=10)
        funcs = _corrupted(sol.functions, "c", 5)
        for ident in polynomialize(sol.system()):
            assert ident.eval_series(funcs) == eval_identities([ident], funcs)[0]

    def test_lambda_required(self):
        sol = solve_series("D", {"b0": 1, "f0": 1}, order=6)
        with pytest.raises(ValueError, match="needs a lambda value"):
            eval_identities(polynomialize(sol.system().einstein()), sol.functions)


_SYSTEMS = {"S1": SystemId("S1", AloffWallach(2, 1)), "S2": SystemId("S2"),
            "E1": SystemId("E1", AloffWallach(2, 1)), "E2": SystemId("E2")}
#: Products of two or more factors under one cache per sorted factor prefix.
_PREFIX_PRODUCTS = {"S1": 37, "S2": 76, "E1": 177, "E2": 326}
#: (nodes, sha256 of the sorted plan items) of each system's product plan.
_PLAN_DIGESTS = {
    "E1": (84, "5c338dc115f8be513835a267c30d4f4ae8a7bee0da3caaa8ce88f9e43b449510"),
    "E2": (132, "94f8579f067ff78db10503208524b841d3d3242a03c082ac4126f2836ecc6c3e"),
    "S1": (29, "c1924979fa9dd73c91870f67e18d2f60274e2dfc1cd7c95f6ed08f313e969a9f"),
    "S2": (51, "7f1bb8a69556bcb7545755dd39daa95ed284b74ca15d42768baf53c30e5c3ab6"),
}


def _term_keys(sysid):
    return {tuple(sorted(t.factors)) for i in polynomialize(sysid) for t in i.terms}


class TestProductPlan:
    """The plan that splits every product of term factors into two halves."""

    @pytest.mark.parametrize("kind", sorted(_SYSTEMS))
    def test_splits_multiply_back_and_reach_every_key(self, kind):
        plan = term_plan(polynomialize(_SYSTEMS[kind]))
        for node, (left, right) in plan.items():
            assert len(node) > 1
            assert tuple(sorted(left + right)) == node
            assert all(len(half) == 1 or half in plan for half in (left, right))
        for key in _term_keys(_SYSTEMS[kind]):
            assert len(key) == 1 or key in plan

    @pytest.mark.parametrize("kind", sorted(_SYSTEMS))
    def test_fewer_products_than_sorted_prefixes(self, kind):
        keys = _term_keys(_SYSTEMS[kind])
        prefixes = {key[:n] for key in keys for n in range(2, len(key) + 1)}
        assert len(prefixes) == _PREFIX_PRODUCTS[kind]
        assert len(term_plan(polynomialize(_SYSTEMS[kind]))) < _PREFIX_PRODUCTS[kind]

    def test_two_builds_give_the_same_plan(self):
        keys = frozenset(_term_keys(_SYSTEMS["E2"]))
        first, second = product_plan.__wrapped__(keys), product_plan.__wrapped__(keys)
        assert list(first.items()) == list(second.items())
        assert product_plan(keys) == first
        # nor does the plan depend on string hashing
        code = ("from awflow.polyident import polynomialize, term_plan; "
                "from awflow.systems import SystemId; "
                "print(list(term_plan(polynomialize(SystemId('E2'))).items()))")
        src = os.path.dirname(os.path.dirname(awflow.__file__))
        outs = {subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True,
                               env={**os.environ, "PYTHONHASHSEED": seed,
                                    "PYTHONPATH": src}).stdout
                for seed in ("1", "2")}
        assert outs == {repr(list(first.items())) + "\n"}

    @pytest.mark.parametrize("kind", sorted(_SYSTEMS))
    def test_plan_digest(self, kind):
        # the products are the same numbers under any plan, so no series or
        # staircase digest sees a change of plan; this one does
        plan = term_plan(polynomialize(_SYSTEMS[kind]))
        digest = hashlib.sha256(repr(sorted(plan.items())).encode()).hexdigest()
        assert (len(plan), digest) == _PLAN_DIGESTS[kind]

    def test_one_plan_per_factor_structure(self):
        plans = [term_plan(polynomialize(SystemId("S1", AloffWallach(k, l))))
                 for k, l in ((2, 1), (3, 1), (1, -1))]
        assert plans[0] is plans[1] is plans[2]


#: (terms, sha256 of every (label, coeff, factors, lam) in order) of each table.
_TERM_DIGESTS = {
    ("S1", (2, 1)): (19, "3fe2326fc5754af3c68fc5234c4332accd6e598a7f364930e59521e7cc0a5ee0"),
    ("S1", (1, -1)): (19, "39fbaea8d8acf5b19ee3453b730512a4c1b5593e9f63bff0afe684f1d159a5fb"),
    ("S1", (1, 0)): (19, "e4dda2f3ea7b0cbc2e604c4d5d3e8bd20b99c0e711e8fa1486461c8be1e27d0b"),
    ("S1", (-2, -1)): (19, "52eab9ced7e793d610eecec9c54aad77d681dadbc7ce1fa51d9fc2edf851cf80"),
    ("E1", (2, 1)): (46, "d9f42cbc0d824cb723f209062c95d16ecf76ad2197f8df0c294eedc936f053a1"),
    ("E1", (1, -1)): (46, "8ea1dddce84e7028cebe65bcd7f689907a70df98537604fa73ad257b84b6e583"),
    ("E1", (1, 0)): (46, "f8fd4af283429c268ab5f09a837fdb394446dbe13a706c1598cbe47b8c2f6783"),
    ("E1", (-2, -1)): (46, "d9f42cbc0d824cb723f209062c95d16ecf76ad2197f8df0c294eedc936f053a1"),
    ("S2", None): (37, "c0527896b23263d68c408ae45e85d2358d81bb7a3252da1a9eb1431e423d7ab3"),
    ("E2", None): (74, "8712c115a03cce824f23ae575e4ae68df4a41dc51b08edf94b077cab98975e70"),
}


@pytest.mark.parametrize("kind,kl", sorted(_TERM_DIGESTS, key=repr))
def test_term_digest(kind, kl):
    # the exact coefficients, product plans and generated code all follow from
    # these tables, so a rewrite of how they are built must leave them as they are
    sysid = SystemId(kind, kl and AloffWallach(*kl))
    rows = [(i.label, t.coeff, t.factors, t.lam) for i in polynomialize(sysid) for t in i.terms]
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) == _TERM_DIGESTS[kind, kl]
