"""Golden values of the case catalog, and the rule that keeps it the only
place where per-case knowledge lives.

Every entry below is an exact rational pinned from the catalog; the
constraint paths pin the error a caller sees.
"""
import ast
import json
import pickle
from fractions import Fraction as F
from pathlib import Path

import pytest

from awflow.cases import ConstraintError, catalog_json, get_case
from awflow.solver import einstein_series, solve_series

SRC = Path(__file__).resolve().parents[1] / "src" / "awflow"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _q(table):
    return {k: F(v) for k, v in table.items()}


# (case, (k, l) or None, params incl. slot values,
#  initial values, forced first derivatives, |first derivative| constants,
#  bound slot coefficients keyed "<function><order>")
POINTS = [
    ("A", (2, 1), {"a0": 1, "b0": 1, "c0": 1},
     {"a": "1", "b": "1", "c": "1", "f": "0"}, {}, {}, {}),
    ("A", (3, -1), {"a0": "5/2", "b0": "-3", "c0": "7/3"},
     {"a": "5/2", "b": "-3", "c": "7/3", "f": "0"}, {}, {}, {}),
    ("B", None, {"a0": 1, "b0": 1, "c0": 1},
     {"a": "1", "b": "1", "c": "1", "f": "0"}, {}, {}, {}),
    ("B", None, {"a0": 2, "b0": "1/2", "c0": -3},
     {"a": "2", "b": "1/2", "c": "-3", "f": "0"}, {}, {}, {}),
    ("C", None, {"a0": 1, "b0": 1, "c0": 1},
     {"a1": "1", "a2": "-1", "b": "1", "c": "1", "f": "0"}, {}, {"f": "12"}, {}),
    ("C", None, {"a0": 5, "b0": 3, "c0": 4},
     {"a1": "5", "a2": "-5", "b": "3", "c": "4", "f": "0"}, {}, {"f": "12"}, {}),
    ("D", None, {"b0": 1, "f0": 1},
     {"a": "0", "b": "1", "c": "1", "f": "1"},
     {"a": "2", "b": "-1/6", "c": "1/6", "f": "0"}, {"a": "2"}, {}),
    ("D", None, {"b0": "2/3", "f0": -5},
     {"a": "0", "b": "2/3", "c": "2/3", "f": "-5"},
     {"a": "2", "b": "5/4", "c": "-5/4", "f": "0"}, {"a": "2"}, {}),
    ("E", (2, 1), {"b0": 1, "q": 1},
     {"a": "0", "b": "1", "c": "1", "f": "0"},
     {"a": "1", "b": "0", "c": "0", "f": "14/3"}, {"a": "1", "f": "14/3"},
     {"f3": "1/6"}),
    ("E", (3, -1), {"b0": "-7/2", "q": "-3/4"},
     {"a": "0", "b": "-7/2", "c": "-7/2", "f": "0"},
     {"a": "1", "b": "0", "c": "0", "f": "7"}, {"a": "1", "f": "7"},
     {"f3": "-1/98"}),
    ("F", None, {"b0": 1, "q1": 1, "q2": 2},
     {"a1": "0", "a2": "0", "b": "1", "c": "1", "f": "0"},
     {"a1": "1", "a2": "1", "b": "0", "c": "0", "f": "3"},
     {"a1": "1", "a2": "1", "f": "3"}, {"a13": "1/6", "a23": "1/3"}),
    ("F", None, {"b0": "3/5", "q1": "-1/2", "q2": 3},
     {"a1": "0", "a2": "0", "b": "3/5", "c": "3/5", "f": "0"},
     {"a1": "1", "a2": "1", "b": "0", "c": "0", "f": "3"},
     {"a1": "1", "a2": "1", "f": "3"}, {"a13": "-25/108", "a23": "25/18"}),
    ("G", None, {"a0": 1, "q": 1},
     {"a1": "1", "a2": "1", "b": "0", "c": "1", "f": "0"},
     {"a1": "0", "a2": "0", "b": "1", "c": "0", "f": "-6"},
     {"b": "1", "f": "6"}, {"b3": "1/6"}),
    ("G", None, {"a0": "-2/7", "q": "5/3"},
     {"a1": "-2/7", "a2": "-2/7", "b": "0", "c": "-2/7", "f": "0"},
     {"a1": "0", "a2": "0", "b": "1", "c": "0", "f": "-6"},
     {"b": "1", "f": "6"}, {"b3": "245/72"}),
    ("H", None, {"a0": 1, "q": 1},
     {"a1": "1", "a2": "-1", "b": "0", "c": "1", "f": "0"},
     {"a1": "0", "a2": "0", "b": "1", "c": "0", "f": "6"},
     {"b": "1", "f": "6"}, {"c2": "1/2"}),
    ("H", None, {"a0": "4/3", "q": "-2/9"},
     {"a1": "4/3", "a2": "-4/3", "b": "0", "c": "4/3", "f": "0"},
     {"a1": "0", "a2": "0", "b": "1", "c": "0", "f": "6"},
     {"b": "1", "f": "6"}, {"c2": "-1/12"}),
]


@pytest.mark.parametrize("cid,kl,params,initial,first,norm,bound", POINTS)
def test_case_data(cid, kl, params, initial, first, norm, bound):
    case = get_case(cid)
    kw = {"k": kl[0], "l": kl[1]} if kl else {}
    aw = case.resolve_aw(**kw)
    params = _q(params)
    slot_names = {s.param for s in case.slots}
    init = {k: v for k, v in params.items() if k not in slot_names}
    assert case.initial_values(aw, init) == _q(initial)
    assert case.first_order_seed(aw, init) == _q(first)
    assert case.normalization(aw) == _q(norm)
    sol = solve_series(case, params, order=6, **kw)
    got = {f"{s.function}{s.order}": sol.functions[s.function].coef[s.order]
           for s in case.slots}
    assert got == _q(bound)


# (case, (k, l) or None, params, lambda, first-order coefficients)
EINSTEIN_POINTS = [
    ("A", (2, 1), {"a0": 1, "b0": 1, "c0": 1, "f1": 3}, 1,
     {"a": "0", "b": "0", "c": "0", "f": "3"}),
    ("A", (3, -1), {"a0": 2, "b0": 1, "c0": 3, "f1": "-1/2"}, 0,
     {"a": "0", "b": "0", "c": "0", "f": "-1/2"}),
    ("B", None, {"a0": 1, "b0": 1, "c0": 1, "f1": 2}, 1,
     {"a": "0", "b": "0", "c": "0", "f": "2"}),
    ("C", None, {"a0": 1, "b0": 1, "c0": 1, "f1": 5}, 1,
     {"a1": "0", "a2": "0", "b": "0", "c": "0", "f": "5"}),
    ("C", None, {"a0": 5, "b0": 3, "c0": 4, "f1": 12}, 0,
     {"a1": "0", "a2": "0", "b": "0", "c": "0", "f": "12"}),
    ("D", None, {"b0": 1, "f0": 1}, 1,
     {"a": "2", "b": "0", "c": "0", "f": "0"}),
    ("D", None, {"b0": 2, "f0": 3, "bdiff1": "1/3"}, -1,
     {"a": "2", "b": "1/6", "c": "-1/6", "f": "0"}),
]


@pytest.mark.parametrize("cid,kl,params,lam,first", EINSTEIN_POINTS)
def test_einstein_order1_seeds(cid, kl, params, lam, first):
    kw = {"k": kl[0], "l": kl[1]} if kl else {}
    sol = einstein_series(cid, _q(params), lam, order=6, **kw)
    assert {fn: s.coef[1] for fn, s in sol.functions.items()} == _q(first)


def test_catalog_json_golden():
    assert catalog_json() == json.loads((GOLDEN / "catalog.json").read_text())


# (case, (k, l) or None, params, message pattern)
CONSTRAINT_PATHS = [
    ("C", None, {"a0": 1, "b0": 1}, r"case C requires parameter 'c0'"),
    ("D", None, {"f0": 1}, r"case D requires parameter 'b0'"),
    ("G", None, {"q": 0}, r"case G requires parameter 'a0'"),
    ("A", (2, 1), {"a0": 1, "b0": 0, "c0": 1}, r"parameter 'b0' must be nonzero"),
    ("E", (2, 1), {"b0": 0, "q": 0}, r"parameter 'b0' must be nonzero"),
    ("C", None, {"a0": 1, "b0": 1, "c0": 1, "a10": 2}, r"case C forces a10 = 1, got 2"),
    ("C", None, {"a0": 1, "b0": 1, "c0": 1, "a20": 1}, r"case C forces a20 = -1, got 1"),
    ("G", None, {"a0": 2, "a10": 1, "q": 0}, r"case G forces a10 = 2, got 1"),
    ("G", None, {"a0": 2, "a20": -2, "q": 0}, r"case G forces a20 = 2, got -2"),
    ("H", None, {"a0": 2, "a20": 2, "q": 0}, r"case H forces a20 = -2, got 2"),
    ("H", None, {"a0": 2, "c0": 3, "q": 0}, r"case H forces c0 = 2, got 3"),
    ("D", None, {"b0": 1, "f0": 1, "c0": 2}, r"case D forces c0 = 1, got 2"),
    ("E", (2, 1), {"b0": 3, "c0": 1, "q": 0}, r"case E forces c0 = 3, got 1"),
    ("F", None, {"b0": 1, "c0": -1, "q1": 0, "q2": 0}, r"case F forces c0 = 1, got -1"),
    ("A", (1, 1), {"a0": 1, "b0": 1, "c0": 1},
     r"\(k, l\) = \(1, 1\) is excluded for case A"),
    ("E", (1, -2), {"b0": 1, "q": 0}, r"\(k, l\) = \(1, -2\) is excluded for case E"),
    ("C", (2, 1), {"a0": 1, "b0": 1, "c0": 1},
     r"case C is pinned to \(k, l\) = \(1, 1\)"),
    ("B", (1, 1), {"a0": 1, "b0": 1, "c0": 1},
     r"case B is pinned to \(k, l\) = \(1, 0\)"),
    ("A", None, {"a0": 1, "b0": 1, "c0": 1}, r"case A needs --k and --l"),
    # k + l = 0 leaves the forced f'(0) = 2 delta / (k + l) undefined
    ("E", (-1, 1), {"b0": 1, "q": 0}, r"\(-1, 1\)|k \+ l"),
    # N^{k,l} and N^{-k,-l} are the same orbit: sign flips are excluded too
    ("E", (-1, 2), {"b0": 1, "q": 0}, r"\(k, l\) = \(-1, 2\) is excluded for case E"),
    ("E", (-2, 1), {"b0": 1, "q": 0}, r"\(k, l\) = \(-2, 1\) is excluded for case E"),
    ("A", (-1, -1), {"a0": 1, "b0": 1, "c0": 1},
     r"\(k, l\) = \(-1, -1\) is excluded for case A"),
]


@pytest.mark.parametrize("cid,kl,params,pattern", CONSTRAINT_PATHS)
def test_constraint_paths(cid, kl, params, pattern):
    kw = {"k": kl[0], "l": kl[1]} if kl else {}
    with pytest.raises(ConstraintError, match=pattern):
        solve_series(cid, _q(params), order=6, **kw)


def test_forced_values_are_accepted():
    sol = solve_series("H", {"a0": 2, "a10": 2, "a20": -2, "c0": 2, "q": 0}, order=6)
    assert sol.functions["a2"].coef[0] == -2


# -- the catalog is the only place that branches on a case id --------------------


def _id_attr(node) -> bool:
    """`case.id`, `self.id` or `<expr>.case.id`."""
    if not (isinstance(node, ast.Attribute) and node.attr == "id"):
        return False
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id in ("case", "self"))
            or (isinstance(owner, ast.Attribute) and owner.attr == "case"))


def _literal(node) -> bool:
    if isinstance(node, ast.Constant):
        return True
    return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(
        isinstance(e, ast.Constant) for e in node.elts)


def _id_branches(source: str) -> list[int]:
    """Lines comparing case.id / self.id with a literal, testing it for
    membership or indexing by it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            membership = _id_attr(node.left) and isinstance(
                node.ops[0], (ast.In, ast.NotIn))
            if membership or (any(map(_id_attr, operands))
                              and any(map(_literal, operands))):
                lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and _id_attr(node.slice):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", ["solver.py", "analysis.py"])
def test_no_case_id_branches(module):
    assert _id_branches((SRC / module).read_text()) == []


def test_id_branch_detector():
    assert _id_branches("if case.id == 'D':\n    pass\n") == [1]
    assert _id_branches("x = self.id in ('A', 'B')\n") == [1]
    assert _id_branches("x = TABLE[case.id]\n") == [1]
    assert _id_branches("if case.id not in TABLE:\n    pass\n") == [1]
    assert _id_branches("ok = sol.case.id != 'C'\n") == [1]
    assert _id_branches("raise E(f'case {case.id} fails')\n") == []


def test_solution_pickles_with_its_case():
    sol = solve_series("H", {"a0": 2, "q": 1}, order=6)
    back = pickle.loads(pickle.dumps(sol))
    assert back.case == get_case("H")
    assert back.functions == sol.functions
