"""Exact scaling covariance of every cataloged solve.

The systems are homothety-covariant: if y(t) solves one, so does
s * y(t / s), with the length data (a0, b0, c0, f0) multiplied by s and the
dimensionless slot parameters held fixed.  The Taylor coefficients then obey
coef[n] -> s^(1 - n) coef[n].  For the Einstein systems the constant scales
as lambda -> lambda / s^2 and the third derivative as f3 -> f3 / s^2.  The
law needs no solver internals, so it checks the staircase arithmetic from
outside.
"""
from __future__ import annotations

from fractions import Fraction as F

import pytest

from awflow.solver import einstein_series, solve_series

LENGTHS = {"a0", "b0", "c0", "f0"}

POINTS = {
    "A": ({"a0": F(3, 2), "b0": 1, "c0": F(2, 3)}, {"k": 2, "l": 1}),
    "B": ({"a0": 2, "b0": F(1, 3), "c0": F(5, 2)}, {}),
    "C": ({"a0": 5, "b0": 3, "c0": 4}, {}),
    "D": ({"b0": F(3, 2), "f0": F(2, 3)}, {}),
    "E": ({"b0": F(2, 3), "q": F(1, 2)}, {"k": 2, "l": 1}),
    "F": ({"b0": F(3, 2), "q1": F(1, 2), "q2": F(-1, 3)}, {}),
    "G": ({"a0": F(5, 3), "q": F(1, 2)}, {}),
    "H": ({"a0": F(2, 5), "q": F(-1, 2)}, {}),
}


def _scaled(params: dict, s: int) -> dict:
    return {k: (v * s if k in LENGTHS else v) for k, v in params.items()}


def _assert_covariant(base, copy, s: int) -> None:
    assert base.functions.keys() == copy.functions.keys()
    for fn, series in base.functions.items():
        want = [F(s) ** (1 - n) * c for n, c in enumerate(series.coef)]
        assert list(copy.functions[fn].coef) == want, fn


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("cid", sorted(POINTS))
def test_holonomy_series_scale_covariant(cid, s):
    params, kw = POINTS[cid]
    base = solve_series(cid, params, order=12, **kw)
    copy = solve_series(cid, _scaled(params, s), order=12, **kw)
    _assert_covariant(base, copy, s)


EINSTEIN = {
    "A": ({"a0": F(3, 2), "b0": 1, "c0": F(2, 3), "f3": 1}, {"k": 2, "l": 1}),
    "C": ({"a0": 3, "b0": 2, "c0": F(5, 3), "f3": F(1, 2)}, {}),
    "D": ({"b0": F(3, 2), "f0": F(2, 3)}, {}),
}


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("cid", sorted(EINSTEIN))
def test_einstein_series_scale_covariant(cid, s):
    params, kw = EINSTEIN[cid]
    lam = F(1)
    base = einstein_series(cid, params, lam, order=8, **kw)
    copy_params = _scaled(params, s)
    if "f3" in copy_params:
        copy_params["f3"] = F(copy_params["f3"]) / s ** 2
    copy = einstein_series(cid, copy_params, lam / s ** 2, order=8, **kw)
    _assert_covariant(base, copy, s)
