"""Golden digests of the exact staircase.

Each point pins two sha256 digests:

* the exact result: `json.dumps({"functions": ..., "free_slots": ...},
  sort_keys=True)` of the solution, so every coefficient stays
  `Fraction`-equal;
* the staircase: the per-order `(order, resolved, free, rank)` log, so the
  pivots, slot detections and ranks stay the same.

A reformulation of the recursion may re-pin the staircase digest with a
reason; the exact digest never changes.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction as F

import pytest

from awflow.analysis import detect_f_vanishing
from awflow.reptheory import AloffWallach
from awflow.solver import einstein_series, solve_series


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _digests(sol) -> tuple[str, str]:
    data = sol.to_json()
    exact = _sha({"functions": data["functions"], "free_slots": data["free_slots"]})
    log = [[entry.get("order"), entry.get("resolved", []), entry.get("free", []),
            entry.get("rank")] for entry in sol.diagnostics]
    return exact, _sha(log)


HALF = F(1, 2)

SERIES_POINTS = {
    "A": ({"a0": F(3, 2), "b0": 1, "c0": F(2, 3)}, {"k": 2, "l": 1}),
    "B": ({"a0": 2, "b0": F(1, 3), "c0": F(5, 2)}, {}),
    "C": ({"a0": 5, "b0": 3, "c0": 4}, {}),
    "D": ({"b0": F(3, 2), "f0": F(2, 3)}, {}),
    "E": ({"b0": F(2, 3), "q": HALF}, {"k": 2, "l": 1}),
    "F": ({"b0": F(3, 2), "q1": HALF, "q2": HALF}, {}),
    "G": ({"a0": F(5, 3), "q": HALF}, {}),
    "H": ({"a0": F(2, 5), "q": HALF}, {}),
}

SERIES_DIGESTS = {
    "A": ("54a72234339c9300c75b60bbd6233447a94fb5d4e738f1c7da3e024d7c1c0497",
          "dc349a982653b937727d7cf91bb2b7f8e29bbb792eaec58002525809e6236263"),
    "B": ("edf945f537e3f945fa251a98f3466f6c3a05465626ebcc548c811af796dffe61",
          "dc349a982653b937727d7cf91bb2b7f8e29bbb792eaec58002525809e6236263"),
    "C": ("fd0e62323cb519bfb3aca53fd641eb6b2e056b4525e6d7e8de1a0f628bca42ac",
          "6df7d69edb8465ee80ff89e89531c508171fb2c644f917366c17d9c972beb399"),
    "D": ("c27b100d5fb1ba2072054f97926290f47b3e87c7a1f7665a36c83e4a2397e2ff",
          "32fe2367efe2697eeaaef896b153c93416e1080e787673cb3debefbc10ad9ddf"),
    "E": ("dd89f1ad8cdf5432e5db5b63d48000974002ae54068f04b7782cb1aa12af2488",
          "7c833ed669267543b7c063ab1b8b6369c4984fe19075521764ef886745c6a95a"),
    "F": ("f4e99216b0fe2481fae8d624c28fcf756c6eb53109b33f18557ade21ed949de2",
          "7d89c77a0eb5350c0848dcdcc5ee083f2f2a30ad768f88b3a9879c499c48b2a9"),
    "G": ("0b2c5de4346b596bc89c384e0eed8c61004381dd8b0743a777388ba168b64c32",
          "b1f8d332ffe5b704770a842bd7a8734945f26de04faf0b9b2c2dfb13acc4366d"),
    "H": ("7ee825bd698fef537460f6fc85f27979706aa535c5e229cff522584c04aa55a2",
          "838449502e93a52803af297ae04815e44bc7e208e647256f973fefe486364e5f"),
}


@pytest.mark.parametrize("cid", sorted(SERIES_POINTS))
def test_series_digest(cid):
    params, kw = SERIES_POINTS[cid]
    sol = solve_series(cid, params, order=20, **kw)
    assert _digests(sol) == SERIES_DIGESTS[cid]


EINSTEIN_POINTS = {
    "A/0": ("A", {"a0": F(3, 2), "b0": 1, "c0": F(2, 3), "f3": 1}, 0, {"k": 2, "l": 1}),
    "A/1": ("A", {"a0": 2, "b0": F(3, 2), "c0": 1, "f3": -2}, 1, {"k": 2, "l": 1}),
    "C/1": ("C", {"a0": 3, "b0": 2, "c0": F(5, 3), "f3": HALF}, 1, {}),
    "D/1": ("D", {"b0": F(3, 2), "f0": F(2, 3)}, 1, {}),
}

EINSTEIN_DIGESTS = {
    "A/0": ("34f597b838a34cb8423eb08a5cf501acfaff6268f5ea64a073d6d2b222584fa7",
            "21cd439d341eda400bf0e382821ea6ab19c25a28fdc0f055fd2a0db71c2737b3"),
    "A/1": ("118ee36919798bc3edbc812418354769fcbba71bd57b1a51638f9dd0e044050d",
            "21cd439d341eda400bf0e382821ea6ab19c25a28fdc0f055fd2a0db71c2737b3"),
    "C/1": ("8b7fd9227241f6165769bb5ae731660a19e6138e69d827e2b78473b4207acdce",
            "535b3386aab0bc48c8a6c9303456f7357184db883d02f7b6b24df54e16624e00"),
    "D/1": ("92f18ff1d7409344838b6db042bf400d567592876f17c43da4c0b474b53183c8",
            "06a5de7787241dbe70bdbfcc59314e01d31aeb2dfcecfee4862e1ec625fa1e35"),
}


@pytest.mark.parametrize("label", sorted(EINSTEIN_POINTS))
def test_einstein_digest(label):
    cid, params, lam, kw = EINSTEIN_POINTS[label]
    sol = einstein_series(cid, params, lam, order=10, **kw)
    assert _digests(sol) == EINSTEIN_DIGESTS[label]


VANISHING_DIGESTS = {
    (2, 1): ("4d231ed117eb756654b91e6f41541bc0fbe193233c723d05c5ffcb0786b8903a",
             "32731a99b3f37461227d098e1e3272d93fe38f4e94d7b43c66f1360606a22cd0"),
    (1, 0): ("4d231ed117eb756654b91e6f41541bc0fbe193233c723d05c5ffcb0786b8903a",
             "32731a99b3f37461227d098e1e3272d93fe38f4e94d7b43c66f1360606a22cd0"),
}


@pytest.mark.parametrize("kl", sorted(VANISHING_DIGESTS))
def test_vanishing_digest(kl):
    trace = detect_f_vanishing(AloffWallach(*kl), order=12)
    exact = _sha({"f_coefficients": trace["f_coefficients"],
                  "all_zero": trace["all_zero"]})
    assert (exact, _sha(trace["induction_trace"])) == VANISHING_DIGESTS[kl]


@pytest.mark.parametrize("cid", sorted(SERIES_POINTS))
def test_low_order_solve_is_a_prefix(cid):
    params, kw = SERIES_POINTS[cid]
    full = solve_series(cid, params, order=20, **kw)
    lowest = max((s.order for s in full.case.slots), default=0) + 1
    for order in range(lowest, 9):
        sol = solve_series(cid, params, order=order, **kw)
        assert sol.free_slots_found == full.free_slots_found
        for fn, s in sol.functions.items():
            assert s.coef == full.functions[fn].coef[:order + 1], (fn, order)


@pytest.mark.parametrize("label", sorted(EINSTEIN_POINTS))
def test_low_order_einstein_solve_is_a_prefix(label):
    cid, params, lam, kw = EINSTEIN_POINTS[label]
    full = einstein_series(cid, params, lam, order=10, **kw)
    for order in range(3, 9):
        sol = einstein_series(cid, params, lam, order=order, **kw)
        for fn, s in sol.functions.items():
            assert s.coef == full.functions[fn].coef[:order + 1], (fn, order)
