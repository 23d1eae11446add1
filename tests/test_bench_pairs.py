"""`tools/bench_pairs.py`: the merge keeps every measured set of a workload, and
the summary of the CPU-time pairs."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_a_new_workload_takes_its_own_name():
    doc = {"workloads": {"ladder": {"pairs": 10}}}
    assert bench_pairs.merge(doc, "deep_series", {"pairs": 4}) == "deep_series"
    assert doc["workloads"] == {"ladder": {"pairs": 10}, "deep_series": {"pairs": 4}}


def test_a_rerun_goes_under_the_first_free_key():
    doc = {"workloads": {}}
    keys = [bench_pairs.merge(doc, "deep_series", {"run": i}) for i in range(4)]
    assert keys == ["deep_series", "deep_series_rerun", "deep_series_rerun2",
                    "deep_series_rerun3"]
    assert [doc["workloads"][k] for k in keys] == [{"run": i} for i in range(4)]


def test_a_gap_in_the_reruns_is_filled_and_no_set_is_replaced():
    first, later = {"run": 0}, {"run": 2}
    doc = {"workloads": {"scan": first, "scan_rerun2": later}}
    assert bench_pairs.merge(doc, "scan", {"run": 3}) == "scan_rerun"
    assert bench_pairs.merge(doc, "scan", {"run": 4}) == "scan_rerun3"
    assert doc["workloads"]["scan"] is first
    assert doc["workloads"]["scan_rerun2"] is later


def _sides(parent, change):
    return {"parent": [{"cpu_run_s": p, "cpu_check_s": 2 * p} for p in parent],
            "change": [{"cpu_run_s": c, "cpu_check_s": 2 * p} for p, c in zip(parent, change)]}


def test_cpu_summary_has_medians_quartiles_and_wins():
    runs = _sides([0.50, 0.40, 0.60, 0.45], [0.30, 0.41, 0.35, 0.20])
    out = bench_pairs.summarize(runs, bench_pairs.CPU_METRICS)
    run = out["cpu_run_s"]
    assert (run["unit"], run["better"]) == ("s", "lower")
    assert run["parent"] == pytest.approx({"median": 0.475, "q1": 0.4375, "q3": 0.525})
    assert run["change"]["median"] == pytest.approx(0.325)
    assert run["change_wins"] == "3/4"  # 0.41 loses to 0.40
    # equal CPU times are no win
    assert out["cpu_check_s"]["change_wins"] == "0/4"


_WORKLOADS = """
class Op:
    def __init__(self, label, needs=(), bad=False):
        self.label, self.needs, self.bad = label, needs, bad
    def run(self):
        return sum(range(1000))
    def check(self, result, earlier):
        assert set(earlier) == set(self.needs)
        return ["wrong"] if self.bad else []

WORKLOADS = {"ok": lambda seed: [Op("a"), Op("b", needs=("a",))],
             "bad": lambda seed: [Op("a"), Op("b", needs=("a",), bad=True)]}
"""


def _child(tmp_path, monkeypatch, workload):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(_WORKLOADS)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", ["-c", workload, "1", "3", "0.01"])
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    exec(bench_pairs.CPU_CHILD, {})


def test_cpu_child_prints_the_two_medians(tmp_path, monkeypatch, capsys):
    _child(tmp_path, monkeypatch, "ok")
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"cpu_run_s", "cpu_check_s"}
    assert all(v >= 0 for v in out.values())


def test_cpu_child_fails_on_a_wrong_result(tmp_path, monkeypatch):
    with pytest.raises(SystemExit, match="b: wrong"):
        _child(tmp_path, monkeypatch, "bad")
