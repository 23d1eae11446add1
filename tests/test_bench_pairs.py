"""The merge of `tools/bench_pairs.py` keeps every measured set of a workload."""
import importlib.util
from pathlib import Path

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
