import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awflow import cli
from awflow.cases import CASES, get_case
from awflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDims:
    def test_generic_flag_horizontal(self, capsys):
        code, out, _ = run(capsys, "dims", "--k", "2", "--l", "1",
                           "--orbit", "u12", "--m-max", "4", "--part", "h",
                           "--format", "json")
        assert code == 0
        assert [r["dim"] for r in json.loads(out)] == [3, 0, 3, 0, 3]

    def test_sphere_vertical(self, capsys):
        code, out, _ = run(capsys, "dims", "--orbit", "s5", "--m-max", "3",
                           "--part", "v", "--format", "json")
        assert code == 0
        assert [r["dim"] for r in json.loads(out)] == [1, 0, 2, 0]

    def test_quotient_horizontal(self, capsys):
        code, out, _ = run(capsys, "dims", "--k", "1", "--l", "1",
                           "--orbit", "u12-z2", "--m-max", "3", "--part", "h",
                           "--format", "json")
        assert code == 0
        assert [r["dim"] for r in json.loads(out)] == [3, 2, 3, 2]

    def test_unknown_orbit_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "dims", "--orbit", "cigar")
        assert exc.value.code == 2


class TestSeries:
    def test_sphere_golden_file(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, _, _ = run(capsys, "series", "--case", "D", "--param", "b0=1",
                         "--param", "f0=1", "--order", "6",
                         "--out", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["functions"]["a"][:4] == ["0/1", "2/1", "0/1", "-35/27"]

    def test_projective_flag_series(self, capsys):
        code, out, _ = run(capsys, "series", "--case", "E", "--k", "1",
                           "--l", "0", "--param", "b0=1", "--param", "q=0",
                           "--order", "4")
        assert code == 0
        data = json.loads(out)
        assert data["functions"]["f"] == ["0/1", "2/1", "0/1", "0/1", "0/1"]

    def test_missing_slot_value_exits_3(self, capsys):
        code, _, err = run(capsys, "series", "--case", "E", "--k", "1",
                           "--l", "0", "--param", "b0=1", "--order", "6")
        assert code == 3
        assert "(f, 3)" in err

    def test_float_param_rejected(self, capsys):
        code, _, err = run(capsys, "series", "--case", "D",
                           "--param", "b0=0.5", "--param", "f0=1")
        assert code == 3

    def test_einstein_series(self, capsys, tmp_path):
        out_file = tmp_path / "e.json"
        code, _, _ = run(capsys, "series", "--case", "A", "--k", "2", "--l", "1",
                         "--param", "a0=1", "--param", "b0=1", "--param", "c0=1",
                         "--param", "f3=1", "--einstein", "--lambda", "0",
                         "--order", "8", "--out", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["lambda"] == "0/1"
        assert data["free_slots"] == [["f", 3]]

    def test_round_trip_reverifies_identically(self, capsys, tmp_path):
        from awflow.solver import SeriesSolution, check_smoothness
        out_file = tmp_path / "c.json"
        code, _, _ = run(capsys, "series", "--case", "C", "--param", "a0=5",
                         "--param", "b0=3", "--param", "c0=4", "--order", "10",
                         "--out", str(out_file))
        assert code == 0
        sol = SeriesSolution.from_json(json.loads(out_file.read_text()))
        assert sol.verify_exact()
        first = check_smoothness(sol).to_json()
        again = check_smoothness(
            SeriesSolution.from_json(json.loads(out_file.read_text()))).to_json()
        assert first == again


class TestVerify:
    def test_su4_member_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "C", "--param", "a0=5",
                           "--param", "b0=3", "--param", "c0=4")
        assert code == 0
        report = json.loads(out)
        assert report["ok"]
        assert report["su4_family"] is True

    def test_degenerate_flag_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "A", "--k", "2",
                           "--l", "1")
        assert code == 0
        assert "degenerate: f == 0" in out

    def test_fault_injection_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "D", "--t-end", "0.2",
                           "--fault-inject", "b:3")
        assert code == 1

    def test_unknown_case_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "Z")
        assert code == 2

    def test_multiple_cases_in_parallel(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "G,H", "--jobs", "2",
                           "--t-end", "0.3", "--order", "12")
        assert code == 0
        reports = json.loads(out)
        assert [r["case"] for r in reports] == ["G", "H"]
        assert all(r["ok"] for r in reports)


    def test_each_case_reports_only_the_names_it_reads(self, capsys):
        # q is G's slot parameter; the holonomy solve of D reads no q
        code, out, _ = run(capsys, "verify", "--case", "D,G", "--param", "q=1/2",
                           "--t-end", "0.3", "--order", "12")
        assert code == 0
        d, g = json.loads(out)
        assert d["params"] == {"b0": "1/1", "f0": "1/1"}
        assert g["params"] == {"q": "1/2", "a0": "1/1"}


class TestCases:
    def test_catalog_dump(self, capsys):
        code, out, _ = run(capsys, "cases")
        assert code == 0
        catalog = json.loads(out)
        assert [c["id"] for c in catalog] == list("ABCDEFGH")
        by_id = {c["id"]: c for c in catalog}
        assert by_id["C"]["normalization"] == {"f": "12"}
        assert by_id["H"]["free_slots"] == [["c", 2, "q"]]
        assert by_id["E"]["kl"] is None


class TestIntegrationReport:
    def test_step_statistics_in_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "--case", "D", "--t-end", "0.2")
        assert code == 0
        detail = next(c["detail"] for c in json.loads(out)["checks"]
                      if c["name"] == "integration")
        # the step follows the tolerance alone: each one spans many samples
        assert detail["samples"] == 1024
        assert 1 <= detail["n_steps"] < 1024 and detail["n_rejected"] >= 0
        assert (0.2 - 1e-2) / 1024 < detail["h_min"] <= detail["h_max"]

    def test_final_sliver_step_left_out_of_h_min(self, capsys):
        # a final step clipped to t_end, however short, stays out of h_min
        code, out, _ = run(capsys, "verify", "--case", "D", "--param", "b0=1",
                           "--param", "f0=1", "--t-end", "0.2")
        assert code == 0
        detail = next(c["detail"] for c in json.loads(out)["checks"]
                      if c["name"] == "integration")
        assert detail["h_min"] > 1e-6

    @pytest.mark.parametrize("argv", [
        ("--case", "E", "--k", "2", "--l", "1", "--param", "b0=1/100"),
        ("--case", "D", "--param", "f0=100"),
    ], ids=["E-b0-1/100", "D-f0-100"])
    def test_launch_failure_is_numerical_failure(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 5
        assert err.startswith("numerical failure: t0 too large for series order")
        assert "Traceback" not in err and out == ""

    def test_reversed_interval_is_usage_error(self, capsys):
        # the launch point t0 = 1e-2 lies beyond t_end
        code, _, err = run(capsys, "verify", "--case", "D", "--t-end", "0.005")
        assert code == 2
        assert "t_end > t0" in err
        assert "t0 = 0.01, t_end = 0.005" in err


_FLAG_EINSTEIN = ("series", "--case", "C", "--param", "a0=1", "--param", "b0=1",
                  "--param", "c0=1", "--param", "f3=1", "--einstein")


@pytest.mark.parametrize("argv, code, message", [
    (_FLAG_EINSTEIN + ("--lambda", "1", "--order", "2"), 3, "needs order >= 3, got 2"),
    (("series", "--case", "D", "--param", "b0=1", "--param", "f0=1", "--einstein",
      "--lambda", "1", "--order", "2"), 3, "needs order >= 3, got 2"),
    (_FLAG_EINSTEIN + ("--lambda", "1/0"), 3, "must be an exact rational"),
    (_FLAG_EINSTEIN + ("--lambda", "1.5"), 3, "must be an exact rational"),
    (("dims", "--orbit", "u12"), 2, "needs --k and --l"),
    (("verify", "--case", "D", "--tol", "inf"), 2, "tolerance must be finite and positive"),
    (("verify", "--case", "D", "--t-end", "inf"), 2, "needs a finite t_end"),
    (("series", "--einstein", "--case", "D", "--param", "b0=1", "--param", "f0=1",
      "--param", "bdif1=1/2", "--lambda", "1", "--order", "6"), 2,
     "parameter(s) bdif1; accepted names: a0, a3, b0, bdiff1, c0, f0"),
    (("verify", "--case", "F", "--param", "q=1/2"), 2,
     "parameter(s) q; accepted names: a10, a20, b0, c0, f0, q1, q2"),
], ids=["C-order-2", "D-order-2", "lambda-1/0", "lambda-float", "dims-no-kl",
        "tol-inf", "t-end-inf", "misspelled-einstein-param", "misspelled-slot-param"])
def test_bad_input_ends_in_typed_exit(capsys, argv, code, message):
    got, _, err = run(capsys, *argv)
    assert got == code
    assert message in err
    assert "Traceback" not in err


_SPHERE_EINSTEIN = ("series", "--einstein", "--case", "D", "--order", "6",
                    "--param", "b0=1", "--param", "f0=1")


def test_negative_rational_lambda_is_a_value(capsys):
    code, out, err = run(capsys, *_SPHERE_EINSTEIN, "--lambda", "-1/2")
    assert (code, err) == (0, "")
    assert json.loads(out)["lambda"] == "-1/2"
    assert run(capsys, *_SPHERE_EINSTEIN, "--lambda=-1/2") == (code, out, err)
    for prefix in ("--la", "--lam", "--lamb", "--lambd"):
        assert run(capsys, *_SPHERE_EINSTEIN, prefix, "-1/2") == (code, out, err)
    code, _, err = run(capsys, *_SPHERE_EINSTEIN, "--lambda", "-1/0")
    assert code == 3
    assert "must be an exact rational" in err


def test_nan_tolerance_is_usage_error():
    # a NaN tolerance never met the step controller's acceptance test
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "awflow.cli", "verify", "--case", "D",
                           "--tol", "nan"], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert "usage error: tolerance must be finite and positive, got nan" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("nbytes", [0, 10])
def test_closed_stdout_keeps_the_exit_code(nbytes):
    # the reader closes the pipe before any output, or after reading 10 bytes
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "awflow.cli", "series", "--case", "D",
                             "--param", "b0=1", "--param", "f0=1", "--order", "40"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert len(os.read(proc.stdout.fileno(), nbytes)) == nbytes
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


def test_resonant_einstein_datum_exits_3(capsys):
    code, out, err = run(capsys, "series", "--einstein", "--case", "C",
                         "--param", "a0=5", "--param", "b0=3", "--param", "c0=4",
                         "--param", "f1=3", "--lambda", "1", "--order", "6")
    assert (code, out) == (3, "")
    assert "resonant at order n = 4" in err
    assert "Traceback" not in err


def test_flag_f3_conflicting_with_f1_exits_3(capsys):
    code, out, err = run(capsys, "series", "--einstein", "--case", "C",
                         "--param", "a0=5", "--param", "b0=3", "--param", "c0=4",
                         "--param", "f1=5/2", "--param", "f3=7", "--lambda", "1")
    assert (code, out) == (3, "")
    assert "f'''(0) is determined as 887/360; the requested value 7" in err
    assert "Traceback" not in err


_FAULTY_D = ("verify", "--case", "D", "--fault-inject")


@pytest.mark.parametrize("argv, message", [
    (_FAULTY_D + ("b:99",), "an order in 0..20, got b:99"),
    (_FAULTY_D + ("b:-1",), "an order in 0..20, got b:-1"),
    (_FAULTY_D + ("zz:3",), "a function of ['a', 'b', 'c', 'f'] and an order in 0..20, "
                            "got zz:3"),
    (("dims", "--orbit", "s5", "--m-max", "-3"), "--m-max must be >= 0, got -3"),
], ids=["fault-order-high", "fault-order-negative", "fault-function", "dims-m-max"])
def test_out_of_range_input_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt, expected", [
    ("csv", "m,part,dim\n0,h,2\n0,v,1\n1,h,3\n1,v,0\n2,h,2\n2,v,2\n"),
    ("pretty", "m= 0  part=h  dim=2\nm= 0  part=v  dim=1\nm= 1  part=h  dim=3\n"
               "m= 1  part=v  dim=0\nm= 2  part=h  dim=2\nm= 2  part=v  dim=2\n"),
])
def test_dims_text_formats(capsys, fmt, expected):
    code, out, _ = run(capsys, "dims", "--orbit", "s5", "--m-max", "2",
                       "--format", fmt)
    assert code == 0
    assert out == expected


def test_param_without_equals_is_constraint_error(capsys):
    code, _, err = run(capsys, "series", "--case", "D", "--param", "b0",
                       "--param", "f0=1")
    assert code == 3
    assert "--param needs name=value, got 'b0'" in err


_TYPED = {1: "", 3: "constraint error: ", 4: "solver inconsistency: ",
          5: "numerical failure: "}
_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _cli_input(draw, command):
    """A random valid invocation: any case, a random subset of its parameter
    names at small-height rationals, and an order in the command's range.
    Three draws in four hold every name but the optional initial values."""
    case = get_case(draw(st.sampled_from(sorted(CASES))))
    einstein = command == "series" and draw(st.booleans())
    accepted = case.param_names(einstein)
    names = draw(st.sets(st.sampled_from(accepted)))
    if draw(st.integers(0, 3)):
        names |= {n for n in accepted if n in case.required_params or n[-1] != "0"}
    argv = [command, "--case", case.id]
    for name in sorted(names):
        argv += ["--param", f"{name}={draw(_SMALL)}"]
    if case.fixed_kl is None:
        k, l = draw(st.sampled_from([(2, 1), (1, 1), (3, -1), (1, -2), (1, 0)]))
        argv += ["--k", str(k), "--l", str(l)]
    if einstein:
        argv += ["--einstein", f"--lambda={draw(_SMALL)}"]
    lo, hi = (3, 10) if command == "series" else (8, 20)
    return argv + ["--order", str(draw(st.integers(lo, hi)))]


def _typed_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in _TYPED or code == 0, (argv, code, err.getvalue())
    if code == 1:  # a verification failure is reported, not raised
        assert json.loads(out.getvalue())["ok"] is False
    elif code:
        assert err.getvalue().startswith(_TYPED[code]), (argv, err.getvalue())


@given(argv=_cli_input("series"))
@settings(max_examples=100, deadline=None)
def test_random_series_input_ends_in_a_typed_exit(argv):
    _typed_exit(argv)


@given(argv=_cli_input("verify"))
@settings(max_examples=20, deadline=None)
def test_random_verify_input_ends_in_a_typed_exit(argv):
    _typed_exit(argv)
