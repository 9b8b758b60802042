"""End-to-end command-line behavior.

Most cases call ``main(argv)`` in this process; the ones that check the
``python -m zerosound`` entry point itself (exit-code propagation, fresh
process determinism) run it as a subprocess.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli
from hypothesis import example, given, settings, strategies as st

from zerosound import (
    AngularState,
    DispersionPoint,
    InteractionModel,
    Method,
    SolverConfig,
    asymptotic_zero_sound,
    coupling_strength,
    evolve_initial_value,
    solve_zero_sound,
)
from zerosound import cli
from zerosound.cli import _cell, _json_object, _json_value, build_parser, main


def _main(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()

SCAN_HEADER = "k_lambda_d,Q0,A,S,S_minus_1,omega_over_k_vF,method,residual"


class TestSolve:
    def test_pure_interaction(self, capsys):
        assert main(["solve", "--Q0", "1", "--k-lambda", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "exact"
        assert data["A"] == 1.0
        assert data["S"] == pytest.approx(1.0443820337608335, rel=1e-13)
        assert data["omega"] is None

    def test_quantum_underflow_path(self, capsys):
        assert main(["solve", "--Q0", "0", "--k-lambda", "0.1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "exact"
        assert data["S_minus_1"] == pytest.approx(4.1742570659665503e-117, rel=1e-14)
        assert data["log_excess"] < -200.0

    def test_readme_sample_is_the_output(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sample = readme.split("`solve` prints one JSON object:\n\n```\n", 1)[1].split("```", 1)[0]
        assert _main(["solve", "--Q0", "1"]) == (0, sample, "")

    def test_round_trip_is_lossless(self, capsys):
        main(["solve", "--Q0", "3", "--k-lambda", "0.7"])
        recovered = DispersionPoint.from_json_dict(json.loads(capsys.readouterr().out))
        direct = solve_zero_sound(coupling_strength(InteractionModel(3.0), 0.7))
        assert recovered == direct

    def test_params_file_restores_units(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("m = 1\nm_star = 1\np_F = 1\nn0 = 1\nhbar = 1\n")
        main(["solve", "--Q0", "1", "--k-lambda", "0.5", "--params-file", str(path)])
        data = json.loads(capsys.readouterr().out)
        assert data["omega"] == pytest.approx(data["S"] * 0.5, rel=1e-15)

    def test_no_root_exit_code(self):
        proc = run_cli("solve", "--Q0", "0", "--k-lambda", "0")
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"] == "no-undamped-root"

    def test_bad_flag_exit_code(self, capsys):
        assert main(["solve", "--Q0", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "invalid-argument"

    def test_coupling_below_smallest_supported_exit_code(self, capsys):
        for tol in ("1e-12", "5e-324"):
            assert main(["solve", "--Q0", "1e-309", "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["error"] == "invalid-argument"
            assert "smallest supported coupling" in err["message"]

    def test_residual_flat_to_rounding_near_the_smallest_coupling(self):
        # the residual is 0 at the closed-form start for A = 2.2e-308, so the
        # root meets every --tol
        for tol in ("1.0", "1e-12", "5e-324"):
            code, out, err = _main(["solve", "--Q0", "2.2e-308", "--tol", tol])
            assert (code, err) == (0, "")
            data = json.loads(out)
            assert data["method"] == "exact"
            assert data["residual"] == 0.0

    def test_every_returned_root_meets_the_tolerance(self, capsys):
        # the closed form misses 1e-16 at A = 0.0598 (-8.9e-16); the root
        # meets it, and is the same point at the default tolerance
        assert main(["solve", "--Q0", "0.0598", "--tol", "1e-16"]) == 0
        tight = capsys.readouterr().out
        data = json.loads(tight)
        assert (data["method"], data["residual"]) == ("exact", 0.0)
        assert main(["solve", "--Q0", "0.0598"]) == 0
        assert capsys.readouterr().out == tight
        # no point meets 1e-300 at A = 0.7 (the root's residual is -4.4e-16)
        assert main(["solve", "--Q0", "0.7", "--tol", "1e-300"]) == 4
        assert json.loads(capsys.readouterr().err)["error"] == "convergence"

    def test_control_characters_in_a_path_are_escaped(self, tmp_path):
        path = str(tmp_path / "x\ny")
        with pytest.raises(OSError) as exc:
            open(path, encoding="utf-8")
        code, out, err = _main(["solve", "--Q0", "1", "--params-file", path])
        assert (code, out) == (6, "")
        assert err.count("\n") == 1
        assert json.loads(err)["message"] == f"cannot read parameter file {path}: {exc.value}"

    def test_bad_params_file_exit_codes(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("m = 1\nunknown = 2\n")
        assert main(["solve", "--Q0", "1", "--params-file", str(path)]) == 2
        assert main(["solve", "--Q0", "1", "--params-file", str(tmp_path / "absent.txt")]) == 6


class TestScan:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--Q0", "0", "--k-min", "0.1", "--k-max", "2.0",
                     "--points", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        assert lines[0] == SCAN_HEADER

    def test_byte_identical_runs(self, tmp_path):
        args = ("scan", "--Q0", "0.5", "--k-min", "0.05", "--k-max", "1.5",
                "--points", "20", "--log")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        args = ["scan", "--Q0", "1", "--k-min", "0.2", "--k-max", "0.8", "--points", "4"]
        main([*args, "--out", str(out)])
        main(args)
        assert capsys.readouterr().out == out.read_text()

    def test_quantum_scan_monotone_in_k(self, capsys):
        main(["scan", "--Q0", "0", "--k-min", "0.1", "--k-max", "2.0", "--points", "10"])
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        S = [float(r[3]) for r in rows]
        assert S == sorted(S)
        excess = [float(r[4]) for r in rows]
        assert all(b > a for a, b in zip(excess, excess[1:]))

    def test_phase_velocity_column_echoes_S(self, capsys):
        main(["scan", "--Q0", "2", "--k-min", "0.5", "--k-max", "1.0", "--points", "3"])
        for line in capsys.readouterr().out.splitlines()[1:]:
            cells = line.split(",")
            assert cells[5] == cells[3]

    def test_json_format(self, capsys):
        main(["scan", "--Q0", "1", "--k-min", "0.2", "--k-max", "0.4",
              "--points", "2", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["grid"]["count"] == 2
        assert len(data["points"]) == 2
        assert data["failures"] == []

    def test_bad_grid_rejected(self):
        assert main(["scan", "--Q0", "1", "--k-min", "0", "--k-max", "1", "--points", "5"]) == 2

    def test_unwritable_path(self, capsys):
        assert main(["scan", "--Q0", "1", "--k-min", "0.1", "--k-max", "1",
                     "--points", "2", "--out", "/no-such-directory/scan.csv"]) == 6
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_control_characters_in_the_output_path_are_escaped(self, tmp_path):
        path = str(tmp_path / "missing" / "a\nb")
        with pytest.raises(OSError) as exc:
            open(path, "w", encoding="utf-8")
        code, out, err = _main(["scan", "--Q0", "1", "--k-min", "0.1", "--k-max", "1",
                                "--points", "2", "--out", path])
        assert (code, out) == (6, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "io", "message": f"cannot write {path}: {exc.value}"}

    def test_failure_rows_keep_grid_order(self, capsys):
        args = ["scan", "--Q0", "0", "--k-min", "1e-170", "--k-max", "1e-150",
                "--points", "4", "--log"]
        assert main(args) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 4
        # A = 0 twice (no mode), then A below the smallest supported coupling
        assert [row[2] for row in rows[:3]] == ["0", "0", "3.4811916250269845e-314"]
        for row in rows[:3]:
            assert row[6] == "error"
            assert row[1] == "0"
            assert row[3:6] == ["nan"] * 3 and row[7] == "nan"
        assert rows[3][0] == "1e-150" and rows[3][6] == "exact"
        assert main([*args, "--format", "json"]) == 0
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert [f["k_lambda_d"] for f in failures] == [float(row[0]) for row in rows[:3]]
        assert [f["error"] for f in failures] == [
            "no-undamped-root", "no-undamped-root", "invalid-argument"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_coupling_is_a_failure_row(self, fmt, capsys):
        # A = Q0 + (3/4) k^2 overflows at the last two points, not at k = 1
        assert main(["scan", "--Q0", "1", "--k-min", "1", "--k-max", "1e200",
                     "--points", "3", "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "csv":
            rows = [line.split(",") for line in captured.out.splitlines()[1:]]
            assert [row[2] for row in rows] == ["1.75", "nan", "nan"]
            assert [row[6] for row in rows] == ["exact", "error", "error"]
        else:
            data = json.loads(captured.out)
            assert [p["A"] for p in data["points"]] == [1.75]
            assert [f["error"] for f in data["failures"]] == ["invalid-argument"] * 2
            assert data["failures"][-1]["k_lambda_d"] == 1e200


class TestSimulate:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--Q0", "1", "--n-mu", "32", "--steps", "2048",
                     "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["window"] == "hann"  # the one window spectral_peak applies
        assert abs(summary["peak_frequency"] - summary["analytic_S"]) <= summary["bin_width"]
        assert summary["deviation"] == pytest.approx(
            abs(summary["peak_frequency"] - summary["analytic_S"]), rel=1e-12
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_density,im_density,abs_density"
        assert len(lines) == 2050  # header plus steps + 1 samples
        # the isotropic state has F(-mu) = conj F(mu), so its trace is real
        assert lines[1] == "0,1,0,1"
        assert {line.split(",")[2] for line in lines[1:]} == {"0"}

    def test_stability_violation_reported_before_writing(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--Q0", "1", "--dt", "0.9", "--out", str(out)]) == 2
        assert not out.exists()

    def test_single_step_rejected(self, tmp_path):
        assert main(["simulate", "--Q0", "1", "--steps", "1", "--out", str(tmp_path / "t.csv")]) == 2

    def test_params_file_rejected(self, tmp_path, capsys):
        # simulate reports nothing in physical units, so it takes no parameter file
        params = tmp_path / "p.txt"
        params.write_text("m = 1\nm_star = 1\np_F = 1\nn0 = 1\nhbar = 1\n")
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--Q0", "1", "--steps", "2048", "--n-mu", "16",
                  "--params-file", str(params), "--out", str(out)])
        assert exc.value.code == 2
        assert "--params-file" in capsys.readouterr().err
        assert not out.exists()

    def test_amplitude_rejected(self, tmp_path, capsys):
        # the evolution is linear and unit-scaled, so an initial amplitude
        # would only scale the trace: simulate evolves the unit state
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--Q0", "1", "--steps", "2048", "--n-mu", "16",
                  "--amplitude", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--amplitude" in capsys.readouterr().err
        assert not out.exists()

    def test_blowup_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "t.csv"
        argv = ["simulate", "--out", str(out)]

        def evolve_beyond_the_float_range(coupling, grid, state, dt, steps):
            # the unit state cannot leave the float range, so the evolution
            # gets one whose trace modulus does
            state = AngularState((1.5e308 + 1.5e308j) * state.values)
            return evolve_initial_value(coupling, grid, state, dt, steps)

        with warnings.catch_warnings():
            # a floating-point warning from the overflow would reach stderr
            warnings.simplefilter("error")
            with monkeypatch.context() as patch:
                patch.setattr(cli, "evolve_initial_value", evolve_beyond_the_float_range)
                code = main([*argv, "--Q0", "1"])
            captured = capsys.readouterr()
            assert code == 7
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            err = json.loads(captured.err)
            assert err["error"] == "numerical-blowup"
            assert "trace modulus" in err["message"]
            assert not out.exists()
            # the step's factors stay finite at strong coupling, where this
            # short record has no line above the band
            assert main([*argv, "--steps", "64", "--Q0", "1e120"]) == 5
            captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "no-collective-peak"
        assert not out.exists()


class TestCompare:
    def test_all_methods_reported(self, capsys):
        assert main(["compare", "--Q0", "1", "--n-mu", "64", "--steps", "2048"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["exact", "asymptotic-zero-sound", "asymptotic-high-frequency",
                           "matrix-oracle", "time-domain"]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["dev_matrix_oracle"]) <= 1e-3
        assert float(row["dev_time_domain"]) <= 0.07
        assert row["above_continuum"] == "true"

    def test_sub_solver_failure_does_not_abort(self, capsys):
        # S - 1 ~ 5e-10 here: far below the spectral resolution, so the
        # time-domain row must fail cleanly while the others survive
        assert main(["compare", "--Q0", "0.1", "--k-lambda", "0.01",
                     "--n-mu", "64", "--steps", "2048"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        time_row = lines[5].split(",")
        assert time_row[0] == "time-domain"
        assert time_row[4] == "no-collective-peak"

    def test_exact_row_is_the_root_below_a_0_06(self, capsys):
        # below A = 0.06 the exact row is the solved root, not a copy of the
        # closed form: S - 1 ~ 1.2e-18 differs in its last digits
        main(["compare", "--Q0", "0.05", "--k-lambda", "0.01", "--n-mu", "16", "--steps", "2048"])
        lines = capsys.readouterr().out.splitlines()
        exact = lines[1].split(",")
        asym = lines[2].split(",")
        coupling = coupling_strength(InteractionModel(0.05), 0.01)
        assert float(exact[2]) == solve_zero_sound(coupling).S_minus_1
        assert float(asym[2]) == asymptotic_zero_sound(coupling).S_minus_1
        assert exact[2] != asym[2]
        assert float(exact[2]) == pytest.approx(float(asym[2]), rel=1e-14)

    def test_time_domain_row_is_the_simulate_peak(self, tmp_path, capsys):
        flags = ["--Q0", "1", "--n-mu", "32", "--steps", "2048"]
        assert main(["simulate", *flags, "--out", str(tmp_path / "t.csv")]) == 0
        peak = json.loads(capsys.readouterr().out)["peak_frequency"]
        assert main(["compare", *flags, "--format", "json"]) == 0
        rows = {row["method"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["time-domain"]["S"] == peak

    def test_json_format(self, capsys):
        main(["compare", "--Q0", "300", "--n-mu", "100", "--steps", "2048",
              "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["A"] == 300.0
        rows = {row["method"]: row for row in data["rows"]}
        assert rows["exact"]["S"] == pytest.approx(10.029989287382086, rel=1e-12)
        # strong-coupling closed form lands within one percent
        dev = rows["exact"]["deviations"]["asymptotic-high-frequency"]
        assert dev / rows["exact"]["S"] <= 0.01


# one argv per subcommand, cheap to run; a flag appended later overrides it
BASE_ARGV = {
    "solve": ["solve", "--Q0", "1"],
    "scan": ["scan", "--Q0", "1", "--k-min", "0.1", "--k-max", "1", "--points", "4"],
    "simulate": ["simulate", "--Q0", "1", "--n-mu", "16", "--steps", "256"],
    "compare": ["compare", "--Q0", "1", "--n-mu", "16", "--steps", "256", "--format", "json"],
}

# each flag that takes a number, a value its library check rejects, and the
# name that check gives the knob
RANGE_ERRORS = [
    ("solve", "--Q0", "nan", "Q0"),
    ("solve", "--Q0", "-1", "Q0"),
    # negative values that argparse alone would take for an option
    ("solve", "--Q0", "-1e-5", "Q0"),
    ("solve", "--Q0", "-inf", "Q0"),
    ("solve", "--k-lambda", "inf", "k_lambda_d"),
    ("solve", "--tol", "inf", "tolerance"),
    ("scan", "--Q0", "1e400", "Q0"),
    ("scan", "--k-min", "nan", "k_min"),
    ("scan", "--k-max", "inf", "k_max"),
    ("scan", "--k-min", "-1e-3", "k_min"),
    ("scan", "--points", "0", "count"),
    ("scan", "--points", str(2**62), "MAX_SCAN_POINTS"),
    ("scan", "--tol", "nan", "tolerance"),
    ("simulate", "--Q0", "inf", "Q0"),
    ("simulate", "--k-lambda", "nan", "k_lambda_d"),
    ("simulate", "--n-mu", "0", "grid size"),
    ("simulate", "--n-mu", "3", "grid size"),
    ("simulate", "--n-mu", str(2**62), "MAX_GRID_SIZE"),
    ("simulate", "--steps", "0", "steps"),
    ("simulate", "--steps", str(2**62), "MAX_STEPS"),
    ("simulate", "--dt", "nan", "dt"),
    ("simulate", "--dt", "-1e-3", "dt"),
    ("compare", "--Q0", "nan", "Q0"),
    ("compare", "--k-lambda", "inf", "k_lambda_d"),
]

# compare reports a rejected oracle knob in the rows it spoils
ORACLE_ROW_ERRORS = [
    ("--n-mu", "0", {"matrix-oracle", "time-domain"}),
    ("--n-mu", "3", {"matrix-oracle", "time-domain"}),
    ("--n-mu", str(2**62), {"matrix-oracle", "time-domain"}),
    ("--dt", "nan", {"time-domain"}),
    ("--dt", "inf", {"time-domain"}),
    ("--steps", "0", {"time-domain"}),
    ("--steps", "1", {"time-domain"}),
    ("--steps", str(2**62), {"time-domain"}),
]


class TestRangeErrors:
    """Argparse only parses; each knob's range is checked once, by the library."""

    @pytest.mark.parametrize("command,flag,value,knob", RANGE_ERRORS)
    def test_one_json_line_and_exit_2(self, command, flag, value, knob, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [*BASE_ARGV[command], flag, value]
        if command == "simulate":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        err = json.loads(captured.err)
        assert err["error"] == "invalid-argument"
        assert knob in err["message"]
        if not math.isfinite(float(value)):
            # the message names the condition that failed
            assert "must be finite" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,spoiled", ORACLE_ROW_ERRORS)
    def test_compare_labels_the_oracle_rows(self, flag, value, spoiled, capsys):
        assert main([*BASE_ARGV["compare"], flag, value]) == 0
        rows = {row["method"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
        for method, row in rows.items():
            if method in spoiled:
                assert row["error"] == "invalid-argument"
                assert row["S"] == "nan"
            else:
                assert row["error"] is None

    @pytest.mark.parametrize("argv", [
        ["solve", "--Q0", "one"],
        ["scan", "--Q0", "1", "--k-min", "0.1", "--k-max", "1", "--points", "1.5"],
        ["simulate", "--Q0", "1", "--steps", "1e3", "--out", "t.csv"],
        ["scan", "--Q0", "1", "--k-min", "0.1", "--k-max"],
    ])
    def test_syntax_errors_stay_with_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_log_grid_rejected(self, fmt, capsys):
        # k_max / k_min overflows, which used to give nan and inf wavenumbers
        assert main(["scan", "--Q0", "1", "--k-min", "1e-320", "--k-max", "1e10",
                     "--points", "4", "--log", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "invalid-argument"
        assert "1e-320" in err["message"] and "10000000000.0" in err["message"]


# float-parsable text: any double, a typical magnitude, the special
# spellings, subnormals and an overflowing literal
FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=0.0, max_value=1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "5e-324", "2.2e-308", "-0.0"]),
)


@settings(max_examples=300, deadline=None)
@given(q0=FLOAT_TEXT, k=FLOAT_TEXT, tol=FLOAT_TEXT)
@example(q0="0.0598", k="0", tol="1e-16")  # the closed-form start's residual is -8.9e-16 here
def test_solve_ends_in_a_result_or_a_labeled_error(q0, k, tol):
    # the "--flag=value" form; main also joins "--flag -1e-05" into it
    code, out, err = _main(["solve", f"--Q0={q0}", f"--k-lambda={k}", f"--tol={tol}"])
    if code == 0:
        assert err == ""
        point = DispersionPoint.from_json_dict(json.loads(out))
        # every returned point is a root that meets --tol
        assert point.method.value == "exact" and abs(point.residual) <= float(tol)
        assert math.isfinite(point.S)
    else:
        assert code in (2, 3, 4)
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] in ("invalid-argument", "no-undamped-root", "convergence")


# --dt up to the stability bound 0.1 / (1 + A) = 0.05 at Q0 = 1, mostly in
# the range that resolves the line, the special spellings and values just
# outside; None leaves --dt at its default
DT_TEXT = st.one_of(
    st.none(),
    st.floats(min_value=1e-3, max_value=0.05).map(repr),
    st.floats(min_value=5e-324, max_value=0.05).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-0.01", "0", "5e-324", "0.05", "0.05000000000000001"]),
)
# Q0 = 1, where DT_TEXT is aimed, or over the whole positive float range
Q0_TEXT = st.one_of(
    st.just("1"),
    st.floats(-323.3, 308.25).map(lambda e: repr(10.0**e)),
    st.floats(min_value=5e-324, max_value=sys.float_info.max).map(repr),
)
# the summary fields that hold text; every other one is a finite number
SUMMARY_TEXT_FIELDS = {"window", "analytic_method"}


@settings(max_examples=100, deadline=None)
@given(q0=Q0_TEXT, n_mu=st.integers(4, 64),
       steps=st.one_of(st.integers(2, 4096), st.integers(1024, 4096)),
       dt=DT_TEXT)
def test_kinetic_commands_end_in_a_result_or_a_labeled_error(q0, n_mu, steps, dt):
    knobs = [f"--Q0={q0}", f"--n-mu={n_mu}", f"--steps={steps}", *([f"--dt={dt}"] if dt else [])]
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "t.csv"
        code, out, err = _main(["simulate", *knobs, f"--out={trace}"])
        if code == 0:
            assert err == ""
            summary = json.loads(out)
            numbers = {key: value for key, value in summary.items()
                       if key not in SUMMARY_TEXT_FIELDS}
            assert all(isinstance(value, (int, float)) for value in numbers.values()), numbers
            assert all(math.isfinite(value) for value in numbers.values()), numbers
            assert len(trace.read_text().splitlines()) == 1 + steps + 1
        else:
            assert code in (2, 5, 7)
            assert out == ""
            assert err.count("\n") == 1
            assert json.loads(err)["error"] in (
                "invalid-argument", "no-collective-peak", "numerical-blowup")
            assert not trace.exists()

    code, out, err = _main(["compare", *knobs, "--format=json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for row in rows:
        if row["error"] is None:
            assert isinstance(row["S"], (int, float)) and math.isfinite(row["S"])
        else:
            assert row["S"] == "nan"


def test_json_strings_escape_every_control_character():
    text = "".join(map(chr, range(0x20))) + '"\\' + "\u00e9\u2028"
    encoded = _json_value(text)
    assert min(map(ord, encoded)) >= 0x20
    assert json.loads(encoded) == text


@pytest.mark.parametrize("value,cell,encoded", [
    (-0.0, "-0", "-0"),
    (5e-324, "4.9406564584124654e-324", "4.9406564584124654e-324"),
    (sys.float_info.max, "1.7976931348623157e+308", "1.7976931348623157e+308"),
    (-sys.float_info.max, "-1.7976931348623157e+308", "-1.7976931348623157e+308"),
    (0.1, "0.10000000000000001", "0.10000000000000001"),
    # non-finite numbers are bare in CSV and quoted in JSON
    (math.nan, "nan", '"nan"'),
    (math.inf, "inf", '"inf"'),
    (-math.inf, "-inf", '"-inf"'),
    (np.float64(0.1), "0.10000000000000001", "0.10000000000000001"),
    (np.float64(math.nan), "nan", '"nan"'),
    (np.float64(-math.inf), "-inf", '"-inf"'),
    (True, "true", "true"),
    (False, "false", "false"),
    (0, "0", "0"),
    (-7, "-7", "-7"),
    (2**70, "1.1805916207174113e+21", "1180591620717411303424"),
    (None, "", "null"),
    ('a\tb"c\\\x00\x1fé', 'a\tb"c\\\x00\x1fé', '"a\\u0009b\\"c\\\\\\u0000\\u001fé"'),
])
def test_cells_and_json_values_keep_their_bytes(value, cell, encoded):
    # floats are rendered before any other type is tried; np.float64, a
    # float subclass, and every other type keep the bytes they had before
    assert _cell(value) == cell
    assert _json_value(value) == encoded
    assert _json_object({"k": value}) == f'{{"k":{encoded}}}'
    assert _json_value([value, {"n": value}]) == f'[{encoded},{{"n":{encoded}}}]'


MAX = sys.float_info.max
POINT_FIELDS = ("k_lambda_d", "Q0", "A", "S", "S_minus_1", "log_excess", "residual", "omega")
# values the point template must pass on to _json_object, or render as it does: nan,
# infinities, None, -0.0, subnormals, the ends of the float range (where a sum of the
# fields overflows), and ints and bools, which are not floats
SPECIAL_FIELD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, None, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, MAX, -MAX, math.nextafter(MAX, 0.0)]),
    st.integers(),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(values=st.fixed_dictionaries({name: st.floats(allow_nan=False, allow_infinity=False)
                                     for name in POINT_FIELDS}),
       method=st.sampled_from(Method), special=SPECIAL_FIELD,
       more=st.dictionaries(st.sampled_from(POINT_FIELDS), SPECIAL_FIELD, max_size=3))
@example(values=dict.fromkeys(POINT_FIELDS, MAX), method=Method.EXACT, special=math.nan, more={})
def test_the_point_template_writes_the_bytes_of_json_object(values, method, special, more):
    # a point of finite fields, the same without omega, with each field in turn set
    # to one special value, and with several fields set to special values
    for fields in (values, {**values, "omega": None}, *({**values, name: special} for name in POINT_FIELDS),
                   {**values, **more}):
        point = DispersionPoint(**fields, method=method)
        assert cli._point_json(point) == _json_object(point.to_json_dict()), fields


class TestParserReuse:
    """main parses with one parser per process; no call leaves state in it."""

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_outputs_repeat_in_one_process_and_match_a_fresh_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the same help width here and in the child
        trace = tmp_path / "trace.csv"
        scan = ["scan", "--Q0", "0.5", "--k-min", "0.1", "--k-max", "2", "--points", "5"]
        sequence = [
            scan,
            ["solve", "--Q0", "3", "--k-lambda", "0.7"],
            ["compare", "--Q0", "2", "--n-mu", "32", "--steps", "512", "--format", "json"],
            ["simulate", "--Q0", "2", "--n-mu", "16", "--steps", "256", "--out", str(trace)],
            ["solve", "--Q0", "one"],
            ["--help"],
            scan,
        ]
        runs = []
        for argv in sequence:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse ends a bad value and --help this way
                    code = ("exit", exc.code)
            runs.append((code, out.getvalue(), err.getvalue()))
        assert [code for code, _, _ in runs] == [0, 0, 0, 0, ("exit", 2), ("exit", 0), 0]
        assert runs[4][1] == "" and runs[4][2].startswith("usage: zerosound solve")
        assert runs[5][1].startswith("usage: zerosound") and runs[5][2] == ""
        assert runs[-1] == runs[0]
        written = trace.read_text()
        for argv, (code, out, err) in zip(sequence, runs):
            proc = run_cli(*argv)
            assert proc.returncode == (code[1] if isinstance(code, tuple) else code)
            assert (proc.stdout, proc.stderr) == (out, err)
        assert trace.read_text() == written


class TestSolverDefaults:
    """The solver flags take their defaults from SolverConfig, and say so."""

    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_no_flags_parse_to_the_config_defaults(self, command):
        argv = [*BASE_ARGV[command], *(["--out", "t.csv"] if command == "simulate" else [])]
        args = build_parser().parse_args(argv)
        assert SolverConfig(args.tol) == SolverConfig()

    def test_help_prints_the_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"(default {SolverConfig().tolerance})" in text


class TestEntryPoint:
    def test_module_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("solve", "scan", "simulate", "compare"):
            assert sub in proc.stdout

    def test_missing_command_rejected(self):
        proc = run_cli()
        assert proc.returncode == 2
