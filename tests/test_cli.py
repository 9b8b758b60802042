"""End-to-end command-line behavior through real subprocess invocations."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from zerosound import DispersionPoint, InteractionModel, coupling_strength, solve_zero_sound
from zerosound.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
SCAN_HEADER = "k_lambda_d,Q0,A,S,S_minus_1,omega_over_k_vF,method,residual"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "zerosound", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestSolve:
    def test_pure_interaction(self):
        proc = run_cli("solve", "--Q0", "1", "--k-lambda", "0")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["method"] == "exact"
        assert data["A"] == 1.0
        assert data["S"] == pytest.approx(1.0443820337608335, rel=1e-13)
        assert data["omega"] is None

    def test_quantum_underflow_path(self):
        proc = run_cli("solve", "--Q0", "0", "--k-lambda", "0.1")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["method"] == "asymptotic-zero-sound"
        assert data["S_minus_1"] == pytest.approx(4.1742570659665503e-117, rel=1e-14)
        assert data["log_excess"] < -200.0

    def test_round_trip_is_lossless(self):
        proc = run_cli("solve", "--Q0", "3", "--k-lambda", "0.7")
        recovered = DispersionPoint.from_json_dict(json.loads(proc.stdout))
        direct = solve_zero_sound(coupling_strength(InteractionModel(3.0), 0.7))
        assert recovered == direct

    def test_params_file_restores_units(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("m = 1\nm_star = 1\np_F = 1\nn0 = 1\nhbar = 1\n")
        proc = run_cli("solve", "--Q0", "1", "--k-lambda", "0.5", "--params-file", str(path))
        data = json.loads(proc.stdout)
        assert data["omega"] == pytest.approx(data["S"] * 0.5, rel=1e-15)

    def test_no_root_exit_code(self):
        proc = run_cli("solve", "--Q0", "0", "--k-lambda", "0")
        assert proc.returncode == 3
        err = json.loads(proc.stderr)
        assert err["error"] == "no-undamped-root"

    def test_bad_flag_exit_code(self):
        proc = run_cli("solve", "--Q0", "nan")
        assert proc.returncode == 2

    def test_coupling_below_smallest_supported_exit_code(self, capsys):
        for switch in ("0.06", "0"):
            assert main(["solve", "--Q0", "1e-309", "--switch-a", switch]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            err = json.loads(captured.err)
            assert err["error"] == "invalid-argument"
            assert "smallest supported coupling" in err["message"]

    def test_bad_params_file_exit_codes(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("m = 1\nunknown = 2\n")
        proc = run_cli("solve", "--Q0", "1", "--params-file", str(path))
        assert proc.returncode == 2
        proc = run_cli("solve", "--Q0", "1", "--params-file", str(tmp_path / "absent.txt"))
        assert proc.returncode == 6


class TestScan:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = run_cli("scan", "--Q0", "0", "--k-min", "0.1", "--k-max", "2.0",
                       "--points", "10", "--out", str(out))
        assert proc.returncode == 0
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

    def test_stdout_matches_file(self, tmp_path):
        out = tmp_path / "scan.csv"
        args = ("scan", "--Q0", "1", "--k-min", "0.2", "--k-max", "0.8", "--points", "4")
        run_cli(*args, "--out", str(out))
        proc = run_cli(*args)
        assert proc.stdout == out.read_text()

    def test_quantum_scan_monotone_in_k(self):
        proc = run_cli("scan", "--Q0", "0", "--k-min", "0.1", "--k-max", "2.0", "--points", "10")
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        S = [float(r[3]) for r in rows]
        assert S == sorted(S)
        excess = [float(r[4]) for r in rows]
        assert all(b > a for a, b in zip(excess, excess[1:]))

    def test_phase_velocity_column_echoes_S(self):
        proc = run_cli("scan", "--Q0", "2", "--k-min", "0.5", "--k-max", "1.0", "--points", "3")
        for line in proc.stdout.splitlines()[1:]:
            cells = line.split(",")
            assert cells[5] == cells[3]

    def test_json_format(self):
        proc = run_cli("scan", "--Q0", "1", "--k-min", "0.2", "--k-max", "0.4",
                       "--points", "2", "--format", "json")
        data = json.loads(proc.stdout)
        assert data["grid"]["count"] == 2
        assert len(data["points"]) == 2
        assert data["failures"] == []

    def test_bad_grid_rejected(self):
        proc = run_cli("scan", "--Q0", "1", "--k-min", "0", "--k-max", "1", "--points", "5")
        assert proc.returncode == 2

    def test_unwritable_path(self):
        proc = run_cli("scan", "--Q0", "1", "--k-min", "0.1", "--k-max", "1",
                       "--points", "2", "--out", "/no-such-directory/scan.csv")
        assert proc.returncode == 6
        assert json.loads(proc.stderr)["error"] == "io"


class TestSimulate:
    def test_small_run(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = run_cli("simulate", "--Q0", "1", "--n-mu", "32", "--steps", "2048",
                       "--out", str(out))
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert abs(summary["peak_frequency"] - summary["analytic_S"]) <= summary["bin_width"]
        assert summary["deviation"] == pytest.approx(
            abs(summary["peak_frequency"] - summary["analytic_S"]), rel=1e-12
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_density,im_density,abs_density"
        assert len(lines) == 2050  # header plus steps + 1 samples

    def test_stability_violation_reported_before_writing(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = run_cli("simulate", "--Q0", "1", "--dt", "0.9", "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()

    def test_zero_amplitude_has_no_peak(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = run_cli("simulate", "--Q0", "1", "--amplitude", "0", "--steps", "256",
                       "--n-mu", "16", "--out", str(out))
        assert proc.returncode == 5
        assert json.loads(proc.stderr)["error"] == "no-collective-peak"
        assert not out.exists()

    def test_single_step_rejected(self, tmp_path):
        proc = run_cli("simulate", "--Q0", "1", "--steps", "1", "--out", str(tmp_path / "t.csv"))
        assert proc.returncode == 2

    def test_blowup_is_one_json_line(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            # a floating-point warning from the overflow would reach stderr
            warnings.simplefilter("error")
            code = main(["simulate", "--Q0", "1", "--amplitude", "1e308", "--steps", "64",
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 7
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert json.loads(captured.err)["error"] == "numerical-blowup"
        assert not out.exists()


class TestCompare:
    def test_all_methods_reported(self):
        proc = run_cli("compare", "--Q0", "1", "--n-mu", "64", "--steps", "2048")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 6
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["exact", "asymptotic-zero-sound", "asymptotic-high-frequency",
                           "matrix-oracle", "time-domain"]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["dev_matrix_oracle"]) <= 1e-3
        assert float(row["dev_time_domain"]) <= 0.07
        assert row["above_continuum"] == "true"

    def test_sub_solver_failure_does_not_abort(self):
        # S - 1 ~ 5e-10 here: far below the spectral resolution, so the
        # time-domain row must fail cleanly while the others survive
        proc = run_cli("compare", "--Q0", "0.1", "--k-lambda", "0.01",
                       "--n-mu", "64", "--steps", "2048")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 6
        time_row = lines[5].split(",")
        assert time_row[0] == "time-domain"
        assert time_row[4] == "no-collective-peak"

    def test_raised_switch_makes_rows_identical(self):
        proc = run_cli("compare", "--Q0", "0.1", "--k-lambda", "0.01",
                       "--switch-a", "0.2", "--n-mu", "16", "--steps", "2048")
        lines = proc.stdout.splitlines()
        exact = lines[1].split(",")
        asym = lines[2].split(",")
        assert exact[1] == asym[1]  # identical S text, hence identical bytes
        assert float(exact[6]) == 0.0  # deviation against the asymptotic row

    def test_time_domain_row_is_the_simulate_peak(self, tmp_path, capsys):
        flags = ["--Q0", "1", "--n-mu", "32", "--steps", "2048"]
        assert main(["simulate", *flags, "--out", str(tmp_path / "t.csv")]) == 0
        peak = json.loads(capsys.readouterr().out)["peak_frequency"]
        assert main(["compare", *flags, "--format", "json"]) == 0
        rows = {row["method"]: row for row in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["time-domain"]["S"] == peak

    def test_json_format(self):
        proc = run_cli("compare", "--Q0", "300", "--n-mu", "100", "--steps", "2048",
                       "--format", "json")
        data = json.loads(proc.stdout)
        assert data["A"] == 300.0
        rows = {row["method"]: row for row in data["rows"]}
        assert rows["exact"]["S"] == pytest.approx(10.029989287382086, rel=1e-12)
        # strong-coupling closed form lands within one percent
        dev = rows["exact"]["deviations"]["asymptotic-high-frequency"]
        assert dev / rows["exact"]["S"] <= 0.01


class TestEntryPoint:
    def test_module_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("solve", "scan", "simulate", "compare"):
            assert sub in proc.stdout

    def test_missing_command_rejected(self):
        proc = run_cli()
        assert proc.returncode == 2
