"""Command-line front end emitting deterministic, plot-ready CSV/JSON.

All numbers are printed with 17 significant digits so that every double
round-trips losslessly through its decimal form and repeated runs are
byte-identical.  Exit codes: 0 success, 2 invalid argument, 3 no
undamped root, 4 convergence failure, 5 no collective peak, 6 I/O
failure, 7 numerical blowup.
"""

import argparse
import math
import sys

import numpy as np

from .dispersion import (
    GridSpec,
    SolverConfig,
    asymptotic_zero_sound,
    branch_scan,
    high_frequency_branch,
    solve_zero_sound,
)
from .errors import IOFailureError, ZeroSoundError
from .kinetic import (
    AngularState,
    build_angular_grid,
    discrete_collective_root,
    evolve_initial_value,
    spectral_peak,
    stability_bound,
)
from .model import InteractionModel, coupling_strength, load_parameter_file

__all__ = ["main", "build_parser"]


def _fmt(value):
    """One CSV/JSON cell: 17-significant-digit decimal, 'nan' for missing."""
    if value is None:
        return "nan"
    return format(float(value), ".17g")


def _json_value(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return format(value, ".17g")
    if isinstance(value, dict):
        return _json_object(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"unserializable value {value!r}")


def _json_object(pairs):
    if isinstance(pairs, dict):
        pairs = pairs.items()
    parts = (f'"{key}":{_json_value(value)}' for key, value in pairs)
    return "{" + ",".join(parts) + "}"


def _point_json(point):
    return _json_object(point.to_json_dict())


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailureError(f"cannot write {path}: {exc}") from exc


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def build_parser():
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--tol", type=_finite_float, default=1e-12,
                              help="accepted |residual| of the exact root (default 1e-12)")
    solver_flags.add_argument("--max-iter", type=_positive_int, default=200,
                              help="bisection iteration budget (default 200)")
    solver_flags.add_argument("--switch-a", type=_finite_float, default=0.06,
                              help="coupling below which the closed weak-coupling form is used")
    solver_flags.add_argument("--params-file", default=None, metavar="PATH",
                              help="key = value file with m, m_star, p_F, n0, hbar")

    parser = argparse.ArgumentParser(
        prog="zerosound",
        description="Collective-mode dispersion toolkit for a Fermi liquid with diffraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[solver_flags],
                             help="solve the dispersion relation at one (Q0, k)")
    p_solve.add_argument("--Q0", type=_finite_float, required=True)
    p_solve.add_argument("--k-lambda", type=_finite_float, default=0.0,
                         help="wavenumber times the de Broglie length (default 0)")

    p_scan = sub.add_parser("scan", parents=[solver_flags],
                            help="tabulate the branch over a wavenumber grid as CSV")
    p_scan.add_argument("--Q0", type=_finite_float, required=True)
    p_scan.add_argument("--k-min", type=_finite_float, required=True)
    p_scan.add_argument("--k-max", type=_finite_float, required=True)
    p_scan.add_argument("--points", type=_positive_int, default=50)
    p_scan.add_argument("--log", action="store_true", help="logarithmic grid spacing")
    p_scan.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sim = sub.add_parser("simulate", parents=[solver_flags],
                           help="evolve the kinetic system and report the spectral peak")
    p_sim.add_argument("--Q0", type=_finite_float, required=True)
    p_sim.add_argument("--k-lambda", type=_finite_float, default=0.0)
    p_sim.add_argument("--n-mu", type=_positive_int, default=128, help="angular grid size")
    p_sim.add_argument("--dt", type=_finite_float, default=None,
                       help="time step (default: the stability bound 0.1/(1+A))")
    p_sim.add_argument("--steps", type=_positive_int, default=16384)
    p_sim.add_argument("--window", choices=("hann", "none"), default="hann")
    p_sim.add_argument("--amplitude", type=_finite_float, default=1.0,
                       help="initial isotropic amplitude")
    p_sim.add_argument("--out", required=True, metavar="PATH", help="time-series CSV path")

    p_cmp = sub.add_parser("compare", parents=[solver_flags],
                           help="cross-check every method at one (Q0, k)")
    p_cmp.add_argument("--Q0", type=_finite_float, required=True)
    p_cmp.add_argument("--k-lambda", type=_finite_float, default=0.0)
    p_cmp.add_argument("--n-mu", type=_positive_int, default=400)
    p_cmp.add_argument("--dt", type=_finite_float, default=None)
    p_cmp.add_argument("--steps", type=_positive_int, default=16384)
    p_cmp.add_argument("--window", choices=("hann", "none"), default="hann")
    p_cmp.add_argument("--mass-convention", choices=("effective", "bare"), default="effective")
    p_cmp.add_argument("--out", default=None, metavar="PATH")
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _solver_config(args):
    return SolverConfig(
        tolerance=args.tol,
        max_iterations=args.max_iter,
        asymptotic_switch_A=args.switch_a,
    )


def _load_params(args):
    if args.params_file is None:
        return None
    return load_parameter_file(args.params_file)


def run_solve(args):
    point = solve_zero_sound(
        coupling_strength(InteractionModel(args.Q0), args.k_lambda),
        _solver_config(args),
    )
    params = _load_params(args)
    if params is not None:
        point = point.with_omega(params)
    sys.stdout.write(_point_json(point) + "\n")
    return 0


_SCAN_HEADER = "k_lambda_d,Q0,A,S,S_minus_1,omega_over_k_vF,method,residual"


def _scan_csv(scan, Q0):
    by_k = {p.k_lambda_d: p for p in scan.points}
    lines = [_SCAN_HEADER]
    for k in scan.grid.values():
        p = by_k.get(k)
        if p is not None:
            # the phase velocity over v_F is S itself in these units
            cells = (p.k_lambda_d, p.Q0, p.A, p.S, p.S_minus_1, p.S, p.method.value, p.residual)
        else:
            cells = (k, Q0, Q0 + 0.75 * k * k, None, None, None, "error", None)
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in cells))
    return "\n".join(lines) + "\n"


def _scan_json(scan):
    g = scan.grid
    return _json_object({
        "grid": {"k_min": g.k_min, "k_max": g.k_max, "count": g.count, "spacing": g.spacing},
        "points": [p.to_json_dict() for p in scan.points],
        "failures": [{"k_lambda_d": k, "error": label} for k, label in scan.failures],
    }) + "\n"


def run_scan(args):
    grid = GridSpec(
        k_min=args.k_min,
        k_max=args.k_max,
        count=args.points,
        spacing="log" if args.log else "linear",
    )
    scan = branch_scan(InteractionModel(args.Q0), grid, _solver_config(args), _load_params(args))
    text = _scan_csv(scan, args.Q0) if args.format == "csv" else _scan_json(scan)
    _write_text(args.out, text)
    return 0


def _time_domain(coupling, args, amplitude):
    grid = build_angular_grid(args.n_mu)
    dt = args.dt if args.dt is not None else stability_bound(coupling)
    state = AngularState(np.full(grid.size, amplitude, dtype=np.complex128))
    series = evolve_initial_value(coupling, grid, state, dt, args.steps)
    return series, spectral_peak(series, window=args.window)


def run_simulate(args):
    coupling = coupling_strength(InteractionModel(args.Q0), args.k_lambda)
    series, peak = _time_domain(coupling, args, args.amplitude)
    reference = solve_zero_sound(coupling, _solver_config(args))

    lines = ["t,re_density,im_density,abs_density"]
    for i, value in enumerate(series.samples):
        t = i * series.dt
        lines.append(
            f"{_fmt(t)},{_fmt(value.real)},{_fmt(value.imag)},{_fmt(abs(value))}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")

    sys.stdout.write(_json_object({
        "k_lambda_d": coupling.k_lambda_d,
        "Q0": coupling.Q0,
        "A": coupling.A,
        "n_mu": args.n_mu,
        "dt": series.dt,
        "steps": args.steps,
        "window": args.window,
        "peak_frequency": peak.frequency,
        "peak_amplitude": peak.amplitude,
        "bin_width": peak.bin_width,
        "analytic_S": reference.S,
        "analytic_method": reference.method.value,
        "deviation": abs(peak.frequency - reference.S),
    }) + "\n")
    return 0


_COMPARE_METHODS = (
    "exact",
    "asymptotic-zero-sound",
    "asymptotic-high-frequency",
    "matrix-oracle",
    "time-domain",
)


def _compare_rows(args):
    coupling = coupling_strength(InteractionModel(args.Q0), args.k_lambda)
    config = _solver_config(args)
    params = _load_params(args)

    def exact():
        point = solve_zero_sound(coupling, config)
        return point.S, point.S_minus_1, point.above_continuum

    def asym_zs():
        point = asymptotic_zero_sound(coupling)
        return point.S, point.S_minus_1, point.above_continuum

    def asym_hf():
        point = high_frequency_branch(args.Q0, args.k_lambda, args.mass_convention, params)
        return point.S, point.S_minus_1, point.above_continuum

    def matrix():
        s = discrete_collective_root(coupling, build_angular_grid(args.n_mu))
        return s, s - 1.0, s > 1.0

    def time_domain():
        s = _time_domain(coupling, args, 1.0)[1].frequency
        return s, s - 1.0, s > 1.0

    rows = []
    for label, produce in zip(_COMPARE_METHODS, (exact, asym_zs, asym_hf, matrix, time_domain)):
        try:
            s, excess, above = produce()
            rows.append({"method": label, "S": s, "S_minus_1": excess,
                         "above_continuum": above, "error": None})
        except ZeroSoundError as exc:
            rows.append({"method": label, "S": math.nan, "S_minus_1": math.nan,
                         "above_continuum": False, "error": exc.label})
    for row in rows:
        row["deviations"] = {
            other["method"]: abs(row["S"] - other["S"]) for other in rows
        }
    return coupling, rows


def _compare_csv(rows):
    dev_names = [m.replace("-", "_") for m in _COMPARE_METHODS]
    header = "method,S,S_minus_1,above_continuum,error," + ",".join(
        f"dev_{name}" for name in dev_names
    )
    lines = [header]
    for row in rows:
        devs = ",".join(_fmt(row["deviations"][m]) for m in _COMPARE_METHODS)
        lines.append(
            f"{row['method']},{_fmt(row['S'])},{_fmt(row['S_minus_1'])},"
            f"{'true' if row['above_continuum'] else 'false'},{row['error'] or ''},{devs}"
        )
    return "\n".join(lines) + "\n"


def run_compare(args):
    coupling, rows = _compare_rows(args)
    if args.format == "csv":
        text = _compare_csv(rows)
    else:
        text = _json_object({
            "Q0": coupling.Q0,
            "k_lambda_d": coupling.k_lambda_d,
            "A": coupling.A,
            "rows": rows,
        }) + "\n"
    _write_text(args.out, text)
    return 0


_HANDLERS = {
    "solve": run_solve,
    "scan": run_scan,
    "simulate": run_simulate,
    "compare": run_compare,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ZeroSoundError as exc:
        sys.stderr.write(_json_object({"error": exc.label, "message": str(exc)}) + "\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(_json_object({"error": "io", "message": str(exc)}) + "\n")
        return IOFailureError.exit_code
