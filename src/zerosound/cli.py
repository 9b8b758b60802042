"""Command-line front end emitting deterministic, plot-ready CSV/JSON.

All numbers are printed with 17 significant digits so that every double
round-trips losslessly through its decimal form and repeated runs are
byte-identical.  Exit codes: 0 success, 2 invalid argument, 3 no
undamped root, 4 convergence failure, 5 no collective peak, 6 I/O
failure, 7 numerical blowup.
"""

import argparse
import functools
import math
import sys

from .dispersion import (
    GridSpec,
    SolverConfig,
    asymptotic_zero_sound,
    branch_scan,
    high_frequency_branch,
    solve_zero_sound,
)
from .errors import IOFailureError, ZeroSoundError

# loaded with the CLI although solve and scan do not use it: perfbench's traced
# run (layers.py, Tracer.prepare) expects zerosound.kinetic in sys.modules once
# zerosound.cli is imported
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


def _cell(value):
    """One CSV cell: 17 significant digits, text as is, true/false, empty for None."""
    if type(value) is float:  # most cells; a bool is never a float
        return f"{value:.17g}"
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return format(value, ".17g")


def _csv(header, rows):
    return "".join([",".join(map(_cell, row)) + "\n" for row in (header, *rows)])


# JSON escapes for the backslash, the quote and the control characters
_JSON_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"', **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _json_value(value):
    if isinstance(value, float):  # a bool is never a float, so floats go first
        text = f"{value:.17g}"
        return text if math.isfinite(value) else f'"{text}"'
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value.translate(_JSON_ESCAPES)}"'
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return _json_object(value)
    if isinstance(value, list):
        return "[" + ",".join([_json_value(v) for v in value]) + "]"
    raise TypeError(f"unserializable value {value!r}")


def _json_object(fields):
    # a finite float, most fields, is written here without the call
    return "{" + ",".join([
        f'"{key}":{value:.17g}' if type(value) is float and math.isfinite(value)
        else f'"{key}":{_json_value(value)}'
        for key, value in fields.items()
    ]) + "}"


# a DispersionPoint as _json_object(point.to_json_dict()) writes it, for a point
# whose numbers are finite floats; omega is the text null or one such number
_POINT_JSON = ('{"k_lambda_d":%.17g,"Q0":%.17g,"A":%.17g,"S":%.17g,"S_minus_1":%.17g,'
               '"log_excess":%.17g,"method":"%s","residual":%.17g,"omega":%s}')


def _point_json(point):
    """One dispersion point as a JSON object, the same bytes as _json_object gives."""
    k, q0, a, s, excess, v, residual, omega = (point.k_lambda_d, point.Q0, point.A, point.S,
                                               point.S_minus_1, point.log_excess, point.residual,
                                               point.omega)
    # seven floats whose sum is finite are each finite; a sum that overflows takes the general path
    if (type(k) is type(q0) is type(a) is type(s) is type(excess) is type(v) is type(residual) is float
            and math.isfinite(k + q0 + a + s + excess + v + residual)
            and (omega is None or type(omega) is float and math.isfinite(omega))):
        # the member's _value_: the Enum value property returns it through a Python call
        return _POINT_JSON % (k, q0, a, s, excess, v, point.method._value_, residual,
                              "null" if omega is None else "%.17g" % omega)
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


def build_parser():
    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--tol", type=float, default=SolverConfig.tolerance,
                              help="accepted |residual| of the exact root (default %(default)s)")
    # simulate has no physical-unit output, so it takes no parameter file
    params_flag = argparse.ArgumentParser(add_help=False)
    params_flag.add_argument("--params-file", default=None, metavar="PATH",
                             help="key = value file with m, m_star, p_F, n0, hbar")

    parser = argparse.ArgumentParser(
        prog="zerosound",
        description="Collective-mode dispersion toolkit for a Fermi liquid with diffraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[solver_flags, params_flag],
                             help="solve the dispersion relation at one (Q0, k)")
    p_solve.add_argument("--Q0", type=float, required=True)
    p_solve.add_argument("--k-lambda", type=float, default=0.0,
                         help="wavenumber times the de Broglie length (default 0)")

    p_scan = sub.add_parser("scan", parents=[solver_flags, params_flag],
                            help="tabulate the branch over a wavenumber grid as CSV")
    p_scan.add_argument("--Q0", type=float, required=True)
    p_scan.add_argument("--k-min", type=float, required=True)
    p_scan.add_argument("--k-max", type=float, required=True)
    p_scan.add_argument("--points", type=int, default=50)
    p_scan.add_argument("--log", action="store_true", help="logarithmic grid spacing")
    p_scan.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sim = sub.add_parser("simulate", parents=[solver_flags],
                           help="evolve the kinetic system and report the spectral peak")
    p_sim.add_argument("--Q0", type=float, required=True)
    p_sim.add_argument("--k-lambda", type=float, default=0.0)
    p_sim.add_argument("--n-mu", type=int, default=128, help="angular grid size")
    p_sim.add_argument("--dt", type=float, default=None,
                       help="time step (default: the stability bound 0.1/(1+A))")
    p_sim.add_argument("--steps", type=int, default=16384)
    p_sim.add_argument("--out", required=True, metavar="PATH", help="time-series CSV path")

    p_cmp = sub.add_parser("compare", parents=[solver_flags, params_flag],
                           help="cross-check every method at one (Q0, k)")
    p_cmp.add_argument("--Q0", type=float, required=True)
    p_cmp.add_argument("--k-lambda", type=float, default=0.0)
    p_cmp.add_argument("--n-mu", type=int, default=400)
    p_cmp.add_argument("--dt", type=float, default=None)
    p_cmp.add_argument("--steps", type=int, default=16384)
    p_cmp.add_argument("--mass-convention", choices=("effective", "bare"), default="effective")
    p_cmp.add_argument("--out", default=None, metavar="PATH")
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _load_params(args):
    if args.params_file is None:
        return None
    return load_parameter_file(args.params_file)


def run_solve(args):
    point = solve_zero_sound(
        coupling_strength(InteractionModel(args.Q0), args.k_lambda),
        SolverConfig(args.tol),
    )
    params = _load_params(args)
    if params is not None:
        point = point.with_omega(params)
    sys.stdout.write(_point_json(point) + "\n")
    return 0


_SCAN_HEADER = ("k_lambda_d", "Q0", "A", "S", "S_minus_1", "omega_over_k_vF", "method", "residual")


def _scan_rows(scan, model):
    by_k = {p.k_lambda_d: p for p in scan.points}
    for k in scan.grid.values():
        p = by_k.get(k)
        if p is not None:
            # the phase velocity over v_F is S itself in these units
            yield p.k_lambda_d, p.Q0, p.A, p.S, p.S_minus_1, p.S, p.method.value, p.residual
            continue
        try:
            a = coupling_strength(model, k).A
        except ZeroSoundError:  # A = Q0 + (3/4) k^2 overflows: a nan cell
            a = math.nan
        yield k, model.Q0, a, math.nan, math.nan, math.nan, "error", math.nan


def _scan_json(scan):
    g = scan.grid
    grid = _json_object({"k_min": g.k_min, "k_max": g.k_max, "count": g.count, "spacing": g.spacing})
    points = ",".join(map(_point_json, scan.points))
    failures = _json_value([{"k_lambda_d": k, "error": label} for k, label in scan.failures])
    return f'{{"grid":{grid},"points":[{points}],"failures":{failures}}}\n'


def run_scan(args):
    grid = GridSpec(
        k_min=args.k_min,
        k_max=args.k_max,
        count=args.points,
        spacing="log" if args.log else "linear",
    )
    model = InteractionModel(args.Q0)
    scan = branch_scan(model, grid, SolverConfig(args.tol), _load_params(args))
    text = _csv(_SCAN_HEADER, _scan_rows(scan, model)) if args.format == "csv" else _scan_json(scan)
    _write_text(args.out, text)
    return 0


def _time_domain(coupling, grid, args):
    dt = args.dt if args.dt is not None else stability_bound(coupling)
    state = AngularState([1.0] * grid.size)
    series = evolve_initial_value(coupling, grid, state, dt, args.steps)
    return series, spectral_peak(series)


def run_simulate(args):
    coupling = coupling_strength(InteractionModel(args.Q0), args.k_lambda)
    config = SolverConfig(args.tol)  # a bad --tol fails before the evolution
    series, peak = _time_domain(coupling, build_angular_grid(args.n_mu), args)
    reference = solve_zero_sound(coupling, config)

    samples = series.samples
    columns = (series.times, samples.real, samples.imag, abs(samples))
    rows = zip(*(column.tolist() for column in columns))
    _write_text(args.out, "t,re_density,im_density,abs_density\n"
                + "".join(["%.17g,%.17g,%.17g,%.17g\n" % row for row in rows]))

    sys.stdout.write(_json_object({
        "k_lambda_d": coupling.k_lambda_d,
        "Q0": coupling.Q0,
        "A": coupling.A,
        "n_mu": args.n_mu,
        "dt": series.dt,
        "steps": args.steps,
        "window": "hann",
        "peak_frequency": peak.frequency,
        "peak_amplitude": peak.amplitude,
        "bin_width": peak.bin_width,
        "analytic_S": reference.S,
        "analytic_method": reference.method.value,
        "deviation": abs(peak.frequency - reference.S),
    }) + "\n")
    return 0


def _point_cells(point):
    return point.S, point.S_minus_1, point.above_continuum


def _oracle_cells(s):
    return s, s - 1.0, s > 1.0


def _compare_rows(args):
    coupling = coupling_strength(InteractionModel(args.Q0), args.k_lambda)
    config = SolverConfig(args.tol)
    params = _load_params(args)
    # both discrete oracles share one grid; cache keeps no exception, so a
    # rejected --n-mu fails each of their rows
    grid = functools.cache(lambda: build_angular_grid(args.n_mu))
    methods = (
        ("exact", lambda: _point_cells(solve_zero_sound(coupling, config))),
        ("asymptotic-zero-sound", lambda: _point_cells(asymptotic_zero_sound(coupling))),
        ("asymptotic-high-frequency", lambda: _point_cells(
            high_frequency_branch(args.Q0, args.k_lambda, args.mass_convention, params))),
        ("matrix-oracle", lambda: _oracle_cells(discrete_collective_root(coupling, grid()))),
        ("time-domain", lambda: _oracle_cells(
            _time_domain(coupling, grid(), args)[1].frequency)),
    )
    rows = []
    for label, produce in methods:
        try:
            s, excess, above = produce()
            error = None
        except ZeroSoundError as exc:
            s, excess, above, error = math.nan, math.nan, False, exc.label
        rows.append({"method": label, "S": s, "S_minus_1": excess,
                     "above_continuum": above, "error": error})
    for row in rows:
        row["deviations"] = {
            other["method"]: abs(row["S"] - other["S"]) for other in rows
        }
    return coupling, rows


def _compare_csv(rows):
    methods = [row["method"] for row in rows]
    header = ("method", "S", "S_minus_1", "above_continuum", "error",
              *("dev_" + m.replace("-", "_") for m in methods))
    return _csv(header, (
        (row["method"], row["S"], row["S_minus_1"], row["above_continuum"], row["error"],
         *(row["deviations"][m] for m in methods))
        for row in rows
    ))


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


def _join_negative_values(argv):
    # argparse takes a word such as -1e-5 or -inf for an option, so a value
    # that parses as a float is joined onto its flag: --Q0=-1e-5
    words = []
    for word in argv:
        flag = words[-1] if words else ""
        if word.startswith("-") and flag.startswith("--") and flag != "--" and "=" not in flag:
            try:
                float(word)
            except ValueError:
                pass
            else:
                words[-1] += "=" + word
                continue
        words.append(word)
    return words


# parsing leaves a parser as it was, so main builds one per process
_parser = functools.cache(build_parser)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_negative_values(argv))
    try:
        return _HANDLERS[args.command](args)
    except ZeroSoundError as exc:
        sys.stderr.write(_json_object({"error": exc.label, "message": str(exc)}) + "\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(_json_object({"error": "io", "message": str(exc)}) + "\n")
        return IOFailureError.exit_code
