"""The four seeded workloads: their input draws, one op each, and its check.

An op's inputs come only from the seed.  Each workload builds a pool of
inputs once, during set-up, and the timed loop cycles through it.  The
pool is stratified: the coupling range is cut into equal strata (in log
A), one draw per stratum, visited in bit-reversed order, so any prefix
of the pool spreads over the whole range and two seeds see the same mix
of cheap and expensive couplings.

A check raises CheckFailed; the caller counts it as a failed op.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass


class CheckFailed(Exception):
    """An op's output did not meet its check."""


@dataclass
class Entry:
    """One op's command line and what its output must satisfy."""

    argv: list
    expected: dict
    a_lo: float
    a_hi: float


@dataclass
class Outcome:
    """What one op produced.  cpu_s and maxrss_kb cover the process doing the work."""

    rc: int
    stdout: str | bytes
    stderr: str
    cpu_s: float
    maxrss_kb: int | None = None


def stratified(rng, count):
    """count draws in [0, 1), one per stratum, strata in bit-reversed order."""
    bits = count.bit_length() - 1
    if count != 1 << bits:
        raise ValueError(f"pool size must be a power of two, got {count}")
    order = [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(count)]
    return [(stratum + rng.random()) / count for stratum in order]


def log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def num(x):
    """Shortest decimal that parses back to the same double."""
    return repr(float(x))


def split_coupling(rng, a):
    """(Q0, k_lambda_d) with Q0 + (3/4) k^2 = a up to rounding; the k share is drawn."""
    k = math.sqrt(rng.uniform(0.0, 0.9) * a / 0.75)
    return a - 0.75 * k * k, k


def draw_scan(rng, u):
    """A wavenumber scan whose coupling runs from a_lo (drawn from u) up to 3 decades higher."""
    a_lo = log_uniform(u, 1e-3, 1e2)
    a_hi = min(a_lo * 10.0 ** rng.uniform(0.5, 3.0), 1e3)
    q0 = a_lo * rng.uniform(0.2, 0.9)
    k_min = math.sqrt((a_lo - q0) / 0.75)
    k_max = math.sqrt((a_hi - q0) / 0.75)
    argv = ["scan", "--Q0", num(q0), "--k-min", num(k_min), "--k-max", num(k_max)]
    if rng.random() < 0.5:
        argv.append("--log")
    return argv, a_lo, a_hi


def run_main(cli, argv):
    """cli.main in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return Outcome(rc, out.getvalue(), err.getvalue(), time.process_time() - c0)


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_ok(outcome):
    require(outcome.rc == 0, f"exit code {outcome.rc}: {outcome.stderr.strip()[:300]}")


def as_float(value, what):
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{what} is not a number: {value!r}")
    return float(value)


def check_log_excess(point):
    """log_excess is ln(S_minus_1), and S is 1 + S_minus_1, each up to its own rounding.

    Compared in linear space: when S - 1 underflows into the subnormals it
    keeps only a bit or two, and may even read 0.
    """
    s = as_float(point["S"], "S")
    excess = as_float(point["S_minus_1"], "S_minus_1")
    v = as_float(point["log_excess"], "log_excess")
    slack = 1e-12 * max(1.0, abs(v)) * excess + 2.0 * math.ulp(excess)
    require(excess >= 0.0 and abs(math.exp(v) - excess) <= slack,
            f"log_excess {v!r} disagrees with S_minus_1 {excess!r}")
    require(abs(s - (1.0 + excess)) <= 4.5e-16 * s, f"S {s!r} is not 1 + S_minus_1 {excess!r}")


class Workload:
    """Base: build the pool, run an op in this process, tally the draws' properties."""

    name = ""
    pool_size = 32
    in_process = True

    def __init__(self, zs, cli, scratch, child_env, root):
        self.zs = zs
        self.cli = cli
        self.scratch = scratch
        self.child_env = child_env
        self.root = root
        self.tally = Counter()
        self.a_range = [math.inf, -math.inf]

    def build_pool(self, rng):
        return [self.draw(rng, u, i) for i, u in enumerate(stratified(rng, self.pool_size))]

    def run(self, entry):
        return run_main(self.cli, entry.argv)

    def record(self, entry):
        self.a_range[0] = min(self.a_range[0], entry.a_lo)
        self.a_range[1] = max(self.a_range[1], entry.a_hi)

    def exact_point(self, q0, k):
        zs = self.zs
        return zs.solve_zero_sound(zs.coupling_strength(zs.InteractionModel(q0), k))

    def bin_width(self, q0, k, steps):
        """Spectral resolution 2 pi / (n dt) of steps + 1 samples at the default dt."""
        zs = self.zs
        dt = zs.stability_bound(zs.coupling_strength(zs.InteractionModel(q0), k))
        return 2.0 * math.pi / ((steps + 1) * dt)

    def properties(self):
        """What the inputs used in this run were like; shares count exact-solver results."""
        t = self.tally
        props = {"A_min": self.a_range[0], "A_max": self.a_range[1]}
        if t["solved"]:
            props["asymptotic_frac"] = t["asymptotic"] / t["solved"]
        return props


class Sweep(Workload):
    """In-process branch tabulation: one op is a 200-point scan rendered as JSON by cli.main."""

    name = "sweep"
    pool_size = 64
    points = 200

    def draw(self, rng, u, i):
        argv, a_lo, a_hi = draw_scan(rng, u)
        out = self.scratch / f"scan-{i}.json"
        argv += ["--points", str(self.points), "--format", "json", "--out", str(out)]
        return Entry(argv, {"out": out, "points": self.points, "tol": 1e-12}, a_lo, a_hi)

    def check(self, entry, outcome):
        require_ok(outcome)
        exp = entry.expected
        with open(exp["out"], encoding="utf-8") as fh:
            data = json.load(fh)
        points = data["points"]
        require(len(points) == exp["points"] and not data["failures"],
                f"{len(points)} points and failures {data['failures']!r}, "
                f"expected {exp['points']} points")
        for p in points:
            residual = as_float(p["residual"], "residual")
            require(abs(residual) <= exp["tol"], f"residual {residual!r} above {exp['tol']!r}")
            check_log_excess(p)
        self.tally["solved"] += len(points)
        self.tally["asymptotic"] += sum(p["method"] == "asymptotic-zero-sound" for p in points)


class ColdCli(Workload):
    """Fresh `python -m zerosound` processes, alternating solve and a 50-point scan to stdout."""

    name = "cold-cli"
    in_process = False

    def build_pool(self, rng):
        half = self.pool_size // 2
        solves = stratified(rng, half)
        scans = stratified(rng, half)
        pool = []
        for i in range(half):
            a = log_uniform(solves[i], 1e-3, 1e3)
            q0, k = split_coupling(rng, a)
            pool.append(self.reference(["solve", "--Q0", num(q0), "--k-lambda", num(k)], a, a))
            argv, a_lo, a_hi = draw_scan(rng, scans[i])
            pool.append(self.reference(argv + ["--points", "50"], a_lo, a_hi))
        return pool

    def reference(self, argv, a_lo, a_hi):
        """The in-process output for the same argv, which the child must reproduce byte for byte."""
        ref = run_main(self.cli, argv)
        if argv[0] == "solve":
            methods = [json.loads(ref.stdout)["method"]] if ref.rc == 0 else []
        else:
            methods = [line.split(",")[6] for line in ref.stdout.splitlines()[1:]]
        return Entry(argv, {"rc": ref.rc, "stdout": ref.stdout.encode("utf-8"),
                            "methods": methods}, a_lo, a_hi)

    def run(self, entry):
        err_path = self.scratch / "child.stderr"
        with open(err_path, "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "zerosound", *entry.argv],
                stdout=subprocess.PIPE, stderr=err, env=self.child_env, cwd=self.root,
            )
            try:
                with proc.stdout:
                    out = proc.stdout.read()
            finally:
                # reap the child here, not in Popen.wait, to get its own resource usage
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return Outcome(proc.returncode, out, stderr, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss)

    def check(self, entry, outcome):
        exp = entry.expected
        require(outcome.rc == exp["rc"], f"exit code {outcome.rc}, in-process gave {exp['rc']}")
        require(outcome.stdout == exp["stdout"], "stdout differs from the in-process output")
        self.tally["solved"] += len(exp["methods"])
        self.tally["asymptotic"] += sum(m == "asymptotic-zero-sound" for m in exp["methods"])


class TimeDomain(Workload):
    """In-process `simulate` at the CLI defaults (N=128, 16384 steps, dt at the stability bound)."""

    name = "time-domain"
    steps = 16384

    def draw(self, rng, u, i):
        a = log_uniform(u, 0.5, 10.0)
        q0, k = split_coupling(rng, a)
        point = self.exact_point(q0, k)
        out = self.scratch / "trace.csv"
        argv = ["simulate", "--Q0", num(q0), "--k-lambda", num(k), "--out", str(out)]
        expected = {"S": point.S, "method": point.method.value, "out": out,
                    "bin_width": self.bin_width(q0, k, self.steps), "steps": self.steps}
        return Entry(argv, expected, a, a)

    def check(self, entry, outcome):
        require_ok(outcome)
        exp = entry.expected
        summary = json.loads(outcome.stdout)
        width = as_float(summary["bin_width"], "bin_width")
        require(abs(width - exp["bin_width"]) <= 1e-12 * exp["bin_width"],
                f"bin width {width!r}, expected {exp['bin_width']!r}")
        offset = abs(as_float(summary["peak_frequency"], "peak_frequency") - exp["S"]) / width
        require(offset <= 1.0, f"peak {offset:.3g} bins from the exact root {exp['S']!r}")
        with open(exp["out"], "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        require(rows == exp["steps"] + 1, f"trace has {rows} rows, expected {exp['steps'] + 1}")
        self.tally["solved"] += 1
        self.tally["asymptotic"] += exp["method"] == "asymptotic-zero-sound"


class CrossCheck(Workload):
    """In-process `compare --format json` at the default N=400 over weak to strong coupling."""

    name = "cross-check"
    steps = 16384

    def draw(self, rng, u, i, lo=0.05, hi=100.0):
        a = log_uniform(u, lo, hi)
        q0, k = split_coupling(rng, a)
        point = self.exact_point(q0, k)
        argv = ["compare", "--Q0", num(q0), "--k-lambda", num(k), "--format", "json"]
        expected = {"S": point.S, "S_minus_1": point.S_minus_1, "method": point.method.value,
                    "bin_width": self.bin_width(q0, k, self.steps)}
        return Entry(argv, expected, a, a)

    def check(self, entry, outcome):
        require_ok(outcome)
        exp = entry.expected
        rows = {row["method"]: row for row in json.loads(outcome.stdout)["rows"]}
        exact = as_float(rows["exact"]["S"], "exact S")
        require(abs(exact - exp["S"]) <= 1e-12 * exp["S"],
                f"exact row {exact!r}, expected {exp['S']!r}")
        matrix = rows["matrix-oracle"]
        require(matrix["error"] is None, f"matrix oracle failed: {matrix['error']}")
        require(abs(as_float(matrix["S"], "matrix S") - exp["S"]) <= 1e-4,
                f"matrix row {matrix['S']!r} more than 1e-4 from {exp['S']!r}")
        td = rows["time-domain"]
        if td["error"] is None:
            offset = abs(as_float(td["S"], "time-domain S") - exp["S"]) / exp["bin_width"]
            require(offset <= 1.0, f"time-domain row {offset:.3g} bins from the exact root")
        else:
            require(td["error"] == "no-collective-peak" and exp["S_minus_1"] < exp["bin_width"],
                    f"time-domain row failed with {td['error']!r} at S - 1 = "
                    f"{exp['S_minus_1']!r}, bin width {exp['bin_width']!r}")
            self.tally["no_peak"] += 1
        self.tally["rows"] += 1
        self.tally["solved"] += 1
        self.tally["asymptotic"] += exp["method"] == "asymptotic-zero-sound"

    def properties(self):
        props = super().properties()
        if self.tally["rows"]:
            props["no_collective_peak_frac"] = self.tally["no_peak"] / self.tally["rows"]
        return props


WORKLOADS = {cls.name: cls for cls in (Sweep, ColdCli, TimeDomain, CrossCheck)}
