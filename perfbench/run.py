"""zerosound benchmark: four seeded workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the environment and the properties of the run's draws.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Exit code 0 means the run finished, whatever its checks
found; an op that fails is counted, never raised.

Every workload is closed-loop with one client in one process: the next
op starts when the previous one has finished and been checked.  BLAS and
OpenMP pools are set to one thread (at most nproc), so an op uses one
core whatever else the host is running.

Latency is reported at the 75th and 90th percentiles, not the median.
On a shared host the same op runs at one of two speeds for seconds at a
time, the faster about 0.6x the usual time when the neighbours idle (a
fixed pure-Python loop shows the same two speeds).  Which share of a
run falls in the fast spells changes from run to run, so the median,
the mean and the minimum jump between the two; the upper percentiles
stay in the usual speed.  A change to the program moves them as much.

Workloads, and why each was chosen:

- sweep: in-process branch tabulation.  One op is a 200-point scan
  through dispersion.branch_scan, rendered as JSON by cli.main(["scan",
  ..., "--out", file]).  (Q0, k-range, linear/log) are drawn so that A
  spans 1e-3 to 1e3, covering the weak-coupling closed form and the
  bisection.  dispersion does almost all of the work, kinetic none; the
  import is paid once, outside the timed region.
- cold-cli: fresh `python -m zerosound` processes alternating `solve`
  and `scan --points 50` to stdout at drawn (Q0, k).  Interpreter start
  and import dominate; the numerics are under 1% of the time.  This is
  where lazy imports should show and a faster evolution should not.
- time-domain: in-process cli.main(["simulate", ...]) at the CLI
  defaults (N=128, 16384 steps, dt at the stability bound), A drawn in
  [0.5, 10].  The step loop in kinetic.evolve_initial_value takes most
  of the op and writing the 16k-row trace CSV most of the rest: small N,
  long trace.  Not listed in BENCHMARK.json, to leave the three listed
  workloads 30 s runs within the time for all runs; cross-check runs the
  same evolution at N=400.  Run it by name.
- cross-check: in-process cli.main(["compare", ..., "--format", "json"])
  at the default N=400, A drawn log-uniform in [0.05, 100].  The same
  kinetic layer at large N, where the grid build, the matrix oracle and
  anything O(N^3) weigh more; weak couplings legitimately give a
  time-domain row labelled no-collective-peak.

Each op's output is checked: sweep, |residual| <= tol and log_excess
consistent with S_minus_1; cold-cli, stdout byte-identical to the
in-process output for the same argv, captured during set-up;
time-domain, the peak within one bin of the exact root and steps+1
trace rows; cross-check, the matrix row within 1e-4 of the exact root
and the time-domain row within one bin, or labelled no-collective-peak
only where S - 1 is below the bin width.

End-to-end metrics (untraced runs only):

- setup_s: wall time of `import zerosound` in a fresh interpreter,
  median of several.
- op_p75_ms: 75th percentile of op latency; the sample count is
  printed with it.
- op_p90_ms: 90th percentile of op latency.
- ok_frac: ops that passed their check over ops attempted, i.e.
  1 - failed_frac.  An op fails if it raises, exits non-zero or fails
  its check.
- peak_rss_mb: peak resident memory of the process doing the work; for
  cold-cli, the largest of the child processes.

Ops per second and CPU time per op are printed with the environment
(ops_per_s, cpu_ms_per_op) but are not metrics: both are means, and a
mean follows the share of fast spells in the run.

Per-layer metrics (--trace 1), and the end-to-end metric each should
move.  Layers are the package modules: import (the package __init__ and
everything it pulls in), cli, dispersion, and kinetic with _kernels.
model and errors get no metrics; the traced run prints model's share of
op time (model_share_of_op_time) to check that it stays small.

- import.interpreter_s (bare `python -c pass`): a control no repo change
  should move.
- import.numpy_s, import.scipy_s, import.zerosound_own_s (from -X
  importtime) and import.modules_loaded (exact): move setup_s on every
  workload and op_p75_ms on cold-cli; no change on the other ops.
- cli.process_overhead_ms, fresh-process minus in-process time of the
  same `solve`: moves cold-cli op_p75_ms.
- cli.<subcommand>.ms and .self_ms (cli.main minus the layer calls
  inside it, from spans): move time-domain and sweep op_p75_ms.
- cli.bytes_out (exact, probe calls): any change means the output format
  changed.
- dispersion.solve_zero_sound.us, .calls (exact, probe calls),
  dispersion.branch_scan.ms, dispersion.landau_kernel.us,
  dispersion.asymptotic_frac: move sweep op_p75_ms; no change on
  time-domain and cross-check.
- kinetic.evolve_initial_value.n128.ms / .n400.ms and
  .node_steps_per_s (N x steps / s): move op_p75_ms on time-domain
  (N=128) and cross-check (N=400); no change on sweep and cold-cli.
- kinetic.build_angular_grid.ms (N=400), discrete_collective_root.ms,
  spectral_peak.ms: move cross-check op_p75_ms.
- kinetic.peak_offset_bins_max: largest |peak - exact| / bin width over
  the probe calls; deterministic, moves when the numerics shift.
- trace.overhead_frac: median traced op time over median untraced op
  time, minus 1, on the same inputs.

A traced run alternates traced and untraced ops on the workload, then
makes a fixed set of probe calls drawn from the seed (one of each
subcommand, kernel calls, fresh-process solves), so every per-layer
metric exists on every workload.  Spans are written to
.perfbench_out/spans-<workload>-<seed>.json.
"""

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "op_p75_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")


def cap_threads():
    """One thread in every BLAS/OpenMP pool, for this process and its children."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_package():
    """Import zerosound from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    zs = importlib.import_module("zerosound")
    cli = importlib.import_module("zerosound.cli")
    if Path(zs.__file__).resolve().parent != SRC / "zerosound":
        raise RuntimeError(f"imported zerosound from {zs.__file__}, not from {SRC}")
    return zs, cli


_SETUP_SNIPPET = ("import time; t = time.perf_counter(); import zerosound; "
                  "print(repr(time.perf_counter() - t))")


def setup_seconds(env, reps):
    """Median wall time of `import zerosound` in reps fresh interpreters."""
    times = []
    for _ in range(reps):
        proc = layers.run_child([sys.executable, "-c", _SETUP_SNIPPET], env, ROOT)
        times.append(float(proc.stdout))
    return statistics.median(times)


def environment(zs, seed, threads, nproc):
    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "zerosound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba_imports": numba_imports,
        "backend": zs.BACKEND,
        "threads": threads,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Stats:
    """Latency, CPU and memory of the ops of one run, and their failures."""

    def __init__(self):
        self.latency = []
        self.cpu = []
        self.maxrss_kb = 0
        self.failed = 0

    def report_failure(self, entry, message):
        self.failed += 1
        if self.failed <= 3:
            sys.stderr.write(f"perfbench: op {entry.argv[:1]} failed: {message}\n")


def run_op(wl, entry, stats):
    """One timed op and its check; every failure is counted, none is raised."""
    wl.record(entry)
    t0 = time.perf_counter()
    try:
        outcome = wl.run(entry)
    except Exception:  # a crashed op is a failed op; keep measuring
        stats.latency.append(time.perf_counter() - t0)
        stats.report_failure(entry, traceback.format_exc(limit=3))
        return
    stats.latency.append(time.perf_counter() - t0)
    stats.cpu.append(outcome.cpu_s)
    if outcome.maxrss_kb is not None:
        stats.maxrss_kb = max(stats.maxrss_kb, outcome.maxrss_kb)
    try:
        wl.check(entry, outcome)
    except Exception as exc:  # checks report, never raise
        stats.report_failure(entry, f"{type(exc).__name__}: {exc}")


def measure(wl, pool, seconds, min_ops):
    """Closed loop over the pool for `seconds` of wall time and at least min_ops ops."""
    stats = Stats()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_ops:
        run_op(wl, pool[i % len(pool)], stats)
        i += 1
    return stats


def percentile(values, pct):
    """The pct-th percentile of values, interpolated between the samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(wl, stats, setup_s):
    n = len(stats.latency)
    rss_kb = stats.maxrss_kb if not wl.in_process else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "op_p75_ms": 1e3 * percentile(stats.latency, 75),
        "op_p90_ms": 1e3 * percentile(stats.latency, 90),
        "ok_frac": (n - stats.failed) / n,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    means = {"ops_per_s": n / sum(stats.latency),
             "cpu_ms_per_op": 1e3 * sum(stats.cpu) / max(1, len(stats.cpu))}
    return metrics, {"samples": n, **means}


def traced_run(wl, pool, tracer, zs, cli, seconds, min_ops, rng, scratch, reps):
    """Alternate traced and untraced ops on the same inputs, then the probe calls."""
    traced, untraced = Stats(), Stats()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or 2 * i < min_ops:
        entry = pool[i % len(pool)]
        tracer.install()
        tracer.span("op", i, run_op, wl, entry, traced)
        tracer.uninstall()
        run_op(wl, entry, untraced)
        i += 1
    probe = layers.probe_calls(tracer, zs, cli, rng, scratch, child_env(), ROOT, reps)
    probe_ops = {r[4] for r in tracer.spans if isinstance(r[4], str) and r[4].startswith("probe:")}
    metrics = layers.span_metrics(tracer.spans, probe_ops)
    metrics.update(probe)
    metrics["trace.overhead_frac"] = (statistics.median(traced.latency)
                                      / statistics.median(untraced.latency) - 1.0)
    return metrics, traced, untraced


def run(workload, seed, seconds, trace, scratch, setup_reps=5, min_ops=20, probe_reps=3,
        pool_hook=None):
    """One benchmark run.  Returns (result, info); result is the final JSON line."""
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads()
    env = child_env()
    tracer = layers.Tracer() if trace else None
    if trace:
        imports = layers.import_probes(env, ROOT, probe_reps)
        zs, cli = tracer.span("import", "setup", load_package)
        tracer.prepare({name: mod for name, mod in sys.modules.items()
                        if name == "zerosound" or name.startswith("zerosound.")})
    else:
        setup_s = setup_seconds(env, setup_reps)
        zs, cli = load_package()

    rng = random.Random(f"{seed}:{workload}")
    wl = WORKLOADS[workload](zs, cli, scratch, env, ROOT)
    pool = wl.build_pool(rng)
    if pool_hook is not None:
        pool = pool_hook(pool)
    wl.run(pool[0])  # warm-up: lazy set-up and caches, outside the timed region

    info = {"workload": workload, "environment": environment(zs, seed, threads, nproc)}
    if trace:
        metrics, traced, untraced = traced_run(wl, pool, tracer, zs, cli, seconds, min_ops,
                                               random.Random(f"{seed}:probe"), scratch,
                                               probe_reps)
        metrics.update(imports)
        info["model_share_of_op_time"] = layers.model_share(tracer.spans)
        info["spans"] = len(tracer.spans)
        out = ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.json"
        tracer.dump(out)
        info["spans_file"] = str(out.relative_to(ROOT))
        attempted = len(traced.latency) + len(untraced.latency)
        failed = traced.failed + untraced.failed
        units = layers.PER_LAYER
    else:
        stats = measure(wl, pool, seconds, min_ops)
        metrics, sample_info = end_to_end(wl, stats, setup_s)
        info.update(sample_info)
        attempted, failed = len(stats.latency), stats.failed
        units = END_TO_END
    info["draws"] = wl.properties()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "cold-cli",
                                                              "time-domain", "cross-check"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zerosound" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no zerosound sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    out_dir = ROOT / ".perfbench_out"
    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name:52s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
