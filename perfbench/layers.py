"""Per-layer measurement: spans around calls into the package, import probes, probe calls.

Spans are recorded from the benchmark's side only.  The tracer replaces
each public function of `cli`, `dispersion`, `kinetic` and `model` (the
names in each module's `__all__`) with a wrapper, in every zerosound
module that holds a reference to it, so calls from one layer into
another are recorded too.  `_kernels` is private and is timed inside
`kinetic.evolve_initial_value`.  Spans stay in memory and are written
out once, at the end of the run.
"""

import functools
import inspect
import json
import math
import statistics
import subprocess
import sys
import time

from workloads import CrossCheck, TimeDomain, draw_scan, log_uniform, num, run_main, split_coupling

LAYERS = ("cli", "dispersion", "kinetic", "model")

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "tag")

PER_LAYER = {
    "import.interpreter_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.zerosound_own_s": "s",
    "import.modules_loaded": "count",
    "cli.process_overhead_ms": "ms",
    "cli.solve.ms": "ms",
    "cli.solve.self_ms": "ms",
    "cli.scan.ms": "ms",
    "cli.scan.self_ms": "ms",
    "cli.simulate.ms": "ms",
    "cli.simulate.self_ms": "ms",
    "cli.compare.ms": "ms",
    "cli.compare.self_ms": "ms",
    "cli.bytes_out": "bytes",
    "dispersion.solve_zero_sound.us": "us",
    "dispersion.solve_zero_sound.calls": "count",
    "dispersion.branch_scan.ms": "ms",
    "dispersion.landau_kernel.us": "us",
    "dispersion.asymptotic_frac": "frac",
    "kinetic.evolve_initial_value.n128.ms": "ms",
    "kinetic.evolve_initial_value.n128.node_steps_per_s": "1/s",
    "kinetic.evolve_initial_value.n400.ms": "ms",
    "kinetic.evolve_initial_value.n400.node_steps_per_s": "1/s",
    "kinetic.build_angular_grid.ms": "ms",
    "kinetic.discrete_collective_root.ms": "ms",
    "kinetic.spectral_peak.ms": "ms",
    "kinetic.peak_offset_bins_max": "bins",
    "trace.overhead_frac": "frac",
}


def _bound(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def _grid_tag(fn):
    return lambda args, kwargs, result: f"n{result.size}"


def _evolve_tag(fn):
    bind = _bound(fn)

    def tag(args, kwargs, result):
        a = bind(args, kwargs)
        return f"n{a['grid'].size}"
    return tag


def _main_tag(fn):
    bind = _bound(fn)

    def tag(args, kwargs, result):
        argv = bind(args, kwargs).get("argv")
        return argv[0] if argv else None
    return tag


# span tags: which subcommand, which grid size, which branch of the solver
TAGGERS = {
    "cli.main": _main_tag,
    "kinetic.build_angular_grid": _grid_tag,
    "kinetic.evolve_initial_value": _evolve_tag,
    "dispersion.solve_zero_sound": lambda fn: lambda args, kwargs, result: result.method.value,
}


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, op id, tag]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._swaps = []

    def _wrap(self, name, fn, tagger):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = "raised:" + getattr(exc, "label", type(exc).__name__)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if tagger is not None:
                rec[5] = tagger(args, kwargs, result)
            return result
        return traced

    def prepare(self, package_modules):
        """Build a wrapper for every public function of the traced layers."""
        for layer in LAYERS:
            module = package_modules[f"zerosound.{layer}"]
            for public in module.__all__:
                fn = getattr(module, public)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{public}"
                make_tag = TAGGERS.get(name)
                wrapper = self._wrap(name, fn, make_tag(fn) if make_tag else None)
                for holder in package_modules.values():
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._swaps.append((holder, attr, fn, wrapper))

    def install(self):
        for holder, attr, _, wrapper in self._swaps:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, fn, _ in self._swaps:
            setattr(holder, attr, fn)

    def span(self, name, op, fn, *args):
        """Record fn(*args) as a span of its own, outside the package's layers."""
        self.op = op
        return self._wrap(name, fn, None)(*args)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def _duration(rec):
    return (rec[2] - rec[1]) * 1e-9


def _median(values):
    return statistics.median(values) if values else math.nan


def layer_of(name):
    return name.split(".", 1)[0]


def span_metrics(spans, probe_ops):
    """Per-layer timings from all spans; exact counts from the fixed probe calls only."""
    children = {}
    for i, rec in enumerate(spans):
        children.setdefault(rec[3], []).append(i)

    def outside_cli(i):
        # time of the first non-cli spans below span i: the layer work cli.main called into
        total = 0.0
        for c in children.get(i, ()):
            rec = spans[c]
            total += outside_cli(c) if layer_of(rec[0]) == "cli" else _duration(rec)
        return total

    def durations(name, tag=None):
        return [_duration(r) for r in spans if r[0] == name and (tag is None or r[5] == tag)]

    m = {}
    for sub in ("solve", "scan", "simulate", "compare"):
        mains = [i for i, r in enumerate(spans) if r[0] == "cli.main" and r[5] == sub]
        m[f"cli.{sub}.ms"] = 1e3 * _median([_duration(spans[i]) for i in mains])
        m[f"cli.{sub}.self_ms"] = 1e3 * _median([_duration(spans[i]) - outside_cli(i)
                                                 for i in mains])
    solves = [r for r in spans if r[0] == "dispersion.solve_zero_sound"]
    m["dispersion.solve_zero_sound.us"] = 1e6 * _median([_duration(r) for r in solves])
    m["dispersion.solve_zero_sound.calls"] = sum(r[4] in probe_ops for r in solves)
    m["dispersion.branch_scan.ms"] = 1e3 * _median(durations("dispersion.branch_scan"))
    m["dispersion.landau_kernel.us"] = 1e6 * _median(durations("dispersion.landau_kernel"))
    m["dispersion.asymptotic_frac"] = (
        sum(r[5] == "asymptotic-zero-sound" for r in solves) / len(solves) if solves else math.nan
    )
    for n_mu, steps in ((128, TimeDomain.steps), (400, CrossCheck.steps)):
        ms = 1e3 * _median(durations("kinetic.evolve_initial_value", f"n{n_mu}"))
        m[f"kinetic.evolve_initial_value.n{n_mu}.ms"] = ms
        m[f"kinetic.evolve_initial_value.n{n_mu}.node_steps_per_s"] = n_mu * steps / (ms * 1e-3)
    m["kinetic.build_angular_grid.ms"] = 1e3 * _median(durations("kinetic.build_angular_grid",
                                                                 "n400"))
    m["kinetic.discrete_collective_root.ms"] = 1e3 * _median(
        durations("kinetic.discrete_collective_root"))
    m["kinetic.spectral_peak.ms"] = 1e3 * _median(durations("kinetic.spectral_peak"))
    return m


def model_share(spans):
    """Share of op time spent in the model layer (outermost model spans over op spans)."""
    ops = sum(_duration(r) for r in spans if r[3] == -1 and r[0].startswith("op"))
    model = sum(_duration(r) for r in spans
                if layer_of(r[0]) == "model" and (r[3] == -1 or layer_of(spans[r[3]][0]) != "model"))
    return model / ops if ops else math.nan


# --- import probes -----------------------------------------------------------------

_COUNT_MODULES = "import sys; n = len(sys.modules); import zerosound; print(len(sys.modules) - n)"


def run_child(argv, env, root):
    """Run a child process to completion; raises if it fails."""
    return subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                          timeout=120, check=True)


def parse_importtime(text, package="zerosound"):
    """(total, numpy, scipy) seconds of `import package` from -X importtime output.

    Lines come children first, nesting shown by indentation.  numpy and scipy
    are the cumulative times of their outermost entries under the package.
    """
    stack = []  # (depth, name, cumulative_us, children) not yet claimed by a parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name_field = line[len("import time:"):].split("|")
        name = name_field.strip()
        depth = len(name_field) - len(name_field.lstrip())
        kids = []
        while stack and stack[-1][0] > depth:
            kids.append(stack.pop())
        stack.append((depth, name, int(cum), kids))
    roots = [n for n in stack if n[1] == package]
    if not roots:
        raise ValueError(f"no top-level import of {package} in -X importtime output")
    root = roots[-1]
    totals = {"numpy": 0, "scipy": 0}

    def walk(node):
        top = node[1].split(".")[0]
        if top in totals:
            totals[top] += node[2]
            return
        for kid in node[3]:
            walk(kid)
    for kid in root[3]:
        walk(kid)
    return root[2] * 1e-6, totals["numpy"] * 1e-6, totals["scipy"] * 1e-6


def import_probes(env, root, reps):
    """Fresh-interpreter start-up and import costs, medians of reps runs."""
    interp = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], env, root)
        interp.append(time.perf_counter() - t0)
    rows = []
    for _ in range(reps):
        proc = run_child([sys.executable, "-X", "importtime", "-c", _COUNT_MODULES], env, root)
        total, numpy_s, scipy_s = parse_importtime(proc.stderr)
        rows.append((numpy_s, scipy_s, total - numpy_s - scipy_s, int(proc.stdout)))
    return {
        "import.interpreter_s": _median(interp),
        "import.numpy_s": _median([r[0] for r in rows]),
        "import.scipy_s": _median([r[1] for r in rows]),
        "import.zerosound_own_s": _median([r[2] for r in rows]),
        "import.modules_loaded": max(r[3] for r in rows),
    }


# --- fixed probe calls ---------------------------------------------------------------

class ProbeError(Exception):
    """A probe call failed or produced a wrong result."""


def probe_calls(tracer, zs, cli, rng, scratch, env, root, reps):
    """One traced call of each subcommand on drawn inputs, plus direct kernel calls.

    Returns the exact counts and the process overhead: fresh `python -m
    zerosound solve` wall time minus in-process cli.main time, same argv.
    """
    q0, k = split_coupling(rng, log_uniform(rng.random(), 1e-3, 1e3))
    solve_argv = ["solve", "--Q0", num(q0), "--k-lambda", num(k)]
    scan_argv, _, _ = draw_scan(rng, rng.random())
    scan_out = scratch / "probe-scan.json"
    scan_argv += ["--points", "50", "--format", "json", "--out", str(scan_out)]
    time_domain = TimeDomain(zs, cli, scratch, env, root)
    td = time_domain.draw(rng, rng.random(), 0)
    cross_check = CrossCheck(zs, cli, scratch, env, root)
    # a coupling where the time-domain line is resolved, so both oracles report
    cc = cross_check.draw(rng, rng.random(), 0, lo=1.0, hi=100.0)

    tracer.install()
    try:
        outcomes = {}
        for argv in (solve_argv, scan_argv, td.argv, cc.argv):
            outcomes[argv[0]] = tracer.span("op.probe", f"probe:{argv[0]}", run_main, cli, argv)
        with open(scan_out, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        roots = [(p["A"], p["S"], p["S_minus_1"]) for p in points]
        roots.append((cc.a_lo, cc.expected["S"], cc.expected["S_minus_1"]))
        for a, s, excess in roots:
            if s > 1.0:
                value = tracer.span("op.probe", "probe:kernel", zs.landau_kernel, s)
                # S carries S - 1 to ~1e-16 absolute; F' ~ 1/(2 (S - 1)) amplifies that
                if excess >= 1e-3 and abs(a * value - 1.0) > 1e-6:
                    raise ProbeError(f"A F(S) = {a * value!r} at the root S = {s!r}")
    finally:
        tracer.uninstall()

    for sub, outcome in outcomes.items():
        if outcome.rc != 0:
            raise ProbeError(f"probe {sub} exited {outcome.rc}: {outcome.stderr.strip()}")
    time_domain.check(td, outcomes["simulate"])
    cross_check.check(cc, outcomes["compare"])

    summary = json.loads(outcomes["simulate"].stdout)
    offsets = [summary["deviation"] / summary["bin_width"]]
    rows = {r["method"]: r for r in json.loads(outcomes["compare"].stdout)["rows"]}
    offsets.append(abs(rows["time-domain"]["S"] - cc.expected["S"]) / cc.expected["bin_width"])
    bytes_out = sum(len(o.stdout.encode("utf-8")) for o in outcomes.values())
    bytes_out += scan_out.stat().st_size + td.expected["out"].stat().st_size

    fresh, inproc = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_child([sys.executable, "-m", "zerosound", *solve_argv], env, root)
        fresh.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_main(cli, solve_argv)
        inproc.append(time.perf_counter() - t0)
    return {
        "cli.process_overhead_ms": 1e3 * (_median(fresh) - _median(inproc)),
        "cli.bytes_out": bytes_out,
        "kinetic.peak_offset_bins_max": max(offsets),
    }
