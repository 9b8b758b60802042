"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the root of a source checkout, that

- BENCHMARK.json names exactly the metrics run.py and layers.py emit,
  with the same units;
- a short untraced run emits every end-to-end metric with its unit, and
  a short traced run every per-layer metric with its unit;
- on every workload, an op whose expected output was deliberately
  corrupted is counted as failed (ok_frac = 1 - failed_frac drops), is
  not raised, and leaves the clean op beside it passing.

Exit code 0 when every check holds, 1 otherwise.
"""

import json
import math
import os
import shutil
import sys

import layers
import run as bench

# one way to corrupt each workload's expected output so that the op's check must fail
CORRUPT = {
    "sweep": lambda exp: exp.update(points=exp["points"] + 1),
    "cold-cli": lambda exp: exp.update(stdout=exp["stdout"] + b"0"),
    "time-domain": lambda exp: exp.update(S=exp["S"] + 2.0 * exp["bin_width"]),
    "cross-check": lambda exp: exp.update(S=exp["S"] + 1e-3),
}

QUICK = {"setup_reps": 1, "probe_reps": 1}


def main():
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared_e2e == bench.END_TO_END,
           f"BENCHMARK.json end_to_end {declared_e2e} != emitted {bench.END_TO_END}")
    expect(declared_layer == layers.PER_LAYER,
           f"BENCHMARK.json per_layer {declared_layer} != emitted {layers.PER_LAYER}")
    expect({w["name"] for w in spec["workloads"]} <= set(CORRUPT),
           "BENCHMARK.json names a workload the benchmark does not have")

    def emitted(result, declared, label):
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == declared, f"{label} run emitted {got}, declared {declared}")
        for name, m in result["metrics"].items():
            expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                   f"{label} metric {name} = {m['value']!r}")

    scratch = bench.ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for workload, corrupt in CORRUPT.items():
            def corrupt_first(pool, corrupt=corrupt):
                pool = pool[:2]
                corrupt(pool[0].expected)
                return pool
            ops = 2
            result, _ = bench.run(workload, 7, 0.0, False, scratch, min_ops=ops,
                                  pool_hook=corrupt_first, **QUICK)
            expect(result["attempted"] == ops and result["failed"] == ops // 2
                   and not result["correct"],
                   f"{workload}: corrupted ops not counted: {result}")
            expect(result["metrics"]["ok_frac"]["value"] == 0.5,
                   f"{workload}: ok_frac {result['metrics']['ok_frac']} with half the ops failed")
            if workload == "sweep":
                emitted(result, declared_e2e, "untraced")

        result, _ = bench.run("sweep", 7, 0.5, True, scratch, min_ops=2, **QUICK)
        expect(result["correct"] and result["failed"] == 0, f"traced run failed: {result}")
        emitted(result, declared_layer, "traced")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
