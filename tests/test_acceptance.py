"""Acceptance gate: one test per published correctness criterion.

Each test prints a single machine-greppable verdict line (visible with
``pytest -s``) before asserting, so a red run still reports every
criterion it reached.  Tolerances are fixed here and must not be loosened
to make a failing build pass.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from zerosound import (
    AngularState,
    DispersionPoint,
    FermiParameters,
    GridSpec,
    InteractionModel,
    Method,
    asymptotic_zero_sound,
    branch_scan,
    build_angular_grid,
    coupling_strength,
    discrete_collective_root,
    evolve_initial_value,
    high_frequency_branch,
    landau_kernel,
    solve_zero_sound,
    spectral_peak,
    stability_bound,
)


def _verdict(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_kernel_matches_angular_quadrature():
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    worst = 0.0
    for S in 1.001 + (100.0 - 1.001) * rng.random(100):
        direct, _ = quad(
            lambda th: 0.5 * math.sin(th) * math.cos(th) / (S - math.cos(th)),
            0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        worst = max(worst, abs(landau_kernel(float(S)) - direct))
    elapsed = time.perf_counter() - t0
    _verdict(
        1, worst <= 1e-10 and elapsed < 5.0,
        f"closed form vs adaptive quadrature, 100 points: max |diff| = {worst:.3e} "
        f"(tol 1e-10), {elapsed:.2f} s (limit 5 s)",
    )


def test_criterion_2_root_existence_uniqueness_monotonicity():
    rng = np.random.default_rng(7)
    couplings = np.sort(10.0 ** rng.uniform(-3.0, 3.0, 1000))
    t0 = time.perf_counter()
    points = [solve_zero_sound(float(a)) for a in couplings]
    elapsed = time.perf_counter() - t0
    all_above = all(p.above_continuum for p in points)
    worst_residual = max(
        abs(p.residual) for p in points if p.method is Method.EXACT
    )
    logs = [p.log_excess for p in points]
    monotone = all(b > a for a, b in zip(logs, logs[1:]))
    _verdict(
        2, all_above and worst_residual <= 1e-12 and monotone and elapsed < 10.0,
        f"1000 log-uniform couplings: all roots above continuum = {all_above}, "
        f"max exact-path |residual| = {worst_residual:.3e} (tol 1e-12), "
        f"monotone in A = {monotone}, {elapsed:.2f} s (limit 10 s)",
    )


def test_criterion_3_weak_coupling_asymptotics():
    deviations = {}
    for a in (0.06, 0.1, 0.2, 0.3):
        exact = solve_zero_sound(a)
        assert exact.method is Method.EXACT
        asym = asymptotic_zero_sound(a)
        deviations[a] = abs(asym.S_minus_1 - exact.S_minus_1) / exact.S_minus_1
    ordered = [deviations[a] for a in (0.06, 0.1, 0.2, 0.3)]
    within = max(ordered) <= 0.05
    shrinking = all(b > a for a, b in zip(ordered, ordered[1:]))
    detail = ", ".join(f"A={a}: {deviations[a]:.3e}" for a in (0.06, 0.1, 0.2, 0.3))
    _verdict(
        3, within and shrinking,
        f"relative excess deviation {detail}; max <= 5% = {within}, "
        f"decreasing toward small A = {shrinking}",
    )


def test_criterion_4_ideal_gas_quantum_mode():
    rng = np.random.default_rng(41)
    ks = np.concatenate([[1e-3, 0.05, 0.2828, 0.2829, 0.5, 1.0], rng.uniform(1e-3, 1.0, 64)])
    gas = InteractionModel(0.0)
    exact_seen = asymptotic_seen = 0
    closed_form_exact = True
    for k in ks:
        k = float(k)
        point = solve_zero_sound(coupling_strength(gas, k))
        assert point.above_continuum
        if point.method is Method.ASYMPTOTIC_ZERO_SOUND:
            asymptotic_seen += 1
            expected = 2.0 * math.exp(-2.0 - 2.0 / (0.75 * k * k))
            if point.S_minus_1 != expected or point.S != 1.0 + expected:
                closed_form_exact = False
        else:
            exact_seen += 1
    _verdict(
        4, closed_form_exact and asymptotic_seen > 0 and exact_seen > 0,
        f"quantum-only mode exists for all {len(ks)} wavenumbers in (0, 1]; "
        f"{asymptotic_seen} asymptotic-path points equal the closed form bit-for-bit "
        f"(both regimes sampled: {asymptotic_seen > 0 and exact_seen > 0})",
    )


def test_criterion_5_strong_coupling_branch():
    results = {}
    for a in (100.0, 300.0, 1000.0):
        S = solve_zero_sound(a).S
        deviation = S * S / (a / 3.0) - 1.0
        results[a] = (deviation, deviation / (9.0 / (5.0 * a)))
    small = all(abs(dev) <= 0.03 for dev, _ in results.values())
    matched = all(0.5 <= ratio <= 2.0 for _, ratio in results.values())
    detail = ", ".join(
        f"A={a:g}: S^2/(A/3)-1 = {dev:.3e}, vs next term x{ratio:.3f}"
        for a, (dev, ratio) in results.items()
    )
    _verdict(5, small and matched, f"{detail}; |dev| <= 3% = {small}, within 2x of 9/(5A) = {matched}")


def test_criterion_6_matrix_oracle_equivalence():
    grid = build_angular_grid(400)
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0.5, 1.0, 3.0, 10.0, 100.0):
        worst = max(worst, abs(discrete_collective_root(a, grid) - solve_zero_sound(a).S))
    elapsed = time.perf_counter() - t0
    _verdict(
        6, worst <= 1e-4 and elapsed < 10.0,
        f"secular root (N=400) vs analytic root over five couplings: "
        f"max |diff| = {worst:.3e} (tol 1e-4), {elapsed:.2f} s (limit 10 s)",
    )


def test_criterion_7_time_domain_equivalence():
    grid = build_angular_grid(128)
    state = AngularState(np.ones(128, dtype=np.complex128))
    worst_ratio = 0.0
    slowest = 0.0
    for a in (0.5, 1.0, 3.0, 10.0):
        dt = stability_bound(a)
        t0 = time.perf_counter()
        series = evolve_initial_value(a, grid, state, dt, 16384)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        peak = spectral_peak(series)
        ratio = abs(peak.frequency - solve_zero_sound(a).S) / peak.bin_width
        worst_ratio = max(worst_ratio, ratio)
    _verdict(
        7, worst_ratio <= 1.0 and slowest < 60.0,
        f"spectral peak vs analytic root, four couplings at N=128, 16384 steps: "
        f"max |diff| = {worst_ratio:.4f} bins (tol 1 bin), slowest evolution "
        f"{slowest:.2f} s (limit 60 s)",
    )


def test_criterion_8_dimensionless_invariance():
    # same dimensionless inputs, two different unit systems
    unit_sets = (
        FermiParameters(),
        FermiParameters(m=2.0, m_star=2.0, p_F=0.5, n0=7.0, hbar=3.0),
    )
    Q0, k = 1.3, 0.6
    model = InteractionModel(Q0)
    identical = True
    for params in unit_sets[1:]:
        ref = unit_sets[0]
        pairs = [
            (solve_zero_sound(coupling_strength(model, k)).S,
             solve_zero_sound(coupling_strength(model, k)).S),
            (asymptotic_zero_sound(coupling_strength(model, k)).S,
             asymptotic_zero_sound(coupling_strength(model, k)).S),
            (high_frequency_branch(Q0, k, "effective", ref).S,
             high_frequency_branch(Q0, k, "effective", params).S),
            (high_frequency_branch(Q0, k, "bare", ref).S,
             high_frequency_branch(Q0, k, "bare", params).S),
        ]
        scan_ref = branch_scan(model, GridSpec(0.1, 1.0, 7), params=ref)
        scan_new = branch_scan(model, GridSpec(0.1, 1.0, 7), params=params)
        pairs.extend((a.S, b.S) for a, b in zip(scan_ref.points, scan_new.points))
        pairs.extend(
            (a.S_minus_1, b.S_minus_1) for a, b in zip(scan_ref.points, scan_new.points)
        )
        identical = identical and all(x == y for x, y in pairs)
    omega_differs = (
        branch_scan(model, GridSpec(0.1, 1.0, 7), params=unit_sets[0]).points[0].omega
        != branch_scan(model, GridSpec(0.1, 1.0, 7), params=unit_sets[1]).points[0].omega
    )
    _verdict(
        8, identical and omega_differs,
        f"S bit-identical across unit systems on every branch and scan = {identical}; "
        f"unit-carrying omega differs as it must = {omega_differs}",
    )


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "zerosound", *args],
        capture_output=True, text=True, env=env,
    )


def test_criterion_9_cli_determinism_and_schema(tmp_path):
    args = ("scan", "--Q0", "0.3", "--k-min", "0.02", "--k-max", "1.8",
            "--points", "25", "--log")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _cli(*args, "--out", str(first)).returncode == 0
    assert _cli(*args, "--out", str(second)).returncode == 0
    same_bytes = first.read_bytes() == second.read_bytes()
    header_ok = first.read_text().splitlines()[0] == (
        "k_lambda_d,Q0,A,S,S_minus_1,omega_over_k_vF,method,residual"
    )

    proc = _cli("solve", "--Q0", "2.5", "--k-lambda", "0.4")
    recovered = DispersionPoint.from_json_dict(json.loads(proc.stdout))
    direct = solve_zero_sound(coupling_strength(InteractionModel(2.5), 0.4))
    lossless = recovered == direct
    _verdict(
        9, same_bytes and header_ok and lossless,
        f"repeated scans byte-identical = {same_bytes}, documented header = {header_ok}, "
        f"JSON round-trip lossless = {lossless}",
    )
