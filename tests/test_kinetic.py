"""Discrete-grid oracles: secular root, time evolution, peak extraction."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import run_python
from hypothesis import given, settings, strategies as st

import zerosound
from zerosound import (
    MAX_GRID_SIZE,
    MAX_STEPS,
    AngularState,
    InvalidArgumentError,
    NoCollectivePeakError,
    NoUndampedRootError,
    NumericalBlowupError,
    TimeSeries,
    build_angular_grid,
    discrete_collective_root,
    evolve_initial_value,
    landau_kernel,
    secular_sum,
    solve_zero_sound,
    spectral_peak,
    stability_bound,
)
from zerosound.kinetic import _block_size


def _reference_rule(n, digits=40):
    """Gauss-Legendre nodes (ascending) and weights as Decimals.

    Newton on the three-term recurrence in `digits`-digit arithmetic,
    from the float cosine guess, until the step is below 10^-(digits+2).
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        tol = Decimal(10) ** -(digits + 2)
        half = []
        for i in range(1, (n + 1) // 2 + 1):
            x = Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5))) if 2 * i != n + 1 else Decimal(0)
            while True:
                p0, p1 = Decimal(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (p0 - x * p1) / (1 - x * x)
                step = p1 / dp
                x -= step
                if abs(step) < tol:
                    break
            half.append((x, 2 / ((1 - x * x) * dp * dp)))
        lower = [(-x, w) for x, w in half[: n // 2]]
        rule = lower + half[::-1]
        return [x for x, _ in rule], [w for _, w in rule]


def _four_stage_rk4_trace(y, mu, half_w, a, dt, steps):
    """Classical RK4 written out stage by stage: the reference for the evolver."""
    imu = -1j * mu
    sixth = dt / 6.0
    trace = np.empty(steps + 1, dtype=np.complex128)
    trace[0] = half_w @ y
    for step in range(steps):
        k1 = imu * (y + a * (half_w @ y))
        t1 = y + (0.5 * dt) * k1
        k2 = imu * (t1 + a * (half_w @ t1))
        t2 = y + (0.5 * dt) * k2
        k3 = imu * (t2 + a * (half_w @ t2))
        t3 = y + dt * k3
        k4 = imu * (t3 + a * (half_w @ t3))
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace[step + 1] = half_w @ y
    return trace


class TestAngularGrid:
    def test_measure_normalization(self):
        g = build_angular_grid(4)
        assert abs(float(np.sum(g.weights)) - 2.0) <= 1e-13

    def test_second_moment(self):
        g = build_angular_grid(16)
        assert abs(float(np.sum(g.weights * g.nodes**2)) - 2.0 / 3.0) <= 1e-14

    def test_odd_moment_vanishes(self):
        g = build_angular_grid(64)
        assert abs(float(np.sum(g.weights * g.nodes))) <= 1e-14

    def test_nodes_interior_and_increasing(self):
        g = build_angular_grid(32)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > -1.0 and g.nodes[-1] < 1.0
        assert g.size == 32

    def test_too_small_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_angular_grid(3)

    def test_size_ceiling(self):
        # rejected before any array is built
        for size in (MAX_GRID_SIZE + 1, 2**62):
            with pytest.raises(InvalidArgumentError, match="grid size"):
                build_angular_grid(size)

    def test_size_must_be_an_integer(self):
        for size in (4.5, 400.0, "8", None):
            with pytest.raises(InvalidArgumentError, match="grid size must be an integer"):
                build_angular_grid(size)
        # numpy integers are integers
        g = build_angular_grid(np.int64(8))
        assert g.size == 8 and np.array_equal(g.nodes, build_angular_grid(8).nodes)

    @pytest.mark.parametrize("n", [8, 33, 64, 128, 400])
    def test_matches_a_40_digit_reference(self, n):
        g = build_angular_grid(n)
        ref_nodes, ref_weights = _reference_rule(n)
        for x, ref in zip(g.nodes, ref_nodes):
            ulp = Decimal(math.ulp(float(ref))) if ref != 0 else Decimal(0)
            assert abs(Decimal(float(x)) - ref) <= 2 * ulp, (n, float(ref))
        for w, ref in zip(g.weights, ref_weights):
            assert abs(Decimal(float(w)) - ref) <= Decimal(2e-16), (n, float(ref))
        assert np.array_equal(g.nodes, -g.nodes[::-1])
        assert np.array_equal(g.weights, g.weights[::-1])
        if n % 2:
            middle = g.nodes[n // 2]
            assert middle == 0.0 and math.copysign(1.0, middle) == 1.0


class TestSecularSum:
    def test_converges_to_the_continuum_kernel(self):
        S = 1.5
        target = landau_kernel(S)
        errors = [abs(secular_sum(S, build_angular_grid(n)) - target) for n in (8, 16, 32, 64)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-12

    def test_stays_at_the_rounding_floor_out_to_400_nodes(self):
        # the quadrature error is below 1e-26 for N >= 32, so what is left is
        # rounding: landau_kernel(1.5) alone is 3.5 ulp from the true F, and
        # the sum of N terms adds a few more; 16 ulp of F(1.5) is 4.4e-16
        S = 1.5
        target = landau_kernel(S)
        for n in (32, 64, 128, 400):
            assert abs(secular_sum(S, build_angular_grid(n)) - target) <= 16 * math.ulp(target)
        # at the A = 1 root, where the top weights carry the sum, the default
        # matrix-oracle grid reaches the same absolute floor
        S = 1.0443820337608335
        assert abs(secular_sum(S, build_angular_grid(400)) - landau_kernel(S)) <= 4.4e-16

    def test_large_S_agreement(self):
        g = build_angular_grid(64)
        for S in (2.0, 5.0, 20.0):
            assert secular_sum(S, g) == pytest.approx(landau_kernel(S), rel=1e-12)


class TestDiscreteCollectiveRoot:
    def test_matches_analytic_root(self):
        g = build_angular_grid(400)
        assert abs(discrete_collective_root(1.0, g) - 1.0443820337608335) <= 1e-4

    def test_strong_coupling_coarse_grid(self):
        g = build_angular_grid(100)
        assert abs(discrete_collective_root(300.0, g) - 10.029989287382086) <= 1e-3

    def test_agrees_with_eigenvalue_route(self):
        # the secular root is the unique eigenvalue of the rank-one-updated
        # advection operator lying above the node band
        n, a = 24, 1.7
        g = build_angular_grid(n)
        M = np.diag(g.nodes) + 0.5 * a * np.outer(g.nodes, g.weights)
        eig = np.linalg.eigvals(M)
        assert np.max(np.abs(eig.imag)) < 1e-10
        above = np.sort(eig.real[eig.real > float(g.nodes[-1]) + 1e-10])
        assert above.shape[0] == 1
        assert discrete_collective_root(a, g) == pytest.approx(float(above[0]), abs=1e-10)

    @pytest.mark.parametrize("a", [0.5, 3.0, 40.0])
    def test_exactly_one_eigenvalue_above_band(self, a):
        g = build_angular_grid(12)
        M = np.diag(g.nodes) + 0.5 * a * np.outer(g.nodes, g.weights)
        eig = np.linalg.eigvals(M)
        count = int(np.sum(eig.real > float(g.nodes[-1]) + 1e-12))
        assert count == 1

    @pytest.mark.parametrize("n", [8, 12, 64, 400])
    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 3.0, 40.0, 300.0, 1000.0])
    def test_matches_a_reference_bracketing_solver(self, n, a):
        from scipy.optimize import brentq

        g = build_angular_grid(n)
        mu_max = float(g.nodes[-1])
        hi = max(10.0, 2.0 * math.sqrt(a / 3.0) + 2.0)
        ref = brentq(
            lambda S: a * secular_sum(S, g) - 1.0,
            mu_max + 1e-12, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200,
        )
        assert discrete_collective_root(a, g) == pytest.approx(ref, rel=2e-15, abs=0.0)

    def test_nonpositive_coupling_rejected(self):
        g = build_angular_grid(8)
        with pytest.raises(NoUndampedRootError):
            discrete_collective_root(0.0, g)


class TestEvolve:
    def test_zero_state_stays_zero(self):
        g = build_angular_grid(16)
        state = AngularState(np.zeros(16, dtype=np.complex128))
        out = evolve_initial_value(1.0, g, state, 0.02, 50)
        assert np.all(out.samples == 0.0)

    def test_trace_length_and_initial_sample(self):
        g = build_angular_grid(32)
        state = AngularState(np.ones(32, dtype=np.complex128))
        out = evolve_initial_value(2.0, g, state, 0.01, 100)
        assert out.samples.shape == (101,)
        assert out.dt == 0.01
        assert out.samples[0] == pytest.approx(1.0, abs=1e-14)
        assert out.times[3] == pytest.approx(0.03, rel=1e-15)

    def test_bounded_oscillation(self):
        # purely real discrete spectrum: no secular growth, only drift
        g = build_angular_grid(64)
        state = AngularState(np.ones(64, dtype=np.complex128))
        out = evolve_initial_value(1.0, g, state, 0.02, 16384)
        total_time = 0.02 * 16384
        assert float(np.max(np.abs(out.samples))) <= 1.0 + 1e-6 * total_time

    @pytest.mark.parametrize("a", [-0.5, -0.97, -0.999])
    def test_bounded_oscillation_at_negative_coupling(self, a):
        # for A < 0 the node band still reaches |lambda| ~ 1, so the bound
        # stays at its A = 0 value instead of growing as 0.1 / (1 + A)
        g = build_angular_grid(64)
        state = AngularState(np.ones(64, dtype=np.complex128))
        dt = stability_bound(a)
        out = evolve_initial_value(a, g, state, dt, 4096)
        assert float(np.max(np.abs(out.samples))) <= 1.0 + 1e-6 * dt * 4096

    def test_linearity(self):
        g = build_angular_grid(24)
        base = np.ones(24, dtype=np.complex128)
        c = 0.3 - 1.7j
        out1 = evolve_initial_value(3.0, g, AngularState(base), 0.02, 200)
        out2 = evolve_initial_value(3.0, g, AngularState(c * base), 0.02, 200)
        assert np.allclose(out2.samples, c * out1.samples, rtol=1e-12, atol=1e-14)

    def test_determinism(self):
        g = build_angular_grid(24)
        state = AngularState(np.ones(24, dtype=np.complex128))
        a = evolve_initial_value(1.3, g, state, 0.03, 300).samples
        b = evolve_initial_value(1.3, g, state, 0.03, 300).samples
        assert np.array_equal(a, b)

    def test_stability_bound_enforced(self):
        g = build_angular_grid(8)
        state = AngularState(np.ones(8, dtype=np.complex128))
        bound = stability_bound(1.0)
        assert bound == 0.05
        evolve_initial_value(1.0, g, state, bound, 2)  # boundary value accepted
        with pytest.raises(InvalidArgumentError, match="stability"):
            evolve_initial_value(1.0, g, state, math.nextafter(bound, 1.0), 2)

    def test_stability_bound_needs_coupling_above_minus_one(self):
        # -1 < A < 0 takes the A = 0 bound; from A = -1 down it is rejected
        for a in (-1.0, -2.0):
            with pytest.raises(InvalidArgumentError, match=r"A > -1.*A = " + repr(a)):
                stability_bound(a)
        g = build_angular_grid(8)
        state = AngularState(np.ones(8, dtype=np.complex128))
        with pytest.raises(InvalidArgumentError, match=r"A > -1"):
            evolve_initial_value(-1.0, g, state, 0.02, 10)
        closest = math.nextafter(-1.0, 0.0)
        assert stability_bound(closest) == 0.1

    def test_steps_must_be_an_integer(self):
        g = build_angular_grid(8)
        state = AngularState(np.ones(8, dtype=np.complex128))
        for steps in (100.5, 100.0):
            with pytest.raises(InvalidArgumentError, match="steps must be an integer"):
                evolve_initial_value(1.0, g, state, 0.02, steps)
        out = evolve_initial_value(1.0, g, state, 0.02, np.int64(100)).samples
        assert np.array_equal(out, evolve_initial_value(1.0, g, state, 0.02, 100).samples)

    def test_argument_validation(self):
        g = build_angular_grid(8)
        state = AngularState(np.ones(8, dtype=np.complex128))
        with pytest.raises(InvalidArgumentError):
            evolve_initial_value(1.0, g, state, 0.02, 1)
        with pytest.raises(InvalidArgumentError):
            evolve_initial_value(1.0, g, state, -0.02, 10)
        with pytest.raises(InvalidArgumentError):
            evolve_initial_value(1.0, g, AngularState(np.ones(4, dtype=np.complex128)), 0.02, 10)

    def test_state_validation(self):
        with pytest.raises(InvalidArgumentError):
            AngularState(np.array([1.0, math.nan]))
        with pytest.raises(InvalidArgumentError):
            AngularState(np.ones((2, 2)))

    def test_steps_ceiling(self):
        assert MAX_STEPS >= 2**23
        g = build_angular_grid(8)
        state = AngularState(np.ones(8, dtype=np.complex128))
        # rejected before the trace is allocated
        for steps in (MAX_STEPS + 1, 2**62):
            with pytest.raises(InvalidArgumentError, match="steps"):
                evolve_initial_value(1.0, g, state, 0.02, steps)

    def test_overflow_is_reported_as_blowup(self):
        g = build_angular_grid(8)
        state = AngularState(np.full(8, 1e308, dtype=np.complex128))
        unit = AngularState(np.ones(8, dtype=np.complex128))
        out = evolve_initial_value(1.0, g, state, 0.05, 2).samples
        ref = evolve_initial_value(1.0, g, unit, 0.05, 2).samples
        assert float(np.max(np.abs(out / 1e308 - ref))) <= 1e-15
        # the run is at unit scale, so a long one stays 1e308 times the unit trace
        out = evolve_initial_value(1.0, g, state, 0.05, 4096).samples
        ref = evolve_initial_value(1.0, g, unit, 0.05, 4096).samples
        assert float(np.max(np.abs(out / 1e308 - ref))) <= 1e-14
        # finite parts, but a trace whose modulus leaves the float range
        state = AngularState(np.full(8, 1.5e308 + 1.5e308j))
        with pytest.raises(NumericalBlowupError, match="trace modulus .* exceeds the float range"):
            evolve_initial_value(1.0, g, state, 0.05, 4096)
        # above A ~ 1e115 the powers of L overflow in the step's factors
        g = build_angular_grid(32)
        unit = AngularState(np.ones(32, dtype=np.complex128))
        with pytest.raises(NumericalBlowupError, match="factors are not finite"):
            evolve_initial_value(1e120, g, unit, stability_bound(1e120), 64)

    @pytest.mark.parametrize("k", [-1060, -1000, -600, -1, 600, 1000])
    def test_power_of_two_scales_the_trace_exactly(self, k):
        # at k = -1060 the state is subnormal, and its trace is still the
        # unit trace rounded once
        g = build_angular_grid(32)
        ones = np.ones(32, dtype=np.complex128)
        ref = evolve_initial_value(1.0, g, AngularState(ones), 0.05, 2048).samples
        out = evolve_initial_value(1.0, g, AngularState(2.0**k * ones), 0.05, 2048).samples
        expected = np.ldexp(ref.view(np.float64), k).view(np.complex128)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [33, 128, 400])  # 33: the odd grid's mu = 0 node
    @pytest.mark.parametrize("a", [0.05, 1.0, 100.0])
    def test_matches_classical_four_stage_rk4(self, n, a):
        g = build_angular_grid(n)
        rng = np.random.default_rng(n)
        y0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dt = stability_bound(a)
        out = evolve_initial_value(a, g, AngularState(y0), dt, 2048)
        ref = _four_stage_rk4_trace(y0, g.nodes, 0.5 * g.weights, a, dt, 2048)
        assert float(np.max(np.abs(out.samples - ref))) <= 1e-12


# couplings over eleven decades and zero; amplitudes of either sign from
# 1e-300 to the top of the float range, and zero
COUPLINGS = st.one_of(st.just(0.0), st.floats(-6.0, 5.0).map(lambda e: 10.0**e))
AMPLITUDES = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e,
              st.sampled_from((1.0, -1.0)), st.floats(-300.0, 308.25)),
)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(4, 64), a=COUPLINGS, dt_fraction=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
       amplitude=AMPLITUDES, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_evolution_matches_the_four_stage_loop_or_raises(n, a, dt_fraction, amplitude, seed, data):
    b = _block_size(n)
    steps = data.draw(st.one_of(
        st.integers(2, 600),
        # traces of k B - 1, k B and k B + 1 samples: a last block one short,
        # exactly full, or holding a single sample
        st.builds(lambda k, r: k * b + r, st.integers(1, 9), st.sampled_from((-2, -1, 0))),
    ), label="steps")
    g = build_angular_grid(n)
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dt = dt_fraction * stability_bound(a)
    try:
        with np.errstate(over="ignore"):
            state = AngularState(amplitude * unit)
        out = evolve_initial_value(a, g, state, dt, steps).samples
    except (InvalidArgumentError, NumericalBlowupError):
        # only a state at the edge of the float range ends this way
        assert abs(amplitude) > 1e300
        return
    assert out.shape == (steps + 1,)
    # the reference runs on the unit state, scaled by linearity, so that it
    # cannot overflow where the evolver does not
    ref = _four_stage_rk4_trace(unit, g.nodes, 0.5 * g.weights, a, dt, steps)
    if amplitude == 0.0:
        assert np.all(out == 0.0)
    else:
        assert float(np.max(np.abs(out / amplitude - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


def _imported_modules(stderr):
    # module names from `python -X importtime` lines: "import time: self | cumulative | name"
    return {
        line.rpartition("|")[2].strip()
        for line in stderr.splitlines()
        if line.startswith("import time:")
    }


class TestRuntimeDependencies:
    def test_import_loads_no_numpy(self):
        probe = (
            "import sys, zerosound; "
            "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules), zerosound.BACKEND, "
            "'numpy' in sys.modules)"
        )
        proc = run_python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "numpy", "False"]
        assert zerosound.BACKEND == "numpy"

    @pytest.mark.parametrize("argv, numpy_loaded", [
        (["solve", "--Q0", "1"], False),
        (["scan", "--Q0", "1", "--k-min", "0.1", "--k-max", "1", "--points", "3"], False),
        (["--help"], False),
        (["simulate", "--Q0", "3", "--n-mu", "16", "--steps", "1024", "--out", "{out}"], True),
        (["compare", "--Q0", "3", "--n-mu", "16", "--steps", "1024"], True),
    ])
    def test_only_the_kinetic_commands_load_numpy(self, argv, numpy_loaded, tmp_path):
        argv = [arg.format(out=tmp_path / "trace.csv") for arg in argv]
        proc = run_python("-X", "importtime", "-m", "zerosound", *argv)
        assert proc.returncode == 0, proc.stderr
        assert ("numpy" in _imported_modules(proc.stderr)) is numpy_loaded


def _tone(omega, n, dt):
    t = dt * np.arange(n)
    return TimeSeries(dt=dt, samples=np.exp(-1j * omega * t))


class TestSpectralPeak:
    def test_synthetic_tone_recovered(self):
        series = _tone(1.5, 4096, 0.05)
        for window in ("hann", "none"):
            peak = spectral_peak(series, window=window)
            assert abs(peak.frequency - 1.5) <= peak.bin_width
            assert peak.bin_width == pytest.approx(2.0 * math.pi / (4096 * 0.05), rel=1e-15)

    def test_interpolation_beats_the_grid(self):
        peak = spectral_peak(_tone(1.5, 4096, 0.05))
        assert abs(peak.frequency - 1.5) <= 0.05 * peak.bin_width

    def test_evolution_output_matches_analytic_root(self):
        g = build_angular_grid(64)
        state = AngularState(np.ones(64, dtype=np.complex128))
        series = evolve_initial_value(1.0, g, state, 0.05, 4096)
        peak = spectral_peak(series)
        assert abs(peak.frequency - solve_zero_sound(1.0).S) <= peak.bin_width

    def test_constant_series_has_no_peak(self):
        series = TimeSeries(dt=0.05, samples=np.ones(4096, dtype=np.complex128))
        for window in ("hann", "none"):
            with pytest.raises(NoCollectivePeakError):
                spectral_peak(series, window=window)

    def test_short_constant_series_has_no_peak(self):
        # at 64 samples the spectral skirt of the zero-frequency line
        # reaches into the search band; the edge-maximum test rejects it
        series = TimeSeries(dt=0.05, samples=np.ones(64, dtype=np.complex128))
        with pytest.raises(NoCollectivePeakError):
            spectral_peak(series)

    def test_tone_inside_the_continuum_band_is_rejected(self):
        with pytest.raises(NoCollectivePeakError):
            spectral_peak(_tone(0.5, 4096, 0.05))

    def test_zero_series_rejected(self):
        series = TimeSeries(dt=0.05, samples=np.zeros(4096, dtype=np.complex128))
        with pytest.raises(NoCollectivePeakError):
            spectral_peak(series)

    def test_noise_floor_message_prints_a_plain_float(self):
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        with pytest.raises(NoCollectivePeakError, match="noise floor") as exc:
            spectral_peak(TimeSeries(dt=0.05, samples=noise))
        assert "np.float64" not in str(exc.value)

    def test_overflowing_spectrum_is_a_blowup(self):
        # the transform runs at unit scale, so a 1e306 tone keeps its line
        tone = _tone(1.5, 4096, 0.05)
        scaled = spectral_peak(TimeSeries(dt=tone.dt, samples=1e306 * tone.samples))
        assert scaled.frequency == pytest.approx(spectral_peak(tone).frequency, rel=0.0, abs=1e-12)
        # a 1e308 tone is finite, but its peak amplitude is not
        with pytest.raises(NumericalBlowupError, match="peak amplitude .* initial amplitude"):
            spectral_peak(TimeSeries(dt=tone.dt, samples=1e308 * tone.samples))

    def test_power_of_two_leaves_the_frequency_unchanged(self):
        tone = _tone(1.5, 4096, 0.05)
        small = spectral_peak(TimeSeries(dt=tone.dt, samples=2.0**-500 * tone.samples))
        large = spectral_peak(TimeSeries(dt=tone.dt, samples=2.0**500 * tone.samples))
        assert small.frequency == large.frequency
        assert large.amplitude == 2.0**1000 * small.amplitude

    def test_series_validation(self):
        samples = _tone(1.5, 4096, 0.05).samples
        for dt in (0.0, -0.05, math.inf, math.nan):
            with pytest.raises(InvalidArgumentError, match="dt must be"):
                TimeSeries(dt=dt, samples=samples)
        with pytest.raises(InvalidArgumentError, match="one-dimensional"):
            TimeSeries(dt=0.05, samples=np.ones((16, 16)))
        with pytest.raises(InvalidArgumentError, match="samples must be finite"):
            TimeSeries(dt=0.05, samples=np.where(np.arange(4096) == 7, math.nan, samples))

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            spectral_peak(_tone(1.5, 63, 0.05))
        with pytest.raises(InvalidArgumentError):
            spectral_peak(_tone(1.5, 4096, 0.05), window="flat-top")
