"""Discrete-grid oracles: secular root, time evolution, peak extraction."""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from conftest import run_python
from hypothesis import assume, example, given, settings, strategies as st

import zerosound
from zerosound import (
    MAX_GRID_SIZE,
    MAX_STEPS,
    AngularState,
    ConvergenceError,
    DomainError,
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
from zerosound.kinetic import _aligned_empty, _block_size, _padded_length


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
        # each stage is scaled by its weight before the sum: the k are of
        # size A, and at A near the float range their plain sum overflows
        y = y + (sixth * k1 + (2.0 * sixth) * k2 + (2.0 * sixth) * k3 + sixth * k4)
        trace[step + 1] = half_w @ y
    return trace


# the bounds build_angular_grid states on |sum w - 2| and |sum w mu^2 - 2/3|
# below 40 nodes, each from the size given on to the next
_SMALL_GRID_BOUNDS = [(4, 1.3, 0.7), (8, 1.4e-2, 0.16), (16, 2.4e-7, 5.3e-5),
                      (24, 2e-12, 2.5e-9), (32, 1e-15, 5.5e-14)]


def _stated_bounds(grid):
    if grid.size >= 40:  # the measure the top gaps leave out, plus rounding
        bound = 2.0 * (1.0 - float(grid.nodes[-1])) + 1e-15
        return bound, bound
    return next((first, second) for n, first, second in reversed(_SMALL_GRID_BOUNDS) if grid.size >= n)


class TestAngularGrid:
    def test_measure_normalization(self):
        # the tanh-sinh rule is exact for no polynomial; from 32 nodes the
        # measure is right to rounding
        g = build_angular_grid(32)
        assert abs(float(np.sum(g.weights)) - 2.0) <= 1e-15

    def test_second_moment(self):
        g = build_angular_grid(40)
        assert abs(float(np.sum(g.weights * g.nodes**2)) - 2.0 / 3.0) <= 2.0 * 2.0**-52 + 1e-15

    def test_every_size_is_an_ascending_rule_within_its_stated_bounds(self):
        # strictly ascending, the top gap at least 2^-52, an odd grid's middle
        # node +0.0, the stated moment bounds; from 477 nodes the top offset
        # shrinks to keep the top nodes apart
        for n in [*range(4, 4097), 8192, MAX_GRID_SIZE]:
            g = build_angular_grid(n)
            assert np.all(np.diff(g.nodes) > 0.0) and 1.0 - g.nodes[-1] >= 2.0**-52, n
            if n % 2:
                assert g.nodes[n // 2] == 0.0 and math.copysign(1.0, g.nodes[n // 2]) == 1.0, n
            first, second = _stated_bounds(g)
            assert abs(float(np.sum(g.weights)) - 2.0) <= first, n
            assert abs(float(np.sum(g.weights * g.nodes**2)) - 2.0 / 3.0) <= second, n

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

    @pytest.mark.parametrize("nodes,weights,message", [
        ([[-0.5, 0.5]], [[1.0, 1.0]], "one-dimensional"),
        ([-0.5, 0.5], [1.0, 1.0, 1.0], "one weight per node"),
        ([], [], "one weight per node"),
        ([-0.5, math.nan, 0.5], [1.0, 1.0, 1.0], "nodes must be finite"),
        ([-0.5 + 1j, 0.5 - 1j], [1.0, 1.0], "nodes must be float numbers"),
        ([-0.5, 0.5], ["1", "1"], "weights must be float numbers"),
        ([-0.5, 0.5], [1.0, math.inf], "weights must be finite"),
        ([0.5, -0.5], [1.0, 1.0], "strictly ascending"),
        ([-0.5, 0.0, 0.0, 0.5], [1.0, 1.0, 1.0, 1.0], "strictly ascending"),
        ([-2.0, 2.0], [1.0, 1.0], "within \\[-1, 1\\]"),
        ([0.1, 0.5, 0.9], [1.0, 1.0, 1.0], "mirrored"),
        ([-0.5, 0.5 + 2**-53], [1.0, 1.0], "mirrored"),
        ([-0.5, 0.5], [1.0, 0.9], "mirrored"),
        ([-0.5, 0.0, 0.5], [1.0, 0.0, 1.0], "weights must be positive"),
    ])
    def test_rejects_a_grid_that_is_not_a_mirrored_rule(self, nodes, weights, message):
        with pytest.raises(InvalidArgumentError, match=message):
            zerosound.AngularGrid(nodes=np.array(nodes), weights=np.array(weights))

    def test_keeps_read_only_copies(self):
        nodes, weights = np.array([-0.5, 0.0, 0.5]), np.array([0.5, 1.0, 0.5])
        grid = zerosound.AngularGrid(nodes=nodes, weights=weights)
        nodes[0], weights[0] = -0.9, 7.0  # the caller's arrays stay writeable
        assert grid.nodes.tolist() == [-0.5, 0.0, 0.5] and grid.weights.tolist() == [0.5, 1.0, 0.5]
        for array in (grid.nodes, grid.weights, build_angular_grid(8).nodes):
            assert not array.flags.writeable


_GRID_400 = build_angular_grid(400)


class TestSecularSum:
    def test_converges_to_the_continuum_kernel(self):
        # geometric decay from 1.6e-5 at N = 16 to 5.1e-15 at N = 40; from
        # N = 48 on only rounding is left, and the test below checks its
        # 16-ulp floor
        S = 1.5
        target = landau_kernel(S)
        errors = [abs(secular_sum(S, build_angular_grid(n)) - target) for n in (16, 24, 32, 40)]
        assert all(finer < 1e-2 * coarser for coarser, finer in zip(errors, errors[1:]))
        assert errors[-1] < 1e-14

    def test_stays_at_the_rounding_floor_out_to_400_nodes(self):
        # from N = 48 what is left is rounding: landau_kernel(1.5) alone is
        # 3.5 ulp from the true F, and the sum of N terms adds a few more;
        # 16 ulp of F(1.5) is 4.4e-16
        S = 1.5
        target = landau_kernel(S)
        for n in (48, 64, 128, 400):
            assert abs(secular_sum(S, build_angular_grid(n)) - target) <= 16 * math.ulp(target)
        # at the A = 1 root, where the top weights carry the sum, the default
        # matrix-oracle grid also leaves out the measure beyond its top node,
        # about (1 - mu_max) / (S^2 - 1) = 2.4e-15 of the kernel
        S = 1.0443820337608335
        mu_max = float(_GRID_400.nodes[-1])
        bound = (1.0 - mu_max) / (S * S - 1.0) + 4.4e-16
        assert abs(secular_sum(S, _GRID_400) - landau_kernel(S)) <= bound

    def test_rejects_S_on_or_inside_the_node_band(self):
        g = build_angular_grid(4)
        mu_max = float(g.nodes[-1])
        for S in (0.5, 0.0, -0.5, mu_max, -mu_max):
            with pytest.raises(DomainError, match="mu_max"):
                secular_sum(S, g)
        for S in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError, match="S must be finite"):
                secular_sum(S, g)
        # just outside the band on either side, the sum is even in S
        above = math.nextafter(mu_max, 2.0)
        assert secular_sum(-above, g) == pytest.approx(secular_sum(above, g), rel=1e-15, abs=0.0)

    def test_large_S_agreement(self):
        g = build_angular_grid(64)
        for S in (2.0, 5.0, 20.0):
            assert secular_sum(S, g) == pytest.approx(landau_kernel(S), rel=1e-12)

    def test_even_sum_keeps_its_accuracy_at_large_S(self):
        # the odd part of the node sum is zero for a mirrored grid; summed
        # term by term it rounded to about eps / S against a kernel of 1/(3 S^2)
        for S in (1e3, 1e8, 1e30, 1e150):
            assert secular_sum(S, _GRID_400) == pytest.approx(landau_kernel(S), rel=1e-14, abs=0.0)
        odd = build_angular_grid(401)
        assert secular_sum(7.0, odd) == pytest.approx(landau_kernel(7.0), rel=1e-14, abs=0.0)


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
        f = lambda S: a * secular_sum(S, g) - 1.0
        lo = math.nextafter(float(g.nodes[-1]), 2.0)
        hi = max(10.0, 2.0 * math.sqrt(a / 3.0) + 2.0)
        if f(lo) <= 0.0:  # a root below the first float above the top node comes back as that float
            assert discrete_collective_root(a, g) == lo
            return
        ref = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        assert discrete_collective_root(a, g) == pytest.approx(ref, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("n", [8, 400])
    @pytest.mark.parametrize("a", [1e-11, 1e-14, 1e-300, 5e-324])
    def test_a_root_at_the_top_node_stays_above_it(self, n, a):
        # S - mu_max falls below half an ulp of mu_max, where the secular sum
        # would divide by zero; the root comes back as the next float up
        g = build_angular_grid(n)
        mu_max = float(g.nodes[-1])
        root = discrete_collective_root(a, g)
        assert root > mu_max
        if a == 1e-300:
            assert root == math.nextafter(mu_max, 2.0)

    def test_nonpositive_coupling_rejected(self):
        g = build_angular_grid(8)
        with pytest.raises(NoUndampedRootError):
            discrete_collective_root(0.0, g)

    def test_a_failed_search_names_the_coupling(self, monkeypatch):
        monkeypatch.setattr(zerosound._roots, "_MAX_EXPANSIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            discrete_collective_root(1.0, build_angular_grid(16))
        lo, hi = info.value.bracket
        assert str(info.value) == f"no sign change above {lo!r} in ln(S - mu_max) at A = 1.0" and hi == math.inf

    def test_a_residual_flat_below_the_root(self, monkeypatch):
        # at A = 0.1 the root lies 5.6e-10 above the top node, where one ulp
        # of S spans 4e-7 in w = ln(S - mu_max): the residual at a float S is
        # flat over 3e7 stop widths.  The search takes the residual at the
        # unrounded S = mu_max + e^w, so Newton steps end it instead of
        # bisecting that span
        calls = []
        terms = zerosound.kinetic._even_terms
        monkeypatch.setattr(zerosound.kinetic, "_even_terms",
                            lambda S, grid, scale=0: calls.append(S) or terms(S, grid, scale))
        a = 0.1
        root = discrete_collective_root(a, _GRID_400)
        assert len(calls) <= 3
        # the residual changes sign between the root and a neighbouring float
        residual = lambda S: 1.0 - a * secular_sum(S, _GRID_400)
        assert any(residual(root) * residual(math.nextafter(root, toward)) < 0.0 for toward in (0.0, 2.0))

    def test_secular_evaluations_per_root(self, monkeypatch):
        # 9.1 passes of the sum per root on average at N = 400.  Below
        # A ~ 0.3 the root hugs the top node, where one ulp of S moves w by
        # about 1e-10, so the search ends by bisecting that step down to the
        # stop width
        calls = []
        terms = zerosound.kinetic._even_terms
        monkeypatch.setattr(zerosound.kinetic, "_even_terms",
                            lambda S, grid, scale: calls.append(S) or terms(S, grid, scale))
        couplings = np.logspace(math.log10(0.05), 2.0, 200)
        for a in couplings:
            discrete_collective_root(float(a), _GRID_400)
        assert len(calls) <= 10 * len(couplings)

    def test_a_root_below_the_first_float_takes_one_sum(self, monkeypatch):
        # below A = 0.0555 at N = 400 the root lies between the top node and
        # the next float, which is returned; one residual there decides it,
        # where the search used to bisect toward the top node for 24 to 60 sums
        calls = []
        terms = zerosound.kinetic._even_terms
        monkeypatch.setattr(zerosound.kinetic, "_even_terms",
                            lambda S, grid, scale=0: calls.append(S) or terms(S, grid, scale))
        first = math.nextafter(float(_GRID_400.nodes[-1]), 2.0)
        for a in np.linspace(0.03, 0.0555, 100):
            calls.clear()
            assert discrete_collective_root(float(a), _GRID_400) == first
            assert len(calls) <= 3

    @given(exponent=st.floats(min_value=-1.0, max_value=2.0))
    @example(exponent=-1.0)  # A = 0.1: 4.0e-7 of S - 1 = 5.6e-10 low
    @example(exponent=math.log10(0.2))  # 1.8e-11 of S - 1 = 1.2e-5 low
    @settings(max_examples=200, deadline=None)
    def test_resolves_weak_coupling_above_the_band_edge(self, exponent):
        # at N = 400 the top gap, 1 - mu_max = 2^-52, lies below every root
        # from A = 0.1 to 100, and the measure the rule leaves out above it
        # moves the root by about that gap: at most 4.0e-7 of S - 1 (A = 0.1),
        # 6.4e-13 from A = 0.3 on
        a = 10.0**exponent
        exact = solve_zero_sound(a)
        root = discrete_collective_root(a, _GRID_400)
        assert root > 1.0
        assert abs(root - exact.S) <= 4.5e-7 * exact.S_minus_1

    @given(exponent=st.floats(min_value=0.0, max_value=math.log10(sys.float_info.max)))
    @example(exponent=10.0)  # the term-by-term sum: 4.8e-12 off
    @example(exponent=34.0)  # -0.85 off
    @example(exponent=114.0)  # 1.56e45 against 5.77e56
    @example(exponent=math.log10(sys.float_info.max))  # unscaled subnormal terms: 1.8e-14 off
    @settings(max_examples=200, deadline=None)
    def test_matches_the_exact_root_at_every_strong_coupling(self, exponent):
        # at N = 400 the secular root meets the continuum root to rounding:
        # for S >= 2 both take a last Newton step on S, and below it the
        # search's stop width in ln(S - mu_max) keeps the gap under 1.2e-15
        # 10^exponent, rounded down to the largest float at the top of the range
        a = min(float(Decimal(10) ** Decimal(exponent)), sys.float_info.max)
        root = discrete_collective_root(a, _GRID_400)
        assert root == pytest.approx(solve_zero_sound(a).S, rel=2e-15, abs=0.0)


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
        for values in (["1", "2"], [None, 1.0]):  # text and objects, not numbers
            with pytest.raises(InvalidArgumentError, match="must be complex numbers"):
                AngularState(values)

    def test_the_callers_array_stays_writeable(self):
        a = np.ones(8, dtype=complex)
        state = AngularState(a)
        series = TimeSeries(dt=0.05, samples=a)
        assert a.flags.writeable
        assert not state.values.flags.writeable and not series.samples.flags.writeable
        a[0] = 2.0
        assert state.values[0] == 1.0 and series.samples[0] == 1.0

    def test_the_trace_is_read_only_and_a_valid_series(self):
        g = build_angular_grid(16)
        series = evolve_initial_value(1.0, g, AngularState(np.ones(16)), 0.05, 64)
        assert not series.samples.flags.writeable
        assert series == TimeSeries(dt=0.05, samples=series.samples)

    @pytest.mark.parametrize("n", [4, 33, 128, 400, 1001, 4097])
    def test_factor_tables_start_on_a_64_byte_boundary(self, n, monkeypatch):
        tables = []
        monkeypatch.setattr(zerosound.kinetic, "_aligned_empty",
                            lambda shape: tables.append(_aligned_empty(shape)) or tables[-1])
        evolve_initial_value(1.0, build_angular_grid(n), AngularState(np.ones(n)), 0.05, 2)
        assert [table.shape for table in tables] == [(_block_size(n), n - n // 2)] * 2  # Fv, D
        assert all(table.__array_interface__["data"][0] % 64 == 0 for table in tables)

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

    @pytest.mark.parametrize("k", [-1060, -1000, -600, -1, 600, 1000])
    def test_power_of_two_scales_the_trace_exactly(self, k):
        # at k = -1060 the state is subnormal, and its trace is still the
        # unit trace rounded once; the random complex state, with both mirror
        # parts non-zero, has parts in multiples of 2^-6, so it stays exact there
        g = build_angular_grid(32)
        rng = np.random.default_rng(5)
        random = (rng.integers(-64, 65, 32) + 1j * rng.integers(-64, 65, 32)) / 64
        for state in (np.ones(32, dtype=np.complex128), random):
            ref = evolve_initial_value(1.0, g, AngularState(state), 0.05, 2048).samples
            out = evolve_initial_value(1.0, g, AngularState(2.0**k * state), 0.05, 2048).samples
            expected = np.ldexp(ref.view(np.float64), k).view(np.complex128)
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [32, 33])  # 33: the odd grid's mu = 0 node
    def test_a_mirror_symmetric_state_has_a_real_trace(self, n):
        # F(-mu) = conj F(mu) is one of the two parts the evolution splits a
        # state into, and its <F> is real: the imaginary part is exactly +0.0
        # (never -0.0, which a CSV would print as -0), for the CLI's isotropic
        # state and for a random state of that form
        g = build_angular_grid(n)
        rng = np.random.default_rng(n)
        half = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for state in (np.full(n, 0.7), half + np.conj(half[::-1])):
            out = evolve_initial_value(2.0, g, AngularState(state), 0.03, 1000).samples
            assert np.all(out.imag == 0.0) and not np.any(np.signbit(out.imag))
            assert np.any(out.real != 0.0)

    @pytest.mark.parametrize("n", [32, 33])
    def test_a_mirror_antisymmetric_state_has_an_imaginary_trace(self, n):
        # F(-mu) = -conj F(mu) is i times the other part: the evolution runs
        # that part alone, its real part reads +0.0, and it is still the
        # four-stage RK4 loop to rounding
        g = build_angular_grid(n)
        rng = np.random.default_rng(n)
        half = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for state in (np.full(n, 1j), half - np.conj(half[::-1])):
            out = evolve_initial_value(2.0, g, AngularState(state), 0.03, 1000).samples
            ref = _four_stage_rk4_trace(state, g.nodes, 0.5 * g.weights, 2.0, 0.03, 1000)
            assert float(np.max(np.abs(out - ref))) <= 1e-12
            assert np.all(out.real == 0.0) and not np.any(np.signbit(out.real))
            assert np.any(out.imag != 0.0)

    def test_block_size_keeps_the_factors_within_a_mebibyte(self):
        # the rows v M^m and d^(B-1-m), complex on ceil(N/2) nodes, hold
        # 32 B ceil(N/2) bytes; only a single step per block may exceed 1 MiB
        sampled = np.unique(np.geomspace(4, MAX_GRID_SIZE, 200).astype(int))
        for n in [*range(4, 2049), *sampled.tolist(), MAX_GRID_SIZE]:
            b = _block_size(n)
            assert 1 <= b <= 128, n
            assert 32 * b * ((n + 1) // 2) <= 2**20 or b == 1, n

    @pytest.mark.parametrize("n", [33, 128, 400])  # 33: the odd grid's mu = 0 node
    # 1e120 and the largest float: the factors, built from h L, stay O(1)
    @pytest.mark.parametrize("a", [0.05, 1.0, 100.0, 1e120, 1.7976931348623157e308])
    def test_matches_classical_four_stage_rk4(self, n, a):
        g = build_angular_grid(n)
        rng = np.random.default_rng(n)
        y0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dt = stability_bound(a)
        out = evolve_initial_value(a, g, AngularState(y0), dt, 2048)
        ref = _four_stage_rk4_trace(y0, g.nodes, 0.5 * g.weights, a, dt, 2048)
        assert float(np.max(np.abs(out.samples - ref))) <= 1e-12


# couplings from 1e-6 to the top of the float range, and zero; amplitudes of
# either sign from 1e-300 to the top of the float range, and zero
COUPLINGS = st.one_of(st.just(0.0), st.floats(-6.0, 308.25).map(lambda e: 10.0**e))
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
            "print(sorted(m for m in ('scipy', 'numba', 'dataclasses', 'inspect') if m in sys.modules), "
            "zerosound.BACKEND, 'numpy' in sys.modules)"
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
        imported = _imported_modules(proc.stderr)
        assert ("numpy" in imported) is numpy_loaded
        if not numpy_loaded:  # numpy itself may load dataclasses and inspect
            assert not imported & {"dataclasses", "inspect"}


def _tone(omega, n, dt):
    t = dt * np.arange(n)
    return TimeSeries(dt=dt, samples=np.exp(-1j * omega * t))


class TestSpectralPeak:
    def test_synthetic_tone_recovered(self):
        peak = spectral_peak(_tone(1.5, 4096, 0.05))
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
        with pytest.raises(NoCollectivePeakError):
            spectral_peak(series)

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
        with pytest.raises(InvalidArgumentError, match="at least 64 samples"):
            spectral_peak(_tone(1.5, 63, 0.05))
        # Nyquist pi / dt lies below the continuum edge
        with pytest.raises(InvalidArgumentError, match="no searchable band"):
            spectral_peak(_tone(0.5, 4096, 4.0))

    def test_pads_to_the_smallest_5_smooth_length(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1
        for n in [*range(64, 2100), 16385, MAX_STEPS + 1]:
            n_pad = _padded_length(n)
            assert smooth(n_pad) and n_pad >= 4 * n
            assert not any(smooth(m) for m in range(4 * n, n_pad))
        assert _padded_length(16385) == 65610  # 4 * 16385 = 2^2 5 29 113

    @given(n=st.integers(64, 4096), omega=st.floats(0.0, 1.0), dt=st.floats(0.01, 0.5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_interpolation_stays_within_half_a_padded_bin(self, n, omega, dt, seed):
        # tones anywhere in the search band, with a second tone and noise, so
        # the three bins around the maximum take every shape
        rng = np.random.default_rng(seed)
        nyquist = math.pi / dt
        if nyquist <= 1.1:
            return
        t = dt * np.arange(n)
        f1, f2 = 1.0 + (nyquist - 1.0) * np.array([omega, rng.random()])
        x = np.exp(-1j * (f1 * t + rng.uniform(0.0, 2.0 * math.pi)))
        x += rng.uniform(0.0, 1.5) * np.exp(-1j * f2 * t)
        x += rng.uniform(0.0, 0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        try:
            peak = spectral_peak(TimeSeries(dt=dt, samples=x))
        except NoCollectivePeakError:
            return
        # the grid maximum of the same padded, Hann-windowed spectrum
        n_pad = _padded_length(n)
        mag = np.abs(np.fft.fft(np.conj(x * np.hanning(n)), n=n_pad))
        d_omega = 2.0 * math.pi / (n_pad * dt)
        k_min = int(math.floor(1.0 / d_omega)) + 1
        j = k_min + int(np.argmax(mag[k_min : n_pad // 2]))
        assert abs(peak.frequency - j * d_omega) <= (0.5 + 1e-12) * d_omega


def _complex_transform_line(x, dt):
    """Padded bin and frequency of the line from one complex FFT of the conjugate trace.

    The transform spectral_peak used before it took one real FFT per part of
    the trace: the reference for it.  None where the maximum is on an edge.
    """
    n = x.shape[0]
    xw = (x * np.hanning(n)).view(np.float64)
    xw = np.ldexp(xw, -math.frexp(float(np.max(np.abs(xw))))[1]).view(np.complex128)
    n_pad = _padded_length(n)
    mag = np.abs(np.fft.fft(np.conj(xw), n=n_pad)) / math.sqrt(n_pad)
    d_omega = 2.0 * math.pi / (n_pad * dt)
    k_min, k_max = int(math.floor(1.0 / d_omega)) + 1, n_pad // 2
    j = k_min + int(np.argmax(mag[k_min:k_max]))
    if j == k_min or j >= k_max - 1 or min(mag[j - 1], mag[j + 1]) <= 0.0:
        return None
    la, lb, lg = (math.log(m) for m in mag[j - 1 : j + 2])
    denom = la - 2.0 * lb + lg
    return j, (j + (0.5 * (la - lg) / denom if denom < 0.0 else 0.0)) * d_omega, d_omega


@given(n=st.integers(64, 4096), omega=st.floats(0.0, 1.0), dt=st.floats(0.01, 0.5),
       kind=st.sampled_from(["complex", "real", "imaginary -0.0"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_real_transforms_find_the_complex_transform_line(n, omega, dt, kind, seed):
    rng = np.random.default_rng(seed)
    nyquist = math.pi / dt
    assume(nyquist > 1.1)
    t = dt * np.arange(n)
    x = np.exp(-1j * ((1.0 + (nyquist - 1.0) * omega) * t + rng.uniform(0.0, 2.0 * math.pi)))
    x += rng.uniform(0.0, 0.5) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if kind != "complex":  # one part: a real trace, its imaginary part +0.0 or -0.0
        x = x.real.astype(np.complex128)
        x.imag = -0.0 if kind == "imaginary -0.0" else 0.0
    reference = _complex_transform_line(x, dt)
    assume(reference is not None)
    j, frequency, d_omega = reference
    try:
        peak = spectral_peak(TimeSeries(dt=dt, samples=x))
    except NoCollectivePeakError:  # below the floor, which the reference does not test
        return
    assert round(peak.frequency / d_omega) == j
    assert peak.frequency == pytest.approx(frequency, rel=1e-12, abs=0.0)


def test_evolution_and_spectral_peak_stay_within_their_memory_budgets():
    # peak traced bytes at N = 400 and 16384 steps, measured as here with numpy
    # 2.4: 1.291 MiB and 0.874 MiB, against 1.378 MiB and 1.752 MiB for the
    # complex transform and the evolution before it; bounds 3% and 5% up.  numpy
    # 1.x pads the input of rfft with a copy of its 65610 floats; the bound adds it
    import tracemalloc
    g, state, dt = build_angular_grid(400), AngularState(np.ones(400)), stability_bound(1.0)
    spectral_peak(evolve_initial_value(1.0, g, state, dt, 16384))  # numpy's lazy imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series = evolve_initial_value(1.0, g, state, dt, 16384)
        evolution = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        spectral_peak(series)
        spectrum = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert evolution <= 1.33 * 2**20
    assert spectrum <= 0.92 * 2**20 + (8 * 65610 if int(np.__version__.split(".")[0]) < 2 else 0)


def _isotropic_peak(amplitude):
    """spectral_peak of the isotropic state times amplitude: N = 32, 2048 steps at A = 1."""
    state = AngularState(np.full(32, amplitude, dtype=np.complex128))
    series = evolve_initial_value(1.0, build_angular_grid(32), state, stability_bound(1.0), 2048)
    return spectral_peak(series)


class TestInitialAmplitude:
    # the evolution is linear and runs at unit scale, so the amplitude of the
    # state scales the trace and the peak amplitude and leaves the line alone
    def test_zero_state_has_no_peak(self):
        with pytest.raises(NoCollectivePeakError):
            _isotropic_peak(0.0)

    @pytest.mark.parametrize("amplitude", [2.0**-500, 1e-300, 1e300])
    def test_peak_does_not_depend_on_amplitude(self, amplitude):
        unit, scaled = _isotropic_peak(1.0), _isotropic_peak(amplitude)
        assert abs(scaled.frequency - unit.frequency) <= 1e-12
        assert scaled.amplitude == pytest.approx(amplitude * unit.amplitude, rel=1e-12, abs=0.0)

    def test_amplitude_at_the_edges_of_the_float_range(self):
        unit = _isotropic_peak(1.0)
        # a power of two scales the unit-scaled state exactly
        assert _isotropic_peak(2.0**1016).frequency == unit.frequency
        # any other factor changes its mantissa, so the line moves by rounding
        assert abs(_isotropic_peak(1e306).frequency - unit.frequency) <= 1e-12
        # a trace of subnormal samples still carries the line
        peak = _isotropic_peak(5e-324)
        assert abs(peak.frequency - solve_zero_sound(1.0).S) <= peak.bin_width
        # the peak amplitude of a 1e308 state lies above the float range
        with pytest.raises(NumericalBlowupError, match="peak amplitude"):
            _isotropic_peak(1e308)
