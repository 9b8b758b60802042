"""Kernel, exact root, and asymptotic branches against frozen references.

Reference values were computed independently with 50-digit arithmetic:
the kernel from its closed form, the roots by bisection on ln(S - 1) of
the dispersion relation.  They are frozen here as literals.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from zerosound import (
    ConvergenceError,
    DomainError,
    FermiParameters,
    GridSpec,
    InteractionModel,
    InvalidArgumentError,
    Method,
    NoUndampedRootError,
    SolverConfig,
    asymptotic_zero_sound,
    branch_scan,
    coupling_strength,
    dispersion_residual,
    high_frequency_branch,
    landau_kernel,
    solve_zero_sound,
)

# F(S) at fixed abscissae, 50-digit evaluation rounded to double
KERNEL_REFERENCE = {
    1.5: 0.20707843432557528,
    2.0: 0.09861228866810969,
    3.0: 0.039720770839917964,
    10.0: 0.003353477310755806,
}

# root S of 1 = A F(S); for the smallest couplings the excess S - 1 is stored
ROOT_REFERENCE = {
    0.5: 1.0051245991704332,
    1.0: 1.0443820337608335,
    3.0: 1.2894635253165541,
    10.0: 1.9883064716146026,
    100.0: 5.825408569095426,
    300.0: 10.029989287382086,
    1000.0: 18.273848499776075,
}
EXCESS_REFERENCE = {
    0.06: 9.0356271509380652e-16,
    0.1: 5.5789362557680411e-10,
    0.2: 1.2290312686444962e-5,
    0.3: 3.4555700705362072e-4,
}


class TestLandauKernel:
    @pytest.mark.parametrize("S,expected", sorted(KERNEL_REFERENCE.items()))
    def test_frozen_values(self, S, expected):
        assert landau_kernel(S) == pytest.approx(expected, rel=1e-14)

    def test_large_argument_series_head(self):
        assert abs(landau_kernel(10.0) - (1.0 / 300.0 + 1.0 / 50000.0)) < 1e-6

    def test_log_divergence_at_the_edge(self):
        assert landau_kernel(1.0 + 1e-8) > 8.0

    def test_edge_and_below_rejected(self):
        for S in (1.0, 0.5, -3.0):
            with pytest.raises(DomainError):
                landau_kernel(S)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            landau_kernel(math.nan)
        with pytest.raises(InvalidArgumentError):
            landau_kernel(math.inf)

    def test_form_switch_is_seamless(self):
        # the series and excess evaluations meet at S = 2
        below = landau_kernel(math.nextafter(2.0, 1.0))
        above = landau_kernel(math.nextafter(2.0, 3.0))
        assert abs(below - above) < 1e-15

    @given(
        s1=st.floats(min_value=1.000001, max_value=1000.0),
        s2=st.floats(min_value=1.000001, max_value=1000.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_and_positive(self, s1, s2):
        if s2 < s1:
            s1, s2 = s2, s1
        f1, f2 = landau_kernel(s1), landau_kernel(s2)
        assert f1 > 0.0 and f2 > 0.0
        if s2 - s1 > 1e-9 * s1:
            assert f1 > f2


class TestDispersionResidual:
    def test_free_gas_residual_is_one(self):
        for S in (1.5, 2.0, 7.0):
            assert dispersion_residual(S, 0.0) == 1.0

    def test_zero_by_construction(self):
        a = 1.0 / landau_kernel(2.0)
        assert abs(dispersion_residual(2.0, a)) < 1e-15

    def test_near_root_value(self):
        # 50-digit evaluation of 1 - F(1.046)
        assert dispersion_residual(1.046, 1.0) == pytest.approx(0.015214712338244639, rel=1e-12)

    def test_increasing_in_S(self):
        values = [dispersion_residual(S, 2.5) for S in (1.01, 1.1, 1.5, 3.0, 20.0)]
        assert values == sorted(values)
        assert values[0] < 0.0 < values[-1]

    def test_domain_error_below_edge(self):
        with pytest.raises(DomainError):
            dispersion_residual(0.99, 1.0)


class TestSolveZeroSound:
    @pytest.mark.parametrize("A,expected", sorted(ROOT_REFERENCE.items()))
    def test_frozen_roots(self, A, expected):
        point = solve_zero_sound(A)
        assert point.method is Method.EXACT
        assert point.S == pytest.approx(expected, rel=1e-13)
        assert abs(point.residual) <= 1e-12

    @pytest.mark.parametrize("A,expected", sorted(EXCESS_REFERENCE.items()))
    def test_frozen_excesses_near_the_edge(self, A, expected):
        point = solve_zero_sound(A)
        assert point.S_minus_1 == pytest.approx(expected, rel=1e-12)

    def test_exact_path_above_switch_asymptotic_below(self):
        assert solve_zero_sound(0.06).method is Method.EXACT
        assert solve_zero_sound(0.059).method is Method.ASYMPTOTIC_ZERO_SOUND

    def test_accepts_coupling_objects(self):
        c = coupling_strength(InteractionModel(1.0), 0.0)
        assert solve_zero_sound(c) == solve_zero_sound(1.0)

    def test_underflowing_excess_keeps_log_carrier(self):
        point = solve_zero_sound(0.001)
        assert point.S_minus_1 == 0.0
        assert point.log_excess == pytest.approx(math.log(2.0) - 2002.0, rel=1e-15)
        assert point.above_continuum
        # the exact path too, where ln(S - 1) ~ -2/A outgrows any fixed bracket step
        exact = SolverConfig(asymptotic_switch_A=0.0)
        for a in (1e-17, 1e-100, 1e-300, 1.2e-308):
            point = solve_zero_sound(a, exact)
            assert point.method is Method.EXACT
            assert abs(point.residual) <= 1e-12
            assert point.log_excess == pytest.approx(math.log(2.0) - 2.0 - 2.0 / a, rel=1e-12)
            assert point.above_continuum

    def test_coupling_below_the_smallest_supported_is_rejected(self):
        smallest = 1.112536929253601e-308
        assert math.isfinite(2.0 / smallest)
        assert solve_zero_sound(smallest, SolverConfig(asymptotic_switch_A=0.0)).method is Method.EXACT
        for a in (math.nextafter(smallest, 0.0), 1e-309, 5e-324):
            assert math.isinf(2.0 / a)
            for solve in (solve_zero_sound, asymptotic_zero_sound):
                with pytest.raises(InvalidArgumentError, match="1.112536929253601e-308"):
                    solve(a)
            with pytest.raises(InvalidArgumentError):
                solve_zero_sound(a, SolverConfig(asymptotic_switch_A=0.0))

    def test_no_root_for_nonpositive_coupling(self):
        for a in (0.0, -1.0):
            with pytest.raises(NoUndampedRootError):
                solve_zero_sound(a)

    def test_starved_iteration_budget_reports_bracket(self):
        with pytest.raises(ConvergenceError) as info:
            solve_zero_sound(1.0, SolverConfig(max_iterations=1))
        assert info.value.bracket is not None

    @given(
        e1=st.floats(min_value=-3.0, max_value=3.0),
        e2=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_root_monotone_in_coupling(self, e1, e2):
        if abs(e1 - e2) < 1e-9:
            return
        if e2 < e1:
            e1, e2 = e2, e1
        v1 = solve_zero_sound(10.0**e1).log_excess
        v2 = solve_zero_sound(10.0**e2).log_excess
        assert v1 < v2


class TestAsymptoticZeroSound:
    def test_closed_form_is_exact_in_floating_point(self):
        for a in (0.01, 0.3, 1.0, 7.0):
            point = asymptotic_zero_sound(a)
            assert point.S_minus_1 == 2.0 * math.exp(-2.0 - 2.0 / a)
        assert asymptotic_zero_sound(1.0).S_minus_1 == 2.0 * math.exp(-4.0)

    def test_weak_coupling_accuracy_improves_toward_zero(self):
        deviations = []
        for a in (0.3, 0.2, 0.1, 0.06):
            exact_u = solve_zero_sound(a, SolverConfig(asymptotic_switch_A=0.0)).S_minus_1
            asym_u = asymptotic_zero_sound(a).S_minus_1
            deviations.append(abs(asym_u - exact_u) / exact_u)
        assert all(d <= 0.05 for d in deviations)
        assert deviations == sorted(deviations, reverse=True)

    def test_excess_decreases_monotonically_toward_zero_coupling(self):
        logs = [asymptotic_zero_sound(a).log_excess for a in (0.05, 0.02, 0.01, 0.005, 0.001)]
        assert logs == sorted(logs, reverse=True)

    def test_nonpositive_rejected(self):
        with pytest.raises(NoUndampedRootError):
            asymptotic_zero_sound(0.0)


class TestHighFrequencyBranch:
    def test_boundary_of_validity(self):
        point = high_frequency_branch(0.0, 2.0)
        assert point.S == 1.0
        assert not point.above_continuum
        assert point.residual is None

    def test_strong_interaction_value(self):
        point = high_frequency_branch(300.0, 0.0)
        assert point.S == 10.0
        # next-order correction to the true root is ~ 9/(10 A)
        exact = solve_zero_sound(300.0).S
        assert abs(exact / point.S - 1.0) < 0.004

    def test_mass_conventions(self):
        params = FermiParameters(m=1.0, m_star=2.0)
        assert high_frequency_branch(0.0, 2.0, "bare", params).S == 2.0
        assert high_frequency_branch(0.0, 2.0, "effective", params).S == 1.0
        # without parameters the mass ratio defaults to one
        assert high_frequency_branch(0.0, 2.0, "bare").S == 1.0

    def test_omega_attached_with_params(self):
        params = FermiParameters()
        point = high_frequency_branch(3.0, 0.5, "effective", params)
        assert point.omega == point.S * point.k_lambda_d

    def test_zero_everything_rejected(self):
        with pytest.raises(InvalidArgumentError):
            high_frequency_branch(0.0, 0.0)

    def test_negative_interaction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            high_frequency_branch(-1.0, 0.5)

    def test_unknown_convention_rejected(self):
        with pytest.raises(InvalidArgumentError):
            high_frequency_branch(1.0, 1.0, "relativistic")


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tolerance == 1e-12
        assert cfg.max_iterations == 200
        assert cfg.asymptotic_switch_A == 0.06

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(InvalidArgumentError):
            SolverConfig(max_iterations=0)
        with pytest.raises(InvalidArgumentError):
            SolverConfig(asymptotic_switch_A=-0.1)


class TestGridSpec:
    def test_linear_values_hit_both_endpoints(self):
        ks = GridSpec(0.1, 2.0, 10).values()
        assert len(ks) == 10
        assert ks[0] == 0.1 and ks[-1] == 2.0
        steps = [b - a for a, b in zip(ks, ks[1:])]
        assert max(steps) - min(steps) < 1e-15

    def test_log_values_have_constant_ratio(self):
        ks = GridSpec(0.01, 10.0, 7, spacing="log").values()
        ratios = [b / a for a, b in zip(ks, ks[1:])]
        assert max(ratios) - min(ratios) < 1e-12

    def test_single_point_grid(self):
        assert GridSpec(0.5, 0.5, 1).values() == [0.5]

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            GridSpec(0.0, 1.0, 5)
        with pytest.raises(InvalidArgumentError):
            GridSpec(2.0, 1.0, 5)
        with pytest.raises(InvalidArgumentError):
            GridSpec(1.0, 1.0, 5)
        with pytest.raises(InvalidArgumentError):
            GridSpec(0.1, 1.0, 0)
        with pytest.raises(InvalidArgumentError):
            GridSpec(0.1, 1.0, 5, spacing="cubic")


class TestBranchScan:
    def test_quantum_only_scan_is_monotone(self):
        scan = branch_scan(InteractionModel(0.0), GridSpec(0.1, 1.0, 10))
        assert len(scan.points) == 10
        assert scan.failures == ()
        logs = [p.log_excess for p in scan.points]
        assert all(v is not None for v in logs)
        assert logs == sorted(logs)
        assert logs[0] < logs[-1]

    def test_single_point_scan_equals_a_solve(self):
        scan = branch_scan(InteractionModel(0.5), GridSpec(0.3, 0.3, 1))
        direct = solve_zero_sound(coupling_strength(InteractionModel(0.5), 0.3))
        assert scan.points == (direct,)

    def test_omega_filled_with_unit_params(self):
        scan = branch_scan(
            InteractionModel(1.0), GridSpec(0.2, 1.0, 5), params=FermiParameters()
        )
        for p in scan.points:
            assert p.omega == p.S * p.k_lambda_d
