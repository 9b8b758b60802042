"""Kernel, exact root, and asymptotic branches against frozen references.

Reference values were computed independently with 50-digit arithmetic:
the kernel from its closed form, the roots by bisection on ln(S - 1) of
the dispersion relation.  They are frozen here as literals; the largest
couplings are checked against mpmath roots instead.  The solver under
test takes Newton steps from the shared root-finder in _roots; that
root-finder is also checked on its own, on functions that defeat its
Newton steps, and so is the shared solve around it, on a relation with a
closed-form root.  The residual count per exact root is bounded so that
a slower search shows as a failure.
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zerosound import (
    ConvergenceError,
    DomainError,
    FermiParameters,
    MAX_SCAN_POINTS,
    GridSpec,
    InteractionModel,
    InvalidArgumentError,
    Method,
    NoUndampedRootError,
    SolverConfig,
    ZeroSoundError,
    asymptotic_zero_sound,
    branch_scan,
    coupling_strength,
    dispersion_residual,
    high_frequency_branch,
    landau_kernel,
    solve_zero_sound,
)
from zerosound import _roots, dispersion
from zerosound._roots import edge_root, increasing_root


def _mpmath_root(a, v_start):
    """(v, S) of the root of 1 = A F(S) with v = ln(S - 1), from mpmath.

    50 digits beyond the cancellation in S atanh(1/S) - 1 ~ 1/(3 S^2), and
    F = ((1 + u)/2) (ln(2 + u) - v) - 1 near the edge, exact in v."""
    import mpmath

    with mpmath.workdps(50 + 2 * max(0, int(math.log10(a)))):
        def kernel(v):
            u = mpmath.exp(v)
            if u < 1:
                return (1 + u) / 2 * (mpmath.log(2 + u) - v) - 1
            return (1 + u) * mpmath.atanh(1 / (1 + u)) - 1

        v = mpmath.findroot(lambda v: 1 - mpmath.mpf(a) * kernel(v), mpmath.mpf(v_start))
        return float(v), float(1 + mpmath.exp(v))

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


def _kernel_series_loop(S, a=1.0):
    """The series of dispersion._kernel_series as a while loop with integer
    arithmetic, the reference the table-driven loop must match bit for bit.
    Also returns the last j, whose term left the total unchanged."""
    t2 = 1.0 / (S * S)
    power = a / S / S
    total = power / 3.0
    slope = 2.0 * total
    j = 2
    while True:
        power *= t2
        term = power / (2 * j + 1)
        new_total = total + term
        if new_total == total:
            return total, slope, j
        total = new_total
        slope += 2 * j * term
        j += 1


# a in every binade of the floats, from the smallest subnormal to the largest float
EVERY_BINADE = [math.ldexp(m, e) for e in range(-1074, 1024) for m in (1.0, 1.3, 1.7)] + [sys.float_info.max]


class TestKernelSeries:
    def test_the_term_table_outlasts_the_series_at_s_2(self):
        # S = 2 is the slowest point of the series that any caller passes
        # (callers take it for S >= 2). There term j over the total is at most
        # 12 / (4^j (2j + 1)), under 2^-54 from j = 26 on, so a term that size
        # leaves the total unchanged whatever a is; rounding of subnormal terms
        # adds at most one more. For every a up to the largest float, the last
        # j the loop reaches is in the table, and the bits agree
        last_j = 0
        for a in EVERY_BINADE:
            total, slope, j = _kernel_series_loop(2.0, a)
            assert dispersion._kernel_series(2.0, a) == (total, slope), a
            last_j = max(last_j, j)
        assert last_j == 27
        assert dispersion._SERIES_TERMS[last_j - 2] == (2.0 * last_j, 2.0 * last_j + 1.0)

    @given(S=st.floats(min_value=2.0, max_value=1e300), a=st.floats(min_value=5e-324, max_value=sys.float_info.max))
    @settings(max_examples=500, deadline=None)
    @example(S=math.nextafter(2.0, 3.0), a=sys.float_info.max)
    @example(S=3.0, a=5e-324)
    @example(S=1e154, a=1.0)
    def test_matches_the_while_loop_bit_for_bit(self, S, a):
        total, slope = dispersion._kernel_series(S, a)
        ref_total, ref_slope, _ = _kernel_series_loop(S, a)
        assert (total.hex(), slope.hex()) == (ref_total.hex(), ref_slope.hex())


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

    def test_exact_path_above_and_below_0_06(self):
        for a in (0.06, math.nextafter(0.06, 0.0), 0.059):
            assert solve_zero_sound(a).method is Method.EXACT

    def test_closed_form_meets_the_default_tolerance_below_0_06(self):
        # the closed form's worst residual here is 4 ulp of 1, -8.9e-16 (at
        # A = 0.0598 for one); the root it starts from meets the same bound
        rng = np.random.default_rng(13)
        exponents = rng.uniform(math.log10(dispersion._MIN_COUPLING), math.log10(0.06), 20000)
        for a in [*(10.0**exponents), 0.0598, math.nextafter(0.06, 0.0)]:
            assert abs(asymptotic_zero_sound(float(a)).residual) <= 8.9e-16, a
            point = solve_zero_sound(float(a))
            assert point.method is Method.EXACT and abs(point.residual) <= 8.9e-16, a

    def test_a_tolerance_the_closed_form_misses_runs_the_exact_branch(self):
        assert asymptotic_zero_sound(0.0598).residual == -8.881784197001252e-16
        point = solve_zero_sound(0.0598, SolverConfig(tolerance=1e-16))
        assert point == solve_zero_sound(0.0598)
        assert point.method is Method.EXACT and point.residual == 0.0
        # where neither meets the tolerance, the error is labeled
        assert solve_zero_sound(0.7).residual == -4.440892098500626e-16
        with pytest.raises(ConvergenceError):
            solve_zero_sound(0.7, SolverConfig(tolerance=1e-300))

    def test_accepts_coupling_objects(self):
        c = coupling_strength(InteractionModel(1.0), 0.0)
        assert solve_zero_sound(c) == solve_zero_sound(1.0)

    def test_underflowing_excess_keeps_log_carrier(self):
        point = solve_zero_sound(0.001)
        assert point.S_minus_1 == 0.0
        assert point.log_excess == pytest.approx(math.log(2.0) - 2002.0, rel=1e-15)
        assert point.above_continuum
        # down to the smallest couplings, where ln(S - 1) ~ -2/A outgrows any fixed bracket step
        for a in (1e-17, 1e-100, 1e-300, 1.2e-308):
            point = solve_zero_sound(a)
            assert point.method is Method.EXACT
            assert abs(point.residual) <= 1e-12
            assert point.log_excess == pytest.approx(math.log(2.0) - 2.0 - 2.0 / a, rel=1e-12)
            assert point.above_continuum

    def test_coupling_below_the_smallest_supported_is_rejected(self):
        smallest = 1.112536929253601e-308
        assert math.isfinite(2.0 / smallest)
        assert solve_zero_sound(smallest).method is Method.EXACT
        for a in (math.nextafter(smallest, 0.0), 1e-309, 5e-324):
            assert math.isinf(2.0 / a)
            for solve in (solve_zero_sound, asymptotic_zero_sound):
                with pytest.raises(InvalidArgumentError, match="1.112536929253601e-308"):
                    solve(a)

    def test_no_root_for_nonpositive_coupling(self):
        for a in (0.0, -1.0):
            with pytest.raises(NoUndampedRootError):
                solve_zero_sound(a)

    def test_starved_iteration_budget_reports_bracket(self, monkeypatch):
        # the residual is concave in v, so Newton steps from the low start
        # stay below the root until the last one; one step is too few
        monkeypatch.setattr(_roots, "_MAX_EXPANSIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            solve_zero_sound(1.0)
        lo, hi = info.value.bracket
        assert dispersion._residual_log(lo, 1.0)[0] < 0.0 and hi == math.inf

    def test_residual_evaluations_per_exact_root(self, monkeypatch):
        calls = []
        residual = dispersion._residual_log
        monkeypatch.setattr(dispersion, "_residual_log", lambda v, a: calls.append(v) or residual(v, a))
        for lo, hi, most, mean in (
            # Newton steps from the closed-form or large-S start need 4.6
            # residuals per root here on average, and at most 9
            (0.06, 1e3, 10, 6.0),
            # below 0.06 the closed-form start is the root or one step from
            # it: 1.1 residuals per root here on average
            (dispersion._MIN_COUPLING, 0.06, 2, 1.2),
        ):
            counts = []
            for a in np.logspace(math.log10(lo), math.log10(hi), 200):
                calls.clear()
                point = solve_zero_sound(float(a))
                assert point.method is Method.EXACT
                assert len(calls) <= most, (a, len(calls))
                counts.append(len(calls))
            assert sum(counts) <= mean * len(counts), (lo, hi)

    @pytest.mark.parametrize("a", [1e50, 1e158, 1e230, 1e300, sys.float_info.max])
    def test_strong_coupling_root_to_rounding(self, a):
        # one ulp of v = ln(S - 1) ~ 345 is 5.7e-14 of S; the last Newton
        # step, taken on S, resolves S to rounding
        point = solve_zero_sound(a)
        v, S = _mpmath_root(a, point.log_excess)
        assert abs(point.S - S) <= math.ulp(point.S)
        assert abs(point.residual) <= 2.2e-16
        assert point.S_minus_1 == point.S - 1.0 and point.log_excess == math.log(point.S_minus_1)

    def test_log_excess_within_the_promised_bound(self):
        # README: ln(S - 1) within 1.5e-15 max(1, |v|) of a high-precision root
        for a in [*np.logspace(-3.0, 300.0, 61), 0.0598, 0.06, 6.855471414989345]:
            point = solve_zero_sound(float(a))
            v, _ = _mpmath_root(float(a), point.log_excess)
            assert abs(point.log_excess - v) <= 1.5e-15 * max(1.0, abs(v)), a

    def test_residual_flat_to_rounding_near_the_smallest_coupling(self):
        # at A = 2.2e-308 the root is ln(S - 1) ~ -9.1e307, where the residual
        # changes by rounding only over many ulps of ln(S - 1); the closed-form
        # start already gives a residual of 0
        for tolerance in (1.0, 1e-12, 5e-324):
            point = solve_zero_sound(2.2e-308, SolverConfig(tolerance=tolerance))
            assert point.method is Method.EXACT
            assert abs(point.residual) <= tolerance
            assert point.log_excess == pytest.approx(math.log(2.0) - 2.0 - 2.0 / 2.2e-308, rel=1e-12)

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

    @given(
        a=st.one_of(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),  # subnormals too
            st.floats(min_value=5e-324, max_value=1.2e-307),  # around the smallest supported
            st.floats(min_value=1e-3, max_value=1e3),
            st.floats(min_value=0.05, max_value=0.07),  # where the closed-form start is a few ulp off
        ),
        tolerance=st.one_of(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
            st.floats(min_value=1e-16, max_value=1e-6),
            st.floats(min_value=1e-18, max_value=1e-15),  # about a root's rounding residual
        ),
    )
    @example(a=0.0598, tolerance=1e-16)  # the closed-form start's residual is -8.9e-16 here
    @settings(max_examples=500, deadline=None)
    def test_ends_in_a_checked_point_or_a_labeled_error(self, a, tolerance):
        try:
            point = solve_zero_sound(a, SolverConfig(tolerance=tolerance))
        except ZeroSoundError as exc:
            assert type(exc) is not ZeroSoundError and exc.label != "error"
            if isinstance(exc, InvalidArgumentError):
                assert math.isinf(2.0 / a)  # below the smallest supported coupling
            return
        assert point.A == a
        # every returned point is a root that meets the tolerance
        assert point.method is Method.EXACT and abs(point.residual) <= tolerance
        # log_excess is ln(S_minus_1) within the sweep benchmark's allowance
        v, excess = point.log_excess, point.S_minus_1
        slack = 1e-12 * max(1.0, abs(v)) * excess + 2.0 * math.ulp(excess)
        assert excess >= 0.0 and abs(math.exp(v) - excess) <= slack


class TestIncreasingRoot:
    @staticmethod
    def _stop_width(lo, hi):
        # the stop rule's full width, at the larger end
        return 1e-15 + 4.0 * sys.float_info.epsilon * max(abs(lo), abs(hi))

    @staticmethod
    def _step(x):
        return (1.0 if x > 0.0 else -1.0), 0.0

    def test_step_function(self):
        # a zero slope gives no Newton step; the search ends by bisection
        for start in (-1.0, 7.0, -1e-300, 5.0):
            x, y, (b_lo, b_hi) = increasing_root(self._step, start, "step")
            assert b_lo <= 0.0 < b_hi
            assert b_hi - b_lo <= self._stop_width(b_lo, b_hi)
            assert x in (b_lo, b_hi) and y == self._step(x)

    def test_underflowing_slopes_bisect(self):
        # a slope scaled by 1e-200 twice underflows to 0: no Newton step
        f = lambda x: (1e-200 * (x + x**3), 1e-200 * 1e-200 * (1.0 + 3.0 * x * x))
        x, y, (b_lo, b_hi) = increasing_root(f, 1.7, "scaled cubic")
        assert f(b_lo)[0] <= 0.0 <= f(b_hi)[0]
        assert b_hi - b_lo <= self._stop_width(b_lo, b_hi)
        assert abs(x) <= 1e-15 and y == f(x)

    def test_returns_the_end_with_the_smaller_residual(self):
        f = lambda x: (math.exp(x) - 2.0, math.exp(x))
        x, (r, slope), (b_lo, b_hi) = increasing_root(f, 0.0, "exp")
        assert x == pytest.approx(math.log(2.0), rel=2e-15, abs=0.0)
        assert x in (b_lo, b_hi) and (r, slope) == f(x)
        assert abs(r) <= min(abs(f(b_lo)[0]), abs(f(b_hi)[0]))

    def test_budget_counts_evaluations_after_bracketing(self, monkeypatch):
        # from 0.5 the first push, to -3.5, brackets the step; bisection
        # would need about 50 more evaluations
        calls = []
        f = lambda x: calls.append(x) or self._step(x)
        for budget in (1, 2, 5):
            monkeypatch.setattr(_roots, "_MAX_EVALUATIONS", budget)
            calls.clear()
            increasing_root(f, 0.5, "step")
            assert calls[:2] == [0.5, -3.5]
            assert len(calls) == 2 + budget

    def test_newton_step_past_the_bracket_bisects(self):
        # plain Newton on atan diverges from |x - 0.3| > 1.39: from 30 the
        # search pushes down to -2, and the Newton step from there, to 5.3,
        # leaves the bracket [-2, 2]
        calls = []
        f = lambda x: calls.append(x) or (math.atan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2))
        x, _, (b_lo, b_hi) = increasing_root(f, 30.0, "atan")
        assert b_lo <= 0.3 <= b_hi
        assert b_hi - b_lo <= self._stop_width(b_lo, b_hi)
        assert x in (b_lo, b_hi) and abs(x - 0.3) <= 1e-15
        # once both sides are known, no evaluation leaves the bracket
        lo, hi = -math.inf, math.inf
        for point in calls:
            if lo > -math.inf and hi < math.inf:
                assert lo < point < hi
            if point < 0.3:
                lo = max(lo, point)
            else:
                hi = min(hi, point)
        assert 0.0 in calls  # the midpoint of [-2, 2]

    def test_flat_steps_below_the_root_double_the_step(self):
        # f is constant on steps 2^-20 wide, far above the stop width: from
        # 0.3 each Newton step lands on the same flat step, so the search
        # doubles its last step until it crosses the edge above the root
        edge = math.ceil(0.3 * 2**20) / 2**20
        f = lambda x: (math.floor(x * 2**20) / 2**20 - 0.3, 1.0)
        x, _, (b_lo, b_hi) = increasing_root(f, 0.0, "stairs")
        assert b_lo < edge <= b_hi and x == b_hi == edge
        assert b_hi - b_lo <= self._stop_width(b_lo, b_hi)

    def test_no_sign_change_is_labeled(self):
        with pytest.raises(ConvergenceError) as info:
            increasing_root(lambda x: (1.0, 0.0), 0.0, "constant")
        lo, hi = info.value.bracket
        assert lo == -math.inf and hi < -200.0


class TestEdgeRoot:
    @pytest.mark.parametrize("edge", [1.0, 0.75])
    @pytest.mark.parametrize("a", [0.3, 3.0, 8.9, 9.0, 9.1, 300.0, 1e200, sys.float_info.max])
    def test_closed_form_root(self, a, edge):
        # 1 = A / (3 (S^2 - edge^2)), root S^2 = edge^2 + A/3, with S^2 - edge^2
        # = u (2 edge + u) for u = S - edge; S = 2 at A = 9 for edge 1
        def f(w):
            u = math.exp(w)
            d = u * (2.0 * edge + u)
            return 1.0 - a / 3.0 / d, a / 3.0 / d * ((2.0 * edge + 2.0 * u) * u / d)

        S, w, r, (lo, hi) = edge_root(f, a, edge, -math.inf, "closed form")
        with localcontext() as context:
            context.prec = 40
            exact = (Decimal(edge) ** 2 + Decimal(a) / 3).sqrt()
            log_excess = float((exact - Decimal(edge)).ln())
        assert lo <= w <= hi and r == f(w)[0]
        if S < 2.0:  # w within the search's stop width, and S = edge + e^w
            assert w == pytest.approx(log_excess, abs=1e-15) and S == edge + math.exp(w)
        else:  # the closing step on S resolves it to rounding
            assert S == pytest.approx(float(exact), rel=2 * sys.float_info.epsilon, abs=0.0)

    def test_a_failed_search_names_the_coupling(self, monkeypatch):
        # the search's label gets " at A = ..." only when it fails, with the search's bracket
        with pytest.raises(ConvergenceError) as info:
            edge_root(lambda w: (1.0, 0.0), 2.5, 1.0, -math.inf, "constant")
        lo, hi = info.value.bracket
        assert str(info.value) == f"no sign change below {hi!r} in constant at A = 2.5" and lo == -math.inf
        monkeypatch.setattr(_roots, "_MAX_EXPANSIONS", 1)
        with pytest.raises(ConvergenceError) as info:
            solve_zero_sound(1.0)
        assert str(info.value) == f"no sign change above {info.value.bracket[0]!r} in ln(S - 1) at A = 1.0"

    def test_the_start_is_the_largest_estimate(self):
        # the caller's low estimate wins over ln 2 - 2 - 2/A and ln(S_e - 1)
        calls = []
        f = lambda w: calls.append(w) or (math.tanh(w), 1.0 - math.tanh(w) ** 2)
        for low, start in ((-math.inf, math.log(2.0) - 4.0), (-0.5, -0.5)):
            calls.clear()
            edge_root(f, 1.0, 1.0, low, "tanh")
            assert calls[0] == start


class TestAsymptoticZeroSound:
    def test_closed_form_is_exact_in_floating_point(self):
        for a in (0.01, 0.3, 1.0, 7.0):
            point = asymptotic_zero_sound(a)
            assert point.S_minus_1 == 2.0 * math.exp(-2.0 - 2.0 / a)
        assert asymptotic_zero_sound(1.0).S_minus_1 == 2.0 * math.exp(-4.0)

    def test_weak_coupling_accuracy_improves_toward_zero(self):
        deviations = []
        for a in (0.3, 0.2, 0.1, 0.06):
            exact_u = solve_zero_sound(a).S_minus_1
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
        assert SolverConfig().tolerance == 1e-12

    def test_validation(self):
        for tolerance in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(InvalidArgumentError, match="tolerance"):
                SolverConfig(tolerance=tolerance)


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

    def test_both_spacings_hit_both_endpoints(self):
        # the log formula alone ends at 1.9999999999999998 and 1.0000000000000008e-150
        for k_min, k_max, count in ((0.1, 2.0, 10), (1e-170, 1e-150, 4)):
            for spacing in ("linear", "log"):
                ks = GridSpec(k_min, k_max, count, spacing=spacing).values()
                assert len(ks) == count
                assert ks[0] == k_min and ks[-1] == k_max
                assert all(b > a for a, b in zip(ks, ks[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=1e-300, max_value=1e300),
        st.floats(min_value=1.0 + 1e-9, max_value=1e6),
        st.integers(min_value=2, max_value=400),
        st.sampled_from(("linear", "log")),
    )
    def test_endpoints_exact_on_any_grid(self, k_min, span, count, spacing):
        k_max = k_min * span
        ks = GridSpec(k_min, k_max, count, spacing=spacing).values()
        assert ks[0] == k_min and ks[-1] == k_max

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

    def test_count_must_be_an_integer(self):
        for count in (2.5, 3.0):
            with pytest.raises(InvalidArgumentError, match="count must be an integer"):
                GridSpec(1.0, 2.0, count)
        assert GridSpec(1.0, 2.0, np.int64(3)).values() == GridSpec(1.0, 2.0, 3).values()

    def test_count_ceiling(self):
        assert GridSpec(0.1, 1.0, MAX_SCAN_POINTS).count == MAX_SCAN_POINTS
        for count in (MAX_SCAN_POINTS + 1, 2**62):
            with pytest.raises(InvalidArgumentError, match="count"):
                GridSpec(0.1, 1.0, count)

    def test_overflowing_log_span_rejected(self):
        # k_max / k_min = inf would make the first values nan and inf
        for k_min, k_max in ((1e-320, 1e10), (1e-300, 1e300)):
            with pytest.raises(InvalidArgumentError) as exc:
                GridSpec(k_min, k_max, 4, spacing="log")
            assert repr(k_min) in str(exc.value) and repr(k_max) in str(exc.value)
            # the span is fine on a linear grid and on a single point
            assert GridSpec(k_min, k_max, 4).values()[-1] == k_max
            assert GridSpec(k_min, k_max, 1, spacing="log").values() == [k_min]

    def test_widest_finite_log_span_stays_finite(self):
        ks = GridSpec(1e-300, 1e8, 5, spacing="log").values()
        assert all(math.isfinite(k) for k in ks)
        assert ks[0] == 1e-300 and ks[-1] == 1e8
        assert all(b > a for a, b in zip(ks, ks[1:]))


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
