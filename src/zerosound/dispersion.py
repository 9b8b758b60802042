"""Dispersion relation of the collective mode and its solvers.

The undamped mode at coupling A > 0 is the root S > 1 of

    1 = A F(S),      F(S) = (S/2) ln((S+1)/(S-1)) - 1.

F decreases strictly from +inf at S -> 1+ to 0 as S -> inf, so the root
exists and is unique for every positive A.  Near the continuum edge the
interesting quantity is the excess u = S - 1, which collapses double
exponentially as A -> 0; the solver therefore works in v = ln u, where
the problem is smooth and every representable coupling keeps a
representable root.
"""

import math
import sys
from dataclasses import dataclass

from ._roots import increasing_root
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidArgumentError,
    NoUndampedRootError,
    ZeroSoundError,
)
from .model import (
    DispersionPoint,
    InteractionModel,
    Method,
    as_coupling,
    coupling_strength,
)

__all__ = [
    "SolverConfig",
    "GridSpec",
    "BranchScan",
    "landau_kernel",
    "dispersion_residual",
    "solve_zero_sound",
    "asymptotic_zero_sound",
    "high_frequency_branch",
    "branch_scan",
]

_LN2 = math.log(2.0)
# smallest coupling whose weak-coupling exponent -2 - 2/A is finite
_MIN_COUPLING = math.nextafter(2.0 / sys.float_info.max, 1.0)


@dataclass(frozen=True)
class SolverConfig:
    """Tunable knobs of the exact solver.

    tolerance bounds the accepted |residual| of the returned root.
    asymptotic_switch_A is the coupling below which the closed-form
    weak-coupling branch is returned instead of iterating; at the default
    0.06 the two agree to about 3e-14 in S - 1, far inside the residual
    tolerance, and the closed form stays evaluable when S - 1 underflows.
    """

    tolerance: float = 1e-12
    max_iterations: int = 200
    asymptotic_switch_A: float = 0.06

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InvalidArgumentError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise InvalidArgumentError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if not (math.isfinite(self.asymptotic_switch_A) and self.asymptotic_switch_A >= 0.0):
            raise InvalidArgumentError(
                f"asymptotic_switch_A must be non-negative, got {self.asymptotic_switch_A!r}"
            )


def _kernel_series(S):
    # F = sum_{j>=1} S^{-2j} / (2j + 1); converges fast for S >= 2
    t2 = 1.0 / (S * S)
    power = t2
    total = power / 3.0
    j = 2
    while True:
        power *= t2
        term = power / (2 * j + 1)
        new_total = total + term
        if new_total == total:
            return total
        total = new_total
        j += 1


def _kernel_near_edge(u, ln_u):
    # F(1 + u) from the excess u and its log, which stays exact when u underflows
    return 0.5 * (1.0 + u) * (math.log1p(1.0 + u) - ln_u) - 1.0


def _kernel_from_log_excess(v):
    # F(1 + e^v) for v <= 0, stable down to v ~ -1e308; exp may underflow to 0
    return _kernel_near_edge(math.exp(v), v)


def landau_kernel(S):
    """F(S) = (S/2) ln((S+1)/(S-1)) - 1 for S > 1.

    Evaluated as a series in 1/S^2 for S >= 2 and through the excess
    u = S - 1 below, so no accuracy is lost on either side of the
    continuum edge or at large S where the log form cancels.
    """
    if not math.isfinite(S):
        raise InvalidArgumentError(f"S must be finite, got {S!r}")
    if S <= 1.0:
        raise DomainError(f"kernel defined for S > 1 only, got {S!r}")
    if S >= 2.0:
        return _kernel_series(S)
    u = S - 1.0  # exact: S in (1, 2)
    return _kernel_near_edge(u, math.log(u))


def dispersion_residual(S, coupling):
    """Defect 1 - A F(S) of the dispersion relation; zero at the mode."""
    c = as_coupling(coupling)
    return 1.0 - c.A * landau_kernel(S)


def _residual_log(v, a):
    # residual as a function of v = ln(S - 1); increasing in v
    if v >= 0.0:
        return 1.0 - a * _kernel_series(1.0 + math.exp(v))
    return 1.0 - a * _kernel_from_log_excess(v)


def _positive_coupling(coupling):
    c = as_coupling(coupling)
    if c.A <= 0.0:
        raise NoUndampedRootError(f"no undamped mode for A <= 0 (A = {c.A!r})")
    if c.A < _MIN_COUPLING:
        raise InvalidArgumentError(
            f"A = {c.A!r} is below the smallest supported coupling {_MIN_COUPLING!r} (2/A overflows)"
        )
    return c


def _point_from_log_excess(c, v, residual, method):
    u = math.exp(v)  # may underflow; S then rounds to the band edge
    return DispersionPoint(
        k_lambda_d=c.k_lambda_d,
        Q0=c.Q0,
        A=c.A,
        S=1.0 + u,
        S_minus_1=u,
        log_excess=v,
        method=method,
        residual=residual,
    )


def asymptotic_zero_sound(coupling):
    """Weak-coupling closed form S = 1 + 2 exp(-2 - 2/A).

    Valid for A << 1 but evaluable for any A > 0; the log of the excess is
    kept exactly so the point stays meaningful when 2 exp(-2 - 2/A)
    underflows (A below about 0.0029), down to the smallest supported
    coupling 1.112536929253601e-308, below which 2/A overflows and
    InvalidArgumentError is raised.
    """
    c = _positive_coupling(coupling)
    exponent = -2.0 - 2.0 / c.A
    excess = 2.0 * math.exp(exponent)
    v = _LN2 + exponent
    return DispersionPoint(
        k_lambda_d=c.k_lambda_d,
        Q0=c.Q0,
        A=c.A,
        S=1.0 + excess,
        S_minus_1=excess,
        log_excess=v,
        method=Method.ASYMPTOTIC_ZERO_SOUND,
        residual=_residual_log(v, c.A),
    )


def solve_zero_sound(coupling, config=None):
    """Root of 1 = A F(S) above the continuum, to |residual| <= tolerance.

    Bisection on v = ln(S - 1) from an analytic starting bracket, narrowed
    to width 1e-15 and polished with one secant step.  Below
    config.asymptotic_switch_A the closed-form branch is returned directly.
    Raises NoUndampedRootError for A <= 0, InvalidArgumentError below the
    smallest supported coupling (see asymptotic_zero_sound) and
    ConvergenceError if the residual target is missed within the
    iteration budget.
    """
    c = _positive_coupling(coupling)
    cfg = config if config is not None else SolverConfig()
    if c.A < cfg.asymptotic_switch_A:
        return asymptotic_zero_sound(c)

    a = c.A
    # lower end: one unit below the weak-coupling estimate of v
    v_lo = (_LN2 - 2.0 - 2.0 / a) - 1.0
    # upper end: past the strong-coupling estimate S ~ 2 sqrt(A/3)
    v_hi = math.log(max(10.0, 2.0 * math.sqrt(a / 3.0) + 2.0) - 1.0)
    v_best, r_best, bracket = increasing_root(
        lambda v: _residual_log(v, a), v_lo, v_hi, cfg.max_iterations, f"ln(S - 1) at A = {a!r}"
    )
    if not abs(r_best) <= cfg.tolerance:
        raise ConvergenceError(
            f"residual {r_best!r} above tolerance {cfg.tolerance!r} for A = {a!r}",
            bracket,
        )
    return _point_from_log_excess(c, v_best, r_best, Method.EXACT)


def high_frequency_branch(Q0, k_lambda_d, mass_convention="effective", params=None):
    """Short-wavelength branch S^2 = Q0/3 + (k lambda_d)^2 (m*/m)^2 / 4.

    The mass factor is 1 in the 'effective' convention (lambda_d built
    from the quasiparticle velocity) and (m*/m)^2 in the 'bare' one; the
    latter needs a parameter set to know the ratio.  The returned point
    may legitimately fall below the continuum edge (S <= 1) near the
    branch's validity boundary; it is flagged, not rejected.
    """
    model = InteractionModel(Q0)
    c = coupling_strength(model, k_lambda_d)
    if c.Q0 == 0.0 and c.k_lambda_d == 0.0:
        raise InvalidArgumentError("high-frequency branch undefined at Q0 = 0, k_lambda_d = 0")
    if mass_convention == "effective":
        factor = 1.0
    elif mass_convention == "bare":
        factor = params.mass_ratio**2 if params is not None else 1.0
    else:
        raise InvalidArgumentError(f"unknown mass convention {mass_convention!r}")
    S = math.sqrt(c.Q0 / 3.0 + 0.25 * c.k_lambda_d**2 * factor)
    excess = S - 1.0
    residual = dispersion_residual(S, c) if S > 1.0 else None
    point = DispersionPoint(
        k_lambda_d=c.k_lambda_d,
        Q0=c.Q0,
        A=c.A,
        S=S,
        S_minus_1=excess,
        log_excess=math.log(excess) if excess > 0.0 else None,
        method=Method.ASYMPTOTIC_HIGH_FREQUENCY,
        residual=residual,
    )
    if params is not None:
        point = point.with_omega(params)
    return point


@dataclass(frozen=True)
class GridSpec:
    """Wavenumber grid for a branch scan, in units of 1/lambda_d."""

    k_min: float
    k_max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        if not (math.isfinite(self.k_min) and self.k_min > 0.0):
            raise InvalidArgumentError(f"k_min must be positive, got {self.k_min!r}")
        if not (math.isfinite(self.k_max) and self.k_max >= self.k_min):
            raise InvalidArgumentError(f"k_max must be >= k_min, got {self.k_max!r}")
        if self.count < 1:
            raise InvalidArgumentError(f"count must be >= 1, got {self.count!r}")
        if self.count >= 2 and self.k_max == self.k_min:
            raise InvalidArgumentError("k_max must exceed k_min for a multi-point grid")
        if self.spacing not in ("linear", "log"):
            raise InvalidArgumentError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")

    def values(self):
        if self.count == 1:
            return [self.k_min]
        n = self.count
        if self.spacing == "log":
            ratio = math.log(self.k_max / self.k_min)
            return [self.k_min * math.exp(ratio * i / (n - 1)) for i in range(n)]
        step = (self.k_max - self.k_min) / (n - 1)
        ks = [self.k_min + step * i for i in range(n)]
        ks[-1] = self.k_max  # endpoint exact despite rounding in the sum
        return ks


@dataclass(frozen=True)
class BranchScan:
    """Dispersion points over a wavenumber grid, in grid order.

    failures lists (k_lambda_d, error label) pairs for grid points where
    no undamped mode exists; they are skipped, not fatal.
    """

    grid: GridSpec
    points: tuple
    failures: tuple = ()


def branch_scan(model, grid, config=None, params=None):
    """Solve the zero-sound branch on every wavenumber of the grid."""
    points = []
    failures = []
    for k in grid.values():
        c = coupling_strength(model, k)
        try:
            point = solve_zero_sound(c, config)
        except ZeroSoundError as exc:
            failures.append((k, exc.label))
            continue
        if params is not None:
            point = point.with_omega(params)
        points.append(point)
    return BranchScan(grid=grid, points=tuple(points), failures=tuple(failures))
