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

from __future__ import annotations

import math
import sys

from ._roots import edge_root
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
    _record,
    _require_count,
    _require_finite,
    _require_positive,
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
    "MAX_SCAN_POINTS",
]

_LN2 = math.log(2.0)
# smallest coupling whose weak-coupling exponent -2 - 2/A is finite
_MIN_COUPLING = math.nextafter(2.0 / sys.float_info.max, 1.0)
# largest GridSpec.count: a scan solves and prints one row per point
MAX_SCAN_POINTS = 2**20


@_record
class SolverConfig:
    """Accuracy contract of the solver: every returned point has |residual| <= tolerance."""

    tolerance: float = 1e-12

    def __post_init__(self):
        _require_positive("tolerance", self.tolerance)


# (2j, 2j + 1) for the terms j >= 2 of _kernel_series.  Its slowest point is
# S = 2, where term j over the total is at most 12 / (4^j (2j + 1)): below
# 2^-54 from j = 26 on, so the new term leaves the total unchanged there;
# where the terms are subnormal the sum stops by j = 27.  30 is a margin.
_SERIES_TERMS = tuple([(2.0 * j, 2.0 * j + 1.0) for j in range(2, 31)])


def _kernel_series(S, a=1.0):
    # a F = sum_{j>=1} a S^-2j / (2j + 1) and -a dF/d(ln S), the same with 2j
    # times each term; fast for S >= 2, and a S^-2 stays normal for every float A
    t2 = 1.0 / (S * S)
    power = a / S / S
    total = power / 3.0
    slope = 2.0 * total
    for two_j, odd in _SERIES_TERMS:
        power *= t2
        term = power / odd
        new_total = total + term
        if new_total == total:
            break
        total = new_total
        slope += two_j * term
    return total, slope


def _kernel_near_edge(u, ln_u):
    # F(1 + u) and -dF/d(ln u) from u and its log, which stays exact when u underflows
    log_ratio = math.log1p(1.0 + u) - ln_u
    return 0.5 * (1.0 + u) * log_ratio - 1.0, (1.0 + u) / (2.0 + u) - 0.5 * u * log_ratio


def landau_kernel(S):
    """F(S) = (S/2) ln((S+1)/(S-1)) - 1 for S > 1.

    Evaluated as a series in 1/S^2 for S >= 2 and through the excess
    u = S - 1 below, so no accuracy is lost on either side of the
    continuum edge or at large S where the log form cancels.
    """
    S = _require_finite("S", S)
    if S <= 1.0:
        raise DomainError(f"kernel defined for S > 1 only, got {S!r}")
    if S >= 2.0:
        return _kernel_series(S)[0]
    u = S - 1.0  # exact: S in (1, 2)
    return _kernel_near_edge(u, math.log(u))[0]


def dispersion_residual(S, coupling):
    """Defect 1 - A F(S) of the dispersion relation; zero at the mode."""
    c = as_coupling(coupling)
    return 1.0 - c.A * landau_kernel(S)


def _residual_log(v, a):
    # residual and its slope in v = ln(S - 1), increasing in v; for v < 0 taken
    # from u = e^v and v, stable down to v ~ -1e308, where u underflows to 0
    u = math.exp(v)
    if v >= 0.0:
        total, slope = _kernel_series(1.0 + u, a)
        return 1.0 - total, slope * u / (1.0 + u)
    kernel, slope = _kernel_near_edge(u, v)
    return 1.0 - a * kernel, a * slope


def _point(c, S, excess, log_excess, method, residual):
    return DispersionPoint(c.k_lambda_d, c.Q0, c.A, S, excess, log_excess, method, residual, None)


def _positive_coupling(coupling):
    c = as_coupling(coupling)
    if c.A <= 0.0:
        raise NoUndampedRootError(f"no undamped mode for A <= 0 (A = {c.A!r})")
    if c.A < _MIN_COUPLING:
        raise InvalidArgumentError(
            f"A = {c.A!r} is below the smallest supported coupling {_MIN_COUPLING!r} (2/A overflows)"
        )
    return c


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
    return _point(c, 1.0 + excess, excess, v, Method.ASYMPTOTIC_ZERO_SOUND, _residual_log(v, c.A)[0])


def solve_zero_sound(coupling, config=None):
    """Root of 1 = A F(S) above the continuum, to |residual| <= config.tolerance.

    Safeguarded Newton steps on v = ln(S - 1) (_roots.edge_root), with one
    last Newton step taken on S itself where S >= 2.  Below A = 0.06 the
    start is the weak-coupling closed form, so a root there takes one to
    three residuals; from 0.06 to 1e3 about 5.  The search's pushes grow
    with |v|, so it solves every supported A.  Raises NoUndampedRootError
    for A <= 0, InvalidArgumentError below the smallest supported coupling
    and ConvergenceError if no point meets the tolerance.
    """
    c = _positive_coupling(coupling)
    tolerance = config.tolerance if config is not None else SolverConfig.tolerance
    a = c.A
    S, v, residual, bracket = edge_root(lambda v: _residual_log(v, a), a, 1.0, -math.inf, "ln(S - 1)")
    u = math.exp(v)
    if S >= 2.0:  # the closing step on S moved S off v
        residual, u = 1.0 - _kernel_series(S, a)[0], S - 1.0
        v = math.log(u)
    if not abs(residual) <= tolerance:
        raise ConvergenceError(f"residual {residual!r} above tolerance {tolerance!r} for A = {a!r}", bracket)
    return _point(c, S, u, v, Method.EXACT, residual)


def high_frequency_branch(Q0, k_lambda_d, mass_convention="effective", params=None):
    """Short-wavelength branch S^2 = Q0/3 + (k lambda_d)^2 (m*/m)^2 / 4.

    The mass factor is 1 in the 'effective' convention (lambda_d built
    from the quasiparticle velocity) and (m*/m)^2 in the 'bare' one, with
    the ratio taken from params, or 1 when none is given.  The returned point
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
    log_excess = math.log(excess) if excess > 0.0 else None
    point = _point(c, S, excess, log_excess, Method.ASYMPTOTIC_HIGH_FREQUENCY, residual)
    if params is not None:
        point = point.with_omega(params)
    return point


@_record
class GridSpec:
    """Wavenumber grid for a branch scan, in units of 1/lambda_d.

    count runs from 1 to MAX_SCAN_POINTS.  A multi-point log grid needs a
    finite ratio k_max / k_min.
    """

    k_min: float
    k_max: float
    count: int
    spacing: str = "linear"

    def __post_init__(self):
        _require_positive("k_min", self.k_min)
        if _require_finite("k_max", self.k_max) < self.k_min:
            raise InvalidArgumentError(f"k_max must be >= k_min, got {self.k_max!r}")
        _require_count("count", self.count, 1, "MAX_SCAN_POINTS", MAX_SCAN_POINTS)
        if self.count >= 2 and self.k_max == self.k_min:
            raise InvalidArgumentError("k_max must exceed k_min for a multi-point grid")
        if self.spacing not in ("linear", "log"):
            raise InvalidArgumentError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and self.count >= 2 and math.isinf(self.k_max / self.k_min):
            raise InvalidArgumentError(
                f"log grid ratio k_max / k_min overflows "
                f"(k_min = {self.k_min!r}, k_max = {self.k_max!r})"
            )

    def values(self):
        if self.count == 1:
            return [self.k_min]
        n = self.count
        if self.spacing == "log":
            ratio = math.log(self.k_max / self.k_min)
            ks = [self.k_min * math.exp(ratio * i / (n - 1)) for i in range(n)]
        else:
            step = (self.k_max - self.k_min) / (n - 1)
            ks = [self.k_min + step * i for i in range(n)]
        ks[-1] = self.k_max  # endpoint exact despite rounding
        return ks


@_record
class BranchScan:
    """Dispersion points over a wavenumber grid, in grid order.

    failures lists (k_lambda_d, error label) pairs for grid points where
    no undamped mode exists or whose coupling A overflows; they are
    skipped, not fatal.
    """

    grid: GridSpec
    points: tuple
    failures: tuple = ()


def branch_scan(model, grid, config=None, params=None):
    """Solve the zero-sound branch on every wavenumber of the grid."""
    points = []
    failures = []
    for k in grid.values():
        try:
            point = solve_zero_sound(coupling_strength(model, k), config)
        except ZeroSoundError as exc:
            failures.append((k, exc.label))
            continue
        if params is not None:
            point = point.with_omega(params)
        points.append(point)
    return BranchScan(grid=grid, points=tuple(points), failures=tuple(failures))
