"""Discrete kinetic description of the mode, independent of the solver.

The linearized kinetic equation on N Gauss-Legendre direction nodes
mu_i = cos(theta_i),

    dF_i/dt = -i mu_i (F_i + A <F>),      <F> = (1/2) sum_j w_j F_j,

gives two cross-checks of the analytic dispersion relation: the discrete
secular equation (a matrix eigenproblem in disguise) and direct time
evolution followed by spectral estimation.  The secular root shares only
the generic bracketed root-finder with the exact solver, never a kernel
evaluation; the time-domain oracle (one numpy RK4 loop) shares nothing.
S and frequency are in continuum-edge units (time in 1/(k v_F)), so the
collective line of the evolved signal sits at omega = S.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._roots import increasing_root
from .errors import (
    InvalidArgumentError,
    NoCollectivePeakError,
    NoUndampedRootError,
    NumericalBlowupError,
)
from .model import as_coupling

__all__ = [
    "AngularGrid",
    "AngularState",
    "TimeSeries",
    "SpectralPeak",
    "build_angular_grid",
    "secular_sum",
    "discrete_collective_root",
    "stability_bound",
    "evolve_initial_value",
    "spectral_peak",
    "BACKEND",
]

# the time evolution has a single implementation, the numpy loop below
BACKEND = "numpy"


@dataclass(frozen=True)
class AngularGrid:
    """Gauss-Legendre nodes and weights on mu in [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self):
        return self.nodes.shape[0]


def _legendre(x, n):
    # P_n(x) and P_{n-1}(x) - x P_n(x) = (1 - x^2) P_n'(x) / n from the
    # three-term recurrence k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, p0 - x * p1


def _legendre_near_one(x, n):
    # the same pair from the recurrence for D_k = P_k - P_{k-1} in t = 1 - x
    # (Reinsch's modification): t is exact for x >= 1/2, and the rounding
    # error stays relative to the small D_k instead of to P_k ~ 1
    t = 1.0 - x
    p, dk = x, -t
    for k in range(2, n + 1):
        dk = ((k - 1) * dk - (2 * k - 1) * t * p) / k
        p = p + dk
    return p, t * p - dk


def _gauss_legendre(n):
    # Newton on P_n over the non-negative half of the nodes, largest first,
    # from Tricomi's guess; the half is mirrored, so the rule is exactly
    # symmetric and an odd rule has the node 0.0
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    x *= 1.0 - (n - 1) / (8.0 * n**3)
    if n % 2:
        x[-1] = 0.0
    # the relative step dx / (1 - x^2) squares from one step to the next, so
    # after a step below 1e-5 one more step meets the rounding floor
    for _ in range(8):
        p, r = _legendre(x, n)
        d = (1.0 - x) * (1.0 + x)
        dx = p * d / (n * r)
        x = x - dx
        if np.max(np.abs(dx) / d) <= 1e-5:
            break
    near_one = x >= 0.5
    p, r = np.empty_like(x), np.empty_like(x)
    p[near_one], r[near_one] = _legendre_near_one(x[near_one], n)
    p[~near_one], r[~near_one] = _legendre(x[~near_one], n)
    d = (1.0 - x) * (1.0 + x)
    q = n * r
    dx = p * d / q
    # w = 2 / ((1 - x^2) P_n'(x)^2), taken at the unrounded root x - dx: at a
    # root d ln w / dx = -2x / (1 - x^2), which near x = 1 turns a sub-ulp
    # dx into a relative weight change far above rounding
    w = 2.0 * d / (q * q) * (1.0 + 2.0 * x * dx / d)
    x = x - dx
    m = n // 2
    return np.concatenate((-x[:m], x[::-1])), np.concatenate((w[:m], w[::-1]))


def build_angular_grid(size):
    """Gauss-Legendre grid of the given order; at least 4 nodes.

    Nodes and weights come from Newton iteration on the Legendre
    three-term recurrence, with the final step for mu >= 1/2 taken on the
    recurrence in 1 - mu.  Against a 40-digit reference, for every size
    from 4 to 400 (and at sizes sampled up to 2000), the nodes lie within
    0.6 ulp for |mu| >= 1/2 and within 5 ulp closer to 0, and the weights
    within 3e-16 absolute.  Nodes are exactly antisymmetric, weights
    exactly symmetric, and an odd grid has the node 0.0.
    """
    if size < 4:
        raise InvalidArgumentError(f"grid size must be >= 4, got {size!r}")
    nodes, weights = _gauss_legendre(size)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return AngularGrid(nodes=nodes, weights=weights)


def secular_sum(S, grid):
    """Discrete kernel (1/2) sum_i w_i mu_i / (S - mu_i).

    For S outside [-1, 1] it converges geometrically to the continuum
    kernel as the grid grows, down to a rounding floor of a few ulps of
    F(S) (at most 16 ulp for S = 1.5 on the grids of build_angular_grid
    from 32 to 400 nodes).  Below that floor the error is rounding noise:
    no ordering in the grid size is promised.
    """
    mu = grid.nodes
    return 0.5 * float(np.sum(grid.weights * mu / (S - mu)))


def discrete_collective_root(coupling, grid):
    """Root S of the secular equation 1 = A * secular_sum(S) above all nodes.

    The secular function decreases monotonically from +inf at the largest
    node to 0 at infinity, so the root is bracketed and found by bisection
    with a secant polish in w = ln(S - mu_max).
    """
    c = as_coupling(coupling)
    if c.A <= 0.0:
        raise NoUndampedRootError(f"no discrete collective root for A <= 0 (A = {c.A!r})")
    a = c.A
    mu_max = float(grid.nodes[-1])

    def h(w):
        return 1.0 - a * secular_sum(mu_max + math.exp(w), grid)

    w_lo = math.log(1e-12)
    w_hi = math.log(max(10.0, 2.0 * math.sqrt(a / 3.0) + 2.0) - mu_max)
    w, _, _ = increasing_root(h, w_lo, w_hi, 200, f"ln(S - mu_max) at A = {a!r}")
    return mu_max + math.exp(w)


@dataclass(frozen=True)
class AngularState:
    """Distribution amplitude on the grid nodes at one instant."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 1:
            raise InvalidArgumentError(f"state must be one-dimensional, got shape {values.shape}")
        if not np.all(np.isfinite(values.view(np.float64))):
            raise InvalidArgumentError("state values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class TimeSeries:
    """Evenly sampled angular average <F>(t), first sample at t = 0."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def times(self):
        return self.dt * np.arange(self.samples.shape[0])


def stability_bound(coupling):
    """Largest step size accepted by the evolver, 0.1 / (1 + A).

    Comfortably inside the RK4 stability region for the purely imaginary
    spectrum of this system (|lambda| <= 1 + A) and small enough that
    phase error stays below the spectral resolution of typical runs.
    """
    return 0.1 / (1.0 + as_coupling(coupling).A)


def _rk4_trace(y, mu, half_w, a, dt, steps):
    # dy/dt = L y with (L y)_i = -i mu_i (y_i + a <y>), <y> = sum_j half_w_j y_j.
    # L is linear and constant, so one classical RK4 step is the degree-4
    # Taylor polynomial of exp(dt L), taken here in Horner form:
    # y + hL(y + (h/2)L(y + (h/3)L(y + (h/4)L y)))
    gains = [-1j * mu * dt / k for k in (4, 3, 2, 1)]
    trace = np.empty(steps + 1, dtype=np.complex128)
    s = trace[0] = half_w @ y
    for step in range(1, steps + 1):
        x = y
        for g in gains:
            x = y + g * (x + a * s)
            s = half_w @ x
        y = x
        trace[step] = s
    return trace


def evolve_initial_value(coupling, grid, initial, dt, steps):
    """Integrate the node amplitudes with classical RK4, tracing <F>(t).

    Returns steps + 1 samples including the initial instant.  dt must not
    exceed stability_bound(coupling); a violation is rejected up front.
    Non-finite values in the produced trace raise NumericalBlowupError.
    """
    c = as_coupling(coupling)
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidArgumentError(f"dt must be positive, got {dt!r}")
    bound = stability_bound(c)
    if dt > bound:
        raise InvalidArgumentError(f"dt = {dt!r} exceeds the stability bound {bound!r} at A = {c.A!r}")
    if steps < 2:
        raise InvalidArgumentError(f"steps must be >= 2, got {steps!r}")
    if initial.values.shape[0] != grid.size:
        raise InvalidArgumentError(
            f"state has {initial.values.shape[0]} values for a grid of {grid.size}"
        )
    # an overflow shows up as non-finite samples, reported just below
    with np.errstate(over="ignore", invalid="ignore"):
        trace = _rk4_trace(initial.values, grid.nodes, 0.5 * grid.weights, c.A, float(dt), int(steps))
    if not np.all(np.isfinite(trace.view(np.float64))):
        raise NumericalBlowupError(f"evolution produced non-finite values (dt = {dt!r}, A = {c.A!r})")
    return TimeSeries(dt=float(dt), samples=trace)


@dataclass(frozen=True)
class SpectralPeak:
    """Dominant line above the continuum band in a complex time series."""

    frequency: float
    amplitude: float
    bin_width: float


_PAD_FACTOR = 4
_FLOOR_FACTOR = 4.0


def spectral_peak(series, window="hann"):
    """Locate the collective line at omega > 1 in an evolved trace.

    The signal rotates as exp(-i omega t), so the conjugate spectrum is
    searched on the positive frequency axis between the continuum edge
    and Nyquist.  The grid maximum is refined by quadratic interpolation
    of log magnitude over three bins (on a 4x zero-padded transform), and
    must both rise a factor 4 above the flat-spectrum level and sit
    strictly inside the search band; otherwise no collective peak is
    declared.  bin_width reports the resolution 2 pi / (dt n) of the
    unpadded record.
    """
    if window not in ("hann", "none"):
        raise InvalidArgumentError(f"window must be 'hann' or 'none', got {window!r}")
    x = np.asarray(series.samples, dtype=np.complex128)
    n = x.shape[0]
    if n < 64:
        raise InvalidArgumentError(f"need at least 64 samples, got {n}")
    dt = series.dt

    if window == "hann":
        w = np.hanning(n)
    else:
        w = np.ones(n)
    xw = x * w

    # energy of a flat spectrum: every padded bin of pure noise sits near
    # E / sqrt(n_pad) on average, and sum |X_k|^2 = n_pad sum |x_j|^2, so
    # a genuine line must clear a fixed multiple of the rms level
    energy = math.sqrt(float(np.sum(np.abs(xw) ** 2)))
    if energy == 0.0:
        raise NoCollectivePeakError("signal is identically zero")

    n_pad = _PAD_FACTOR * n
    spectrum = np.fft.fft(np.conj(xw), n=n_pad)
    mag = np.abs(spectrum) / math.sqrt(n_pad)
    d_omega = 2.0 * math.pi / (n_pad * dt)

    k_min = int(math.floor(1.0 / d_omega)) + 1  # first bin strictly above the band
    k_max = n_pad // 2  # Nyquist
    if k_max - k_min < 3:
        raise InvalidArgumentError(f"no searchable band above the continuum at dt = {dt!r}")

    band = mag[k_min:k_max]
    j = k_min + int(np.argmax(band))
    peak = mag[j]
    # a leakage skirt from the band below rolls off monotonically, putting
    # its maximum on the band edge; a real line is an interior maximum
    if j == k_min or j >= k_max - 1:
        raise NoCollectivePeakError("no interior maximum above the continuum band")
    if peak <= _FLOOR_FACTOR * energy / math.sqrt(n_pad):
        raise NoCollectivePeakError(
            f"band maximum {peak!r} does not clear the noise floor at omega = {j * d_omega!r}"
        )

    la, lb, lg = mag[j - 1], mag[j], mag[j + 1]
    shift = 0.0
    if la > 0.0 and lg > 0.0:
        la, lb, lg = math.log(la), math.log(lb), math.log(lg)
        denom = la - 2.0 * lb + lg
        if denom < 0.0:
            shift = 0.5 * (la - lg) / denom
            if not -0.75 <= shift <= 0.75:  # interpolation left its trust region
                shift = 0.0
    return SpectralPeak(
        frequency=(j + shift) * d_omega,
        amplitude=float(peak),
        bin_width=2.0 * math.pi / (n * dt),
    )
