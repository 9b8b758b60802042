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


def build_angular_grid(size):
    """Quadrature grid of the given order; at least 4 nodes."""
    if size < 4:
        raise InvalidArgumentError(f"grid size must be >= 4, got {size!r}")
    nodes, weights = np.polynomial.legendre.leggauss(size)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return AngularGrid(nodes=nodes, weights=weights)


def secular_sum(S, grid):
    """Discrete kernel (1/2) sum_i w_i mu_i / (S - mu_i).

    Converges geometrically to the continuum kernel as the grid grows,
    for S outside [-1, 1].
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
        from .errors import NoUndampedRootError

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


def _rk4_trace(y0, mu, half_w, a, dt, steps):
    # dy_i/dt = -i mu_i (y_i + a <y>), <y> = sum_j half_w_j y_j
    imu = -1j * mu
    sixth = dt / 6.0
    trace = np.empty(steps + 1, dtype=np.complex128)
    y = y0.copy()
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
    y0 = np.ascontiguousarray(initial.values, dtype=np.complex128)
    half_w = np.ascontiguousarray(0.5 * grid.weights)
    mu = np.ascontiguousarray(grid.nodes)
    trace = _rk4_trace(y0, mu, half_w, c.A, float(dt), int(steps))
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
