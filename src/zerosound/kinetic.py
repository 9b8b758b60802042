"""Discrete kinetic description of the mode, independent of the solver.

The linearized kinetic equation on N Gauss-Legendre direction nodes
mu_i = cos(theta_i),

    dF_i/dt = -i mu_i (F_i + A <F>),      <F> = (1/2) sum_j w_j F_j,

gives two cross-checks of the analytic dispersion relation: the discrete
secular equation (a matrix eigenproblem in disguise) and direct time
evolution followed by spectral estimation.  The secular root shares only
the generic bracketed root-finder with the exact solver, never a kernel
evaluation; the time-domain oracle (RK4, evolved in blocks of steps from
the diagonal-plus-rank-4 form of its step) shares nothing.
S and frequency are in continuum-edge units (time in 1/(k v_F)), so the
collective line of the evolved signal sits at omega = S.

numpy is imported on first use, inside each function that needs it:
importing this module, and with it the package and the solve and scan
commands, loads no numpy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._roots import increasing_root
from .errors import (
    InvalidArgumentError,
    NoCollectivePeakError,
    NoUndampedRootError,
    NumericalBlowupError,
)
from .model import _require_count, _require_positive, as_coupling

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
    "MAX_GRID_SIZE",
    "MAX_STEPS",
]

# the time evolution has a single implementation, the blocked numpy
# evolution in _rk4_trace below
BACKEND = "numpy"

# size ceilings, checked before anything is allocated: the grid build is
# O(N^2) vector work (about 30 s at the ceiling), and the trace of
# MAX_STEPS steps holds 256 MiB before its 4x zero-padded transform
MAX_GRID_SIZE = 2**16
MAX_STEPS = 2**24


@dataclass(frozen=True)
class AngularGrid:
    """Gauss-Legendre nodes and weights on mu in [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self):
        return self.nodes.shape[0]


def _legendre(x, n):
    import numpy as np
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
    import numpy as np
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
    """Gauss-Legendre grid of the given order; 4 to MAX_GRID_SIZE nodes.

    Nodes and weights come from Newton iteration on the Legendre
    three-term recurrence, with the final step for mu >= 1/2 taken on the
    recurrence in 1 - mu.  Against a 40-digit reference, for every size
    from 4 to 400 (and at sizes sampled up to 2000), the nodes lie within
    0.6 ulp for |mu| >= 1/2 and within 5 ulp closer to 0, and the weights
    within 3e-16 absolute.  Nodes are exactly antisymmetric, weights
    exactly symmetric, and an odd grid has the node 0.0.
    """
    size = _require_count("grid size", size, 4, "MAX_GRID_SIZE", MAX_GRID_SIZE)
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
    import numpy as np
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


def _finite_vector(name, values):
    import numpy as np
    values = np.asarray(values, dtype=np.complex128, order="C")  # _unit_scale views it as floats
    if values.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"{name} must be finite")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class AngularState:
    """Distribution amplitude on the grid nodes at t = 0, where evolution starts."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_vector("state values", self.values))


@dataclass(frozen=True)
class TimeSeries:
    """Evenly sampled angular average <F>(t), first sample at t = 0."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dt", _require_positive("dt", self.dt))
        object.__setattr__(self, "samples", _finite_vector("samples", self.samples))

    @property
    def times(self):
        import numpy as np
        return self.dt * np.arange(self.samples.shape[0])


def stability_bound(coupling):
    """Largest step size accepted by the evolver, 0.1 / (1 + max(A, 0)).

    Comfortably inside the RK4 stability region for the purely imaginary
    spectrum of this system (|lambda| <= 1 + max(A, 0): the node band alone
    reaches 1) and small enough that phase error stays below the spectral
    resolution of typical runs.
    """
    a = as_coupling(coupling).A
    if a <= -1.0:
        raise InvalidArgumentError(f"stability bound needs A > -1, got A = {a!r}")
    return 0.1 / (1.0 + max(a, 0.0))


def _unit_scale(x):
    import numpy as np
    # x = 2^e u with the largest real or imaginary part of u in [0.5, 1) (e = 0
    # for x = 0): a power-of-two scaling is exact, so the linear evolution and
    # transform run on u, where nothing overflows, and only results scale back
    e = math.frexp(float(np.max(np.abs(x.view(np.float64)))))[1]
    return np.ldexp(x.view(np.float64), -e).view(np.complex128), e


def _scale_back(what, x, e):
    import numpy as np
    largest = float(np.max(np.abs(x)))
    if math.frexp(largest)[1] + e > sys.float_info.max_exp:
        raise NumericalBlowupError(f"{what} {largest!r} * 2**{e} exceeds the float range; "
                                   "a smaller initial amplitude avoids it")
    return np.ldexp(x.view(np.float64), e).view(x.dtype)


def _block_size(n):
    # steps per block: the factors F (5B x N) and W (4B x N) hold 144 B N
    # bytes, kept within 1 MiB, so memory stays O(N) up to MAX_GRID_SIZE
    return min(64, max(1, 2**20 // (144 * n)))


def _row_powers(t, e, U, C, count):
    import numpy as np
    # t, t M, ..., t M^(count-1) for M = I + diag(e) + U C, one row at a time
    rows = np.empty((count, t.shape[0]), dtype=np.complex128)
    for m in range(count):
        rows[m] = t
        t = t + (t * e + (t @ U) @ C)
    return rows


def _rk4_trace(y, mu, half_w, a, dt, steps):
    import numpy as np
    # dy/dt = L y with (L y)_i = -i mu_i (y_i + a <y>), <y> = sum_j half_w_j y_j,
    # so L = diag(lam) + u v^T with lam = -i mu, u = a lam and v = half_w.  L is
    # linear and constant, so one classical RK4 step is the degree-4 Taylor
    # polynomial M = R(hL), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and
    # L^k = diag(lam^k) + sum_{p<k} diag(lam^p) u v^T L^(k-1-p) makes it a
    # diagonal plus rank 4:
    #   M = diag(d) + U C,  d = R(h lam),  U = [u, lam u, lam^2 u, lam^3 u],
    #   C_p = sum_{k=p+1..4} h^k/k! v^T L^(k-1-p).
    # From the state y at the start of a block of B steps, the samples are
    # v^T M^m y (m < B), and the state moves on by
    #   M^B = diag(d^B) + sum_{m<B} diag(d^(B-1-m)) U C M^m.
    # F stacks the rows v^T M^m and C M^m, W the rows d^(B-1-m) U^T, so a
    # block is F @ y, one product with W and one elementwise product: no
    # matrix-matrix product and no eigenvalues.  d and d^B enter as d - 1
    # and d^B - 1, added to the identity last, as the RK4 stages add to y:
    # a rounded d ~ 1 would drift the amplitude by up to half an ulp per step.
    n = mu.shape[0]
    # from A ~ 1e115 up the powers of L overflow and the factors hold inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        lam = -1j * mu
        z = dt * lam
        e = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))  # d - 1
        cols = [a * lam]
        rows = [half_w]  # v^T L^m, from t L = t lam + (t . u) v
        for _ in range(3):
            cols.append(lam * cols[-1])
            rows.append(rows[-1] * lam + (rows[-1] @ cols[0]) * half_w)
        U = np.stack(cols, axis=1)
        C = np.array([
            sum(dt**k / math.factorial(k) * rows[k - 1 - p] for k in range(p + 1, 5))
            for p in range(4)
        ])

        b = _block_size(n)
        F = np.concatenate([_row_powers(t, e, U, C, b) for t in (half_w, *C)])
        excess = np.zeros((b + 1, n), dtype=np.complex128)  # excess[m] = d^m - 1
        for m in range(b):
            excess[m + 1] = excess[m] + e * (1.0 + excess[m])
        # row p B + m of W is d^(B-1-m) U_p, to meet row B + p B + m of F
        W = (U.T[:, None, :] * (1.0 + excess[b - 1 :: -1])).reshape(4 * b, n)
        e_b = excess[b]
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(W))):
        raise NumericalBlowupError(f"RK4 step factors are not finite (dt = {dt!r}, A = {a!r})")

    total = steps + 1
    trace = np.empty(total, dtype=np.complex128)
    for start in range(0, total, b):
        block = F @ y
        stop = min(start + b, total)
        trace[start:stop] = block[: stop - start]
        y = y + (e_b * y + block[b:] @ W)
    return trace


def evolve_initial_value(coupling, grid, initial, dt, steps):
    """Integrate the node amplitudes with classical RK4, tracing <F>(t).

    Returns steps + 1 samples including the initial instant.  dt must not
    exceed stability_bound(coupling), and steps must lie in
    [2, MAX_STEPS]; a violation is rejected up front.  The run is at unit
    scale: a state times 2^k gives the trace times 2^k, bit for bit, and
    NumericalBlowupError means that this trace, or the step's factors (A
    above about 1e115), leave the float range.  The steps are taken in
    blocks of B = min(64, max(1, 2**20 // (144 N))) on N nodes, each block
    a few matrix-vector products with factors of 144 B N bytes (1 MiB for
    N <= 7281); the trace agrees with the stage-by-stage RK4 loop to rounding.
    """
    c = as_coupling(coupling)
    dt = _require_positive("dt", dt)
    bound = stability_bound(c)
    if dt > bound:
        raise InvalidArgumentError(f"dt = {dt!r} exceeds the stability bound {bound!r} at A = {c.A!r}")
    steps = _require_count("steps", steps, 2, "MAX_STEPS", MAX_STEPS)
    if initial.values.shape[0] != grid.size:
        raise InvalidArgumentError(f"state has {len(initial.values)} values for a grid of {grid.size}")
    y, e = _unit_scale(initial.values)
    trace = _rk4_trace(y, grid.nodes, 0.5 * grid.weights, c.A, dt, steps)
    return TimeSeries(dt=dt, samples=_scale_back("trace modulus", trace, e))


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
    unpadded record.  The transform runs at unit scale, so the frequency
    does not depend on the amplitude of the trace and the peak amplitude
    scales with it, from subnormal samples up; a peak amplitude above the
    float range raises NumericalBlowupError.
    """
    import numpy as np
    if window not in ("hann", "none"):
        raise InvalidArgumentError(f"window must be 'hann' or 'none', got {window!r}")
    x = series.samples
    n = x.shape[0]
    if n < 64:
        raise InvalidArgumentError(f"need at least 64 samples, got {n}")
    dt = series.dt
    xw, e = _unit_scale(x * np.hanning(n) if window == "hann" else x)

    n_pad = _PAD_FACTOR * n
    # energy of a flat spectrum: every padded bin of pure noise sits near
    # E / sqrt(n_pad) on average, and sum |X_k|^2 = n_pad sum |x_j|^2, so
    # a genuine line must clear a fixed multiple of the rms level; at unit
    # scale no |x_j|^2 overflows, and the largest does not underflow
    energy = math.sqrt(float(np.sum(np.abs(xw) ** 2)))
    if energy == 0.0:
        raise NoCollectivePeakError("signal is identically zero")
    mag = np.abs(np.fft.fft(np.conj(xw), n=n_pad)) / math.sqrt(n_pad)
    d_omega = 2.0 * math.pi / (n_pad * dt)

    k_min = int(math.floor(1.0 / d_omega)) + 1  # first bin strictly above the band
    k_max = n_pad // 2  # Nyquist
    if k_max - k_min < 3:
        raise InvalidArgumentError(f"no searchable band above the continuum at dt = {dt!r}")

    j = k_min + int(np.argmax(mag[k_min:k_max]))
    # a leakage skirt from the band below rolls off monotonically, putting
    # its maximum on the band edge; a real line is an interior maximum
    if j == k_min or j >= k_max - 1:
        raise NoCollectivePeakError("no interior maximum above the continuum band")
    la, peak, lg = _scale_back("peak amplitude", mag[j - 1 : j + 2], e).tolist()
    if mag[j] <= _FLOOR_FACTOR * energy / math.sqrt(n_pad):
        raise NoCollectivePeakError(
            f"band maximum {peak!r} does not clear the noise floor at omega = {j * d_omega!r}"
        )

    shift = 0.0
    if la > 0.0 and lg > 0.0:
        la, lb, lg = math.log(la), math.log(peak), math.log(lg)
        denom = la - 2.0 * lb + lg
        if denom < 0.0:
            shift = 0.5 * (la - lg) / denom
            if not -0.75 <= shift <= 0.75:  # interpolation left its trust region
                shift = 0.0
    return SpectralPeak(frequency=(j + shift) * d_omega, amplitude=peak,
                        bin_width=2.0 * math.pi / (n * dt))
