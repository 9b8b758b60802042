"""Discrete kinetic description of the mode, independent of the solver.

The linearized kinetic equation on N tanh-sinh direction nodes
mu_i = cos(theta_i), graded toward the band edges mu = +-1,

    dF_i/dt = -i mu_i (F_i + A <F>),      <F> = (1/2) sum_j w_j F_j,

gives two cross-checks of the analytic dispersion relation: the discrete
secular equation (a matrix eigenproblem in disguise) and direct time
evolution followed by spectral estimation.  The secular root shares only
the root solve of _roots (its start, search and closing step on S) with
the exact solver, never a kernel evaluation; the time-domain oracle
(blocked RK4 on the state's two mirror-symmetric parts, over the mu >= 0
half of the grid) shares nothing.
S and frequency are in continuum-edge units (time in 1/(k v_F)), so the
collective line of the evolved signal sits at omega = S.

numpy is imported on first use, inside each function that needs it:
importing this module, and with it the package and the solve and scan
commands, loads no numpy.
"""

from __future__ import annotations

import math
import sys

from ._roots import edge_root
from .errors import (
    DomainError,
    InvalidArgumentError,
    NoCollectivePeakError,
    NoUndampedRootError,
    NumericalBlowupError,
)
from .model import _record, _require_count, _require_finite, _require_positive, as_coupling

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

BACKEND = "numpy"  # the one evolution path, _rk4_trace below

# size ceilings, checked before anything is allocated: the grid is built in closed form, O(N)
# (2.5 ms at the ceiling); a step holds 16 B of trace, 8 more to scale it back and about 88 in
# the spectrum (window 8, real transform 32 and its scratch 32, magnitudes 16): 1.7 GB at MAX_STEPS
MAX_GRID_SIZE = 2**16
MAX_STEPS = 2**24

# the largest top node of the grid, 1 - 2^-52: s = 26.5 ln 2, t = asinh(53 ln 2 / pi) = 3.154
_S_MAX = 26.5 * math.log(2.0)
_T_MAX = math.asinh(_S_MAX / (math.pi / 2))


@_record
class AngularGrid:
    """Quadrature nodes and weights on mu in [-1, 1]; checked, mirrored about 0, read-only."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = _finite_vector("nodes", self.nodes, float)
        weights = _finite_vector("weights", self.weights, float)
        if not 0 < len(nodes) == len(weights):
            raise InvalidArgumentError(f"need one weight per node, got {len(nodes)} and {len(weights)}")
        if not ((nodes[1:] > nodes[:-1]).all() and nodes[-1] <= 1.0):
            raise InvalidArgumentError("nodes must be strictly ascending within [-1, 1]")
        if not ((nodes == -nodes[::-1]).all() and (weights == weights[::-1]).all()):
            raise InvalidArgumentError("grid must be mirrored about mu = 0")
        if not (weights > 0.0).all():
            raise InvalidArgumentError("weights must be positive")
        self.__dict__.update(nodes=nodes, weights=weights)

    @property
    def size(self):
        return self.nodes.shape[0]


def build_angular_grid(size):
    """Tanh-sinh grid of the given size; 4 to MAX_GRID_SIZE nodes.

    mu = tanh(s) and w = h (pi/2) cosh t / cosh(s)^2 with s = (pi/2) sinh t
    (Takahasi & Mori, Publ. RIMS 9, 1974), at equal steps h in t: offsets
    (j - 1/2) h for an even size, j h and the node 0.0 (weight h pi/2) for
    an odd one, mirrored about 0.  The gaps 1 - mu ~ 2 e^-2s shrink double
    exponentially toward mu = +-1, so the rule resolves the logarithm of the
    kernel down to its top gap, 1 - mu_max = 2^-52, and with it a secular
    root just above the band edge.  From 477 nodes on the top offset
    shrinks, to t = 3.00 at the ceiling, so that the top nodes stay
    distinct floats: the top gap stays 2^-52 up to 571 nodes and widens
    to 3.9e-14 at the ceiling.  The nodes are formed as 1 - 2/(e^2s + 1),
    rounded once near 1.

    The rule is exact for no polynomial.  |sum w - 2| and |sum w mu^2 - 2/3|
    are at most 1.3 and 0.7 from 4 nodes, 1.4e-2 and 0.16 from 8, 2.4e-7
    and 5.3e-5 from 16, 2e-12 and 2.5e-9 from 24, and 1e-15 and 5.5e-14
    from 32.  From 40 nodes on both are within 2 (1 - mu_max) + 1e-15, the
    measure the top gaps leave out plus rounding: 1.5e-15 up to 571 nodes,
    8e-14 at the ceiling.
    """
    import numpy as np
    size = _require_count("grid size", size, 4, "MAX_GRID_SIZE", MAX_GRID_SIZE)
    m, odd = divmod(size, 2)
    steps = m if odd else m - 0.5  # t_max / h
    # the true top gaps 2 e^-2s and 2 e^-2(s - ds) differ by 2 e^-2s (e^2ds - 1),
    # kept at 1.25 floats (2^-53) or more with ds taken at the largest t_max;
    # that ds runs up to 22% high (at the ceiling, where they differ by 1.02
    # floats), so the top nodes round to distinct floats
    ds = math.pi / 2 * (math.sinh(_T_MAX) - math.sinh(_T_MAX - _T_MAX / steps))
    s_max = _S_MAX + 0.5 * min(0.0, math.log(1.6 * math.expm1(2.0 * ds)))
    h = math.asinh(s_max / (math.pi / 2)) / steps
    t = h * (np.arange(m + odd) + (0.0 if odd else 0.5))
    s = math.pi / 2 * np.sinh(t)
    mu = 1.0 - 2.0 / (np.exp(2.0 * s) + 1.0)  # tanh s, rounded once near 1
    w = h * math.pi / 2 * np.cosh(t) / np.cosh(s) ** 2
    return AngularGrid(np.concatenate((-mu[odd:][::-1], mu)), np.concatenate((w[odd:][::-1], w)))


def secular_sum(S, grid):
    """Discrete kernel (1/2) sum_i w_i mu_i / (S - mu_i).

    The grid is mirrored (AngularGrid checks it), so the pair +-mu adds
    up to w mu^2 / (S^2 - mu^2), and the sum is taken as
    sum_{mu > 0} [w mu / (S - mu)] [mu / (S + mu)]: every term is
    positive, nothing cancels at large S, nothing overflows, and S - mu
    is formed as (|S| - mu_max) + (mu_max - mu), exact near the band edge.
    A non-finite S raises InvalidArgumentError, and |S| <= mu_max
    DomainError.

    For S outside [-1, 1] it converges geometrically to the continuum
    kernel as the grid grows, from 1.6e-5 at 16 nodes to 5e-15 at 40 for
    S = 1.5, down to a rounding floor of a few ulps of F(S) (at most 16 ulp
    for S = 1.5 on the grids of build_angular_grid from 48 to 794 nodes).
    Below that floor the error is rounding noise: no ordering in the grid
    size is promised.  Near the band edge the rule also leaves out the
    measure beyond its top node, about (1 - mu_max) / (S^2 - 1): 2.4e-15
    at the A = 1 root on 400 nodes.
    """
    S = _require_finite("S", S)
    mu_max = float(grid.nodes[-1])
    if abs(S) <= mu_max:
        raise DomainError(f"secular sum defined for |S| > mu_max only, got {S!r}")
    return float(_even_terms(abs(S) - mu_max, grid)[0].sum())


def _even_terms(excess, grid, scale=0):
    import numpy as np
    # the terms of secular_sum over mu > 0 at S = mu_max + excess, times 2^scale,
    # with S - mu and S + mu.  S - mu is formed as excess + (mu_max - mu), exact
    # for mu >= mu_max/2, so near the band edge the terms follow an excess that
    # S itself would round away.  The power of two is exact, and applied before
    # the second factor it keeps normal the terms of order 1/A near the root,
    # subnormal from A ~ 1e300 unscaled
    half = grid.size // 2  # an odd grid's node 0 adds nothing
    mu = grid.nodes[half:]
    mu_max = mu[-1]
    below, above = excess + (mu_max - mu), (mu_max + excess) + mu
    return np.ldexp(grid.weights[half:] * mu / below, scale) * (mu / above), below, above


def discrete_collective_root(coupling, grid):
    """Root S of the secular equation 1 = A * secular_sum(S) above all nodes.

    The secular function decreases monotonically from +inf at the largest
    node to 0 at infinity, so the root is unique; the shared solve
    _roots.edge_root finds it in w = ln(S - mu_max), on the slope of the
    even form of secular_sum, taken at S = mu_max + e^w before S is
    rounded, so the residual is not flat between floats near mu_max: about
    6 sums per root at N = 400 for A in [0.05, 100].  At N = 400 the root
    is above 1 and within 4.0e-7 of S - 1 of the continuum root from A = 0.1
    (within 6.4e-13 from A = 0.3), and within 2e-15 relative from A = 1 up
    to the largest float.  A root below the next float above mu_max (A below
    0.0555 at N = 400) comes back as that float, after one sum.
    """
    c = as_coupling(coupling)
    if c.A <= 0.0:
        raise NoUndampedRootError(f"no discrete collective root for A <= 0 (A = {c.A!r})")
    a = c.A
    m, k = math.frexp(a)  # A = m 2^k
    mu_max = float(grid.nodes[-1])

    def h(w):
        # 1 - A secular_sum(S) at S = mu_max + e^w, not rounded to a float, and
        # its slope in w, a sum of positive terms
        # 2 A [w mu^2/(S^2 - mu^2)] [e^w/(S - mu)] [S/(S + mu)], with the terms
        # scaled by 2^k and A by 2^-k
        u = math.exp(w)
        S = mu_max + u
        if S == mu_max:  # rounds onto the top node: the root is the next float up
            return -math.inf, math.nan
        terms, below, above = _even_terms(u, grid, k)
        return 1.0 - m * float(terms.sum()), 2.0 * m * float(terms @ (u / below * (S / above)))

    # a root below the first float above mu_max is that float: one sum decides it
    if a * float(_even_terms(math.nextafter(mu_max, 2.0) - mu_max, grid, 0)[0].sum()) <= 1.0:
        return math.nextafter(mu_max, 2.0)
    # the search starts at least 2 ulps above mu_max; on the graded grid the
    # top nodes resolve the logarithm of the kernel, so edge_root's weak
    # estimate ln(S - mu_max) = ln 2 - 2 - 2/A fits below A ~ 0.3
    low = math.log(sys.float_info.epsilon)
    return edge_root(h, a, mu_max, low, "ln(S - mu_max)")[0]


def _finite_vector(name, values, dtype=complex):
    import numpy as np
    kind = np.asarray(values).dtype
    if not np.can_cast(kind, dtype, "same_kind"):  # complex nodes, or text
        raise InvalidArgumentError(f"{name} must be {dtype.__name__} numbers, got {kind}")
    # a C-contiguous copy: _unit_scale views it as floats, and the caller's
    # own array stays writeable when this one is made read-only
    values = np.array(values, dtype=dtype, order="C")
    if values.ndim != 1:
        raise InvalidArgumentError(f"{name} must be one-dimensional, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"{name} must be finite")
    values.setflags(write=False)
    return values


@_record
class AngularState:
    """Distribution amplitude on the grid nodes at t = 0, where evolution starts."""

    values: np.ndarray

    def __post_init__(self):
        self.__dict__["values"] = _finite_vector("state values", self.values)


@_record
class TimeSeries:
    """Evenly sampled angular average <F>(t), first sample at t = 0."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        values = self.__dict__
        values["dt"] = _require_positive("dt", values["dt"])
        values["samples"] = _finite_vector("samples", values["samples"])

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
    # scales x in place to u = 2^-e x, whose largest real or imaginary part is in [0.5, 1)
    # (e = 0 for x = 0): a power-of-two scaling is exact, so the linear evolution and
    # transform run on u, where nothing overflows, and only results scale back
    f = x.view(np.float64)
    e = math.frexp(float(max(f.max(), -f.min())))[1]
    np.ldexp(f, -e, out=f)
    return e


def _scale_back(what, x, e):
    import numpy as np
    largest = float(np.max(np.abs(x)))
    if math.frexp(largest)[1] + e > sys.float_info.max_exp:
        raise NumericalBlowupError(f"{what} {largest!r} * 2**{e} exceeds the float range; "
                                   "a smaller initial amplitude avoids it")
    return np.ldexp(x.view(np.float64), e, out=x.view(np.float64)).view(x.dtype)  # in place


def _block_size(n):
    # steps per block: the rows conj(v M^m) (Fv) and d^(B-1-m) (D) on ceil(N/2)
    # half-grid nodes hold 32 B ceil(N/2) bytes, kept within 1 MiB
    return min(128, max(1, 2**20 // (32 * (n - n // 2))))


def _aligned_empty(shape):
    import numpy as np
    # complex, on a 64-byte boundary (numpy aligns to 16): the block products ran 1.4x slower at 16-48
    raw = np.empty(2 * math.prod(shape) + 7)
    raw = raw[-raw.__array_interface__["data"][0] % 64 // 8 :]
    return raw[: 2 * math.prod(shape)].view(np.complex128).reshape(shape)


def _rk4_trace(y, mu, w, a, dt, steps):
    import numpy as np
    # dy/dt = L y, (L y)_i = -i mu_i (y_i + a <y>), <y> = (1/2) sum_j w_j y_j, as the
    # README derives it ("Numerical approach").  y = s + i x splits into two parts with
    # F(-mu) = conj F(mu), each run on the mu >= 0 half, where <q> = Re(v . q) (v = w,
    # and w/2 at mu = 0) and a row t stands for Re(t . q); a part that is 0 is not run.
    # There hL = diag(z) + (h u) v, z = -i h mu, h u = a z, and the RK4 step is
    # M = diag(d) + U C, d = R(z), U_p = z^p (h u), C_p = sum_{k>p} v (hL)^(k-1-p) / k!.
    # A block of B steps takes the Krylov columns Q_j = (hL)^j q, S[m, j] =
    # Re(v M^m Q_j) from the rows Fv = conj(v M^m) (samples at j = 0), and M^B q =
    # d^B q + sum_j V_j (S^T D)_j, D the rows d^(B-1-m), V_j = sum_{p<=3-j} U_p / (p+j+1)!,
    # as products of float64 views.  d^m enters as d^m - 1 (e, x), added last as the
    # RK4 stages add to y: a rounded d ~ 1 would drift the amplitude half an ulp a step.
    h = mu.shape[0] // 2
    mirror = np.conj(y[::-1])[h:]
    Y = np.stack(((y[h:] + mirror) / 2.0, (y[h:] - mirror) / 2j))
    parts = slice(int(not Y[0].any()), 1 + int(Y[1].any()))  # the rows not exactly 0
    Y = Y[parts]
    v = w[h:] / np.where(mu[h:] == 0.0, 2.0, 1.0)
    z = dt * (-1j * mu[h:])
    e = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))  # d - 1
    U, rows = [a * z], [v]  # U_p, v (hL)^i
    for _ in range(3):
        U.append(z * U[-1])
        rows.append(rows[-1] * z + (rows[-1] @ U[0]).real * v)
    U, rows = np.array(U), np.array(rows)
    F = np.array([[(i + j < 4) / math.factorial(i + j + 1) for i in range(4)] for j in range(4)])
    total, b, P, n = steps + 1, _block_size(mu.shape[0]), Y.shape[0], z.shape[0]
    trace = np.zeros((total, 2))  # the rows [<s>, <x>], +0.0 for a part not run; made before the tables
    # Fv by k rows after a row t (README): row j + 1 is t c^(j+1) + sum_{l<=j} r_l conj(C) c^(j-l),
    # c = conj(d), r_l = Re(conj(U) . row l) = (R t)_l, gathered by ix (a 0 after r where j < l)
    k, xk = 8, [np.zeros_like(e)]  # d^j - 1, j <= k
    for _ in range(k):
        xk.append(xk[-1] + e * (1.0 + xk[-1]))
    xk, dk = np.array(xk), 1.0 + np.array(xk[:k])[:, None]
    Bf = np.conj((F @ rows) * dk).view(np.float64).reshape(4 * k, -1)  # conj(C_p) c^q, C = F rows
    R = (U * dk).view(np.float64).reshape(4 * k, -1)  # Re(conj(U_p) c^j .), then by the 4x4 kernels
    G = (Bf @ U.view(np.float64).T).reshape(k, 4, 4).transpose(2, 0, 1)  # G_q = Re(conj(U) . B_q)
    for j in range(1, k):
        R[4 * j : 4 * j + 4] += G[:, j - 1 :: -1].reshape(4, 4 * j) @ R[: 4 * j]
    ix = np.fromfunction(lambda j, c: np.where(c < 4 * j + 4, 4 * j - c + 2 * (c % 4), 4 * k),
                         (k, 4 * k), dtype=int)  # [j, 4 q + p]: r_(j-q)
    Fv, r, xc = _aligned_empty((b, n)), np.zeros(4 * k + 1), np.conj(xk[1:])
    Fv[0] = v
    for m in range(0, b - 1, k):
        t, out = Fv[m], Fv[m + 1 : m + 1 + k]
        np.matmul(R, t.view(np.float64), out=r[:-1])
        np.add(t, t * xc[: len(out)] + (r[ix[: len(out)]] @ Bf).view(np.complex128), out=out)
    del R, Bf, dk
    D, x = _aligned_empty((b, n)), xk[0]
    for m in range(0, b, k):  # x = d^m - 1, D[b - 1 - m] = d^m
        xs, i = x + xk * (1.0 + x), min(k, b - m)  # d^(m+j) - 1, j = 0..k
        np.add(1.0, xs[:i][::-1], out=D[b - m - i : b - m])
        x = xs[i]
    Z, V, FvT = np.cumprod([np.ones_like(z), z, z, z], axis=0), F @ U, Fv.view(np.float64).T  # z^j, V_j
    K = np.array([np.concatenate((np.zeros((i + 1, n)), U[: 3 - i])) for i in range(3)])  # [i, j]: U_(j-1-i)
    K, vh = K.view(np.float64).reshape(3, -1), np.conj(rows[:3]).view(np.float64).T  # vh: v (hL)^i
    (Qf, Xf, QKf), S, yx, ys = np.empty((3, 4 * P, 2 * n)), np.empty((4 * P, b)), Y * 0, Y * 0
    (Q, X, QK), QKf = (f.view(np.complex128).reshape(P, 4, n) for f in (Qf, Xf, QKf)), QKf.reshape(P, 8 * n)
    Yf, Yc, Xr, S0, D = Y.view(np.float64), Y[:, None], X[:, ::-1], S[::4].T, D.view(np.float64)
    for start in range(0, total, b):  # buffers and views made once: a numpy call costs about 1 us
        np.matmul(Yf @ vh, K, out=QKf)  # Re(v (hL)^i q) K
        np.add(np.multiply(Z, Yc, out=Q), QK, out=Q)
        np.matmul(Qf, FvT, out=S)  # S^T, the rows [part, j]
        trace[start : start + b, parts] = S0[: total - start]
        np.matmul(S, D, out=Xf)
        X *= V  # V_j (S^T D)_j
        Y += np.add(np.multiply(x, Y, out=yx), Xr.sum(axis=1, out=ys), out=yx)  # higher j first
    return trace.view(np.complex128)[:, 0]


def evolve_initial_value(coupling, grid, initial, dt, steps):
    """Integrate the node amplitudes with classical RK4, tracing <F>(t).

    Returns steps + 1 samples including the initial instant.  dt must not
    exceed stability_bound(coupling), and steps must lie in [2, MAX_STEPS];
    a violation is rejected up front.  The run is at unit scale: a state
    times 2^k gives the trace times 2^k, bit for bit, and NumericalBlowupError
    means that this trace leaves the float range.  The step's factors are
    built from h L, which the stability bound keeps O(1), so they stay finite
    at every finite A.  The state's two parts with F(-mu) = conj F(mu) run on
    the mu >= 0 half grid with a real <F> (such a state's trace has imaginary
    part exactly +0.0), in blocks; a part that is exactly 0 is not run.  The
    trace, the series' own read-only array, agrees with four-stage RK4 to rounding.
    """
    c = as_coupling(coupling)
    dt = _require_positive("dt", dt)
    bound = stability_bound(c)
    if dt > bound:
        raise InvalidArgumentError(f"dt = {dt!r} exceeds the stability bound {bound!r} at A = {c.A!r}")
    steps = _require_count("steps", steps, 2, "MAX_STEPS", MAX_STEPS)
    if initial.values.shape[0] != grid.size:
        raise InvalidArgumentError(f"state has {len(initial.values)} values for a grid of {grid.size}")
    e = _unit_scale(y := initial.values.copy())
    trace = _scale_back("trace modulus", _rk4_trace(y, grid.nodes, grid.weights, c.A, dt, steps), e)
    trace.setflags(write=False)
    series = TimeSeries.__new__(TimeSeries)  # built and checked here: not copied again
    series.__dict__.update(dt=dt, samples=trace)
    return series


@_record
class SpectralPeak:
    """Dominant line above the continuum band in a complex time series."""

    frequency: float
    amplitude: float
    bin_width: float


_FLOOR_FACTOR = 4.0


def _padded_length(n):
    # the smallest 2^i 3^j 5^k >= 4 n; 4 * 16385 = 2^2 5 29 113 is 2x slower
    best, p3 = 8 * n, 1
    while p3 < best:
        p = p3
        while p < best:
            best = min(best, p << ((4 * n - 1) // p).bit_length())
            p *= 5
        p3 *= 3
    return best


def spectral_peak(series):
    """Locate the collective line at omega > 1 in an evolved trace.

    The signal rotates as exp(-i omega t), so the conjugate spectrum of the
    Hann-windowed trace, fft(conj x) = rfft(re x) - i rfft(im x) up to Nyquist,
    is searched above the continuum edge: one real FFT for each part of the
    trace that is not exactly 0, so one for a real trace such as the CLI's.
    The grid maximum is refined by quadratic interpolation of log magnitude
    over three bins (on a transform zero-padded to at least 4x), and must both
    rise a factor 4 above the flat-spectrum level and sit strictly inside the
    search band; otherwise no collective peak is declared.  bin_width reports
    the resolution 2 pi / (dt n) of the unpadded record.  Transform and
    interpolation run at unit scale, so the frequency does not depend on the
    amplitude of the trace and the peak amplitude scales with it, from
    subnormal samples up; one above the float range raises NumericalBlowupError.
    """
    import numpy as np
    x = series.samples
    n = x.shape[0]
    if n < 64:
        raise InvalidArgumentError(f"need at least 64 samples, got {n}")
    dt = series.dt
    n_pad = _padded_length(n)
    xw = np.array([part for part in (x.real, x.imag) if part.any()] or [x.real])
    xw *= np.hanning(n)
    e = _unit_scale(xw)

    # energy of a flat spectrum: every padded bin of pure noise sits near
    # E / sqrt(n_pad) on average, and sum |X_k|^2 = n_pad sum |x_j|^2, so
    # a genuine line must clear a fixed multiple of the rms level; at unit
    # scale no |x_j|^2 overflows, and the largest does not underflow
    energy = math.sqrt(float(np.vdot(xw, xw)))
    if energy == 0.0:
        raise NoCollectivePeakError("signal is identically zero")
    d_omega = 2.0 * math.pi / (n_pad * dt)
    k_min = int(math.floor(1.0 / d_omega)) + 1  # first bin strictly above the band
    k_max = n_pad // 2  # Nyquist
    if k_max - k_min < 3:
        raise InvalidArgumentError(f"no searchable band above the continuum at dt = {dt!r}")

    # fft(conj(x))[k] = rfft(re x)[k] - i rfft(im x)[k] for k <= n_pad/2: |fft| at k_min - 1 to k_max - 1
    spectrum = np.fft.rfft(xw, n_pad)[:, k_min - 1 : k_max]
    mag = np.abs(spectrum[0] - 1j * spectrum[1] if len(xw) == 2 else spectrum[0])
    j = k_min + int(np.argmax(mag[1:]))
    # a leakage skirt from the band below rolls off monotonically, putting
    # its maximum on the band edge; a real line is an interior maximum
    if j == k_min or j >= k_max - 1:
        raise NoCollectivePeakError("no interior maximum above the continuum band")
    la, lb, lg = (mag[j - k_min : j - k_min + 3] / math.sqrt(n_pad)).tolist()
    peak = _scale_back("peak amplitude", np.array([lb]), e).item()
    if lb <= _FLOOR_FACTOR * energy / math.sqrt(n_pad):
        raise NoCollectivePeakError(
            f"band maximum {peak!r} does not clear the noise floor at omega = {j * d_omega!r}"
        )

    # lb >= la, lg at the band maximum, so |la - lg| <= -denom and |shift| <= 1/2;
    # at unit scale, as log(x) loses absolute precision as |log(x)| grows
    shift = 0.0
    if la > 0.0 and lg > 0.0:
        la, lb, lg = math.log(la), math.log(lb), math.log(lg)
        denom = la - 2.0 * lb + lg
        if denom < 0.0:
            shift = 0.5 * (la - lg) / denom
    return SpectralPeak(frequency=(j + shift) * d_omega, amplitude=peak,
                        bin_width=2.0 * math.pi / (n * dt))
