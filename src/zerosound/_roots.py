"""Bracketed root-finding shared by the exact solver and the matrix oracle.

Both solvers look for the single sign change of an increasing function of
a logarithmic variable: v = ln(S - 1) for the dispersion relation,
w = ln(S - mu_max) for the secular equation.  Only this generic search is
shared; each caller evaluates its own function.
"""

import math
import sys

from .errors import ConvergenceError

# outward bracket steps in the log variable: e^-4 toward the edge, e^1 away
_STEP_DOWN = 4.0
_STEP_UP = 1.0
# at large |x| a fixed step is absorbed by rounding; grow it with |x|
_RELATIVE_STEP = 2.0**-20
_MAX_EXPANSIONS = 60
_WIDTH = 1e-15


def _push(x, step):
    # move x outward by step, or by |x| 2^-20 where larger; stay finite
    x += math.copysign(max(abs(step), abs(x) * _RELATIVE_STEP), step)
    return min(max(x, -sys.float_info.max), sys.float_info.max)


def increasing_root(f, lo, hi, max_iterations, what):
    """Root of an increasing function f from the starting bracket [lo, hi].

    The ends are pushed outward until f(lo) < 0 < f(hi), at most 60 times
    each; the bracket is then bisected to width 1e-15 (or until it no
    longer splits in floating point, or max_iterations runs out) and one
    secant step is taken across it.  Returns (x, f(x), (lo, hi)) for
    whichever of the two ends and the secant point has the smallest
    |f|; the caller judges whether that is good enough.  Raises
    ConvergenceError, naming `what`, if no sign change is found.
    """
    r_lo = f(lo)
    r_hi = f(hi)
    guard = 0
    while r_lo >= 0.0:
        lo = _push(lo, -_STEP_DOWN)
        r_lo = f(lo)
        guard += 1
        if guard > _MAX_EXPANSIONS:
            raise ConvergenceError(f"no sign change below {lo!r} in {what}", (lo, hi))
    guard = 0
    while r_hi <= 0.0:
        hi = _push(hi, _STEP_UP)
        r_hi = f(hi)
        guard += 1
        if guard > _MAX_EXPANSIONS:
            raise ConvergenceError(f"no sign change above {hi!r} in {what}", (lo, hi))

    for _ in range(max_iterations):
        if hi - lo <= _WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # interval no longer splittable in floating point
        r_mid = f(mid)
        if r_mid < 0.0:
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid

    candidates = [(abs(r_lo), lo, r_lo), (abs(r_hi), hi, r_hi)]
    if r_hi != r_lo:
        x_sec = lo - r_lo * (hi - lo) / (r_hi - r_lo)
        if math.isfinite(x_sec):
            r_sec = f(x_sec)
            candidates.append((abs(r_sec), x_sec, r_sec))
    _, x_best, r_best = min(candidates)
    return x_best, r_best, (lo, hi)
