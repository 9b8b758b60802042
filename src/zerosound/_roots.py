"""Root solve shared by the exact solver and the matrix oracle.

Both solve 1 = A K(S) above a band edge, K ~ 1/(3 S^2) at large S: the
dispersion relation above 1, the secular equation above mu_max.  edge_root
owns the start, the search in w = ln(S - edge) and the closing Newton step
on S; each caller evaluates its own residual and slope.
"""

import math
import sys

from .errors import ConvergenceError

# outward pushes in the log variable while one side is unknown: e^-4 toward
# the edge, e^1 away, or |x| 2^-20 where larger, as rounding absorbs a fixed step
_STEP_DOWN = 4.0
_STEP_UP = 1.0
_RELATIVE_STEP = 2.0**-20
_MAX_EXPANSIONS = 60
_MAX_EVALUATIONS = 200  # after bracketing; an exact root takes about 5 in all
# stop once the bracket's half-width is below 0.5 * (_WIDTH + _RELATIVE_WIDTH |x|)
_WIDTH = 1e-15
_RELATIVE_WIDTH = 4.0 * sys.float_info.epsilon


def edge_root(f, a, edge, low, what):
    """Root S > edge of 1 = A K(S) by increasing_root in w = ln(S - edge); f(w) gives (r, dr/dw).

    The start is the largest of low, the caller's estimate of w, ln 2 - 2 - 2/A
    (weak coupling) and ln(S_e - 1), with 1/S_e^2 = x from x/3 + x^2/5 = 1/A.
    w holds S to one ulp of w, so for S >= 2 a Newton step on S, dS = e^w dw
    (dr/dS underflows from A ~ 1e230), resolves it to rounding.  Returns (S, w, r at w, bracket);
    a ConvergenceError from the search is raised again with " at A = ..." appended.
    """
    S = math.sqrt(a / 6.0 + math.sqrt(a / 6.0) * math.sqrt((a + 7.2) / 6.0))
    w = max(low, math.log(2.0) - 2.0 - 2.0 / a, math.log(S - 1.0) if S > 1.0 else -math.inf)
    try:
        w, (residual, slope), bracket = increasing_root(f, w, what)
    except ConvergenceError as error:  # the coupling is named only on failure
        raise ConvergenceError(f"{error} at A = {a!r}", error.bracket) from None
    u = math.exp(w)  # may underflow; S then rounds to the edge
    S = edge + u
    if S >= 2.0:
        S -= u * (residual / slope)
    return S, w, residual, bracket


def increasing_root(f, x, what):
    """Root of an increasing function from the estimate x; f(x) returns (f, df/dx).

    Newton steps (Press et al., Numerical Recipes, sec. 9.4), each at least
    1.5 tol long, where tol = 0.5 * (1e-15 + 4 eps |x|): a step that short
    crosses a root it aims at and leaves a bracket under 2 tol wide.  While
    one side of the root is unknown, a step from a point where f has not
    changed since the last (flat to rounding, where Newton steps stall) is
    twice the last step, and a step that is not finite or does not land
    between x and the outward push from x is the push; 60 such steps at
    most.  Once f(lo) < 0 < f(hi), the search bisects whenever a Newton step
    leaves the bracket, is not finite, or is not under half the step before
    last.  It stops when the bracket's half-width is below tol, f(x) is 0,
    or 200 evaluations of f after bracketing are spent.  Returns (x, f(x),
    (lo, hi)), where x is the end of the final bracket with the smaller |f|;
    the caller judges whether that is good enough.  Raises ConvergenceError,
    naming `what`, if no sign change is found; its bracket then has an
    infinite end.
    """
    lo, hi, f_lo, f_hi = -math.inf, math.inf, None, None
    last = before_last = math.inf  # lengths of the last two steps
    expansions = evaluations = 0
    y, r_old = f(x), math.nan
    while y[0] != 0.0:
        r, slope = y
        if r < 0.0:
            lo, f_lo = x, y
        else:
            hi, f_hi = x, y
        tol = 0.5 * (_WIDTH + _RELATIVE_WIDTH * abs(x))
        s = -r / slope if slope > 0.0 else math.nan
        if abs(s) <= tol:  # false for nan
            s = math.copysign(1.5 * tol, s)
        # each comparison below is false for a nan or infinite step
        if -math.inf < lo and hi < math.inf:
            if 0.5 * hi - 0.5 * lo <= tol or evaluations == _MAX_EVALUATIONS:
                return (lo, f_lo, (lo, hi)) if abs(f_lo[0]) < abs(f_hi[0]) else (hi, f_hi, (lo, hi))
            evaluations += 1
            # a bisection is halved first, so it cannot overflow
            x_new = x + s if lo < x + s < hi and 2.0 * abs(s) < before_last else 0.5 * lo + 0.5 * hi
        elif expansions == _MAX_EXPANSIONS:
            side = "above" if r < 0.0 else "below"
            raise ConvergenceError(f"no sign change {side} {x!r} in {what}", (lo, hi))
        else:
            expansions += 1
            push = max(_STEP_UP if r < 0.0 else _STEP_DOWN, abs(x) * _RELATIVE_STEP)
            push = push if r < 0.0 else -push
            if r == r_old:
                s = math.copysign(2.0 * last, push)
            x_new = x + s
            if not 0.0 < s / push <= 1.0:  # the push, kept finite at the ends of the float range
                x_new = min(max(x + push, -sys.float_info.max), sys.float_info.max)
        before_last, last, r_old = last, abs(x_new - x), r
        x = x_new
        y = f(x)
    return x, y, (x, x)
