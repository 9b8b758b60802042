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
_MAX_EVALUATIONS = 200  # after bracketing; an exact root takes about 11
# stop once the bracket's half-width is below 0.5 * (_WIDTH + _RELATIVE_WIDTH |x|)
_WIDTH = 1e-15
_RELATIVE_WIDTH = 4.0 * sys.float_info.epsilon


def _push(x, step):
    # move x outward by step, or by |x| 2^-20 where larger; stay finite
    x += math.copysign(max(abs(step), abs(x) * _RELATIVE_STEP), step)
    return min(max(x, -sys.float_info.max), sys.float_info.max)


def increasing_root(f, lo, hi, what):
    """Root of an increasing function f from the starting bracket [lo, hi].

    The ends are pushed outward until f(lo) < 0 < f(hi), at most 60 times
    each.  Brent's method (Brent 1973, ch. 4) then narrows the bracket by
    inverse quadratic or secant steps, bisecting whenever a step would not
    shrink it fast enough, until its half-width is below
    0.5 * (1e-15 + 4 eps |x|), f(x) is 0, or 200 evaluations of f are
    spent.  Returns (x, f(x), (lo, hi)), where x is the end of the
    final bracket with the smaller |f|; the caller judges whether that is
    good enough.  Raises ConvergenceError, naming `what`, if no sign
    change is found.
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

    # cur is the best estimate, blk the other end of the bracket, pre the
    # previous cur; s_cur and s_pre are the last two steps taken
    x_pre, r_pre, x_cur, r_cur = lo, r_lo, hi, r_hi
    evaluations = 0
    while True:
        if (r_pre < 0.0) != (r_cur < 0.0):
            x_blk, r_blk = x_pre, r_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(r_blk) < abs(r_cur):
            x_pre, r_pre = x_cur, r_cur
            x_cur, r_cur, x_blk, r_blk = x_blk, r_blk, x_cur, r_cur
        tol = 0.5 * (_WIDTH + _RELATIVE_WIDTH * abs(x_cur))
        s_bis = 0.5 * x_blk - 0.5 * x_cur  # halved first, so it cannot overflow
        if r_cur == 0.0 or abs(s_bis) <= tol or evaluations == _MAX_EVALUATIONS:
            break
        s_try = math.nan  # bisect unless an interpolation step qualifies
        if abs(s_pre) > tol and abs(r_cur) < abs(r_pre):
            if x_pre == x_blk:  # secant
                s_try = -r_cur * (x_cur - x_pre) / (r_cur - r_pre)
            else:  # inverse quadratic through pre, cur and blk
                d_pre = (r_pre - r_cur) / (x_pre - x_cur)
                d_blk = (r_blk - r_cur) / (x_blk - x_cur)
                denominator = d_blk * d_pre * (r_blk - r_pre)
                if denominator:  # 0 where f is flat to rounding
                    s_try = -r_cur * (r_blk * d_blk - r_pre * d_pre) / denominator
        # an interpolation step must point into the bracket and be under half
        # the step before last; a nan or inf s_try fails these tests
        if 0.0 < s_try / s_bis and 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - tol):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, r_pre = x_cur, r_cur
        x_cur += s_cur if abs(s_cur) > tol else math.copysign(tol, s_bis)
        r_cur = f(x_cur)
        evaluations += 1
    return x_cur, r_cur, (min(x_cur, x_blk), max(x_cur, x_blk))
