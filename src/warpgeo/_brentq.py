"""Brent's bracketing root finder on Python floats, iterate for iterate scipy's.

The method of Brent (*Algorithms for Minimization Without Derivatives*,
1973, ch. 4) in the form of scipy's ``brentq.c`` (BSD-3-Clause, SciPy
Developers): inverse quadratic extrapolation, secant interpolation or
bisection on a bracket that always holds a sign change.  The arithmetic
follows the C line by line, so the roots, iteration counts and function
call counts are scipy's, and so are the argument checks and errors.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

__all__ = ["brentq", "RootResults"]

XTOL = 2e-12
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


class RootResults(NamedTuple):
    """The ``full_output`` record, with scipy's field names."""

    root: float
    iterations: int
    function_calls: int
    converged: bool


def brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER, full_output=False):
    """A root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket half-width is below ``(xtol + rtol |x|) / 2``.
    Raises ``ValueError`` on bad tolerances, a NaN function value or ends of
    one sign, and ``RuntimeError`` after ``maxiter`` iterations.  With
    ``full_output`` it returns ``(root, RootResults)``.
    """
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    calls = 0

    def value(x):
        nonlocal calls
        fx = float(f(x))
        calls += 1
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    def done(x):
        return (x, RootResults(x, iterations, calls, True)) if full_output else x

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    iterations = 0
    if fpre == 0:
        return done(xpre)
    if fcur == 0:
        return done(xcur)
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return done(xcur)

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # A zero denominator gives inf or nan in C, which fails the
            # step test below; Python raises instead, with the same outcome.
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                bisect = not 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass
        if bisect:
            spre = scur = sbis
        else:  # good short step
            spre, scur = scur, stry

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {iterations} iterations.")
