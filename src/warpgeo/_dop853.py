"""DOP853 on Python floats, step for step the algorithm of scipy's solver.

The explicit Runge-Kutta pair of order 8(5,3) of Dormand and Prince
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
sec. II.5-II.6) with scipy's initial step selection, step controller,
blended err5/err3 error norm, dense output and event location.  The
tableau is read from ``scipy.integrate.DOP853`` on the first call, so
importing this module loads no scipy.

scipy runs the method on numpy arrays: for the two- and three-component
systems of this package most of its time goes to numpy calls on tiny
arrays, the ``fun`` wrappers and one interpolant object per step.  Here the
state is a list of floats, every stage sum is one ``sum(map(mul, ...))``
over a column of stages, and only the three sums that close a step (the
solution update, the error estimate and the interpolation coefficients)
call numpy, as scipy does (see :func:`_stage_array`).

The values agree with scipy's to rounding.  The steps agree as far as the
error estimate does: where it is rounding rather than truncation error (the
path is a polynomial the method integrates exactly) and the stages are not
exact, the order of the stage sums picks the next step size, and the two
step sequences part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import mul

import numpy as np

__all__ = ["solve_ivp", "Solution", "DenseSolution"]

# scipy's step controller: the factor SAFETY * err^(-1/8), clamped to
# [MIN_FACTOR, MAX_FACTOR], and no growth right after a rejection.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order 7 + 1)

EPS = float(np.finfo(float).eps)

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


@cache
def _load_method():
    """The tableau: stage rows as float lists, each trimmed to the stages it
    combines, and the weights for numpy's dot as scipy's arrays."""
    from scipy.integrate import DOP853
    from scipy.optimize import brentq

    start = DOP853.n_stages + 1
    return (
        [(row[:s].tolist(), float(c))
         for s, (row, c) in enumerate(zip(DOP853.A, DOP853.C)) if s],
        DOP853.B,
        DOP853.E5,
        DOP853.E3,
        [(row[:s].tolist(), float(c))
         for s, (row, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=start)],
        DOP853.D,
        brentq,
    )


@dataclass(frozen=True)
class Solution:
    """Outcome of :func:`solve_ivp`, with scipy's field names.

    ``status`` is 0 at the end of the interval, 1 at a terminal event and -1
    when the step size underflowed; ``t`` holds the start and the accepted
    step ends (the last one is the event root after an event); ``t_events``
    holds one array per event; ``nfev`` counts right-hand-side evaluations
    and ``nrej`` rejected step attempts; ``sol`` evaluates the dense output.
    """

    status: int
    message: str
    t: np.ndarray
    t_events: list
    nfev: int
    nrej: int
    sol: "DenseSolution"


class DenseSolution:
    """Piecewise interpolant of the accepted steps, one segment per step.

    A sample picks its segment by scipy's ``OdeSolution`` rule (a step end
    belongs to the earlier step in the direction of integration, and
    samples outside the span use the first or last step), and all samples
    are evaluated in one vectorised pass of the DOP853 interpolation
    polynomial, with the operations of scipy's ``Dop853DenseOutput``.
    """

    def __init__(self, ts: list, segments: list):
        """``ts`` are the segment bounds; each segment is (t_old, h, y_old, F)
        with the seven interpolation coefficient rows concatenated in F."""
        self._lists = (ts, segments)
        self._arrays = None

    def __call__(self, t) -> np.ndarray:
        """States at the 1-D array of samples ``t``, shape (n, len(t))."""
        if self._arrays is None:
            ts, segments = self._lists
            t_old, h, y_old, F = map(np.array, zip(*segments))
            self._arrays = np.array(ts), t_old, h, y_old, F.reshape(len(h), 7, -1)
        ts, t_old, h, y_old, F = self._arrays
        t = np.asarray(t, dtype=float)
        last = len(h) - 1
        if ts[-1] >= ts[0]:
            seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, last)
        else:
            seg = last - np.clip(np.searchsorted(ts[::-1], t, side="right") - 1, 0, last)
        x = ((t - t_old[seg]) / h[seg])[:, None]
        coef = F[seg]
        y = np.zeros((len(t), coef.shape[2]))
        for i in range(7):
            y += coef[:, 6 - i]
            y *= x if i % 2 == 0 else 1 - x
        y += y_old[seg]
        return y.T


def _stage_array(K: list) -> np.ndarray:
    """The stages (one column list per component) laid out as the transpose
    of scipy's stage array, so ``np.dot`` takes the path it takes in scipy.

    A linear solution has exact stages, and then the rounding of the sums
    over them is all that differs between implementations: the error
    estimate (pure rounding) sets the next step, the solution update and the
    interpolation coefficients set the samples and event roots.  numpy's dot
    rounds in its own order, with fused multiply-adds, so these final sums
    of a step go through it; the stage sums before them need not.
    """
    return np.asfortranarray(K)


def _interpolant(t_old: float, h: float, y_old: list, F: list):
    """Scalar dense output of one step, for the event root finder."""
    n = len(y_old)
    rows = [F[i * n:(i + 1) * n] for i in reversed(range(7))]

    def at(t):
        x = (t - t_old) / h
        y = [0.0] * n
        for i, row in enumerate(rows):
            w = x if i % 2 == 0 else 1 - x
            y = [(yj + fj) * w for yj, fj in zip(y, row)]
        return [yj + y0 for yj, y0 in zip(y, y_old)]

    return at


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v)) / len(v) ** 0.5


def _initial_step(fun, t0, y, f, t_bound, direction, rtol, atol) -> float:
    """scipy's ``select_initial_step`` for an order-7 error estimate.

    Makes one right-hand-side evaluation.  Divisions that numpy would turn
    into inf or nan are spelled out, since Python floats raise instead.
    """
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0 * direction, [v + h0 * direction * fv for v, fv in zip(y, f)])
    num = _rms([(float(a) - b) / s for a, b, s in zip(f1, f, scale)])
    d2 = num / h0 if h0 else (math.inf if num > 0 else math.nan)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d = max(d1, d2)
        h1 = (0.01 / d) ** 0.125 if d else math.inf
    return min(100 * h0, h1, interval)


def _active(g, g_new, directions) -> list[int]:
    """Events whose sign change over a step matches their direction."""
    out = []
    for i, (a, b, d) in enumerate(zip(g, g_new, directions)):
        up = a <= 0 and b >= 0
        down = a >= 0 and b <= 0
        if (up and d > 0) or (down and d < 0) or ((up or down) and d == 0):
            out.append(i)
    return out


def solve_ivp(fun, t_span, y0, *, rtol: float, atol: float, events=()) -> Solution:
    """Integrate y' = fun(t, y) over ``t_span`` (either direction) by DOP853.

    ``fun`` receives t and the state as a list of floats and returns the
    derivative as a sequence.  Every event ``e(t, y)`` is terminal: the
    first root, located on the step's interpolant by ``brentq`` with
    ``xtol = rtol = 4 eps``, ends the solve.  An optional ``direction``
    attribute restricts it to rising (> 0) or falling (< 0) crossings.
    """
    stages, B, E5, E3, extra, D, brentq = _load_method()
    t0, t_bound = float(t_span[0]), float(t_span[1])
    t = t0
    y = [float(v) for v in y0]
    n = len(y)
    direction = 1.0 if t_bound >= t0 else -1.0
    f = list(map(float, fun(t, y)))
    nfev, nrej = 1, 0

    ts, segments = [t0], []
    t_events = [[] for _ in events]
    directions = [getattr(ev, "direction", 0) for ev in events]
    g = [ev(t, y) for ev in events]
    status, message = None, None

    if t == t_bound:
        # No step: a constant segment, as in scipy.
        ts.append(t)
        segments.append((t, 1.0, y, [0.0] * (7 * n)))
        status = 0
    else:
        h_abs = _initial_step(fun, t, y, f, t_bound, direction, rtol, atol)
        nfev += 1

    while status is None:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K = [[v] for v in f]  # one column of stage values per component
            for a, c in stages:
                k = fun(t + c * h, [v + sum(map(mul, a, col)) * h for v, col in zip(y, K)])
                for col, v in zip(K, k):
                    col.append(float(v))
            y_new = [v + h * w for v, w in zip(y, np.dot(_stage_array(K), B).tolist())]
            f_new = list(map(float, fun(t + h, y_new)))
            for col, v in zip(K, f_new):
                col.append(v)
            nfev += 12

            S = _stage_array(K)
            e5 = e3 = 0.0
            for v, w, x5, x3 in zip(y, y_new, np.dot(S, E5).tolist(), np.dot(S, E3).tolist()):
                v, w = abs(v), abs(w)
                scale = atol + (w if w > v or w != w else v) * rtol  # nan-propagating max
                x5 /= scale
                x3 /= scale
                e5 += x5 * x5
                e3 += x3 * x3
            if e5 == 0 and e3 == 0:
                err = 0.0
            else:
                # scipy squares the norms it took the root of.
                n5, n3 = math.sqrt(e5), math.sqrt(e3)
                n5, n3 = n5 * n5, n3 * n3
                denom = math.sqrt((n5 + 0.01 * n3) * n)
                err = h_abs * n5 / denom if denom else math.nan

            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
            rejected = True
            nrej += 1
        if status is not None:
            break

        # Dense output: three more stages and the interpolation coefficients.
        for a, c in extra:
            k = fun(t + c * h, [v + sum(map(mul, a, col)) * h for v, col in zip(y, K)])
            for col, v in zip(K, k):
                col.append(float(v))
        nfev += 3
        dy = [w - v for v, w in zip(y, y_new)]
        F = dy + [h * fo - d for fo, d in zip(f, dy)]
        F += [2 * d - h * (fn + fo) for d, fn, fo in zip(dy, f_new, f)]
        for row in np.dot(D, _stage_array(K).T).tolist():
            F += [h * v for v in row]

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        if events:
            g_new = [ev(t, y) for ev in events]
            active = _active(g, g_new, directions)
            if active:
                at = _interpolant(t_old, h, y_old, F)
                roots = [
                    (brentq(lambda s, ev=events[i]: ev(s, at(s)), t_old, t,
                            xtol=4 * EPS, rtol=4 * EPS), i)
                    for i in active
                ]
                pick = min if direction > 0 else max
                root, i = pick(roots, key=lambda p: p[0])
                t_events[i].append(root)
                status, t = 1, root
            g = g_new
        if len(ts) > 1 and ts[-1] == t:
            continue  # an event root on the previous step end adds no segment
        ts.append(t)
        segments.append((t_old, h, y_old, F))

    return Solution(
        status=status,
        message=MESSAGES.get(status, message),
        t=np.array(ts),
        t_events=[np.array(te) for te in t_events],
        nfev=nfev,
        nrej=nrej,
        sol=DenseSolution(ts, segments),
    )
