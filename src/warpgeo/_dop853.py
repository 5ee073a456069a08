"""DOP853 on Python floats, step for step the algorithm of scipy's solver.

The explicit Runge-Kutta pair of order 8(5,3) of Dormand and Prince
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
sec. II.5-II.6) with scipy's initial step selection, step controller,
blended err5/err3 error norm, dense output and event location.  The
tableau is written out below and events are located by the Brent port in
:mod:`warpgeo._brentq`, so the kernel runs on numpy alone.

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
from operator import mul

import numpy as np

from ._brentq import brentq

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


# The tableau, in the doubles of scipy's ``dop853_coefficients.py``
# (BSD-3-Clause, SciPy Developers), each written as its shortest round-trip
# decimal.  Row s of A holds the coefficients of stage s on the s stages
# before it (A[0] is empty) and C[s] its node; A_EXTRA and C_EXTRA are the
# three dense-output stages 13-15 in the same layout.  The weights B, E5, E3
# and D go to numpy's dot as arrays, as in scipy (see :func:`_stage_array`).
A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
     0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
     0.8571428571428571, 1.0)
B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
              1.8915178993145003, -5.801203960010585, 0.3111643669578199,
              -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
               -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
               0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0])
E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, -0.4226823213237919,
               -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0])
A_EXTRA = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
C_EXTRA = (0.1, 0.2, 0.7777777777777778)
D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])

_STAGES = tuple(zip(A[1:], C[1:]))
_EXTRA = tuple(zip(A_EXTRA, C_EXTRA))


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
        return _interpolate(x, y_old[seg], F[seg].transpose(1, 0, 2)).T


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


def _interpolate(x, y_old, rows):
    """The DOP853 interpolation polynomial at x = (t - t_old)/h from a step's
    start ``y_old`` and its seven coefficient ``rows``, on floats (events) or
    arrays (samples) by the same operations, so the two agree bit for bit."""
    y = 0.0
    for i in range(7):
        y = (y + rows[6 - i]) * (x if i % 2 == 0 else 1 - x)
    return y + y_old


def _segment_at(segment: tuple, t: float) -> list:
    """State at ``t`` on one step's interpolant, as the event root finder sees it."""
    t_old, h, y_old, F = segment
    x = (t - t_old) / h
    n = len(y_old)
    return [_interpolate(x, y0, F[j::n]) for j, y0 in enumerate(y_old)]


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
            if not h_abs >= min_step:  # true for a nan step too
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            K = [[v] for v in f]  # one column of stage values per component
            for a, c in _STAGES:
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
        for a, c in _EXTRA:
            k = fun(t + c * h, [v + sum(map(mul, a, col)) * h for v, col in zip(y, K)])
            for col, v in zip(K, k):
                col.append(float(v))
        nfev += 3
        dy = [w - v for v, w in zip(y, y_new)]
        F = dy + [h * fo - d for fo, d in zip(f, dy)]
        F += [2 * d - h * (fn + fo) for d, fn, fo in zip(dy, f_new, f)]
        for row in np.dot(D, _stage_array(K).T).tolist():
            F += [h * v for v in row]

        segment = (t, h, y, F)
        t_old, t, y, f = t, t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        if events:
            g_new = [ev(t, y) for ev in events]
            active = _active(g, g_new, directions)
            if active:
                roots = [
                    (brentq(lambda s, ev=events[i]: ev(s, _segment_at(segment, s)),
                            t_old, t, xtol=4 * EPS, rtol=4 * EPS), i)
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
        segments.append(segment)

    return Solution(
        status=status,
        message=MESSAGES.get(status, message),
        t=np.array(ts),
        t_events=[np.array(te) for te in t_events],
        nfev=nfev,
        nrej=nrej,
        sol=DenseSolution(ts, segments),
    )
