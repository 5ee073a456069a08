"""DOP853 on Python floats, step for step the algorithm of scipy's solver.

The explicit Runge-Kutta pair of order 8(5,3) of Dormand and Prince
(Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
sec. II.5-II.6) with scipy's initial step selection, step controller,
blended err5/err3 error norm, dense output and event location.  The
tableau is written out below and stops are located by the Brent port in
:mod:`warpgeo._brentq`, so the kernel needs no scipy.

Of scipy's ``solve_ivp`` surface the kernel keeps what the package uses.
Spans run forward only (t_bound > t0); a caller with a backward problem
solves its mirror in -t, which IEEE rounding makes exact (see
:func:`warpgeo.riccati._integrate_side`).  Of scipy's events it keeps the
one kind both callers use: a solve stops where ``y[0]`` falls through a
level ``lo`` or rises through a level ``hi``, as a terminal, directed event
``y[0] - level`` would stop it.  A step crosses both only when it starts and
ends on ``lo == hi``, and then stops with status 1 at its start.

scipy runs the method on numpy arrays: for the two- and three-component
systems of this package most of its time goes to numpy calls on tiny
arrays, the ``fun`` wrappers and one interpolant object per step.  Here the
state is a list of Python floats and a step is straight-line float code, as
in Hairer's ``dop853.f``, whose ``FCN`` works on plain doubles: every stage
argument and every sum that closes a step (the solution update, the two
error sums and the interpolation coefficients) is one expression over the
tableau entries, written out per component, and so is the error norm.  The
right-hand side enters in one form, as source: a :class:`Derivative`, whose
body runs inline in every stage, on only the stage arguments it reads.  A
plain callable ``fun(t, y)`` enters as the args of :data:`CALL`, whose body
calls it with the stage's time and whole state.  The kernel converts
nothing: the stages take the body's values as they are.  The step's source
is generated from the tableau the first time a derivative and state size
are solved (see :func:`_kernel`).  The solve returns lists of floats.
numpy, which every module of the package reaches through the lazy binding
``np`` of :mod:`warpgeo._np`, is needed only to evaluate the dense output
at an array of samples, and :meth:`DenseSolution.at` evaluates one sample
on floats.  A later read evaluates the derivative under its own caller's
numpy error handling.

A step's interpolant costs three more evaluations of the derivative (stages
13-15, which the rows through D weigh), 3 of the 15 of an accepted step.
As scipy does with ``dense_output=False``, the solve builds it only for the
step the stop search reads.  Every accepted step keeps what its interpolant
needs (t, h, y and the stages 0 and 5-12, with y_new shared with the next
step), and :class:`DenseSolution` builds a step's interpolant when a sample
first falls in it, then keeps it.  ``Solution.nfev`` counts the evaluations
of the solve, ``DenseSolution.nfev`` those made later.

The values agree with scipy's to rounding.  The steps agree as far as the
error estimate does: where it is rounding rather than truncation error (the
path is a polynomial the method integrates exactly) and the stages are not
exact, the order of the sums picks the next step size, and the two step
sequences part.  Every sum here is written out left to right, so the steps
are the same on every CPU and BLAS library (scipy's close through
``np.dot``, whose rounding depends on the kernel the BLAS picks) and do not
depend on how the Python version rounds the built-in ``sum``.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

from ._brentq import brentq
from ._np import np

__all__ = ["solve_ivp", "Solution", "DenseSolution", "Derivative"]

# scipy's step controller: the factor SAFETY * err^(-1/8), clamped to
# [MIN_FACTOR, MAX_FACTOR], and no growth right after a rejection.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order 7 + 1)

EPS = sys.float_info.epsilon

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


# The tableau, in the doubles of scipy's ``dop853_coefficients.py``
# (BSD-3-Clause, SciPy Developers), each written as its shortest round-trip
# decimal.  Row s of A holds the coefficients of stage s on the s stages
# before it (A[0] is empty) and C[s] its node; A_EXTRA and C_EXTRA are the
# three dense-output stages 13-15 in the same layout.  B, E5 and E3 weigh
# stages 0-11, 0-12 and 0-12; row i of D gives interpolation coefficient i
# from stages 0-15.
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
B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
      -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
      0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, -0.4226823213237919,
      -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
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
D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)

_KERNELS: dict = {}  # (derivative, state size) -> (call, stages, extra), see _kernel


@dataclass(frozen=True)
class Derivative:
    """A right-hand side written as source, the one form in which
    :func:`solve_ivp` takes it: :func:`_kernel` compiles it into the step
    it generates.

    ``body`` is statements that assign the derivative, a sequence of n
    values, to ``{out}``.  They read the time as ``{t}``, component j of the
    state as ``{y[j]}`` and the whole state, a list, as ``{state}``.  Each
    of these is a parenthesised expression, formed only where the body names
    it, so the body names each at most once.  ``params`` names the values
    the body reads besides, which the kernel's functions take as one
    argument: one name takes the value itself (``CALL`` takes ``fun``),
    several names a tuple of as many, and an empty string none.  The body
    may call ``isfinite`` (``math.isfinite``) and ``exp`` (``math.exp``)
    and read ``nan`` (``math.nan``).  Its own names must not clash with the
    kernel's: ``p``, ``t``, ``h``, ``y``, ``f``, ``ks``, ``out``, ``err``,
    ``denom``, ``rtol``, ``atol``, ``sqrt``, ``exp``, ``nan`` and names with
    an underscore or a digit.
    """

    params: str
    body: str


# A plain callable fun(t, y), solved as solve_ivp(CALL, fun, ...): every
# stage calls fun(t + c h, [...]).
CALL = Derivative("fun", "{out} = fun({t}, {state})")


@dataclass(frozen=True)
class Solution:
    """Outcome of :func:`solve_ivp`, with scipy's field names.

    ``status`` is 0 at the end of the interval, 1 where ``y[0]`` fell through
    the lower stop, 2 where it rose through the upper one, and -1 when the
    step size underflowed, which ``message`` then explains (it is None
    otherwise); ``t`` lists the start and the accepted step ends (at a stop
    the last one is its root); ``nfev`` counts the right-hand-side
    evaluations of the solve and ``nrej`` its rejected step attempts; ``sol``
    evaluates the dense output.  As with scipy's ``dense_output=False``,
    ``nfev`` is 2 to start, 12 per step attempt and 3 for the interpolant of
    the step that the stop search read; ``sol.nfev`` counts the evaluations
    that the dense output makes later.
    """

    status: int
    message: str | None
    t: list
    nfev: int
    nrej: int
    sol: "DenseSolution"


class DenseSolution:
    """Piecewise interpolant of the accepted steps, one segment per step.

    A segment's interpolation coefficients cost three more evaluations of
    the derivative (stages 13-15).  Each is built on first use and then
    kept: the stop search builds the step it searches, and a call builds
    the steps its samples fall in.  ``nfev`` counts the evaluations made
    here, 3 per step built after the solve, under the numpy error handling
    of the reader.

    A sample picks its segment by scipy's ``OdeSolution`` rule (a step end
    belongs to the earlier step, and samples outside the span use the first
    or last step).  A call evaluates all its samples in one vectorised pass
    of the DOP853 interpolation polynomial, with the operations of scipy's
    ``Dop853DenseOutput``; :meth:`at` evaluates one sample by the same
    operations on floats, to the same doubles, and so does the stop search
    of :func:`solve_ivp` on ``y[0]`` alone.  The first call stacks the
    steps into arrays.  Until every step's rows are in them, a call copies
    in the rows of the steps its samples fall in; after that, a call only
    picks the segments and evaluates.
    """

    def __init__(self, args, extra, ts: list, steps: list, coefficients: list):
        """``ts`` are the segment bounds; each step is (t_old, h, y_old,
        y_new, ks), the arguments of ``extra`` (see :func:`_kernel`) after
        the derivative's ``args``, and ``coefficients`` holds its
        interpolation rows, or None until they are built."""
        self._args, self._extra = args, extra
        self._ts = ts
        self._steps = steps
        self._coefficients = coefficients
        self._arrays = None
        self._unread = None  # mask of the steps whose rows the arrays lack; None if none
        self.nfev = 0

    def _rows(self, i: int) -> list:
        """The seven interpolation coefficient rows of step i, concatenated."""
        F = self._coefficients[i]
        if F is None:
            F = self._coefficients[i] = self._extra(self._args, *self._steps[i])
            self.nfev += 3
        return F

    @property
    def end(self) -> list:
        """The state at the end of the last accepted step, as the solve
        accepted it (a stop lies inside that step)."""
        return self._steps[-1][3]

    def at(self, t: float) -> list:
        """The state at the one sample ``t``, as a list of floats."""
        i = min(max(bisect_left(self._ts, t) - 1, 0), len(self._steps) - 1)
        t_old, h, y_old = self._steps[i][:3]
        F, n = self._rows(i), len(y_old)
        x = (t - t_old) / h
        return [_interpolate(x, 1 - x, y0, F[j::n]) for j, y0 in enumerate(y_old)]

    def __call__(self, t) -> np.ndarray:
        """States at the 1-D array of samples ``t``, shape (n, len(t)).

        The arrays hold y_old as (n, steps) and the rows as (7, n, steps):
        the samples' columns are taken along the last axis, and the
        polynomial runs on (n, len(t)) arrays with no transpose."""
        if self._arrays is None:
            h, y_old = (np.array([step[k] for step in self._steps]) for k in (1, 2))
            F = np.empty((7, y_old.shape[1], len(h)))
            self._arrays = np.array(self._ts), h, y_old.T, F
            self._unread = np.ones(len(h), bool)
        ts, h, y_old, F = self._arrays
        t = np.asarray(t, dtype=float)
        seg = np.searchsorted(ts, t, side="left")
        seg -= 1
        np.maximum(seg, 0, out=seg)
        np.minimum(seg, len(h) - 1, out=seg)
        if self._unread is not None:
            hit = np.zeros(len(h), bool)
            hit[seg] = True
            new = np.flatnonzero(hit & self._unread)
            if new.size:
                rows = np.array([self._rows(i) for i in new.tolist()])
                F[:, :, new] = rows.reshape(new.size, 7, -1).transpose(1, 2, 0)
                self._unread[new] = False
                if not self._unread.any():
                    self._unread = None
        x = (t - ts.take(seg)) / h.take(seg)  # step i starts at ts[i]
        return _interpolate(x, 1 - x, y_old.take(seg, axis=1), F.take(seg, axis=2))


def _kernel(derivative: Derivative, n: int) -> tuple:
    """The functions of ``derivative`` for an ``n``-component state, compiled
    on first use.  Each takes the values of its params as ``p``.

    ``call(p, t, y)`` returns the derivative at ``t`` and the sequence ``y``.
    ``stages(p, t, h, y, f, rtol, atol)`` makes one step attempt from ``y``
    and its derivative ``f``: stages 1-11, the update ``y_new`` through B,
    its derivative ``f_new`` (stage 12) and the error norm of the step.  It
    returns ``y_new, f_new, err, ks``, with the stages that the interpolant
    reads in ``ks``: 0 and 5-12 (A_EXTRA and D weigh stages 1-4 by zero).
    ``extra(p, t, h, y, y_new, ks)`` evaluates the dense-output stages 13-15
    of the accepted step and returns its seven interpolation coefficient
    rows, concatenated: three from ``dy = y_new - y`` and the step's end
    derivatives, ``dy``, ``h f - dy`` and ``2 dy - h (f_new + f)``, and four
    through D, times h.

    Each stage runs the derivative's body inline, on the stage arguments
    that the body names.  Every sum is written out left to right per
    component j, as ``w[0] * k0_j + w[1] * k1_j + ...``.  The stage rows and
    D skip their zero entries; B, E5 and E3 keep them (see
    :func:`solve_ivp`).  D is reached only after a step is accepted, when
    every stage is finite.  The error norm is scipy's: per component j, the
    sums through E5 and E3 divided by ``atol + max(|y_j|, |y_new_j|) rtol``
    (a nan-propagating max), their squares summed left to right into e5 and
    e3, and ``h n5 / sqrt((n5 + 0.01 n3) n)`` with ``n5, n3 = e5, e3`` as
    scipy gets them, the squares of their roots; 0 when both sums are 0.
    """
    key = derivative, n
    if key not in _KERNELS:
        def names(s):
            return "".join(f"k{s}_{j}, " for j in range(n))

        def total(w, j, zeros=False):
            return " + ".join(f"{x!r} * k{i}_{j}" for i, x in enumerate(w) if x or zeros)

        def inline(t, y, out, state=None):
            """The body's lines at the time and component expressions t and
            y, assigning to out."""
            state = state or "[" + ", ".join(y) + "]"
            return derivative.body.format(t=t, y=y, state=state, out=out).splitlines()

        def stage(s, a, c):
            return inline(f"(t + {c!r} * h)", [f"(y{j} + ({total(a, j)}) * h)" for j in range(n)],
                          names(s))

        def each(line):
            return [line.format(j=j) for j in range(n)]

        params = [f"{derivative.params} = p"] if derivative.params.strip() else []
        ys = "".join(f"y{j}, " for j in range(n)) + "= y"
        yn = [f"yn{j}" for j in range(n)]
        dense_stages = [s for s in range(13) if any(len(w) > s and w[s] for w in A_EXTRA + D)]
        ks = "".join(names(s) for s in dense_stages)
        ends = [f"d{j}" for j in range(n)] + [f"h * k0_{j} - d{j}" for j in range(n)]
        ends += [f"2 * d{j} - h * (k12_{j} + k0_{j})" for j in range(n)]
        rows = ", ".join(ends + [f"h * ({total(d, j)})" for d in D for j in range(n)])
        lines = [
            "def call(p, t, y):", *params, *inline("t", [f"y[{j}]" for j in range(n)], "out", "y"),
            "return out",
            "def stages(p, t, h, y, f, rtol, atol):", *params, ys, f"{names(0)}= f",
            *(ln for s in range(1, 12) for ln in stage(s, A[s], C[s])),
            *(f"yn{j} = y{j} + h * ({total(B, j, zeros=True)})" for j in range(n)),
            f"y_new = [{', '.join(yn)}]",
            *inline("(t + h)", yn, "f_new", "y_new"),
            f"{names(12)}= f_new",
            *each("v{j}, w{j} = abs(y{j}), abs(yn{j})"),
            *each("s{j} = atol + (w{j} if w{j} > v{j} or w{j} != w{j} else v{j}) * rtol"),
            *(f"a{j}, c{j} = ({total(E5, j, True)}) / s{j}, ({total(E3, j, True)}) / s{j}"
              for j in range(n)),
            "e5 = " + " + ".join(each("a{j} * a{j}")),
            "e3 = " + " + ".join(each("c{j} * c{j}")),
            "if e5 == 0 and e3 == 0:",
            "    err = 0.0",
            "else:",
            "    n5, n3 = sqrt(e5), sqrt(e3)",
            "    n5, n3 = n5 * n5, n3 * n3",  # scipy squares the norms it took the root of
            f"    denom = sqrt((n5 + 0.01 * n3) * {n})",
            "    err = h * n5 / denom if denom else nan",
            f"return y_new, f_new, err, ({ks})",
            "def extra(p, t, h, y, y_new, ks):", *params, ys, f"{ks}= ks",
            *(ln for s, (a, c) in enumerate(zip(A_EXTRA, C_EXTRA)) for ln in stage(13 + s, a, c)),
            "".join(f"d{j}, " for j in range(n)) + "= "
            + "".join(f"y_new[{j}] - y{j}, " for j in range(n)),
            f"return [{rows}]",
        ]
        src = "\n".join(ln if ln.startswith("def ") else "    " + ln for ln in lines)
        namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt, "exp": math.exp, "nan": math.nan}
        exec(compile(src, f"<DOP853 kernel, n={n}>", "exec"), namespace)
        _KERNELS[key] = namespace["call"], namespace["stages"], namespace["extra"]
    return _KERNELS[key]


def _interpolate(x, x1, y_old, rows):
    """The DOP853 interpolation polynomial at x = (t - t_old)/h, with x1 =
    1 - x, from a step's start ``y_old`` and its seven coefficient ``rows``,
    on floats (stops) or arrays (samples) by the same operations, so the
    two agree bit for bit."""
    y = 0.0
    for i in range(7):
        y = (y + rows[6 - i]) * (x if i % 2 == 0 else x1)
    return y + y_old


def _rms(v) -> float:
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total) / len(v) ** 0.5


def _initial_step(call, args, t0, y, f, t_bound, rtol, atol) -> float:
    """scipy's ``select_initial_step`` for an order-7 error estimate.

    Makes one right-hand-side evaluation, ``call(args, t, y)``.  Divisions
    that numpy would turn into inf or nan are spelled out, since Python
    floats raise instead.
    """
    interval = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y]
    y_scaled = [v / s for v, s in zip(y, scale)]
    f_scaled = [fv / s for fv, s in zip(f, scale)]
    d0, d1 = _rms(y_scaled), _rms(f_scaled)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = call(args, t0 + h0, [v + h0 * fv for v, fv in zip(y, f)])
    num = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)])
    d2 = num / h0 if h0 else (math.inf if num > 0 else math.nan)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d = max(d1, d2)
        h1 = (0.01 / d) ** 0.125 if d else math.inf
    return min(100 * h0, h1, interval)


def solve_ivp(
    derivative: Derivative, args, t_span, y0, *, rtol: float, atol: float,
    stops=(-math.inf, math.inf),
) -> Solution:
    """Integrate y' = ``derivative`` forward over ``t_span`` = (t0, t_bound)
    by DOP853, with ``args`` the values of the derivative's params.

    The solve runs the kernel of ``derivative`` for ``len(y0)`` components
    (see :func:`_kernel`): the stages of every step attempt and interpolant
    run the body inline, and the kernel's ``call`` gives the derivative at
    the start and the initial step's probe.  A plain callable ``fun(t, y)``
    is solved as ``solve_ivp(CALL, fun, ...)``, which calls it at every
    stage as ``fun(t + c h, [...])``.  The body reads t and the state as
    Python floats and gives the derivative as ``n`` Python floats, which the
    step uses as they are: a numpy scalar would carry every later operation
    of the step through numpy.  The span must run forward, t_bound > t0 (a
    ``ValueError`` otherwise); a problem posed backward is solved as its
    mirror in -t.

    ``stops = (lo, hi)`` ends the solve where ``y[0]`` falls through ``lo``
    (status 1) or rises through ``hi`` (status 2), as scipy's terminal events
    ``y[0] - lo`` with direction -1 and ``y[0] - hi`` with direction 1 would.
    An accepted step crosses ``lo`` when ``a - lo >= 0 >= b - lo`` and ``hi``
    when ``a - hi <= 0 <= b - hi``, for a and b its ``y[0]`` at start and
    end; an infinite level never passes that test.  So a start beyond a
    level does not stop the solve, and a start on a level that moves past it
    stops at its start.  A step crosses both levels only when
    ``lo == hi == a == b``, and then stops with status 1 at its start.  The
    root is located on ``y[0]`` of the step's interpolant alone (the doubles
    that :meth:`DenseSolution.at` gives there), by ``brentq`` with
    ``xtol = rtol = 4 eps``, and is the last entry of ``t``.  Only that
    step's interpolant is built during the solve; the returned ``sol``
    builds the others on first use.

    The step controller is scipy's, with its ``min`` and ``max`` written out
    as comparisons that keep their rules: a nan error estimate shrinks the
    step by ``MIN_FACTOR``, and a step end that ties with t_bound takes
    t_bound.  A non-finite stage makes the error estimate nan, and the
    rejected step shrinks until the solve ends with status -1.  The update
    and the error sums keep the zero entries of B, E5 and E3 for this:
    ``f_new`` has weight 0 in both error sums, and only ``0.0 * inf`` (nan)
    lets an infinite ``f_new`` reject its step rather than end in a
    non-finite interpolant.  Every accepted state thus has a finite
    derivative but the start's.  The step is Python float arithmetic, which
    warns of nothing, and the solve imports no numpy.  The derivative runs
    under the numpy error handling of the caller, here and in later reads of
    ``sol``.  When the derivative at the start is itself not finite, the
    message says so instead of naming the step size.
    """
    t0, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t0:
        raise ValueError(f"t_span must run forward, got ({t0!r}, {t_bound!r})")
    t = t0
    y = [float(v) for v in y0]
    call, stages, extra = _kernel(derivative, len(y))
    f = call(args, t, y)

    ts, steps, coefficients = [t0], [], []
    lo, hi = stops
    status, message = None, None

    size = _initial_step(call, args, t, y, f, t_bound, rtol, atol)  # of the next step attempt
    nfev, nrej = 2, 0
    nextafter, inf = math.nextafter, math.inf
    safety, exponent, min_factor, max_factor = SAFETY, ERROR_EXPONENT, MIN_FACTOR, MAX_FACTOR

    # The clamps below are min and max written out, with their rules: a tie
    # or a nan compares false and keeps the first argument of min(a, x) or
    # max(a, x).
    while status is None:
        min_step = 10 * (nextafter(t, inf) - t)
        if size < min_step:
            size = min_step
        rejected = False
        while True:
            if not size >= min_step:  # true for a nan step too
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = t + size  # size is not nan here
            if t_new >= t_bound:
                t_new = t_bound  # a tie takes t_bound, with its sign of zero
            h = t_new - t

            y_new, f_new, err, ks = stages(args, t, h, y, f, rtol, atol)
            nfev += 12
            if err < 1:
                if err == 0:
                    factor = max_factor
                else:
                    factor = safety * err**exponent
                    if not factor < max_factor:
                        factor = max_factor
                if rejected and not factor < 1.0:
                    factor = 1.0
                size = h * factor
                break
            factor = safety * err**exponent
            if not factor > min_factor:  # a nan err gives min_factor
                factor = min_factor
            size = h * factor
            rejected = True
            nrej += 1
        if status is not None:
            break

        step = (t, h, y, y_new, ks)
        t_old, t, y, f = t, t_new, y_new, f_new
        if t >= t_bound:
            status = 0
        F = None  # the interpolant, built here only for the stop search
        a, b = step[2][0], y[0]  # y[0] at the step's start and end
        falls = a - lo >= 0 >= b - lo
        rises = a - hi <= 0 <= b - hi
        if falls or rises:
            F = extra(args, *step)
            nfev += 3
            rows = F[::len(y)]  # y[0]'s coefficient rows
            level, status = (lo, 1) if falls else (hi, 2)  # both only when lo == hi == a == b

            def y0(s):  # y[0] on the step's interpolant, minus the level
                x = (s - t_old) / h
                return _interpolate(x, 1 - x, a, rows) - level

            t = brentq(y0, t_old, t, xtol=4 * EPS, rtol=4 * EPS)
            if len(ts) > 1 and ts[-1] == t:
                continue  # a root on the previous step end adds no segment
        ts.append(t)
        steps.append(step)
        coefficients.append(F)

    if status == -1 and not all(map(math.isfinite, f)):
        message = f"The derivative is not finite at t = {t!r}."
    return Solution(
        status=status,
        message=message,
        t=ts,
        nfev=nfev,
        nrej=nrej,
        sol=DenseSolution(args, extra, ts, steps, coefficients),
    )
