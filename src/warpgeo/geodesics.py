"""Geodesics of the warped half plane, numeric and closed form.

Writing the unit tangent in the orthonormal frame as (f, g), with f the
radial and g the transverse component, a unit-speed geodesic obeys the
first-order system

    r' = f,   t' = h(r) g,   f' = -g^2 H(r),   g' = f g H(r),

with H = h'/h.  Every metric dr^2 + dt^2/h(r)^2 is invariant under the
translations t -> t + c, so the transverse momentum b = g/h(r) is conserved
(Clairaut's integral).  :func:`integrate` therefore solves the reduced
system

    r' = f,   t' = b h(r)^2,   f' = -b^2 h(r) h'(r),

in which the singular H cancels (for h = r the force is -b^2 r), and
returns g = b h(r): the momentum is exact by construction, and the drift of
the conserved energy, |f^2 + b^2 h^2 - 1|, is the measure of quality.
Horizontal rays (b = 0) are geodesics for every warp, which makes the
distance to the boundary r -> 0 an upper bound for the length of inward
rays: both featured metrics possess finite-length inextendible geodesics.

Closed-form families are provided for the two featured warps:

* h = 1/r (:class:`FlatGeodesic`): r(s) = sqrt(s^2 + 2 a s + r0^2) with a
  continuous transverse angle; the family parameter a in (-r0, r0) is the
  initial radial speed times r0.
* h = r (:class:`Neg2Geodesic`): r(s) = sin(sigma b s + asin(b r0))/b over a
  single positive arch; b in (0, 1/r0] is the conserved transverse momentum
  g/h.  The transverse coordinate is the exact antiderivative of
  t' = h g = b r^2 (see ``transverse_unit_b_form`` for the simplified
  variant that is valid only at b = 1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ._dop853 import Derivative, solve_ivp
from ._np import np, on_float64
from .warp import DomainError, Point, WarpFunction, _linspace, _nan_max, _quiet

__all__ = [
    "GeodesicState",
    "IntegrationStats",
    "GeodesicPath",
    "integrate",
    "escape_length",
    "path_length",
    "path_length_quadrature",
    "FlatGeodesic",
    "Neg2Geodesic",
    "transverse_unit_b_form",
    "ESCAPE_MARGIN",
    "UNIT_SPEED_TOL",
]

# Distance from the domain boundary at which integration stops (escape).
ESCAPE_MARGIN = 1e-10

# Relative and absolute tolerances of integrate's DOP853 solve.
RTOL = 5e-11
ATOL = 1e-12

# Maximum deviation of f^2 + g^2 from 1 accepted in an initial state.
UNIT_SPEED_TOL = 1e-6

# Samples of a path when the caller names no number.
_SAMPLES = 129


def _derivative(params: str, *warp: str) -> Derivative:
    """The derivative of integrate's reduced system, which _dop853 compiles
    into its step: (r', t', f') = (f, b h^2, -b^2 h h') at r = y[0] and
    f = y[2].  In the range lo <= r <= hi the lines ``warp`` assign h and h'
    at r to hr and dhr, reading the ``params`` that follow b, lo and hi.
    Both start as nan, so a radius outside the range or a line that divides
    by zero or overflows (``exp``, ``math.exp``, past r = 709.78) leaves
    h h' nan; wherever h h' is not finite, both are taken from clamped(r),
    the one clamp entry (see integrate)."""
    return Derivative(f"b, lo, hi, {params}clamped", "\n".join([
        "r = {y[0]}",
        "hr = dhr = nan",
        "try:",
        "    if lo <= r <= hi:",
        *("        " + line for line in warp),
        "except (ZeroDivisionError, OverflowError):",
        "    pass",
        "if not isfinite(hr * dhr):",
        "    hr, dhr = clamped(r)",
        "{out} = {y[2]}, b * hr * hr, -b * b * hr * dhr",
    ]))


# Every built-in warp family, whose h and h' take a Python float to a Python
# float (see integrate).  Each evaluates them inline, by warp.py's
# operations in warp.py's order, with the family's WarpFunction.params as
# kernel params: one kernel per family and process.
_DERIVATIVES = {
    "one_over_r": _derivative("", "hr = 1.0 / r", "dhr = -1.0 / (r * r)"),
    "r": _derivative("", "hr = r", "dhr = 1.0"),
    "exp": _derivative("", "hr = dhr = exp(r)"),
    "flat": _derivative("num, pole, ", "hr = num / (pole - r)", "dr = pole - r",
                        "dhr = num / (dr * dr)"),
    "neg2": _derivative("scale, const, cube, ", "hr = scale * r / (const + cube * r * r * r)",
                        "q = const + cube * r * r * r",
                        "dhr = scale * (const - 2.0 * cube * r * r * r) / (q * q)"),
}

# A custom warp calls its evaluators hf and dhf: see integrate.
_CALLED = _derivative("hf, dhf, ", "hr, dhr = hf(r), dhf(r)")


def _margin(edge: float) -> float:
    """Escape distance from a domain edge: ESCAPE_MARGIN, or 8 spacings of
    doubles at a finite edge of 65,536 or more, where ESCAPE_MARGIN would
    round the stop level and the clamp onto the edge."""
    return max(ESCAPE_MARGIN, 8.0 * math.ulp(edge)) if math.isfinite(edge) else ESCAPE_MARGIN


def _levels(edge: float, start: float) -> tuple:
    """The stop level and the clamp next to a domain ``edge`` for a solve
    from ``start``: the edge's :func:`_margin` and a quarter of it inside
    the edge.  The solve stops where r crosses the stop level; the clamp
    bounds the radius at which a stage past the edge reads h, and the
    radius of every sample.  A stop is a crossing, which a start past its
    level would never make, so a start that lies the margin or nearer to
    the edge takes half its distance to it as the margin.  Where that would
    round the clamp onto the edge (a start a few spacings of doubles from a
    large edge), both lie on the start instead, and the solve stops there,
    with length 0, unless its first step moves r at least a spacing away
    from the edge.  Each level lies strictly inside a finite edge."""
    margin, distance = _margin(edge), abs(start - edge)
    near = distance <= margin
    if near:
        margin = 0.5 * distance
    inward = margin if start > edge else -margin
    clamp = edge + 0.25 * inward
    return (start, start) if near and clamp == edge else (edge + inward, clamp)


@dataclass(frozen=True)
class GeodesicState:
    """Point plus unit frame velocity (r, t, f, g) along a geodesic."""

    r: float
    t: float
    f: float
    g: float

    def __post_init__(self):
        if self.r <= 0.0 or not math.isfinite(self.r):
            raise ValueError(f"geodesic state requires r > 0, got {self.r}")
        if not (math.isfinite(self.t) and math.isfinite(self.f) and math.isfinite(self.g)):
            raise ValueError("geodesic state components must be finite")

    @property
    def speed_sq(self) -> float:
        return self.f * self.f + self.g * self.g

    @classmethod
    def from_angle(cls, r: float, t: float, angle: float) -> "GeodesicState":
        """Unit state with (f, g) = (cos angle, sin angle)."""
        return cls(r, t, math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class IntegrationStats:
    """How :func:`integrate` obtained a path, and how good it is.

    ``rhs_evals``, ``accepted_steps`` and ``rejected_steps`` are the
    solver's right-hand-side evaluations and accepted and rejected step
    attempts.  The solver builds a step's interpolant only where it is read
    (the escape's step and every step that a sample falls in), so
    rhs_evals = 2 + 12 (accepted_steps + rejected_steps) + 3 per step whose
    interpolant was built; ``max_speed_drift`` is the largest
    |f^2 + b^2 h^2 - 1| over the returned samples; ``stop`` says why the
    integration ended: ``"s_max"``, or ``"escaped_lower"`` or
    ``"escaped_upper"`` where r fell through the stop level next to the
    lower edge or rose through the one next to the upper edge (see
    :func:`integrate`).
    """

    rhs_evals: int
    accepted_steps: int
    rejected_steps: int
    max_speed_drift: float
    stop: str


class _Column:
    """A sample column of :class:`GeodesicPath`, a float array when read.

    A path sampled on Python floats (see :func:`_sample`) holds its columns
    as lists, so a caller that reads only ``endpoint`` or
    ``to_csv_string()`` needs no numpy; the first read of a column converts
    it, once.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, path, owner=None):
        if path is None:
            raise AttributeError(self.name)  # a dataclass field without default
        value = path.__dict__[self.name]
        if isinstance(value, list):
            value = path.__dict__[self.name] = np.array(value)
        return value

    def __set__(self, path, value):
        path.__dict__[self.name] = value


@dataclass(frozen=True)
class GeodesicPath:
    """Arc-length-sampled trajectory with escape metadata.

    ``s`` runs from 0 to ``total_length`` without decreasing.  It strictly
    increases unless ``total_length / (n_samples - 1)`` is below the
    spacing of doubles near ``total_length``: a span of a few doubles
    repeats samples, and a stop at the start (see :func:`_levels`) has
    length 0 and every sample 0.  ``escaped`` is set when integration
    halted because the radius reached the domain boundary (within
    :data:`ESCAPE_MARGIN`; see :func:`integrate`), in which case
    ``total_length`` is the stop's root rather than the requested span.
    Every sampled radius lies between the two clamps of :func:`_levels`,
    strictly inside the domain.
    ``stats`` is set on paths returned by :func:`integrate`.  A path that
    :func:`integrate` sampled at fewer than its default 129 points keeps
    its solve, and ``_resample(n_samples=129, floats=False)`` samples that
    solve again (see :func:`_sample`).
    """

    s: np.ndarray = _Column()
    r: np.ndarray = _Column()
    t: np.ndarray = _Column()
    f: np.ndarray = _Column()
    g: np.ndarray = _Column()
    escaped: bool
    total_length: float
    stats: IntegrationStats | None = None
    _resample: Callable[..., "GeodesicPath"] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def endpoint(self) -> GeodesicState:
        columns = vars(self)  # as stored: the end of a float-sampled path stays a float
        return GeodesicState(*(float(columns[name][-1]) for name in "rtfg"))

    def to_csv(self, path) -> None:
        """Write :meth:`to_csv_string` to the file at ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_string())

    def to_csv_string(self) -> str:
        """Rows (s, r, t, f, g) under a one-line header.

        Values carry 17 significant digits so a double round-trips
        losslessly.
        """
        columns = vars(self)  # as stored: lists of floats are written without numpy
        rows = zip(*(columns[name] for name in "srtfg"))
        return "s,r,t,f,g\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows
        )


def integrate(
    w: WarpFunction,
    init: GeodesicState,
    s_max: float,
    *,
    n_samples: int = _SAMPLES,
) -> GeodesicPath:
    """Integrate the geodesic from ``init`` up to arc length ``s_max``.

    The transverse momentum b = g/h(r) is conserved (Clairaut's integral),
    so DOP853 solves the reduced system

        r' = f,   t' = b h(r)^2,   f' = -b^2 h(r) h'(r),

    at :data:`RTOL` (5e-11) and :data:`ATOL` (1e-12) with no cap on its
    step size (the package's own kernel, scipy's DOP853 on Python floats),
    and the returned g is b h(r) on the samples: the momentum is exact by
    construction.  The system conserves f^2 + b^2 h^2, and f is integrated
    rather than recomputed from that energy, so the unit-speed drift
    |f^2 + b^2 h^2 - 1| of the samples is the quality measure, reported
    with the solver counts and the stop reason in ``stats``.

    Integration stops early, with ``escaped`` set, when the radius reaches
    either domain boundary to within :data:`ESCAPE_MARGIN` (8 spacings of
    doubles at an edge of 65,536 or more, where 1e-10 would round away); a
    start that lies that margin or nearer to an edge stops at half its
    distance from it instead, and one a few spacings of doubles from a large
    edge on itself (see :func:`_levels`).  The solver stops where r crosses
    that level, located by its root finder on the dense output, and
    ``total_length`` is the arc length there.  Each edge has two levels:
    that stop level, and a clamp a quarter of the margin inside the edge,
    which bounds every sample's radius and the radius at which a stage past
    the edge reads h (see below).

    h and h' are read by one rule, on and past the domain's edges too: a
    division by zero reads as nan, in the solver's stages, in the test of
    whether an edge extends the range and at the clamp.  A stage that holds
    nan is rejected as one that holds inf would be; the first step's probe
    is not, since its nan leaves the first step to the start's derivative
    alone (scipy's rule), where an inf would shrink it to the least step.
    The solve of a built-in warp family is float arithmetic throughout and
    makes no numpy call.

    Raises
    ------
    ValueError
        If ``init`` violates the unit-speed constraint by more than
        :data:`UNIT_SPEED_TOL`, ``s_max`` is not finite or not positive,
        ``n_samples`` is not an integer of at least 2, or the step size
        underflows (the message is the solver's).
    """
    try:
        n = operator.index(n_samples)
    except TypeError:
        n = 0
    if n < 2:
        raise ValueError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    if not math.isfinite(s_max):
        raise ValueError("s_max must be finite")
    if s_max <= 0.0:
        raise ValueError("s_max must be positive")
    if not abs(init.speed_sq - 1.0) <= UNIT_SPEED_TOL:
        raise ValueError(
            f"initial state is not unit speed: f^2+g^2 = {init.speed_sq!r}"
        )
    d_lo, d_hi = w.domain.lo, w.domain.hi
    stop_lo, clamp_lo = _levels(d_lo, init.r)
    stop_hi, clamp_hi = _levels(d_hi, init.r)

    # Trial stages of the step that crosses a stop level probe past the
    # boundary.  Where h h' is finite on the boundary (h = r or e^r at
    # r = 0) the warp is evaluated there as written: its continuation keeps
    # the force smooth across that step (h = r gives -b^2 r on both sides),
    # so the step's dense output stays accurate.  Past a pole of h (1/r at
    # r = 0, flat:2,5 at r = 5), and wherever the continuation is not
    # finite (the root of a negative radius), r is clamped just inside the
    # domain instead: there t' = b h^2 is huge, so the solver shrinks its
    # step and resolves the layer next to the pole instead of stepping over
    # it.  The clamp engages beyond the stop level, so no state the solver
    # keeps depends on it.
    h, dh = w._h, w._dh  # raw evaluators: the probes leave the domain on purpose
    floats = w.kind in _DERIVATIVES

    # The solver's state and the derivative it takes are Python floats.
    # The built-in families evaluate h and h' inline on the radius as it
    # is: on a float, + - * / give the bits np.float64 arithmetic gives,
    # and a division by zero, numpy's inf or nan, raises instead.  Caller
    # code sees np.float64, as it would from an array: r**1.5 at r < 0 is
    # nan, not a complex.
    hf, dhf = (h, dh) if floats else (on_float64(h), on_float64(dh))
    def pair(r: float) -> tuple:
        # (h, h') at r.  A division by zero reads as nan, as in the kernel's
        # own lines: inside the domain a Python float divides by zero only
        # where a product underflows (q^2 in neg2's h' for tiny parameters).
        try:
            return hf(r), dhf(r)
        except ZeroDivisionError:
            return math.nan, math.nan

    def clamped(r: float) -> tuple:
        return pair(min(max(r, clamp_lo), clamp_hi))

    # Evaluations on and past the boundary may divide by zero or take the
    # root of a negative number; the clamp replaces those values, so numpy's
    # warnings carry no information.  A built-in family's solve makes no
    # numpy call at all.
    with _quiet(w):
        b = float(init.g / w.h(init.r))
        # An edge extends the range where h h' is finite on it.
        lo = -math.inf if math.isfinite(math.prod(pair(d_lo))) else clamp_lo
        hi = math.inf if math.isfinite(math.prod(pair(d_hi))) else clamp_hi

        if floats:
            derivative, args = _DERIVATIVES[w.kind], (b, lo, hi, *w.params, clamped)
        else:
            derivative, args = _CALLED, (b, lo, hi, hf, dhf, clamped)
        sol = solve_ivp(
            derivative, args, (0.0, float(s_max)), (init.r, init.t, init.f),
            rtol=RTOL, atol=ATOL, stops=(stop_lo, stop_hi),
        )
    if sol.status < 0:
        raise ValueError(f"geodesic integration failed: {sol.message}")

    stop = ("s_max", "escaped_lower", "escaped_upper")[sol.status]
    return _sample(sol, b, h, (clamp_lo, clamp_hi), stop, n, floats and n == 2)


def _sample(
    sol, b: float, h, clamp: tuple, stop: str, n_samples: int = _SAMPLES, floats: bool = False
) -> GeodesicPath:
    """The path of a finished :func:`integrate` solve at ``n_samples``
    points evenly spaced in arc length, each radius held between the two
    ``clamp`` levels; g = b h(r) with ``h`` the raw warp.

    With ``floats``, which a caller passes only for a built-in warp
    family (h takes a Python float to one), the path is evaluated on
    Python floats, one sample at a time through ``DenseSolution.at``, to the
    doubles of the array route, and its columns are lists.  That route
    reads no numpy, but each sample costs a few microseconds more: it
    serves :func:`integrate`'s 2-sample paths and the rows a command writes,
    while in-process sampling keeps the arrays.
    """
    s_end = float(sol.t[-1])
    if floats:
        s = _linspace(0.0, s_end, n_samples)
        # The stop is located the margin inside the boundary; interpolation
        # noise may put the final sample a hair past it.  The clamp keeps
        # states constructible and h inside its domain.
        lo, hi = clamp
        r_v, t_v, f_v, g_v, drifts = [], [], [], [], []
        for x in s:
            r, t, f = sol.sol.at(x)
            r = min(max(r, lo), hi)
            g = b * h(r)
            drifts.append(abs(f * f + g * g - 1.0))
            r_v.append(r)
            t_v.append(t)
            f_v.append(f)
            g_v.append(g)
        drift = _nan_max(drifts)  # a nan stays, as np.max keeps it
    else:
        s = np.linspace(0.0, s_end, n_samples)
        with np.errstate(all="ignore"):  # the steps it builds evaluate h as the solve did
            r_v, t_v, f_v = sol.sol(s)
        r_v = np.clip(r_v, *clamp)  # as above
        g_v = b * np.asarray(h(r_v), dtype=float)
        drift = float(np.max(np.abs(f_v * f_v + g_v * g_v - 1.0)))
    stats = IntegrationStats(
        rhs_evals=sol.nfev + sol.sol.nfev,
        accepted_steps=len(sol.t) - 1,
        rejected_steps=sol.nrej,
        max_speed_drift=drift,
        stop=stop,
    )
    return GeodesicPath(
        s=s,
        r=r_v,
        t=t_v,
        f=f_v,
        g=g_v,
        escaped=sol.status > 0,
        total_length=s_end,
        stats=stats,
        _resample=partial(_sample, sol, b, h, clamp, stop) if n_samples < _SAMPLES else None,
    )


def escape_length(w: WarpFunction, init: GeodesicState, cap: float) -> float | None:
    """Arc length until the geodesic leaves the domain, or None past ``cap``.

    A finite value certifies an inextendible geodesic of finite length, the
    witness used to show a metric is not geodesically complete.
    """
    path = integrate(w, init, cap, n_samples=2)
    return path.total_length if path.escaped else None


def path_length(path: GeodesicPath) -> float:
    """Length of a unit-speed path: the arc-length parameter span."""
    if path.s.size == 0:
        raise ValueError("empty path")
    return float(path.s[-1] - path.s[0])


def path_length_quadrature(w: WarpFunction, path: GeodesicPath) -> float:
    """Trapezoidal length of the sampled trajectory measured by the metric.

    Independent of the arc-length parametrization: segment lengths are
    sqrt(dr^2 + dt^2/h^2) evaluated at midpoints.  Second-order accurate in
    the sample spacing; used as a cross-check of :func:`path_length`.
    """
    dr = np.diff(path.r)
    dt = np.diff(path.t)
    mid = 0.5 * (path.r[1:] + path.r[:-1])
    hm = np.asarray(w.h(mid))
    return float(np.sum(np.sqrt(dr * dr + (dt / hm) ** 2)))


# -- closed forms for h = 1/r -------------------------------------------------


def _flat_param(s, r0: float, r1: float):
    """Family parameter a of the flat geodesic from radius r0 that reaches
    radius r1 at arc length s: the radial relation s^2 + 2 a s + r0^2 = r1^2."""
    return (r1 * r1 - r0 * r0 - s * s) / (2.0 * s)


def _require_finite(**params: float) -> None:
    """Raise ``ValueError`` naming the first of a closed form's ``params``
    that is not finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _point(s, r, t):
    """A closed form's position at arc length s: a :class:`Point` at a
    scalar s, else the arrays (r, t)."""
    return Point(float(r), float(t)) if np.ndim(s) == 0 else (r, t)


@dataclass(frozen=True)
class FlatGeodesic:
    """Non-horizontal geodesic of the h = 1/r metric through (r0, t0).

    The family parameter ``a`` in (-r0, r0) fixes the initial radial speed
    f(0) = a/r0; ``sign`` picks the transverse direction.  The squared
    turning radius ``beta = r0^2 - a^2`` stays positive, so these geodesics
    never reach the boundary r = 0.  A non-finite ``r0``, ``t0`` or ``a`` is
    refused by name.
    """

    r0: float
    t0: float
    a: float
    sign: float = 1.0

    def __post_init__(self):
        _require_finite(r0=self.r0, t0=self.t0, a=self.a)
        if self.r0 <= 0.0:
            raise ValueError("r0 must be positive")
        if not abs(self.a) < self.r0:
            raise ValueError(f"family parameter must satisfy |a| < r0, got a={self.a}")
        if self.sign not in (-1.0, 1.0):
            raise ValueError("sign must be +1 or -1")

    @property
    def beta(self) -> float:
        """Squared turning radius r0^2 - a^2 > 0."""
        return self.r0 * self.r0 - self.a * self.a

    @property
    def d(self) -> float:
        """Integration constant of the single-branch arctangent form
        t(s) = sign * arctan((s + a)/sqrt(beta)) + d, fixed by t(0) = t0.

        That form jumps where its argument passes a pole; ``angle`` is the
        continuous version used for evaluation.
        """
        return self.t0 - self.sign * math.atan2(self.a, math.sqrt(self.beta))

    def radius(self, s):
        s = np.asarray(s, dtype=float)
        return np.sqrt(s * s + 2.0 * self.a * s + self.r0 * self.r0)

    def angle(self, s):
        """Continuous transverse angle with angle(0) = 0.

        The two-argument angle of (r0^2 + a s, s sqrt(beta)) is continuous
        across the zero of its first component (where a naive arctangent of
        the ratio would jump by pi), and confined to (-pi, pi): the sweep of
        any one geodesic of this family never reaches a half turn.
        """
        s = np.asarray(s, dtype=float)
        return np.arctan2(s * math.sqrt(self.beta), self.r0 * self.r0 + self.a * s)

    def point(self, s):
        """Position (r, t) at arc length s (s may be an array)."""
        return _point(s, self.radius(s), self.t0 + self.sign * self.angle(s))

    def state(self, s: float) -> GeodesicState:
        """Full state at arc length s, unit speed by construction."""
        s = float(s)
        r = float(self.radius(s))
        f = (s + self.a) / r
        g = self.sign * math.sqrt(self.beta) / r
        return GeodesicState(r, float(self.t0 + self.sign * self.angle(s)), f, g)

    def initial_state(self) -> GeodesicState:
        return self.state(0.0)


# -- closed forms for h = r ---------------------------------------------------


@dataclass(frozen=True)
class Neg2Geodesic:
    """Non-horizontal geodesic of the h = r metric through (r0, t0).

    ``b`` in (0, 1/r0] is the conserved transverse momentum g/h, so
    g(s) = b r(s) > 0 (targets below the start are reached via the mirror
    symmetry t -> -t).  ``sign`` is the direction of the initial radial
    motion; with phase psi(s) = sign * b s + asin(b r0),

        r(s) = sin(psi(s)) / b,
        t(s) = t0 + s/(2 b) - sign * (sin(2 psi(s)) - sin(2 psi(0))) / (4 b^2),

    where t is the exact antiderivative of t' = h g = b r^2.  Both
    expressions are valid on the single arch where r > 0; the arch ends at
    finite arc length with r -> 0, an inextendible finite-length geodesic.
    A non-finite ``r0``, ``t0`` or ``b`` is refused by name.
    """

    r0: float
    t0: float
    b: float
    sign: float = 1.0

    def __post_init__(self):
        _require_finite(r0=self.r0, t0=self.t0, b=self.b)
        if self.r0 <= 0.0:
            raise ValueError("r0 must be positive")
        if not (0.0 < self.b <= 1.0 / self.r0):
            raise ValueError(
                f"transverse momentum must satisfy 0 < b <= 1/r0, got b={self.b}"
            )
        if self.sign not in (-1.0, 1.0):
            raise ValueError("sign must be +1 or -1")

    @property
    def phase0(self) -> float:
        """Initial phase asin(b r0), in (0, pi/2]."""
        return math.asin(min(1.0, self.b * self.r0))

    def arch(self) -> tuple[float, float]:
        """Open interval of arc lengths with r > 0 (the positive arch)."""
        psi0 = self.phase0
        if self.sign > 0:
            return (-psi0 / self.b, (math.pi - psi0) / self.b)
        return ((psi0 - math.pi) / self.b, psi0 / self.b)

    def _phase(self, s):
        """The arc lengths ``s`` as a float array, and the phase psi(s) there.

        Raises :class:`DomainError`, naming ``s`` as the caller passed it,
        where an arc length lies outside the positive arch."""
        lo, hi = self.arch()
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= lo) or np.any(s_arr >= hi):
            raise DomainError(f"arc length {s!r} outside the positive arch ({lo}, {hi})")
        return s_arr, self.sign * self.b * s_arr + self.phase0

    def radius(self, s):
        return np.sin(self._phase(s)[1]) / self.b

    def transverse(self, s):
        s_arr, psi = self._phase(s)
        b = self.b
        return self.t0 + s_arr / (2.0 * b) - self.sign * (
            np.sin(2.0 * psi) - math.sin(2.0 * self.phase0)
        ) / (4.0 * b * b)

    def point(self, s):
        return _point(s, self.radius(s), self.transverse(s))

    def state(self, s: float) -> GeodesicState:
        s = float(s)
        p, psi = self.point(s), float(self._phase(s)[1])
        return GeodesicState(p.r, p.t, self.sign * math.cos(psi), self.b * p.r)

    def initial_state(self) -> GeodesicState:
        return self.state(0.0)


def transverse_unit_b_form(geo: Neg2Geodesic, s):
    """Simplified transverse closed form that is exact only at b = 1.

    This variant omits the 1/b scalings required for consistency with
    t' = h g = b r^2; it is kept for cross-checking because it circulates as
    a printed formula for this family.  ``Neg2Geodesic.transverse`` is the
    equation-consistent antiderivative and agrees with this expression
    exactly when b == 1 (for the positive radial sign).
    """
    s_arr = np.asarray(s, dtype=float)
    psi = geo.sign * geo.b * s_arr + geo.phase0
    return geo.t0 + s_arr / 2.0 - (np.sin(2.0 * psi) - math.sin(2.0 * geo.phase0)) / 4.0
