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
from dataclasses import dataclass

import numpy as np

from ._dop853 import solve_ivp
from .warp import DomainError, Point, WarpFunction

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

# Warp families whose h and h' are plain + - * / on their argument, so a
# Python float in gives a Python float out (see integrate).
_FLOAT_KINDS = frozenset({"one_over_r", "r", "flat", "neg2"})


def _margin(edge: float) -> float:
    """Escape distance from a domain edge: ESCAPE_MARGIN, or 8 spacings of
    doubles at a finite edge of 65,536 or more, where ESCAPE_MARGIN would
    round the event threshold, the clamp and the final clip onto the edge."""
    return max(ESCAPE_MARGIN, 8.0 * math.ulp(edge)) if math.isfinite(edge) else ESCAPE_MARGIN


def _on_float64(fn):
    """``fn`` evaluated at np.float64, its value returned as a Python float."""
    return lambda r: float(fn(np.float64(r)))


@dataclass(frozen=True)
class GeodesicState:
    """Point plus unit frame velocity (r, t, f, g) along a geodesic."""

    r: float
    t: float
    f: float
    g: float

    def __post_init__(self):
        if self.r <= 0.0 or not np.isfinite(self.r):
            raise ValueError(f"geodesic state requires r > 0, got {self.r}")
        if not (np.isfinite(self.t) and np.isfinite(self.f) and np.isfinite(self.g)):
            raise ValueError("geodesic state components must be finite")

    @property
    def speed_sq(self) -> float:
        return self.f * self.f + self.g * self.g

    @property
    def point(self) -> Point:
        return Point(self.r, self.t)

    @classmethod
    def from_angle(cls, r: float, t: float, angle: float) -> "GeodesicState":
        """Unit state with (f, g) = (cos angle, sin angle)."""
        return cls(r, t, math.cos(angle), math.sin(angle))


@dataclass(frozen=True)
class IntegrationStats:
    """How :func:`integrate` obtained a path, and how good it is.

    ``rhs_evals``, ``accepted_steps`` and ``rejected_steps`` are the
    solver's right-hand-side evaluations and accepted and rejected step
    attempts, so rhs_evals = 2 + 15 accepted_steps + 12 rejected_steps;
    ``max_speed_drift`` is the largest |f^2 + b^2 h^2 - 1| over the
    returned samples; ``stop`` says why the integration ended:
    ``"s_max"``, ``"escaped_lower"`` or ``"escaped_upper"``.
    """

    rhs_evals: int
    accepted_steps: int
    rejected_steps: int
    max_speed_drift: float
    stop: str


@dataclass(frozen=True)
class GeodesicPath:
    """Arc-length-sampled trajectory with escape metadata.

    ``s`` strictly increases from 0 to ``total_length``; ``escaped`` is set
    when integration halted because the radius reached the domain boundary
    (within :data:`ESCAPE_MARGIN`; see :func:`integrate`), in which case
    ``total_length`` is the event location rather than the requested span.
    ``stats`` is set on paths returned by :func:`integrate`.
    """

    s: np.ndarray
    r: np.ndarray
    t: np.ndarray
    f: np.ndarray
    g: np.ndarray
    escaped: bool
    total_length: float
    stats: IntegrationStats | None = None

    @property
    def endpoint(self) -> GeodesicState:
        return GeodesicState(
            float(self.r[-1]), float(self.t[-1]), float(self.f[-1]), float(self.g[-1])
        )

    def to_csv(self, path) -> None:
        """Write :meth:`to_csv_string` to the file at ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_string())

    def to_csv_string(self) -> str:
        """Rows (s, r, t, f, g) under a one-line header.

        Values carry 17 significant digits so a double round-trips
        losslessly.
        """
        rows = zip(self.s, self.r, self.t, self.f, self.g)
        return "s,r,t,f,g\n" + "".join(
            ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows
        )


def integrate(
    w: WarpFunction,
    init: GeodesicState,
    s_max: float,
    *,
    n_samples: int = 129,
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
    doubles at an edge of 65,536 or more, where 1e-10 would round away); the
    boundary crossing is located by the solver's root finder on the dense
    output and ``total_length`` is the arc length at the event.

    Raises
    ------
    ValueError
        If ``init`` violates the unit-speed constraint by more than
        :data:`UNIT_SPEED_TOL`, ``s_max`` is not finite or not positive,
        or the step size underflows (the message is the solver's).
    """
    if not math.isfinite(s_max):
        raise ValueError("s_max must be finite")
    if s_max <= 0.0:
        raise ValueError("s_max must be positive")
    if not abs(init.speed_sq - 1.0) <= UNIT_SPEED_TOL:
        raise ValueError(
            f"initial state is not unit speed: f^2+g^2 = {init.speed_sq!r}"
        )
    b = float(init.g / w.h(init.r))
    d_lo, d_hi = w.domain.lo, w.domain.hi
    m_lo, m_hi = _margin(d_lo), _margin(d_hi)
    stop_lo, stop_hi = d_lo + m_lo, d_hi - m_hi

    events = []

    def hit_lower(s, y):
        return y[0] - stop_lo

    hit_lower.direction = -1
    events.append(hit_lower)

    if math.isfinite(d_hi):
        def hit_upper(s, y):
            return y[0] - stop_hi

        hit_upper.direction = 1
        events.append(hit_upper)

    # Trial stages of the step that crosses the escape event probe past the
    # boundary.  Where h h' is finite on the boundary (h = r or e^r at
    # r = 0) the warp is evaluated there as written: its continuation keeps
    # the force smooth across that step (h = r gives -b^2 r on both sides),
    # so the step's dense output stays accurate.  Past a pole of h (1/r at
    # r = 0, flat:2,5 at r = 5), and wherever the continuation is not
    # finite (the root of a negative radius), r is clamped just inside the
    # domain instead: there t' = b h^2 is huge, so the solver shrinks its
    # step and resolves the layer next to the pole instead of stepping over
    # it.  The clamp engages beyond the event threshold, so no state the
    # solver keeps depends on it.
    h, dh = w._h, w._dh  # raw evaluators: the probes leave the domain on purpose
    f64 = np.float64
    inner_lo = d_lo + 0.25 * m_lo
    inner_hi = d_hi - 0.25 * m_hi

    def extends(edge: float) -> bool:
        return math.isfinite(h(np.float64(edge)) * dh(np.float64(edge)))

    # Evaluations on and past the boundary may divide by zero or take the
    # root of a negative number; the clamp replaces those values, so their
    # warnings carry no information.
    with np.errstate(all="ignore"):
        lo = -math.inf if extends(d_lo) else inner_lo
        hi = math.inf if extends(d_hi) else inner_hi

        # The solver's state and the derivative it takes are Python floats.
        # The plain-arithmetic families (_FLOAT_KINDS) get the radius as it
        # is: on a float, + - * / give the bits np.float64 arithmetic gives.
        # e^r and caller code see np.float64, as they would from an array:
        # e^r keeps np.exp (math.exp differs in the last bit), and r**1.5
        # at r < 0 is nan, not a complex.  The range is tested first, and a
        # division by zero (numpy's inf) takes the clamp like a non-finite
        # h h'.  The clamp evaluates at np.float64 for every family.
        hf, dhf = (h, dh) if w.kind in _FLOAT_KINDS else (_on_float64(h), _on_float64(dh))

        def rhs(s, y):
            r = y[0]
            if lo <= r <= hi:
                try:
                    hr, dhr = hf(r), dhf(r)
                    if math.isfinite(hr * dhr):
                        return (y[2], b * hr * hr, -b * b * hr * dhr)
                except ZeroDivisionError:
                    pass
            r = f64(min(max(r, inner_lo), inner_hi))
            hr, dhr = float(h(r)), float(dh(r))
            return (y[2], b * hr * hr, -b * b * hr * dhr)

        sol = solve_ivp(
            rhs, (0.0, float(s_max)), (init.r, init.t, init.f),
            rtol=RTOL, atol=ATOL, events=events,
        )
    if sol.status < 0:
        raise ValueError(f"geodesic integration failed: {sol.message}")

    escaped = sol.status == 1
    s_end = float(sol.t[-1])
    grid = np.linspace(0.0, s_end, max(2, int(n_samples)))
    r_v, t_v, f_v = sol.sol(grid)
    # The event is located the margin inside the boundary; interpolation
    # noise may put the final sample a hair past it.  Clamp to keep states
    # constructible and h inside its domain.
    r_v = np.clip(r_v, d_lo + 0.5 * m_lo, d_hi - 0.5 * m_hi)
    g_v = b * np.asarray(h(r_v), dtype=float)
    if not escaped:
        stop = "s_max"
    elif sol.t_events[0].size:
        stop = "escaped_lower"
    else:
        stop = "escaped_upper"
    stats = IntegrationStats(
        rhs_evals=sol.nfev,
        accepted_steps=len(sol.t) - 1,
        rejected_steps=sol.nrej,
        max_speed_drift=float(np.max(np.abs(f_v * f_v + g_v * g_v - 1.0))),
        stop=stop,
    )
    return GeodesicPath(
        s=grid,
        r=r_v,
        t=t_v,
        f=f_v,
        g=g_v,
        escaped=escaped,
        total_length=s_end,
        stats=stats,
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


def _flat_sweep(s, r0: float, a):
    """Continuous transverse angle swept by the flat geodesic (r0, a) at s."""
    s = np.asarray(s, dtype=float)
    beta = np.maximum(r0 * r0 - a * a, 0.0)
    return np.arctan2(s * np.sqrt(beta), r0 * r0 + a * s)


@dataclass(frozen=True)
class FlatGeodesic:
    """Non-horizontal geodesic of the h = 1/r metric through (r0, t0).

    The family parameter ``a`` in (-r0, r0) fixes the initial radial speed
    f(0) = a/r0; ``sign`` picks the transverse direction.  The squared
    turning radius ``beta = r0^2 - a^2`` stays positive, so these geodesics
    never reach the boundary r = 0.
    """

    r0: float
    t0: float
    a: float
    sign: float = 1.0

    def __post_init__(self):
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
        return _flat_sweep(s, self.r0, self.a)

    def point(self, s):
        """Position (r, t) at arc length s (s may be an array)."""
        r = self.radius(s)
        t = self.t0 + self.sign * self.angle(s)
        if np.ndim(s) == 0:
            return Point(float(r), float(t))
        return r, t

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
    """

    r0: float
    t0: float
    b: float
    sign: float = 1.0

    def __post_init__(self):
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
        return self.sign * self.b * np.asarray(s, dtype=float) + self.phase0

    def _require_arch(self, s):
        lo, hi = self.arch()
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr <= lo) or np.any(s_arr >= hi):
            raise DomainError(f"arc length {s!r} outside the positive arch ({lo}, {hi})")

    def radius(self, s):
        self._require_arch(s)
        return np.sin(self._phase(s)) / self.b

    def transverse(self, s):
        self._require_arch(s)
        s_arr = np.asarray(s, dtype=float)
        psi = self._phase(s_arr)
        b = self.b
        return self.t0 + s_arr / (2.0 * b) - self.sign * (
            np.sin(2.0 * psi) - math.sin(2.0 * self.phase0)
        ) / (4.0 * b * b)

    def point(self, s):
        r = self.radius(s)
        t = self.transverse(s)
        if np.ndim(s) == 0:
            return Point(float(r), float(t))
        return r, t

    def state(self, s: float) -> GeodesicState:
        s = float(s)
        psi = float(self._phase(s))
        r = float(self.radius(s))
        return GeodesicState(
            r,
            float(self.transverse(s)),
            self.sign * math.cos(psi),
            self.b * r,
        )

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
