"""Two-point geodesic problems for the two featured metrics.

For h = 1/r the metric dr^2 + r^2 dt^2 is Euclidean in polar form with the
angle unrolled over the whole real line, which settles the connectivity
question completely: two points with equal t lie on a horizontal geodesic of
length |r1 - r0|; two points with 0 < |t1 - t0| < pi are joined by exactly
one geodesic (the chord, of length given by the law of cosines); for
|t1 - t0| >= pi no geodesic exists.  The solver here never assumes the
closed form: it shoots over the one-parameter geodesic family and lets a
bracketing root-finder produce the connection, so the algebraic candidate
formulas in :func:`flat_chord_candidates` can be adjudicated against it.
Near |t1 - t0| = pi the connecting geodesic passes close to r = 0; once it
would pass within the integrator's escape margin the replay cannot confirm
it, and the result is ``search_exhausted``.

For h = r (:func:`connect_neg2`) shooting works through the closed-form
arches.  Both solvers shoot over an angle of the geodesic at one endpoint,
over which the transverse gain is smooth and monotone (:func:`connect_neg2`
says why for h = r), so bisection over the sorted angle nodes finds the one
bracket of the miss; ``iterations`` counts the gain evaluations of the
bisection and of ``brentq``.  :func:`connect_neg2_same_r` implements,
separately, the classical same-radius candidate enumeration b s = 2 k pi
with its pi r0 <= |dt| threshold.  The two operations intentionally disagree below
that threshold: the enumeration's candidates close up only at formula level
(their trajectories cross r = 0, leaving the half plane), while honest
shooting finds in-chart connections through the apex branch for every
transverse separation.  See the docstrings for details.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cache, cached_property

from ._brentq import brentq  # a module attribute: perfbench's tracer patches it
from .geodesics import (ESCAPE_MARGIN, FlatGeodesic, GeodesicPath, GeodesicState, _flat_param,
                        integrate)
from .warp import (DEFAULT_TOL, Point, WarpFunction, _check_positive, _linspace, warp_one_over_r,
                   warp_r)

__all__ = [
    "ConnectResult",
    "ChordParam",
    "ChordCandidate",
    "SameRCandidate",
    "connect_flat",
    "flat_chord_candidates",
    "distance_flat",
    "chord_angle",
    "projected_distance",
    "connect_neg2",
    "connect_neg2_same_r",
    "same_r_candidates",
    "DEFAULT_TOL",
]

# same_r_candidates refuses to list more candidates than this (about 30 MB
# of them); connect_neg2_same_r counts any number without a list.
MAX_SAME_R_CANDIDATES = 100_000

_SCAN_SEEDS = 64


@cache
def _phases() -> tuple[list[float], list[float]]:
    """The arch phases (rise, fall) that connect_neg2 searches, built on its
    first call: asin(x) on the rising half and pi - asin(x) on the falling
    half, with x spread over 16 decades so that both very small and very
    large transverse gaps are bracketed.  x is 10.0 ** e over the exponents
    of ``np.geomspace(1e-16, 1.0, _SCAN_SEEDS)``, with its exact ends, on
    Python floats: libm's power, not numpy's, whose SIMD kernels round
    differently on different CPUs."""
    exponents = _linspace(-16.0, 0.0, _SCAN_SEEDS)[1:-1]
    rise = [math.asin(x) for x in [1e-16, *(10.0 ** e for e in exponents), 1.0]]
    return rise, sorted({math.pi - x for x in rise})


_FLAT = warp_one_over_r()
_NEG2 = warp_r()


@dataclass(frozen=True)
class ConnectResult:
    """Outcome of a two-point geodesic problem.

    ``variant`` is one of ``"horizontal"``, ``"found"`` or ``"no_geodesic"``.
    For ``found``, ``param`` is the family parameter (a for the flat metric,
    b for the h = r metric), ``s`` the arc length, and ``path`` the replayed
    trajectory; ``in_chart`` records whether the connecting curve stays
    inside r > 0 (same-radius candidate enumeration can confirm curves that
    close up only at formula level).  For ``no_geodesic``, ``reason`` is
    ``"threshold_violated"`` or ``"search_exhausted"``.

    ``path`` is sampled on first read, at :func:`integrate`'s default 129
    points, from the solve of the replay that confirmed the connection
    (``_replay``, which holds only the two ends): no second solve, and a
    caller that reads only the verdict pays for no samples.
    """

    variant: str
    length: float | None = None
    s: float | None = None
    param: float | None = None
    sign: float | None = None
    _replay: GeodesicPath | None = field(default=None, repr=False)
    reason: str | None = None
    in_chart: bool | None = None
    iterations: int = 0

    @cached_property
    def path(self) -> GeodesicPath | None:
        return None if self._replay is None else self._replay._resample()

    @property
    def found(self) -> bool:
        return self.variant in ("found", "horizontal")

    def to_dict(self) -> dict:
        """The variant, each optional field that is not None, and the iterations,
        in that order."""
        d: dict = {"variant": self.variant}
        for key in ("length", "s", "param", "sign", "reason", "in_chart"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        d["iterations"] = self.iterations
        return d


def _check_distinct(p0: Point, p1: Point) -> None:
    if p0.r == p1.r and p0.t == p1.t:
        raise ValueError("the two points must be distinct")


def _horizontal(p0: Point, p1: Point, tol: float) -> ConnectResult | None:
    """The two solvers' common start: check ``tol``, then that the points are
    distinct.  Two points of equal t lie on the horizontal segment, which is
    returned; any other pair gives None."""
    _check_positive("tol", tol)
    _check_distinct(p0, p1)
    if p1.t != p0.t:
        return None
    return ConnectResult(variant="horizontal", length=abs(p1.r - p0.r), sign=0.0, in_chart=True)


def _exhausted(evals: int) -> ConnectResult:
    return ConnectResult(variant="no_geodesic", reason="search_exhausted", iterations=evals)


def _shoot(
    w: WarpFunction, p0: Point, p1: Point, tol: float, shot, nodes: list[float], read,
    escapes=None,
) -> ConnectResult:
    """Shoot from p0 to p1 over a one-parameter family of geodesics: the
    two-point driver of both solvers, once :func:`_horizontal` has passed
    the pair.

    ``shot(x)`` returns the closed-form arc length s and transverse gain
    |dt| of the family member x at the radius of p1, and its initial
    (f, |g|) at p0.  The gain is monotone over the sorted ``nodes``, so the
    miss changes sign at most once.  The end nodes are evaluated first,
    walking inward past any whose miss is not finite (at huge radii the gain
    of the flattest arches overflows).  Bisection over the node indices,
    keyed on the first end's sign because the flat sweep falls, finds the
    bracket, and ``brentq`` refines it to a few ulps of x.  A root of zero
    length confirms nothing, nor does one for which ``escapes(x)`` holds
    (its replay would leave the domain); any other is replayed once through
    the integrator, which must succeed and end within ``tol`` of p1 in both
    coordinates.  The replay samples only its two ends: its endpoint is the
    last step's interpolant at the same arc length as at any sample count,
    and the full path is sampled from its solve only when it is read.

    Returns the ``found`` result, whose ``param`` and ``sign`` are
    ``read(x, f0)`` of the confirmed root x and its initial f0, or else
    ``search_exhausted``.  Either counts in ``iterations`` the gain
    evaluations of the bisection and of ``brentq``.
    """
    target = abs(p1.t - p0.t)
    evals = 0

    def miss(x):
        nonlocal evals
        evals += 1
        return shot(x)[1] - target

    lo, hi = 0, len(nodes) - 1
    v_lo, v_hi = miss(nodes[lo]), miss(nodes[hi])
    while not math.isfinite(v_lo) and lo + 1 < hi:
        lo += 1
        v_lo = miss(nodes[lo])
    while not math.isfinite(v_hi) and lo + 1 < hi:
        hi -= 1
        v_hi = miss(nodes[hi])
    side = math.copysign(1.0, v_lo)
    if side * v_hi > 0.0:
        return _exhausted(evals)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v = miss(nodes[mid])
        if side * v > 0.0:
            lo, v_lo = mid, v
        else:
            hi, v_hi = mid, v
    if not (math.isfinite(v_lo) and math.isfinite(v_hi)):
        return _exhausted(evals)
    x = nodes[hi] if v_hi == 0.0 else brentq(
        miss, nodes[lo], nodes[hi], xtol=1e-300, rtol=8.9e-16, maxiter=200
    )
    s, _, f0, g0 = shot(x)
    if s <= 0.0 or (escapes is not None and escapes(x)):
        return _exhausted(evals)
    init = GeodesicState(p0.r, p0.t, f0, math.copysign(g0, p1.t - p0.t))
    try:
        replay = integrate(w, init, s, n_samples=2)
    except ValueError:  # the step size underflowed: nothing to confirm
        return _exhausted(evals)
    end = replay.endpoint
    if not (abs(end.r - p1.r) <= tol and abs(end.t - p1.t) <= tol):
        return _exhausted(evals)
    param, sign = read(x, f0)
    return ConnectResult(variant="found", length=s, s=s, param=param, sign=sign,
                         _replay=replay, in_chart=True, iterations=evals)


# -- flat metric (h = 1/r) ----------------------------------------------------


def connect_flat(p0: Point, p1: Point, tol: float = DEFAULT_TOL) -> ConnectResult:
    """Solve the two-point problem for the h = 1/r metric.

    Equal transverse coordinates give the horizontal segment.  For
    0 < |t1 - t0| < pi the connection is obtained by shooting over the
    elevation x in (-pi/2, pi/2) of the geodesic at the inner point, the
    angle between it and the circle r = r_in, positive outward.  The
    transverse sweep falls from pi at x = -pi/2 to 0 at x = pi/2, so one
    of two brackets, split at x = 0, holds the root; the shot is replayed
    through the integrator and must hit the target within ``tol`` in both
    coordinates.  For |t1 - t0| >= pi the transverse sweep of the whole
    family stays below pi, and the result is ``no_geodesic`` with reason
    ``threshold_violated``.

    Resolution note: the connecting geodesic passes the origin at a
    distance of about (pi - |dt|) r0 r1 / (r0 + r1).  When that perihelion
    falls inside the integrator's :data:`~warpgeo.geodesics.ESCAPE_MARGIN`
    the replay escapes, and the result is ``search_exhausted``, an honest
    "not found" rather than a nonexistence claim.  A shot whose perihelion
    r_in cos(x), for an elevation x < 0, lies within half that margin
    cannot be confirmed and is not replayed.

    Raises
    ------
    ValueError
        If the points coincide, or ``tol`` is not positive and finite.
    """
    if (horizontal := _horizontal(p0, p1, tol)) is not None:
        return horizontal
    r0, r1 = p0.r, p1.r
    dt = p1.t - p0.t
    if abs(dt) >= math.pi:
        return ConnectResult(variant="no_geodesic", reason="threshold_violated")

    # With the inner point at radius r_in and the chord leaving it at
    # elevation x, the chord reaches r_out after s, where
    # s^2 + 2 c s = d for c = r_in sin(x) and d = r_out^2 - r_in^2; e = c + s
    # is r_out times the outward radial speed there (hypot, because c^2
    # underflows at the tiniest gaps).  Each form of s below is free of
    # cancellation on its side of x = 0, and the nodes split there: for
    # equal radii the sweep is 0 for all x >= 0, and a bracket straddling
    # that kink would converge only linearly.
    r_in, r_out = min(r0, r1), max(r0, r1)
    d = (r_out - r_in) * (r_out + r_in)

    def shot(x):
        c = r_in * math.sin(x)
        e = math.hypot(math.sqrt(d), c)
        s = e - c if c <= 0.0 else d / (e + c)
        sweep = math.atan2(s * math.cos(x), r_in + s * math.sin(x))
        if r0 <= r1:
            return s, sweep, math.sin(x), math.cos(x)
        return s, sweep, -e / r_out, r_in * math.cos(x) / r_out

    # An inward shot (x < 0) passes its perihelion r_in cos(x) before it
    # reaches r_out.  Within half the escape margin its replay must escape.
    def escapes(x):
        return x < 0.0 and r_in * math.cos(x) < 0.5 * ESCAPE_MARGIN

    # The parameter is a = r0 f0, and the sign that of dt.
    def read(x, f0):
        return r0 * f0, math.copysign(1.0, dt)

    nodes = [-math.pi / 2.0, 0.0, math.pi / 2.0]
    return _shoot(_FLAT, p0, p1, tol, shot, nodes, read, escapes)


@dataclass(frozen=True)
class ChordCandidate:
    """One algebraic candidate (s, a) for the flat two-point problem.

    Two closed-form versions circulate for the chord length: the law of
    cosines ``s^2 = r0^2 + r1^2 - 2 r0 r1 cos(dt)`` (tag
    ``"law_of_cosines"``; the inner sign flips the cosine term) and a
    variant with squared radii and squared cosine,
    ``s^2 = r0^2 + r1^2 +- 2 r0^2 r1^2 cos^2(dt)`` (tag ``"cos_squared"``).
    All inner/outer sign combinations are emitted; ``a`` always follows from
    the radial relation, and ``miss`` is the closed-form replay error
    against the target point (infinite when the candidate leaves the family
    range |a| < r0 or has no real s).  The shooting solver
    (:func:`connect_flat`) adjudicates which candidate is correct.
    """

    source: str
    inner_sign: int
    outer_sign: int
    s: float
    a: float
    miss: float


def flat_chord_candidates(p0: Point, p1: Point) -> list[ChordCandidate]:
    """All sign-variant closed-form candidates for the flat connection.

    Requires 0 < |t1 - t0| < pi.  Candidates are ordered by replay miss, so
    the first entry is the reconciled one.
    """
    _check_distinct(p0, p1)
    r0, t0, r1, t1 = p0.r, p0.t, p1.r, p1.t
    dt = t1 - t0
    if dt == 0.0 or abs(dt) >= math.pi:
        raise ValueError("chord candidates require 0 < |t1 - t0| < pi")
    c = math.cos(dt)
    sigma = 1.0 if dt > 0 else -1.0
    out: list[ChordCandidate] = []
    for source, term in (
        ("law_of_cosines", 2.0 * r0 * r1 * c),
        ("cos_squared", 2.0 * r0 * r0 * r1 * r1 * c * c),
    ):
        for inner in (+1, -1):
            s_sq = r0 * r0 + r1 * r1 + inner * term
            for outer in (+1, -1):
                # s is nan without a real root, and a is nan at s = 0 or nan.
                s = outer * math.sqrt(s_sq) if s_sq >= 0.0 else math.nan
                a = _flat_param(s, r0, r1) if s else math.nan
                miss = math.inf
                if abs(a) < r0:
                    pt = FlatGeodesic(r0=r0, t0=t0, a=a, sign=sigma).point(s)
                    miss = math.hypot(pt.r - r1, pt.t - t1)
                out.append(ChordCandidate(source, inner, outer, s, a, miss))
    out.sort(key=lambda cand: cand.miss)
    return out


def distance_flat(p0: Point, p1: Point) -> float | None:
    """Geodesic distance under h = 1/r, or None when no geodesic exists."""
    if p0.r == p1.r and p0.t == p1.t:
        return 0.0
    res = connect_flat(p0, p1)
    return res.length if res.found else None


@dataclass(frozen=True)
class ChordParam:
    """Rotation angle alpha putting a flat geodesic in the secant form
    r(t) = r0 |cos(t0 + alpha) / cos(t + alpha)|."""

    alpha: float


def chord_angle(p0: Point, p1: Point) -> ChordParam:
    """Angle alpha with r0 cos(t0 + alpha) = r1 cos(t1 + alpha).

    Determined only modulo pi; this normalization takes the two-argument
    angle of the chord displacement written in the development coordinates
    (r cos t, r sin t).  Requires 0 < |t1 - t0| < pi, where the connecting
    geodesic exists and the secant parametrization is valid on the whole
    t-interval between the points.
    """
    _check_distinct(p0, p1)
    dt = p1.t - p0.t
    if dt == 0.0 or abs(dt) >= math.pi:
        raise ValueError("chord angle requires 0 < |t1 - t0| < pi")
    dx = p1.r * math.cos(p1.t) - p0.r * math.cos(p0.t)
    dy = p1.r * math.sin(p1.t) - p0.r * math.sin(p0.t)
    return ChordParam(alpha=math.atan2(dx, dy))


def projected_distance(p0: Point, p1: Point, alpha: float) -> float:
    """Distance form |r1 sin(t1 + alpha) - r0 sin(t0 + alpha)|.

    Equals the flat geodesic distance when ``alpha`` solves the secant
    constraint of :func:`chord_angle` (the expression is invariant under
    alpha -> alpha + pi).
    """
    return abs(p1.r * math.sin(p1.t + alpha) - p0.r * math.sin(p0.t + alpha))


# -- h = r metric -------------------------------------------------------------


def connect_neg2(p0: Point, p1: Point, tol: float = DEFAULT_TOL) -> ConnectResult:
    """Best-effort two-point solver for the h = r metric.

    Horizontal pairs use the horizontal ray.  Otherwise the solver shoots
    over the phase theta in (0, pi) of the closed-form arch at the outer
    point, where the conserved transverse momentum is b = sin(theta)/r_out.
    Below pi/2 the arch meets the outer point while rising (an ascent from
    the inner point, or a direct descent from the outer one); above pi/2 it
    has passed the apex.  The transverse gain, u^2 times the integral of
    sin^2 over the phases [phi, theta] the arch spans, rises with theta:
    below pi/2 it equals the integral of b r^2 / sqrt(1 - b^2 r^2) dr over
    [r_in, r_out], which grows with b; above pi/2, u = 1/b grows and the
    interval widens.  So bisection brackets the one root, and a replay of
    the integrator confirms it.  Below about 1e-8 r_out^2 the computed
    rising gain is rounding noise and can fall.  ``search_exhausted`` is an
    honest "not found", not a nonexistence proof.

    Note: because the apex branch sweeps every positive transverse gap, a
    connection is found for every pair in practice, including same-radius
    pairs below the pi r0 threshold of :func:`connect_neg2_same_r` (whose
    candidate enumeration tracks formula-level closure instead; see its
    docstring).

    Raises
    ------
    ValueError
        If the points coincide, or ``tol`` is not positive and finite.
    """
    if (horizontal := _horizontal(p0, p1, tol)) is not None:
        return horizontal
    r0, r1 = p0.r, p1.r
    r_in, r_out = min(r0, r1), max(r0, r1)

    # With u = 1/b = r_out/sin(theta), finite on (0, pi) where b may
    # underflow: s = (theta - phi) u and the gain is
    # s u/2 - (sin 2 theta - sin 2 phi) u^2/4, phi the inner point's phase.
    def shot(theta):
        u = r_out / math.sin(theta)
        phi = math.asin(min(1.0, r_in / u))
        s = (theta - phi) * u
        gain = (s - (math.sin(2.0 * theta) - math.sin(2.0 * phi)) * u / 2.0) * u / 2.0
        return s, gain, (math.cos(phi) if r0 <= r1 else -math.cos(theta)), r0 / u

    # Equal radii have no rising arrival: it would have zero length.
    rise, fall = _phases()
    nodes = fall if r0 == r1 else rise[:-1] + fall

    # The parameter is b = sin(theta)/r_out, and the sign that of the initial
    # radial speed f0.
    def read(theta, f0):
        return math.sin(theta) / r_out, math.copysign(1.0, f0)

    return _shoot(_NEG2, p0, p1, tol, shot, nodes, read)


@dataclass(frozen=True)
class SameRCandidate:
    """One same-radius candidate from the enumeration b s = 2 k pi."""

    k: int
    b: float
    s: float
    formula_dt: float
    confirmed: bool


def _same_r_span(r0: float, dt: float) -> float:
    """|dt|, once r0 and dt are checked."""
    for name, value in (("r0", r0), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    return abs(dt)


def _turns(k: int, adt: float) -> tuple[float, float]:
    """b of candidate k and its formula-level transverse gain |dt|/b."""
    b = k * math.pi / adt
    return b, adt / b


def _candidate(k: int, adt: float, tol: float) -> SameRCandidate:
    b, formula_dt = _turns(k, adt)
    s = 2.0 * adt
    if s == math.inf:
        raise ValueError(f"dt is too large: the length 2|dt| overflows at |dt| = {adt!r}")
    return SameRCandidate(k, b, s, formula_dt, bool(abs(formula_dt - adt) <= tol))


def _first(pred, lo: int, hi: int) -> int:
    """The least k in [lo, hi] with pred(k), or hi + 1; pred(k) implies pred(k + 1)."""
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
    return lo


def _same_r_count(r0: float, adt: float) -> int:
    """floor(|dt|/(pi r0)), at most the largest float, less the tail of k whose
    b exceeds 1/r0: each operation of b is monotone, so b grows with k."""
    k_max = int(math.floor(min(adt / (math.pi * r0) + 1e-12, sys.float_info.max)))
    return _first(lambda k: _turns(k, adt)[0] > 1.0 / r0 + 1e-12, 1, k_max) - 1


def same_r_candidates(r0: float, dt: float, tol: float = DEFAULT_TOL) -> list[SameRCandidate]:
    """Enumerate same-radius connection candidates for the h = r metric.

    Closed-form arches return to their starting radius when the phase
    advances by a full turn, b s = 2 k pi; combining with the transverse
    closed form fixes s = 2 |dt| and b = k pi / |dt|, and the momentum bound
    b <= 1/r0 caps k.  Each candidate is replayed at formula level: the
    transverse gain of the equation-consistent closed form is |dt|/b, so a
    candidate is confirmed exactly when its b is 1 to within ``tol``.

    Raises
    ------
    ValueError
        If r0 or dt is not finite, r0 <= 0, dt == 0, ``tol`` is not
        positive and finite, there are more than
        :data:`MAX_SAME_R_CANDIDATES` candidates (about |dt|/(pi r0)), or
        there is one and its length 2 |dt| overflows.
    """
    _check_positive("tol", tol)
    adt = _same_r_span(r0, dt)
    n = _same_r_count(r0, adt)
    if n > MAX_SAME_R_CANDIDATES:
        raise ValueError(f"{n} same-radius candidates, more than the "
                         f"{MAX_SAME_R_CANDIDATES} a list may hold")
    return [_candidate(k, adt, tol) for k in range(1, n + 1)]


def connect_neg2_same_r(r0: float, dt: float, tol: float = DEFAULT_TOL) -> ConnectResult:
    """Same-radius connection test for h = r via candidate enumeration.

    Below the threshold pi r0 > |dt| the enumeration b s = 2 k pi admits no
    candidate and the verdict is ``threshold_violated``.  At or above it the
    candidates of :func:`same_r_candidates` are replayed; a confirmed
    candidate is reported as found with ``in_chart=False``, because its
    trajectory spans at least one full phase turn and therefore crosses
    r = 0: the closure holds at formula level only, not inside the half
    plane.  In-chart connectivity of same-radius pairs is the business of
    :func:`connect_neg2`, which finds apex-branch geodesics for every
    transverse gap; the two verdicts differ by design below the threshold.

    ``iterations`` is the number of candidates, which are not built: their
    gain |dt|/b falls as k grows, so bisection finds the first confirmed.

    Raises
    ------
    ValueError
        If r0 or dt is not finite, r0 <= 0, dt == 0 or ``tol`` is not
        positive and finite, or when the threshold holds and the length
        2 |dt| overflows (|dt| above half the largest float), which no
        verdict could report.
    """
    _check_positive("tol", tol)
    adt = _same_r_span(r0, dt)
    if math.pi * r0 > adt:
        return ConnectResult(variant="no_geodesic", reason="threshold_violated")
    n = _same_r_count(r0, adt)
    k = _first(lambda k: _turns(k, adt)[1] - adt <= tol, 1, n)
    cand = _candidate(k, adt, tol)
    if k <= n and cand.confirmed:
        return ConnectResult(variant="found", length=cand.s, s=cand.s, param=cand.b,
                             sign=1.0 if dt > 0 else -1.0, in_chart=False, iterations=n)
    return ConnectResult(variant="no_geodesic", reason="search_exhausted", iterations=n)
