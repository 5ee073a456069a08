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

For h = r (:func:`connect_neg2`) shooting works through the closed-form
arches; :func:`connect_neg2_same_r` implements, separately, the classical
same-radius candidate enumeration b s = 2 k pi with its pi r0 <= |dt|
threshold.  The two operations intentionally disagree below that threshold:
the enumeration's candidates close up only at formula level (their
trajectories cross r = 0, leaving the half plane), while honest shooting
finds in-chart connections through the apex branch for every transverse
separation.  See the docstrings for details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._brentq import brentq  # a module attribute: perfbench's tracer patches it
from .geodesics import FlatGeodesic, GeodesicPath, GeodesicState, integrate
from .geodesics import _flat_param, _flat_sweep
from .warp import Point, WarpFunction, warp_one_over_r, warp_r

__all__ = [
    "ConnectResult",
    "GeodesicHit",
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

DEFAULT_TOL = 1e-9

_SCAN_SEEDS = 64

_FLAT = warp_one_over_r()
_NEG2 = warp_r()


@dataclass(frozen=True)
class GeodesicHit:
    """Lightweight record of one confirmed shot (used for alternates)."""

    s: float
    param: float
    sign: float
    length: float


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
    """

    variant: str
    length: float | None = None
    s: float | None = None
    param: float | None = None
    sign: float | None = None
    path: GeodesicPath | None = field(default=None, repr=False)
    reason: str | None = None
    in_chart: bool | None = None
    iterations: int = 0
    alternates: tuple[GeodesicHit, ...] = ()

    @property
    def found(self) -> bool:
        return self.variant in ("found", "horizontal")

    def to_dict(self) -> dict:
        d: dict = {"variant": self.variant}
        if self.length is not None:
            d["length"] = self.length
        if self.s is not None:
            d["s"] = self.s
        if self.param is not None:
            d["param"] = self.param
        if self.sign is not None:
            d["sign"] = self.sign
        if self.reason is not None:
            d["reason"] = self.reason
        if self.in_chart is not None:
            d["in_chart"] = self.in_chart
        d["iterations"] = self.iterations
        if self.alternates:
            d["alternates"] = [
                {"s": h.s, "param": h.param, "sign": h.sign, "length": h.length}
                for h in self.alternates
            ]
        return d


def _check_distinct(p0: Point, p1: Point) -> None:
    if p0.r == p1.r and p0.t == p1.t:
        raise ValueError("the two points must be distinct")


def _replay(
    w: WarpFunction, init: GeodesicState, s: float, p1: Point, tol: float
) -> GeodesicPath | None:
    """Integrate a shot and return its path if it ends within ``tol`` of p1.

    A missed replay is retried once with a tighter integrator: near the
    half-turn wall a flat geodesic whips around a turning radius of order
    (pi - |dt|) r, which the default tolerances cannot follow.
    """
    for opts in ({}, {"rtol": 1e-12, "atol": 1e-14}):
        path = integrate(w, init, s, **opts)
        end = path.endpoint
        if abs(end.r - p1.r) <= tol and abs(end.t - p1.t) <= tol:
            return path
    return None


# -- flat metric (h = 1/r) ----------------------------------------------------


def _flat_sweep_angle(s, r0: float, r1: float):
    """Transverse sweep of the flat-family geodesic whose chord length is s.

    The family parameter follows from the radial relation
    s^2 + 2 a s + r0^2 = r1^2, and the sweep is the continuous angle of
    :class:`FlatGeodesic`.  On s in (|r1 - r0|, r0 + r1) the parameter stays
    in (-r0, r0) and the sweep increases strictly from 0 to pi.
    """
    return _flat_sweep(s, r0, _flat_param(s, r0, r1))


def connect_flat(p0: Point, p1: Point, tol: float = DEFAULT_TOL) -> ConnectResult:
    """Solve the two-point problem for the h = 1/r metric.

    Equal transverse coordinates give the horizontal segment.  For
    0 < |t1 - t0| < pi the connection is obtained by root-finding over the
    chord length (the one-parameter shooting family), after a sign-bracketing
    scan; the result is replayed through the integrator and must hit the
    target within ``tol`` in both coordinates.  For |t1 - t0| >= pi the
    transverse sweep of the whole family stays below pi, and the result is
    ``no_geodesic`` with reason ``threshold_violated``.

    Resolution note: gaps within roughly 1e-7 of pi put the solution beyond
    what double precision can represent in the family parameter (the
    geodesic's turning radius shrinks like pi - |dt|); such targets return
    ``search_exhausted``, an honest "not found" rather than a nonexistence
    claim.

    Raises
    ------
    ValueError
        If the points coincide.
    """
    _check_distinct(p0, p1)
    r0, t0, r1, t1 = p0.r, p0.t, p1.r, p1.t
    dt = t1 - t0
    if dt == 0.0:
        return ConnectResult(
            variant="horizontal", length=abs(r1 - r0), sign=0.0, in_chart=True
        )
    if abs(dt) >= math.pi:
        return ConnectResult(variant="no_geodesic", reason="threshold_violated")

    target = abs(dt)
    sigma = 1.0 if dt > 0 else -1.0
    s_lo, s_hi = abs(r1 - r0), r0 + r1
    span = s_hi - s_lo
    # The sweep approaches its limits 0 and pi like a square root of the
    # distance to the endpoints, so the guard pad is kept at float
    # resolution and extra seeds cluster geometrically near both ends;
    # targets closer to pi than the resolution wall (~1e-8) exhaust the
    # scan and are reported as such.
    pad = max(4.0 * np.spacing(s_hi), span * 1e-16)

    # Sign-bracketing scan; the law-of-cosines candidate is inserted among
    # the seeds so a refined bracket surrounds it when it is the true root.
    seed = math.sqrt(max(r0 * r0 + r1 * r1 - 2.0 * r0 * r1 * math.cos(dt), 0.0))
    grid = np.linspace(s_lo + pad, s_hi - pad, _SCAN_SEEDS)
    edge = span * np.float_power(10.0, -np.arange(3.0, 16.0))
    grid = np.concatenate([grid, s_lo + edge, s_hi - edge, [seed]])
    grid = np.unique(np.clip(grid, s_lo + pad, s_hi - pad))
    vals = _flat_sweep_angle(grid, r0, r1) - target
    evals = grid.size

    def residual(s):
        nonlocal evals
        evals += 1
        return float(_flat_sweep_angle(s, r0, r1)) - target

    # First seed that is a root or opens a sign change to its successor.
    brackets = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    if brackets.size == 0:  # pragma: no cover - the sweep is monotone onto (0, pi)
        return ConnectResult(
            variant="no_geodesic", reason="search_exhausted", iterations=evals
        )
    i = brackets[0]
    if vals[i] == 0.0:
        s_star = grid[i]
    else:
        s_star = brentq(residual, grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16, maxiter=200)

    a = max(-r0 + 1e-300, min(r0 - 1e-300, _flat_param(s_star, r0, r1)))
    geo = FlatGeodesic(r0=r0, t0=t0, a=a, sign=sigma)
    path = _replay(_FLAT, geo.initial_state(), s_star, p1, tol)
    if path is None:
        return ConnectResult(
            variant="no_geodesic", reason="search_exhausted", iterations=evals
        )
    return ConnectResult(
        variant="found",
        length=s_star,
        s=s_star,
        param=a,
        sign=sigma,
        path=path,
        in_chart=True,
        iterations=evals,
    )


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

    @property
    def valid(self) -> bool:
        return math.isfinite(self.miss)


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
                if s_sq < 0.0:
                    out.append(
                        ChordCandidate(source, inner, outer, math.nan, math.nan, math.inf)
                    )
                    continue
                s = outer * math.sqrt(s_sq)
                if s == 0.0:
                    out.append(
                        ChordCandidate(source, inner, outer, s, math.nan, math.inf)
                    )
                    continue
                a = _flat_param(s, r0, r1)
                if abs(a) >= r0:
                    out.append(ChordCandidate(source, inner, outer, s, a, math.inf))
                    continue
                geo = FlatGeodesic(r0=r0, t0=t0, a=a, sign=sigma)
                pt = geo.point(s)
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


def _neg2_arrival(b: float, r0: float, r1: float, branch: str) -> tuple[float, float]:
    """Arc length and transverse gain when the arch first reaches r1.

    ``branch`` distinguishes the three ways a closed-form arch can meet the
    target radius: descending directly (initial inward motion), ascending
    past it, or coming back down after the apex.
    """
    phi0 = math.asin(min(1.0, b * r0))
    psi1 = math.asin(min(1.0, b * r1))
    if branch == "direct_down":
        sigma, psi = -1.0, psi1
    elif branch == "ascending":
        sigma, psi = 1.0, psi1
    elif branch == "over_apex":
        sigma, psi = 1.0, math.pi - psi1
    else:  # pragma: no cover
        raise ValueError(branch)
    s = sigma * (psi - phi0) / b
    dt = s / (2.0 * b) - sigma * (math.sin(2.0 * psi) - math.sin(2.0 * phi0)) / (
        4.0 * b * b
    )
    return s, dt


def connect_neg2(p0: Point, p1: Point, tol: float = DEFAULT_TOL) -> ConnectResult:
    """Best-effort two-point solver for the h = r metric.

    Horizontal pairs use the horizontal ray.  Otherwise the solver shoots
    over the conserved transverse momentum b of the closed-form arches,
    bracketing the transverse miss on each arrival branch (direct descent,
    ascent, and return past the apex) and confirming every hit by replaying
    the integrator.  The shortest confirmed connection is returned, the rest
    as ``alternates``.  ``search_exhausted`` is an honest "not found", not a
    nonexistence proof.

    Note: because the apex branch sweeps every positive transverse gap, a
    connection is found for every pair in practice, including same-radius
    pairs below the pi r0 threshold of :func:`connect_neg2_same_r` (whose
    candidate enumeration tracks formula-level closure instead; see its
    docstring).
    """
    _check_distinct(p0, p1)
    r0, t0, r1, t1 = p0.r, p0.t, p1.r, p1.t
    dt = t1 - t0
    if dt == 0.0:
        return ConnectResult(
            variant="horizontal", length=abs(r1 - r0), sign=0.0, in_chart=True
        )
    target = abs(dt)
    mirror = 1.0 if dt > 0 else -1.0

    evals = 0
    hits: list[tuple[float, float, float]] = []  # (s, b, sigma)

    def scan_branch(branch: str, b_hi: float) -> None:
        nonlocal evals
        if branch == "direct_down" and not r1 < r0:
            return
        if branch == "ascending" and not r1 > r0:
            return

        def miss(b):
            nonlocal evals
            evals += 1
            return _neg2_arrival(b, r0, r1, branch)[1] - target

        # The apex gain grows like 1/b^2 for small b while direct arrivals
        # shrink linearly, so sample b logarithmically across many decades
        # to bracket both very large and very small transverse gaps.
        grid = np.geomspace(b_hi * 1e-16, b_hi, _SCAN_SEEDS)
        vals = [miss(b) for b in grid]
        for x0, x1, v0, v1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if not (math.isfinite(v0) and math.isfinite(v1)):
                continue
            if v0 == 0.0:
                b_root = x0
            elif v0 * v1 < 0.0:
                b_root = brentq(miss, x0, x1, xtol=1e-15, rtol=8.9e-16, maxiter=200)
            else:
                continue
            s_root, _ = _neg2_arrival(b_root, r0, r1, branch)
            if s_root > 1e-12:
                sigma = -1.0 if branch == "direct_down" else 1.0
                hits.append((s_root, b_root, sigma))

    b_cap = 1.0 / max(r0, r1)
    scan_branch("direct_down", 1.0 / r0)
    scan_branch("ascending", b_cap)
    scan_branch("over_apex", b_cap)

    confirmed: list[tuple[float, float, float, GeodesicPath]] = []
    last_s = None
    for s_root, b_root, sigma in sorted(hits):
        if last_s is not None and abs(s_root - last_s) <= 1e-9 * max(1.0, s_root):
            continue  # the same geodesic found from both sides of a branch glue
        last_s = s_root
        f0 = sigma * math.sqrt(max(0.0, 1.0 - (b_root * r0) ** 2))
        g0 = mirror * b_root * r0
        path = _replay(_NEG2, GeodesicState(r0, t0, f0, g0), s_root, p1, tol)
        if path is not None:
            confirmed.append((s_root, b_root, sigma, path))

    if not confirmed:
        return ConnectResult(
            variant="no_geodesic", reason="search_exhausted", iterations=evals
        )
    s_best, b_best, sig_best, path_best = confirmed[0]
    alternates = tuple(
        GeodesicHit(s=s, param=b, sign=sig, length=s) for s, b, sig, _ in confirmed[1:]
    )
    return ConnectResult(
        variant="found",
        length=s_best,
        s=s_best,
        param=b_best,
        sign=sig_best,
        path=path_best,
        in_chart=True,
        iterations=evals,
        alternates=alternates,
    )


@dataclass(frozen=True)
class SameRCandidate:
    """One same-radius candidate from the enumeration b s = 2 k pi."""

    k: int
    b: float
    s: float
    formula_dt: float
    confirmed: bool


def same_r_candidates(r0: float, dt: float, tol: float = DEFAULT_TOL) -> list[SameRCandidate]:
    """Enumerate same-radius connection candidates for the h = r metric.

    Closed-form arches return to their starting radius when the phase
    advances by a full turn, b s = 2 k pi; combining with the transverse
    closed form fixes s = 2 |dt| and b = k pi / |dt|, and the momentum bound
    b <= 1/r0 caps k.  Each candidate is replayed at formula level: the
    transverse gain of the equation-consistent closed form is |dt|/b, so a
    candidate is confirmed exactly when its b is 1 to within ``tol``.
    """
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    adt = abs(dt)
    out = []
    k_max = int(math.floor(adt / (math.pi * r0) + 1e-12))
    for k in range(1, k_max + 1):
        b = k * math.pi / adt
        if b > 1.0 / r0 + 1e-12:
            continue
        s = 2.0 * adt
        formula_dt = adt / b
        out.append(
            SameRCandidate(
                k=k,
                b=b,
                s=s,
                formula_dt=formula_dt,
                confirmed=bool(abs(formula_dt - adt) <= tol),
            )
        )
    return out


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

    Raises
    ------
    ValueError
        If r0 <= 0 or dt == 0.
    """
    candidates = same_r_candidates(r0, dt, tol)
    if math.pi * r0 > abs(dt):
        return ConnectResult(variant="no_geodesic", reason="threshold_violated")
    for cand in candidates:
        if cand.confirmed:
            return ConnectResult(
                variant="found",
                length=cand.s,
                s=cand.s,
                param=cand.b,
                sign=1.0 if dt > 0 else -1.0,
                in_chart=False,
                iterations=len(candidates),
            )
    return ConnectResult(
        variant="no_geodesic", reason="search_exhausted", iterations=len(candidates)
    )
