"""Affine maps of the half plane and their holomorphy/isometry residuals.

The scale-and-shift maps (r, t) -> (k r, k t + l), k > 0, form a group
isomorphic to the positive affine group of the line; the action on the half
plane is transitive and free.  For a warp function h the two structures a
map may or may not preserve are measured separately:

* holomorphy (compatibility with the 90-degree rotation J): the exact
  differential of an affine map is the diagonal matrix diag(k, k), so the
  pointwise Cauchy-Riemann residual reduces to |k (h(r) - h(k r))|;
* the metric: the pullback residual compares inner products before and
  after the map.  Both quadratic forms are diagonal, so by polarization the
  orthonormal frame e1 = (1, 0), e2 = (0, h(r)) decides the pullback.  The
  map scales the unit vector e1 by k, so its term is |k^2 - 1|, which in
  doubles is 0 exactly when k == 1.

For the featured warps h = r and h = 1/r both residuals vanish exactly when
k = 1 (pure transverse translations) and only then, which
:func:`classify` witnesses over a sample grid.  :func:`classify` evaluates
both residuals on Python floats, once per radius of the grid; the pointwise
:func:`cr_residual` and :func:`pullback_residual` are the reference it
matches bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .geometry import TangentVector, metric_at
from .warp import DEFAULT_TOL, DomainError, Point, WarpFunction, _check_tol, _linspace, _values

__all__ = [
    "AffineMap",
    "IsometryReport",
    "affine_act",
    "transitivity_witness",
    "cr_residual",
    "pullback_residual",
    "classify",
]

# Sample lattice of classify: radii (clipped to the domain) by transverse
# coordinates.
GRID_SHAPE = (20, 20)
R_RANGE = (0.1, 5.0)
T_RANGE = (-3.0, 3.0)


@dataclass(frozen=True)
class AffineMap:
    """The map (r, t) -> (k r, k t + l) with k > 0."""

    k: float
    l: float = 0.0

    def __post_init__(self):
        if not (self.k > 0.0 and math.isfinite(self.k) and math.isfinite(self.l)):
            raise ValueError(f"affine map requires finite k > 0, got k={self.k}, l={self.l}")

    def apply(self, p: Point) -> Point:
        return Point(self.k * p.r, self.k * p.t + self.l)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: (k2 k1, k2 l1 + l2)."""
        return AffineMap(self.k * inner.k, self.k * inner.l + self.l)

    def inverse(self) -> "AffineMap":
        return AffineMap(1.0 / self.k, -self.l / self.k)

    def push_vector(self, u: TangentVector) -> TangentVector:
        """Differential action; exact since the map is affine: DG = diag(k, k)."""
        return TangentVector(self.k * u.dr, self.k * u.dt, base=self.apply(u.base))


# affine_act(m, p) applies the map m to the point p.
affine_act = AffineMap.apply


def transitivity_witness(p: Point) -> AffineMap:
    """The unique affine map sending p to (1, 0).

    Uniqueness reflects that the action is free: only the identity fixes a
    point.
    """
    return AffineMap(k=1.0 / p.r, l=-p.t / p.r)


def cr_residual(w: WarpFunction, m: AffineMap, p: Point) -> float:
    """Pointwise Cauchy-Riemann residual of the map at p.

    For a map (u, v) with differential (u_r, u_t; v_r, v_t) the two
    compatibility equations with the rotation J read

        u_r h(r) = v_t h(u),        u_t = -h(r) h(u) v_r,

    and the residual is the sum of their absolute violations.  Affine maps
    have exact partials u_r = v_t = k, u_t = v_r = 0, so the second
    equation holds identically and the residual is |k (h(r) - h(k r))|.

    Raises
    ------
    DomainError
        If p or its image leaves the warp's domain.
    """
    hr = float(w.h(p.r))
    hu = float(w.h(m.apply(p).r))
    return abs(m.k * hr - m.k * hu)


def pullback_residual(w: WarpFunction, m: AffineMap, points) -> float:
    """Max metric-pullback violation over the orthonormal frame at each of
    the sample points.

    For each frame vector u the residual compares g(DG u, DG u) at the
    image point with g(u, u) at the source.  The frame decides the pullback
    because both forms are diagonal.

    Raises
    ------
    DomainError
        If any sample point's image escapes the warp's domain.
    """
    # The orthonormal frame e1 = (1, 0), e2 = (0, h(r)) at each point.
    vectors = [u for p in points for u in (TangentVector(1.0, 0.0, base=p),
                                            TangentVector(0.0, float(w.h(p.r)), base=p))]
    diffs = [0.0]
    for u in vectors:
        gu = metric_at(w, u, u)
        pu = m.push_vector(u)
        gpu = metric_at(w, pu, pu)
        diffs.append(abs(gpu - gu))
    # np.max, unlike the builtin max, propagates a NaN in any position.
    return float(np.max(diffs))


@dataclass(frozen=True)
class IsometryReport:
    """Residual maxima and verdict for an affine candidate map.

    ``tol`` is the bound the holomorphy residual was held to; the isometry
    residual is held to 0.
    """

    holomorphy_residual: float
    isometry_residual: float
    verdict: str
    tol: float
    k: float
    l: float
    r_range: tuple[float, float]
    t_range: tuple[float, float]
    grid_shape: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "holomorphy_residual": self.holomorphy_residual,
            "isometry_residual": self.isometry_residual,
            "verdict": self.verdict,
            "tol": self.tol,
            "map": {"k": self.k, "l": self.l},
            "grid": {
                "r_range": list(self.r_range),
                "t_range": list(self.t_range),
                "shape": list(self.grid_shape),
            },
        }


def _nan_max(values: list):
    """``max(values)`` of values that are absolute values or nan, or nan
    where one is nan, as ``np.max`` reads it: no value is negative, so their
    sum is nan exactly when one of them is."""
    return math.nan if math.isnan(sum(values)) else max(values)


def classify(
    w: WarpFunction,
    m: AffineMap,
    *,
    tol: float = DEFAULT_TOL,
    seed=None,
) -> IsometryReport:
    """Classify an affine map by its residual maxima over a sample grid.

    The map is holomorphic when the holomorphy residual maximum falls below
    ``tol``, and an isometry when the isometry residual maximum is exactly
    0, which in doubles holds iff k == 1 (k*k != 1 for every double k != 1).
    The verdict is ``holomorphic_isometry`` for a holomorphic isometry,
    ``holomorphic_only`` for a holomorphic map that is no isometry, and
    ``neither`` otherwise.  There is no ``isometry_only``: an isometry has
    k = 1, where the holomorphy residual is exactly 0.  The grid is a
    ``GRID_SHAPE`` (20 x 20) lattice over ``R_RANGE`` (r in [0.1, 5],
    clipped to the warp's domain) by ``T_RANGE`` (t in [-3, 3]); the vectors
    at each point are the orthonormal frame.  ``seed`` is accepted and
    ignored.

    Translations in t are isometries of every warped metric, so both
    residuals at a grid point depend on its radius alone: h is evaluated
    once at each of the grid's 20 radii and once at each of their images,
    and the transverse coordinates enter only the check that k t + l is
    finite.  The warp's evaluator is called with one Python float at a
    time, so it must accept a float; it need not accept arrays.  Where float
    arithmetic divides by zero or overflows, h's value is numpy's (inf or
    nan), and so is every residual's: a zero or nan h makes its radius's
    isometry residual nan.  The residuals equal ``max(cr_residual(w, m, p))``
    and ``pullback_residual(w, m, points)`` over the whole lattice, nan
    included.

    Raises
    ------
    DomainError
        If the grid misses the warp's domain or an image radius leaves it.
    ValueError
        If ``tol`` is not positive and finite, or an image coordinate or a
        frame vector is not finite.
    """
    # seed is ignored; it stays because perfbench/workloads.py passes it.
    _check_tol(tol)
    lo = max(R_RANGE[0], w.domain.lo * (1.0 + 1e-9) + 1e-9)
    hi = min(R_RANGE[1], w.domain.hi * (1.0 - 1e-9))
    if not lo < hi:
        raise DomainError("sample grid does not intersect the warp domain")
    # The residuals depend on r alone (see above).  The lattice's row-major
    # order, that of the pointwise reference, meets the radii in this order,
    # and both the radii and their images increase, so checking the ends of
    # each decides the domain, and a DomainError names the same first radius.
    k, l = m.k, m.l
    r = _linspace(lo, hi, GRID_SHAPE[0])
    w.domain._require_sorted(r)
    hr = _values(w._h, r)
    # k t + l increases with t: finite at both ends of T_RANGE, it is finite
    # on the whole grid.
    if not (math.isfinite(k * T_RANGE[0] + l) and math.isfinite(k * T_RANGE[1] + l)):
        raise ValueError("point coordinates must be finite")
    image = [k * x for x in r]
    w.domain._require_sorted(image)
    hu = _values(w._h, image)

    # pullback_residual's frame, e1 = (1, 0) and e2 = (0, h(r)), pushed to
    # (k, 0) and (0, k h(r)); k h(r) is finite only where h(r) is.
    kh = [k * x for x in hr]
    if not all(map(math.isfinite, kh)):
        raise ValueError("tangent vector components must be finite")
    holo = _nan_max([abs(x - k * y) for x, y in zip(kh, hu)])

    # The operations of metric_at, in its order, with the zero products
    # written as 0.0.  A zero square of h makes 0/0, which numpy reads as
    # nan, in the e1 term; a nan h makes that term nan by itself.
    kk, terms = k * k, []
    for x, y, z in zip(kh, hr, hu):
        y2, z2 = y * y, z * z
        if y2 and z2:
            terms += (abs((kk + 0.0 / z2) - (1.0 + 0.0 / y2)), abs(x * x / z2 - y2 / y2))
        else:
            terms.append(math.nan)
    iso = _nan_max(terms)

    if not holo < tol:
        verdict = "neither"
    elif iso == 0.0:
        verdict = "holomorphic_isometry"
    else:
        verdict = "holomorphic_only"
    return IsometryReport(
        holomorphy_residual=float(holo),
        isometry_residual=float(iso),
        verdict=verdict,
        tol=tol,
        k=k,
        l=l,
        r_range=(lo, hi),
        t_range=T_RANGE,
        grid_shape=GRID_SHAPE,
    )
