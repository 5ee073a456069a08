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
both residuals as array expressions over the whole grid; the pointwise
:func:`cr_residual` and :func:`pullback_residual` are the reference it
matches bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .geometry import TangentVector, metric_at
from .warp import DomainError, Point, WarpFunction, _check_tol

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


def _frame(w: WarpFunction, p: Point) -> list[TangentVector]:
    """The orthonormal frame e1 = (1, 0), e2 = (0, h(r)) at p."""
    return [TangentVector(1.0, 0.0, base=p), TangentVector(0.0, float(w.h(p.r)), base=p)]


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
    vectors = [u for p in points for u in _frame(w, p)]
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


def classify(
    w: WarpFunction,
    m: AffineMap,
    *,
    tol: float = 1e-9,
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

    h is evaluated once on the array of grid radii and once on their
    images, so the warp's evaluator must accept arrays (as every warp
    checked by ``make_warp`` or ``warp_custom`` does).  The residuals equal
    ``max(cr_residual(w, m, p))`` and ``pullback_residual(w, m, points)``
    over the same grid.

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
    rs = np.linspace(lo, hi, GRID_SHAPE[0])
    ts = np.linspace(*T_RANGE, GRID_SHAPE[1])
    # Row-major grid, the point order of the pointwise reference.
    r = np.repeat(rs, ts.size)
    t = np.tile(ts, rs.size)
    # broadcast_to keeps a warp whose h returns one scalar for a constant.
    hr = np.broadcast_to(w.h(r), r.shape)
    if not np.all(np.isfinite(m.k * t + m.l)):
        raise ValueError("point coordinates must be finite")
    hu = np.broadcast_to(w.h(m.k * r), r.shape)

    holo = float(np.max(np.abs(m.k * hr - m.k * hu)))

    # The frame of _frame, e1 = (1, 0) and e2 = (0, h(r)), pushed to
    # (k, 0) and (0, k h(r)); k h(r) is finite only where h(r) is.
    kh = m.k * hr
    if not np.all(np.isfinite(kh)):
        raise ValueError("tangent vector components must be finite")
    # The operations of metric_at, in its order, with the zero products
    # written as 0.0: a zero or NaN h still makes its term NaN.
    hr2, hu2 = hr * hr, hu * hu
    e1 = np.abs((m.k * m.k + 0.0 / hu2) - (1.0 + 0.0 / hr2))
    e2 = np.abs(kh * kh / hu2 - hr2 / hr2)
    iso = float(np.max(np.maximum(e1, e2)))

    if not holo < tol:
        verdict = "neither"
    elif iso == 0.0:
        verdict = "holomorphic_isometry"
    else:
        verdict = "holomorphic_only"
    return IsometryReport(
        holomorphy_residual=holo,
        isometry_residual=iso,
        verdict=verdict,
        tol=tol,
        k=m.k,
        l=m.l,
        r_range=(lo, hi),
        t_range=T_RANGE,
        grid_shape=GRID_SHAPE,
    )
