"""Affine maps of the half plane and their holomorphy/isometry residuals.

The scale-and-shift maps (r, t) -> (k r, k t + l), k > 0, form a group
isomorphic to the positive affine group of the line; the action on the half
plane is transitive and free.  For a warp function h the two structures a
map may or may not preserve are measured separately:

* holomorphy (compatibility with the 90-degree rotation J): the exact
  differential of an affine map is the diagonal matrix diag(k, k), so the
  pointwise Cauchy-Riemann residual reduces to |k (h(r) - h(k r))|;
* the metric: the pullback residual compares inner products before and
  after the map.

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
from .warp import DomainError, Point, WarpFunction

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


def _default_vectors(w: WarpFunction, p: Point, rng) -> list[TangentVector]:
    """The two frame vectors plus one random vector at p."""
    hr = float(w.h(p.r))
    return [
        TangentVector(1.0, 0.0, base=p),
        TangentVector(0.0, hr, base=p),
        TangentVector(float(rng.standard_normal()), float(rng.standard_normal()), base=p),
    ]


def pullback_residual(
    w: WarpFunction,
    m: AffineMap,
    points,
    vectors=None,
    seed: int = 0,
) -> float:
    """Max metric-pullback violation over sample points and vectors.

    For each tangent vector u the residual compares g(DG u, DG u) at the
    image point with g(u, u) at the source.  When ``vectors`` is None, the
    two frame vectors and one seeded random vector are used at every point;
    otherwise ``vectors`` must be tangent vectors whose base points are used
    directly (``points`` is ignored then).

    Raises
    ------
    DomainError
        If any sample point's image escapes the warp's domain.
    """
    rng = np.random.default_rng(seed)
    if vectors is None:
        vectors = [v for p in points for v in _default_vectors(w, p, rng)]
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
    """Residual maxima and verdict for an affine candidate map."""

    holomorphy_residual: float
    isometry_residual: float
    verdict: str
    tol: float
    k: float
    l: float
    r_range: tuple[float, float]
    t_range: tuple[float, float]
    grid_shape: tuple[int, int]
    seed: int

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
            "seed": self.seed,
        }


def classify(
    w: WarpFunction,
    m: AffineMap,
    *,
    tol: float = 1e-9,
    seed: int = 0,
) -> IsometryReport:
    """Classify an affine map by its residual maxima over a sample grid.

    The verdict is ``holomorphic_isometry`` when both residual maxima fall
    below ``tol``, ``isometry_only`` / ``holomorphic_only`` when exactly one
    does, and ``neither`` otherwise.  The grid is a ``GRID_SHAPE``
    (20 x 20) lattice over ``R_RANGE`` (r in [0.1, 5], clipped to the
    warp's domain) by ``T_RANGE`` (t in [-3, 3]); vectors per point are the
    two frame vectors plus one random vector drawn from the seeded
    generator.

    h is evaluated once on the array of grid radii and once on their
    images, so the warp's evaluator must accept arrays (as every warp
    checked by ``make_warp`` or ``warp_custom`` does).  The residuals equal
    ``max(cr_residual(w, m, p))`` and ``pullback_residual(w, m, points,
    seed=seed)`` over the same grid.

    Raises
    ------
    DomainError
        If the grid misses the warp's domain or an image radius leaves it.
    ValueError
        If an image coordinate or a sample vector is not finite.
    """
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

    # The vectors of _default_vectors at every point: e1, e2 = (0, h(r))
    # and (z0, z1), with the random components drawn in point order.
    z = np.random.default_rng(seed).standard_normal(2 * r.size).reshape(r.size, 2)
    ones, zeros = np.ones_like(r), np.zeros_like(r)
    dr = np.column_stack((ones, zeros, z[:, 0]))
    dt = np.column_stack((zeros, hr, z[:, 1]))
    kdr, kdt = m.k * dr, m.k * dt
    if not (np.all(np.isfinite(dt)) and np.all(np.isfinite(kdt))):
        raise ValueError("tangent vector components must be finite")
    # The operations of metric_at, in its order.
    gu = dr * dr + (dt * dt) / (hr * hr)[:, None]
    gpu = kdr * kdr + (kdt * kdt) / (hu * hu)[:, None]
    iso = float(np.max(np.abs(gpu - gu)))

    if holo < tol and iso < tol:
        verdict = "holomorphic_isometry"
    elif iso < tol:
        verdict = "isometry_only"
    elif holo < tol:
        verdict = "holomorphic_only"
    else:
        verdict = "neither"
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
        seed=seed,
    )
