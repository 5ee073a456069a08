"""Pointwise geometry of the warped half plane.

With h the warp function, the line element is

    g = dr^2 + dt^2 / h(r)^2,

an orthogonal metric with unit radial direction.  The orthonormal frame is
(e_1, e_2) = (d/dr, h(r) d/dt); all connection and curvature data reduce to
the logarithmic derivative H = h'/h:

* covariant derivatives:  D_{e1} e1 = 0,  D_{e1} e2 = 0,
  D_{e2} e1 = -H e2,      D_{e2} e2 = H e1;
* Gauss curvature:        K = H' - H^2 = (h'' h - 2 h'^2) / h^2.

The 90-degree rotation J (e1 -> e2, e2 -> -e1) together with the area form
w = dr ^ dt / h makes every warped half plane a Kahler surface; the
algebraic compatibilities are exercised by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .warp import DomainError, Point, WarpFunction, _check_positive

__all__ = [
    "TangentVector",
    "ConnectionCoeffs",
    "metric_at",
    "apply_J",
    "kahler_form",
    "connection",
    "sectional_curvature",
    "curvature_oracle",
    "frame_components",
    "vector_from_frame",
]


@dataclass(frozen=True, init=False)
class TangentVector:
    """Tangent vector in coordinate components (dr, dt) at a base point.

    Coordinate components are the canonical representation; the frame
    components (f, g) = (dr, dt/h) are derived views obtained through
    :func:`frame_components`.
    """

    dr: float
    dt: float
    base: Point

    # Built as Point is: the instance dict is written directly, and
    # __post_init__ is the one check every construction runs.
    def __init__(self, dr: float, dt: float, base: Point):
        d = self.__dict__
        d["dr"] = dr
        d["dt"] = dt
        d["base"] = base
        self.__post_init__()

    def __post_init__(self):
        if not (math.isfinite(self.dr) and math.isfinite(self.dt)):
            raise ValueError("tangent vector components must be finite")


def frame_components(w: WarpFunction, u: TangentVector) -> tuple[float, float]:
    """Components (f, g) of u along the orthonormal frame (d/dr, h d/dt)."""
    return u.dr, u.dt / w.h(u.base.r)


def vector_from_frame(w: WarpFunction, p: Point, f: float, g: float) -> TangentVector:
    """Tangent vector with frame components (f, g) at p."""
    return TangentVector(dr=f, dt=g * w.h(p.r), base=p)


def _same_base(u: TangentVector, v: TangentVector) -> Point:
    if u.base is not v.base and u.base != v.base:
        raise ValueError(f"base-point mismatch: {u.base} vs {v.base}")
    return u.base


def metric_at(w: WarpFunction, u: TangentVector, v: TangentVector) -> float:
    """Inner product g(u, v) = u_r v_r + u_t v_t / h(r)^2.

    Both vectors must sit at the same base point, inside the warp's domain.
    Where h*h underflows to zero on Python floats, the quotient is numpy's
    (inf, or nan for 0/0), returned as a Python float.
    """
    p = _same_base(u, v)
    hr = w.h(p.r)
    try:
        return u.dr * v.dr + (u.dt * v.dt) / (hr * hr)
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            return float(u.dr * v.dr + (u.dt * v.dt) / np.float64(hr * hr))


def apply_J(w: WarpFunction, u: TangentVector) -> TangentVector:
    """Rotate u by 90 degrees: (dr, dt) -> (-dt/h, h dr).

    Applying twice returns the negated vector exactly.
    """
    hr = w.h(u.base.r)
    return TangentVector(dr=-u.dt / hr, dt=hr * u.dr, base=u.base)


def kahler_form(w: WarpFunction, u: TangentVector, v: TangentVector) -> float:
    """Area pairing w(u, v) = (u_r v_t - u_t v_r) / h(r).

    Antisymmetric, and equal to g(J u, v) for every pair at the same point.
    """
    p = _same_base(u, v)
    return (u.dr * v.dt - u.dt * v.dr) / w.h(p.r)


@dataclass(frozen=True)
class ConnectionCoeffs:
    """The four frame covariant derivatives at a point.

    Each entry is the pair of components along the orthonormal frame
    (d/dr, h d/dt).  The radial direction is autoparallel and parallelizes
    the frame: both derivatives along e1 vanish identically.
    """

    point: Point
    H: float
    nabla_e1_e1: tuple[float, float]
    nabla_e1_e2: tuple[float, float]
    nabla_e2_e1: tuple[float, float]
    nabla_e2_e2: tuple[float, float]


def connection(w: WarpFunction, p: Point) -> ConnectionCoeffs:
    """Frame connection coefficients at p, all expressed through H = h'/h."""
    H = float(w.log_deriv(p.r))
    return ConnectionCoeffs(
        point=p,
        H=H,
        nabla_e1_e1=(0.0, 0.0),
        nabla_e1_e2=(0.0, 0.0),
        nabla_e2_e1=(0.0, -H),
        nabla_e2_e2=(H, 0.0),
    )


def sectional_curvature(w: WarpFunction, r, *, method: str = "auto"):
    """Gauss curvature K(r) = (h'' h - 2 h'^2)/h^2 = H' - H^2.

    Parameters
    ----------
    r
        Radius or array of radii inside the warp's domain.
    method
        ``"auto"`` uses the family's exact curvature evaluator when one is
        attached (the built-in families solve known prescribed-curvature
        equations, so their curvature is available in closed form free of
        cancellation); ``"generic"`` always evaluates the h-based formula.
        Where that formula raises on Python floats (h*h underflows to zero,
        or h'^2 overflows), its value is numpy's, as a Python float.  On
        numpy values it is evaluated with numpy's warnings off: the same
        inf or nan, with no ``RuntimeWarning``.
    """
    if method not in ("auto", "generic"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        exact = w.exact_curvature(r)
        if exact is not None:
            return exact
    hv, d2, d1 = w.h(r), w.d2h(r), w.dh(r)
    if hasattr(hv, "dtype"):  # an array or a numpy scalar: numpy is loaded
        with np.errstate(all="ignore"):
            return (d2 * hv - 2.0 * d1**2) / (hv * hv)
    try:
        return (d2 * hv - 2.0 * d1**2) / (hv * hv)
    except (ZeroDivisionError, OverflowError):
        with np.errstate(all="ignore"):
            hv, d1 = np.float64(hv), np.float64(d1)
            return float((d2 * hv - 2.0 * d1**2) / (hv * hv))


def curvature_oracle(w: WarpFunction, r: float, step: float = 1e-3) -> float:
    """Gauss curvature from metric samples alone, by finite differences.

    For an orthogonal metric ``E dr^2 + G dt^2`` with E = 1 and
    G = 1/h^2 depending on r only, the curvature reduces to
    ``K = -(sqrt(G))'' / sqrt(G)``.  The second derivative of
    ``w(r) = 1/h(r)`` is estimated with the five-point central stencil
    (fourth-order accurate), so the stencil requires ``r +- 2 step`` inside
    the domain.  This route never consults h' or h'', which makes it an
    independent cross-check of :func:`sectional_curvature`.

    Where 1/h is not a finite nonzero double in the stencil (h overflows,
    or vanishes), the value is not finite: nan where Python float
    arithmetic divides by zero or h raises ``OverflowError`` (a float power
    that overflows), inf or nan as numpy reads it at np.float64.

    The domain check is one comparison pair of the two outer stencil
    points, which bound the other three, with the domain's ``interior``:
    it is :meth:`Domain.contains` on each of them.  The five values of h
    are then read from the raw evaluator, unchecked.

    Raises
    ------
    ValueError
        If ``step`` is not positive and finite.
    DomainError
        If the stencil leaves the domain (also for a nan or infinite r).
    """
    _check_positive("step", step)
    r = float(r)
    lo, hi = w.domain.interior
    if not (lo < r - 2 * step and r + 2 * step < hi):
        raise DomainError(
            f"finite-difference stencil [{r - 2 * step}, {r + 2 * step}] "
            f"leaves domain ({w.domain.lo}, {w.domain.hi})"
        )
    h = w._h
    try:
        w0 = 1.0 / h(r)
        wpp = (
            -(1.0 / h(r + 2 * step))
            + 16.0 * (1.0 / h(r + step))
            - 30.0 * w0
            + 16.0 * (1.0 / h(r - step))
            - (1.0 / h(r - 2 * step))
        ) / (12.0 * step * step)
        return -wpp / w0
    except (ZeroDivisionError, OverflowError):
        return math.nan
