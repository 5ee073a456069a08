"""Prescribed-curvature solving.

Asking a warped half plane to have curvature f(r) means solving the scalar
Riccati equation

    H'(r) = H(r)^2 + f(r),        H = (log h)',

after which the warp is recovered (up to a positive scale that curvature
cannot see) as h = exp(int H dr).  Two profiles admit elementary solution
families and are provided in closed form:

* f = 0        ->  h(r) = a0 / (a1 - r)          (:func:`analytic_flat`)
* f = -2/r^2   ->  h(r) = c0 r / (c1 + c2 r^3)   (:func:`analytic_neg2`)

The numeric solver integrates any profile from an initial condition and
detects the finite-radius blow-up that Riccati equations are prone to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

from .warp import Domain, WarpFunction, _constant, warp_flat, warp_neg2

__all__ = [
    "CurvatureProfile",
    "HField",
    "RiccatiReport",
    "solve_prescribed",
    "analytic_flat",
    "analytic_neg2",
    "verify_riccati",
    "verify_field",
    "constant_profile",
    "inverse_square_profile",
    "BLOWUP_CAP",
]

# Default cap on |H| past which the solver reports a blow-up; the ``cap``
# argument of solve_prescribed overrides it per call.
BLOWUP_CAP = 1e8


@dataclass(frozen=True, eq=False)
class CurvatureProfile:
    """Target curvature r -> f(r) on an open radial interval."""

    f: Callable
    domain: Domain = Domain(0.0)

    def __call__(self, r):
        return self.f(r)


def constant_profile(value: float, domain: Domain = Domain(0.0)) -> CurvatureProfile:
    return CurvatureProfile(f=_constant(float(value)), domain=domain)


def inverse_square_profile(coeff: float = -2.0, domain: Domain = Domain(0.0)) -> CurvatureProfile:
    c = float(coeff)
    return CurvatureProfile(f=lambda r: c / (r * r), domain=domain)


@dataclass(frozen=True)
class HField:
    """Sampled solution of the prescribed-curvature equation.

    Attributes
    ----------
    grid
        Strictly increasing radii (the solver's adaptive steps).
    H
        Values of the logarithmic derivative on the grid.
    h
        Warp values reconstructed by trapezoidal integration of H, with the
        normalization h(r0) = 1 (a warp is only determined up to a positive
        scale).
    blowup
        Radius at which |H| crossed the blow-up cap, or None.  When set,
        samples stop short of it.
    r0, H0
        The initial condition the field was integrated from.
    """

    grid: np.ndarray
    H: np.ndarray
    h: np.ndarray
    blowup: float | None
    r0: float
    H0: float

    def interpolate_H(self, r):
        return np.interp(r, self.grid, self.H)


# Each adaptive step of the Riccati solver is cut into this many grid
# intervals through the dense output.
_REFINE = 16


def _integrate_side(f, r0, H0, r_end, rtol, atol, cap):
    """One-directional integration of H' = H^2 + f with a |H| >= cap event.

    The solver's adaptive nodes are refined ``_REFINE``-fold through the
    dense output, which keeps the later trapezoidal reconstruction of h
    accurate (the smooth-regime steps of a high-order method are large).
    """
    if r_end == r0:
        return np.array([]), np.array([]), None

    def rhs(r, y):
        return [y[0] * y[0] + f(r)]

    def hit_cap(r, y):
        return cap - abs(y[0])

    hit_cap.terminal = True

    sol = solve_ivp(
        rhs,
        (r0, r_end),
        [H0],
        method="DOP853",
        rtol=rtol,
        atol=atol,
        events=hit_cap,
        dense_output=True,
    )
    if sol.status < 0:  # pragma: no cover - step-size underflow safeguard
        raise RuntimeError(f"Riccati integration failed: {sol.message}")
    blow = None
    if sol.status == 1 and sol.t_events[0].size:
        blow = float(sol.t_events[0][0])
    nodes = sol.t
    if blow is not None:
        # Drop the event sample itself so the field stops before the blow-up.
        nodes = nodes[:-1]
    if nodes.size < 2:
        return np.array([]), np.array([]), blow
    pieces = [
        np.linspace(a, b, _REFINE + 1)[1:] for a, b in zip(nodes[:-1], nodes[1:])
    ]
    grid = np.concatenate(pieces)
    H = sol.sol(grid)[0]
    return grid, H, blow


def solve_prescribed(
    profile: CurvatureProfile,
    r0: float,
    H0: float,
    r_range: tuple[float, float],
    *,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    cap: float = BLOWUP_CAP,
) -> HField:
    """Integrate H' = H^2 + f from H(r0) = H0 across ``r_range``.

    Integration proceeds in both directions from r0 until the range
    endpoints, halting gracefully where |H| exceeds ``cap`` and recording
    the blow-up location.  The reconstructed h uses trapezoidal integration
    of H on the adaptive grid (each step refined 16-fold through the dense
    output) with h(r0) = 1.

    Raises
    ------
    ValueError
        If r0 lies outside ``r_range``, the range leaves the profile's
        domain, tolerances are not positive, or ``cap`` does not exceed
        |H0| (the blow-up event would fire at the start).
    """
    lo, hi = float(r_range[0]), float(r_range[1])
    if not (lo <= r0 <= hi) or lo >= hi:
        raise ValueError(f"r0={r0} not inside range ({lo}, {hi})")
    if not (profile.domain.contains(lo) or lo == profile.domain.lo) or not (
        profile.domain.contains(hi) or hi == profile.domain.hi
    ):
        raise ValueError("range must lie inside the profile domain")
    if rtol <= 0.0 or atol <= 0.0:
        raise ValueError("tolerances must be positive")
    if not cap > abs(H0):
        raise ValueError(f"blow-up cap {cap!r} must exceed |H0| = {abs(H0)!r}")

    g_b, H_b, blow_b = _integrate_side(profile.f, r0, H0, lo, rtol, atol, cap)
    g_f, H_f, blow_f = _integrate_side(profile.f, r0, H0, hi, rtol, atol, cap)

    grid = np.concatenate([g_b[::-1], [r0], g_f])
    H = np.concatenate([H_b[::-1], [H0], H_f])

    log_h = cumulative_trapezoid(H, grid, initial=0.0)
    i0 = int(np.searchsorted(grid, r0))
    log_h -= log_h[i0]
    h = np.exp(log_h)

    # Report the forward blow-up when both directions hit the cap.
    blow = blow_f if blow_f is not None else blow_b
    return HField(grid=grid, H=H, h=h, blowup=blow, r0=float(r0), H0=float(H0))


# The closed-form solution families of H' - H^2 = 0 and H' - H^2 = -2/r^2
# are the warp families of the same name.
analytic_flat = warp_flat
analytic_neg2 = warp_neg2


@dataclass(frozen=True)
class RiccatiReport:
    """Residual summary for a curvature verification, JSON-serializable."""

    max_residual: float
    grid_size: int
    passed: bool
    tol: float
    blowup_location: float | None = None

    def to_dict(self) -> dict:
        d = {
            "max_residual": self.max_residual,
            "grid_size": self.grid_size,
            "pass": self.passed,
            "tol": self.tol,
        }
        if self.blowup_location is not None:
            d["blowup_location"] = self.blowup_location
        return d


def verify_riccati(
    w: WarpFunction,
    profile: CurvatureProfile,
    grid,
    tol: float = 1e-10,
) -> RiccatiReport:
    """Check that the warp's curvature matches the profile on a grid.

    Never raises on mismatch; the report carries the maximal residual and
    the pass/fail verdict against ``tol``.
    """
    from .geometry import sectional_curvature

    grid = np.asarray(grid, dtype=float)
    w.domain.require(grid)
    profile.domain.require(grid)
    residual = np.abs(np.asarray(sectional_curvature(w, grid)) - np.asarray(profile.f(grid)))
    max_res = float(np.max(residual)) if grid.size else 0.0
    return RiccatiReport(
        max_residual=max_res,
        grid_size=int(grid.size),
        passed=bool(max_res <= tol),
        tol=float(tol),
    )


def verify_field(field: HField, profile: CurvatureProfile, tol: float) -> RiccatiReport:
    """Derivative-consistency residual of a solved field against its profile.

    A finite difference of H on the solution grid is compared with
    H^2 + f, relative to the local scale max(1, |H^2 + f|) and away from
    the 5% margins of the grid (the estimate is limited by grid resolution,
    not by the integrator).  The report carries the field's blow-up
    location.
    """
    g_lo, g_hi = field.grid[0], field.grid[-1]
    span = g_hi - g_lo
    dH = np.gradient(field.H, field.grid)
    rhs_vals = field.H**2 + np.asarray(profile.f(field.grid))
    rel = np.abs(dH - rhs_vals) / np.maximum(1.0, np.abs(rhs_vals))
    interior = (field.grid >= g_lo + 0.05 * span) & (field.grid <= g_hi - 0.05 * span)
    max_resid = float(np.max(rel[interior])) if np.any(interior) else 0.0
    return RiccatiReport(
        max_residual=max_resid,
        grid_size=int(field.grid.size),
        passed=bool(max_resid <= tol),
        tol=tol,
        blowup_location=field.blowup,
    )
