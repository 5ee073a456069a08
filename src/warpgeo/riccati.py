"""Prescribed-curvature solving.

Asking a warped half plane to have curvature f(r) means solving the scalar
Riccati equation

    H'(r) = H(r)^2 + f(r),        H = (log h)'.

With h = 1/u it is the linear equation u'' + f u = 0 (the classical
linearization), which fixes h up to a positive scale that curvature cannot
see.  Two profiles admit elementary solution families, in closed form:

* f = 0        ->  u ~ a1 - r,          h(r) = a0 / (a1 - r)          (:func:`analytic_flat`)
* f = -2/r^2   ->  u ~ c1/r + c2 r^2,   h(r) = c0 r / (c1 + c2 r^3)   (:func:`analytic_neg2`)

The numeric solver integrates u from an initial condition for any profile;
a finite-radius blow-up of H is a simple zero of the smooth u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ._dop853 import TOO_SMALL_STEP, Derivative, solve_ivp
from ._np import np, on_float64
from .geometry import sectional_curvature
from .warp import Domain, WarpFunction, _check_positive, _constant, warp_flat, warp_neg2

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
]


@dataclass(frozen=True, eq=False)
class CurvatureProfile:
    """Target curvature r -> f(r) on the half line r > 0."""

    f: Callable


def constant_profile(value: float) -> CurvatureProfile:
    return CurvatureProfile(f=_constant(float(value)))


def inverse_square_profile(coeff: float = -2.0) -> CurvatureProfile:
    c = float(coeff)
    return CurvatureProfile(f=lambda r: c / (r * r))


@dataclass(frozen=True)
class HField:
    """Sampled solution of the prescribed-curvature equation.

    Attributes
    ----------
    grid
        Strictly increasing radii (the solver's refined adaptive steps).
    H
        Values of the logarithmic derivative -u'/u on the grid.
    h
        Warp values 1/u on the grid, with the normalization h(r0) = 1 (a
        warp is only determined up to a positive scale).
    blowup
        Radius of the first zero of u beyond r0 (the forward one when both
        directions have one), where H and h blow up, or None.  When set,
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


# Each adaptive step of the solver is cut into _REFINE grid intervals, and
# an interval is halved while |H| dr exceeds _MAX_H_STEP at one of its ends:
# the steps follow the smooth u, which is too coarse where H changes fast
# for the finite-difference residual of verify_field.
_REFINE = 16
_MAX_H_STEP = 1.0 / (4 * _REFINE)

# Relative tolerance of solve_prescribed's DOP853 solves.
RTOL = 1e-10

# u'' + f u = 0 as the first-order system of _integrate_side in x = sign * r,
# which _dop853 compiles into its step: (v, w)' = (sign w, -sign f(sign x) v).
_SIDE = Derivative("sign, fx", "{out} = sign * {y[1]}, -sign * fx(sign * {t}) * {y[0]}")


def _integrate_side(f, r0, H0, r_end, atol):
    """One-directional DOP853 integration of u'' + f u = 0 from u = 1,
    u' = -H0, backward where ``r_end`` < r0.

    Returns the rows r, u, u' of the ascending samples from r0 to ``r_end``
    and the first zero of u between them (the blow-up of H = -u'/u) or
    None.  The samples stop short of that zero, where u falls to atol.

    The samples cut each solver step into _REFINE intervals, and then halve
    intervals in rounds.  An interval that is not halved keeps its end
    values, so it is never halved later: each round tests only the halves
    that the last round made and reads only their midpoints, in one call of
    the dense output.  A midpoint's value does not depend on the other
    samples of its call, so the rows, sorted once at the end, are those of
    re-testing the whole grid every round.

    The solver runs forward only, so a backward side is solved in x = -r
    for (v, w)(x) = (u, u')(-x): v' = -w, w' = f(-x) v.  Round-to-nearest
    is symmetric under negation: against the backward solve, x, each step
    and each derivative only change sign, and the state keeps its bits.
    The exception, an exact zero (x + (-x) is +0 either way), does not
    reach the samples: u' itself is carried, not -u', and a step that
    lands on the end r = 0 ends there, at x = -0.0.
    """
    if r_end == r0:  # the start alone; 0.0 - H0 is +0.0 for H0 = 0.0
        y = np.array([[r0], [1.0], [0.0 - H0]], dtype=float)
        return y[:, y[1] > atol], None
    sign = 1.0 if r_end > r0 else -1.0  # x = sign * r runs forward
    # The profile sees np.float64 radii, as it would from an array; the
    # solver takes Python floats, so its value is converted (same bits).
    fx = on_float64(f)
    # u can overflow before r_end (h underflows), and f can divide by zero
    # where r * r underflows: the solve's failure is raised, and the dense
    # reads below build steps from the same system, so one errstate covers
    # the solve and every read.
    with np.errstate(all="ignore"):
        # u starts at 1, so its first zero is crossed falling.
        sol = solve_ivp(_SIDE, (sign, fx), (sign * r0, sign * r_end), (1.0, -H0),
                        rtol=RTOL, atol=atol, stops=(0.0, math.inf))
        if sol.status < 0:
            # Only the start's derivative can be reported as not finite: name it r0.
            message = sol.message.replace(f"t = {sign * float(r0)!r}.", f"t = {float(r0)!r}.")
            if message == TOO_SMALL_STEP:
                # Where: the last accepted step's end, or the start.  u is the
                # state the solve accepted; the interpolant there may read nan.
                r, u = (sign * sol.t[-1], sol.sol.end[0]) if len(sol.t) > 1 else (float(r0), 1.0)
                message += f" It stopped at r = {r!r}, where u = {u!r}."
            raise ValueError(f"u'' + f u = 0 not integrable from {r0} to {r_end}: {message}")
        blow = sign * sol.t[-1] if sol.status == 1 else None

        # One row of _REFINE + 1 samples per step; unique sorts and drops the
        # repeats of a step shorter than _REFINE floating-point spacings.
        ts = np.array(sol.t)
        r = np.unique(sign * np.linspace(ts[:-1], ts[1:], _REFINE + 1, axis=1))
        rows = [np.concatenate([r[None], sol.sol(sign * r)])]
        left, right = rows[0][:, :-1], rows[0][:, 1:]
        while True:
            # |H| dr > _MAX_H_STEP as |u'| dr > _MAX_H_STEP |u|: u vanishes at
            # a blow-up node.  A midpoint that rounds to an end is no split, nor
            # is an interval whose ends both have u <= atol, which are dropped:
            # at a zero of u on the range end r = 0 the relative criterion
            # would otherwise split without bound.
            (a, ua, dua), (b, ub, dub) = left, right
            dr, mid = b - a, 0.5 * (a + b)
            split = ((np.abs(dua) * dr > _MAX_H_STEP * np.abs(ua))
                     | (np.abs(dub) * dr > _MAX_H_STEP * np.abs(ub)))
            split &= (mid != a) & (mid != b)
            split &= (ua > atol) | (ub > atol)
            if not split.any():
                break
            mid = mid[split]
            new = np.concatenate([mid[None], sol.sol(sign * mid)])
            rows.append(new)
            left = np.concatenate([left[:, split], new], axis=1)
            right = np.concatenate([new, right[:, split]], axis=1)
    # Every midpoint lies strictly inside its interval, so the radii are
    # distinct and one sort orders them.  Where u falls to atol, next to a
    # zero, H keeps no digit the solver controls.
    y = np.concatenate(rows, axis=1)
    y = y[:, np.argsort(y[0])]
    return y[:, y[1] > atol], blow


def solve_prescribed(
    profile: CurvatureProfile,
    r0: float,
    H0: float,
    r_range: tuple[float, float],
    *,
    atol: float = 1e-10,
) -> HField:
    """Solve H' = H^2 + f from H(r0) = H0 across ``r_range``.

    Integrates the linear equation u'' + f u = 0 from u(r0) = 1,
    u'(r0) = -H0 in both directions up to the range endpoints, stopping at
    the first zero of u, where H = -u'/u blows up, and recording its
    location.  DOP853 runs at relative tolerance :data:`RTOL` (1e-10) and
    absolute tolerance ``atol``.  H and h = 1/u come from the solver's
    dense output on its refined grid, so h(r0) = 1.

    Raises
    ------
    ValueError
        If r0, H0 or an endpoint of ``r_range`` is not finite, r0 lies
        outside ``r_range``, the range leaves the profile's domain r > 0
        (an endpoint may be 0 itself, but not at or below the lower bound
        of that domain's ``interior``), ``atol`` is not positive and
        finite, or u overflows.
    """
    lo, hi = float(r_range[0]), float(r_range[1])
    if not np.isfinite([r0, H0, lo, hi]).all():
        raise ValueError(f"r0={r0}, H0={H0} and range ({lo}, {hi}) must be finite")
    if not (lo <= r0 <= hi) or lo >= hi:
        raise ValueError(f"r0={r0} not inside range ({lo}, {hi})")
    inner = Domain(0.0).interior[0]  # the profile's domain is r > 0
    if not (lo == 0.0 or lo > inner) or not hi > inner:
        raise ValueError("range must lie inside the profile domain")
    _check_positive("atol", atol)

    back, blow_b = _integrate_side(profile.f, r0, H0, lo, atol)
    fwd, blow_f = _integrate_side(profile.f, r0, H0, hi, atol)
    grid, u, du = np.hstack([back[:, back[0] < r0], fwd])

    # Report the forward blow-up when both directions have one.
    blow = blow_f if blow_f is not None else blow_b
    return HField(grid=grid, H=-du / u, h=1.0 / u, blowup=blow, r0=float(r0), H0=float(H0))


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

    The curvature is the generic ``(h'' h - 2 h'^2) / h^2`` from the warp's
    h, h' and h'', never a family's attached exact curvature, which is the
    profile itself and would match it by construction.  Never raises on
    mismatch; the report carries the maximal residual and the pass/fail
    verdict against ``tol``.
    """
    grid = np.asarray(grid, dtype=float)
    k = sectional_curvature(w, grid, method="generic")
    residual = np.abs(np.asarray(k) - np.asarray(profile.f(grid)))
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
    # Next to a blow-up H^2 and its differences can overflow, and on a grid
    # of subnormal spacings np.gradient can divide by zero.  Those samples
    # sit in the margins; a non-finite interior residual propagates through
    # np.max and fails the report.
    with np.errstate(all="ignore"):
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
