"""Warp functions on the right half plane.

The geometry of the half plane R = {(r, t) : r > 0} studied by this package
is entirely determined by a single positive function h(r), which scales the
transverse direction: the line element is dr^2 + dt^2 / h(r)^2.  This module
defines the half-plane points, the warp-function object (h together with its
first two derivatives and its logarithmic derivative), and constructors for
the built-in warp families:

========== ===================== ========================= ==================
kind       h(r)                  curvature                 natural domain
========== ===================== ========================= ==================
one_over_r 1/r                   0                         (0, inf)
r          r                     -2/r^2                    (0, inf)
exp        e^r                   -1                        (0, inf)
flat       a0/(a1 - r)           0                         side of the pole
neg2       c0 r/(c1 + c2 r^3)    -2/r^2                    side of the pole
custom     caller supplied       generic formula           caller supplied
========== ===================== ========================= ==================

For the `flat` and `neg2` families the pole of h is excluded and the maximal
open subinterval of (0, inf) on which h is strictly positive is selected
automatically.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable

from ._np import np

__all__ = [
    "DomainError",
    "Domain",
    "Point",
    "WarpSpec",
    "WarpFunction",
    "make_warp",
    "warp_one_over_r",
    "warp_r",
    "warp_exp",
    "warp_flat",
    "warp_neg2",
    "warp_custom",
    "DOMAIN_MARGIN",
]

# Strict-inequality margin used by every domain membership test.
DOMAIN_MARGIN = 1e-12

# Default relative step for finite-difference derivatives of custom warps.
FD_STEP_SCALE = 1e-6

# Relative tolerance for warp_custom's check of the derivatives it is given.
CONSISTENCY_TOL = 1e-5

# Largest difference step, as a share of the distance to the nearer domain
# edge, at which warp_custom compares a supplied derivative.  A central
# difference at that share of the distance to a simple pole of h is off by
# about share^2 relative, and that of h' (a double pole) by 2 share^2, which
# this share holds to CONSISTENCY_TOL.
RESOLVED_STEP = math.sqrt(CONSISTENCY_TOL / 2.0)

# Size of Domain.sample's grid, on which make_warp and warp_custom validate.
SAMPLE_SIZE = 33

# The families whose h, h', h'' and H are plain + - * / on their argument, so
# that a Python float in gives a Python float out and reads no numpy.
_FLOAT_KINDS = frozenset({"one_over_r", "r", "flat", "neg2"})


def _quiet(w: WarpFunction):
    """The context in which to evaluate ``w`` where a value may overflow or
    divide by zero and the caller reads that value itself: numpy's warnings
    off, except for a family of ``_FLOAT_KINDS``, which reads no numpy."""
    return contextlib.nullcontext() if w.kind in _FLOAT_KINDS else np.errstate(all="ignore")


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n)`` on Python floats, bit for bit: numpy's
    operations, in its order, and its error for a negative ``n``."""
    if n < 0:
        raise ValueError(f"Number of samples, {n}, must be non-negative.")
    delta = hi - lo
    if n < 2:
        return [0.0 * delta + lo][:n]
    div = n - 1
    step = delta / div
    if step == 0:  # numpy's route for a step that underflows
        return [i / div * delta + lo for i in range(div)] + [hi]
    return [i * step + lo for i in range(div)] + [hi]


def _values(fn: Callable, rs: list) -> list:
    """``fn`` at each Python float of ``rs``.  Where float arithmetic raises
    and numpy's reads inf or nan (a division by zero, a power that
    overflows), every radius is evaluated again at np.float64, with numpy's
    warnings off, and read back as a Python float: numpy's values."""
    try:
        return [fn(r) for r in rs]
    except (ZeroDivisionError, OverflowError):
        float64 = np.float64
        with np.errstate(all="ignore"):
            return [float(fn(float64(r))) for r in rs]


class DomainError(ValueError):
    """A coordinate fell outside the open interval where h is defined."""


@dataclass(frozen=True)
class Domain:
    """Open interval (lo, hi) of valid radii, 0 <= lo < hi <= inf."""

    lo: float
    hi: float = math.inf

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"invalid domain ({self.lo}, {self.hi})")

    def contains(self, r):
        """Strict membership, ``DOMAIN_MARGIN`` off both endpoints.

        NaN fails both comparisons, -inf the lower one and +inf the upper
        one, also where ``hi`` is infinite."""
        if isinstance(r, float):
            return bool(self.lo + DOMAIN_MARGIN < r < self.hi - DOMAIN_MARGIN)
        r = np.asarray(r, dtype=float)
        inside = (r > self.lo + DOMAIN_MARGIN) & (r < self.hi - DOMAIN_MARGIN)
        return bool(inside) if inside.ndim == 0 else inside

    def require(self, r) -> None:
        """Raise :class:`DomainError`, naming the first radius outside,
        unless every radius of ``r`` is inside."""
        if isinstance(r, float):
            # contains' float test, inline: each checked scalar evaluation
            # makes this one call.
            if self.lo + DOMAIN_MARGIN < r < self.hi - DOMAIN_MARGIN:
                return
        else:
            ok = np.asarray(self.contains(r))
            if ok.all():
                return
            if ok.ndim:
                # Name the first radius outside, not the whole array.
                r = float(np.asarray(r, dtype=float)[~ok][0])
        raise DomainError(f"radius {r!r} outside open domain ({self.lo}, {self.hi})")

    def _require_sorted(self, rs: list) -> None:
        """:meth:`require` for a non-decreasing list of Python floats, which
        lies inside exactly when its two ends do: only they are compared,
        and where one is outside, :meth:`require` names the first radius
        outside."""
        if not (self.lo + DOMAIN_MARGIN < rs[0] and rs[-1] < self.hi - DOMAIN_MARGIN):
            for r in rs:
                self.require(r)

    def sample(self) -> list[float]:
        """Interior grid of ``SAMPLE_SIZE`` radii, Python floats in
        increasing order, used for validation sweeps."""
        lo = self.lo
        hi = self.hi if math.isfinite(self.hi) else max(10.0, 4.0 * lo + 10.0)
        pad = (hi - lo) * 1e-3
        return _linspace(lo + pad, hi - pad, SAMPLE_SIZE)


@dataclass(frozen=True, init=False)
class Point:
    """A point (r, t) of the right half plane; r must be strictly positive."""

    r: float
    t: float

    # The generated __init__ of a frozen dataclass sets each field through
    # object.__setattr__; writing the instance dict builds the same object
    # in about half the time.  __post_init__ stays the one check every
    # construction runs.
    def __init__(self, r: float, t: float):
        d = self.__dict__
        d["r"] = r
        d["t"] = t
        self.__post_init__()

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.t)):
            raise ValueError("point coordinates must be finite")
        if self.r <= 0.0:
            raise ValueError(f"point requires r > 0, got r={self.r}")


@dataclass(frozen=True)
class WarpSpec:
    """Plain-data description of a warp function: kind tag plus parameters.

    This is the serializable form shared with the command line and with
    configuration files; see ``WarpSpec.from_string`` for the CLI syntax.
    Custom (callable-backed) warps cannot be expressed as a spec.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(
                f"unknown warp kind {self.kind!r}; expected one of {tuple(_FAMILIES)}"
            )
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        want = _FAMILIES[self.kind][1]
        if len(self.params) != want:
            raise ValueError(
                f"warp kind {self.kind!r} takes {want} parameters, "
                f"got {len(self.params)}"
            )

    @classmethod
    def from_string(cls, text: str) -> "WarpSpec":
        """Parse ``"name"`` or ``"name:p1,p2,..."`` as used by the CLI."""
        name, _, tail = text.partition(":")
        params = tuple(float(tok) for tok in tail.split(",")) if tail else ()
        return cls(name.strip(), params)

    @classmethod
    def from_dict(cls, d: dict) -> "WarpSpec":
        """Build from ``{"kind": ..., "params": [...]}``, as read from JSON.

        Raises
        ------
        TypeError
            If ``params`` is not a list or tuple of numbers: a string would
            be read digit by digit, and a boolean as 0 or 1.
        """
        params = d.get("params", ())
        if not (isinstance(params, (list, tuple))
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in params)):
            raise TypeError("warp params must be an array of numbers")
        return cls(d["kind"], tuple(params))


@dataclass(frozen=True, eq=False)
class WarpFunction:
    """A positive warp function h on an open radial interval.

    Carries evaluators for h, h', h'' and the logarithmic derivative
    H = h'/h.  When the family solves a known prescribed-curvature equation
    the exact curvature evaluator is attached as well, so that curvature
    values are free of cancellation noise; generic curvature evaluation from
    (h, h', h'') is always available through
    :func:`warpgeo.geometry.sectional_curvature`.
    """

    kind: str
    params: tuple
    domain: Domain
    _h: Callable = field(repr=False)
    _dh: Callable = field(repr=False)
    _d2h: Callable = field(repr=False)
    _logderiv: Callable = field(repr=False)
    _curvature: Callable | None = field(default=None, repr=False)

    # -- evaluation ---------------------------------------------------------

    # The checked evaluators: the domain check, then fn at a float or float array.
    def _checked(self, fn: Callable, r):
        self.domain.require(r)
        if isinstance(r, float) or _scalar(r):
            return fn(float(r))
        return fn(np.asarray(r, dtype=float))

    def h(self, r):
        return self._checked(self._h, r)

    def dh(self, r):
        return self._checked(self._dh, r)

    def d2h(self, r):
        return self._checked(self._d2h, r)

    def log_deriv(self, r):
        """H(r) = h'(r)/h(r), the logarithmic derivative of the warp."""
        return self._checked(self._logderiv, r)

    # Unchecked variants.  Neither has a caller in the package:
    # log_deriv_unchecked since the geodesic integrator moved to (h, h'),
    # h_unchecked since curvature_oracle reads the raw _h.  Both stay only
    # because perfbench/tracer.py wraps them by name, until the tracer
    # reads solver counters instead.
    def h_unchecked(self, r):
        return self._h(r)

    def log_deriv_unchecked(self, r):
        return self._logderiv(r)

    def exact_curvature(self, r):
        """Family-exact curvature evaluator, or None if not available."""
        if self._curvature is None:
            return None
        return self._checked(self._curvature, r)

    def require_point(self, p: Point) -> None:
        self.domain.require(p.r)


# -- family constructors ------------------------------------------------------


def _scalar(r) -> bool:
    """Whether r is a scalar.  A float (np.float64 is one) is answered without
    np.ndim, which on a Python float first builds an array: the constant
    evaluators ask this at every scalar call."""
    if isinstance(r, float):
        return True
    return not np.ndim(r)


def _constant(v: float) -> Callable:
    """Evaluator of the constant v: a float at a scalar, a filled array at an array."""

    def constant(r):
        if _scalar(r):
            return v
        return np.full_like(np.asarray(r, dtype=float), v)

    return constant


def warp_one_over_r() -> WarpFunction:
    """h(r) = 1/r on (0, inf); the flat transverse-shrinking warp."""
    return WarpFunction(
        kind="one_over_r",
        params=(),
        domain=Domain(0.0),
        _h=lambda r: 1.0 / r,
        _dh=lambda r: -1.0 / (r * r),
        _d2h=lambda r: 2.0 / (r * r * r),
        _logderiv=lambda r: -1.0 / r,
        _curvature=_constant(0.0),
    )


def warp_r() -> WarpFunction:
    """h(r) = r on (0, inf); curvature -2/r^2."""
    return WarpFunction(
        kind="r",
        params=(),
        domain=Domain(0.0),
        _h=lambda r: r,  # every caller passes a float or a float array
        _dh=_constant(1.0),
        _d2h=_constant(0.0),
        _logderiv=lambda r: 1.0 / r,
        _curvature=lambda r: -2.0 / (r * r),
    )


def warp_exp() -> WarpFunction:
    """h(r) = e^r on (0, inf); constant curvature -1."""
    return WarpFunction(
        kind="exp",
        params=(),
        domain=Domain(0.0),
        _h=np.exp,
        _dh=np.exp,
        _d2h=np.exp,
        _logderiv=_constant(1.0),
        _curvature=_constant(-1.0),
    )


def _positive_side(h_sample: Callable, pole: float | None) -> Domain:
    """Pick the maximal open subinterval of (0, inf), cut at the pole,
    on which the sampled h is strictly positive."""
    cuts = (0.0, pole, math.inf) if pole is not None and pole > 0.0 else (0.0, math.inf)
    # A simple pole flips the sign, so at most one side is positive.
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        probe_hi = hi if math.isfinite(hi) else max(2.0 * lo + 10.0, 10.0)
        probe = lo + 0.5 * (probe_hi - lo)
        if h_sample(probe) > 0.0:
            return Domain(lo, hi)
    raise ValueError("warp parameters give no interval with h > 0 in (0, inf)")


def warp_flat(a0: float, a1: float) -> WarpFunction:
    """h(r) = a0/(a1 - r); identically flat on its positivity interval.

    The pole r = a1 is excluded.  For a0 < 0 and a1 <= 0 the domain is all of
    (0, inf); in particular ``warp_flat(-1, 0)`` equals ``warp_one_over_r()``.
    """
    a0, a1 = float(a0), float(a1)
    if a0 == 0.0:
        raise ValueError("flat warp requires a0 != 0 (h would vanish identically)")

    def h(r):
        return a0 / (a1 - r)

    def dh(r):
        d = a1 - r
        return a0 / (d * d)

    def d2h(r):
        d = a1 - r
        return 2.0 * a0 / (d * d * d)

    def H(r):
        return 1.0 / (a1 - r)

    return WarpFunction(
        kind="flat",
        params=(a0, a1),
        domain=_positive_side(h, a1),
        _h=h,
        _dh=dh,
        _d2h=d2h,
        _logderiv=H,
        # The family is defined by H' = H^2, hence exactly zero curvature.
        _curvature=_constant(0.0),
    )


def warp_neg2(c0: float, c1: float, c2: float) -> WarpFunction:
    """h(r) = c0 r / (c1 + c2 r^3); curvature -2/r^2 on its positivity interval.

    Any positive root of c1 + c2 r^3 is excluded; ``warp_neg2(1, 1, 0)``
    reduces to ``warp_r()`` up to scale.
    """
    c0, c1, c2 = float(c0), float(c1), float(c2)
    if c0 == 0.0:
        raise ValueError("neg2 warp requires c0 != 0 (h would vanish identically)")
    if c1 == 0.0 and c2 == 0.0:
        raise ValueError("neg2 warp requires c1 + c2 r^3 not identically zero")
    pole = None
    if c2 != 0.0:
        root = -c1 / c2
        if root > 0.0:
            pole = root ** (1.0 / 3.0)

    def h(r):
        return c0 * r / (c1 + c2 * r * r * r)

    def dh(r):
        q = c1 + c2 * r * r * r
        return c0 * (c1 - 2.0 * c2 * r * r * r) / (q * q)

    def d2h(r):
        q = c1 + c2 * r * r * r
        return c0 * (6.0 * c2 * r * r) * (c2 * r * r * r - 2.0 * c1) / (q * q * q)

    def H(r):
        return 1.0 / r - 3.0 * c2 * r * r / (c1 + c2 * r * r * r)

    return WarpFunction(
        kind="neg2",
        params=(c0, c1, c2),
        domain=_positive_side(h, pole),
        _h=h,
        _dh=dh,
        _d2h=d2h,
        _logderiv=H,
        # Defining property of the family: H' - H^2 = -2/r^2.
        _curvature=lambda r: -2.0 / (r * r),
    )


def warp_custom(
    h: Callable,
    dh: Callable | None = None,
    d2h: Callable | None = None,
    *,
    domain: tuple[float, float] | Domain,
) -> WarpFunction:
    """Wrap caller-supplied evaluators as a warp function.

    Missing derivatives are built by central differences with step
    ``FD_STEP_SCALE * max(1, r)`` (1e-6 relative); the second difference
    uses the square root of that step, which balances its rounding error
    (eps/step^2) against truncation.  Both steps are cut to half the
    distance to the nearer domain edge.  The logarithmic derivative is
    dh(r)/h(r).  The domain must be an explicit open subinterval of
    (0, inf).  Positivity and finiteness of h and of dh/h are checked on
    the domain's ``SAMPLE_SIZE``-point grid (each evaluator is called with
    one Python float at a time), and a domain too narrow for
    that grid to lie ``DOMAIN_MARGIN`` inside it is refused.  A supplied dh
    (and d2h) is compared with the central difference of h (of dh) at
    relative tolerance ``CONSISTENCY_TOL``, at the samples where the step
    ``FD_STEP_SCALE * max(1, r)`` is at most ``RESOLVED_STEP`` (about 0.2 %)
    of the distance to the nearer domain edge; nearer an edge a difference
    may straddle a pole.  A non-finite comparison fails, and so does a domain
    too narrow to hold any such sample.  A failed check raises ``ValueError``.

    A d2h is accepted only with its dh, against which it is checked: a
    second difference of h is too coarse to check it by (correct d2h's of
    2 + sin r or e^r miss ``CONSISTENCY_TOL`` against it), so a d2h given
    alone raises ``ValueError``.
    """
    if d2h is not None and dh is None:
        raise ValueError("warp_custom: d2h is checked against dh; pass dh as well, or omit d2h")
    dom = domain if isinstance(domain, Domain) else Domain(*domain)
    step2 = math.sqrt(FD_STEP_SCALE)
    supplied = (dh is not None, d2h is not None)

    def step(r, scale):
        # scale * max(1, |r|), cut so that both probes stay inside the
        # domain: the step is at most half the distance to the nearer edge.
        return np.minimum(scale * np.maximum(1.0, np.abs(r)),
                          0.5 * np.minimum(r - dom.lo, dom.hi - r))

    if dh is None:
        def dh(r, _h=h):  # closure over the raw h
            d = step(r, FD_STEP_SCALE)
            return (_h(r + d) - _h(r - d)) / (2.0 * d)

    if d2h is None:
        def d2h(r, _h=h):
            d = step(r, step2)
            return (_h(r + d) - 2.0 * _h(r) + _h(r - d)) / (d * d)

    w = WarpFunction(
        kind="custom",
        params=(),
        domain=dom,
        _h=h,
        _dh=dh,
        _d2h=d2h,
        _logderiv=lambda r: dh(r) / h(r),
    )
    # FD-built derivatives are consistent by construction; only cross-check
    # what the caller actually supplied.
    return _validate(w, *supplied)


# The families a WarpSpec may name: kind -> (constructor, parameter count).
_FAMILIES = {
    "one_over_r": (warp_one_over_r, 0),
    "r": (warp_r, 0),
    "exp": (warp_exp, 0),
    "flat": (warp_flat, 2),
    "neg2": (warp_neg2, 3),
}


# The solvers' default tolerance: connect's replay check and classify's
# holomorphy verdict (re-exported by connect).
DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> None:
    """A residual below ``tol`` decides: nan, zero or a negative ``tol``
    would accept nothing, and an infinite one anything."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _validate(w: WarpFunction, check_dh: bool = False, check_d2h: bool = False) -> WarpFunction:
    """Reject an h that is not finite and positive, or an H that is not
    finite, on the domain's sample grid; and, where asked, derivative
    evaluators that differ from central differences by more than
    ``CONSISTENCY_TOL`` (relative) at the resolved samples (see
    :func:`warp_custom`).  Each evaluator runs on the grid's Python floats,
    and a value that float arithmetic cannot give is numpy's (see
    :func:`_values`)."""
    grid = w.domain.sample()
    lo, hi = w.domain.lo, w.domain.hi
    # A value that overflows or divides by zero is rejected by name below.
    with _quiet(w):
        if not all(0.0 < v < math.inf for v in _values(w._h, grid)):
            raise ValueError(
                f"warp {w.kind!r} is not strictly positive on its domain ({lo}, {hi})"
            )
        try:
            w.domain._require_sorted(grid)
        except DomainError:
            # The grid's pad, 1e-3 of the width, lies within DOMAIN_MARGIN of
            # an edge for widths up to about 1e-9.
            raise ValueError(f"warp {w.kind!r}: domain ({lo}, {hi}) is too "
                             "narrow for its validation grid") from None
        if not all(math.isfinite(v) for v in _values(w._logderiv, grid)):
            raise ValueError(f"warp {w.kind!r} has a non-finite logarithmic derivative")
        if not check_dh:
            return w
        # Central-difference cross-check of dh against h, and d2h against dh,
        # with the step scale * max(1, r).
        xs = [x for x in grid if FD_STEP_SCALE * max(1.0, x) <= RESOLVED_STEP * min(x - lo, hi - x)]
        if not xs:
            raise ValueError(f"warp {w.kind!r}: domain too narrow to check h' against h; "
                             "omit dh to difference h")
        ds = [FD_STEP_SCALE * max(1.0, x) for x in xs]
        checks = [(w._dh, w._h, "h' evaluator inconsistent with h")]
        if check_d2h:
            checks.append((w._d2h, w._dh, "h'' evaluator inconsistent with h'"))
        for got, f, message in checks:
            ups = _values(f, [x + d for x, d in zip(xs, ds)])
            downs = _values(f, [x - d for x, d in zip(xs, ds)])
            for v, up, down, d in zip(_values(got, xs), ups, downs, ds):
                fd = (up - down) / (2.0 * d)
                # A NaN fails here too.
                if not abs(v - fd) / max(1.0, abs(fd)) <= CONSISTENCY_TOL:
                    raise ValueError(f"warp {w.kind!r}: {message}")
    return w


def make_warp(spec: WarpSpec | str) -> WarpFunction:
    """Build a warp function from a spec (or its string form).

    The warp keeps its family's natural domain (see the module docstring).
    h and H are sampled on the domain's ``SAMPLE_SIZE``-point grid, on
    Python floats, to confirm that the parameters give a finite, positive h
    and a finite H there.  The families' h', h'' and H are exact; the test suite checks
    them against symbolic derivatives.

    Parameters
    ----------
    spec
        A :class:`WarpSpec` or a string such as ``"one_over_r"`` or
        ``"flat:2,5"``.

    Raises
    ------
    ValueError
        If the parameters leave no open interval with h > 0, or h is not
        finite and positive, or H not finite, on the sample grid, or the
        domain is too narrow for that grid to lie ``DOMAIN_MARGIN`` inside.
    """
    if isinstance(spec, str):
        spec = WarpSpec.from_string(spec)
    w = _FAMILIES[spec.kind][0](*spec.params)
    return _validate(w)
