"""Oracles independent of the solvers.

The linearized Riccati families: with h = 1/u, the prescribed-curvature
equation H' = H^2 + f for H = (log h)' becomes u'' + f u = 0.  sympy checks
both equations for the closed-form u of each family, and the library's
closed forms against 1/u.

Curvature: sympy simplifies K = (h'' h - 2 h'^2)/h^2 of each built-in
family, with symbolic parameters, to the library's exact curvature
evaluated on the symbol itself, and the families' h, h', h'' and H match
sympy's derivatives of h; the h = r geodesic's transverse coordinate
differentiates to t' = b r^2.

Escape lengths: mpmath's Taylor-series ODE solver integrates the geodesic
equation r'' = -b^2 h h' at 30 digits, and its root finder locates the arc
length where r reaches ESCAPE_MARGIN, which :func:`escape_length` must match
to 1e-10.
"""

import math

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
mp = pytest.importorskip("mpmath")

from warpgeo import (  # noqa: E402
    ESCAPE_MARGIN,
    GeodesicState,
    Neg2Geodesic,
    analytic_flat,
    analytic_neg2,
    escape_length,
    make_warp,
    warp_custom,
    warp_exp,
    warp_flat,
    warp_neg2,
    warp_one_over_r,
    warp_r,
)

r = sp.symbols("r", positive=True)
a0, a1, c0, c1, c2 = sp.symbols("a0 a1 c0 c1 c2", nonzero=True)

# (profile f, u, parameter values, the library's warp for those values)
FAMILIES = {
    "flat": (sp.Integer(0), (a1 - r) / a0, {a0: 1.5, a1: 2.0}, analytic_flat(1.5, 2.0)),
    "neg2": (
        -2 / r**2,
        (c1 / r + c2 * r**2) / c0,
        {c0: 0.7, c1: 1.3, c2: 0.4},
        analytic_neg2(0.7, 1.3, 0.4),
    ),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_u_solves_the_linear_equation(name):
    f, u, _, _ = FAMILIES[name]
    assert sp.simplify(sp.diff(u, r, 2) + f * u) == 0


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_one_over_u_solves_the_riccati_equation(name):
    f, u, _, _ = FAMILIES[name]
    H = sp.diff(sp.log(1 / u), r)
    assert sp.simplify(sp.diff(H, r) - H**2 - f) == 0


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_library_closed_form_is_one_over_u(name):
    _, u, values, w = FAMILIES[name]
    rs = np.linspace(0.2, 1.8, 9)
    h = sp.lambdify(r, (1 / u).subs(values), "numpy")(rs)
    np.testing.assert_allclose(np.asarray(w.h(rs)), h, rtol=1e-14, atol=0.0)


# -- curvature and the h = r transverse coordinate against sympy ----------------

# name: (h with symbolic parameters, parameter values, the library's warp for
# those values).
CURVATURES = {
    "one_over_r": (1 / r, {}, warp_one_over_r()),
    "r": (r, {}, warp_r()),
    "exp": (sp.exp(r), {}, warp_exp()),
    "flat": (a0 / (a1 - r), {a0: 1.5, a1: 2.0}, warp_flat(1.5, 2.0)),
    "neg2": (c0 * r / (c1 + c2 * r**3), {c0: 0.7, c1: 1.3, c2: 0.4}, warp_neg2(0.7, 1.3, 0.4)),
}


@pytest.mark.parametrize("name", sorted(CURVATURES))
def test_family_curvature_is_the_symbolic_curvature(name):
    # make_warp does not check the families' h', h'' and H at run time:
    # this test holds each against sympy's derivative of h.
    h, values, w = CURVATURES[name]
    K = (sp.diff(h, r, 2) * h - 2 * sp.diff(h, r) ** 2) / h**2
    assert sp.simplify(K - sp.nsimplify(w._curvature(r))) == 0
    rs = np.linspace(0.2, 1.8, 9)
    exact = [
        (w.h, h, 1e-14),
        (w.dh, sp.diff(h, r), 1e-13),
        (w.d2h, sp.diff(h, r, 2), 1e-13),
        (w.log_deriv, sp.diff(h, r) / h, 1e-13),
    ]
    for evaluator, expr, rtol in exact:
        want = np.broadcast_to(sp.lambdify(r, expr.subs(values), "numpy")(rs), rs.shape)
        np.testing.assert_allclose(np.asarray(evaluator(rs)), want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("sign", [1, -1])
def test_neg2_transverse_is_the_antiderivative_of_b_r_squared(sign):
    # Neg2Geodesic's radius and transverse coordinate, over the phase
    # psi = sign b s + psi0.
    s, b, t0, psi0 = sp.symbols("s b t0 psi0", real=True)
    psi = sign * b * s + psi0
    radius = sp.sin(psi) / b
    transverse = t0 + s / (2 * b) - sign * (sp.sin(2 * psi) - sp.sin(2 * psi0)) / (4 * b**2)
    assert sp.simplify(sp.diff(transverse, s) - b * radius**2) == 0
    assert transverse.subs(s, 0) == t0

    geo = Neg2Geodesic(r0=1.0, t0=0.3, b=0.6, sign=float(sign))
    ss = np.linspace(*geo.arch(), 9)[1:-1]
    values = {b: geo.b, t0: geo.t0, psi0: geo.phase0}
    for expr, got in ((radius, geo.radius(ss)), (transverse, geo.transverse(ss))):
        want = sp.lambdify(s, expr.subs(values), "numpy")(ss)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


# -- escape lengths against mpmath.odefun ---------------------------------------


def mp_escape_length(h, h_dh, r0, angle, guess):
    """Arc length at which the geodesic from (r0, angle) reaches r = ESCAPE_MARGIN.

    ``h`` and ``h_dh`` (the product h h') are mpmath expressions of r; the
    momentum is b = sin(angle)/h(r0) and r'' = -b^2 h h'.
    """
    with mp.workdps(30):
        b = mp.sin(angle) / h(mp.mpf(r0))
        sol = mp.odefun(lambda s, y: [y[1], -b * b * h_dh(y[0])], 0, [mp.mpf(r0), mp.cos(angle)])
        return float(mp.findroot(lambda s: sol(s)[0] - ESCAPE_MARGIN, mp.mpf(guess)))


# name: (warp, h, h h', r0, angle).  The np.sqrt warp has no finite
# continuation past r = 0, so its escape step takes the clamped fallback.
ESCAPES = {
    "exp": (warp_exp(), mp.exp, lambda r: mp.exp(2 * r), 1.0, 2.5),
    "neg2:1,1,1": (
        make_warp("neg2:1,1,1"),
        lambda r: r / (1 + r**3),
        lambda r: r * (1 - 2 * r**3) / (1 + r**3) ** 3,
        1.2,
        2.2,
    ),
    "custom-sqrt": (
        warp_custom(np.sqrt, lambda r: 0.5 / np.sqrt(r), domain=(0.0, math.inf)),
        mp.sqrt,
        lambda r: mp.mpf(0.5),
        1.0,
        2.0,
    ),
}


@pytest.mark.parametrize("name", sorted(ESCAPES))
def test_escape_length_matches_mpmath(name):
    w, h, h_dh, r0, angle = ESCAPES[name]
    got = escape_length(w, GeodesicState.from_angle(r0, 0.0, angle), 50.0)
    assert got is not None
    assert abs(got - mp_escape_length(h, h_dh, r0, angle, got)) <= 1e-10


def test_neg2_arch_escape_matches_mpmath_and_closed_form():
    # h = r: r = sin(b s + asin(b r0))/b reaches ESCAPE_MARGIN asin(b m)/b
    # before the end of the arch.
    r0, angle = 1.0, 1.0
    init = GeodesicState.from_angle(r0, 0.0, angle)
    geo = Neg2Geodesic(r0=r0, t0=0.0, b=init.g / r0, sign=1.0)
    closed = geo.arch()[1] - math.asin(geo.b * ESCAPE_MARGIN) / geo.b
    got = escape_length(warp_r(), init, 50.0)
    ref = mp_escape_length(lambda r: r, lambda r: r, r0, angle, got)
    assert abs(ref - closed) <= 1e-13
    assert abs(got - ref) <= 1e-10
