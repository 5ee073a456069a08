"""Symbolic oracle, independent of the solver: the linearized Riccati families.

With h = 1/u, the prescribed-curvature equation H' = H^2 + f for
H = (log h)' becomes u'' + f u = 0.  sympy checks both equations for the
closed-form u of each family, and the library's closed forms against 1/u.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from warpgeo import analytic_flat, analytic_neg2  # noqa: E402

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
