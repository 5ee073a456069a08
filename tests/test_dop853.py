"""The DOP853 kernel against scipy's solver, which it follows step for step.

The tableau written out in the kernel must be scipy's, double for double.
Each case runs the library with its solver calls recorded, solves every
recorded problem again with ``scipy.integrate.solve_ivp`` and requires the
same outcome and step counts (status, RHS evaluations, accepted steps, event
roots) and samples that agree to rounding.  The step ends themselves may
differ slightly: where the error estimate is dominated by rounding (a first
step far below the tolerance), its value depends on the order of the stage
sums, and so does the next step size.
"""

import math

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from test_geodesics import ESCAPING

from warpgeo import (
    FlatGeodesic,
    GeodesicState,
    constant_profile,
    geodesics,
    integrate,
    riccati,
    solve_prescribed,
    warp_one_over_r,
)
from warpgeo import _dop853

TOL = 1e-12


def _padded(rows, width: int) -> np.ndarray:
    """Trimmed tableau rows as a square block, zero above the diagonal."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def test_tableau_is_scipys():
    n = DOP853.n_stages
    assert [len(row) for row in _dop853.A] == list(range(n))
    assert [len(row) for row in _dop853.A_EXTRA] == list(range(n + 1, n + 4))
    assert np.all(_padded(_dop853.A, n) == DOP853.A)
    assert np.all(_padded(_dop853.A_EXTRA, DOP853.A_EXTRA.shape[1]) == DOP853.A_EXTRA)
    for name in ("B", "C", "E3", "E5", "D", "C_EXTRA"):
        ours, theirs = np.asarray(getattr(_dop853, name)), getattr(DOP853, name)
        assert ours.shape == theirs.shape and np.all(ours == theirs), name


def _with_scipy(monkeypatch, module, run) -> list:
    """Run ``run()``; return (kernel, scipy) solutions of each solver call."""
    pairs = []
    kernel = module.solve_ivp

    def both(fun, t_span, y0, *, rtol, atol, events=()):
        sol = kernel(fun, t_span, y0, rtol=rtol, atol=atol, events=events)
        for ev in events:
            ev.terminal = True
        ref = scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                              events=list(events), dense_output=True)
        pairs.append((sol, ref))
        return sol

    monkeypatch.setattr(module, "solve_ivp", both)
    run()
    assert pairs
    return pairs


def _close(got, want, tol=TOL) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    )


def _assert_same(sol, ref, same_steps=True):
    assert sol.status == ref.status
    if same_steps:
        assert sol.nfev == ref.nfev
        assert len(sol.t) == len(ref.t)
    assert len(sol.t_events) == len(ref.t_events)
    for got, want in zip(sol.t_events, ref.t_events):
        assert _close(got, want)
    grid = np.linspace(ref.t[0], ref.t[-1], 257)
    # Other steps agree only to the solver's accuracy.
    assert _close(sol.sol(grid), ref.sol(grid), TOL if same_steps else 1e-9)


@pytest.mark.parametrize("name", ["one_over_r", "r", "exp", "flat(2,5)", "neg2(1,1,1)"])
def test_ray_per_builtin_warp(monkeypatch, warp_family, name):
    w = warp_family[name]
    init = GeodesicState.from_angle(max(w.domain.lo + 0.5, 0.8) + 0.5, 0.0, 2.0)
    for sol, ref in _with_scipy(monkeypatch, geodesics, lambda: integrate(w, init, 1.5)):
        _assert_same(sol, ref)


@pytest.mark.parametrize("name", sorted(ESCAPING))
def test_escaping_ray(monkeypatch, name):
    # For h = sqrt(r) the force -b^2 h h' is the constant -b^2/2: the path is
    # a polynomial that DOP853 follows exactly, so every error estimate is
    # rounding of the stage sums, whose order differs from numpy's, and the
    # step sequence with it.  Only the outcome and the path must agree.
    w, init = ESCAPING[name]
    for sol, ref in _with_scipy(monkeypatch, geodesics, lambda: integrate(w, init, 5.0)):
        assert ref.status == 1
        _assert_same(sol, ref, same_steps=name != "custom-sqrt")


def test_flat_replay_at_retry_tolerances(monkeypatch):
    # The tolerances of connect's second replay; the shot whips around a
    # turning radius of 0.14.
    init = FlatGeodesic(r0=1.0, t0=0.0, a=-0.99).initial_state()
    run = lambda: integrate(warp_one_over_r(), init, 3.0, rtol=1e-12, atol=1e-14)  # noqa: E731
    for sol, ref in _with_scipy(monkeypatch, geodesics, run):
        assert ref.nfev > 2 + 15 * (len(ref.t) - 1)  # some steps were rejected
        _assert_same(sol, ref)


def test_riccati_backward_side(monkeypatch):
    run = lambda: solve_prescribed(constant_profile(-0.5), 2.0, 0.3, (1.0, 4.0))  # noqa: E731
    back, fwd = _with_scipy(monkeypatch, riccati, run)
    assert back[1].t[-1] == 1.0 and fwd[1].t[-1] == 4.0
    for sol, ref in (back, fwd):
        _assert_same(sol, ref)


def test_riccati_side_ending_on_zero_of_u(monkeypatch):
    # u = cos(r - 1) vanishes at 1 + pi/2.
    run = lambda: solve_prescribed(constant_profile(1.0), 1.0, 0.0, (0.5, 3.0))  # noqa: E731
    _, (sol, ref) = _with_scipy(monkeypatch, riccati, run)
    assert ref.status == 1
    assert ref.t_events[0][0] == pytest.approx(1.0 + math.pi / 2, abs=1e-9)
    _assert_same(sol, ref)
