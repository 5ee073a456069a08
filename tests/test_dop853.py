"""The DOP853 kernel against scipy's solver, which it follows step for step.

The tableau written out in the kernel must be scipy's, double for double.
Each case runs the library with its solver calls recorded, solves every
recorded problem again with ``scipy.integrate.solve_ivp`` and requires the
same outcome and step counts (status, RHS evaluations, accepted steps, event
roots) and samples that agree to rounding.  The step ends themselves may
differ slightly: where the error estimate is dominated by rounding (a first
step far below the tolerance), its value depends on the order of the stage
sums, and so does the next step size.

The step code the kernel generates must equal one left-to-right sum per
tableau row, for the stages and for the sums that close a step, and the
kernel's steps must not depend on how the built-in ``sum`` rounds, which
changed in Python 3.12.
"""

import math
from operator import mul

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from test_geodesics import ESCAPING, child_stdout

from warpgeo import (
    FlatGeodesic,
    GeodesicState,
    constant_profile,
    geodesics,
    integrate,
    inverse_square_profile,
    riccati,
    solve_prescribed,
    warp_one_over_r,
    warp_r,
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


def _returned_types(monkeypatch, module, run) -> set:
    """Run ``run()``; return the types of all values that the right-hand
    sides of the solver calls in ``module`` return."""
    types = set()
    kernel = module.solve_ivp

    def recording(fun, *args, **kwargs):
        def typed(t, y):
            out = fun(t, y)
            types.update(map(type, out))
            return out

        return kernel(typed, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, "solve_ivp", recording)
        run()
    return types


@pytest.mark.parametrize("name", ["one_over_r", "r", "exp", "flat(2,5)", "neg2(1,1,1)"])
def test_geodesic_right_hand_side_returns_floats(monkeypatch, warp_family, name):
    # The kernel converts nothing: the stages take fun's values as they are.
    w = warp_family[name]
    init = GeodesicState.from_angle(max(w.domain.lo + 0.5, 0.8) + 0.5, 0.0, 2.0)
    assert _returned_types(monkeypatch, geodesics, lambda: integrate(w, init, 1.5)) == {float}


def test_custom_right_hand_side_returns_floats(monkeypatch):
    w, init = ESCAPING["custom-sqrt"]
    assert _returned_types(monkeypatch, geodesics, lambda: integrate(w, init, 5.0)) == {float}


def test_riccati_right_hand_side_returns_floats(monkeypatch):
    # The profile c / r^2 returns np.float64 at the np.float64 radius it gets.
    def run():
        solve_prescribed(inverse_square_profile(-2.0), 1.0, 0.5, (0.5, 3.0))

    assert _returned_types(monkeypatch, riccati, run) == {float}


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


@pytest.mark.parametrize("name", sorted(ESCAPING))
def test_event_location_and_dense_output_share_the_interpolant(monkeypatch, name):
    # The root finder evaluates a step's interpolant on floats, the samples
    # on arrays; both must give the same doubles, or an event root would
    # not be where the returned path crosses the boundary.
    w, init = ESCAPING[name]
    (sol,) = _kernel_solutions(monkeypatch, geodesics, lambda: integrate(w, init, 5.0))
    assert sol.status == 1
    ts, segments = sol.sol._lists
    picked = sorted({0, len(segments) // 2, len(segments) - 1})
    for segment in (segments[k] for k in picked):
        t_old, h = segment[:2]
        for t in (t_old + x * h for x in (0.125, 0.5, 0.875)):
            assert _dop853._segment_at(segment, t) == sol.sol(np.array([t]))[:, 0].tolist()


def _kernel_solutions(monkeypatch, module, run) -> list:
    """Run ``run()``; return the kernel's solution of each solver call in ``module``."""
    sols = []
    kernel = module.solve_ivp

    def recording(*args, **kwargs):
        sols.append(kernel(*args, **kwargs))
        return sols[-1]

    with monkeypatch.context() as m:
        m.setattr(module, "solve_ivp", recording)
        run()
    return sols


def _compensated_sum(iterable, start=0):
    """A sum that rounds once, as the built-in ``sum`` of floats nearly does
    from Python 3.12 on."""
    return start + math.fsum(iterable)


# The solves whose step sequence a different rounding of the stage sums
# would change: README's inward flat ray, the h = r arch and a Riccati
# field that ends on a zero of u.
SUM_SENSITIVE = {
    "one_over_r": (geodesics, lambda: integrate(
        warp_one_over_r(), GeodesicState.from_angle(1.0, 0.0, math.pi), 5.0)),
    "r": (geodesics, lambda: integrate(warp_r(), GeodesicState.from_angle(1.0, 0.0, 1.0), 5.0)),
    "riccati-const": (riccati, lambda: solve_prescribed(
        constant_profile(1.0), 1.0, 0.0, (0.5, 3.0))),
}


@pytest.mark.parametrize("name", sorted(SUM_SENSITIVE))
def test_steps_do_not_depend_on_how_sum_rounds(monkeypatch, name):
    module, run = SUM_SENSITIVE[name]
    plain = _kernel_solutions(monkeypatch, module, run)
    monkeypatch.setattr(_dop853, "sum", _compensated_sum, raising=False)
    compensated = _kernel_solutions(monkeypatch, module, run)
    assert len(plain) == len(compensated) > 0
    for a, b in zip(plain, compensated):
        grid = np.linspace(a.t[0], a.t[-1], 257)
        assert a.nfev == b.nfev
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.sol(grid), b.sol(grid))


def test_rms_sums_left_to_right(monkeypatch):
    # The squares 1 and four times 1e-16 sum to 1 left to right, and to two
    # doubles above 1 rounded once.  The initial step takes this norm.
    monkeypatch.setattr(_dop853, "sum", _compensated_sum, raising=False)
    assert _dop853._rms([1.0] + [1e-8] * 4) == 1.0 / 5**0.5


def _left_sum(products) -> float:
    """The built-in ``sum`` of floats as it rounds up to Python 3.11."""
    total = 0.0
    for p in products:
        total += p
    return total


def _stage_calls(n, t, h, y, ks) -> tuple:
    """Run the generated step functions for an ``n``-component state on the
    stage rows ``ks``; return (stage, node, argument) of each call of ``fun``
    (stage 12's argument is the update ``y_new``), the two error sums and
    the interpolation rows."""
    stages, extra = _dop853._stage_functions(n)
    order = iter(range(1, 16))
    calls = []

    def fun(s, x):
        calls.append((next(order), s, x))
        return ks[calls[-1][0]]

    y_new, f_new, err5, err3, rows = stages(fun, t, h, y, ks[0])
    assert y_new == calls[-1][2] and f_new == ks[12]
    assert list(rows) == [v for row in ks[:13] for v in row]
    return calls, err5, err3, extra(fun, t, h, y, rows)


def _reference_argument(i, h, y, ks) -> list:
    """Stage i's argument by the formula the kernel used before its stages
    were written out: one sum over the full tableau row per component; for
    i = 12 the update through B."""
    a = _dop853.A[i] if i < 12 else _dop853.B if i == 12 else _dop853.A_EXTRA[i - 13]
    return [v + _left_sum(map(mul, a, col)) * h for v, col in zip(y, zip(*ks[:i]))]


def _reference_sums(w, ks) -> list:
    """One left-to-right sum over the full weight row ``w`` per component,
    the order the kernel's closing sums must keep on every BLAS."""
    return [_left_sum(map(mul, w, col)) for col in zip(*ks[:len(w)])]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_stages_are_the_reference_sums(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        t, h = float(rng.normal()), float(rng.uniform(1e-3, 1.0) * rng.choice([-1.0, 1.0]))
        y = rng.normal(size=n).tolist()
        ks = (rng.normal(size=(16, n)) * 10.0 ** rng.integers(-3, 4, size=(16, 1))).tolist()
        calls, err5, err3, dense = _stage_calls(n, t, h, y, ks)
        assert [i for i, _, _ in calls] == list(range(1, 16))
        for i, s, x in calls:
            c = _dop853.C[i] if i < 12 else 1.0 if i == 12 else _dop853.C_EXTRA[i - 13]
            assert s == t + c * h
            assert x == _reference_argument(i, h, y, ks)
        assert err5 == _reference_sums(_dop853.E5, ks)
        assert err3 == _reference_sums(_dop853.E3, ks)
        assert dense == [h * v for d in _dop853.D for v in _reference_sums(d, ks)]


def test_an_infinite_stage_meets_no_zero_coefficient():
    # The reference sums multiply every earlier stage, so an infinite stage 1
    # makes the argument of every later stage whose row has A[s][1] = 0 nan
    # (0.0 * inf).  The generated stage sums and D leave zero entries out:
    # only stage 2, whose coefficient on stage 1 is nonzero, sees the inf,
    # and the interpolation rows stay finite.  The update through B and the
    # error sums keep their zero entries and turn nan, as the reference
    # does, so the kernel rejects such a step.
    y, ks = [0.5, -1.0], np.linspace(-1.0, 1.0, 32).reshape(16, 2).tolist()
    ks[1] = [math.inf, -math.inf]
    calls, err5, err3, dense = _stage_calls(2, 0.0, 0.1, y, ks)
    for i, _, x in calls:
        ref = _reference_argument(i, 0.1, y, ks)
        if i == 2:
            assert x == ref == [math.inf, -math.inf]
        elif i == 12:
            assert all(map(math.isnan, x + ref))
        else:
            assert all(map(math.isfinite, x))
            assert (i == 1) == all(map(math.isfinite, ref))
    assert all(map(math.isnan, err5 + err3))
    assert all(map(math.isfinite, dense))


def test_an_infinite_derivative_ends_the_solve():
    # Past t = 0.5 every stage is inf, so the error estimate is nan and every
    # step across 0.5 is rejected until the step underflows; the last
    # accepted state's derivative is finite, so the message names the step
    # (the suite turns a warning into an error).
    sol = _dop853.solve_ivp(lambda t, y: (math.inf if t > 0.5 else 1.0,), (0.0, 1.0), (0.0,),
                            rtol=1e-6, atol=1e-9)
    assert sol.status == -1 and sol.message == _dop853.TOO_SMALL_STEP
    assert 0.5 - 1e-12 < sol.t[-1] <= 0.5


def test_an_infinite_step_end_derivative_rejects_the_step():
    # Call 14 is f_new of the first attempt (calls 1 and 2 are the initial
    # derivative and the initial step's probe).  E5 and E3 weigh it by zero,
    # and only 0.0 * inf = nan in the error sums rejects that step: without
    # the zero terms it would be accepted with an infinite interpolant.
    calls = []

    def fun(t, y):
        calls.append(t)
        return (math.inf,) if len(calls) == 14 else (-y[0],)

    sol = _dop853.solve_ivp(fun, (0.0, 4.0), (1.0,), rtol=1e-6, atol=1e-9)
    assert (sol.status, sol.nfev, sol.nrej) == (0, 119, 1)
    samples = sol.sol(np.linspace(0.0, 4.0, 33))
    assert np.all(np.isfinite(samples))
    assert np.allclose(samples[0], np.exp(-np.linspace(0.0, 4.0, 33)), rtol=1e-5)


def test_import_compiles_no_stage_code():
    code = "import warpgeo.cli; from warpgeo import _dop853; print(_dop853._STAGE_CODE)"
    assert child_stdout(code) == "{}\n"


def test_nan_initial_step_ends_the_solve():
    # A nan derivative gives a nan initial step, which no comparison with
    # the minimum step rejects.  The solve must stop and name the derivative.
    code = (
        "import math; from warpgeo._dop853 import solve_ivp; "
        "sol = solve_ivp(lambda t, y: (math.nan,), (0.0, 1.0), (1.0,), rtol=1e-6, atol=1e-9); "
        "print(sol.status, sol.message)"
    )
    assert child_stdout(code) == "-1 The derivative is not finite at t = 0.0.\n"


def test_parity_at_tight_tolerances(monkeypatch):
    # Kernel parity at tight tolerances, where the shot whips around a
    # turning radius of 0.14.
    monkeypatch.setattr(geodesics, "RTOL", 1e-12)
    monkeypatch.setattr(geodesics, "ATOL", 1e-14)
    init = FlatGeodesic(r0=1.0, t0=0.0, a=-0.99).initial_state()
    run = lambda: integrate(warp_one_over_r(), init, 3.0)  # noqa: E731
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
