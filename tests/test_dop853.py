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
changed in Python 3.12.  Every derivative is compiled into the step
(:func:`integrate`'s and the Riccati system's), and each step attempt must
give the bits of the call template, which calls the derivative at every
stage.
"""

import math
import warnings
from operator import mul

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate import solve_ivp as scipy_solve_ivp
from test_geodesics import ESCAPING, bits, child_stdout

from warpgeo import (
    CurvatureProfile,
    FlatGeodesic,
    GeodesicState,
    constant_profile,
    geodesics,
    integrate,
    inverse_square_profile,
    make_warp,
    riccati,
    solve_prescribed,
    warp_exp,
    warp_flat,
    warp_neg2,
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
    """Run ``run()``; return (kernel, scipy) solutions of each solver call.

    scipy solves with the stops ``(lo, hi)`` as its terminal events
    ``y[0] - lo`` falling and ``y[0] - hi`` rising, in that order, so it
    locates every root independently (an infinite level gives an event
    that never changes sign).  The
    kernel's solve builds a step's interpolant only for the stop search, as
    scipy does with ``dense_output=False``: scipy's counts come from that
    run, and its dense output from a ``dense_output=True`` run, which takes
    the same steps.
    """
    pairs = []
    kernel = module.solve_ivp

    def both(derivative, args, t_span, y0, *, rtol, atol, stops=(-math.inf, math.inf)):
        sol = kernel(derivative, args, t_span, y0, rtol=rtol, atol=atol, stops=stops)
        events = [lambda t, y, level=level: y[0] - level for level in stops]
        for event, direction in zip(events, (-1, 1)):
            event.terminal, event.direction = True, direction
        fun = _scipy_fun(derivative, args, len(y0))
        ref, dense = (
            scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                            events=events, dense_output=d)
            for d in (False, True)
        )
        assert np.array_equal(ref.t, dense.t) and ref.sol is None
        ref.sol = dense.sol
        pairs.append((sol, ref))
        return sol

    monkeypatch.setattr(module, "solve_ivp", both)
    run()
    assert pairs
    return pairs


def _scipy_fun(derivative, args, n):
    """scipy's ``fun(t, y)`` for the kernel's ``(derivative, args)``: the
    ``call`` of its kernel for ``n`` components."""
    call = _dop853._kernel(derivative, n)[0]
    return lambda t, y: call(args, t, y)


def _close(got, want, tol=TOL) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    )


def _assert_same(sol, ref, same_steps=True):
    # scipy's status is 1 at either terminal event; the kernel's is 1 at
    # the lower stop, the first event, and 2 at the upper one.
    assert sol.status == (2 if ref.status == 1 and ref.t_events[1].size else ref.status)
    if same_steps:
        assert sol.nfev == ref.nfev
        assert len(sol.t) == len(ref.t)
    if ref.status == 1:
        (root,) = np.concatenate(ref.t_events)
        assert _close(sol.t[-1], root)
    grid = np.linspace(ref.t[0], ref.t[-1], 257)
    # Other steps agree only to the solver's accuracy.
    assert _close(sol.sol(grid), ref.sol(grid), TOL if same_steps else 1e-9)


@pytest.mark.parametrize("name", ["one_over_r", "r", "exp", "flat(2,5)", "neg2(1,1,1)"])
def test_ray_per_builtin_warp(monkeypatch, warp_family, name):
    w = warp_family[name]
    init = GeodesicState.from_angle(max(w.domain.lo + 0.5, 0.8) + 0.5, 0.0, 2.0)
    for sol, ref in _with_scipy(monkeypatch, geodesics, lambda: integrate(w, init, 1.5)):
        _assert_same(sol, ref)


def _stage_types(monkeypatch, module, run) -> set:
    """Run ``run()``; return the types of the values that the kernel's
    accepted steps in ``module`` made: each update, the stages it keeps and
    the interpolation rows.  B weighs stages 0-11, zeros included, and D
    stages 12-15, so a numpy scalar in any stage would show here."""
    types = set()
    for sol in _kernel_solutions(monkeypatch, module, run):
        for i, (_, _, _, y_new, ks) in enumerate(sol.sol._steps):
            types.update(map(type, [*y_new, *ks, *sol.sol._rows(i)]))
    return types


@pytest.mark.parametrize("name", ["one_over_r", "r", "exp", "flat(2,5)", "neg2(1,1,1)"])
def test_geodesic_right_hand_side_returns_floats(monkeypatch, warp_family, name):
    # The kernel converts nothing: the stages take the derivative's values
    # as they are, here computed inline in the step.
    w = warp_family[name]
    init = GeodesicState.from_angle(max(w.domain.lo + 0.5, 0.8) + 0.5, 0.0, 2.0)
    assert _stage_types(monkeypatch, geodesics, lambda: integrate(w, init, 1.5)) == {float}


def test_custom_right_hand_side_returns_floats(monkeypatch):
    w, init = ESCAPING["custom-sqrt"]
    assert _stage_types(monkeypatch, geodesics, lambda: integrate(w, init, 5.0)) == {float}


def test_riccati_right_hand_side_returns_floats(monkeypatch):
    # The profile c / r^2 returns np.float64 at the np.float64 radius it
    # gets; the system converts it, on both sides of r0.
    def run():
        solve_prescribed(inverse_square_profile(-2.0), 1.0, 0.5, (0.5, 3.0))

    assert _stage_types(monkeypatch, riccati, run) == {float}


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
    # The root finder evaluates y[0] of the stop's step on floats, and
    # DenseSolution.at and the samples evaluate the whole state; all must
    # give the same doubles, or an event root would not be where the
    # returned path crosses the boundary.
    w, init = ESCAPING[name]
    level = geodesics._levels(w.domain.lo, init.r)[0]
    iterates, brentq = [], _dop853.brentq

    def recording(f, a, b, **kwargs):
        def g(s):
            iterates.append((s, f(s)))
            return iterates[-1][1]
        return brentq(g, a, b, **kwargs)

    monkeypatch.setattr(_dop853, "brentq", recording)
    (sol,) = _kernel_solutions(monkeypatch, geodesics, lambda: integrate(w, init, 5.0))
    assert sol.status == 1 and len(iterates) > 2
    for s, value in iterates:
        assert value == sol.sol.at(s)[0] - level
        assert value == sol.sol(np.array([s]))[0, 0] - level


@pytest.mark.parametrize("name", sorted(ESCAPING))
def test_one_sample_on_floats_is_the_array_call(monkeypatch, name):
    # DenseSolution.at picks the segment by the same rule as a call and
    # evaluates it on floats, to the same doubles: on the step ends, inside
    # a step and outside the span.
    w, init = ESCAPING[name]
    (sol,) = _kernel_solutions(monkeypatch, geodesics, lambda: integrate(w, init, 5.0))
    ts = sol.t
    for t in [*ts, 0.5 * (ts[0] + ts[1]), ts[0] - 1.0, ts[-1] + 1.0]:
        want = sol.sol(np.array([t]))[:, 0].tolist()
        assert [x.hex() for x in sol.sol.at(t)] == [x.hex() for x in want]


def _oscillator(event: bool):
    """u'' = -u from u = -1, u' = 0 over (0, 12), stopped where u first
    falls through -0.99 (near t = 2 pi) when ``event``, with status 1."""
    stops = (-0.99 if event else -math.inf, math.inf)
    return _dop853.solve_ivp(_dop853.CALL, lambda t, y: (y[1], -y[0]), (0.0, 12.0), (-1.0, 0.0),
                             rtol=1e-7, atol=1e-9, stops=stops)


@pytest.mark.parametrize("event", [False, True])
def test_dense_reads_in_parts_are_one_read(event):
    # Samples on every step end, inside every step and outside the span,
    # read in several calls that each build other steps, and with a step
    # built by `at` after the arrays exist, give the bits of one call on a
    # fresh solution and of `at`.  Each step costs 3 evaluations, once; the
    # step the event search built costs none.
    sol = _oscillator(event)
    ts, steps = sol.t, len(sol.t) - 1
    assert steps > 8 and sol.status == (1 if event else 0)
    inner = [a + x * (b - a) for a, b in zip(ts[:-1], ts[1:]) for x in (0.25, 0.5, 0.75)]
    samples = np.array([ts[0] - 1.0, *ts, *inner, ts[-1] + 1.0])
    by_step = np.clip(np.searchsorted(ts, samples) - 1, 0, steps - 1)
    prebuilt = {steps - 1} if event else set()

    fresh = _oscillator(event)
    whole = fresh.sol(samples)
    assert fresh.sol.nfev == 3 * (steps - len(prebuilt))

    dense, parts, built = sol.sol, np.empty_like(whole), set(prebuilt)
    assert dense.nfev == 0
    first, late = by_step < steps // 3, steps // 2
    parts[:, first] = dense(samples[first])  # makes the arrays
    built.update(by_step[first].tolist())
    assert dense.nfev == 3 * len(built - prebuilt)
    dense.at(float(samples[by_step == late][0]))  # a step the arrays lack
    built.add(late)
    assert dense.nfev == 3 * len(built - prebuilt)
    for group in (by_step == late, by_step >= steps // 3, by_step >= 0):
        parts[:, group] = dense(samples[group])
        built.update(by_step[group].tolist())
        assert dense.nfev == 3 * len(built - prebuilt)
    assert len(built) == steps
    assert bits(parts.tolist()) == bits(whole.tolist())
    assert bits([dense.at(t) for t in samples.tolist()]) == bits(whole.T.tolist())
    assert dense.nfev == 3 * (steps - len(prebuilt))


# stops: (status, root) for u = cos t, the solution of u'' = -u from u = 1,
# u' = 0 over (0, 12), whose stop root is sol.t[-1].
STOP_CASES = {
    "lower": ((0.5, math.inf), 1, math.pi / 3),
    "upper": ((-math.inf, 0.99), 2, 2 * math.pi - math.acos(0.99)),
    "both": ((-0.5, 0.9), 1, 2 * math.pi / 3),
    # u falls through 0.5 first, which the upper level does not test.
    "start-beyond-upper": ((-math.inf, 0.5), 2, 5 * math.pi / 3),
    "start-beyond-both": ((2.0, -2.0), 0, 12.0),
    "start-on-lower": ((1.0, math.inf), 1, 0.0),
}


@pytest.mark.parametrize("name", sorted(STOP_CASES))
def test_stops_are_scipys_directed_terminal_events(monkeypatch, name):
    # scipy solves with the stops as its events (see _with_scipy), and its
    # roots and status must be the kernel's.
    stops, status, root = STOP_CASES[name]

    def run():
        _dop853.solve_ivp(_dop853.CALL, lambda t, y: (y[1], -y[0]), (0.0, 12.0), (1.0, 0.0),
                          rtol=1e-10, atol=1e-12, stops=stops)

    ((sol, ref),) = _with_scipy(monkeypatch, _dop853, run)
    _assert_same(sol, ref)
    assert sol.status == status
    assert sol.t[-1] == pytest.approx(root, abs=1e-9)


def test_step_on_both_levels_stops_at_its_start():
    # y[0] stays on lo == hi, so the first step both falls and rises
    # through the one level: it stops at its start, with status 1.
    sol = _dop853.solve_ivp(_dop853.CALL, lambda t, y: (0.0, 1.0), (0.0, 1.0), (0.5, 0.0),
                            rtol=1e-10, atol=1e-12, stops=(0.5, 0.5))
    assert sol.status == 1
    assert sol.t == [0.0, 0.0]


def test_root_on_the_previous_step_end_adds_no_segment():
    # u = -cos t rises to its largest step end v and falls after it.  With
    # v as the lower stop, the step after it falls through v at its start,
    # which is the last entry of t already.
    def solve(stops):
        return _dop853.solve_ivp(_dop853.CALL, lambda t, y: (y[1], -y[0]), (0.0, 6.0),
                                 (-1.0, 0.0), rtol=1e-10, atol=1e-12, stops=stops)

    free = solve((-math.inf, math.inf))
    ends = [step[3][0] for step in free.sol._steps]
    k = max(range(len(ends)), key=ends.__getitem__)
    assert 0 < k < len(ends) - 1
    sol = solve((ends[k], math.inf))
    assert sol.status == 1
    assert sol.t == free.t[:k + 2]  # no repeated t
    assert sol.t[-1] == free.t[k + 1]


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


# The tolerances of the error norm in _stage_calls.
RTOL, ATOL = 1e-3, 1e-6


def _stage_calls(n, t, h, y, ks) -> tuple:
    """Run the call template's step functions for an ``n``-component state
    on the stage rows ``ks``; return (stage, node, argument) of each call of
    ``fun`` (stage 12's argument is the update ``y_new``), the update, the
    error norm and the interpolation rows through D.  The three rows before
    them, from the step's ends, must be the kernel's list formulas, nan for
    nan."""
    _, stages, extra = _dop853._kernel(_dop853.CALL, n)
    order = iter(range(1, 16))
    calls = []

    def fun(s, x):
        calls.append((next(order), s, x))
        return ks[calls[-1][0]]

    y_new, f_new, err, rows = stages(fun, t, h, y, ks[0], RTOL, ATOL)
    assert y_new == calls[-1][2] and f_new == ks[12]
    assert list(rows) == [v for s in (0, *range(5, 13)) for v in ks[s]]
    dense = extra(fun, t, h, y, y_new, rows)
    dy = [w - v for v, w in zip(y, y_new)]
    ends = dy + [h * fo - d for fo, d in zip(ks[0], dy)]
    ends += [2 * d - h * (fn + fo) for d, fn, fo in zip(dy, ks[12], ks[0])]
    np.testing.assert_array_equal(dense[:3 * n], ends)
    return calls, y_new, err, dense[3 * n:]


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


def _reference_norm(h, y, y_new, ks) -> float:
    """The error norm as :func:`solve_ivp` computed it per component before
    the kernel generated it, from the reference sums through E5 and E3."""
    e5 = e3 = 0.0
    for v, w, x5, x3 in zip(y, y_new, _reference_sums(_dop853.E5, ks),
                            _reference_sums(_dop853.E3, ks)):
        v, w = abs(v), abs(w)
        scale = ATOL + (w if w > v or w != w else v) * RTOL  # nan-propagating max
        x5 /= scale
        x3 /= scale
        e5 += x5 * x5
        e3 += x3 * x3
    if e5 == 0 and e3 == 0:
        return 0.0
    n5, n3 = math.sqrt(e5), math.sqrt(e3)
    n5, n3 = n5 * n5, n3 * n3
    denom = math.sqrt((n5 + 0.01 * n3) * len(y))
    return h * n5 / denom if denom else math.nan


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_stages_are_the_reference_sums(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        t, h = float(rng.normal()), float(rng.uniform(1e-3, 1.0) * rng.choice([-1.0, 1.0]))
        y = rng.normal(size=n).tolist()
        ks = (rng.normal(size=(16, n)) * 10.0 ** rng.integers(-3, 4, size=(16, 1))).tolist()
        calls, y_new, err, dense = _stage_calls(n, t, h, y, ks)
        assert [i for i, _, _ in calls] == list(range(1, 16))
        for i, s, x in calls:
            c = _dop853.C[i] if i < 12 else 1.0 if i == 12 else _dop853.C_EXTRA[i - 13]
            assert s == t + c * h
            assert x == _reference_argument(i, h, y, ks)
        assert err == _reference_norm(h, y, y_new, ks)
        assert dense == [h * v for d in _dop853.D for v in _reference_sums(d, ks)]


# name: a warp whose geodesic derivative the kernel compiles into its step.
# At r = 1, neg2(1, 0, 1e-300) divides by zero in h' on floats (the clamp
# takes numpy's inf); e^r at r = 750 and r^1.5 at r < 0 make h h' not finite.
INLINE = {
    "one_over_r": warp_one_over_r(),
    "r": warp_r(),
    "exp": warp_exp(),
    "flat(2,5)": warp_flat(2.0, 5.0),
    "neg2(1,1,1)": warp_neg2(1.0, 1.0, 1.0),
    "neg2(1,0,1e-300)": warp_neg2(1.0, 0.0, 1e-300),
    **{name: w for name, (w, _) in ESCAPING.items() if name.startswith("custom")},
}


class _Captured(Exception):
    pass


def _geodesic_rhs(monkeypatch, w):
    """The derivative and args that :func:`integrate` hands the solver for ``w``."""
    def capture(derivative, args, *rest, **kwargs):
        raise _Captured(derivative, args)

    init = GeodesicState.from_angle(max(w.domain.lo, 0.0) + 1.0, 0.0, 2.0)
    with monkeypatch.context() as m, pytest.raises(_Captured) as captured:
        m.setattr(geodesics, "solve_ivp", capture)
        integrate(w, init, 5.0)
    return captured.value.args


@pytest.mark.parametrize("name", sorted(INLINE))
def test_inline_derivative_is_the_call_template(monkeypatch, name):
    # The step attempt and interpolation rows of the kernel that runs the
    # geodesic derivative inline against those of the call template, which
    # calls it at every stage, on the kernel's own tolerances.  With h = 0
    # every stage falls on the start's radius: the clamp's range ends
    # exactly, a double off either end, the domain's edges, r <= 0.  The
    # template's stage values are Python floats, and the bits agree, so the
    # inline stages' are too.
    derivative, args = _geodesic_rhs(monkeypatch, INLINE[name])
    _, lo, hi = args[:3]
    radii = {0.0, -0.5, 1.0, 750.0}
    for edge in (lo, hi, INLINE[name].domain.lo, INLINE[name].domain.hi):
        if math.isfinite(edge):
            radii |= {edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)}
    rng = np.random.default_rng(sorted(INLINE).index(name))
    states = [([r, 0.0, -1.0], 0.0) for r in sorted(radii)]
    states += [([r, float(rng.normal()), float(rng.uniform(-1.0, 1.0))], h)
               for r in sorted(radii) + rng.uniform(-0.5, 6.0, size=8).tolist()
               for h in rng.uniform(1e-4, 0.5, size=2).tolist()]
    call, stages, extra = _dop853._kernel(derivative, 3)
    _, template, template_extra = _dop853._kernel(_dop853.CALL, 3)
    values = []

    def fun(s, x):
        out = call(args, s, x)
        values.extend(out)
        return out

    with np.errstate(all="ignore"):  # as integrate solves
        for y, h in states:
            t, f = float(rng.normal()), call(args, 0.0, y)
            inline = stages(args, t, h, y, f, geodesics.RTOL, geodesics.ATOL)
            called = template(fun, t, h, y, f, geodesics.RTOL, geodesics.ATOL)
            assert bits(inline) == bits(called), (y, h)
            assert bits(extra(args, t, h, y, inline[0], inline[3])) == bits(
                template_extra(fun, t, h, y, called[0], called[3])), (y, h)
    assert {type(v) for v in values} == {float}
    assert len(values) == 3 * 15 * len(states)


@pytest.mark.parametrize("spec", ["one_over_r", "r", "flat:2,5", "flat:-1,0", "flat:-0.5,-3",
                                  "neg2:1,1,1", "neg2:2,1,0.5", "neg2:1,2,-0.25"])
def test_inline_warp_is_warp_py(monkeypatch, spec):
    # A plain-arithmetic family spells out h and h' in the kernel's source.
    # Inside the clamp's range, wherever warp.py's h h' is finite, the
    # derivative must be (f, b h^2, -b^2 h h') from warp.py's evaluators,
    # bit for bit, for each parameter set.
    w = make_warp(spec)
    derivative, args = _geodesic_rhs(monkeypatch, w)
    call = _dop853._kernel(derivative, 3)[0]
    b, lo, hi = args[:3]
    rng = np.random.default_rng(len(spec))
    top = min(w.domain.hi, 50.0)
    radii = np.concatenate([rng.uniform(w.domain.lo, top, 200),
                            w.domain.lo + np.geomspace(1e-9, 1.0, 50) * (top - w.domain.lo)])
    checked = 0
    for r in radii.tolist():
        try:
            hr, dhr = w._h(r), w._dh(r)
        except ZeroDivisionError:  # at a pole
            continue
        if lo <= r <= hi and math.isfinite(hr * dhr):
            f = float(rng.uniform(-1.0, 1.0))
            want = (f, b * hr * hr, -b * b * hr * dhr)
            assert bits(call(args, 0.0, [r, 0.0, f])) == bits(want), r
            checked += 1
    assert checked > 200


# Bodies that scale and negate the substituted time and components: the
# params' values (one name takes its value as it is, and none), the plain
# callable the body computes and the exact state at t = 1 from (1, 1).
SCALING = {
    "one-param": (_dop853.Derivative("c", "{out} = c * {y[0]}, {t} * {y[1]}"), -2.0,
                  lambda t, y: (-2.0 * y[0], t * y[1]), (math.exp(-2.0), math.exp(0.5))),
    "no-param": (_dop853.Derivative("", "{out} = -{y[0]}, 2.0 * {t} * {y[1]}"), None,
                 lambda t, y: (-y[0], 2.0 * t * y[1]), (math.exp(-1.0), math.e)),
}


@pytest.mark.parametrize("name", SCALING)
def test_scaled_substitutions_are_the_call_template(name):
    # The stage time t + c h and the components y_j + (...) h are
    # substituted in parentheses, so an inline body that scales or negates
    # them computes its operations on the whole expression.  Each step
    # attempt and interpolant must give the bits of the call template, and
    # the solve those of the plain callable.
    derivative, args, fun, exact = SCALING[name]
    call, stages, extra = _dop853._kernel(derivative, 2)
    _, template, template_extra = _dop853._kernel(_dop853.CALL, 2)
    rng = np.random.default_rng(sorted(SCALING).index(name))
    for _ in range(20):
        t, h, y = float(rng.normal()), float(rng.uniform(1e-3, 0.5)), rng.normal(size=2).tolist()
        f = call(args, t, y)
        assert bits(f) == bits(fun(t, y))
        inline = stages(args, t, h, y, f, RTOL, ATOL)
        called = template(fun, t, h, y, f, RTOL, ATOL)
        assert bits(inline) == bits(called), (t, h, y)
        assert bits(extra(args, t, h, y, inline[0], inline[3])) == bits(
            template_extra(fun, t, h, y, called[0], called[3])), (t, h, y)
    sol, ref = (_dop853.solve_ivp(d, a, (0.0, 1.0), (1.0, 1.0), rtol=1e-8, atol=1e-10)
                for d, a in ((derivative, args), (_dop853.CALL, fun)))
    assert (sol.t, sol.nfev, sol.nrej) == (ref.t, ref.nfev, ref.nrej)
    assert bits(sol.sol.at(1.0)) == bits(ref.sol.at(1.0))
    assert sol.sol.at(1.0) == pytest.approx(exact, rel=1e-7)


# name: a curvature profile whose Riccati system the kernel compiles into its
# step.  The constant returns a Python float, c / r^2 and -sin r return
# np.float64 at the np.float64 radius they get.
RICCATI = {
    "constant": constant_profile(1.0),
    "inverse-square": inverse_square_profile(-2.0),
    "sin": CurvatureProfile(f=lambda r: -np.sin(r)),
}


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("name", sorted(RICCATI))
def test_riccati_system_is_the_call_template(name, sign):
    # The system riccati._integrate_side compiles, against the closure
    # (sign * y[1], -sign * fx(sign * x) * y[0]) called at every stage by the
    # call template: the same operations in the same order, in x = sign * r
    # on either side of r0.  Each step attempt and interpolant must give the
    # same bits, and the solve those of the closure's.
    fx = riccati.on_float64(RICCATI[name].f)
    args = (sign, fx)
    call, stages, extra = _dop853._kernel(riccati._SIDE, 2)
    _, template, template_extra = _dop853._kernel(_dop853.CALL, 2)
    values = []

    def fun(x, y):
        out = (sign * y[1], -sign * fx(sign * x) * y[0])
        values.extend(out)
        return out

    rng = np.random.default_rng(sorted(RICCATI).index(name))
    for _ in range(20):
        t, h = sign * float(rng.uniform(0.6, 4.0)), float(rng.uniform(1e-4, 0.5))
        y = (rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)).tolist()
        f = call(args, t, y)
        assert bits(f) == bits(fun(t, y))
        inline = stages(args, t, h, y, f, riccati.RTOL, 1e-10)
        called = template(fun, t, h, y, f, riccati.RTOL, 1e-10)
        assert bits(inline) == bits(called), (t, h, y)
        assert bits(extra(args, t, h, y, inline[0], inline[3])) == bits(
            template_extra(fun, t, h, y, called[0], called[3])), (t, h, y)
    assert {type(v) for v in values} == {float}
    span = (sign * 1.5, 3.0 if sign > 0 else -0.5)
    sol, ref = (_dop853.solve_ivp(d, a, span, (1.0, -0.3), rtol=riccati.RTOL, atol=1e-10,
                                  stops=(0.0, math.inf))
                for d, a in ((riccati._SIDE, args), (_dop853.CALL, fun)))
    assert (sol.status, sol.t, sol.nfev, sol.nrej) == (ref.status, ref.t, ref.nfev, ref.nrej)
    samples = np.linspace(span[0], sol.t[-1], 33)
    assert bits(sol.sol(samples).tolist()) == bits(ref.sol(samples).tolist())


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
    calls, _, err, dense = _stage_calls(2, 0.0, 0.1, y, ks)
    for i, _, x in calls:
        ref = _reference_argument(i, 0.1, y, ks)
        if i == 2:
            assert x == ref == [math.inf, -math.inf]
        elif i == 12:
            assert all(map(math.isnan, x + ref))
        else:
            assert all(map(math.isfinite, x))
            assert (i == 1) == all(map(math.isfinite, ref))
    assert math.isnan(err)
    assert all(map(math.isfinite, dense))


def test_an_infinite_derivative_ends_the_solve():
    # Past t = 0.5 every stage is inf, so the error estimate is nan and every
    # step across 0.5 is rejected until the step underflows; the last
    # accepted state's derivative is finite, so the message names the step
    # (the suite turns a warning into an error).
    sol = _dop853.solve_ivp(_dop853.CALL, lambda t, y: (math.inf if t > 0.5 else 1.0,),
                            (0.0, 1.0), (0.0,), rtol=1e-6, atol=1e-9)
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

    sol = _dop853.solve_ivp(_dop853.CALL, fun, (0.0, 4.0), (1.0,), rtol=1e-6, atol=1e-9)
    assert (sol.status, sol.nfev, sol.nrej) == (0, 98, 1)
    samples = sol.sol(np.linspace(0.0, 4.0, 33))
    assert np.all(np.isfinite(samples))
    assert np.allclose(samples[0], np.exp(-np.linspace(0.0, 4.0, 33)), rtol=1e-5)


def test_interpolants_built_later_run_under_the_readers_errstate():
    # Every evaluation of fun overflows in numpy.  The solve runs where that
    # is ignored.  A later read builds its interpolants under the errstate
    # of its reader: it warns outside one that ignores the overflow and is
    # silent inside one.
    def fun(t, y):
        return (-y[0] if np.isinf(np.exp(np.float64(1000.0))) else 0.0,)

    with np.errstate(over="ignore"):
        sol = _dop853.solve_ivp(_dop853.CALL, fun, (0.0, 2.0), (1.0,), rtol=1e-6, atol=1e-9)
    steps = len(sol.t) - 1
    assert steps > 1
    assert sol.nfev == 2 + 12 * (steps + sol.nrej) and sol.sol.nfev == 0
    with pytest.warns(RuntimeWarning, match="overflow"):
        first = sol.sol.at(sol.t[1])
    assert sol.sol.nfev == 3
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = sol.sol(sol.t)
    assert samples[0, 1] == first[0]
    assert np.allclose(samples[0], np.exp(-np.array(sol.t)), rtol=1e-5)
    assert sol.sol.nfev == 3 * steps


@pytest.mark.parametrize("t_span", [(1.0, 0.5), (1.0, 1.0)])
def test_span_must_run_forward(t_span):
    with pytest.raises(ValueError, match="t_span must run forward"):
        _dop853.solve_ivp(_dop853.CALL, lambda t, y: (-y[0],), t_span, (1.0,), rtol=1e-6,
                          atol=1e-9)


def test_import_compiles_no_stage_code():
    code = "import warpgeo.cli; from warpgeo import _dop853; print(_dop853._KERNELS)"
    assert child_stdout(code) == "{}\n"


def test_one_flat_connect_compiles_one_kernel():
    # Each process compiles the geodesic system's kernel for h = 1/r once,
    # for its three components, and no other.
    code = (
        "import contextlib, io, warpgeo.cli; from warpgeo import _dop853, geodesics\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    warpgeo.cli.main(['connect', '1,0', '1,1.5707963267948966'])\n"
        "print([(d == geodesics._DERIVATIVES['one_over_r'], n) for d, n in _dop853._KERNELS])"
    )
    assert child_stdout(code) == "[(True, 3)]\n"


def test_each_family_compiles_one_kernel():
    # The built-in families take their parameters as kernel params, so
    # integrating each, with two parameter sets where it has parameters, in
    # three directions compiles one kernel per family and no other.
    code = (
        "from warpgeo import GeodesicState, _dop853, geodesics, integrate, make_warp\n"
        "for spec in ('one_over_r', 'r', 'exp', 'flat:2,5', 'flat:-1,0', 'neg2:1,1,1',\n"
        "             'neg2:2,1,0.5'):\n"
        "    w = make_warp(spec)\n"
        "    for angle in (0.5, 2.0, 3.5):\n"
        "        integrate(w, GeodesicState.from_angle(1.0, 0.0, angle), 2.0)\n"
        "names = {d: kind for kind, d in geodesics._DERIVATIVES.items()}\n"
        "print(sorted((names.get(d, 'other'), n) for d, n in _dop853._KERNELS))"
    )
    assert child_stdout(code) == (
        "[('exp', 3), ('flat', 3), ('neg2', 3), ('one_over_r', 3), ('r', 3)]\n"
    )


def test_riccati_compiles_one_kernel():
    # Three profiles, each solved on both sides of r0, share one system:
    # one kernel for its two components, and no other.
    code = (
        "import numpy as np\n"
        "from warpgeo import CurvatureProfile, _dop853, constant_profile, riccati\n"
        "from warpgeo import inverse_square_profile, solve_prescribed\n"
        "for profile in (constant_profile(1.0), inverse_square_profile(-2.0),\n"
        "                CurvatureProfile(f=lambda r: -np.sin(r))):\n"
        "    solve_prescribed(profile, 1.0, 0.3, (0.5, 3.0))\n"
        "print([(d == riccati._SIDE, n) for d, n in _dop853._KERNELS])"
    )
    assert child_stdout(code) == "[(True, 2)]\n"


def test_nan_initial_step_ends_the_solve():
    # A nan derivative gives a nan initial step, which no comparison with
    # the minimum step rejects.  The solve must stop and name the derivative.
    code = (
        "import math; from warpgeo._dop853 import CALL, solve_ivp; "
        "sol = solve_ivp(CALL, lambda t, y: (math.nan,), (0.0, 1.0), (1.0,), rtol=1e-6, "
        "atol=1e-9); "
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
        assert ref.nfev > 2 + 12 * (len(ref.t) - 1)  # some steps were rejected
        _assert_same(sol, ref)


def test_riccati_backward_side(monkeypatch):
    # The backward side is solved forward in x = -r.
    run = lambda: solve_prescribed(constant_profile(-0.5), 2.0, 0.3, (1.0, 4.0))  # noqa: E731
    back, fwd = _with_scipy(monkeypatch, riccati, run)
    assert back[1].t[-1] == -1.0 and fwd[1].t[-1] == 4.0
    for sol, ref in (back, fwd):
        _assert_same(sol, ref)


def test_riccati_side_ending_on_zero_of_u(monkeypatch):
    # u = cos(r - 1) vanishes at 1 + pi/2.
    run = lambda: solve_prescribed(constant_profile(1.0), 1.0, 0.0, (0.5, 3.0))  # noqa: E731
    _, (sol, ref) = _with_scipy(monkeypatch, riccati, run)
    assert ref.status == 1
    assert ref.t_events[0][0] == pytest.approx(1.0 + math.pi / 2, abs=1e-9)
    _assert_same(sol, ref)
