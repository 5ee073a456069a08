import math
import sys
import warnings

import numpy as np
import pytest
from conftest import run_child

from warpgeo import (
    DomainError,
    FlatGeodesic,
    GeodesicPath,
    GeodesicState,
    IntegrationStats,
    Neg2Geodesic,
    Point,
    connect_flat,
    connect_neg2,
    escape_length,
    integrate,
    path_length,
    path_length_quadrature,
    transverse_unit_b_form,
    warp_custom,
    warp_exp,
    warp_flat,
    warp_neg2,
    warp_one_over_r,
    warp_r,
)
from warpgeo import _dop853, geodesics, warp


def child_stdout(code: str) -> str:
    """What a fresh interpreter running ``code`` prints."""
    return run_child([sys.executable, "-c", code], text=True).stdout


def bits(value):
    """``value`` with each number spelled as its type and its hex digits,
    nested as it is: equal only when every number has the same type and
    bits (nan for nan)."""
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return type(value).__name__, float(value).hex()


class TestIntegrate:
    def test_inward_ray_escapes_with_unit_length(self, flat_warp):
        path = integrate(flat_warp, GeodesicState(1.0, 0.0, -1.0, 0.0), 5.0)
        assert path.escaped
        assert path.total_length == pytest.approx(1.0, abs=1e-6)

    def test_vertical_shot_endpoint(self, flat_warp):
        path = integrate(flat_warp, GeodesicState(1.0, 0.0, 0.0, 1.0), 1.0)
        end = path.endpoint
        assert end.r == pytest.approx(math.sqrt(2.0), abs=1e-8)
        assert end.t == pytest.approx(math.pi / 4.0, abs=1e-8)

    def test_horizontal_ray_never_escapes_upward(self, neg2_warp):
        path = integrate(neg2_warp, GeodesicState(1.0, 0.0, 1.0, 0.0), 3.0)
        assert not path.escaped
        end = path.endpoint
        assert end.r == pytest.approx(4.0, abs=1e-10)
        assert end.t == 0.0

    @pytest.mark.parametrize("components, message", [
        ((0.0, 0.0, 1.0, 0.0), "geodesic state requires r > 0, got 0.0"),
        ((math.inf, 0.0, 1.0, 0.0), "geodesic state requires r > 0, got inf"),
        ((1.0, math.nan, 1.0, 0.0), "geodesic state components must be finite"),
        ((1.0, 0.0, 1.0, -math.inf), "geodesic state components must be finite"),
    ])
    def test_invalid_state_rejected(self, components, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GeodesicState(*components)

    def test_rejects_non_unit_speed(self, flat_warp):
        with pytest.raises(ValueError, match="unit speed"):
            integrate(flat_warp, GeodesicState(1.0, 0.0, 1.0, 0.5), 1.0)

    def test_rejects_non_positive_span(self, flat_warp):
        with pytest.raises(ValueError):
            integrate(flat_warp, GeodesicState(1.0, 0.0, 1.0, 0.0), 0.0)

    @pytest.mark.parametrize("s_max", [math.inf, math.nan])
    def test_rejects_non_finite_span(self, flat_warp, s_max):
        with pytest.raises(ValueError, match="^s_max must be finite$"):
            integrate(flat_warp, GeodesicState(1.0, 0.0, 1.0, 0.0), s_max)

    @pytest.mark.parametrize("n_samples", [0, 1, -3, 2.7, 2.0, True, "5", None])
    def test_rejects_sample_count_below_two_or_not_integer(self, flat_warp, n_samples):
        # These were read as 2 samples (or raised a TypeError).
        with pytest.raises(ValueError, match="^n_samples must be an integer >= 2, got "):
            integrate(flat_warp, GeodesicState(1.0, 0.0, 1.0, 0.0), 1.0, n_samples=n_samples)

    def test_numpy_integer_sample_count(self, flat_warp):
        init = GeodesicState(1.0, 0.0, 1.0, 0.0)
        got = integrate(flat_warp, init, 1.0, n_samples=np.int64(5))
        want = integrate(flat_warp, init, 1.0, n_samples=5)
        assert got.s.size == 5
        for name in "srtfg":
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_unit_speed_drift(self, flat_warp, rng):
        for _ in range(5):
            ang = rng.uniform(0.0, math.pi)
            path = integrate(flat_warp, GeodesicState.from_angle(1.0, 0.0, ang), 3.0)
            drift = np.abs(path.f**2 + path.g**2 - 1.0)
            assert drift.max() <= 1e-9

    def test_clairaut_first_integral(self, warp_family, rng):
        # g / h(r) is conserved along every geodesic of every warp.
        for w in warp_family.values():
            lo = max(w.domain.lo + 0.5, 0.8)
            ang = rng.uniform(0.2, math.pi - 0.2)
            init = GeodesicState.from_angle(lo + 0.5, 0.0, ang)
            path = integrate(w, init, 1.5)
            ratio = path.g / np.asarray(w.h(np.maximum(path.r, w.domain.lo + 1e-9)))
            ratio = ratio / ratio[0]
            assert np.max(np.abs(ratio - 1.0)) < 1e-8

    def test_straight_rays_for_every_warp(self, warp_family):
        for w in warp_family.values():
            r0 = max(w.domain.lo + 0.4, 0.5)
            path = integrate(w, GeodesicState(r0, 1.3, 1.0, 0.0), 0.8)
            assert np.all(path.t == 1.3)
            assert np.max(np.abs(path.r - (r0 + path.s))) < 1e-9

    @pytest.mark.parametrize("g0", [math.sin(math.pi), 1e-13])
    def test_near_radial_escape_keeps_transverse_sweep(self, flat_warp, g0):
        # h = 1/r: the ray passes the origin at distance p = |g0| and sweeps
        # asin(p/r) - asin(p/r0); t' = b/r^2 grows 1e20-fold on the way in,
        # a layer a step through the pole of 1/r at r = 0 would skip.
        init = GeodesicState(1.0, 0.0, -math.sqrt(1.0 - g0 * g0), g0)
        path = integrate(flat_warp, init, 5.0)
        assert path.escaped
        sweep = math.asin(g0 / path.r[-1]) - math.asin(g0)
        assert sweep > 1e-6
        assert abs(path.t[-1] - sweep) <= 1e-9

    def test_escape_at_upper_boundary(self):
        w = warp_flat(1.0, 5.0)  # domain (0, 5)
        path = integrate(w, GeodesicState(4.0, 0.0, 1.0, 0.0), 5.0)
        assert path.escaped
        assert path.total_length == pytest.approx(1.0, abs=1e-6)

    def test_escape_next_to_a_large_pole_returns(self):
        # At 1e9 the spacing of doubles (1.2e-7) exceeds ESCAPE_MARGIN, so
        # the escape stops 8 spacings short of the pole.  It runs in a child
        # process, where a hang fails the test.
        code = (
            "from warpgeo import GeodesicState, integrate, warp_flat; "
            "p = integrate(warp_flat(1.0, 1e9), GeodesicState(1e9 - 1.0, 0.0, 1.0, 0.0), 5.0); "
            "print(p.stats.stop, p.r[-1] < 1e9, p.total_length)"
        )
        stop, inside, length = child_stdout(code).split()
        assert (stop, inside) == ("escaped_upper", "True")
        assert float(length) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("edge", [0.0, 5.0, 65535.99, math.inf])
    def test_small_and_infinite_edges_keep_escape_margin(self, edge):
        # Every warp of README, the demos and the benchmark has such edges,
        # so their escapes keep their bits.
        assert geodesics._margin(edge) == geodesics.ESCAPE_MARGIN
        assert geodesics._margin(65536.0) > geodesics.ESCAPE_MARGIN


def _record_solutions(monkeypatch) -> list:
    """Keep every solver solution that ``integrate`` obtains."""
    sols = []

    def recording(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    real = geodesics.solve_ivp
    monkeypatch.setattr(geodesics, "solve_ivp", recording)
    return sols


class TestIntegrationStats:
    def test_neg2_escape(self, monkeypatch, neg2_warp):
        sols = _record_solutions(monkeypatch)
        init = GeodesicState.from_angle(1.0, 0.0, 1.0)
        path = integrate(neg2_warp, init, 5.0)
        st = path.stats
        assert isinstance(st, IntegrationStats)
        assert st.rhs_evals == sols[0].nfev + sols[0].sol.nfev
        assert st.accepted_steps == len(sols[0].t) - 1
        # The four-component system needed 785 evaluations for this ray.
        assert st.rhs_evals <= 200
        assert st.stop == "escaped_lower" and path.escaped
        b = init.g / 1.0
        drift = np.abs(path.f**2 + (b * path.r) ** 2 - 1.0)
        assert st.max_speed_drift == float(drift.max())
        assert 0.0 < st.max_speed_drift <= 1e-9

    def test_flat_full_span(self, monkeypatch, flat_warp):
        sols = _record_solutions(monkeypatch)
        path = integrate(flat_warp, GeodesicState.from_angle(1.0, 0.0, 2.0), 5.0)
        st = path.stats
        assert st.rhs_evals == sols[0].nfev + sols[0].sol.nfev
        assert st.accepted_steps == len(sols[0].t) - 1 > 0
        assert st.stop == "s_max" and not path.escaped and path.total_length == 5.0
        drift = np.abs(path.f**2 + path.g**2 - 1.0)
        assert st.max_speed_drift == float(drift.max())
        assert 0.0 < st.max_speed_drift <= 1e-9

    def test_counts_add_up_without_rejections(self, neg2_warp):
        # Two evaluations start the solve (f0 and the initial step); an
        # accepted step costs 12 stages and 3 for its interpolant, which
        # every step of this path builds (each holds a sample), a rejected
        # attempt 12.
        st = integrate(neg2_warp, GeodesicState.from_angle(1.0, 0.0, 1.0), 5.0).stats
        assert (st.rhs_evals, st.accepted_steps, st.rejected_steps) == (152, 10, 0)

    def test_counts_add_up_with_rejections(self):
        st = connect_flat(Point(1.0, 0.0), Point(1.0, math.pi / 2)).path.stats
        assert st.rejected_steps > 0
        assert st.rhs_evals == 2 + 15 * st.accepted_steps + 12 * st.rejected_steps

    def test_upper_escape(self):
        path = integrate(warp_flat(1.0, 5.0), GeodesicState(4.0, 0.0, 1.0, 0.0), 5.0)
        assert path.stats.stop == "escaped_upper"

    def test_momentum_exact_by_construction(self, warp_family):
        for w in warp_family.values():
            init = GeodesicState.from_angle(1.0, 0.0, 2.0)
            path = integrate(w, init, 1.5)
            assert np.array_equal(path.g, init.g / w.h(1.0) * np.asarray(w.h(path.r)))


class TestTwoSamplePath:
    @pytest.mark.parametrize("name", ["one_over_r", "r", "flat(2,5)", "neg2(1,1,1)"])
    def test_floats_give_the_array_routes_bits(self, monkeypatch, warp_family, rng, name):
        # A 2-sample path of a plain-arithmetic warp is solved and sampled on
        # Python floats.  With _FLOAT_KINDS emptied, the same solves run
        # through np.float64 and the array route, to the same bits and counts.
        w = warp_family[name]
        lo, hi = w.domain.lo, min(w.domain.hi, 8.0)
        inits = [(GeodesicState.from_angle(rng.uniform(lo + 0.2, hi - 0.2), 0.0,
                                           rng.uniform(-math.pi, math.pi)), rng.uniform(0.1, 6.0))
                 for _ in range(12)]
        inits.append((GeodesicState(lo + 1.0, 0.0, -1.0, 0.0), 6.0))  # the inward ray escapes
        got = [integrate(w, init, s, n_samples=2) for init, s in inits]
        for module in (geodesics, warp):  # integrate's route and its warnings
            monkeypatch.setattr(module, "_FLOAT_KINDS", frozenset())
        want = [integrate(w, init, s, n_samples=2) for init, s in inits]
        assert any(path.escaped for path in want) and not all(path.escaped for path in want)
        for a, b in zip(got, want):
            for col in "srtfg":
                assert getattr(a, col).tobytes() == getattr(b, col).tobytes()
            assert (a.escaped, a.total_length, a.stats) == (b.escaped, b.total_length, b.stats)

    @pytest.mark.parametrize("name", ["one_over_r", "r", "flat(2,5)", "neg2(1,1,1)"])
    def test_float_rows_give_the_array_routes_bits(self, warp_family, rng, name):
        # A 2-sample solve sampled again on Python floats (the CLI's rows)
        # gives the doubles and counts of a solve sampled as arrays.
        w = warp_family[name]
        lo, hi = w.domain.lo, min(w.domain.hi, 8.0)
        for _ in range(6):
            init = GeodesicState.from_angle(rng.uniform(lo + 0.2, hi - 0.2), 0.0,
                                            rng.uniform(-math.pi, math.pi))
            s_max = rng.uniform(0.1, 6.0)
            for n in (3, 129, 300):
                got = integrate(w, init, s_max, n_samples=2)._resample(n, True)
                want = integrate(w, init, s_max, n_samples=n)
                assert all(type(vars(got)[col]) is list for col in "srtfg")
                for col in "srtfg":
                    assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
                assert (got.escaped, got.total_length, got.stats) == (
                    want.escaped, want.total_length, want.stats)

    def test_columns_become_arrays_when_read(self, flat_warp):
        path = integrate(flat_warp, GeodesicState(1.0, 0.0, -0.6, 0.8), 1.0, n_samples=2)
        assert all(type(vars(path)[col]) is list for col in "srtfg")
        end = path.endpoint  # read without numpy
        assert all(type(vars(path)[col]) is list for col in "srtfg")
        assert isinstance(path.r, np.ndarray) and vars(path)["r"] is path.r
        assert end == GeodesicState(*(float(getattr(path, col)[-1]) for col in "rtfg"))


# name: (warp, initial state).  Each escape step probes past r = 0.  h = r
# is evaluated on its continuation; 1/r has a pole and np.sqrt an infinite
# h' at 0, so both are clamped; r^1.5 continues smoothly across 0 but is NaN
# below it, so its probes fall back to the clamp one by one.
ESCAPING = {
    "r": (warp_r(), GeodesicState.from_angle(1.0, 0.0, 1.0)),
    "one_over_r": (warp_one_over_r(), GeodesicState(1.0, 0.0, -1.0, 0.0)),
    "custom-sqrt": (
        warp_custom(np.sqrt, lambda r: 0.5 / np.sqrt(r), domain=(0.0, math.inf)),
        GeodesicState.from_angle(1.0, 0.0, 2.0),
    ),
    "custom-pow1.5": (
        warp_custom(lambda r: r**1.5, lambda r: 1.5 * np.sqrt(r), domain=(0.0, math.inf)),
        GeodesicState.from_angle(1.0, 0.0, 2.5),
    ),
}


# name: (warp, initial state, radii probed before the solve).  At r = 0
# exactly, 1/r and the root's derivative are infinite; h = r/(1 + r^3)
# extends past r = 0 and has a pole at r = -1, where a Python float divides
# by zero.
PROBED = {name: (w, init, (0.0,)) for name, (w, init) in ESCAPING.items()}
PROBED["neg2(1,1,1)"] = (
    warp_neg2(1.0, 1.0, 1.0), GeodesicState.from_angle(1.0, 0.0, 2.0), (0.0, -1.0),
)


@pytest.mark.parametrize("name", sorted(PROBED))
def test_right_hand_side_stays_finite(monkeypatch, name):
    w, init, radii = PROBED[name]
    probes, attempts = [], []

    def checked(s, y):
        call, args = rhs[0]
        out = call(args, s, y)
        probes.append(y[0])
        assert all(math.isfinite(v) for v in out), (y, out)
        return out

    def checking(derivative, args, *rest, **kwargs):
        call, stages, extra = _dop853._kernel(derivative, 3)
        rhs.append((call, args))
        # As an array's np.float64 and as the kernel's list of Python floats.
        with np.errstate(all="ignore"):  # np.float64 probes past r = 0 may warn
            for r in radii:
                checked(0.0, np.array([r, 0.0, -1.0]))
                checked(0.0, [r, 0.0, -1.0])

        def recording(*step):
            attempts.append((step, stages(*step)))
            return attempts[-1][1]

        with monkeypatch.context() as m:
            m.setattr(_dop853, "_kernel", lambda d, n: (call, recording, extra))
            return real(derivative, args, *rest, **kwargs)

    rhs, real = [], geodesics.solve_ivp
    monkeypatch.setattr(geodesics, "solve_ivp", checking)
    path = integrate(w, init, 5.0)
    assert path.escaped and path.stats.max_speed_drift <= 1e-9
    # The solve ran the derivative inline.  Replayed through the call
    # template, which calls it at every stage, each step attempt gives the
    # same bits, and every stage is finite, also where a trial stage of an
    # escaping step probes past r = 0.
    _, template, _ = _dop853._kernel(_dop853.CALL, 3)
    with np.errstate(all="ignore"):  # as integrate solves
        for (_, *step), out in attempts:
            assert bits(template(checked, *step)) == bits(out)
    assert min(probes[2 * len(radii):]) < 0.0


def test_exp_evaluates_h_once_per_stage(monkeypatch):
    # e^r is its own derivative, so every right-hand-side evaluation of the
    # solve and of its interpolants calls the evaluator once.  The only
    # other calls are the edge probes before the solve, h and h' at r = 0
    # and at r = inf; no stage is clamped.
    calls = []
    wrap = geodesics.on_float64

    def counting(fn):
        evaluate = wrap(fn)

        def spy(r):
            calls.append(r)
            return evaluate(r)

        return spy

    monkeypatch.setattr(geodesics, "on_float64", counting)
    path = integrate(warp_exp(), GeodesicState.from_angle(1.0, 0.0, 2.0), 1.5)
    assert calls[:4] == [0.0, 0.0, math.inf, math.inf]
    assert len(calls) == path.stats.rhs_evals + 4


def test_division_by_zero_at_the_clamp_reads_as_nan(monkeypatch):
    # At r = 1, q^2 = 1e-600 underflows in h' = c0 (c1 - 2 c2 r^3) / q^2:
    # the in-range value and the clamp's both divide by zero, and both read
    # as nan, which the solver reports, not a ZeroDivisionError.
    w = warp_neg2(1.0, 0.0, 1e-300)
    init = GeodesicState(1.0, 0.0, -1.0, 0.0)
    with pytest.raises(ValueError, match="The derivative is not finite at t = 0.0."):
        integrate(w, init, 5.0)

    class Captured(Exception):
        pass

    def capture(derivative, args, *rest, **kwargs):
        raise Captured(args[-1])

    monkeypatch.setattr(geodesics, "solve_ivp", capture)
    with pytest.raises(Captured) as captured:
        integrate(w, init, 5.0)
    clamped = captured.value.args[0]
    assert all(math.isnan(v) for v in clamped(1.0))


def test_first_step_ignores_a_probe_dividing_by_zero(monkeypatch):
    # The first step's probe, about 0.017 along an inward ray from 1.001,
    # lands past the pole r = 1 on the clamp, where q * q underflows and h'
    # divides by zero.  It reads as nan, and a nan probe leaves the first
    # step to the start's derivative alone: the whole span.  An inf probe
    # (numpy's value there) would make the first step 0, the least step.
    class FirstStep(Exception):
        pass

    def first_step(*args):
        raise FirstStep(initial_step(*args))

    initial_step = _dop853._initial_step
    monkeypatch.setattr(_dop853, "_initial_step", first_step)
    w = warp_neg2(1.0, -1e-155, 1e-155)
    init = GeodesicState(1.001, 1e300, -math.sqrt(1 - 1e-8), 1e-4)
    with pytest.raises(FirstStep) as step:
        integrate(w, init, 0.01)
    assert step.value.args[0] == 0.01


# One escaping ray per warp family whose h and h' are plain arithmetic.
FLOAT_KIND_RAYS = {
    "one_over_r": (warp_one_over_r(), GeodesicState(1.0, 0.0, -1.0, 0.0)),
    "r": (warp_r(), GeodesicState.from_angle(1.0, 0.0, 1.0)),
    "flat(2,5)": (warp_flat(2.0, 5.0), GeodesicState(4.0, 0.0, 1.0, 0.0)),
    "neg2(1,1,1)": (warp_neg2(1.0, 1.0, 1.0), GeodesicState.from_angle(1.0, 0.0, 2.0)),
}


@pytest.mark.parametrize("n_samples", [2, 129])
@pytest.mark.parametrize("name", sorted(FLOAT_KIND_RAYS))
def test_float_kind_solve_needs_no_errstate(name, n_samples):
    # A float kind's solve is Python float arithmetic, so integrate holds no
    # errstate for it: under one that raises on every numpy error, with
    # numpy loaded, the escaping ray gives the same path.
    w, init = FLOAT_KIND_RAYS[name]
    assert w.kind in geodesics._FLOAT_KINDS
    want = integrate(w, init, 5.0, n_samples=n_samples)
    with np.errstate(all="raise"):
        got = integrate(w, init, 5.0, n_samples=n_samples)
    assert got.escaped and got.stats == want.stats
    for name in "srtfg":
        assert bits(getattr(got, name).tolist()) == bits(getattr(want, name).tolist())


def test_float_kind_clamp_holds_its_own_errstate():
    # neg2(1, 0, 1e-300)'s clamp takes numpy's -inf under its own errstate,
    # so a caller's errstate that raises changes nothing.
    w = warp_neg2(1.0, 0.0, 1e-300)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="The derivative is not finite at t = 0.0."):
            integrate(w, GeodesicState(1.0, 0.0, -1.0, 0.0), 5.0)


def test_power_warp_probes_below_zero_as_nan():
    # The solver keeps Python floats but a custom warp is handed np.float64,
    # so r**1.5 at a probe r < 0 is nan (and clamped), not a complex number.
    w, init = ESCAPING["custom-pow1.5"]
    assert escape_length(w, init, 5.0) == pytest.approx(1.0535515232434798, abs=1e-12)


def test_finite_difference_dh_escapes_like_exact_dh():
    # The central difference of sqrt next to r = 0 stays inside the domain.
    init = GeodesicState.from_angle(1.0, 0.0, 2.0)
    fd = escape_length(warp_custom(np.sqrt, domain=(0.0, math.inf)), init, 5.0)
    exact = escape_length(ESCAPING["custom-sqrt"][0], init, 5.0)
    assert fd == pytest.approx(exact, abs=1e-9)


class TestEscapeLength:
    def test_flat_inward_unit(self, flat_warp):
        assert escape_length(flat_warp, GeodesicState(1.0, 0.0, -1.0, 0.0), 10.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_radial_inward_unit(self, neg2_warp):
        assert escape_length(neg2_warp, GeodesicState(1.0, 0.0, -1.0, 0.0), 10.0) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_outward_exceeds_cap(self, flat_warp):
        assert escape_length(flat_warp, GeodesicState(1.0, 0.0, 1.0, 0.0), 10.0) is None

    def test_neg2_arch_escapes(self, neg2_warp):
        # Non-horizontal h = r geodesics end at finite length where r -> 0.
        geo = Neg2Geodesic(r0=1.0, t0=0.0, b=0.5, sign=1.0)
        expected = geo.arch()[1]
        got = escape_length(neg2_warp, geo.initial_state(), 50.0)
        assert got == pytest.approx(expected, abs=1e-6)


class TestStartInsideEscapeMargin:
    # A stop is a crossing of its level, which a start past the level never
    # makes: a start that lies the margin or nearer to an edge takes half
    # its distance to that edge as the margin.

    @pytest.mark.parametrize("r0", [5e-11, 1e-10])
    def test_inward_flat_ray_escapes_after_half_its_distance(self, flat_warp, r0):
        # From exactly 1e-10 the start lay on the stop level: length 0.
        length = escape_length(flat_warp, GeodesicState(r0, 0.0, -1.0, 0.0), 10.0)
        assert length == pytest.approx(0.5 * r0, rel=1e-9)

    def test_inward_flat_ray_reports_the_lower_escape(self, flat_warp):
        path = integrate(flat_warp, GeodesicState(5e-11, 0.0, -1.0, 0.0), 10.0)
        assert path.escaped and path.stats.stop == "escaped_lower"
        assert path.r[-1] == pytest.approx(2.5e-11, rel=1e-9)

    def test_outward_ray_next_to_a_pole_reports_the_upper_escape(self):
        path = integrate(warp_flat(2.0, 5.0), GeodesicState(5.0 - 5e-11, 0.0, 1.0, 0.0), 10.0)
        assert path.escaped and path.stats.stop == "escaped_upper"
        assert path.total_length == pytest.approx(2.5e-11, rel=1e-4)
        assert path.r[-1] < 5.0

    def test_h_equals_r_ray_escapes_in_a_few_steps(self):
        # It oscillated through the clamp, 5,093 accepted steps per 1e-7 of
        # arc length, and never stopped.
        path = integrate(warp_r(), GeodesicState(5e-11, 0.0, -0.6, 0.8), 1e-6)
        assert path.stats.stop == "escaped_lower"
        assert path.stats.rhs_evals < 100

    @pytest.mark.parametrize("r0", [5e-11, 3e-11])
    def test_connections_from_inside_the_margin_are_found(self, r0):
        p0, p1 = Point(r0, 0.0), Point(1.0, 0.5)
        flat = connect_flat(p0, p1)
        assert flat.variant == "found"
        assert flat.s == pytest.approx(math.sqrt(r0 * r0 + 1.0 - 2.0 * r0 * math.cos(0.5)),
                                       abs=1e-12)
        assert connect_neg2(p0, p1).variant == "found"

    @pytest.mark.parametrize("spacings", [1, 2, 4])
    def test_outward_ray_doubles_next_to_a_large_pole_escapes(self, spacings):
        # Half the distance would round the clamp onto the pole, which no
        # state reaches: from one spacing it ran to s_max, 761 evaluations
        # for 1e-6 of arc length.  The levels lie on the start instead.
        r0 = 1e9
        for _ in range(spacings):
            r0 = math.nextafter(r0, 0.0)
        path = integrate(warp_flat(1.0, 1e9), GeodesicState(r0, 0.0, 1.0, 0.0), 1e-6)
        assert path.stats.stop == "escaped_upper"
        assert (path.total_length, path.r[-1], path.stats.rhs_evals) == (0.0, r0, 17)

    @pytest.mark.parametrize("edge", [0.0, 5.0, 65536.0, 1e9, 2.0**30])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_levels_lie_strictly_inside_the_edge(self, edge, side):
        # The start, stop level, clip and clamp run toward the edge, for
        # starts from one spacing of doubles to beyond the margin.
        starts, r = [], edge
        for _ in range(12):
            r = math.nextafter(r, side * math.inf)
            starts.append(r)
        starts += [edge + side * geodesics._margin(edge) * x for x in (0.5, 1.0, 3.0)]
        for start in starts:
            stop, clip, clamp = geodesics._levels(edge, start)
            assert side * (start - stop) >= 0 and side * (stop - clip) >= 0
            assert side * (clip - clamp) >= 0 and side * (clamp - edge) > 0


def test_samples_increase_unless_the_span_is_a_few_doubles():
    # s strictly increases from 0 to total_length, except where the span per
    # sample is below the spacing of doubles near it: a span of one double,
    # or a stop at the start, which has length 0.
    path = integrate(warp_r(), GeodesicState.from_angle(1.0, 0.0, 1.0), 1.0, n_samples=5)
    assert np.all(np.diff(path.s) > 0.0) and path.s[-1] == path.total_length
    tiny = integrate(warp_r(), GeodesicState.from_angle(1.0, 0.0, 1.0), 5e-324, n_samples=3)
    assert tiny.s.tolist() == [0.0, 0.0, 5e-324] and not tiny.escaped
    start = GeodesicState(math.nextafter(1e9, 0.0), 0.0, 1.0, 0.0)
    stopped = integrate(warp_flat(1.0, 1e9), start, 1e-6, n_samples=5)
    assert stopped.escaped and stopped.total_length == 0.0
    assert stopped.s.tolist() == [0.0] * 5


def test_overflowing_h_at_the_start_fails_without_a_warning():
    # e^800 overflows: the solve's errstate covers the momentum b = g/h.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite at t = 0\.0\.$"):
            integrate(warp_exp(), GeodesicState.from_angle(800.0, 0.0, 1.0), 1.0)


class TestPathLength:
    def test_horizontal_segment(self, flat_warp):
        path = integrate(flat_warp, GeodesicState(1.0, 0.0, 1.0, 0.0), 1.0)
        assert path_length(path) == pytest.approx(1.0, abs=1e-12)

    def test_escaped_ray(self, flat_warp):
        path = integrate(flat_warp, GeodesicState(1.0, 0.0, -1.0, 0.0), 5.0)
        assert path_length(path) == pytest.approx(1.0, abs=1e-6)

    def test_zero_span(self):
        path = GeodesicPath(
            s=np.array([0.0]),
            r=np.array([1.0]),
            t=np.array([0.0]),
            f=np.array([1.0]),
            g=np.array([0.0]),
            escaped=False,
            total_length=0.0,
        )
        assert path_length(path) == 0.0

    def test_empty_path_rejected(self):
        empty = np.array([])
        path = GeodesicPath(s=empty, r=empty, t=empty, f=empty, g=empty, escaped=False,
                            total_length=0.0)
        with pytest.raises(ValueError, match="^empty path$"):
            path_length(path)

    def test_quadrature_cross_check(self, flat_warp):
        geo = FlatGeodesic(r0=1.0, t0=0.0, a=0.0, sign=1.0)
        path = integrate(flat_warp, geo.initial_state(), 2.0, n_samples=257)
        assert path_length_quadrature(flat_warp, path) == pytest.approx(
            path_length(path), abs=1e-4
        )


class TestFlatGeodesic:
    def test_initial_condition(self):
        geo = FlatGeodesic(r0=2.0, t0=-1.0, a=0.5, sign=-1.0)
        p = geo.point(0.0)
        assert (p.r, p.t) == (2.0, -1.0)

    def test_reference_point(self):
        geo = FlatGeodesic(r0=1.0, t0=0.0, a=0.0, sign=1.0)
        p = geo.point(1.0)
        assert p.r == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert p.t == pytest.approx(math.pi / 4.0, rel=1e-15)

    def test_angle_continues_through_pole(self):
        # At s = sqrt(2) the naive arctangent argument passes through its
        # pole; the continuous angle reaches pi/2.
        geo = FlatGeodesic(r0=1.0, t0=0.0, a=-1.0 / math.sqrt(2.0), sign=1.0)
        p = geo.point(math.sqrt(2.0))
        assert p.r == pytest.approx(1.0, abs=1e-12)
        assert p.t == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_sweep_stays_below_half_turn(self):
        geo = FlatGeodesic(r0=1.0, t0=0.0, a=-0.9, sign=1.0)
        ss = np.geomspace(1e-3, 1e6, 200)
        assert np.all(np.abs(geo.angle(ss)) < math.pi)

    def test_family_parameter_bounds(self):
        with pytest.raises(ValueError):
            FlatGeodesic(r0=1.0, t0=0.0, a=1.0)

    # A non-finite parameter is refused by name when the geodesic is built.
    @pytest.mark.parametrize("kwargs, message", [
        ({"r0": 0.0, "a": 0.0}, "r0 must be positive"),
        ({"r0": 1.0, "a": 0.0, "sign": 0.5}, "sign must be +1 or -1"),
        ({"r0": math.inf, "a": 0.0}, "r0 must be finite, got inf"),
        ({"r0": math.nan, "a": 0.0}, "r0 must be finite, got nan"),
        ({"r0": 1.0, "t0": math.inf, "a": 0.0}, "t0 must be finite, got inf"),
        ({"r0": 1.0, "a": math.nan}, "a must be finite, got nan"),
    ])
    def test_invalid_parameters_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            FlatGeodesic(**{"t0": 0.0, **kwargs})
        assert str(err.value) == message

    def test_matches_integration(self, flat_warp, rng):
        for _ in range(10):
            r0 = rng.uniform(0.3, 3.0)
            a = r0 * rng.uniform(-0.95, 0.95)
            sign = float(rng.choice([-1.0, 1.0]))
            geo = FlatGeodesic(r0=r0, t0=rng.uniform(-2, 2), a=a, sign=sign)
            path = integrate(flat_warp, geo.initial_state(), 3.0, n_samples=31)
            r_cf, t_cf = geo.point(path.s)
            assert np.max(np.abs(path.r - r_cf)) < 1e-6
            assert np.max(np.abs(path.t - t_cf)) < 1e-6

    def test_ode_residual_by_second_differences(self, flat_warp):
        # r'' = -(h'/h^3) t'^2 and t'' = 2 (h'/h) r' t' in coordinates;
        # h = 1/r gives r'' = r t'^2 ... with h'/h^3 = -r.
        geo = FlatGeodesic(r0=1.0, t0=0.0, a=-0.4, sign=1.0)
        hstep = 1e-4
        ss = np.linspace(0.5, 2.5, 21)
        r_m, t_m = geo.point(ss - hstep)
        r_0, t_0 = geo.point(ss)
        r_p, t_p = geo.point(ss + hstep)
        rdd = (r_p - 2 * r_0 + r_m) / hstep**2
        tdd = (t_p - 2 * t_0 + t_m) / hstep**2
        rd = (r_p - r_m) / (2 * hstep)
        td = (t_p - t_m) / (2 * hstep)
        res_r = rdd - r_0 * td**2
        res_t = tdd + (2.0 / r_0) * rd * td
        assert np.max(np.abs(res_r)) < 1e-6
        assert np.max(np.abs(res_t)) < 1e-6

    def test_state_is_unit_speed(self):
        geo = FlatGeodesic(r0=1.4, t0=0.2, a=0.9, sign=-1.0)
        for s in (-2.0, 0.0, 0.7, 5.0):
            st = geo.state(s)
            assert st.speed_sq == pytest.approx(1.0, abs=1e-14)

    def test_branch_integration_constant(self):
        # The single-branch arctangent form with constant d matches the
        # continuous angle wherever the branch argument stays off its pole.
        geo = FlatGeodesic(r0=1.0, t0=0.5, a=-0.3, sign=1.0)
        for s in (0.0, 0.2, 0.5):
            naive = geo.sign * math.atan((s + geo.a) / math.sqrt(geo.beta)) + geo.d
            assert naive == pytest.approx(geo.point(s).t, abs=1e-12)


class TestNeg2Geodesic:
    def test_apex_start(self):
        geo = Neg2Geodesic(r0=2.0, t0=0.0, b=0.5, sign=1.0)
        st = geo.initial_state()
        assert st.f == pytest.approx(0.0, abs=1e-12)
        assert st.g == pytest.approx(1.0, abs=1e-12)

    def test_radius_closed_form(self):
        geo = Neg2Geodesic(r0=1.0, t0=0.0, b=0.5, sign=1.0)
        assert geo.radius(0.0) == pytest.approx(1.0, rel=1e-15)
        # r(s) = 2 sin(s/2 + pi/6)
        for s in (0.3, 1.0, 2.0):
            assert geo.radius(s) == pytest.approx(
                2.0 * math.sin(s / 2.0 + math.pi / 6.0), rel=1e-14
            )

    def test_matches_integration(self, neg2_warp, rng):
        for _ in range(10):
            r0 = rng.uniform(0.3, 2.5)
            b = rng.uniform(0.05, 1.0) / r0
            sign = float(rng.choice([-1.0, 1.0]))
            geo = Neg2Geodesic(r0=r0, t0=rng.uniform(-2, 2), b=b, sign=sign)
            s_hi = 0.95 * geo.arch()[1]
            path = integrate(neg2_warp, geo.initial_state(), s_hi, n_samples=31)
            r_cf, t_cf = geo.point(path.s)
            assert np.max(np.abs(path.r - r_cf)) < 1e-6
            assert np.max(np.abs(path.t - t_cf)) < 1e-6

    def test_endpoint_example(self, neg2_warp):
        geo = Neg2Geodesic(r0=1.0, t0=0.0, b=0.5, sign=1.0)
        path = integrate(neg2_warp, geo.initial_state(), 0.5, n_samples=3)
        end = path.endpoint
        p = geo.point(0.5)
        assert end.r == pytest.approx(p.r, abs=1e-6)
        assert end.t == pytest.approx(p.t, abs=1e-6)

    def test_arch_bounds_enforced(self):
        geo = Neg2Geodesic(r0=1.0, t0=0.0, b=0.5, sign=1.0)
        lo, hi = geo.arch()
        assert geo.radius(hi - 1e-9) > 0.0
        with pytest.raises(DomainError):
            geo.radius(hi + 1e-6)
        with pytest.raises(DomainError):
            geo.point(lo - 1e-6)

    # b = 1/2 from r0 = 1: the arch is (-pi/3, 5 pi/3).
    OUTSIDE_ARCH = [(method, s) for method in ("radius", "transverse", "point")
                    for s in (6.0, [0.0, 6.0], np.array([-2.0, 0.0]))] + [("state", -2.0)]

    @pytest.mark.parametrize("method, s", OUTSIDE_ARCH)
    def test_outside_the_arch_names_the_callers_arc_length(self, method, s):
        geo = Neg2Geodesic(r0=1.0, t0=0.0, b=0.5, sign=1.0)
        lo, hi = geo.arch()
        message = f"arc length {s!r} outside the positive arch ({lo}, {hi})"
        with pytest.raises(DomainError) as err:
            getattr(geo, method)(s)
        assert str(err.value) == message

    def test_momentum_bounds(self):
        with pytest.raises(ValueError):
            Neg2Geodesic(r0=2.0, t0=0.0, b=0.6)  # b > 1/r0
        with pytest.raises(ValueError):
            Neg2Geodesic(r0=2.0, t0=0.0, b=0.0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"r0": -1.0, "b": 0.5}, "r0 must be positive"),
        ({"r0": 1.0, "b": 0.5, "sign": 2.0}, "sign must be +1 or -1"),
        ({"r0": math.nan, "b": 0.5}, "r0 must be finite, got nan"),
        ({"r0": math.inf, "b": 0.5}, "r0 must be finite, got inf"),
        ({"r0": 1.0, "t0": -math.inf, "b": 0.5}, "t0 must be finite, got -inf"),
        ({"r0": 1.0, "b": math.nan}, "b must be finite, got nan"),
    ])
    def test_invalid_parameters_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            Neg2Geodesic(**{"t0": 0.0, **kwargs})
        assert str(err.value) == message

    def test_unit_b_form_exact_only_at_unit_momentum(self):
        ss = np.linspace(0.0, 1.2, 13)
        at_unit = Neg2Geodesic(r0=0.8, t0=0.3, b=1.0, sign=1.0)
        dev = np.abs(np.asarray(at_unit.transverse(ss)) - transverse_unit_b_form(at_unit, ss))
        assert dev.max() < 1e-14
        off_unit = Neg2Geodesic(r0=1.0, t0=0.0, b=0.5, sign=1.0)
        ss2 = np.linspace(0.0, 2.0, 13)
        dev2 = np.abs(
            np.asarray(off_unit.transverse(ss2)) - transverse_unit_b_form(off_unit, ss2)
        )
        assert dev2.max() > 1e-1  # the simplified form is wrong off b = 1

    def test_state_is_unit_speed(self):
        geo = Neg2Geodesic(r0=1.0, t0=0.0, b=0.7, sign=-1.0)
        for s in (0.0, 0.3, 0.9):
            st = geo.state(s)
            assert st.speed_sq == pytest.approx(1.0, abs=1e-12)


class TestCsvExport:
    def test_round_trip(self, flat_warp, tmp_path):
        path = integrate(flat_warp, GeodesicState(1.0, 0.0, 0.0, 1.0), 1.0, n_samples=5)
        target = tmp_path / "path.csv"
        path.to_csv(target)
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "s,r,t,f,g"
        assert len(lines) == 6
        parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed[:, 1], path.r)  # 17 digits round-trip exactly
