import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from warpgeo import (
    DomainError,
    FlatGeodesic,
    GeodesicPath,
    GeodesicState,
    IntegrationStats,
    Neg2Geodesic,
    Point,
    connect_flat,
    escape_length,
    integrate,
    path_length,
    path_length_quadrature,
    transverse_unit_b_form,
    warp_custom,
    warp_flat,
    warp_neg2,
    warp_one_over_r,
    warp_r,
)
from warpgeo import geodesics


def child_stdout(code: str) -> str:
    """What a fresh interpreter running ``code`` prints; the timeout turns a
    hang into a failure."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    return proc.stdout


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
        assert st.rhs_evals == sols[0].nfev
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
        assert st.rhs_evals == sols[0].nfev
        assert st.accepted_steps == len(sols[0].t) - 1 > 0
        assert st.stop == "s_max" and not path.escaped and path.total_length == 5.0
        drift = np.abs(path.f**2 + path.g**2 - 1.0)
        assert st.max_speed_drift == float(drift.max())
        assert 0.0 < st.max_speed_drift <= 1e-9

    def test_counts_add_up_without_rejections(self, neg2_warp):
        # Two evaluations start the solve (f0 and the initial step); an
        # accepted step costs 12 stages and 3 for its dense output, a
        # rejected attempt 12.
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
    probes = []

    def checking(fun, *args, **kwargs):
        def checked(s, y):
            out = fun(s, y)
            probes.append(y[0])
            assert all(math.isfinite(v) for v in out), (y, out)
            return out

        # As an array's np.float64 and as the kernel's list of Python floats.
        for r in radii:
            checked(0.0, np.array([r, 0.0, -1.0]))
            checked(0.0, [r, 0.0, -1.0])
        return real(checked, *args, **kwargs)

    real = geodesics.solve_ivp
    monkeypatch.setattr(geodesics, "solve_ivp", checking)
    path = integrate(w, init, 5.0)
    assert path.escaped and min(probes[2 * len(radii):]) < 0.0
    assert path.stats.max_speed_drift <= 1e-9


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

    def test_momentum_bounds(self):
        with pytest.raises(ValueError):
            Neg2Geodesic(r0=2.0, t0=0.0, b=0.6)  # b > 1/r0
        with pytest.raises(ValueError):
            Neg2Geodesic(r0=2.0, t0=0.0, b=0.0)

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
