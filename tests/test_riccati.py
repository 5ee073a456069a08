import math
import warnings

import numpy as np
import pytest
from test_geodesics import child_stdout

from warpgeo import (
    CurvatureProfile,
    DomainError,
    HField,
    analytic_flat,
    analytic_neg2,
    constant_profile,
    inverse_square_profile,
    sectional_curvature,
    solve_prescribed,
    verify_field,
    verify_riccati,
    warp_custom,
    warp_one_over_r,
    warp_r,
)
from warpgeo import _dop853, riccati


class TestSolvePrescribed:
    def test_zero_of_u_on_the_range_end_refines_in_bounded_memory(self):
        # u = r vanishes on the range end r = 0.  The intervals next to it all
        # meet the split rule |u'| dr > |u|/64, and the refinement grew
        # without bound: under this address-space cap it raised MemoryError.
        # The samples stop where u falls to atol, and so does the refinement.
        code = (
            "import os, resource; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
            "from warpgeo import constant_profile, solve_prescribed; "
            "f = solve_prescribed(constant_profile(0.0), 1.0, -1.0, (0.0, 2.0), atol=1e-12); "
            "print(f.grid.size < 10_000, f.grid[0] > 1e-12, 0.0 < f.blowup < 1e-12)"
        )
        assert child_stdout(code) == "True True True\n"

    def test_constant_negative_curvature_fixed_point(self):
        # H' = H^2 - 1 vanishes at H = 1: the solution is constant.
        field = solve_prescribed(constant_profile(-1.0), 1.0, 1.0, (0.5, 4.0))
        assert field.blowup is None
        assert np.max(np.abs(field.H - 1.0)) < 1e-9
        # h = 1/u = exp(r - r0) to integrator accuracy
        assert np.max(np.abs(field.h - np.exp(field.grid - 1.0))) < 1e-7

    def test_zero_curvature_blow_up(self):
        # H' = H^2 from H(1) = 1 has the pole solution 1/(2 - r).
        field = solve_prescribed(constant_profile(0.0), 1.0, 1.0, (0.5, 3.0))
        # u = 2 - r: DOP853 follows the linear u exactly up to rounding.
        assert field.blowup == pytest.approx(2.0, abs=1e-12)
        sel = (field.grid <= 1.9) & (field.grid >= 1.0)
        exact = 1.0 / (2.0 - field.grid[sel])
        assert np.max(np.abs(field.H[sel] - exact)) < 1e-7
        assert field.grid[-1] < 2.0

    def test_inverse_square_profile_reproduces_radial_warp(self):
        # h = r solves the -2/r^2 profile, so H = 1/r.
        field = solve_prescribed(inverse_square_profile(-2.0), 1.0, 1.0, (0.3, 5.0))
        assert field.blowup is None
        assert np.max(np.abs(field.H - 1.0 / field.grid)) < 1e-8
        # h = 1/u is r itself (normalized at r0 = 1 already).
        assert np.max(np.abs(field.h - field.grid)) < 1e-8

    def test_normalization_at_r0(self):
        field = solve_prescribed(constant_profile(-0.5), 2.0, 0.3, (1.0, 4.0))
        i0 = int(np.searchsorted(field.grid, 2.0))
        assert field.grid[i0] == 2.0
        assert field.h[i0] == 1.0
        assert np.all(np.diff(field.grid) > 0)
        assert np.all(field.h > 0)

    @pytest.mark.parametrize("r_range", [(2.0, 4.0), (1.0, 2.0)])
    def test_r0_at_range_end(self, r_range):
        field = solve_prescribed(constant_profile(-0.5), 2.0, 0.3, r_range)
        i0 = int(np.searchsorted(field.grid, 2.0))
        assert field.grid[i0] == 2.0 and field.h[i0] == 1.0 and field.H[i0] == 0.3
        assert (field.grid[0], field.grid[-1]) == r_range
        assert np.all(np.diff(field.grid) > 0)

    def test_backward_side_keeps_the_sign_of_zero(self):
        # The backward side is solved forward in x = -r.  u' = +0.0 throughout
        # gives H = -0.0 on both sides; the one step from r0 = 0.03 to 0 ends
        # at x = -0.03 + 0.03, and r = 0 is +0.0, as a backward solve gives.
        field = solve_prescribed(constant_profile(0.0), 1.0, 0.0, (0.5, 3.0))
        assert np.all(field.H == 0.0) and np.all(np.signbit(field.H))
        field = solve_prescribed(constant_profile(-1.0), 0.03, 0.0, (0.0, 1.0))
        assert field.grid[0] == 0.0 and not np.signbit(field.grid[0])

    def test_backward_blow_up_recorded(self):
        # H' = H^2 from H(1) = -1e6 has its pole behind r0, where
        # u = 1 + 1e6 (r - 1) vanishes: r = 1 - 1e-6.
        field = solve_prescribed(constant_profile(0.0), 1.0, -1e6, (0.5, 2.0))
        assert field.blowup == pytest.approx(1.0 - 1e-6, abs=1e-15)
        assert field.grid[0] > field.blowup
        assert verify_field(field, constant_profile(0.0), 1e-3).passed

    def test_positive_curvature_blow_up_at_quarter_period(self):
        # f = 1 from H(1) = 0: u = cos(r - 1) first vanishes at 1 + pi/2.
        profile = constant_profile(1.0)
        field = solve_prescribed(profile, 1.0, 0.0, (0.5, 4.0))
        assert field.blowup == pytest.approx(1.0 + math.pi / 2, abs=1e-9)
        assert field.grid[-1] < 1.0 + math.pi / 2
        sel = field.grid <= 2.4
        assert np.max(np.abs(field.H[sel] - np.tan(field.grid[sel] - 1.0))) < 1e-8
        assert verify_field(field, profile, 1e-3).passed

    def test_interpolation_helper(self):
        field = solve_prescribed(inverse_square_profile(-2.0), 1.0, 1.0, (0.5, 3.0))
        probe = np.array([0.7, 1.3, 2.4])
        # linear interpolation between refined nodes: second order in spacing
        assert np.max(np.abs(np.interp(probe, field.grid, field.H) - 1.0 / probe)) < 1e-4

    def test_r0_outside_range_rejected(self):
        with pytest.raises(ValueError):
            solve_prescribed(constant_profile(0.0), 5.0, 1.0, (1.0, 2.0))

    def test_range_on_half_line_accepted(self):
        field = solve_prescribed(constant_profile(-1.0), 1.0, 1.0, (0.0, 3.0))
        assert field.grid[0] == 0.0

    @pytest.mark.parametrize("r_range", [(-1.0, 3.0), (1e-13, 3.0)])
    def test_range_off_half_line_rejected(self, r_range):
        # The range may start at 0 itself, but not inside the margin above it.
        with pytest.raises(ValueError, match="range must lie inside the profile domain"):
            solve_prescribed(constant_profile(-1.0), 1.0, 1.0, r_range)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError, match="atol must be positive"):
            solve_prescribed(constant_profile(0.0), 1.0, 1.0, (0.5, 2.0), atol=-1.0)

    @pytest.mark.parametrize("atol", [math.nan, math.inf, 0.0])
    def test_atol_must_be_positive_and_finite(self, atol):
        # A nan atol failed late, in the step controller, and an infinite one
        # returned an empty field with a blow-up.
        with pytest.raises(ValueError, match=f"^atol must be positive and finite, got {atol!r}$"):
            solve_prescribed(constant_profile(0.0), 1.0, 1.0, (0.5, 2.0), atol=atol)

    @pytest.mark.parametrize(
        "r0, H0, r_range",
        [
            (math.nan, 1.0, (0.5, 3.0)),
            (1.0, math.nan, (0.5, 3.0)),
            (1.0, -math.inf, (0.5, 3.0)),
            (1.0, 1.0, (-math.inf, 3.0)),
            (1.0, 1.0, (0.5, math.inf)),
        ],
    )
    def test_non_finite_input_rejected(self, r0, H0, r_range):
        with pytest.raises(ValueError, match="must be finite"):
            solve_prescribed(constant_profile(-1.0), r0, H0, r_range)

    def test_failure_without_an_accepted_step_names_the_start(self):
        # The stages overflow, so every step attempt from r0 is rejected:
        # the solve stopped at r0, where u = 1.
        with pytest.raises(ValueError, match=r"numbers\. It stopped at r = 1\.0, where u = 1\.0\.$"):
            solve_prescribed(constant_profile(-1e308), 1.0, 1e308, (0.5, 2.0))

    def test_profile_dividing_by_zero_raises_only_the_failure(self):
        # At r0 = 1e-170, r * r underflows and -2/r^2 divides by zero: the
        # solve's own failure is raised, with no RuntimeWarning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not finite at t = 1e-170\.$"):
                solve_prescribed(inverse_square_profile(-2.0), 1e-170, 0.0, (0.0, 1.0))

    def test_blow_up_location_property(self, rng):
        # For f = 0 and H0 > 0 the pole sits at r0 + 1/H0.
        for _ in range(5):
            r0 = rng.uniform(0.5, 2.0)
            H0 = rng.uniform(0.8, 4.0)
            field = solve_prescribed(constant_profile(0.0), r0, H0, (r0 - 0.2, r0 + 2.0 / H0))
            assert field.blowup == pytest.approx(r0 + 1.0 / H0, abs=1e-12)


class TestAnalyticFamilies:
    def test_flat_one_over_r(self):
        w = analytic_flat(-1.0, 0.0)
        assert w.h(2.0) == pytest.approx(0.5)
        assert math.isinf(w.domain.hi)

    def test_flat_finite_domain_is_flat(self):
        w = analytic_flat(1.0, 5.0)
        assert (w.domain.lo, w.domain.hi) == (0.0, 5.0)
        grid = np.linspace(0.3, 4.7, 80)
        report = verify_riccati(w, constant_profile(0.0), grid, tol=1e-10)
        assert report.passed and report.max_residual <= 1e-10

    def test_flat_zero_rejected(self):
        with pytest.raises(ValueError):
            analytic_flat(0.0, 1.0)

    def test_neg2_radial(self):
        w = analytic_neg2(1.0, 1.0, 0.0)
        assert w.h(3.0) == pytest.approx(3.0)

    def test_neg2_generic_parameters(self):
        w = analytic_neg2(1.0, 1.0, 1.0)
        grid = np.linspace(0.2, 6.0, 100)
        report = verify_riccati(w, inverse_square_profile(-2.0), grid, tol=1e-10)
        assert report.passed

    def test_neg2_both_sides_of_pole(self):
        # (1,-1,1) lives on (1, inf); the mirrored amplitude covers (0, 1).
        # Curvature is -2/r^2 on each side (the metric sees only h^2).
        right = analytic_neg2(1.0, -1.0, 1.0)
        left = analytic_neg2(-1.0, -1.0, 1.0)
        g_right = np.linspace(1.1, 4.0, 60)
        g_left = np.linspace(0.05, 0.95, 60)
        assert verify_riccati(right, inverse_square_profile(-2.0), g_right, 1e-10).passed
        assert verify_riccati(left, inverse_square_profile(-2.0), g_left, 1e-10).passed
        # The generic h-based formula agrees away from the pole.
        rs = np.linspace(1.5, 3.0, 20)
        gen = np.asarray(sectional_curvature(right, rs, method="generic"))
        assert np.max(np.abs(gen + 2.0 / rs**2)) < 1e-9


class TestVerifyRiccati:
    def test_flat_matches_zero_profile(self):
        report = verify_riccati(warp_one_over_r(), constant_profile(0.0), np.linspace(0.5, 5, 50))
        assert report.passed and report.max_residual <= 1e-12

    def test_radial_matches_inverse_square(self):
        report = verify_riccati(
            warp_r(), inverse_square_profile(-2.0), np.linspace(0.5, 5, 50)
        )
        assert report.passed and report.max_residual <= 1e-12

    def test_mismatched_profile_fails_with_residual(self):
        grid = np.linspace(1.0, 2.0, 11)
        report = verify_riccati(warp_r(), constant_profile(0.0), grid, tol=1e-10)
        assert not report.passed
        assert report.max_residual == pytest.approx(2.0, rel=1e-12)  # 2/r^2 at r = 1

    def test_report_serialization(self):
        report = verify_riccati(warp_one_over_r(), constant_profile(0.0), [1.0, 2.0])
        d = report.to_dict()
        assert d["pass"] is True and d["grid_size"] == 2

    def test_grid_outside_domain_rejected(self):
        w = analytic_flat(1.0, 5.0)
        with pytest.raises(DomainError):
            verify_riccati(w, constant_profile(0.0), [4.0, 6.0])


class TestVerifyField:
    def test_overflow_next_to_blow_up_stays_silent(self):
        # H0 = 1e300 puts the pole a rounding error past r0 = 1: H^2 and its
        # differences overflow in the excluded margin, not in the interior.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = solve_prescribed(constant_profile(0.0), 1.0, 1e300, (0.5, 3.0), atol=1e-12)
            report = verify_field(field, constant_profile(0.0), 1e-3)
        assert abs(field.H[-1]) > np.sqrt(np.finfo(float).max)
        assert report.passed and report.blowup_location == 1.0
        assert report.max_residual == pytest.approx(2.3631100531607753e-4, rel=1e-6)

    def test_report_dict_carries_the_blow_up(self):
        # H' = H^2 from H(1) = 1 blows up at r = 2.
        field = solve_prescribed(constant_profile(0.0), 1.0, 1.0, (0.5, 3.0))
        d = verify_field(field, constant_profile(0.0), 1e-3).to_dict()
        assert d["blowup_location"] == field.blowup == pytest.approx(2.0, abs=1e-9)
        no_blowup = solve_prescribed(constant_profile(0.0), 1.0, 0.0, (0.5, 3.0))
        assert "blowup_location" not in verify_field(no_blowup, constant_profile(0.0),
                                                     1e-3).to_dict()

    def test_subnormal_grid_spacing_stays_silent(self):
        # From r0 = 1e-300 the grid's first steps are subnormal, and
        # np.gradient divides by zero in the excluded margin.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = solve_prescribed(constant_profile(0.0), 1e-300, 0.0, (0.0, 1.0))
            report = verify_field(field, constant_profile(0.0), 1e-3)
        assert report.passed and report.max_residual == 0.0

    @pytest.mark.parametrize("bad", [1e200, math.inf, math.nan])
    def test_non_finite_interior_residual_fails(self, bad):
        # H = 1/(3 - r) solves H' = H^2 exactly; one corrupt interior sample
        # must fail the report, without a warning.
        grid = np.linspace(1.0, 2.0, 101)
        H = 1.0 / (3.0 - grid)
        field = HField(grid=grid, H=H, h=2.0 * H, blowup=None, r0=1.0, H0=0.5)
        assert verify_field(field, constant_profile(0.0), 1e-3).passed
        H[50] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_field(field, constant_profile(0.0), 1e-3)
        assert not report.passed
        assert not math.isfinite(report.max_residual)


class TestProperties:
    def test_round_trip_flat_family(self, rng):
        # Seeding the zero-profile solver from an analytic flat solution
        # reproduces H across the grid to integrator accuracy.
        for _ in range(6):
            a1 = rng.uniform(-2.0, 3.0)
            a0 = rng.uniform(0.5, 2.0) if a1 > 0.5 else -rng.uniform(0.5, 2.0)
            try:
                w = analytic_flat(a0, a1)
            except ValueError:
                continue
            lo = w.domain.lo + 0.2
            hi = min(w.domain.hi - 0.2, lo + 3.0)
            if hi - lo < 0.5:
                continue
            r0 = 0.5 * (lo + hi)
            field = solve_prescribed(
                constant_profile(0.0), r0, float(w.log_deriv(r0)), (lo, hi)
            )
            expected = np.asarray(w.log_deriv(field.grid))
            assert np.max(np.abs(field.H - expected)) < 1e-8

    def test_scale_invariance(self):
        # Multiplying h by a positive constant changes neither H nor K.
        base = warp_r()
        scaled = warp_custom(
            lambda r: 7.5 * np.asarray(r, dtype=float),
            dh=lambda r: 7.5 * np.ones_like(np.asarray(r, dtype=float)),
            d2h=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            domain=(0.0, 100.0),
        )
        rs = np.linspace(0.5, 9.0, 40)
        assert np.max(np.abs(np.asarray(scaled.log_deriv(rs)) - np.asarray(base.log_deriv(rs)))) < 1e-12
        k_scaled = np.asarray(sectional_curvature(scaled, rs))
        k_base = np.asarray(sectional_curvature(base, rs))
        assert np.max(np.abs(k_scaled - k_base)) < 1e-12


def _side_by_insertion(f, r0, H0, r_end, atol):
    """``riccati._integrate_side`` as first written: the whole grid is
    re-tested every round, and each round's midpoints are inserted in place.
    It solves its own closure through the call template, not the module's
    compiled system."""
    if r_end == r0:
        y = np.array([[r0], [1.0], [0.0 - H0]], dtype=float)
        return y[:, y[1] > atol], None
    sign = 1.0 if r_end > r0 else -1.0
    fx = riccati.on_float64(f)

    def rhs(x, y):
        return (sign * y[1], -sign * fx(sign * x) * y[0])

    sol = riccati.solve_ivp(_dop853.CALL, rhs, (sign * r0, sign * r_end), (1.0, -H0),
                            rtol=riccati.RTOL, atol=atol, stops=(0.0, math.inf))
    if sol.status < 0:
        message = sol.message.replace(f"t = {sign * float(r0)!r}.", f"t = {float(r0)!r}.")
        if message == _dop853.TOO_SMALL_STEP:
            r, u = (sign * sol.t[-1], sol.sol.end[0]) if len(sol.t) > 1 else (float(r0), 1.0)
            message += f" It stopped at r = {r!r}, where u = {u!r}."
        raise ValueError(f"u'' + f u = 0 not integrable from {r0} to {r_end}: {message}")
    blow = sign * sol.t[-1] if sol.status == 1 else None
    r = np.unique([sign * np.linspace(a, b, riccati._REFINE + 1)
                   for a, b in zip(sol.t[:-1], sol.t[1:])])
    y = np.vstack([r, sol.sol(sign * r)])
    while True:
        r, u, du = y
        dr, lim, slope = np.diff(r), riccati._MAX_H_STEP * np.abs(u), np.abs(du)
        mid = 0.5 * (r[:-1] + r[1:])
        split = (slope[:-1] * dr > lim[:-1]) | (slope[1:] * dr > lim[1:])
        split &= (mid != r[:-1]) & (mid != r[1:])
        split &= (u[:-1] > atol) | (u[1:] > atol)
        if not split.any():
            return y[:, u > atol], blow
        mid = mid[split]
        y = np.insert(y, np.flatnonzero(split) + 1, np.vstack([mid, sol.sol(sign * mid)]),
                      axis=1)


def _seeded_fields(rng, n):
    """n seeded solve_prescribed arguments over six profiles, with ranges
    that start at 0, r0 on a range end (one side only) and blow-ups on
    either side."""
    profiles = (
        constant_profile(0.0),
        constant_profile(-1.0),
        constant_profile(1.0),
        inverse_square_profile(-2.0),
        CurvatureProfile(f=lambda r: -np.sin(r)),
        CurvatureProfile(f=lambda r: -r**1.5),
    )
    for i in range(n):
        lo = 0.0 if i % 5 == 0 else float(rng.uniform(0.05, 1.0))
        hi = lo + float(rng.uniform(0.5, 4.0))
        r0 = float(rng.choice([lo or hi, hi, rng.uniform(lo, hi)]))
        H0 = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.5))
        atol = float(10.0 ** rng.uniform(-12.0, -8.0))
        yield profiles[i % len(profiles)], r0, H0, (lo, hi), atol


def _field_or_error(profile, r0, H0, r_range, atol):
    try:
        field = solve_prescribed(profile, r0, H0, r_range, atol=atol)
    except ValueError as exc:
        return str(exc)
    return (field.grid.tobytes(), field.H.tobytes(), field.h.tobytes(), field.blowup,
            field.grid.shape)


def test_one_pass_refinement_is_the_insertion_reference(monkeypatch):
    # Testing only the halves a round made, and sorting once at the end,
    # gives the grid of re-testing and inserting into the whole array every
    # round, to the bit, on either side of r0.
    rng = np.random.default_rng(20261019)
    cases = list(_seeded_fields(rng, 300))
    with np.errstate(all="ignore"):
        got = [_field_or_error(*case) for case in cases]
        monkeypatch.setattr(riccati, "_integrate_side", _side_by_insertion)
        want = [_field_or_error(*case) for case in cases]
    assert got == want
    assert sum(isinstance(g, str) for g in got) < 30
    assert sum(g[3] is not None for g in got if not isinstance(g, str)) > 30
