import math
import warnings

import numpy as np
import pytest

from warpgeo import (
    DOMAIN_MARGIN,
    Domain,
    DomainError,
    Point,
    WarpSpec,
    make_warp,
    sectional_curvature,
    warp_custom,
    warp_exp,
    warp_flat,
    warp_neg2,
    warp_one_over_r,
    warp_r,
)
from warpgeo.warp import FD_STEP_SCALE


class TestPoint:
    def test_valid(self):
        p = Point(2.0, -3.5)
        assert p.r == 2.0 and p.t == -3.5

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_radius(self, r):
        with pytest.raises(ValueError):
            Point(r, 0.0)

    def test_rejects_nonfinite_t(self):
        with pytest.raises(ValueError):
            Point(1.0, math.inf)


class TestDomain:
    def test_membership_is_strict(self):
        d = Domain(0.0, 5.0)
        assert d.contains(2.5)
        assert not d.contains(0.0)
        assert not d.contains(5.0)
        assert not d.contains(5.0 - 1e-14)  # inside the margin

    def test_require_raises(self):
        with pytest.raises(DomainError):
            Domain(1.0, 2.0).require(0.5)

    def test_vectorized(self):
        d = Domain(0.0)
        res = d.contains(np.array([0.5, -1.0, 3.0]))
        assert res.tolist() == [True, False, True]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Domain(3.0, 2.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (1.0, 2.0), (5e-324, 1e308), (1e9, 1e9 + 1)])
    def test_interior_is_the_margin_inside_each_edge(self, lo, hi):
        # Every membership test compares with these two bounds, computed once.
        d = Domain(lo, hi)
        assert d.interior == (lo + DOMAIN_MARGIN, hi - DOMAIN_MARGIN)
        for r in d.interior:
            assert not d.contains(r)
            with pytest.raises(DomainError):
                d.require(r)
        assert d == Domain(lo, hi) and repr(d) == f"Domain(lo={lo!r}, hi={hi!r})"

    @pytest.mark.parametrize("hi", [5.0, math.inf])
    def test_non_finite_radii_are_outside(self, hi):
        # NaN fails both comparisons, -inf the lower and +inf the upper,
        # also against an infinite hi.
        d = Domain(0.0, hi)
        r = np.array([[1.0, math.nan], [-math.inf, math.inf]])
        assert d.contains(r).tolist() == [[True, False], [False, False]]
        assert d.contains(np.array(math.inf)) is False
        with pytest.raises(DomainError, match="^radius inf outside open domain"):
            d.require(np.array([1.0, math.inf]))


class TestWarpSpec:
    def test_from_string_with_params(self):
        spec = WarpSpec.from_string("flat:2,5")
        assert spec.kind == "flat" and spec.params == (2.0, 5.0)

    def test_from_string_bare(self):
        assert WarpSpec.from_string("one_over_r").kind == "one_over_r"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            WarpSpec("parabolic")

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            WarpSpec("flat", (1.0,))

    def test_round_trip_dict(self):
        d = {"kind": "neg2", "params": [1.0, -1.0, 1.0]}
        assert WarpSpec.from_dict(d) == WarpSpec("neg2", (1.0, -1.0, 1.0))

    @pytest.mark.parametrize("params", [[2, 5], (2.0, 5), [np.float64(2.0), 5.0]])
    def test_from_dict_takes_numbers(self, params):
        spec = WarpSpec.from_dict({"kind": "flat", "params": params})
        assert spec == WarpSpec("flat", (2.0, 5.0))

    def test_from_dict_without_params(self):
        assert WarpSpec.from_dict({"kind": "exp"}) == WarpSpec("exp")

    # A string would be read digit by digit ("25" as (2, 5)), a boolean as 0 or 1.
    @pytest.mark.parametrize(
        "params", ["25", [True, 5], [2, False], 5, None, {"a0": 2, "a1": 5}, ["2", "5"], [[2], 5]]
    )
    def test_from_dict_rejects_params_that_are_not_numbers(self, params):
        with pytest.raises(TypeError, match="^warp params must be an array of numbers$"):
            WarpSpec.from_dict({"kind": "flat", "params": params})


class TestBuiltinFamilies:
    def test_one_over_r_values(self):
        w = warp_one_over_r()
        assert w.h(2.0) == 0.5
        assert w.log_deriv(2.0) == -0.5

    def test_r_values(self):
        w = warp_r()
        assert w.h(3.0) == 3.0
        assert w.log_deriv(3.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_exp_evaluators_are_math_exp(self, rng):
        # h, h' and h'' are math.exp on floats and element by element on
        # arrays, to the bit; past the largest double with a finite e^r they
        # give inf, as numpy does, and nan at nan, with no error or warning.
        w = warp_exp()
        xs = rng.uniform(0.0, 50.0, 200).tolist()
        past = math.nextafter(709.782712893384, math.inf)
        for fn in (w._h, w._dh, w._d2h):
            got = [fn(x) for x in xs]
            assert all(type(v) is float for v in got)
            assert got == [math.exp(x) for x in xs]
            assert fn(np.array(xs).reshape(10, 20)).ravel().tolist() == got
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert fn(709.782712893384) == math.exp(709.782712893384)
                assert fn(past) == math.inf and math.isnan(fn(math.nan))
                edge = fn(np.array([past, math.nan]))
            assert edge[0] == math.inf and math.isnan(edge[1])

    def test_flat_minus1_0_equals_one_over_r(self):
        w = warp_flat(-1.0, 0.0)
        ref = warp_one_over_r()
        assert w.domain.lo == 0.0 and math.isinf(w.domain.hi)
        for r in (0.1, 1.0, 7.0, 250.0):
            assert w.h(r) == pytest.approx(ref.h(r), rel=1e-15)
            assert w.log_deriv(r) == pytest.approx(ref.log_deriv(r), rel=1e-14)

    def test_flat_1_5_domain(self):
        w = warp_flat(1.0, 5.0)
        assert (w.domain.lo, w.domain.hi) == (0.0, 5.0)
        assert w.h(2.0) == pytest.approx(1.0 / 3.0)
        with pytest.raises(DomainError):
            w.h(5.5)

    def test_flat_zero_amplitude_rejected(self):
        with pytest.raises(ValueError):
            warp_flat(0.0, 1.0)

    def test_flat_no_positive_interval(self):
        # a0 > 0 with the pole left of the half plane: h < 0 everywhere.
        with pytest.raises(ValueError):
            warp_flat(1.0, -2.0)

    def test_neg2_1_1_0_is_radial(self):
        w = warp_neg2(1.0, 1.0, 0.0)
        for r in (0.3, 1.0, 8.0):
            assert w.h(r) == pytest.approx(r, rel=1e-15)

    def test_neg2_pole_excluded(self):
        w = warp_neg2(1.0, -1.0, 1.0)  # pole of h at r = 1
        assert w.domain.lo == pytest.approx(1.0)
        assert w.h(2.0) == pytest.approx(2.0 / 7.0)
        with pytest.raises(DomainError):
            w.h(0.5)

    def test_neg2_mirror_side(self):
        # Flipping the sign of c0 selects the other side of the pole.
        w = warp_neg2(-1.0, -1.0, 1.0)
        assert (w.domain.lo, w.domain.hi) == (0.0, pytest.approx(1.0))
        assert w.h(0.5) > 0.0

    def test_neg2_degenerate_denominator(self):
        with pytest.raises(ValueError):
            warp_neg2(1.0, 0.0, 0.0)

    def test_neg2_zero_amplitude_rejected(self):
        with pytest.raises(ValueError, match=r"^neg2 warp requires c0 != 0"):
            warp_neg2(0.0, 1.0, 1.0)


class TestMakeWarp:
    @pytest.mark.parametrize(
        "text", ["one_over_r", "r", "exp", "flat:-1,0", "flat:2,5", "neg2:1,1,1"]
    )
    def test_all_kinds_pass_consistency(self, text):
        w = make_warp(text)
        grid = w.domain.sample()
        assert np.all(np.asarray(w.h(grid)) > 0)

    # Valid parameters whose narrow domain or large scale defeats a
    # finite-difference check of h' and h'' (flat:1,0.001's probes would
    # hit its pole): make_warp must build them without a warning.
    # flat:1,1.01e-9 is about the narrowest domain whose validation grid
    # lies DOMAIN_MARGIN inside it.
    @pytest.mark.parametrize(
        "text", ["flat:1,1e-6", "neg2:1e8,1,1e-6", "neg2:1,1e-6,-1e-12", "flat:1,0.001",
                 "flat:1,1.01e-9", "neg2:1e-300,1,1"]
    )
    def test_narrow_and_rescaled_warps_build_quietly(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = make_warp(text)
            grid = w.domain.sample()
            assert np.all(np.isfinite(w.h(grid))) and np.all(np.asarray(w.h(grid)) > 0)
            assert np.all(np.isfinite(w.log_deriv(grid)))

    # Domain.sample pads by 1e-3 of the width, which lies within
    # DOMAIN_MARGIN of an edge for widths up to about 1e-9: the refusal
    # names the domain, not a radius of the validation grid.
    @pytest.mark.parametrize("build, domain", [
        (lambda: make_warp("flat:1,1e-9"), "(0.0, 1e-09)"),
        (lambda: make_warp("flat:1,1e-10"), "(0.0, 1e-10)"),
        (lambda: warp_custom(lambda r: r, domain=(1.0, 1.0 + 1e-10)), "(1.0, 1.0000000001)"),
    ], ids=["flat-1e-9", "flat-1e-10", "custom"])
    def test_domain_too_narrow_for_its_grid_refused(self, build, domain):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value).endswith(f": domain {domain} is too narrow for its validation grid")

    def test_overflowing_h_is_rejected_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^warp 'flat' is not strictly positive on "
                                                 r"its domain \(0.0, 1e-06\)$"):
                make_warp("flat:1e300,1e-6")

    # h overflows on the grid (flat next to its pole, neg2 at small r), its
    # denominator underflows to zero (neg2:1,0,1e-320: Python floats divide
    # by zero where numpy reads inf), or h itself underflows to zero
    # (neg2:1e-322,1,1 far out): each is refused by name, without a warning.
    @pytest.mark.parametrize("spec, domain", [
        ("flat:1e308,5", "(0.0, 5.0)"),
        ("neg2:1e308,1e-10,1", "(0.0, inf)"),
        ("neg2:1,0,1e-320", "(0.0, inf)"),
        ("neg2:1e-322,1,1", "(0.0, inf)"),
    ])
    def test_non_finite_or_vanishing_h_is_rejected_quietly(self, spec, domain):
        kind = spec.partition(":")[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as err:
                make_warp(spec)
        assert str(err.value) == f"warp {kind!r} is not strictly positive on its domain {domain}"


class TestCustomWarp:
    def test_fd_derivatives(self):
        w = warp_custom(lambda r: 2.0 + np.sin(r), domain=(0.0, 20.0))
        for r in (0.5, 2.0, 9.0):
            assert w.dh(r) == pytest.approx(math.cos(r), abs=1e-8)
            assert w.d2h(r) == pytest.approx(-math.sin(r), abs=1e-4)

    def test_fd_step_stays_inside_domain(self):
        # A step of 1e-6 at r = 5e-7 would probe sqrt at a negative radius.
        w = warp_custom(np.sqrt, domain=(0.0, math.inf))
        d = w.dh(5e-7)
        assert math.isfinite(d) and d > 0.0
        assert np.all(np.isfinite(w.dh(np.array([1e-8, 5e-7, 1.0]))))

    @pytest.mark.parametrize("r", [5e-4, 5e-7])
    def test_second_difference_stays_inside_domain(self, r):
        # The second difference's step of 1e-3 would probe sqrt at a negative
        # radius; cut to r / 2, its error on sqrt is 9.04 % at every r.
        w = warp_custom(np.sqrt, domain=(0.0, math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d2 = w.d2h(r)
            k = sectional_curvature(w, r)
        assert math.isfinite(d2) and math.isfinite(k)
        assert d2 == pytest.approx(-(r**-1.5) / 4, rel=0.1)

    def test_second_difference_unclipped_step_unchanged(self):
        w = warp_custom(np.sqrt, domain=(0.0, math.inf))
        for r in (0.0025, 1.0, 7.5, np.array([0.5, 2.0, 40.0])):
            d = math.sqrt(FD_STEP_SCALE) * np.maximum(1.0, r)
            want = (np.sqrt(r + d) - 2.0 * np.sqrt(r) + np.sqrt(r - d)) / (d * d)
            assert np.all(w.d2h(r) == want)

    def test_supplied_derivatives_checked(self):
        with pytest.raises(ValueError, match="inconsistent"):
            warp_custom(
                lambda r: 2.0 + np.sin(r),
                dh=lambda r: np.cos(r) + 0.1,  # deliberately wrong
                domain=(0.0, 20.0),
            )

    def test_d2h_without_dh_refused(self):
        # Accepted unchecked, this d2h would make the curvature of r^1.5 at
        # r = 1 read 95.5 instead of -3.75; with the right dh it is refused.
        h, d2h = (lambda r: r**1.5), (lambda r: 100.0 + 0.0 * r)
        with pytest.raises(ValueError, match="pass dh as well, or omit d2h$"):
            warp_custom(h, d2h=d2h, domain=(0.5, 3.0))
        with pytest.raises(ValueError, match="h'' evaluator inconsistent with h'$"):
            warp_custom(h, lambda r: 1.5 * r**0.5, d2h, domain=(0.5, 3.0))

    # h = 1/(1e-3 - r) has its pole on the domain's upper edge, and the
    # difference step 1e-6 reaches it from the last sample.
    POLE = 1e-3

    @pytest.mark.parametrize("factor", [5.0, 1.0 + 1e-3])
    def test_wrong_dh_next_to_a_pole_refused(self, factor):
        a = self.POLE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="h' evaluator inconsistent with h$"):
                warp_custom(lambda r: 1.0 / (a - r), lambda r: factor / (a - r) ** 2,
                            domain=(0.0, a))

    def test_exact_derivatives_next_to_a_pole_accepted(self):
        a = self.POLE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = warp_custom(lambda r: 1.0 / (a - r), lambda r: 1.0 / (a - r) ** 2,
                            lambda r: 2.0 / (a - r) ** 3, domain=(0.0, a))
            with pytest.raises(ValueError, match="h'' evaluator inconsistent with h'$"):
                warp_custom(lambda r: 1.0 / (a - r), lambda r: 1.0 / (a - r) ** 2,
                            lambda r: 2.5 / (a - r) ** 3, domain=(0.0, a))
        assert w.dh(5e-4) == 4e6

    def test_domain_too_narrow_to_check_refused(self):
        # Every sample lies within 500 steps of an edge.
        with pytest.raises(ValueError, match="domain too narrow to check h' against h"):
            warp_custom(lambda r: 1.0 + r, lambda r: np.ones_like(r), domain=(0.0, 8e-4))
        assert warp_custom(lambda r: 1.0 + r, domain=(0.0, 8e-4)).dh(4e-4) == pytest.approx(1.0)

    @pytest.mark.parametrize("supplied", [True, False], ids=["supplied_dh", "fd_dh"])
    def test_log_deriv_is_dh_over_h(self, supplied):
        w = warp_custom(
            lambda r: 2.0 + np.sin(r), dh=np.cos if supplied else None, domain=(0.0, 20.0)
        )
        for r in (1.7, np.linspace(0.5, 9.0, 7)):
            want = w.dh(r) / w.h(r)
            assert np.all(w.log_deriv(r) == want)
            assert np.all(w.log_deriv_unchecked(r) == want)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            warp_custom(lambda r: np.sin(r), domain=(0.0, 20.0))

    def test_non_finite_log_derivative_rejected(self):
        with pytest.raises(ValueError, match="^warp 'custom' has a non-finite logarithmic "
                                             "derivative$"):
            warp_custom(lambda r: 1.0 + r, lambda r: np.where(r > 1.5, np.inf, 1.0),
                        domain=(1.0, 2.0))

    def test_unit_warp(self):
        w = warp_custom(
            lambda r: np.ones_like(np.asarray(r, dtype=float)) if np.ndim(r) else 1.0,
            domain=(0.0, 100.0),
        )
        assert w.h(3.0) == 1.0
        assert w.log_deriv(3.0) == pytest.approx(0.0, abs=1e-12)
