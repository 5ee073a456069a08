import math

import numpy as np
import pytest

from warpgeo import (
    AffineMap,
    Domain,
    DomainError,
    Point,
    WarpFunction,
    affine_act,
    classify,
    connect_flat,
    cr_residual,
    distance_flat,
    make_warp,
    pullback_residual,
    sectional_curvature,
    transitivity_witness,
    warp_custom,
    warp_exp,
    warp_flat,
    warp_neg2,
    warp_one_over_r,
    warp_r,
)

K_SWEEP = (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0)
L_SWEEP = (-2.0, 0.0, 3.0)
# k = 1 +- 2^-j, j = 1 ... 52.
NEAR_UNIT_K = tuple(1.0 + s * 2.0**-j for j in range(1, 53) for s in (1.0, -1.0))
# The C11 warps plus the other built-in families.
SWEEP_WARPS = ("one_over_r", "r", "flat:2,5", "neg2:1,1,1", "exp")


class TestAction:
    def test_direct_substitution(self):
        assert affine_act(AffineMap(2.0, 1.0), Point(1.0, 0.0)) == Point(2.0, 1.0)

    def test_identity(self):
        p = Point(1.7, -0.4)
        assert affine_act(AffineMap(1.0, 0.0), p) == p

    def test_normalizing_map(self):
        r0, t0 = 2.5, -1.2
        m = AffineMap(1.0 / r0, -t0 / r0)
        q = affine_act(m, Point(r0, t0))
        assert q.r == pytest.approx(1.0) and q.t == pytest.approx(0.0)

    def test_group_laws(self, rng):
        for _ in range(25):
            m1 = AffineMap(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2, 2)))
            m2 = AffineMap(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2, 2)))
            p = Point(float(rng.uniform(0.2, 4.0)), float(rng.uniform(-3, 3)))
            q1 = affine_act(m2, affine_act(m1, p))
            q2 = affine_act(m2.compose(m1), p)
            assert q1.r == pytest.approx(q2.r, rel=1e-12)
            assert q1.t == pytest.approx(q2.t, rel=1e-12, abs=1e-12)
            inv = m1.inverse().compose(m1)
            assert inv.k == pytest.approx(1.0, rel=1e-12)
            assert inv.l == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            AffineMap(0.0, 1.0)


class TestTransitivityWitness:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (Point(1.0, 0.0), (1.0, 0.0)),
            (Point(2.0, 4.0), (0.5, -2.0)),
            (Point(0.5, -1.0), (2.0, 2.0)),
        ],
    )
    def test_witness_values(self, p, expected):
        m = transitivity_witness(p)
        assert (m.k, m.l) == (pytest.approx(expected[0]), pytest.approx(expected[1]))

    def test_replay_to_basepoint(self, rng):
        for _ in range(20):
            p = Point(float(rng.uniform(0.05, 10.0)), float(rng.uniform(-8, 8)))
            q = affine_act(transitivity_witness(p), p)
            assert abs(q.r - 1.0) < 1e-12
            assert abs(q.t) < 1e-12

    def test_freeness_by_grid_minimization(self):
        # Over a (k, l) grid, the only map fixing (1, 0) is the identity.
        base = Point(1.0, 0.0)
        ks = np.linspace(0.5, 2.0, 31)
        ls = np.linspace(-1.0, 1.0, 21)
        best = None
        for k in ks:
            for l in ls:
                q = affine_act(AffineMap(float(k), float(l)), base)
                res = math.hypot(q.r - 1.0, q.t)
                if best is None or res < best[0]:
                    best = (res, float(k), float(l))
        assert best[0] == pytest.approx(0.0, abs=1e-14)
        assert (best[1], best[2]) == (1.0, 0.0)


class TestCrResidual:
    def test_translations_holomorphic(self, flat_warp):
        for p in (Point(0.3, 0.0), Point(1.0, 2.0), Point(7.0, -4.0)):
            assert cr_residual(flat_warp, AffineMap(1.0, 5.0), p) == 0.0

    def test_scaling_violates(self, flat_warp):
        # |k h(1) - k h(k)| = |2 - 1| = 1 for k = 2, h = 1/r.
        assert cr_residual(flat_warp, AffineMap(2.0, 0.0), Point(1.0, 0.0)) == pytest.approx(
            1.0, rel=1e-15
        )

    def test_euclidean_warp_all_maps_holomorphic(self):
        w = warp_custom(
            lambda r: np.ones_like(np.asarray(r, dtype=float)) if np.ndim(r) else 1.0,
            domain=(0.0, 100.0),
        )
        for k, l in ((1.0, 3.0), (2.0, 0.0), (0.3, -1.0)):
            assert cr_residual(w, AffineMap(k, l), Point(1.0, 0.5)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_image_domain_guard(self):
        from warpgeo import warp_flat

        w = warp_flat(1.0, 5.0)
        with pytest.raises(DomainError):
            cr_residual(w, AffineMap(3.0, 0.0), Point(2.0, 0.0))  # image r = 6


class TestPullbackResidual:
    def test_translations_isometric(self, flat_warp):
        pts = [Point(0.5, 0.0), Point(1.0, 1.0), Point(4.0, -2.0)]
        assert pullback_residual(flat_warp, AffineMap(1.0, 3.0), pts) <= 1e-12

    def test_scaling_violation_value(self, flat_warp):
        # h = 1/r, k = 2 at (1,0): the frame vector e2 = (0, h(1)) = dt has a
        # pullback of the transverse block k^4 r^2 against r^2, so its
        # residual is 16 - 1 = 15, above e1's k^2 - 1 = 3.
        res = pullback_residual(flat_warp, AffineMap(2.0, 0.0), [Point(1.0, 0.0)])
        assert res == pytest.approx(15.0, rel=1e-12)

    def test_radial_translations_isometric(self, neg2_warp):
        pts = [Point(0.5, 0.0), Point(2.0, 1.0)]
        assert pullback_residual(neg2_warp, AffineMap(1.0, -7.0), pts) <= 1e-12

    # Where h*h underflows to zero, at h(1) = 5e-301 on neg2(1e-300, 1, 1)
    # or at the images of k = 1e300 on h = 1/r, g(u, u) is numpy's 0/0 or
    # x/0: the residual is nan, as classify reads it, with no
    # ZeroDivisionError and no warning.
    @pytest.mark.parametrize("w, k", [(make_warp("neg2:1e-300,1,1"), 1.0),
                                      (warp_one_over_r(), 1e300)], ids=["neg2-1e-300", "k-1e300"])
    def test_underflowing_square_of_h_reads_as_classify(self, w, k):
        res = pullback_residual(w, AffineMap(k), [Point(1.0, 0.0)])
        assert type(res) is float and math.isnan(res)
        assert math.isnan(classify(w, AffineMap(k)).isometry_residual)


class TestClassify:
    def test_translation_is_holomorphic_isometry(self, neg2_warp):
        rep = classify(neg2_warp, AffineMap(1.0, 2.0))
        assert rep.verdict == "holomorphic_isometry"
        assert rep.holomorphy_residual == 0.0
        assert rep.isometry_residual == 0.0

    def test_scaling_is_neither(self, neg2_warp):
        rep = classify(neg2_warp, AffineMap(3.0, 0.0))
        assert rep.verdict == "neither"
        assert rep.holomorphy_residual > 1e-3
        assert rep.isometry_residual > 1e-3

    def test_identity(self, flat_warp):
        assert classify(flat_warp, AffineMap(1.0, 0.0)).verdict == "holomorphic_isometry"

    @pytest.mark.parametrize("metric", ["flat", "neg2"])
    def test_sweep_exactly_at_unit_scale(self, metric, flat_warp, neg2_warp):
        w = flat_warp if metric == "flat" else neg2_warp
        for k in K_SWEEP:
            for l in L_SWEEP:
                verdict = classify(w, AffineMap(k, l)).verdict
                if k == 1.0:
                    assert verdict == "holomorphic_isometry", (metric, k, l)
                else:
                    assert verdict != "holomorphic_isometry", (metric, k, l)

    def test_euclidean_warp_scalings_holomorphic_only(self):
        w = warp_custom(
            lambda r: np.ones_like(np.asarray(r, dtype=float)) if np.ndim(r) else 1.0,
            domain=(0.0, 1000.0),
        )
        rep = classify(w, AffineMap(2.0, 0.0))
        assert rep.verdict == "holomorphic_only"
        # An h that returns one scalar even for an array input.
        w_scalar = warp_custom(lambda r: 1.0, domain=(0.0, 1000.0))
        assert classify(w_scalar, AffineMap(2.0, 0.0)).verdict == "holomorphic_only"

    @staticmethod
    def pointwise_reference(w, m, r_range):
        """max(cr_residual) and pullback_residual over classify's default grid
        clipped to r_range; np.max, unlike max, keeps a NaN in any position."""
        rs = np.linspace(*r_range, 20)
        ts = np.linspace(-3.0, 3.0, 20)
        points = [Point(float(r), float(t)) for r in rs for t in ts]
        holo = np.max([cr_residual(w, m, p) for p in points])
        return holo, pullback_residual(w, m, points)

    @pytest.mark.parametrize("spec", SWEEP_WARPS)
    def test_matches_pointwise_reference_exactly(self, spec, rng):
        w = make_warp(spec)
        r_range = classify(w, AffineMap(1.0, 0.0)).r_range
        for k in (*K_SWEEP, 1.0 + 2.0**-45, 1.0 - 2.0**-53, 1.0 + 1e-12):
            m = AffineMap(k, float(rng.uniform(-3.0, 3.0)))
            try:
                ref = self.pointwise_reference(w, m, r_range)
            except DomainError:
                # The image leaves the domain (flat:2,5 with k > 1).
                with pytest.raises(DomainError):
                    classify(w, m)
                continue
            rep = classify(w, m)
            assert (rep.holomorphy_residual, rep.isometry_residual) == ref

    def test_nan_image_matches_pointwise_reference(self):
        # h is NaN past r = 5, the grid's last radius, where half of the
        # images land: both residuals must be NaN on both sides, not the max
        # over the finite entries.  warp_custom would reject this h.
        def h(r):
            return np.where(np.asarray(r) > 5.0, np.nan, 1.0 / np.asarray(r))

        w = WarpFunction("custom", (), Domain(0.0), _h=h, _dh=h, _d2h=h, _logderiv=h)
        m = AffineMap(2.0, 0.5)
        rep = classify(w, m)
        assert rep.r_range == (0.1, 5.0)
        ref = self.pointwise_reference(w, m, rep.r_range)
        np.testing.assert_equal((rep.holomorphy_residual, rep.isometry_residual), ref)
        assert math.isnan(rep.isometry_residual)
        assert rep.verdict == "neither"

    def test_image_leaving_domain_raises(self):
        # The message names the first image radius outside the domain.
        with pytest.raises(DomainError) as err:
            classify(warp_flat(1.0, 5.0), AffineMap(3.0, 0.0))
        assert str(err.value) == "radius 5.715789468157896 outside open domain (0.0, 5.0)"

    def test_grid_missing_domain_raises(self):
        with pytest.raises(DomainError):
            # The domain (0, 0.05) lies below the grid's radii [0.1, 5].
            classify(warp_flat(1.0, 0.05), AffineMap(1.0, 0.0))

    def test_report_serialization(self, flat_warp):
        d = classify(flat_warp, AffineMap(1.0, 1.0)).to_dict()
        assert d["verdict"] == "holomorphic_isometry"
        assert d["map"] == {"k": 1.0, "l": 1.0}
        assert d["grid"]["shape"] == [20, 20]
        assert "seed" not in d

    @pytest.mark.parametrize("warp, k, message", [
        (warp_r, 1e308, "point coordinates must be finite"),  # k t overflows
        (warp_exp, 1e307, "tangent vector components must be finite"),  # k h(r) overflows
    ])
    def test_non_finite_image_refused(self, warp, k, message):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=f"^{message}$"):
            classify(warp(), AffineMap(k, 0.0))

    # The float route's edges, each pinned to the outcome numpy's arrays
    # gave, and with no warning: a square of h that underflows (neg2 with
    # c0 = 1e-300) or overflows (flat with a0 = -1e300) makes its radius's
    # isometry term nan; h of neg2(1, 0, 1e-300) divides by zero at the
    # small images of k = 1e-8, where numpy reads inf; k = 1e-300 maps every
    # radius below the domain's margin, and k = 1e300 overflows k r, h or k h.
    @pytest.mark.parametrize("w, k, want", [
        (warp_neg2(1e-300, 1.0, 1.0), 1.0, (0.0, math.nan, "holomorphic_only")),
        (warp_neg2(1e-300, 1.0, 1.0), 2.0, (5.6466232907055046e-301, math.nan, "holomorphic_only")),
        (warp_flat(-1e300, 0.0), 1.0, (0.0, math.nan, "holomorphic_only")),
        (warp_neg2(1.0, 0.0, 1e-300), 1e-8, (math.inf, math.nan, "neither")),
        (warp_r(), 1e-300, "DomainError: radius 1e-301 outside open domain (0.0, inf)"),
        (warp_r(), 1e300, (math.inf, math.nan, "neither")),
        (warp_one_over_r(), 1e300, (1e301, math.nan, "neither")),
        (warp_neg2(1.0, 0.0, 1e-300), 1e300, "ValueError: tangent vector components must be finite"),
    ], ids=["neg2-underflow-k1", "neg2-underflow-k2", "flat-overflow", "neg2-divides",
            "r-1e-300", "r-1e300", "one_over_r-1e300", "neg2-1e300"])
    def test_float_edges_read_as_numpy(self, w, k, want):
        try:
            rep = classify(w, AffineMap(k, 0.5))
        except ValueError as exc:  # DomainError is one
            assert f"{type(exc).__name__}: {exc}" == want
        else:
            np.testing.assert_equal((rep.holomorphy_residual, rep.isometry_residual, rep.verdict),
                                    want)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_must_be_positive_and_finite(self, neg2_warp, tol):
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol!r}$"):
            classify(neg2_warp, AffineMap(1.0, 0.0), tol=tol)


def log_periodic_warp():
    """h = 2 + sin(2 pi log2 r): h(2 r) = h(r), so k = 2^n is holomorphic."""
    return warp_custom(lambda r: 2.0 + np.sin(2.0 * math.pi * np.log2(r)),
                       domain=(0.0, math.inf))


class TestGridInsideDomain:
    """classify checks none of its grid radii: its 1e-9 clip puts both ends
    of the grid strictly inside the domain's interior, for every domain that
    the grid meets."""

    @staticmethod
    def domains(rng):
        # Tiny lower edges, huge upper ones, and edges next to poles near the
        # grid's range ends 0.1 and 5, on either side of each.
        tiny = [0.0, 5e-324, 1e-300, 1e-12, 1e-9] + (10.0 ** rng.uniform(-320, 0, 30)).tolist()
        huge = [math.inf, 1e308, 1e12] + (10.0 ** rng.uniform(0, 308, 30)).tolist()
        for lo in tiny:
            for hi in huge:
                if lo < hi:
                    yield Domain(lo, hi)
        for pole in (0.1, 5.0):
            near = [math.nextafter(pole, -1.0), pole, math.nextafter(pole, 10.0)]
            near += (pole * (1.0 + rng.choice([-1.0, 1.0], 400)
                             * 10.0 ** rng.uniform(-17, 0, 400))).tolist()
            for edge in near:
                yield from (Domain(0.0, edge), Domain(edge, math.inf))
                yield from (Domain(min(tiny[5:]), edge), Domain(edge, max(huge[3:])))

    def test_grid_ends_lie_strictly_inside(self, rng):
        one = lambda r: 1.0  # noqa: E731
        accepted = 0
        for d in self.domains(rng):
            w = WarpFunction("custom", (), d, one, one, one, one)
            try:
                report = classify(w, AffineMap(1.0))
            except DomainError as err:
                assert str(err) == "sample grid does not intersect the warp domain"
                continue
            lo, hi = report.r_range
            assert d.interior[0] < lo and hi < d.interior[1], d
            accepted += 1
        assert accepted > 2000


class TestVerdictNearUnitScale:
    """No k != 1 is an isometry, however close to 1: the e1 term |k^2 - 1| of
    the isometry residual is not 0 for any double k != 1."""

    WARPS = ("r", "one_over_r", "exp", "neg2:1,1,1", "flat:2,5", "log_periodic")

    @staticmethod
    def warp(spec):
        return log_periodic_warp() if spec == "log_periodic" else make_warp(spec)

    @pytest.mark.parametrize("spec", WARPS)
    def test_no_scaling_is_an_isometry(self, spec):
        w = self.warp(spec)
        ks = [*NEAR_UNIT_K, *(1.0 + n * 2.0**-52 for n in range(1, 1001)),
              *(1.0 - n * 2.0**-53 for n in range(1, 1001))]
        # flat:2,5 lives on (0, 5), which a scaling k > 1 of the grid leaves.
        for k in (k for k in ks if k < 1.0 or spec != "flat:2,5"):
            rep = classify(w, AffineMap(k, 0.5))
            assert rep.verdict != "holomorphic_isometry", k
            assert rep.isometry_residual > 0.0, k

    @pytest.mark.parametrize("spec", WARPS)
    @pytest.mark.parametrize("l", L_SWEEP)
    def test_translations_are_holomorphic_isometries(self, spec, l):
        rep = classify(self.warp(spec), AffineMap(1.0, l))
        assert rep.verdict == "holomorphic_isometry"
        assert (rep.holomorphy_residual, rep.isometry_residual) == (0.0, 0.0)

    @pytest.mark.parametrize("k", [2.0, 4.0, 0.5])
    def test_log_periodic_scalings_holomorphic_only(self, k):
        rep = classify(log_periodic_warp(), AffineMap(k, 1.0))
        assert rep.verdict == "holomorphic_only"
        assert rep.isometry_residual >= abs(k * k - 1.0)  # the e1 term


def coordinate_geodesic_residual(w, r_arr, t_arr, s_arr) -> float:
    """Max violation of the geodesic condition along a sampled curve,
    invariant under reparametrization.

    A curve is a reparametrized geodesic exactly when its covariant
    acceleration is parallel to its velocity (the tangential component can
    always be absorbed into the parameter), so the residual is the
    metric component of the acceleration along the unit normal.  In
    coordinates, with the equations for dr^2 + dt^2/h^2,

        A_r = r'' + (h'/h^3) t'^2,     A_t = t'' - 2 (h'/h) r' t',

    the normalized perpendicular component is
    (A_t r' - A_r t') / (h |v|_g^2).  Derivatives are central differences on
    the uniform sample grid.
    """
    hstep = s_arr[1] - s_arr[0]
    rd = (r_arr[2:] - r_arr[:-2]) / (2 * hstep)
    td = (t_arr[2:] - t_arr[:-2]) / (2 * hstep)
    rdd = (r_arr[2:] - 2 * r_arr[1:-1] + r_arr[:-2]) / hstep**2
    tdd = (t_arr[2:] - 2 * t_arr[1:-1] + t_arr[:-2]) / hstep**2
    mid = r_arr[1:-1]
    hp_over_h = np.asarray(w.log_deriv(mid))
    h_mid = np.asarray(w.h(mid))
    acc_r = rdd + (hp_over_h / h_mid**2) * td**2
    acc_t = tdd - 2.0 * hp_over_h * rd * td
    speed_sq = rd**2 + (td / h_mid) ** 2
    perp = (acc_t * rd - acc_r * td) / (h_mid * speed_sq)
    return float(np.max(np.abs(perp)))


class TestGeodesicPreservation:
    """Affine pushforwards of geodesics, measured by the coordinate ODE.

    Translations (k = 1) preserve geodesics for every warp (they are
    isometries of any t-independent metric).  For the two featured warps,
    scalings k != 1 do NOT preserve geodesics, although they do for the
    Euclidean warp h = 1; both facts are recorded here.
    """

    @staticmethod
    def _featured_samples(name, n=801, span=0.8):
        # Closed-form geodesic samples: free of integration noise, so the
        # finite-difference residual measures only the geometry.
        from warpgeo import FlatGeodesic, Neg2Geodesic

        ss = np.linspace(0.0, span, n)
        if name == "flat":
            geo = FlatGeodesic(r0=1.0, t0=0.0, a=0.45, sign=1.0)
        else:
            geo = Neg2Geodesic(r0=1.0, t0=0.0, b=0.56, sign=1.0)
        r, t = geo.point(ss)
        return ss, np.asarray(r), np.asarray(t)

    @classmethod
    def _pushed_residual(cls, w, name, m):
        ss, r, t = cls._featured_samples(name)
        return coordinate_geodesic_residual(w, m.k * r, m.k * t + m.l, ss)

    def test_translations_preserve_featured_metrics(self, flat_warp, neg2_warp, rng):
        for w, name in ((flat_warp, "flat"), (neg2_warp, "neg2")):
            m = AffineMap(1.0, float(rng.uniform(-3, 3)))
            assert self._pushed_residual(w, name, m) <= 1e-6

    def test_scalings_break_featured_metrics(self, flat_warp, neg2_warp):
        # Recorded refutation: the affine scalings are not geodesic
        # preserving for either featured warp (the transverse angle scales
        # while the development geometry does not).
        m = AffineMap(2.0, 0.0)
        assert self._pushed_residual(flat_warp, "flat", m) > 1e-2
        assert self._pushed_residual(neg2_warp, "neg2", m) > 1e-2

    def test_euclidean_warp_preserved_by_all_affine_maps(self):
        w = warp_custom(
            lambda r: np.ones_like(np.asarray(r, dtype=float)) if np.ndim(r) else 1.0,
            domain=(0.0, 1000.0),
        )
        # Straight-line geodesic of the h = 1 warp, pushed through a scaling.
        ss = np.linspace(0.0, 1.0, 801)
        r = 2.0 + ss * math.cos(0.4)
        t = 0.0 + ss * math.sin(0.4)
        m = AffineMap(2.5, 1.0)
        assert coordinate_geodesic_residual(w, m.k * r, m.k * t + m.l, ss) <= 1e-6


class TestTranslationInvariance:
    def test_curvature(self, flat_warp, neg2_warp):
        # Curvature depends on r only; a t-translation is a no-op on inputs.
        for w in (flat_warp, neg2_warp):
            assert sectional_curvature(w, 1.7) == sectional_curvature(w, 1.7)

    def test_distance(self, rng):
        p0, p1 = Point(1.0, 0.2), Point(2.0, 1.0)
        tau = 3.3
        d0 = distance_flat(p0, p1)
        d1 = distance_flat(Point(p0.r, p0.t + tau), Point(p1.r, p1.t + tau))
        assert d1 == pytest.approx(d0, abs=1e-9)

    def test_connectivity_verdict(self):
        tau = -1.8
        a = connect_flat(Point(1.0, 0.0), Point(1.0, 3.5))
        b = connect_flat(Point(1.0, tau), Point(1.0, 3.5 + tau))
        assert a.variant == b.variant == "no_geodesic"
