import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo import (
    DOMAIN_MARGIN,
    Domain,
    DomainError,
    Point,
    TangentVector,
    apply_J,
    connection,
    curvature_oracle,
    frame_components,
    kahler_form,
    make_warp,
    metric_at,
    sectional_curvature,
    vector_from_frame,
    warp_custom,
    warp_exp,
    warp_flat,
    warp_neg2,
    warp_one_over_r,
    warp_r,
)

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
radius = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
t_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _vec(w, r, t, dr, dt):
    return TangentVector(dr, dt, base=Point(r, t))


class TestMetric:
    def test_transverse_block_one_over_r(self, flat_warp):
        u = _vec(flat_warp, 2.0, 0.0, 0.0, 1.0)
        assert metric_at(flat_warp, u, u) == pytest.approx(4.0, rel=1e-15)

    def test_transverse_block_r(self, neg2_warp):
        u = _vec(neg2_warp, 2.0, 0.0, 0.0, 1.0)
        assert metric_at(neg2_warp, u, u) == pytest.approx(0.25, rel=1e-15)

    def test_diagonal(self, warp_family):
        for w in warp_family.values():
            p = Point(1.5, 0.3)
            u = TangentVector(1.0, 0.0, p)
            v = TangentVector(0.0, 1.0, p)
            assert metric_at(w, u, v) == 0.0

    def test_base_mismatch_rejected(self, flat_warp):
        u = _vec(flat_warp, 1.0, 0.0, 1.0, 0.0)
        v = _vec(flat_warp, 2.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="mismatch"):
            metric_at(flat_warp, u, v)

    def test_outside_domain_rejected(self):
        w = warp_flat(1.0, 5.0)
        u = _vec(w, 6.0, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            metric_at(w, u, u)

    def test_underflowing_square_of_h_reads_as_numpy(self):
        # h(1) = 5e-301 on neg2(1e-300, 1, 1), so h*h underflows to zero:
        # each quotient is numpy's, with no ZeroDivisionError and no warning.
        w = make_warp("neg2:1e-300,1,1")
        p = Point(1.0, 0.0)
        u, e1 = TangentVector(0.0, 1.0, p), TangentVector(1.0, 0.0, p)
        assert metric_at(w, u, u) == math.inf
        assert metric_at(w, TangentVector(0.0, -1.0, p), u) == -math.inf
        assert math.isnan(metric_at(w, e1, e1))  # 1 + 0/0
        assert all(type(metric_at(w, a, a)) is float for a in (u, e1))

    @given(r=radius, t=t_coord, a=coord, b=coord, c=coord, d=coord, lam=coord)
    @settings(max_examples=60, deadline=None)
    def test_bilinear_symmetric(self, r, t, a, b, c, d, lam):
        w = warp_r()
        p = Point(r, t)
        u, v = TangentVector(a, b, p), TangentVector(c, d, p)
        gvu = metric_at(w, v, u)
        assert metric_at(w, u, v) == pytest.approx(gvu, rel=1e-12, abs=1e-12)
        scaled = TangentVector(lam * a, lam * b, p)
        assert metric_at(w, scaled, v) == pytest.approx(
            lam * metric_at(w, u, v), rel=1e-12, abs=1e-12
        )


class TestFrame:
    def test_orthonormal(self, warp_family, rng):
        for w in warp_family.values():
            lo, hi = w.domain.lo, min(w.domain.hi, 10.0)
            for _ in range(20):
                p = Point(rng.uniform(lo + 0.1, hi - 0.1), rng.uniform(-3, 3))
                e1 = TangentVector(1.0, 0.0, p)
                e2 = TangentVector(0.0, float(w.h(p.r)), p)
                assert metric_at(w, e1, e1) == pytest.approx(1.0, abs=1e-12)
                assert metric_at(w, e2, e2) == pytest.approx(1.0, abs=1e-12)
                assert metric_at(w, e1, e2) == 0.0

    def test_components_round_trip(self, neg2_warp):
        p = Point(2.5, 1.0)
        u = vector_from_frame(neg2_warp, p, 0.3, -0.7)
        f, g = frame_components(neg2_warp, u)
        assert (f, g) == (pytest.approx(0.3), pytest.approx(-0.7))


class TestComplexStructure:
    def test_rotates_frame(self, neg2_warp):
        p = Point(2.0, 0.0)
        ju = apply_J(neg2_warp, TangentVector(1.0, 0.0, p))
        assert (ju.dr, ju.dt) == (0.0, 2.0)
        jt = apply_J(neg2_warp, TangentVector(0.0, 2.0, p))
        assert (jt.dr, jt.dt) == (-1.0, 0.0)

    @given(r=radius, t=t_coord, a=coord, b=coord)
    @settings(max_examples=60, deadline=None)
    def test_square_is_minus_identity(self, r, t, a, b):
        w = warp_one_over_r()
        u = TangentVector(a, b, Point(r, t))
        jju = apply_J(w, apply_J(w, u))
        assert jju.dr == pytest.approx(-a, rel=1e-12, abs=1e-15)
        assert jju.dt == pytest.approx(-b, rel=1e-12, abs=1e-15)

    @given(r=radius, t=t_coord, a=coord, b=coord, c=coord, d=coord)
    @settings(max_examples=60, deadline=None)
    def test_isometry_of_tangent_planes(self, r, t, a, b, c, d):
        w = warp_r()
        p = Point(r, t)
        u, v = TangentVector(a, b, p), TangentVector(c, d, p)
        lhs = metric_at(w, apply_J(w, u), apply_J(w, v))
        rhs = metric_at(w, u, v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestKahlerForm:
    def test_frame_normalization(self, warp_family):
        for w in warp_family.values():
            p = Point(1.2, -0.4)
            e1 = TangentVector(1.0, 0.0, p)
            e2 = TangentVector(0.0, float(w.h(p.r)), p)
            assert kahler_form(w, e1, e2) == pytest.approx(1.0, abs=1e-14)

    def test_antisymmetry_on_equal_vectors(self, flat_warp):
        u = _vec(flat_warp, 3.0, 1.0, 0.7, -0.2)
        assert kahler_form(flat_warp, u, u) == 0.0

    def test_coordinate_value(self, neg2_warp):
        p = Point(3.0, 0.0)
        u = TangentVector(1.0, 0.0, p)
        v = TangentVector(0.0, 1.0, p)
        assert kahler_form(neg2_warp, u, v) == pytest.approx(1.0 / 3.0, rel=1e-15)

    @given(r=radius, t=t_coord, a=coord, b=coord, c=coord, d=coord)
    @settings(max_examples=60, deadline=None)
    def test_compatibility_with_metric(self, r, t, a, b, c, d):
        w = warp_exp()
        p = Point(r, t)
        u, v = TangentVector(a, b, p), TangentVector(c, d, p)
        lhs = kahler_form(w, u, v)
        rhs = metric_at(w, apply_J(w, u), v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestConnection:
    def test_radial_directions_parallel(self, warp_family):
        for w in warp_family.values():
            c = connection(w, Point(1.3, 2.0))
            assert c.nabla_e1_e1 == (0.0, 0.0)
            assert c.nabla_e1_e2 == (0.0, 0.0)

    def test_transverse_values_r(self, neg2_warp):
        c = connection(neg2_warp, Point(2.0, 0.0))
        assert c.nabla_e2_e2 == (pytest.approx(0.5), 0.0)

    def test_transverse_values_one_over_r(self, flat_warp):
        c = connection(flat_warp, Point(1.0, 5.0))
        # -(h'/h) = +1/r = 1 at r = 1
        assert c.nabla_e2_e1 == (0.0, pytest.approx(1.0))

    def test_metric_compatibility_identities(self, warp_family):
        # On an orthonormal frame, X g(Y,Z) = 0, so compatibility demands
        # g(D_X Y, Z) + g(Y, D_X Z) = 0 for all frame triples.
        for w in warp_family.values():
            c = connection(w, Point(1.7, -0.2))
            frame = {1: (1.0, 0.0), 2: (0.0, 1.0)}
            deriv = {
                (1, 1): c.nabla_e1_e1,
                (1, 2): c.nabla_e1_e2,
                (2, 1): c.nabla_e2_e1,
                (2, 2): c.nabla_e2_e2,
            }
            dot = lambda x, y: x[0] * y[0] + x[1] * y[1]  # noqa: E731
            for X in (1, 2):
                for Y in (1, 2):
                    for Z in (1, 2):
                        total = dot(deriv[(X, Y)], frame[Z]) + dot(
                            frame[Y], deriv[(X, Z)]
                        )
                        assert total == pytest.approx(0.0, abs=1e-12)

    def test_bracket_relation_finite_difference(self, warp_family):
        # [d/dr, h d/dt] = h' d/dt = (h'/h) (h d/dt): the numeric content is
        # that h' agrees with the central difference of h.
        for w in warp_family.values():
            r = 1.4
            d = 1e-6
            fd = (w.h(r + d) - w.h(r - d)) / (2 * d)
            assert float(w.dh(r)) == pytest.approx(fd, rel=1e-6, abs=1e-6)


class TestSectionalCurvature:
    def test_flat_metric_is_flat(self, flat_warp, rng):
        rs = rng.uniform(0.01, 100.0, size=50)
        assert np.all(np.asarray(sectional_curvature(flat_warp, rs)) == 0.0)

    def test_r_metric_values(self, neg2_warp):
        assert sectional_curvature(neg2_warp, 1.0) == pytest.approx(-2.0, abs=1e-14)
        assert sectional_curvature(neg2_warp, 2.0) == pytest.approx(-0.5, abs=1e-14)

    def test_exp_metric_constant(self):
        w = warp_exp()
        for r in (0.2, 1.0, 30.0):
            assert sectional_curvature(w, r) == -1.0

    def test_generic_route_agrees(self, warp_family):
        for w in warp_family.values():
            lo = w.domain.lo
            hi = min(w.domain.hi - 0.2, 4.5)
            rs = np.linspace(max(lo + 0.3, 0.3), hi, 40)
            auto = np.asarray(sectional_curvature(w, rs))
            generic = np.asarray(sectional_curvature(w, rs, method="generic"))
            assert np.max(np.abs(auto - generic)) < 1e-9 * np.max(1.0 + np.abs(auto))

    def test_custom_warp_uses_generic_formula(self):
        w = warp_custom(lambda r: np.asarray(r, dtype=float), domain=(0.0, 50.0))
        assert sectional_curvature(w, 2.0) == pytest.approx(-0.5, rel=1e-6)

    def test_unknown_method(self, flat_warp):
        with pytest.raises(ValueError):
            sectional_curvature(flat_warp, 1.0, method="magic")

    # Where the generic formula raises on Python floats, its value is the
    # array route's: h*h underflows to zero on neg2(1e-300, 1, 1) at r = 1,
    # and h'^2 overflows on flat(1e200, 5) at r = 4.9.  Both read nan, and
    # on numpy values with no RuntimeWarning.
    @pytest.mark.parametrize("spec, r", [("neg2:1e-300,1,1", 1.0), ("flat:1e200,5", 4.9)],
                             ids=["h-squared-underflows", "dh-squared-overflows"])
    def test_generic_formula_reads_as_numpy(self, spec, r):
        w = make_warp(spec)
        k = sectional_curvature(w, r, method="generic")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (want,) = sectional_curvature(w, np.array([r]), method="generic")
            k64 = sectional_curvature(w, np.float64(r), method="generic")
        assert type(k) is float
        np.testing.assert_equal((k, want, k64), (math.nan, math.nan, math.nan))


class TestCurvatureOracle:
    @pytest.mark.parametrize(
        "maker,r,expected",
        [
            (warp_one_over_r, 1.0, 0.0),
            (warp_r, 1.0, -2.0),
            (warp_exp, 2.0, -1.0),
        ],
    )
    def test_reference_points(self, maker, r, expected):
        assert curvature_oracle(maker(), r, 1e-3) == pytest.approx(expected, abs=1e-5)

    def test_agreement_across_families(self, warp_family):
        # |K - K_oracle| <= 10 step^2 on 100 interior samples per family.
        step = 1e-3
        for name, w in warp_family.items():
            lo = max(w.domain.lo + 0.3, 0.3)
            hi = min(w.domain.hi - 0.3, 4.5) if math.isfinite(w.domain.hi) else 4.5
            rs = np.linspace(lo, hi, 100)
            for r in rs:
                k = float(sectional_curvature(w, float(r)))
                ko = curvature_oracle(w, float(r), step)
                assert abs(k - ko) <= 10.0 * step * step, (name, r)

    def test_stencil_domain_guard(self):
        w = warp_flat(1.0, 5.0)
        with pytest.raises(DomainError):
            curvature_oracle(w, 4.9995, 1e-3)

    def test_rejects_bad_step(self, flat_warp):
        with pytest.raises(ValueError, match="^step must be positive and finite, got 0.0$"):
            curvature_oracle(flat_warp, 1.0, 0.0)

    @pytest.mark.parametrize("step", [-1e-3, math.nan, math.inf, -math.inf])
    def test_step_must_be_positive_and_finite(self, neg2_warp, step):
        # A nan or infinite step is refused by name, not as a stencil that
        # leaves the domain.
        with pytest.raises(ValueError, match=f"^step must be positive and finite, got {step!r}$"):
            curvature_oracle(neg2_warp, 1.0, step)

    STENCIL_WARPS = {
        "one_over_r": warp_one_over_r(),
        "r": warp_r(),
        "exp": warp_exp(),
        "flat(2,5)": warp_flat(2.0, 5.0),
        "neg2(1,1,1)": warp_neg2(1.0, 1.0, 1.0),
        "custom r**1.5": warp_custom(lambda r: r**1.5, domain=(0.0, math.inf)),
        "custom 1/(3-r)": warp_custom(lambda r: 1.0 / (3.0 - r),
                                      lambda r: 1.0 / ((3.0 - r) * (3.0 - r)), domain=(0.0, 3.0)),
    }

    @staticmethod
    def by_contains(w, r, step):
        """The oracle on Domain.contains at each outer stencil point and five
        widths ``1.0 / w.h_unchecked(x)``: the reference whose bits, type and
        messages the one comparison pair and the raw h keep."""
        if step <= 0.0:
            raise ValueError("step must be positive")
        r = float(r)
        for probe in (r - 2 * step, r + 2 * step):
            if not w.domain.contains(probe):
                raise DomainError(f"finite-difference stencil [{r - 2 * step}, {r + 2 * step}] "
                                  f"leaves domain ({w.domain.lo}, {w.domain.hi})")
        width = lambda x: 1.0 / w.h_unchecked(x)  # noqa: E731
        try:
            w0 = width(r)
            wpp = (-width(r + 2 * step) + 16.0 * width(r + step) - 30.0 * w0
                   + 16.0 * width(r - step) - width(r - 2 * step)) / (12.0 * step * step)
            return -wpp / w0
        except ZeroDivisionError:
            return math.nan

    @staticmethod
    def crossing(r, inside, outward):
        """The last radius outside and the first inside, one ulp apart,
        walked to from r, a few ulps from the crossing."""
        while inside(r):
            r = math.nextafter(r, outward)
        while not inside(math.nextafter(r, -outward)):
            r = math.nextafter(r, -outward)
        return [r, math.nextafter(r, -outward)]

    @pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-2])
    @pytest.mark.parametrize("name", list(STENCIL_WARPS))
    def test_bits_match_the_contains_route(self, name, step):
        w = self.STENCIL_WARPS[name]
        lo, hi = w.domain.lo + DOMAIN_MARGIN, w.domain.hi - DOMAIN_MARGIN
        # Where the outer stencil point crosses each finite margin.
        edges = self.crossing(lo + 2 * step, lambda r: lo < r - 2 * step, -math.inf)
        if math.isfinite(hi):
            edges += self.crossing(hi - 2 * step, lambda r: r + 2 * step < hi, math.inf)
        radii = edges + [0.5, 1.5, np.float64(1.5), np.float64(2.25), 2, math.nan,
                         math.inf, -math.inf]

        def outcome(oracle, r):
            try:
                v = oracle(w, r, step)
            except ValueError as exc:  # DomainError is one
                return type(exc).__name__, str(exc)
            return type(v).__name__, float(v).hex()

        got = [outcome(curvature_oracle, r) for r in radii]
        assert got == [outcome(self.by_contains, r) for r in radii]
        # Each crossing pair is one refusal, then one value.
        for i in range(0, len(edges), 2):
            assert got[i][0] == "DomainError" and got[i + 1][0] != "DomainError", (i, got[i:i + 2])


class TestConstruction:
    """Point and TangentVector write their fields straight into the instance
    and then run ``__post_init__``, the one check of every construction
    (and the hook that perfbench's tracer counts); scalar checked
    evaluations make one ``Domain.require`` call each."""

    def test_each_construction_runs_the_hook_once(self, monkeypatch, neg2_warp):
        calls = {Point: 0, TangentVector: 0}
        for cls in calls:
            def spy(obj, cls=cls, orig=cls.__post_init__):
                calls[cls] += 1
                orig(obj)

            monkeypatch.setattr(cls, "__post_init__", spy)
        p = Point(1.5, 0.25)
        q = Point(r=1.5, t=0.25)
        assert calls == {Point: 2, TangentVector: 0}
        u = TangentVector(0.5, -1.0, p)
        apply_J(neg2_warp, u)
        vector_from_frame(neg2_warp, q, 0.3, 0.4)
        TangentVector(dr=0.5, dt=-1.0, base=q)
        assert calls == {Point: 2, TangentVector: 4}
        dataclasses.replace(p, t=1.0)
        dataclasses.replace(u, dr=2.0)
        assert calls == {Point: 3, TangentVector: 5}

    def test_frozen_dataclass_semantics(self):
        p, q = Point(1.5, 0.25), Point(r=1.5, t=0.25)
        u, v = TangentVector(0.5, -1.0, p), TangentVector(dr=0.5, dt=-1.0, base=q)
        assert p == q and hash(p) == hash(q) and p != Point(1.5, 0.5)
        assert u == v and hash(u) == hash(v) and u != TangentVector(0.5, 1.0, p)
        assert repr(p) == "Point(r=1.5, t=0.25)"
        assert repr(u) == "TangentVector(dr=0.5, dt=-1.0, base=Point(r=1.5, t=0.25))"
        assert [f.name for f in dataclasses.fields(u)] == ["dr", "dt", "base"]
        assert dataclasses.astuple(u) == (0.5, -1.0, (1.5, 0.25))
        for obj, name in ((p, "r"), (p, "t"), (u, "dr"), (u, "base")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 2.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        with pytest.raises(TypeError):
            Point(1.0)
        with pytest.raises(TypeError):
            TangentVector(1.0, 2.0, p, 3.0)

    def test_float64_components_stay_float64(self, neg2_warp):
        p = Point(np.float64(1.5), np.float64(0.25))
        u = TangentVector(np.float64(0.5), np.float64(-1.0), p)
        assert {type(x) for x in (p.r, p.t, u.dr, u.dt)} == {np.float64}
        ju = apply_J(neg2_warp, u)
        assert type(ju.dr) is np.float64 and type(ju.dt) is np.float64
        # A checked scalar evaluation runs the evaluator on a Python float.
        assert type(neg2_warp.log_deriv(p.r)) is float

    @pytest.mark.parametrize("make, message", [
        (lambda: Point(math.nan, 0.0), "point coordinates must be finite"),
        (lambda: Point(1.0, -math.inf), "point coordinates must be finite"),
        (lambda: Point(np.float64(np.inf), 0.0), "point coordinates must be finite"),
        (lambda: Point(0.0, 0.0), "point requires r > 0, got r=0.0"),
        (lambda: Point(np.float64(-2.0), 1.0), "point requires r > 0, got r=-2.0"),
        (lambda: Point(-1, 1.0), "point requires r > 0, got r=-1"),
        (lambda: TangentVector(math.nan, 0.0, Point(1.0, 0.0)),
         "tangent vector components must be finite"),
        (lambda: TangentVector(0.0, np.float64(-np.inf), Point(1.0, 0.0)),
         "tangent vector components must be finite"),
        (lambda: TangentVector(1, math.inf, Point(1.0, 0.0)),
         "tangent vector components must be finite"),
        (lambda: TangentVector(np.array(math.nan), 1, Point(1.0, 0.0)),
         "tangent vector components must be finite"),
        (lambda: kahler_form(warp_r(), _vec(None, 1.0, 0.0, 1.0, 0.0), _vec(None, 1.0, 1.0, 0.0, 1.0)),
         "base-point mismatch: Point(r=1.0, t=0.0) vs Point(r=1.0, t=1.0)"),
        (lambda: warp_r().h(0.0), "radius 0.0 outside open domain (0.0, inf)"),
        (lambda: warp_r().h(math.nan), "radius nan outside open domain (0.0, inf)"),
        (lambda: warp_r().h(np.float64(-1.0)),
         "radius np.float64(-1.0) outside open domain (0.0, inf)"),
        (lambda: warp_r().h(-3), "radius -3 outside open domain (0.0, inf)"),
        (lambda: warp_r().h(np.array([1.0, -2.0, -3.0])),
         "radius -2.0 outside open domain (0.0, inf)"),
        (lambda: warp_flat(1.0, 2.0).dh(2.0), "radius 2.0 outside open domain (0.0, 2.0)"),
    ])
    def test_messages(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message

    def test_array_components_are_refused(self):
        # math.isfinite converts no array of several elements to a float.
        with pytest.raises(TypeError):
            TangentVector(np.array([1.0, 2.0]), 0.0, Point(1.0, 0.0))

    def test_one_counted_domain_check_per_evaluation(self, monkeypatch, neg2_warp):
        # require answers a float itself and asks contains only otherwise.
        calls = {"require": 0, "contains": 0}
        for name in calls:
            def counted(self, r, name=name, orig=getattr(Domain, name)):
                calls[name] += 1
                return orig(self, r)

            monkeypatch.setattr(Domain, name, counted)
        p = Point(np.float64(1.5), 0.0)
        u = TangentVector(1.0, 2.0, p)
        kahler_form(neg2_warp, u, apply_J(neg2_warp, u))
        neg2_warp.h(1.5)
        assert calls == {"require": 3, "contains": 0}
        neg2_warp.h(np.array([1.0, 2.0]))
        neg2_warp.log_deriv(2)
        assert calls == {"require": 5, "contains": 2}
