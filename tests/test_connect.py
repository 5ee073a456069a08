import math
import sys

import numpy as np
import pytest
from test_geodesics import child_stdout

from warpgeo import (
    DEFAULT_TOL,
    ESCAPE_MARGIN,
    FlatGeodesic,
    Point,
    chord_angle,
    connect_flat,
    connect_neg2,
    connect_neg2_same_r,
    distance_flat,
    flat_chord_candidates,
    projected_distance,
    same_r_candidates,
)
from warpgeo import connect as connect_module
from warpgeo import geodesics


def euclid_chord(p0: Point, p1: Point) -> float:
    """Independent oracle: the flat metric develops onto the Euclidean plane
    via (r, t) -> (r cos t, r sin t), where geodesic distance is the chord."""
    return math.sqrt(
        p0.r**2 + p1.r**2 - 2.0 * p0.r * p1.r * math.cos(p1.t - p0.t)
    )


def random_admissible_pair(rng, gap_hi=math.pi - 0.05):
    r0, r1 = rng.uniform(0.3, 4.0, size=2)
    t0 = rng.uniform(-3.0, 3.0)
    dt = rng.uniform(0.02, gap_hi) * rng.choice([-1.0, 1.0])
    return Point(r0, t0), Point(r1, t0 + dt)


class TestConnectFlat:
    def test_horizontal(self):
        res = connect_flat(Point(1.0, 0.0), Point(2.0, 0.0))
        assert res.variant == "horizontal"
        assert res.length == pytest.approx(1.0)

    def test_threshold_violated_at_pi(self):
        res = connect_flat(Point(1.0, 0.0), Point(1.0, math.pi))
        assert res.variant == "no_geodesic"
        assert res.reason == "threshold_violated"

    def test_quarter_turn_solution(self):
        mp = pytest.importorskip("mpmath")
        res = connect_flat(Point(1.0, 0.0), Point(1.0, math.pi / 2.0))
        assert res.variant == "found"
        # The double nearest pi/2 is 6e-17 short of it, which puts the
        # correctly rounded chord 2 sin(t1/2) one ulp below sqrt(2).
        with mp.workdps(30):
            assert res.s == float(2 * mp.sin(mp.mpf(math.pi / 2.0) / 2))
        assert res.param == -res.s / 2.0
        assert res.sign == 1.0

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            connect_flat(Point(1.0, 0.0), Point(1.0, 0.0))

    def test_replay_consistency(self, rng):
        for _ in range(15):
            p0, p1 = random_admissible_pair(rng)
            res = connect_flat(p0, p1)
            assert res.variant == "found"
            end = res.path.endpoint
            assert abs(end.r - p1.r) <= 1e-9
            assert abs(end.t - p1.t) <= 1e-9

    def test_first_crossing_targets(self):
        # Target radius below the start with a small transverse gap: the
        # connecting geodesic meets r1 while still descending, the case that
        # breaks a "later crossing only" shooting reduction.
        res = connect_flat(Point(2.0, 0.0), Point(1.0, 0.3))
        assert res.variant == "found"
        assert res.length == pytest.approx(
            euclid_chord(Point(2.0, 0.0), Point(1.0, 0.3)), abs=1e-9
        )

    def test_negative_gap_mirrored(self):
        res = connect_flat(Point(1.0, 0.0), Point(1.5, -1.0))
        assert res.variant == "found" and res.sign == -1.0
        end = res.path.endpoint
        assert end.t == pytest.approx(-1.0, abs=1e-9)

    def test_matches_euclidean_chord(self, rng):
        for _ in range(25):
            p0, p1 = random_admissible_pair(rng)
            res = connect_flat(p0, p1)
            assert res.length == pytest.approx(euclid_chord(p0, p1), abs=1e-9)

    def test_near_half_turn_target(self):
        # The chord passes r = 0 at about 0.44 (pi - dt) = 2.4e-8.
        p0, p1 = Point(4.0, 0.0), Point(0.5, 3.1415926)
        res = connect_flat(p0, p1)
        assert res.variant == "found"
        assert res.s == pytest.approx(euclid_chord(p0, p1), abs=1e-12)

    def test_near_half_turn_found_outside_escape_margin(self, rng):
        # The connecting chord passes the origin at a distance of about
        # gap r0 r1 / (r0 + r1).  Outside the integrator's escape margin the
        # connection is found; inside it the replay escapes and the verdict
        # is search_exhausted, never an error.
        verdicts = set()
        for _ in range(80):
            r0, r1 = rng.uniform(0.2, 5.0, size=2)
            gap = 10.0 ** rng.uniform(-10.0, -6.0)
            res = connect_flat(Point(r0, 0.0), Point(r1, math.pi - gap))
            perihelion = gap * r0 * r1 / (r0 + r1)
            if perihelion > 2.0 * ESCAPE_MARGIN:
                assert res.variant == "found"
            elif perihelion < 0.5 * ESCAPE_MARGIN:
                assert res.reason == "search_exhausted"
            verdicts.add(res.variant)
        assert verdicts == {"found", "no_geodesic"}

    @pytest.mark.parametrize("decade", [-9, -8, -7])
    def test_small_gaps_to_half_turn_match_law_of_cosines(self, decade, rng):
        mp = pytest.importorskip("mpmath")
        for _ in range(15):
            r0, r1 = rng.uniform(0.5, 5.0, size=2)
            t0 = rng.uniform(-3.0, 3.0)
            gap = 10.0 ** rng.uniform(decade, decade + 1)
            p0 = Point(r0, t0)
            p1 = Point(r1, t0 + float(rng.choice([-1.0, 1.0])) * (math.pi - gap))
            res = connect_flat(p0, p1)
            assert res.variant == "found"
            with mp.workdps(30):
                a, b = mp.mpf(p0.r), mp.mpf(p1.r)
                chord = mp.sqrt(a * a + b * b - 2 * a * b * mp.cos(mp.mpf(p1.t) - p0.t))
                assert abs(res.s - chord) <= 1e-12

    @pytest.mark.parametrize("r", [0.3, 1.0, 4.0])
    def test_equal_radii_small_gaps(self, r):
        # The chord 2 r sin(dt/2) leaves the inner point at an elevation of
        # -dt/2, which the solver resolves to a few ulps however small dt is.
        mp = pytest.importorskip("mpmath")
        for dt in [1e-300, 1e-100, 1e-16, *np.geomspace(1e-12, 1e-6, 25).tolist()]:
            res = connect_flat(Point(r, 0.0), Point(r, dt))
            assert res.variant == "found"
            with mp.workdps(30):
                chord = 2 * mp.mpf(r) * mp.sin(mp.mpf(dt) / 2)
                assert abs(res.s - chord) <= 1e-15 * chord
            assert res.param == pytest.approx(-res.s / 2.0, rel=1e-12)

    def test_escape_margin_edge_exhausts_without_retry(self, monkeypatch):
        # README's target 3.2e-15 short of a half turn: the chord would pass
        # r = 0 well inside the escape margin.  The verdict is an honest
        # search_exhausted, and no replay runs.  At a gap of 1.6e-10 the
        # perihelion, 8e-11, lies inside the margin but outside half of it:
        # the shot is replayed once, sampling only its two ends, and
        # escapes.
        calls = []
        replay = connect_module.integrate
        monkeypatch.setattr(
            connect_module, "integrate", lambda *a, **kw: calls.append(kw) or replay(*a, **kw)
        )
        res = connect_flat(Point(1.0, 0.0), Point(1.0, 3.14159265358979))
        assert (res.reason, res.iterations, calls) == ("search_exhausted", 6, [])
        res = connect_flat(Point(1.0, 0.0), Point(1.0, math.pi - 1.6e-10))
        assert res.reason == "search_exhausted"
        assert calls == [{"n_samples": 2}]

    def test_replay_skip_keeps_every_verdict(self, monkeypatch):
        # Seeded pairs whose chord passes r = 0 at 1e-12 to 1e-9, and at
        # 3e-11 to 6e-11 around half the escape margin, over radii 1e-2 to
        # 1e2.  With connect's ESCAPE_MARGIN at 0 no shot is skipped, and
        # every one is replayed as without the skip: the results must be
        # the same, and each replay that the skip saved must have escaped.
        rng = np.random.default_rng(2026)
        replays = []
        replay = connect_module.integrate
        monkeypatch.setattr(connect_module, "integrate",
                            lambda *a, **kw: replays.append(replay(*a, **kw)) or replays[-1])
        skipped, found = 0, 0
        for i in range(240):
            r0, r1 = (float(r) for r in 10.0 ** rng.uniform(-2.0, 2.0, size=2))
            perihelion = float(10.0 ** rng.uniform(-12.0, -9.0) if i % 2 else
                               rng.uniform(3e-11, 6e-11))
            dt = (math.pi - perihelion * (r0 + r1) / (r0 * r1)) * (1.0 if i % 4 < 2 else -1.0)
            p0, p1 = Point(r0, 0.5), Point(r1, 0.5 + dt)
            del replays[:]
            got = connect_flat(p0, p1)
            skip = not replays
            with monkeypatch.context() as m:
                m.setattr(connect_module, "ESCAPE_MARGIN", 0.0)
                assert connect_flat(p0, p1).to_dict() == got.to_dict()
            if skip:
                assert len(replays) == 1 and replays[0].escaped
            skipped += skip
            found += got.found
        assert 100 < skipped < 200 and found > 20

    @pytest.mark.parametrize("solver", [connect_flat, connect_neg2])
    def test_failed_replay_is_unconfirmed(self, monkeypatch, solver):
        # A replay whose solver fails (its step size underflows) confirms
        # nothing; the verdict is search_exhausted, not the solver's error.
        def failing(*args, **kwargs):
            raise ValueError("geodesic integration failed")

        monkeypatch.setattr(connect_module, "integrate", failing)
        res = solver(Point(1.0, 0.0), Point(1.0, 1.0))
        assert res.reason == "search_exhausted"


class TestTolerance:
    CALLS = {
        "connect_flat": lambda tol: connect_flat(Point(1.0, 0.0), Point(1.5, 1.0), tol=tol),
        "connect_neg2": lambda tol: connect_neg2(Point(1.0, 0.0), Point(1.5, 1.0), tol=tol),
        "connect_neg2_same_r": lambda tol: connect_neg2_same_r(1.0, 7.0, tol=tol),
        "same_r_candidates": lambda tol: same_r_candidates(1.0, 7.0, tol=tol),
        # The shooting solvers check tol before the pair: before the distinct
        # points, the horizontal segment and the flat half-turn threshold.
        "connect_flat:horizontal":
            lambda tol: connect_flat(Point(1.0, 0.5), Point(2.0, 0.5), tol=tol),
        "connect_flat:coincident":
            lambda tol: connect_flat(Point(1.0, 0.5), Point(1.0, 0.5), tol=tol),
        "connect_flat:half_turn":
            lambda tol: connect_flat(Point(1.0, 0.0), Point(1.5, math.pi), tol=tol),
        "connect_neg2:horizontal":
            lambda tol: connect_neg2(Point(1.0, 0.5), Point(2.0, 0.5), tol=tol),
        "connect_neg2:coincident":
            lambda tol: connect_neg2(Point(1.0, 0.5), Point(1.0, 0.5), tol=tol),
        "connect_neg2:half_turn":
            lambda tol: connect_neg2(Point(1.0, 0.0), Point(1.5, math.pi), tol=tol),
    }

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9, -math.inf, math.inf])
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_tol_must_be_positive_and_finite(self, name, tol):
        # A nan, zero or negative tol confirms nothing, and an infinite one
        # would confirm any replay, even one that escaped.
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol!r}$"):
            self.CALLS[name](tol)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_finite_tol_is_taken(self, name):
        if name.endswith(":coincident"):
            with pytest.raises(ValueError, match="^the two points must be distinct$"):
                self.CALLS[name](1e-6)
        else:
            assert self.CALLS[name](1e-6) is not None

    @pytest.mark.parametrize("name, verdict", [
        ("connect_flat:horizontal", "horizontal"),
        ("connect_flat:half_turn", "threshold_violated"),
        ("connect_neg2:horizontal", "horizontal"),
        ("connect_neg2:half_turn", "found"),
    ])
    def test_pair_gets_its_verdict_after_a_good_tol(self, name, verdict):
        res = self.CALLS[name](1e-6)
        assert verdict in (res.variant, res.reason)


class TestChordCandidates:
    def test_quarter_turn_versions_coincide(self):
        # With cos(dt) = 0 both closed-form versions give s^2 = 2.
        cands = flat_chord_candidates(Point(1.0, 0.0), Point(1.0, math.pi / 2.0))
        best = cands[0]
        assert best.s == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert best.miss < 1e-12

    def test_adjudication_pair(self):
        # (1,0)-(2,1): the law-of-cosines '-' branch gives s^2 = 5 - 4 cos 1
        # and is the only candidate that replays onto the target; the
        # squared-cosine variants are refuted.
        p0, p1 = Point(1.0, 0.0), Point(2.0, 1.0)
        cands = flat_chord_candidates(p0, p1)
        best = cands[0]
        assert best.source == "law_of_cosines"
        assert best.inner_sign == -1 and best.outer_sign == +1
        assert best.s**2 == pytest.approx(5.0 - 4.0 * math.cos(1.0), rel=1e-12)
        assert best.miss < 1e-12
        oracle_s = connect_flat(p0, p1).s
        assert best.s == pytest.approx(oracle_s, abs=1e-8)
        cos2 = [c for c in cands if c.source == "cos_squared"]
        assert {round(c.s**2, 3) for c in cos2 if math.isfinite(c.s)} <= {
            round(5.0 + 8.0 * math.cos(1.0) ** 2, 3),
            round(5.0 - 8.0 * math.cos(1.0) ** 2, 3),
        }
        assert all(c.miss > 1e-3 for c in cos2)
        # Each refuted case has an infinite miss: no real s (s and a are
        # nan), s == 0 (a is nan) and |a| >= r0.  cos(1e-9) rounds to 1, so
        # equal radii give s^2 = 0 on the inner sign -1.
        def refuted(p0, p1):
            return [(c.source, c.inner_sign, c.outer_sign, repr(c.s), repr(c.a))
                    for c in flat_chord_candidates(Point(*p0), Point(*p1)) if c.miss == math.inf]

        assert refuted((2.0, 0.0), (2.0, 0.5)) == [
            ("cos_squared", 1, 1, "5.7135660400392885", "-2.8567830200196442"),
            ("cos_squared", 1, -1, "-5.7135660400392885", "2.8567830200196442"),
            ("cos_squared", -1, 1, "nan", "nan"),
            ("cos_squared", -1, -1, "nan", "nan"),
        ]
        assert refuted((1.0, 0.0), (1.0, 1e-9)) == [
            (source, inner, outer, s, a)
            for source in ("law_of_cosines", "cos_squared")
            for inner, outer, s, a in ((1, 1, "2.0", "-1.0"), (1, -1, "-2.0", "1.0"),
                                       (-1, 1, "0.0", "nan"), (-1, -1, "-0.0", "nan"))
        ]

    def test_overflowing_variant_is_refuted(self):
        # At r = 1e80 the squared-cosine s^2 overflows, and its candidates
        # get an infinite miss; the law of cosines still replays.
        cands = flat_chord_candidates(Point(1e80, 0.0), Point(1e80, 1.0))
        assert (cands[0].source, cands[0].inner_sign, cands[0].miss) == ("law_of_cosines", -1, 0.0)
        assert [c.miss for c in cands if c.source == "cos_squared"] == [math.inf] * 4

    def test_requires_open_gap(self):
        with pytest.raises(ValueError):
            flat_chord_candidates(Point(1.0, 0.0), Point(2.0, 0.0))
        with pytest.raises(ValueError):
            flat_chord_candidates(Point(1.0, 0.0), Point(1.0, 3.5))

    def test_oracle_confirms_law_of_cosines(self, rng):
        for _ in range(15):
            p0, p1 = random_admissible_pair(rng)
            s_oracle = connect_flat(p0, p1).s
            expected_sq = (
                p0.r**2 + p1.r**2 - 2 * p0.r * p1.r * math.cos(p1.t - p0.t)
            )
            assert s_oracle**2 == pytest.approx(expected_sq, abs=1e-8)


class TestDistanceFlat:
    def test_horizontal_gap(self):
        assert distance_flat(Point(1.0, 0.0), Point(2.0, 0.0)) == pytest.approx(1.0)

    def test_quarter_turn(self):
        d = distance_flat(Point(1.0, 0.0), Point(1.0, math.pi / 2.0))
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_none_past_threshold(self):
        assert distance_flat(Point(1.0, 0.0), Point(1.0, math.pi)) is None

    def test_coincident_points(self):
        assert distance_flat(Point(1.0, 0.0), Point(1.0, 0.0)) == 0.0

    def test_symmetry(self, rng):
        for _ in range(10):
            p0, p1 = random_admissible_pair(rng)
            assert distance_flat(p0, p1) == pytest.approx(
                distance_flat(p1, p0), abs=1e-9
            )

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            tc = rng.uniform(-2.0, 2.0)
            pts = [
                Point(rng.uniform(0.3, 4.0), tc + rng.uniform(-1.4, 1.4))
                for _ in range(3)
            ]
            d01 = distance_flat(pts[0], pts[1])
            d12 = distance_flat(pts[1], pts[2])
            d02 = distance_flat(pts[0], pts[2])
            assert d01 is not None and d12 is not None and d02 is not None
            assert d01 + d12 >= d02 - 1e-9


class TestChordAngle:
    def test_reference_value(self):
        cp = chord_angle(Point(1.0, 0.0), Point(1.0, math.pi / 2.0))
        assert cp.alpha == pytest.approx(-math.pi / 4.0, abs=1e-12)

    def test_secant_constraint(self, rng):
        for _ in range(20):
            p0, p1 = random_admissible_pair(rng)
            alpha = chord_angle(p0, p1).alpha
            lhs = p0.r * math.cos(p0.t + alpha)
            rhs = p1.r * math.cos(p1.t + alpha)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_degenerate_pairs_rejected(self):
        with pytest.raises(ValueError):
            chord_angle(Point(1.0, 0.0), Point(2.0, 0.0))

    def test_projected_distance_identity(self, rng):
        for _ in range(20):
            p0, p1 = random_admissible_pair(rng)
            alpha = chord_angle(p0, p1).alpha
            assert projected_distance(p0, p1, alpha) == pytest.approx(
                distance_flat(p0, p1), abs=1e-9
            )

    def test_invariant_under_half_turn(self):
        p0, p1 = Point(1.0, 0.0), Point(2.0, 1.0)
        alpha = chord_angle(p0, p1).alpha
        assert projected_distance(p0, p1, alpha) == pytest.approx(
            projected_distance(p0, p1, alpha + math.pi), rel=1e-12
        )


class TestSweepSupremum:
    def test_transverse_sweep_below_pi(self):
        # Over the whole family through (1, t0), the transverse sweep stays
        # strictly below a half turn and approaches it near the family edge;
        # the a-grid is cosine-spaced so that nodes cluster at the edges.
        r0, S = 1.0, 1e4
        chi = np.linspace(1e-3, math.pi - 1e-3, 200)
        a_grid = -r0 * np.cos(chi)
        ss = np.linspace(0.0, S, 200)
        sup = 0.0
        for a in a_grid:
            geo = FlatGeodesic(r0=r0, t0=0.0, a=float(a), sign=1.0)
            sup = max(sup, float(np.max(np.abs(geo.angle(ss)))))
        assert sup < math.pi
        assert sup >= math.pi - 0.05


class TestSameRadius:
    def test_below_threshold_no_geodesic(self):
        res = connect_neg2_same_r(1.0, 1.0)
        assert res.variant == "no_geodesic"
        assert res.reason == "threshold_violated"

    def test_below_threshold_large_radius(self):
        res = connect_neg2_same_r(2.0, 1.0)
        assert res.variant == "no_geodesic"

    def test_boundary_candidate_confirmed(self):
        res = connect_neg2_same_r(1.0, math.pi)
        assert res.variant == "found"
        assert res.param == pytest.approx(1.0)
        assert res.s == pytest.approx(2.0 * math.pi)
        assert res.in_chart is False

    def test_two_turn_candidate(self):
        # |dt| = 2 pi: k = 2 gives b = 1, confirmed; k = 1 gives b = 1/2,
        # refuted by the formula replay (transverse gain |dt|/b).
        cands = same_r_candidates(1.0, 2.0 * math.pi)
        assert [c.k for c in cands] == [1, 2]
        assert [c.confirmed for c in cands] == [False, True]
        assert cands[0].formula_dt == pytest.approx(4.0 * math.pi)

    def test_exhausted_above_threshold(self):
        # pi < 4 but b = pi/4 != 1: the enumeration's candidate fails replay.
        res = connect_neg2_same_r(1.0, 4.0)
        assert res.variant == "no_geodesic"
        assert res.reason == "search_exhausted"

    def test_candidate_enumeration_protocol(self, rng):
        for _ in range(50):
            r0 = rng.uniform(0.2, 2.0)
            dt = rng.uniform(math.pi * r0, 8.0 * math.pi * r0)
            cands = same_r_candidates(r0, dt)
            k_max = int(math.floor(dt / (math.pi * r0) + 1e-12))
            assert [c.k for c in cands] == list(range(1, k_max + 1))
            for c in cands:
                assert c.s == pytest.approx(2.0 * dt)
                assert c.b == pytest.approx(c.k * math.pi / dt)
                assert c.b <= 1.0 / r0 + 1e-12

    def test_monotone_obstruction(self, rng):
        # No found verdict below the threshold, across random trials.
        for _ in range(200):
            r0 = rng.uniform(0.1, 3.0)
            dt = rng.uniform(1e-3, math.pi * r0 * (1.0 - 1e-9))
            res = connect_neg2_same_r(r0, float(rng.choice([-1.0, 1.0])) * dt)
            assert res.variant == "no_geodesic"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            connect_neg2_same_r(-1.0, 1.0)
        with pytest.raises(ValueError):
            connect_neg2_same_r(1.0, 0.0)

    @pytest.mark.parametrize("r0, dt, name", [
        (1.0, math.inf, "dt"), (1.0, -math.inf, "dt"), (1.0, math.nan, "dt"),
        (math.nan, 1.0, "r0"), (math.inf, 1.0, "r0"),
        pytest.param(10**400, 1.0, "r0", id="r0=10**400"),  # ints too large for a float
        pytest.param(1.0, -10**400, "dt", id="dt=-10**400"),
    ])
    def test_non_finite_input_is_named(self, r0, dt, name):
        for solve in (connect_neg2_same_r, same_r_candidates):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
                solve(r0, dt)

    def test_count_past_the_float_range(self):
        # At a subnormal r0, |dt|/(pi r0) overflows a float: the count is
        # taken at the largest float, and the search still ends at once.
        res = connect_neg2_same_r(5e-324, 7.0)
        assert res.to_dict() == {"variant": "no_geodesic", "reason": "search_exhausted",
                                 "iterations": int(sys.float_info.max)}

    @pytest.mark.parametrize("r0, dt", [(1.0, 1e308), (1.0, -1e308), (1e306, 1e308)])
    def test_length_past_the_float_range_is_named(self, r0, dt):
        # s = 2 |dt| overflows: no verdict can report that length, so the
        # call raises and names dt.  connect_neg2_same_r(1.0, 1e308) gave a
        # found verdict with an infinite length and a 308-digit count.
        message = r"^dt is too large: the length 2\|dt\| overflows at \|dt\| = 1e\+308$"
        with pytest.raises(ValueError, match=message):
            connect_neg2_same_r(r0, dt)
        with pytest.raises(ValueError, match=message):
            same_r_candidates(1e306, dt)  # 31 candidates, each of that length

    def test_length_at_the_float_range_is_reported(self):
        # At |dt| = max/2 the length is the largest float, and is reported.
        # Below the threshold no length is formed, so a huge dt is no error.
        half = sys.float_info.max / 2
        res = connect_neg2_same_r(1.0, half)
        assert (res.variant, res.length, res.s, res.param) == ("found", sys.float_info.max,
                                                                sys.float_info.max, 1.0)
        assert connect_neg2_same_r(1e308, 1e308).reason == "threshold_violated"
        assert same_r_candidates(1e308, 1e308) == []

    def test_candidate_list_is_bounded(self, monkeypatch):
        # Up to MAX_SAME_R_CANDIDATES the list is built; past it the count is
        # refused by name, before any candidate is made.
        monkeypatch.setattr(connect_module, "MAX_SAME_R_CANDIDATES", 3)
        assert [c.k for c in same_r_candidates(1.0, 3.5 * math.pi)] == [1, 2, 3]
        with pytest.raises(ValueError, match="^4 same-radius candidates, more than the 3 a "
                                             "list may hold$"):
            same_r_candidates(1.0, 4.5 * math.pi)

    def test_small_radius_list_is_refused_in_bounded_memory(self):
        # same_r_candidates(1e-8, 7.0) has about 2.2e8 candidates (tens of
        # GB): under this address-space cap a list of them raised MemoryError.
        code = (
            "import resource; "
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
            "from warpgeo import same_r_candidates\n"
            "try:\n    same_r_candidates(1e-8, 7.0)\n"
            "except ValueError as exc:\n    print(exc)"
        )
        assert child_stdout(code) == (
            "222816920 same-radius candidates, more than the 100000 a list may hold\n")

    def test_builds_no_candidate_list(self, monkeypatch):
        # 222,816 candidates lie below the momentum bound; the verdict needs
        # only their number and the first confirmed one.
        built = []

        class Counted(connect_module.SameRCandidate):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(connect_module, "SameRCandidate", Counted)
        res = connect_neg2_same_r(1e-5, 7.0)
        assert (res.variant, res.iterations) == ("no_geodesic", 222816)
        assert len(built) < 10

    def test_search_matches_the_enumeration(self, rng):
        # The candidates as first written: every k up to |dt|/(pi r0) with b
        # below the momentum bound, each confirmed when |dt|/b is within tol
        # of |dt|, and the first confirmed one reported.
        def enumerated(r0, dt, tol):
            adt = abs(dt)
            bs = [k * math.pi / adt for k in range(1, int(adt / (math.pi * r0) + 1e-12) + 1)]
            bs = [b for b in bs if not b > 1.0 / r0 + 1e-12]
            if math.pi * r0 > adt:
                return bs, {"variant": "no_geodesic", "reason": "threshold_violated",
                            "iterations": 0}
            for b in bs:
                if abs(adt / b - adt) <= tol:
                    return bs, {"variant": "found", "length": 2.0 * adt, "s": 2.0 * adt,
                                "param": b, "sign": math.copysign(1.0, dt), "in_chart": False,
                                "iterations": len(bs)}
            return bs, {"variant": "no_geodesic", "reason": "search_exhausted",
                        "iterations": len(bs)}

        found = 0
        for i in range(1200):
            r0 = float(10.0 ** rng.uniform(-2.0, 1.0))
            k = int(rng.integers(1, 40))
            if i % 4 == 0:
                dt = float(10.0 ** rng.uniform(-1.0, 2.0))
            elif i % 4 == 1:  # near a closure, |dt| = k pi
                dt = k * math.pi + float(rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-12, 0))
            elif i % 4 == 2:  # near the threshold and the momentum bound, |dt| = k pi r0
                dt = k * math.pi * r0 * (1.0 + float(rng.uniform(-1e-12, 1e-12)))
            else:  # below pi, where the bound can drop the last k
                r0 = float(10.0 ** rng.uniform(-12.0, -4.0))
                dt = k * math.pi * r0 * (1.0 - float(10.0 ** rng.uniform(-15.0, -11.0)))
            dt *= float(rng.choice([-1.0, 1.0]))
            tol = float(10.0 ** rng.uniform(-9.0, 0.7))
            bs, want = enumerated(r0, dt, tol)
            assert connect_neg2_same_r(r0, dt, tol).to_dict() == want, (r0, dt, tol)
            assert [c.b for c in same_r_candidates(r0, dt, tol)] == bs
            found += want["variant"] == "found"
        assert found > 100


class TestConnectNeg2:
    def test_horizontal(self):
        res = connect_neg2(Point(1.0, 0.0), Point(3.0, 0.0))
        assert res.variant == "horizontal"
        assert res.length == pytest.approx(2.0)

    def test_same_radius_apex_connection(self):
        # Honest shooting finds the over-the-apex geodesic joining (1, 0)
        # to (1, 1) entirely inside the half plane, although the same-radius
        # candidate enumeration reports an obstruction below pi r0 (its
        # formula-level candidates are a strict subset of the geometry; see
        # connect_neg2_same_r's docstring).
        res = connect_neg2(Point(1.0, 0.0), Point(1.0, 1.0))
        assert res.variant == "found"
        assert res.param == pytest.approx(0.9059496662898959, abs=1e-9)
        assert res.s == pytest.approx(0.96512852025989138, abs=1e-8)
        assert res.in_chart is True
        assert np.min(res.path.r) >= 1.0 - 1e-9  # stays at or above the start
        end = res.path.endpoint
        assert abs(end.r - 1.0) <= 1e-9 and abs(end.t - 1.0) <= 1e-9

    def test_regression_snapshot(self):
        # Frozen output of the shooting solver for a general-position pair.
        res = connect_neg2(Point(1.0, 0.0), Point(1.2, 0.1))
        assert res.variant == "found"
        assert res.s == pytest.approx(0.21962948469627136, abs=1e-10)
        assert res.param == pytest.approx(0.37483447129374625, abs=1e-10)
        assert res.sign == 1.0

    def test_descending_target(self):
        res = connect_neg2(Point(2.0, 0.0), Point(0.5, 0.4))
        assert res.variant == "found"
        end = res.path.endpoint
        assert abs(end.r - 0.5) <= 1e-9 and abs(end.t - 0.4) <= 1e-9

    def test_mirrored_gap(self):
        res = connect_neg2(Point(1.0, 0.0), Point(1.0, -2.0))
        assert res.variant == "found"
        end = res.path.endpoint
        assert end.t == pytest.approx(-2.0, abs=1e-9)

    def test_large_gap_via_wide_apex(self):
        res = connect_neg2(Point(1.0, 0.0), Point(1.0, 25.0))
        assert res.variant == "found"
        end = res.path.endpoint
        assert end.t == pytest.approx(25.0, abs=1e-8)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            connect_neg2(Point(1.0, 0.0), Point(1.0, 0.0))

    def test_huge_radii_return_cleanly(self):
        # At r ~ 1e160 and beyond the gain of the flattest arches overflows;
        # the search walks inward past those end nodes instead of bracketing
        # through infinities, and neither raises nor warns.
        for r0, r1, dt in [(1e200, 2e200, 1.0), (1e160, 5e160, 1.0), (1e165, 5e165, 1.0)]:
            p1 = Point(r1, dt)
            res = connect_neg2(Point(r0, 0.0), p1)
            if res.found:
                end = res.path.endpoint
                assert abs(end.r - p1.r) <= DEFAULT_TOL and abs(end.t - p1.t) <= DEFAULT_TOL

    @pytest.mark.parametrize("r0, r1", [(1.0, 2.0), (2.0, 1.0)])
    def test_gaps_near_the_apex_arrival(self, r0, r1):
        # The arch with b = 1/r_out meets the outer point at its apex; it
        # separates the rising arrivals from the over-apex ones.  There the
        # phase asin(b r_out) has infinite slope in b, but the gain is
        # smooth in the phase.  For (1, 2) that gap is 2 pi/3 + sqrt(3)/2.
        r_in, r_out = min(r0, r1), max(r0, r1)
        phi = math.asin(r_in / r_out)
        s_apex = (math.pi / 2.0 - phi) * r_out
        apex_gap = (s_apex + math.sin(2.0 * phi) * r_out / 2.0) * r_out / 2.0
        for offset in [0.0] + [sign * 10.0**e for e in range(-12, -5) for sign in (-1, 1)]:
            p1 = Point(r1, apex_gap + offset)
            res = connect_neg2(Point(r0, 0.0), p1)
            assert res.variant == "found"
            assert res.s == pytest.approx(s_apex, abs=1e-5)
            end = res.path.endpoint
            assert abs(end.r - p1.r) <= DEFAULT_TOL and abs(end.t - p1.t) <= DEFAULT_TOL


def recorded_shots(monkeypatch):
    """Patch connect._shoot to record the (shot, nodes, target) it is given."""
    calls = []
    shoot = connect_module._shoot

    def recording(w, p0, p1, tol, shot, nodes, read, escapes=None):
        calls.append((shot, nodes, abs(p1.t - p0.t)))
        return shoot(w, p0, p1, tol, shot, nodes, read, escapes)

    monkeypatch.setattr(connect_module, "_shoot", recording)
    return calls


def every_root(shot, nodes, target):
    """Reference scan: the miss at every node, and each sign change refined
    by the same brentq, as connect._shoot did before it bisected for one."""

    def miss(x):
        return shot(x)[1] - target

    vals = [miss(x) for x in nodes]
    roots = []
    for x0, x1, v0, v1 in zip(nodes, nodes[1:], vals, vals[1:]):
        if not (math.isfinite(v0) and math.isfinite(v1)):
            continue
        if v0 == 0.0:
            roots.append(x0)
        elif v0 * v1 < 0.0:
            roots.append(
                connect_module.brentq(miss, x0, x1, xtol=1e-300, rtol=8.9e-16, maxiter=200)
            )
    return roots


def neg2_pairs(rng, n):
    """Seeded h = r pairs: radii 1e-3 to 1e2, gaps 1e-6 to 1e3; a third at
    equal radii and a third 1e-12 to 1e-1 apart relative."""
    for k in range(n):
        r0 = 10.0 ** rng.uniform(-3.0, 2.0)
        r1 = [r0, r0 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -1.0)),
              10.0 ** rng.uniform(-3.0, 2.0)][k % 3]
        t0 = rng.uniform(-3.0, 3.0)
        gap = 10.0 ** rng.uniform(-6.0, 3.0) * rng.choice([-1.0, 1.0])
        yield Point(float(r0), float(t0)), Point(float(r1), float(t0 + gap))


# The computed rising-half gain is rounding noise below about 1.3e-8 r_out^2
# (cancellation in sin 2 theta - sin 2 phi) and can fall from node to node
# there; the tests hold it to rise from this multiple of r_out^2 up.
GAIN_FLOOR = 1e-7


class TestOneBracket:
    """_shoot bisects the nodes for the one sign change of the miss, which
    relies on the computed miss being monotone over them."""

    def test_miss_is_monotone_over_the_nodes(self, monkeypatch, rng):
        # h = r: the gain rises with the phase, from its rounding floor up;
        # at equal radii (the falling half only) everywhere.  Flat: the
        # sweep falls with the elevation over the three nodes.
        calls = recorded_shots(monkeypatch)
        ratios = [0.0, 1e-300, 1.0 - 1e-6, *rng.uniform(0.0, 1.0 - 1e-6, 200), 1.0]
        for rho in ratios:
            r_out = 10.0 ** rng.uniform(-3.0, 2.0)
            r_in = max(rho * r_out, 5e-324)
            for p0, p1 in [(Point(r_in, 0.0), Point(r_out, 1.0)),
                           (Point(r_out, 0.0), Point(r_in, -1.0))]:
                connect_neg2(p0, p1)
                shot, nodes, _ = calls.pop()
                gain = [shot(x)[1] for x in nodes]
                floor = 0.0 if r_in == r_out else GAIN_FLOOR * r_out**2
                assert all(g0 <= g1 or g0 < floor for g0, g1 in zip(gain, gain[1:]))
        for _ in range(200):
            r0, r1 = 10.0 ** rng.uniform(-3.0, 2.0, size=2)
            for p1 in [Point(r1, 1.0), Point(r0, -1.0)]:
                connect_flat(Point(r0, 0.0), p1)
                shot, nodes, _ = calls.pop()
                assert len(nodes) == 3
                sweep = [shot(x)[1] for x in nodes]
                assert sweep[0] >= sweep[1] >= sweep[2]

    def test_one_sign_change_and_its_root(self, monkeypatch, rng):
        calls = recorded_shots(monkeypatch)
        found = 0
        for p0, p1 in neg2_pairs(rng, 600):
            res = connect_neg2(p0, p1)
            shot, nodes, target = calls.pop()
            roots = every_root(shot, nodes, target)
            r_out = max(p0.r, p1.r)
            if target >= GAIN_FLOOR * r_out**2:
                assert len(roots) == 1
            if res.found:
                found += 1
                hits = [(shot(x)[0], math.sin(x) / r_out, math.copysign(1.0, shot(x)[2]))
                        for x in roots]
                assert (res.s, res.param, res.sign) in hits
                assert res.length == res.s
        assert found >= 400

    @pytest.mark.parametrize("solver, p0, p1, lower_end_finite", [
        # Only one node's gain is finite: the lower end walks inward to it,
        # and the upper end down to the node next to it.
        (connect_neg2, Point(1.0, 0.0), Point(1e300, 1.0), False),
        # The lower end is finite and the upper end walks down to node 1.
        (connect_flat, Point(1e200, 0.0), Point(2e200, 1.0), True),
    ], ids=["neg2", "flat"])
    def test_non_finite_bracket_is_exhausted(self, monkeypatch, solver, p0, p1,
                                             lower_end_finite):
        calls = recorded_shots(monkeypatch)
        res = solver(p0, p1)
        assert (res.variant, res.reason) == ("no_geodesic", "search_exhausted")
        ((shot, nodes, target),) = calls
        misses = [shot(x)[1] - target for x in nodes]
        assert math.isfinite(misses[0]) is lower_end_finite
        assert sum(map(math.isfinite, misses)) == 1
        # The two walks meet, and every node's miss is evaluated once.
        assert res.iterations == len(nodes)


class TestTranslationInvariance:
    def test_flat_connect_invariant(self, rng):
        for _ in range(5):
            p0, p1 = random_admissible_pair(rng)
            tau = rng.uniform(-5.0, 5.0)
            base = connect_flat(p0, p1)
            moved = connect_flat(
                Point(p0.r, p0.t + tau), Point(p1.r, p1.t + tau)
            )
            assert moved.variant == base.variant
            assert moved.length == pytest.approx(base.length, abs=1e-9)

    def test_neg2_connect_invariant(self, rng):
        p0, p1 = Point(1.0, 0.3), Point(1.4, 1.1)
        base = connect_neg2(p0, p1)
        tau = 2.7
        moved = connect_neg2(Point(p0.r, p0.t + tau), Point(p1.r, p1.t + tau))
        assert moved.variant == base.variant == "found"
        assert moved.length == pytest.approx(base.length, abs=1e-9)


class TestSerialization:
    def test_found_result_dict(self):
        res = connect_flat(Point(1.0, 0.0), Point(1.0, 1.0))
        d = res.to_dict()
        assert d["variant"] == "found"
        assert set(d) >= {"length", "s", "param", "sign", "iterations"}

    def test_no_geodesic_dict(self):
        d = connect_flat(Point(1.0, 0.0), Point(1.0, 3.5)).to_dict()
        assert d == {"variant": "no_geodesic", "reason": "threshold_violated", "iterations": 0}


def lazy_path_pairs(seed: int):
    """Seeded pairs for both solvers: flat gaps across the range and 1e-8 to
    1e-3 short of a half turn, and h = r pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        p0, p1 = random_admissible_pair(rng)
        yield connect_flat, p0, p1
        gap = (math.pi - 10.0 ** rng.uniform(-8.0, -3.0)) * rng.choice([-1.0, 1.0])
        yield connect_flat, p0, Point(p1.r, p0.t + gap)
        yield connect_neg2, p0, p1


class TestLazyPath:
    def test_path_is_the_eager_replay(self, monkeypatch):
        # The confirming replay samples only its two ends.  The path read
        # later comes from the same solve, and must be what an eager
        # integrate from the same state gives, bit for bit, counts included.
        replays = []
        integrate = connect_module.integrate

        def recording(w, init, s, **kwargs):
            replays.append((integrate(w, init, s, **kwargs), w, init, s))
            return replays[-1][0]

        monkeypatch.setattr(connect_module, "integrate", recording)
        for solver, p0, p1 in lazy_path_pairs(11):
            res = solver(p0, p1)
            assert res.found
            w, init, s = next(rest for replay, *rest in replays if replay is res._replay)
            assert (init.r, init.t) == (p0.r, p0.t) and s == res.s
            want, got = integrate(w, init, s), res.path
            assert res.path is got
            for name in "srtfg":
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert (got.escaped, got.total_length) == (want.escaped, want.total_length)
            assert got.stats == want.stats

    def test_unread_path_builds_no_middle_interpolant(self, monkeypatch):
        sols = []
        solve = geodesics.solve_ivp

        def recording(*args, **kwargs):
            sols.append(solve(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(geodesics, "solve_ivp", recording)
        for solver, p0, p1 in lazy_path_pairs(12):
            assert solver(p0, p1).found
        assert max(len(sol.t) for sol in sols) > 10
        for sol in sols:
            built = {i for i, F in enumerate(sol.sol._coefficients) if F is not None}
            assert built <= {0, len(sol.t) - 2}
