import math

import numpy as np
import pytest

from warpgeo import (
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
        res = connect_flat(Point(1.0, 0.0), Point(1.0, math.pi / 2.0))
        assert res.variant == "found"
        assert res.s == pytest.approx(math.sqrt(2.0), abs=1e-10)
        assert res.param == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-10)
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

    def test_array_sweep_matches_scalar_reference(self, rng):
        # connect_flat scans its seeds with one array call; the bracket and
        # the iteration count stay those of a per-seed scalar loop only if
        # the two agree bit for bit.
        from warpgeo.connect import _flat_sweep_angle

        for _ in range(50):
            r0, r1 = rng.uniform(0.05, 8.0, size=2)
            grid = np.sort(rng.uniform(abs(r1 - r0), r0 + r1, size=97))
            scalar = [float(_flat_sweep_angle(x, r0, r1)) for x in grid]
            assert _flat_sweep_angle(grid, r0, r1).tolist() == scalar


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
