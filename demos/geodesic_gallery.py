"""Geodesics of the two featured metrics: closed forms, integration, escape.

For h = 1/r (the flat metric dr^2 + r^2 dt^2) the non-horizontal geodesics
through a point form a one-parameter family with an explicit radius and a
continuous transverse angle; they never reach the boundary r = 0.  For
h = r (curvature -2/r^2) every non-horizontal geodesic is a single sine
arch that starts and ends on the boundary at finite arc length.  In both
metrics the inward horizontal ray from (1, 0) reaches the boundary after
arc length exactly 1: a finite-length inextendible geodesic, which is what
"not geodesically complete" means concretely.

This script integrates small fans of geodesics, checks them against the
closed forms, writes the paths to CSV, and prints the escape lengths.

Run:  python demos/geodesic_gallery.py [--out DIR]
"""

import argparse
import math
import pathlib

import numpy as np

from warpgeo import (
    FlatGeodesic,
    GeodesicState,
    Neg2Geodesic,
    escape_length,
    integrate,
    warp_one_over_r,
    warp_r,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_output", help="output directory")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    flat, neg2 = warp_one_over_r(), warp_r()

    print("Flat metric fan from (1, 0): family parameter a = initial radial speed")
    worst = 0.0
    for i, a in enumerate((-0.8, -0.4, 0.0, 0.4, 0.8)):
        geo = FlatGeodesic(r0=1.0, t0=0.0, a=a, sign=1.0)
        path = integrate(flat, geo.initial_state(), 4.0, n_samples=201)
        path.to_csv(outdir / f"flat_fan_{i}.csv")
        r_cf, t_cf = geo.point(path.s)
        worst = max(worst, float(np.max(np.abs(path.r - r_cf))),
                    float(np.max(np.abs(path.t - t_cf))))
        turning = math.sqrt(geo.beta)
        print(f"  a = {a:+.1f}: turning radius {turning:.3f}, "
              f"endpoint ({path.endpoint.r:.3f}, {path.endpoint.t:.3f})")
    print(f"  closed form vs integration, worst deviation: {worst:.2e}\n")

    print("h = r fan from (1, 0): arches indexed by transverse momentum b")
    for i, b in enumerate((0.25, 0.5, 0.75, 1.0)):
        geo = Neg2Geodesic(r0=1.0, t0=0.0, b=b, sign=1.0)
        s_end = geo.arch()[1]
        path = integrate(neg2, geo.initial_state(), s_end + 1.0, n_samples=201)
        path.to_csv(outdir / f"neg2_arch_{i}.csv")
        print(f"  b = {b:.2f}: apex radius {1.0 / b:.2f}, arch length {s_end:.4f}, "
              f"escaped = {path.escaped} at s = {path.total_length:.4f}")
    print("  every arch terminates on the boundary at finite length\n")

    inward = GeodesicState(1.0, 0.0, -1.0, 0.0)
    print("Inward horizontal ray from (1, 0):")
    for name, w in (("flat", flat), ("h=r ", neg2)):
        ell = escape_length(w, inward, 10.0)
        print(f"  {name} metric: escape length = {ell:.9f} (finite -> incomplete)")
    outward = GeodesicState(1.0, 0.0, 1.0, 0.0)
    print(f"  outward ray exceeds any cap: {escape_length(flat, outward, 50.0)!r}")


if __name__ == "__main__":
    main()
