"""Prescribing the curvature of a half-plane metric.

Choosing a target curvature profile f(r) and solving the Riccati equation
H' = H^2 + f produces a warp function realizing it.  The solver integrates
the equivalent linear equation u'' + f u = 0 and returns h = 1/u and
H = -u'/u.  Three runs illustrate the behavior:

1. f = -1 from H(1) = 1: the initial condition sits exactly at the
   equilibrium of H' = H^2 - 1, so H stays constant and h = e^(r-1).
2. f = 0 from H(1) = 1: H' = H^2 blows up at finite radius (r = 2), where
   u = 2 - r has its zero; the solver stops there and reports its location.
3. f = -2/r^2 from H(1) = 1: the solution is H = 1/r, i.e. the featured
   metric dr^2 + dt^2/r^2, recovered here numerically and compared with the
   closed-form solution family.

Run:  python demos/prescribed_curvature.py [--out DIR]
"""

import argparse
import pathlib

import numpy as np

from warpgeo import (
    analytic_neg2,
    constant_profile,
    inverse_square_profile,
    solve_prescribed,
    verify_riccati,
)


def dump(field, target):
    with open(target, "w", encoding="utf-8") as fh:
        fh.write("r,H,h\n")
        for r, H, h in zip(field.grid, field.H, field.h):
            fh.write(f"{r:.17g},{H:.17g},{h:.17g}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="demo_output", help="output directory")
    args = ap.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    print("1) constant curvature -1, started at the equilibrium H = 1")
    field = solve_prescribed(constant_profile(-1.0), 1.0, 1.0, (0.5, 4.0))
    dump(field, outdir / "riccati_const_minus1.csv")
    print(f"   max |H - 1| = {np.max(np.abs(field.H - 1)):.2e}"
          f" over {field.grid.size} samples\n")

    print("2) zero curvature from H(1) = 1: finite-radius blow-up")
    field = solve_prescribed(constant_profile(0.0), 1.0, 1.0, (0.5, 3.0))
    dump(field, outdir / "riccati_flat_blowup.csv")
    sel = field.grid <= 1.9
    err = np.max(np.abs(field.H[sel] - 1.0 / (2.0 - field.grid[sel])))
    print(f"   closed-form check H = 1/(2-r): max err {err:.2e} up to r = 1.9")
    print(f"   blow-up (zero of u) at r = {field.blowup!r},"
          f" {field.blowup - 2.0:.1e} from the exact pole 2\n")

    print("3) curvature -2/r^2 from H(1) = 1")
    field = solve_prescribed(inverse_square_profile(-2.0), 1.0, 1.0, (0.3, 5.0))
    dump(field, outdir / "riccati_neg2.csv")
    print(f"   max |H - 1/r| = {np.max(np.abs(field.H - 1 / field.grid)):.2e}")
    w = analytic_neg2(1.0, 1.0, 0.0)  # h = r, the closed-form representative
    rep = verify_riccati(w, inverse_square_profile(-2.0), np.linspace(0.5, 4.0, 100))
    print(f"   closed-form family h = r verifies with residual {rep.max_residual:.2e}")
    print(f"\nCSV fields written to {outdir}/ (r, H, h), h normalized to 1 at r0.")


if __name__ == "__main__":
    main()
