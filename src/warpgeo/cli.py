"""Command-line front end.

Grammar::

    warpgeo <curvature|geodesic|connect|sweep|riccati|isometry> [options]

Common options: ``--warp NAME[:params]`` selects the warp function
(``one_over_r``, ``r``, ``exp``, ``flat:a0,a1``, ``neg2:c0,c1,c2``),
``--format json|csv``, ``--out PATH`` (stdout when omitted) and
``--tol X``.  The environment variable ``WARPGEO_CONFIG`` may point at a
JSON configuration file supplying defaults; explicit flags win.  Numeric
output carries 17 significant digits so that doubles round-trip exactly and
repeated runs are byte-identical.

Exit status: 0 on success (including found/horizontal connections), 2 when
a connection problem reports no geodesic or an exhausted search, 1 on usage
or domain errors, and on a result that JSON cannot carry: output is strict
JSON, with no NaN or Infinity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Every command reads a warp, a point or a spec; each imports the layer it
# calls in its own body, so a cold start compiles only what it runs.
from .warp import (_FLOAT_KINDS, DEFAULT_TOL, DomainError, Point, WarpSpec, _linspace, _quiet,
                   make_warp)

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_GEODESIC = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit status 1."""

    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _require_positive(value: float, flag: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"{flag} must be positive and finite")


class RunConfig:
    """Resolved run configuration: warp, output and solver tolerance.

    Built from defaults, then the JSON file named by ``WARPGEO_CONFIG``
    (an object with no keys but those below), then command-line flags::

        {
          "warp": {"kind": "flat", "params": [2, 5]},
          "output": {"format": "json", "path": null}
        }
    """

    def __init__(self, args):
        file_cfg = {}
        cfg_path = os.environ.get("WARPGEO_CONFIG")
        if cfg_path:
            try:
                with open(cfg_path, encoding="utf-8") as fh:
                    file_cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config {cfg_path}: {exc}") from exc
            if not isinstance(file_cfg, dict):
                raise UsageError(f"config {cfg_path} must hold a JSON object")
            for key in file_cfg:
                if key not in ("warp", "output"):
                    raise UsageError(f"unknown config key {key!r}; expected warp or output")

        if args.warp is not None:
            self.warp_spec = WarpSpec.from_string(args.warp)
        elif "warp" in file_cfg:
            warp_cfg = file_cfg["warp"]
            try:
                self.warp_spec = WarpSpec.from_dict(warp_cfg)
            except (AttributeError, TypeError, KeyError, OverflowError) as exc:
                raise UsageError(f"malformed config warp {warp_cfg!r}") from exc
        else:
            self.warp_spec = WarpSpec("one_over_r")

        out_cfg = file_cfg.get("output", {})
        if not (isinstance(out_cfg, dict) and isinstance(out_cfg.get("path"), (str, type(None)))):
            raise UsageError("config output must be an object whose path is a string or null")
        self.format = args.format or out_cfg.get("format", "json")
        if self.format not in ("json", "csv"):
            raise UsageError(f"unknown output format {self.format!r}")
        self.out = args.out if args.out is not None else out_cfg.get("path")
        self.tol = args.tol if args.tol is not None else DEFAULT_TOL
        _require_positive(self.tol, "--tol")

    def warp(self):
        return make_warp(self.warp_spec)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"


def _table(cfg: RunConfig, header: list[str], rows: list[tuple]) -> None:
    if cfg.format == "csv":
        _emit(cfg, _rows_to_csv(header, rows))
    else:
        _emit(cfg, _json([dict(zip(header, row)) for row in rows]))


def _parse_point(text: str) -> Point:
    try:
        r_s, t_s = text.split(",")
        return Point(float(r_s), float(t_s))
    except ValueError as exc:
        raise UsageError(f"expected point as 'r,t', got {text!r}") from exc


def _parse_range(text: str) -> tuple[float, float, int]:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise UsageError(f"expected range as 'lo:hi:n', got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"range bounds must be finite, got {text!r}")
    return lo, hi, n


# -- subcommands ---------------------------------------------------------------


def cmd_curvature(cfg: RunConfig, args) -> int:
    from .geometry import curvature_oracle, sectional_curvature

    if not (0.0 < args.r_min < args.r_max) or args.n < 2:
        raise UsageError("curvature requires 0 < r_min < r_max and n >= 2")
    w = cfg.warp()
    rs = _linspace(args.r_min, args.r_max, args.n)
    # Every radius is checked before the first oracle call.
    ks = [sectional_curvature(w, r) for r in rs]
    rows = []
    # The oracle's 1/h may overflow (e^r past r = 709.78), and h itself
    # (flat:1e305,5 next to its pole): refused by name.
    with _quiet(w):
        for r, k in zip(rs, ks):
            ko = curvature_oracle(w, r, args.step)
            if not math.isfinite(ko):
                raise ValueError(f"curvature oracle is not finite at r = {r!r}")
            rows.append((r, k, ko, abs(k - ko)))
    _table(cfg, ["r", "K", "K_oracle", "abs_diff"], rows)
    return EXIT_OK


def cmd_geodesic(cfg: RunConfig, args) -> int:
    from .geodesics import GeodesicState, integrate

    if args.plot_script and not cfg.out:
        raise UsageError("--plot-script needs --out so the script can reference the CSV")
    w = cfg.warp()
    init = GeodesicState.from_angle(args.r0, args.t0, args.angle)
    # The solve is sampled at 2 points, then its rows at --samples: on Python
    # floats for a plain-arithmetic family, so that no numpy is loaded.
    # integrate checks the count: below 2 it is passed as it is.
    path = integrate(w, init, args.s_max, n_samples=min(args.samples, 2))
    path = path._resample(args.samples, w.kind in _FLOAT_KINDS)
    csv_text = path.to_csv_string()
    summary = f"# escaped={str(path.escaped).lower()} length={_fmt(path.total_length)}\n"
    _emit(cfg, csv_text + summary)
    if args.plot_script:
        with open(args.plot_script, "w", encoding="utf-8") as fh:
            fh.write(
                "# gnuplot companion script; run: gnuplot -persist <this file>\n"
                "set datafile separator ','\n"
                "set xlabel 't'\nset ylabel 'r'\n"
                f"plot '{cfg.out}' skip 1 using 3:2 with lines title 'geodesic'\n"
            )
    return EXIT_OK


def _metric(cfg: RunConfig, flag: str | None):
    """The metric tag (``--metric``, else inferred from the warp) and its solver."""
    from .connect import connect_flat, connect_neg2

    if flag is None:
        flag = "neg2" if cfg.warp_spec.kind == "r" else "flat"
    return flag, connect_flat if flag == "flat" else connect_neg2


def cmd_connect(cfg: RunConfig, args) -> int:
    p0 = _parse_point(args.p0)
    p1 = _parse_point(args.p1)
    metric, solver = _metric(cfg, args.metric)
    res = solver(p0, p1, cfg.tol)
    doc = res.to_dict()
    doc["metric"] = metric
    if args.path_out and res._replay is not None:
        # Both solvers replay on a warp of _FLOAT_KINDS: the rows are sampled
        # on Python floats, as res.path's are on arrays, to the same doubles.
        res._replay._resample(floats=True).to_csv(args.path_out)
        doc["path_file"] = args.path_out
    _emit(cfg, _json(doc))
    return EXIT_OK if res.found else EXIT_NO_GEODESIC


def cmd_sweep(cfg: RunConfig, args) -> int:
    from .connect import connect_neg2_same_r

    header = ["r0", "t0", "r1", "t1", "exists", "length", "iterations"]
    if args.same_r:
        if args.dt is None:
            raise UsageError("--same-r sweep requires --dt lo:hi:n")
        lo, hi, n = _parse_range(args.dt)
        # The start is (r0, 0) and the swept target (r0, dt).
        r0, t0, r1 = args.r0, 0.0, args.r0

        def solve(t1):
            return connect_neg2_same_r(r0, t1, cfg.tol)
    else:
        if args.t1 is None:
            raise UsageError("sweep requires --t1 lo:hi:n")
        p0 = _parse_point(args.p0)
        lo, hi, n = _parse_range(args.t1)
        r0, t0, r1 = p0.r, p0.t, args.r1
        _, solver = _metric(cfg, args.metric)

        def solve(t1):
            return solver(p0, Point(r1, t1), cfg.tol)
    rows: list[tuple] = []
    for t1 in _linspace(lo, hi, n):
        if (r1, t1) == (r0, t0):
            continue  # the start point itself
        res = solve(t1)
        rows.append(
            (
                r0,
                t0,
                r1,
                t1,
                int(res.found),
                res.length if res.length is not None else "",
                res.iterations,
            )
        )
    _table(cfg, header, rows)
    return EXIT_OK


def _parse_profile(text: str):
    from .riccati import constant_profile, inverse_square_profile

    if text.startswith("const:"):
        return constant_profile(float(text.split(":", 1)[1]))
    if text == "zero":
        return constant_profile(0.0)
    if text == "neg2_over_r2":
        return inverse_square_profile(-2.0)
    raise UsageError(
        f"unknown profile {text!r}; expected 'zero', 'neg2_over_r2' or 'const:VALUE'"
    )


def cmd_riccati(cfg: RunConfig, args) -> int:
    from .riccati import solve_prescribed, verify_field

    _require_positive(args.report_tol, "--report-tol")
    profile = _parse_profile(args.profile)
    r_range = (args.r_lo, args.r_hi)
    field = solve_prescribed(profile, args.r0, args.H0, r_range, atol=1e-12)
    rows = [(float(r), float(H), float(h)) for r, H, h in zip(field.grid, field.H, field.h)]
    report = verify_field(field, profile, args.report_tol)
    _emit(cfg, _rows_to_csv(["r", "H", "h"], rows))
    # The report goes beside the CSV: to stdout when the CSV went to a file.
    (sys.stdout if cfg.out else sys.stderr).write(_json(report.to_dict()))
    return EXIT_OK


def cmd_isometry(cfg: RunConfig, args) -> int:
    from .isometry import AffineMap, classify

    if args.k <= 0.0:
        raise UsageError("isometry requires k > 0")
    w = cfg.warp()
    # A residual that overflows is refused by _json, without a warning.
    with _quiet(w):
        report = classify(w, AffineMap(args.k, args.l), tol=cfg.tol)
    _emit(cfg, _json(report.to_dict()))
    return EXIT_OK


# -- entry point ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="warpgeo", description=__doc__.splitlines()[0])
    parser.add_argument("--warp", help="warp kind, e.g. one_over_r, r, exp, flat:2,5")
    parser.add_argument("--tol", type=float, default=None, help="solver tolerance (default 1e-9)")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--out", default=None, help="output file (stdout when omitted)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", help="tabulate K and its finite-difference oracle")
    p.add_argument("r_min", type=float)
    p.add_argument("r_max", type=float)
    p.add_argument("n", type=int)
    p.add_argument("--step", type=float, default=1e-3, help="oracle stencil step")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("geodesic", help="integrate one geodesic and emit its path CSV")
    p.add_argument("r0", type=float)
    p.add_argument("t0", type=float)
    p.add_argument("angle", type=float, help="initial frame angle: (f,g)=(cos,sin)")
    p.add_argument("s_max", type=float)
    p.add_argument("--samples", type=int, default=129)
    p.add_argument("--plot-script", default=None,
                   help="also write a gnuplot script referencing the --out CSV")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("connect", help="solve the two-point geodesic problem")
    p.add_argument("p0", help="start point as 'r,t'")
    p.add_argument("p1", help="target point as 'r,t'")
    p.add_argument("--metric", choices=("flat", "neg2"), default=None,
                   help="default: inferred from --warp (one_over_r -> flat, r -> neg2)")
    p.add_argument("--path-out", default=None, help="write the connecting path CSV here")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("sweep", help="connection atlas over a target grid")
    p.add_argument("--metric", choices=("flat", "neg2"), default=None)
    p.add_argument("--p0", default="1,0", help="start point as 'r,t'")
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--t1", default=None, help="target t sweep as 'lo:hi:n'")
    p.add_argument("--same-r", action="store_true",
                   help="same-radius candidate sweep for the neg2 metric")
    p.add_argument("--r0", type=float, default=1.0, help="radius for --same-r")
    p.add_argument("--dt", default=None, help="dt sweep as 'lo:hi:n' for --same-r")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("riccati", help="solve H' = H^2 + f as u'' + f u = 0, h = 1/u")
    p.add_argument("profile", help="f: 'zero', 'neg2_over_r2' or 'const:VALUE'")
    p.add_argument("r0", type=float)
    p.add_argument("H0", type=float)
    p.add_argument("r_lo", type=float)
    p.add_argument("r_hi", type=float)
    p.add_argument("--report-tol", type=float, default=1e-3,
                   help="relative derivative-consistency tolerance")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("isometry", help="classify an affine map (k, l)")
    p.add_argument("k", type=float)
    p.add_argument("l", type=float)
    p.set_defaults(func=cmd_isometry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(args)
        return args.func(cfg, args)
    except (UsageError, DomainError, ValueError) as exc:
        print(f"warpgeo: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
