"""Per-layer SHA-256 digests of warpgeo's results on fixed seeded inputs.

Usage (from the repository root)::

    python3 tools/bits_digest.py [--src DIR]

``warpgeo`` is imported from DIR, by default the ``src`` directory of this
checkout, so one copy of this tool can digest two checkouts: a change keeps
a layer's bits exactly when both give the layer the same digest.  One line
per layer (warp, geometry, geodesics, connect, isometry, riccati, cli) gives
its name, its digest and how many results it hashed.  The ``cli`` layer
runs ``warpgeo.cli.main`` in this process on seeded ``curvature``,
``geodesic`` and ``isometry`` command lines over the five built-in warps,
and hashes each one's exit status, stdout and stderr.

Each result is hashed in a canonical spelling: a number by its type and
its hex digits (so one ulp or the sign of a zero changes the digest), an
array by its dtype, shape and bytes, a dataclass by its class and fields
(callables skipped), a sequence element by element.  A call that raises is
hashed as the error's type and message.  The inputs come from
``numpy.random.default_rng`` with a fixed seed per layer.  Warnings are
ignored: only values are hashed.  Only the standard library, numpy and
warpgeo are imported.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import sys
import warnings
from pathlib import Path

import numpy as np

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"

# The warps of the geometry and geodesics layers, by spec string, and the
# custom ones built in _warps.
SPECS = ("one_over_r", "r", "exp", "flat:2,5", "flat:-1,0", "neg2:1,1,0", "neg2:1,-1,1")
# The warps of the cli layer: the built-in ones of README and the benchmark.
CLI_SPECS = ("one_over_r", "r", "exp", "flat:2,5", "neg2:1,1,1")
TINY_NEG2 = "neg2:1,-1e-155,1e-155"  # h is about 1e160 next to its pole r = 1


@dataclasses.dataclass(frozen=True)
class Error:
    """A call's exception, as its type and message."""

    kind: str
    message: str


def outcome(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the :class:`Error` it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every error is a result here
        return Error(type(exc).__name__, str(exc))


def canonical(value) -> str:
    """The spelling of ``value`` that :func:`digest` hashes."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return f"{type(value).__name__}:{int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"{type(value).__name__}:{float(value).hex()}"
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            return "ndarray:" + canonical(value.tolist())
        return f"ndarray:{value.dtype.str}:{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{canonical(v)}" for k, v in value.items()) + "}"
    if dataclasses.is_dataclass(value):
        parts = []
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if not callable(v):
                parts.append(f"{f.name}={canonical(v)}")
        return f"{type(value).__name__}(" + ",".join(parts) + ")"
    raise TypeError(f"no canonical spelling for {type(value).__name__}")


def digest(values) -> tuple[str, int]:
    """SHA-256 of the canonical spellings of ``values``, one per line, and
    their number."""
    sha, n = hashlib.sha256(), 0
    for value in values:
        sha.update(canonical(value).encode())
        sha.update(b"\n")
        n += 1
    return sha.hexdigest(), n


def _warps(wg):
    """The warps of the geometry and geodesics layers, by name."""
    warps = {spec: wg.make_warp(spec) for spec in SPECS}
    warps["custom:r**1.5"] = wg.warp_custom(lambda r: r**1.5, domain=(0.0, math.inf))
    warps["custom:1/(3-r)"] = wg.warp_custom(
        lambda r: 1.0 / (3.0 - r), lambda r: 1.0 / ((3.0 - r) * (3.0 - r)), domain=(0.0, 3.0))
    warps[TINY_NEG2] = wg.warp_neg2(1.0, -1e-155, 1e-155)
    return warps


def _radii(rng, w, n: int) -> list[float]:
    """n seeded radii inside w's domain, within 10 of its lower edge."""
    lo, hi = w.domain.lo, min(w.domain.hi, w.domain.lo + 10.0)
    pad = 1e-3 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, n).tolist()


def _crossing(r: float, inside, outward: float) -> list[float]:
    """The last radius outside and the first inside, one ulp apart, walked
    to from r, which lies a few ulps from the crossing."""
    while inside(r):
        r = math.nextafter(r, outward)
    while not inside(math.nextafter(r, -outward)):
        r = math.nextafter(r, -outward)
    return [r, math.nextafter(r, -outward)]


def _stencil_edges(wg, w, step: float) -> list[float]:
    """Radii at which the oracle's outer stencil point at ``step`` crosses
    each finite margin of w's domain: one ulp of r outside, one inside."""
    lo, hi = w.domain.lo + wg.DOMAIN_MARGIN, w.domain.hi - wg.DOMAIN_MARGIN
    rs = _crossing(lo + 2 * step, lambda r: lo < r - 2 * step, -math.inf)
    if math.isfinite(hi):
        rs += _crossing(hi - 2 * step, lambda r: r + 2 * step < hi, math.inf)
    return rs


def layer_warp(wg, rng):
    for kind, count in (("flat", 2), ("neg2", 3)):
        for _ in range(40):
            scale = rng.uniform(0.5, 2.0, count)
            params = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0], count) * scale
            spec = kind + ":" + ",".join(repr(float(p)) for p in params)
            w = outcome(wg.make_warp, spec)
            yield spec, w if isinstance(w, Error) else w.domain
    for spec in SPECS:
        w = wg.make_warp(spec)
        rs = _radii(rng, w, 16)
        outside = [w.domain.lo, w.domain.lo - 1.0, w.domain.hi, math.nan]
        for name in ("h", "dh", "d2h", "log_deriv", "exact_curvature"):
            fn = getattr(w, name)
            yield spec, name, [outcome(fn, r) for r in rs + outside]
            yield spec, name, [outcome(fn, np.float64(r)) for r in rs[:4]]
            yield spec, name, outcome(fn, np.array(rs)), outcome(fn, np.array(rs + outside[:1]))


def layer_geometry(wg, rng):
    for name, w in _warps(wg).items():
        rs = _radii(rng, w, 12)
        for method in ("auto", "generic"):
            yield name, method, [outcome(wg.sectional_curvature, w, r, method=method) for r in rs]
            yield name, method, outcome(wg.sectional_curvature, w, np.array(rs), method=method)
        yield name, [outcome(wg.curvature_oracle, w, r) for r in rs]
        yield name, [outcome(wg.curvature_oracle, w, r, step=1e-4) for r in rs[:3]]
        yield name, [outcome(wg.curvature_oracle, w, r, step=1e-2) for r in rs[:3]]
        yield name, [outcome(wg.curvature_oracle, w, np.float64(r)) for r in rs[:3]]
        for step in (1e-3, 1e-4, 1e-2):
            edges = _stencil_edges(wg, w, step)
            yield name, step, [outcome(wg.curvature_oracle, w, r, step) for r in edges]
        for r in rs[:6]:
            p = wg.Point(r, float(rng.uniform(-3.0, 3.0)))
            u = wg.TangentVector(*rng.normal(size=2).tolist(), base=p)
            v = wg.TangentVector(*rng.normal(size=2).tolist(), base=p)
            yield name, (outcome(wg.apply_J, w, u), outcome(wg.metric_at, w, u, v),
                         outcome(wg.kahler_form, w, u, v), outcome(wg.frame_components, w, u))


def _starts(rng, w, n: int) -> list:
    """n seeded starts inside w's domain, and two next to each finite edge."""
    lo, hi = w.domain.lo, w.domain.hi
    rs = _radii(rng, w, n) + [lo + 1e-11 * max(1.0, lo), lo + 1e-6 * max(1.0, lo)]
    if math.isfinite(hi):
        # Next to a pole the solve resolves a steep layer in many steps.
        rs += [hi - 1e-5 * hi, hi - 1e-3 * hi]
    return [(r, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, 2.0 * math.pi))) for r in rs]


def layer_geodesics(wg, rng):
    for name, w in _warps(wg).items():
        # The spans of integrate and escape_length.  Custom warps evaluate
        # per stage through numpy, so their spans stay short.  Where h is
        # about 1e160, next to the pole of the tiny-parameter neg2 warp, t
        # grows so fast that the solve crawls: its spans are shorter still,
        # and its one start that near the pole is the clamp's division by
        # zero at the start.
        if name == TINY_NEG2:
            spans = (0.01, 1e-3)
            starts = [(1.0 + 1e-9, 0.0, 2.0)] + [s for s in _starts(rng, w, 6) if s[0] > 1.5]
        elif name.startswith("custom"):
            spans, starts = (2.0, 0.3), _starts(rng, w, 3)
        else:
            spans, starts = (5.0, 1.0), _starts(rng, w, 6)
        for r, t, angle in starts:
            init = wg.GeodesicState.from_angle(r, t, angle)
            s_max = float(rng.uniform(0.1, 1.0)) * spans[0]
            for n in (2, 7, 129):
                path = outcome(wg.integrate, w, init, s_max, n_samples=n)
                yield name, n, path
                if n == 7 and not isinstance(path, Error):
                    yield name, path._resample()
            yield name, outcome(wg.escape_length, w, init, spans[1])
    s = rng.uniform(-3.0, 3.0, 9)
    for _ in range(12):
        r0 = float(10.0 ** rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(-0.99, 0.99)) * r0
        geo = wg.FlatGeodesic(r0, float(rng.uniform(-2.0, 2.0)), a, float(rng.choice([-1.0, 1.0])))
        yield geo, geo.point(s), [geo.point(x) for x in s[:3].tolist()], geo.angle(s), geo.d
        yield [outcome(geo.state, x) for x in s.tolist()], geo.initial_state(), geo.beta
        b = float(rng.uniform(0.05, 1.0)) / r0
        geo = wg.Neg2Geodesic(r0, float(rng.uniform(-2.0, 2.0)), b, float(rng.choice([-1.0, 1.0])))
        lo, hi = geo.arch()
        inside = np.linspace(lo, hi, 11)[1:-1]
        yield geo, (lo, hi), outcome(geo.point, inside), outcome(geo.point, s)
        yield [outcome(geo.point, x) for x in s.tolist()]
        yield [outcome(geo.state, x) for x in inside.tolist()]
        yield wg.transverse_unit_b_form(geo, inside)


def layer_connect(wg, rng):
    for i in range(300):
        r0 = float(10.0 ** rng.uniform(-2.0, 1.5))
        r1 = r0 if i % 10 == 0 else float(10.0 ** rng.uniform(-2.0, 1.5))
        gap = float(10.0 ** rng.uniform(-6.0, math.log10(3.2))) * float(rng.choice([-1.0, 1.0]))
        t0 = float(rng.uniform(-2.0, 2.0))
        p0, p1 = wg.Point(r0, t0), wg.Point(r1, t0 + gap)
        for connect in (wg.connect_flat, wg.connect_neg2):
            result = outcome(connect, p0, p1)
            yield i, result, None if isinstance(result, Error) else result.path
        yield i, outcome(wg.flat_chord_candidates, p0, p1)


def layer_isometry(wg, rng):
    scales = (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 1.0 + 2.0**-45, 1e-300, 1e300)
    warps = [wg.make_warp(spec) for spec in SPECS] + [wg.warp_flat(1.0, 5.0)]
    for w in warps:
        rs = _radii(rng, w, 5)
        points = [wg.Point(r, float(rng.uniform(-3.0, 3.0))) for r in rs]
        for k in scales:
            for l in (-2.0, 0.0, 3.0):
                m = wg.AffineMap(k, l)
                yield w.kind, w.params, k, l, outcome(wg.classify, w, m)
                yield [outcome(wg.cr_residual, w, m, p) for p in points]
                yield outcome(wg.pullback_residual, w, m, points)


def layer_riccati(wg, rng):
    profiles = {"zero": wg.constant_profile(0.0), "const:-1": wg.constant_profile(-1.0),
                "neg2_over_r2": wg.inverse_square_profile(-2.0)}
    edge_cases = [(1e-170, 0.0, 0.0, 1.0), (1e-300, 0.0, 0.0, 1.0), (1.0, 1.0, 0.0, 3.0),
                  (1.0, -1.0, 0.5, 800.0), (1.0, 1e300, 0.5, 3.0)]
    for name, profile in profiles.items():
        cases = list(edge_cases)
        for _ in range(8):
            lo, hi = sorted(rng.uniform(0.05, 6.0, 2).tolist())
            cases.append((float(rng.uniform(lo, hi)), float(rng.normal(scale=2.0)), lo, hi))
        for r0, H0, lo, hi in cases:
            field = outcome(wg.solve_prescribed, profile, r0, H0, (lo, hi))
            if not isinstance(field, Error):
                field = field, outcome(wg.verify_field, field, profile, 1e-3)
            yield name, r0, H0, lo, hi, field


def run_cli(main, argv: list) -> tuple:
    """``main(argv)`` with stdout and stderr captured: its exit status (or
    the :class:`Error` it raised) and both streams' text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = outcome(main, argv)
    return code, out.getvalue(), err.getvalue()


def _cli_argv(rng, spec: str):
    """Seeded command lines on the warp ``spec``, a few of each outside the
    domain or with a count the command refuses."""
    w = f"--warp={spec}"
    for fmt, n in (("json", 5), ("csv", 25), ("csv", 2)):
        lo, hi = sorted(rng.uniform(0.05, 4.9, 2).tolist())
        yield [w, "--format", fmt, "curvature", repr(lo), repr(hi), str(n)]
    yield [w, "curvature", repr(float(rng.uniform(0.1, 1.0))), "7.5", "4", "--step", "1e-4"]
    yield [w, "curvature", "0.5", "2", "1"]
    yield [w, "curvature", "0.001", "0.004", "3"]  # the oracle's stencil crosses r = 0
    for samples in (None, 2, 7, 300, 1):
        r0, t0 = float(rng.uniform(0.3, 4.5)), float(rng.uniform(-2.0, 2.0))
        angle, s_max = float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(0.1, 6.0))
        argv = [w, "geodesic", repr(r0), repr(t0), repr(angle), repr(s_max)]
        yield argv if samples is None else argv + ["--samples", str(samples)]
    for k in (0.5, 1.0, 1.0 + 2.0**-45, 2.0, float(rng.uniform(0.2, 3.0)), 1e-300, 1e300):
        yield [w, "isometry", repr(k), repr(float(rng.uniform(-3.0, 3.0)))]


def layer_cli(wg, rng):
    main = importlib.import_module(wg.__name__ + ".cli").main
    for spec in CLI_SPECS:
        for argv in _cli_argv(rng, spec):
            yield argv, run_cli(main, argv)


LAYERS = {
    "warp": layer_warp,
    "geometry": layer_geometry,
    "geodesics": layer_geodesics,
    "connect": layer_connect,
    "isometry": layer_isometry,
    "riccati": layer_riccati,
    "cli": layer_cli,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="directory that holds the warpgeo package to digest")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import warpgeo

    warnings.simplefilter("ignore")
    for seed, (name, layer) in enumerate(LAYERS.items()):
        sha, n = digest(layer(warpgeo, np.random.default_rng(seed)))
        print(f"{name:9s} {sha} {n} results", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
