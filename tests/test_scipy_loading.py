"""scipy loads on first use.

The commands that need no ODE or root finder run on numpy alone, and the
three functions that load scipy stay module attributes that the solvers
call through, because perfbench's tracer counts solver work by patching
them.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.optimize

from warpgeo import (
    GeodesicState,
    Point,
    connect,
    constant_profile,
    geodesics,
    riccati,
    warp_one_over_r,
)

ROOT = Path(__file__).resolve().parents[1]

# Each step runs in one fresh interpreter, in this order, and reports the
# scipy modules loaded so far and the CLI exit status.
CHILD = r"""
import contextlib, io, json, math, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {}
import warpgeo
report["import warpgeo"] = [None, scipy_modules()]
import warpgeo.cli
report["import warpgeo.cli"] = [None, scipy_modules()]
for step, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = warpgeo.cli.main(argv)
    report[step] = [code, scipy_modules()]
print(json.dumps(report))
"""

COLD_STEPS = [
    ("curvature", ["--warp", "one_over_r", "curvature", "1", "2", "5"]),
    ("isometry", ["--warp", "r", "isometry", "1", "2"]),
    ("blocked connect", ["connect", "1,0", f"1,{math.pi}"]),
    ("horizontal connect", ["connect", "1,0", "2,0"]),
    ("same-r sweep", ["--format", "csv", "sweep", "--same-r", "--r0", "1", "--dt", "0.5:7:14"]),
]
FOUND_STEP = ("found connect", ["connect", "1,0", f"1,{math.pi / 2}"])


@pytest.fixture(scope="module")
def cold_report():
    env = dict(os.environ)
    env.pop("WARPGEO_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(COLD_STEPS + [FOUND_STEP])],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_cold_path_loads_no_scipy(cold_report):
    expected_codes = {"blocked connect": 2}
    for step in ["import warpgeo", "import warpgeo.cli"] + [s for s, _ in COLD_STEPS]:
        code, loaded = cold_report[step]
        assert loaded == [], step
        if code is not None:
            assert code == expected_codes.get(step, 0), step


def test_found_connect_loads_scipy(cold_report):
    code, loaded = cold_report[FOUND_STEP[0]]
    assert code == 0
    assert "scipy.optimize" in loaded and "scipy.integrate" in loaded


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    orig = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


# Each case runs twice: a forwarding function that rebound its module
# global on the first call would bypass the patch on the second.
def test_integrate_calls_geodesics_solve_ivp(monkeypatch):
    calls = _count_calls(monkeypatch, geodesics, "solve_ivp")
    for _ in range(2):
        geodesics.integrate(warp_one_over_r(), GeodesicState(1.0, 0.0, -1.0, 0.0), 0.5)
    assert len(calls) == 2


def test_solve_prescribed_calls_riccati_solve_ivp(monkeypatch):
    calls = _count_calls(monkeypatch, riccati, "solve_ivp")
    for _ in range(2):
        riccati.solve_prescribed(constant_profile(0.0), 1.0, 1.0, (0.5, 3.0))
    assert len(calls) == 4  # one integration each side of r0


@pytest.mark.parametrize(
    "solver, p1",
    [(connect.connect_flat, Point(1.0, math.pi / 2)), (connect.connect_neg2, Point(2.0, 0.5))],
    ids=["flat", "neg2"],
)
def test_connect_calls_connect_brentq(monkeypatch, solver, p1):
    calls = _count_calls(monkeypatch, connect, "brentq")
    assert solver(Point(1.0, 0.0), p1).found
    first = len(calls)
    assert solver(Point(1.0, 0.0), p1).found
    assert first > 0 and len(calls) == 2 * first


def test_brentq_full_output_is_scipys():
    root, info = connect.brentq(lambda x: x * x - 2.0, 0.0, 2.0, full_output=True)
    assert isinstance(info, scipy.optimize.RootResults)
    assert info.converged and info.iterations > 0
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
