"""warpgeo runs without scipy.

A child interpreter in which every scipy import fails runs every README
command, the solver commands on both featured metrics and every demo, each
with its usual exit status.  The three solver entry points stay module
attributes that the solvers call through, because perfbench's tracer counts
solver work by patching them; ``connect.brentq`` keeps scipy's
``full_output`` record.
"""

import json
import math
import sys
from pathlib import Path

import pytest
import scipy.optimize
from conftest import run_child
from test_cli import README_COMMANDS, readme_exit_status

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

# One interpreter with scipy blocked (a None entry in sys.modules makes its
# import raise) runs each step, a CLI argv or a demo script, and reports
# the exit status and whether stderr shows a traceback or names scipy.
CHILD = r"""
import contextlib, io, json, runpy, shlex, sys
sys.modules["scipy"] = None
import warpgeo.cli

def run(step):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if step.endswith(".py"):
                sys.argv = [step, "--out", "demo_output"]
                runpy.run_path(step, run_name="__main__")
                code = 0
            else:
                code = warpgeo.cli.main(shlex.split(step, comments=True)[1:])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
    return [code, "Traceback" in err.getvalue() or "scipy" in err.getvalue()]

print(json.dumps({step: run(step) for step in json.loads(sys.argv[1])}))
"""

SOLVER_COMMANDS = [
    "warpgeo --warp r geodesic 1 0 2 5",
    "warpgeo --warp r connect 1,0 2,0.5",
    "warpgeo --warp r --format csv sweep --metric neg2 --p0 1,0 --r1 2 --t1=-1:1:5",
    "warpgeo riccati const:-1 1 -1 0.5 800  # exit status 1: not integrable",
]
DEMOS = sorted(str(p) for p in (ROOT / "demos").glob("*.py"))


def _without_scipy(steps: list[str], cwd: Path) -> dict:
    proc = run_child([sys.executable, "-c", CHILD, json.dumps(steps)], text=True, cwd=cwd,
                     check=True)
    return json.loads(proc.stdout)


def test_cold_path_loads_no_scipy(tmp_path):
    report = _without_scipy(README_COMMANDS + SOLVER_COMMANDS, tmp_path)
    expected = {line: [readme_exit_status(line), False] for line in README_COMMANDS}
    expected.update({line: [1 if "exit status 1" in line else 0, False]
                     for line in SOLVER_COMMANDS})
    assert report == expected
    assert (tmp_path / "field.csv").stat().st_size > 0  # README's riccati --out


def test_demos_run_without_scipy(tmp_path):
    report = _without_scipy(DEMOS, tmp_path)
    assert len(report) == 5
    assert report == {demo: [0, False] for demo in DEMOS}
    assert len(list((tmp_path / "demo_output").glob("*.csv"))) == 18


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
    args = (lambda x: x * x - 2.0, 0.0, 2.0)
    root, info = connect.brentq(*args, full_output=True)
    ref_root, ref = scipy.optimize.brentq(*args, full_output=True)
    assert root == info.root == ref_root == ref.root
    assert (info.iterations, info.function_calls, info.converged) == (
        ref.iterations, ref.function_calls, ref.converged)
    assert info.converged and info.iterations > 0
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
