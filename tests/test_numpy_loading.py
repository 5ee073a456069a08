"""Which commands run without numpy, and which of the package's modules
each one loads.

Each step runs in a fresh interpreter, which then reports whether numpy is
in ``sys.modules``, and which ``warpgeo`` modules are: importing the package
or its CLI must not load numpy, and neither may ``connect`` (flat found,
blocked and horizontal, on ``h = r``, and with ``--path-out``), the flat
and same-radius ``sweep``, or ``make_warp``,
``curvature``, ``geodesic`` (with and without ``--samples``) and
``isometry`` on a family whose evaluators are plain arithmetic (``r``,
``one_over_r``, ``flat`` and ``neg2``).  The same commands on ``exp``,
which keeps ``np.exp`` for its bits, load numpy, and so does ``riccati``.
The package reads numpy only through the lazy binding ``warpgeo._np.np``
(``test_numpy_boundary.py`` checks that), so a command loads it at its
first array, and every command's bytes are pinned by
``test_output_bytes.py``.  A tangent vector with integer components, and a
geodesic solve whose clamp divides by zero, are checked without numpy too.

``import warpgeo`` loads no layer module, and ``import warpgeo.cli`` only
``warp`` (and ``_np``); each command then loads the layer it calls and the
modules that layer imports (:data:`LOADED_BY`), while ``make_warp`` read
from the package loads every layer.
"""

import json
import sys

import pytest
from conftest import run_child

CHILD = r"""
import contextlib, io, json, shlex, sys
argv = shlex.split(sys.argv[1])
out = io.StringIO()
if argv[0] == "import":
    __import__(argv[1])
    code = 0
elif argv[0] == "make_warp":
    import warpgeo
    warpgeo.make_warp(argv[1])
    code = 0
else:
    import warpgeo.cli
    with contextlib.redirect_stdout(out):
        code = warpgeo.cli.main(argv[1:])
modules = sorted(name for name in sys.modules if name.split(".")[0] == "warpgeo")
print(json.dumps([code, "numpy" in sys.modules, out.getvalue(), modules]))
"""

# name: (step, its exit status)
STEPS = {
    "import-package": ("import warpgeo", 0),
    "import-cli": ("import warpgeo.cli", 0),
    "connect-found": ("warpgeo connect 1,0 1,1.5707963267948966", 0),
    "connect-blocked": ("warpgeo connect 1,0 1,3.14159265358979", 2),
    "connect-horizontal": ("warpgeo connect 1,0 2,0", 0),
    "connect-neg2": ("warpgeo --warp r connect 1,0 2,0.5", 0),
    "connect-path-out": ("warpgeo connect 1,0 1,1.5707963267948966 --path-out p.csv", 0),
    "sweep-flat": ("warpgeo --format csv sweep --metric flat --p0 1,0 --r1 1 --t1=-3.5:3.5:57", 0),
    "sweep-same-r": ("warpgeo --format csv sweep --same-r --r0 1 --dt 0.5:7:14", 0),
}

# The steps that evaluate a warp, by name, with the warp left open.
WARP_STEPS = {
    "make_warp": "make_warp {}",
    "curvature": "warpgeo --warp {} --format csv curvature 0.5 3 25",
    "geodesic": "warpgeo --warp {} geodesic 1 0 0.3 2",
    "geodesic-samples": "warpgeo --warp {} geodesic 1 0 0.3 2 --samples 7",
    "isometry": "warpgeo --warp {} isometry 0.5 1.5",
}
for _warp in ("r", "one_over_r", "flat:2,5", "neg2:1,1,1"):
    STEPS.update({f"{name}-{_warp}": (step.format(_warp), 0) for name, step in WARP_STEPS.items()})


RICCATI_STEP = "warpgeo riccati zero 1 0.5 0.5 2"

# The warpgeo modules each step loads: by the module an import step imports,
# else by the first word of the step's name.
_CLI = {"warpgeo", "warpgeo._np", "warpgeo.warp", "warpgeo.cli"}
_SOLVER = {"warpgeo._dop853", "warpgeo._brentq"}
_LAYERS = {f"warpgeo.{layer}"
           for layer in ("warp", "geometry", "riccati", "geodesics", "connect", "isometry")}
_CONNECT = _CLI | _SOLVER | {"warpgeo.connect", "warpgeo.geodesics"}
LOADED_BY_IMPORT = {"import warpgeo": {"warpgeo"}, "import warpgeo.cli": _CLI}
LOADED_BY = {
    "make_warp": {"warpgeo", "warpgeo._np"} | _SOLVER | _LAYERS,
    "connect": _CONNECT,
    "sweep": _CONNECT,
    "geodesic": _CLI | _SOLVER | {"warpgeo.geodesics"},
    "curvature": _CLI | {"warpgeo.geometry"},
    "isometry": _CLI | {"warpgeo.isometry", "warpgeo.geometry"},
    "riccati": _CLI | _SOLVER | {"warpgeo.riccati", "warpgeo.geometry"},
}


def _loaded(name: str, step: str) -> set:
    return LOADED_BY_IMPORT.get(step) or LOADED_BY[name.split("-")[0]]


def _child(step: str, cwd) -> list:
    proc = run_child([sys.executable, "-c", CHILD, step], text=True, check=True, cwd=cwd)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", STEPS)
def test_step_loads_no_numpy(name, tmp_path):
    step, code = STEPS[name]
    got_code, numpy_loaded, out, modules = _child(step, tmp_path)
    assert (got_code, numpy_loaded) == (code, False)
    assert out or step.startswith(("import", "make_warp"))
    assert set(modules) == _loaded(name, step)
    if "--path-out" in step:  # the path's 129 rows under their header
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 1 + 129


@pytest.mark.parametrize("name", WARP_STEPS)
def test_exp_loads_numpy(name, tmp_path):
    step = WARP_STEPS[name].format("exp")
    got_code, numpy_loaded, _, modules = _child(step, tmp_path)
    assert (got_code, numpy_loaded) == (0, True)
    assert set(modules) == _loaded(name, step)


def test_riccati_loads_numpy_and_its_layer(tmp_path):
    got_code, numpy_loaded, out, modules = _child(RICCATI_STEP, tmp_path)
    assert (got_code, numpy_loaded) == (0, True)
    assert out.startswith("r,H,h\n")
    assert set(modules) == LOADED_BY["riccati"]


def test_integer_tangent_vector_loads_no_numpy():
    code = ("import sys; from warpgeo import Point, TangentVector; "
            "TangentVector(1, 2, Point(1.0, 0.0)); print('numpy' in sys.modules)")
    proc = run_child([sys.executable, "-c", code], text=True, check=True)
    assert proc.stdout == "False\n"


def test_clamp_dividing_by_zero_loads_no_numpy():
    # Next to the pole of h = r / (1e-155 r^3 - 1e-155), q * q underflows
    # and h' divides by zero, at the start and at the clamp: the failure
    # is the solver's, read as nan by the float kernel's own rule.
    code = ("import sys; from warpgeo import GeodesicState, integrate, warp_neg2\n"
            "w = warp_neg2(1.0, -1e-155, 1e-155)\n"
            "try:\n"
            "    integrate(w, GeodesicState.from_angle(1.0 + 1e-9, 0.0, 2.0), 1e-3, n_samples=2)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "print('numpy' in sys.modules)")
    proc = run_child([sys.executable, "-c", code], text=True, check=True)
    assert proc.stdout == ("geodesic integration failed: "
                           "The derivative is not finite at t = 0.0.\nFalse\n")
