"""``warpgeo connect`` and ``sweep`` run without numpy.

Each step runs in a fresh interpreter, which then reports whether numpy is
in ``sys.modules``: importing the package or its CLI must not load it, and
neither may ``connect`` (flat found, blocked and horizontal, and on
``h = r``) or the flat and same-radius ``sweep``.  The package reads numpy
only through the lazy binding ``warpgeo._np.np`` (``test_numpy_boundary.py``
checks that), so the commands that build arrays load it at their first
array, and their bytes are pinned by ``test_output_bytes.py``.  A
tangent vector with integer components is checked without numpy too.
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
else:
    import warpgeo.cli
    with contextlib.redirect_stdout(out):
        code = warpgeo.cli.main(argv[1:])
print(json.dumps([code, "numpy" in sys.modules, out.getvalue()]))
"""

# name: (step, its exit status)
STEPS = {
    "import-package": ("import warpgeo", 0),
    "import-cli": ("import warpgeo.cli", 0),
    "connect-found": ("warpgeo connect 1,0 1,1.5707963267948966", 0),
    "connect-blocked": ("warpgeo connect 1,0 1,3.14159265358979", 2),
    "connect-horizontal": ("warpgeo connect 1,0 2,0", 0),
    "connect-neg2": ("warpgeo --warp r connect 1,0 2,0.5", 0),
    "sweep-flat": ("warpgeo --format csv sweep --metric flat --p0 1,0 --r1 1 --t1=-3.5:3.5:57", 0),
    "sweep-same-r": ("warpgeo --format csv sweep --same-r --r0 1 --dt 0.5:7:14", 0),
}


def _child(step: str) -> list:
    proc = run_child([sys.executable, "-c", CHILD, step], text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", STEPS)
def test_step_loads_no_numpy(name):
    step, code = STEPS[name]
    got_code, numpy_loaded, out = _child(step)
    assert (got_code, numpy_loaded) == (code, False)
    assert out or step.startswith("import")


def test_integer_tangent_vector_loads_no_numpy():
    code = ("import sys; from warpgeo import Point, TangentVector; "
            "TangentVector(1, 2, Point(1.0, 0.0)); print('numpy' in sys.modules)")
    proc = run_child([sys.executable, "-c", code], text=True, check=True)
    assert proc.stdout == "False\n"
