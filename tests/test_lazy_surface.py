"""The package loads its layer modules on the first read of a name it lacks.

Each check runs in a fresh interpreter, since this one has loaded every
layer, and reports the ``warpgeo`` modules in ``sys.modules``.
``test_surface.py`` checks the names and bindings once they are loaded.
"""

import json
import sys

import pytest
from conftest import run_child

import warpgeo
from warpgeo import connect, geodesics, geometry, isometry, riccati, warp

REPORT = ("\nprint(json.dumps([got, sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'warpgeo')]))")


def _child(code: str) -> list:
    proc = run_child([sys.executable, "-c", "import json, sys\n" + code + REPORT],
                     text=True, check=True)
    return json.loads(proc.stdout)


def test_star_import_binds_every_public_name():
    got, _ = _child("ns = {}\nexec('from warpgeo import *', ns)\n"
                    "got = sorted(name for name in ns if name != '__builtins__')")
    names = [name for mod in (warp, geometry, riccati, geodesics, connect, isometry)
             for name in mod.__all__]
    assert got == sorted(names) and len(names) == 65


def test_unknown_name_is_named():
    with pytest.raises(AttributeError, match="'warpgeo' has no attribute 'no_such_name'"):
        warpgeo.no_such_name
    got, _ = _child("import warpgeo\ntry:\n    warpgeo.no_such_name\n"
                    "except AttributeError as exc:\n    got = str(exc)")
    assert got == "module 'warpgeo' has no attribute 'no_such_name'"


@pytest.mark.parametrize("name", ["__wrapped__", "__code__", "__signature__"])
def test_dunder_probe_loads_no_layer(name):
    got, modules = _child(f"import warpgeo\ngot = getattr(warpgeo, {name!r}, None)")
    assert (got, modules) == (None, ["warpgeo"])


def test_tracer_install_line_loads_every_layer():
    # perfbench/tracer.py installs after `import warpgeo.cli` with this line,
    # and wraps isometry.classify only if warpgeo.isometry is loaded then.
    got, modules = _child("import warpgeo.cli\ngot = 'warpgeo.isometry' in sys.modules\n"
                          "from warpgeo import connect, geodesics, geometry, riccati, warp")
    assert got is False
    assert {"warpgeo.isometry", "warpgeo.riccati"} <= set(modules)
