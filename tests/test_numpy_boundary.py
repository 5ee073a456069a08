"""numpy is reached through one binding, ``warpgeo._np.np``.

No other module of the package imports numpy or names it in a string (as
``sys.modules.get("numpy")`` or ``__import__("numpy")`` would), so whether
numpy gets loaded is decided in one place.  The binding imports numpy on the
first read of one of its attributes, and a probe for a dunder attribute
loads nothing.
"""

import ast
from pathlib import Path

import pytest
from test_geodesics import child_stdout

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "warpgeo"
BOUNDARY = "_np.py"


def _numpy_references(tree) -> list:
    """Line numbers of numpy import statements and "numpy" string constants."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_boundary_reaches_numpy(path):
    found = _numpy_references(ast.parse(path.read_text(encoding="utf-8")))
    assert bool(found) == (path.name == BOUNDARY), f"{path.name} names numpy at lines {found}"


def test_probes_load_no_numpy_and_a_read_loads_it_once():
    code = (
        "import inspect, sys, warpgeo\n"
        "from warpgeo import _np\n"
        "print(hasattr(warpgeo.geodesics.np, '__wrapped__'), inspect.unwrap(_np.np) is _np.np,\n"
        "      'numpy' in sys.modules)\n"
        "float64 = warpgeo.riccati.np.float64\n"
        "print(float64 is sys.modules['numpy'].float64, 'float64' in vars(_np.np),\n"
        "      'numpy' in sys.modules)\n"
    )
    assert child_stdout(code) == "False True False\nTrue True True\n"
