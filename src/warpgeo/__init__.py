"""Numerical differential geometry of warped half-plane metrics.

A warp function h > 0 on an open radial interval turns the right half plane
{(r, t) : r > 0} into a surface with line element dr^2 + dt^2/h(r)^2.  This
package computes the resulting geometry end to end: metric, rotation
operator and area form, connection and Gauss curvature (with an independent
finite-difference oracle), prescribed-curvature solving via the associated
Riccati equation, geodesics (closed form and integrated), two-point
connectivity and distance, finite-length inextendible rays, and the
classification of affine holomorphic isometries.

``import warpgeo`` loads none of the layer modules.  The first read of a
name the package lacks (a public name, a layer module or ``__all__``)
imports the six layers below, binds every name of their ``__all__`` here,
and sets ``__all__`` to those lists in order.  A command or script that
imports one layer module (``from warpgeo.geometry import ...``) compiles
and runs only that module and the ones it imports.
"""

import sys

__version__ = "0.1.0"

_LAYERS = ("warp", "geometry", "riccati", "geodesics", "connect", "isometry")


def __getattr__(name):
    # Dunder probes (inspect.unwrap's __wrapped__, for one) load nothing.
    if name.startswith("__") and name.endswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = globals()
    public = []
    for layer in _LAYERS:
        # __import__, as an import statement runs it, so that -X importtime
        # reports each layer (importlib.import_module bypasses that report).
        __import__(f"{__name__}.{layer}")
        mod = sys.modules[f"{__name__}.{layer}"]
        names.update((attr, getattr(mod, attr)) for attr in mod.__all__)
        public += mod.__all__
    names["__all__"] = public
    try:
        return names[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
