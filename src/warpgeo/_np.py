"""The package's one boundary with numpy.

``import warpgeo`` loads no numpy (nor any layer module: see the package's
``__getattr__``), so the commands that build no array start and finish
without it: ``connect`` (``--path-out`` too) and the flat and same-radius
``sweep``, and ``curvature``, ``geodesic`` and ``isometry`` on every
built-in warp, whose evaluators take a Python float to a Python float
(plain float arithmetic, and ``math.exp`` for ``exp``) and which
``make_warp`` validates on floats too.  ``riccati`` loads numpy.  Every
module reads numpy through :data:`np`, which imports numpy on the first
read of one of its attributes.
"""


class _LazyNumpy:
    """numpy, imported on the first read of an attribute.  The attribute is
    then stored on this object, so later reads are plain attribute lookups.
    Dunder names raise ``AttributeError`` without importing, so probes such
    as ``inspect.unwrap`` load nothing."""

    def __getattr__(self, name):
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _LazyNumpy()


def on_float64(fn):
    """``fn`` evaluated at np.float64, its value returned as a Python float."""
    float64 = np.float64  # bound once: the returned function runs per stage
    return lambda r: float(fn(float64(r)))
