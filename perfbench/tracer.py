"""Span tracer for the warpgeo layers, installed from outside the package.

The tracer wraps the public functions of each layer module (``warp``,
``geometry``, ``riccati``, ``geodesics``, ``connect``, ``isometry``,
``cli``), the warp evaluators, and the references one module holds to
another or to scipy (``connect.integrate``, ``connect.brentq``,
``geodesics.solve_ivp``, ``riccati.solve_ivp``).  Each call becomes a span
(name, start, end, parent) kept in flat in-memory arrays; self times are
derived from the spans at the end.  Counters are read only from values
that cross those boundaries (solver results, public result fields), so
two traced runs over the same inputs give identical counts.

Nothing here edits ``src/warpgeo``: every patch is an attribute swap that
:meth:`Tracer.uninstall` reverts.
"""

from __future__ import annotations

import math
import sys
import time
import types
import warnings
from array import array
from collections import Counter

import numpy as np

LAYERS = ("warp", "geometry", "riccati", "geodesics", "connect", "isometry", "cli")

# Warp methods called per scalar sample; spans on them give warp.self_s.
_WARP_METHODS = {
    "Domain": ("require", "contains"),
    "WarpFunction": (
        "h",
        "dh",
        "d2h",
        "log_deriv",
        "h_unchecked",
        "log_deriv_unchecked",
        "exact_curvature",
        "require_point",
    ),
}

# Spans around one module's reference to another module or to scipy.  They
# delimit child time but belong to no layer's self time.
REFERENCE_SPANS = (
    "connect.integrate",
    "connect.brentq",
    "geodesics.solve_ivp",
    "riccati.solve_ivp",
)

# Raw keys merged by maximum instead of sum (see merge_raw).
_MAX_KEYS = ("geodesics.max_speed_drift",)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.max_speed_drift = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(math.nan)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, orig, wrapped) -> None:
        """Swap every reference the warpgeo modules hold to ``orig``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "warpgeo" or modname.startswith("warpgeo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped)

    def install(self) -> "Tracer":
        from warpgeo import connect, geodesics, geometry, riccati, warp

        mods = {layer: sys.modules.get(f"warpgeo.{layer}") for layer in LAYERS}
        hooks = {
            "geodesics.integrate": self._after_integrate,
            "connect.connect_flat": self._after_connect,
            "connect.connect_neg2": self._after_connect,
            "riccati.solve_prescribed": self._after_solve_prescribed,
        }
        for layer, mod in mods.items():
            if mod is None:
                continue
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    self._replace_everywhere(fn, self._wrap(name, fn, hooks.get(name)))
        for cls_name, methods in _WARP_METHODS.items():
            cls = getattr(warp, cls_name)
            for meth in methods:
                self._set(cls, meth, self._wrap(f"warp.{cls_name}.{meth}", getattr(cls, meth)))
        self._count_constructor(warp.Point, "warp.points_built")
        self._count_constructor(geometry.TangentVector, "geometry.vectors_built")

        self._set(connect, "integrate", self._wrap(
            "connect.integrate", connect.integrate, self._after_replay))
        self._set(connect, "brentq", self._brentq_reference(connect.brentq))
        self._set(geodesics, "solve_ivp", self._ivp_reference(
            "geodesics", geodesics.solve_ivp))
        self._set(riccati, "solve_ivp", self._ivp_reference("riccati", riccati.solve_ivp))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- boundary hooks -------------------------------------------------------

    def _count_constructor(self, cls, key: str) -> None:
        orig = cls.__post_init__
        counts = self.counts

        def post_init(obj):
            counts[key] += 1
            orig(obj)

        self._set(cls, "__post_init__", post_init)

    def _brentq_reference(self, brentq):
        counts = self.counts

        def reference(f, a, b, *args, **kwargs):
            kwargs["full_output"] = True
            root, info = brentq(f, a, b, *args, **kwargs)
            counts["connect.brentq_iters"] += info.iterations
            counts["connect.brentq_calls"] += info.function_calls
            return root

        return self._wrap("connect.brentq", reference)

    def _ivp_reference(self, layer: str, solve_ivp):
        counts = self.counts

        def reference(*args, **kwargs):
            # "always" keeps the count independent of the warning registry,
            # so a repeated run records the same number.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sol = solve_ivp(*args, **kwargs)
            for w in caught:
                if issubclass(w.category, RuntimeWarning):
                    counts[f"{layer}.runtime_warnings"] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            counts[f"{layer}.rhs_evals"] += int(sol.nfev)
            counts[f"{layer}.accepted_steps"] += len(sol.t) - 1
            return sol

        return self._wrap(f"{layer}.solve_ivp", reference)

    def _after_integrate(self, path, args, kwargs) -> None:
        self.counts["geodesics.escapes"] += int(path.escaped)
        drift = float(np.max(np.abs(path.f * path.f + path.g * path.g - 1.0)))
        self.max_speed_drift = max(self.max_speed_drift, drift)

    def _after_replay(self, path, args, kwargs) -> None:
        self.counts["connect.replays"] += 1
        # connect retries a missed replay with tighter tolerances.
        self.counts["connect.replay_retries"] += int("rtol" in kwargs)

    def _after_connect(self, res, args, kwargs) -> None:
        self.counts["connect.calls"] += 1
        self.counts["connect.residual_evals"] += res.iterations
        self.counts["connect.found"] += int(res.found)
        self.counts["connect.threshold"] += int(res.reason == "threshold_violated")
        self.counts["connect.exhausted"] += int(res.reason == "search_exhausted")

    def _after_solve_prescribed(self, field, args, kwargs) -> None:
        self.counts["riccati.grid_points"] += int(field.grid.size)

    # -- derived data ---------------------------------------------------------

    def span_arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.span_arrays())

    def raw(self) -> dict:
        """Counters plus layer times derived from the recorded spans."""
        out: dict = dict(self.counts)
        out["geodesics.max_speed_drift"] = self.max_speed_drift
        out.update(span_times(**self.span_arrays()))
        return out


def span_times(names, name_id, parent, start, end) -> dict:
    """Busy, self and reference times per layer from flat span arrays.

    A span's self time is its duration minus the durations of its direct
    children.  A layer's busy time sums its outermost spans, those with no
    ancestor of the same layer, so nested calls are not counted twice.
    """
    n = len(name_id)
    out: dict = {"trace.spans": n}
    if n == 0:
        return out
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    layer_of = [nm.split(".", 1)[0] for nm in names]
    is_ref = np.array([nm in REFERENCE_SPANS for nm in names])[name_id]
    layer_idx = np.array([LAYERS.index(lay) for lay in layer_of])[name_id]
    layer_idx[is_ref] = -1

    # Walk up the ancestor chains together; spans nest only a few deep.
    outer = layer_idx >= 0
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        same = np.zeros(n, dtype=bool)
        same[live] = layer_idx[anc[live]] == layer_idx[live]
        outer &= ~same
        anc[live] = parent[anc[live]]

    for k, layer in enumerate(LAYERS):
        mine = layer_idx == k
        out[f"{layer}.self_s"] = float(self_t[mine].sum())
        out[f"{layer}.busy_s"] = float(dur[mine & outer].sum())
    for nm, calls in zip(names, np.bincount(name_id, minlength=len(names))):
        out[f"calls:{nm}"] = int(calls)
    per_name = np.bincount(name_id, weights=dur, minlength=len(names))
    for nm, total in zip(names, per_name):
        if nm in REFERENCE_SPANS or nm == "isometry.classify":
            out[f"{nm}_s"] = float(total)
    return out


def merge_raw(parts) -> dict:
    """Combine raw dicts from several processes (sum, or max for maxima)."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            if key in _MAX_KEYS:
                total[key] = max(total.get(key, 0.0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total
