"""In-memory span tracer that wraps shellmap's layer entry points from outside.

The tracer never edits the package: while installed it replaces module
attributes and class methods with timing wrappers, and it puts the originals
back on uninstall.  Every name is resolved at install time, so an entry
point that a later version removes is reported as absent instead of failing
the run, and a function that other shellmap modules imported by name is
wrapped in each of them (found by identity).

A span records its layer name, start, end and parent span.  Spans stay in
flat arrays until the run writes them out; a layer's self time is its span
durations minus the time covered by their child spans.  A call into a layer
made directly inside a span of the same layer (a scaled field calling its
inner field, ``return_map`` calling ``reciprocal_map``) is folded into the
outer span, so calls and points are counted once per entry into the layer.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

SMALL_BATCH = 10  # batched map calls with at most this many points


def _rows(x) -> int:
    """Number of points in an (n, N) array argument, 1 for a single point."""
    shape = np.shape(x)
    return int(shape[0]) if len(shape) >= 2 else 1


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; installed wrappers stay."""
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = defaultdict(float)
        self._stack: list[int] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(self, layer: str, fn, on_call=None):
        """Span-recording wrapper around fn.  on_call(counts, args, result)
        adds layer counters once the call has returned."""
        lid = self._layer_id(layer)
        calls = layer + ".calls"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.span_layer[stack[-1]] == lid:
                return fn(*args, **kwargs)
            idx = len(tracer.span_layer)
            tracer.span_layer.append(lid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                stack.pop()
                tracer.counts[calls] += 1
            if on_call is not None:
                on_call(tracer.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr, value):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, value)

    def patch_function(self, layer: str, module: str, name: str, on_call=None):
        """Wrap a module-level function wherever a shellmap module holds it."""
        original = getattr(sys.modules.get(module), name, None)
        if original is None:
            self.absent.append(f"{module}.{name}")
            return
        wrapped = self.wrap(layer, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "shellmap":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def patch_methods(self, layer: str, module: str, cls_name: str, methods, on_call=None):
        """Wrap methods on a class and on every subclass that defines them."""
        cls = getattr(sys.modules.get(module), cls_name, None)
        if cls is None:
            self.absent.append(f"{module}.{cls_name}")
            return
        for name in methods:
            if not hasattr(cls, name):
                self.absent.append(f"{module}.{cls_name}.{name}")
        todo, seen = [cls], set()
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.add(c)
            todo.extend(c.__subclasses__())
            for name in methods:
                if name in c.__dict__:
                    self._set(c, name, self.wrap(layer, c.__dict__[name], on_call))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def spans(self) -> dict:
        """Recorded spans as arrays; parent -1 marks a root span."""
        return {
            "layers": np.array(self.layers),
            "layer": np.frombuffer(self.span_layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def self_seconds(self) -> dict:
        """Per-layer self time: span durations minus their children's."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros_like(dur)
        nested = s["parent"] >= 0
        np.add.at(child, s["parent"][nested], dur[nested])
        own = np.bincount(s["layer"], weights=dur - child, minlength=len(self.layers))
        return {name: float(own[i]) for i, name in enumerate(self.layers)}


# ---------------------------------------------------------------------------
# shellmap's layer boundaries
# ---------------------------------------------------------------------------

def _points(layer):
    def count(counts, args, result):
        counts[layer + ".points"] += _rows(args[1])
    return count


def _map_batch(counts, args, result):
    n = _rows(args[1])
    counts["dynamics.map_batch.points"] += n
    counts["dynamics.map_batch.small_calls"] += n <= SMALL_BATCH


def _iterate(counts, args, result):
    # counted per call: a seed that one call returns unconverged is unresolved
    # even if a later call on its limit converges
    if hasattr(result, "converged"):  # BatchOrbitResult
        seeds, converged = result.converged.size, int(np.sum(result.converged))
        steps = int(np.sum(result.steps))
    else:  # OrbitRecord
        seeds, converged = 1, int(result.status == "converged")
        steps = len(result.points) - 1
    counts["dynamics.iterate.seed_steps"] += steps
    counts["dynamics.iterate.seeds"] += seeds
    counts["dynamics.iterate.unresolved"] += seeds - converged


def _scalar_query(counts, args, result):
    counts["inverse.queries.scalar"] += 1


def _batch_query(counts, args, result):
    counts["inverse.queries.points"] += _rows(args[0])


FUNCTIONS = [
    ("surfaces.ray_solve", "shellmap.surfaces", "_ray_solve_batch", _points("surfaces.ray_solve")),
    ("surfaces.frames", "shellmap.surfaces", "frame_at", None),
    ("surfaces.frames", "shellmap.surfaces", "frames_batch", None),
    ("surfaces.retract", "shellmap.surfaces", "retract", None),
    ("surfaces.retract", "shellmap.surfaces", "project_to_surface", None),
    ("fields.surface_calculus", "shellmap.fields", "finite_difference_hessian", None),
    ("domain.outer_geometry", "shellmap.domain", "_outer_geometry_batch",
     _points("domain.outer_geometry")),
    ("dynamics.map_scalar", "shellmap.domain", "radial_map", None),
    ("dynamics.map_scalar", "shellmap.dynamics", "reciprocal_map", None),
    ("dynamics.map_scalar", "shellmap.dynamics", "return_map", None),
    ("dynamics.map_batch", "shellmap.dynamics", "return_map_batch", _map_batch),
    ("dynamics.iterate", "shellmap.dynamics", "iterate_batch", _iterate),
    ("dynamics.iterate", "shellmap.dynamics", "iterate_orbit", _iterate),
    ("analysis.fixed_point_search", "shellmap.analysis", "fixed_point_search", None),
    ("analysis.polish", "shellmap.analysis", "_coordinate_descent", None),
    ("analysis.fd_jacobian", "shellmap.analysis", "finite_difference_jacobian", None),
    ("analysis.cluster", "shellmap.analysis", "_greedy_clusters", None),
    ("inverse.basins", "shellmap.inverse", "basin_decomposition", None),
    ("harness.run_scenario", "shellmap.harness", "run_scenario", None),
]

FIELD_METHODS = {
    "fields.ambient": (["ambient_value", "ambient_grad", "ambient_hess"], _points("fields.ambient")),
    "fields.surface_calculus": (["eval", "value_unchecked", "surface_gradient",
                                 "surface_gradient_ambient", "surface_hessian"], None),
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported shellmap package."""
    for layer, module, name, on_call in FUNCTIONS:
        tracer.patch_function(layer, module, name, on_call)
    for layer, (methods, on_call) in FIELD_METHODS.items():
        tracer.patch_methods(layer, "shellmap.fields", "ThicknessField", methods, on_call)

    # Black boxes keep their maps as instance attributes, so queries are
    # wrapped on each map as it is built.
    box = getattr(sys.modules.get("shellmap.inverse"), "BlackBoxMap", None)
    if box is None:
        tracer.absent.append("shellmap.inverse.BlackBoxMap")
        return
    init = box.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for attr, on_call in (("fn", _scalar_query), ("batch_fn", _batch_query)):
            fn = getattr(self, attr, None)
            if fn is not None:
                object.__setattr__(self, attr, tracer.wrap("inverse.queries", fn, on_call))

    tracer._set(box, "__init__", traced_init)
