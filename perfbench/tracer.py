"""Span tracer that wraps fracflow's layers from outside the package.

While a ``Tracer`` is installed, every function that a layer module
(``LAYERS``) exposes, meaning its public functions and the private ones
another fracflow module imports, is replaced by a recording wrapper at
each name it is bound under: in its own module, so that calls inside the
layer resolve to the wrapper too, and in every module that imported it.
The SciPy entry points ``solvers`` calls (``splu``, ``SuperLU.solve`` via
the factor object ``splu`` returns, and ``cg``) are wrapped as layer
``scipy``.  Nothing under ``src/`` changes; uninstalling restores the
original bindings.

Each call becomes one span ``[name, layer, start, end, parent, child_s,
info, raised]``.  ``child_s`` is the time covered by direct child spans, so a
span's self time is ``end - start - child_s`` (calls are strictly nested:
the workloads run in one thread).  ``info`` holds a work count read from
the call's result or error, such as a solver report's Picard iterations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("meshing", "assembly", "kernels", "solvers", "setpoint", "sweep",
          "reduction", "io", "config")
_OTHER_MODULES = ("fracflow", "fracflow.cli")

NAME, LAYER, START, END, PARENT, CHILD, INFO, RAISED = range(8)


def _mesh_nodes(result):
    # a mesh family shares one node array between its meshes: count it once
    meshes = result if isinstance(result, list) else [result]
    arrays = {id(m.nodes): m.num_nodes for m in meshes if hasattr(m, "num_nodes")}
    return sum(arrays.values())


def _written_bytes(args, kwargs):
    path = kwargs.get("path", args[-1] if args else None)
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


# work counts read from a call's result: name -> f(args, kwargs, result)
_RESULT_INFO = {
    "solvers.solve_pss": lambda a, k, r: r[1].iterations,
    "solvers.solve_slab": lambda a, k, r: r[1].iterations,
    "setpoint.solve_setpoint": lambda a, k, r: r.outer_iterations,
    "sweep.run_sweep": lambda a, k, r: (int(r.J.size), len(r.failed)),
}
# work counts read from a call's error: name -> f(exc); a ControlError's
# history holds one entry per outer iteration
_ERROR_INFO = {
    "setpoint.solve_setpoint":
        lambda e: len(e.history) if type(e).__name__ == "ControlError" else 0,
}


def _result_info(name, layer):
    if name in _RESULT_INFO:
        return _RESULT_INFO[name]
    if layer == "meshing":
        return lambda a, k, r: _mesh_nodes(r)
    if layer == "io" and name.split(".", 1)[1].startswith("write_"):
        return lambda a, k, r: _written_bytes(a, k)
    return None


class _TracedLU:
    """Factor object whose ``solve`` records a ``scipy.SuperLU.solve`` span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Records nested spans for calls into the fracflow layers.

    Use as a context manager: ``with Tracer() as t: ...``.  Spans stay in
    memory (``t.spans``) until the caller summarizes or writes them.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- span recording -------------------------------------------------

    def _wrap(self, name, layer, fn, info=None, err_info=None, result_map=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, layer, 0.0, 0.0, parent, 0.0, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = True
                if err_info is not None:
                    span[INFO] = err_info(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                span[END] = end
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result_map(result) if result_map is not None else result

        return wrapper

    # -- patching -------------------------------------------------------

    def _set(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        pkg = [importlib.import_module(f"fracflow.{m}") for m in LAYERS]
        others = [importlib.import_module(m) for m in _OTHER_MODULES]
        everywhere = pkg + others
        bindings = {}  # id(function) -> [(module, attr)]
        for mod in everywhere:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    bindings.setdefault(id(obj), []).append((mod, attr))

        for layer, mod in zip(LAYERS, pkg):
            for attr, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                places = bindings.get(id(fn), [])
                imported = any(m is not mod for m, _ in places)
                if attr.startswith("_") and not imported:
                    continue
                name = f"{layer}.{fn.__name__}"
                wrapped = self._wrap(name, layer, fn, _result_info(name, layer),
                                     _ERROR_INFO.get(name))
                for m, a in places:
                    self._set(m, a, wrapped)

        solvers = pkg[LAYERS.index("solvers")]
        lu_solve = self._wrap("scipy.SuperLU.solve", "scipy",
                              lambda lu, b: lu.solve(b))

        def traced_lu(lu):
            return _TracedLU(lu, functools.partial(lu_solve, lu))

        self._set(solvers, "splu",
                  self._wrap("scipy.splu", "scipy", solvers.splu,
                             result_map=traced_lu))
        self._set(solvers, "cg", self._wrap("scipy.cg", "scipy", solvers.cg))
        return self

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _entries(spans, layer):
    """Spans that enter a layer: their parent is outside that layer."""
    for s in spans:
        if s[LAYER] == layer and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer):
            yield s


def _count(spans, name):
    return sum(1 for s in spans if s[NAME] == name)


def _total(spans, name):
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced repetition.

    ``<layer>.calls`` counts entries into the layer (calls from another
    layer or from the CLI), ``<layer>.self_s`` sums span time minus child
    span time over every span of the layer.
    """
    self_s = {}
    for s in spans:
        self_s[s[LAYER]] = self_s.get(s[LAYER], 0.0) + (s[END] - s[START] - s[CHILD])

    def calls(layer):
        return sum(1 for _ in _entries(spans, layer))

    def info_sum(name):
        return sum(s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None)

    factorizations = _count(spans, "scipy.splu")
    tri = _count(spans, "scipy.SuperLU.solve")
    setpoint = [s for s in spans if s[NAME] == "setpoint.solve_setpoint"]
    outer = [s[INFO] for s in setpoint if s[INFO] is not None]
    converged = sum(1 for s in setpoint if not s[RAISED])
    sweeps = [s[INFO] for s in spans if s[NAME] == "sweep.run_sweep" and s[INFO] is not None]

    return {
        "solvers.factorizations": factorizations,
        "solvers.factor_s": _total(spans, "scipy.splu"),
        "solvers.triangular_solves": tri,
        "solvers.triangular_solve_s": _total(spans, "scipy.SuperLU.solve"),
        "solvers.solves_per_factorization": tri / factorizations if factorizations else 0.0,
        "solvers.cg_fallbacks": _count(spans, "scipy.cg"),
        "solvers.pss_calls": _count(spans, "solvers.solve_pss"),
        "solvers.picard_iterations": info_sum("solvers.solve_pss"),
        "solvers.slab_calls": _count(spans, "solvers.solve_slab"),
        "solvers.slab_picard_iterations": info_sum("solvers.solve_slab"),
        "solvers.self_s": self_s.get("solvers", 0.0),
        "assembly.calls": calls("assembly"),
        "assembly.self_s": self_s.get("assembly", 0.0),
        "assembly.apply_constraints_calls": _count(spans, "assembly.apply_constraints"),
        "assembly.apply_constraints_s": _total(spans, "assembly.apply_constraints"),
        "setpoint.calls": len(setpoint),
        "setpoint.outer_iterations": sum(outer),
        "setpoint.min_outer_iterations": min(outer, default=0),
        "setpoint.max_outer_iterations": max(outer, default=0),
        "setpoint.converged_ratio": converged / len(setpoint) if setpoint else 0.0,
        "setpoint.self_s": self_s.get("setpoint", 0.0),
        "sweep.cells": sum(c for c, _ in sweeps),
        "sweep.failed_cells": sum(f for _, f in sweeps),
        "sweep.self_s": self_s.get("sweep", 0.0),
        "reduction.reports": (_count(spans, "reduction.isotropic_report")
                              + _count(spans, "reduction.anisotropic_report")),
        "reduction.self_s": self_s.get("reduction", 0.0),
        "meshing.calls": calls("meshing"),
        "meshing.nodes": sum(s[INFO] or 0 for s in _entries(spans, "meshing")),
        "meshing.self_s": self_s.get("meshing", 0.0),
        "io.bytes_written": sum(s[INFO] or 0 for s in _entries(spans, "io")),
        "io.write_s": sum(s[END] - s[START] for s in _entries(spans, "io")
                          if s[NAME].startswith("io.write_")),
        "kernels.calls": calls("kernels"),
        "kernels.self_s": self_s.get("kernels", 0.0),
        "config.parse_s": sum(s[END] - s[START]
                              for s in _entries(spans, "config")
                              if s[NAME] == "config.parse_config"),
        "trace.spans": len(spans),
    }
