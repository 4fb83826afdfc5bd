"""Every config ends in a documented exit code.

Each leaf of a valid small config, one at a time, is replaced by an
awkward value: zero, a sign, an extreme or subnormal float, 2**63, a
non-finite float, or a value of the wrong type.  `cli.main` must end in
0, 2 (one `configuration error:` or `error:` line), 3 or 4, never in an
uncaught exception.

Keys that set a mesh's size draw only values that fail before anything
is allocated or that give a mesh of at most a few thousand nodes, so no
case can ask the allocator for gigabytes.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracflow.cli import main

RECT = {"shape": "rectangle", "width": 20.0, "height": 16.0, "fracture_length": 4.0,
        "aperture": 1.0, "resolution": 2.0, "grading": 1.3, "well": [0.0, 0.0]}
PARAMS = {"alpha_f": 0.05, "beta": 1e-3, "k_p": 1.0}
SLAB = {"shape": "rectangle", "width": 20.0, "height": 16.0, "fracture_length": 1.0,
        "resolution": 0.25}

BASES = {
    "solve": {"command": "solve", "domain": RECT, "params": PARAMS,
              "solver": {"tol": 1e-9, "max_picard": 100}, "solve": {"q": 500.0},
              "output": {"dir": "out", "write_vtk": True}},
    "solve_disk": {"command": "solve", "params": PARAMS, "solve": {"q": 500.0},
                   "domain": {"shape": "disk", "radius": 10.0, "fracture_length": 4.0,
                              "aperture": 1.0, "resolution": 2.0, "grading": 1.3}},
    "inverse": {"command": "inverse", "domain": RECT, "params": PARAMS,
                "inverse": {"q_baseline": 1000.0, "max_outer": 50}},
    "sweep": {"command": "sweep", "domain": dict(RECT, fracture_length=6.0),
              "params": PARAMS,
              "sweep": {"lengths": [2.0, 4.0, 6.0], "betas": [0.0, 1e-3],
                        "q_baseline": 1000.0, "max_outer": 50}},
    "validate": {"command": "validate", "domain": SLAB,
                 "params": {"alpha_f": 1.0, "beta": 1.0},
                 "validate": {"flavor": "anisotropic", "apertures": [0.2, 0.1],
                              "q0": 1.0, "q_over_v": 0.0}},
    "validate_iso": {"command": "validate", "domain": SLAB,
                     "params": {"alpha_f": 1.0, "beta": 0.1},
                     "validate": {"flavor": "isotropic", "apertures": [0.1],
                                  "q0": 0.1, "scalings": [1.0, 2.0]}},
}

VALUES = [0, -1, 0.0, -0.0, 1e12, -1e12, 1e-12, -1e-12, 1e300, -1e300, 1e-300,
          -1e-300, 5e-324, 2 ** 63, math.nan, math.inf, -math.inf, True, "x",
          None, [], {}, [1.0]]

# values of a size-setting key that would mesh for real at a large size:
# 4e12 fracture nodes at resolution 1e-12, 3e12 ring nodes at radius 1e12,
# 4e12 slab columns or rows at a slab length or aperture of 1e12, and
# about 2,600 graded lines across a width or height of 1e300
TOO_LARGE = {"resolution": (1e-12,), "radius": (1e12,), "fracture_length": (1e12,),
             "apertures": (1e12,), "width": (1e300,), "height": (1e300,)}


def _leaves(data, path=()):
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _size_key(path):
    return next(p for p in reversed(path) if isinstance(p, str))


MUTATIONS = [(name, path, value)
             for name, base in BASES.items() for path in _leaves(base)
             for value in VALUES
             if value not in TOO_LARGE.get(_size_key(path), ())]


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    *parents, last = path
    node = data
    for p in parents:
        node = node[p]
    node[last] = value
    return data


def _run(name, path, value):
    data = _replaced(BASES[name], path, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))  # NaN and Infinity as Python's json writes them
        with contextlib.redirect_stderr(err):
            rc = main([BASES[name]["command"], "--config", str(cfg),
                       "--out", str(Path(tmp) / "out")])
    return rc, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutation=st.sampled_from(MUTATIONS))
# values that once ended in a traceback: NumPy's size ValueError, a float
# power that overflows, a JSON integer that fits no C long, and a graded
# interval inside the fracture's old tagging tolerance
@example(mutation=("solve", ("domain", "resolution"), 1e-300))
@example(mutation=("validate", ("domain", "resolution"), 1e-300))
@example(mutation=("solve", ("domain", "grading"), 1e300))
@example(mutation=("solve", ("domain", "grading"), 2 ** 63))
@example(mutation=("solve", ("domain", "grading"), 1e15))
@example(mutation=("solve_disk", ("domain", "grading"), 1e15))
def test_every_config_ends_in_a_documented_exit_code(mutation):
    rc, err = _run(*mutation)
    assert rc in (0, 2, 3, 4), (rc, err)
    if rc == 2:
        assert err.count("\n") == 1, err
        assert err.startswith(("configuration error: ", "error: ")), err


def test_extreme_resolution_and_grading_exit_0_or_2():
    # the resolution fails before anything is allocated, the grading of
    # 1e300 leaves triangles of zero area, and 1e15 meshes and solves
    for mutation, expected in [
            (("solve", ("domain", "resolution"), 1e-300), 2),
            (("solve", ("domain", "grading"), 1e300), 2),
            (("solve", ("domain", "grading"), 1e15), 0),
            (("solve_disk", ("domain", "grading"), 1e15), 0)]:
        rc, err = _run(*mutation)
        assert rc == expected, (mutation, rc, err)
