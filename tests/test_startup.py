"""Importing fracflow executes none of NumPy's submodules that no command uses.

Every check runs in a fresh interpreter, since pytest and hypothesis
import numpy.testing before any test runs.  On an older NumPy that
imports a name eagerly, or has no such module, fracflow leaves the name
alone; the checks then cover only the names it deferred.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fracflow

DEFERRED = ("numpy.f2py", "numpy.testing", "numpy.polynomial",
            "numpy.ctypeslib", "numpy.char", "numpy.rec", "numpy.strings")
# a submodule that each of these packages imports when it executes
SUBMODULE = {"numpy.f2py": "numpy.f2py.crackfortran",
             "numpy.testing": "numpy.testing._private.utils",
             "numpy.polynomial": "numpy.polynomial.polynomial"}

# prints which deferred names `import numpy` executed by itself, and
# which have executed (module class restored) or been imported since
EXECUTED = """
import json, sys, types
import numpy
DEFERRED = {deferred!r}
SUBMODULE = {submodule!r}
eager = [n for n in DEFERRED if n in sys.modules]
import fracflow.cli
{body}
executed = [n for n in DEFERRED
            if n in sys.modules and type(sys.modules[n]) is types.ModuleType]
imported = [s for s in SUBMODULE.values() if s in sys.modules]
print(json.dumps({{"eager": eager, "executed": executed, "imported": imported}}))
"""


def run_python(code: str, cwd) -> str:
    src = str(Path(fracflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def executed_after(body: str, cwd) -> dict:
    out = run_python(EXECUTED.format(deferred=DEFERRED, submodule=SUBMODULE,
                                     body=body), cwd)
    return json.loads(out.splitlines()[-1])


def assert_nothing_deferred_ran(state: dict) -> None:
    eager = set(state["eager"])
    assert set(state["executed"]) <= eager
    assert all(SUBMODULE[n] not in state["imported"]
               for n in SUBMODULE if n not in eager)


def test_import_executes_no_deferred_module(tmp_path):
    assert_nothing_deferred_ran(executed_after("", tmp_path))


def test_commands_execute_no_deferred_module(tmp_path):
    domain = {"shape": "rectangle", "width": 20.0, "height": 16.0,
              "fracture_length": 4.0, "aperture": 1.0, "resolution": 2.0}
    params = {"alpha_f": 0.05, "beta": 1e-3}
    configs = {
        "solve": {"domain": domain, "params": params,
                  "output": {"write_vtk": True}},
        "inverse": {"domain": domain, "params": params,
                    "inverse": {"q_baseline": 1000.0}},
        "sweep": {"domain": dict(domain, resolution=1.0), "params": params,
                  "sweep": {"lengths": [2.0, 3.0, 4.0], "betas": [0.0, 1e-3]}},
        "validate": {"domain": dict(domain, fracture_length=1.0,
                                    resolution=0.125),
                     "params": {"alpha_f": 1.0, "beta": 1.0},
                     "validate": {"apertures": [0.2, 0.1]}},
    }
    for command, cfg in configs.items():
        (tmp_path / f"{command}.json").write_text(
            json.dumps(dict(cfg, command=command)))
    body = "\n".join(
        f"assert fracflow.cli.main([{c!r}, '--config', '{c}.json', "
        f"'--out', '{c}_out']) == 0" for c in configs)
    assert_nothing_deferred_ran(executed_after(body, tmp_path))
    assert (tmp_path / "solve_out" / "pressure.vtk").exists()


def test_deferred_modules_work_on_first_use(tmp_path):
    out = run_python("""
        import ctypes, importlib.util, sys
        import fracflow
        import numpy as np
        from numpy.testing import assert_array_equal
        assert_array_equal(np.arange(3), [0, 1, 2])
        np.testing.assert_allclose([1.0], [1.0])
        assert np.f2py.get_include()
        assert np.polynomial.Polynomial([1.0, 2.0])(3.0) == 7.0
        assert np.char.add(["a"], ["b"]).tolist() == ["ab"]
        assert np.rec.array([(1, 2.0)], names="a,b").a.tolist() == [1]
        if importlib.util.find_spec("numpy.strings") is not None:
            assert np.strings.upper(np.array(["x"])).tolist() == ["X"]
        buf = (ctypes.c_double * 3)(1.0, 2.0, 3.0)
        assert np.ctypeslib.as_array(buf).tolist() == [1.0, 2.0, 3.0]
        import numpy.f2py.crackfortran
        assert sys.modules["numpy.f2py"] is np.f2py
        print("ok")
        """, tmp_path)
    assert out.splitlines()[-1] == "ok"


def test_module_imported_first_is_kept(tmp_path):
    out = run_python("""
        import sys
        import numpy.testing as testing
        import numpy.polynomial as polynomial
        import fracflow.cli
        import numpy
        assert sys.modules["numpy.testing"] is testing is numpy.testing
        assert sys.modules["numpy.polynomial"] is polynomial is numpy.polynomial
        print("ok")
        """, tmp_path)
    assert out.splitlines()[-1] == "ok"
