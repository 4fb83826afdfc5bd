"""Self-test of the benchmark tracer on small cases; wall time is not checked.

    python3 -m pytest perfbench/tests -q

The tracer's work counts are compared with counts taken independently of
it: the per-cell outer iterations the sweep CSV records, the Picard
iterations ``solve`` reports, the rows of ``reduction.csv``, and SciPy's
LU factorization routine counted at its own module.  These hold for any
solver algorithm, so a change that alters the counts keeps this test
valid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import fracflow.cli  # noqa: E402
import fracflow.solvers  # noqa: E402
import fracflow.sweep  # noqa: E402
from scipy.sparse.linalg._dsolve import _superlu  # noqa: E402
from tracer import (CHILD, END, LAYER, NAME, PARENT, START,  # noqa: E402
                    Tracer, layer_metrics)

SMALL_DOMAIN = {"shape": "rectangle", "width": 40.0, "height": 32.0,
                "aperture": 1.0, "resolution": 4.0, "grading": 1.3,
                "fracture_length": 16.0}
CASES = {
    "sweep": {"command": "sweep", "domain": SMALL_DOMAIN,
              "params": {"alpha_f": 0.05, "beta": 0.0},
              "sweep": {"lengths": [8.0, 12.0, 16.0], "betas": [1e-4, 1e-1],
                        "q_baseline": 1000.0}},
    "solve": {"command": "solve", "domain": SMALL_DOMAIN,
              "params": {"alpha_f": 0.05, "beta": 1e-2},
              "solve": {"q": 1000.0}, "output": {"write_vtk": True}},
    "validate": {"command": "validate",
                 "domain": dict(SMALL_DOMAIN, fracture_length=1.0, resolution=0.125),
                 "params": {"alpha_f": 1.0, "beta": 1.0},
                 "validate": {"flavor": "anisotropic", "apertures": [0.2, 0.1],
                              "q0": 2.0}},
}


@pytest.fixture
def gstrf_calls(monkeypatch):
    calls = []
    original = _superlu.gstrf

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(_superlu, "gstrf", counting)
    return calls


def _traced_run(case, tmp_path, config=None, exit_code=0):
    cfg = tmp_path / f"{case}.json"
    cfg.write_text(json.dumps(config or CASES[case]))
    out = tmp_path / f"{case}_out"
    with Tracer() as tracer:
        rc = fracflow.cli.main([case, "--config", str(cfg), "--out", str(out)])
    assert rc == exit_code
    return layer_metrics(tracer.spans), out


def _csv_meta(path):
    return dict(line[2:].split("=", 1) for line in path.read_text().splitlines()
                if line.startswith("# ") and "=" in line)


def test_sweep_counts(tmp_path, gstrf_calls):
    m, out = _traced_run("sweep", tmp_path)
    meta = _csv_meta(out / "sweep.csv")
    per_cell = [int(n) for line in (out / "sweep.csv").read_text().splitlines()
                if line.startswith("# outer_iterations[")
                for n in line.split("]=", 1)[1].split(",")]
    assert m["sweep.cells"] == len(per_cell) == 6
    assert m["sweep.failed_cells"] == int(meta["failed_cells"]) == 0
    assert m["setpoint.calls"] == 6
    assert m["setpoint.converged_ratio"] == 1.0
    assert m["setpoint.outer_iterations"] == sum(per_cell)
    assert m["setpoint.min_outer_iterations"] == min(per_cell)
    assert m["setpoint.max_outer_iterations"] == max(per_cell)
    assert m["solvers.factorizations"] == len(gstrf_calls) > 0
    assert m["meshing.calls"] == 1
    assert m["io.bytes_written"] == (out / "sweep.csv").stat().st_size
    assert m["config.parse_s"] > 0


def test_failed_cells_counted(tmp_path):
    config = json.loads(json.dumps(CASES["sweep"]))
    config["sweep"]["max_outer"] = 2  # too few for the strong-drag row
    m, out = _traced_run("sweep", tmp_path, config, exit_code=3)
    failed = int(_csv_meta(out / "sweep.csv")["failed_cells"])
    assert m["sweep.failed_cells"] == failed > 0
    assert m["setpoint.converged_ratio"] == (6 - failed) / 6
    assert m["setpoint.max_outer_iterations"] == 2


def test_solve_counts(tmp_path, gstrf_calls):
    m, out = _traced_run("solve", tmp_path)
    summary = json.loads((out / "solve_summary.json").read_text())
    assert m["solvers.pss_calls"] == 1
    assert m["solvers.picard_iterations"] == summary["picard_iterations"]
    assert m["solvers.factorizations"] == len(gstrf_calls) > 0
    assert m["solvers.triangular_solves"] >= m["solvers.factorizations"]
    assert m["meshing.calls"] == 1
    points = next(line for line in (out / "pressure.vtk").read_text().splitlines()
                  if line.startswith("POINTS "))
    assert m["meshing.nodes"] == int(points.split()[1])
    assert m["io.bytes_written"] == (out / "pressure.vtk").stat().st_size
    assert m["setpoint.calls"] == m["sweep.cells"] == m["solvers.slab_calls"] == 0


def test_validate_counts(tmp_path, gstrf_calls):
    m, out = _traced_run("validate", tmp_path)
    rows = [ln for ln in (out / "reduction.csv").read_text().splitlines()
            if ln and not ln.startswith(("#", "flavor"))]
    assert m["reduction.reports"] == len(rows) == 2
    assert m["solvers.slab_calls"] == 2 * len(rows)  # full and reduced per report
    assert m["solvers.slab_picard_iterations"] >= m["solvers.slab_calls"]
    assert m["solvers.factorizations"] == len(gstrf_calls) > 0
    assert m["solvers.pss_calls"] == m["setpoint.calls"] == 0


def test_counts_repeat_exactly(tmp_path):
    first, _ = _traced_run("sweep", tmp_path)
    second, _ = _traced_run("sweep", tmp_path)
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_uninstall_restores_bindings():
    before = (fracflow.cli.run_sweep, fracflow.sweep.solve_setpoint,
              fracflow.solvers.splu, fracflow.solvers.apply_constraints)
    with Tracer():
        during = (fracflow.cli.run_sweep, fracflow.sweep.solve_setpoint,
                  fracflow.solvers.splu, fracflow.solvers.apply_constraints)
    after = (fracflow.cli.run_sweep, fracflow.sweep.solve_setpoint,
             fracflow.solvers.splu, fracflow.solvers.apply_constraints)
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_self_time_subtracts_child_spans():
    def span(name, start, end, parent, child):
        s = [None] * 8
        s[NAME], s[LAYER] = name, name.split(".")[0]
        s[START], s[END], s[PARENT], s[CHILD] = start, end, parent, child
        return s

    spans = [span("setpoint.solve_setpoint", 0.0, 10.0, -1, 6.0),
             span("solvers.solve_pss", 1.0, 5.0, 0, 3.0),
             span("assembly.apply_constraints", 2.0, 5.0, 1, 0.0),
             span("assembly.assemble_A", 6.0, 8.0, 0, 0.0)]
    m = layer_metrics(spans)
    assert m["setpoint.self_s"] == 4.0
    assert m["solvers.self_s"] == 1.0
    assert m["assembly.self_s"] == 5.0
    assert m["assembly.calls"] == 2
    assert m["assembly.apply_constraints_s"] == 3.0
