"""Benchmark workloads: CLI configurations made from a seed, and output checks.

Every workload is a fixed physics problem whose outputs were recorded in
``reference.json`` (see ``record_reference.py``).  The seed varies only
what the program must be invariant to: the order of the sweep axes, the
order of the ``validate`` commands and the key order of every config
file.  The same seed gives the same files.

No config sets ``threads``: the default (serial) keeps the sweep on one
core, so that removing the thread knob cannot read as a regression.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

RECT = {"shape": "rectangle", "width": 100.0, "height": 80.0, "aperture": 1.0}
SLAB_DOMAIN = dict(RECT, fracture_length=1.0, resolution=1.0 / 32)

# the 5x5 capacity sweep of acceptance criterion 8
SWEEP = {
    "command": "sweep",
    "domain": dict(RECT, resolution=2.0, grading=1.3, fracture_length=50.0),
    "params": {"alpha_f": 0.05, "beta": 0.0},
    "sweep": {"lengths": [10.0, 20.0, 30.0, 40.0, 50.0],
              "betas": [1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
              "q_baseline": 1000.0},
}
# one large forward solve with VTK output
SOLVE_FINE = {
    "command": "solve",
    "domain": dict(RECT, resolution=0.125, grading=1.05, fracture_length=30.0),
    "params": {"alpha_f": 0.05, "beta": 1e-2},
    "solve": {"q": 1000.0},
    "output": {"write_vtk": True},
}
# the two validate configs of acceptance criterion 11
VALIDATE = {
    "anisotropic": {
        "command": "validate", "domain": SLAB_DOMAIN,
        "params": {"alpha_f": 1.0, "beta": 1.0},
        "validate": {"flavor": "anisotropic", "apertures": [0.2, 0.1, 0.05],
                     "q0": 2.0}},
    "isotropic": {
        "command": "validate", "domain": SLAB_DOMAIN,
        "params": {"alpha_f": 1.0, "beta": 0.1},
        "validate": {"flavor": "isotropic", "apertures": [0.1], "q0": 0.1,
                     "scalings": [1.0, 2.0, 4.0]}},
}

WORKLOADS = ("sweep_5x5", "solve_fine", "validate_slab")

# relative tolerances of the output checks
SWEEP_RTOL = 1e-5      # set-point tolerance 1e-6 plus 6-digit CSV rounding
SOLVE_RTOL = 1e-6
REDUCTION_RTOL = 1e-5


def _shuffled(obj, rng):
    """Same JSON value with the key order of every object permuted."""
    if isinstance(obj, dict):
        keys = list(obj)
        rng.shuffle(keys)
        return {k: _shuffled(obj[k], rng) for k in keys}
    return obj


def configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(check kind, config) for each CLI command of the workload, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_5x5":
        cfg = json.loads(json.dumps(SWEEP))
        rng.shuffle(cfg["sweep"]["lengths"])
        rng.shuffle(cfg["sweep"]["betas"])
        runs = [("sweep", cfg)]
    elif workload == "solve_fine":
        runs = [("solve", SOLVE_FINE)]
    elif workload == "validate_slab":
        flavors = list(VALIDATE)
        rng.shuffle(flavors)
        runs = [(f, VALIDATE[f]) for f in flavors]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(kind, _shuffled(cfg, rng)) for kind, cfg in runs]


def write_commands(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's config files; return one command record each."""
    commands = []
    for i, (kind, cfg) in enumerate(configs(workload, seed)):
        path = workdir / f"{i}_{kind}.json"
        path.write_text(json.dumps(cfg, indent=1))
        out = workdir / f"{i}_{kind}_out"
        commands.append({
            "kind": kind,
            "config": str(path),
            "out": str(out),
            "argv": [cfg["command"], "--config", str(path), "--out", str(out)],
        })
    return commands


# ----------------------------------------------------------------------
# output readers (independent of the fracflow package)

def read_sweep(out: Path) -> dict:
    meta, rows = {}, []
    for line in (out / "sweep.csv").read_text().splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line and not line.startswith("#"):
            rows.append(line.split(","))
    lengths = [float(v) for v in rows[0][1:]]
    table = {}
    for row in rows[2:]:
        for L, v in zip(lengths, row[1:]):
            table[f"{L:g},{float(row[0]):g}"] = float(v)
    trend = out / "trend_check.json"  # not written when a cell failed
    passed = trend.exists() and bool(json.loads(trend.read_text())["passed"])
    return {"J": table, "J_star": float(meta["J_star"]),
            "failed_cells": int(meta["failed_cells"]), "trend_passed": passed}


def read_solve(out: Path) -> dict:
    summary = json.loads((out / "solve_summary.json").read_text())
    points = point_data = None
    with open(out / "pressure.vtk", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("POINTS "):
                points = int(line.split()[1])
            elif line.startswith("POINT_DATA "):
                point_data = int(line.split()[1])
    return {"PDD": summary["PDD"], "J_p": summary["J_p"],
            "vtk_points": points, "vtk_point_data": point_data}


def read_reduction(out: Path) -> list[list[str]]:
    lines = (out / "reduction.csv").read_text().splitlines()
    return [ln.split(",") for ln in lines if ln and not ln.startswith("#")]


READERS = {"sweep": read_sweep, "solve": read_solve,
           "anisotropic": read_reduction, "isotropic": read_reduction}


# ----------------------------------------------------------------------
# checks against the reference

def _close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * abs(b)


def _check_sweep(got: dict, ref: dict) -> list[str]:
    errors = []
    if not got["trend_passed"]:
        errors.append("trend check failed")
    if got["failed_cells"]:
        errors.append(f"{got['failed_cells']} failed cells")
    for key, j_ref in ref["J"].items():
        j = got["J"].get(key, math.nan)
        if not (j > got["J_star"]) or not _close(j, j_ref, SWEEP_RTOL):
            errors.append(f"J[{key}]={j} (reference {j_ref}, J*={got['J_star']})")
    if not _close(got["J_star"], ref["J_star"], SWEEP_RTOL):
        errors.append(f"J*={got['J_star']} (reference {ref['J_star']})")
    return errors


def _check_solve(got: dict, ref: dict) -> list[str]:
    errors = [f"{k}={got[k]} (reference {ref[k]})" for k in ("PDD", "J_p")
              if not _close(got[k], ref[k], SOLVE_RTOL)]
    errors += [f"{k}={got[k]} (mesh has {ref['nodes']} nodes)"
               for k in ("vtk_points", "vtk_point_data") if got[k] != ref["nodes"]]
    return errors


def _check_reduction(got: list, ref: list) -> list[str]:
    if len(got) != len(ref) or got[0] != ref[0]:
        return [f"reduction.csv has {len(got)} rows / header {got[0]}"]
    errors = []
    for i, (row, ref_row) in enumerate(zip(got[1:], ref[1:])):
        for name, v, r in zip(ref[0], row, ref_row):
            if name == "flavor":
                ok = v == r
            else:
                ok = _close(float(v), float(r), REDUCTION_RTOL)
            if not ok:
                errors.append(f"row {i} {name}={v} (reference {r})")
    return errors


CHECKS = {"sweep": _check_sweep, "solve": _check_solve,
          "anisotropic": _check_reduction, "isotropic": _check_reduction}


def check_command(kind: str, out: Path, rc: int, reference) -> tuple[int, int, list[str]]:
    """(operations attempted, operations failed, messages) for one command.

    The command is one operation and each sweep cell one more.  A cell
    fails when its J is missing or off the reference; the command fails
    on a nonzero exit or any other mismatch.  Unreadable output fails
    every operation of the command.
    """
    cells = len(reference["J"]) if kind == "sweep" else 0
    errors = [] if rc == 0 else [f"exit code {rc}"]
    try:
        got = READERS[kind](out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        errors.append(f"unreadable output: {exc!r}")
        return 1 + cells, 1 + cells, [f"{kind}: {e}" for e in errors]
    errors += CHECKS[kind](got, reference)
    bad_cells = sum(1 for e in errors if e.startswith("J["))
    failed = bad_cells + (1 if len(errors) > bad_cells else 0)
    return 1 + cells, failed, [f"{kind}: {e}" for e in errors]
