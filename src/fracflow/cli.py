"""Command-line surface.

    fracflow solve    --config cfg.json [--out DIR]
    fracflow inverse  --config cfg.json ...
    fracflow sweep    --config cfg.json ...
    fracflow validate --config cfg.json ...

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 trend or error-bound check failure (sweep/validate).

A sweep solves its cells serially on one bulk condensation; a config
that still sets "threads" is rejected as an unknown key (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .assembly import output_C
from .config import COMMANDS, RunSpec, parse_config
from .errors import ConfigError, ControlError, FracflowError, SolverError
from .io import write_csv, write_field_vtk
from .meshing import build_reservoir_mesh
from .reduction import divergence_study, isotropic_report, linear_inflow
from .setpoint import baseline_pdd, solve_setpoint
from .solvers import condense_bulk, solve_pss
from .sweep import run_sweep, trend_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


def _write_json(data: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _cmd_solve(spec: RunSpec, out: Path) -> int:
    mesh = build_reservoir_mesh(spec.domain)
    field, report = solve_pss(
        mesh, spec.params, spec.solve.q, tol=spec.solver.tol,
        theta=spec.solver.theta, max_iter=spec.solver.max_picard)
    pdd = output_C(mesh, field)
    _write_json({
        "Q": spec.solve.q,
        "PDD": pdd,
        "J_p": spec.solve.q / pdd if pdd != 0 else float("nan"),
        "picard_iterations": report.iterations,
        "final_residual": report.final_residual,
    }, out / "solve_summary.json")
    if spec.output.write_vtk:
        write_field_vtk(mesh, field, out / "pressure.vtk")
    return EXIT_OK


def _cmd_inverse(spec: RunSpec, out: Path) -> int:
    mesh = build_reservoir_mesh(spec.domain)
    condensation = condense_bulk(mesh, spec.params.k_p)
    target = spec.inverse.target_pdd
    if target is None:
        target = baseline_pdd(mesh, spec.params, spec.inverse.q_baseline,
                              condensation=condensation)
    result = solve_setpoint(
        mesh, spec.params, target, tol=spec.inverse.tol,
        max_outer=spec.inverse.max_outer, picard_tol=spec.solver.tol,
        theta=spec.solver.theta, condensation=condensation)
    _write_json({
        "target_PDD": target,
        "Q": result.Q,
        "PDD": result.PDD,
        "J_p": result.J_p,
        "outer_iterations": result.outer_iterations,
        "history": [[q, pdd] for q, pdd in result.history],
    }, out / "inverse_result.json")
    if spec.output.write_vtk:
        write_field_vtk(mesh, result.field, out / "pressure.vtk")
    return EXIT_OK


def _cmd_sweep(spec: RunSpec, out: Path) -> int:
    s = spec.sweep
    if not s.lengths or not s.betas:
        raise ConfigError("sweep.lengths and sweep.betas must be nonempty")
    table = run_sweep(spec.domain, s.lengths, s.betas, s.q_baseline,
                      spec.params, tol=s.tol, max_outer=s.max_outer,
                      picard_tol=spec.solver.tol)
    write_csv(table, out / "sweep.csv")
    if table.failed:
        print(f"{len(table.failed)} sweep cells failed to converge", file=sys.stderr)
        return EXIT_SOLVER
    diag = trend_check(table)
    _write_json({
        "increasing_with_length": diag.increasing_with_length,
        "decreasing_with_drag": diag.decreasing_with_drag,
        "saturated": diag.saturated,
        "offending_length_cells": diag.offending_length_cells,
        "offending_drag_cells": diag.offending_drag_cells,
        "ratio_smallest_beta": diag.ratio_smallest_beta,
        "ratio_largest_beta": diag.ratio_largest_beta,
        "indeterminate": diag.indeterminate,
        "passed": diag.passed,
    }, out / "trend_check.json")
    return EXIT_OK if diag.passed else EXIT_CHECK


def _cmd_validate(spec: RunSpec, out: Path) -> int:
    v = spec.validate
    L = spec.domain.fracture_length
    resolution = v.resolution if v.resolution is not None else spec.domain.resolution
    q = linear_inflow(v.q0, L)
    reports = divergence_study(L, resolution, spec.params, q, q,
                               v.apertures, flavor=v.flavor,
                               q_over_v=v.q_over_v, q0=v.q0)
    ok = True
    if v.flavor == "anisotropic":
        ok = all(r.bound_holds for r in reports)
    else:
        for s in v.scalings:
            qs = linear_inflow(v.q0 * s, L)
            reports.append(isotropic_report(L, v.apertures[0], resolution,
                                            spec.params, qs, qs,
                                            q_over_v=v.q_over_v, q0=v.q0 * s))
        cs = [r.empirical_C for r in reports[-len(v.scalings):]]
        ok = max(cs) <= 4.0 * min(cs)
    write_csv(reports, out / "reduction.csv")
    return EXIT_OK if ok else EXIT_CHECK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracflow",
        description="Darcy-Forchheimer flow in fractured reservoirs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config)
        if spec.command != args.command:
            raise ConfigError(
                f"config declares command {spec.command!r} but {args.command!r} was requested")
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out if args.out is not None else spec.output.dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "solve":
            return _cmd_solve(spec, out)
        if args.command == "inverse":
            return _cmd_inverse(spec, out)
        if args.command == "sweep":
            return _cmd_sweep(spec, out)
        return _cmd_validate(spec, out)
    except (SolverError, ControlError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FracflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
