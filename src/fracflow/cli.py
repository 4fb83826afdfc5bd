"""Command-line surface.

    fracflow solve    --config cfg.json [--out DIR]
    fracflow inverse  --config cfg.json ...
    fracflow sweep    --config cfg.json ...
    fracflow validate --config cfg.json ...

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 trend or error-bound check failure (sweep/validate).  A config that
cannot be read or decoded, an output path that cannot be a directory
and a resolution whose mesh cannot be allocated are configuration
errors too, each reported on one line, and so is a solver error: the
commands run with NumPy's floating-point warnings off.  A command that
ends before it writes an output removes the directories it made for
them.

solver.tol ends every Newton solve of solve, inverse and sweep.
solver.max_picard bounds the Newton steps of the forward solves (the key
and the summary's picard_iterations keep their historical names);
inverse.max_outer and sweep.max_outer bound the set-point's.  The
retired "threads", solver.theta, inverse.tol and sweep.tol are rejected
as unknown keys (exit 2).  A sweep needs 3 distinct lengths and 2 distinct
betas for its trend check, and every fracture a command meshes must fit
its reservoir (exit 2 before any output otherwise); it runs serially.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .assembly import output_C
from .config import COMMANDS, RunSpec, parse_config
from .errors import ConfigError, ControlError, FracflowError, SolverError
from .io import write_field_vtk, write_reduction_csv, write_sweep_csv
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
        max_iter=spec.solver.max_picard)
    pdd = output_C(mesh, field)
    _write_json({
        "Q": spec.solve.q,
        "PDD": pdd,
        # null at q = 0, where there is no drawdown: NaN is not JSON
        "J_p": spec.solve.q / pdd if pdd != 0 else None,
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
    result = solve_setpoint(mesh, spec.params, target, picard_tol=spec.solver.tol,
                            max_outer=spec.inverse.max_outer,
                            condensation=condensation)
    _write_json({
        "target_PDD": target,
        "Q": result.Q,
        "PDD": result.PDD,
        "J_p": result.J_p,
        "outer_iterations": result.outer_iterations,
        "history": [[q, pdd] for q, pdd in result.history],
    }, out / "inverse_result.json")
    if spec.output.write_vtk:
        field, _ = solve_pss(mesh, spec.params, result.Q, tol=spec.solver.tol,
                             max_iter=spec.solver.max_picard,
                             condensation=condensation)
        del condensation  # its factor is not needed to write the field
        write_field_vtk(mesh, field, out / "pressure.vtk")
    return EXIT_OK


def _cmd_sweep(spec: RunSpec, out: Path) -> int:
    s = spec.sweep
    table = run_sweep(spec.domain, s.lengths, s.betas, s.q_baseline, spec.params,
                      picard_tol=spec.solver.tol, max_outer=s.max_outer)
    write_sweep_csv(table, out / "sweep.csv")
    if table.failed:
        print(f"{len(table.failed)} sweep cells failed to converge", file=sys.stderr)
        return EXIT_SOLVER
    diag = trend_check(table)
    _write_json(dict(asdict(diag), passed=diag.passed), out / "trend_check.json")
    return EXIT_OK if diag.passed else EXIT_CHECK


def _cmd_validate(spec: RunSpec, out: Path) -> int:
    v = spec.validate
    L = spec.domain.fracture_length
    resolution = spec.domain.resolution
    q = linear_inflow(v.q0, L)
    reports = divergence_study(L, resolution, spec.params, q, q,
                               v.apertures, flavor=v.flavor,
                               q_over_v=v.q_over_v, q0=v.q0)
    ok = True
    if v.flavor == "anisotropic":
        ok = all(r.bound_holds for r in reports)
    else:
        for s in v.scalings:
            if s == 1.0:  # apertures[0] at q0, which the study has reported
                reports.append(reports[0])
                continue
            qs = linear_inflow(v.q0 * s, L)
            reports.append(isotropic_report(L, v.apertures[0], resolution,
                                            spec.params, qs, qs,
                                            q_over_v=v.q_over_v, q0=v.q0 * s))
        cs = [r.empirical_C for r in reports[-len(v.scalings):]]
        ok = max(cs) <= 4.0 * min(cs)
    write_reduction_csv(reports, out / "reduction.csv")
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
        out = Path(args.out if args.out is not None else spec.output.dir)
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        # a failure is reported on one line, with no NumPy warning before it
        with np.errstate(all="ignore"):
            if args.command == "solve":
                return _cmd_solve(spec, out)
            if args.command == "inverse":
                return _cmd_inverse(spec, out)
            if args.command == "sweep":
                return _cmd_sweep(spec, out)
            return _cmd_validate(spec, out)
    except MemoryError as exc:  # a mesh too fine to allocate
        print(f"configuration error: cannot mesh at resolution "
              f"{spec.domain.resolution:g}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ControlError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FracflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:  # a command that wrote nothing leaves no directory behind
        for d in made:  # leaf first; rmdir removes only an empty directory
            with contextlib.suppress(OSError):
                d.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
