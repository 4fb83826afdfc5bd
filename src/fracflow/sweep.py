"""Capacity sweeps over fracture length and quadratic-drag coefficient.

The study fixes a drawdown target from the unfractured baseline, then for
every (L, beta) cell solves the inverse problem for the rate sustaining
that drawdown and tabulates the diffusive capacity J = Q / PDD*.  All
cells of one sweep share a single node set (only the fracture tagging
differs), so comparisons across the table see no mesh-induced noise from
the discrete point well.  The shared node set also means one bulk
condensation over the union of the fracture nodes serves the baseline
and every cell: a sweep condenses the bulk once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ControlError, SolverError
from .kernels import FlowParams
from .meshing import DomainSpec, build_reservoir_mesh_family
from .setpoint import baseline_pdd, solve_setpoint
from .solvers import condense_bulk

__all__ = ["SweepTable", "TrendDiagnostics", "run_sweep", "trend_check"]


@dataclass(frozen=True)
class SweepTable:
    """Diffusive capacities J[i_beta][j_L] with the rates behind them.

    Failed cells hold NaN and are listed in `failed` as (i, j, reason).
    meta records the geometry, the baseline drawdown PDD* and capacity
    J*, and the solver settings that produced the table.
    """

    L_values: list
    beta_values: list
    J: np.ndarray
    Q: np.ndarray
    outer_iterations: np.ndarray
    failed: list
    meta: dict


@dataclass(frozen=True)
class TrendDiagnostics:
    """Outcome of the qualitative checks on a sweep table.

    increasing_with_length: J grows with L in the most Darcy-like row.
    decreasing_with_drag: J falls with beta at every L.
    saturated: the late-length gain at the largest beta does not exceed
        the one at the smallest beta (both normalized by the early-length
        gain of the smallest-beta row).
    """

    increasing_with_length: bool
    decreasing_with_drag: bool
    saturated: bool
    offending_length_cells: list
    offending_drag_cells: list
    ratio_smallest_beta: float
    ratio_largest_beta: float
    indeterminate: bool

    @property
    def passed(self) -> bool:
        return (self.increasing_with_length and self.decreasing_with_drag
                and self.saturated)


def run_sweep(spec: DomainSpec, L_list, beta_list, Q_baseline: float,
              p: FlowParams, tol: float = 1e-6, max_outer: int = 50,
              picard_tol: float = 1e-9, max_picard: int = 100) -> SweepTable:
    """Tabulate J(L, beta) at the drawdown of the unfractured baseline.

    A cell whose set-point solve fails is recorded and skipped; the
    partial table is still a valid result.
    """
    Ls = [float(L) for L in L_list]
    betas = [float(b) for b in beta_list]
    if not Ls or not betas:
        raise ValueError("L_list and beta_list must be nonempty")
    meshes = build_reservoir_mesh_family(spec, Ls)
    condensation = condense_bulk(meshes, p.k_p)

    pdd_star = baseline_pdd(meshes[0], p, Q_baseline, condensation=condensation)
    j_star = Q_baseline / pdd_star

    nb, nl = len(betas), len(Ls)
    J = np.full((nb, nl), np.nan)
    Q = np.full((nb, nl), np.nan)
    iters = np.zeros((nb, nl), dtype=int)
    failed = []

    for i, beta in enumerate(betas):
        params = replace(p, beta=beta)
        for j, mesh in enumerate(meshes):
            try:
                res = solve_setpoint(mesh, params, pdd_star, tol=tol,
                                     max_outer=max_outer, picard_tol=picard_tol,
                                     max_picard=max_picard,
                                     condensation=condensation)
            except (ControlError, SolverError) as exc:
                failed.append((i, j, str(exc)))
                continue
            # tabulated against the imposed drawdown, so J * PDD* == Q holds exactly
            Q[i, j], J[i, j] = res.Q, res.Q / pdd_star
            iters[i, j] = res.outer_iterations

    meta = {
        "shape": spec.shape,
        "width": spec.width,
        "height": spec.height,
        "radius": spec.radius,
        "resolution": spec.resolution,
        "grading": spec.grading,
        "aperture": spec.aperture,
        "well": list(spec.well),
        "Q_baseline": float(Q_baseline),
        "PDD_star": float(pdd_star),
        "J_star": float(j_star),
        "alpha_f": p.alpha_f,
        "k_p": p.k_p,
        "setpoint_tol": tol,
        "max_outer": max_outer,
        "picard_tol": picard_tol,
        "max_picard": max_picard,
        "failed_cells": len(failed),
    }
    return SweepTable(Ls, betas, J, Q, iters, failed, meta)


def trend_check(t: SweepTable, slack: float = 1e-12) -> TrendDiagnostics:
    """Qualitative behavior of a completed sweep table.

    Requires at least three lengths, two drag values and no failed cells.
    Violations are reported per cell rather than raised.
    """
    if len(t.L_values) < 3 or len(t.beta_values) < 2:
        raise ValueError("trend check needs >= 3 lengths and >= 2 beta values")
    if t.failed:
        raise ValueError(f"trend check requires a complete table ({len(t.failed)} failed cells)")

    order_L = np.argsort(t.L_values)
    order_b = np.argsort(t.beta_values)
    J = t.J[np.ix_(order_b, order_L)]
    nb, nl = J.shape

    def tol_at(x):
        return slack * max(1.0, abs(x))

    bad_L = []
    row0 = J[0]
    for j in range(nl - 1):
        if row0[j + 1] < row0[j] - tol_at(row0[j]):
            bad_L.append((int(order_b[0]), int(order_L[j + 1])))

    bad_b = []
    for j in range(nl):
        col = J[:, j]
        for i in range(nb - 1):
            if col[i + 1] > col[i] + tol_at(col[i]):
                bad_b.append((int(order_b[i + 1]), int(order_L[j])))

    # late-length gain per row, normalized by the early gain of the most
    # Darcy-like row (where the fracture matters most)
    denom = J[0, 1] - J[0, 0]
    indeterminate = bool(abs(denom) <= tol_at(J[0, 0]))
    if indeterminate:
        r_small = r_large = 0.0
        saturated = True
    else:
        r_small = float((J[0, -1] - J[0, -2]) / denom)
        r_large = float((J[-1, -1] - J[-1, -2]) / denom)
        saturated = bool(r_large <= r_small + slack)

    return TrendDiagnostics(
        increasing_with_length=not bad_L,
        decreasing_with_drag=not bad_b,
        saturated=saturated,
        offending_length_cells=bad_L,
        offending_drag_cells=bad_b,
        ratio_smallest_beta=r_small,
        ratio_largest_beta=r_large,
        indeterminate=indeterminate,
    )
