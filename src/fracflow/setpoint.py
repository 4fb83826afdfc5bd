"""Rate inversion: find the production rate giving a prescribed drawdown.

The coupled model is a single-input single-output system

    A z + F(z) + B_in Q = 0,      pdd = C(z),

linear in the rate Q.  One linear step response X (A X = -B_in, gain
G = C(X)) turns the inverse problem into a fixed point for Q: solve the
nonlinear state at the current rate, solve the linear correction
A zt = -F(z), and update Q = (target - C(zt)) / G.  At the fixed point
the achieved drawdown equals the target by construction; with beta = 0
the correction vanishes and the first rate is already exact.

Every solve here runs on the bulk condensed onto the fracture trace
(`fracflow.solvers.condense_bulk`): F lives on the trace, so the
correction zt needs no interior load, and C follows from the trace
values alone.  A set-point solve factorizes the bulk once, or not at all
when the caller passes the condensation of its node set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ScalarField
from .errors import ControlError
from .kernels import FlowParams, fbeta_iso
from .meshing import Mesh
from .solvers import BulkCondensation, condense_bulk, solve_pss

__all__ = ["SetpointResult", "baseline_pdd", "step_response", "solve_setpoint"]


@dataclass(frozen=True)
class SetpointResult:
    """Outcome of a set-point solve.

    J_p is the diffusive capacity Q / PDD, the productivity index of the
    fractured configuration; history holds one (Q, PDD) pair per outer
    iteration.
    """

    Q: float
    PDD: float
    J_p: float
    outer_iterations: int
    history: list
    field: ScalarField


def baseline_pdd(m: Mesh, p: FlowParams, Q: float, *,
                 condensation: BulkCondensation | None = None) -> float:
    """Drawdown of the unfractured reservoir at rate Q (pure Darcy).

    Fracture terms are disabled by treating the aperture as zero, so only
    the bulk operator and the pinned well remain.
    """
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p, 0.0)
    q = Q / line.volume
    return c.output(line, c.solve(c.S, q * line.weights), q)


def step_response(m: Mesh, p: FlowParams, aperture: float | None = None, *,
                  condensation: BulkCondensation | None = None,
                  ) -> tuple[ScalarField, float]:
    """Unit-rate linear response X (A X = -B_in) and its gain G = C(X) > 0."""
    h = m.aperture if aperture is None else aperture
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p, h)
    q = 1.0 / line.volume
    x = c.solve(c.operator(line, np.full(len(line.ell), h * p.k_f)), q * line.weights)
    return c.full_field(m, x, q), c.output(line, x, q)


def solve_setpoint(m: Mesh, p: FlowParams, target_pdd: float,
                   tol: float = 1e-6, max_outer: int = 50,
                   picard_tol: float = 1e-9, theta: float = 1.0,
                   aperture: float | None = None, *,
                   condensation: BulkCondensation | None = None) -> SetpointResult:
    """Find Q such that the pseudo-steady drawdown equals target_pdd.

    Pass the `condensation` of m's node set to share one bulk
    factorization between calls.  Raises ControlError with the (Q, PDD)
    history if max_outer is exhausted before |PDD - target| <= tol * target.
    """
    if not (np.isfinite(target_pdd) and target_pdd > 0):
        raise ValueError(f"target_pdd must be positive and finite, got {target_pdd}")
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    h = m.aperture if aperture is None else aperture
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p, h)
    A_lin = c.operator(line, np.full(len(line.ell), h * p.k_f))
    # gain of the step response, without rebuilding its nodal field
    q1 = 1.0 / line.volume
    G = c.output(line, c.solve(A_lin, q1 * line.weights), q1)

    # The raw update Q <- (target - C zt)/G contracts only while the
    # nonlinear drawdown slope stays below twice the linear gain G;
    # relaxing the step restores convergence for strongly nonlinear
    # cells without touching the benign path (omega starts at 1).
    Q = target_pdd / G
    omega = 1.0
    prev_err = np.inf
    history: list[tuple[float, float]] = []
    for k in range(1, max_outer + 1):
        z, _ = solve_pss(m, p, Q, tol=picard_tol, theta=theta, aperture=aperture,
                         condensation=c)
        zg = z.values[c.trace]
        pdd = c.output(line, zg, Q / line.volume)
        history.append((Q, pdd))
        err = abs(pdd - target_pdd)
        if err <= tol * target_pdd:
            return SetpointResult(Q, pdd, Q / pdd, k, history, z)
        if err >= prev_err:
            omega = max(omega / 2.0, 1.0 / 64.0)
        else:
            omega = min(1.0, omega * 1.25)
        prev_err = err
        gx = line.gradients(zg)
        Fz = line.flux(h * (fbeta_iso(np.abs(gx), p) - p.k_f) * gx)
        zt = c.solve(A_lin, -Fz)
        Q_raw = (target_pdd - c.output(line, zt, 0.0)) / G
        Q = Q + omega * (Q_raw - Q)
    raise ControlError(
        f"set-point iteration did not reach the target drawdown in {max_outer} steps "
        f"(last relative error {err / target_pdd:g}, relaxation {omega:g})",
        history)
