"""Rate inversion: find the production rate giving a prescribed drawdown.

The coupled model is a single-input single-output system

    A z + F(z) + B_in Q = 0,      pdd = C(z),

linear in the rate Q.  PDD(Q) = C(z(Q)) increases strictly with Q from
PDD(0) = 0, so PDD(Q) = target has one root, found by a bracketed root
find with one nonlinear solve per outer step.  One linear step response
X (A X = -B_in, gain G = C(X)) gives the first rate target / G, exact
when beta = 0.  Until a rate overshoots, the next one is the secant
through the origin, Q * target / PDD(Q); then regula falsi steps inside
the bracket, with the Illinois modification (Dowell & Jarratt, BIT 11,
1971): the stored residual of an end kept twice in a row is halved.

Every solve here runs on the bulk condensed onto the fracture trace
(`fracflow.solvers.condense_bulk`), and C follows from the trace values
alone.  A set-point solve condenses the bulk once, or not at all when
the caller passes the condensation of its node set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ScalarField
from .errors import ControlError
from .kernels import FlowParams
from .meshing import Mesh
from .solvers import BulkCondensation, _pinned_solve, _solve_trace, condense_bulk

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
    return c.output(line, _pinned_solve(c.S, q * line.weights), q)


def step_response(m: Mesh, p: FlowParams, aperture: float | None = None, *,
                  condensation: BulkCondensation | None = None,
                  ) -> tuple[ScalarField, float]:
    """Unit-rate linear response X (A X = -B_in) and its gain G = C(X) > 0."""
    h = m.aperture if aperture is None else aperture
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p, h)
    q = 1.0 / line.volume
    x = _pinned_solve(line.operator(c.S, np.full(len(line.ell), h / p.alpha_f)),
                      q * line.weights)
    return c.full_field(m, x, q), c.output(line, x, q)


def solve_setpoint(m: Mesh, p: FlowParams, target_pdd: float,
                   tol: float = 1e-6, max_outer: int = 50,
                   picard_tol: float = 1e-9, max_picard: int = 100,
                   aperture: float | None = None, *,
                   condensation: BulkCondensation | None = None) -> SetpointResult:
    """Find Q such that the pseudo-steady drawdown equals target_pdd.

    Pass the `condensation` of m's node set to share one bulk
    condensation between calls.  picard_tol and max_picard bound each
    inner Newton solve on the trace (SolverError when that budget is
    spent); the nodal field is rebuilt once, at the converged rate.  Raises
    ControlError with the (Q, PDD) history if max_outer is exhausted
    before |PDD - target| <= tol * target.
    """
    if not (np.isfinite(target_pdd) and target_pdd > 0):
        raise ValueError(f"target_pdd must be positive and finite, got {target_pdd}")
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    h = m.aperture if aperture is None else aperture
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p, h)
    A_lin = line.operator(c.S, np.full(len(line.ell), h / p.alpha_f))
    # gain of the step response, without rebuilding its nodal field
    q1 = 1.0 / line.volume
    G = c.output(line, _pinned_solve(A_lin, q1 * line.weights), q1)

    # f(Q) = PDD - target on the bracket [lo, hi]; side is the end moved last
    Q = target_pdd / G
    lo, f_lo, hi, f_hi = 0.0, -target_pdd, np.inf, np.inf
    side = 0
    history: list[tuple[float, float]] = []
    for k in range(1, max_outer + 1):
        q = Q / line.volume
        z, _ = _solve_trace(c, line, h, p, q, picard_tol, max_picard)
        pdd = c.output(line, z, q)
        history.append((Q, pdd))
        f = pdd - target_pdd
        if abs(f) <= tol * target_pdd:
            return SetpointResult(Q, pdd, Q / pdd, k, history,
                                  c.full_field(m, z, q))
        if f < 0:
            lo, f_lo = Q, f
            if side < 0:
                f_hi /= 2.0
            side = -1
        else:
            hi, f_hi = Q, f
            if side > 0:
                f_lo /= 2.0
            side = 1
        if hi == np.inf:
            Q = Q * target_pdd / pdd
        else:
            Q = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
    raise ControlError(
        f"set-point iteration did not reach the target drawdown in {max_outer} steps "
        f"(last relative error {abs(f) / target_pdd:g}, bracket [{lo:g}, {hi:g}])",
        history)
