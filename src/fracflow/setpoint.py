"""Rate inversion: find the production rate giving a prescribed drawdown.

The coupled model is a single-input single-output system

    A z + F(z) + B_in Q = 0,      pdd = C(z),

linear in the rate Q.  PDD(Q) = C(z(Q)) increases strictly with Q from
PDD(0) = 0, so PDD(Q) = target has one root, found by Newton's method on
Q safeguarded by a bracket (Newton-bisection, "rtsafe" in Press et al.,
*Numerical Recipes*), with one nonlinear solve per outer step.  The
iteration starts at rest (Q = 0, z = 0, PDD = 0), where the trace tangent
is the Darcy-limit operator, so the first rate is the Newton step from
rest, target / G with G the gain of the linear step response, exact when
beta = 0.  Each rate that misses the target narrows the bracket [lo, hi]
around the root, and the next rate is the Newton step with
dPDD/dQ = (w . J^-1 w + m_I . u) / V^2, from the trace tangent J at the
solved state, the output weights w and the volume V
(`BulkCondensation.output_slope`).  The slope is positive, so every step
moves toward the root; a step that leaves the bracket is replaced by its
midpoint.

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
    iteration.  The field at the rate is `solve_pss(m, p, result.Q)`.
    """

    Q: float
    PDD: float
    J_p: float
    outer_iterations: int
    history: list


def baseline_pdd(m: Mesh, p: FlowParams, Q: float, *,
                 condensation: BulkCondensation | None = None) -> float:
    """Drawdown of the unfractured reservoir at rate Q (pure Darcy).

    The unfractured reservoir is m without its fracture edges, which
    shares m's node set and so its condensation: only the bulk operator
    and the pinned well remain, and the drawdown is Q times its slope.
    """
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m.with_fracture_edges([]), p.k_p)
    return Q * c.output_slope(line, p, np.zeros(len(line.weights)))


def step_response(m: Mesh, p: FlowParams, *,
                  condensation: BulkCondensation | None = None,
                  ) -> tuple[ScalarField, float]:
    """Unit-rate linear response X (A X = -B_in) and its gain G = C(X) > 0."""
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p)
    q = 1.0 / line.volume
    x = _pinned_solve(line.operator(c.S, np.full(len(line.ell), line.h / p.alpha_f)),
                      q * line.weights)
    return c.full_field(m, x, q), c.output(line, x, q)


def solve_setpoint(m: Mesh, p: FlowParams, target_pdd: float,
                   tol: float = 1e-6, max_outer: int = 50,
                   picard_tol: float = 1e-9, max_picard: int = 100, *,
                   condensation: BulkCondensation | None = None) -> SetpointResult:
    """Find Q such that the pseudo-steady drawdown equals target_pdd.

    Pass the `condensation` of m's node set to share one bulk
    condensation between calls.  picard_tol and max_picard bound each
    inner Newton solve on the trace (SolverError when that budget is
    spent).  Raises ControlError with the (Q, PDD) history if max_outer
    is exhausted before |PDD - target| <= tol * target.
    """
    if not (np.isfinite(target_pdd) and target_pdd > 0):
        raise ValueError(f"target_pdd must be positive and finite, got {target_pdd}")
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p)

    # f(Q) = PDD - target, negative at lo and positive at hi; from rest
    Q, z, f = 0.0, np.zeros(len(line.weights)), -target_pdd
    lo, hi = 0.0, np.inf
    history: list[tuple[float, float]] = []
    for k in range(1, max_outer + 1):
        Q -= f / c.output_slope(line, p, z)
        if not lo < Q < hi:
            Q = 0.5 * (lo + hi)
        q = Q / line.volume
        z, _ = _solve_trace(c, line, p, q, picard_tol, max_picard)
        pdd = c.output(line, z, q)
        history.append((Q, pdd))
        f = pdd - target_pdd
        if abs(f) <= tol * target_pdd:
            return SetpointResult(Q, pdd, Q / pdd, k, history)
        if f < 0:
            lo = Q
        else:
            hi = Q
    raise ControlError(
        f"set-point iteration did not reach the target drawdown in {max_outer} steps "
        f"(last relative error {abs(f) / target_pdd:g}, bracket [{lo:g}, {hi:g}])",
        history)
