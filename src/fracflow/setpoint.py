"""Rate inversion: find the production rate giving a prescribed drawdown.

On the bulk condensed onto the fracture trace
(`fracflow.solvers.condense_bulk`) the state at rate Q = V q solves
S z + (line flux) = q w, and its drawdown C = (w . z + q m_I . u) / V is
linear in z and q, with w the line's output weights and V its volume.
C = target fixes q = (V target - w . z) / (m_I . u), which leaves the
line problem

    (S + w w^T / (m_I . u)) z + (line flux) = (V target / (m_I . u)) w,

the minimizer of the strictly convex trace energy on the hyperplane
C = target (equality-constrained Newton; Boyd & Vandenberghe, *Convex
Optimization*, 2004, sec. 10.2).  One `_solve_line` call solves it, with
no loop over rates; its gradient is the trace residual at the implied
rate, so its stop tolerance means what it means for `solve_pss`.  Every
iterate meets the target, so a set-point has that one tolerance and one
step budget, and no tolerance on the drawdown.  The Darcy start is exact
at beta = 0 or aperture 0: one step ends the solve.
A set-point solve condenses the bulk once, or not at all when the caller
passes the condensation of its node set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ScalarField
from .errors import ControlError, SolverError
from .kernels import FlowParams
from .meshing import Mesh
from .solvers import BulkCondensation, TraceLine, _gamma, _pinned_solve, _solve_line, condense_bulk

__all__ = ["SetpointResult", "baseline_pdd", "step_response", "solve_setpoint"]


@dataclass(frozen=True)
class SetpointResult:
    """Outcome of a set-point solve.

    J_p is the diffusive capacity Q / PDD, the productivity index of the
    fractured configuration; outer_iterations counts the Newton steps of
    the constrained solve, and history holds the (Q, PDD) pair of each.
    The field at the rate is `solve_pss(m, p, result.Q)`.
    """

    Q: float
    PDD: float
    J_p: float
    outer_iterations: int
    history: list


def _gain_at_rest(c: BulkCondensation, line: TraceLine,
                  p: FlowParams) -> tuple[np.ndarray, float]:
    """Darcy-limit trace response v = J0^-1 w to a unit q, J0 the line's
    tangent at rest (mobility 1/alpha), and the gain at rest
    G = dC/dQ = (w . v + m_I . u) / V^2 > 0; ControlError if V^2 overflows."""
    v = _pinned_solve(line.operator(c.S, line.h / p.alpha_f), line.weights)
    try:
        square = line.volume ** 2
    except OverflowError as exc:  # a volume past 1e154
        raise ControlError(f"the line's volume {line.volume:g} has no float square") from exc
    return v, (float(line.weights @ v) + c.mIu) / square


def baseline_pdd(m: Mesh, p: FlowParams, Q: float, *,
                 condensation: BulkCondensation | None = None) -> float:
    """Drawdown of the unfractured reservoir at rate Q (pure Darcy).

    The unfractured reservoir is m without its fracture edges, which
    shares m's node set and so its condensation: only the bulk operator
    and the pinned well remain, and the drawdown is Q times its gain.
    ControlError if a positive Q's drawdown is 0 or not finite.
    """
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    pdd = Q * _gain_at_rest(c, c.line(m.with_fracture_edges([]), p.k_p), p)[1]
    if Q > 0 and not 0 < pdd < np.inf:  # e.g. a subnormal rate's, rounded to 0
        raise ControlError(f"the baseline drawdown at rate {Q:g} is {pdd:g}, "
                           "which no set-point can target")
    return pdd


def step_response(m: Mesh, p: FlowParams, *,
                  condensation: BulkCondensation | None = None,
                  ) -> tuple[ScalarField, float]:
    """Unit-rate linear response X (A X = -B_in) and its gain G = C(X) > 0."""
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p)
    v, G = _gain_at_rest(c, line, p)
    q = 1.0 / line.volume
    return c.full_field(m, q * v, q), G


def solve_setpoint(m: Mesh, p: FlowParams, target_pdd: float, *,
                   picard_tol: float = 1e-9, max_outer: int = 50,
                   condensation: BulkCondensation | None = None) -> SetpointResult:
    """Find Q such that the pseudo-steady drawdown equals target_pdd.

    One Newton solve on the hyperplane C = target_pdd (module docstring),
    stopped at picard_tol with the residual of `solve_pss` at the Darcy
    start's rate, in at most max_outer steps (ControlError with the
    (Q, PDD) history when they are spent).  Every step's drawdown is the
    target by construction, up to the rounding of its two terms w . z and
    q m_I . u; ControlError should the last miss it by more.  Pass the
    `condensation` of m's node set to share one bulk condensation.
    """
    if not (np.isfinite(target_pdd) and target_pdd > 0):
        raise ValueError(f"target_pdd must be positive and finite, got {target_pdd}")
    if max_outer < 1:
        raise ValueError(f"max_outer must be >= 1, got {max_outer}")
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p)
    w, V = line.weights, line.volume

    # the residual scale of `solve_pss` at the Darcy start's rate
    q_start = target_pdd / (_gain_at_rest(c, line, p)[1] * V)
    norm_b = q_start * float(np.sqrt(c.load_I @ c.load_I + line.load @ line.load))
    history: list[tuple[float, float]] = []

    def record(z):
        q = (V * target_pdd - float(w @ z)) / c.mIu
        history.append((V * q, c.output(line, z, q)))

    try:
        z, report = _solve_line(c.S + np.outer(w, w) / c.mIu, line, p,
                                (V * target_pdd / c.mIu) * w, norm_b,
                                picard_tol, max_outer, record)
    except SolverError as exc:
        if len(history) < max_outer:
            raise
        raise ControlError(f"set-point solve did not converge in {max_outer} "
                           f"steps: {exc}", history) from exc
    Q, pdd = history[-1]
    # C = target up to the rounding of w . z (n terms) and of the six
    # operations through q, relative to C's two terms
    slack = _gamma(len(w) + 6) * (abs(float(w @ z)) + abs(Q / V * c.mIu)) / V
    if not abs(pdd - target_pdd) <= slack:
        raise ControlError(f"set-point drawdown {pdd:g} misses the target "
                           f"{target_pdd:g} beyond its rounding {slack:g}", history)
    return SetpointResult(Q, pdd, Q / pdd, report.iterations, history)
