"""Bulk condensation onto the fracture trace, sparse solves and Picard loops.

The reservoir model is linear Darcy flow in the bulk; its only
nonlinearity is the Forchheimer mobility on the 1-D fracture line, which
meets the bulk only through the pressure on the trace nodes G (the
fracture nodes plus the pinned well).  `condense_bulk` eliminates the
interior nodes I once per node set, with A the bulk stiffness and m the
P1 lumped load:

    S = A_GG - A_GI A_II^-1 A_IG,   u = A_II^-1 m_I,   r = m_G - A_GI u.

A is symmetric, so r is both the condensed load and the condensed output
weight.  The cost is one sparse factorization of A_II per node set, one
solve for u and ceil(nG / _SCHUR_BLOCK) block solves for the columns of
S; A_II^-1 A_IG is never formed whole.  A mesh family (a sweep) shares
one node set, so one condensation over the union of its fracture nodes
serves every cell.

`solve_pss` runs the frozen-coefficient (Picard) iteration on the trace
alone: each step adds the line stiffness at the current gradient to S and
solves a dense nG x nG system.  The mobility nonlinearity is monotone, so
Picard converges without globalization tricks; damping is available as a
safeguard and halves automatically if the nonlinear residual grows.  The
full nodal field is rebuilt with one triangular solve at the end.

The slab problems keep the sparse path: each Picard step reassembles the
slab operator and re-solves it.  Solves are deterministic for fixed
inputs: the direct factorization path is attempted first and its
residual verified, with a Jacobi-preconditioned conjugate gradient
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg, splu

from .assembly import (
    LinearSystem,
    ScalarField,
    _bulk_load,
    _bulk_stiffness,
    _edge_geometry,
    _tri_geometry,
    apply_constraints,
    assemble_B_in,
    dirichlet_nodes,
    fracture_edge_gradients,
    slab_frozen_matrix,
    slab_rhs,
)
from .errors import SolverError
from .kernels import FlowParams, fbeta_iso
from .meshing import Mesh

__all__ = ["BulkCondensation", "SolveReport", "TraceLine", "condense_bulk",
           "solve_linear", "solve_pss", "solve_slab", "pss_energy"]

_STAGNATION_LIMIT = 10
_SCHUR_BLOCK = 8  # Schur-complement columns per block solve


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    damping_used: float


def _solve_spd(A: sparse.csr_matrix, b: np.ndarray, tol: float) -> np.ndarray:
    """Direct factorization with residual verification, CG fallback.

    One step of iterative refinement keeps the direct path at machine
    accuracy even for ill-conditioned systems.  The system is solved for
    b scaled by a power of two to max|b| in [0.5, 1): the scaling is exact
    in floating point, and the squared norms of b and of the residuals
    cannot underflow however small b is.
    """
    if not np.any(b):
        return np.zeros_like(b)
    scale = np.ldexp(1.0, int(np.frexp(np.abs(b).max())[1]))
    b = b / scale
    norm_b = np.linalg.norm(b)
    norm_A = sparse.linalg.norm(A)

    def accepted(x):
        # residual relative to b; machine-level backward error is also
        # fine, but only alongside a small relative residual so that a
        # near-singular solve with an exploding x cannot sneak through
        r = float(np.linalg.norm(b - A @ x))
        rel = r / norm_b
        backward = r / (norm_b + norm_A * np.linalg.norm(x))
        return (np.all(np.isfinite(x))
                and (rel <= tol or (backward <= 1e-14 and rel <= 1e-6)))

    history = []
    try:
        lu = splu(A.tocsc())
        x = lu.solve(b)
        r = b - A @ x
        res = np.linalg.norm(r) / norm_b
        if np.isfinite(res) and res > tol:
            x = x + lu.solve(r)
            res = np.linalg.norm(b - A @ x) / norm_b
        history.append(("direct", res))
        if accepted(x):
            return x * scale
    except RuntimeError as exc:  # singular factorization
        history.append(("direct", str(exc)))

    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverError("matrix is not positive definite (nonpositive diagonal)", history)
    M = sparse.diags(1.0 / diag)
    x, info = cg(A, b, rtol=tol, atol=0.0, maxiter=20 * A.shape[0], M=M)
    res = np.linalg.norm(A @ x - b) / norm_b
    history.append(("cg", res))
    if not accepted(x):
        raise SolverError(
            f"linear solve failed to reach relative residual {tol:g} (got {res:g})",
            history)
    return x * scale


def solve_linear(sys: LinearSystem, tol: float = 1e-10):
    """Solve the constrained SPD system to the given relative residual.

    Returns a ScalarField when the system carries a mesh, otherwise the
    raw solution vector.
    """
    A, b = apply_constraints(sys.matrix, sys.rhs, sys.constrained_nodes)
    x = _solve_spd(A, b, tol)
    if sys.mesh is None:
        return x
    return ScalarField(x, sys.mesh)


def _picard(solve_frozen, residual, z0: np.ndarray, tol: float, theta: float,
            max_iter: int, norm=np.linalg.norm) -> tuple[np.ndarray, SolveReport]:
    """Generic damped frozen-coefficient loop.

    solve_frozen(z) must return the next iterate for the coefficient
    frozen at z; residual(z) the relative nonlinear residual; norm(v) the
    norm that measures the relative update.
    """
    z = z0
    prev_update = np.inf
    prev_res = np.inf
    stall = 0
    history = []
    for k in range(1, max_iter + 1):
        z_next = solve_frozen(z)
        if theta != 1.0:
            z_next = theta * z_next + (1.0 - theta) * z
        denom = max(float(norm(z_next)), 1e-300)
        update = float(norm(z_next - z)) / denom
        res = residual(z_next)
        history.append((update, res))
        z = z_next
        if update <= tol or res <= tol:
            return z, SolveReport(k, res, True, theta)
        if res > prev_res:
            theta = max(theta / 2.0, 1.0 / 64.0)
        stall = stall + 1 if update >= prev_update else 0
        if stall >= _STAGNATION_LIMIT:
            raise SolverError(
                f"Picard stagnated for {stall} steps (update {update:g}); "
                "try a smaller damping theta", history)
        prev_update, prev_res = update, res
    raise SolverError(f"Picard did not converge in {max_iter} iterations "
                      f"(last residual {history[-1][1]:g})", history)


@dataclass(frozen=True)
class TraceLine:
    """The fracture line of one mesh at aperture h, on a condensed trace.

    edges: (k, 2) fracture edges as positions in the trace (none when
        h = 0).
    ell: (k,) edge lengths.
    weights: (nG,) r + h * fracture load.  A state at rate Q has the
        condensed load (Q / volume) * weights, and its drawdown is
        (weights . z_G + (Q / volume) * m_I . u) / volume.
    load: (nG,) the uncondensed trace load m_G + h * fracture load.
    volume: |bulk| + h * fracture length.
    """

    edges: np.ndarray
    ell: np.ndarray
    weights: np.ndarray
    load: np.ndarray
    volume: float

    def gradients(self, z: np.ndarray) -> np.ndarray:
        """Tangential derivative of the trace state z on every edge."""
        return (z[self.edges[:, 1]] - z[self.edges[:, 0]]) / self.ell

    def flux(self, coef: np.ndarray) -> np.ndarray:
        """Nodal line term of per-edge flux coef (mobility times gradient)."""
        out = np.zeros(len(self.weights))
        np.add.at(out, self.edges[:, 0], -coef)
        np.add.at(out, self.edges[:, 1], coef)
        return out


def _same_node_set(a: Mesh, b: Mesh) -> bool:
    return (a.well_node == b.well_node
            and (a.nodes is b.nodes or np.array_equal(a.nodes, b.nodes))
            and (a.triangles is b.triangles or np.array_equal(a.triangles, b.triangles)))


@dataclass(frozen=True, eq=False)
class BulkCondensation:
    """Darcy bulk of one node set eliminated onto its trace nodes.

    trace[0] is the well node, pinned to zero; the other trace nodes are
    the fracture nodes of the meshes it was built for.  Build it with
    `condense_bulk`.
    """

    mesh: Mesh
    k_p: float
    trace: np.ndarray       # (nG,) node ids
    position: np.ndarray    # (n,) trace position of every node, -1 if interior
    interior: np.ndarray    # (nI,) node ids
    lu: object              # sparse LU factor of A_II
    A_IG: sparse.csr_matrix
    S: np.ndarray           # (nG, nG) Schur complement
    r: np.ndarray           # (nG,) m_G - A_GI u
    load_G: np.ndarray      # (nG,) m_G
    load_I: np.ndarray      # (nI,) m_I
    mIu: float              # m_I . u
    area: float             # |bulk|

    def line(self, m: Mesh, k_p: float, h: float) -> TraceLine:
        """The fracture line of mesh m at aperture h on this trace."""
        if k_p != self.k_p:
            raise ValueError(f"condensation was built for k_p={self.k_p}, not {k_p}")
        if not _same_node_set(self.mesh, m):
            raise ValueError("mesh does not share the condensed node set")
        edges = m.fracture_edges if h != 0.0 else np.empty((0, 2), dtype=int)
        local = self.position[edges]
        if np.any(local < 0):
            raise ValueError("mesh has fracture nodes outside the condensed trace")
        ell = _edge_geometry(m, edges)
        frac = np.zeros(len(self.trace))
        np.add.at(frac, local.ravel(), np.repeat(h * ell / 2.0, 2))
        return TraceLine(local, ell, self.r + frac, self.load_G + frac,
                         self.area + h * float(ell.sum()))

    def operator(self, line: TraceLine, coef: np.ndarray) -> np.ndarray:
        """S plus the line stiffness (coef_e / ell_e) [[1, -1], [-1, 1]]."""
        M = self.S.copy()
        k = np.asarray(coef, dtype=float) / line.ell
        i, j = line.edges[:, 0], line.edges[:, 1]
        np.add.at(M, (i, i), k)
        np.add.at(M, (j, j), k)
        np.add.at(M, (i, j), -k)
        np.add.at(M, (j, i), -k)
        return M

    def output(self, line: TraceLine, z: np.ndarray, q: float) -> float:
        """Drawdown C of the state with trace values z and interior load
        q * m_I (q = Q / volume; 0 for a state with no interior load)."""
        return (float(line.weights @ z) + q * self.mIu) / line.volume

    @staticmethod
    def solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Dense solve on the trace with the well (position 0) pinned to zero."""
        z = np.zeros(len(rhs))
        try:
            z[1:] = np.linalg.solve(M[1:, 1:], rhs[1:])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"condensed trace system is singular: {exc}",
                              [("dense", str(exc))]) from exc
        return z

    def full_field(self, m: Mesh, z: np.ndarray, q: float) -> ScalarField:
        """Nodal field of trace values z with interior load q * m_I, by one
        triangular solve with the bulk factor."""
        w = np.empty(m.num_nodes)
        w[self.trace] = z
        rhs = q * self.load_I - self.A_IG @ z
        w[self.interior] = self.lu.solve(rhs)
        return ScalarField(w, m)


def condense_bulk(meshes, k_p: float) -> BulkCondensation:
    """Factorize the bulk of one node set once and condense it onto the trace.

    `meshes` is a Mesh or a family of meshes sharing one node set (as from
    build_reservoir_mesh_family); the trace is the well plus the union of
    their fracture nodes, so the result serves every mesh of the family.
    """
    meshes = [meshes] if isinstance(meshes, Mesh) else list(meshes)
    m = meshes[0]
    if not all(_same_node_set(m, o) for o in meshes[1:]):
        raise ValueError("meshes must share one node set")
    frac = np.unique(np.concatenate([o.fracture_edges.ravel() for o in meshes]))
    trace = np.concatenate([[m.well_node], frac[frac != m.well_node]]).astype(int)
    position = np.full(m.num_nodes, -1)
    position[trace] = np.arange(len(trace))
    interior = np.flatnonzero(position < 0)

    A = _bulk_stiffness(m, k_p)
    A_I = A[interior]
    A_IG = A_I[:, trace].tocsc()
    A_GI = A_IG.T.tocsr()
    try:
        lu = splu(A_I[:, interior].tocsc())
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"bulk operator off the trace is singular: {exc}",
                          [("direct", str(exc))]) from exc

    load = _bulk_load(m)
    u = lu.solve(load[interior])
    S = A[trace][:, trace].toarray()
    for j in range(0, len(trace), _SCHUR_BLOCK):
        block = slice(j, j + _SCHUR_BLOCK)
        S[:, block] -= A_GI @ lu.solve(A_IG[:, block].toarray())
    S.flags.writeable = False
    return BulkCondensation(
        mesh=m, k_p=float(k_p), trace=trace, position=position,
        interior=interior, lu=lu, A_IG=A_IG.tocsr(), S=S,
        r=load[trace] - A_GI @ u, load_G=load[trace], load_I=load[interior],
        mIu=float(load[interior] @ u), area=float(_tri_geometry(m)[0].sum()))


def solve_pss(m: Mesh, p: FlowParams, Q: float, tol: float = 1e-9,
              theta: float = 1.0, max_iter: int = 100,
              aperture: float | None = None, *,
              condensation: BulkCondensation | None = None,
              ) -> tuple[ScalarField, SolveReport]:
    """Pseudo-steady-state solve of the coupled reduced model at rate Q.

    The iteration runs on the condensed trace (built for m unless a
    `condensation` of its node set is passed).  The start iterate solves
    the linear surrogate (k_f on the fracture line); each Picard step
    freezes the line mobility at the previous gradient.  With beta = 0
    and the default k_f the first step already reproduces the start
    iterate, so the loop exits after one iteration.
    """
    h = m.aperture if aperture is None else aperture
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p, h)
    q = Q / line.volume
    b = q * line.weights
    # residual relative to the full uncondensed load, whose interior rows
    # the condensed state satisfies exactly
    norm_b = max(abs(q) * float(np.sqrt(c.load_I @ c.load_I + line.load @ line.load)),
                 1e-300)

    def solve_frozen(z):
        gx = line.gradients(z)
        return c.solve(c.operator(line, h * fbeta_iso(np.abs(gx), p)), b)

    def residual(z):
        gx = line.gradients(z)
        r = c.S @ z + line.flux(h * fbeta_iso(np.abs(gx), p) * gx) - b
        r[0] = 0.0
        return float(np.linalg.norm(r)) / norm_b

    # the update is measured on the nodes of m's own fracture line, so a
    # condensation over a larger trace (a mesh family's) stops at the same step
    on_line = np.unique(line.edges)

    def norm(v):
        return np.linalg.norm(v[on_line])

    z0 = c.solve(c.operator(line, np.full(len(line.ell), h * p.k_f)), b)
    z, report = _picard(solve_frozen, residual, z0, tol, theta, max_iter, norm)
    return c.full_field(m, z, q), report


def solve_slab(m: Mesh, p: FlowParams, flavor: str, q_plus, q_minus,
               q_over_v: float, tol: float = 1e-9, theta: float = 1.0,
               max_iter: int = 100, reduced: bool = False) -> tuple[ScalarField, SolveReport]:
    """Picard solve of the slab problem (full or reduced form).

    With ``reduced=True`` the lateral inflow moves into the volumetric
    source q_over_v - (q+(x)+q-(x))/h and the lateral boundary becomes
    no-flow, which makes the solution independent of y.
    """
    rhs = slab_rhs(m, q_plus, q_minus, float(q_over_v), reduced)
    fixed = dirichlet_nodes(m)
    constraints = [(int(i), 0.0) for i in fixed]
    lin_tol = max(1e-13, min(1e-11, tol * 1e-3))
    norm_rhs = max(float(np.linalg.norm(rhs)), 1e-300)

    def solve_frozen(z):
        K = slab_frozen_matrix(m, p, z, flavor)
        A_c, b_c = apply_constraints(K, rhs, constraints)
        return _solve_spd(A_c, b_c, lin_tol)

    def residual(z):
        r = slab_frozen_matrix(m, p, z, flavor) @ z - rhs
        r[fixed] = 0.0
        return float(np.linalg.norm(r)) / norm_rhs

    z0 = solve_frozen(np.zeros(m.num_nodes))
    z, report = _picard(solve_frozen, residual, z0, tol, theta, max_iter)
    return ScalarField(z, m), report


def _forchheimer_potential(g, alpha: float, beta: float):
    """Antiderivative int_0^g s * fbeta_iso(s) ds, closed form."""
    g = np.asarray(g, dtype=float)
    if beta == 0.0:
        return 0.5 * g * g / alpha
    u = np.sqrt(alpha * alpha + 4.0 * beta * g)
    bracket = u ** 3 / 3.0 - alpha * u * u / 2.0
    bracket0 = alpha ** 3 / 3.0 - alpha ** 3 / 2.0  # at g = 0
    return (bracket - bracket0) / (4.0 * beta * beta)


def pss_energy(m: Mesh, p: FlowParams, W, Q: float,
               aperture: float | None = None) -> float:
    """Variational energy of the coupled state at rate Q.

    Half the bulk Darcy energy plus the fracture drag potential minus the
    work of the source load; this is the convex functional the
    frozen-coefficient iteration descends, so it decreases monotonically
    along Picard iterates.
    """
    h = m.aperture if aperture is None else aperture
    w = W.values if isinstance(W, ScalarField) else np.asarray(W, dtype=float)
    A_bulk = _bulk_stiffness(m, p.k_p)
    e = 0.5 * float(w @ (A_bulk @ w))
    if h != 0.0 and len(m.fracture_edges) > 0:
        gx = fracture_edge_gradients(m, w)
        a = m.nodes[m.fracture_edges[:, 0]]
        b = m.nodes[m.fracture_edges[:, 1]]
        ell = np.linalg.norm(b - a, axis=1)
        e += h * float(np.sum(ell * _forchheimer_potential(np.abs(gx), p.alpha_f, p.beta)))
    e -= float((-assemble_B_in(m, aperture=h) * Q) @ w)
    return e
