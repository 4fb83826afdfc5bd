"""Bulk condensation onto the fracture trace, sparse solves and Newton solves.

The reservoir model is linear Darcy flow in the bulk; its only
nonlinearity is the Forchheimer mobility on the 1-D fracture line, which
meets the bulk only through the pressure on the trace nodes G (the
fracture nodes plus the pinned well).  `condense_bulk` eliminates the
interior nodes I once per node set, with A the bulk stiffness and m the
P1 lumped load:

    S = A_GG - A_GI A_II^-1 A_IG,   u = A_II^-1 m_I,   r = m_G - A_GI u.

The well is pinned to zero, so its row and column of S and its entry of
r are zero.  A is symmetric, so r is both the condensed load and the
condensed output weight.  The cost is two sparse factorizations per node
set: one of A_II that only yields a fill-reducing order of the interior,
and one of the bulk without the well, ordered [interior in that order,
trace], whose trailing block gives S with no further solve.  One solve
with that bordered factor gives r and m_I . u.  A mesh family (a sweep)
shares one node set, so one condensation over the union of its fracture
nodes serves every cell.

Every nonlinear solve is Newton's method on a strictly convex energy,
globalized by backtracking on that energy (`_newton`).  The Forchheimer
flux s f(s) has the closed-form tangent t(s) = 1/sqrt(alpha^2 + 4 beta s)
and the drag potential Phi(s) = int_0^s sigma f(sigma) dsigma
(`_forchheimer`).

`_solve_line` solves the 1-D Forchheimer line problem: its tangent adds
the line stiffness at coefficient h t(|z_x|) to a dense S, solved with
position 0 pinned to zero.  `solve_pss` runs it on the condensed trace
and rebuilds the full nodal field with one solve with the bordered
factor; the reduced slab is the same line problem with S = 0.

The full slab keeps the sparse path on its free (unpinned) nodes: the
tangent's sparsity pattern is built once per solve, each Newton step
refills its values and solves it by one sparse LU factorization whose
residual is verified; a solve that fails the check raises SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
# cg is not called here; it stays bound because the benchmark's
# tracer (perfbench/tracer.py) wraps fracflow.solvers.cg by name
from scipy.sparse.linalg import cg, splu

from .assembly import (
    ScalarField,
    _at_points,
    _bulk_load,
    _bulk_stiffness,
    _check_slab,
    _edge_geometry,
    _free_block_assembler,
    _local_stiffness,
    _tri_geometry,
    # not called here; it stays bound because the tracer's self-test
    # (perfbench/tests/test_tracer.py) reads fracflow.solvers.apply_constraints
    apply_constraints,
    assemble_B_in,
    dirichlet_nodes,
    fracture_edge_gradients,
    slab_rhs,
    triangle_gradients,
)
from .errors import SolverError
from .kernels import FlowParams
from .meshing import Mesh

__all__ = ["BulkCondensation", "SolveReport", "TraceLine", "condense_bulk",
           "solve_pss", "solve_slab", "pss_energy"]


@dataclass(frozen=True)
class SolveReport:
    """iterations: Newton steps taken; damping_used: the smallest
    line-search step length among them (1.0 when every step was full)."""

    iterations: int
    final_residual: float
    converged: bool
    damping_used: float


def _solve_spd(A: sparse.spmatrix, b: np.ndarray, tol: float) -> np.ndarray:
    """Direct factorization with residual verification.

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
    try:
        lu = splu(A.tocsc())
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"sparse factorization failed: {exc}",
                          [("direct", str(exc))]) from exc
    x = lu.solve(b)
    r = b - A @ x
    norm_r = np.linalg.norm(r)
    if np.isfinite(norm_r / norm_b) and norm_r / norm_b > tol:
        x = x + lu.solve(r)
        norm_r = np.linalg.norm(b - A @ x)
    # residual relative to b; machine-level backward error is also fine,
    # but only alongside a small relative residual so that a near-singular
    # solve with an exploding x cannot sneak through
    rel = float(norm_r / norm_b)
    backward = norm_r / (norm_b + norm_A * np.linalg.norm(x))
    if not (np.all(np.isfinite(x))
            and (rel <= tol or (backward <= 1e-14 and rel <= 1e-6))):
        raise SolverError(
            f"linear solve failed to reach relative residual {tol:g} (got {rel:g})",
            [("direct", rel)])
    return x * scale


def _forchheimer(s, p: FlowParams):
    """Mobility, tangent and drag potential at gradient norms s >= 0.

    Returns f = fbeta_iso(s), the flux tangent t = d(s f)/ds =
    1/sqrt(alpha^2 + 4 beta s) and Phi(s) = int_0^s sigma f(sigma) dsigma,
    all from one square root u.  Phi is free of cancellation:
    with delta = u - alpha = 4 beta s / (alpha + u),

        Phi(s) = s^2 (2 alpha + 4 delta / 3) / (alpha + u)^2,

    which is s^2 / (2 alpha) at beta = 0 and never divides by beta.
    """
    s = np.asarray(s, dtype=float)
    a = p.alpha_f
    u = np.sqrt(a * a + 4.0 * p.beta * s)
    f = 2.0 / (a + u)
    delta = 2.0 * p.beta * s * f
    return f, 1.0 / u, (s * f) ** 2 * (a / 2.0 + delta / 3.0)


@dataclass(frozen=True)
class _Linearization:
    """A strictly convex energy E and its derivatives at one state.

    grad: grad E, zero on pinned entries.  residual: |grad E| relative to
    the load.  solve(v): x = J^-1 v with J the tangent (the Hessian of E).
    """

    energy: float
    grad: np.ndarray
    residual: float
    solve: object


def _newton(linearize, n: int, tol: float, max_iter: int,
            norm=np.linalg.norm) -> tuple[np.ndarray, SolveReport]:
    """Newton's method on n unknowns, globalized by backtracking on the
    energy.

    linearize(z) returns the `_Linearization` at z.  The start iterate is
    the full Newton step from zero, which is the Darcy-limit solve (the
    tangent at zero gradient is the mobility 1/alpha): exact when
    beta = 0, and short of the solution's gradients otherwise (f <=
    1/alpha), from where Newton on the concave flux s f(s) does not
    overshoot, in one dimension.  A start beyond them (such as a linear
    solve at a mobility far below 1/alpha) can make full steps flip the
    gradient's sign for many steps.

    A step's length halves from 1 until E falls by at least 1e-4 of the
    first-order prediction, or until both the predicted and the actual
    change are below the rounding of E, which near convergence holds for
    every step: at the minimizer |E| is at least a third of each of its
    terms, so 1e-14 |E| bounds the rounding of the sum.  The loop stops
    when the relative update (measured by norm) or the relative residual
    is at most tol.
    """
    zero = linearize(np.zeros(n))
    z = zero.solve(-zero.grad)
    state = linearize(z)
    history = []
    smallest = 1.0
    for k in range(1, max_iter + 1):
        try:
            d = state.solve(-state.grad)
        except SolverError as exc:
            raise SolverError(f"Newton step {k}: {exc}", history + exc.history) from exc
        if not np.all(np.isfinite(d)):
            raise SolverError(f"Newton step {k} left the finite range", history)
        slope = float(state.grad @ d)
        step = 1.0
        while True:
            z_next = z + step * d
            trial = linearize(z_next)
            change = trial.energy - state.energy
            rounding = 1e-14 * max(abs(state.energy), abs(trial.energy))
            if (change <= 1e-4 * step * slope
                    or max(change, -step * slope) <= rounding):
                break
            step /= 2.0
            if step < 1e-10:
                raise SolverError(f"line search stalled in Newton step {k} "
                                  f"(residual {state.residual:g})", history)
        smallest = min(smallest, step)
        update = float(norm(z_next - z)) / max(float(norm(z_next)), 1e-300)
        history.append((update, trial.residual, step))
        z, state = z_next, trial
        if update <= tol or state.residual <= tol:
            return z, SolveReport(k, state.residual, True, smallest)
    raise SolverError(f"Newton did not converge in {max_iter} iterations "
                      f"(last residual {history[-1][1]:g})", history)


@dataclass(frozen=True)
class TraceLine:
    """The fracture line of one mesh at aperture h, on a condensed trace
    (or the reduced slab's x nodes, the line of a zero bulk at h = 1).

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

    def operator(self, S: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """S plus the line stiffness (coef_e / ell_e) [[1, -1], [-1, 1]]."""
        M = S.copy()
        k = np.asarray(coef, dtype=float) / self.ell
        i, j = self.edges[:, 0], self.edges[:, 1]
        np.add.at(M, (i, i), k)
        np.add.at(M, (j, j), k)
        np.add.at(M, (i, j), -k)
        np.add.at(M, (j, i), -k)
        return M


def _pinned_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense solve of M z = rhs with position 0 pinned to zero."""
    z = np.zeros(len(rhs))
    try:
        z[1:] = np.linalg.solve(M[1:, 1:], rhs[1:])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"line system is singular: {exc}",
                          [("dense", str(exc))]) from exc
    return z


def _solve_line(S: np.ndarray, line: TraceLine, h: float, p: FlowParams,
                b: np.ndarray, norm_b: float, tol: float, max_iter: int,
                ) -> tuple[np.ndarray, SolveReport]:
    """Newton solve of the line problem S z + (line flux at mobility
    h * fbeta_iso(|z_x|)) = b, position 0 pinned to zero: the minimizer of

        E(z) = 1/2 z.S z + h sum_e ell_e Phi(|z_x|) - b.z,

    whose tangent is line.operator(S, h * t(|z_x|)).  norm_b scales the
    residual.
    """
    norm_b = max(norm_b, 1e-300)

    def linearize(z):
        gx = line.gradients(z)
        f, t, phi = _forchheimer(np.abs(gx), p)
        Sz = S @ z
        grad = Sz + line.flux(h * f * gx) - b
        grad[0] = 0.0
        energy = 0.5 * float(z @ Sz) + h * float(line.ell @ phi) - float(b @ z)
        return _Linearization(energy, grad, float(np.linalg.norm(grad)) / norm_b,
                              lambda v: _pinned_solve(line.operator(S, h * t), v))

    # the update is measured on the nodes of the line itself, so a trace
    # larger than the line (a mesh family's) stops at the same step
    on_line = np.unique(line.edges)

    def norm(v):
        return np.linalg.norm(v[on_line])

    return _newton(linearize, len(b), tol, max_iter, norm)


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
    interior: np.ndarray    # (nI,) node ids, in the factor's order
    lu: object              # sparse LU of the bulk ordered [interior, trace[1:]]
    S: np.ndarray           # (nG, nG) Schur complement, zero on the well
    r: np.ndarray           # (nG,) m_G - A_GI u, zero on the well
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

    def output(self, line: TraceLine, z: np.ndarray, q: float) -> float:
        """Drawdown C of the state with trace values z and interior load
        q * m_I (q = Q / volume; 0 for a state with no interior load)."""
        return (float(line.weights @ z) + q * self.mIu) / line.volume

    def full_field(self, m: Mesh, z: np.ndarray, q: float) -> ScalarField:
        """Nodal field of trace values z (zero on the well) with interior
        load q * m_I, by one triangular solve with the bordered factor.

        The trace rows of the right-hand side, S z + q (m_G - r), make z
        the trace part of the solution; its interior part is the field.
        """
        rhs_G = (self.S @ z + q * (self.load_G - self.r))[1:]
        x = self.lu.solve(np.concatenate([q * self.load_I, rhs_G]))
        w = np.empty(m.num_nodes)
        w[self.interior] = x[:len(self.interior)]
        w[self.trace] = z
        return ScalarField(w, m)


def condense_bulk(meshes, k_p: float) -> BulkCondensation:
    """Factorize the bulk of one node set and condense it onto the trace.

    `meshes` is a Mesh or a family of meshes sharing one node set (as from
    build_reservoir_mesh_family); the trace is the well plus the union of
    their fracture nodes, so the result serves every mesh of the family.

    A first factorization of A_II only yields a fill-reducing order of
    the interior.  The bulk without the pinned well, ordered [interior in
    that order, trace], is then factorized without pivoting (K = L D L^T
    in SuperLU's K = L U with U = D L^T), and S is read off the trailing
    block: S = U_GG^T D^-1 U_GG.
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

    A = _bulk_stiffness(m, k_p).tocsr()
    symmetric = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    try:
        # argsort in the same expression: perm_c is a view that keeps the
        # whole ordering factor alive
        interior = interior[np.argsort(splu(
            A[interior][:, interior].tocsc(), permc_spec="MMD_AT_PLUS_A",
            **symmetric).perm_c)]
        order = np.concatenate([interior, trace[1:]])
        lu = splu(A[order][:, order].tocsc(), permc_spec="NATURAL", **symmetric)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"bulk operator off the well is singular: {exc}",
                          [("direct", str(exc))]) from exc
    identity = np.arange(len(order))
    if not (np.array_equal(lu.perm_r, identity)
            and np.array_equal(lu.perm_c, identity)):
        raise SolverError("bordered bulk factorization reordered the trace",
                          [("direct", "perm_r or perm_c is not the identity")])

    nI = len(interior)
    U = lu.U[nI:, nI:].toarray()  # the getter copies the whole factor
    S = np.zeros((len(trace), len(trace)))
    S_GG = U.T @ (U / np.diag(U)[:, None])
    # the upper triangle mirrored, so that S is exactly symmetric
    S[1:, 1:] = np.triu(S_GG) + np.triu(S_GG, 1).T
    S.flags.writeable = False

    load = _bulk_load(m)
    w = lu.solve(load[order])
    w_G = np.concatenate([[0.0], w[nI:]])
    r = S @ w_G
    return BulkCondensation(
        mesh=m, k_p=float(k_p), trace=trace, position=position,
        interior=interior, lu=lu, S=S, r=r, load_G=load[trace],
        load_I=load[interior],
        mIu=float(load[interior] @ w[:nI] + (load[trace] - r) @ w_G),
        area=float(_tri_geometry(m)[0].sum()))


def _solve_trace(c: BulkCondensation, line: TraceLine, h: float,
                 p: FlowParams, q: float, tol: float, max_iter: int,
                 ) -> tuple[np.ndarray, SolveReport]:
    """Trace state of the coupled model at q = Q / volume on condensation c."""
    # residual relative to the full uncondensed load, whose interior rows
    # the condensed state satisfies exactly
    norm_b = abs(q) * float(np.sqrt(c.load_I @ c.load_I + line.load @ line.load))
    return _solve_line(c.S, line, h, p, q * line.weights, norm_b, tol, max_iter)


def solve_pss(m: Mesh, p: FlowParams, Q: float, tol: float = 1e-9,
              max_iter: int = 100,
              aperture: float | None = None, *,
              condensation: BulkCondensation | None = None,
              ) -> tuple[ScalarField, SolveReport]:
    """Pseudo-steady-state solve of the coupled reduced model at rate Q.

    The line problem (`_solve_line`) runs on the condensed trace (built
    for m unless a `condensation` of its node set is passed).
    """
    h = m.aperture if aperture is None else aperture
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p, h)
    q = Q / line.volume
    z, report = _solve_trace(c, line, h, p, q, tol, max_iter)
    return c.full_field(m, z, q), report


def _slab_constitutive(g: np.ndarray, p: FlowParams, flavor: str):
    """Flux, tangent and potential of the slab flow on (t, 2) gradients g.

    Returns the flux coefficient times g, (t, 2); its derivative, (t, 2, 2)
    symmetric positive definite; and the potential Psi, (t,), whose
    gradient is the flux.  Isotropic: flux f(|g|) g, tangent
    f I + (t - f) e e^T with e = g/|g| (f I at g = 0), Psi = Phi(|g|).
    Anisotropic: flux (f(|g_x|) g_x, aniso_k g_y), tangent
    diag(t(|g_x|), aniso_k), Psi = Phi(|g_x|) + aniso_k g_y^2 / 2.
    """
    tangent = np.zeros((len(g), 2, 2))
    if flavor == "isotropic":
        s = np.linalg.norm(g, axis=1)
        f, t, phi = _forchheimer(s, p)
        e = np.divide(g, s[:, None], out=np.zeros_like(g), where=s[:, None] > 0)
        tangent[:, 0, 0] = tangent[:, 1, 1] = f
        tangent += (t - f)[:, None, None] * (e[:, :, None] * e[:, None, :])
        return f[:, None] * g, tangent, phi
    f, t, phi = _forchheimer(np.abs(g[:, 0]), p)
    k = p.aniso_k
    tangent[:, 0, 0] = t
    tangent[:, 1, 1] = k
    return (np.column_stack([f * g[:, 0], k * g[:, 1]]), tangent,
            phi + 0.5 * k * g[:, 1] ** 2)


def solve_slab(m: Mesh, p: FlowParams, flavor: str, q_plus, q_minus,
               q_over_v: float, tol: float = 1e-9, max_iter: int = 100,
               reduced: bool = False) -> tuple[ScalarField, SolveReport]:
    """Newton solve of the slab problem (full or reduced form).

    The full slab minimizes sum_T area_T Psi(grad W) - rhs . W over the
    fields that vanish on the pressure-pinned boundary, on its free nodes.

    With ``reduced=True`` the lateral inflow moves into the volumetric
    source q_over_v - (q+(x)+q-(x))/h and the lateral boundary becomes
    no-flow, which makes the solution independent of y: it is solved per
    unit thickness on the slab's x nodes, as the line a zero bulk gives at
    aperture 1 (trapezoid weights), and extended to the slab by x index.
    """
    _check_slab(m, flavor)
    if reduced:
        xs = np.unique(m.nodes[:, 0])
        dx = np.diff(xs)
        wx = np.append(dx, 0.0) / 2.0 + np.insert(dx, 0, 0.0) / 2.0
        b = wx * (q_over_v - (_at_points(q_plus, xs) + _at_points(q_minus, xs))
                  / m.aperture)
        edges = np.column_stack([np.arange(len(dx)), np.arange(1, len(xs))])
        z, report = _solve_line(np.zeros((len(xs), len(xs))),
                                TraceLine(edges, dx, wx, wx, float(xs[-1])),
                                1.0, p, b, float(np.linalg.norm(b)), tol, max_iter)
        return ScalarField(z[np.searchsorted(xs, m.nodes[:, 0])], m), report

    rhs = slab_rhs(m, q_plus, q_minus, float(q_over_v))
    free = np.setdiff1d(np.arange(m.num_nodes), dirichlet_nodes(m))
    rhs_f = rhs[free]
    area, grads = _tri_geometry(m)
    tangent_matrix = _free_block_assembler(m, free)
    lin_tol = max(1e-13, min(1e-11, tol * 1e-3))
    norm_rhs = max(float(np.linalg.norm(rhs)), 1e-300)

    def field(w_f):
        w = np.zeros(m.num_nodes)
        w[free] = w_f
        return w

    def linearize(w_f):
        g = triangle_gradients(m, field(w_f))
        flux, tangent, psi = _slab_constitutive(g, p, flavor)
        element = np.einsum("tid,td->ti", grads, flux) * area[:, None]
        grad = np.bincount(m.triangles.ravel(), weights=element.ravel(),
                           minlength=m.num_nodes)[free] - rhs_f
        energy = float(area @ psi) - float(rhs_f @ w_f)
        return _Linearization(
            energy, grad, float(np.linalg.norm(grad)) / norm_rhs,
            lambda v: _solve_spd(tangent_matrix(_local_stiffness(m, tangent)),
                                 v, lin_tol))

    w_f, report = _newton(linearize, len(free), tol, max_iter)
    return ScalarField(field(w_f), m), report


def pss_energy(m: Mesh, p: FlowParams, W, Q: float,
               aperture: float | None = None) -> float:
    """Variational energy of the coupled state at rate Q.

    Half the bulk Darcy energy plus the fracture drag potential minus the
    work of the source load.  It is strictly convex, and its minimizer is
    the pseudo-steady state.  On the field `BulkCondensation.full_field`
    rebuilds from a trace state it equals, up to a constant, the condensed
    energy the Newton line search of `solve_pss` descends.
    """
    h = m.aperture if aperture is None else aperture
    w = W.values if isinstance(W, ScalarField) else np.asarray(W, dtype=float)
    A_bulk = _bulk_stiffness(m, p.k_p)
    e = 0.5 * float(w @ (A_bulk @ w))
    if h != 0.0 and len(m.fracture_edges) > 0:
        gx = fracture_edge_gradients(m, w)
        ell = _edge_geometry(m, m.fracture_edges)
        e += h * float(np.sum(ell * _forchheimer(np.abs(gx), p)[2]))
    e -= float((-assemble_B_in(m, aperture=h) * Q) @ w)
    return e
