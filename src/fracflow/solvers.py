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
condensed output weight.  The cost is one sparse factorization per mesh,
of the bulk without the well ordered [interior, trace], whose
trailing block gives S with no further solve.  The interior is ordered by
nested dissection along the lines of the mesh's grid (`_grid_order`),
the polar grid of a disk included.  One solve with the bordered factor
gives r and m_I . u.  The meshes of a family (a sweep) share one node
set, and each one's fracture is a prefix of the longest one's, so the
condensation of the longest member serves every cell.

Every nonlinear solve is Newton's method on a strictly convex energy,
globalized by backtracking on that energy (`_newton`), and converged only
when its residual meets the tolerance or, stalled, its rounding floor.
The law (mobility f, tangent t, potential Phi) is `kernels._forchheimer`.

Every mesh's fracture is the path of trace positions 0 (the well), 1,
..., k, so a `TraceLine` is slices along it.  `_solve_line` solves its
1-D Forchheimer line problem at its aperture h: the tangent adds the
line stiffness at coefficient h t(|z_x|) to a dense S and is solved by
Cholesky with position 0 pinned to zero.  `solve_pss` runs it on the
condensed trace and rebuilds the full nodal field with one solve with
the bordered factor; the set-point (`fracflow.setpoint`) is it with a
rank-one term added to S.  The reduced slab is the line of a zero bulk,
whose edge fluxes conservation fixes, so it is solved in closed form.

The full slab (`solve_slab`) keeps the sparse path on its free nodes,
in the `_grid_order` of its grid, solved for its correction to the
closed-form line of its own load: each Newton step refills the tangent
in a pattern built once per solve, from the basis gradients computed once
per solve, and solves it by `_solve_spd`, which raises SolverError on a
result it cannot verify.
Every sparse factorization, bulk or slab, is one recipe (`_ldlt`):
SuperLU's pivot-free L D L^T of an SPD matrix in the order given; a
factor that comes back reordered raises SolverError naming the first
row SuperLU moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dposv
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
    # not called here; it stays bound because the tracer's self-test
    # (perfbench/tests/test_tracer.py) reads fracflow.solvers.apply_constraints
    apply_constraints,
    assemble_B_in,
    basis_gradients,
    dirichlet_nodes,
    fracture_edge_gradients,
    slab_rhs,
    triangle_gradients,
)
from .errors import AssemblyError, SolverError
from .kernels import FlowParams, _forchheimer, forchheimer_inverse_1d
from .meshing import Mesh

__all__ = ["BulkCondensation", "SolveReport", "TraceLine", "condense_bulk",
           "solve_pss", "solve_slab", "pss_energy"]


@dataclass(frozen=True)
class SolveReport:
    """iterations: Newton steps (direction solves) taken; damping_used: the
    smallest line-search step length among them (1.0 if every step was full)."""

    iterations: int
    final_residual: float
    damping_used: float


def _ldlt(A: sparse.spmatrix, what: str):
    """L D L^T factor of the SPD matrix A in its given (fill-reducing)
    order: SuperLU's L U with no reordering (`NATURAL`) and no pivoting,
    U = D L^T, which is backward stable for SPD A.  A singular factor, or
    one that came back reordered, raises SolverError naming `what`; for a
    reordered one it names the first row SuperLU moved, with A's diagonal
    and largest entry in that column and the pivot U_kk the factor used.
    """
    A = A.tocsc()
    try:
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # singular factorization
        raise SolverError(f"{what} is singular: {exc}",
                          [("direct", str(exc))]) from exc
    identity = np.arange(A.shape[0])
    if not (np.array_equal(lu.perm_r, identity)
            and np.array_equal(lu.perm_c, identity)):
        k = int(np.argmax((lu.perm_r != identity) | (lu.perm_c != identity)))
        column = A[:, [k]].toarray().ravel()
        # read only here: the getter builds (and caches) copies of L and U
        pivot = {"row": k, "diagonal": float(column[k]),
                 "column_max": float(np.abs(column).max()),
                 "pivot": float(lu.U.diagonal()[k])}
        raise SolverError(
            f"{what} factorization reordered its rows or columns, first row "
            f"{k} of {len(identity)} (diagonal {pivot['diagonal']:g}, largest "
            f"in its column {pivot['column_max']:g}, pivot {pivot['pivot']:g})",
            [("direct", "perm_r or perm_c is not the identity"), ("pivot", pivot)])
    return lu


def _solve_spd(A: sparse.spmatrix, b: np.ndarray) -> np.ndarray:
    """Verified solve of the SPD system A x = b by its `_ldlt` factor.

    x is accepted, unrefined, if it is finite with backward error
    |r| / (|b| + |A| |x|) at most 1e-14 and relative residual |r| / |b| at
    most 1e-6, so that a near-singular solve cannot pass (SolverError
    otherwise).  b is scaled by a power of two to max|b| in [0.5, 1), which
    is exact and keeps the norms from underflowing however small b is.
    """
    if not np.any(b):
        return np.zeros_like(b)
    scale = np.ldexp(1.0, int(np.frexp(np.abs(b).max())[1]))
    b = b / scale
    x = _ldlt(A, "sparse system").solve(b)
    norm_r = np.linalg.norm(b - A @ x)
    norm_b = np.linalg.norm(b)
    rel = float(norm_r / norm_b)
    backward = norm_r / (norm_b + sparse.linalg.norm(A) * np.linalg.norm(x))
    if not (np.all(np.isfinite(x)) and backward <= 1e-14 and rel <= 1e-6):
        raise SolverError(f"linear solve left backward error {backward:g} "
                          f"and relative residual {rel:g}", [("direct", rel)])
    return x * scale


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), with u the unit roundoff: the relative
    rounding bound of a sum or dot product of n terms (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 3)."""
    nu = n * np.finfo(float).eps / 2.0
    return nu / (1.0 - nu)


@dataclass(frozen=True)
class _Linearization:
    """A strictly convex energy E and its derivatives at one state.

    grad: grad E, zero on pinned entries.  residual: |grad E| relative to
    the load.  solve(v): x = J^-1 v with J the tangent (the Hessian of E).
    rounding(): (a bound on the rounding of E, the rounding floor of
    residual), computed from the magnitudes of their terms only when
    asked; (0, 0) unless given.
    """

    energy: float
    grad: np.ndarray
    residual: float
    solve: object
    rounding: object = lambda: (0.0, 0.0)


def _newton(linearize, n: int, tol: float, max_iter: int,
            on_step=None, origin=0.0) -> tuple[np.ndarray, SolveReport]:
    """Newton's method on n unknowns from z = 0, globalized by
    backtracking on the energy.

    linearize(z) returns the `_Linearization` at z.  Every step, the first
    included, solves for its direction at the current iterate and passes
    the same line search and stop tests, so the report's iterations count
    the direction solves.  Where z is the field itself, the first step is
    the Darcy-limit solve (the tangent at zero gradient is the mobility
    1/alpha): exact when beta = 0, and otherwise short of the solution's
    gradients (f <= 1/alpha), from where Newton on the concave flux s f(s)
    does not overshoot in one dimension, as full steps from beyond them
    can.  Where z is a correction to an approximate solution origin (the
    full slab's to the line of its load), z = 0 is that approximation.

    A step's length halves from 1 until E falls by at least 1e-4 of the
    first-order prediction, or until both the predicted and the actual
    change are below the rounding of the change, the sum of the two
    energies' rounding bounds (`_Linearization.rounding`), which near
    convergence holds for every step.  The bounds are computed only when
    the first test fails.

    The loop stops converged when the relative residual is at most tol.
    When first a step's update relative to the solution, |dz| / |origin +
    z|, is at most tol and it cuts the residual by less than half (a
    Newton step near the solution cuts it by far more), the iterate has
    stalled: it counts as converged if its residual is within its rounding
    floor, and raises SolverError with the history otherwise.
    on_step(z), if given, sees the iterate after each step.
    """
    z = np.zeros(n)
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
        base_rounding = None
        while True:
            z_next = z + step * d
            trial = linearize(z_next)
            change = trial.energy - state.energy
            if change <= 1e-4 * step * slope:
                break
            if base_rounding is None:
                base_rounding = state.rounding()[0]
            if max(change, -step * slope) <= base_rounding + trial.rounding()[0]:
                break
            step /= 2.0
            if step < 1e-10:
                raise SolverError(f"line search stalled in Newton step {k} "
                                  f"(residual {state.residual:g})", history)
        smallest = min(smallest, step)
        update = (float(np.linalg.norm(z_next - z))
                  / max(float(np.linalg.norm(origin + z_next)), 1e-300))
        history.append((update, trial.residual, step))
        stalled = update <= tol and trial.residual > 0.5 * state.residual
        z, state = z_next, trial
        if on_step is not None:
            on_step(z)
        if state.residual <= tol:
            return z, SolveReport(k, state.residual, smallest)
        if stalled:
            floor = state.rounding()[1]
            if state.residual <= floor:
                return z, SolveReport(k, state.residual, smallest)
            raise SolverError(f"Newton stalled in step {k} at residual "
                              f"{state.residual:g}, above its rounding floor "
                              f"{floor:g}", history)
    raise SolverError(f"Newton did not converge in {max_iter} iterations "
                      f"(last residual {history[-1][1]:g})", history)


def _path_sum(left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """(n,) sums over the path's edges (e, e + 1) of left[e] at e, then right[e] at e + 1."""
    out = np.zeros(n)
    k = len(left)
    out[:k] += left
    out[1:k + 1] += right
    return out


@dataclass(frozen=True)
class TraceLine:
    """The fracture line of one mesh, on its condensed trace: the path of
    trace positions 0 (the well), 1, ..., k, whose edge e is (e, e + 1).

    h: the aperture, the mesh's; it weights the line's mobility and its
        load, and a line is solved at the h it was built with.
    ell: (k,) edge lengths (k = 0 when h = 0).
    weights: (nG,) r + h * fracture load.  A state at rate Q has the
        condensed load (Q / volume) * weights, and its drawdown is
        (weights . z_G + (Q / volume) * m_I . u) / volume.
    scale: 2-norm of the uncondensed load [m_I; m_G + h * fracture load],
        whose interior rows the condensed state satisfies exactly; a
        state at rate q = Q / volume measures its residual against
        |q| * scale.  Every entry is nonnegative, so scale <= volume.
    volume: |bulk| + h * fracture length.
    """

    h: float
    ell: np.ndarray
    weights: np.ndarray
    scale: float
    volume: float

    def gradients(self, z: np.ndarray) -> np.ndarray:
        """Tangential derivative of the trace state z on every edge."""
        return np.diff(z[:len(self.ell) + 1]) / self.ell

    def flux(self, coef: np.ndarray) -> np.ndarray:
        """Nodal line term of per-edge flux coef (mobility times gradient)."""
        return _path_sum(-coef, coef, len(self.weights))

    def operator(self, S: np.ndarray, coef) -> np.ndarray:
        """S plus the line stiffness (coef_e / ell_e) [[1, -1], [-1, 1]]
        (coef per edge, or one for every edge)."""
        M = S.copy()
        n, k = len(M), len(self.ell)
        c = coef / self.ell
        # the diagonal, superdiagonal and subdiagonal as strided views
        diag, upper, lower = (M.reshape(-1)[o::n + 1] for o in (0, 1, n))
        diag[:k] += c
        diag[1:k + 1] += c
        upper[:k] -= c
        lower[:k] -= c
        return M


def _pinned_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve of M z = rhs with position 0 pinned to zero; the free
    block, a strictly convex energy's tangent, must be SPD (SolverError)."""
    z = np.zeros(len(rhs))
    if len(rhs) == 1:  # the well alone
        return z
    _, z[1:], info = dposv(M[1:, 1:], rhs[1:])
    if info != 0:
        raise SolverError(f"line system is not positive definite (LAPACK "
                          f"dposv info {info})", [("dense", info)])
    return z


def _solve_line(S: np.ndarray, line: TraceLine, p: FlowParams,
                b: np.ndarray, rate: float, tol: float, max_iter: int,
                on_step=None) -> tuple[np.ndarray, SolveReport]:
    """Newton solve of the line problem S z + (line flux at mobility
    h f(|z_x|)) = b, h = line.h, position 0 pinned to zero: the minimizer of

        E(z) = 1/2 z.S z + h sum_e ell_e Phi(|z_x|) - b.z,

    whose tangent is line.operator(S, h * t(|z_x|)).  The residual is
    relative to |rate * line.scale|, the norm of the uncondensed load at
    the rate q = Q / volume; on_step goes to `_newton`.  The rounding of E
    and grad E is bounded from |S| |z|, |flux| and |b| by gamma_2n (z.Sz
    nests two sums of n terms); grad E's bound adds z's own rounding,
    carried into each edge's flux by the tangent.
    """
    norm_b = max(abs(rate * line.scale), 1e-300)
    h, n, k = line.h, len(b), len(line.ell)
    gamma = _gamma(2 * n)

    def linearize(z):
        gx = line.gradients(z)
        f, t, phi = _forchheimer(np.abs(gx), p)
        Sz = S @ z
        coef = h * f * gx
        grad = Sz + line.flux(coef) - b
        grad[0] = 0.0
        energy = 0.5 * float(z @ Sz) + h * float(line.ell @ phi) - float(b @ z)

        def rounding():
            Sz_abs = np.abs(S) @ np.abs(z)
            terms = (0.5 * float(np.abs(z) @ Sz_abs) + h * float(line.ell @ phi)
                     + float(np.abs(b) @ np.abs(z)))
            # z itself is rounded, by up to eps (|z_e| + |z_e+1|) / ell_e in
            # each edge gradient, which the tangent h t carries into the flux
            z_abs = np.abs(z[:k + 1])
            gx_err = np.finfo(float).eps * (z_abs[:-1] + z_abs[1:]) / line.ell
            edge = gamma * np.abs(coef) + h * t * gx_err
            magnitude = gamma * (Sz_abs + np.abs(b)) + _path_sum(edge, edge, n)
            magnitude[0] = 0.0
            return gamma * terms, float(np.linalg.norm(magnitude)) / norm_b

        return _Linearization(energy, grad, float(np.linalg.norm(grad)) / norm_b,
                              lambda v: _pinned_solve(line.operator(S, h * t), v),
                              rounding)

    return _newton(linearize, len(b), tol, max_iter, on_step)


# grid blocks of at most this many nodes keep their natural order in
# `_grid_order`.  On the 41,650-node solve_fine mesh (median CPU time of
# 7 runs on a 2-core VM) every size from 1 to 16 orders and factorizes
# the bordered bulk in the same 0.21 s, 32 takes 6% and 64 11% longer;
# fill(L+U) grows from 2.62M (1) over 2.65M (8) and 2.85M (32) to 3.15M
# (64), against 3.14M for SuperLU's MMD order.
_GRID_BLOCK = 8


def _grid_order(ids: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the node ids of a grid where keep is True.

    ids is a mesh's (ny, nx) `grid`.  A block of it is split at the middle
    line across its longer side: the two halves come first, each ordered
    the same way, and the separating line last (George, SIAM J. Numer.
    Anal. 10, 1973).  Every neighbor of a P1 grid node lies on the
    adjacent lines, so one line separates the halves (on a disk, but for
    the wrap-around to the fracture ray).  Blocks of at most _GRID_BLOCK
    nodes keep their natural order.
    """
    @cache  # local to the call: a block's order depends on its shape only
    def dissect(ny, nx):
        """Row-major positions of an ny x nx block, in dissection order."""
        pos = np.arange(ny * nx, dtype=np.int32).reshape(ny, nx)  # half the memo
        if ny * nx <= _GRID_BLOCK:
            return pos.ravel()
        if nx >= ny:
            a, b, line = pos[:, :nx // 2], pos[:, nx // 2 + 1:], pos[:, nx // 2]
        else:
            a, b, line = pos[:ny // 2], pos[ny // 2 + 1:], pos[ny // 2]
        return np.concatenate([a.ravel()[dissect(*a.shape)],
                               b.ravel()[dissect(*b.shape)], line])

    order = ids.ravel()[dissect(*ids.shape)]
    return order[keep[order]]


@dataclass(frozen=True, eq=False)
class BulkCondensation:
    """Darcy bulk of one mesh eliminated onto its trace nodes.

    trace[0] is the well node, pinned to zero; the other trace nodes are
    the fracture nodes of the mesh it was built for, in order along the
    fracture.  It serves every mesh of that node set whose fracture is a
    prefix of that path.  Build it with `condense_bulk`.
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

    def line(self, m: Mesh, k_p: float) -> TraceLine:
        """The fracture line of mesh m, at its aperture, on this trace; m's
        fracture edges must be the trace positions (e, e + 1) from the well,
        the path every mesh builder makes (ValueError otherwise)."""
        h, own = m.aperture, self.mesh
        if k_p != self.k_p:
            raise ValueError(f"condensation was built for k_p={self.k_p}, not {k_p}")
        if not (own.well_node == m.well_node
                and (own.nodes is m.nodes or np.array_equal(own.nodes, m.nodes))
                and (own.triangles is m.triangles
                     or np.array_equal(own.triangles, m.triangles))):
            raise ValueError("mesh does not share the condensed node set")
        edges = m.fracture_edges if h != 0.0 else np.empty((0, 2), dtype=int)
        if not np.array_equal(self.position[edges],
                              np.arange(len(edges))[:, None] + [0, 1]):
            raise ValueError("mesh's fracture is not the path from the well: "
                             "nodes outside the condensed trace or out of order")
        ell = _edge_geometry(m, edges)
        half = h * ell / 2.0
        frac = _path_sum(half, half, len(self.trace))
        # [m_I; load] scaled by a power of two to a largest entry in
        # [0.5, 1), which is exact and keeps the squares from overflowing
        load = self.load_G + frac
        s = np.ldexp(1.0, int(np.frexp(max(self.load_I.max(initial=0.0), load.max()))[1]))
        a, b = self.load_I / s, load / s
        return TraceLine(h, ell, self.r + frac, float(np.sqrt(a @ a + b @ b)) * s,
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


def condense_bulk(m: Mesh, k_p: float) -> BulkCondensation:
    """Factorize the bulk of mesh m and condense it onto its trace.

    The trace is the well plus m's fracture nodes in node order, which
    every mesh builder numbers outward from the well.  The meshes of a
    family (build_reservoir_mesh_family) share one node set, and each
    one's fracture is a prefix of the longest one's, so the condensation
    of the longest member serves every mesh of the family.

    The interior is put in the fill-reducing `_grid_order` of the mesh's
    grid, which with the trace must hold every node exactly once
    (ValueError otherwise).  The bulk without the pinned well, assembled
    ordered [interior, trace] and without its zero couplings
    (`_bulk_stiffness`), is factorized once by `_ldlt`, in this order and
    without pivoting (K = L D L^T in SuperLU's K = L U with U = D L^T),
    and S is read off the trailing block: S = U_GG^T D^-1 U_GG.
    """
    frac = np.unique(m.fracture_edges)
    trace = np.concatenate([[m.well_node], frac[frac != m.well_node]]).astype(int)
    position = np.full(m.num_nodes, -1)
    position[trace] = np.arange(len(trace))

    # a wrong grid would silently give a wrong S
    counts = np.bincount(m.grid.ravel(), minlength=m.num_nodes)
    if len(counts) > m.num_nodes or np.any(counts[position < 0] != 1):
        raise ValueError("mesh grid does not hold every interior node exactly once")
    interior = _grid_order(m.grid, position < 0)
    order = np.concatenate([interior, trace[1:]])
    # the load before the factor, so that its temporaries are not resident
    # with it (1.3 MB of the solve_fine peak)
    load = _bulk_load(m)
    # assembled in this order, and unnamed, so that it is freed before lu.U;
    # S is the trailing block only of a factor that kept this order
    lu = _ldlt(_bulk_stiffness(m, k_p, order), "bulk operator off the well")

    nI = len(interior)
    # the getter builds CSC copies of both L and U and caches them in lu
    U = lu.U[nI:, nI:].toarray()
    S = np.zeros((len(trace), len(trace)))
    S_GG = U.T @ (U / np.diag(U)[:, None])
    # the upper triangle mirrored, so that S is exactly symmetric
    S[1:, 1:] = np.triu(S_GG) + np.triu(S_GG, 1).T
    S.flags.writeable = False

    w = lu.solve(load[order])
    w_G = np.concatenate([[0.0], w[nI:]])
    r = S @ w_G
    return BulkCondensation(
        mesh=m, k_p=float(k_p), trace=trace, position=position,
        interior=interior, lu=lu, S=S, r=r, load_G=load[trace],
        load_I=load[interior],
        mIu=float(load[interior] @ w[:nI] + (load[trace] - r) @ w_G),
        area=float(m.area.sum()))


def solve_pss(m: Mesh, p: FlowParams, Q: float, tol: float = 1e-9,
              max_iter: int = 100, *,
              condensation: BulkCondensation | None = None,
              ) -> tuple[ScalarField, SolveReport]:
    """Pseudo-steady-state solve of the coupled reduced model at rate Q.

    The line problem (`_solve_line`) runs on the condensed trace (built
    for m unless a `condensation` of its node set is passed).
    """
    c = condensation if condensation is not None else condense_bulk(m, p.k_p)
    line = c.line(m, p.k_p)
    q = Q / line.volume
    z, report = _solve_line(c.S, line, p, q * line.weights, q, tol, max_iter)
    return c.full_field(m, z, q), report


def _slab_constitutive(g: np.ndarray, p: FlowParams, flavor: str):
    """Flux, tangent and potential of the slab flow on (t, 2) gradients g.

    Returns the flux coefficient times g, (t, 2); its derivative, (t, 2, 2)
    symmetric positive definite; and the potential Psi, (t,), whose
    gradient is the flux.  Isotropic: flux f(|g|) g, tangent
    f I + (t - f) e e^T with e = g/|g| (f I at g = 0), Psi = Phi(|g|).
    Anisotropic, with the Darcy mobility k = 1/alpha_f across the
    fracture: flux (f(|g_x|) g_x, k g_y), tangent diag(t(|g_x|), k),
    Psi = Phi(|g_x|) + k g_y^2 / 2.
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
    k = 1.0 / p.alpha_f
    tangent[:, 0, 0] = t
    tangent[:, 1, 1] = k
    return (np.column_stack([f * g[:, 0], k * g[:, 1]]), tangent,
            phi + 0.5 * k * g[:, 1] ** 2)


def _slab_line(m: Mesh, p: FlowParams, xs: np.ndarray, column: np.ndarray,
               b: np.ndarray) -> tuple[ScalarField, SolveReport]:
    """The slab's line per unit thickness under the load b on its x nodes
    xs, extended to node i by column[i].  With no bulk, conservation fixes
    each edge's flux as the load beyond it, v_e = sum_{j>e} b_j, the
    Forchheimer law its gradient alpha v_e + beta |v_e| v_e, and W sums
    those from the pinned well, where it is exactly 0.  The report takes
    no step; its residual is the line equations' at those fluxes."""
    v = np.cumsum(b[:0:-1])[::-1]
    try:
        z = np.cumsum(forchheimer_inverse_1d(-v, p) * np.diff(xs))
        W = ScalarField(np.append(0.0, z)[column], m)
    except (ValueError, AssemblyError) as exc:  # beyond the float range
        raise SolverError(f"reduced slab: {exc}", [("closed form", str(exc))]) from exc
    # node i >= 1 balances v_{i-1} - v_i = b_i; no edge lies beyond the tip
    r = v - np.append(v[1:], 0.0) - b[1:]
    residual = float(np.linalg.norm(r)) / max(float(np.linalg.norm(b)), 1e-300)
    return W, SolveReport(0, residual, 1.0)


def solve_slab(m: Mesh, p: FlowParams, flavor: str, q_plus, q_minus,
               q_over_v: float, tol: float = 1e-9,
               reduced: bool = False) -> tuple[ScalarField, SolveReport]:
    """Solve of the slab problem (full or reduced form).

    With ``reduced=True`` the lateral inflow moves into the volumetric
    source q_over_v - (q+(x)+q-(x))/h and the lateral boundary becomes
    no-flow, which makes the solution independent of y: the `_slab_line`
    of that source's trapezoid load, in closed form with no Newton step.

    The full slab minimizes sum_T area_T Psi(grad W) - rhs . W over the
    fields that vanish on the pressure-pinned boundary, by at most 100
    Newton steps on its free nodes for delta = W - Wbar from delta = 0.
    Wbar is the line of the full slab's own load, rhs summed per x column
    per unit thickness, which the thin slab's W is close to.  Every
    triangle's gradient is g(Wbar) + g(delta), g(Wbar) computed once; on
    the grid slab g_y(Wbar) = 0 exactly, so the flux across the fracture
    comes from delta alone, free of the cancellation of two nearly equal
    large fields.  The line search descends the full energy at Wbar + delta,
    and its updates are relative to it.
    """
    _check_slab(m, flavor)
    xs, column = np.unique(m.nodes[:, 0], return_inverse=True)
    if reduced:
        dx = np.diff(xs)
        wx = np.append(dx, 0.0) / 2.0 + np.insert(dx, 0, 0.0) / 2.0
        return _slab_line(m, p, xs, column, wx * (
            q_over_v - (_at_points(q_plus, xs) + _at_points(q_minus, xs)) / m.aperture))

    rhs = slab_rhs(m, q_plus, q_minus, float(q_over_v))
    pinned = np.isin(np.arange(m.num_nodes), dirichlet_nodes(m))
    free = _grid_order(m.grid, ~pinned)
    rhs_f = rhs[free]
    tangent_matrix = _free_block_assembler(m, free)
    norm_rhs = max(float(np.linalg.norm(rhs)), 1e-300)
    w_bar = _slab_line(m, p, xs, column, np.bincount(column, rhs) / m.aperture)[0].values
    w_bar_f = w_bar[free]
    basis = basis_gradients(m)  # once per solve, for every step
    g_bar = triangle_gradients(m, w_bar, basis)
    # E sums a term per triangle and per free node; a row of grad E sums
    # the load and its triangles' terms, each a 2-term dot times an area
    gamma_energy = _gamma(m.num_triangles + len(free))
    gamma_row = _gamma(int(np.bincount(m.triangles.ravel()).max()) + 4)

    def field(d_f):
        d = np.zeros(m.num_nodes)
        d[free] = d_f
        return d

    def linearize(d_f):
        g = g_bar + triangle_gradients(m, field(d_f), basis)
        flux, tangent, psi = _slab_constitutive(g, p, flavor)
        element = np.einsum("tid,td->ti", basis, flux) * m.area[:, None]
        grad = np.bincount(m.triangles.ravel(), weights=element.ravel(),
                           minlength=m.num_nodes)[free] - rhs_f
        w_f = w_bar_f + d_f
        energy = float(m.area @ psi) - float(rhs_f @ w_f)

        def rounding():
            # the sum g(Wbar) + g(delta) rounds each gradient by up to u |g|,
            # which |tangent| carries into the element terms (the rounding of
            # g(delta)'s products, u sum_i |grad phi_i| |delta_i|, is left out:
            # a bound of it would accept the strong-contrast stalls)
            flux_err = np.einsum("tde,te->td", np.abs(tangent), np.abs(g))
            bound = np.abs(element) + np.einsum("tid,td->ti", np.abs(basis),
                                                flux_err) * m.area[:, None]
            magnitude = np.bincount(m.triangles.ravel(), weights=bound.ravel(),
                                    minlength=m.num_nodes)[free] + np.abs(rhs_f)
            terms = float(m.area @ psi) + float(np.abs(rhs_f) @ np.abs(w_f))
            return (gamma_energy * terms,
                    gamma_row * float(np.linalg.norm(magnitude)) / norm_rhs)

        return _Linearization(
            energy, grad, float(np.linalg.norm(grad)) / norm_rhs,
            lambda v: _solve_spd(tangent_matrix(_local_stiffness(m, tangent, basis)), v),
            rounding)

    d_f, report = _newton(linearize, len(free), tol, 100, origin=w_bar_f)
    return ScalarField(w_bar + field(d_f), m), report


def pss_energy(m: Mesh, p: FlowParams, W, Q: float) -> float:
    """Variational energy of the coupled state at rate Q.

    Half the bulk Darcy energy plus the fracture drag potential minus the
    work of the source load.  It is strictly convex, and its minimizer is
    the pseudo-steady state.  On the field `BulkCondensation.full_field`
    rebuilds from a trace state it equals, up to a constant, the condensed
    energy the Newton line search of `solve_pss` descends.
    """
    h = m.aperture
    w = W.values if isinstance(W, ScalarField) else np.asarray(W, dtype=float)
    A_bulk = _bulk_stiffness(m, p.k_p)
    e = 0.5 * float(w @ (A_bulk @ w))
    if h != 0.0 and len(m.fracture_edges) > 0:
        gx = fracture_edge_gradients(m, w)
        ell = _edge_geometry(m, m.fracture_edges)
        e += h * float(np.sum(ell * _forchheimer(np.abs(gx), p)[2]))
    e -= float((-assemble_B_in(m) * Q) @ w)
    return e
