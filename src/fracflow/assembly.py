"""Discrete operators for the coupled reduced model and the slab problems.

Everything is continuous piecewise-linear (P1) on triangles; the embedded
fracture line carries 1-D P1 elements on the shared trace nodes, so the
pressure is single valued across the line and no mortar coupling is
needed.  Gradients of P1 fields are constant per element, which makes the
one-point (centroid) evaluation of the nonlinear mobility exact in its
argument.

Operator conventions, with basis functions phi_i, aperture h and the
Darcy-limit fracture mobility 1/alpha_f:

* ``assemble_A``:      A_ij = int_bulk k_p grad phi_i . grad phi_j
                              + (h / alpha_f) int_frac dphi_i/dx dphi_j/dx
* ``assemble_B_in``:   B_i  = -(int_bulk phi_i + h int_frac phi_i) / vol,
                       vol = |bulk| + h L
* ``assemble_F_residual``: F_i = h int_frac (f(|W_x|) - 1/alpha_f) W_x dphi_i/dx
* ``output_C``:        volume average of W including the fracture volume

so the coupled production problem reads  A z + F(z) + B_in Q = 0  with the
well node pinned to zero.

``assemble_slab_residual`` is the full slab problem, K(W) W - ``slab_rhs``
with K the stiffness of the slab mobility at W.  `fracflow.solvers.solve_slab`
solves it by Newton's method on the free nodes, with element matrices from
``_local_stiffness`` (scalar or symmetric 2x2 tensor coefficients) filled
into a sparsity pattern built once (``_free_block_assembler``); its 1-D
reduction is solved on its line.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import AssemblyError
from .kernels import FlowParams, fbeta_iso
from .meshing import Mesh, TAG_FRAC_MINUS, TAG_FRAC_PLUS, TAG_WELL

__all__ = [
    "ScalarField",
    "assemble_A",
    "assemble_B_in",
    "assemble_F_residual",
    "output_C",
    "assemble_slab_residual",
    "triangle_gradients",
    "apply_constraints",
]


@dataclass(frozen=True)
class ScalarField:
    """Nodal values of a scalar quantity over a mesh."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.num_nodes,):
            raise AssemblyError(
                f"field length {v.shape} does not match mesh with {self.mesh.num_nodes} nodes")
        if not np.all(np.isfinite(v)):
            raise AssemblyError("field contains non-finite values")
        object.__setattr__(self, "values", v)


def _values(W) -> np.ndarray:
    if isinstance(W, ScalarField):
        return W.values
    return np.asarray(W, dtype=float)


_geometry_cache: "weakref.WeakKeyDictionary[Mesh, tuple]" = weakref.WeakKeyDictionary()


def _tri_geometry(m: Mesh):
    """Areas and P1 basis gradients, both constant per triangle.

    Cached per mesh object; meshes are immutable so this is safe.
    """
    cached = _geometry_cache.get(m)
    if cached is not None:
        return cached
    p = m.nodes[m.triangles]  # (t, 3, 2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1])
    # grad of the barycentric function at vertex i is the rotated opposite edge
    grads = np.empty((len(area), 3, 2))
    for i in range(3):
        a = p[:, (i + 1) % 3]
        b = p[:, (i + 2) % 3]
        grads[:, i, 0] = (a[:, 1] - b[:, 1]) / (2.0 * area)
        grads[:, i, 1] = (b[:, 0] - a[:, 0]) / (2.0 * area)
    _geometry_cache[m] = (area, grads)
    return area, grads


def _edge_geometry(m: Mesh, edges: np.ndarray):
    a = m.nodes[edges[:, 0]]
    b = m.nodes[edges[:, 1]]
    return np.linalg.norm(b - a, axis=1)


def triangle_gradients(m: Mesh, W) -> np.ndarray:
    """(t, 2) gradient of the P1 field on every triangle."""
    w = _values(W)
    _, grads = _tri_geometry(m)
    return np.einsum("tid,ti->td", grads, w[m.triangles])


def _local_stiffness(m: Mesh, coef) -> np.ndarray:
    """(t, 3, 3) element matrices c_T area_T (grad phi_i . grad phi_j).

    `coef` is a scalar, a per-triangle array, or a (t, 2, 2) array of
    symmetric tensors C_T, for area_T (grad phi_i . C_T grad phi_j).  The
    tensor's element matrices are exactly symmetric.
    """
    area, grads = _tri_geometry(m)
    c = np.asarray(coef, dtype=float)
    if c.ndim <= 1:
        local = np.einsum("tid,tjd->tij", grads, grads)
        local *= (np.atleast_1d(c) * area)[:, None, None]
        return local
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    xy = gx[:, :, None] * gy[:, None, :]
    local = (c[:, 0, 0, None, None] * (gx[:, :, None] * gx[:, None, :])
             + c[:, 1, 1, None, None] * (gy[:, :, None] * gy[:, None, :])
             + c[:, 0, 1, None, None] * (xy + xy.transpose(0, 2, 1)))
    local *= area[:, None, None]
    return local


def _bulk_stiffness(m: Mesh, coef) -> sparse.csr_matrix:
    """Stiffness sum_T of the element matrices of `_local_stiffness`."""
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()
    n = m.num_nodes
    return sparse.coo_matrix((_local_stiffness(m, coef).ravel(), (rows, cols)),
                             shape=(n, n)).tocsr()


def _free_block_assembler(m: Mesh, free: np.ndarray):
    """Assembler of the free-free block of P1 stiffness matrices on m.

    The block's sparsity pattern is built once, with the other (pinned)
    rows and columns dropped; the returned function maps (t, 3, 3)
    symmetric element matrices to the block by filling its values only
    (one np.bincount over precomputed slots).  The block is symmetric, so
    its CSR arrays are also its CSC arrays, the format SuperLU takes.
    """
    nf = len(free)
    index = np.full(m.num_nodes, -1)
    index[free] = np.arange(nf)
    rows = index[np.repeat(m.triangles, 3, axis=1).ravel()]
    cols = index[np.tile(m.triangles, (1, 3)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    keys, slot = np.unique(rows[keep] * nf + cols[keep], return_inverse=True)
    indptr = np.searchsorted(keys // nf, np.arange(nf + 1))
    indices = keys % nf

    def assemble(local: np.ndarray) -> sparse.csc_matrix:
        data = np.bincount(slot, weights=local.reshape(-1)[keep],
                           minlength=len(keys))
        return sparse.csc_matrix((data, indices, indptr), shape=(nf, nf))

    return assemble


def _line_stiffness(m: Mesh, coef_per_edge: np.ndarray) -> sparse.csr_matrix:
    """1-D P1 stiffness on the fracture edges: (c_e/len) [[1,-1],[-1,1]]."""
    edges = m.fracture_edges
    n = m.num_nodes
    if len(edges) == 0:
        return sparse.csr_matrix((n, n))
    ell = _edge_geometry(m, edges)
    k = np.asarray(coef_per_edge, dtype=float) / ell
    rows = np.concatenate([edges[:, 0], edges[:, 0], edges[:, 1], edges[:, 1]])
    cols = np.concatenate([edges[:, 0], edges[:, 1], edges[:, 0], edges[:, 1]])
    vals = np.concatenate([k, -k, -k, k])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def fracture_edge_gradients(m: Mesh, W) -> np.ndarray:
    """Constant tangential derivative of W on every fracture edge."""
    w = _values(W)
    edges = m.fracture_edges
    ell = _edge_geometry(m, edges)
    return (w[edges[:, 1]] - w[edges[:, 0]]) / ell


def assemble_A(m: Mesh, p: FlowParams, aperture: float | None = None) -> sparse.csr_matrix:
    """Linear operator of the coupled model: Darcy bulk plus the
    aperture-weighted fracture line term at the mobility 1/alpha_f.

    The operator annihilates constants; it is positive definite on the
    fields with the well node pinned to zero.
    """
    if len(m.fracture_edges) == 0:
        raise AssemblyError("mesh has no fracture edges; cannot assemble the coupled operator")
    h = m.aperture if aperture is None else aperture
    A = _bulk_stiffness(m, p.k_p)
    if h != 0.0:
        A = A + _line_stiffness(m, np.full(len(m.fracture_edges), h / p.alpha_f))
    return A


def _bulk_load(m: Mesh) -> np.ndarray:
    """P1 lumped load int_bulk phi_i (a third of each triangle's area)."""
    area, _ = _tri_geometry(m)
    load = np.zeros(m.num_nodes)
    np.add.at(load, m.triangles.ravel(), np.repeat(area / 3.0, 3))
    return load


def assemble_B_in(m: Mesh, aperture: float | None = None) -> np.ndarray:
    """Input vector: minus the P1 partition-of-unity load, normalized by
    the total volume |bulk| + h L so its entries sum to -1."""
    h = m.aperture if aperture is None else aperture
    area, _ = _tri_geometry(m)
    load = _bulk_load(m)
    frac_len = 0.0
    if h != 0.0 and len(m.fracture_edges) > 0:
        ell = _edge_geometry(m, m.fracture_edges)
        np.add.at(load, m.fracture_edges.ravel(), np.repeat(h * ell / 2.0, 2))
        frac_len = float(ell.sum())
    vol = float(area.sum()) + h * frac_len
    return -load / vol


def assemble_F_residual(m: Mesh, p: FlowParams, W, aperture: float | None = None) -> np.ndarray:
    """Nonlinear-minus-linear fracture term of the coupled model."""
    h = m.aperture if aperture is None else aperture
    n = m.num_nodes
    F = np.zeros(n)
    if h == 0.0 or len(m.fracture_edges) == 0:
        return F
    gx = fracture_edge_gradients(m, W)
    coef = h * (fbeta_iso(np.abs(gx), p) - 1.0 / p.alpha_f) * gx
    np.add.at(F, m.fracture_edges[:, 0], -coef)
    np.add.at(F, m.fracture_edges[:, 1], +coef)
    return F


def output_C(m: Mesh, W, aperture: float | None = None) -> float:
    """Volume average of W over bulk plus fracture, exact for P1."""
    h = m.aperture if aperture is None else aperture
    w = _values(W)
    area, _ = _tri_geometry(m)
    bulk = float(np.sum(area * w[m.triangles].mean(axis=1)))
    frac = 0.0
    frac_len = 0.0
    if h != 0.0 and len(m.fracture_edges) > 0:
        ell = _edge_geometry(m, m.fracture_edges)
        frac = h * float(np.sum(ell * w[m.fracture_edges].mean(axis=1)))
        frac_len = float(ell.sum())
    return (bulk + frac) / (float(area.sum()) + h * frac_len)


def apply_constraints(A: sparse.csr_matrix, b: np.ndarray, constraints):
    """Row/column elimination with symmetric right-hand-side correction."""
    if not constraints:
        return A.tocsr(), b.copy()
    idx = np.array([c[0] for c in constraints], dtype=int)
    vals = np.array([c[1] for c in constraints], dtype=float)
    n = A.shape[0]
    x_d = np.zeros(n)
    x_d[idx] = vals
    b_c = b - A @ x_d
    keep = np.ones(n)
    keep[idx] = 0.0
    D = sparse.diags(keep)
    A_c = (D @ A @ D + sparse.diags(1.0 - keep)).tocsr()
    b_c[idx] = vals
    return A_c, b_c


# ----------------------------------------------------------------------
# slab problems (full fracture flow vs its reduction)

_FLAVORS = ("isotropic", "anisotropic")


def _check_slab(m: Mesh, flavor: str):
    if flavor not in _FLAVORS:
        raise AssemblyError(f"unknown slab flavor {flavor!r}")
    for tag in (TAG_FRAC_PLUS, TAG_FRAC_MINUS, TAG_WELL):
        if tag not in m.boundary_edges:
            raise AssemblyError(f"slab assembly requires boundary tag {tag!r}")


def _at_points(q, x: np.ndarray) -> np.ndarray:
    """q evaluated once on the array x; a q that returns a constant
    (lambda x: 0.0) is broadcast to the shape of x."""
    return np.broadcast_to(np.asarray(q(x), dtype=float), x.shape)


def _edge_load(m: Mesh, edges: np.ndarray, q) -> np.ndarray:
    """Boundary load int q(x) phi_i ds, exact for linear q on each edge."""
    load = np.zeros(m.num_nodes)
    if len(edges) == 0:
        return load
    ell = _edge_geometry(m, edges)
    qv = _at_points(q, m.nodes[edges, 0])
    qa, qb = qv[:, 0], qv[:, 1]
    np.add.at(load, edges[:, 0], ell * (2.0 * qa + qb) / 6.0)
    np.add.at(load, edges[:, 1], ell * (qa + 2.0 * qb) / 6.0)
    return load


def dirichlet_nodes(m: Mesh, tag: str = TAG_WELL) -> np.ndarray:
    return np.unique(m.boundary_edges[tag].ravel())


def slab_rhs(m: Mesh, q_plus, q_minus, q_over_v: float) -> np.ndarray:
    """Load vector of the full slab weak form: the volume source q_over_v
    plus the inflow data q+- entering as Neumann terms (with their sign,
    -f grad W . n = q, they subtract from the load).  The reduced slab is
    solved on its line (`fracflow.solvers.solve_slab`)."""
    load = _bulk_load(m) * q_over_v
    load -= _edge_load(m, m.boundary_edges[TAG_FRAC_PLUS], q_plus)
    load -= _edge_load(m, m.boundary_edges[TAG_FRAC_MINUS], q_minus)
    return load


def assemble_slab_residual(m: Mesh, p: FlowParams, W, flavor: str,
                           q_plus, q_minus, q_over_v: float) -> np.ndarray:
    """Residual K(W) W - rhs of the nonlinear full slab weak form at W.

    K(W) is the stiffness of the per-triangle mobility at W: the scalar
    fbeta_iso(|grad W|) (isotropic) or the tensor diag(fbeta_iso(|W_x|),
    aniso_k) (anisotropic).  Rows of nodes on the pressure-pinned boundary
    report W - 0 instead, so the residual of an exact discrete solution
    vanishes identically.
    """
    _check_slab(m, flavor)
    w = _values(W)
    g = triangle_gradients(m, w)
    if flavor == "isotropic":
        coef = fbeta_iso(np.linalg.norm(g, axis=1), p)
    else:
        coef = np.zeros((len(g), 2, 2))
        coef[:, 0, 0] = fbeta_iso(np.abs(g[:, 0]), p)
        coef[:, 1, 1] = p.aniso_k
    r = _bulk_stiffness(m, coef) @ w - slab_rhs(m, q_plus, q_minus, q_over_v)
    fixed = dirichlet_nodes(m)
    r[fixed] = w[fixed]
    return r
