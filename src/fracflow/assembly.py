"""Discrete operators for the coupled reduced model and the slab problems.

Everything is continuous piecewise-linear (P1) on triangles; the embedded
fracture line carries 1-D P1 elements on the shared trace nodes, so the
pressure is single valued across the line and no mortar coupling is
needed.  Gradients of P1 fields are constant per element, which makes the
one-point (centroid) evaluation of the nonlinear mobility exact in its
argument.

Operator conventions, with basis functions phi_i and aperture h:

* ``assemble_A``:      A_ij = int_bulk k_p grad phi_i . grad phi_j
                              + h int_frac k_f dphi_i/dx dphi_j/dx
* ``assemble_B_in``:   B_i  = -(int_bulk phi_i + h int_frac phi_i) / vol,
                       vol = |bulk| + h L
* ``assemble_F_residual``: F_i = h int_frac (f(|W_x|) - k_f) W_x dphi_i/dx
* ``output_C``:        volume average of W including the fracture volume

so the coupled production problem reads  A z + F(z) + B_in Q = 0  with the
well node pinned to zero.
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
    "LinearSystem",
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


@dataclass(frozen=True)
class LinearSystem:
    """Symmetric sparse system plus Dirichlet constraints to be applied."""

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    constrained_nodes: list
    mesh: Mesh


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


def _bulk_stiffness(m: Mesh, coef) -> sparse.csr_matrix:
    """Stiffness sum_T c_T area_T (grad phi_i . grad phi_j).

    `coef` is a scalar or per-triangle array; for the anisotropic variant
    pass a (t, 2) array of diagonal tensor entries.
    """
    area, grads = _tri_geometry(m)
    c = np.asarray(coef, dtype=float)
    if c.ndim <= 1:
        local = np.einsum("tid,tjd->tij", grads, grads)
        local *= (np.atleast_1d(c) * area)[:, None, None]
    else:  # diagonal tensor, entries (cx, cy) per triangle
        local = (np.einsum("ti,tj->tij", grads[:, :, 0], grads[:, :, 0]) * c[:, 0, None, None]
                 + np.einsum("ti,tj->tij", grads[:, :, 1], grads[:, :, 1]) * c[:, 1, None, None])
        local *= area[:, None, None]
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()
    n = m.num_nodes
    return sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


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


def assemble_A(m: Mesh, p: FlowParams, aperture: float | None = None) -> LinearSystem:
    """Linear operator of the coupled model: Darcy bulk plus the
    aperture-weighted linear fracture line term.

    The operator annihilates constants; positive definiteness comes from
    pinning the well node, which is recorded as the system's constraint.
    """
    if len(m.fracture_edges) == 0:
        raise AssemblyError("mesh has no fracture edges; cannot assemble the coupled operator")
    h = m.aperture if aperture is None else aperture
    A = _bulk_stiffness(m, p.k_p)
    if h != 0.0:
        ell = _edge_geometry(m, m.fracture_edges)
        A = A + _line_stiffness(m, np.full(len(ell), h * p.k_f))
    n = m.num_nodes
    return LinearSystem(A, np.zeros(n), [(m.well_node, 0.0)], m)


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
    coef = h * (fbeta_iso(np.abs(gx), p) - p.k_f) * gx
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


def _slab_coefficients(m: Mesh, p: FlowParams, W, flavor: str):
    """Per-triangle mobility for the frozen slab operator."""
    g = triangle_gradients(m, W)
    if flavor == "isotropic":
        return fbeta_iso(np.linalg.norm(g, axis=1), p)
    cx = fbeta_iso(np.abs(g[:, 0]), p)
    cy = np.full_like(cx, p.aniso_k)
    return np.column_stack([cx, cy])


def _check_slab(m: Mesh, flavor: str):
    if flavor not in _FLAVORS:
        raise AssemblyError(f"unknown slab flavor {flavor!r}")
    for tag in (TAG_FRAC_PLUS, TAG_FRAC_MINUS, TAG_WELL):
        if tag not in m.boundary_edges:
            raise AssemblyError(f"slab assembly requires boundary tag {tag!r}")


def _edge_load(m: Mesh, edges: np.ndarray, q) -> np.ndarray:
    """Boundary load int q(x) phi_i ds, exact for linear q on each edge."""
    load = np.zeros(m.num_nodes)
    if len(edges) == 0:
        return load
    ell = _edge_geometry(m, edges)
    qa = np.asarray([q(x) for x in m.nodes[edges[:, 0], 0]], dtype=float)
    qb = np.asarray([q(x) for x in m.nodes[edges[:, 1], 0]], dtype=float)
    np.add.at(load, edges[:, 0], ell * (2.0 * qa + qb) / 6.0)
    np.add.at(load, edges[:, 1], ell * (qa + 2.0 * qb) / 6.0)
    return load


def _lumped_tensor_load(m: Mesh, source) -> np.ndarray:
    """Volume load int s phi_i by tensor-product lumped quadrature.

    Valid on tensor-product meshes (the slab meshes are).  The nodal
    weight is the product of the 1-D trapezoid weights in x and y, which
    makes the load of an x-only source exactly proportional to the row
    weight; together with the row-consistent stiffness of the structured
    split this keeps the reduced slab solution y-independent to rounding,
    not just to discretization error.
    """
    xs = np.unique(m.nodes[:, 0])
    ys = np.unique(m.nodes[:, 1])
    wx = np.zeros(len(xs))
    wx[:-1] += np.diff(xs) / 2.0
    wx[1:] += np.diff(xs) / 2.0
    wy = np.zeros(len(ys))
    wy[:-1] += np.diff(ys) / 2.0
    wy[1:] += np.diff(ys) / 2.0
    ix = np.searchsorted(xs, m.nodes[:, 0])
    iy = np.searchsorted(ys, m.nodes[:, 1])
    w = wx[ix] * wy[iy]
    if np.isscalar(source):
        return w * float(source)
    s = np.asarray([source(x, y) for x, y in m.nodes])
    return w * s


def dirichlet_nodes(m: Mesh, tag: str = TAG_WELL) -> np.ndarray:
    return np.unique(m.boundary_edges[tag].ravel())


def slab_rhs(m: Mesh, q_plus, q_minus, q_over_v: float, reduced: bool) -> np.ndarray:
    """Load vector of the slab weak form.

    Full problem: volume source q_over_v plus the inflow data q+- entering
    as Neumann terms (with their sign, -f grad W . n = q, they subtract
    from the load).  Reduced problem: the boundary data moves into the
    volume source q_over_v - (q+(x) + q-(x))/h and the lateral boundary
    becomes no-flow.
    """
    h = m.aperture
    if reduced:
        def src(x, y):
            return q_over_v - (q_plus(x) + q_minus(x)) / h
        return _lumped_tensor_load(m, src)
    load = _lumped_tensor_load(m, float(q_over_v))
    load -= _edge_load(m, m.boundary_edges[TAG_FRAC_PLUS], q_plus)
    load -= _edge_load(m, m.boundary_edges[TAG_FRAC_MINUS], q_minus)
    return load


def slab_frozen_matrix(m: Mesh, p: FlowParams, W, flavor: str) -> sparse.csr_matrix:
    _check_slab(m, flavor)
    return _bulk_stiffness(m, _slab_coefficients(m, p, W, flavor))


def assemble_slab_residual(m: Mesh, p: FlowParams, W, flavor: str,
                           q_plus, q_minus, q_over_v: float,
                           reduced: bool = False) -> np.ndarray:
    """Residual of the nonlinear slab weak form at the state W.

    Rows of nodes on the pressure-pinned boundary report W - 0 instead,
    so the residual of an exact discrete solution vanishes identically.
    """
    _check_slab(m, flavor)
    w = _values(W)
    K = slab_frozen_matrix(m, p, W, flavor)
    r = K @ w - slab_rhs(m, q_plus, q_minus, q_over_v, reduced)
    fixed = dirichlet_nodes(m)
    r[fixed] = w[fixed]
    return r
