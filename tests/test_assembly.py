from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from fracflow import (
    AssemblyError,
    DomainSpec,
    FlowParams,
    Mesh,
    ScalarField,
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
    assemble_slab_residual,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    output_C,
)
from fracflow.assembly import (
    _bulk_stiffness,
    _edge_load,
    _free_block_assembler,
    _local_stiffness,
    apply_constraints,
    basis_gradients,
    dirichlet_nodes,
)
from fracflow.meshing import TAG_FRAC_PLUS


@pytest.fixture(scope="module")
def rect_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=4.0, width=20.0,
                      height=16.0, aperture=0.5, resolution=1.0, grading=1.3)
    return build_reservoir_mesh(spec)


@pytest.fixture(scope="module")
def bare_mesh(rect_mesh):
    """rect_mesh at zero aperture: the same nodes, no fracture term."""
    return replace(rect_mesh, aperture=0.0)


@pytest.fixture(scope="module")
def params():
    return FlowParams(alpha_f=0.1, beta=0.01, k_p=1.0)


class TestOperatorA:
    def test_symmetric(self, rect_mesh, params):
        A = assemble_A(rect_mesh, params)
        assert abs(A - A.T).max() <= 1e-14

    def test_annihilates_constants(self, rect_mesh, params):
        A = assemble_A(rect_mesh, params)
        c = np.full(rect_mesh.num_nodes, 3.7)
        assert np.abs(A @ c).max() <= 1e-12 * abs(A).max()

    def test_zero_aperture_is_plain_darcy(self, rect_mesh, bare_mesh, params):
        A0 = assemble_A(bare_mesh, params)
        A = assemble_A(rect_mesh, params)
        frac = (A - A0).tocoo()
        # the difference lives only on fracture nodes
        frac_nodes = set(rect_mesh.fracture_edges.ravel().tolist())
        assert set(frac.row[np.abs(frac.data) > 0]) <= frac_nodes

    def test_line_term_element_matrix(self):
        # chain of 2 unit fracture edges, h / alpha_f = 1
        spec = DomainSpec(shape="rectangle", fracture_length=2.0, width=8.0,
                          height=4.0, aperture=1.0, resolution=1.0, grading=1.0)
        m = build_reservoir_mesh(spec)
        assert len(m.fracture_edges) == 2
        p = FlowParams(alpha_f=1.0)
        line = assemble_A(m, p) - assemble_A(replace(m, aperture=0.0), p)
        nodes = [m.fracture_edges[0, 0], m.fracture_edges[0, 1], m.fracture_edges[1, 1]]
        block = line[np.ix_(nodes, nodes)].toarray()
        assert np.allclose(block, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]], atol=1e-14)

    def test_positive_definite_after_constraint(self, rect_mesh, params):
        A = assemble_A(rect_mesh, params)
        A_c, _ = apply_constraints(A, np.zeros(rect_mesh.num_nodes),
                                   [(rect_mesh.well_node, 0.0)])
        lam = eigsh(A_c, k=1, which="SA", return_eigenvectors=False, maxiter=10000)
        assert lam[0] > 0

    def test_requires_fracture_edges(self, params):
        slab = build_fracture_slab_mesh(1.0, 0.1, 2, 2)
        with pytest.raises(AssemblyError):
            assemble_A(slab, params)


class TestInputVector:
    def test_entries_sum_to_minus_one(self, rect_mesh, bare_mesh):
        assert -assemble_B_in(rect_mesh).sum() == pytest.approx(1.0, rel=1e-12)
        assert -assemble_B_in(bare_mesh).sum() == pytest.approx(1.0, rel=1e-12)

    def test_zero_aperture_drops_fracture_part(self, rect_mesh, bare_mesh):
        # un-normalize by the respective volumes: the raw loads differ
        # only where the fracture line integral contributes
        p = rect_mesh.nodes[rect_mesh.triangles]
        area = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])).sum()
        h, L = rect_mesh.aperture, 4.0
        load0 = -assemble_B_in(bare_mesh) * area
        load = -assemble_B_in(rect_mesh) * (area + h * L)
        changed = np.where(np.abs(load - load0) > 1e-12)[0]
        frac_nodes = set(rect_mesh.fracture_edges.ravel().tolist())
        assert set(changed.tolist()) == frac_nodes

    def test_interior_entry_on_uniform_grid(self):
        spec = DomainSpec(shape="rectangle", fracture_length=1.0, width=2.0,
                          height=2.0, resolution=1.0, grading=1.0)
        m = build_reservoir_mesh(spec)
        B = assemble_B_in(replace(m, aperture=0.0))
        # hat support of the center node covers 6 unit-halved triangles:
        # integral 6 * (1/2) / 3 = 1, domain area 4
        center = m.well_node
        assert B[center] == pytest.approx(-1.0 / 4.0, rel=1e-14)


class TestNonlinearResidual:
    def test_darcy_with_default_kf_vanishes(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.0)
        W = np.random.default_rng(0).normal(size=rect_mesh.num_nodes)
        assert np.abs(assemble_F_residual(rect_mesh, p, W)).max() <= 1e-14

    def test_constant_field_vanishes(self, rect_mesh, params):
        W = np.full(rect_mesh.num_nodes, 2.5)
        assert np.abs(assemble_F_residual(rect_mesh, params, W)).max() == 0.0

    def test_single_edge_hand_value(self):
        spec = DomainSpec(shape="rectangle", fracture_length=1.0, width=4.0,
                          height=4.0, aperture=1.0, resolution=1.0, grading=1.0)
        m = build_reservoir_mesh(spec)
        assert len(m.fracture_edges) == 1
        p = FlowParams(alpha_f=1.0, beta=1.0)  # 1/alpha_f = 1, fbeta(2) = 1/2
        a, b = m.fracture_edges[0]
        W = np.zeros(m.num_nodes)
        W[b] = 2.0 * (m.nodes[b, 0] - m.nodes[a, 0])  # d_x W = 2 on the edge
        F = assemble_F_residual(m, p, W)
        assert F[a] == pytest.approx(1.0, rel=1e-14)
        assert F[b] == pytest.approx(-1.0, rel=1e-14)
        assert np.abs(np.delete(F, [a, b])).max() == 0.0

    def test_invariant_under_constant_shift(self, rect_mesh, params):
        rng = np.random.default_rng(1)
        W = rng.normal(size=rect_mesh.num_nodes)
        F1 = assemble_F_residual(rect_mesh, params, W)
        F2 = assemble_F_residual(rect_mesh, params, W + 11.0)
        assert np.allclose(F1, F2, atol=1e-12)


class TestOutputFunctional:
    def test_constant_average(self, rect_mesh):
        W = np.full(rect_mesh.num_nodes, 4.2)
        assert output_C(rect_mesh, W) == pytest.approx(4.2, rel=1e-13)
        assert output_C(rect_mesh, np.zeros(rect_mesh.num_nodes)) == 0.0

    def test_hand_value_on_two_triangle_square(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        m = Mesh(nodes, tris, np.empty((0, 2), dtype=int), 0, {}, 0.0)
        W = np.array([0.0, 0.0, 0.0, 1.0])
        # node 3 appears in one triangle: (1/2) * (1/3) / area 1
        assert output_C(m, W) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_shift_equivariance(self, rect_mesh):
        rng = np.random.default_rng(2)
        W = rng.normal(size=rect_mesh.num_nodes)
        assert output_C(rect_mesh, W + 3.0) == pytest.approx(
            output_C(rect_mesh, W) + 3.0, rel=1e-12)

    def test_field_length_checked(self, rect_mesh):
        with pytest.raises(AssemblyError):
            ScalarField(np.zeros(3), rect_mesh)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_field_values_checked(self, rect_mesh, bad):
        values = np.zeros(rect_mesh.num_nodes)
        values[1] = bad
        with pytest.raises(AssemblyError, match="non-finite"):
            ScalarField(values, rect_mesh)


class TestSlabResidual:
    def test_zero_state_zero_data(self):
        m = build_fracture_slab_mesh(1.0, 0.2, 4, 4)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        zero = lambda x: 0.0
        for flavor in ("isotropic", "anisotropic"):
            r = assemble_slab_residual(m, p, np.zeros(m.num_nodes), flavor,
                                       zero, zero, 0.0)
            assert np.abs(r).max() == 0.0

    def test_darcy_flavors_coincide(self):
        m = build_fracture_slab_mesh(1.0, 0.2, 4, 4)
        p = FlowParams(alpha_f=0.5, beta=0.0)  # transverse mobility 1/alpha_f = 2
        W = np.random.default_rng(3).normal(size=m.num_nodes)
        zero = lambda x: 0.0  # no data: the residuals are K(W) W
        ri = assemble_slab_residual(m, p, W, "isotropic", zero, zero, 0.0)
        ra = assemble_slab_residual(m, p, W, "anisotropic", zero, zero, 0.0)
        assert np.abs(ri - ra).max() <= 1e-13 * np.abs(ri).max()

    def test_unknown_flavor_rejected(self):
        m = build_fracture_slab_mesh(1.0, 0.2, 4, 4)
        with pytest.raises(AssemblyError):
            assemble_slab_residual(m, FlowParams(), np.zeros(m.num_nodes),
                                   "sideways", lambda x: 0, lambda x: 0, 0.0)

    def test_reservoir_mesh_rejected(self, rect_mesh):
        with pytest.raises(AssemblyError, match="boundary tag"):
            assemble_slab_residual(rect_mesh, FlowParams(),
                                   np.zeros(rect_mesh.num_nodes), "isotropic",
                                   lambda x: 0, lambda x: 0, 0.0)

    def test_manufactured_residual_shrinks_with_refinement(self):
        # flux u(x) = -(L - x); pressure integrates -(alpha u + beta |u| u)
        L, h, alpha, beta = 1.0, 0.5, 1.0, 1.0
        p = FlowParams(alpha_f=alpha, beta=beta)
        zero = lambda x: 0.0

        def exact(x):
            return alpha * (L * x - x * x / 2) + beta * (L ** 3 - (L - x) ** 3) / 3

        norms = []
        for nx in (8, 16, 32):
            m = build_fracture_slab_mesh(L, h, nx, max(2, nx // 2))
            r = assemble_slab_residual(m, p, exact(m.nodes[:, 0]), "isotropic",
                                       zero, zero, 1.0)
            norms.append(np.linalg.norm(r))
        orders = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
        assert np.all(orders >= 1.0)


class TestTensorStiffness:
    def test_tensor_matches_elementwise_reference(self):
        m = build_fracture_slab_mesh(1.0, 0.2, 4, 4)
        rng = np.random.default_rng(5)
        L = rng.normal(size=(len(m.triangles), 2, 2))
        C = L @ L.transpose(0, 2, 1) + np.eye(2)  # symmetric positive definite
        K = _bulk_stiffness(m, C).toarray()
        area, grads = m.area, basis_gradients(m)
        ref = np.zeros_like(K)
        for t, tri in enumerate(m.triangles):
            ref[np.ix_(tri, tri)] += area[t] * grads[t] @ C[t] @ grads[t].T
        assert np.abs(K - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(K, K.T)

    def test_isotropic_tensor_is_the_scalar_branch(self):
        m = build_fracture_slab_mesh(1.0, 0.2, 4, 4)
        c = np.random.default_rng(6).uniform(0.5, 2.0, len(m.triangles))
        K = _bulk_stiffness(m, c[:, None, None] * np.eye(2))
        assert abs(K - _bulk_stiffness(m, c)).max() <= 1e-14 * abs(K).max()

    @pytest.mark.parametrize("mesh", [
        lambda: build_reservoir_mesh(DomainSpec(
            shape="rectangle", fracture_length=4.0, width=20.0, height=16.0,
            aperture=0.5, resolution=1.0, grading=1.3)),
        lambda: build_reservoir_mesh(DomainSpec(
            shape="disk", fracture_length=4.0, radius=10.0, aperture=1.0,
            resolution=1.0, grading=1.3)),
        lambda: build_fracture_slab_mesh(1.0, 0.05, 32, 8),
    ], ids=["rectangle", "disk", "slab"])
    def test_scalar_branch_is_the_einsum_bit_for_bit(self, mesh):
        m = mesh()
        grads = basis_gradients(m)
        for coef in (1.7, np.random.default_rng(8).uniform(0.5, 2.0, m.num_triangles)):
            ref = np.einsum("tid,tjd->tij", grads, grads)
            ref *= (np.atleast_1d(coef) * m.area)[:, None, None]
            assert np.array_equal(_local_stiffness(m, coef), ref)
            assert np.array_equal(_local_stiffness(m, coef, grads), ref)

    def test_free_block_refill_matches_assembly(self):
        m = build_fracture_slab_mesh(1.0, 0.2, 8, 4)
        free = np.setdiff1d(np.arange(m.num_nodes), dirichlet_nodes(m))
        assemble = _free_block_assembler(m, free)
        rng = np.random.default_rng(7)
        for _ in range(2):  # the pattern is reused across refills
            L = rng.normal(size=(len(m.triangles), 2, 2))
            C = L @ L.transpose(0, 2, 1) + np.eye(2)
            block = assemble(_local_stiffness(m, C))
            ref = _bulk_stiffness(m, C)[free][:, free]
            assert abs(block - ref).max() <= 1e-14 * abs(ref).max()
            assert (block != block.T).nnz == 0


class TestEdgeLoad:
    @pytest.mark.parametrize("q", [lambda x: 2.0 * (1.0 - x),
                                   lambda x: np.cos(3.0 * x) + x ** 2,
                                   lambda x: 0.25])
    def test_matches_pointwise_evaluation(self, q):
        m = build_fracture_slab_mesh(1.0, 0.2, 8, 4)
        edges = m.boundary_edges[TAG_FRAC_PLUS]
        ref = np.zeros(m.num_nodes)
        for a, b in edges:
            ell = np.linalg.norm(m.nodes[b] - m.nodes[a])
            qa, qb = float(q(m.nodes[a, 0])), float(q(m.nodes[b, 0]))
            ref[a] += ell * (2.0 * qa + qb) / 6.0
            ref[b] += ell * (qa + 2.0 * qb) / 6.0
        load = _edge_load(m, edges, q)
        assert np.abs(load - ref).max() <= 1e-12 * np.abs(ref).max()


class TestConstraints:
    def test_elimination_preserves_symmetry_and_values(self, rect_mesh, params):
        rng = np.random.default_rng(4)
        b = rng.normal(size=rect_mesh.num_nodes)
        cons = [(rect_mesh.well_node, 1.5), (3, -2.0)]
        A_c, b_c = apply_constraints(assemble_A(rect_mesh, params), b, cons)
        assert abs(A_c - A_c.T).max() <= 1e-14
        x = np.linalg.solve(A_c.toarray(), b_c)
        assert x[rect_mesh.well_node] == pytest.approx(1.5, abs=1e-12)
        assert x[3] == pytest.approx(-2.0, abs=1e-12)
