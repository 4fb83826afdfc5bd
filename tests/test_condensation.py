"""The bulk condensed onto the fracture trace against the full sparse system.

The reference solves assemble the whole reservoir system and solve it with
the well pinned (`solve_pinned`); the condensed solves must reproduce them to rounding, on
rectangles and disks, with the fracture tip inside or on the outer
boundary, at zero aperture and at zero rate.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

import fracflow.solvers
import fracflow.sweep
from fracflow import (
    DomainSpec,
    FlowParams,
    Mesh,
    SolverError,
    baseline_pdd,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    build_reservoir_mesh_family,
    run_sweep,
    solve_pss,
    solve_setpoint,
    solve_slab,
    step_response,
)
from fracflow.assembly import (
    _bulk_stiffness,
    _line_stiffness,
    _local_stiffness,
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
    fracture_edge_gradients,
    output_C,
)
from fracflow.kernels import fbeta_iso
from fracflow.solvers import _grid_order, _ldlt, condense_bulk
from pinned_solve import solve_pinned

ALPHA = 0.05
RTOL = 1e-9

SPECS = {
    "rectangle": DomainSpec(shape="rectangle", fracture_length=8.0, width=40.0,
                            height=32.0, aperture=1.0, resolution=2.0, grading=1.3),
    "disk": DomainSpec(shape="disk", fracture_length=8.0, radius=16.0,
                       aperture=1.0, resolution=2.0, grading=1.3),
    # the fracture runs from the center to the right edge
    "tip_on_boundary": DomainSpec(shape="rectangle", fracture_length=20.0,
                                  width=40.0, height=32.0, aperture=1.0,
                                  resolution=2.0, grading=1.3),
}


@pytest.fixture(scope="module")
def meshes():
    return {name: build_reservoir_mesh(spec) for name, spec in SPECS.items()}


@pytest.fixture(scope="module")
def bare_rectangle(meshes):
    """The rectangle at zero aperture: the same nodes, no fracture term."""
    return replace(meshes["rectangle"], aperture=0.0)


def rel(a, b):
    # scaled by max|b| first, so that the squared norms cannot underflow
    s = np.abs(b).max()
    return float(np.linalg.norm((a - b) / s)) / float(np.linalg.norm(b / s))


def sparse_frozen_solve(m, p, z, Q):
    """Full sparse solve with the line mobility frozen at the state z."""
    A = _bulk_stiffness(m, p.k_p)
    if m.aperture != 0.0:
        gx = fracture_edge_gradients(m, z)
        A = A + _line_stiffness(m, m.aperture * fbeta_iso(np.abs(gx), p))
    b = -assemble_B_in(m) * Q
    return solve_pinned(A, b, m.well_node)


def check_against_sparse(m, p, Q):
    z, rep = solve_pss(m, p, Q, tol=1e-12)
    assert rep.converged
    if Q == 0.0:
        assert np.abs(z.values).max() == 0.0
        return
    # z is the fixed point of the frozen sparse system ...
    assert rel(z.values, sparse_frozen_solve(m, p, z, Q)) <= RTOL
    # ... and solves the full nonlinear system
    BQ = assemble_B_in(m) * Q
    r = assemble_A(m, p) @ z.values + assemble_F_residual(m, p, z) + BQ
    r[m.well_node] = 0.0
    s = np.abs(BQ).max()
    assert np.linalg.norm(r / s) <= RTOL * np.linalg.norm(BQ / s)


def check_step_response(m, p):
    X, G = step_response(m, p)
    ref = solve_pinned(assemble_A(m, p), -assemble_B_in(m), m.well_node)
    assert rel(X.values, ref) <= RTOL
    assert G == pytest.approx(output_C(m, ref), rel=RTOL)


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(["rectangle", "disk"]),
       beta=st.floats(0.0, 1.0),
       Q=st.one_of(st.just(0.0), st.floats(1e-280, 1e-6), st.floats(1e-6, 1e4)))
@example(shape="rectangle", beta=0.5, Q=2.9e-285)
def test_condensed_solve_matches_sparse_reference(meshes, shape, beta, Q):
    m = meshes[shape]
    p = FlowParams(alpha_f=ALPHA, beta=beta)
    check_against_sparse(m, p, Q)
    check_step_response(m, p)


@pytest.mark.parametrize("shape", sorted(SPECS))
def test_schur_complement_matches_dense_reference(meshes, shape):
    m = meshes[shape]
    c = condense_bulk(m, 1.0)
    A = _bulk_stiffness(m, 1.0).toarray()
    G = c.trace[1:]  # the well is pinned
    I = np.setdiff1d(np.arange(m.num_nodes), c.trace)
    ref = A[np.ix_(G, G)] - A[np.ix_(G, I)] @ np.linalg.solve(A[np.ix_(I, I)],
                                                             A[np.ix_(I, G)])
    assert np.abs(c.S[1:, 1:] - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(c.S, c.S.T)
    assert not c.S[0].any()


def dense_schur_error(m, c):
    """max |S - S_ref| / max |S_ref| against a dense elimination."""
    A = _bulk_stiffness(m, 1.0).toarray()
    G = c.trace[1:]  # the well is pinned
    I = np.setdiff1d(np.arange(m.num_nodes), c.trace)
    ref = A[np.ix_(G, G)] - A[np.ix_(G, I)] @ np.linalg.solve(A[np.ix_(I, I)],
                                                             A[np.ix_(I, G)])
    return np.abs(c.S[1:, 1:] - ref).max() / np.abs(ref).max()


@st.composite
def rectangle_specs(draw):
    """Rectangles with the well anywhere, the tip inside or on the outer
    boundary, uniform or graded, coarse to fine (up to ~1,000 nodes)."""
    width = draw(st.sampled_from([20.0, 40.0]))
    height = draw(st.sampled_from([16.0, 24.0]))
    resolution = draw(st.sampled_from([1.0, 2.0, 4.0]))
    wx = draw(st.floats(-0.45, 0.3)) * width
    wy = draw(st.floats(-0.45, 0.45)) * height
    room = width / 2 - wx  # at least 4, so one edge always fits
    length = (room if draw(st.booleans())
              else max(draw(st.floats(0.4, 0.9)) * room, resolution))
    return DomainSpec(shape="rectangle", fracture_length=length, width=width,
                      height=height, aperture=1.0, well=(wx, wy),
                      resolution=resolution,
                      grading=draw(st.sampled_from([1.0, 1.3])))


@st.composite
def disk_specs(draw):
    """Hub-centred disks, the tip inside or on the outer boundary, uniform
    or graded, coarse to fine (up to ~1,200 nodes)."""
    radius = draw(st.sampled_from([6.0, 10.0, 16.0]))
    resolution = draw(st.sampled_from([1.0, 2.0, 4.0]))
    length = (radius if draw(st.booleans())
              else max(draw(st.floats(0.2, 0.9)) * radius, resolution))
    return DomainSpec(shape="disk", fracture_length=length, radius=radius,
                      aperture=1.0, resolution=resolution,
                      grading=draw(st.sampled_from([1.0, 1.3])))


@settings(max_examples=40, deadline=None)
@given(spec=st.one_of(rectangle_specs(), disk_specs()))
@example(spec=SPECS["tip_on_boundary"])
@example(spec=SPECS["disk"])
@example(spec=DomainSpec(shape="rectangle", fracture_length=5.0, width=40.0,
                         height=24.0, aperture=1.0, well=(-18.0, 10.0),
                         resolution=1.0, grading=1.0))
def test_grid_order_condenses_rectangles_and_disks(spec):
    m = build_reservoir_mesh(spec)
    c = condense_bulk(m, 1.0)
    interior = c.position < 0
    order = _grid_order(m.grid, interior)
    assert np.array_equal(c.interior, order)
    assert np.array_equal(np.sort(order), np.flatnonzero(interior))
    identity = np.arange(m.num_nodes - 1)
    assert np.array_equal(c.lu.perm_r, identity)
    assert np.array_equal(c.lu.perm_c, identity)
    assert dense_schur_error(m, c) <= 1e-12


def test_grid_order_fills_no_more_than_minimum_degree():
    symmetric = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    for spec in (DomainSpec(shape="rectangle", fracture_length=50.0, width=100.0,
                            height=80.0, aperture=1.0, resolution=1.0, grading=1.3),
                 # 5,671 nodes
                 DomainSpec(shape="disk", fracture_length=10.0, radius=30.0,
                            aperture=1.0, resolution=1.0, grading=1.0)):
        m = build_reservoir_mesh(spec)
        c = condense_bulk(m, 1.0)
        A = _bulk_stiffness(m, 1.0).tocsr()
        interior = np.flatnonzero(c.position < 0)
        # the oracle: SuperLU's minimum-degree order of A_II
        mmd = interior[np.argsort(splu(A[interior][:, interior].tocsc(),
                                       permc_spec="MMD_AT_PLUS_A",
                                       **symmetric).perm_c)]
        order = np.concatenate([mmd, c.trace[1:]])
        lu = splu(A[order][:, order].tocsc(), permc_spec="NATURAL", **symmetric)
        assert c.lu.L.nnz + c.lu.U.nnz <= 1.1 * (lu.L.nnz + lu.U.nnz), spec.shape


@pytest.mark.parametrize("shape", ["rectangle", "disk"])
def test_bulk_is_assembled_in_the_factor_order_without_zeros(meshes, shape):
    # the reference sums every element entry in node order and permutes
    # the sum: the rectangle's grid stores a 0.0 for each right angle's
    # hypotenuse (cot 90 deg = 0), and on the disk two couplings sum to 0.0
    m = meshes[shape]
    c = condense_bulk(m, 1.0)
    order = np.concatenate([c.interior, c.trace[1:]])
    A = _bulk_stiffness(m, 1.0, order)
    assert A.format == "csc" and A.has_sorted_indices
    assert np.all(A.data != 0.0)
    rows = np.repeat(m.triangles, 3, axis=1).ravel()
    cols = np.tile(m.triangles, (1, 3)).ravel()
    kept = sparse.coo_matrix((_local_stiffness(m, 1.0).ravel(), (rows, cols)),
                             shape=(m.num_nodes, m.num_nodes)).tocsr()
    kept = kept[order][:, order].tocsc()
    ref = kept.copy()
    ref.eliminate_zeros()
    ref.sort_indices()
    assert ref.nnz < kept.nnz
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    # duplicates may be summed in another order: 1 ulp
    assert np.all(np.abs(A.data - ref.data) <= np.spacing(np.abs(ref.data)))
    identity = np.arange(len(order))
    assert np.array_equal(c.lu.perm_r, identity)
    assert np.array_equal(c.lu.perm_c, identity)
    if shape == "rectangle":
        assert c.lu.nnz < _ldlt(kept, "bulk with its zeros").nnz


def test_grid_missing_a_node_rejected(meshes):
    m = meshes["rectangle"]
    c = condense_bulk(m, 1.0)
    dropped, other = np.flatnonzero(c.position < 0)[:2]
    for grid in (m.grid[m.grid != dropped].reshape(1, -1),
                 np.where(m.grid == dropped, other, m.grid),  # other twice
                 np.where(m.grid == dropped, m.num_nodes, m.grid),
                 np.empty((0, 0), dtype=int)):
        with pytest.raises(ValueError, match="exactly once"):
            condense_bulk(replace(m, grid=grid), 1.0)


def test_pivoted_bordered_factor_rejected(meshes, monkeypatch):
    # S is the trailing block only if the factor kept the given order; a
    # slab tangent is factorized by the same recipe, with the same check
    original = fracflow.solvers.splu

    class Pivoted:
        def __init__(self, lu):
            self.lu = lu
            self.perm_r = lu.perm_r[::-1]

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def pivoting(*args, **kwargs):
        return Pivoted(original(*args, **kwargs))

    monkeypatch.setattr(fracflow.solvers, "splu", pivoting)
    with pytest.raises(SolverError, match="bulk operator off the well "
                                          "factorization reordered"):
        condense_bulk(meshes["rectangle"], 1.0)
    q = lambda x: 1.0 - x
    with pytest.raises(SolverError, match="reordered its rows or columns"):
        solve_slab(build_fracture_slab_mesh(1.0, 0.1, 16, 4),
                   FlowParams(alpha_f=ALPHA, beta=1.0), "anisotropic", q, q, 0.0)


def test_no_mesh_keeps_basis_gradients(monkeypatch):
    # a condensation factorizes the bulk without them, and no mesh of a
    # run caches anything per triangle but its areas
    made = []
    family = fracflow.sweep.build_reservoir_mesh_family

    def recording(*args, **kwargs):
        meshes = family(*args, **kwargs)
        made.extend(meshes)
        return meshes

    monkeypatch.setattr(fracflow.sweep, "build_reservoir_mesh_family", recording)
    spec = TestFactorizationCounts.SPEC
    run_sweep(spec, [4.0, 8.0, 12.0], [1e-5, 1e-1], 1000.0, FlowParams(alpha_f=ALPHA))
    m = build_reservoir_mesh(SPECS["disk"])
    condense_bulk(m, 1.0)
    solve_pss(m, FlowParams(alpha_f=ALPHA, beta=1e-1), 1000.0)
    made.append(m)
    cached = {f.name for f in fields(Mesh)} | {"area"}
    assert len(made) == 4
    assert all(set(vars(o)) == cached for o in made)


def test_fracture_tip_on_outer_boundary(meshes):
    m = meshes["tip_on_boundary"]
    tip = m.nodes[m.fracture_edges[-1, 1]]
    assert tip[0] == pytest.approx(SPECS["tip_on_boundary"].width / 2)
    p = FlowParams(alpha_f=ALPHA, beta=0.1)
    check_against_sparse(m, p, 1000.0)
    check_step_response(m, p)


def test_zero_aperture_is_pure_darcy(meshes, bare_rectangle):
    m = meshes["rectangle"]
    p = FlowParams(alpha_f=ALPHA, beta=0.5)
    check_against_sparse(bare_rectangle, p, 1000.0)
    z, rep = solve_pss(bare_rectangle, p, 1000.0)
    assert rep.iterations == 1
    ref = solve_pinned(_bulk_stiffness(m, p.k_p),
                       -assemble_B_in(bare_rectangle) * 1000.0, m.well_node)
    assert rel(z.values, ref) <= RTOL
    assert baseline_pdd(m, p, 1000.0) == pytest.approx(
        output_C(bare_rectangle, ref), rel=RTOL)


@pytest.fixture(scope="module")
def shared(meshes):
    """One condensation per mesh of SPECS, built at its own aperture."""
    return {name: condense_bulk(m, 1.0) for name, m in meshes.items()}


@settings(max_examples=15, deadline=None)
@given(shape=st.sampled_from(["rectangle", "disk"]),
       h=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
       beta=st.floats(0.0, 1.0))
@example(shape="rectangle", h=0.0, beta=0.5)
def test_shared_condensation_serves_every_aperture(meshes, shared, shape, h, beta):
    # the aperture is the mesh's: a copy at another aperture shares the
    # node set, so the condensation built at the original aperture gives
    # the same solves as one built for the copy
    m = replace(meshes[shape], aperture=h)
    p = FlowParams(alpha_f=ALPHA, beta=beta)
    z_shared, _ = solve_pss(m, p, 1000.0, condensation=shared[shape])
    z_own, _ = solve_pss(m, p, 1000.0)
    assert rel(z_shared.values, z_own.values) <= 1e-12
    X_shared, G_shared = step_response(m, p, condensation=shared[shape])
    X_own, G_own = step_response(m, p)
    assert rel(X_shared.values, X_own.values) <= 1e-12
    assert G_shared == pytest.approx(G_own, rel=1e-12)


def test_zero_rate_gives_exactly_zero(meshes):
    for shape in ("rectangle", "disk"):
        m = meshes[shape]
        z, rep = solve_pss(m, FlowParams(alpha_f=ALPHA, beta=1.0), 0.0)
        assert rep.converged and np.abs(z.values).max() == 0.0
        assert baseline_pdd(m, FlowParams(alpha_f=ALPHA), 0.0) == 0.0


def test_family_condensation_matches_per_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=12.0, width=40.0,
                      height=32.0, aperture=1.0, resolution=2.0, grading=1.3)
    family = build_reservoir_mesh_family(spec, [4.0, 8.0, 12.0])
    shared = condense_bulk(family, 1.0)
    target = baseline_pdd(family[0], FlowParams(alpha_f=ALPHA), 1000.0)
    assert baseline_pdd(family[0], FlowParams(alpha_f=ALPHA), 1000.0,
                        condensation=shared) == pytest.approx(target, rel=1e-12)
    for m in family:
        for beta in (1e-4, 1e-1):
            p = FlowParams(alpha_f=ALPHA, beta=beta)
            own = solve_setpoint(m, p, target)
            fam = solve_setpoint(m, p, target, condensation=shared)
            assert fam.J_p == pytest.approx(own.J_p, rel=1e-10)


def test_condensation_rejects_foreign_mesh_and_mobility(meshes):
    c = condense_bulk(meshes["rectangle"], 1.0)
    with pytest.raises(ValueError, match="node set"):
        solve_pss(meshes["disk"], FlowParams(alpha_f=ALPHA), 1.0, condensation=c)
    with pytest.raises(ValueError, match="k_p"):
        solve_pss(meshes["rectangle"], FlowParams(alpha_f=ALPHA, k_p=2.0), 1.0,
                  condensation=c)
    with pytest.raises(ValueError, match="share one node set"):
        condense_bulk([meshes["rectangle"], meshes["disk"]], 1.0)
    short, long = build_reservoir_mesh_family(SPECS["rectangle"], [4.0, 8.0])
    with pytest.raises(ValueError, match="outside the condensed trace"):
        solve_pss(long, FlowParams(alpha_f=ALPHA), 1.0,
                  condensation=condense_bulk(short, 1.0))


def test_line_rejects_a_fracture_that_is_not_the_path_from_the_well(meshes):
    m = meshes["rectangle"]
    c = condense_bulk(m, 1.0)
    c.line(m, 1.0)
    # its nodes all lie on the trace, but the path does not start at the
    # well, or runs backwards
    for edges in (m.fracture_edges[1:], m.fracture_edges[:, ::-1],
                  m.fracture_edges[::-1]):
        with pytest.raises(ValueError, match="not the path from the well"):
            c.line(m.with_fracture_edges(edges), 1.0)


def scatter_line(c, m, S, z, coef):
    """Line load, gradients, flux and operator of mesh m on condensation c
    by an np.add.at scatter over its fracture edges as trace positions."""
    edges = c.position[m.fracture_edges]
    i, j = edges[:, 0], edges[:, 1]
    ell = np.linalg.norm(m.nodes[m.fracture_edges[:, 1]]
                         - m.nodes[m.fracture_edges[:, 0]], axis=1)
    frac = np.zeros(len(c.trace))
    np.add.at(frac, edges.ravel(), np.repeat(m.aperture * ell / 2.0, 2))
    flux = np.zeros(len(c.trace))
    np.add.at(flux, i, -coef)
    np.add.at(flux, j, coef)
    M = S.copy()
    k = coef / ell
    np.add.at(M, (i, i), k)
    np.add.at(M, (j, j), k)
    np.add.at(M, (i, j), -k)
    np.add.at(M, (j, i), -k)
    return c.r + frac, (z[j] - z[i]) / ell, flux, M


@pytest.mark.parametrize("shape", ["rectangle", "disk"])
def test_trace_line_slices_match_an_edge_scatter(shape):
    # every line of a family, the unfractured one included, on the
    # family's shared trace
    family = build_reservoir_mesh_family(SPECS[shape], [2.0, 4.0, 8.0])
    family.append(family[0].with_fracture_edges(np.empty((0, 2), dtype=int)))
    c = condense_bulk(family, 1.0)
    n = len(c.trace)
    rng = np.random.default_rng(7)
    for m in family:
        line = c.line(m, 1.0)
        k = len(m.fracture_edges)
        assert len(line.ell) == k
        S = rng.standard_normal((n, n))
        z = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        coef = rng.standard_normal(k) * 10.0 ** rng.uniform(-3, 3, k)
        weights, gradients, flux, M = scatter_line(c, m, S + S.T, z, coef)
        assert np.array_equal(line.weights, weights)
        assert np.array_equal(line.gradients(z), gradients)
        assert np.array_equal(line.flux(coef), flux)
        assert np.array_equal(line.operator(S + S.T, coef), M)


@pytest.fixture
def factorizations(monkeypatch):
    calls = []
    original = fracflow.solvers.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fracflow.solvers, "splu", counting)
    return calls


class TestFactorizationCounts:
    """As many sparse factorizations as one condensation of the node set
    makes, whatever the cell and iteration counts: the bordered factor,
    on a rectangle and on a disk alike."""

    SPEC = DomainSpec(shape="rectangle", fracture_length=12.0, width=40.0,
                      height=32.0, aperture=1.0, resolution=2.0, grading=1.3)

    @pytest.fixture
    def per_condensation(self, factorizations, meshes):
        counts = []
        for m in (build_reservoir_mesh(self.SPEC), meshes["disk"]):
            condense_bulk(m, 1.0)
            counts.append(len(factorizations))
            factorizations.clear()
        assert counts == [1, 1]
        return 1

    def test_sweep_factorizes_as_one_condensation(self, factorizations,
                                                  per_condensation):
        t = run_sweep(self.SPEC, [4.0, 8.0, 12.0], [1e-5, 1e-3, 1e-1], 1000.0,
                      FlowParams(alpha_f=ALPHA))
        assert not t.failed and t.outer_iterations.sum() > 9
        assert len(factorizations) == per_condensation

    def test_setpoint_factorizes_as_one_condensation(self, factorizations,
                                                     per_condensation):
        m = build_reservoir_mesh(self.SPEC)
        res = solve_setpoint(m, FlowParams(alpha_f=ALPHA, beta=1e-2), 100.0)
        assert res.outer_iterations > 1
        assert len(factorizations) == per_condensation

    def test_pss_factorizes_as_one_condensation(self, factorizations,
                                                per_condensation, meshes):
        for m in (build_reservoir_mesh(self.SPEC), meshes["disk"]):
            _, rep = solve_pss(m, FlowParams(alpha_f=ALPHA, beta=1e-1), 1000.0)
            assert rep.iterations > 1
            assert len(factorizations) == per_condensation
            factorizations.clear()


def reference_grid_order(ids, keep):
    """The nested dissection block by block, each block ordered anew."""
    parts = []

    def dissect(block):
        ny, nx = block.shape
        if ny * nx <= fracflow.solvers._GRID_BLOCK:
            parts.append(block.ravel())
        elif nx >= ny:
            dissect(block[:, :nx // 2])
            dissect(block[:, nx // 2 + 1:])
            parts.append(block[:, nx // 2])
        else:
            dissect(block[:ny // 2])
            dissect(block[ny // 2 + 1:])
            parts.append(block[ny // 2])

    dissect(ids)
    order = np.concatenate(parts)
    return order[keep[order]]


@pytest.mark.parametrize("mesh", [
    lambda: build_reservoir_mesh(SPECS["rectangle"]),
    lambda: build_reservoir_mesh(SPECS["tip_on_boundary"]),
    lambda: build_reservoir_mesh(SPECS["disk"]),
    lambda: build_reservoir_mesh(DomainSpec(shape="disk", fracture_length=5.0,
                                            radius=7.0, aperture=1.0,
                                            resolution=0.5, grading=1.0)),
    lambda: build_fracture_slab_mesh(1.0, 0.05, 32, 8),
    lambda: build_fracture_slab_mesh(2.0, 0.3, 5, 17),
], ids=["rectangle", "tip-on-boundary", "disk", "fine-disk", "slab", "tall-slab"])
def test_grid_order_is_the_blockwise_recursion(mesh):
    m = mesh()
    rng = np.random.default_rng(m.num_nodes)
    for keep in (np.ones(m.num_nodes, dtype=bool),
                 rng.uniform(size=m.num_nodes) < 0.7):
        assert np.array_equal(_grid_order(m.grid, keep),
                              reference_grid_order(m.grid, keep))
