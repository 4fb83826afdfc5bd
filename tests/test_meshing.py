import numpy as np
import pytest

from fracflow import (
    DomainSpec,
    GeometryError,
    Mesh,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    build_reservoir_mesh_family,
    mesh_quality_report,
)


def rect_spec(**kw):
    base = dict(shape="rectangle", fracture_length=1.0, width=2.0, height=2.0,
                resolution=1.0, grading=1.0)
    base.update(kw)
    return DomainSpec(**base)


class TestReservoirRectangle:
    def test_structured_2x2_counts(self):
        m = build_reservoir_mesh(rect_spec())
        assert m.num_nodes == 9
        assert m.num_triangles == 8
        # fracture [0, 1] on a unit grid resolves into one edge
        assert len(m.fracture_edges) == 1

    def test_fracture_nodes_on_axis(self):
        m = build_reservoir_mesh(rect_spec(width=30.0, height=20.0,
                                           fracture_length=7.0, grading=1.3))
        ends = m.nodes[m.fracture_edges.ravel()]
        assert np.all(ends[:, 1] == 0.0)

    def test_well_node_at_fracture_left_tip(self):
        m = build_reservoir_mesh(rect_spec(width=10.0, height=8.0))
        assert tuple(m.nodes[m.well_node]) == (0.0, 0.0)
        left_tip = m.nodes[m.fracture_edges[0, 0]]
        assert tuple(left_tip) == (0.0, 0.0)

    def test_area_sums_to_domain_area(self):
        m = build_reservoir_mesh(rect_spec(width=12.0, height=5.0,
                                           fracture_length=3.0, grading=1.3))
        p = m.nodes[m.triangles]
        areas = 0.5 * np.abs(
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        assert areas.sum() == pytest.approx(60.0, rel=1e-10)

    def test_refinement_quadruples_triangles(self):
        coarse = build_reservoir_mesh(rect_spec())
        fine = build_reservoir_mesh(rect_spec(resolution=0.5))
        assert fine.num_triangles >= 4 * coarse.num_triangles

    def test_fracture_edges_conforming(self):
        m = build_reservoir_mesh(rect_spec(width=10.0, height=8.0,
                                           fracture_length=3.0, grading=1.3))
        for a, b in m.fracture_edges:
            shared = sum(1 for tri in m.triangles if a in tri and b in tri)
            assert shared == 2

    def test_outer_edges_on_the_boundary(self):
        m = build_reservoir_mesh(rect_spec(width=12.0, height=5.0,
                                           fracture_length=3.0, grading=1.3))
        nodes = m.nodes[m.boundary_edges["outer"].ravel()]
        on_x = np.isclose(np.abs(nodes[:, 0]), 6.0, atol=1e-12)
        on_y = np.isclose(np.abs(nodes[:, 1]), 2.5, atol=1e-12)
        assert np.all(on_x | on_y)

    def test_fracture_outside_domain_rejected(self):
        with pytest.raises(GeometryError):
            build_reservoir_mesh(rect_spec(fracture_length=1.5))

    def test_resolution_too_coarse_rejected(self):
        with pytest.raises(GeometryError):
            build_reservoir_mesh(rect_spec(width=20.0, height=20.0,
                                           fracture_length=1.0, resolution=3.0))


class TestReservoirDisk:
    def test_boundary_polygon_vertex_count(self):
        m = build_reservoir_mesh(DomainSpec(
            shape="disk", radius=1.0, fracture_length=1.0, resolution=0.5))
        # ceil(2*pi*1/0.5) = 13 boundary vertices
        boundary_nodes = np.unique(m.boundary_edges["outer"].ravel())
        assert len(boundary_nodes) == 13
        assert len(m.boundary_edges["outer"]) == 13

    def test_area_matches_inscribed_polygon(self):
        m = build_reservoir_mesh(DomainSpec(
            shape="disk", radius=1.0, fracture_length=1.0, resolution=0.5))
        p = m.nodes[m.triangles]
        areas = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                       - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
        polygon = 13 / 2.0 * np.sin(2.0 * np.pi / 13)
        assert areas.sum() == pytest.approx(polygon, rel=1e-10)

    def test_fracture_on_positive_x_axis(self):
        m = build_reservoir_mesh(DomainSpec(
            shape="disk", radius=10.0, fracture_length=4.0, resolution=1.0))
        ends = m.nodes[m.fracture_edges.ravel()]
        assert np.all(ends[:, 1] == 0.0)
        assert np.all(ends[:, 0] >= 0.0)
        assert m.well_node == 0
        assert tuple(m.nodes[0]) == (0.0, 0.0)

    def test_outer_ring_at_radius(self):
        m = build_reservoir_mesh(DomainSpec(
            shape="disk", radius=10.0, fracture_length=4.0, resolution=1.0))
        ring = m.nodes[m.boundary_edges["outer"].ravel()]
        assert np.allclose(np.hypot(ring[:, 0], ring[:, 1]), 10.0, atol=1e-12)

    def test_offcenter_well_rejected(self):
        with pytest.raises(GeometryError):
            build_reservoir_mesh(DomainSpec(
                shape="disk", radius=5.0, fracture_length=1.0,
                well=(1.0, 0.0), resolution=0.5))


class TestSlab:
    def test_structured_counts_and_tags(self):
        m = build_fracture_slab_mesh(1.0, 0.1, 2, 2)
        assert m.num_nodes == 9
        assert m.num_triangles == 8
        for tag in ("frac_plus", "frac_minus", "well", "frac_out"):
            assert len(m.boundary_edges[tag]) == 2

    def test_tagged_edges_on_their_loci(self):
        L, h = 3.0, 0.2
        m = build_fracture_slab_mesh(L, h, 5, 4)
        locus = {"frac_plus": (1, h / 2), "frac_minus": (1, -h / 2),
                 "well": (0, 0.0), "frac_out": (0, L)}
        for tag, (axis, value) in locus.items():
            nodes = m.nodes[m.boundary_edges[tag].ravel()]
            assert np.all(np.abs(nodes[:, axis] - value) <= 1e-12)

    def test_y_extent_exact(self):
        m = build_fracture_slab_mesh(2.0, 0.3, 4, 6)
        assert m.nodes[:, 1].min() == -0.15
        assert m.nodes[:, 1].max() == 0.15

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            build_fracture_slab_mesh(1.0, 0.0, 2, 2)
        with pytest.raises(GeometryError):
            build_fracture_slab_mesh(1.0, 0.1, 1, 2)


class TestQuality:
    def test_square_cells_give_45_degrees(self):
        m = build_fracture_slab_mesh(1.0, 1.0, 4, 4)
        rep = mesh_quality_report(m)
        assert rep.min_angle_deg == pytest.approx(45.0, abs=1e-9)
        assert rep.valid

    def test_all_builders_produce_valid_meshes(self):
        for m in (build_reservoir_mesh(rect_spec(width=20.0, height=10.0,
                                                 fracture_length=4.0, grading=1.3)),
                  build_fracture_slab_mesh(1.0, 0.05, 16, 8)):
            rep = mesh_quality_report(m)
            assert rep.valid and rep.min_area > 0

    def test_flipped_triangle_flagged(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 2, 1]])  # clockwise
        m = Mesh(nodes, tris, np.empty((0, 2), dtype=int), 0, {}, 0.0)
        assert not mesh_quality_report(m).valid

    def test_aspect_ratio_flags_stretched_cells(self):
        square = mesh_quality_report(build_fracture_slab_mesh(1.0, 1.0, 4, 4))
        stretched = mesh_quality_report(build_fracture_slab_mesh(1.0, 0.1, 4, 4))
        assert stretched.max_edge_ratio > 2 * square.max_edge_ratio


class TestMeshFamily:
    def test_shared_nodes_and_nested_tags(self):
        spec = rect_spec(width=40.0, height=30.0, fracture_length=1.0,
                         resolution=1.0, grading=1.3)
        fam = build_reservoir_mesh_family(spec, [4.0, 8.0, 12.0])
        assert all(m.nodes is fam[0].nodes for m in fam)
        assert all(m.well_node == fam[0].well_node for m in fam)
        sizes = [len(m.fracture_edges) for m in fam]
        assert sizes == sorted(sizes) and sizes[0] > 0
        # each tagged sub-polyline spans exactly [0, L]
        for m, L in zip(fam, [4.0, 8.0, 12.0]):
            xs = m.nodes[m.fracture_edges.ravel(), 0]
            assert xs.min() == 0.0
            assert xs.max() == pytest.approx(L, abs=1e-12)

    def test_rejects_unresolvable_length(self):
        spec = rect_spec(width=40.0, height=30.0, resolution=3.0)
        with pytest.raises(GeometryError):
            build_reservoir_mesh_family(spec, [1.0, 8.0])


@pytest.mark.parametrize("tags", ["reservoir", "slab"])
def test_grid_arrays_match_the_cell_loop(tags):
    from fracflow.meshing import _grid_mesh
    xs = np.cumsum(1.3 ** np.arange(6)) - 4.0   # graded lines
    ys = np.cumsum(1.2 ** np.arange(4)) - 2.0
    nodes, triangles, _, boundary = _grid_mesh(xs, ys, tags=tags)
    nx, ny = len(xs), len(ys)

    def nid(iy, ix):
        return iy * nx + ix

    # reference: the triangles and boundary edges built cell by cell
    tris = []
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            n00, n10 = nid(iy, ix), nid(iy, ix + 1)
            n01, n11 = nid(iy + 1, ix), nid(iy + 1, ix + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    bottom = [(nid(0, ix), nid(0, ix + 1)) for ix in range(nx - 1)]
    top = [(nid(ny - 1, ix), nid(ny - 1, ix + 1)) for ix in range(nx - 1)]
    left = [(nid(iy, 0), nid(iy + 1, 0)) for iy in range(ny - 1)]
    right = [(nid(iy, nx - 1), nid(iy + 1, nx - 1)) for iy in range(ny - 1)]
    if tags == "slab":
        expected = {"frac_minus": bottom, "frac_plus": top, "well": left,
                    "frac_out": right}
    else:
        expected = {"outer": bottom + top + left + right}

    assert nodes.shape == (nx * ny, 2)
    assert triangles.dtype == np.array(tris).dtype
    assert np.array_equal(triangles, np.array(tris, dtype=int))
    assert sorted(boundary) == sorted(expected)
    for tag, edges in expected.items():
        assert boundary[tag].dtype == np.array(edges).dtype
        assert np.array_equal(boundary[tag], np.array(edges, dtype=int))
