import warnings
from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracflow import (
    DomainSpec,
    GeometryError,
    Mesh,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    build_reservoir_mesh_family,
)
from fracflow.assembly import basis_gradients


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
        assert m.nodes[:, 0].min() == -6.0 and m.nodes[:, 0].max() == 6.0
        assert m.nodes[:, 1].min() == -2.5 and m.nodes[:, 1].max() == 2.5
        # the outer boundary is no-flow, which needs no tag
        assert m.boundary_edges == {}

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
        # ceil(2*pi*1/0.5) = 13 boundary vertices, the outermost ring
        ring = m.nodes[m.grid[-1]]
        assert len(ring) == 13
        assert np.allclose(np.hypot(ring[:, 0], ring[:, 1]), 1.0, rtol=0, atol=1e-12)
        assert m.boundary_edges == {}

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
        radius = np.hypot(m.nodes[:, 0], m.nodes[:, 1])
        ring = radius[m.grid[-1]]
        assert np.allclose(ring, 10.0, rtol=0, atol=1e-12)
        assert radius.max() == ring.max()

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
        assert sorted(m.boundary_edges) == ["frac_minus", "frac_plus", "well"]
        for tag in ("frac_plus", "frac_minus", "well"):
            assert len(m.boundary_edges[tag]) == 2

    def test_tagged_edges_on_their_loci(self):
        L, h = 3.0, 0.2
        m = build_fracture_slab_mesh(L, h, 5, 4)
        locus = {"frac_plus": (1, h / 2), "frac_minus": (1, -h / 2),
                 "well": (0, 0.0)}
        assert sorted(m.boundary_edges) == sorted(locus)
        for tag, (axis, value) in locus.items():
            nodes = m.nodes[m.boundary_edges[tag].ravel()]
            assert np.all(np.abs(nodes[:, axis] - value) <= 1e-12)

    def test_tags_match_the_cell_loop(self):
        nx, ny = 5, 3  # an odd ny: no node of the left column is on y = 0
        m = build_fracture_slab_mesh(2.0, 0.1, nx, ny)

        def nid(iy, ix):
            return iy * (nx + 1) + ix

        # reference: the edges of the bottom row, the top row and the left
        # column, one by one; the well is the left node nearest y = 0
        expected = {
            "frac_minus": [(nid(0, ix), nid(0, ix + 1)) for ix in range(nx)],
            "frac_plus": [(nid(ny, ix), nid(ny, ix + 1)) for ix in range(nx)],
            "well": [(nid(iy, 0), nid(iy + 1, 0)) for iy in range(ny)]}
        left = [nid(iy, 0) for iy in range(ny + 1)]
        well = min(left, key=lambda n: abs(m.nodes[n, 1]))
        assert sorted(m.boundary_edges) == sorted(expected)
        for tag, edges in expected.items():
            assert m.boundary_edges[tag].dtype == np.array(edges).dtype
            assert np.array_equal(m.boundary_edges[tag], np.array(edges, dtype=int))
        assert m.well_node == well

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
    def test_all_builders_produce_valid_meshes(self):
        for m in (build_reservoir_mesh(rect_spec(width=20.0, height=10.0,
                                                 fracture_length=4.0, grading=1.3)),
                  build_fracture_slab_mesh(1.0, 0.05, 16, 8)):
            assert m.area.min() > 0
            # a tensor grid's cell has the spacings of its two pairs of
            # adjacent lines, and its triangles' angles follow from their
            # ratio: at least 1 degree where it is at least tan(1 deg)
            dx = np.diff(m.nodes[m.grid[0], 0])
            dy = np.diff(m.nodes[m.grid[:, 0], 1])
            assert dx.min() > 0 and dy.min() > 0
            ratio = min(dx.min() / dy.max(), dy.min() / dx.max())
            assert ratio >= np.tan(np.radians(1.0))


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

    def test_rejects_no_lengths_and_zero_lengths(self):
        with pytest.raises(GeometryError, match="nonempty"):
            build_reservoir_mesh_family(rect_spec(), [])
        with pytest.raises(GeometryError, match="lengths must be > 0"):
            build_reservoir_mesh_family(rect_spec(), [0.0, 1.0])


def test_grid_arrays_match_the_cell_loop():
    from fracflow.meshing import _grid_mesh
    xs = np.cumsum(1.3 ** np.arange(6)) - 4.0   # graded lines
    ys = np.cumsum(1.2 ** np.arange(4)) - 2.0
    nodes, triangles, ids = _grid_mesh(xs, ys)
    nx, ny = len(xs), len(ys)

    def nid(iy, ix):
        return iy * nx + ix

    # reference: the nodes row by row, and the triangles cell by cell
    points = [(x, y) for y in ys for x in xs]
    tris = []
    for iy in range(ny - 1):
        for ix in range(nx - 1):
            n00, n10 = nid(iy, ix), nid(iy, ix + 1)
            n01, n11 = nid(iy + 1, ix), nid(iy + 1, ix + 1)
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    grid = [[nid(iy, ix) for ix in range(nx)] for iy in range(ny)]

    assert np.array_equal(nodes, np.array(points))
    assert triangles.dtype == np.array(tris).dtype
    assert np.array_equal(triangles, np.array(tris, dtype=int))
    assert ids.dtype == np.array(grid).dtype
    assert np.array_equal(ids, np.array(grid))


DISK_SPECS = [
    DomainSpec(shape="disk", fracture_length=3.0, radius=5.0, resolution=1.0),
    DomainSpec(shape="disk", fracture_length=8.0, radius=16.0, resolution=2.0,
               grading=1.3),
    # the fracture reaches the outer ring
    DomainSpec(shape="disk", fracture_length=5.0, radius=5.0, resolution=0.7,
               grading=1.0),
]


@pytest.mark.parametrize("spec", DISK_SPECS)
def test_disk_arrays_match_the_ring_loop(spec):
    lengths = [spec.fracture_length / 2, spec.fracture_length]
    family = build_reservoir_mesh_family(spec, lengths)
    m = family[-1]
    nb = int(np.ceil(2.0 * np.pi * spec.radius / spec.resolution))
    radii = m.nodes[1::nb, 0]  # theta = 0, where cos is exactly one
    theta = 2.0 * np.pi * np.arange(nb) / nb

    def nid(j, k):
        return 1 + j * nb + (k % nb)

    # reference: nodes, triangles and edges built ring by ring, node by node
    nodes = [(0.0, 0.0)]
    for r in radii:
        nodes += [(r * np.cos(t), r * np.sin(t)) for t in theta]
    tris = [(0, nid(0, k), nid(0, k + 1)) for k in range(nb)]
    for j in range(len(radii) - 1):
        for k in range(nb):
            tris.append((nid(j, k), nid(j + 1, k), nid(j + 1, k + 1)))
            tris.append((nid(j, k), nid(j + 1, k + 1), nid(j, k + 1)))

    # rings as rows, sectors as columns with the fracture ray (k = 0) last
    grid = [[nid(j, k) for k in range(1, nb + 1)] for j in range(len(radii))]
    assert np.array_equal(m.grid, np.array(grid))
    assert np.array_equal(m.nodes, np.array(nodes))
    assert m.triangles.dtype == np.array(tris).dtype
    assert np.array_equal(m.triangles, np.array(tris, dtype=int))
    assert m.boundary_edges == {}
    for L, mesh in zip(lengths, family):
        frac = [0] + [nid(j, 0) for j in range(len(radii))
                      if radii[j] <= L * (1.0 + 1e-9)]
        pairs = [(frac[i], frac[i + 1]) for i in range(len(frac) - 1)]
        assert mesh.fracture_edges.dtype == np.array(pairs).dtype
        assert np.array_equal(mesh.fracture_edges, np.array(pairs, dtype=int))


def assert_fracture_is_the_column_loop(spec, lengths):
    """Every member of the family of `lengths` tags the well's row from the
    well outward: the longest exactly the columns inside [well, well + L],
    the others a prefix of it ending at their length; the well node sits
    at the well."""
    family = build_reservoir_mesh_family(spec, lengths)
    m = family[int(np.argmax(lengths))]
    xs, ys = np.unique(m.nodes[:, 0]), np.unique(m.nodes[:, 1])
    assert np.array_equal(m.grid, np.arange(m.num_nodes).reshape(len(ys), len(xs)))
    wx, wy = spec.well
    lo, hi = wx, wx + max(lengths)
    # reference: the columns of the well's row inside the fracture, one by one
    iy0 = int(np.flatnonzero(ys == wy)[0])
    pairs = [(iy0 * len(xs) + ix, iy0 * len(xs) + ix + 1) for ix in range(len(xs) - 1)
             if lo <= xs[ix] and xs[ix + 1] <= hi]
    assert m.fracture_edges.dtype == np.array(pairs).dtype
    assert np.array_equal(m.fracture_edges, np.array(pairs, dtype=int))
    for L, member in zip(lengths, family):
        k = len(member.fracture_edges)
        assert k > 0 and np.array_equal(member.fracture_edges, m.fracture_edges[:k])
        tip = m.nodes[member.fracture_edges[-1, 1], 0]
        assert abs(tip - (wx + L)) <= 1e-8 * max(1.0, max(lengths))
        assert tuple(m.nodes[member.well_node]) == (wx, wy)


@pytest.mark.parametrize("spec", [
    rect_spec(fracture_length=8.0, width=40.0, height=32.0, resolution=2.0,
              grading=1.3),
    # tip on the outer boundary
    rect_spec(fracture_length=20.0, width=40.0, height=32.0, resolution=2.0,
              grading=1.3),
    rect_spec(fracture_length=5.0, width=40.0, height=32.0, resolution=0.5,
              well=(-15.0, 12.0)),
])
def test_grid_fracture_edges_match_the_column_loop(spec):
    assert_fracture_is_the_column_loop(spec, [spec.fracture_length])


@st.composite
def rectangle_families(draw):
    """A rectangle with the well anywhere, graded 1 to 1e15, and 1-4
    lengths, the tip of one of them on the outer boundary or not.  Lengths
    of a uniform grid are whole numbers of power-of-two edges: the breaks
    of other lengths would set its one spacing to their smallest gap."""
    width = draw(st.sampled_from([20.0, 40.0]))
    height = draw(st.sampled_from([16.0, 24.0]))
    resolution = draw(st.sampled_from([1.0, 2.0, 4.0]))
    wy = draw(st.floats(-0.45, 0.45)) * height
    if draw(st.booleans()):
        grading = 1.0
        wx = width / 2 - resolution * draw(st.integers(1, int(0.7 * width / resolution)))
        edges = st.integers(1, round((width / 2 - wx) / resolution))
        lengths = [resolution * n for n in draw(st.lists(edges, min_size=1, max_size=4))]
    else:
        grading = 10.0 ** draw(st.floats(np.log10(1.3), 15.0))
        wx = draw(st.floats(-0.45, 0.3)) * width
        room = width / 2 - wx
        length = st.floats(resolution, room) | st.just(room)
        lengths = draw(st.lists(length, min_size=1, max_size=4))
    spec = DomainSpec(shape="rectangle", fracture_length=max(lengths), width=width,
                      height=height, aperture=1.0, well=(wx, wy),
                      resolution=resolution, grading=grading)
    return spec, lengths


@settings(max_examples=40, deadline=None)
@given(family=rectangle_families())
@example(family=(rect_spec(fracture_length=4.0, width=20.0, height=16.0, resolution=2.0,
                           grading=1e15, well=(-5.0, 1.0)), [4.0]))
@example(family=(rect_spec(fracture_length=15.0, width=20.0, height=16.0,
                           resolution=1.0, grading=1e12, well=(-5.0, 0.5)),
                 [3.0, 15.0, 7.5, 3.0 * (1.0 + 1e-12)]))
def test_drawn_fracture_edges_match_the_column_loop(family):
    assert_fracture_is_the_column_loop(*family)


@pytest.mark.parametrize("spec", [
    rect_spec(fracture_length=4.0, width=20.0, height=16.0, resolution=2.0,
              grading=1e15),
    rect_spec(fracture_length=4.0, width=20.0, height=16.0, resolution=2.0,
              grading=1e15, well=(-5.0, 1.0)),
    DomainSpec(shape="disk", fracture_length=4.0, radius=10.0, resolution=2.0,
               grading=1e15),
], ids=["rectangle", "rectangle-offset-well", "disk"])
def test_steep_grading_tags_exactly_the_fracture(spec):
    # the first graded interval beside the fracture is ~1e-14 long, inside
    # the old midpoint and radius tolerances; tagging by grid index keeps it out
    m = build_reservoir_mesh(spec)
    path = m.nodes[np.append(m.fracture_edges[:, 0], m.fracture_edges[-1, 1])]
    wx, wy = spec.well
    assert np.array_equal(path[:, 1], np.full(len(path), wy))
    assert path[0, 0] == wx and path[-1, 0] == wx + spec.fracture_length
    assert np.all(np.diff(path[:, 0]) > 0)


@pytest.mark.parametrize("ratio", [1e300, 2 ** 63, 1.7e308])
def test_graded_sizes_of_a_huge_ratio_do_not_overflow(ratio):
    from fracflow.meshing import _graded_sizes
    sizes = _graded_sizes(10.0, 0.5, ratio)
    assert np.all(np.isfinite(sizes)) and sizes.sum() == pytest.approx(10.0)


GRID_MESHES = {
    "rectangle": lambda: build_reservoir_mesh(rect_spec(
        fracture_length=5.0, width=40.0, height=32.0, resolution=2.0,
        well=(-15.0, 12.0), grading=1.3)),
    "slab": lambda: build_fracture_slab_mesh(1.0, 0.05, 7, 4),
    **{f"disk{i}": lambda spec=spec: build_reservoir_mesh(spec)
       for i, spec in enumerate(DISK_SPECS)},
}


@pytest.mark.parametrize("kind", sorted(GRID_MESHES))
def test_grid_holds_every_node_next_to_its_neighbors(kind):
    m = GRID_MESHES[kind]()
    disk = kind.startswith("disk")  # the hub, its well, is off the grid
    others = np.setdiff1d(np.arange(m.num_nodes), [m.well_node] if disk else [])
    assert np.array_equal(np.sort(m.grid.ravel()), others)
    ny, nx = m.grid.shape
    row = np.full(m.num_nodes, -1)
    col = np.full(m.num_nodes, -1)
    row[m.grid], col[m.grid] = np.indices((ny, nx))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        u, v = m.triangles[:, a], m.triangles[:, b]
        on_grid = (row[u] >= 0) & (row[v] >= 0)
        u, v = u[on_grid], v[on_grid]
        assert np.all(np.abs(row[u] - row[v]) <= 1)
        dc = np.abs(col[u] - col[v])
        # a disk's sector columns wrap around
        assert np.all((np.minimum(dc, nx - dc) if disk else dc) <= 1)


# the expressions the orientation check and the assembly geometry used
# before the geometry had one home
def reference_areas(nodes, triangles):
    p = nodes[triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


def reference_basis(nodes, triangles):
    p = nodes[triangles]
    area = reference_areas(nodes, triangles)
    grads = np.empty((len(area), 3, 2))
    for i in range(3):
        a = p[:, (i + 1) % 3]
        b = p[:, (i + 2) % 3]
        grads[:, i, 0] = (a[:, 1] - b[:, 1]) / (2.0 * area)
        grads[:, i, 1] = (b[:, 0] - a[:, 0]) / (2.0 * area)
    return grads


GEOMETRY_MESHES = {
    "rectangle": lambda: build_reservoir_mesh(rect_spec(
        width=30.0, height=20.0, fracture_length=7.0, grading=1.3)),
    "disk": lambda: build_reservoir_mesh(DomainSpec(
        shape="disk", radius=10.0, fracture_length=4.0, resolution=1.0)),
    "slab": lambda: build_fracture_slab_mesh(1.0, 0.05, 32, 8),
}


class TestGeometry:
    @pytest.mark.parametrize("kind", sorted(GEOMETRY_MESHES))
    def test_area_and_basis_are_the_reference_formulas(self, kind):
        m = GEOMETRY_MESHES[kind]()
        assert np.array_equal(m.area, reference_areas(m.nodes, m.triangles))
        grads = basis_gradients(m)
        assert grads.shape == (m.num_triangles, 3, 2)
        assert np.array_equal(grads, reference_basis(m.nodes, m.triangles))

    def test_computed_once_per_mesh(self):
        for make in GEOMETRY_MESHES.values():
            m = make()
            assert m.area is m.area and not m.area.flags.writeable
            # a copy with other fracture edges shares the node set's areas
            other = m.with_fracture_edges(m.fracture_edges[:1])
            assert other.area is m.area
            # and neither caches anything else
            assert not hasattr(m, "basis")
            cached = {f.name for f in fields(Mesh)} | {"area"}
            assert set(vars(other)) == set(vars(m)) == cached

    def test_one_geometry_pass_per_node_set(self, monkeypatch):
        passes = []
        compute = Mesh.area.func

        def counting(m):
            passes.append(1)
            return compute(m)

        prop = cached_property(counting)
        prop.__set_name__(Mesh, "area")
        monkeypatch.setattr(Mesh, "area", prop)
        GEOMETRY_MESHES["rectangle"]().area
        assert len(passes) == 1
        spec = DomainSpec(shape="disk", radius=10.0, fracture_length=4.0,
                          resolution=1.0)
        for member in build_reservoir_mesh_family(spec, [2.0, 3.0, 4.0]):
            member.area
        assert len(passes) == 2

    @pytest.mark.parametrize("tris", [[[0, 2, 1]], [[0, 1, 2], [0, 1, 3]]],
                             ids=["flipped", "degenerate"])
    def test_basis_of_a_misoriented_mesh_raises(self, tris):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        m = Mesh(nodes, np.array(tris), np.empty((0, 2), dtype=int), 0, {}, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="non-positively-oriented"):
                basis_gradients(m)
        assert m.area.min() <= 0  # the areas themselves stay readable


@pytest.mark.parametrize("spec", [
    rect_spec(fracture_length=1.5),                             # past the edge
    rect_spec(width=20.0, height=16.0, fracture_length=4.0, well=(-10.0, 0.0)),
    rect_spec(width=20.0, height=16.0, fracture_length=4.0, well=(0.0, 8.0)),
    rect_spec(width=20.0, height=16.0, fracture_length=0.4),    # no edge at res 1
    DomainSpec(shape="disk", radius=5.0, fracture_length=1.0, well=(1.0, 0.0)),
    DomainSpec(shape="disk", radius=5.0, fracture_length=6.0),
], ids=["too-long", "well-on-edge", "well-on-top", "too-coarse",
        "disk-offcenter", "disk-too-long"])
def test_fracture_rules_are_the_mesher_rules(spec):
    with pytest.raises(GeometryError) as checked:
        spec.check_fracture(spec.fracture_length)
    with pytest.raises(GeometryError) as built:
        build_reservoir_mesh(spec)
    assert str(built.value) == str(checked.value)


@pytest.mark.parametrize("kw, match", [
    (dict(fracture_length=0.0), "fracture_length"),
    (dict(fracture_length=-1.0), "fracture_length"),
    (dict(resolution=0.0), "resolution"),
    (dict(grading=0.9), "grading"),
    (dict(aperture=-1e-3), "aperture"),
    (dict(width=0.0), "width and height"),
    (dict(height=-2.0), "width and height"),
    (dict(shape="disk", radius=0.0), "radius"),
], ids=["length-zero", "length-negative", "resolution-zero", "grading-below-one",
        "aperture-negative", "width-zero", "height-negative", "radius-zero"])
def test_domain_spec_rejects_out_of_range_values(kw, match):
    with pytest.raises(GeometryError, match=match):
        rect_spec(**kw)
