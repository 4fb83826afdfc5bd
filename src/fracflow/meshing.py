"""Conforming triangular meshes for fractured reservoirs and thin slabs.

Two generators:

* :func:`build_reservoir_mesh` meshes a rectangle or a disk with a
  horizontal fracture segment embedded on the line y = 0 (y = well.y) and a
  point well at the fracture's left tip.  The node set resolves the
  fracture polyline exactly, and spacings can grow geometrically away
  from it.
* :func:`build_fracture_slab_mesh` meshes the thin rectangle
  [0, L] x [-h/2, h/2] used when comparing the full fracture flow
  against its 1-D reduction, with the four boundary groups tagged.

Meshes are immutable once built.  Every mesh is a tensor grid (the disk a
polar one, of rings by sectors) and records its node ids as a grid, from
which the bulk condensation reads a fill-reducing order of the nodes.
A mesh caches its triangle areas, computed once per node set; the P1
basis gradients are computed where they are used
(`fracflow.assembly.basis_gradients`).  The builders reject misoriented
triangles and the fractures `DomainSpec.check_fracture` rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import GeometryError

__all__ = [
    "DomainSpec",
    "Mesh",
    "build_reservoir_mesh",
    "build_reservoir_mesh_family",
    "build_fracture_slab_mesh",
]

# boundary_edges tags
TAG_OUTER = "outer"
TAG_FRAC_PLUS = "frac_plus"
TAG_FRAC_MINUS = "frac_minus"
TAG_WELL = "well"
TAG_FRAC_OUT = "frac_out"


@dataclass(frozen=True)
class DomainSpec:
    """Reservoir geometry description.

    shape: "rectangle" (width x height, centered at the origin) or
        "disk" (given radius, centered at the origin).
    fracture_length: length of the fracture segment, which runs from the
        well in the +x direction along y = well[1].
    aperture: fracture thickness h; enters the reduced model as a
        coefficient and slab meshes as the physical thickness.
    well: coordinates of the point well, which is also the fracture's
        left tip.  Defaults to the domain center.
    resolution: target element size near the fracture.
    grading: geometric growth ratio of element size away from the
        fracture (1.0 = uniform).
    """

    shape: str
    fracture_length: float
    width: float = 0.0
    height: float = 0.0
    radius: float = 0.0
    aperture: float = 0.1
    well: tuple[float, float] = (0.0, 0.0)
    resolution: float = 1.0
    grading: float = 1.3

    def __post_init__(self):
        if self.shape not in ("rectangle", "disk"):
            raise GeometryError(f"unknown shape {self.shape!r}")
        for name in ("fracture_length", "width", "height", "radius",
                     "aperture", "well", "resolution", "grading"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise GeometryError(f"{name} must be finite")
        if self.fracture_length <= 0:
            raise GeometryError("fracture_length must be > 0")
        if self.resolution <= 0:
            raise GeometryError("resolution must be > 0")
        if self.grading < 1.0:
            raise GeometryError("grading ratio must be >= 1.0")
        if self.aperture < 0:
            raise GeometryError("aperture must be >= 0")
        if self.shape == "rectangle" and (self.width <= 0 or self.height <= 0):
            raise GeometryError("rectangle requires positive width and height")
        if self.shape == "disk" and self.radius <= 0:
            raise GeometryError("disk requires positive radius")

    def check_fracture(self, L: float) -> None:
        """GeometryError unless a fracture of length L, of at least one
        edge at the resolution, fits the domain: in a rectangle the well and
        [well, well + L]; in a disk, well at the center and L <= radius."""
        if L <= 0:
            raise GeometryError("fracture lengths must be > 0")
        if L / self.resolution <= 0.5:  # no edge at round(L / resolution)
            raise GeometryError(
                f"resolution {self.resolution} too coarse to resolve fracture length {L}")
        if self.shape == "rectangle":
            w2, h2 = self.width / 2.0, self.height / 2.0
            wx, wy = self.well
            tol = 1e-12 * max(self.width, self.height)
            if not (-w2 < wx and wx + L <= w2 + tol and -h2 < wy < h2):
                raise GeometryError(
                    f"fracture [{wx}, {wx + L}] x {{{wy}}} does not fit inside "
                    f"[{-w2}, {w2}] x [{-h2}, {h2}]")
        elif self.well != (0.0, 0.0):
            raise GeometryError("disk meshes require the well at the center (0, 0)")
        elif L > self.radius:
            raise GeometryError(f"fracture length {L} exceeds disk radius {self.radius}")


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming triangulation with tagged fracture and boundary edges.

    nodes: (n, 2) coordinates.
    triangles: (m, 3) node indices, positively oriented.
    fracture_edges: (k, 2) node pairs along the embedded fracture line,
        ordered from the well outward (empty for slab meshes, where the
        whole domain is the fracture).
    well_node: node index pinned by the well condition.
    boundary_edges: tag -> (e, 2) node pairs; tags "outer", "frac_plus",
        "frac_minus", "well", "frac_out".
    aperture: fracture thickness carried along for assembly.
    grid: (ny, nx) node ids, each node's neighbors on the adjacent rows
        and columns; a disk's rows are its rings and its columns its
        sectors, which wrap around, the fracture ray last, and its hub
        (the well) is off the grid.  Empty if built without one.
    area: (m,) signed triangle areas, read-only, computed once per node
        set on first use and shared by its `with_fracture_edges` copies; a
        `dataclasses.replace` copy has its own.  The mesh keeps no other
        per-triangle array.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    fracture_edges: np.ndarray
    well_node: int
    boundary_edges: dict = field(default_factory=dict)
    aperture: float = 0.0
    grid: np.ndarray = field(default_factory=lambda: np.empty((0, 0), dtype=int))

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def area(self) -> np.ndarray:
        p = self.nodes[self.triangles]  # (m, 3, 2)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        area = 0.5 * (d1[:, 0] * d2[:, 1] - d2[:, 0] * d1[:, 1])
        area.flags.writeable = False  # shared by every reader of the mesh
        return area

    def with_fracture_edges(self, fracture_edges: np.ndarray) -> "Mesh":
        """Same nodes and triangles, different fracture tagging.

        Used by sweeps so that every fracture length shares one node set
        and the discrete point-well behavior cancels in comparisons, and
        with no edges for the unfractured baseline on the same node set.
        """
        copy = replace(self, fracture_edges=np.asarray(
            fracture_edges, dtype=int).reshape(-1, 2))
        vars(copy)["area"] = self.area
        return copy


def _check_nodes(count: float) -> None:
    """MemoryError before any allocation for more nodes (or inf, or NaN)
    than an array of their coordinates can hold; NumPy raises ValueError."""
    if not count <= np.iinfo(np.intp).max // 16:
        raise MemoryError(f"{count:.3g} nodes are more than one NumPy array can hold")


def _graded_sizes(span: float, first: float, ratio: float) -> np.ndarray:
    """Interval sizes filling `span`, starting near `first`, growing by `ratio`."""
    if span <= 1e-9 * first:  # nothing to fill (guards rounding slivers)
        return np.empty(0)
    if first >= span:
        return np.array([span])
    if ratio <= 1.0 + 1e-12:
        _check_nodes(span / first)
        n = max(1, int(round(span / first)))
        return np.full(n, span / n)
    # a float64 power past the largest float is inf and ends the loop (a
    # Python float raises; 2**63 fits no C long); overflowed sizes are NaN
    ratio = np.float64(ratio)
    n = 1
    with np.errstate(all="ignore"):
        while first * (ratio ** n - 1.0) / (ratio - 1.0) < span:
            n += 1
        sizes = first * ratio ** np.arange(n)
        return sizes * (span / sizes.sum())


def _breaks_from(start: float, sizes: np.ndarray, direction: float) -> np.ndarray:
    return start + direction * np.cumsum(sizes)


def _grid_mesh(xs, ys, frac_x_lo=None, frac_x_hi=None, frac_y=None,
               tags="reservoir"):
    """Tensor-product triangulation of sorted x/y lines.

    Cells split along the lower-left to upper-right diagonal.  Given the
    fracture's lines, exact members of xs and ys, the edges on y = frac_y
    between them are collected in order, by index, however short the
    graded intervals beside them.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = len(xs), len(ys)
    xx, yy = np.meshgrid(xs, ys)  # shape (ny, nx)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    def nid(iy, ix):
        return iy * nx + ix

    # lower-left node of every cell, row by row; two triangles per cell
    n00 = (nx * np.arange(ny - 1)[:, None] + np.arange(nx - 1)).ravel()
    n10, n01, n11 = n00 + 1, n00 + nx, n00 + nx + 1
    triangles = np.stack([np.column_stack([n00, n10, n11]),
                          np.column_stack([n00, n11, n01])], axis=1).reshape(-1, 3)

    fracture_edges = np.empty((0, 2), dtype=int)
    if frac_y is not None:
        iy0 = np.searchsorted(ys, frac_y)
        ix = np.arange(*np.searchsorted(xs, [frac_x_lo, frac_x_hi]))
        fracture_edges = np.column_stack([nid(iy0, ix), nid(iy0, ix + 1)])

    boundary = {}
    bottom = np.column_stack([np.arange(nx - 1), np.arange(1, nx)])
    top = bottom + nid(ny - 1, 0)
    left = np.column_stack([nid(np.arange(ny - 1), 0), nid(np.arange(1, ny), 0)])
    right = left + (nx - 1)
    if tags == "slab":
        boundary[TAG_FRAC_MINUS] = bottom
        boundary[TAG_FRAC_PLUS] = top
        boundary[TAG_WELL] = left
        boundary[TAG_FRAC_OUT] = right
    else:
        boundary[TAG_OUTER] = np.concatenate([bottom, top, left, right])

    return nodes, triangles, fracture_edges, boundary


def build_reservoir_mesh(spec: DomainSpec) -> Mesh:
    """Mesh the reservoir with the fracture polyline embedded on y = well.y.

    The fracture is split into round(L/resolution) equal edges; spacings
    away from the fracture line and from the well grow by spec.grading.
    For disks the outer boundary is the inscribed polygon with
    ceil(2*pi*radius/resolution) vertices and the well must sit at the
    center.  It is the family of the one length spec.fracture_length.
    """
    return build_reservoir_mesh_family(spec, [spec.fracture_length])[0]


def build_reservoir_mesh_family(spec: DomainSpec, lengths) -> list[Mesh]:
    """One mesh per fracture length, all sharing a single node set.

    The fracture polyline resolves every requested length, and each
    returned mesh simply tags the sub-polyline [well, well + L].  Because
    the nodes (and hence the discrete point-well behavior) are identical,
    capacities computed across the family can be compared without
    mesh-induced noise.
    """
    Ls = [float(L) for L in lengths]
    if not Ls:
        raise GeometryError("lengths must be nonempty")
    offsets = {0.0}
    for L in Ls:
        spec.check_fracture(L)
        _check_nodes(L / spec.resolution)
        nf = int(round(L / spec.resolution))
        offsets.update((L / nf) * np.arange(nf + 1))
    # merge offsets that differ only by rounding so no sliver intervals
    # survive in the shared polyline
    raw = np.array(sorted(offsets))
    merge_tol = 1e-9 * max(1.0, raw[-1])
    kept = [raw[0]]
    for v in raw[1:]:
        if v - kept[-1] > merge_tol:
            kept.append(v)
    offs = np.array(kept)
    offs[-1] = max(Ls)

    base = replace(spec, fracture_length=max(Ls))
    full = _rectangle_mesh(base, offs) if spec.shape == "rectangle" else _disk_mesh(base, offs)

    wx = spec.well[0]
    mids = full.nodes[full.fracture_edges].mean(axis=1)[:, 0]
    out = []
    for L in Ls:
        tol = 1e-9 * max(1.0, L)
        sel = full.fracture_edges[mids <= wx + L + tol]
        out.append(full.with_fracture_edges(sel))
    return out


def _rectangle_mesh(spec: DomainSpec, offsets: np.ndarray) -> Mesh:
    w2, h2 = spec.width / 2.0, spec.height / 2.0
    wx, wy = spec.well
    L = float(offsets[-1])
    size = float(np.diff(offsets).min())
    frac_breaks = wx + offsets
    left = _breaks_from(wx, _graded_sizes(wx + w2, size, spec.grading), -1.0)
    right = _breaks_from(wx + L, _graded_sizes(w2 - (wx + L), size, spec.grading), +1.0)
    xs = np.unique(np.concatenate([left, frac_breaks, right]))
    up = _breaks_from(wy, _graded_sizes(h2 - wy, size, spec.grading), +1.0)
    down = _breaks_from(wy, _graded_sizes(wy + h2, size, spec.grading), -1.0)
    ys = np.unique(np.concatenate([down, [wy], up]))

    nodes, triangles, frac_edges, boundary = _grid_mesh(
        xs, ys, frac_x_lo=wx, frac_x_hi=wx + L, frac_y=wy)
    well_node = int(np.argmin(np.hypot(nodes[:, 0] - wx, nodes[:, 1] - wy)))
    return _oriented(Mesh(nodes, triangles, frac_edges, well_node, boundary,
                          spec.aperture, np.arange(len(nodes)).reshape(len(ys), len(xs))))


def _disk_mesh(spec: DomainSpec, offsets: np.ndarray) -> Mesh:
    R = spec.radius
    L = float(offsets[-1])
    size = float(np.diff(offsets).min())
    frac_radii = offsets[1:]
    outer = _breaks_from(L, _graded_sizes(R - L, size, spec.grading), +1.0)
    radii = np.unique(np.concatenate([frac_radii, outer]))
    _check_nodes(len(radii) * 2.0 * np.pi * R / spec.resolution)
    nb = int(np.ceil(2.0 * np.pi * R / spec.resolution))
    theta = 2.0 * np.pi * np.arange(nb) / nb

    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    nodes = np.vstack([np.zeros((1, 2)), (radii[:, None, None] * ring).reshape(-1, 2)])

    # node 1 + j * nb + k is the k-th node of ring j; k + 1 wraps around
    k = np.arange(nb)
    a = 1 + nb * np.arange(len(radii))[:, None] + k
    b = a - k + (k + 1) % nb
    # a fan around the center, then two triangles per ring cell
    fan = np.column_stack([np.zeros(nb, dtype=int), a[0], b[0]])
    cells = np.stack([np.stack([a[:-1], a[1:], b[1:]], axis=-1),
                      np.stack([a[:-1], b[1:], b[:-1]], axis=-1)], axis=2)
    triangles = np.concatenate([fan, cells.reshape(-1, 3)])

    # fracture runs along theta = 0, where sin is exactly zero, to radius L
    n_frac_rings = int(np.searchsorted(radii, L, side="right"))
    frac_nodes = np.concatenate([[0], a[:n_frac_rings, 0]])
    frac_edges = np.column_stack([frac_nodes[:-1], frac_nodes[1:]])
    boundary = {TAG_OUTER: np.column_stack([a[-1], b[-1]])}
    return _oriented(Mesh(nodes, triangles, frac_edges, 0, boundary, spec.aperture,
                          np.roll(a, -1, axis=1)))


def build_fracture_slab_mesh(L: float, h: float, nx: int, ny: int) -> Mesh:
    """Structured mesh of the thin fracture slab [0, L] x [-h/2, h/2].

    nx x ny cells, each split into two triangles.  Boundary tags:
    frac_plus (y = h/2), frac_minus (y = -h/2), well (x = 0),
    frac_out (x = L).
    """
    if L <= 0 or h <= 0:
        raise GeometryError("slab requires L > 0 and h > 0")
    if nx < 2 or ny < 2:
        raise GeometryError("slab requires nx >= 2 and ny >= 2")
    _check_nodes(float(nx + 1) * (ny + 1))
    xs = np.linspace(0.0, L, nx + 1)
    ys = np.linspace(-h / 2.0, h / 2.0, ny + 1)
    nodes, triangles, _, boundary = _grid_mesh(xs, ys, tags="slab")
    left = np.where(nodes[:, 0] == 0.0)[0]
    well_node = int(left[np.argmin(np.abs(nodes[left, 1]))])
    return _oriented(Mesh(nodes, triangles, np.empty((0, 2), dtype=int), well_node,
                          boundary, h, np.arange(len(nodes)).reshape(ny + 1, nx + 1)))


def _oriented(m: Mesh) -> Mesh:
    """m, or GeometryError if a triangle of m is not positively oriented."""
    if not np.all(m.area > 0):
        raise GeometryError("mesh contains non-positively-oriented triangles")
    return m
