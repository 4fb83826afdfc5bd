"""Numerical checks of the fracture model-reduction error bounds.

For a thin slab [0, L] x [-h/2, h/2] with prescribed lateral inflow
q+(x), q-(x), the full 2-D flow is solved next to its 1-D reduction (the
inflow moved into the volumetric source) and the two are compared in the
norms the error bounds are stated in:

* isotropic flow: the squared L^{3/2} seminorms of (W_x - Wbar_x) and W_y
  are bounded by an (unknown) constant times the squared L^3 norms of the
  data, so the report tracks the empirical ratio instead of a pass/fail;
* anisotropic flow (quadratic drag along the fracture only, Darcy across
  it at the fracture's linear mobility k = 1/alpha_f): the weighted
  difference functional is bounded by h/(2k) * int (q+)^2 + (q-)^2 dx with
  explicit constants, so the inequality itself is checked.

Each report meshes its slab once, solves it reduced and full, and takes
every norm and bound term from one (t, 2) P1 gradient array per field.
Surface data enters the volumetric L^3 norm by constant extension across
the thickness, contributing the factor h^(1/3) (`Q_NORM_CONVENTION`, the
header line of every reduction table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import _at_points, basis_gradients, triangle_gradients
from .errors import GeometryError
from .kernels import FlowParams, indicator_H
from .meshing import Mesh, build_fracture_slab_mesh
from .solvers import solve_slab

__all__ = [
    "ReductionReport",
    "lq_seminorm",
    "isotropic_report",
    "anisotropic_report",
    "divergence_study",
    "linear_inflow",
]

Q_NORM_CONVENTION = "surface data extended constantly across thickness (factor h^(1/3)) for L3 norms"


@dataclass(frozen=True)
class ReductionReport:
    """One full-vs-reduced comparison.

    lhs/rhs are the two sides of the flavor's error bound (for the
    isotropic flavor rhs is the data term with unit constant, and
    empirical_C = lhs/rhs estimates the unknown constant).  Gradient
    norms are L^{3/2} seminorms for the isotropic flavor and L^2 for the
    anisotropic one.
    """

    flavor: str
    h: float
    lhs: float
    rhs: float
    norm_Wx_full: float
    norm_Wx_reduced: float
    norm_Wy: float
    empirical_C: float = float("nan")
    q0: float = float("nan")

    @property
    def bound_holds(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-12)


def linear_inflow(q0: float, L: float):
    """Default lateral inflow profile q(x) = q0 * (1 - x/L).

    Smooth, nonzero, without special symmetry, vanishing at the fracture
    tip the way physical inflow does.
    """
    def q(x):
        return q0 * (1.0 - x / L)
    return q


def lq_seminorm(W, m: Mesh, component: str, q: float = 1.5) -> float:
    """(sum_T area_T |(grad W)_component|^q)^(1/q) with P1 gradients,
    component "x" (along the fracture) or "y" (across it)."""
    if not (1.0 <= q < math.inf):
        raise ValueError(f"q must be in [1, inf), got {q}")
    if component not in ("x", "y"):
        raise ValueError(f"component must be 'x' or 'y', got {component!r}")
    return _lq(m.area, triangle_gradients(m, W)[:, "xy".index(component)], q)


def _lq(area: np.ndarray, g: np.ndarray, q: float) -> float:
    """(sum_T area_T |g_T|^q)^(1/q) of one gradient component per triangle."""
    return float(np.sum(area * np.abs(g) ** q) ** (1.0 / q))


def _integrate(fn, a: float, b: float) -> float:
    """Composite Simpson rule on a fixed grid of 2048 intervals
    (deterministic); fn is evaluated once, on the array of grid points."""
    n = 2048
    x = np.linspace(a, b, n + 1)
    y = _at_points(fn, x)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * n) * np.sum(w * y))


def _compare(L: float, h: float, resolution: float, p: FlowParams, flavor: str,
             q_plus, q_minus, q_over_v: float):
    """Mesh the slab [0, L] x [-h/2, h/2], solve it reduced and then full (to
    1e-10), and return the triangle areas and both fields' (t, 2) gradients."""
    # math.ceil has no int for inf; the mesher refuses 1e300 cells alike
    m = build_fracture_slab_mesh(L, h, max(2, math.ceil(min(L / resolution, 1e300))),
                                 max(8, math.ceil(min(h / resolution, 1e300))))
    red, _ = solve_slab(m, p, flavor, q_plus, q_minus, q_over_v, reduced=True)
    full, _ = solve_slab(m, p, flavor, q_plus, q_minus, q_over_v, tol=1e-10)
    basis = basis_gradients(m)
    return m.area, triangle_gradients(m, full, basis), triangle_gradients(m, red, basis)


def isotropic_report(L: float, h: float, resolution: float, p: FlowParams,
                     q_plus, q_minus, q_over_v: float = 0.0,
                     q0: float = float("nan")) -> ReductionReport:
    """Full vs reduced isotropic slab flow, compared in L^{3/2} seminorms.

    lhs = |W_x - Wbar_x|^2 + |W_y|^2 (squared L^{3/2} seminorms); the data
    term rhs = |q+|^2 + |q-|^2 (squared L^3 over the slab) carries the
    unknown stability constant, estimated as empirical_C = lhs/rhs.
    """
    area, gf, gr = _compare(L, h, resolution, p, "isotropic", q_plus, q_minus, q_over_v)
    norm_wy = _lq(area, gf[:, 1], 1.5)
    lhs = _lq(area, gf[:, 0] - gr[:, 0], 1.5) ** 2 + norm_wy ** 2
    data = ((h * _integrate(lambda x: abs(q_plus(x)) ** 3, 0.0, L)) ** (2.0 / 3.0)
            + (h * _integrate(lambda x: abs(q_minus(x)) ** 3, 0.0, L)) ** (2.0 / 3.0))
    return ReductionReport(
        flavor="isotropic", h=h, lhs=lhs, rhs=data,
        norm_Wx_full=_lq(area, gf[:, 0], 1.5),
        norm_Wx_reduced=_lq(area, gr[:, 0], 1.5), norm_Wy=norm_wy,
        empirical_C=lhs / data if data > 0 else 0.0, q0=q0)


def anisotropic_report(L: float, h: float, resolution: float, p: FlowParams,
                       q_plus, q_minus, q_over_v: float = 0.0,
                       q0: float = float("nan")) -> ReductionReport:
    """Full vs reduced anisotropic slab flow against the explicit bound.

    lhs integrates, per triangle, the square-root difference term on the
    large-gradient set (indicator on), the quadratic difference term off
    it, and the transverse energy (k/2) W_y^2.  rhs = h/(2k) int (q+)^2 +
    (q-)^2 dx.  k is the transverse mobility, the fracture's linear
    mobility 1/alpha_f, which is the value the bound is calibrated to.
    """
    if p.beta <= 0:
        raise ValueError("anisotropic bound requires beta > 0")
    area, gf, gr = _compare(L, h, resolution, p, "anisotropic", q_plus, q_minus, q_over_v)
    k = 1.0 / p.alpha_f
    wx, wy, wxr = gf[:, 0], gf[:, 1], gr[:, 0]
    H = indicator_H(wx, wxr, p)
    root_diff = (np.sqrt(np.abs(wx)) * np.sign(wx)
                 - np.sqrt(np.abs(wxr)) * np.sign(wxr))
    integrand = ((k / 2.0) * (p.alpha_f ** 2 / p.beta) * root_diff ** 2 * H
                 + (k / 6.0) * (wx - wxr) ** 2 * (1 - H)
                 + (k / 2.0) * wy ** 2)
    rhs = h / (2.0 * k) * _integrate(lambda x: q_plus(x) ** 2 + q_minus(x) ** 2, 0.0, L)
    return ReductionReport(
        flavor="anisotropic", h=h, lhs=float(np.sum(area * integrand)), rhs=rhs,
        norm_Wx_full=_lq(area, wx, 2.0), norm_Wx_reduced=_lq(area, wxr, 2.0),
        norm_Wy=_lq(area, wy, 2.0), q0=q0)


def divergence_study(L: float, resolution: float, p: FlowParams,
                     q_plus, q_minus, h_list, flavor: str = "anisotropic",
                     q_over_v: float = 0.0,
                     q0: float = float("nan")) -> list[ReductionReport]:
    """Reports for a decreasing sequence of apertures with fixed data.

    As h shrinks the reduced source (q+ + q-)/h grows, so the individual
    gradient norms blow up while the difference metric of the anisotropic
    bound stays controlled; the emitted series lets callers check both.
    """
    hs = [float(h) for h in h_list]
    if len(hs) == 0:
        raise GeometryError("h_list must be nonempty")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise GeometryError("h_list must be strictly decreasing")
    if flavor not in ("isotropic", "anisotropic"):
        raise ValueError(f"unknown flavor {flavor!r}")
    report = isotropic_report if flavor == "isotropic" else anisotropic_report
    return [report(L, h, resolution, p, q_plus, q_minus, q_over_v, q0)
            for h in hs]
