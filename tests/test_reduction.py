import numpy as np
import pytest

from fracflow import (
    FlowParams,
    GeometryError,
    Mesh,
    ScalarField,
    anisotropic_report,
    divergence_study,
    isotropic_report,
    linear_inflow,
    lq_seminorm,
    write_reduction_csv,
)
from fracflow.reduction import _integrate


def unit_square_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(nodes, tris, np.empty((0, 2), dtype=int), 0, {}, 0.0)


class TestSeminorm:
    def test_constant_field_is_zero(self):
        m = unit_square_mesh()
        W = ScalarField(np.full(4, 2.0), m)
        for comp in ("x", "y"):
            assert lq_seminorm(W, m, comp, 1.5) == 0.0

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_unit_gradient(self, q):
        m = unit_square_mesh()
        W = ScalarField(m.nodes[:, 0].copy(), m)  # W = x
        assert lq_seminorm(W, m, "x", q) == pytest.approx(1.0, rel=1e-13)
        assert lq_seminorm(W, m, "y", q) == 0.0

    def test_plane_full_norm(self):
        # the L2 norm of the full gradient of a plane, from its components
        m = unit_square_mesh()
        W = ScalarField(m.nodes[:, 0] + 2.0 * m.nodes[:, 1], m)
        assert lq_seminorm(W, m, "x", 2.0) == pytest.approx(1.0, rel=1e-13)
        assert lq_seminorm(W, m, "y", 2.0) == pytest.approx(2.0, rel=1e-13)

    def test_invalid_arguments(self):
        m = unit_square_mesh()
        W = ScalarField(np.zeros(4), m)
        with pytest.raises(ValueError):
            lq_seminorm(W, m, "x", 0.5)
        with pytest.raises(ValueError):
            lq_seminorm(W, m, "z", 2.0)
        # the full-gradient norm is not a component
        with pytest.raises(ValueError, match="'x' or 'y'"):
            lq_seminorm(W, m, "full", 2.0)
        with pytest.raises(TypeError):
            lq_seminorm(W, m)


class TestIntegrate:
    @pytest.mark.parametrize("fn", [lambda x: abs(2.0 * (1.0 - x)) ** 3,
                                    lambda x: np.sin(x) + 1.0,
                                    lambda x: 0.25])
    def test_matches_pointwise_simpson(self, fn):
        n = 2048
        x = np.linspace(0.0, 1.5, n + 1)
        y = np.array([float(fn(xi)) for xi in x])
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        ref = 1.5 / (3.0 * n) * np.sum(w * y)
        assert _integrate(fn, 0.0, 1.5) == pytest.approx(ref, rel=1e-12)


class TestIsotropic:
    def test_zero_data_zero_error(self):
        p = FlowParams(alpha_f=1.0, beta=1.0)
        zero = lambda x: 0.0
        r = isotropic_report(1.0, 0.1, 1.0 / 16, p, zero, zero)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.empirical_C == 0.0

    def test_constant_stable_under_data_scaling(self):
        # mild quadratic-drag regime: the stability constant drifts slowly
        p = FlowParams(alpha_f=1.0, beta=0.1)
        cs = []
        for s in (1.0, 2.0, 4.0):
            q = linear_inflow(0.1 * s, 1.0)
            cs.append(isotropic_report(1.0, 0.1, 1.0 / 32, p, q, q).empirical_C)
        assert max(cs) <= 4.0 * min(cs)

    def test_constant_stable_under_refinement(self):
        p = FlowParams(alpha_f=1.0, beta=0.1)
        q = linear_inflow(0.1, 1.0)
        c1 = isotropic_report(1.0, 0.1, 1.0 / 32, p, q, q).empirical_C
        c2 = isotropic_report(1.0, 0.1, 1.0 / 64, p, q, q).empirical_C
        assert max(c1, c2) <= 2.0 * min(c1, c2)

    def test_data_term_uses_thickness_extension(self, tmp_path):
        # constant q: ||q||_L3(slab)^2 = (h L q^3)^(2/3), doubled h scales
        # the data term by 2^(2/3); the table states the convention once
        p = FlowParams(alpha_f=1.0, beta=0.1)
        q = lambda x: 0.25
        r1 = isotropic_report(1.0, 0.1, 1.0 / 16, p, q, q)
        r2 = isotropic_report(1.0, 0.2, 1.0 / 16, p, q, q)
        assert r2.rhs == pytest.approx(r1.rhs * 2.0 ** (2.0 / 3.0), rel=1e-9)
        write_reduction_csv([r1, r2], tmp_path / "r.csv")
        comments = [ln for ln in (tmp_path / "r.csv").read_text().splitlines()
                    if ln.startswith("#")]
        assert len(comments) == 1 and "h^(1/3)" in comments[0]


class TestAnisotropic:
    def setup_method(self):
        self.p = FlowParams(alpha_f=1.0, beta=1.0)
        self.q = linear_inflow(2.0, 1.0)

    def test_zero_data(self):
        zero = lambda x: 0.0
        r = anisotropic_report(1.0, 0.1, 1.0 / 16, self.p, zero, zero)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.bound_holds

    def test_rhs_linear_in_thickness(self):
        r1 = anisotropic_report(1.0, 0.2, 1.0 / 16, self.p, self.q, self.q)
        r2 = anisotropic_report(1.0, 0.1, 1.0 / 16, self.p, self.q, self.q)
        assert r2.rhs == pytest.approx(r1.rhs / 2.0, rel=1e-12)

    def test_bound_holds_across_thicknesses(self):
        for h in (0.2, 0.1, 0.05):
            r = anisotropic_report(1.0, h, 1.0 / 32, self.p, self.q, self.q)
            assert r.lhs <= r.rhs
            assert r.lhs >= 0.0 and r.rhs >= 0.0

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            anisotropic_report(1.0, 0.1, 1.0 / 16,
                               FlowParams(alpha_f=1.0, beta=0.0), self.q, self.q)


class TestDivergenceStudy:
    def setup_method(self):
        self.p = FlowParams(alpha_f=1.0, beta=1.0)
        self.q = linear_inflow(2.0, 1.0)

    def test_reduced_gradient_diverges_metric_stays_bounded(self):
        reports = divergence_study(1.0, 1.0 / 32, self.p, self.q, self.q,
                                   [0.2, 0.1, 0.05])
        wxr = [r.norm_Wx_reduced for r in reports]
        assert wxr[0] < wxr[1] < wxr[2]
        assert reports[-1].lhs <= 1.1 * reports[0].lhs
        assert all(r.bound_holds for r in reports)

    def test_anisotropic_bound_holds_to_the_thin_limit_at_fine_resolution(self):
        # the reduced line takes a trapezoid load and the slab the consistent
        # P1 one; at resolution 1/32 that pushes lhs/rhs from 0.16 to 4.2 by
        # h = 2e-4, where the bound fails, and at 1/128 only to 0.178
        hs = [0.05, 0.01, 0.005, 0.002, 0.001, 5e-4, 2e-4]
        reports = divergence_study(1.0, 1.0 / 128, self.p, self.q, self.q, hs,
                                   q0=2.0)
        assert [r.h for r in reports] == hs
        assert all(r.bound_holds for r in reports)
        assert max(r.lhs / r.rhs for r in reports) < 0.2

    def test_h_list_must_decrease(self):
        with pytest.raises(GeometryError):
            divergence_study(1.0, 1.0 / 16, self.p, self.q, self.q, [0.1, 0.2])
        with pytest.raises(GeometryError, match="nonempty"):
            divergence_study(1.0, 1.0 / 16, self.p, self.q, self.q, [])

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="unknown flavor"):
            divergence_study(1.0, 1.0 / 16, self.p, self.q, self.q, [0.2, 0.1],
                             flavor="sideways")

    def test_anisotropic_rejects_beta_zero(self):
        with pytest.raises(ValueError):
            divergence_study(1.0, 1.0 / 16, FlowParams(alpha_f=1.0, beta=0.0),
                             self.q, self.q, [0.2, 0.1])

    def test_isotropic_flavor_supported(self):
        reports = divergence_study(1.0, 1.0 / 16, self.p, self.q, self.q,
                                   [0.2, 0.1], flavor="isotropic")
        assert [r.flavor for r in reports] == ["isotropic", "isotropic"]
        assert all(np.isfinite(r.empirical_C) for r in reports)

    def test_full_solution_keeps_transverse_gradient(self):
        reports = divergence_study(1.0, 1.0 / 32, self.p, self.q, self.q,
                                   [0.2, 0.1])
        assert all(r.norm_Wy > 0 for r in reports)
