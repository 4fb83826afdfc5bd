import numpy as np
import pytest
from scipy import sparse

from fracflow import (
    DomainSpec,
    FlowParams,
    LinearSystem,
    SolverError,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    lq_seminorm,
    solve_linear,
    solve_pss,
    solve_slab,
)
from fracflow.assembly import (
    _bulk_stiffness,
    _tri_geometry,
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
)
from fracflow.solvers import pss_energy


@pytest.fixture(scope="module")
def rect_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=8.0, width=40.0,
                      height=32.0, aperture=1.0, resolution=1.0, grading=1.3)
    return build_reservoir_mesh(spec)


def l2_field_norm(m, values):
    area, _ = _tri_geometry(m)
    return float(np.sqrt(np.sum(area * (values[m.triangles] ** 2).mean(axis=1))))


class TestSolveLinear:
    def test_one_by_one(self):
        sys = LinearSystem(sparse.eye(1, format="csr"), np.array([2.0]), [], None)
        assert solve_linear(sys) == pytest.approx([2.0])

    def test_recovers_manufactured_solution(self, rect_mesh):
        p = FlowParams(alpha_f=0.1)
        sys = assemble_A(rect_mesh, p)
        rng = np.random.default_rng(0)
        x_star = rng.normal(size=rect_mesh.num_nodes)
        x_star[rect_mesh.well_node] = 0.0
        b = sys.matrix @ x_star
        x = solve_linear(LinearSystem(sys.matrix, b, sys.constrained_nodes, rect_mesh))
        assert np.linalg.norm(x.values - x_star) <= 1e-9 * np.linalg.norm(x_star)

    def test_singular_neumann_system_rejected(self, rect_mesh):
        A = _bulk_stiffness(rect_mesh, 1.0)  # pure Neumann, constants in kernel
        b = -assemble_B_in(rect_mesh, aperture=0.0)  # sums to +1: incompatible
        with pytest.raises(SolverError) as err:
            solve_linear(LinearSystem(A, b, [], rect_mesh))
        assert err.value.history  # residual history attached

    def test_tiny_rate_scales_the_unit_field(self, rect_mesh):
        # |b| is far below the square root of the smallest normal double,
        # so an unscaled norm of b or of a residual underflows to zero
        sys = assemble_A(rect_mesh, FlowParams(alpha_f=0.05, beta=0.1))

        def field(Q):
            return solve_linear(LinearSystem(
                sys.matrix, -assemble_B_in(rect_mesh) * Q,
                sys.constrained_nodes, rect_mesh), tol=1e-13).values

        Q = 2.9e-285
        unit = field(1.0)
        tiny = field(Q)
        assert (np.linalg.norm(tiny / Q - unit)
                <= 1e-9 * np.linalg.norm(unit))


class TestSolvePss:
    def test_darcy_single_iteration_matches_linear(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.0)
        z, rep = solve_pss(rect_mesh, p, 500.0)
        assert rep.iterations == 1 and rep.converged
        sys = assemble_A(rect_mesh, p)
        lin = solve_linear(LinearSystem(
            sys.matrix, -assemble_B_in(rect_mesh) * 500.0,
            sys.constrained_nodes, rect_mesh))
        rel = (np.linalg.norm(z.values - lin.values)
               / np.linalg.norm(lin.values))
        assert rel <= 1e-12

    def test_zero_rate_gives_zero_field(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.5)
        z, rep = solve_pss(rect_mesh, p, 0.0)
        assert np.abs(z.values).max() == 0.0
        assert rep.converged

    def test_linear_scaling_in_rate(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.0)
        z1, _ = solve_pss(rect_mesh, p, 300.0)
        z2, _ = solve_pss(rect_mesh, p, 600.0)
        assert np.allclose(z2.values, 2.0 * z1.values, rtol=1e-11, atol=1e-11)

    def test_well_conservation(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.05)
        Q = 800.0
        z, _ = solve_pss(rect_mesh, p, Q, tol=1e-11)
        sys = assemble_A(rect_mesh, p)
        r = (sys.matrix @ z.values + assemble_F_residual(rect_mesh, p, z)
             + assemble_B_in(rect_mesh) * Q)
        assert abs(r[rect_mesh.well_node] + Q) <= 1e-8 * Q

    def test_energy_descends_along_iterates(self, rect_mesh):
        # replay the frozen-coefficient loop and track the variational energy
        from fracflow.assembly import apply_constraints, fracture_edge_gradients, _line_stiffness
        from fracflow.kernels import fbeta_iso
        from fracflow.solvers import _solve_spd
        p = FlowParams(alpha_f=0.05, beta=0.01)
        Q = 1000.0
        A_bulk = _bulk_stiffness(rect_mesh, p.k_p)
        b = -assemble_B_in(rect_mesh) * Q
        cons = [(rect_mesh.well_node, 0.0)]
        h = rect_mesh.aperture
        A_lin = A_bulk + _line_stiffness(
            rect_mesh, np.full(len(rect_mesh.fracture_edges), h * p.k_f))
        A_c, b_c = apply_constraints(A_lin, b, cons)
        z = _solve_spd(A_c, b_c, 1e-12)
        energies = [pss_energy(rect_mesh, p, z, Q)]
        for _ in range(8):
            gx = fracture_edge_gradients(rect_mesh, z)
            A = A_bulk + _line_stiffness(rect_mesh, h * fbeta_iso(np.abs(gx), p))
            A_c, b_c = apply_constraints(A, b, cons)
            z = _solve_spd(A_c, b_c, 1e-12)
            energies.append(pss_energy(rect_mesh, p, z, Q))
        e = np.array(energies)
        slack = 1e-6 * np.abs(e[2:-1])
        assert np.all(e[3:] <= e[2:-1] + slack)

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_mobility_evaluated_once_per_step(self, rect_mesh, monkeypatch, theta):
        import fracflow.solvers
        calls = []
        original = fracflow.solvers.fbeta_iso

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fracflow.solvers, "fbeta_iso", counting)
        _, rep = solve_pss(rect_mesh, FlowParams(alpha_f=0.05, beta=0.1), 1000.0,
                           theta=theta)
        assert rep.iterations > 1
        assert len(calls) == rep.iterations + 1

    def test_iteration_budget_enforced(self, rect_mesh):
        p = FlowParams(alpha_f=0.01, beta=1.0)
        with pytest.raises(SolverError) as err:
            solve_pss(rect_mesh, p, 1000.0, max_iter=2)
        assert len(err.value.history) == 2


class TestSolveSlab:
    def test_zero_data_zero_solution(self):
        m = build_fracture_slab_mesh(1.0, 0.1, 8, 4)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        zero = lambda x: 0.0
        for reduced in (False, True):
            W, rep = solve_slab(m, p, "isotropic", zero, zero, 0.0, reduced=reduced)
            assert np.abs(W.values).max() == 0.0
            assert rep.converged

    def test_reduced_solution_is_y_independent(self):
        m = build_fracture_slab_mesh(1.0, 0.1, 32, 8)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: 2.0 * (1.0 - x)
        W, _ = solve_slab(m, p, "isotropic", q, q, 1.0, reduced=True)
        assert lq_seminorm(W, m, "y", 2.0) <= 1e-10 * lq_seminorm(W, m, "x", 2.0)

    @pytest.mark.parametrize("flavor", ["isotropic", "anisotropic"])
    def test_manufactured_profile_recovered_at_order_two(self, flavor):
        # oracle: flux u(x) = -(L - x); gradient -(alpha u + beta |u| u)
        # integrates in closed form from the pinned inlet
        L, h, alpha, beta = 1.0, 0.5, 1.0, 1.0
        p = FlowParams(alpha_f=alpha, beta=beta)
        zero = lambda x: 0.0

        def exact(x):
            return alpha * (L * x - x * x / 2) + beta * (L ** 3 - (L - x) ** 3) / 3

        errs = []
        for nx in (8, 16, 32):
            m = build_fracture_slab_mesh(L, h, nx, max(2, nx // 2))
            W, _ = solve_slab(m, p, flavor, zero, zero, 1.0, tol=1e-11)
            errs.append(l2_field_norm(m, W.values - exact(m.nodes[:, 0])))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios >= 3.5)  # order about 2 for P1
        assert np.all(np.log2(ratios) >= 1.8)
