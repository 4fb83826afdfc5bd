import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import fracflow.solvers
from fracflow import (
    DomainSpec,
    FlowParams,
    SolverError,
    build_fracture_slab_mesh,
    build_reservoir_mesh,
    lq_seminorm,
    solve_pss,
    solve_slab,
)
from fracflow.assembly import (
    _bulk_stiffness,
    _tri_geometry,
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
    assemble_slab_residual,
    dirichlet_nodes,
    slab_rhs,
    triangle_gradients,
)
from fracflow.kernels import fbeta_iso
from fracflow.solvers import (
    _forchheimer,
    _Linearization,
    _newton,
    _slab_constitutive,
    _solve_spd,
    condense_bulk,
    pss_energy,
)
from pinned_solve import solve_pinned


@pytest.fixture(scope="module")
def rect_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=8.0, width=40.0,
                      height=32.0, aperture=1.0, resolution=1.0, grading=1.3)
    return build_reservoir_mesh(spec)


def l2_field_norm(m, values):
    area, _ = _tri_geometry(m)
    return float(np.sqrt(np.sum(area * (values[m.triangles] ** 2).mean(axis=1))))


def count_calls(monkeypatch, name):
    """Calls of fracflow.solvers.<name> made while the test runs."""
    calls = []
    original = getattr(fracflow.solvers, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fracflow.solvers, name, counting)
    return calls


def record_accepted_states(monkeypatch):
    """States the Newton loop accepts, in order: every state whose tangent
    system it solves (zero for the Darcy start, then the base of each
    step) and the state it returns."""
    states = []
    newton = fracflow.solvers._newton

    def recording(linearize, *args, **kwargs):
        def tracked(z):
            lin = linearize(z)

            def solve(v):
                states.append(np.array(z))
                return lin.solve(v)

            return dataclasses.replace(lin, solve=solve)

        z, report = newton(tracked, *args, **kwargs)
        states.append(z)
        return z, report

    monkeypatch.setattr(fracflow.solvers, "_newton", recording)
    return states


def gradient_scale(s, p):
    """max(s, alpha^2 / beta): alpha^2 / beta is where the drag turns
    quadratic, so finite differences step a small fraction of it even at
    s = 0, where the flux's second derivative jumps."""
    return max(s, p.alpha_f ** 2 / p.beta if p.beta > 0 else 1.0)


def flux(s, p):
    """The Forchheimer flux s f(s), odd in s."""
    return np.sign(s) * np.abs(s) * fbeta_iso(np.abs(s), p)


class TestForchheimer:
    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(0.01, 100.0),
           beta=st.one_of(st.just(0.0), st.just(1e-300),
                          st.floats(-300.0, 4.0).map(lambda e: 10.0 ** e)),
           s=st.floats(1e-3, 1e3))
    def test_potential_matches_quadrature(self, alpha, beta, s):
        from scipy.integrate import quad
        p = FlowParams(alpha_f=alpha, beta=beta)
        # the integrand turns from linear to sqrt-like near alpha^2 / beta:
        # break the interval geometrically from there on for the adaptive rule
        knee = alpha ** 2 / beta if beta > 0 else np.inf
        points = np.geomspace(1e-3 * knee, s, 24)[:-1] if 1e-3 * knee < s else None
        exact, _ = quad(lambda x: x * fbeta_iso(x, p), 0.0, s, points=points,
                        epsabs=0.0, epsrel=1e-12, limit=200)
        assert _forchheimer(s, p)[2] == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("beta", [1e-6, 1e-8, 1e-10, 1e-170])
    def test_potential_keeps_its_digits_at_weak_drag(self, beta):
        # Phi(1) = 1/2 - beta/3 + O(beta^2) at alpha = 1: the closed form
        # through (u^3/3 - alpha u^2/2) lost every digit of the difference
        phi = float(_forchheimer(1.0, FlowParams(alpha_f=1.0, beta=beta))[2])
        assert phi < 0.5 or beta < 1e-16
        assert 0.5 - phi == pytest.approx(beta / 3.0, rel=1e-5, abs=1e-17)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.1, 10.0),
           beta=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           s=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
    def test_tangent_is_the_flux_derivative(self, alpha, beta, s):
        p = FlowParams(alpha_f=alpha, beta=beta)
        eps = 1e-8 * gradient_scale(s, p)
        fd = (flux(s + eps, p) - flux(s - eps, p)) / (2.0 * eps)
        assert _forchheimer(s, p)[1] == pytest.approx(fd, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(flavor=st.sampled_from(["isotropic", "anisotropic"]),
           alpha=st.floats(0.1, 10.0),
           beta=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           g=st.one_of(st.just((0.0, 0.0)),
                       st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))))
    def test_slab_tangent_and_flux_are_derivatives(self, flavor, alpha, beta, g):
        p = FlowParams(alpha_f=alpha, beta=beta)
        g = np.array([g])
        q, tangent, _ = _slab_constitutive(g, p, flavor)
        assert np.array_equal(tangent, tangent.transpose(0, 2, 1))
        assert np.all(np.linalg.eigvalsh(tangent) > 0)
        dq = np.empty((2, 2))
        dpsi = np.empty(2)
        top = np.abs(tangent).max()
        for j in range(2):
            # the anisotropic drag acts on |g_x| alone
            s = abs(g[0, 0]) if (flavor, j) == ("anisotropic", 0) else np.linalg.norm(g)
            e = np.zeros((1, 2))
            e[0, j] = eps = 1e-8 * gradient_scale(s, p)
            plus = _slab_constitutive(g + e, p, flavor)
            minus = _slab_constitutive(g - e, p, flavor)
            dq[:, j] = (plus[0] - minus[0])[0] / (2.0 * eps)
            dpsi[j] = (plus[2] - minus[2])[0] / (2.0 * eps)
            rounding = 1e-14 * float(abs(plus[2][0]) + abs(minus[2][0])) / eps
            assert dpsi[j] == pytest.approx(q[0, j], rel=1e-6, abs=rounding)
        assert np.allclose(dq, tangent[0], rtol=0.0, atol=1e-6 * top)


class TestNewton:
    def test_line_search_cuts_an_overlong_step(self):
        # a tangent four times too soft: every full step overshoots to
        # higher energy, and a quarter step is the exact Newton step
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, -2.0])

        def linearize(z):
            grad = A @ z - b
            return _Linearization(0.5 * z @ A @ z - b @ z, grad,
                                  float(np.linalg.norm(grad) / np.linalg.norm(b)),
                                  lambda v: 4.0 * np.linalg.solve(A, v))

        z, rep = _newton(linearize, 2, 1e-12, 20)
        assert rep.converged and rep.damping_used == 0.25
        assert np.allclose(z, np.linalg.solve(A, b), rtol=1e-12)

    def test_singular_factor_raises_with_step_history(self, monkeypatch):
        splu = fracflow.solvers.splu
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # Darcy start, step 1, then step 2 fails
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(fracflow.solvers, "splu", failing)
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 2.0 * (1.0 - x)
        with pytest.raises(SolverError, match="Newton step 2") as err:
            solve_slab(m, FlowParams(beta=1.0), "isotropic", q, q, 0.0)
        history = err.value.history
        assert len(history) == 2 and len(history[0]) == 3
        assert history[-1][0] == "direct"

    def test_non_finite_iterate_raises_with_step_history(self, rect_mesh, monkeypatch):
        pinned = fracflow.solvers._pinned_solve
        calls = []

        def exploding(M, rhs):
            calls.append(1)
            x = pinned(M, rhs)
            return np.full_like(x, np.inf) if len(calls) == 3 else x

        monkeypatch.setattr(fracflow.solvers, "_pinned_solve", exploding)
        with pytest.raises(SolverError, match="finite") as err:
            solve_pss(rect_mesh, FlowParams(alpha_f=0.05, beta=0.1), 1000.0)
        assert len(err.value.history) == 1


class TestSolveSpd:
    def test_one_by_one(self):
        x = _solve_spd(sparse.eye(1, format="csr"), np.array([2.0]), 1e-10)
        assert x == pytest.approx([2.0])

    def test_recovers_manufactured_solution(self, rect_mesh):
        p = FlowParams(alpha_f=0.1)
        A = assemble_A(rect_mesh, p)
        rng = np.random.default_rng(0)
        x_star = rng.normal(size=rect_mesh.num_nodes)
        x_star[rect_mesh.well_node] = 0.0
        x = solve_pinned(A, A @ x_star, rect_mesh.well_node)
        assert np.linalg.norm(x - x_star) <= 1e-9 * np.linalg.norm(x_star)

    def test_singular_neumann_system_rejected(self, rect_mesh):
        A = _bulk_stiffness(rect_mesh, 1.0)  # pure Neumann, constants in kernel
        b = -assemble_B_in(rect_mesh, aperture=0.0)  # sums to +1: incompatible
        with pytest.raises(SolverError) as err:
            _solve_spd(A, b, 1e-10)
        assert err.value.history  # residual history attached

    def test_tiny_rate_scales_the_unit_field(self, rect_mesh):
        # |b| is far below the square root of the smallest normal double,
        # so an unscaled norm of b or of a residual underflows to zero
        A = assemble_A(rect_mesh, FlowParams(alpha_f=0.05, beta=0.1))

        def field(Q):
            return solve_pinned(A, -assemble_B_in(rect_mesh) * Q,
                                rect_mesh.well_node, tol=1e-13)

        Q = 2.9e-285
        unit = field(1.0)
        tiny = field(Q)
        assert (np.linalg.norm(tiny / Q - unit)
                <= 1e-9 * np.linalg.norm(unit))

    def test_refinement_rescues_an_inaccurate_first_solve(self, monkeypatch):
        # the first triangular solve is off by 1e-8 relative; one step of
        # iterative refinement fixes it, and the residual checked is the
        # refined one
        original = fracflow.solvers.splu

        class Inaccurate:
            def __init__(self, lu):
                self.lu, self.calls = lu, 0

            def solve(self, b):
                self.calls += 1
                x = self.lu.solve(b)
                return x * (1.0 + 1e-8) if self.calls == 1 else x

        monkeypatch.setattr(fracflow.solvers, "splu",
                            lambda A: Inaccurate(original(A)))
        A = sparse.diags([[-1.0] * 4, [4.0] * 5, [-1.0] * 4], [-1, 0, 1],
                         format="csc")
        x_star = np.arange(1.0, 6.0)
        x = _solve_spd(A, A @ x_star, 1e-12)
        assert np.abs(x - x_star).max() <= 1e-14 * np.abs(x_star).max()


class TestSolvePss:
    def test_darcy_single_iteration_matches_linear(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.0)
        z, rep = solve_pss(rect_mesh, p, 500.0)
        assert rep.iterations == 1 and rep.converged
        lin = solve_pinned(assemble_A(rect_mesh, p),
                           -assemble_B_in(rect_mesh) * 500.0, rect_mesh.well_node)
        rel = np.linalg.norm(z.values - lin) / np.linalg.norm(lin)
        assert rel <= 1e-12

    def test_zero_aperture_takes_one_step(self, rect_mesh):
        _, rep = solve_pss(rect_mesh, FlowParams(alpha_f=0.1, beta=0.5), 500.0,
                           aperture=0.0)
        assert rep.iterations == 1 and rep.converged

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
        r = (assemble_A(rect_mesh, p) @ z.values
             + assemble_F_residual(rect_mesh, p, z)
             + assemble_B_in(rect_mesh) * Q)
        assert abs(r[rect_mesh.well_node] + Q) <= 1e-8 * Q

    def test_energy_descends_along_iterates(self, rect_mesh, monkeypatch):
        # the energy of the full field (pss_energy, independent of the
        # solver's condensed energy up to a constant) never increases
        # along the trace states Newton accepts
        p = FlowParams(alpha_f=0.05, beta=0.01)
        Q = 1000.0
        c = condense_bulk(rect_mesh, p.k_p)
        states = record_accepted_states(monkeypatch)
        _, rep = solve_pss(rect_mesh, p, Q, tol=1e-12, condensation=c)
        assert len(states) == rep.iterations + 2 >= 4
        q = Q / c.line(rect_mesh, p.k_p, rect_mesh.aperture).volume
        e = np.array([pss_energy(rect_mesh, p, c.full_field(rect_mesh, z, q), Q)
                      for z in states])
        assert np.all(np.diff(e) <= 1e-12 * np.abs(e[1:]))
        assert e[-1] < e[0]

    def test_flux_and_tangent_evaluated_once_per_step(self, rect_mesh, monkeypatch):
        # one evaluation for the Darcy start (at zero), one at the start
        # iterate and one per Newton step, when no step is cut
        calls = count_calls(monkeypatch, "_forchheimer")
        _, rep = solve_pss(rect_mesh, FlowParams(alpha_f=0.05, beta=0.1), 1000.0)
        assert rep.iterations > 1 and rep.damping_used == 1.0
        assert len(calls) == rep.iterations + 2

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

    @pytest.mark.parametrize("flavor", ["isotropic", "anisotropic"])
    def test_darcy_slab_takes_one_step(self, flavor):
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 2.0 * (1.0 - x)
        for reduced in (False, True):
            _, rep = solve_slab(m, FlowParams(alpha_f=2.0, beta=0.0), flavor,
                                q, q, 0.5, reduced=reduced)
            assert rep.iterations == 1 and rep.converged

    @settings(max_examples=30, deadline=None)
    @given(flavor=st.sampled_from(["isotropic", "anisotropic"]),
           h=st.floats(0.02, 0.5),
           beta=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
           q0=st.floats(-5.0, 5.0), q_over_v=st.floats(-2.0, 2.0))
    def test_full_slab_solves_its_residual(self, flavor, h, beta, q0, q_over_v):
        m = build_fracture_slab_mesh(1.0, h, 16, 4)
        p = FlowParams(alpha_f=1.0, beta=beta)
        q = lambda x: q0 * (1.0 - x)
        tol = 1e-8
        W, rep = solve_slab(m, p, flavor, q, q, q_over_v, tol=tol)
        assert rep.converged and rep.iterations <= 10
        r = assemble_slab_residual(m, p, W, flavor, q, q, q_over_v)
        # plus the rounding by which the solver's per-triangle residual and
        # this K(W) W - rhs one differ (at most 6e-12 of the load in a
        # 300-sample scan)
        assert (np.linalg.norm(r)
                <= (tol + 1e-10) * np.linalg.norm(slab_rhs(m, q, q, q_over_v)))

    @pytest.mark.parametrize("q0", [4.0, 8.0])
    def test_deep_drag_isotropic_slab_converges(self, q0):
        # the full slab of the isotropic validate gate at beta = 1
        # (test_validate_isotropic_gate_fails_in_deep_drag_regime)
        m = build_fracture_slab_mesh(1.0, 0.1, 32, 8)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: q0 * (1.0 - x)
        W, rep = solve_slab(m, p, "isotropic", q, q, 0.0, tol=1e-10)
        assert rep.converged and rep.iterations <= 10
        r = assemble_slab_residual(m, p, W, "isotropic", q, q, 0.0)
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(slab_rhs(m, q, q, 0.0))
        # a tol below the residual's rounding floor: the update test stops it
        _, rep = solve_slab(m, p, "isotropic", q, q, 0.0, tol=1e-14)
        assert rep.converged and rep.final_residual > 1e-14

    def test_strong_contrast_slab_raises_or_solves(self):
        # where t(|g_x|) << aniso_k the anisotropic tangent is badly scaled
        # and the verified direction solve raises; a slab that returns must
        # solve its residual, whatever the contrast
        m = build_fracture_slab_mesh(1, 0.05, 32, 8)
        solved = {"isotropic": 0, "anisotropic": 0}
        for flavor in solved:
            for q0, beta in [(1e3, 1e3), (1e5, 1.0), (1e5, 1e3), (8.0, 1.0)]:
                p = FlowParams(alpha_f=1.0, beta=beta)
                q = lambda x: q0 * (1.0 - x)
                try:
                    W, rep = solve_slab(m, p, flavor, q, q, 0.0, tol=1e-10)
                except SolverError:
                    continue
                r = assemble_slab_residual(m, p, W, flavor, q, q, 0.0)
                assert rep.converged
                assert (np.linalg.norm(r)
                        <= 1e-8 * np.linalg.norm(slab_rhs(m, q, q, 0.0))), (flavor, q0, beta)
                solved[flavor] += 1
        assert min(solved.values()) >= 1, solved

    @pytest.mark.parametrize("flavor", ["isotropic", "anisotropic"])
    def test_slab_energy_descends_along_iterates(self, flavor, monkeypatch):
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: 4.0 * (1.0 - x)
        states = record_accepted_states(monkeypatch)
        _, rep = solve_slab(m, p, flavor, q, q, 0.5, tol=1e-12)
        assert len(states) == rep.iterations + 2
        free = np.setdiff1d(np.arange(m.num_nodes), dirichlet_nodes(m))
        rhs = slab_rhs(m, q, q, 0.5)
        area, _ = _tri_geometry(m)
        energies = []
        for w_free in states:
            w = np.zeros(m.num_nodes)
            w[free] = w_free
            g = triangle_gradients(m, w)
            if flavor == "isotropic":
                psi = _forchheimer(np.linalg.norm(g, axis=1), p)[2]
            else:
                psi = (_forchheimer(np.abs(g[:, 0]), p)[2]
                       + 0.5 * p.aniso_k * g[:, 1] ** 2)
            energies.append(float(area @ psi - rhs @ w))
        e = np.array(energies)
        assert np.all(np.diff(e) <= 1e-12 * np.abs(e[1:]))
        assert e[-1] < e[1] < e[0] == 0.0

    def test_full_slab_refills_one_pattern(self, monkeypatch):
        # no constraint elimination: one factorization for the Darcy start
        # and one per Newton step, the last state needs none
        factorizations = count_calls(monkeypatch, "splu")
        eliminations = count_calls(monkeypatch, "apply_constraints")
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 2.0 * (1.0 - x)
        _, rep = solve_slab(m, FlowParams(beta=1.0), "anisotropic", q, q, 0.0)
        assert rep.iterations > 1
        assert len(factorizations) == rep.iterations + 1
        assert eliminations == []

    def test_reduced_solution_is_y_independent(self):
        m = build_fracture_slab_mesh(1.0, 0.1, 32, 8)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: 2.0 * (1.0 - x)
        W, _ = solve_slab(m, p, "isotropic", q, q, 1.0, reduced=True)
        assert lq_seminorm(W, m, "y", 2.0) <= 1e-10 * lq_seminorm(W, m, "x", 2.0)

    @settings(max_examples=40, deadline=None)
    @given(flavor=st.sampled_from(["isotropic", "anisotropic"]),
           h=st.floats(0.02, 0.5),
           beta=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
           q0=st.floats(-5.0, 5.0), q_over_v=st.floats(-2.0, 2.0),
           nx=st.sampled_from([8, 16, 32]))
    def test_reduced_field_solves_the_2d_reduced_equations(
            self, flavor, h, beta, q0, q_over_v, nx):
        m = build_fracture_slab_mesh(1.0, h, nx, 4)
        p = FlowParams(alpha_f=1.0, beta=beta)
        q = lambda x: q0 * (1.0 - x)
        W, _ = solve_slab(m, p, flavor, q, q, q_over_v, tol=1e-11, reduced=True)
        # the 2-D reduced load: lumped tensor-product (trapezoid x trapezoid)
        # quadrature of the source q_over_v - (q+ + q-)/h
        weights = []
        for axis in (0, 1):
            c = np.unique(m.nodes[:, axis])
            w = np.zeros(len(c))
            w[:-1] += np.diff(c) / 2.0
            w[1:] += np.diff(c) / 2.0
            weights.append(w[np.searchsorted(c, m.nodes[:, axis])])
        x = m.nodes[:, 0]
        load = weights[0] * weights[1] * (q_over_v - 2.0 * q(x) / h)
        # K(W) W on the free rows: the slab residual with no data
        zero = lambda x: 0.0
        r = assemble_slab_residual(m, p, W, flavor, zero, zero, 0.0) - load
        free = np.setdiff1d(np.arange(m.num_nodes), dirichlet_nodes(m))
        assert np.abs(W.values[dirichlet_nodes(m)]).max() == 0.0
        assert (np.linalg.norm(r[free])
                <= 1e-8 * np.linalg.norm(load[free]))

    def test_reduced_solve_factorizes_nothing(self, monkeypatch):
        def no_splu(*args, **kwargs):
            raise AssertionError("the reduced slab made a sparse factorization")

        monkeypatch.setattr(fracflow.solvers, "splu", no_splu)
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 1.0 - x
        W, rep = solve_slab(m, FlowParams(beta=1.0), "anisotropic", q, q, 0.5,
                            reduced=True)
        assert rep.converged and np.abs(W.values).max() > 0.0

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
