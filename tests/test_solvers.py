import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import fracflow.assembly
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
    assemble_A,
    assemble_B_in,
    assemble_F_residual,
    assemble_slab_residual,
    dirichlet_nodes,
    slab_rhs,
    triangle_gradients,
)
from fracflow.cli import main
from fracflow.kernels import fbeta_iso, forchheimer_inverse_1d
from fracflow.solvers import (
    _forchheimer,
    _grid_order,
    _Linearization,
    _newton,
    _pinned_solve,
    _slab_constitutive,
    _solve_line,
    _solve_spd,
    TraceLine,
    condense_bulk,
    pss_energy,
)
from pinned_solve import solve_pinned


@pytest.fixture(scope="module")
def rect_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=8.0, width=40.0,
                      height=32.0, aperture=1.0, resolution=1.0, grading=1.3)
    return build_reservoir_mesh(spec)


@pytest.fixture(scope="module")
def bare_mesh(rect_mesh):
    """rect_mesh at zero aperture: the same nodes, no fracture term."""
    return dataclasses.replace(rect_mesh, aperture=0.0)


def l2_field_norm(m, values):
    area = m.area
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
    system it solves (the base of each step, zero first) and the state it
    returns."""
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


def record_linearizations(monkeypatch):
    """Every `_Linearization` the Newton loop builds, in order."""
    built = []
    newton = fracflow.solvers._newton

    def recording(linearize, *args, **kwargs):
        def tracked(z):
            built.append(linearize(z))
            return built[-1]

        return newton(tracked, *args, **kwargs)

    monkeypatch.setattr(fracflow.solvers, "_newton", recording)
    return built


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

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.1, 10.0),
           beta=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
           g=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16))
    def test_anisotropic_transverse_mobility_is_darcy(self, alpha, beta, g):
        # across the fracture the flow stays Darcy at the fracture's linear
        # mobility, whatever the gradient
        p = FlowParams(alpha_f=alpha, beta=beta)
        g = np.array(g[: len(g) // 2 * 2]).reshape(-1, 2)
        q, tangent, _ = _slab_constitutive(g, p, "anisotropic")
        assert np.all(tangent[:, 1, 1] == 1.0 / alpha)
        assert np.all(tangent[:, 0, 1] == 0.0) and np.all(tangent[:, 1, 0] == 0.0)
        assert np.array_equal(q[:, 1], (1.0 / alpha) * g[:, 1])


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
        assert rep.damping_used == 0.25
        assert np.allclose(z, np.linalg.solve(A, b), rtol=1e-12)

    def test_iterations_count_direction_solves(self):
        # the first step, from z = 0, is a step like any other: on this
        # quadratic it is exact, meets tol and ends the solve
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, -2.0])
        solves = []

        def linearize(z):
            grad = A @ z - b

            def solve(v):
                solves.append(np.array(z))
                return np.linalg.solve(A, v)

            return _Linearization(0.5 * z @ A @ z - b @ z, grad,
                                  float(np.linalg.norm(grad) / np.linalg.norm(b)),
                                  solve)

        z, rep = _newton(linearize, 2, 1e-12, 20)
        assert rep.iterations == len(solves) == 1
        assert np.array_equal(solves[0], np.zeros(2))
        assert np.allclose(z, np.linalg.solve(A, b), rtol=1e-12)

    @staticmethod
    def half_solved(floor=0.0):
        """E = |z|^2 / 2 - b.z with a tangent solve that never moves the
        second unknown: Newton stalls at z = (1, 0), residual 1/sqrt(2),
        with the given residual rounding floor."""
        b = np.array([1.0, 1.0])

        def linearize(z):
            grad = z - b
            return _Linearization(0.5 * z @ z - b @ z, grad,
                                  float(np.linalg.norm(grad) / np.linalg.norm(b)),
                                  lambda v: np.array([v[0], 0.0]),
                                  lambda: (0.0, floor))

        return linearize

    def test_stalled_iterate_above_its_rounding_floor_raises(self):
        # the update test alone used to report this iterate converged
        with pytest.raises(SolverError, match="stalled in step 2 at residual "
                                              "0.707107, above its rounding "
                                              "floor 0") as err:
            _newton(self.half_solved(), 2, 1e-9, 20)
        assert err.value.history == [(1.0, pytest.approx(2 ** -0.5), 1.0),
                                     (0.0, pytest.approx(2 ** -0.5), 1.0)]

    def test_stalled_iterate_within_its_rounding_floor_converges(self):
        z, rep = _newton(self.half_solved(1.0), 2, 1e-9, 20)
        assert rep.iterations == 2
        assert rep.final_residual == pytest.approx(2 ** -0.5)
        assert np.array_equal(z, [1.0, 0.0])

    def test_line_stall_within_the_rounding_of_z_converges(self):
        # the strong-drag reduced slab as a zero-bulk line (h = 0.05, q0 =
        # 1e5, q/V = 1): W reaches 8e11, and the rounding of z alone leaves
        # a residual of 8.3e-10, above tol; a floor without it (1.8e-13)
        # raised a stall on what is the exact line to rounding
        p = FlowParams(alpha_f=1.0, beta=1.0)
        xs = np.linspace(0.0, 1.0, 33)
        dx = np.diff(xs)
        wx = np.append(dx, 0.0) / 2.0 + np.insert(dx, 0, 0.0) / 2.0
        b = wx * (1.0 - 2.0 * 1e5 * (1.0 - xs) / 0.05)
        # the residual relative to |b|: a unit rate on a line of scale |b|
        line = TraceLine(1.0, dx, wx, float(np.linalg.norm(b)), 1.0)
        z, rep = _solve_line(np.zeros((33, 33)), line, p, b, 1.0, 1e-10, 100)
        assert rep.final_residual > 1e-10
        # the closed form: each edge's flux is the load beyond it
        v = np.cumsum(b[:0:-1])[::-1]
        exact = np.append(0.0, np.cumsum(forchheimer_inverse_1d(-v, p) * dx))
        assert np.abs(z - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_singular_factor_raises_with_step_history(self, monkeypatch):
        splu = fracflow.solvers.splu
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:  # steps 1 and 2, then step 3 fails
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(fracflow.solvers, "splu", failing)
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 2.0 * (1.0 - x)
        with pytest.raises(SolverError, match="Newton step 3") as err:
            solve_slab(m, FlowParams(beta=1.0), "isotropic", q, q, 0.0)
        history = err.value.history
        assert len(history) == 3 and len(history[0]) == len(history[1]) == 3
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
        assert len(err.value.history) == 2


class TestPinnedSolve:
    def test_indefinite_block_raises(self):
        # the free block [[1, 2], [2, 1]] has eigenvalues 3 and -1; an LU
        # solve would return its solution
        M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(SolverError, match="not positive definite") as err:
            _pinned_solve(M, np.array([0.0, 1.0, 1.0]))
        assert err.value.history == [("dense", 2)]

    def test_indefinite_line_raises_in_its_first_step(self):
        line = TraceLine(1.0, np.ones(2), np.ones(3), 1.0, 1.0)
        with pytest.raises(SolverError, match="Newton step 1") as err:
            _solve_line(-10.0 * np.eye(3), line, FlowParams(), np.ones(3),
                        1.0, 1e-9, 10)
        assert err.value.history == [("dense", 1)]


class TestSolveSpd:
    def test_one_by_one(self):
        x = _solve_spd(sparse.eye(1, format="csr"), np.array([2.0]))
        assert x == pytest.approx([2.0])

    def test_recovers_manufactured_solution(self, rect_mesh):
        p = FlowParams(alpha_f=0.1)
        A = assemble_A(rect_mesh, p)
        rng = np.random.default_rng(0)
        x_star = rng.normal(size=rect_mesh.num_nodes)
        x_star[rect_mesh.well_node] = 0.0
        x = solve_pinned(A, A @ x_star, rect_mesh.well_node)
        assert np.linalg.norm(x - x_star) <= 1e-9 * np.linalg.norm(x_star)

    def test_singular_neumann_system_rejected(self, rect_mesh, bare_mesh):
        A = _bulk_stiffness(rect_mesh, 1.0)  # pure Neumann, constants in kernel
        b = -assemble_B_in(bare_mesh)  # sums to +1: incompatible
        with pytest.raises(SolverError) as err:
            _solve_spd(A, b)
        assert err.value.history  # residual history attached

    def test_tiny_rate_scales_the_unit_field(self, rect_mesh):
        # |b| is far below the square root of the smallest normal double,
        # so an unscaled norm of b or of a residual underflows to zero
        A = assemble_A(rect_mesh, FlowParams(alpha_f=0.05, beta=0.1))

        def field(Q):
            return solve_pinned(A, -assemble_B_in(rect_mesh) * Q,
                                rect_mesh.well_node)

        Q = 2.9e-285
        unit = field(1.0)
        tiny = field(Q)
        assert (np.linalg.norm(tiny / Q - unit)
                <= 1e-9 * np.linalg.norm(unit))

    def test_inaccurate_first_solve_raises(self, monkeypatch):
        # the first triangular solve is off by 1e-8 relative, a backward
        # error far above 1e-14; there is no refinement step to repair it
        A = sparse.diags([[-1.0] * 4, [4.0] * 5, [-1.0] * 4], [-1, 0, 1],
                         format="csc")
        x_star = np.arange(1.0, 6.0)
        assert np.abs(_solve_spd(A, A @ x_star) - x_star).max() <= 1e-14 * 5.0
        original = fracflow.solvers.splu

        class Inaccurate:
            def __init__(self, lu):
                self.lu, self.calls = lu, 0
                self.perm_r, self.perm_c = lu.perm_r, lu.perm_c

            def solve(self, b):
                self.calls += 1
                x = self.lu.solve(b)
                return x * (1.0 + 1e-8) if self.calls == 1 else x

        monkeypatch.setattr(fracflow.solvers, "splu",
                            lambda A, **kwargs: Inaccurate(original(A, **kwargs)))
        with pytest.raises(SolverError, match="backward error") as err:
            _solve_spd(A, A @ x_star)
        assert err.value.history[-1][0] == "direct"


class TestSolvePss:
    def test_darcy_single_iteration_matches_linear(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.0)
        z, rep = solve_pss(rect_mesh, p, 500.0)
        assert rep.iterations == 1
        lin = solve_pinned(assemble_A(rect_mesh, p),
                           -assemble_B_in(rect_mesh) * 500.0, rect_mesh.well_node)
        rel = np.linalg.norm(z.values - lin) / np.linalg.norm(lin)
        assert rel <= 1e-12

    def test_zero_aperture_takes_one_step(self, bare_mesh):
        _, rep = solve_pss(bare_mesh, FlowParams(alpha_f=0.1, beta=0.5), 500.0)
        assert rep.iterations == 1

    def test_zero_rate_gives_zero_field(self, rect_mesh):
        p = FlowParams(alpha_f=0.1, beta=0.5)
        z, _ = solve_pss(rect_mesh, p, 0.0)
        assert np.abs(z.values).max() == 0.0

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
        assert len(states) == rep.iterations + 1 >= 4
        q = Q / c.line(rect_mesh, p.k_p).volume
        e = np.array([pss_energy(rect_mesh, p, c.full_field(rect_mesh, z, q), Q)
                      for z in states])
        assert np.all(np.diff(e) <= 1e-12 * np.abs(e[1:]))
        assert e[-1] < e[0]

    def test_flux_and_tangent_evaluated_once_per_step(self, rect_mesh, monkeypatch):
        # one evaluation at zero and one per Newton step (the Darcy start
        # included), when no step is cut
        calls = count_calls(monkeypatch, "_forchheimer")
        _, rep = solve_pss(rect_mesh, FlowParams(alpha_f=0.05, beta=0.1), 1000.0)
        assert rep.iterations > 1 and rep.damping_used == 1.0
        assert len(calls) == rep.iterations + 1

    def test_iteration_budget_enforced(self, rect_mesh):
        p = FlowParams(alpha_f=0.01, beta=1.0)
        with pytest.raises(SolverError) as err:
            solve_pss(rect_mesh, p, 1000.0, max_iter=2)
        assert len(err.value.history) == 2


def exact_reduced_line(m, p, q, q_over_v):
    """The reduced slab's solution on its x nodes (edge flux v_e = sum_{j>e}
    b_j), evaluated in long double, the scale of the float64 rounding of the
    closed form at each node (the load's and its suffix sums', carried
    through the Forchheimer law, and the sum of the gradients'), and the
    floor of its underflow.  Below the normal range a product or quotient
    rounds by up to half the smallest subnormal, `tiny`, whatever its size;
    sums round exactly there.  The load rounds the two evaluations of q,
    the division by h and the product with wx; the law alpha v,
    beta |v| (which v scales) and the product with v; the line each
    gradient's product with dx."""
    xs = np.unique(m.nodes[:, 0]).astype(np.longdouble)
    dx = np.diff(xs)
    wx = np.zeros(len(xs), dtype=np.longdouble)
    wx[:-1] += dx / 2
    wx[1:] += dx / 2
    b = wx * (q_over_v - 2 * q(xs) / m.aperture)
    v = np.cumsum(b[:0:-1])[::-1]
    size = np.cumsum(np.abs(b[:0:-1]))[::-1]
    g = p.alpha_f * v + p.beta * np.abs(v) * v
    z = np.concatenate([[0], np.cumsum(g * dx)])
    slack = np.concatenate([[0], np.cumsum(
        ((p.alpha_f + 2 * p.beta * np.abs(v)) * size + np.abs(g)) * dx)])
    tiny = np.longdouble(np.finfo(float).smallest_subnormal) / 2
    b_floor = tiny * (wx * (2 / np.longdouble(m.aperture) + 1) + 1)
    v_floor = np.cumsum(b_floor[:0:-1])[::-1]
    g_floor = (p.alpha_f + 2 * p.beta * np.abs(v)) * v_floor + tiny * (2 + np.abs(v))
    floor = np.concatenate([[0], np.cumsum(g_floor * dx + tiny)])
    return z, slack, floor


def column_line(m, p, rhs):
    """The slab's 1-D line on every node under rhs summed per x column,
    per unit thickness: edge flux v_e = the load beyond edge e, gradient
    alpha v + beta |v| v, summed from the pinned well at x = 0."""
    xs, column = np.unique(m.nodes[:, 0], return_inverse=True)
    b = np.bincount(column, rhs) / m.aperture
    v = np.cumsum(b[:0:-1])[::-1]
    g = p.alpha_f * v + p.beta * np.abs(v) * v
    return np.concatenate([[0.0], np.cumsum(g * np.diff(xs))])[column]


def slab_stiffness(m, p, W, flavor):
    """K(W) of `assemble_slab_residual`: the bulk stiffness at the
    mobility of W's gradients."""
    g = triangle_gradients(m, W.values)
    if flavor == "isotropic":
        return _bulk_stiffness(m, fbeta_iso(np.linalg.norm(g, axis=1), p))
    coef = np.zeros((len(g), 2, 2))
    coef[:, 0, 0] = fbeta_iso(np.abs(g[:, 0]), p)
    coef[:, 1, 1] = 1.0 / p.alpha_f
    return _bulk_stiffness(m, coef)


class TestSolveSlab:
    def test_zero_data_zero_solution(self):
        m = build_fracture_slab_mesh(1.0, 0.1, 8, 4)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        zero = lambda x: 0.0
        for reduced in (False, True):
            W, _ = solve_slab(m, p, "isotropic", zero, zero, 0.0, reduced=reduced)
            assert np.abs(W.values).max() == 0.0

    @pytest.mark.parametrize("flavor", ["isotropic", "anisotropic"])
    def test_darcy_slab_takes_one_step(self, flavor, monkeypatch):
        # the reduced slab is solved in closed form, with no step; the full
        # slab's first step is its linear solve, which meets tol and ends it
        factorizations = count_calls(monkeypatch, "splu")
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 2.0 * (1.0 - x)
        for reduced, steps in ((False, 1), (True, 0)):
            made = len(factorizations)
            _, rep = solve_slab(m, FlowParams(alpha_f=2.0, beta=0.0), flavor,
                                q, q, 0.5, reduced=reduced)
            assert rep.iterations == steps
            assert len(factorizations) - made == steps

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
        assert rep.iterations <= 10
        r = assemble_slab_residual(m, p, W, flavor, q, q, q_over_v)
        # plus the rounding by which the solver's per-triangle residual and
        # this K(W) W - rhs one differ (at most 6e-12 of the load in a
        # 300-sample scan)
        assert (np.linalg.norm(r)
                <= (tol + 1e-10) * np.linalg.norm(slab_rhs(m, q, q, q_over_v)))

    @settings(max_examples=40, deadline=None)
    @given(flavor=st.sampled_from(["isotropic", "anisotropic"]),
           h=st.floats(2e-4, 0.2), beta=st.floats(0.1, 10.0),
           q0=st.floats(-8.0, 8.0), q_over_v=st.floats(-1.0, 1.0))
    def test_thin_slab_converges(self, flavor, h, beta, q0, q_over_v):
        # down to h = 2e-4 the slab's transverse stiffness, k / (h / 8)^2,
        # dwarfs the rest of its tangent; started at the line of its own
        # load, the solve still converges
        m = build_fracture_slab_mesh(1.0, h, 32, 8)
        q = lambda x: q0 * (1.0 - x)
        _, rep = solve_slab(m, FlowParams(alpha_f=1.0, beta=beta), flavor,
                            q, q, q_over_v, tol=1e-10)
        assert rep.final_residual <= 1e-10

    @pytest.mark.parametrize("q0", [4.0, 8.0])
    def test_deep_drag_isotropic_slab_converges(self, q0, monkeypatch):
        # the full slab of the isotropic validate gate at beta = 1
        # (test_validate_isotropic_gate_fails_in_deep_drag_regime)
        m = build_fracture_slab_mesh(1.0, 0.1, 32, 8)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: q0 * (1.0 - x)
        W, rep = solve_slab(m, p, "isotropic", q, q, 0.0, tol=1e-10)
        assert rep.iterations <= 10
        r = assemble_slab_residual(m, p, W, "isotropic", q, q, 0.0)
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(slab_rhs(m, q, q, 0.0))
        # with the gradients split as g(Wbar) + g(W - Wbar) the solve reaches
        # its residual's rounding floor; with a tol below that floor it
        # stalls within a few steps (an update tiny against W that no longer
        # halves the residual), and counts as converged within the floor
        states = record_linearizations(monkeypatch)
        _, rep = solve_slab(m, p, "isotropic", q, q, 0.0, tol=1e-15)
        floor = states[-1].rounding()[1]
        assert rep.iterations <= 10
        assert 1e-15 < rep.final_residual <= floor

    def test_small_update_that_cuts_the_residual_is_no_stall(self):
        # step 2 moves the correction by 6.4e-9 of W, below tol, and cuts the
        # residual from 1.7e-5 to 1.2e-8: Newton is converging, not stalled
        m = build_fracture_slab_mesh(1.0, 0.2421875, 16, 4)
        q = lambda x: -4.0 * (1.0 - x)
        _, rep = solve_slab(m, FlowParams(alpha_f=1.0, beta=7.0), "anisotropic",
                            q, q, 1.0, tol=1e-8)
        assert rep.iterations == 3
        assert rep.final_residual <= 1e-8

    def test_reordered_factor_names_its_first_moved_row(self):
        # at h = 3e-5 the tangent's transverse entries dwarf the rest, and
        # SuperLU moves rows of the first factorization although the
        # diagonal there is of the matrix's size: the pivot it rejected
        # came from cancellation in the elimination, not from a small entry
        m = build_fracture_slab_mesh(1.0, 3e-5, 32, 8)
        q = lambda x: 1e5 * (1.0 - x)
        with pytest.raises(SolverError, match=r"Newton step 1: .* reordered its rows "
                                              r"or columns, first row \d+ of 288") as err:
            solve_slab(m, FlowParams(alpha_f=1.0, beta=1.0), "anisotropic",
                       q, q, 0.0, tol=1e-10)
        kind, entry = err.value.history[-1]
        assert kind == "pivot" and f"first row {entry['row']} of" in str(err.value)
        assert 0 <= entry["row"] < 288
        assert 0 < entry["diagonal"] <= entry["column_max"]
        assert abs(entry["pivot"]) <= 1e-12 * entry["diagonal"]

    def test_strong_contrast_slab_solves(self):
        # where t(|g_x|) << 1/alpha_f the anisotropic tangent is badly
        # scaled; started at the line of its own load, every slab converges
        m = build_fracture_slab_mesh(1, 0.05, 32, 8)
        free = np.setdiff1d(np.arange(m.num_nodes), dirichlet_nodes(m))
        eps = np.finfo(float).eps
        for flavor in ("isotropic", "anisotropic"):
            for q0, beta in [(1e3, 1e3), (1e5, 1.0), (1e5, 1e3), (8.0, 1.0)]:
                p = FlowParams(alpha_f=1.0, beta=beta)
                q = lambda x: q0 * (1.0 - x)
                W, rep = solve_slab(m, p, flavor, q, q, 0.0, tol=1e-10)
                assert rep.final_residual <= 1e-10, (flavor, q0, beta)
                # the oracle's nodal residual K(W) W - rhs reads the float64
                # storage of W: at the three strong-contrast anisotropic
                # slabs |r| / |rhs| is 7.8e-6, 7.7e-7 and 8.4e-4 at any
                # stored W, so a bound on it cannot tell a stall from
                # convergence.  Its componentwise backward error on the free
                # rows, |r_i| / (|K(W)| |W| + |rhs|)_i, can: it is a few
                # units of rounding at a solution
                r = assemble_slab_residual(m, p, W, flavor, q, q, 0.0)
                rhs = slab_rhs(m, q, q, 0.0)
                scale = abs(slab_stiffness(m, p, W, flavor)) @ np.abs(W.values) + np.abs(rhs)
                backward = np.abs(r[free]) / scale[free]
                assert backward.max() <= 4.0 * eps, (flavor, q0, beta, backward.max() / eps)
        # at tol 1e-14 the solve meets the tolerance itself
        p = FlowParams(alpha_f=1.0, beta=1.0)
        for flavor, q0 in [("isotropic", 4.0), ("anisotropic", 2.0)]:
            q = lambda x: q0 * (1.0 - x)
            _, rep = solve_slab(m, p, flavor, q, q, 0.0, tol=1e-14)
            assert rep.final_residual <= 1e-14, (flavor, rep)

    @pytest.mark.parametrize("flavor", ["isotropic", "anisotropic"])
    def test_slab_energy_descends_along_iterates(self, flavor, monkeypatch):
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: 4.0 * (1.0 - x)
        rhs = slab_rhs(m, q, q, 0.5)
        w_bar = column_line(m, p, rhs)
        states = record_accepted_states(monkeypatch)
        _, rep = solve_slab(m, p, flavor, q, q, 0.5, tol=1e-12)
        # the full solve's corrections W - Wbar to the line Wbar of its own
        # load, on the solver's free nodes in its order
        pinned = np.isin(np.arange(m.num_nodes), dirichlet_nodes(m))
        free = _grid_order(m.grid, ~pinned)
        assert len(states) == rep.iterations + 1
        area = m.area
        energies = []
        for delta_free in states:
            w = w_bar.copy()
            w[free] += delta_free
            g = triangle_gradients(m, w)
            if flavor == "isotropic":
                psi = _forchheimer(np.linalg.norm(g, axis=1), p)[2]
            else:
                psi = (_forchheimer(np.abs(g[:, 0]), p)[2]
                       + 0.5 / p.alpha_f * g[:, 1] ** 2)
            energies.append(float(area @ psi - rhs @ w))
        e = np.array(energies)
        assert np.all(np.diff(e) <= 1e-12 * np.abs(e[1:]))
        assert e[-1] < e[1] < e[0]  # e[0] is the energy of Wbar

    def test_full_slab_refills_one_pattern(self, monkeypatch):
        # no constraint elimination: one factorization per Newton step, the
        # first (from the line of the slab's load) included; the last state
        # needs none
        factorizations = count_calls(monkeypatch, "splu")
        eliminations = count_calls(monkeypatch, "apply_constraints")
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 2.0 * (1.0 - x)
        _, rep = solve_slab(m, FlowParams(beta=1.0), "anisotropic", q, q, 0.0)
        assert rep.iterations > 1
        assert len(factorizations) == rep.iterations
        assert eliminations == []

    @pytest.mark.parametrize("flavor", ["isotropic", "anisotropic"])
    def test_basis_gradients_computed_once_per_solve(self, flavor, monkeypatch):
        # every Newton step reuses the solve's one array of them
        passes = []
        original = fracflow.assembly.basis_gradients

        def counting(m):
            passes.append(1)
            return original(m)

        for module in (fracflow.assembly, fracflow.solvers):
            monkeypatch.setattr(module, "basis_gradients", counting)
        m = build_fracture_slab_mesh(1.0, 0.1, 16, 4)
        q = lambda x: 2.0 * (1.0 - x)
        _, rep = solve_slab(m, FlowParams(beta=1.0), flavor, q, q, 0.5)
        assert rep.iterations > 1
        assert len(passes) == 1

    def test_reduced_solution_is_y_independent(self):
        m = build_fracture_slab_mesh(1.0, 0.1, 32, 8)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: 2.0 * (1.0 - x)
        W, _ = solve_slab(m, p, "isotropic", q, q, 1.0, reduced=True)
        assert lq_seminorm(W, m, "y", 2.0) <= 1e-10 * lq_seminorm(W, m, "x", 2.0)

    # the 2-D oracle below reads the rounding of W's storage, about
    # eps |W| / (h / 4) in each gradient, which grows like beta (q0 / h)^2 /
    # h: these ranges keep it below 4e-9 of the load.  Stronger drag is
    # checked against the exact line by test_reduced_solution_is_the_exact_line
    @settings(max_examples=40, deadline=None)
    @given(flavor=st.sampled_from(["isotropic", "anisotropic"]),
           h=st.floats(0.02, 1.0),
           beta=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
           q0=st.floats(-5.0, 5.0), q_over_v=st.floats(-5.0, 5.0),
           nx=st.sampled_from([2, 8, 16, 32, 64]))
    def test_reduced_solution_solves_the_2d_reduced_equations(
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
        W, _ = solve_slab(m, FlowParams(beta=1.0), "anisotropic", q, q, 0.5,
                          reduced=True)
        assert np.abs(W.values).max() > 0.0

    @settings(max_examples=40, deadline=None)
    @given(flavor=st.sampled_from(["isotropic", "anisotropic"]),
           h=st.floats(1e-4, 1.0),
           beta=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
           q0=st.floats(-1e6, 1e6), q_over_v=st.floats(-1e6, 1e6),
           nx=st.sampled_from([2, 8, 32, 128]))
    # a subnormal load: W's nodes round to the subnormal grid
    @example(flavor="isotropic", h=1.0, beta=0.0, q0=2.2250738585e-313,
             q_over_v=0.0, nx=2)
    def test_reduced_solution_is_the_exact_line(self, flavor, h, beta, q0,
                                                q_over_v, nx):
        m = build_fracture_slab_mesh(1.0, h, nx, 4)
        p = FlowParams(alpha_f=1.0, beta=beta)
        q = lambda x: q0 * (1.0 - x)
        W, rep = solve_slab(m, p, flavor, q, q, q_over_v, reduced=True)
        assert rep.iterations == 0
        # the line equations' rounding at n nodes: 2 u n of the load
        assert rep.final_residual <= 1e-13
        z, slack, floor = exact_reduced_line(m, p, q, q_over_v)
        assert np.all(np.abs(W.values[m.grid[0]] - z) <= 1e-13 * slack + floor)

    def test_strong_drag_reduced_slab_returns(self):
        # at |W| ~ 8e11 the rounding of W alone leaves a nodal residual of
        # 8.3e-10 in the line equations, above a 1e-10 Newton tolerance
        m = build_fracture_slab_mesh(1, 0.05, 32, 8)
        p = FlowParams(alpha_f=1.0, beta=1.0)
        q = lambda x: 1e5 * (1.0 - x)
        W, rep = solve_slab(m, p, "isotropic", q, q, 1.0, tol=1e-10, reduced=True)
        assert rep.iterations == 0
        assert rep.final_residual <= 1e-14
        z, slack, floor = exact_reduced_line(m, p, q, 1.0)
        assert np.all(np.abs(W.values[m.grid[0]] - z) <= 1e-13 * slack + floor)
        assert np.abs(z).max() > 1e11

    @pytest.mark.parametrize("q0", [1e200, 1e307], ids=["gradient", "flux"])
    def test_reduced_slab_beyond_the_float_range_raises(self, q0):
        # W (at 1e200) or the edge fluxes themselves (at 1e307) overflow
        m = build_fracture_slab_mesh(1.0, 0.05, 32, 8)
        q = lambda x: q0 * (1.0 - x)
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="reduced slab"):
            solve_slab(m, FlowParams(beta=1.0), "isotropic", q, q, 1.0, reduced=True)

    @pytest.mark.parametrize("flavor, reduced", [
        ("isotropic", False), ("anisotropic", False), ("isotropic", True)],
        ids=["isotropic", "anisotropic", "reduced"])
    def test_manufactured_profile_recovered_at_order_two(self, flavor, reduced):
        # oracle: flux u(x) = -(L - x); gradient -(alpha u + beta |u| u)
        # integrates in closed form from the pinned inlet.  The reduced
        # line's edge flux is u at the edge's midpoint, so its nodes follow
        # the midpoint rule, also of order two
        L, h, alpha, beta = 1.0, 0.5, 1.0, 1.0
        p = FlowParams(alpha_f=alpha, beta=beta)
        zero = lambda x: 0.0

        def exact(x):
            return alpha * (L * x - x * x / 2) + beta * (L ** 3 - (L - x) ** 3) / 3

        errs = []
        for nx in (8, 16, 32):
            m = build_fracture_slab_mesh(L, h, nx, max(2, nx // 2))
            W, _ = solve_slab(m, p, flavor, zero, zero, 1.0, tol=1e-11,
                              reduced=reduced)
            errs.append(l2_field_norm(m, W.values - exact(m.nodes[:, 0])))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(ratios >= 3.5)  # order about 2 for P1
        assert np.all(np.log2(ratios) >= 1.8)


def test_every_factorization_follows_one_recipe(tmp_path, monkeypatch):
    # every sparse factor of a small solve (rectangle and disk), sweep and
    # validate (both slab flavors) is SuperLU in the given order with no
    # pivoting, and comes back with identity permutations
    original = fracflow.solvers.splu
    calls = []

    def recording(A, **kwargs):
        lu = original(A, **kwargs)
        calls.append((kwargs, lu.perm_r, lu.perm_c))
        return lu

    monkeypatch.setattr(fracflow.solvers, "splu", recording)
    rect = {"shape": "rectangle", "width": 20.0, "height": 16.0,
            "fracture_length": 4.0, "aperture": 1.0, "resolution": 2.0}
    disk = {"shape": "disk", "radius": 10.0, "fracture_length": 4.0,
            "aperture": 1.0, "resolution": 1.0}
    slab = dict(rect, fracture_length=1.0, resolution=0.125)
    params = {"alpha_f": 0.05, "beta": 1e-3}
    runs = [
        ("solve", {"domain": rect, "params": params}),
        ("solve", {"domain": disk, "params": params}),
        ("sweep", {"domain": rect, "params": params,
                   "sweep": {"lengths": [2.0, 3.0, 4.0],
                             "betas": [1e-3, 1e-2]}}),
        ("validate", {"domain": slab, "params": {"alpha_f": 1.0, "beta": 1.0},
                      "validate": {"apertures": [0.1]}}),
        ("validate", {"domain": slab, "params": {"alpha_f": 1.0, "beta": 0.1},
                      "validate": {"flavor": "isotropic", "apertures": [0.1],
                                   "q0": 0.1, "scalings": [1.0]}}),
    ]
    for k, (command, config) in enumerate(runs):
        cfg = tmp_path / f"{k}.json"
        cfg.write_text(json.dumps(dict(config, command=command)))
        made = len(calls)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / f"out{k}")]) == 0
        assert len(calls) > made
    for kwargs, perm_r, perm_c in calls:
        assert kwargs == {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
                          "options": {"SymmetricMode": True}}
        identity = np.arange(len(perm_r))
        assert np.array_equal(perm_r, identity)
        assert np.array_equal(perm_c, identity)


def test_criterion_11_validate_factorizes_once_per_full_step(tmp_path, monkeypatch):
    # the acceptance validate configs (criterion 11): each full slab is
    # solved as a correction to the line of its own load, a closed form
    # that factorizes nothing, so it makes 17 factorizations, one per
    # Newton step (32 when every full solve started from the Darcy limit)
    calls = count_calls(monkeypatch, "splu")
    slab = {"shape": "rectangle", "width": 100.0, "height": 80.0,
            "fracture_length": 1.0, "aperture": 1.0, "resolution": 1.0 / 32}
    runs = [
        {"params": {"alpha_f": 1.0, "beta": 1.0},
         "validate": {"flavor": "anisotropic", "apertures": [0.2, 0.1, 0.05],
                      "q0": 2.0}},
        {"params": {"alpha_f": 1.0, "beta": 0.1},
         "validate": {"flavor": "isotropic", "apertures": [0.1], "q0": 0.1,
                      "scalings": [1.0, 2.0, 4.0]}},
    ]
    for k, config in enumerate(runs):
        cfg = tmp_path / f"{k}.json"
        cfg.write_text(json.dumps(dict(config, command="validate", domain=slab)))
        assert main(["validate", "--config", str(cfg),
                     "--out", str(tmp_path / f"out{k}")]) == 0
    assert len(calls) == 17


def test_solve_meets_its_tolerance_where_a_late_step_raises_the_energy(tmp_path):
    # the last Newton step of this trace solve raises the computed energy by
    # more than 1e-14 |E| but less than the rounding of its terms; a line
    # search that halved it stopped on the update test at a residual of
    # 5.4e-7, far above the default tol of 1e-9
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "command": "solve",
        "domain": {"shape": "rectangle", "width": 100.0, "height": 80.0,
                   "aperture": 1.0, "resolution": 0.5, "grading": 1.3,
                   "fracture_length": 50.0},
        "params": {"alpha_f": 0.05, "beta": 1.0},
        "solve": {"q": 1000.0}}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["final_residual"] <= 1e-9
