from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fracflow import (
    ControlError,
    DomainSpec,
    FlowParams,
    baseline_pdd,
    build_reservoir_mesh,
    build_reservoir_mesh_family,
    condense_bulk,
    solve_pss,
    solve_setpoint,
    step_response,
)
from fracflow.assembly import output_C
from fracflow.solvers import BulkCondensation, _gamma, _solve_trace

ALPHA = 0.05
LENGTHS = (4.0, 10.0, 20.0)


@pytest.fixture(scope="module")
def rect_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=10.0, width=60.0,
                      height=48.0, aperture=1.0, resolution=2.0, grading=1.3)
    return build_reservoir_mesh(spec)


@pytest.fixture(scope="module")
def bare_mesh(rect_mesh):
    """rect_mesh at zero aperture: the same nodes, no fracture term."""
    return replace(rect_mesh, aperture=0.0)


@pytest.fixture(scope="module")
def family():
    """Meshes of LENGTHS on one node set, with their shared condensation."""
    spec = DomainSpec(shape="rectangle", fracture_length=20.0, width=60.0,
                      height=48.0, aperture=1.0, resolution=2.0, grading=1.3)
    meshes = build_reservoir_mesh_family(spec, LENGTHS)
    return meshes, condense_bulk(meshes, 1.0)


@pytest.fixture(scope="module")
def disk_mesh():
    spec = DomainSpec(shape="disk", fracture_length=10.0, radius=30.0,
                      aperture=1.0, resolution=2.0, grading=1.3)
    return build_reservoir_mesh(spec)


class TestBaseline:
    def test_zero_rate(self, rect_mesh):
        assert baseline_pdd(rect_mesh, FlowParams(alpha_f=0.05), 0.0) == 0.0

    def test_drawdown_that_rounds_to_zero_or_inf_is_no_target(self, rect_mesh):
        # the gain is 0.58 / k_p: at k_p = 4 a subnormal rate's drawdown
        # rounds to 0, at k_p = 0.1 the largest rates' overflow
        for k_p, Q in [(4.0, 5e-324), (0.1, 1e308)]:
            with pytest.raises(ControlError, match="baseline drawdown"):
                baseline_pdd(rect_mesh, FlowParams(alpha_f=0.05, k_p=k_p), Q)

    def test_linearity(self, rect_mesh):
        p = FlowParams(alpha_f=0.05)
        pdd1 = baseline_pdd(rect_mesh, p, 1000.0)
        pdd2 = baseline_pdd(rect_mesh, p, 2000.0)
        assert pdd2 == pytest.approx(2.0 * pdd1, rel=1e-9)

    def test_order_of_magnitude_on_disk(self, disk_mesh):
        # with unit rock mobility and rate 1000 the drawdown lands in the
        # hundreds-to-thousands range for reservoir-sized disks
        pdd = baseline_pdd(disk_mesh, FlowParams(alpha_f=0.05, k_p=1.0), 1000.0)
        assert 100.0 < pdd < 10000.0


class TestStepResponse:
    def test_gain_positive_and_pinned(self, rect_mesh, disk_mesh):
        for m in (rect_mesh, disk_mesh):
            X, G = step_response(m, FlowParams(alpha_f=0.05))
            assert G > 0
            assert X.values[m.well_node] == 0.0
            assert X.values.min() >= -1e-12  # maximum principle, numerically

    def test_doubling_mobilities_halves_gain(self, rect_mesh):
        p1 = FlowParams(alpha_f=0.05, k_p=1.0)
        # the doubled fracture mobility 1/alpha_f comes from halved alpha_f
        p2 = FlowParams(alpha_f=0.025, k_p=2.0)
        _, G1 = step_response(rect_mesh, p1)
        _, G2 = step_response(rect_mesh, p2)
        assert G2 == pytest.approx(G1 / 2.0, rel=1e-9)


class TestSetpoint:
    def test_linear_case_one_iteration(self, rect_mesh):
        p = FlowParams(alpha_f=0.05, beta=0.0)
        _, G = step_response(rect_mesh, p)
        target = 500.0
        res = solve_setpoint(rect_mesh, p, target)
        assert res.outer_iterations == 1
        assert res.Q == pytest.approx(target / G, rel=1e-9)
        assert res.PDD == pytest.approx(target, rel=1e-6)

    def test_nonlinear_convergence_and_capacity_drop(self, rect_mesh):
        target = baseline_pdd(rect_mesh, FlowParams(alpha_f=0.05), 1000.0)
        res0 = solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05, beta=0.0), target)
        res1 = solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05, beta=1e-3), target)
        assert abs(res1.PDD - target) <= 1e-6 * target
        assert res1.J_p < res0.J_p
        assert res1.J_p == pytest.approx(res1.Q / res1.PDD, rel=1e-12)

    def test_capacity_independent_of_target_in_linear_case(self, rect_mesh):
        p = FlowParams(alpha_f=0.05, beta=0.0)
        j = [solve_setpoint(rect_mesh, p, t).J_p for t in (200.0, 400.0, 800.0)]
        assert max(j) - min(j) <= 1e-9 * max(j)

    def test_history_matches_iterations(self, rect_mesh):
        p = FlowParams(alpha_f=0.05, beta=1e-3)
        target = baseline_pdd(rect_mesh, p, 1000.0)
        res = solve_setpoint(rect_mesh, p, target)
        assert len(res.history) == res.outer_iterations
        qs, pdds = zip(*res.history)
        assert pdds[-1] == pytest.approx(res.PDD)

    def test_budget_exhaustion_raises_with_history(self, rect_mesh):
        p = FlowParams(alpha_f=0.05, beta=1e-1)
        target = baseline_pdd(rect_mesh, p, 1000.0)
        with pytest.raises(ControlError) as err:
            solve_setpoint(rect_mesh, p, target, max_outer=2)
        assert len(err.value.history) == 2

    def test_returns_the_rate_and_builds_no_field(self, rect_mesh, monkeypatch):
        p = FlowParams(alpha_f=0.05, beta=1e-2)
        c = condense_bulk(rect_mesh, p.k_p)
        target = baseline_pdd(rect_mesh, p, 1000.0, condensation=c)
        calls = []
        full_field = BulkCondensation.full_field

        def counting(self, *args):
            calls.append(1)
            return full_field(self, *args)

        monkeypatch.setattr(BulkCondensation, "full_field", counting)
        res = solve_setpoint(rect_mesh, p, target, condensation=c)
        assert res.outer_iterations > 1 and calls == []
        # the field at the rate is the forward solve's
        z, _ = solve_pss(rect_mesh, p, res.Q, condensation=c)
        assert output_C(rect_mesh, z) == pytest.approx(res.PDD, rel=1e-9)

    def test_empty_budget_rejected(self, rect_mesh):
        with pytest.raises(ValueError, match="max_outer"):
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05), 500.0, max_outer=0)

    def test_drawdown_beyond_its_rounding_raises(self, rect_mesh, monkeypatch):
        # every step meets the target to the rounding of its terms; a
        # drawdown off by 1e-12 of it is no rounding
        output = BulkCondensation.output
        monkeypatch.setattr(BulkCondensation, "output",
                            lambda self, *args: output(self, *args) * (1.0 + 1e-12))
        with pytest.raises(ControlError, match="misses the target") as err:
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05, beta=1e-3), 500.0)
        assert len(err.value.history) >= 1

    def test_tolerance_and_budget_are_keyword_only(self, rect_mesh):
        # a positional drawdown tol of the retired signature fails, rather
        # than becoming the Newton tolerance
        with pytest.raises(TypeError):
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05), 500.0, 1e-6)

    def test_invalid_target_rejected(self, rect_mesh):
        with pytest.raises(ValueError):
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05), -5.0)

    def test_volume_without_a_float_square_is_a_control_error(self, rect_mesh):
        # aperture 1e300: the square of the line's volume overflows
        with pytest.raises(ControlError, match="no float square"):
            solve_setpoint(replace(rect_mesh, aperture=1e300),
                           FlowParams(alpha_f=0.05), 1.0)

    def test_zero_aperture_is_linear(self, rect_mesh, bare_mesh):
        # no fracture term: one step, and the capacity of the bare reservoir
        p = FlowParams(alpha_f=ALPHA, beta=1.0)
        res = solve_setpoint(bare_mesh, p, 500.0)
        assert res.outer_iterations == 1
        assert res.PDD == pytest.approx(baseline_pdd(rect_mesh, p, res.Q), rel=1e-12)

    def test_strong_drag_converges_in_few_steps(self, family):
        meshes, c = family
        m = meshes[LENGTHS.index(20.0)]
        target = baseline_pdd(m, FlowParams(alpha_f=ALPHA), 1000.0, condensation=c)
        for beta in (0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
            res = solve_setpoint(m, FlowParams(alpha_f=ALPHA, beta=beta),
                                 target, condensation=c)
            assert res.outer_iterations <= 4, (beta, res.history)


betas = st.one_of(st.just(0.0), st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e))
lengths = st.sampled_from(range(len(LENGTHS)))
# the meshes of LENGTHS, the disk and aperture 0
CASES = [f"L={L:g}" for L in LENGTHS] + ["disk", "bare"]


@pytest.fixture(scope="module")
def cases(family, disk_mesh, bare_mesh):
    """Each of CASES with the condensation of its node set."""
    meshes, c = family
    out = {f"L={L:g}": (m, c) for L, m in zip(LENGTHS, meshes)}
    out["disk"] = (disk_mesh, condense_bulk(disk_mesh, 1.0))
    out["bare"] = (bare_mesh, condense_bulk(bare_mesh, 1.0))
    return out


def reference_rate(m, c, p, target):
    """The rate whose forward trace solve meets the target drawdown, by
    Brent's method on [0, 2 target / G]: PDD(Q) increases from 0, and drag
    only raises it above the linear G Q."""
    line = c.line(m, p.k_p)
    _, G = step_response(m, p, condensation=c)

    def miss(Q):
        q = Q / line.volume
        z, _ = _solve_trace(c, line, p, q, 1e-13, 100)
        return c.output(line, z, q) - target

    return brentq(miss, 0.0, 2.0 * target / G, xtol=1e-300, rtol=1e-13)


class TestSetpointProperties:
    @settings(max_examples=60, deadline=None)
    @given(beta=betas, case=st.sampled_from(CASES), log_target=st.floats(-2.0, 5.0))
    def test_matches_a_bracketed_root_find(self, cases, beta, case, log_target):
        m, c = cases[case]
        p = FlowParams(alpha_f=ALPHA, beta=beta)
        target = 10.0 ** log_target
        res = solve_setpoint(m, p, target, condensation=c)
        assert res.Q == pytest.approx(reference_rate(m, c, p, target), rel=2e-6)
        assert abs(res.PDD - target) <= 1e-12 * target
        assert res.outer_iterations <= 5, res.history  # the Darcy start included
        # every step's drawdown meets the target within the rounding of its
        # terms w . z = V C - q m_I . u and q m_I . u (`solve_setpoint`)
        line = c.line(m, p.k_p)
        V, gamma = line.volume, _gamma(len(line.weights) + 6)
        for Q, pdd in res.history:
            qm = Q / V * c.mIu
            assert abs(pdd - target) <= gamma * (abs(V * pdd - qm) + abs(qm)) / V

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["rect", "disk", "bare"]),
           log_k=st.floats(-3.0, 3.0), log_alpha=st.floats(-3.0, 2.0))
    def test_slope_at_rest_is_the_step_response_gain(
            self, rect_mesh, disk_mesh, bare_mesh, shape, log_k, log_alpha):
        # at beta = 0 the drawdown is the gain G of the linear step response
        # times the rate, so the set-point, solved on the hyperplane
        # C = target, is the rate target / G, in its one step
        m = {"rect": rect_mesh, "disk": disk_mesh, "bare": bare_mesh}[shape]
        p = FlowParams(alpha_f=10.0 ** log_alpha, beta=0.0, k_p=10.0 ** log_k)
        c = condense_bulk(m, p.k_p)
        _, G = step_response(m, p, condensation=c)
        res = solve_setpoint(m, p, 500.0, condensation=c)
        assert res.outer_iterations == 1
        assert res.Q == pytest.approx(500.0 / G, rel=1e-12, abs=0.0)

    @settings(max_examples=25, deadline=None)
    @given(beta=betas, j=lengths)
    def test_drawdown_increases_with_rate(self, family, beta, j):
        meshes, c = family
        p = FlowParams(alpha_f=ALPHA, beta=beta)
        pdd = [output_C(meshes[j], solve_pss(meshes[j], p, Q, condensation=c)[0])
               for Q in np.logspace(0.0, 5.0, 9)]
        assert np.all(np.diff(pdd) > 0), pdd

    @settings(max_examples=25, deadline=None)
    @given(b1=betas, b2=betas, j=lengths, log_target=st.floats(0.0, 4.0))
    def test_capacity_falls_with_drag(self, family, b1, b2, j, log_target):
        meshes, c = family
        lo, hi = sorted((b1, b2))
        J = [solve_setpoint(meshes[j], FlowParams(alpha_f=ALPHA, beta=b),
                            10.0 ** log_target, condensation=c).J_p for b in (lo, hi)]
        # each J is its rate over the target, the rate within 2e-6 of a root find
        assert J[1] <= J[0] * (1.0 + 4e-6)
