import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

ALPHA = 0.05
LENGTHS = (4.0, 10.0, 20.0)


@pytest.fixture(scope="module")
def rect_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=10.0, width=60.0,
                      height=48.0, aperture=1.0, resolution=2.0, grading=1.3)
    return build_reservoir_mesh(spec)


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

    def test_field_rebuilt_once_at_the_converged_rate(self, rect_mesh, monkeypatch):
        from fracflow.solvers import BulkCondensation
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
        assert res.outer_iterations > 1 and len(calls) == 1
        z, _ = solve_pss(rect_mesh, p, res.Q, condensation=c)
        assert np.array_equal(res.field.values, z.values)
        assert output_C(rect_mesh, res.field) == pytest.approx(res.PDD, rel=1e-9)

    def test_empty_budget_rejected(self, rect_mesh):
        with pytest.raises(ValueError, match="max_outer"):
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05), 500.0, max_outer=0)

    def test_invalid_target_rejected(self, rect_mesh):
        with pytest.raises(ValueError):
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05), -5.0)

    def test_zero_aperture_is_linear(self, rect_mesh):
        # no fracture term: one step, and the capacity of the bare reservoir
        p = FlowParams(alpha_f=ALPHA, beta=1.0)
        res = solve_setpoint(rect_mesh, p, 500.0, aperture=0.0)
        assert res.outer_iterations == 1
        assert res.PDD == pytest.approx(baseline_pdd(rect_mesh, p, res.Q), rel=1e-12)

    def test_strong_drag_converges_in_few_steps(self, family):
        meshes, c = family
        m = meshes[LENGTHS.index(20.0)]
        target = baseline_pdd(m, FlowParams(alpha_f=ALPHA), 1000.0, condensation=c)
        for beta in (0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
            res = solve_setpoint(m, FlowParams(alpha_f=ALPHA, beta=beta),
                                 target, condensation=c)
            assert res.outer_iterations <= 6, (beta, res.history)


betas = st.one_of(st.just(0.0), st.floats(-6.0, 4.0).map(lambda e: 10.0 ** e))
lengths = st.sampled_from(range(len(LENGTHS)))


def outer_steps_in_bracket(history, target):
    """True if every iterate after the first rate above the target lies
    strictly inside the bracket of the rates before it."""
    lo, hi = 0.0, np.inf
    for Q, pdd in history:
        if np.isfinite(hi) and not lo < Q < hi:
            return False
        if pdd < target:
            lo = max(lo, Q)
        else:
            hi = min(hi, Q)
    return True


class TestSetpointProperties:
    @settings(max_examples=60, deadline=None)
    @given(beta=betas, j=lengths, log_target=st.floats(-2.0, 5.0))
    def test_converges_inside_the_bracket(self, family, beta, j, log_target):
        meshes, c = family
        target = 10.0 ** log_target
        res = solve_setpoint(meshes[j], FlowParams(alpha_f=ALPHA, beta=beta),
                             target, condensation=c)
        assert res.outer_iterations <= 8
        assert abs(res.PDD - target) <= 1e-6 * target
        assert outer_steps_in_bracket(res.history, target), res.history

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
        # each J is exact to the set-point tolerance of 1e-6
        assert J[1] <= J[0] * (1.0 + 4e-6)
