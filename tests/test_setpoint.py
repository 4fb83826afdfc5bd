import pytest

from fracflow import (
    ControlError,
    DomainSpec,
    FlowParams,
    baseline_pdd,
    build_reservoir_mesh,
    solve_setpoint,
    step_response,
)


@pytest.fixture(scope="module")
def rect_mesh():
    spec = DomainSpec(shape="rectangle", fracture_length=10.0, width=60.0,
                      height=48.0, aperture=1.0, resolution=2.0, grading=1.3)
    return build_reservoir_mesh(spec)


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
        # doubled k_f comes from halved alpha_f
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

    def test_empty_budget_rejected(self, rect_mesh):
        with pytest.raises(ValueError, match="max_outer"):
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05), 500.0, max_outer=0)

    def test_invalid_target_rejected(self, rect_mesh):
        with pytest.raises(ValueError):
            solve_setpoint(rect_mesh, FlowParams(alpha_f=0.05), -5.0)
