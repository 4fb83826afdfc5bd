import numpy as np
import pytest

from fracflow import DomainSpec, FlowParams, SweepTable, run_sweep, trend_check

# cross-check capacity table for a cylindrical reservoir (external
# study): rows are drag coefficients 1e-5..1e-1, columns are fracture
# lengths 10..50
CYL_L = [10.0, 20.0, 30.0, 40.0, 50.0]
CYL_BETA = [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
CYL_J = np.array([
    [2.2345, 2.6668, 2.9045, 3.0218, 3.0740],
    [1.8451, 1.9418, 1.9868, 1.9972, 1.9957],
    [1.4121, 1.4163, 1.4287, 1.4235, 1.4158],
    [1.1911, 1.1834, 1.1964, 1.1898, 1.1820],
    [1.1524, 1.1451, 1.1627, 1.1566, 1.1483],
])


def table_from(J, L=CYL_L, betas=CYL_BETA, pdd=988.06):
    J = np.asarray(J, dtype=float)
    return SweepTable(list(L), list(betas), J, J * pdd,
                      np.ones(J.shape, dtype=int), [], {"PDD_star": pdd})


class TestTrendCheck:
    def test_reference_cylindrical_table_passes(self):
        diag = trend_check(table_from(CYL_J))
        assert diag.increasing_with_length
        assert diag.decreasing_with_drag
        assert diag.saturated
        assert diag.passed and not diag.indeterminate
        # late-length gain at the largest drag is negative, at the
        # smallest drag clearly positive
        assert diag.ratio_largest_beta < 0 < diag.ratio_smallest_beta

    def test_constant_table_passes_with_flag(self):
        diag = trend_check(table_from(np.ones((5, 5))))
        assert diag.passed
        assert diag.indeterminate

    def test_drag_violation_reported_with_cells(self):
        J = CYL_J.copy()
        J[3, 2] = J[2, 2] + 0.5  # capacity rising with drag at L = 30
        diag = trend_check(table_from(J))
        assert not diag.decreasing_with_drag
        assert (3, 2) in diag.offending_drag_cells
        assert not diag.passed

    def test_length_violation_reported(self):
        J = CYL_J.copy()
        J[0, 3] = J[0, 2] - 0.5
        diag = trend_check(table_from(J))
        assert not diag.increasing_with_length
        assert diag.offending_length_cells

    def test_preconditions(self):
        with pytest.raises(ValueError):
            trend_check(table_from(CYL_J[:, :2], L=CYL_L[:2]))
        broken = table_from(CYL_J)
        broken = SweepTable(broken.L_values, broken.beta_values, broken.J,
                            broken.Q, broken.outer_iterations,
                            [(0, 0, "diverged")], broken.meta)
        with pytest.raises(ValueError):
            trend_check(broken)


@pytest.fixture(scope="module")
def small_sweep():
    spec = DomainSpec(shape="rectangle", fracture_length=12.0, width=60.0,
                      height=48.0, aperture=1.0, resolution=2.0, grading=1.3)
    p = FlowParams(alpha_f=0.05, beta=0.0, k_p=1.0)
    return spec, p, run_sweep(spec, [4.0, 8.0, 12.0], [1e-5, 1e-3, 1e-1],
                              1000.0, p)


class TestRunSweep:
    def test_capacity_rate_consistency(self, small_sweep):
        _, _, t = small_sweep
        assert not t.failed
        pdd = t.meta["PDD_star"]
        assert np.all(np.abs(t.J * pdd - t.Q) <= 1e-9 * np.abs(t.Q))

    def test_fracture_always_helps(self, small_sweep):
        _, _, t = small_sweep
        assert np.all(t.J > t.meta["J_star"])

    def test_trends_on_computed_table(self, small_sweep):
        _, _, t = small_sweep
        assert trend_check(t).passed

    def test_saturated_row_nearly_flat_in_length(self, small_sweep):
        # at the strongest drag (4 decades above the weakest) the capacity
        # barely responds to fracture length
        _, _, t = small_sweep
        row = t.J[-1]
        assert row.max() - row.min() < 0.15 * row.mean()

    def test_deterministic(self, small_sweep):
        spec, p, t = small_sweep
        again = run_sweep(spec, [4.0, 8.0, 12.0], [1e-5, 1e-3, 1e-1], 1000.0, p)
        np.testing.assert_array_equal(t.J, again.J)
        np.testing.assert_array_equal(t.Q, again.Q)

    def test_failed_cells_recorded_not_raised(self):
        spec = DomainSpec(shape="rectangle", fracture_length=8.0, width=60.0,
                          height=48.0, aperture=1.0, resolution=2.0, grading=1.3)
        p = FlowParams(alpha_f=0.05, beta=0.0)
        t = run_sweep(spec, [4.0, 8.0], [1e-1], 1000.0, p, max_outer=2)
        assert len(t.failed) == 2
        assert np.all(np.isnan(t.J))
        assert t.meta["failed_cells"] == 2

    @pytest.mark.parametrize("lengths, betas", [
        ([2.0, 2.0, 6.0], [0.0, 1e-3]), ([2.0, 4.0, 6.0], [1e-3, 1e-3])],
        ids=["duplicate-lengths", "duplicate-betas"])
    def test_trend_check_needs_distinct_axes(self, lengths, betas):
        # a repeated length makes the early gain J(L1) - J(L0) zero, which
        # would pass the check as indeterminate
        spec = DomainSpec(shape="rectangle", fracture_length=6.0, width=20.0,
                          height=16.0, aperture=1.0, resolution=1.0)
        t = run_sweep(spec, lengths, betas, 1000.0, FlowParams(alpha_f=0.05))
        assert not t.failed
        with pytest.raises(ValueError, match="distinct"):
            trend_check(t)

    def test_empty_lists_rejected(self):
        spec = DomainSpec(shape="rectangle", fracture_length=8.0, width=60.0,
                          height=48.0, resolution=2.0)
        with pytest.raises(ValueError):
            run_sweep(spec, [], [1e-3], 1000.0, FlowParams())
