import numpy as np
import pytest

from fracflow import (
    FlowParams,
    fbeta_aniso,
    fbeta_iso,
    forchheimer_inverse_1d,
    g_aux,
    indicator_H,
    monotonicity_gap,
)


def test_flowparams_defaults_linearize_at_zero_gradient():
    p = FlowParams(alpha_f=4.0, beta=2.0)
    assert p.aniso_k == 0.25
    assert FlowParams(alpha_f=4.0, beta=2.0, aniso_k=3.0).aniso_k == 3.0


@pytest.mark.parametrize("kwargs", [
    dict(alpha_f=0.0), dict(alpha_f=-1.0), dict(beta=-1.0),
    dict(k_p=0.0), dict(aniso_k=float("nan")), dict(aniso_k=0.0),
    dict(alpha_f=float("nan")), dict(beta=float("inf")),
])
def test_flowparams_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FlowParams(**kwargs)


class TestFbetaIso:
    def test_darcy_limit(self):
        assert fbeta_iso(5.0, FlowParams(alpha_f=2.0, beta=0.0)) == 0.5

    def test_hand_value(self):
        # sqrt(1 + 8) = 3 exactly
        assert fbeta_iso(2.0, FlowParams(alpha_f=1.0, beta=1.0)) == 0.5

    def test_quadratic_identity(self):
        rng = np.random.default_rng(7)
        p = FlowParams(alpha_f=0.37, beta=2.9)
        z = 10.0 ** rng.uniform(-6, 12, 5000)
        f = fbeta_iso(z, p)
        resid = np.abs(p.beta * z * f * f + p.alpha_f * f - 1.0)
        assert np.all(resid <= 1e-12 * (1.0 + p.alpha_f * f))

    def test_bounds_and_monotonicity(self):
        p = FlowParams(alpha_f=2.0, beta=3.0)
        z = np.sort(np.concatenate([[0.0], 10.0 ** np.linspace(-8, 8, 200)]))
        f = fbeta_iso(z, p)
        assert np.all(f > 0) and np.all(f <= 1.0 / p.alpha_f)
        assert f[0] == 1.0 / p.alpha_f
        assert np.all(np.diff(f) < 0)  # strictly decreasing for beta > 0
        assert np.all(np.diff(f * z) > 0)  # flux map strictly increasing

    def test_rejects_bad_input(self):
        p = FlowParams()
        with pytest.raises(ValueError):
            fbeta_iso(-1.0, p)
        with pytest.raises(ValueError):
            fbeta_iso(float("nan"), p)


class TestFbetaAniso:
    def test_zero_axial_gradient(self):
        p = FlowParams(alpha_f=1.0, beta=1.0, aniso_k=3.0)
        T = fbeta_aniso(np.array([0.0, 123.4]), p)
        assert np.array_equal(T, np.diag([1.0, 3.0]))

    def test_hand_value(self):
        p = FlowParams(alpha_f=1.0, beta=1.0, aniso_k=3.0)
        T = fbeta_aniso(np.array([2.0, 7.0]), p)
        assert np.array_equal(T, np.diag([0.5, 3.0]))

    def test_even_in_axial_component(self):
        p = FlowParams(alpha_f=1.3, beta=0.7, aniso_k=2.0)
        Tp = fbeta_aniso(np.array([2.0, 0.0]), p)
        Tm = fbeta_aniso(np.array([-2.0, 0.0]), p)
        assert np.array_equal(Tp, Tm)

    def test_transverse_entry_ignores_gradient(self):
        rng = np.random.default_rng(3)
        p = FlowParams(alpha_f=1.0, beta=2.0, aniso_k=5.5)
        for _ in range(20):
            g = rng.normal(size=2) * 100
            assert fbeta_aniso(g, p)[1, 1] == 5.5

    def test_shape_check(self):
        with pytest.raises(ValueError):
            fbeta_aniso(np.array([1.0, 2.0, 3.0]), FlowParams())


class TestForchheimerInverse:
    def test_zero(self):
        assert forchheimer_inverse_1d(0.0, FlowParams(alpha_f=1.0, beta=1.0)) == 0.0

    def test_hand_value_and_round_trip(self):
        p = FlowParams(alpha_f=1.0, beta=1.0)
        g = forchheimer_inverse_1d(0.5, p)
        assert g == -0.75
        assert -fbeta_iso(abs(g), p) * g == pytest.approx(0.5, rel=1e-14)

    def test_odd_symmetry(self):
        p = FlowParams(alpha_f=1.0, beta=1.0)
        assert forchheimer_inverse_1d(-0.5, p) == 0.75

    def test_round_trip_identity_random(self):
        rng = np.random.default_rng(11)
        p = FlowParams(alpha_f=0.05, beta=13.0)
        v = rng.uniform(-1e4, 1e4, 20000)
        g = forchheimer_inverse_1d(v, p)
        back = -fbeta_iso(np.abs(g), p) * g
        assert np.all(np.abs(back - v) <= 1e-12 * np.maximum(1.0, np.abs(v)))


class TestGAux:
    def test_values(self):
        assert g_aux(0.0) == 0.0
        assert g_aux(3.0) == 1.0
        assert g_aux(-3.0) == -1.0

    def test_derivative_bound(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(-1e6, 1e6, 100000)
        v = rng.uniform(-1e6, 1e6, 100000)
        lhs = np.abs(g_aux(u) - g_aux(v))
        assert np.all(lhs <= 0.5 * np.abs(u - v) * (1 + 1e-12) + 1e-15)


class TestMonotonicityGap:
    def test_identical_arguments(self):
        assert monotonicity_gap(3.3, 3.3, FlowParams(alpha_f=1.0, beta=2.0)) == 0.0

    def test_darcy_hand_value(self):
        assert monotonicity_gap(1.0, 0.0, FlowParams(alpha_f=1.0, beta=0.0)) == 0.5

    def test_nonnegative_random(self):
        rng = np.random.default_rng(17)
        p = FlowParams(alpha_f=0.8, beta=3.0)
        e1 = rng.uniform(-1e6, 1e6, 100000)
        e2 = rng.uniform(-1e6, 1e6, 100000)
        gap = monotonicity_gap(e1, e2, p)
        assert np.all(gap >= -1e-12 * np.maximum(1.0, np.maximum(np.abs(e1), np.abs(e2))))


class TestIndicatorH:
    def test_examples(self):
        p = FlowParams(alpha_f=1.0, beta=1.0)
        assert indicator_H(0.0, 0.0, p) == 0
        assert indicator_H(6.0, 0.0, p) == 1  # threshold inclusive
        assert indicator_H(0.0, -7.0, p) == 1

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            indicator_H(1.0, 1.0, FlowParams(alpha_f=1.0, beta=0.0))

    def test_partition(self):
        rng = np.random.default_rng(23)
        p = FlowParams(alpha_f=1.2, beta=0.4)
        z = rng.uniform(-50, 50, 1000)
        e = rng.uniform(-50, 50, 1000)
        H = indicator_H(z, e, p)
        assert np.array_equal(H * (1 - H), np.zeros_like(H))
        assert set(np.unique(H)) <= {0, 1}
