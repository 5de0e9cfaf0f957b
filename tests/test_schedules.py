import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se3diffuse import igso3, schedules

TS = schedules.TranslationSchedule()
RS_LOG = schedules.RotationSchedule()
RS_LIN = schedules.RotationSchedule(kind="linear")


class TestBeta:
    def test_endpoints(self):
        assert schedules.beta(0.0, TS) == 0.1
        assert schedules.beta(1.0, TS) == 20.0

    def test_midpoint(self):
        assert np.isclose(schedules.beta(0.5, TS), 10.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            schedules.TranslationSchedule(beta_min=2.0, beta_max=1.0)


class TestGx:
    def test_zero_at_origin(self):
        assert schedules.G_x(0.0, TS) == 0.0

    def test_value_at_one(self):
        assert np.isclose(schedules.G_x(1.0, TS), 10.05)

    def test_derivative_is_beta(self):
        s = np.linspace(0.01, 0.99, 100)
        h = 1e-5
        fd = (schedules.G_x(s + h, TS) - schedules.G_x(s - h, TS)) / (2 * h)
        assert np.abs(fd - schedules.beta(s, TS)).max() < 1e-8


class TestTransMarginal:
    def test_small_time_limits(self):
        x0 = np.array([1.0, -2.0, 0.5])
        m = schedules.trans_marginal(x0, 1e-8, TS)
        assert np.abs(m.mean - x0).max() < 1e-8
        assert m.variance < 1e-8

    def test_terminal_variance(self):
        m = schedules.trans_marginal(np.zeros(3), 1.0, TS)
        assert np.isclose(m.variance, 1.0 - np.exp(-10.05))
        assert m.variance > 0.99995

    def test_composition_in_distribution(self, rng):
        # Chaining the OU transition s1 -> s2 on top of the s1 marginal
        # reproduces the s2 marginal (matched moments, 3 standard errors).
        x0 = np.array([0.8, -0.3, 1.1])
        s1, s2 = 0.3, 0.7
        n = 200_000
        m1 = schedules.trans_marginal(x0, s1, TS)
        stage1 = m1.mean + np.sqrt(m1.variance) * rng.standard_normal((n, 3))
        dg = float(schedules.G_x(s2, TS) - schedules.G_x(s1, TS))
        stage2 = stage1 * np.exp(-dg / 2) + np.sqrt(1 - np.exp(-dg)) * (
            rng.standard_normal((n, 3))
        )
        m2 = schedules.trans_marginal(x0, s2, TS)
        se_mean = np.sqrt(m2.variance / n)
        assert np.abs(stage2.mean(0) - m2.mean).max() < 3 * se_mean
        se_var = m2.variance * np.sqrt(2.0 / (n - 1))
        assert np.abs(stage2.var(0) - m2.variance).max() < 3 * se_var


class TestTransScore:
    def test_zero_at_mean(self):
        x0 = np.array([1.0, 2.0, 3.0])
        mean = schedules.trans_marginal(x0, 0.4, TS).mean
        assert np.abs(schedules.trans_conditional_score(x0, mean, 0.4, TS)).max() == 0.0

    def test_matches_fd_gradient_of_log_gaussian(self):
        x0 = np.array([0.5, -1.0, 2.0])
        xt = np.array([0.1, 0.3, -0.4])
        s = 0.6
        m = schedules.trans_marginal(x0, s, TS)

        def log_density(x):
            return -0.5 * np.sum((x - m.mean) ** 2) / m.variance

        h = 1e-6
        fd = np.array(
            [
                (log_density(xt + h * e) - log_density(xt - h * e)) / (2 * h)
                for e in np.eye(3)
            ]
        )
        score = schedules.trans_conditional_score(x0, xt, s, TS)
        assert np.abs(score - fd).max() < 1e-8

    def test_standard_normal_limit(self):
        xt = np.array([0.3, -0.6, 0.9])
        score = schedules.trans_conditional_score(np.zeros(3), xt, 1.0, TS)
        assert np.abs(score + xt).max() < 1e-4

    def test_denoised_inversion(self):
        x0 = np.array([0.4, 0.7, -0.2])
        xt = np.array([-0.1, 0.2, 0.3])
        score = schedules.trans_conditional_score(x0, xt, 0.5, TS)
        back = schedules.denoised_from_trans_score(score, xt, 0.5, TS)
        assert np.abs(back - x0).max() < 1e-12


class TestSigmaR:
    def test_endpoints_exact_both_kinds(self):
        for rs in (RS_LOG, RS_LIN):
            assert schedules.sigma_r(0.0, rs) == rs.sigma_min
            assert schedules.sigma_r(1.0, rs) == rs.sigma_max

    def test_strictly_increasing(self):
        s = np.linspace(0.0, 1.0, 1000)
        for rs in (RS_LOG, RS_LIN):
            assert np.all(np.diff(schedules.sigma_r(s, rs)) > 0)

    def test_terminal_variance(self):
        assert schedules.rot_variance(1.0, RS_LOG) == 2.25

    def test_validation(self):
        with pytest.raises(ValueError):
            schedules.RotationSchedule(kind="cosine")

    def test_logarithmic_sigma_max_below_exp_overflow(self):
        limit = np.log(np.finfo(float).max)
        for sigma_max in (limit, 1000.0):
            with pytest.raises(ValueError, match="overflows"):
                schedules.RotationSchedule(sigma_max=sigma_max)
        s = np.linspace(0.0, 1.0, 11)
        for rs in (schedules.RotationSchedule(sigma_max=709.0),
                   schedules.RotationSchedule(sigma_max=1000.0, kind="linear")):
            assert np.isfinite(schedules.sigma_r(s, rs)).all()
            assert np.isfinite(schedules.g_r(s, rs)).all()


class TestGr:
    @pytest.mark.parametrize("rs", [RS_LOG, RS_LIN])
    def test_squared_matches_variance_derivative(self, rs):
        s = np.linspace(0.01, 0.99, 100)
        h = 1e-4
        fd = (schedules.rot_variance(s + h, rs) - schedules.rot_variance(s - h, rs)) / (
            2 * h
        )
        assert np.abs(schedules.g_r(s, rs) ** 2 - fd).max() < 1e-6

    def test_positive(self):
        s = np.linspace(0.001, 1.0, 200)
        assert np.all(schedules.g_r(s, RS_LOG) > 0)

    def test_log_variance_dominates_linear(self):
        # The slower-decaying logarithmic schedule keeps more variance at
        # every interior time than the linear one (equal endpoints).
        s = np.linspace(0.0, 1.0, 501)
        v_log = schedules.rot_variance(s, RS_LOG)
        v_lin = schedules.rot_variance(s, RS_LIN)
        assert np.all(v_log[1:-1] >= v_lin[1:-1])
        assert v_log[0] == v_lin[0] and v_log[-1] == v_lin[-1]


class TestDSMWeights:
    def test_rotation_weight_inverts_expected_norm(self):
        lam_r, _ = schedules.dsm_weights(0.5)
        var = float(schedules.rot_variance(0.5, RS_LOG))
        assert np.isclose(lam_r * igso3.expected_score_norm_sq(var), 1.0)

    def test_translation_weight_unit_schedule_form(self):
        # With an accumulated rate G(t) ~= t the weight reduces to
        # (1 - e^-t) / e^(-t/2).
        near_unit = schedules.TranslationSchedule(beta_min=1.0 - 1e-9, beta_max=1.0 + 1e-9)
        for t in (0.2, 0.5, 0.9):
            _, lam_x = schedules.dsm_weights(t, ts=near_unit)
            expected = (1.0 - np.exp(-t)) / np.exp(-t / 2.0)
            assert abs(lam_x - expected) < 1e-8

    def test_translation_weight_vanishes_at_zero(self):
        _, lam_x = schedules.dsm_weights(1e-9)
        assert lam_x < 1e-8

    @given(st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_weights_positive(self, t):
        lam_r, lam_x = schedules.dsm_weights(t)
        assert lam_r > 0 and lam_x > 0
