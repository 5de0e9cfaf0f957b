import math

import numpy as np
import pytest
from scipy import stats

from se3diffuse import igso3, so3

CFG = igso3.DEFAULT_CONFIG


def brute_force_f(omega, t, n_terms):
    """Independent termwise partial sum, scalar arithmetic only, exactly summed."""
    terms = []
    for ell in range(n_terms):
        weight = (2 * ell + 1) * math.exp(-ell * (ell + 1) * t / 2.0)
        if omega == 0.0:
            terms.append(weight * (2 * ell + 1))
        else:
            terms.append(weight * math.sin((ell + 0.5) * omega) / math.sin(omega / 2.0))
    return math.fsum(terms)


def brute_force_series(omega, t, n_terms):
    """Termwise partial sums of f and df/dw on an angle array.

    Each term is formed on its own and each angle's terms are summed with
    ``math.fsum``, so the oracle adds no rounding of its own to the sum.
    """
    omega = np.asarray(omega, dtype=float)
    zero = omega == 0.0
    w = np.where(zero, 1.0, omega)
    half = w / 2.0
    f_terms = np.empty((n_terms, omega.size))
    df_terms = np.empty((n_terms, omega.size))
    for ell in range(n_terms):
        weight = (2 * ell + 1) * math.exp(-ell * (ell + 1) * t / 2.0)
        a = ell + 0.5
        f_term = np.sin(a * w) / np.sin(half)
        df_term = (
            a * np.cos(a * w) * np.sin(half) - 0.5 * np.cos(half) * np.sin(a * w)
        ) / np.sin(half) ** 2
        f_terms[ell] = weight * np.where(zero, 2 * ell + 1, f_term)
        df_terms[ell] = weight * np.where(zero, 0.0, df_term)
    f = np.array([math.fsum(col) for col in f_terms.T])
    df = np.array([math.fsum(col) for col in df_terms.T])
    return f, df


def trapezoid_cdf(f, grid):
    """Normalized trapezoidal angle CDF of a clamped density, as tables build it."""
    pdf = np.clip(f, 0.0, None) * (1.0 - np.cos(grid)) / np.pi
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
    return cdf / cdf[-1]


def angle_marginal_integral(t, n_points=10_000, cfg=CFG):
    """Quadrature oracle: trapezoid of f(w,t)(1-cos w)/pi on a fresh grid."""
    grid = np.linspace(0.0, np.pi, n_points)
    f = np.clip(igso3.f_igso3(grid, t, cfg), 0.0, None)
    return np.trapezoid(f * (1.0 - np.cos(grid)) / np.pi, grid)


class TestSeries:
    def test_flat_limit_values(self):
        for omega in (0.5, 1.5, 3.0):
            assert abs(igso3.f_igso3(omega, 50.0) - 1.0) < 1e-6

    def test_limit_matches_brute_force_partial_sum(self):
        expected = brute_force_f(0.0, 1.0, 400)
        assert abs(igso3.f_igso3(1e-9, 1.0) - expected) < 1e-10
        assert abs(igso3.f_igso3(0.0, 1.0) - expected) < 1e-10

    def test_generic_point_matches_brute_force(self):
        assert abs(igso3.f_igso3(0.9, 0.5) - brute_force_f(0.9, 0.5, 400)) < 1e-10

    def test_default_truncation(self):
        assert igso3.TruncationConfig().series_terms == 2000

    def test_rejects_small_time(self):
        with pytest.raises(igso3.NumericalDomainError):
            igso3.f_igso3(1.0, 0.001)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            igso3.TruncationConfig(omega_eps=0.1)
        with pytest.raises(ValueError):
            igso3.TruncationConfig(series_terms=0)


class TestTruncation:
    def test_default_term_count(self):
        assert igso3._term_count(CFG) == 88

    @pytest.mark.parametrize("t", [CFG.t_min, 0.1, 1.0, 2.25])
    def test_matches_full_sum(self, t):
        table = igso3.build_table(t)
        grid = table.omega_grid
        f_ref, df_ref = brute_force_series(grid, t, 2000)
        f_tol = 1e-15 * np.abs(f_ref).max()
        df_tol = 1e-15 * np.abs(df_ref).max()
        assert np.abs(igso3.f_igso3(grid, t) - f_ref).max() <= f_tol
        assert np.abs(igso3.df_igso3_domega(grid, t) - df_ref).max() <= df_tol
        assert np.abs(table.f_vals - np.clip(f_ref, 0.0, None)).max() <= f_tol
        assert np.abs(table.df_vals - df_ref).max() <= df_tol
        assert np.abs(table.cdf_vals - trapezoid_cdf(f_ref, grid)).max() <= 1e-15

    def test_scalar_oracle_agrees(self):
        tol = 1e-15 * brute_force_f(0.0, CFG.t_min, 2000)  # f peaks at w = 0
        for omega in (0.0, 0.9, np.pi):
            expected = brute_force_f(omega, CFG.t_min, 2000)
            assert abs(igso3.f_igso3(omega, CFG.t_min) - expected) <= tol

    def test_cap_sums_exactly_that_many_terms(self):
        # At t_min ten terms are far from converged, so the cap is visible.
        cfg = igso3.TruncationConfig(series_terms=10)
        assert igso3._term_count(cfg) == 10
        grid = np.linspace(0.0, np.pi, 50)
        f10, df10 = brute_force_series(grid, CFG.t_min, 10)
        f = igso3.f_igso3(grid, CFG.t_min, cfg)
        assert np.abs(f - f10).max() <= 1e-15 * np.abs(f10).max()
        df = igso3.df_igso3_domega(grid, CFG.t_min, cfg)
        assert np.abs(df - df10).max() <= 1e-15 * np.abs(df10).max()
        assert np.abs(f - igso3.f_igso3(grid, CFG.t_min)).max() > 1.0


class TestDerivative:
    def test_zero_at_origin(self):
        assert igso3.df_igso3_domega(0.0, 0.5) == 0.0
        assert igso3.df_igso3_domega(1e-8, 0.5) == 0.0

    @pytest.mark.parametrize("omega,t", [(0.7, 0.3), (2.0, 1.0)])
    def test_matches_finite_differences(self, omega, t):
        h = 1e-5
        fd = (igso3.f_igso3(omega + h, t) - igso3.f_igso3(omega - h, t)) / (2 * h)
        analytic = igso3.df_igso3_domega(omega, t)
        assert abs(analytic - fd) / abs(fd) < 1e-4

    def test_flat_limit(self):
        grid = np.linspace(0.1, 3.1, 50)
        assert np.abs(igso3.df_igso3_domega(grid, 50.0)).max() < 1e-6


class TestDensity:
    def test_same_rotation_gives_center_value(self, rng):
        r = so3.sample_uniform_so3(rng)
        assert np.isclose(igso3.igso3_density(r, r, 0.7), igso3.f_igso3(0.0, 0.7))

    def test_normalization_quadrature(self):
        assert abs(angle_marginal_integral(0.5) - 1.0) < 1e-4

    def test_normalization_across_times(self):
        for t in (0.05, 0.1, 0.5, 1.5, 4.0):
            assert abs(angle_marginal_integral(t) - 1.0) < 1e-4

    def test_bi_invariance(self, rng):
        r0 = so3.sample_uniform_so3(rng)
        rt = so3.sample_uniform_so3(rng)
        base = igso3.igso3_density(r0, rt, 0.5)
        g = so3.sample_uniform_so3(rng, 100)
        shifted = igso3.igso3_density(g @ r0, g @ rt, 0.5)
        assert np.abs(shifted - base).max() < 1e-12

    def test_flat_limit_sup_norm(self):
        grid = np.linspace(0.0, np.pi, 4000)
        assert np.abs(igso3.f_igso3(grid, 16.0) - 1.0).max() < 1e-3


class TestConditionalScore:
    def test_zero_at_center(self, rng):
        r = so3.sample_uniform_so3(rng)
        assert np.abs(igso3.conditional_score(r, r, 0.5)).max() == 0.0

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_matches_fd_gradient_of_log_density(self, rng, t):
        # Configurations drawn from the forward marginal keep the density
        # representable; uniform pairs at t = 0.1 underflow near w = pi.
        table = igso3.build_table(t)
        for _ in range(20):
            r0 = so3.sample_uniform_so3(rng)
            rt = igso3.sample_igso3(r0, table, rng)
            score = igso3.conditional_score(r0, rt, t)
            fd = igso3.riemannian_gradient_fd(
                lambda r: np.log(igso3.igso3_density(r0, r, t)), rt, h=1e-4
            )
            denom = max(np.linalg.norm(fd), 1.0)
            assert np.abs(score - fd).max() / denom < 1e-4

    def test_left_equivariance(self, rng):
        r0 = so3.sample_uniform_so3(rng)
        rt = so3.sample_uniform_so3(rng)
        g = so3.sample_uniform_so3(rng)
        lhs = igso3.conditional_score(g @ r0, g @ rt, 0.5)
        rhs = g @ igso3.conditional_score(r0, rt, 0.5)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_score_is_tangent_at_rt(self, rng):
        r0 = so3.sample_uniform_so3(rng)
        rt = so3.sample_uniform_so3(rng)
        s = igso3.conditional_score(r0, rt, 0.5)
        local = rt.T @ s
        assert np.abs(local + local.T).max() < 1e-12


class TestScoreFromTable:
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_small_angle_gate_matches_series(self, rng, t):
        table = igso3.build_table(t)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r0 = so3.sample_uniform_so3(rng)
        for omega in (2e-8, 1e-6, 5e-5, 0.99e-4):
            rt = r0 @ so3.exp_so3(so3.hat(omega * axis))
            series = igso3.conditional_score(r0, rt, t)
            tabled = igso3.score_from_table(r0, rt, table)
            assert np.abs(series).max() == 0.0
            assert np.abs(tabled).max() == 0.0

    def test_gate_follows_config(self):
        cfg = igso3.TruncationConfig(omega_eps=1e-7)
        table = igso3.build_table(0.5, cfg)
        rt = so3.exp_so3(so3.hat(np.array([1e-6, 0.0, 0.0])))
        series = igso3.conditional_score(np.eye(3), rt, 0.5, cfg)
        tabled = igso3.score_from_table(np.eye(3), rt, table, cfg)
        assert np.abs(series).max() > 0.0
        assert np.abs(tabled - series).max() <= 1e-4 * np.abs(series).max()

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_agrees_with_series_near_pi(self, rng, t):
        table = igso3.build_table(t)
        r0 = so3.sample_uniform_so3(rng)
        for gap in (1e-2, 1e-4, 1e-6):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            rt = r0 @ so3.exp_so3(so3.hat((np.pi - gap) * axis))
            series = igso3.conditional_score(r0, rt, t)
            tabled = igso3.score_from_table(r0, rt, table)
            assert np.abs(tabled - series).max() <= 1e-4 * np.abs(series).max()


class TestTable:
    def test_raw_mass_is_one(self):
        table = igso3.build_table(0.5)
        assert abs(table.raw_mass - 1.0) < 1e-6

    def test_cdf_endpoints_and_monotone(self):
        table = igso3.build_table(0.5)
        assert table.cdf_vals[0] == 0.0
        assert abs(table.cdf_vals[-1] - 1.0) < 1e-12
        assert np.all(np.diff(table.cdf_vals) >= 0.0)

    def test_flat_time_cdf_matches_uniform_law(self):
        table = igso3.build_table(50.0)
        expected = (table.omega_grid - np.sin(table.omega_grid)) / np.pi
        assert np.abs(table.cdf_vals - expected).max() < 1e-4

    def test_default_grid(self):
        assert igso3.TruncationConfig().angle_grid == 1000
        assert len(igso3.build_table(0.5).omega_grid) == 1000

    def test_interpolation_error(self):
        for t in (0.5, 1.5):
            table = igso3.build_table(t)
            mid = 0.5 * (table.omega_grid[1:] + table.omega_grid[:-1])
            direct = igso3.f_igso3(mid, t)
            rel = np.abs(table.interp_f(mid) - direct) / np.abs(direct)
            assert rel.max() < 1e-4

    def test_rejects_below_t_min(self):
        with pytest.raises(igso3.NumericalDomainError):
            igso3.build_table(0.005)

    def test_batch_builder_matches_single(self):
        single = igso3.build_table(0.8)
        batched = igso3.build_tables([0.3, 0.8])[1]
        assert np.allclose(single.f_vals, batched.f_vals, rtol=0, atol=1e-12)
        assert np.allclose(single.cdf_vals, batched.cdf_vals, rtol=0, atol=1e-12)


class TestSampling:
    def test_angle_law_matches_table(self, rng):
        table = igso3.build_table(0.8)
        base = np.broadcast_to(np.eye(3), (100_000, 3, 3))
        angles = so3.rotation_angle(igso3.sample_igso3(base, table, rng))
        # One-sample KS against the tabulated CDF.
        cdf_at = np.interp(np.sort(angles), table.omega_grid, table.cdf_vals)
        empirical = np.arange(1, angles.size + 1) / angles.size
        ks = np.abs(cdf_at - empirical).max()
        assert ks < 0.01

    def test_flat_time_matches_uniform(self, rng):
        table = igso3.build_table(50.0)
        base = np.broadcast_to(np.eye(3), (100_000, 3, 3))
        a = so3.rotation_angle(igso3.sample_igso3(base, table, rng))
        b = so3.rotation_angle(so3.sample_uniform_so3(rng, 100_000))
        assert stats.ks_2samp(a, b).statistic < 0.02

    def test_left_shift_equivariance(self, rng):
        table = igso3.build_table(0.6)
        g = so3.sample_uniform_so3(rng)
        r0 = so3.sample_uniform_so3(rng)
        n = 100_000
        a = g @ igso3.sample_igso3(np.broadcast_to(r0, (n, 3, 3)), table, rng)
        b = igso3.sample_igso3(np.broadcast_to(g @ r0, (n, 3, 3)), table, rng)
        rel_a = so3.rotation_angle(so3.transpose(np.broadcast_to(g @ r0, (n, 3, 3))) @ a)
        rel_b = so3.rotation_angle(so3.transpose(np.broadcast_to(g @ r0, (n, 3, 3))) @ b)
        assert stats.ks_2samp(rel_a, rel_b).statistic < 0.02


class TestRiemannianGradientFD:
    def test_angle_gradient_is_unit(self, rng):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r = so3.exp_so3(so3.hat(axis))  # rotation at angle 1 from identity
        grad = igso3.riemannian_gradient_fd(so3.rotation_angle, r, h=1e-5)
        coeffs = so3.vee(r.T @ grad)
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-5

    def test_constant_function(self, rng):
        r = so3.sample_uniform_so3(rng)
        grad = igso3.riemannian_gradient_fd(lambda _: 3.25, r)
        assert np.abs(grad).max() == 0.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            igso3.riemannian_gradient_fd(so3.rotation_angle, np.eye(3), h=0.0)


class TestExpectedScoreNormSq:
    def test_monte_carlo_agreement(self, rng):
        t = 0.5
        quad = igso3.expected_score_norm_sq(t)
        table = igso3.build_table(t)
        angles = table.sample_angles(rng, 100_000)
        mc = np.mean(table.score_coeff(angles) ** 2)
        assert abs(mc - quad) / quad < 0.02

    def test_vanishes_in_flat_limit(self):
        assert igso3.expected_score_norm_sq(50.0) < 1e-6

    def test_weight_normalizes_by_construction(self):
        t = 0.9
        esns = igso3.expected_score_norm_sq(t)
        assert esns > 0
        assert abs((1.0 / esns) * esns - 1.0) < 1e-15


class TestIGSU2:
    def test_flat_limit(self):
        for omega in (0.4, 1.2, 2.6):
            assert abs(igso3.igsu2_density(omega, 50.0) - 1.0) < 1e-6

    def test_normalization(self):
        grid = np.linspace(0.0, np.pi, 10_000)
        f = igso3.igsu2_density(grid, 0.5)
        integral = np.trapezoid(f * (2.0 / np.pi) * np.sin(grid) ** 2, grid)
        assert abs(integral - 1.0) < 1e-4

    def test_truncation_matches_full_sum(self):
        # Terms past the truncation count cannot change a double at t >= t_min.
        omega = np.array([0.0, 0.3, 1.7, np.pi])
        ls = np.arange(1, CFG.series_terms + 1)
        for t in (CFG.t_min, 0.5, 3.0):
            weights = ls**2 * np.exp(-(ls**2 - 1) * t / 8.0)
            w = omega[1:3, None]
            full = np.concatenate([[ls @ weights],
                                   (np.sin(ls * w) / np.sin(w)) @ weights,
                                   [(ls * (-1.0) ** (ls + 1)) @ weights]])
            got = igso3.igsu2_density(omega, t)
            assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()

    def test_even_extension_near_zero(self):
        eps = CFG.omega_eps
        limit = igso3.igsu2_density(eps / 2, 0.5)  # limit branch
        direct = igso3.igsu2_density(eps * 1.5, 0.5)  # direct branch
        mid = igso3.igsu2_density(eps * 0.999, 0.5)
        # Continuity across the branch switch at machine-level accuracy
        # relative to the local derivative scale.
        assert abs(limit - mid) < abs(direct - mid) + 1e-10


class TestSemigroup:
    def test_chained_sampling_matches_single_draw(self, rng):
        t1 = igso3.build_table(0.3)
        t2 = igso3.build_table(0.5)
        t3 = igso3.build_table(0.8)
        n = 100_000
        eye = np.broadcast_to(np.eye(3), (n, 3, 3))
        chained = igso3.sample_igso3(igso3.sample_igso3(eye, t1, rng), t2, rng)
        single = igso3.sample_igso3(eye, t3, rng)
        ks = stats.ks_2samp(
            so3.rotation_angle(chained), so3.rotation_angle(single)
        ).statistic
        assert ks < 0.02
