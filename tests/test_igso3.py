import math

import numpy as np
import pytest
from scipy import stats

from se3diffuse import igso3, schedules, so3

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


def dirichlet_series(omega, t, n_terms):
    """Partial sums over l < n_terms of f and df/dw, summed without cancellation.

    sin((l + 1/2) w) / sin(w/2) = 1 + 2 sum_{m=1}^{l} cos(m w), so the sum
    over l < n_terms is sum_m c_m cos(m w) with c_m twice the tail sum of
    the weights from m on (once for m = 0), and df/dw is -sum_m m c_m
    sin(m w). Each angle's terms are summed with ``math.fsum``. The
    termwise derivative of sin((l + 1/2) w) / sin(w/2) cancels as w -> 0:
    at t = 0.1 and w = pi/999 it is off a high-precision value by 2.5e-12,
    8 times the tolerance of ``test_matches_full_sum``; this form is off
    by under 1e-15 there.
    """
    ls = np.arange(n_terms)
    weights = (2 * ls + 1) * np.exp(-ls * (ls + 1) * t / 2.0)
    coeffs = np.cumsum(weights[::-1])[::-1] * np.where(ls == 0, 1.0, 2.0)
    omega = np.asarray(omega, dtype=float)
    f = np.array([math.fsum(coeffs * np.cos(ls * w)) for w in omega])
    df = np.array([math.fsum(-ls * coeffs * np.sin(ls * w)) for w in omega])
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
    @pytest.mark.parametrize("t", [720.0, 1e4, 1e308])
    def test_huge_time_leaves_the_flat_density(self, t):
        # The l = 1 weight is subnormal at t = 720, and l(l+1) t overflows at 1e308.
        omega = np.linspace(0.0, np.pi, 7)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f, df = igso3.f_igso3(omega, t), igso3.df_igso3_domega(omega, t)
        assert (f == 1.0).all()
        assert (np.abs(df) < np.finfo(float).tiny).all()

    def test_flat_limit_values(self):
        for omega in (0.5, 1.5, 3.0):
            assert abs(igso3.f_igso3(omega, 50.0) - 1.0) < 1e-6

    def test_limit_matches_brute_force_partial_sum(self):
        expected = brute_force_f(0.0, 1.0, 400)
        assert abs(igso3.f_igso3(1e-9, 1.0) - expected) < 1e-10
        assert abs(igso3.f_igso3(0.0, 1.0) - expected) < 1e-10

    def test_generic_point_matches_brute_force(self):
        assert abs(igso3.f_igso3(0.9, 0.5) - brute_force_f(0.9, 0.5, 400)) < 1e-10

    @pytest.mark.parametrize("t", [0.05, 1.0, 20.0])
    def test_nan_angle_leaves_the_others_alone(self, t):
        omega = np.array([1e-5, 0.5, 3.0])
        f, df = igso3.f_igso3(omega, t), igso3.df_igso3_domega(omega, t)
        with_nan = np.array([1e-5, 0.5, np.nan, 3.0])
        assert np.array_equal(igso3.f_igso3(with_nan, t), np.insert(f, 2, np.nan), equal_nan=True)
        assert np.array_equal(igso3.df_igso3_domega(with_nan, t), np.insert(df, 2, np.nan),
                              equal_nan=True)

    def test_rejects_small_time(self):
        with pytest.raises(igso3.NumericalDomainError):
            igso3.f_igso3(1.0, 0.001)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            igso3.TruncationConfig(angle_grid=1)


class TestTruncation:
    def test_accepts_t_min(self):
        assert np.isfinite(igso3.f_igso3(1.0, igso3.T_MIN))

    @pytest.mark.parametrize("t", [np.nextafter(igso3.T_MIN, 0.0), np.inf, np.nan])
    def test_rejects_times_outside_trusted_range(self, t):
        with pytest.raises(igso3.NumericalDomainError, match=r"outside \[t_min=0\.01, inf\)"):
            igso3.f_igso3(1.0, t)

    @pytest.mark.parametrize("t", [igso3.T_MIN, 0.1, 1.0, 2.25])
    def test_matches_full_sum(self, t):
        # Direct values and tables both come from the image sum.
        table = igso3.build_table(t)
        grid = table.omega_grid
        f_exact, df_exact = dirichlet_series(grid, t, 2000)
        f_tol = 1e-15 * np.abs(f_exact).max()
        df_tol = 1e-15 * np.abs(df_exact).max()
        assert np.abs(igso3.f_igso3(grid, t) - f_exact).max() <= f_tol
        assert np.abs(igso3.df_igso3_domega(grid, t) - df_exact).max() <= df_tol
        assert np.abs(table.f_vals - f_exact).max() <= f_tol
        assert np.abs(table.df_vals - df_exact).max() <= df_tol
        assert np.array_equal(table.cdf_vals, trapezoid_cdf(table.f_vals, grid))
        # From w ~ 1.15 on at t_min the oracle's f is its own roundoff.
        cdf_tol = f_tol if t == igso3.T_MIN else 1e-15
        assert np.abs(table.cdf_vals - trapezoid_cdf(f_exact, grid)).max() <= cdf_tol

    def test_scalar_oracle_agrees(self):
        tol = 1e-15 * brute_force_f(0.0, igso3.T_MIN, 2000)  # f peaks at w = 0
        for omega in (0.0, 0.9, np.pi):
            expected = brute_force_f(omega, igso3.T_MIN, 2000)
            assert abs(igso3.f_igso3(omega, igso3.T_MIN) - expected) <= tol

    @pytest.mark.parametrize("t", [float(np.nextafter(igso3.T_IMAGE, np.inf)), 8.5, 20.0])
    def test_series_matches_full_sum_above_the_image_sum(self, t):
        # Above T_IMAGE the series sums _SERIES_TERMS terms; the other terms
        # of the 2000 change f and df by roundoff only.
        grid = np.linspace(0.0, np.pi, 50)
        f_exact, df_exact = dirichlet_series(grid, t, 2000)
        assert np.abs(igso3.f_igso3(grid, t) - f_exact).max() <= 1e-15 * np.abs(f_exact).max()
        assert (np.abs(igso3.df_igso3_domega(grid, t) - df_exact).max()
                <= 1e-15 * np.abs(df_exact).max())


class TestDerivative:
    def test_zero_at_origin(self):
        # and linear next to it: df/dw = f(0) q(0) w, with no cut to 0
        assert igso3.df_igso3_domega(0.0, 0.5) == 0.0
        f0, q0 = igso3.f_q(0.0, 0.5)
        assert igso3.df_igso3_domega(1e-8, 0.5) == pytest.approx(f0 * q0 * 1e-8, rel=1e-15)

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

    @pytest.mark.parametrize("t", [igso3.T_MIN, 1.0, igso3.T_IMAGE, 20.0])
    def test_center_at_rt_scores_exactly_zero_with_no_floating_point_error(self, t):
        # q is finite at w = 0, so nothing divides 0 by 0 there, on either
        # branch; a mixture center at rt adds exactly 0 to the other's term.
        eye, other = np.eye(3), so3.exp_so3(so3.hat(np.array([0.0, 0.0, 1.0])))
        with np.errstate(all="raise"):
            alone = igso3.conditional_score(eye, eye, t)
            mixed = igso3.mixture_score(np.stack([eye, other]), eye, t,
                                        weights=np.array([0.3, 0.7]))
            (f0, f1), (_, q1) = igso3.f_q(np.array([0.0, 1.0]), t)
        assert np.isfinite(alone).all() and np.abs(alone).max() == 0.0
        post = 0.7 * f1 / (0.3 * f0 + 0.7 * f1)
        assert np.isfinite(mixed).all()
        assert np.allclose(mixed, [0.0, 0.0, -post * q1], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_matches_fd_gradient_of_log_density(self, rng, t):
        # Configurations drawn from the forward marginal keep the density
        # representable; uniform pairs at t = 0.1 underflow near w = pi.
        table = igso3.build_table(t)
        for _ in range(20):
            r0 = so3.sample_uniform_so3(rng)
            rt = igso3.sample_igso3(r0, table, rng)
            score = rt @ so3.hat(igso3.conditional_score(r0, rt, t))
            fd = igso3.riemannian_gradient_fd(
                lambda r: np.log(igso3.igso3_density(r0, r, t)), rt, h=1e-4
            )
            denom = max(np.linalg.norm(fd), 1.0)
            assert np.abs(score - fd).max() / denom < 1e-4

    def test_left_equivariance(self, rng):
        r0 = so3.sample_uniform_so3(rng)
        rt = so3.sample_uniform_so3(rng)
        g = so3.sample_uniform_so3(rng)
        lhs = (g @ rt) @ so3.hat(igso3.conditional_score(g @ r0, g @ rt, 0.5))
        rhs = g @ (rt @ so3.hat(igso3.conditional_score(r0, rt, 0.5)))
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_score_is_tangent_at_rt(self, rng):
        # A coefficient vector in the frame of rt is a tangent vector there.
        r0 = so3.sample_uniform_so3(rng)
        rt = so3.sample_uniform_so3(rng, 4)
        assert igso3.conditional_score(r0, rt[0], 0.5).shape == (3,)
        assert igso3.conditional_score(r0, rt, 0.5).shape == (4, 3)

    def test_shared_center_equals_broadcast_center(self, rng):
        # A (3, 3) center is one center for every rotation of the batch,
        # not a batch of centers to sum over.
        rt = so3.sample_uniform_so3(rng, 50)
        shared = igso3.conditional_score(np.eye(3), rt, 0.5)
        stacked = igso3.conditional_score(np.broadcast_to(np.eye(3), (50, 3, 3)), rt, 0.5)
        assert np.array_equal(shared, stacked)


def small_time_score(omega, t):
    """d log f/dw of the k = 0 image alone: -w/t + 1/w - cot(w/2)/2."""
    return -omega / t + 1.0 / omega - 0.5 / np.tan(0.5 * omega)


def q_at_zero(t, n_terms=400):
    """q(0, t) = f''(0) / f(0) from the character series: near 0 each
    sin((l + 1/2) w) / sin(w/2) is (2l + 1) (1 - l(l + 1) w^2 / 6)."""
    weights = [(2 * ell + 1) ** 2 * math.exp(-ell * (ell + 1) * t / 2.0)
               for ell in range(n_terms)]
    second = math.fsum(w * ell * (ell + 1) / 3.0 for ell, w in enumerate(weights))
    return -second / math.fsum(weights)


class TestVanishingDensity:
    """At the rotation variance of eps = 0.01, w = 2 is past where the
    series' f is positive, and from about w = 1.15 on its f is roundoff."""

    T = float(schedules.rot_variance(0.01, schedules.RotationSchedule()))
    RT = so3.exp_so3(so3.hat(np.array([2.0, 0.0, 0.0])))

    @pytest.mark.parametrize("omega", [1.15, 1.2, 1.5, 2.0])
    def test_table_score_follows_small_time_expansion(self, omega):
        # Linear interpolation of f and df between grid nodes leaves about
        # 1e-4 of the score here.
        rt = so3.exp_so3(so3.hat(np.array([omega, 0.0, 0.0])))
        table = igso3.build_table(self.T)
        score = igso3.score_from_table(np.eye(3), rt, table)
        expected = small_time_score(omega, self.T)
        assert abs(score[0] - expected) <= 1e-3 * abs(expected)
        assert score[1] == 0.0 and score[2] == 0.0

    @pytest.mark.parametrize("omega", [1.15, 1.2, 1.5, 2.0])
    def test_direct_score_follows_small_time_expansion(self, omega):
        # The other images weigh under exp(-2 pi (pi - w) / t) < 1e-180 here.
        rt = so3.exp_so3(so3.hat(np.array([omega, 0.0, 0.0])))
        score = igso3.conditional_score(np.eye(3), rt, self.T)
        expected = small_time_score(omega, self.T)
        assert expected < -60.0
        assert abs(score[0] - expected) <= 1e-12 * abs(expected)
        assert score[1] == 0.0 and score[2] == 0.0

    @pytest.mark.parametrize("t", [igso3.T_MIN, T, 0.1])
    def test_direct_density_positive_everywhere(self, rng, t):
        # Uniform pairs reach w = pi, where f(pi, t_min) is about 1e-211.
        r0 = so3.sample_uniform_so3(rng, 2000)
        rt = so3.sample_uniform_so3(rng, 2000)
        rt[0] = r0[0] @ so3.exp_so3(so3.hat(np.array([0.0, 0.0, np.pi])))
        assert (igso3.igso3_density(r0, rt, t) > 0.0).all()
        assert np.isfinite(igso3.conditional_score(r0, rt, t)).all()


class TestScoreFromTable:
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_small_angle_score_is_the_limit(self, rng, t):
        # Near the identity the score is w q(0, t) along the axis, on both
        # sides of 1e-4, where it used to be cut to 0; the table is within
        # its interpolation error of that.
        table = igso3.build_table(t)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r0 = so3.sample_uniform_so3(rng)
        for omega in (2e-8, 1e-6, 5e-5, 0.99e-4, 1.01e-4):
            rt = r0 @ so3.exp_so3(so3.hat(omega * axis))
            limit = omega * q_at_zero(t) * axis
            series = igso3.conditional_score(r0, rt, t)
            tabled = igso3.score_from_table(r0, rt, table)
            assert np.abs(series - limit).max() <= 1e-8 * np.abs(limit).max()
            assert np.abs(tabled - limit).max() <= 1e-4 * np.abs(limit).max()
        assert igso3.f_q(0.0, t)[1] == pytest.approx(q_at_zero(t), rel=1e-14)

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


TABLE_TIMES = [igso3.T_MIN, 0.2, 0.5, 1.0, 4.0, igso3.T_IMAGE, 8.5, 50.0]


def per_time_tables(ts, cfg=CFG):
    """Tables built the straightforward way: the direct f and df on the grid,
    then the trapezoidal CDF, one time after another."""
    grid = np.linspace(0.0, np.pi, cfg.angle_grid)
    tables = []
    for t in ts:
        f = igso3.f_igso3(grid, t, cfg)
        pdf = f * (1.0 - np.cos(grid)) / np.pi
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))])
        tables.append((t, f, igso3.df_igso3_domega(grid, t, cfg), cdf / cdf[-1], cdf[-1]))
    return tables


def assert_tables_equal(tables, expected):
    assert len(tables) == len(expected)
    for table, (t, f, df, cdf, raw_mass) in zip(tables, expected):
        assert table.t == t
        assert np.array_equal(table.f_vals, f)
        assert np.array_equal(table.df_vals, df)
        assert np.array_equal(table.cdf_vals, cdf)
        assert table.raw_mass == raw_mass


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

    def test_single_and_batched_builds_are_bit_identical_to_loop(self):
        for t in TABLE_TIMES:
            assert_tables_equal([igso3.build_table(t)], per_time_tables([t]))
        assert_tables_equal(igso3.build_tables(TABLE_TIMES), per_time_tables(TABLE_TIMES))

    @pytest.mark.parametrize("block", [1, 8, 16, 33])
    def test_toy_grid_bits_do_not_depend_on_block_split(self, block):
        # A table must not depend on the other times built with it, as the
        # rounding of a matrix product over all times would (up to 5.7e-13).
        ts = np.linspace(0.0, 4.0, 100)[1:]
        whole = igso3.build_tables(ts)
        blocked = [tab for i in range(0, len(ts), block)
                   for tab in igso3.build_tables(ts[i:i + block])]
        assert_tables_equal(blocked, [
            (tab.t, tab.f_vals, tab.df_vals, tab.cdf_vals, tab.raw_mass) for tab in whole])
        for i in (0, 48, 98):
            assert_tables_equal([whole[i]], per_time_tables([ts[i]]))

    def test_density_positive(self):
        # The image sum is positive, and the series above it is at least
        # 1 - 3 exp(-8).
        for table in igso3.build_tables(TABLE_TIMES):
            assert (table.f_vals > 0.0).all() and np.isfinite(table.f_vals).all()

    @pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
    def test_density_check_names_first_bad_time(self, monkeypatch, bad):
        image_sum = igso3._image_sum

        def broken(omega, t):  # spoils one angle at t = 0.3 and 0.05
            f, q = image_sum(omega, t)
            if t in (0.3, 0.05):
                f[-2] = bad
            return f, q

        monkeypatch.setattr(igso3, "_image_sum", broken)
        igso3.build_table(1.0)
        with pytest.raises(igso3.NumericalDomainError, match="not finite at t=0.05"):
            igso3.build_table(0.05)
        with pytest.raises(igso3.NumericalDomainError, match="not finite at t=0.3"):
            igso3.build_tables([1.0, 0.3, 0.05])

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


class TestTimeRangeEnds:
    """Table scores and sampling at the smallest trusted time and a flat one."""

    @pytest.mark.parametrize("t", [igso3.T_MIN, 50.0])
    def test_table_score_is_finite_and_tangent(self, rng, t):
        table = igso3.build_table(t)
        r0 = so3.sample_uniform_so3(rng, 200)
        rt = igso3.sample_igso3(r0, table, rng)
        score = igso3.score_from_table(r0, rt, table)
        assert np.isfinite(score).all()
        assert score.shape == (200, 3)

    @pytest.mark.parametrize("t", [igso3.T_MIN, 50.0])
    def test_sampled_angles_follow_series_law(self, rng, t):
        grid = np.linspace(0.0, np.pi, 20_000)
        cdf = trapezoid_cdf(igso3.f_igso3(grid, t), grid)
        base = np.broadcast_to(np.eye(3), (2000, 3, 3))
        angles = so3.rotation_angle(igso3.sample_igso3(base, igso3.build_table(t), rng))
        assert stats.kstest(angles, lambda w: np.interp(w, grid, cdf)).pvalue > 1e-3


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
        mc = np.mean((table.interp_df(angles) / table.interp_f(angles)) ** 2)
        assert abs(mc - quad) / quad < 0.02

    def test_vanishes_in_flat_limit(self):
        assert igso3.expected_score_norm_sq(50.0) < 1e-6

    def test_weight_normalizes_by_construction(self):
        t = 0.9
        esns = igso3.expected_score_norm_sq(t)
        assert esns > 0
        assert abs((1.0 / esns) * esns - 1.0) < 1e-15


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


class TestAngleAlone:
    @pytest.mark.parametrize("t", [0.01, 0.3, 2.25, 4.0, 8.0, 8.5, 50.0])
    def test_each_angle_alone_gives_the_bits_of_one_call(self, t):
        # Angles at and near 0, where q is finite and not 0, the series' cut
        # of 1/w - cot(w/2)/2 at min(1, sqrt(t)), the branch about pi and a
        # uniform spread.
        omega = np.concatenate([
            [0.0, 5e-5, 1e-4, np.pi], np.geomspace(1e-6, 1.0, 60),
            np.pi - np.geomspace(1e-12, 1.0, 36), np.linspace(0.0, np.pi, 100)])
        f, q = igso3.f_q(omega, t)
        assert np.isfinite(q[:3]).all() and (q[:3] < 0.0).all()
        df = igso3.f_df(omega, t)[1]
        for w, f_w, q_w, df_w in zip(omega, f, q, df):
            assert igso3.f_q(float(w), t) == (f_w, q_w), w
            assert igso3.f_df(float(w), t) == (f_w, df_w), w
            alone = igso3.f_q(np.array([w]), t)
            assert (alone[0][0], alone[1][0]) == (f_w, q_w), w


class TestBlockedMixture:
    def test_blocks_match_one_evaluation_bit_for_bit(self, monkeypatch):
        # Nine centers, which numpy would sum in another order for the last
        # block, a single row; the first block lies within 0.5 of them all,
        # so that a term count taken from a block's own largest angle would
        # differ between blocks.
        rng = np.random.default_rng(5)
        t, k = 8.0, 9
        centers = so3.exp_so3(so3.hat(0.01 * rng.standard_normal((k, 3))))[:, None]
        width = igso3._MIXTURE_PAIRS // k
        rt = so3.sample_uniform_so3(rng, 3 * width + 1)
        near = rng.standard_normal((width, 3))
        near *= rng.uniform(0.0, 0.45, (width, 1)) / np.linalg.norm(near, axis=1, keepdims=True)
        rt[:width] = so3.exp_so3(so3.hat(near))
        weights = rng.dirichlet(np.ones(k))
        angles = so3.rotation_angle(so3.transpose(centers) @ rt)
        assert angles[:, :width].max() < 0.5 < angles[:, width:].max()

        sizes, f_q = [], igso3.f_q

        def spy(omega, *args):
            sizes.append(np.size(omega))
            return f_q(omega, *args)

        def evaluate():
            return (igso3.mixture_score(centers, rt, t, weights=weights),
                    igso3.mixture_density(centers, rt, t, weights=weights))

        monkeypatch.setattr(igso3, "f_q", spy)
        blocked = evaluate()
        assert sizes == 2 * [k * width, k * width, k * width, k]
        monkeypatch.setattr(igso3, "_MIXTURE_PAIRS", 10**9)
        whole = evaluate()
        assert sizes[8:] == [k * len(rt)] * 2
        for got, expected in zip(blocked, whole):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestSingleRotation:
    @pytest.mark.parametrize("k", [3, 12])
    @pytest.mark.parametrize("t", [0.05, 0.5, 2.25, 8.5])
    def test_alone_gives_the_bits_of_its_row(self, k, t):
        # Eight centers or more is where numpy would sum a single row pairwise.
        rng = np.random.default_rng(k)
        centers = so3.sample_uniform_so3(rng, k)
        weights = rng.dirichlet(np.ones(k))
        rt = so3.sample_uniform_so3(rng, 40)
        for fn in (igso3.mixture_density, igso3.mixture_score):
            batch = fn(centers[:, None], rt, t, weights=weights)
            for row, r in zip(batch, rt):
                alone = fn(centers, r, t, weights=weights)
                assert np.shape(alone) == row.shape and alone.tobytes() == row.tobytes()
