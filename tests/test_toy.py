import numpy as np
import pytest
from scipy import stats

from se3diffuse import igso3, so3, toy


@pytest.fixture(scope="module")
def target():
    return toy.random_target(3, seed=42)


class TestSampleP0:
    def test_single_atom(self, rng):
        t = toy.DiscreteTarget(so3.sample_uniform_so3(rng, 1), np.array([1.0]))
        draws = toy.sample_p0(t, rng, 50)
        assert np.abs(draws - t.atoms[0]).max() == 0.0

    def test_uniform_frequencies(self, rng, target):
        draws = toy.sample_p0(target, rng, 100_000)
        matches = np.abs(draws[:, None] - target.atoms[None]).max(axis=(-1, -2)) == 0
        freq = matches.mean(axis=0)
        se = np.sqrt((1 / 3) * (2 / 3) / 100_000)
        assert np.abs(freq - 1 / 3).max() < 3 * se

    def test_degenerate_weights(self, rng):
        atoms = so3.sample_uniform_so3(rng, 3)
        t = toy.DiscreteTarget(atoms, np.array([1.0, 0.0, 0.0]))
        draws = toy.sample_p0(t, rng, 200)
        assert np.abs(draws - atoms[0]).max() == 0.0

    def test_weight_validation(self, rng):
        atoms = so3.sample_uniform_so3(rng, 2)
        with pytest.raises(ValueError):
            toy.DiscreteTarget(atoms, np.array([0.7, 0.7]))


class TestMixtureDensity:
    def test_single_component_reduces(self, rng):
        atom = so3.sample_uniform_so3(rng)
        t = toy.DiscreteTarget(atom[None], np.array([1.0]))
        rt = so3.sample_uniform_so3(rng)
        assert np.isclose(
            toy.p_t_density(t, rt, 0.7), igso3.igso3_density(atom, rt, 0.7)
        )

    def test_flat_limit(self, rng, target):
        rts = so3.sample_uniform_so3(rng, 20)
        vals = toy.p_t_density(target, rts, 50.0)
        assert np.abs(vals - 1.0).max() < 1e-3

    def test_integrates_to_one_haar(self, rng, target):
        table = igso3.build_table(0.5)
        total, n = 0.0, 0
        for _ in range(10):
            rts = so3.sample_uniform_so3(rng, 100_000)
            total += toy.p_t_density(target, rts, 0.5, table=table).sum()
            n += 100_000
        assert abs(total / n - 1.0) < 0.01

    def test_table_path_matches_series(self, rng, target):
        table = igso3.build_table(0.5)
        rts = so3.sample_uniform_so3(rng, 100)
        direct = toy.p_t_density(target, rts, 0.5)
        fast = toy.p_t_density(target, rts, 0.5, table=table)
        assert np.abs(direct - fast).max() / direct.max() < 1e-3


class TestMixtureScore:
    def test_single_component_equals_conditional(self, rng):
        atom = so3.sample_uniform_so3(rng)
        t = toy.DiscreteTarget(atom[None], np.array([1.0]))
        table = igso3.build_table(0.5)
        rt = igso3.sample_igso3(atom, table, rng)
        mix = toy.score_t(t, rt, 0.5)
        cond = igso3.conditional_score(atom, rt, 0.5)
        assert np.abs(mix - cond).max() < 1e-10

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("gap", [1e-3, 1e-7, 1e-9])
    def test_single_atom_near_half_turn_equals_conditional(self, rng, t, gap):
        single = toy.DiscreteTarget(np.eye(3)[None], np.array([1.0]))
        axis = rng.standard_normal(3)
        rt = so3.exp_so3(so3.hat((np.pi - gap) * axis / np.linalg.norm(axis)))
        mix = toy.score_t(single, rt, t)
        cond = igso3.conditional_score(np.eye(3), rt, t)
        assert np.abs(mix - cond).max() <= 1e-12 * max(1.0, np.abs(cond).max())

    def test_matches_fd_gradient(self, rng, target):
        cfg = toy.ToyRunConfig()
        checked = 0
        for t in (0.3, 0.8, 1.5):
            table = igso3.build_table(t)
            for _ in range(10):
                atom = target.atoms[rng.integers(3)]
                rt = igso3.sample_igso3(atom, table, rng)
                analytic = toy.score_t(target, rt, t)
                fd = igso3.riemannian_gradient_fd(
                    lambda r: np.log(toy.p_t_density(target, r, t)), rt, h=cfg.fd_step
                )
                denom = max(np.linalg.norm(so3.vee(rt.T @ fd)), 1.0)
                assert np.abs(analytic - fd).max() / denom < 1e-4
                checked += 1
        assert checked == 30

    def test_symmetric_configuration_component_vanishes(self, rng):
        # Two equal-weight atoms exp(+-hat(theta u)) with u in the e1/e2
        # plane; at the midpoint (identity) the score keeps only the e1
        # component. Verified against the finite-difference oracle.
        theta, tilt = 0.9, 0.6
        u1 = np.array([np.cos(tilt), np.sin(tilt), 0.0])
        u2 = np.array([np.cos(tilt), -np.sin(tilt), 0.0])
        atoms = so3.exp_so3(so3.hat(np.stack([theta * u1, theta * u2])))
        target = toy.DiscreteTarget(atoms, np.array([0.5, 0.5]))
        rt = np.eye(3)
        score = toy.score_t(target, rt, 0.4)
        coeffs = so3.vee(rt.T @ score)
        assert abs(coeffs[1]) < 1e-6 and abs(coeffs[2]) < 1e-6
        fd = igso3.riemannian_gradient_fd(
            lambda r: np.log(toy.p_t_density(target, r, 0.4)), rt, h=1e-4
        )
        fd_coeffs = so3.vee(rt.T @ fd)
        assert np.abs(coeffs - fd_coeffs).max() < 1e-4

    def test_table_backed_evaluation_matches_series(self, rng, target):
        table = igso3.build_table(0.8)
        rts = igso3.sample_igso3(
            target.atoms[rng.integers(3, size=50)], table, rng
        )
        direct = toy.score_t(target, rts, 0.8)
        fast = toy.score_t(target, rts, 0.8, table=table)
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(direct - fast).max() / scale < 1e-3

    def test_conjugation_covariance(self, rng, target):
        g = so3.sample_uniform_so3(rng)
        rt = so3.sample_uniform_so3(rng)
        rotated = toy.DiscreteTarget(g @ target.atoms, target.weights)
        lhs = toy.score_t(rotated, g @ rt, 0.6)
        rhs = g @ toy.score_t(target, rt, 0.6)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestWalks:
    def test_forward_initial_marginal_is_p0(self, rng, target):
        cfg = toy.ToyRunConfig(n_paths=200, n_steps=10)
        marginals = toy.run_forward(target, cfg, rng)
        init = marginals[0.0]
        dist = np.abs(init[:, None] - target.atoms[None]).max(axis=(-1, -2))
        assert dist.min(axis=1).max() == 0.0

    def test_forward_terminal_near_uniform(self, rng, target):
        # The t = 4 marginal is close to but not exactly Haar (the exact
        # angle-law KS distance to uniform is 0.0227), so the 0.02 bound
        # cannot hold against uniform; 0.05 absorbs the flat-limit gap and
        # the walk's discretization bias.
        cfg = toy.ToyRunConfig(n_paths=5000, n_steps=200)
        marginals = toy.run_forward(target, cfg, rng)
        term = so3.rotation_angle(marginals[cfg.final_time])
        ref = so3.rotation_angle(so3.sample_uniform_so3(rng, 5000))
        assert stats.ks_2samp(term, ref).statistic < 0.05
        assert abs(term.mean() - (np.pi / 2 + 2 / np.pi)) < 0.02

    def test_defaults_match_reference_parameters(self):
        cfg = toy.ToyRunConfig()
        assert cfg.n_paths == 5000
        assert cfg.final_time == 4.0
        assert cfg.n_steps == 200

    def test_reverse_terminal_concentrates(self, rng, target):
        # 400 steps puts the last positive grid time at T/399 ~ 0.01, the
        # smallest the series supports; the exact marginal there keeps
        # ~97% of paths within 0.3 rad of an atom and the walk's terminal
        # state must match it.
        cfg = toy.ToyRunConfig(n_paths=5000, n_steps=400)
        marginals = toy.run_reverse(target, cfg, rng)
        frac = (toy.angle_to_nearest_atom(target, marginals[0.0]) < 0.3).mean()
        assert frac > 0.9

    def test_reverse_terminal_matches_forward_at_first_grid_time(self, rng, target):
        cfg = toy.ToyRunConfig(n_paths=4000, n_steps=200)
        fwd = toy.run_forward(target, cfg, rng)
        rev = toy.run_reverse(target, cfg, rng)
        h = cfg.times()[1]
        ks = stats.ks_2samp(
            toy.angle_to_nearest_atom(target, rev[0.0]),
            toy.angle_to_nearest_atom(target, fwd[float(h)]),
        ).statistic
        assert ks < 0.05

    def test_single_atom_reverse_approaches_atom(self, rng):
        atom = np.eye(3)
        target = toy.DiscreteTarget(atom[None], np.array([1.0]))
        cfg = toy.ToyRunConfig(n_paths=2000, n_steps=200)
        fwd = toy.run_forward(target, cfg, rng)
        rev = toy.run_reverse(target, cfg, rng)
        h = float(cfg.times()[1])
        rev_mean = so3.rotation_angle(rev[0.0]).mean()
        fwd_mean = so3.rotation_angle(fwd[h]).mean()
        assert rev_mean < fwd_mean + 0.05


class TestMarginalStats:
    def test_identical_sets_have_zero_ks(self, rng, target):
        samples = toy.sample_p0(target, rng, 500)
        st = toy.marginal_stats(samples, target, other=samples)
        assert st.ks_statistic == 0.0

    def test_uniform_vs_uniform_ks(self, rng, target):
        a = so3.sample_uniform_so3(rng, 10_000)
        b = so3.sample_uniform_so3(rng, 10_000)
        st = toy.marginal_stats(a, target, other=b)
        assert st.ks_statistic < 0.02

    def test_histogram_mass_sums_to_one(self, rng, target):
        samples = so3.sample_uniform_so3(rng, 1000)
        st = toy.marginal_stats(samples, target)
        assert np.allclose(st.angle_histograms.sum(axis=1), 1.0)
        assert np.isclose(st.assignment_freq.sum(), 1.0)

    def test_rejects_empty(self, target):
        with pytest.raises(ValueError):
            toy.marginal_stats(np.zeros((0, 3, 3)), target)


class TestKSStatistic:
    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 7), (50, 50), (137, 9999),
                                         (2000, 2000), (3000, 4500), (10000, 10000)])
    def test_random_samples_match_scipy_exactly(self, rng, n_a, n_b):
        a = rng.standard_normal(n_a)
        b = 0.1 + rng.standard_normal(n_b)
        assert toy.ks_2samp_statistic(a, b) == stats.ks_2samp(a, b).statistic

    @pytest.mark.parametrize("n_a,n_b", [(30, 30), (40, 71), (997, 10000)])
    def test_tied_samples_match_scipy_exactly(self, rng, n_a, n_b):
        a = rng.integers(0, 6, n_a).astype(float)
        b = rng.integers(1, 5, n_b).astype(float)
        assert toy.ks_2samp_statistic(a, b) == stats.ks_2samp(a, b).statistic

    def test_identical_and_disjoint(self, rng):
        a = rng.random(300)
        assert toy.ks_2samp_statistic(a, a) == 0.0
        assert toy.ks_2samp_statistic(a, a + 2.0) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            toy.ks_2samp_statistic(np.zeros(0), np.ones(3))
