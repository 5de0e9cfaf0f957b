import re

import numpy as np
import pytest
from scipy import stats

from se3diffuse import igso3, schedules, so3, toy


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
            igso3.mixture_density(t.atoms, rt, 0.7, weights=t.weights),
            igso3.igso3_density(atom, rt, 0.7),
        )

    def test_flat_limit(self, rng, target):
        rts = so3.sample_uniform_so3(rng, 20)
        vals = igso3.mixture_density(target.atoms[:, None], rts, 50.0, weights=target.weights)
        assert np.abs(vals - 1.0).max() < 1e-3

    def test_atoms_broadcast_against_a_batch(self, rng, target):
        rts = so3.sample_uniform_so3(rng, 30)
        for fn in (igso3.mixture_density, igso3.mixture_score):
            flat = fn(target.atoms, rts, 0.5, weights=target.weights)
            padded = fn(target.atoms[:, None], rts, 0.5, weights=target.weights)
            assert flat.shape == padded.shape and flat.tobytes() == padded.tobytes()

    def test_integrates_to_one_haar(self, rng, target):
        table = igso3.build_table(0.5)
        total, n = 0.0, 0
        for _ in range(10):
            rts = so3.sample_uniform_so3(rng, 100_000)
            total += igso3.mixture_density(
                target.atoms[:, None], rts, 0.5, table=table, weights=target.weights
            ).sum()
            n += 100_000
        assert abs(total / n - 1.0) < 0.01

    def test_table_path_matches_series(self, rng, target):
        table = igso3.build_table(0.5)
        rts = so3.sample_uniform_so3(rng, 100)
        centers = target.atoms[:, None]
        direct = igso3.mixture_density(centers, rts, 0.5, weights=target.weights)
        fast = igso3.mixture_density(centers, rts, 0.5, table=table, weights=target.weights)
        assert np.abs(direct - fast).max() / direct.max() < 1e-3

    def test_weighted_sum_of_components(self, rng):
        target = toy.DiscreteTarget(so3.sample_uniform_so3(rng, 3), np.array([0.5, 0.3, 0.2]))
        rts = so3.sample_uniform_so3(rng, 50)
        mixed = igso3.mixture_density(target.atoms[:, None], rts, 0.3, weights=target.weights)
        parts = sum(w * igso3.igso3_density(atom, rts, 0.3)
                    for atom, w in zip(target.atoms, target.weights))
        assert np.abs(mixed - parts).max() <= 1e-12 * parts.max()


class TestAtomAngles:
    def test_atoms_are_at_zero_from_themselves(self, target):
        angles = toy.atom_angles(target, target.atoms)
        assert angles.shape == (3, 3)
        assert np.abs(np.diag(angles)).max() < 1e-12
        assert np.abs(angles - angles.T).max() < 1e-12
        assert np.abs(toy.angle_to_nearest_atom(target, target.atoms)).max() < 1e-12

    def test_nearest_angle_matches_per_atom_loop(self, rng, target):
        samples = so3.sample_uniform_so3(rng, 40)
        expected = np.array([
            min(so3.rotation_angle(atom.T @ s) for atom in target.atoms) for s in samples
        ])
        assert np.abs(toy.angle_to_nearest_atom(target, samples) - expected).max() < 1e-12

    def test_left_invariance(self, rng, target):
        g = so3.sample_uniform_so3(rng)
        samples = so3.sample_uniform_so3(rng, 40)
        rotated = toy.DiscreteTarget(g @ target.atoms, target.weights)
        lhs = toy.atom_angles(rotated, g @ samples)
        assert np.abs(lhs - toy.atom_angles(target, samples)).max() < 1e-10


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
        checked = 0
        for t in (0.3, 0.8, 1.5):
            table = igso3.build_table(t)
            for _ in range(10):
                atom = target.atoms[rng.integers(3)]
                rt = igso3.sample_igso3(atom, table, rng)
                analytic = rt @ so3.hat(toy.score_t(target, rt, t))
                fd = igso3.riemannian_gradient_fd(
                    lambda r: np.log(igso3.mixture_density(target.atoms, r, t,
                                                           weights=target.weights)),
                    rt, h=1e-4,
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
        coeffs = toy.score_t(target, rt, 0.4)
        assert abs(coeffs[1]) < 1e-6 and abs(coeffs[2]) < 1e-6
        fd = igso3.riemannian_gradient_fd(
            lambda r: np.log(igso3.mixture_density(target.atoms, r, 0.4,
                                                   weights=target.weights)),
            rt, h=1e-4,
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

    def test_single_rotation_equals_row_of_batch(self, rng, target):
        rts = so3.sample_uniform_so3(rng, 20)
        for table in (None, igso3.build_table(0.6)):
            batched = toy.score_t(target, rts, 0.6, table=table)
            single = toy.score_t(target, rts[0], 0.6, table=table)
            assert np.abs(single - batched[0]).max() <= 1e-12 * max(1.0, np.abs(single).max())

    @pytest.mark.parametrize("omega", [1.15, 1.2, 1.5, 2.0])
    def test_single_atom_table_score_follows_small_time_expansion(self, omega):
        # Tables hold the image sum's values, so past where the series'
        # f is roundoff the table score is the direct one up to the
        # interpolation error of about 1e-4 of the score.
        t = float(schedules.rot_variance(0.01, schedules.RotationSchedule()))
        rt = so3.exp_so3(so3.hat(np.array([omega, 0.0, 0.0])))
        single = toy.DiscreteTarget(np.eye(3)[None], np.array([1.0]))
        score = toy.score_t(single, rt, t, table=igso3.build_table(t))
        expected = -omega / t + 1.0 / omega - 0.5 / np.tan(0.5 * omega)
        assert abs(score[0] - expected) <= 1e-3 * abs(expected)

    @pytest.mark.parametrize("omega", [1.15, 1.2, 1.5, 2.0])
    def test_single_atom_direct_score_follows_small_time_expansion(self, omega):
        # Past the series' roundoff floor the image sum keeps the k = 0
        # image's score -w/t + 1/w - cot(w/2)/2.
        t = float(schedules.rot_variance(0.01, schedules.RotationSchedule()))
        rt = so3.exp_so3(so3.hat(np.array([omega, 0.0, 0.0])))
        single = toy.DiscreteTarget(np.eye(3)[None], np.array([1.0]))
        score = toy.score_t(single, rt, t)
        expected = -omega / t + 1.0 / omega - 0.5 / np.tan(0.5 * omega)
        assert abs(score[0] - expected) <= 1e-12 * abs(expected)

    def test_conjugation_covariance(self, rng, target):
        g = so3.sample_uniform_so3(rng)
        rt = so3.sample_uniform_so3(rng)
        rotated = toy.DiscreteTarget(g @ target.atoms, target.weights)
        lhs = (g @ rt) @ so3.hat(toy.score_t(rotated, g @ rt, 0.6))
        rhs = g @ (rt @ so3.hat(toy.score_t(target, rt, 0.6)))
        assert np.abs(lhs - rhs).max() < 1e-10


def reference_walk(initial, times, drift, rng):
    """The toy's stepping loop by hand: r exp(hat(drift dt + sqrt|dt| z)), z ~ N(0, I3)."""
    state = initial
    out = {float(times[0]): state}
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        step = drift(state, float(times[i - 1])) * dt
        step = step + np.sqrt(abs(dt)) * rng.standard_normal((len(state), 3))
        state = state @ so3.exp_so3(so3.hat(step))
        out[float(times[i])] = state
    return out


def reference_forward(target, cfg, rng):
    init = toy.sample_p0(target, rng, cfg.n_paths)
    return reference_walk(init, cfg.times(), lambda r, t: 0.0, rng)


def reference_reverse(target, cfg, rng):
    init = so3.sample_uniform_so3(rng, cfg.n_paths)
    return reference_walk(init, cfg.times()[::-1], lambda r, t: -toy.score_t(target, r, t), rng)


def assert_same_runs(a, b, atol=0.0):
    assert list(a) == list(b)
    for t in a:
        assert np.abs(a[t] - b[t]).max(initial=0.0) <= atol, t


class TestWalks:
    @pytest.mark.parametrize("n_steps", [2, 37, 100])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_equals_reference_loop(self, target, n_steps, direction):
        cfg = toy.ToyRunConfig(n_paths=50, n_steps=n_steps)
        run = getattr(toy, f"run_{direction}")
        ref = globals()[f"reference_{direction}"]
        assert_same_runs(run(target, cfg, np.random.default_rng(4)),
                         ref(target, cfg, np.random.default_rng(4)))

    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_renormalizes_past_100_steps(self, target, direction):
        # Renormalization at step 100 is the only change from the reference loop.
        cfg = toy.ToyRunConfig(n_paths=50, n_steps=150)
        run = getattr(toy, f"run_{direction}")(target, cfg, np.random.default_rng(4))
        ref = globals()[f"reference_{direction}"](target, cfg, np.random.default_rng(4))
        assert_same_runs(run, ref, atol=1e-10)
        assert not all(np.array_equal(run[t], ref[t]) for t in run)

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

    @pytest.mark.parametrize("final_time,n_steps", [(5e-324, 3), (1e-320, 3000)])
    def test_grid_with_a_repeated_time_is_rejected(self, final_time, n_steps):
        # final_time / (n_steps - 1) is subnormal: neighbouring times round alike.
        assert len(set(np.linspace(0.0, final_time, n_steps).tolist())) < n_steps
        message = re.escape(f"(final_time={final_time!r}, n_steps={n_steps})")
        with pytest.raises(ValueError, match="grid times must strictly increase.*" + message):
            toy.ToyRunConfig(n_paths=5, final_time=final_time, n_steps=n_steps)
        cfg = toy.ToyRunConfig(n_paths=5, final_time=1e-300, n_steps=3000)
        assert np.all(np.diff(cfg.times()) > 0)

    def test_one_time_is_not_a_walk(self):
        with pytest.raises(ValueError, match=r"at least two times \(final_time=4\.0, n_steps=1\)"):
            toy.ToyRunConfig(n_paths=5, n_steps=1)

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


class TestReverseTimeCheck:
    def test_last_score_time_is_checked_before_any_draw(self, target):
        # The score's last evaluation is at the second grid time, 4 / 401.
        cfg = toy.ToyRunConfig(n_paths=5, final_time=4.0, n_steps=402)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(igso3.NumericalDomainError,
                           match=r"diffusion time 0\.00997.* outside \[t_min=0\.01"):
            toy.iter_reverse(target, cfg, rng)
        assert rng.bit_generator.state == state
        assert len(toy.run_forward(target, cfg, rng)) == 402


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
