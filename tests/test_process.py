import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from se3diffuse import igso3, process, schedules, so3

TS = schedules.TranslationSchedule()
RS = schedules.RotationSchedule()
CFG = igso3.DEFAULT_CONFIG


def make_frameset(rng, n, spread=1.0):
    return process.center(
        process.FrameSet(
            so3.sample_uniform_so3(rng, n), spread * rng.standard_normal((n, 3))
        )
    )


class TestCenter:
    def test_two_point_example(self):
        fs = process.FrameSet(
            np.broadcast_to(np.eye(3), (2, 3, 3)),
            np.array([[1.0, 0, 0], [3.0, 0, 0]]),
        )
        out = process.center(fs)
        assert np.array_equal(out.translations, [[-1.0, 0, 0], [1.0, 0, 0]])
        assert out.centered

    def test_idempotent(self, rng):
        fs = make_frameset(rng, 5)
        again = process.center(fs)
        assert np.array_equal(again.translations, fs.translations)

    def test_rotations_untouched(self, rng):
        rotations = so3.sample_uniform_so3(rng, 4)
        fs = process.FrameSet(rotations, rng.standard_normal((4, 3)))
        assert process.center(fs).rotations is fs.rotations

    def test_mean_is_zero(self, rng):
        fs = make_frameset(rng, 7)
        assert np.abs(fs.translations.mean(axis=0)).max() < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 2000),
        scale=st.floats(1e-3, 1e4),
        offset=st.floats(-1e4, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_large_translations_stay_valid(self, n, scale, offset, seed):
        rng = np.random.default_rng(seed)
        translations = offset + scale * rng.uniform(-1.0, 1.0, (n, 3))
        rotations = np.broadcast_to(np.eye(3), (n, 3, 3))
        out = process.center(process.FrameSet(rotations, translations))
        again = process.FrameSet(out.rotations, out.translations, centered=True)
        assert np.array_equal(again.translations, out.translations)

    def test_offset_frames_are_not_centered(self):
        with pytest.raises(ValueError, match="zero mean"):
            process.FrameSet(np.broadcast_to(np.eye(3), (2, 3, 3)),
                             np.full((2, 3), 1e-6), centered=True)


class TestForwardSample:
    def test_requires_centered_input(self, rng):
        fs = process.FrameSet(
            so3.sample_uniform_so3(rng, 3), rng.standard_normal((3, 3))
        )
        with pytest.raises(ValueError):
            process.forward_sample(fs, 0.5, TS, RS, CFG, rng)

    def test_small_time_stays_close(self, rng):
        # The schedule's variance floor sigma_min^2 = 0.01 bounds how tight
        # the t -> 0 marginal can be; check the displacement quantiles
        # against the closed-form small-noise predictions and that they
        # shrink with t.
        fs = make_frameset(rng, 4, spread=0.5)
        q99 = {}
        for t in (0.02, 0.2):
            angles, shifts = [], []
            for _ in range(2500):
                out = process.forward_sample(fs, t, TS, RS, CFG, rng)
                angles.append(
                    so3.rotation_angle(so3.transpose(fs.rotations) @ out.rotations)
                )
                shifts.append(
                    np.linalg.norm(out.translations - fs.translations, axis=-1)
                )
            q99[t] = (
                np.quantile(np.concatenate(angles), 0.99),
                np.quantile(np.concatenate(shifts), 0.99),
            )
        chi3_99 = 3.368  # 99th percentile of a 3-dim standard normal radius
        angle_pred = np.sqrt(float(schedules.rot_variance(0.02, RS))) * chi3_99
        assert abs(q99[0.02][0] - angle_pred) / angle_pred < 0.1
        # Translation quantile is inflated slightly by the centering of a
        # small frame set; bound it by the uncentered prediction.
        shift_pred = np.sqrt(schedules.trans_marginal(np.zeros(3), 0.02, TS).variance)
        assert q99[0.02][1] < shift_pred * chi3_99 * 1.1
        assert q99[0.02][0] < q99[0.2][0] and q99[0.02][1] < q99[0.2][1]

    def test_terminal_distribution(self, rng):
        n = 8
        fs = make_frameset(rng, n, spread=0.5)
        draws = 12_500
        outs = [process.forward_sample(fs, 1.0, TS, RS, CFG, rng) for _ in range(draws)]
        trans = np.stack([o.translations for o in outs])
        rot = np.stack([o.rotations for o in outs])
        # Per-coordinate variance shrinks to (n-1)/n under centering.
        var = trans.var(axis=(0, 1))
        expected = (n - 1) / n * schedules.trans_marginal(np.zeros(3), 1.0, TS).variance
        se = expected * np.sqrt(2.0 / draws)
        assert np.abs(var - expected).max() < 3 * se
        # Rotation angles follow the IGSO3 law at variance 2.25.
        assert schedules.rot_variance(1.0, RS) == 2.25
        table = igso3.cached_table(2.25, CFG)
        ref = igso3.sample_igso3(np.broadcast_to(np.eye(3), (draws, 3, 3)), table, rng)
        rel = so3.rotation_angle(
            so3.transpose(np.broadcast_to(fs.rotations, rot.shape)) @ rot
        )
        ks = stats.ks_2samp(rel[:, 0], so3.rotation_angle(ref)).statistic
        assert ks < 0.02

    def test_output_centered(self, rng):
        fs = make_frameset(rng, 5)
        out = process.forward_sample(fs, 0.7, TS, RS, CFG, rng)
        assert out.centered
        assert np.abs(out.translations.mean(axis=0)).max() < 1e-12


class TestReverseDrift:
    def test_zero_score_zero_state(self):
        fs = process.FrameSet(
            np.broadcast_to(np.eye(3), (2, 3, 3)), np.zeros((2, 3)), centered=True
        )
        rot, trans = process.reverse_drift(fs, 0.5, process.zero_score, TS, RS)
        assert rot.shape == (2, 3, 3) and trans.shape == (2, 3)
        assert np.abs(rot).max() == 0.0
        assert np.abs(trans).max() == 0.0

    def test_translation_drift_at_terminal_reverse_time(self):
        fs = process.FrameSet(
            np.broadcast_to(np.eye(3), (1, 3, 3)),
            np.array([[1.0, 0.0, 0.0]]),
        )
        # The end of the reverse walk is forward time t = 0: beta(0) / 2 x.
        _, trans = process.reverse_drift(fs, 0.0, process.zero_score, TS, RS)
        assert np.allclose(trans, [[0.05, 0.0, 0.0]])

    def test_rotation_drift_in_tangent_space(self, rng):
        fs = make_frameset(rng, 3)
        score = process.fixed_target_score(make_frameset(rng, 3), TS, RS)
        rot, _ = process.reverse_drift(fs, 0.6, score, TS, RS)
        local = so3.transpose(fs.rotations) @ rot
        assert np.abs(local + so3.transpose(local)).max() < 1e-10

    def test_scales_score_by_squared_diffusion(self, rng):
        fs = make_frameset(rng, 3)
        score = process.fixed_target_score(make_frameset(rng, 3), TS, RS)
        t = 0.3
        rot, trans = process.reverse_drift(fs, t, score, TS, RS)
        s_rot, s_trans = score(t, fs)
        b = float(schedules.beta(t, TS))
        assert np.allclose(rot, float(schedules.g_r(t, RS)) ** 2 * s_rot, rtol=1e-14)
        assert np.allclose(trans, b * s_trans + 0.5 * b * fs.translations, rtol=1e-14)


class TestReverseWalk:
    def test_zero_noise_is_seed_independent(self, rng):
        init = make_frameset(rng, 4)
        target = make_frameset(np.random.default_rng(5), 4)
        score = process.fixed_target_score(target, TS, RS)
        sim = process.SimConfig(n_steps=50, eps=0.01, noise_scale=0.0)
        traj_a = process.reverse_walk(
            init, score, TS, RS, sim, np.random.default_rng(1)
        )
        traj_b = process.reverse_walk(
            init, score, TS, RS, sim, np.random.default_rng(2)
        )
        for (_, a), (_, b) in zip(traj_a, traj_b):
            assert np.array_equal(a.rotations, b.rotations)
            assert np.array_equal(a.translations, b.translations)

    def test_exact_score_matches_forward_marginal(self, rng):
        # Rotation components of the frames evolve independently, so one
        # walk over many frames gives iid single-frame rotation chains.
        n = 10_000
        target_rot = so3.sample_uniform_so3(np.random.default_rng(99))
        target = process.FrameSet(
            np.broadcast_to(target_rot, (n, 3, 3)), np.zeros((n, 3)), centered=True
        )
        score = process.fixed_target_score(target, TS, RS)
        sim = process.SimConfig(n_steps=500, eps=0.01, noise_scale=1.0)
        init = process.reference_sample(n, rng)
        final = process.reverse_walk(init, score, TS, RS, sim, rng, record=False)[-1][1]
        var_eps = float(schedules.rot_variance(sim.eps, RS))
        fwd = igso3.sample_igso3(
            np.broadcast_to(target_rot, (n, 3, 3)), igso3.cached_table(var_eps), rng
        )
        base = np.broadcast_to(target_rot, (n, 3, 3))
        ks = stats.ks_2samp(
            so3.rotation_angle(so3.transpose(base) @ final.rotations),
            so3.rotation_angle(so3.transpose(base) @ fwd),
        ).statistic
        assert ks < 0.05

    def test_default_steps(self):
        assert process.SimConfig().n_steps == 500

    def test_orthonormality_drift_bounded(self, rng):
        init = make_frameset(rng, 4)
        score = process.fixed_target_score(make_frameset(rng, 4), TS, RS)
        sim = process.SimConfig(n_steps=1000, eps=0.01, noise_scale=1.0)
        traj = process.reverse_walk(init, score, TS, RS, sim, rng)
        worst = max(
            np.abs(so3.transpose(s.rotations) @ s.rotations - np.eye(3)).max()
            for _, s in traj
        )
        assert worst < 1e-8

    def test_rejects_score_outside_tangent_space(self, rng):
        init = make_frameset(rng, 3)

        def bad_score(t, fs):
            return np.broadcast_to(np.eye(3), (len(fs), 3, 3)), np.zeros((len(fs), 3))

        sim = process.SimConfig(n_steps=3)
        with pytest.raises(ValueError, match="tangent"):
            process.reverse_walk(init, bad_score, TS, RS, sim, rng)

    def test_states_stay_centered(self, rng):
        init = make_frameset(rng, 6)
        score = process.fixed_target_score(make_frameset(rng, 6), TS, RS)
        sim = process.SimConfig(n_steps=30, eps=0.05, noise_scale=1.0)
        traj = process.reverse_walk(init, score, TS, RS, sim, rng)
        for _, state in traj:
            assert np.abs(state.translations.mean(axis=0)).max() < 1e-12


class TestScoreFromDenoised:
    def test_self_prediction_at_small_time(self, rng):
        fs = make_frameset(rng, 4)
        t = 0.05
        rot, trans = process.score_from_denoised(fs, fs, t, TS, RS)
        g = float(schedules.G_x(t, TS))
        expected = (
            -(1.0 - np.exp(-g / 2.0)) / (1.0 - np.exp(-g)) * fs.translations
        )
        assert np.abs(rot).max() < 1e-12
        assert np.abs(trans - expected).max() < 1e-10

    def test_equals_conditional_score_at_truth(self, rng):
        fs0 = make_frameset(rng, 3)
        fs_t = process.forward_sample(fs0, 0.6, TS, RS, CFG, rng)
        rot, trans = process.score_from_denoised(fs_t, fs0, 0.6, TS, RS)
        var = float(schedules.rot_variance(0.6, RS))
        direct = igso3.conditional_score(fs0.rotations, fs_t.rotations, var)
        scale = np.maximum(1.0, np.abs(direct).max(axis=(-2, -1)))
        # Table interpolation bounds the fast path's accuracy.
        assert (np.abs(rot - direct).max(axis=(-2, -1)) / scale).max() < 1e-3
        direct_x = schedules.trans_conditional_score(
            fs0.translations, fs_t.translations, 0.6, TS
        )
        assert np.abs(trans - direct_x).max() < 1e-12

    def test_fixed_target_score_is_score_from_denoised(self, rng):
        fs, target = make_frameset(rng, 4), make_frameset(rng, 4)
        score = process.fixed_target_score(target, TS, RS)
        for got, want in zip(score(0.4, fs),
                             process.score_from_denoised(fs, target, 0.4, TS, RS)):
            assert np.array_equal(got, want)

    def test_walk_concentrates_on_fixed_target(self, rng):
        n = 500
        target_rot = so3.sample_uniform_so3(np.random.default_rng(7))
        target = process.FrameSet(
            np.broadcast_to(target_rot, (n, 3, 3)), np.zeros((n, 3)), centered=True
        )
        score = process.fixed_target_score(target, TS, RS)
        sim = process.SimConfig(n_steps=100, eps=0.01, noise_scale=1.0)
        init = process.reference_sample(n, rng)
        traj = process.reverse_walk(init, score, TS, RS, sim, rng, record=False)
        base = np.broadcast_to(target_rot, (n, 3, 3))
        start = np.median(so3.rotation_angle(so3.transpose(base) @ init.rotations))
        end = np.median(
            so3.rotation_angle(so3.transpose(base) @ traj[-1][1].rotations)
        )
        assert end < start


class TestCenteringCommutes:
    def test_moments_match(self, rng):
        # center(OU-step(fs)) and OU-step-with-projected-noise(center(fs))
        # agree in distribution; compare first and second moments.
        n, draws = 4, 50_000
        base = rng.standard_normal((n, 3))
        s, ds = 0.3, 0.05
        decay = np.exp(-0.5 * float(schedules.G_x(s + ds, TS) - schedules.G_x(s, TS)))
        noise_sd = np.sqrt(1.0 - decay**2)

        z = rng.standard_normal((draws, n, 3))
        path_a = decay * base + noise_sd * z
        path_a = path_a - path_a.mean(axis=1, keepdims=True)

        centered = base - base.mean(axis=0)
        z2 = rng.standard_normal((draws, n, 3))
        z2 = z2 - z2.mean(axis=1, keepdims=True)
        path_b = decay * centered + noise_sd * z2

        se = noise_sd / np.sqrt(draws)
        assert np.abs(path_a.mean(0) - path_b.mean(0)).max() < 3 * se * 2
        va, vb = path_a.var(axis=0), path_b.var(axis=0)
        se_var = va.mean() * np.sqrt(2.0 / (draws - 1))
        assert np.abs(va - vb).max() < 3 * se_var * 2
