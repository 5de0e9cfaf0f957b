import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from se3diffuse import igso3, process, schedules, so3

TS = schedules.TranslationSchedule()
RS = schedules.RotationSchedule()


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

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 512),
        spread=st.floats(1e-3, 1e3),
        offset=st.lists(st.floats(-1e8, 1e8), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_far_from_origin_centers(self, n, spread, offset, seed):
        # One subtraction of the rounded mean leaves about eps * |offset|.
        rng = np.random.default_rng(seed)
        translations = np.array(offset) + spread * rng.standard_normal((n, 3))
        rotations = np.broadcast_to(np.eye(3), (n, 3, 3))
        out = process.center(process.FrameSet(rotations, translations))
        assert out.centered
        shift = translations - out.translations
        bound = 8 * np.finfo(float).eps * np.abs(translations).max()
        assert np.abs(shift - shift[0]).max() <= bound

    def test_offset_frames_are_not_centered(self):
        with pytest.raises(ValueError, match="zero mean"):
            process.FrameSet(np.broadcast_to(np.eye(3), (2, 3, 3)),
                             np.full((2, 3), 1e-6), centered=True)


class TestRotationOnly:
    def test_accepts_empty_translations(self, rng):
        fs = process.center(process.FrameSet(so3.sample_uniform_so3(rng, 4),
                                             np.empty((4, 0))))
        assert fs.centered and fs.translations.shape == (4, 0)

    @pytest.mark.parametrize("width", [1, 2])
    def test_rejects_partial_translations(self, rng, width):
        with pytest.raises(ValueError, match="translations must have shape"):
            process.FrameSet(so3.sample_uniform_so3(rng, 4), np.zeros((4, width)))

    @pytest.mark.parametrize("width", [0, 3])
    def test_reference_score_matches_translation_shape(self, rng, width):
        fs = process.FrameSet(so3.sample_uniform_so3(rng, 5), np.ones((5, width)))
        rot, trans = process.reference_score(schedules.level(0.5), fs)
        assert rot.shape == (5, 3) and not rot.any()
        assert np.array_equal(trans, -fs.translations)

    def test_walk_step_draws_n_by_3_normals(self, rng):
        n = 7
        init = process.center(process.FrameSet(so3.sample_uniform_so3(rng, n),
                                               np.empty((n, 0))))
        walk_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        walk = process.iter_walk(init, process.WalkPlan(np.array([0.0, 0.1])),
                                 process.reference_score, walk_rng)
        (_, first), (t, last) = walk
        ref_rng.standard_normal((n, 3))
        assert t == 0.1 and first is init and last.translations.shape == (n, 0)
        assert walk_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_step_is_right_multiplied_exponential(self, rng):
        # Without noise, a constant coefficient drift v moves r to r exp(hat(h v)).
        n = 6
        init = make_frameset(rng, n)
        v = rng.standard_normal((n, 3))
        grid = np.array([0.7, 0.4])
        walk = process.iter_walk(init, process.WalkPlan(grid, zeta=0.0),
                                 lambda level, fs: (v, np.zeros((n, 3))), rng)
        (_, first), (_, last) = walk
        h = abs(grid[1] - grid[0])
        assert first is init
        assert np.array_equal(last.rotations, init.rotations @ so3.exp_so3(so3.hat(h * v)))

    def test_huge_step_stays_a_rotation(self, rng):
        # Steps of norm 1e8, as in toy forward --T 1e14, wrap around the group.
        n = 100
        init = make_frameset(rng, n)
        v = rng.standard_normal((n, 3))
        v *= 1e8 / np.linalg.norm(v, axis=-1, keepdims=True)
        walk = process.iter_walk(init, process.WalkPlan(np.array([0.0, 1.0]), zeta=0.0),
                                 lambda level, fs: (v, np.zeros((n, 3))), rng)
        last = list(walk)[-1][1].rotations
        assert np.abs(so3.transpose(last) @ last - np.eye(3)).max() < 1e-12
        assert np.array_equal(last, init.rotations @ so3.exp_so3(so3.hat(v)))


class TestWalkPlan:
    @pytest.mark.parametrize("ts,rs", [
        (TS, RS),
        (schedules.TranslationSchedule(0.5, 12.0),
         schedules.RotationSchedule(0.2, 1.2, kind="linear")),
    ], ids=["default", "other"])
    def test_plan_reads_the_schedules_bit_for_bit(self, ts, rs):
        times = np.linspace(1.0, 0.02, 37)
        plan = process.WalkPlan(times, ts, rs, 0.3)
        assert plan.times.tobytes() == times.tobytes()
        assert plan.g_r.tobytes() == schedules.g_r(times, rs).tobytes()
        assert plan.g_x.tobytes() == np.sqrt(schedules.beta(times, ts)).tobytes()
        assert plan.zeta == 0.3
        # The levels are the scalar calls a score made at each step: a
        # vectorized rot_variance differs from them in the last bit.
        expected = [(float(schedules.rot_variance(float(t), rs)),
                     *schedules.ou_coefficients(float(schedules.G_x(float(t), ts))))
                    for t in times]
        assert np.array(plan.levels).tobytes() == np.array(expected).tobytes()

    def test_unit_plan_reads_one(self):
        times = np.linspace(0.0, 4.0, 5)[::-1]
        plan = process.WalkPlan(times)
        assert plan.times.tobytes() == times.tobytes()
        for g in (plan.g_r, plan.g_x):
            assert g.shape == times.shape and np.all(g == 1.0)
        assert plan.zeta == 1.0
        # sigma_r^2 is the time itself, so the toy's score reads the same bits.
        rot_var = np.array([lv.rot_var for lv in plan.levels])
        assert rot_var.tobytes() == times.tobytes()
        expected = [schedules.ou_coefficients(float(t)) for t in times]
        assert np.array([lv[1:] for lv in plan.levels]).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("times,message", [
        ([0.5], "at least two times"),
        ([], "at least two times"),
        ([[0.0, 1.0]], "at least two times"),
        ([0.0, 0.5, 0.5], "strictly increase or decrease"),
        ([1.0, 0.2, 0.2], "strictly increase or decrease"),
        ([0.0, 1.0, 0.5], "strictly increase or decrease"),
        ([0.0, np.nan, 1.0], "strictly increase or decrease"),
    ])
    def test_rejects_a_grid_that_is_not_a_walk(self, times, message):
        with pytest.raises(ValueError, match=message):
            process.WalkPlan(np.array(times))

    def test_schedule_plan_needs_two_steps(self):
        with pytest.raises(ValueError, match="at least two times"):
            process.WalkPlan(np.linspace(1.0, 0.01, 1), TS, RS)

    @pytest.mark.parametrize("times", [[1.0, 0.0], [1.0, 2.0], [0.5, -0.5], [-1.0, -2.0]])
    @pytest.mark.parametrize("ts,rs", [(TS, RS), (TS, None), (None, RS)])
    def test_rejects_schedule_times_outside_unit_interval(self, times, ts, rs):
        with pytest.raises(ValueError, match=re.escape("schedule times must be in (0, 1]")):
            process.WalkPlan(np.array(times), ts, rs)
        assert process.WalkPlan(np.array(times)).times.tolist() == times

    @pytest.mark.parametrize("zeta", [-0.1, 1.5, np.nan])
    def test_rejects_zeta_outside_unit_interval(self, zeta):
        with pytest.raises(ValueError, match=r"zeta must be in \[0, 1\]"):
            process.WalkPlan(np.linspace(1.0, 0.0, 3), zeta=zeta)
        with pytest.raises(ValueError, match=r"zeta must be in \[0, 1\]"):
            process.WalkPlan(np.linspace(1.0, 0.01, 3), TS, RS, zeta)

    def test_walk_reads_the_levels_not_the_schedules(self, rng, monkeypatch):
        init, target = make_frameset(rng, 4), make_frameset(rng, 4)
        plan = process.WalkPlan(np.linspace(1.0, 0.01, 6), TS, RS, 0.5)

        def unreachable(*args):
            raise AssertionError("a schedule was read after the plan was built")

        for name in ("sigma_r", "G_x", "ou_coefficients"):
            monkeypatch.setattr(schedules, name, unreachable)
        walk = process.iter_walk(init, plan, process.fixed_target_score(target), rng)
        assert len(list(walk)) == 6

    @pytest.mark.parametrize("width", [3, 0])
    def test_walk_rejects_an_uncentered_init(self, rng, width):
        init = process.FrameSet(so3.sample_uniform_so3(rng, 4), np.zeros((4, width)))
        walk = process.iter_walk(init, process.WalkPlan(np.array([0.0, 0.1])),
                                 process.reference_score, rng)
        with pytest.raises(ValueError, match="centered initial frame set"):
            next(walk)


def noise_step(r, rng, h=0.01):
    """Rotations after one zero-drift unit-rate walk step of size ``h`` from ``r``."""
    init = process.center(process.FrameSet(r, np.empty((len(r), 0))))
    walk = process.iter_walk(init, process.WalkPlan(np.array([0.0, h])),
                             process.reference_score, rng)
    return list(walk)[-1][1].rotations


class TestWalkNoise:
    """The walk's noise: standard normal coefficient vectors in each frame."""

    H = 0.01  # steps stay far below angle pi, where the log inverts the exponential

    def test_moments(self, rng):
        r0 = np.broadcast_to(so3.sample_uniform_so3(rng), (100_000, 3, 3))
        coeffs = so3.log_rotvec(so3.transpose(r0) @ noise_step(r0, rng, self.H))
        coeffs /= np.sqrt(self.H)
        assert np.abs(coeffs.mean(axis=0)).max() < 0.02
        cov = np.cov(coeffs.T)
        assert np.abs(cov - np.eye(3)).max() < 0.02

    def test_isotropy_under_left_shift(self, rng):
        # Law of g . step(r0) matches law of step(g r0): matched moments.
        r0 = so3.sample_uniform_so3(rng)
        g = so3.sample_uniform_so3(rng)
        n = 100_000
        a = g @ noise_step(np.broadcast_to(r0, (n, 3, 3)), rng, self.H)
        b = noise_step(np.broadcast_to(g @ r0, (n, 3, 3)), rng, self.H)
        ca = so3.log_rotvec(so3.transpose(g @ r0) @ a) / np.sqrt(self.H)
        cb = so3.log_rotvec(so3.transpose(g @ r0) @ b) / np.sqrt(self.H)
        assert np.abs(ca.mean(0) - cb.mean(0)).max() < 0.02
        assert np.abs(np.cov(ca.T) - np.cov(cb.T)).max() < 0.02


class TestForwardSample:
    def test_requires_centered_input(self, rng):
        fs = process.FrameSet(
            so3.sample_uniform_so3(rng, 3), rng.standard_normal((3, 3))
        )
        with pytest.raises(ValueError):
            process.forward_sample(fs, schedules.level(0.5, TS, RS), rng)

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
                out = process.forward_sample(fs, schedules.level(t, TS, RS), rng)
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
        level = schedules.level(1.0, TS, RS)
        outs = [process.forward_sample(fs, level, rng) for _ in range(draws)]
        trans = np.stack([o.translations for o in outs])
        rot = np.stack([o.rotations for o in outs])
        # Per-coordinate variance shrinks to (n-1)/n under centering.
        var = trans.var(axis=(0, 1))
        expected = (n - 1) / n * schedules.trans_marginal(np.zeros(3), 1.0, TS).variance
        se = expected * np.sqrt(2.0 / draws)
        assert np.abs(var - expected).max() < 3 * se
        # Rotation angles follow the IGSO3 law at variance 2.25.
        assert schedules.rot_variance(1.0, RS) == 2.25
        ref = igso3.sample_igso3(np.broadcast_to(np.eye(3), (draws, 3, 3)), 2.25, rng)
        rel = so3.rotation_angle(
            so3.transpose(np.broadcast_to(fs.rotations, rot.shape)) @ rot
        )
        ks = stats.ks_2samp(rel[:, 0], so3.rotation_angle(ref)).statistic
        assert ks < 0.02

    def test_output_centered(self, rng):
        fs = make_frameset(rng, 5)
        out = process.forward_sample(fs, schedules.level(0.7, TS, RS), rng)
        assert out.centered
        assert np.abs(out.translations.mean(axis=0)).max() < 1e-12


def schedule_plan(grid):
    """The noise-free walk plan on ``grid`` and the default schedules."""
    return process.WalkPlan(grid, TS, RS, zeta=0.0)


def one_step(init, score, plan):
    """The state after the one step of the two-time walk ``plan``."""
    walk = process.iter_walk(init, plan, score, np.random.default_rng(0))
    return list(walk)[-1][1]


def assert_step(moved, expected, x):
    """``moved`` is ``expected`` to rtol 1e-14, up to the few ulps of ``x`` that
    adding the step to ``x`` and centering the sum round off."""
    assert np.allclose(moved, expected, rtol=1e-14,
                       atol=4 * np.finfo(float).eps * np.abs(x).max())


class TestWalkDrift:
    """One zeta = 0 walk step moves along the reverse drift [g_r^2 s, g_x^2 (s + x/2)]."""

    def test_reference_score_zero_state_stays(self):
        init = process.FrameSet(
            np.broadcast_to(np.eye(3), (2, 3, 3)), np.zeros((2, 3)), centered=True
        )
        out = one_step(init, process.reference_score, schedule_plan(np.array([0.5, 0.49])))
        assert np.array_equal(out.rotations, init.rotations)
        assert np.array_equal(out.translations, init.translations)

    def test_rotation_step_is_squared_diffusion_times_score(self, rng):
        init = make_frameset(rng, 4)
        score = process.fixed_target_score(make_frameset(rng, 4))
        plan = schedule_plan(np.array([0.6, 0.59]))
        out = one_step(init, score, plan)
        s, _ = score(plan.levels[0], init)
        h = abs(plan.times[1] - plan.times[0])
        step = (plan.g_r[0] ** 2 * s) * h
        assert np.array_equal(out.rotations, init.rotations @ so3.exp_so3(so3.hat(step)))

    def test_translation_step_is_squared_diffusion_times_score_plus_half_x(self, rng):
        init = make_frameset(rng, 3)
        score = process.fixed_target_score(make_frameset(rng, 3))
        plan = schedule_plan(np.array([0.3, 0.29]))
        out = one_step(init, score, plan)
        _, s_x = score(plan.levels[0], init)
        g_x, h = plan.g_x, abs(plan.times[1] - plan.times[0])
        x = init.translations
        expected = h * (g_x[0] ** 2 * s_x + 0.5 * g_x[0] ** 2 * x)
        assert_step(out.translations - x, expected, x)

    def test_reference_score_at_forward_time_zero_moves_x_by_minus_half_beta(self):
        # The end of the reverse walk is forward time t = 0, and the reference
        # score is -x: drift beta(0) (-x + x / 2) = -beta(0) / 2 x. A schedule
        # plan starts above 0; at its smallest time beta is beta(0).
        init = process.FrameSet(
            np.broadcast_to(np.eye(3), (2, 3, 3)),
            np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), centered=True,
        )
        grid = np.array([np.nextafter(0.0, 1.0), 0.01])
        assert schedules.beta(grid[0], TS) == schedules.beta(0.0, TS)
        out = one_step(init, process.reference_score, schedule_plan(grid))
        h = abs(grid[1] - grid[0])
        expected = -h * float(schedules.beta(0.0, TS)) / 2 * init.translations
        assert_step(out.translations - init.translations, expected, init.translations)
        assert np.allclose(expected, [[-5e-4, 0.0, 0.0], [5e-4, 0.0, 0.0]])


class TestReverseWalk:
    def test_zero_noise_is_seed_independent(self, rng):
        init = make_frameset(rng, 4)
        target = make_frameset(np.random.default_rng(5), 4)
        score = process.fixed_target_score(target)
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
        score = process.fixed_target_score(target)
        sim = process.SimConfig(n_steps=500, eps=0.01, noise_scale=1.0)
        init = process.reference_sample(n, rng)
        final = process.reverse_walk(init, score, TS, RS, sim, rng, record=False)[-1][1]
        var_eps = float(schedules.rot_variance(sim.eps, RS))
        fwd = igso3.sample_igso3(np.broadcast_to(target_rot, (n, 3, 3)), var_eps, rng)
        base = np.broadcast_to(target_rot, (n, 3, 3))
        ks = stats.ks_2samp(
            so3.rotation_angle(so3.transpose(base) @ final.rotations),
            so3.rotation_angle(so3.transpose(base) @ fwd),
        ).statistic
        assert ks < 0.05

    def test_generator_equals_recorded_walk(self, rng):
        init = make_frameset(rng, 5)
        score = process.fixed_target_score(make_frameset(rng, 5))
        sim = process.SimConfig(n_steps=40, eps=0.01, noise_scale=0.5)
        plan = process.WalkPlan(np.linspace(1.0, sim.eps, sim.n_steps), TS, RS, sim.noise_scale)
        walks = [
            list(process.iter_walk(init, plan, score, np.random.default_rng(3))),
            process.reverse_walk(init, score, TS, RS, sim, np.random.default_rng(3)),
        ]
        ends = process.reverse_walk(init, score, TS, RS, sim, np.random.default_rng(3),
                                    record=False)

        def bits(traj):
            return [(t, s.rotations.tobytes(), s.translations.tobytes())
                    for t, s in traj]

        assert walks[0][0][1] is init and len(walks[0]) == sim.n_steps
        assert bits(walks[0]) == bits(walks[1])
        assert bits(ends) == bits([walks[0][0], walks[0][-1]])

    def test_default_steps(self):
        assert process.SimConfig().n_steps == 500

    def test_orthonormality_drift_bounded(self, rng):
        init = make_frameset(rng, 4)
        score = process.fixed_target_score(make_frameset(rng, 4))
        sim = process.SimConfig(n_steps=1000, eps=0.01, noise_scale=1.0)
        traj = process.reverse_walk(init, score, TS, RS, sim, rng)
        worst = max(
            np.abs(so3.transpose(s.rotations) @ s.rotations - np.eye(3)).max()
            for _, s in traj
        )
        assert worst < 1e-8

    @pytest.mark.parametrize("rot", [
        lambda fs: fs.rotations @ so3.hat(np.ones(3)),  # tangent matrices r hat(v)
        lambda fs: np.ones(3),  # one vector for all frames would broadcast
        lambda fs: np.ones((1, 3)),
    ], ids=["matrices", "vector", "row"])
    def test_rejects_rotation_score_not_n_by_3(self, rng, rot):
        init = make_frameset(rng, 4)
        sim = process.SimConfig(n_steps=3)
        message = f"rotation score has shape {np.shape(rot(init))}, expected (4, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            process.reverse_walk(init, lambda level, fs: (rot(fs), np.zeros((4, 3))),
                                 TS, RS, sim, rng)

    def test_states_stay_centered(self, rng):
        init = make_frameset(rng, 6)
        score = process.fixed_target_score(make_frameset(rng, 6))
        sim = process.SimConfig(n_steps=30, eps=0.05, noise_scale=1.0)
        traj = process.reverse_walk(init, score, TS, RS, sim, rng)
        for _, state in traj:
            assert np.abs(state.translations.mean(axis=0)).max() < 1e-12


class TestLargeWalks:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 4096),
        spread=st.floats(1e-3, 1e3),
        offset=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        zeta=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=4096, spread=1e-3, offset=[1e6, -1e6, 1e6], zeta=1.0, seed=0)
    @example(n=4096, spread=1e3, offset=[-1e6, 0.0, 1e6], zeta=0.0, seed=1)
    def test_states_finite_centered_orthonormal(self, n, spread, offset, zeta, seed):
        rng = np.random.default_rng(seed)
        init = process.center(process.FrameSet(
            so3.sample_uniform_so3(rng, n),
            np.array(offset) + spread * rng.standard_normal((n, 3))))
        score = process.fixed_target_score(make_frameset(rng, n, spread))
        plan = process.WalkPlan(np.linspace(1.0, 0.5, 4), TS, RS, zeta)
        walk = process.iter_walk(init, plan, score, rng)
        for _, state in walk:
            assert np.isfinite(state.rotations).all()
            assert np.isfinite(state.translations).all()
            assert state.centered and not process._off_center(state.translations)
            gram = so3.transpose(state.rotations) @ state.rotations
            assert np.abs(gram - np.eye(3)).max() <= 1e-12


class TestScoreFromDenoised:
    def test_self_prediction_at_small_time(self, rng):
        fs = make_frameset(rng, 4)
        t = 0.05
        rot, trans = process.score_from_denoised(fs, fs, schedules.level(t, TS, RS))
        g = float(schedules.G_x(t, TS))
        expected = (
            -(1.0 - np.exp(-g / 2.0)) / (1.0 - np.exp(-g)) * fs.translations
        )
        assert np.abs(rot).max() < 1e-12
        assert np.abs(trans - expected).max() < 1e-10

    def test_equals_conditional_score_at_truth(self, rng):
        fs0 = make_frameset(rng, 3)
        level = schedules.level(0.6, TS, RS)
        fs_t = process.forward_sample(fs0, level, rng)
        rot, trans = process.score_from_denoised(fs_t, fs0, level)
        var = float(schedules.rot_variance(0.6, RS))
        direct = igso3.conditional_score(fs0.rotations, fs_t.rotations, var)
        assert np.array_equal(rot, direct)
        marg = schedules.trans_marginal(fs0.translations, 0.6, TS)
        direct_x = -(fs_t.translations - marg.mean) / marg.variance
        assert np.abs(trans - direct_x).max() < 1e-12

    def test_fixed_target_score_is_score_from_denoised(self, rng):
        fs, target = make_frameset(rng, 4), make_frameset(rng, 4)
        score, level = process.fixed_target_score(target), schedules.level(0.4, TS, RS)
        for got, want in zip(score(level, fs),
                             process.score_from_denoised(fs, target, level)):
            assert np.array_equal(got, want)

    def test_walk_concentrates_on_fixed_target(self, rng):
        n = 500
        target_rot = so3.sample_uniform_so3(np.random.default_rng(7))
        target = process.FrameSet(
            np.broadcast_to(target_rot, (n, 3, 3)), np.zeros((n, 3)), centered=True
        )
        score = process.fixed_target_score(target)
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
