import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from se3diffuse import so3


def random_rotations(rng, n):
    return so3.sample_uniform_so3(rng, n)


unit_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: 0.1 < np.linalg.norm(v) <= 1.8)


class TestHatVee:
    def test_zero(self):
        assert np.array_equal(so3.hat(np.zeros(3)), np.zeros((3, 3)))

    def test_basis_combination(self):
        expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        assert np.array_equal(so3.hat([1.0, 2.0, 3.0]), expected)

    def test_hat_is_skew(self, rng):
        a = so3.hat(rng.standard_normal((100, 3)))
        assert np.abs(a + so3.transpose(a)).max() == 0.0

    def test_vee_inverts_hat(self, rng):
        v = rng.standard_normal((100, 3))
        assert np.array_equal(so3.vee(so3.hat(v)), v)

    def test_vee_zero(self):
        assert np.array_equal(so3.vee(np.zeros((3, 3))), np.zeros(3))

    def test_vee_rejects_non_skew(self):
        with pytest.raises(ValueError):
            so3.vee(np.eye(3))


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert np.allclose(so3.exp_so3(np.zeros((3, 3))), np.eye(3))

    def test_exp_quarter_turn_x(self):
        r = so3.exp_so3(so3.hat([np.pi / 2, 0.0, 0.0]))
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(r, expected, atol=1e-15)

    def test_exp_half_turn_x(self):
        r = so3.exp_so3(so3.hat([np.pi, 0.0, 0.0]))
        assert np.allclose(r, np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_log_identity(self):
        assert np.allclose(so3.log_so3(np.eye(3)), np.zeros((3, 3)), atol=1e-15)

    def test_log_roundtrip_fixed_norm(self, rng):
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        v = 2.5 * axes
        back = so3.vee(so3.log_so3(so3.exp_so3(so3.hat(v))))
        assert np.abs(back - v).max() < 1e-10

    def test_log_half_turn_up_to_axis_sign(self):
        r = np.diag([1.0, -1.0, -1.0])
        v = so3.vee(so3.log_so3(r))
        assert np.isclose(np.linalg.norm(v), np.pi)
        assert np.allclose(so3.exp_so3(so3.hat(v)), r, atol=1e-12)

    @given(unit_vectors, st.floats(1e-3, np.pi - 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, direction, norm):
        v = np.asarray(direction) / np.linalg.norm(direction) * norm
        back = so3.vee(so3.log_so3(so3.exp_so3(so3.hat(v))))
        assert np.abs(back - v).max() < 1e-9

    @given(unit_vectors, st.floats(np.pi - 1e-6, np.pi))
    @settings(max_examples=200, deadline=None)
    def test_exp_log_near_half_turn(self, direction, norm):
        r = so3.exp_so3(so3.hat(np.asarray(direction) / np.linalg.norm(direction) * norm))
        assert np.abs(so3.exp_so3(so3.log_so3(r)) - r).max() <= 1e-12

    def test_exp_maps_to_rotations(self, rng):
        v = rng.standard_normal((200, 3)) * 2.0
        assert so3.is_rotation(so3.exp_so3(so3.hat(v)), tol=1e-12)


def rodrigues_oracle(v):
    """Rodrigues by matrix products: I + sin(w) K + (1 - cos w) K @ K, K = hat(v) / w."""
    theta = np.linalg.norm(v, axis=-1)[..., None, None]
    k = so3.hat(v) / theta
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


# Rotation-vector norms on both sides of the log's switch to the symmetric
# part at w = 3, down to 1e-12 and up to 1e-12 short of a half turn.
kernel_norms = st.one_of(
    st.floats(1e-12, 1e-4),
    st.floats(1e-4, 3.0),
    st.floats(3.0, np.pi - 1e-12),
    st.floats(np.pi - 1e-6, np.pi - 1e-12),
)


class TestClosedFormKernels:
    @given(unit_vectors, kernel_norms)
    @settings(max_examples=300, deadline=None)
    def test_log_and_angle_invert_exp(self, direction, norm):
        v = np.asarray(direction) / np.linalg.norm(direction) * norm
        r = so3.exp_so3(so3.hat(v))
        assert np.abs(so3.log_rotvec(r) - v).max() <= 4e-15
        assert abs(so3.rotation_angle(r) - np.linalg.norm(v)) <= 4e-15

    def test_log_and_angle_invert_exp_batch(self, rng):
        n = 20_000
        axes = rng.standard_normal((n, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        norms = np.concatenate([
            10.0 ** rng.uniform(-12.0, 0.0, n // 4),
            rng.uniform(2.9, 3.1, n // 4),
            np.pi - 10.0 ** rng.uniform(-12.0, 0.0, n // 4),
            rng.uniform(1e-12, np.pi - 1e-12, n // 4),
        ])
        v = axes * norms[:, None]
        r = so3.exp_so3(so3.hat(v))
        assert np.abs(so3.log_rotvec(r) - v).max() <= 4e-15
        assert np.abs(so3.rotation_angle(r) - np.linalg.norm(v, axis=-1)).max() <= 4e-15

    def test_small_angle_is_accurate(self, rng):
        # arccos of the trace gives 0 or 1.5e-8 here.
        axis = rng.standard_normal(3)
        r = so3.exp_so3(so3.hat(1e-8 * axis / np.linalg.norm(axis)))
        assert abs(so3.rotation_angle(r) - 1e-8) <= 1e-15

    def test_exp_matches_matrix_product_rodrigues(self, rng):
        axes = rng.standard_normal((5000, 3))
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        norms = np.concatenate([
            10.0 ** rng.uniform(-7.0, 0.0, 2500), rng.uniform(0.0, np.pi, 2500)
        ])
        v = axes * norms[:, None]
        assert np.abs(so3.exp_so3(so3.hat(v)) - rodrigues_oracle(v)).max() <= 4e-15

    def test_exp_below_taylor_switch_matches_oracle(self):
        v = np.array([3e-9, -4e-9, 1e-9])
        assert np.abs(so3.exp_so3(so3.hat(v)) - rodrigues_oracle(v)).max() <= 1e-16

    def test_log_exact_half_turns(self):
        for axis in np.eye(3):
            r = so3.exp_so3(so3.hat(np.pi * axis))
            back = so3.log_rotvec(r)
            assert np.abs(np.abs(back) - np.pi * axis).max() <= 4e-15
            assert np.abs(so3.exp_so3(so3.hat(back)) - r).max() <= 1e-15


class TestRotationAngle:
    def test_identity(self):
        assert so3.rotation_angle(np.eye(3)) == 0.0

    def test_half_turn(self):
        assert np.isclose(so3.rotation_angle(np.diag([1.0, -1.0, -1.0])), np.pi)

    def test_conjugation_invariant(self, rng):
        g = random_rotations(rng, 100)
        r = random_rotations(rng, 100)
        conj = g @ r @ so3.transpose(g)
        assert np.abs(so3.rotation_angle(conj) - so3.rotation_angle(r)).max() < 1e-12

    def test_inverse_invariant(self, rng):
        r = random_rotations(rng, 50)
        assert np.abs(
            so3.rotation_angle(so3.transpose(r)) - so3.rotation_angle(r)
        ).max() < 1e-12


class TestSkewTrace:
    def rotations(self, rng):
        """Uniform rotations plus angles near 0 and pi, where the log switches form."""
        axes = rng.standard_normal((40, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        angles = np.concatenate([[0.0, 1e-9, 1e-6, 2e-6, 3.0, np.pi - 1e-9, np.pi],
                                 rng.uniform(2.9, np.pi, 33)])
        return np.concatenate([random_rotations(rng, 60), so3.exp_so3(so3.hat(angles[:, None] * axes))])

    def test_angle_is_atan2_of_skew_norm_and_trace(self, rng):
        r = self.rotations(rng)
        x = r[:, 2, 1] - r[:, 1, 2]
        y = r[:, 0, 2] - r[:, 2, 0]
        z = r[:, 1, 0] - r[:, 0, 1]
        expected = np.arctan2(np.sqrt(x * x + y * y + z * z), np.trace(r, axis1=1, axis2=2) - 1.0)
        assert np.array_equal(so3.skew_trace(r).angle, expected)
        assert np.array_equal(so3.rotation_angle(r), expected)

    def test_shared_parts_give_the_same_log(self, rng):
        r = self.rotations(rng)
        parts = so3.skew_trace(r)
        assert np.array_equal(so3.log_rotvec(r, parts), so3.log_rotvec(r))
        assert np.array_equal(so3.rotation_angle(r), parts.angle)


class TestUniformSampler:
    def test_mean_angle(self, rng):
        r = so3.sample_uniform_so3(rng, 100_000)
        mean = so3.rotation_angle(r).mean()
        assert abs(mean - (np.pi / 2 + 2 / np.pi)) < 0.01

    def test_columns_uniform_on_sphere(self, rng):
        r = so3.sample_uniform_so3(rng, 100_000)
        for col in range(3):
            assert np.linalg.norm(r[..., :, col].mean(axis=0)) < 0.01

    def test_exact_haar_angle_law(self, rng):
        # The Haar angle has density (1 - cos w) / pi, so CDF (w - sin w) / pi;
        # 1.36 / sqrt(n) is the one-sample KS bound at the 95 % level.
        n = 100_000
        r = so3.sample_uniform_so3(rng, n)
        ks = stats.kstest(so3.rotation_angle(r), lambda w: (w - np.sin(w)) / np.pi)
        assert ks.statistic < 1.36 / np.sqrt(n)
        assert np.abs(np.linalg.det(r) - 1.0).max() < 1e-12
        assert np.abs(so3.transpose(r) @ r - np.eye(3)).max() < 1e-12

    def test_left_invariance_ks(self, rng):
        g = so3.sample_uniform_so3(rng)
        a = so3.rotation_angle(g @ so3.sample_uniform_so3(rng, 100_000))
        b = so3.rotation_angle(so3.sample_uniform_so3(rng, 100_000))
        assert stats.ks_2samp(a, b).statistic < 0.02


def _closed_form_cases(rng):
    """(rotation, angle, unit axis) at the numerical edges of the log."""
    axes = list(np.eye(3)) + [rng.standard_normal(3)]
    cases = []
    for u in axes:
        u = u / np.linalg.norm(u)
        for w in (0.0, 1e-9, 1e-6, np.pi - 1e-6):
            cases.append((so3.exp_so3(so3.hat(w * u)), w, u))
        # A quaternion with a = 0 gives a matrix with no skew part: angle float(pi).
        cases.append((so3.rotation_from_quat(np.concatenate([[0.0], u])), np.pi, u))
    # Rotations whose quaternions hold subnormals and -0.0.
    v = np.array([1e-310, -3e-320, 0.0])  # |v| underflows: w and u written out
    cases.append((so3.exp_so3(so3.hat(v)), 1e-310, np.array([1.0, -3e-10, 0.0])))
    r = np.eye(3)
    r[1, 0] = -0.0
    cases.append((r, 0.0, np.array([1.0, 0.0, 0.0])))
    return cases


class TestQuaternions:
    def test_identity(self):
        assert np.allclose(so3.quat_from_rotation(np.eye(3)), [1, 0, 0, 0])
        assert np.allclose(so3.rotation_from_quat(np.array([1.0, 0, 0, 0])), np.eye(3))

    def test_roundtrip(self, rng):
        r = random_rotations(rng, 100)
        back = so3.rotation_from_quat(so3.quat_from_rotation(r))
        assert np.abs(back - r).max() < 1e-12

    def test_double_cover(self, rng):
        q = rng.standard_normal((50, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        assert np.abs(
            so3.rotation_from_quat(q) - so3.rotation_from_quat(-q)
        ).max() < 1e-14

    def test_unit_norm(self, rng):
        q = so3.quat_from_rotation(random_rotations(rng, 200))
        assert np.abs(np.linalg.norm(q, axis=-1) - 1.0).max() < 1e-12

    def test_closed_form_at_the_edges(self, rng):
        for r, w, u in _closed_form_cases(rng):
            q = so3.quat_from_rotation(r)
            expected = np.concatenate([[np.cos(w / 2)], np.sin(w / 2) * u])
            err = np.abs(q - expected).max()
            if w == np.pi:  # u and -u name the same half turn
                err = min(err, np.abs(q - expected * [1, -1, -1, -1]).max())
            assert err < 1e-15, (w, u, q)
            assert q[0] > 0.0
            assert abs(np.linalg.norm(q) - 1.0) < 1e-15
            assert np.abs(so3.rotation_from_quat(q) - r).max() < 1e-15


class TestGroupClosure:
    def test_drift_without_renormalization(self, rng):
        r = np.eye(3)
        factors = random_rotations(rng, 10_000)
        for f in factors:
            r = r @ f
        err = np.abs(r.T @ r - np.eye(3)).max()
        assert err < 1e-10  # documents drift level over 1e4 compositions

    def test_drift_with_renormalization(self, rng):
        r = np.eye(3)
        factors = random_rotations(rng, 10_000)
        for i, f in enumerate(factors):
            r = r @ f
            if (i + 1) % 100 == 0:
                r = so3.renormalize(r)
        err = np.abs(r.T @ r - np.eye(3)).max()
        assert err < 1e-12

    def test_renormalize_is_projection(self, rng):
        r = random_rotations(rng, 20)
        noisy = r + 1e-6 * rng.standard_normal(r.shape)
        fixed = so3.renormalize(noisy)
        assert so3.is_rotation(fixed, tol=1e-12)
        assert np.abs(fixed - r).max() < 1e-5
