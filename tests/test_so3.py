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


class TestExpmap:
    def test_identity_base(self, rng):
        v = rng.standard_normal(3)
        assert np.allclose(
            so3.expmap(np.eye(3), so3.hat(v)), so3.exp_so3(so3.hat(v))
        )

    def test_zero_tangent(self, rng):
        r0 = random_rotations(rng, 1)[0]
        assert np.allclose(so3.expmap(r0, np.zeros((3, 3))), r0)

    def test_definition_unrolled(self, rng):
        r0 = random_rotations(rng, 100)
        v = rng.standard_normal((100, 3))
        lhs = so3.expmap(r0, r0 @ so3.hat(v))
        rhs = r0 @ so3.exp_so3(so3.hat(v))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_rejects_non_tangent(self, rng):
        r0 = random_rotations(rng, 1)[0]
        with pytest.raises(ValueError):
            so3.expmap(r0, np.eye(3))


class TestTangentGaussian:
    def test_lives_in_tangent_space(self, rng):
        r0 = random_rotations(rng, 1000)
        out = so3.sample_tangent_gaussian(r0, rng)
        local = so3.transpose(r0) @ out
        assert np.abs(local + so3.transpose(local)).max() < 1e-12

    def test_moments(self, rng):
        r0 = random_rotations(rng, 1)[0]
        out = so3.sample_tangent_gaussian(np.broadcast_to(r0, (100_000, 3, 3)), rng)
        coeffs = so3.vee(so3.transpose(r0) @ out)
        assert np.abs(coeffs.mean(axis=0)).max() < 0.02
        cov = np.cov(coeffs.T)
        assert np.abs(cov - np.eye(3)).max() < 0.02

    def test_isotropy_under_left_shift(self, rng):
        # Law of g . sample(r0) matches law of sample(g r0): matched moments.
        r0 = random_rotations(rng, 1)[0]
        g = random_rotations(rng, 1)[0]
        n = 100_000
        a = g @ so3.sample_tangent_gaussian(np.broadcast_to(r0, (n, 3, 3)), rng)
        b = so3.sample_tangent_gaussian(np.broadcast_to(g @ r0, (n, 3, 3)), rng)
        ca = so3.vee(so3.transpose(g @ r0) @ a)
        cb = so3.vee(so3.transpose(g @ r0) @ b)
        assert np.abs(ca.mean(0) - cb.mean(0)).max() < 0.02
        assert np.abs(np.cov(ca.T) - np.cov(cb.T)).max() < 0.02


class TestUniformSampler:
    def test_mean_angle(self, rng):
        r = so3.sample_uniform_so3(rng, 100_000)
        mean = so3.rotation_angle(r).mean()
        assert abs(mean - (np.pi / 2 + 2 / np.pi)) < 0.01

    def test_columns_uniform_on_sphere(self, rng):
        r = so3.sample_uniform_so3(rng, 100_000)
        for col in range(3):
            assert np.linalg.norm(r[..., :, col].mean(axis=0)) < 0.01

    def test_default_grid_size(self):
        import inspect

        sig = inspect.signature(so3.sample_uniform_so3)
        assert sig.parameters["grid_size"].default == 1000

    def test_left_invariance_ks(self, rng):
        g = so3.sample_uniform_so3(rng)
        a = so3.rotation_angle(g @ so3.sample_uniform_so3(rng, 100_000))
        b = so3.rotation_angle(so3.sample_uniform_so3(rng, 100_000))
        assert stats.ks_2samp(a, b).statistic < 0.02


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
