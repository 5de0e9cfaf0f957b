"""Exact SO(3) primitives: hat/vee, exp/log, angles, tangent sampling.

All functions are vectorized over leading batch dimensions: rotations are
``(..., 3, 3)`` arrays, coefficient vectors ``(..., 3)``. The Lie-algebra
basis is the standard one with ``hat((1, 0, 0))`` generating rotations
about the x-axis; the inner product on the algebra is ``tr(u v^T) / 2``,
for which that basis is orthonormal.
"""

from __future__ import annotations

import numpy as np

# Taylor fallbacks: exp below 1e-8, log below 1e-6 (keeps the error under
# the roundoff floor without hitting 0/0).
_EXP_SMALL = 1e-8
_LOG_SMALL = 1e-6
_SKEW_TOL = 1e-8


def hat(v: np.ndarray) -> np.ndarray:
    """Map coefficient vectors (..., 3) to skew matrices (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def vee(a: np.ndarray, tol: float = _SKEW_TOL) -> np.ndarray:
    """Inverse of :func:`hat`; rejects matrices that are not skew."""
    a = np.asarray(a, dtype=float)
    asym = np.abs(a + transpose(a)).max(initial=0.0)
    if asym > tol:
        raise ValueError(f"input is not skew-symmetric (asymmetry {asym:.3e})")
    return np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)


def transpose(r: np.ndarray) -> np.ndarray:
    """Transpose the trailing matrix axes (group inverse for rotations)."""
    return np.swapaxes(r, -1, -2)


def exp_so3(a: np.ndarray) -> np.ndarray:
    """Rodrigues exponential of skew matrices (..., 3, 3).

    For angles below 1e-8 falls back to the second-order expansion
    ``I + a + a^2/2``.
    """
    a = np.asarray(a, dtype=float)
    v = np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)
    theta = np.linalg.norm(v, axis=-1)[..., None, None]
    safe = np.where(theta > _EXP_SMALL, theta, 1.0)
    k = a / safe
    eye = np.broadcast_to(np.eye(3), a.shape)
    rodrigues = eye + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
    taylor = eye + a + 0.5 * (a @ a)
    return np.where(theta > _EXP_SMALL, rodrigues, taylor)


def log_so3(r: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm, angle in [0, pi], as a skew matrix.

    Goes through the quaternion representation so the axis stays stable
    as the angle approaches pi.
    """
    return hat(log_rotvec(r))


def log_rotvec(r: np.ndarray) -> np.ndarray:
    """Rotation vector (angle times unit axis) of rotations (..., 3, 3)."""
    q = quat_from_rotation(r)
    a = q[..., 0]
    im = q[..., 1:]
    n = np.linalg.norm(im, axis=-1)
    angle = 2.0 * np.arctan2(n, a)
    # angle/n with the n -> 0 limit 2/a (plus the next Taylor term).
    safe_n = np.where(n > _LOG_SMALL, n, 1.0)
    scale = np.where(
        n > _LOG_SMALL,
        angle / safe_n,
        2.0 / np.where(a > 0.5, a, 1.0) * (1.0 + n * n / 6.0),
    )
    return im * scale[..., None]


def rotation_angle(r: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] via the trace formula."""
    r = np.asarray(r, dtype=float)
    tr = r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


def expmap(r0: np.ndarray, tangent: np.ndarray, tol: float = _SKEW_TOL) -> np.ndarray:
    """Exponential map from the tangent space at ``r0``.

    ``tangent`` must lie in Tan_{r0}SO(3), i.e. ``r0^T tangent`` is skew.
    """
    r0 = np.asarray(r0, dtype=float)
    local = transpose(r0) @ np.asarray(tangent, dtype=float)
    asym = np.abs(local + transpose(local)).max()
    if asym > tol:
        raise ValueError(
            f"tangent is not in the tangent space at r0 (asymmetry {asym:.3e})"
        )
    return r0 @ exp_so3(0.5 * (local - transpose(local)))


def sample_tangent_gaussian(r0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard normal in Tan_{r0}SO(3): ``r0 @ hat(delta)``, delta ~ N(0, I3)."""
    r0 = np.asarray(r0, dtype=float)
    return r0 @ hat(rng.standard_normal(r0.shape[:-2] + (3,)))


def uniform_angle_cdf(omega: np.ndarray) -> np.ndarray:
    """CDF of the Haar rotation-angle density (1 - cos w)/pi on [0, pi]."""
    omega = np.asarray(omega, dtype=float)
    return (omega - np.sin(omega)) / np.pi


def sample_uniform_so3(
    rng: np.random.Generator, n: int | None = None, grid_size: int = 1000
) -> np.ndarray:
    """Haar-uniform rotations via inverse transform on the angle CDF.

    The angle density (1 - cos w)/pi is tabulated on a uniform
    ``grid_size``-point grid by trapezoidal integration and inverted with
    linear interpolation; the axis is uniform on the sphere. Returns a
    single (3, 3) matrix when ``n`` is None, else (n, 3, 3).
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    shape = () if n is None else (int(n),)
    grid = np.linspace(0.0, np.pi, grid_size)
    pdf = (1.0 - np.cos(grid)) / np.pi
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))]
    )
    cdf /= cdf[-1]
    angles = np.interp(rng.random(shape), cdf, grid)
    axes = rng.standard_normal(shape + (3,))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    return exp_so3(hat(angles[..., None] * axes))


def quat_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (a, b, c, d) with a >= 0 for rotations (..., 3, 3).

    Uses the largest of the four squared components for the stable branch
    (Shepperd's method); the sign is canonicalized so the scalar part is
    nonnegative, and at a = 0 (half turns) so the first nonzero imaginary
    component is positive.
    """
    r = np.asarray(r, dtype=float)
    m00, m11, m22 = r[..., 0, 0], r[..., 1, 1], r[..., 2, 2]
    cand = np.stack(
        [
            1.0 + m00 + m11 + m22,
            1.0 + m00 - m11 - m22,
            1.0 - m00 + m11 - m22,
            1.0 - m00 - m11 + m22,
        ],
        axis=-1,
    )
    best = np.argmax(cand, axis=-1)
    s = np.sqrt(np.clip(np.take_along_axis(cand, best[..., None], axis=-1), 0.0, None))[
        ..., 0
    ]
    inv = 0.5 / s

    r21_12 = r[..., 2, 1] - r[..., 1, 2]
    r02_20 = r[..., 0, 2] - r[..., 2, 0]
    r10_01 = r[..., 1, 0] - r[..., 0, 1]
    r21_12p = r[..., 2, 1] + r[..., 1, 2]
    r02_20p = r[..., 0, 2] + r[..., 2, 0]
    r10_01p = r[..., 1, 0] + r[..., 0, 1]

    q0 = np.stack([0.5 * s, r21_12 * inv, r02_20 * inv, r10_01 * inv], axis=-1)
    q1 = np.stack([r21_12 * inv, 0.5 * s, r10_01p * inv, r02_20p * inv], axis=-1)
    q2 = np.stack([r02_20 * inv, r10_01p * inv, 0.5 * s, r21_12p * inv], axis=-1)
    q3 = np.stack([r10_01 * inv, r02_20p * inv, r21_12p * inv, 0.5 * s], axis=-1)

    sel = best[..., None]
    q = np.where(sel == 0, q0, np.where(sel == 1, q1, np.where(sel == 2, q2, q3)))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)

    # Canonical sign: a > 0; on the a = 0 slice, first nonzero of (b, c, d) > 0.
    flip = q[..., 0] < 0
    tie = np.abs(q[..., 0]) < 1e-15
    for i in (1, 2, 3):
        lead_zero = np.all(np.abs(q[..., 1:i]) < 1e-15, axis=-1) if i > 1 else True
        flip = flip | (tie & lead_zero & (q[..., i] < -1e-15))
    return np.where(flip[..., None], -q, q)


def rotation_from_quat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of unit quaternions (..., 4); q and -q agree."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    a, b, c, d = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = a * a + b * b - c * c - d * d
    out[..., 0, 1] = 2 * (b * c - a * d)
    out[..., 0, 2] = 2 * (b * d + a * c)
    out[..., 1, 0] = 2 * (b * c + a * d)
    out[..., 1, 1] = a * a - b * b + c * c - d * d
    out[..., 1, 2] = 2 * (c * d - a * b)
    out[..., 2, 0] = 2 * (b * d - a * c)
    out[..., 2, 1] = 2 * (c * d + a * b)
    out[..., 2, 2] = a * a - b * b - c * c + d * d
    return out


def renormalize(r: np.ndarray) -> np.ndarray:
    """Project (..., 3, 3) matrices to the nearest rotation (polar factor)."""
    u, _, vt = np.linalg.svd(np.asarray(r, dtype=float))
    det = np.linalg.det(u @ vt)
    u = u.copy()
    u[..., :, -1] *= np.where(det < 0, -1.0, 1.0)[..., None]
    return u @ vt


def is_rotation(r: np.ndarray, tol: float = 1e-10) -> bool:
    """True when every trailing 3x3 block is orthonormal with det +1."""
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        return False
    err = np.abs(transpose(r) @ r - np.eye(3)).max()
    return bool(err <= tol and np.abs(np.linalg.det(r) - 1.0).max() <= tol)
