"""Exact SO(3) primitives: hat/vee, exp/log, angles, uniform sampling.

All functions are vectorized over leading batch dimensions: rotations are
``(..., 3, 3)`` arrays, coefficient vectors ``(..., 3)``. The Lie-algebra
basis is the standard one with ``hat((1, 0, 0))`` generating rotations
about the x-axis; the inner product on the algebra is ``tr(u v^T) / 2``,
for which that basis is orthonormal.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Taylor fallbacks: exp and quaternions below 1e-8, log below 1e-6 (keeps
# the error under the roundoff floor without hitting 0/0).
_EXP_SMALL = 1e-8
_LOG_SMALL = 1e-6
# Above this angle the log reads the axis from the symmetric part.
_LOG_WIDE = 3.0
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

    Fills the nine entries of ``cos(w) I + (sin(w)/w) a + c(w) v v^T``
    elementwise, with ``v`` the coefficient vector of ``a``, ``w = |v|`` and
    ``c = (1 - cos w) / w^2``, both coefficients written through
    ``sin(w/2) / (w/2)`` so nothing cancels. For angles below 1e-8 they
    take their limits 1 and 1/2 (the expansion ``I + a + a^2/2``).
    """
    a = np.asarray(a, dtype=float)
    x, y, z = a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]
    half = 0.5 * np.sqrt(x * x + y * y + z * z)
    big = half > 0.5 * _EXP_SMALL
    sin_half = np.sin(half)
    ratio = np.where(big, sin_half / np.where(big, half, 1.0), 1.0)
    s = ratio * np.cos(half)
    c = 0.5 * ratio * ratio
    cos = 1.0 - 2.0 * sin_half * sin_half
    cx, cy = c * x, c * y
    cxy, cxz, cyz = cx * y, cx * z, cy * z
    sx, sy, sz = s * x, s * y, s * z
    out = np.empty(a.shape)
    out[..., 0, 0] = cos + cx * x
    out[..., 1, 1] = cos + cy * y
    out[..., 2, 2] = cos + c * z * z
    out[..., 0, 1] = cxy - sz
    out[..., 1, 0] = cxy + sz
    out[..., 0, 2] = cxz + sy
    out[..., 2, 0] = cxz - sy
    out[..., 1, 2] = cyz - sx
    out[..., 2, 1] = cyz + sx
    return out


def log_so3(r: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm, angle in [0, pi], as a skew matrix."""
    return hat(log_rotvec(r))


class SkewTrace(NamedTuple):
    """What the angle and the log of rotations (..., 3, 3) are read from.

    ``skew`` holds the components of ``r - r^T`` (2 sin(w) u), ``sin2``
    their norm 2 sin(w), ``cos2`` the trace minus one, 2 cos(w), and
    ``angle`` is w = atan2(sin2, cos2).
    """

    skew: tuple[np.ndarray, np.ndarray, np.ndarray]
    sin2: np.ndarray
    cos2: np.ndarray
    angle: np.ndarray


def skew_trace(r: np.ndarray) -> SkewTrace:
    """Skew part, trace and angle of rotations, shared by :func:`rotation_angle`,
    :func:`log_rotvec` and :func:`quat_from_rotation`; compute it once when
    more than one is needed."""
    r = np.asarray(r, dtype=float)
    x = r[..., 2, 1] - r[..., 1, 2]
    y = r[..., 0, 2] - r[..., 2, 0]
    z = r[..., 1, 0] - r[..., 0, 1]
    sin2 = np.sqrt(x * x + y * y + z * z)
    cos2 = r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2] - 1.0
    return SkewTrace((x, y, z), sin2, cos2, np.arctan2(sin2, cos2))


def log_rotvec(r: np.ndarray, parts: SkewTrace | None = None) -> np.ndarray:
    """Rotation vector (angle times unit axis) of rotations (..., 3, 3).

    The angle is ``w = atan2(|skew part|, (tr - 1) / 2)`` and the vector
    the skew part ``sin(w) u`` scaled by ``w / sin(w)``. Above w = 3 the
    skew part is too short to carry the axis, so those rows read it from
    the column of the largest diagonal entry of ``(1 - cos w) u u^T``, the
    symmetric part minus ``cos(w) I``, and take its sign from the skew part.
    ``parts`` is :func:`skew_trace` of ``r`` when the caller has it already.
    """
    r = np.asarray(r, dtype=float)
    skew, sin2, cos2, theta = skew_trace(r) if parts is None else parts
    small = sin2 <= 2.0 * _LOG_SMALL
    # w / (2 sin w), with the limit 1/2 + w^2/12 as w -> 0.
    scale = np.where(small, 0.5 + sin2 * sin2 / 48.0, theta / np.where(small, 1.0, sin2))
    out = np.stack(skew, axis=-1) * scale[..., None]
    wide = theta > _LOG_WIDE
    if np.any(wide):
        rw = r[wide]
        rows = np.arange(len(rw))
        k = np.argmax(np.einsum("...ii->...i", rw), axis=-1)
        col = rw[rows, :, k] + rw[rows, k, :]  # 2 (1 - cos w) u_k u + 2 cos(w) e_k
        col[rows, k] -= cos2[wide]
        sign = np.where(np.einsum("...i,...i->...", col, out[wide]) < 0.0, -1.0, 1.0)
        norm = np.sqrt(np.einsum("...i,...i->...", col, col))
        out[wide] = col * (sign * theta[wide] / norm)[:, None]
    return out


def rotation_angle(r: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi]: ``atan2(|skew part|, (tr - 1) / 2)``.

    Accurate to roundoff at every angle; ``arccos`` of the trace errs by
    up to about 5e-8 near 0 and pi, the square root of the trace's roundoff.
    """
    return skew_trace(r).angle


def random_rotvecs(angles: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rotation vectors (..., 3) by ``angles`` about uniform random axes drawn after them."""
    axes = rng.standard_normal(np.shape(angles) + (3,))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    return angles[..., None] * axes


def sample_uniform_so3(rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Haar-uniform rotations: the direction of a standard normal 4-vector
    is uniform on the unit quaternions (Shoemake 1992), so the draws are
    exact. Returns a single (3, 3) matrix when ``n`` is None, else (n, 3, 3).
    """
    shape = () if n is None else (int(n),)
    return rotation_from_quat(rng.standard_normal(shape + (4,)))


def quat_from_rotation(r: np.ndarray) -> np.ndarray:
    """Unit quaternion (a, b, c, d) with a > 0 of rotations (..., 3, 3).

    The half-angle form of the log: with w the angle of :func:`skew_trace`
    and :func:`log_rotvec` w times the unit axis u, the quaternion is
    ``(cos(w/2), sin(w/2) u)``, the vector part the log scaled by
    ``sin(w/2) / w`` (its limit 1/2 below w = 1e-8). ``atan2`` gives
    w <= float(pi) < pi, so the scalar part is positive, half turns too.
    """
    parts = skew_trace(r)
    w = parts.angle
    small = w < _EXP_SMALL
    ratio = np.where(small, 0.5, np.sin(0.5 * w) / np.where(small, 1.0, w))
    vec = log_rotvec(r, parts) * ratio[..., None]
    return np.concatenate([np.cos(0.5 * w)[..., None], vec], axis=-1)


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
