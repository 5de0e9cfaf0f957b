"""Isotropic Gaussian on SO(3): heat-kernel series, image sum, score, and sampling.

The density of Brownian motion on SO(3) run for time t, relative to the
normalized Haar measure, depends only on the rotation angle w of the
relative rotation and is given by the character series

    f(w, t) = sum_{l >= 0} (2l + 1) exp(-l(l+1) t / 2) sin((l+1/2) w) / sin(w/2).

Poisson summation over l + 1/2 turns it into an exact sum over the images
w + 2 pi k of the angle (the heat kernel of S^3 = SU(2) by the method of
images):

    f(w, t) = exp(t/8) sqrt(2 pi) t^(-3/2) / sin(w/2)
              * sum_k (-1)^k (w + 2 pi k) exp(-(w + 2 pi k)^2 / (2t)).

The angle marginal under Haar is f(w, t) (1 - cos w) / pi. A score at a
rotation r is a coefficient vector v (..., 3) in the frame of r: it stands
for the tangent matrix r hat(v), and the tr(u v^T)/2 metric is the
Euclidean norm of v.

Two branches give f and q = (d log f/dw) / w at given angles; q is even
and finite at w = 0, so the score at a rotation vector v is v q at every
angle:

- ``t <= T_IMAGE``: the image sum. Images are taken in pairs about the
  nearer of 0 and pi (k and -k about 0, k and -k-1 about pi), each pair
  written through exp/expm1 of its distance to that center, so nothing
  cancels as w -> 0 or w -> pi, and f keeps its relative precision out to
  f(pi, t_min) ~ 1e-211, far past the series' roundoff floor of about
  eps * f(0, t). A pair is kept while its weight against the k = 0 image
  can reach exp(-80) at w = pi: one pair below t ~ 0.49, three at
  t = 2.25 (the variance at the end of the default rotation schedule),
  six at T_IMAGE.
- ``t > T_IMAGE``: the character series, cut after l = 3
  (:data:`_SERIES_TERMS`), where every later weight is below machine
  epsilon times the l = 1 weight, and summed as cosines of m w with the
  tail sums of its weights (:func:`_series`), so nothing cancels at small
  angles.

Against a high-precision reference at 0, 1e-8 and 38 angles from 1e-4 to
pi, q is within 6e-16 relative up to t = 2.25 and from T_IMAGE to t = 100;
the image sum's alternating pairs take that to 1.7e-15 at t = 4 and 9.3e-14
at T_IMAGE, where its score w q is within 1.1e-15 max(1, |score|). f is
within 1e-15 relative above t = 0.5 and 3e-14 at t_min.

Both branches keep a number of terms fixed by t alone and add them up
elementwise, so the bits of f and q at an angle depend on that angle and
t, not on the other angles evaluated with it.

Tables (:func:`build_tables`) hold f and df/dw = f q w on a uniform angle
grid, built one time at a time, so a table's bits do not depend on the
other times built with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import so3


class NumericalDomainError(ValueError):
    """Raised when an evaluation leaves the numerically trustworthy domain."""


@dataclass(frozen=True)
class TruncationConfig:
    """Discretization of the IGSO3 tables and CDFs.

    angle_grid: points of the uniform angle grid for tables and CDFs.

    The evaluators at given angles take one too but read nothing from it.
    Every configuration shares the smallest trusted time :data:`T_MIN`.
    """

    angle_grid: int = 1000

    def __post_init__(self):
        if self.angle_grid < 2:
            raise ValueError("angle_grid must be >= 2")


DEFAULT_CONFIG = TruncationConfig()

T_MIN = 0.01  # smallest accepted diffusion time: sigma_min^2 of the default rotation schedule
T_IMAGE = 8.0  # largest time evaluated by the image sum; the series takes over above
# Series weights l = 0..3. The next, 9 exp(-10 t), is below eps times the
# l = 1 weight 3 exp(-t) for every t > T_IMAGE.
_SERIES_TERMS = 4
# Angles below are evaluated here, where f and q are their w -> 0 limits to
# a double and w / sin(w/2), (1 - exp(-a)) / a have no 0/0 or underflow.
_W_MIN = 1e-100


def check_time(t: float) -> float:
    """``t`` as a float; raises :class:`NumericalDomainError` outside [T_MIN, inf)."""
    t = float(t)
    if not T_MIN <= t < np.inf:
        raise NumericalDomainError(f"diffusion time {t} outside [t_min={T_MIN}, inf)")
    return t


def _series(omega: np.ndarray, t: float):
    """f and q at angles ``omega`` > 0 by the series' first four terms, as cosines.

    sin((l + 1/2) w) / sin(w/2) = 1 + 2 sum_{m=1}^{l} cos(m w), so with the
    tail weights W_m = sum_{l >= m} w_l, f = W_0 + 2 sum_{m>=1} W_m cos(m w)
    and q = -2 sum_{m>=1} m W_m (sin(m w) / w) / f: no division by
    sin(w/2), and at small angles the terms of each sum share one sign, so
    nothing cancels.
    """
    # Python floats: at huge t, l(l+1) t is inf and its weight exp(-inf) = 0,
    # where numpy would raise on the overflow inside the CLI's errstate.
    weights = [(2 * l + 1) * math.exp(-(l * (l + 1)) * t / 2.0) for l in range(_SERIES_TERMS)]
    tail = np.cumsum(weights[::-1])[::-1]
    f, d = 0.0, 0.0
    for m in range(1, _SERIES_TERMS):
        f = f + 2.0 * tail[m] * np.cos(m * omega)
        d = d - 2.0 * m * tail[m] * (np.sin(m * omega) / omega)
    f = tail[0] + f
    return f, d / f


def _shaped(values: np.ndarray, omega):
    return values.reshape(np.shape(omega)) if np.ndim(omega) else float(values[0])


# pi - float(pi): the rounding of pi, so pi - w is exact to a double near pi.
_PI_LO = 1.2246467991473532e-16
# Image pairs are kept while the first dropped one can reach exp(-_IMAGE_DROP)
# of the sum; the margin covers the factors up to 4 c^4 / t^2 by which a pair's
# part of the score can exceed its part of f.
_IMAGE_DROP = 80.0
# |B_2n| / (2n)! for n = 1..12, highest first: (1/w - cot(w/2)/2) / w is
# sum_n |B_2n| w^(2n-2) / (2n)!, which these terms give to a double below w = 1.
_BERNOULLI = (1 / 6, 1 / 30, 1 / 42, 1 / 30, 5 / 66, 691 / 2730, 7 / 6, 3617 / 510,
              43867 / 798, 174611 / 330, 854513 / 138, 236364091 / 2730)
_COT_COEFFS = tuple(b / math.factorial(2 * n + 2) for n, b in reversed(list(enumerate(_BERNOULLI))))
# 2k / (2k + 1)! for k = 8..1, highest first: chi(a) / a^3 to a double below a = 1.
_CHI_COEFFS = tuple(2 * k / math.factorial(2 * k + 1) for k in range(8, 0, -1))


def _image_pairs(t: float) -> int:
    """Image pairs about 2 pi j, j >= 1, kept at time ``t``.

    The pair about 2 pi j weighs at most exp(-2 pi^2 j (j - 1) / t) against
    the k = 0 image, its weight at w = pi; the first one below
    exp(-_IMAGE_DROP) is dropped. Angles near pi, paired about (2j + 1) pi,
    need one pair more.
    """
    n = 0
    while 2.0 * np.pi**2 * (n + 1) * n < _IMAGE_DROP * t:
        n += 1
    return n


@lru_cache(maxsize=8)
def _pair_centers(n: int):
    """(n, 1) columns for the pairs j = 1..n about 0: centers 2 pi j, their
    rounding 2 pi j - float(2 pi j) and signs (-1)^j; then the centers
    (2j + 1) pi and signs (-1)^j of the pairs j = 0..n about pi."""
    j = np.arange(n + 1)[:, None]
    signs = np.where(j % 2 == 1, -1.0, 1.0)
    return 2.0 * np.pi * j[1:], 2.0 * _PI_LO * j[1:], signs[1:], (2 * j + 1) * np.pi, signs


def _inv_minus_half_cot(w, t: float):
    """(1/w - cot(w/2)/2) / w for 0 < w <= pi, without the cancellation near 0.

    Below w = min(1, sqrt(t)) the series, with the terms that can change a
    double there: the n-th is about (w / 2 pi)^(2n - 2) of the first. Above,
    the direct form, whose rounding of about 2 eps / w^2 is within a few eps
    of q, about 1 / t in size.
    """
    cut = min(1.0, math.sqrt(t))
    x = np.minimum(w, cut)
    coeffs = _COT_COEFFS[-math.ceil(20.0 / math.log(2.0 * np.pi / cut)):]
    x2 = x * x
    series = coeffs[0] * x2
    for coeff in coeffs[1:-1]:
        series += coeff
        series *= x2
    series += coeffs[-1]
    if np.fmax.reduce(w, initial=0.0) < cut:  # no angle needs the direct form
        return series
    return np.where(w < cut, series, (1.0 / w - 0.5 / np.tan(0.5 * w)) / w)


def _image_sum(y: np.ndarray, t: float):
    """f and q at angles ``y`` > 0 by the image sum.

    About 0, with each pair center c = 2 pi j, a = 2cy/t,
    m = 1 - exp(-a) and u = 2c^2/t, the sum over images divided by the
    k = 0 weight exp(-y^2 / 2t) is y S, S = 1 + sum_j (-1)^j r_j
    (2 - m - u m/a), where r_j = exp(-c (c - 2y) / 2t) is the pair's weight
    relative to it, and f = scale exp(-y^2 / 2t) y S / sin(y/2). Then
    q = Z / (t S) + (1/y - cot(y/2)/2) / y with Z = t (dS/dy) / y - S
    = -1 + sum_j (-1)^j r_j (u^2 chi(a) / a^3 + 2u m/a - (2 - m)), where
    chi(a) = 2 - a - (2 + a) exp(-a) = O(a^3) comes from its series below
    a = 1: every term is finite as y -> 0. A call whose pair weights are
    all exactly 0 skips them, as each would add exactly 0. Within t / (2 pi)
    of pi, with v = pi - y and a = 2cv/t, the pairs about c = (2j + 1) pi
    sum to S = E (c (2 - m) - v m), E = exp(-(c - v)^2 / 2t), and
    d log f/dy is -(dS/dv) / S - tan(v/2)/2. The smallest and largest angles only decide
    which of the wrap into [0, pi], the series of chi and the branch about
    pi have any work.
    """
    # fmin/fmax: a nan angle gives nan alone
    bottom, top = np.fmin.reduce(y, initial=np.inf), np.fmax.reduce(y, initial=0.0)
    if top > np.pi:  # f is even and 2 pi-periodic in w, so w q is odd and 2 pi-periodic
        w = np.remainder(y, 2.0 * np.pi)
        flip = w > np.pi
        w = np.where(flip, 2.0 * np.pi - w, w)
        f, q = _image_sum(np.maximum(w, _W_MIN), t)
        return f, np.where(w == y, q, np.where(flip, -q, q) * w / y)
    c, c_lo, signs, c_pi, signs_pi = _pair_centers(_image_pairs(t))
    s, z = 1.0, -1.0  # the k = 0 image's parts of S and Z
    exponent = c * ((c - 2.0 * y) + c_lo) * (-0.5 / t)
    if (exponent > -746.0).any():  # else every exp(exponent) is exactly 0.0
        r = signs * np.exp(exponent)
        a = (2.0 / t) * c * y
        neg_m = np.expm1(-a)
        two_m = 2.0 + neg_m
        m_a = neg_m / -a
        # chi(a) / a^3; the series replaces it below a = 1, where this form cancels
        chi = (-2.0 * neg_m - a * two_m) / np.maximum(a, 1.0) ** 3
        if bottom < 0.5 * t / c[0, 0]:  # some a < 1
            low = a < 1.0  # chi = -4 exp(-a/2) sum_k 2k (a/2)^(2k+1) / (2k+1)!
            b2 = 0.25 * a[low] ** 2
            chi[low] = -0.5 * np.sqrt(1.0 + neg_m[low]) * np.polyval(_CHI_COEFFS, b2)
        u = (2.0 / t) * c * c
        s = s + (r * (two_m - u * m_a)).sum(axis=0)
        z = z + (r * (u * (u * chi + 2.0 * m_a) - two_m)).sum(axis=0)
    q = z / (t * s) + _inv_minus_half_cot(y, t)
    s = s * y * np.exp(y * y * (-0.5 / t))
    if top > np.pi - t / (2.0 * np.pi):
        about_pi = y > np.pi - t / (2.0 * np.pi)
        v = (np.pi - y[about_pi]) + _PI_LO
        a = (2.0 / t) * c_pi * v
        neg_m = np.expm1(-a)
        e = signs_pi * np.exp((c_pi - v) ** 2 * (-0.5 / t))
        s[about_pi] = s_pi = (e * (c_pi * (2.0 + neg_m) + v * neg_m)).sum(axis=0)
        ds = (e * (2.0 * a - neg_m * (1.0 - (c_pi + v) ** 2 / t))).sum(axis=0)
        q[about_pi] = (ds / s_pi - 0.5 * np.tan(0.5 * v)) / y[about_pi]
    scale = math.exp(t / 8.0) * math.sqrt(2.0 * np.pi) * t**-1.5
    f = s * scale
    f /= np.sin(0.5 * y)
    return f, q


def f_q(omega, t: float, table=None):
    """f(w, t) and q = (d log f/dw) / w, which is f''(0) / f(0) at w = 0, shaped
    like ``omega``: the image sum up to :data:`T_IMAGE`, the series above, or
    from ``table`` the interpolated df/dw over the interpolated f and w."""
    w = np.maximum(np.abs(np.asarray(omega, dtype=float)), _W_MIN)
    if table is not None:
        f = table.interp_f(w)
        return f, table.interp_df(w) / f / w
    t = check_time(t)
    f, q = (_image_sum if t <= T_IMAGE else _series)(np.atleast_1d(w).ravel(), t)
    return _shaped(f, omega), _shaped(q, omega)


def f_df(omega, t: float):
    """f(w, t) and df/dw = f q w shaped like ``omega`` (see :func:`f_q`)."""
    f, q = f_q(omega, t)
    return f, f * q * np.asarray(omega, dtype=float)


def f_igso3(omega, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """Heat kernel f(w, t) of :func:`f_q`, vectorized over ``omega``."""
    return f_q(omega, t)[0]


def df_igso3_domega(omega, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """Analytic df/dw of :func:`f_igso3`, f q w; odd in w."""
    return f_df(omega, t)[1]


# (center, rotation) pairs of a mixture, or rows of a draw, evaluated at a
# time, so that their arrays keep one size whatever the batch.
_MIXTURE_PAIRS = 2048


def _center_sum(x):
    """Sum of ``x`` (K, ...) over its centers, added one after another onto
    0.0: the order numpy takes along a first axis of more than one row, here
    for every row count, so a row's bits do not depend on its batch."""
    total = 0.0
    for part in x:
        total = total + part
    return total


def _mixture(centers, rt, t, table, weights, score):
    """The density (``score`` false) or score coefficients of the mixture,
    evaluated a block of about :data:`_MIXTURE_PAIRS` pairs at a time along
    the batch's first axis. A single rotation is a batch of one.
    """
    centers, rt = np.asarray(centers, dtype=float), np.asarray(rt, dtype=float)
    batch = np.broadcast_shapes(centers.shape[1:-2], rt.shape[:-2])
    single = not batch
    if single:
        centers, rt, batch = centers[:, None], rt[None], (1,)
    # Batch axes padded on the left, so that each center broadcasts against rt.
    pad = (1,) * (len(batch) + 3 - centers.ndim)
    centers = centers.reshape(centers.shape[:1] + pad + centers.shape[1:])
    inv = so3.transpose(np.broadcast_to(centers, centers.shape[:1] + batch + (3, 3)))
    rt = np.broadcast_to(rt, batch + (3, 3))
    width = max(1, _MIXTURE_PAIRS // max(len(inv) * math.prod(batch[1:]), 1))
    out = np.empty(batch + ((3,) if score else ()))
    for lo in range(0, batch[0], width):
        rows = slice(lo, lo + width)
        rel = inv[:, rows] @ rt[rows]
        parts = so3.skew_trace(rel)
        f, q = f_q(parts.angle, t, table)
        weighted = f if weights is None else np.reshape(weights, (-1,) + (1,) * (f.ndim - 1)) * f
        total = _center_sum(weighted)
        if np.any(total <= 0.0):
            raise NumericalDomainError("density not positive; increase t")
        if not score:
            out[rows] = total
            continue
        out[rows] = _center_sum(so3.log_rotvec(rel, parts) * (weighted / total * q)[..., None])
    return out[0] if single else out


def mixture_density(centers, rt, t: float, cfg=DEFAULT_CONFIG, table=None, weights=None):
    """Density at ``rt`` of sum_k w_k IGSO3(.; centers[k], t) w.r.t. normalized Haar measure.

    ``centers`` is (K, ..., 3, 3), each ``centers[k]`` broadcasting against
    ``rt`` with their batch axes aligned on the right: K atoms (K, 3, 3)
    against P rotations (P, 3, 3) give the P densities of the K-atom
    mixture. ``weights`` (K,) default to a single center of weight 1. A
    ``table`` for time ``t`` replaces :func:`f_igso3` by interpolation. Raises
    :class:`NumericalDomainError` where the density is not positive.
    """
    return _mixture(centers, rt, t, table, weights, False)


def mixture_score(centers, rt, t: float, cfg=DEFAULT_CONFIG, table=None, weights=None):
    """Riemannian gradient at ``rt`` of log :func:`mixture_density` (same arguments).

    The coefficient vector (..., 3) in the frame of ``rt``:
    ``sum_k v_k post_k q_k`` with ``v_k`` the rotation vector of
    ``centers[k]^T rt``, q from :func:`f_q` and posteriors
    ``post_k = w_k f_k / sum w f``; a center at ``rt`` adds exactly 0.
    """
    return _mixture(centers, rt, t, table, weights, True)


def igso3_density(r0, rt, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """IGSO3 density of ``rt`` around ``r0`` w.r.t. normalized Haar measure."""
    return mixture_density(np.asarray(r0, dtype=float)[None], rt, t, cfg)


def conditional_score(r0, rt, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """Riemannian gradient at ``rt`` of log IGSO3(rt; r0, t), as coefficients.

    Equals ``log_rotvec(r0^T rt) q`` (..., 3) with q from :func:`f_q` at the
    relative angle: near the identity, about -(1/t - 1/12) log_rotvec at small t.
    """
    return mixture_score(np.asarray(r0, dtype=float)[None], rt, t, cfg)


@dataclass(frozen=True)
class IGSO3Table:
    """Tabulated density, angle derivative, and angle CDF for one time.

    The values are :func:`f_igso3` and :func:`df_igso3_domega` on the
    uniform grid; ``cdf_vals`` is the normalized trapezoidal CDF of the
    angle marginal f(w,t)(1-cos w)/pi there. ``raw_mass`` records the
    integral before normalization (1 up to the trapezoid's error).
    """

    t: float
    omega_grid: np.ndarray
    f_vals: np.ndarray
    df_vals: np.ndarray
    cdf_vals: np.ndarray
    raw_mass: float = 1.0

    def interp_f(self, omega):
        return np.interp(omega, self.omega_grid, self.f_vals)

    def interp_df(self, omega):
        return np.interp(omega, self.omega_grid, self.df_vals)

    def sample_angles(self, rng: np.random.Generator, shape=()):
        return np.interp(rng.random(shape), self.cdf_vals, self.omega_grid)


def build_table(t: float, cfg: TruncationConfig = DEFAULT_CONFIG) -> IGSO3Table:
    """Tabulate f, df/dw, and the angle CDF on the uniform grid."""
    return build_tables([t], cfg)[0]


def build_tables(ts, cfg: TruncationConfig = DEFAULT_CONFIG) -> list[IGSO3Table]:
    """:func:`build_table` for each time of ``ts``, one time at a time.

    Raises :class:`NumericalDomainError` at the first time whose f is
    negative or not finite on the grid.
    """
    grid = np.linspace(0.0, np.pi, cfg.angle_grid)
    haar, steps = 1.0 - np.cos(grid), np.diff(grid)
    tables = []
    for t in ts:
        f, df = f_df(grid, t)
        if not ((f >= 0.0) & (f < np.inf)).all():
            raise NumericalDomainError(f"density negative or not finite at t={float(t)}")
        pdf = f * haar / np.pi
        cdf = np.zeros(grid.shape)
        np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * steps, out=cdf[1:])
        raw_mass = cdf[-1]
        tables.append(IGSO3Table(float(t), grid, f, df, cdf / raw_mass, float(raw_mass)))
    return tables


def sample_igso3(
    r0: np.ndarray, table: IGSO3Table, rng: np.random.Generator
) -> np.ndarray:
    """Draw from IGSO3(.; r0, table.t), one sample per base rotation.

    The angle comes from inverse transform sampling on the tabulated CDF
    with linear interpolation; the axis is uniform on the sphere. Every
    angle is drawn, then every axis; the rotations are then built
    :data:`_MIXTURE_PAIRS` rows at a time, so only the draws and the result
    grow with the rows.
    """
    r0 = np.asarray(r0, dtype=float)
    rotvecs = so3.random_rotvecs(table.sample_angles(rng, r0.shape[:-2]), rng)
    if r0.ndim == 2:
        return r0 @ so3.exp_so3(so3.hat(rotvecs))
    out = np.empty(r0.shape)
    for lo in range(0, len(r0), _MIXTURE_PAIRS):
        b = slice(lo, lo + _MIXTURE_PAIRS)
        out[b] = r0[b] @ so3.exp_so3(so3.hat(rotvecs[b]))
    return out


def score_from_table(
    r0, rt, table: IGSO3Table, cfg: TruncationConfig = DEFAULT_CONFIG
):
    """:func:`conditional_score` from a table of time ``table.t`` (see :func:`f_q`)."""
    return mixture_score(np.asarray(r0, dtype=float)[None], rt, table.t, cfg, table)


def riemannian_gradient_fd(
    fn: Callable[[np.ndarray], float], r: np.ndarray, h: float = 1e-4
) -> np.ndarray:
    """Central-difference Riemannian gradient of a scalar function at ``r``.

    Differentiates ``t -> fn(r exp_so3(hat(t e_i)))`` at t = 0 along the
    three orthonormal tangent directions and returns the tangent matrix
    ``r hat(coeffs)``.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    r = np.asarray(r, dtype=float)
    coeffs = np.empty(3)
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        plus = fn(r @ so3.exp_so3(so3.hat(step)))
        minus = fn(r @ so3.exp_so3(so3.hat(-step)))
        coeffs[i] = (plus - minus) / (2.0 * h)
    return r @ so3.hat(coeffs)


def expected_score_norm_sq(t: float, cfg: TruncationConfig = DEFAULT_CONFIG) -> float:
    """E[|grad log p_{t|0}|^2] under the angle marginal, by trapezoid.

    The squared score norm at angle w is (w q)^2 in the tr(u v^T)/2
    metric, so this is the integral of (w q)^2 f (1-cos w)/pi.
    """
    grid = np.linspace(0.0, np.pi, cfg.angle_grid)
    f, q = f_q(grid, t)
    return float(np.trapezoid((grid * q) ** 2 * f * (1.0 - np.cos(grid)) / np.pi, grid))

