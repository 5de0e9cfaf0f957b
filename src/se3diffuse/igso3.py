"""Isotropic Gaussian on SO(3): heat-kernel series, score, and sampling.

The density of Brownian motion on SO(3) run for time t, relative to the
normalized Haar measure, depends only on the rotation angle w of the
relative rotation and is given by the character series

    f(w, t) = sum_{l >= 0} (2l + 1) exp(-l(l+1) t / 2) sin((l+1/2) w) / sin(w/2).

Everything here works with the truncated series; the angle marginal under
Haar is f(w, t) (1 - cos w) / pi. Scores are tangent matrices at the
evaluation point under the tr(u v^T)/2 metric.

Truncation rule: a configuration sums the first L terms, where L is the
smallest count such that every weight (2l+1) exp(-l(l+1) t_min / 2) with
l >= L is below machine epsilon times the largest weight at t_min. The
weights decay faster at larger t, so later terms cannot change a double
at any t >= t_min (L = 88 at the default t_min = 0.01). ``series_terms``
(the CLI's ``--terms``) is an upper cap on L, not the count summed.
``igsu2_density`` applies the same rule to its own weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import so3


class NumericalDomainError(ValueError):
    """Raised when an evaluation leaves the numerically trustworthy domain."""


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation and discretization knobs for the series and its tables.

    series_terms: upper cap on the number of series terms summed.
    angle_grid: points of the uniform angle grid for tables and CDFs.
    omega_eps: below this angle the analytic w -> 0 limits are used.
    t_min: smallest diffusion time at which the truncated series is
        trusted; below it the partial sums oscillate.
    """

    series_terms: int = 2000
    angle_grid: int = 1000
    omega_eps: float = 1e-4
    t_min: float = 0.01

    def __post_init__(self):
        if self.series_terms < 1:
            raise ValueError("series_terms must be >= 1")
        if self.angle_grid < 2:
            raise ValueError("angle_grid must be >= 2")
        if not 0.0 < self.omega_eps < 1e-3:
            raise ValueError("omega_eps must be in (0, 1e-3)")
        if self.t_min <= 0.0:
            raise ValueError("t_min must be positive")


DEFAULT_CONFIG = TruncationConfig()

# Fraction of probability mass allowed in clamped negative lobes before a
# table build is considered misconfigured.
_CLAMP_TOLERANCE = 1e-6


def _check_time(t: float, cfg: TruncationConfig) -> float:
    t = float(t)
    if not cfg.t_min <= t < np.inf:
        raise NumericalDomainError(
            f"diffusion time {t} outside [t_min={cfg.t_min}, inf); series unreliable"
        )
    return t


def _series_weights(ts, n_terms: int) -> np.ndarray:
    """(n_terms, len(ts)) weights (2l+1) exp(-l(l+1) t / 2), one column per time."""
    ls = np.arange(n_terms)
    return (2 * ls + 1)[:, None] * np.exp(
        -(ls * (ls + 1))[:, None] * np.atleast_1d(ts)[None, :] / 2.0
    )


def _kept_terms(weights: np.ndarray) -> int:
    """Leading terms up to the last weight >= machine epsilon times the largest."""
    above = np.flatnonzero(weights >= np.finfo(float).eps * weights.max())
    return int(above[-1]) + 1


@lru_cache(maxsize=16)
def _term_count(cfg: TruncationConfig) -> int:
    """Terms summed under ``cfg``: see the truncation rule in the module docstring."""
    return _kept_terms(_series_weights(cfg.t_min, cfg.series_terms)[:, 0])


def _series_basis(omega: np.ndarray, n_terms: int, omega_eps: float):
    """Per-term f and df/dw columns, (len(omega), n_terms) each.

    Rows with w < omega_eps hold the w -> 0 limits: 2l+1 for f and 0 for
    its odd derivative.
    """
    small = omega < omega_eps
    w = np.where(small, np.pi, omega)[:, None]  # small rows are overwritten
    a = np.arange(n_terms) + 0.5
    half = w / 2.0
    sin_half = np.sin(half)
    aw = a * w
    sin_aw = np.sin(aw)
    f_basis = sin_aw / sin_half
    df_basis = np.cos(aw, out=aw)
    df_basis *= a
    df_basis *= sin_half
    sin_aw *= 0.5 * np.cos(half)
    df_basis -= sin_aw
    df_basis /= sin_half**2
    f_basis[small] = 2.0 * a
    df_basis[small] = 0.0
    return f_basis, df_basis


def _series(omega, t: float, cfg: TruncationConfig):
    """Truncated f(w, t) and df/dw at the angles ``omega``, as 1-d arrays."""
    t = _check_time(t, cfg)
    n_terms = _term_count(cfg)
    f_basis, df_basis = _series_basis(
        np.atleast_1d(np.asarray(omega, dtype=float)).ravel(), n_terms, cfg.omega_eps
    )
    weights = _series_weights(t, n_terms)[:, 0]
    return f_basis @ weights, df_basis @ weights


def _shaped(values: np.ndarray, omega):
    return values.reshape(np.shape(omega)) if np.ndim(omega) else float(values[0])


def _log_coeff(omega, ratio, omega_eps: float):
    """(df/dw)/f over w: the score is rt log(rel) times this; 0 for w < omega_eps."""
    return np.where(omega >= omega_eps, ratio / np.where(omega > 0, omega, 1.0), 0.0)


def f_igso3(omega, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """Truncated heat-kernel series f(w, t), vectorized over ``omega``."""
    return _shaped(_series(omega, t, cfg)[0], omega)


def df_igso3_domega(omega, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """Termwise analytic d/dw of the truncated series; odd, so 0 at w -> 0."""
    return _shaped(_series(omega, t, cfg)[1], omega)


def igso3_density(r0, rt, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """IGSO3 density of ``rt`` around ``r0`` w.r.t. normalized Haar measure."""
    omega = so3.rotation_angle(so3.transpose(np.asarray(r0, float)) @ np.asarray(rt, float))
    return f_igso3(omega, t, cfg)


def conditional_score(r0, rt, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """Riemannian gradient at ``rt`` of log IGSO3(rt; r0, t).

    Equals ``(rt / w) log(r0^T rt) (df/dw) / f`` with w the relative
    rotation angle; returns the zero tangent when w < omega_eps.
    """
    r0 = np.asarray(r0, dtype=float)
    rt = np.asarray(rt, dtype=float)
    rel = so3.transpose(r0) @ rt
    omega = so3.rotation_angle(rel)
    f, df = _series(omega, t, cfg)
    if np.any(f <= 0.0):
        raise NumericalDomainError(
            "nonpositive density encountered; increase series_terms or t"
        )
    coef = _log_coeff(omega, (df / f).reshape(np.shape(omega)), cfg.omega_eps)
    return rt @ (so3.log_so3(rel) * coef[..., None, None])


@dataclass(frozen=True)
class IGSO3Table:
    """Tabulated density, angle derivative, and angle CDF for one time.

    ``f_vals`` are clamped at zero; ``cdf_vals`` is the normalized
    trapezoidal CDF of the angle marginal f(w,t)(1-cos w)/pi on the
    uniform grid. ``raw_mass`` records the integral before normalization
    (1 up to truncation error for a healthy configuration).
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

    def score_coeff(self, omega):
        """(df/dw)/f interpolated from the table; 0 where f vanishes."""
        f = self.interp_f(omega)
        return np.where(f > 0.0, self.interp_df(omega) / np.where(f > 0, f, 1.0), 0.0)

    def sample_angles(self, rng: np.random.Generator, shape=()):
        return np.interp(rng.random(shape), self.cdf_vals, self.omega_grid)


def build_table(t: float, cfg: TruncationConfig = DEFAULT_CONFIG) -> IGSO3Table:
    """Tabulate f, df/dw, and the angle CDF on the uniform grid."""
    return build_tables([t], cfg)[0]


@lru_cache(maxsize=4)
def _table_bases(cfg: TruncationConfig):
    """Series basis matrices on the uniform angle grid, shared across times."""
    grid = np.linspace(0.0, np.pi, cfg.angle_grid)
    return (grid, *_series_basis(grid, _term_count(cfg), cfg.omega_eps))


def build_tables(ts, cfg: TruncationConfig = DEFAULT_CONFIG) -> list[IGSO3Table]:
    """Batch table construction for a whole time grid (one matrix product)."""
    ts = np.asarray(ts, dtype=float)
    for t in ts:
        _check_time(t, cfg)
    grid, f_basis, df_basis = _table_bases(cfg)
    weights = _series_weights(ts, f_basis.shape[1])
    f_all = f_basis @ weights
    df_all = df_basis @ weights

    tables = []
    for j, t in enumerate(ts):
        f = f_all[:, j]
        clamped = np.clip(f, 0.0, None)
        pdf = clamped * (1.0 - np.cos(grid)) / np.pi
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))]
        )
        raw_mass = cdf[-1]
        neg_mass = np.trapezoid(
            np.clip(-f, 0.0, None) * (1.0 - np.cos(grid)) / np.pi, grid
        )
        if neg_mass > _CLAMP_TOLERANCE * raw_mass:
            raise NumericalDomainError(
                f"clamped negative mass {neg_mass:.3e} exceeds tolerance at t={t}"
            )
        cdf = cdf / raw_mass
        if np.any(np.diff(cdf) < 0.0):
            raise NumericalDomainError(f"non-monotone CDF at t={t}")
        tables.append(
            IGSO3Table(
                t=float(t),
                omega_grid=grid,
                f_vals=clamped,
                df_vals=df_all[:, j],
                cdf_vals=cdf,
                raw_mass=float(raw_mass),
            )
        )
    return tables


@lru_cache(maxsize=512)
def cached_table(t: float, cfg: TruncationConfig = DEFAULT_CONFIG) -> IGSO3Table:
    """Memoized :func:`build_table` keyed by (t, cfg)."""
    return build_table(t, cfg)


def sample_igso3(
    r0: np.ndarray, table: IGSO3Table, rng: np.random.Generator
) -> np.ndarray:
    """Draw from IGSO3(.; r0, table.t), one sample per base rotation.

    The angle comes from inverse transform sampling on the tabulated CDF
    with linear interpolation; the axis is uniform on the sphere.
    """
    r0 = np.asarray(r0, dtype=float)
    shape = r0.shape[:-2]
    angles = table.sample_angles(rng, shape)
    axes = rng.standard_normal(shape + (3,))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    return r0 @ so3.exp_so3(so3.hat(angles[..., None] * axes))


def score_from_table(
    r0, rt, table: IGSO3Table, cfg: TruncationConfig = DEFAULT_CONFIG
):
    """Table-backed :func:`conditional_score` for hot simulation loops.

    Uses the same w < ``cfg.omega_eps`` zero gate as the series path.
    """
    r0 = np.asarray(r0, dtype=float)
    rt = np.asarray(rt, dtype=float)
    rel = so3.transpose(r0) @ rt
    omega = so3.rotation_angle(rel)
    coef = _log_coeff(omega, table.score_coeff(omega), cfg.omega_eps)
    return rt @ (so3.log_so3(rel) * coef[..., None, None])


def riemannian_gradient_fd(
    fn: Callable[[np.ndarray], float], r: np.ndarray, h: float = 1e-4
) -> np.ndarray:
    """Central-difference Riemannian gradient of a scalar function at ``r``.

    Differentiates ``t -> fn(expmap(r, r hat(t e_i)))`` at t = 0 along the
    three orthonormal tangent directions and reassembles ``r hat(coeffs)``.
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

    The squared score norm at angle w is ((df/dw)/f)^2 in the tr(u v^T)/2
    metric, so this is the integral of (df/f)^2 f (1-cos w)/pi.
    """
    table = cached_table(t, cfg)
    f = table.f_vals
    integrand = np.where(f > 0.0, table.df_vals**2 / np.where(f > 0, f, 1.0), 0.0)
    integrand = integrand * (1.0 - np.cos(table.omega_grid)) / np.pi
    return float(np.trapezoid(integrand, table.omega_grid))


def _su2_weights(t: float, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Degrees l = 1..n_terms and their SU(2) weights l^2 exp(-(l^2-1) t / 8)."""
    ls = np.arange(1, n_terms + 1)
    return ls, ls**2 * np.exp(-(ls**2 - 1) * t / 8.0)


@lru_cache(maxsize=16)
def _su2_term_count(cfg: TruncationConfig) -> int:
    """SU(2) terms summed under ``cfg``, by the module's truncation rule."""
    return _kept_terms(_su2_weights(cfg.t_min, cfg.series_terms)[1])


def igsu2_density(omega, t: float, cfg: TruncationConfig = DEFAULT_CONFIG):
    """Heat-kernel density on SU(2): sum of l^2 exp(-(l^2-1)t/8) sin(lw)/sin(w).

    The angle marginal under Haar on SU(2) is this density times
    (2/pi) sin^2(w). Analytic limits replace the ratio near w = 0 and
    w = pi where sin(w) vanishes.
    """
    t = _check_time(t, cfg)
    omega_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    ls, weights = _su2_weights(t, _su2_term_count(cfg))
    out = np.empty(omega_arr.shape)
    near0 = omega_arr < cfg.omega_eps
    nearpi = omega_arr > np.pi - cfg.omega_eps
    mid = ~(near0 | nearpi)
    if np.any(near0):
        out[near0] = ls @ weights
    if np.any(nearpi):
        # sin(lw)/sin(w) -> l (-1)^(l+1) as w -> pi.
        out[nearpi] = (ls * (-1.0) ** (ls + 1)) @ weights
    if np.any(mid):
        w = omega_arr[mid][:, None]
        out[mid] = (np.sin(ls * w) / np.sin(w)) @ weights
    return out if np.ndim(omega) else float(out[0])
