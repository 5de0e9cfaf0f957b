"""Noise schedules for translations and rotations on [0, 1].

Translations follow a variance-preserving OU process with a linear rate
schedule: drift -beta(s)/2 x, diffusion sqrt(beta(s)). Rotations follow
Brownian motion whose accumulated variance is sigma_r(s)^2, with the
diffusion coefficient g_r(s) = sqrt(d/ds sigma_r^2(s)) defined implicitly
through sigma_r. :func:`level` is the one map from a time to the noise
level that a score, a forward draw and the DSM loss read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import igso3

# The logarithmic schedule evaluates exp(sigma_max); above this it overflows.
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class TranslationSchedule:
    """Linear beta schedule; rates in 1/time, s in [0, 1]."""

    beta_min: float = 0.1
    beta_max: float = 20.0

    def __post_init__(self):
        if not 0.0 < self.beta_min < self.beta_max < np.inf:
            raise ValueError("need 0 < beta_min < beta_max < inf")


@dataclass(frozen=True)
class RotationSchedule:
    """Accumulated rotation noise sigma_r(s); logarithmic or linear in s."""

    sigma_min: float = 0.1
    sigma_max: float = 1.5
    kind: str = "logarithmic"

    def __post_init__(self):
        if not 0.0 < self.sigma_min < self.sigma_max < np.inf:
            raise ValueError("need 0 < sigma_min < sigma_max < inf")
        if self.kind not in ("logarithmic", "linear"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "logarithmic" and self.sigma_max >= _LOG_FLOAT_MAX:
            raise ValueError(
                f"logarithmic sigma_max must be below {_LOG_FLOAT_MAX:.2f}, "
                "where exp(sigma_max) overflows"
            )
        if self.kind == "linear" and not np.isfinite(
            [self.sigma_max * self.sigma_max,
             2.0 * self.sigma_max * (self.sigma_max - self.sigma_min)]
        ).all():
            raise ValueError(
                "linear sigma_max is too large: rot_variance or g_r overflows"
            )


class Level(NamedTuple):
    """The noise level at a time: the IGSO3 time sigma_r^2 of the rotations,
    and the mean scale e^{-G/2} and variance 1 - e^{-G} of the translations'
    OU marginal. Floats at one time, arrays over a grid of times."""

    rot_var: float
    trans_scale: float
    trans_var: float


def beta(s, ts: TranslationSchedule = TranslationSchedule()):
    """Rate beta(s); drift is -beta/2 x and diffusion sqrt(beta)."""
    return ts.beta_min + np.asarray(s, dtype=float) * (ts.beta_max - ts.beta_min)


def G_x(s, ts: TranslationSchedule = TranslationSchedule()):
    """Accumulated rate int_0^s beta(u) du."""
    s = np.asarray(s, dtype=float)
    return s * ts.beta_min + 0.5 * s * s * (ts.beta_max - ts.beta_min)


def ou_coefficients(g):
    """Mean scale e^{-G/2} and variance 1 - e^{-G} of the OU marginal after
    accumulated rate ``g`` (:func:`G_x`), elementwise."""
    return np.exp(-0.5 * g), 1.0 - np.exp(-g)


def denoised_from_trans_score(score, xt, lv: Level):
    """The x0 whose conditional score -(xt - scale x0) / variance at ``lv`` is ``score``."""
    return (np.asarray(xt, float) + lv.trans_var * np.asarray(score, float)) / lv.trans_scale


def sigma_r(s, rs: RotationSchedule = RotationSchedule()):
    """Accumulated rotation noise sigma_r(s); endpoints are hit exactly."""
    s = np.asarray(s, dtype=float)
    if rs.kind == "logarithmic":
        raw = np.log(s * np.exp(rs.sigma_max) + (1.0 - s) * np.exp(rs.sigma_min))
    else:
        raw = rs.sigma_min + s * (rs.sigma_max - rs.sigma_min)
    out = np.where(s == 0.0, rs.sigma_min, np.where(s == 1.0, rs.sigma_max, raw))
    return out if out.ndim else float(out)


def sigma_r_prime(s, rs: RotationSchedule = RotationSchedule()):
    """Analytic d/ds of sigma_r."""
    s = np.asarray(s, dtype=float)
    if rs.kind == "logarithmic":
        span = np.exp(rs.sigma_max) - np.exp(rs.sigma_min)
        return span / (s * np.exp(rs.sigma_max) + (1.0 - s) * np.exp(rs.sigma_min))
    return np.broadcast_to(rs.sigma_max - rs.sigma_min, s.shape).astype(float)


def rot_variance(s, rs: RotationSchedule = RotationSchedule()):
    """Marginal rotation variance sigma_r(s)^2 (the IGSO3 time), squared by
    one correctly rounded product, so a time gives the same bits alone or
    in an array (a float's ``** 2`` goes through libm ``pow``)."""
    sigma = sigma_r(s, rs)
    return sigma * sigma


def g_r(s, rs: RotationSchedule = RotationSchedule()):
    """Diffusion coefficient sqrt(d/ds sigma_r^2) = sqrt(2 sigma_r sigma_r')."""
    return np.sqrt(2.0 * sigma_r(s, rs) * sigma_r_prime(s, rs))


def level(s, ts: TranslationSchedule | None = None,
          rs: RotationSchedule | None = None) -> Level:
    """The :class:`Level` at time ``s``, or a Level of arrays over an array
    of times, each element bit for bit the level at its time alone; a
    schedule left out is the unit one, where sigma_r^2 = s and beta = 1."""
    rot_var = s if rs is None else rot_variance(s, rs)
    return Level(rot_var, *ou_coefficients(s if ts is None else G_x(s, ts)))


def dsm_weights(lv: Level) -> tuple[float, float]:
    """DSM weights (lambda_r, lambda_x) at the noise level ``lv``.

    lambda_r normalizes the expected squared rotation score to one (the
    trivial denoiser then scores exactly 1); lambda_x is
    (1 - e^{-G}) / e^{-G/2}, which turns the weighted translation loss
    into a plain MSE on the denoised coordinates.
    """
    return 1.0 / igso3.expected_score_norm_sq(lv.rot_var), float(lv.trans_var / lv.trans_scale)
