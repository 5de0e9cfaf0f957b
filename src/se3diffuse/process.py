"""Forward and time-reversed diffusion on centered SE(3)^N frame sets.

A frame set carries N rigid transforms (rotation, translation-in-nm). The
forward process noises rotations by Brownian motion on SO(3) (variance
sigma_r(t)^2) and translations by a variance-preserving OU process, then
re-centers. The reverse process is simulated as a geodesic random walk on
the product metric, with the center-of-mass projection applied after
every step and an optional noise scale zeta on the diffusion term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import igso3, schedules, so3


@dataclass(frozen=True)
class FrameSet:
    """Ordered frames as stacked arrays (N, 3, 3) and (N, 3)."""

    rotations: np.ndarray
    translations: np.ndarray
    centered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rotations", np.asarray(self.rotations, dtype=float))
        object.__setattr__(
            self, "translations", np.asarray(self.translations, dtype=float)
        )
        if self.rotations.shape[-2:] != (3, 3) or self.rotations.ndim != 3:
            raise ValueError("rotations must have shape (N, 3, 3)")
        if self.translations.shape != (self.rotations.shape[0], 3):
            raise ValueError("translations must have shape (N, 3)")
        if self.centered:
            # Rounding leaves a mean of up to about N * eps * max|x| after
            # centering; 1e-12 is about 4500 eps.
            x = self.translations
            tol = 1e-12 * len(x) * max(1.0, np.abs(x).max(initial=0.0))
            if np.abs(x.mean(axis=0)).max() > tol:
                raise ValueError("centered frame sets must have zero mean translation")

    def __len__(self) -> int:
        return self.rotations.shape[0]


# A score field maps (forward time t, FrameSet) to the score as arrays:
# rot (N, 3, 3), each in the tangent space at its frame's rotation, and
# trans (N, 3).
ScoreField = Callable[[float, FrameSet], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SimConfig:
    """Reverse-walk discretization: steps, truncation, noise scale, seed."""

    n_steps: int = 500
    eps: float = 0.01
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        if not 0.0 <= self.noise_scale <= 1.0:
            raise ValueError("noise_scale must be in [0, 1]")


def center(fs: FrameSet) -> FrameSet:
    """Shift translations to zero mean; rotations untouched; idempotent."""
    if fs.centered:
        return fs
    mean = fs.translations.mean(axis=0)
    return FrameSet(fs.rotations, fs.translations - mean, centered=True)


def forward_sample(
    t0: FrameSet,
    t: float,
    trans_sched: schedules.TranslationSchedule,
    rot_sched: schedules.RotationSchedule,
    cfg: igso3.TruncationConfig,
    rng: np.random.Generator,
) -> FrameSet:
    """One draw of the forward marginal at time ``t`` from a centered input."""
    if not t0.centered:
        raise ValueError("forward_sample needs a centered frame set")
    table = igso3.cached_table(float(schedules.rot_variance(t, rot_sched)), cfg)
    rotations = igso3.sample_igso3(t0.rotations, table, rng)
    marg = schedules.trans_marginal(t0.translations, t, trans_sched)
    translations = marg.mean + np.sqrt(marg.variance) * rng.standard_normal(
        t0.translations.shape
    )
    return center(FrameSet(rotations, translations))


def _diffusion(t, trans_sched, rot_sched):
    """Diffusion coefficients (g_r, g_x = sqrt(beta)) at forward time(s) ``t``."""
    return schedules.g_r(t, rot_sched), np.sqrt(schedules.beta(t, trans_sched))


def reverse_drift(
    fs: FrameSet,
    t: float,
    score: ScoreField,
    trans_sched: schedules.TranslationSchedule,
    rot_sched: schedules.RotationSchedule,
) -> tuple[np.ndarray, np.ndarray]:
    """Drift (rot, trans) of the time-reversed process at forward time ``t``.

    Rotations: g_r(t)^2 times the score. Translations: g_x(t)^2 times the
    score minus f_x(t) x, with f_x = -beta/2 and g_x^2 = beta.
    """
    gr, gx = _diffusion(t, trans_sched, rot_sched)
    rot, trans = score(t, fs)
    # gx**2 rather than beta: the two can differ in the last bit, and
    # sampled frames are pinned to this form.
    return gr**2 * rot, gx**2 * trans + 0.5 * gx**2 * fs.translations


def reference_sample(n: int, rng: np.random.Generator) -> FrameSet:
    """Invariant law at t = 1: uniform rotations, centered standard normals."""
    rotations = so3.sample_uniform_so3(rng, n)
    translations = rng.standard_normal((n, 3))
    return center(FrameSet(rotations, translations))


def reverse_walk(
    init: FrameSet,
    score: ScoreField,
    trans_sched: schedules.TranslationSchedule,
    rot_sched: schedules.RotationSchedule,
    cfg: SimConfig,
    rng: np.random.Generator,
    record: bool = True,
) -> list[tuple[float, FrameSet]]:
    """Euler-Maruyama geodesic random walk down the reverse-time grid.

    The grid is uniform from t = 1 to t = eps with ``n_steps`` points. Each
    step applies the product exponential to drift*dt plus
    zeta * [g_r Z_r, g_x Z_x] * sqrt(dt) with tangent-space standard
    normals; the frame set is re-centered after every step and rotations
    are re-orthonormalized every 100 steps. Returns (t, state) pairs, the
    full trajectory when ``record`` else only the initial and final states.
    Raises ValueError when a score's rotation part leaves the tangent space.
    """
    if not init.centered:
        raise ValueError("reverse_walk needs a centered initial frame set")
    zeta = cfg.noise_scale
    tgrid = np.linspace(1.0, cfg.eps, cfg.n_steps)
    g_r, g_x = _diffusion(tgrid, trans_sched, rot_sched)
    state = init
    traj = [(1.0, state)]
    n = len(init)
    for i in range(cfg.n_steps - 1):
        dt = tgrid[i] - tgrid[i + 1]
        drift_rot, drift_trans = reverse_drift(
            state, float(tgrid[i]), score, trans_sched, rot_sched
        )
        noise_rot = g_r[i] * (state.rotations @ so3.hat(rng.standard_normal((n, 3))))
        noise_trans = g_x[i] * rng.standard_normal((n, 3))
        rot_tangent = drift_rot * dt + zeta * np.sqrt(dt) * noise_rot
        trans_step = drift_trans * dt + zeta * np.sqrt(dt) * noise_trans
        rotations = so3.expmap(state.rotations, rot_tangent)
        if (i + 1) % 100 == 0:
            rotations = so3.renormalize(rotations)
        state = center(FrameSet(rotations, state.translations + trans_step))
        if not (
            np.isfinite(state.rotations).all()
            and np.isfinite(state.translations).all()
        ):
            raise FloatingPointError(f"non-finite state at step {i + 1}")
        if record or i == cfg.n_steps - 2:
            traj.append((float(tgrid[i + 1]), state))
    return traj


def score_from_denoised(
    fs_t: FrameSet,
    pred0: FrameSet,
    t: float,
    trans_sched: schedules.TranslationSchedule,
    rot_sched: schedules.RotationSchedule,
    cfg: igso3.TruncationConfig = igso3.DEFAULT_CONFIG,
) -> tuple[np.ndarray, np.ndarray]:
    """Score (rot, trans) implied by a denoised prediction of the time-zero frames.

    Per frame, the rotation score is the conditional IGSO3 score at
    variance sigma_r(t)^2 around the predicted rotation, and the
    translation score the Gaussian conditional score around the predicted
    translation.
    """
    if len(fs_t) != len(pred0):
        raise ValueError("frame counts differ")
    var = float(schedules.rot_variance(t, rot_sched))
    table = igso3.cached_table(var, cfg)
    rot_scores = igso3.score_from_table(pred0.rotations, fs_t.rotations, table, cfg)
    trans_scores = schedules.trans_conditional_score(
        pred0.translations, fs_t.translations, t, trans_sched
    )
    return rot_scores, trans_scores


def fixed_target_score(
    pred0: FrameSet,
    trans_sched: schedules.TranslationSchedule,
    rot_sched: schedules.RotationSchedule,
    cfg: igso3.TruncationConfig = igso3.DEFAULT_CONFIG,
) -> ScoreField:
    """ScoreField that always denoises toward the fixed frame set ``pred0``."""

    def score(t: float, fs: FrameSet) -> tuple[np.ndarray, np.ndarray]:
        return score_from_denoised(fs, pred0, t, trans_sched, rot_sched, cfg)

    return score


def zero_score(t: float, fs: FrameSet) -> tuple[np.ndarray, np.ndarray]:
    """ScoreField of the pure reference walk (no data term)."""
    return np.zeros((len(fs), 3, 3)), np.zeros((len(fs), 3))
