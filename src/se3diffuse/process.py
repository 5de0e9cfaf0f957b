"""Forward and time-reversed diffusion on centered SE(3)^N frame sets.

A frame set carries N rigid transforms (rotation, translation-in-nm). The
forward process noises rotations by Brownian motion on SO(3) (variance
sigma_r(t)^2) and translations by a variance-preserving OU process, then
re-centers. The time-reversed process runs on one geodesic random walk,
:func:`iter_walk`, on the product metric and a :class:`WalkPlan` built from
the schedules: it evaluates a score field at the plan's noise level of each
time, applies the plan's squared diffusion coefficients to it to form the
reverse drift, projects out the center of mass after every step and
scales the diffusion term by the plan's noise scale zeta.
"""

from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import igso3, schedules, so3


@dataclass(frozen=True)
class FrameSet:
    """Frames as arrays (N, 3, 3) and (N, 3), or (N, 0) for rotations only."""

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
        n = len(self.rotations)
        if self.translations.shape not in ((n, 3), (n, 0)):
            raise ValueError("translations must have shape (N, 3) or (N, 0)")
        if self.centered and _off_center(self.translations):
            raise ValueError("centered frame sets must have zero mean translation")

    def __len__(self) -> int:
        return self.rotations.shape[0]


def _off_center(x: np.ndarray) -> bool:
    """True when the mean of ``x`` exceeds the N * eps * max|x| centering leaves."""
    # 1e-12 is about 4500 eps.
    tol = 1e-12 * len(x) * max(1.0, np.abs(x).max(initial=0.0))
    return np.abs(x.mean(axis=0)).max(initial=0.0) > tol


# A score field maps (noise level, FrameSet) to the score as arrays: rot
# (N, 3), each row a coefficient vector v in the frame of its rotation r (the
# tangent matrix r hat(v)), and trans shaped like the state's translations.
ScoreField = Callable[[schedules.Level, FrameSet], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SimConfig:
    """FrameDiff's discretization as :func:`reverse_walk` reads it. The walk
    never reads ``seed``: it draws only from the generator passed to it."""

    n_steps: int = 500
    eps: float = 0.01
    noise_scale: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class WalkPlan:
    """What :func:`iter_walk` reads, built from ``times`` in walk order, the
    schedules and zeta: at each time g_r(t), g_x(t) = sqrt(beta(t)) and a row
    of ``levels``, filled by one array call of :func:`schedules.level` and
    equal bit for bit to ``level(t)`` at each time. A schedule left out is
    the unit one (g = 1, sigma_r^2 = t, beta = 1); with neither, this is
    the unit plan. A plan with a schedule takes times in (0, 1] only."""

    times: np.ndarray
    trans_sched: InitVar[schedules.TranslationSchedule | None] = None
    rot_sched: InitVar[schedules.RotationSchedule | None] = None
    zeta: float = 1.0
    g_r: np.ndarray = field(init=False)
    g_x: np.ndarray = field(init=False)
    levels: np.ndarray = field(init=False)

    def __post_init__(self, ts, rs):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a walk needs at least two times")
        if not (np.all(np.diff(times) > 0) or np.all(np.diff(times) < 0)):
            raise ValueError("grid times must strictly increase or decrease")
        if (ts, rs) != (None, None) and not np.all((times > 0.0) & (times <= 1.0)):
            raise ValueError(f"schedule times must be in (0, 1]; the grid runs from "
                             f"{times[0]} to {times[-1]}")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must be in [0, 1]")
        g_r = np.ones_like(times) if rs is None else schedules.g_r(times, rs)
        g_x = np.ones_like(times) if ts is None else np.sqrt(schedules.beta(times, ts))
        levels = np.column_stack(schedules.level(times, ts, rs))
        for name, value in [("times", times), ("g_r", g_r), ("g_x", g_x), ("levels", levels)]:
            object.__setattr__(self, name, value)


def center(fs: FrameSet) -> FrameSet:
    """Shift translations to zero mean; rotations untouched; idempotent."""
    if fs.centered:
        return fs
    x = fs.translations - fs.translations.mean(axis=0)
    if _off_center(x):  # the rounded mean of a far-off set leaves ~eps * |offset|
        x = x - x.mean(axis=0)
    return FrameSet(fs.rotations, x, centered=True)


def forward_sample(t0: FrameSet, level: schedules.Level,
                   rng: np.random.Generator) -> FrameSet:
    """One draw of the forward marginal at noise level ``level`` from a centered input."""
    if not t0.centered:
        raise ValueError("forward_sample needs a centered frame set")
    rotations = igso3.sample_igso3(t0.rotations, level.rot_var, rng)
    noise = rng.standard_normal(t0.translations.shape)
    return center(FrameSet(rotations, level.trans_scale * t0.translations
                           + np.sqrt(level.trans_var) * noise))


def reference_sample(n: int, rng: np.random.Generator) -> FrameSet:
    """Invariant law at t = 1: uniform rotations, centered standard normals."""
    rotations = so3.sample_uniform_so3(rng, n)
    translations = rng.standard_normal((n, 3))
    return center(FrameSet(rotations, translations))


def iter_walk(
    init: FrameSet, plan: WalkPlan, score: ScoreField, rng: np.random.Generator,
) -> Iterator[tuple[float, FrameSet]]:
    """Euler-Maruyama geodesic random walk from the centered ``init`` through ``plan``.

    With (s_r, s_x) = score(Level(*levels[i]), state) and the plan's g_r,
    g_x and zeta, step i moves along the reverse-time drift [g_r^2 s_r,
    g_x^2 (s_x + x / 2)] of the frame set's SDE: it takes v = drift * h +
    zeta * [g_r Z_r, g_x Z_x] * sqrt(h), h = |times[i+1] - times[i]|, with
    standard normal coefficient vectors Z_r (N, 3), and moves each
    rotation r to r exp(hat(v_r)) and the translations by v_x. At g = 1
    the drift of rotation-only frames is the score itself, and a zero
    score walks them forward as Brownian motion. The frame set is
    re-centered after every step and rotations are re-orthonormalized
    every 100 steps. Yields a (t, state) pair per time as the walk goes,
    starting with (times[0], init). Raises ValueError when the score's
    rotation part is not (N, 3) and FloatingPointError when the state
    stops being finite.
    """
    if not init.centered:
        raise ValueError("the walk needs a centered initial frame set")
    grid, g_r, g_x, zeta = plan.times, plan.g_r, plan.g_x, plan.zeta
    state = init
    yield float(grid[0]), state
    for i in range(len(grid) - 1):
        h = abs(grid[i + 1] - grid[i])
        s_rot, s_trans = score(schedules.Level(*plan.levels[i].tolist()), state)
        if np.shape(s_rot) != (len(state), 3):
            raise ValueError(f"rotation score has shape {np.shape(s_rot)}, "
                             f"expected {(len(state), 3)}")
        # g_x**2 rather than beta: the two can differ in the last bit, and
        # sampled frames are pinned to this form.
        drift_rot = g_r[i] ** 2 * s_rot
        drift_trans = g_x[i] ** 2 * s_trans + 0.5 * g_x[i] ** 2 * state.translations
        noise_rot = g_r[i] * rng.standard_normal((len(state), 3))
        noise_trans = g_x[i] * rng.standard_normal(state.translations.shape)
        rot_step = drift_rot * h + zeta * np.sqrt(h) * noise_rot
        trans_step = drift_trans * h + zeta * np.sqrt(h) * noise_trans
        rotations = state.rotations @ so3.exp_so3(so3.hat(rot_step))
        if (i + 1) % 100 == 0:
            rotations = so3.renormalize(rotations)
        state = center(FrameSet(rotations, state.translations + trans_step))
        if not (np.isfinite(state.rotations).all()
                and np.isfinite(state.translations).all()):
            raise FloatingPointError(f"non-finite state at step {i + 1}")
        yield float(grid[i + 1]), state


def reverse_walk(
    init: FrameSet, score: ScoreField, trans_sched: schedules.TranslationSchedule,
    rot_sched: schedules.RotationSchedule, cfg: SimConfig, rng: np.random.Generator,
    record: bool = True,
) -> list[tuple[float, FrameSet]]:
    """:func:`iter_walk` on FrameDiff's plan, ``cfg.n_steps`` uniform times from
    t = 1 down to t = eps at zeta = ``cfg.noise_scale``, as a list: every
    (t, state) pair when ``record``, else only the initial and final ones,
    holding none between."""
    plan = WalkPlan(np.linspace(1.0, cfg.eps, cfg.n_steps), trans_sched, rot_sched,
                    cfg.noise_scale)
    walk = iter_walk(init, plan, score, rng)
    return list(walk) if record else [next(walk), deque(walk, maxlen=1)[0]]


def score_from_denoised(fs_t: FrameSet, pred0: FrameSet,
                        level: schedules.Level) -> tuple[np.ndarray, np.ndarray]:
    """Score (rot, trans) at noise level ``level`` implied by a denoised
    prediction of the time-zero frames.

    Per frame, the rotation score is the conditional IGSO3 score at
    ``level.rot_var`` around the predicted rotation, a coefficient vector
    (N, 3) in the frame of ``fs_t``'s rotation, and the translation score
    -(x_t - scale x0) / variance, the Gaussian conditional score around the
    predicted translation.
    """
    if len(fs_t) != len(pred0):
        raise ValueError("frame counts differ")
    rot_scores = igso3.conditional_score(pred0.rotations, fs_t.rotations, level.rot_var)
    mean = level.trans_scale * pred0.translations
    trans_scores = -(fs_t.translations - mean) / level.trans_var
    return rot_scores, trans_scores


def fixed_target_score(pred0: FrameSet, *unread) -> ScoreField:
    """ScoreField that always denoises toward the fixed frame set ``pred0``.
    Further arguments are not read."""

    def score(level: schedules.Level, fs: FrameSet) -> tuple[np.ndarray, np.ndarray]:
        return score_from_denoised(fs, pred0, level)

    return score


def reference_score(level: schedules.Level, fs: FrameSet) -> tuple[np.ndarray, np.ndarray]:
    """ScoreField of the reference law (no data term): (0, -x), the scores of
    uniform rotations and of standard normal translations, at every level."""
    return np.zeros((len(fs), 3)), -fs.translations
