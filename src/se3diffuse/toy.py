"""Self-contained SO(3) experiment: discrete target, exact score, both walks.

The target is a weighted discrete measure on SO(3). Noising it with
unit-rate Brownian motion gives a mixture of heat kernels whose density
and Stein score are available in closed form; the forward and reverse
geodesic random walks should then produce matching marginals at every
recorded time. Both walks are :func:`process.iter_walk` on rotation-only
frame sets, on the unit plan ``process.WalkPlan(times)``, whose noise level
sigma_r^2 is the time itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import igso3, process, so3


@dataclass(frozen=True)
class DiscreteTarget:
    """Atoms (K, 3, 3) with nonnegative weights summing to one."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", np.asarray(self.atoms, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.atoms.ndim != 3 or self.atoms.shape[-2:] != (3, 3):
            raise ValueError("atoms must have shape (K, 3, 3)")
        if self.weights.shape != (self.atoms.shape[0],):
            raise ValueError("one weight per atom required")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")


def random_target(k: int = 3, seed: int = 0) -> DiscreteTarget:
    """Uniform-weight target with k Haar-random atoms from a fixed seed."""
    if k < 1:
        raise ValueError("need at least one atom")
    rng = np.random.default_rng(seed)
    return DiscreteTarget(so3.sample_uniform_so3(rng, k), np.full(k, 1.0 / k))


@dataclass(frozen=True)
class ToyRunConfig:
    """Path count, final time and grid size; the grid is checked as a walk plan."""

    n_paths: int = 5000
    final_time: float = 4.0
    n_steps: int = 200

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("need n_paths >= 1")
        if not 0.0 < self.final_time < np.inf:
            raise ValueError("final_time must be positive and finite")
        try:
            process.WalkPlan(self.times())
        except ValueError as exc:
            raise ValueError(f"{exc} (final_time={self.final_time!r}, n_steps={self.n_steps})") from exc

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.final_time, self.n_steps)


def sample_p0(
    target: DiscreteTarget, rng: np.random.Generator, n: int | None = None
) -> np.ndarray:
    """Draw atoms according to their weights."""
    idx = rng.choice(len(target.weights), size=n, p=target.weights)
    return target.atoms[idx]


def score_t(target: DiscreteTarget, rt: np.ndarray, t: float,
            table: igso3.IGSO3Table | None = None) -> np.ndarray:
    """Stein score of the noised mixture at ``rt``: :func:`igso3.mixture_score` over the atoms.

    The score is a coefficient vector (..., 3) in the frame of ``rt``.
    ``table`` is not read: ``perfbench/micro.py`` passes it (ROADMAP item 6).
    """
    return igso3.mixture_score(target.atoms, rt, t, weights=target.weights)


def _unit_rate_walk(init, times, score, rng) -> Iterator[tuple[float, np.ndarray]]:
    """:func:`process.iter_walk` of rotation-only frames on the unit plan of
    ``times``: the drift g^2 s is the score field s itself, and a zero score
    walks the frames forward as Brownian motion. Yields (grid time,
    rotations) pairs as the walk goes."""
    frames = process.center(process.FrameSet(init, np.empty((len(init), 0))))
    walk = process.iter_walk(frames, process.WalkPlan(times), score, rng)
    return ((t, fs.rotations) for t, fs in walk)


def iter_forward(
    target: DiscreteTarget, cfg: ToyRunConfig, rng: np.random.Generator
) -> Iterator[tuple[float, np.ndarray]]:
    """Zero-drift unit-rate walk from p_0, up the grid; (t, rotations) pairs."""
    init = sample_p0(target, rng, cfg.n_paths)
    return _unit_rate_walk(init, cfg.times(), process.reference_score, rng)


def iter_reverse(
    target: DiscreteTarget, cfg: ToyRunConfig, rng: np.random.Generator
) -> Iterator[tuple[float, np.ndarray]]:
    """Score-ascent walk from uniform down the reversed grid; (t, rotations) pairs.

    The score field is :func:`score_t` at the walk's angles and the level's
    sigma_r^2, which is the time on the unit plan; at unit rate the walk's
    drift is this score itself. Its last evaluation, at the
    second grid time, is checked against :data:`igso3.T_MIN` before
    anything is drawn.
    """

    def score(level, fs: process.FrameSet) -> tuple[np.ndarray, np.ndarray]:
        return score_t(target, fs.rotations, level.rot_var), np.zeros_like(fs.translations)

    times = cfg.times()
    igso3.check_time(times[1])
    init = so3.sample_uniform_so3(rng, cfg.n_paths)
    return _unit_rate_walk(init, times[::-1], score, rng)


def run_forward(
    target: DiscreteTarget, cfg: ToyRunConfig, rng: np.random.Generator
) -> dict[float, np.ndarray]:
    """:func:`iter_forward`'s marginals keyed by grid time."""
    return dict(iter_forward(target, cfg, rng))


def run_reverse(
    target: DiscreteTarget, cfg: ToyRunConfig, rng: np.random.Generator
) -> dict[float, np.ndarray]:
    """:func:`iter_reverse`'s marginals keyed by grid time."""
    return dict(iter_reverse(target, cfg, rng))


def ks_2samp_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    Computed in exact integer form: with c_a, c_b the empirical counts at
    or below each pooled value and g = gcd(n_a, n_b), the statistic is
    max |c_a n_b/g - c_b n_a/g| / lcm(n_a, n_b). This is the value scipy's
    exact-mode ``ks_2samp`` reports, bit for bit.
    """
    a = np.sort(np.ravel(a))
    b = np.sort(np.ravel(b))
    n_a, n_b = a.size, b.size
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    c_a = np.searchsorted(a, pooled, side="right")
    c_b = np.searchsorted(b, pooled, side="right")
    g = math.gcd(n_a, n_b)
    h = int(np.abs(c_a * (n_b // g) - c_b * (n_a // g)).max())
    return h / ((n_a // g) * n_b)


def atom_angles(target: DiscreteTarget, samples: np.ndarray) -> np.ndarray:
    """(K, n) geodesic distances from each of the K atoms to each sample."""
    rel = so3.transpose(target.atoms)[:, None] @ np.asarray(samples, float)[None]
    return so3.rotation_angle(rel)


def angle_to_nearest_atom(target: DiscreteTarget, samples: np.ndarray) -> np.ndarray:
    """Geodesic distance from each sample to its nearest atom."""
    return atom_angles(target, samples).min(axis=0)

