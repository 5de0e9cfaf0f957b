"""Self-contained SO(3) experiment: discrete target, exact score, both walks.

The target is a weighted discrete measure on SO(3). Noising it with
unit-rate Brownian motion gives a mixture of heat kernels whose density
and Stein score are available in closed form; the forward and reverse
geodesic random walks should then produce matching marginals at every
recorded time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import igso3, so3


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
    """Path count, final time, grid size, and finite-difference step."""

    n_paths: int = 5000
    final_time: float = 4.0
    n_steps: int = 200
    fd_step: float = 1e-4

    def __post_init__(self):
        if self.n_paths < 1 or self.n_steps < 2:
            raise ValueError("need n_paths >= 1 and n_steps >= 2")
        if not 0.0 < self.final_time < np.inf:
            raise ValueError("final_time must be positive and finite")
        if not 0.0 < self.fd_step < 1e-2:
            raise ValueError("fd_step must be in (0, 1e-2)")

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.final_time, self.n_steps)


def sample_p0(
    target: DiscreteTarget, rng: np.random.Generator, n: int | None = None
) -> np.ndarray:
    """Draw atoms according to their weights."""
    idx = rng.choice(len(target.weights), size=n, p=target.weights)
    return target.atoms[idx]


def p_t_density(
    target: DiscreteTarget,
    rt: np.ndarray,
    t: float,
    cfg: igso3.TruncationConfig = igso3.DEFAULT_CONFIG,
    table: igso3.IGSO3Table | None = None,
):
    """Mixture density of the target noised for time ``t``.

    A precomputed ``table`` for time ``t`` switches per-atom evaluation
    from the direct series to grid interpolation.
    """
    if table is None:
        dens = [
            w * np.asarray(igso3.igso3_density(atom, rt, t, cfg))
            for atom, w in zip(target.atoms, target.weights)
        ]
    else:
        rel = so3.transpose(target.atoms) @ np.asarray(rt, float)[..., None, :, :]
        omega = so3.rotation_angle(rel)
        dens = [w * table.interp_f(omega[..., k]) for k, w in enumerate(target.weights)]
    total = np.sum(dens, axis=0)
    return total if np.ndim(rt) > 2 else float(total)


def score_t(
    target: DiscreteTarget,
    rt: np.ndarray,
    t: float,
    cfg: igso3.TruncationConfig = igso3.DEFAULT_CONFIG,
    table: igso3.IGSO3Table | None = None,
) -> np.ndarray:
    """Stein score of the noised mixture at ``rt``.

    Posterior-weighted sum of per-atom conditional scores; passing a
    precomputed ``table`` for time ``t`` switches evaluation to the fast
    interpolated path used by the simulators.
    """
    rt = np.asarray(rt, dtype=float)
    single = rt.ndim == 2
    rts = rt[None] if single else rt
    rel = so3.transpose(target.atoms)[:, None] @ rts[None]  # (K, n, 3, 3)
    omega = so3.rotation_angle(rel)
    if table is None:
        f = np.stack([np.atleast_1d(igso3.f_igso3(om, t, cfg)) for om in omega])
        df = np.stack(
            [np.atleast_1d(igso3.df_igso3_domega(om, t, cfg)) for om in omega]
        )
    else:
        f = table.interp_f(omega)
        df = table.interp_df(omega)
    weighted = target.weights[:, None] * f
    total = weighted.sum(axis=0)
    if np.any(total <= 0.0):
        raise igso3.NumericalDomainError(
            "mixture density vanished; series under-truncated or t too small"
        )
    posterior = weighted / total
    # Per-atom score: rt log(atom^T rt) times (df/dw)/f over w.
    coef = igso3._log_coeff(omega, df / np.where(f > 0, f, 1.0), cfg.omega_eps)
    local = (so3.log_so3(rel) * (posterior * coef)[..., None, None]).sum(axis=0)
    out = rts @ local
    return out[0] if single else out


def _walk(
    initial: np.ndarray,
    times: np.ndarray,
    drift,
    rng: np.random.Generator,
) -> dict[float, np.ndarray]:
    """Geodesic random walk recording the marginal at every grid time."""
    state = initial
    out = {float(times[0]): state}
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        tangent = drift(state, float(times[i - 1])) * dt
        tangent = tangent + np.sqrt(abs(dt)) * so3.sample_tangent_gaussian(state, rng)
        state = so3.expmap(state, tangent)
        out[float(times[i])] = state
    return out


def run_forward(
    target: DiscreteTarget, cfg: ToyRunConfig, rng: np.random.Generator
) -> dict[float, np.ndarray]:
    """Zero-drift unit-rate walk from p_0; marginals keyed by grid time."""
    init = sample_p0(target, rng, cfg.n_paths)
    return _walk(init, cfg.times(), lambda r, t: 0.0, rng)


def run_reverse(
    target: DiscreteTarget,
    cfg: ToyRunConfig,
    rng: np.random.Generator,
    trunc: igso3.TruncationConfig = igso3.DEFAULT_CONFIG,
) -> dict[float, np.ndarray]:
    """Score-ascent walk from uniform along the reversed grid.

    The drift is -score so the negative reverse-time dt yields a net
    score-ascent step, exactly mirroring the forward reversal. Score
    tables are precomputed for the whole grid.
    """
    times = cfg.times()
    tables = {
        float(t): tab
        for t, tab in zip(times[1:], igso3.build_tables(times[1:], trunc))
    }

    def drift(r, t):
        return -score_t(target, r, t, trunc, table=tables[t])

    init = so3.sample_uniform_so3(rng, cfg.n_paths)
    return _walk(init, times[::-1], drift, rng)


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


def angle_to_nearest_atom(target: DiscreteTarget, samples: np.ndarray) -> np.ndarray:
    """Geodesic distance from each sample to its nearest atom."""
    rel = so3.transpose(target.atoms)[:, None] @ np.asarray(samples, float)[None]
    return so3.rotation_angle(rel).min(axis=0)


@dataclass(frozen=True)
class MarginalStats:
    """Summary of one sample set against the target (plus optional KS)."""

    angle_histograms: np.ndarray  # (K, n_bins) masses, rows sum to 1
    bin_edges: np.ndarray
    assignment_freq: np.ndarray  # (K,) nearest-atom frequencies
    ks_statistic: float | None = None


def marginal_stats(
    samples: np.ndarray,
    target: DiscreteTarget,
    other: np.ndarray | None = None,
    n_bins: int = 64,
) -> MarginalStats:
    """Angle histograms, nearest-atom frequencies, optional two-sample KS.

    The KS statistic compares the angle-to-nearest-atom laws of
    ``samples`` and ``other``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[0] == 0:
        raise ValueError("samples must be a nonempty (n, 3, 3) stack")
    rel = so3.transpose(target.atoms)[:, None] @ samples[None]
    angles = so3.rotation_angle(rel)  # (K, n)
    edges = np.linspace(0.0, np.pi, n_bins + 1)
    hists = np.stack(
        [np.histogram(a, bins=edges)[0] / angles.shape[1] for a in angles]
    )
    nearest = angles.argmin(axis=0)
    freq = np.bincount(nearest, minlength=len(target.weights)) / angles.shape[1]
    ks = None
    if other is not None:
        ks = ks_2samp_statistic(
            angles.min(axis=0), angle_to_nearest_atom(target, other)
        )
    return MarginalStats(
        angle_histograms=hists,
        bin_edges=edges,
        assignment_freq=freq,
        ks_statistic=ks,
    )
