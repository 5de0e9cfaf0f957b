"""Output checks for the artifacts each workload command writes.

Every check reads files one CLI command wrote and raises ``CheckFailed``
with a one-line reason when the output is wrong. Tolerances scale with
the data they check, and no check pins bytes, so the same checks hold
on every commit. The references here (the heat-kernel series, the KS
statistic, the PDB reader) are written out independently of the package
so that a change to the package cannot change its own oracle.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An artifact is missing, malformed or numerically wrong."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# Smirnov critical value at significance 1e-6, sqrt(ln(2 / alpha) / 2). A
# run makes a handful of KS tests, so a false alarm at this level never
# shows up in practice, while a broken sampler or score lands far above it.
KS_C = math.sqrt(math.log(2.0 / 1e-6) / 2.0)

# PDB coordinates are written as %8.3f in Angstroms.
PDB_RESOLUTION_A = 1e-3
PDB_COORD_RANGE_A = (-999.999, 9999.999)
_PDB_FLOAT = re.compile(r"-?\d+\.\d{3}")


def ks_2samp(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, float))
    b = np.sort(np.asarray(b, float))
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / len(a)
    fb = np.searchsorted(b, both, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def heat_kernel(omega, t: float, terms: int = 400) -> np.ndarray:
    """The IGSO3 character series f(w, t), summed directly."""
    ls = np.arange(terms)
    w = np.asarray(omega, float)[..., None]
    weights = (2 * ls + 1) * np.exp(-ls * (ls + 1) * t / 2.0)
    half = np.sin(w / 2.0)
    regular = np.abs(half) > 1e-12
    ratio = np.where(regular, np.sin((ls + 0.5) * w) / np.where(regular, half, 1.0),
                     2 * ls + 1)
    return ratio @ weights


def _read_csv(path: Path, n_cols: int) -> np.ndarray:
    require(path.is_file(), f"{path.name} missing")
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        require(len(header) == n_cols, f"{path.name}: header has {len(header)} columns")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(data.shape[1] == n_cols, f"{path.name}: rows have {data.shape[1]} columns")
    require(np.isfinite(data).all(), f"{path.name}: non-finite values")
    return data


def _require_unit_quats(q: np.ndarray, name: str) -> None:
    err = np.abs(np.linalg.norm(q, axis=1) - 1.0).max()
    require(err < 1e-9, f"{name}: quaternion norm off by {err:.2e}")
    require((q[:, 0] >= 0.0).all(), f"{name}: quaternion with negative scalar part")


# ------------------------------------------------------------ backbones

def read_pdb(path: Path):
    """ATOM records as (names, residue numbers, coordinates in Angstroms).

    Coordinates are taken as the first three %.3f numbers after the
    residue number, so a value too wide for its 8-column field still
    reads back; ``pdb_overflow_atoms`` counts such values separately.
    """
    require(path.is_file(), f"{path.name} missing")
    names, residues, coords = [], [], []
    with open(path) as fh:
        for line in fh:
            if not line.startswith("ATOM"):
                continue
            nums = _PDB_FLOAT.findall(line[30:])
            require(len(nums) >= 3, f"{path.name}: unreadable record {line.strip()!r}")
            names.append(line[12:16].strip())
            residues.append(int(line[22:26]))
            coords.append([float(v) for v in nums[:3]])
    return names, np.array(residues), np.array(coords, float).reshape(-1, 3)


def pdb_overflow_atoms(coords: np.ndarray) -> int:
    """Atoms with a coordinate outside what a %8.3f PDB column can hold."""
    lo, hi = PDB_COORD_RANGE_A
    return int(((coords < lo) | (coords > hi)).any(axis=1).sum())


def _ideal_distances(root: Path) -> np.ndarray:
    raw = json.loads((root / "src/se3diffuse/data/ideal_geometry.json").read_text())
    ideal = 10.0 * np.array([raw[k] for k in ("N", "CA", "C", "O")], float)
    return np.linalg.norm(ideal[:, None] - ideal[None], axis=-1)


def check_backbones(out_dir: Path, root: Path, stem: str, n_residues: int,
                    n_steps: int, eps: float, trajectory: bool) -> dict:
    """PDB reads back to N rigid residues; the trajectory is consistent.

    Rigidity stands in for orthonormal frames: a residue placed by a
    frame that is not a rotation changes some distance between its four
    atoms. Returns diagnostic counts for the caller to report.
    """
    names, residues, xyz = read_pdb(out_dir / f"{stem}.pdb")
    n = n_residues
    require(len(names) == 4 * n, f"PDB has {len(names)} atoms, expected {4 * n}")
    require(names == ["N", "CA", "C", "O"] * n, "PDB atom names out of order")
    require((residues == np.repeat(np.arange(1, n + 1), 4)).all(),
            "PDB residue numbers are not 1..N")
    require(np.isfinite(xyz).all(), "PDB has non-finite coordinates")
    atoms = xyz.reshape(n, 4, 3)
    dist = np.linalg.norm(atoms[:, :, None] - atoms[:, None], axis=-1)
    # Rounding moves each atom by at most sqrt(3)/2 of the resolution.
    tol = 2.0 * math.sqrt(3.0) * PDB_RESOLUTION_A + 1e-12 * np.abs(xyz).max()
    err = np.abs(dist - _ideal_distances(root)).max()
    require(err <= tol, f"residue geometry off by {err:.2e} A (tolerance {tol:.1e})")

    if trajectory:
        data = _read_csv(out_dir / f"{stem}_trajectory.csv", 10)
        require(data.shape[0] == n_steps * n,
                f"trajectory has {data.shape[0]} rows, expected {n_steps * n}")
        states = data.reshape(n_steps, n, 10)
        times = states[:, 0, 0]
        require((states[:, :, 0] == times[:, None]).all(), "trajectory time column ragged")
        require(times[0] == 1.0 and abs(times[-1] - eps) < 1e-12,
                "trajectory does not run from t=1 to t=eps")
        require((np.diff(times) < 0).all(), "trajectory times not decreasing")
        require((states[:, :, 2] == np.arange(n)).all(), "trajectory residue index wrong")
        _require_unit_quats(data[:, 3:7], "trajectory")
        x = states[:, :, 7:10]
        drift = np.abs(x.mean(axis=1)).max()
        require(drift <= 1e-12 * n * max(1.0, np.abs(x).max()),
                f"trajectory states not centered (mean {drift:.2e} nm)")
        ca = atoms[:, 1]
        gap = np.abs(ca - 10.0 * x[-1]).max()
        require(gap <= PDB_RESOLUTION_A, f"PDB CA differs from final state by {gap:.2e} A")
    return {"pdb_overflow_atoms": pdb_overflow_atoms(xyz)}


# ---------------------------------------------------------------- igso3

def check_igso3_eval(out_dir: Path, t: float, grid: int) -> dict:
    """Grid, density against the series, unit mass, and df against f."""
    data = _read_csv(out_dir / "eval.csv", 3)
    require(data.shape[0] == grid, f"eval has {data.shape[0]} rows, expected {grid}")
    omega, f, df = data.T
    require(np.allclose(omega, np.linspace(0.0, math.pi, grid), rtol=0, atol=1e-15),
            "eval grid is not linspace(0, pi)")
    ref = heat_kernel(omega, t)
    err = np.abs(f - ref).max() / np.abs(ref).max()
    require(err < 1e-9, f"density off the series by {err:.2e} (relative)")
    mass = np.trapezoid(f * (1.0 - np.cos(omega)) / math.pi, omega)
    require(abs(mass - 1.0) < 1e-4, f"angle marginal has mass {mass:.6f}")
    h = 1e-5
    ref_df = (heat_kernel(omega + h, t) - heat_kernel(omega - h, t)) / (2.0 * h)
    err = np.abs(df - ref_df).max() / np.abs(ref_df).max()
    require(err < 1e-6, f"df/dw off the central difference by {err:.2e} (relative)")
    return {}


def _angle_cdf(t: float, points: int = 4000):
    omega = np.linspace(0.0, math.pi, points)
    pdf = np.clip(heat_kernel(omega, t), 0.0, None) * (1.0 - np.cos(omega)) / math.pi
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(omega))])
    return omega, cdf / cdf[-1]


def check_igso3_sample(out_dir: Path, t: float, n: int) -> dict:
    """Unit quaternions whose angles follow the IGSO3 angle law (one-sample KS)."""
    q = _read_csv(out_dir / "sample.csv", 4)
    require(q.shape[0] == n, f"sample has {q.shape[0]} rows, expected {n}")
    _require_unit_quats(q, "sample")
    angles = 2.0 * np.arctan2(np.linalg.norm(q[:, 1:], axis=1), q[:, 0])
    grid, cdf = _angle_cdf(t)
    emp = np.sort(angles)
    model = np.interp(emp, grid, cdf)
    hi = np.arange(1, n + 1) / n
    ks = max(np.abs(hi - model).max(), np.abs(hi - 1.0 / n - model).max())
    bound = KS_C / math.sqrt(n) + 1e-4
    require(ks < bound, f"sample angles: KS {ks:.4f} exceeds {bound:.4f}")
    return {}


def check_igso3_score(out_dir: Path, t: float, n: int, subsample: int = 64) -> dict:
    """Scores agree with the finite-difference gradient of log f on a subsample.

    The file gives each sample's angle and the score's coefficients in
    the sample's frame. The density is isotropic, so at angle w about any
    unit axis u the Riemannian gradient of log f has coefficients
    u * d(log f)/dw; the check places a rotation at angle w about the
    score's own axis and compares the gradient's length with the score's.
    """
    import se3diffuse.igso3 as igso3
    import se3diffuse.so3 as so3

    data = _read_csv(out_dir / "score.csv", 4)
    require(data.shape[0] == n, f"score has {data.shape[0]} rows, expected {n}")
    omega, coeffs = data[:, 0], data[:, 1:]
    require(((omega >= 0) & (omega <= math.pi)).all(), "score angles outside [0, pi]")

    def log_density(r):
        tr = np.trace(r)
        return float(np.log(heat_kernel(math.acos(max(-1.0, min(1.0, (tr - 1) / 2))), t)))

    rows = np.linspace(0, n - 1, subsample).astype(int)
    for i in rows:
        norm = np.linalg.norm(coeffs[i])
        # Skip the zero-tangent branch near w = 0 (no axis to place a
        # rotation on) and angles within a step of pi, where the log's cut
        # folds the finite-difference stencil back on itself.
        if norm == 0.0 or not 1e-3 < omega[i] < math.pi - 1e-3:
            continue
        r = so3.exp_so3(so3.hat(omega[i] * coeffs[i] / norm))
        grad = igso3.riemannian_gradient_fd(log_density, r)
        local = r.T @ grad
        fd = np.linalg.norm([local[2, 1], local[0, 2], local[1, 0]])
        require(abs(fd - norm) <= 1e-5 * (1.0 + norm),
                f"score row {i}: |score| {norm:.6e} vs finite difference {fd:.6e}")
    return {}


# ------------------------------------------------------------------ toy

def check_toy_run(run_dir: Path, paths: int, steps: int, n_atoms: int) -> dict:
    """One CSV per grid time plus a manifest; the end files are well formed."""
    files = sorted(run_dir.glob("t_*.csv"))
    require(len(files) == steps, f"{run_dir.name}: {len(files)} time files, expected {steps}")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    require(len(manifest["config"]["grid_times"]) == steps,
            f"{run_dir.name}: manifest grid has the wrong length")
    for path in (files[0], files[-1]):
        data = _read_csv(path, 5 + n_atoms)
        require(data.shape[0] == paths, f"{path.name}: {data.shape[0]} rows, expected {paths}")
        require((data[:, 0] == np.arange(paths)).all(), f"{path.name}: path ids wrong")
        _require_unit_quats(data[:, 1:5], path.name)
    return {}


def check_toy_compare(out_dir: Path, run_a: str, run_b: str, paths: int,
                      steps: int, final_time: float) -> dict:
    """Forward and reverse marginals agree at the grid times nearest 1..4.

    The report's own ``max_ks`` includes t = 0, where the forward run is
    exact point masses, so it is always 1.0; the check recomputes KS on
    the angle-to-nearest-atom columns instead, with a bound that shrinks
    as 1/sqrt(paths).
    """
    report = json.loads((out_dir / "ks.json").read_text())
    require(len(report["times"]) == steps and len(report["ks"]) == steps,
            "compare report has the wrong number of times")
    times = np.asarray(report["times"], float)
    bound = KS_C * math.sqrt(2.0 / paths)
    worst = 0.0
    for target in range(1, int(final_time) + 1):
        idx = int(np.argmin(np.abs(times - target)))
        angles = []
        for run in (run_a, run_b):
            path = out_dir / run / f"t_{idx:04d}.csv"
            with open(path) as fh:
                n_cols = len(fh.readline().split(","))
            angles.append(_read_csv(path, n_cols)[:, 5:].min(axis=1))
        ks = ks_2samp(*angles)
        worst = max(worst, ks)
        require(ks < bound, f"toy KS at t={times[idx]:.3f} is {ks:.4f}, bound {bound:.4f}")
    return {"toy_ks_worst": worst}
