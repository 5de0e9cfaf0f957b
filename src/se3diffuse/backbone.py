"""Protein-backbone frame geometry and the structural training losses.

A backbone is a float array of shape (N, 4, 3) in nanometers: the heavy
atoms of each residue in ``ATOM_NAMES`` order (N, CA, C, O). The atoms are
generated from idealized local coordinates, a (4, 3) array in the same
order, by a rigid frame per residue plus a torsion psi that swings the
oxygen about the CA->C bond axis. The torsions are an (N, 2) array of
(cos psi, sin psi) pairs. Frames are recovered from atoms by Gram-Schmidt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import process, schedules, so3
from .igso3 import NumericalDomainError
from .process import FrameSet

ATOM_NAMES = ("N", "CA", "C", "O")
_ELEMENTS = ("N", "C", "C", "O")

# Pairwise-distance loss cutoff: 0.6 nm (6 Angstroms).
CONTACT_CUTOFF_NM = 0.6


def _as_atoms(atoms) -> np.ndarray:
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim != 3 or atoms.shape[1:] != (4, 3):
        raise ValueError(f"atoms must have shape (N, 4, 3), got {atoms.shape}")
    return atoms


def load_ideal_geometry(path: str | None = None) -> np.ndarray:
    """Idealized local coordinates (4, 3) from JSON; package default if no path.

    The JSON maps each of ``ATOM_NAMES`` to a 3-vector. CA must sit at the
    origin.
    """
    if path is None:
        text = (
            resources.files("se3diffuse").joinpath("data/ideal_geometry.json").read_text()
        )
    else:
        with open(path) as fh:
            text = fh.read()
    raw = json.loads(text)
    geom = np.array([raw[name] for name in ATOM_NAMES], dtype=float)
    if geom.shape != (4, 3):
        raise ValueError("ideal geometry needs one 3-vector per atom")
    if np.any(geom[1] != 0.0):
        raise ValueError("ideal CA must sit at the origin")
    return geom


def atom2frame(atoms) -> FrameSet:
    """Gram-Schmidt frames from N, CA, C; translations are the CA positions.

    Returns an uncentered FrameSet. Raises ValueError if N, CA and C are
    collinear in any residue.
    """
    atoms = _as_atoms(atoms)
    ca = atoms[:, 1]
    v1 = atoms[:, 2] - ca
    v2 = atoms[:, 0] - ca
    collinear = np.flatnonzero(np.linalg.norm(np.cross(v1, v2), axis=-1) <= 1e-9)
    if collinear.size:
        raise ValueError(
            f"N, CA, C are collinear in residue {collinear[0] + 1}; frame undefined"
        )
    e1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    u2 = v2 - (e1 * v2).sum(axis=-1, keepdims=True) * e1
    e2 = u2 / np.linalg.norm(u2, axis=-1, keepdims=True)
    e3 = np.cross(e1, e2)
    return FrameSet(np.stack([e1, e2, e3], axis=-1), ca)


def frameset_to_atoms(fs: FrameSet, psi=None, geom=None) -> np.ndarray:
    """Place the idealized atoms with each frame; the oxygen swings by psi.

    ``psi`` is an (N, 2) array of (cos, sin) pairs on the unit circle, all
    (1, 0) if None; ``geom`` is the (4, 3) local geometry, the package
    default if None. The oxygen rotates about the unit axis from CA* toward
    C* (an axis through the origin, so points on it, like C*, keep their
    distance to O). Returns the (N, 4, 3) atoms.
    """
    geom = load_ideal_geometry() if geom is None else np.asarray(geom, dtype=float)
    n = len(fs)
    psi = np.tile([1.0, 0.0], (n, 1)) if psi is None else np.asarray(psi, dtype=float)
    if psi.shape != (n, 2):
        raise ValueError(f"psi must have shape ({n}, 2), got {psi.shape}")
    if not np.all(np.abs(psi[:, 0] ** 2 + psi[:, 1] ** 2 - 1.0) <= 1e-12):
        raise ValueError("psi (cos, sin) pairs must lie on the unit circle")
    axis = (geom[2] - geom[1]) / np.linalg.norm(geom[2] - geom[1])
    rot_psi = so3.exp_so3(so3.hat(axis * np.arctan2(psi[:, 1], psi[:, 0])[:, None]))
    local = np.broadcast_to(geom, (n, 4, 3)).copy()
    local[:, 3] = rot_psi @ geom[3]
    return (fs.rotations[:, None] @ local[..., None])[..., 0] + fs.translations[:, None]


def _atom_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred, truth = _as_atoms(pred), _as_atoms(truth)
    if len(pred) != len(truth) or len(pred) == 0:
        raise ValueError("pred and truth must be nonempty and equally long")
    return pred, truth


def l_bb(pred, truth) -> float:
    """Mean squared error over all backbone atoms, (1/4N) sum |a - a_hat|^2."""
    pred, truth = _atom_pair(pred, truth)
    return float(((pred - truth) ** 2).sum() / (4 * len(pred)))


def l_2d(pred, truth) -> float:
    """Local pairwise-distance loss with the 0.6 nm cutoff.

    Sums (d - d_hat)^2 over all ordered (residue, residue, atom, atom)
    quadruples whose TRUE distance is under the cutoff, normalized by
    Z = (number of such quadruples) - N.
    """
    pred, truth = _atom_pair(pred, truth)
    n = len(pred)
    p = pred.reshape(-1, 3)
    q = truth.reshape(-1, 3)
    d_true = np.linalg.norm(q[:, None] - q[None, :], axis=-1)
    d_pred = np.linalg.norm(p[:, None] - p[None, :], axis=-1)
    mask = d_true < CONTACT_CUTOFF_NM
    z = int(mask.sum()) - n
    if z <= 0:
        raise ValueError("degenerate geometry: no neighbors beyond self-pairs")
    return float((((d_true - d_pred) ** 2)[mask]).sum() / z)


@dataclass(frozen=True)
class LossTerms:
    """The individual training-loss components at one time."""

    dsm_rot: float
    dsm_trans: float
    bb: float = 0.0
    two_d: float = 0.0


def dsm_loss(
    score_pred: tuple[np.ndarray, np.ndarray],
    fs0: FrameSet,
    fs_t: FrameSet,
    level: schedules.Level,
) -> tuple[float, float]:
    """Denoising score-matching losses (rotation, translation) at the noise
    level ``level`` of ``fs_t``.

    ``score_pred`` is (rot (N, 3), trans (N, 3)), the form that
    :func:`process.score_from_denoised` returns: each rotation row is a
    coefficient vector in the frame of its ``fs_t`` rotation. The rotation
    term is the lambda_r-weighted mean squared deviation from the true
    conditional score in the tr(u v^T)/2 metric, the Euclidean norm of the
    coefficients. The translation term is evaluated in the denoised
    parameterization: the predicted score is inverted for the implied
    time-zero coordinates and compared to the truth by plain MSE.
    """
    pred_rot, pred_trans = score_pred
    if not (len(pred_rot) == len(pred_trans) == len(fs0) == len(fs_t)):
        raise ValueError("frame counts differ")
    if np.shape(pred_rot) != (len(fs_t), 3):
        raise ValueError(f"rotation score has shape {np.shape(pred_rot)}, "
                         f"expected {(len(fs_t), 3)}")
    lambda_r, _ = schedules.dsm_weights(level)
    true_rot, _ = process.score_from_denoised(fs_t, fs0, level)
    loss_r = lambda_r * float(((pred_rot - true_rot) ** 2).sum(axis=-1).mean())

    x0_hat = schedules.denoised_from_trans_score(pred_trans, fs_t.translations, level)
    loss_x = float(((fs0.translations - x0_hat) ** 2).sum(axis=-1).mean())
    return loss_r, loss_x


def total_loss(components: LossTerms, t: float, w: float = 0.25) -> float:
    """DSM losses plus the structural terms gated to early times (t < 1/4)."""
    if w < 0:
        raise ValueError("w must be nonnegative")
    out = components.dsm_rot + components.dsm_trans
    if t < 0.25:
        out += w * (components.bb + components.two_d)
    return float(out)


def check_pdb_columns(atoms) -> None:
    """Raises :class:`NumericalDomainError` unless :func:`write_pdb`'s fixed
    columns hold ``atoms``: every residue number fits ``%4d`` (so every
    serial, at most 4 * 9999, fits ``%5d``) and every coordinate, in A,
    fits ``%8.3f``."""
    atoms = _as_atoms(atoms)
    if len(atoms) > 9999:
        raise NumericalDomainError(f"{len(atoms)} residues need residue numbers past "
                                   "the PDB's 9999")
    for x in (10.0 * atoms.min(initial=0.0), 10.0 * atoms.max(initial=0.0)):
        if len(f"{x:8.3f}") > 8:
            raise NumericalDomainError(f"coordinate {x:.3f} A does not fit the PDB's "
                                       "8-column field (-999.999 to 9999.999)")


def write_pdb(path: str, atoms) -> None:
    """Write fixed-column PDB ATOM records (GLY, chain A, coordinates in A)."""
    # One residue's four records; each takes serial, residue number, x, y, z.
    # Serials and residue numbers ride in the float array; %d prints them exactly.
    residue = "".join(
        f"{'ATOM':<6}%5d {name:^4} {'GLY':>3} A%4d    %8.3f%8.3f%8.3f"
        f"{1.00:6.2f}{0.00:6.2f}{'':10}{element:>2}\n"
        for name, element in zip(ATOM_NAMES, _ELEMENTS)
    )
    atoms = _as_atoms(atoms)
    n = len(atoms)
    fields = np.empty((n, 4, 5))
    fields[..., 0] = np.arange(1, 4 * n + 1).reshape(n, 4)
    fields[..., 1] = np.arange(1, n + 1)[:, None]
    fields[..., 2:] = 10.0 * atoms
    with open(path, "w") as fh:
        fh.writelines([residue % tuple(row) for row in fields.reshape(n, 20).tolist()])
        fh.write("TER\nEND\n")


def read_pdb(path: str) -> np.ndarray:
    """Parse ATOM records written by :func:`write_pdb` to (N, 4, 3) atoms in nm.

    Raises ValueError naming the file unless the records hold N, CA, C, O
    for each residue in turn, numbered 1..N.
    """
    with open(path) as fh:
        records = [line for line in fh if line.startswith("ATOM")]
    try:
        found = [(line[12:16].strip(), int(line[22:26])) for line in records]
        xyz = [
            [float(line[30:38]), float(line[38:46]), float(line[46:54])]
            for line in records
        ]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed ATOM record: {exc}") from None
    n = len(records) // 4
    if found != [(name, i) for i in range(1, n + 1) for name in ATOM_NAMES]:
        raise ValueError(
            f"{path}: ATOM records are not N, CA, C, O per residue numbered 1..N"
        )
    return np.array(xyz, dtype=float).reshape(n, 4, 3) / 10.0
