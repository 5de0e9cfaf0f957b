"""Protein-backbone frame geometry and the structural training losses.

A residue's four heavy atoms (N, CA, C, O) are generated from idealized
local coordinates by a rigid frame plus a torsion angle psi that swings
the oxygen about the CA->C bond axis. Frames are recovered from atoms by
Gram-Schmidt. All coordinates are nanometers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from . import igso3, schedules, so3
from .process import Frame, FrameSet

ATOM_NAMES = ("N", "CA", "C", "O")

# Pairwise-distance loss cutoff: 0.6 nm (6 Angstroms).
CONTACT_CUTOFF_NM = 0.6


@dataclass(frozen=True)
class ResidueAtoms:
    """Backbone heavy-atom positions (nm) for one residue."""

    n: np.ndarray
    ca: np.ndarray
    c: np.ndarray
    o: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.stack([np.asarray(self.n, float), np.asarray(self.ca, float),
                         np.asarray(self.c, float), np.asarray(self.o, float)])


@dataclass(frozen=True)
class IdealGeometry:
    """Idealized local coordinates with CA pinned at the origin."""

    n: np.ndarray
    ca: np.ndarray
    c: np.ndarray
    o: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.ca, float) != 0.0):
            raise ValueError("ideal CA must sit at the origin")


@dataclass(frozen=True)
class Psi:
    """Torsion angle stored as the unit pair (cos psi, sin psi)."""

    cos: float
    sin: float

    def __post_init__(self):
        if abs(self.cos**2 + self.sin**2 - 1.0) > 1e-12:
            raise ValueError("(cos, sin) must lie on the unit circle")

    @classmethod
    def from_angle(cls, angle: float) -> "Psi":
        return cls(math.cos(angle), math.sin(angle))


def load_ideal_geometry(path: str | None = None) -> IdealGeometry:
    """Read an IdealGeometry JSON (four 3-vectors); package default if no path."""
    if path is None:
        text = (
            resources.files("se3diffuse").joinpath("data/ideal_geometry.json").read_text()
        )
    else:
        with open(path) as fh:
            text = fh.read()
    raw = json.loads(text)
    return IdealGeometry(
        n=np.asarray(raw["N"], float),
        ca=np.asarray(raw["CA"], float),
        c=np.asarray(raw["C"], float),
        o=np.asarray(raw["O"], float),
    )


def atom2frame(res: ResidueAtoms) -> Frame:
    """Gram-Schmidt frame from N, CA, C; translation is the CA position."""
    ca = np.asarray(res.ca, float)
    v1 = np.asarray(res.c, float) - ca
    v2 = np.asarray(res.n, float) - ca
    if np.linalg.norm(np.cross(v1, v2)) <= 1e-9:
        raise ValueError("N, CA, C are collinear; frame undefined")
    e1 = v1 / np.linalg.norm(v1)
    u2 = v2 - (e1 @ v2) * e1
    e2 = u2 / np.linalg.norm(u2)
    e3 = np.cross(e1, e2)
    return Frame(rotation=np.stack([e1, e2, e3], axis=-1), translation=ca)


def frame_to_atoms(f: Frame, psi: Psi, geom: IdealGeometry) -> ResidueAtoms:
    """Place idealized atoms with the frame; the oxygen swings by psi.

    The oxygen rotates about the unit axis from CA* toward C* (an axis
    through the origin, so points on it, like C*, keep their distance
    to O).
    """
    r = np.asarray(f.rotation, float)
    x = np.asarray(f.translation, float)
    axis = np.asarray(geom.c, float) - np.asarray(geom.ca, float)
    axis = axis / np.linalg.norm(axis)
    rot_psi = so3.exp_so3(so3.hat(axis * math.atan2(psi.sin, psi.cos)))
    return ResidueAtoms(
        n=r @ geom.n + x,
        ca=r @ geom.ca + x,
        c=r @ geom.c + x,
        o=r @ (rot_psi @ geom.o) + x,
    )


def frameset_to_atoms(
    fs: FrameSet, psis: Sequence[Psi] | None = None, geom: IdealGeometry | None = None
) -> list[ResidueAtoms]:
    geom = geom or load_ideal_geometry()
    if psis is None:
        psis = [Psi(1.0, 0.0)] * len(fs)
    return [
        frame_to_atoms(Frame(r, x), p, geom)
        for r, x, p in zip(fs.rotations, fs.translations, psis)
    ]


def _stack_atoms(residues: Sequence[ResidueAtoms]) -> np.ndarray:
    return np.stack([r.stacked() for r in residues])  # (N, 4, 3)


def l_bb(pred: Sequence[ResidueAtoms], truth: Sequence[ResidueAtoms]) -> float:
    """Mean squared error over all backbone atoms, (1/4N) sum |a - a_hat|^2."""
    if len(pred) != len(truth) or len(pred) == 0:
        raise ValueError("pred and truth must be nonempty and equally long")
    diff = _stack_atoms(pred) - _stack_atoms(truth)
    return float((diff**2).sum() / (4 * len(pred)))


def l_2d(pred: Sequence[ResidueAtoms], truth: Sequence[ResidueAtoms]) -> float:
    """Local pairwise-distance loss with the 0.6 nm cutoff.

    Sums (d - d_hat)^2 over all ordered (residue, residue, atom, atom)
    quadruples whose TRUE distance is under the cutoff, normalized by
    Z = (number of such quadruples) - N.
    """
    if len(pred) != len(truth) or len(pred) == 0:
        raise ValueError("pred and truth must be nonempty and equally long")
    n = len(pred)
    p = _stack_atoms(pred).reshape(-1, 3)
    q = _stack_atoms(truth).reshape(-1, 3)
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
    t: float,
    trans_sched: schedules.TranslationSchedule,
    rot_sched: schedules.RotationSchedule,
    cfg: igso3.TruncationConfig = igso3.DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Denoising score-matching losses (rotation, translation).

    ``score_pred`` is (rot (N, 3, 3), trans (N, 3)), the form that
    :func:`process.score_from_denoised` returns; each rotation part must
    lie in the tangent space at its frame. The rotation term is the
    lambda_r-weighted mean squared deviation from the true conditional
    score in the tr(u v^T)/2 metric. The
    translation term is evaluated in the denoised parameterization: the
    predicted score is inverted for the implied time-zero coordinates and
    compared to the truth by plain MSE.
    """
    pred_rot, pred_trans = score_pred
    if not (len(pred_rot) == len(pred_trans) == len(fs0) == len(fs_t)):
        raise ValueError("frame counts differ")
    var = float(schedules.rot_variance(t, rot_sched))
    lambda_r = 1.0 / igso3.expected_score_norm_sq(var, cfg)
    table = igso3.cached_table(var, cfg)
    true_rot = igso3.score_from_table(fs0.rotations, fs_t.rotations, table, cfg)
    coeffs = so3.vee(so3.transpose(fs_t.rotations) @ (pred_rot - true_rot))
    loss_r = lambda_r * float((coeffs**2).sum(axis=-1).mean())

    x0_hat = schedules.denoised_from_trans_score(
        pred_trans, fs_t.translations, t, trans_sched
    )
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


def write_pdb(path: str, residues: Sequence[ResidueAtoms], chain: str = "A") -> None:
    """Write fixed-column PDB ATOM records (GLY residues, coordinates in A)."""
    elements = {"N": "N", "CA": "C", "C": "C", "O": "O"}
    with open(path, "w") as fh:
        serial = 1
        for i, res in enumerate(residues, start=1):
            for name, pos in zip(ATOM_NAMES, res.stacked()):
                x, y, z = (10.0 * pos).tolist()
                fh.write(
                    f"{'ATOM':<6}{serial:>5} {name:^4} {'GLY':>3} {chain}"
                    f"{i:>4}    {x:8.3f}{y:8.3f}{z:8.3f}{1.00:6.2f}{0.00:6.2f}"
                    f"{'':10}{elements[name]:>2}\n"
                )
                serial += 1
        fh.write("TER\n")
        fh.write("END\n")


def read_pdb(path: str) -> list[ResidueAtoms]:
    """Parse ATOM records written by :func:`write_pdb` back to nm coordinates."""
    per_residue: dict[int, dict[str, np.ndarray]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("ATOM"):
                continue
            name = line[12:16].strip()
            resnum = int(line[22:26])
            xyz = np.array(
                [float(line[30:38]), float(line[38:46]), float(line[46:54])]
            )
            per_residue.setdefault(resnum, {})[name] = xyz / 10.0
    out = []
    for resnum in sorted(per_residue):
        atoms = per_residue[resnum]
        out.append(
            ResidueAtoms(n=atoms["N"], ca=atoms["CA"], c=atoms["C"], o=atoms["O"])
        )
    return out
