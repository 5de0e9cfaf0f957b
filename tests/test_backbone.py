import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se3diffuse import backbone, igso3, process, schedules, so3
from se3diffuse.process import FrameSet

TS = schedules.TranslationSchedule()
RS = schedules.RotationSchedule()
GEOM = backbone.load_ideal_geometry()
N, CA, C, O = range(4)


def random_frames(rng, n=1):
    return FrameSet(so3.sample_uniform_so3(rng, n), rng.standard_normal((n, 3)))


def unit_pairs(angles):
    angles = np.atleast_1d(angles)
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def apply_rigid(r, x, atoms):
    """Move (N, 4, 3) atoms by the rigid transform (r, x)."""
    return atoms @ r.T + x


class TestGeometry:
    def test_ca_at_origin(self):
        assert GEOM.shape == (4, 3)
        assert np.array_equal(GEOM[CA], np.zeros(3))

    def test_bond_lengths_positive(self):
        assert np.linalg.norm(GEOM[C]) > 0
        assert np.linalg.norm(GEOM[N]) > 0
        assert np.linalg.norm(GEOM[O] - GEOM[C]) > 0

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "geom.json"
        path.write_text(
            json.dumps({k: list(v) for k, v in zip(backbone.ATOM_NAMES, GEOM)})
        )
        loaded = backbone.load_ideal_geometry(str(path))
        assert np.array_equal(loaded[O], GEOM[O])

    def test_rejects_offset_ca(self, tmp_path):
        raw = {k: list(v) for k, v in zip(backbone.ATOM_NAMES, GEOM)}
        raw["CA"] = [0.1, 0, 0]
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError):
            backbone.load_ideal_geometry(str(path))


class TestAtom2Frame:
    def test_ideal_residue_gives_identity(self):
        fs = backbone.atom2frame(GEOM[None])
        assert np.abs(fs.rotations[0] - np.eye(3)).max() < 1e-12
        assert np.abs(fs.translations[0]).max() == 0.0

    def test_roundtrip_through_atoms(self, rng):
        frames = random_frames(rng, 500)
        psi = unit_pairs(rng.uniform(-np.pi, np.pi, 500))
        back = backbone.atom2frame(backbone.frameset_to_atoms(frames, psi, GEOM))
        assert not back.centered
        assert np.abs(back.rotations - frames.rotations).max() < 1e-10
        assert np.abs(back.translations - frames.translations).max() < 1e-10

    def test_translation_shift(self, rng):
        atoms = backbone.frameset_to_atoms(random_frames(rng), geom=GEOM)
        d = rng.standard_normal(3)
        a, b = backbone.atom2frame(atoms), backbone.atom2frame(atoms + d)
        assert np.abs(b.rotations - a.rotations).max() < 1e-12
        assert np.abs(b.translations - (a.translations + d)).max() < 1e-12

    def test_equivariance(self, rng):
        base = backbone.frameset_to_atoms(random_frames(rng), geom=GEOM)
        g = random_frames(rng)
        r, x = g.rotations[0], g.translations[0]
        f_base = backbone.atom2frame(base)
        f_moved = backbone.atom2frame(apply_rigid(r, x, base))
        assert np.abs(f_moved.rotations - r @ f_base.rotations).max() < 1e-10
        expected_x = f_base.translations @ r.T + x
        assert np.abs(f_moved.translations - expected_x).max() < 1e-10

    def test_rejects_collinear(self):
        atoms = np.array([[[0.1, 0, 0], [0, 0, 0], [0.2, 0, 0], [0.3, 0.1, 0]]])
        with pytest.raises(ValueError):
            backbone.atom2frame(atoms)

    def test_rejects_batch_with_one_collinear_residue(self, rng):
        atoms = backbone.frameset_to_atoms(random_frames(rng, 6), geom=GEOM)
        atoms[3, N] = atoms[3, CA] + 0.5 * (atoms[3, C] - atoms[3, CA])
        with pytest.raises(ValueError, match="residue 4"):
            backbone.atom2frame(atoms)


class TestFramesetToAtoms:
    def test_identity_frame_zero_psi(self):
        fs = FrameSet(np.eye(3)[None], np.zeros((1, 3)))
        atoms = backbone.frameset_to_atoms(fs, unit_pairs(0.0), GEOM)[0]
        assert np.array_equal(atoms[N], GEOM[N])
        assert np.array_equal(atoms[CA], GEOM[CA])
        assert np.array_equal(atoms[C], GEOM[C])
        assert np.abs(atoms[O] - GEOM[O]).max() < 1e-15

    def test_ca_equals_translation(self, rng):
        frames = random_frames(rng)
        atoms = backbone.frameset_to_atoms(frames, unit_pairs(0.7), GEOM)
        assert np.array_equal(atoms[:, CA], frames.translations)

    def test_oxygen_distance_to_c_is_psi_invariant(self, rng):
        frame = random_frames(rng)
        frames = FrameSet(np.repeat(frame.rotations, 17, axis=0),
                          np.repeat(frame.translations, 17, axis=0))
        psi = unit_pairs(np.linspace(-np.pi, np.pi, 17))
        atoms = backbone.frameset_to_atoms(frames, psi, GEOM)
        ref = np.linalg.norm(GEOM[O] - GEOM[C])
        dist = np.linalg.norm(atoms[:, O] - atoms[:, C], axis=-1)
        assert np.abs(dist - ref).max() < 1e-12

    def test_psi_does_not_move_n_ca_c(self, rng):
        frames = random_frames(rng)
        a = backbone.frameset_to_atoms(frames, unit_pairs(0.3), GEOM)
        b = backbone.frameset_to_atoms(frames, unit_pairs(-2.1), GEOM)
        assert np.array_equal(a[:, :3], b[:, :3])

    def test_default_psi_and_geometry(self, rng):
        frames = random_frames(rng, 3)
        explicit = backbone.frameset_to_atoms(frames, unit_pairs(np.zeros(3)), GEOM)
        assert np.array_equal(backbone.frameset_to_atoms(frames), explicit)

    @given(st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_psi_unit_pair_valid(self, angle):
        psi = unit_pairs(angle)
        assert abs(psi[0, 0] ** 2 + psi[0, 1] ** 2 - 1.0) <= 1e-12
        frames = FrameSet(np.eye(3)[None], np.zeros((1, 3)))
        assert backbone.frameset_to_atoms(frames, psi, GEOM).shape == (1, 4, 3)

    @pytest.mark.parametrize("row", [[1.0, 1e-5], [0.0, 0.0], [np.nan, 0.0]])
    def test_rejects_psi_off_unit_circle(self, rng, row):
        psi = unit_pairs(np.zeros(3))
        psi[1] = row
        with pytest.raises(ValueError, match="unit circle"):
            backbone.frameset_to_atoms(random_frames(rng, 3), psi, GEOM)

    @pytest.mark.parametrize("shape", [(2,), (2, 2), (4, 2), (3, 3), (3, 2, 1)])
    def test_rejects_psi_of_wrong_shape(self, rng, shape):
        psi = np.zeros(shape)
        psi[..., 0] = 1.0
        with pytest.raises(ValueError, match="shape"):
            backbone.frameset_to_atoms(random_frames(rng, 3), psi, GEOM)


class TestLbb:
    def test_zero_at_truth(self, rng):
        atoms = backbone.frameset_to_atoms(random_frames(rng, 4), geom=GEOM)
        assert backbone.l_bb(atoms, atoms) == 0.0

    def test_single_displacement(self, rng):
        truth = backbone.frameset_to_atoms(random_frames(rng), geom=GEOM)
        pred = truth.copy()
        pred[0, N] += np.array([0.1, 0.0, 0.0])
        assert np.isclose(backbone.l_bb(pred, truth), 0.01 / 4)

    def test_rigid_motion_invariance(self, rng):
        truth = backbone.frameset_to_atoms(random_frames(rng, 3), geom=GEOM)
        pred = truth.copy()
        pred[:, N] += 0.01 * rng.standard_normal((3, 3))
        base = backbone.l_bb(pred, truth)
        g = random_frames(rng)
        r, x = g.rotations[0], g.translations[0]
        moved = backbone.l_bb(apply_rigid(r, x, pred), apply_rigid(r, x, truth))
        assert abs(base - moved) < 1e-12

    def test_length_mismatch(self, rng):
        atoms = backbone.frameset_to_atoms(random_frames(rng), geom=GEOM)
        with pytest.raises(ValueError):
            backbone.l_bb(atoms, np.concatenate([atoms, atoms]))

    def test_rejects_empty_and_wrong_layout(self):
        with pytest.raises(ValueError):
            backbone.l_bb(np.zeros((0, 4, 3)), np.zeros((0, 4, 3)))
        with pytest.raises(ValueError, match="shape"):
            backbone.l_bb(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))


def chain_atoms(n, spacing=0.38):
    translations = np.zeros((n, 3))
    translations[:, 0] = spacing * np.arange(n)
    frames = FrameSet(np.broadcast_to(np.eye(3), (n, 3, 3)), translations)
    return backbone.frameset_to_atoms(frames, geom=GEOM)


def brute_force_l2d(pred, truth, cutoff=0.6):
    """Exhaustive quadruple enumeration, scalar arithmetic."""
    n = len(truth)
    total, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            for a in range(4):
                for b in range(4):
                    d = np.linalg.norm(truth[i, a] - truth[j, b])
                    if d < cutoff:
                        count += 1
                        dp = np.linalg.norm(pred[i, a] - pred[j, b])
                        total += (d - dp) ** 2
    return total / (count - n)


class TestL2d:
    def test_zero_at_truth(self):
        truth = chain_atoms(3)
        assert backbone.l_2d(truth, truth) == 0.0

    def test_cutoff_constant(self):
        assert backbone.CONTACT_CUTOFF_NM == 0.6

    def test_two_residue_toy_against_enumeration(self, rng):
        truth = chain_atoms(2, spacing=0.45)
        pred = truth.copy()
        pred[1, N] += np.array([0.0, 0.1, 0.0])
        assert np.isclose(
            backbone.l_2d(pred, truth), brute_force_l2d(pred, truth), rtol=1e-12
        )

    def test_random_perturbation_against_enumeration(self, rng):
        truth = chain_atoms(4)
        pred = truth + 0.02 * rng.standard_normal(truth.shape)
        assert np.isclose(
            backbone.l_2d(pred, truth), brute_force_l2d(pred, truth), rtol=1e-12
        )

    def test_rigid_motion_invariance(self, rng):
        truth = chain_atoms(3)
        pred = truth.copy()
        pred[:, N] += 0.01 * rng.standard_normal((3, 3))
        base = backbone.l_2d(pred, truth)
        g = random_frames(rng)
        r, x = g.rotations[0], g.translations[0]
        moved = backbone.l_2d(apply_rigid(r, x, pred), apply_rigid(r, x, truth))
        assert abs(base - moved) < 1e-12

    def test_far_apart_residues_reduce_to_intra_residue_pairs(self, rng):
        # Intra-residue atom pairs always sit inside the cutoff, so Z stays
        # positive no matter how far residues drift apart.
        far = chain_atoms(2, spacing=50.0)
        pred = far.copy()
        pred[:, N] += 0.03 * rng.standard_normal((2, 3))
        assert np.isclose(
            backbone.l_2d(pred, far), brute_force_l2d(pred, far), rtol=1e-12
        )
        assert backbone.l_2d(chain_atoms(1), chain_atoms(1)) == 0.0


class TestDsmLoss:
    def make_pair(self, rng, n=5, t=0.5):
        fs0 = process.center(
            FrameSet(so3.sample_uniform_so3(rng, n), 0.5 * rng.standard_normal((n, 3)))
        )
        fs_t = process.forward_sample(fs0, schedules.level(t, TS, RS), rng)
        return fs0, fs_t

    def test_exact_score_gives_zero(self, rng):
        t = 0.5
        fs0, fs_t = self.make_pair(rng, t=t)
        level = schedules.level(t, TS, RS)
        pred = process.score_from_denoised(fs_t, fs0, level)
        loss_r, loss_x = backbone.dsm_loss(pred, fs0, fs_t, level)
        assert loss_r < 1e-20
        assert loss_x < 1e-20

    def test_perturbations_increase_loss(self, rng):
        t = 0.5
        level = schedules.level(t, TS, RS)
        for _ in range(10):
            fs0, fs_t = self.make_pair(rng, t=t)
            rot, trans = process.score_from_denoised(fs_t, fs0, level)
            bump_r = rng.standard_normal(3)
            bump_x = rng.standard_normal(3)
            worse = (rot + bump_r, trans + bump_x)
            base = backbone.dsm_loss((rot, trans), fs0, fs_t, level)
            bumped = backbone.dsm_loss(worse, fs0, fs_t, level)
            assert bumped[0] > base[0]
            assert bumped[1] > base[1]

    def test_rejects_frame_count_mismatch(self, rng):
        fs0, fs_t = self.make_pair(rng, n=3)
        level = schedules.level(0.5, TS, RS)
        rot, trans = process.score_from_denoised(fs_t, fs0, level)
        with pytest.raises(ValueError, match="frame counts"):
            backbone.dsm_loss((rot[:2], trans[:2]), fs0, fs_t, level)

    def test_rejects_matrix_rotation_score(self, rng):
        # The tangent matrices r hat(v) are not the (N, 3) coefficients v.
        fs0, fs_t = self.make_pair(rng, n=3)
        level = schedules.level(0.5, TS, RS)
        rot, trans = process.score_from_denoised(fs_t, fs0, level)
        matrices = fs_t.rotations @ so3.hat(rot)
        with pytest.raises(ValueError, match=r"\(3, 3, 3\), expected \(3, 3\)"):
            backbone.dsm_loss((matrices, trans), fs0, fs_t, level)

    def test_trivial_prediction_small_sample(self, rng):
        # Full 1e5-draw calibration lives in the acceptance suite; this is
        # a quick coherence check at one time.
        t = 0.5
        n, draws = 50, 40
        level = schedules.level(t, TS, RS)
        losses = []
        for _ in range(draws):
            fs0, fs_t = self.make_pair(rng, n=n, t=t)
            pred = process.score_from_denoised(fs_t, fs_t, level)
            losses.append(backbone.dsm_loss(pred, fs0, fs_t, level)[0])
        assert abs(np.mean(losses) - 1.0) < 0.1


class TestTotalLoss:
    def test_indicator_excludes_late_times(self):
        terms = backbone.LossTerms(dsm_rot=1.0, dsm_trans=2.0, bb=10.0, two_d=20.0)
        assert backbone.total_loss(terms, t=0.5, w=100.0) == 3.0

    def test_early_times_include_structure(self):
        terms = backbone.LossTerms(dsm_rot=1.0, dsm_trans=2.0, bb=10.0, two_d=20.0)
        assert backbone.total_loss(terms, t=0.1) == 3.0 + 0.25 * 30.0

    def test_default_weight(self):
        import inspect

        assert inspect.signature(backbone.total_loss).parameters["w"].default == 0.25


class TestPdbIO:
    def test_roundtrip(self, rng, tmp_path):
        frames = random_frames(rng, 5)
        psi = unit_pairs(rng.uniform(-3, 3, 5))
        atoms = backbone.frameset_to_atoms(frames, psi, GEOM)
        path = tmp_path / "chain.pdb"
        backbone.write_pdb(str(path), atoms)
        parsed = backbone.read_pdb(str(path))
        assert parsed.shape == (5, 4, 3)
        assert np.abs(atoms - parsed).max() < 1e-4 / 2

    def test_fixed_columns(self, tmp_path):
        frames = FrameSet(np.eye(3)[None], np.array([[1.0, -2.0, 0.3]]))
        atoms = backbone.frameset_to_atoms(frames, geom=GEOM)
        path = tmp_path / "one.pdb"
        backbone.write_pdb(str(path), atoms)
        line = path.read_text().splitlines()[0]
        assert line[0:6] == "ATOM  "
        assert line[6:11] == "    1"
        assert line[12:16].strip() == "N"
        assert line[17:20] == "GLY"
        assert line[21] == "A"
        assert line[22:26] == "   1"
        assert len(line[30:38]) == 8 and float(line[30:38]) == pytest.approx(
            10.0 * atoms[0, N, 0], abs=1e-3
        )
        assert line[76:78].strip() == "N"

    @pytest.mark.parametrize("extreme", [-999.999, 9999.999])
    def test_widest_coordinates_fit(self, tmp_path, extreme):
        atoms = np.zeros((2, 4, 3))
        atoms[1, 3, 2] = extreme / 10.0
        backbone.check_pdb_columns(atoms)
        path = tmp_path / "edge.pdb"
        backbone.write_pdb(str(path), atoms)
        assert backbone.read_pdb(str(path))[1, 3, 2] == pytest.approx(extreme / 10.0)

    @pytest.mark.parametrize("n,coordinate,message", [
        (2, -1000.0, "coordinate -1000.000 A"),
        (2, 10000.0, "coordinate 10000.000 A"),
        (10000, 0.0, "10000 residues"),
    ])
    def test_overflowing_columns_are_refused(self, n, coordinate, message):
        atoms = np.zeros((n, 4, 3))
        atoms[-1, 0, 0] = coordinate / 10.0
        with pytest.raises(igso3.NumericalDomainError, match=message):
            backbone.check_pdb_columns(atoms)

    def test_parse_back_frames(self, rng, tmp_path):
        frames = random_frames(rng, 8)
        path = tmp_path / "frames.pdb"
        backbone.write_pdb(str(path), backbone.frameset_to_atoms(frames, geom=GEOM))
        rec = backbone.atom2frame(backbone.read_pdb(str(path)))
        assert np.abs(rec.rotations - frames.rotations).max() < 1e-3

    @pytest.fixture
    def pdb_lines(self, rng, tmp_path):
        path = tmp_path / "three.pdb"
        backbone.write_pdb(str(path), backbone.frameset_to_atoms(random_frames(rng, 3)))
        return path, path.read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("edit",
                             ["drop O", "swap N and CA", "renumber", "garble x"])
    def test_read_rejects_malformed_records(self, pdb_lines, edit):
        path, lines = pdb_lines
        if edit == "drop O":
            del lines[7]
        elif edit == "swap N and CA":
            lines[4], lines[5] = lines[5], lines[4]
        elif edit == "renumber":
            lines = [line[:22] + f"{int(line[22:26]) + 1:>4}" + line[26:]
                     if line.startswith("ATOM") else line for line in lines]
        else:
            lines[2] = lines[2][:30] + "   x.yz " + lines[2][38:]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="three.pdb"):
            backbone.read_pdb(str(path))
