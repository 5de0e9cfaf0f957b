import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from se3diffuse import backbone, igso3, process, schedules, so3
from se3diffuse.process import Frame, FrameSet

TS = schedules.TranslationSchedule()
RS = schedules.RotationSchedule()
GEOM = backbone.load_ideal_geometry()


def random_frame(rng):
    return Frame(so3.sample_uniform_so3(rng), rng.standard_normal(3))


def apply_rigid(frame: Frame, res: backbone.ResidueAtoms) -> backbone.ResidueAtoms:
    r, x = frame.rotation, frame.translation
    return backbone.ResidueAtoms(
        n=r @ res.n + x, ca=r @ res.ca + x, c=r @ res.c + x, o=r @ res.o + x
    )


class TestIdealGeometry:
    def test_ca_at_origin(self):
        assert np.array_equal(GEOM.ca, np.zeros(3))

    def test_bond_lengths_positive(self):
        assert np.linalg.norm(GEOM.c) > 0
        assert np.linalg.norm(GEOM.n) > 0
        assert np.linalg.norm(GEOM.o - GEOM.c) > 0

    def test_json_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "geom.json"
        path.write_text(
            json.dumps(
                {k: list(getattr(GEOM, k.lower())) for k in ("N", "CA", "C", "O")}
            )
        )
        loaded = backbone.load_ideal_geometry(str(path))
        assert np.array_equal(loaded.o, GEOM.o)

    def test_rejects_offset_ca(self):
        with pytest.raises(ValueError):
            backbone.IdealGeometry(
                n=GEOM.n, ca=np.array([0.1, 0, 0]), c=GEOM.c, o=GEOM.o
            )


class TestAtom2Frame:
    def test_ideal_residue_gives_identity(self):
        res = backbone.ResidueAtoms(n=GEOM.n, ca=GEOM.ca, c=GEOM.c, o=GEOM.o)
        frame = backbone.atom2frame(res)
        assert np.abs(frame.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(frame.translation).max() == 0.0

    def test_roundtrip_through_atoms(self, rng):
        for _ in range(500):
            frame = random_frame(rng)
            psi = backbone.Psi.from_angle(rng.uniform(-np.pi, np.pi))
            res = backbone.frame_to_atoms(frame, psi, GEOM)
            back = backbone.atom2frame(res)
            assert np.abs(back.rotation - frame.rotation).max() < 1e-10
            assert np.abs(back.translation - frame.translation).max() < 1e-10

    def test_translation_shift(self, rng):
        frame = random_frame(rng)
        res = backbone.frame_to_atoms(frame, backbone.Psi(1.0, 0.0), GEOM)
        d = rng.standard_normal(3)
        shifted = backbone.ResidueAtoms(res.n + d, res.ca + d, res.c + d, res.o + d)
        a, b = backbone.atom2frame(res), backbone.atom2frame(shifted)
        assert np.abs(b.rotation - a.rotation).max() < 1e-12
        assert np.abs(b.translation - (a.translation + d)).max() < 1e-12

    def test_equivariance(self, rng):
        base = backbone.frame_to_atoms(random_frame(rng), backbone.Psi(1.0, 0.0), GEOM)
        g = random_frame(rng)
        moved = apply_rigid(g, base)
        f_base = backbone.atom2frame(base)
        f_moved = backbone.atom2frame(moved)
        assert np.abs(f_moved.rotation - g.rotation @ f_base.rotation).max() < 1e-10
        expected_x = g.rotation @ f_base.translation + g.translation
        assert np.abs(f_moved.translation - expected_x).max() < 1e-10

    def test_rejects_collinear(self):
        res = backbone.ResidueAtoms(
            n=np.array([0.1, 0, 0]),
            ca=np.zeros(3),
            c=np.array([0.2, 0, 0]),
            o=np.array([0.3, 0.1, 0]),
        )
        with pytest.raises(ValueError):
            backbone.atom2frame(res)


class TestFrameToAtoms:
    def test_identity_frame_zero_psi(self):
        res = backbone.frame_to_atoms(
            Frame(np.eye(3), np.zeros(3)), backbone.Psi(1.0, 0.0), GEOM
        )
        assert np.array_equal(res.n, GEOM.n)
        assert np.array_equal(res.ca, GEOM.ca)
        assert np.array_equal(res.c, GEOM.c)
        assert np.abs(res.o - GEOM.o).max() < 1e-15

    def test_ca_equals_translation(self, rng):
        frame = random_frame(rng)
        res = backbone.frame_to_atoms(frame, backbone.Psi.from_angle(0.7), GEOM)
        assert np.array_equal(res.ca, frame.translation)

    def test_oxygen_distance_to_c_is_psi_invariant(self, rng):
        frame = random_frame(rng)
        ref = np.linalg.norm(GEOM.o - GEOM.c)
        for psi in np.linspace(-np.pi, np.pi, 17):
            res = backbone.frame_to_atoms(frame, backbone.Psi.from_angle(psi), GEOM)
            assert abs(np.linalg.norm(res.o - res.c) - ref) < 1e-12

    def test_psi_does_not_move_n_ca_c(self, rng):
        frame = random_frame(rng)
        a = backbone.frame_to_atoms(frame, backbone.Psi.from_angle(0.3), GEOM)
        b = backbone.frame_to_atoms(frame, backbone.Psi.from_angle(-2.1), GEOM)
        assert np.array_equal(a.n, b.n)
        assert np.array_equal(a.ca, b.ca)
        assert np.array_equal(a.c, b.c)

    @given(st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_psi_unit_pair_valid(self, angle):
        psi = backbone.Psi.from_angle(angle)
        assert abs(psi.cos**2 + psi.sin**2 - 1.0) <= 1e-12


class TestLbb:
    def test_zero_at_truth(self, rng):
        res = [
            backbone.frame_to_atoms(random_frame(rng), backbone.Psi(1.0, 0.0), GEOM)
            for _ in range(4)
        ]
        assert backbone.l_bb(res, res) == 0.0

    def test_single_displacement(self, rng):
        truth = [backbone.frame_to_atoms(random_frame(rng), backbone.Psi(1.0, 0.0), GEOM)]
        pred = [
            backbone.ResidueAtoms(
                truth[0].n + np.array([0.1, 0.0, 0.0]), truth[0].ca, truth[0].c, truth[0].o
            )
        ]
        assert np.isclose(backbone.l_bb(pred, truth), 0.01 / 4)

    def test_rigid_motion_invariance(self, rng):
        truth = [
            backbone.frame_to_atoms(random_frame(rng), backbone.Psi(1.0, 0.0), GEOM)
            for _ in range(3)
        ]
        pred = [
            backbone.ResidueAtoms(t.n + 0.01 * rng.standard_normal(3), t.ca, t.c, t.o)
            for t in truth
        ]
        base = backbone.l_bb(pred, truth)
        g = random_frame(rng)
        moved = backbone.l_bb(
            [apply_rigid(g, r) for r in pred], [apply_rigid(g, r) for r in truth]
        )
        assert abs(base - moved) < 1e-12

    def test_length_mismatch(self, rng):
        res = [backbone.frame_to_atoms(random_frame(rng), backbone.Psi(1.0, 0.0), GEOM)]
        with pytest.raises(ValueError):
            backbone.l_bb(res, res * 2)


def chain_residues(n, spacing=0.38):
    frames = [Frame(np.eye(3), np.array([spacing * i, 0.0, 0.0])) for i in range(n)]
    return [backbone.frame_to_atoms(f, backbone.Psi(1.0, 0.0), GEOM) for f in frames]


def brute_force_l2d(pred, truth, cutoff=0.6):
    """Exhaustive quadruple enumeration, scalar arithmetic."""
    names = ["n", "ca", "c", "o"]
    n = len(truth)
    total, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            for a in names:
                for b in names:
                    d = np.linalg.norm(
                        getattr(truth[i], a) - getattr(truth[j], b)
                    )
                    if d < cutoff:
                        count += 1
                        dp = np.linalg.norm(
                            getattr(pred[i], a) - getattr(pred[j], b)
                        )
                        total += (d - dp) ** 2
    return total / (count - n)


class TestL2d:
    def test_zero_at_truth(self):
        truth = chain_residues(3)
        assert backbone.l_2d(truth, truth) == 0.0

    def test_cutoff_constant(self):
        assert backbone.CONTACT_CUTOFF_NM == 0.6

    def test_two_residue_toy_against_enumeration(self, rng):
        truth = chain_residues(2, spacing=0.45)
        pred = [truth[0], backbone.ResidueAtoms(
            truth[1].n + np.array([0.0, 0.1, 0.0]), truth[1].ca, truth[1].c, truth[1].o
        )]
        assert np.isclose(
            backbone.l_2d(pred, truth), brute_force_l2d(pred, truth), rtol=1e-12
        )

    def test_random_perturbation_against_enumeration(self, rng):
        truth = chain_residues(4)
        pred = [
            backbone.ResidueAtoms(
                r.n + 0.02 * rng.standard_normal(3),
                r.ca + 0.02 * rng.standard_normal(3),
                r.c + 0.02 * rng.standard_normal(3),
                r.o + 0.02 * rng.standard_normal(3),
            )
            for r in truth
        ]
        assert np.isclose(
            backbone.l_2d(pred, truth), brute_force_l2d(pred, truth), rtol=1e-12
        )

    def test_rigid_motion_invariance(self, rng):
        truth = chain_residues(3)
        pred = [
            backbone.ResidueAtoms(
                r.n + 0.01 * rng.standard_normal(3), r.ca, r.c, r.o
            )
            for r in truth
        ]
        base = backbone.l_2d(pred, truth)
        g = random_frame(rng)
        moved = backbone.l_2d(
            [apply_rigid(g, r) for r in pred], [apply_rigid(g, r) for r in truth]
        )
        assert abs(base - moved) < 1e-12

    def test_far_apart_residues_reduce_to_intra_residue_pairs(self, rng):
        # Intra-residue atom pairs always sit inside the cutoff, so Z stays
        # positive no matter how far residues drift apart.
        far = chain_residues(2, spacing=50.0)
        pred = [
            backbone.ResidueAtoms(
                r.n + 0.03 * rng.standard_normal(3), r.ca, r.c, r.o
            )
            for r in far
        ]
        assert np.isclose(
            backbone.l_2d(pred, far), brute_force_l2d(pred, far), rtol=1e-12
        )
        assert backbone.l_2d(chain_residues(1), chain_residues(1)) == 0.0


class TestDsmLoss:
    def make_pair(self, rng, n=5, t=0.5):
        fs0 = process.center(
            FrameSet(so3.sample_uniform_so3(rng, n), 0.5 * rng.standard_normal((n, 3)))
        )
        fs_t = process.forward_sample(fs0, t, TS, RS, igso3.DEFAULT_CONFIG, rng)
        return fs0, fs_t

    def test_exact_score_gives_zero(self, rng):
        t = 0.5
        fs0, fs_t = self.make_pair(rng, t=t)
        pred = process.score_from_denoised(fs_t, fs0, t, TS, RS)
        loss_r, loss_x = backbone.dsm_loss(pred, fs0, fs_t, t, TS, RS)
        assert loss_r < 1e-20
        assert loss_x < 1e-20

    def test_perturbations_increase_loss(self, rng):
        t = 0.5
        for _ in range(10):
            fs0, fs_t = self.make_pair(rng, t=t)
            rot, trans = process.score_from_denoised(fs_t, fs0, t, TS, RS)
            bump_r = rng.standard_normal(3)
            bump_x = rng.standard_normal(3)
            worse = (rot + fs_t.rotations @ so3.hat(bump_r), trans + bump_x)
            base = backbone.dsm_loss((rot, trans), fs0, fs_t, t, TS, RS)
            bumped = backbone.dsm_loss(worse, fs0, fs_t, t, TS, RS)
            assert bumped[0] > base[0]
            assert bumped[1] > base[1]

    def test_exact_score_gives_zero_with_callers_omega_eps(self, rng):
        # 5e-5 rad from the truth: inside the default omega_eps (1e-4), so
        # only a loss that gates on the caller's 1e-5 sees the same score.
        cfg = igso3.TruncationConfig(omega_eps=1e-5)
        t = 0.5
        fs0 = process.center(FrameSet(so3.sample_uniform_so3(rng, 4),
                                      rng.standard_normal((4, 3))))
        axes = rng.standard_normal((4, 3))
        axes *= 5e-5 / np.linalg.norm(axes, axis=-1, keepdims=True)
        fs_t = FrameSet(fs0.rotations @ so3.exp_so3(so3.hat(axes)), fs0.translations)
        pred = process.score_from_denoised(fs_t, fs0, t, TS, RS, cfg)
        assert np.abs(pred[0]).max() > 0.0
        loss_r, _ = backbone.dsm_loss(pred, fs0, fs_t, t, TS, RS, cfg)
        assert loss_r == 0.0

    def test_rejects_frame_count_mismatch(self, rng):
        fs0, fs_t = self.make_pair(rng, n=3)
        rot, trans = process.score_from_denoised(fs_t, fs0, 0.5, TS, RS)
        with pytest.raises(ValueError, match="frame counts"):
            backbone.dsm_loss((rot[:2], trans[:2]), fs0, fs_t, 0.5, TS, RS)

    def test_trivial_prediction_small_sample(self, rng):
        # Full 1e5-draw calibration lives in the acceptance suite; this is
        # a quick coherence check at one time.
        t = 0.5
        n, draws = 50, 40
        losses = []
        for _ in range(draws):
            fs0, fs_t = self.make_pair(rng, n=n, t=t)
            pred = process.score_from_denoised(fs_t, fs_t, t, TS, RS)
            losses.append(backbone.dsm_loss(pred, fs0, fs_t, t, TS, RS)[0])
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
        frames = [random_frame(rng) for _ in range(5)]
        residues = [
            backbone.frame_to_atoms(f, backbone.Psi.from_angle(rng.uniform(-3, 3)), GEOM)
            for f in frames
        ]
        path = tmp_path / "chain.pdb"
        backbone.write_pdb(str(path), residues)
        parsed = backbone.read_pdb(str(path))
        assert len(parsed) == 5
        for orig, back in zip(residues, parsed):
            assert np.abs(orig.stacked() - back.stacked()).max() < 1e-4 / 2

    def test_fixed_columns(self, tmp_path):
        res = backbone.frame_to_atoms(
            Frame(np.eye(3), np.array([1.0, -2.0, 0.3])), backbone.Psi(1.0, 0.0), GEOM
        )
        path = tmp_path / "one.pdb"
        backbone.write_pdb(str(path), [res])
        line = path.read_text().splitlines()[0]
        assert line[0:6] == "ATOM  "
        assert line[6:11] == "    1"
        assert line[12:16].strip() == "N"
        assert line[17:20] == "GLY"
        assert line[21] == "A"
        assert line[22:26] == "   1"
        assert len(line[30:38]) == 8 and float(line[30:38]) == pytest.approx(
            10.0 * res.n[0], abs=1e-3
        )
        assert line[76:78].strip() == "N"

    def test_parse_back_frames(self, rng, tmp_path):
        frames = [random_frame(rng) for _ in range(8)]
        residues = [
            backbone.frame_to_atoms(f, backbone.Psi(1.0, 0.0), GEOM) for f in frames
        ]
        path = tmp_path / "frames.pdb"
        backbone.write_pdb(str(path), residues)
        for frame, res in zip(frames, backbone.read_pdb(str(path))):
            rec = backbone.atom2frame(res)
            assert np.abs(rec.rotation - frame.rotation).max() < 1e-3
