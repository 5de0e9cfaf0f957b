import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from se3diffuse import backbone, cli, process, so3, toy


def run(args):
    return cli.main(args)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1)


class TestIGSO3Commands:
    def test_eval_density_integrates_to_one(self, tmp_path):
        out = tmp_path / "eval.csv"
        assert run(["igso3", "eval", "--t", "0.5", "--grid", "1000",
                    "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.shape == (1000, 3)
        omega, f = data[:, 0], data[:, 1]
        integral = np.trapezoid(np.clip(f, 0, None) * (1 - np.cos(omega)) / np.pi, omega)
        assert abs(integral - 1.0) < 1e-4
        assert os.path.exists(str(out) + ".manifest.json")

    def test_sample_flat_time_matches_uniform(self, tmp_path, rng):
        out = tmp_path / "samp.csv"
        assert run(["igso3", "sample", "--t", "50", "--n", "100000",
                    "--seed", "3", "--out", str(out)]) == 0
        quats = read_csv(out)
        angles = so3.rotation_angle(so3.rotation_from_quat(quats))
        ref = so3.rotation_angle(so3.sample_uniform_so3(rng, 100_000))
        assert stats.ks_2samp(angles, ref).statistic < 0.02

    def test_missing_t_is_usage_error(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run(["igso3", "eval", "--grid", "100", "--out", str(out)]) == 1
        assert not out.exists()

    def test_score_output_schema(self, tmp_path):
        out = tmp_path / "score.csv"
        assert run(["igso3", "score", "--t", "0.5", "--n", "100",
                    "--seed", "1", "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.shape == (100, 4)
        assert np.all(data[:, 0] >= 0) and np.all(data[:, 0] <= np.pi)

    def test_below_t_min_is_domain_error(self, tmp_path):
        out = tmp_path / "bad.csv"
        assert run(["igso3", "eval", "--t", "0.001", "--out", str(out)]) == 2


class TestScheduleCommand:
    def test_default_endpoints(self, tmp_path):
        out = tmp_path / "sched.csv"
        assert run(["schedule", "--out", str(out)]) == 0
        data = read_csv(out)
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["s", "beta", "G_x", "trans_var", "sigma_r", "rot_var", "g_r"]
        first, last = data[0], data[-1]
        assert first[1] == 0.1 and first[4] == 0.1
        assert last[1] == 20.0 and last[5] == 2.25

    def test_log_variance_dominates_linear_at_midpoint(self, tmp_path):
        out_log = tmp_path / "log.csv"
        out_lin = tmp_path / "lin.csv"
        run(["schedule", "--kind", "logarithmic", "--points", "3", "--out", str(out_log)])
        run(["schedule", "--kind", "linear", "--points", "3", "--out", str(out_lin)])
        v_log = read_csv(out_log)[1, 5]
        v_lin = read_csv(out_lin)[1, 5]
        assert v_log >= v_lin

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 7, "beta_max": 15.0}))
        out = tmp_path / "s.csv"
        assert run(["schedule", "--config", str(cfg), "--beta-max", "18.0",
                    "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.shape[0] == 7  # from config file
        assert data[-1, 1] == 18.0  # flag wins over config

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["schedule", "--config", str(cfg), "--out",
                    str(tmp_path / "x.csv")]) == 1


class TestToyCommands:
    def test_reference_defaults(self):
        assert cli.TOY_DEFAULTS["paths"] == 5000
        assert cli.TOY_DEFAULTS["T"] == 4.0
        assert cli.TOY_DEFAULTS["steps"] == 200
        assert cli.TOY_DEFAULTS["atoms"] == 3

    def test_forward_reverse_compare(self, tmp_path):
        fwd, rev = tmp_path / "fwd", tmp_path / "rev"
        base = ["--atoms", "3", "--paths", "60", "--T", "2.0", "--steps", "8"]
        assert run(["toy", "forward", *base, "--seed", "1", "--out-dir", str(fwd)]) == 0
        assert run(["toy", "reverse", *base, "--seed", "2", "--out-dir", str(rev)]) == 0
        for d in (fwd, rev):
            assert (d / "manifest.json").exists()
            assert len(list(d.glob("t_*.csv"))) == 8
            data = read_csv(d / "t_0000.csv")
            assert data.shape == (60, 8)  # id, quaternion, 3 atom angles
        out = tmp_path / "cmp.json"
        assert run(["toy", "compare", "--run-a", str(fwd), "--run-b", str(rev),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["ks"]) == 8
        assert report["max_ks"] == max(report["ks"][1:])  # t = 0 left out

    def test_compare_with_itself_is_zero(self, tmp_path):
        fwd = tmp_path / "fwd"
        run(["toy", "forward", "--paths", "40", "--T", "1.0", "--steps", "5",
             "--seed", "1", "--out-dir", str(fwd)])
        out = tmp_path / "self.json"
        assert run(["toy", "compare", "--run-a", str(fwd), "--run-b", str(fwd),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_ks"] == 0.0

    def test_mismatched_grids_error(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["toy", "forward", "--paths", "20", "--T", "1.0", "--steps", "5",
             "--seed", "1", "--out-dir", str(a)])
        run(["toy", "forward", "--paths", "20", "--T", "2.0", "--steps", "5",
             "--seed", "1", "--out-dir", str(b)])
        assert run(["toy", "compare", "--run-a", str(a), "--run-b", str(b),
                    "--out", str(tmp_path / "no.json")]) == 1


class TestRejectedValues:
    @pytest.mark.parametrize("args", [
        ["toy", "forward", "--steps", "1", "--paths", "5", "--out-dir", "OUT/toy"],
        ["toy", "reverse", "--paths", "0", "--steps", "3", "--out-dir", "OUT/toy"],
        ["toy", "forward", "--atoms", "0", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["sample-backbones", "--n-steps", "1", "--out", "OUT/bb"],
        ["sample-backbones", "--zeta", "2", "--out", "OUT/bb"],
        ["igso3", "eval", "--t", "0.5", "--grid", "1", "--out", "OUT/e.csv"],
        ["igso3", "sample", "--t", "0.5", "--terms", "0", "--out", "OUT/q.csv"],
        ["schedule", "--beta-min", "5", "--beta-max", "1", "--out", "OUT/s.csv"],
        ["schedule", "--beta-max", "inf", "--out", "OUT/s.csv"],
        ["schedule", "--points", "-1", "--out", "OUT/s.csv"],
        ["schedule", "--sigma-max", "1000", "--out", "OUT/s.csv"],
        ["igso3", "sample", "--t", "0.5", "--n", "-1", "--out", "OUT/q.csv"],
        ["igso3", "eval", "--t", "0.5", "--seed", "-1", "--out", "OUT/e.csv"],
        ["toy", "forward", "--T", "nan", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["toy", "forward", "--T", "inf", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["toy", "forward", "--atom-seed", "-1", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["sample-backbones", "--n-residues", "0", "--out", "OUT/bb"],
        ["sample-backbones", "--n-residues", "-3", "--out", "OUT/bb"],
        ["sample-backbones", "--init-seed", "-1", "--out", "OUT/bb"],
    ])
    def test_value_rejected_by_config_is_usage_error(self, tmp_path, capsys, args):
        assert run([a.replace("OUT", str(tmp_path)) for a in args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_domain_error(self, tmp_path, capsys, t):
        assert run(["igso3", "eval", "--t", t, "--out", str(tmp_path / "e.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical-domain error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("config", [
        {"n_steps": "x"},
        {"n_residues": 2.5},
        {"trajectory": "no"},
        {"seed": True},
        {"out": 5},
        [1, 2],
    ])
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        if isinstance(config, dict):
            config = {"n_residues": 3, "n_steps": 3, "out": str(tmp_path / "bb"),
                      **config}
        path.write_text(json.dumps(config))
        assert run(["sample-backbones", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_int_for_float_is_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta_max": 15, "points": 3}))
        out = tmp_path / "s.csv"
        assert run(["schedule", "--config", str(path), "--out", str(out)]) == 0
        assert read_csv(out)[-1, 1] == 15.0

    def test_non_finite_walk_is_domain_error(self, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise FloatingPointError("non-finite state at step 3")

        monkeypatch.setattr(process, "reverse_walk", diverge)
        assert run(["sample-backbones", "--n-residues", "3", "--n-steps", "5",
                    "--out", str(tmp_path / "bb")]) == 2
        err = capsys.readouterr().err
        assert err == "numerical-domain error: non-finite state at step 3\n"


_INT = ("-1", "0")
_FLOAT = ("-1", "0", "nan", "inf")
_IGSO3_FLAGS = {"--t": _FLOAT, "--terms": _INT, "--grid": _INT, "--n": _INT,
                "--seed": _INT}
_TOY_FLAGS = {"--atoms": _INT, "--paths": _INT, "--T": _FLOAT, "--steps": _INT,
              "--seed": _INT, "--atom-seed": _INT}
_TOY_BASE = ["--atoms", "2", "--paths", "5", "--T", "1", "--steps", "3",
             "--out-dir", "OUT/run"]
# Each command at a tiny size, with the flags it takes and their boundary values.
_FUZZ = [
    (["igso3", cmd, "--t", "0.5", "--grid", "20", "--n", "4", "--out", "OUT/o.csv"],
     _IGSO3_FLAGS)
    for cmd in ("eval", "sample", "score")
] + [
    (["schedule", "--points", "5", "--out", "OUT/s.csv"],
     {"--beta-min": _FLOAT, "--beta-max": _FLOAT, "--sigma-min": _FLOAT,
      "--sigma-max": _FLOAT, "--points": _INT}),
    (["toy", "forward", *_TOY_BASE], _TOY_FLAGS),
    (["toy", "reverse", *_TOY_BASE], _TOY_FLAGS),
    (["sample-backbones", "--n-residues", "3", "--n-steps", "3", "--out", "OUT/bb"],
     {"--n-residues": _INT, "--n-steps": _INT, "--eps": _FLOAT, "--zeta": _FLOAT,
      "--seed": _INT, "--init-seed": _INT}),
]


def _fuzz_cases():
    for base, flags in _FUZZ:
        for flag, values in flags.items():
            for value in values:
                yield pytest.param(base, flag, value,
                                   id=f"{base[0]}-{base[1]}{flag}={value}")


class TestBoundaryValues:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("base,flag,value", list(_fuzz_cases()))
    def test_exit_code_without_traceback(self, tmp_path, capsys, base, flag, value):
        argv = [a.replace("OUT", str(tmp_path)) for a in base]
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        code = run(argv)  # an escaping exception would be a traceback
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert err.count("\n") == (code != 0)


class TestMalformedRun:
    @pytest.fixture
    def runs(self, tmp_path):
        base = ["--paths", "40", "--T", "1.0", "--steps", "5", "--seed", "1"]
        for d in ("a", "b"):
            assert run(["toy", "forward", *base, "--out-dir", str(tmp_path / d)]) == 0
        return tmp_path

    def compare(self, root):
        return run(["toy", "compare", "--run-a", str(root / "a"), "--run-b",
                    str(root / "b"), "--out", str(root / "ks.json")])

    def assert_one_line_naming(self, capsys, path):
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("size", [300, 0])
    def test_truncated_time_file(self, runs, capsys, monkeypatch, cpus, size):
        _cpus(monkeypatch, cpus)
        bad = runs / "b" / "t_0003.csv"
        bad.write_bytes(bad.read_bytes()[:size])
        assert self.compare(runs) == 1
        self.assert_one_line_naming(capsys, bad)

    def test_truncated_manifest(self, runs, capsys):
        bad = runs / "a" / "manifest.json"
        bad.write_bytes(bad.read_bytes()[:40])
        assert self.compare(runs) == 1
        self.assert_one_line_naming(capsys, bad)

    def test_manifest_without_grid_times(self, runs, capsys):
        bad = runs / "b" / "manifest.json"
        manifest = json.loads(bad.read_text())
        del manifest["config"]["grid_times"]
        bad.write_text(json.dumps(manifest))
        assert self.compare(runs) == 1
        self.assert_one_line_naming(capsys, bad)

    def test_empty_time_grids(self, runs, capsys):
        for d in ("a", "b"):
            path = runs / d / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["config"]["grid_times"] = []
            path.write_text(json.dumps(manifest))
        assert self.compare(runs) == 1
        err = capsys.readouterr().err
        assert err == "usage error: runs need at least two recorded times\n"


class TestSampleBackbones:
    def test_reference_defaults(self):
        assert cli.BACKBONE_DEFAULTS["zeta"] == 0.1
        assert cli.BACKBONE_DEFAULTS["n_steps"] == 500

    def test_zero_noise_is_seed_independent(self, tmp_path):
        args = ["sample-backbones", "--n-residues", "6", "--n-steps", "25",
                "--zeta", "0", "--score", "fixed-target"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run([*args, "--seed", "11", "--out", str(out_a)]) == 0
        assert run([*args, "--seed", "99", "--out", str(out_b)]) == 0
        assert (tmp_path / "a.pdb").read_bytes() == (tmp_path / "b.pdb").read_bytes()

    def test_pdb_parse_back_matches_trajectory(self, tmp_path):
        out = tmp_path / "run"
        assert run(["sample-backbones", "--n-residues", "5", "--n-steps", "30",
                    "--zeta", "0.5", "--seed", "4", "--out", str(out),
                    "--trajectory"]) == 0
        frames = backbone.atom2frame(backbone.read_pdb(str(tmp_path / "run.pdb")))
        rows = np.loadtxt(tmp_path / "run_trajectory.csv", delimiter=",", skiprows=1)
        final = rows[rows[:, 0] == rows[:, 0].min()]
        for got, row in zip(frames.rotations, final):
            expected = so3.rotation_from_quat(row[3:7])
            assert np.abs(got - expected).max() < 1e-3

    def test_prior_only_runs(self, tmp_path):
        out = tmp_path / "prior"
        assert run(["sample-backbones", "--n-residues", "4", "--n-steps", "10",
                    "--zeta", "1.0", "--seed", "2", "--score", "prior-only",
                    "--out", str(out)]) == 0
        assert (tmp_path / "prior.pdb").exists()


class TestReproducibility:
    @pytest.mark.parametrize(
        "args,outputs",
        [
            (["schedule", "--points", "11", "--out", "OUT/s.csv"], ["OUT/s.csv"]),
            (
                ["igso3", "sample", "--t", "0.7", "--n", "200", "--seed", "5",
                 "--out", "OUT/q.csv"],
                ["OUT/q.csv"],
            ),
            (
                ["toy", "forward", "--paths", "25", "--T", "1.0", "--steps", "4",
                 "--seed", "9", "--out-dir", "OUT/toy"],
                ["OUT/toy/t_0000.csv", "OUT/toy/t_0003.csv"],
            ),
            (
                ["sample-backbones", "--n-residues", "4", "--n-steps", "12",
                 "--zeta", "0.3", "--seed", "7", "--out", "OUT/bb",
                 "--trajectory"],
                ["OUT/bb.pdb", "OUT/bb_trajectory.csv"],
            ),
        ],
    )
    def test_identical_config_gives_identical_bytes(self, tmp_path, args, outputs):
        snapshots = []
        for rep in ("one", "two"):
            root = tmp_path / rep
            root.mkdir()
            sub = [a.replace("OUT", str(root)) for a in args]
            assert run(sub) == 0
            snapshots.append(
                [open(o.replace("OUT", str(root)), "rb").read() for o in outputs]
            )
        assert snapshots[0] == snapshots[1]

    def test_manifest_written_with_config_snapshot(self, tmp_path):
        out = tmp_path / "s.csv"
        run(["schedule", "--points", "5", "--out", str(out)])
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["command"] == "schedule"
        assert manifest["config"]["points"] == 5
        assert manifest["config"]["beta_min"] == 0.1
        assert manifest["outputs"] == [str(out)]
        assert manifest["duration_s"] >= 0


class TestSchemas:
    def test_every_emitted_file_parses(self, tmp_path):
        run(["igso3", "eval", "--t", "0.5", "--grid", "50",
             "--out", str(tmp_path / "e.csv")])
        run(["igso3", "sample", "--t", "0.5", "--n", "20", "--seed", "0",
             "--out", str(tmp_path / "q.csv")])
        run(["igso3", "score", "--t", "0.5", "--n", "20", "--seed", "0",
             "--out", str(tmp_path / "sc.csv")])
        run(["schedule", "--points", "5", "--out", str(tmp_path / "sch.csv")])
        run(["toy", "forward", "--paths", "10", "--T", "1.0", "--steps", "3",
             "--seed", "0", "--out-dir", str(tmp_path / "toy")])
        run(["sample-backbones", "--n-residues", "3", "--n-steps", "8",
             "--zeta", "0.2", "--seed", "0", "--out", str(tmp_path / "bb"),
             "--trajectory"])
        for csv in tmp_path.rglob("*.csv"):
            data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(data).all()
        for manifest in tmp_path.rglob("*manifest*.json"):
            parsed = json.loads(manifest.read_text())
            assert {"command", "config", "seed", "outputs", "duration_s"} <= set(parsed)
        parsed = backbone.read_pdb(str(tmp_path / "bb.pdb"))
        assert len(parsed) == 3


def _edge_rotations(rng, n):
    """Random rotations plus two whose quaternions hold subnormals and -0.0."""
    rots = so3.sample_uniform_so3(rng, n)
    rots[0] = so3.exp_so3(so3.hat(np.array([1e-310, -3e-320, 0.0])))
    rots[1] = np.eye(3)
    rots[1, 1, 0] = -0.0
    return rots


def _per_value_trajectory(path, traj):
    """The trajectory writer formatted one value and one state at a time."""
    with open(path, "w") as fh:
        fh.write("t,chain_id,residue_index,a,b,c,d,x,y,z\n")
        for t, state in traj:
            quats = so3.quat_from_rotation(state.rotations)
            for i in range(len(state)):
                row = [cli._fmt(t), "0", str(i)]
                row += [cli._fmt(v) for v in quats[i]]
                row += [cli._fmt(v) for v in state.translations[i]]
                fh.write(",".join(row) + "\n")


def _per_value_run_dir(out_dir, marginals, target):
    """The toy run-directory writer formatted one value and one time at a time."""
    os.makedirs(out_dir)
    header = "path_id,a,b,c,d," + ",".join(
        f"angle_to_atom_{k}" for k in range(len(target.weights))
    )
    for idx, t in enumerate(sorted(marginals)):
        samples = marginals[t]
        quats = so3.quat_from_rotation(samples)
        angles = so3.rotation_angle(so3.transpose(target.atoms)[:, None] @ samples[None])
        with open(os.path.join(out_dir, f"t_{idx:04d}.csv"), "w") as fh:
            fh.write(header + "\n")
            for pid in range(samples.shape[0]):
                vals = [str(pid)] + [cli._fmt(v) for v in quats[pid]]
                vals += [cli._fmt(angles[k, pid]) for k in range(angles.shape[0])]
                fh.write(",".join(vals) + "\n")


class TestArtifactWriters:
    def test_rows_match_per_value_format(self):
        values = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072014e-308],
                           [1e-310, 1 / 3, -1e300, 0.1 + 0.2]])
        expected = "".join(
            f"id{i}," + ",".join(cli._fmt(v) for v in row) + "\n"
            for i, row in enumerate(values)
        )
        assert cli._csv_rows(values, ["id0", "id1"]) == expected
        assert "-0.0," in expected and "5e-324" in expected

    def test_trajectory_bytes_unchanged(self, tmp_path, rng):
        traj = []
        for t in (1.0, 0.5, 0.01):
            translations = rng.standard_normal((5, 3))
            translations[0] = [-0.0, 5e-324, -1e-310]
            traj.append((t, process.FrameSet(_edge_rotations(rng, 5), translations)))
        cli._write_trajectory(str(tmp_path / "new.csv"), traj)
        _per_value_trajectory(str(tmp_path / "old.csv"), traj)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b",-0.0," in new and b"e-311" in new and b"5e-324" in new

    def test_toy_run_dir_bytes_unchanged(self, tmp_path, rng):
        target = toy.random_target(3, seed=0)
        marginals = {t: _edge_rotations(rng, 6) for t in (0.0, 0.25, 0.5)}
        marginals[0.0][2] = target.atoms[1]  # angle 0 to one atom
        cli._toy_run_dir_write(str(tmp_path / "new"), marginals, target)
        _per_value_run_dir(str(tmp_path / "old"), marginals, target)
        for idx in range(3):
            name = f"t_{idx:04d}.csv"
            new = (tmp_path / "new" / name).read_bytes()
            assert new == (tmp_path / "old" / name).read_bytes()
            assert b",-0.0," in new and b"e-311" in new


def _python(code):
    """Exit code of ``code`` run by a fresh interpreter that finds this package."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode


def test_cli_import_does_not_load_scipy():
    assert _python("import sys, se3diffuse.cli; sys.exit('scipy' in sys.modules)") == 0


def test_cli_import_does_not_load_multiprocessing():
    code = "import sys, se3diffuse.cli; sys.exit('multiprocessing' in sys.modules)"
    assert _python(code) == 0


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestFanOut:
    def test_results_in_index_order_from_workers(self, monkeypatch):
        _cpus(monkeypatch, 2)

        def square(i):  # the first result is the last to be ready
            if i == 0:
                time.sleep(0.2)
            return i * i

        assert cli._fan_out(square, 50) == [i * i for i in range(50)]
        pids = set(cli._fan_out(lambda i: os.getpid(), 8))
        assert os.getpid() not in pids and len(pids) <= 2

    @pytest.mark.parametrize("cpus,methods", [(1, None), (2, ["spawn"])])
    def test_serial_without_cpus_or_fork(self, monkeypatch, cpus, methods):
        import multiprocessing

        _cpus(monkeypatch, cpus)
        if methods is not None:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: methods)
        assert cli._fan_out(lambda i: os.getpid(), 4) == [os.getpid()] * 4

    def test_killed_worker_raises(self):
        code = (
            "import os, signal, sys\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from se3diffuse import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def fn(i):\n"
            "    if i == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return i\n"
            "try:\n"
            "    cli._fan_out(fn, 20)\n"
            "except BrokenProcessPool:\n"
            "    sys.exit(7)\n"
        )
        assert _python(code) == 7

    def test_toy_output_independent_of_worker_count(self, tmp_path, monkeypatch):
        base = ["--paths", "30", "--T", "1.0", "--steps", "6", "--seed", "3"]
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            root = tmp_path / str(cpus)
            assert run(["toy", "forward", *base, "--out-dir", str(root / "fwd")]) == 0
            assert run(["toy", "reverse", *base, "--out-dir", str(root / "rev")]) == 0
            assert run(["toy", "compare", "--run-a", str(root / "fwd"), "--run-b",
                        str(root / "rev"), "--out", str(root / "ks.json")]) == 0
        one, two = tmp_path / "1", tmp_path / "2"
        for d in ("fwd", "rev"):
            names = sorted(p.name for p in (one / d).glob("t_*.csv"))
            assert len(names) == 6
            for name in names:
                assert (one / d / name).read_bytes() == (two / d / name).read_bytes()
            manifests = [json.loads((r / d / "manifest.json").read_text())
                         for r in (one, two)]
            for m in manifests:
                m.pop("duration_s")
                m["outputs"] = [Path(o).name for o in m["outputs"]]
                m["config"].pop("out_dir")
            assert manifests[0] == manifests[1]
        assert (one / "ks.json").read_bytes() == (two / "ks.json").read_bytes()

    def test_worker_io_error_exits_3(self, tmp_path, monkeypatch, capsys):
        errors = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            (out / "t_0003.csv").mkdir(parents=True)
            assert run(["toy", "forward", "--paths", "10", "--T", "1.0", "--steps", "6",
                        "--out-dir", str(out)]) == 3
            errors.append(capsys.readouterr().err.replace(str(out), "OUT"))
        assert errors[0] == errors[1]
        assert errors[0].startswith("i/o error: ") and errors[0].count("\n") == 1
