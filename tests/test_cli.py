import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import se3diffuse
from se3diffuse import backbone, cli, commands, igso3, process, schedules, so3, toy


def run(args):
    return cli.main(args)


# Residues of the trajectory-writer tests, and the whole states of one block.
_TRAJ_RESIDUES = 300
_TRAJ_BLOCK = commands._BLOCK_ROWS // _TRAJ_RESIDUES


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

    @pytest.mark.parametrize("t", [2.25, 8.5])
    def test_eval_rows_are_one_evaluation(self, tmp_path, t):
        # 2049 rows: the last block of the writer is a single row.
        out = tmp_path / "eval.csv"
        assert run(["igso3", "eval", "--t", str(t), "--grid", "2049", "--out", str(out)]) == 0
        grid = np.linspace(0.0, np.pi, 2049)
        f, df = igso3.f_df(grid, t)
        rows = zip(grid.tolist(), f.tolist(), df.tolist())
        assert out.read_text().splitlines()[1:] == [",".join(map(repr, row)) for row in rows]

    def test_write_failing_after_a_block_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        quats, calls = so3.quat_from_rotation, []

        def disk_full(r):
            calls.append(1)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return quats(r)

        monkeypatch.setattr(so3, "quat_from_rotation", disk_full)
        out = tmp_path / "sample.csv"
        assert run(["igso3", "sample", "--t", "0.5", "--n", "5000", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert len(calls) == 2 and list(tmp_path.iterdir()) == []

    def test_missing_t_is_usage_error(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run(["igso3", "eval", "--grid", "100", "--out", str(out)]) == 1
        assert not out.exists()

    def test_series_terms_are_not_an_option(self, tmp_path, capsys):
        # The series above t = 8 sums a fixed number of terms.
        out = tmp_path / "never.csv"
        assert run(["igso3", "eval", "--t", "10", "--terms", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"terms": 5}))
        assert run(["igso3", "eval", "--t", "10", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: unknown config keys: ['terms']\n"
        assert not out.exists()

    def test_huge_time_is_the_flat_density(self, tmp_path):
        # l(l+1) t overflows for l >= 1 here; the CLI raises on any overflow.
        out = tmp_path / "eval.csv"
        assert run(["igso3", "eval", "--t", "1e308", "--grid", "50", "--out", str(out)]) == 0
        data = read_csv(out)
        assert (data[:, 1] == 1.0).all() and (data[:, 2] == 0.0).all()

    def test_score_output_schema(self, tmp_path):
        out = tmp_path / "score.csv"
        assert run(["igso3", "score", "--t", "0.5", "--n", "100",
                    "--seed", "1", "--out", str(out)]) == 0
        data = read_csv(out)
        assert data.shape == (100, 4)
        assert np.all(data[:, 0] >= 0) and np.all(data[:, 0] <= np.pi)

    def test_score_rows_are_library_coefficients(self, tmp_path):
        out = tmp_path / "score.csv"
        assert run(["igso3", "score", "--t", "0.5", "--n", "100",
                    "--seed", "1", "--out", str(out)]) == 0
        rng = np.random.default_rng(1)
        base = np.broadcast_to(np.eye(3), (100, 3, 3))
        samples = igso3.sample_igso3(base, 0.5, rng)
        coeffs = igso3.conditional_score(base, samples, 0.5)
        assert np.array_equal(read_csv(out)[:, 1:], coeffs)

    @pytest.mark.parametrize("cmd", ["eval", "sample", "score"])
    def test_below_t_min_is_domain_error(self, tmp_path, cmd):
        out = tmp_path / "bad.csv"
        assert run(["igso3", cmd, "--t", "0.005", "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == []


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
        assert cli.OPTIONS["toy forward"]["paths"][1] == 5000
        assert cli.OPTIONS["toy forward"]["T"][1] == 4.0
        assert cli.OPTIONS["toy forward"]["steps"][1] == 200
        assert cli.OPTIONS["toy forward"]["atoms"][1] == 3

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

    def test_reverse_below_t_min_fails_before_walking(self, tmp_path, capsys):
        # Its last score evaluation would be at T / (steps - 1) = 4 / 401.
        grid = ["--paths", "5", "--T", "4", "--steps", "402"]
        assert run(["toy", "reverse", *grid, "--out-dir", str(tmp_path / "rev")]) == 2
        assert capsys.readouterr().err == (
            f"numerical-domain error: diffusion time {4 / 401} outside [t_min=0.01, inf)\n")
        assert list(tmp_path.iterdir()) == []
        # The forward walk evaluates no IGSO3 and takes the same grid.
        assert run(["toy", "forward", *grid, "--out-dir", str(tmp_path / "fwd")]) == 0

    def test_compare_with_itself_is_zero(self, tmp_path):
        fwd = tmp_path / "fwd"
        run(["toy", "forward", "--paths", "40", "--T", "1.0", "--steps", "5",
             "--seed", "1", "--out-dir", str(fwd)])
        out = tmp_path / "self.json"
        assert run(["toy", "compare", "--run-a", str(fwd), "--run-b", str(fwd),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["max_ks"] == 0.0

    @pytest.mark.parametrize("t_a,t_b", [("1.0", "2.0"), ("1e-20", "2e-20"),
                                         ("1e6", "1000000.0000000001")])
    def test_mismatched_grids_error(self, tmp_path, capsys, t_a, t_b):
        # Grids are compared exactly: no tolerance joins grids of tiny times,
        # and none is lost below the spacing of large ones.
        a, b = tmp_path / "a", tmp_path / "b"
        for d, t in ((a, t_a), (b, t_b)):
            assert run(["toy", "forward", "--paths", "5", "--T", t, "--steps", "3",
                        "--seed", "1", "--out-dir", str(d)]) == 0
        capsys.readouterr()
        out = tmp_path / "no.json"
        assert run(["toy", "compare", "--run-a", str(a), "--run-b", str(b),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: runs were recorded on different time grids\n"
        assert not out.exists()

    @pytest.mark.parametrize("t", ["1e-20", "1e6"])
    def test_same_command_line_twice_compares_cleanly(self, tmp_path, t):
        for d in ("a", "b"):
            assert run(["toy", "forward", "--paths", "5", "--T", t, "--steps", "3",
                        "--seed", "1", "--out-dir", str(tmp_path / d)]) == 0
        out = tmp_path / "ks.json"
        assert run(["toy", "compare", "--run-a", str(tmp_path / "a"),
                    "--run-b", str(tmp_path / "b"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ks"] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("other", [["--atoms", "2"], ["--atom-seed", "1"]])
    def test_different_atoms_error(self, tmp_path, capsys, other):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["--paths", "20", "--T", "1.0", "--steps", "5", "--seed", "1"]
        assert run(["toy", "forward", *base, "--out-dir", str(a)]) == 0
        assert run(["toy", "forward", *base, *other, "--out-dir", str(b)]) == 0
        capsys.readouterr()
        out = tmp_path / "no.json"
        assert run(["toy", "compare", "--run-a", str(a), "--run-b", str(b),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: runs were recorded for different atoms\n"
        assert not out.exists()


class TestRejectedValues:
    @pytest.mark.parametrize("args", [
        ["toy", "forward", "--steps", "1", "--paths", "5", "--out-dir", "OUT/toy"],
        ["toy", "reverse", "--paths", "0", "--steps", "3", "--out-dir", "OUT/toy"],
        ["toy", "forward", "--atoms", "0", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["sample-backbones", "--n-steps", "1", "--out", "OUT/bb"],
        ["sample-backbones", "--zeta", "2", "--out", "OUT/bb"],
        # FrameDiff's grid runs from t = 1 down to --eps, inside (0, 1].
        *(["sample-backbones", "--eps", eps, "--out", "OUT/bb"]
          for eps in ("0", "1", "2", "-0.5", "nan")),
        ["igso3", "eval", "--t", "0.5", "--grid", "1", "--out", "OUT/e.csv"],
        ["schedule", "--beta-min", "5", "--beta-max", "1", "--out", "OUT/s.csv"],
        ["schedule", "--beta-max", "inf", "--out", "OUT/s.csv"],
        ["schedule", "--points", "-1", "--out", "OUT/s.csv"],
        ["schedule", "--sigma-max", "1000", "--out", "OUT/s.csv"],
        ["igso3", "sample", "--t", "0.5", "--n", "-1", "--out", "OUT/q.csv"],
        ["igso3", "sample", "--t", "0.5", "--seed", "-1", "--out", "OUT/q.csv"],
        ["toy", "forward", "--T", "nan", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        # T / (steps - 1) is subnormal: the grid would hold t = 0 twice.
        ["toy", "forward", "--T", "5e-324", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["toy", "forward", "--T", "inf", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["toy", "forward", "--atom-seed", "-1", "--paths", "5", "--steps", "3",
         "--out-dir", "OUT/toy"],
        ["sample-backbones", "--n-residues", "0", "--out", "OUT/bb"],
        ["sample-backbones", "--n-residues", "-3", "--out", "OUT/bb"],
        ["sample-backbones", "--init-seed", "-1", "--out", "OUT/bb"],
        # Counts above cli.MAX_COUNT, refused before numpy could raise on an
        # array past 2**63 bytes.
        ["schedule", "--points", "9223372036854775808", "--out", "OUT/s.csv"],
        ["igso3", "eval", "--t", "0.5", "--grid", "100000000000000001", "--out", "OUT/e.csv"],
        ["igso3", "score", "--t", "0.5", "--n", "1152921504606846976", "--out", "OUT/g.csv"],
        ["toy", "forward", "--paths", "1152921504606846976", "--out-dir", "OUT/toy"],
        ["toy", "reverse", "--paths", "9223372036854775808", "--out-dir", "OUT/toy"],
        ["toy", "forward", "--steps", "1152921504606846976", "--out-dir", "OUT/toy"],
        ["sample-backbones", "--n-residues", "1152921504606846976", "--out", "OUT/bb"],
        ["sample-backbones", "--n-steps", "9223372036854775808", "--out", "OUT/bb"],
    ])
    def test_value_rejected_by_config_is_usage_error(self, tmp_path, capsys, args):
        assert run([a.replace("OUT", str(tmp_path)) for a in args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())
        if "--eps" in args:  # the plan's message names the flags behind its grid
            eps = float(args[args.index("--eps") + 1])
            assert err.endswith(f" (eps={eps!r}, n_steps=500)\n")

    @pytest.mark.parametrize("args", [
        ["igso3", "eval", "--t", "0.5", "--grid", "100000000000000000", "--out", "OUT/e.csv"],
        ["schedule", "--points", "100000000000000000", "--out", "OUT/s.csv"],
    ])
    def test_refused_allocation_is_one_line(self, tmp_path, capsys, args):
        # 8e17 bytes, past any x86-64 address space: refused at once under
        # every overcommit policy.
        assert run([a.replace("OUT", str(tmp_path)) for a in args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_count_ceiling_holds_in_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"points": 2**63}))
        assert run(["schedule", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == (
            f"usage error: points must be <= {cli.MAX_COUNT}, got {2**63}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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

    @pytest.mark.parametrize("key,kind", [("points", "int"), ("out", "str")])
    def test_config_null_is_type_error(self, tmp_path, capsys, key, kind):
        # A null is a value of the wrong type, for an option with a default
        # and for a required one alike; only an option given nowhere is missing.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"out": str(tmp_path / "s.csv"), key: None}))
        assert run(["schedule", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"usage error: {key} must be of type {kind}, got None\n"
        path.write_text(json.dumps({"points": 3}))
        assert run(["schedule", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "usage error: missing required options: ['out']\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_int_for_float_is_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"beta_max": 15, "points": 3}))
        out = tmp_path / "s.csv"
        assert run(["schedule", "--config", str(path), "--out", str(out)]) == 0
        assert read_csv(out)[-1, 1] == 15.0

    @pytest.mark.parametrize("trajectory", [[], ["--trajectory"]],
                             ids=["pdb-only", "trajectory"])
    def test_non_finite_walk_is_domain_error(self, tmp_path, capsys, monkeypatch,
                                             trajectory):
        # The walk diverges after the trajectory writer's first block.
        fail_at = _TRAJ_BLOCK + 5
        target_score = process.fixed_target_score

        def diverging_score(*args):
            score, calls = target_score(*args), []

            def field(level, fs):
                calls.append(level)
                rot, trans = score(level, fs)
                return rot, trans * (np.nan if len(calls) >= fail_at else 1.0)
            return field

        monkeypatch.setattr(process, "fixed_target_score", diverging_score)
        assert run(["sample-backbones", "--n-residues", str(_TRAJ_RESIDUES), "--n-steps",
                    str(2 * fail_at), "--out", str(tmp_path / "bb"), *trajectory]) == 2
        err = capsys.readouterr().err
        assert err == f"numerical-domain error: non-finite state at step {fail_at}\n"
        assert list(tmp_path.iterdir()) == []  # no partial trajectory, no PDB


_INT = ("-1", "0", "1152921504606846976", "9223372036854775808")
_FLOAT = ("-1", "0", "nan", "inf", "1e308")
_IGSO3_FLAGS = {"--t": _FLOAT, "--n": _INT, "--seed": _INT}
_EVAL_FLAGS = {"--t": _FLOAT, "--grid": _INT}
_TOY_FLAGS = {"--atoms": _INT, "--paths": _INT, "--T": _FLOAT, "--steps": _INT,
              "--seed": _INT, "--atom-seed": _INT}
_TOY_BASE = ["--atoms", "2", "--paths", "5", "--T", "1", "--steps", "3",
             "--out-dir", "OUT/run"]
# Each command at a tiny size, with the flags it takes and their boundary values.
_FUZZ = [
    (["igso3", "eval", "--t", "0.5", "--grid", "20", "--out", "OUT/o.csv"], _EVAL_FLAGS)
] + [
    (["igso3", cmd, "--t", "0.5", "--n", "4", "--out", "OUT/o.csv"],
     _IGSO3_FLAGS)
    for cmd in ("sample", "score")
] + [
    (["schedule", *kind, "--points", "5", "--out", "OUT/s.csv"],
     {"--beta-min": _FLOAT, "--beta-max": _FLOAT, "--sigma-min": _FLOAT,
      "--sigma-max": _FLOAT, "--points": _INT})
    for kind in ([], ["--kind", "linear"])
] + [
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

    def test_manifest_without_atoms(self, runs, capsys):
        bad = runs / "a" / "manifest.json"
        manifest = json.loads(bad.read_text())
        del manifest["config"]["atom_quaternions"]
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
        assert cli.OPTIONS["sample-backbones"]["zeta"][1] == 0.1
        assert cli.OPTIONS["sample-backbones"]["n_steps"][1] == 500

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

    @pytest.mark.parametrize("n_steps", [
        2,
        _TRAJ_BLOCK - 1,
        _TRAJ_BLOCK,
        _TRAJ_BLOCK + 1,
        2 * _TRAJ_BLOCK + 3,
    ])
    def test_streamed_trajectory_matches_recorded_walk(self, tmp_path, n_steps):
        n, seed, zeta = _TRAJ_RESIDUES, 5, 0.3
        assert run(["sample-backbones", "--n-residues", str(n), "--n-steps",
                    str(n_steps), "--zeta", str(zeta), "--seed", str(seed),
                    "--init-seed", str(seed), "--out", str(tmp_path / "bb"),
                    "--trajectory"]) == 0
        ts, rs = schedules.TranslationSchedule(), schedules.RotationSchedule()
        init = process.reference_sample(n, np.random.default_rng(seed))
        score = process.fixed_target_score(commands._extended_chain(n), ts, rs)
        sim = process.SimConfig(n_steps=n_steps, noise_scale=zeta)
        traj = process.reverse_walk(init, score, ts, rs, sim, np.random.default_rng(seed))
        _per_value_trajectory(str(tmp_path / "oracle.csv"), traj)
        streamed = (tmp_path / "bb_trajectory.csv").read_bytes()
        assert streamed == (tmp_path / "oracle.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bb.manifest.json", "bb.pdb", "bb_trajectory.csv", "oracle.csv"]

    def test_pdb_column_overflow_is_refused(self, tmp_path, capsys):
        # The extended chain of 2048 residues spans about 780 nm, past %8.3f in A.
        out = tmp_path / "wide"
        assert run(["sample-backbones", "--n-residues", "2048", "--n-steps", "5",
                    "--out", str(out), "--trajectory"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical-domain error: coordinate ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # no PDB, and this run's trajectory removed

    @pytest.mark.parametrize("failure", ["columns", "pdb-write"])
    def test_failed_rerun_leaves_earlier_run_unchanged(self, tmp_path, capsys, monkeypatch,
                                                       failure):
        out = str(tmp_path / "bb")
        assert run(["sample-backbones", "--n-residues", "8", "--n-steps", "3",
                    "--trajectory", "--out", out]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        if failure == "columns":
            argv, code = ["--n-residues", "2048", "--n-steps", "20"], 2
        else:
            def disk_full(path, atoms):
                with open(path, "w") as fh:
                    fh.write("ATOM      1  N  ")
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(backbone, "write_pdb", disk_full)
            argv, code = ["--n-residues", "8", "--n-steps", "4"], 3
        assert run(["sample-backbones", *argv, "--trajectory", "--out", out]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no .part

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
        assert manifest["versions"] == {
            "se3diffuse": se3diffuse.__version__, "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3]}


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
            assert {"command", "config", "seed", "outputs", "versions",
                    "duration_s"} <= set(parsed)
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
                row = [commands._fmt(t), "0", str(i)]
                row += [commands._fmt(v) for v in quats[i]]
                row += [commands._fmt(v) for v in state.translations[i]]
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
                vals = [str(pid)] + [commands._fmt(v) for v in quats[pid]]
                vals += [commands._fmt(angles[k, pid]) for k in range(angles.shape[0])]
                fh.write(",".join(vals) + "\n")


class TestArtifactWriters:
    def test_rows_match_per_value_format(self):
        values = np.array([[-0.0, 0.0, 5e-324, -2.2250738585072014e-308],
                           [1e-310, 1 / 3, -1e300, 0.1 + 0.2]])
        expected = "".join(
            f"id{i}," + ",".join(commands._fmt(v) for v in row) + "\n"
            for i, row in enumerate(values)
        )
        assert commands._csv_rows(values, ["id0", "id1"]) == expected
        assert "-0.0," in expected and "5e-324" in expected

    def test_blocked_rows_match_per_value_format(self, tmp_path, rng):
        n = 2 * commands._BLOCK_ROWS + 1
        values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-320, 300, (n, 3))
        values[0] = [-0.0, 5e-324, -2.2250738585072014e-308]
        values[-1] = [1e-310, 1 / 3, 0.1 + 0.2]
        blocks = []

        def rows(lo, hi):
            blocks.append((lo, hi))
            return values[lo:hi]

        path = tmp_path / "rows.csv"
        commands._write_csv(str(path), "id,x,y,z", n, rows, ids=True)
        expected = "id,x,y,z\n" + "".join(
            f"{i}," + ",".join(commands._fmt(v) for v in row) + "\n"
            for i, row in enumerate(values)
        )
        assert path.read_text() == expected
        b = commands._BLOCK_ROWS
        assert blocks == [(0, b), (b, 2 * b), (2 * b, n)]

    @pytest.mark.parametrize("n", [5, commands._BLOCK_ROWS + 1],
                             ids=["states-per-block", "one-state-per-block"])
    def test_trajectory_bytes_unchanged(self, tmp_path, rng, n):
        traj = []
        for t in (1.0, 0.5, 0.01):
            translations = rng.standard_normal((n, 3))
            translations[0] = [-0.0, 5e-324, -1e-310]
            traj.append((t, process.FrameSet(_edge_rotations(rng, n), translations)))
        last = commands._write_trajectory(str(tmp_path / "new.csv"), iter(traj))
        _per_value_trajectory(str(tmp_path / "old.csv"), traj)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert b",-0.0," in new and b"e-311" in new and b"5e-324" in new
        assert last is traj[-1][1]

    def test_toy_run_dir_bytes_unchanged(self, tmp_path, rng):
        target = toy.random_target(3, seed=0)
        marginals = {t: _edge_rotations(rng, 6) for t in (0.0, 0.25, 0.5)}
        marginals[0.0][2] = target.atoms[1]  # angle 0 to one atom
        times = sorted(marginals)
        run = ((t, marginals[t]) for t in reversed(times))  # a reverse run's order
        with commands._Commit() as commit:
            commands._toy_run_dir_write(commit, str(tmp_path / "new"), run, times, target)
            commit.publish()
        _per_value_run_dir(str(tmp_path / "old"), marginals, target)
        assert commit.outputs == [str(tmp_path / "new" / f"t_{i:04d}.csv") for i in range(3)]
        for idx in range(3):
            name = f"t_{idx:04d}.csv"
            new = (tmp_path / "new" / name).read_bytes()
            assert new == (tmp_path / "old" / name).read_bytes()
            assert b",-0.0," in new and b"e-311" in new


def _run_interpreter(args, **kwargs):
    """A fresh interpreter that finds this package, run with ``args``."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def _run_python(code, **kwargs):
    """``code`` run by a fresh interpreter that finds this package."""
    return _run_interpreter(["-c", code], **kwargs)


def _python(code):
    """Exit code of ``code`` run by a fresh interpreter that finds this package."""
    return _run_python(code, timeout=60).returncode


def test_run_as_module_warns_nothing():
    # The package must not import cli before runpy executes it as __main__.
    proc = _run_interpreter(["-W", "error::RuntimeWarning", "-m", "se3diffuse.cli", "--help"],
                            capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"sample-backbones" in proc.stdout


@pytest.mark.parametrize("argv,code,prefix", [
    (["toy", "forward", "--steps", "1", "--out-dir", "OUT/run"], 1, "usage error: "),
    (["igso3", "eval", "--t", "nan", "--out", "OUT/e.csv"], 2, "numerical-domain error: "),
])
def test_run_as_module_maps_command_errors(tmp_path, argv, code, prefix):
    # Run as __main__, cli is a second copy of the module: the command bodies'
    # errors must still be the classes its main catches.
    argv = [a.replace("OUT", str(tmp_path)) for a in argv]
    proc = _run_interpreter(["-W", "error::RuntimeWarning", "-m", "se3diffuse.cli", *argv],
                            capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# Modules that a command line rejected before any command runs must not load.
_HEAVY = ("numpy", "scipy", "multiprocessing")


def _fresh_run(tmp_path, code):
    """Exit code, stderr and loaded ``_HEAVY`` modules of a fresh interpreter.

    ``code`` is Python source, or an argv for ``cli.main`` in which ``OUT``
    stands for ``tmp_path``.
    """
    if isinstance(code, list):
        argv = [a.replace("OUT", str(tmp_path)) for a in code]
        code = f"from se3diffuse import cli; sys.exit(cli.main({argv!r}))"
    report = ("import atexit, sys\n"
              f"atexit.register(lambda: print([m for m in {_HEAVY!r} if m in sys.modules]))\n")
    proc = _run_python(report + code, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr, proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("code,exit_code", [
    pytest.param("import se3diffuse", 0, id="import"),
    pytest.param("from se3diffuse import cli; cli.build_parser()", 0, id="setup-probe"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["schedule", "--bogus", "1", "--out", "OUT/s.csv"], 1, id="unknown-flag"),
    pytest.param(["toy", "forward", "--steps", "x", "--out-dir", "OUT/run"], 1, id="steps-x"),
    pytest.param(["schedule", "--config", "OUT/cfg.json", "--out", "OUT/s.csv"], 1,
                 id="config-wrong-type"),
    pytest.param(["sample-backbones", "--n-residues", "0", "--out", "OUT/bb"], 1,
                 id="n-residues-0"),
    pytest.param(["igso3", "eval", "--t", "0.5", "--grid", "1", "--out", "OUT/e.csv"], 1,
                 id="grid-1"),
    # Draws are exact: no angle grid to set.
    pytest.param(["igso3", "sample", "--t", "0.5", "--grid", "10", "--out", "OUT/q.csv"], 1,
                 id="sample-grid"),
    pytest.param(["igso3", "score", "--t", "0.5", "--grid", "10", "--out", "OUT/g.csv"], 1,
                 id="score-grid"),
    pytest.param(["toy", "forward", "--steps", "1", "--out-dir", "OUT/run"], 1, id="steps-1"),
    # A flag of another line of the same subcommand.
    pytest.param(["toy", "forward", "--run-a", "x", "--out-dir", "OUT/run"], 1,
                 id="forward-run-a"),
    pytest.param(["toy", "reverse", "--out", "x", "--out-dir", "OUT/run"], 1,
                 id="reverse-out"),
    pytest.param(["toy", "compare", "--run-a", "OUT/a", "--run-b", "OUT/b", "--paths", "7",
                  "--out", "OUT/k.json"], 1, id="compare-paths"),
    pytest.param(["igso3", "eval", "--t", "0.5", "--seed", "3", "--out", "OUT/e.csv"], 1,
                 id="eval-seed"),
    pytest.param(["schedule", "--config", "OUT/none.json", "--out", "OUT/s.csv"], 3,
                 id="config-missing"),
])
def test_command_line_checked_before_numpy_loads(tmp_path, code, exit_code):
    (tmp_path / "cfg.json").write_text(json.dumps({"points": "3"}))
    returncode, err, loaded = _fresh_run(tmp_path, code)
    assert (returncode, loaded) == (exit_code, "[]")
    assert err.count("\n") == (exit_code != 0) and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def _line_parsers(parser, words=()):
    """Command line -> its parser, for every parser without subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(words): parser}
    return {line: leaf for word, p in subs[0].choices.items()
            for line, leaf in _line_parsers(p, (*words, word)).items()}


def test_every_command_line_has_its_table_of_flags():
    parsers = _line_parsers(cli.build_parser())
    assert sorted(parsers) == sorted(cli.OPTIONS)
    for line, options in cli.OPTIONS.items():
        strings = {s for action in parsers[line]._actions for s in action.option_strings}
        flags = {"--" + key.replace("_", "-") for key in options}
        assert strings == flags | {"--config", "-h", "--help"}, line


def test_command_loads_numpy(tmp_path):
    returncode, err, loaded = _fresh_run(
        tmp_path, ["schedule", "--points", "3", "--out", "OUT/s.csv"])
    assert (returncode, err) == (0, "") and "'numpy'" in loaded


def test_config_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["schedule", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: bad --config file: ") and err.count("\n") == 1


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class TestPmap:
    def test_results_in_item_order_from_workers(self, monkeypatch):
        _cpus(monkeypatch, 2)

        def square(i):  # the first result is the last to be ready
            if i == 0:
                time.sleep(0.2)
            return i * i

        assert list(commands._pmap(square, range(50))) == [i * i for i in range(50)]
        pids = set(commands._pmap(lambda i: os.getpid(), range(8)))
        assert os.getpid() not in pids and len(pids) <= 2

    @pytest.mark.parametrize("cpus,methods", [(1, None), (2, ["spawn"])])
    def test_serial_without_cpus_or_fork(self, monkeypatch, cpus, methods):
        import multiprocessing

        _cpus(monkeypatch, cpus)
        if methods is not None:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: methods)
        assert list(commands._pmap(lambda i: os.getpid(), range(4))) == [os.getpid()] * 4

    def test_serial_while_other_threads_run(self, monkeypatch):
        import threading

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert list(commands._pmap(lambda i: os.getpid(), range(4))) == [os.getpid()] * 4

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_items_consumed_at_most_two_per_worker_ahead(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        pulled, received = [0], []

        def items():
            for i in range(40):
                assert pulled[0] - len(received) <= 2 * cpus
                pulled[0] += 1
                yield i

        for result in commands._pmap(lambda i: -i, items()):
            received.append(result)
        assert received == [-i for i in range(40)] and pulled[0] == 40

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_item_exception_reaches_caller_and_workers_exit(self, monkeypatch, cpus):
        import multiprocessing

        _cpus(monkeypatch, cpus)

        def items():
            yield from range(5)
            raise FloatingPointError("walk failed")

        received = []
        with pytest.raises(FloatingPointError, match="walk failed"):
            for result in commands._pmap(lambda i: i + 1, items()):
                received.append(result)
        assert received == list(range(1, 6))[:len(received)]
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises(self):
        code = (
            "import os, signal, sys\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from se3diffuse import commands\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def fn(i):\n"
            "    if i == 3:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return i\n"
            "try:\n"
            "    list(commands._pmap(fn, range(20)))\n"
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
            assert run(["sample-backbones", "--n-residues", str(_TRAJ_RESIDUES), "--n-steps",
                        str(3 * _TRAJ_BLOCK + 5), "--zeta", "0.3",
                        "--seed", "3", "--out", str(root / "bb"), "--trajectory"]) == 0
        one, two = tmp_path / "1", tmp_path / "2"
        for name in ("bb.pdb", "bb_trajectory.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes()
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


class TestToyRunFailure:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("out_exists", [False, True], ids=["new-dir", "old-dir"])
    def test_failed_walk_leaves_no_time_files(self, tmp_path, capsys, monkeypatch,
                                              cpus, direction, out_exists):
        _cpus(monkeypatch, cpus)
        out = tmp_path / "parent" / "run"
        if out_exists:
            out.mkdir(parents=True)
            (out / "keep.txt").write_text("not this run's\n")
        # The drift turns non-finite at the fifth step, once a time file is staged.
        forward = direction == "forward"
        module, name = (process, "reference_score") if forward else (toy, "score_t")
        drift, calls = getattr(module, name), []

        def diverging(*args, **kwargs):
            calls.append(1)
            result = drift(*args, **kwargs)
            if len(calls) < 5:
                return result
            deadline = time.monotonic() + 30
            while not list(out.glob("t_*.csv.part")) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert list(out.glob("t_*.csv.part"))
            if forward:  # a ScoreField's (rot, trans)
                return result[0] * np.nan, result[1]
            return result * np.nan

        monkeypatch.setattr(module, name, diverging)
        assert run(["toy", direction, "--paths", "20", "--T", "1.0", "--steps", "10",
                    "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "numerical-domain error: non-finite state at step 5\n"
        if out_exists:
            assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        else:
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_rerun_leaves_earlier_run_unchanged(self, tmp_path, capsys, monkeypatch,
                                                       cpus):
        _cpus(monkeypatch, cpus)
        out = tmp_path / "run"
        base = ["toy", "forward", "--paths", "10", "--out-dir", str(out)]
        assert run(base + ["--T", "1.0", "--steps", "5"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        # The first step overflows, once t = 0 is staged; t_0003.csv and
        # t_0004.csv are stale only to a run that succeeds.
        assert run(base + ["--T", "1e308", "--steps", "3"]) == 2
        assert capsys.readouterr().err.startswith("numerical-domain error: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_rerun_removes_stale_time_files(self, tmp_path):
        out = tmp_path / "run"
        base = ["toy", "forward", "--paths", "10", "--T", "1.0", "--out-dir", str(out)]
        assert run(base + ["--steps", "5"]) == 0
        for name in ("keep.txt", "t_00001.csv", "t_0001.csv.bak"):
            (out / name).write_text("not this run's\n")
        assert run(base + ["--steps", "3"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "keep.txt", "manifest.json", "t_0000.csv", "t_00001.csv", "t_0001.csv",
            "t_0001.csv.bak", "t_0002.csv"]

    def test_killed_worker_leaves_no_part_file(self, tmp_path):
        # Each worker is killed with its time file open; the directory this
        # call created can only be removed once those files are.
        out = tmp_path / "run"
        code = (
            "import os, signal, sys\n"
            "import numpy as np\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from se3diffuse import commands, so3, toy\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "parent = os.getpid()\n"
            "def angles(target, samples):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "toy.atom_angles = angles\n"
            "rng = np.random.default_rng(0)\n"
            "run = ((t, so3.sample_uniform_so3(rng, 5)) for t in (0.0, 1.0))\n"
            "try:\n"
            "    with commands._Commit() as commit:\n"
            f"        commands._toy_run_dir_write(commit, {str(out)!r}, run, [0.0, 1.0],\n"
            "                                    toy.random_target(3))\n"
            "except BrokenProcessPool:\n"
            "    sys.exit(7)\n"
        )
        assert _python(code) == 7
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,manifest", [
    (["schedule", "--points", "3", "--out", "OUT/s.csv"], "s.csv.manifest.json"),
    (["toy", "forward", "--paths", "5", "--steps", "3", "--out-dir", "OUT/run"],
     "run/manifest.json"),
    (["sample-backbones", "--n-residues", "4", "--n-steps", "3", "--trajectory",
      "--out", "OUT/bb"], "bb.manifest.json"),
])
def test_manifest_path_taken_by_a_directory_commits_nothing(tmp_path, capsys, argv,
                                                            manifest):
    (tmp_path / manifest).mkdir(parents=True)
    assert run([a.replace("OUT", str(tmp_path)) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


@pytest.mark.parametrize("argv", [
    ["igso3", "eval", "--t", "0.5", "--out", "OUT/missing/x.csv"],
    ["schedule", "--points", "3", "--out", "OUT/missing/x.csv"],
    ["toy", "compare", "--run-a", "OUT/run", "--run-b", "OUT/run", "--out", "OUT/missing/x.csv"],
])
def test_io_error_names_the_output_path(tmp_path, capsys, argv):
    # The message names the path the user gave, not the file staged for it.
    if argv[0] == "toy":
        assert run(["toy", "forward", "--paths", "5", "--steps", "3",
                    "--out-dir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
    assert run([a.replace("OUT", str(tmp_path)) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert err.endswith(f": {str(tmp_path / 'missing' / 'x.csv')!r}\n")


def _peak_rss_mb(args):
    """VmHWM, in MB, of a fresh interpreter that runs ``cli.main(args)``."""
    code = (
        "import sys\n"
        "from se3diffuse import cli\n"
        f"if cli.main({args!r}) != 0:\n"
        "    sys.exit('command failed')\n"
        "with open('/proc/self/status') as fh:\n"
        "    hwm = [l for l in fh if l.startswith('VmHWM:')][0]\n"
        "print(int(hwm.split()[1]) / 1024)\n"
    )
    done = _run_python(code, timeout=120, capture_output=True, text=True, check=True)
    return float(done.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs VmHWM from /proc/self/status")
class TestPeakMemory:
    """A command's own peak memory does not grow with its step count.

    The peak is the interpreter's VmHWM: after vfork and exec,
    ``ru_maxrss`` would report the test runner's peak instead.
    """

    def test_toy_forward(self, tmp_path):
        peaks = [
            _peak_rss_mb(["toy", "forward", "--paths", "500", "--T", "1.0",
                          "--steps", str(steps), "--out-dir", str(tmp_path / str(steps))])
            for steps in (50, 400)
        ]
        assert peaks[1] - peaks[0] < 3.0, peaks

    def row_slope_kb(self, tmp_path, args, counts):
        """Peak growth per CSV row, in KB, between ``counts`` rows."""
        peaks = [_peak_rss_mb([*args, str(n), "--out", str(tmp_path / f"{n}.csv")])
                 for n in counts]
        return (peaks[1] - peaks[0]) * 1024 / (counts[1] - counts[0]), peaks

    def test_schedule_rows(self, tmp_path):
        # Its one state array is s, 8 bytes a row; the whole file's text and
        # columns held at once took about 0.66 KB a row.
        slope, peaks = self.row_slope_kb(tmp_path, ["schedule", "--points"], (20000, 200000))
        assert slope < 0.1, peaks

    def test_igso3_sample_rows(self, tmp_path):
        # The drawn rotations (72 bytes a row) and rotation vectors (24)
        # stay, 0.094 KB a row measured, plus a margin of 0.026 KB; building
        # every row's rotation at once took about 0.3 KB a row.
        slope, peaks = self.row_slope_kb(tmp_path, ["igso3", "sample", "--t", "0.8", "--n"],
                                         (20000, 200000))
        assert slope < 0.12, peaks

    def test_sample_backbones_trajectory(self, tmp_path):
        peaks = [
            _peak_rss_mb(["sample-backbones", "--n-residues", "64", "--n-steps",
                          str(steps), "--out", str(tmp_path / str(steps)),
                          "--trajectory"])
            for steps in (100, 2000)
        ]
        assert peaks[1] - peaks[0] < 3.0, peaks
