"""Command-line interface: experiments and their CSV/JSON/PDB artifacts.

Subcommands:
  igso3 {eval,sample,score}        series evaluation, sampling, scores
  schedule                         noise-schedule curves as CSV
  toy {forward,reverse,compare}    the discrete-target SO(3) experiment
  sample-backbones                 reverse walk on SE(3)^N, PDB output

Every command writes a run-manifest JSON alongside its outputs. Exit
codes: 0 success, 1 usage error, 2 numerical-domain error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import backbone, igso3, process, schedules, so3, toy

IGSO3_DEFAULTS = {"t": None, "terms": 2000, "grid": 1000, "n": 10000, "seed": 0,
                  "out": None}
SCHEDULE_DEFAULTS = {"beta_min": 0.1, "beta_max": 20.0, "sigma_min": 0.1,
                     "sigma_max": 1.5, "kind": "logarithmic", "points": 101,
                     "out": None}
TOY_DEFAULTS = {"atoms": 3, "paths": 5000, "T": 4.0, "steps": 200, "seed": 0,
                "atom_seed": 0, "out_dir": None}
BACKBONE_DEFAULTS = {"n_residues": 32, "n_steps": 500, "eps": 0.01, "zeta": 0.1,
                     "seed": 0, "init_seed": 0, "score": "fixed-target",
                     "out": None, "trajectory": False}


class UsageError(Exception):
    pass


def _value(cfg: dict, key: str, kind: type, low: int | None = None):
    """``cfg[key]`` as ``kind`` (int, float, str or bool), at least ``low``.

    A ``--config`` value of another JSON type is a usage error, as is a
    count or seed below ``low``. An int is accepted where a float is.
    """
    value = cfg[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise UsageError(f"{key} must be of type {kind.__name__}, got {value!r}")
    if low is not None and value < low:
        raise UsageError(f"{key} must be >= {low}, got {value}")
    return kind(value)


def _from_flags(build, **values):
    """``build(**values)``; a value the constructor rejects is a usage error."""
    try:
        return build(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def _fmt(x) -> str:
    """Shortest round-trip decimal form; keeps CSV output byte-stable."""
    return repr(float(x))


_task = None  # the function a forked worker computes; set only in workers


def _set_task(fn) -> None:
    global _task
    _task = fn


def _run_task(i: int):
    return _task(i)


def _fan_out(fn, n: int) -> list:
    """``[fn(i) for i in range(n)]``, spread over one process per CPU.

    Workers are forked, so they inherit ``fn`` and every array it reads;
    only indices and results are pickled. Results come back in index
    order, so the output does not depend on the worker count. A worker's
    exception is raised here. The loop runs in this process when there is
    one CPU, when ``fork`` is unavailable, or when other threads are
    running (forking a threaded process can deadlock the child).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, n)
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing  # not at module level: keeps CLI start-up lean

        if "fork" in multiprocessing.get_all_start_methods():
            # Unlike multiprocessing.Pool, the executor raises, instead of
            # waiting forever, when a worker is killed.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                     initializer=_set_task, initargs=(fn,)) as pool:
                return list(pool.map(_run_task, range(n)))
    return [fn(i) for i in range(n)]


def _csv_rows(values, lead=None) -> str:
    """CSV lines of a 2-d float array in :func:`_fmt` form.

    Each line starts with the matching ``lead`` string when one is given.
    ``tolist`` yields Python floats, whose ``repr`` is ``_fmt``'s text.
    """
    rows = (",".join(map(repr, row)) for row in np.asarray(values, float).tolist())
    if lead is None:
        return "".join(row + "\n" for row in rows)
    return "".join(f"{first},{row}\n" for first, row in zip(lead, rows))


@dataclass
class RunManifest:
    """Reproducibility record written next to every command's outputs."""

    command: str
    config: dict
    seed: int | None
    outputs: list[str] = field(default_factory=list)
    duration_s: float = 0.0


def _write_manifest(manifest: RunManifest, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: builtin defaults < --config file < explicit flags."""
    config = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise UsageError(f"bad --config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("bad --config file: not a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    missing = [k for k, v in config.items() if v is None]
    if missing:
        raise UsageError(f"missing required options: {sorted(missing)}")
    return config


# ---------------------------------------------------------------- igso3

def _trunc_config(cfg: dict) -> igso3.TruncationConfig:
    return _from_flags(
        igso3.TruncationConfig,
        series_terms=_value(cfg, "terms", int), angle_grid=_value(cfg, "grid", int),
    )


def cmd_igso3(args: argparse.Namespace) -> RunManifest:
    cfg = _resolve(args, IGSO3_DEFAULTS)
    trunc = _trunc_config(cfg)
    t = _value(cfg, "t", float)
    seed = _value(cfg, "seed", int, low=0)
    out = _value(cfg, "out", str)
    manifest = RunManifest(command=f"igso3 {args.igso3_cmd}", config=cfg, seed=seed,
                           outputs=[out])

    if args.igso3_cmd == "eval":
        grid = np.linspace(0.0, np.pi, trunc.angle_grid)
        f = igso3.f_igso3(grid, t, trunc)
        df = igso3.df_igso3_domega(grid, t, trunc)
        with open(out, "w") as fh:
            fh.write("omega,f,df\n")
            fh.write(_csv_rows(np.column_stack([grid, f, df])))

    elif args.igso3_cmd == "sample":
        rng = np.random.default_rng(seed)
        table = igso3.build_table(t, trunc)
        base = np.broadcast_to(np.eye(3), (_value(cfg, "n", int, low=0), 3, 3))
        quats = so3.quat_from_rotation(igso3.sample_igso3(base, table, rng))
        with open(out, "w") as fh:
            fh.write("a,b,c,d\n")
            fh.write(_csv_rows(quats))

    elif args.igso3_cmd == "score":
        rng = np.random.default_rng(seed)
        table = igso3.build_table(t, trunc)
        base = np.broadcast_to(np.eye(3), (_value(cfg, "n", int, low=0), 3, 3))
        samples = igso3.sample_igso3(base, table, rng)
        scores = igso3.conditional_score(base, samples, t, trunc)
        coeffs = so3.vee(so3.transpose(samples) @ scores)
        omega = so3.rotation_angle(samples)
        with open(out, "w") as fh:
            fh.write("omega,s1,s2,s3\n")
            fh.write(_csv_rows(np.column_stack([omega, coeffs])))

    return manifest


# ------------------------------------------------------------- schedule

def cmd_schedule(args: argparse.Namespace) -> RunManifest:
    cfg = _resolve(args, SCHEDULE_DEFAULTS)
    ts = _from_flags(schedules.TranslationSchedule,
                     beta_min=_value(cfg, "beta_min", float),
                     beta_max=_value(cfg, "beta_max", float))
    rs = _from_flags(schedules.RotationSchedule,
                     sigma_min=_value(cfg, "sigma_min", float),
                     sigma_max=_value(cfg, "sigma_max", float),
                     kind=_value(cfg, "kind", str))
    out = _value(cfg, "out", str)
    s = np.linspace(0.0, 1.0, _value(cfg, "points", int, low=0))
    columns = [
        s,
        schedules.beta(s, ts),
        schedules.G_x(s, ts),
        1.0 - np.exp(-schedules.G_x(s, ts)),
        schedules.sigma_r(s, rs),
        schedules.rot_variance(s, rs),
        schedules.g_r(s, rs),
    ]
    with open(out, "w") as fh:
        fh.write("s,beta,G_x,trans_var,sigma_r,rot_var,g_r\n")
        fh.write(_csv_rows(np.column_stack(columns)))
    return RunManifest(command="schedule", config=cfg, seed=None, outputs=[out])


# ------------------------------------------------------------------ toy

def _toy_run_dir_write(
    out_dir: str, marginals: dict[float, np.ndarray], target: toy.DiscreteTarget
) -> list[str]:
    """One ``t_XXXX.csv`` per recorded time, written in parallel."""
    os.makedirs(out_dir, exist_ok=True)
    states = [marginals[t] for t in sorted(marginals)]
    header = "path_id,a,b,c,d," + ",".join(
        f"angle_to_atom_{k}" for k in range(len(target.weights))
    )
    path_ids = [str(pid) for pid in range(states[0].shape[0])]
    atoms_t = so3.transpose(target.atoms)[:, None]

    def write(idx: int) -> str:
        samples = states[idx]
        quats = so3.quat_from_rotation(samples)
        angles = so3.rotation_angle(atoms_t @ samples[None])  # (K, n)
        path = os.path.join(out_dir, f"t_{idx:04d}.csv")
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.write(_csv_rows(np.column_stack([quats, angles.T]), path_ids))
        return path

    return _fan_out(write, len(states))


def _toy_target_and_config(cfg: dict) -> tuple[toy.DiscreteTarget, toy.ToyRunConfig]:
    target = _from_flags(toy.random_target, k=_value(cfg, "atoms", int),
                         seed=_value(cfg, "atom_seed", int, low=0))
    run_cfg = _from_flags(
        toy.ToyRunConfig,
        n_paths=_value(cfg, "paths", int),
        final_time=_value(cfg, "T", float),
        n_steps=_value(cfg, "steps", int),
    )
    return target, run_cfg


def cmd_toy(args: argparse.Namespace) -> RunManifest:
    if args.toy_cmd == "compare":
        defaults = {"run_a": None, "run_b": None, "out": None}
        cfg = _resolve(args, defaults)
        out = _value(cfg, "out", str)
        report = _toy_compare(_value(cfg, "run_a", str), _value(cfg, "run_b", str))
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return RunManifest(command="toy compare", config=cfg, seed=None,
                           outputs=[out])

    cfg = _resolve(args, TOY_DEFAULTS)
    target, run_cfg = _toy_target_and_config(cfg)
    seed = _value(cfg, "seed", int, low=0)
    out_dir = _value(cfg, "out_dir", str)
    rng = np.random.default_rng(seed)
    if args.toy_cmd == "forward":
        marginals = toy.run_forward(target, run_cfg, rng)
    else:
        marginals = toy.run_reverse(target, run_cfg, rng)
    outputs = _toy_run_dir_write(out_dir, marginals, target)
    manifest = RunManifest(command=f"toy {args.toy_cmd}", config=cfg,
                           seed=seed, outputs=outputs)
    manifest.config = dict(
        cfg,
        grid_times=[_fmt(t) for t in sorted(marginals)],
        atom_quaternions=[
            [_fmt(v) for v in q] for q in so3.quat_from_rotation(target.atoms)
        ],
    )
    return manifest


def _toy_compare(run_a: str, run_b: str) -> dict:
    """KS statistic of angle-to-nearest-atom between two runs, per time.

    ``max_ks`` leaves out t = 0, where a forward run is exact point masses.
    A run file that does not parse is a usage error naming the file.
    """
    def load_run(d):
        path = os.path.join(d, "manifest.json")
        try:
            with open(path) as fh:
                times = [float(t) for t in json.load(fh)["config"]["grid_times"]]
            path = os.path.join(d, "t_0000.csv")
            with open(path) as fh:
                n_cols = len(fh.readline().split(","))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"malformed run file {path}: {exc!r}") from exc
        return times, n_cols

    times_a, cols_a = load_run(run_a)
    times_b, cols_b = load_run(run_b)
    if len(times_a) != len(times_b) or np.max(
        np.abs(np.array(times_a) - np.array(times_b)), initial=0.0
    ) > 1e-12:
        raise UsageError("runs were recorded on different time grids")
    if len(times_a) < 2:
        raise UsageError("runs need at least two recorded times")

    def angles(d: str, n_cols: int, idx: int) -> np.ndarray:
        path = os.path.join(d, f"t_{idx:04d}.csv")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns on a file without rows
                return np.loadtxt(path, delimiter=",", skiprows=1,
                                  usecols=range(5, n_cols), ndmin=2).min(axis=1)
        except (ValueError, UserWarning) as exc:
            raise UsageError(f"malformed run file {path}: {exc!r}") from exc

    def ks_at(idx: int) -> float:
        return toy.ks_2samp_statistic(angles(run_a, cols_a, idx),
                                      angles(run_b, cols_b, idx))

    ks_list = _fan_out(ks_at, len(times_a))
    return {
        "times": times_a,
        "ks": ks_list,
        "max_ks": max(ks_list[1:]),
    }


# ------------------------------------------------------- sample-backbones

def _extended_chain(n_residues: int) -> process.FrameSet:
    """Deterministic denoising target: identity frames strung along x."""
    spacing = 0.38  # nm, roughly one CA-CA step
    translations = np.zeros((n_residues, 3))
    translations[:, 0] = spacing * np.arange(n_residues)
    rotations = np.broadcast_to(np.eye(3), (n_residues, 3, 3)).copy()
    return process.center(process.FrameSet(rotations, translations))


def _write_trajectory(path: str, traj: list[tuple[float, process.FrameSet]]) -> None:
    """One CSV row per recorded (time, residue): quaternion, then translation."""
    quats = so3.quat_from_rotation(np.stack([state.rotations for _, state in traj]))
    translations = np.stack([state.translations for _, state in traj])
    residues = [f",0,{i}" for i in range(translations.shape[1])]
    with open(path, "w") as fh:
        fh.write("t,chain_id,residue_index,a,b,c,d,x,y,z\n")
        for (t, _), q, x in zip(traj, quats, translations):
            lead = [_fmt(t) + residue for residue in residues]
            fh.write(_csv_rows(np.column_stack([q, x]), lead))


def cmd_sample_backbones(args: argparse.Namespace) -> RunManifest:
    cfg = _resolve(args, BACKBONE_DEFAULTS)
    if cfg["score"] not in ("prior-only", "fixed-target"):
        raise UsageError("--score must be prior-only or fixed-target")

    trans_sched = schedules.TranslationSchedule()
    rot_sched = schedules.RotationSchedule()
    seed = _value(cfg, "seed", int, low=0)
    sim = _from_flags(
        process.SimConfig,
        n_steps=_value(cfg, "n_steps", int),
        eps=_value(cfg, "eps", float),
        noise_scale=_value(cfg, "zeta", float),
        seed=seed,
    )
    n = _value(cfg, "n_residues", int, low=1)
    init_seed = _value(cfg, "init_seed", int, low=0)
    out = _value(cfg, "out", str)
    trajectory = _value(cfg, "trajectory", bool)
    init = process.reference_sample(n, np.random.default_rng(init_seed))
    if cfg["score"] == "fixed-target":
        score = process.fixed_target_score(_extended_chain(n), trans_sched, rot_sched)
    else:
        score = process.zero_score
    rng = np.random.default_rng(seed)
    traj = process.reverse_walk(
        init, score, trans_sched, rot_sched, sim, rng, record=trajectory
    )

    outputs = []
    final = traj[-1][1]
    pdb_path = out + ".pdb"
    backbone.write_pdb(pdb_path, backbone.frameset_to_atoms(final))
    outputs.append(pdb_path)

    if trajectory:
        traj_path = out + "_trajectory.csv"
        _write_trajectory(traj_path, traj)
        outputs.append(traj_path)

    return RunManifest(command="sample-backbones", config=cfg, seed=seed,
                       outputs=outputs)


# ----------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="se3diffuse")
    sub = parser.add_subparsers(dest="command", required=True)

    p_igso3 = sub.add_parser("igso3", help="heat-kernel series utilities")
    p_igso3.add_argument("igso3_cmd", choices=["eval", "sample", "score"])
    for flag, typ in [("--t", float), ("--terms", int), ("--grid", int),
                      ("--n", int), ("--seed", int)]:
        p_igso3.add_argument(flag, type=typ)
    p_igso3.add_argument("--out")
    p_igso3.add_argument("--config")

    p_sched = sub.add_parser("schedule", help="dump schedule curves as CSV")
    for flag, typ in [("--beta-min", float), ("--beta-max", float),
                      ("--sigma-min", float), ("--sigma-max", float),
                      ("--points", int)]:
        p_sched.add_argument(flag, type=typ)
    p_sched.add_argument("--kind", choices=["logarithmic", "linear"])
    p_sched.add_argument("--out")
    p_sched.add_argument("--config")

    p_toy = sub.add_parser("toy", help="discrete-target SO(3) experiment")
    p_toy.add_argument("toy_cmd", choices=["forward", "reverse", "compare"])
    for flag, typ in [("--atoms", int), ("--paths", int), ("--T", float),
                      ("--steps", int), ("--seed", int), ("--atom-seed", int)]:
        p_toy.add_argument(flag, type=typ)
    p_toy.add_argument("--out-dir")
    p_toy.add_argument("--run-a")
    p_toy.add_argument("--run-b")
    p_toy.add_argument("--out")
    p_toy.add_argument("--config")

    p_bb = sub.add_parser("sample-backbones", help="reverse walk to a PDB file")
    for flag, typ in [("--n-residues", int), ("--n-steps", int), ("--eps", float),
                      ("--zeta", float), ("--seed", int), ("--init-seed", int)]:
        p_bb.add_argument(flag, type=typ)
    p_bb.add_argument("--score", choices=["prior-only", "fixed-target"])
    p_bb.add_argument("--out")
    p_bb.add_argument("--trajectory", action="store_true", default=None)
    p_bb.add_argument("--config")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.monotonic()
        if args.command == "igso3":
            manifest = cmd_igso3(args)
        elif args.command == "schedule":
            manifest = cmd_schedule(args)
        elif args.command == "toy":
            manifest = cmd_toy(args)
        else:
            manifest = cmd_sample_backbones(args)
        manifest.duration_s = time.monotonic() - start
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (igso3.NumericalDomainError, FloatingPointError) as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

    if manifest.command in ("toy forward", "toy reverse"):
        manifest_path = os.path.join(manifest.config["out_dir"], "manifest.json")
    elif manifest.command == "sample-backbones":
        manifest_path = manifest.config["out"] + ".manifest.json"
    else:
        manifest_path = manifest.outputs[0] + ".manifest.json"
    try:
        _write_manifest(manifest, manifest_path)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
