"""The bodies of the CLI commands; ``cli.main`` imports this module, and with
it numpy and the library, only once a command line has been checked.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import os
import re
import threading
import warnings
from collections import deque

import numpy as np

from . import UsageError, backbone, igso3, process, schedules, so3, toy


def run(command: str, v: argparse.Namespace, config: dict, manifest) -> None:
    """Runs ``command`` (``"toy forward"``, ``"schedule"``, ...) on checked
    values, then commits its outputs and last the manifest, whose path and
    text ``manifest(outputs)`` gives, all together or none of them.

    ``v`` holds the values of the command's options. A toy walk adds its
    time grid and atoms to ``config``, the manifest's record of the run.
    An overflow or invalid operation left in a command is a domain error.
    """
    name, _, action = command.partition(" ")
    body = {"igso3": cmd_igso3, "schedule": cmd_schedule, "toy": cmd_toy,
            "sample-backbones": cmd_sample_backbones}[name]
    with _Commit() as commit:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            body(action, v, config, commit)
        path, text = manifest(list(commit.outputs))
        with open(commit.stage(path), "w") as fh:
            fh.write(text)
        commit.publish()


class _Commit:
    """A command's outputs, each written to ``path + ".part"`` until
    :meth:`publish` puts them all in place. When the ``with`` block
    raises, every part and every directory :meth:`makedirs` created are
    removed, so files already at the output paths stay as they were."""

    def __init__(self):
        self.outputs, self.stale, self._made = [], [], []

    def stage(self, path: str) -> str:
        """Adds ``path`` to the outputs; returns the part file to write it to."""
        self.outputs.append(path)
        return path + ".part"

    def makedirs(self, path: str) -> None:
        """``os.makedirs(path, exist_ok=True)``, recording what it creates."""
        missing = os.path.abspath(path)
        while not os.path.exists(missing):
            self._made.append(missing)
            missing = os.path.dirname(missing)
        os.makedirs(path, exist_ok=True)

    def publish(self) -> None:
        """Renames every part over its path, unless one of the paths is a
        directory, then removes the ``stale`` files that are not outputs."""
        for path in self.outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path in self.outputs:
            os.replace(path + ".part", path)
        for path in set(self.stale) - set(self.outputs):
            os.remove(path)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, _):
        if kind is not None:
            for path in self.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path + ".part")
                if isinstance(exc, OSError) and exc.filename == path + ".part":
                    exc.filename = path  # name the path as given
            for d in self._made:  # deepest first
                with contextlib.suppress(OSError):  # not empty: another process wrote there
                    os.rmdir(d)


def _from_flags(build, *args, **values):
    """``build(*args, **values)``; a value the constructor rejects is a usage error."""
    try:
        return build(*args, **values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(x) -> str:
    """Shortest round-trip decimal form; keeps CSV output byte-stable."""
    return repr(float(x))


_task = None  # the function a forked worker computes; set only in workers


def _set_task(fn) -> None:
    global _task
    _task = fn


def _run_task(item):
    return _task(item)


def _pmap(fn, items):
    """``fn(item)`` for each of ``items``, in order, spread over one process per CPU.

    Workers are forked, so they inherit ``fn`` and every array it reads;
    only items and results are pickled. ``items`` is consumed lazily, with
    at most two tasks per worker in flight, so a generator of items (a walk)
    keeps running here while the workers compute. The output does not
    depend on the worker count. An exception from ``items`` or a worker is
    raised here, once pending tasks are cancelled and the workers have
    exited. The loop runs in this process when there is one CPU, when
    ``fork`` is unavailable, or when other threads are running (forking a
    threaded process can deadlock the child).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    pool = None
    if cpus > 1 and threading.active_count() == 1:
        import multiprocessing  # not at module level: only forking commands pay for it

        if "fork" in multiprocessing.get_all_start_methods():
            # Unlike multiprocessing.Pool, the executor raises, instead of
            # waiting forever, when a worker is killed.
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(cpus, multiprocessing.get_context("fork"),
                                       initializer=_set_task, initargs=(fn,))
    if pool is None:
        yield from map(fn, items)
        return
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(_run_task, item))
            if len(pending) == 2 * cpus:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _csv_rows(values, lead=None) -> str:
    """CSV lines of a 2-d float array in :func:`_fmt` form.

    Each line starts with the matching ``lead`` string when one is given.
    ``tolist`` yields Python floats, whose ``repr`` is ``_fmt``'s text.
    """
    rows = (",".join(map(repr, row)) for row in np.asarray(values, float).tolist())
    if lead is None:
        return "".join(row + "\n" for row in rows)
    return "".join(f"{first},{row}\n" for first, row in zip(lead, rows))


# Rows of CSV computed, formatted and written at a time: a writer holds one
# block's values and text, so its memory does not grow with the file.
_BLOCK_ROWS = 2048


def _write_csv(path: str, header: str, n_rows: int, rows, ids: bool = False) -> None:
    """Writes ``header``, then ``n_rows`` CSV rows, :data:`_BLOCK_ROWS` at a
    time, to ``path``.

    ``rows(lo, hi)`` gives rows lo..hi-1 as a 2-d float array; with ``ids``
    each line starts with its row number.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_rows)
            fh.write(_csv_rows(rows(lo, hi), map(str, range(lo, hi)) if ids else None))


# ---------------------------------------------------------------- igso3

def cmd_igso3(action: str, v: argparse.Namespace, config: dict, commit: _Commit) -> None:
    if action == "eval":
        trunc = _from_flags(igso3.TruncationConfig, angle_grid=v.grid)
        grid = np.linspace(0.0, np.pi, trunc.angle_grid)

        def rows(lo, hi):
            f, df = igso3.f_df(grid[lo:hi], v.t)
            return np.column_stack([grid[lo:hi], f, df])

        _write_csv(commit.stage(v.out), "omega,f,df", len(grid), rows)
        return
    base = np.broadcast_to(np.eye(3), (v.n, 3, 3))
    samples = igso3.sample_igso3(base, v.t, np.random.default_rng(v.seed))
    if action == "sample":
        header = "a,b,c,d"

        def rows(lo, hi):
            return so3.quat_from_rotation(samples[lo:hi])
    else:
        coeffs = igso3.conditional_score(base, samples, v.t)
        header = "omega,s1,s2,s3"

        def rows(lo, hi):
            return np.column_stack([so3.rotation_angle(samples[lo:hi]), coeffs[lo:hi]])
    _write_csv(commit.stage(v.out), header, v.n, rows)


# ------------------------------------------------------------- schedule

def cmd_schedule(action: str, v: argparse.Namespace, config: dict, commit: _Commit) -> None:
    ts = _from_flags(schedules.TranslationSchedule, beta_min=v.beta_min,
                     beta_max=v.beta_max)
    rs = _from_flags(schedules.RotationSchedule, sigma_min=v.sigma_min,
                     sigma_max=v.sigma_max, kind=v.kind)
    s = np.linspace(0.0, 1.0, v.points)

    def rows(lo, hi):
        block = s[lo:hi]
        g_x = schedules.G_x(block, ts)
        return np.column_stack([
            block,
            schedules.beta(block, ts),
            g_x,
            schedules.ou_coefficients(g_x)[1],
            schedules.sigma_r(block, rs),
            schedules.rot_variance(block, rs),
            schedules.g_r(block, rs),
        ])

    _write_csv(commit.stage(v.out), "s,beta,G_x,trans_var,sigma_r,rot_var,g_r", v.points,
               rows)


# ------------------------------------------------------------------ toy

def _toy_run_dir_write(
    commit: _Commit, out_dir: str, run, times: list[float], target: toy.DiscreteTarget
) -> None:
    """One ``t_XXXX.csv`` per recorded time, staged with ``commit`` and
    written by workers as the run goes.

    ``run`` yields (t, rotations) pairs at the times of the ascending grid
    ``times``, in either order; a file's number is its time's rank. The
    ``t_XXXX.csv`` files of an earlier run in ``out_dir`` are stale: the
    commit removes those this run does not write, and only if it succeeds.
    """
    commit.makedirs(out_dir)
    commit.stale += [os.path.join(out_dir, name) for name in os.listdir(out_dir)
                     if re.fullmatch(r"t_[0-9]{4}\.csv", name)]
    parts = {t: commit.stage(os.path.join(out_dir, f"t_{idx:04d}.csv"))
             for idx, t in enumerate(times)}
    header = "path_id,a,b,c,d," + ",".join(
        f"angle_to_atom_{k}" for k in range(len(target.weights))
    )

    def write(job) -> None:
        path, samples = job

        def rows(lo, hi):
            block = samples[lo:hi]
            return np.column_stack([so3.quat_from_rotation(block),
                                    toy.atom_angles(target, block).T])

        _write_csv(path, header, len(samples), rows, ids=True)

    jobs = ((parts[t], samples) for t, samples in run)
    deque(_pmap(write, jobs), maxlen=0)


def cmd_toy(action: str, v: argparse.Namespace, config: dict, commit: _Commit) -> None:
    if action == "compare":
        report = _toy_compare(v.run_a, v.run_b)
        with open(commit.stage(v.out), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return

    target = _from_flags(toy.random_target, k=v.atoms, seed=v.atom_seed)
    run_cfg = _from_flags(toy.ToyRunConfig, n_paths=v.paths, final_time=v.T,
                          n_steps=v.steps)
    walk = toy.iter_forward if action == "forward" else toy.iter_reverse
    times = run_cfg.times().tolist()
    run = walk(target, run_cfg, np.random.default_rng(v.seed))
    _toy_run_dir_write(commit, v.out_dir, run, times, target)
    config.update(
        grid_times=[_fmt(t) for t in times],
        atom_quaternions=[
            [_fmt(x) for x in q] for q in so3.quat_from_rotation(target.atoms)
        ],
    )


def _toy_compare(run_a: str, run_b: str) -> dict:
    """KS statistic of angle-to-nearest-atom between two runs, per time.

    ``max_ks`` leaves out t = 0, where a forward run is exact point masses.
    Runs of different targets or time grids are a usage error, as is a run
    file that does not parse, named in the message.
    """
    def load_run(d):
        path = os.path.join(d, "manifest.json")
        try:
            with open(path) as fh:
                config = json.load(fh)["config"]
            times, atoms = [float(t) for t in config["grid_times"]], config["atom_quaternions"]
            path = os.path.join(d, "t_0000.csv")
            with open(path) as fh:
                n_cols = len(fh.readline().split(","))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"malformed run file {path}: {exc!r}") from exc
        return times, atoms, n_cols

    times_a, atoms_a, cols_a = load_run(run_a)
    times_b, atoms_b, cols_b = load_run(run_b)
    if atoms_a != atoms_b:
        raise UsageError("runs were recorded for different atoms")
    if times_a != times_b:  # each run records its grid as round-trip text
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

    ks_list = list(_pmap(ks_at, range(len(times_a))))
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


def _trajectory_rows(block) -> str:
    """CSV rows of a block (times, rotations (B, N, 3, 3), translations (B, N, 3))."""
    times, rotations, x = block
    quats = so3.quat_from_rotation(rotations)
    residues = [f",0,{i}" for i in range(x.shape[1])]
    lead = [t + residue for t in map(_fmt, times) for residue in residues]
    return _csv_rows(np.concatenate([quats, x], -1).reshape(-1, 7), lead)


def _write_trajectory(path: str, traj) -> process.FrameSet:
    """One CSV row per (time, residue): quaternion, then translation.

    Stacks the (t, state) pairs of ``traj`` into blocks of whole states,
    as many as fit in :data:`_BLOCK_ROWS` rows and at least one, has
    workers format the blocks while the walk goes on, writes them to
    ``path`` and returns the last state.
    """
    traj, final = iter(traj), None

    def blocks():
        nonlocal final
        for first in traj:
            size = max(1, _BLOCK_ROWS // len(first[1]))
            times, states = zip(first, *itertools.islice(traj, size - 1))
            final = states[-1]
            yield (times, np.stack([s.rotations for s in states]),
                   np.stack([s.translations for s in states]))

    with open(path, "w") as fh:
        fh.write("t,chain_id,residue_index,a,b,c,d,x,y,z\n")
        fh.writelines(_pmap(_trajectory_rows, blocks()))
    return final


def cmd_sample_backbones(action: str, v: argparse.Namespace, config: dict,
                         commit: _Commit) -> None:
    trans_sched = schedules.TranslationSchedule()
    rot_sched = schedules.RotationSchedule()
    sim = _from_flags(process.SimConfig, n_steps=v.n_steps, eps=v.eps, noise_scale=v.zeta)
    plan = _from_flags(process.reverse_plan, trans_sched, rot_sched, sim)
    init = process.reference_sample(v.n_residues, np.random.default_rng(v.init_seed))
    if v.score == "fixed-target":
        score = process.fixed_target_score(_extended_chain(v.n_residues), trans_sched,
                                           rot_sched)
    else:
        score = process.reference_score
    walk = process.iter_walk(init, plan, score, np.random.default_rng(v.seed))
    pdb = commit.stage(v.out + ".pdb")
    if v.trajectory:
        final = _write_trajectory(commit.stage(v.out + "_trajectory.csv"), walk)
    else:
        final = deque(walk, maxlen=1)[0][1]
    atoms = backbone.frameset_to_atoms(final)
    backbone.check_pdb_columns(atoms)
    backbone.write_pdb(pdb, atoms)
