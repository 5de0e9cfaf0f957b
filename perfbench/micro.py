"""Per-layer micro-benchmarks at fixed sizes and seeds.

Each timing is the median of warm calls unless its name says cold; cold
table builds start from emptied caches, as in a fresh interpreter. The
sizes follow the workloads: so3 at 1e4 and 1e5 rotations, tables at the
CLI defaults (L=2000 terms, M=1000 grid points), the toy at the
toy-roundtrip size and backbones at the bb-wide size.
"""

from __future__ import annotations

import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
from se3diffuse import backbone, igso3, process, schedules, so3, toy
from spans import clear_caches

SEED = 0
WALK_SIZES = (64, 1024, 10000)
# A multi-step walk long enough to reach the large-N centering failure.
FAIL_PROBE_STEPS = 20


def timed(fn, reps: int = 5, budget_s: float = 0.5, warmup: bool = True) -> float:
    """Median seconds per call over at least ``reps`` calls."""
    if warmup:
        fn()
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < reps or (time.perf_counter() < deadline and len(samples) < 50):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def cold(fn, reps: int = 3) -> float:
    """Median seconds per call, emptying the igso3 caches before each call."""
    samples = []
    for _ in range(reps):
        clear_caches([igso3])
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_mb(fn) -> float:
    """Peak traced allocation of one call, in MB (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def bench_so3(out: dict) -> None:
    for n in (10_000, 100_000):
        rng = np.random.default_rng(SEED)
        rot = so3.sample_uniform_so3(rng, n)
        skew = so3.hat(rng.standard_normal((n, 3)))
        suffix = "" if n == 10_000 else ".n1e5"
        for name, fn in [
            ("exp_so3", lambda: so3.exp_so3(skew)),
            ("log_so3", lambda: so3.log_so3(rot)),
            ("quat_from_rotation", lambda: so3.quat_from_rotation(rot)),
            ("sample_uniform_so3", lambda: so3.sample_uniform_so3(rng, n)),
        ]:
            out[f"so3.{name}.us_per_k{suffix}"] = timed(fn) * 1e6 / (n / 1000)


def bench_igso3(out: dict) -> None:
    cfg = igso3.TruncationConfig()
    out["igso3.build_table.cold_ms"] = 1e3 * cold(lambda: igso3.build_table(0.5, cfg))
    out["igso3.build_table.warm_ms"] = 1e3 * timed(lambda: igso3.build_table(0.5, cfg))
    toy_times = np.linspace(0.0, 4.0, 100)[1:]
    out["igso3.build_tables.ms_per_t"] = (
        1e3 * cold(lambda: igso3.build_tables(toy_times, cfg)) / len(toy_times))

    rng = np.random.default_rng(SEED)
    table = igso3.build_table(0.8, cfg)
    n = 10_000
    base = np.broadcast_to(np.eye(3), (n, 3, 3))
    samples = igso3.sample_igso3(base, table, rng)
    out["igso3.conditional_score.ms"] = 1e3 * timed(
        lambda: igso3.conditional_score(base, samples, 0.8, cfg), reps=3, warmup=False)
    out["igso3.conditional_score.peak_mb"] = peak_mb(
        lambda: igso3.conditional_score(base, samples, 0.8, cfg))
    grid = np.linspace(0.0, np.pi, 1000)
    out["igso3.f_igso3.ms"] = 1e3 * timed(lambda: igso3.f_igso3(grid, 0.5, cfg))
    rt = so3.sample_uniform_so3(rng, n)
    r0 = so3.sample_uniform_so3(rng, n)
    out["igso3.score_from_table.ms"] = 1e3 * timed(
        lambda: igso3.score_from_table(r0, rt, table))
    wide = np.broadcast_to(np.eye(3), (100_000, 3, 3))
    out["igso3.sample_igso3.ms"] = 1e3 * timed(lambda: igso3.sample_igso3(wide, table, rng))


def _walk(n: int, n_steps: int):
    """A reverse walk at fixed inputs; the callable returns False if it fails."""
    trans, rot = schedules.TranslationSchedule(), schedules.RotationSchedule()
    init = process.reference_sample(n, np.random.default_rng(SEED))
    score = process.fixed_target_score(_extended_chain(n), trans, rot)
    sim = process.SimConfig(n_steps=n_steps, eps=0.01, noise_scale=0.1, seed=SEED)

    def run() -> bool:
        try:
            process.reverse_walk(init, score, trans, rot, sim,
                                 np.random.default_rng(SEED), record=False)
        except (ValueError, FloatingPointError):
            return False
        return True
    return run


def _extended_chain(n: int):
    """The sample-backbones target: identity frames 0.38 nm apart along x."""
    translations = np.zeros((n, 3))
    translations[:, 0] = 0.38 * np.arange(n)
    rotations = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    return process.center(process.FrameSet(rotations, translations))


def bench_process(out: dict) -> None:
    # One-step walks with the step's table already cached. The step does
    # all its work before the centering check that trips at large N, so
    # its time is the step's cost either way; the multi-step probes below
    # count the failures.
    for n in WALK_SIZES:
        out[f"process.reverse_walk.step_ms.n{n}"] = 1e3 * timed(_walk(n, 2), reps=10)
    out["process.fail_count"] = sum(not _walk(n, FAIL_PROBE_STEPS)() for n in WALK_SIZES)


def bench_toy(out: dict) -> None:
    target = toy.random_target(3, seed=SEED)
    rng = np.random.default_rng(SEED)
    table = igso3.build_table(1.0)
    rt = so3.sample_uniform_so3(rng, 5000)
    out["toy.score_t.ms"] = 1e3 * timed(lambda: toy.score_t(target, rt, 1.0, table=table))
    cfg = toy.ToyRunConfig(n_paths=2000, final_time=4.0, n_steps=100)
    out["toy.run_forward.s"] = timed(
        lambda: toy.run_forward(target, cfg, np.random.default_rng(SEED)),
        reps=1, budget_s=0.0, warmup=False)
    out["toy.run_reverse.s"] = cold(
        lambda: toy.run_reverse(target, cfg, np.random.default_rng(SEED)), reps=1)


def bench_backbone(out: dict) -> None:
    fs = process.reference_sample(2048, np.random.default_rng(SEED))
    out["backbone.frameset_to_atoms.ms"] = 1e3 * timed(
        lambda: backbone.frameset_to_atoms(fs), reps=3)
    residues = backbone.frameset_to_atoms(fs)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent,
                                     prefix=".perfbench-") as tmp:
        path = str(Path(tmp) / "micro.pdb")
        out["backbone.write_pdb.ms"] = 1e3 * timed(
            lambda: backbone.write_pdb(path, residues), reps=3)
        out["backbone.read_pdb.ms"] = 1e3 * timed(lambda: backbone.read_pdb(path), reps=3)
        # The sample-backbones target at this size spans about +-390 nm,
        # wider than a %8.3f PDB column holds.
        backbone.write_pdb(path, backbone.frameset_to_atoms(_extended_chain(2048)))
        out["backbone.pdb_overflow_atoms"] = checks.pdb_overflow_atoms(checks.read_pdb(Path(path))[2])


def run_all() -> dict:
    out: dict = {}
    for bench in (bench_so3, bench_igso3, bench_process, bench_toy, bench_backbone):
        bench(out)
    return out
