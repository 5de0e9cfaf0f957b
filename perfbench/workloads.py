"""The four workloads: CLI command sequences, their work units and checks.

Each workload is a list of ``se3diffuse`` command lines run one after the
other in a scratch directory; the seed argument of the benchmark feeds
every ``--seed``, ``--init-seed`` and ``--atom-seed``. Each command has a
check that reads back what it wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    argv: list[str]
    # (scratch directory, repository root) -> diagnostic counts; raises
    # checks.CheckFailed when the artifacts are wrong.
    check: Callable[[Path, Path], dict]
    # Run directories the command parses, for the cli parse rate.
    reads: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is recorded in BENCHMARK.json
    work_unit: str
    work: int  # work units per pass over the commands
    commands: Callable[[int], list[Command]]  # seed -> command sequence


def _backbones(n_residues: int, n_steps: int, trajectory: bool, seed: int):
    argv = ["sample-backbones", "--n-residues", str(n_residues),
            "--n-steps", str(n_steps), "--zeta", "0.1", "--score", "fixed-target",
            "--seed", str(seed), "--init-seed", str(seed), "--out", "sample"]
    if trajectory:
        argv.append("--trajectory")
    check = partial(checks.check_backbones, stem="sample", n_residues=n_residues,
                    n_steps=n_steps, eps=0.01, trajectory=trajectory)
    return [Command(argv, check)]


TOY = {"atoms": 3, "paths": 2000, "T": 4, "steps": 100}


def _toy(seed: int):
    sizes = ["--atoms", str(TOY["atoms"]), "--paths", str(TOY["paths"]),
             "--T", str(TOY["T"]), "--steps", str(TOY["steps"]),
             "--seed", str(seed), "--atom-seed", str(seed)]
    run_check = partial(checks.check_toy_run, paths=TOY["paths"],
                        steps=TOY["steps"], n_atoms=TOY["atoms"])
    return [
        Command(["toy", "forward", *sizes, "--out-dir", "fwd"],
                lambda d, root: run_check(d / "fwd")),
        Command(["toy", "reverse", *sizes, "--out-dir", "rev"],
                lambda d, root: run_check(d / "rev")),
        Command(["toy", "compare", "--run-a", "fwd", "--run-b", "rev", "--out", "ks.json"],
                lambda d, root: checks.check_toy_compare(
                    d, "fwd", "rev", TOY["paths"], TOY["steps"], TOY["T"]),
                reads=("fwd", "rev")),
    ]


def _igso3(seed: int):
    s = str(seed)
    return [
        Command(["igso3", "eval", "--t", "0.5", "--grid", "1000", "--out", "eval.csv"],
                lambda d, root: checks.check_igso3_eval(d, 0.5, 1000)),
        Command(["igso3", "sample", "--t", "0.8", "--n", "100000", "--seed", s,
                 "--out", "sample.csv"],
                lambda d, root: checks.check_igso3_sample(d, 0.8, 100000)),
        Command(["igso3", "score", "--t", "0.8", "--n", "10000", "--seed", s,
                 "--out", "score.csv"],
                lambda d, root: checks.check_igso3_score(d, 0.8, 10000)),
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("bb-narrow", "residue-steps", 64 * 500,
                 partial(_backbones, 64, 500, True)),
        Workload("bb-wide", "residue-steps", 2048 * 200,
                 partial(_backbones, 2048, 200, False)),
        Workload("toy-roundtrip", "path-steps", 2 * TOY["paths"] * TOY["steps"], _toy),
        Workload("igso3-cli", "rotations", 100000 + 10000, _igso3),
    ]
}
