#!/usr/bin/env python3
"""se3diffuse benchmark: the CLI workloads end to end, the layers when traced.

    python3 perfbench/run.py --workload bb-narrow --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload's command sequence as a closed loop: one
client starts a fresh interpreter per command, waits for it to exit and
starts the next, and repeats the sequence until ``--seconds`` of it have
been measured. Each process calls ``se3diffuse.cli:main`` with ``src`` on
PYTHONPATH and writes into a scratch directory inside the checkout that
is deleted after every pass. The first pass is checked in full; later
passes must write byte-identical artifacts.

``--trace 1`` runs the per-layer micro-benchmarks, then the same command
lines in-process through ``cli.main(argv)``, once plain and once with
every public function of the layer modules wrapped in spans.

The last line of standard output is the machine-readable result: exactly
``correct``, ``attempted``, ``failed`` and ``metrics``, with metric names
and units from BENCHMARK.json. ``--out FILE`` also merges the full result
(metadata, percentiles, sample counts, diagnostics) into FILE, which
``perfbench/report.py`` prints and compares.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import meta  # noqa: E402
from spans import LAYERS, Tracer, clear_caches  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Interpreter start-ups per run for setup_s.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
CHILD_MAIN = "import sys; from se3diffuse.cli import main; sys.exit(main(sys.argv[1:]))"
CHILD_SETUP = "from se3diffuse import cli; cli.build_parser()"


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    error: str | None  # None when the process exited 0 without a traceback


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(program: str, args: list[str], cwd: Path, env: dict) -> Proc:
    """Run one fresh interpreter to completion; wall time and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", program, *args], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stderr = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4; Popen must not wait again
    error = None
    if code != 0 or "Traceback" in stderr:
        tail = stderr.strip().splitlines()[-1:] or [""]
        error = f"`{' '.join(args) or 'setup'}` exited {code}: {tail[0]}"
    return Proc(wall, usage.ru_maxrss / 1024.0, error)


@contextlib.contextmanager
def scratch_dir():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        yield Path(tmp)


def snapshot(directory: Path) -> dict[str, tuple[int, int]]:
    return {str(p.relative_to(directory)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.rglob("*") if p.is_file()}


def artifact_digest(directory: Path, names) -> tuple[str, int]:
    """sha256 and total size of the named files; manifests without run time."""
    digest, total = hashlib.sha256(), 0
    for name in sorted(names):
        data = (directory / name).read_bytes()
        total += len(data)
        if name.endswith("manifest.json"):
            manifest = json.loads(data)
            manifest.pop("duration_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest(), total


def run_commands(commands, tmp: Path, execute) -> list[dict]:
    """Run the commands in order; per command, its result and new artifacts."""
    results = []
    for cmd in commands:
        before = snapshot(tmp)
        outcome = execute(cmd.argv, tmp)
        after = snapshot(tmp)
        written = [name for name, stat in after.items() if before.get(name) != stat]
        digest, nbytes = artifact_digest(tmp, written)
        results.append({"outcome": outcome, "error": outcome.error,
                        "digest": digest, "bytes": nbytes})
    return results


def check_commands(commands, tmp: Path, results: list[dict], problems: list) -> dict:
    """Check every command that ran cleanly; record failures in the results."""
    diagnostics = {}
    for cmd, res in zip(commands, results):
        if res["error"]:
            continue
        try:
            diagnostics.update(cmd.check(tmp, ROOT))
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            res["error"] = f"`{' '.join(cmd.argv)}` check failed: {exc}"
            problems.append(res["error"])
    return diagnostics


def spread(samples: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and n."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "min": ordered[0],
           "max": ordered[-1], "samples": samples}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
    return out


# ------------------------------------------------------------ end to end

def end_to_end(workload, seed: int, seconds: float) -> dict:
    env = child_env()
    problems: list[str] = []
    commands = workload.commands(seed)
    attempted = failed = 0

    def run_pass():
        nonlocal attempted, failed
        with scratch_dir() as tmp:
            results = run_commands(
                commands, tmp, lambda argv, cwd: spawn(CHILD_MAIN, argv, cwd, env))
            problems.extend(res["error"] for res in results if res["error"])
            if reference is None:
                diagnostics.update(check_commands(commands, tmp, results, problems))
            else:
                for cmd, res, ref in zip(commands, results, reference):
                    if not res["error"] and res["digest"] != ref:
                        res["error"] = f"`{' '.join(cmd.argv)}` artifacts changed on a repeated seed"
                        problems.append(res["error"])
        attempted += len(results)
        failed += sum(bool(res["error"]) for res in results)
        return results

    # The first pass is the warm-up: it fills the bytecode and page caches,
    # is checked in full, and is not timed. Later passes must match its bytes.
    reference: list[str] | None = None
    diagnostics: dict = {}
    reference = [res["digest"] for res in run_pass()]

    setup: list[float] = []

    def probe_setup():
        nonlocal attempted, failed
        proc = spawn(CHILD_SETUP, [], ROOT, env)
        attempted += 1
        if proc.error:
            failed += 1
            problems.append(proc.error)
        setup.append(proc.wall_s)

    passes: list[dict] = []
    measured = 0.0
    # Start a pass only if it should finish within the measuring time, so a
    # run lasts about --seconds whatever the pass length. The set-up probes
    # are spread over the same time, so both medians see the same drift.
    while not passes or measured + passes[-1]["wall_s"] <= seconds:
        if len(setup) < SETUP_PROBES * measured / seconds + 1:
            probe_setup()
        results = run_pass()
        wall = sum(res["outcome"].wall_s for res in results)
        measured += wall
        passes.append({
            "wall_s": wall,
            "rss_mb": max(res["outcome"].rss_mb for res in results),
            "out_mb": sum(res["bytes"] for res in results) / 1e6,
            "command_wall_s": [res["outcome"].wall_s for res in results],
        })

    while len(setup) < SETUP_PROBES:
        probe_setup()

    wall_s = statistics.median(p["wall_s"] for p in passes)
    metrics = {
        "wall_s": wall_s,
        "work_per_s": workload.work / wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "out_mb": statistics.median(p["out_mb"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
    }
    stats = {
        "wall_s": spread([p["wall_s"] for p in passes]),
        "setup_s": spread(setup),
        "command_wall_s": [
            {"argv": " ".join(cmd.argv),
             **spread([p["command_wall_s"][i] for p in passes])}
            for i, cmd in enumerate(commands)
        ],
        "work_units": f"{workload.work} {workload.work_unit} per pass",
    }
    return {"metrics": metrics, "stats": stats, "diagnostics": diagnostics,
            "attempted": attempted, "failed": failed, "problems": problems}


# ------------------------------------------------------------ per layer

def in_process(modules: dict, tracer: Tracer | None):
    """An executor that runs one command line through ``cli.main`` here.

    Every lru_cache in the layers is emptied first, so each command starts
    as cold as it would in a fresh interpreter.
    """
    def execute(argv, cwd):
        clear_caches(modules.values())
        if tracer is not None:
            tracer.command += 1
        old = os.getcwd()
        start = time.perf_counter()
        try:
            os.chdir(cwd)
            code = modules["cli"].main(list(argv))
            error = None if code == 0 else f"`{' '.join(argv)}` returned {code}"
        except Exception as exc:  # a traceback in the CLI is a failed operation
            error = f"`{' '.join(argv)}` raised {type(exc).__name__}: {exc}"
        finally:
            os.chdir(old)
        return Proc(time.perf_counter() - start, 0.0, error)
    return execute


def per_layer(workload, seed: int, spans_path: Path | None) -> dict:
    import micro

    modules = {layer: importlib.import_module(f"se3diffuse.{layer}") for layer in LAYERS}
    metrics = micro.run_all()
    commands = workload.commands(seed)
    problems: list[str] = []

    with scratch_dir() as tmp:
        plain = run_commands(commands, tmp, in_process(modules, None))
    tracer = Tracer()
    tracer.install(modules)
    try:
        with scratch_dir() as tmp:
            traced = run_commands(commands, tmp, in_process(modules, tracer))
            diagnostics = check_commands(commands, tmp, traced, problems)
            read_bytes = [sum(p.stat().st_size for d in cmd.reads
                              for p in (tmp / d).rglob("*") if p.is_file())
                          for cmd in commands]
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)

    for cmd, p, t in zip(commands, plain, traced):
        problems += [e for e in (p["error"], t["outcome"].error) if e]
        if not (p["error"] or t["error"]) and p["digest"] != t["digest"]:
            t["error"] = f"`{' '.join(cmd.argv)}` wrote other bytes when traced"
            problems.append(t["error"])

    self_s = tracer.self_times()
    calls = tracer.calls()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)

    # A cached_table call that reaches no other igso3 function was a hit.
    has_child = {span[4] for span in tracer.spans if span[1] == "igso3"}
    table_calls = [i for i, s in enumerate(tracer.spans) if s[0] == "igso3.cached_table"]
    hits = sum(i not in has_child for i in table_calls)
    metrics["igso3.table_builds"] = calls.get("igso3.build_tables", 0)
    metrics["igso3.cached_table.calls"] = len(table_calls)
    metrics["igso3.cached_table.hit_ratio"] = hits / len(table_calls) if table_calls else 0.0

    write_b = write_s = parse_b = parse_s = 0.0
    for i, (cmd, res) in enumerate(zip(commands, traced)):
        cli_s = tracer.self_times(command=i).get("cli", 0.0)
        if cmd.reads:
            parse_b, parse_s = parse_b + read_bytes[i], parse_s + cli_s
        else:
            write_b, write_s = write_b + res["bytes"], write_s + cli_s
    metrics["cli.write_mb_per_s"] = write_b / 1e6 / write_s if write_s else 0.0
    metrics["cli.parse_mb_per_s"] = parse_b / 1e6 / parse_s if parse_s else 0.0

    plain_wall = sum(res["outcome"].wall_s for res in plain)
    traced_wall = sum(res["outcome"].wall_s for res in traced)
    metrics["trace.plain_wall_s"] = plain_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.spans"] = len(tracer.spans)

    failed = sum(bool(r["error"]) for r in plain)
    failed += sum(bool(r["error"]) for r in traced)
    return {"metrics": metrics, "stats": {}, "diagnostics": diagnostics,
            "attempted": 2 * len(commands), "failed": failed, "problems": problems}


# ------------------------------------------------------------------ main

def merge_into(path: Path, workload: str, section: str, record: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    data["runs"].setdefault(workload, {})[section] = record
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="merge the full result into this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (SRC / "se3diffuse" / "cli.py", spec_path):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    workload = WORKLOADS[args.workload]
    if args.trace:
        spans = args.out and args.out.with_name(f"{args.out.stem}.{args.workload}.spans.jsonl")
        result = per_layer(workload, args.seed, spans)
    else:
        result = end_to_end(workload, args.seed, args.seconds)

    if set(result["metrics"]) != set(units):
        drift = sorted(set(result["metrics"]) ^ set(units))
        print(f"error: metrics differ from BENCHMARK.json {section}: {drift}", file=sys.stderr)
        return 2
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]}
               for name in units}
    correct = result["failed"] == 0

    run_meta = meta.collect(ROOT)
    print(f"meta: {json.dumps(run_meta, sort_keys=True)}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:38s} {m['value']:>14.6g} {m['unit']}")

    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "meta": run_meta, "correct": correct,
                  **{k: result[k] for k in ("attempted", "failed", "problems",
                                            "stats", "diagnostics")},
                  "metrics": metrics}
        merge_into(args.out, args.workload, section, record)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
