#!/usr/bin/env python3
"""Print a benchmark result file, or compare two of them.

    python3 perfbench/report.py AFTER.json             # every metric, by workload
    python3 perfbench/report.py AFTER.json BEFORE.json # ... with the change from BEFORE

Result files are written by ``run.py --out`` (``run_all.sh`` fills one for
every workload). End-to-end metrics print one row per workload; per-layer
metrics print one row per metric with a column per workload. In a
comparison each cell shows the relative change, and an end-to-end change
worse than its bound in BENCHMARK.json is marked ``!``. A single pair of
runs decides nothing; see the README for how a gain is claimed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())["runs"]


def value(runs: dict, workload: str, section: str, name: str):
    metric = runs.get(workload, {}).get(section, {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def cell(new, old, spec: dict) -> str:
    if new is None:
        return "-"
    text = f"{new:.4g}"
    if old is None:
        return text
    if old == 0:
        return text if new == 0 else f"{text} (was 0)"
    change = new / old - 1.0
    worse = change > 0 if spec["better"] == "lower" else change < 0
    flag = "!" if "bound" in spec and worse and abs(change) > spec["bound"] else ""
    return f"{text} ({change:+.1%}){flag}"


def table(rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 1
    new = load(argv[0])
    old = load(argv[1]) if len(argv) == 2 else {}
    workloads = [w["name"] for w in SPEC["workloads"]]

    print("end to end: median over each run's passes")
    rows = [["workload"] + [f"{m['name']} [{m['unit']}]" for m in SPEC["end_to_end"]]]
    for w in workloads:
        rows.append([w] + [cell(value(new, w, "end_to_end", m["name"]),
                                value(old, w, "end_to_end", m["name"]), m)
                           for m in SPEC["end_to_end"]])
    table(rows)

    print("\nper layer (traced run)")
    rows = [["metric [unit]"] + workloads]
    for m in SPEC["per_layer"]:
        rows.append([f"{m['name']} [{m['unit']}]"]
                    + [cell(value(new, w, "per_layer", m["name"]),
                            value(old, w, "per_layer", m["name"]), m) for w in workloads])
    table(rows)

    print("\nruns")
    for w in workloads:
        for section in ("end_to_end", "per_layer"):
            rec = new.get(w, {}).get(section)
            if rec:
                meta = rec["meta"]
                print(f"{w} {section}: seed {rec['seed']}, {rec['attempted']} attempted, "
                      f"{rec['failed']} failed, rev {meta['git_revision']}, "
                      f"{meta['src_scripts_lines']} lines in src+scripts, "
                      f"{meta['cpu_model']} x{meta['nproc']}, python {meta['python']}, "
                      f"numpy {meta['numpy']}, {meta['blas']} ({meta['blas_threads']} threads)")
                for name, st in rec["stats"].items():
                    if isinstance(st, dict) and "median" in st:
                        tail = [f"{k} {v:.4g}" for k, v in st.items()
                                if k.startswith("p") and k[1:].isdigit()]
                        print(f"  {name}: n={st['n']} median {st['median']:.4g} "
                              f"max {st['max']:.4g}" + "".join(f", {t}" for t in tail))
                for problem in rec["problems"]:
                    print(f"  problem: {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
