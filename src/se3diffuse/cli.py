"""Command-line interface: experiments and their CSV/JSON/PDB artifacts.

Subcommands:
  igso3 {eval,sample,score}        series evaluation, sampling, scores
  schedule                         noise-schedule curves as CSV
  toy {forward,reverse,compare}    the discrete-target SO(3) experiment
  sample-backbones                 reverse walk on SE(3)^N, PDB output

Every command writes a run-manifest JSON that lists its outputs, and
:func:`se3diffuse.commands.run` commits the outputs and the manifest all
together or none of them. Exit codes: 0 success, 1 usage error (a count
above ``MAX_COUNT`` is one) or an allocation refused for lack of memory,
2 numerical-domain error, 3 I/O error.

This module imports only the standard library. ``main`` checks every
option, bound and ``--config`` value before it imports numpy and the
library with :mod:`se3diffuse.commands`, which runs the command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import UsageError

# Each command line's options, the only flags it accepts: key -> (type,
# default[, lowest value or choices]). The flag is --key with "_" written as
# "-"; --config files take the keys. A default of None marks a required
# option. A new option goes in the table of the one line that reads it.
OPTIONS = {
    "igso3 eval": {"t": (float, None), "grid": (int, 1000, 2), "out": (str, None)},
    **dict.fromkeys(["igso3 sample", "igso3 score"], {
        "t": (float, None), "grid": (int, 1000, 2), "n": (int, 10000, 0),
        "seed": (int, 0, 0), "out": (str, None)}),
    "schedule": {"beta_min": (float, 0.1), "beta_max": (float, 20.0),
                 "sigma_min": (float, 0.1), "sigma_max": (float, 1.5),
                 "points": (int, 101, 0),
                 "kind": (str, "logarithmic", ("logarithmic", "linear")),
                 "out": (str, None)},
    **dict.fromkeys(["toy forward", "toy reverse"], {
        "atoms": (int, 3, 1), "paths": (int, 5000, 1), "T": (float, 4.0),
        "steps": (int, 200, 2), "seed": (int, 0, 0), "atom_seed": (int, 0, 0),
        "out_dir": (str, None)}),
    "toy compare": {"run_a": (str, None), "run_b": (str, None), "out": (str, None)},
    "sample-backbones": {"n_residues": (int, 32, 1), "n_steps": (int, 500, 2),
                         "eps": (float, 0.01), "zeta": (float, 0.1),
                         "seed": (int, 0, 0), "init_seed": (int, 0, 0),
                         "score": (str, "fixed-target", ("prior-only", "fixed-target")),
                         "out": (str, None), "trajectory": (bool, False)},
}


# The largest count (every int option but the seeds) a command accepts. An
# array of up to 72 bytes per count then stays below the 2**63 bytes that
# numpy can index, so a count too large for the machine ends as a refused
# allocation, not as numpy's ValueError.
MAX_COUNT = 10**17


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def _resolve(args: argparse.Namespace, line: str):
    """``OPTIONS[line]`` values, merged (defaults < --config file < flags) and checked.

    Returns the merged values as given, for the manifest, and a namespace
    of them converted to their declared types, for the command body. A
    required option given nowhere is a usage error, as is a value of
    another JSON type (null is one; an int is accepted where a float is),
    one below its lowest value or one outside its choices, and a count
    above :data:`MAX_COUNT`.
    """
    options = OPTIONS[line]
    config = {key: spec[1] for key, spec in options.items() if spec[1] is not None}
    if args.config:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise UsageError(f"bad --config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("bad --config file: not a JSON object")
        unknown = set(loaded) - set(options)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    flags = vars(args)  # the line's parser has a flag for each option
    config.update({key: flags[key] for key in options if flags[key] is not None})
    missing = sorted(set(options) - set(config))
    if missing:
        raise UsageError(f"missing required options: {missing}")
    checked = argparse.Namespace()
    for key, (kind, _, *bound) in options.items():
        value = config[key]
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise UsageError(f"{key} must be of type {kind.__name__}, got {value!r}")
        if bound and isinstance(bound[0], tuple) and value not in bound[0]:
            raise UsageError(f"{key} must be one of {list(bound[0])}, got {value!r}")
        if bound and not isinstance(bound[0], tuple) and value < bound[0]:
            raise UsageError(f"{key} must be >= {bound[0]}, got {value}")
        if kind is int and not key.endswith("seed") and value > MAX_COUNT:
            raise UsageError(f"{key} must be <= {MAX_COUNT}, got {value}")
        setattr(checked, key, kind(value))
    return config, checked


# ----------------------------------------------------------------- main

# Subcommand -> (help, actions); each action is a command line of OPTIONS.
COMMANDS = {
    "igso3": ("heat-kernel series utilities", ("eval", "sample", "score")),
    "schedule": ("dump schedule curves as CSV", ()),
    "toy": ("discrete-target SO(3) experiment", ("forward", "reverse", "compare")),
    "sample-backbones": ("reverse walk to a PDB file", ()),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="se3diffuse")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, actions) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)  # --out is not --out-dir
        lines = {command: p}
        if actions:
            nested = p.add_subparsers(dest="action", required=True)
            lines = {f"{command} {a}": nested.add_parser(a, allow_abbrev=False) for a in actions}
        for line, leaf in lines.items():
            leaf.set_defaults(line=line)
            for key, (kind, _, *bound) in OPTIONS[line].items():
                flag = "--" + key.replace("_", "-")
                if kind is bool:
                    leaf.add_argument(flag, action="store_true", default=None)
                elif bound and isinstance(bound[0], tuple):
                    leaf.add_argument(flag, choices=bound[0])
                else:
                    leaf.add_argument(flag, type=kind)
            leaf.add_argument("--config")
    return parser


def main(argv=None) -> int:
    domain_errors = (FloatingPointError,)  # igso3's joins once the library loads
    try:
        args = build_parser().parse_args(argv)
        config, values = _resolve(args, args.line)
        from . import commands  # numpy and the library: only for a valid command line
        from .igso3 import NumericalDomainError

        domain_errors += (NumericalDomainError,)
        start = time.monotonic()

        def manifest(outputs: list[str]) -> tuple[str, str]:
            """The path and JSON text of the run's reproducibility record."""
            record = {"command": args.line, "config": config, "outputs": outputs,
                      "seed": getattr(values, "seed", None),
                      "duration_s": time.monotonic() - start}
            path = (os.path.join(config["out_dir"], "manifest.json") if "out_dir" in config
                    else config["out"] + ".manifest.json")
            return path, json.dumps(record, indent=2, sort_keys=True) + "\n"

        commands.run(args.line, values, config, manifest)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. --grid or --points too large to allocate
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except domain_errors as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
