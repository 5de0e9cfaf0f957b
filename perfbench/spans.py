"""Span tracing of the se3diffuse layers from outside the package.

``Tracer.install`` replaces every public module-level function of each
layer module with a wrapper that records a span: name, layer, start, end,
the enclosing span and the command it belongs to. Calls inside a module
go through its globals, so they are caught as well, and wrapping the
module attribute leaves an ``lru_cache`` underneath intact. Spans stay in
memory until the caller asks for the per-layer summary or writes them out.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from types import ModuleType

LAYERS = ("so3", "igso3", "schedules", "process", "toy", "backbone", "cli")


def public_functions(module: ModuleType):
    """(name, function) for the public functions a module defines itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def clear_caches(modules) -> None:
    """Empty every lru_cache in the modules, as a fresh interpreter has them.

    Looks through the tracing wrappers, which keep the cached function as
    ``__wrapped__``.
    """
    for module in modules:
        for obj in vars(module).values():
            for candidate in (obj, getattr(obj, "__wrapped__", None)):
                if inspect.isclass(candidate):
                    break
                if callable(getattr(candidate, "cache_clear", None)):
                    candidate.cache_clear()
                    break


class Tracer:
    def __init__(self):
        # (name, layer, start, end, parent index or -1, command index)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.command = -1

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        full = f"{layer}.{name}"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (full, layer, start, time.perf_counter(), parent, self.command)
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, ModuleType]) -> None:
        for layer, module in modules.items():
            for name, fn in list(public_functions(module)):
                self._restore.append((module, name, fn))
                setattr(module, name, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()

    def self_times(self, command: int | None = None) -> dict[str, float]:
        """Per-layer self time: span durations minus their child spans."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, cmd in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, layer, start, end, parent, cmd) in enumerate(self.spans):
            if command is None or cmd == command:
                out[layer] += end - start - child[i]
        return out

    def calls(self) -> dict[str, int]:
        """Span counts per function (``layer.name``) and per layer."""
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
            out[span[1]] += 1
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, layer, start, end, parent, cmd in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "command": cmd}) + "\n")
