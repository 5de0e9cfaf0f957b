"""Score-based diffusion on SO(3) and SE(3)^N with backbone-frame geometry."""

import importlib

__version__ = "0.1.0"

# The module that defines each re-exported class.
_HOMES = {"FrameSet": "process", "NumericalDomainError": "igso3",
          "RotationSchedule": "schedules", "SimConfig": "process",
          "TranslationSchedule": "schedules", "TruncationConfig": "igso3"}
__all__ = ["backbone", "cli", "igso3", "process", "schedules", "so3", "toy", *_HOMES]


class UsageError(Exception):
    """A command line or ``--config`` value the CLI rejects (exit code 1).

    Defined here, not in cli: ``python -m se3diffuse.cli`` runs a second copy
    of cli, whose ``main`` would not catch the first copy's class.
    """


def __getattr__(name):
    # Submodules and their classes load on first access, so importing the
    # package loads no numpy, and ``python -m se3diffuse.cli`` finds no cli
    # in sys.modules before running it.
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
