"""Score-based diffusion on SO(3) and SE(3)^N with backbone-frame geometry."""

import importlib

from . import backbone, igso3, process, schedules, so3, toy
from .igso3 import IGSO3Table, NumericalDomainError, TruncationConfig
from .process import FrameSet, SimConfig
from .schedules import RotationSchedule, TranslationSchedule

__all__ = [
    "backbone",
    "cli",
    "igso3",
    "process",
    "schedules",
    "so3",
    "toy",
    "FrameSet",
    "IGSO3Table",
    "NumericalDomainError",
    "RotationSchedule",
    "SimConfig",
    "TranslationSchedule",
    "TruncationConfig",
]

__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use: importing it with the package would make
    # ``python -m se3diffuse.cli`` find it in sys.modules before running it.
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
