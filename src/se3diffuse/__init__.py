"""Score-based diffusion on SO(3) and SE(3)^N with backbone-frame geometry."""

from . import backbone, cli, igso3, process, schedules, so3, toy
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
