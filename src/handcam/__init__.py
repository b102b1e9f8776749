"""Hand-state recognition pipeline for wrist-mounted cameras.

Stages: across-video hand alignment, per-frame state classification,
state-change candidate detection, joint decoding over change candidates,
object discovery by clustering, and per-frame evaluation.
"""

__version__ = "0.1.0"

from .core import (
    Camera,
    FeatureStream,
    LabelSpace,
    StateSequence,
    Task,
)

__all__ = [
    "Camera",
    "FeatureStream",
    "LabelSpace",
    "StateSequence",
    "Task",
    "__version__",
]
