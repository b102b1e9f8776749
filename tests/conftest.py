"""Helpers shared by the test modules."""

import tracemalloc
from pathlib import Path

import pytest

from handcam.classify import TrainConfig, train
from handcam.core import Camera, FeatureStream, LabelSpace, StateSequence, Task
from handcam.media import frame_path, save_ppm


def free_active(free="free", active="active"):
    """The two-label free/active space, its free label first."""
    return LabelSpace(Task.FREE_ACTIVE, (free, active), 0)


def train_arrays(x, y, space, config=TrainConfig()):
    """`train` on the rows of x labeled y, as one stream; space is a label
    space, or a state count for a model detached from one."""
    truth = (StateSequence(space, y) if isinstance(space, LabelSpace)
             else StateSequence(None, y, num_states=space))
    return train([FeatureStream("v", Camera.HEAD, 6.0, x)], [truth], config)


def save_frames(frames, video_dir):
    """Write frames as the video directory video_dir, one `save_ppm` file
    per frame numbered from 0; the directory is made if missing."""
    video_dir = Path(video_dir)
    video_dir.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(frames):
        save_ppm(img, frame_path(video_dir, i))


def _traced_peak(fn, *args):
    """Run fn(*args) under tracemalloc: (the peak traced bytes over the
    baseline at the start, fn's result)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """`traced_peak(fn, *args)` -> (peak bytes over the baseline, result)."""
    return _traced_peak
