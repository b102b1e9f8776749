"""Shared domain types: label spaces, feature streams, state sequences.

Everything here is immutable after construction and safe to share across
parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
import numpy as np


class Task(Enum):
    FREE_ACTIVE = "free_active"
    GESTURE = "gesture"
    OBJECT_CATEGORY = "object_category"


# Fixed label cardinality per task: free/active, 12 gestures + free,
# 23 object categories + free.
TASK_LABEL_COUNTS = {
    Task.FREE_ACTIVE: 2,
    Task.GESTURE: 13,
    Task.OBJECT_CATEGORY: 24,
}


class Camera(Enum):
    LEFT_HAND = "left_hand"
    RIGHT_HAND = "right_hand"
    HEAD = "head"


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabelSpace:
    """Ordered set of state names for one recognition task.

    Label order is fixed by the declaration (file or constructor), never
    sorted, so state indices are stable across runs.
    """

    task: Task
    labels: tuple[str, ...]
    free_label_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        expected = TASK_LABEL_COUNTS[self.task]
        if len(self.labels) != expected:
            raise ValueError(
                f"task {self.task.value} requires exactly {expected} labels, "
                f"got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("label names must be unique")
        if not 0 <= self.free_label_index < len(self.labels):
            raise ValueError(f"free_label_index {self.free_label_index} out of range")

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @property
    def free_label(self) -> str:
        return self.labels[self.free_label_index]

    def index_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise ValueError(f"unknown label {name!r}") from None

    @staticmethod
    def free_active(free: str = "free", active: str = "active") -> "LabelSpace":
        return LabelSpace(Task.FREE_ACTIVE, (free, active), 0)


@dataclass(frozen=True)
class FeatureStream:
    """Per-frame feature vectors of one video at a fixed frame rate.

    Frames are stored as one (N, D) array; row i is frame i on a
    contiguous 0..N-1 timeline (6 fps by default in this pipeline).
    """

    video_id: str
    camera: Camera
    fps: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("feature values must be a 2-d (frames x dim) array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StateSequence:
    """Per-frame state indices, optionally tied to a LabelSpace.

    Solver-level code (decoding, synthetic benchmarks) may run with a bare
    state count instead of a declared label space; pass label_space=None
    and num_states explicitly for that.
    """

    label_space: LabelSpace | None
    states: np.ndarray
    num_states: int = field(default=-1)

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.int64)
        if states.ndim != 1:
            raise ValueError("states must be a 1-d index array")
        if self.label_space is not None:
            k = self.label_space.num_labels
            if self.num_states not in (-1, k):
                raise ValueError("num_states disagrees with label_space")
            object.__setattr__(self, "num_states", k)
        elif self.num_states < 1:
            raise ValueError("num_states required when label_space is None")
        if states.size and (states.min() < 0 or states.max() >= self.num_states):
            raise ValueError("state index out of range for the label space")
        object.__setattr__(self, "states", _readonly(states))

    def __len__(self) -> int:
        return self.states.shape[0]

    def label_names(self) -> list[str]:
        if self.label_space is None:
            raise ValueError("sequence has no label space attached")
        return [self.label_space.labels[s] for s in self.states]


def run_starts(states: np.ndarray) -> np.ndarray:
    """First frame of every maximal run of equal states, 0 included.

    All starts after the first are the transitions of the sequence (the
    pipeline's convention: a transition index is the first frame of the
    new state), so `run_starts(s)[1:]` lists them.
    """
    s = np.asarray(states)
    starts = np.ones(s.shape, dtype=bool)
    starts[1:] = s[1:] != s[:-1]
    return np.flatnonzero(starts)


def segment_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean row of each segment [starts[j], starts[j+1]) of an (N, D) matrix.

    starts must be strictly increasing and begin at 0; the last segment
    ends at N. Returns a (len(starts), D) matrix.
    """
    values = np.asarray(values, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.diff(np.append(starts, values.shape[0]))
    return np.add.reduceat(values, starts, axis=0) / lengths[:, None]


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows stay zero.

    The cosine similarity of rows i and j is then the dot product of unit
    rows i and j, clipped to [-1, 1]. A zero row gives cosine 0 with every
    row by convention (a neutral value: degenerate features neither reward
    nor punish a boundary).
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, norms, out=np.zeros_like(x), where=norms > 0)


_TASK_BY_VALUE = {t.value: t for t in Task}


def load_label_space(path: str | Path) -> LabelSpace:
    """Parse a label-space declaration file.

    Format: '#' comments, blank lines, and three 'key = value' entries::

        task = gesture
        labels = free, fist, hook, ...
        free_label = free
    """
    path = Path(path)
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    unknown = set(entries) - {"task", "labels", "free_label"}
    if unknown:
        raise ValueError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("task", "labels", "free_label"):
        if key not in entries:
            raise ValueError(f"{path}: missing key {key!r}")
    task = _TASK_BY_VALUE.get(entries["task"])
    if task is None:
        raise ValueError(f"{path}: unknown task {entries['task']!r}")
    labels = tuple(s.strip() for s in entries["labels"].split(","))
    if any(not s for s in labels):
        raise ValueError(f"{path}: empty label name")
    if entries["free_label"] not in labels:
        raise ValueError(f"{path}: free_label {entries['free_label']!r} not in labels")
    return LabelSpace(task, labels, labels.index(entries["free_label"]))


def save_label_space(space: LabelSpace, path: str | Path) -> None:
    text = (
        f"task = {space.task.value}\n"
        f"labels = {', '.join(space.labels)}\n"
        f"free_label = {space.free_label}\n"
    )
    Path(path).write_text(text, encoding="utf-8")
