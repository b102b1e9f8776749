"""Shared domain types: label spaces, feature streams, state sequences.

Everything here is immutable after construction. A stream read from a
`.feat` file holds a read-only view of the file's mapping, and
`release_pages` gives back the pages of the rows a consumer has used.
"""

from __future__ import annotations

import csv
import json
import mmap
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

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


def frozen_array(arr: np.ndarray) -> np.ndarray:
    """`arr` as a read-only C-contiguous array that its caller cannot change.

    A writable or non-contiguous argument is copied, so the caller's array
    stays writable and later writes to it do not reach the stored one; an
    array that is already read-only and contiguous is stored as it is.

    Hand-over rule: a function that has just made an array and keeps no
    other reference to it sets it read-only before passing it in, and the
    array is then kept without a copy (as `read_features` and
    `synth.gen_feature_stream` do).
    """
    if arr.flags.writeable or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
    arr.setflags(write=False)
    return arr


# Rows of float32 features upcast to float64 at a time by the consumers
# that compute in float64 (segment means, state scoring).
UPCAST_ROWS = 4096

# Frames per second of a stream when none is given.
DEFAULT_FPS = 6.0


# madvise's "drop these pages" advice, or None where mmap cannot give it
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None) if hasattr(mmap.mmap, "madvise") else None


def release_pages(rows: np.ndarray) -> None:
    """Give back the resident pages behind `rows`, a C-contiguous view of a
    read-only file mapping (a block of rows of a stream that
    `features.read_features` read), rounded out to whole pages.

    The pages stay mapped: reading them again faults them back in from the
    file, with the same bytes, and a fault on neighbouring rows may map
    some of them again. The view is walked back to its mapping through
    `.base` to a memoryview and its `.obj`. An array that is not a view of
    an `mmap` (an in-memory stream) is left as it is, and so is every array
    where mmap has no `madvise` or no `MADV_DONTNEED`: there the pages of a
    read stream stay resident until the stream is dropped.
    """
    base = rows
    while isinstance(base, np.ndarray):
        base = base.base
    if (_DONTNEED is None or not rows.nbytes or not rows.flags.c_contiguous
            or not isinstance(base, memoryview) or not isinstance(base.obj, mmap.mmap)):
        return
    mapping = base.obj
    start = rows.ctypes.data - np.frombuffer(mapping, np.uint8, count=1).ctypes.data
    first = start - start % mmap.PAGESIZE  # madvise takes a page-aligned start
    mapping.madvise(_DONTNEED, first, start + rows.nbytes - first)


def all_finite(arr: np.ndarray) -> bool:
    """Whether no value of arr is NaN or infinite. NaN propagates through
    min and max, so their two scalars decide it, with no mask of arr."""
    return arr.size == 0 or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


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


def check_fps(fps: float) -> None:
    if not 0 < fps < np.inf:
        raise ValueError(f"fps must be positive and finite, got {fps}")


@dataclass(frozen=True)
class FeatureStream:
    """Per-frame feature vectors of one video at a fixed frame rate.

    Frames are stored as one (N, D) array; row i is frame i on a
    contiguous 0..N-1 timeline (DEFAULT_FPS unless given).
    float32 values, such as a feature file's payload, are kept as float32,
    and float64 values as float64; any other values become float64. Every
    float32 value upcasts exactly, so consumers that compute in float64
    upcast blocks of rows as they use them, not a copy of the stream, and
    give back a mapped stream's pages with `release_pages` once they are
    used. The finiteness check, too, reads UPCAST_ROWS rows at a time and
    gives back each block's pages.
    """

    video_id: str
    camera: Camera
    fps: float
    values: np.ndarray

    def __post_init__(self) -> None:
        check_fps(self.fps)
        vals = np.asarray(self.values)
        if vals.dtype != np.float32:
            vals = np.asarray(vals, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError("feature values must be a 2-d (frames x dim) array")
        for lo in range(0, vals.shape[0], UPCAST_ROWS):
            block = vals[lo : lo + UPCAST_ROWS]
            if not all_finite(block):
                raise ValueError("non-finite feature values")
            release_pages(block)
        object.__setattr__(self, "values", frozen_array(vals))

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
        object.__setattr__(self, "states", frozen_array(states))

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
    ends at N. Returns a (len(starts), D) float64 matrix. The segments are
    summed in groups of whole segments of up to UPCAST_ROWS rows (a longer
    segment is a group of its own), each group upcast to float64 on its own:
    `reduceat` with a dtype would cast all its input first. A segment's sum
    does not depend on its group, so float32 values give the bits of their
    float64 copy. Each group's pages of a mapped stream are given back after
    its sums (`release_pages`).
    """
    values = np.asarray(values)
    starts = np.asarray(starts, dtype=np.int64)
    bounds = np.append(starts, values.shape[0])
    sums = np.empty((starts.size, values.shape[1]))
    j = 0
    while j < starts.size:
        k = max(int(np.searchsorted(bounds, bounds[j] + UPCAST_ROWS, side="right")) - 1, j + 1)
        group = values[bounds[j] : bounds[k]]
        # the upcast is a temporary, so one float64 group is alive at a time
        np.add.reduceat(np.asarray(group, dtype=np.float64), bounds[j:k] - bounds[j], axis=0,
                        out=sums[j:k])
        release_pages(group)
        j = k
    return sums / np.diff(bounds)[:, None]


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


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at path; other bytes raise a ValueError that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None


def load_label_space(path: str | Path) -> LabelSpace:
    """Parse a label-space declaration file; every error names it.

    Format: '#' comments, blank lines, and three 'key = value' entries::

        task = gesture
        labels = free, fist, hook, ...
        free_label = free
    """
    path = Path(path)
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
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
    try:
        return LabelSpace(task, labels, labels.index(entries["free_label"]))
    except ValueError as e:  # a label count the task does not allow, or a repeated label
        raise ValueError(f"{path}: {e}") from None


def write_json(doc: dict, path: str | Path) -> None:
    """The one layout of every JSON file the package writes: indented, keys
    sorted, with a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(rows: Iterable[Sequence], path: str | Path) -> None:
    """The one layout of every CSV file the package writes: comma-separated
    rows, each ending in a newline, with a field quoted when it holds a
    comma, a quote or a newline (a video id can)."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def remove_stale(directory: Path, kind: str, keep: set | tuple = (), rmdir: bool = False) -> None:
    """Delete the regular files in directory whose names match kind (the
    names one writer could write) in full, except the names in keep, which
    this run writes; with rmdir, the directory too if that empties it."""
    for path in directory.iterdir():
        if path.name not in keep and re.fullmatch(kind, path.name) and path.is_file():
            path.unlink()
    if rmdir and not any(directory.iterdir()):
        directory.rmdir()
