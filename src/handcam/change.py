"""State-change candidate detection.

The change feature of frame i is the elementwise absolute difference of the
frame features d frames before and after it. A binary classifier scores
these, and greedy non-maximum suppression keeps local peaks as the change
candidate set. No confidence floor is applied: recall matters more than
precision here, since the decoder prunes false candidates.

Convention used throughout the pipeline: a transition index is the first
frame of the new state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .classify import LinearModel, TrainConfig, train_binary
from .core import FeatureStream, StateSequence, run_starts


@dataclass(frozen=True)
class CandidateSet:
    """NMS-retained change candidates, ordered by frame index."""

    frame_indices: np.ndarray
    confidences: np.ndarray
    suppression_radius: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.frame_indices, dtype=np.int64)
        conf = np.asarray(self.confidences, dtype=np.float64)
        if idx.ndim != 1 or conf.shape != idx.shape:
            raise ValueError("indices and confidences must be matching 1-d arrays")
        if idx.size and np.any(np.diff(idx) <= self.suppression_radius):
            raise ValueError(
                "candidate indices must be strictly increasing and separated "
                "by more than the suppression radius"
            )
        for name, arr in (("frame_indices", idx), ("confidences", conf)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.frame_indices.shape[0]


def valid_band(n_frames: int, d: int) -> tuple[int, int]:
    """Inclusive frame range [d, n-1-d] where the change feature exists."""
    return d, n_frames - 1 - d


def change_feature(stream: FeatureStream, i: int, d: int) -> np.ndarray:
    lo, hi = valid_band(stream.n_frames, d)
    if not lo <= i <= hi:
        raise ValueError(
            f"frame {i} outside the valid change band [{lo}, {hi}]; "
            "border frames carry no change feature"
        )
    return np.abs(stream.values[i - d] - stream.values[i + d])


def change_feature_matrix(stream: FeatureStream, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All in-band change features: (band frame indices, (len(band), D))."""
    n = stream.n_frames
    lo, hi = valid_band(n, d)
    if hi < lo:
        return np.empty(0, dtype=np.int64), np.empty((0, stream.dim))
    cf = np.abs(stream.values[: n - 2 * d] - stream.values[2 * d :])
    return np.arange(lo, hi + 1), cf


def label_change_frames(truth: StateSequence, d: int) -> np.ndarray:
    """Per-frame binary change labels: 1 within d frames of a transition,
    0 otherwise, -1 outside the valid band (excluded from training)."""
    n = len(truth)
    labels = np.zeros(n, dtype=np.int8)
    for t in run_starts(truth.states)[1:]:
        labels[max(0, t - d) : min(n, t + d + 1)] = 1
    lo, hi = valid_band(n, d)
    labels[: max(0, lo)] = -1
    labels[max(0, hi + 1) :] = -1
    return labels


def suppress_non_maxima(
    frame_indices: np.ndarray, confidences: np.ndarray, radius: int
) -> CandidateSet:
    """Keep local confidence maxima, separated by more than the radius.

    A frame qualifies only if its raw confidence dominates every frame
    within the radius; qualifying frames are then taken greedily (highest
    first, ties to the earlier frame), each suppressing its neighborhood,
    which resolves plateaus of equal confidence. Every retained confidence
    is therefore >= all raw confidences within its radius.
    """
    idx = np.asarray(frame_indices, dtype=np.int64)
    conf = np.asarray(confidences, dtype=np.float64)
    is_local_max = np.array(
        [
            conf[j] >= conf[np.abs(idx - idx[j]) <= radius].max()
            for j in range(idx.size)
        ],
        dtype=bool,
    )
    order = np.argsort(-conf, kind="stable")  # stable: equal scores keep earlier frames
    alive = np.ones(idx.size, dtype=bool)
    kept = []
    for j in order:
        if not alive[j] or not is_local_max[j]:
            continue
        kept.append(j)
        alive[np.abs(idx - idx[j]) <= radius] = False
    kept.sort()
    return CandidateSet(idx[kept], conf[kept], radius)


def detect_candidates(
    stream: FeatureStream, change_model: LinearModel, d: int
) -> CandidateSet:
    """Score all in-band frames with the change model at half-width d and
    run greedy NMS at radius d, so detection works on one temporal scale.

    A model that records its training d must be run with that d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not change_model.is_binary:
        raise ValueError("detect_candidates requires a binary change model")
    if change_model.d is not None and change_model.d != d:
        raise ValueError(
            f"d={d} differs from the d={change_model.d} the change model was trained with"
        )
    if change_model.dim != stream.dim:
        raise ValueError(
            f"change model dim {change_model.dim} does not match stream dim {stream.dim}"
        )
    if stream.n_frames < 2 * d + 1:
        warnings.warn(
            f"stream {stream.video_id}: {stream.n_frames} frames is shorter than "
            f"2d+1 = {2 * d + 1}; no change candidates",
            stacklevel=2,
        )
        return CandidateSet(np.empty(0, dtype=np.int64), np.empty(0), d)
    band, cf = change_feature_matrix(stream, d)
    conf = cf @ change_model.weights[0] + change_model.bias[0]
    return suppress_non_maxima(band, conf, d)


def change_training_set(
    streams: Sequence[FeatureStream], truths: Sequence[StateSequence], d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack in-band change features and labels across labeled videos."""
    xs, ys = [], []
    for stream, truth in zip(streams, truths):
        if stream.n_frames != len(truth):
            raise ValueError(f"video {stream.video_id}: frame/label count mismatch")
        if stream.n_frames < 2 * d + 1:
            continue
        band, cf = change_feature_matrix(stream, d)
        labels = label_change_frames(truth, d)[band]
        xs.append(cf)
        ys.append(labels)
    if not xs:
        raise ValueError("no video is long enough for the requested d")
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


def train_change_model(
    streams: Sequence[FeatureStream],
    truths: Sequence[StateSequence],
    d: int,
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train the binary change scorer at half-width d; the model records d."""
    x, y = change_training_set(streams, truths, d)
    return replace(train_binary(x, y, config), d=d)
