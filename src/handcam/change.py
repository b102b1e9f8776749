"""State-change candidate detection.

The change feature of frame i is the elementwise absolute difference of the
frame features d frames before and after it. A binary classifier scores
these, and non-maximum suppression keeps local peaks as the change
candidates, in time linear in the number of frames: two plain arrays, the
int64 frame indices (increasing, more than d apart, inside [d, n-1-d]) and
their float64 confidences. No confidence floor is applied: recall matters
more than precision here, since the decoder prunes false candidates.

Convention used throughout the pipeline: a transition index is the first
frame of the new state.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .classify import LinearModel, TrainConfig, check_videos, train_binary
from .core import FeatureStream, StateSequence, release_pages, run_starts


def valid_band(n_frames: int, d: int) -> tuple[int, int]:
    """Inclusive frame range [d, n-1-d] where the change feature exists."""
    return d, n_frames - 1 - d


def change_feature_matrix(
    stream: FeatureStream, d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The change features of the in-band frames `valid_band(n, d)`, one
    (n - 2d, D) float64 row each, written into `out` when it is given.
    float32 values are upcast as they are subtracted, which gives the bits
    of their float64 copy. A mapped stream's pages are given back once the
    features are built."""
    n = stream.n_frames
    lo, hi = valid_band(n, d)
    if hi < lo:
        return np.empty((0, stream.dim))
    cf = np.subtract(stream.values[: n - 2 * d], stream.values[2 * d :], out=out,
                     dtype=np.float64)
    np.abs(cf, out=cf)
    release_pages(stream.values)
    return cf


def label_change_frames(truth: StateSequence, d: int) -> np.ndarray:
    """Binary change labels of the in-band frames `valid_band(n, d)`: 1
    within d frames of a transition, 0 otherwise."""
    lo, hi = valid_band(len(truth), d)
    labels = np.zeros(max(0, hi + 1 - lo), dtype=np.int8)
    for t in run_starts(truth.states)[1:]:  # frames t-d..t+d are in-band rows t-2d..t
        labels[max(0, t - 2 * d) : t + 1] = 1
    return labels


def suppress_non_maxima(confidences: np.ndarray, radius: int) -> np.ndarray:
    """The positions in a confidence track of its local maxima, separated by
    more than the radius, as int64.

    A position qualifies only if its raw confidence dominates every one
    within the radius (a windowed maximum over the track padded with -inf).
    Two qualifying positions within the radius dominate each other, so they
    are equal: conflicts only arise on plateaus, and a left-to-right scan
    breaks them, keeping the earliest position and then the next qualifying
    one more than the radius after the last kept one. Every retained
    confidence is therefore >= all raw confidences within its radius. Cost
    O(n r) for a track of n frames.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    if conf.size == 0:
        return np.empty(0, dtype=np.int64)
    pad = np.full(conf.size + 2 * radius, -np.inf)
    pad[radius : radius + conf.size] = conf
    window_max = np.lib.stride_tricks.sliding_window_view(pad, 2 * radius + 1).max(axis=1)
    kept: list[int] = []
    for j in np.flatnonzero(conf >= window_max).tolist():
        if not kept or j - kept[-1] > radius:
            kept.append(j)
    return np.array(kept, dtype=np.int64)


def check_d(d: int) -> None:
    if d < 1:
        raise ValueError("d must be >= 1")


def detect_candidates(
    stream: FeatureStream, change_model: LinearModel
) -> tuple[np.ndarray, np.ndarray]:
    """Frame indices (int64) and confidences (float64) of the candidates: NMS
    at radius d over the in-band frames' scores under the change model at its
    half-width d, so detection works on one temporal scale."""
    if not change_model.is_binary:
        raise ValueError("detect_candidates requires a binary change model")
    d = change_model.d
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
    conf = change_feature_matrix(stream, d) @ change_model.weights[0] + change_model.bias[0]
    kept = suppress_non_maxima(conf, d)
    return kept + d, conf[kept]


def change_training_set(
    streams: Sequence[FeatureStream], truths: Sequence[StateSequence], d: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Stacked in-band change features and labels, and the in-band row count of each video.

    The (rows, D) matrix and the labels are allocated once, and each video
    writes its in-band rows into them, so training holds one copy. The
    matrix is the leading rows of `out`, a float64 matrix of the streams'
    width, when it is given.
    """
    check_d(d)
    check_videos(streams, truths)
    rows = [max(0, stream.n_frames - 2 * d) for stream in streams]  # 0 below 2d+1 frames
    if not sum(rows):
        raise ValueError("no video is long enough for the requested d")
    x = np.empty((sum(rows), streams[0].dim)) if out is None else out[: sum(rows)]
    y = np.empty(sum(rows), dtype=np.int64)
    start = 0
    for stream, truth, m in zip(streams, truths, rows):
        if m:
            change_feature_matrix(stream, d, out=x[start : start + m])
            y[start : start + m] = label_change_frames(truth, d)
            start += m
    return x, y, rows


def train_change_model(
    streams: Sequence[FeatureStream],
    truths: Sequence[StateSequence],
    d: int,
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train the binary change scorer at half-width d; the model records d."""
    x, y, _ = change_training_set(streams, truths, d)
    return train_binary(x, y, d, config)
