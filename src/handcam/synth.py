"""Seeded synthetic data: feature streams with planted state dynamics and
frame image sets with planted hand placements.

Everything is a pure function of its arguments and seed, so expected values
in tests can be frozen once and reruns are reproducible. The feature
generator uses Gaussian state centers with minimum-dwell Markov dynamics,
the regime where per-frame classification is imperfect and temporal
decoding helps; the centers' (K, D) shape is the one record of the state
count and width.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_FPS, Camera, FeatureStream, LabelSpace, StateSequence, check_fps, remove_stale,
    run_starts,
)
from .media import FRAME_NAME, frame_path, resize_to, round_u8, save_ppm, scaled_size


# Every synthesized stream is float64. A config is refused before anything
# is allocated when its streams together, or one rendered video frame,
# would exceed this many bytes. A feature set is drawn and written one
# stream at a time, so this caps what a config writes, not what it holds.
MAX_STREAM_BYTES = 2**31


def check_stream_budget(n_videos: int, n_frames: int, dim: int) -> None:
    """Refuse an empty feature set, or streams over MAX_STREAM_BYTES of float64."""
    if min(n_videos, n_frames, dim) < 1:
        raise ValueError("synth needs videos, frames and dim >= 1")
    nbytes = 8 * n_videos * n_frames * dim
    if nbytes > MAX_STREAM_BYTES:
        raise ValueError(
            f"{n_videos} videos x {n_frames} frames x {dim} dims of float64 values are "
            f"{nbytes} bytes, over the synth budget of {MAX_STREAM_BYTES} bytes"
        )


def _check_stream(centers: np.ndarray, min_dwell: int, noise_sigma: float,
                  transition_ramp: int, label_space: LabelSpace | None) -> np.ndarray:
    """The centers as float64, once they and the values of a stream drawn
    around them are usable: one distinct row per state."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2:
        raise ValueError("centers must be 2-d")
    if label_space is not None and label_space.num_labels < len(centers):
        raise ValueError("label space too small for the configured state count")
    for a in range(len(centers)):  # each row against the rows after it
        if (centers[a + 1 :] == centers[a]).all(axis=1).any():
            raise ValueError("state centers must be pairwise distinct")
    if min_dwell < 1:
        raise ValueError("min_dwell must be >= 1")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if transition_ramp < 0:
        raise ValueError("transition_ramp must be >= 0")
    return centers


def random_centers(num_states: int, dim: int, seed: int) -> np.ndarray:
    """Unit-norm random state centers (deterministic in the seed)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_states, dim))
    return centers / np.linalg.norm(centers, axis=1, keepdims=True)


def _draw_states(num_states: int, n: int, dwell: int, rng: np.random.Generator) -> np.ndarray:
    """Runs of length uniform in [dwell, 2*dwell]; a too-short tail is
    absorbed into the final run so every run keeps the minimum dwell."""
    states = np.empty(n, dtype=np.int64)
    pos = 0
    prev = -1
    while pos < n:
        length = int(rng.integers(dwell, 2 * dwell + 1))
        if n - pos - length < dwell:
            length = n - pos
        choices = [s for s in range(num_states) if s != prev]
        state = int(choices[rng.integers(0, len(choices))]) if choices else prev
        states[pos : pos + length] = state
        prev = state
        pos += length
    return states


def gen_feature_stream(
    centers: np.ndarray,
    seed: int,
    n_frames: int,
    min_dwell: int,
    noise_sigma: float,
    transition_ramp: int = 0,
    video_id: str = "synth",
    fps: float = DEFAULT_FPS,
    label_space: LabelSpace | None = None,
) -> tuple[FeatureStream, StateSequence]:
    """A right-hand feature stream plus its ground-truth states, reproducible
    from the seed: runs of the states that index the (K, D) centers, each
    at least min_dwell frames, and Gaussian noise of noise_sigma around the
    centers.

    With transition_ramp w > 0 the feature centers blend linearly from the
    old to the new state over the 2w frames straddling each transition
    (ground-truth labels stay crisp).
    """
    centers = _check_stream(centers, min_dwell, noise_sigma, transition_ramp, label_space)
    num_states, dim = centers.shape
    rng = np.random.default_rng(seed)
    states = _draw_states(num_states, n_frames, min_dwell, rng)
    trajectory = centers[states]
    w = transition_ramp
    if w > 0:
        for t in run_starts(states)[1:]:
            frames = np.arange(max(0, t - w), min(n_frames, t + w))
            alpha = ((frames - (t - w)) / (2.0 * w))[:, None]
            trajectory[frames] = (1.0 - alpha) * centers[states[t - 1]] + alpha * centers[states[t]]
    # the values are built inside the noise array: noise + trajectory has
    # the bits of trajectory + noise, as IEEE addition commutes
    values = rng.standard_normal((n_frames, dim))
    values *= noise_sigma
    values += trajectory
    del trajectory
    values.setflags(write=False)  # fresh and ours: FeatureStream keeps it without a copy
    stream = FeatureStream(video_id, Camera.RIGHT_HAND, fps, values)
    truth = (
        StateSequence(label_space, states)
        if label_space is not None
        else StateSequence(None, states, num_states=num_states)
    )
    return stream, truth


def gen_feature_set(
    seed: int,
    num_states: int,
    dim: int,
    n_frames: int,
    min_dwell: int,
    noise_sigma: float,
    video_ids: Sequence[str],
    transition_ramp: int = 0,
    fps: float = DEFAULT_FPS,
    label_space: LabelSpace | None = None,
) -> Iterator[tuple[FeatureStream, StateSequence]]:
    """One labeled stream per video id around shared random centers.

    The set's size (against MAX_STREAM_BYTES), fps, state count and stream
    values are checked when this is called; the streams are then drawn one
    at a time, as the returned iterator is advanced. Video i is drawn with
    seed seed*1000+i, so adding videos never changes the earlier ones.
    """
    check_stream_budget(len(video_ids), n_frames, dim)
    check_fps(fps)
    if num_states < 1:  # random_centers would draw no rows, or fail unnamed
        raise ValueError("synth needs states >= 1")
    centers = _check_stream(random_centers(num_states, dim, seed), min_dwell, noise_sigma,
                            transition_ramp, label_space)
    return (gen_feature_stream(centers, seed * 1000 + i, n_frames, min_dwell, noise_sigma,
                               transition_ramp, vid, fps, label_space)
            for i, vid in enumerate(video_ids))


# ---------------------------------------------------------------------------
# synthetic videos for the alignment stage

@dataclass(frozen=True)
class VideoSpec:
    """Planted transform of one synthetic video: the video is captured at
    native size but its content registers with the template when rescaled
    by `scale`; (dx, dy) is the hand position in that rescaled frame."""

    video_id: str
    scale: float
    dx: int
    dy: int

    def __post_init__(self) -> None:
        # the id names the video's directory inside the output directory
        seps = {"/", os.sep, os.altsep} - {None}
        if self.video_id in ("", ".", "..") or any(sep in self.video_id for sep in seps):
            raise ValueError(f"video id {self.video_id!r} is not a plain directory name")


def textured_patch(width: int, height: int, seed: int) -> np.ndarray:
    """High-frequency random uint8 (height, width, 3) texture; sharp enough
    to discriminate scales."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


def check_frame_budget(where: str, scale: float, width: int, height: int) -> tuple[int, int]:
    """The size of a width x height frame rescaled by scale, once neither it
    nor the native frame is over MAX_STREAM_BYTES as float64; the error names
    `where`."""
    sw, sh = scaled_size(scale, width, height)
    nbytes = 3 * 8 * max(sw * sh, width * height)
    if nbytes > MAX_STREAM_BYTES:
        raise ValueError(f"{where}: a float64 frame is {nbytes} bytes, over the "
                         f"synth budget of {MAX_STREAM_BYTES} bytes")
    return sw, sh


def check_video_set(hand_size: tuple[int, int], specs: list[VideoSpec],
                    frame_size: tuple[int, int], n_frames: int, noise_sigma: float,
                    jitter: int) -> None:
    """Refuse a set `gen_video_set` could not write whole: no frames or
    videos, an id given twice, negative noise or jitter, a hand out of
    frame, or a float64 frame (the canvas at its planted scale, or the
    native frame it is resampled to) over MAX_STREAM_BYTES."""
    w, h = frame_size
    if min(n_frames, len(specs), w, h) < 1 or min(noise_sigma, jitter) < 0:
        raise ValueError("synth videos needs frames, videos, frame_width and frame_height "
                         ">= 1, and noise_sigma and jitter >= 0")
    if len({spec.video_id for spec in specs}) < len(specs):
        raise ValueError("synth videos needs a different id for each video")
    for spec in specs:
        sw, sh = check_frame_budget(spec.video_id, spec.scale, w, h)
        if not (jitter <= spec.dx <= sw - hand_size[0] - jitter
                and jitter <= spec.dy <= sh - hand_size[1] - jitter):
            raise ValueError(f"{spec.video_id}: hand out of frame")


def gen_video_set(
    hand: np.ndarray,
    specs: list[VideoSpec],
    frame_size: tuple[int, int],
    n_frames: int,
    noise_sigma: float,
    jitter: int,
    seed: int,
    out_dir: str | Path,
) -> dict[str, dict]:
    """Render one video per spec into out_dir/<video_id>, one frame at a
    time, once `check_video_set` accepts the whole set: a noisy background
    plus the pasted hand, composed at the rescaled size and resampled to the
    native one, so searching the planted scale recovers the template.
    noise_sigma=0 freezes the background (constant video when jitter is also
    0). Stale frames of a longer video are deleted. Returns the truth."""
    hand_h, hand_w = hand.shape[:2]
    check_video_set((hand_w, hand_h), specs, frame_size, n_frames, noise_sigma, jitter)
    w, h = frame_size
    truth: dict[str, dict] = {}
    for vi, spec in enumerate(sorted(specs, key=lambda s: s.video_id)):
        rng = np.random.default_rng([seed, vi])
        sw, sh = scaled_size(spec.scale, w, h)
        # background centered mid-gray so additive noise rarely clips
        base = rng.integers(80, 176, size=(sh, sw, 3)).astype(np.float64)
        video_dir = Path(out_dir) / spec.video_id
        video_dir.mkdir(parents=True, exist_ok=True)
        remove_stale(video_dir, FRAME_NAME)
        for i in range(n_frames):
            canvas = base.copy()
            if noise_sigma > 0:
                canvas += rng.standard_normal(canvas.shape) * noise_sigma
            jx = int(rng.integers(-jitter, jitter + 1)) if jitter > 0 else 0
            jy = int(rng.integers(-jitter, jitter + 1)) if jitter > 0 else 0
            x0, y0 = spec.dx + jx, spec.dy + jy
            canvas[y0 : y0 + hand_h, x0 : x0 + hand_w] = hand
            px = round_u8(canvas)
            if (sw, sh) != (w, h):
                px = resize_to(px, w, h)
            save_ppm(px, frame_path(video_dir, i))
        truth[spec.video_id] = {"scale": spec.scale, "dx": spec.dx, "dy": spec.dy}
    return truth
