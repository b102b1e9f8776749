"""Seeded synthetic data: feature streams with planted state dynamics and
frame image sets with planted hand placements.

Everything is a pure function of its config and seed, so expected values in
tests can be frozen once and reruns are reproducible. The feature generator
uses Gaussian state centers with minimum-dwell Markov dynamics, the regime
where per-frame classification is imperfect and temporal decoding helps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Camera, FeatureStream, LabelSpace, StateSequence, run_starts
from .media import Image, resize_to, save_video_dir


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    num_states: int
    dim: int
    n_frames: int
    min_dwell: int
    centers: np.ndarray  # (K, D) per-state feature centers
    noise_sigma: float
    transition_ramp: int = 0  # half-width of linear feature blend at transitions

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.shape != (self.num_states, self.dim):
            raise ValueError("centers must be (num_states, dim)")
        for a in range(self.num_states):
            for b in range(a + 1, self.num_states):
                if np.array_equal(centers[a], centers[b]):
                    raise ValueError("state centers must be pairwise distinct")
        if self.min_dwell < 1:
            raise ValueError("min_dwell must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.transition_ramp < 0:
            raise ValueError("transition_ramp must be >= 0")
        centers = np.ascontiguousarray(centers)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)


def random_centers(num_states: int, dim: int, seed: int) -> np.ndarray:
    """Unit-norm random state centers (deterministic in the seed)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_states, dim))
    return centers / np.linalg.norm(centers, axis=1, keepdims=True)


def orthonormal_centers(num_states: int, dim: int, seed: int) -> np.ndarray:
    """Mutually orthogonal unit centers: equal pairwise separation, so
    classification difficulty depends only on the noise level."""
    if num_states > dim:
        raise ValueError("orthonormal centers need num_states <= dim")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, num_states)))
    return np.ascontiguousarray(q.T[:num_states])


def _draw_states(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Runs of length uniform in [dwell, 2*dwell]; a too-short tail is
    absorbed into the final run so every run keeps the minimum dwell."""
    n, dwell = config.n_frames, config.min_dwell
    states = np.empty(n, dtype=np.int64)
    pos = 0
    prev = -1
    while pos < n:
        length = int(rng.integers(dwell, 2 * dwell + 1))
        if n - pos - length < dwell:
            length = n - pos
        choices = [s for s in range(config.num_states) if s != prev]
        state = int(choices[rng.integers(0, len(choices))]) if choices else prev
        states[pos : pos + length] = state
        prev = state
        pos += length
    return states


def gen_feature_stream(
    config: SynthConfig,
    video_id: str = "synth",
    camera: Camera = Camera.RIGHT_HAND,
    fps: float = 6.0,
    label_space: LabelSpace | None = None,
) -> tuple[FeatureStream, StateSequence]:
    """Feature stream plus ground-truth states, reproducible from the seed.

    With transition_ramp w > 0 the feature centers blend linearly from the
    old to the new state over the 2w frames straddling each transition
    (ground-truth labels stay crisp).
    """
    if label_space is not None and label_space.num_labels < config.num_states:
        raise ValueError("label space too small for the configured state count")
    rng = np.random.default_rng(config.seed)
    states = _draw_states(config, rng)
    trajectory = config.centers[states].copy()
    w = config.transition_ramp
    if w > 0:
        for t in run_starts(states)[1:]:
            frames = np.arange(max(0, t - w), min(config.n_frames, t + w))
            alpha = ((frames - (t - w)) / (2.0 * w))[:, None]
            trajectory[frames] = (
                (1.0 - alpha) * config.centers[states[t - 1]] + alpha * config.centers[states[t]]
            )
    noise = rng.standard_normal((config.n_frames, config.dim)) * config.noise_sigma
    stream = FeatureStream(video_id, camera, fps, trajectory + noise)
    truth = (
        StateSequence(label_space, states)
        if label_space is not None
        else StateSequence(None, states, num_states=config.num_states)
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
    fps: float = 6.0,
    label_space: LabelSpace | None = None,
) -> list[tuple[FeatureStream, StateSequence]]:
    """One labeled stream per video id around shared random centers.

    Video i is drawn with seed seed*1000+i, so adding videos never changes
    the earlier ones.
    """
    centers = random_centers(num_states, dim, seed)
    return [
        gen_feature_stream(
            SynthConfig(
                seed=seed * 1000 + i,
                num_states=num_states,
                dim=dim,
                n_frames=n_frames,
                min_dwell=min_dwell,
                centers=centers,
                noise_sigma=noise_sigma,
                transition_ramp=transition_ramp,
            ),
            video_id=vid,
            fps=fps,
            label_space=label_space,
        )
        for i, vid in enumerate(video_ids)
    ]


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


def textured_patch(width: int, height: int, seed: int) -> Image:
    """High-frequency random texture; sharp enough to discriminate scales."""
    rng = np.random.default_rng(seed)
    return Image(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def smooth_patch(width: int, height: int, seed: int, cells: int = 6) -> Image:
    """Low-frequency random texture: a coarse random grid upsampled
    bilinearly, so single-pixel jitter moves values only a little while the
    pattern still discriminates scale and translation."""
    rng = np.random.default_rng(seed)
    coarse = Image(rng.integers(0, 256, size=(cells, cells, 3), dtype=np.uint8))
    return resize_to(coarse, width, height)


def gen_video_set(
    hand: Image,
    specs: list[VideoSpec],
    frame_size: tuple[int, int],
    n_frames: int,
    noise_sigma: float,
    jitter: int,
    seed: int,
    out_dir: str | Path | None = None,
) -> tuple[dict[str, list[Image]], dict[str, dict]]:
    """Render one video per spec: noisy background plus the pasted hand.

    The composition happens at the rescaled dimensions and the frame is then
    resampled to the native size, so searching the planted scale recovers
    the template. noise_sigma=0 freezes the background (constant video when
    jitter is also 0). Returns frames and the ground-truth transforms.
    """
    w, h = frame_size
    videos: dict[str, list[Image]] = {}
    truth: dict[str, dict] = {}
    for vi, spec in enumerate(sorted(specs, key=lambda s: s.video_id)):
        rng = np.random.default_rng([seed, vi])
        sw = int(np.floor(spec.scale * w + 0.5))
        sh = int(np.floor(spec.scale * h + 0.5))
        if not (
            jitter <= spec.dx <= sw - hand.width - jitter
            and jitter <= spec.dy <= sh - hand.height - jitter
        ):
            raise ValueError(f"{spec.video_id}: hand out of frame")
        # background centered mid-gray so additive noise rarely clips
        base = rng.integers(80, 176, size=(sh, sw, 3)).astype(np.float64)
        frames = []
        for _ in range(n_frames):
            canvas = base.copy()
            if noise_sigma > 0:
                canvas += rng.standard_normal(canvas.shape) * noise_sigma
            jx = int(rng.integers(-jitter, jitter + 1)) if jitter > 0 else 0
            jy = int(rng.integers(-jitter, jitter + 1)) if jitter > 0 else 0
            x0, y0 = spec.dx + jx, spec.dy + jy
            canvas[y0 : y0 + hand.height, x0 : x0 + hand.width] = hand.pixels
            img = Image(np.clip(np.floor(canvas + 0.5), 0, 255).astype(np.uint8))
            if (sw, sh) != (w, h):
                img = resize_to(img, w, h)
            frames.append(img)
        videos[spec.video_id] = frames
        truth[spec.video_id] = {"scale": spec.scale, "dx": spec.dx, "dy": spec.dy}
        if out_dir is not None:
            save_video_dir(frames, Path(out_dir) / spec.video_id)
    return videos, truth
