"""Seeded inputs for the benchmark workloads.

The generators use numpy only and write the program's documented exchange
formats directly (label-space files, `.feat` containers, truth files of
label names, P6 frame directories). They do not call handcam's own synth
code: `handcam synth features` writes truth as integer indices, which
`train-state`, `train-change` and `cv` reject (`unknown label '1'`), and
the benchmark must keep working while the library's internals change.

Feature streams follow the regime of handcam's synth module: random
orthogonal state centres of equal norm, runs of one state lasting between `min_dwell` and
`2 * min_dwell` frames, each run in a state other than the previous one,
and Gaussian noise on every frame.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Callable

import numpy as np

FEAT_MAGIC = b"HCFT"
FEAT_VERSION = 1
CAMERA_RIGHT_HAND = 1

FREE_ACTIVE = ("free", "active")
OBJECT_CATEGORY = ("free",) + (
    "cup", "kettle", "spoon", "knife", "plate", "bowl", "bottle", "jar",
    "pan", "lid", "sponge", "towel", "phone", "book", "pen", "scissors",
    "tape", "box", "bag", "key", "remote", "brush", "glass",
)


def write_label_space(path: Path, task: str, labels: tuple[str, ...]) -> None:
    path.write_text(
        f"task = {task}\nlabels = {', '.join(labels)}\nfree_label = {labels[0]}\n"
    )


def write_feat(path: Path, video_id: str, values: np.ndarray, fps: float = 6.0) -> None:
    """`.feat` container: header, then float32 little-endian row-major values."""
    vid = video_id.encode("utf-8")
    n, d = values.shape
    header = (
        FEAT_MAGIC
        + struct.pack("<IH", FEAT_VERSION, len(vid))
        + vid
        + struct.pack("<BdII", CAMERA_RIGHT_HAND, fps, n, d)
    )
    path.write_bytes(header + values.astype("<f4").tobytes())


def read_feat(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != FEAT_MAGIC:
        raise ValueError(f"{path.name}: not a feature file")
    (vid_len,) = struct.unpack_from("<H", data, 8)
    pos = 10 + vid_len
    _, _, n, d = struct.unpack_from("<BdII", data, pos)
    pos += struct.calcsize("<BdII")
    if len(data) - pos != 4 * n * d:
        raise ValueError(f"{path.name}: payload size does not match the header")
    return np.frombuffer(data, dtype="<f4", offset=pos).reshape(n, d).astype(np.float64)


def write_truth(path: Path, labels: tuple[str, ...], states: np.ndarray) -> None:
    path.write_text("\n".join(labels[s] for s in states) + "\n")


def read_labels(path: Path, labels: tuple[str, ...]) -> np.ndarray:
    index = {name: i for i, name in enumerate(labels)}
    return np.array([index[ln.strip()] for ln in path.read_text().splitlines() if ln.strip()])


def centers(rng: np.random.Generator, k: int, dim: int, norm: float = 1.0) -> np.ndarray:
    """Random mutually orthogonal state centres of one norm. Every pair is
    equally far apart, so the seed changes the inputs but not how hard
    they are to classify."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return norm * q.T


def draw_states(
    rng: np.random.Generator, n: int, min_dwell: int, choices_after: Callable[[int], list[int]]
) -> np.ndarray:
    """Runs of length uniform in [dwell, 2*dwell]; a too-short tail joins
    the last run. `choices_after(prev)` lists the states the next run may take."""
    states = np.empty(n, dtype=np.int64)
    pos, prev = 0, -1
    while pos < n:
        length = int(rng.integers(min_dwell, 2 * min_dwell + 1))
        if n - pos - length < min_dwell:
            length = n - pos
        options = choices_after(prev)
        prev = int(options[rng.integers(0, len(options))])
        states[pos : pos + length] = prev
        pos += length
    return states


def any_other(k: int):
    return lambda prev: [s for s in range(k) if s != prev]


def free_then_object(k: int):
    """Alternate free (state 0) with a random object, so every object run is
    its own active segment."""
    return lambda prev: list(range(1, k)) if prev == 0 else [0]


def stream_values(
    rng: np.random.Generator, centers: np.ndarray, states: np.ndarray, noise: float
) -> np.ndarray:
    return centers[states] + rng.standard_normal((states.size, centers.shape[1])) * noise


# ---------------------------------------------------------------------------
# cv-auto: a `handcam pipeline` config; the pipeline synthesizes its own streams


def gen_cv_auto(out: Path, seed: int, size: dict) -> dict:
    write_label_space(out / "labels.txt", "free_active", FREE_ACTIVE)
    config = {
        "seed": seed,
        "label_space": "labels.txt",
        "synth": {
            "train_videos": size["train_videos"],
            "test_videos": size["test_videos"],
            "frames": size["frames"],
            "states": 2,
            "dim": size["dim"],
            "min_dwell": size["min_dwell"],
            "noise_sigma": size["noise_sigma"],
        },
        "hyperparameters": {"C": "auto", "d": "auto", "lambda": "auto"},
        "training": {"epochs": size["epochs"]},
    }
    (out / "pipeline.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return {"config": out / "pipeline.json"}


# ---------------------------------------------------------------------------
# long-video: object-category streams; training inputs plus long recordings


def gen_long_video(out: Path, seed: int, size: dict) -> dict:
    rng = np.random.default_rng([seed, 1])
    k, dim = len(OBJECT_CATEGORY), size["dim"]
    means = centers(rng, k, dim, size["center_norm"])
    write_label_space(out / "labels.txt", "object_category", OBJECT_CATEGORY)
    paths = {"labels": out / "labels.txt", "train": [], "test": []}
    for role, count, frames in (
        ("train", size["train_videos"], size["train_frames"]),
        ("test", size["test_videos"], size["test_frames"]),
    ):
        for i in range(count):
            vid = f"{role}_{i:02d}"
            states = draw_states(rng, frames, size["min_dwell"], any_other(k))
            values = stream_values(rng, means, states, size["noise_sigma"])
            write_feat(out / f"{vid}.feat", vid, values)
            write_truth(out / f"{vid}.truth.txt", OBJECT_CATEGORY, states)
            paths[role].append((vid, out / f"{vid}.feat", out / f"{vid}.truth.txt"))
    return paths


# ---------------------------------------------------------------------------
# corpus: frame directories with planted hand placements, plus object streams


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w = pixels.shape[:2]
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def resize_bilinear(px: np.ndarray, width: int, height: int) -> np.ndarray:
    """Corner-aligned bilinear resample with round-half-up to uint8."""
    src = px.astype(np.float64)
    h, w = src.shape[:2]
    xs = np.arange(width) * (w - 1) / (width - 1)
    ys = np.arange(height) * (h - 1) / (height - 1)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[None, :, None]
    fy = (ys - y0)[:, None, None]
    top = (1.0 - fx) * src[np.ix_(y0, x0)] + fx * src[np.ix_(y0, x1)]
    bot = (1.0 - fx) * src[np.ix_(y1, x0)] + fx * src[np.ix_(y1, x1)]
    return np.clip(np.floor((1.0 - fy) * top + fy * bot + 0.5), 0, 255).astype(np.uint8)


def gen_videos(out: Path, rng: np.random.Generator, size: dict) -> dict[str, dict]:
    """One video per planted scale: a fixed textured hand pasted on a noisy
    background composed at `scale` times the frame size, then resampled to
    the frame size, so rescaling by the planted scale recovers the hand."""
    w, h = size["frame_width"], size["frame_height"]
    hw, hh = size["hand_width"], size["hand_height"]
    hand = rng.integers(0, 256, size=(hh, hw, 3), dtype=np.uint8)
    planted = {}
    for vi, scale in enumerate(size["scales"]):
        vid = f"cam_{vi:02d}"
        sw, sh = int(np.floor(scale * w + 0.5)), int(np.floor(scale * h + 0.5))
        dx = int(rng.integers(0, sw - hw + 1))
        dy = int(rng.integers(0, sh - hh + 1))
        base = rng.integers(80, 176, size=(sh, sw, 3)).astype(np.float64)
        vdir = out / "videos" / vid
        vdir.mkdir(parents=True)
        for f in range(size["frames"]):
            canvas = base + rng.standard_normal(base.shape) * size["noise_sigma"]
            canvas[dy : dy + hh, dx : dx + hw] = hand
            px = np.clip(np.floor(canvas + 0.5), 0, 255).astype(np.uint8)
            if (sw, sh) != (w, h):
                px = resize_bilinear(px, w, h)
            write_ppm(vdir / f"frame_{f:06d}.ppm", px)
        planted[vid] = {"scale": scale, "dx": dx, "dy": dy}
    return planted


def gen_corpus(out: Path, seed: int, size: dict) -> dict:
    rng = np.random.default_rng([seed, 2])
    planted = gen_videos(out, rng, size)
    (out / "videos.txt").write_text(
        "".join(f"{out / 'videos' / vid}\n" for vid in sorted(planted))
    )
    write_label_space(out / "fa.txt", "free_active", FREE_ACTIVE)
    write_label_space(out / "objects.txt", "object_category", OBJECT_CATEGORY)
    k = len(OBJECT_CATEGORY)
    means = centers(rng, k, size["dim"])
    lines = []
    for i in range(size["streams"]):
        vid = f"objects_{i:02d}"
        states = draw_states(rng, size["stream_frames"], size["min_dwell"], free_then_object(k))
        values = stream_values(rng, means, states, size["noise_sigma_features"])
        write_feat(out / f"{vid}.feat", vid, values)
        write_truth(out / f"{vid}.fa.txt", FREE_ACTIVE, (states != 0).astype(np.int64))
        write_truth(out / f"{vid}.truth.txt", OBJECT_CATEGORY, states)
        lines.append(f"{out / vid}.feat\t{out / vid}.fa.txt\t{out / vid}.truth.txt\n")
    (out / "discover.txt").write_text("".join(lines))
    return {"planted": planted, "videos": out / "videos.txt", "discover": out / "discover.txt",
            "fa": out / "fa.txt", "objects": out / "objects.txt"}
