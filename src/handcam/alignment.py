"""Across-videos hand alignment.

Each video's per-pixel intensity history is summarized by a Laplace fit
(median center, mean-absolute-deviation diversity). Pixels whose diversity
stays below a threshold in every channel form the stable hand mask; the
video with the smallest stable region provides the template, which is then
located in every other video's median image by multiscale zero-normalized
cross-correlation. The statistics are exact, from sorted bands of rows of
the uint8 frames, so they need every frame of a video at once. Placement
reads of each video only its median rounded to uint8 and its largest
stable component (`stable_component`), so the float64 statistics of one
video can be dropped before the next is read. Frames are finally rescaled
(only the crop window, by `media.resample`), cropped to the reference
resolution, and replicate-padded; `align_video_dir` streams this last pass
from file to file a few frames at a time. `resample` rounds half up by a
bare cast to uint8, with no `floor` or `clip`: a bilinear mix of uint8
values, plus 0.5, lies in [0.5, 256), where truncation is the floor. The
stable-mask threshold and the search scales default to `BETA_THRESHOLD`
and `SCALES`; `check_params` rejects values the search cannot use.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import remove_stale
from .media import (
    FRAME_NAME, frame_path, frame_paths, load_frames, resample, resize_to, save_ppm, scaled_size,
    to_gray,
)

_BAND_ROWS = 2  # frame rows whose time series are sorted together
_CHUNK_FRAMES = 4  # frames aligned together: small float64 temporaries stay in cache
BETA_THRESHOLD = 40.0  # the stable mask's default diversity threshold
SCALES = (0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)  # the scales the template search tries by default

# a stable component: its half-open bounding box (x0, y0, x1, y1) and pixel count
Component = tuple[tuple[int, int, int, int], int]


def check_params(beta_threshold: float, scales: Sequence[float]) -> None:
    """Reject a stable-mask threshold or template-search scales that are not
    finite and positive, or no scales at all."""
    if not 0 < beta_threshold < np.inf:
        raise ValueError(f"beta_threshold must be finite and positive: {beta_threshold}")
    if not scales or not all(0 < s < np.inf for s in scales):
        raise ValueError(f"scales must be non-empty, finite and positive: {tuple(scales)}")


def pixel_stats(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Laplace fit of each pixel and channel over time of a uint8
    (T, h, w, C) stack: float64 (median, diversity) images. The median
    minimizes the sum of absolute deviations; the diversity is the mean
    absolute deviation from it, zero wherever the pixel never changes.

    Exact, as a float64 median and mean, from bands of rows sorted along
    time: the median is the mean of the two middle values; as many values
    lie above it as below, so the deviations sum to (upper half sum) -
    (lower half sum)."""
    t, shape = len(stack), stack.shape[1:]
    if t < 1:
        raise ValueError("need at least one frame")
    median, diversity = np.empty(shape), np.empty(shape)
    # one (rows, w, C, T) buffer, time contiguous: each pixel's series is one
    # run; int32, which numpy sorts with its vectorized (SIMD) quicksort
    bands = np.empty((min(_BAND_ROWS, shape[0]), *shape[1:], t), dtype=np.int32)
    for r in range(0, shape[0], _BAND_ROWS):
        band = bands[: min(_BAND_ROWS, shape[0] - r)]
        np.copyto(band, np.moveaxis(stack[:, r : r + _BAND_ROWS], 0, -1))
        band.sort(axis=-1)
        lo, hi = band[..., (t - 1) // 2], band[..., t // 2]
        median[r : r + _BAND_ROWS] = (lo + hi.astype(np.float64)) / 2
        upper = band[..., (t + 1) // 2 :].sum(axis=-1, dtype=np.int64)
        lower = band[..., : t // 2].sum(axis=-1, dtype=np.int64)
        diversity[r : r + _BAND_ROWS] = (upper - lower) / t
    return median, diversity


def _component_roots(mask: np.ndarray) -> np.ndarray:
    """For each True pixel of `mask` in row-major order, the row-major rank
    of the first pixel of its 4-connected component.

    Vectorized union-find: every edge between neighbouring mask pixels hooks
    its larger root to its smaller one, pointer jumping flattens the trees,
    and this repeats until both ends of every edge share a root. A root only
    ever points lower, so each component ends at its smallest rank.
    """
    parent = np.arange(np.count_nonzero(mask))
    rank = np.full(mask.shape, -1, dtype=np.int64)
    rank[mask] = parent
    right = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1] & mask[1:]
    a = np.concatenate([rank[:, :-1][right], rank[:-1][down]])
    b = np.concatenate([rank[:, 1:][right], rank[1:][down]])
    while True:
        ra, rb = parent[a], parent[b]
        if np.array_equal(ra, rb):
            return parent
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped


def stable_component(diversity: np.ndarray, beta_threshold: float) -> Component | None:
    """The largest 4-connected component of the pixels whose diversity is
    below the threshold in all three channels, as its half-open bounding box
    (x0, y0, x1, y1) and its pixel count; None if no pixel is stable."""
    if diversity.ndim != 3 or diversity.shape[2] != 3:
        raise ValueError("stable_component requires the diversity of a 3-channel video")
    mask = np.all(diversity < beta_threshold, axis=2)
    if not mask.any():
        return None
    roots = _component_roots(mask)
    sizes = np.bincount(roots)
    best = int(np.argmax(sizes))  # ties: the component that starts first in scan order
    ys, xs = np.divmod(np.flatnonzero(mask)[roots == best], mask.shape[1])
    box = (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)
    return box, int(sizes[best])


def select_reference(components: Mapping[str, Component | None]) -> str:
    """The video with the smallest stable component, by pixel count; ties go
    to the lexicographically smaller video id."""
    sized = [(comp[1], vid) for vid, comp in components.items() if comp is not None]
    if not sized:
        raise ValueError("no stable region found")
    return min(sized)[1]


def _window_sums(arr: np.ndarray, th: int, tw: int) -> np.ndarray:
    # Exact rectangle sums via padded 2-d cumulative sums; exact in float64
    # because the inputs are small integers.
    c = np.pad(arr, ((1, 0), (1, 0))).cumsum(axis=0).cumsum(axis=1)
    return c[th:, tw:] - c[:-th, tw:] - c[th:, :-tw] + c[:-th, :-tw]


def _fast_len(n: int) -> int:
    """Smallest 2*3*5-smooth length >= n (scipy's `next_fast_len(n, real=True)`)."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _valid_correlation(target: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Sum of `kernel` times each window of `target` it fits in.

    Bit-identical to `scipy.signal.fftconvolve(target, kernel[::-1, ::-1],
    mode="valid")` because it takes the same steps: 5-smooth padding, an
    axis left untransformed where the kernel has length 1, and an
    unnormalized inverse scaled once by 1 / (padded size).
    """
    flipped = kernel[::-1, ::-1]
    axes = [a for a in (0, 1) if kernel.shape[a] != 1]
    if not axes:
        return target * flipped
    fshape = [_fast_len(target.shape[a] + kernel.shape[a] - 1) for a in axes]
    spec = np.fft.rfftn(target, fshape, axes) * np.fft.rfftn(flipped, fshape, axes)
    if len(axes) == 2:
        spec = np.fft.ifft(spec, axis=0, norm="forward")
    full = np.fft.irfft(spec, fshape[-1], axis=axes[-1], norm="forward")
    full *= 1.0 / np.prod(fshape)
    window = [slice(None), slice(None)]
    for a in axes:
        window[a] = slice(kernel.shape[a] - 1, target.shape[a])
    return full[tuple(window)]


def zncc_map(template_gray: np.ndarray, target_gray: np.ndarray) -> np.ndarray:
    """Zero-normalized cross-correlation of the template at every placement.

    Output[y, x] scores the template with its top-left corner at (x, y) of
    the target. Windows with zero variance (and a zero-variance template)
    correlate as 0.
    """
    tpl = template_gray.astype(np.float64)
    tgt = target_gray.astype(np.float64)
    th, tw = tpl.shape
    n = th * tw
    t0 = tpl - tpl.mean()
    t_norm2 = float((t0 * t0).sum())
    num = _valid_correlation(tgt, t0)
    s1 = _window_sums(tgt, th, tw)
    s2 = _window_sums(tgt * tgt, th, tw)
    w_var = s2 - s1 * s1 / n  # exact 0 for constant windows
    denom2 = w_var * t_norm2
    with np.errstate(divide="ignore", invalid="ignore"):
        zncc = np.where(denom2 > 0, num / np.sqrt(np.maximum(denom2, 0)), 0.0)
    return np.clip(zncc, -1.0, 1.0)


def ncc_match(
    template: np.ndarray, target: np.ndarray, scales: Sequence[float]
) -> tuple[float, int, int, float]:
    """Exhaustive multiscale template search over integer translations.

    The uint8 (h, w, 3) target is resized by each scale (template fixed),
    both reduced to luminance, and the peak placement returned as (scale,
    dx, dy, peak ZNCC), (dx, dy) the template's top-left corner in the
    scaled target. Scales where the template no longer fits are skipped.
    Deterministic tie-break on equal peaks: smaller scale, then smaller dy,
    then smaller dx.
    """
    tpl_gray = to_gray(template)[:, :, 0]
    tgt_gray = to_gray(target)
    best: tuple[float, int, int, float] | None = None
    for scale in sorted(scales):
        w, h = scaled_size(scale, tgt_gray.shape[1], tgt_gray.shape[0])
        if w < tpl_gray.shape[1] or h < tpl_gray.shape[0]:
            continue
        scaled = resize_to(tgt_gray, w, h)[:, :, 0]
        zncc = zncc_map(tpl_gray, scaled)
        flat = int(np.argmax(zncc))  # first max in row-major order: min dy, then dx
        dy, dx = divmod(flat, zncc.shape[1])
        peak = float(zncc[dy, dx])
        if best is None or peak > best[3]:
            best = (scale, int(dx), int(dy), peak)
    if best is None:
        raise ValueError("template larger than the target at every scale")
    return best


def align_videos(
    medians: Mapping[str, np.ndarray],
    components: Mapping[str, Component | None],
    scales: Sequence[float],
) -> dict:
    """Place every video on the template: the uint8 median image of the
    `select_reference` video, cropped to its stable component's box, found
    by `ncc_match` in each other video's uint8 median image.

    The result is the document `align` writes as `alignment.json`:
    `reference_video_id`, its frame's `reference_size` [width, height], the
    `template_box` [x0, y0, x1, y1] in that frame, and under `videos`, by
    video id in sorted order, the `ncc_match` `scale`, `dx`, `dy` and
    `peak` and the `crop_window` [x0, y0, x1, y1] that the reference frame
    covers of the scaled video."""
    ref = select_reference(components)
    box = components[ref][0]
    x0, y0, x1, y1 = box
    template = medians[ref][y0:y1, x0:x1]
    ref_h, ref_w = medians[ref].shape[:2]
    videos = {}
    for vid in sorted(medians):
        if vid == ref:
            scale, dx, dy, peak = 1.0, x0, y0, 1.0
        else:
            scale, dx, dy, peak = ncc_match(template, medians[vid], scales)
        sw, sh = scaled_size(scale, medians[vid].shape[1], medians[vid].shape[0])
        left, top = dx - x0, dy - y0  # the reference frame's corner in the scaled video
        window = [max(0, left), max(0, top), min(sw, left + ref_w), min(sh, top + ref_h)]
        videos[vid] = {"scale": scale, "dx": dx, "dy": dy, "peak": peak, "crop_window": window}
    return {"reference_video_id": ref, "reference_size": [ref_w, ref_h],
            "template_box": list(box), "videos": videos}


def align_video(stack: np.ndarray, alignment: dict, vid: str) -> np.ndarray:
    """Rescale, register to the template position, crop, replicate-pad a
    uint8 (T, h, w, C) stack of frames of video `vid` as the `align_videos`
    document `alignment` places it: uint8 (T, height, width, C) at the
    reference resolution.

    Pixels that fall outside the rescaled source replicate the nearest
    edge. Only the crop window is resampled, all frames at once, so
    `align_video_dir` passes a few at a time.
    """
    out_w, out_h = alignment["reference_size"]
    bx0, by0 = alignment["template_box"][:2]
    placed = alignment["videos"][vid]
    sw, sh = scaled_size(placed["scale"], stack.shape[2], stack.shape[1])
    ys = np.clip(np.arange(out_h) - by0 + placed["dy"], 0, sh - 1)
    xs = np.clip(np.arange(out_w) - bx0 + placed["dx"], 0, sw - 1)
    return resample(stack, sw, sh, ys, xs)


def align_video_dir(video_dir: str | Path, out_dir: str | Path, alignment: dict, vid: str,
                    frame_shape: tuple[int, int, int]) -> None:
    """`align_video` of video `vid` from the frame files of `video_dir` to
    those of `out_dir`, `_CHUNK_FRAMES` frames at a time, so memory follows
    one chunk, not the video. Every frame must have `frame_shape`, the shape
    of the frames whose statistics placed the video."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = frame_paths(video_dir)
    for s in range(0, len(paths), _CHUNK_FRAMES):
        chunk = load_frames(paths[s : s + _CHUNK_FRAMES], frame_shape)
        for i, px in enumerate(align_video(chunk, alignment, vid), start=s):
            save_ppm(px, frame_path(out_dir, i))
    remove_stale(out_dir, FRAME_NAME, {p.name for p in paths})  # the names written

