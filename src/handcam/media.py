"""Frame image handling: binary PPM (P6) ingestion, grayscale, and
`resample`, the single bilinear kernel that `resize_to` runs over a whole
frame and alignment over the crop window of a stack of frames.

A frame is a uint8 (height, width, 3) array, read-only as `load_ppm` reads
it. A video is a directory of ``frame_%06d.ppm`` files; the frame number is
the position on the processing timeline.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np


class PpmError(ValueError):
    """Malformed or truncated PPM data."""


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # PPM header tokens are separated by whitespace; '#' starts a comment
    # that runs to end of line.
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise PpmError("unexpected end of header")
    return data[start:pos], pos


def load_ppm(path: str | Path) -> np.ndarray:
    """Decode a binary NetPBM P6 file with maxval 255: a read-only uint8
    (height, width, 3) view of the file's bytes, not a copy. A malformed
    file is a PpmError naming the path."""
    data = Path(path).read_bytes()
    try:
        if data[:2] != b"P6":
            raise PpmError(f"bad magic {data[:2]!r}, expected P6")
        pos = 2
        fields = []
        for _ in range(3):
            tok, pos = _read_header_token(data, pos)
            if not tok.isdigit():
                raise PpmError(f"malformed header token {tok!r}")
            fields.append(int(tok))
        width, height, maxval = fields
        if width < 1 or height < 1:
            raise PpmError("image dimensions must be positive")
        if maxval != 255:
            raise PpmError(f"unsupported maxval {maxval}, expected 255")
        if pos < len(data) and not data[pos : pos + 1].isspace():
            raise PpmError("expected one whitespace byte after maxval, got "
                           f"{data[pos : pos + 1]!r}")
        pos += 1
        expected = width * height * 3
        if len(data) - pos < expected:
            raise PpmError("unexpected end of pixel data")
        if len(data) - pos > expected:
            raise PpmError("trailing bytes after pixel data")
    except PpmError as e:
        raise PpmError(f"{path}: {e}") from None
    px = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    return px.reshape(height, width, 3)


def save_ppm(pixels: np.ndarray, path: str | Path) -> None:
    """Write a uint8 (height, width, 3) frame as canonical binary P6.

    load/save round-trips are byte identical for files in this canonical
    form (single-space header, maxval 255), which is what every writer in
    this package emits. A C-contiguous frame is written without a copy.
    """
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3 or 0 in pixels.shape:
        raise ValueError(f"save_ppm needs a uint8 (height, width, 3) frame, got {pixels.dtype} "
                         f"{pixels.shape}")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels).data)


# every name `frame_path` writes: six digits, or more without a leading zero
FRAME_NAME = r"frame_(\d{6}|[1-9]\d{6,})\.ppm"


def frame_path(video_dir: str | Path, index: int) -> Path:
    return Path(video_dir) / f"frame_{index:06d}.ppm"


def frame_paths(video_dir: str | Path) -> list[Path]:
    """The frame files of a video directory, ordered by frame number, which
    must run from 0 without a gap."""
    video_dir = Path(video_dir)
    numbered = sorted((int(m.group(1)), p) for p in video_dir.iterdir()
                      if (m := re.fullmatch(FRAME_NAME, p.name)))
    if not numbered:
        raise ValueError(f"no frame_*.ppm files in {video_dir}")
    if [i for i, _ in numbered] != list(range(len(numbered))):
        raise ValueError(f"frame numbers in {video_dir} are not contiguous from 0")
    return [p for _, p in numbered]


def load_frames(paths: list[Path], shape: tuple[int, ...] | None = None) -> np.ndarray:
    """The frame files `paths` as one uint8 (T, height, width, 3) stack,
    read one file at a time into it. Every frame must have `shape`, by
    default the first one's; a frame of another shape is named."""
    first = load_ppm(paths[0])
    shape = first.shape if shape is None else shape
    stack = np.empty((len(paths), *shape), dtype=np.uint8)
    for i, path in enumerate(paths):
        px = first if i == 0 else load_ppm(path)
        if px.shape != shape:
            raise ValueError(f"{path} has shape {px.shape}, expected {shape}")
        stack[i] = px
    return stack


def load_video_dir(video_dir: str | Path) -> np.ndarray:
    """All frames of a video directory, ordered by frame number: one uint8
    (T, height, width, 3) stack."""
    return load_frames(frame_paths(video_dir))


def to_gray(pixels: np.ndarray) -> np.ndarray:
    """ITU-R 601 luminance round(0.299 R + 0.587 G + 0.114 B) of a frame, as
    a uint8 (height, width, 1) frame."""
    rgb = pixels.astype(np.float64)
    return round_u8(0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2])[:, :, None]


def round_u8(values: np.ndarray) -> np.ndarray:
    """Values rounded half up and clipped to [0, 255], as uint8."""
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def scaled_size(scale: float, width: int, height: int) -> tuple[int, int]:
    """The size of a width x height frame rescaled by `scale`, rounded half
    up; a ValueError naming the scale if a side is not finite."""
    sides = np.floor(scale * width + 0.5), np.floor(scale * height + 0.5)
    if not np.isfinite(sides).all():
        raise ValueError(f"scale {scale!r}: a {width} x {height} frame rescaled by it has "
                         f"no finite size")
    return int(sides[0]), int(sides[1])


def _source_coords(idx: np.ndarray, n_dst: int, n_src: int):
    """Lower and clamped upper source neighbour of each index, and the upper's weight."""
    pos = idx * (n_src - 1) / (n_dst - 1) if n_dst > 1 else np.zeros(len(idx))
    lo = np.floor(pos).astype(np.int64)
    return lo, np.minimum(lo + 1, n_src - 1), pos - lo


def resample(
    stack: np.ndarray, width: int, height: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Rows `rows` and columns `cols` of each frame of a uint8 (T, h, w, C)
    stack bilinearly resized to width x height: uint8 (T, rows, cols, C).

    Corner-aligned sampling: output pixel x reads source coordinate
    x*(w-1)/(width-1), so corners map to corners, the source size is the
    identity and samples never leave the grid (edge clamping). Only the
    source rows between the first and last one read are converted.

    Each gathered block is scaled in place (`a * w` is the same IEEE product
    as `w * a`), so there are two float64 arrays of the window, not six.
    Rounding half up needs no `floor` or `clip`: a convex mix of values in
    [0, 255], plus 0.5, lies in [0.5, 256), where the cast to uint8
    truncates, which is the floor there.
    """
    if width < 1 or height < 1:
        raise ValueError("output dimensions must be >= 1")
    h, w = stack.shape[1:3]
    if (width, height) == (w, h):
        return stack[:, rows][:, :, cols]
    y0, y1, fy = _source_coords(rows, height, h)
    x0, x1, fx = _source_coords(cols, width, w)
    first = int(y0.min())
    band = stack[:, first : int(y1.max()) + 1]
    fx = fx[:, None]
    horiz = np.take(band, x0, axis=2) * (1.0 - fx)
    horiz += np.take(band, x1, axis=2) * fx
    fy = fy[:, None, None]
    out = np.take(horiz, y0 - first, axis=1)
    out *= 1.0 - fy
    bot = np.take(horiz, y1 - first, axis=1)
    bot *= fy
    out += bot
    del horiz, bot  # before the cast allocates its uint8 copy
    out += 0.5
    return out.astype(np.uint8)


def resize_to(pixels: np.ndarray, width: int, height: int) -> np.ndarray:
    """Bilinear resample of a whole uint8 (h, w, C) frame to width x height."""
    return resample(pixels[None], width, height, np.arange(height), np.arange(width))[0]
