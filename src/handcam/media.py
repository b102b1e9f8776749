"""Frame image handling: binary PPM (P6) ingestion, grayscale, resize, flip.

A video is a directory of ``frame_%06d.ppm`` files; the frame number is the
position on the processing timeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import frozen_array


class PpmError(ValueError):
    """Malformed or truncated PPM data."""


@dataclass(frozen=True)
class Image:
    """8-bit image, (height, width, channels) row-major; channels 1 or 3."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            raise ValueError("pixels must be uint8")
        if px.ndim == 2:
            px = px[:, :, None]
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ValueError("pixels must be (h, w) or (h, w, {1,3})")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image dimensions must be positive")
        object.__setattr__(self, "pixels", frozen_array(px))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


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


def load_ppm(path: str | Path) -> Image:
    """Decode a binary NetPBM P6 file with maxval 255."""
    data = Path(path).read_bytes()
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
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PpmError("unexpected end of pixel data")
    if len(data) - pos > expected:
        raise PpmError("trailing bytes after pixel data")
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image(px)


def save_ppm(img: Image, path: str | Path) -> None:
    """Write a 3-channel image as canonical binary P6.

    load/save round-trips are byte identical for files in this canonical
    form (single-space header, maxval 255), which is what every writer in
    this package emits.
    """
    if img.channels != 3:
        raise ValueError("save_ppm requires a 3-channel image")
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


_FRAME_RE = re.compile(r"^frame_(\d{6})\.ppm$")


def frame_path(video_dir: str | Path, index: int) -> Path:
    return Path(video_dir) / f"frame_{index:06d}.ppm"


def load_video_dir(video_dir: str | Path) -> list[Image]:
    """Load all frames of a video directory, ordered by frame number."""
    video_dir = Path(video_dir)
    numbered = []
    for p in video_dir.iterdir():
        m = _FRAME_RE.match(p.name)
        if m:
            numbered.append((int(m.group(1)), p))
    if not numbered:
        raise ValueError(f"no frame_*.ppm files in {video_dir}")
    numbered.sort()
    indices = [i for i, _ in numbered]
    if indices != list(range(len(indices))):
        raise ValueError(f"frame numbers in {video_dir} are not contiguous from 0")
    return [load_ppm(p) for _, p in numbered]


def save_video_dir(frames: list[Image], video_dir: str | Path) -> None:
    video_dir = Path(video_dir)
    video_dir.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(frames):
        save_ppm(img, frame_path(video_dir, i))


def hflip(img: Image) -> Image:
    """Mirror horizontally: column x maps to width-1-x."""
    return Image(img.pixels[:, ::-1, :].copy())


def to_gray(img: Image) -> Image:
    """ITU-R 601 luminance: round(0.299 R + 0.587 G + 0.114 B)."""
    if img.channels == 1:
        return Image(img.pixels.copy())
    rgb = img.pixels.astype(np.float64)
    gray = 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]
    gray = np.clip(np.floor(gray + 0.5), 0, 255).astype(np.uint8)
    return Image(gray[:, :, None])


def resize_to(img: Image, width: int, height: int) -> Image:
    """Bilinear resample to exact output dimensions.

    Corner-aligned sampling: output pixel x reads source coordinate
    x*(w_src-1)/(w_dst-1), so corners map to corners and resampling at the
    source size is the identity. Samples never leave the source grid, which
    realizes edge clamping.
    """
    if width < 1 or height < 1:
        raise ValueError("output dimensions must be >= 1")
    src = img.pixels.astype(np.float64)
    h, w = src.shape[:2]
    xs = np.arange(width) * (w - 1) / (width - 1) if width > 1 else np.zeros(width)
    ys = np.arange(height) * (h - 1) / (height - 1) if height > 1 else np.zeros(height)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0)[None, :, None]
    fy = (ys - y0)[:, None, None]
    top = (1.0 - fx) * src[np.ix_(y0, x0)] + fx * src[np.ix_(y0, x1)]
    bot = (1.0 - fx) * src[np.ix_(y1, x0)] + fx * src[np.ix_(y1, x1)]
    out = (1.0 - fy) * top + fy * bot
    return Image(np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8))
