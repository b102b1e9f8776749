"""Feature ingestion and fusion.

Per-frame features normally come from files produced by an external
extractor (deep features etc.); the binary container below is the exchange
format. Its payload is float32. A stream read from it maps the file
read-only and keeps the payload as a read-only float32 view of the
mapping: no copy is made, each consumer upcasts the rows it computes on,
and gives their pages back once used (`core.release_pages`). A file is
replaced whole when it is written, never rewritten in place, so a stream
mapped from it keeps its values. A joint color histogram is provided as a
reference extractor so the whole pipeline can run without any external
dependency.
"""

from __future__ import annotations

import mmap
import os
import stat
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import DEFAULT_FPS, Camera, FeatureStream, all_finite, check_fps
from .media import load_ppm

MAGIC = b"HCFT"
VERSION = 1
DEFAULT_BINS = 8  # histogram bins per color channel

_CAMERA_CODE = {Camera.LEFT_HAND: 0, Camera.RIGHT_HAND: 1, Camera.HEAD: 2}
_CAMERA_FROM_CODE = {v: k for k, v in _CAMERA_CODE.items()}


class FeatureFileError(ValueError):
    """Malformed feature container."""


def write_features(stream: FeatureStream, path: str | Path) -> None:
    """Serialize a feature stream; payload is float32 little-endian, row-major.

    A value beyond float32's range is refused before the file is opened: it
    would be written as inf, which `read_features` rejects. The file is
    written beside `path` under a temporary name and then renamed over it,
    so a process that has `path` mapped keeps its bytes (truncating a mapped
    file faults its readers) and a failed write leaves the old file; the
    temporary file is removed on any failure."""
    vid = stream.video_id.encode("utf-8")
    if len(vid) > 0xFFFF:
        raise FeatureFileError("video_id too long")
    if stream.n_frames < 1 or stream.dim < 1:
        raise FeatureFileError("feature files require N >= 1 and D >= 1")
    header = MAGIC + struct.pack(
        "<IH", VERSION, len(vid)
    ) + vid + struct.pack(
        "<BdII", _CAMERA_CODE[stream.camera], stream.fps, stream.n_frames, stream.dim
    )
    with np.errstate(over="ignore"):
        payload = stream.values.astype("<f4", copy=False)
    if not all_finite(payload):
        raise FeatureFileError("values beyond the float32 range of the payload")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            f.write(payload)  # the array's buffer, not a copy of it
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_features(path: str | Path) -> FeatureStream:
    """The stream of a `.feat` file, its values a view of the file mapped
    read-only. On CPython each live mapping holds a duplicate of the file's
    descriptor until the stream is dropped. A file that cannot be mapped
    (missing, empty, a directory or another non-regular file), or whose
    bytes are not a feature container, is a FeatureFileError naming the path."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):  # opening a FIFO would wait for a writer
            raise ValueError("not a regular file")
        with open(path, "rb") as f:
            data = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as e:  # ValueError: also "cannot mmap an empty file"
        raise FeatureFileError(f"{path}: cannot map the file: {e}") from None
    try:
        if data[:4] != MAGIC:
            raise FeatureFileError(f"magic mismatch: {data[:4]!r}")
        pos = 4
        version, vid_len = struct.unpack_from("<IH", data, pos)
        pos += 6
        vid = data[pos : pos + vid_len].decode("utf-8")
        pos += vid_len
        camera_code, fps, n, d = struct.unpack_from("<BdII", data, pos)
        pos += struct.calcsize("<BdII")
        if version != VERSION:
            raise FeatureFileError(f"unsupported version {version}")
        if camera_code not in _CAMERA_FROM_CODE:
            raise FeatureFileError(f"unknown camera code {camera_code}")
        if n < 1 or d < 1:
            raise FeatureFileError("header requires N >= 1 and D >= 1")
        expected = n * d * 4
        if len(data) - pos < expected:
            raise FeatureFileError("truncated payload")
        if len(data) - pos > expected:
            raise FeatureFileError("payload length mismatch: trailing bytes")
        # a read-only view of the mapping, aligned or not: FeatureStream keeps it as it is,
        # and its finiteness check gives back each block's pages
        values = np.frombuffer(data, dtype="<f4", count=n * d, offset=pos).reshape(n, d)
        return FeatureStream(vid, _CAMERA_FROM_CODE[camera_code], fps, values)
    except struct.error as e:
        raise FeatureFileError(f"{path}: truncated header: {e}") from None
    except UnicodeDecodeError as e:
        raise FeatureFileError(f"{path}: video id is not UTF-8: {e}") from None
    except ValueError as e:  # a FeatureFileError, or fps or values not finite
        raise FeatureFileError(f"{path}: {e}") from None


def _check_bins(bins_per_channel: int) -> None:
    if not 2 <= bins_per_channel <= 16:
        raise ValueError("bins_per_channel must be in [2, 16]")


def color_histogram(pixels: np.ndarray, bins_per_channel: int = DEFAULT_BINS) -> np.ndarray:
    """Joint RGB histogram of a uint8 (h, w, 3) frame, L1-normalized to sum 1.

    Bin index per channel is floor(value * bins / 256); the joint bin is
    (r_bin * bins + g_bin) * bins + b_bin, giving a bins**3 vector.
    """
    _check_bins(bins_per_channel)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("color_histogram requires a 3-channel frame")
    b = bins_per_channel
    # uint16 is exact (value * b <= 4,080) and keeps each frame's temporaries small
    idx = (pixels.astype(np.uint16) * b) // 256
    flat = (idx[:, :, 0] * b + idx[:, :, 1]) * b + idx[:, :, 2]
    counts = np.bincount(flat.ravel(), minlength=b * b * b).astype(np.float64)
    return counts / counts.sum()


def histogram_stream(
    paths: list[Path],
    video_id: str,
    camera: Camera,
    fps: float = DEFAULT_FPS,
    bins_per_channel: int = DEFAULT_BINS,
) -> FeatureStream:
    """The reference extractor over the frame files of a video, read one at
    a time, each histogram written into its row of one float32 array: the
    payload type, rounded as `write_features` rounds, which copies nothing."""
    check_fps(fps)
    _check_bins(bins_per_channel)
    values = np.empty((len(paths), bins_per_channel**3), dtype=np.float32)
    for row, path in zip(values, paths):
        row[:] = color_histogram(load_ppm(path), bins_per_channel)
    values.setflags(write=False)  # fresh and ours: FeatureStream keeps it without a copy
    return FeatureStream(video_id, camera, fps, values)


def fuse_concat(streams: Sequence[FeatureStream]) -> FeatureStream:
    """Concatenate streams frame-wise in one copy: row i becomes [a_i, b_i, ...].

    The fused stream keeps the identity of the first input. Order matters
    for the layout; downstream classifiers accept any order.
    """
    a = streams[0]
    for b in streams[1:]:
        if a.n_frames != b.n_frames:
            raise ValueError(f"length mismatch: {a.n_frames} vs {b.n_frames} frames")
        if a.fps != b.fps:
            raise ValueError(f"fps mismatch: {a.fps} vs {b.fps}")
    values = np.concatenate([s.values for s in streams], axis=1)
    values.setflags(write=False)  # fresh and ours: FeatureStream keeps it without a copy
    return FeatureStream(a.video_id, a.camera, a.fps, values)
