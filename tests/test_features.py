import mmap
import os
import re
import struct

import numpy as np
import pytest

from handcam.change import change_feature_matrix
from handcam.classify import LinearModel, TrainConfig, model_bytes, score_stream, train
from handcam.core import Camera, FeatureStream, StateSequence
from handcam import features as features_mod
from handcam.features import (
    _CAMERA_CODE,
    MAGIC,
    VERSION,
    FeatureFileError,
    color_histogram,
    fuse_concat,
    histogram_stream,
    read_features,
    write_features,
)
from handcam.inference import segment_features
from handcam.media import frame_paths
from conftest import save_frames, space_of


def stream(values, vid="v", camera=Camera.RIGHT_HAND, fps=6.0):
    return FeatureStream(vid, camera, fps, values)


def parent_feature_bytes(stream):
    """The bytes write_features wrote when it joined the header to a
    float32 copy of the payload (the reference)."""
    vid = stream.video_id.encode("utf-8")
    header = MAGIC + struct.pack(
        "<IH", VERSION, len(vid)
    ) + vid + struct.pack(
        "<BdII", _CAMERA_CODE[stream.camera], stream.fps, stream.n_frames, stream.dim
    )
    return header + stream.values.astype("<f4").tobytes()


def as_read(values, aligned=True):
    """`values` rounded to float32 and held as `read_features` holds them: a
    read-only view of a buffer (there, the file's mapping), at a 4-byte-
    aligned offset or not."""
    pad = b"" if aligned else b"\0"
    payload = pad + np.asarray(values, dtype="<f4").tobytes()
    return np.frombuffer(payload, dtype="<f4", offset=len(pad)).reshape(np.shape(values))


def float32_pair(values, aligned=True):
    """A stream of `values` rounded to float32 as a feature file holds them,
    and the same stream upcast to float64 (the reference)."""
    v32 = as_read(values, aligned)
    return stream(v32), FeatureStream("v", Camera.RIGHT_HAND, 6.0, v32.astype(np.float64))


class TestFeatureFile:
    def test_streams_no_file_can_hold_refused(self, tmp_path):
        # a video id longer than its u16 length field, or no frames or dims
        path = tmp_path / "s.feat"
        for s, message in ((stream(np.ones((2, 3)), vid="v" * 0x10000), "video_id too long"),
                           (stream(np.ones((0, 3))), "require N >= 1 and D >= 1"),
                           (stream(np.ones((2, 0))), "require N >= 1 and D >= 1")):
            with pytest.raises(FeatureFileError, match=message):
                write_features(s, path)
        assert list(tmp_path.iterdir()) == []
        write_features(stream(np.ones((2, 3)), vid="v" * 0xFFFF), path)
        assert read_features(path).video_id == "v" * 0xFFFF

    def test_bytes_match_parent(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "s.feat"
        for i in range(30):
            values = rng.standard_normal((int(rng.integers(1, 300)), int(rng.integers(1, 70))))
            values *= 10.0 ** rng.integers(-30, 30)  # inside the float32 range
            s = stream(values, vid="clip_é" * (i % 4), camera=list(Camera)[i % 3],
                       fps=float(rng.uniform(0.5, 60)))
            write_features(s, path)
            assert path.read_bytes() == parent_feature_bytes(s)

    def test_memory_holds_one_float32_payload(self, tmp_path, traced_peak):
        # the parent held the float32 array and its bytes, then those bytes
        # and the header joined to them: the float64 values' size (1.0x)
        s = stream(np.random.default_rng(1).standard_normal((20_000, 32)))
        peak, _ = traced_peak(write_features, s, tmp_path / "s.feat")
        assert peak <= 0.6 * s.values.nbytes, peak / s.values.nbytes

    def test_values_beyond_float32_rejected_before_the_file(self, tmp_path):
        path = tmp_path / "s.feat"
        for big in (3.5e38, -1e39, 1e300):
            with pytest.raises(FeatureFileError, match="float32"):
                write_features(stream([[1.0, big]]), path)
            assert not path.exists()
        top = float(np.finfo(np.float32).max)
        write_features(stream([[top, -top]]), path)
        assert np.array_equal(read_features(path).values, [[top, -top]])

    def test_read_memory_holds_the_file_and_the_values_once(self, tmp_path, traced_peak):
        # the values are a view of the file's mapping, which tracemalloc does
        # not count: 0.2% of the payload. A copy of the file's bytes was 1x,
        # and a float64 copy of them beside those bytes 3x
        path = tmp_path / "s.feat"
        write_features(stream(np.random.default_rng(4).standard_normal((20_000, 32))), path)
        peak, s = traced_peak(read_features, path)
        assert peak <= 0.05 * s.values.nbytes, peak / s.values.nbytes

    def test_values_are_a_read_only_float32_view_of_the_file(self, tmp_path):
        path = tmp_path / "s.feat"
        values = np.random.default_rng(7).standard_normal((50, 6))
        write_features(stream(values), path)
        got = read_features(path).values
        assert got.dtype == np.float32 and not got.flags.writeable
        base = got
        while isinstance(base, np.ndarray):
            base = base.base
        mapping = base.obj  # ndarray -> memoryview -> the file's mapping
        assert isinstance(mapping, mmap.mmap)
        assert len(mapping) == path.stat().st_size  # the file's own pages, not a copy
        assert np.array_equal(got, values.astype(np.float32))

    @pytest.mark.parametrize("vid", ["v", "ab", "test_00"])
    def test_payload_at_any_alignment_reads_exactly(self, tmp_path, vid):
        # the header is 27 bytes and the video id: 28 bytes with "v", whose
        # payload is 4-byte aligned, 29 with "ab" and 34 with "test_00"
        path = tmp_path / "s.feat"
        values = np.random.default_rng(8).standard_normal((300, 7)).astype(np.float32)
        write_features(stream(values, vid=vid), path)
        got = read_features(path)
        assert got.values.flags.aligned == (len(vid) % 4 == 1)
        assert got.values.tobytes() == values.tobytes()
        write_features(got, tmp_path / "again.feat")
        assert (tmp_path / "again.feat").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("vid", ["v", "test_00"])
    def test_read_stream_computes_as_its_float64_upcast(self, tmp_path, vid):
        # every float64 consumer of a feature file, its payload aligned or
        # not, gives the bits of a float64 copy of the stream
        rng = np.random.default_rng(10)
        path = tmp_path / "s.feat"
        write_features(stream(rng.standard_normal((9_000, 16)), vid=vid), path)
        s32 = read_features(path)
        s64 = FeatureStream(vid, s32.camera, s32.fps, s32.values.astype(np.float64))
        model = LinearModel(rng.standard_normal((24, 16)), rng.standard_normal(24), space_of(24),
                            TrainConfig())
        cand = np.flatnonzero(rng.random(8_999) < 0.05) + 1
        truth = [StateSequence(space_of(3), rng.integers(0, 3, 9_000))]
        for as_bytes in (lambda s: score_stream(model, s).tobytes(),
                         lambda s: segment_features(s, cand).tobytes(),
                         lambda s: change_feature_matrix(s, 3).tobytes(),
                         lambda s: model_bytes(train([s], truth, TrainConfig(epochs=3)))):
            assert as_bytes(s32) == as_bytes(s64)

    def test_decode_two_rows(self, tmp_path):
        path = tmp_path / "s.feat"
        write_features(stream([[1, 2, 3], [4, 5, 6]]), path)
        got = read_features(path)
        assert got.video_id == "v"
        assert got.camera is Camera.RIGHT_HAND
        assert got.fps == 6.0
        assert np.array_equal(got.values, [[1, 2, 3], [4, 5, 6]])

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        a = tmp_path / "a.feat"
        b = tmp_path / "b.feat"
        write_features(stream(rng.standard_normal((10, 4)), vid="clip_01"), a)
        write_features(read_features(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_read_stream_keeps_its_values_when_its_file_is_rewritten(self, tmp_path):
        # the stream maps the file: rewriting the file in place truncated the
        # pages under the mapping, and reading them then faulted the process
        path = tmp_path / "s.feat"
        values = np.random.default_rng(11).standard_normal((5_000, 8))
        write_features(stream(values), path)
        got = read_features(path)
        write_features(stream(np.ones((2, 3))), path)
        assert np.array_equal(got.values, values.astype(np.float32))
        assert read_features(path).values.shape == (2, 3)

    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "s.feat"
        write_features(stream(np.arange(12.0).reshape(4, 3)), path)
        old = path.read_bytes()

        class FullDisk:
            """A file whose second write (the payload) fails."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

        monkeypatch.setattr(features_mod, "open", lambda p, mode: FullDisk(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            write_features(stream(np.ones((50, 3))), path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.feat"]

    def test_unmappable_file_named(self, tmp_path):
        # a FIFO is refused before it is opened: opening it waits for a writer
        empty, fifo = tmp_path / "empty.feat", tmp_path / "fifo.feat"
        empty.write_bytes(b"")
        paths = [empty, tmp_path, tmp_path / "missing.feat"]
        if hasattr(os, "mkfifo"):
            os.mkfifo(fifo)
            paths.append(fifo)
        for path in paths:
            with pytest.raises(FeatureFileError, match=re.escape(f"{path}: cannot map")):
                read_features(path)

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(FeatureFileError, match="magic mismatch"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.feat"
        write_features(stream([[1.0, 2.0]]), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FeatureFileError, match="truncated payload"):
            read_features(path)

    # each error of a damaged file, by a damage of the file of [[1.0, 2.0]] with
    # video id "v": magic 0:4, version 4:8, id length 8:10, id 10, camera 11,
    # fps 12:20, N 20:24, D 24:28, payload 28:36
    DAMAGES = {
        "magic mismatch": lambda b: b"NOPE" + b[4:],
        "truncated header": lambda b: b[:12],
        "video id is not UTF-8": lambda b: b[:10] + b"\xff" + b[11:],
        "unsupported version 2": lambda b: b[:4] + struct.pack("<I", 2) + b[8:],
        "unknown camera code 9": lambda b: b[:11] + b"\x09" + b[12:],
        "fps": lambda b: b[:12] + struct.pack("<d", np.nan) + b[20:],
        "N >= 1 and D >= 1": lambda b: b[:20] + struct.pack("<I", 0) + b[24:],
        "truncated payload": lambda b: b[:-4],
        "trailing bytes": lambda b: b + b"\x00",
        "non-finite": lambda b: b[:-4] + np.array([np.inf], dtype="<f4").tobytes(),
    }

    @pytest.mark.parametrize("message", DAMAGES)
    def test_every_error_names_the_file(self, tmp_path, message):
        # only the mapping errors named it; a bad file among several was not told apart
        path = tmp_path / "bad.feat"
        write_features(stream([[1.0, 2.0]]), path)
        path.write_bytes(self.DAMAGES[message](path.read_bytes()))
        with pytest.raises(FeatureFileError, match=re.escape(f"{path}: ") + ".*" + message):
            read_features(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "bad.feat"
        write_features(stream([[1.0, 2.0]]), path)
        data = bytearray(path.read_bytes())
        data[-8:] = np.array([np.inf, 1.0], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFileError, match="non-finite"):
            read_features(path)


class TestColorHistogram:
    @pytest.mark.parametrize("shape", [(3, 3), (3, 3, 1), (3, 3, 4), (3, 3, 3, 1)])
    def test_frame_needs_three_channels(self, shape):
        with pytest.raises(ValueError, match="requires a 3-channel frame"):
            color_histogram(np.zeros(shape, dtype=np.uint8))

    def test_all_black(self):
        img = np.zeros((3, 3, 3), dtype=np.uint8)
        h = color_histogram(img)
        assert h[0] == 1.0
        assert h.sum() == 1.0
        assert np.count_nonzero(h) == 1

    def test_half_black_half_white(self):
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        px[:, 1, :] = 255
        h = color_histogram(px)
        assert h[0] == 0.5  # bin (0, 0, 0)
        assert h[(7 * 8 + 7) * 8 + 7] == 0.5  # bin (7, 7, 7)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (11, 13, 3), dtype=np.uint8)
        assert abs(color_histogram(img).sum() - 1.0) < 1e-9

    def test_hflip_invariance(self):
        # why `extract` needs no mirroring of left-hand videos
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (5, 6, 3), dtype=np.uint8)
        assert np.array_equal(color_histogram(img), color_histogram(img[:, ::-1]))

    def test_matches_int64_bins_at_every_bin_count(self):
        # the bins are computed in uint16: every value, at every bin count,
        # must land where int64 arithmetic puts it
        px = np.stack(np.meshgrid(np.arange(256), np.arange(256), indexing="ij"), -1)
        img = np.concatenate([px, px[..., :1][::-1]], axis=-1).astype(np.uint8)
        for b in range(2, 17):
            idx = (img.astype(np.int64) * b) // 256
            flat = (idx[:, :, 0] * b + idx[:, :, 1]) * b + idx[:, :, 2]
            want = np.bincount(flat.ravel(), minlength=b**3) / flat.size
            assert np.array_equal(color_histogram(img, b), want), b

    def test_bins_range(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        for bad in (1, 17, 0):
            with pytest.raises(ValueError):
                color_histogram(img, bins_per_channel=bad)

    def test_stream_extraction(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = [rng.integers(0, 256, (4, 4, 3), dtype=np.uint8) for _ in range(3)]
        save_frames(frames, tmp_path / "vid")
        s = histogram_stream(frame_paths(tmp_path / "vid"), "vid", Camera.LEFT_HAND,
                             bins_per_channel=4)
        assert s.n_frames == 3 and s.dim == 64
        want = np.array([color_histogram(f, 4) for f in frames])
        assert np.array_equal(s.values, want.astype(np.float32))
        # the file holds the bytes of the float64 histograms written directly
        write_features(s, tmp_path / "got.feat")
        write_features(stream(want, "vid", Camera.LEFT_HAND), tmp_path / "want.feat")
        assert (tmp_path / "got.feat").read_bytes() == (tmp_path / "want.feat").read_bytes()

    def test_stream_memory_holds_the_histograms_once(self, tmp_path, traced_peak):
        # the parent held every frame's histogram beside their stack (2.07x),
        # then a finiteness mask of one byte per value beside the stream (1.125x)
        rng = np.random.default_rng(5)
        save_frames([rng.integers(0, 256, (4, 4, 3), dtype=np.uint8) for _ in range(2000)],
                    tmp_path / "vid")
        paths = frame_paths(tmp_path / "vid")
        peak, s = traced_peak(histogram_stream, paths, "vid", Camera.RIGHT_HAND)
        assert peak <= 1.125 * s.values.nbytes, peak / s.values.nbytes


class TestFuseConcat:
    def test_concatenation_order(self):
        a = stream([[1, 2], [3, 4]])
        b = stream([[5, 6, 7], [8, 9, 10]])
        fused = fuse_concat([a, b])
        assert fused.dim == 5
        assert np.array_equal(fused.values[0], [1, 2, 5, 6, 7])
        assert np.array_equal(fused.values[1], [3, 4, 8, 9, 10])

    def test_empty_dim_identity(self):
        a = stream([[1.0, 2.0]])
        empty = FeatureStream("v", Camera.HEAD, 6.0, np.empty((1, 0)))
        assert np.array_equal(fuse_concat([a, empty]).values, a.values)

    def test_order_sensitivity(self):
        a = stream([[1.0]])
        b = stream([[2.0]])
        assert fuse_concat([a, b]).values.tolist() != fuse_concat([b, a]).values.tolist()

    def test_memory_holds_the_fused_array_once(self, traced_peak):
        # the stream keeps the concatenation (the parent copied it, 2x)
        rng = np.random.default_rng(2)
        a, b = stream(rng.standard_normal((20_000, 16))), stream(rng.standard_normal((20_000, 8)))
        peak, fused = traced_peak(fuse_concat, [a, b])
        assert peak <= 1.2 * fused.values.nbytes, peak / fused.values.nbytes

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            fuse_concat([stream([[1.0]]), stream([[1.0], [2.0]])])
