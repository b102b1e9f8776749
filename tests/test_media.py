import re

import numpy as np
import pytest

from handcam.core import remove_stale
from handcam.media import (
    FRAME_NAME,
    PpmError,
    frame_path,
    load_ppm,
    load_video_dir,
    resample,
    resize_to,
    save_ppm,
    to_gray,
)
from conftest import save_frames


def make_image(arr):
    return np.asarray(arr, dtype=np.uint8)


class TestPpm:
    def test_decode_declared_bytes(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        img = load_ppm(path)
        assert img.shape == (1, 2, 3) and img.dtype == np.uint8
        assert img.ravel().tolist() == [255, 0, 0, 0, 255, 0]

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "src.ppm"
        dst = tmp_path / "dst.ppm"
        src.write_bytes(b"P6\n5 4\n255\n" + rng.integers(0, 256, 60, dtype=np.uint8).tobytes())
        save_ppm(load_ppm(src), dst)
        assert src.read_bytes() == dst.read_bytes()

    def test_decode_encode_decode_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        img = make_image(rng.integers(0, 256, (7, 3, 3)))
        path = tmp_path / "x.ppm"
        save_ppm(img, path)
        assert np.array_equal(load_ppm(path), img)

    def test_header_comment_accepted(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
        assert load_ppm(path).ravel().tolist() == [1, 2, 3]

    def test_separator_is_one_whitespace_byte(self, tmp_path):
        # a '#' after maxval used to be taken as the separator
        path = tmp_path / "s.ppm"
        for sep in (b" ", b"\t", b"\r", b"\n"):
            path.write_bytes(b"P6\n1 1\n255" + sep + b"\x01\x02\x03")
            assert load_ppm(path).ravel().tolist() == [1, 2, 3]
        for data in (b"P6\n1 1\n255#\x01\x02\x03", b"P6\n1 1\n255#\n\x01\x02"):
            path.write_bytes(data)
            with pytest.raises(PpmError, match="whitespace"):
                load_ppm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(PpmError, match="unexpected end of pixel data"):
            load_ppm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PpmError, match="magic"):
            load_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00")
        with pytest.raises(PpmError, match="maxval"):
            load_ppm(path)

    DAMAGED = {  # each error, by a file that gives it
        "bad magic b'P5', expected P6": b"P5\n1 1\n255\n\x00",
        "malformed header token": b"P6\n1 x\n255\n\x00\x00\x00",
        "unexpected end of header": b"P6\n1 1",
        "image dimensions must be positive": b"P6\n0 1\n255\n",
        "unsupported maxval": b"P6\n1 1\n65535\n\x00\x00\x00",
        "expected one whitespace byte": b"P6\n1 1\n255#\x01\x02\x03",
        "unexpected end of pixel data": b"P6\n2 2\n255\n" + b"\x00" * 5,
        "trailing bytes": b"P6\n1 1\n255\n\x00\x00\x00\x00",
    }

    @pytest.mark.parametrize("message", DAMAGED)
    def test_every_error_names_the_file(self, tmp_path, message):
        # a damaged frame among a video's hundreds was not named
        path = tmp_path / "frame_000007.ppm"
        path.write_bytes(self.DAMAGED[message])
        with pytest.raises(PpmError, match=re.escape(f"{path}: {message}")):
            load_ppm(path)

    def test_load_is_a_read_only_view_of_the_file(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes(range(6)))
        img = load_ppm(path)
        assert not img.flags.writeable
        with pytest.raises(ValueError):
            img[0, 0, 0] = 1
        base = img
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, bytes)  # the file's bytes, not a copy of them

    @pytest.mark.parametrize("bad", [
        np.zeros((2, 3), dtype=np.uint8),
        np.zeros((2, 3, 4), dtype=np.uint8),
        np.zeros((2, 3, 1), dtype=np.uint8),
        np.zeros((2, 3, 3), dtype=np.float64),
        np.zeros((2, 3, 3), dtype=np.uint16),
        np.zeros((0, 3, 3), dtype=np.uint8),
    ])
    def test_save_rejects_all_but_uint8_rgb(self, tmp_path, bad):
        with pytest.raises(ValueError, match="uint8"):
            save_ppm(bad, tmp_path / "x.ppm")
        assert not (tmp_path / "x.ppm").exists()

    def test_save_non_contiguous(self, tmp_path):
        rng = np.random.default_rng(3)
        img = make_image(rng.integers(0, 256, (4, 5, 3)))
        save_ppm(img[:, ::-1], tmp_path / "x.ppm")
        assert np.array_equal(load_ppm(tmp_path / "x.ppm"), img[:, ::-1])

    def test_video_dir_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = [make_image(rng.integers(0, 256, (4, 5, 3))) for _ in range(3)]
        save_frames(frames, tmp_path / "vid")
        loaded = load_video_dir(tmp_path / "vid")
        assert loaded.shape == (3, 4, 5, 3) and loaded.dtype == np.uint8
        assert np.array_equal(loaded, np.stack(frames))

    def test_video_dir_names_a_frame_of_another_size(self, tmp_path):
        frames = [make_image(np.zeros((4, 5, 3)))] * 3
        save_frames(frames[:2] + [make_image(np.zeros((4, 6, 3)))], tmp_path / "vid")
        with pytest.raises(ValueError, match=r"frame_000002\.ppm has shape \(4, 6, 3\), "
                                             r"expected \(4, 5, 3\)"):
            load_video_dir(tmp_path / "vid")


class TestVideoDir:
    def test_frame_numbers_past_999999_are_listed(self, tmp_path):
        # frame_1000000.ppm used to be skipped, so 0, 1, 1000000 read as 2 frames
        img = make_image(np.zeros((1, 1, 3)))
        assert frame_path(tmp_path, 1_000_000).name == "frame_1000000.ppm"
        for i in (0, 1, 1_000_000):
            save_ppm(img, frame_path(tmp_path, i))
        with pytest.raises(ValueError, match="not contiguous"):
            load_video_dir(tmp_path)

    def test_names_frame_path_never_writes_are_not_frames(self, tmp_path):
        img = make_image(np.zeros((1, 1, 3)))
        for name in ("frame_000000.ppm", "frame_0000001.ppm", "frame_00001.ppm",
                     "frame_000001.ppm.bak"):
            save_ppm(img, tmp_path / name)
        assert len(load_video_dir(tmp_path)) == 1
        remove_stale(tmp_path, FRAME_NAME)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([
            "frame_0000001.ppm", "frame_00001.ppm", "frame_000001.ppm.bak"])


class TestToGray:
    def test_white_and_black(self):
        img = make_image([[[255, 255, 255], [0, 0, 0]]])
        assert to_gray(img)[0, :, 0].tolist() == [255, 0]

    def test_pure_red(self):
        # round(0.299 * 255) = round(76.245) = 76
        img = make_image([[[255, 0, 0]]])
        assert to_gray(img)[0, 0, 0] == 76

    def test_shape(self):
        assert to_gray(make_image(np.zeros((3, 4, 3)))).shape == (3, 4, 1)


class TestResize:
    def test_scale_one_identity(self):
        rng = np.random.default_rng(5)
        img = make_image(rng.integers(0, 256, (6, 8, 3)))
        assert np.array_equal(resize_to(img, 8, 6), img)

    def test_constant_image_any_scale(self):
        img = make_image(np.full((4, 4, 3), 123))
        for width, height in ((2, 2), (5, 5), (8, 8), (1, 3)):
            out = resize_to(img, width, height)
            assert np.all(out == 123)

    def test_checkerboard_2x_frozen(self):
        # corner-aligned sampling of [[0,255],[255,0]] evaluated by hand:
        # values 255*(x + y - 2xy) at x, y in {0, 1/3, 2/3, 1}
        img = make_image(np.stack([[[0, 255], [255, 0]]] * 3, axis=-1))
        out = resize_to(img, 4, 4)
        expected = np.array(
            [
                [0, 85, 170, 255],
                [85, 113, 142, 170],
                [170, 142, 113, 85],
                [255, 170, 85, 0],
            ]
        )
        for c in range(3):
            assert np.array_equal(out[:, :, c], expected)

    def test_matches_independent_evaluation(self):
        # direct per-pixel evaluation of the corner-aligned bilinear formula
        rng = np.random.default_rng(6)
        src = rng.integers(0, 256, (3, 4, 3)).astype(np.float64)
        out = resize_to(make_image(src.astype(np.uint8)), 9, 7)
        for yo in range(7):
            for xo in range(9):
                xs = xo * (4 - 1) / (9 - 1)
                ys = yo * (3 - 1) / (7 - 1)
                x0, y0 = int(np.floor(xs)), int(np.floor(ys))
                x1, y1 = min(x0 + 1, 3), min(y0 + 1, 2)
                fx, fy = xs - x0, ys - y0
                val = (1 - fy) * ((1 - fx) * src[y0, x0] + fx * src[y0, x1]) + fy * (
                    (1 - fx) * src[y1, x0] + fx * src[y1, x1]
                )
                assert np.array_equal(
                    out[yo, xo], np.floor(val + 0.5).astype(np.uint8)
                )

    def test_bad_scale(self):
        img = make_image(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError):
            resize_to(img, 0, 2)
        with pytest.raises(ValueError):
            resize_to(img, 2, -1)


def reference_resize_to(pixels, width, height):
    """`resize_to` as it was before `resample`: the whole frame in float64."""
    src = pixels.astype(np.float64)
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
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def random_stack(rng, t, h, w, c, kind):
    """uint8 (t, h, w, c) frames: random, constant over time, or 0/255."""
    if kind == "random":
        return rng.integers(0, 256, (t, h, w, c), dtype=np.uint8)
    if kind == "constant":
        return np.repeat(rng.integers(0, 256, (1, h, w, c), dtype=np.uint8), t, axis=0)
    return (rng.integers(0, 2, (t, h, w, c)) * 255).astype(np.uint8)


KINDS = ("random", "constant", "binary")


class TestResampleExact:
    def test_resize_matches_reference(self):
        rng = np.random.default_rng(7)
        for case in range(150):
            h, w = (int(v) for v in rng.integers(1, 13, 2))
            c = int(rng.choice([1, 3]))
            width, height = (int(v) for v in rng.integers(1, 25, 2))
            px = random_stack(rng, 1, h, w, c, KINDS[case % 3])[0]
            assert resize_to(px, width, height).tobytes() == (
                reference_resize_to(px, width, height).tobytes()
            ), (h, w, c, width, height)

    def test_window_matches_crop_of_full_resize(self):
        # any rows and columns of the resized grid, repeated and unordered
        # as replicate padding makes them, equal that crop of the whole frame
        rng = np.random.default_rng(8)
        for case in range(150):
            t = int(rng.integers(1, 5))
            h, w = (int(v) for v in rng.integers(1, 13, 2))
            c = int(rng.choice([1, 3]))
            width, height = (int(v) for v in rng.integers(1, 25, 2))
            rows = rng.integers(0, height, int(rng.integers(1, 9)))
            cols = rng.integers(0, width, int(rng.integers(1, 9)))
            stack = random_stack(rng, t, h, w, c, KINDS[case % 3])
            out = resample(stack, width, height, rows, cols)
            assert out.shape == (t, len(rows), len(cols), c) and out.dtype == np.uint8
            for frame, got in zip(stack, out):
                want = reference_resize_to(frame, width, height)[np.ix_(rows, cols)]
                assert got.tobytes() == want.tobytes(), (h, w, width, height)


def parent_source_coords(idx, n_dst, n_src):
    """`media._source_coords` as `parent_resample` used it."""
    pos = idx * (n_src - 1) / (n_dst - 1) if n_dst > 1 else np.zeros(len(idx))
    lo = np.floor(pos).astype(np.int64)
    return lo, np.minimum(lo + 1, n_src - 1), pos - lo


def parent_resample(stack, width, height, rows, cols):
    """`resample` as it was before its in-place passes: six float64 arrays
    of the window, then `floor` and `clip`."""
    if width < 1 or height < 1:
        raise ValueError("output dimensions must be >= 1")
    h, w = stack.shape[1:3]
    if (width, height) == (w, h):
        return stack[:, rows][:, :, cols]
    y0, y1, fy = parent_source_coords(rows, height, h)
    x0, x1, fx = parent_source_coords(cols, width, w)
    first = int(y0.min())
    band = stack[:, first : int(y1.max()) + 1]
    fx = fx[:, None]
    horiz = (1.0 - fx) * np.take(band, x0, axis=2) + fx * np.take(band, x1, axis=2)
    fy = fy[:, None, None]
    top, bot = np.take(horiz, y0 - first, axis=1), np.take(horiz, y1 - first, axis=1)
    out = (1.0 - fy) * top + fy * bot
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def crop_window(scale, w, h, dx, dy):
    """Rows and columns of the scaled frame that `align_video` reads for a
    w x h output with the template at (0, 0): clipped, so a window past an
    edge replicates it."""
    sw, sh = int(np.floor(scale * w + 0.5)), int(np.floor(scale * h + 0.5))
    return sw, sh, np.clip(np.arange(h) + dy, 0, sh - 1), np.clip(np.arange(w) + dx, 0, sw - 1)


class TestLeanResample:
    SCALES = (0.9, 1.1, 1.2, 1.3)

    def test_matches_parent_at_corpus_sizes(self):
        # 90 x 120 frames, chunks of 1-7 frames, windows inside the frame
        # and past each of its four edges
        rng = np.random.default_rng(31)
        offsets = [(5, 4), (-20, 3), (7, -15), (60, 8), (4, 50), (-30, -30), (80, 70)]
        for case in range(56):
            scale = self.SCALES[case % 4]
            t = case % 7 + 1
            kind = ("random", "binary")[case // 28]
            stack = random_stack(rng, t, 90, 120, 3, kind)
            dx, dy = offsets[case % len(offsets)]
            sw, sh, rows, cols = crop_window(scale, 120, 90, dx, dy)
            got = resample(stack, sw, sh, rows, cols)
            want = parent_resample(stack, sw, sh, rows, cols)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (scale, t, dx, dy)

    def test_extreme_frames_match_parent(self):
        # all 0, all 255 and 0/255 stripes: the ends of the rounding range
        for fill in (np.zeros, lambda s, dtype: np.full(s, 255, dtype=dtype)):
            stack = fill((3, 90, 120, 3), dtype=np.uint8)
            stack[1, ::2] = 255 - stack[1, ::2]
            stack[2, :, ::3] = 255 - stack[2, :, ::3]
            for scale in self.SCALES:
                sw, sh, rows, cols = crop_window(scale, 120, 90, -9, 95)
                assert resample(stack, sw, sh, rows, cols).tobytes() == (
                    parent_resample(stack, sw, sh, rows, cols).tobytes())

    @pytest.mark.parametrize("scale", SCALES)
    def test_memory_two_window_arrays(self, scale, traced_peak):
        # a 4-frame chunk peaks near 3x its float64 output (the parent, 5.9x)
        stack = np.random.default_rng(32).integers(0, 256, (4, 90, 120, 3), dtype=np.uint8)
        sw, sh, rows, cols = crop_window(scale, 120, 90, 6, 5)
        peak, out = traced_peak(resample, stack, sw, sh, rows, cols)
        assert peak <= 3.5 * out.size * 8


class TestNumpyCast:
    def test_uint8_cast_truncates_like_floor(self):
        # `resample` rounds by `(x + 0.5).astype(np.uint8)` on [0.5, 256):
        # every value near each integer and at the ends of the range
        ints = np.arange(256, dtype=np.float64)
        near = np.concatenate([ints, np.nextafter(ints, -1), np.nextafter(ints, 256),
                               ints + 0.5, ints + 0.25, ints + 0.999999])
        rng = np.random.default_rng(33)
        x = np.concatenate([near, rng.uniform(0.5, 256, 100_000), [np.nextafter(256.0, 0)]])
        x = x[(x >= 0.5) & (x < 256)]
        assert np.array_equal(x.astype(np.uint8).astype(np.float64), np.floor(x))
