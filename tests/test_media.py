import numpy as np
import pytest

from handcam.media import (
    Image,
    PpmError,
    hflip,
    load_ppm,
    load_video_dir,
    resample,
    resize_to,
    save_ppm,
    save_video_dir,
    to_gray,
)


def make_image(arr):
    return Image(np.asarray(arr, dtype=np.uint8))


class TestPpm:
    def test_decode_declared_bytes(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        img = load_ppm(path)
        assert (img.width, img.height, img.channels) == (2, 1, 3)
        assert img.pixels.ravel().tolist() == [255, 0, 0, 0, 255, 0]

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
        assert np.array_equal(load_ppm(path).pixels, img.pixels)

    def test_header_comment_accepted(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
        assert load_ppm(path).pixels.ravel().tolist() == [1, 2, 3]

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

    def test_video_dir_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = [make_image(rng.integers(0, 256, (4, 5, 3))) for _ in range(3)]
        save_video_dir(frames, tmp_path / "vid")
        loaded = load_video_dir(tmp_path / "vid")
        assert len(loaded) == 3
        for a, b in zip(frames, loaded):
            assert np.array_equal(a.pixels, b.pixels)


class TestHflip:
    def test_involution(self):
        rng = np.random.default_rng(3)
        img = make_image(rng.integers(0, 256, (6, 7, 3)))
        assert np.array_equal(hflip(hflip(img)).pixels, img.pixels)

    def test_two_pixel_swap(self):
        img = make_image([[[1, 1, 1], [2, 2, 2]]])
        assert hflip(img).pixels[0, :, 0].tolist() == [2, 1]

    def test_width_one_fixed_point(self):
        img = make_image([[[9, 8, 7]], [[1, 2, 3]]])
        assert np.array_equal(hflip(img).pixels, img.pixels)

    def test_preserves_row_multisets(self):
        rng = np.random.default_rng(4)
        img = make_image(rng.integers(0, 256, (5, 9, 3)))
        flipped = hflip(img)
        for r in range(5):
            assert sorted(map(tuple, img.pixels[r])) == sorted(map(tuple, flipped.pixels[r]))


class TestToGray:
    def test_white_and_black(self):
        img = make_image([[[255, 255, 255], [0, 0, 0]]])
        assert to_gray(img).pixels[0, :, 0].tolist() == [255, 0]

    def test_pure_red(self):
        # round(0.299 * 255) = round(76.245) = 76
        img = make_image([[[255, 0, 0]]])
        assert to_gray(img).pixels[0, 0, 0] == 76

    def test_gray_input_identity(self):
        img = make_image(np.full((2, 2, 1), 40))
        assert np.array_equal(to_gray(img).pixels, img.pixels)


class TestResize:
    def test_scale_one_identity(self):
        rng = np.random.default_rng(5)
        img = make_image(rng.integers(0, 256, (6, 8, 3)))
        assert np.array_equal(resize_to(img, 8, 6).pixels, img.pixels)

    def test_constant_image_any_scale(self):
        img = make_image(np.full((4, 4, 3), 123))
        for width, height in ((2, 2), (5, 5), (8, 8), (1, 3)):
            out = resize_to(img, width, height)
            assert np.all(out.pixels == 123)

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
            assert np.array_equal(out.pixels[:, :, c], expected)

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
                    out.pixels[yo, xo], np.floor(val + 0.5).astype(np.uint8)
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
            assert resize_to(Image(px), width, height).pixels.tobytes() == (
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
