import json

import numpy as np
import pytest
from scipy.ndimage import label as scipy_label
from scipy.signal import fftconvolve

from handcam import synth
from handcam.alignment import (
    BETA_THRESHOLD,
    SCALES,
    _valid_correlation,
    align_video,
    align_video_dir,
    align_videos,
    check_params,
    ncc_match,
    pixel_stats,
    select_reference,
    stable_component,
    zncc_map,
)
from handcam.core import write_json
from handcam.media import frame_path, load_video_dir, round_u8, save_ppm
from conftest import save_frames
from test_media import KINDS, random_stack, reference_resize_to
from test_synth import smooth_patch


def gray_video(series):
    """A stack of 2 x 2 frames where every pixel follows the same scalar time series."""
    return np.broadcast_to(np.asarray(series, dtype=np.uint8)[:, None, None, None],
                           (len(series), 2, 2, 3))


class TestAlignmentParams:
    def test_defaults_accepted(self):
        assert SCALES == (0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
        check_params(BETA_THRESHOLD, SCALES)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_beta_threshold_finite_positive(self, bad):
        with pytest.raises(ValueError, match="beta_threshold"):
            check_params(bad, SCALES)

    @pytest.mark.parametrize("bad", [(), (0.0,), (1.0, -0.5), (1.0, float("nan")),
                                     (float("inf"),), (1.0, -float("inf"))])
    def test_scales_finite_positive(self, bad):
        with pytest.raises(ValueError, match="scales"):
            check_params(BETA_THRESHOLD, bad)


class TestPixelStats:
    def test_constant_video(self):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, (4, 5, 3), dtype=np.uint8)
        median, diversity = pixel_stats(np.stack([frame] * 4))
        assert np.array_equal(median, frame)
        assert np.all(diversity == 0.0)

    def test_series_1_2_9(self):
        # median 2, mean absolute deviation (1 + 0 + 7) / 3 = 8/3
        median, diversity = pixel_stats(gray_video([1, 2, 9]))
        assert np.all(median == 2.0)
        assert np.allclose(diversity, 8.0 / 3.0)

    def test_even_count_series_10_20(self):
        median, diversity = pixel_stats(gray_video([10, 20]))
        assert np.all(median == 15.0)
        assert np.all(diversity == 5.0)

    def test_dimension_mismatch(self, tmp_path):
        save_frames([np.zeros((2, 2, 3), dtype=np.uint8), np.zeros((2, 3, 3), dtype=np.uint8)],
                    tmp_path / "v")
        with pytest.raises(ValueError, match=r"frame_000001\.ppm has shape \(2, 3, 3\)"):
            pixel_stats(load_video_dir(tmp_path / "v"))
        with pytest.raises(ValueError, match="at least one frame"):
            pixel_stats(np.zeros((0, 2, 2, 3), dtype=np.uint8))

    def test_median_minimizes_l1(self):
        # sum |x - median| <= sum |x - c| for random alternatives c
        rng = np.random.default_rng(1)
        series = rng.integers(0, 256, size=(300, 9)).astype(np.float64)
        med = np.median(series, axis=1, keepdims=True)
        best = np.abs(series - med).sum(axis=1)
        for _ in range(100):
            c = rng.uniform(0, 255, size=(300, 1))
            assert np.all(best <= np.abs(series - c).sum(axis=1) + 1e-9)

    def test_memory_stays_near_the_frames(self, traced_peak):
        # uint8 bands, not a float64 stack of every frame (8x the frames)
        rng = np.random.default_rng(3)
        frames = rng.integers(0, 256, (40, 48, 20, 3), dtype=np.uint8)
        peak, _ = traced_peak(pixel_stats, frames)
        assert peak < 1.5 * 40 * 48 * 20 * 3

    def test_diversity_permutation_invariant(self):
        rng = np.random.default_rng(2)
        frames = np.stack([rng.integers(0, 256, (3, 3, 3), dtype=np.uint8) for _ in range(7)])
        _, diversity = pixel_stats(frames)
        _, diversity_p = pixel_stats(frames[rng.permutation(7)])
        assert np.array_equal(diversity, diversity_p)


class TestStableMask:
    def test_constant_video_full_mask(self):
        _, diversity = pixel_stats(gray_video([7, 7, 7]))
        assert stable_component(diversity, BETA_THRESHOLD) == ((0, 0, 2, 2), 4)

    def test_everything_unstable(self):
        _, diversity = pixel_stats(gray_video([0, 255, 0, 255]))
        assert stable_component(diversity, BETA_THRESHOLD) is None

    def test_largest_component_box(self):
        # two stable rectangles: 10x10 = 100 px and 6x5 = 30 px
        h, w = 20, 30
        frames = []
        rng = np.random.default_rng(3)
        base = rng.integers(80, 176, (h, w, 3))
        for t in range(8):
            px = base + (rng.standard_normal((h, w, 3)) * 80)
            px = np.clip(px, 0, 255)
            px[2:12, 2:12] = base[2:12, 2:12]  # 100 px component
            px[14:19, 20:26] = base[14:19, 20:26]  # 30 px component
            frames.append(px.astype(np.uint8))
        _, diversity = pixel_stats(np.stack(frames))
        assert stable_component(diversity, BETA_THRESHOLD) == ((2, 2, 12, 12), 100)

    def test_requires_three_channels(self):
        frames = np.zeros((2, 2, 2, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="3-channel"):
            stable_component(pixel_stats(frames)[1], BETA_THRESHOLD)


def diversity_with_mask(mask):
    """A diversity image whose stable mask (at the default threshold) is `mask`."""
    return np.where(mask, 0.0, 100.0)[:, :, None].repeat(3, axis=2)


def scipy_largest_component(mask):
    """Box and size of the largest 4-connected component as the scipy-based
    stable mask chose it: ties go to the first label in scan order."""
    labels, _ = scipy_label(mask, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    best = int(np.argmax(sizes))
    ys, xs = np.nonzero(labels == best)
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1), int(sizes[best])


def equal_component_mask(rng, h, w, cell):
    """Copies of one random connected shape, one per chosen grid cell, with
    a blank gap between cells: every component has the same size."""
    shape = np.zeros((cell - 1, cell - 1), dtype=bool)
    y = x = 0
    for _ in range(3 * cell):
        shape[y, x] = True
        if rng.random() < 0.5:
            y = min(max(y + rng.choice([-1, 1]), 0), cell - 2)
        else:
            x = min(max(x + rng.choice([-1, 1]), 0), cell - 2)
    mask = np.zeros((h, w), dtype=bool)
    for gy in range(h // cell):
        for gx in range(w // cell):
            if rng.random() < 0.6:
                mask[gy * cell : gy * cell + cell - 1, gx * cell : gx * cell + cell - 1] = shape
    return mask


def serpentine_mask(h, w):
    """One path through every other row, joined alternately at the right and
    left edge."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for r in range(1, h - 1, 2):
        mask[r, w - 1 if r % 4 == 1 else 0] = True
    return mask


class TestStableMaskOracle:
    """The union-find components pick the same box and size as scipy's labels."""

    def check(self, mask):
        got = stable_component(diversity_with_mask(mask), BETA_THRESHOLD)
        assert got == (scipy_largest_component(mask) if mask.any() else None)

    def test_random_masks(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            h, w = rng.integers(1, 40, 2)
            self.check(rng.random((h, w)) < rng.uniform(0.05, 0.95))

    def test_empty_masks(self):
        for h, w in ((1, 1), (1, 17), (13, 1), (48, 64)):
            self.check(np.zeros((h, w), dtype=bool))

    def test_equal_sized_components(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            cell = int(rng.integers(2, 7))
            h, w = rng.integers(cell, 8 * cell, 2)
            self.check(equal_component_mask(rng, h, w, cell))

    def test_checkerboard_all_ties(self):
        yy, xx = np.mgrid[:9, :11]
        mask = (yy + xx) % 2 == 1  # single pixels; the first is (x=1, y=0)
        self.check(mask)
        assert stable_component(diversity_with_mask(mask), BETA_THRESHOLD) == ((1, 0, 2, 1), 1)

    def test_full_mask(self):
        for h, w in ((1, 1), (1, 17), (13, 1), (48, 64)):
            self.check(np.ones((h, w), dtype=bool))

    def test_serpentine(self):
        for h, w in ((3, 2), (5, 7), (41, 30), (120, 160)):
            mask = serpentine_mask(h, w)
            self.check(mask)
            self.check(mask.T.copy())
            self.check(mask[::-1, ::-1].copy())


class TestValidCorrelationOracle:
    """The numpy FFT correlation equals scipy's `fftconvolve` bit for bit."""

    @staticmethod
    def check(target, kernel):
        expected = fftconvolve(target, kernel[::-1, ::-1], mode="valid")
        assert np.array_equal(_valid_correlation(target, kernel), expected)

    def random_pair(self, rng, th, tw, h, w, integer):
        if integer:  # gray images, as `zncc_map` sees them
            target = rng.integers(0, 256, (h, w)).astype(np.float64)
            kernel = rng.integers(0, 256, (th, tw)).astype(np.float64)
        else:
            target = rng.standard_normal((h, w)) * 100
            kernel = rng.standard_normal((th, tw))
        return target, kernel - kernel.mean()

    def test_random_shapes(self):
        rng = np.random.default_rng(30)
        for i in range(300):
            h, w = rng.integers(1, 70, 2)
            th, tw = rng.integers(1, h + 1), rng.integers(1, w + 1)
            self.check(*self.random_pair(rng, th, tw, h, w, integer=i % 2 == 0))

    @pytest.mark.parametrize("kind", ["1xk", "kx1", "1x1", "as_large"])
    def test_degenerate_templates(self, kind):
        rng = np.random.default_rng(31)
        for i in range(60):
            h, w = rng.integers(1, 50, 2)
            th, tw = {
                "1xk": (1, rng.integers(1, w + 1)),
                "kx1": (rng.integers(1, h + 1), 1),
                "1x1": (1, 1),
                "as_large": (h, w),
            }[kind]
            self.check(*self.random_pair(rng, th, tw, h, w, integer=i % 2 == 0))


def build_components(sizes, seed=0):
    """The stable component of one synthetic video per entry, each with a
    stable block of the given pixel count."""
    components = {}
    rng = np.random.default_rng(seed)
    for vid, size in sizes.items():
        side = int(np.sqrt(size))
        frames = []
        base = rng.integers(80, 176, (40, 40, 3))
        for _ in range(8):
            px = np.clip(base + rng.standard_normal((40, 40, 3)) * 80, 0, 255)
            px[5 : 5 + side, 5 : 5 + side] = base[5 : 5 + side, 5 : 5 + side]
            frames.append(px.astype(np.uint8))
        components[vid] = stable_component(pixel_stats(np.stack(frames))[1], BETA_THRESHOLD)
    return components


class TestSelectReference:
    def test_smallest_mask_wins(self):
        components = build_components({"va": 484, "vb": 289, "vc": 784})
        assert components["vb"][1] < components["va"][1] < components["vc"][1]
        assert select_reference(components) == "vb"

    def test_single_eligible(self):
        components = build_components({"va": 289})
        components["vz"] = stable_component(pixel_stats(gray_video([0, 255, 0, 255]))[1],
                                            BETA_THRESHOLD)
        assert components["vz"] is None
        assert select_reference(components) == "va"

    def test_tie_break_lexicographic(self):
        components = build_components({"vb": 289, "va": 289})
        assert components["va"][1] == components["vb"][1]
        assert select_reference(components) == "va"

    def test_all_empty(self):
        with pytest.raises(ValueError, match="no stable region found"):
            select_reference({"v": None, "w": None})


def zncc_direct(tpl, tgt):
    """Quadratic-time reference ZNCC, independent of the fft path."""
    th, tw = tpl.shape
    H, W = tgt.shape
    out = np.zeros((H - th + 1, W - tw + 1))
    t0 = tpl - tpl.mean()
    tn = np.sqrt((t0 * t0).sum())
    for y in range(out.shape[0]):
        for x in range(out.shape[1]):
            win = tgt[y : y + th, x : x + tw]
            w0 = win - win.mean()
            wn = np.sqrt((w0 * w0).sum())
            out[y, x] = (w0 * t0).sum() / (wn * tn) if wn > 0 and tn > 0 else 0.0
    return out


class TestNccMatch:
    def test_self_match(self):
        rng = np.random.default_rng(4)
        target = rng.integers(0, 256, (40, 50, 3), dtype=np.uint8)
        template = target[3:19, 7:27].copy()
        scale, dx, dy, peak = ncc_match(template, target, [1.0])
        assert (scale, dx, dy) == (1.0, 7, 3)
        assert abs(peak - 1.0) < 1e-9

    def test_brightness_shift_invariance(self):
        rng = np.random.default_rng(5)
        base = rng.integers(40, 200, (30, 30, 3), dtype=np.uint8)
        target = np.clip(base.astype(int) + 30, 0, 255).astype(np.uint8)
        template = base[5:15, 5:15].copy()
        _, dx, dy, peak = ncc_match(template, target, [1.0])
        assert (dx, dy) == (5, 5)
        assert abs(peak - 1.0) < 1e-6

    def test_matches_direct_zncc(self):
        rng = np.random.default_rng(6)
        tgt = rng.integers(0, 256, (24, 26), dtype=np.uint8)
        tpl = rng.integers(0, 256, (8, 9), dtype=np.uint8)
        fast = zncc_map(tpl.astype(float), tgt.astype(float))
        slow = zncc_direct(tpl.astype(float), tgt.astype(float))
        assert np.max(np.abs(fast - slow)) < 1e-9

    def test_zero_variance_window_is_zero(self):
        tgt = np.zeros((10, 10))
        tpl = np.arange(9.0).reshape(3, 3)
        assert np.all(zncc_map(tpl, tgt) == 0.0)

    def test_scale_recovery(self, tmp_path):
        # target rendered at 1.2x, then captured at native size
        hand = synth.textured_patch(20, 20, seed=7)
        synth.gen_video_set(
            hand,
            [synth.VideoSpec("v", 1.2, 31, 17)],
            (100, 80),
            n_frames=5,
            noise_sigma=0.0,
            jitter=0,
            seed=7,
            out_dir=tmp_path,
        )
        median = round_u8(pixel_stats(load_video_dir(tmp_path / "v"))[0])
        scale, dx, dy, _ = ncc_match(hand, median, SCALES)
        assert scale == 1.2
        assert abs(dx - 31) <= 1 and abs(dy - 17) <= 1

    def test_template_too_large(self):
        tpl = np.zeros((20, 20, 3), dtype=np.uint8)
        tgt = np.zeros((10, 10, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="every scale"):
            ncc_match(tpl, tgt, [0.9, 1.0])


def scale_one_set(out_dir, seed=11):
    specs = [
        synth.VideoSpec("va", 1.0, 30, 30),
        synth.VideoSpec("vb", 1.0, 42, 23),
        synth.VideoSpec("vc", 1.0, 12, 50),
    ]
    hand = smooth_patch(24, 24, seed=5)
    truth = synth.gen_video_set(
        hand, specs, (120, 90), n_frames=9, noise_sigma=60.0, jitter=1, seed=seed,
        out_dir=out_dir,
    )
    videos = {v: load_video_dir(out_dir / v) for v in truth}
    medians, components = {}, {}
    for v, frames in videos.items():
        median, diversity = pixel_stats(frames)
        medians[v], components[v] = round_u8(median), stable_component(diversity, BETA_THRESHOLD)
    return videos, truth, medians, components


class TestAlignVideos:
    def test_offsets_recovered(self, tmp_path):
        videos, truth, medians, components = scale_one_set(tmp_path)
        doc = align_videos(medians, components, SCALES)
        ref = doc["reference_video_id"]
        for vid, placed in doc["videos"].items():
            # planted relative offset between this video and the reference
            want_dx = truth[vid]["dx"] - truth[ref]["dx"]
            got_dx = placed["dx"] - doc["videos"][ref]["dx"]
            want_dy = truth[vid]["dy"] - truth[ref]["dy"]
            got_dy = placed["dy"] - doc["videos"][ref]["dy"]
            assert abs(got_dx - want_dx) <= 2
            assert abs(got_dy - want_dy) <= 2

    def test_reference_self_alignment_identity(self, tmp_path):
        videos, _, medians, components = scale_one_set(tmp_path)
        doc = align_videos(medians, components, SCALES)
        ref = doc["reference_video_id"]
        assert ref == select_reference(components)
        assert doc["template_box"] == list(components[ref][0])
        x0, y0 = components[ref][0][:2]
        assert doc["videos"][ref] == {"scale": 1.0, "dx": x0, "dy": y0, "peak": 1.0,
                                      "crop_window": [0, 0, *doc["reference_size"]]}
        aligned = align_video(videos[ref], doc, ref)
        assert np.array_equal(aligned, videos[ref])

    def test_pure_translation_alignment(self):
        # a video that is the reference content shifted; aligned frames must
        # match the reference frames away from the replicate-padded border
        rng = np.random.default_rng(12)
        base = rng.integers(0, 256, (60, 80, 3), dtype=np.uint8)
        sx, sy = 9, 6
        shifted = np.roll(np.roll(base, sy, axis=0), sx, axis=1)
        template = base[20:44, 20:44].copy()
        scale, dx, dy, peak = ncc_match(template, shifted, [1.0])
        assert (dx, dy) == (20 + sx, 20 + sy)
        doc = {
            "reference_video_id": "ref",
            "reference_size": [80, 60],
            "template_box": [20, 20, 44, 44],
            "videos": {
                "ref": {"scale": 1.0, "dx": 20, "dy": 20, "peak": 1.0,
                        "crop_window": [0, 0, 80, 60]},
                "tgt": {"scale": scale, "dx": dx, "dy": dy, "peak": peak,
                        "crop_window": [9, 6, 80, 60]},
            },
        }
        aligned = align_video(shifted[None], doc, "tgt")[0]
        # interior equality (replicate padding only affects the first sx cols / sy rows)
        assert np.array_equal(aligned[:-sy or None, :-sx or None], base[: 60 - sy, : 80 - sx])

    def test_constant_video_stays_constant(self):
        frames = np.full((1, 30, 40, 3), 99, dtype=np.uint8)
        doc = {"reference_video_id": "r", "reference_size": [20, 20],
               "template_box": [5, 5, 15, 15],
               "videos": {"v": {"scale": 1.3, "dx": 8, "dy": 9, "peak": 0.5,
                                "crop_window": [3, 4, 23, 24]}}}
        aligned = align_video(frames, doc, "v")[0]
        assert np.all(aligned == 99)
        assert aligned.shape == (20, 20, 3)

    def test_report_round_trip(self, tmp_path):
        _, _, medians, components = scale_one_set(tmp_path / "videos")
        doc = align_videos(medians, components, SCALES)
        path = tmp_path / "alignment.json"
        write_json(doc, path)
        assert json.loads(path.read_text()) == doc
        assert sorted(doc) == ["reference_size", "reference_video_id", "template_box", "videos"]
        assert list(doc["videos"]) == sorted(medians)
        for placed in doc["videos"].values():
            assert sorted(placed) == ["crop_window", "dx", "dy", "peak", "scale"]
            assert len(placed["crop_window"]) == 4

    def test_peaks_lie_in_unit_range(self):
        # zncc_map clips every score, so no placement leaves [-1, 1]: on
        # random, constant and tie-heavy (0/255) medians, any template box
        rng = np.random.default_rng(13)
        for case in range(90):
            h, w = (int(v) for v in rng.integers(2, 16, 2))
            medians = {f"v{i}": random_stack(rng, 1, h, w, 3, KINDS[case % 3])[0]
                       for i in range(3)}
            components = {}
            for vid in medians:
                x0, y0 = int(rng.integers(0, w)), int(rng.integers(0, h))
                x1, y1 = int(rng.integers(x0 + 1, w + 1)), int(rng.integers(y0 + 1, h + 1))
                components[vid] = ((x0, y0, x1, y1), (x1 - x0) * (y1 - y0))
            doc = align_videos(medians, components, (0.9, 1.0, 1.3))
            peaks = [placed["peak"] for placed in doc["videos"].values()]
            assert all(-1.0 <= p <= 1.0 for p in peaks), (case, peaks)


def reference_pixel_stats(frames):
    """`pixel_stats` as it was before the uint8 bands: a float64 stack,
    `np.median` and `np.mean`."""
    stack = frames.astype(np.float64)
    median = np.median(stack, axis=0)
    return median, np.mean(np.abs(stack - median), axis=0)


def reference_align_video(frames, alignment, vid):
    """`align_video` as it was before `resample`: resize every whole frame,
    then crop it."""
    out_w, out_h = alignment["reference_size"]
    bx0, by0 = alignment["template_box"][:2]
    placed = alignment["videos"][vid]
    aligned = []
    for img in frames:
        h, w = img.shape[:2]
        sw = int(np.floor(placed["scale"] * w + 0.5))
        sh = int(np.floor(placed["scale"] * h + 0.5))
        scaled = img if (sw, sh) == (w, h) else reference_resize_to(img, sw, sh)
        ys = np.clip(np.arange(out_h) - by0 + placed["dy"], 0, sh - 1)
        xs = np.clip(np.arange(out_w) - bx0 + placed["dx"], 0, sw - 1)
        aligned.append(scaled[np.ix_(ys, xs)])
    return aligned


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExactAgainstReference:
    """Byte-equal results to the float64 whole-frame code they replace."""

    def test_pixel_stats(self):
        rng = np.random.default_rng(21)
        # T = 1, odd and even T, and frames taller than one band of rows
        for case, t in enumerate([1, 2, 3, 4, 5, 8, 9, 20, 31] * 12):
            h, w = int(rng.integers(1, 20)), int(rng.integers(1, 8))
            c = int(rng.choice([1, 3]))
            frames = random_stack(rng, t, h, w, c, KINDS[case % 3])
            median, diversity = pixel_stats(frames)
            want_median, want_diversity = reference_pixel_stats(frames)
            assert same_bits(median, want_median), (t, h, w, c)
            assert same_bits(diversity, want_diversity), (t, h, w, c)

    def test_long_series(self):
        # 0/255 alternating in time: the largest deviations, summed over
        # many frames
        frames = np.zeros((601, 3, 2, 3), dtype=np.uint8)
        frames[1::2] = 255
        got, want = pixel_stats(frames), reference_pixel_stats(frames)
        assert same_bits(got[0], want[0])
        assert same_bits(got[1], want[1])

    def test_align_video(self):
        rng = np.random.default_rng(22)
        scales = [0.5, 0.75, 0.9, 1.0, 1.1, 1.3, 1.5, 2.0]
        for case in range(240):
            t = int(rng.choice([1, 2, 3, 7, 10]))
            h, w = (int(v) for v in rng.integers(1, 13, 2))
            c = int(rng.choice([1, 3]))
            scale = scales[case % len(scales)] if case % 3 else float(rng.uniform(0.5, 2.0))
            out_w, out_h = (int(v) for v in rng.integers(1, 13, 2))
            bx0, by0 = int(rng.integers(0, out_w)), int(rng.integers(0, out_h))
            dx, dy = int(rng.integers(-3, 2 * w + 3)), int(rng.integers(-3, 2 * h + 3))
            doc = one_video_alignment(scale, out_w, out_h, dx, dy, (bx0, by0))
            frames = random_stack(rng, t, h, w, c, KINDS[case % 3])
            got = align_video(frames, doc, "v")
            want = reference_align_video(frames, doc, "v")
            assert len(got) == t
            for a, b in zip(got, want):
                assert same_bits(a, b), (t, h, w, c, scale, out_w, out_h)


def one_video_alignment(scale, out_w, out_h, dx, dy, corner=(0, 0)):
    """An `align_videos` document that places video "v" by scale and
    (dx, dy) on an out_w x out_h reference frame whose 1 x 1 template box
    has its top-left corner at `corner`."""
    bx0, by0 = corner
    return {"reference_video_id": "v", "reference_size": [out_w, out_h],
            "template_box": [bx0, by0, bx0 + 1, by0 + 1],
            "videos": {"v": {"scale": scale, "dx": dx, "dy": dy, "peak": 1.0,
                             "crop_window": [0, 0, 1, 1]}}}


class TestAlignVideoDir:
    """Pass 2 of `align`, streamed from frame files to frame files."""

    def test_files_match_align_video(self, tmp_path):
        rng = np.random.default_rng(41)
        for case, t in enumerate((1, 3, 4, 5, 9)):
            frames = random_stack(rng, t, 18, 24, 3, KINDS[case % 3])
            save_frames(frames, tmp_path / f"in{case}")
            doc = one_video_alignment((0.9, 1.0, 1.1, 1.2, 1.3)[case], 20, 16, -2, 3)
            align_video_dir(tmp_path / f"in{case}", tmp_path / "out", doc, "v", (18, 24, 3))
            save_frames(align_video(frames, doc, "v"), tmp_path / "want")
            got = sorted((tmp_path / "out").iterdir())
            want = sorted((tmp_path / "want").iterdir())
            assert [p.name for p in got] == [p.name for p in want]
            assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]

    def test_frame_shape_checked(self, tmp_path):
        save_frames(np.zeros((6, 6, 8, 3), dtype=np.uint8), tmp_path / "in")
        save_ppm(np.zeros((6, 9, 3), dtype=np.uint8), frame_path(tmp_path / "in", 5))
        doc = one_video_alignment(1.0, 8, 6, 0, 0)
        with pytest.raises(ValueError, match=r"frame_000000\.ppm has shape \(6, 8, 3\), "
                                             r"expected \(7, 8, 3\)"):
            align_video_dir(tmp_path / "in", tmp_path / "out", doc, "v", (7, 8, 3))
        with pytest.raises(ValueError, match=r"frame_000005\.ppm has shape \(6, 9, 3\)"):
            align_video_dir(tmp_path / "in", tmp_path / "out", doc, "v", (6, 8, 3))

    def test_memory_follows_one_chunk(self, tmp_path, traced_peak):
        # the parent held the whole video and its aligned copy: 4x the
        # frames for 4x the video
        rng = np.random.default_rng(42)
        doc = one_video_alignment(1.2, 64, 48, 3, 2)
        peaks = []
        for t in (32, 128):
            video = tmp_path / f"v{t}"
            save_frames(rng.integers(0, 256, (t, 48, 64, 3), dtype=np.uint8), video)
            peaks.append(traced_peak(align_video_dir, video, tmp_path / f"out{t}", doc, "v",
                                     (48, 64, 3))[0])
            assert len(load_video_dir(tmp_path / f"out{t}")) == t
        assert peaks[1] < 1.2 * peaks[0]
