import re
import warnings
from itertools import product

import numpy as np
import pytest

from handcam import synth
from handcam.change import (
    change_feature_matrix,
    change_training_set,
    detect_candidates,
    label_change_frames,
    suppress_non_maxima,
    train_change_model,
    valid_band,
)
from handcam.classify import LinearModel, TrainConfig, model_bytes, train
from handcam.core import Camera, FeatureStream, StateSequence, release_pages, run_starts
from test_features import float32_pair
from test_synth import orthonormal_centers


def suppress_non_maxima_greedy(frame_indices, confidences, radius):
    """NMS as it ran before the windowed maximum: a quadratic local-maximum
    test, then greedy selection by confidence (the reference, bit for bit)."""
    idx = np.asarray(frame_indices, dtype=np.int64)
    conf = np.asarray(confidences, dtype=np.float64)
    is_local_max = np.array(
        [conf[j] >= conf[np.abs(idx - idx[j]) <= radius].max() for j in range(idx.size)],
        dtype=bool,
    )
    order = np.argsort(-conf, kind="stable")  # stable: equal scores keep earlier frames
    alive = np.ones(idx.size, dtype=bool)
    kept = []
    for j in order:
        if not alive[j] or not is_local_max[j]:
            continue
        kept.append(j)
        alive[np.abs(idx - idx[j]) <= radius] = False
    kept.sort()
    return idx[kept], conf[kept]


# The change stage as it was when every in-band array went with the frame
# indices of the band and labels were -1 outside it: the reference, bit for
# bit, for the stage that works on the in-band track and adds d once.

def parent_change_feature_matrix(stream, d, out=None):
    n = stream.n_frames
    lo, hi = valid_band(n, d)
    if hi < lo:
        return np.empty(0, dtype=np.int64), np.empty((0, stream.dim))
    cf = np.subtract(stream.values[: n - 2 * d], stream.values[2 * d :], out=out,
                     dtype=np.float64)
    np.abs(cf, out=cf)
    release_pages(stream.values)
    return np.arange(lo, hi + 1), cf


def parent_label_change_frames(truth, d):
    n = len(truth)
    labels = np.zeros(n, dtype=np.int8)
    for t in run_starts(truth.states)[1:]:
        labels[max(0, t - d) : min(n, t + d + 1)] = 1
    lo, hi = valid_band(n, d)
    labels[: max(0, lo)] = -1
    labels[max(0, hi + 1) :] = -1
    return labels


def parent_suppress_non_maxima(frame_indices, confidences, radius):
    idx = np.asarray(frame_indices, dtype=np.int64)
    conf = np.asarray(confidences, dtype=np.float64)
    if np.any(np.diff(idx) != 1):
        raise ValueError("frame indices must be consecutive")
    if idx.size == 0:
        return idx, conf
    pad = np.full(idx.size + 2 * radius, -np.inf)
    pad[radius : radius + idx.size] = conf
    window_max = np.lib.stride_tricks.sliding_window_view(pad, 2 * radius + 1).max(axis=1)
    kept = []
    for j in np.flatnonzero(conf >= window_max).tolist():
        if not kept or j - kept[-1] > radius:
            kept.append(j)
    return idx[kept], conf[kept]


def parent_detect_candidates(stream, change_model):
    if not change_model.is_binary:
        raise ValueError("detect_candidates requires a binary change model")
    d = change_model.d
    if change_model.dim != stream.dim:
        raise ValueError(
            f"change model dim {change_model.dim} does not match stream dim {stream.dim}"
        )
    if stream.n_frames < 2 * d + 1:
        warnings.warn(
            f"stream {stream.video_id}: {stream.n_frames} frames is shorter than "
            f"2d+1 = {2 * d + 1}; no change candidates",
            stacklevel=2,
        )
        return np.empty(0, dtype=np.int64), np.empty(0)
    band, cf = parent_change_feature_matrix(stream, d)
    conf = cf @ change_model.weights[0] + change_model.bias[0]
    return parent_suppress_non_maxima(band, conf, d)


def parent_change_training_set(streams, truths, d):
    """change_training_set as it was before it wrote into one preallocated
    matrix: per-video arrays, then their concatenation (the reference, bit
    for bit), with change_feature_matrix inlined."""
    xs, ys = [], []
    for stream, truth in zip(streams, truths):
        if stream.n_frames != len(truth):
            raise ValueError(f"video {stream.video_id}: frame/label count mismatch")
        if stream.n_frames < 2 * d + 1:
            continue
        n = stream.n_frames
        cf = stream.values[: n - 2 * d] - stream.values[2 * d :]
        np.abs(cf, out=cf)
        labels = parent_label_change_frames(truth, d)[np.arange(d, n - d)]
        xs.append(cf)
        ys.append(labels)
    if not xs:
        raise ValueError("no video is long enough for the requested d")
    return np.concatenate(xs), np.concatenate(ys).astype(np.int64)


def stream_from(values):
    return FeatureStream("v", Camera.RIGHT_HAND, 6.0, np.asarray(values, dtype=np.float64))


def change_row(stream, i, d):
    """Row of the change-feature matrix for frame i."""
    lo, hi = valid_band(stream.n_frames, d)
    assert lo <= i <= hi
    return change_feature_matrix(stream, d)[i - lo]


class TestChangeFeature:
    def test_equal_endpoints_zero(self):
        s = stream_from([[1, 2]] * 7)
        assert np.array_equal(change_row(s, 3, 2), [0.0, 0.0])

    def test_hand_example(self):
        # |[1,4] - [3,1]| = [2,3]
        vals = np.zeros((5, 2))
        vals[1] = [1, 4]
        vals[3] = [3, 1]
        s = stream_from(vals)
        assert np.array_equal(change_row(s, 2, 1), [2.0, 3.0])

    def test_time_reversal_symmetry_exact(self):
        # in-band row j is frame d + j, which mirrors to row n - 2d - 1 - j
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((40, 5))
        d = 4
        cf = change_feature_matrix(stream_from(vals), d)
        cf_rev = change_feature_matrix(stream_from(vals[::-1]), d)
        assert np.array_equal(cf[::-1], cf_rev)

    def test_matrix_matches_single(self):
        rng = np.random.default_rng(1)
        s = stream_from(rng.standard_normal((20, 3)))
        cf = change_feature_matrix(s, 2)
        assert cf.shape == (16, 3)
        for row, i in zip(cf, range(2, 18)):
            assert np.array_equal(row, np.abs(s.values[i - 2] - s.values[i + 2]))

    def test_float32_stream_matches_its_float64_upcast_bytes(self):
        # float32 differences are taken in float64, as on the upcast stream
        rng = np.random.default_rng(22)
        for (n, dim), aligned, d in product(((40_000, 3), (5_000, 64), (800, 512)),
                                            (True, False), (1, 4)):
            s32, s64 = float32_pair(rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, dim),
                                    aligned)
            want = change_feature_matrix(s64, d)
            got = change_feature_matrix(s32, d)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
            out = np.empty((n - 2 * d, dim))
            assert change_feature_matrix(s32, d, out=out) is out
            assert out.tobytes() == want.tobytes()


class TestLabelChangeFrames:
    def test_constant_sequence_all_negative(self):
        truth = StateSequence(None, np.zeros(30, dtype=int), num_states=2)
        labels = label_change_frames(truth, 3)
        assert labels.shape == (24,)  # frames 3..26
        assert np.all(labels == 0)

    def test_single_transition_band(self):
        states = np.zeros(100, dtype=int)
        states[50:] = 1
        truth = StateSequence(None, states, num_states=2)
        labels = label_change_frames(truth, 3)
        assert (np.nonzero(labels == 1)[0] + 3).tolist() == list(range(47, 54))

    def test_close_transitions_merge(self):
        states = np.zeros(60, dtype=int)
        states[20:24] = 1  # transitions at 20 and 24, closer than 2d for d = 3
        truth = StateSequence(None, states, num_states=2)
        labels = label_change_frames(truth, 3)
        assert (np.nonzero(labels == 1)[0] + 3).tolist() == list(range(17, 28))

    def test_transition_convention_first_new_frame(self):
        states = np.array([0, 0, 1, 1, 0])
        truth = StateSequence(None, states, num_states=2)
        assert run_starts(truth.states)[1:].tolist() == [2, 4]


class TestNms:
    def test_hand_example(self):
        conf = np.array([0.0, 5.0, 0.0, 0.0, 0.0, 7.0, 0.0])
        kept = suppress_non_maxima(conf, radius=2)
        assert kept.dtype == np.int64 and kept.tolist() == [1, 5]
        assert conf[kept].tolist() == [5.0, 7.0]

    def test_monotone_track_single_candidate(self):
        # strictly increasing track: only the last frame is a local maximum
        conf = np.arange(10.0)
        assert suppress_non_maxima(conf, radius=2).tolist() == [9]

    def test_equal_maxima_both_kept_earlier_first(self):
        conf = np.array([0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 9.0, 0.0])
        assert suppress_non_maxima(conf, radius=2).tolist() == [1, 6]

    def test_tie_breaks_toward_earlier_frame(self):
        conf = np.array([3.0, 3.0, 3.0])
        assert suppress_non_maxima(conf, radius=1).tolist() == [0, 2]

    def test_invariants_on_random_tracks(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(5, 80))
            radius = int(rng.integers(1, 8))
            conf = rng.standard_normal(n)
            kept = suppress_non_maxima(conf, radius)
            # separation
            if kept.size > 1:
                assert np.all(np.diff(kept) > radius)
            # local maximality: every retained confidence dominates its window
            for i in kept:
                window = conf[max(0, i - radius) : i + radius + 1]
                assert conf[i] >= window.max()

    def test_index_set_invariant_to_confidence_shift(self):
        rng = np.random.default_rng(3)
        conf = rng.standard_normal(50)
        a = suppress_non_maxima(conf, 4)
        b = suppress_non_maxima(conf + 123.0, 4)
        assert np.array_equal(a, b)

    def test_equals_greedy_reference(self):
        rng = np.random.default_rng(4)
        for trial in range(600):
            n = int(rng.integers(1, 201))
            radius = int(rng.integers(1, 13))
            start = int(rng.integers(0, 50))
            if trial % 2:  # integer tracks: plateaus of every length
                conf = rng.integers(0, int(rng.integers(1, 5)), n).astype(np.float64)
            else:
                conf = rng.standard_normal(n)
            kept = suppress_non_maxima(conf, radius)
            want_idx, want_conf = suppress_non_maxima_greedy(np.arange(start, start + n), conf,
                                                             radius)
            assert np.array_equal(kept + start, want_idx)
            assert np.array_equal(conf[kept], want_conf)

    def test_empty_track(self):
        kept = suppress_non_maxima(np.empty(0), 3)
        assert kept.dtype == np.int64 and kept.size == 0


def high_snr_videos(seed, sigma=0.1, n_videos=4):
    centers = orthonormal_centers(3, 6, seed + 900)  # separation sqrt(2) > 10 sigma
    out = []
    for i in range(n_videos):
        out.append(synth.gen_feature_stream(centers, seed=seed * 37 + i, n_frames=200,
                                            min_dwell=20, noise_sigma=sigma, video_id=f"v{i}"))
    return out


def random_labeled_videos(rng, d, frames=None):
    """1-5 videos of 2-40 dims, with ramps on or off, each of `frames`
    frames or, by default, of a random count, some shorter than 2d+1."""
    n_videos, dim = int(rng.integers(1, 6)), int(rng.integers(2, 41))
    centers = synth.random_centers(3, dim, int(rng.integers(1 << 30)))
    return [synth.gen_feature_stream(
        centers, seed=int(rng.integers(1 << 30)),
        n_frames=frames or int(rng.integers(1, 6 * d + 40)), min_dwell=int(rng.integers(1, 12)),
        noise_sigma=float(rng.uniform(0, 2)),
        transition_ramp=int(rng.integers(0, 2)) * int(rng.integers(1, 5)), video_id=f"v{i}",
    ) for i in range(n_videos)]


class TestChangeTrainingSet:
    def test_matches_parent_bytes(self):
        rng = np.random.default_rng(21)
        short = 0
        for _ in range(60):
            d = int(rng.integers(1, 7))
            pairs = random_labeled_videos(rng, d)
            streams, truths = [s for s, _ in pairs], [t for _, t in pairs]
            short += sum(s.n_frames < 2 * d + 1 for s in streams)
            try:
                want = parent_change_training_set(streams, truths, d)
            except ValueError as e:
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    change_training_set(streams, truths, d)
                continue
            x, y, rows = change_training_set(streams, truths, d)
            assert rows == [max(0, s.n_frames - 2 * d) for s in streams]
            for got, ref in zip((x, y), want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
        assert short > 10

    def test_errors_match_parent(self):
        # the parent raised on the same sets; a length mismatch is now
        # reported as `train` reports it, by the check the two share
        (s0, t0), (s1, t1) = high_snr_videos(3, n_videos=2)
        cut = StateSequence(None, t1.states[:-1], num_states=3)
        for streams, truths, d, message in (
            ([s0, s1], [t0, cut], 3, "video v1: 200 frames vs 199 labels"),
            ([s0], [t0], 100, "no video is long enough for the requested d"),
        ):
            with pytest.raises(ValueError):
                parent_change_training_set(streams, truths, d)
            with pytest.raises(ValueError, match=re.escape(message)):
                change_training_set(streams, truths, d)
        with pytest.raises(ValueError, match=re.escape("video v1: 200 frames vs 199 labels")):
            train([s0, s1], [t0, cut])

    def test_videos_of_different_dims(self):
        # rows of two widths cannot stack (the parent's concatenate raised);
        # a video too short to give rows is checked too, where the parent
        # skipped it whatever its width
        (s0, t0), (s1, t1) = high_snr_videos(3, n_videos=2)
        wide = FeatureStream("w", Camera.HEAD, 6.0, np.zeros((s1.n_frames, 9)))
        with pytest.raises(ValueError):
            parent_change_training_set([s0, wide], [t0, t1], 3)
        with pytest.raises(ValueError, match=re.escape("video w: dim 9 != 6")):
            change_training_set([s0, wide], [t0, t1], 3)
        short = FeatureStream("w", Camera.HEAD, 6.0, np.zeros((5, 9)))
        short_truth = StateSequence(None, t1.states[:5], num_states=3)
        assert parent_change_training_set([s0, short], [t0, short_truth], 3)[1].size == 194
        with pytest.raises(ValueError, match=re.escape("video w: dim 9 != 6")):
            change_training_set([s0, short], [t0, short_truth], 3)

    def test_every_stream_needs_its_truth(self):
        # the parent zipped the two lists and trained on the first video alone
        (s0, t0), (s1, _) = high_snr_videos(3, n_videos=2)
        for fn in (change_training_set, train_change_model):
            with pytest.raises(ValueError, match="need matching, non-empty streams and truths"):
                fn([s0, s1], [t0], 3)

    def test_truths_share_one_label_space(self):
        (s0, t0), (s1, t1) = high_snr_videos(3, n_videos=2)
        four = StateSequence(None, t1.states, num_states=4)
        for fn in (change_training_set, train_change_model):
            with pytest.raises(ValueError, match="all truths must share one label space"):
                fn([s0, s1], [t0, four], 3)

    def test_memory_holds_one_matrix(self, traced_peak):
        # the parent held every video's rows beside their concatenation (2x)
        pairs = [synth.gen_feature_stream(synth.random_centers(3, 32, 7), seed=i,
                                          n_frames=2_000, min_dwell=20, noise_sigma=0.5,
                                          video_id=f"v{i}") for i in range(8)]
        peak, (x, _, _) = traced_peak(
            change_training_set, [s for s, _ in pairs], [t for _, t in pairs], 4)
        assert peak <= 1.2 * x.nbytes, peak / x.nbytes


CASES = ("random", "plateaus", "zero-model", "2d+1 frames", "shorter")


def change_case(rng, d, kind):
    """A stream and a change model at half-width d of one kind: random
    values and weights; small integers, whose confidences have plateaus; an
    all-zero model, whose confidences are constant (a C small enough to zero
    the model gives that in cross-validation); and random streams of
    exactly 2d+1 frames (one in-band frame) or shorter."""
    dim = int(rng.integers(1, 9))
    n = {"2d+1 frames": 2 * d + 1, "shorter": int(rng.integers(1, 2 * d + 1))}.get(
        kind, int(rng.integers(2 * d + 1, 2 * d + 200)))
    if kind == "plateaus":
        values = rng.integers(0, 3, (n, dim)).astype(np.float64)
        weights, bias = rng.integers(-1, 2, (1, dim)).astype(np.float64), np.zeros(1)
    else:
        values = rng.standard_normal((n, dim))
        weights, bias = rng.standard_normal((1, dim)), rng.standard_normal(1)
    if kind == "zero-model":
        weights, bias = np.zeros((1, dim)), np.zeros(1)
    return stream_from(values), LinearModel(weights, bias, None, TrainConfig(), d)


def warned(fn, *args):
    """fn(*args) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [str(w.message) for w in caught]


class TestInBandTrackMatchesParent:
    """The stage works on the in-band track and adds the band start once;
    what it returns equals the parent's band-index path byte for byte.
    Candidates are two plain arrays: int64 frame indices, increasing, more
    than d apart and in band, and the float64 in-band scores at them."""

    @pytest.mark.parametrize("d", range(1, 13))
    def test_detect_candidates(self, d):
        rng = np.random.default_rng(100 + d)
        found = dict.fromkeys(CASES, 0)
        for kind, _ in product(CASES, range(8)):
            stream, model = change_case(rng, d, kind)
            (got, got_warnings), (want, want_warnings) = (
                warned(detect, stream, model) for detect in (detect_candidates,
                                                             parent_detect_candidates))
            assert got_warnings == want_warnings
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            frames, confidences = got
            assert frames.dtype == np.int64 and confidences.dtype == np.float64
            lo, hi = valid_band(stream.n_frames, d)
            assert np.all(np.diff(frames) > d) and np.all((lo <= frames) & (frames <= hi))
            scores = change_feature_matrix(stream, d) @ model.weights[0] + model.bias[0]
            assert confidences.tobytes() == scores[frames - lo].tobytes()
            found[kind] += frames.size
        assert found["shorter"] == 0 and all(found[kind] > 0 for kind in CASES[:4]), found

    @pytest.mark.parametrize("d", range(1, 13))
    def test_change_training_set(self, d):
        rng = np.random.default_rng(200 + d)
        for frames in (None, 2 * d + 1) * 4:
            pairs = random_labeled_videos(rng, d, frames)
            streams, truths = [s for s, _ in pairs], [t for _, t in pairs]
            for truth in truths:
                got = label_change_frames(truth, d)
                want = parent_label_change_frames(truth, d)[d : d + max(0, len(truth) - 2 * d)]
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            try:
                want = parent_change_training_set(streams, truths, d)
            except ValueError as e:
                with pytest.raises(ValueError, match=re.escape(str(e))):
                    change_training_set(streams, truths, d)
                continue
            x, y, _ = change_training_set(streams, truths, d)
            for got, ref in zip((x, y), want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


class TestDetectCandidates:
    def test_float32_streams_match_their_float64_upcast(self):
        # the change model trained on, and the candidates found in, streams
        # read from feature files equal those of their float64 upcast
        pairs = [float32_pair(s.values) + (t,) for s, t in high_snr_videos(4, n_videos=4)]
        model32, model64 = (train_change_model([p[i] for p in pairs[:3]],
                                               [p[2] for p in pairs[:3]], 3,
                                               TrainConfig(c_reg=0.1, epochs=30))
                            for i in (0, 1))
        assert model_bytes(model32) == model_bytes(model64)
        got, want = (detect_candidates(pairs[3][i], model64) for i in (0, 1))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_memory_holds_one_change_feature_matrix(self, traced_peak):
        # |a - b| is taken in place: one (frames, D) float64 array at a time
        rng = np.random.default_rng(5)
        stream, d = stream_from(rng.standard_normal((20_000, 32))), 3
        model = LinearModel(rng.standard_normal((1, 32)), np.ones(1), None, TrainConfig(), d)
        peak, _ = traced_peak(detect_candidates, stream, model)
        assert peak < 1.5 * (20_000 - 2 * d) * 32 * 8

    def test_short_stream_warns_empty(self):
        s = stream_from(np.zeros((5, 2)))
        model = LinearModel(np.ones((1, 2)), np.zeros(1), None, TrainConfig(), 3)
        with pytest.warns(UserWarning, match="shorter"):
            frames, confidences = detect_candidates(s, model)
        assert frames.size == confidences.size == 0

    def test_requires_binary_model(self):
        s = stream_from(np.zeros((20, 2)))
        model = LinearModel(np.ones((2, 2)), np.zeros(2), None, TrainConfig())
        with pytest.raises(ValueError, match="binary"):
            detect_candidates(s, model)

    def test_d_below_one_rejected(self):
        # a change model's d is checked when the model is made, so no d below
        # 1 reaches detection
        with pytest.raises(ValueError, match="d must be >= 1"):
            LinearModel(np.ones((1, 2)), np.zeros(1), None, TrainConfig(), 0)

    def test_full_recall_on_high_snr(self):
        d = 3
        misses = 0
        for seed in range(50):
            videos = high_snr_videos(seed)
            train_pairs, (test_stream, test_truth) = videos[:3], videos[3]
            model = train_change_model(
                [s for s, _ in train_pairs], [t for _, t in train_pairs], d,
                TrainConfig(c_reg=0.1, epochs=150),
            )
            cands, _ = detect_candidates(test_stream, model)
            for t in run_starts(test_truth.states)[1:]:
                if not np.any(np.abs(cands - t) <= d):
                    misses += 1
        assert misses == 0
