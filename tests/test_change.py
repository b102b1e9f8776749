import numpy as np
import pytest

from handcam import synth
from handcam.change import (
    CandidateSet,
    change_feature,
    change_feature_matrix,
    detect_candidates,
    label_change_frames,
    suppress_non_maxima,
    train_change_model,
)
from handcam.classify import LinearModel, TrainConfig
from handcam.core import Camera, FeatureStream, StateSequence, run_starts


def stream_from(values):
    return FeatureStream("v", Camera.RIGHT_HAND, 6.0, np.asarray(values, dtype=np.float64))


class TestChangeFeature:
    def test_equal_endpoints_zero(self):
        s = stream_from([[1, 2]] * 7)
        assert np.array_equal(change_feature(s, 3, 2), [0.0, 0.0])

    def test_hand_example(self):
        # |[1,4] - [3,1]| = [2,3]
        vals = np.zeros((5, 2))
        vals[1] = [1, 4]
        vals[3] = [3, 1]
        s = stream_from(vals)
        assert np.array_equal(change_feature(s, 2, 1), [2.0, 3.0])

    def test_time_reversal_symmetry_exact(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((40, 5))
        s = stream_from(vals)
        s_rev = stream_from(vals[::-1])
        d = 4
        for i in range(d, 40 - d):
            mirrored = 40 - 1 - i
            assert np.array_equal(
                change_feature(s, i, d), change_feature(s_rev, mirrored, d)
            )

    def test_out_of_band_error(self):
        s = stream_from(np.zeros((10, 2)))
        for bad in (0, 2, 7, 9):
            with pytest.raises(ValueError, match="band"):
                change_feature(s, bad, 3)

    def test_matrix_matches_single(self):
        rng = np.random.default_rng(1)
        s = stream_from(rng.standard_normal((20, 3)))
        band, cf = change_feature_matrix(s, 2)
        assert band.tolist() == list(range(2, 18))
        for row, i in zip(cf, band):
            assert np.array_equal(row, change_feature(s, int(i), 2))


class TestLabelChangeFrames:
    def test_constant_sequence_all_negative(self):
        truth = StateSequence(None, np.zeros(30, dtype=int), num_states=2)
        labels = label_change_frames(truth, 3)
        assert not np.any(labels == 1)
        assert np.all(labels[3:27] == 0)
        assert np.all(labels[:3] == -1) and np.all(labels[27:] == -1)

    def test_single_transition_band(self):
        states = np.zeros(100, dtype=int)
        states[50:] = 1
        truth = StateSequence(None, states, num_states=2)
        labels = label_change_frames(truth, 3)
        assert np.nonzero(labels == 1)[0].tolist() == list(range(47, 54))

    def test_close_transitions_merge(self):
        states = np.zeros(60, dtype=int)
        states[20:24] = 1  # transitions at 20 and 24, closer than 2d for d = 3
        truth = StateSequence(None, states, num_states=2)
        labels = label_change_frames(truth, 3)
        assert np.nonzero(labels == 1)[0].tolist() == list(range(17, 28))

    def test_transition_convention_first_new_frame(self):
        states = np.array([0, 0, 1, 1, 0])
        truth = StateSequence(None, states, num_states=2)
        assert run_starts(truth.states)[1:].tolist() == [2, 4]


class TestNms:
    def test_hand_example(self):
        cands = suppress_non_maxima(
            np.arange(7), np.array([0.0, 5.0, 0.0, 0.0, 0.0, 7.0, 0.0]), radius=2
        )
        assert cands.frame_indices.tolist() == [1, 5]
        assert cands.confidences.tolist() == [5.0, 7.0]

    def test_monotone_track_single_candidate(self):
        # strictly increasing track: only the last frame is a local maximum
        conf = np.arange(10.0)
        cands = suppress_non_maxima(np.arange(10), conf, radius=2)
        assert cands.frame_indices.tolist() == [9]

    def test_equal_maxima_both_kept_earlier_first(self):
        conf = np.array([0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 9.0, 0.0])
        cands = suppress_non_maxima(np.arange(8), conf, radius=2)
        assert cands.frame_indices.tolist() == [1, 6]

    def test_tie_breaks_toward_earlier_frame(self):
        conf = np.array([3.0, 3.0, 3.0])
        cands = suppress_non_maxima(np.arange(3), conf, radius=1)
        assert cands.frame_indices.tolist() == [0, 2]

    def test_invariants_on_random_tracks(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(5, 80))
            radius = int(rng.integers(1, 8))
            conf = rng.standard_normal(n)
            idx = np.arange(n)
            cands = suppress_non_maxima(idx, conf, radius)
            kept = cands.frame_indices
            # separation
            if kept.size > 1:
                assert np.all(np.diff(kept) > radius)
            # local maximality: every retained confidence dominates its window
            for i, c in zip(kept, cands.confidences):
                window = conf[max(0, i - radius) : i + radius + 1]
                assert c >= window.max()

    def test_index_set_invariant_to_confidence_shift(self):
        rng = np.random.default_rng(3)
        conf = rng.standard_normal(50)
        a = suppress_non_maxima(np.arange(50), conf, 4)
        b = suppress_non_maxima(np.arange(50), conf + 123.0, 4)
        assert np.array_equal(a.frame_indices, b.frame_indices)

    def test_candidate_set_validation(self):
        with pytest.raises(ValueError, match="separated"):
            CandidateSet(np.array([3, 5]), np.array([1.0, 2.0]), suppression_radius=2)


def high_snr_videos(seed, sigma=0.1, n_videos=4):
    centers = synth.orthonormal_centers(3, 6, seed + 900)  # separation sqrt(2) > 10 sigma
    out = []
    for i in range(n_videos):
        cfg = synth.SynthConfig(
            seed=seed * 37 + i, num_states=3, dim=6, n_frames=200,
            min_dwell=20, centers=centers, noise_sigma=sigma,
        )
        out.append(synth.gen_feature_stream(cfg, video_id=f"v{i}"))
    return out


class TestDetectCandidates:
    def test_short_stream_warns_empty(self):
        s = stream_from(np.zeros((5, 2)))
        model = LinearModel(np.ones((1, 2)), np.zeros(1), None, TrainConfig())
        with pytest.warns(UserWarning, match="shorter"):
            cands = detect_candidates(s, model, 3)
        assert len(cands) == 0

    def test_requires_binary_model(self):
        s = stream_from(np.zeros((20, 2)))
        model = LinearModel(np.ones((2, 2)), np.zeros(2), None, TrainConfig())
        with pytest.raises(ValueError, match="binary"):
            detect_candidates(s, model, 3)

    def test_d_below_one_rejected(self):
        s = stream_from(np.zeros((20, 2)))
        model = LinearModel(np.ones((1, 2)), np.zeros(1), None, TrainConfig())
        with pytest.raises(ValueError, match="d must be >= 1"):
            detect_candidates(s, model, 0)

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
            cands = detect_candidates(test_stream, model, d)
            for t in run_starts(test_truth.states)[1:]:
                if not np.any(np.abs(cands.frame_indices - t) <= d):
                    misses += 1
        assert misses == 0
