from functools import partial

import numpy as np
import pytest

from handcam import synth
from handcam.core import FeatureStream, LabelSpace, StateSequence, Task, run_starts
from handcam.media import load_video_dir, resize_to
from conftest import space_of


def orthonormal_centers(num_states, dim, seed):
    """Mutually orthogonal unit centers: equal pairwise separation, so
    classification difficulty depends only on the noise level."""
    if num_states > dim:
        raise ValueError("orthonormal centers need num_states <= dim")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, num_states)))
    return np.ascontiguousarray(q.T[:num_states])


def smooth_patch(width, height, seed, cells=6):
    """Low-frequency random texture: a coarse random grid upsampled
    bilinearly, so single-pixel jitter moves values only a little while the
    pattern still discriminates scale and translation."""
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 256, size=(cells, cells, 3), dtype=np.uint8)
    return resize_to(coarse, width, height)


def config(**overrides):
    """gen_feature_stream's values for a 3-state, 4-dim stream, as keywords."""
    base = dict(
        centers=orthonormal_centers(3, 4, 99),
        seed=0,
        n_frames=200,
        min_dwell=20,
        noise_sigma=0.5,
        label_space=space_of(3),
    )
    base.update(overrides)
    return base


def parent_gen_feature_stream(centers, seed, n_frames, min_dwell, noise_sigma, label_space,
                              transition_ramp=0, video_id="synth", fps=6.0):
    """gen_feature_stream as it was before it built the values inside the
    noise array (the reference, bit for bit)."""
    num_states, dim = centers.shape
    if label_space.num_labels < num_states:
        raise ValueError("label space too small for the configured state count")
    rng = np.random.default_rng(seed)
    states = synth._draw_states(num_states, n_frames, min_dwell, rng)
    trajectory = centers[states].copy()
    w = transition_ramp
    if w > 0:
        for t in run_starts(states)[1:]:
            frames = np.arange(max(0, t - w), min(n_frames, t + w))
            alpha = ((frames - (t - w)) / (2.0 * w))[:, None]
            trajectory[frames] = (
                (1.0 - alpha) * centers[states[t - 1]] + alpha * centers[states[t]]
            )
    noise = rng.standard_normal((n_frames, dim)) * noise_sigma
    stream = FeatureStream(video_id, synth.Camera.RIGHT_HAND, fps, trajectory + noise)
    return stream, StateSequence(label_space, states)


class TestFeatureStreamGen:
    def test_matches_parent_bytes(self):
        rng = np.random.default_rng(8)
        for i in range(60):
            k, dim = int(rng.integers(2, 6)), int(rng.integers(2, 40))
            cfg = dict(
                seed=int(rng.integers(1 << 30)),
                n_frames=int(rng.integers(1, 400)), min_dwell=int(rng.integers(1, 30)),
                centers=synth.random_centers(k, dim, i), noise_sigma=float(rng.uniform(0, 3)),
                transition_ramp=(i % 2) * int(rng.integers(1, 8)), video_id=f"v{i}",
                label_space=space_of(k),
            )
            (stream, truth), (ref, ref_truth) = (
                synth.gen_feature_stream(**cfg), parent_gen_feature_stream(**cfg))
            assert stream.values.tobytes() == ref.values.tobytes()
            assert stream.values.shape == ref.values.shape
            assert truth.states.tobytes() == ref_truth.states.tobytes()
            assert not stream.values.flags.writeable

    def test_memory_trajectory_and_noise_only(self, traced_peak):
        # the parent held the trajectory, the noise, their sum and the
        # stream's copy of it (4x)
        cfg = config(n_frames=20_000, centers=synth.random_centers(3, 32, 4),
                     transition_ramp=3)
        peak, (stream, _) = traced_peak(partial(synth.gen_feature_stream, **cfg))
        assert peak <= 2.5 * stream.values.nbytes, peak / stream.values.nbytes

    def test_noiseless_frames_equal_centers(self):
        cfg = config(noise_sigma=0.0)
        stream, truth = synth.gen_feature_stream(**cfg)
        assert np.array_equal(stream.values, cfg["centers"][truth.states])

    def test_same_seed_identical(self):
        a_s, a_t = synth.gen_feature_stream(**config())
        b_s, b_t = synth.gen_feature_stream(**config())
        assert np.array_equal(a_s.values, b_s.values)
        assert np.array_equal(a_t.states, b_t.states)

    def test_different_seed_differs(self):
        a_s, _ = synth.gen_feature_stream(**config(seed=1))
        b_s, _ = synth.gen_feature_stream(**config(seed=2))
        assert not np.array_equal(a_s.values, b_s.values)

    def test_min_dwell_respected(self):
        for seed in range(10):
            _, truth = synth.gen_feature_stream(**config(seed=seed, min_dwell=20, n_frames=200))
            s = truth.states
            runs = np.diff(np.concatenate([[0], np.nonzero(np.diff(s))[0] + 1, [len(s)]]))
            assert runs.min() >= 20

    def test_consecutive_states_differ(self):
        _, truth = synth.gen_feature_stream(**config(seed=3))
        s = truth.states
        changes = np.nonzero(np.diff(s))[0]
        assert len(changes) > 0
        for c in changes:
            assert s[c] != s[c + 1]

    def test_ramp_blends_centers(self):
        cfg = config(noise_sigma=0.0, transition_ramp=4)
        stream, truth = synth.gen_feature_stream(**cfg)
        t = int(np.nonzero(np.diff(truth.states))[0][0] + 1)
        old_c = cfg["centers"][truth.states[t - 1]]
        new_c = cfg["centers"][truth.states[t]]
        # halfway through the ramp the feature is the midpoint blend
        mid = stream.values[t]
        assert np.allclose(mid, 0.5 * old_c + 0.5 * new_c)
        # outside the ramp the feature sits exactly on the center
        assert np.array_equal(stream.values[t - 5], old_c)

    def test_label_space_attachment(self):
        space = LabelSpace(
            Task.GESTURE, ("free",) + tuple(f"g{i}" for i in range(12)), 0
        )
        _, truth = synth.gen_feature_stream(**config(label_space=space))
        assert truth.label_space == space

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            synth.gen_feature_stream(**config(min_dwell=0))
        with pytest.raises(ValueError):
            synth.gen_feature_stream(**config(noise_sigma=-1.0))
        with pytest.raises(ValueError):
            synth.gen_feature_stream(**config(centers=np.zeros((3, 4))))  # identical rows

    @pytest.mark.parametrize("centers", [np.ones(4), np.ones((2, 2, 2)), np.float64(1.0)])
    def test_centers_must_be_2d(self, centers):
        # one row per state: the state count and width are read from the shape
        with pytest.raises(ValueError, match="centers must be 2-d"):
            synth.gen_feature_stream(**config(centers=centers))


class TestFeatureSetGen:
    def test_each_video_is_its_own_seeded_stream(self):
        ids = ["a", "b", "c"]
        streams = synth.gen_feature_set(7, 3, 5, 90, 10, 0.5, ids, space_of(3),
                                        transition_ramp=2, fps=12.0)
        centers = synth.random_centers(3, 5, 7)
        for i, (stream, truth) in enumerate(streams):
            alone, alone_truth = synth.gen_feature_stream(
                centers, seed=7000 + i, n_frames=90, min_dwell=10, noise_sigma=0.5,
                label_space=space_of(3), transition_ramp=2, video_id=ids[i], fps=12.0)
            assert stream.values.tobytes() == alone.values.tobytes()
            assert (stream.video_id, stream.fps) == (ids[i], 12.0)
            assert np.array_equal(truth.states, alone_truth.states)

    def test_every_config_checked_before_the_first_stream(self):
        # the streams are drawn lazily, so the checks must not wait for them
        space = LabelSpace(Task.FREE_ACTIVE, ("free", "active"), 0)
        args = (3, 2, 4, 60, 10, 0.5, ["a", "b"])
        for change, match in (({"min_dwell": 0}, "min_dwell"), ({"noise_sigma": -1.0}, "noise"),
                              ({"transition_ramp": -1}, "transition_ramp"),
                              ({"fps": 0.0}, "fps"), ({"num_states": 3}, "label space"),
                              ({"video_ids": []}, "videos"), ({"n_frames": 2**27}, "budget"),
                              ({"num_states": 0}, "states >= 1")):
            kwargs = dict(zip(("seed", "num_states", "dim", "n_frames", "min_dwell",
                               "noise_sigma", "video_ids"), args), label_space=space)
            with pytest.raises(ValueError, match=match):
                synth.gen_feature_set(**{**kwargs, **change})


class TestVideoGen:
    def test_identity_composite(self, tmp_path):
        hand = smooth_patch(10, 10, seed=1)
        truth = synth.gen_video_set(
            hand, [synth.VideoSpec("v", 1.0, 5, 7)], (40, 30),
            n_frames=3, noise_sigma=0.0, jitter=0, seed=2, out_dir=tmp_path,
        )
        frames = load_video_dir(tmp_path / "v")
        assert len(frames) == 3
        for f in frames[1:]:
            assert np.array_equal(f, frames[0])
        assert np.array_equal(frames[0][7:17, 5:15], hand)
        assert truth["v"] == {"scale": 1.0, "dx": 5, "dy": 7}

    def test_same_seed_identical_pixels(self, tmp_path):
        hand = synth.textured_patch(8, 8, seed=3)
        spec = [synth.VideoSpec("v", 1.1, 6, 6)]
        for out in ("a", "b"):
            synth.gen_video_set(hand, spec, (40, 30), 4, 30.0, 1, seed=5, out_dir=tmp_path / out)
        a, b = (load_video_dir(tmp_path / out / "v") for out in ("a", "b"))
        assert np.array_equal(a, b)

    def test_hand_out_of_frame(self, tmp_path):
        hand = synth.textured_patch(20, 20, seed=0)
        with pytest.raises(ValueError, match="out of frame"):
            synth.gen_video_set(hand, [synth.VideoSpec("v", 1.0, 35, 5)], (40, 30),
                                2, 0.0, 0, seed=0, out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_written_to_disk(self, tmp_path):
        hand = smooth_patch(8, 8, seed=4)
        synth.gen_video_set(hand, [synth.VideoSpec("v", 1.0, 3, 3)], (30, 20),
                            2, 0.0, 0, seed=1, out_dir=tmp_path)
        assert (tmp_path / "v" / "frame_000000.ppm").exists()
        assert (tmp_path / "v" / "frame_000001.ppm").exists()

    def test_frame_budget_edge(self):
        # the float64 canvas at the planted scale, and the native frame it is
        # resampled to, may each be exactly the budget and not one pixel more
        pixels = synth.MAX_STREAM_BYTES // 24
        for scale, size, ok in ((1.0, (pixels, 1), True), (1.0, (pixels + 1, 1), False),
                                (2.0, (pixels // 4, 1), True), (2.0, (pixels // 4 + 1, 1), False),
                                (0.5, (pixels // 2, 2), True), (0.5, (pixels + 1, 1), False)):
            check = partial(synth.check_video_set, (1, 1), [synth.VideoSpec("v", scale, 0, 0)],
                            size, 1, 0.0, 0)
            if ok:
                check()
            else:
                with pytest.raises(ValueError, match="budget"):
                    check()


class TestCenters:
    def test_orthonormal(self):
        c = orthonormal_centers(3, 6, 0)
        assert np.allclose(c @ c.T, np.eye(3), atol=1e-12)

    def test_random_unit_norm(self):
        c = synth.random_centers(4, 5, 1)
        assert np.allclose(np.linalg.norm(c, axis=1), 1.0)

    def test_deterministic(self):
        assert np.array_equal(orthonormal_centers(2, 4, 7),
                              orthonormal_centers(2, 4, 7))
