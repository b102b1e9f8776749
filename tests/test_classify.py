import struct

import numpy as np
import pytest

from handcam import synth
from handcam.change import train_change_model
from handcam.classify import (
    LinearModel,
    ModelFileError,
    TrainConfig,
    load_model,
    model_bytes,
    predict_frames,
    save_model,
    score_stream,
    train,
    train_arrays,
    train_binary,
    training_objective,
)
from handcam.core import Camera, FeatureStream, LabelSpace, StateSequence
from handcam.crossval import CrossValPlan, cross_validate


def two_blobs(seed=0, n_per=100, margin=5.0, sigma=1.0, dim=4):
    """Two Gaussian blobs separated by a true `margin`-sigma gap: noise on
    the first axis is folded away from the midplane, so the closest points
    of the two classes are margin*sigma apart."""
    rng = np.random.default_rng(seed)
    half = margin * sigma / 2.0
    n0 = rng.standard_normal((n_per, dim)) * sigma
    n1 = rng.standard_normal((n_per, dim)) * sigma
    x0 = n0.copy()
    x1 = n1.copy()
    x0[:, 0] = half + np.abs(n0[:, 0])
    x1[:, 0] = -half - np.abs(n1[:, 0])
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


class TestTrain:
    def test_separable_blobs_perfect(self):
        x, y = two_blobs()
        model = train_arrays(x, y, LabelSpace.free_active())
        pred = np.argmax(x @ model.weights.T + model.bias, axis=1)
        assert (pred == y).mean() == 1.0

    def test_same_seed_byte_identical(self):
        x, y = two_blobs()
        cfg = TrainConfig(c_reg=1.0, epochs=150)
        a = train_arrays(x, y, LabelSpace.free_active(), cfg)
        b = train_arrays(x, y, LabelSpace.free_active(), cfg)
        assert model_bytes(a) == model_bytes(b)

    def test_duplicated_frames_same_predictions(self):
        x, y = two_blobs()
        xd, yd = np.vstack([x, x]), np.concatenate([y, y])
        a = train_arrays(x, y, LabelSpace.free_active())
        b = train_arrays(xd, yd, LabelSpace.free_active())
        pa = np.argmax(x @ a.weights.T + a.bias, axis=1)
        pb = np.argmax(x @ b.weights.T + b.bias, axis=1)
        assert np.array_equal(pa, pb)

    def test_single_class_rejected(self):
        x = np.zeros((5, 2))
        y = np.ones(5, dtype=int)
        with pytest.raises(ValueError, match="two distinct labels"):
            train_arrays(x, y, LabelSpace.free_active())

    def test_nan_feature_rejected(self):
        x = np.array([[np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            train_arrays(x, np.array([0, 1]), LabelSpace.free_active())

    def test_objective_final_le_initial(self):
        # the returned iterate never scores worse than the zero initializer
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((80, 5))
            y = rng.integers(0, 3, 80)
            if np.unique(y).size < 2:
                continue
            model = train_arrays(x, y, 3, TrainConfig(c_reg=0.5, epochs=60))
            signs = np.full((80, 3), -1.0)
            signs[np.arange(80), y] = 1.0
            obj = training_objective(model, x, signs)
            assert np.all(obj <= 1.0 + 1e-12)  # objective at w = 0, b = 0 is 1

    def test_train_on_streams(self):
        x, y = two_blobs(seed=5)
        space = LabelSpace.free_active()
        streams = [FeatureStream("v0", Camera.RIGHT_HAND, 6.0, x)]
        truths = [StateSequence(space, y)]
        model = train(streams, truths)
        assert model.label_space == space
        assert predict_frames(model, streams[0]).states.tolist() == y.tolist()


def frames(values):
    return FeatureStream("v", Camera.HEAD, 6.0, np.atleast_2d(np.asarray(values, dtype=np.float64)))


class TestScore:
    def test_bias_passthrough(self):
        model = LinearModel(np.zeros((2, 3)), np.array([1.0, -1.0]), LabelSpace.free_active(), TrainConfig())
        assert score_stream(model, frames(np.zeros(3))).tolist() == [[1.0, -1.0]]

    def test_linearity(self):
        rng = np.random.default_rng(1)
        model = LinearModel(rng.standard_normal((2, 3)), np.zeros(2), LabelSpace.free_active(), TrainConfig())
        f = rng.standard_normal(3)
        assert np.allclose(score_stream(model, frames(2.0 * f)), 2.0 * score_stream(model, frames(f)))

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros((2, 3)), np.zeros(2), LabelSpace.free_active(), TrainConfig())
        with pytest.raises(ValueError, match="dim"):
            score_stream(model, frames(np.zeros(4)))

    def test_trained_frame_argmax_is_label(self):
        x, y = two_blobs(seed=2)
        model = train_arrays(x, y, LabelSpace.free_active())
        assert np.array_equal(np.argmax(score_stream(model, frames(x)), axis=1), y)


class TestPredictFrames:
    def test_all_equal_scores_pick_zero(self):
        model = LinearModel(np.zeros((3, 2)), np.zeros(3), None, TrainConfig())
        stream = FeatureStream("v", Camera.HEAD, 6.0, np.ones((4, 2)))
        assert predict_frames(model, stream).states.tolist() == [0, 0, 0, 0]

    def test_single_frame(self):
        model = LinearModel(np.eye(2), np.zeros(2), LabelSpace.free_active(), TrainConfig())
        stream = FeatureStream("v", Camera.HEAD, 6.0, np.array([[0.0, 1.0]]))
        seq = predict_frames(model, stream)
        assert len(seq) == 1 and seq.states[0] == 1

    def test_argmax_shift_invariance(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 4))
        stream = FeatureStream("v", Camera.HEAD, 6.0, rng.standard_normal((20, 4)))
        a = predict_frames(LinearModel(w, np.zeros(3), None, TrainConfig()), stream)
        b = predict_frames(LinearModel(w, np.full(3, 11.5), None, TrainConfig()), stream)
        assert np.array_equal(a.states, b.states)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        x, y = two_blobs(seed=4)
        model = train_arrays(x, y, LabelSpace.free_active(), TrainConfig(c_reg=0.1, epochs=50))
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.label_space == model.label_space
        assert loaded.config == model.config
        assert model_bytes(loaded) == model_bytes(model)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 3))
        y = (x[:, 0] > 0).astype(int)
        model = train_binary(x, y)
        path = tmp_path / "c.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.is_binary
        assert np.array_equal(loaded.weights, model.weights)

    def test_detached_multiclass_round_trip(self, tmp_path):
        x, y = two_blobs(seed=6)
        model = train_arrays(x, y, 3, TrainConfig(epochs=20))
        path = tmp_path / "detached.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.label_space is None and loaded.num_classes == 3
        assert np.array_equal(loaded.weights, model.weights)
        assert model_bytes(loaded) == model_bytes(model)

    def test_unknown_kind_rejected(self, tmp_path):
        data = bytearray(model_bytes(train_binary(*two_blobs(seed=7), TrainConfig(epochs=5))))
        data[8] = 3  # kind byte: after the 4-byte magic and the u32 version
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFileError, match="kind"):
            load_model(path)

    def test_impossible_shape_rejected(self, tmp_path):
        model = train_binary(*two_blobs(seed=7), TrainConfig(epochs=5))
        data = bytearray(model_bytes(model))
        shape_at = len(data) - 8 * (model.weights.size + model.bias.size) - 8  # the (k, d) u32s
        assert struct.unpack_from("<II", data, shape_at) == model.weights.shape
        data[shape_at : shape_at + 8] = b"\xff" * 8
        path = tmp_path / "huge.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFileError, match="shape"):
            load_model(path)

    def test_change_model_records_d(self, tmp_path):
        pairs = synth_cv_videos(0, ramp=0, sigma=0.5, n_videos=2)
        model = train_change_model([s for s, _ in pairs], [t for _, t in pairs], 4,
                                   TrainConfig(epochs=20))
        assert model.d == 4
        path = tmp_path / "change.bin"
        save_model(model, path)
        assert load_model(path).d == 4
        state = train_arrays(*two_blobs(seed=8), LabelSpace.free_active(), TrainConfig(epochs=5))
        save_model(state, path)
        assert load_model(path).d is None

    def test_version_1_file_still_loads(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 3))
        model = train_binary(x, (x[:, 0] > 0).astype(int), TrainConfig(epochs=10))
        data = bytearray(model_bytes(model))
        data[4:8] = (1).to_bytes(4, "little")  # version
        data[21:29] = (7).to_bytes(8, "little")  # the v1 seed slot, not a d
        path = tmp_path / "v1.bin"
        path.write_bytes(bytes(data))
        loaded = load_model(path)
        assert loaded.d is None
        assert np.array_equal(loaded.weights, model.weights)


def synth_cv_videos(seed, ramp, sigma, n_videos=5):
    centers = synth.orthonormal_centers(3, 6, seed * 13 + 5)
    pairs = []
    for i in range(n_videos):
        cfg = synth.SynthConfig(
            seed=seed * 100 + i, num_states=3, dim=6, n_frames=240,
            min_dwell=24, centers=centers, noise_sigma=sigma, transition_ramp=ramp,
        )
        pairs.append(synth.gen_feature_stream(cfg, video_id=f"v{i}"))
    return pairs


class TestCrossValidate:
    def test_singleton_grid(self):
        pairs = synth_cv_videos(0, ramp=0, sigma=0.5)
        plan = CrossValPlan(c_grid=(0.1,), d_grid=(3,), lambda_grid=(1.0,))
        res = cross_validate(pairs, plan, TrainConfig(epochs=60))
        assert (res.c_reg, res.d, res.lam) == (0.1, 3, 1.0)
        assert len(res.table) == 1

    def test_too_few_videos(self):
        pairs = synth_cv_videos(0, ramp=0, sigma=0.5, n_videos=4)
        with pytest.raises(ValueError, match="explicit hyperparameters"):
            cross_validate(pairs, CrossValPlan())

    def test_tie_break_smallest_cell(self):
        # constant features everywhere: every cell scores identically
        space3 = 3
        pairs = []
        for i in range(5):
            vals = np.ones((60, 4))
            stream = FeatureStream(f"v{i}", Camera.HEAD, 6.0, vals)
            truth = StateSequence(None, np.zeros(60, dtype=int), num_states=space3)
            pairs.append((stream, truth))
        # constant labels would break training, so alternate one frame label
        fixed = []
        for stream, truth in pairs:
            states = truth.states.copy()
            states[:20] = 1
            fixed.append((stream, StateSequence(None, states, num_states=3)))
        plan = CrossValPlan(c_grid=(0.01, 0.1), d_grid=(3, 6), lambda_grid=(0.1, 0.3))
        res = cross_validate(fixed, plan, TrainConfig(epochs=20))
        accs = {cell.mean_accuracy for cell in res.table}
        assert len(accs) == 1  # identical scores everywhere
        assert (res.c_reg, res.d, res.lam) == (0.01, 3, 0.1)

    def test_planted_half_width_selected(self):
        # the feature ramp spans +-6 frames; CV should find d = 6 in most seeds
        plan = CrossValPlan(c_grid=(0.1,), d_grid=(3, 6, 9, 12), lambda_grid=(1.0,))
        hits = 0
        for seed in range(20):
            pairs = synth_cv_videos(seed, ramp=6, sigma=0.15)
            res = cross_validate(pairs, plan, TrainConfig(epochs=150))
            hits += res.d == 6
        assert hits >= 16  # >= 80% of 20 seeds

    def test_full_table_emitted(self):
        pairs = synth_cv_videos(1, ramp=0, sigma=0.5)
        plan = CrossValPlan(c_grid=(0.1, 1.0), d_grid=(3, 6), lambda_grid=(0.5, 1.0))
        res = cross_validate(pairs, plan, TrainConfig(epochs=40))
        assert len(res.table) == 8
        assert all(len(cell.fold_accuracies) == 5 for cell in res.table)
