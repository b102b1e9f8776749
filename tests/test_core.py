import math

import numpy as np
import pytest

from handcam.core import (
    Camera,
    FeatureStream,
    LabelSpace,
    StateSequence,
    Task,
    cosine_similarity,
    load_label_space,
    save_label_space,
)


def gesture_space():
    labels = ("free",) + tuple(f"g{i:02d}" for i in range(1, 13))
    return LabelSpace(Task.GESTURE, labels, 0)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_45_degrees(self):
        # 1 / sqrt(2), computed by hand
        got = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-6

    def test_zero_norm_convention(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(2), np.ones(3))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.array([np.nan, 1.0]), np.ones(2))

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            c = float(rng.uniform(0.1, 10.0))
            assert cosine_similarity(a, b) == cosine_similarity(b, a)
            assert abs(cosine_similarity(c * a, b) - cosine_similarity(a, b)) < 1e-12

    def test_bounded_property(self):
        # |cos| <= 1 + 1e-12 over 10^4 random pairs
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            d = int(rng.integers(1, 8))
            a = rng.standard_normal(d) * float(rng.uniform(0.01, 100))
            b = rng.standard_normal(d) * float(rng.uniform(0.01, 100))
            assert abs(cosine_similarity(a, b)) <= 1.0 + 1e-12


class TestLabelSpace:
    def test_task_cardinalities(self):
        assert LabelSpace.free_active().num_labels == 2
        assert gesture_space().num_labels == 13
        objects = ("free",) + tuple(f"obj{i:02d}" for i in range(1, 24))
        assert LabelSpace(Task.OBJECT_CATEGORY, objects, 0).num_labels == 24

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            LabelSpace(Task.GESTURE, ("free", "fist"), 0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LabelSpace(Task.FREE_ACTIVE, ("free", "free"), 0)

    def test_free_index_validated(self):
        with pytest.raises(ValueError):
            LabelSpace(Task.FREE_ACTIVE, ("free", "active"), 2)

    def test_file_round_trip(self, tmp_path):
        space = gesture_space()
        path = tmp_path / "labels.txt"
        save_label_space(space, path)
        assert load_label_space(path) == space

    def test_file_with_comments(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "# free/active declaration\n"
            "task = free_active\n"
            "labels = free, active  # two states\n"
            "free_label = free\n"
        )
        space = load_label_space(path)
        assert space.task is Task.FREE_ACTIVE
        assert space.free_label_index == 0

    def test_file_unknown_key(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("task = free_active\nlabels = a, b\nfree_label = a\ncolor = red\n")
        with pytest.raises(ValueError, match="unknown keys"):
            load_label_space(path)

    def test_file_missing_key(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("task = free_active\nlabels = a, b\n")
        with pytest.raises(ValueError, match="missing key"):
            load_label_space(path)


class TestFeatureStream:
    def test_frame_access(self):
        values = np.arange(6.0).reshape(3, 2)
        s = FeatureStream("v", Camera.RIGHT_HAND, 6.0, values)
        assert s.n_frames == 3 and s.dim == 2
        assert np.array_equal(s.values[1], [2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FeatureStream("v", Camera.HEAD, 6.0, np.array([[np.inf, 0.0]]))

    def test_immutable(self):
        s = FeatureStream("v", Camera.HEAD, 6.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            s.values[0, 0] = 1.0


class TestStateSequence:
    def test_with_label_space(self):
        seq = StateSequence(LabelSpace.free_active(), np.array([0, 1, 1]))
        assert seq.num_states == 2
        assert seq.label_names() == ["free", "active", "active"]

    def test_detached(self):
        seq = StateSequence(None, np.array([0, 3]), num_states=4)
        assert seq.num_states == 4
        with pytest.raises(ValueError):
            seq.label_names()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StateSequence(LabelSpace.free_active(), np.array([0, 2]))

    def test_detached_needs_num_states(self):
        with pytest.raises(ValueError):
            StateSequence(None, np.array([0, 1]))
