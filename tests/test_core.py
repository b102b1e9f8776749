import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from handcam import classify, core
from handcam.core import (
    UPCAST_ROWS,
    Camera,
    FeatureStream,
    LabelSpace,
    StateSequence,
    Task,
    load_label_space,
    release_pages,
    run_starts,
    segment_means,
    unit_rows,
    write_json,
)
from handcam.change import change_feature_matrix
from handcam.classify import LinearModel, TrainConfig
from handcam.features import read_features, write_features
from handcam.discovery import Segment, segment_similarity_matrix
from handcam.inference import InferenceProblem
from conftest import free_active
from test_features import as_read


def save_label_space(space, path):
    """Write a label-space declaration that `load_label_space` reads back."""
    text = (
        f"task = {space.task.value}\n"
        f"labels = {', '.join(space.labels)}\n"
        f"free_label = {space.labels[space.free_label_index]}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def gesture_space():
    labels = ("free",) + tuple(f"g{i:02d}" for i in range(1, 13))
    return LabelSpace(Task.GESTURE, labels, 0)


def reference_cosine(a, b):
    """Per-pair cosine with the zero-norm -> 0 convention, the reference
    the unit-row kernel is checked against."""
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(np.dot(a, b)) / (na * nb), -1.0, 1.0))


def row_cosines(feats):
    """Cosines of adjacent rows: boundary similarities of one segment per row."""
    feats = np.asarray(feats, dtype=np.float64)
    n = len(feats)
    return InferenceProblem(np.zeros((n, 1)), np.arange(1, n), feats).boundary_similarities


def matrix_cosines(feats):
    """Cosines of all row pairs: the similarity matrix of one segment per row."""
    return segment_similarity_matrix([Segment("v", i, i + 1, f) for i, f in enumerate(feats)])


def cosine(a, b):
    """Cosine of a and b by both unit-row forms, which must agree."""
    row = row_cosines([a, b])[0]
    mat = matrix_cosines([a, b])
    assert mat[0, 1] == mat[1, 0] and abs(mat[0, 1] - row) <= 1e-12
    return row


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_45_degrees(self):
        # 1 / sqrt(2), computed by hand
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-6

    def test_zero_norm_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            InferenceProblem(np.zeros((2, 1)), [1], [np.ones(2), np.ones(3)])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            InferenceProblem(np.zeros((2, 1)), [1], [np.array([np.nan, 1.0]), np.ones(2)])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            c = float(rng.uniform(0.1, 10.0))
            assert cosine(a, b) == cosine(b, a)
            assert abs(cosine(c * a, b) - cosine(a, b)) < 1e-12

    def test_bounded_property(self):
        # |cos| <= 1 over 10^4 random adjacent pairs, in both forms
        rng = np.random.default_rng(1)
        for d in range(1, 8):
            feats = rng.standard_normal((1500, d)) * rng.uniform(0.01, 100, (1500, 1))
            assert np.all(np.abs(row_cosines(feats)) <= 1.0)
            assert np.all(np.abs(matrix_cosines(feats[:300])) <= 1.0)


class TestUnitRows:
    def test_zero_rows_stay_zero(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(unit_rows(x), [[0.0, 0.0], [0.6, 0.8], [0.0, 0.0]])

    def test_match_per_pair_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, d = int(rng.integers(2, 25)), int(rng.integers(1, 9))
            feats = rng.standard_normal((n, d)) * rng.uniform(0.01, 100, (n, 1))
            feats[rng.random(n) < 0.2] = 0.0  # zero rows
            # parallel and antiparallel copies of other rows
            src, dst = rng.integers(0, n, (2, n // 3))
            feats[dst] = feats[src] * rng.choice([-2.0, 0.5], (src.size, 1))
            want_rows = [reference_cosine(feats[g], feats[g + 1]) for g in range(n - 1)]
            assert np.max(np.abs(row_cosines(feats) - want_rows)) <= 1e-12
            got = matrix_cosines(feats)
            assert np.array_equal(got, got.T)
            for i in range(n):
                for j in range(i + 1, n):
                    assert abs(got[i, j] - reference_cosine(feats[i], feats[j])) <= 1e-12

    def test_clip(self):
        # the unit-row product of this vector with itself rounds above 1
        a = np.array([0.9034701816518086, 0.09401229776087457, -0.7434992493538084])
        u = unit_rows(a[None, :])[0]
        assert np.sum(u * u) > 1.0
        assert row_cosines([a, a, -a]).tolist() == [1.0, -1.0]
        assert np.all(np.abs(matrix_cosines([a, a, -a])) <= 1.0)


class TestRunStarts:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            s = rng.integers(0, int(rng.integers(1, 4)), int(rng.integers(0, 30)))
            want = [i for i in range(len(s)) if i == 0 or s[i] != s[i - 1]]
            assert run_starts(s).tolist() == want


class TestSegmentMeans:
    def test_matches_per_slice_mean(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            values = rng.standard_normal((n, 3))
            starts = np.flatnonzero(np.r_[True, rng.random(n - 1) < 0.3])
            bounds = np.append(starts, n)
            want = [values[a:b].mean(axis=0) for a, b in zip(bounds[:-1], bounds[1:])]
            assert np.max(np.abs(segment_means(values, starts) - want)) <= 1e-12

    def test_float32_values_match_their_float64_upcast_bytes(self):
        # a feature file's float32 payload, aligned or not, against the
        # float64 copy of it that reading used to make
        rng = np.random.default_rng(11)
        for (n, d), aligned in product(((60_000, 3), (30_000, 64), (6_000, 512)), (True, False)):
            values = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
            v32 = as_read(values, aligned)
            for p in (0.002, 0.05, 0.5):  # about 120 to 30,000 segments
                starts = np.flatnonzero(np.r_[True, rng.random(n - 1) < p])
                got = segment_means(v32, starts)
                assert got.dtype == np.float64
                assert got.tobytes() == segment_means(v32.astype(np.float64), starts).tobytes()

    def test_float32_memory_upcasts_a_group_of_segments_at_a_time(self, traced_peak):
        # one group of up to 4,096 rows in float64 is 0.2x the float32
        # bytes here; a float64 copy of all values would be 2x, and two
        # groups alive at once 0.45x
        rng = np.random.default_rng(12)
        v32 = as_read(rng.standard_normal((40_000, 64)))
        starts = np.flatnonzero(np.r_[True, rng.random(39_999) < 0.02])
        peak, _ = traced_peak(segment_means, v32, starts)
        assert peak < 0.3 * v32.nbytes, peak / v32.nbytes


class TestWriteJson:
    def test_layout(self, tmp_path):
        # every JSON file the package writes has this layout, and the run
        # tree's digests depend on it
        path = tmp_path / "doc.json"
        write_json({"b": 1, "a": [0.1, "x"], "c": {"z": None, "y": True}}, path)
        assert path.read_text() == (
            '{\n  "a": [\n    0.1,\n    "x"\n  ],\n  "b": 1,\n'
            '  "c": {\n    "y": true,\n    "z": null\n  }\n}\n'
        )


class TestLabelSpace:
    def test_task_cardinalities(self):
        assert free_active().num_labels == 2
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
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                FeatureStream("v", Camera.HEAD, 6.0, np.array([[1.0, 0.0], [bad, 0.0]]))
        for fps in (np.nan, np.inf, 0.0, -6.0):
            with pytest.raises(ValueError, match="fps"):
                FeatureStream("v", Camera.HEAD, fps, np.zeros((1, 2)))

    def test_float32_and_float64_values_kept_as_given(self):
        for dtype in (np.float32, np.float64):
            values = np.arange(6, dtype=dtype).reshape(3, 2)
            values.setflags(write=False)
            assert FeatureStream("v", Camera.HEAD, 6.0, values).values is values
        assert FeatureStream("v", Camera.HEAD, 6.0, [[1, 2]]).values.dtype == np.float64

    def test_non_finite_float32_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                FeatureStream("v", Camera.HEAD, 6.0, as_read([[1.0, 0.0], [bad, 0.0]], False))

    def test_non_finite_in_a_later_block_rejected(self):
        # the check reads UPCAST_ROWS rows at a time
        values = np.zeros((2 * UPCAST_ROWS + 5, 3), dtype=np.float32)
        for row in (UPCAST_ROWS, 2 * UPCAST_ROWS + 4):
            bad = values.copy()
            bad[row, 2] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                FeatureStream("v", Camera.HEAD, 6.0, bad)

    def test_immutable(self):
        s = FeatureStream("v", Camera.HEAD, 6.0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            s.values[0, 0] = 1.0


def mapped_rss(path):
    """Resident bytes of this process's mappings of the file at path."""
    total, inside = 0, False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
            inside = line.endswith(str(path))
        elif inside and line.startswith("Rss:"):
            total += 1024 * int(line.split()[1])
    return total


@pytest.mark.skipif(not Path("/proc/self/smaps").exists(), reason="reads Linux's smaps")
class TestReleasePages:
    """A released page is re-mapped when a later fault maps the file's pages
    around it (fault-around, large folios), so what stays resident after a
    pass is about one block and a folio, not one page: the bounds are a
    quarter of the payload against half."""

    N, D = 160_000, 32  # 19.5 MiB of payload, 39 blocks of 0.5 MiB

    def read(self, tmp_path):
        path = tmp_path / "s.feat"
        values = np.random.default_rng(12).standard_normal((self.N, self.D))
        write_features(FeatureStream("v", Camera.HEAD, 6.0, values), path)
        return path, values.astype(np.float32), read_features(path)

    def test_every_consumer_gives_back_the_pages_it_read(self, tmp_path):
        path, values, s = self.read(tmp_path)
        assert mapped_rss(path) <= values.nbytes / 4  # the finiteness check's blocks
        model = LinearModel(np.ones((3, self.D)), np.zeros(3), None, TrainConfig())
        truth = StateSequence(None, np.arange(self.N) % 2, num_states=2)
        for consume in (lambda: classify.score_stream(model, s),
                        lambda: segment_means(s.values, np.arange(0, self.N, 7)),
                        lambda: change_feature_matrix(s, 3),
                        lambda: classify.train([s], [truth], TrainConfig(epochs=1))):
            consume()
            assert mapped_rss(path) <= values.nbytes / 4
        assert np.array_equal(s.values, values)  # the pages fault back in from the file
        assert mapped_rss(path) >= values.nbytes / 2

    def test_without_madvise_the_pages_stay(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_DONTNEED", None)
        path, values, s = self.read(tmp_path)
        assert mapped_rss(path) >= values.nbytes / 2
        assert np.array_equal(s.values, values)

    def test_arrays_not_mapped_are_left_alone(self):
        for arr in (np.arange(12.0).reshape(4, 3), as_read(np.ones((4, 3)))):
            before = arr.copy()
            release_pages(arr)
            release_pages(arr[1:3])
            assert np.array_equal(arr, before)


# constructors of frozen dataclasses: (field, build from one array, that array)
FROZEN_FIELDS = {
    "FeatureStream": ("values", lambda a: FeatureStream("v", Camera.HEAD, 6.0, a),
                      lambda: np.arange(6.0).reshape(3, 2)),
    "StateSequence": ("states", lambda a: StateSequence(free_active(), a),
                      lambda: np.array([0, 1, 1])),
    "Segment": ("mean_feature", lambda a: Segment("v", 0, 2, a), lambda: np.ones(3)),
    "LinearModel": ("weights", lambda a: LinearModel(a, np.zeros(2), None, TrainConfig()),
                    lambda: np.ones((2, 3))),
}


class TestFrozenArrays:
    @pytest.mark.parametrize("name", sorted(FROZEN_FIELDS))
    def test_caller_array_stays_writable(self, name):
        field, build, make = FROZEN_FIELDS[name]
        arr = make()
        stored = getattr(build(arr), field)
        assert arr.flags.writeable and not stored.flags.writeable
        before = stored.copy()
        arr[...] = 0
        assert np.array_equal(stored, before)

    @pytest.mark.parametrize("name", sorted(FROZEN_FIELDS))
    def test_read_only_array_kept_as_is(self, name):
        field, build, make = FROZEN_FIELDS[name]
        arr = make()
        arr.setflags(write=False)
        assert getattr(build(arr), field) is arr


class TestStateSequence:
    def test_with_label_space(self):
        seq = StateSequence(free_active(), np.array([0, 1, 1]))
        assert seq.num_states == 2

    def test_detached(self):
        seq = StateSequence(None, np.array([0, 3]), num_states=4)
        assert seq.num_states == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StateSequence(free_active(), np.array([0, 2]))

    def test_detached_needs_num_states(self):
        with pytest.raises(ValueError):
            StateSequence(None, np.array([0, 1]))
