import numpy as np
import pytest

from handcam.core import Camera, FeatureStream, LabelSpace, StateSequence, Task
from handcam.discovery import (
    Clustering,
    Segment,
    active_segments,
    average_linkage,
    modified_purity,
    segment_similarity_matrix,
)


def object_space():
    labels = ("free", "cup", "kettle") + tuple(f"obj{i:02d}" for i in range(21))
    return LabelSpace(Task.OBJECT_CATEGORY, labels, 0)


def fa_stream(states, dim=2, vid="v"):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((len(states), dim))
    stream = FeatureStream(vid, Camera.RIGHT_HAND, 6.0, values)
    return stream, StateSequence(LabelSpace.free_active(), np.asarray(states))


def seg(vid, start, end, feature):
    return Segment(vid, start, end, 1, np.asarray(feature, dtype=np.float64))


def cluster_segments(segs, k):
    return average_linkage(segment_similarity_matrix(segs), k)


class TestActiveSegments:
    def test_all_free_empty(self):
        stream, seq = fa_stream([0, 0, 0, 0])
        assert active_segments(seq, stream) == []

    def test_pattern_faafa(self):
        stream, seq = fa_stream([0, 1, 1, 0, 1])
        segs = active_segments(seq, stream)
        assert [(s.start, s.end) for s in segs] == [(1, 3), (4, 5)]
        assert np.array_equal(segs[0].mean_feature, stream.values[1:3].mean(axis=0))

    def test_all_active_single_run(self):
        stream, seq = fa_stream([1, 1, 1])
        segs = active_segments(seq, stream)
        assert [(s.start, s.end) for s in segs] == [(0, 3)]

    def test_length_mismatch(self):
        stream, _ = fa_stream([0, 1])
        seq = StateSequence(LabelSpace.free_active(), np.array([0]))
        with pytest.raises(ValueError):
            active_segments(seq, stream)

    def test_matches_per_frame_loop(self):
        def per_frame_segments(decoded, stream):
            # the per-frame scan active_segments replaced
            free = decoded.label_space.free_label_index
            s = decoded.states
            segments = []
            start = None
            for i in range(len(s) + 1):
                boundary = i == len(s) or s[i] == free or (start is not None and s[i] != s[start])
                if start is not None and boundary:
                    segments.append((start, i, int(s[start]), stream.values[start:i].mean(axis=0)))
                    start = None
                if i < len(s) and s[i] != free and start is None:
                    start = i
            return segments

        rng = np.random.default_rng(5)
        space = object_space()
        for _ in range(200):
            n = int(rng.integers(0, 40))
            states = np.repeat(rng.integers(0, 4, n), rng.integers(1, 4, n))[:n]
            stream = FeatureStream("v", Camera.RIGHT_HAND, 6.0, rng.standard_normal((n, 3)))
            decoded = StateSequence(space, states)
            got = active_segments(decoded, stream)
            want = per_frame_segments(decoded, stream)
            assert [(g.start, g.end, g.state) for g in got] == [w[:3] for w in want]
            for g, w in zip(got, want):
                assert g.video_id == "v"
                assert np.max(np.abs(g.mean_feature - w[3])) <= 1e-12


class TestAverageLinkage:
    def test_k_equals_n_singletons(self):
        segs = [seg("v", i, i + 1, [np.cos(i), np.sin(i)]) for i in range(4)]
        clustering = cluster_segments(segs, 4)
        assert clustering.assignment.tolist() == [0, 1, 2, 3]
        assert clustering.merges == ()

    def test_identical_features_merge_first(self):
        segs = [
            seg("v", 0, 1, [1.0, 0.0]),
            seg("v", 1, 2, [0.0, 1.0]),
            seg("v", 2, 3, [1.0, 0.0]),  # same direction as segment 0
        ]
        clustering = cluster_segments(segs, 2)
        assert clustering.merges[0] == (0, 2)
        a = clustering.assignment
        assert a[0] == a[2] and a[0] != a[1]

    def test_hand_run_three_segments(self):
        # pairwise similarities (a,b)=0.9 (a,c)=0.1 (b,c)=0.2 -> merge (a,b)
        sim = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        clustering = average_linkage(sim, 2)
        a = clustering.assignment
        assert a[0] == a[1] and a[2] != a[0]

    def test_average_linkage_update_by_hand(self):
        # after merging (0, 1), link({0,1}, 2) = (0.6 + 0.2) / 2 = 0.4 < link(2,3)
        sim = np.array(
            [
                [1.0, 0.9, 0.6, 0.0],
                [0.9, 1.0, 0.2, 0.0],
                [0.6, 0.2, 1.0, 0.5],
                [0.0, 0.0, 0.5, 1.0],
            ]
        )
        clustering = average_linkage(sim, 2)
        assert clustering.merges == ((0, 1), (2, 3))

    def test_tie_break_smallest_pair(self):
        sim = np.full((3, 3), 0.5)
        np.fill_diagonal(sim, 1.0)
        clustering = average_linkage(sim, 2)
        assert clustering.merges == ((0, 1),)

    def test_merge_count(self):
        rng = np.random.default_rng(1)
        segs = [seg("v", i, i + 1, rng.standard_normal(3)) for i in range(8)]
        for k in (1, 3, 8):
            clustering = cluster_segments(segs, k)
            assert len(clustering.merges) == 8 - k
            assert len(set(clustering.assignment.tolist())) == k

    def test_k_out_of_range(self):
        segs = [seg("v", 0, 1, [1.0, 0.0])]
        for k in (0, 2):
            with pytest.raises(ValueError):
                cluster_segments(segs, k)


def purity_fixture():
    """Six 1-frame segments over one video; truth spells the hand example:
    cluster 0 frames {cup, cup, free}, cluster 1 frames {free, free, kettle}."""
    space = object_space()
    cup, kettle = space.index_of("cup"), space.index_of("kettle")
    truth = StateSequence(space, np.array([cup, cup, 0, 0, 0, kettle]))
    segs = [seg("v", i, i + 1, [1.0, 0.0]) for i in range(6)]
    clustering = Clustering(2, np.array([0, 0, 0, 1, 1, 1]), ())
    return clustering, segs, {"v": truth}, space


class TestModifiedPurity:
    def test_hand_example_two_thirds(self):
        clustering, segs, truths, _ = purity_fixture()
        purity = modified_purity(clustering, segs, truths)
        assert abs(purity - 2.0 / 3.0) < 1e-12

    def test_perfect_clustering(self):
        space = object_space()
        cup, kettle = space.index_of("cup"), space.index_of("kettle")
        truth = StateSequence(space, np.array([cup, cup, kettle, kettle]))
        segs = [seg("v", i, i + 1, [1.0, 0.0]) for i in range(4)]
        clustering = Clustering(2, np.array([0, 0, 1, 1]), ())
        assert modified_purity(clustering, segs, {"v": truth}) == 1.0

    def test_free_dominated_cluster_scores_zero(self):
        space = object_space()
        cup = space.index_of("cup")
        truth = StateSequence(space, np.array([0, 0, cup]))
        segs = [seg("v", i, i + 1, [1.0, 0.0]) for i in range(3)]
        clustering = Clustering(1, np.array([0, 0, 0]), ())
        assert modified_purity(clustering, segs, {"v": truth}) == 0.0

    def test_missed_active_frames_penalized(self):
        # one active frame not covered by any segment still counts in the denominator
        space = object_space()
        cup = space.index_of("cup")
        truth = StateSequence(space, np.array([cup, cup, cup, 0]))
        segs = [seg("v", 0, 2, [1.0, 0.0])]
        clustering = Clustering(1, np.array([0]), ())
        assert abs(modified_purity(clustering, segs, {"v": truth}) - 2.0 / 3.0) < 1e-12

    def test_no_active_frames_undefined(self):
        space = object_space()
        truth = StateSequence(space, np.zeros(4, dtype=int))
        segs = [seg("v", 0, 1, [1.0, 0.0])]
        clustering = Clustering(1, np.array([0]), ())
        with pytest.raises(ValueError, match="metric undefined"):
            modified_purity(clustering, segs, {"v": truth})

    def test_in_unit_interval_on_random_clusterings(self):
        rng = np.random.default_rng(2)
        space = object_space()
        for _ in range(1000):
            n_frames = int(rng.integers(6, 30))
            truth = StateSequence(space, rng.integers(0, 5, n_frames))
            if not np.any(truth.states != 0):
                continue
            cuts = np.sort(rng.choice(np.arange(1, n_frames), 3, replace=False))
            bounds = [0, *cuts.tolist(), n_frames]
            segs = [
                seg("v", a, b, rng.standard_normal(2))
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            k = int(rng.integers(1, len(segs) + 1))
            labels = rng.integers(0, k, len(segs))
            # compact to exactly k' used clusters
            used = np.unique(labels)
            remap = {c: i for i, c in enumerate(used)}
            assignment = np.array([remap[c] for c in labels])
            clustering = Clustering(len(used), assignment, ())
            p = modified_purity(clustering, segs, {"v": truth})
            assert 0.0 <= p <= 1.0

    def test_relabeling_invariance(self):
        clustering, segs, truths, _ = purity_fixture()
        swapped = Clustering(2, 1 - clustering.assignment, ())
        assert modified_purity(clustering, segs, truths) == modified_purity(
            swapped, segs, truths
        )


class TestPurityCurve:
    """Purity over k from one similarity matrix, as `discover` computes it."""

    def test_k_equals_n_pure_segments(self):
        space = object_space()
        cup, kettle = space.index_of("cup"), space.index_of("kettle")
        truth = StateSequence(space, np.array([cup, kettle, cup]))
        segs = [seg("v", i, i + 1, [float(i), 1.0]) for i in range(3)]
        assert modified_purity(cluster_segments(segs, 3), segs, {"v": truth}) == 1.0

    def test_matches_fresh_clustering(self):
        # clustering must not modify the shared matrix between k values
        rng = np.random.default_rng(3)
        space = object_space()
        truth = StateSequence(space, rng.integers(1, 5, 12))
        segs = [seg("v", i, i + 1, rng.standard_normal(3)) for i in range(12)]
        sim = segment_similarity_matrix(segs)
        for k in (2, 5, 9):
            shared = average_linkage(sim, k)
            fresh = cluster_segments(segs, k)
            assert np.array_equal(shared.assignment, fresh.assignment)
            assert modified_purity(shared, segs, {"v": truth}) == modified_purity(
                fresh, segs, {"v": truth}
            )

    def test_constant_features_determinate(self):
        space = object_space()
        truth = StateSequence(space, np.array([1, 1, 2, 2]))
        segs = [seg("v", i, i + 1, [1.0, 1.0]) for i in range(4)]
        a = modified_purity(cluster_segments(segs, 2), segs, {"v": truth})
        b = modified_purity(cluster_segments(segs, 2), segs, {"v": truth})
        assert a == b
