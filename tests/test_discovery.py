import numpy as np
import pytest

from handcam.core import Camera, FeatureStream, LabelSpace, StateSequence, Task
from handcam.discovery import (
    Segment,
    active_segments,
    average_linkage,
    cut_history,
    modified_purity,
    segment_similarity_matrix,
)
from conftest import free_active


def object_space():
    labels = ("free", "cup", "kettle") + tuple(f"obj{i:02d}" for i in range(21))
    return LabelSpace(Task.OBJECT_CATEGORY, labels, 0)


def fa_stream(states, dim=2, vid="v"):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((len(states), dim))
    stream = FeatureStream(vid, Camera.RIGHT_HAND, 6.0, values)
    return stream, StateSequence(free_active(), np.asarray(states))


def seg(vid, start, end, feature):
    return Segment(vid, start, end, np.asarray(feature, dtype=np.float64))


def cluster_segments(segs, k):
    return cut_history(average_linkage(segment_similarity_matrix(segs)), k)


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
        seq = StateSequence(free_active(), np.array([0]))
        with pytest.raises(ValueError):
            active_segments(seq, stream)

    def test_decoded_needs_label_space(self):
        # free is named only by the sequence's label space, at any index
        stream, _ = fa_stream([0, 1, 1, 0])
        seq = StateSequence(LabelSpace(Task.FREE_ACTIVE, ("active", "free"), 1),
                            np.array([0, 1, 1, 0]))
        assert [(s.start, s.end) for s in active_segments(seq, stream)] == [(0, 1), (3, 4)]

    @pytest.mark.parametrize("start, end", [(2, 2), (3, 2), (-1, 1)])
    def test_empty_span_rejected(self, start, end):
        # active_segments builds runs, which are never empty
        with pytest.raises(ValueError, match="segment span must be non-empty"):
            seg("v", start, end, [1.0, 0.0])

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
            assert [(g.start, g.end, int(states[g.start])) for g in got] == [w[:3] for w in want]
            for g, w in zip(got, want):
                assert g.video_id == "v"
                assert np.max(np.abs(g.mean_feature - w[3])) <= 1e-12


def per_k_average_linkage(sim, k):
    """Average linkage stopped at k clusters, one run per k (the reference
    the merge history replaced): (assignment, merges)."""
    n = sim.shape[0]
    link = sim.copy()
    size = np.ones(n)
    alive = list(range(n))
    parent = np.arange(n)
    merges = []
    for _ in range(n - k):
        best = None
        for ai, a in enumerate(alive):
            for b in alive[ai + 1 :]:
                key = (link[a, b], -a, -b)  # max sim, then smallest (a, b)
                if best is None or key > best[0]:
                    best = (key, a, b)
        _, a, b = best
        merges.append((a, b))
        for c in alive:
            if c not in (a, b):
                link[a, c] = link[c, a] = (
                    size[a] * link[a, c] + size[b] * link[b, c]
                ) / (size[a] + size[b])
        size[a] += size[b]
        alive.remove(b)
        parent[parent == b] = a
    remap = {cid: i for i, cid in enumerate(sorted(alive))}
    return [remap[parent[i]] for i in range(n)], merges


class TestAverageLinkage:
    def test_k_equals_n_singletons(self):
        segs = [seg("v", i, i + 1, [np.cos(i), np.sin(i)]) for i in range(4)]
        labels = cluster_segments(segs, 4)
        assert isinstance(labels, np.ndarray) and labels.dtype == np.int64
        assert labels.tolist() == [0, 1, 2, 3]
        assert average_linkage(segment_similarity_matrix(segs)).shape == (3, 2)

    def test_identical_features_merge_first(self):
        segs = [
            seg("v", 0, 1, [1.0, 0.0]),
            seg("v", 1, 2, [0.0, 1.0]),
            seg("v", 2, 3, [1.0, 0.0]),  # same direction as segment 0
        ]
        assert average_linkage(segment_similarity_matrix(segs))[0].tolist() == [0, 2]
        a = cluster_segments(segs, 2)
        assert a[0] == a[2] and a[0] != a[1]

    def test_hand_run_three_segments(self):
        # pairwise similarities (a,b)=0.9 (a,c)=0.1 (b,c)=0.2 -> merge (a,b)
        sim = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        a = cut_history(average_linkage(sim), 2)
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
        assert average_linkage(sim)[:2].tolist() == [[0, 1], [2, 3]]

    def test_tie_break_smallest_pair(self):
        sim = np.full((3, 3), 0.5)
        np.fill_diagonal(sim, 1.0)
        assert average_linkage(sim)[0].tolist() == [0, 1]

    def test_merge_count(self):
        rng = np.random.default_rng(1)
        segs = [seg("v", i, i + 1, rng.standard_normal(3)) for i in range(8)]
        assert average_linkage(segment_similarity_matrix(segs)).shape == (7, 2)
        for k in (1, 3, 8):
            assert len(set(cluster_segments(segs, k).tolist())) == k

    def test_k_out_of_range(self):
        segs = [seg("v", 0, 1, [1.0, 0.0])]
        for k in (0, 2):
            with pytest.raises(ValueError):
                cluster_segments(segs, k)

    def test_cut_history_matches_per_k_clustering(self):
        rng = np.random.default_rng(4)
        for trial in range(60):
            n = int(rng.integers(1, 31))
            if trial % 2:
                x = rng.standard_normal((n, 3))
            else:  # few distinct directions: many equal links
                x = rng.integers(-1, 2, (n, 3)).astype(np.float64)
            sim = segment_similarity_matrix([seg("v", i, i + 1, f) for i, f in enumerate(x)])
            if trial % 3 == 0:
                sim = np.round(sim * 2) / 2  # quantized: ties between merged clusters too
            history = average_linkage(sim)
            for k in range(1, n + 1):
                assignment, merges = per_k_average_linkage(sim, k)
                assert cut_history(history, k).tolist() == assignment
                assert [tuple(m) for m in history[: n - k].tolist()] == merges


def masked_average_linkage(similarity):
    """`average_linkage` as it was with an open-pair mask and a masked copy
    of the links at every merge (the reference its -inf marking replaced)."""
    link = np.array(similarity, dtype=np.float64)
    n = link.shape[0]
    if link.shape != (n, n) or n == 0:
        raise ValueError("similarity must be a non-empty square matrix")
    size = np.ones(n)
    open_pair = np.triu(np.ones((n, n), dtype=bool), 1)  # a < b, both alive
    merges = np.empty((n - 1, 2), dtype=np.int64)
    for step in range(n - 1):
        # the row-major first maximum is the smallest (a, b) among equal links
        flat = np.argmax(np.where(open_pair, link, -np.inf))
        a, b = merges[step] = divmod(flat, n)
        # Lance-Williams update for average linkage
        link[a] = link[:, a] = (size[a] * link[a] + size[b] * link[b]) / (size[a] + size[b])
        size[a] += size[b]
        open_pair[b] = open_pair[:, b] = False
    return merges


def symmetric(upper):
    """The symmetric matrix with upper's upper triangle and diagonal."""
    upper = np.triu(upper)
    return upper + np.triu(upper, 1).T


class TestLinkageMatchesMaskedReference:
    SIZES = (1, 2, 3, 5, 17, 64, 150, 400)

    def test_random_cosine(self):
        rng = np.random.default_rng(11)
        for n in self.SIZES:
            x = rng.standard_normal((n, 16))
            sim = segment_similarity_matrix([seg("v", i, i + 1, f) for i, f in enumerate(x)])
            assert np.array_equal(average_linkage(sim), masked_average_linkage(sim))

    def test_random_symmetric(self):
        rng = np.random.default_rng(12)
        for n in self.SIZES:
            sim = symmetric(rng.uniform(-3.0, 3.0, (n, n)))
            assert np.array_equal(average_linkage(sim), masked_average_linkage(sim))

    def test_tie_heavy_quantized(self):
        rng = np.random.default_rng(13)
        for n in self.SIZES:
            for levels in (1, 2, 5):
                sim = symmetric(rng.integers(0, levels, (n, n)) / 4)
                assert np.array_equal(average_linkage(sim), masked_average_linkage(sim))
            x = rng.integers(-1, 2, (n, 3)).astype(np.float64)
            sim = segment_similarity_matrix([seg("v", i, i + 1, f) for i, f in enumerate(x)])
            sim = np.round(sim * 2) / 2
            assert np.array_equal(average_linkage(sim), masked_average_linkage(sim))

    def test_memory_holds_one_matrix(self, traced_peak):
        n = 600
        x = np.random.default_rng(15).standard_normal((n, 64))
        sim = segment_similarity_matrix([seg("v", i, i + 1, f) for i, f in enumerate(x)])
        peak, merges = traced_peak(average_linkage, sim)
        assert merges.shape == (n - 1, 2)
        assert peak <= 1.25 * sim.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        sim = np.eye(3)
        sim[0, 2] = sim[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            average_linkage(sim)
        sim = np.eye(3)
        sim[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            average_linkage(sim)

    @pytest.mark.parametrize("sim", [np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)])
    def test_rejects_empty_or_not_square(self, sim):
        # `discover` rejects a k range above zero segments before it links
        with pytest.raises(ValueError, match="non-empty square matrix"):
            average_linkage(sim)

    def test_rejects_asymmetric(self):
        sim = np.eye(3)
        sim[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            average_linkage(sim)
        sim[1, 0] = np.nextafter(0.5, 1.0)
        with pytest.raises(ValueError, match="symmetric"):
            average_linkage(sim)


def purity_fixture():
    """Six 1-frame segments over one video; truth spells the hand example:
    cluster 0 frames {cup, cup, free}, cluster 1 frames {free, free, kettle}."""
    space = object_space()
    cup, kettle = space.labels.index("cup"), space.labels.index("kettle")
    truth = StateSequence(space, np.array([cup, cup, 0, 0, 0, kettle]))
    segs = [seg("v", i, i + 1, [1.0, 0.0]) for i in range(6)]
    labels = np.array([0, 0, 0, 1, 1, 1])
    return labels, segs, {"v": truth}, space


class TestModifiedPurity:
    def test_hand_example_two_thirds(self):
        labels, segs, truths, _ = purity_fixture()
        purity = modified_purity(labels, segs, truths)
        assert abs(purity - 2.0 / 3.0) < 1e-12

    def test_perfect_clustering(self):
        space = object_space()
        cup, kettle = space.labels.index("cup"), space.labels.index("kettle")
        truth = StateSequence(space, np.array([cup, cup, kettle, kettle]))
        segs = [seg("v", i, i + 1, [1.0, 0.0]) for i in range(4)]
        labels = np.array([0, 0, 1, 1])
        assert modified_purity(labels, segs, {"v": truth}) == 1.0

    def test_free_dominated_cluster_scores_zero(self):
        space = object_space()
        cup = space.labels.index("cup")
        truth = StateSequence(space, np.array([0, 0, cup]))
        segs = [seg("v", i, i + 1, [1.0, 0.0]) for i in range(3)]
        labels = np.array([0, 0, 0])
        assert modified_purity(labels, segs, {"v": truth}) == 0.0

    def test_missed_active_frames_penalized(self):
        # one active frame not covered by any segment still counts in the denominator
        space = object_space()
        cup = space.labels.index("cup")
        truth = StateSequence(space, np.array([cup, cup, cup, 0]))
        segs = [seg("v", 0, 2, [1.0, 0.0])]
        labels = np.array([0])
        assert abs(modified_purity(labels, segs, {"v": truth}) - 2.0 / 3.0) < 1e-12

    def test_no_active_frames_undefined(self):
        space = object_space()
        truth = StateSequence(space, np.zeros(4, dtype=int))
        segs = [seg("v", 0, 1, [1.0, 0.0])]
        labels = np.array([0])
        with pytest.raises(ValueError, match="metric undefined"):
            modified_purity(labels, segs, {"v": truth})

    def test_unusable_inputs_rejected(self):
        # none of these reaches `discover`: it reads one object space, and a
        # truth of the length of each stream that has segments
        labels, segs, truths, space = purity_fixture()
        with pytest.raises(ValueError, match="labels do not match the segment list"):
            modified_purity(labels[:-1], segs, truths)
        with pytest.raises(ValueError, match="ground truth is empty"):
            modified_purity(labels, segs, {})
        other = StateSequence(free_active(), np.array([0, 1]))
        with pytest.raises(ValueError, match="share one label space"):
            modified_purity(labels, segs, {**truths, "w": other})
        for uncovered in ({"w": truths["v"]}, {"v": StateSequence(space, truths["v"].states[:5])}):
            with pytest.raises(ValueError, match="ground truth does not cover segment of v"):
                modified_purity(labels, segs, uncovered)

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
            p = modified_purity(assignment, segs, {"v": truth})
            assert 0.0 <= p <= 1.0

    def test_matches_per_cluster_loop(self):
        def per_cluster_purity(labels, segments, truths):
            # the per-cluster member scan modified_purity replaced
            space = next(iter(truths.values())).label_space
            free = space.free_label_index
            true_active = sum(int(np.sum(t.states != free)) for t in truths.values())
            discovered = 0
            for cluster in np.unique(labels):
                counts = np.zeros(space.num_labels, dtype=np.int64)
                for si in np.nonzero(labels == cluster)[0]:
                    seg = segments[si]
                    states = truths[seg.video_id].states[seg.start : seg.end]
                    counts += np.bincount(states, minlength=space.num_labels)
                dominant = int(np.argmax(counts))
                if dominant != free and counts[dominant] > 0:
                    discovered += int(counts[dominant])
            return discovered / true_active

        rng = np.random.default_rng(7)
        space = object_space()
        for _ in range(300):
            truths = {
                vid: StateSequence(space, rng.integers(0, 4, 20) * rng.integers(0, 2, 20))
                for vid in ("a", "b")
            }
            if not any(np.any(t.states != 0) for t in truths.values()):
                continue
            segs = []
            for vid in truths:
                cuts = np.sort(rng.choice(np.arange(1, 20), 4, replace=False)).tolist()
                segs += [seg(vid, a, b, [1.0]) for a, b in zip([0, *cuts], [*cuts, 20])]
            k = int(rng.integers(1, len(segs) + 1))
            assignment = np.concatenate([np.arange(k), rng.integers(0, k, len(segs) - k)])
            labels = rng.permutation(assignment)
            assert modified_purity(labels, segs, truths) == per_cluster_purity(
                labels, segs, truths
            )

    def test_relabeling_invariance(self):
        labels, segs, truths, _ = purity_fixture()
        swapped = 1 - labels
        assert modified_purity(labels, segs, truths) == modified_purity(
            swapped, segs, truths
        )


class TestPurityCurve:
    """Purity over k from one similarity matrix, as `discover` computes it."""

    def test_k_equals_n_pure_segments(self):
        space = object_space()
        cup, kettle = space.labels.index("cup"), space.labels.index("kettle")
        truth = StateSequence(space, np.array([cup, kettle, cup]))
        segs = [seg("v", i, i + 1, [float(i), 1.0]) for i in range(3)]
        assert modified_purity(cluster_segments(segs, 3), segs, {"v": truth}) == 1.0

    def test_matches_fresh_clustering(self):
        # one history cut at each k, and the matrix it was built from is unchanged
        rng = np.random.default_rng(3)
        space = object_space()
        truth = StateSequence(space, rng.integers(1, 5, 12))
        segs = [seg("v", i, i + 1, rng.standard_normal(3)) for i in range(12)]
        sim = segment_similarity_matrix(segs)
        history = average_linkage(sim)
        assert np.array_equal(sim, segment_similarity_matrix(segs))
        for k in (2, 5, 9):
            shared = cut_history(history, k)
            fresh = cluster_segments(segs, k)
            assert np.array_equal(shared, fresh)
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
