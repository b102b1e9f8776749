"""Object-category discovery by clustering predicted active segments.

Decoded free/active sequences are split into maximal active runs; each run
carries the mean feature of its frames. Segments (usually pooled across the
test videos) are grouped by agglomerative average-linkage clustering on
cosine similarity and scored with a purity variant that only credits
clusters whose dominant ground-truth label is a real object, normalized by
the number of truly active frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import FeatureStream, StateSequence, run_starts, segment_means, unit_rows


@dataclass(frozen=True)
class Segment:
    """Maximal run of one predicted non-free state in one video."""

    video_id: str
    start: int
    end: int  # half-open
    state: int
    mean_feature: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("segment span must be non-empty")
        mf = np.ascontiguousarray(np.asarray(self.mean_feature, dtype=np.float64))
        mf.setflags(write=False)
        object.__setattr__(self, "mean_feature", mf)

    @property
    def n_frames(self) -> int:
        return self.end - self.start


def active_segments(decoded: StateSequence, stream: FeatureStream) -> list[Segment]:
    """Maximal runs of the active (non-free) state with their mean features."""
    if decoded.label_space is None:
        raise ValueError("decoded sequence needs a label space to identify 'free'")
    if len(decoded) != stream.n_frames:
        raise ValueError("sequence and stream lengths differ")
    s = decoded.states
    starts = run_starts(s)
    ends = np.append(starts[1:], s.size)
    active = s[starts] != decoded.label_space.free_label_index
    means = segment_means(stream.values, starts)[active]
    return [
        Segment(stream.video_id, int(a), int(b), int(s[a]), mean)
        for a, b, mean in zip(starts[active], ends[active], means)
    ]


@dataclass(frozen=True)
class Clustering:
    """Flat clustering of segments plus the merge order that produced it."""

    k: int
    assignment: np.ndarray  # cluster id in [0, k) per segment
    merges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=np.int64)
        if len(np.unique(a)) != self.k:
            raise ValueError("assignment must use exactly k non-empty clusters")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(self.assignment == cluster)[0]


def average_linkage(similarity: np.ndarray, k: int) -> Clustering:
    """Agglomerative clustering on a similarity matrix, average linkage.

    Repeatedly merges the pair of clusters with the highest mean pairwise
    member similarity until k clusters remain; equal link scores merge the
    lexicographically smallest (id, id) pair. A merged cluster keeps the
    smaller id. Final ids are compacted to 0..k-1 in id order.
    """
    sim = np.asarray(similarity, dtype=np.float64)
    n = sim.shape[0]
    if sim.shape != (n, n):
        raise ValueError("similarity must be square")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
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
        # Lance-Williams update for average linkage
        for c in alive:
            if c not in (a, b):
                link[a, c] = link[c, a] = (
                    size[a] * link[a, c] + size[b] * link[b, c]
                ) / (size[a] + size[b])
        size[a] += size[b]
        alive.remove(b)
        parent[parent == b] = a
    remap = {cid: i for i, cid in enumerate(sorted(alive))}
    assignment = np.array([remap[parent[i]] for i in range(n)], dtype=np.int64)
    return Clustering(k, assignment, tuple(merges))


def segment_similarity_matrix(segments: Sequence[Segment]) -> np.ndarray:
    """Pairwise cosine similarity of the segments' mean features."""
    u = unit_rows(np.array([seg.mean_feature for seg in segments]))
    return np.clip(u @ u.T, -1.0, 1.0)


def modified_purity(
    clustering: Clustering,
    segments: Sequence[Segment],
    truths: Mapping[str, StateSequence],
) -> float:
    """Purity over truly active frames, crediting only object-dominated clusters.

    Per cluster, the dominant ground-truth label over member frames is
    found (ties to the lower label index); if it is not the free label, the
    member frames carrying that label count as discovered. The total is
    divided by the number of ground-truth active frames in the evaluated
    videos, so active frames missed by segmentation still count against it.
    """
    if len(segments) != clustering.assignment.shape[0]:
        raise ValueError("clustering does not match the segment list")
    if not truths:
        raise ValueError("ground truth is empty")
    if len({t.label_space for t in truths.values()}) != 1:
        raise ValueError("all ground-truth sequences must share one label space")
    space = next(iter(truths.values())).label_space
    if space is None:
        raise ValueError("ground truth needs a label space")
    free = space.free_label_index

    true_active = sum(int(np.sum(t.states != free)) for t in truths.values())
    if true_active == 0:
        raise ValueError("metric undefined: no true active frames")

    discovered = 0
    for cluster in range(clustering.k):
        counts = np.zeros(space.num_labels, dtype=np.int64)
        for si in clustering.members(cluster):
            seg = segments[si]
            truth = truths.get(seg.video_id)
            if truth is None or seg.end > len(truth):
                raise ValueError(f"ground truth does not cover segment of {seg.video_id}")
            counts += np.bincount(
                truth.states[seg.start : seg.end], minlength=space.num_labels
            )
        dominant = int(np.argmax(counts))  # ties: lower label index
        if dominant != free and counts[dominant] > 0:
            discovered += int(counts[dominant])
    return discovered / true_active
