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

from .core import (
    FeatureStream, StateSequence, all_finite, frozen_array, run_starts, segment_means, unit_rows,
)


@dataclass(frozen=True)
class Segment:
    """Maximal run of one predicted non-free state in one video."""

    video_id: str
    start: int
    end: int  # half-open
    mean_feature: np.ndarray

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("segment span must be non-empty")
        mf = np.asarray(self.mean_feature, dtype=np.float64)
        object.__setattr__(self, "mean_feature", frozen_array(mf))


def active_segments(decoded: StateSequence, stream: FeatureStream) -> list[Segment]:
    """Maximal runs of the active (non-free) state with their mean features."""
    if len(decoded) != stream.n_frames:
        raise ValueError("sequence and stream lengths differ")
    s = decoded.states
    starts = run_starts(s)
    ends = np.append(starts[1:], s.size)
    active = s[starts] != decoded.label_space.free_label_index
    means = segment_means(stream.values, starts)[active]
    return [
        Segment(stream.video_id, int(a), int(b), mean)
        for a, b, mean in zip(starts[active], ends[active], means)
    ]


def average_linkage(similarity: np.ndarray) -> np.ndarray:
    """Merge history of agglomerative average-linkage clustering: the n-1
    merges in order, as rows (a, b) with a < b.

    Each step merges the pair of clusters with the highest mean pairwise
    member similarity; equal links merge the lexicographically smallest
    (id, id) pair, and the merged cluster keeps the smaller id. The order
    does not depend on where agglomeration stops, so `cut_history` gives
    the clustering at every k from one history.

    similarity must be finite and exactly symmetric, as `u @ u.T` is; in its
    one float64 copy, -inf marks the diagonal and merged-away clusters.
    """
    link = np.array(similarity, dtype=np.float64)
    n = link.shape[0]
    if link.shape != (n, n) or n == 0:
        raise ValueError("similarity must be a non-empty square matrix")
    if not all_finite(link) or not np.array_equal(link, link.T):
        raise ValueError("similarity must be finite and symmetric")
    np.fill_diagonal(link, -np.inf)
    size = np.ones(n)
    merges = np.empty((n - 1, 2), dtype=np.int64)
    for step in range(n - 1):
        # symmetric: the row-major first maximum is the smallest a < b among equal links
        a, b = merges[step] = divmod(np.argmax(link), n)
        # Lance-Williams update for average linkage; -inf links stay -inf
        link[a] = link[:, a] = (size[a] * link[a] + size[b] * link[b]) / (size[a] + size[b])
        size[a] += size[b]
        link[b] = link[:, b] = -np.inf
    return merges


def cut_history(merges: np.ndarray, k: int) -> np.ndarray:
    """The int64 cluster label of each item after the first n-k merges of an
    `average_linkage` history; cluster ids are compacted to 0..k-1 in id order."""
    n = len(merges) + 1
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    parent = np.arange(n)
    for a, b in merges[: n - k]:
        parent[parent == b] = a
    return np.unique(parent, return_inverse=True)[1]


def segment_similarity_matrix(segments: Sequence[Segment]) -> np.ndarray:
    """Pairwise cosine similarity of the segments' mean features."""
    u = unit_rows(np.array([seg.mean_feature for seg in segments]))
    sim = u @ u.T
    return np.clip(sim, -1.0, 1.0, out=sim)


def modified_purity(
    labels: np.ndarray,
    segments: Sequence[Segment],
    truths: Mapping[str, StateSequence],
) -> float:
    """Purity over truly active frames, crediting only object-dominated clusters.

    labels holds each segment's cluster, 0..k-1, as `cut_history` gives it.
    Per cluster, the dominant ground-truth label over member frames is
    found (ties to the lower label index); if it is not the free label, the
    member frames carrying that label count as discovered. The total is
    divided by the number of ground-truth active frames in the evaluated
    videos, so active frames missed by segmentation still count against it.
    """
    if len(segments) != labels.shape[0]:
        raise ValueError("labels do not match the segment list")
    if not truths:
        raise ValueError("ground truth is empty")
    if len({t.label_space for t in truths.values()}) != 1:
        raise ValueError("all ground-truth sequences must share one label space")
    space = next(iter(truths.values())).label_space
    free = space.free_label_index

    true_active = sum(int(np.sum(t.states != free)) for t in truths.values())
    if true_active == 0:
        raise ValueError("metric undefined: no true active frames")

    counts = np.zeros((labels.max() + 1, space.num_labels), dtype=np.int64)
    for seg, cluster in zip(segments, labels):
        truth = truths.get(seg.video_id)
        if truth is None or seg.end > len(truth):
            raise ValueError(f"ground truth does not cover segment of {seg.video_id}")
        counts[cluster] += np.bincount(
            truth.states[seg.start : seg.end], minlength=space.num_labels
        )
    dominant = np.argmax(counts, axis=1)  # ties: lower label index
    return int(counts.max(axis=1)[dominant != free].sum()) / true_active
