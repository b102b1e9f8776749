"""Joint state decoding over change candidates.

The sequence score is the sum of per-frame unary confidences plus a
weighted sum of boundary terms: between consecutive frames the state may
only change across a candidate boundary, where changing costs minus the
cosine similarity of the adjacent segment mean features and staying earns
it. Off-candidate changes score minus infinity.

A candidate at frame c marks the boundary between frames c-1 and c (the
new state starts at c), so candidates split the stream into segments
[0, c_1), [c_1, c_2), ..., [c_m, N). States are constant inside segments,
which makes an exact dynamic program over segments x states possible.

Candidates come in as one int64 array of frame indices, checked here, and
each decoded path goes out as one int64 array of state indices 0..K-1. The
DP knows no label names: the CLI's `infer` attaches its state model's label
space where it writes a path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import FeatureStream, all_finite, segment_means, unit_rows


def segment_bounds(n_frames: int, cand: np.ndarray) -> np.ndarray:
    """Segment boundaries [0, c_1, ..., c_m, N]."""
    return np.concatenate([[0], cand, [n_frames]])


def segment_features(stream: FeatureStream, candidates: np.ndarray) -> np.ndarray:
    """Mean feature vector of every inter-candidate segment, one row for
    each of the |C|+1 segments."""
    cand = np.asarray(candidates, dtype=np.int64)
    _check_candidates(cand, stream.n_frames)
    return segment_means(stream.values, segment_bounds(stream.n_frames, cand)[:-1])


def _check_candidates(cand: np.ndarray, n: int) -> None:
    if cand.size == 0:
        return
    if np.any(np.diff(cand) <= 0):
        raise ValueError("candidates must be strictly increasing")
    if cand[0] < 1 or cand[-1] > n - 1:
        raise ValueError(
            "candidates must lie in [1, N-1]; a candidate at 0 would mark a "
            "change into the first frame and an empty segment"
        )


@dataclass(frozen=True)
class InferenceProblem:
    """Inputs of one decoding run.

    unary: (N, K) per-frame state confidences.
    candidates: the frame indices where a state change is permitted.
    segment_features: (|C|+1, D) mean features of the inter-candidate
        segments, one row per segment.
    boundary_similarities: cosine similarity of the segment features on
        either side of each candidate.
    """

    unary: np.ndarray
    candidates: np.ndarray
    segment_features: "np.ndarray | Sequence[np.ndarray]"
    boundary_similarities: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        unary = np.asarray(self.unary, dtype=np.float64)
        if unary.ndim != 2 or unary.shape[1] < 1:
            raise ValueError("unary must be a (N, K) matrix with K >= 1")
        if not all_finite(unary):
            raise ValueError("unary scores must be finite")
        cand = np.asarray(self.candidates, dtype=np.int64)
        _check_candidates(cand, unary.shape[0])
        feats = np.asarray(self.segment_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != cand.size + 1:
            raise ValueError(
                f"expected {cand.size + 1} segment features as rows of a matrix, "
                f"got shape {feats.shape}"
            )
        if not all_finite(feats):
            raise ValueError("segment features must be finite")
        u = unit_rows(feats)
        sims = np.clip(np.sum(u[:-1] * u[1:], axis=1), -1.0, 1.0)
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "candidates", cand)
        object.__setattr__(self, "segment_features", feats)
        object.__setattr__(self, "boundary_similarities", sims)

    @property
    def n_frames(self) -> int:
        return self.unary.shape[0]

    @property
    def num_states(self) -> int:
        return self.unary.shape[1]


def check_lam(lam: float) -> None:
    if not 0 <= lam < math.inf:  # also false for NaN
        raise ValueError(f"lam must be finite and >= 0, got {lam}")


def decode(problem: InferenceProblem, lams: Sequence[float]) -> list[np.ndarray]:
    """Exact maximization of the sequence score at every boundary weight in
    lams, by one segment-level DP pass over all of them: one int64 array of
    per-frame state indices for each weight.

    The suffix values of all L weights form one (L, K) array, so the DP loop
    over the |C|+1 segments runs once: O(|C| L K^2). Back-tracking then
    follows one pointer per segment and weight. Among equal-scoring optima
    the result is the lexicographically smallest state sequence from the
    first segment on (so ties prefer the lower state index).
    """
    for lam in lams:
        check_lam(lam)
    weights = np.asarray(lams, dtype=np.float64)
    n, k = problem.n_frames, problem.num_states
    cand = problem.candidates
    bounds = segment_bounds(n, cand)
    useg = np.add.reduceat(problem.unary, bounds[:-1], axis=0)  # (m+1, K)
    sims = problem.boundary_similarities
    stay = np.multiply.outer(sims, weights)[:, :, None]  # (m, L, 1): lam*sim
    switch = np.multiply.outer(sims, -weights)[:, :, None, None]  # (m, L, 1, 1): -lam*sim
    m = cand.size

    # value[l, k] = best score of segments g.. with segment g in state k at weight l;
    # nxt[g, l, k] = the state of segment g+1 that attains it (first max: lowest state).
    # scores[l, k, j] = value[l, j] + (lam*sim if k == j else -lam*sim), filled in place
    value = np.tile(useg[m], (weights.size, 1))
    value_rows = value[:, None, :]
    best = np.empty_like(value)
    nxt = np.empty((m, weights.size, k), dtype=np.int64)
    scores = np.empty((weights.size, k, k))
    diagonal = scores.reshape(weights.size, k * k)[:, :: k + 1]
    for g in range(m - 1, -1, -1):
        np.add(value_rows, switch[g], out=scores)
        np.add(value, stay[g], out=diagonal)
        scores.argmax(axis=2, out=nxt[g])
        np.maximum.reduce(scores, axis=2, out=best)
        np.add(useg[g], best, out=value)

    seg_states = np.empty((weights.size, m + 1), dtype=np.int64)
    seg_states[:, 0] = np.argmax(value, axis=1)  # first max: lowest state index
    for row, path in enumerate(seg_states):  # scalar steps beat a fancy index per segment
        state = path[0]
        for g in range(m):
            state = path[g + 1] = nxt[g, row, state]

    return [np.repeat(s, np.diff(bounds)) for s in seg_states]


def decode_stream(
    stream: FeatureStream,
    unary: np.ndarray,
    candidates: np.ndarray,
    lams: Sequence[float],
) -> list[np.ndarray]:
    """Decode one stream at every boundary weight in lams: the segment
    features and the problem are built once, and one DP pass serves every
    lambda."""
    problem = InferenceProblem(unary, candidates, segment_features(stream, candidates))
    return decode(problem, lams)
