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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import FeatureStream, LabelSpace, StateSequence, run_starts, segment_means, unit_rows
from .change import CandidateSet

NEG_INF = float("-inf")


def _candidate_indices(candidates: "CandidateSet | Sequence[int] | np.ndarray") -> np.ndarray:
    if isinstance(candidates, CandidateSet):
        return candidates.frame_indices.astype(np.int64)
    return np.asarray(candidates, dtype=np.int64)


def segment_bounds(n_frames: int, cand: np.ndarray) -> np.ndarray:
    """Segment boundaries [0, c_1, ..., c_m, N]."""
    return np.concatenate([[0], cand, [n_frames]])


def segment_features(
    stream: "FeatureStream | np.ndarray",
    candidates: "CandidateSet | Sequence[int] | np.ndarray",
) -> np.ndarray:
    """Mean feature vector of every inter-candidate segment, one row for
    each of the |C|+1 segments."""
    values = stream.values if isinstance(stream, FeatureStream) else np.asarray(stream, dtype=np.float64)
    cand = _candidate_indices(candidates)
    _check_candidates(cand, values.shape[0])
    return segment_means(values, segment_bounds(values.shape[0], cand)[:-1])


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
    candidates: frames where a state change is permitted.
    segment_features: (|C|+1, D) mean features of the inter-candidate
        segments, one row per segment.
    label_space: attached to decoded sequences when available.
    boundary_similarities: cosine similarity of the segment features on
        either side of each candidate.
    """

    unary: np.ndarray
    candidates: "CandidateSet | Sequence[int] | np.ndarray"
    segment_features: "np.ndarray | Sequence[np.ndarray]"
    label_space: LabelSpace | None = None
    boundary_similarities: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        unary = np.asarray(self.unary, dtype=np.float64)
        if unary.ndim != 2 or unary.shape[1] < 1:
            raise ValueError("unary must be a (N, K) matrix with K >= 1")
        if not np.all(np.isfinite(unary)):
            raise ValueError("unary scores must be finite")
        if self.label_space is not None and self.label_space.num_labels != unary.shape[1]:
            raise ValueError("unary width does not match the label space")
        cand = _candidate_indices(self.candidates)
        _check_candidates(cand, unary.shape[0])
        feats = np.asarray(self.segment_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != cand.size + 1:
            raise ValueError(
                f"expected {cand.size + 1} segment features as rows of a matrix, "
                f"got shape {feats.shape}"
            )
        if not np.all(np.isfinite(feats)):
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


def _check_lam(lam: float) -> None:
    if lam < 0:
        raise ValueError("lam must be >= 0")


def decode(problem: InferenceProblem, lam: float) -> StateSequence:
    """Exact maximization of the sequence score at boundary weight lam by
    segment-level DP.

    Complexity O(|C| K^2). Among equal-scoring optima the result is the
    lexicographically smallest state sequence from the first segment on
    (so ties prefer the lower state index).
    """
    _check_lam(lam)
    n, k = problem.n_frames, problem.num_states
    cand = problem.candidates
    bounds = segment_bounds(n, cand)
    useg = np.add.reduceat(problem.unary, bounds[:-1], axis=0)  # (m+1, K)
    sims = problem.boundary_similarities
    m = cand.size

    # suffix values: value[g][k] = best score of segments g.. with segment g in state k
    value = np.empty((m + 1, k))
    value[m] = useg[m]
    for g in range(m - 1, -1, -1):
        boundary = np.full((k, k), -lam * sims[g])
        np.fill_diagonal(boundary, lam * sims[g])
        value[g] = useg[g] + np.max(boundary + value[g + 1][None, :], axis=1)

    seg_states = np.empty(m + 1, dtype=np.int64)
    seg_states[0] = int(np.argmax(value[0]))  # first max: lowest state index
    for g in range(m):
        s = seg_states[g]
        row = np.full(k, -lam * sims[g])
        row[s] = lam * sims[g]
        seg_states[g + 1] = int(np.argmax(row + value[g + 1]))

    states = np.repeat(seg_states, np.diff(bounds))
    if problem.label_space is not None:
        return StateSequence(problem.label_space, states)
    return StateSequence(None, states, num_states=k)


def score_sequence(
    problem: InferenceProblem, seq: "StateSequence | np.ndarray", lam: float
) -> float:
    """Score of one state sequence at boundary weight lam; -inf if it changes
    state off-candidate."""
    _check_lam(lam)
    states = seq.states if isinstance(seq, StateSequence) else np.asarray(seq, dtype=np.int64)
    n = problem.n_frames
    if states.shape != (n,):
        raise ValueError(f"sequence length {states.shape} does not match N={n}")
    if states.size and (states.min() < 0 or states.max() >= problem.num_states):
        raise ValueError("state index out of range")
    changes = run_starts(states)[1:]
    cand = problem.candidates
    if not np.isin(changes, cand).all():
        return NEG_INF
    unary_total = float(problem.unary[np.arange(n), states].sum())
    binary_total = 0.0
    for g, c in enumerate(cand):
        sim = float(problem.boundary_similarities[g])
        binary_total += sim if states[c - 1] == states[c] else -sim
    return unary_total + lam * binary_total


def decode_stream(
    stream: FeatureStream,
    unary: np.ndarray,
    candidates: "CandidateSet | Sequence[int] | np.ndarray",
    lams: Sequence[float],
    label_space: LabelSpace | None = None,
) -> list[StateSequence]:
    """Decode one stream at every boundary weight in lams.

    The segment features and the problem depend only on the stream, the
    unaries and the candidates, so they are built once; only the DP runs
    per lambda.
    """
    problem = InferenceProblem(
        unary, candidates, segment_features(stream, candidates), label_space=label_space
    )
    return [decode(problem, lam) for lam in lams]
