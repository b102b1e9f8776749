"""Hyperparameter selection by cross-validation split by video.

Every (C, d, lambda) cell of the grid is scored by the pooled per-frame
accuracy of the full model (state classifier, change candidates, segment
DP) on held-out videos, averaged over folds. The classifiers of every fold
are trained together: in the one solve for the state models, and the one
per d for the change models, a fold's columns give the rows of its own
videos a sign of 0, which leaves them out of its problem. These solves
take turns in one float64 matrix, one row per training frame: the state
stack fills it, and each d's change set, which is shorter, its leading
rows. It is dropped before the first fold is evaluated. `cross_validate`
returns the documents `cv` writes: chosen.json's dict and table.csv's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .change import change_training_set, check_d, detect_candidates
from .classify import TrainConfig, score_stream, train_binary_grid, train_grid
from .core import FeatureStream, StateSequence
from .inference import check_lam, decode_stream


@dataclass(frozen=True)
class CrossValPlan:
    """The folds and the (C, d, lambda) grid that cross-validation searches."""

    folds: int = 5
    c_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0)
    d_grid: tuple[int, ...] = (3, 6, 9, 12)
    lambda_grid: tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0)

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        # each value by the check of the stage that uses it
        for name, grid, check in (("C", self.c_grid, lambda c: TrainConfig(c_reg=c)),
                                  ("d", self.d_grid, check_d),
                                  ("lambda", self.lambda_grid, check_lam)):
            if not grid:
                raise ValueError(f"{name} grid is empty")
            for value in grid:
                try:
                    check(value)
                except ValueError as e:
                    raise ValueError(f"{name} grid value {value!r}: {e}") from None
        # sorted grids make the tie-break numeric: smaller C, then d, then lambda;
        # float C and lambda write the same chosen.json for 1 (a JSON config) and 1.0
        object.__setattr__(self, "c_grid", tuple(sorted(set(map(float, self.c_grid)))))
        object.__setattr__(self, "d_grid", tuple(sorted(set(self.d_grid))))
        object.__setattr__(self, "lambda_grid", tuple(sorted(set(map(float, self.lambda_grid)))))


class CVResult(NamedTuple):
    """The documents `cv` writes: the chosen.json dict (C, d, lambda) and
    table.csv's (C, d, lambda, mean_accuracy) rows, one per cell in grid order."""

    chosen: dict
    table: tuple[tuple[float, int, float, float], ...]


def cross_validate(
    videos: Sequence[tuple[FeatureStream, StateSequence]],
    plan: CrossValPlan = CrossValPlan(),
    epochs: int = TrainConfig.epochs,
) -> CVResult:
    """Grid-search (C, d, lambda) by mean cross-validated full-model accuracy.

    Videos are assigned to folds whole (split by video, never by frame) in
    sorted id order; ids must be unique. Every grid cell trains the state
    and change models on the training folds for `epochs` solver epochs,
    decodes the held-out videos, and scores per-frame accuracy pooled
    within each fold. Ties go to the smaller C, then d, then lambda.

    The rows of every video are stacked once, and each row is keyed by its
    video's fold. The state models of every fold and C come from one solver
    run, and the change models of every fold and C from one run per d; each
    d's change set is written over the leading rows of the state stack, so
    training allocates one matrix.
    """
    if len(videos) < plan.folds:
        raise ValueError(
            f"cross-validation needs at least {plan.folds} training videos; "
            "pass explicit hyperparameters (C, d, lambda) instead"
        )
    videos = sorted(videos, key=lambda pair: pair[0].video_id)
    ids = [s.video_id for s, _ in videos]
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"video id {a!r} is listed more than once")
    streams, truths = [s for s, _ in videos], [t for _, t in videos]
    video_folds = np.arange(len(videos)) % plan.folds
    folds = [videos[i :: plan.folds] for i in range(plan.folds)]

    frame_folds = np.repeat(video_folds, [s.n_frames for s in streams])
    # every training set fits in the leading rows of the state stack's matrix
    matrix = np.empty((frame_folds.size, streams[0].dim))
    state_models = train_grid(streams, truths, frame_folds, plan.folds, plan.c_grid, epochs,
                              out=matrix)
    change_models = []  # [d][fold][C]
    for d in plan.d_grid:
        x, y, rows = change_training_set(streams, truths, d, out=matrix)
        row_folds = np.repeat(video_folds, rows)
        if any(np.all(row_folds == f) for f in range(plan.folds)):
            raise ValueError("no video is long enough for the requested d")
        change_models.append(train_binary_grid(x, y, d, row_folds, plan.folds, plan.c_grid, epochs))
        del x, y  # the next d's labels are built without these alive
    del matrix  # the folds are evaluated without it

    # accumulate per-(c, d, lam) fold accuracies; state models are shared
    # across d and lam, change models and decoding problems across lam
    cells: dict[tuple[float, int, float], list[float]] = {
        key: [] for key in product(plan.c_grid, plan.d_grid, plan.lambda_grid)
    }
    for f, fold in enumerate(folds):
        total = sum(len(t) for _, t in fold)
        unaries = [[score_stream(m, s) for s, _ in fold] for m in state_models[f]]
        for d, d_models in zip(plan.d_grid, change_models):
            for c, change_model, c_unaries in zip(plan.c_grid, d_models[f], unaries):
                correct = np.zeros(len(plan.lambda_grid), dtype=np.int64)
                for (stream, truth), unary in zip(fold, c_unaries):
                    cands, _ = detect_candidates(stream, change_model)
                    decoded = decode_stream(stream, unary, cands, plan.lambda_grid)
                    correct += [int(np.sum(states == truth.states)) for states in decoded]
                for lam, n_correct in zip(plan.lambda_grid, correct):
                    cells[(c, d, lam)].append(int(n_correct) / total)

    table = tuple((*key, float(np.mean(accs))) for key, accs in cells.items())
    c_reg, d, lam, _ = max(table, key=lambda row: row[3])  # the first, so the smallest cell
    return CVResult({"C": c_reg, "d": d, "lambda": lam}, table)
