"""Hyperparameter selection by cross-validation split by video.

Every (C, d, lambda) cell of the grid is scored by the pooled per-frame
accuracy of the full model (state classifier, change candidates, segment
DP) on held-out videos, averaged over folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .change import detect_candidates, train_change_model
from .classify import TrainConfig, score_stream, train
from .core import FeatureStream, StateSequence
from .inference import decode_stream


@dataclass(frozen=True)
class CrossValPlan:
    folds: int = 5
    c_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0)
    d_grid: tuple[int, ...] = (3, 6, 9, 12)
    lambda_grid: tuple[float, ...] = (0.1, 0.3, 1.0, 3.0, 10.0)

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not (self.c_grid and self.d_grid and self.lambda_grid):
            raise ValueError("grids must be non-empty")
        # sorted grids make the tie-break numeric: smaller C, then d, then lambda
        object.__setattr__(self, "c_grid", tuple(sorted(set(self.c_grid))))
        object.__setattr__(self, "d_grid", tuple(sorted(set(self.d_grid))))
        object.__setattr__(self, "lambda_grid", tuple(sorted(set(self.lambda_grid))))


@dataclass(frozen=True)
class CVCell:
    c_reg: float
    d: int
    lam: float
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


@dataclass(frozen=True)
class CVResult:
    c_reg: float
    d: int
    lam: float
    table: tuple[CVCell, ...]


def cross_validate(
    videos: Sequence[tuple[FeatureStream, StateSequence]],
    plan: CrossValPlan = CrossValPlan(),
    base_config: TrainConfig = TrainConfig(),
) -> CVResult:
    """Grid-search (C, d, lambda) by mean cross-validated full-model accuracy.

    Videos are assigned to folds whole (split by video, never by frame) in
    sorted id order. Every grid cell trains the state and change models on
    the training folds, decodes the held-out videos, and scores per-frame
    accuracy pooled within each fold. Ties go to the smaller C, then d,
    then lambda.
    """
    if len(videos) < plan.folds:
        raise ValueError(
            f"cross-validation needs at least {plan.folds} training videos; "
            "pass explicit hyperparameters (C, d, lambda) instead"
        )
    videos = sorted(videos, key=lambda pair: pair[0].video_id)
    folds = [videos[i :: plan.folds] for i in range(plan.folds)]

    # accumulate per-(c, d, lam) fold accuracies; state models are shared
    # across d and lam, change models and decoding problems across lam
    cells: dict[tuple[float, int, float], list[float]] = {
        key: [] for key in product(plan.c_grid, plan.d_grid, plan.lambda_grid)
    }
    for fold in folds:
        val_ids = {s.video_id for s, _ in fold}
        train_streams = [s for s, _ in videos if s.video_id not in val_ids]
        train_truths = [t for s, t in videos if s.video_id not in val_ids]
        total = sum(len(t) for _, t in fold)
        for c in plan.c_grid:
            cfg = TrainConfig(c_reg=c, epochs=base_config.epochs)
            state_model = train(train_streams, train_truths, cfg)
            unaries = [score_stream(state_model, s) for s, _ in fold]
            for d in plan.d_grid:
                change_model = train_change_model(train_streams, train_truths, d, cfg)
                correct = np.zeros(len(plan.lambda_grid), dtype=np.int64)
                for (stream, truth), unary in zip(fold, unaries):
                    cands = detect_candidates(stream, change_model, d)
                    decoded = decode_stream(
                        stream, unary, cands, plan.lambda_grid, label_space=truth.label_space
                    )
                    correct += [int(np.sum(seq.states == truth.states)) for seq in decoded]
                for lam, n_correct in zip(plan.lambda_grid, correct):
                    cells[(c, d, lam)].append(int(n_correct) / total)

    table = []
    best_key = None
    best_acc = -1.0
    for key in product(plan.c_grid, plan.d_grid, plan.lambda_grid):
        accs = cells[key]
        mean_acc = float(np.mean(accs))
        table.append(CVCell(key[0], key[1], key[2], mean_acc, tuple(accs)))
        if mean_acc > best_acc:
            best_acc = mean_acc
            best_key = key
    return CVResult(best_key[0], best_key[1], best_key[2], tuple(table))
