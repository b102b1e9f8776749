"""One-vs-rest linear classifiers for state and change confidences.

Training is deterministic full-batch subgradient descent on the
L2-regularized hinge loss

    J_k(w, b) = C_k/2 * ||w_k||^2 + mean_i max(0, 1 - y_ik (w_k x_i + b_k))

with step size 1/(C_k * t) and zero initialization. Each column k of a
solve (one class under one C) has its own C_k. The shrink factor 1 - 1/t
does not depend on C, so one solve trains the models of a whole C grid as
column blocks. A sign of 0 leaves a frame out of that column's problem:
the mean runs over the column's own frames. So one solve also trains every
cross-validation fold, each fold signing its held-out frames 0. The signs
differ only by fold: a solve takes one sign row per fold and class, and
every C of the grid shares it. With two classes, class 1's signs negate
class 0's, and IEEE negation commutes with every solver step, so only
class 0's columns are solved and class 1 is 0 - w, 0 - b. This needs at
least two solved columns: a one-column product takes BLAS's matrix-vector
path, which rounds differently, so a single model (one fold, one C)
solves both classes.
The iterate with the lowest objective is kept per column, so the returned
objective never exceeds the value at initialization.

Training copies its streams one at a time into one float64 matrix, and
scoring upcasts a block of frames at a time; both give back the pages of a
mapped stream as they go (`core.release_pages`). The label checks compare
each fold's smallest and largest label: the hash table of `np.unique`
stays resident after it returns (1.5 MB for five folds of 5,760 labels).

Frames are on BLAS's row side of every product: margins are w @ x.T and
scores W @ x.T, so OpenBLAS packs a block of frames at a time instead of
all of them. A solve's signs are (folds, 1, classes, n), one contiguous
row per fold and class, and its (columns, n) work buffer is viewed as
(folds, |C|, classes, n), so the signs broadcast over C. The hinge term
of sign s is s * (s - margin), 1 - s * margin for s = +-1. The bias
gradient is a row sum of -1, +-0 and +1, integers that add exactly in any
order, and each column's hinge terms, one contiguous row, sum pairwise.
Identical inputs and config give bit-identical models at a fixed BLAS
thread count and build. Confidences are raw margins; the decoding weight
lambda absorbs their scale, so no calibration is applied.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    UPCAST_ROWS, FeatureStream, LabelSpace, StateSequence, Task, all_finite, frozen_array,
    release_pages,
)


@dataclass(frozen=True)
class TrainConfig:
    """Solver settings: the hinge-loss weight C and the number of epochs."""

    c_reg: float = 1.0
    epochs: int = 200

    def __post_init__(self) -> None:
        if not (0 < self.c_reg < math.inf and 1.0 / self.c_reg < math.inf):  # steps are 1/C
            raise ValueError(f"c_reg must be positive, finite and not tiny, got {self.c_reg}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class LinearModel:
    """Linear scorer: one weight row and bias per state.

    The binary change model has a single row, no label space and the
    change-feature half-width d >= 1 it was trained at; no other kind has a
    d. Multiclass models may also run detached from a label space (synthetic
    benchmarks); production models carry one so predictions can be named.
    """

    weights: np.ndarray  # (K, D)
    bias: np.ndarray  # (K,)
    label_space: LabelSpace | None
    config: TrainConfig
    d: int | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("weights must be (K, D) with matching bias")
        if not (all_finite(w) and all_finite(b)):
            raise ValueError("model parameters must be finite")
        if self.label_space is not None and w.shape[0] != self.label_space.num_labels:
            raise ValueError("weight rows must match the label count")
        object.__setattr__(self, "weights", frozen_array(w))
        object.__setattr__(self, "bias", frozen_array(b))
        if self.is_binary != (self.d is not None):
            raise ValueError("only binary change models carry a d, and each needs one")
        if self.is_binary and self.d < 1:
            raise ValueError("d must be >= 1")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @property
    def is_binary(self) -> bool:
        return self.label_space is None and self.weights.shape[0] == 1


def _solve_subgradient(
    x: np.ndarray, signs: np.ndarray, c_regs: np.ndarray, epochs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-objective iterate of subgradient descent, per column. signs is
    (folds, 1, classes, n), one contiguous row of signs per fold and class,
    shared by every C; c_regs is (|C|, 1), one C per row. The columns are
    ordered fold, then C, then class, and the (k, n) work buffer is viewed
    as (folds, |C|, classes, n) wherever the signs enter. The hinge term
    s * (s - margin) is exactly 1 - s * margin for a sign s of +-1; a sign
    of 0 gives +-0, never active, and the mean divides by its fold's count
    of non-zero signs. A -0 term (np.maximum(0.0, -0.0) is -0.0) or active
    sign changes no bit: `greater` reads it as inactive, the product and
    the integer row sums add it like +0, and w and b start at +0 with
    1 - eta * C >= 0, while a sum is -0 only when both addends are."""
    folds, _, classes, rows = signs.shape
    grid = (folds, c_regs.shape[0], classes)
    n = np.count_nonzero(signs, axis=-1).astype(np.float64)  # (folds, 1, classes)
    if not np.all(n):
        raise ValueError("every column needs at least one training row")
    n = np.broadcast_to(n, grid).reshape(-1)
    c_regs = np.broadcast_to(c_regs, grid).reshape(-1)
    k, d = n.size, x.shape[1]
    w = np.zeros((k, d))
    b = np.zeros(k)
    best_w, best_b = w.copy(), b.copy()
    best_obj = np.full(k, np.inf)
    work = np.empty((k, rows))  # margins, then hinge terms, then active signs
    grid_work = work.reshape(*grid, rows)  # a view: the signs broadcast over C
    for t in range(epochs + 1):
        np.matmul(w, x.T, out=work)  # frames on BLAS's row side: x is not packed whole
        work += b[:, None]
        np.subtract(signs, grid_work, out=grid_work)  # s - margin
        grid_work *= signs  # s * (s - margin)
        np.maximum(0.0, work, out=work)
        obj = 0.5 * c_regs * (w * w).sum(axis=1) + work.sum(axis=1) / n
        better = obj < best_obj
        best_w[better] = w[better]
        best_b[better] = b[better]
        best_obj[better] = obj[better]
        if t == epochs:
            break
        np.greater(work, 0.0, out=work)  # s * (s - margin) > 0 exactly where s * margin < 1
        grid_work *= signs
        eta = 1.0 / (c_regs * (t + 1))
        w = (1.0 - eta * c_regs)[:, None] * w + (eta / n)[:, None] * (work @ x)
        b = b + (eta / n) * work.sum(axis=1)  # integer sums of -1, +-0, +1: exact in any order
    return best_w, best_b, best_obj


def _training_input(
    x: np.ndarray, y: np.ndarray, row_folds: np.ndarray | None, folds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked features, labels and the (n, folds) mask of the rows each
    fold holds out; without fold indices, one fold trains on every row."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("expected (n, D) features and (n,) labels")
    if not all_finite(x):
        raise ValueError("training features must be finite")
    if row_folds is None:
        held_out = np.zeros((y.size, 1), dtype=bool)
    else:
        row_folds = np.asarray(row_folds)
        if row_folds.shape != y.shape:
            raise ValueError("expected one fold index per training row")
        held_out = row_folds[:, None] == np.arange(folds)
    for fold_rows_out in held_out.T:
        kept = y[~fold_rows_out]
        if not kept.size or kept.min() == kept.max():
            raise ValueError("training data must contain at least two distinct labels")
    return x, y, held_out


def _fit(
    x: np.ndarray, y: np.ndarray, positives: Sequence[int], held_out: np.ndarray,
    space: LabelSpace | None, c_grid: Sequence[float], epochs: int, d: int | None = None,
) -> list[list[LinearModel]]:
    """Models [fold][C] from one solve. Class j signs +1 the rows labelled
    positives[j] and -1 the others; each fold has one sign row per class,
    which every C shares, and signs its held-out rows 0. The signs come
    straight from the labels, with no (n, classes) one-hot. With two
    classes and two or more (fold, C) cells, only class 0 is solved (see the
    module docstring). Every model records d (None on state models)."""
    configs = [TrainConfig(c, epochs) for c in c_grid]
    folds = held_out.shape[1]
    paired = len(positives) == 2 and folds * len(configs) >= 2
    solved = np.asarray(positives[:1] if paired else positives)
    signs = np.empty((folds, 1, solved.size, y.size))
    np.equal(y, solved[:, None], out=signs)  # 1.0 on the class's rows, else 0.0
    signs *= 2.0
    signs -= 1.0
    np.copyto(signs, 0.0, where=held_out.T[:, None, None, :])
    w, b, _ = _solve_subgradient(x, signs, np.asarray(c_grid, dtype=np.float64)[:, None], epochs)
    w, b = w.reshape(folds, len(configs), solved.size, -1), b.reshape(folds, len(configs), -1)
    if paired:
        # 0 - v, not -v: a zero weight is +0.0 in both columns of the pair
        w, b = np.concatenate([w, 0.0 - w], axis=2), np.concatenate([b, 0.0 - b], axis=2)
    return [[LinearModel(wc, bc, space, cfg, d) for wc, bc, cfg in zip(wf, bf, configs)]
            for wf, bf in zip(w, b)]


def check_videos(streams: Sequence[FeatureStream], truths: Sequence[StateSequence]) -> None:
    """One truth per stream and as long as it, one label space, one width."""
    if len(streams) != len(truths) or not streams:
        raise ValueError("need matching, non-empty streams and truths")
    if any(t.label_space != truths[0].label_space for t in truths) or any(
        t.num_states != truths[0].num_states for t in truths
    ):
        raise ValueError("all truths must share one label space")
    for s, t in zip(streams, truths):
        if s.n_frames != len(t):
            raise ValueError(f"video {s.video_id}: {s.n_frames} frames vs {len(t)} labels")
        if s.dim != streams[0].dim:
            raise ValueError(f"video {s.video_id}: dim {s.dim} != {streams[0].dim}")


def _stacked(
    streams: Sequence[FeatureStream], truths: Sequence[StateSequence],
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    check_videos(streams, truths)
    # one stream at a time, so a mapped stream's pages are given back before the next is read
    n = sum(s.n_frames for s in streams)
    x = np.empty((n, streams[0].dim)) if out is None else out[:n]
    start = 0
    for s in streams:
        x[start : start + s.n_frames] = s.values  # float32 upcasts exactly
        release_pages(s.values)
        start += s.n_frames
    return x, np.concatenate([t.states for t in truths])


def train_grid(
    streams: Sequence[FeatureStream], truths: Sequence[StateSequence],
    row_folds: np.ndarray | None, folds: int, c_grid: Sequence[float], epochs: int,
    out: np.ndarray | None = None,
) -> list[list[LinearModel]]:
    """The multiclass state models of every fold and every C of c_grid, in
    one solver run; all streams must share one dimension.

    row_folds gives the fold that holds out each stacked frame; the models
    of fold f train on every other row (None: one fold, on every row).
    Models are indexed [fold][C]. A StateSequence keeps its states in
    range, and every fold's rows must hold two distinct states, so every
    model has at least two classes. The frames are stacked into the
    leading rows of `out`, a float64 matrix of the streams' width, when it
    is given, and into a new matrix otherwise.
    """
    x, y, held_out = _training_input(*_stacked(streams, truths, out), row_folds, folds)
    classes = range(truths[0].num_states)
    return _fit(x, y, classes, held_out, truths[0].label_space, c_grid, epochs)


def train(
    streams: Sequence[FeatureStream],
    truths: Sequence[StateSequence],
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train the state model on labeled streams: `train_grid`'s one cell."""
    return train_grid(streams, truths, None, 1, [config.c_reg], config.epochs)[0][0]


def train_binary_grid(
    x: np.ndarray, y: np.ndarray, d: int, row_folds: np.ndarray | None, folds: int,
    c_grid: Sequence[float], epochs: int,
) -> list[list[LinearModel]]:
    """`train_binary` for every fold and every C of c_grid, in one solver
    run, indexed [fold][C] as in `train_grid`; every model records d."""
    x, y, held_out = _training_input(x, y, row_folds, folds)
    if y.min() < 0 or y.max() > 1:  # y is not empty: every fold keeps two labels
        raise ValueError("binary labels must be 0 or 1")
    return _fit(x, y, (1,), held_out, None, c_grid, epochs, d)


def train_binary(
    x: np.ndarray, y: np.ndarray, d: int, config: TrainConfig = TrainConfig()
) -> LinearModel:
    """Train the binary change scorer at half-width d, which it records; y holds 0/1 labels."""
    return train_binary_grid(x, y, d, None, 1, [config.c_reg], config.epochs)[0][0]


def score_stream(model: LinearModel, stream: FeatureStream) -> np.ndarray:
    """(N, K) margins of a multiclass state model for every frame of a stream.

    The frames are taken UPCAST_ROWS at a time, the last block taking the
    remainder, so no block is smaller than UPCAST_ROWS frames unless it
    holds them all. Each block is upcast to float64 on its own and
    multiplied into one (K, N) margin array, and a mapped stream's pages
    of the block are given back after it. With K >= 2 these blocks give
    the bits of the whole product; smaller blocks or blocks at other
    offsets may not."""
    if model.num_classes < 2:
        raise ValueError("scoring requires a multiclass state model")
    if stream.dim != model.dim:
        raise ValueError(f"stream dim {stream.dim} does not match model dim {model.dim}")
    n = stream.n_frames
    edges = [i * UPCAST_ROWS for i in range(max(n // UPCAST_ROWS, 1))] + [n]
    margins = np.empty((model.num_classes, n))  # (K, N): frames on BLAS's row side
    # one float64 block alive at a time, the largest (the last) first: the
    # memory freed by a smaller block could not hold a later, larger one
    for lo, hi in reversed(list(zip(edges, edges[1:]))):
        np.matmul(model.weights, np.asarray(stream.values[lo:hi], dtype=np.float64).T,
                  out=margins[:, lo:hi])  # float32 upcasts exactly
        # from lo to the end: a page fault also maps the pages after it, so
        # reading this block maps some of the block released before it again
        release_pages(stream.values[lo:])
    margins += model.bias[:, None]
    return margins.T


def predict_frames(model: LinearModel, stream: FeatureStream) -> np.ndarray:
    """Per-frame argmax of the margins, as int64 state indices; ties go to
    the lower label index."""
    return np.argmax(score_stream(model, stream), axis=1)


# ---------------------------------------------------------------------------
# serialization

_MODEL_MAGIC = b"HCLM"
_MODEL_VERSION = 2  # v1's u64 slot held an unused seed, so its change models had no d


class ModelFileError(ValueError):
    pass


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _kind(model: LinearModel) -> int:
    """0: multiclass with label space, 1: binary change, 2: detached multiclass."""
    return 0 if model.label_space is not None else 1 if model.is_binary else 2


def model_bytes(model: LinearModel) -> bytes:
    out = [_MODEL_MAGIC, struct.pack("<IB", _MODEL_VERSION, _kind(model))]
    cfg = model.config
    out.append(struct.pack("<dIQ", cfg.c_reg, cfg.epochs, model.d or 0))
    if model.label_space is not None:
        space = model.label_space
        out.append(_pack_str(space.task.value))
        out.append(struct.pack("<H", space.num_labels))
        for name in space.labels:
            out.append(_pack_str(name))
        out.append(struct.pack("<H", space.free_label_index))
    out.append(struct.pack("<II", model.num_classes, model.dim))
    out.append(model.weights.astype("<f8").tobytes())
    out.append(model.bias.astype("<f8").tobytes())
    return b"".join(out)


def save_model(model: LinearModel, path: str | Path) -> None:
    Path(path).write_bytes(model_bytes(model))


def load_model(path: str | Path) -> LinearModel:
    data = Path(path).read_bytes()
    if data[:4] != _MODEL_MAGIC:
        raise ModelFileError(f"magic mismatch: {data[:4]!r}")
    pos = 4

    def read(fmt: str) -> tuple:
        nonlocal pos
        values = struct.unpack_from(fmt, data, pos)
        pos += struct.calcsize(fmt)
        return values

    def read_str() -> str:
        return read(f"{read('<H')[0]}s")[0].decode("utf-8")

    try:
        version, kind = read("<IB")
        c_reg, epochs, slot = read("<dIQ")
        if version != _MODEL_VERSION:
            raise ModelFileError(f"unsupported version {version}")
        if kind not in (0, 1, 2):
            raise ModelFileError(f"unknown model kind {kind}")
        space = None
        if kind == 0:
            task = Task(read_str())
            labels = tuple(read_str() for _ in range(read("<H")[0]))
            space = LabelSpace(task, labels, read("<H")[0])
        k, d = read("<II")
        if (k * d + k) * 8 != len(data) - pos:
            raise ModelFileError(
                f"weight shape ({k}, {d}) does not fit the {len(data) - pos} bytes after it"
            )
        # read-only views of the file's bytes, aligned or not: LinearModel keeps them as they are
        w = np.frombuffer(data, dtype="<f8", count=k * d, offset=pos).reshape(k, d)
        b = np.frombuffer(data, dtype="<f8", count=k, offset=pos + k * d * 8)
        # the slot is a change model's d: LinearModel rejects 0 there and any other value elsewhere
        model = LinearModel(w, b, space, TrainConfig(c_reg, epochs), slot or None)
        if _kind(model) != kind:  # one row and a d, or two rows and none, under the other kind
            raise ModelFileError(f"kind {kind} file holds a kind {_kind(model)} model's weights")
        return model
    except struct.error as e:
        raise ModelFileError(f"truncated model file: {e}") from None
    except ValueError as e:  # version, kind, shape, UTF-8, task, label space or parameters
        raise ModelFileError(f"malformed model file: {e}") from None
