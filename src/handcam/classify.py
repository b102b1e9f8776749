"""One-vs-rest linear classifiers for state and change confidences.

Training is deterministic full-batch subgradient descent on the
L2-regularized hinge loss

    J_k(w, b) = C_k/2 * ||w_k||^2 + mean_i max(0, 1 - y_ik (w_k x_i + b_k))

with step size 1/(C_k * t) and zero initialization. Each column k of a
solve (one class under one C) has its own C_k. The shrink factor 1 - 1/t
does not depend on C, so one solve trains the models of a whole C grid as
column blocks. The iterate with the lowest objective is kept per column,
so the returned objective never exceeds the value at initialization.
Identical inputs and config give bit-identical models. Confidences are raw
margins; the decoding weight lambda absorbs their scale, so no calibration
is applied.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import FeatureStream, LabelSpace, StateSequence, Task, frozen_array


@dataclass(frozen=True)
class TrainConfig:
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

    The binary change model has a single row and no label space; it records
    the change-feature half-width d it was trained with (None when unknown).
    Multiclass models may also run detached from a label space (synthetic
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
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("model parameters must be finite")
        if self.label_space is not None and w.shape[0] != self.label_space.num_labels:
            raise ValueError("weight rows must match the label count")
        binary = self.label_space is None and w.shape[0] == 1
        if self.d is not None and not (binary and self.d >= 1):
            raise ValueError("only binary change models carry a d, and it must be >= 1")
        object.__setattr__(self, "weights", frozen_array(w))
        object.__setattr__(self, "bias", frozen_array(b))

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
    x: np.ndarray, y_signs: np.ndarray, c_regs: np.ndarray, epochs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-objective iterate of subgradient descent, per column; c_regs
    holds each column's C."""
    n, d = x.shape
    k = y_signs.shape[1]
    w = np.zeros((k, d))
    b = np.zeros(k)
    best_w, best_b = w.copy(), b.copy()
    best_obj = np.full(k, np.inf)
    for t in range(epochs + 1):
        margins = y_signs * (x @ w.T + b)
        obj = 0.5 * c_regs * (w * w).sum(axis=1) + np.maximum(0.0, 1.0 - margins).mean(axis=0)
        better = obj < best_obj
        best_w[better] = w[better]
        best_b[better] = b[better]
        best_obj[better] = obj[better]
        if t == epochs:
            break
        active = np.where(margins < 1.0, y_signs, 0.0)
        eta = 1.0 / (c_regs * (t + 1))
        w = (1.0 - eta * c_regs)[:, None] * w + (eta / n)[:, None] * (active.T @ x)
        b = b + (eta / n) * active.sum(axis=0)
    return best_w, best_b, best_obj


def _check_training_input(x: np.ndarray, y: np.ndarray) -> None:
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("expected (n, D) features and (n,) labels")
    if not np.all(np.isfinite(x)):
        raise ValueError("training features must be finite")
    if np.unique(y).size < 2:
        raise ValueError("training data must contain at least two distinct labels")


def _fit(
    x: np.ndarray, y_signs: np.ndarray, space: LabelSpace | None, c_grid: Sequence[float],
    epochs: int,
) -> list[LinearModel]:
    """One model per C of c_grid from one solve of the sign columns tiled C-major."""
    configs = [TrainConfig(c, epochs) for c in c_grid]
    k = y_signs.shape[1]
    w, b, _ = _solve_subgradient(x, np.tile(y_signs, len(configs)), np.repeat(c_grid, k), epochs)
    return [LinearModel(w[i * k : (i + 1) * k], b[i * k : (i + 1) * k], space, cfg)
            for i, cfg in enumerate(configs)]


def _state_models(
    x: np.ndarray, y: np.ndarray, label_space: LabelSpace | int, c_grid: Sequence[float],
    epochs: int,
) -> list[LinearModel]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_training_input(x, y)
    space = label_space if isinstance(label_space, LabelSpace) else None
    k = space.num_labels if space is not None else int(label_space)
    if k < 2:
        raise ValueError("state models need at least two states")
    if y.min() < 0 or y.max() >= k:
        raise ValueError("labels out of range for the label space")
    y_signs = np.full((x.shape[0], k), -1.0)
    y_signs[np.arange(x.shape[0]), y] = 1.0
    return _fit(x, y_signs, space, c_grid, epochs)


def train_arrays(
    x: np.ndarray,
    y: np.ndarray,
    label_space: LabelSpace | int,
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train the multiclass state model on stacked frame features.

    label_space may be a plain state count for detached models.
    """
    return _state_models(x, y, label_space, [config.c_reg], config.epochs)[0]


def _stacked(
    streams: Sequence[FeatureStream], truths: Sequence[StateSequence]
) -> tuple[np.ndarray, np.ndarray, LabelSpace | int]:
    if len(streams) != len(truths) or not streams:
        raise ValueError("need matching, non-empty streams and truths")
    space = truths[0].label_space
    if any(t.label_space != space for t in truths) or any(
        t.num_states != truths[0].num_states for t in truths
    ):
        raise ValueError("all truths must share one label space")
    for s, t in zip(streams, truths):
        if s.n_frames != len(t):
            raise ValueError(f"video {s.video_id}: {s.n_frames} frames vs {len(t)} labels")
        if s.dim != streams[0].dim:
            raise ValueError(f"video {s.video_id}: dim {s.dim} != {streams[0].dim}")
    x = np.concatenate([s.values for s in streams])
    y = np.concatenate([t.states for t in truths])
    return x, y, space if space is not None else truths[0].num_states


def train(
    streams: Sequence[FeatureStream],
    truths: Sequence[StateSequence],
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Train on labeled streams; all streams must share one dimension."""
    return train_arrays(*_stacked(streams, truths), config)


def train_grid(
    streams: Sequence[FeatureStream], truths: Sequence[StateSequence], c_grid: Sequence[float],
    epochs: int,
) -> list[LinearModel]:
    """`train` for every C of c_grid, in one solver run."""
    return _state_models(*_stacked(streams, truths), c_grid, epochs)


def train_binary_grid(
    x: np.ndarray, y: np.ndarray, c_grid: Sequence[float], epochs: int
) -> list[LinearModel]:
    """`train_binary` for every C of c_grid, in one solver run."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_training_input(x, y)
    if not set(np.unique(y)) <= {0, 1}:
        raise ValueError("binary labels must be 0 or 1")
    return _fit(x, (2.0 * y - 1.0)[:, None], None, c_grid, epochs)


def train_binary(
    x: np.ndarray, y: np.ndarray, config: TrainConfig = TrainConfig()
) -> LinearModel:
    """Train the binary change scorer; y holds 0/1 labels."""
    return train_binary_grid(x, y, [config.c_reg], config.epochs)[0]


def training_objective(model: LinearModel, x: np.ndarray, y_signs: np.ndarray) -> np.ndarray:
    """Per-class objective of a model on (n, D) features and (n, K) signs."""
    margins = y_signs * (x @ model.weights.T + model.bias)
    reg = 0.5 * model.config.c_reg * (model.weights * model.weights).sum(axis=1)
    return reg + np.maximum(0.0, 1.0 - margins).mean(axis=0)


def score_stream(model: LinearModel, stream: FeatureStream) -> np.ndarray:
    """(N, K) margins for every frame of a stream."""
    if stream.dim != model.dim:
        raise ValueError(f"stream dim {stream.dim} does not match model dim {model.dim}")
    return stream.values @ model.weights.T + model.bias


def predict_frames(model: LinearModel, stream: FeatureStream) -> StateSequence:
    """Per-frame argmax of the margins; ties go to the lower label index."""
    if model.num_classes < 2:
        raise ValueError("predict_frames requires a multiclass state model")
    states = np.argmax(score_stream(model, stream), axis=1)
    if model.label_space is None:
        return StateSequence(None, states, num_states=model.num_classes)
    return StateSequence(model.label_space, states)


# ---------------------------------------------------------------------------
# serialization

_MODEL_MAGIC = b"HCLM"
_MODEL_VERSION = 2  # v2 stores a change model's d in the u64 slot v1 left unused


class ModelFileError(ValueError):
    pass


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def model_bytes(model: LinearModel) -> bytes:
    # kind 0: multiclass with label space, 1: binary change, 2: detached multiclass
    if model.label_space is not None:
        kind = 0
    else:
        kind = 1 if model.num_classes == 1 else 2
    out = [_MODEL_MAGIC, struct.pack("<IB", _MODEL_VERSION, kind)]
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
    try:
        version, kind = struct.unpack_from("<IB", data, pos)
        pos += 5
        c_reg, epochs, slot = struct.unpack_from("<dIQ", data, pos)
        pos += struct.calcsize("<dIQ")
        if version not in (1, _MODEL_VERSION):
            raise ModelFileError(f"unsupported version {version}")
        if kind not in (0, 1, 2):
            raise ModelFileError(f"unknown model kind {kind}")
        change_d = slot if version == _MODEL_VERSION and kind == 1 and slot > 0 else None
        space = None
        if kind == 0:
            (tlen,) = struct.unpack_from("<H", data, pos)
            pos += 2
            task = Task(data[pos : pos + tlen].decode("utf-8"))
            pos += tlen
            (n_labels,) = struct.unpack_from("<H", data, pos)
            pos += 2
            labels = []
            for _ in range(n_labels):
                (slen,) = struct.unpack_from("<H", data, pos)
                pos += 2
                labels.append(data[pos : pos + slen].decode("utf-8"))
                pos += slen
            (free_idx,) = struct.unpack_from("<H", data, pos)
            pos += 2
            space = LabelSpace(task, tuple(labels), free_idx)
        k, d = struct.unpack_from("<II", data, pos)
        pos += 8
        if (k * d + k) * 8 != len(data) - pos:
            raise ModelFileError(
                f"weight shape ({k}, {d}) does not fit the {len(data) - pos} bytes after it"
            )
        w = np.frombuffer(data, dtype="<f8", count=k * d, offset=pos).reshape(k, d)
        b = np.frombuffer(data, dtype="<f8", count=k, offset=pos + k * d * 8)
        return LinearModel(w.copy(), b.copy(), space, TrainConfig(c_reg, epochs), change_d)
    except struct.error as e:
        raise ModelFileError(f"truncated model file: {e}") from None
    except ModelFileError:
        raise
    except ValueError as e:  # bad UTF-8, task, label space or parameters
        raise ModelFileError(f"malformed model file: {e}") from None
