"""Per-frame evaluation: accuracy, confusion matrices, report emission."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import StateSequence, run_starts


def _check_pair(pred: StateSequence, truth: StateSequence) -> None:
    if len(pred) != len(truth):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(truth)} frames")
    if pred.num_states != truth.num_states:
        raise ValueError("sequences use different state counts")
    if (
        pred.label_space is not None
        and truth.label_space is not None
        and pred.label_space != truth.label_space
    ):
        raise ValueError("sequences use different label spaces")


def accuracy(pred: StateSequence, truth: StateSequence) -> float:
    """Fraction of frames with matching state."""
    _check_pair(pred, truth)
    return float(np.mean(pred.states == truth.states))


def confusion(pred: StateSequence, truth: StateSequence) -> np.ndarray:
    """K x K matrix; entry (t, p) counts frames of truth t predicted p."""
    _check_pair(pred, truth)
    k = truth.num_states
    flat = truth.states * k + pred.states
    return np.bincount(flat, minlength=k * k).reshape(k, k)


@dataclass(frozen=True)
class EvalReport:
    task: str
    per_video_accuracy: dict[str, float]
    global_accuracy: float
    confusion: np.ndarray
    n_frames: int


def build_report(
    preds: Mapping[str, StateSequence],
    truths: Mapping[str, StateSequence],
    task: str = "",
) -> EvalReport:
    if set(preds) != set(truths):
        raise ValueError("prediction and truth video sets differ")
    if not preds:
        raise ValueError("nothing to evaluate")
    per_video = {}
    total = None
    n = 0
    for vid in sorted(preds):
        per_video[vid] = accuracy(preds[vid], truths[vid])
        c = confusion(preds[vid], truths[vid])
        total = c if total is None else total + c
        n += len(truths[vid])
    global_acc = float(np.trace(total) / total.sum())
    return EvalReport(task, per_video, global_acc, total, n)


def report_dict(report: EvalReport, label_names: list[str] | None = None) -> dict:
    return {
        "task": report.task,
        "global_accuracy": report.global_accuracy,
        "per_video_accuracy": report.per_video_accuracy,
        "n_frames": report.n_frames,
        "labels": label_names,
        "confusion": report.confusion.tolist(),
    }


# state timelines drawn as colored per-frame bars, one lane per sequence
_SVG_LANE_H = 24
_SVG_GAP = 10
_SVG_LABEL_W = 90


def _state_color(state: int, k: int) -> str:
    hue = int(360 * state / max(k, 1))
    return f"hsl({hue},70%,55%)"


def timeline_svg(sequences: Mapping[str, StateSequence], width: int = 720) -> str:
    names = list(sequences)
    n = max(len(s) for s in sequences.values())
    height = _SVG_GAP + len(names) * (_SVG_LANE_H + _SVG_GAP)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + _SVG_LABEL_W}" '
        f'height="{height}" font-family="monospace" font-size="11">'
    ]
    for lane, name in enumerate(names):
        seq = sequences[name]
        y = _SVG_GAP + lane * (_SVG_LANE_H + _SVG_GAP)
        parts.append(
            f'<text x="4" y="{y + _SVG_LANE_H - 8}">{name}</text>'
        )
        # one rect per equal-state run
        starts = run_starts(seq.states)
        ends = np.append(starts[1:], len(seq))
        for a, b, state in zip(starts.tolist(), ends.tolist(), seq.states[starts].tolist()):
            x0 = _SVG_LABEL_W + a * width / n
            x1 = _SVG_LABEL_W + b * width / n
            color = _state_color(state, seq.num_states)
            parts.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{x1 - x0:.2f}" '
                f'height="{_SVG_LANE_H}" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "".join(parts) + "\n"


def write_report(
    report: EvalReport,
    out_dir: str | Path,
    label_names: list[str] | None = None,
    timelines: Mapping[str, Mapping[str, StateSequence]] | None = None,
) -> None:
    """Emit report.json, report.csv and per-video timeline SVGs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = report_dict(report, label_names)
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    lines = ["video,accuracy"]
    for vid in sorted(report.per_video_accuracy):
        lines.append(f"{vid},{report.per_video_accuracy[vid]!r}")
    lines.append(f"GLOBAL,{report.global_accuracy!r}")
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n")
    if timelines:
        for vid in sorted(timelines):
            (out_dir / f"timeline_{vid}.svg").write_text(timeline_svg(timelines[vid]))
