"""Per-frame evaluation: confusion matrices, accuracy, report emission.

A report takes its task and label names from the label space its truths
share, so a caller passes sequences only; truths detached from a label
space (solver-level benchmarks) give a report with task "" and no labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import LabelSpace, StateSequence, remove_stale, run_starts, write_csv, write_json


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


def confusion(pred: StateSequence, truth: StateSequence) -> np.ndarray:
    """K x K matrix; entry (t, p) counts frames of truth t predicted p."""
    _check_pair(pred, truth)
    k = truth.num_states
    flat = truth.states * k + pred.states
    return np.bincount(flat, minlength=k * k).reshape(k, k)


@dataclass(frozen=True)
class EvalReport:
    """Per-video and pooled per-frame accuracy, and the truth x prediction
    confusion, in the truths' label space (None: detached)."""

    label_space: LabelSpace | None
    per_video_accuracy: dict[str, float]
    global_accuracy: float
    confusion: np.ndarray
    n_frames: int


def build_report(
    preds: Mapping[str, StateSequence],
    truths: Mapping[str, StateSequence],
) -> EvalReport:
    if set(preds) != set(truths):
        raise ValueError("prediction and truth video sets differ")
    if not preds:
        raise ValueError("nothing to evaluate")
    spaces = {t.label_space for t in truths.values()}
    if len(spaces) != 1:
        raise ValueError("truths use different label spaces")
    per_video = {}
    total = None
    n = 0
    for vid in sorted(preds):
        if not len(truths[vid]):
            raise ValueError(f"video {vid!r} has no frames to evaluate")
        c = confusion(preds[vid], truths[vid])
        per_video[vid] = float(np.trace(c) / c.sum())  # correct / frames, as one division
        total = c if total is None else total + c
        n += len(truths[vid])
    global_acc = float(np.trace(total) / total.sum())
    return EvalReport(spaces.pop(), per_video, global_acc, total, n)


def report_dict(report: EvalReport) -> dict:
    space = report.label_space
    return {
        "task": space.task.value if space else "",
        "global_accuracy": report.global_accuracy,
        "per_video_accuracy": report.per_video_accuracy,
        "n_frames": report.n_frames,
        "labels": list(space.labels) if space else None,
        "confusion": report.confusion.tolist(),
    }


# state timelines drawn as colored per-frame bars, one lane per sequence
_SVG_LANE_H = 24
_SVG_GAP = 10
_SVG_LABEL_W = 90


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
        # one rect per equal-state run, one hue per state
        k = seq.num_states
        colors = [f"hsl({int(360 * state / k)},70%,55%)" for state in range(k)]
        starts = run_starts(seq.states)
        ends = np.append(starts[1:], len(seq))
        for a, b, state in zip(starts.tolist(), ends.tolist(), seq.states[starts].tolist()):
            x0 = _SVG_LABEL_W + a * width / n
            x1 = _SVG_LABEL_W + b * width / n
            parts.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{x1 - x0:.2f}" '
                f'height="{_SVG_LANE_H}" fill="{colors[state]}"/>'
            )
    parts.append("</svg>")
    return "".join(parts) + "\n"


def write_report(
    report: EvalReport,
    out_dir: str | Path,
    timelines: Mapping[str, Mapping[str, StateSequence]] | None = None,
) -> None:
    """Emit report.json, report.csv and per-video timeline SVGs, replacing
    the timelines of an earlier report in out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    remove_stale(out_dir, r"timeline_.*\.svg")
    write_json(report_dict(report), out_dir / "report.json")
    rows = sorted(report.per_video_accuracy.items())
    write_csv([("video", "accuracy"), *rows, ("GLOBAL", report.global_accuracy)],
              out_dir / "report.csv")
    if timelines:
        for vid in sorted(timelines):
            (out_dir / f"timeline_{vid}.svg").write_text(timeline_svg(timelines[vid]))
