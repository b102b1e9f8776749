import csv
import json
import re
from itertools import product

import numpy as np
import pytest

from handcam.core import StateSequence
from handcam.evaluation import (
    _check_pair,
    build_report,
    confusion,
    timeline_svg,
    write_report,
)
from conftest import free_active


def seq(states, k=3):
    return StateSequence(None, np.asarray(states), num_states=k)


def accuracy(pred, truth):
    """Fraction of frames with matching state: the oracle for a report's
    per-video accuracy."""
    _check_pair(pred, truth)
    return float(np.mean(pred.states == truth.states))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(seq([0, 1, 2]), seq([0, 1, 2])) == 1.0

    def test_complement_binary(self):
        a = seq([0, 1, 0, 1], k=2)
        b = seq([1, 0, 1, 0], k=2)
        assert accuracy(a, b) == 0.0

    def test_three_of_four(self):
        assert accuracy(seq([0, 1, 2, 2]), seq([0, 1, 2, 1])) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy(seq([0]), seq([0, 1]))

    def test_label_space_mismatch(self):
        a = StateSequence(free_active(), np.array([0, 1]))
        b = StateSequence(free_active("idle", "busy"), np.array([0, 1]))
        with pytest.raises(ValueError, match="label space"):
            accuracy(a, b)


class TestConfusion:
    def test_perfect_is_diagonal(self):
        truth = seq([0, 0, 1, 2, 2, 2])
        m = confusion(truth, truth)
        assert np.array_equal(m, np.diag([2, 1, 3]))

    def test_all_predicted_zero(self):
        m = confusion(seq([0, 0, 0]), seq([0, 1, 2]))
        assert np.array_equal(m, [[1, 0, 0], [1, 0, 0], [1, 0, 0]])

    def test_hand_enumerated(self):
        pred = seq([0, 1, 1, 2], k=3)
        truth = seq([0, 1, 2, 2], k=3)
        m = confusion(pred, truth)
        want = np.zeros((3, 3), dtype=int)
        want[0, 0] = 1  # truth 0 -> pred 0
        want[1, 1] = 1  # truth 1 -> pred 1
        want[2, 1] = 1  # truth 2 -> pred 1
        want[2, 2] = 1  # truth 2 -> pred 2
        assert np.array_equal(m, want)

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(0)
        truth = seq(rng.integers(0, 3, 50))
        pred = seq(rng.integers(0, 3, 50))
        m = confusion(pred, truth)
        assert m.sum() == 50
        assert np.array_equal(m.sum(axis=1), np.bincount(truth.states, minlength=3))

    def test_accuracy_consistent_with_matrix(self):
        rng = np.random.default_rng(1)
        truth = seq(rng.integers(0, 3, 200))
        pred = seq(rng.integers(0, 3, 200))
        m = confusion(pred, truth)
        assert abs(np.trace(m) / m.sum() - accuracy(pred, truth)) < 1e-12


class TestReport:
    def test_build_and_write(self, tmp_path):
        preds = {"a": seq([0, 1, 1]), "b": seq([2, 2, 2])}
        truths = {"a": seq([0, 1, 2]), "b": seq([2, 2, 0])}
        report = build_report(preds, truths)
        assert report.label_space is None
        assert report.per_video_accuracy == {"a": 2 / 3, "b": 2 / 3}
        assert report.global_accuracy == 4 / 6
        assert report.n_frames == 6
        write_report(report, tmp_path,
                     timelines={v: {"truth": truths[v], "pred": preds[v]} for v in preds})
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["global_accuracy"] == 4 / 6
        assert (doc["task"], doc["labels"]) == ("", None)  # detached truths name nothing
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "video,accuracy"
        assert lines[-1].startswith("GLOBAL,")
        assert (tmp_path / "timeline_a.svg").read_text().startswith("<svg")

    def test_task_and_labels_come_from_the_truths(self, tmp_path):
        space = free_active()
        truth = StateSequence(space, np.array([0, 1, 1]))
        report = build_report({"v": seq([0, 1, 0], k=2)}, {"v": truth})
        assert report.label_space == space
        write_report(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert (doc["task"], doc["labels"]) == ("free_active", ["free", "active"])

    def test_truths_in_two_label_spaces_rejected(self):
        # the report's task and labels would name only one of them
        truths = {"a": StateSequence(free_active(), np.array([0, 1])),
                  "b": StateSequence(free_active("idle", "busy"), np.array([0, 1]))}
        preds = {v: seq([0, 1], k=2) for v in truths}
        with pytest.raises(ValueError, match="truths use different label spaces"):
            build_report(preds, truths)
        truths["b"] = seq([0, 1], k=2)  # detached beside attached
        with pytest.raises(ValueError, match="truths use different label spaces"):
            build_report(preds, truths)

    def test_csv_quotes_video_ids(self, tmp_path):
        # ids were joined with commas unquoted, so "a,b" read back as two fields
        ids = ["a,b", 'q"x', "n\nl", "plain"]
        report = build_report({v: seq([0, 1]) for v in ids}, {v: seq([0, 0]) for v in ids})
        write_report(report, tmp_path)
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["video", "accuracy"], *([v, "0.5"] for v in sorted(ids)),
                        ["GLOBAL", "0.5"]]

    def test_per_video_accuracy_matches_the_frame_mean_bytes(self):
        # taken from each video's confusion matrix: the same exact ratio of
        # integers, so the same float as the mean of the matching frames
        rng = np.random.default_rng(5)
        for n, k in product((1, 3, 7, 100, 1_001, 40_000), (2, 3, 24)):
            truth = seq(rng.integers(0, k, n), k=k)
            pred = seq(np.where(rng.random(n) < rng.random(), truth.states,
                                rng.integers(0, k, n)), k=k)
            report = build_report({"v": pred}, {"v": truth})
            assert repr(report.per_video_accuracy["v"]) == repr(accuracy(pred, truth))

    def test_mismatched_video_sets(self):
        with pytest.raises(ValueError):
            build_report({"a": seq([0])}, {"b": seq([0])})

    def test_video_without_frames_rejected(self):
        with pytest.raises(ValueError, match="'b' has no frames"):
            build_report({"a": seq([0]), "b": seq([])}, {"a": seq([0]), "b": seq([])})

    def test_timeline_svg_runs_merged(self):
        svg = timeline_svg({"pred": seq([0, 0, 1, 1, 1])})
        assert svg.count("<rect") == 2

    def test_timeline_svg_one_hue_per_state(self):
        rng = np.random.default_rng(0)
        states = np.repeat(rng.integers(0, 24, 500), rng.integers(1, 4, 500))
        lane = seq(states, k=24)
        fills = re.findall(r'fill="([^"]*)"', timeline_svg({"pred": lane}))
        runs = states[np.flatnonzero(np.diff(states, prepend=-1))]
        assert fills == [f"hsl({int(360 * s / 24)},70%,55%)" for s in runs]
