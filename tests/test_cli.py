import argparse
import csv
import hashlib
import json
import os
import re
import struct
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from handcam import alignment, change, classify, cli, crossval, evaluation, synth
from handcam import features as features_mod
from handcam.cli import build_parser, main, read_truth, run_pipeline, write_labels
from handcam.core import Camera, FeatureStream, LabelSpace, StateSequence, Task, write_json
from handcam.features import read_features, write_features
from handcam.media import frame_path, load_video_dir, save_ppm
from conftest import free_active, save_frames, train_arrays
from test_core import save_label_space
from test_synth import orthonormal_centers, smooth_patch


def gesture_space():
    labels = ("free",) + tuple(f"g{i:02d}" for i in range(1, 13))
    return LabelSpace(Task.GESTURE, labels, 0)


def write_spaces(tmp_path):
    fa = tmp_path / "fa.txt"
    save_label_space(free_active(), fa)
    ges = tmp_path / "gesture.txt"
    save_label_space(gesture_space(), ges)
    obj = tmp_path / "objects.txt"
    labels = ("free", "cup", "kettle") + tuple(f"obj{i:02d}" for i in range(21))
    save_label_space(LabelSpace(Task.OBJECT_CATEGORY, labels, 0), obj)
    return fa, ges, obj


def make_labeled_videos(tmp_path, space, n_videos=2, seed=0, sigma=0.5, n_frames=120):
    centers = orthonormal_centers(3, 6, seed + 50)
    feature_paths, truth_paths = [], []
    for i in range(n_videos):
        stream, truth = synth.gen_feature_stream(
            centers, seed=seed * 10 + i, n_frames=n_frames, min_dwell=20, noise_sigma=sigma,
            video_id=f"v{i}", label_space=space)
        fpath = tmp_path / f"v{i}.feat"
        tpath = tmp_path / f"v{i}.truth.txt"
        write_features(stream, fpath)
        write_labels(truth, tpath)
        feature_paths.append(str(fpath))
        truth_paths.append(str(tpath))
    return feature_paths, truth_paths


def check_out_file_rejected(capsys, argv, out, flag="--out"):
    """argv, whose option `flag` names out, an existing file, exits 2
    naming the option and the path, and leaves the file as it was."""
    out.write_text("not a directory\n")
    assert main(argv) == 2
    assert f"{flag} {out}: not a directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["no-such-command"]) == 1

    def test_missing_file_is_2(self, capsys, tmp_path):
        rc = main(["infer", "--features", str(tmp_path / "nope.feat"),
                   "--state-model", str(tmp_path / "m.bin"), "--mode", "unary"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_label_deep_in_a_long_truth_file_is_2(self, capsys, tmp_path):
        _, ges, _ = write_spaces(tmp_path)
        seq = StateSequence(gesture_space(), np.arange(40_000) % 13)
        good, bad = tmp_path / "v.truth.txt", tmp_path / "v.full.txt"
        write_labels(seq, good)
        names = good.read_text().splitlines()
        assert read_truth(good, gesture_space()).states.tolist() == seq.states.tolist()
        names[39_000] = "g13"
        bad.write_text("\n".join(names) + "\n")
        report = ["--label-space", str(ges), "--report", str(tmp_path / "report")]
        assert main(["eval", "--pred", str(bad), "--truth", str(good), *report]) == 2
        assert "unknown label 'g13'" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_internal_error_is_3(self, capsys, monkeypatch):
        # a defect, not a data error: neither a ValueError nor an OSError
        def defect(*args):
            raise RuntimeError("a defect")

        monkeypatch.setattr(cli, "run_eval", defect)
        assert main(["eval", "--pred", "p.txt", "--truth", "t.txt", "--label-space", "l.txt",
                     "--report", "report"]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: a defect\n"


class TestWriteLabels:
    def test_names_each_frame_in_its_label_space(self, tmp_path, capsys):
        # the one writer of label files, to a file or to stdout; read_truth reads it back
        seq = StateSequence(free_active(), np.array([0, 1, 1]))
        write_labels(seq, tmp_path / "v.txt")
        write_labels(seq, None)
        text = "free\nactive\nactive\n"
        assert (tmp_path / "v.txt").read_text() == capsys.readouterr().out == text
        assert read_truth(tmp_path / "v.txt", free_active()).states.tolist() == [0, 1, 1]


class TestReaderErrorsNameTheirFile:
    """A damaged input among several is named in the error, whichever
    command reads it; each of these exited 2 without naming a file."""

    def test_eval_length_mismatch_names_both_files(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        pred, truth = tmp_path / "v.full.txt", tmp_path / "v.truth.txt"
        pred.write_text("free\ng01\ng01\n")
        truth.write_text("free\ng01\n")
        assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--label-space",
                     str(ges), "--report", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert f"{pred}: 3 frames of predictions for the 2 frames of {truth}" in err
        assert not (tmp_path / "report").exists()

    def test_unknown_label_names_the_file(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        pred, truth = tmp_path / "v.full.txt", tmp_path / "v.truth.txt"
        pred.write_text("free\nbogus\n")
        truth.write_text("free\ng01\n")
        assert main(["eval", "--pred", str(pred), "--truth", str(truth), "--label-space",
                     str(ges), "--report", str(tmp_path / "report")]) == 2
        assert f"{pred}: unknown label 'bogus'" in capsys.readouterr().err
        pred.write_bytes(b"free\n\xff\n")
        assert read_truth(truth, gesture_space()).states.tolist() == [0, 1]
        with pytest.raises(ValueError, match=re.escape(f"{pred}: 'utf-8' codec")):
            read_truth(pred, gesture_space())

    @pytest.mark.parametrize("labels, message", [
        (b"free, \xff", ": 'utf-8' codec can't decode byte 0xff"),
        (b"free, active, idle", ": task free_active requires exactly 2 labels, got 3"),
        (b"free, free", ": label names must be unique"),
        (b"free, active\nlabels = free, active", ":3: duplicate key 'labels'"),
        (b"free, ", ": empty label name"),
        (b"idle, active", ": free_label 'free' not in labels"),
    ], ids=["not-utf8", "label-count", "repeated-label", "repeated-key", "empty-label",
            "free-label-not-a-label"])
    def test_label_space_errors_name_the_file(self, tmp_path, capsys, labels, message):
        # the first three printed the message with no path, from every command
        bad = tmp_path / "bad_labels.txt"
        bad.write_bytes(b"task = free_active\nlabels = " + labels + b"\nfree_label = free\n")
        manifest = tmp_path / "cv.txt"
        manifest.write_text("v0.feat\tv0.truth.txt\n")
        config = json.loads(pipeline_config(tmp_path).read_text())
        (tmp_path / "pipeline.json").write_text(json.dumps({**config, "label_space": bad.name}))
        pairs = ["--features", "v0.feat", "--truth", "v0.truth.txt", "--label-space", str(bad)]
        for argv in (
            ["eval", "--pred", "v0.full.txt", "--truth", "v0.truth.txt", "--label-space",
             str(bad), "--report", str(tmp_path / "report")],
            ["train-state", *pairs, "--out", str(tmp_path / "m.bin")],
            ["train-change", *pairs, "--d", "3", "--out", str(tmp_path / "m.bin")],
            ["cv", "--manifest", str(manifest), "--label-space", str(bad),
             "--out", str(tmp_path / "cv")],
            ["discover", "--manifest", str(manifest), "--fa-space", str(bad),
             "--k-range", "1:2", "--out", str(tmp_path / "disc")],
            ["pipeline", "--config", str(tmp_path / "pipeline.json"),
             "--out", str(tmp_path / "run")],
        ):
            assert main(argv) == 2, argv[0]
            assert f"error: {bad}{message}" in capsys.readouterr().err, argv[0]

    def test_list_file_not_utf8_named(self, tmp_path, capsys):
        fa, ges, _ = write_spaces(tmp_path)
        bad = tmp_path / "list.txt"
        bad.write_bytes(b"v0.feat\t\xff\n")
        for argv in (["align", "--manifest", str(bad), "--out", str(tmp_path / "aligned")],
                     ["cv", "--manifest", str(bad), "--label-space", str(ges),
                      "--out", str(tmp_path / "cv")],
                     ["discover", "--manifest", str(bad), "--fa-space", str(fa),
                      "--k-range", "1:2", "--out", str(tmp_path / "disc")]):
            assert main(argv) == 2, argv[0]
            assert f"error: {bad}: 'utf-8' codec can't decode byte 0xff" \
                in capsys.readouterr().err, argv[0]

    def test_damaged_feature_file_among_several_named(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        bad = Path(feats[1])
        bad.write_bytes(b"XXXX" + bad.read_bytes()[4:])
        assert main(["train-state", "--features", *feats, "--truth", *truths, "--label-space",
                     str(ges), "--epochs", "5", "--out", str(tmp_path / "state.bin")]) == 2
        assert f"{bad}: magic mismatch: b'XXXX'" in capsys.readouterr().err
        assert not (tmp_path / "state.bin").exists()

    def test_extract_names_the_damaged_frame(self, tmp_path, capsys):
        save_frames([np.zeros((4, 5, 3), dtype=np.uint8)] * 3, tmp_path / "vid")
        frame = frame_path(tmp_path / "vid", 1)
        frame.write_bytes(b"P5" + frame.read_bytes()[2:])
        assert main(["extract", "--video", str(tmp_path / "vid"), "--out",
                     str(tmp_path / "vid.feat")]) == 2
        assert f"{frame}: bad magic b'P5', expected P6" in capsys.readouterr().err
        assert not (tmp_path / "vid.feat").exists()


class TestAbbreviatedOptions:
    def test_infer_takes_only_full_option_names(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "20"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        chosen = tmp_path / "chosen.json"
        chosen.write_text(json.dumps({"C": 1.0, "d": 3, "lambda": 2.0}))
        infer = ["infer", "--features", feats[0], "--state-model", str(smodel),
                 "--mode", "full", "--out", str(tmp_path / "pred.txt")]
        assert main([*infer, "--lam", "2.0", "--change", str(cmodel)]) == 1
        assert "unrecognized arguments: --lam" in capsys.readouterr().err
        assert main([*infer, "--cv", str(chosen), "--change", str(cmodel)]) == 1
        assert "unrecognized arguments: --cv" in capsys.readouterr().err
        assert main([*infer, "--cv-result", str(chosen), "--change-model", str(cmodel)]) == 0

    def test_no_parser_allows_abbreviations(self):
        parsers, seen = [build_parser()], []
        while parsers:
            parser = parsers.pop()
            seen.append(parser.prog)
            assert parser.allow_abbrev is False, parser.prog
            for action in parser._actions:
                if action.nargs == argparse.PARSER:  # a subcommand table
                    parsers.extend(action.choices.values())
        assert len(seen) == 15  # handcam, 12 commands, synth features and videos


class TestExtractFuse:
    def test_extract_and_fuse(self, tmp_path, capsys):
        hand = smooth_patch(10, 10, seed=1)
        synth.gen_video_set(hand, [synth.VideoSpec("vid0", 1.0, 4, 4)], (30, 24),
                            3, 20.0, 0, seed=2, out_dir=tmp_path)
        feat = tmp_path / "vid0.feat"
        assert main(["extract", "--video", str(tmp_path / "vid0"),
                     "--out", str(feat), "--bins", "4"]) == 0
        stream = read_features(feat)
        assert stream.n_frames == 3 and stream.dim == 64 and stream.camera == Camera.RIGHT_HAND
        # a NaN fps is rejected, not written to a file that would not read back
        assert main(["extract", "--video", str(tmp_path / "vid0"), "--out",
                     str(tmp_path / "nan.feat"), "--fps", "nan"]) == 2
        assert not (tmp_path / "nan.feat").exists()
        head = tmp_path / "head.feat"
        assert main(["extract", "--video", str(tmp_path / "vid0"), "--out", str(head),
                     "--bins", "4", "--camera", "head"]) == 0
        assert read_features(head).camera == Camera.HEAD
        fused = tmp_path / "fused.feat"
        assert main(["fuse", "--inputs", str(feat), str(head), "--out", str(fused)]) == 0
        fused_stream = read_features(fused)
        assert fused_stream.dim == 128
        assert fused_stream.camera == Camera.RIGHT_HAND  # the first input's

    def test_unusable_fps_exits_2_before_any_histogram(self, tmp_path, capsys, monkeypatch):
        # the fps was checked on the finished stream, after every frame's histogram
        save_frames(np.zeros((5, 2, 3, 3), dtype=np.uint8), tmp_path / "v")
        calls = []
        histogram = features_mod.color_histogram
        monkeypatch.setattr(features_mod, "color_histogram",
                            lambda *a, **k: calls.append(1) or histogram(*a, **k))
        for fps in ("0", "-1", "inf", "nan"):
            capsys.readouterr()
            assert main(["extract", "--video", str(tmp_path / "v"), "--out",
                         str(tmp_path / "v.feat"), "--fps", fps]) == 2, fps
            assert "fps" in capsys.readouterr().err
            assert calls == [], fps
            assert not (tmp_path / "v.feat").exists()

    def test_three_input_fuse_matches_pairwise_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        paths = [tmp_path / f"{name}.feat" for name in "abc"]
        for path, dim in zip(paths, (2, 3, 5)):
            write_features(FeatureStream(path.stem, Camera.HEAD, 6.0,
                                         rng.standard_normal((7, dim))), path)
        pair, pairwise, fused = (tmp_path / f"{n}.feat" for n in ("ab", "ab_c", "abc"))
        assert main(["fuse", "--inputs", str(paths[0]), str(paths[1]), "--out", str(pair)]) == 0
        assert main(["fuse", "--inputs", str(pair), str(paths[2]), "--out", str(pairwise)]) == 0
        assert main(["fuse", "--inputs", *map(str, paths), "--out", str(fused)]) == 0
        assert fused.read_bytes() == pairwise.read_bytes()
        assert read_features(fused).video_id == "a"

    def test_fuse_out_may_name_an_input(self, tmp_path):
        # the inputs are mapped while the output is written: the output
        # replaces the file whole instead of truncating the mapped pages
        rng = np.random.default_rng(5)
        a, b, fused = (tmp_path / f"{name}.feat" for name in ("a", "b", "fused"))
        for path, dim in ((a, 2), (b, 3)):
            write_features(FeatureStream(path.stem, Camera.HEAD, 6.0,
                                         rng.standard_normal((9_000, dim))), path)
        assert main(["fuse", "--inputs", str(a), str(b), "--out", str(fused)]) == 0
        assert main(["fuse", "--inputs", str(a), str(b), "--out", str(a)]) == 0
        assert a.read_bytes() == fused.read_bytes()

    def test_fuse_of_streams_at_different_fps_exits_2(self, tmp_path, capsys):
        a, b, fused = (tmp_path / f"{name}.feat" for name in ("a", "b", "fused"))
        for path, fps in ((a, 6.0), (b, 12.0)):
            write_features(FeatureStream(path.stem, Camera.HEAD, fps, np.zeros((4, 2))), path)
        assert main(["fuse", "--inputs", str(a), str(b), "--out", str(fused)]) == 2
        assert "error: fps mismatch: 6.0 vs 12.0" in capsys.readouterr().err
        assert not fused.exists()

    def test_extract_of_a_directory_without_frames_exits_2(self, tmp_path, capsys):
        video, feat = tmp_path / "v", tmp_path / "v.feat"
        video.mkdir()
        (video / "notes.txt").write_text("no frames here\n")
        assert main(["extract", "--video", str(video), "--out", str(feat)]) == 2
        assert f"error: no frame_*.ppm files in {video}" in capsys.readouterr().err
        assert not feat.exists()

    def test_flip_option_is_gone(self, tmp_path):
        # a whole-frame histogram is mirror-invariant, so --flip wrote the same file
        save_frames(np.zeros((1, 2, 3, 3), dtype=np.uint8), tmp_path / "v")
        assert main(["extract", "--video", str(tmp_path / "v"), "--out",
                     str(tmp_path / "v.feat"), "--flip"]) == 1
        assert not (tmp_path / "v.feat").exists()

    def test_extract_memory_follows_one_frame(self, tmp_path, capsys, traced_peak):
        # the parent loaded every frame first: its peak grew by 13.6 MB from
        # 40 to 400 frames of 120 x 90, against 1.5 MB of histograms
        rng = np.random.default_rng(8)
        for t in (40, 400):
            save_frames(rng.integers(0, 256, (t, 90, 120, 3), dtype=np.uint8), tmp_path / f"v{t}")

        def peak(t):
            traced, rc = traced_peak(main, ["extract", "--video", str(tmp_path / f"v{t}"),
                                            "--out", str(tmp_path / f"v{t}.feat")])
            assert rc == 0
            return traced

        peak(40)  # first call: one-time allocations of the libraries
        growth = peak(400) - peak(40)
        assert growth <= 1.2 * 360 * 512 * 8, growth
        assert read_features(tmp_path / "v400.feat").n_frames == 400


class TestTrainInferEval:
    def test_full_cycle(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=3)
        smodel = tmp_path / "state.bin"
        cmodel = tmp_path / "change.bin"
        assert main(["train-state", "--features", *feats[:2], "--truth", *truths[:2],
                     "--label-space", str(ges), "--c-reg", "0.1", "--epochs", "120",
                     "--out", str(smodel)]) == 0
        assert main(["train-change", "--features", *feats[:2], "--truth", *truths[:2],
                     "--label-space", str(ges), "--c-reg", "0.1", "--epochs", "120",
                     "--d", "3", "--out", str(cmodel)]) == 0

        cand_file = tmp_path / "cands.txt"
        assert main(["detect-changes", "--features", feats[2], "--model", str(cmodel),
                     "--d", "3", "--out", str(cand_file)]) == 0
        lines = cand_file.read_text().splitlines()
        assert lines[0] == "frame_index\tconfidence"
        assert len(lines) > 1

        pred_u = tmp_path / "pred_unary.txt"
        pred_f = tmp_path / "pred_full.txt"
        assert main(["infer", "--features", feats[2], "--state-model", str(smodel),
                     "--mode", "unary", "--out", str(pred_u)]) == 0
        assert main(["infer", "--features", feats[2], "--state-model", str(smodel),
                     "--mode", "full", "--change-model", str(cmodel), "--d", "3",
                     "--lambda", "1.0", "--out", str(pred_f)]) == 0
        n_lines = len(pred_f.read_text().splitlines())
        assert n_lines == 120

        report_dir = tmp_path / "report"
        assert main(["eval", "--pred", str(pred_f), "--truth", truths[2],
                     "--label-space", str(ges), "--report", str(report_dir)]) == 0
        doc = json.loads((report_dir / "report.json").read_text())
        assert 0.0 <= doc["global_accuracy"] <= 1.0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_eval_pools_several_pairs_as_build_report(self, tmp_path):
        _, ges, _ = write_spaces(tmp_path)
        space = gesture_space()
        rng = np.random.default_rng(4)
        preds, truths = {}, {}
        for vid, n in (("b", 50), ("a", 30)):
            preds[vid] = StateSequence(space, rng.integers(0, 3, n))
            truths[vid] = StateSequence(space, rng.integers(0, 3, n))
            write_labels(preds[vid], tmp_path / f"{vid}.full.txt")
            write_labels(truths[vid], tmp_path / f"{vid}.truth.txt")
        report_dir = tmp_path / "report"
        assert main(["eval", "--pred", str(tmp_path / "b.full.txt"), str(tmp_path / "a.full.txt"),
                     "--truth", str(tmp_path / "b.truth.txt"), str(tmp_path / "a.truth.txt"),
                     "--label-space", str(ges), "--report", str(report_dir)]) == 0
        expected = evaluation.build_report(preds, truths)
        doc = json.loads((report_dir / "report.json").read_text())
        assert doc == expected
        assert (doc["task"], doc["labels"]) == (space.task.value, list(space.labels))
        assert sorted(p.name for p in report_dir.glob("timeline_*.svg")) == [
            "timeline_a.svg", "timeline_b.svg"]

    def test_eval_rerun_leaves_no_stale_timelines(self, tmp_path):
        # a report of fewer videos kept the timelines of the earlier ones
        _, ges, _ = write_spaces(tmp_path)
        seq = StateSequence(gesture_space(), np.array([0, 1, 1, 2]))
        for name in ("a.full.txt", "b.full.txt", "v.truth.txt"):
            write_labels(seq, tmp_path / name)
        report_dir, truth = tmp_path / "report", str(tmp_path / "v.truth.txt")
        common = ["--label-space", str(ges), "--report", str(report_dir)]
        assert main(["eval", "--pred", str(tmp_path / "a.full.txt"), str(tmp_path / "b.full.txt"),
                     "--truth", truth, truth, *common]) == 0
        (report_dir / "notes.svg").write_text("not a timeline\n")
        assert main(["eval", "--pred", str(tmp_path / "a.full.txt"), "--truth", truth,
                     *common]) == 0
        assert sorted(p.name for p in report_dir.iterdir()) == [
            "notes.svg", "report.csv", "report.json", "timeline_a.svg"]

    def test_training_needs_one_truth_per_feature_file(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        out = tmp_path / "m.bin"
        for command in (["train-state"], ["train-change", "--d", "3"]):
            assert main([*command, "--features", *feats, "--truth", truths[0],
                         "--label-space", str(ges), "--out", str(out)]) == 2, command
            assert "error: --features and --truth need the same count" \
                in capsys.readouterr().err, command
            assert not out.exists()

    def test_eval_video_ids_must_differ(self, tmp_path, capsys):
        # the video id is the prediction file's name up to its first '.'
        _, ges, _ = write_spaces(tmp_path)
        seq = StateSequence(gesture_space(), np.array([0, 1, 1, 2]))
        for name in ("v.full.txt", "v.unary.txt", "v.truth.txt", "pred.txt"):
            write_labels(seq, tmp_path / name)
        truth = str(tmp_path / "v.truth.txt")
        report = ["--label-space", str(ges), "--report", str(tmp_path / "report")]
        assert main(["eval", "--pred", str(tmp_path / "v.full.txt"), str(tmp_path / "v.unary.txt"),
                     "--truth", truth, truth, *report]) == 2
        assert "'v'" in capsys.readouterr().err
        assert main(["eval", "--pred", str(tmp_path / "v.full.txt"), "--truth", truth, truth,
                     *report]) == 2
        assert "same count" in capsys.readouterr().err
        assert main(["eval", "--pred", str(tmp_path / "pred.txt"), "--truth", truth, *report]) == 0
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        assert list(doc["per_video_accuracy"]) == ["pred"]

    def test_eval_empty_pair_exits_2_without_report(self, tmp_path, capsys):
        # accuracy over no frames is NaN, which report.json cannot carry
        _, ges, _ = write_spaces(tmp_path)
        (tmp_path / "v.full.txt").write_text("")
        (tmp_path / "v.truth.txt").write_text("\n")
        report_dir = tmp_path / "report"
        assert main(["eval", "--pred", str(tmp_path / "v.full.txt"),
                     "--truth", str(tmp_path / "v.truth.txt"), "--label-space", str(ges),
                     "--report", str(report_dir)]) == 2
        assert "'v'" in capsys.readouterr().err
        assert not report_dir.exists()

    def test_eval_report_that_is_a_file_exits_2_before_reading(self, tmp_path, capsys,
                                                               monkeypatch):
        # this used to fail only after every file was read and scored
        _, ges, _ = write_spaces(tmp_path)
        monkeypatch.setattr(cli, "read_truth", None)  # any prediction or truth read exits 3
        report = tmp_path / "report"
        check_out_file_rejected(capsys, ["eval", "--pred", str(tmp_path / "v.full.txt"),
                                         "--truth", str(tmp_path / "v.truth.txt"),
                                         "--label-space", str(ges), "--report", str(report)],
                                report, "--report")

    def test_full_mode_needs_change_model(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel = tmp_path / "state.bin"
        main(["train-state", "--features", *feats, "--truth", *truths,
              "--label-space", str(ges), "--epochs", "50", "--out", str(smodel)])
        rc = main(["infer", "--features", feats[0], "--state-model", str(smodel),
                   "--mode", "full", "--lambda", "1.0"])
        assert rc == 2
        rc = main(["infer", "--features", feats[0], "--state-model", str(smodel),
                   "--mode", "full", "--change-model", str(smodel), "--d", "3"])
        assert rc == 2

    def test_state_model_without_label_space_exits_2_before_reading_features(self, tmp_path,
                                                                              capsys):
        # a change model, or a state model detached from a label space, names no
        # predicted state; infer scored and decoded the stream before failing
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        cmodel, detached = tmp_path / "change.bin", tmp_path / "detached.bin"
        assert main(["train-change", "--features", *feats, "--truth", *truths,
                     "--label-space", str(ges), "--epochs", "5", "--d", "3",
                     "--out", str(cmodel)]) == 0
        classify.save_model(classify.LinearModel(np.ones((3, 6)), np.zeros(3), None,
                                                 classify.TrainConfig()), detached)
        full = ["--mode", "full", "--change-model", str(cmodel), "--d", "3", "--lambda", "1.0"]
        for model, features in product((cmodel, detached), (feats[0], tmp_path / "none.feat")):
            for mode in (full, ["--mode", "unary"]):
                capsys.readouterr()
                assert main(["infer", "--features", str(features), "--state-model", str(model),
                             *mode, "--out", str(tmp_path / "pred.txt")]) == 2
                assert "--state-model" in capsys.readouterr().err
        assert not (tmp_path / "pred.txt").exists()

    def test_unary_mode_rejects_full_mode_options(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel = tmp_path / "state.bin"
        assert main(["train-state", "--features", *feats, "--truth", *truths,
                     "--label-space", str(ges), "--epochs", "20", "--out", str(smodel)]) == 0
        unary = ["infer", "--features", feats[0], "--state-model", str(smodel), "--mode", "unary"]
        for extra in (["--change-model", str(smodel)], ["--d", "3"], ["--lambda", "1.0"],
                      ["--cv-result", str(tmp_path / "chosen.json")]):
            capsys.readouterr()
            assert main([*unary, *extra]) == 2
            assert extra[0] in capsys.readouterr().err
        assert main([*unary, "--out", str(tmp_path / "pred.txt")]) == 0

    def test_numeric_lambda_rejects_cv_result(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "20"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        full = ["infer", "--features", feats[0], "--state-model", str(smodel), "--mode", "full",
                "--change-model", str(cmodel), "--d", "3", "--lambda", "2"]
        capsys.readouterr()
        assert main([*full, "--cv-result", str(tmp_path / "does-not-exist.json")]) == 2
        err = capsys.readouterr().err
        assert "--cv-result" in err and "--lambda" in err
        assert main([*full, "--out", str(tmp_path / "pred.txt")]) == 0

    def test_cv_result_alone_gives_lambda_and_the_model_gives_d(self, tmp_path):
        # lambda from a cv run was spelled --lambda auto --cv-result, and
        # full mode needed --d, whose only accepted value is the model's
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "20"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        chosen = tmp_path / "chosen.json"
        chosen.write_text(json.dumps({"C": 1.0, "d": 3, "lambda": 20.0}))
        full = ["infer", "--features", feats[0], "--state-model", str(smodel), "--mode", "full",
                "--change-model", str(cmodel)]
        preds = {name: tmp_path / f"{name}.txt" for name in ("cv", "20", "0")}
        assert main([*full, "--cv-result", str(chosen), "--out", str(preds["cv"])]) == 0
        for lam in ("20", "0"):
            assert main([*full, "--lambda", lam, "--out", str(preds[lam])]) == 0
        assert preds["cv"].read_bytes() == preds["20"].read_bytes()
        assert preds["cv"].read_bytes() != preds["0"].read_bytes()

    def test_lambda_from_exactly_one_option_before_reading_features(self, tmp_path, capsys,
                                                                    monkeypatch):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "5"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        chosen = tmp_path / "chosen.json"
        chosen.write_text(json.dumps({"C": 1.0, "d": 3, "lambda": 1.0}))
        reads = []
        read = features_mod.read_features
        monkeypatch.setattr(features_mod, "read_features",
                            lambda *a: reads.append(a) or read(*a))
        full = ["infer", "--features", feats[0], "--state-model", str(smodel), "--mode", "full",
                "--change-model", str(cmodel), "--out", str(tmp_path / "pred.txt")]
        both = ("--lambda", "--cv-result")
        for extra, named in ((["--lambda", "1.0", "--cv-result", str(chosen)], both),
                             (["--lambda", "auto", "--cv-result", str(chosen)], both),
                             ([], both),
                             (["--lambda", "auto"], ("--lambda",))):
            capsys.readouterr()
            assert main([*full, *extra]) == 2, extra
            err = capsys.readouterr().err
            assert all(flag in err for flag in named), (extra, err)
            assert reads == [], extra
            assert not (tmp_path / "pred.txt").exists()

    def test_unusable_c_reg_exits_2(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "20"]
        for c in ("nan", "inf", "1e-320", "0"):
            for cmd in (["train-state"], ["train-change", "--d", "3"]):
                out = tmp_path / "model.bin"
                capsys.readouterr()
                assert main([*cmd, *common, "--c-reg", c, "--out", str(out)]) == 2
                assert "c_reg" in capsys.readouterr().err
                assert not out.exists()

    def test_non_finite_lambda_exits_2(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "20"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        full = ["infer", "--features", feats[0], "--state-model", str(smodel), "--mode", "full",
                "--change-model", str(cmodel), "--d", "3"]
        for lam in ("nan", "inf"):
            pred = tmp_path / "pred.txt"
            capsys.readouterr()
            assert main([*full, "--lambda", lam, "--out", str(pred)]) == 2
            assert "lam" in capsys.readouterr().err
            assert not pred.exists()

    def test_unusable_lambda_or_d_exits_2_before_reading_features(self, tmp_path, capsys):
        # each used to report the missing features file, and with a real file
        # to score the whole stream before rejecting the value
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "5"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        missing = str(tmp_path / "missing.feat")
        full = ["infer", "--features", missing, "--state-model", str(smodel), "--mode", "full",
                "--change-model", str(cmodel)]
        for argv, flag in (([*full, "--d", "3", "--lambda", "-1"], "--lambda"),
                           ([*full, "--d", "3", "--lambda", "nan"], "--lambda"),
                           ([*full, "--d", "3", "--lambda", "one"], "--lambda"),
                           ([*full, "--d", "0", "--lambda", "1.0"], "--d"),
                           (["detect-changes", "--features", missing, "--model", str(cmodel),
                             "--d", "0"], "--d")):
            capsys.readouterr()
            assert main(argv) == 2
            assert flag in capsys.readouterr().err

    def test_train_change_rejects_d_below_one_before_reading_or_solving(
            self, tmp_path, capsys, monkeypatch):
        # --d 0 ran one whole solve before LinearModel refused the d, and
        # --d -1 exited with a numpy broadcast message
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2, n_frames=100)
        reads, solves = [], []
        read, solve = features_mod.read_features, classify._solve_subgradient
        monkeypatch.setattr(features_mod, "read_features",
                            lambda *a: reads.append(a) or read(*a))
        monkeypatch.setattr(classify, "_solve_subgradient",
                            lambda *a: solves.append(a) or solve(*a))
        out = tmp_path / "change.bin"
        for d in ("0", "-1"):
            capsys.readouterr()
            assert main(["train-change", "--features", *feats, "--truth", *truths,
                         "--label-space", str(ges), "--d", d, "--out", str(out)]) == 2
            assert "--d" in capsys.readouterr().err
            assert reads == [] and solves == [], d
            assert not out.exists()
        pairs = [(read(f), read_truth(Path(t), gesture_space())) for f, t in zip(feats, truths)]
        for d in (0, -1):
            with pytest.raises(ValueError, match="d must be >= 1"):
                change.train_change_model([s for s, _ in pairs], [t for _, t in pairs], d)
        assert solves == []

    def test_models_checked_before_reading_features(self, tmp_path, capsys, monkeypatch):
        # detect-changes read the stream before it loaded --model, and
        # infer --mode full before it loaded --change-model
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "5"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        damaged, version_1 = tmp_path / "damaged.bin", tmp_path / "v1.bin"
        damaged.write_bytes(cmodel.read_bytes()[:-3])
        data = bytearray(cmodel.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        version_1.write_bytes(bytes(data))
        reads = []
        read = features_mod.read_features
        monkeypatch.setattr(features_mod, "read_features",
                            lambda *a: reads.append(a) or read(*a))
        for model, d, message in ((tmp_path / "missing.bin", "3", "missing.bin"),
                                  (damaged, "3", "does not fit"),
                                  (version_1, "3", "unsupported version 1"),
                                  (cmodel, "4", "trained with d=3, not --d 4"),
                                  (smodel, "3", "not a change model")):
            for argv in (["detect-changes", "--features", feats[0], "--model", str(model)],
                         ["infer", "--features", feats[0], "--state-model", str(smodel),
                          "--mode", "full", "--lambda", "1.0", "--change-model", str(model)]):
                capsys.readouterr()
                assert main([*argv, "--d", d, "--out", str(tmp_path / "out.txt")]) == 2
                assert message in capsys.readouterr().err
                assert reads == [], (model, d, argv[0])
                assert not (tmp_path / "out.txt").exists()
        assert main(["detect-changes", "--features", feats[0], "--model", str(cmodel),
                     "--d", "3"]) == 0
        assert len(reads) == 1

    def test_d_differing_from_change_model_rejected(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "20"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        capsys.readouterr()
        assert main(["detect-changes", "--features", feats[0], "--model", str(cmodel),
                     "--d", "4"]) == 2
        assert "d=3" in capsys.readouterr().err
        assert main(["infer", "--features", feats[0], "--state-model", str(smodel),
                     "--mode", "full", "--change-model", str(cmodel), "--d", "4",
                     "--lambda", "1.0"]) == 2
        assert main(["detect-changes", "--features", feats[0], "--model", str(cmodel),
                     "--d", "3"]) == 0

    def test_d_from_cv_result_named_by_its_file(self, tmp_path, capsys):
        # the mismatch read "not --d 4" though no --d was given
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "5"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        chosen = tmp_path / "chosen.json"
        chosen.write_text(json.dumps({"C": 1.0, "d": 4, "lambda": 1.0}))
        capsys.readouterr()
        assert main(["infer", "--features", feats[0], "--state-model", str(smodel),
                     "--mode", "full", "--cv-result", str(chosen),
                     "--change-model", str(cmodel)]) == 2
        err = capsys.readouterr().err
        assert f"trained with d=3, not d=4 of --cv-result {chosen}" in err
        assert "--d" not in err

    def test_every_d_given_checked_against_the_change_model(self, tmp_path, capsys):
        # with --d given, the --cv-result's d was ignored: a d=3 cv result
        # decoded with a d=6 change model and exited 0
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "5"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "6", "--out", str(cmodel)]) == 0
        chosen, consistent = tmp_path / "chosen.json", tmp_path / "consistent.json"
        chosen.write_text(json.dumps({"C": 1.0, "d": 3, "lambda": 1.0}))
        consistent.write_text(json.dumps({"C": 1.0, "d": 6, "lambda": 1.0}))
        full = ["infer", "--features", feats[0], "--state-model", str(smodel),
                "--mode", "full", "--change-model", str(cmodel)]
        out = tmp_path / "out.txt"
        for argv, message in (
            ([*full, "--d", "6", "--cv-result", str(chosen)],
             f"trained with d=6, not d=3 of --cv-result {chosen}"),
            ([*full, "--d", "3", "--cv-result", str(chosen)], "trained with d=6, not --d 3"),
            ([*full, "--d", "3", "--lambda", "1.0"], "trained with d=6, not --d 3"),
            (["detect-changes", "--features", feats[0], "--model", str(cmodel), "--d", "3"],
             "trained with d=6, not --d 3"),
        ):
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == 2
            assert f"error: --{'change-' if argv[0] == 'infer' else ''}model {cmodel}: " \
                f"{message}\n" == capsys.readouterr().err
            assert not out.exists()
        # a consistent --cv-result decodes as its lambda given by --lambda does
        assert main([*full, "--lambda", "1.0", "--out", str(out)]) == 0
        expected = out.read_text()
        assert main([*full, "--d", "6", "--cv-result", str(consistent), "--out", str(out)]) == 0
        assert out.read_text() == expected

    def test_lambda_from_cv_result_named_by_its_file(self, tmp_path, capsys):
        # an unusable lambda read "--lambda -1.0" though no --lambda was given
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "5"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        chosen = tmp_path / "chosen.json"
        chosen.write_text(json.dumps({"C": 1.0, "d": 3, "lambda": -1.0}))
        capsys.readouterr()
        assert main(["infer", "--features", feats[0], "--state-model", str(smodel),
                     "--mode", "full", "--cv-result", str(chosen),
                     "--change-model", str(cmodel)]) == 2
        err = capsys.readouterr().err
        assert f"error: lambda=-1.0 of --cv-result {chosen}: lam must be" in err
        assert "--lambda" not in err

    def test_damaged_model_named_by_its_option_and_path(self, tmp_path, capsys):
        # a damaged model file printed only "malformed model file: ..." or
        # "truncated model file: ...", whichever option had named it
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        common = ["--features", *feats, "--truth", *truths, "--label-space", str(ges),
                  "--epochs", "5"]
        assert main(["train-state", *common, "--out", str(smodel)]) == 0
        assert main(["train-change", *common, "--d", "3", "--out", str(cmodel)]) == 0
        damaged = tmp_path / "damaged.bin"
        damaged.write_bytes(cmodel.read_bytes()[:-3])
        # a state model's header saying K=3, D=5 under a 2-label space
        rows = tmp_path / "rows.bin"
        x, y = np.random.default_rng(3).standard_normal((6, 5)), np.arange(6) % 2
        two = classify.model_bytes(train_arrays(x, y, free_active(), classify.TrainConfig(1.0, 1)))
        rows.write_bytes(two[: -(2 * 5 + 2) * 8 - 8] + struct.pack("<II", 3, 5)
                         + bytes((3 * 5 + 3) * 8))
        full = ["infer", "--features", feats[0], "--mode", "full", "--lambda", "1.0", "--d", "3"]
        for argv, flag, bad, message in (
            ([*full, "--state-model", str(damaged), "--change-model", str(cmodel)],
             "--state-model", damaged, ""),
            ([*full, "--state-model", str(smodel), "--change-model", str(damaged)],
             "--change-model", damaged, ""),
            (["detect-changes", "--features", feats[0], "--model", str(damaged), "--d", "3"],
             "--model", damaged, ""),
            ([*full, "--state-model", str(rows), "--change-model", str(cmodel)],
             "--state-model", rows, ": weight rows must match the label count\n"),
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert f"error: {flag} {bad}: malformed model file{message}" \
                in capsys.readouterr().err

    def test_change_model_of_another_width_exits_2(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        rng = np.random.default_rng(6)
        truth = tmp_path / "v.truth.txt"
        write_labels(StateSequence(gesture_space(), np.arange(40) // 10 % 3), truth)
        streams = {}
        for dim in (8, 16):
            streams[dim] = tmp_path / f"v{dim}.feat"
            write_features(FeatureStream("v", Camera.HEAD, 6.0, rng.standard_normal((40, dim))),
                           streams[dim])
        common = ["--truth", str(truth), "--label-space", str(ges), "--epochs", "2"]
        smodel, cmodel = tmp_path / "state.bin", tmp_path / "change.bin"
        assert main(["train-state", "--features", str(streams[16]), *common,
                     "--out", str(smodel)]) == 0
        assert main(["train-change", "--features", str(streams[8]), *common, "--d", "3",
                     "--out", str(cmodel)]) == 0
        out = tmp_path / "out.txt"
        for argv in (["detect-changes", "--features", str(streams[16]), "--model", str(cmodel)],
                     ["infer", "--features", str(streams[16]), "--state-model", str(smodel),
                      "--mode", "full", "--lambda", "1.0", "--change-model", str(cmodel)]):
            capsys.readouterr()
            assert main([*argv, "--out", str(out)]) == 2, argv[0]
            assert capsys.readouterr().err == \
                "error: change model dim 8 does not match stream dim 16\n", argv[0]
            assert not out.exists()


class TestAlign:
    def test_align_videos(self, tmp_path, capsys):
        hand = smooth_patch(24, 24, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 30, 30), synth.VideoSpec("vb", 1.0, 42, 23)]
        synth.gen_video_set(hand, specs, (120, 90), 9, 60.0, 1, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(
            f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n"
        )
        out = tmp_path / "aligned"
        assert main(["align", "--manifest", str(manifest), "--out", str(out)]) == 0
        report = json.loads((out / "alignment.json").read_text())
        assert set(report["videos"]) == {"va", "vb"}
        assert (out / "va" / "frame_000000.ppm").exists()
        assert (out / "vb" / "frame_000008.ppm").exists()

    def test_indented_comment_line_skipped(self, tmp_path):
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(
            f"  # two videos\n{tmp_path / 'videos' / 'va'}\n\n{tmp_path / 'videos' / 'vb'}\n"
        )
        assert main(["align", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--scales", "1.0"]) == 0

    def test_duplicate_video_ids_rejected(self, tmp_path, capsys):
        # ids are directory names: a/cam and b/cam collide, and so does a
        # directory listed twice
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("cam", 1.0, 4, 4), synth.VideoSpec("cam2", 1.0, 10, 6)]
        for parent in ("a", "b"):
            synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                                out_dir=tmp_path / parent)
        out = tmp_path / "aligned"
        for dirs in (["a/cam", "b/cam", "a/cam2"], ["a/cam", "a/cam"]):
            manifest = tmp_path / "videos.txt"
            manifest.write_text("".join(f"{tmp_path / d}\n" for d in dirs))
            capsys.readouterr()
            assert main(["align", "--manifest", str(manifest), "--out", str(out),
                         "--scales", "1.0"]) == 2
            assert "video id 'cam'" in capsys.readouterr().err
            assert not out.exists()

    def test_one_video_exits_2(self, tmp_path, capsys):
        synth.gen_video_set(smooth_patch(8, 8, seed=5), [synth.VideoSpec("va", 1.0, 4, 4)],
                            (24, 18), 3, 20.0, 0, seed=11, out_dir=tmp_path / "videos")
        manifest, out = tmp_path / "videos.txt", tmp_path / "aligned"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n")
        assert main(["align", "--manifest", str(manifest), "--out", str(out),
                     "--scales", "1.0"]) == 2
        assert "error: alignment needs at least two videos" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_keeps_one_small_frame_per_video(self, tmp_path, traced_peak):
        # pass 1 kept two float64 images of every video until align ended:
        # the peak grew by about 16 uint8 frames per video. It now grows by
        # 1.1 (the uint8 median and the stable component), and the bound
        # leaves 0.4 of margin: one more uint8 frame kept per video reads
        # 2.1. v00's smaller hand makes it the reference of every run, so
        # each run matches the same template at the one scale, and only what
        # is kept per video can differ between the peaks.
        synth.gen_video_set(smooth_patch(8, 8, seed=5), [synth.VideoSpec("v00", 1.0, 20, 20)],
                            (64, 48), 6, 60.0, 1, seed=11, out_dir=tmp_path / "videos")
        rng = np.random.default_rng(8)
        specs = [synth.VideoSpec(f"v{i:02d}", 1.0, int(rng.integers(2, 46)),
                                 int(rng.integers(2, 30))) for i in range(1, 12)]
        synth.gen_video_set(smooth_patch(16, 16, seed=5), specs, (64, 48), 6, 60.0, 1,
                            seed=11, out_dir=tmp_path / "videos")
        peaks = {}
        for n in (2, 2, 12):  # the first run loads what any run loads once
            manifest = tmp_path / f"videos{n}.txt"
            manifest.write_text("".join(f"{tmp_path / 'videos' / f'v{i:02d}'}\n"
                                        for i in range(n)))
            out = tmp_path / f"out{n}"
            peaks[n], code = traced_peak(main, ["align", "--manifest", str(manifest),
                                                "--out", str(out), "--scales", "1.0"])
            assert code == 0
            assert json.loads((out / "alignment.json").read_text())["reference_video_id"] == "v00"
        assert peaks[12] - peaks[2] <= 1.5 * 64 * 48 * 3 * (12 - 2)

    def test_rerun_with_shorter_videos_leaves_no_stale_frames(self, tmp_path):
        # aligning 3-frame videos into an --out that holds 5-frame ones used
        # to leave frames 3 and 4 behind
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        out = tmp_path / "aligned"
        for n_frames in (5, 3):
            synth.gen_video_set(hand, specs, (24, 18), n_frames, 20.0, 0, seed=11,
                                out_dir=tmp_path / "videos")
            assert main(["align", "--manifest", str(manifest), "--out", str(out),
                         "--scales", "1.0"]) == 0
        for vid in ("va", "vb"):
            assert sorted(p.name for p in (tmp_path / "videos" / vid).iterdir()) == [
                f"frame_{i:06d}.ppm" for i in range(3)]
            assert sorted(p.name for p in (out / vid).iterdir()) == [
                f"frame_{i:06d}.ppm" for i in range(3)]

    def test_rerun_with_fewer_videos_leaves_no_stale_videos(self, tmp_path):
        # aligning va vb vc and then va vb into one --out used to leave vc/
        # while alignment.json listed only va and vb
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec(v, 1.0, 4 + 3 * i, 4 + i)
                 for i, v in enumerate(("va", "vb", "vc"))]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        out = tmp_path / "aligned"
        (out / "notes").mkdir(parents=True)
        (out / "notes" / "keep.txt").write_text("not a frame\n")
        (out / "readme.txt").write_text("not a video\n")
        for vids in (("va", "vb", "vc"), ("va", "vb")):
            manifest.write_text("".join(f"{tmp_path / 'videos' / v}\n" for v in vids))
            assert main(["align", "--manifest", str(manifest), "--out", str(out),
                         "--scales", "1.0"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "alignment.json", "notes", "readme.txt", "va", "vb"]
        assert set(json.loads((out / "alignment.json").read_text())["videos"]) == {"va", "vb"}
        assert [p.name for p in (out / "notes").iterdir()] == ["keep.txt"]

    def test_stale_video_keeps_its_other_files(self, tmp_path):
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec(v, 1.0, 4 + 3 * i, 4 + i) for i, v in enumerate(("va", "vb"))]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        out = tmp_path / "aligned"
        synth.gen_video_set(hand, [synth.VideoSpec("vc", 1.0, 4, 4)], (24, 18), 3, 20.0, 0,
                            seed=11, out_dir=out)
        (out / "vc" / "notes.txt").write_text("not a frame\n")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        assert main(["align", "--manifest", str(manifest), "--out", str(out),
                     "--scales", "1.0"]) == 0
        assert [p.name for p in (out / "vc").iterdir()] == ["notes.txt"]
        assert len(list((out / "va").iterdir())) == 3

    def test_frame_numbers_past_999999_exit_2(self, tmp_path, capsys):
        # frames 0, 1 and 1,000,000 used to load as a 2-frame video
        hand = smooth_patch(8, 8, seed=5)
        video = tmp_path / "videos" / "va"
        synth.gen_video_set(hand, [synth.VideoSpec("va", 1.0, 4, 4)], (24, 18), 2, 20.0, 0,
                            seed=11, out_dir=tmp_path / "videos")
        (video / "frame_000001.ppm").rename(video / "frame_1000000.ppm")
        (video / "frame_000001.ppm").write_bytes((video / "frame_1000000.ppm").read_bytes())
        capsys.readouterr()
        assert main(["extract", "--video", str(video), "--out", str(tmp_path / "x.feat")]) == 2
        assert "not contiguous" in capsys.readouterr().err

    def test_unreadable_video_leaves_no_output(self, tmp_path, capsys):
        hand = smooth_patch(8, 8, seed=5)
        synth.gen_video_set(hand, [synth.VideoSpec("va", 1.0, 4, 4)], (24, 18), 3, 20.0, 0,
                            seed=11, out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'gone'}\n")
        out = tmp_path / "aligned"
        assert main(["align", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "gone" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_of_another_size_named_in_both_passes(self, tmp_path, capsys, monkeypatch):
        # pass 1 used to say only "frame 1 has shape ...", naming no file
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        wide = np.zeros((18, 25, 3), dtype=np.uint8)
        args = ["align", "--manifest", str(manifest), "--out", str(tmp_path / "aligned"),
                "--scales", "1.0"]

        bad = frame_path(tmp_path / "videos" / "vb", 1)
        save_ppm(wide, bad)
        capsys.readouterr()
        assert main(args) == 2
        assert f"{bad} has shape (18, 25, 3), expected (18, 24, 3)" in capsys.readouterr().err

        # pass 2: the frame changes size after pass 1 placed the video
        save_ppm(np.zeros((18, 24, 3), dtype=np.uint8), bad)
        place = alignment.align_videos

        def place_then_resize_a_frame(*a, **k):
            result = place(*a, **k)
            save_ppm(wide, bad)
            return result

        monkeypatch.setattr(alignment, "align_videos", place_then_resize_a_frame)
        assert main(args) == 2
        assert f"{bad} has shape (18, 25, 3), expected (18, 24, 3)" in capsys.readouterr().err

    def test_non_finite_parameters_rejected(self, tmp_path, capsys):
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        out = tmp_path / "aligned"
        for extra, name in ((["--scales", "inf"], "scales"), (["--scales", "1", "nan"], "scales"),
                            (["--scales", "1", "-1"], "scales"),
                            (["--scales", "1", "0"], "scales"),
                            (["--beta-threshold", "nan"], "beta_threshold"),
                            (["--beta-threshold", "inf"], "beta_threshold"),
                            (["--beta-threshold", "0"], "beta_threshold")):
            capsys.readouterr()
            assert main(["align", "--manifest", str(manifest), "--out", str(out), *extra]) == 2
            assert name in capsys.readouterr().err
            assert not out.exists()

    def test_peak_memory_follows_one_video(self, tmp_path, capsys, traced_peak):
        # align holds one video's frames at a time: two more videos add only
        # their pixel statistics (two float64 images each, a quarter of a
        # 64-frame video), not their frames
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec(f"v{i}", 1.0, 3 + 4 * i, 2 + 3 * i) for i in range(4)]
        synth.gen_video_set(hand, specs, (32, 24), 64, 30.0, 0, seed=3,
                            out_dir=tmp_path / "videos")
        video_bytes = 64 * 24 * 32 * 3

        def peak(n):
            manifest = tmp_path / f"videos{n}.txt"
            manifest.write_text("".join(f"{tmp_path / 'videos' / f'v{i}'}\n" for i in range(n)))
            traced, rc = traced_peak(main, ["align", "--manifest", str(manifest),
                                            "--out", str(tmp_path / f"out{n}"), "--scales", "1.0"])
            assert rc == 0
            return traced

        peak(2)  # first call: one-time allocations of the libraries
        two, four = peak(2), peak(4)
        assert four <= 1.3 * two
        assert four - two < video_bytes

    def test_video_named_like_the_report_exits_2_before_a_frame_is_read(
            self, tmp_path, capsys, monkeypatch):
        # a video directory named alignment.json aligned the corpus into
        # --out/alignment.json/, then failed to write the report there
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("alignment.json", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text("".join(f"{tmp_path / 'videos' / s.video_id}\n" for s in specs))
        monkeypatch.setattr(cli.media, "load_video_dir", None)  # any frame read exits 3
        out = tmp_path / "aligned"
        assert main(["align", "--manifest", str(manifest), "--out", str(out),
                     "--scales", "1.0"]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: video id 'alignment.json'" in err
        assert not out.exists()

    def test_out_that_is_a_file_exits_2_before_a_frame_is_read(
            self, tmp_path, capsys, monkeypatch):
        # an --out that is a file failed only after pass 1 and the template search
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        monkeypatch.setattr(cli.media, "load_video_dir", None)  # any frame read exits 3
        out = tmp_path / "aligned"
        out.write_text("not a directory\n")
        assert main(["align", "--manifest", str(manifest), "--out", str(out),
                     "--scales", "1.0"]) == 2
        assert f"--out {out}: not a directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"


    def test_out_holding_a_file_named_like_a_video_exits_2_before_a_frame_is_read(
            self, tmp_path, capsys, monkeypatch):
        # this used to fail after pass 1, naming neither the video nor --out,
        # with the other video's aligned frames already written
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        monkeypatch.setattr(cli.media, "load_video_dir", None)  # any frame read exits 3
        out = tmp_path / "aligned"
        out.mkdir()
        (out / "vb").write_text("not a video\n")
        assert main(["align", "--manifest", str(manifest), "--out", str(out),
                     "--scales", "1.0"]) == 2
        assert f"video 'vb': --out {out / 'vb'}: not a directory" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["vb"]

    def test_scale_beyond_any_frame_size_exits_2_before_out(self, tmp_path, capsys,
                                                            monkeypatch):
        # the frame size of 1e308 used to overflow: exit 3 (OverflowError);
        # 1000 asked resize_to for a 24,000 x 18,000 frame, which the wrapper
        # below refuses instead of allocating
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        resize = alignment.resize_to

        def resize_within_budget(pixels, width, height):
            if 3 * 8 * width * height > synth.MAX_STREAM_BYTES:
                pytest.fail(f"resize_to asked for a {width} x {height} frame")
            return resize(pixels, width, height)

        monkeypatch.setattr(alignment, "resize_to", resize_within_budget)
        out = tmp_path / "aligned"
        for scale, named in (("1e308", "scale 1e+308"), ("1000", "scale 1000.0")):
            capsys.readouterr()
            assert main(["align", "--manifest", str(manifest), "--out", str(out),
                         "--scales", "1", scale]) == 2
            assert named in capsys.readouterr().err
            assert not out.exists()
        assert main(["align", "--manifest", str(manifest), "--out", str(out),
                     "--scales", "1", "1.5"]) == 0


def write_discover_inputs(tmp_path):
    """Two videos with alternating active runs over two object categories:
    four active segments. Returns (fa space, object space, manifest)."""
    fa, _, obj = write_spaces(tmp_path)
    obj_space = LabelSpace(
        Task.OBJECT_CATEGORY,
        ("free", "cup", "kettle") + tuple(f"obj{i:02d}" for i in range(21)), 0,
    )
    rng = np.random.default_rng(0)
    manifest_lines = []
    for vi in range(2):
        n = 60
        states = np.zeros(n, dtype=int)
        obj_truth = np.zeros(n, dtype=int)
        values = rng.standard_normal((n, 4)) * 0.05
        for r, (start, cat) in enumerate([(10, 1), (30, 2)]):
            states[start : start + 10] = 1
            obj_truth[start : start + 10] = cat
            values[start : start + 10] += np.eye(4)[cat] * 3.0
        stream = FeatureStream(f"v{vi}", Camera.RIGHT_HAND, 6.0, values)
        fpath = tmp_path / f"v{vi}.feat"
        write_features(stream, fpath)
        pred = StateSequence(free_active(), states)
        ppath = tmp_path / f"v{vi}.fa.txt"
        write_labels(pred, ppath)
        truth = StateSequence(obj_space, obj_truth)
        tpath = tmp_path / f"v{vi}.obj.txt"
        write_labels(truth, tpath)
        manifest_lines.append(f"{fpath}\t{ppath}\t{tpath}")
    manifest = tmp_path / "discover.txt"
    manifest.write_text("\n".join(manifest_lines) + "\n")
    return fa, obj, manifest


class TestDiscover:
    def test_cluster_rows_quote_video_ids(self, tmp_path):
        # an id with a comma split its row: "0,objects,00,10,20,0" read as end 10 and cluster 20
        fa, obj, manifest = write_discover_inputs(tmp_path)
        ids = {"v0": "objects,00", "v1": 'say "hi"\nthere'}
        for old, new in ids.items():
            stream = read_features(tmp_path / f"{old}.feat")
            write_features(FeatureStream(new, stream.camera, stream.fps, stream.values),
                           tmp_path / f"{old}.feat")
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:2", "--out", str(out)]) == 0
        with open(out / "clusters_k2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["segment", "video_id", "start", "end", "cluster"]
        assert [row[1] for row in rows[1:]] == [ids["v0"]] * 2 + [ids["v1"]] * 2
        assert [row[2:4] for row in rows[1:]] == [["10", "20"], ["30", "40"]] * 2
        assert {row[4] for row in rows[1:]} == {"0", "1"}

    def test_discover_with_purity(self, tmp_path, capsys):
        fa, obj, manifest = write_discover_inputs(tmp_path)
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:2", "--out", str(out)]) == 0
        purity = (out / "purity.csv").read_text().splitlines()
        k, p = purity[1].split(",")
        assert k == "2" and float(p) == 1.0  # well-separated categories

    def test_k_values_come_from_k_range_only(self, tmp_path, capsys):
        fa, obj, manifest = write_discover_inputs(tmp_path)
        common = ["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                  "--object-space", str(obj), "--out", str(tmp_path / "disc")]
        assert main([*common, "--k", "3", "--k-range", "2:2"]) == 1  # no --k option
        assert main(common) == 1  # --k-range is required
        assert not (tmp_path / "disc").exists()
        assert main([*common, "--k-range", "3:9"]) == 0  # k above 4 segments skipped
        assert sorted(p.name for p in (tmp_path / "disc").iterdir()) == [
            "clusters_k3.csv", "clusters_k4.csv", "purity.csv",
        ]

    def test_rerun_leaves_no_stale_clusters_or_purity(self, tmp_path, capsys):
        # a rerun with a smaller k range and no object truth kept
        # clusters_k3.csv, clusters_k4.csv and the old purity.csv
        fa, obj, manifest = write_discover_inputs(tmp_path)
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:4", "--out", str(out)]) == 0
        for name in ("notes.txt", "clusters_kx.csv", "purity.csv.bak"):
            (out / name).write_text("not an output\n")
        manifest.write_text("".join(line.rsplit("\t", 1)[0] + "\n"
                                    for line in manifest.read_text().splitlines()))
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--k-range", "2:2", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "clusters_k2.csv", "clusters_kx.csv", "notes.txt", "purity.csv.bak"]

    def test_empty_or_invalid_k_range_rejected(self, tmp_path, capsys):
        fa, obj, manifest = write_discover_inputs(tmp_path)
        out = tmp_path / "disc"
        for k_range in ("5:3", "500:600", "0:2", "2", "a:b"):
            capsys.readouterr()
            assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                         "--object-space", str(obj), "--k-range", k_range,
                         "--out", str(out)]) == 2
            assert "--k-range" in capsys.readouterr().err
            assert not out.exists()

    def test_object_space_without_truth_column_exits_2_before_out(self, tmp_path, capsys):
        # purity needs object truth; discover wrote clusters and dropped the space
        fa, obj, manifest = write_discover_inputs(tmp_path)
        manifest.write_text("".join(line.rsplit("\t", 1)[0] + "\n"
                                    for line in manifest.read_text().splitlines()))
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:2", "--out", str(out)]) == 2
        assert "--object-space" in capsys.readouterr().err
        assert not out.exists()
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--k-range", "2:2", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["clusters_k2.csv"]

    def test_object_space_with_truth_column_on_some_lines_exits_2_before_out(
            self, tmp_path, capsys):
        # purity needs object truth for every video's segments
        fa, obj, manifest = write_discover_inputs(tmp_path)
        first, *rest = manifest.read_text().splitlines()
        manifest.write_text("\n".join([first.rsplit("\t", 1)[0], *rest]) + "\n")
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:2", "--out", str(out)]) == 2
        assert "--object-space" in capsys.readouterr().err
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--k-range", "2:2", "--out", str(out)]) == 2
        assert "--object-space" in capsys.readouterr().err
        assert not out.exists()

    def test_video_id_given_twice_exits_2_before_out(self, tmp_path, capsys):
        # v0 listed twice clustered its segments twice: purity 1.5 at k=2 and k=3
        fa, obj, manifest = write_discover_inputs(tmp_path)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*lines, lines[0]]) + "\n")
        out = tmp_path / "disc"
        for space in (["--object-space", str(obj)], []):
            if not space:  # the feature and prediction columns only
                manifest.write_text("".join(line.rsplit("\t", 1)[0] + "\n"
                                            for line in manifest.read_text().splitlines()))
            capsys.readouterr()
            assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                         *space, "--k-range", "2:3", "--out", str(out)]) == 2
            assert "video id 'v0'" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("n_lines", [35, 80])
    def test_object_truth_length_differs_from_stream_exits_2_before_out(
            self, tmp_path, capsys, n_lines):
        # 35 lines wrote clusters_k2.csv before purity failed; 80 lines exited
        # 0 with the 20 extra active frames in purity's denominator
        fa, obj, manifest = write_discover_inputs(tmp_path)
        truth = tmp_path / "v1.obj.txt"
        lines = truth.read_text().splitlines() + ["cup"] * 20
        truth.write_text("\n".join(lines[:n_lines]) + "\n")
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{truth}: {n_lines} frames" in err and "60" in err
        assert not out.exists()

    def test_one_column_line_rejected(self, tmp_path, capsys):
        fa, _, _ = write_spaces(tmp_path)
        stream = FeatureStream("v0", Camera.RIGHT_HAND, 6.0, np.ones((4, 2)))
        fpath = tmp_path / "v0.feat"
        write_features(stream, fpath)
        ppath = tmp_path / "v0.fa.txt"
        ppath.write_text("active\n" * 4)
        manifest = tmp_path / "discover.txt"
        manifest.write_text(f"# features, predictions\n{fpath}\t{ppath}\n{fpath}\n")
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--k-range", "1:1", "--out", str(tmp_path / "disc")]) == 2
        assert f"{manifest}:3:" in capsys.readouterr().err

    def test_prediction_length_differs_from_stream_exits_2_naming_the_file(
            self, tmp_path, capsys):
        # the error was only "sequence and stream lengths differ"
        fa, obj, manifest = write_discover_inputs(tmp_path)
        pred = tmp_path / "v1.fa.txt"
        pred.write_text("".join(pred.read_text().splitlines(keepends=True)[:50]))
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{pred}: 50 frames" in err and f"60 frames of {tmp_path / 'v1.feat'}" in err
        assert not out.exists()

    def test_streams_of_different_dims_exit_2_before_out(self, tmp_path, capsys):
        # numpy's "inhomogeneous shape" error, with an empty --out left behind
        fa, obj, manifest = write_discover_inputs(tmp_path)
        fpath = tmp_path / "v1.feat"
        stream = read_features(fpath)
        write_features(FeatureStream("v1", Camera.RIGHT_HAND, 6.0,
                                     np.hstack([stream.values, stream.values[:, :1]])), fpath)
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{fpath}: 5 feature dims" in err and f"4 of {tmp_path / 'v0.feat'}" in err
        assert not out.exists()


    def test_out_that_is_a_file_exits_2_before_reading_features(self, tmp_path, capsys,
                                                                monkeypatch):
        # this used to fail only after every segment was clustered
        fa, obj, manifest = write_discover_inputs(tmp_path)
        monkeypatch.setattr(cli.features_mod, "read_features", None)  # any read exits 3
        out = tmp_path / "disc"
        check_out_file_rejected(capsys, ["discover", "--manifest", str(manifest),
                                         "--fa-space", str(fa), "--object-space", str(obj),
                                         "--k-range", "2:2", "--out", str(out)], out)


class TestStageFunctions:
    """The stage functions called with plain values, as a program chaining
    stages in one process calls them, do what their subcommands do."""

    def test_run_discover_writes_what_discover_writes(self, tmp_path, capsys):
        fa, obj, manifest = write_discover_inputs(tmp_path)
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k-range", "2:3",
                     "--out", str(tmp_path / "cli")]) == 0
        purities = cli.run_discover(manifest, fa, obj, k_lo=2, k_hi=3, out=tmp_path / "run")
        assert sorted(purities) == [2, 3]
        written = {p.name: p.read_bytes() for p in (tmp_path / "cli").iterdir()}
        assert sorted(written) == ["clusters_k2.csv", "clusters_k3.csv", "purity.csv"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == written

    def test_write_manifest_hashes_a_large_file_in_blocks(self, tmp_path, traced_peak):
        # each file was read whole to be hashed: a manifest held its largest output
        data = np.random.default_rng(0).bytes(16 << 20)
        (tmp_path / "big.feat").write_bytes(data)
        peak, _ = traced_peak(cli.write_manifest, tmp_path, "extract", {},
                              {"features": tmp_path / "big.feat"})
        assert peak < 4 << 20
        doc = json.loads((tmp_path / "manifest.json").read_text())
        digest = hashlib.sha256(data).hexdigest()
        assert doc["inputs"] == {"features": digest} and doc["outputs"] == {"big.feat": digest}

    def test_run_align_returns_the_result_its_report_records(self, tmp_path):
        hand = smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.1, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(f"{tmp_path / 'videos' / 'va'}\n{tmp_path / 'videos' / 'vb'}\n")
        out = tmp_path / "aligned"
        doc = cli.run_align(manifest, out, beta_threshold=40.0, scales=(1.0, 1.1))
        assert json.loads((out / "alignment.json").read_text()) == doc
        write_json(doc, tmp_path / "returned.json")
        assert (tmp_path / "returned.json").read_bytes() == (out / "alignment.json").read_bytes()

    def test_run_cv_writes_the_documents_cross_validate_returns(self, tmp_path):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=5, n_frames=80)
        plan = crossval.CrossValPlan(c_grid=(0.1, 1.0), d_grid=(3, 6), lambda_grid=(0.3, 3.0))
        out = tmp_path / "cv"
        chosen = cli.run_cv(list(zip(feats, truths)), ges, plan, 30, out)
        videos = [(read_features(f), read_truth(Path(t), gesture_space()))
                  for f, t in zip(feats, truths)]
        result = crossval.cross_validate(videos, plan, 30)
        assert result.chosen == chosen == json.loads((out / "chosen.json").read_text())
        with (out / "table.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["C", "d", "lambda", "mean_accuracy"]
        assert [(float(c), int(d), float(lam), float(acc)) for c, d, lam, acc in rows] == list(
            result.table)


class TestCv:
    def test_cv_command(self, tmp_path):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=5,
                                            n_frames=100)
        manifest = tmp_path / "cv.txt"
        manifest.write_text(
            "\n".join(f"{f}\t{t}" for f, t in zip(feats, truths)) + "\n"
        )
        out = tmp_path / "cv_out"
        assert main(["cv", "--manifest", str(manifest), "--label-space", str(ges),
                     "--c-grid", "0.1", "--d-grid", "3", "--lambda-grid", "0.5", "1.0",
                     "--epochs", "60", "--out", str(out)]) == 0
        chosen = json.loads((out / "chosen.json").read_text())
        assert chosen["C"] == 0.1 and chosen["d"] == 3
        assert len((out / "table.csv").read_text().splitlines()) == 3

        # infer with --cv-result decodes at the cv result's lambda
        smodel = tmp_path / "state.bin"
        cmodel = tmp_path / "change.bin"
        assert main(["train-state", "--features", *feats, "--truth", *truths,
                     "--label-space", str(ges), "--c-reg", "0.1", "--epochs", "60",
                     "--out", str(smodel)]) == 0
        assert main(["train-change", "--features", *feats, "--truth", *truths,
                     "--label-space", str(ges), "--c-reg", "0.1", "--epochs", "60",
                     "--d", str(chosen["d"]), "--out", str(cmodel)]) == 0
        pred = tmp_path / "pred_auto.txt"
        assert main(["infer", "--features", feats[0], "--state-model", str(smodel),
                     "--mode", "full", "--change-model", str(cmodel),
                     "--cv-result", str(out / "chosen.json"), "--out", str(pred)]) == 0
        assert len(pred.read_text().splitlines()) == 100

    def test_unusable_grid_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=5,
                                            n_frames=60)
        manifest = tmp_path / "cv.txt"
        manifest.write_text("\n".join(f"{f}\t{t}" for f, t in zip(feats, truths)) + "\n")

        def no_training(*args):
            raise AssertionError("the grid must be checked before any training")

        monkeypatch.setattr(classify, "_solve_subgradient", no_training)
        cv = ["cv", "--manifest", str(manifest), "--label-space", str(ges), "--epochs", "5",
              "--out", str(tmp_path / "cv_out")]
        for grid, name in ((["--lambda-grid", "1", "nan"], "lambda"),
                           (["--lambda-grid", "inf"], "lambda"),
                           (["--c-grid", "nan"], "c_reg"),
                           (["--d-grid", "0"], "d grid")):
            capsys.readouterr()
            assert main([*cv, *grid]) == 2
            assert name in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2_before_reading_features(self, tmp_path, capsys,
                                                                monkeypatch):
        # this used to fail only after the whole grid search
        _, ges, _ = write_spaces(tmp_path)
        manifest = tmp_path / "cv.txt"
        manifest.write_text("a.feat\ta.truth.txt\n" * 5)
        monkeypatch.setattr(cli.features_mod, "read_features", None)  # any read exits 3
        out = tmp_path / "cv_out"
        check_out_file_rejected(capsys, ["cv", "--manifest", str(manifest), "--label-space",
                                         str(ges), "--out", str(out)], out)

    def test_lambda_auto_without_cv_result_fails(self, tmp_path, capsys):
        # lambda from a cv run is --cv-result alone; a missing file is an error
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel = tmp_path / "state.bin"
        main(["train-state", "--features", *feats, "--truth", *truths,
              "--label-space", str(ges), "--epochs", "50", "--out", str(smodel)])
        rc = main(["infer", "--features", feats[0], "--state-model", str(smodel),
                   "--mode", "full", "--change-model", str(smodel),
                   "--cv-result", str(tmp_path / "chosen.json")])
        assert rc == 2
        assert "chosen.json" in capsys.readouterr().err


def pipeline_config(tmp_path, **hyper):
    labels = ("free",) + tuple(f"g{i:02d}" for i in range(1, 13))
    save_label_space(LabelSpace(Task.GESTURE, labels, 0), tmp_path / "labels.txt")
    config = {
        "seed": 11,
        "label_space": "labels.txt",
        "synth": {"train_videos": 4, "test_videos": 2, "frames": 200, "states": 3,
                  "dim": 6, "min_dwell": 20, "noise_sigma": 0.6},
        "hyperparameters": {"C": 0.1, "d": 3, "lambda": 1.0, **hyper},
        "training": {"epochs": 120},
    }
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config))
    return path


class TestPipeline:
    def test_end_to_end_and_deterministic_rerun(self, tmp_path):
        cfg = pipeline_config(tmp_path)
        acc1 = run_pipeline(cfg, tmp_path / "run1")
        acc2 = run_pipeline(cfg, tmp_path / "run2")
        assert acc1 == acc2
        digests = []
        for run in ("run1", "run2"):
            tree = {}
            for p in sorted((tmp_path / run).rglob("*")):
                if p.is_file():
                    tree[str(p.relative_to(tmp_path / run))] = hashlib.sha256(
                        p.read_bytes()
                    ).hexdigest()
            digests.append(tree)
        assert digests[0] == digests[1]
        assert not any("INCOMPLETE" in name for name in digests[0])
        summary = json.loads((tmp_path / "run1" / "summary.json").read_text())
        assert 0.0 <= summary["accuracy_unary"] <= 1.0
        assert summary["accuracy_full"] >= summary["accuracy_unary"] - 0.05
        # values pinned on first execution; the run is fully seeded
        assert abs(summary["accuracy_full"] - 0.9125) < 1e-9
        assert abs(summary["accuracy_unary"] - 0.7575) < 1e-9

    def test_manifest_outputs_exist_and_match(self, tmp_path):
        cfg = pipeline_config(tmp_path)
        run = tmp_path / "run"
        run_pipeline(cfg, run)
        # a rerun into the same --out lists what the earlier run left
        (run / "02_state_model" / "notes.txt").write_text("left by hand\n")
        run_pipeline(cfg, run)
        manifests = sorted(run.glob("*/manifest.json"))
        assert [m.parent.name for m in manifests] == [
            "00_synth", "02_state_model", "03_change_model", "04_candidates",
            "05_predictions", "06_eval_full", "06_eval_unary",
        ]
        for manifest in manifests:
            outputs = json.loads(manifest.read_text())["outputs"]
            assert sorted(outputs) == sorted(p.name for p in manifest.parent.iterdir()
                                             if p.name != "manifest.json")
            for name, digest in outputs.items():
                path = manifest.parent / name
                assert path.is_file(), f"{manifest.parent.name} lists missing {name}"
                assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert sorted(json.loads((run / "02_state_model" / "manifest.json").read_text())[
            "outputs"]) == ["notes.txt", "state.bin"]

    def test_out_that_is_a_file_exits_2_before_any_stage(self, tmp_path, capsys, monkeypatch):
        # this used to fail making 00_synth/ with "[Errno 20] Not a directory"
        monkeypatch.setattr(cli.features_mod, "write_features", None)  # any write exits 3
        out = tmp_path / "run"
        check_out_file_rejected(capsys, ["pipeline", "--config", str(pipeline_config(tmp_path)),
                                         "--out", str(out)], out)

    def test_file_where_a_stage_directory_goes_names_the_stage(self, tmp_path, capsys):
        # this used to exit 2 with an unnamed "[Errno 17] File exists"
        out = tmp_path / "run"
        out.mkdir()
        (out / "03_change_model").write_text("not a directory\n")
        cfg = pipeline_config(tmp_path)
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 2
        assert "stage 'train-change' failed" in capsys.readouterr().err
        assert (out / "03_change_model").read_text() == "not a directory\n"
        assert not (out / "02_state_model" / "INCOMPLETE").exists()

    def test_stage_failure_names_stage_and_marks_incomplete(self, tmp_path, capsys,
                                                            monkeypatch):
        # a config is checked before any stage; a full disk fails inside one
        def disk_full(*args):
            raise OSError("No space left on device")

        monkeypatch.setattr(cli.features_mod, "write_features", disk_full)
        cfg = pipeline_config(tmp_path)
        rc = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'synth' failed" in err
        assert (tmp_path / "o" / "00_synth" / "INCOMPLETE").exists()

    def test_streams_over_the_budget_exit_2_before_out(self, tmp_path, capsys, monkeypatch):
        def no_generation(*args, **kwargs):
            raise AssertionError("the budget must be checked before generating")

        monkeypatch.setattr(synth, "random_centers", no_generation)
        cfg = pipeline_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["synth"].update(train_videos=6, test_videos=4, frames=10**6, dim=10**5)
        cfg.write_text(json.dumps(doc))
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("counts, hyper", [
        ({"train_videos": 0}, {}),
        ({"test_videos": 0}, {}),
        ({"train_videos": -1, "test_videos": 4}, {}),
        ({"train_videos": 4}, {"C": "auto"}),
        ({"train_videos": 4}, {"d": "auto"}),
        ({"train_videos": 4}, {"lambda": "auto"}),
    ])
    def test_too_few_videos_exit_2_before_out(self, tmp_path, capsys, monkeypatch, counts,
                                              hyper):
        # each of these used to fail only at a later stage, after 00_synth/ was written
        def no_generation(*args, **kwargs):
            raise AssertionError("the video counts must be checked before generating")

        monkeypatch.setattr(synth, "gen_feature_set", no_generation)
        cfg = pipeline_config(tmp_path, **hyper)
        doc = json.loads(cfg.read_text())
        doc["synth"].update(counts)
        cfg.write_text(json.dumps(doc))
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "videos" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, values, named", [
        ("training", {"epochs": 0}, "epochs"),
        (None, {"fps": 0}, "fps"),
        ("synth", {"min_dwell": 0}, "min_dwell"),
        ("synth", {"noise_sigma": -1}, "noise_sigma"),
        ("synth", {"transition_ramp": -1}, "transition_ramp"),
        ("synth", {"states": 1}, "states"),
        ("hyperparameters", {"C": -1}, "c_reg"),
        ("hyperparameters", {"d": 0}, "d grid"),
        ("hyperparameters", {"lambda": -1}, "lambda"),
        ("synth", {"frames": 5}, "frames"),  # with d = 3: 2d+1 = 7 frames
    ])
    def test_value_a_stage_rejects_exits_2_before_any_stage(self, tmp_path, capsys, section,
                                                            values, named):
        # each of these used to fail inside a stage, leaving a run tree
        cfg = pipeline_config(tmp_path)
        doc = json.loads(cfg.read_text())
        (doc[section] if section else doc).update(values)
        cfg.write_text(json.dumps(doc))
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_more_synth_states_than_labels_exit_2_before_00_synth(self, tmp_path, capsys):
        # synth's own check of the label space rejects it before any stage directory
        cfg = pipeline_config(tmp_path)
        save_label_space(free_active(), tmp_path / "fa.txt")
        doc = json.loads(cfg.read_text())
        doc["label_space"] = "fa.txt"  # 2 labels for the config's 3 states
        cfg.write_text(json.dumps(doc))
        (tmp_path / "run").mkdir()
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "label space too small for the configured state count" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []

    def test_empty_cv_grid_named_before_any_stage(self, tmp_path, capsys):
        # printed only "grids must be non-empty", naming neither grid nor config
        cfg = pipeline_config(tmp_path, C="auto")
        doc = json.loads(cfg.read_text())
        doc["synth"]["train_videos"] = 5
        doc["cv"] = {"c_grid": []}
        cfg.write_text(json.dumps(doc))
        assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: C grid is empty\n"
        assert not (tmp_path / "run").exists()

    def test_missing_label_space_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({
            "seed": 1, "label_space": "missing_labels.txt",
            "synth": {"train_videos": 2, "test_videos": 1, "frames": 60, "states": 2,
                      "dim": 4, "min_dwell": 10, "noise_sigma": 0.5},
            "hyperparameters": {"C": 0.1, "d": 3, "lambda": 1.0},
        }))
        rc = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "missing_labels.txt" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = pipeline_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["surprise"] = 1
        cfg.write_text(json.dumps(doc))
        rc = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err

    @staticmethod
    def rebuild_with_subcommands(run, labels, out, c_reg, d, lam, epochs, give_d=True):
        """Run the subcommands by hand over the pipeline run's 00_synth/
        files, writing each file where the pipeline's stage writes it.
        lam is a value or the path of a chosen.json; detect-changes and
        infer --mode full take d from the change model, and with give_d
        from --d as well."""
        synth_dir = run / "00_synth"
        train = sorted(p.name.split(".")[0] for p in synth_dir.glob("train_*.feat"))
        test = sorted(p.name.split(".")[0] for p in synth_dir.glob("test_*.feat"))
        feats = {v: str(synth_dir / f"{v}.feat") for v in train + test}
        truths = {v: str(synth_dir / f"{v}.truth.txt") for v in train + test}
        common = ["--features", *(feats[v] for v in train), "--truth",
                  *(truths[v] for v in train), "--label-space", str(labels),
                  "--c-reg", repr(c_reg), "--epochs", str(epochs)]
        state = out / "02_state_model" / "state.bin"
        change_model = out / "03_change_model" / "change.bin"
        d_args = ["--d", str(d)] if give_d else []
        lam_args = ["--cv-result", str(lam)] if isinstance(lam, Path) else ["--lambda", repr(lam)]
        for sub in ("02_state_model", "03_change_model", "04_candidates", "05_predictions"):
            (out / sub).mkdir(parents=True)
        assert main(["train-state", *common, "--out", str(state)]) == 0
        assert main(["train-change", *common, "--d", str(d), "--out", str(change_model)]) == 0
        for v in test:
            assert main(["detect-changes", "--features", feats[v], "--model", str(change_model),
                         *d_args, "--out", str(out / "04_candidates" / f"{v}.txt")]) == 0
            model = ["--features", feats[v], "--state-model", str(state)]
            assert main(["infer", *model, "--mode", "full", "--change-model", str(change_model),
                         *d_args, *lam_args,
                         "--out", str(out / "05_predictions" / f"{v}.full.txt")]) == 0
            assert main(["infer", *model, "--mode", "unary",
                         "--out", str(out / "05_predictions" / f"{v}.unary.txt")]) == 0
        for tag in ("full", "unary"):
            assert main(["eval", "--pred", *(str(out / "05_predictions" / f"{v}.{tag}.txt")
                                             for v in test),
                         "--truth", *(truths[v] for v in test), "--label-space", str(labels),
                         "--report", str(out / f"06_eval_{tag}")]) == 0

    @staticmethod
    def stage_files(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.glob("0[2-6]_*/*"))
                if p.is_file() and p.name != "manifest.json"}

    def test_subcommands_rebuild_every_stage_from_its_files(self, tmp_path):
        # the pipeline once trained and decoded on float64 streams no file
        # holds, so its models and candidates could not be rebuilt from 00_synth/
        cfg = pipeline_config(tmp_path)
        run = tmp_path / "run"
        run_pipeline(cfg, run)
        for give_d in (True, False):
            rebuilt = tmp_path / f"rebuilt_{give_d}"
            self.rebuild_with_subcommands(run, tmp_path / "labels.txt", rebuilt,
                                          c_reg=0.1, d=3, lam=1.0, epochs=120, give_d=give_d)
            got = self.stage_files(rebuilt)
            assert len(got) == 16  # 2 models, 2 candidate files, 4 predictions, 2 x 4 reports
            assert got == self.stage_files(run), give_d

    def test_cv_rebuilds_the_auto_stage(self, tmp_path):
        cfg = pipeline_config(tmp_path, C="auto", d="auto", **{"lambda": "auto"})
        doc = json.loads(cfg.read_text())
        doc["synth"]["train_videos"] = 5
        # integers in the JSON grids read as the same floats as on the command line
        doc["cv"] = {"c_grid": [0.1, 1], "d_grid": [3, 6], "lambda_grid": [0.5, 1]}
        doc["training"] = {"epochs": 40}
        cfg.write_text(json.dumps(doc))
        run = tmp_path / "run"
        run_pipeline(cfg, run)
        synth_dir = run / "00_synth"
        pairs = tmp_path / "train.txt"
        pairs.write_text("".join(f"{synth_dir / f'train_{i:02d}.feat'}\t"
                                 f"{synth_dir / f'train_{i:02d}.truth.txt'}\n" for i in range(5)))
        cv = tmp_path / "cv"
        assert main(["cv", "--manifest", str(pairs), "--label-space", str(tmp_path / "labels.txt"),
                     "--c-grid", "0.1", "1", "--d-grid", "3", "6", "--lambda-grid", "0.5",
                     "1", "--epochs", "40", "--out", str(cv)]) == 0
        for name in ("chosen.json", "table.csv"):
            assert (cv / name).read_bytes() == (run / "01_cv" / name).read_bytes()
        chosen = json.loads((cv / "chosen.json").read_text())
        rebuilt = tmp_path / "rebuilt"
        self.rebuild_with_subcommands(run, tmp_path / "labels.txt", rebuilt, c_reg=chosen["C"],
                                      d=chosen["d"], lam=cv / "chosen.json", epochs=40,
                                      give_d=False)
        assert self.stage_files(rebuilt) == self.stage_files(run)

    def test_auto_lambda_via_cv(self, tmp_path):
        cfg = pipeline_config(tmp_path, **{"lambda": "auto"})
        doc = json.loads(cfg.read_text())
        doc["synth"]["train_videos"] = 5
        doc["cv"] = {"lambda_grid": [0.5, 1.0]}
        doc["training"] = {"epochs": 60}
        cfg.write_text(json.dumps(doc))
        acc = run_pipeline(cfg, tmp_path / "auto_run")
        chosen = json.loads((tmp_path / "auto_run" / "01_cv" / "chosen.json").read_text())
        assert chosen["lambda"] in (0.5, 1.0)
        assert 0.0 <= acc["full"] <= 1.0


class TestSynthCommand:
    def test_synth_features(self, tmp_path):
        _, ges, _ = write_spaces(tmp_path)
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"seed": 3, "states": 3, "dim": 4, "frames": 80,
                                   "min_dwell": 10, "noise_sigma": 0.4, "videos": 2}))
        out = tmp_path / "data"
        assert main(["synth", "features", "--config", str(cfg), "--out", str(out),
                     "--label-space", str(ges)]) == 0
        stream = read_features(out / "video_00.feat")
        assert stream.n_frames == 80
        assert len((out / "video_00.truth.txt").read_text().splitlines()) == 80

    def test_synth_features_train_on_own_output(self, tmp_path):
        _, ges, _ = write_spaces(tmp_path)
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"seed": 3, "states": 3, "dim": 4, "frames": 80,
                                   "min_dwell": 10, "noise_sigma": 0.4, "videos": 2}))
        out = tmp_path / "data"
        assert main(["synth", "features", "--config", str(cfg), "--out", str(out),
                     "--label-space", str(ges)]) == 0
        assert set((out / "video_00.truth.txt").read_text().split()) <= {"free", "g01", "g02"}
        assert main(["train-state", "--features", str(out / "video_00.feat"),
                     str(out / "video_01.feat"), "--truth", str(out / "video_00.truth.txt"),
                     str(out / "video_01.truth.txt"), "--label-space", str(ges),
                     "--epochs", "20", "--out", str(tmp_path / "state.bin")]) == 0

    def test_streams_over_the_budget_exit_2_before_out(self, tmp_path, capsys, monkeypatch):
        # 10^12 values used to be allocated without a bound; the set's first
        # allocation raises here, so a missing check fails fast instead
        _, ges, _ = write_spaces(tmp_path)

        def no_generation(*args, **kwargs):
            raise ValueError("the generator ran")

        monkeypatch.setattr(synth, "random_centers", no_generation)
        cfg = tmp_path / "synth.json"
        out = tmp_path / "data"
        doc = {"seed": 3, "states": 3, "min_dwell": 10, "noise_sigma": 0.4}
        for videos, frames, dim, error in ((10, 10**6, 10**5, "budget"),
                                           (1, 2**28 + 1, 1, "budget"),
                                           (1, 2**28, 1, "the generator ran")):
            cfg.write_text(json.dumps({**doc, "videos": videos, "frames": frames, "dim": dim}))
            capsys.readouterr()
            assert main(["synth", "features", "--config", str(cfg), "--out", str(out),
                         "--label-space", str(ges)]) == 2
            assert error in capsys.readouterr().err
            assert not out.exists()

    def test_out_that_is_a_file_exits_2_before_any_stream(self, tmp_path, capsys,
                                                          monkeypatch):
        # this used to fail with "[Errno 17] File exists", naming no option
        _, ges, _ = write_spaces(tmp_path)
        monkeypatch.setattr(synth, "gen_feature_set", None)  # any stream drawn exits 3
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"seed": 3, "states": 3, "dim": 4, "frames": 80,
                                   "min_dwell": 10, "noise_sigma": 0.4, "videos": 2}))
        out = tmp_path / "data"
        check_out_file_rejected(capsys, ["synth", "features", "--config", str(cfg), "--out",
                                         str(out), "--label-space", str(ges)], out)

    def test_memory_holds_one_stream(self, tmp_path, traced_peak):
        # the streams are drawn and written one at a time: 8 videos of
        # 2,000 x 64 float64 values, 1 MB each. The peak is 2.11 streams (a
        # stream, its drawing's trajectory and its float32 payload), and the
        # bound leaves 0.39 of margin: the previous stream still alive while
        # the next is drawn reads 3.1, and holding the whole set peaked at 9.2
        _, ges, _ = write_spaces(tmp_path)
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"seed": 3, "states": 3, "dim": 64, "frames": 2_000,
                                   "min_dwell": 10, "noise_sigma": 0.4, "videos": 8}))
        argv = ["synth", "features", "--config", str(cfg), "--out", str(tmp_path / "data"),
                "--label-space", str(ges)]
        assert main(argv) == 0  # first-call allocations are not what this measures
        peak, rc = traced_peak(main, argv)
        assert rc == 0
        assert peak < 2.5 * 2_000 * 64 * 8, peak / (2_000 * 64 * 8)

    def test_empty_feature_set_exit_2_before_out(self, tmp_path, capsys):
        # frames 0 used to exit 2 after making --out, videos 0 exited 0
        # with an empty directory, states 0 exited 3 and states -1 named no key
        _, ges, _ = write_spaces(tmp_path)
        cfg = tmp_path / "synth.json"
        out = tmp_path / "data"
        doc = {"seed": 3, "states": 3, "dim": 4, "frames": 80, "min_dwell": 10,
               "noise_sigma": 0.4, "videos": 2}
        for key, value in (("frames", 0), ("frames", -3), ("videos", 0), ("videos", -1),
                           ("dim", 0), ("states", 0), ("states", -1)):
            cfg.write_text(json.dumps({**doc, key: value}))
            capsys.readouterr()
            assert main(["synth", "features", "--config", str(cfg), "--out", str(out),
                         "--label-space", str(ges)]) == 2, key
            assert key in capsys.readouterr().err
            assert not out.exists(), (key, value)

    def test_values_beyond_float32_exit_2_without_a_feat_file(self, tmp_path, capsys):
        # finite float64 values past float32's range were written as inf,
        # and read_features then rejected the file it had just been given
        _, ges, _ = write_spaces(tmp_path)
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"seed": 3, "states": 3, "dim": 4, "frames": 80,
                                   "min_dwell": 10, "noise_sigma": 1e39, "videos": 2}))
        out = tmp_path / "data"
        assert main(["synth", "features", "--config", str(cfg), "--out", str(out),
                     "--label-space", str(ges)]) == 2
        assert "float32" in capsys.readouterr().err
        assert not list(out.glob("*.feat"))

    def test_synth_videos(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({
            "seed": 5, "frames": 3, "frame_width": 40, "frame_height": 30,
            "hand_width": 10, "hand_height": 10, "noise_sigma": 20.0, "jitter": 0,
            "videos": [{"video_id": "v0", "scale": 1.0, "dx": 5, "dy": 5}],
        }))
        out = tmp_path / "vids"
        assert main(["synth", "videos", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "v0" / "frame_000002.ppm").exists()
        truth = json.loads((out / "ground_truth.json").read_text())
        assert truth["v0"]["dx"] == 5

    def test_synth_videos_stay_inside_out(self, tmp_path, capsys):
        # "../escaped" used to exit 0 and write frames next to --out
        doc = {"seed": 5, "frames": 2, "frame_width": 40, "frame_height": 30,
               "hand_width": 10, "hand_height": 10, "noise_sigma": 20.0, "jitter": 0}
        cfg = tmp_path / "synth.json"
        out = tmp_path / "sub" / "vids"
        for bad in ("../escaped", "", ".", "..", "a/b", str(tmp_path / "abs"), "a" + os.sep + "b"):
            cfg.write_text(json.dumps(
                {**doc, "videos": [{"video_id": bad, "scale": 1.0, "dx": 5, "dy": 5}]}
            ))
            capsys.readouterr()
            assert main(["synth", "videos", "--config", str(cfg), "--out", str(out)]) == 2, bad
            assert "video id" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["synth.json"], bad


class TestSynthVideos:
    """`synth videos` checks its whole config before it writes anything, and
    writes one frame at a time."""

    DOC = {"seed": 5, "frames": 3, "frame_width": 40, "frame_height": 30,
           "hand_width": 10, "hand_height": 10, "noise_sigma": 20.0, "jitter": 1,
           "videos": [{"video_id": "va", "scale": 1.0, "dx": 5, "dy": 5},
                      {"video_id": "vb", "scale": 1.2, "dx": 12, "dy": 8}]}

    def run(self, tmp_path, **changes):
        cfg = tmp_path / "videos.json"
        cfg.write_text(json.dumps({**self.DOC, **changes}))
        return main(["synth", "videos", "--config", str(cfg), "--out", str(tmp_path / "out")])

    def check_rejected(self, tmp_path, capsys, message, **changes):
        capsys.readouterr()
        assert self.run(tmp_path, **changes) == 2, changes
        assert message in capsys.readouterr().err, changes
        assert not (tmp_path / "out").exists(), changes

    def test_no_frames_exit_2_before_out(self, tmp_path, capsys):
        # frames 0 and -3 used to exit 0 with empty video directories
        for frames in (0, -3):
            self.check_rejected(tmp_path, capsys, "frames", frames=frames)
        self.check_rejected(tmp_path, capsys, "videos", videos=[])

    def test_repeated_video_id_exit_2_before_out(self, tmp_path, capsys):
        # the second "va" used to overwrite the first, and the truth kept one entry
        videos = [self.DOC["videos"][0], {**self.DOC["videos"][1], "video_id": "va"}]
        self.check_rejected(tmp_path, capsys, "id", videos=videos)

    def test_second_hand_out_of_frame_writes_no_first_video(self, tmp_path, capsys):
        # exit 2 used to come after the first video was written into --out
        videos = [self.DOC["videos"][0], {**self.DOC["videos"][1], "dx": 40}]
        self.check_rejected(tmp_path, capsys, "vb: hand out of frame", videos=videos)

    def test_negative_noise_or_jitter_exit_2_before_out(self, tmp_path, capsys):
        # both used to be taken as 0
        self.check_rejected(tmp_path, capsys, "noise_sigma", noise_sigma=-1.0)
        self.check_rejected(tmp_path, capsys, "jitter", jitter=-1)

    def test_frame_over_the_budget_exit_2_before_out(self, tmp_path, capsys):
        # a 10^6 x 10^6 frame used to exit 3 (MemoryError) and leave --out
        self.check_rejected(tmp_path, capsys, "budget", frame_width=10**6,
                            frame_height=10**6)
        # so did a hand too large to allocate, in a frame that is too small for it
        self.check_rejected(tmp_path, capsys, "out of frame", hand_width=10**6,
                            hand_height=10**6)

    def test_scale_beyond_any_frame_size_exit_2_before_out(self, tmp_path, capsys):
        # the frame size of such a scale used to overflow: exit 3 (OverflowError)
        videos = [self.DOC["videos"][0], {**self.DOC["videos"][1], "scale": 1e308}]
        self.check_rejected(tmp_path, capsys, "scale 1e+308", videos=videos)

    def test_out_that_is_a_file_exits_2_before_any_frame(self, tmp_path, capsys, monkeypatch):
        # this used to fail with "[Errno 20] Not a directory", naming no option
        monkeypatch.setattr(synth, "gen_video_set", None)  # any video rendered exits 3
        cfg = tmp_path / "videos.json"
        cfg.write_text(json.dumps(self.DOC))
        out = tmp_path / "out"
        check_out_file_rejected(capsys, ["synth", "videos", "--config", str(cfg), "--out",
                                         str(out)], out)

    def test_out_holding_a_file_named_like_a_video_exits_2_before_any_frame(self, tmp_path,
                                                                            capsys):
        # this used to exit 2 with an unnamed "[Errno 17] File exists", after
        # the other video's frames were written
        out = tmp_path / "out"
        out.mkdir()
        (out / "vb").write_text("not a video\n")
        capsys.readouterr()
        assert self.run(tmp_path) == 2
        assert f"video 'vb': --out {out / 'vb'}: not a directory" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["vb"]

    def test_rewrite_with_fewer_frames_leaves_no_stale_frames(self, tmp_path):
        # writing 3 frames over 5 used to read back 5
        video = tmp_path / "out" / "va"
        for frames in (5, 3):
            assert self.run(tmp_path, frames=frames) == 0
            (video / "notes.txt").write_text("kept")
        assert sorted(p.name for p in video.iterdir()) == [
            "frame_000000.ppm", "frame_000001.ppm", "frame_000002.ppm", "notes.txt"]
        assert len(load_video_dir(video)) == 3

    def test_memory_follows_one_frame(self, tmp_path, capsys, traced_peak):
        # the parent held every frame of every video: +46 MB from 40 to 400
        # frames of 120 x 90
        doc = {**self.DOC, "frame_width": 120, "frame_height": 90, "hand_width": 24,
               "hand_height": 24, "videos": [{"video_id": "va", "scale": 1.2, "dx": 10,
                                              "dy": 10}]}
        cfg = tmp_path / "videos.json"

        def peak(frames):
            cfg.write_text(json.dumps({**doc, "frames": frames}))
            traced, rc = traced_peak(main, ["synth", "videos", "--config", str(cfg),
                                            "--out", str(tmp_path / f"out{frames}")])
            assert rc == 0
            return traced

        peak(40)  # first call: one-time allocations of the libraries
        forty, four_hundred = peak(40), peak(400)
        assert four_hundred <= forty + 0.5e6, (forty, four_hundred)
        assert len(load_video_dir(tmp_path / "out400" / "va")) == 400


class TestJsonInputs:
    """Damaged JSON documents the CLI reads are data errors (exit 2) naming
    the file and the key."""

    def run_synth(self, tmp_path, kind, doc):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(doc))
        _, ges, _ = write_spaces(tmp_path)
        extra = ["--label-space", str(ges)] if kind == "features" else []
        return main(["synth", kind, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     *extra])

    def test_synth_features_config(self, tmp_path, capsys):
        doc = {"seed": 3, "states": 3, "dim": 4, "frames": 80, "min_dwell": 10,
               "noise_sigma": 0.4, "videos": 2}
        for broken, key in (({k: v for k, v in doc.items() if k != "videos"}, "videos"),
                            ({**doc, "frames": "300"}, "frames"),
                            ({**doc, "videos": True}, "videos"),
                            ({**doc, "extra": 1}, "extra")):
            capsys.readouterr()
            assert self.run_synth(tmp_path, "features", broken) == 2
            err = capsys.readouterr().err
            assert "synth.json" in err and key in err
            assert not (tmp_path / "out").exists()

    def test_synth_videos_config(self, tmp_path, capsys):
        video = {"video_id": "v0", "scale": 1.0, "dx": 5, "dy": 5}
        doc = {"seed": 5, "frames": 3, "frame_width": 40, "frame_height": 30,
               "hand_width": 10, "hand_height": 10, "noise_sigma": 20.0, "jitter": 0}
        for videos, key in (([{k: v for k, v in video.items() if k != "dx"}], "dx"),
                            (video, "videos")):
            capsys.readouterr()
            assert self.run_synth(tmp_path, "videos", {**doc, "videos": videos}) == 2
            assert key in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_pipeline_config_value_types(self, tmp_path, capsys):
        cfg = pipeline_config(tmp_path)
        good = json.loads(cfg.read_text())
        for section, key, value in (("cv", "c_grid", 5), ("training", "epochs", "many"),
                                    ("hyperparameters", "d", 2.5), ("synth", "frames", None)):
            cfg.write_text(json.dumps({**good, section: {**good.get(section, {}), key: value}}))
            capsys.readouterr()
            assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "pipeline.json" in err and section in err and key in err
            assert not (tmp_path / "o").exists()

    def test_pipeline_non_finite_number_rejected(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity; a hyperparameter or grid
        # entry that is not finite fails before any stage runs
        cfg = pipeline_config(tmp_path)
        good = json.loads(cfg.read_text())
        for section, key, value in (("hyperparameters", "lambda", float("nan")),
                                    ("hyperparameters", "C", float("inf")),
                                    ("cv", "lambda_grid", [1.0, float("nan")])):
            doc = {**good, section: {**good.get(section, {}), key: value}}
            doc["hyperparameters"] = {**doc["hyperparameters"], "d": "auto"}
            cfg.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "pipeline.json" in err and key in err
            assert not (tmp_path / "o").exists()

    def test_repeated_or_malformed_json_rejected(self, tmp_path, capsys):
        # json.loads keeps the last of two equal keys; every reader refuses
        # them, and names the file when the JSON itself is broken
        cfg = pipeline_config(tmp_path)
        text = cfg.read_text()
        for damaged, expect in ((text.replace('"seed": 11', '"seed": 11, "seed": 12'), "seed"),
                                (text.replace('"C": 0.1', '"C": 0.1, "C": 0.1'), "'C'"),
                                (text[:-3], "pipeline.json")):
            cfg.write_text(damaged)
            capsys.readouterr()
            assert main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert "pipeline.json" in err and expect in err
            assert not (tmp_path / "o").exists()

    def test_chosen_json(self, tmp_path, capsys):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel = tmp_path / "state.bin"
        assert main(["train-state", "--features", *feats, "--truth", *truths,
                     "--label-space", str(ges), "--epochs", "20", "--out", str(smodel)]) == 0
        chosen = tmp_path / "chosen.json"
        for doc, expect in (({"C": 0.1, "d": 3}, "lambda"), ([0.1, 3, 1.0], "JSON object")):
            chosen.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["infer", "--features", feats[0], "--state-model", str(smodel),
                         "--mode", "full", "--change-model", str(smodel),
                         "--cv-result", str(chosen)]) == 2
            err = capsys.readouterr().err
            assert "chosen.json" in err and expect in err


def digest_tree(root):
    """`path under root -> sha256` of every file under root."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


# Writers run twice into one --out: `writer(tmp_path, out, step)` is the
# earlier, larger run at step 0 and the rerun at step 1.

def pipeline_writer(lam, test_videos):
    """`pipeline_config` on 5 train videos with lambda lam[step] and
    test_videos[step] test videos; "auto" cross-validates two lambdas."""
    def run(tmp_path, out, step):
        cfg = pipeline_config(tmp_path, **{"lambda": lam[step]})
        doc = json.loads(cfg.read_text())
        doc["synth"].update(train_videos=5, test_videos=test_videos[step])
        doc["cv"] = {"lambda_grid": [0.5, 1.0]}
        cfg.write_text(json.dumps(doc))
        run_pipeline(cfg, out)
    return run


def synth_features_writer(tmp_path, out, step):  # 3 videos, then 1
    _, ges, _ = write_spaces(tmp_path)
    cfg = tmp_path / "features.json"
    cfg.write_text(json.dumps({"seed": 3, "states": 3, "dim": 6, "frames": 50, "min_dwell": 10,
                               "noise_sigma": 0.5, "videos": (3, 1)[step]}))
    assert main(["synth", "features", "--config", str(cfg), "--out", str(out),
                 "--label-space", str(ges)]) == 0


VIDEOS = [{"video_id": v, "scale": 1.0, "dx": 4 + 3 * i, "dy": 4 + i}
          for i, v in enumerate(("va", "vb", "vc"))]


def synth_videos_writer(tmp_path, out, step):  # va vb vc, then va
    cfg = tmp_path / "videos.json"
    cfg.write_text(json.dumps({**TestSynthVideos.DOC, "videos": VIDEOS[: (3, 1)[step]]}))
    assert main(["synth", "videos", "--config", str(cfg), "--out", str(out)]) == 0


def align_writer(tmp_path, out, step):  # va vb vc, then va vb
    videos = tmp_path / "videos"
    synth_videos_writer(tmp_path, videos, 0)
    manifest = tmp_path / "videos.txt"
    manifest.write_text("".join(f"{videos / v['video_id']}\n" for v in VIDEOS[: 3 - step]))
    assert main(["align", "--manifest", str(manifest), "--out", str(out),
                 "--scales", "1.0"]) == 0


def discover_writer(tmp_path, out, step):  # k 2..4 with purity, then k 2 without
    fa, obj, manifest = write_discover_inputs(tmp_path)
    purity = ["--object-space", str(obj)]
    if step:
        manifest.write_text("".join(line.rsplit("\t", 1)[0] + "\n"
                                    for line in manifest.read_text().splitlines()))
        purity = []
    assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa), *purity,
                 "--k-range", ("2:4", "2:2")[step], "--out", str(out)]) == 0


def eval_writer(tmp_path, out, step):  # videos a b, then a
    _, ges, _ = write_spaces(tmp_path)
    seq = StateSequence(gesture_space(), np.array([0, 1, 1, 2]))
    preds, truth = [tmp_path / f"{v}.full.txt" for v in ("a", "b")[: 2 - step]], tmp_path / "v.txt"
    for path in (*preds, truth):
        write_labels(seq, path)
    assert main(["eval", "--pred", *map(str, preds), "--truth", *[str(truth)] * len(preds),
                 "--label-space", str(ges), "--report", str(out)]) == 0


class TestReruns:
    """A rerun into a used --out leaves the tree that a fresh run leaves,
    plus the files of other names that were put there."""

    # each kept stale files at the parent
    STALE = {
        "pipeline-test-videos-2-then-1": pipeline_writer((1.0, 1.0), (2, 1)),
        "pipeline-lambda-auto-then-0.3": pipeline_writer(("auto", 0.3), (2, 2)),
        "synth-features-3-then-1": synth_features_writer,
        "synth-videos-3-then-1": synth_videos_writer,
    }

    @pytest.mark.parametrize("writer", sorted(STALE))
    def test_rerun_equals_a_fresh_run(self, tmp_path, writer):
        for step, out in ((0, "used"), (1, "used"), (1, "fresh")):
            self.STALE[writer](tmp_path, tmp_path / out, step)
        assert digest_tree(tmp_path / "used") == digest_tree(tmp_path / "fresh")

    # writer -> {directory in --out: names the writer could not have written}
    FOREIGN = {
        "pipeline": (pipeline_writer(("auto", "auto"), (2, 1)), {
            "00_synth": ["notes.txt", "video_00.feat"], "01_cv": ["notes.txt"],
            "04_candidates": ["notes.txt"], "05_predictions": ["notes.txt"],
            "06_eval_full": ["notes.svg"]}),
        "pipeline-without-auto": (pipeline_writer(("auto", 0.3), (2, 2)),
                                  {"01_cv": ["notes.txt"]}),
        "synth-features": (synth_features_writer,
                           {".": ["notes.txt", "train_00.feat", "video_1.feat"]}),
        "synth-videos": (synth_videos_writer, {v: ["frame_1.ppm", "notes.txt"]
                                               for v in ("va", "vc")}),
        "align": (align_writer, {v: ["frame_1.ppm", "notes.txt"] for v in ("va", "vc")}),
        "discover": (discover_writer, {".": ["clusters_kx.csv", "notes.txt"]}),
        "eval": (eval_writer, {".": ["notes.svg", "timeline.svg"]}),
    }

    @pytest.mark.parametrize("writer", sorted(FOREIGN))
    def test_foreign_files_stay_and_manifests_list_them(self, tmp_path, writer):
        run, foreign = self.FOREIGN[writer]
        out = tmp_path / "out"
        run(tmp_path, out, 0)
        for sub, names in foreign.items():
            for name in names:
                (out / sub / name).write_text(f"left in {sub}\n")
        run(tmp_path, out, 1)
        for sub, names in foreign.items():
            for name in names:
                assert (out / sub / name).read_text() == f"left in {sub}\n", (sub, name)
            manifest = out / sub / "manifest.json"
            if manifest.exists():
                assert set(names) <= set(json.loads(manifest.read_text())["outputs"]), sub
