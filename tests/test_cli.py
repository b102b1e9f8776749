import hashlib
import json

import numpy as np

from handcam import synth
from handcam.cli import main, run_pipeline
from handcam.core import Camera, FeatureStream, LabelSpace, StateSequence, Task, save_label_space
from handcam.features import read_features, write_features


def gesture_space():
    labels = ("free",) + tuple(f"g{i:02d}" for i in range(1, 13))
    return LabelSpace(Task.GESTURE, labels, 0)


def write_spaces(tmp_path):
    fa = tmp_path / "fa.txt"
    save_label_space(LabelSpace.free_active(), fa)
    ges = tmp_path / "gesture.txt"
    save_label_space(gesture_space(), ges)
    obj = tmp_path / "objects.txt"
    labels = ("free", "cup", "kettle") + tuple(f"obj{i:02d}" for i in range(21))
    save_label_space(LabelSpace(Task.OBJECT_CATEGORY, labels, 0), obj)
    return fa, ges, obj


def make_labeled_videos(tmp_path, space, n_videos=2, seed=0, sigma=0.5, n_frames=120):
    centers = synth.orthonormal_centers(3, 6, seed + 50)
    feature_paths, truth_paths = [], []
    for i in range(n_videos):
        cfg = synth.SynthConfig(seed=seed * 10 + i, num_states=3, dim=6,
                                n_frames=n_frames, min_dwell=20, centers=centers,
                                noise_sigma=sigma)
        stream, truth = synth.gen_feature_stream(cfg, video_id=f"v{i}", label_space=space)
        fpath = tmp_path / f"v{i}.feat"
        tpath = tmp_path / f"v{i}.truth.txt"
        write_features(stream, fpath)
        tpath.write_text("\n".join(truth.label_names()) + "\n")
        feature_paths.append(str(fpath))
        truth_paths.append(str(tpath))
    return feature_paths, truth_paths


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["no-such-command"]) == 1

    def test_missing_file_is_2(self, capsys, tmp_path):
        rc = main(["infer", "--features", str(tmp_path / "nope.feat"),
                   "--state-model", str(tmp_path / "m.bin"), "--mode", "unary"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["--version"]) == 0


class TestExtractFuse:
    def test_extract_and_fuse(self, tmp_path, capsys):
        hand = synth.smooth_patch(10, 10, seed=1)
        synth.gen_video_set(hand, [synth.VideoSpec("vid0", 1.0, 4, 4)], (30, 24),
                            3, 20.0, 0, seed=2, out_dir=tmp_path)
        feat = tmp_path / "vid0.feat"
        assert main(["extract", "--video", str(tmp_path / "vid0"),
                     "--out", str(feat), "--bins", "4"]) == 0
        stream = read_features(feat)
        assert stream.n_frames == 3 and stream.dim == 64
        fused = tmp_path / "fused.feat"
        assert main(["fuse", "--inputs", str(feat), str(feat), "--out", str(fused)]) == 0
        assert read_features(fused).dim == 128


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


class TestAlign:
    def test_align_videos(self, tmp_path, capsys):
        hand = synth.smooth_patch(24, 24, seed=5)
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
        hand = synth.smooth_patch(8, 8, seed=5)
        specs = [synth.VideoSpec("va", 1.0, 4, 4), synth.VideoSpec("vb", 1.0, 10, 6)]
        synth.gen_video_set(hand, specs, (24, 18), 3, 20.0, 0, seed=11,
                            out_dir=tmp_path / "videos")
        manifest = tmp_path / "videos.txt"
        manifest.write_text(
            f"  # two videos\n{tmp_path / 'videos' / 'va'}\n\n{tmp_path / 'videos' / 'vb'}\n"
        )
        assert main(["align", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                     "--scales", "1.0"]) == 0


class TestDiscover:
    def test_discover_with_purity(self, tmp_path, capsys):
        fa, _, obj = write_spaces(tmp_path)
        obj_space = LabelSpace(
            Task.OBJECT_CATEGORY,
            ("free", "cup", "kettle") + tuple(f"obj{i:02d}" for i in range(21)), 0,
        )
        rng = np.random.default_rng(0)
        # two videos with alternating active runs over two object categories
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
            pred = StateSequence(LabelSpace.free_active(), states)
            ppath = tmp_path / f"v{vi}.fa.txt"
            ppath.write_text("\n".join(pred.label_names()) + "\n")
            truth = StateSequence(obj_space, obj_truth)
            tpath = tmp_path / f"v{vi}.obj.txt"
            tpath.write_text("\n".join(truth.label_names()) + "\n")
            manifest_lines.append(f"{fpath}\t{ppath}\t{tpath}")
        manifest = tmp_path / "discover.txt"
        manifest.write_text("\n".join(manifest_lines) + "\n")
        out = tmp_path / "disc"
        assert main(["discover", "--manifest", str(manifest), "--fa-space", str(fa),
                     "--object-space", str(obj), "--k", "2", "--out", str(out)]) == 0
        purity = (out / "purity.csv").read_text().splitlines()
        k, p = purity[1].split(",")
        assert k == "2" and float(p) == 1.0  # well-separated categories

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
                     "--k", "1", "--out", str(tmp_path / "disc")]) == 2
        assert f"{manifest}:3:" in capsys.readouterr().err


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

        # infer with --lambda auto picks values from the cv result
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
                     "--lambda", "auto", "--cv-result", str(out / "chosen.json"),
                     "--out", str(pred)]) == 0
        assert len(pred.read_text().splitlines()) == 100

    def test_lambda_auto_without_cv_result_fails(self, tmp_path):
        _, ges, _ = write_spaces(tmp_path)
        feats, truths = make_labeled_videos(tmp_path, gesture_space(), n_videos=2)
        smodel = tmp_path / "state.bin"
        main(["train-state", "--features", *feats, "--truth", *truths,
              "--label-space", str(ges), "--epochs", "50", "--out", str(smodel)])
        rc = main(["infer", "--features", feats[0], "--state-model", str(smodel),
                   "--mode", "full", "--lambda", "auto"])
        assert rc == 2


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
        manifests = sorted(run.glob("*/manifest.json"))
        assert [m.parent.name for m in manifests] == [
            "00_synth", "02_state_model", "03_change_model", "04_candidates",
            "05_predictions", "06_eval_full", "06_eval_unary",
        ]
        for manifest in manifests:
            outputs = json.loads(manifest.read_text())["outputs"]
            assert outputs
            for name, digest in outputs.items():
                path = manifest.parent / name
                assert path.is_file(), f"{manifest.parent.name} lists missing {name}"
                assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_stage_failure_names_stage_and_marks_incomplete(self, tmp_path, capsys):
        cfg = pipeline_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["synth"]["min_dwell"] = 0  # rejected inside the synth stage
        cfg.write_text(json.dumps(doc))
        rc = main(["pipeline", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'synth' failed" in err
        assert (tmp_path / "o" / "00_synth" / "INCOMPLETE").exists()

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
