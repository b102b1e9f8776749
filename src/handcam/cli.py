"""Command-line interface.

One executable with subcommands for each pipeline stage plus `pipeline`,
which chains synth -> train -> infer -> eval from a single JSON config.
Exit codes: 0 success, 1 usage, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, alignment, change, classify, crossval, discovery, evaluation
from . import features as features_mod
from . import inference, media, synth
from .core import (
    Camera,
    FeatureStream,
    LabelSpace,
    StateSequence,
    load_label_space,
)

_CAMERAS = {c.value: c for c in Camera}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


# ---------------------------------------------------------------------------
# small file helpers

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_manifest(
    out_dir: Path, stage: str, parameters: dict, inputs: dict[str, Path], outputs: list[Path]
) -> None:
    """Record input digests, parameters and tool version next to the outputs.

    Paths are stored relative (inputs by their given name) so reruns into a
    different directory produce identical bytes.
    """
    doc = {
        "tool": f"handcam {__version__}",
        "stage": stage,
        "parameters": parameters,
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    _write_json(doc, out_dir / "manifest.json")


def read_list_file(path: Path, min_cols: int, max_cols: int) -> list[list[str]]:
    """Rows of a list file (`align`, `cv` and `discover` manifests).

    Each line is stripped; blank lines and lines starting with '#' are
    skipped; the rest split on tabs into min_cols..max_cols columns.
    """
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if not min_cols <= len(cols) <= max_cols:
            want = str(min_cols) if min_cols == max_cols else f"{min_cols} to {max_cols}"
            raise ValueError(
                f"{path}:{lineno}: expected {want} tab-separated columns, got {len(cols)}"
            )
        rows.append(cols)
    return rows


def read_truth(path: Path, space: LabelSpace) -> StateSequence:
    names = [ln for ln in path.read_text().splitlines() if ln.strip()]
    states = np.array([space.index_of(n.strip()) for n in names], dtype=np.int64)
    return StateSequence(space, states)


def write_labels(seq: StateSequence, path: Path) -> None:
    path.write_text("\n".join(seq.label_names()) + "\n")


def write_labeled_stream(stream: FeatureStream, truth: StateSequence, out_dir: Path) -> list[Path]:
    """Write `<video_id>.feat` and `<video_id>.truth.txt` (label names)."""
    fpath = out_dir / f"{stream.video_id}.feat"
    tpath = out_dir / f"{stream.video_id}.truth.txt"
    features_mod.write_features(stream, fpath)
    write_labels(truth, tpath)
    return [fpath, tpath]


def write_cv_result(result: crossval.CVResult, out_dir: Path) -> list[Path]:
    """Write chosen.json and the full grid as table.csv."""
    chosen, table = out_dir / "chosen.json", out_dir / "table.csv"
    _write_json({"C": result.c_reg, "d": result.d, "lambda": result.lam}, chosen)
    lines = ["C,d,lambda,mean_accuracy"]
    for cell in result.table:
        lines.append(f"{cell.c_reg},{cell.d},{cell.lam},{cell.mean_accuracy!r}")
    table.write_text("\n".join(lines) + "\n")
    return [chosen, table]


def write_candidates(cands: change.CandidateSet, path: Path) -> None:
    lines = ["frame_index\tconfidence"]
    for i, c in zip(cands.frame_indices, cands.confidences):
        lines.append(f"{int(i)}\t{float(c)!r}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = json.loads(Path(args.config).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.kind == "features":
        _check_keys(cfg, {"seed", "states", "dim", "frames", "min_dwell",
                          "noise_sigma", "transition_ramp", "videos"}, "synth config")
        pairs = synth.gen_feature_set(
            cfg["seed"], cfg["states"], cfg["dim"], cfg["frames"], cfg["min_dwell"],
            cfg["noise_sigma"], [f"video_{i:02d}" for i in range(cfg["videos"])],
            transition_ramp=cfg.get("transition_ramp", 0),
            label_space=load_label_space(args.label_space),
        )
        for stream, truth in pairs:
            write_labeled_stream(stream, truth, out)
    else:
        _check_keys(cfg, {"seed", "frames", "frame_width", "frame_height",
                          "hand_width", "hand_height", "noise_sigma", "jitter",
                          "videos"}, "synth config")
        hand = synth.textured_patch(cfg["hand_width"], cfg["hand_height"], cfg["seed"])
        specs = [
            synth.VideoSpec(v["video_id"], v["scale"], v["dx"], v["dy"])
            for v in cfg["videos"]
        ]
        _, truth = synth.gen_video_set(
            hand,
            specs,
            (cfg["frame_width"], cfg["frame_height"]),
            cfg["frames"],
            cfg["noise_sigma"],
            cfg["jitter"],
            cfg["seed"],
            out_dir=out,
        )
        _write_json(truth, out / "ground_truth.json")
    print(f"synthesized into {out}")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    video_dirs = [Path(path) for path, in read_list_file(args.manifest, 1, 1)]
    if len(video_dirs) < 2:
        raise ValueError("alignment needs at least two videos")
    params = alignment.AlignmentParams(
        beta_threshold=args.beta_threshold, scales=tuple(args.scales)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    frames_by_vid = {d.name: media.load_video_dir(d) for d in video_dirs}
    stats = {vid: alignment.compute_pixel_stats(fr) for vid, fr in frames_by_vid.items()}
    result = alignment.align_videos(stats, params)
    for vid, entry in sorted(result.per_video.items()):
        aligned = alignment.align_video(frames_by_vid[vid], entry, result)
        media.save_video_dir(aligned, out / vid)
    alignment.write_alignment_report(result, out / "alignment.json")
    print(f"reference: {result.reference_video_id}")
    for vid, entry in sorted(result.per_video.items()):
        print(f"{vid}\tscale={entry.scale}\tdx={entry.dx}\tdy={entry.dy}\tpeak={entry.peak:.4f}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    frames = media.load_video_dir(args.video)
    if args.flip:
        frames = [media.hflip(f) for f in frames]
    stream = features_mod.histogram_stream(
        frames,
        video_id=Path(args.video).name,
        camera=_CAMERAS[args.camera],
        fps=args.fps,
        bins_per_channel=args.bins,
    )
    features_mod.write_features(stream, args.out)
    print(f"{stream.n_frames} frames x {stream.dim} dims -> {args.out}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    streams = [features_mod.read_features(p) for p in args.inputs]
    fused = streams[0]
    for s in streams[1:]:
        fused = features_mod.fuse_concat(fused, s)
    features_mod.write_features(fused, args.out)
    print(f"fused {len(streams)} streams -> D={fused.dim}")
    return 0


def _load_pairs(
    feature_paths: list[str], truth_paths: list[str], space: LabelSpace
) -> tuple[list[FeatureStream], list[StateSequence]]:
    if len(feature_paths) != len(truth_paths):
        raise ValueError("--features and --truth need the same count")
    streams = [features_mod.read_features(p) for p in feature_paths]
    truths = [read_truth(Path(p), space) for p in truth_paths]
    return streams, truths


def _cmd_train_state(args: argparse.Namespace) -> int:
    space = load_label_space(args.label_space)
    streams, truths = _load_pairs(args.features, args.truth, space)
    cfg = classify.TrainConfig(c_reg=args.c_reg, epochs=args.epochs)
    model = classify.train(streams, truths, cfg)
    classify.save_model(model, args.out)
    print(f"state model: K={model.num_classes} D={model.dim} -> {args.out}")
    return 0


def _cmd_train_change(args: argparse.Namespace) -> int:
    space = load_label_space(args.label_space)
    streams, truths = _load_pairs(args.features, args.truth, space)
    cfg = classify.TrainConfig(c_reg=args.c_reg, epochs=args.epochs)
    model = change.train_change_model(streams, truths, args.d, cfg)
    classify.save_model(model, args.out)
    print(f"change model: d={args.d} D={model.dim} -> {args.out}")
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    space = load_label_space(args.label_space)
    pairs = [
        (features_mod.read_features(feat_path), read_truth(Path(truth_path), space))
        for feat_path, truth_path in read_list_file(args.manifest, 2, 2)
    ]
    plan = crossval.CrossValPlan(
        c_grid=tuple(args.c_grid), d_grid=tuple(args.d_grid), lambda_grid=tuple(args.lambda_grid)
    )
    result = crossval.cross_validate(pairs, plan, classify.TrainConfig(epochs=args.epochs))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_cv_result(result, out)
    print(f"chosen: C={result.c_reg} d={result.d} lambda={result.lam}")
    return 0


def _cmd_detect_changes(args: argparse.Namespace) -> int:
    stream = features_mod.read_features(args.features)
    model = classify.load_model(args.model)
    cands = change.detect_candidates(stream, model, args.d)
    if args.out:
        write_candidates(cands, Path(args.out))
    else:
        print("frame_index\tconfidence")
        for i, c in zip(cands.frame_indices, cands.confidences):
            print(f"{int(i)}\t{float(c)!r}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    if args.mode == "unary":
        full_options = {"--change-model": args.change_model, "--d": args.d,
                        "--lambda": args.lam, "--cv-result": args.cv_result}
        given = [flag for flag, value in full_options.items() if value is not None]
        if given:
            raise ValueError(f"--mode unary takes no {', '.join(given)}")
    stream = features_mod.read_features(args.features)
    state_model = classify.load_model(args.state_model)
    if args.mode == "unary":
        seq = classify.predict_frames(state_model, stream)
    else:
        lam, d = args.lam, args.d
        if lam == "auto":
            if not args.cv_result:
                raise ValueError("--lambda auto requires --cv-result from a prior cv run")
            chosen = json.loads(Path(args.cv_result).read_text())
            lam = chosen["lambda"]
            d = d if d is not None else int(chosen["d"])
        if args.change_model is None or d is None or lam is None:
            raise ValueError("full mode needs --change-model, --d and --lambda")
        lam = float(lam)
        cands = change.detect_candidates(stream, classify.load_model(args.change_model), d)
        unary = classify.score_stream(state_model, stream)
        seq = inference.decode_stream(stream, unary, cands, [lam], state_model.label_space)[0]
    if args.out:
        write_labels(seq, Path(args.out))
    else:
        sys.stdout.write("\n".join(seq.label_names()) + "\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    space = load_label_space(args.label_space)
    pred = read_truth(Path(args.pred), space)
    truth = read_truth(Path(args.truth), space)
    vid = Path(args.pred).stem
    report = evaluation.build_report({vid: pred}, {vid: truth}, task=space.task.value)
    evaluation.write_report(
        report,
        args.report,
        label_names=list(space.labels),
        timelines={vid: {"truth": truth, "pred": pred}},
    )
    print(f"accuracy: {report.global_accuracy:.4f}")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    fa_space = load_label_space(args.fa_space)
    obj_space = load_label_space(args.object_space) if args.object_space else None
    segments: list[discovery.Segment] = []
    truths: dict[str, StateSequence] = {}
    for parts in read_list_file(args.manifest, 2, 3):
        stream = features_mod.read_features(parts[0])
        decoded = read_truth(Path(parts[1]), fa_space)
        segments.extend(discovery.active_segments(decoded, stream))
        if len(parts) > 2:
            if obj_space is None:
                raise ValueError("truth column given but no --object-space")
            truths[stream.video_id] = read_truth(Path(parts[2]), obj_space)
    if not segments:
        raise ValueError("no active segments to cluster")
    if args.k is None and not args.k_range:
        raise ValueError("need --k or --k-range")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.k_range:
        lo, hi = (int(v) for v in args.k_range.split(":"))
        ks = [k for k in range(lo, hi + 1) if 1 <= k <= len(segments)]
    else:
        ks = [args.k]
    sim = discovery.segment_similarity_matrix(segments)
    rows = ["k,purity"]
    for k in ks:
        clustering = discovery.average_linkage(sim, k)
        lines = ["segment,video_id,start,end,cluster"]
        for i, seg in enumerate(segments):
            lines.append(
                f"{i},{seg.video_id},{seg.start},{seg.end},{clustering.assignment[i]}"
            )
        (out / f"clusters_k{k}.csv").write_text("\n".join(lines) + "\n")
        if truths:
            purity = discovery.modified_purity(clustering, segments, truths)
            rows.append(f"{k},{purity!r}")
            print(f"k={k}\tpurity={purity:.4f}")
        else:
            print(f"k={k}\tclusters written")
    if truths:
        (out / "purity.csv").write_text("\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# pipeline

_PIPELINE_KEYS = {"seed", "label_space", "fps", "synth", "hyperparameters", "training", "cv"}
_SYNTH_KEYS = {"train_videos", "test_videos", "frames", "states", "dim", "min_dwell",
               "noise_sigma", "transition_ramp"}
_HYPER_KEYS = {"C", "d", "lambda"}
_TRAIN_KEYS = {"epochs"}
_CV_KEYS = {"c_grid", "d_grid", "lambda_grid"}


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")


def _load_pipeline_config(path: Path) -> dict:
    cfg = json.loads(path.read_text())
    _check_keys(cfg, _PIPELINE_KEYS, "pipeline config")
    for key in ("seed", "label_space", "synth", "hyperparameters"):
        if key not in cfg:
            raise ValueError(f"pipeline config: missing key {key!r}")
    _check_keys(cfg["synth"], _SYNTH_KEYS, "pipeline config: synth")
    _check_keys(cfg["hyperparameters"], _HYPER_KEYS, "pipeline config: hyperparameters")
    _check_keys(cfg.get("training", {}), _TRAIN_KEYS, "pipeline config: training")
    _check_keys(cfg.get("cv", {}), _CV_KEYS, "pipeline config: cv")
    missing_hyper = _HYPER_KEYS - set(cfg["hyperparameters"])
    if missing_hyper:
        raise ValueError(f"pipeline config: hyperparameters missing {sorted(missing_hyper)}")
    missing_synth = (_SYNTH_KEYS - {"transition_ramp"}) - set(cfg["synth"])
    if missing_synth:
        raise ValueError(f"pipeline config: synth missing {sorted(missing_synth)}")
    label_path = Path(cfg["label_space"])
    if not label_path.is_absolute():
        label_path = path.parent / label_path
    if not label_path.exists():
        raise ValueError(f"label-space file not found: {label_path}")
    cfg["_label_path"] = label_path
    return cfg


class _Stage:
    """Marks a stage directory INCOMPLETE until it finishes."""

    def __init__(self, out_dir: Path, name: str):
        self.dir = out_dir / name
        self.name = name
        self.marker = self.dir / "INCOMPLETE"

    def __enter__(self) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        self.marker.write_text("stage did not finish\n")
        return self.dir

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.marker.unlink()


def run_pipeline(config_path: str | Path, out_dir: str | Path) -> dict:
    """Chain synth -> train -> infer -> eval; rerun-identical artifacts."""
    config_path = Path(config_path)
    out_dir = Path(out_dir)
    cfg = _load_pipeline_config(config_path)
    space = load_label_space(cfg["_label_path"])
    scfg = cfg["synth"]
    if scfg["states"] > space.num_labels:
        raise ValueError("synth states exceed the label-space size")
    fps = cfg.get("fps", 6.0)
    epochs = cfg.get("training", {}).get("epochs", 200)

    stage = "synth"
    try:
        streams: dict[str, FeatureStream] = {}
        truths: dict[str, StateSequence] = {}
        with _Stage(out_dir, "00_synth") as sdir:
            n_train = scfg["train_videos"]
            vids = [
                f"{'train' if i < n_train else 'test'}_{i:02d}"
                for i in range(n_train + scfg["test_videos"])
            ]
            train_ids, test_ids = vids[:n_train], vids[n_train:]
            pairs = synth.gen_feature_set(
                cfg["seed"], scfg["states"], scfg["dim"], scfg["frames"], scfg["min_dwell"],
                scfg["noise_sigma"], vids, transition_ramp=scfg.get("transition_ramp", 0),
                fps=fps, label_space=space,
            )
            outputs = []
            for stream, truth in pairs:
                streams[stream.video_id] = stream
                truths[stream.video_id] = truth
                outputs += write_labeled_stream(stream, truth, sdir)
            write_manifest(
                sdir, "synth", {"seed": cfg["seed"], **scfg},
                {"config": config_path, "label_space": cfg["_label_path"]}, outputs,
            )

        stage = "hyperparameters"
        hyper = cfg["hyperparameters"]
        if any(hyper[k] == "auto" for k in ("C", "d", "lambda")):
            cvcfg = cfg.get("cv", {})
            plan = crossval.CrossValPlan(
                c_grid=tuple(cvcfg.get("c_grid", crossval.CrossValPlan.c_grid))
                if hyper["C"] == "auto" else (hyper["C"],),
                d_grid=tuple(cvcfg.get("d_grid", crossval.CrossValPlan.d_grid))
                if hyper["d"] == "auto" else (hyper["d"],),
                lambda_grid=tuple(cvcfg.get("lambda_grid", crossval.CrossValPlan.lambda_grid))
                if hyper["lambda"] == "auto" else (hyper["lambda"],),
            )
            with _Stage(out_dir, "01_cv") as cvdir:
                result = crossval.cross_validate(
                    [(streams[v], truths[v]) for v in train_ids],
                    plan,
                    classify.TrainConfig(epochs=epochs),
                )
                write_manifest(cvdir, "cv", {"plan": str(plan)}, {"config": config_path},
                               write_cv_result(result, cvdir))
            c_reg, d, lam = result.c_reg, result.d, result.lam
        else:
            c_reg, d, lam = float(hyper["C"]), int(hyper["d"]), float(hyper["lambda"])

        tcfg = classify.TrainConfig(c_reg=c_reg, epochs=epochs)
        train_streams = [streams[v] for v in train_ids]
        train_truths = [truths[v] for v in train_ids]

        stage = "train-state"
        with _Stage(out_dir, "02_state_model") as mdir:
            state_model = classify.train(train_streams, train_truths, tcfg)
            classify.save_model(state_model, mdir / "state.bin")
            write_manifest(mdir, "train-state", {"C": c_reg, "epochs": epochs},
                           {"config": config_path}, [mdir / "state.bin"])

        stage = "train-change"
        with _Stage(out_dir, "03_change_model") as mdir:
            change_model = change.train_change_model(train_streams, train_truths, d, tcfg)
            classify.save_model(change_model, mdir / "change.bin")
            write_manifest(mdir, "train-change", {"C": c_reg, "d": d, "epochs": epochs},
                           {"config": config_path}, [mdir / "change.bin"])

        stage = "detect-changes"
        candidates = {}
        with _Stage(out_dir, "04_candidates") as cdir:
            outputs = []
            for vid in test_ids:
                cands = change.detect_candidates(streams[vid], change_model, d)
                candidates[vid] = cands
                path = cdir / f"{vid}.txt"
                write_candidates(cands, path)
                outputs.append(path)
            write_manifest(cdir, "detect-changes", {"d": d}, {"config": config_path}, outputs)

        stage = "infer"
        preds_full, preds_unary = {}, {}
        with _Stage(out_dir, "05_predictions") as pdir:
            outputs = []
            for vid in test_ids:
                unary = classify.score_stream(state_model, streams[vid])
                preds_full[vid] = inference.decode_stream(
                    streams[vid], unary, candidates[vid], [lam], space
                )[0]
                preds_unary[vid] = classify.predict_frames(state_model, streams[vid])
                for tag, seq in (("full", preds_full[vid]), ("unary", preds_unary[vid])):
                    path = pdir / f"{vid}.{tag}.txt"
                    write_labels(seq, path)
                    outputs.append(path)
            write_manifest(pdir, "infer", {"lambda": lam, "d": d},
                           {"config": config_path}, outputs)

        stage = "eval"
        accuracies = {}
        for tag, preds in (("full", preds_full), ("unary", preds_unary)):
            with _Stage(out_dir, f"06_eval_{tag}") as edir:
                test_truths = {v: truths[v] for v in test_ids}
                report = evaluation.build_report(preds, test_truths, task=space.task.value)
                evaluation.write_report(
                    report, edir, label_names=list(space.labels),
                    timelines={v: {"truth": truths[v], "pred": preds[v]} for v in test_ids},
                )
                write_manifest(
                    edir, f"eval-{tag}", {}, {"config": config_path},
                    [p for p in edir.iterdir() if p.name not in ("manifest.json", "INCOMPLETE")],
                )
                accuracies[tag] = report.global_accuracy
    except Exception as e:
        raise StageError(stage, e) from e

    _write_json(
        {"accuracy_full": accuracies["full"], "accuracy_unary": accuracies["unary"],
         "C": c_reg, "d": d, "lambda": lam},
        out_dir / "summary.json",
    )
    return accuracies


def _cmd_pipeline(args: argparse.Namespace) -> int:
    accuracies = run_pipeline(args.config, args.out)
    print(f"unary accuracy: {accuracies['unary']:.4f}")
    print(f"full accuracy:  {accuracies['full']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="handcam", description=__doc__)
    p.add_argument("--version", action="version", version=f"handcam {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic features or videos")
    kinds = sp.add_subparsers(dest="kind", required=True)
    synth_kinds = {kind: kinds.add_parser(kind) for kind in ("features", "videos")}
    for kp in synth_kinds.values():
        kp.add_argument("--config", required=True)
        kp.add_argument("--out", required=True)
        kp.set_defaults(func=_cmd_synth)
    synth_kinds["features"].add_argument("--label-space", required=True,
                                         help="truth files hold this space's label names")

    sp = sub.add_parser("align", help="align videos to a common hand template")
    sp.add_argument("--manifest", required=True, help="file listing video directories")
    sp.add_argument("--out", required=True)
    sp.add_argument("--beta-threshold", type=float, default=40.0)
    sp.add_argument("--scales", type=float, nargs="+",
                    default=[0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5])
    sp.set_defaults(func=_cmd_align)

    sp = sub.add_parser("extract", help="color-histogram features from frames")
    sp.add_argument("--video", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--camera", choices=sorted(_CAMERAS), default="right_hand")
    sp.add_argument("--fps", type=float, default=6.0)
    sp.add_argument("--bins", type=int, default=8)
    sp.add_argument("--flip", action="store_true",
                    help="mirror frames (left-hand videos)")
    sp.set_defaults(func=_cmd_extract)

    sp = sub.add_parser("fuse", help="concatenate feature streams frame-wise")
    sp.add_argument("--inputs", nargs="+", required=True,
                    help="feature files in fusion order")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_fuse)

    for name, handler in (("train-state", _cmd_train_state), ("train-change", _cmd_train_change)):
        sp = sub.add_parser(name, help=f"{name.replace('-', ' ')} model")
        sp.add_argument("--features", nargs="+", required=True)
        sp.add_argument("--truth", nargs="+", required=True)
        sp.add_argument("--label-space", required=True)
        sp.add_argument("--c-reg", type=float, default=1.0)
        sp.add_argument("--epochs", type=int, default=200)
        sp.add_argument("--out", required=True)
        if name == "train-change":
            sp.add_argument("--d", type=int, required=True)
        sp.set_defaults(func=handler)

    sp = sub.add_parser("cv", help="5-fold hyperparameter search")
    sp.add_argument("--manifest", required=True,
                    help="lines of '<features>\\t<truth>' per video")
    sp.add_argument("--label-space", required=True)
    sp.add_argument("--c-grid", type=float, nargs="+", default=[0.01, 0.1, 1.0, 10.0])
    sp.add_argument("--d-grid", type=int, nargs="+", default=[3, 6, 9, 12])
    sp.add_argument("--lambda-grid", type=float, nargs="+", default=[0.1, 0.3, 1.0, 3.0, 10.0])
    sp.add_argument("--epochs", type=int, default=200)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_cv)

    sp = sub.add_parser("detect-changes", help="change candidates of one stream")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_detect_changes)

    sp = sub.add_parser("infer", help="predict per-frame states")
    sp.add_argument("--features", required=True)
    sp.add_argument("--state-model", required=True)
    sp.add_argument("--mode", choices=["unary", "full"], required=True)
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="boundary weight, or 'auto' with --cv-result")
    sp.add_argument("--cv-result", help="chosen.json from a cv run")
    sp.add_argument("--change-model")
    sp.add_argument("--d", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_infer)

    sp = sub.add_parser("eval", help="score predictions against ground truth")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--label-space", required=True)
    sp.add_argument("--report", required=True)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("discover", help="cluster active segments into categories")
    sp.add_argument("--manifest", required=True,
                    help="lines of '<features>\\t<fa-predictions>[\\t<object-truth>]'")
    sp.add_argument("--fa-space", required=True, help="free/active label space file")
    sp.add_argument("--object-space", help="object label space file (for purity)")
    sp.add_argument("--k", type=int)
    sp.add_argument("--k-range", help="a:b inclusive")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_discover)

    sp = sub.add_parser("pipeline", help="run synth -> train -> infer -> eval")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_pipeline)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e.cause, (ValueError, OSError)):
            return 2
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
