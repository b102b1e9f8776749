"""Command-line interface.

One executable with subcommands for each pipeline stage plus `pipeline`,
which chains synth -> train -> infer -> eval from a single JSON config.
Exit codes: 0 success, 1 usage, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
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


_JSON_TYPES = {"integer": int, "number": (int, float), "string": str}


def _check_json(value, kind, where: str):
    """Return value if it is of kind, else raise ValueError naming `where`.

    A kind is "integer", "number" (finite: Python's json also reads NaN and
    Infinity) or "string", with " or auto" also allowing "auto"; [kind], a
    list of them; or {key: kind}, an object whose keys ending in '?' may be
    absent and which has no other keys.
    """
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected a JSON object")
        kinds = {key.rstrip("?"): k for key, k in kind.items()}
        unknown = sorted(set(value) - set(kinds))
        if unknown:
            raise ValueError(f"{where}: unknown keys {unknown}")
        missing = [key for key in kind if not key.endswith("?") and key not in value]
        if missing:
            raise ValueError(f"{where}: missing keys {missing}")
        for key, item in value.items():
            _check_json(item, kinds[key], f"{where}: {key}")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list")
        for i, item in enumerate(value):
            _check_json(item, kind[0], f"{where}[{i}]")
    elif not (
        (kind.endswith(" or auto") and value == "auto")
        or (isinstance(value, _JSON_TYPES[kind.removesuffix(" or auto")])
            and not isinstance(value, bool)
            and (not isinstance(value, float) or math.isfinite(value)))
    ):
        raise ValueError(f"{where} must be {kind}, got {value!r}")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys all differ (json.loads keeps the last)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        repeated = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"repeated keys {repeated}")
    return doc


def _read_json_object(path: str | Path, spec: dict) -> dict:
    """A JSON file the CLI reads (configs, chosen.json), checked against spec."""
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except ValueError as e:  # not UTF-8, not JSON, or a key given twice
        raise ValueError(f"{path}: {e}") from None
    return _check_json(doc, spec, str(path))


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


def read_cv_result(path: Path) -> dict:
    """chosen.json as `write_cv_result` writes it: C, d and lambda."""
    return _read_json_object(path, {"C": "number", "d": "integer", "lambda": "number"})


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

_SYNTH_STREAMS = {
    "states": "integer", "dim": "integer", "frames": "integer", "min_dwell": "integer",
    "noise_sigma": "number", "transition_ramp?": "integer",
}
_SYNTH_VIDEOS = {
    "seed": "integer", "frames": "integer", "frame_width": "integer",
    "frame_height": "integer", "hand_width": "integer", "hand_height": "integer",
    "noise_sigma": "number", "jitter": "integer",
    "videos": [{"video_id": "string", "scale": "number", "dx": "integer", "dy": "integer"}],
}


def _cmd_synth(args: argparse.Namespace) -> int:
    """Checks the config before --out is created: a rejected one leaves no directory."""
    out = Path(args.out)
    if args.kind == "features":
        cfg = _read_json_object(
            args.config, {"seed": "integer", **_SYNTH_STREAMS, "videos": "integer"}
        )
        synth.check_stream_budget(cfg["videos"], cfg["frames"], cfg["dim"])
        pairs = synth.gen_feature_set(
            cfg["seed"], cfg["states"], cfg["dim"], cfg["frames"], cfg["min_dwell"],
            cfg["noise_sigma"], [f"video_{i:02d}" for i in range(cfg["videos"])],
            transition_ramp=cfg.get("transition_ramp", 0),
            label_space=load_label_space(args.label_space),
        )
        out.mkdir(parents=True, exist_ok=True)
        for stream, truth in pairs:
            write_labeled_stream(stream, truth, out)
    else:
        cfg = _read_json_object(args.config, _SYNTH_VIDEOS)
        hand = synth.textured_patch(cfg["hand_width"], cfg["hand_height"], cfg["seed"])
        specs = [synth.VideoSpec(**v) for v in cfg["videos"]]  # keys checked above
        out.mkdir(parents=True, exist_ok=True)
        _, truth = synth.gen_video_set(
            hand, specs, (cfg["frame_width"], cfg["frame_height"]), cfg["frames"],
            cfg["noise_sigma"], cfg["jitter"], cfg["seed"], out_dir=out,
        )
        _write_json(truth, out / "ground_truth.json")
    print(f"synthesized into {out}")
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    """Pass 1 keeps only each video's pixel statistics, from one video at a
    time; pass 2 streams each video through a few frames at a time to align
    and save it: memory follows one video, not the corpus. Afterwards --out
    holds the videos of this run only: the frames of any other video
    directory in it are deleted, and the directory too if that empties it."""
    dirs: dict[str, Path] = {}
    for path, in read_list_file(args.manifest, 1, 1):
        vid = Path(path).name
        if vid in dirs:
            raise ValueError(f"{args.manifest}: video id {vid!r} (the directory name) "
                             f"is used twice: {dirs[vid]} and {path}")
        dirs[vid] = Path(path)
    if len(dirs) < 2:
        raise ValueError("alignment needs at least two videos")
    params = alignment.AlignmentParams(
        beta_threshold=args.beta_threshold, scales=tuple(args.scales)
    )
    stats = {vid: alignment.compute_pixel_stats(media.load_video_dir(d))
             for vid, d in dirs.items()}
    result = alignment.align_videos(stats, params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for vid, entry in sorted(result.per_video.items()):
        alignment.align_video_dir(dirs[vid], out / vid, entry, result,
                                  stats[vid].median_image.shape)
    for stale in sorted(out.iterdir()):
        if stale.name not in result.per_video and stale.is_dir() and not stale.is_symlink():
            media.remove_frames_from(stale, 0)
            if not any(stale.iterdir()):
                stale.rmdir()
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
            chosen = read_cv_result(Path(args.cv_result))
            lam, d = chosen["lambda"], chosen["d"] if d is None else d
        elif args.cv_result is not None:
            raise ValueError("--cv-result is read only with --lambda auto")
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
    lo, _, hi = args.k_range.partition(":")
    if not (lo.isdecimal() and hi.isdecimal() and 1 <= int(lo) <= int(hi)):
        raise ValueError(f"--k-range {args.k_range!r}: expected A:B with 1 <= A <= B")
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
    ks = range(int(lo), min(int(hi), len(segments)) + 1)
    if not ks:
        raise ValueError(f"--k-range {args.k_range}: every k exceeds {len(segments)} segments")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    history = discovery.average_linkage(discovery.segment_similarity_matrix(segments))
    rows = ["k,purity"]
    for k in ks:
        clustering = discovery.cut_history(history, k)
        lines = ["segment,video_id,start,end,cluster"]
        for i, (seg, cluster) in enumerate(zip(segments, clustering.assignment)):
            lines.append(f"{i},{seg.video_id},{seg.start},{seg.end},{cluster}")
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

_PIPELINE = {
    "seed": "integer", "label_space": "string", "fps?": "number",
    "synth": {**_SYNTH_STREAMS, "train_videos": "integer", "test_videos": "integer"},
    "hyperparameters": {"C": "number or auto", "d": "integer or auto",
                        "lambda": "number or auto"},
    "training?": {"epochs?": "integer"},
    "cv?": {"c_grid?": ["number"], "d_grid?": ["integer"], "lambda_grid?": ["number"]},
}


def _load_pipeline_config(path: Path) -> dict:
    cfg = _read_json_object(path, _PIPELINE)
    label_path = path.parent / cfg["label_space"]  # an absolute path replaces the parent
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
    synth.check_stream_budget(scfg["train_videos"] + scfg["test_videos"], scfg["frames"],
                              scfg["dim"])
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

class _Parser(argparse.ArgumentParser):
    """A parser, and every subparser it makes, that takes options only by
    their full names: a removed or misspelled option that is a prefix of
    another (`--k` of `--k-range`) fails instead of binding to it."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="handcam", description=__doc__)
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
    sp.add_argument("--k-range", required=True,
                    help="A:B inclusive, 1 <= A <= B; k above the segment count is skipped")
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
