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
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__, alignment, change, classify, crossval, discovery, evaluation
from . import features as features_mod
from . import inference, media, synth
from .core import (
    DEFAULT_FPS,
    Camera,
    FeatureStream,
    LabelSpace,
    StateSequence,
    load_label_space,
    read_text,
    remove_stale,
    write_csv,
    write_json,
)

_CAMERAS = {c.value: c for c in Camera}
_TRAIN_DEFAULTS = classify.TrainConfig()  # the C and epochs when none are given


class StageError(RuntimeError):
    """A pipeline stage failed; raised from the failure, whose type sets the exit code."""


# ---------------------------------------------------------------------------
# small file helpers

def _sha256(path: Path) -> str:
    """The file's digest, read 1 MiB at a time: a manifest never holds a whole file."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir: Path, stage: str, parameters: dict, inputs: dict[str, Path]) -> None:
    """Record input digests, parameters and tool version, and the digest of
    each file out_dir holds (its manifest and INCOMPLETE marker aside).

    Paths are stored relative (inputs by their given name) so reruns into a
    different directory produce identical bytes.
    """
    outputs = [p for p in out_dir.iterdir()
               if p.is_file() and p.name not in ("manifest.json", "INCOMPLETE")]
    doc = {
        "tool": f"handcam {__version__}",
        "stage": stage,
        "parameters": parameters,
        "inputs": {name: _sha256(p) for name, p in sorted(inputs.items())},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    write_json(doc, out_dir / "manifest.json")


def _out_dir(option: str, path: str | Path) -> Path:
    """path, the directory `option` names, unless it exists and is not a
    directory: checked before a command reads any input."""
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(f"{option} {path}: not a directory")
    return path


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
    skipped; the rest split on tabs into min_cols..max_cols columns. Its
    errors name the path.
    """
    rows = []
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
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
    """A truth or prediction file: one label name of space per frame. Its
    errors name the path."""
    index = {name: i for i, name in enumerate(space.labels)}
    names = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    try:
        return StateSequence(space, np.array([index[n] for n in names], dtype=np.int64))
    except KeyError as e:
        raise ValueError(f"{path}: unknown label {e.args[0]!r}") from None


def _write_text(text: str, path: str | Path | None) -> None:
    """Write text to the file at path, or to stdout without one."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_labels(seq: StateSequence, path: str | Path | None) -> None:
    """The label file `read_truth` reads: each frame's state named in seq's
    label space, one a line, to the file at path or to stdout without one."""
    names = seq.label_space.labels
    _write_text("\n".join([names[s] for s in seq.states.tolist()]) + "\n", path)


def read_cv_result(path: Path) -> dict:
    """chosen.json as `run_cv` writes it: C, d and lambda."""
    return _read_json_object(path, {"C": "number", "d": "integer", "lambda": "number"})


# ---------------------------------------------------------------------------
# stage functions (`run_<stage>`: plain paths and values in, files out) and
# subcommand handlers (`_cmd_<stage>`: options mapped onto one stage, printed)

_SYNTH_STREAMS = {
    "states": "integer", "dim": "integer", "frames": "integer", "min_dwell": "integer",
    "noise_sigma": "number", "transition_ramp?": "integer",
}
_INDEX = r"([0-9]{2}|[1-9][0-9]{2,})"  # every f"{i:02d}" of a video id
_SYNTH_VIDEOS = {
    "seed": "integer", "frames": "integer", "frame_width": "integer",
    "frame_height": "integer", "hand_width": "integer", "hand_height": "integer",
    "noise_sigma": "number", "jitter": "integer",
    "videos": [{"video_id": "string", "scale": "number", "dx": "integer", "dy": "integer"}],
}


def _feature_set(cfg: dict, video_ids: list[str], space: LabelSpace,
                 fps: float = DEFAULT_FPS) -> Iterator[tuple[FeatureStream, StateSequence]]:
    """The streams a synth config asks for, one per video id. Every config
    value is checked here; the streams are drawn as they are iterated."""
    return synth.gen_feature_set(
        cfg["seed"], cfg["states"], cfg["dim"], cfg["frames"], cfg["min_dwell"],
        cfg["noise_sigma"], video_ids, space, cfg.get("transition_ramp", 0), fps,
    )


def _write_feature_set(pairs: Iterator[tuple[FeatureStream, StateSequence]], out: Path,
                       ids: str) -> None:
    """Write `<video_id>.feat` and `<video_id>.truth.txt` (label names) of each
    stream into out, one alive at a time, in place of those ids (a regex) matches."""
    out.mkdir(parents=True, exist_ok=True)
    remove_stale(out, rf"{ids}\.(feat|truth\.txt)")
    for stream, truth in pairs:
        features_mod.write_features(stream, out / f"{stream.video_id}.feat")
        write_labels(truth, out / f"{stream.video_id}.truth.txt")
        del stream, truth  # the next stream is drawn without this one alive


def run_synth_features(config: str | Path, label_space: str | Path, out: str | Path) -> None:
    """Write a `synth features` config's streams into out once it is checked."""
    out = _out_dir("--out", out)
    cfg = _read_json_object(config, {"seed": "integer", **_SYNTH_STREAMS, "videos": "integer"})
    pairs = _feature_set(cfg, [f"video_{i:02d}" for i in range(cfg["videos"])],
                         load_label_space(label_space))
    _write_feature_set(pairs, out, rf"video_{_INDEX}")


def run_synth_videos(config: str | Path, out: str | Path) -> dict[str, dict]:
    """Write a `synth videos` config's videos into out once it is checked; return the truth."""
    out = _out_dir("--out", out)
    cfg = _read_json_object(config, _SYNTH_VIDEOS)
    specs = [synth.VideoSpec(**v) for v in cfg["videos"]]  # keys checked above
    for spec in specs:
        _out_dir(f"video {spec.video_id!r}: --out", out / spec.video_id)
    video_set = (specs, (cfg["frame_width"], cfg["frame_height"]), cfg["frames"],
                 cfg["noise_sigma"], cfg["jitter"])
    # the hand fits in a checked frame before it is allocated
    synth.check_video_set((cfg["hand_width"], cfg["hand_height"]), *video_set)
    hand = synth.textured_patch(cfg["hand_width"], cfg["hand_height"], cfg["seed"])
    truth = synth.gen_video_set(hand, *video_set, cfg["seed"], out_dir=out)
    _remove_stale_videos(out, truth)
    write_json(truth, out / "ground_truth.json")
    return truth


def _remove_stale_videos(out: Path, video_ids) -> None:
    """Delete the frames of each directory in out but video_ids (a symlink
    aside), and the directory too if that empties it."""
    for stale in out.iterdir():
        if stale.name not in video_ids and stale.is_dir() and not stale.is_symlink():
            remove_stale(stale, media.FRAME_NAME, rmdir=True)


def _cmd_synth(args: argparse.Namespace) -> None:
    if args.kind == "features":
        run_synth_features(args.config, args.label_space, args.out)
    else:
        run_synth_videos(args.config, args.out)
    print(f"synthesized into {Path(args.out)}")


def run_align(manifest: str | Path, out: str | Path, beta_threshold: float,
              scales: tuple[float, ...]) -> dict:
    """Align the videos that manifest lists into out, checking both before a
    frame is read; return the `alignment.align_videos` document, which
    out/alignment.json holds. Pass 1 reads one video at a time and keeps
    only its median, rounded to uint8, and its stable component; pass 2
    streams each video a few frames at a time to align and save it: memory
    follows one video, not the corpus. Afterwards out holds the videos of
    this run only (`_remove_stale_videos`)."""
    out = _out_dir("--out", out)
    dirs: dict[str, Path] = {}
    for path, in read_list_file(manifest, 1, 1):
        vid = Path(path).name
        if vid in dirs or vid == "alignment.json":
            why = f"is used twice: {dirs[vid]} and {path}" if vid in dirs else "names the report"
            raise ValueError(f"{manifest}: video id {vid!r} (the directory name) {why}")
        dirs[vid] = Path(path)
        _out_dir(f"video {vid!r}: --out", out / vid)
    if len(dirs) < 2:
        raise ValueError("alignment needs at least two videos")
    alignment.check_params(beta_threshold, scales)
    medians, components = {}, {}
    for vid, d in dirs.items():
        median, diversity = alignment.pixel_stats(media.load_video_dir(d))
        for scale in scales:  # before any frame is rescaled
            synth.check_frame_budget(f"video {vid!r}: scale {scale!r}", scale,
                                     median.shape[1], median.shape[0])
        components[vid] = alignment.stable_component(diversity, beta_threshold)
        medians[vid] = media.round_u8(median)
        del median, diversity  # the next video is read without them
    doc = alignment.align_videos(medians, components, scales)
    out.mkdir(parents=True, exist_ok=True)
    for vid in doc["videos"]:
        alignment.align_video_dir(dirs[vid], out / vid, doc, vid, medians[vid].shape)
    _remove_stale_videos(out, doc["videos"])
    write_json(doc, out / "alignment.json")
    return doc


def _cmd_align(args: argparse.Namespace) -> None:
    doc = run_align(args.manifest, args.out, args.beta_threshold, tuple(args.scales))
    print(f"reference: {doc['reference_video_id']}")
    for vid, v in doc["videos"].items():
        print(f"{vid}\tscale={v['scale']}\tdx={v['dx']}\tdy={v['dy']}\tpeak={v['peak']:.4f}")


def run_extract(video: str | Path, out: str | Path, camera: Camera, fps: float,
                bins: int) -> FeatureStream:
    """Write the histogram stream of the frames in video to out; return it."""
    stream = features_mod.histogram_stream(media.frame_paths(video), Path(video).name, camera,
                                           fps=fps, bins_per_channel=bins)
    features_mod.write_features(stream, out)
    return stream


def _cmd_extract(args: argparse.Namespace) -> None:
    stream = run_extract(args.video, args.out, _CAMERAS[args.camera], args.fps, args.bins)
    print(f"{stream.n_frames} frames x {stream.dim} dims -> {args.out}")


def run_fuse(inputs: list, out: str | Path) -> FeatureStream:
    """Write the frame-wise concatenation of the streams at inputs to out; return it."""
    fused = features_mod.fuse_concat([features_mod.read_features(p) for p in inputs])
    features_mod.write_features(fused, out)
    return fused


def _cmd_fuse(args: argparse.Namespace) -> None:
    fused = run_fuse(args.inputs, args.out)
    print(f"fused {len(args.inputs)} streams -> D={fused.dim}")


def _load_pairs(
    feature_paths: list[str], truth_paths: list[str], label_space: str | Path
) -> tuple[list[FeatureStream], list[StateSequence]]:
    if len(feature_paths) != len(truth_paths):
        raise ValueError("--features and --truth need the same count")
    space = load_label_space(label_space)
    streams = [features_mod.read_features(p) for p in feature_paths]
    truths = [read_truth(Path(p), space) for p in truth_paths]
    return streams, truths


def run_train_state(features: list, truths: list, label_space: str | Path, c_reg: float,
                    epochs: int, out: str | Path) -> classify.LinearModel:
    streams, seqs = _load_pairs(features, truths, label_space)
    model = classify.train(streams, seqs, classify.TrainConfig(c_reg=c_reg, epochs=epochs))
    classify.save_model(model, out)
    return model


def run_train_change(features: list, truths: list, label_space: str | Path, c_reg: float,
                     epochs: int, d: int, out: str | Path) -> classify.LinearModel:
    _check_flag(f"--d {d}", change.check_d, d)
    streams, seqs = _load_pairs(features, truths, label_space)
    cfg = classify.TrainConfig(c_reg=c_reg, epochs=epochs)
    model = change.train_change_model(streams, seqs, d, cfg)
    classify.save_model(model, out)
    return model


def run_cv(pairs: list, label_space: str | Path, plan: crossval.CrossValPlan, epochs: int,
           out: str | Path) -> dict:
    """Cross-validate over (features, truth) path pairs. Write the chosen
    cell as chosen.json and the full grid as table.csv; return the cell."""
    out = _out_dir("--out", out)
    streams, truths = _load_pairs([f for f, _ in pairs], [t for _, t in pairs], label_space)
    chosen, table = crossval.cross_validate(list(zip(streams, truths)), plan, epochs)
    out.mkdir(parents=True, exist_ok=True)
    write_json(chosen, out / "chosen.json")
    write_csv([("C", "d", "lambda", "mean_accuracy"), *table], out / "table.csv")
    return chosen


def _check_flag(given: str, check, value) -> None:
    """Apply a stage's own check to a value; its error names the value as given."""
    try:
        check(value)
    except ValueError as e:
        raise ValueError(f"{given}: {e}") from None


def _load_model(flag: str, path: str | Path) -> classify.LinearModel:
    """The model at path (the option `flag`); a damaged file's error names both."""
    try:
        return classify.load_model(path)
    except classify.ModelFileError as e:
        raise classify.ModelFileError(f"{flag} {path}: {e}") from None


def _load_change_model(flag: str, path: str | Path, ds: dict) -> classify.LinearModel:
    """The change model at path (the option `flag`), trained with each d in ds, which
    maps how a d was given to its value (None: not given); a mismatch names the first."""
    model = _load_model(flag, path)
    if not model.is_binary:
        raise ValueError(f"{flag} {path}: not a change model")
    for given, d in ds.items():
        if d is not None and d != model.d:
            raise ValueError(f"{flag} {path}: trained with d={model.d}, not {given}")
    return model


def run_detect_changes(features: str | Path, model: str | Path, d: int | None = None,
                       out: str | Path | None = None) -> None:
    """Write the candidates, at the model's d, to `out` or to stdout without one."""
    change_model = _load_change_model("--model", model, {f"--d {d}": d})
    stream = features_mod.read_features(features)
    frames, confidences = change.detect_candidates(stream, change_model)
    rows = [f"{i}\t{c!r}" for i, c in zip(frames.tolist(), confidences.tolist())]
    _write_text("\n".join(["frame_index\tconfidence", *rows]) + "\n", out)


def run_infer(features: str | Path, state_model: str | Path, mode: str,
              lam: float | str | None = None, d: int | None = None,
              change_model: str | Path | None = None, cv_result: str | Path | None = None,
              out: str | Path | None = None) -> None:
    """Write the predicted label names to `out`, or to stdout without one. Full
    mode decodes at the change model's d, which d and cv_result's d must equal
    where given, and at lam or else cv_result's lambda."""
    if mode == "unary":
        full_options = {"--change-model": change_model, "--d": d,
                        "--lambda": lam, "--cv-result": cv_result}
        given = [flag for flag, value in full_options.items() if value is not None]
        if given:
            raise ValueError(f"--mode unary takes no {', '.join(given)}")
    state = _load_model("--state-model", state_model)
    if state.is_binary:
        raise ValueError(f"--state-model {state_model}: a change model, not a state model")
    if mode == "full":
        if change_model is None or (lam is None) == (cv_result is None):
            raise ValueError("full mode needs --change-model and exactly one of --lambda "
                             "and --cv-result")
        ds, lam_given = {f"--d {d}": d}, f"--lambda {lam}"
        if cv_result is not None:
            chosen = read_cv_result(Path(cv_result))
            lam = chosen["lambda"]
            lam_given = f"lambda={lam} of --cv-result {cv_result}"
            ds[f"d={chosen['d']} of --cv-result {cv_result}"] = chosen["d"]
        _check_flag(lam_given, lambda v: inference.check_lam(float(v)), lam)
        change_model = _load_change_model("--change-model", change_model, ds)
    stream = features_mod.read_features(features)
    if mode == "unary":
        states = classify.predict_frames(state, stream)
    else:
        cands, _ = change.detect_candidates(stream, change_model)
        unary = classify.score_stream(state, stream)
        states = inference.decode_stream(stream, unary, cands, [float(lam)])[0]
    write_labels(StateSequence(state.label_space, states), out)


def run_eval(preds: list, truths: list, label_space: str | Path,
             report_dir: str | Path) -> dict:
    """Score prediction files against truth files, pooled over the videos;
    return the `evaluation.build_report` document, which report.json holds.

    A video's id is its prediction file's name up to the first '.'
    (`test_04.full.txt` is `test_04`); two pairs may not share one.
    """
    report_dir = _out_dir("--report", report_dir)
    if len(preds) != len(truths):
        raise ValueError("--pred and --truth need the same count")
    space = load_label_space(label_space)
    pred_seqs, truth_seqs = {}, {}
    for pred_path, truth_path in zip(preds, truths):
        vid = Path(pred_path).name.split(".")[0]
        if vid in pred_seqs:
            raise ValueError(f"video id {vid!r} (a prediction file's name up to its first "
                             f"'.') is given twice")
        pred_seqs[vid] = read_truth(Path(pred_path), space)
        truth_seqs[vid] = read_truth(Path(truth_path), space)
        if len(pred_seqs[vid]) != len(truth_seqs[vid]):
            raise ValueError(f"{pred_path}: {len(pred_seqs[vid])} frames of predictions for "
                             f"the {len(truth_seqs[vid])} frames of {truth_path}")
    report = evaluation.build_report(pred_seqs, truth_seqs)
    timelines = {v: {"truth": truth_seqs[v], "pred": pred_seqs[v]} for v in pred_seqs}
    evaluation.write_report(report, report_dir, timelines=timelines)
    return report


def _cmd_train_state(args: argparse.Namespace) -> None:
    model = run_train_state(args.features, args.truth, args.label_space, args.c_reg,
                            args.epochs, args.out)
    print(f"state model: K={model.num_classes} D={model.dim} -> {args.out}")


def _cmd_train_change(args: argparse.Namespace) -> None:
    model = run_train_change(args.features, args.truth, args.label_space, args.c_reg,
                             args.epochs, args.d, args.out)
    print(f"change model: d={args.d} D={model.dim} -> {args.out}")


def _cmd_cv(args: argparse.Namespace) -> None:
    plan = crossval.CrossValPlan(
        c_grid=tuple(args.c_grid), d_grid=tuple(args.d_grid), lambda_grid=tuple(args.lambda_grid)
    )
    chosen = run_cv(read_list_file(args.manifest, 2, 2), args.label_space, plan, args.epochs,
                    args.out)
    print(f"chosen: C={chosen['C']} d={chosen['d']} lambda={chosen['lambda']}")


def _cmd_detect_changes(args: argparse.Namespace) -> None:
    run_detect_changes(args.features, args.model, args.d, args.out)


def _cmd_infer(args: argparse.Namespace) -> None:
    run_infer(args.features, args.state_model, args.mode, args.lam, args.d,
              args.change_model, args.cv_result, args.out)


def _cmd_eval(args: argparse.Namespace) -> None:
    report = run_eval(args.pred, args.truth, args.label_space, args.report)
    print(f"accuracy: {report['global_accuracy']:.4f}")


def run_discover(manifest: str | Path, fa_space: str | Path, object_space: str | Path | None,
                 k_lo: int, k_hi: int, out: str | Path) -> dict[int, float | None]:
    """Cluster the active segments that manifest lists into clusters_k<k>.csv
    for each k in k_lo..k_hi up to the segment count, and with object_space
    purity.csv; return each k's purity (or None). Checks all before out, and
    deletes the files of those names that an earlier run left in it."""
    out = _out_dir("--out", out)
    if not 1 <= k_lo <= k_hi:
        raise ValueError(f"--k-range '{k_lo}:{k_hi}': expected A:B with 1 <= A <= B")
    fa = load_label_space(fa_space)
    obj_space = load_label_space(object_space) if object_space else None
    segments: list[discovery.Segment] = []
    truths: dict[str, StateSequence] = {}
    seen: dict[str, tuple[str, int]] = {}  # video id -> its features' path and dim
    for parts in read_list_file(manifest, 2, 3):
        if (len(parts) > 2) != (obj_space is not None):
            raise ValueError(f"{manifest}: give --object-space exactly when every "
                             "line has an object-truth column")
        stream = features_mod.read_features(parts[0])
        if stream.video_id in seen:
            raise ValueError(f"{manifest}: video id {stream.video_id!r} is given twice")
        seen[stream.video_id] = parts[0], stream.dim
        path0, dim0 = next(iter(seen.values()))  # the first stream's
        if stream.dim != dim0:
            raise ValueError(f"{parts[0]}: {stream.dim} feature dims, not the {dim0} of {path0}")
        labels = [read_truth(Path(p), space) for p, space in zip(parts[1:], (fa, obj_space))]
        for path, seq, what in zip(parts[1:], labels, ("predictions", "object truth")):
            if len(seq) != stream.n_frames:
                raise ValueError(f"{path}: {len(seq)} frames of {what} for the "
                                 f"{stream.n_frames} frames of {parts[0]}")
        segments.extend(discovery.active_segments(labels[0], stream))
        if obj_space is not None:
            truths[stream.video_id] = labels[1]
    ks = range(k_lo, min(k_hi, len(segments)) + 1)
    if not ks:
        raise ValueError(f"--k-range {k_lo}:{k_hi}: every k exceeds {len(segments)} segments")
    history = discovery.average_linkage(discovery.segment_similarity_matrix(segments))
    out.mkdir(parents=True, exist_ok=True)
    remove_stale(out, r"clusters_k[1-9][0-9]*\.csv|purity\.csv")
    purities = {}
    for k in ks:
        labels = discovery.cut_history(history, k)
        rows = [(i, seg.video_id, seg.start, seg.end, cluster)
                for i, (seg, cluster) in enumerate(zip(segments, labels))]
        write_csv([("segment", "video_id", "start", "end", "cluster"), *rows],
                  out / f"clusters_k{k}.csv")
        purities[k] = discovery.modified_purity(labels, segments, truths) if truths else None
    if truths:
        write_csv([("k", "purity"), *purities.items()], out / "purity.csv")
    return purities


def _cmd_discover(args: argparse.Namespace) -> None:
    lo, _, hi = args.k_range.partition(":")
    if not (lo.isdecimal() and hi.isdecimal()):
        raise ValueError(f"--k-range {args.k_range!r}: expected A:B with 1 <= A <= B")
    for k, purity in run_discover(args.manifest, args.fa_space, args.object_space, int(lo),
                                  int(hi), args.out).items():
        print(f"k={k}\tclusters written" if purity is None else f"k={k}\tpurity={purity:.4f}")


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


@contextmanager
def _stage(out_dir: Path, name: str, stage: str, parameters: dict, inputs: dict[str, Path]):
    """The stage directory out_dir/name, marked INCOMPLETE while the stage
    runs and given its manifest once the stage has written its files; a
    failure to make it, inside it or in its manifest is raised as a
    StageError naming the stage."""
    sdir = out_dir / name
    try:
        sdir.mkdir(parents=True, exist_ok=True)
        (sdir / "INCOMPLETE").write_text("stage did not finish\n")
        yield sdir
        write_manifest(sdir, stage, parameters, inputs)
    except Exception as e:
        raise StageError(f"stage '{stage}' failed: {e}") from e
    (sdir / "INCOMPLETE").unlink()


def _pipeline_plan(cfg: dict) -> tuple[crossval.CrossValPlan, int]:
    """The CV plan and the epochs of a pipeline config, once every value
    that a later stage would reject has been rejected with the stage's own
    check. An explicit C, d or lambda is a one-value grid, checked as any
    grid value is; the synth values are checked by `_feature_set`."""
    scfg = cfg["synth"]
    if scfg["states"] < 2:
        raise ValueError("synth states must be >= 2: training needs two distinct labels")
    n_train, n_test = scfg["train_videos"], scfg["test_videos"]
    if min(n_train, n_test) < 1:
        raise ValueError("pipeline needs train_videos and test_videos >= 1")
    hyper = cfg["hyperparameters"]
    cvcfg = cfg.get("cv", {})
    plan = crossval.CrossValPlan(
        c_grid=tuple(cvcfg.get("c_grid", crossval.CrossValPlan.c_grid))
        if hyper["C"] == "auto" else (hyper["C"],),
        d_grid=tuple(cvcfg.get("d_grid", crossval.CrossValPlan.d_grid))
        if hyper["d"] == "auto" else (hyper["d"],),
        lambda_grid=tuple(cvcfg.get("lambda_grid", crossval.CrossValPlan.lambda_grid))
        if hyper["lambda"] == "auto" else (hyper["lambda"],),
    )
    if "auto" in hyper.values() and n_train < plan.folds:
        raise ValueError(f"cross-validation needs train_videos >= {plan.folds}, got "
                         f"{n_train}; give C, d and lambda instead of \"auto\"")
    lo, hi = change.valid_band(scfg["frames"], plan.d_grid[-1])
    if hi < lo:
        raise ValueError(f"synth frames {scfg['frames']} leave no change features at "
                         f"d={plan.d_grid[-1]}: they need 2d+1 frames")
    epochs = cfg.get("training", {}).get("epochs", _TRAIN_DEFAULTS.epochs)
    classify.TrainConfig(epochs=epochs)
    return plan, epochs


def run_pipeline(config_path: str | Path, out_dir: str | Path) -> dict:
    """Chain synth -> train -> infer -> eval; rerun-identical artifacts.

    After synth, each stage is the subcommand of that name run over the
    files of the stages before it, so every stage can be rebuilt by hand.
    """
    config_path = Path(config_path)
    out_dir = _out_dir("--out", out_dir)
    cfg = _read_json_object(config_path, _PIPELINE)
    labels = config_path.parent / cfg["label_space"]  # an absolute path replaces the parent
    if not labels.exists():
        raise ValueError(f"label-space file not found: {labels}")
    space = load_label_space(labels)
    scfg, hyper = cfg["synth"], cfg["hyperparameters"]
    n_train, n_test = scfg["train_videos"], scfg["test_videos"]
    vids = [f"{'train' if i < n_train else 'test'}_{i:02d}" for i in range(n_train + n_test)]
    seeded = {"seed": cfg["seed"], **scfg}
    try:  # every value of the config, before any stage
        plan, epochs = _pipeline_plan(cfg)
        pairs = _feature_set(seeded, vids, space, cfg.get("fps", DEFAULT_FPS))
    except ValueError as e:
        raise ValueError(f"{config_path}: {e}") from None
    inputs = {"config": config_path}  # of every manifest after synth

    with _stage(out_dir, "00_synth", "synth", seeded, {**inputs, "label_space": labels}) as sdir:
        _write_feature_set(pairs, sdir, rf"(train|test)_{_INDEX}")
    feats = {v: sdir / f"{v}.feat" for v in vids}
    truths = {v: sdir / f"{v}.truth.txt" for v in vids}
    train_ids, test_ids = vids[:n_train], vids[n_train:]

    if "auto" in hyper.values():
        with _stage(out_dir, "01_cv", "cv", {"plan": str(plan)}, inputs) as cvdir:
            chosen = run_cv([(feats[v], truths[v]) for v in train_ids], labels, plan, epochs,
                            cvdir)
        c_reg, d, lam = chosen["C"], chosen["d"], chosen["lambda"]
    else:
        c_reg, d, lam = float(hyper["C"]), int(hyper["d"]), float(hyper["lambda"])
        if (out_dir / "01_cv").is_dir():  # an earlier run's
            remove_stale(out_dir / "01_cv", r"chosen\.json|table\.csv|manifest\.json|INCOMPLETE",
                         rmdir=True)
    train_feats, train_truths = [feats[v] for v in train_ids], [truths[v] for v in train_ids]

    with _stage(out_dir, "02_state_model", "train-state", {"C": c_reg, "epochs": epochs},
                inputs) as mdir:
        state_model = mdir / "state.bin"
        run_train_state(train_feats, train_truths, labels, c_reg, epochs, state_model)

    with _stage(out_dir, "03_change_model", "train-change", {"C": c_reg, "d": d, "epochs": epochs},
                inputs) as mdir:
        change_model = mdir / "change.bin"
        run_train_change(train_feats, train_truths, labels, c_reg, epochs, d, change_model)

    with _stage(out_dir, "04_candidates", "detect-changes", {"d": d}, inputs) as cdir:
        remove_stale(cdir, rf"test_{_INDEX}\.txt")
        for v in test_ids:
            run_detect_changes(feats[v], change_model, out=cdir / f"{v}.txt")

    with _stage(out_dir, "05_predictions", "infer", {"lambda": lam, "d": d}, inputs) as pdir:
        remove_stale(pdir, rf"test_{_INDEX}\.(full|unary)\.txt")
        preds = {tag: [pdir / f"{v}.{tag}.txt" for v in test_ids] for tag in ("full", "unary")}
        for v, full, unary in zip(test_ids, preds["full"], preds["unary"]):
            run_infer(feats[v], state_model, "full", lam, change_model=change_model, out=full)
            run_infer(feats[v], state_model, "unary", out=unary)

    accuracies = {}
    for tag, tag_preds in preds.items():
        with _stage(out_dir, f"06_eval_{tag}", f"eval-{tag}", {}, inputs) as edir:
            report = run_eval(tag_preds, [truths[v] for v in test_ids], labels, edir)
        accuracies[tag] = report["global_accuracy"]

    write_json(
        {"accuracy_full": accuracies["full"], "accuracy_unary": accuracies["unary"],
         "C": c_reg, "d": d, "lambda": lam},
        out_dir / "summary.json",
    )
    return accuracies


def _cmd_pipeline(args: argparse.Namespace) -> None:
    accuracies = run_pipeline(args.config, args.out)
    print(f"unary accuracy: {accuracies['unary']:.4f}")
    print(f"full accuracy:  {accuracies['full']:.4f}")


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
    sp.add_argument("--beta-threshold", type=float, default=alignment.BETA_THRESHOLD)
    sp.add_argument("--scales", type=float, nargs="+", default=alignment.SCALES)
    sp.set_defaults(func=_cmd_align)

    sp = sub.add_parser("extract", help="color-histogram features from frames")
    sp.add_argument("--video", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--camera", choices=sorted(_CAMERAS), default="right_hand")
    sp.add_argument("--fps", type=float, default=DEFAULT_FPS)
    sp.add_argument("--bins", type=int, default=features_mod.DEFAULT_BINS)
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
        sp.add_argument("--c-reg", type=float, default=_TRAIN_DEFAULTS.c_reg)
        sp.add_argument("--epochs", type=int, default=_TRAIN_DEFAULTS.epochs)
        sp.add_argument("--out", required=True)
        if name == "train-change":
            sp.add_argument("--d", type=int, required=True)
        sp.set_defaults(func=handler)

    sp = sub.add_parser("cv", help="5-fold hyperparameter search")
    sp.add_argument("--manifest", required=True,
                    help="lines of '<features>\\t<truth>' per video")
    sp.add_argument("--label-space", required=True)
    sp.add_argument("--c-grid", type=float, nargs="+", default=crossval.CrossValPlan.c_grid)
    sp.add_argument("--d-grid", type=int, nargs="+", default=crossval.CrossValPlan.d_grid)
    sp.add_argument("--lambda-grid", type=float, nargs="+",
                    default=crossval.CrossValPlan.lambda_grid)
    sp.add_argument("--epochs", type=int, default=_TRAIN_DEFAULTS.epochs)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_cv)

    sp = sub.add_parser("detect-changes", help="change candidates of one stream")
    sp.add_argument("--features", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--d", type=int, help="checked against the model's d")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_detect_changes)

    sp = sub.add_parser("infer", help="predict per-frame states")
    sp.add_argument("--features", required=True)
    sp.add_argument("--state-model", required=True)
    sp.add_argument("--mode", choices=["unary", "full"], required=True)
    sp.add_argument("--lambda", dest="lam", help="boundary weight")
    sp.add_argument("--cv-result", help="chosen.json from a cv run: its lambda")
    sp.add_argument("--change-model")
    sp.add_argument("--d", type=int, help="checked against the change model's d")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_infer)

    sp = sub.add_parser("eval", help="score predictions against ground truth")
    sp.add_argument("--pred", nargs="+", required=True,
                    help="one file per video; its id is the file name up to the first '.'")
    sp.add_argument("--truth", nargs="+", required=True)
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
        args.func(args)
        return 0
    except Exception as e:
        cause = e.__cause__ if isinstance(e, StageError) else e
        if isinstance(cause, (ValueError, OSError)):  # a data error
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"internal error: {type(cause).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
