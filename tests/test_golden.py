"""Recorded digests of four small run trees, checked against a fresh run.

Each chain runs in a child `python -m handcam.cli`, with OpenBLAS, OpenMP
and MKL held to one thread, so its bytes cannot depend on the caller's
thread count:
- `pipeline` on the criterion-8 config of `test_acceptance.py`; its
  `06_eval_*` stages write `report.json` and `report.csv`;
- `synth videos` of three tiny videos at planted scales, then `align` of
  them, which writes `alignment.json`; then `extract` of each aligned
  video (one as the head camera), `fuse` of two of the streams, and
  `discover --object-space` over the three streams, with free/active
  predictions and object truths this process writes, at every k from 1 to
  the segment count;
- `pipeline` with C, d and lambda all "auto" (cv-auto, shrunk); its
  `01_cv` stage writes `chosen.json`, `table.csv` and `manifest.json`;
- on three K = 24 object streams, which this process synthesizes as
  inputs: `train-state` and `train-change` on two, then `detect-changes`,
  `infer --mode full` and `--mode unary` and `eval` of each mode on the
  third, as on long-video.

`golden/digests.json` maps every file of the trees to its sha256, beside
the numpy version and BLAS build it was recorded with. A change that moves
artifact bytes on purpose re-records it with `python tests/golden/record.py`
and names each moved file and its reason; the test never writes the record.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from handcam.cli import run_synth_features

SRC = Path(__file__).resolve().parents[1] / "src"
RECORD = Path(__file__).resolve().parent / "golden" / "digests.json"

LABELS = ("task = gesture\n"
          "labels = free, g01, g02, g03, g04, g05, g06, g07, g08, g09, g10, g11, g12\n"
          "free_label = free\n")
PIPELINE = {
    "seed": 11,
    "label_space": "labels.txt",
    "synth": {"train_videos": 4, "test_videos": 2, "frames": 200, "states": 3,
              "dim": 6, "min_dwell": 20, "noise_sigma": 0.6},
    "hyperparameters": {"C": 0.1, "d": 3, "lambda": 1.0},
    "training": {"epochs": 120},
}
VIDEOS = {
    "seed": 5, "frames": 6, "frame_width": 48, "frame_height": 36,
    "hand_width": 12, "hand_height": 12, "noise_sigma": 60.0, "jitter": 0,
    "videos": [{"video_id": "va", "scale": 1.0, "dx": 5, "dy": 4},
               {"video_id": "vb", "scale": 1.1, "dx": 12, "dy": 6},
               {"video_id": "vc", "scale": 1.2, "dx": 8, "dy": 10}],
}
FREE_ACTIVE = "task = free_active\nlabels = free, active\nfree_label = free\n"
CV_PIPELINE = {
    "seed": 3,
    "label_space": "free_active.txt",
    "synth": {"train_videos": 5, "test_videos": 1, "frames": 120, "states": 2,
              "dim": 8, "min_dwell": 12, "noise_sigma": 1.0},
    "hyperparameters": {"C": "auto", "d": "auto", "lambda": "auto"},
    "training": {"epochs": 60},
    "cv": {"c_grid": [0.1, 1.0], "d_grid": [3, 6], "lambda_grid": [0.3, 1.0, 3.0]},
}
OBJECTS = [f"o{i:02d}" for i in range(24)]
OBJECT_SPACE = (f"task = object_category\nlabels = {', '.join(OBJECTS)}\n"
                f"free_label = {OBJECTS[0]}\n")
STREAMS = {"seed": 7, "videos": 3, "states": 24, "dim": 16, "frames": 400, "min_dwell": 8,
           "noise_sigma": 0.3}
# per aligned video: its extract options, then its free/active predictions
# and object truths, one label a frame (8 active segments in all)
DISCOVER = {
    "va": ([], "active active free active free active", "o01 o01 o00 o02 o00 o02"),
    "vb": (["--camera", "head"], "free active active active free active",
           "o00 o02 o02 o01 o00 o01"),
    "vc": ([], "active free active active free active", "o01 o00 o02 o02 o00 o01"),
}
# the run trees whose files are recorded, each a directory of the chains' root
TREES = ("pipeline", "videos", "aligned", "cv_pipeline", "k24", "features", "discover")


def host() -> dict[str, str]:
    """What the recorded bytes may depend on besides the code: numpy's
    version and the BLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def handcam(root: Path, *argv: str) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), *sys.path]))
    done = subprocess.run([sys.executable, "-m", "handcam.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, f"handcam {' '.join(argv)}: {done.stderr}"


def run_chains(root: Path) -> dict[str, str]:
    """Run every chain under root: the sha256 of each file of their run
    trees, by its path relative to root."""
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    (inputs / "labels.txt").write_text(LABELS)
    (inputs / "pipeline.json").write_text(json.dumps(PIPELINE))
    (inputs / "videos.json").write_text(json.dumps(VIDEOS))
    (inputs / "videos.txt").write_text("".join(f"videos/{v['video_id']}\n"
                                               for v in VIDEOS["videos"]))
    handcam(root, "pipeline", "--config", "inputs/pipeline.json", "--out", "pipeline")
    handcam(root, "synth", "videos", "--config", "inputs/videos.json", "--out", "videos")
    handcam(root, "align", "--manifest", "inputs/videos.txt", "--out", "aligned",
            "--scales", "1.0", "1.1", "1.2")
    (inputs / "free_active.txt").write_text(FREE_ACTIVE)
    (inputs / "cv_pipeline.json").write_text(json.dumps(CV_PIPELINE))
    handcam(root, "pipeline", "--config", "inputs/cv_pipeline.json", "--out", "cv_pipeline")
    (inputs / "objects.txt").write_text(OBJECT_SPACE)
    run_k24_chain(root)
    run_discover_chain(root)
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for tree in TREES for p in sorted((root / tree).rglob("*")) if p.is_file()}


def run_k24_chain(root: Path) -> None:
    """Train on two K = 24 streams; detect, decode both ways and score the
    third. The streams are inputs, written in this process."""
    inputs = root / "inputs"
    (inputs / "streams.json").write_text(json.dumps(STREAMS))
    run_synth_features(inputs / "streams.json", inputs / "objects.txt", inputs / "streams")
    (root / "k24").mkdir()
    space = ["--label-space", "inputs/objects.txt"]
    train = ["--features", "inputs/streams/video_00.feat", "inputs/streams/video_01.feat",
             "--truth", "inputs/streams/video_00.truth.txt", "inputs/streams/video_01.truth.txt",
             *space, "--epochs", "80"]
    handcam(root, "train-state", *train, "--out", "k24/state.bin")
    handcam(root, "train-change", *train, "--d", "3", "--out", "k24/change.bin")
    test = ["--features", "inputs/streams/video_02.feat"]
    handcam(root, "detect-changes", *test, "--model", "k24/change.bin", "--out", "k24/cands.txt")
    model = [*test, "--state-model", "k24/state.bin"]
    handcam(root, "infer", *model, "--mode", "full", "--lambda", "1.0",
            "--change-model", "k24/change.bin", "--out", "k24/video_02.full.txt")
    handcam(root, "infer", *model, "--mode", "unary", "--out", "k24/video_02.unary.txt")
    for mode in ("full", "unary"):
        handcam(root, "eval", "--pred", f"k24/video_02.{mode}.txt", "--truth",
                "inputs/streams/video_02.truth.txt", *space, "--report", f"k24/eval_{mode}")


def run_discover_chain(root: Path) -> None:
    """Extract each aligned video, fuse the first two streams, and cluster
    the three streams' active segments at every k. The predictions and
    object truths are inputs, written in this process."""
    inputs = root / "inputs"
    (root / "features").mkdir()
    lines = []
    for vid, (options, predicted, objects) in DISCOVER.items():
        handcam(root, "extract", "--video", f"aligned/{vid}", "--out", f"features/{vid}.feat",
                *options)
        for kind, labels in (("pred", predicted), ("objects", objects)):
            (inputs / f"{vid}.{kind}.txt").write_text("\n".join(labels.split()) + "\n")
        lines.append(f"features/{vid}.feat\tinputs/{vid}.pred.txt\tinputs/{vid}.objects.txt\n")
    (inputs / "discover.txt").write_text("".join(lines))
    handcam(root, "fuse", "--inputs", "features/va.feat", "features/vb.feat", "--out",
            "features/fused.feat")
    handcam(root, "discover", "--manifest", "inputs/discover.txt", "--fa-space",
            "inputs/free_active.txt", "--object-space", "inputs/objects.txt", "--k-range", "1:8",
            "--out", "discover")


def differences(recorded: dict[str, str], fresh: dict[str, str]) -> list[str]:
    """One line per path whose digest moved, or that appeared or vanished."""
    return ([f"moved: {p}" for p in sorted(recorded.keys() & fresh.keys())
             if recorded[p] != fresh[p]]
            + [f"appeared: {p}" for p in sorted(fresh.keys() - recorded.keys())]
            + [f"vanished: {p}" for p in sorted(recorded.keys() - fresh.keys())])


def test_differences_detector():
    recorded = {"a": "1", "b": "2", "c": "3"}
    fresh = {"a": "1", "b": "9", "d": "4"}
    assert differences(recorded, fresh) == ["moved: b", "appeared: d", "vanished: c"]
    assert differences(recorded, dict(recorded)) == []


def test_run_trees_match_the_record(tmp_path):
    record = json.loads(RECORD.read_text())
    lines = differences(record["files"], run_chains(tmp_path))
    if lines and record["host"] != host():
        lines.insert(0, f"recorded on {record['host']}, run on {host()}")
    assert not lines, "\n".join(lines)
