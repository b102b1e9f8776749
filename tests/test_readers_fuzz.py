"""Damaged files: the `.feat`, `.bin`, `.ppm`, label-space, truth and list
file readers either read the file or raise their documented error, never
another exception.

Each example takes a valid file and applies one to three damages: a
truncation anywhere, a single-byte flip in the header, or an overwritten
8-byte run in the header. A label-space file is all header. PPM headers are
also rewritten token by token. Examples are derandomized so the suite is
repeatable.

The JSON documents the CLI reads (pipeline and synth configs, chosen.json)
also get damages to their structure: a value of the wrong type, NaN,
Infinity or an edge number, a key removed, an unknown key or a key given
twice. The command reading one exits 0 or 2, never 3. Replacement numbers
stay small, so that a document that is still valid asks for little work.
"""

import json
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handcam.cli import main, read_list_file, read_truth
from handcam.classify import (
    LinearModel, ModelFileError, TrainConfig, load_model, model_bytes, save_model,
)
from handcam.core import (
    Camera, FeatureStream, LabelSpace, Task, load_label_space,
)
from handcam.features import FeatureFileError, read_features, write_features
from handcam.media import PpmError, load_ppm, save_ppm
from conftest import free_active, space_of
from test_core import save_label_space

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
)


@st.composite
def damaged(draw, files):
    """One of `files` (bytes, header length) with one to three damages."""
    data, header_len = draw(st.sampled_from(files))
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "overwrite"]))
        end = min(header_len, len(buf))
        if kind == "truncate" and buf:
            del buf[draw(st.integers(0, len(buf) - 1)) :]
        elif kind == "flip" and end > 0:
            buf[draw(st.integers(0, end - 1))] ^= draw(st.integers(1, 255))
        elif kind == "overwrite" and end >= 8:
            at = draw(st.integers(0, end - 8))
            buf[at : at + 8] = draw(st.binary(min_size=8, max_size=8))
    return bytes(buf)


def feature_file(tmp_path, video_id, values):
    path = tmp_path / "valid.feat"
    write_features(FeatureStream(video_id, Camera.HEAD, 6.0, values), path)
    data = path.read_bytes()
    return data, len(data) - 4 * values.size


def model_file(weights, label_space=None, d=None):
    model = LinearModel(weights, np.arange(weights.shape[0], dtype=np.float64),
                        label_space, TrainConfig(c_reg=0.5, epochs=7), d)
    data = model_bytes(model)
    return data, len(data) - 8 * (weights.size + weights.shape[0])


def test_read_features_damaged(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("feat")
    rng = np.random.default_rng(0)
    files = [
        feature_file(tmp, "clip_01", rng.standard_normal((3, 2))),
        feature_file(tmp, "vidéo", rng.standard_normal((1, 5))),
    ]

    @FUZZ
    @given(damaged(files))
    def check(data):
        path = tmp / "damaged.feat"
        path.write_bytes(data)
        try:
            stream = read_features(path)
        except FeatureFileError:
            return
        assert stream.n_frames >= 1 and stream.dim >= 1

    check()


def test_load_model_damaged(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    rng = np.random.default_rng(1)
    files = [
        model_file(rng.standard_normal((2, 3)), free_active()),
        model_file(rng.standard_normal((1, 4)), d=3),
        model_file(rng.standard_normal((3, 2)), space_of(3)),
    ]

    @FUZZ
    @given(damaged(files))
    def check(data):
        path = tmp / "damaged.bin"
        path.write_bytes(data)
        try:
            model = load_model(path)
        except ModelFileError:
            return
        assert model.weights.shape[0] == model.bias.shape[0]

    check()


def test_kind_byte_must_match_the_weights(tmp_path, capsys):
    # a kind 1 (change) file marked kind 2 loaded as a change model with its
    # d. Kind 2 was a multiclass model with no label space: the layout of
    # kind 1 with three rows and no d. It is no kind now.
    rng = np.random.default_rng(3)
    files = {
        0: model_file(rng.standard_normal((2, 3)), free_active())[0],
        1: model_file(rng.standard_normal((1, 4)), d=3)[0],
        2: (b"HCLM" + struct.pack("<IBdIQII", 2, 2, 0.5, 7, 0, 3, 2)
            + rng.standard_normal((3, 2)).tobytes() + np.arange(3.0).tobytes()),
    }
    feat = tmp_path / "v.feat"
    write_features(FeatureStream("v", Camera.HEAD, 6.0, rng.standard_normal((5, 3))), feat)
    path = tmp_path / "flipped.bin"
    for kind, data in files.items():
        path.write_bytes(data)
        if kind == 2:
            with pytest.raises(ModelFileError, match="unknown model kind 2"):
                load_model(path)
        else:
            assert load_model(path).weights.shape[0] == {0: 2, 1: 1}[kind]
        for other in set(files) - {kind}:
            flipped = bytearray(data)
            flipped[8] = other
            path.write_bytes(bytes(flipped))
            with pytest.raises(ModelFileError):
                load_model(path)
            capsys.readouterr()
            assert main(["infer", "--features", str(feat), "--state-model", str(path),
                         "--mode", "unary"]) == 2, (kind, other)
            assert f"--state-model {path}: " in capsys.readouterr().err


def test_unmappable_features_exit_2_naming_the_path(tmp_path, capsys):
    # an empty file cannot be mapped (Python: "cannot mmap an empty file"),
    # nor can a directory
    rng = np.random.default_rng(4)
    model = tmp_path / "state.bin"
    save_model(LinearModel(rng.standard_normal((2, 3)), np.zeros(2), free_active(),
                           TrainConfig()), model)
    empty = tmp_path / "empty.feat"
    empty.write_bytes(b"")
    for path in (empty, tmp_path):
        for argv in (["infer", "--features", str(path), "--state-model", str(model),
                      "--mode", "unary"],
                     ["fuse", "--inputs", str(path), "--out", str(tmp_path / "out.feat")]):
            capsys.readouterr()
            assert main(argv) == 2, (path, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: cannot map the file"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.feat", "state.bin"]


def ppm_file(tmp_path, pixels):
    path = tmp_path / "valid.ppm"
    save_ppm(pixels, path)
    data = path.read_bytes()
    return data, len(data) - pixels.size


@st.composite
def rewritten_header(draw, files):
    """A PPM with one header token maybe replaced, other separators and
    maybe no pixel data."""
    data, header_len = draw(st.sampled_from(files))
    tokens = data[:header_len].split()  # magic, width, height, maxval
    i = draw(st.integers(0, 3))
    tokens[i] = draw(st.one_of(
        st.just(tokens[i]),
        st.integers(-3, 2**70).map(lambda v: str(v).encode()),
        st.sampled_from([b"P3", b"P6", b"0", b"255", b"65535", b"1e3", b"\xd9\xa3", b""]),
        st.binary(max_size=4),
    ))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" #c\n", b"#", b""]))
    end = draw(st.sampled_from([b"\n", b"", b"\n\n", b"#\n", b"#", b" ", b"\t"]))
    payload = data[header_len:] if draw(st.booleans()) else b""
    return tokens[0] + sep + sep.join(tokens[1:]) + end + payload


def test_load_ppm_damaged(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ppm")
    rng = np.random.default_rng(2)
    files = [
        ppm_file(tmp, rng.integers(0, 256, (2, 3, 3), dtype=np.uint8)),
        ppm_file(tmp, rng.integers(0, 256, (1, 1, 3), dtype=np.uint8)),
        ppm_file(tmp, rng.integers(0, 256, (4, 2, 3), dtype=np.uint8)),
    ]

    @FUZZ
    @given(st.one_of(damaged(files), rewritten_header(files)))
    def check(data):
        path = tmp / "damaged.ppm"
        path.write_bytes(data)
        try:
            px = load_ppm(path)
        except PpmError:
            return
        assert px.dtype == np.uint8 and px.ndim == 3 and px.shape[2] == 3
        # the pixels are the bytes after one whitespace byte that ends the header
        header, payload = data[: -px.size], data[-px.size :]
        assert header[-1:].isspace() and px.tobytes() == payload

    check()


def test_load_label_space_damaged(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("labels")
    files = []
    for i, space in enumerate((
        free_active(),
        LabelSpace(Task.GESTURE, ("free",) + tuple(f"g{i:02d}" for i in range(1, 13)), 0),
    )):
        save_label_space(space, tmp / f"valid{i}.txt")
        data = (tmp / f"valid{i}.txt").read_bytes()
        files.append((data, len(data)))

    @FUZZ
    @given(damaged(files))
    def check(data):
        path = tmp / "damaged.txt"
        path.write_bytes(data)
        try:
            space = load_label_space(path)
        except ValueError as e:
            assert str(e).startswith(f"{path}:"), e
            return
        assert 0 <= space.free_label_index < space.num_labels

    check()


# label names mixed with what splits lines, pads fields or starts comments
TEXT_PIECES = st.sampled_from(
    ["free", "active", "g01", "free ", " active", "\n", "\r", "\r\n", "\x85", "\u2028",
     "\x0b", "\x0c", " ", "\t", "\x00", "#", "# c", "\ufeff", "é"]
)


def text_file_bytes():
    """Arbitrary bytes, or text pieces encoded as UTF-8 or Latin-1."""
    pieces = st.lists(TEXT_PIECES, max_size=12).map("".join)
    return st.one_of(
        st.binary(max_size=40),
        pieces.map(lambda t: t.encode("utf-8")),
        pieces.map(lambda t: t.encode("latin-1", "replace")),
    )


def test_read_truth_arbitrary(tmp_path_factory):
    path = tmp_path_factory.mktemp("truth") / "damaged.txt"
    space = free_active()

    @FUZZ
    @given(text_file_bytes())
    def check(data):
        path.write_bytes(data)
        try:
            seq = read_truth(path, space)
        except ValueError as e:
            assert str(e).startswith(f"{path}:"), e
            return
        except OSError:
            return
        assert {space.labels[s] for s in seq.states} <= set(space.labels)

    check()


def test_read_list_file_arbitrary(tmp_path_factory):
    path = tmp_path_factory.mktemp("list") / "damaged.txt"

    @FUZZ
    @given(text_file_bytes(), st.sampled_from([(1, 1), (2, 2), (2, 3)]))
    def check(data, cols):
        path.write_bytes(data)
        try:
            rows = read_list_file(path, *cols)
        except ValueError as e:
            assert str(e).startswith(f"{path}:"), e
            return
        except OSError:
            return
        assert all(cols[0] <= len(row) <= cols[1] for row in rows)
        assert all(row[0] and not row[0].startswith("#") for row in rows)

    check()


# JSON values of every type; numbers small enough that a valid document
# stays cheap to run, plus the non-finite floats Python's json writes
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 9),
        st.floats(-2.0, 4.0), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
        st.sampled_from(["auto", "", "fa.txt", "0", "1e3", "v"]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["C", "seed", "x"]), inner,
                                            max_size=2)),
    max_leaves=4,
)


def _objects(doc, path=()):
    """Paths of every JSON object in doc, the document itself first."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from _objects(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _objects(value, path + (i,))


@st.composite
def damaged_json(draw, doc):
    """JSON text of doc with one damage to its bytes or its structure, and
    whether the damage alone makes the document invalid."""
    kind = draw(st.sampled_from(["bytes", "value", "remove", "unknown", "duplicate"]))
    if kind == "bytes":
        data = json.dumps(doc).encode()
        return draw(damaged([(data, len(data))])), False
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_objects(doc))))
    obj = doc
    for step in path:
        obj = obj[step]
    key = draw(st.sampled_from(sorted(obj)))
    value = draw(JSON_VALUES)
    if kind == "value":
        obj[key] = value
    elif kind == "remove":
        del obj[key]
    elif kind == "unknown":
        obj[key + "_extra"] = value
    else:  # the key twice: a stand-in string is replaced by the text of both entries
        first = json.dumps({key: value})[:-1]
        rest = json.dumps(obj)[1:]
        placeholder = "@duplicate@"
        if path:
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]] = placeholder
            return json.dumps(doc).replace(f'"{placeholder}"', f"{first}, {rest}").encode(), True
        return f"{first}, {rest}".encode(), True
    return json.dumps(doc).encode(), kind == "unknown"


JSON_FUZZ = settings(FUZZ, max_examples=60)


def fuzz_command(tmp, name, doc, argv, check_out=None):
    """Run argv (with {config} and {out}) on damaged copies of doc: exit 0
    or 2, and 2 for an unknown or repeated key. check_out(code, out), if
    given, then checks what the command left at {out}."""
    config = tmp / f"{name}.json"

    @JSON_FUZZ
    @given(damaged_json(doc))
    def check(damage):
        data, invalid = damage
        config.write_bytes(data)
        out = tmp / f"{name}_out"
        try:
            code = main([a.format(config=config, out=out) for a in argv])
            assert code == 2 if invalid else code in (0, 2)
            if check_out is not None:
                check_out(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    check()


def test_pipeline_config_damaged(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    save_label_space(free_active(), tmp / "fa.txt")
    doc = {
        "seed": 1, "label_space": "fa.txt", "fps": 6.0,
        "synth": {"states": 2, "dim": 3, "frames": 24, "min_dwell": 4, "noise_sigma": 0.5,
                  "transition_ramp": 1, "train_videos": 2, "test_videos": 1},
        "hyperparameters": {"C": 1.0, "d": 2, "lambda": 1.0},
        "training": {"epochs": 3},
        "cv": {"c_grid": [1.0], "d_grid": [2], "lambda_grid": [1.0]},
    }
    fuzz_command(tmp, "pipeline", doc, ["pipeline", "--config", "{config}", "--out", "{out}"])


def no_out_on_exit_2(code, out):
    assert code != 2 or not out.exists()


def test_synth_configs_damaged(tmp_path_factory):
    # a rejected config leaves no --out, and extract reads every video an
    # accepted synth videos config writes
    tmp = tmp_path_factory.mktemp("synth")
    save_label_space(free_active(), tmp / "fa.txt")
    features = {"seed": 1, "states": 2, "dim": 3, "frames": 12, "min_dwell": 3,
                "noise_sigma": 0.5, "transition_ramp": 1, "videos": 2}
    fuzz_command(tmp, "features", features, ["synth", "features", "--config", "{config}",
                                             "--label-space", str(tmp / "fa.txt"),
                                             "--out", "{out}"], no_out_on_exit_2)
    videos = {"seed": 1, "frames": 2, "frame_width": 9, "frame_height": 8, "hand_width": 3,
              "hand_height": 3, "noise_sigma": 2.0, "jitter": 0,
              "videos": [{"video_id": "va", "scale": 1.0, "dx": 2, "dy": 2},
                         {"video_id": "vb", "scale": 1.25, "dx": 3, "dy": 1}]}

    def extract_every_video(code, out):
        no_out_on_exit_2(code, out)
        if code == 0:
            for vid in json.loads((out / "ground_truth.json").read_text()):
                assert main(["extract", "--video", str(out / vid),
                             "--out", str(out / f"{vid}.feat")]) == 0, vid

    fuzz_command(tmp, "videos", videos, ["synth", "videos", "--config", "{config}",
                                         "--out", "{out}"], extract_every_video)


def test_chosen_json_damaged(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("chosen")
    save_label_space(free_active(), tmp / "fa.txt")
    rng = np.random.default_rng(3)
    write_features(FeatureStream("v", Camera.HEAD, 6.0, rng.standard_normal((12, 2))),
                   tmp / "v.feat")
    save_model(LinearModel(rng.standard_normal((2, 2)), np.zeros(2), free_active(),
                           TrainConfig()), tmp / "state.bin")
    save_model(LinearModel(rng.standard_normal((1, 2)), np.zeros(1), None, TrainConfig(), 2),
               tmp / "change.bin")
    fuzz_command(tmp, "chosen", {"C": 1.0, "d": 2, "lambda": 0.5},
                 ["infer", "--features", str(tmp / "v.feat"), "--state-model",
                  str(tmp / "state.bin"), "--change-model", str(tmp / "change.bin"),
                  "--mode", "full", "--cv-result", "{config}",
                  "--out", "{out}"])
