"""Damaged binary files: the `.feat` and `.bin` readers either read the file
or raise their documented error, never another exception.

Each example takes a valid file and applies one to three damages: a
truncation anywhere, a single-byte flip in the header, or an overwritten
8-byte run in the header. Examples are derandomized so the suite is
repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from handcam.classify import LinearModel, ModelFileError, TrainConfig, load_model, model_bytes
from handcam.core import Camera, FeatureStream, LabelSpace
from handcam.features import FeatureFileError, read_features, write_features

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
        model_file(rng.standard_normal((2, 3)), LabelSpace.free_active()),
        model_file(rng.standard_normal((1, 4)), d=3),
        model_file(rng.standard_normal((3, 2))),
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
