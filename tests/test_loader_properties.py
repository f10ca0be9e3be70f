"""Property tests for the file loaders.

A valid detection, prediction, feature or tensor file is mutated at random:
a key dropped, a value replaced by JSON of any type, a line or header
replaced by a non-object, a line or the payload cut short or extended. Each
mutated file must either load or raise a ``ValueError`` that names the file;
any other exception fails the test.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodtrack.detections import Detection
from vodtrack.evalio import (
    VideoDetectionSet,
    load_detections,
    load_features,
    load_named_arrays,
    load_predictions,
    save_detections,
    save_features,
    save_named_arrays,
    save_predictions,
)
from vodtrack.geometry import Box
from vodtrack.tensor_ops import FeaturePyramid
from vodtrack.tracker import TrackPrediction

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# Frame indices of detection records are drawn below this bound: loading a
# detection file allocates one list per frame up to its largest index, so a
# huge index exhausts memory instead of failing (an open loader limit).
MAX_FRAME = 10_000


# Integers past int64 and past the largest float.
HUGE_INTS = st.sampled_from([2**63, -(2**63) - 1, 10**400])


def json_values(ints=st.integers() | HUGE_INTS):
    scalars = st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=8,
    )


def non_objects():
    return json_values().filter(lambda v: not isinstance(v, dict))


def sample_detections():
    a = [Detection(0, 1, 0.9, Box(0, 0, 10, 10), track=4, provenance="detected"),
         Detection(1, 2, 0.4, Box(2.5, 3, 9, 12.25), provenance="tracked"),
         Detection(2, 1, 0.7, Box(5, 5, 6, 7))]
    b = [Detection(0, 0, 0.3, Box(1, 1, 4, 4), track=0)]
    return [VideoDetectionSet.from_records("v0", a), VideoDetectionSet.from_records("v1", b)]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The text of a valid detection and prediction file, the bytes of a valid
    feature and tensor file."""
    tmp = tmp_path_factory.mktemp("valid")
    sets = sample_detections()
    save_detections(sets, tmp / "dets.jsonl")
    preds = [[TrackPrediction(d, d.box.shift(1.0, -0.5), 0.8) for d in frame] for frame in sets[0].frames]
    save_predictions(preds, "v0", tmp / "preds.jsonl")
    rng = np.random.default_rng(5)
    pyr = FeaturePyramid(((4, rng.random((2, 4, 4))), (8, rng.random((3, 2, 2)))), 16, 16)
    save_features(pyr, tmp / "f.feat")
    save_named_arrays({"a": rng.random((2, 3)), "b": rng.random(4), "c": np.array(1.5)}, tmp / "w.tensors")
    return {
        "detections": (tmp / "dets.jsonl").read_text(),
        "predictions": (tmp / "preds.jsonl").read_text(),
        "features": (tmp / "f.feat").read_bytes(),
        "tensors": (tmp / "w.tensors").read_bytes(),
    }


def mutate_object(draw, how: str, obj: dict, targets: list[dict], bounded: set[str]) -> None:
    """Drop a key from (``how == "drop"``), or give another JSON value to, one of
    ``targets`` in place."""
    target = draw(st.sampled_from([t for t in targets if t]))
    key = draw(st.sampled_from(sorted(target)))
    if how == "drop":
        del target[key]
    else:
        ints = st.integers(-MAX_FRAME, MAX_FRAME) if key in bounded and target is obj else st.integers()
        target[key] = draw(json_values(ints))


def mutated_lines(draw, how: str, text: str, bounded: set[str]) -> str:
    """``text`` with one line mutated as ``how`` says."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if how in ("drop", "retype"):
        obj = json.loads(lines[i])
        targets = [obj] + ([obj["source"]] if "source" in obj else [])
        mutate_object(draw, how, obj, targets, bounded)
        lines[i] = json.dumps(obj)
    elif how == "non-object":
        lines[i] = json.dumps(draw(non_objects()))
    elif how == "cut":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    else:
        lines[i] += draw(st.text(min_size=1, max_size=8).filter(lambda s: "\n" not in s and "\r" not in s))
    return "\n".join(lines) + "\n"


def mutated_container(draw, how: str, data: bytes) -> bytes:
    """A feature or tensor file with its header or payload mutated as ``how`` says."""
    header_line, payload = data.split(b"\n", 1)
    if how in ("drop", "retype"):
        header = json.loads(header_line)
        entries = [e for key in ("levels", "arrays") for e in header.get(key, [])]
        mutate_object(draw, how, header, [header] + entries, set())
        header_line = json.dumps(header).encode()
    elif how == "non-object":
        header_line = json.dumps(draw(non_objects())).encode()
    elif how == "raw-header":
        header_line = draw(st.binary(max_size=24).filter(lambda b: b"\n" not in b))
    elif how == "cut":
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    else:
        payload += draw(st.binary(min_size=1, max_size=24))
    return header_line + b"\n" + payload


LINE_MUTATIONS = ["drop", "retype", "non-object", "cut", "extend"]
CONTAINER_MUTATIONS = ["drop", "retype", "non-object", "raw-header", "cut", "extend"]


def loads_or_names_file(loader, path) -> None:
    try:
        loader(path)
    except ValueError as exc:
        assert path.name in str(exc)


@pytest.mark.parametrize("how", LINE_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_detection_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated-dets.jsonl"
    path.write_text(mutated_lines(data.draw, how, valid_files["detections"], {"frame"}))
    loads_or_names_file(load_detections, path)


@pytest.mark.parametrize("how", LINE_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_prediction_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated-preds.jsonl"
    path.write_text(mutated_lines(data.draw, how, valid_files["predictions"], set()))
    loads_or_names_file(load_predictions, path)


@pytest.mark.parametrize("how", CONTAINER_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_feature_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated.feat"
    path.write_bytes(mutated_container(data.draw, how, valid_files["features"]))
    loads_or_names_file(load_features, path)


@pytest.mark.parametrize("how", CONTAINER_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_tensor_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated.tensors"
    path.write_bytes(mutated_container(data.draw, how, valid_files["tensors"]))
    loads_or_names_file(load_named_arrays, path)
