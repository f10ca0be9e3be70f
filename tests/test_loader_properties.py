"""Property tests for the file loaders.

A valid detection, prediction, feature, tensor, weights or scenario file is
mutated at random: a key dropped, a value replaced by JSON of any type, a
frame index or frame count set at or past the largest allowed, a line,
header or spec replaced by a non-object, a line, the payload or the spec cut
short or extended, a weights array given another shape of the same size, or
an unknown key added to a spec. Each mutated file must either load or raise
a ``ValueError`` that names the file; any other exception fails the test. A
prediction file is loaded against the detections it was written from. A
spec with an unknown key must not load. A table of hand-made weights faults
checks each message in full.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Box, Detection, TrackPrediction, channels_last, frames_of, predictions, records_set
from vodtrack.evalio import (
    MAX_FRAME_INDEX,
    load_detections,
    load_features,
    load_named_arrays,
    load_predictions,
    save_detections,
    save_features,
    save_named_arrays,
    save_predictions,
)
from vodtrack.synth import load_scenario, preset_scenario, save_scenario
from vodtrack.tensor_ops import FeaturePyramid
from vodtrack.tracker import (
    TrackerConfig,
    load_weights,
    save_weights,
    synthesize_weights,
)

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# Integers past int64 and past the largest float, and integers at the
# largest frame index a detection record may carry.
HUGE_INTS = st.sampled_from([2**63, -(2**63) - 1, 10**400])
FRAME_BOUND_INTS = st.integers(MAX_FRAME_INDEX - 1, MAX_FRAME_INDEX + 1)


def json_values(ints=st.integers() | HUGE_INTS | FRAME_BOUND_INTS):
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
    return [records_set("v0", a), records_set("v1", b)]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The text of a valid detection and prediction file, the bytes of a valid
    feature and tensor file."""
    tmp = tmp_path_factory.mktemp("valid")
    sets = sample_detections()
    save_detections(sets, tmp / "dets.jsonl")
    preds = [[TrackPrediction(d, Box(d.box.x1 + 1.0, d.box.y1 - 0.5, d.box.x2 + 1.0, d.box.y2 - 0.5), 0.8) for d in frame] for frame in frames_of(sets[0])]
    save_predictions(predictions(sets[0], preds), tmp / "preds.jsonl")
    rng = np.random.default_rng(5)
    pyr = FeaturePyramid(((4, channels_last(rng.random((2, 4, 4)))), (8, channels_last(rng.random((3, 2, 2))))), 16, 16)
    save_features(pyr, tmp / "f.feat")
    save_named_arrays({"a": rng.random((2, 3)), "b": rng.random(4), "c": np.array(1.5)}, tmp / "w.tensors")
    # Separate search branch and a post-block bias, so every optional array is stored.
    w = synthesize_weights(2, TrackerConfig(), seed=1, shared_head_channels=1)
    pre_search = replace(w.pre_template, kernel=-w.pre_template.kernel)
    save_weights(replace(w, pre_search=pre_search, post=replace(w.post, bias=rng.random(2))), tmp / "head.tensors")
    save_scenario(preset_scenario("degraded", 0), tmp / "scenario.json")
    return {
        "detections": (tmp / "dets.jsonl").read_text(),
        "predictions": (tmp / "preds.jsonl").read_text(),
        "features": (tmp / "f.feat").read_bytes(),
        "tensors": (tmp / "w.tensors").read_bytes(),
        "weights": (tmp / "head.tensors").read_bytes(),
        "scenario": (tmp / "scenario.json").read_text(),
    }


def mutate_object(draw, how: str, targets: list[dict]) -> None:
    """Drop a key from (``how == "drop"``), or give another JSON value to, one of
    ``targets`` in place."""
    target = draw(st.sampled_from([t for t in targets if t]))
    key = draw(st.sampled_from(sorted(target)))
    if how == "drop":
        del target[key]
    else:
        target[key] = draw(json_values())


def mutated_lines(draw, how: str, text: str) -> str:
    """``text`` with one line mutated as ``how`` says."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if how in ("drop", "retype"):
        obj = json.loads(lines[i])
        targets = [obj] + ([obj["source"]] if "source" in obj else [])
        mutate_object(draw, how, targets)
        lines[i] = json.dumps(obj)
    elif how == "frame":
        obj = json.loads(lines[i])
        obj["frame"] = draw(FRAME_BOUND_INTS | HUGE_INTS)
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
        mutate_object(draw, how, [header] + entries)
        header_line = json.dumps(header).encode()
    elif how == "non-object":
        header_line = json.dumps(draw(non_objects())).encode()
    elif how == "raw-header":
        header_line = draw(st.binary(max_size=24).filter(lambda b: b"\n" not in b))
    elif how == "reshape":
        header = json.loads(header_line)
        entry = draw(st.sampled_from(header["arrays"]))
        shape = entry["shape"]
        count = math.prod(shape)
        entry["shape"] = draw(st.sampled_from([[count], [1] + shape, shape[::-1]] + [[]] * (count == 1)))
        header_line = json.dumps(header).encode()
    elif how == "cut":
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    else:
        payload += draw(st.binary(min_size=1, max_size=24))
    return header_line + b"\n" + payload


def mutated_spec(draw, how: str, text: str) -> str:
    """A scenario spec with one of its objects, or its text, mutated as ``how`` says."""
    spec = json.loads(text)
    targets = [spec, spec["noise"]] + spec["objects"]
    if how in ("drop", "retype"):
        mutate_object(draw, how, targets)
    elif how == "frame":
        target = draw(st.sampled_from([spec] + spec["objects"]))
        key = "n_frames" if target is spec else draw(st.sampled_from(["first_frame", "last_frame"]))
        target[key] = draw(FRAME_BOUND_INTS | HUGE_INTS)
    elif how == "extra-key":
        target = draw(st.sampled_from(targets))
        target[draw(st.text(max_size=6).filter(lambda k: k not in target))] = draw(json_values())
    elif how == "non-object":
        return json.dumps(draw(non_objects()))
    elif how == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    else:
        return text + draw(st.text(min_size=1, max_size=8))
    return json.dumps(spec, indent=2)


LINE_MUTATIONS = ["drop", "retype", "frame", "non-object", "cut", "extend"]
CONTAINER_MUTATIONS = ["drop", "retype", "non-object", "raw-header", "cut", "extend"]
WEIGHTS_MUTATIONS = CONTAINER_MUTATIONS + ["reshape"]
SPEC_MUTATIONS = ["drop", "retype", "frame", "non-object", "cut", "extend", "extra-key"]


def loads_or_names_file(loader, path, must_fail: bool = False) -> None:
    try:
        loader(path)
    except ValueError as exc:
        assert path.name in str(exc)
    else:
        assert not must_fail, f"{path.name} loaded but must be rejected"


@pytest.mark.parametrize("how", LINE_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_detection_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated-dets.jsonl"
    path.write_text(mutated_lines(data.draw, how, valid_files["detections"]))
    loads_or_names_file(load_detections, path)


@pytest.mark.parametrize("how", LINE_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_prediction_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated-preds.jsonl"
    path.write_text(mutated_lines(data.draw, how, valid_files["predictions"]))
    loads_or_names_file(lambda p: load_predictions(p, sample_detections()), path)


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


@pytest.mark.parametrize("how", WEIGHTS_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_weights_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated-head.tensors"
    path.write_bytes(mutated_container(data.draw, how, valid_files["weights"]))
    loads_or_names_file(load_weights, path)


@pytest.mark.parametrize("block", ["pre_template", "pre_search", "post", "head"])
@PROPERTY
@given(data=st.data())
def test_weights_with_broken_channel_chain(tmp_path_factory, block, data):
    """One block taken from weights with another channel count: every array
    is consistent with its own block, but the chain across blocks breaks."""
    channels, other = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
    tmp = tmp_path_factory.getbasetemp()
    for c, name in ((channels, "chain.tensors"), (other, "alien.tensors")):
        w = synthesize_weights(c, TrackerConfig(), seed=c, shared_head_channels=1)
        save_weights(replace(w, pre_search=replace(w.pre_template, kernel=-w.pre_template.kernel)), tmp / name)
    arrays, alien = load_named_arrays(tmp / "chain.tensors"), load_named_arrays(tmp / "alien.tensors")
    prefix = "head_" if block == "head" else f"{block}."
    arrays.update((k, v) for k, v in alien.items() if k.startswith(prefix))
    path = tmp / "broken-chain.tensors"
    save_named_arrays(arrays, path)
    loads_or_names_file(load_weights, path, must_fail=True)


# One array of the valid weights file changed, and how its load is refused.
WEIGHTS_FAULTS = {
    "score-weight-shape": ("score_weight", lambda a: np.vstack([a, a]),
                           "score_weight must have shape (1, n_flat)"),
    "head-widths": ("score_weight", lambda a: a[:, :-1],
                    "box and score heads must consume the same flattened input"),
    "bias-shape": ("post.bias", lambda a: a[:-1], "post: bias must have shape (2,), got (1,)"),
    "negative-variance": ("pre_template.var", lambda a: -1.0 - a,
                          "pre_template: batch-norm variances must be non-negative"),
}


@pytest.mark.parametrize("name, change, complaint", WEIGHTS_FAULTS.values(), ids=WEIGHTS_FAULTS.keys())
def test_weights_with_one_faulty_array(valid_files, tmp_path, name, change, complaint):
    (tmp_path / "head.tensors").write_bytes(valid_files["weights"])
    arrays = load_named_arrays(tmp_path / "head.tensors")
    arrays[name] = change(arrays[name])
    path = tmp_path / "faulty.tensors"
    save_named_arrays(arrays, path)
    with pytest.raises(ValueError) as info:
        load_weights(path)
    assert str(info.value) == f"{path}: invalid weights: {complaint}"


@pytest.mark.parametrize("how", SPEC_MUTATIONS)
@PROPERTY
@given(data=st.data())
def test_mutated_scenario_file(valid_files, tmp_path_factory, how, data):
    path = tmp_path_factory.getbasetemp() / "mutated-scenario.json"
    path.write_text(mutated_spec(data.draw, how, valid_files["scenario"]))
    loads_or_names_file(load_scenario, path, must_fail=how == "extra-key")
