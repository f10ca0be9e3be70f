import ast
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vodtrack
from oracles import (Box, Detection, TrackPrediction, channels_last, frames_of, prediction_lists, predictions,
                     records_set)
from vodtrack.detections import check_detection
from vodtrack.evalio import (
    MAX_FRAME_INDEX,
    VideoDetectionSet,
    evaluate_map,
    load_detections,
    load_features,
    load_named_arrays,
    load_predictions,
    save_detections,
    save_features,
    save_named_arrays,
    save_predictions,
)
from vodtrack.geometry import MAX_COORDINATE
from vodtrack.tensor_ops import FeaturePyramid


def det(frame, cls, score, corners, track=None, provenance=None):
    return Detection(frame, cls, score, Box(*corners), track=track, provenance=provenance)


def random_set(rng, video="v0", n_frames=5) -> VideoDetectionSet:
    records = []
    for frame in range(n_frames):
        for _ in range(int(rng.integers(0, 4))):
            cx, cy = rng.uniform(0, 80, 2)
            w, h = rng.uniform(4, 20, 2)
            records.append(
                Detection(
                    frame,
                    int(rng.integers(0, 3)),
                    float(rng.uniform(0.01, 1.0)),
                    Box.from_center(cx, cy, w, h),
                    track=int(rng.integers(0, 9)) if rng.uniform() < 0.5 else None,
                    provenance="detected" if rng.uniform() < 0.5 else None,
                )
            )
    return records_set(video, records, n_frames=n_frames)


class TestDetectionFiles:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert load_detections(p) == []

    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(81)
        vds = random_set(rng)
        p = tmp_path / "dets.jsonl"
        save_detections(vds, p)
        (loaded,) = load_detections(p)
        assert loaded.video == vds.video
        assert frames_of(loaded) == frames_of(vds)

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(83)
        vds = random_set(rng)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_detections(vds, p1)
        save_detections(load_detections(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_extent_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = json.dumps({"video": "v", "frame": 0, "class": 0, "score": 0.5,
                           "box": [0, 0, 5, 5], "track": None, "provenance": None})
        bad = json.dumps({"video": "v", "frame": 1, "class": 0, "score": 0.5,
                          "box": [5, 5, 0, 9], "track": None, "provenance": None})
        p.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_detections(p)

    def test_malformed_json_names_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("{not json}\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1.*malformed"):
            load_detections(p)

    def test_multi_video_order(self, tmp_path):
        rng = np.random.default_rng(85)
        a = random_set(rng, video="vid-b")
        b = random_set(rng, video="vid-a")
        p = tmp_path / "multi.jsonl"
        save_detections([a, b], p)
        loaded = load_detections(p)
        assert [v.video for v in loaded] == ["vid-b", "vid-a"]


class TestPredictionFiles:
    def test_round_trip_and_alignment(self, tmp_path):
        src0 = det(0, 1, 0.9, (0, 0, 10, 10), track=4, provenance="detected")
        src1 = det(0, 2, 0.8, (20, 20, 30, 30))
        preds = [
            [TrackPrediction(src0, Box(1, 1, 11, 11), 0.95),
             TrackPrediction(src1, Box(21, 21, 31, 31), 0.7)],
            [],
        ]
        p = tmp_path / "preds.jsonl"
        vds = records_set("v0", [src0, src1], n_frames=2)
        save_predictions(predictions(vds, preds), p)
        loaded = load_predictions(p, [vds])
        assert set(loaded) == {"v0"}
        aligned = prediction_lists(loaded["v0"])
        assert len(aligned[0]) == 2
        assert aligned[0][0].source is frames_of(vds)[0][0]
        assert aligned[0][0].predicted_box.corners() == (1, 1, 11, 11)
        assert aligned[1] == []

    def test_misaligned_indices_rejected(self, tmp_path):
        src0 = det(0, 1, 0.9, (0, 0, 10, 10))
        preds = [[TrackPrediction(src0, Box(1, 1, 11, 11), 0.95)]]
        p = tmp_path / "preds.jsonl"
        save_predictions(predictions(records_set("v0", [src0]), preds), p)
        vds = records_set(
            "v0", [src0, det(0, 2, 0.8, (20, 20, 30, 30))], n_frames=1
        )
        with pytest.raises(ValueError, match=r"preds\.jsonl: video 'v0' frame 0: no prediction for detection 1 of 2$"):
            load_predictions(p, [vds])

    def test_video_without_records_loads_only_with_empty_earlier_frames(self, tmp_path):
        # A video with no prediction records loads while only its last frame
        # holds detections.
        p = tmp_path / "preds.jsonl"
        p.write_text("")
        last_only = records_set("a", [det(1, 0, 0.5, (0, 0, 5, 5))])
        assert {v: prediction_lists(x) for v, x in load_predictions(p, [last_only]).items()} == {"a": [[], []]}
        first = records_set("b", [det(0, 0, 0.5, (0, 0, 5, 5))], n_frames=2)
        with pytest.raises(ValueError, match=r"video 'b' frame 0: no prediction for detection 0 of 1"):
            load_predictions(p, [last_only, first])

    def test_predicted_box_beyond_bound_rejected(self, tmp_path):
        record = json.loads(record_line("predictions"))
        record["box"] = [0, 0, 2 * MAX_COORDINATE, 5]
        p = tmp_path / "preds.jsonl"
        p.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"preds\.jsonl:1: invalid prediction record: 'box' corners"):
            load_predictions(p, record_sources(tmp_path))

    def test_source_is_a_detection_record_without_video(self, tmp_path):
        src = det(3, 1, 0.9, (0.5, 0, 10, 10.25), track=4, provenance="tracked")
        dets, preds = tmp_path / "dets.jsonl", tmp_path / "preds.jsonl"
        vds = records_set("v0", [src])
        save_detections(vds, dets)
        save_predictions(predictions(vds, [[], [], [], [TrackPrediction(src, Box(1, 1, 11, 11), 0.5)]]), preds)
        source = json.loads(preds.read_text())["source"]
        assert json.dumps({"video": "v0", **source}) + "\n" == dets.read_text()


# A record that names no detection, names one twice, or whose source is
# not the detection it names, field by field; each fails at its line. The
# CLI tests cover an unknown video, a relabelled or swapped frame and a
# source of another class or score.
SOURCE_FAULTS = {
    "frame-past-the-video": ({"frame": 1}, "video 'v' has no detection 0 in frame 1"),
    "negative-frame": ({"frame": -1}, "video 'v' has no detection 0 in frame -1"),
    "det-past-the-frame": ({"det": 1}, "video 'v' has no detection 1 in frame 0"),
    "negative-det": ({"det": -1}, "video 'v' has no detection -1 in frame 0"),
    "source-box": ({"box": [0, 0, 5, 6]}, "'source' differs from detection 0 of video 'v' frame 0"),
    "source-track": ({"track": 3}, "'source' differs from detection 0 of video 'v' frame 0"),
    "source-provenance": ({"provenance": "tracked"}, "'source' differs from detection 0 of video 'v' frame 0"),
    "repeated-det": ({}, "detection 0 of video 'v' frame 0 is predicted twice"),
}


class TestPredictionSources:
    @pytest.mark.parametrize("change, complaint", SOURCE_FAULTS.values(), ids=SOURCE_FAULTS.keys())
    def test_fault_names_the_line(self, tmp_path, change, complaint):
        record = json.loads(record_line("predictions"))
        for key, value in change.items():
            (record if key in ("frame", "det") else record["source"])[key] = value
        p = tmp_path / "preds.jsonl"
        p.write_text(record_line("predictions") + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError) as info:
            load_predictions(p, record_sources(tmp_path))
        assert str(info.value) == f"{p}:2: invalid prediction record: {complaint}"

    def test_equal_sources_load(self, tmp_path):
        # A source equal in value to its detection loads: 5.0 and 5 are one coordinate.
        p = tmp_path / "preds.jsonl"
        p.write_text(record_line("predictions", box=[0.0, 0, 5.0, 5]) + "\n")
        (pred,) = prediction_lists(load_predictions(p, record_sources(tmp_path))["v"])[0]
        assert pred.source.box == Box(0, 0, 5, 5)


def record_line(kind, drop=(), **changes):
    """One valid detection or prediction line, with source fields changed or keys dropped.

    A prediction line's ``frame`` is its source's frame.
    """
    fields = {"frame": 0, "class": 0, "score": 0.5, "box": [0, 0, 5, 5],
              "track": None, "provenance": None, **changes}
    if kind == "detections":
        record = {"video": "v", **fields}
    else:
        record = {"video": "v", "frame": fields["frame"], "det": 0, "box": [0, 0, 5, 5],
                  "quality": 0.9, "source": fields}
    for key in drop:
        del record[key]
    return json.dumps(record)


def record_sources(tmp_path, video="v", **changes):
    """The detections a ``record_line("predictions", **changes)`` names, as loaded."""
    p = tmp_path / "sources.jsonl"
    p.write_text(record_line("detections", **changes).replace('"v"', json.dumps(video), 1) + "\n")
    return load_detections(p)


RECORD_LOADERS = {"detections": lambda p, sources: load_detections(p), "predictions": load_predictions}


@pytest.mark.parametrize("kind", sorted(RECORD_LOADERS))
class TestRecordValidation:
    """Detection records and prediction sources share one parser."""

    def reject_second_line(self, tmp_path, kind, line) -> str:
        p = tmp_path / "bad.jsonl"
        p.write_text(record_line(kind) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2") as info:
            RECORD_LOADERS[kind](p, record_sources(tmp_path))
        return str(info.value)

    def test_missing_video(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, record_line(kind, drop=("video",)))
        assert "'video'" in message

    def test_boolean_frame(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, record_line(kind, frame=True))
        assert "'frame' must be an integer" in message

    def test_fractional_frame(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, record_line(kind, frame=1.7))
        assert "'frame' must be an integer" in message

    def test_frame_above_bound(self, tmp_path, kind):
        line = record_line(kind, frame=MAX_FRAME_INDEX + 1)
        message = self.reject_second_line(tmp_path, kind, line)
        assert f"above the largest frame index {MAX_FRAME_INDEX}" in message

    def test_frame_at_bound_loads(self, tmp_path, kind):
        p = tmp_path / "ok.jsonl"
        p.write_text(record_line(kind, frame=MAX_FRAME_INDEX) + "\n")
        RECORD_LOADERS[kind](p, record_sources(tmp_path, frame=MAX_FRAME_INDEX))

    def test_box_corner_beyond_bound(self, tmp_path, kind):
        # The extent of this box overflows to inf, and its overlap with an
        # identical box would be NaN.
        message = self.reject_second_line(tmp_path, kind, record_line(kind, box=[-1e308, 0, 1e308, 10]))
        assert f"invalid {kind[:-1]} record: 'box' corners must lie within ±2**53" in message

    def test_box_corner_at_bound_loads(self, tmp_path, kind):
        p = tmp_path / "ok.jsonl"
        box = [-MAX_COORDINATE, 0, MAX_COORDINATE, 10]
        p.write_text(record_line(kind, box=box) + "\n")
        RECORD_LOADERS[kind](p, record_sources(tmp_path, box=box))

    def test_unknown_provenance(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, record_line(kind, provenance="guessed"))
        assert "provenance" in message

    def test_score_beyond_float_range(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, record_line(kind, score=10**400))
        assert "too large" in message

    def test_negative_class(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, record_line(kind, **{"class": -1}))
        assert message.endswith(f"invalid {kind[:-1]} record: class id must be non-negative, got -1")

    @pytest.mark.parametrize("field, value, complaint", [
        ("class", 2**63, f"class id {2**63} is above the largest id {2**63 - 1}"),
        ("track", 2**63, f"track id {2**63} lies outside [{-2**63}, {2**63 - 1}]"),
        ("track", -2**63 - 1, f"track id {-2**63 - 1} lies outside [{-2**63}, {2**63 - 1}]"),
    ], ids=["class-above", "track-above", "track-below"])
    def test_id_outside_int64(self, tmp_path, kind, field, value, complaint):
        # A prediction's source must equal its detection, whose ids fit int64.
        message = self.reject_second_line(tmp_path, kind, record_line(kind, **{field: value}))
        if kind == "predictions":
            complaint = "'source' differs from detection 0 of video 'v' frame 0"
        assert message.endswith(f"invalid {kind[:-1]} record: {complaint}")

    def test_non_number_corner(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, record_line(kind, box=[0.0, "a", 1.0, 1.0]))
        assert message.endswith(f"invalid {kind[:-1]} record: 'box' must be a list of 4 numbers, "
                                "got [0.0, 'a', 1.0, 1.0]")

    def test_integer_score_outside_unit_interval(self, tmp_path, kind):
        # An integer score is not as the writers write one, so each field is checked on its own.
        message = self.reject_second_line(tmp_path, kind, record_line(kind, score=2))
        assert message.endswith(f"invalid {kind[:-1]} record: detection score must be in [0, 1], got 2.0")

    def test_non_object_line(self, tmp_path, kind):
        message = self.reject_second_line(tmp_path, kind, "[1, 2]")
        assert "JSON object" in message

    def test_bad_utf8_names_the_line(self, tmp_path, kind):
        p = tmp_path / "bad.jsonl"
        good = record_line(kind).encode()
        p.write_bytes(good + b"\n" + good.replace(b'"v"', b'"\xff"') + b"\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: malformed JSON line: 'utf-8' codec"):
            RECORD_LOADERS[kind](p, record_sources(tmp_path))

    def test_non_ascii_line_loads(self, tmp_path, kind):
        p = tmp_path / "ok.jsonl"
        p.write_text(record_line(kind).replace('"v"', '"vid\u00e9o"') + "\n", encoding="utf-8")
        loaded = RECORD_LOADERS[kind](p, record_sources(tmp_path, video="vid\u00e9o"))
        videos = [v.video for v in loaded] if kind == "detections" else list(loaded)
        assert videos == ["vid\u00e9o"]


class TestRecordRules:
    def test_detection_rejects_an_unknown_provenance(self):
        # Such a record could otherwise be saved to a file that no loader accepts.
        with pytest.raises(ValueError, match="unknown provenance 'manual'"):
            check_detection(0, 0, 0.5, "manual")

    def test_json_is_decoded_only_by_the_reader(self):
        # One decoder: json.load and json.loads appear in evalio.read_json_object only.
        offenders = []
        for path in sorted(Path(vodtrack.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "read_json_object":
                    allowed.update(map(id, ast.walk(node)) if path.name == "evalio.py" else ())
            for node in ast.walk(tree):
                decodes = (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                           and isinstance(node.value, ast.Name) and node.value.id == "json")
                imports = (isinstance(node, ast.ImportFrom) and node.module == "json"
                           and any(a.name in ("load", "loads") for a in node.names))
                if (decodes or imports) and id(node) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_json_files_are_written_only_by_the_writer(self):
        # One writer: json.dump appears in evalio.write_json_object only.
        offenders = []
        for path in sorted(Path(vodtrack.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "write_json_object":
                    allowed.update(map(id, ast.walk(node)) if path.name == "evalio.py" else ())
            for node in ast.walk(tree):
                dumps = (isinstance(node, ast.Attribute) and node.attr == "dump"
                         and isinstance(node.value, ast.Name) and node.value.id == "json")
                imports = (isinstance(node, ast.ImportFrom) and node.module == "json"
                           and any(a.name == "dump" for a in node.names))
                if (dumps or imports) and id(node) not in allowed:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


def feature_file(tmp_path, header, payload=b""):
    p = tmp_path / "f.feat"
    p.write_bytes((json.dumps(header) + "\n").encode() + payload)
    return p


FEATURE_HEADER = {"format": "feature-pyramid", "version": 1, "image_height": 8,
                  "image_width": 8, "dtype": "<f8",
                  "levels": [{"stride": 4, "channels": 1, "height": 2, "width": 2}]}


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(87)
        pyr = FeaturePyramid(
            ((4, channels_last(rng.random((4, 8, 8)))), (8, channels_last(rng.random((2, 4, 4))))), 32, 32
        )
        p = tmp_path / "f.feat"
        save_features(pyr, p)
        loaded = load_features(p)
        assert loaded.strides == (4, 8)
        assert loaded.image_height == 32
        for (sa, ma), (sb, mb) in zip(pyr.levels, loaded.levels):
            assert sa == sb
            assert np.array_equal(ma, mb)

    def test_single_level_size(self, tmp_path):
        pyr = FeaturePyramid(((4, channels_last(np.arange(256.0).reshape(4, 8, 8))),), 32, 32)
        p = tmp_path / "f.feat"
        save_features(pyr, p)
        loaded = load_features(p)
        assert loaded.levels[0][1].size == 256

    def test_float32_widened(self, tmp_path):
        rng = np.random.default_rng(89)
        pyr = FeaturePyramid(((4, channels_last(rng.random((2, 8, 8)))),), 32, 32)
        p = tmp_path / "f.feat"
        save_features(pyr, p, dtype="<f4")
        loaded = load_features(p)
        assert loaded.levels[0][1].dtype == np.float64
        assert np.allclose(loaded.levels[0][1], pyr.levels[0][1], atol=1e-6)

    @pytest.mark.parametrize("dtype", ["<f8", "<f4"])
    def test_file_is_header_then_payload_bytes(self, tmp_path, dtype):
        rng = np.random.default_rng(95)
        maps = [channels_last(rng.random((3, 8, 8))), channels_last(rng.random((2, 4, 4)))]
        p = tmp_path / "f.feat"
        save_features(FeaturePyramid(((4, maps[0]), (8, maps[1])), 32, 32), p, dtype=dtype)
        header = {"format": "feature-pyramid", "version": 1, "image_height": 32, "image_width": 32,
                  "dtype": dtype, "levels": [{"stride": 4, "channels": 3, "height": 8, "width": 8},
                                             {"stride": 8, "channels": 2, "height": 4, "width": 4}]}
        payload = b"".join(m.transpose(2, 0, 1).astype(dtype).tobytes() for m in maps)
        assert p.read_bytes() == (json.dumps(header) + "\n").encode() + payload

    def test_empty_pyramid_header_rejected(self, tmp_path):
        p = tmp_path / "f.feat"
        header = {"format": "feature-pyramid", "version": 1, "image_height": 8,
                  "image_width": 8, "dtype": "<f8", "levels": []}
        p.write_bytes((json.dumps(header) + "\n").encode())
        with pytest.raises(ValueError, match="empty pyramid"):
            load_features(p)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(91)
        pyr = FeaturePyramid(((4, channels_last(rng.random((2, 8, 8)))),), 32, 32)
        p = tmp_path / "f.feat"
        save_features(pyr, p)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="size mismatch"):
            load_features(p)

    def test_non_object_header_rejected(self, tmp_path):
        p = feature_file(tmp_path, [1, 2])
        with pytest.raises(ValueError, match=r"f\.feat: .*not a JSON object"):
            load_features(p)

    @pytest.mark.parametrize("key", ["channels", "height", "width"])
    def test_level_missing_key_rejected(self, tmp_path, key):
        level = dict(FEATURE_HEADER["levels"][0])
        del level[key]
        p = feature_file(tmp_path, {**FEATURE_HEADER, "levels": [level]}, bytes(32))
        with pytest.raises(ValueError, match=rf"f\.feat: .*'{key}'"):
            load_features(p)

    @pytest.mark.parametrize("levels, payload, complaint", [
        ([3], 0, "header entry is not a JSON object: 3"),
        (FEATURE_HEADER["levels"][0], 32, "'levels' must be a list"),
        ([{"stride": 4, "channels": 1, "height": 5, "width": 2}], 80,
         "level stride 4: map dim 5 inconsistent with image size 8 (expected ~2)"),
    ], ids=["non-object-level", "non-list-levels", "level-off-image-size"])
    def test_bad_levels_rejected(self, tmp_path, levels, payload, complaint):
        p = feature_file(tmp_path, {**FEATURE_HEADER, "levels": levels}, bytes(payload))
        with pytest.raises(ValueError) as info:
            load_features(p)
        assert str(info.value) == f"{p}: {complaint}"

    def test_valid_header_loads(self, tmp_path):
        p = feature_file(tmp_path, FEATURE_HEADER, bytes(32))
        assert load_features(p).levels[0][1].shape == (2, 2, 1)

    def test_payload_is_channel_major(self, tmp_path):
        # A file written by hand, not by save_features: each level's payload
        # is (C, H, W) on disk and loads as an (H, W, C) view of one buffer.
        levels = [(4, 3, 4, 4), (8, 2, 2, 2)]
        payloads = [np.arange(c * h * w, dtype="<f8").reshape(c, h, w) + 1000.0 * i
                    for i, (_, c, h, w) in enumerate(levels)]
        header = {**FEATURE_HEADER, "image_height": 16, "image_width": 16,
                  "levels": [dict(stride=s, channels=c, height=h, width=w) for s, c, h, w in levels]}
        data = b"".join(a.tobytes() for a in payloads)
        p = feature_file(tmp_path, header, data)
        loaded = load_features(p)
        assert loaded.strides == (4, 8)
        buffers = set()
        for (_, fmap), chw in zip(loaded.levels, payloads):
            assert fmap.shape == chw.shape[1:] + chw.shape[:1]
            for y, x, c in np.ndindex(*fmap.shape):
                assert fmap[y, x, c] == chw[c, y, x]
            while fmap.base is not None:
                fmap = fmap.base
            buffers.add(id(fmap))
        assert len(buffers) == 1
        out = tmp_path / "again.feat"
        save_features(loaded, out)
        assert out.read_bytes() == p.read_bytes()


class TestNamedArrays:
    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(93)
        arrays = {"a": rng.random((3, 4)), "b": rng.random(7), "c": rng.random((2, 2, 2))}
        p1 = tmp_path / "x.tensors"
        p2 = tmp_path / "y.tensors"
        save_named_arrays(arrays, p1)
        save_named_arrays(load_named_arrays(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_header_then_payload_bytes(self, tmp_path):
        # Inputs that are not C-contiguous float64 are written in C order as '<f8'.
        base = np.random.default_rng(97).random((4, 6))
        arrays = {"strided": base[:, ::2], "transposed": base.T, "ints": np.arange(5)}
        p = tmp_path / "x.tensors"
        save_named_arrays(arrays, p)
        header = {"format": "named-tensors", "version": 1,
                  "arrays": [{"name": n, "shape": list(a.shape), "dtype": "<f8"} for n, a in arrays.items()]}
        payload = b"".join(a.astype("<f8").tobytes() for a in arrays.values())
        assert p.read_bytes() == (json.dumps(header) + "\n").encode() + payload

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "x.tensors"
        save_named_arrays({"a": np.ones(4)}, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_named_arrays(p)

    def test_trailing_bytes_detected(self, tmp_path):
        p = tmp_path / "x.tensors"
        save_named_arrays({"a": np.ones(4)}, p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_named_arrays(p)

    @pytest.mark.parametrize("header, hint", [
        ([1, 2], "not a JSON object"),
        ({"format": "named-tensors", "version": 1}, "'arrays'"),
        ({"format": "named-tensors", "arrays": [{"shape": [1]}]}, "'name'"),
        ({"format": "named-tensors", "arrays": [{"name": "a", "shape": [-1]}]}, "shape"),
        ({"format": "named-tensors", "arrays": [{"name": "a", "shape": [0.5]}]}, "shape"),
    ], ids=["non-object", "no-arrays", "no-name", "negative-shape", "fractional-shape"])
    def test_malformed_header_rejected(self, tmp_path, header, hint):
        p = tmp_path / "x.tensors"
        p.write_bytes((json.dumps(header) + "\n").encode() + bytes(8))
        with pytest.raises(ValueError, match=r"x\.tensors: ") as info:
            load_named_arrays(p)
        assert hint in str(info.value)


def gt_two_boxes():
    return records_set(
        "v",
        [det(0, 0, 1.0, (0, 0, 10, 10), track=0), det(1, 0, 1.0, (30, 30, 40, 40), track=1)],
        n_frames=2,
    )


class TestEvaluateMap:
    def test_perfect_predictions(self):
        gt = gt_two_boxes()
        assert evaluate_map(gt, gt).mean_ap == 1.0

    def test_no_predictions(self):
        gt = gt_two_boxes()
        empty = records_set("v", [], n_frames=2)
        result = evaluate_map(empty, gt)
        assert result.per_class_ap == {0: 0.0}
        assert result.mean_ap == 0.0

    def test_hand_pr_example(self):
        # ranked TP, FP, TP over 2 ground truths: AP = 0.5 * 1.0 + 0.5 * (2/3)
        gt = gt_two_boxes()
        preds = records_set(
            "v",
            [
                det(0, 0, 0.9, (0, 0, 10, 10)),
                det(0, 0, 0.8, (70, 70, 80, 80)),
                det(1, 0, 0.7, (30, 30, 40, 40)),
            ],
            n_frames=2,
        )
        result = evaluate_map(preds, gt)
        assert result.per_class_ap[0] == pytest.approx(0.5 + 1.0 / 3, abs=1e-12)

    def test_equal_overlap_matches_first_slot(self):
        # The first prediction overlaps both objects with IoU exactly 0.6 and
        # takes the first; the second then overlaps only the taken one.
        gt = records_set(
            "v", [det(0, 0, 1.0, (0, 0, 10, 10), track=0), det(0, 0, 1.0, (5, 0, 15, 10), track=1)],
            n_frames=1,
        )
        preds = records_set(
            "v", [det(0, 0, 0.9, (2.5, 0, 12.5, 10)), det(0, 0, 0.8, (0, 0, 10, 10))], n_frames=1
        )
        assert evaluate_map(preds, gt).per_class_ap[0] == 0.5

    def test_overlap_at_threshold_matches(self):
        gt = records_set("v", [det(0, 0, 1.0, (0, 0, 10, 10), track=0)], n_frames=1)
        preds = records_set("v", [det(0, 0, 0.9, (0, 0, 10, 5))], n_frames=1)
        assert evaluate_map(preds, gt, 0.5).mean_ap == 1.0
        assert evaluate_map(preds, gt, 0.5001).mean_ap == 0.0

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(95)
        gt = random_set(rng, n_frames=4)
        preds = random_set(rng, n_frames=4)
        base = evaluate_map(preds, gt).mean_ap
        squeezed = records_set(
            "v0",
            [replace(d, score=0.25 + d.score / 2) for frame in frames_of(preds) for d in frame],
            n_frames=4,
        )
        assert evaluate_map(squeezed, gt).mean_ap == pytest.approx(base, abs=1e-12)

    def test_appending_fp_never_increases(self):
        gt = gt_two_boxes()
        preds = [det(0, 0, 0.9, (0, 0, 10, 10))]
        base = evaluate_map(
            records_set("v", preds, n_frames=2), gt
        ).per_class_ap[0]
        worse = preds + [det(1, 0, 0.1, (70, 70, 80, 80))]
        with_fp = evaluate_map(
            records_set("v", worse, n_frames=2), gt
        ).per_class_ap[0]
        assert with_fp <= base

    def test_appending_matching_tp_never_decreases(self):
        gt = gt_two_boxes()
        preds = [det(0, 0, 0.9, (0, 0, 10, 10))]
        base = evaluate_map(
            records_set("v", preds, n_frames=2), gt
        ).per_class_ap[0]
        better = preds + [det(1, 0, 0.1, (30, 30, 40, 40))]
        with_tp = evaluate_map(
            records_set("v", better, n_frames=2), gt
        ).per_class_ap[0]
        assert with_tp >= base

    def test_greedy_takes_highest_iou(self):
        # one prediction overlapping two gts: must match the higher-IoU one,
        # leaving the other for the later prediction
        gt = records_set(
            "v",
            [det(0, 0, 1.0, (0, 0, 10, 10), track=0), det(0, 0, 1.0, (4, 0, 14, 10), track=1)],
            n_frames=1,
        )
        preds = records_set(
            "v",
            [det(0, 0, 0.9, (3.6, 0, 13.6, 10)), det(0, 0, 0.8, (0.5, 0, 10.5, 10))],
            n_frames=1,
        )
        result = evaluate_map(preds, gt)
        assert result.per_class_ap[0] == 1.0

    def test_double_match_forbidden(self):
        gt = records_set(
            "v", [det(0, 0, 1.0, (0, 0, 10, 10), track=0)], n_frames=1
        )
        preds = records_set(
            "v",
            [det(0, 0, 0.9, (0, 0, 10, 10)), det(0, 0, 0.8, (0.2, 0, 10.2, 10))],
            n_frames=1,
        )
        result = evaluate_map(preds, gt)
        # second prediction is an unmatched duplicate: precision 1/2 at recall 1
        assert result.per_class_ap[0] == 1.0

    def test_map_is_mean_of_included_aps(self):
        rng = np.random.default_rng(97)
        gt = random_set(rng, n_frames=4)
        preds = random_set(rng, n_frames=4)
        result = evaluate_map(preds, gt)
        assert 0.0 <= result.mean_ap <= 1.0
        assert result.mean_ap == pytest.approx(
            float(np.mean(list(result.per_class_ap.values()))), abs=1e-12
        )

    def test_repeated_prediction_video_rejected(self):
        # Matched set by set, a repeated video could match one ground-truth box twice.
        gt = gt_two_boxes()
        with pytest.raises(ValueError, match="duplicate video ids in predictions"):
            evaluate_map([gt, gt], gt)

    def test_unknown_video_rejected(self):
        gt = gt_two_boxes()
        other = records_set("other", [], n_frames=1)
        with pytest.raises(ValueError, match="unknown video"):
            evaluate_map(other, gt)
