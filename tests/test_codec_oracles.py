"""The JSON-lines codec and the oracle tracker's seeding against their reference forms.

``save_detections`` and ``save_predictions`` fill one format string per line;
they must write the bytes ``json.dumps`` writes for each record
(``oracles.json_detection_lines`` / ``json_prediction_lines``). The loader
fills columns; each numeric value must be ``float()`` or ``int()`` of its
JSON text. ``_frame_states`` seeds a whole frame's boxes in one pass, or
one box; each box must get the generator that the list of Python ints gives
(``oracles.list_seeded_rng``).
"""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Box,
    Detection,
    TrackPrediction,
    json_detection_lines,
    json_prediction_lines,
    list_seeded_rng,
    predictions,
    video_set,
)
from vodtrack.detections import PROVENANCE_DETECTED, PROVENANCE_TRACKED
from vodtrack.cli import main
from vodtrack.evalio import (
    INT64_MAX,
    INT64_MIN,
    MAX_FRAME_INDEX,
    load_detections,
    save_detections,
    save_predictions,
)
from vodtrack.geometry import MAX_COORDINATE
from vodtrack.synth import PRESETS
from vodtrack.tracker import _frame_states

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Corners whose text is easy to get wrong: signed zero, the smallest
# subnormal, a tiny normal and the coordinate bound.
EDGE_CORNERS = (-0.0, 0.0, 5e-324, 1e-300, -MAX_COORDINATE, MAX_COORDINATE)

video_ids = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é中😀", 'a"b\\c\n\t'])
corners = (st.sampled_from(EDGE_CORNERS)
           | st.floats(-MAX_COORDINATE, MAX_COORDINATE)
           | st.integers(-(2**53), 2**53))
unit = st.floats(0.0, 1.0)
unit_values = unit | unit.map(np.float64) | st.sampled_from([0, 1])


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(corners), draw(corners)))
    y1, y2 = sorted((draw(corners), draw(corners)))
    return Box(x1, y1, x2, y2)


@st.composite
def detections(draw, frame=None):
    return Detection(
        frame=draw(st.integers(0, MAX_FRAME_INDEX)) if frame is None else frame,
        class_id=draw(st.integers(0, 2**40)),
        score=draw(unit_values),
        box=draw(boxes()),
        track=draw(st.none() | st.integers(0, 2**40)),
        provenance=draw(st.sampled_from([None, PROVENANCE_DETECTED, PROVENANCE_TRACKED])),
    )


@st.composite
def detection_sets(draw):
    sets = []
    for video in draw(st.lists(video_ids, min_size=1, max_size=3)):
        n_frames = draw(st.integers(0, 3))
        frames = [draw(st.lists(detections(frame=t), max_size=3)) for t in range(n_frames)]
        sets.append(video_set(video, frames))
    return sets


@st.composite
def prediction_frames(draw):
    """Up to 3 frames of up to 3 predictions, each from a detection of its frame."""
    return [draw(st.lists(
        st.builds(TrackPrediction, source=detections(frame=t), predicted_box=boxes(), quality=unit_values),
        max_size=3)) for t in range(draw(st.integers(0, 3)))]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


class TestWriters:
    @PROPERTY
    @given(sets=detection_sets())
    def test_save_detections_is_json_dumps(self, out_dir, sets):
        path = out_dir / "dets.jsonl"
        save_detections(sets, path)
        assert path.read_bytes() == json_detection_lines(sets).encode("utf-8")

    @PROPERTY
    @given(video=video_ids, preds=prediction_frames())
    def test_save_predictions_is_json_dumps(self, out_dir, video, preds):
        path = out_dir / "preds.jsonl"
        sources = video_set(video, [[p.source for p in frame] for frame in preds])
        save_predictions(predictions(sources, preds), path)
        assert path.read_bytes() == json_prediction_lines(preds, video).encode("utf-8")


class TestDetRng:
    SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5)
    FRAMES = (0, MAX_FRAME_INDEX)
    CLASSES = (0, 2**40)

    def test_state_equals_list_seeding(self):
        # Each pair x1 <= x2 of edge corners gives the box (x1, x2, x2, x2 + 1).
        for seed, frame, class_id in itertools.product(self.SEEDS, self.FRAMES, self.CLASSES):
            for x1, x2 in itertools.combinations_with_replacement(sorted(EDGE_CORNERS), 2):
                det = Detection(frame, class_id, 0.5, Box(x1, x2, x2, x2 + 1.0))
                want = list_seeded_rng(seed, det).bit_generator.state
                assert _frame_states(seed, frame, [class_id], [det.box.corners()])[0] == want, (seed, det)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            _frame_states(-1, 0, [0], [(0.0, 0.0, 1.0, 1.0)])

    @pytest.mark.parametrize("n_boxes", [1, 5, 21, 150])
    def test_frame_pass_equals_list_seeding(self, n_boxes):
        # Corners are edge corners (0.0 and -0.0 among them) or negative and
        # positive floats, sorted into boxes; classes are 0, 7 or 2**40.
        rng = np.random.default_rng(n_boxes)
        corners = rng.choice(np.array([*EDGE_CORNERS, -1e-3, -17.25, 3.5, 1234.5678]), (n_boxes, 4))
        (x1, x2), (y1, y2) = np.sort(corners[:, [0, 2]], axis=1).T, np.sort(corners[:, [1, 3]], axis=1).T
        corners = np.column_stack([x1, y1, x2, y2])
        classes = rng.choice([0, 7, 2**40], n_boxes)
        for seed, frame in itertools.product(self.SEEDS, self.FRAMES):
            states = _frame_states(seed, frame, classes, corners)
            assert len(states) == n_boxes
            for class_id, box, state in zip(classes.tolist(), corners.tolist(), states):
                det = Detection(frame, class_id, 0.5, Box(*box))
                assert state == list_seeded_rng(seed, det).bit_generator.state, (seed, det)


# A JSON number token after a key, as the writers and hand-written files give it.
NUMBER = re.compile(r'"(frame|class|score|track)": (-?[0-9][0-9.eE+-]*)|"box": \[([^\]]*)\]')


def numbers_of(line: str) -> dict:
    """Each numeric field's JSON text in ``line``."""
    found = {}
    for key, text, box in NUMBER.findall(line):
        if box:
            found["box"] = [part.strip() for part in box.split(",")]
        else:
            found[key] = text
    return found


def assert_columns_are_their_text(path) -> int:
    """Every numeric value loaded from ``path`` is ``int()``/``float()`` of its text; returns the rows checked."""
    lines = path.read_text().splitlines()
    rows = 0
    for vds in load_detections(path):
        for row, lineno in enumerate(vds.lines.tolist()):
            text = numbers_of(lines[lineno - 1])
            frame = int(np.searchsorted(vds.offsets, row, "right")) - 1
            assert frame == int(text["frame"])
            assert vds.class_id[row] == int(text["class"])
            assert vds.score[row].tobytes() == np.float64(float(text["score"])).tobytes()
            assert vds.boxes[row].tobytes() == np.array([float(c) for c in text["box"]]).tobytes()
            assert vds.has_track[row] == ("track" in text)
            if "track" in text:
                assert vds.track[row] == int(text["track"])
            rows += 1
    return rows


# Number texts a JSON file may hold for one value: the shortest repr, and
# the same value with trailing zeros, an exponent or as an integer.
def number_texts(value: float) -> list[str]:
    texts = [repr(value), "%.17g" % value, "%.20e" % value]
    if value == int(value) and abs(value) < 2**53:
        texts.append(str(int(value)))
    return [t for t in texts if t not in ("inf", "-inf", "nan")]


class TestColumnParse:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_files(self, tmp_path, preset):
        gt, dets = tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"
        assert main(["synth-gen", "--preset", preset, "--seed", "3", "--out-gt", str(gt), "--out-dets", str(dets)]) == 0
        assert assert_columns_are_their_text(gt) > 0 and assert_columns_are_their_text(dets) > 0

    @PROPERTY
    @given(data=st.data())
    def test_random_records(self, out_dir, data):
        lines = []
        for _ in range(data.draw(st.integers(1, 6))):
            corners = [data.draw(st.floats(-MAX_COORDINATE, MAX_COORDINATE)) for _ in range(4)]
            x1, x2 = sorted(corners[::2])
            y1, y2 = sorted(corners[1::2])
            fields = {
                "frame": str(data.draw(st.integers(0, MAX_FRAME_INDEX))),
                "class": str(data.draw(st.integers(0, INT64_MAX))),
                "score": data.draw(st.sampled_from(number_texts(data.draw(unit)))),
                "box": "[%s]" % ", ".join(data.draw(st.sampled_from(number_texts(c))) for c in (x1, y1, x2, y2)),
                "track": data.draw(st.sampled_from(["null", str(data.draw(st.integers(INT64_MIN, INT64_MAX)))])),
                "provenance": json.dumps(data.draw(st.sampled_from([None, PROVENANCE_DETECTED]))),
            }
            lines.append('{"video": "v", ' + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
        path = out_dir / "records.jsonl"
        path.write_text("".join(lines))
        assert assert_columns_are_their_text(path) == len(lines)
