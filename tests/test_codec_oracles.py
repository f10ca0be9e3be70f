"""The JSON-lines writers and the oracle tracker's seeding against their reference forms.

``save_detections`` and ``save_predictions`` fill one format string per line;
they must write the bytes ``json.dumps`` writes for each record
(``oracles.json_detection_lines`` / ``json_prediction_lines``). ``_det_rng``
seeds ``SeedSequence`` from uint32 words; it must give the generator that
the list of Python ints gives (``oracles.list_seeded_rng``).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import json_detection_lines, json_prediction_lines, list_seeded_rng
from vodtrack.detections import PROVENANCE_DETECTED, PROVENANCE_TRACKED, Detection
from vodtrack.evalio import MAX_FRAME_INDEX, VideoDetectionSet, save_detections, save_predictions
from vodtrack.geometry import MAX_COORDINATE, Box
from vodtrack.tracker import TrackPrediction, _det_rng

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
        sets.append(VideoDetectionSet(video, frames))
    return sets


@st.composite
def prediction_frames(draw):
    return draw(st.lists(st.lists(
        st.builds(TrackPrediction, source=detections(), predicted_box=boxes(), quality=unit_values),
        max_size=3), max_size=3))


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
        save_predictions(preds, video, path)
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
                assert _det_rng(seed, det).bit_generator.state == want, (seed, det)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            _det_rng(-1, Detection(0, 0, 0.5, Box(0, 0, 1, 1)))
