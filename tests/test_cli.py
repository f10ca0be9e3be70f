import argparse
import csv
import gc
import json
import re
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import vodtrack.cli as cli
import vodtrack.tracker as tracker
from oracles import Box, Detection, TrackPrediction, frames_of, prediction_lists, predictions, track_records, video_set
from vodtrack.cli import main
from vodtrack.evalio import (
    MAX_FRAME_INDEX,
    VideoPredictions,
    load_detections,
    load_named_arrays,
    load_predictions,
    save_features,
    save_named_arrays,
    save_predictions,
)
from vodtrack.synth import preset_scenario, render_features, save_scenario
from vodtrack.tensor_ops import FeaturePyramid
from vodtrack.tracker import TrackerConfig, save_weights, synthesize_weights


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def as_predictions(preds_per_frame) -> VideoPredictions:
    """Per-frame predictions as columns on a set of their sources, then a last frame that holds none."""
    sources = video_set("v", [[p.source for p in frame] for frame in preds_per_frame] + [[]])
    return predictions(sources, preds_per_frame)


@pytest.fixture
def clean_files(tmp_path):
    gt = tmp_path / "gt.jsonl"
    dets = tmp_path / "dets.jsonl"
    rc = run_cli("synth-gen", "--preset", "clean", "--seed", "0",
                 "--out-gt", gt, "--out-dets", dets)
    assert rc == 0
    return gt, dets


class TestSynthGen:
    def test_writes_parseable_files(self, clean_files):
        gt, dets = clean_files
        (gt_set,) = load_detections(gt)
        (det_set,) = load_detections(dets)
        assert gt_set.n_frames == det_set.n_frames
        assert all(d.track is not None for f in frames_of(gt_set) for d in f)

    def test_spec_file_input(self, tmp_path):
        spec_path = tmp_path / "scenario.json"
        save_scenario(preset_scenario("clean", 3), spec_path)
        rc = run_cli("synth-gen", "--spec", spec_path,
                     "--out-gt", tmp_path / "g.jsonl", "--out-dets", tmp_path / "d.jsonl")
        assert rc == 0

    # Edits that make a valid spec invalid, and the fault each must name after the file.
    SPEC_FAULTS = {
        "fractional-n-frames": (lambda s: s.update(n_frames=2.5), "n_frames: expected an integer, got 2.5"),
        "string-cx": (lambda s: s["objects"][0].update(cx="5"), "objects[0].cx: expected a number, got '5'"),
        "fractional-seed": (lambda s: s.update(seed=1.5), "seed: expected an integer, got 1.5"),
        "fractional-first-frame": (lambda s: s["objects"][0].update(first_frame=0.5),
                                   "objects[0].first_frame: expected an integer, got 0.5"),
        "unknown-key": (lambda s: s.update(colour="red"), "unknown keys ['colour']"),
        "unknown-object-key": (lambda s: s["objects"][0].update(colour="red"),
                               "objects[0]: unknown keys ['colour']"),
        "two-value-degradation": (lambda s: s["objects"][0].update(degradations=[[0, 1]]),
                                  "objects[0].degradations[0]: expected a list for tuple[int, int, float], "
                                  "got [0, 1]"),
        "negative-seed": (lambda s: s.update(seed=-1), "seed must be non-negative"),
        "reversed-lifetime": (lambda s: s["objects"][0].update(first_frame=9, last_frame=3),
                              "objects[0]: object lifetime must be a non-empty frame range"),
        "too-many-frames": (lambda s: s.update(n_frames=MAX_FRAME_INDEX + 2),
                            f"n_frames must be at most {MAX_FRAME_INDEX + 1}, got {MAX_FRAME_INDEX + 2}"),
        "overflowing-scale-rate": (lambda s: s["objects"][0].update(scale_rate=1e10),
                                   "objects[0]: object motion leaves the coordinate range ±2**53 by frame 47"),
        "overflowing-vx": (lambda s: s["objects"][0].update(vx=1e308),
                           "objects[0]: object motion leaves the coordinate range ±2**53 by frame 47"),
        "zero-width": (lambda s: s["objects"][0].update(w=0),
                       "objects[0]: object size and scale rate must be positive"),
        "negative-scale-rate": (lambda s: s["objects"][0].update(scale_rate=-1.0),
                                "objects[0]: object size and scale rate must be positive"),
        "empty-degradation-window": (lambda s: s["objects"][0].update(degradations=[[5, 5, 0.5]]),
                                     "objects[0]: degradation window must be non-empty"),
        "negative-box-sigma": (lambda s: s["noise"].update(box_sigma=-1.0),
                               "noise: box_sigma must be non-negative"),
        "negative-false-positive-rate": (lambda s: s["noise"].update(false_positive_rate=-0.5),
                                         "noise: false_positive_rate must be non-negative"),
        "unordered-false-positive-scores": (lambda s: s["noise"].update(fp_score_low=0.6, fp_score_high=0.4),
                                            "noise: false-positive score range must be ordered within [0, 1]"),
        "zero-feature-channels": (lambda s: s.update(feature_channels=0),
                                  "feature settings must be positive/non-empty"),
        "number-for-noise": (lambda s: s.update(noise=3), "noise: expected an object, got 3"),
    }

    @pytest.mark.parametrize("fault, complaint", SPEC_FAULTS.values(), ids=SPEC_FAULTS.keys())
    def test_invalid_spec_fails_named(self, tmp_path, capsys, fault, complaint):
        spec_path = tmp_path / "scenario.json"
        save_scenario(preset_scenario("clean", 0), spec_path)
        spec = json.loads(spec_path.read_text())
        fault(spec)
        spec_path.write_text(json.dumps(spec))
        rc = run_cli("synth-gen", "--spec", spec_path,
                     "--out-gt", tmp_path / "g.jsonl", "--out-dets", tmp_path / "d.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == f"error [synth-gen]: {spec_path}: invalid scenario spec: {complaint}\n"

    def test_out_spec_regenerates_the_same_files(self, tmp_path):
        spec = tmp_path / "scenario.json"
        for name, source in (("preset", ["--preset", "fast", "--seed", "2", "--out-spec", spec]),
                             ("spec", ["--spec", spec])):
            assert run_cli("synth-gen", *source, "--out-gt", tmp_path / f"{name}-gt.jsonl",
                           "--out-dets", tmp_path / f"{name}-dets.jsonl") == 0
        for kind in ("gt", "dets"):
            assert (tmp_path / f"spec-{kind}.jsonl").read_bytes() == (tmp_path / f"preset-{kind}.jsonl").read_bytes()

    @pytest.mark.parametrize("n_classes", [4, 1])
    def test_misclassification_takes_another_class(self, tmp_path, n_classes):
        # Every detected object is misclassified, to another of the scene's
        # classes if it has one. Without box noise or false positives, each
        # detection's box is its object's.
        spec_path, gt, dets = tmp_path / "scenario.json", tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"
        save_scenario(preset_scenario("degraded", 0), spec_path)
        spec = json.loads(spec_path.read_text())
        spec["noise"].update(misclass_prob=1.0, false_positive_rate=0.0, box_sigma=0.0)
        for i, obj in enumerate(spec["objects"]):
            obj["class_id"] = i % n_classes
        spec_path.write_text(json.dumps(spec))
        assert run_cli("synth-gen", "--spec", spec_path, "--out-gt", gt, "--out-dets", dets) == 0
        (truth,), (found,) = load_detections(gt), load_detections(dets)
        same = []
        for t in range(truth.n_frames):
            here, there = found.rows(t), truth.rows(t)
            hits = (found.boxes[here, None] == truth.boxes[None, there]).all(axis=2)
            assert (hits.sum(axis=1) == 1).all()
            same += (found.class_id[here] == truth.class_id[there][hits.argmax(axis=1)]).tolist()
        assert len(same) > 150
        assert all(same) if n_classes == 1 else not any(same)

    def test_missing_spec_fails_named(self, tmp_path, capsys):
        rc = run_cli("synth-gen", "--spec", tmp_path / "nope.json",
                     "--out-gt", tmp_path / "g.jsonl", "--out-dets", tmp_path / "d.jsonl")
        assert rc != 0
        assert "synth-gen" in capsys.readouterr().err


@pytest.fixture(scope="module")
def learned_files(tmp_path_factory):
    """Detections, per-frame feature pyramids and head weights for ``clean`` seed 1."""
    tmp_path = tmp_path_factory.mktemp("learned")
    spec = preset_scenario("clean", 1)
    gt = tmp_path / "gt.jsonl"
    dets = tmp_path / "dets.jsonl"
    assert run_cli("synth-gen", "--preset", "clean", "--seed", "1",
                   "--out-gt", gt, "--out-dets", dets) == 0
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    for t in range(spec.n_frames):
        save_features(render_features(spec, t), feat_dir / f"frame_{t}.feat")
    weights_path = tmp_path / "head.tensors"
    save_weights(
        synthesize_weights(spec.feature_channels, TrackerConfig(), seed=3,
                           shared_head_channels=8),
        weights_path,
    )
    return dets, feat_dir, weights_path, spec.n_frames


class TestTrack:
    def test_oracle_predictions(self, clean_files, tmp_path):
        gt, dets = clean_files
        out = tmp_path / "preds.jsonl"
        rc = run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", out)
        assert rc == 0
        loaded = load_predictions(out, load_detections(dets))
        assert len(loaded) == 1
        (frames,) = map(prediction_lists, loaded.values())
        qualities = [p.quality for frame in frames for p in frame]
        # zero noise: perfect predictions while alive, sub-threshold at death
        assert all(q == 1.0 or q < 0.5 for q in qualities)
        assert qualities.count(1.0) > len(qualities) * 0.8

    def test_learned_head_path(self, learned_files, tmp_path):
        dets, feat_dir, weights_path, _ = learned_files
        out = tmp_path / "preds.jsonl"
        rc = run_cli("track", "--dets", dets, "--weights", weights_path,
                     "--features-dir", feat_dir, "--out", out)
        assert rc == 0
        loaded = load_predictions(out, load_detections(dets))
        assert loaded

    def test_learned_head_streams_pyramids(self, learned_files, tmp_path, monkeypatch):
        # Frame 0 is loaded first, then frame t+1 just before frame t is
        # tracked, so no more than two pyramids are alive at once.
        dets, feat_dir, weights_path, n_frames = learned_files
        events = []
        load_features, track = cli.load_features, cli.track

        def logged_load(path):
            events.append(("load", path.name))
            return load_features(path)

        def logged_track(feat_t, feat_t1, boxes, *args):
            events.append(("track", len(boxes)))
            return track(feat_t, feat_t1, boxes, *args)

        monkeypatch.setattr(cli, "load_features", logged_load)
        monkeypatch.setattr(cli, "track", logged_track)
        rc = run_cli("track", "--dets", dets, "--weights", weights_path,
                     "--features-dir", feat_dir, "--out", tmp_path / "preds.jsonl")
        assert rc == 0
        assert events[0] == ("load", "frame_0.feat")
        for t in range(n_frames - 1):
            assert events[1 + 2 * t] == ("load", f"frame_{t + 1}.feat")
            assert events[2 + 2 * t][0] == "track"
        assert len(events) == 2 * n_frames - 1

    def test_learned_head_drops_unfolded_weights(self, learned_files, tmp_path, monkeypatch):
        # track runs on the fold alone: the loaded weights, and with them the
        # file payload their arrays view, are freed before frame 0 is tracked.
        dets, feat_dir, weights_path, _ = learned_files
        loaded, freed = [], []
        load_weights, track = cli.load_weights, cli.track

        def kept_load(path):
            weights = load_weights(path)
            loaded.append(weakref.ref(weights))
            return weights

        def checked_track(*args):
            if not freed:
                gc.collect()
                freed.append(loaded[0]() is None)
            return track(*args)

        monkeypatch.setattr(cli, "load_weights", kept_load)
        monkeypatch.setattr(cli, "track", checked_track)
        rc = run_cli("track", "--dets", dets, "--weights", weights_path,
                     "--features-dir", feat_dir, "--out", tmp_path / "preds.jsonl")
        assert rc == 0
        assert len(loaded) == 1 and freed == [True]

    def test_learned_head_fuses_each_frame_once(self, learned_files, tmp_path, monkeypatch):
        # Every frame is tracked twice (as frame t+1, then as frame t) but
        # fused once. The one-level feature files become two-level pyramids.
        dets, feat_dir, _, n_frames = learned_files
        load_features = cli.load_features

        def two_level(path):
            pyr = load_features(path)
            (stride, fmap), = pyr.levels
            fine = fmap.repeat(2, axis=0).repeat(2, axis=1)
            return FeaturePyramid(((stride // 2, fine), (stride, fmap)),
                                  pyr.image_height, pyr.image_width)

        fused = []
        fuse_pyramid = tracker.fuse_pyramid

        def counted(pyr, stride):
            fused.append(stride)
            return fuse_pyramid(pyr, stride)

        weights_path = tmp_path / "head.tensors"
        save_weights(synthesize_weights(16, TrackerConfig(), seed=3, shared_head_channels=4),
                     weights_path)
        monkeypatch.setattr(cli, "load_features", two_level)
        monkeypatch.setattr(tracker, "fuse_pyramid", counted)
        rc = run_cli("track", "--dets", dets, "--weights", weights_path,
                     "--features-dir", feat_dir, "--out", tmp_path / "preds.jsonl")
        assert rc == 0
        assert fused == [8] * n_frames

    def test_missing_last_feature_file_named(self, learned_files, tmp_path, capsys):
        dets, feat_dir, weights_path, n_frames = learned_files
        partial = tmp_path / "features"
        partial.mkdir()
        for t in range(n_frames - 1):
            (partial / f"frame_{t}.feat").write_bytes((feat_dir / f"frame_{t}.feat").read_bytes())
        out = tmp_path / "preds.jsonl"
        rc = run_cli("track", "--dets", dets, "--weights", weights_path,
                     "--features-dir", partial, "--out", out)
        assert rc != 0
        assert f"missing feature file {partial / f'frame_{n_frames - 1}.feat'}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_weights_header_fails_named(self, clean_files, tmp_path, capsys):
        _, dets = clean_files
        weights = tmp_path / "bad.tensors"
        weights.write_bytes(b'{"format": "named-tensors", "version": 1}\n')
        rc = run_cli("track", "--dets", dets, "--weights", weights,
                     "--features-dir", tmp_path, "--out", tmp_path / "p.jsonl")
        assert rc != 0
        assert "bad.tensors" in capsys.readouterr().err

    def test_empty_eps_weights_fail_named(self, learned_files, tmp_path, capsys):
        dets, feat_dir, weights_path, _ = learned_files
        arrays = load_named_arrays(weights_path)
        arrays["pre_template.eps"] = np.zeros(0)
        weights = tmp_path / "bad.tensors"
        save_named_arrays(arrays, weights)
        rc = run_cli("track", "--dets", dets, "--weights", weights,
                     "--features-dir", feat_dir, "--out", tmp_path / "p.jsonl")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error [track]: {weights}: ")

    @pytest.mark.parametrize("name, complaint", [
        ("post.kernel", "post: kernel holds non-finite values"),
        ("pre_template.var", "pre_template: var holds non-finite values"),
        ("head_bias", "head_bias holds non-finite values"),
    ])
    def test_non_finite_weights_fail_named(self, learned_files, tmp_path, capsys, name, complaint):
        # One NaN is rejected when the file loads, not on the first prediction.
        dets, feat_dir, weights_path, _ = learned_files
        arrays = load_named_arrays(weights_path)
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = np.nan
        weights = tmp_path / "bad.tensors"
        save_named_arrays(arrays, weights)
        rc = run_cli("track", "--dets", dets, "--weights", weights,
                     "--features-dir", feat_dir, "--out", tmp_path / "p.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == f"error [track]: {weights}: invalid weights: {complaint}\n"

    def test_channel_chain_mismatch_fails_named(self, learned_files, tmp_path, capsys):
        dets, feat_dir, weights_path, _ = learned_files
        arrays = load_named_arrays(weights_path)
        arrays["head_kernel"] = arrays["head_kernel"][:, : arrays["head_kernel"].shape[1] // 2]
        weights = tmp_path / "bad.tensors"
        save_named_arrays(arrays, weights)
        rc = run_cli("track", "--dets", dets, "--weights", weights,
                     "--features-dir", feat_dir, "--out", tmp_path / "p.jsonl")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [track]: {weights}: invalid weights: ")
        assert "head_kernel takes 4 channels, the block before it gives 8" in err

    @pytest.mark.parametrize("search_pool, n_flat", [(20, 8 * 14 * 14), (14, 8 * 8 * 8)])
    def test_pool_sizes_checked_against_weights(self, learned_files, tmp_path, monkeypatch, capsys,
                                                search_pool, n_flat):
        # The weights expect 8 head channels x 15x15 (pools 7 and 21); the
        # mismatch fails before any feature file is read.
        dets, feat_dir, weights_path, _ = learned_files
        loaded = []
        monkeypatch.setattr(cli, "load_features", lambda path: loaded.append(path))
        out = tmp_path / "p.jsonl"
        rc = run_cli("track", "--dets", dets, "--weights", weights_path, "--features-dir", feat_dir,
                     "--search-pool", search_pool, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error [track]: {weights_path}: --template-pool 7 and --search-pool {search_pool}: "
            f"flattened head input has {n_flat} values, FC heads expect 1800\n"
        )
        assert loaded == [] and not out.exists()

    def test_feature_channels_checked_against_weights(self, learned_files, tmp_path, capsys):
        # Weights for 5 input channels on 8-channel features: the fault names
        # the weights and both feature files the head read.
        dets, feat_dir, _, _ = learned_files
        weights = tmp_path / "five.tensors"
        save_weights(synthesize_weights(5, TrackerConfig(), seed=3, shared_head_channels=8), weights)
        out = tmp_path / "p.jsonl"
        rc = run_cli("track", "--dets", dets, "--weights", weights, "--features-dir", feat_dir,
                     "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error [track]: --weights {weights} on {feat_dir / 'frame_0.feat'}: "
            f"input has 8 channels, kernel expects 5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("strides, flags, complaint", [
        ((4, 8), ["--fuse-stride", "5"], "--fuse-stride 5 on {}: stride 5 not present in pyramid (has (4, 8))"),
        ((3, 8), ["--fuse-stride", "8"], "--fuse-stride 8 on {}: stride 3 does not divide target stride 8"),
        ((3, 8), [], "{}: stride 3 does not divide target stride 8"),
    ], ids=["absent-stride", "non-dividing-stride", "default-stride"])
    def test_fusion_fault_names_the_stride_and_the_file(self, learned_files, tmp_path, capsys, strides, flags,
                                                         complaint):
        dets, _, weights, _ = learned_files
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        spec = replace(preset_scenario("clean", 1), feature_strides=strides)
        save_features(render_features(spec, 0), feat_dir / "frame_0.feat")
        out = tmp_path / "p.jsonl"
        rc = run_cli("track", "--dets", dets, "--weights", weights, "--features-dir", feat_dir, *flags, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == f"error [track]: {complaint.format(feat_dir / 'frame_0.feat')}\n"
        assert not out.exists()

    def test_one_frame_video_checks_feature_channels(self, learned_files, tmp_path, capsys):
        # A one-frame video has no frame pair to track, but its weights must
        # still take frame 0's channels.
        dets, feat_dir, _, _ = learned_files
        first = tmp_path / "first.jsonl"
        first.write_text("".join(line + "\n" for line in dets.read_text().splitlines()
                                 if json.loads(line)["frame"] == 0))
        weights = tmp_path / "five.tensors"
        save_weights(synthesize_weights(5, TrackerConfig(), seed=3, shared_head_channels=8), weights)
        out = tmp_path / "p.jsonl"
        rc = run_cli("track", "--dets", first, "--weights", weights, "--features-dir", feat_dir, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error [track]: --weights {weights} on {feat_dir / 'frame_0.feat'}: "
            f"input has 8 channels, kernel expects 5\n"
        )
        assert not out.exists()

    def test_flat_boxes_tracked_as_themselves(self, learned_files, tmp_path):
        # A detection of zero width or height has no scale to regress; it
        # comes back as its own box at quality 0.0, and every other box's
        # prediction is the one it gets without the flat boxes.
        dets, feat_dir, weights_path, _ = learned_files
        records = [json.loads(line) for line in dets.read_text().splitlines()]
        flat = [[40, 40, 40, 60], [12.5, 30, 20, 30], [7, 7, 7, 7]]
        with_flat = tmp_path / "dets_flat.jsonl"
        added = [{**records[0], "box": box} for box in flat]
        with_flat.write_text("".join(json.dumps(r) + "\n" for r in records[:1] + added + records[1:]))
        base_out, flat_out = tmp_path / "base.jsonl", tmp_path / "flat.jsonl"
        for path, out in ((dets, base_out), (with_flat, flat_out)):
            assert run_cli("track", "--dets", path, "--weights", weights_path,
                           "--features-dir", feat_dir, "--out", out) == 0
        (base,) = map(prediction_lists, load_predictions(base_out, load_detections(dets)).values())
        (got,) = map(prediction_lists, load_predictions(flat_out, load_detections(with_flat)).values())
        flat_boxes = {Box(*box) for box in flat}
        tracked_flat = [p for p in got[0] if p.source.box in flat_boxes]
        assert {p.source.box for p in tracked_flat} == flat_boxes
        assert all(p.predicted_box == p.source.box and p.quality == 0.0 for p in tracked_flat)
        assert [[p for p in frame if p.source.box not in flat_boxes] for frame in got] == base

    def test_oracle_requires_gt(self, tmp_path, clean_files, capsys):
        _, dets = clean_files
        rc = run_cli("track", "--dets", dets, "--oracle", "--out", tmp_path / "p.jsonl")
        assert rc != 0
        assert "track" in capsys.readouterr().err


class TestOracleSeed:
    # Each command that takes --oracle-seed, with a negative seed: track on
    # real files, tfd on an empty detection file (nothing to track, and a
    # file that would fail to load), run on a variant that runs the oracle.
    ARGV = {
        "track": lambda gt, dets, out: ["track", "--dets", dets, "--oracle", "--gt", gt,
                                        "--out", out / "p.jsonl"],
        "tfd": lambda gt, dets, out: ["tfd", "--dets", out / "empty.jsonl", "--oracle", "--gt", gt,
                                      "--out", out / "m.jsonl"],
        "run": lambda gt, dets, out: ["run", "--preset", "clean", "--variant", "tfd+seqnms",
                                      "--out-dir", out / "run"],
    }

    @pytest.mark.parametrize("command", ARGV)
    def test_negative_seed_rejected_before_reading(self, clean_files, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        (out / "empty.jsonl").write_text("")
        argv = self.ARGV[command](*clean_files, out)
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--oracle-seed", "-3")
        assert exc.value.code == 2
        assert "argument --oracle-seed: must be a non-negative integer, got -3" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["empty.jsonl"]
        # Seed 0 parses; tfd then fails on reading the empty file.
        assert run_cli(*argv, "--oracle-seed", "0") == (1 if command == "tfd" else 0)


class TestOracleGroundTruth:
    # The oracle reads --gt as the ground truth of the --dets video; the
    # ground truth of another video would track the wrong scene.
    ARGV = {
        "track": lambda dets, gt, out: ["track", "--dets", dets, "--oracle", "--gt", gt,
                                        "--out", out / "p.jsonl", "--manifest", out / "m.json"],
        "tfd": lambda dets, gt, out: ["tfd", "--dets", dets, "--oracle", "--gt", gt,
                                      "--out", out / "m.jsonl", "--out-preds", out / "p.jsonl",
                                      "--manifest", out / "m.json"],
    }

    @pytest.mark.parametrize("command", ARGV)
    def test_ground_truth_of_another_video_rejected(self, tmp_path, capsys, command):
        dets, gt = tmp_path / "dets0.jsonl", tmp_path / "gt3.jsonl"
        assert run_cli("synth-gen", "--preset", "degraded", "--seed", "0",
                       "--out-gt", tmp_path / "gt0.jsonl", "--out-dets", dets) == 0
        assert run_cli("synth-gen", "--preset", "fast", "--seed", "3",
                       "--out-gt", gt, "--out-dets", tmp_path / "dets3.jsonl") == 0
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        fails_naming(capsys, self.ARGV[command](dets, gt, out),
                     f"{gt}: ground truth of video 'fast-3', but --dets {dets} holds video 'degraded-0'")
        assert list(out.iterdir()) == []

    # Each edit of the degraded preset's ground truth (seed 0: tracks 0-2
    # in frames 0 and 1, one line each) leaves a frame in which the oracle
    # cannot tell objects apart by track id.
    TRACK_FAULTS = {
        "every-track-null": (lambda r, i: r.update(track=None), 1,
                             "ground truth without a track id; the oracle follows objects by track"),
        "one-track-null": (lambda r, i: r.update(track=None) if i == 5 else None, 6,
                           "ground truth without a track id; the oracle follows objects by track"),
        "every-track-0": (lambda r, i: r.update(track=0), 2,
                          "track 0 is held by another record of frame 0; the oracle follows objects by track"),
        "repeated-in-frame-1": (lambda r, i: r.update(track=0) if r["frame"] == 1 and r["track"] == 2 else None,
                                6, "track 0 is held by another record of frame 1; "
                                   "the oracle follows objects by track"),
    }

    @pytest.mark.parametrize("command", ARGV)
    @pytest.mark.parametrize("edit, line, complaint", TRACK_FAULTS.values(), ids=TRACK_FAULTS.keys())
    def test_ground_truth_without_unique_track_ids_rejected(self, tmp_path, capsys, command, edit, line,
                                                            complaint):
        dets, gt = tmp_path / "dets.jsonl", tmp_path / "gt.jsonl"
        assert run_cli("synth-gen", "--preset", "degraded", "--seed", "0",
                       "--out-gt", gt, "--out-dets", dets) == 0
        records = [json.loads(text) for text in gt.read_text().splitlines()]
        assert [(r["frame"], r["track"]) for r in records[:6]] == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        for i, record in enumerate(records):
            edit(record, i)
        gt.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert run_cli(*self.ARGV[command](dets, gt, out)) == 1
        assert capsys.readouterr().err == f"error [{command}]: {gt}:{line}: {complaint}\n"
        assert list(out.iterdir()) == []


    def test_frame_without_ground_truth_tracks_nothing(self, tmp_path):
        # Frame 5 keeps its detections but loses its ground truth: no box
        # there matches an object, so each prediction is a failed track.
        dets, gt, out = tmp_path / "dets.jsonl", tmp_path / "gt.jsonl", tmp_path / "p.jsonl"
        assert run_cli("synth-gen", "--preset", "clean", "--seed", "0", "--out-gt", gt, "--out-dets", dets) == 0
        gt.write_text("".join(line + "\n" for line in gt.read_text().splitlines()
                              if json.loads(line)["frame"] != 5))
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", out) == 0
        (found,) = load_detections(dets)
        quality = load_predictions(out, [found])[found.video].quality
        assert found.rows(5).stop > found.rows(5).start
        assert (quality[found.rows(5)] < 0.5).all()
        assert (quality[found.rows(6)] >= 0.5).any()


class TestTfdAndLink:
    def test_oracle_pipeline_and_linking(self, clean_files, tmp_path):
        gt, dets = clean_files
        merged = tmp_path / "merged.jsonl"
        preds = tmp_path / "pipeline_preds.jsonl"
        rc = run_cli("tfd", "--dets", dets, "--oracle", "--gt", gt,
                     "--out", merged, "--out-preds", preds)
        assert rc == 0
        (merged_set,) = load_detections(merged)
        assert all(d.provenance in ("detected", "tracked") for f in frames_of(merged_set) for d in f)
        assert any(d.provenance == "tracked" for f in frames_of(merged_set) for d in f)

        linked = tmp_path / "linked.jsonl"
        assert run_cli("link", "--dets", merged, "--mode", "seqnms", "--out", linked) == 0
        linked2 = tmp_path / "linked2.jsonl"
        assert run_cli("link", "--dets", merged, "--preds", preds,
                       "--mode", "seqtrack", "--out", linked2) == 0
        assert load_detections(linked) and load_detections(linked2)

    def test_empty_last_merged_frame_links(self, tmp_path):
        # The object's ground truth ends a frame before its last detection,
        # which is below --detect-score: the last merged frame is empty, so
        # the merged file ends a frame early. The prediction file holds no
        # record on the frame that file ends with, and the pair links.
        def line(frame, score, track=None):
            return json.dumps({"video": "v", "frame": frame, "class": 0, "score": score,
                               "box": [0, 0, 10, 10], "track": track, "provenance": None}) + "\n"

        dets, gt = tmp_path / "dets.jsonl", tmp_path / "gt.jsonl"
        merged, preds, linked = (tmp_path / name for name in ("merged.jsonl", "preds.jsonl", "linked.jsonl"))
        dets.write_text("".join(line(t, 0.9) for t in range(3)) + line(3, 0.01))
        gt.write_text("".join(line(t, 1.0, track=0) for t in range(3)))
        assert run_cli("tfd", "--dets", dets, "--oracle", "--gt", gt, "--out", merged, "--out-preds", preds) == 0
        (merged_set,) = load_detections(merged)
        assert merged_set.n_frames == 3
        assert [json.loads(text)["frame"] for text in preds.read_text().splitlines()] == [0, 1]
        assert run_cli("link", "--dets", merged, "--preds", preds, "--mode", "seqtrack", "--out", linked) == 0
        assert len(load_detections(linked)[0].score) == 3

    def test_replay_matcher_ties_and_claims(self):
        # Two stored predictions share one source box: a candidate on that box
        # claims the later one, the next candidate the one left, a third none.
        # A candidate with IoU exactly 0.5 against a source claims it.
        def stored(source, predicted, quality):
            return TrackPrediction(Detection(0, 0, 0.9, source), predicted, quality)

        box = Box(0, 0, 10, 10)
        entries = [stored(box, Box(1, 0, 11, 10), 0.7), stored(box, Box(2, 0, 12, 10), 0.8),
                   stored(Box(40, 40, 50, 50), Box(41, 40, 51, 50), 0.9)]
        track_fn = cli.make_replay_track_fn(as_predictions([entries]))
        candidates = [Detection(0, 0, 0.9, box), Detection(0, 0, 0.8, box),
                      Detection(0, 0, 0.7, box), Detection(0, 0, 0.6, Box(40, 40, 50, 45))]
        got = [(p.predicted_box, p.quality) for p in track_records(track_fn, candidates)]
        assert got == [(Box(2, 0, 12, 10), 0.8), (Box(1, 0, 11, 10), 0.7),
                       (box, 0.0), (Box(41, 40, 51, 50), 0.9)]

    @pytest.mark.parametrize("command", ["track", "tfd"])
    def test_prediction_file_round_trips(self, clean_files, tmp_path, command):
        # Both commands predict every frame but the last, whose rows load as
        # NaN; saving either file as loaded writes it again byte for byte.
        gt, dets = clean_files
        preds, merged = tmp_path / "preds.jsonl", tmp_path / "merged.jsonl"
        oracle = ["--oracle", "--gt", gt, "--noise-center", "1.5"]
        if command == "track":
            assert run_cli("track", "--dets", dets, *oracle, "--out", preds) == 0
        else:
            assert run_cli("tfd", "--dets", dets, *oracle, "--out", merged, "--out-preds", preds) == 0
            dets = merged
        (vds,) = load_detections(dets)
        (loaded,) = load_predictions(preds, [vds]).values()
        last = vds.rows(vds.n_frames - 1)
        assert not np.isnan(loaded.quality[: last.start]).any() and np.isnan(loaded.quality[last]).all()
        again = tmp_path / "again.jsonl"
        assert save_predictions(loaded, again) == last.start
        assert again.read_bytes() == preds.read_bytes()

    def test_replay_preds_path(self, clean_files, tmp_path):
        gt, dets = clean_files
        preds = tmp_path / "preds.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", preds) == 0
        merged = tmp_path / "merged.jsonl"
        rc = run_cli("tfd", "--dets", dets, "--preds", preds, "--out", merged)
        assert rc == 0
        (merged_set,) = load_detections(merged)
        assert any(d.provenance == "tracked" for f in frames_of(merged_set) for d in f)

    def test_link_rejects_overflowing_box_naming_the_file(self, tmp_path, capsys):
        # Two identical boxes whose width overflows: loaded, their overlap
        # would be NaN and suppression would keep both.
        line = json.dumps({"video": "v", "frame": 0, "class": 0, "score": 0.9,
                           "box": [-1e308, 0, 1e308, 10], "track": None, "provenance": None})
        dets = tmp_path / "dets.jsonl"
        dets.write_text(line + "\n" + line + "\n")
        rc = run_cli("link", "--dets", dets, "--mode", "seqnms", "--out", tmp_path / "x.jsonl")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error [link]: {dets}:1: invalid detection record: ")

    def test_seqtrack_score_gate_drops_predictions(self, tmp_path):
        # link --score-min on a tfd output equals link on a hand-filtered pair:
        # merged boxes below 0.5 removed, their predictions dropped and the
        # remaining predictions' det indices renumbered.
        gt, dets = tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"
        assert run_cli("synth-gen", "--preset", "degraded", "--seed", "0",
                       "--out-gt", gt, "--out-dets", dets) == 0
        merged, preds = tmp_path / "merged.jsonl", tmp_path / "preds.jsonl"
        assert run_cli("tfd", "--dets", dets, "--oracle", "--gt", gt,
                       "--out", merged, "--out-preds", preds) == 0
        gated = tmp_path / "gated.jsonl"
        assert run_cli("link", "--dets", merged, "--preds", preds, "--mode", "seqtrack",
                       "--score-min", "0.5", "--out", gated) == 0

        seen, kept, renumbered, strong = Counter(), Counter(), {}, []
        for line in merged.read_text().splitlines():
            record = json.loads(line)
            t = record["frame"]
            if record["score"] >= 0.5:
                renumbered[t, seen[t]] = kept[t]
                kept[t] += 1
                strong.append(line)
            seen[t] += 1
        hand_preds = []
        for line in preds.read_text().splitlines():
            record = json.loads(line)
            key = (record["frame"], record["det"])
            if key in renumbered:
                hand_preds.append(json.dumps({**record, "det": renumbered[key]}))
        assert len(strong) < sum(seen.values())
        assert len(hand_preds) < len(preds.read_text().splitlines())
        hand_merged, hand_preds_path = tmp_path / "hand_merged.jsonl", tmp_path / "hand_preds.jsonl"
        hand_merged.write_text("".join(line + "\n" for line in strong))
        hand_preds_path.write_text("".join(line + "\n" for line in hand_preds))
        expected = tmp_path / "expected.jsonl"
        assert run_cli("link", "--dets", hand_merged, "--preds", hand_preds_path,
                       "--mode", "seqtrack", "--out", expected) == 0
        assert gated.read_bytes() == expected.read_bytes()

    def test_seqtrack_misaligned_preds_name_both_files(self, tmp_path, capsys):
        # tfd --out-preds is aligned with the merged file, not with the raw
        # detections it was run on.
        gt, dets = tmp_path / "gt.jsonl", tmp_path / "dets.jsonl"
        assert run_cli("synth-gen", "--preset", "degraded", "--seed", "0",
                       "--out-gt", gt, "--out-dets", dets) == 0
        merged, preds = tmp_path / "merged.jsonl", tmp_path / "preds.jsonl"
        assert run_cli("tfd", "--dets", dets, "--oracle", "--gt", gt,
                       "--out", merged, "--out-preds", preds) == 0
        capsys.readouterr()
        rc = run_cli("link", "--dets", dets, "--preds", preds, "--mode", "seqtrack",
                     "--out", tmp_path / "x.jsonl")
        assert rc == 1
        err = capsys.readouterr().err
        assert re.match(rf"error \[link\]: {re.escape(str(preds))}:\d+: invalid prediction record: "
                        rf".* of video '\S+' frame \d+ \(--dets {re.escape(str(dets))}\)\n$", err), err
        assert not (tmp_path / "x.jsonl").exists()

    def test_seqtrack_preds_missing_a_frame_name_both_files(self, clean_files, tmp_path, capsys):
        gt, dets = clean_files
        preds, holey = tmp_path / "preds.jsonl", tmp_path / "holey.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", preds) == 0
        holey.write_text("".join(line + "\n" for line in preds.read_text().splitlines()
                                 if json.loads(line)["frame"] != 3))
        capsys.readouterr()
        rc = run_cli("link", "--dets", dets, "--preds", holey, "--mode", "seqtrack",
                     "--out", tmp_path / "x.jsonl")
        assert rc == 1
        assert capsys.readouterr().err == (f"error [link]: {holey}: video 'clean-0' frame 3: "
                                           f"no prediction for detection 0 of 2 (--dets {dets})\n")
        assert not (tmp_path / "x.jsonl").exists()

    def test_replay_of_another_videos_preds_names_both_files(self, clean_files, tmp_path, capsys):
        # Replayed by overlap, these predictions were once merged as if nothing was tracked.
        gt, dets = clean_files
        preds, other = tmp_path / "preds.jsonl", tmp_path / "other.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", preds) == 0
        other.write_text(preds.read_text().replace('"video": "clean-0"', '"video": "other"'))
        capsys.readouterr()
        assert run_cli("tfd", "--dets", dets, "--preds", other, "--out", tmp_path / "m.jsonl") == 1
        assert capsys.readouterr().err == (f"error [tfd]: {other}:1: invalid prediction record: "
                                           f"video 'other' is not in the detections (--dets {dets})\n")
        assert not (tmp_path / "m.jsonl").exists()

    def test_seqtrack_requires_preds(self, clean_files, tmp_path, capsys):
        _, dets = clean_files
        rc = run_cli("link", "--dets", dets, "--mode", "seqtrack",
                     "--out", tmp_path / "x.jsonl")
        assert rc != 0
        assert "link" in capsys.readouterr().err


# Edits of a track --oracle output on the clean preset, seed 0 (two
# detections in each of frames 0-7): each makes the first line it changes
# name no detection, name one twice, or carry another detection's source.
def _relabel(records, frames: dict) -> None:
    """Give each record of a frame ``t`` in ``frames`` the frame ``frames[t]``."""
    for r in records:
        r["frame"] = frames.get(r["frame"], r["frame"])


PREDICTION_FAULTS = {
    "relabelled-frame": (lambda rs: _relabel(rs, {3: 4}), 7,
                         "'source' differs from detection 0 of video 'clean-0' frame 4"),
    "swapped-frames": (lambda rs: _relabel(rs, {1: 2, 2: 1}), 3,
                       "'source' differs from detection 0 of video 'clean-0' frame 2"),
    "source-class": (lambda rs: rs[4]["source"].update({"class": 5}), 5,
                     "'source' differs from detection 0 of video 'clean-0' frame 2"),
    "source-score": (lambda rs: rs[5]["source"].update(score=0.5), 6,
                     "'source' differs from detection 1 of video 'clean-0' frame 2"),
    "repeated-det": (lambda rs: rs.insert(3, dict(rs[2])), 4,
                     "detection 0 of video 'clean-0' frame 1 is predicted twice"),
    "unknown-video": (lambda rs: rs.append({**rs[0], "video": "other"}), 128,
                      "video 'other' is not in the detections"),
}


class TestPredictionSources:
    @pytest.mark.parametrize("command", ["tfd", "link"])
    @pytest.mark.parametrize("edit, line, complaint", PREDICTION_FAULTS.values(), ids=PREDICTION_FAULTS.keys())
    def test_fault_fails_at_its_line(self, clean_files, tmp_path, capsys, command, edit, line, complaint):
        gt, dets = clean_files
        preds, bad, out = tmp_path / "preds.jsonl", tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", preds) == 0
        records = [json.loads(text) for text in preds.read_text().splitlines()]
        edit(records)
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        mode = ["--mode", "seqtrack"] if command == "link" else []
        assert run_cli(command, "--dets", dets, "--preds", bad, *mode, "--out", out) == 1
        assert capsys.readouterr().err == (f"error [{command}]: {bad}:{line}: invalid prediction record: "
                                           f"{complaint} (--dets {dets})\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tfd", "link"])
    def test_last_frame_record_fails_at_its_line(self, clean_files, tmp_path, capsys, command):
        # A file as an older track --oracle wrote it, with a record for each
        # detection of the last frame, which has no next frame to predict.
        gt, dets = clean_files
        preds, out = tmp_path / "preds.jsonl", tmp_path / "out.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", preds) == 0
        n_records = len(preds.read_text().splitlines())
        last = [json.loads(text) for text in dets.read_text().splitlines()]
        last = [r for r in last if r["frame"] == last[-1]["frame"]]
        with preds.open("a") as fh:
            for i, r in enumerate(last):
                source = {k: v for k, v in r.items() if k != "video"}
                fh.write(json.dumps({"video": r["video"], "frame": r["frame"], "det": i, "box": r["box"],
                                     "quality": 0.0, "source": source}) + "\n")
        capsys.readouterr()
        mode = ["--mode", "seqtrack"] if command == "link" else []
        assert run_cli(command, "--dets", dets, "--preds", preds, *mode, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error [{command}]: {preds}:{n_records + 1}: invalid prediction record: frame {last[0]['frame']} is "
            f"the last of video 'clean-0'; it has no next frame to predict (--dets {dets})\n")
        assert not out.exists()


# A file flag the chosen mode never reads, with a --dets that does not
# exist: the flag is rejected before any file is read.
UNREAD_FLAGS = {
    "link-seqnms-preds": (["link", "--mode", "seqnms", "--preds", "P"], "--preds is not read with --mode seqnms"),
    "tfd-oracle-preds": (["tfd", "--oracle", "--gt", "P", "--preds", "P"], "--preds is not read with --oracle"),
    "track-oracle-weights": (["track", "--oracle", "--gt", "P", "--weights", "P"],
                             "--weights is not read with --oracle"),
    "track-oracle-features-dir": (["track", "--oracle", "--gt", "P", "--features-dir", "P"],
                                  "--features-dir is not read with --oracle"),
    # The oracle's noise flags and seed are read only with --oracle; an explicit seed 0 counts.
    "tfd-preds-noise-center": (["tfd", "--preds", "P", "--noise-center", "5", "--oracle-seed", "3"],
                               "--noise-center is not read without --oracle"),
    "tfd-preds-oracle-seed": (["tfd", "--preds", "P", "--oracle-seed", "0"],
                              "--oracle-seed is not read without --oracle"),
    "track-learned-noise-size": (["track", "--weights", "P", "--features-dir", "P", "--noise-size", "0.3"],
                                 "--noise-size is not read without --oracle"),
    # The pool and stride flags only shape the learned head; explicit defaults count.
    "track-oracle-pools": (["track", "--oracle", "--gt", "P", "--template-pool", "5", "--search-pool", "15",
                            "--fuse-stride", "4"], "--template-pool is not read with --oracle"),
    "track-oracle-default-pool": (["track", "--oracle", "--gt", "P", "--search-pool", "21"],
                                  "--search-pool is not read with --oracle"),
    # --gt is read only by the oracle.
    "tfd-preds-gt": (["tfd", "--preds", "P", "--gt", "P"], "--gt is not read without --oracle"),
    "track-learned-gt": (["track", "--weights", "P", "--features-dir", "P", "--gt", "P"],
                         "--gt is not read without --oracle"),
    # An abbreviation argparse takes is rejected by the name typed.
    "track-oracle-abbreviated-pool": (["track", "--oracle", "--gt", "P", "--sea", "15"],
                                      "--sea is not read with --oracle"),
    "tfd-preds-abbreviated-noise": (["tfd", "--preds", "P", "--noise-c=1"], "--noise-c is not read without --oracle"),
    # tfd takes only the merge's thresholds and no config file: argparse rejects the rest.
    "tfd-final-score": (["tfd", "--oracle", "--gt", "P", "--final-score", "0.5"],
                        "unrecognized arguments: --final-score 0.5"),
    "tfd-final-nms": (["tfd", "--preds", "P", "--final-nms=0.5"], "unrecognized arguments: --final-nms=0.5"),
    "tfd-config": (["tfd", "--oracle", "--gt", "P", "--config", "c.txt"], "unrecognized arguments: --config c.txt"),
}


class TestUnreadFlags:
    @pytest.mark.parametrize("argv, complaint", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
    def test_flag_is_rejected_before_reading(self, tmp_path, capsys, argv, complaint):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n")
        out = tmp_path / "out.jsonl"
        argv = [bad if a == "P" else a for a in argv] + ["--dets", tmp_path / "missing.jsonl", "--out", out]
        if complaint.startswith("unrecognized arguments: "):  # a flag the command does not take
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"vodtrack: error: {complaint}\n")
        else:
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err == f"error [{argv[0]}]: {complaint}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--preset", "fast", "--variant", "seqnms", "--t-merge", "0.2"],
                                       ["--t-merge=0.2"], ["--noise-c", "1"]])
    def test_from_manifest_takes_only_out_dir(self, tmp_path, capsys, flags):
        # The manifest is not read: it need not exist.
        out_dir = tmp_path / "run"
        assert run_cli("run", "--from-manifest", tmp_path / "missing.json", *flags, "--out-dir", out_dir) == 1
        option = flags[0].split("=")[0]
        assert capsys.readouterr().err == f"error [run]: {option} is not read with --from-manifest\n"
        assert not out_dir.exists()

    # A variant and a flag it does not read; None is the default variant, tfd+seqnms.
    @pytest.mark.parametrize("variant, flags", [("detector", ["--noise-failure", "0.9"]),
                                                ("seqnms", ["--oracle-seed", "0"]),
                                                ("detector", ["--link-iou", "0.3"]),
                                                ("detector", ["--t-merge", "0.2"]),
                                                ("seqnms", ["--track-q", "0.6"]),
                                                (None, ["--final-score", "0.2"]),
                                                ("tfd+seqtracknms", ["--final-score", "0.2"])])
    def test_run_without_oracle_rejects_its_flags(self, tmp_path, capsys, variant, flags):
        # The spec is not read: it need not exist.
        out_dir = tmp_path / "run"
        chosen = ["--variant", variant] if variant else []
        assert run_cli("run", "--spec", tmp_path / "missing.json", *chosen, *flags, "--out-dir", out_dir) == 1
        assert capsys.readouterr().err == (f"error [run]: {flags[0]} is not read with "
                                           f"--variant {variant or 'tfd+seqnms'}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["synth-gen", "run"])
    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--preset", "fast"], ["--preset", "clean", "--seed", "0"]],
                             ids=["seed", "preset", "preset-and-seed"])
    def test_spec_rejects_the_preset_flags(self, tmp_path, capsys, command, flags):
        # The spec is not read: it need not exist.
        outputs = [tmp_path / "run"] if command == "run" else [tmp_path / "g.jsonl", tmp_path / "d.jsonl"]
        out_flags = ["--out-dir", *outputs] if command == "run" else ["--out-gt", outputs[0], "--out-dets", outputs[1]]
        assert run_cli(command, "--spec", tmp_path / "missing.json", *flags, *out_flags) == 1
        assert capsys.readouterr().err == f"error [{command}]: {flags[0]} is not read with --spec\n"
        assert not any(path.exists() for path in outputs)

    def test_mode_table_names_only_flags_of_its_command(self):
        # A renamed flag or command must fail here rather than drop out of the check.
        (commands,) = [a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for command, modes in cli._MODES.items():
            options = commands[command]._option_string_actions
            for mode, (unread, needed) in modes.items():
                assert mode.split()[0] in ("with", "without"), mode
                assert {mode.split()[1], *unread, *needed} <= options.keys(), (command, mode)
        # --from-manifest reads no flag but --out-dir: the manifest holds the rest.
        run_options = commands["run"]._option_string_actions.keys() - {"-h", "--help", "--from-manifest", "--out-dir"}
        assert set(cli._MODES["run"]["with --from-manifest"][0]) == run_options

    def test_eval_label_needs_out(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n")
        manifest = tmp_path / "manifest.json"
        assert run_cli("eval", "--preds", bad, "--gt", bad, "--label", "x", "--manifest", manifest) == 1
        assert capsys.readouterr().err == "error [eval]: --label is not read without --out\n"
        assert not manifest.exists()


class TestMadeBoxesAreLoadable:
    # Every box a command makes must pass the loaders' corner rule (finite,
    # within ±2**53, non-negative extent) where it is made: a box that would
    # not is an input error, and nothing is written.

    def fails_writing_nothing(self, capsys, argv, outputs, complaint) -> None:
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{argv[0]}]: ") and complaint in err and "Traceback" not in err
        assert not any(path.exists() for path in outputs)

    def test_synth_gen_with_huge_box_jitter(self, tmp_path, capsys):
        spec_path, gt, dets = tmp_path / "scenario.json", tmp_path / "g.jsonl", tmp_path / "d.jsonl"
        save_scenario(preset_scenario("clean", 0), spec_path)
        spec = json.loads(spec_path.read_text())
        spec["noise"]["box_sigma"] = 1e20
        spec_path.write_text(json.dumps(spec))
        self.fails_writing_nothing(capsys, ["synth-gen", "--spec", spec_path, "--out-gt", gt, "--out-dets", dets],
                                   [gt, dets], "lie within ±2**53")

    @pytest.mark.parametrize("flags, complaint", [
        (["--noise-center", "1e300"], "lie within ±2**53"),
        (["--noise-center", "1e308"], "must be finite"),
        (["--noise-size", "1000"], "overflows"),
    ], ids=["center", "overflowing-center", "size"])
    def test_oracle_noise_past_the_bound(self, clean_files, tmp_path, capsys, flags, complaint):
        gt, dets = clean_files
        merged, preds = tmp_path / "m.jsonl", tmp_path / "p.jsonl"
        self.fails_writing_nothing(capsys, ["tfd", "--dets", dets, "--oracle", "--gt", gt, *flags, "--out", merged,
                                            "--out-preds", preds], [merged, preds], complaint)
        track_out = tmp_path / "t.jsonl"
        self.fails_writing_nothing(capsys, ["track", "--dets", dets, "--oracle", "--gt", gt, *flags,
                                            "--out", track_out], [track_out], complaint)
        out_dir = tmp_path / "run"
        self.fails_writing_nothing(capsys, ["run", "--preset", "clean", "--variant", "tfd+seqnms", *flags,
                                            "--out-dir", out_dir], [out_dir], complaint)

    @pytest.mark.parametrize("command", ["tfd", "track", "run"])
    def test_oracle_fault_names_the_frame_and_the_noise_flags(self, clean_files, tmp_path, capsys, command):
        gt, dets = clean_files
        out = tmp_path / "out"
        argv = {"tfd": ["tfd", "--dets", dets, "--oracle", "--gt", gt, "--out", out],
                "track": ["track", "--dets", dets, "--oracle", "--gt", gt, "--out", out],
                "run": ["run", "--preset", "clean", "--out-dir", out]}[command]
        # The track command also names the line of the frame's first record.
        where = f"--dets {dets}:1: " if command == "track" else ""
        assert run_cli(*argv, "--noise-center", "1e300") == 1
        assert capsys.readouterr().err.startswith(
            f"error [{command}]: {where}oracle on frame 0 with --noise-center 1e+300, --noise-size 0.0, "
            "--noise-failure 0.0: box corners must be finite and lie within ±2**53, got [")
        assert not out.exists()

    @pytest.mark.parametrize("dw, complaint", [(300.0, "lie within ±2**53"), (1000.0, "overflows")], ids=["300", "1000"])
    def test_learned_scale_past_the_bound(self, learned_files, tmp_path, capsys, dw, complaint):
        dets, feat_dir, weights_path, _ = learned_files
        arrays = load_named_arrays(weights_path)
        arrays["box_bias"] = np.array([0.0, 0.0, dw, 0.0])
        weights, out = tmp_path / "big.tensors", tmp_path / "p.jsonl"
        save_named_arrays(arrays, weights)
        self.fails_writing_nothing(capsys, ["track", "--dets", dets, "--weights", weights,
                                            "--features-dir", feat_dir, "--out", out], [out], complaint)


# A flag the chosen combination needs, left out, with a --dets that does not
# parse: the missing flag is reported before any file is read.
MISSING_FLAGS = {
    "tfd-no-tracker": (["tfd"], "provide --preds or --oracle"),
    "tfd-oracle-no-gt": (["tfd", "--oracle"], "--oracle requires --gt"),
    "track-no-weights": (["track", "--features-dir", "P"], "provide --weights and --features-dir, or --oracle"),
    "track-oracle-no-gt": (["track", "--oracle"], "--oracle requires --gt"),
}


class TestMissingFlags:
    @pytest.mark.parametrize("argv, complaint", MISSING_FLAGS.values(), ids=MISSING_FLAGS.keys())
    def test_missing_flag_is_reported_before_reading(self, tmp_path, capsys, argv, complaint):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n")
        out = tmp_path / "out.jsonl"
        argv = [tmp_path if a == "P" else a for a in argv]
        assert run_cli(*argv, "--dets", bad, "--out", out) == 1
        assert capsys.readouterr().err == f"error [{argv[0]}]: {complaint}\n"
        assert not out.exists()


# Pool and stride flags that TrackerConfig rejects, in either tracking mode:
# they are reported before any file is read.
BAD_TRACKER_FLAGS = {
    "pools": (["--template-pool", "0", "--search-pool", "-3", "--fuse-stride", "0"],
              "pool sizes must be positive, got 0 and -3"),
    "stride": (["--fuse-stride", "0"], "fuse_stride must be positive, got 0"),
}


class TestTrackerFlags:
    @pytest.mark.parametrize("flags, complaint", BAD_TRACKER_FLAGS.values(), ids=BAD_TRACKER_FLAGS.keys())
    def test_oracle_checks_pool_and_stride_flags(self, clean_files, tmp_path, capsys, flags, complaint):
        gt, dets = clean_files
        out = tmp_path / "out.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, *flags, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error [track]: --template-pool, --search-pool, --fuse-stride: {complaint}\n")
        assert not out.exists()

    def test_learned_pool_flag_checked_before_dets_are_read(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n")
        out = tmp_path / "out.jsonl"
        assert run_cli("track", "--dets", bad, "--weights", tmp_path / "w.bin", "--features-dir", tmp_path,
                       "--template-pool", "0", "--out", out) == 1
        assert capsys.readouterr().err == (
            "error [track]: --template-pool, --search-pool, --fuse-stride: "
            "pool sizes must be positive, got 0 and 21\n")
        assert not out.exists()


# A threshold or oracle noise flag out of range, with a --dets that does not
# parse: the flag is named before any file is read.
BAD_RANGE_FLAGS = {
    "tfd-t-merge": (["tfd", "--oracle", "--gt", "P", "--t-merge", "1.5"],
                    "--t-merge: t_merge must be in [0, 1], got 1.5"),
    "tfd-detect-score": (["tfd", "--preds", "P", "--detect-score", "-0.5"],
                         "--detect-score: detect_to_track_score must be in [0, 1], got -0.5"),
    "tfd-noise-failure": (["tfd", "--oracle", "--gt", "P", "--noise-failure", "2"],
                          "--noise-failure: failure_prob must be in [0, 1]"),
    "track-noise-size": (["track", "--oracle", "--gt", "P", "--noise-size", "-1"],
                         "--noise-size: noise sigmas must be non-negative and finite"),
}


class TestRangeFlags:
    @pytest.mark.parametrize("argv, complaint", BAD_RANGE_FLAGS.values(), ids=BAD_RANGE_FLAGS.keys())
    def test_flag_is_named_before_reading(self, tmp_path, capsys, argv, complaint):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n")
        out = tmp_path / "out.jsonl"
        argv = [bad if a == "P" else a for a in argv]
        assert run_cli(*argv, "--dets", bad, "--out", out) == 1
        assert capsys.readouterr().err == f"error [{argv[0]}]: {complaint}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, complaint", [
        (["--t-merge", "3"], "--t-merge: t_merge must be in [0, 1], got 3.0"),
        (["--noise-failure", "2"], "--noise-failure: failure_prob must be in [0, 1]"),
    ], ids=["t-merge", "noise-failure"])
    def test_run_makes_no_out_dir(self, tmp_path, capsys, flags, complaint):
        out_dir = tmp_path / "run"
        assert run_cli("run", "--preset", "clean", *flags, "--out-dir", out_dir) == 1
        assert capsys.readouterr().err == f"error [run]: {complaint}\n"
        assert not out_dir.exists()


class TestEval:
    def test_perfect_predictions(self, clean_files, tmp_path, capsys):
        gt, _ = clean_files
        result = tmp_path / "result.json"
        rc = run_cli("eval", "--preds", gt, "--gt", gt, "--out", result, "--label", "x")
        assert rc == 0
        assert "mAP" in capsys.readouterr().out
        data = json.loads(result.read_text())
        assert data["map"] == 1.0
        assert data["variant"] == "x"

    def test_record_without_video_fails_named(self, clean_files, tmp_path, capsys):
        gt, _ = clean_files
        preds = tmp_path / "preds.jsonl"
        record = json.loads(gt.read_text().splitlines()[0])
        del record["video"]
        preds.write_text(json.dumps(record) + "\n")
        rc = run_cli("eval", "--preds", preds, "--gt", gt)
        assert rc != 0
        assert "preds.jsonl:1" in capsys.readouterr().err

    def test_unknown_video_names_both_files(self, clean_files, tmp_path, capsys):
        gt, _ = clean_files
        fast_gt, fast_dets = tmp_path / "fast_gt.jsonl", tmp_path / "fast_dets.jsonl"
        assert run_cli("synth-gen", "--preset", "fast", "--seed", "0",
                       "--out-gt", fast_gt, "--out-dets", fast_dets) == 0
        capsys.readouterr()
        result = tmp_path / "result.json"
        assert run_cli("eval", "--preds", fast_dets, "--gt", gt, "--out", result) == 1
        assert capsys.readouterr().err == (f"error [eval]: predictions reference unknown video 'fast-0' "
                                           f"(--preds {fast_dets}, --gt {gt})\n")
        assert not result.exists()


class TestRun:
    def test_run_variant_rejects_an_unknown_variant(self):
        # argparse's choices stop it on the command line; run_variant checks its own caller.
        with pytest.raises(ValueError) as info:
            cli.run_variant(preset_scenario("clean", 0), "tfd", cli.PipelineConfig(), cli.NoiseParams())
        assert str(info.value) == "unknown variant 'tfd'"

    def test_detector_on_clean_is_perfect(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("run", "--preset", "clean", "--seed", "0",
                     "--variant", "detector", "--out-dir", out)
        assert rc == 0
        data = json.loads((out / "result.json").read_text())
        assert data["map"] == 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert set(manifest["timings_ms"]) == {"generate", "variant", "eval", "save"}

    def test_equals_chained_subcommands(self, tmp_path):
        out = tmp_path / "composed"
        rc = run_cli(
            "run", "--preset", "degraded", "--seed", "2", "--variant", "tfd+seqnms",
            "--noise-center", "1.0", "--noise-failure", "0.25",
            "--oracle-seed", "7", "--out-dir", out,
        )
        assert rc == 0

        gt = tmp_path / "gt.jsonl"
        dets = tmp_path / "dets.jsonl"
        assert run_cli("synth-gen", "--preset", "degraded", "--seed", "2",
                       "--out-gt", gt, "--out-dets", dets) == 0
        merged = tmp_path / "merged.jsonl"
        preds = tmp_path / "preds.jsonl"
        assert run_cli("tfd", "--dets", dets, "--oracle", "--gt", gt,
                       "--noise-center", "1.0", "--noise-failure", "0.25",
                       "--oracle-seed", "7", "--out", merged,
                       "--out-preds", preds) == 0
        linked = tmp_path / "linked.jsonl"
        assert run_cli("link", "--dets", merged, "--mode", "seqnms", "--out", linked) == 0

        assert (out / "gt.jsonl").read_bytes() == gt.read_bytes()
        assert (out / "dets.jsonl").read_bytes() == dets.read_bytes()
        assert (out / "merged.jsonl").read_bytes() == merged.read_bytes()
        assert (out / "preds.jsonl").read_bytes() == preds.read_bytes()
        assert (out / "final.jsonl").read_bytes() == linked.read_bytes()

        # seqtrack variant over the same merged set + recorded predictions
        out_st = tmp_path / "composed_st"
        assert run_cli(
            "run", "--preset", "degraded", "--seed", "2", "--variant", "tfd+seqtracknms",
            "--noise-center", "1.0", "--noise-failure", "0.25",
            "--oracle-seed", "7", "--out-dir", out_st,
        ) == 0
        linked_st = tmp_path / "linked_st.jsonl"
        assert run_cli("link", "--dets", merged, "--preds", preds,
                       "--mode", "seqtrack", "--out", linked_st) == 0
        assert (out_st / "final.jsonl").read_bytes() == linked_st.read_bytes()

        # plain seqnms variant chains through link --score-min
        out_sn = tmp_path / "composed_sn"
        assert run_cli("run", "--preset", "degraded", "--seed", "2",
                       "--variant", "seqnms", "--out-dir", out_sn) == 0
        linked_sn = tmp_path / "linked_sn.jsonl"
        assert run_cli("link", "--dets", dets, "--mode", "seqnms",
                       "--score-min", "0.03", "--out", linked_sn) == 0
        assert (out_sn / "final.jsonl").read_bytes() == linked_sn.read_bytes()

    def test_equals_chained_subcommands_past_the_last_detection(self, tmp_path):
        # The object outlives its last detection (frame 8). run tracks it through
        # the scene's last frames; tfd --oracle must follow it through --gt's too.
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({
            "width": 200, "height": 200, "n_frames": 12, "seed": 7, "video": "tail", "noise": {"miss_prob": 0.5},
            "objects": [{"class_id": 0, "first_frame": 0, "last_frame": 11, "cx": 60, "cy": 60, "w": 30, "h": 30,
                         "vx": 1.0, "vy": 0.5}]}))
        out = tmp_path / "run"
        assert run_cli("run", "--spec", spec, "--variant", "tfd+seqtracknms", "--out-dir", out) == 0
        (dets,) = load_detections(out / "dets.jsonl")
        assert dets.n_frames == 9
        chain = tmp_path / "chain"
        chain.mkdir()
        assert run_cli("tfd", "--dets", out / "dets.jsonl", "--oracle", "--gt", out / "gt.jsonl",
                       "--out", chain / "merged.jsonl", "--out-preds", chain / "preds.jsonl") == 0
        assert run_cli("link", "--dets", chain / "merged.jsonl", "--preds", chain / "preds.jsonl",
                       "--mode", "seqtrack", "--out", chain / "final.jsonl") == 0
        assert run_cli("eval", "--preds", chain / "final.jsonl", "--gt", out / "gt.jsonl",
                       "--out", chain / "result.json", "--label", "tfd+seqtracknms") == 0
        for name in ("merged.jsonl", "preds.jsonl", "final.jsonl", "result.json"):
            assert (chain / name).read_bytes() == (out / name).read_bytes(), name

    # Each command, or run variant, with the thresholds it reads ("run" is its default variant).
    MERGE_FIELDS = ("detect_to_track_score", "track_quality_min", "track_nms_iou", "t_merge")
    FINAL_FIELDS = ("final_score_min", "final_nms_iou")
    READS = {"tfd": MERGE_FIELDS, "run": (*MERGE_FIELDS, "final_nms_iou"),
             "run-tfd+seqtracknms": (*MERGE_FIELDS, "final_nms_iou"), "run-detector": FINAL_FIELDS,
             "run-seqnms": FINAL_FIELDS}
    CASES = {f"{field}-{where}": (where, field) for where, fields in READS.items() for field in fields}

    @pytest.mark.parametrize("where, field", CASES.values(), ids=CASES.keys())
    def test_config_flag_reaches_config(self, clean_files, tmp_path, monkeypatch, where, field):
        # A flag's value reaches the stage that reads its field, and no other.
        gt, dets = clean_files
        seen = []  # (stage, field, value) of each threshold a stage was called with
        for name, names in (("run_video", self.MERGE_FIELDS), ("final_detections", self.FINAL_FIELDS)):
            def stage(*args, name=name, names=names, run=getattr(cli, name)):
                seen.extend((name, f, getattr(args[-1], f)) for f in names)  # args[-1] is the PipelineConfig
                return run(*args)
            monkeypatch.setattr(cli, name, stage)
        link_frames = cli.link_frames

        def link(vds, preds, link_iou, nms_iou, score_min=0.0):
            seen.extend([("link_frames", "final_nms_iou", nms_iou), ("link_frames", "final_score_min", score_min)])
            return link_frames(vds, preds, link_iou, nms_iou, score_min)

        monkeypatch.setattr(cli, "link_frames", link)
        command, _, variant = where.partition("-")
        if command == "tfd":
            argv = ["tfd", "--dets", dets, "--oracle", "--gt", gt, "--out", tmp_path / "m.jsonl"]
        else:
            argv = ["run", "--preset", "clean", *(["--variant", variant] if variant else []),
                    "--out-dir", tmp_path / "run"]
        assert run_cli(*argv, cli._CONFIG_FLAGS[field], "0.25") == 0
        reader = ("run_video" if field in self.MERGE_FIELDS else
                  "final_detections" if variant == "detector" else "link_frames")
        assert [entry for entry in seen if entry[2] == 0.25] == [(reader, field, 0.25)]

    def test_from_manifest_reproduces_outputs(self, tmp_path):
        first = tmp_path / "r1"
        rc = run_cli("run", "--preset", "degraded", "--seed", "4",
                     "--variant", "tfd+seqtracknms", "--noise-center", "1.0",
                     "--noise-failure", "0.25", "--out-dir", first)
        assert rc == 0
        second = tmp_path / "r2"
        rc = run_cli("run", "--from-manifest", first / "manifest.json", "--out-dir", second)
        assert rc == 0
        for name in ("gt.jsonl", "dets.jsonl", "merged.jsonl", "preds.jsonl",
                     "final.jsonl", "result.json", "scenario.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestManifest:
    # Per subcommand: its argv (with --manifest where the command takes one),
    # the manifest's output keys and its timing keys.
    SHAPES = {
        "synth-gen": (lambda d: ["synth-gen", "--preset", "clean", "--seed", "0",
                                 "--out-gt", d / "g.jsonl", "--out-dets", d / "d.jsonl"],
                      {"gt", "dets"}, {"generate", "save"}),
        "track": (lambda d: ["track", "--dets", d / "dets.jsonl", "--oracle", "--gt", d / "gt.jsonl",
                             "--out", d / "p.jsonl"],
                  {"preds"}, {"load", "track", "save"}),
        "tfd": (lambda d: ["tfd", "--dets", d / "dets.jsonl", "--oracle", "--gt", d / "gt.jsonl", "--t-merge=0.5",
                           "--track-q", "0.6", "--out", d / "m.jsonl", "--out-preds", d / "p.jsonl"],
                {"merged", "preds"}, {"load", "pipeline", "save"}),
        "link": (lambda d: ["link", "--dets", d / "dets.jsonl", "--mode", "seqnms", "--out", d / "l.jsonl"],
                 {"linked"}, {"load", "link", "save"}),
        "eval": (lambda d: ["eval", "--preds", d / "gt.jsonl", "--gt", d / "gt.jsonl",
                            "--out", d / "r.json"],
                 {"result"}, {"load", "eval"}),
        "run": (lambda d: ["run", "--preset", "clean", "--seed", "0", "--variant", "tfd+seqnms",
                           "--out-dir", d / "run"],
                {"scenario", "gt", "dets", "final", "result", "merged", "preds"},
                {"generate", "variant", "eval", "save"}),
    }

    @pytest.mark.parametrize("command", SHAPES)
    def test_manifest_shape(self, clean_files, command):
        argv_of, outputs, timings = self.SHAPES[command]
        work = clean_files[0].parent
        argv = [str(a) for a in argv_of(work)]
        if command == "run":
            manifest_path = work / "run" / "manifest.json"
        else:
            manifest_path = work / "manifest.json"
            argv += ["--manifest", str(manifest_path)]
        assert main(argv) == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["tool"] == "vodtrack"
        assert manifest["command"] == command
        assert manifest["argv"] == argv
        assert set(manifest["outputs"]) == outputs
        assert set(manifest["timings_ms"]) == timings


# Manifests that replay and run --from-manifest must reject naming the
# file; "M" stands for the manifest's own path, "D" for an output dir.
BAD_MANIFESTS = {
    "self-replay": {"argv": ["replay", "M"]},
    "recorded-replay": {"command": "run", "argv": ["replay", "M"]},
    "from-manifest": {"command": "run", "argv": ["run", "--from-manifest", "M", "--out-dir", "D"]},
    "abbreviated-from-manifest": {"command": "run", "argv": ["run", "--from-m", "M", "--out-dir", "D"]},
    "non-object": ["run"],
    "missing-argv": {"command": "run"},
    "empty-argv": {"command": "run", "argv": []},
    "non-list-argv": {"command": "run", "argv": "run --out-dir D"},
    "non-string-argv": {"command": "run", "argv": ["run", 1]},
    "malformed-json": '{"command": "run", "argv": [',
    "not-run": {"command": "eval", "argv": ["eval", "--preds", "M", "--gt", "M"]},
    "unknown-command": {"argv": ["bogus"]},
    "bad-variant": {"command": "run", "argv": ["run", "--variant", "nope", "--out-dir", "D"]},
    "unread-flag": {"command": "run", "argv": ["run", "--preset", "clean", "--variant", "detector",
                                               "--t-merge", "0.3", "--out-dir", "D"]},
}


class TestPlotAndReplay:
    def test_plot_csv(self, tmp_path):
        rows = []
        for variant, value in (("detector", 0.5), ("seqnms", 0.75)):
            p = tmp_path / f"{variant}.json"
            p.write_text(json.dumps({"variant": variant, "map": value}))
            rows.append(p)
        out = tmp_path / "plot.csv"
        assert run_cli("plot", "--results", *rows, "--out", out) == 0
        assert out.read_text() == "variant,map\ndetector,0.5\nseqnms,0.75\n"

    @pytest.mark.parametrize("command, case", [
        (command, case) for command in ("replay", "run") for case in BAD_MANIFESTS
        if (command, case) != ("replay", "not-run")
    ])
    def test_bad_manifest_fails_naming_the_file(self, tmp_path, capsys, command, case):
        manifest, out_dir = tmp_path / "m.json", tmp_path / "out"
        content = BAD_MANIFESTS[case]
        if not isinstance(content, str):
            content = json.dumps(content).replace('"M"', json.dumps(str(manifest)))
            content = content.replace('"D"', json.dumps(str(out_dir)))
        manifest.write_text(content)
        if command == "replay":
            rc = run_cli("replay", manifest)
        else:
            rc = run_cli("run", "--from-manifest", manifest, "--out-dir", out_dir)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert re.match(rf"error \[(replay|run)\]: {re.escape(str(manifest))}: ", err), err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, recorded, complaint", [
        ("replay", ["bogus"], "argument command: invalid choice: 'bogus'"),
        ("run", ["run", "--variant", "nope"], "argument --variant: invalid choice: 'nope'"),
    ])
    def test_argv_argparse_rejects_names_the_manifest(self, tmp_path, capsys, command, recorded,
                                                       complaint):
        manifest, out_dir = tmp_path / "m.json", tmp_path / "out"
        manifest.write_text(json.dumps({"command": recorded[0], "argv": recorded}))
        if command == "replay":
            rc = run_cli("replay", manifest)
        else:
            rc = run_cli("run", "--from-manifest", manifest, "--out-dir", out_dir)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [{command}]: {manifest}: recorded argv: {complaint}"), err
        assert "usage:" not in err
        # Typed by hand, the same argv keeps argparse's usage text and exit 2.
        with pytest.raises(SystemExit) as exc:
            run_cli(*recorded, "--out-dir", out_dir)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_replay_subcommand_manifest(self, tmp_path):
        gt = tmp_path / "gt.jsonl"
        dets = tmp_path / "dets.jsonl"
        manifest = tmp_path / "m.json"
        assert run_cli("synth-gen", "--preset", "clean", "--seed", "5",
                       "--out-gt", gt, "--out-dets", dets, "--manifest", manifest) == 0
        before = gt.read_bytes(), dets.read_bytes()
        gt.unlink()
        dets.unlink()
        assert run_cli("replay", manifest) == 0
        assert (gt.read_bytes(), dets.read_bytes()) == before


# Every JSON file the CLI reads, as an argv in which "X" is the one faulty
# input. "DETS", "GT", "WEIGHTS" and "FEATS" are valid inputs; a feature
# file is read from the directory "XDIR", whose frame_0.feat is the fault.
JSON_READERS = {
    "eval-preds": ["eval", "--preds", "X", "--gt", "GT"],
    "eval-gt": ["eval", "--preds", "DETS", "--gt", "X"],
    "link-dets": ["link", "--dets", "X", "--mode", "seqnms", "--out", "OUT"],
    "link-preds": ["link", "--dets", "DETS", "--preds", "X", "--mode", "seqtrack", "--out", "OUT"],
    "tfd-dets": ["tfd", "--dets", "X", "--oracle", "--gt", "GT", "--out", "OUT"],
    "tfd-preds": ["tfd", "--dets", "DETS", "--preds", "X", "--out", "OUT"],
    "tfd-gt": ["tfd", "--dets", "DETS", "--oracle", "--gt", "X", "--out", "OUT"],
    "track-dets": ["track", "--dets", "X", "--oracle", "--gt", "GT", "--out", "OUT"],
    "track-gt": ["track", "--dets", "DETS", "--oracle", "--gt", "X", "--out", "OUT"],
    "track-weights": ["track", "--dets", "DETS", "--weights", "X", "--features-dir", "FEATS",
                      "--out", "OUT"],
    "track-features": ["track", "--dets", "DETS", "--weights", "WEIGHTS", "--features-dir", "XDIR",
                       "--out", "OUT"],
    "synth-gen-spec": ["synth-gen", "--spec", "X", "--out-gt", "OUT", "--out-dets", "OUT"],
    "replay": ["replay", "X"],
    "run-from-manifest": ["run", "--from-manifest", "X", "--out-dir", "OUT"],
    "plot": ["plot", "--results", "X", "--out", "OUT"],
}


def fails_naming(capsys, argv, path) -> None:
    """``argv`` exits 1 with one stderr line that names ``path`` first."""
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"error [{argv[0]}]: {path}"), err


class TestInputBoundary:
    @pytest.mark.parametrize("case", JSON_READERS)
    def test_deep_nesting_fails_naming_the_file(self, learned_files, tmp_path, capsys, case):
        dets, feat_dir, weights, _ = learned_files
        bad_dir = tmp_path / "features"
        bad_dir.mkdir()
        bad = bad_dir / "frame_0.feat" if case == "track-features" else tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "\n")
        files = {"X": bad, "XDIR": bad_dir, "DETS": dets, "GT": dets.with_name("gt.jsonl"),
                 "WEIGHTS": weights, "FEATS": feat_dir, "OUT": tmp_path / "out"}
        fails_naming(capsys, [files.get(a, a) for a in JSON_READERS[case]], bad)

    @pytest.mark.parametrize("content", ['[{"map": 0.5}]', '{"variant": "a"}', '{"map": "0.5"}'],
                             ids=["non-object", "no-map", "string-map"])
    def test_plot_rejects_a_bad_result(self, tmp_path, capsys, content):
        good, bad, out = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "plot.csv"
        good.write_text('{"variant": "a", "map": 0.5}')
        bad.write_text(content)
        fails_naming(capsys, ["plot", "--results", good, bad, "--out", out], bad)
        assert not out.exists()

    def test_plot_rejects_a_non_finite_map_or_a_non_string_variant(self, tmp_path, capsys):
        # Written unchecked, these three gave 4 CSV rows of 2, 2, 3 and 2 columns.
        out = tmp_path / "plot.csv"
        for i, content in enumerate(['{"variant": "a,b\\nc", "map": NaN}', '{"variant": [1, 2], "map": 0.5}',
                                     '{"variant": "x", "map": Infinity}']):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(content)
            fails_naming(capsys, ["plot", "--results", bad, "--out", out], f"{bad}: invalid result: ")
            assert not out.exists()
        # A finite map with the same variant is quoted: one CSV row per result.
        good = tmp_path / "good.json"
        good.write_text('{"variant": "a,b\\nc", "map": 0.5}')
        assert run_cli("plot", "--results", good, good, "--out", out) == 0
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == [["variant", "map"], ["a,b\nc", "0.5"], ["a,b\nc", "0.5"]]


# Out-of-range numbers, each rejected where it enters: a flag's argparse type
# exits 2 naming the flag, and NoiseParams rejects a non-finite sigma.
BAD_NUMBERS = {
    "link-score-min": (["link", "--dets", "DETS", "--mode", "seqnms", "--out", "OUT", "--score-min", "nan"],
                       2, "argument --score-min: must be a number in [0, 1], got nan"),
    "link-nms-iou": (["link", "--dets", "DETS", "--mode", "seqnms", "--out", "OUT", "--nms-iou", "7"],
                     2, "argument --nms-iou: must be a number in [0, 1], got 7"),
    "link-link-iou": (["link", "--dets", "DETS", "--mode", "seqnms", "--out", "OUT", "--link-iou", "-0.1"],
                      2, "argument --link-iou: must be a number in [0, 1], got -0.1"),
    "eval-iou": (["eval", "--preds", "DETS", "--gt", "GT", "--out", "OUT", "--iou", "one"],
                 2, "argument --iou: must be a number in [0, 1], got one"),
    "run-link-iou": (["run", "--variant", "seqnms", "--out-dir", "OUT", "--link-iou", "nan"],
                     2, "argument --link-iou: must be a number in [0, 1], got nan"),
    "run-iou": (["run", "--variant", "seqnms", "--out-dir", "OUT", "--iou", "3"],
                2, "argument --iou: must be a number in [0, 1], got 3"),
    "synth-gen-seed": (["synth-gen", "--preset", "degraded", "--seed", "-1", "--out-gt", "OUT",
                        "--out-dets", "OUT"], 2, "argument --seed: must be a non-negative integer, got -1"),
    "synth-gen-seed-text": (["synth-gen", "--preset", "degraded", "--seed", "abc", "--out-gt", "OUT",
                             "--out-dets", "OUT"], 2, "argument --seed: invalid int value: 'abc'"),
    "tfd-noise-center": (["tfd", "--dets", "DETS", "--oracle", "--gt", "GT", "--out", "OUT",
                          "--noise-center", "nan"], 1,
                         "error [tfd]: --noise-center: noise sigmas must be non-negative and finite"),
}


class TestNumberFlags:
    @pytest.mark.parametrize("case", BAD_NUMBERS)
    def test_out_of_range_number_is_rejected_naming_it(self, clean_files, tmp_path, capsys, case):
        gt, dets = clean_files
        out = tmp_path / "out"
        out.mkdir()
        argv, code, complaint = BAD_NUMBERS[case]
        argv = [{"DETS": dets, "GT": gt, "OUT": out / "x"}.get(a, a) for a in argv]
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                run_cli(*argv)
            assert exc.value.code == 2
        else:
            assert run_cli(*argv) == code
        assert complaint in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestReplayTrackFn:
    def test_replay_gives_a_frame_the_same_predictions_twice(self):
        src = Detection(0, 0, 0.9, Box(0, 0, 10, 10))
        track_fn = cli.make_replay_track_fn(as_predictions([[TrackPrediction(src, Box(1, 0, 11, 10), 0.7)]]))
        first, second = track_records(track_fn, [src]), track_records(track_fn, [src])
        assert first == second == [TrackPrediction(src, Box(1, 0, 11, 10), 0.7)]
