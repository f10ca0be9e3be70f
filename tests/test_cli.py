import csv
import json
import re
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import vodtrack.cli as cli
import vodtrack.tracker as tracker
from vodtrack.cli import main
from vodtrack.detections import Detection
from vodtrack.evalio import (
    MAX_FRAME_INDEX,
    load_detections,
    load_named_arrays,
    load_predictions,
    save_features,
    save_named_arrays,
)
from vodtrack.synth import preset_scenario, render_features, save_scenario
from vodtrack.geometry import Box
from vodtrack.pipeline import PipelineConfig
from vodtrack.tensor_ops import FeaturePyramid
from vodtrack.tracker import TrackerConfig, TrackPrediction, save_weights, synthesize_weights


def run_cli(*args) -> int:
    return main([str(a) for a in args])


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
        assert all(d.track is not None for f in gt_set.frames for d in f)

    def test_spec_file_input(self, tmp_path):
        spec_path = tmp_path / "scenario.json"
        save_scenario(preset_scenario("clean", 3), spec_path)
        rc = run_cli("synth-gen", "--spec", spec_path,
                     "--out-gt", tmp_path / "g.jsonl", "--out-dets", tmp_path / "d.jsonl")
        assert rc == 0

    # Edits that make a valid spec invalid; each must fail naming the file.
    SPEC_FAULTS = {
        "fractional-n-frames": lambda s: s.update(n_frames=2.5),
        "string-cx": lambda s: s["objects"][0].update(cx="5"),
        "fractional-seed": lambda s: s.update(seed=1.5),
        "fractional-first-frame": lambda s: s["objects"][0].update(first_frame=0.5),
        "unknown-key": lambda s: s.update(colour="red"),
        "unknown-object-key": lambda s: s["objects"][0].update(colour="red"),
        "two-value-degradation": lambda s: s["objects"][0].update(degradations=[[0, 1]]),
        "negative-seed": lambda s: s.update(seed=-1),
        "reversed-lifetime": lambda s: s["objects"][0].update(first_frame=9, last_frame=3),
        "too-many-frames": lambda s: s.update(n_frames=MAX_FRAME_INDEX + 2),
        "overflowing-scale-rate": lambda s: s["objects"][0].update(scale_rate=1e10),
        "overflowing-vx": lambda s: s["objects"][0].update(vx=1e308),
    }

    @pytest.mark.parametrize("fault", SPEC_FAULTS.values(), ids=SPEC_FAULTS.keys())
    def test_invalid_spec_fails_named(self, tmp_path, capsys, fault):
        spec_path = tmp_path / "scenario.json"
        save_scenario(preset_scenario("clean", 0), spec_path)
        spec = json.loads(spec_path.read_text())
        fault(spec)
        spec_path.write_text(json.dumps(spec))
        rc = run_cli("synth-gen", "--spec", spec_path,
                     "--out-gt", tmp_path / "g.jsonl", "--out-dets", tmp_path / "d.jsonl")
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error [synth-gen]: {spec_path}: invalid scenario spec: ")

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
        (frames,) = loaded.values()
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
            events.append(("track", boxes[0].frame if boxes else None))
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
        (base,) = load_predictions(base_out, load_detections(dets)).values()
        (got,) = load_predictions(flat_out, load_detections(with_flat)).values()
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
    # file that would fail to load), run on the detector variant (which
    # tracks nothing).
    ARGV = {
        "track": lambda gt, dets, out: ["track", "--dets", dets, "--oracle", "--gt", gt,
                                        "--out", out / "p.jsonl"],
        "tfd": lambda gt, dets, out: ["tfd", "--dets", out / "empty.jsonl", "--oracle", "--gt", gt,
                                      "--out", out / "m.jsonl"],
        "run": lambda gt, dets, out: ["run", "--preset", "clean", "--variant", "detector",
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


class TestTfdAndLink:
    def test_oracle_pipeline_and_linking(self, clean_files, tmp_path):
        gt, dets = clean_files
        merged = tmp_path / "merged.jsonl"
        preds = tmp_path / "pipeline_preds.jsonl"
        rc = run_cli("tfd", "--dets", dets, "--oracle", "--gt", gt,
                     "--out", merged, "--out-preds", preds)
        assert rc == 0
        (merged_set,) = load_detections(merged)
        assert all(d.provenance in ("detected", "tracked") for f in merged_set.frames for d in f)
        assert any(d.provenance == "tracked" for f in merged_set.frames for d in f)

        linked = tmp_path / "linked.jsonl"
        assert run_cli("link", "--dets", merged, "--mode", "seqnms", "--out", linked) == 0
        linked2 = tmp_path / "linked2.jsonl"
        assert run_cli("link", "--dets", merged, "--preds", preds,
                       "--mode", "seqtrack", "--out", linked2) == 0
        assert load_detections(linked) and load_detections(linked2)

    def test_replay_matcher_ties_and_claims(self):
        # Two stored predictions share one source box: a candidate on that box
        # claims the later one, the next candidate the one left, a third none.
        # A candidate with IoU exactly 0.5 against a source claims it.
        def stored(source, predicted, quality):
            return TrackPrediction(Detection(0, 0, 0.9, source), predicted, quality)

        box = Box(0, 0, 10, 10)
        entries = [stored(box, Box(1, 0, 11, 10), 0.7), stored(box, Box(2, 0, 12, 10), 0.8),
                   stored(Box(40, 40, 50, 50), Box(41, 40, 51, 50), 0.9)]
        track_fn = cli.make_replay_track_fn([entries])
        candidates = [Detection(0, 0, 0.9, box), Detection(0, 0, 0.8, box),
                      Detection(0, 0, 0.7, box), Detection(0, 0, 0.6, Box(40, 40, 50, 45))]
        got = [(p.predicted_box, p.quality) for p in track_fn(candidates)]
        assert got == [(Box(2, 0, 12, 10), 0.8), (Box(1, 0, 11, 10), 0.7),
                       (box, 0.0), (Box(41, 40, 51, 50), 0.9)]

    def test_replay_preds_path(self, clean_files, tmp_path):
        gt, dets = clean_files
        preds = tmp_path / "preds.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", preds) == 0
        merged = tmp_path / "merged.jsonl"
        rc = run_cli("tfd", "--dets", dets, "--preds", preds, "--out", merged)
        assert rc == 0
        (merged_set,) = load_detections(merged)
        assert any(d.provenance == "tracked" for f in merged_set.frames for d in f)

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
    "unknown-video": (lambda rs: rs.append({**rs[0], "video": "other"}), 130,
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


# A file flag the chosen mode never reads, with a --dets that does not
# exist: the flag is rejected before any file is read.
UNREAD_FLAGS = {
    "link-seqnms-preds": (["link", "--mode", "seqnms", "--preds", "P"], "--preds is not read with --mode seqnms"),
    "tfd-oracle-preds": (["tfd", "--oracle", "--gt", "P", "--preds", "P"], "--preds is not read with --oracle"),
    "track-oracle-weights": (["track", "--oracle", "--gt", "P", "--weights", "P"],
                             "--weights is not read with --oracle"),
    "track-oracle-features-dir": (["track", "--oracle", "--gt", "P", "--features-dir", "P"],
                                  "--features-dir is not read with --oracle"),
}


class TestUnreadFlags:
    @pytest.mark.parametrize("argv, complaint", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS.keys())
    def test_flag_is_rejected_before_reading(self, tmp_path, capsys, argv, complaint):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{\n")
        out = tmp_path / "out.jsonl"
        argv = [bad if a == "P" else a for a in argv]
        assert run_cli(*argv, "--dets", tmp_path / "missing.jsonl", "--out", out) == 1
        assert capsys.readouterr().err == f"error [{argv[0]}]: {complaint}\n"
        assert not out.exists()


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


class TestRun:
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

    CONFIG_FLAGS = {
        "detect_to_track_score": "--detect-score",
        "track_quality_min": "--track-quality",
        "track_nms_iou": "--track-nms",
        "t_merge": "--t-merge",
        "final_score_min": "--final-score",
        "final_nms_iou": "--final-nms",
    }

    @pytest.mark.parametrize("command", ["tfd", "run"])
    @pytest.mark.parametrize("field", [f.name for f in fields(PipelineConfig)])
    def test_config_flag_reaches_config(self, clean_files, tmp_path, monkeypatch, command, field):
        gt, dets = clean_files
        configs = []
        config_from_args = cli._config_from_args
        monkeypatch.setattr(cli, "_config_from_args",
                            lambda args: configs.append(config_from_args(args)) or configs[-1])
        if command == "tfd":
            argv = ["tfd", "--dets", dets, "--oracle", "--gt", gt, "--out", tmp_path / "m.jsonl"]
        else:
            argv = ["run", "--preset", "clean", "--variant", "detector", "--out-dir", tmp_path / "run"]
        assert run_cli(*argv, self.CONFIG_FLAGS[field], "0.25") == 0
        assert configs == [replace(PipelineConfig(), **{field: 0.25})]

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


    def test_manifest_holds_the_config_file_values(self, tmp_path):
        # The thresholds a --config file set are recorded as their flags, so
        # editing or deleting the file after the run changes no replay.
        config = tmp_path / "c.txt"
        config.write_text("t_merge = 0.3\ntrack_quality_min = 0.6\n")
        first, second, third = (tmp_path / name for name in ("r1", "r2", "r3"))
        rc = run_cli("run", "--preset", "degraded", "--seed", "4", "--variant", "tfd+seqnms",
                     "--noise-center", "1.0", "--noise-failure", "0.25", "--config", config,
                     "--track-quality", "0.55", "--out-dir", first)
        assert rc == 0
        argv = json.loads((first / "manifest.json").read_text())["argv"]
        assert "--config" not in argv and str(config) not in argv
        # The flag given on the command line wins over the file.
        assert argv[-2:] == ["--t-merge", "0.3"] and "0.6" not in argv
        config.write_text("t_merge = 0.9\n")
        assert run_cli("run", "--from-manifest", first / "manifest.json", "--out-dir", second) == 0
        config.unlink()
        assert run_cli("run", "--from-manifest", first / "manifest.json", "--out-dir", third) == 0
        for name in ("merged.jsonl", "final.jsonl", "result.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes() == (third / name).read_bytes()


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
        "tfd": (lambda d: ["tfd", "--dets", d / "dets.jsonl", "--oracle", "--gt", d / "gt.jsonl",
                           "--out", d / "m.jsonl", "--out-preds", d / "p.jsonl"],
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

    @pytest.mark.parametrize("content, where", [
        (b"t_merge = 0.5\nfinal_nms_iou = 2.0\n", ":2: bad value for final_nms_iou: "
                                                 "final_nms_iou must be in [0, 1], got 2.0"),
        (b"t_merge = 0.5\n# \xff\n", ":2: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["out-of-range", "bad-utf8"])
    def test_config_faults_name_the_file_and_line(self, tmp_path, capsys, content, where):
        config = tmp_path / "c.txt"
        config.write_bytes(content)
        fails_naming(capsys, ["run", "--preset", "clean", "--config", config,
                              "--out-dir", tmp_path / "out"], f"{config}{where}")


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
    "tfd-noise-center": (["tfd", "--dets", "DETS", "--oracle", "--gt", "GT", "--out", "OUT",
                          "--noise-center", "nan"], 1, "error [tfd]: noise sigmas must be non-negative and finite"),
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
        track_fn = cli.make_replay_track_fn([[TrackPrediction(src, Box(1, 0, 11, 10), 0.7)]])
        first, second = track_fn([src]), track_fn([src])
        assert first == second == [TrackPrediction(src, Box(1, 0, 11, 10), 0.7)]

    def test_replay_rejects_boxes_from_two_frames(self):
        track_fn = cli.make_replay_track_fn([])
        with pytest.raises(ValueError, match=r"one frame, got frames \[0, 1\]"):
            track_fn([Detection(0, 0, 0.9, Box(0, 0, 10, 10)), Detection(1, 0, 0.9, Box(0, 0, 10, 10))])
