import json

import numpy as np
import pytest

import vodtrack.cli as cli
import vodtrack.tracker as tracker
from vodtrack.cli import main
from vodtrack.evalio import (
    MAX_FRAME_INDEX,
    load_detections,
    load_named_arrays,
    load_predictions,
    save_features,
    save_named_arrays,
)
from vodtrack.synth import preset_scenario, render_features, save_scenario
from vodtrack.tensor_ops import FeaturePyramid
from vodtrack.tracker import TrackerConfig, save_weights, synthesize_weights


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
        assert capsys.readouterr().err.startswith(f"error [synth-gen]: {spec_path}: ")

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
        loaded = load_predictions(out)
        assert len(loaded) == 1
        (frames,) = loaded.values()
        qualities = [p.quality for t in frames for _, p in frames[t]]
        # zero noise: perfect predictions while alive, sub-threshold at death
        assert all(q == 1.0 or q < 0.5 for q in qualities)
        assert qualities.count(1.0) > len(qualities) * 0.8

    def test_learned_head_path(self, learned_files, tmp_path):
        dets, feat_dir, weights_path, _ = learned_files
        out = tmp_path / "preds.jsonl"
        rc = run_cli("track", "--dets", dets, "--weights", weights_path,
                     "--features-dir", feat_dir, "--out", out)
        assert rc == 0
        loaded = load_predictions(out)
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
            fine = fmap.repeat(2, axis=1).repeat(2, axis=2)
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

    def test_oracle_requires_gt(self, tmp_path, clean_files, capsys):
        _, dets = clean_files
        rc = run_cli("track", "--dets", dets, "--oracle", "--out", tmp_path / "p.jsonl")
        assert rc != 0
        assert "track" in capsys.readouterr().err


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

    def test_replay_preds_path(self, clean_files, tmp_path):
        gt, dets = clean_files
        preds = tmp_path / "preds.jsonl"
        assert run_cli("track", "--dets", dets, "--oracle", "--gt", gt, "--out", preds) == 0
        merged = tmp_path / "merged.jsonl"
        rc = run_cli("tfd", "--dets", dets, "--preds", preds, "--out", merged)
        assert rc == 0
        (merged_set,) = load_detections(merged)
        assert any(d.provenance == "tracked" for f in merged_set.frames for d in f)

    def test_seqtrack_requires_preds(self, clean_files, tmp_path, capsys):
        _, dets = clean_files
        rc = run_cli("link", "--dets", dets, "--mode", "seqtrack",
                     "--out", tmp_path / "x.jsonl")
        assert rc != 0
        assert "link" in capsys.readouterr().err


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
        assert set(manifest["timings_ms"]) == {"generate", "variant", "eval"}

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
