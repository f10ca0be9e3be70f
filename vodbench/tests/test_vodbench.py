"""Tests of the benchmark itself: its chain, its checks, its evaluator, its scenes.

Run from the repository root with ``python3 -m pytest vodbench/tests -q``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run as bench
import scenes
import vodtrack.cli
from vodtrack.synth import preset_scenario, save_scenario

NOISE = ["--noise-center", "1.0", "--noise-failure", "0.25"]


def preset_dict(tmp_path, name, seed) -> dict:
    path = tmp_path / f"{name}-{seed}.json"
    save_scenario(preset_scenario(name, seed), path)
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def degraded(tmp_path_factory):
    """The benchmark's oracle chain on the ``degraded`` preset, seed 11."""
    work = tmp_path_factory.mktemp("degraded")
    workload = bench.Workload("degraded", 11, work, preset_dict(work, "degraded", 11))
    run = bench.Runner()
    workload.setup(run)
    workload.chain(run)
    assert (run.attempted, run.failed) == (4, 0)
    return workload


def records(workload, name):
    return checks.read_jsonl(workload.path(name))


class TestChain:
    def test_matches_run_variant_byte_for_byte(self, degraded, tmp_path):
        out = tmp_path / "run"
        assert vodtrack.cli.main([
            "run", "--preset", "degraded", "--seed", "11", "--variant", "tfd+seqtracknms",
            *NOISE, "--oracle-seed", "11", "--out-dir", str(out)]) == 0
        for name in ("gt.jsonl", "dets.jsonl", "merged.jsonl", "preds.jsonl", "final.jsonl"):
            assert (out / name).read_bytes() == degraded.path(name).read_bytes(), name
        ran = json.loads((out / "result.json").read_text())
        assert ran["map"] == degraded.mean_ap()

    def test_checks_pass_on_program_output(self, degraded):
        assert degraded.check() == []

    def test_tracing_changes_no_output_and_counts_repeat(self, degraded):
        before = degraded.digest()
        original = vodtrack.cli.run_video
        tracer = layers.Tracer()
        run = bench.Runner()
        rows = []
        with tracer:
            for _ in range(2):
                tracer.reset()
                run.stage_s.clear()
                degraded.chain(run)
                rows.append(tracer.chain_metrics(run.stage_s, 1.0))
        assert vodtrack.cli.run_video is original
        assert degraded.digest() == before
        assert set(rows[0]) | {"cli.synth_gen_s", "synth.generate_s",
                               "synth.render_features_s"} == set(layers.PER_LAYER)
        counts = [n for n, unit in layers.PER_LAYER.items() if unit != "s"]
        assert [rows[0][n] for n in counts] == [rows[1][n] for n in counts]
        assert rows[0]["tracker.iou_calls"] > 0 and rows[0]["linker.tubelets"] > 0
        assert rows[0]["pipeline.candidates"] == rows[0]["tracker.boxes_tracked"]


class TestChecksRejectCorruption:
    def test_moved_final_box(self, degraded):
        final = records(degraded, "final.jsonl")
        final[3]["box"][0] += 1.0
        assert checks.check_final(final, records(degraded, "merged.jsonl"))

    def test_moved_admitted_box(self, degraded):
        merged = records(degraded, "merged.jsonl")
        admitted = next(r for r in merged if r["provenance"] == "detected")
        admitted["box"][2] += 0.5
        assert checks.check_merged(merged, records(degraded, "dets.jsonl"))

    def test_raised_admitted_score(self, degraded):
        merged = records(degraded, "merged.jsonl")
        admitted = next(r for r in merged if r["provenance"] == "detected" and r["score"] < 1)
        admitted["score"] = min(1.0, admitted["score"] + 0.01)
        assert checks.check_merged(merged, records(degraded, "dets.jsonl"))

    def test_raised_false_positive_score(self, degraded):
        gt = records(degraded, "gt.jsonl")
        final = records(degraded, "final.jsonl")
        assert checks.check_map(degraded.mean_ap(), final, gt) == []
        gt_frames = checks.by_frame(gt)

        def false_positive(r):
            same = [g["box"] for g in gt_frames.get(r["frame"], []) if g["class"] == r["class"]]
            return not same or checks.iou_matrix([r["box"]], same).max() < 0.5

        fp = next(r for r in final if false_positive(r))
        fp["score"] = 1.0
        assert checks.check_map(degraded.mean_ap(), final, gt)

    def test_suppressed_box_put_back(self, degraded):
        merged = records(degraded, "merged.jsonl")
        final = records(degraded, "final.jsonl")
        kept = {(r["frame"], tuple(r["box"])) for r in final}
        dropped = [r for r in merged if (r["frame"], tuple(r["box"])) not in kept]
        assert dropped, "the scene should suppress at least one merged box"
        assert checks.check_final(final + [dropped[0]], merged)

    def test_duplicate_track_id(self, degraded):
        merged = records(degraded, "merged.jsonl")
        frame = [r for r in merged if r["frame"] == 5]
        frame[1]["track"] = frame[0]["track"]
        assert checks.check_merged(merged, records(degraded, "dets.jsonl"))


class TestEvaluator:
    def test_equals_program_evaluator(self, degraded):
        final = records(degraded, "final.jsonl")
        gt = records(degraded, "gt.jsonl")
        assert abs(checks.mean_ap(final, gt) - degraded.mean_ap()) <= 1e-12

    def test_clean_preset_is_exactly_one(self, tmp_path):
        workload = bench.Workload("clean", 0, tmp_path, preset_dict(tmp_path, "clean", 0))
        run = bench.Runner()
        workload.setup(run)
        gt = records(workload, "gt.jsonl")
        assert checks.mean_ap(records(workload, "dets.jsonl"), gt) == 1.0
        # The noiseless oracle chain keeps every object.
        assert run("tfd", "--dets", workload.path("dets.jsonl"), "--oracle",
                   "--gt", workload.path("gt.jsonl"), "--out", workload.path("merged.jsonl"),
                   "--out-preds", workload.path("preds.jsonl")) == 0
        workload._link_and_eval(run)
        assert run.failed == 0
        assert checks.mean_ap(records(workload, "final.jsonl"), gt) == 1.0
        assert workload.check() == []

    def test_hand_computed_ap(self):
        def rec(frame, score, box, cls=0):
            return {"video": "v", "frame": frame, "class": cls, "score": score, "box": box}

        gt = [rec(0, 1.0, [0, 0, 10, 10]), rec(1, 1.0, [0, 0, 10, 10]),
              rec(2, 1.0, [0, 0, 10, 10]), rec(0, 1.0, [50, 50, 60, 60], cls=1)]
        preds = [
            rec(0, 0.9, [0, 0, 10, 10]),     # hit
            rec(1, 0.8, [20, 20, 30, 30]),   # miss: no overlap
            rec(2, 0.7, [1, 0, 11, 10]),     # hit: IoU 90/110
            rec(0, 0.6, [0, 0, 10, 10]),     # miss: frame 0 already matched
            rec(0, 0.5, [50, 50, 60, 60], cls=1),
        ]
        # Class 0 ranks hit, miss, hit, miss over 3 ground-truth boxes:
        # recall 1/3, 1/3, 2/3, 2/3; enveloped precision 1, 2/3, 2/3, 1/2.
        ap0 = (1 / 3) * 1.0 + (1 / 3) * (2 / 3)
        assert abs(checks.average_precision([True, False, True, False], 3) - ap0) <= 1e-15
        assert abs(checks.mean_ap(preds, gt) - (ap0 + 1.0) / 2) <= 1e-15


class TestScenes:
    @pytest.mark.parametrize("name", sorted(scenes.SCENES))
    def test_deterministic_per_seed(self, name):
        build = scenes.SCENES[name]
        assert build(5) == build(5)
        assert build(5) != build(6)

    def test_synth_gen_repeats_byte_for_byte(self, tmp_path):
        workload = bench.Workload("crowded_scene", 3, tmp_path)
        run = bench.Runner()
        workload.setup(run)
        first = workload.path("dets.jsonl").read_bytes()
        workload.setup(run)
        assert run.failed == 0
        assert workload.path("dets.jsonl").read_bytes() == first

    def test_slots_keep_object_count(self):
        scene = scenes.crowded_scene(1)
        for t in (0, scene["n_frames"] // 2, scene["n_frames"] - 1):
            alive = sum(o["first_frame"] <= t <= o["last_frame"] for o in scene["objects"])
            assert alive == 150


def tiny_learned_scene(seed=3, n_frames=4):
    scene = scenes.learned_head(seed)
    scene["n_frames"] = n_frames
    scene["objects"] = [dict(o, last_frame=min(o["last_frame"], n_frames - 1))
                        for o in scene["objects"] if o["first_frame"] < n_frames - 1]
    return scene


class TestLearnedHead:
    @pytest.fixture(scope="class")
    def learned(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("learned")
        workload = bench.LearnedHead("learned_head", 3, work, tiny_learned_scene())
        run = bench.Runner()
        workload.setup(run)
        workload.chain(run)
        assert run.failed == 0
        return workload

    def test_checks_pass(self, learned):
        assert learned.check() == []

    def feature(self, learned):
        return lambda t: learned.path("features") / f"frame_{t}.feat"

    @pytest.mark.parametrize("field, delta", [("quality", 1e-6), ("box", 1e-6)])
    def test_corrupted_prediction_rejected(self, learned, field, delta):
        preds = records(learned, "track.jsonl")
        assert checks.check_head_sample(preds, self.feature(learned), learned.weights,
                                        stride=scenes.LEARNED_STRIDES[1]) == []
        bad = copy.deepcopy(preds)
        if field == "quality":
            bad[0]["quality"] += delta
        else:
            bad[0]["box"][1] += delta
        assert checks.check_head_sample(bad, self.feature(learned), learned.weights,
                                        stride=scenes.LEARNED_STRIDES[1])

    def test_missing_prediction_rejected(self, learned):
        preds = records(learned, "track.jsonl")
        dets = records(learned, "dets.jsonl")
        n = learned.scene["n_frames"]
        assert checks.check_track_preds(preds, dets, n) == []
        assert checks.check_track_preds(preds[1:], dets, n)


def test_refuses_to_run_without_program(tmp_path):
    bench_dir = Path(bench.__file__).resolve().parent
    shutil.copytree(bench_dir, tmp_path / bench_dir.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, f"{bench_dir.name}/run.py", "--workload", "crowded_scene",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_file_names_every_metric_and_workload():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
