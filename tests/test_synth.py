import numpy as np
import pytest

from oracles import Box, box_iou, frames_of
from vodtrack.evalio import save_detections
from vodtrack.synth import (
    DetectorNoise,
    ObjectSpec,
    ScenarioSpec,
    generate,
    load_scenario,
    preset_scenario,
    render_features,
    save_scenario,
)


def simple_spec(**kwargs) -> ScenarioSpec:
    defaults = dict(
        width=128,
        height=128,
        n_frames=12,
        objects=(
            ObjectSpec(class_id=0, first_frame=0, last_frame=11, cx=30, cy=30, w=20, h=16, vx=2, vy=1),
            ObjectSpec(class_id=1, first_frame=2, last_frame=9, cx=90, cy=80, w=16, h=20, vx=-1, vy=0.5),
        ),
        seed=5,
        video="t",
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_lifetime_must_fit(self):
        with pytest.raises(ValueError, match="exceeds"):
            simple_spec(n_frames=8)

    def test_degradation_factor_range(self):
        with pytest.raises(ValueError, match="factor"):
            ObjectSpec(class_id=0, first_frame=0, last_frame=5, cx=0, cy=0, w=5, h=5,
                       degradations=((0, 3, 1.5),))

    def test_negative_class_id_rejected_by_loader(self, tmp_path):
        path = tmp_path / "spec.json"
        save_scenario(simple_spec(), path)
        path.write_text(path.read_text().replace('"class_id": 1', '"class_id": -1'))
        with pytest.raises(ValueError) as info:
            load_scenario(path)
        assert str(info.value) == (f"{path}: invalid scenario spec: "
                                   "objects[1]: class id must be non-negative, got -1")

    def test_noise_ranges(self):
        with pytest.raises(ValueError, match="miss_prob"):
            DetectorNoise(miss_prob=1.5)

    def test_motion_model(self):
        obj = ObjectSpec(class_id=0, first_frame=2, last_frame=10, cx=10, cy=20, w=8, h=6,
                         vx=3, vy=-1, scale_rate=1.1)
        b = Box(*obj.box_at(4))
        assert b.cx == pytest.approx(16, abs=1e-12)
        assert b.cy == pytest.approx(18, abs=1e-12)
        assert b.w == pytest.approx(8 * 1.21, abs=1e-12)


class TestGenerate:
    def test_zero_noise_dets_equal_gt(self):
        gt, dets = generate(simple_spec())
        assert gt.n_frames == dets.n_frames == 12
        for gf, df in zip(frames_of(gt), frames_of(dets)):
            assert len(gf) == len(df)
            for g, d in zip(gf, df):
                assert g.box.corners() == d.box.corners()
                assert d.score == 1.0
                assert d.class_id == g.class_id

    def test_gt_carries_consistent_track_ids(self):
        spec = simple_spec()
        gt, _ = generate(spec)
        for obj_id, obj in enumerate(spec.objects):
            frames_seen = []
            for frame in frames_of(gt):
                for d in frame:
                    if d.track == obj_id:
                        frames_seen.append(d.frame)
                        assert d.class_id == obj.class_id
            assert frames_seen == list(range(obj.first_frame, obj.last_frame + 1))

    def test_same_seed_byte_identical(self, tmp_path):
        spec = simple_spec(noise=DetectorNoise(box_sigma=2.0, miss_prob=0.2,
                                               false_positive_rate=0.5))
        files = []
        for name in ("a", "b"):
            gt, dets = generate(spec)
            p = tmp_path / f"{name}.jsonl"
            save_detections([gt, dets][1], p)
            files.append(p.read_bytes())
        assert files[0] == files[1]

    def test_miss_prob_one_empty(self):
        spec = simple_spec(noise=DetectorNoise(miss_prob=1.0))
        _, dets = generate(spec)
        assert sum(len(f) for f in frames_of(dets)) == 0

    def test_noise_never_alters_gt(self):
        clean_gt, _ = generate(simple_spec())
        noisy_gt, _ = generate(simple_spec(noise=DetectorNoise(box_sigma=4.0, miss_prob=0.5,
                                                               false_positive_rate=1.0)))
        assert frames_of(clean_gt) == frames_of(noisy_gt)

    def test_degradation_attenuates_scores_in_window(self):
        obj = ObjectSpec(class_id=0, first_frame=0, last_frame=11, cx=30, cy=30, w=20, h=16,
                         degradations=((3, 7, 0.2),))
        spec = simple_spec(objects=(obj,))
        _, dets = generate(spec)
        for frame in frames_of(dets):
            for d in frame:
                if 3 <= d.frame < 7:
                    assert d.score == pytest.approx(0.2, abs=1e-12)
                else:
                    assert d.score == 1.0

    def test_mean_iou_decreases_with_sigma(self):
        sigmas = [0.5, 1.5, 3.0, 6.0]
        means = []
        for sigma in sigmas:
            vals = []
            for seed in range(32):
                spec = simple_spec(seed=seed, noise=DetectorNoise(box_sigma=sigma))
                gt, dets = generate(spec)
                for gf, df in zip(frames_of(gt), frames_of(dets)):
                    for g, d in zip(gf, df):
                        vals.append(box_iou(g.box, d.box))
            means.append(np.mean(vals))
        for a, b in zip(means, means[1:]):
            assert b < a

    def test_false_positives_within_image(self):
        spec = simple_spec(noise=DetectorNoise(false_positive_rate=2.0))
        gt, dets = generate(spec)
        n_gt = sum(len(f) for f in frames_of(gt))
        n_det = sum(len(f) for f in frames_of(dets))
        assert n_det > n_gt
        for frame in frames_of(dets):
            for d in frame:
                assert 0 <= d.box.x1 and d.box.x2 <= spec.width
                assert 0 <= d.box.y1 and d.box.y2 <= spec.height


class TestRenderFeatures:
    def test_empty_scene_background_only(self):
        spec = simple_spec(objects=(), n_frames=4)
        pyr = render_features(spec, 0)
        fmap = pyr.levels[0][1]
        assert fmap.max() <= 0.02 + 1e-12

    def test_peak_translates_with_velocity(self):
        spec = simple_spec()
        obj = spec.objects[0]
        stride = spec.feature_strides[0]
        for frame in (0, 4):
            pyr = render_features(spec, frame)
            fmap = pyr.levels[0][1][..., 0]
            peak = np.unravel_index(np.argmax(fmap), fmap.shape)
            box = Box(*obj.box_at(frame))
            assert peak[1] == pytest.approx(box.cx / stride, abs=0.51)
            assert peak[0] == pytest.approx(box.cy / stride, abs=0.51)

    def test_two_objects_recoverable(self):
        spec = simple_spec()
        pyr = render_features(spec, 4)
        stride = spec.feature_strides[0]
        for i, obj in enumerate(spec.objects):
            fmap = pyr.levels[0][1][..., i % spec.feature_channels]
            box = Box(*obj.box_at(4))
            cy, cx = int(round(box.cy / stride)), int(round(box.cx / stride))
            h, w = fmap.shape
            y0, y1 = max(cy - 2, 0), min(cy + 3, h)
            x0, x1 = max(cx - 2, 0), min(cx + 3, w)
            region = fmap[y0:y1, x0:x1]
            peak = np.unravel_index(np.argmax(region), region.shape)
            assert abs((y0 + peak[0]) - box.cy / stride) <= 0.51
            assert abs((x0 + peak[1]) - box.cx / stride) <= 0.51

    def test_deterministic(self):
        spec = simple_spec()
        a = render_features(spec, 3).levels[0][1]
        b = render_features(spec, 3).levels[0][1]
        assert np.array_equal(a, b)

    def test_frame_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            render_features(simple_spec(), 99)


class TestScenarioIO:
    def test_json_round_trip(self, tmp_path):
        spec = preset_scenario("degraded", 7)
        p = tmp_path / "scenario.json"
        save_scenario(spec, p)
        loaded = load_scenario(p)
        assert loaded == spec

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text("{nope")
        with pytest.raises(ValueError, match="malformed scenario"):
            load_scenario(p)


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_scenario("nope")

    def test_clean_preset_noiseless(self):
        spec = preset_scenario("clean", 0)
        assert spec.noise == DetectorNoise()
        gt, dets = generate(spec)
        assert all(d.score == 1.0 for f in frames_of(dets) for d in f)

    def test_fast_preset_has_zero_iou_object(self):
        spec = preset_scenario("fast", 0)
        gt, _ = generate(spec)
        found = False
        for obj_id in range(len(spec.objects)):
            boxes = {d.frame: d.box for f in frames_of(gt) for d in f if d.track == obj_id}
            pairs = [(boxes[t], boxes[t + 1]) for t in boxes if t + 1 in boxes]
            if pairs and all(box_iou(a, b) == 0.0 for a, b in pairs):
                found = True
        assert found

    def test_degraded_preset_windows_hit_alive_frames(self):
        for seed in range(3):
            spec = preset_scenario("degraded", seed)
            assert any(o.degradations for o in spec.objects)
            for obj in spec.objects:
                for start, end, _ in obj.degradations:
                    assert start >= obj.first_frame
                    assert end <= obj.last_frame + 1
