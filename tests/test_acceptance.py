"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Absolute mAP values on synthetic scenes are not meaningful; the
ablation criteria check orderings only.
"""

import dataclasses
import math
import time

import numpy as np

from oracles import (
    Box,
    Detection,
    box_iou,
    brute_force_best_path,
    channels_first,
    channels_last,
    frames_of,
    naive_depthwise_correlate,
    reference_rescore,
    track_records,
    video_set,
)
from vodtrack.cli import main, run_variant
from vodtrack.evalio import load_detections, save_detections
from vodtrack.geometry import decode, encode
from vodtrack.linker import best_path, build_graph_seqnms, rescore_and_suppress
from vodtrack.pipeline import PipelineConfig
from vodtrack.synth import generate, preset_scenario
from vodtrack.tensor_ops import FeaturePyramid, depthwise_correlate, roi_align_full_avg
from vodtrack.tracker import (
    NoiseParams,
    TrackerConfig,
    head_forward,
    load_weights,
    save_weights,
    smooth_l1,
    smooth_l1_grad,
    synthesize_weights,
    track,
)


def report(name: str) -> None:
    print(f"\n[PASS] {name}")


def random_instance(rng, max_frames=6, max_boxes=5):
    n_frames = int(rng.integers(1, max_frames + 1))
    anchors = [(rng.uniform(0, 28, 2), int(rng.integers(0, 2))) for _ in range(3)]
    video = []
    for t in range(n_frames):
        frame = []
        for _ in range(int(rng.integers(0, max_boxes + 1))):
            if rng.uniform() < 0.7:
                (ax, ay), cls = anchors[int(rng.integers(len(anchors)))]
                cx, cy = ax + rng.uniform(-3, 3), ay + rng.uniform(-3, 3)
            else:
                cx, cy = rng.uniform(0, 40, 2)
                cls = int(rng.integers(0, 2))
            w, h = rng.uniform(6, 12, 2)
            frame.append(
                Detection(t, cls, float(rng.uniform(0.05, 1.0)), Box.from_center(cx, cy, w, h))
            )
        video.append(frame)
    return video


def test_criterion_1_linker_oracle_equivalence():
    """DP path and full re-scoring loop match brute force on 500 random instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        video = random_instance(rng)
        graph = build_graph_seqnms(video_set("v", video))
        scores = [[d.score for d in f] for f in video]
        edges = {
            (t, i): list(succ)
            for t, table in enumerate(graph.edges)
            for i, succ in table.items()
        }

        got = best_path(graph, scores)
        want_path, want_score = brute_force_best_path(scores, edges)
        if want_path is None:
            assert got is None
        else:
            assert got.path_score == want_score
            assert list(got.members) == want_path

        rescored = frames_of(rescore_and_suppress(video_set("v", video), graph, 0.45))
        ref = reference_rescore(
            [[(d.class_id, d.score, d.box.corners()) for d in f] for f in video],
            edges,
            0.45,
        )
        got_scores = {}
        for t, frame in enumerate(rescored):
            for d in frame:
                idx = next(
                    i for i, orig in enumerate(video[t])
                    if orig.box.corners() == d.box.corners()
                )
                got_scores[(t, idx)] = d.score
        assert set(got_scores) == set(ref)
        for key, value in ref.items():
            assert abs(got_scores[key] - value) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"criterion 1: linker oracle equivalence on 500 instances ({elapsed:.2f}s)")


def dense_roi_align_oracle(feat, corners, out_h, out_w, stride, samples=64):
    """Dense midpoint sampling per cell-aligned piece; independent gather code."""
    c, fh, fw = feat.shape
    x1, y1, x2, y2 = (v / stride for v in corners)
    out = np.zeros((c, out_h, out_w))
    if x2 - x1 <= 0 or y2 - y1 <= 0:
        return out
    bin_w = (x2 - x1) / out_w
    bin_h = (y2 - y1) / out_h

    def gather(xs, ys):
        gx, gy = np.meshgrid(xs, ys)
        x0 = np.floor(gx).astype(int)
        y0 = np.floor(gy).astype(int)
        total = np.zeros((c,) + gx.shape)
        for dy in (0, 1):
            for dx in (0, 1):
                xi, yi = x0 + dx, y0 + dy
                inside = (xi >= 0) & (xi < fw) & (yi >= 0) & (yi < fh)
                weight = (gx - x0 if dx else x0 + 1 - gx) * (gy - y0 if dy else y0 + 1 - gy)
                vals = feat[:, np.clip(yi, 0, fh - 1), np.clip(xi, 0, fw - 1)]
                total += vals * np.where(inside, weight, 0.0)
        return total

    for by in range(out_h):
        for bx in range(out_w):
            bx0, bx1 = x1 + bx * bin_w, x1 + (bx + 1) * bin_w
            by0, by1 = y1 + by * bin_h, y1 + (by + 1) * bin_h
            xcuts = sorted({bx0, bx1} | {float(v) for v in range(math.ceil(bx0), math.floor(bx1) + 1) if bx0 < v < bx1})
            ycuts = sorted({by0, by1} | {float(v) for v in range(math.ceil(by0), math.floor(by1) + 1) if by0 < v < by1})
            acc = np.zeros(c)
            for i in range(len(xcuts) - 1):
                for j in range(len(ycuts) - 1):
                    pw, ph = xcuts[i + 1] - xcuts[i], ycuts[j + 1] - ycuts[j]
                    if pw <= 0 or ph <= 0:
                        continue
                    sx = xcuts[i] + pw * (np.arange(samples) + 0.5) / samples
                    sy = ycuts[j] + ph * (np.arange(samples) + 0.5) / samples
                    acc += gather(sx, sy).mean(axis=(1, 2)) * pw * ph
            out[:, by, bx] = acc / (bin_w * bin_h)
    return out


def test_criterion_2_kernel_oracle_equivalence():
    """Correlation and RoI pooling match independent dense oracles."""
    rng = np.random.default_rng(7171)
    for _ in range(100):
        c = int(rng.integers(1, 9))
        ht, wt = (int(v) for v in rng.integers(2, 6, 2))
        hs, ws = ht + int(rng.integers(0, 8)), wt + int(rng.integers(0, 8))
        template = rng.standard_normal((c, ht, wt))
        search = rng.standard_normal((c, hs, ws))
        got = channels_first(depthwise_correlate(channels_last(template), channels_last(search)))
        ref = naive_depthwise_correlate(template, search)
        assert np.max(np.abs(got - ref)) <= 1e-9

    rng = np.random.default_rng(9292)
    checked_outside = 0
    for trial in range(100):
        c = int(rng.integers(1, 4))
        fh, fw = (int(v) for v in rng.integers(5, 10, 2))
        feat = rng.random((c, fh, fw))
        if trial % 10 == 8:  # partially outside
            roi = Box.from_center(-1.0, fh / 2, fw * 0.8, fh * 0.8)
            checked_outside += 1
        elif trial % 10 == 9:  # fully outside
            roi = Box.from_center(fw + 20, fh + 20, 5, 4)
            checked_outside += 1
        else:
            w, h = rng.uniform(0.5, fw, 2)
            cx = rng.uniform(-2, fw + 2)
            cy = rng.uniform(-2, fh + 2)
            roi = Box.from_center(cx, cy, w, h)
        out_h, out_w = (int(v) for v in rng.integers(1, 8, 2))
        got = channels_first(roi_align_full_avg(channels_last(feat), [roi.corners()], out_h, out_w, 1.0)[0])
        ref = dense_roi_align_oracle(feat, roi.corners(), out_h, out_w, 1.0)
        assert np.allclose(got, ref, rtol=1e-6, atol=1e-12)
    assert checked_outside == 20
    report("criterion 2: correlation and RoI pooling match dense oracles (100 + 100 fixtures)")


def test_criterion_3_round_trip_laws(tmp_path):
    """Encode/decode inverses; detection and weights files round-trip bytes."""
    rng = np.random.default_rng(33)
    for _ in range(10_000):
        bw, bh, gw, gh = rng.uniform(0.5, 40, 4)
        b = Box.from_center(rng.uniform(-50, 50), rng.uniform(-50, 50), bw, bh)
        g = Box.from_center(rng.uniform(-50, 50), rng.uniform(-50, 50), gw, gh)
        b, g = np.array([b.corners()]), np.array([g.corners()])
        back = decode(b, encode(b, g))
        for got, want in zip(back[0], g[0]):
            assert abs(got - want) <= 1e-9

    gt0, dets0 = generate(preset_scenario("degraded", 0))
    gt1, _ = generate(preset_scenario("degraded", 1))
    for payload in (gt0, dets0, [gt0, gt1]):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_detections(payload, p1)
        save_detections(load_detections(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    w = synthesize_weights(4, TrackerConfig(), seed=5, shared_head_channels=16)
    w1, w2 = tmp_path / "w1.tensors", tmp_path / "w2.tensors"
    save_weights(w, w1)
    save_weights(load_weights(w1), w2)
    assert w1.read_bytes() == w2.read_bytes()
    report("criterion 3: encode/decode inverse on 10000 pairs; files round-trip byte-identical")


def test_criterion_4_head_contract():
    """Zero-FC head is the identity map at quality 0.5; shapes and gradients check out."""
    cfg = TrackerConfig()
    w = synthesize_weights(3, cfg, seed=41, shared_head_channels=256)
    wz = dataclasses.replace(
        w,
        box_weight=np.zeros_like(w.box_weight),
        box_bias=np.zeros(4),
        score_weight=np.zeros_like(w.score_weight),
        score_bias=np.zeros(1),
    )
    rng = np.random.default_rng(43)
    pyr_t = FeaturePyramid(((8, channels_last(rng.random((3, 28, 28)))),), 224, 224)
    pyr_t1 = FeaturePyramid(((8, channels_last(rng.random((3, 28, 28)))),), 224, 224)
    dets = [
        Detection(0, 0, 0.9, Box(30.5, 41.25, 95.25, 103.0)),
        Detection(0, 1, 0.7, Box(120.0, 60.0, 180.0, 140.0)),
    ]
    head = wz.fold(cfg.corr_size, cfg.corr_size)
    preds = track_records(lambda boxes, frame, class_id: track(pyr_t, pyr_t1, boxes, head, cfg), dets)
    for det, pred in zip(dets, preds):
        assert pred.predicted_box.corners() == det.box.corners()
        assert pred.quality == 0.5

    template = channels_last(rng.random((3, 7, 7)))
    search = channels_last(rng.random((3, 21, 21)))
    _, _, inter = head_forward(template, search, w.fold(15, 15, keep_conv=True), return_intermediates=True)
    assert inter["template"].shape == (7, 7, 3)
    assert inter["search"].shape == (21, 21, 3)
    assert inter["correlation"].shape == (15, 15, 3)
    assert inter["shared"].shape == (15, 15, 256)

    h = 1e-6
    xs = np.random.default_rng(47).uniform(-3, 3, 1000)
    xs = xs[np.abs(np.abs(xs) - 1.0) > 2 * h]
    assert len(xs) >= 990
    for x in xs:
        fd = (smooth_l1(x + h) - smooth_l1(x - h)) / (2 * h)
        assert abs(smooth_l1_grad(x) - fd) <= 1e-4
    report("criterion 4: zero-FC identity + sigmoid(0); 7/21/15/15x15x256 shapes; smooth-L1 gradient")


ORACLE_NOISE = NoiseParams(center_sigma=1.0, size_sigma=0.02, failure_prob=0.25)
FAST_NOISE = NoiseParams(center_sigma=1.0, size_sigma=0.02, failure_prob=0.3)


def test_criterion_5_ablation_ordering():
    """detector < detector+Seq-NMS < TFD(0.7)+Seq-NMS on 20 seeds; T_merge 0.7 >= 0.3 on >= 15."""
    cfg = PipelineConfig()
    cfg_t3 = dataclasses.replace(cfg, t_merge=0.3)
    t_merge_wins = 0
    for seed in range(20):
        spec = preset_scenario("degraded", seed)
        detector, _ = run_variant(spec, "detector", cfg, ORACLE_NOISE)
        seqnms, _ = run_variant(spec, "seqnms", cfg, ORACLE_NOISE)
        tfd_07, _ = run_variant(spec, "tfd+seqnms", cfg, ORACLE_NOISE)
        tfd_03, _ = run_variant(spec, "tfd+seqnms", cfg_t3, ORACLE_NOISE)
        assert detector.mean_ap < seqnms.mean_ap < tfd_07.mean_ap, (
            f"seed {seed}: {detector.mean_ap:.4f} / {seqnms.mean_ap:.4f} / {tfd_07.mean_ap:.4f}"
        )
        if tfd_07.mean_ap >= tfd_03.mean_ap:
            t_merge_wins += 1
    assert t_merge_wins >= 15, f"T_merge 0.7 >= 0.3 on only {t_merge_wins}/20 seeds"
    report(
        "criterion 5: ablation ordering detector < +Seq-NMS < TFD(0.7)+Seq-NMS on 20/20 seeds; "
        f"T_merge 0.7 >= 0.3 on {t_merge_wins}/20"
    )


def test_criterion_6_fast_motion_separation():
    """TFD+Seq-Track-NMS beats TFD+Seq-NMS on every fast-motion seed."""
    cfg = PipelineConfig()
    for seed in range(10):
        spec = preset_scenario("fast", seed)
        gt, _ = generate(spec)
        has_zero_iou_object = False
        for obj_id in range(len(spec.objects)):
            boxes = {d.frame: d.box for f in frames_of(gt) for d in f if d.track == obj_id}
            pairs = [(boxes[t], boxes[t + 1]) for t in boxes if t + 1 in boxes]
            if pairs and all(box_iou(a, b) == 0.0 for a, b in pairs):
                has_zero_iou_object = True
        assert has_zero_iou_object, f"seed {seed}: no zero-overlap object"

        seqnms, _ = run_variant(spec, "tfd+seqnms", cfg, FAST_NOISE)
        seqtrack, _ = run_variant(spec, "tfd+seqtracknms", cfg, FAST_NOISE)
        assert seqtrack.mean_ap > seqnms.mean_ap, (
            f"seed {seed}: seqtrack {seqtrack.mean_ap:.4f} <= seqnms {seqnms.mean_ap:.4f}"
        )
    report("criterion 6: TFD+Seq-Track-NMS > TFD+Seq-NMS on 10/10 fast-motion seeds")


def test_criterion_7_noiseless_limit():
    """Zero-noise scenario evaluates to exactly 1.0 under every variant."""
    cfg = PipelineConfig()
    spec = preset_scenario("clean", 0)
    for variant in ("detector", "seqnms", "tfd+seqnms", "tfd+seqtracknms"):
        result, _ = run_variant(spec, variant, cfg, NoiseParams())
        assert result.mean_ap == 1.0, f"{variant}: {result.mean_ap}"
    report("criterion 7: noiseless scenario gives mAP exactly 1.0 under all 4 variants")


def test_criterion_8_run_determinism(tmp_path):
    """Re-running from a saved manifest reproduces byte-identical outputs, 3 times."""
    first = tmp_path / "r0"
    rc = main([
        "run", "--preset", "degraded", "--seed", "11", "--variant", "tfd+seqtracknms",
        "--noise-center", "1.0", "--noise-failure", "0.25", "--out-dir", str(first),
    ])
    assert rc == 0
    data_files = ("scenario.json", "gt.jsonl", "dets.jsonl", "merged.jsonl",
                  "preds.jsonl", "final.jsonl", "result.json")
    reference = {name: (first / name).read_bytes() for name in data_files}
    for rep in range(3):
        out = tmp_path / f"r{rep + 1}"
        rc = main(["run", "--from-manifest", str(first / "manifest.json"),
                   "--out-dir", str(out)])
        assert rc == 0
        for name in data_files:
            assert (out / name).read_bytes() == reference[name], f"{name} differs (rep {rep})"
    report("criterion 8: manifest replay byte-identical across 3 repetitions")
