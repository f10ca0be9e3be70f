"""Command-line front end composing the detection, tracking, and linking stages."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .detections import Detection
from .evalio import (
    VideoDetectionSet,
    align_predictions,
    evaluate_map,
    load_detections,
    load_features,
    load_predictions,
    load_single_video,
    save_detections,
    save_predictions,
)
from .geometry import iou
from .linker import build_graph_seqnms, build_graph_seqtrack, rescore_and_suppress
from .pipeline import PipelineConfig, final_detections, run_video
from .synth import ScenarioSpec, generate, load_scenario, preset_scenario, save_scenario
from .tracker import (
    NoiseParams,
    TrackerConfig,
    TrackPrediction,
    fuse_for_head,
    load_weights,
    make_oracle_track_fn,
    oracle_track,
    track,
)

VARIANTS = ("detector", "seqnms", "tfd+seqnms", "tfd+seqtracknms")


def _fail(stage: str, message: str) -> int:
    print(f"error [{stage}]: {message}", file=sys.stderr)
    return 1


def _write_manifest(path, command: str, argv: list[str], outputs: dict, timings: dict, extra: dict | None = None) -> None:
    manifest = {
        "tool": "vodtrack",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "outputs": outputs,
        "timings_ms": {k: round(v * 1000.0, 3) for k, v in timings.items()},
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_result(path, label: str | None, result) -> None:
    payload = {
        "variant": label,
        "map": result.mean_ap,
        "iou_thresh": result.iou_thresh,
        "per_class_ap": {str(c): ap for c, ap in sorted(result.per_class_ap.items())},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _scenario_from_args(args) -> ScenarioSpec:
    if args.spec:
        return load_scenario(args.spec)
    return preset_scenario(args.preset, args.seed)


def _config_from_args(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    overrides = {}
    for flag, field in (
        ("detect_score", "detect_to_track_score"),
        ("track_quality", "track_quality_min"),
        ("track_nms", "track_nms_iou"),
        ("t_merge", "t_merge"),
        ("final_score", "final_score_min"),
        ("final_nms", "final_nms_iou"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
    return cfg


def _noise_from_args(args) -> NoiseParams:
    return NoiseParams(
        center_sigma=args.noise_center,
        size_sigma=args.noise_size,
        failure_prob=args.noise_failure,
    )


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file (PipelineConfig field names)")
    p.add_argument("--detect-score", type=float, dest="detect_score")
    p.add_argument("--track-quality", type=float, dest="track_quality")
    p.add_argument("--track-nms", type=float, dest="track_nms")
    p.add_argument("--t-merge", type=float, dest="t_merge")
    p.add_argument("--final-score", type=float, dest="final_score")
    p.add_argument("--final-nms", type=float, dest="final_nms")


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="scenario JSON file")
    p.add_argument("--preset", choices=("clean", "degraded", "fast"), default="degraded")
    p.add_argument("--seed", type=int, default=0, help="preset seed (ignored with --spec)")


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise-center", type=float, default=0.0, help="oracle center jitter sigma, px")
    p.add_argument("--noise-size", type=float, default=0.0, help="oracle log-size jitter sigma")
    p.add_argument("--noise-failure", type=float, default=0.0, help="oracle track-failure probability")
    p.add_argument("--oracle-seed", type=int, default=0)


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--oracle", action="store_true", help="use the ground-truth oracle tracker")
    p.add_argument("--gt", help="ground-truth detections (required with --oracle)")
    _add_noise_flags(p)


def _add_manifest_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--manifest", help="write a run manifest JSON to this path")


def make_replay_track_fn(stored: dict[int, list]):
    """Replay file predictions: candidates claim the stored prediction whose
    source box they overlap most (at 0.5 IoU or better), each at most once.
    Unclaimed candidates come back with zero quality and are filtered out."""

    def track_fn(candidates: list[Detection]) -> list[TrackPrediction]:
        out = []
        for det in candidates:
            entries = stored.get(det.frame, [])
            best_iou, best_pos = 0.5, None
            for pos, (_, pred) in enumerate(entries):
                v = iou(det.box, pred.source.box)
                if v >= best_iou:
                    best_iou, best_pos = v, pos
            if best_pos is None:
                out.append(TrackPrediction(det, det.box, 0.0))
            else:
                _, pred = entries.pop(best_pos)
                out.append(TrackPrediction(det, pred.predicted_box, pred.quality))
        return out

    return track_fn


def cmd_synth_gen(args, argv) -> int:
    timings = {}
    t0 = time.perf_counter()
    spec = _scenario_from_args(args)
    gt, dets = generate(spec)
    timings["generate"] = time.perf_counter() - t0
    save_detections(gt, args.out_gt)
    save_detections(dets, args.out_dets)
    if args.out_spec:
        save_scenario(spec, args.out_spec)
    outputs = {"gt": args.out_gt, "dets": args.out_dets}
    if args.manifest:
        _write_manifest(args.manifest, "synth-gen", argv, outputs, timings, {"seed": spec.seed})
    print(f"wrote {args.out_gt} ({sum(len(f) for f in gt.frames)} gt boxes), "
          f"{args.out_dets} ({sum(len(f) for f in dets.frames)} detections)")
    return 0


def cmd_track(args, argv) -> int:
    vds = load_single_video(args.dets)
    timings = {}
    t0 = time.perf_counter()
    if args.oracle:
        if not args.gt:
            raise ValueError("--oracle requires --gt")
        gt = load_single_video(args.gt)
        noise = _noise_from_args(args)
        preds_per_frame = [
            oracle_track(list(frame), gt, noise, args.oracle_seed)
            for frame in vds.frames
        ]
    else:
        if not (args.weights and args.features_dir):
            raise ValueError("provide --weights and --features-dir, or --oracle")
        weights = load_weights(args.weights)
        cfg = TrackerConfig(
            k=args.k, template_pool=args.template_pool, search_pool=args.search_pool,
            fuse_stride=args.fuse_stride,
        )
        feat_dir = Path(args.features_dir)

        def pyramid(t: int):
            fp = feat_dir / f"frame_{t}.feat"
            if not fp.exists():
                raise ValueError(f"missing feature file {fp}")
            return fuse_for_head(load_features(fp), cfg)

        # Each frame is fused once, and two fused maps are held at a time:
        # frame t and frame t+1.
        current = pyramid(0)
        preds_per_frame = []
        for t in range(vds.n_frames - 1):
            following = pyramid(t + 1)
            preds_per_frame.append(track(current, following, list(vds.frames[t]), weights, cfg))
            current = following
    timings["track"] = time.perf_counter() - t0
    save_predictions(preds_per_frame, vds.video, args.out)
    if args.manifest:
        _write_manifest(args.manifest, "track", argv, {"preds": args.out}, timings)
    n = sum(len(p) for p in preds_per_frame)
    print(f"wrote {args.out} ({n} predictions over {len(preds_per_frame)} frames)")
    return 0


def cmd_tfd(args, argv) -> int:
    vds = load_single_video(args.dets)
    cfg = _config_from_args(args)
    if args.oracle:
        if not args.gt:
            raise ValueError("--oracle requires --gt")
        gt = load_single_video(args.gt)
        track_fn = make_oracle_track_fn(gt, _noise_from_args(args), args.oracle_seed)
    elif args.preds:
        stored = load_predictions(args.preds).get(vds.video, {})
        track_fn = make_replay_track_fn(stored)
    else:
        raise ValueError("provide --preds or --oracle")

    timings = {}
    t0 = time.perf_counter()
    merged, preds = run_video(vds.frames, track_fn, cfg)
    timings["pipeline"] = time.perf_counter() - t0

    save_detections(VideoDetectionSet(vds.video, merged), args.out)
    outputs = {"merged": args.out}
    if args.out_preds:
        save_predictions(preds, vds.video, args.out_preds)
        outputs["preds"] = args.out_preds
    if args.manifest:
        _write_manifest(args.manifest, "tfd", argv, outputs, timings)
    print(f"wrote {args.out} ({sum(len(f) for f in merged)} merged detections)")
    return 0


def cmd_link(args, argv) -> int:
    sets = load_detections(args.dets)
    preds_by_video = load_predictions(args.preds) if args.preds else {}
    if args.mode == "seqtrack" and not args.preds:
        raise ValueError("--mode seqtrack requires --preds")

    timings = {}
    t0 = time.perf_counter()
    out_sets = []
    for vds in sets:
        if args.score_min > 0.0:
            vds = VideoDetectionSet(
                vds.video,
                tuple(
                    tuple(d for d in f if d.score >= args.score_min) for f in vds.frames
                ),
            )
        video = [list(f) for f in vds.frames]
        if args.mode == "seqnms":
            graph = build_graph_seqnms(video, args.link_iou)
        else:
            aligned = align_predictions(vds, preds_by_video.get(vds.video, {}))
            graph = build_graph_seqtrack(video, aligned, args.link_iou)
        rescored = rescore_and_suppress(video, graph, args.mode, args.nms_iou)
        out_sets.append(VideoDetectionSet(vds.video, rescored))
    timings["link"] = time.perf_counter() - t0
    save_detections(out_sets, args.out)
    if args.manifest:
        _write_manifest(args.manifest, "link", argv, {"linked": args.out}, timings)
    total = sum(len(f) for v in out_sets for f in v.frames)
    print(f"wrote {args.out} ({total} re-scored detections, mode {args.mode})")
    return 0


def cmd_eval(args, argv) -> int:
    preds = load_detections(args.preds)
    gt = load_detections(args.gt)
    timings = {}
    t0 = time.perf_counter()
    result = evaluate_map(preds, gt, args.iou)
    timings["eval"] = time.perf_counter() - t0

    print(f"{'class':>8}  {'AP':>8}")
    for c in sorted(result.per_class_ap):
        print(f"{c:>8}  {result.per_class_ap[c]:>8.4f}")
    print(f"{'mAP':>8}  {result.mean_ap:>8.4f}   (IoU >= {result.iou_thresh})")
    if args.out:
        _write_result(args.out, args.label, result)
    if args.manifest:
        _write_manifest(args.manifest, "eval", argv, {"result": args.out}, timings)
    return 0


def run_variant(spec, variant: str, cfg: PipelineConfig, noise: NoiseParams,
                oracle_seed: int = 0, link_iou: float = 0.5, eval_iou: float = 0.5):
    """Generate a scene, run one ablation variant on it and evaluate the result.

    Returns ``(EvalResult, artifacts)``. ``artifacts`` holds the scene's
    ``gt`` and ``dets``, the evaluated ``final`` set, for the tfd variants
    the ``merged`` set and per-frame ``preds``, and ``timings`` of the
    generate, variant and eval stages in seconds.
    """
    timings = {}
    t0 = time.perf_counter()
    gt, dets = generate(spec)
    timings["generate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    artifacts = {"gt": gt, "dets": dets, "timings": timings}
    frames = [list(f) for f in dets.frames]
    if variant == "detector":
        final = final_detections(frames, cfg)
    elif variant == "seqnms":
        strong = [[d for d in f if d.score >= cfg.final_score_min] for f in frames]
        graph = build_graph_seqnms(strong, link_iou)
        final = rescore_and_suppress(strong, graph, "seqnms", cfg.final_nms_iou)
    else:
        track_fn = make_oracle_track_fn(gt, noise, oracle_seed)
        merged, preds = run_video(frames, track_fn, cfg)
        artifacts["merged"] = VideoDetectionSet(spec.video, merged)
        artifacts["preds"] = preds
        if variant == "tfd+seqnms":
            graph = build_graph_seqnms(merged, link_iou)
            final = rescore_and_suppress(merged, graph, "seqnms", cfg.final_nms_iou)
        elif variant == "tfd+seqtracknms":
            graph = build_graph_seqtrack(merged, preds, link_iou)
            final = rescore_and_suppress(merged, graph, "seqtrack", cfg.final_nms_iou)
        else:
            raise ValueError(f"unknown variant {variant!r}")
    artifacts["final"] = VideoDetectionSet(spec.video, final)
    timings["variant"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = evaluate_map(artifacts["final"], gt, eval_iou)
    timings["eval"] = time.perf_counter() - t0
    return result, artifacts


def cmd_run(args, argv) -> int:
    if args.from_manifest:
        with open(args.from_manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("command") != "run":
            raise ValueError(f"{args.from_manifest}: not a run manifest")
        replay_argv = [a for a in manifest["argv"]]
        # Drop any previous --out-dir / --from-manifest and install the new target.
        replay_argv = _strip_flag(replay_argv, "--out-dir")
        replay_argv = _strip_flag(replay_argv, "--from-manifest")
        replay_argv += ["--out-dir", args.out_dir]
        return main(replay_argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = _scenario_from_args(args)
    result, artifacts = run_variant(
        spec, args.variant, _config_from_args(args), _noise_from_args(args),
        args.oracle_seed, args.link_iou, args.iou,
    )
    names = ["scenario.json", "gt.jsonl", "dets.jsonl", "final.jsonl", "result.json"]
    save_scenario(spec, out_dir / "scenario.json")
    for name in ("gt", "dets", "final"):
        save_detections(artifacts[name], out_dir / f"{name}.jsonl")
    _write_result(out_dir / "result.json", args.variant, result)
    if "merged" in artifacts:
        save_detections(artifacts["merged"], out_dir / "merged.jsonl")
        save_predictions(artifacts["preds"], spec.video, out_dir / "preds.jsonl")
        names += ["merged.jsonl", "preds.jsonl"]
    outputs = {Path(name).stem: str(out_dir / name) for name in names}
    _write_manifest(
        out_dir / "manifest.json", "run", argv, outputs, artifacts["timings"],
        {"variant": args.variant, "seed": spec.seed},
    )
    print(f"{args.variant}: mAP {result.mean_ap:.4f}  -> {out_dir}")
    return 0


def _strip_flag(argv: list[str], flag: str) -> list[str]:
    out = []
    skip = False
    for a in argv:
        if skip:
            skip = False
            continue
        if a == flag:
            skip = True
            continue
        out.append(a)
    return out


def cmd_plot(args, argv) -> int:
    rows = []
    for path in args.results:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        variant = data.get("variant") or Path(path).stem
        rows.append((variant, data["map"]))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("variant,map\n")
        for variant, value in rows:
            fh.write(f"{variant},{value}\n")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_replay(args, argv) -> int:
    with open(args.manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if "argv" not in manifest:
        raise ValueError(f"{args.manifest_path}: manifest has no recorded argv")
    return main(list(manifest["argv"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vodtrack",
        description="Video object detection post-processing: tracking-first merge and tubelet re-scoring.",
    )
    parser.add_argument("--version", action="version", version=f"vodtrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic scenario's ground truth and detections")
    _add_scenario_flags(p)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-dets", required=True)
    p.add_argument("--out-spec", help="also write the resolved scenario JSON")
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("track", help="predict next-frame boxes for every detection")
    p.add_argument("--dets", required=True)
    p.add_argument("--weights", help="tracker weights container")
    p.add_argument("--features-dir", help="directory of frame_<n>.feat pyramids")
    p.add_argument("--k", type=float, default=3.0)
    p.add_argument("--template-pool", type=int, default=7)
    p.add_argument("--search-pool", type=int, default=21)
    p.add_argument("--fuse-stride", type=int)
    _add_oracle_flags(p)
    p.add_argument("--out", required=True)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("tfd", help="tracking-first merge of detections and tracks over a video")
    p.add_argument("--dets", required=True)
    p.add_argument("--preds", help="replay predictions from a track output file")
    _add_oracle_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="merged detections output")
    p.add_argument("--out-preds", help="also write the pipeline's track predictions")
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_tfd)

    p = sub.add_parser("link", help="tubelet linking and averaging re-scoring")
    p.add_argument("--dets", required=True)
    p.add_argument("--preds", help="predictions aligned with --dets (needed for seqtrack)")
    p.add_argument("--mode", choices=("seqnms", "seqtrack"), required=True)
    p.add_argument("--link-iou", type=float, default=0.5)
    p.add_argument("--nms-iou", type=float, default=0.45)
    p.add_argument("--score-min", type=float, default=0.0,
                   help="drop detections below this score before linking")
    p.add_argument("--out", required=True)
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("eval", help="mean average precision of predictions against ground truth")
    p.add_argument("--preds", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--out", help="write the result as JSON")
    p.add_argument("--label", help="variant label stored in the result JSON")
    _add_manifest_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="full pipeline for one ablation variant")
    _add_scenario_flags(p)
    p.add_argument("--variant", choices=VARIANTS, default="tfd+seqnms")
    _add_config_flags(p)
    p.add_argument("--link-iou", type=float, default=0.5)
    p.add_argument("--iou", type=float, default=0.5, help="evaluation IoU threshold")
    _add_noise_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--from-manifest", help="re-run a recorded run manifest")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plot", help="emit a variant,map CSV from result JSON files")
    p.add_argument("--results", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("replay", help="re-run any subcommand from its manifest")
    p.add_argument("manifest_path")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ValueError, OSError) as exc:
        return _fail(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
