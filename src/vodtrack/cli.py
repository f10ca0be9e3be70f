"""Command-line front end composing the detection, tracking, and linking stages.

``run`` and the staged commands compose the same stage functions (``run_video``,
``link_frames``, ``evaluate_map``), so a ``run`` and its staged chain cannot drift apart.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .evalio import (
    EVAL_IOU_DEFAULT,
    VideoDetectionSet,
    VideoPredictions,
    _value,
    evaluate_map,
    load_detections,
    load_features,
    load_predictions,
    load_single_video,
    read_json_object,
    save_detections,
    save_predictions,
    write_json_object,
)
from .geometry import iou
from .linker import LINK_IOU_DEFAULT, build_graph_seqnms, build_graph_seqtrack, rescore_and_suppress
from .pipeline import PipelineConfig, final_detections, run_video
from .synth import PRESETS, ScenarioSpec, generate, load_scenario, preset_scenario, save_scenario
from .tracker import (
    MATCH_IOU,
    NoiseParams,
    TrackerConfig,
    best_match,
    fuse_for_head,
    load_weights,
    make_oracle_track_fn,
    track,
)

VARIANTS = ("detector", "seqnms", "tfd+seqnms", "tfd+seqtracknms")


def _timed(timings: dict, key: str, fn, *args):
    """Call ``fn(*args)`` and add its wall time in seconds to ``timings[key]``."""
    t0 = time.perf_counter()
    result = fn(*args)
    timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
    return result


def _write_manifest(path, args, argv: list[str], outputs: dict, timings: dict, **extra) -> None:
    """Record the command, its argv, outputs and stage timings; no-op without a path."""
    if path is None:
        return
    manifest = {
        "tool": "vodtrack",
        "version": __version__,
        "command": args.command,
        "argv": list(argv),
        "outputs": outputs,
        "timings_ms": {k: round(v * 1000.0, 3) for k, v in timings.items()},
        **extra,
    }
    write_json_object(manifest, path)


def _write_result(path, label: str | None, result) -> None:
    write_json_object({
        "variant": label,
        "map": result.mean_ap,
        "iou_thresh": result.iou_thresh,
        "per_class_ap": {str(c): ap for c, ap in sorted(result.per_class_ap.items())},
    }, path)


def _scenario_from_args(args) -> ScenarioSpec:
    if args.spec:
        return load_scenario(args.spec)
    return preset_scenario(args.preset, args.seed)


# The flag that sets each PipelineConfig and NoiseParams field. The merge reads the first four
# thresholds, the detector filter and the link stage the last two.
_MERGE_FLAGS = {
    "detect_to_track_score": "--detect-score",
    "track_quality_min": "--track-quality",
    "track_nms_iou": "--track-nms",
    "t_merge": "--t-merge",
}
_CONFIG_FLAGS = {**_MERGE_FLAGS, "final_score_min": "--final-score", "final_nms_iou": "--final-nms"}
_NOISE_FLAGS = {"center_sigma": "--noise-center", "size_sigma": "--noise-size", "failure_prob": "--noise-failure"}
_ORACLE_FLAGS = (*_NOISE_FLAGS.values(), "--oracle-seed")

# Each subcommand's modes, with the flags each does not read and those it needs. "with X [V]" holds
# when flag X is set (to V), "without X" when it is not. A flag is given if argv holds it or an
# abbreviation of it, and is named as typed.
_MODES = {
    "synth-gen": {"with --spec": (("--preset", "--seed"), ())},
    "track": {"with --oracle": (("--weights", "--features-dir", "--template-pool", "--search-pool", "--fuse-stride"),
                                ("--gt",)),
              "without --oracle": (("--gt", *_ORACLE_FLAGS), ("--weights", "--features-dir"))},
    "tfd": {"with --oracle": (("--preds",), ("--gt",)), "without --oracle": (("--gt", *_ORACLE_FLAGS), ("--preds",))},
    "link": {"with --mode seqnms": (("--preds",), ()), "with --mode seqtrack": ((), ("--preds",))},
    "eval": {"without --out": (("--label",), ())},
    "run": {"with --from-manifest": (("--spec", "--preset", "--seed", "--variant", *_CONFIG_FLAGS.values(),
                                      "--link-iou", "--iou", *_ORACLE_FLAGS), ()),
            "with --spec": (("--preset", "--seed"), ()),
            "with --variant detector": ((*_MERGE_FLAGS.values(), "--link-iou", *_ORACLE_FLAGS), ()),
            "with --variant seqnms": ((*_MERGE_FLAGS.values(), *_ORACLE_FLAGS), ()),
            "with --variant tfd+seqnms": (("--final-score",), ()),
            "with --variant tfd+seqtracknms": (("--final-score",), ())},
}


def _from_flags(cls, flags: dict[str, str], args):
    """``cls`` with each field of ``flags`` (field to flag) that ``args`` sets, the rest at their
    defaults; a value that ``cls`` rejects raises a ``ValueError`` naming its flag."""
    values = {name: getattr(args, name) for name in flags if getattr(args, name, None) is not None}
    for name, value in values.items():
        try:
            cls(**{name: value})
        except ValueError as exc:
            raise ValueError(f"{flags[name]}: {exc}") from None
    return cls(**values)


def _check_args(args, argv: list[str]) -> None:
    """Check the flags before any data file is read or directory made.

    In order: the values ``args.pipeline``, ``.noise`` and ``.tracker`` are built, then ``_MODES``
    is applied.
    """
    options, typed = args.parser._option_string_actions, {}
    for token in argv:
        text = token.split("=", 1)[0]
        if text.startswith("--") and len(text) > 2:
            typed.setdefault(min((o for o in options if o.startswith(text)), key=len, default=text), text)
    if "t_merge" in args:
        args.pipeline = _from_flags(PipelineConfig, _CONFIG_FLAGS, args)
    if "center_sigma" in args:
        args.noise = _from_flags(NoiseParams, _NOISE_FLAGS, args)
    if "template_pool" in args:
        try:
            args.tracker = TrackerConfig(args.template_pool, args.search_pool, args.fuse_stride)
        except ValueError as exc:
            raise ValueError(f"--template-pool, --search-pool, --fuse-stride: {exc}") from None
    for mode, (unread, needed) in _MODES.get(args.command, {}).items():
        flag, *value = mode.split()[1:]
        setting = getattr(args, options[flag].dest)
        if (setting == value[0] if value else bool(setting)) != mode.startswith("with "):
            continue
        given = [text for option, text in typed.items() if option in unread]
        if given:
            raise ValueError(f"{given[0]} is not read {mode}")
        missing = [option for option in needed if option not in typed]
        if missing:
            raise ValueError(f"{mode[5:]} requires {missing[0]}" if mode.startswith("with ") else
                             f"provide {' and '.join(needed)}{',' if len(needed) > 1 else ''} or {flag}")


def _add_threshold_flags(p: argparse.ArgumentParser, flags: dict[str, str]) -> None:
    for name, flag in flags.items():
        p.add_argument(flag, type=float, dest=name)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="scenario JSON file")
    p.add_argument("--preset", choices=tuple(PRESETS), default="degraded")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="preset seed (not read with --spec)")


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _unit_interval(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1], got {text}")
    return value


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise-center", type=float, dest="center_sigma", help="oracle center jitter sigma, px")
    p.add_argument("--noise-size", type=float, dest="size_sigma", help="oracle log-size jitter sigma")
    p.add_argument("--noise-failure", type=float, dest="failure_prob", help="oracle track-failure probability")
    p.add_argument("--oracle-seed", type=_non_negative_int, default=0, help="oracle noise seed")


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--oracle", action="store_true", help="use the ground-truth oracle tracker")
    p.add_argument("--gt", help="ground-truth detections (required with --oracle)")
    _add_noise_flags(p)


def make_replay_track_fn(stored: VideoPredictions):
    """Replay file predictions: in candidate order, each candidate claims the
    unclaimed stored prediction of its frame whose source box it overlaps most,
    by ``best_match``. Unclaimed candidates come back as themselves with zero
    quality and are filtered out. Each call takes one frame's boxes, reads that
    frame's column slices, and leaves ``stored`` as it was."""

    def track_fn(boxes: np.ndarray, frame: int, class_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not len(boxes):
            return np.zeros((0, 4)), np.zeros(0)
        rows = stored.dets.rows(frame)
        overlaps = iou(boxes, stored.dets.boxes[rows])
        stored_boxes, stored_quality = stored.boxes[rows], stored.quality[rows]
        predicted, quality = np.array(boxes, np.float64), np.zeros(len(boxes))
        for k, row in enumerate(overlaps):
            pos = best_match(row[None], MATCH_IOU)[0]
            if pos >= 0:
                overlaps[:, pos] = -np.inf  # claimed
                predicted[k], quality[k] = stored_boxes[pos], stored_quality[pos]
        return predicted, quality

    return track_fn


def link_frames(vds: VideoDetectionSet, preds: VideoPredictions | None, link_iou: float, nms_iou: float,
                score_min: float = 0.0) -> VideoDetectionSet:
    """The link stage on one video's columns: score gate, tubelet graph, re-scoring.

    Rows below ``score_min`` are dropped, each with its prediction. With
    ``preds`` (on ``vds``' rows) the graph is Seq-Track-NMS's, without it
    Seq-NMS's.
    """
    keep = vds.score >= score_min
    video = vds.select(keep)
    if preds is None:
        graph = build_graph_seqnms(video, link_iou)
    else:
        preds = VideoPredictions(video, preds.boxes[keep], preds.quality[keep])
        graph = build_graph_seqtrack(video, preds, link_iou)
    return rescore_and_suppress(video, graph, nms_iou)


def cmd_synth_gen(args, argv) -> int:
    timings = {}
    spec = _scenario_from_args(args)
    gt, dets = _timed(timings, "generate", generate, spec)
    _timed(timings, "save", save_detections, gt, args.out_gt)
    _timed(timings, "save", save_detections, dets, args.out_dets)
    if args.out_spec:
        save_scenario(spec, args.out_spec)
    outputs = {"gt": args.out_gt, "dets": args.out_dets}
    _write_manifest(args.manifest, args, argv, outputs, timings, seed=spec.seed)
    print(f"wrote {args.out_gt} ({len(gt.score)} gt boxes), {args.out_dets} ({len(dets.score)} detections)")
    return 0


def _oracle_track_fn(gt, noise: NoiseParams, seed: int):
    """``make_oracle_track_fn``'s ``track_fn``; a fault names the frame tracked and the noise flags."""
    oracle = make_oracle_track_fn(gt, noise, seed)

    def track_fn(boxes: np.ndarray, frame: int, class_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        try:
            return oracle(boxes, frame, class_id)
        except ValueError as exc:
            flags = ", ".join(f"{flag} {getattr(noise, name)!r}" for name, flag in _NOISE_FLAGS.items())
            raise ValueError(f"oracle on frame {frame} with {flags}: {exc}") from None

    return track_fn


def _track_frames(vds: VideoDetectionSet, args, oracle) -> VideoPredictions:
    """Predictions on ``vds``' rows from ``oracle`` (a ``track_fn``), if given, or the learned head,
    of every frame but the last."""
    boxes, quality = np.full((len(vds.score), 4), np.nan), np.full(len(vds.score), np.nan)
    if oracle:
        for t in range(vds.n_frames - 1):
            rows = vds.rows(t)
            try:
                boxes[rows], quality[rows] = oracle(vds.boxes[rows], t, vds.class_id[rows])
            except ValueError as exc:
                raise ValueError(f"--dets {args.dets}:{vds.lines[rows][0]}: {exc}") from None
        return VideoPredictions(vds, boxes, quality)
    weights, cfg = load_weights(args.weights), args.tracker
    try:
        head = weights.fold(cfg.corr_size, cfg.corr_size)
    except ValueError as exc:
        raise ValueError(f"{args.weights}: --template-pool {cfg.template_pool} and "
                         f"--search-pool {cfg.search_pool}: {exc}") from None
    del weights  # the fold holds its own copies: the file's arrays are freed before frame 0
    feat_dir = Path(args.features_dir)

    def feature_file(t: int) -> Path:
        return feat_dir / f"frame_{t}.feat"

    def pyramid(t: int):
        if not feature_file(t).exists():
            raise ValueError(f"missing feature file {feature_file(t)}")
        features = load_features(feature_file(t))
        try:
            return fuse_for_head(features, cfg)
        except ValueError as exc:
            stride = "" if cfg.fuse_stride is None else f"--fuse-stride {cfg.fuse_stride} on "
            raise ValueError(f"{stride}{feature_file(t)}: {exc}") from None

    # Each frame is fused once, and two fused maps are held at a time:
    # frame t and frame t+1. The weights must take frame 0's channels
    # before a second file is read.
    current = pyramid(0)
    channels, expected = current.levels[0][1].shape[-1], head.pre_template.kernel.shape[1]
    if channels != expected:
        raise ValueError(f"--weights {args.weights} on {feature_file(0)}: "
                         f"input has {channels} channels, kernel expects {expected}")
    for t in range(vds.n_frames - 1):
        following = pyramid(t + 1)
        rows = vds.rows(t)
        try:
            boxes[rows], quality[rows] = track(current, following, vds.boxes[rows], head, cfg)
        except ValueError as exc:
            raise ValueError(f"--weights {args.weights} on {feature_file(t)} and "
                             f"{feature_file(t + 1)}: {exc}") from None
        current = following
    return VideoPredictions(vds, boxes, quality)


def _load_gt(args, vds: VideoDetectionSet, timings: dict) -> VideoDetectionSet:
    """``--gt`` for the oracle, which follows objects by track id.

    It must hold the video of ``--dets`` (a fault names both files), and
    each record a track id that no other record of its frame holds (a
    fault names the line).
    """
    gt = _timed(timings, "load", load_single_video, args.gt)
    if gt.video != vds.video:
        raise ValueError(f"{args.gt}: ground truth of video {gt.video!r}, "
                         f"but --dets {args.dets} holds video {vds.video!r}")
    if not gt.has_track.all():
        raise ValueError(f"{args.gt}:{gt.lines[~gt.has_track].min()}: ground truth without a track id; "
                         f"the oracle follows objects by track")
    frame = gt.frame_index()
    order = np.lexsort((gt.lines, gt.track, frame))  # by frame, then track, then line
    frame_track = frame[order], gt.track[order]
    repeated = order[1:][np.logical_and(*(c[1:] == c[:-1] for c in frame_track))]
    if len(repeated):
        row = repeated[np.argmin(gt.lines[repeated])]
        raise ValueError(f"{args.gt}:{gt.lines[row]}: track {gt.track[row]} is held by another record "
                         f"of frame {frame[row]}; the oracle follows objects by track")
    return gt


def cmd_track(args, argv) -> int:
    timings = {}
    vds = _timed(timings, "load", load_single_video, args.dets)
    oracle = _oracle_track_fn(_load_gt(args, vds, timings), args.noise, args.oracle_seed) if args.oracle else None
    preds = _timed(timings, "track", _track_frames, vds, args, oracle)
    written = _timed(timings, "save", save_predictions, preds, args.out)
    _write_manifest(args.manifest, args, argv, {"preds": args.out}, timings)
    print(f"wrote {args.out} ({written} predictions)")
    return 0


def _load_preds(args, sets: list[VideoDetectionSet], timings: dict) -> dict[str, VideoPredictions]:
    """``--preds`` loaded against the ``--dets`` videos; a fault names both files."""
    try:
        return _timed(timings, "load", load_predictions, args.preds, sets)
    except ValueError as exc:
        raise ValueError(f"{exc} (--dets {args.dets})") from None


def cmd_tfd(args, argv) -> int:
    timings = {}
    vds = _timed(timings, "load", load_single_video, args.dets)
    if args.oracle:
        gt = _load_gt(args, vds, timings)
        # Walk every frame of --gt, as run walks its scene's: a detection file ends at its last detection.
        vds.offsets = np.pad(vds.offsets, (0, max(gt.n_frames - vds.n_frames, 0)), mode="edge")
        track_fn = _oracle_track_fn(gt, args.noise, args.oracle_seed)
    else:
        track_fn = make_replay_track_fn(_load_preds(args, [vds], timings)[vds.video])

    merged, preds = _timed(timings, "pipeline", run_video, vds, track_fn, args.pipeline)
    _timed(timings, "save", save_detections, merged, args.out)
    outputs = {"merged": args.out}
    if args.out_preds:
        _timed(timings, "save", save_predictions, preds, args.out_preds)
        outputs["preds"] = args.out_preds
    _write_manifest(args.manifest, args, argv, outputs, timings)
    print(f"wrote {args.out} ({len(merged.score)} merged detections)")
    return 0


def cmd_link(args, argv) -> int:
    timings = {}
    sets = _timed(timings, "load", load_detections, args.dets)
    preds_by_video = _load_preds(args, sets, timings) if args.preds else {}

    def link_videos() -> list[VideoDetectionSet]:
        return [link_frames(vds, preds_by_video.get(vds.video), args.link_iou, args.nms_iou, args.score_min)
                for vds in sets]

    out_sets = _timed(timings, "link", link_videos)
    _timed(timings, "save", save_detections, out_sets, args.out)
    _write_manifest(args.manifest, args, argv, {"linked": args.out}, timings)
    total = sum(len(v.score) for v in out_sets)
    print(f"wrote {args.out} ({total} re-scored detections, mode {args.mode})")
    return 0


def cmd_eval(args, argv) -> int:
    timings = {}
    preds = _timed(timings, "load", load_detections, args.preds)
    gt = _timed(timings, "load", load_detections, args.gt)
    try:
        result = _timed(timings, "eval", evaluate_map, preds, gt, args.iou)
    except ValueError as exc:
        raise ValueError(f"{exc} (--preds {args.preds}, --gt {args.gt})") from None

    print(f"{'class':>8}  {'AP':>8}")
    for c in sorted(result.per_class_ap):
        print(f"{c:>8}  {result.per_class_ap[c]:>8.4f}")
    print(f"{'mAP':>8}  {result.mean_ap:>8.4f}   (IoU >= {result.iou_thresh})")
    if args.out:
        _write_result(args.out, args.label, result)
    _write_manifest(args.manifest, args, argv, {"result": args.out}, timings)
    return 0


def run_variant(spec, variant: str, cfg: PipelineConfig, noise: NoiseParams,
                oracle_seed: int = 0, link_iou: float = LINK_IOU_DEFAULT, eval_iou: float = EVAL_IOU_DEFAULT):
    """Generate a scene, run one ablation variant on it and evaluate the result.

    Returns ``(EvalResult, artifacts)``. ``artifacts`` holds the scene's
    ``gt`` and ``dets``, the evaluated ``final`` set, for the tfd variants
    the ``merged`` set and its ``preds``, and ``timings`` of the
    generate, variant and eval stages in seconds.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    timings = {}
    gt, dets = _timed(timings, "generate", generate, spec)
    artifacts = {"gt": gt, "dets": dets, "timings": timings}

    def final_set() -> VideoDetectionSet:
        if variant == "detector":
            return final_detections(dets, cfg)
        if variant == "seqnms":
            return link_frames(dets, None, link_iou, cfg.final_nms_iou, cfg.final_score_min)
        merged, preds = run_video(dets, _oracle_track_fn(gt, noise, oracle_seed), cfg)
        artifacts["merged"], artifacts["preds"] = merged, preds
        return link_frames(merged, preds if variant == "tfd+seqtracknms" else None, link_iou, cfg.final_nms_iou)

    artifacts["final"] = _timed(timings, "variant", final_set)
    result = _timed(timings, "eval", evaluate_map, artifacts["final"], gt, eval_iou)
    return result, artifacts


def cmd_run(args, argv) -> int:
    if args.from_manifest:
        # A repeated --out-dir is last-wins, so the recorded one is overridden.
        recorded = _read_manifest(args.from_manifest, "run")
        return main(recorded + ["--out-dir", args.out_dir], manifest=args.from_manifest)

    spec = _scenario_from_args(args)
    result, artifacts = run_variant(spec, args.variant, args.pipeline, args.noise, args.oracle_seed,
                                    args.link_iou, args.iou)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ["scenario.json", "gt.jsonl", "dets.jsonl", "final.jsonl", "result.json"]
    timings = artifacts["timings"]
    save_scenario(spec, out_dir / "scenario.json")
    for name in ("gt", "dets", "final"):
        _timed(timings, "save", save_detections, artifacts[name], out_dir / f"{name}.jsonl")
    _write_result(out_dir / "result.json", args.variant, result)
    if "merged" in artifacts:
        _timed(timings, "save", save_detections, artifacts["merged"], out_dir / "merged.jsonl")
        _timed(timings, "save", save_predictions, artifacts["preds"], out_dir / "preds.jsonl")
        names += ["merged.jsonl", "preds.jsonl"]
    outputs = {Path(name).stem: str(out_dir / name) for name in names}
    _write_manifest(out_dir / "manifest.json", args, argv, outputs, timings,
                    variant=args.variant, seed=spec.seed)
    print(f"{args.variant}: mAP {result.mean_ap:.4f}  -> {out_dir}")
    return 0


def cmd_plot(args, argv) -> int:
    rows = []
    for path in args.results:
        with open(path, "rb") as fh:
            data = read_json_object(fh.read(), path, "result")
        try:
            value = _value(data, "map", "a number")
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"'map' must be a finite number, got {value!r}")
            if not isinstance(data.get("variant"), (str, type(None))):
                raise ValueError(f"'variant' must be a string or null, got {data['variant']!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: invalid result: {exc}") from None
        rows.append((data.get("variant") or Path(path).stem, value))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([("variant", "map"), *rows])
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _read_manifest(path, command: str | None = None) -> list[str]:
    """The argv a manifest recorded; ``command``, if given, must be the one it records."""
    with open(path, "rb") as fh:
        manifest = read_json_object(fh.read(), path, "manifest")
    argv = manifest.get("argv")
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise ValueError(f"{path}: manifest argv must be a non-empty list of strings")
    if command is not None and not manifest.get("command") == argv[0] == command:
        raise ValueError(f"{path}: not a {command} manifest")
    return argv


def cmd_replay(args, argv) -> int:
    return main(_read_manifest(args.manifest_path), manifest=args.manifest_path)


class _RecordedArgvParser(argparse.ArgumentParser):
    """Raises ``ValueError`` where argparse would exit, for an argv read from a manifest."""

    def error(self, message):
        raise ValueError(message)


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
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
    p.set_defaults(func=cmd_synth_gen)

    p = sub.add_parser("track", help="predict next-frame boxes for every detection")
    p.add_argument("--dets", required=True)
    p.add_argument("--weights", help="tracker weights container")
    p.add_argument("--features-dir", help="directory of frame_<n>.feat pyramids")
    p.add_argument("--template-pool", type=int, default=TrackerConfig.template_pool)
    p.add_argument("--search-pool", type=int, default=TrackerConfig.search_pool)
    p.add_argument("--fuse-stride", type=int)
    _add_oracle_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("tfd", help="tracking-first merge of detections and tracks over a video")
    p.add_argument("--dets", required=True)
    p.add_argument("--preds", help="replay predictions from a track output file")
    _add_oracle_flags(p)
    _add_threshold_flags(p, _MERGE_FLAGS)
    p.add_argument("--out", required=True, help="merged detections output")
    p.add_argument("--out-preds", help="also write the pipeline's track predictions")
    p.set_defaults(func=cmd_tfd)

    p = sub.add_parser("link", help="tubelet linking and averaging re-scoring")
    p.add_argument("--dets", required=True)
    p.add_argument("--preds", help="predictions on the rows of --dets (needed for seqtrack)")
    p.add_argument("--mode", choices=("seqnms", "seqtrack"), required=True)
    p.add_argument("--link-iou", type=_unit_interval, default=LINK_IOU_DEFAULT)
    p.add_argument("--nms-iou", type=_unit_interval, default=PipelineConfig.final_nms_iou)
    p.add_argument("--score-min", type=_unit_interval, default=0.0,
                   help="drop detections below this score before linking")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("eval", help="mean average precision of predictions against ground truth")
    p.add_argument("--preds", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=_unit_interval, default=EVAL_IOU_DEFAULT)
    p.add_argument("--out", help="write the result as JSON")
    p.add_argument("--label", help="variant label stored in the result JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="full pipeline for one ablation variant")
    _add_scenario_flags(p)
    p.add_argument("--variant", choices=VARIANTS, default="tfd+seqnms")
    _add_threshold_flags(p, _CONFIG_FLAGS)
    p.add_argument("--link-iou", type=_unit_interval, default=LINK_IOU_DEFAULT)
    p.add_argument("--iou", type=_unit_interval, default=EVAL_IOU_DEFAULT, help="evaluation IoU threshold")
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
    for name, p in sub.choices.items():
        if name not in ("run", "plot", "replay"):
            p.add_argument("--manifest", help="write a run manifest JSON to this path")
        p.set_defaults(parser=p)

    return parser


def main(argv: list[str] | None = None, manifest=None) -> int:
    """Run one subcommand; an argv read from ``manifest`` may not re-run a manifest.

    An argv that argparse rejects exits 2, or raises a ``ValueError``
    naming ``manifest`` when it was read from one. Flags that
    ``_check_args`` rejects fail the command, naming ``manifest`` likewise.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    recorded = "" if manifest is None else f"{manifest}: recorded argv: "
    try:
        args = build_parser(argparse.ArgumentParser if manifest is None else _RecordedArgvParser).parse_args(argv)
    except ValueError as exc:  # only a recorded argv's parser raises
        raise ValueError(f"{recorded}{exc}") from None
    try:
        if manifest is not None and (args.command == "replay" or getattr(args, "from_manifest", None)):
            raise ValueError(f"{manifest}: the recorded argv re-runs a manifest")
        try:
            _check_args(args, argv)
        except ValueError as exc:
            raise ValueError(f"{recorded}{exc}") from None
        return args.func(args, argv)
    except (ValueError, OSError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
