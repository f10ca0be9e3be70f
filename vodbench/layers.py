"""Per-layer tracing by rebinding names in the calling modules.

The program is not instrumented. Each traced function is replaced, for the
duration of a ``with Tracer():`` block, by a wrapper bound under the same
name in the module that calls it: ``vodtrack.cli.run_video`` times the
pipeline as the CLI calls it, ``vodtrack.tracker.conv_block`` times the conv
blocks as the head calls them, and ``iou`` is counted in each module that
calls it. Timed wrappers form spans on a stack, so a span's self time is its
duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import vodtrack.cli as cli
import vodtrack.evalio as evalio
import vodtrack.linker as linker
import vodtrack.pipeline as pipeline
import vodtrack.tracker as tracker
from vodtrack.tracker import TrackerConfig

_TEMPLATE_POOL = TrackerConfig().template_pool

# Per-layer metrics the traced run reports, with their units. Times are
# seconds per chain (or per set-up), counts are per chain.
PER_LAYER = {
    "cli.synth_gen_s": "s",
    "cli.track_s": "s",
    "cli.tfd_s": "s",
    "cli.link_s": "s",
    "cli.eval_s": "s",
    "cli.iou_calls": "count",
    "synth.generate_s": "s",
    "synth.render_features_s": "s",
    "evalio.load_s": "s",
    "evalio.save_s": "s",
    "evalio.bytes_read": "bytes",
    "evalio.bytes_written": "bytes",
    "evalio.evaluate_map_s": "s",
    "evalio.iou_calls": "count",
    "tracker.oracle_track_s": "s",
    "tracker.iou_calls": "count",
    "tracker.boxes_tracked": "count",
    "tracker.track_s": "s",
    "tracker.head_fc_s": "s",
    "tensor_ops.fuse_pyramid_s": "s",
    "tensor_ops.fuse_pyramid_calls": "count",
    "tensor_ops.roi_align_template_s": "s",
    "tensor_ops.roi_align_search_s": "s",
    "tensor_ops.conv_block_pre_s": "s",
    "tensor_ops.depthwise_correlate_s": "s",
    "tensor_ops.conv_block_post_s": "s",
    "tensor_ops.head_conv_s": "s",
    "pipeline.run_video_self_s": "s",
    "pipeline.iou_calls": "count",
    "pipeline.candidates": "count",
    "pipeline.tracks_kept": "count",
    "pipeline.detections_admitted": "count",
    "linker.rescore_and_suppress_s": "s",
    "linker.best_path_s": "s",
    "linker.tubelets": "count",
    "linker.build_graph_s": "s",
    "linker.edges": "count",
    "linker.suppressed": "count",
    "linker.iou_calls": "count",
    "trace.video_s": "s",
}


class Tracer:
    """Spans and counts of one traced region; ``reset()`` starts a new one."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.total.clear()
        self.child.clear()
        self.counts.clear()

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Time ``fn`` as span ``name``; ``after(args, result)`` may add counts."""

        def wrapper(*args, **kwargs):
            inner = [0.0]
            self._stack.append(inner)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.total[name] += dt
                self.child[name] += inner[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Count calls of a two-argument function (``iou``), at the least cost."""
        counts = self.counts

        def wrapper(a, b):
            counts[name] += 1
            return fn(a, b)

        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        rebind = self._rebind
        count = self.counts

        for module, name in ((cli, "cli"), (pipeline, "pipeline"), (linker, "linker"),
                             (tracker, "tracker"), (evalio, "evalio")):
            rebind(module, "iou", self.counter(f"{name}.iou_calls", module.iou))

        # synth and evalio, as the CLI calls them.
        rebind(cli, "generate", self.span("synth.generate", cli.generate))

        def read(args, _result):
            count["evalio.bytes_read"] += os.path.getsize(args[0])

        def written(args, _result):
            count["evalio.bytes_written"] += os.path.getsize(args[-1])

        for attr in ("load_single_video", "load_detections", "load_predictions",
                     "load_features", "load_weights"):
            rebind(cli, attr, self.span("evalio.load", getattr(cli, attr), read))
        for attr in ("save_detections", "save_predictions"):
            rebind(cli, attr, self.span("evalio.save", getattr(cli, attr), written))
        rebind(cli, "evaluate_map", self.span("evalio.evaluate_map", cli.evaluate_map))

        # Tracker: the oracle and replay track functions the pipeline calls,
        # and the learned head with its kernels.
        def candidates(args, _result):
            count["pipeline.candidates"] += len(args[0])

        def oracle_boxes(args, _result):
            candidates(args, _result)
            count["tracker.boxes_tracked"] += len(args[0])

        def wrap_factory(factory, span_name, after):
            def make(*args, **kwargs):
                return self.span(span_name, factory(*args, **kwargs), after)

            return make

        rebind(cli, "make_oracle_track_fn",
               wrap_factory(cli.make_oracle_track_fn, "tracker.oracle_track", oracle_boxes))
        rebind(cli, "make_replay_track_fn",
               wrap_factory(cli.make_replay_track_fn, "cli.replay_track", candidates))

        def learned_boxes(args, _result):
            count["tracker.boxes_tracked"] += len(args[2])

        rebind(cli, "track", self.span("tracker.track", cli.track, learned_boxes))

        post_weights = []
        head = self.span("tracker.head_forward", tracker.head_forward)

        def head_forward(template, search, w, **kwargs):
            post_weights.append(w.post)
            try:
                return head(template, search, w, **kwargs)
            finally:
                post_weights.pop()

        rebind(tracker, "head_forward", head_forward)

        def fuse_calls(_args, _result):
            count["tensor_ops.fuse_pyramid_calls"] += 1

        rebind(tracker, "fuse_pyramid",
               self.span("tensor_ops.fuse_pyramid", tracker.fuse_pyramid, fuse_calls))

        roi_template = self.span("tensor_ops.roi_align_template", tracker.roi_align_full_avg)
        roi_search = self.span("tensor_ops.roi_align_search", tracker.roi_align_full_avg)

        def roi_align(feat, roi, out_h, *args, **kwargs):
            fn = roi_template if out_h == _TEMPLATE_POOL else roi_search
            return fn(feat, roi, out_h, *args, **kwargs)

        rebind(tracker, "roi_align_full_avg", roi_align)

        block_pre = self.span("tensor_ops.conv_block_pre", tracker.conv_block)
        block_post = self.span("tensor_ops.conv_block_post", tracker.conv_block)

        def conv_block(x, w):
            is_post = bool(post_weights) and w is post_weights[-1]
            return (block_post if is_post else block_pre)(x, w)

        rebind(tracker, "conv_block", conv_block)
        rebind(tracker, "depthwise_correlate",
               self.span("tensor_ops.depthwise_correlate", tracker.depthwise_correlate))
        rebind(tracker, "conv2d_same", self.span("tensor_ops.head_conv", tracker.conv2d_same))

        # Pipeline: the whole video as the CLI calls it, and the funnel as
        # step() calls its helpers.
        rebind(cli, "run_video", self.span("pipeline.run_video", cli.run_video))

        def kept(_args, result):
            count["pipeline.tracks_kept"] += len(result)

        def admitted(args, result):
            count["pipeline.detections_admitted"] += len(result) - len(args[0])

        rebind(pipeline, "filter_tracks", _after(pipeline.filter_tracks, kept))
        rebind(pipeline, "tfd_merge", _after(pipeline.tfd_merge, admitted))

        # Linker.
        def edges(_args, graph):
            count["linker.edges"] += sum(len(s) for table in graph.edges for s in table.values())

        for attr in ("build_graph_seqnms", "build_graph_seqtrack"):
            rebind(cli, attr, self.span("linker.build_graph", getattr(cli, attr), edges))

        def suppressed(args, result):
            count["linker.suppressed"] += (
                sum(len(f) for f in args[0]) - sum(len(f) for f in result)
            )

        rebind(cli, "rescore_and_suppress",
               self.span("linker.rescore_and_suppress", cli.rescore_and_suppress, suppressed))

        def tubelet(_args, result):
            if result is not None:
                count["linker.tubelets"] += 1

        rebind(linker, "best_path", self.span("linker.best_path", linker.best_path, tubelet))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- report -------------------------------------------------------------

    def chain_metrics(self, stage_s: dict[str, float], video_s: float) -> dict[str, float]:
        """Per-layer values of one traced chain."""
        t = self.total
        m = {f"cli.{stage}_s": stage_s.get(stage, 0.0) for stage in ("track", "tfd", "link", "eval")}
        m.update({
            "evalio.load_s": t["evalio.load"],
            "evalio.save_s": t["evalio.save"],
            "evalio.evaluate_map_s": t["evalio.evaluate_map"],
            "tracker.oracle_track_s": t["tracker.oracle_track"],
            "tracker.track_s": t["tracker.track"],
            "tracker.head_fc_s": self.self_time("tracker.head_forward"),
            "tensor_ops.fuse_pyramid_s": t["tensor_ops.fuse_pyramid"],
            "tensor_ops.roi_align_template_s": t["tensor_ops.roi_align_template"],
            "tensor_ops.roi_align_search_s": t["tensor_ops.roi_align_search"],
            "tensor_ops.conv_block_pre_s": t["tensor_ops.conv_block_pre"],
            "tensor_ops.depthwise_correlate_s": t["tensor_ops.depthwise_correlate"],
            "tensor_ops.conv_block_post_s": t["tensor_ops.conv_block_post"],
            "tensor_ops.head_conv_s": t["tensor_ops.head_conv"],
            "pipeline.run_video_self_s": self.self_time("pipeline.run_video"),
            "linker.rescore_and_suppress_s": t["linker.rescore_and_suppress"],
            "linker.best_path_s": t["linker.best_path"],
            "linker.build_graph_s": t["linker.build_graph"],
            "trace.video_s": video_s,
        })
        m.update((name, self.counts[name]) for name, unit in PER_LAYER.items() if unit != "s")
        return m

    def setup_metrics(self, synth_gen_s: float) -> dict[str, float]:
        """Per-layer values of one traced set-up."""
        return {
            "cli.synth_gen_s": synth_gen_s,
            "synth.generate_s": self.total["synth.generate"],
            "synth.render_features_s": self.total["synth.render_features"],
        }


def _after(fn, after):
    """Count-only wrapper: calls ``after(args, result)``, records no span."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, result)
        return result

    return wrapper
