"""vodtrack benchmark: the staged CLI chain on seeded synthetic scenes.

Usage (from the repository root)::

    python3 vodbench/run.py --workload long_video --seed 1 --seconds 35 --trace 0

Each workload writes a seeded scene, builds its inputs through the program
(set-up), then runs the CLI chain from detections to ``result.json`` in this
process through ``vodtrack.cli.main``, as often as fits in ``--seconds``.
Outputs are checked against computations made apart from the program. The
last line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` (CLI commands) and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. See README.md.
"""

import os

# One BLAS thread, fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".vodbench_out"

# Set-ups per round; setup_s is the median over all of a run's set-ups.
SETUPS_PER_ROUND = 2

END_TO_END = {"setup_s": "s", "video_s": "s", "map": "ratio", "peak_rss_mb": "MB"}


def _import_program():
    """Import vodtrack from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "vodtrack" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}/vodtrack")
    sys.path.insert(0, str(SRC))
    import vodtrack

    if Path(vodtrack.__file__).resolve().parent != (SRC / "vodtrack").resolve():
        raise SystemExit(f"error: imported vodtrack from {vodtrack.__file__}, not {SRC}")


class Runner:
    """CLI commands run in this process, with their count and failures."""

    def __init__(self) -> None:
        from vodtrack.cli import main

        self._main = main
        self.attempted = 0
        self.failed = 0
        self.stage_s: dict[str, float] = {}

    def __call__(self, *argv) -> int:
        argv = [str(a) for a in argv]
        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = self._main(argv)
        self.stage_s[argv[0]] = time.perf_counter() - t0
        if rc != 0:
            self.failed += 1
            print(f"vodbench: `{' '.join(argv)}` exited {rc}", file=sys.stderr)
        return rc


class Workload:
    """Scene, set-up, chain and checks of one workload in one work directory."""

    def __init__(self, name: str, seed: int, work: Path, scene: dict | None = None) -> None:
        import scenes

        self.name = name
        self.seed = seed
        self.work = work
        self.scene = scenes.SCENES[name](seed) if scene is None else scene
        self.scene_path = work / "scene.json"
        with open(self.scene_path, "w", encoding="utf-8") as fh:
            json.dump(self.scene, fh)

    def path(self, name: str) -> Path:
        return self.work / name

    def setup(self, run: Runner, tracer=None) -> None:
        run("synth-gen", "--spec", self.scene_path,
            "--out-gt", self.path("gt.jsonl"), "--out-dets", self.path("dets.jsonl"))

    def chain(self, run: Runner) -> None:
        from scenes import ORACLE_NOISE

        run("tfd", "--dets", self.path("dets.jsonl"), "--oracle", "--gt", self.path("gt.jsonl"),
            *ORACLE_NOISE, "--oracle-seed", self.seed,
            "--out", self.path("merged.jsonl"), "--out-preds", self.path("preds.jsonl"))
        self._link_and_eval(run)

    def _link_and_eval(self, run: Runner) -> None:
        run("link", "--dets", self.path("merged.jsonl"), "--preds", self.path("preds.jsonl"),
            "--mode", "seqtrack", "--out", self.path("final.jsonl"))
        run("eval", "--preds", self.path("final.jsonl"), "--gt", self.path("gt.jsonl"),
            "--out", self.path("result.json"), "--label", self.name)

    def outputs(self) -> list[str]:
        return ["merged.jsonl", "preds.jsonl", "final.jsonl", "result.json"]

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in self.outputs():
            h.update(self.path(name).read_bytes())
        return h.hexdigest()

    def mean_ap(self) -> float:
        with open(self.path("result.json"), "r", encoding="utf-8") as fh:
            return float(json.load(fh)["map"])

    def check(self) -> list[str]:
        import checks

        gt = checks.read_jsonl(self.path("gt.jsonl"))
        dets = checks.read_jsonl(self.path("dets.jsonl"))
        merged = checks.read_jsonl(self.path("merged.jsonl"))
        final = checks.read_jsonl(self.path("final.jsonl"))
        return (checks.check_map(self.mean_ap(), final, gt)
                + checks.check_merged(merged, dets)
                + checks.check_final(final, merged))


class LearnedHead(Workload):
    """Learned regression head on rendered feature pyramids."""

    def setup(self, run: Runner, tracer=None) -> None:
        from scenes import LEARNED_SHARED_CHANNELS, LEARNED_WEIGHTS_SEED
        from vodtrack.evalio import save_features
        from vodtrack.synth import load_scenario, render_features
        from vodtrack.tracker import TrackerConfig, save_weights, synthesize_weights

        super().setup(run)
        spec = load_scenario(self.scene_path)
        feats = self.path("features")
        feats.mkdir(exist_ok=True)
        render = render_features if tracer is None else tracer.span(
            "synth.render_features", render_features)
        for t in range(spec.n_frames):
            save_features(render(spec, t), feats / f"frame_{t}.feat")
        channels = spec.feature_channels * len(spec.feature_strides)
        self.weights = synthesize_weights(channels, TrackerConfig(), seed=LEARNED_WEIGHTS_SEED,
                                          shared_head_channels=LEARNED_SHARED_CHANNELS)
        save_weights(self.weights, self.path("weights.bin"))

    def chain(self, run: Runner) -> None:
        from scenes import LEARNED_TRACK_QUALITY

        run("track", "--dets", self.path("dets.jsonl"), "--weights", self.path("weights.bin"),
            "--features-dir", self.path("features"), "--out", self.path("track.jsonl"))
        run("tfd", "--dets", self.path("dets.jsonl"), "--preds", self.path("track.jsonl"),
            "--track-quality", LEARNED_TRACK_QUALITY,
            "--out", self.path("merged.jsonl"), "--out-preds", self.path("preds.jsonl"))
        self._link_and_eval(run)

    def outputs(self) -> list[str]:
        return ["track.jsonl"] + super().outputs()

    def check(self) -> list[str]:
        import checks
        from scenes import LEARNED_STRIDES

        errors = super().check()
        track = checks.read_jsonl(self.path("track.jsonl"))
        dets = checks.read_jsonl(self.path("dets.jsonl"))
        errors += checks.check_track_preds(track, dets, self.scene["n_frames"])
        # track's default fusion target: the second-finest level.
        errors += checks.check_head_sample(
            track, lambda t: self.path("features") / f"frame_{t}.feat", self.weights,
            stride=LEARNED_STRIDES[1])
        return errors


WORKLOADS = {
    "long_video": Workload,
    "crowded_scene": Workload,
    "learned_head": LearnedHead,
}


def measure(workload: Workload, seconds: float, trace: bool) -> tuple[dict, Runner, list[str]]:
    """Run whole rounds for ``seconds``, then check the last round's outputs.

    A round is SETUPS_PER_ROUND set-ups followed by one chain, so that set-up
    and chain times are sampled over the same stretch of the run.
    """
    import layers

    run = Runner()
    tracer = layers.Tracer() if trace else None
    setup_s, setup_layers = [], []
    video_s, chain_layers, digests = [], [], []
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for _ in range(SETUPS_PER_ROUND):
                if tracer is not None:
                    tracer.reset()
                t0 = time.perf_counter()
                workload.setup(run, tracer)
                setup_s.append(time.perf_counter() - t0)
                if tracer is not None:
                    setup_layers.append(tracer.setup_metrics(run.stage_s["synth-gen"]))

            if tracer is not None:
                tracer.reset()
            run.stage_s.clear()
            t0 = time.perf_counter()
            workload.chain(run)
            dt = time.perf_counter() - t0
            video_s.append(dt)
            if tracer is not None:
                chain_layers.append(tracer.chain_metrics(run.stage_s, dt))
            if run.failed:
                break
            digests.append(workload.digest())
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if run.failed:
        return {}, run, [f"{run.failed} CLI command(s) failed; outputs not checked"]
    errors = workload.check()
    if len(set(digests)) != 1:
        errors.append(f"chain outputs differ between the {len(digests)} repeats")

    if trace:
        metrics = {}
        for rows in (setup_layers, chain_layers):
            for name in rows[0]:
                values = [row[name] for row in rows]
                if layers.PER_LAYER[name] == "s":
                    metrics[name] = statistics.median(values)
                elif len(set(values)) == 1:
                    metrics[name] = values[0]
                else:
                    metrics[name] = max(values)
                    errors.append(f"{name} differs between repeats: {sorted(set(values))}")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in layers.PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "video_s": statistics.median(video_s),
            "map": workload.mean_ap(),
            "peak_rss_mb": peak_rss_mb,
        }
        result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"vodbench: {workload.name} seed {workload.seed}: {len(setup_s)} set-ups "
          f"{[round(s, 3) for s in setup_s]}, {len(video_s)} chains "
          f"{[round(s, 3) for s in video_s]}", file=sys.stderr)
    return result, run, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep repeating the chain")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(BENCH_DIR))
    seed = args.seed % 2**31
    work = OUT_ROOT / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.workload, seed, work)
        metrics, run, errors = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()
    for e in errors:
        print(f"vodbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
