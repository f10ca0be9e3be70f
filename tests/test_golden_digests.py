"""Golden digests: every data file ``run`` and the staged CLI write stays byte-identical.

``run_digests.json`` pins the sha256 of each file ``run`` writes except
``manifest.json`` (it holds timings and paths), for every preset × variant
at seed 0 with oracle noise. It also pins every file of three staged chains
(``synth-gen``, then ``tfd``, ``track``, ``link`` and ``eval``) on the
``degraded`` and ``fast`` presets at seed 0, and one ``tfd-oracle`` chain on a dense spec of
about 100 objects a frame (``dense_spec``). A change that claims the same
outputs must leave these digests alone. After an intended output change,
regenerate the file with ``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from vodtrack.cli import VARIANTS, main
from vodtrack.synth import DetectorNoise, ObjectSpec, ScenarioSpec, save_scenario

DIGESTS = Path(__file__).with_name("run_digests.json")
PRESETS = ("clean", "degraded", "fast")
NOISE = ("--noise-center", "1.0", "--noise-failure", "0.25")
CHAIN_PRESETS = ("degraded", "fast")
# tfd-oracle: tfd --oracle -> link seqtrack; seqnms: link seqnms on the raw
# detections; track-replay: track --oracle -> tfd --preds -> link seqtrack.
CHAINS = ("tfd-oracle", "seqnms", "track-replay")
# Not a preset: the chains read ``dense_spec`` from a file.
DENSE = "dense"


def dense_spec() -> ScenarioSpec:
    """About 100 objects in every frame of a 12-frame 1280x720 video, some born or
    gone mid-video, with the benchmark's detector noise and 5 false positives a frame."""
    rng = np.random.default_rng(2026)
    objects = []
    for _ in range(120):
        w, h = (float(v) for v in rng.uniform(30.0, 80.0, 2))
        objects.append(ObjectSpec(
            class_id=int(rng.integers(5)), first_frame=int(rng.integers(0, 3)),
            last_frame=int(rng.integers(9, 12)), cx=float(rng.uniform(60.0, 1220.0)),
            cy=float(rng.uniform(60.0, 660.0)), w=w, h=h,
            vx=float(rng.uniform(-2.0, 2.0)), vy=float(rng.uniform(-2.0, 2.0))))
    noise = DetectorNoise(box_sigma=1.6, miss_prob=0.08, false_positive_rate=5.0)
    return ScenarioSpec(width=1280, height=720, n_frames=12, objects=tuple(objects), noise=noise,
                        seed=0, video="dense-0")


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def run_digests(preset: str, variant: str, work: Path) -> dict[str, str]:
    """sha256 of each data file of one ``run``, keyed by file name."""
    out = work / f"{preset}_{variant}"
    noise = NOISE if variant.startswith("tfd") else ()  # the other variants run no oracle
    rc = main(["run", "--preset", preset, "--seed", "0", "--variant", variant,
               *noise, "--out-dir", str(out)])
    assert rc == 0
    return _digests(out)


def chain_digests(preset: str, chain: str, work: Path) -> dict[str, str]:
    """sha256 of each file one staged CLI chain writes, keyed by file name."""
    out = work / f"{preset}_chain_{chain}"
    out.mkdir(parents=True)

    def cli(*argv) -> None:
        assert main([str(a) for a in argv]) == 0

    gt, dets = out / "gt.jsonl", out / "dets.jsonl"
    merged, preds, final = out / "merged.jsonl", out / "preds.jsonl", out / "final.jsonl"
    scene = ["--preset", preset, "--seed", "0"]
    if preset == DENSE:
        scene = ["--spec", work / f"{preset}_spec.json"]
        save_scenario(dense_spec(), scene[1])
    cli("synth-gen", *scene, "--out-gt", gt, "--out-dets", dets)
    if chain == "seqnms":
        cli("link", "--dets", dets, "--mode", "seqnms", "--score-min", "0.03", "--out", final)
    else:
        if chain == "tfd-oracle":
            cli("tfd", "--dets", dets, "--oracle", "--gt", gt, *NOISE,
                "--out", merged, "--out-preds", preds)
        else:
            cli("track", "--dets", dets, "--oracle", "--gt", gt, *NOISE, "--out", out / "track.jsonl")
            cli("tfd", "--dets", dets, "--preds", out / "track.jsonl",
                "--out", merged, "--out-preds", preds)
        cli("link", "--dets", merged, "--preds", preds, "--mode", "seqtrack", "--out", final)
    cli("eval", "--preds", final, "--gt", gt, "--out", out / "result.json", "--label", chain)
    return _digests(out)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("preset", PRESETS)
def test_run_outputs_match_golden_digests(preset, variant, tmp_path):
    expected = json.loads(DIGESTS.read_text())[f"{preset}/{variant}"]
    assert run_digests(preset, variant, tmp_path) == expected


@pytest.mark.parametrize("chain", CHAINS)
@pytest.mark.parametrize("preset", CHAIN_PRESETS)
def test_staged_chain_outputs_match_golden_digests(preset, chain, tmp_path):
    expected = json.loads(DIGESTS.read_text())[f"staged/{preset}/{chain}"]
    assert chain_digests(preset, chain, tmp_path) == expected


def test_dense_chain_outputs_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())[f"staged/{DENSE}/tfd-oracle"]
    assert chain_digests(DENSE, "tfd-oracle", tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{p}/{v}": run_digests(p, v, Path(tmp)) for p in PRESETS for v in VARIANTS}
        table.update(
            (f"staged/{p}/{c}", chain_digests(p, c, Path(tmp))) for p in CHAIN_PRESETS for c in CHAINS
        )
        table[f"staged/{DENSE}/tfd-oracle"] = chain_digests(DENSE, "tfd-oracle", Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {DIGESTS}", file=sys.stderr)
