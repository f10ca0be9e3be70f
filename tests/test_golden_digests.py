"""Golden digests: every data file ``run`` and the staged CLI write stays byte-identical.

``run_digests.json`` pins the sha256 of each file ``run`` writes except
``manifest.json`` (it holds timings and paths), for every preset × variant
at seed 0 with oracle noise. It also pins every file of three staged chains
(``synth-gen``, then ``tfd``, ``track``, ``link`` and ``eval``) on the
``degraded`` and ``fast`` presets at seed 0. A change that claims the same
outputs must leave these digests alone. After an intended output change,
regenerate the file with ``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from vodtrack.cli import VARIANTS, main

DIGESTS = Path(__file__).with_name("run_digests.json")
PRESETS = ("clean", "degraded", "fast")
NOISE = ("--noise-center", "1.0", "--noise-failure", "0.25")
CHAIN_PRESETS = ("degraded", "fast")
# tfd-oracle: tfd --oracle -> link seqtrack; seqnms: link seqnms on the raw
# detections; track-replay: track --oracle -> tfd --preds -> link seqtrack.
CHAINS = ("tfd-oracle", "seqnms", "track-replay")


def _digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def run_digests(preset: str, variant: str, work: Path) -> dict[str, str]:
    """sha256 of each data file of one ``run``, keyed by file name."""
    out = work / f"{preset}_{variant}"
    rc = main(["run", "--preset", preset, "--seed", "0", "--variant", variant,
               *NOISE, "--out-dir", str(out)])
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
    cli("synth-gen", "--preset", preset, "--seed", "0", "--out-gt", gt, "--out-dets", dets)
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{p}/{v}": run_digests(p, v, Path(tmp)) for p in PRESETS for v in VARIANTS}
        table.update(
            (f"staged/{p}/{c}", chain_digests(p, c, Path(tmp))) for p in CHAIN_PRESETS for c in CHAINS
        )
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {DIGESTS}", file=sys.stderr)
