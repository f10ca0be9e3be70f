"""Golden digests: every data file ``run`` writes stays byte-identical.

``run_digests.json`` pins the sha256 of each file ``run`` writes except
``manifest.json`` (it holds timings and paths), for every preset × variant
at seed 0 with oracle noise. A change that claims the same outputs must
leave these digests alone. After an intended output change, regenerate the
file with ``PYTHONPATH=src python tests/test_golden_digests.py``.
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


def run_digests(preset: str, variant: str, work: Path) -> dict[str, str]:
    """sha256 of each data file of one ``run``, keyed by file name."""
    out = work / f"{preset}_{variant}"
    rc = main(["run", "--preset", preset, "--seed", "0", "--variant", variant,
               *NOISE, "--out-dir", str(out)])
    assert rc == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("preset", PRESETS)
def test_run_outputs_match_golden_digests(preset, variant, tmp_path):
    expected = json.loads(DIGESTS.read_text())[f"{preset}/{variant}"]
    assert run_digests(preset, variant, tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"{p}/{v}": run_digests(p, v, Path(tmp)) for p in PRESETS for v in VARIANTS}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} runs to {DIGESTS}", file=sys.stderr)
