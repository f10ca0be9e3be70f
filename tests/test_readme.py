"""README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(code, f"{README}:Library use", "exec"), namespace)
    assert sum(len(frame) for frame in namespace["rescored"]) > 0
