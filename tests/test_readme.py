"""Every fenced ``python`` block of README.md runs as it stands, so the
documented API cannot drift from the package."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index, capsys):
    # each block stands alone, in a namespace of its own
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
