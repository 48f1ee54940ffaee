"""Every fenced ``python`` block in README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[tuple[int, str]]:
    # (line of the block's first code line, code) for each ```python fence
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]


BLOCKS = _python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
