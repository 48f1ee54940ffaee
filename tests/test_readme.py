"""README.md's examples run as written: every fenced ``python`` block,
and every ``sh`` block of CLI commands whose report follows it in a
``json`` block."""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from carpetdim import cli

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_PREFIX = ["python3", "-m", "carpetdim"]


def _fences() -> list[tuple[str, int, str]]:
    # (language, line of the block's first code line, code) for each fence
    text = README.read_text(encoding="utf-8")
    return [
        (m.group(1), text.count("\n", 0, m.start(2)) + 1, m.group(2))
        for m in re.finditer(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)
    ]


FENCES = _fences()
BLOCKS = [(line, code) for lang, line, code in FENCES if lang == "python"]
# (line of the sh block, its commands, the json block that follows)
EXAMPLES = [
    (line, code, report)
    for (lang, line, code), (next_lang, _, report) in zip(FENCES, FENCES[1:])
    if lang == "sh" and next_lang == "json"
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})


def test_readme_has_cli_examples():
    assert EXAMPLES


def _assert_matches(got, shown, path="$"):
    """Keys, integers and strings exactly; floats within 4 ulps."""
    assert type(got) is type(shown), path
    if isinstance(shown, dict):
        assert sorted(got) == sorted(shown), path
        for key in shown:
            _assert_matches(got[key], shown[key], f"{path}.{key}")
    elif isinstance(shown, list):
        assert len(got) == len(shown), path
        for i, (g, s) in enumerate(zip(got, shown)):
            _assert_matches(g, s, f"{path}[{i}]")
    elif isinstance(shown, float):
        assert abs(got - shown) <= 4 * math.ulp(max(abs(got), abs(shown))), (path, got, shown)
    else:
        assert got == shown, path


@pytest.mark.parametrize(
    "code, report", [e[1:] for e in EXAMPLES], ids=[f"line{e[0]}" for e in EXAMPLES]
)
def test_readme_cli_example_prints_its_report(code, report, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["fixtures", "--out-dir", "specs"]) == cli.EXIT_OK
    for command in code.splitlines():
        words = shlex.split(command)
        assert words[: len(CLI_PREFIX)] == CLI_PREFIX, command
        capsys.readouterr()
        assert cli.main(words[len(CLI_PREFIX):]) == cli.EXIT_OK, capsys.readouterr().err
    _assert_matches(json.loads(capsys.readouterr().out), json.loads(report))
