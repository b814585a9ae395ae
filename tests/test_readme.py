"""The README examples run: its Python quick start prints what its comments
say, every `belyi-forge ...` line of its shell examples exits 0, and its
sample table is what the CLI prints."""

import re
import shlex
from pathlib import Path

import pytest

from belyi_forge import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


CLI_LINES = [
    line
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("belyi-forge ")
]


def test_readme_has_examples():
    assert len(_blocks("python")) == 1
    assert len(CLI_LINES) == 8


def test_readme_python_block_prints_what_its_comments_say(capsys):
    block = _blocks("python")[0]
    exec(compile(block, "README.md", "exec"), {})
    said = [
        line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")
    ]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(said)
    for out, comment in zip(printed, said):
        assert comment.startswith(out), (out, comment)


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_example_exits_zero(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_readme_sample_csv_is_the_table_output(capsys):
    (block,) = _blocks("csv")
    assert "`table --max-degree 15 --format csv`" in README
    assert cli.main(["table", "--max-degree", "15", "--format", "csv"]) == 0
    assert capsys.readouterr().out == block
