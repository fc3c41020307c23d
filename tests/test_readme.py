"""The README's examples run as written: every `ldptoric ...` line of its sh
blocks exits 0, and the library example prints what its comments say."""

import os
import re
import shlex
from pathlib import Path

from ldptoric import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    # The lines run in order in one directory, so classify and check read the
    # catalog that enumerate wrote.  enumerate's default --jobs is every
    # logical core; at most two keep the pool small on a many-core host.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    lines = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("ldptoric ")]
    assert len(lines) == 9
    for line in lines:
        code = cli.main(shlex.split(line)[1:])
        assert (line, code, capsys.readouterr().err) == (line, 0, "")


def test_readme_library_example_prints_its_comments(capsys):
    # Each print line's comment starts with what it prints; prose may follow
    # after a space or a comma.
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 5
    for out, comment in zip(printed, comments):
        assert comment == out or comment.startswith((out + " ", out + ",")), (out, comment)
