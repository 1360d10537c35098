"""README's Library block runs as written against the quick-tour corpus."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from rimkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_readme_library_block_runs_on_the_quick_tour_corpus(tmp_path, monkeypatch, capsys):
    tour = _first_block("Quick tour", "sh").replace("\\\n", " ")
    simulate = next(line for line in tour.splitlines() if line.startswith("rimkit simulate"))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(simulate)[1:]) == 0
    capsys.readouterr()
    namespace: dict = {}
    exec(compile(_first_block("Library", "python"), "README.md", "exec"), namespace)
    assert "term='T03:home[indicator]'" in capsys.readouterr().out
    assert namespace["game"].crew == ("Tony Brothers",)
    assert [(e.pre_wp, e.post_wp) for e in namespace["game"].events] == [(0.6, 0.55)]
