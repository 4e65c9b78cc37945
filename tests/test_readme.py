"""The README's code stays runnable as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(snippet, f"{README}:Library use", "exec"), namespace)
    assert [r.ratio for r in namespace["results"]] == ["original", "0.5",
                                                        "1.0"]
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert namespace["scores"].shape == (len(namespace["profiles"]),)
