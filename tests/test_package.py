"""The package surface: exported names and the README's library example."""
from __future__ import annotations

import re
from pathlib import Path

import canmatch


def test_every_exported_name_resolves():
    assert len(set(canmatch.__all__)) == len(canmatch.__all__)
    assert [n for n in canmatch.__all__ if not hasattr(canmatch, n)] == []


def test_readme_library_example_runs_on_exported_names():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (code,) = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    used = set(re.findall(r"\bcm\.(\w+)", code))
    assert used <= set(canmatch.__all__)
    scope: dict = {}
    exec(code, scope)
    assert scope["report"].psi == 1.0
    assert scope["result"].candidates[0].node_ids in (
        scope["truth"].node_ids,
        scope["truth"].node_ids[::-1],
    )
