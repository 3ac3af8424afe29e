"""The README's code examples run as written."""

import os
import re

from mapf_lab import Outcome

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def readme_block(heading: str) -> str:
    """The first ```python block after the README line ``heading``."""
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_python_api_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)  # the block reads data/ relative to the root
    namespace: dict = {}
    exec(compile(readme_block("## Python API"), "README.md", "exec"),
         namespace)
    result = namespace["result"]
    assert result.outcome is Outcome.SOLVED
    # It prints the plan cost and the validator's (empty) conflict list.
    assert capsys.readouterr().out == f"{result.plan.cost} []\n"
