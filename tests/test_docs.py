"""The README's code examples run as written."""

import os
import re

from mapf_lab import Outcome, load_config
from mapf_lab.bench import validate_config

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def readme_block(heading: str, lang: str = "python") -> str:
    """The first ```lang block after the README line ``heading``."""
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(f"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_python_api_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)  # the block reads data/ relative to the root
    namespace: dict = {}
    exec(compile(readme_block("## Python API"), "README.md", "exec"),
         namespace)
    result = namespace["result"]
    assert result.outcome is Outcome.SOLVED
    # It prints the plan cost and the validator's (empty) conflict list.
    assert capsys.readouterr().out == f"{result.plan.cost} []\n"


def test_readme_bench_config_loads(monkeypatch, tmp_path):
    monkeypatch.chdir(REPO_ROOT)  # the block names maps relative to the root
    block = readme_block("### `mapf-lab bench`", lang="")
    assert block.startswith("# bench.cfg\n")
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(block)
    config = load_config(cfg)
    assert [spec.group for spec in config.maps] == ["empty", "maze"]
    assert config.resolutions == [1, 2] and config.max_agents == 24
    assert len(validate_config(config)) == 2
