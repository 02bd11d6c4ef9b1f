"""README's CLI examples and flag table, checked against the CLI itself."""

import re
import shlex
from pathlib import Path

import pytest

from patrolgame.cli import _COMMANDS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _cli_examples() -> list[list[str]]:
    """The argv of each `patrolgame` command in README's sh blocks."""
    lines = (line.strip() for block in re.findall(r"```sh\n(.*?)```", README, re.S)
             for line in block.splitlines())
    return [shlex.split(line)[1:] for line in lines if line.startswith("patrolgame ")]


def test_readme_lists_every_subcommand_in_its_examples():
    assert {argv[0] for argv in _cli_examples()} == set(_COMMANDS)


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_readme_cli_example_runs_as_written(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # `--out rows.csv` writes here
    assert main(argv) == 0
    if argv[0] == "verify":
        assert capsys.readouterr().out.startswith("PASS ")


def test_readme_flag_table_lists_exactly_each_subcommands_flags():
    table = README.split("| subcommand | flags |")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
    assert {command: sorted(re.findall(r"--([\w-]+)", flags))
            for command, flags in rows.items()} == {
        command: sorted(flags.split()) for command, (_, _, flags) in _COMMANDS.items()}


def test_readme_quick_tour_runs_as_written():
    # the first ```python block, matched as the CI step matched it
    exec(re.search(r"```python\n(.*?)```", README, re.S).group(1), {})
