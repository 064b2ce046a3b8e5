"""The README's examples stay runnable: its config example validates and
every command line of its CLI block parses."""

import re
import shlex
from pathlib import Path

from pwsearch.cli import _PARSER, EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language: str, after: str) -> str:
    """The first fenced ``language`` block below the heading ``after``."""
    return re.search(rf"{re.escape(after)}\n.*?```{language}\n(.*?)```", README, re.S).group(1)


def test_the_config_example_validates(tmp_path):
    text = re.sub(r"//.*", "", _block("jsonc", "## Config format"))  # no string in it holds "//"
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["validate-config", "--config", str(path), "--quiet"]) == EXIT_OK


def test_every_cli_example_parses():
    lines = [line for line in _block("sh", "## CLI").splitlines() if line.startswith("pwsearch ")]
    assert len(lines) == 5
    for line in lines:
        args = _PARSER.parse_args(shlex.split(line)[1:])
        assert args.subcommand == line.split()[1]
