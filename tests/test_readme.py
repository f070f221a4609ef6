"""The README's CLI examples run as shown.

Every ``chainbell ...`` line of the README's CLI block goes through
``cli.main`` and must exit 0, or N when a ``# exits N`` comment line
comes just before it.
"""

import re
import shlex
from pathlib import Path

import pytest

from chainbell.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for each example of the CLI block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    expected = 0
    for line in block.splitlines():
        announced = re.match(r"# exits (\d)", line)
        if announced:
            expected = int(announced.group(1))
        elif line.startswith("chainbell "):
            examples.append((shlex.split(line, comments=True)[1:], expected))
            expected = 0
    return examples


def test_readme_has_cli_examples():
    codes = [code for _, code in cli_examples()]
    assert len(codes) >= 8 and codes.count(1) == 1


@pytest.mark.parametrize("argv, expected", [
    pytest.param(argv, expected, id=" ".join(argv)) for argv, expected in cli_examples()])
def test_readme_cli_example(argv, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the scan example writes its CSV here
    assert main(argv) == expected
