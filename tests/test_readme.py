"""Every ``kintegration ...`` example in README.md prints the output shown below it, and the Library code runs."""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from kintegration.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# a shell block holding one command, then the plain block with its output
EXAMPLE = re.compile(r"```sh\n(kintegration [^\n]*)\n```\n\n```\n(.*?)```\n", re.DOTALL)
LIBRARY = re.compile(r"## Library\n\n```python\n(.*?)```\n", re.DOTALL)
EXAMPLES = [
    pytest.param(command, expected, id=shlex.split(command)[1])
    for command, expected in EXAMPLE.findall(README.read_text(encoding="utf-8"))
]


def test_readme_has_an_example_of_every_subcommand():
    assert sorted(example.id for example in EXAMPLES) == ["analyze", "certify", "generate", "thresholds"]


@pytest.mark.parametrize("command,expected", EXAMPLES)
def test_readme_example_prints_its_output(command, expected, data_dir, capsys, tmp_path, monkeypatch):
    # the analyze example's file names stand for the sample files
    inputs = {"edges.txt": data_dir / "sample_edges.txt", "communities.txt": data_dir / "sample_communities.txt"}
    # generate writes into ./demo, so it runs in a fresh directory
    monkeypatch.chdir(tmp_path)
    code = main([str(inputs.get(arg, arg)) for arg in shlex.split(command)[1:]])
    assert (code, capsys.readouterr().out) == (0, expected)


def test_readme_library_code_runs(data_dir, capsys, tmp_path, monkeypatch):
    # the code loads edges.txt and communities.txt from the working directory
    shutil.copy(data_dir / "sample_edges.txt", tmp_path / "edges.txt")
    shutil.copy(data_dir / "sample_communities.txt", tmp_path / "communities.txt")
    monkeypatch.chdir(tmp_path)
    (code,) = LIBRARY.findall(README.read_text(encoding="utf-8"))
    exec(code, {})
    assert "Bound(lower=30, upper=30)" in capsys.readouterr().out.splitlines()
