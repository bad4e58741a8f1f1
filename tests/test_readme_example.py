"""The README's command-line example runs as written."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from datacause.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _example() -> tuple[str, list[list[str]]]:
    """The spec and the ``datacause`` commands of the README's command-line
    example, each command split into its arguments."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    spec = re.search(r"<<'JSON'\n(.*?)^JSON$", block, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return spec, [shlex.split(line)[1:] for line in lines if line.startswith("datacause ")]


def test_readme_cli_example_runs(tmp_path, monkeypatch, capsys):
    spec, commands = _example()
    assert [c[0] for c in commands] == ["synth", "explain", "profile", "diff"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0, argv
        report = json.loads(capsys.readouterr().out)
        if argv[0] == "explain":
            assert report["explanation"]["triplets"]
    assert (tmp_path / "repaired.csv").is_file()
    assert json.loads((tmp_path / "report.json").read_text())["exit_status"] == 0
