"""The README's command-line example and library quick start run as written."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

from datacause.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block of the README section ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _example() -> tuple[str, list[list[str]]]:
    """The spec and the ``datacause`` commands of the README's command-line
    example, each command split into its arguments."""
    block = _block("Command line", "sh")
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


def test_readme_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    """The quick start, run as written next to the CSVs that the command-line
    example's spec generates, repairs the failing dataset with at least one
    triplet, and prints each one's id and then the final score."""
    spec, _ = _example()
    (tmp_path / "spec.json").write_text(spec, encoding="utf-8")
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(_block("Library quick start", "python"), "README.md", "exec"), namespace)
    result = namespace["result"]
    assert result.triplets and result.final_score <= 0.2
    assert capsys.readouterr().out.splitlines() == [
        *result.triplet_ids(), f"{result.final_score} {result.interventions}"]
