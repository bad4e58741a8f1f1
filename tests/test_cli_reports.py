"""One report path for every CLI command: the same report skeleton on every
exit code, with ``--human`` and ``--report`` honoured on each of them."""

from __future__ import annotations

import csv
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import datacause.cli
from datacause.cli import main
from datacause.errors import DatacauseError
from datacause.synth import PlantedCause, ScenarioSpec, generate, ground_truth
from datacause.tabular import save_csv

try:
    import jsonschema
except ImportError:  # pragma: no cover - the schema check is optional
    jsonschema = None

REPORT_SCHEMA = json.loads(
    (Path(__file__).parents[1] / "docs" / "report_schema.json").read_text())
SKELETON = {"schema_version", "command", "config", "exit_status", "timing_seconds"}
DOT_ID = re.compile(r'"(?:\\.|[^"\\])*"')


@pytest.fixture(scope="module")
def scenario(tmp_path_factory) -> dict:
    """Inputs on disk: a scenario the builtin oracle explains, one that no repair
    explains, a scorer that prints no score, and a synth spec."""
    root = tmp_path_factory.mktemp("reports")
    paths = {"missing": str(root / "missing.csv")}
    specs = {
        "ok": ScenarioSpec("domain-remap", (PlantedCause("domain", "target"),), n_rows=200),
        "pair": ScenarioSpec("interaction-pair", (PlantedCause("missing", "p1"),
                                                  PlantedCause("missing", "p2")), n_rows=80),
    }
    for name, spec in specs.items():
        d_pass, d_fail, _ = generate(spec)
        save_csv(d_pass, root / f"{name}_pass.csv")
        save_csv(d_fail, root / f"{name}_fail.csv")
        paths[f"{name}_pass"] = str(root / f"{name}_pass.csv")
        paths[f"{name}_fail"] = str(root / f"{name}_fail.csv")
    paths["oracle"] = ground_truth(specs["ok"])["oracle"]
    (root / "garbage.py").write_text("print('garbage')\n")
    paths["garbage"] = shlex.join([sys.executable, str(root / "garbage.py")])
    (root / "spec.json").write_text(json.dumps(specs["ok"].to_json_dict()))
    paths["spec"] = str(root / "spec.json")
    return paths


def _cases(s: dict, tmp_path: Path) -> dict:
    """case -> (exit code, argv, name in ``datacause.cli`` to make raise, or None)."""
    explain = ["explain", "--pass", s["ok_pass"], "--tau", "0.2"]
    ok = [*explain, "--fail", s["ok_fail"]]
    diff = ["diff", "--pass", s["ok_pass"], "--graph"]
    synth = ["synth", "--out-dir", str(tmp_path / "out")]
    return {
        "explain-0": (0, [*ok, "--oracle", s["oracle"]], None),
        "explain-2": (2, ["explain", "--pass", s["pair_pass"], "--fail", s["pair_fail"],
                          "--oracle", "builtin:interaction-pair?attributes=p1,p2",
                          "--tau", "0.2"], None),
        "explain-3": (3, [*ok, "--oracle", s["garbage"]], None),
        "explain-65": (65, [*explain, "--fail", s["missing"], "--oracle", s["oracle"]], None),
        "explain-70": (70, [*ok, "--oracle", s["oracle"]], "explain"),
        "profile-0": (0, ["profile", "--data", s["ok_fail"]], None),
        "profile-65": (65, ["profile", "--data", s["missing"]], None),
        "profile-70": (70, ["profile", "--data", s["ok_fail"]], "discover_profiles"),
        "diff-0": (0, [*diff, "--fail", s["ok_fail"]], None),
        "diff-65": (65, [*diff, "--fail", s["missing"]], None),
        "diff-70": (70, [*diff, "--fail", s["ok_fail"]], "discriminative_pvts"),
        "synth-0": (0, [*synth, "--spec", s["spec"]], None),
        "synth-65": (65, [*synth, "--spec", s["missing"]], None),
        "synth-70": (70, [*synth, "--spec", s["spec"]], "generate"),
    }


def _unexpected(*args, **kwargs):
    raise DatacauseError("unexpected")


# synth has neither --human nor --report
_CASES = [(f"{command}-{code}", mode)
          for command, codes in (("explain", (0, 2, 3, 65, 70)), ("profile", (0, 65, 70)),
                                 ("diff", (0, 65, 70)), ("synth", (0, 65, 70)))
          for code in codes
          for mode in (("json",) if command == "synth" else ("json", "report", "human"))]


@pytest.mark.parametrize("case, mode", _CASES, ids=[f"{c}-{m}" for c, m in _CASES])
def test_every_exit_path_reports_through_one_skeleton(capsys, monkeypatch, scenario,
                                                      tmp_path, case, mode):
    expected, argv, raising = _cases(scenario, tmp_path)[case]
    if raising:
        monkeypatch.setattr(datacause.cli, raising, _unexpected)
    report_path = tmp_path / "report.json"
    flags = {"json": [], "report": ["--report", str(report_path)],
             "human": ["--human", "--report", str(report_path)]}[mode]
    code = main([*argv, *flags])
    out = capsys.readouterr().out
    report = json.loads(report_path.read_text() if mode == "human" else out)
    assert code == report["exit_status"] == expected
    assert report["command"] == argv[0]
    assert SKELETON <= report.keys()
    assert ("error" in report) == (expected != 0)
    if raising:
        assert report["error"] == "unexpected"
    if jsonschema is not None:
        jsonschema.validate(report, REPORT_SCHEMA)
    if mode == "report":
        assert report_path.read_text() == out
    if mode == "human" and expected != 0:
        assert out.splitlines()[-1] == f"error: {report['error']}"


# --- inputs that used to escape as a traceback or the wrong exit code -------------


def _explain_argv(scenario, oracle):
    return ["explain", "--pass", scenario["ok_pass"], "--fail", scenario["ok_fail"],
            "--oracle", oracle, "--tau", "0.2"]


def _report_or_error_line(capsys, human):
    """The ``error`` of the JSON report, or of the last ``--human`` line."""
    out = capsys.readouterr().out
    if human:
        last = out.splitlines()[-1]
        assert last.startswith("error: ")
        return last[len("error: "):]
    return json.loads(out)["error"]


@pytest.mark.parametrize("command", ["profile", "diff", "explain"])
@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_csv_field_over_the_size_limit_exit_65(capsys, scenario, tmp_path, command, human):
    bad = tmp_path / "wide.csv"
    bad.write_text("a,b\n1," + "x" * 200_000 + "\n")
    inputs = {"profile": ["profile", "--data", str(bad)],
              "diff": ["diff", "--pass", scenario["ok_pass"], "--fail", str(bad)],
              "explain": ["explain", "--pass", scenario["ok_pass"], "--fail", str(bad),
                          "--oracle", scenario["oracle"], "--tau", "0.2"]}
    assert main([*inputs[command], *(["--human"] if human else [])]) == 65
    error = _report_or_error_line(capsys, human)
    assert error == f"{bad}: line 2: field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("oracle, expected, message", [
    ("python3 'x", 65, "--oracle"),
    ("", 65, "--oracle"),
    ("   ", 65, "--oracle"),
    ("/nonexistent/scorer", 3, "oracle could not start"),
    ("NOT_EXECUTABLE", 3, "oracle could not start"),
], ids=["unclosed-quote", "empty", "blank", "missing", "not-executable"])
@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_oracle_that_cannot_be_split_or_started(capsys, scenario, tmp_path, oracle,
                                                expected, message, human):
    if oracle == "NOT_EXECUTABLE":
        scorer = tmp_path / "scorer.py"
        scorer.write_text("print(0.0)\n")
        scorer.chmod(0o644)
        oracle = str(scorer)
    code = main([*_explain_argv(scenario, oracle), *(["--human"] if human else [])])
    assert code == expected
    assert message in _report_or_error_line(capsys, human)


@pytest.mark.parametrize("command", ["profile", "diff", "explain"])
@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_unwritable_report_path_exit_65(capsys, scenario, tmp_path, command, human):
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    inputs = {"profile": ["profile", "--data", scenario["ok_fail"]],
              "diff": ["diff", "--pass", scenario["ok_pass"], "--fail", scenario["ok_fail"]],
              "explain": _explain_argv(scenario, scenario["oracle"])}
    code = main([*inputs[command], "--report", str(target),
                 *(["--human"] if human else [])])
    out = capsys.readouterr().out
    assert code == 65
    assert not target.exists()
    if human:
        assert out.splitlines()[-1].startswith(f"error: {target}: cannot write the report")
        return
    report = json.loads(out)
    assert report["exit_status"] == 65
    assert report["error"].startswith(f"{target}: cannot write the report")
    assert SKELETON <= report.keys()
    if jsonschema is not None:
        jsonschema.validate(report, REPORT_SCHEMA)


def test_diff_graph_quotes_ids_holding_quotes_and_backslashes(capsys, tmp_path):
    names = ['a"b', "c\\"]
    header = '"a""b",c\\\n'
    (tmp_path / "pass.csv").write_text(header + "x,y\n" * 20)
    (tmp_path / "fail.csv").write_text(header + "x,y\n" * 10 + ",\n" * 10)
    code = main(["diff", "--pass", str(tmp_path / "pass.csv"),
                 "--fail", str(tmp_path / "fail.csv"), "--graph"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    triplets = {row["id"] for row in report["discriminative"]}
    lines = report["dot"].splitlines()
    assert lines[:2] == ["graph pvt_attributes {", "  rankdir=LR;"] and lines[-1] == "}"
    seen = set()
    for line in lines[2:-1]:
        assert DOT_ID.sub("ID", line).strip() in {
            "ID [shape=box];", "ID [shape=ellipse];", "ID -- ID;"}, line
        seen.update(re.sub(r"\\(.)", r"\1", q[1:-1]) for q in DOT_ID.findall(line))
    assert seen == triplets | set(names)
