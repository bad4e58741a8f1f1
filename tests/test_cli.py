from __future__ import annotations

import json
import os
import shlex
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import datacause.cli
from datacause.cli import main
from datacause.errors import DatacauseError
from datacause.synth import PlantedCause, ScenarioSpec, generate
from datacause.tabular import load_csv, save_csv

FIXTURES = Path(__file__).parent / "fixtures"
REPORT_SCHEMA = Path(__file__).parents[1] / "docs" / "report_schema.json"


@pytest.fixture
def sentiment_dir(tmp_path, capsys):
    """Synth fixture on disk: pass.csv / fail.csv / oracle.json / ground_truth.json."""
    spec = {
        "oracle_family": "domain-remap",
        "planted_causes": [{"kind": "domain", "attribute": "target"}],
        "n_rows": 200,
        "seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "scenario"
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()  # drain the synth report
    return out_dir


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- explain ----------------------------------------------------------------


def test_explain_sentiment_fixture(capsys, sentiment_dir, tmp_path):
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    report_path = tmp_path / "report.json"
    repaired_path = tmp_path / "repaired.csv"
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", oracle["oracle"],
        "--tau", str(oracle["tau"]),
        "--seed", "0",
        "--report", str(report_path),
        "--out-repaired", str(repaired_path),
    ])
    assert code == 0
    triplets = report["explanation"]["triplets"]
    assert len(triplets) == 1
    assert triplets[0]["profile"]["attribute"] == "target"
    assert triplets[0]["profile"]["kind"].startswith("domain_")
    assert report["explanation"]["final_score"] <= oracle["tau"]
    # report is also persisted, and the repaired dataset really passes
    persisted = json.loads(report_path.read_text())
    assert persisted["explanation"]["triplets"] == triplets
    repaired = load_csv(repaired_path)
    assert repaired.row_count == 200


def test_explain_validation_error_before_interventions(capsys, sentiment_dir):
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "fail.csv"),  # swapped on purpose
        "--fail", str(sentiment_dir / "pass.csv"),
        "--oracle", oracle["oracle"],
        "--tau", str(oracle["tau"]),
    ])
    assert code == 65
    assert "above tau" in report["error"]


def test_explain_gt_and_gt_random(capsys, sentiment_dir):
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    counts = {}
    for algorithm in ("gt", "gt-random"):
        code, report = run(capsys, [
            "explain",
            "--pass", str(sentiment_dir / "pass.csv"),
            "--fail", str(sentiment_dir / "fail.csv"),
            "--oracle", oracle["oracle"],
            "--tau", str(oracle["tau"]),
            "--algorithm", algorithm,
            "--seed", "1",
        ])
        assert code == 0
        counts[algorithm] = report["explanation"]["interventions"]
    assert all(c >= 1 for c in counts.values())


def test_explain_reports_are_reproducible(capsys, sentiment_dir):
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    argv = [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", oracle["oracle"],
        "--tau", str(oracle["tau"]),
        "--seed", "7",
    ]
    code_a, report_a = run(capsys, argv)
    code_b, report_b = run(capsys, argv)
    assert code_a == code_b == 0
    report_a.pop("timing_seconds")
    report_b.pop("timing_seconds")
    assert report_a == report_b


def test_explain_with_subprocess_oracle(capsys, sentiment_dir, tmp_path):
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent("""\
        import csv, sys
        with open(sys.argv[1], newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = sum(1 for row in rows
                  if row["target"] not in ("-1", "1", "-1.0", "1.0"))
        print(bad / len(rows))
        """))
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", f"{sys.executable} {script}",
        "--tau", "0.2",
    ])
    assert code == 0
    assert report["explanation"]["final_score"] <= 0.2


def test_explain_oracle_protocol_error_exit_3(capsys, sentiment_dir, tmp_path):
    script = tmp_path / "broken.py"
    script.write_text("print('garbage')\n")
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", f"{sys.executable} {script}",
        "--tau", "0.2",
    ])
    assert code == 3
    assert "error" in report


def raw_scorer(tmp_path, output: str) -> str:
    """An oracle command whose scorer writes ``output``, a bytes expression
    over the sentiment fixture's ``score``, to stdout undecoded."""
    script = tmp_path / "raw.py"
    script.write_text(textwrap.dedent(f"""\
        import csv, sys
        with open(sys.argv[1], newline="") as fh:
            rows = list(csv.DictReader(fh))
        score = sum(row["target"] not in ("-1.0", "1.0") for row in rows) / len(rows)
        sys.stdout.buffer.write({output})
        """))
    return f"{sys.executable} {script}"


def explain_with(capsys, sentiment_dir, oracle):
    return run(capsys, ["explain", "--pass", str(sentiment_dir / "pass.csv"),
                        "--fail", str(sentiment_dir / "fail.csv"),
                        "--oracle", oracle, "--tau", "0.2"])


def test_explain_scorer_output_that_does_not_decode_before_its_score(capsys, sentiment_dir,
                                                                     tmp_path):
    oracle = raw_scorer(tmp_path, 'b"progress \\xff\\n" + f"{score}\\n".encode()')
    code, report = explain_with(capsys, sentiment_dir, oracle)
    assert code == 0
    assert report["explanation"]["final_score"] <= 0.2


def test_explain_scorer_last_line_that_does_not_decode_exit_3(capsys, sentiment_dir, tmp_path):
    code, report = explain_with(capsys, sentiment_dir, raw_scorer(tmp_path, 'b"0.5\\n\\xff\\n"'))
    assert code == 3
    assert report["error"] == "oracle output not a score: '\ufffd'"


def test_explain_scorer_that_prints_nothing_exit_3(capsys, sentiment_dir, tmp_path):
    code, report = explain_with(capsys, sentiment_dir, raw_scorer(tmp_path, 'b""'))
    assert code == 3
    assert report["error"] == "oracle printed no output"


def test_explain_no_explanation_exit_2(capsys, tmp_path):
    d_pass, d_fail, _ = generate(ScenarioSpec(
        oracle_family="interaction-pair",
        planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
        n_rows=80, seed=0))
    save_csv(d_pass, tmp_path / "pass.csv")
    save_csv(d_fail, tmp_path / "fail.csv")
    code, report = run(capsys, [
        "explain",
        "--pass", str(tmp_path / "pass.csv"),
        "--fail", str(tmp_path / "fail.csv"),
        "--oracle", "builtin:interaction-pair?attributes=p1,p2",
        "--tau", "0.2",
        "--algorithm", "greedy",
    ])
    assert code == 2
    assert report["log"]["entries"]


def test_explain_repair_emptying_the_dataset_exits_2(capsys, tmp_path):
    (tmp_path / "pass.csv").write_text("c1,c2\n" + "a,b\nb,a\n" * 5)
    (tmp_path / "fail.csv").write_text("c1,c2\n" + "a,a\n" * 10)
    code, report = run(capsys, [
        "explain",
        "--pass", str(tmp_path / "pass.csv"),
        "--fail", str(tmp_path / "fail.csv"),
        "--oracle", "builtin:skew-timeout?attribute=c1&value=a&limit=0.3",
        "--tau", "0.5",
    ])
    assert code == 2
    assert any("would delete every row" in note for note in report["log"]["notes"])


@pytest.mark.parametrize("oracle", [
    "builtin:skew-timeout?attribute=target&value=1&limit=abc",
    "builtin:skew-timeout?attribute=target&value=1&limit=1",
    "builtin:dependence-bias?target=target&protected=target&skew=target&skew_limit=1",
    "builtin:domain-remap?domain=target&allowed=x",
    "builtin:domain-remap?domain=target&logic=disjunctve",
    "builtin:domain-remap?domain=target&logci=disjunctive",
    "builtin:skew-timeout?attribute=target&value=1&limt=0.9",
])
def test_explain_bad_builtin_oracle_parameter_exit_65(capsys, sentiment_dir, oracle):
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", oracle,
        "--tau", "0.2",
    ])
    assert code == 65
    assert report["exit_status"] == 65


@pytest.mark.parametrize("timeout", ["nan", "inf", "3e6", "0", "-1"])
def test_explain_oracle_timeout_outside_its_range_exit_65(capsys, sentiment_dir, timeout):
    scorer = shlex.join([sys.executable, "-c", "print(0.0)"])
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", scorer,
        "--tau", "0.2",
        f"--oracle-timeout={timeout}",
    ])
    assert code == 65
    assert "oracle timeout" in report["error"]


def test_bad_flags_exit_64(capsys):
    assert main(["explain", "--pass", "x.csv"]) == 64
    assert main(["nonsense"]) == 64


def test_module_runs_as_a_script():
    src = str(Path(datacause.cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "datacause.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    version = cli("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == datacause.__version__
    assert cli("--no-such-flag").returncode == 64


# --- profile / diff -------------------------------------------------------------


def test_profile_people(capsys):
    code, report = run(capsys, ["profile", "--data", str(FIXTURES / "people_fail.csv")])
    assert code == 0
    kinds = {p["kind"] for p in report["profiles"]}
    assert "missing_rate" in kinds and "outlier_rate" in kinds
    assert report["row_count"] == 10


def test_profile_empty_csv(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b\n")
    code, report = run(capsys, ["profile", "--data", str(path)])
    assert code == 0
    assert report["profiles"] == []


def test_profile_missing_file(capsys, tmp_path):
    code, report = run(capsys, ["profile", "--data", str(tmp_path / "nope.csv")])
    assert code == 65


def test_diff_people(capsys):
    code, report = run(capsys, [
        "diff",
        "--pass", str(FIXTURES / "people_pass.csv"),
        "--fail", str(FIXTURES / "people_fail.csv"),
        "--graph",
    ])
    assert code == 0
    ids = [row["id"] for row in report["discriminative"]]
    assert any(i.startswith("missing_rate(zip_code)") for i in ids)
    assert any(i.startswith("chi_square_dependence(high_expenditure,race)") for i in ids)
    assert any("gender=F&high_expenditure=yes" in i for i in ids)
    assert report["attribute_degrees"]["high_expenditure"] >= 2
    assert report["dot"].startswith("graph pvt_attributes {")
    for row in report["discriminative"]:
        assert 0.0 <= row["violation"] <= 1.0


def test_diff_reports_no_coverage_nor_benefit_where_coverage_raises(capsys, monkeypatch):
    from datacause.errors import TransformFailure
    real = datacause.cli.coverage

    def coverage_or_fail(dataset, triplet, **kwargs):
        if triplet.profile.kind.value == "missing_rate":
            raise TransformFailure("forced failure", best_violation=1.0)
        return real(dataset, triplet, **kwargs)

    monkeypatch.setattr(datacause.cli, "coverage", coverage_or_fail)
    code, report = run(capsys, [
        "diff",
        "--pass", str(FIXTURES / "people_pass.csv"),
        "--fail", str(FIXTURES / "people_fail.csv"),
    ])
    assert code == 0
    rows = report["discriminative"]
    assert any(row["id"].startswith("missing_rate(") for row in rows)
    for row in rows:
        failed = row["id"].startswith("missing_rate(")
        assert (row["coverage"] is None) == failed
        assert (row["benefit"] is None) == failed
        assert 0.0 <= row["violation"] <= 1.0


def test_diff_self_is_empty(capsys):
    code, report = run(capsys, [
        "diff",
        "--pass", str(FIXTURES / "people_fail.csv"),
        "--fail", str(FIXTURES / "people_fail.csv"),
    ])
    assert code == 0
    assert report["discriminative"] == []


def test_human_rendering(capsys):
    code = main(["diff",
                 "--pass", str(FIXTURES / "people_pass.csv"),
                 "--fail", str(FIXTURES / "people_fail.csv"),
                 "--human"])
    out = capsys.readouterr().out
    assert code == 0
    assert "discriminative triplet(s)" in out


def test_explain_human_rendering(capsys, sentiment_dir):
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    argv = ["explain", "--pass", str(sentiment_dir / "pass.csv"),
            "--fail", str(sentiment_dir / "fail.csv"),
            "--oracle", oracle["oracle"], "--tau", str(oracle["tau"])]
    _, report = run(capsys, argv)
    assert main([*argv, "--human"]) == 0
    explanation = report["explanation"]
    assert capsys.readouterr().out.splitlines() == [
        f"explanation ({len(explanation['triplets'])} repair(s), "
        f"{explanation['interventions']} interventions, final score "
        f"{explanation['final_score']:.4g}):",
        *(f"  - {t['id']}" for t in explanation["triplets"])]


@pytest.mark.parametrize("command", ["profile", "diff"])
def test_human_rendering_shows_errors(capsys, tmp_path, command):
    bad = tmp_path / "dup.csv"
    bad.write_text("a,a\n1,2\n")
    inputs = {"profile": ["--data", str(bad)],
              "diff": ["--pass", str(bad), "--fail", str(tmp_path / "nope.csv")]}
    code = main([command, *inputs[command], "--human"])
    assert code == 65
    assert capsys.readouterr().out == f"error: {bad}: duplicate header\n"


@pytest.mark.parametrize("command", ["profile", "diff", "explain"])
@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_csv_that_is_not_utf8_exit_65(capsys, tmp_path, command, human):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"a,b\n\xff,1\n")
    good = str(FIXTURES / "people_fail.csv")
    inputs = {"profile": ["--data", str(bad)],
              "diff": ["--pass", good, "--fail", str(bad)],
              "explain": ["--pass", good, "--fail", str(bad),
                          "--oracle", "builtin:missing-flag?attribute=a", "--tau", "0.2"]}
    code = main([command, *inputs[command], *(["--human"] if human else [])])
    out = capsys.readouterr().out
    assert code == 65
    if human:
        assert out == f"error: {bad}: not valid UTF-8\n"
    else:
        report = json.loads(out)
        assert report["exit_status"] == 65
        assert report["error"] == f"{bad}: not valid UTF-8"


def test_csv_with_a_byte_order_mark_reads_as_without_it(capsys, sentiment_dir, tmp_path):
    plain, fail = sentiment_dir / "pass.csv", sentiment_dir / "fail.csv"
    marked = tmp_path / "marked.csv"  # as spreadsheets save "CSV UTF-8"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_csv(marked).schema == load_csv(plain).schema
    assert load_csv(marked).fingerprint == load_csv(plain).fingerprint
    code, report = run(capsys, ["diff", "--pass", str(marked), "--fail", str(plain)])
    assert (code, report["discriminative"]) == (0, [])
    triplets = [run(capsys, ["diff", "--pass", str(d_pass), "--fail", str(fail)])[1]
                ["discriminative"] for d_pass in (plain, marked)]
    assert triplets[0] == triplets[1] != []


def test_empty_csv_exit_65(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    code, report = run(capsys, ["profile", "--data", str(empty)])
    assert code == 65
    assert report["error"] == f"{empty}: empty file, header row required"


@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_explain_on_different_schemas_exit_65_before_scoring(capsys, tmp_path, human):
    d_pass, d_fail = tmp_path / "pass.csv", tmp_path / "fail.csv"
    d_pass.write_text("a,b\n1,x\n2,y\n")
    d_fail.write_text("a,c\n1,x\n2,y\n")
    code = main(["explain", "--pass", str(d_pass), "--fail", str(d_fail),
                 "--oracle", "builtin:missing-flag?attribute=a", "--tau", "0.2",
                 *(["--human"] if human else [])])
    out = capsys.readouterr().out
    assert code == 65
    if human:
        assert out == "error: pass and fail datasets must share a schema\n"
    else:
        report = json.loads(out)
        assert report["exit_status"] == 65
        assert report["error"] == "pass and fail datasets must share a schema"


@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_explain_on_an_empty_dataset_exit_65_before_scoring(capsys, tmp_path, human):
    d_pass, d_fail = tmp_path / "pass.csv", tmp_path / "fail.csv"
    d_pass.write_text("a,b\n")
    d_fail.write_text("a,b\n")
    calls = tmp_path / "calls"
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent(f"""\
        import csv, sys
        open({str(calls)!r}, "a").write("call\\n")
        with open(sys.argv[1], newline="") as fh:
            rows = list(csv.DictReader(fh))
        print(sum(row["b"] != "x" for row in rows) / len(rows))
        """))
    code = main(["explain", "--pass", str(d_pass), "--fail", str(d_fail),
                 "--oracle", f"{sys.executable} {script}", "--tau", "0.2",
                 *(["--human"] if human else [])])
    out = capsys.readouterr().out
    assert code == 65
    assert not calls.exists()
    if human:
        assert out == "error: every pass and fail dataset needs at least one row\n"
    else:
        report = json.loads(out)
        assert report["exit_status"] == 65
        assert report["error"] == "every pass and fail dataset needs at least one row"
        assert "log" not in report


# --- synth -----------------------------------------------------------------------


def test_synth_writes_expected_files(sentiment_dir):
    names = {p.name for p in sentiment_dir.iterdir()}
    assert names == {"pass.csv", "fail.csv", "oracle.json", "ground_truth.json"}
    truth = json.loads((sentiment_dir / "ground_truth.json").read_text())
    assert truth["units"] == [{"attribute": "target", "cause_kinds": ["domain"]}]


def test_synth_round_trip_recovers_cause(capsys, sentiment_dir):
    # already exercised by test_explain_sentiment_fixture; assert the ground
    # truth names the attribute the explanation used
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    truth = json.loads((sentiment_dir / "ground_truth.json").read_text())
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", oracle["oracle"],
        "--tau", str(oracle["tau"]),
    ])
    assert code == 0
    explained = {t["profile"].get("attribute") for t in report["explanation"]["triplets"]}
    assert explained == {u["attribute"] for u in truth["units"]}


def test_synth_deterministic_bytes(tmp_path):
    spec = {
        "oracle_family": "skew-timeout",
        "planted_causes": [{"kind": "selectivity", "attribute": "plate_type"}],
        "n_rows": 120,
        "seed": 4,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "fail.csv").read_bytes() == \
        (tmp_path / "b" / "fail.csv").read_bytes()
    assert (tmp_path / "a" / "pass.csv").read_bytes() == \
        (tmp_path / "b" / "pass.csv").read_bytes()


def test_synth_disjunctive_ground_truth(tmp_path, capsys):
    spec = {
        "oracle_family": "domain-remap",
        "cause_logic": "disjunctive",
        "planted_causes": [
            {"kind": "domain", "attribute": "t1"},
            {"kind": "missing", "attribute": "t1"},
            {"kind": "domain", "attribute": "t2"},
            {"kind": "missing", "attribute": "t2"},
        ],
        "n_rows": 120,
        "seed": 2,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(out)]) == 0
    truth = json.loads((out / "ground_truth.json").read_text())
    assert len(truth["admissible_minimal_explanations"]) == 2


def test_synth_spec_that_is_not_json_exit_65(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{not json")
    code, report = run(capsys, ["synth", "--spec", str(spec_path),
                                "--out-dir", str(tmp_path / "out")])
    assert code == 65
    assert report["error"].startswith(f"{spec_path}: not a JSON scenario spec: ")
    assert not (tmp_path / "out").exists()


def test_synth_invalid_spec_exit_65(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"oracle_family": "domain-remap",
                                     "planted_causes": [], "n_rows": 120}))
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")]) == 65


@pytest.mark.parametrize("field, value", [
    ("attribute", 5), ("attribute", ""), ("attribute", "a,b"), ("attribute", "a&b"),
    ("attribute", "review_note"), ("n_rows", 40.9), ("n_attributes", -2),
], ids=repr)
def test_synth_bad_spec_field_exit_65(tmp_path, capsys, field, value):
    spec = {"oracle_family": "domain-remap",
            "planted_causes": [{"kind": "domain", "attribute": "target"}], "n_rows": 40}
    if field == "attribute":
        spec["planted_causes"][0]["attribute"] = value
    else:
        spec[field] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, report = run(capsys, ["synth", "--spec", str(spec_path),
                                "--out-dir", str(tmp_path / "o")])
    assert code == 65
    assert report["exit_status"] == 65
    assert not (tmp_path / "o").exists()


def test_diff_empty_datasets(capsys, tmp_path):
    (tmp_path / "e.csv").write_text("a,b\n")
    code, report = run(capsys, [
        "diff", "--pass", str(tmp_path / "e.csv"), "--fail", str(tmp_path / "e.csv")])
    assert code == 0
    assert report["discriminative"] == []


def test_explain_missing_file_exit_65(capsys, tmp_path):
    code, report = run(capsys, [
        "explain", "--pass", str(tmp_path / "nope.csv"),
        "--fail", str(tmp_path / "nope.csv"),
        "--oracle", "builtin:missing-flag?attribute=a", "--tau", "0.2"])
    assert code == 65


def test_explain_remap_override_flag(capsys, sentiment_dir, tmp_path):
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    remap_path = tmp_path / "remap.json"
    remap_path.write_text(json.dumps({"target": {"0.0": "-1.0", "4.0": "1.0"}}))
    code, report = run(capsys, [
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", oracle["oracle"],
        "--tau", str(oracle["tau"]),
        "--remap", str(remap_path),
    ])
    assert code == 0


@pytest.mark.parametrize("content", [
    "{not json", b"\xff\xfe", '["x"]', '{"target": "1.0"}', '{"target": {"0.0": 1}}',
], ids=["invalid-json", "not-utf8", "not-an-object", "value-not-an-object",
        "replacement-not-a-string"])
@pytest.mark.parametrize("human", [False, True], ids=["json", "human"])
def test_explain_invalid_remap_file_exit_65(capsys, sentiment_dir, tmp_path, content, human):
    oracle = json.loads((sentiment_dir / "oracle.json").read_text())
    remap_path = tmp_path / "remap.json"
    if isinstance(content, bytes):
        remap_path.write_bytes(content)
    else:
        remap_path.write_text(content)
    code = main([
        "explain",
        "--pass", str(sentiment_dir / "pass.csv"),
        "--fail", str(sentiment_dir / "fail.csv"),
        "--oracle", oracle["oracle"],
        "--tau", str(oracle["tau"]),
        "--remap", str(remap_path),
        *(["--human"] if human else []),
    ])
    out = capsys.readouterr().out
    assert code == 65
    if human:
        assert out.startswith("error: ") and "remap" in out
    else:
        report = json.loads(out)
        assert report["exit_status"] == 65
        assert "remap" in report["error"]
        assert "explanation" not in report


# --- report schema --------------------------------------------------------------


def _schema_cases(scenario, tmp_path):
    oracle = json.loads((scenario / "oracle.json").read_text())
    pass_csv, fail_csv = str(scenario / "pass.csv"), str(scenario / "fail.csv")
    missing = str(tmp_path / "missing.csv")
    spec = scenario.parent / "spec.json"
    explain = ["explain", "--oracle", oracle["oracle"], "--tau", str(oracle["tau"])]
    return {
        "explain": (0, [*explain, "--pass", pass_csv, "--fail", fail_csv]),
        "explain-error": (65, [*explain, "--pass", pass_csv, "--fail", missing]),
        "profile": (0, ["profile", "--data", fail_csv]),
        "profile-error": (65, ["profile", "--data", missing]),
        "diff": (0, ["diff", "--pass", pass_csv, "--fail", fail_csv, "--graph"]),
        "diff-error": (65, ["diff", "--pass", missing, "--fail", fail_csv]),
        "synth": (0, ["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]),
        "synth-error": (65, ["synth", "--spec", missing, "--out-dir", str(tmp_path / "o")]),
    }


@pytest.mark.parametrize("case", ["explain", "explain-error", "profile", "profile-error",
                                  "diff", "diff-error", "synth", "synth-error"])
def test_reports_match_the_report_schema(capsys, sentiment_dir, tmp_path, case):
    jsonschema = pytest.importorskip("jsonschema")
    expected, argv = _schema_cases(sentiment_dir, tmp_path)[case]
    code, report = run(capsys, argv)
    assert code == report["exit_status"] == expected
    jsonschema.validate(report, json.loads(REPORT_SCHEMA.read_text()))
    assert report["command"] == argv[0]


def test_unexpected_error_report_matches_the_report_schema(capsys, sentiment_dir, tmp_path,
                                                           monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")

    def fail(*args, **kwargs):
        raise DatacauseError("unexpected")

    monkeypatch.setattr(datacause.cli, "explain", fail)
    code, report = run(capsys, _schema_cases(sentiment_dir, tmp_path)["explain"][1])
    assert code == report["exit_status"] == 70
    jsonschema.validate(report, json.loads(REPORT_SCHEMA.read_text()))
    assert report["command"] == "explain"
    assert report["error"] == "unexpected"
