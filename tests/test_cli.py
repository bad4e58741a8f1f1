from __future__ import annotations

import json
import stat
import sys
import textwrap
from pathlib import Path

import pytest

from datacause.cli import main
from datacause.synth import PlantedCause, ScenarioSpec, generate
from datacause.tabular import load_csv, save_csv

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_bad_flags_exit_64(capsys):
    assert main(["explain", "--pass", "x.csv"]) == 64
    assert main(["nonsense"]) == 64


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


def test_synth_invalid_spec_exit_65(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"oracle_family": "domain-remap",
                                     "planted_causes": [], "n_rows": 120}))
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")]) == 65


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
