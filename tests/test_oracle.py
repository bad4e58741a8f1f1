from __future__ import annotations

import os
import stat
import sys
import tempfile
import textwrap

import pytest

from datacause import oracle as oracle_module
from datacause.errors import (
    OracleFailureError,
    OracleProtocolError,
    OracleTimeoutError,
    ScenarioSpecError,
    ValidationError,
)
from datacause.oracle import CallableOracle, ExternalOracleSpec, SubprocessOracle
from datacause.synth import build_builtin_oracle
from datacause.tabular import ColumnType, from_columns


def dataset_with_target(values):
    return from_columns([("target", ColumnType.CATEGORICAL, values)])


def write_script(tmp_path, body, name="oracle.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


def spec_for(tmp_path, body, timeout=20.0, name="oracle.py"):
    script = write_script(tmp_path, body, name=name)
    return ExternalOracleSpec((sys.executable, str(script), "{dataset}"), timeout=timeout)


# --- built-in scorers --------------------------------------------------------


def test_domain_remap_builtin_scores():
    oracle = build_builtin_oracle("domain-remap", {"domain": "target"})
    good = dataset_with_target(["-1", "1", "-1", "1"])
    bad = dataset_with_target(["0", "4", "0", "4"])
    assert oracle.evaluate(good) == 0.0
    assert oracle.evaluate(bad) == 1.0


def test_callable_oracle_cache_single_invocation():
    calls = []

    def scorer(dataset):
        calls.append(dataset.fingerprint)
        return 0.5

    oracle = CallableOracle(scorer)
    d = dataset_with_target(["1", "-1"])
    assert oracle.evaluate(d) == 0.5
    assert oracle.evaluate(d) == 0.5
    assert oracle.invocation_count == 1
    assert len(calls) == 1


def test_out_of_range_score_rejected():
    oracle = CallableOracle(lambda d: 1.5)
    with pytest.raises(OracleProtocolError):
        oracle.evaluate(dataset_with_target(["1"]))


# --- subprocess protocol --------------------------------------------------------


def test_subprocess_round_trip(tmp_path):
    spec = spec_for(tmp_path, """\
        import csv, sys
        with open(sys.argv[1], newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = sum(1 for row in rows if row["target"] not in ("-1", "1"))
        print("debug chatter")
        print(bad / len(rows))
        """)
    oracle = SubprocessOracle(spec, seed=7)
    assert oracle.evaluate(dataset_with_target(["0", "4", "1", "-1"])) == 0.5
    assert oracle.evaluate(dataset_with_target(["-1", "1"])) == 0.0


@pytest.mark.parametrize("exit_code, error", [(0, None), (3, OracleFailureError)])
def test_subprocess_input_csv_is_removed_after_each_call(tmp_path, monkeypatch, exit_code, error):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    seen = tmp_path / "seen.txt"
    spec = spec_for(tmp_path, f"""\
        import sys
        with open({str(seen)!r}, "w") as fh:
            fh.write(sys.argv[1])
        print(0.0)
        sys.exit({exit_code})
        """)
    oracle = SubprocessOracle(spec)
    if error is None:
        assert oracle.evaluate(dataset_with_target(["1"])) == 0.0
    else:
        with pytest.raises(error):
            oracle.evaluate(dataset_with_target(["1"]))
    path = seen.read_text()
    assert path.startswith(str(temp)) and path.endswith(".csv")
    assert list(temp.iterdir()) == []


def test_subprocess_cache_counts_invocations(tmp_path):
    marker = tmp_path / "calls.txt"
    spec = spec_for(tmp_path, f"""\
        import sys
        with open({str(marker)!r}, "a") as fh:
            fh.write("x")
        print(0.0)
        """)
    oracle = SubprocessOracle(spec)
    d = dataset_with_target(["1"])
    oracle.evaluate(d)
    oracle.evaluate(d)
    oracle.evaluate(d)
    assert marker.read_text() == "x"
    assert oracle.invocation_count == 1


def test_subprocess_seed_env(tmp_path):
    spec = spec_for(tmp_path, """\
        import os
        print(0.25 if os.environ.get("DATAEXPOSER_SEED") == "123" else 0.75)
        """)
    oracle = SubprocessOracle(spec, seed=123)
    assert oracle.evaluate(dataset_with_target(["1"])) == 0.25


@pytest.mark.parametrize("family, params", [
    ("skew-timeout", {"limit": "abc"}),
    ("skew-timeout", {"limit": "1"}),
    ("skew-timeout", {"limit": "-0.1"}),
    ("skew-timeout", {"limit": "nan"}),
    ("dependence-bias", {"skew": "usage_class", "skew_limit": "1"}),
    ("dependence-bias", {"skew_limit": "x"}),
    ("domain-remap", {"domain": "target", "allowed": "x"}),
    ("domain-remap", {"domain": "target", "allowed": "-1,"}),
], ids=repr)
def test_builtin_parameters_that_are_no_number_or_out_of_range_rejected(family, params):
    with pytest.raises(ScenarioSpecError):
        build_builtin_oracle(family, params)


@pytest.mark.parametrize("family, params", [
    ("domain-remap", {"domain": "t1,t2", "logic": "disjunctve"}),
    ("domain-remap", {"domain": "t1,t2", "logci": "disjunctive"}),
    ("skew-timeout", {"attribute": "t1", "limt": "0.9"}),
    ("dependence-bias", {"target": "t1", "protected": "t2", "attribute": "t1"}),
    ("interaction-pair", {"attributes": "t1,t2", "logic": "conjunctive"}),
    ("missing-flag", {"attribute": "t1", "value": "x"}),
], ids=repr)
def test_builtin_unknown_parameter_or_logic_rejected(family, params):
    with pytest.raises(ScenarioSpecError, match="logci|disjunctve|limt|attribute|logic|value"):
        build_builtin_oracle(family, params)


def test_builtin_parameters_each_family_reads_are_accepted():
    two_rows = from_columns([("t1", ColumnType.NUMERICAL, [0, 1]),
                             ("t2", ColumnType.NUMERICAL, [1, 1])])
    for logic, expected in (("conjunctive", 0.25), ("disjunctive", 0.0)):
        oracle = build_builtin_oracle("domain-remap", {
            "domain": "t1,t2", "missing": "t2", "logic": logic, "allowed": "-1,1"})
        assert oracle.evaluate(two_rows) == expected
    for family, params in [
        ("dependence-bias", {"target": "t1", "protected": "t2", "skew": "t1",
                             "skew_value": "1.0", "skew_limit": "0.2"}),
        ("skew-timeout", {"attribute": "t1", "value": "black", "limit": "0.3"}),
        ("interaction-pair", {"attributes": "t1,t2"}),
        ("missing-flag", {"attribute": "t1"}),
    ]:
        assert isinstance(build_builtin_oracle(family, params), CallableOracle)


def test_builtin_limit_zero_is_accepted():
    oracle = build_builtin_oracle("skew-timeout", {"attribute": "target", "value": "a",
                                                   "limit": "0"})
    assert oracle.evaluate(dataset_with_target(["a", "b"])) == 0.5


@pytest.mark.parametrize("timeout", [0, -1, 0.0, float("nan"), float("inf"), 3e6,
                                     True, "30", None], ids=repr)
def test_external_spec_timeout_out_of_range_or_of_the_wrong_type_rejected(timeout):
    with pytest.raises(ValidationError):
        ExternalOracleSpec(("scorer", "{dataset}"), timeout=timeout)


def test_external_spec_timeout_bounds():
    limit = oracle_module.MAX_ORACLE_TIMEOUT
    assert limit == 86_400
    for timeout in (1, 0.001, limit):
        assert ExternalOracleSpec(("scorer", "{dataset}"), timeout=timeout).timeout == timeout
    with pytest.raises(ValidationError):
        ExternalOracleSpec(("scorer", "{dataset}"), timeout=limit * 1.5)


def test_subprocess_timeout(tmp_path):
    spec = spec_for(tmp_path, """\
        import time
        time.sleep(5)
        print(0.0)
        """, timeout=0.4)
    oracle = SubprocessOracle(spec)
    with pytest.raises(OracleTimeoutError):
        oracle.evaluate(dataset_with_target(["1"]))


def test_subprocess_nonzero_exit(tmp_path):
    spec = spec_for(tmp_path, """\
        import sys
        sys.exit(3)
        """)
    oracle = SubprocessOracle(spec)
    with pytest.raises(OracleFailureError):
        oracle.evaluate(dataset_with_target(["1"]))


@pytest.mark.parametrize("executable", [False, True], ids=["not-executable", "missing"])
def test_subprocess_that_cannot_start_is_an_oracle_failure(tmp_path, executable):
    script = tmp_path / "scorer.py"
    if not executable:
        script.write_text("print(0.0)\n")
        script.chmod(0o644)
    oracle = SubprocessOracle(ExternalOracleSpec((str(script), "{dataset}")))
    with pytest.raises(OracleFailureError, match="oracle could not start") as caught:
        oracle.evaluate(dataset_with_target(["1"]))
    assert isinstance(caught.value.__cause__, OSError)


def test_subprocess_unparsable_output(tmp_path):
    spec = spec_for(tmp_path, """\
        print("not a score")
        """)
    oracle = SubprocessOracle(spec)
    with pytest.raises(OracleProtocolError):
        oracle.evaluate(dataset_with_target(["1"]))


def test_subprocess_out_of_range(tmp_path):
    spec = spec_for(tmp_path, """\
        print(7.5)
        """)
    oracle = SubprocessOracle(spec)
    with pytest.raises(OracleProtocolError):
        oracle.evaluate(dataset_with_target(["1"]))


def test_command_template_placeholder_validation():
    with pytest.raises(OracleProtocolError):
        ExternalOracleSpec(("python3", "oracle.py"))
    with pytest.raises(OracleProtocolError):
        ExternalOracleSpec(("python3", "{dataset}", "{dataset}"))


def test_subprocess_workdir(tmp_path):
    workdir = tmp_path / "wd"
    workdir.mkdir()
    (workdir / "threshold.txt").write_text("0.25")
    script = write_script(tmp_path, """\
        print(open("threshold.txt").read().strip())
        """)
    spec = ExternalOracleSpec((sys.executable, str(script), "{dataset}"),
                              timeout=20.0, workdir=str(workdir))
    oracle = SubprocessOracle(spec)
    assert oracle.evaluate(dataset_with_target(["1"])) == 0.25
