"""Command-line frontend: explain, profile, diff, and synth subcommands.

Every command emits a machine-readable JSON report on stdout (and
optionally to a file); ``--human`` renders a compact table instead.

Exit codes: 0 success, 2 no explanation found, 3 oracle protocol/failure,
64 bad flags, 65 invalid input data or scenario spec, 70 unexpected error.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import time
from pathlib import Path

from . import __version__
from .engine import EngineConfig, Explanation, discriminative_pvts, explain
from .errors import (
    ColumnTypeError,
    CsvParseError,
    DatacauseError,
    DegenerateInputError,
    NoExplanationFound,
    OracleError,
    PredicateError,
    ScenarioSpecError,
    SchemaError,
    ValidationError,
)
from .graph import attribute_degrees, attribute_graph_to_dot
from .oracle import ExternalOracleSpec, MalfunctionOracle, SubprocessOracle, check_timeout
from .profiles import discover_profiles, violation
from .synth import ScenarioSpec, builtin_oracle, generate, ground_truth
from .tabular import TallyScope, load_csv, save_csv
from .transforms import coverage

REPORT_SCHEMA_VERSION = 1

_DATA_ERRORS = (CsvParseError, SchemaError, ValidationError, ScenarioSpecError,
                DegenerateInputError, ColumnTypeError, PredicateError, OSError)

EXIT_OK = 0
EXIT_NO_EXPLANATION = 2
EXIT_ORACLE = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70

#: the first entry whose exception types match gives an error's exit code
_EXIT_CODES = ((NoExplanationFound, EXIT_NO_EXPLANATION), (OracleError, EXIT_ORACLE),
               (_DATA_ERRORS, EXIT_DATA), (DatacauseError, EXIT_SOFTWARE))

_ALGORITHM_FLAGS = {"greedy": "greedy", "gt": "group_test", "gt-random": "group_test_random"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="datacause",
                     description="Explain why a black-box system fails on one "
                                 "dataset but not another.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explain", help="search for a minimal causal explanation")
    ex.add_argument("--pass", dest="pass_csv", required=True, metavar="CSV")
    ex.add_argument("--fail", dest="fail_csv", required=True, metavar="CSV")
    ex.add_argument("--oracle", required=True,
                    help="scorer command, or builtin:<family>?k=v&...")
    ex.add_argument("--tau", type=float, required=True)
    ex.add_argument("--algorithm", choices=sorted(_ALGORITHM_FLAGS), default="greedy")
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--max-interventions", type=int, default=1000)
    ex.add_argument("--oracle-timeout", type=float, default=30.0)
    ex.add_argument("--remap", metavar="JSON",
                    help="per-attribute categorical replacements overriding the "
                         "frequency-rank alignment")
    ex.add_argument("--out-repaired", metavar="CSV")
    ex.add_argument("--report", metavar="JSON")
    ex.add_argument("--human", action="store_true")

    pr = sub.add_parser("profile", help="list every profile a dataset satisfies")
    pr.add_argument("--data", required=True, metavar="CSV")
    pr.add_argument("--report", metavar="JSON")
    pr.add_argument("--human", action="store_true")

    df = sub.add_parser("diff", help="list discriminative triplets between two datasets")
    df.add_argument("--pass", dest="pass_csv", required=True, metavar="CSV")
    df.add_argument("--fail", dest="fail_csv", required=True, metavar="CSV")
    df.add_argument("--graph", action="store_true",
                    help="also emit the triplet-attribute graph as DOT")
    df.add_argument("--report", metavar="JSON")
    df.add_argument("--human", action="store_true")

    sy = sub.add_parser("synth", help="generate a synthetic pass/fail scenario")
    sy.add_argument("--spec", required=True, metavar="JSON")
    sy.add_argument("--out-dir", required=True, metavar="DIR")
    sy.set_defaults(report=None, human=False)
    return parser


def _make_oracle(argument: str, timeout: float, seed: int) -> MalfunctionOracle:
    check_timeout(timeout)  # for every oracle kind, though only a scorer command uses it
    if argument.startswith("builtin:"):
        return builtin_oracle(argument)
    try:
        command = shlex.split(argument)
    except ValueError as exc:  # e.g. no closing quotation
        raise ValidationError(f"--oracle {argument!r}: {exc}") from None
    if not command:
        raise ValidationError("--oracle: empty scorer command")
    if not any("{dataset}" in part for part in command):
        command.append("{dataset}")
    return SubprocessOracle(ExternalOracleSpec(tuple(command), timeout=timeout), seed=seed)


def _read_json(path: str, error: type[DatacauseError], what: str):
    """The JSON value in the file at ``path``; a file that is not JSON or not
    UTF-8 raises ``error``, saying that it is not ``what``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or UTF-8
        raise error(f"{path}: not {what}: {exc}") from None


def _run_report(args, body) -> int:
    """Run ``body(args, report, human)`` and emit its report.

    The one place that builds a report, maps an error to its exit code,
    writes ``--report`` and prints. ``human`` is the list of ``--human``
    lines, or None for JSON output; the body sets ``report["config"]``. The
    body runs in one :class:`TallyScope`, so it counts each column tuple once.
    """
    started = time.monotonic()
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": args.command,
        "exit_status": EXIT_OK,
        "timing_seconds": 0.0,
    }
    human: list[str] | None = [] if args.human else None
    try:
        with TallyScope():
            body(args, report, human)
    except (DatacauseError, OSError) as exc:
        report["exit_status"] = next(code for kinds, code in _EXIT_CODES
                                     if isinstance(exc, kinds))
        report["error"] = str(exc)
        if getattr(exc, "log", None) is not None:
            report["log"] = exc.log.to_json_dict()
    report["timing_seconds"] = round(time.monotonic() - started, 6)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        try:
            Path(args.report).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            report["exit_status"] = EXIT_DATA
            report["error"] = f"{args.report}: cannot write the report: {exc.strerror or exc}"
            text = json.dumps(report, indent=2, sort_keys=True)
    if human is not None:
        if "error" in report:
            human.append(f"error: {report['error']}")
        print("\n".join(human))
    else:
        print(text)
    return report["exit_status"]


def _explain(args, report: dict, human: list[str] | None) -> None:
    report["config"] = {
        "pass": args.pass_csv, "fail": args.fail_csv, "oracle": args.oracle,
        "tau": args.tau, "algorithm": args.algorithm, "seed": args.seed,
        "max_interventions": args.max_interventions,
    }
    d_pass = load_csv(args.pass_csv)
    d_fail = load_csv(args.fail_csv)
    oracle = _make_oracle(args.oracle, args.oracle_timeout, args.seed)
    remap = _read_json(args.remap, ValidationError, "a JSON remap file") if args.remap else None
    config = EngineConfig(
        tau=args.tau, seed=args.seed,
        max_interventions=args.max_interventions,
        algorithm=_ALGORITHM_FLAGS[args.algorithm],
        remap_overrides=remap,
    )
    result: Explanation = explain(d_pass, d_fail, oracle, config)
    report["explanation"] = result.to_json_dict()
    if args.out_repaired:
        save_csv(result.repaired, args.out_repaired)
        report["repaired_csv"] = args.out_repaired
    if human is not None:
        human.append(f"explanation ({len(result.triplets)} repair(s), "
                     f"{result.interventions} interventions, final score "
                     f"{result.final_score:.4g}):")
        for t in result.triplets:
            human.append(f"  - {t.id}")


def _profile(args, report: dict, human: list[str] | None) -> None:
    report["config"] = {"data": args.data}
    dataset = load_csv(args.data)
    profiles = [] if dataset.row_count == 0 else [
        p.to_json_dict() for p in discover_profiles(dataset)]
    report["profiles"] = profiles
    report["row_count"] = dataset.row_count
    report["fingerprint"] = dataset.fingerprint
    if human is not None:
        human.append(f"{len(profiles)} profile(s) over {dataset.row_count} rows")
        for p in profiles:
            human.append(f"  - {json.dumps(p, sort_keys=True)}")


def _diff(args, report: dict, human: list[str] | None) -> None:
    report["config"] = {"pass": args.pass_csv, "fail": args.fail_csv}
    d_pass = load_csv(args.pass_csv)
    d_fail = load_csv(args.fail_csv)
    if d_pass.attributes != d_fail.attributes:  # a header-only side infers no column types
        raise SchemaError("pass and fail datasets must share a schema")
    if d_pass.row_count == 0 or d_fail.row_count == 0:
        triplets = []
    else:
        triplets = discriminative_pvts(d_pass, d_fail)
    rows = []
    for t in triplets:
        v = violation(d_fail, t.profile)
        try:
            c = coverage(d_fail, t)
        except DatacauseError:
            c = None
        rows.append({
            "id": t.id,
            "profile": t.profile.to_json_dict(),
            "transform": t.transform_id,
            "violation": v,
            "coverage": c,
            "benefit": None if c is None else v * c,
        })
    report["discriminative"] = rows
    report["attribute_degrees"] = dict(attribute_degrees(t.profile for t in triplets))
    if args.graph:
        report["dot"] = attribute_graph_to_dot(triplets, d_fail.attributes)
    if human is not None:
        human.append(f"{len(rows)} discriminative triplet(s)")
        for row in rows:
            human.append(f"  - {row['id']}: violation={row['violation']:.4g} "
                         f"coverage={row['coverage']} benefit={row['benefit']}")


def _synth(args, report: dict, human: list[str] | None) -> None:
    report["config"] = {"spec": args.spec, "out_dir": args.out_dir}
    spec = ScenarioSpec.from_json_dict(_read_json(args.spec, ScenarioSpecError,
                                                  "a JSON scenario spec"))
    d_pass, d_fail, _ = generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(d_pass, out / "pass.csv")
    save_csv(d_fail, out / "fail.csv")
    truth = ground_truth(spec)
    (out / "oracle.json").write_text(
        json.dumps({"oracle": truth["oracle"], "tau": spec.tau}, indent=2) + "\n",
        encoding="utf-8")
    (out / "ground_truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    report["out_dir"] = str(out)
    report["files"] = ["pass.csv", "fail.csv", "oracle.json", "ground_truth.json"]


_COMMANDS = {"explain": _explain, "profile": _profile, "diff": _diff, "synth": _synth}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return _run_report(args, _COMMANDS[args.command])


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
