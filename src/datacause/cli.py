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
from .graph import attribute_graph_to_dot, build_pvt_attribute_graph
from .oracle import ExternalOracleSpec, MalfunctionOracle, SubprocessOracle
from .profiles import discover_profiles, violation
from .synth import ScenarioSpec, build_builtin_oracle, generate, ground_truth
from .tabular import load_csv, save_csv
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
    return parser


def _make_oracle(argument: str, timeout: float, seed: int) -> MalfunctionOracle:
    if argument.startswith("builtin:"):
        body = argument[len("builtin:"):]
        family, _, query = body.partition("?")
        params = {}
        if query:
            for piece in query.split("&"):
                key, _, value = piece.partition("=")
                params[key] = value
        return build_builtin_oracle(family, params)
    command = shlex.split(argument)
    if not any("{dataset}" in part for part in command):
        command.append("{dataset}")
    return SubprocessOracle(ExternalOracleSpec(tuple(command), timeout=timeout), seed=seed)


def _emit(report: dict, report_path: str | None, human_lines: list[str] | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if report_path:
        Path(report_path).write_text(text + "\n", encoding="utf-8")
    if human_lines is not None:
        print("\n".join(human_lines))
    else:
        print(text)


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": config,
        "exit_status": EXIT_OK,
        "timing_seconds": 0.0,
    }


def _cmd_explain(args) -> int:
    started = time.monotonic()
    report = _report_skeleton("explain", {
        "pass": args.pass_csv, "fail": args.fail_csv, "oracle": args.oracle,
        "tau": args.tau, "algorithm": args.algorithm, "seed": args.seed,
        "max_interventions": args.max_interventions,
    })
    human: list[str] | None = [] if args.human else None
    exit_code = EXIT_OK
    try:
        d_pass = load_csv(args.pass_csv)
        d_fail = load_csv(args.fail_csv)
        oracle = _make_oracle(args.oracle, args.oracle_timeout, args.seed)
        remap = None
        if args.remap:
            remap = json.loads(Path(args.remap).read_text(encoding="utf-8"))
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
    except NoExplanationFound as exc:
        report["error"] = str(exc)
        report["log"] = exc.log.to_json_dict() if exc.log is not None else None
        exit_code = EXIT_NO_EXPLANATION
    except OracleError as exc:
        report["error"] = str(exc)
        if exc.log is not None:
            report["log"] = exc.log.to_json_dict()
        exit_code = EXIT_ORACLE
    except _DATA_ERRORS as exc:
        report["error"] = str(exc)
        exit_code = EXIT_DATA
    report["exit_status"] = exit_code
    report["timing_seconds"] = round(time.monotonic() - started, 6)
    if human is not None and exit_code != EXIT_OK:
        human.append(f"error: {report.get('error', 'unknown')}")
    _emit(report, args.report, human)
    return exit_code


def _cmd_profile(args) -> int:
    started = time.monotonic()
    report = _report_skeleton("profile", {"data": args.data})
    human: list[str] | None = [] if args.human else None
    exit_code = EXIT_OK
    try:
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
    except _DATA_ERRORS as exc:
        report["error"] = str(exc)
        exit_code = EXIT_DATA
    report["exit_status"] = exit_code
    report["timing_seconds"] = round(time.monotonic() - started, 6)
    _emit(report, args.report, human)
    return exit_code


def _cmd_diff(args) -> int:
    started = time.monotonic()
    report = _report_skeleton("diff", {"pass": args.pass_csv, "fail": args.fail_csv})
    human: list[str] | None = [] if args.human else None
    exit_code = EXIT_OK
    try:
        d_pass = load_csv(args.pass_csv)
        d_fail = load_csv(args.fail_csv)
        if d_pass.row_count == 0 or d_fail.row_count == 0:
            triplets = []
        else:
            triplets = discriminative_pvts(d_pass, d_fail)
        graph = build_pvt_attribute_graph(triplets, d_fail)
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
        degrees = {a: graph.attribute_degree(a) for a in d_fail.attributes
                   if graph.attribute_degree(a)}
        report["discriminative"] = rows
        report["attribute_degrees"] = degrees
        if args.graph:
            report["dot"] = attribute_graph_to_dot(graph)
        if human is not None:
            human.append(f"{len(rows)} discriminative triplet(s)")
            for row in rows:
                human.append(f"  - {row['id']}: violation={row['violation']:.4g} "
                             f"coverage={row['coverage']} benefit={row['benefit']}")
    except _DATA_ERRORS as exc:
        report["error"] = str(exc)
        exit_code = EXIT_DATA
    report["exit_status"] = exit_code
    report["timing_seconds"] = round(time.monotonic() - started, 6)
    _emit(report, args.report, human)
    return exit_code


def _cmd_synth(args) -> int:
    try:
        spec_data = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        spec = ScenarioSpec.from_json_dict(spec_data)
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
        print(json.dumps({
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": "synth",
            "out_dir": str(out),
            "files": ["pass.csv", "fail.csv", "oracle.json", "ground_truth.json"],
            "exit_status": EXIT_OK,
        }, indent=2, sort_keys=True))
        return EXIT_OK
    except (ScenarioSpecError, ValueError, OSError) as exc:
        print(json.dumps({"command": "synth", "error": str(exc),
                          "exit_status": EXIT_DATA}, indent=2, sort_keys=True))
        return EXIT_DATA


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "diff":
            return _cmd_diff(args)
        return _cmd_synth(args)
    except DatacauseError as exc:
        print(json.dumps({"error": str(exc), "exit_status": EXIT_SOFTWARE},
                         indent=2, sort_keys=True))
        return EXIT_SOFTWARE


def entry() -> None:
    raise SystemExit(main())
