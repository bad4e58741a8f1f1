"""The benchmark's three workloads: inputs, one explanation, its check.

Every input is built in ``setup`` from the workload seed, so datacause
receives only generated datasets and oracles. ``run`` is the timed part:
one explanation with a fresh oracle. ``check`` runs outside the timed
region and returns why an explanation is wrong, or None.

Functions are always looked up through their module at call time, so the
span recorder's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ORACLE_SCRIPT = Path(__file__).resolve().with_name("oracle_domain.py")


@dataclass
class Case:
    """One scenario of a workload's pool."""

    seed: int
    tau: float
    units: frozenset[str]  # attributes of the planted causes
    d_pass: object = None
    d_fail: object = None
    config: object = None
    oracle_arg: str = ""  # builtin:<family>?k=v&... of the library workloads
    oracles: list = field(default_factory=list)  # fresh, one per explanation
    argv: list[str] = field(default_factory=list)
    files: dict[str, Path] = field(default_factory=dict)
    candidates: dict | None = None  # cli: triplets by id, rebuilt for the checks


@dataclass
class Outcome:
    triplet_ids: tuple[str, ...]
    interventions: int
    accepted: int  # log entries whose repair lowered the score
    triplets: tuple = ()
    repaired: object = None

    def summary(self) -> tuple:
        """What a traced rerun must reproduce."""
        return self.triplet_ids, self.interventions, self.accepted


def unit_attributes(triplets) -> set[str]:
    """The attributes an explanation blames: the rewritten endpoint of a
    dependence repair, every attribute of any other profile."""
    out: set[str] = set()
    for t in triplets:
        out.update([t.perturb] if t.perturb else t.profile.attributes())
    return out


def parse_builtin(argument: str) -> tuple[str, dict[str, str]]:
    """``builtin:<family>?k=v&...`` as (family, params)."""
    family, _, query = argument[len("builtin:"):].partition("?")
    return family, dict(piece.partition("=")[::2] for piece in query.split("&") if piece)


def not_minimal(dc, triplets, d_fail, score, tau: float, seed: int) -> str | None:
    """Why the explanation is not deletion-minimal, or None when it is."""
    triplets = list(triplets)
    for i, t in enumerate(triplets):
        rest = triplets[:i] + triplets[i + 1:]
        try:
            partial = dc.transforms.compose(rest, d_fail, seed=seed).dataset
        except dc.errors.TransformFailure:
            continue
        if score(partial) <= tau:
            return f"not deletion-minimal: passes without {t.id}"
    return None


class LibraryWorkload:
    """``datacause.engine.explain`` on in-memory synth scenarios."""

    algorithm = ""

    def __init__(self, dc: SimpleNamespace, workdir: Path):
        self.dc = dc

    def spec(self, seed: int):
        raise NotImplementedError

    def setup(self, seeds, stock: int) -> list[Case]:
        dc = self.dc
        cases = []
        for seed in seeds:
            spec = self.spec(seed)
            d_pass, d_fail, _ = dc.synth.generate(spec)
            truth = dc.synth.ground_truth(spec)
            case = Case(seed, spec.tau, frozenset(u["attribute"] for u in truth["units"]),
                        d_pass, d_fail,
                        dc.engine.EngineConfig(tau=spec.tau, seed=seed, algorithm=self.algorithm))
            case.oracle_arg = truth["oracle"]
            case.oracles = [self.fresh_oracle(case) for _ in range(stock)]
            cases.append(case)
        return cases

    def fresh_oracle(self, case: Case):
        return self.dc.synth.build_builtin_oracle(*parse_builtin(case.oracle_arg))

    def run(self, case: Case) -> Outcome:
        result = self.dc.engine.explain(case.d_pass, case.d_fail, case.oracles.pop(), case.config)
        return Outcome(result.triplet_ids(), result.interventions,
                       sum(e.accepted for e in result.log.entries),
                       result.triplets, result.repaired)

    def check(self, case: Case, outcome: Outcome) -> str | None:
        blamed = unit_attributes(outcome.triplets)
        if blamed != case.units:
            return f"blames {sorted(blamed)}, planted {sorted(case.units)}"
        final = self.fresh_oracle(case).evaluate(outcome.repaired)
        if final > case.tau:
            return f"repaired dataset scores {final} above tau {case.tau}"
        verifier = self.fresh_oracle(case)
        return not_minimal(self.dc, outcome.triplets, case.d_fail, verifier.evaluate,
                           case.tau, case.seed)


class GtWide(LibraryWorkload):
    """Group testing over 128 candidates (domain-remap, 260 rows, 125 decoys)."""

    algorithm = "group_test"

    def spec(self, seed: int):
        synth = self.dc.synth
        return synth.ScenarioSpec("domain-remap", (synth.PlantedCause("domain", "target"),),
                                  n_rows=260, seed=seed, decoys=125)


class GreedyDeps(LibraryWorkload):
    """Greedy search for a dependence and a selectivity cause on 2 000 rows."""

    algorithm = "greedy"

    def spec(self, seed: int):
        synth = self.dc.synth
        return synth.ScenarioSpec(
            "dependence-bias",
            (synth.PlantedCause("dependence", "target"),
             synth.PlantedCause("selectivity", "usage_class")),
            n_rows=2000, seed=seed, tau=0.3)


class CliSubprocess:
    """``datacause explain --algorithm gt`` in-process on CSVs written by
    ``datacause synth``, scored by the external ``oracle_domain.py``."""

    def __init__(self, dc: SimpleNamespace, workdir: Path):
        self.dc = dc
        self.workdir = workdir

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.dc.cli.main(argv)
        return code, out.getvalue()

    def oracle_command(self, case: Case) -> list[str]:
        return [sys.executable, str(ORACLE_SCRIPT), "--domain", ",".join(sorted(case.units))]

    def setup(self, seeds, stock: int) -> list[Case]:
        cases = []
        for seed in seeds:
            out_dir = self.workdir / f"scenario-{seed}"
            out_dir.mkdir(parents=True, exist_ok=True)
            spec_path = out_dir / "spec.json"
            spec_path.write_text(json.dumps({
                "oracle_family": "domain-remap",
                "planted_causes": [{"kind": "domain", "attribute": "target"}],
                "n_rows": 1000, "seed": seed, "decoys": 20}), encoding="utf-8")
            code, text = self._cli(["synth", "--spec", str(spec_path), "--out-dir", str(out_dir)])
            if code != 0:
                raise RuntimeError(f"datacause synth exited {code}: {text}")
            truth = json.loads((out_dir / "ground_truth.json").read_text(encoding="utf-8"))
            case = Case(seed, truth["tau"], frozenset(u["attribute"] for u in truth["units"]))
            case.files = {"pass": out_dir / "pass.csv", "fail": out_dir / "fail.csv",
                          "repaired": out_dir / "repaired.csv"}
            case.argv = ["explain", "--pass", str(case.files["pass"]),
                         "--fail", str(case.files["fail"]),
                         "--oracle", shlex.join(self.oracle_command(case)),
                         "--tau", repr(case.tau), "--algorithm", "gt", "--seed", str(seed),
                         "--out-repaired", str(case.files["repaired"])]
            cases.append(case)
        return cases

    def run(self, case: Case) -> Outcome:
        code, text = self._cli(case.argv)
        report = json.loads(text)
        if code != 0:
            raise RuntimeError(f"datacause explain exited {code}: {report.get('error')}")
        explanation = report["explanation"]
        return Outcome(tuple(t["id"] for t in explanation["triplets"]),
                       explanation["interventions"],
                       sum(e["accepted"] for e in explanation["log"]["entries"]))

    def check(self, case: Case, outcome: Outcome) -> str | None:
        dc = self.dc
        if case.candidates is None:  # rebuilt once, the way the CLI read its inputs
            case.d_pass = dc.tabular.load_csv(case.files["pass"])
            case.d_fail = dc.tabular.load_csv(case.files["fail"])
            config = dc.engine.EngineConfig(tau=case.tau, seed=case.seed)
            case.candidates = {t.id: t for t in dc.engine.discriminative_pvts(
                case.d_pass, case.d_fail, config)}
        try:
            triplets = [case.candidates[i] for i in outcome.triplet_ids]
        except KeyError as exc:
            return f"explanation names an unknown candidate {exc}"
        blamed = unit_attributes(triplets)
        if blamed != case.units:
            return f"blames {sorted(blamed)}, planted {sorted(case.units)}"
        proc = subprocess.run(self.oracle_command(case) + [str(case.files["repaired"])],
                              capture_output=True, text=True, timeout=60, check=True)
        final = float(proc.stdout.split()[-1])
        if final > case.tau:
            return f"--out-repaired scores {final} above tau {case.tau}"
        spec = dc.oracle.ExternalOracleSpec(tuple(self.oracle_command(case)) + ("{dataset}",))
        verifier = dc.oracle.SubprocessOracle(spec)
        return not_minimal(dc, triplets, case.d_fail, verifier.evaluate, case.tau, case.seed)


WORKLOADS = {"gt-wide": GtWide, "greedy-deps": GreedyDeps, "cli-subprocess": CliSubprocess}
