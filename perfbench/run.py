"""datacause benchmark: closed-loop explanations, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gt-wide --seed 0 --seconds 20 --trace 0

One caller runs one explanation after another (a closed loop, one
process, no extra threads), cycling through a pool of scenarios built from
``--seed``, until every scenario was explained once and ``--seconds``
seconds of explanation time were measured. Every explanation gets a fresh
oracle and is checked outside the timed region. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the loop is followed by a traced rerun of the first scenarios and the
metrics are the per-layer ones. See ``perfbench/README.md`` for what each
metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from spans import Layer, SpanRecorder, summarise, trace_all, trace_oracle
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("errors", "tabular", "profiles", "transforms", "graph", "oracle", "engine",
           "synth", "cli")

# Scenario seeds of a run are POOL*seed .. POOL*seed+POOL-1. Explanation
# time varies by about a fifth from one scenario to the next (gt-wide's
# Dataset work), so a run times every scenario of its pool at least once;
# count metrics are taken over that first pass and repeat exactly.
POOL = 12
TRACED = 4  # pool scenarios explained again, traced
SETUPS = 3  # set-ups per untraced run; setup_s is their median
MAX_PER_CASE = 64  # explanations per scenario before the loop stops early


def import_datacause() -> SimpleNamespace:
    """A fresh import of the package under ``src/`` (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "datacause" or m.startswith("datacause.")]:
        del sys.modules[name]
    package = importlib.import_module("datacause")
    if Path(package.__file__).resolve().parent != SRC / "datacause":
        raise ImportError(f"datacause imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"datacause.{m}") for m in MODULES})


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; p=50 is the median."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples above it, never
    below the median: (percentile, value, samples above it)."""
    for p in range(99, 49, -1):
        v = percentile(values, p)
        beyond = sum(1 for x in values if x > v)
        if beyond >= 10:
            return p, v, beyond
    v = percentile(values, 50)
    return 50, v, sum(1 for x in values if x > v)


class Bench:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.seeds = [POOL * args.seed + i for i in range(POOL)]
        self.failures: list[str] = []

    def setup(self, traced: bool = False) -> tuple[float, dict]:
        """Import datacause and build the scenario pool: (seconds, traced
        per-layer summary of the set-up, empty when untraced)."""
        started = time.perf_counter()
        self.dc = import_datacause()
        with SpanRecorder() as recorder:
            if traced:
                trace_all(recorder)
            self.workload = WORKLOADS[self.args.workload](self.dc, self.workdir)
            self.cases = self.workload.setup(self.seeds, MAX_PER_CASE + 2)
        return time.perf_counter() - started, summarise(recorder.spans, explanations=False)

    def explain(self, index: int):
        """One timed explanation of pool case ``index % POOL``; None if it raised."""
        case = self.cases[index % POOL]
        started = time.perf_counter()
        try:
            outcome = self.workload.run(case)
        except Exception:  # a failed explanation is counted, and the loop goes on
            self.failures.append(f"explanation {index}: {traceback.format_exc(limit=3)}")
            return None, time.perf_counter() - started
        return outcome, time.perf_counter() - started

    def check(self, index: int, outcome) -> None:
        """Outside the timed region: record why explanation ``index`` is wrong."""
        try:
            problem = self.workload.check(self.cases[index % POOL], outcome)
        except Exception:  # a check that cannot run fails the explanation
            problem = traceback.format_exc(limit=3)
        if problem:
            self.failures.append(f"explanation {index}: {problem}")

    def loop(self) -> list[dict]:
        """Closed loop for ``--seconds`` of explanation time, at least one pass."""
        samples: list[dict] = []
        measured = 0.0
        with SpanRecorder() as timer:
            trace_oracle(timer)
            while (measured < self.args.seconds or len(samples) < POOL) \
                    and len(samples) < POOL * MAX_PER_CASE:
                index = len(samples)
                first_span = len(timer.spans)
                timer.explanation = index
                outcome, seconds = self.explain(index)
                timer.explanation = None
                measured += seconds
                oracle_s = sum(s.end - s.start for s in timer.spans[first_span:]
                               if s.parent is None and s.work)
                result = None if outcome is None else outcome.summary()
                samples.append({"seconds": seconds, "oracle_s": oracle_s, "result": result})
                if outcome is not None:
                    self.check(index, outcome)
        return samples

    def traced_pass(self, samples: list[dict]) -> tuple[SpanRecorder, list, list]:
        """Explain each of the first TRACED pool cases twice more: untraced,
        then traced right after it, so that the pair sees the same machine
        speed. Each traced explanation must match the loop's untraced one.
        Returns the recorder, (untraced, traced) seconds and the results."""
        recorder = SpanRecorder()
        pairs = []
        results = []
        for index in range(TRACED):
            _, plain = self.explain(index)
            with recorder:
                trace_all(recorder)
                recorder.explanation = index
                outcome, seconds = self.explain(index)
                recorder.explanation = None
            pairs.append((plain, seconds))
            got = None if outcome is None else outcome.summary()
            results.append(got)
            if outcome is not None and got != samples[index]["result"]:
                self.failures.append(
                    f"traced explanation {index} gave {got}, untraced "
                    f"{samples[index]['result']}")
        return recorder, pairs, results


def end_to_end(samples: list[dict], setup_s: float) -> tuple[dict, dict]:
    seconds = [s["seconds"] for s in samples]
    engine = [s["seconds"] - s["oracle_s"] for s in samples]
    first_pass = [s["result"] for s in samples[:POOL] if s["result"] is not None]
    p, tail_s, beyond = tail(seconds)
    metrics = {
        "explains_per_s": (len(seconds) / sum(seconds), "1/s"),
        "explain_p50_s": (statistics.median(seconds), "s"),
        "explain_tail_s": (tail_s, "s"),
        "engine_overhead_p50_s": (statistics.median(engine), "s"),
        "oracle_calls_per_explain": (
            sum(o[1] for o in first_pass) / max(1, len(first_pass)), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"explanations": len(seconds), "tail_percentile": p,
              "tail_samples_beyond": beyond, "explain_s": seconds}
    return metrics, detail


def per_layer(recorder: SpanRecorder, setup: dict, pairs: list,
              results: list) -> tuple[dict, dict]:
    layers = summarise(recorder.spans)
    n = len(pairs)

    def layer(name):
        return layers.get(name, Layer())

    def per(value):
        return value / n

    enumerate_ids = {i for i, s in enumerate(recorder.spans)
                     if s.name == "profiles.enumerate_predicates"}
    predicates = sum(1 for s in recorder.spans if s.name == "tabular.select_where"
                     and s.parent in enumerate_ids) / 2  # each is scored on pass and fail
    evaluate = layer("oracle.evaluate")
    misses = [s for s in recorder.spans if s.name == "oracle.evaluate" and s.work
              and s.explanation is not None]
    compose = layer("transforms.compose")
    done = [r for r in results if r is not None]
    metrics = {
        "tabular.dataset_builds": (per(layer("tabular.dataset_build").calls), "count"),
        "tabular.cells_built": (per(layer("tabular.dataset_build").work), "count"),
        "tabular.dataset_build_s": (per(layer("tabular.dataset_build").inclusive_s), "s"),
        "tabular.select_where_calls": (per(layer("tabular.select_where").calls), "count"),
        "tabular.select_where_s": (per(layer("tabular.select_where").inclusive_s), "s"),
        "tabular.load_csv_s": (per(layer("tabular.load_csv").inclusive_s), "s"),
        "tabular.save_csv_calls": (per(layer("tabular.save_csv").calls), "count"),
        "tabular.save_csv_s": (per(layer("tabular.save_csv").inclusive_s), "s"),
        "profiles.enumerate_predicates_s": (
            per(layer("profiles.enumerate_predicates").inclusive_s), "s"),
        "profiles.predicates_enumerated": (per(predicates), "count"),
        "profiles.discover_calls": (per(layer("profiles.discover").calls), "count"),
        "profiles.discover_s": (per(layer("profiles.discover").inclusive_s), "s"),
        "profiles.violation_calls": (per(layer("profiles.violation").calls), "count"),
        "profiles.violation_s": (per(layer("profiles.violation").inclusive_s), "s"),
        "transforms.transform_calls": (per(layer("transforms.transform").calls), "count"),
        "transforms.transform_s": (per(layer("transforms.transform").inclusive_s), "s"),
        "transforms.transform_failures": (
            per(layer("transforms.transform").errors.get("TransformFailure", 0)), "count"),
        "transforms.compose_calls": (per(compose.calls), "count"),
        "transforms.compose_s": (per(compose.inclusive_s), "s"),
        "transforms.compose_length": (compose.work / max(1, compose.calls), "count"),
        "transforms.coverage_calls": (per(layer("transforms.coverage").calls), "count"),
        "transforms.coverage_s": (per(layer("transforms.coverage").inclusive_s), "s"),
        "graph.bisection_calls": (per(layer("graph.bisection").calls), "count"),
        "graph.bisection_s": (per(layer("graph.bisection").inclusive_s), "s"),
        "oracle.evaluate_calls": (per(evaluate.calls), "count"),
        "oracle.invocations": (per(len(misses)), "count"),
        "oracle.cache_hit_ratio": (
            (evaluate.calls - len(misses)) / max(1, evaluate.calls), "ratio"),
        "oracle.invoke_s": (per(sum(s.end - s.start for s in misses)), "s"),
        "engine.discriminative_s": (per(layer("engine.discriminative").inclusive_s), "s"),
        "engine.benefit_calls": (per(layer("engine.benefit").calls), "count"),
        "engine.benefit_s": (per(layer("engine.benefit").inclusive_s), "s"),
        "engine.minimality_s": (per(layer("engine.minimality").inclusive_s), "s"),
        "engine.self_s": (per(layer("engine.explain").self_s), "s"),
        "engine.useful_interventions_ratio": (
            sum(r[2] for r in done) / max(1, sum(r[1] for r in done)), "ratio"),
        "cli.main_s": (per(layer("cli.main").inclusive_s), "s"),
        "cli.self_s": (per(layer("cli.main").self_s), "s"),
        "synth.generate_s": (setup["synth.generate"].inclusive_s
                             if "synth.generate" in setup else 0.0, "s"),
        "trace.overhead_frac": (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1,
                                "ratio"),
    }
    ranking = sorted(((name, lay.self_s / n) for name, lay in layers.items()),
                     key=lambda kv: -kv[1])
    detail = {"traced_explanations": n, "self_s_per_explanation": dict(ranking),
              "oracle.cache_hit_ratio_base": per(evaluate.calls)}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "datacause" / "__init__.py").is_file():
        print(f"error: no datacause package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    tempfile.tempdir = str(workdir)  # the subprocess oracle's temp CSVs stay in the checkout
    try:
        bench = Bench(args, workdir)
        if args.trace:
            _, setup = bench.setup(traced=True)
        else:
            setup_s = statistics.median(bench.setup()[0] for _ in range(SETUPS))
        samples = bench.loop()
        attempted = len(samples)
        if args.trace:
            recorder, pairs, results = bench.traced_pass(samples)
            attempted += 2 * len(pairs)
            metrics, detail = per_layer(recorder, setup, pairs, results)
            recorder.write(scratch / f"spans-{args.workload}.json")
        else:
            metrics, detail = end_to_end(samples, setup_s)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(bench.failures)
    detail.update(workload=args.workload, seed=args.seed, error_rate=failed / attempted,
                  failures=bench.failures)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(f"{'error_rate':36s} {failed / attempted:14.6g} ratio")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
