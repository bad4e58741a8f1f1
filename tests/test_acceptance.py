"""Acceptance suite: one test per release criterion.

Each criterion runs at its stated tolerance and prints a single PASS line
(visible with ``pytest -s`` or in the captured output); assertion failures
mark the criterion red. Timed criteria assert their wall-clock budget.
"""

from __future__ import annotations

import itertools
import math
import random
import stat
import sys
import textwrap
import time
import zlib
from fractions import Fraction

import pytest

from conftest import random_dataset
from datacause.engine import (
    EngineConfig,
    benefit_score,
    decision_tree_explain,
    discriminative_pvts,
    explain,
)
from datacause.errors import NoExplanationFound, TransformFailure
from datacause.graph import PvtDependencyGraph, get_min_bisection
from datacause.oracle import ExternalOracleSpec, SubprocessOracle
from datacause.profiles import (
    ChiSquareBound,
    CorrelationBound,
    DomainCategorical,
    DomainNumerical,
    DomainText,
    MissingRate,
    OutlierBound,
    ProfileKind,
    SelectivityBound,
    chi_square_p_value,
    chi_square_statistic,
    discover_profiles,
    pearson_correlation,
    violation,
)
from datacause.synth import (
    PairedCauseScenario,
    PlantedCause,
    ScenarioSpec,
    adversarial_rank_scenario,
    generate,
    generate_paired,
)
from datacause.tabular import ColumnType, Predicate, Term, from_columns
from datacause.transforms import POSTCONDITION_TOL, PvtTriplet, compose, transform


def announce(number: int, message: str) -> None:
    print(f"criterion {number:02d}: PASS — {message}")


def sentiment_spec(seed):
    return ScenarioSpec(oracle_family="domain-remap",
                        planted_causes=(PlantedCause("domain", "target"),),
                        n_rows=200, seed=seed)


def income_spec(seed):
    return ScenarioSpec(oracle_family="dependence-bias",
                        planted_causes=(PlantedCause("dependence", "target"),),
                        n_rows=240, seed=seed, tau=0.3)


def skew_spec(seed):
    return ScenarioSpec(oracle_family="skew-timeout",
                        planted_causes=(PlantedCause("selectivity", "plate_type"),),
                        n_rows=120, seed=seed)


def deletion_minimal(explanation, d_fail, oracle, tau, seed) -> bool:
    triplets = list(explanation.triplets)
    for i in range(len(triplets)):
        rest = triplets[:i] + triplets[i + 1:]
        partial = compose(rest, d_fail, seed=seed).dataset
        if oracle.evaluate(partial) <= tau:
            return False
    return True


# --- criterion 1: discovery soundness -------------------------------------------


def test_criterion_01_discovery_soundness():
    started = time.monotonic()
    checked = 0
    for seed in range(200):
        d = random_dataset(seed)
        for profile in discover_profiles(d):
            assert violation(d, profile) == 0.0, (seed, profile.label())
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"discovery sweep took {elapsed:.1f}s"
    announce(1, f"{checked} discovered profiles, all exactly zero violation "
                f"on their source ({elapsed:.1f}s)")


# --- criterion 2: transform postcondition ---------------------------------------


def _transform_case(kind_variant: tuple[ProfileKind, str], seed: int):
    """A (dataset, triplet) pair whose profile is typically violated."""
    kind, variant = kind_variant
    rng = random.Random(seed * 613 + zlib.crc32(variant.encode()) % 1000)
    n = rng.randint(12, 36)
    if kind is ProfileKind.DOMAIN_CATEGORICAL:
        values = [rng.choice("abcdef") for _ in range(n)]
        allowed = frozenset(rng.sample("abcdef", rng.randint(1, 3)))
        d = from_columns([("c", ColumnType.CATEGORICAL, values)])
        return d, PvtTriplet(DomainCategorical("c", allowed), variant)
    if kind is ProfileKind.DOMAIN_NUMERICAL:
        values = [round(rng.uniform(-50, 150), 2) for _ in range(n)]
        d = from_columns([("x", ColumnType.NUMERICAL, values)])
        lo = rng.uniform(-10, 20)
        return d, PvtTriplet(DomainNumerical("x", lo, lo + rng.uniform(5, 60)), variant)
    if kind is ProfileKind.DOMAIN_TEXT:
        shapes = ["ab12", "x9", "hello7", "a1b2", "zz--", "plain"]
        values = [rng.choice(shapes) + str(rng.randint(0, 99)) for _ in range(n)]
        d = from_columns([("t", ColumnType.TEXT, values)])
        profile = DomainText("t", ("letters", "digits"), rng.randint(2, 4),
                             rng.randint(5, 9))
        return d, PvtTriplet(profile, variant)
    if kind is ProfileKind.OUTLIER:
        values = [rng.uniform(0, 10) for _ in range(n)] + \
                 [rng.uniform(80, 120) for _ in range(rng.randint(1, 3))]
        d = from_columns([("x", ColumnType.NUMERICAL, values)])
        return d, PvtTriplet(OutlierBound("x", 1.5, rng.choice([0.0, 0.05])), variant)
    if kind is ProfileKind.MISSING:
        values = [rng.uniform(0, 5) if rng.random() > 0.3 else None for _ in range(n)]
        d = from_columns([("x", ColumnType.NUMERICAL, values)])
        return d, PvtTriplet(MissingRate("x", rng.choice([0.0, 0.1])), variant)
    if kind is ProfileKind.SELECTIVITY:
        values = [rng.choice(["hot", "cold"]) for _ in range(n)]
        d = from_columns([("c", ColumnType.CATEGORICAL, values)])
        predicate = Predicate((Term("c", "eq", "hot"),))
        return d, PvtTriplet(SelectivityBound(predicate, rng.choice([0.1, 0.3])), variant)
    if kind is ProfileKind.CHI2:
        left = [rng.choice("uv") for _ in range(n)]
        right = [v if rng.random() > 0.2 else rng.choice("uv") for v in left]
        d = from_columns([("a", ColumnType.CATEGORICAL, left),
                          ("b", ColumnType.CATEGORICAL, right)])
        return d, PvtTriplet(ChiSquareBound("a", "b", rng.uniform(0.0, 2.0)), variant)
    xs = [rng.uniform(0, 10) for _ in range(n)]
    ys = [2 * v + rng.uniform(-1, 1) for v in xs]
    d = from_columns([("x", ColumnType.NUMERICAL, xs),
                      ("y", ColumnType.NUMERICAL, ys)])
    return d, PvtTriplet(CorrelationBound("x", "y", rng.uniform(0.0, 0.8)), variant)


def test_criterion_02_transform_postcondition():
    started = time.monotonic()
    kind_variants = [
        (ProfileKind.DOMAIN_CATEGORICAL, "remap"),
        (ProfileKind.DOMAIN_NUMERICAL, "linear_map"),
        (ProfileKind.DOMAIN_NUMERICAL, "winsorize"),
        (ProfileKind.DOMAIN_TEXT, "fit_length"),
        (ProfileKind.OUTLIER, "replace_with_mean"),
        (ProfileKind.MISSING, "impute"),
        (ProfileKind.SELECTIVITY, "resample"),
        (ProfileKind.CHI2, "shuffle"),
        (ProfileKind.PCC, "add_noise"),
    ]
    repaired = failures = 0
    for kind_variant in kind_variants:
        for seed in range(50):
            dataset, triplet = _transform_case(kind_variant, seed)
            try:
                fixed = transform(dataset, triplet, seed=seed)
            except TransformFailure as exc:
                assert exc.best_violation > 0.0
                failures += 1
                continue
            assert violation(fixed, triplet.profile) <= POSTCONDITION_TOL, triplet.id
            repaired += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"transform sweep took {elapsed:.1f}s"
    assert repaired > failures  # most cases are repairable
    announce(2, f"{repaired} repairs at zero residual violation, "
                f"{failures} explicit failures ({elapsed:.1f}s)")


# --- criterion 3: statistics oracles ----------------------------------------------


def _exact_chi_square(table: dict[tuple[str, str], int]) -> float:
    n = sum(table.values())
    rows = sorted({k[0] for k in table})
    cols = sorted({k[1] for k in table})
    if len(rows) < 2 or len(cols) < 2 or n == 0:
        return 0.0
    row_tot = {r: sum(c for (x, _), c in table.items() if x == r) for r in rows}
    col_tot = {c: sum(v for (_, y), v in table.items() if y == c) for c in cols}
    total = Fraction(0)
    for r in rows:
        for c in cols:
            expected = Fraction(row_tot[r] * col_tot[c], n)
            total += (table.get((r, c), 0) - expected) ** 2 / expected
    return float(total)


def _table_dataset(table):
    left, right = [], []
    for (lv, rv), count in sorted(table.items()):
        left.extend([lv] * count)
        right.extend([rv] * count)
    return from_columns([("a", ColumnType.CATEGORICAL, left),
                         ("b", ColumnType.CATEGORICAL, right)])


def test_criterion_03_statistics_oracles():
    checked = 0
    # exhaustive 2x2 sweep: every cell composition with n <= 30
    for n in range(0, 31):
        for a in range(n + 1):
            for b in range(n - a + 1):
                for c in range(n - a - b + 1):
                    d = n - a - b - c
                    table = {k: v for k, v in
                             {("l0", "r0"): a, ("l0", "r1"): b,
                              ("l1", "r0"): c, ("l1", "r1"): d}.items() if v}
                    rows = {k[0] for k in table}
                    cols = {k[1] for k in table}
                    if len(rows) < 2 or len(cols) < 2:
                        continue
                    dataset = _table_dataset(table)
                    mine = chi_square_statistic(dataset, "a", "b")
                    oracle = _exact_chi_square(table)
                    assert mine == pytest.approx(oracle, rel=1e-12, abs=1e-12)
                    checked += 1
    # seeded sweep across larger shapes up to 4x4
    rng = random.Random(303)
    for shape in ((2, 3), (2, 4), (3, 3), (3, 4), (4, 4)):
        for _ in range(150):
            table = {}
            budget = 30
            for i in range(shape[0]):
                for j in range(shape[1]):
                    count = rng.randint(0, min(5, budget))
                    budget -= count
                    if count:
                        table[(f"l{i}", f"r{j}")] = count
            if len({k[0] for k in table}) < 2 or len({k[1] for k in table}) < 2:
                continue
            dataset = _table_dataset(table)
            assert chi_square_statistic(dataset, "a", "b") == pytest.approx(
                _exact_chi_square(table), rel=1e-12, abs=1e-12)
            checked += 1
    assert chi_square_p_value(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert chi_square_p_value(6.635, 1) == pytest.approx(0.01, abs=1e-3)
    xs = [1.0, 2.0, 4.0, 8.0, 9.0]
    d = from_columns([("x", ColumnType.NUMERICAL, xs),
                      ("up", ColumnType.NUMERICAL, [3 * v + 1 for v in xs]),
                      ("down", ColumnType.NUMERICAL, [-0.5 * v for v in xs])])
    assert pearson_correlation(d, "x", "up") == 1.0
    assert pearson_correlation(d, "x", "down") == -1.0
    announce(3, f"chi-square matches the exact-rational oracle on {checked} tables; "
                f"p-values and affine correlations on the nose")


# --- criterion 4: min bisection -----------------------------------------------------


def _cut(edges, half1, half2):
    h1, h2 = set(half1), set(half2)
    return sum(1 for u, v in edges if (u in h1 and v in h2) or (u in h2 and v in h1))


def _brute_optimum(edges, nodes):
    half = (len(nodes) + 1) // 2
    return min(_cut(edges, combo, [n for n in nodes if n not in combo])
               for combo in itertools.combinations(sorted(nodes), half))


def test_criterion_04_min_bisection():
    rng = random.Random(77)
    for trial in range(100):
        k = rng.randint(2, 10)
        nodes = [f"n{i}" for i in range(k)]
        edges = frozenset(tuple(sorted(p)) for p in itertools.combinations(nodes, 2)
                          if rng.random() < 0.45)
        graph = PvtDependencyGraph(tuple(nodes), edges)
        history: list[int] = []
        half1, half2 = get_min_bisection(graph, nodes, seed=trial, history=history)
        assert history == sorted(history, reverse=True), "cut must never increase"
        assert _cut(edges, half1, half2) >= _brute_optimum(edges, nodes)
    # the two named families reach the optimum
    left = [f"X{i}" for i in range(1, 5)]
    right = [f"X{i}" for i in range(5, 9)]
    cliques = frozenset(tuple(sorted(p)) for p in
                        list(itertools.combinations(left, 2)) +
                        list(itertools.combinations(right, 2)))
    for seed in range(20):
        graph = PvtDependencyGraph(tuple(left + right), cliques)
        half1, half2 = get_min_bisection(graph, left + right, seed=seed)
        assert _cut(cliques, half1, half2) == 0
    path_edges = frozenset({("a", "b"), ("b", "c"), ("c", "d")})
    for seed in range(20):
        graph = PvtDependencyGraph(("a", "b", "c", "d"), path_edges)
        half1, half2 = get_min_bisection(graph, ["a", "b", "c", "d"], seed=seed)
        assert _cut(path_edges, half1, half2) == 1
    announce(4, "local search stays above the brute-force optimum, hits it on the "
                "two-clique and path families, and descends monotonically")


# --- criteria 5-6: sentiment and income analogs --------------------------------------


def test_criterion_05_sentiment_analog():
    started = time.monotonic()
    for seed in range(10):
        d_pass, d_fail, oracle = generate(sentiment_spec(seed))
        assert len(discriminative_pvts(d_pass, d_fail)) == 3
        grd = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=seed))
        assert grd.interventions <= 3
        assert grd.triplets[0].profile.kind is ProfileKind.DOMAIN_CATEGORICAL
        assert grd.triplets[0].profile.attributes() == ("target",)
        d_pass, d_fail, oracle = generate(sentiment_spec(seed))
        gt = explain(d_pass, d_fail, oracle,
                     EngineConfig(tau=0.2, seed=seed,
                                  algorithm="group_test"))
        assert gt.interventions <= 5
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"sentiment sweep took {elapsed:.1f}s"
    announce(5, f"greedy <= 3 and group testing <= 5 interventions on all "
                f"10 seeds ({elapsed:.1f}s)")


def test_criterion_06_income_analog():
    worst = 0
    for seed in range(10):
        d_pass, d_fail, oracle = generate(income_spec(seed))
        result = explain(d_pass, d_fail, oracle,
                         EngineConfig(tau=0.3, seed=seed))
        worst = max(worst, result.interventions)
        assert result.interventions <= 2
        kinds = {t.profile.kind for t in result.triplets}
        assert ProfileKind.CHI2 in kinds
        assert all(t.perturb == "target" for t in result.triplets
                   if t.profile.kind is ProfileKind.CHI2)
    announce(6, f"greedy finds the dependence cause within {worst} intervention(s) "
                f"on all 10 seeds")


# --- criterion 7: adversarial ranking --------------------------------------------------


def test_criterion_07_adversarial_ranking():
    for seed in range(10):
        d_pass, d_fail, oracle = adversarial_rank_scenario(seed)
        triplets = discriminative_pvts(d_pass, d_fail)
        ranked = sorted(triplets, key=lambda t: (-benefit_score(t, d_fail), t.sort_key))
        rank = next(i for i, t in enumerate(ranked, 1)
                    if t.profile.attributes() == ("col_00",))
        assert rank >= 50
        grd = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=seed))
        assert abs(grd.interventions - rank) <= 2
        d_pass, d_fail, oracle = adversarial_rank_scenario(seed)
        gt = explain(d_pass, d_fail, oracle,
                     EngineConfig(tau=0.2, seed=seed,
                                  algorithm="group_test"))
        assert gt.interventions <= 2 * math.ceil(math.log2(len(triplets))) + 2
        assert gt.interventions < grd.interventions
    announce(7, "greedy pays the planted rank while group testing stays "
                "logarithmic and wins on every seed")


# --- criterion 8: scaling shape ----------------------------------------------------------


def test_criterion_08_scaling_shape():
    started = time.monotonic()
    sizes = (16, 32, 64, 128)
    gt_means = {}
    for size in sizes:
        counts = []
        for seed in range(5):
            spec = ScenarioSpec(oracle_family="domain-remap",
                                planted_causes=(PlantedCause("domain", "target"),),
                                n_rows=260, seed=seed, decoys=size - 3)
            d_pass, d_fail, oracle = generate(spec)
            assert len(discriminative_pvts(d_pass, d_fail)) == size
            result = explain(d_pass, d_fail, oracle,
                             EngineConfig(tau=0.2, seed=seed,
                                          algorithm="group_test"))
            counts.append(result.interventions)
        gt_means[size] = sum(counts) / len(counts)
    spec = ScenarioSpec(oracle_family="domain-remap",
                        planted_causes=(PlantedCause("domain", "target"),),
                        n_rows=260, seed=0, decoys=125)
    d_pass, d_fail, oracle = generate(spec)
    greedy = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=0))
    assert greedy.interventions <= 10
    logs = {size: math.log2(size) for size in sizes}
    slope = (sum(gt_means[s] * logs[s] for s in sizes) /
             sum(logs[s] ** 2 for s in sizes))
    for size in sizes:
        deviation = abs(gt_means[size] - slope * logs[size])
        assert deviation <= 3.0, (size, gt_means[size], slope * logs[size])
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"scaling sweep took {elapsed:.1f}s"
    announce(8, f"group testing fits {slope:.2f}*log2|candidates| within 3 "
                f"interventions per point; greedy needs {greedy.interventions} "
                f"at 128 candidates ({elapsed:.1f}s)")


# --- criterion 9: minimality ---------------------------------------------------------------


def test_criterion_09_minimality():
    checked = 0
    runs = []
    for seed in range(3):
        runs.append((sentiment_spec(seed), "greedy", 0.2))
        runs.append((sentiment_spec(seed), "group_test", 0.2))
        runs.append((income_spec(seed), "greedy", 0.3))
        runs.append((skew_spec(seed), "greedy", 0.2))
    for spec, algorithm, tau in runs:
        d_pass, d_fail, oracle = generate(spec)
        result = explain(d_pass, d_fail, oracle,
                         EngineConfig(tau=tau, seed=spec.seed, algorithm=algorithm))
        if len(result.triplets) > 3:
            continue
        verifier = generate(spec)[2]
        assert deletion_minimal(result, d_fail, verifier, tau, spec.seed), \
            (spec.oracle_family, algorithm)
        checked += 1
    for seed in range(3):
        scenario = PairedCauseScenario(units=2, junk_attributes=2, seed=seed)
        d_pass, d_fail, oracle = generate_paired(scenario)
        result = explain(d_pass, d_fail, oracle,
                         EngineConfig(tau=0.2, seed=seed, algorithm="group_test"))
        assert len(result.triplets) <= 3
        verifier = generate_paired(scenario)[2]
        assert deletion_minimal(result, d_fail, verifier, 0.2, seed)
        checked += 1
    announce(9, f"every single-triplet deletion re-broke the oracle across "
                f"{checked} explanations")


# --- criterion 10: conjunctive and disjunctive causes ---------------------------------------


def _interventions_spent(d_pass, d_fail, oracle, config):
    try:
        return explain(d_pass, d_fail, oracle, config).interventions, True
    except NoExplanationFound as exc:
        return len(exc.log.entries), False


def test_criterion_10_conjunctive_disjunctive():
    for k in (1, 2, 3):
        causes = tuple(PlantedCause("domain", f"t{i + 1}") for i in range(k))
        for seed in range(10):
            spec = ScenarioSpec(oracle_family="domain-remap", planted_causes=causes,
                                n_rows=120, seed=seed, decoys=2)
            for algorithm in ("greedy", "group_test"):
                d_pass, d_fail, oracle = generate(spec)
                result = explain(d_pass, d_fail, oracle,
                                 EngineConfig(tau=0.2, seed=seed, algorithm=algorithm))
                attrs = sorted(t.profile.attributes()[0] for t in result.triplets)
                assert attrs == sorted(c.attribute for c in causes)
                verifier = generate(spec)[2]
                assert verifier.evaluate(result.repaired) <= 0.2
                assert deletion_minimal(result, d_fail, generate(spec)[2], 0.2, seed)
    disjunctive_means = {}
    for units in (1, 2, 3):
        counts = {"group_test": [], "group_test_random": []}
        solved = {"group_test": 0, "group_test_random": 0}
        for seed in range(10):
            scenario = PairedCauseScenario(units=units, junk_attributes=2, seed=seed)
            for algorithm in counts:
                d_pass, d_fail, oracle = generate_paired(scenario)
                config = EngineConfig(tau=0.2, seed=seed, algorithm=algorithm)
                spent, ok = _interventions_spent(d_pass, d_fail, oracle, config)
                counts[algorithm].append(spent)
                solved[algorithm] += ok
                if algorithm == "group_test":
                    assert ok, f"group testing must solve units={units} seed={seed}"
        mean_gt = sum(counts["group_test"]) / 10
        mean_random = sum(counts["group_test_random"]) / 10
        assert mean_gt <= mean_random, (units, mean_gt, mean_random)
        disjunctive_means[units] = (mean_gt, mean_random, solved["group_test_random"])
    summary = "; ".join(
        f"units={u}: {g:.1f} vs {r:.1f} (baseline solved {s}/10)"
        for u, (g, r, s) in disjunctive_means.items())
    announce(10, f"conjunctions 1-3 solved minimally by both algorithms; "
                 f"disjunctive means GT vs random-split {summary}")


# --- criterion 11: decision-tree extension ----------------------------------------------


def test_criterion_11_decision_tree_extension():
    spec = ScenarioSpec(
        oracle_family="interaction-pair",
        planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
        n_rows=80, seed=0)
    d_pass, d_fail, oracle = generate(spec)
    budget = len(discriminative_pvts(d_pass, d_fail))
    with pytest.raises(NoExplanationFound):
        explain(d_pass, d_fail, oracle,
                EngineConfig(tau=0.2, seed=0, max_interventions=budget))
    d_pass, d_fail, oracle = generate(spec)
    result = decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail,
                                   oracle, EngineConfig(tau=0.2, seed=0))
    attrs = sorted(t.profile.attributes()[0] for t in result.triplets)
    assert attrs == ["p1", "p2"]
    announce(11, "tree search returns the planted pair where the greedy loop "
                 "provably gives up")


# --- criterion 12: oracle protocol ---------------------------------------------------------


def test_criterion_12_oracle_protocol(tmp_path):
    script = tmp_path / "oracle.py"
    script.write_text(textwrap.dedent("""\
        import csv, sys
        with open(sys.argv[1], newline="") as fh:
            rows = list(csv.DictReader(fh))
        bad = sum(1 for row in rows if row["target"] not in ("-1", "1"))
        print(bad / len(rows))
        """))
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    spec = ExternalOracleSpec((sys.executable, str(script), "{dataset}"), timeout=20.0)
    oracle = SubprocessOracle(spec, seed=0)
    good = from_columns([("target", ColumnType.CATEGORICAL, ["-1", "1"] * 8)])
    bad = from_columns([("target", ColumnType.CATEGORICAL, ["0", "4"] * 8)])
    half = from_columns([("target", ColumnType.CATEGORICAL, ["0", "1"] * 8)])
    assert oracle.evaluate(good) == 0.0
    assert oracle.evaluate(bad) == 1.0
    assert oracle.evaluate(half) == 0.5
    assert oracle.invocation_count == 3
    for _ in range(3):
        oracle.evaluate(bad)
    assert oracle.invocation_count == 3
    rebuilt = from_columns([("target", ColumnType.CATEGORICAL, ["0", "4"] * 8)])
    oracle.evaluate(rebuilt)  # equal content, equal fingerprint, no new call
    assert oracle.invocation_count == 3
    announce(12, "external scorer round-trips exactly and the cache counts "
                 "unique fingerprints only")
