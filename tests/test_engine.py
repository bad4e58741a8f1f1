from __future__ import annotations

import hashlib
import json
from collections import Counter
from functools import partial

import pytest

from conftest import missing_columns_pair, random_dataset
import datacause.engine as engine
import datacause.tabular as tabular
import datacause.transforms as transforms
from datacause.cli import main as cli_main
from datacause.engine import (
    EngineConfig,
    benefit_score,
    decision_tree_explain,
    discriminative_pvts,
    explain,
    make_minimal,
)
from datacause.errors import (
    DegenerateInputError,
    NoExplanationFound,
    OracleError,
    SchemaError,
    TransformFailure,
    ValidationError,
)
from datacause.graph import attribute_degrees, best_bisection, build_dependency_graph
from datacause.oracle import CallableOracle
from datacause.profiles import (
    ChiSquareBound,
    CorrelationBound,
    MissingRate,
    ProfileKind,
    SelectivityBound,
    violation,
)
from datacause.synth import (
    PairedCauseScenario,
    PlantedCause,
    ScenarioSpec,
    adversarial_rank_scenario,
    build_builtin_oracle,
    builtin_oracle,
    generate,
    generate_paired,
    ground_truth,
)
from datacause.tabular import ColumnType, Predicate, Term, from_columns, save_csv
from datacause.transforms import compose, coverage, make_triplets


def sentiment_spec(seed=0, decoys=0):
    return ScenarioSpec(
        oracle_family="domain-remap",
        planted_causes=(PlantedCause("domain", "target"),),
        n_rows=200,
        seed=seed,
        decoys=decoys,
    )


def income_spec(seed=0, with_skew=False):
    causes = [PlantedCause("dependence", "target")]
    if with_skew:
        causes.append(PlantedCause("selectivity", "usage_class"))
    return ScenarioSpec(
        oracle_family="dependence-bias",
        planted_causes=tuple(causes),
        n_rows=240,
        seed=seed,
        tau=0.3,
    )


def kinds_of(explanation):
    return sorted(t.profile.kind.value for t in explanation.triplets)


# --- discriminative triplets ----------------------------------------------------


def test_people_diff_contains_paper_profiles(people_pass, people_fail):
    triplets = discriminative_pvts(people_pass, people_fail)
    kinds = {(t.profile.kind, t.profile.attributes()) for t in triplets}
    assert (ProfileKind.DOMAIN_NUMERICAL, ("age",)) in kinds
    assert (ProfileKind.MISSING, ("zip_code",)) in kinds
    assert (ProfileKind.CHI2, ("high_expenditure", "race")) in kinds
    sel = [t for t in triplets if isinstance(t.profile, SelectivityBound)]
    assert any(t.profile.predicate.label() == "gender=F&high_expenditure=yes"
               for t in sel)


def test_discriminative_ids_name_one_candidate_each_when_names_hold_commas():
    # without quoting, the chi-square profiles of (a, "b,c") and ("a,b", c)
    # would both be named chi_square_dependence(a,b,c)
    n = 40
    u_v = ["u" if i % 2 == 0 else "v" for i in range(n)]
    p_q = ["p" if i % 4 < 2 else "q" for i in range(n)]  # independent of u_v
    x_y = ["x" if i % 4 < 2 else "y" for i in range(n)]
    r_s = ["r" if i % 2 == 0 else "s" for i in range(n)]  # independent of x_y
    names = ("a", "b,c", "a,b", "c")
    d_pass = from_columns([(a, ColumnType.CATEGORICAL, cells)
                           for a, cells in zip(names, (u_v, p_q, x_y, r_s))])
    d_fail = from_columns([(a, ColumnType.CATEGORICAL, cells)
                           for a, cells in zip(names, (u_v, u_v, x_y, x_y))])
    ids = [t.id for t in discriminative_pvts(d_pass, d_fail)]
    assert len(ids) == len(set(ids))
    assert {'chi_square_dependence(a,"b,c")#shuffle',
            'chi_square_dependence("a,b",c)#shuffle'} <= set(ids)


def test_discriminative_self_empty(people_fail):
    assert discriminative_pvts(people_fail, people_fail) == []


def test_discriminative_requires_shared_schema(people_fail):
    other = from_columns([("different", ColumnType.NUMERICAL, [1.0])])
    with pytest.raises(SchemaError):
        discriminative_pvts(people_fail, other)


def test_explain_checks_the_schema_before_any_oracle_call():
    scores = []
    oracle = CallableOracle(lambda d: scores.append(d) or 1.0)
    d_pass = from_columns([("a", ColumnType.CATEGORICAL, ["x"]),
                           ("b", ColumnType.CATEGORICAL, ["y"])])
    d_fail = from_columns([("a", ColumnType.CATEGORICAL, ["x"]),
                           ("c", ColumnType.CATEGORICAL, ["y"])])
    with pytest.raises(SchemaError, match="share a schema"):
        explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2))
    assert scores == [] and oracle.invocation_count == 0


def two_columns(second, n_rows):
    return from_columns([("a", ColumnType.CATEGORICAL, ["x"] * n_rows),
                         (second, ColumnType.CATEGORICAL, ["y"] * n_rows)])


@pytest.mark.parametrize("entry", ["explain", "decision_tree"])
@pytest.mark.parametrize("d_pass, d_fail, error", [
    (two_columns("b", 1), two_columns("c", 1), SchemaError),
    (two_columns("b", 1), two_columns("b", 0), DegenerateInputError),
    (two_columns("b", 0), two_columns("b", 1), DegenerateInputError),
], ids=["schema", "empty-fail", "empty-pass"])
def test_inputs_are_checked_before_any_scorer_call(entry, d_pass, d_fail, error):
    oracle = CallableOracle(lambda d: 1.0)
    config = EngineConfig(tau=0.2)
    with pytest.raises(error):
        if entry == "explain":
            explain(d_pass, d_fail, oracle, config)
        else:
            decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail, oracle, config)
    assert oracle.invocation_count == 0


def test_discriminative_holds_on_pass_side(people_pass, people_fail):
    for t in discriminative_pvts(people_pass, people_fail):
        assert violation(people_pass, t.profile) == 0.0


def test_chi2_perturbs_high_degree_endpoint(people_pass, people_fail):
    triplets = discriminative_pvts(people_pass, people_fail)
    chi2 = [t for t in triplets if isinstance(t.profile, ChiSquareBound)]
    assert chi2, "expected a dependence triplet on the people fixture"
    degrees: dict[str, int] = {}
    for profile in {t.profile for t in triplets}:
        for a in profile.attributes():
            degrees[a] = degrees.get(a, 0) + 1
    for t in chi2:
        other = next(a for a in t.profile.attributes() if a != t.perturb)
        assert degrees[t.perturb] >= degrees[other]


def test_income_target_degree_dominates():
    d_pass, d_fail, _ = generate(income_spec(seed=1))
    triplets = discriminative_pvts(d_pass, d_fail)
    degrees = attribute_degrees(t.profile for t in triplets)
    target_degree = degrees.pop("target")
    assert target_degree > max(degrees.values())


def test_domain_remap_fixture_has_three_triplets():
    d_pass, d_fail, _ = generate(sentiment_spec(seed=0))
    triplets = discriminative_pvts(d_pass, d_fail)
    assert len(triplets) == 3
    assert sorted(t.profile.kind.value for t in triplets) == [
        "domain_categorical", "domain_text", "missing_rate"]


def _random_dataset_pairs(seeds):
    """Pairs of ``random_dataset``s that share a schema."""
    by_schema = {}
    for seed in seeds:
        d = random_dataset(seed)
        by_schema.setdefault(d.schema, []).append(d)
    return [(a, b) for group in by_schema.values() for a, b in zip(group, group[1:])]


SYNTH_FAMILIES = {
    "domain-remap": [("domain", "target")],
    "dependence-bias": [("dependence", "target"), ("selectivity", "usage_class")],
    "skew-timeout": [("selectivity", "plate_type")],
    "interaction-pair": [("missing", "p1"), ("missing", "p2")],
}


def test_discriminative_triplets_have_distinct_ids_in_increasing_sort_key_order():
    pairs = _random_dataset_pairs(range(60))
    for family, causes in SYNTH_FAMILIES.items():
        for seed in range(3):
            spec = ScenarioSpec(oracle_family=family, n_rows=120, seed=seed, decoys=5,
                                planted_causes=tuple(PlantedCause(*c) for c in causes))
            pairs.append(generate(spec)[:2])
    for seed in range(3):
        pairs.append(generate_paired(PairedCauseScenario(seed=seed))[:2])
        pairs.append(adversarial_rank_scenario(seed)[:2])
    assert len(pairs) > 40
    for d_pass, d_fail in pairs:
        triplets = discriminative_pvts(d_pass, d_fail)
        ids = [t.id for t in triplets]
        assert len(set(ids)) == len(ids)
        keys = [t.sort_key for t in triplets]
        assert all(a < b for a, b in zip(keys, keys[1:]))


# --- benefit ---------------------------------------------------------------------


def test_benefit_is_product(people_fail):
    x = make_triplets(MissingRate("zip_code", 0.11))[0]
    v = violation(people_fail, x.profile)
    c = coverage(people_fail, x)
    assert benefit_score(x, people_fail) == pytest.approx(v * c)
    assert benefit_score(x, people_fail) == pytest.approx(0.0202, abs=2e-4)


def test_benefit_zero_when_satisfied(people_fail):
    x = make_triplets(MissingRate("zip_code", 0.9))[0]
    assert benefit_score(x, people_fail) == 0.0


# --- greedy ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_greedy_sentiment_analog(seed):
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=seed))
    config = EngineConfig(tau=0.2, seed=seed)
    result = explain(d_pass, d_fail, oracle, config)
    assert result.interventions <= 3
    assert [t.profile.kind for t in result.triplets] == [ProfileKind.DOMAIN_CATEGORICAL]
    assert result.triplets[0].profile.attributes() == ("target",)
    assert result.final_score <= 0.2


def single_missing_candidate_pair():
    # one discriminative triplet (missing rate on c); the frequency gap of the
    # surviving value stays below the selectivity cutoff
    d_pass = from_columns([("c", ColumnType.CATEGORICAL, ["ok"] * 21)])
    d_fail = from_columns([("c", ColumnType.CATEGORICAL, ["ok"] * 19 + [None])])
    oracle = CallableOracle(
        lambda d: 1.0 if any(v is None for v in d.column("c")) else 0.0)
    return d_pass, d_fail, oracle


def test_greedy_single_candidate_single_intervention():
    d_pass, d_fail, oracle = single_missing_candidate_pair()
    assert len(discriminative_pvts(d_pass, d_fail)) == 1
    result = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2))
    assert result.interventions == 1
    assert len(result.triplets) == 1


@pytest.mark.parametrize("seed", range(3))
def test_greedy_fairness_analog_two_step(seed):
    d_pass, d_fail, oracle = generate(income_spec(seed=seed, with_skew=True))
    result = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.3, seed=seed))
    kinds = {t.profile.kind for t in result.triplets}
    assert ProfileKind.CHI2 in kinds
    assert ProfileKind.SELECTIVITY in kinds
    # necessity of each member is re-verified below via single deletions
    for i in range(len(result.triplets)):
        rest = list(result.triplets[:i]) + list(result.triplets[i + 1:])
        partial = compose(rest, d_fail, seed=seed).dataset
        assert oracle.evaluate(partial) > 0.3


def test_greedy_validation_errors():
    d_pass, d_fail, oracle = generate(sentiment_spec())
    with pytest.raises(ValidationError):
        # tau below the pass-side score
        explain(d_fail, d_pass, oracle, EngineConfig(tau=0.2))
    oracle2 = CallableOracle(lambda d: 0.0)
    with pytest.raises(ValidationError):
        explain(d_pass, d_fail, oracle2, EngineConfig(tau=0.2))


def profile_identical_pair():
    # same profiles (so zero discriminative triplets) but distinct fingerprints
    d_pass = from_columns([("c", ColumnType.CATEGORICAL, ["a", "b"] * 10)])
    d_fail = from_columns([("c", ColumnType.CATEGORICAL, ["b", "a"] * 10)])
    oracle = CallableOracle(
        lambda d: 0.9 if d.fingerprint == d_fail.fingerprint else 0.0)
    return d_pass, d_fail, oracle


def test_greedy_no_candidates():
    d_pass, d_fail, oracle = profile_identical_pair()
    assert discriminative_pvts(d_pass, d_fail) == []
    with pytest.raises(NoExplanationFound):
        explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2))


def selectivity_wipeout_pair():
    """Meeting the pass-side bound of ``c1=a`` on the failing side (every
    row satisfies it) would delete every row."""
    d_pass = from_columns([("c1", ColumnType.CATEGORICAL, ["a", "b"] * 5),
                           ("c2", ColumnType.CATEGORICAL, ["b", "a"] * 5)])
    d_fail = from_columns([("c1", ColumnType.CATEGORICAL, ["a"] * 10),
                           ("c2", ColumnType.CATEGORICAL, ["a"] * 10)])
    oracle = CallableOracle(lambda d: 1.0 if set(d.column("c1")) == {"a"} else 0.0)
    return d_pass, d_fail, oracle


@pytest.mark.parametrize("algorithm", ["greedy", "group_test"])
def test_repair_emptying_the_dataset_is_skipped(algorithm):
    d_pass, d_fail, oracle = selectivity_wipeout_pair()
    assert "selectivity(c1=a&c2=a)#resample" in [
        t.id for t in discriminative_pvts(d_pass, d_fail)]
    with pytest.raises(NoExplanationFound) as err:
        explain(d_pass, d_fail, oracle, EngineConfig(tau=0.5, algorithm=algorithm))
    assert any("would delete every row" in note for note in err.value.log.notes)


def test_greedy_budget_exhaustion():
    d_pass, d_fail, oracle = generate(ScenarioSpec(
        oracle_family="interaction-pair",
        planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
        n_rows=80, seed=2))
    with pytest.raises(NoExplanationFound) as err:
        explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, max_interventions=2))
    assert err.value.log is not None


@pytest.mark.parametrize("algorithm",
                         ["greedy", "group_test", "group_test_random", "decision_tree"])
def test_log_matches_intervention_count(algorithm):
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=3))
    if algorithm == "decision_tree":
        result = decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail, oracle,
                                       EngineConfig(tau=0.2, seed=3))
        baselines = 1  # the failing dataset; the labelled passing one is never scored
    else:
        result = explain(d_pass, d_fail, oracle,
                         EngineConfig(tau=0.2, seed=3, algorithm=algorithm))
        baselines = 2
    assert result.interventions == oracle.invocation_count - baselines
    assert any(e.accepted for e in result.log.entries)


def test_run_logs_only_its_own_scorer_calls():
    from datacause.engine import _Run
    oracle = CallableOracle(lambda d: 0.25)
    d_fail = from_columns([("target", ColumnType.CATEGORICAL, ["0"])])
    novel = from_columns([("target", ColumnType.CATEGORICAL, ["4"])])
    oracle.evaluate(d_fail)  # a baseline, scored before the run
    run = _Run(oracle, EngineConfig(tau=0.2))
    run.query(d_fail, (), 1.0)
    assert run.log.entries == []
    for _ in range(3):
        run.query(novel, ("t",), 1.0)
    assert [e.triplet_ids for e in run.log.entries] == [("t",)]
    assert oracle.invocation_count == 2


def test_a_run_on_a_warm_oracle_counts_only_its_own_scorer_calls():
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=0, decoys=5))
    explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2))  # scores greedy's one repair
    config = EngineConfig(tau=0.2, algorithm="group_test", max_interventions=4)
    before = oracle.invocation_count
    result = explain(d_pass, d_fail, oracle, config)
    assert result.interventions == len(result.log.entries) == oracle.invocation_count - before
    assert result.interventions == 4
    again = explain(d_pass, d_fail, oracle, config)
    assert again.interventions == 0 and again.log.entries == []
    assert again.triplet_ids() == result.triplet_ids()
    d_pass, d_fail, fresh = generate(sentiment_spec(seed=0, decoys=5))
    with pytest.raises(NoExplanationFound, match="budget"):  # a cold run needs a fifth
        explain(d_pass, d_fail, fresh, config)


def test_greedy_deterministic():
    a = explain(*generate(sentiment_spec(seed=5)), EngineConfig(tau=0.2, seed=5))
    b = explain(*generate(sentiment_spec(seed=5)), EngineConfig(tau=0.2, seed=5))
    assert a.triplet_ids() == b.triplet_ids()
    assert a.repaired_fingerprint == b.repaired_fingerprint
    assert a.interventions == b.interventions


# --- group testing -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_group_testing_sentiment_analog(seed):
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=seed))
    config = EngineConfig(tau=0.2, seed=seed, algorithm="group_test")
    result = explain(d_pass, d_fail, oracle, config)
    assert result.interventions <= 5
    assert ProfileKind.DOMAIN_CATEGORICAL in {t.profile.kind for t in result.triplets}
    assert result.final_score <= 0.2


@pytest.mark.parametrize("seed", range(3))
def test_group_testing_income_analog(seed):
    d_pass, d_fail, oracle = generate(income_spec(seed=seed))
    config = EngineConfig(tau=0.3, seed=seed, algorithm="group_test")
    result = explain(d_pass, d_fail, oracle, config)
    dependence = [t for t in result.triplets if isinstance(t.profile, ChiSquareBound)]
    assert dependence and all(t.perturb == "target" for t in dependence)


def test_group_test_singleton_one_intervention():
    d_pass, d_fail, oracle = single_missing_candidate_pair()
    config = EngineConfig(tau=0.2, algorithm="group_test")
    result = explain(d_pass, d_fail, oracle, config)
    assert result.interventions == 1
    assert len(result.triplets) == 1


def test_group_test_two_cluster_example():
    # two dependency-graph cliques, one of which hides the (paired) cause
    d_pass, d_fail, oracle = generate_paired(
        PairedCauseScenario(units=1, junk_attributes=1, seed=4))
    triplets = discriminative_pvts(d_pass, d_fail)
    assert len(triplets) >= 6
    config = EngineConfig(tau=0.2, seed=4, algorithm="group_test")
    result = explain(d_pass, d_fail, oracle, config)
    assert result.interventions <= 10
    assert result.final_score <= 0.2


def test_group_test_empty_candidates():
    d_pass, d_fail, oracle = profile_identical_pair()
    with pytest.raises(NoExplanationFound):
        explain(d_pass, d_fail, oracle,
                EngineConfig(tau=0.2, algorithm="group_test"))


def test_group_test_direct_call():
    from datacause.engine import _group_test, _Run
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=1))
    oracle.evaluate(d_fail)
    candidates = discriminative_pvts(d_pass, d_fail)
    g_pd = build_dependency_graph(candidates)
    config = EngineConfig(tau=0.2, seed=1, algorithm="group_test")
    repaired, found = _group_test(_Run(oracle, config), candidates, d_fail,
                                  partial(best_bisection, g_pd))
    assert found
    assert oracle.evaluate(repaired) <= 0.2


def _halves_in_sorted_order(graph, ids, seed):
    half = (len(ids) + 1) // 2
    return tuple(ids[:half]), tuple(ids[half:])


def _impute(column):
    return f"missing_rate({column})#impute"


@pytest.mark.parametrize("scores, triplets, log", [
    # the first half passes, so the second half is never scored
    ({(): 1.0, ("c0",): 0.0, ("c2",): 1.0, ("c0", "c2"): 0.0},
     ("c0",),
     [(("c0", "c1"), 1.0, 0.0, True), (("c0",), 1.0, 0.0, True)]),
    # both halves lower the score and neither passes, so both are recursed
    ({(): 1.0, ("c0",): 0.6, ("c2",): 0.6, ("c0", "c2"): 0.1},
     ("c0", "c2"),
     [(("c0", "c1"), 1.0, 0.6, True), (("c2", "c3"), 1.0, 0.6, True),
      (("c0",), 1.0, 0.6, True), (("c1",), 1.0, 1.0, False),
      (("c2",), 0.6, 0.1, True), (("c2",), 1.0, 0.6, True)]),
    # the first half helps and the second passes, so only the second is recursed
    ({(): 1.0, ("c0",): 0.6, ("c2",): 0.0, ("c0", "c2"): 0.0},
     ("c2",),
     [(("c0", "c1"), 1.0, 0.6, True), (("c2", "c3"), 1.0, 0.0, True),
      (("c2",), 1.0, 0.0, True)]),
], ids=["first-half-passes", "both-halves-help", "second-half-passes"])
def test_group_test_descent_cases(monkeypatch, scores, triplets, log):
    # split the sorted ids in order, so the halves are {c0, c1} and {c2, c3};
    # the score is looked up by which of c0 and c2 have no missing cell
    monkeypatch.setattr(engine, "best_bisection", _halves_in_sorted_order)
    d_pass, d_fail = missing_columns_pair(4, seed=0)
    oracle = CallableOracle(
        lambda d: scores[tuple(c for c in ("c0", "c2") if None not in d.column(c))])
    result = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, algorithm="group_test"))
    assert result.triplet_ids() == tuple(map(_impute, triplets))
    assert [(e.triplet_ids, e.pre_score, e.post_score, e.accepted)
            for e in result.log.entries] == [
        (tuple(map(_impute, ids)), pre, post, accepted) for ids, pre, post, accepted in log]
    assert result.interventions == len(log)


def test_gt_random_vs_gt_paired_means():
    sizes = []
    for seed in range(6):
        counts = {}
        for algorithm in ("group_test", "group_test_random"):
            d_pass, d_fail, oracle = generate_paired(
                PairedCauseScenario(units=2, junk_attributes=2, seed=seed))
            config = EngineConfig(tau=0.2, seed=seed, algorithm=algorithm)
            result = explain(d_pass, d_fail, oracle, config)
            counts[algorithm] = result.interventions
            assert result.final_score <= 0.2
        sizes.append(counts)
    mean_gt = sum(c["group_test"] for c in sizes) / len(sizes)
    mean_random = sum(c["group_test_random"] for c in sizes) / len(sizes)
    assert mean_gt <= mean_random


# --- minimality -----------------------------------------------------------------------


def test_make_minimal_drops_redundant_member():
    cells = ["ok"] * 18 + [None, None]
    d_fail = from_columns([
        ("c", ColumnType.CATEGORICAL, cells),
        ("d", ColumnType.CATEGORICAL, ["x"] * 12 + ["y"] * 8),
    ])
    oracle = CallableOracle(
        lambda d: 1.0 if any(v is None for v in d.column("c")) else 0.0)
    oracle.evaluate(d_fail)
    needed = make_triplets(MissingRate("c", 0.0))[0]
    redundant = make_triplets(
        SelectivityBound(Predicate((Term("d", "eq", "x"),)), 0.4))[0]
    config = EngineConfig(tau=0.2)
    result = make_minimal([needed, redundant], d_fail, oracle, config)
    assert [t.id for t in result] == [needed.id]


def test_make_minimal_singleton_no_extra_interventions():
    cells = ["ok"] * 18 + [None, None]
    d_fail = from_columns([("c", ColumnType.CATEGORICAL, cells)])
    oracle = CallableOracle(
        lambda d: 1.0 if any(v is None for v in d.column("c")) else 0.0)
    oracle.evaluate(d_fail)
    x = make_triplets(MissingRate("c", 0.0))[0]
    config = EngineConfig(tau=0.2)
    before = oracle.invocation_count
    result = make_minimal([x], d_fail, oracle, config)
    assert [t.id for t in result] == [x.id]
    assert oracle.invocation_count == before  # empty remainder hits the baseline cache


def test_make_minimal_keeps_jointly_necessary_pair():
    d_pass, d_fail, oracle = generate(ScenarioSpec(
        oracle_family="interaction-pair",
        planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
        n_rows=80, seed=1))
    oracle.evaluate(d_fail)
    triplets = [t for t in discriminative_pvts(d_pass, d_fail)
                if isinstance(t.profile, MissingRate)
                and t.profile.attributes()[0] in ("p1", "p2")]
    assert len(triplets) == 2
    config = EngineConfig(tau=0.2, seed=1)
    result = make_minimal(list(triplets), d_fail, oracle, config)
    assert sorted(t.id for t in result) == sorted(t.id for t in triplets)


# --- explanation invariants ---------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["greedy", "group_test", "group_test_random"])
def test_explanation_soundness_and_log(algorithm):
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=2))
    config = EngineConfig(tau=0.2, seed=2, algorithm=algorithm)
    result = explain(d_pass, d_fail, oracle, config)
    # soundness, re-verified by a fresh oracle on the repaired dataset
    verifier = generate(sentiment_spec(seed=2))[2]
    assert verifier.evaluate(result.repaired) <= 0.2
    assert result.repaired.fingerprint == result.repaired_fingerprint
    assert len(result.log.entries) == result.interventions


def test_greedy_steps_strictly_decrease():
    d_pass, d_fail, oracle = generate(income_spec(seed=0, with_skew=True))
    result = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.3, seed=0))
    accepted = [e for e in result.log.entries if e.accepted]
    for entry in accepted:
        assert entry.post_score < entry.pre_score


# --- decision tree --------------------------------------------------------------------


def interaction_scenario(seed=0):
    return generate(ScenarioSpec(
        oracle_family="interaction-pair",
        planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
        n_rows=80, seed=seed))


def test_decision_tree_finds_interaction_pair():
    d_pass, d_fail, oracle = interaction_scenario(seed=0)
    config = EngineConfig(tau=0.2, seed=0)
    result = decision_tree_explain([(d_pass, True), (d_fail, False)],
                                   d_fail, oracle, config)
    attrs = sorted(t.profile.attributes()[0] for t in result.triplets)
    assert attrs == ["p1", "p2"]
    assert all(t.profile.kind is ProfileKind.MISSING for t in result.triplets)


def test_greedy_fails_on_interaction_pair():
    d_pass, d_fail, oracle = interaction_scenario(seed=0)
    n_candidates = len(discriminative_pvts(d_pass, d_fail))
    config = EngineConfig(tau=0.2, seed=0, max_interventions=n_candidates)
    with pytest.raises(NoExplanationFound):
        explain(d_pass, d_fail, oracle, config)


def test_decision_tree_single_separating_profile():
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=6))
    config = EngineConfig(tau=0.2, seed=6)
    # two pass-labeled and two fail-labeled observations of the same pair
    labeled = [(d_pass, True), (d_pass, True), (d_fail, False), (d_fail, False)]
    result = decision_tree_explain(labeled, d_fail, oracle, config)
    assert len(result.triplets) == 1
    assert result.triplets[0].profile.kind is ProfileKind.DOMAIN_CATEGORICAL


def test_pass_paths_reads_pure_passing_leaves_satisfied_branch_first():
    # root splits on feature 0; its violated side splits on feature 1
    rows = [((True, False), True), ((False, True), True), ((False, False), False)]
    assert engine._pass_paths(rows, [0, 1]) == [(0,), (1,)]
    # a leaf that no feature can split is mixed, so it yields no path
    mixed = [((True,), True), ((True,), False), ((False,), False)]
    assert engine._pass_paths(mixed, [0]) == []


def test_decision_tree_all_pass_is_error():
    d_pass, d_fail, oracle = interaction_scenario(seed=1)
    with pytest.raises(ValidationError):
        decision_tree_explain([(d_pass, True), (d_pass, True)], d_fail, oracle,
                              EngineConfig(tau=0.2))


# --- assumption tracking and bounds -------------------------------------------------


def cancelling_oracle():
    """Repairing both attributes reverts the system; each alone helps.

    Violates the group-testing assumption: the composed pair does not reduce
    while its constituents individually do.
    """
    def score(d):
        fixed = sum(1 for a in ("p1", "p2")
                    if not any(v is None for v in d.column(a)))
        return {0: 1.0, 1: 0.3, 2: 1.0}[fixed]
    return CallableOracle(score)


def cancelling_pair():
    cols = []
    for name in ("p1", "p2"):
        cells = ["u", "v"] * 14
        cells[3] = None
        cols.append((name, ColumnType.CATEGORICAL, cells))
    return from_columns(cols)


def test_a3_violation_recorded_in_warn_mode():
    from datacause.engine import _Run
    d_fail = cancelling_pair()
    oracle = cancelling_oracle()
    oracle.evaluate(d_fail)
    run = _Run(oracle, EngineConfig(tau=0.2))
    triplets = {t.profile.attributes()[0]: t
                for t in (make_triplets(MissingRate(a, 0.0))[0] for a in ("p1", "p2"))}
    both = compose(list(triplets.values()), d_fail, seed=0).dataset
    score = run.query(both, tuple(t.id for t in triplets.values()), 1.0)
    assert score == 1.0  # composed pair failed to help
    alone = compose([triplets["p1"]], d_fail, seed=0).dataset
    assert run.query(alone, (triplets["p1"].id,), 1.0) == 0.3
    assert any("assumption violated" in note for note in run.log.notes)


def test_a3_violation_noted_end_to_end():
    # p1 and p3 only pass together and p2 undoes p3: a minimality probe
    # composes {p2, p3}, which scores no better than the failing dataset
    # although p3 alone reduces the score
    def column(name, k):
        cells = ["u", "v"] * 14
        for i in range(k):
            cells[3 + 2 * i] = None
        return (name, ColumnType.CATEGORICAL, cells)

    names = ("p1", "p2", "p3", "p4")
    d_pass = from_columns([column(a, k) for a, k in zip(names, (0, 0, 0, 1))])
    d_fail = from_columns([column(a, 3) for a in names])
    scores = {(): 1.0, ("p1",): 0.5, ("p2",): 0.9, ("p3",): 0.5, ("p1", "p2"): 0.6,
              ("p1", "p3"): 0.0, ("p2", "p3"): 1.0, ("p1", "p2", "p3"): 0.0}
    oracle = CallableOracle(lambda d: scores[tuple(
        a for a in ("p1", "p2", "p3") if None not in d.column(a))])
    result = explain(d_pass, d_fail, oracle,
                     EngineConfig(tau=0.2, seed=0, algorithm="group_test_random"))
    assert result.triplet_ids() == ("missing_rate(p1)#impute", "missing_rate(p3)#impute")
    assert result.interventions == 14
    assert len(result.log.entries) == 14
    assert any("group-testing assumption violated" in n for n in result.log.notes)


def test_oracle_error_carries_log():
    from datacause.errors import OracleProtocolError

    d_pass, d_fail, _ = generate(sentiment_spec(seed=1))
    fingerprints = {d_pass.fingerprint, d_fail.fingerprint}

    def flaky(d):
        if d.fingerprint in fingerprints:
            return 0.0 if d.fingerprint == d_pass.fingerprint else 1.0
        raise RuntimeError("scorer crashed")

    def guarded(d):
        try:
            return flaky(d)
        except RuntimeError:
            return float("nan")

    oracle = CallableOracle(guarded)
    with pytest.raises(OracleProtocolError) as err:
        explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=1))
    assert err.value.log is not None


def test_intervention_bound_invariants():
    from datacause.synth import adversarial_rank_scenario
    import math

    # greedy worst case: |candidates| + |explanation| * (|explanation| - 1)
    d_pass, d_fail, oracle = adversarial_rank_scenario(seed=0)
    n_candidates = len(discriminative_pvts(d_pass, d_fail))
    grd = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=0))
    k = len(grd.triplets)
    assert grd.interventions <= n_candidates + k * (k - 1)
    # group testing: 4 * t * ceil(log2 |candidates|) + |explanation|^2, t = 1 here
    d_pass, d_fail, oracle = adversarial_rank_scenario(seed=0)
    gt = explain(d_pass, d_fail, oracle,
                 EngineConfig(tau=0.2, seed=0, algorithm="group_test"))
    assert gt.interventions <= 4 * math.ceil(math.log2(n_candidates)) + len(gt.triplets) ** 2


def test_group_testing_deterministic():
    runs = []
    for _ in range(2):
        d_pass, d_fail, oracle = generate(sentiment_spec(seed=8))
        config = EngineConfig(tau=0.2, seed=8, algorithm="group_test")
        runs.append(explain(d_pass, d_fail, oracle, config))
    assert runs[0].triplet_ids() == runs[1].triplet_ids()
    assert runs[0].repaired_fingerprint == runs[1].repaired_fingerprint
    assert runs[0].interventions == runs[1].interventions
    assert [e.to_json_dict() for e in runs[0].log.entries] == \
        [e.to_json_dict() for e in runs[1].log.entries]


def test_decision_tree_union_of_passing_datasets():
    d_pass, d_fail, oracle = interaction_scenario(seed=2)
    # a second passing observation: same pair repaired differently
    triplets = {t.profile.attributes()[0]: t
                for t in discriminative_pvts(d_pass, d_fail)
                if t.profile.kind is ProfileKind.MISSING
                and t.profile.attributes()[0] in ("p1", "p2")}
    other_pass = compose(list(triplets.values()), d_fail, seed=2).dataset
    assert oracle.evaluate(other_pass) == 0.0
    config = EngineConfig(tau=0.2, seed=2)
    result = decision_tree_explain(
        [(d_pass, True), (other_pass, True), (d_fail, False)],
        d_fail, oracle, config)
    attrs = sorted(t.profile.attributes()[0] for t in result.triplets)
    assert attrs == ["p1", "p2"]
    assert len(result.log.entries) == result.interventions


def fairness_people_oracle():
    """Two-part scorer over the worked-example tables: dependence between
    race and spending (only decorrelation fixes it; losing a class entirely
    counts as maximal suspicion) plus the zip-code missing rate beyond the
    passing level (only imputation fixes it)."""
    from datacause.synth import _cramers_v

    def score(d):
        races = {v for v in d.column("race") if v is not None}
        spend = {v for v in d.column("high_expenditure") if v is not None}
        if len(races) < 2 or len(spend) < 2:
            dep = 1.0
        else:
            dep = max(0.0, (_cramers_v(d, "race", "high_expenditure") - 0.45) / 0.55)
        missing = sum(1 for v in d.column("zip_code") if v is None) / d.row_count
        gap = min(1.0, max(0.0, (missing - 0.11) / 0.89) / 0.12)
        return min(1.0, 0.4 * dep + 0.6 * gap)

    return CallableOracle(score)


def test_fairness_walkthrough_on_worked_example_tables(people_pass, people_fail):
    oracle = fairness_people_oracle()
    assert oracle.evaluate(people_pass) <= 0.2
    assert oracle.evaluate(people_fail) > 0.4
    result = explain(people_pass, people_fail, oracle,
                     EngineConfig(tau=0.2, seed=0))
    # two complementary repairs, one of them the dependence breaker
    assert len(result.triplets) == 2
    assert any(t.profile.kind is ProfileKind.CHI2 and
               t.profile.attributes() == ("high_expenditure", "race")
               for t in result.triplets)
    verifier = fairness_people_oracle()
    for i in range(len(result.triplets)):
        rest = list(result.triplets[:i]) + list(result.triplets[i + 1:])
        partial = compose(rest, people_fail, seed=0).dataset
        assert verifier.evaluate(partial) > 0.2
    assert verifier.evaluate(result.repaired) <= 0.2
    assert result.interventions <= 24


def test_tau_boundary_is_inclusive():
    # a repaired dataset scoring exactly tau passes
    d_pass = from_columns([("c", ColumnType.CATEGORICAL, ["ok"] * 21)])
    d_fail = from_columns([("c", ColumnType.CATEGORICAL, ["ok"] * 19 + [None])])
    oracle = CallableOracle(
        lambda d: 0.9 if any(v is None for v in d.column("c")) else 0.3)
    result = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.3))
    assert result.final_score == 0.3


@pytest.mark.parametrize("remap", [["x"], {"target": "1"}, {"target": {"0": 1}}, {1: {"0": "1"}}])
def test_malformed_remap_overrides_rejected(remap):
    with pytest.raises(ValidationError):
        EngineConfig(tau=0.2, remap_overrides=remap)


@pytest.mark.parametrize("kwargs", [
    {"tau": -0.1}, {"tau": 1.5}, {"tau": 0.2, "algorithm": "bisect"},
    {"tau": 0.2, "max_interventions": 0},
    {"tau": "0.2"}, {"tau": None}, {"tau": True},
    {"tau": 0.2, "seed": "x"}, {"tau": 0.2, "seed": 1.0}, {"tau": 0.2, "seed": False},
    {"tau": 0.2, "max_interventions": "5"}, {"tau": 0.2, "max_interventions": 5.0},
    {"tau": 0.2, "max_interventions": True},
])
def test_config_out_of_range_or_of_the_wrong_type_rejected(kwargs):
    with pytest.raises(ValidationError):
        EngineConfig(**kwargs)


def test_config_accepts_an_integer_tau():
    assert EngineConfig(tau=1, seed=3, max_interventions=5).tau == 1


# --- failed compositions -------------------------------------------------------------


def fail_compose_of(monkeypatch, predicate):
    """Make ``engine.compose`` raise for every triplet list ``predicate`` accepts."""
    real = engine.compose

    def compose_or_fail(triplets, dataset, **kwargs):
        triplets = list(triplets)
        if predicate(triplets):
            raise TransformFailure("forced failure", best_violation=1.0)
        return real(triplets, dataset, **kwargs)

    monkeypatch.setattr(engine, "compose", compose_or_fail)


def test_minimality_probe_that_fails_to_compose_is_noted(monkeypatch):
    d_fail = from_columns([
        ("c", ColumnType.CATEGORICAL, ["ok"] * 18 + [None, None]),
        ("d", ColumnType.CATEGORICAL, ["x"] * 12 + ["y"] * 8),
    ])
    oracle = CallableOracle(
        lambda d: 1.0 if any(v is None for v in d.column("c")) else 0.0)
    oracle.evaluate(d_fail)
    needed = make_triplets(MissingRate("c", 0.0))[0]
    redundant = make_triplets(
        SelectivityBound(Predicate((Term("d", "eq", "x"),)), 0.4))[0]
    fail_compose_of(monkeypatch, lambda ts: [t.id for t in ts] == [redundant.id])
    log = engine.InterventionLog()
    result = make_minimal([needed, redundant], d_fail, oracle, EngineConfig(tau=0.2), log=log)
    assert [t.id for t in result] == [needed.id]
    assert log.notes == [
        f"minimality probe without {needed.id} failed to compose: forced failure"]
    assert [e.triplet_ids for e in log.entries] == [(needed.id,)]


def test_decision_tree_notes_an_untransformable_conjunction(monkeypatch):
    d_pass, d_fail, oracle = interaction_scenario(seed=0)
    real = engine.transform

    def transform_or_fail(dataset, triplet, **kwargs):
        if triplet.profile.attributes() == ("p1",):
            raise TransformFailure("forced failure", best_violation=1.0)
        return real(dataset, triplet, **kwargs)

    monkeypatch.setattr(engine, "transform", transform_or_fail)
    with pytest.raises(NoExplanationFound, match="decision tree found no passing conjunction") \
            as err:
        decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail, oracle,
                              EngineConfig(tau=0.2))
    assert err.value.log.notes == ["conjunction ['missing_rate(p1)'] untransformable"]
    assert err.value.log.entries == []


def test_decision_tree_notes_a_conjunction_that_fails_to_compose(monkeypatch):
    d_pass, d_fail, oracle = interaction_scenario(seed=0)
    fail_compose_of(monkeypatch, lambda ts: len(ts) == 2 and all(
        t.profile.kind is ProfileKind.MISSING for t in ts))
    with pytest.raises(NoExplanationFound, match="decision tree found no passing conjunction") \
            as err:
        decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail, oracle,
                              EngineConfig(tau=0.2))
    assert err.value.log.notes == ["conjunction failed to compose: forced failure"]
    assert len(err.value.log.entries) == oracle.invocation_count - 1 == 4


def order_trap(monkeypatch):
    """Group testing that repairs the later-sorted of two missing-rate
    candidates first, and a repair of ``b`` that fails once ``a`` has no
    missing cell: the search collects both, but they do not compose in
    sorted order."""
    real = engine.transform

    def transform_or_fail(dataset, triplet, **kwargs):
        if triplet.profile.attribute == "b" and not dataset.column("a").missing:
            raise TransformFailure("forced failure", best_violation=1.0)
        return real(dataset, triplet, **kwargs)

    monkeypatch.setattr(engine, "transform", transform_or_fail)
    monkeypatch.setattr(engine, "best_bisection", lambda graph, ids, seed: (ids[1:], ids[:1]))


def missing_pair(n=40):
    cells = {"a": ["u" if i % 2 else "v" for i in range(n)],
             "b": ["u" if i // 2 % 2 else "v" for i in range(n)]}
    d_pass = from_columns([(a, ColumnType.CATEGORICAL, c) for a, c in cells.items()])
    d_fail = from_columns([(a, ColumnType.CATEGORICAL,
                            [None if i == j else v for i, v in enumerate(c)])
                           for j, (a, c) in enumerate(cells.items())])
    return d_pass, d_fail


def test_group_testing_collected_repairs_that_fail_to_compose(monkeypatch):
    d_pass, d_fail = missing_pair()
    oracle = build_builtin_oracle("domain-remap", {"missing": "a,b"})
    order_trap(monkeypatch)
    with pytest.raises(NoExplanationFound) as err:
        explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, algorithm="group_test"))
    assert str(err.value) == "collected repairs failed to compose: forced failure"
    assert [(e.triplet_ids, e.post_score) for e in err.value.log.entries] == [
        (("missing_rate(b)#impute",), 0.5), (("missing_rate(a)#impute",), 0.5)]


def test_group_testing_collected_repairs_that_fail_to_compose_exit_2(monkeypatch, tmp_path,
                                                                        capsys):
    d_pass, d_fail = missing_pair()
    save_csv(d_pass, tmp_path / "pass.csv")
    save_csv(d_fail, tmp_path / "fail.csv")
    order_trap(monkeypatch)
    code = cli_main(["explain", "--pass", str(tmp_path / "pass.csv"),
                     "--fail", str(tmp_path / "fail.csv"), "--algorithm", "gt",
                     "--oracle", "builtin:domain-remap?missing=a,b", "--tau", "0.2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "collected repairs failed to compose: forced failure"
    assert [e["triplets"] for e in report["log"]["entries"]] == [
        ["missing_rate(b)#impute"], ["missing_rate(a)#impute"]]


def test_decision_tree_gives_up_after_max_refits():
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=0, decoys=20))
    with pytest.raises(NoExplanationFound,
                       match=f"decision tree exhausted {engine.MAX_REFITS} refits") as err:
        decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail, oracle,
                              EngineConfig(tau=0.2))
    assert len(err.value.log.entries) == engine.MAX_REFITS + 1


def test_decision_tree_repair_reproducing_a_labelled_input_is_an_intervention():
    d_pass = from_columns([("target", ColumnType.CATEGORICAL, ["-1"] * 12 + ["1"] * 8)])
    d_fail = from_columns([("target", ColumnType.CATEGORICAL, ["0"] * 12 + ["4"] * 8)])
    oracle = CallableOracle(lambda d: sum(
        v not in ("-1", "1") for v in d.column("target")) / d.row_count)
    result = decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail, oracle,
                                   EngineConfig(tau=0.2))
    assert result.repaired_fingerprint == d_pass.fingerprint
    assert oracle.invocation_count == 2
    assert result.interventions == 1
    assert [(e.triplet_ids, e.accepted) for e in result.log.entries] == [
        (result.triplet_ids(), True)]


def test_decision_tree_input_checks():
    d_pass, d_fail, oracle = interaction_scenario(seed=1)
    config = EngineConfig(tau=0.2)
    with pytest.raises(ValidationError, match="at least two labeled"):
        decision_tree_explain([(d_fail, False)], d_fail, oracle, config)
    with pytest.raises(ValidationError, match="at least one passing"):
        decision_tree_explain([(d_fail, False), (d_fail, False)], d_fail, oracle, config)
    with pytest.raises(ValidationError, match="already scores within tau"):
        decision_tree_explain([(d_pass, True), (d_fail, False)], d_pass, oracle, config)
    same_pass, same_fail, same_oracle = profile_identical_pair()
    with pytest.raises(NoExplanationFound, match="no discriminative profiles"):
        decision_tree_explain([(same_pass, True), (same_fail, False)], same_fail,
                              same_oracle, config)


# --- the run's repair memo -----------------------------------------------------------


def count_repairs(monkeypatch) -> list[tuple[str, object]]:
    """Record the (input fingerprint, triplet) of every repair made, whether
    the engine calls it or ``compose`` and ``coverage`` do."""
    calls = []
    real = transforms.transform

    def counting(dataset, triplet, **kwargs):
        calls.append((dataset.fingerprint, triplet))
        return real(dataset, triplet, **kwargs)

    monkeypatch.setattr(engine, "transform", counting)
    monkeypatch.setattr(transforms, "transform", counting)
    return calls


def test_a_greedy_run_makes_each_repair_once(monkeypatch):
    d_pass, d_fail, oracle = generate(income_spec(seed=0, with_skew=True))
    calls = count_repairs(monkeypatch)
    requests = []
    real_run_transform = engine._Run.transform

    def requesting(run, dataset, triplet):
        requests.append((dataset.fingerprint, triplet))
        return real_run_transform(run, dataset, triplet)

    monkeypatch.setattr(engine._Run, "transform", requesting)
    result = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.3, seed=0))
    assert result.triplets
    assert len(calls) == len(set(calls))
    assert set(requests) == set(calls)
    assert len(requests) > len(calls)  # later requests were answered by the memo


def test_a_memoized_transform_failure_raises_and_notes_as_the_first():
    from datacause.engine import _Run
    xs = [float(i) for i in range(30)]
    d = from_columns([("x", ColumnType.NUMERICAL, xs), ("y", ColumnType.NUMERICAL, list(xs))])
    oracle = CallableOracle(lambda d: 0.5)
    [unreachable] = make_triplets(CorrelationBound("x", "y", 0.0))
    run = _Run(oracle, EngineConfig(tau=0.2, seed=1))
    failures = []
    for _ in range(2):
        with pytest.raises(TransformFailure) as caught:
            run.transform(d, unreachable)
        failures.append((str(caught.value), caught.value.best_violation))
    for _ in range(2):
        assert run.attempt([unreachable], d, 0.5, "probe") == (None, None)
    assert failures[0] == failures[1]
    assert failures[0][1] > 0.0
    assert run.log.notes == [f"probe: {failures[0][0]}"] * 2
    assert len(run.repairs) == 1


def test_each_explanation_starts_from_no_repairs(monkeypatch):
    d_pass, d_fail, oracle = generate(income_spec(seed=1, with_skew=True))
    calls = count_repairs(monkeypatch)
    explain(d_pass, d_fail, oracle, EngineConfig(tau=0.3, seed=1))
    first = list(calls)
    _, _, oracle = generate(income_spec(seed=1, with_skew=True))
    explain(d_pass, d_fail, oracle, EngineConfig(tau=0.3, seed=1))
    assert calls == first + first


# --- repairs and violations that raise ------------------------------------------------


def two_missing_columns_pair():
    """Text columns ``a`` and ``b``; the failing copy hides three cells of ``a``
    and one of ``b``, so the candidates are ``missing_rate(a)#impute`` and
    ``missing_rate(b)#impute``, with ``a`` of the higher benefit."""
    cells = [f"r{i:02d}" for i in range(12)]
    d_pass = from_columns([(c, ColumnType.TEXT, cells) for c in ("a", "b")])
    d_fail = from_columns([("a", ColumnType.TEXT, [None] * 3 + cells[3:]),
                           ("b", ColumnType.TEXT, [None] + cells[1:])])
    return d_pass, d_fail


def complete(dataset):
    """The columns of ``dataset`` without a missing cell."""
    return tuple(c for c in dataset.attributes if None not in dataset.column(c))


def test_group_test_notes_a_singleton_it_cannot_transform(monkeypatch):
    # each repair helps alone and neither passes, so both singletons are
    # descended into; the second is repaired on the first one's result
    monkeypatch.setattr(engine, "best_bisection", _halves_in_sorted_order)
    real = engine.transform

    def transform_or_fail(dataset, triplet, **kwargs):
        if triplet.profile.attributes() == ("b",) and "a" in complete(dataset):
            raise TransformFailure("forced failure", best_violation=1.0)
        return real(dataset, triplet, **kwargs)

    monkeypatch.setattr(engine, "transform", transform_or_fail)
    d_pass, d_fail = two_missing_columns_pair()
    scores = {(): 1.0, ("a",): 0.6, ("b",): 0.6, ("a", "b"): 0.0}
    oracle = CallableOracle(lambda d: scores[complete(d)])
    with pytest.raises(NoExplanationFound, match="collected repairs only reach 0.6") as err:
        explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2, algorithm="group_test"))
    assert err.value.log.notes == [
        "singleton missing_rate(b)#impute untransformable: forced failure"]


def test_greedy_drops_a_candidate_whose_violation_raises(monkeypatch):
    real = engine.violation

    def violation_or_fail(dataset, profile):
        if profile.attributes() == ("b",) and "a" in complete(dataset):
            raise DegenerateInputError("forced failure")
        return real(dataset, profile)

    monkeypatch.setattr(engine, "violation", violation_or_fail)
    d_pass, d_fail = two_missing_columns_pair()
    oracle = CallableOracle(lambda d: 0.0 if "a" in complete(d) else 1.0)
    result = explain(d_pass, d_fail, oracle, EngineConfig(tau=0.2))
    assert result.triplet_ids() == ("missing_rate(a)#impute",)
    assert result.interventions == 1
    assert result.log.notes == [
        "missing_rate(b)#impute dropped, violation unavailable: forced failure"]


def test_decision_tree_reads_a_violation_error_as_unsatisfied(monkeypatch):
    # read as unsatisfied, ``a`` does not separate the passing dataset from
    # the failing one, so the tree tries ``b`` first; read as satisfied, it
    # would try ``a`` first and spend a second intervention
    d_pass, d_fail = two_missing_columns_pair()
    real, raised = engine.violation, []

    def violation_or_fail(dataset, profile):
        if profile.attributes() == ("a",) and dataset.fingerprint == d_pass.fingerprint:
            raised.append(profile)
            raise DegenerateInputError("forced failure")
        return real(dataset, profile)

    monkeypatch.setattr(engine, "violation", violation_or_fail)
    oracle = CallableOracle(lambda d: 0.0 if "b" in complete(d) else 1.0)
    result = decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail, oracle,
                                   EngineConfig(tau=0.2))
    assert raised
    assert result.triplet_ids() == ("missing_rate(b)#impute",)
    assert result.interventions == 1


# --- the run's tallies -------------------------------------------------------


def _scoring(d_pass, d_fail, other, seen):
    """An oracle passing ``d_pass``, failing ``d_fail`` and giving ``other``
    to every other dataset, noting whether a run's tallies were open."""
    def score(dataset):
        seen.append(tabular.TALLIES.get() is not None)
        return {d_pass.fingerprint: 0.0, d_fail.fingerprint: 0.9}.get(dataset.fingerprint, other)
    return CallableOracle(score)


@pytest.mark.parametrize("other, raised", [
    (0.0, None), (0.9, NoExplanationFound), (2.0, OracleError)])
def test_tallies_are_open_only_while_an_explain_runs(other, raised):
    d_pass, d_fail, _ = generate(income_spec(1, with_skew=True))
    seen = []
    oracle = _scoring(d_pass, d_fail, other, seen)
    config = EngineConfig(tau=0.3, seed=1)
    if raised is None:
        explain(d_pass, d_fail, oracle, config)
    else:
        with pytest.raises(raised):
            explain(d_pass, d_fail, oracle, config)
    assert tabular.TALLIES.get() is None
    # the baselines are scored before the run opens, every intervention inside it
    assert seen[:2] == [False, False] and len(seen) > 2 and all(seen[2:])
    with pytest.raises(ValidationError):
        explain(d_fail, d_fail, oracle, config)
    assert tabular.TALLIES.get() is None


def test_the_tree_and_the_minimality_scan_open_tallies_for_their_run_only():
    d_pass, d_fail, _ = generate(income_spec(1, with_skew=True))
    config = EngineConfig(tau=0.3, seed=1)
    for search in (
            lambda oracle: decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail,
                                                 oracle, config),
            lambda oracle: make_minimal(discriminative_pvts(d_pass, d_fail)[:3], d_fail,
                                        oracle, config)):
        seen = []
        search(_scoring(d_pass, d_fail, 0.0, seen))
        assert tabular.TALLIES.get() is None
        assert seen[0] is False and len(seen) > 1 and all(seen[1:])


def test_a_run_counts_each_column_tuple_once_and_a_second_run_counts_them_again(monkeypatch):
    built = []

    class CountingCounter(Counter):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(tabular, "Counter", CountingCounter)
    spec = income_spec(1, with_skew=True)
    d_pass, d_fail, _ = generate(spec)
    config = EngineConfig(tau=spec.tau, seed=spec.seed)
    counts = []
    for _ in range(2):
        built.clear()
        explain(d_pass, d_fail, builtin_oracle(ground_truth(spec)["oracle"]), config)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0
    built.clear()
    discriminative_pvts(d_pass, d_fail)
    unshared = len(built)
    built.clear()
    with engine._Run(None, config):
        discriminative_pvts(d_pass, d_fail)
        assert len(built) == len(tabular.TALLIES.get()) < unshared


#: the first scenario of the gt-wide and greedy-deps benchmark pools at seed 0,
#: per search: (triplet ids, interventions, repaired fingerprint), or the error
#: class and message, and the sha256 of the log's JSON
BENCHMARK_SCALE = {
    "gt-wide": (ScenarioSpec("domain-remap", (PlantedCause("domain", "target"),), n_rows=260,
                             seed=0, decoys=125), {
        "greedy": ((("domain_categorical(target)#remap",), 1,
                    "5bf628757ad66cd670d705a0b207442762ac91570ba7758134ac5a87aed017a6"),
                   "ff73f8fd58f1b2c604078eb2c1eadecb7bae9926b5e13df2a8fc59f479f163a3"),
        "group_test": ((("domain_categorical(target)#remap",), 9,
                        "5bf628757ad66cd670d705a0b207442762ac91570ba7758134ac5a87aed017a6"),
                       "04dc8cfb71ea304c022b9c830df5a817bd7960587277cec0fc09a2bfe9defee5"),
        "group_test_random": ((("domain_categorical(target)#remap",), 9,
                               "5bf628757ad66cd670d705a0b207442762ac91570ba7758134ac5a87aed017a6"),
                              "04dc8cfb71ea304c022b9c830df5a817bd7960587277cec0fc09a2bfe9defee5"),
    }),
    "greedy-deps": (ScenarioSpec("dependence-bias", (PlantedCause("dependence", "target"),
                                                     PlantedCause("selectivity", "usage_class")),
                                 n_rows=2000, seed=0, tau=0.3), {
        "greedy": ((("chi_square_dependence(c3,target)#shuffle",
                     "selectivity(usage_class=hi)#resample"), 3,
                    "e1331b59b1ecc25edc464a99bcc6164512576eb3cc467dae511edc08d3cc78ca"),
                   "a469f46ff4afe58918f54e45492246014dc0371b098503c2cf96a0e52947dd43"),
        "group_test": (("NoExplanationFound", "collected repairs only reach 0.4726, above tau 0.3"),
                       "ab516331fce39a7146b511e4e45a7ad5e4b680665287394f8ec1e3a03f15c2dc"),
        "group_test_random": ((("selectivity(c2=v&target=neg)#resample",
                                "selectivity(c3=v&usage_class=lo)#resample",
                                "chi_square_dependence(c4,target)#shuffle"), 12,
                               "512b1723221c6081324d0a6d0a0728ebd3ee24297729ed66ebcf4da8a0ba84a5"),
                              "f2e9bf3816695f8adbab42f9bf0bd439be2cb2fd37ff2e0458065906b8b92734"),
    }),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_SCALE))
def test_benchmark_scale_explanations_are_pinned(workload):
    spec, pinned = BENCHMARK_SCALE[workload]
    d_pass, d_fail, _ = generate(spec)
    for algorithm, expected in pinned.items():
        config = EngineConfig(tau=spec.tau, seed=spec.seed, algorithm=algorithm)
        try:
            result = explain(d_pass, d_fail, builtin_oracle(ground_truth(spec)["oracle"]), config)
        except NoExplanationFound as exc:
            outcome, log = (type(exc).__name__, str(exc)), exc.log
        else:
            outcome = (result.triplet_ids(), result.interventions, result.repaired_fingerprint)
            log = result.log
        digest = hashlib.sha256(json.dumps(log.to_json_dict(), sort_keys=True).encode()).hexdigest()
        assert (outcome, digest) == expected, algorithm
