from __future__ import annotations

import pytest

from datacause.engine import (
    EngineConfig,
    benefit_score,
    decision_tree_explain,
    discriminative_pvts,
    explain,
    explain_greedy,
    explain_group_testing,
    group_test,
    make_minimal,
)
from datacause.errors import NoExplanationFound, SchemaError, ValidationError
from datacause.graph import build_dependency_graph, build_pvt_attribute_graph
from datacause.oracle import CallableOracle
from datacause.profiles import (
    ChiSquareBound,
    MissingRate,
    ProfileKind,
    SelectivityBound,
    violation,
)
from datacause.synth import (
    PairedCauseScenario,
    PlantedCause,
    ScenarioSpec,
    generate,
    generate_paired,
)
from datacause.tabular import ColumnType, Predicate, Term, from_columns
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


def test_discriminative_self_empty(people_fail):
    assert discriminative_pvts(people_fail, people_fail) == []


def test_discriminative_requires_shared_schema(people_fail):
    other = from_columns([("different", ColumnType.NUMERICAL, [1.0])])
    with pytest.raises(SchemaError):
        discriminative_pvts(people_fail, other)


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
    graph = build_pvt_attribute_graph(triplets, d_fail)
    degrees = {a: graph.attribute_degree(a) for a in d_fail.attributes}
    target_degree = degrees.pop("target")
    assert target_degree > max(degrees.values())


def test_domain_remap_fixture_has_three_triplets():
    d_pass, d_fail, _ = generate(sentiment_spec(seed=0))
    triplets = discriminative_pvts(d_pass, d_fail)
    assert len(triplets) == 3
    assert sorted(t.profile.kind.value for t in triplets) == [
        "domain_categorical", "domain_text", "missing_rate"]


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
    result = explain_greedy(d_pass, d_fail, oracle, config)
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
    result = explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.2))
    assert result.interventions == 1
    assert len(result.triplets) == 1


@pytest.mark.parametrize("seed", range(3))
def test_greedy_fairness_analog_two_step(seed):
    d_pass, d_fail, oracle = generate(income_spec(seed=seed, with_skew=True))
    result = explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.3, seed=seed))
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
        explain_greedy(d_fail, d_pass, oracle, EngineConfig(tau=0.2))
    oracle2 = CallableOracle(lambda d: 0.0)
    with pytest.raises(ValidationError):
        explain_greedy(d_pass, d_fail, oracle2, EngineConfig(tau=0.2))


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
        explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.2))


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
        explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.2, max_interventions=2))
    assert err.value.log is not None


def test_greedy_log_matches_intervention_count():
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=3))
    result = explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=3))
    assert len(result.log.entries) == result.interventions
    assert result.interventions == oracle.intervention_count()
    assert any(e.accepted for e in result.log.entries)


def test_greedy_deterministic():
    a = explain_greedy(*generate(sentiment_spec(seed=5)), EngineConfig(tau=0.2, seed=5))
    b = explain_greedy(*generate(sentiment_spec(seed=5)), EngineConfig(tau=0.2, seed=5))
    assert a.triplet_ids() == b.triplet_ids()
    assert a.repaired_fingerprint == b.repaired_fingerprint
    assert a.interventions == b.interventions


# --- group testing -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_group_testing_sentiment_analog(seed):
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=seed))
    config = EngineConfig(tau=0.2, seed=seed, algorithm="group_test")
    result = explain_group_testing(d_pass, d_fail, oracle, config)
    assert result.interventions <= 5
    assert ProfileKind.DOMAIN_CATEGORICAL in {t.profile.kind for t in result.triplets}
    assert result.final_score <= 0.2


@pytest.mark.parametrize("seed", range(3))
def test_group_testing_income_analog(seed):
    d_pass, d_fail, oracle = generate(income_spec(seed=seed))
    config = EngineConfig(tau=0.3, seed=seed, algorithm="group_test")
    result = explain_group_testing(d_pass, d_fail, oracle, config)
    dependence = [t for t in result.triplets if isinstance(t.profile, ChiSquareBound)]
    assert dependence and all(t.perturb == "target" for t in dependence)


def test_group_test_singleton_one_intervention():
    d_pass, d_fail, oracle = single_missing_candidate_pair()
    config = EngineConfig(tau=0.2, algorithm="group_test")
    result = explain_group_testing(d_pass, d_fail, oracle, config)
    assert result.interventions == 1
    assert len(result.triplets) == 1


def test_group_test_two_cluster_example():
    # two dependency-graph cliques, one of which hides the (paired) cause
    d_pass, d_fail, oracle = generate_paired(
        PairedCauseScenario(units=1, junk_attributes=1, seed=4))
    triplets = discriminative_pvts(d_pass, d_fail)
    assert len(triplets) >= 6
    config = EngineConfig(tau=0.2, seed=4, algorithm="group_test")
    result = explain_group_testing(d_pass, d_fail, oracle, config)
    assert result.interventions <= 10
    assert result.final_score <= 0.2


def test_group_test_empty_candidates():
    d_pass, d_fail, oracle = profile_identical_pair()
    with pytest.raises(NoExplanationFound):
        explain_group_testing(d_pass, d_fail, oracle,
                              EngineConfig(tau=0.2, algorithm="group_test"))


def test_group_test_direct_call():
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=1))
    oracle.evaluate(d_fail, baseline=True)
    candidates = discriminative_pvts(d_pass, d_fail)
    g_pd = build_dependency_graph(build_pvt_attribute_graph(candidates, d_fail))
    config = EngineConfig(tau=0.2, seed=1, algorithm="group_test")
    repaired, found = group_test(candidates, d_fail, g_pd, oracle, config)
    assert found
    assert oracle.evaluate(repaired) <= 0.2


def test_gt_random_vs_gt_paired_means():
    sizes = []
    for seed in range(6):
        counts = {}
        for algorithm in ("group_test", "group_test_random"):
            d_pass, d_fail, oracle = generate_paired(
                PairedCauseScenario(units=2, junk_attributes=2, seed=seed))
            config = EngineConfig(tau=0.2, seed=seed, algorithm=algorithm)
            result = explain_group_testing(d_pass, d_fail, oracle, config)
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
    oracle.evaluate(d_fail, baseline=True)
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
    oracle.evaluate(d_fail, baseline=True)
    x = make_triplets(MissingRate("c", 0.0))[0]
    config = EngineConfig(tau=0.2)
    before = oracle.intervention_count()
    result = make_minimal([x], d_fail, oracle, config)
    assert [t.id for t in result] == [x.id]
    assert oracle.intervention_count() == before  # empty remainder hits the baseline cache


def test_make_minimal_keeps_jointly_necessary_pair():
    d_pass, d_fail, oracle = generate(ScenarioSpec(
        oracle_family="interaction-pair",
        planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
        n_rows=80, seed=1))
    oracle.evaluate(d_fail, baseline=True)
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
    result = explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.3, seed=0))
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
        explain_greedy(d_pass, d_fail, oracle, config)


def test_decision_tree_single_separating_profile():
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=6))
    config = EngineConfig(tau=0.2, seed=6)
    # two pass-labeled and two fail-labeled observations of the same pair
    labeled = [(d_pass, True), (d_pass, True), (d_fail, False), (d_fail, False)]
    result = decision_tree_explain(labeled, d_fail, oracle, config)
    assert len(result.triplets) == 1
    assert result.triplets[0].profile.kind is ProfileKind.DOMAIN_CATEGORICAL


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
    oracle.evaluate(d_fail, baseline=True)
    run = _Run(oracle, EngineConfig(tau=0.2, a3="warn"))
    triplets = {t.profile.attributes()[0]: t
                for t in (make_triplets(MissingRate(a, 0.0))[0] for a in ("p1", "p2"))}
    both = compose(list(triplets.values()), d_fail, seed=0).dataset
    score = run.query(both, tuple(t.id for t in triplets.values()), 1.0)
    assert score == 1.0  # composed pair failed to help
    alone = compose([triplets["p1"]], d_fail, seed=0).dataset
    assert run.query(alone, (triplets["p1"].id,), 1.0) == 0.3
    assert any("assumption violated" in note for note in run.log.notes)


def test_a3_strict_mode_raises_internally():
    from datacause.engine import _A3Abort, _Run
    d_fail = cancelling_pair()
    oracle = cancelling_oracle()
    oracle.evaluate(d_fail, baseline=True)
    run = _Run(oracle, EngineConfig(tau=0.2, a3="strict"))
    triplets = [make_triplets(MissingRate(a, 0.0))[0] for a in ("p1", "p2")]
    both = compose(triplets, d_fail, seed=0).dataset
    run.query(both, tuple(t.id for t in triplets), 1.0)
    alone = compose(triplets[:1], d_fail, seed=0).dataset
    with pytest.raises(_A3Abort):
        run.query(alone, (triplets[0].id,), 1.0)


def test_a3_strict_mode_no_false_alarms():
    d_pass, d_fail, oracle = generate(sentiment_spec(seed=4))
    config = EngineConfig(tau=0.2, seed=4, algorithm="group_test", a3="strict")
    result = explain_group_testing(d_pass, d_fail, oracle, config)
    assert result.final_score <= 0.2


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
        explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=1))
    assert err.value.log is not None


def test_intervention_bound_invariants():
    from datacause.synth import adversarial_rank_scenario
    import math

    # greedy worst case: |candidates| + |explanation| * (|explanation| - 1)
    d_pass, d_fail, oracle = adversarial_rank_scenario(seed=0)
    n_candidates = len(discriminative_pvts(d_pass, d_fail))
    grd = explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.2, seed=0))
    k = len(grd.triplets)
    assert grd.interventions <= n_candidates + k * (k - 1)
    # group testing: 4 * t * ceil(log2 |candidates|) + |explanation|^2, t = 1 here
    d_pass, d_fail, oracle = adversarial_rank_scenario(seed=0)
    gt = explain_group_testing(d_pass, d_fail, oracle,
                               EngineConfig(tau=0.2, seed=0, algorithm="group_test"))
    assert gt.interventions <= 4 * math.ceil(math.log2(n_candidates)) + len(gt.triplets) ** 2


def test_group_testing_deterministic():
    runs = []
    for _ in range(2):
        d_pass, d_fail, oracle = generate(sentiment_spec(seed=8))
        config = EngineConfig(tau=0.2, seed=8, algorithm="group_test")
        runs.append(explain_group_testing(d_pass, d_fail, oracle, config))
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
    result = explain_greedy(people_pass, people_fail, oracle,
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
    result = explain_greedy(d_pass, d_fail, oracle, EngineConfig(tau=0.3))
    assert result.final_score == 0.3
