from __future__ import annotations

import pytest

from conftest import random_dataset
from datacause.errors import TransformFailure
from datacause.profiles import (
    ChiSquareBound,
    CorrelationBound,
    DomainCategorical,
    DomainNumerical,
    DomainText,
    MissingRate,
    OutlierBound,
    SelectivityBound,
    chi_square_statistic,
    discover_profiles,
    pearson_correlation,
    violation,
)
from datacause.tabular import ColumnType, Predicate, Term, from_columns, select_where
from datacause.transforms import (
    POSTCONDITION_TOL,
    PvtTriplet,
    compose,
    coverage,
    make_triplets,
    transform,
)


def triplet(profile, transform_id=None, perturb=None):
    tid = transform_id or make_triplets(profile)[0].transform_id
    return PvtTriplet(profile, tid, perturb)


# --- categorical remap ---------------------------------------------------------


def test_frequency_rank_remap_sentiment_style():
    d = from_columns([("target", ColumnType.CATEGORICAL,
                       ["0", "4", "0", "4", "0", "4"])])
    fixed = transform(d, triplet(DomainCategorical("target", frozenset({"-1", "1"}))))
    assert fixed.column("target") == ("-1", "1", "-1", "1", "-1", "1")


def test_remap_prefers_frequent_targets():
    d = from_columns([("c", ColumnType.CATEGORICAL,
                       ["bad", "bad", "bad", "worse", "ok", "ok", "meh"])])
    profile = DomainCategorical("c", frozenset({"ok", "meh"}))
    fixed = transform(d, triplet(profile))
    # most frequent illegal value maps onto the most frequent legal one
    assert fixed.column("c")[:4] == ("ok", "ok", "ok", "meh")
    assert violation(fixed, profile) == 0.0


def test_remap_wraps_when_more_illegal_than_legal():
    d = from_columns([("c", ColumnType.CATEGORICAL, ["a", "b", "cc", "a", "b"])])
    profile = DomainCategorical("c", frozenset({"z"}))
    fixed = transform(d, triplet(profile))
    assert set(fixed.column("c")) == {"z"}


# --- numerical domain -----------------------------------------------------------


def test_linear_map_moves_all_values():
    d = from_columns([("x", ColumnType.NUMERICAL, [0.0, 2.0, 4.0])])
    profile = DomainNumerical("x", -1.0, 1.0)
    fixed = transform(d, triplet(profile, "linear_map"))
    assert fixed.column("x") == (-1.0, 0.0, 1.0)


def test_winsorize_touches_only_outliers():
    d = from_columns([("x", ColumnType.NUMERICAL, [-5.0, 0.5, 0.7, 9.0])])
    profile = DomainNumerical("x", 0.0, 1.0)
    fixed = transform(d, triplet(profile, "winsorize"))
    assert fixed.column("x") == (0.0, 0.5, 0.7, 1.0)


def test_already_satisfied_returns_identical_dataset():
    d = from_columns([("x", ColumnType.NUMERICAL, [0.1, 0.9])])
    profile = DomainNumerical("x", 0.1, 0.9)
    for variant in ("linear_map", "winsorize"):
        out = transform(d, triplet(profile, variant))
        assert out.fingerprint == d.fingerprint


# --- outliers ---------------------------------------------------------------------


def test_outlier_replacement_hand_derived():
    d = from_columns([("x", ColumnType.NUMERICAL, [10.0, 20.0, 30.0, 100.0])])
    profile = OutlierBound("x", 1.5, 0.0)
    fixed = transform(d, triplet(profile))
    # the 100 sits beyond 1.5 stddevs and is replaced by the pre-transform mean
    assert fixed.column("x") == (10.0, 20.0, 30.0, 40.0)
    assert violation(fixed, profile) == 0.0


# --- missing ------------------------------------------------------------------------


def test_impute_mean_and_mode():
    d = from_columns([
        ("num", ColumnType.NUMERICAL, [1.0, None, 3.0, None]),
        ("cat", ColumnType.CATEGORICAL, ["a", "a", None, "b"]),
    ])
    fixed_num = transform(d, triplet(MissingRate("num", 0.0)))
    assert fixed_num.column("num") == (1.0, 2.0, 3.0, 2.0)
    fixed_cat = transform(d, triplet(MissingRate("cat", 0.0)))
    assert fixed_cat.column("cat") == ("a", "a", "a", "b")


# --- selectivity ----------------------------------------------------------------------


def sel_profile(threshold):
    return SelectivityBound(Predicate((Term("c", "eq", "hot"),)), threshold)


def sel_dataset(hot, cold):
    return from_columns([("c", ColumnType.CATEGORICAL, ["hot"] * hot + ["cold"] * cold)])


def test_selectivity_subsample_down():
    d = sel_dataset(hot=14, cold=6)
    profile = sel_profile(0.2)
    fixed = transform(d, triplet(profile), seed=1)
    count = len(select_where(fixed, profile.predicate))
    assert count == int(0.2 * fixed.row_count)
    assert violation(fixed, profile) == 0.0
    assert fixed.row_count < d.row_count


def test_selectivity_upsample_when_under_represented():
    d = sel_dataset(hot=2, cold=18)
    profile = sel_profile(0.4)
    fixed = transform(d, triplet(profile), seed=1)
    count = len(select_where(fixed, profile.predicate))
    assert count == int(0.4 * fixed.row_count)
    assert fixed.row_count > d.row_count


def test_selectivity_exact_match_is_noop():
    d = sel_dataset(hot=4, cold=16)
    out = transform(d, triplet(sel_profile(0.2)), seed=1)
    assert out.fingerprint == d.fingerprint


def test_selectivity_refuses_to_delete_every_row():
    d = sel_dataset(hot=10, cold=0)
    with pytest.raises(TransformFailure) as err:
        transform(d, triplet(sel_profile(0.0)), seed=1)
    assert err.value.best_violation == 1.0


# --- dependence -----------------------------------------------------------------------


def dependent_pair(n=80):
    left = ["u" if i % 2 == 0 else "v" for i in range(n)]
    right = ["1" if v == "u" else "0" for v in left]
    return from_columns([
        ("a", ColumnType.CATEGORICAL, left),
        ("b", ColumnType.CATEGORICAL, right),
    ])


def test_chi2_shuffle_reaches_limit():
    d = dependent_pair()
    profile = ChiSquareBound("a", "b", 1.0)
    fixed = transform(d, triplet(profile), seed=3)
    assert chi_square_statistic(fixed, "a", "b") <= 1.0 + 1e-9
    # the anchor attribute is untouched by default
    assert fixed.column("a") == d.column("a")


def test_chi2_balanced_fallback_reaches_zero_limit():
    d = dependent_pair()
    profile = ChiSquareBound("a", "b", 0.0)
    fixed = transform(d, triplet(profile), seed=3)
    assert chi_square_statistic(fixed, "a", "b") == pytest.approx(0.0, abs=1e-12)


def test_chi2_perturb_override():
    d = dependent_pair()
    profile = ChiSquareBound("a", "b", 1.0)
    fixed = transform(d, triplet(profile, perturb="a"), seed=3)
    assert fixed.column("b") == d.column("b")


def test_pcc_noise_reduces_correlation():
    xs = [float(i) for i in range(60)]
    d = from_columns([
        ("x", ColumnType.NUMERICAL, xs),
        ("y", ColumnType.NUMERICAL, [2.0 * v + 1.0 for v in xs]),
    ])
    profile = CorrelationBound("x", "y", 0.4)
    fixed = transform(d, triplet(profile), seed=5)
    assert abs(pearson_correlation(fixed, "x", "y")) <= 0.4 + 1e-9
    assert fixed.column("x") == d.column("x")


def test_pcc_unreachable_limit_raises_with_best():
    xs = [float(i) for i in range(30)]
    d = from_columns([
        ("x", ColumnType.NUMERICAL, xs),
        ("y", ColumnType.NUMERICAL, list(xs)),
    ])
    profile = CorrelationBound("x", "y", 0.0)
    with pytest.raises(TransformFailure) as err:
        transform(d, triplet(profile), seed=1, max_iterations=6)
    assert 0.0 < err.value.best_violation <= 1.0


# --- shared properties -------------------------------------------------------------


def all_kind_cases():
    """(dataset, triplet) pairs covering every transform variant."""
    cases = []
    cat = from_columns([("c", ColumnType.CATEGORICAL, ["x", "y", "z", "x"])])
    cases.append((cat, triplet(DomainCategorical("c", frozenset({"x", "y"})))))
    num = from_columns([("x", ColumnType.NUMERICAL, [0.0, 5.0, 10.0])])
    cases.append((num, triplet(DomainNumerical("x", 0.0, 1.0), "linear_map")))
    cases.append((num, triplet(DomainNumerical("x", 0.0, 6.0), "winsorize")))
    text = from_columns([("t", ColumnType.TEXT, ["ab1", "cdef22", "zz333"])])
    cases.append((text, triplet(DomainText("t", ("letters", "digits"), 4, 5))))
    out = from_columns([("x", ColumnType.NUMERICAL, [10.0, 20.0, 30.0, 100.0])])
    cases.append((out, triplet(OutlierBound("x", 1.5, 0.0))))
    miss = from_columns([("x", ColumnType.NUMERICAL, [1.0, None, 3.0])])
    cases.append((miss, triplet(MissingRate("x", 0.0))))
    cases.append((sel_dataset(10, 10), triplet(sel_profile(0.25))))
    dep = dependent_pair(40)
    cases.append((dep, triplet(ChiSquareBound("a", "b", 1.0))))
    xs = [float(i) for i in range(40)]
    pcc = from_columns([
        ("x", ColumnType.NUMERICAL, xs),
        ("y", ColumnType.NUMERICAL, [3.0 * v for v in xs]),
    ])
    cases.append((pcc, triplet(CorrelationBound("x", "y", 0.5))))
    return cases


@pytest.mark.parametrize("case", all_kind_cases(), ids=lambda c: c[1].id)
def test_postcondition_zero_violation(case):
    dataset, x = case
    fixed = transform(dataset, x, seed=2)
    assert violation(fixed, x.profile) <= POSTCONDITION_TOL


@pytest.mark.parametrize("case", all_kind_cases(), ids=lambda c: c[1].id)
def test_violation_level_idempotence(case):
    dataset, x = case
    once = transform(dataset, x, seed=2)
    twice = transform(once, x, seed=2)
    assert violation(twice, x.profile) <= POSTCONDITION_TOL
    if x.profile.kind.value not in ("selectivity",):
        # deterministic kinds leave an already-satisfied dataset untouched
        assert twice.fingerprint == once.fingerprint


@pytest.mark.parametrize("case", all_kind_cases(), ids=lambda c: c[1].id)
def test_transform_deterministic_per_seed(case):
    dataset, x = case
    a = transform(dataset, x, seed=9)
    b = transform(dataset, x, seed=9)
    assert a.fingerprint == b.fingerprint


@pytest.mark.parametrize("case", all_kind_cases(), ids=lambda c: c[1].id)
def test_row_count_and_schema_preserved(case):
    dataset, x = case
    fixed = transform(dataset, x, seed=2)
    assert fixed.schema == dataset.schema
    if x.profile.kind.value != "selectivity":
        assert fixed.row_count == dataset.row_count


def test_coverage_examples(people_fail):
    missing = triplet(MissingRate("zip_code", 0.11))
    assert coverage(people_fail, missing) == pytest.approx(0.2)
    satisfied = triplet(MissingRate("zip_code", 0.5))
    assert coverage(people_fail, satisfied) == 0.0
    num = from_columns([("x", ColumnType.NUMERICAL, [0.0, 5.0, 10.0])])
    widened = triplet(DomainNumerical("x", -5.0, 20.0), "linear_map")
    assert coverage(num, widened) == 1.0
    identity = triplet(DomainNumerical("x", 0.0, 10.0), "linear_map")
    assert coverage(num, identity) == 0.0


def test_coverage_zero_iff_satisfied_for_count_kinds():
    for dataset, x in all_kind_cases():
        if x.profile.kind.value in ("selectivity", "chi_square_dependence",
                                    "pearson_dependence", "domain_numerical"):
            continue
        cov = coverage(dataset, x, seed=2)
        sat = violation(dataset, x.profile) == 0.0
        assert (cov == 0.0) == sat, x.id


def test_coverage_matches_transform_for_seeded_kinds():
    d = sel_dataset(hot=14, cold=6)
    x = triplet(sel_profile(0.2))
    cov = coverage(d, x, seed=4)
    out = transform(d, x, seed=4)
    assert cov == pytest.approx((d.row_count - out.row_count) / d.row_count)


# --- composition -------------------------------------------------------------------


def test_compose_empty_is_identity(people_fail):
    result = compose([], people_fail, seed=1)
    assert result.dataset.fingerprint == people_fail.fingerprint
    assert result.warnings == ()


def test_compose_singleton_equals_transform():
    d = sel_dataset(hot=14, cold=6)
    x = triplet(sel_profile(0.2))
    assert compose([x], d, seed=7).dataset.fingerprint == \
        transform(d, x, seed=7).fingerprint


def test_compose_disjoint_profiles_both_hold():
    d = from_columns([
        ("x", ColumnType.NUMERICAL, [0.0, 50.0, 100.0]),
        ("c", ColumnType.CATEGORICAL, ["a", "b", "zz"]),
    ])
    xs = [
        triplet(DomainNumerical("x", 0.0, 1.0), "linear_map"),
        triplet(DomainCategorical("c", frozenset({"a", "b"}))),
    ]
    result = compose(xs, d, seed=1)
    for x in xs:
        assert violation(result.dataset, x.profile) <= POSTCONDITION_TOL
    assert result.warnings == ()


def test_compose_warns_when_later_step_rebreaks():
    d = from_columns([("x", ColumnType.NUMERICAL, [0.0, 5.0, 10.0])])
    narrow = triplet(DomainNumerical("x", 0.0, 10.0), "winsorize")
    shift = triplet(DomainNumerical("x", 20.0, 30.0), "linear_map")
    result = compose([narrow, shift], d, seed=1)
    assert any("re-violated" in w for w in result.warnings)


def test_triplet_ids_unique_and_stable():
    profiles = discover_profiles(random_dataset(3))
    ids = [t.id for p in profiles for t in make_triplets(p)]
    assert len(ids) == len(set(ids))


def test_remap_overrides_beat_frequency_rank():
    d = from_columns([("target", ColumnType.CATEGORICAL,
                       ["0", "4", "0", "4", "0", "4"])])
    profile = DomainCategorical("target", frozenset({"-1", "1"}))
    x = triplet(profile)
    flipped = transform(d, x, remap_overrides={"target": {"0": "1", "4": "-1"}})
    assert flipped.column("target") == ("1", "-1", "1", "-1", "1", "-1")
    partial = transform(d, x, remap_overrides={"target": {"4": "-1"}})
    # the un-pinned value still follows frequency-rank alignment
    assert set(partial.column("target")) == {"-1"} or "-1" in partial.column("target")
    assert violation(partial, profile) == 0.0


def test_remap_override_outside_domain_rejected():
    d = from_columns([("target", ColumnType.CATEGORICAL, ["0", "4"])])
    profile = DomainCategorical("target", frozenset({"-1", "1"}))
    with pytest.raises(TransformFailure):
        transform(d, triplet(profile), remap_overrides={"target": {"0": "99"}})
