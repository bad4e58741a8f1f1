from __future__ import annotations

import random
from collections import Counter

import pytest

from conftest import random_dataset
import datacause.transforms as transforms
from datacause.errors import TransformFailure, ValidationError
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
    chi_square_from_counts,
    chi_square_statistic,
    contingency_table,
    discover_profiles,
    pearson_correlation,
    violation,
)
from datacause.tabular import ColumnType, Predicate, Term, from_columns, select_where
from datacause.transforms import (
    MAX_ITERATIONS,
    MAX_ROWS,
    POSTCONDITION_TOL,
    REPAIRS,
    PvtTriplet,
    _balanced_reassignment,
    _decorrelate_chi2,
    _derive_seed,
    _mode,
    _resample_plan,
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


@pytest.mark.parametrize("cells, mapped, share", [
    ([5.0, None, 5.0], (1.0, None, 1.0), 2 / 3),
    ([0.5, 0.5], (0.5, 0.5), 0.0),
], ids=["outside", "inside"])
def test_linear_map_clips_a_single_level_into_the_bounds(cells, mapped, share):
    d = from_columns([("x", ColumnType.NUMERICAL, cells)])
    t = triplet(DomainNumerical("x", 0.0, 1.0), "linear_map")
    assert transform(d, t).column("x") == mapped
    assert coverage(d, t) == share


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


@pytest.mark.parametrize("tid", ["pearson_dependence(x,y)#add_noise",
                                 "domain_numerical(x)#linear_map"])
def test_repairs_near_the_float_limit_raise_transform_failure(tid):
    source = from_columns([("x", ColumnType.NUMERICAL, [1.0, 2, 3, 4, 5, 6]),
                           ("y", ColumnType.NUMERICAL, [2.0, 1, 4, 3, 6, 5])])
    extreme = from_columns([(a, ColumnType.NUMERICAL, [1.7e308, -1.7e308] * 3)
                            for a in ("x", "y")])
    (t,) = [t for p in discover_profiles(source) for t in make_triplets(p) if t.id == tid]
    with pytest.raises(TransformFailure) as err:
        transform(extreme, t)
    assert 0.0 < err.value.best_violation <= violation(extreme, t.profile)
    if t.transform_id == "add_noise":
        with pytest.raises(TransformFailure):
            coverage(extreme, t)


def test_repair_that_leaves_violation_behind_raises_transform_failure(monkeypatch):
    # a repair that returns its input unchanged misses its postcondition
    variants = transforms.REPAIRS[ProfileKind.MISSING]
    _, rows_touched = variants["impute"]
    monkeypatch.setitem(variants, "impute", (lambda dataset, _, **__: dataset, rows_touched))
    d = from_columns([("x", ColumnType.CATEGORICAL, ["a", None, "b", None])])
    with pytest.raises(TransformFailure, match=r"^missing_rate\(x\)#impute left violation 0.5$") \
            as err:
        transform(d, triplet(MissingRate("x", 0.0)))
    assert err.value.best_violation == 0.5


def test_linear_map_whose_scale_overflows_raises_transform_failure():
    d = from_columns([("x", ColumnType.NUMERICAL, [0.0, 1e-116])])
    with pytest.raises(TransformFailure, match="overflows"):
        transform(d, triplet(DomainNumerical("x", 0.0, 2.4e193), "linear_map"))


@pytest.mark.parametrize("profile", [OutlierBound("x", 1.5, 0.0), MissingRate("x", 0.0)],
                         ids=["replace_with_mean", "impute"])
def test_mean_filling_repairs_near_the_float_limit_meet_their_postcondition(profile):
    d = from_columns([("x", ColumnType.NUMERICAL, [1.7e308] * 5 + [-1.7e308, None])])
    assert violation(transform(d, triplet(profile)), profile) == 0.0


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


def test_mode_is_the_smallest_of_the_most_common_values():
    rng = random.Random(11)
    for _ in range(300):
        values = [rng.choice(["", "a", "b", "ab", "ba", "B", "é"][:rng.randint(1, 7)])
                  for _ in range(rng.randint(1, 12))]
        counts = Counter(values)
        assert _mode(values) == min(counts, key=lambda v: (-counts[v], v)), values


# --- text shape -----------------------------------------------------------------------


def test_fit_text_without_pattern_pads_and_truncates():
    d = from_columns([("t", ColumnType.TEXT, ["a", "abcdef", "abc", None])])
    profile = DomainText("t", None, 3, 4)
    fixed = transform(d, triplet(profile))
    assert fixed.column("t") == ("a00", "abcd", "abc", None)


@pytest.mark.parametrize("profile, value", [
    (DomainText("t", ("other",), 2, 2), "-"),  # no run can grow to the least length
    (DomainText("t", ("letters", "other", "letters"), 1, 2), "ab-cd"),  # nor shrink enough
], ids=["too-short", "too-long"])
def test_fit_text_raises_when_the_pattern_cannot_meet_the_length(profile, value):
    d = from_columns([("t", ColumnType.TEXT, [value])])
    with pytest.raises(TransformFailure) as err:
        transform(d, triplet(profile))
    assert err.value.best_violation == violation(d, profile) == 1.0


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


def test_selectivity_growth_near_threshold_one_is_counted_without_stepping():
    # 100 of 2 000 rows satisfy and the bound wants all but 1 in 2 000: the
    # repair must duplicate 3 796 001 rows to land on floor(threshold * rows)
    d = sel_dataset(hot=100, cold=1900)
    profile = sel_profile(1999 / 2000)
    size = _resample_plan(d, profile)
    assert size == 3_796_001
    assert 100 + size == int(profile.threshold * (2000 + size))
    assert coverage(d, triplet(profile)) == 1.0


@pytest.mark.parametrize("operation", [
    lambda d, t: _resample_plan(d, t.profile), coverage, transform])
def test_selectivity_growth_past_the_longest_list_raises_transform_failure(operation):
    # 1 of 1 536 rows satisfies and the bound allows all but about 1 row in
    # 2**53: the repair would need more rows than a list can hold
    d = sel_dataset(hot=1, cold=1535)
    profile = sel_profile(0.9999999999999999)
    with pytest.raises(TransformFailure, match="needs more rows than a list holds") as err:
        operation(d, triplet(profile))
    assert err.value.best_violation == violation(d, profile)
    assert MAX_ROWS < 2 ** 63


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


def _reference_balanced_reassignment(groups, values, rng):
    """The balanced reassignment with its earlier fill loop, which checked
    after each fill whether every row was full and stopped a pass that
    filled nothing."""
    n = len(values)
    value_counts = Counter(values)
    cells = {}
    row_left = {g: len(rows) for g, rows in groups.items()}
    col_left = dict(value_counts)
    remainders = []
    for g, rows in groups.items():
        for v, cnt in value_counts.items():
            ideal = len(rows) * cnt / n
            base = int(ideal)
            cells[(g, v)] = base
            row_left[g] -= base
            col_left[v] -= base
            remainders.append((ideal - base, g, v))
    remainders.sort(key=lambda t: (-t[0], t[1], t[2]))
    while any(d > 0 for d in row_left.values()):
        progressed = False
        for _, g, v in remainders:
            if row_left[g] > 0 and col_left[v] > 0:
                cells[(g, v)] += 1
                row_left[g] -= 1
                col_left[v] -= 1
                progressed = True
                if not any(d > 0 for d in row_left.values()):
                    break
        if not progressed:
            break
    assignment = {}
    for g, rows in groups.items():
        shuffled = list(rows)
        rng.shuffle(shuffled)
        cursor = 0
        for v in sorted(value_counts):
            for _ in range(cells[(g, v)]):
                assignment[shuffled[cursor]] = v
                cursor += 1
    return assignment


@pytest.mark.parametrize("seed", range(60))
def test_balanced_reassignment_matches_the_earlier_fill_loop(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    anchors = [rng.choice("uvwxy"[:rng.randint(1, 5)]) for _ in range(n)]
    values = [rng.choice("abcdefg"[:rng.randint(1, 7)]) for _ in range(n)]
    groups = {}
    for i, a in enumerate(anchors):
        groups.setdefault(a, []).append(i)
    assignment = _balanced_reassignment(groups, values, random.Random(seed))
    assert assignment == _reference_balanced_reassignment(groups, values, random.Random(seed))
    assert sorted(assignment) == list(range(n))
    assert Counter(assignment.values()) == Counter(values)


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
        transform(d, triplet(profile), seed=1)
    assert 0.0 < err.value.best_violation <= 1.0


def _decorrelate_chi2_reference(dataset, triplet, seed):
    """The chi-square shuffle as it was when every attempt built a dataset
    and was scored on its contingency table."""
    profile = triplet.profile
    best = violation(dataset, profile)
    if best <= POSTCONDITION_TOL:
        return dataset
    target = triplet.perturb or profile.attributes()[1]
    anchor = profile.left if target == profile.right else profile.right
    n = dataset.row_count
    source = dataset.column(target)

    def stat_of(candidate):
        return chi_square_from_counts(contingency_table(candidate, anchor, target))

    if profile.limit > 1e-12:
        fraction = 0.125
        for attempt in range(MAX_ITERATIONS):
            rng = random.Random(_derive_seed(seed, "chi2", profile.label(), str(attempt)))
            k = max(2, min(n, round(fraction * n)))
            picked = rng.sample(range(n), k)
            cells = [source[i] for i in picked]
            rng.shuffle(cells)
            column = list(source)
            for i, v in zip(picked, cells):
                column[i] = v
            candidate = dataset.with_column(target, column)
            stat = stat_of(candidate)
            if stat <= profile.limit + 1e-12:
                return candidate
            best = min(best, profile.violation_at(stat))
            fraction = min(1.0, fraction * 2)
    rng = random.Random(_derive_seed(seed, "chi2-balance", profile.label()))
    groups, values, rows = {}, [], []
    for i, (a, b) in enumerate(zip(dataset.column(anchor), source)):
        if a is None or b is None:
            continue
        groups.setdefault(a, []).append(i)
        values.append(b)
        rows.append(i)
    if values:
        assignment = _balanced_reassignment(groups, values, rng)
        column = list(source)
        for i in rows:
            column[i] = assignment[i]
        candidate = dataset.with_column(target, column)
        stat = stat_of(candidate)
        if stat <= profile.limit + 1e-12:
            return candidate
        best = min(best, profile.violation_at(stat))
    raise TransformFailure(
        f"could not push chi-square below {profile.limit:.6g} on "
        f"({profile.left},{profile.right})", best_violation=best)


def _outcome(repair, dataset, triplet, seed):
    try:
        result = repair(dataset, triplet, seed=seed)
    except TransformFailure as exc:
        return "failure", str(exc), exc.best_violation
    return "repaired", result.columns, result.fingerprint


def skewed_triple(n=90):
    """Three-level columns, missing cells on both sides."""
    left = [None if i % 11 == 0 else "pqr"[i % 3] for i in range(n)]
    right = [None if i % 7 == 0 else "s" if i % 4 == 0 else v for i, v in enumerate(left)]
    return from_columns([("a", ColumnType.CATEGORICAL, left),
                         ("b", ColumnType.CATEGORICAL, right)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make, limit, perturb, kind", [
    (dependent_pair, 1.0, None, "repaired"),  # a seeded attempt
    (dependent_pair, 1.0, "a", "repaired"),
    (skewed_triple, 2.0, None, "repaired"),
    (dependent_pair, 0.0, None, "repaired"),  # a zero limit goes straight to the balanced one
    (skewed_triple, 0.0, "a", "failure"),
    (skewed_triple, 1e-6, None, "failure"),  # every attempt, then the balanced one
])
def test_chi2_shuffle_scored_on_columns_matches_the_dataset_scored_version(
        seed, make, limit, perturb, kind):
    d = make()
    t = triplet(ChiSquareBound("a", "b", limit), perturb=perturb)
    expected = _outcome(_decorrelate_chi2_reference, d, t, seed)
    assert expected[0] == kind
    assert _outcome(_decorrelate_chi2, d, t, seed) == expected


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


@pytest.mark.parametrize("operation", [transform, coverage])
@pytest.mark.parametrize("profile, variant", [
    (MissingRate("zip_code", 0.0), "remap"),
    (DomainCategorical("zip_code", frozenset({"a"})), "impute"),
    (MissingRate("age", 0.0), "linear_map"),
    (ChiSquareBound("zip_code", "gender", 0.0), "add_noise"),
])
def test_variant_of_another_kind_raises_validation_error(people_fail, operation, profile,
                                                         variant):
    with pytest.raises(ValidationError, match=f"unknown transform id '{variant}' for "
                                              f"{profile.kind.value}"):
        operation(people_fail, PvtTriplet(profile, variant))


def test_repair_table_lists_every_kind_in_preference_order():
    assert set(REPAIRS) == set(ProfileKind)
    assert [t.transform_id for t in make_triplets(DomainNumerical("x", 0.0, 1.0))] == \
        ["linear_map", "winsorize"]


@pytest.mark.parametrize("operation", [transform, coverage])
def test_unknown_transform_id_raises_validation_error(people_fail, operation):
    unknown = PvtTriplet(MissingRate("zip_code", 0.0), "no_such_repair")
    with pytest.raises(ValidationError, match="no_such_repair"):
        operation(people_fail, unknown)
