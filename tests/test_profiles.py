from __future__ import annotations

import math
import random
from fractions import Fraction
from statistics import NormalDist

import pytest

from conftest import random_dataset
from datacause.errors import ColumnTypeError, DegenerateInputError, DomainError, SchemaError
from datacause.profiles import (
    ChiSquareBound,
    CorrelationBound,
    DomainCategorical,
    DomainText,
    MissingRate,
    OutlierBound,
    SelectivityBound,
    chi_square_p_value,
    chi_square_statistic,
    discover_profiles,
    enumerate_selectivity_predicates,
    outlier_flags,
    pearson_correlation,
    pearson_p_value,
    text_signature,
    violation,
)
from datacause.tabular import ColumnType, Predicate, Term, from_columns


def profile_map(profiles):
    return {(p.kind.value, p.attributes(), p.label()): p for p in profiles}


def find(profiles, cls, attribute):
    hits = [p for p in profiles if isinstance(p, cls) and attribute in p.attributes()]
    assert hits, f"no {cls.__name__} profile on {attribute}"
    return hits[0]


# --- discovery ---------------------------------------------------------------


def test_discover_gender_domain(people_fail):
    profiles = discover_profiles(people_fail)
    domain = find(profiles, DomainCategorical, "gender")
    assert domain.values == frozenset({"F", "M"})


def test_discover_outlier_age(people_fail):
    profiles = discover_profiles(people_fail)
    outlier = find(profiles, OutlierBound, "age")
    assert outlier.k == 1.5
    # only the age-60 row sits above 34.5 + 1.5 * 11.78
    assert outlier.threshold == pytest.approx(0.1)


def test_discover_missing_zip(people_pass, people_fail):
    zip_pass = find(discover_profiles(people_pass), MissingRate, "zip_code")
    assert zip_pass.threshold == pytest.approx(1 / 9, abs=1e-12)
    zip_fail = find(discover_profiles(people_fail), MissingRate, "zip_code")
    assert zip_fail.threshold == pytest.approx(0.2)


def test_discovered_profiles_have_zero_violation(people_fail, people_pass):
    for d in (people_fail, people_pass):
        for p in discover_profiles(d):
            assert violation(d, p) == 0.0, p.label()


def test_discovery_zero_violation_random_sweep():
    for seed in range(60):
        d = random_dataset(seed)
        for p in discover_profiles(d):
            assert violation(d, p) == 0.0, (seed, p.label())


def test_discovery_deterministic():
    a = discover_profiles(random_dataset(7))
    b = discover_profiles(random_dataset(7))
    assert [p.label() for p in a] == [p.label() for p in b]
    assert all(x.same_parameters(y) for x, y in zip(a, b))


def test_discovery_rejects_empty():
    d = from_columns([("a", ColumnType.NUMERICAL, [])])
    with pytest.raises(DegenerateInputError):
        discover_profiles(d)


# --- violation ----------------------------------------------------------------


def test_missing_violation_hand_derived(people_fail):
    # 2 of 10 cells missing against an allowance of 0.11
    profile = MissingRate("zip_code", 0.11)
    expected = (2 - 0.11 * 10) / (10 * (1 - 0.11))
    assert violation(people_fail, profile) == pytest.approx(expected)
    assert violation(people_fail, profile) == pytest.approx(0.1011, abs=1e-4)


def test_violation_clamped_and_monotone_in_threshold(people_fail):
    thresholds = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
    scores = [violation(people_fail, MissingRate("zip_code", t)) for t in thresholds]
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True)
    assert scores[-1] == 0.0  # threshold 1 permits everything


def test_indep_monotone_in_limit(people_fail):
    limits = [0.0, 0.5, 2.0, 7.0]
    scores = [violation(people_fail, ChiSquareBound("race", "high_expenditure", a))
              for a in limits]
    assert scores == sorted(scores, reverse=True)


def test_pcc_violation_at_full_correlation():
    d = from_columns([
        ("x", ColumnType.NUMERICAL, [1.0, 2.0, 3.0, 4.0]),
        ("y", ColumnType.NUMERICAL, [1.0, 2.0, 3.0, 4.0]),
    ])
    assert violation(d, CorrelationBound("x", "y", 0.0)) == 1.0
    assert violation(d, CorrelationBound("x", "y", 1.0)) == 0.0


def test_domain_violation_ignores_missing():
    d = from_columns([("a", ColumnType.CATEGORICAL, ["x", "y", None, None])])
    assert violation(d, DomainCategorical("a", frozenset({"x"}))) == pytest.approx(0.25)


def test_violation_type_mismatch(people_fail):
    with pytest.raises(ColumnTypeError):
        violation(people_fail, DomainCategorical("age", frozenset({"1"})))


def test_violation_empty_dataset():
    d = from_columns([("a", ColumnType.NUMERICAL, [])])
    with pytest.raises(DegenerateInputError):
        violation(d, MissingRate("a", 0.0))


# --- chi-square ----------------------------------------------------------------


def brute_force_chi_square(table: dict[tuple[str, str], int]) -> float:
    """Independent oracle: exact rational arithmetic from the definition."""
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
            observed = table.get((r, c), 0)
            total += (observed - expected) ** 2 / expected
    return float(total)


def dataset_from_table(table: dict[tuple[str, str], int]):
    left, right = [], []
    for (lv, rv), count in sorted(table.items()):
        left.extend([lv] * count)
        right.extend([rv] * count)
    return from_columns([
        ("a", ColumnType.CATEGORICAL, left),
        ("b", ColumnType.CATEGORICAL, right),
    ])


def test_chi_square_diagonal_2x2():
    table = {("l0", "r0"): 10, ("l1", "r1"): 10}
    d = dataset_from_table(table)
    assert chi_square_statistic(d, "a", "b") == pytest.approx(20.0)
    assert brute_force_chi_square(table) == pytest.approx(20.0)


def test_chi_square_people_fail(people_fail):
    # raw Pearson statistic over the displayed rows
    assert chi_square_statistic(people_fail, "race", "high_expenditure") == \
        pytest.approx(6.4286, abs=1e-3)


def test_chi_square_matches_brute_force_random_tables():
    rng = random.Random(11)
    for _ in range(120):
        r = rng.randint(2, 4)
        c = rng.randint(2, 4)
        table = {}
        for i in range(r):
            for j in range(c):
                count = rng.randint(0, 5)
                if count:
                    table[(f"l{i}", f"r{j}")] = count
        rows = {k[0] for k in table}
        cols = {k[1] for k in table}
        if len(rows) < 2 or len(cols) < 2:
            continue
        d = dataset_from_table(table)
        assert chi_square_statistic(d, "a", "b") == pytest.approx(
            brute_force_chi_square(table), rel=1e-10, abs=1e-10)


def test_chi_square_product_distribution_vanishes():
    # exact product table: chi-square is identically 0
    table = {}
    for i, ri in enumerate([30, 70]):
        for j, cj in enumerate([40, 60]):
            table[(f"l{i}", f"r{j}")] = ri * cj // 10
    d = dataset_from_table(table)
    assert chi_square_statistic(d, "a", "b") == pytest.approx(0.0, abs=1e-9)


def test_chi_square_degenerate_and_invariances(people_fail):
    d = from_columns([
        ("a", ColumnType.CATEGORICAL, ["k"] * 6),
        ("b", ColumnType.CATEGORICAL, ["x", "y", "x", "y", "x", "y"]),
    ])
    assert chi_square_statistic(d, "a", "b") == 0.0
    base = chi_square_statistic(people_fail, "race", "high_expenditure")
    rng = random.Random(5)
    order = list(range(people_fail.row_count))
    rng.shuffle(order)
    shuffled = people_fail.take_rows(order)
    assert chi_square_statistic(shuffled, "race", "high_expenditure") == pytest.approx(base)
    relabeled = people_fail.with_column(
        "race", [{"A": "group1", "W": "group2"}[v] for v in people_fail.column("race")])
    assert chi_square_statistic(relabeled, "race", "high_expenditure") == pytest.approx(base)


def test_chi_square_type_check(people_fail):
    with pytest.raises(ColumnTypeError):
        chi_square_statistic(people_fail, "age", "race")


# --- p-values -------------------------------------------------------------------


def chi_square_upper_tail_by_integration(x: float, dof: int) -> float:
    """Simpson integration of the chi-square density; independent of the
    incomplete-gamma evaluation under test. Substituting t = u*u removes the
    dof=1 singularity at the origin."""
    if x == 0:
        return 1.0
    a = dof / 2.0
    norm = 1.0 / (2 ** a * math.gamma(a))

    def integrand(u: float) -> float:
        # 2 * u^(2a-1) * exp(-u^2/2), the density after substitution
        return 2.0 * norm * u ** (2.0 * a - 1.0) * math.exp(-u * u / 2.0)

    upper = math.sqrt(x)
    steps = 40000
    h = upper / steps
    total = integrand(0.0) if dof >= 2 else 2.0 * norm  # u^0 at u=0 for dof=1
    total += integrand(upper)
    for i in range(1, steps):
        total += integrand(i * h) * (4 if i % 2 else 2)
    return 1.0 - total * h / 3.0


def test_p_value_reference_points():
    assert chi_square_p_value(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert chi_square_p_value(6.635, 1) == pytest.approx(0.01, abs=1e-3)
    assert chi_square_p_value(0.0, 3) == 1.0


def test_p_value_matches_numerical_integration():
    for dof in (1, 2, 3, 4, 5, 7, 10, 20, 51):
        for x in (0.5, 1.0, 4.0, 9.0, 20.0):
            assert chi_square_p_value(x, dof) == pytest.approx(
                chi_square_upper_tail_by_integration(x, dof), abs=1e-6)


def test_p_value_at_large_dof_matches_wilson_hilferty():
    # the cube root of chi2/dof is close to normal; at dof = 39601 the
    # approximation is good to about 1e-9 at the median
    dof = 39601
    x = 39601.0
    z = ((x / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    assert chi_square_p_value(x, dof) == pytest.approx(1.0 - NormalDist().cdf(z), abs=1e-5)


def test_p_value_domain_errors():
    with pytest.raises(DomainError):
        chi_square_p_value(-1.0, 1)
    with pytest.raises(DomainError):
        chi_square_p_value(1.0, 0)
    for dof in (2.5, 2.0, "2"):
        with pytest.raises(DomainError):
            chi_square_p_value(1.0, dof)
    for chi2 in (math.nan, math.inf):
        with pytest.raises(DomainError):
            chi_square_p_value(chi2, 3)
    for r, n_pairs in ((0.5, 10.5), (0.5, 10.0), (math.nan, 10)):
        with pytest.raises(DomainError):
            pearson_p_value(r, n_pairs)


def test_pearson_p_value_reference():
    # r = 0.632 at n = 10 sits right at the 5% two-sided critical value
    assert pearson_p_value(0.6319, 10) == pytest.approx(0.05, abs=2e-3)
    assert pearson_p_value(0.0, 30) == pytest.approx(1.0)
    assert pearson_p_value(1.0, 10) == 0.0


def student_t_two_sided_by_integration(t: float, dof: int) -> float:
    """1 - 2 * (Simpson integral of the Student t density over [0, |t|])."""
    norm = math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)) / math.sqrt(dof * math.pi)
    steps = 2000
    h = abs(t) / steps
    total = 0.0
    for i in range(steps + 1):
        weight = 1 if i in (0, steps) else (4 if i % 2 else 2)
        total += weight * norm * (1.0 + (i * h) ** 2 / dof) ** (-(dof + 1) / 2)
    return 1.0 - 2.0 * total * h / 3.0


def test_pearson_p_value_matches_numerical_integration():
    for n_pairs in range(3, 11):
        dof = n_pairs - 2
        for r in (0.05, 0.3, -0.5, 0.8, 0.95):
            t = r * math.sqrt(dof / (1.0 - r * r))
            assert pearson_p_value(r, n_pairs) == pytest.approx(
                student_t_two_sided_by_integration(t, dof), abs=1e-8)


# --- correlation ------------------------------------------------------------------


def test_pcc_affine():
    xs = [1.0, 2.0, 5.0, 7.0, 11.0]
    d = from_columns([
        ("x", ColumnType.NUMERICAL, xs),
        ("y", ColumnType.NUMERICAL, [2 * v + 3 for v in xs]),
        ("z", ColumnType.NUMERICAL, [-v for v in xs]),
    ])
    assert pearson_correlation(d, "x", "y") == 1.0
    assert pearson_correlation(d, "x", "z") == -1.0


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -300, 2.0 ** -560])
def test_pcc_and_outliers_at_extreme_magnitudes(scale):
    # squares overflow at 2**600; at 2**-300 the product of the variances
    # underflows, at 2**-560 the variances themselves. Scaling by a power of
    # two is exact, so every statistic must come out as on the plain values.
    xs = [1.0, 2.0, 5.0, 7.0, 11.0, 40.0]
    ys = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
    plain = from_columns([("x", ColumnType.NUMERICAL, xs), ("y", ColumnType.NUMERICAL, ys)])
    scaled = from_columns([("x", ColumnType.NUMERICAL, [v * scale for v in xs]),
                           ("y", ColumnType.NUMERICAL, [v * scale for v in ys])])
    assert pearson_correlation(scaled, "x", "y") == pearson_correlation(plain, "x", "y")
    assert outlier_flags(scaled.column("x"), 1.5) == outlier_flags(xs, 1.5)
    assert [p.label() for p in discover_profiles(scaled)] == \
        [p.label() for p in discover_profiles(plain)]


def test_pcc_zero_variance():
    d = from_columns([
        ("x", ColumnType.NUMERICAL, [1.0, 1.0, 1.0]),
        ("y", ColumnType.NUMERICAL, [1.0, 2.0, 3.0]),
    ])
    assert pearson_correlation(d, "x", "y") == 0.0


def test_pcc_independent_simulation():
    rng = random.Random(42)
    xs = [rng.gauss(0, 1) for _ in range(10000)]
    ys = [rng.gauss(0, 1) for _ in range(10000)]
    d = from_columns([
        ("x", ColumnType.NUMERICAL, xs),
        ("y", ColumnType.NUMERICAL, ys),
    ])
    assert abs(pearson_correlation(d, "x", "y")) < 0.05


def test_pcc_degenerate_pairs():
    d = from_columns([
        ("x", ColumnType.NUMERICAL, [1.0, None, 3.0]),
        ("y", ColumnType.NUMERICAL, [None, 2.0, 5.0]),
    ])
    with pytest.raises(DegenerateInputError):
        pearson_correlation(d, "x", "y")


def test_pcc_sign_flip_and_affine_invariance():
    rng = random.Random(9)
    xs = [rng.uniform(0, 10) for _ in range(50)]
    ys = [v + rng.uniform(-1, 1) for v in xs]
    d = from_columns([
        ("x", ColumnType.NUMERICAL, xs),
        ("y", ColumnType.NUMERICAL, ys),
        ("y_scaled", ColumnType.NUMERICAL, [5 * v + 2 for v in ys]),
        ("y_neg", ColumnType.NUMERICAL, [-v for v in ys]),
    ])
    base = pearson_correlation(d, "x", "y")
    assert pearson_correlation(d, "x", "y_scaled") == pytest.approx(base, abs=1e-12)
    assert pearson_correlation(d, "x", "y_neg") == pytest.approx(-base, abs=1e-12)


# --- selectivity enumeration -----------------------------------------------------


def test_enumerate_people_includes_gender_high_expenditure(people_pass, people_fail):
    predicates = enumerate_selectivity_predicates(people_pass, people_fail)
    labels = {p.label() for p in predicates}
    assert "gender=F&high_expenditure=yes" in labels


def test_enumerate_identical_datasets_empty(people_fail):
    assert enumerate_selectivity_predicates(people_fail, people_fail) == []


def test_enumerate_requires_support_in_both_datasets():
    left = from_columns([("a", ColumnType.CATEGORICAL, ["x"] * 10)])
    right = from_columns([("a", ColumnType.CATEGORICAL, ["y"] * 10)])
    assert enumerate_selectivity_predicates(left, right) == []
    # shared value with a frequency gap is kept
    left2 = from_columns([("a", ColumnType.CATEGORICAL, ["x"] * 8 + ["y"] * 2)])
    right2 = from_columns([("a", ColumnType.CATEGORICAL, ["x"] * 2 + ["y"] * 8)])
    labels = [p.label() for p in enumerate_selectivity_predicates(left2, right2)]
    assert labels == ["a=x", "a=y"]


def test_enumerate_rejects_mismatched_schemas(people_fail):
    other = from_columns([("a", ColumnType.CATEGORICAL, ["x", "y"])])
    with pytest.raises(SchemaError, match="selectivity enumeration needs a shared schema"):
        enumerate_selectivity_predicates(people_fail, other)


def test_enumerate_on_an_empty_dataset_is_empty(people_fail):
    empty = people_fail.take_rows([])
    assert enumerate_selectivity_predicates(people_fail, empty) == []
    assert enumerate_selectivity_predicates(empty, people_fail) == []


def test_selectivity_profile_round_trip(people_pass, people_fail):
    predicates = enumerate_selectivity_predicates(people_pass, people_fail)
    profiles = [p for p in discover_profiles(people_pass, predicates)
                if isinstance(p, SelectivityBound)]
    by_label = {p.predicate.label(): p for p in profiles}
    target = by_label["gender=F&high_expenditure=yes"]
    assert target.threshold == pytest.approx(4 / 9)


def test_labels_quote_names_and_values_holding_separators():
    assert ChiSquareBound("a", "b,c", 0.0).label() == 'chi_square_dependence(a,"b,c")'
    assert ChiSquareBound("a,b", "c", 0.0).label() == 'chi_square_dependence("a,b",c)'
    predicate = Predicate((Term("x=1", "eq", 'say "hi"'), Term("y", "le", 2.5)))
    assert SelectivityBound(predicate, 0.1).label() == \
        r'selectivity("x=1"="say \"hi\""&y<=2.5)'
    assert MissingRate("a b#c é", 0.0).label() == "missing_rate(a b#c é)"
    assert DomainCategorical("(x)", frozenset({"1"})).label() == 'domain_categorical("(x)")'


# --- text patterns ----------------------------------------------------------------


def test_text_signature_runs():
    assert text_signature("abc123") == ("letters", "digits")
    assert text_signature("a-b") == ("letters", "other", "letters")
    assert text_signature("a--b") == ("letters", "other", "other", "letters")
    assert text_signature("") == ()
    # str.isdigit and str.isalpha decide a class, so non-ASCII digits count as digits
    assert text_signature("x²y") == ("letters", "digits", "letters")
    assert text_signature("٣٤abc") == ("digits", "letters")


def test_domain_text_rejects_an_unknown_run_class():
    from datacause.profiles import DomainText
    with pytest.raises(DomainError, match="digits, letters, other"):
        DomainText("a", ("letters", "spaces"), 1, 5)
    assert DomainText("a", ("letters", "letters"), 1, 5).conforms("ab") is False


def test_text_profile_discovery_and_violation():
    d = from_columns([("t", ColumnType.TEXT, ["ab12", "xyz99", "q7"])])
    profile = find(discover_profiles(d), DomainText, "t")
    assert profile.pattern == ("letters", "digits")
    assert profile.min_len == 2 and profile.max_len == 5
    other = from_columns([("t", ColumnType.TEXT, ["12ab", "ab123456789", "ok42"])])
    # one bad signature, one too long, one fine
    assert violation(other, profile) == pytest.approx(2 / 3)


def test_profile_json_is_canonical():
    import json

    for seed in (1, 2, 3):
        d = random_dataset(seed)
        for p in discover_profiles(d):
            blob = json.dumps(p.to_json_dict(), sort_keys=True)
            again = json.dumps(p.to_json_dict(), sort_keys=True)
            assert blob == again
            assert json.loads(blob)["kind"] == p.kind.value


def test_violation_stays_in_unit_interval_cross_datasets():
    # profiles learned on one dataset scored against another compatible one
    for seed in range(20):
        source = random_dataset(seed)
        target = random_dataset(seed + 1000)
        for p in discover_profiles(source):
            attrs = p.attributes()
            if any(a not in target.attributes for a in attrs):
                continue
            try:
                score = violation(target, p)
            except (ColumnTypeError, DegenerateInputError):
                continue
            assert 0.0 <= score <= 1.0, (seed, p.label())


def test_profile_construction_validation():
    from datacause.profiles import (
        ChiSquareBound, DomainCategorical, DomainNumerical, DomainText,
    )
    with pytest.raises(DomainError):
        DomainCategorical("a", frozenset())
    with pytest.raises(DomainError):
        DomainNumerical("a", 2.0, 1.0)
    with pytest.raises(DomainError):
        DomainText("a", None, 5, 2)
    with pytest.raises(DomainError):
        ChiSquareBound("a", "a", 0.1)
