"""Property tests of the tabular and profile invariants (need ``hypothesis``)."""

from __future__ import annotations

import json
import math
import random
import re
import string
import tempfile
from bisect import bisect_left
from pathlib import Path
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    COUNT_CELLS,
    COUNT_COLUMNS,
    COUNT_PREDICATES,
    COUNT_TERMS,
    assert_counts_match_the_references,
    csv_writer_bytes,
    divmod_token,
    per_call_decoy_draws,
    per_call_letters,
)
from datacause import tabular  # noqa: E402
from datacause.errors import (  # noqa: E402
    ColumnTypeError,
    DegenerateInputError,
    SchemaError,
    TransformFailure,
)
from datacause.profiles import (  # noqa: E402
    MIN_SUPPORT,
    SELECTIVITY_GAP,
    ChiSquareBound,
    CorrelationBound,
    DependenceBound,
    DomainCategorical,
    DomainNumerical,
    DomainText,
    MissingRate,
    OutlierBound,
    SelectivityBound,
    contingency_table,
    discover_profiles,
    enumerate_selectivity_predicates,
    joint_counts,
    matches_pattern,
    outlier_flags,
    pearson_correlation,
    shape_regex,
    text_signature,
    violation,
)
from datacause.synth import _below_26_pow_9, _fixed_width_token, _letters  # noqa: E402
from datacause.tabular import (  # noqa: E402
    ColumnType,
    Dataset,
    Predicate,
    Term,
    count_where,
    from_columns,
    population_stddev,
    save_csv,
    select_where,
    unit_scale,
)
from datacause.transforms import (  # noqa: E402
    MAX_ROWS,
    POSTCONDITION_TOL,
    PvtTriplet,
    _resample_plan,
    _runs,
    compose,
    coverage,
    make_triplets,
    transform,
)

NUMBERS = [None, 0.0, -0.0, 1, 1.0, 2.5, -3.0]
STRINGS = [None, "a", "b", "", "0.0"]


def _cells(ctype: ColumnType, n: int):
    pool = NUMBERS if ctype is ColumnType.NUMERICAL else STRINGS
    return st.lists(st.sampled_from(pool), min_size=n, max_size=n)


@st.composite
def specs(draw):
    """(name, type, cells) triples of one to three columns of equal length."""
    n = draw(st.integers(0, 12))
    types = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=3))
    return [(f"c{i}", t, draw(_cells(t, n))) for i, t in enumerate(types)]


def _row_reference(dataset, predicate) -> set[int]:
    def holds(value, term):
        if value is None:
            return False
        if term.comparator == "eq":
            numerical = dataset.type_of(term.attribute) is ColumnType.NUMERICAL
            return value == (float(term.value) if numerical else str(term.value))
        return value <= term.value if term.comparator == "le" else value >= term.value

    return {i for i in range(dataset.row_count)
            if all(holds(dataset.column(t.attribute)[i], t) for t in predicate.terms)}


_TERMS = st.one_of(
    st.builds(Term, st.sampled_from(["x", "y"]), st.sampled_from(["eq", "le", "ge"]),
              st.sampled_from([0.0, 1, 2.5, -3.0, 10.0])),
    st.builds(Term, st.just("c"), st.just("eq"), st.sampled_from(["a", "b", "", "z"])),
)


def _infer_types_cell_by_cell(raw_columns):
    """Column typing as :func:`tabular.infer_types` documents it, deciding
    on every present cell, repeats included."""
    def parses_as_real(cell):
        try:
            return math.isfinite(float(cell))
        except ValueError:
            return False

    out = []
    for col in raw_columns:
        present = [c for c in col if c is not None]
        numericish = sum(1 for c in present if parses_as_real(c))
        if numericish == len(present):
            out.append(ColumnType.NUMERICAL)
        elif numericish == 0 and len(set(present)) <= max(20.0, 0.05 * len(col)):
            out.append(ColumnType.CATEGORICAL)
        else:
            out.append(ColumnType.TEXT)
    return out


_REAL_CELLS = st.one_of(st.sampled_from(["1.5", "-0", "1e5", "1_0", " 3 ", "٣"]),
                        st.integers(-30, 30).map(str))
_OTHER_CELLS = st.one_of(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "0x1", "x", ""]),
                         st.text(alphabet="ab", min_size=1, max_size=4))


@st.composite
def _raw_column(draw):
    """Raw cells of only reals, of no reals, or of both, repeated up to 30
    times, so that some columns are long enough for a cutoff of 5% of the
    rows to pass 20."""
    cells = draw(st.sampled_from([_REAL_CELLS, _OTHER_CELLS, _REAL_CELLS | _OTHER_CELLS]))
    return draw(st.lists(st.none() | cells, max_size=40)) * draw(st.integers(1, 30))


@settings(deadline=None)
@given(st.lists(_raw_column(), min_size=1, max_size=3))
@example([[f"w{i}" for i in range(20)]])  # as many distinct cells as the cutoff of 20
@example([[f"w{i}" for i in range(21)] * 20])  # as many as 5% of the rows
def test_infer_types_decides_on_distinct_cells_as_on_every_cell(raw_columns):
    assert tabular.infer_types(raw_columns) == _infer_types_cell_by_cell(raw_columns)


#: the cells that float() reads in ways a type test could get wrong
_REAL_HAZARDS = ["nan", "NaN", "inf", "-inf", "1e400", "1_0", " 3 ", "0x1", "\u0663"]


@settings(deadline=None)
@given(st.data())
def test_infer_types_agrees_on_real_hazards_around_the_categorical_cutoff(data):
    rows = data.draw(st.sampled_from([40, 420, 1000]))  # cutoffs of 20, 21 and 50
    cutoff = int(max(20.0, 0.05 * rows))
    hazards = data.draw(st.lists(st.sampled_from(_REAL_HAZARDS), max_size=3, unique=True))
    filler = data.draw(st.sampled_from(["w{}", "{}", "{}.5"]))  # words or reals
    n_distinct = data.draw(st.sampled_from([cutoff - 1, cutoff, cutoff + 1]))
    distinct = hazards + [filler.format(i) for i in range(n_distinct - len(hazards))]
    missing = data.draw(st.integers(0, rows - n_distinct))
    column = [distinct[i % n_distinct] for i in range(rows - missing)] + [None] * missing
    assert len(column) == rows and len(set(column) - {None}) == n_distinct
    assert tabular.infer_types([column]) == _infer_types_cell_by_cell([column])


#: names and text cells are drawn over these: what csv.writer quotes, what
#: load_csv reads as missing, NUL and non-ASCII
_CSV_HAZARDS = st.text(alphabet=[",", '"', "\r", "\n", " ", "N", "A", "\0", "\u00e9", "\u4e2d",
                                 "a"], max_size=5)
_WRITER_REALS = st.one_of(st.sampled_from([5e-324, 1e16, 1.7e308, -0.0]),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _csv_datasets(draw):
    """One to three columns of any type, of zero or more rows, with names and
    text cells over ``_CSV_HAZARDS``."""
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 8))
    names = draw(st.lists(_CSV_HAZARDS.filter(bool), min_size=1, max_size=3, unique=True))
    spec = []
    for name in names:
        ctype = draw(st.sampled_from(list(ColumnType)))
        cell = _WRITER_REALS if ctype is ColumnType.NUMERICAL else _CSV_HAZARDS | st.just("NA")
        spec.append((name, ctype, draw(st.lists(st.none() | cell, min_size=n, max_size=n))))
    return from_columns(spec)


@settings(deadline=None)
@given(_csv_datasets())
@example(from_columns([("a", ColumnType.TEXT, [""])]))
@example(from_columns([("a", ColumnType.CATEGORICAL, [None])]))
@example(from_columns([("a", ColumnType.NUMERICAL, [])]))
@example(from_columns([("x\0", ColumnType.TEXT, ["\0", "a\0,b"]),
                       ("n", ColumnType.NUMERICAL, [5e-324, 1e16])]))
@example(from_columns([("n", ColumnType.NUMERICAL, [1.7e308, None])]))
def test_save_csv_writes_the_bytes_of_csv_writer(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        save_csv(dataset, path)
        assert path.read_bytes() == csv_writer_bytes(dataset)


@settings(deadline=None)
@given(st.data())
def test_select_where_matches_a_row_wise_reference(data):
    n = data.draw(st.integers(0, 15))
    dataset = from_columns([
        ("x", ColumnType.NUMERICAL, data.draw(_cells(ColumnType.NUMERICAL, n))),
        ("y", ColumnType.NUMERICAL, data.draw(_cells(ColumnType.NUMERICAL, n))),
        ("c", ColumnType.CATEGORICAL, data.draw(_cells(ColumnType.CATEGORICAL, n))),
    ])
    predicate = Predicate(tuple(data.draw(st.lists(_TERMS, min_size=1, max_size=2))))
    assert select_where(dataset, predicate) == _row_reference(dataset, predicate)


@settings(deadline=None)
@given(st.data())
def test_count_where_is_the_size_of_select_where(data):
    n = data.draw(st.integers(0, 15))
    dataset = from_columns([
        ("x", ColumnType.NUMERICAL, data.draw(_cells(ColumnType.NUMERICAL, n))),
        ("y", ColumnType.NUMERICAL, data.draw(_cells(ColumnType.NUMERICAL, n))),
        ("c", ColumnType.CATEGORICAL, data.draw(_cells(ColumnType.CATEGORICAL, n))),
    ])
    predicate = Predicate(tuple(data.draw(st.lists(_TERMS, min_size=1, max_size=2))))
    assert count_where(dataset, predicate) == len(select_where(dataset, predicate))


@settings(deadline=None)
@given(st.data())
def test_run_shared_tallies_count_as_the_per_call_references(data):
    n = data.draw(st.integers(0, 15))
    dataset = from_columns([
        (name, ctype, data.draw(st.lists(st.sampled_from(COUNT_CELLS[ctype]),
                                         min_size=n, max_size=n)))
        for name, ctype in COUNT_COLUMNS])
    terms = st.lists(st.builds(Term, *map(st.sampled_from, COUNT_TERMS)), min_size=1, max_size=2)
    predicates = data.draw(st.lists(terms.map(lambda ts: Predicate(tuple(ts))), max_size=6))
    assert_counts_match_the_references(dataset, predicates + list(COUNT_PREDICATES))


#: values that compare equal across types (1, 1.0, True; 0.0, -0.0) and text
#: that reads like one of them
_TERM_VALUES = [None, 0, 0.0, -0.0, 1, 1.0, True, False, 2.5, "1", "1.0", "True", "None", "a"]


@settings(deadline=None)
@given(st.data())
def test_equal_terms_have_equal_labels_and_select_the_same_rows(data):
    n = data.draw(st.integers(0, 12))
    text_cells = st.lists(st.sampled_from([None, "1", "1.0", "True", "None", "a"]),
                          min_size=n, max_size=n)
    dataset = from_columns([
        ("x", ColumnType.NUMERICAL, data.draw(_cells(ColumnType.NUMERICAL, n))),
        ("c", ColumnType.CATEGORICAL, data.draw(text_cells)),
        ("t", ColumnType.TEXT, data.draw(text_cells)),
    ])
    attribute = data.draw(st.sampled_from(dataset.attributes))
    comparator = data.draw(st.sampled_from(["eq", "le", "ge"]))
    first = Term(attribute, comparator, data.draw(st.sampled_from(_TERM_VALUES)))
    second = Term(attribute, comparator, data.draw(st.sampled_from(
        [v for v in _TERM_VALUES if Term(attribute, comparator, v) == first])))
    assert hash(first) == hash(second)
    assert first.label() == second.label()
    outcomes = []
    for term in (first, second):
        predicate = Predicate((term,))
        try:
            rows = select_where(dataset, predicate)
        except ColumnTypeError as exc:
            outcomes.append(str(exc))
            continue
        assert rows == _row_reference(dataset, predicate)
        assert count_where(dataset, predicate) == len(rows)
        outcomes.append(rows)
    assert outcomes[0] == outcomes[1]


@settings(deadline=None)
@given(specs(), specs())
def test_fingerprint_equal_exactly_when_content_is(spec_a, spec_b):
    a, b = from_columns(spec_a), from_columns(spec_b)
    assert (a.fingerprint == b.fingerprint) == (a == b)


@settings(deadline=None)
@given(specs(), st.data())
def test_fingerprint_of_replaced_columns_equals_fresh_build(spec, data):
    base = from_columns(spec)
    derived, fresh_spec = base, []
    for name, ctype, cells in spec:
        if data.draw(st.booleans()):
            cells = data.draw(_cells(ctype, len(cells)))
            derived = derived.with_column(name, cells)
        fresh_spec.append((name, ctype, cells))
    fresh = from_columns(fresh_spec)
    assert derived == fresh
    assert derived.fingerprint == fresh.fingerprint
    assert (derived.fingerprint == base.fingerprint) == (derived == base)


def _rows(spec, indices):
    return [(name, ctype, [cells[i] for i in indices]) for name, ctype, cells in spec]


def _same_as_fresh(derived, fresh_spec):
    fresh = from_columns(fresh_spec)
    assert derived == fresh
    assert derived.fingerprint == fresh.fingerprint
    assert [col.missing for col in derived.columns] == [col.count(None) for col in fresh.columns]


@settings(deadline=None)
@given(specs(), st.data())
def test_fingerprint_of_taken_rows_equals_fresh_build(spec, data):
    n = len(spec[0][2])
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=15)) if n else []
    _same_as_fresh(from_columns(spec).take_rows(indices), _rows(spec, indices))


@settings(deadline=None)
@given(specs(), st.data())
def test_fingerprint_of_a_chain_of_derivations_equals_fresh_build(spec, data):
    derived = from_columns(spec)
    for _ in range(data.draw(st.integers(1, 5))):
        n = derived.row_count
        if data.draw(st.booleans()):
            indices = data.draw(st.lists(st.integers(0, n - 1), max_size=15)) if n else []
            derived, spec = derived.take_rows(indices), _rows(spec, indices)
        else:
            i = data.draw(st.integers(0, len(spec) - 1))
            name, ctype, _ = spec[i]
            cells = data.draw(_cells(ctype, n))
            derived = derived.with_column(name, cells)
            spec = [*spec[:i], (name, ctype, cells), *spec[i + 1:]]
    _same_as_fresh(derived, spec)


def test_a_shared_schema_handed_other_types_or_names_is_checked_again():
    spec = [("a", ColumnType.NUMERICAL, [1.0, None]), ("b", ColumnType.CATEGORICAL, ["1", "x"])]
    derived = from_columns(spec).with_column("a", [2.0, 3.0])
    schema, columns = derived.attributes, derived.columns

    other_types = (ColumnType.TEXT, ColumnType.CATEGORICAL)
    handed = Dataset(schema, other_types, columns)
    fresh = Dataset(("a", "b"), other_types, columns)
    assert handed.types == other_types and handed.fingerprint == fresh.fingerprint

    as_strings = Dataset(schema, ("numerical", "categorical"), columns)
    assert as_strings.types == derived.types and as_strings.fingerprint == derived.fingerprint

    for types, error in [(derived.types[:1], SchemaError),
                         ((ColumnType.NUMERICAL, ColumnType.NUMERICAL), ColumnTypeError)]:
        with pytest.raises(error) as fresh_error:
            Dataset(("a", "b"), types, columns)
        with pytest.raises(error, match=re.escape(str(fresh_error.value))):
            Dataset(schema, types, columns)

    with pytest.raises(SchemaError, match="equal length"):
        Dataset(schema, derived.types, columns[:1])

    built_elsewhere = type(schema)
    renamed = Dataset(built_elsewhere(("b", "a")), derived.types, columns)
    assert renamed.index_of("b") == 0
    assert renamed.fingerprint == Dataset(("b", "a"), derived.types, columns).fingerprint
    assert renamed.fingerprint != derived.fingerprint
    with pytest.raises(SchemaError, match="duplicate attribute name: 'a'"):
        Dataset(built_elsewhere(("a", "a")), derived.types, columns)


def test_with_column_normalizes_one_column_and_encodes_no_schema(monkeypatch):
    source = from_columns([(f"c{i}", ColumnType.NUMERICAL, [float(i), None]) for i in range(6)])
    normalized, encoded = [], []
    normalize, dumps = tabular._normalize, tabular.json.dumps
    monkeypatch.setattr(tabular, "_normalize", lambda *a: normalized.append(a[0]) or normalize(*a))
    monkeypatch.setattr(tabular.json, "dumps", lambda obj, **kw: encoded.append(obj) or dumps(obj, **kw))
    replaced = source.with_column("c4", [-0.0, 7])
    assert normalized == ["c4"]
    assert encoded == [[0.0, 7.0]]
    assert replaced.attributes is source.attributes
    assert replaced.fingerprint == from_columns(
        [(f"c{i}", ColumnType.NUMERICAL, [0.0, 7.0] if i == 4 else [float(i), None])
         for i in range(6)]).fingerprint


_PROFILE_CELLS = {
    ColumnType.NUMERICAL: st.one_of(st.sampled_from([None, 0.0, 1.0, 2.5, -3.0, 40.0]),
                                    st.floats(allow_nan=False, allow_infinity=False)),
    ColumnType.CATEGORICAL: st.sampled_from([None, "a", "b", "c"]),
    ColumnType.TEXT: st.one_of(st.none(), st.sampled_from(["", "ab", "a1", "12-3"]),
                               st.text(max_size=6)),
}


@st.composite
def dataset_pairs(draw):
    """Two non-empty datasets sharing a schema of one to four columns."""
    types = draw(st.lists(st.sampled_from(list(ColumnType)), min_size=1, max_size=4))

    def dataset():
        n = draw(st.integers(1, 10))
        return from_columns([
            (f"c{i}", t, draw(st.lists(_PROFILE_CELLS[t], min_size=n, max_size=n)))
            for i, t in enumerate(types)])

    return dataset(), dataset()


@settings(deadline=None)
@given(dataset_pairs())
def test_discovered_profiles_hold_on_source_and_score_in_unit_interval(pair):
    source, other = pair
    profiles = discover_profiles(source, enumerate_selectivity_predicates(source, other))
    for profile in profiles:
        assert violation(source, profile) == 0.0, profile.label()
        try:
            score = violation(other, profile)
        except DegenerateInputError:  # a correlation needs two complete pairs
            continue
        assert 0.0 <= score <= 1.0, profile.label()
        if isinstance(profile, DependenceBound):
            assert 0.0 <= profile._p_value(other) <= 1.0, profile.label()


@settings(deadline=None)
@given(dataset_pairs(), st.booleans())
def test_every_repair_meets_its_postcondition_or_raises_transform_failure(pair, flip):
    source, other = pair
    for profile in discover_profiles(source, enumerate_selectivity_predicates(source, other)):
        try:
            violation(other, profile)
        except DegenerateInputError:  # a correlation needs two complete pairs
            continue
        perturb = profile.attributes()[flip] if isinstance(profile, DependenceBound) else None
        for t in make_triplets(profile, perturb):
            try:
                repaired = transform(other, t)
            except TransformFailure:
                pass
            else:
                assert repaired.row_count > 0, t.id
                assert violation(repaired, profile) <= POSTCONDITION_TOL, t.id
            try:
                assert 0.0 <= coverage(other, t) <= 1.0, t.id
            except TransformFailure:
                pass


@st.composite
def categorical_pairs(draw):
    """Two non-empty datasets over the same one to three categorical columns,
    with missing cells, drawing on shared or partly disjoint values."""
    names = draw(st.permutations([f"c{i}" for i in range(draw(st.integers(1, 3)))]))
    shared = draw(st.booleans())

    def dataset(pool):
        n = draw(st.integers(1, 40))
        cells = st.sampled_from([None, *pool])
        return from_columns([(a, ColumnType.CATEGORICAL, draw(st.lists(cells, min_size=n,
                                                                         max_size=n)))
                             for a in names])

    return dataset("abc"), dataset("abc" if shared else "cde")


def _enumeration_reference(d_pass, d_fail):
    """Selectivity predicates counted row by row: support by column scans,
    gaps from :func:`select_where`."""
    eligible = {}
    for a in [a for a, t in d_pass.schema if t is ColumnType.CATEGORICAL]:
        shared = set(d_pass.non_missing(a)) & set(d_fail.non_missing(a))
        keep = [v for v in sorted(shared)
                if all(sum(c == v for c in d.column(a)) / d.row_count >= MIN_SUPPORT
                       for d in (d_pass, d_fail))]
        if keep:
            eligible[a] = keep
    attrs = sorted(eligible)
    candidates = [Predicate((Term(a, "eq", v),)) for a in attrs for v in eligible[a]]
    candidates += [Predicate((Term(a1, "eq", v1), Term(a2, "eq", v2)))
                   for i, a1 in enumerate(attrs) for a2 in attrs[i + 1:]
                   for v1 in eligible[a1] for v2 in eligible[a2]]
    return [p for p in candidates
            if abs(len(select_where(d_pass, p)) / d_pass.row_count
                   - len(select_where(d_fail, p)) / d_fail.row_count) >= SELECTIVITY_GAP]


@settings(deadline=None)
@given(categorical_pairs())
def test_selectivity_enumeration_matches_a_row_wise_reference(pair):
    d_pass, d_fail = pair
    assert enumerate_selectivity_predicates(d_pass, d_fail) == \
        _enumeration_reference(d_pass, d_fail)


@settings(deadline=None)
@given(categorical_pairs(), st.data())
def test_contingency_table_matches_a_row_wise_reference(pair, data):
    dataset = pair[0]
    a = data.draw(st.sampled_from(dataset.attributes))
    b = data.draw(st.sampled_from(dataset.attributes))
    expected = {}
    for i in range(dataset.row_count):
        key = (dataset.column(a)[i], dataset.column(b)[i])
        if None not in key:
            expected[key] = expected.get(key, 0) + 1
    assert list(contingency_table(dataset, a, b).items()) == list(expected.items())


@settings(deadline=None)
@given(st.data())
def test_joint_counts_keep_the_items_and_order_of_a_filtered_generator(data):
    n = data.draw(st.integers(0, 30))
    left, right = (data.draw(st.lists(st.sampled_from([None, "a", "b", "c"]),
                                      min_size=n, max_size=n)) for _ in range(2))
    expected = Counter((lv, rv) for lv, rv in zip(left, right)
                       if lv is not None and rv is not None)
    assert list(joint_counts(left, right).items()) == list(expected.items())
    dataset = from_columns([("l", ColumnType.CATEGORICAL, left),
                            ("r", ColumnType.CATEGORICAL, right)])
    assert list(contingency_table(dataset, "l", "r").items()) == list(expected.items())


@settings(deadline=None)
@given(dataset_pairs(), st.booleans())
def test_compose_of_no_repair_is_the_identity_and_of_one_is_transform(pair, flip):
    source, other = pair
    assert compose([], other).dataset is other
    assert compose([], other).warnings == ()
    for profile in discover_profiles(source, enumerate_selectivity_predicates(source, other)):
        try:
            violation(other, profile)
        except DegenerateInputError:  # a correlation needs two complete pairs
            continue
        perturb = profile.attributes()[flip] if isinstance(profile, DependenceBound) else None
        for t in make_triplets(profile, perturb):
            try:
                expected = transform(other, t)
            except TransformFailure as err:
                with pytest.raises(TransformFailure) as again:
                    compose([t], other)
                assert (str(again.value), again.value.best_violation) == \
                    (str(err), err.best_violation), t.id
            else:
                composed = compose([t], other)
                assert composed.dataset == expected, t.id
                assert composed.dataset.fingerprint == expected.fingerprint, t.id
                assert composed.warnings == (), t.id


@settings(deadline=None, max_examples=70)
@given(categorical_pairs(), st.data())
def test_resample_coverage_counts_the_rows_the_repair_adds_or_drops(pair, data):
    dataset = pair[0]
    n = dataset.row_count
    terms = data.draw(st.lists(st.builds(Term, st.sampled_from(dataset.attributes), st.just("eq"),
                                         st.sampled_from("abcdz")), min_size=1, max_size=2))
    predicate = Predicate(tuple(terms))
    count = len(select_where(dataset, predicate))
    threshold = data.draw(st.one_of(st.sampled_from([0.0, count / n, 1.0, 1.5, 0.3, 0.9]),
                                    st.integers(0, n).map(lambda k: k / n)))
    profile = SelectivityBound(predicate=predicate, threshold=threshold)
    triplet = PvtTriplet(profile, "resample")
    try:
        repaired = transform(dataset, triplet, seed=data.draw(st.integers(0, 3)))
    except TransformFailure as err:
        with pytest.raises(TransformFailure) as again:
            coverage(dataset, triplet)
        assert (str(again.value), again.value.best_violation) == (str(err), err.best_violation)
    else:
        assert coverage(dataset, triplet) == min(1.0, abs(repaired.row_count - n) / n)
        assert violation(repaired, profile) <= POSTCONDITION_TOL
        if repaired is not dataset:  # a resample lands exactly on floor(threshold * rows)
            assert len(select_where(repaired, predicate)) == int(threshold * repaired.row_count)


def _stepping_resample_plan(dataset, profile) -> int:
    """The resample plan that drops rows one step at a time and finds a
    duplicate count by doubling and bisection: the reference for the single
    search of ``_resample_plan``."""
    if profile.threshold >= 1.0:
        return 0
    n = dataset.row_count
    count = count_where(dataset, profile.predicate)
    if count == int(profile.threshold * n) or count == 0:
        return 0
    size = 0
    if count > profile.threshold * n:
        while count + size > int(profile.threshold * (n + size)) and -size < count:
            size -= 1
        if -size == n:
            raise TransformFailure(
                f"meeting {profile.label()} would delete every row",
                best_violation=violation(dataset, profile))
    else:
        def reached(s: int) -> bool:
            return int(profile.threshold * (n + s)) - s - count <= 0

        room = MAX_ROWS - n
        size = 1
        while not reached(size):
            if size >= room:
                raise TransformFailure(
                    f"meeting {profile.label()} needs more rows than a list holds",
                    best_violation=violation(dataset, profile))
            size = min(2 * size, room)
        size = bisect_left(range(size + 1), True, lo=size // 2, key=reached)
    return size


@st.composite
def selectivity_cases(draw):
    """``count`` of ``n`` rows satisfying a predicate, and a threshold: 0, a
    multiple of 1/n, just below 1, at or above 1, negative or any fraction."""
    n = draw(st.one_of(st.integers(1, 30), st.integers(1, 3000)))
    count = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    threshold = draw(st.one_of(
        st.just(0.0), st.integers(0, n).map(lambda k: k / n),
        st.floats(0.999, 1.0, exclude_max=True), st.sampled_from([1.0, 1.5, 1 - 1 / (n + 1)]),
        st.floats(-1.0, 0.0), st.floats(0.0, 1.0, exclude_max=True)))
    return n, count, threshold


@settings(deadline=None, max_examples=300)
@given(selectivity_cases())
@example((1536, 1, 0.9999999999999999))  # would grow the dataset past any list's length
def test_resample_plan_matches_stepping_drops(case):
    n, count, threshold = case
    dataset = from_columns([("c", ColumnType.CATEGORICAL, ["hot"] * count + ["cold"] * (n - count))])
    profile = SelectivityBound(Predicate((Term("c", "eq", "hot"),)), threshold)
    try:
        expected = _stepping_resample_plan(dataset, profile)
    except TransformFailure as err:
        with pytest.raises(TransformFailure) as again:
            _resample_plan(dataset, profile)
        assert (str(again.value), again.value.best_violation) == (str(err), err.best_violation)
        assert count == n or "more rows than a list holds" in str(err)
    else:
        assert _resample_plan(dataset, profile) == expected


# --- text shapes: the compiled regexes against the reference signature ---------

SHAPE_TEXT = st.text(alphabet=string.ascii_letters + string.digits + string.punctuation
                     + " \n\t²٣éß", max_size=10)
#: a small alphabet, so that cells drawn for one column often share a signature,
#: and ASCII cells whose regex shape a non-ASCII cell matches (é as "other")
SHAPE_CELLS = st.one_of(st.text(alphabet="aZ09-. \n²٣éß", max_size=4),
                        st.sampled_from(["a-", "aé", "1-", "1²", "-", "é", "٣", "a"]))
SHAPE_PATTERNS = st.lists(st.sampled_from(["digits", "letters", "other"]),
                          max_size=5).map(tuple)


@settings(deadline=None)
@given(SHAPE_TEXT, SHAPE_PATTERNS, st.booleans())
def test_matches_pattern_agrees_with_text_signature(value, pattern, own):
    if own:
        pattern = text_signature(value)
    assert matches_pattern(value, pattern) == (text_signature(value) == pattern)


@pytest.mark.parametrize("value, pattern, expected", [
    ("", (), True), ("", ("letters",), False), ("a", (), False),
    ("ab", ("letters", "letters"), False), ("ab", ("letters",), True),
    ("12", ("digits", "digits"), False), ("--", ("other", "other"), True),
    ("--", ("other",), False), ("a\n1", ("letters", "other", "digits"), True),
])
def test_matches_pattern_edge_cases(value, pattern, expected):
    assert matches_pattern(value, pattern) is expected
    assert (text_signature(value) == pattern) is expected
    assert (shape_regex(pattern).fullmatch(value) is not None) is expected


@settings(deadline=None)
@given(st.lists(st.one_of(st.none(), SHAPE_CELLS), min_size=1, max_size=6))
def test_discovered_text_pattern_is_the_one_signature_every_cell_shares(cells):
    found = [p for p in discover_profiles(from_columns([("t", ColumnType.TEXT, cells)]))
             if isinstance(p, DomainText)]
    present = [v for v in cells if v is not None]
    expected = []
    if present:
        signatures = {text_signature(v) for v in present}
        pattern = next(iter(signatures)) if len(signatures) == 1 else None
        lengths = [len(v) for v in present]
        expected = [DomainText("t", pattern, min(lengths), max(lengths))]
    assert found == expected


@settings(deadline=None)
@given(SHAPE_TEXT, SHAPE_PATTERNS)
def test_runs_of_a_conforming_value_join_back_to_it(value, other):
    pattern = text_signature(value)
    runs = _runs(value, pattern)
    assert "".join(runs) == value
    assert [text_signature(run) for run in runs] == [(cls,) for cls in pattern]
    assert (_runs(value, other) is None) == (other != pattern)


# --- labels: one per constraint, whatever the names ------------------------------

#: names and values from letters, a backslash, a hash and every separator of a label
LABEL_TEXT = st.text(alphabet='ab\\#",()&=<>', min_size=1, max_size=5)
TERMS = st.builds(Term, LABEL_TEXT, st.sampled_from(["eq", "le", "ge"]),
                  st.one_of(LABEL_TEXT, st.just(""), st.integers(-9, 9)))


@st.composite
def any_profiles(draw):
    """A profile of any kind on drawn names, with fixed parameters."""
    a = draw(LABEL_TEXT)
    b = draw(LABEL_TEXT.filter(lambda b: b != a))
    terms = draw(st.lists(TERMS, min_size=1, max_size=2))
    return draw(st.sampled_from([
        MissingRate(a, 0.0), DomainCategorical(a, frozenset({"v"})), DomainNumerical(a, 0.0, 1.0),
        DomainText(a, None, 0, 1), OutlierBound(a, 1.5, 0.0), ChiSquareBound(a, b, 0.0),
        CorrelationBound(a, b, 0.0), SelectivityBound(Predicate(tuple(terms)), 0.0)]))


def _parts(profile) -> tuple:
    """A profile's kind, then its names and values with the separators
    between them, in the order its label writes them."""
    if isinstance(profile, SelectivityBound):
        symbol = {"eq": "=", "le": "<=", "ge": ">="}
        terms = [(t.attribute, symbol[t.comparator], str(t.value))
                 for t in profile.predicate.terms]
        parts = [*terms[0], *(part for term in terms[1:] for part in ("&", *term))]
    else:
        first, *rest = profile.attributes()
        parts = [first, *(part for name in rest for part in (",", name))]
    return (profile.kind.value, *parts)


_PLAIN_PART = re.compile(r'[^",()&=<>]*')
_SEPARATOR = re.compile(r"<=|>=|[,&=]")


def _read_label(label: str) -> tuple:
    """A label read back into its kind, then its names and values with the
    separators between them: a part that opens with a quote is a JSON
    string, and any other runs up to the next separator."""
    kind, _, body = label.partition("(")
    assert body.endswith(")"), label
    body, out, i = body[:-1], [kind], 0
    while True:
        if body.startswith('"', i):
            text, i = json.JSONDecoder().raw_decode(body, i)
        else:
            text = _PLAIN_PART.match(body, i).group()
            i += len(text)
        out.append(text)
        if i == len(body):
            return tuple(out)
        separator = _SEPARATOR.match(body, i)
        assert separator, label
        out.append(separator.group())
        i = separator.end()


@settings(deadline=None, max_examples=300)
@given(st.lists(any_profiles(), min_size=1, max_size=4))
def test_labels_and_ids_read_back_so_distinct_profiles_have_distinct_ones(profiles):
    for p in profiles:
        assert _read_label(p.label()) == _parts(p)
        for t in make_triplets(p):
            assert t.id.rpartition("#") == (p.label(), "#", t.transform_id)
    # hence two profiles share a label iff they are one constraint
    assert len({p.label() for p in profiles}) == len(set(map(_parts, profiles)))


# --- moments: the bits of the inline formulas they replaced ----------------------


def _inline_stddev(values):
    vals = list(values)
    unit = unit_scale(vals)
    vals = [v * unit for v in vals]
    m = sum(vals) / len(vals)
    return math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals)) / unit


def _inline_outlier_flags(values, k):
    present = [v for v in values if v is not None]
    if not present:
        return [False] * len(values)
    unit = unit_scale(present)
    present = [v * unit for v in present]
    mean = sum(present) / len(present)
    sd = math.sqrt(sum((v - mean) ** 2 for v in present) / len(present))
    if sd == 0.0:
        return [False] * len(values)
    return [v is not None and abs(v * unit - mean) > k * sd for v in values]


def _inline_pearson(xs, ys):
    n = len(xs)
    ux, uy = unit_scale(xs), unit_scale(ys)
    xs = [x * ux for x in xs]
    ys = [y * uy for y in ys]
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    r = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / math.sqrt(vx * vy)
    return 1.0 if r > 1.0 - 1e-12 else -1.0 if r < -1.0 + 1e-12 else r


@st.composite
def _magnitudes(draw, min_size=1, missing=False):
    """Finite floats up to +-1.7e308: any of them, or a mantissa times a
    binary exponent the column shares, from subnormal to the float limit."""
    exponent = draw(st.integers(-1074, 1023))
    value = st.one_of(st.floats(-1.7e308, 1.7e308),
                      st.builds(math.ldexp, st.floats(-1.0, 1.0), st.just(exponent)))
    return draw(st.lists(st.none() | value if missing else value, min_size=min_size,
                         max_size=12))


@settings(deadline=None)
@given(_magnitudes(), _magnitudes(missing=True), st.sampled_from([0.5, 1.5, 3.0]))
@example([5e-324, 0.0, -5e-324], [1.7e308, -1.7e308, None, 0.0], 1.5)
def test_stddev_and_outlier_flags_keep_the_inline_bits(values, cells, k):
    assert population_stddev(values).hex() == _inline_stddev(values).hex()
    assert outlier_flags(cells, k) == _inline_outlier_flags(cells, k)


@settings(deadline=None)
@given(_magnitudes(min_size=2).flatmap(
    lambda xs: st.tuples(st.just(xs), _magnitudes(min_size=len(xs)).map(lambda ys: ys[:len(xs)]))))
@example(([5e-324, 1e-323, 0.0], [1.7e308, -1.7e308, 1.0]))
def test_pearson_correlation_keeps_the_inline_bits(pair):
    xs, ys = pair
    dataset = from_columns([("x", ColumnType.NUMERICAL, xs), ("y", ColumnType.NUMERICAL, ys)])
    xs, ys = list(dataset.column("x")), list(dataset.column("y"))
    assert pearson_correlation(dataset, "x", "y").hex() == _inline_pearson(xs, ys).hex()


# --- scenario text cells: the bulk draws against one random call per cell -------


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 130), st.integers(0, 300))
def test_bulk_text_draws_equal_one_draw_per_cell(seed, length, count):
    bulk, per_call = random.Random(seed), random.Random(seed)
    assert _letters(bulk, length) == per_call_letters(per_call, length)
    assert bulk.getstate() == per_call.getstate()
    assert _below_26_pow_9(bulk, count) == per_call_decoy_draws(per_call, count)
    assert bulk.getstate() == per_call.getstate()


@given(st.integers(min_value=0))
@example(26 ** 9 - 1)
@example(26 ** 10 - 1)
@example(26 ** 10)
def test_fixed_width_token_equals_the_divmod_loop(index):
    assert _fixed_width_token(index) == divmod_token(index)
