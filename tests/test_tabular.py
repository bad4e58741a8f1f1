from __future__ import annotations

import random

import pytest

from datacause.errors import ColumnTypeError, CsvParseError, SchemaError
from datacause.tabular import (
    ColumnType,
    Dataset,
    Predicate,
    Term,
    from_columns,
    infer_types,
    load_csv,
    save_csv,
    select_where,
)


def test_people_fail_shape(people_fail):
    assert people_fail.row_count == 10
    assert people_fail.attributes[0] == "name"
    phone = people_fail.column("phone")
    assert sum(1 for v in phone if v is None) == 2


def test_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("a,b,c\n")
    d = load_csv(path)
    assert d.row_count == 0
    assert d.attributes == ("a", "b", "c")


def test_mixed_column_is_text():
    assert infer_types([["1.5", "2", "x"]]) == [ColumnType.TEXT]


def test_infer_numerical_and_categorical():
    assert infer_types([["20", "60", "45"]]) == [ColumnType.NUMERICAL]
    genders = [["F", "M", "F", "M", "F", "M", "F", "M", "F", "M"]]
    assert infer_types(genders) == [ColumnType.CATEGORICAL]


def test_infer_text_beyond_categorical_cutoff():
    values = [f"free form string {i}" for i in range(1000)]
    assert infer_types([values]) == [ColumnType.TEXT]


def test_infer_missing_literals(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\nNULL,1\nNA,2\nnull,3\nx,4\n")
    d = load_csv(path)
    assert d.column("a") == (None, None, None, "x")


def test_duplicate_header_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1,2\n")
    with pytest.raises(SchemaError):
        load_csv(path)


def test_bad_arity_reports_row_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert err.value.row_index == 2


def test_round_trip_fingerprint(tmp_path, people_fail):
    out = tmp_path / "copy.csv"
    save_csv(people_fail, out)
    again = load_csv(out)
    assert again.fingerprint == people_fail.fingerprint


def test_fingerprint_tracks_content():
    d1 = from_columns([("a", ColumnType.NUMERICAL, [1, 2, 3])])
    d2 = from_columns([("a", ColumnType.NUMERICAL, [1.0, 2.0, 3.0])])
    d3 = from_columns([("a", ColumnType.NUMERICAL, [1, 2, 4])])
    assert d1.fingerprint == d2.fingerprint
    assert d1.fingerprint != d3.fingerprint


def test_negative_zero_fingerprints_as_zero():
    d1 = from_columns([("a", ColumnType.NUMERICAL, [-0.0, 1.0])])
    d2 = from_columns([("a", ColumnType.NUMERICAL, [0.0, 1.0])])
    assert d1 == d2
    assert d1.fingerprint == d2.fingerprint


def test_missing_cell_tracked_in_fingerprint():
    d1 = from_columns([("a", ColumnType.CATEGORICAL, ["x", None])])
    d2 = from_columns([("a", ColumnType.CATEGORICAL, ["x", "y"])])
    assert d1.fingerprint != d2.fingerprint


def test_selectivity_example_people(people_fail, people_pass):
    pred = Predicate((Term("gender", "eq", "F"), Term("high_expenditure", "eq", "yes")))
    hit_fail = select_where(people_fail, pred)
    assert len(hit_fail) == 1  # only Julietta Brown
    assert len(hit_fail) / people_fail.row_count == pytest.approx(0.1)
    hit_pass = select_where(people_pass, pred)
    assert len(hit_pass) == 4
    assert len(hit_pass) / people_pass.row_count == pytest.approx(0.44, abs=0.01)


def test_select_where_always_true_term(people_fail):
    pred = Predicate((Term("age", "ge", -1e9),))
    assert select_where(people_fail, pred) == set(range(10))


def test_select_where_missing_never_satisfies(people_fail):
    pred = Predicate((Term("zip_code", "ge", 0.0),))
    assert len(select_where(people_fail, pred)) == 8


def test_select_where_unknown_attribute(people_fail):
    with pytest.raises(SchemaError):
        select_where(people_fail, Predicate((Term("nope", "eq", "x"),)))


def test_select_where_size_invariant_under_permutation(people_fail):
    pred = Predicate((Term("gender", "eq", "M"),))
    rng = random.Random(3)
    order = list(range(people_fail.row_count))
    rng.shuffle(order)
    shuffled = people_fail.take_rows(order)
    assert len(select_where(shuffled, pred)) == len(select_where(people_fail, pred))


def test_dataset_validation():
    with pytest.raises(SchemaError):
        from_columns([("a", ColumnType.NUMERICAL, [1]), ("a", ColumnType.NUMERICAL, [2])])
    with pytest.raises(SchemaError):
        from_columns([("", ColumnType.NUMERICAL, [1])])
    with pytest.raises(SchemaError):
        Dataset(("a", "b"), (ColumnType.NUMERICAL, ColumnType.NUMERICAL),
                ((1.0,), (1.0, 2.0)))
    with pytest.raises(ColumnTypeError):
        from_columns([("a", ColumnType.NUMERICAL, [float("inf")])])


def test_immutability_helpers(people_fail):
    replaced = people_fail.with_column("age", [0.0] * 10)
    assert people_fail.column("age")[0] == 45
    assert replaced.column("age")[0] == 0.0
    taken = people_fail.take_rows([0, 2])
    assert taken.row_count == 2
    grown = people_fail.append_rows([people_fail.row(0)])
    assert grown.row_count == 11


def test_ordered_comparator_needs_numerical(people_fail):
    with pytest.raises(ColumnTypeError):
        select_where(people_fail, Predicate((Term("gender", "le", 1.0),)))


def test_predicate_arity_limits():
    from datacause.errors import PredicateError
    with pytest.raises(PredicateError):
        Predicate(())
    with pytest.raises(PredicateError):
        Predicate((Term("a", "eq", "x"), Term("b", "eq", "y"), Term("c", "eq", "z")))
    with pytest.raises(PredicateError):
        Term("a", "between", "x")


def test_all_missing_column_is_numerical():
    # vacuously numeric; a numerical column of missing cells still builds
    assert infer_types([[None, None]]) == [ColumnType.NUMERICAL]
    d = from_columns([("a", ColumnType.NUMERICAL, [None, None])])
    assert d.column("a") == (None, None)
    assert d.non_missing("a") == []
