from __future__ import annotations

import copy
import csv
import pickle
import random
import sys

import pytest

from conftest import (
    COUNT_CELLS,
    COUNT_COLUMNS,
    COUNT_PREDICATES,
    COUNT_TERMS,
    assert_counts_match_the_references,
    csv_writer_bytes,
    per_cell_load_csv,
)
from datacause.errors import (
    ColumnTypeError,
    CsvParseError,
    DatacauseError,
    PredicateError,
    SchemaError,
)
from datacause.tabular import (
    TALLIES,
    ColumnType,
    Dataset,
    Predicate,
    TallyScope,
    Term,
    from_columns,
    infer_types,
    load_csv,
    mean,
    population_stddev,
    count_where,
    save_csv,
    select_where,
    tally,
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
    grown = people_fail.take_rows([*range(10), 0])
    assert grown.row_count == 11
    assert grown.column("age")[10] == people_fail.column("age")[0]


def test_ordered_comparator_needs_numerical(people_fail):
    with pytest.raises(ColumnTypeError):
        select_where(people_fail, Predicate((Term("gender", "le", 1.0),)))


@pytest.mark.parametrize("cell", ["x", [1]])
def test_non_numeric_cell_in_numerical_column_raises_column_type_error(cell):
    with pytest.raises(ColumnTypeError, match="'a'"):
        from_columns([("a", ColumnType.NUMERICAL, [1.0, cell])])


@pytest.mark.parametrize("comparator", ["le", "ge"])
def test_ordered_term_with_non_numeric_value_is_rejected(people_fail, comparator):
    with pytest.raises(ColumnTypeError):
        select_where(people_fail, Predicate((Term("age", comparator, "abc"),)))


@pytest.mark.parametrize("ctype", [ColumnType.CATEGORICAL, ColumnType.TEXT])
@pytest.mark.parametrize("value", [None, 1, 1.0, True])
@pytest.mark.parametrize("where", [count_where, select_where])
def test_categorical_or_text_column_compared_against_a_non_text_value_is_rejected(
        where, value, ctype):
    dataset = from_columns([("c", ctype, ["1", "1.0", "None", "True", None])])
    with pytest.raises(ColumnTypeError, match=f"{ctype.value} column compared against"):
        where(dataset, Predicate((Term("c", "eq", value),)))


def test_int_cell_beyond_the_float_range_raises_column_type_error():
    with pytest.raises(ColumnTypeError, match="non-finite value in numerical column 'x'"):
        from_columns([("x", ColumnType.NUMERICAL, [1.0, 10 ** 400])])


@pytest.mark.parametrize("comparator", ["eq", "le", "ge"])
@pytest.mark.parametrize("where", [count_where, select_where])
def test_term_value_beyond_the_float_range_raises_column_type_error(where, comparator):
    dataset = from_columns([("x", ColumnType.NUMERICAL, [1.0, 2.0])])
    with pytest.raises(ColumnTypeError, match="beyond the float range"):
        where(dataset, Predicate((Term("x", comparator, -10 ** 400),)))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter writes an int of any length as text")
@pytest.mark.parametrize("comparator", ["eq", "le"])
@pytest.mark.parametrize("where", [count_where, select_where])
def test_term_value_with_no_text_form_raises_predicate_error(where, comparator):
    dataset = from_columns([("c", ColumnType.CATEGORICAL, ["a", "b"])])
    huge = 10 ** (sys.get_int_max_str_digits() + 1)
    with pytest.raises(PredicateError, match="value compared with 'c' has no text form"):
        where(dataset, Predicate((Term("c", comparator, huge),)))


def test_with_column_of_the_wrong_length_rejected(people_fail):
    with pytest.raises(SchemaError, match=r"unequal lengths: \[9, 10\]"):
        people_fail.with_column("age", [0.0] * 9)


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


# --- copy-on-write columns ----------------------------------------------------


def test_with_column_shares_untouched_columns(people_fail):
    replaced = people_fail.with_column("age", [0.0] * 10)
    age = people_fail.index_of("age")
    for i, (before, after) in enumerate(zip(people_fail.columns, replaced.columns)):
        assert (after is before) == (i != age)


def test_replaced_numerical_column_still_rejects_non_finite(people_fail):
    with pytest.raises(ColumnTypeError):
        people_fail.with_column("age", [1.0] * 9 + [float("nan")])


def test_column_reused_under_another_type_is_normalized_again():
    numbers = from_columns([("a", ColumnType.NUMERICAL, [1, None, -0.0])]).column("a")
    as_text = Dataset(("a",), (ColumnType.TEXT,), (numbers,))
    assert as_text.column("a") == ("1.0", None, "0.0")
    assert as_text.fingerprint == from_columns(
        [("a", ColumnType.TEXT, ["1.0", None, "0.0"])]).fingerprint
    text = from_columns([("a", ColumnType.TEXT, ["1", "inf"])]).column("a")
    with pytest.raises(ColumnTypeError):
        Dataset(("a",), (ColumnType.NUMERICAL,), (text,))


def test_from_columns_takes_over_the_columns_of_a_dataset(monkeypatch):
    import datacause.tabular as tabular
    source = from_columns([("x", ColumnType.NUMERICAL, [1.0, None]),
                           ("c", ColumnType.CATEGORICAL, ["a", "b"])])
    calls = []
    normalize = tabular._normalize
    monkeypatch.setattr(tabular, "_normalize", lambda *a: calls.append(a) or normalize(*a))
    rebuilt = from_columns([(name, ctype, source.column(name)) for name, ctype in source.schema])
    assert calls == []
    assert all(after is before for after, before in zip(rebuilt.columns, source.columns))
    assert rebuilt == source and rebuilt.fingerprint == source.fingerprint
    # other sequences are still normalized into columns of their own
    again = from_columns([("x", ColumnType.NUMERICAL, range(2)),
                          ("c", ColumnType.CATEGORICAL, ("a", None))])
    assert len(calls) == 2
    assert again.columns == ((0.0, 1.0), ("a", None))


def test_take_rows_hashes_the_kept_cells_without_normalizing_them(monkeypatch):
    import datacause.tabular as tabular
    source = from_columns([("x", ColumnType.NUMERICAL, [1.0, None, -0.0, 2.5]),
                           ("c", ColumnType.CATEGORICAL, ["a", "b", None, "a"])])
    calls = []
    normalize = tabular._normalize
    monkeypatch.setattr(tabular, "_normalize", lambda *a: calls.append(a) or normalize(*a))
    kept = source.take_rows([2, 1, 2, 0])
    assert calls == []
    assert kept.columns == ((0.0, None, 0.0, 1.0), (None, "b", None, "a"))
    fresh = from_columns([("x", ColumnType.NUMERICAL, [0.0, None, 0.0, 1.0]),
                          ("c", ColumnType.CATEGORICAL, [None, "b", None, "a"])])
    assert kept == fresh and kept.fingerprint == fresh.fingerprint
    assert source.take_rows(range(4)).fingerprint == source.fingerprint


@pytest.mark.parametrize("indices", [[-1, 0], [5], [0, 3], [-4]])
def test_take_rows_rejects_indices_out_of_range(indices):
    source = from_columns(_BASE)
    with pytest.raises(SchemaError, match=r"row indices must lie in \[0, 3\)"):
        source.take_rows(indices)
    assert source.take_rows([]).row_count == 0
    assert source.take_rows(range(0)).columns == ((), ())


def test_columns_carry_their_missing_count(people_fail):
    assert people_fail.column("phone").missing == 2
    assert [col.missing for col in people_fail.columns] == [col.count(None) for col in people_fail.columns]
    derived = from_columns(_BASE).take_rows([1, 2, 1]).with_column("c", [None, None, "a"])
    assert [col.missing for col in derived.columns] == [1, 2]


def test_copied_and_pickled_datasets_keep_their_schema_and_fingerprint():
    source = from_columns(_BASE)
    for copied in (copy.deepcopy(source), pickle.loads(pickle.dumps(source))):
        assert copied == source and copied.fingerprint == source.fingerprint
        assert copied.index_of("c") == 1 and copied.column("x").missing == 1
        assert copied.with_column("c", "xyz").fingerprint == source.with_column("c", "xyz").fingerprint


def test_csv_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,b\ncaf\u00e9,1\n".encode("latin-1"))
    with pytest.raises(CsvParseError, match="not valid UTF-8") as caught:
        load_csv(path)
    assert str(path) in str(caught.value)


def test_csv_field_over_the_size_limit_rejected(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("a,b\n1,2\n3," + "x" * 200_000 + "\n")
    limit = csv.field_size_limit()
    with pytest.raises(CsvParseError) as caught:
        load_csv(path)
    assert str(caught.value) == f"{path}: line 3: field larger than field limit ({limit})"
    assert csv.field_size_limit() == limit


_BASE = [("x", ColumnType.NUMERICAL, [1.0, -0.0, None]),
         ("c", ColumnType.CATEGORICAL, ["a", None, "b"])]


@pytest.mark.parametrize("derive, content", [
    (lambda d: d.with_column("x", [-0.0, None, 3]), [[0.0, None, 3.0], ["a", None, "b"]]),
    (lambda d: d.take_rows([2, 1]), [[None, 0.0], ["b", None]]),
    (lambda d: d.take_rows([0, 1, 2, 1]), [[1.0, 0.0, None, 0.0], ["a", None, "b", None]]),
], ids=["with_column", "take_rows", "take_rows_repeated"])
def test_derived_dataset_fingerprints_as_built_fresh(derive, content):
    derived = derive(from_columns(_BASE))
    fresh = from_columns([(name, ctype, cells) for (name, ctype, _), cells in zip(_BASE, content)])
    assert derived == fresh
    assert derived.fingerprint == fresh.fingerprint


def test_mean_and_stddev_stay_finite_near_the_float_limit():
    assert mean([1.7e308, 1.7e308, 1.7e308]) == pytest.approx(1.7e308)
    assert population_stddev([1.7e308, -1.7e308]) == 1.7e308
    assert mean([1.0, 2.0, 4.0]) == 7.0 / 3.0
    assert population_stddev([1.0, 3.0]) == 1.0


@pytest.mark.parametrize("build", [
    lambda: Dataset(("a",), ("bogus",), ((1.0,),)),
    lambda: from_columns([("a", None, [1.0])]),
    lambda: from_columns([("b", ColumnType.TEXT, ["x"]), ("a", "Numerical", [1.0])]),
], ids=["bogus", "none", "wrong_case"])
def test_unknown_column_type_raises_schema_error_naming_it(build):
    with pytest.raises(SchemaError, match=r"unknown column type .* of attribute 'a'"):
        build()


def test_column_types_given_by_value_are_accepted():
    d = Dataset(("a", "b"), ("numerical", "text"), ((1.0,), ("x",)))
    assert d.types == (ColumnType.NUMERICAL, ColumnType.TEXT)


# --- the column-wise CSV reader and writer against their per-cell references

def _load_outcome(load, path):
    """What ``load`` makes of ``path``: the dataset's parts, or its error."""
    try:
        d = load(path)
    except DatacauseError as exc:
        return type(exc), str(exc), getattr(exc, "row_index", None)
    return d.attributes, d.types, d.columns, d.fingerprint


_OVERSIZE = b"x" * (csv.field_size_limit() + 1)

_CSV_INPUTS = {
    "bom": b"\xef\xbb\xbfa,b\r\n1,x\r\n2,y\r\n",
    "missing_literals": b"a,b,c\nNULL,1,\nnull,NA,x\nNA,,y\n,3,NULL\n",
    "quoted_newlines": b'a,b\n"x\ny",1\n"p\r\nq",2\n"",""\n',
    "short_row_first": b"a,b\n1\n2,3\n4,5\n",
    "short_row_in_the_middle": b"a,b\n1,2\n3\n4,5\n",
    "long_row_last": b"a,b\n1,2\n3,4\n5,6,7\n",
    "short_row_before_an_oversize_field": b"a,b\n1,2\n3\n4," + _OVERSIZE + b"\n",
    "oversize_field_before_a_short_row": b"a,b\n1," + _OVERSIZE + b"\n3\n",
    "header_only": b"a,b,c\n",
    "header_only_without_newline": b"a,b,c",
    "not_utf8": "a,b\ncaf\u00e9,1\n".encode("latin-1"),
    "empty": b"",
    "duplicate_header": b"a,a\n1,2\n",
    "blank_line": b"a\n\n1\n",
    "no_columns": b"\n\n",
    "one_column_with_empty_cells": b'a\n""\nx\n""\n',
    "real_hazards": "a,b\nnan,1e400\n1_0, 3 \n0x1,\u0663\ninf,-inf\n".encode(),
    "reals": b"a,b\n1.5,-0\n1e5,2\n",
    "at_the_categorical_cutoff": ("a\n" + "".join(f"w{i}\n" for i in range(20))).encode(),
    "past_the_categorical_cutoff": ("a\n" + "".join(f"w{i}\n" for i in range(21))).encode(),
}


@pytest.mark.parametrize("content", _CSV_INPUTS.values(), ids=_CSV_INPUTS.keys())
def test_load_csv_matches_the_per_cell_loader(tmp_path, content):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    assert _load_outcome(load_csv, path) == _load_outcome(per_cell_load_csv, path)


#: raw cells that are reals, missing markers, or text that float() or the
#: csv dialect treats specially
_RAW_CELLS = ["1.5", "-0", "1e5", "1_0", " 3 ", "\u0663", "nan", "inf", "1e400", "0x1", "x", "",
              "NA", "NULL", "null", '"', ",", "a b", "\n", "\u00e9"]


def _random_csv(rng: random.Random) -> str:
    width = rng.randint(1, 4)
    header = [f"c{j}" for j in range(width)]
    distinct = rng.sample(_RAW_CELLS, rng.randint(1, 6)) + [f"w{i}" for i in range(rng.randint(0, 25))]
    lines = []
    for row in [header] + [[rng.choice(distinct) for _ in range(width)]
                           for _ in range(rng.randint(0, 40))]:
        if rng.random() < 0.02:  # now and then a row of the wrong length
            row = row[:-1] if rng.random() < 0.5 else row + ["z"]
        lines.append(",".join('"' + c.replace('"', '""') + '"'
                              if any(ch in c for ch in ',"\n') or rng.random() < 0.1 else c
                              for c in row))
    return rng.choice(["\n", "\r\n"]).join(lines) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_load_csv_matches_the_per_cell_loader_on_seeded_files(tmp_path, seed):
    path = tmp_path / "in.csv"
    path.write_text(_random_csv(random.Random(seed)), encoding="utf-8", newline="")
    assert _load_outcome(load_csv, path) == _load_outcome(per_cell_load_csv, path)


#: names and text cells are drawn over these: what csv.writer quotes, what
#: load_csv reads as missing, NUL and non-ASCII
_WRITER_ALPHABET = [",", '"', "\r", "\n", " ", "N", "A", "\0", "\u00e9", "\u4e2d", "a"]
_REALS = [5e-324, 1e16, 1.7e308, -1.7e308, 0.1, -0.0, 1.0, 2.5e-7, 123456789.125]


def _random_dataset(rng: random.Random) -> Dataset:
    rows = rng.choice([0, 1, rng.randint(2, 12)])
    spec = []
    for j in range(rng.choice([1, 1, 2, 3])):
        name = f"{j}" + "".join(rng.choices(_WRITER_ALPHABET, k=rng.randint(0, 4)))
        ctype = rng.choice(list(ColumnType))
        if ctype is ColumnType.NUMERICAL:
            cells = [rng.choice(_REALS + [None]) for _ in range(rows)]
        else:
            cells = [rng.choice([None, "", "NA", "".join(rng.choices(_WRITER_ALPHABET,
                                                                       k=rng.randint(1, 5)))])
                     for _ in range(rows)]
        spec.append((name, ctype, cells))
    return from_columns(spec)


@pytest.mark.parametrize("seed", range(200))
def test_save_csv_writes_the_bytes_of_csv_writer_on_seeded_datasets(tmp_path, seed):
    dataset = _random_dataset(random.Random(seed))
    save_csv(dataset, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == csv_writer_bytes(dataset)


@pytest.mark.parametrize("cells, written", [
    ([""], b'a\r\n""\r\n'),
    ([None], b'a\r\n""\r\n'),
    (["", "x", None], b'a\r\n""\r\nx\r\n""\r\n'),
    ([], b"a\r\n"),
], ids=["empty", "missing", "empty_missing_and_present", "no_rows"])
def test_save_csv_writes_a_lone_empty_field_quoted(tmp_path, cells, written):
    dataset = from_columns([("a", ColumnType.TEXT, cells)])
    save_csv(dataset, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == written == csv_writer_bytes(dataset)


def test_save_csv_writes_a_text_cell_holding_nul_unquoted(tmp_path):
    # csv.writer before Python 3.11 raises on NUL ("need to escape, but no
    # escapechar set"); every Python now writes it as 3.11 does
    dataset = from_columns([("note", ColumnType.TEXT, ["a\0b", None]),
                            ("n", ColumnType.NUMERICAL, [1.5, None])])
    save_csv(dataset, tmp_path / "nul.csv")
    assert (tmp_path / "nul.csv").read_bytes() == b"note,n\r\na\x00b,1.5\r\n,\r\n"


@pytest.mark.parametrize("seed", range(100))
def test_run_shared_tallies_count_as_the_per_call_references_on_seeded_datasets(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 15)
    dataset = from_columns([(name, ctype, [rng.choice(COUNT_CELLS[ctype]) for _ in range(n)])
                            for name, ctype in COUNT_COLUMNS])
    predicates = [Predicate(tuple(Term(*map(rng.choice, COUNT_TERMS))
                                  for _ in range(rng.randint(1, 2))))
                  for _ in range(8)]
    assert_counts_match_the_references(dataset, predicates + list(COUNT_PREDICATES))


def test_nested_tally_scopes_share_one_memo_and_only_the_outermost_exit_drops_it(people_fail):
    column = people_fail.column("gender")
    with TallyScope():
        memo, outer = TALLIES.get(), tally(column)
        with TallyScope():
            assert TALLIES.get() is memo and tally(column) is outer
        assert TALLIES.get() is memo and tally(column) is outer
    assert TALLIES.get() is None and tally(column) is not tally(column)


@pytest.mark.parametrize("ctype", [ColumnType.CATEGORICAL, ColumnType.TEXT])
@pytest.mark.parametrize("cell", ["\ud800", "x\udcff"])
def test_a_cell_holding_a_lone_surrogate_raises_column_type_error_naming_its_column(
        ctype, cell):
    # the fingerprint hashes cells as UTF-8, which a lone surrogate has no form in
    with pytest.raises(ColumnTypeError, match=f"{ctype.value} column 'note' holds a cell"):
        from_columns([("note", ctype, ["ok", cell])])
    dataset = from_columns([("note", ctype, ["ok", "fine"])])
    with pytest.raises(ColumnTypeError, match="column 'note' holds a cell"):
        dataset.with_column("note", [None, cell])


def test_an_attribute_named_by_a_lone_surrogate_raises_schema_error_naming_it():
    with pytest.raises(SchemaError, match=r"attribute name '\\ud800' has no UTF-8 form"):
        from_columns([("ok", ColumnType.TEXT, ["a"]), ("\ud800", ColumnType.TEXT, ["b"])])
