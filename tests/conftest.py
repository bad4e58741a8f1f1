from __future__ import annotations

import csv
import io
import math
import random
import string
import sys
from collections import Counter
from itertools import compress
from pathlib import Path

import pytest

from datacause.engine import EngineConfig, _Run
from datacause.errors import CsvParseError, DatacauseError, SchemaError
from datacause.profiles import joint_counts
from datacause.tabular import (
    MISSING_LITERALS,
    TALLIES,
    ColumnType,
    Dataset,
    Predicate,
    Term,
    _satisfies,
    _target,
    count_where,
    from_columns,
    load_csv,
)

FIXTURES = Path(__file__).parent / "fixtures"

try:
    from hypothesis import settings
except ImportError:  # without the optional hypothesis the property tests skip
    pass
else:
    # ``--hypothesis-profile=thorough``: 1 000 examples for each property that
    # sets no max_examples of its own
    settings.register_profile("thorough", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def people_fail() -> Dataset:
    return load_csv(FIXTURES / "people_fail.csv")


@pytest.fixture(scope="session")
def people_pass() -> Dataset:
    return load_csv(FIXTURES / "people_pass.csv")


def random_dataset(seed: int, min_rows: int = 8, max_rows: int = 40) -> Dataset:
    """Small mixed-type dataset with seeded content and missing cells."""
    rng = random.Random(seed)
    n = rng.randint(min_rows, max_rows)
    cols = []
    n_cat = rng.randint(1, 2)
    n_num = rng.randint(1, 2)
    n_text = rng.randint(0, 1)
    for c in range(n_cat):
        values = [rng.choice("abcd") for _ in range(n)]
        for _ in range(rng.randint(0, n // 4)):
            values[rng.randrange(n)] = None
        cols.append((f"cat_{c}", ColumnType.CATEGORICAL, values))
    for c in range(n_num):
        values = [round(rng.uniform(-30, 70), 3) for _ in range(n)]
        for _ in range(rng.randint(0, n // 5)):
            values[rng.randrange(n)] = None
        cols.append((f"num_{c}", ColumnType.NUMERICAL, values))
    for c in range(n_text):
        values = ["".join(rng.choice("xyz") for _ in range(rng.randint(2, 14)))
                  for _ in range(n)]
        for _ in range(rng.randint(0, n // 5)):
            values[rng.randrange(n)] = None
        cols.append((f"text_{c}", ColumnType.TEXT, values))
    if all(v is None for _, _, vals in cols for v in vals):  # pragma: no cover
        cols[0][2][0] = "a"
    return from_columns(cols)


def missing_columns_pair(columns: int, seed: int, rows: int = 12) -> tuple[Dataset, Dataset]:
    """``columns`` text columns ``c0``, ``c1``, ... of four-letter tokens, and a
    copy that hides at least one cell of each: the copy differs only in its
    missing rates, so its only discriminative triplets are
    ``missing_rate(c<j>)#impute``."""
    rng = random.Random(seed)
    passing, failing = [], []
    for j in range(columns):
        cells = ["".join(rng.choice("abcdefgh") for _ in range(4)) for _ in range(rows)]
        hidden = set(rng.sample(range(rows), rng.randint(1, rows // 3)))
        passing.append((f"c{j}", ColumnType.TEXT, cells))
        failing.append((f"c{j}", ColumnType.TEXT,
                        [None if i in hidden else v for i, v in enumerate(cells)]))
    return from_columns(passing), from_columns(failing)


# --- scenario text cells, one random call per cell: the references that
# datacause.synth's bulk draws must equal, cell for cell and state for state


def per_call_letters(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def per_call_decoy_draws(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(26 ** 9) for _ in range(count)]


def divmod_token(index: int) -> str:
    """The low ten base-26 digits of ``index`` as letters, low digit first."""
    out = []
    for _ in range(5):
        index, digits = divmod(index, 676)
        out.append(string.ascii_lowercase[digits % 26] + string.ascii_lowercase[digits // 26])
    return "".join(out)


# --- CSV in and out, one cell at a time: the references that
# datacause.tabular's column-wise reader and writer must equal


def per_cell_infer_types(raw_columns) -> list[ColumnType]:
    """Column typing that parses every distinct present cell of a column."""
    def parses_as_real(cell):
        try:
            return math.isfinite(float(cell))
        except ValueError:
            return False

    out = []
    for col in raw_columns:
        distinct = set(col) - {None}
        numericish = sum(map(parses_as_real, distinct))
        if numericish == len(distinct):
            out.append(ColumnType.NUMERICAL)
        elif numericish == 0 and len(distinct) <= max(20.0, 0.05 * len(col)):
            out.append(ColumnType.CATEGORICAL)
        else:
            out.append(ColumnType.TEXT)
    return out


def per_cell_load_csv(path) -> Dataset:
    """``load_csv`` with ``csv.reader`` appending each cell to its column."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvParseError(f"{path}: empty file, header row required") from None
            if len(set(header)) != len(header):
                raise SchemaError(f"{path}: duplicate header")
            raw: list[list[str | None]] = [[] for _ in header]
            for row_index, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise CsvParseError(
                        f"{path}: row {row_index} has {len(row)} cells, expected {len(header)}",
                        row_index=row_index,
                    )
                for col, cell in zip(raw, row):
                    col.append(None if cell == "" or cell in MISSING_LITERALS else cell)
    except UnicodeDecodeError:
        raise CsvParseError(f"{path}: not valid UTF-8") from None
    except csv.Error as exc:
        raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
    types = per_cell_infer_types(raw)
    return Dataset(tuple(header), tuple(types), tuple(tuple(col) for col in raw))


#: stands in for NUL where csv.writer cannot write it (before Python 3.11); like
#: NUL on 3.11 and later, it is written unquoted
_NUL_STAND_IN = "\ue000"


def csv_writer_bytes(dataset: Dataset) -> bytes:
    """The bytes ``csv.writer`` writes for ``dataset``, formatting each cell
    on its own: a numerical cell as its repr, a missing one as empty. Every
    Python gives the bytes of 3.11 and later, where a field holding NUL is
    written unquoted."""
    columns = [
        ["" if v is None else repr(v) for v in col] if ctype is ColumnType.NUMERICAL
        else ["" if v is None else v for v in col]
        for col, ctype in zip(dataset.columns, dataset.types)
    ]
    header = list(dataset.attributes)
    rows = [header, *map(list, zip(*columns))]
    stand_in = sys.version_info < (3, 11)
    if stand_in:
        if any(_NUL_STAND_IN in cell for row in rows for cell in row):
            raise ValueError("a cell holds the stand-in for NUL")
        rows = [[cell.replace("\0", _NUL_STAND_IN) for cell in row] for row in rows]
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    text = out.getvalue()
    return (text.replace(_NUL_STAND_IN, "\0") if stand_in else text).encode("utf-8")


# --- counting, one call at a time: the references that datacause.tabular's
# run-shared tally must equal through count_where and profiles.joint_counts


def narrowing_count_where(dataset: Dataset, predicate: Predicate) -> int:
    """``count_where`` counted on the cells: a first term narrows the last
    term's column to its rows."""
    *narrowing, (last, target) = [(t, _target(dataset, t)) for t in predicate.terms]
    cells = dataset.column(last.attribute)
    for first, first_target in narrowing:
        cells = list(compress(cells, _satisfies(first, first_target,
                                                dataset.column(first.attribute))))
    if last.comparator == "eq":
        return cells.count(target)
    return sum(_satisfies(last, target, cells))


def filtered_joint_counts(left, right) -> Counter:
    """``joint_counts`` as a fresh ``Counter(zip(...))`` with the pairs that
    hold a missing cell deleted."""
    table = Counter(zip(left, right))
    for pair in [pair for pair in table if None in pair]:
        del table[pair]
    return table


#: the columns of the counting checks, the cells each type draws from (missing,
#: repeated, and 0.0 beside -0.0 and 1 beside 1.0), and the attributes,
#: comparators and values their terms draw from: equal targets across types,
#: text, a missing value, an int beyond the float range and an unknown attribute
COUNT_COLUMNS = (("x", ColumnType.NUMERICAL), ("y", ColumnType.NUMERICAL),
                 ("c", ColumnType.CATEGORICAL), ("d", ColumnType.CATEGORICAL),
                 ("t", ColumnType.TEXT))
COUNT_CELLS = {ColumnType.NUMERICAL: (None, 0.0, -0.0, 1, 1.0, 2.5, -3.0),
               ColumnType.CATEGORICAL: (None, "a", "b", "", "0.0"),
               ColumnType.TEXT: (None, "a", "b b", "0.0")}
COUNT_TERMS = (("x", "y", "c", "d", "t", "nope"), ("eq", "le", "ge"),
               (0.0, -0.0, 1, 1.0, True, 2.5, -3.0, "a", "b", "", "0.0", None, 10 ** 400))
#: two terms on one attribute, -0.0 targets, one pair in both orders and an
#: ordered term on a categorical column
COUNT_PREDICATES = tuple(Predicate(terms) for terms in (
    (Term("x", "le", 1.0), Term("x", "ge", -0.0)),
    (Term("c", "eq", "a"), Term("c", "eq", "a")),
    (Term("c", "eq", "a"), Term("c", "eq", "b")),
    (Term("x", "eq", -0.0),),
    (Term("x", "eq", 0), Term("x", "eq", -0.0)),
    (Term("c", "eq", "a"), Term("d", "eq", "b")),
    (Term("d", "eq", "b"), Term("c", "eq", "a")),
    (Term("y", "ge", 1), Term("c", "eq", "")),
    (Term("c", "le", 1.0), Term("x", "eq", 1.0)),
))


def _outcome(count, *args):
    try:
        return count(*args)
    except DatacauseError as exc:
        return type(exc), str(exc)


def assert_counts_match_the_references(dataset: Dataset, predicates) -> None:
    """``count_where`` and ``joint_counts`` give the references' counts, items
    and item order, or the same error, outside an engine run and inside two.
    In each run every predicate is counted twice and every pair of columns in
    both orientations, the one first in one run and the other in the other,
    so that later calls are served from the run's tallies, some transposed."""
    pairs = [(a, b) for a in dataset.attributes for b in dataset.attributes]
    expected = [_outcome(narrowing_count_where, dataset, p) for p in predicates]
    tables = [list(filtered_joint_counts(dataset.column(a), dataset.column(b)).items())
              for a, b in pairs]

    def check_counts():
        assert [_outcome(count_where, dataset, p) for p in predicates] == expected

    def check_tables():
        assert [list(joint_counts(dataset.column(a), dataset.column(b)).items())
                for a, b in pairs] == tables

    check_counts()
    check_tables()
    for order in ((check_counts, check_tables), (check_tables, check_counts)):
        with _Run(None, EngineConfig(tau=0.5)):
            for check in order * 2:
                check()
        assert TALLIES.get() is None
