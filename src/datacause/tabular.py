"""Immutable columnar datasets with CSV ingestion and row predicates.

A :class:`Dataset` is a fixed table of typed columns. Missing cells are
represented by ``None`` in every column type. Instances never mutate;
helpers return new datasets instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import ColumnTypeError, CsvParseError, PredicateError, SchemaError

Cell = object  # float | str | None


class ColumnType(str, Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"
    TEXT = "text"


#: cell literals treated as missing on CSV ingestion, besides the empty cell
MISSING_LITERALS = ("NULL", "null", "NA")


@dataclass(frozen=True)
class Dataset:
    """Ordered, typed, immutable table.

    ``columns[i]`` holds the cells of ``attributes[i]``; a ``None`` cell is
    missing. Numerical cells are finite floats, all other cells are strings.
    The content fingerprint is computed eagerly so datasets with equal
    schema, values and missing mask always share it.
    """

    attributes: tuple[str, ...]
    types: tuple[ColumnType, ...]
    columns: tuple[tuple[Cell, ...], ...]
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.attributes) != len(self.types) or len(self.attributes) != len(self.columns):
            raise SchemaError("attributes, types and columns must have equal length")
        seen = set()
        for name in self.attributes:
            if not name:
                raise SchemaError("attribute names must be non-empty")
            if name in seen:
                raise SchemaError(f"duplicate attribute name: {name!r}")
            seen.add(name)
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "types", tuple(ColumnType(t) for t in self.types))
        lengths = {len(col) for col in self.columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have unequal lengths: {sorted(lengths)}")
        normalized = []
        for name, ctype, col in zip(self.attributes, self.types, self.columns):
            cells = []
            for value in col:
                if value is None:
                    cells.append(None)
                elif ctype is ColumnType.NUMERICAL:
                    value = float(value) + 0.0  # folds -0.0 into 0.0, which it equals
                    if not math.isfinite(value):
                        raise ColumnTypeError(f"non-finite value in numerical column {name!r}")
                    cells.append(value)
                else:
                    cells.append(str(value))
            normalized.append(tuple(cells))
        object.__setattr__(self, "columns", tuple(normalized))
        object.__setattr__(self, "fingerprint", self._compute_fingerprint())

    def _compute_fingerprint(self) -> str:
        payload = {
            "schema": [[n, t.value] for n, t in zip(self.attributes, self.types)],
            "columns": [list(col) for col in self.columns],
        }
        blob = json.dumps(payload, separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def schema(self) -> tuple[tuple[str, ColumnType], ...]:
        return tuple(zip(self.attributes, self.types))

    def index_of(self, attribute: str) -> int:
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise SchemaError(f"unknown attribute: {attribute!r}") from None

    def column(self, attribute: str) -> tuple[Cell, ...]:
        return self.columns[self.index_of(attribute)]

    def type_of(self, attribute: str) -> ColumnType:
        return self.types[self.index_of(attribute)]

    def non_missing(self, attribute: str) -> list:
        return [v for v in self.column(attribute) if v is not None]

    def row(self, i: int) -> tuple[Cell, ...]:
        return tuple(col[i] for col in self.columns)

    def with_column(self, attribute: str, cells: Sequence[Cell]) -> "Dataset":
        """New dataset with one column replaced (same schema)."""
        idx = self.index_of(attribute)
        cols = list(self.columns)
        cols[idx] = tuple(cells)
        return Dataset(self.attributes, self.types, tuple(cols))

    def take_rows(self, indices: Sequence[int]) -> "Dataset":
        """New dataset keeping exactly the given row indices, in the given order."""
        cols = tuple(tuple(col[i] for i in indices) for col in self.columns)
        return Dataset(self.attributes, self.types, cols)

    def append_rows(self, rows: Sequence[Sequence[Cell]]) -> "Dataset":
        cols = [list(col) for col in self.columns]
        for r in rows:
            if len(r) != len(cols):
                raise SchemaError("appended row arity does not match schema")
            for col, value in zip(cols, r):
                col.append(value)
        return Dataset(self.attributes, self.types, tuple(tuple(c) for c in cols))

    def same_schema(self, other: "Dataset") -> bool:
        return self.attributes == other.attributes and self.types == other.types


def from_columns(spec: Sequence[tuple[str, ColumnType, Sequence[Cell]]]) -> Dataset:
    """Build a dataset from (name, type, cells) triples."""
    names = tuple(s[0] for s in spec)
    types = tuple(s[1] for s in spec)
    cols = tuple(tuple(s[2]) for s in spec)
    return Dataset(names, types, cols)


def _parses_as_real(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def infer_types(raw_columns: Sequence[Sequence[str | None]]) -> list[ColumnType]:
    """Infer a column type from raw string cells (``None`` marks missing).

    Numerical wins when every non-missing cell parses as a finite real. A
    column where only some cells parse as reals is mixed content and falls
    through to text. Otherwise the column is categorical while its distinct
    count stays below ``max(20, 5% of rows)`` and text beyond that.
    """
    out = []
    for col in raw_columns:
        present = [c for c in col if c is not None]
        numericish = sum(1 for c in present if _parses_as_real(c))
        if numericish == len(present):
            out.append(ColumnType.NUMERICAL)
            continue
        cutoff = max(20.0, 0.05 * len(col))
        if numericish == 0 and len(set(present)) <= cutoff:
            out.append(ColumnType.CATEGORICAL)
        else:
            out.append(ColumnType.TEXT)
    return out


def load_csv(path) -> Dataset:
    """Load an RFC-4180 CSV file with a mandatory header row.

    Empty cells and ``MISSING_LITERALS`` become missing. Types are inferred
    per :func:`infer_types`.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    types = infer_types(raw)
    return Dataset(tuple(header), tuple(types), tuple(tuple(col) for col in raw))


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as UTF-8 CSV; missing cells become empty cells."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.attributes)
        for i in range(dataset.row_count):
            row = []
            for col, ctype in zip(dataset.columns, dataset.types):
                v = col[i]
                if v is None:
                    row.append("")
                elif ctype is ColumnType.NUMERICAL:
                    row.append(repr(v))
                else:
                    row.append(v)
            writer.writerow(row)


# --- predicates -----------------------------------------------------------

_COMPARATORS = ("eq", "le", "ge")
_COMPARATOR_SYMBOL = {"eq": "=", "le": "<=", "ge": ">="}


@dataclass(frozen=True)
class Term:
    attribute: str
    comparator: str  # eq | le | ge
    value: Cell

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise PredicateError(f"unknown comparator {self.comparator!r}")

    def label(self) -> str:
        return f"{self.attribute}{_COMPARATOR_SYMBOL[self.comparator]}{self.value}"


@dataclass(frozen=True)
class Predicate:
    """Conjunction of at most two comparison terms."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        if not 1 <= len(self.terms) <= 2:
            raise PredicateError("a predicate holds one or two terms")
        object.__setattr__(self, "terms", tuple(self.terms))

    def attributes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(t.attribute for t in self.terms))

    def label(self) -> str:
        return "&".join(t.label() for t in self.terms)


def _check_term(dataset: Dataset, term: Term) -> None:
    ctype = dataset.type_of(term.attribute)
    if term.comparator in ("le", "ge") and ctype is not ColumnType.NUMERICAL:
        raise ColumnTypeError(f"{term.label()}: ordered comparison needs a numerical column")
    if term.comparator == "eq" and ctype is ColumnType.NUMERICAL and not isinstance(term.value, (int, float)):
        raise ColumnTypeError(f"{term.label()}: numerical column compared against {term.value!r}")


def _term_holds(value: Cell, term: Term, ctype: ColumnType) -> bool:
    if value is None:
        return False
    if term.comparator == "eq":
        if ctype is ColumnType.NUMERICAL:
            return value == float(term.value)
        return value == str(term.value)
    if term.comparator == "le":
        return value <= float(term.value)
    return value >= float(term.value)


def select_where(dataset: Dataset, predicate: Predicate) -> set[int]:
    """Indices of rows satisfying every term; missing tested cells never satisfy."""
    for term in predicate.terms:
        _check_term(dataset, term)
    cols = {t.attribute: dataset.column(t.attribute) for t in predicate.terms}
    ctypes = {t.attribute: dataset.type_of(t.attribute) for t in predicate.terms}
    out = set()
    for i in range(dataset.row_count):
        if all(_term_holds(cols[t.attribute][i], t, ctypes[t.attribute]) for t in predicate.terms):
            out.add(i)
    return out


def population_stddev(values: Iterable[float]) -> float:
    vals = list(values)
    m = sum(vals) / len(vals)
    return math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals))
