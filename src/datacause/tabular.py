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
import operator
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count, repeat
from typing import Iterable, Sequence

from .errors import ColumnTypeError, CsvParseError, PredicateError, SchemaError

Cell = object  # float | str | None


class ColumnType(str, Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"
    TEXT = "text"


#: cell literals treated as missing on CSV ingestion, besides the empty cell
MISSING_LITERALS = ("NULL", "null", "NA")


class _Cells(tuple):
    """One normalized column, with its ``ctype``, the sha256 ``digest`` of
    its cells and its ``missing`` count.

    Only this module builds these, from checked cells, so a column that
    already is one is not checked again and datasets can share it.
    """

    ctype: ColumnType
    digest: bytes
    missing: int


def _column(name: str, ctype: ColumnType, col: Iterable[Cell]) -> _Cells:
    """``col`` as a column of ``ctype``: reused when it already is one."""
    return col if isinstance(col, _Cells) and col.ctype is ctype else _normalize(name, ctype, col)


def _normalize(name: str, ctype: ColumnType, col: Iterable[Cell]) -> _Cells:
    if ctype is ColumnType.NUMERICAL:
        try:  # + 0.0 folds -0.0 into 0.0, which it equals
            cells = [None if v is None else float(v) + 0.0 for v in col]
        except (TypeError, ValueError):
            raise ColumnTypeError(f"non-numeric value in numerical column {name!r}") from None
        except OverflowError:  # an int beyond the float range
            raise ColumnTypeError(f"non-finite value in numerical column {name!r}") from None
        if not all(map(math.isfinite, filter(None, cells))):  # drops missing cells and 0.0
            raise ColumnTypeError(f"non-finite value in numerical column {name!r}")
    else:
        cells = [None if v is None else str(v) for v in col]
    try:
        return _hashed(ctype, cells)
    except UnicodeEncodeError:  # a text cell holding a lone surrogate
        raise ColumnTypeError(f"{ctype.value} column {name!r} holds a cell with no UTF-8 "
                              "form") from None


def _hashed(ctype: ColumnType, cells: list) -> _Cells:
    """Cells that are already normalized, as one column: only hashed and
    their missing cells counted."""
    out = _Cells(cells)
    out.ctype = ctype
    blob = json.dumps(cells, separators=(",", ":"), ensure_ascii=False)
    out.digest = hashlib.sha256(blob.encode("utf-8")).digest()
    out.missing = sum(1 for v in cells if v is None)  # faster than list.count(None) on floats
    return out


class _Schema(tuple):
    """The checked attribute names of a dataset, with their normalized
    ``types``, each name's ``position`` and the sha256 ``state`` of the
    fingerprint after the schema.

    Only :func:`_check_schema` builds these; every dataset derived from one
    source shares its schema, so :meth:`Dataset.__post_init__` checks a
    schema once and not on every derived build.
    """

    types = None  # a tuple of names built elsewhere carries no checked types
    position: dict[str, int]
    state: "hashlib._Hash"

    def __reduce__(self):  # the hash state does not pickle; copies check again
        return _check_schema, (tuple(self), self.types, len(self))


def _column_type(name: str, ctype) -> ColumnType:
    try:
        return ColumnType(ctype)
    except ValueError:
        raise SchemaError(f"unknown column type {ctype!r} of attribute {name!r}") from None


def _check_schema(attributes, types, width: int) -> _Schema:
    if len(attributes) != len(types) or len(attributes) != width:
        raise SchemaError("attributes, types and columns must have equal length")
    seen = set()
    for name in attributes:
        if not name:
            raise SchemaError("attribute names must be non-empty")
        if name in seen:
            raise SchemaError(f"duplicate attribute name: {name!r}")
        if isinstance(name, str) and not name.isascii():
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which the fingerprint cannot hash
                raise SchemaError(f"attribute name {name!r} has no UTF-8 form") from None
        seen.add(name)
    schema = _Schema(attributes)
    schema.types = tuple(map(_column_type, attributes, types))
    schema.position = dict(zip(schema, count()))
    blob = json.dumps([[n, t.value] for n, t in zip(schema, schema.types)],
                      separators=(",", ":"), ensure_ascii=False)
    schema.state = hashlib.sha256(blob.encode("utf-8"))
    return schema


@dataclass(frozen=True)
class Dataset:
    """Ordered, typed, immutable table.

    ``columns[i]`` holds the cells of ``attributes[i]``; a ``None`` cell is
    missing, and each column carries its count of missing cells. Numerical
    cells are finite floats, all other cells are strings. The content
    fingerprint is computed eagerly so datasets with equal schema, values
    and missing mask always share it. A column taken over unchanged from
    another dataset of the same column type is neither normalized nor hashed
    again, and a dataset built from another one's ``attributes`` and
    ``types`` shares its checked schema instead of checking it again.
    """

    attributes: tuple[str, ...]
    types: tuple[ColumnType, ...]
    columns: tuple[tuple[Cell, ...], ...]
    fingerprint: str = field(default="", compare=False)

    def __post_init__(self):
        schema, columns = self.attributes, self.columns
        if type(schema) is not _Schema or schema.types != self.types:
            schema = _check_schema(self.attributes, self.types, len(columns))
        elif len(schema) != len(columns):
            raise SchemaError("attributes, types and columns must have equal length")
        lengths = set(map(len, columns))
        if len(lengths) > 1:
            raise SchemaError(f"columns have unequal lengths: {sorted(lengths)}")
        if tuple(map(getattr, columns, repeat("ctype"), repeat(None))) != schema.types:
            columns = tuple(map(_column, schema, schema.types, columns))
        state = schema.state.copy()  # column digests have a fixed length: no separator needed
        state.update(b"".join(map(operator.attrgetter("digest"), columns)))
        object.__setattr__(self, "attributes", schema)
        object.__setattr__(self, "types", schema.types)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "fingerprint", state.hexdigest())

    @property
    def row_count(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def schema(self) -> tuple[tuple[str, ColumnType], ...]:
        return tuple(zip(self.attributes, self.types))

    def index_of(self, attribute: str) -> int:
        try:
            return self.attributes.position[attribute]
        except KeyError:
            raise SchemaError(f"unknown attribute: {attribute!r}") from None

    def column(self, attribute: str) -> tuple[Cell, ...]:
        return self.columns[self.index_of(attribute)]

    def type_of(self, attribute: str) -> ColumnType:
        return self.types[self.index_of(attribute)]

    def non_missing(self, attribute: str) -> list:
        return [v for v in self.column(attribute) if v is not None]

    def with_column(self, attribute: str, cells: Sequence[Cell]) -> "Dataset":
        """New dataset with one column replaced (same schema); only the new
        column is length-checked and normalized."""
        idx = self.index_of(attribute)
        if len(cells) != self.row_count:
            raise SchemaError(f"columns have unequal lengths: {sorted({len(cells), self.row_count})}")
        cols = list(self.columns)
        cols[idx] = _column(attribute, self.types[idx], cells)
        return Dataset(self.attributes, self.types, tuple(cols))

    def take_rows(self, indices: Sequence[int]) -> "Dataset":
        """New dataset keeping exactly the given row indices, in the given order;
        the kept cells are already normalized, so they are only hashed."""
        if indices and (min(indices) < 0 or max(indices) >= self.row_count):
            raise SchemaError(f"row indices must lie in [0, {self.row_count})")
        cols = tuple(_hashed(ctype, [col[i] for i in indices])
                     for col, ctype in zip(self.columns, self.types))
        return Dataset(self.attributes, self.types, cols)

    def same_schema(self, other: "Dataset") -> bool:
        return self.attributes == other.attributes and self.types == other.types


def from_columns(spec: Sequence[tuple[str, ColumnType, Sequence[Cell]]]) -> Dataset:
    """Build a dataset from (name, type, cells) triples; columns of a dataset are reused."""
    names = tuple(s[0] for s in spec)
    types = tuple(s[1] for s in spec)
    cols = tuple(s[2] if isinstance(s[2], _Cells) else tuple(s[2]) for s in spec)
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

    Each column is decided on its distinct present cells, and parsing stops
    once the type is settled: the numerical test stops at the first cell
    that is no real; a column past the distinct-count cutoff is then text
    with no further parse; and the categorical test stops at the first cell
    that is a real.
    """
    out = []
    for col in raw_columns:
        distinct = set(col) - {None}  # each decision holds for every cell iff for these
        if all(map(_parses_as_real, distinct)):
            out.append(ColumnType.NUMERICAL)
        elif (len(distinct) <= max(20.0, 0.05 * len(col))
              and not any(map(_parses_as_real, distinct))):
            out.append(ColumnType.CATEGORICAL)
        else:
            out.append(ColumnType.TEXT)
    return out


#: each cell that ingestion reads as missing, mapped to ``None``
_MISSING = dict.fromkeys(("", *MISSING_LITERALS))


def load_csv(path) -> Dataset:
    """Load an RFC-4180 CSV file with a mandatory header row.

    Empty cells and ``MISSING_LITERALS`` become missing. Types are inferred
    per :func:`infer_types`. A leading byte-order mark is skipped; non-UTF-8
    input raises :class:`CsvParseError`.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvParseError(f"{path}: empty file, header row required") from None
            if len(set(header)) != len(header):
                raise SchemaError(f"{path}: duplicate header")
            rows = []  # each checked as it is read, before the reader parses the next
            for row_index, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise CsvParseError(
                        f"{path}: row {row_index} has {len(row)} cells, expected {len(header)}",
                        row_index=row_index,
                    )
                rows.append(row)
    except UnicodeDecodeError:
        raise CsvParseError(f"{path}: not valid UTF-8") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
    raw = [tuple(map(_MISSING.get, col, col)) for col in zip(*rows)] or [()] * len(header)
    return Dataset(tuple(header), tuple(infer_types(raw)), tuple(raw))


def _needs_quotes(text: str) -> bool:
    """Whether ``csv.writer`` quotes a field holding ``text``, doubling its quotes."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _fields(cells: list[str]) -> list[str]:
    """The fields of ``cells`` as ``csv.writer`` writes them; a column with
    nothing to quote is tested once and not per cell."""
    if not _needs_quotes("".join(cells)):
        return cells
    return ['"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t for t in cells]


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as UTF-8 CSV; missing cells become empty cells.

    The bytes are those of ``csv.writer`` on Python 3.11 and later, on
    every Python: a text cell holding NUL is written unquoted.
    """
    fields = []
    for col, ctype in zip(dataset.columns, dataset.types):
        cells = map({None: ""}.get, col, col) if col.missing else col
        # str of a float is its repr, and other cells are already text
        fields.append(_fields(list(map(str, cells) if ctype is ColumnType.NUMERICAL else cells)))
    lines = [",".join(_fields(list(map(str, dataset.attributes)))), *map(",".join, zip(*fields))]
    if len(fields) == 1:  # a row of one empty field is written as "", not as an empty row
        lines = [line or '""' for line in lines]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# --- tallies --------------------------------------------------------------

#: the tallies an engine run has counted, keyed by the digests of their
#: columns; ``None`` outside a run. The run sets it and resets it on exit, so
#: nothing counted outlives the run.
TALLIES: ContextVar[dict[tuple[bytes, ...], Counter] | None] = ContextVar("TALLIES",
                                                                         default=None)


def tally(*columns: Sequence[Cell]) -> Counter:
    """``Counter(zip(*columns))``: the rows taking each value tuple of
    ``columns``, in the order each tuple first occurs.

    Within a run (:data:`TALLIES`), the tally of dataset columns is counted
    once and then shared: equal digests mean equal cells, and a pair's tally
    is served transposed from its reverse, which keeps the first-occurrence
    order. So the result must never be changed. A column that is a plain
    list has no digest and is always counted.
    """
    memo = TALLIES.get()
    if memo is None or not all(isinstance(c, _Cells) for c in columns):
        return Counter(zip(*columns))
    key = tuple(c.digest for c in columns)
    table = memo.get(key)
    if table is None:
        reverse = memo.get(key[::-1]) if len(key) == 2 else None
        table = memo[key] = (Counter(zip(*columns)) if reverse is None
                             else Counter({(b, a): c for (a, b), c in reverse.items()}))
    return table


# --- predicates -----------------------------------------------------------

#: comparator -> (its symbol in a label, the test a present cell passes)
_COMPARATORS = {"eq": ("=", operator.eq), "le": ("<=", operator.le), "ge": (">=", operator.ge)}
#: characters that separate the parts of a label; a name or value holding one
#: is written as a JSON string, so that distinct constraints get distinct labels
_LABEL_SEPARATORS = frozenset('",()&=<>')


def label_text(value: Cell) -> str:
    """``value`` as a label writes it: as is, or as a JSON string when it
    holds one of ``",()&=<>``."""
    text = str(value)
    return text if _LABEL_SEPARATORS.isdisjoint(text) else json.dumps(text, ensure_ascii=False)


@dataclass(frozen=True)
class Term:
    attribute: str
    comparator: str  # eq | le | ge
    value: Cell
    #: the value as its label writes it; it takes part in equality, so that equal
    #: terms label alike: 1, 1.0 and True differ, and so do 0.0 and -0.0
    value_text: str = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.comparator, str) or self.comparator not in _COMPARATORS:
            raise PredicateError(f"unknown comparator {self.comparator!r}")
        try:
            object.__setattr__(self, "value_text", str(self.value))
        except ValueError as exc:  # an int past the interpreter's int-to-text digit limit
            raise PredicateError(f"value compared with {self.attribute!r} has no text form: "
                                 f"{exc}") from None

    def label(self) -> str:
        return (f"{label_text(self.attribute)}{_COMPARATORS[self.comparator][0]}"
                f"{label_text(self.value_text)}")


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


def _target(dataset: Dataset, term: Term) -> Cell:
    """The float or text that the cells of ``term``'s column are compared with."""
    ctype = dataset.type_of(term.attribute)
    if ctype is not ColumnType.NUMERICAL:
        if term.comparator != "eq":
            raise ColumnTypeError(f"{term.label()}: ordered comparison needs a numerical column")
        if not isinstance(term.value, str):
            raise ColumnTypeError(f"{term.label()}: {ctype.value} column compared against "
                                  f"{term.value!r}")
        return term.value_text
    if not isinstance(term.value, (int, float)):
        raise ColumnTypeError(f"{term.label()}: numerical column compared against {term.value!r}")
    try:
        return float(term.value)
    except OverflowError:  # an int beyond the float range
        raise ColumnTypeError(f"numerical column {term.attribute!r} compared against an "
                              "int beyond the float range") from None


def _satisfies(term: Term, target: Cell, cells: Sequence[Cell]) -> Iterable[bool]:
    """Per cell of ``cells`` (of the term's column), whether it satisfies
    ``term``, whose target is ``target``; a missing cell never does."""
    compare = _COMPARATORS[term.comparator][1]
    if compare is operator.eq:  # no target equals a missing cell
        return map(compare, cells, repeat(target))
    return (v is not None and compare(v, target) for v in cells)


def select_where(dataset: Dataset, predicate: Predicate) -> set[int]:
    """Indices of rows satisfying every term; missing tested cells never satisfy."""
    targets = [_target(dataset, term) for term in predicate.terms]
    return set.intersection(*(
        set(compress(count(), _satisfies(t, target, dataset.column(t.attribute))))
        for t, target in zip(predicate.terms, targets)))


def count_where(dataset: Dataset, predicate: Predicate) -> int:
    """``len(select_where(dataset, predicate))``, read off the :func:`tally`
    of the predicate's columns: the rows of every value tuple that satisfies
    each term, where a missing cell never does. A predicate of equality terms
    on distinct columns is one lookup."""
    attributes = predicate.attributes()
    tests = [(attributes.index(t.attribute), _COMPARATORS[t.comparator][1], _target(dataset, t))
             for t in predicate.terms]
    table = tally(*map(dataset.column, attributes))
    if len(tests) == len(attributes) and all(test is operator.eq for _, test, _ in tests):
        return table[tuple(target for _, _, target in tests)]
    return sum(c for values, c in table.items()
               if all(values[i] is not None and test(values[i], target)
                      for i, test, target in tests))


def unit_scale(values: Sequence[float]) -> float:
    """Power of two that brings the largest magnitude in ``values`` into [0.5, 1).

    Scaling by it is exact, so moments of the scaled values carry the bits of
    the originals' wherever those neither overflow nor underflow; the scaled
    sums and squares cannot overflow, and a nonzero variance cannot underflow.
    """
    return math.ldexp(1.0, min(1023, -math.frexp(max(map(abs, values)))[1]))


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; where the plain sum overflows, it is taken on the
    values scaled by :func:`unit_scale`, so a finite input has a finite mean."""
    m = sum(values) / len(values)
    if math.isinf(m):
        unit = unit_scale(values)
        m = sum(v * unit for v in values) / len(values) / unit
    return m


def moments(values: Iterable[float]) -> tuple[float, list[float], float, float]:
    """``(unit, scaled, mean, squares)``: the :func:`unit_scale` of ``values``,
    the values times it, and the mean of those and the sum of their squared
    deviations from it, which cannot overflow."""
    scaled = list(values)
    unit = unit_scale(scaled)
    scaled = [v * unit for v in scaled]
    m = sum(scaled) / len(scaled)
    return unit, scaled, m, sum((v - m) ** 2 for v in scaled)


def population_stddev(values: Iterable[float]) -> float:
    """Population standard deviation, taken on the scaled :func:`moments`."""
    unit, scaled, _, squares = moments(values)
    return math.sqrt(squares / len(scaled)) / unit
