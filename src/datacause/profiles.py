"""Data profiles: discovery from a dataset and violation scoring.

Each profile kind concretizes a constraint the source dataset satisfies
exactly (zero violation), together with a formula measuring how much
another dataset breaks it. Violation scores always land in [0, 1].
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from itertools import combinations, groupby, product
from typing import Iterator, Sequence

from .errors import (
    ColumnTypeError,
    DegenerateInputError,
    DomainError,
    SchemaError,
)
from .tabular import (
    ColumnType,
    Dataset,
    Predicate,
    Term,
    count_where,
    label_text,
    moments,
    tally,
)

_ZERO_SNAP = 1e-12  # absorbs float roundoff so satisfied profiles score exactly 0.0

OUTLIER_K = 1.5  # stddevs from the mean beyond which a value is an outlier
MIN_SUPPORT = 0.05  # least frequency, in both datasets, of a value in a selectivity predicate
SELECTIVITY_GAP = 0.1  # least selectivity difference that makes a predicate discriminative
SIGNIFICANCE_LEVEL = 0.05  # p-value a dependence must reach on the failing dataset
PARAM_TOLERANCE = 1e-9  # largest difference of two learned float parameters deemed equal


class ProfileKind(str, Enum):
    DOMAIN_CATEGORICAL = "domain_categorical"
    DOMAIN_NUMERICAL = "domain_numerical"
    DOMAIN_TEXT = "domain_text"
    OUTLIER = "outlier_rate"
    MISSING = "missing_rate"
    SELECTIVITY = "selectivity"
    CHI2 = "chi_square_dependence"
    PCC = "pearson_dependence"


class Profile:
    """Base class; concrete kinds are the frozen dataclasses below.

    Each kind scores itself in ``_score``, which :func:`violation` calls
    once the dataset is known to be non-empty. A profile's label names the
    constraint it is, leaving out what it learned: two profiles of one kind
    on the same attributes or predicate share a label, and no other two do.
    """

    kind: ProfileKind

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    def label(self) -> str:
        return f"{self.kind.value}({','.join(map(label_text, self.attributes()))})"

    @property
    def sort_key(self) -> tuple:
        return (self.attributes(), self.kind.value, self.label())

    def same_parameters(self, other: "Profile") -> bool:
        """Whether ``other``, a profile with this one's label, has the same
        fields: floats within ``PARAM_TOLERANCE``, others equal. Discovery
        writes a dependence's columns in schema order, so that two datasets'
        twins agree on them."""
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, float) or isinstance(b, float):
                if abs(float(a) - float(b)) > PARAM_TOLERANCE:
                    return False
            elif a != b:
                return False
        return True

    def significant(self, dataset: Dataset) -> bool:
        """Whether ``dataset`` shows the behaviour this profile bounds
        strongly enough to blame it; only dependence kinds test this."""
        return True

    def to_json_dict(self) -> dict:
        return {"kind": self.kind.value,
                **{f.name: _plain(getattr(self, f.name)) for f in fields(self)}}

    def _score(self, dataset: Dataset) -> float:
        raise NotImplementedError


def _plain(value):
    """JSON-ready form of a profile field."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Predicate):
        return [{"attribute": t.attribute, "comparator": t.comparator, "value": t.value}
                for t in value.terms]
    return value


class RowCountBound(Profile):
    """At most a ``threshold`` fraction of rows may break the profile."""

    threshold: float
    column_type = None  # the ColumnType ``attribute`` must have, if any

    def offending(self, dataset: Dataset) -> int:
        """Number of rows breaking the profile."""
        raise NotImplementedError

    def _score(self, dataset):
        if self.column_type is not None:
            _require_type(dataset, self.attribute, self.column_type, self.label())
        return _thresholded(self.offending(dataset), self.threshold, dataset.row_count)


class DomainBound(RowCountBound):
    """Every present value lies in the learned domain: no row may break it."""

    threshold = 0.0


@dataclass(frozen=True)
class DomainCategorical(DomainBound):
    attribute: str
    values: frozenset[str]

    kind = ProfileKind.DOMAIN_CATEGORICAL
    column_type = ColumnType.CATEGORICAL

    def __post_init__(self):
        if not self.values:
            raise DomainError("categorical domain must be non-empty")

    def offending(self, dataset):
        return sum(1 for v in dataset.column(self.attribute)
                   if v is not None and v not in self.values)


@dataclass(frozen=True)
class DomainNumerical(DomainBound):
    attribute: str
    lower: float
    upper: float

    kind = ProfileKind.DOMAIN_NUMERICAL
    column_type = ColumnType.NUMERICAL

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError("lower bound above upper bound")

    def offending(self, dataset):
        return sum(1 for v in dataset.column(self.attribute)
                   if v is not None and not self.lower <= v <= self.upper)


@dataclass(frozen=True)
class DomainText(DomainBound):
    """Shape constraint on a text column: run-class pattern plus length bounds."""

    attribute: str
    pattern: tuple[str, ...] | None  # run classes, None matches anything
    min_len: int
    max_len: int

    kind = ProfileKind.DOMAIN_TEXT
    column_type = ColumnType.TEXT

    def __post_init__(self):
        if self.min_len > self.max_len:
            raise DomainError("min length above max length")
        if self.pattern is not None and not set(self.pattern) <= _RUN_REGEX.keys():
            raise DomainError(f"text pattern classes must be {', '.join(_RUN_REGEX)}")

    def conforms(self, value: str) -> bool:
        return (self.min_len <= len(value) <= self.max_len
                and matches_pattern(value, self.pattern))

    def offending(self, dataset):
        return sum(1 for v in dataset.column(self.attribute)
                   if v is not None and not self.conforms(v))


@dataclass(frozen=True)
class OutlierBound(RowCountBound):
    """At most a ``threshold`` fraction of values may sit more than
    ``k`` population standard deviations from the column mean."""

    attribute: str
    k: float
    threshold: float

    kind = ProfileKind.OUTLIER
    column_type = ColumnType.NUMERICAL

    def offending(self, dataset):
        return sum(outlier_flags(dataset.column(self.attribute), self.k))


@dataclass(frozen=True)
class MissingRate(RowCountBound):
    attribute: str
    threshold: float

    kind = ProfileKind.MISSING

    def offending(self, dataset):
        return dataset.column(self.attribute).missing


@dataclass(frozen=True)
class SelectivityBound(RowCountBound):
    predicate: Predicate
    threshold: float

    kind = ProfileKind.SELECTIVITY

    def attributes(self):
        return self.predicate.attributes()

    def label(self):
        return f"{self.kind.value}({self.predicate.label()})"

    def offending(self, dataset):
        return count_where(dataset, self.predicate)


@dataclass(frozen=True)
class DependenceBound(Profile):
    """A dependence statistic between two distinct columns stays below ``limit``."""

    left: str
    right: str
    limit: float

    def __post_init__(self):
        if self.left == self.right:
            raise DomainError("dependence profile needs two distinct attributes")

    def attributes(self):
        return tuple(sorted((self.left, self.right)))

    def significant(self, dataset):
        return self._p_value(dataset) <= SIGNIFICANCE_LEVEL

    def _p_value(self, dataset: Dataset) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ChiSquareBound(DependenceBound):
    """Chi-square statistic between two categorical columns stays below ``limit``."""

    kind = ProfileKind.CHI2

    def _score(self, dataset):
        return self.violation_at(chi_square_statistic(dataset, self.left, self.right))

    def violation_at(self, stat: float) -> float:
        """The violation of a dataset whose chi-square statistic is ``stat``."""
        return _snap_unit(1.0 - math.exp(-max(0.0, stat - self.limit)))

    def _p_value(self, dataset):
        table = _categorical_table(dataset, self.left, self.right)
        rows, cols = len({lv for lv, _ in table}), len({rv for _, rv in table})
        if rows < 2 or cols < 2:
            return 1.0
        return chi_square_p_value(chi_square_from_counts(table), (rows - 1) * (cols - 1))


@dataclass(frozen=True)
class CorrelationBound(DependenceBound):
    """Absolute Pearson correlation between two numerical columns stays below ``limit``."""

    kind = ProfileKind.PCC

    def _score(self, dataset):
        return self.violation_at(pearson_correlation(dataset, self.left, self.right))

    def violation_at(self, r: float) -> float:
        """The violation of a dataset whose Pearson correlation is ``r``."""
        a = abs(self.limit)
        if a >= 1.0:
            return 0.0
        return _snap_unit(max(0.0, (abs(r) - a) / (1.0 - a)))

    def _p_value(self, dataset):
        pairs = sum(1 for x, y in zip(dataset.column(self.left), dataset.column(self.right))
                    if x is not None and y is not None)
        if pairs < 3:
            return 1.0
        return pearson_p_value(pearson_correlation(dataset, self.left, self.right), pairs)


# --- text patterns ---------------------------------------------------------


def _char_class(ch: str) -> str:
    return "digits" if ch.isdigit() else "letters" if ch.isalpha() else "other"


def text_runs(value: str) -> Iterator[tuple[str, str]]:
    """The (class, text) runs of a string: each digit run, each letter run
    and each other character."""
    for cls, chars in groupby(value, _char_class):
        if cls == "other":
            yield from ((cls, ch) for ch in chars)
        else:
            yield cls, "".join(chars)


def text_signature(value: str) -> tuple[str, ...]:
    """Run-class sequence of a string: digit runs, letter runs, other chars."""
    return tuple(cls for cls, _ in text_runs(value))


#: one capture group per run class; a lookahead ends each digit or letter
#: run at its last character, so that a pattern with two adjacent runs of one
#: class never matches, just as text_signature never returns one
_RUN_REGEX = {"digits": "([0-9]+)(?![0-9])", "letters": "([A-Za-z]+)(?![A-Za-z])",
              "other": "([^A-Za-z0-9])"}


@functools.cache  # keyed by signatures only, never by data
def shape_regex(pattern: tuple[str, ...]) -> re.Pattern:
    """Regex that fullmatches an ASCII string iff its signature is ``pattern``;
    group k is the string's k-th run.

    Only for ASCII: ``str.isdigit`` and ``str.isalpha`` also accept
    characters such as ``²`` and ``é``, which the regex classes leave out.
    """
    return re.compile("".join(_RUN_REGEX[c] for c in pattern))


def matches_pattern(value: str, pattern: tuple[str, ...] | None) -> bool:
    if pattern is None:
        return True
    if value.isascii():
        return shape_regex(pattern).fullmatch(value) is not None
    return text_signature(value) == pattern


# --- violation -------------------------------------------------------------


def _snap_unit(x: float) -> float:
    if x <= _ZERO_SNAP:
        return 0.0
    return min(x, 1.0)


def _thresholded(count: int, threshold: float, n: int) -> float:
    # count of offending rows allowed up to threshold * n; beyond that the
    # excess is normalized by the remaining headroom
    if threshold >= 1.0:
        return 0.0
    return _snap_unit((count - threshold * n) / (n * (1.0 - threshold)))


def _require_type(dataset: Dataset, attribute: str, ctype: ColumnType, what: str) -> None:
    actual = dataset.type_of(attribute)
    if actual is not ctype:
        raise ColumnTypeError(
            f"{what} expects a {ctype.value} column, {attribute!r} is {actual.value}")


def outlier_flags(values: Sequence[float | None], k: float) -> list[bool]:
    """Flag non-missing values more than k population stddevs from the mean."""
    present = [v for v in values if v is not None]
    if not present:
        return [False] * len(values)
    unit, _, mean, squares = moments(present)
    sd = math.sqrt(squares / len(present))
    if sd == 0.0:
        return [False] * len(values)
    return [v is not None and abs(v * unit - mean) > k * sd for v in values]


def violation(dataset: Dataset, profile: Profile) -> float:
    """How much ``dataset`` breaks ``profile``, clamped to [0, 1].

    Zero means full compliance; profiles discovered from a dataset score
    exactly zero on it.
    """
    if dataset.row_count == 0:
        raise DegenerateInputError("violation of an empty dataset")
    return profile._score(dataset)


# --- dependence statistics --------------------------------------------------


def joint_counts(left: Sequence, right: Sequence) -> Counter:
    """Counts of the (left, right) cell pairs where both cells are present, in
    the order each pair first occurs: the :func:`~datacause.tabular.tally` of
    the two columns, which a run counts once, less the pairs holding a missing
    cell. The result may be that shared tally, so it must never be changed."""
    table = tally(left, right)
    if any(None in pair for pair in table):
        return Counter({pair: c for pair, c in table.items() if None not in pair})
    return table


def contingency_table(dataset: Dataset, a_j: str, a_k: str) -> dict[tuple[str, str], int]:
    """Joint counts over rows where both attributes are present."""
    return joint_counts(dataset.column(a_j), dataset.column(a_k))


def chi_square_from_counts(table: dict[tuple[str, str], int]) -> float:
    n = sum(table.values())
    if n == 0:
        return 0.0
    row_totals, col_totals = Counter(), Counter()
    for (lv, rv), c in table.items():
        row_totals[lv] += c
        col_totals[rv] += c
    if len(row_totals) < 2 or len(col_totals) < 2:
        return 0.0
    stat = 0.0
    for lv, rt in row_totals.items():
        for rv, ct in col_totals.items():
            expected = rt * ct / n
            observed = table.get((lv, rv), 0)
            stat += (observed - expected) ** 2 / expected
    return stat


def _categorical_table(dataset: Dataset, a_j: str, a_k: str) -> dict[tuple[str, str], int]:
    for a in (a_j, a_k):
        _require_type(dataset, a, ColumnType.CATEGORICAL, "chi-square")
    return contingency_table(dataset, a_j, a_k)


def chi_square_statistic(dataset: Dataset, a_j: str, a_k: str) -> float:
    """Pearson chi-square over the observed contingency table.

    Rows missing either attribute are excluded; fewer than two distinct
    values on either side degenerates to 0.
    """
    return chi_square_from_counts(_categorical_table(dataset, a_j, a_k))


def pearson_correlation(dataset: Dataset, a_j: str, a_k: str) -> float:
    """Pearson correlation over pairwise-complete rows, 0 on zero variance."""
    for a in (a_j, a_k):
        _require_type(dataset, a, ColumnType.NUMERICAL, "correlation")
    xs, ys = [], []
    for x, y in zip(dataset.column(a_j), dataset.column(a_k)):
        if x is not None and y is not None:
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise DegenerateInputError(
            f"correlation of {a_j!r} and {a_k!r} needs at least 2 complete pairs")
    _, xs, mx, vx = moments(xs)
    _, ys, my, vy = moments(ys)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    r = cov / math.sqrt(vx * vy)
    if r > 1.0 - _ZERO_SNAP:
        return 1.0
    if r < -1.0 + _ZERO_SNAP:
        return -1.0
    return r


# --- tail probabilities (closed forms for integer degrees of freedom) ------


def chi_square_p_value(chi2: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    Abramowitz & Stegun 26.4.4-5: with h = chi2/2 and s = (dof mod 2)/2,
    Q = erfc(sqrt(h))*[dof odd] + sum over j < dof//2 of h^(s+j) e^-h / Gamma(s+j+1).
    """
    if not isinstance(dof, int):
        raise DomainError(f"degrees of freedom must be an int, got {dof!r}")
    if not 0.0 <= chi2 < math.inf:
        raise DomainError("chi-square statistic must be finite and non-negative")
    if dof < 1:
        raise DomainError("degrees of freedom must be positive")
    if chi2 == 0.0:
        return 1.0
    h = chi2 / 2.0
    s = (dof % 2) / 2.0
    log_h = math.log(h)
    # each term in log space, so that e^-h cannot underflow for large h
    tail = sum(math.exp((s + j) * log_h - h - math.lgamma(s + j + 1.0)) for j in range(dof // 2))
    if dof % 2:
        tail += math.erfc(math.sqrt(h))
    return min(1.0, tail)


def pearson_p_value(r: float, n_pairs: int) -> float:
    """Two-sided p-value of a Pearson correlation under the null of independence.

    This is 1 - A(t|dof) of the Student t with dof = n_pairs - 2, from the
    finite series of Abramowitz & Stegun 26.7.3-4, where sin(theta) = |r|
    and cos(theta)^2 = 1 - r^2.
    """
    if not isinstance(n_pairs, int) or math.isnan(r):
        raise DomainError(f"needs a correlation and an int pair count, got {r!r}, {n_pairs!r}")
    dof = n_pairs - 2
    if dof < 1:
        return 1.0
    if abs(r) >= 1.0:
        return 0.0
    sin, cos_sq = abs(r), 1.0 - r * r
    s = (dof % 2) / 2.0
    series, term = 0.0, 1.0
    for k in range(dof // 2):
        series += term
        term *= cos_sq * (k + s + 0.5) / (k + s + 1.0)
    if dof % 2:
        cos = math.sqrt(cos_sq)
        a = (math.atan2(sin, cos) + sin * cos * series) * 2.0 / math.pi
    else:
        a = sin * series
    return max(0.0, 1.0 - a)  # a >= 0; rounding can take it just past 1 as |r| nears 1


# --- discovery --------------------------------------------------------------


def discover_profiles(dataset: Dataset, predicates: Sequence[Predicate] = ()) -> list[Profile]:
    """Minimal concretized profiles satisfied by ``dataset``, one per
    applicable (kind, attribute) combination.

    Selectivity profiles are emitted for the given predicates, typically
    produced by :func:`enumerate_selectivity_predicates`.
    """
    n = dataset.row_count
    if n == 0:
        raise DegenerateInputError("cannot profile an empty dataset")
    out: list[Profile] = []
    for attribute, ctype in dataset.schema:
        col = dataset.column(attribute)
        out.append(MissingRate(attribute, col.missing / n))
        present = [v for v in col if v is not None]
        if not present:
            continue
        if ctype is ColumnType.CATEGORICAL:
            out.append(DomainCategorical(attribute, frozenset(present)))
        elif ctype is ColumnType.NUMERICAL:
            out.append(DomainNumerical(attribute, min(present), max(present)))
            flagged = sum(outlier_flags(col, OUTLIER_K))
            out.append(OutlierBound(attribute, OUTLIER_K, flagged / n))
        else:
            pattern = text_signature(present[0])
            if all(map(str.isascii, present)):
                shared = all(map(shape_regex(pattern).fullmatch, present))
            else:
                shared = all(text_signature(v) == pattern for v in present)
            out.append(DomainText(attribute, pattern if shared else None,
                                  min(map(len, present)), max(map(len, present))))
    for predicate in predicates:
        out.append(SelectivityBound(predicate, count_where(dataset, predicate) / n))
    for ctype, bound, statistic in (
            (ColumnType.CATEGORICAL, ChiSquareBound, chi_square_statistic),
            (ColumnType.NUMERICAL, CorrelationBound, pearson_correlation)):
        for a_j, a_k in combinations([a for a, t in dataset.schema if t is ctype], 2):
            try:
                stat = statistic(dataset, a_j, a_k)
            except DegenerateInputError:
                continue
            out.append(bound(a_j, a_k, stat))
    out.sort(key=lambda p: p.sort_key)
    return out


def enumerate_selectivity_predicates(d_pass: Dataset, d_fail: Dataset) -> list[Predicate]:
    """Equality predicates (up to two terms) whose satisfying fraction differs
    between the two datasets by at least ``SELECTIVITY_GAP``.

    Only values reaching ``MIN_SUPPORT`` frequency in both datasets are
    eligible; this keeps the enumeration anchored on content the datasets
    share rather than on wholesale value replacements, which the domain
    profiles already capture.
    """
    if not d_pass.same_schema(d_fail):
        raise SchemaError("selectivity enumeration needs a shared schema")
    if d_pass.row_count == 0 or d_fail.row_count == 0:
        return []
    n_pass, n_fail = d_pass.row_count, d_fail.row_count

    def tallies(group: tuple[str, ...]) -> list[Counter]:
        """Per dataset, the number of rows taking each value combination of ``group``."""
        return [tally(*map(d.column, group)) for d in (d_pass, d_fail)]

    eligible: dict[str, list[str]] = {}
    for a in sorted(a for a, t in d_pass.schema if t is ColumnType.CATEGORICAL):
        c_pass, c_fail = tallies((a,))
        keep = sorted(v for (v,), c in c_pass.items() if v is not None
                      and c / n_pass >= MIN_SUPPORT and c_fail[(v,)] / n_fail >= MIN_SUPPORT)
        if keep:
            eligible[a] = keep
    out: list[Predicate] = []
    for group in [(a,) for a in eligible] + list(combinations(eligible, 2)):
        c_pass, c_fail = tallies(group)
        for values in product(*(eligible[a] for a in group)):
            if abs(c_pass[values] / n_pass - c_fail[values] / n_fail) >= SELECTIVITY_GAP:
                out.append(Predicate(tuple(Term(a, "eq", v) for a, v in zip(group, values))))
    return out
