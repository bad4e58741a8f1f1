"""Data profiles: discovery from a dataset and violation scoring.

Each profile kind concretizes a constraint the source dataset satisfies
exactly (zero violation), together with a formula measuring how much
another dataset breaks it. Violation scores always land in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Sequence

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
    population_stddev,
    select_where,
)

_ZERO_SNAP = 1e-12  # absorbs float roundoff so satisfied profiles score exactly 0.0

OUTLIER_K = 1.5  # stddevs from the mean beyond which a value is an outlier
MIN_SUPPORT = 0.05  # least frequency, in both datasets, of a value in a selectivity predicate
SELECTIVITY_GAP = 0.1  # least selectivity difference that makes a predicate discriminative
SIGNIFICANCE_LEVEL = 0.05  # p-value a dependence must reach on the failing dataset


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
    once the dataset is known to be non-empty, and lists the transform
    variants that repair it in ``repairs``, in preference order.
    """

    kind: ProfileKind
    repairs: tuple[str, ...]

    def attributes(self) -> tuple[str, ...]:
        return (self.attribute,)

    def label(self) -> str:
        return f"{self.kind.value}({','.join(self.attributes())})"

    def identity(self) -> tuple:
        """Key identifying which constraint this is, ignoring learned parameters."""
        return (self.kind.value, self.attributes())

    def parameters(self) -> tuple:
        """Learned parameters, compared with tolerance between datasets."""
        return tuple(_plain(getattr(self, f.name)) for f in fields(self)
                     if f.name not in _SUBJECT_FIELDS)

    def same_parameters(self, other: "Profile", tol: float = 1e-9) -> bool:
        if self.identity() != other.identity():
            return False
        for a, b in zip(self.parameters(), other.parameters()):
            if isinstance(a, float) or isinstance(b, float):
                if abs(float(a) - float(b)) > tol:
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


#: fields naming what a profile constrains rather than what it learned
_SUBJECT_FIELDS = ("attribute", "predicate", "left", "right")


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
            _require_type(dataset, self.attribute, self.column_type, self)
        return _thresholded(self.offending(dataset), self.threshold, dataset.row_count)


class DomainBound(RowCountBound):
    """Every present value lies in the learned domain: no row may break it."""

    threshold = 0.0


@dataclass(frozen=True)
class DomainCategorical(DomainBound):
    attribute: str
    values: frozenset[str]

    kind = ProfileKind.DOMAIN_CATEGORICAL
    repairs = ("remap",)
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
    repairs = ("linear_map", "winsorize")
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
    repairs = ("fit_length",)
    column_type = ColumnType.TEXT

    def __post_init__(self):
        if self.min_len > self.max_len:
            raise DomainError("min length above max length")

    def conforms(self, value: str) -> bool:
        return (matches_pattern(value, self.pattern)
                and self.min_len <= len(value) <= self.max_len)

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
    repairs = ("replace_with_mean",)
    column_type = ColumnType.NUMERICAL

    def offending(self, dataset):
        return sum(outlier_flags(dataset.column(self.attribute), self.k))


@dataclass(frozen=True)
class MissingRate(RowCountBound):
    attribute: str
    threshold: float

    kind = ProfileKind.MISSING
    repairs = ("impute",)

    def offending(self, dataset):
        return sum(1 for v in dataset.column(self.attribute) if v is None)


@dataclass(frozen=True)
class SelectivityBound(RowCountBound):
    predicate: Predicate
    threshold: float

    kind = ProfileKind.SELECTIVITY
    repairs = ("resample",)

    def attributes(self):
        return self.predicate.attributes()

    def label(self):
        return f"{self.kind.value}({self.predicate.label()})"

    def identity(self):
        return (self.kind.value, self.predicate.label())

    def offending(self, dataset):
        return len(select_where(dataset, self.predicate))


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
    repairs = ("shuffle",)

    def _score(self, dataset):
        stat = chi_square_statistic(dataset, self.left, self.right)
        return _snap_unit(1.0 - math.exp(-max(0.0, stat - self.limit)))

    def _p_value(self, dataset):
        stat = chi_square_statistic(dataset, self.left, self.right)
        dof = chi_square_dof(dataset, self.left, self.right)
        return chi_square_p_value(stat, dof) if dof >= 1 else 1.0


@dataclass(frozen=True)
class CorrelationBound(DependenceBound):
    """Absolute Pearson correlation between two numerical columns stays below ``limit``."""

    kind = ProfileKind.PCC
    repairs = ("add_noise",)

    def _score(self, dataset):
        r = pearson_correlation(dataset, self.left, self.right)
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


def text_signature(value: str) -> tuple[str, ...]:
    """Run-class sequence of a string: digit runs, letter runs, other chars."""
    sig: list[str] = []
    for ch in value:
        if ch.isdigit():
            cls = "digits"
        elif ch.isalpha():
            cls = "letters"
        else:
            cls = "other"
        if cls == "other" or not sig or sig[-1] != cls:
            sig.append(cls)
    return tuple(sig)


def matches_pattern(value: str, pattern: tuple[str, ...] | None) -> bool:
    return pattern is None or text_signature(value) == pattern


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


def _require_type(dataset: Dataset, attribute: str, ctype: ColumnType, profile: Profile) -> None:
    actual = dataset.type_of(attribute)
    if actual is not ctype:
        raise ColumnTypeError(
            f"{profile.label()} expects a {ctype.value} column, "
            f"{attribute!r} is {actual.value}")


def outlier_flags(values: Sequence[float | None], k: float) -> list[bool]:
    """Flag non-missing values more than k population stddevs from the mean."""
    present = [v for v in values if v is not None]
    if not present:
        return [False] * len(values)
    mean = sum(present) / len(present)
    sd = population_stddev(present)
    if sd == 0.0:
        return [False] * len(values)
    return [v is not None and abs(v - mean) > k * sd for v in values]


def violation(dataset: Dataset, profile: Profile) -> float:
    """How much ``dataset`` breaks ``profile``, clamped to [0, 1].

    Zero means full compliance; profiles discovered from a dataset score
    exactly zero on it.
    """
    if dataset.row_count == 0:
        raise DegenerateInputError("violation of an empty dataset")
    return profile._score(dataset)


# --- dependence statistics --------------------------------------------------


def contingency_table(dataset: Dataset, a_j: str, a_k: str) -> dict[tuple[str, str], int]:
    """Joint counts over rows where both attributes are present."""
    left = dataset.column(a_j)
    right = dataset.column(a_k)
    table: dict[tuple[str, str], int] = {}
    for lv, rv in zip(left, right):
        if lv is None or rv is None:
            continue
        table[(lv, rv)] = table.get((lv, rv), 0) + 1
    return table


def chi_square_from_counts(table: dict[tuple[str, str], int]) -> float:
    n = sum(table.values())
    if n == 0:
        return 0.0
    row_totals: dict[str, int] = {}
    col_totals: dict[str, int] = {}
    for (lv, rv), c in table.items():
        row_totals[lv] = row_totals.get(lv, 0) + c
        col_totals[rv] = col_totals.get(rv, 0) + c
    if len(row_totals) < 2 or len(col_totals) < 2:
        return 0.0
    stat = 0.0
    for lv, rt in row_totals.items():
        for rv, ct in col_totals.items():
            expected = rt * ct / n
            observed = table.get((lv, rv), 0)
            stat += (observed - expected) ** 2 / expected
    return stat


def chi_square_statistic(dataset: Dataset, a_j: str, a_k: str) -> float:
    """Pearson chi-square over the observed contingency table.

    Rows missing either attribute are excluded; fewer than two distinct
    values on either side degenerates to 0.
    """
    for a in (a_j, a_k):
        if dataset.type_of(a) is not ColumnType.CATEGORICAL:
            raise ColumnTypeError(f"chi-square needs categorical columns, {a!r} is "
                                  f"{dataset.type_of(a).value}")
    return chi_square_from_counts(contingency_table(dataset, a_j, a_k))


def chi_square_dof(dataset: Dataset, a_j: str, a_k: str) -> int:
    table = contingency_table(dataset, a_j, a_k)
    rows = {lv for lv, _ in table}
    cols = {rv for _, rv in table}
    return max(0, (len(rows) - 1)) * max(0, (len(cols) - 1))


def pearson_correlation(dataset: Dataset, a_j: str, a_k: str) -> float:
    """Pearson correlation over pairwise-complete rows, 0 on zero variance."""
    for a in (a_j, a_k):
        if dataset.type_of(a) is not ColumnType.NUMERICAL:
            raise ColumnTypeError(f"correlation needs numerical columns, {a!r} is "
                                  f"{dataset.type_of(a).value}")
    xs, ys = [], []
    for x, y in zip(dataset.column(a_j), dataset.column(a_k)):
        if x is not None and y is not None:
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise DegenerateInputError(
            f"correlation of {a_j!r} and {a_k!r} needs at least 2 complete pairs")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    r = cov / math.sqrt(vx * vy)
    if r > 1.0 - _ZERO_SNAP:
        return 1.0
    if r < -1.0 + _ZERO_SNAP:
        return -1.0
    return r


# --- tail probabilities (regularized incomplete gamma / beta) ---------------

_ITMAX = 400
_EPS = 3e-14
_FPMIN = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(_ITMAX):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_continued_fraction(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) for a > 0, x >= 0."""
    if x < 0.0 or a <= 0.0:
        raise DomainError("regularized_gamma_q needs x >= 0 and a > 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_continued_fraction(a, x)


def chi_square_p_value(chi2: float, dof: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if chi2 < 0.0:
        raise DomainError("chi-square statistic must be non-negative")
    if dof < 1:
        raise DomainError("degrees of freedom must be positive")
    return min(1.0, max(0.0, regularized_gamma_q(dof / 2.0, chi2 / 2.0)))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise DomainError("regularized_beta needs x in [0, 1]")
    if x in (0.0, 1.0):
        return x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def pearson_p_value(r: float, n_pairs: int) -> float:
    """Two-sided p-value of a Pearson correlation under the null of independence."""
    dof = n_pairs - 2
    if dof < 1:
        return 1.0
    if abs(r) >= 1.0:
        return 0.0
    t_sq = r * r * dof / (1.0 - r * r)
    return min(1.0, max(0.0, regularized_beta(dof / 2.0, 0.5, dof / (dof + t_sq))))


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
        present = [v for v in col if v is not None]
        missing = n - len(present)
        out.append(MissingRate(attribute, missing / n))
        if not present:
            continue
        if ctype is ColumnType.CATEGORICAL:
            out.append(DomainCategorical(attribute, frozenset(present)))
        elif ctype is ColumnType.NUMERICAL:
            out.append(DomainNumerical(attribute, min(present), max(present)))
            flagged = sum(outlier_flags(col, OUTLIER_K))
            out.append(OutlierBound(attribute, OUTLIER_K, flagged / n))
        else:
            signatures = {text_signature(v) for v in present}
            pattern = next(iter(signatures)) if len(signatures) == 1 else None
            lengths = [len(v) for v in present]
            out.append(DomainText(attribute, pattern, min(lengths), max(lengths)))
    for predicate in predicates:
        count = len(select_where(dataset, predicate))
        out.append(SelectivityBound(predicate, count / n))
    categorical = [a for a, t in dataset.schema if t is ColumnType.CATEGORICAL]
    for i, a_j in enumerate(categorical):
        for a_k in categorical[i + 1:]:
            out.append(ChiSquareBound(a_j, a_k, chi_square_statistic(dataset, a_j, a_k)))
    numerical = [a for a, t in dataset.schema if t is ColumnType.NUMERICAL]
    for i, a_j in enumerate(numerical):
        for a_k in numerical[i + 1:]:
            try:
                r = pearson_correlation(dataset, a_j, a_k)
            except DegenerateInputError:
                continue
            out.append(CorrelationBound(a_j, a_k, r))
    out.sort(key=lambda p: (p.attributes(), p.kind.value, p.label()))
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
    categorical = [a for a, t in d_pass.schema if t is ColumnType.CATEGORICAL]
    eligible: dict[str, list[str]] = {}
    for attribute in categorical:
        values = set(d_pass.non_missing(attribute)) & set(d_fail.non_missing(attribute))
        keep = []
        for v in sorted(values):
            f_pass = sum(1 for c in d_pass.column(attribute) if c == v) / d_pass.row_count
            f_fail = sum(1 for c in d_fail.column(attribute) if c == v) / d_fail.row_count
            if f_pass >= MIN_SUPPORT and f_fail >= MIN_SUPPORT:
                keep.append(v)
        if keep:
            eligible[attribute] = keep

    def gap(predicate: Predicate) -> float:
        f_pass = len(select_where(d_pass, predicate)) / d_pass.row_count
        f_fail = len(select_where(d_fail, predicate)) / d_fail.row_count
        return abs(f_pass - f_fail)

    out: list[Predicate] = []
    for attribute in sorted(eligible):
        for value in eligible[attribute]:
            predicate = Predicate((Term(attribute, "eq", value),))
            if gap(predicate) >= SELECTIVITY_GAP:
                out.append(predicate)
    attrs = sorted(eligible)
    for i, a1 in enumerate(attrs):
        for a2 in attrs[i + 1:]:
            for v1 in eligible[a1]:
                for v2 in eligible[a2]:
                    predicate = Predicate((Term(a1, "eq", v1), Term(a2, "eq", v2)))
                    if gap(predicate) >= SELECTIVITY_GAP:
                        out.append(predicate)
    return out
