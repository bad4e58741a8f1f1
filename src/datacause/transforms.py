"""Transformations that repair a dataset with respect to one profile.

Every transform either returns a dataset whose violation of the bound
profile is zero (within 1e-9) or raises :class:`TransformFailure` carrying
the best violation it achieved. Seeded kinds are deterministic per
(dataset, triplet, seed).
"""

from __future__ import annotations

import math
import operator
import random
import statistics
import struct
import sys
import zlib
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import ColumnTypeError, TransformFailure, ValidationError
from .profiles import (
    Profile,
    ProfileKind,
    chi_square_from_counts,
    joint_counts,
    outlier_flags,
    pearson_correlation,
    shape_regex,
    text_runs,
    violation,
)
from .tabular import (TALLIES, ColumnType, Dataset, TallyScope, count_where, mean,
                      population_stddev, select_where)

POSTCONDITION_TOL = 1e-9
#: passes or seeded attempts an iterative repair makes before it gives up
MAX_ITERATIONS = 40
#: the most rows a dataset can have: CPython allocates no longer list
MAX_ROWS = sys.maxsize // struct.calcsize("P")


@dataclass(frozen=True)
class PvtTriplet:
    """A profile bound to one concrete transformation variant."""

    profile: Profile
    transform_id: str
    perturb: str | None = None  # attribute rewritten by dependence transforms

    @cached_property  # the profile is frozen, so its label never changes
    def id(self) -> str:
        return f"{self.profile.label()}#{self.transform_id}"

    @property
    def sort_key(self) -> tuple:
        return (self.profile.attributes(), self.profile.kind.value, self.id)


def make_triplets(profile: Profile, perturb: str | None = None) -> list[PvtTriplet]:
    """One triplet per repair variant of the profile's kind, preference order."""
    return [PvtTriplet(profile, variant, perturb) for variant in REPAIRS[profile.kind]]


def _derive_seed(seed: int, *parts: str) -> int:
    digest = zlib.crc32(("|".join(parts)).encode("utf-8"))
    return (seed * 2654435761 + digest) % (2 ** 31)


def _mode(values) -> str:
    return min(statistics.multimode(values))


# --- repairs ---------------------------------------------------------------
#
# Every repair takes the dataset and the triplet plus the keyword options of
# :func:`transform`, and every coverage formula the dataset, the triplet and
# the ``seed`` of :func:`coverage`; each ignores those it does not use.


def _remap(dataset: Dataset, triplet: PvtTriplet, remap_overrides=None, **_) -> Dataset:
    profile = triplet.profile
    overrides = (remap_overrides or {}).get(profile.attribute)
    col = dataset.column(profile.attribute)
    counts = Counter(v for v in col if v is not None)
    illegal = sorted((v for v in counts if v not in profile.values),
                     key=lambda v: (-counts[v], v))
    if not illegal:
        return dataset
    mapping: dict[str, str] = {}
    if overrides:
        for bad, good in overrides.items():
            if good not in profile.values:
                raise TransformFailure(
                    f"override {bad!r} -> {good!r} lands outside the domain of "
                    f"{profile.attribute!r}", best_violation=violation(dataset, profile))
            mapping[bad] = good
    # frequency-rank alignment fills whatever the overrides left open
    remaining = [v for v in illegal if v not in mapping]
    legal = sorted(profile.values, key=lambda v: (-counts[v], v))
    mapping.update({bad: legal[i % len(legal)] for i, bad in enumerate(remaining)})
    return dataset.with_column(
        profile.attribute,
        [mapping.get(v, v) if v is not None else None for v in col])


def _linear_map(dataset: Dataset, triplet: PvtTriplet, **_) -> Dataset:
    profile = triplet.profile
    col = dataset.column(profile.attribute)
    present = [v for v in col if v is not None]
    if not present:
        return dataset
    lo, hi = min(present), max(present)
    if lo == profile.lower and hi == profile.upper:
        return dataset
    if lo == hi:  # degenerate observed range: clip the single level into the bounds
        return _winsorize(dataset, triplet)
    scale = (profile.upper - profile.lower) / (hi - lo)
    if math.isinf(hi - lo) or not math.isfinite(scale):
        raise TransformFailure(
            f"mapping [{lo:.6g}, {hi:.6g}] onto [{profile.lower:.6g}, "
            f"{profile.upper:.6g}] overflows", best_violation=violation(dataset, profile))
    return dataset.with_column(profile.attribute, [
        None if v is None else min(max(profile.lower + (v - lo) * scale, profile.lower),
                                   profile.upper)
        for v in col])


def _winsorize(dataset: Dataset, triplet: PvtTriplet, **_) -> Dataset:
    profile = triplet.profile
    if not profile.offending(dataset):
        return dataset
    return dataset.with_column(
        profile.attribute,
        [None if v is None else min(max(v, profile.lower), profile.upper)
         for v in dataset.column(profile.attribute)])


def _runs(value: str, pattern: tuple[str, ...]) -> list[str] | None:
    """``value`` split into one run per class of ``pattern``, or None when
    its signature is another."""
    if value.isascii():
        match = shape_regex(pattern).fullmatch(value)
        return match and list(match.groups())
    classes, text = zip(*text_runs(value))  # a non-ASCII value is never empty
    return list(text) if classes == pattern else None


def _fit_text(dataset: Dataset, triplet: PvtTriplet, **_) -> Dataset:
    profile = triplet.profile
    if not profile.offending(dataset):
        return dataset

    fill = {"digits": "0", "letters": "a", "other": "-"}

    def repair(v: str) -> str:
        if profile.pattern is None:
            if len(v) < profile.min_len:
                return v + "0" * (profile.min_len - len(v))
            return v[: profile.max_len]
        text = _runs(v, profile.pattern) or [fill[cls] for cls in profile.pattern]
        # grow the last extendable run to reach min_len
        extendable = [k for k, cls in enumerate(profile.pattern) if cls != "other"]
        length = sum(len(part) for part in text)
        if length < profile.min_len:
            if not extendable:
                raise TransformFailure(
                    f"cannot reach length {profile.min_len} for pattern "
                    f"{'/'.join(profile.pattern)}", best_violation=violation(dataset, profile))
            k = extendable[-1]
            text[k] = text[k] + fill[profile.pattern[k]] * (profile.min_len - length)
        # shrink longest runs first to respect max_len
        while sum(len(part) for part in text) > profile.max_len:
            candidates = [k for k in extendable if len(text[k]) > 1]
            if not candidates:
                raise TransformFailure(
                    f"pattern {'/'.join(profile.pattern)} cannot fit below length "
                    f"{profile.max_len}", best_violation=violation(dataset, profile))
            k = max(candidates, key=lambda k: len(text[k]))
            excess = sum(len(part) for part in text) - profile.max_len
            text[k] = text[k][: max(1, len(text[k]) - excess)]
        return "".join(text)

    return dataset.with_column(
        profile.attribute,
        [v if v is None or profile.conforms(v) else repair(v)
         for v in dataset.column(profile.attribute)])


def _replace_outliers(dataset: Dataset, triplet: PvtTriplet, **_) -> Dataset:
    profile = triplet.profile
    current = dataset
    for _ in range(MAX_ITERATIONS):
        if violation(current, profile) <= POSTCONDITION_TOL:
            return current
        col = current.column(profile.attribute)
        fill = mean([v for v in col if v is not None])
        flags = outlier_flags(col, profile.k)
        current = current.with_column(
            profile.attribute,
            [fill if flag else v for v, flag in zip(col, flags)])
    raise TransformFailure(
        f"outlier fraction still above {profile.threshold} after {MAX_ITERATIONS} passes",
        best_violation=violation(current, profile))


def _impute_missing(dataset: Dataset, triplet: PvtTriplet, **_) -> Dataset:
    profile = triplet.profile
    if violation(dataset, profile) <= POSTCONDITION_TOL:
        return dataset
    col = dataset.column(profile.attribute)
    present = [v for v in col if v is not None]
    if dataset.type_of(profile.attribute) is ColumnType.NUMERICAL:
        fill = mean(present) if present else 0.0
    else:
        fill = _mode(present) if present else "unknown"
    return dataset.with_column(profile.attribute,
                               [fill if v is None else v for v in col])


def _resample_plan(dataset: Dataset, profile: Profile) -> int:
    """How many satisfying rows to duplicate (positive) or drop (negative)
    so the fraction lands exactly on floor(threshold * rows); 0 leaves the
    dataset as it is."""
    if profile.threshold >= 1.0:
        return 0
    n = dataset.row_count
    count = count_where(dataset, profile.predicate)
    threshold = max(0.0, profile.threshold)  # below 0 it allows no satisfying row either
    if count == int(threshold * n) or count == 0:
        # on target, or nothing violates the bound and nothing can be duplicated
        return 0
    # the gap count + s - int(threshold * (n + s)) never falls as s grows and
    # moves by at most 1 per row: searched in the direction that closes it,
    # the first size where it reaches 0 is its nearest zero
    step = -1 if count > threshold * n else 1

    def reached(k: int) -> bool:  # the gap is 0 or past it once k rows are resampled
        s = step * k
        return step * (count + s - int(threshold * (n + s))) >= 0

    room = MAX_ROWS - n  # the most rows a repair can add
    size = 1
    while not reached(size):
        if size >= room:
            raise TransformFailure(f"meeting {profile.label()} needs more rows than a list holds",
                                   best_violation=violation(dataset, profile))
        size = min(2 * size, room)
    size = step * bisect_left(range(size + 1), True, lo=size // 2, key=reached)
    if size == -n:
        raise TransformFailure(f"meeting {profile.label()} would delete every row",
                               best_violation=violation(dataset, profile))
    return size


def _resample_selectivity(dataset: Dataset, triplet: PvtTriplet, seed: int, **_) -> Dataset:
    size = _resample_plan(dataset, triplet.profile)
    if size == 0:
        return dataset
    satisfying = sorted(select_where(dataset, triplet.profile.predicate))
    rng = random.Random(_derive_seed(seed, "selectivity", triplet.profile.label()))
    n = dataset.row_count
    if size < 0:
        drop = set(rng.sample(satisfying, -size))
        return dataset.take_rows([i for i in range(n) if i not in drop])
    return dataset.take_rows([*range(n), *rng.choices(satisfying, k=size)])


def _balanced_reassignment(groups: dict[str, list[int]], values: list[str],
                           rng: random.Random) -> dict[int, str]:
    """Permute ``values`` across the grouped rows so cell counts sit as close
    to the independence expectation as integrality allows."""
    n = len(values)
    value_counts = Counter(values)
    cells: dict[tuple[str, str], int] = {}
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
    # the rows and the columns have equal totals still to fill, so each pass
    # over the cells fills at least one
    while any(d > 0 for d in row_left.values()):
        for _, g, v in remainders:
            if row_left[g] > 0 and col_left[v] > 0:
                cells[(g, v)] += 1
                row_left[g] -= 1
                col_left[v] -= 1
    # each group's cells sum to its row count, so every row gets a value
    assignment: dict[int, str] = {}
    for g, rows in groups.items():
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assignment.update(zip(shuffled, [v for v in sorted(value_counts)
                                         for _ in range(cells[(g, v)])]))
    return assignment


def _decorrelate_chi2(dataset: Dataset, triplet: PvtTriplet, seed: int, **_) -> Dataset:
    """Shuffle ever larger seeded samples of the target column, then fall
    back to its most balanced permutation against the anchor attribute. One
    loop scores each candidate column and builds a dataset only for the
    first it accepts."""
    profile = triplet.profile
    best = violation(dataset, profile)
    if best <= POSTCONDITION_TOL:
        return dataset
    target = triplet.perturb or profile.attributes()[1]
    anchor = dataset.column(profile.left if target == profile.right else profile.right)
    n = dataset.row_count
    source = dataset.column(target)

    def candidates():
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
                yield column
                fraction = min(1.0, fraction * 2)
        rng = random.Random(_derive_seed(seed, "chi2-balance", profile.label()))
        groups: dict[str, list[int]] = {}
        values: list[str] = []
        for i, (a, b) in enumerate(zip(anchor, source)):
            if a is None or b is None:
                continue
            groups.setdefault(a, []).append(i)
            values.append(b)
        if values:
            column = list(source)
            for i, v in _balanced_reassignment(groups, values, rng).items():
                column[i] = v
            yield column

    for column in candidates():
        stat = chi_square_from_counts(joint_counts(anchor, column))
        if stat <= profile.limit + 1e-12:
            return dataset.with_column(target, column)
        best = min(best, profile.violation_at(stat))
    raise TransformFailure(
        f"could not push chi-square below {profile.limit:.6g} on "
        f"({profile.left},{profile.right})", best_violation=best)


def _decorrelate_pcc(dataset: Dataset, triplet: PvtTriplet, seed: int, **_) -> Dataset:
    profile = triplet.profile
    best = violation(dataset, profile)
    if best <= POSTCONDITION_TOL:
        return dataset
    target = triplet.perturb or profile.attributes()[1]
    col = dataset.column(target)
    present = [v for v in col if v is not None]
    sd = population_stddev(present) if present else 0.0
    scale = 0.1 * sd if sd > 0 else 0.1
    for attempt in range(MAX_ITERATIONS):
        rng = random.Random(_derive_seed(seed, "pcc", profile.label(), str(attempt)))
        noisy = [v if v is None else v + rng.uniform(-scale, scale) for v in col]
        try:
            candidate = dataset.with_column(target, noisy)
        except ColumnTypeError:  # the noise took a cell past the float range
            break
        r = pearson_correlation(candidate, profile.left, profile.right)
        if abs(r) <= abs(profile.limit) + 1e-12:
            return candidate
        best = min(best, profile.violation_at(r))
        scale *= 2.0
    raise TransformFailure(
        f"could not push |correlation| below {abs(profile.limit):.6g} on "
        f"({profile.left},{profile.right})", best_violation=best)


# --- coverage formulas -----------------------------------------------------


def _offending_rows(dataset: Dataset, triplet: PvtTriplet, **_) -> float:
    """A row-count repair rewrites the offending rows, unless the profile holds."""
    profile = triplet.profile
    if violation(dataset, profile) <= POSTCONDITION_TOL:
        return 0.0
    return profile.offending(dataset) / dataset.row_count


def _linear_map_coverage(dataset: Dataset, triplet: PvtTriplet, **_) -> float:
    profile = triplet.profile
    n = dataset.row_count
    present = dataset.non_missing(profile.attribute)
    if not present:
        return 0.0
    lo, hi = min(present), max(present)
    if lo == profile.lower and hi == profile.upper:
        return 0.0
    if lo == hi:
        return profile.offending(dataset) / n
    return len(present) / n


def _resample_coverage(dataset: Dataset, triplet: PvtTriplet, **_) -> float:
    size = _resample_plan(dataset, triplet.profile)
    return min(1.0, abs(size) / dataset.row_count)


def _dry_run_coverage(dataset: Dataset, triplet: PvtTriplet, seed: int) -> float:
    """Run the repair and count the cells it changed."""
    result = repair_once(dataset, triplet, seed=seed)
    if result is dataset:
        return 0.0
    changed = 0
    for before, after in zip(dataset.columns, result.columns):
        if before != after:
            changed = sum(map(operator.ne, before, after))
            break
    return changed / dataset.row_count


#: profile kind -> variant -> (repair, coverage formula), the variants of
#: each kind in preference order
REPAIRS = {
    ProfileKind.DOMAIN_CATEGORICAL: {"remap": (_remap, _offending_rows)},
    ProfileKind.DOMAIN_NUMERICAL: {"linear_map": (_linear_map, _linear_map_coverage),
                                   "winsorize": (_winsorize, _offending_rows)},
    ProfileKind.DOMAIN_TEXT: {"fit_length": (_fit_text, _offending_rows)},
    ProfileKind.OUTLIER: {"replace_with_mean": (_replace_outliers, _offending_rows)},
    ProfileKind.MISSING: {"impute": (_impute_missing, _offending_rows)},
    ProfileKind.SELECTIVITY: {"resample": (_resample_selectivity, _resample_coverage)},
    ProfileKind.CHI2: {"shuffle": (_decorrelate_chi2, _dry_run_coverage)},
    ProfileKind.PCC: {"add_noise": (_decorrelate_pcc, _dry_run_coverage)},
}


def _variant(triplet: PvtTriplet):
    try:
        return REPAIRS[triplet.profile.kind][triplet.transform_id]
    except KeyError:
        raise ValidationError(f"unknown transform id {triplet.transform_id!r} for "
                              f"{triplet.profile.kind.value}") from None


# --- public operations ------------------------------------------------------


def transform(dataset: Dataset, triplet: PvtTriplet, seed: int = 0,
              remap_overrides: dict[str, dict[str, str]] | None = None) -> Dataset:
    """Apply the triplet's transformation; the result no longer violates
    the profile, or :class:`TransformFailure` is raised.

    ``remap_overrides`` optionally pins categorical replacements per
    attribute (bad value -> replacement inside the domain) where domain
    knowledge beats the default frequency-rank alignment.
    """
    repair, _ = _variant(triplet)
    result = repair(dataset, triplet, seed=seed, remap_overrides=remap_overrides)
    residual = violation(result, triplet.profile)
    if residual > POSTCONDITION_TOL:
        raise TransformFailure(
            f"{triplet.id} left violation {residual:.3g}", best_violation=residual)
    return result


def repair_once(dataset: Dataset, triplet: PvtTriplet, seed: int = 0,
                remap_overrides: dict[str, dict[str, str]] | None = None) -> Dataset:
    """:func:`transform`, made once per open :class:`~datacause.tabular.TallyScope`,
    which keeps the result or the :class:`TransformFailure`, raised again as a fresh
    copy. The key holds the whole triplet (its id leaves out the learned parameters and
    the perturbed attribute), and the overrides only for ``remap``, which alone reads them."""
    memo = TALLIES.get()
    if memo is None:
        return transform(dataset, triplet, seed=seed, remap_overrides=remap_overrides)
    overrides = repr(remap_overrides) if _variant(triplet)[0] is _remap else None
    key = (dataset.fingerprint, triplet, seed, overrides)
    if key not in memo:
        try:
            memo[key] = transform(dataset, triplet, seed=seed, remap_overrides=remap_overrides)
        except TransformFailure as exc:
            memo[key] = exc
    result = memo[key]
    if isinstance(result, TransformFailure):
        raise TransformFailure(str(result), best_violation=result.best_violation)
    return result


def coverage(dataset: Dataset, triplet: PvtTriplet, seed: int = 0) -> float:
    """Fraction of rows the transformation would modify or resample.

    Counted from the data; only the two dependence repairs run a dry
    repair, through :func:`repair_once` with ``seed``.
    """
    _, rows_touched = _variant(triplet)
    return rows_touched(dataset, triplet, seed=seed)


@dataclass(frozen=True)
class ComposeResult:
    dataset: Dataset
    warnings: tuple[str, ...]


def compose(triplets, dataset: Dataset, seed: int = 0,
            remap_overrides: dict[str, dict[str, str]] | None = None) -> ComposeResult:
    """Apply transformations sequentially in the given order, each through
    :func:`repair_once` with ``seed`` and ``remap_overrides``.

    A warning is recorded whenever a later step re-breaks the profile of an
    earlier one.
    """
    current = dataset
    warnings: list[str] = []
    applied: list[PvtTriplet] = []
    with TallyScope():
        for triplet in triplets:
            current = repair_once(current, triplet, seed=seed, remap_overrides=remap_overrides)
            for earlier in applied:
                residual = violation(current, earlier.profile)
                if residual > POSTCONDITION_TOL:
                    warnings.append(
                        f"{earlier.id} re-violated ({residual:.3g}) after {triplet.id}")
            applied.append(triplet)
    return ComposeResult(current, tuple(warnings))
