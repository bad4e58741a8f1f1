"""Transformations that repair a dataset with respect to one profile.

Every transform either returns a dataset whose violation of the bound
profile is zero (within 1e-9) or raises :class:`TransformFailure` carrying
the best violation it achieved. Seeded kinds are deterministic per
(dataset, triplet, seed).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from .errors import TransformFailure
from .profiles import (
    Profile,
    chi_square_from_counts,
    contingency_table,
    outlier_flags,
    pearson_correlation,
    text_signature,
    violation,
)
from .tabular import ColumnType, Dataset, population_stddev, select_where

POSTCONDITION_TOL = 1e-9


@dataclass(frozen=True)
class PvtTriplet:
    """A profile bound to one concrete transformation variant."""

    profile: Profile
    transform_id: str
    perturb: str | None = None  # attribute rewritten by dependence transforms

    @property
    def id(self) -> str:
        return f"{self.profile.label()}#{self.transform_id}"

    @property
    def sort_key(self) -> tuple:
        return (self.profile.attributes(), self.profile.kind.value, self.id)


def make_triplets(profile: Profile, perturb: str | None = None) -> list[PvtTriplet]:
    """One triplet per repair variant of the profile's kind, preference order."""
    return [PvtTriplet(profile, variant, perturb) for variant in profile.repairs]


def _derive_seed(seed: int, *parts: str) -> int:
    digest = zlib.crc32(("|".join(parts)).encode("utf-8"))
    return (seed * 2654435761 + digest) % (2 ** 31)


def _mode(values) -> str:
    counts: dict[str, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return min(counts, key=lambda v: (-counts[v], v))


# --- repairs ---------------------------------------------------------------
#
# Every repair and every coverage formula takes the dataset and the triplet
# plus the keyword options of :func:`transform`, and ignores those it does
# not use.


def _remap(dataset: Dataset, triplet: PvtTriplet, remap_overrides=None, **_) -> Dataset:
    profile = triplet.profile
    overrides = (remap_overrides or {}).get(profile.attribute)
    col = dataset.column(profile.attribute)
    counts: dict[str, int] = {}
    for v in col:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
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
    legal = sorted(profile.values, key=lambda v: (-counts.get(v, 0), v))
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
    if lo == hi:
        # degenerate observed range: clip the single level into the bounds
        def move(v):
            return min(max(v, profile.lower), profile.upper)
    else:
        scale = (profile.upper - profile.lower) / (hi - lo)

        def move(v):
            mapped = profile.lower + (v - lo) * scale
            return min(max(mapped, profile.lower), profile.upper)

    return dataset.with_column(profile.attribute,
                               [move(v) if v is not None else None for v in col])


def _winsorize(dataset: Dataset, triplet: PvtTriplet, **_) -> Dataset:
    profile = triplet.profile
    if not profile.offending(dataset):
        return dataset
    return dataset.with_column(
        profile.attribute,
        [None if v is None else min(max(v, profile.lower), profile.upper)
         for v in dataset.column(profile.attribute)])


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
        runs = list(text_signature(v))
        if runs != list(profile.pattern):
            text = [fill[cls] for cls in profile.pattern]
        else:
            # split v back into its runs
            text, i = [], 0
            for cls in runs:
                j = i
                while j < len(v) and text_signature(v[i:j + 1]) == (cls,):
                    j += 1
                text.append(v[i:j])
                i = j
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


def _replace_outliers(dataset: Dataset, triplet: PvtTriplet, max_iterations: int,
                      **_) -> Dataset:
    profile = triplet.profile
    current = dataset
    for _ in range(max_iterations):
        if violation(current, profile) <= POSTCONDITION_TOL:
            return current
        col = current.column(profile.attribute)
        present = [v for v in col if v is not None]
        mean = sum(present) / len(present)
        flags = outlier_flags(col, profile.k)
        current = current.with_column(
            profile.attribute,
            [mean if flag else v for v, flag in zip(col, flags)])
    raise TransformFailure(
        f"outlier fraction still above {profile.threshold} after {max_iterations} passes",
        best_violation=violation(current, profile))


def _impute_missing(dataset: Dataset, triplet: PvtTriplet, **_) -> Dataset:
    profile = triplet.profile
    if violation(dataset, profile) <= POSTCONDITION_TOL:
        return dataset
    col = dataset.column(profile.attribute)
    present = [v for v in col if v is not None]
    if dataset.type_of(profile.attribute) is ColumnType.NUMERICAL:
        fill = sum(present) / len(present) if present else 0.0
    else:
        fill = _mode(present) if present else "unknown"
    return dataset.with_column(profile.attribute,
                               [fill if v is None else v for v in col])


def _resample_selectivity(dataset: Dataset, triplet: PvtTriplet, seed: int, **_) -> Dataset:
    profile = triplet.profile
    if profile.threshold >= 1.0:
        return dataset
    satisfying = sorted(select_where(dataset, profile.predicate))
    n = dataset.row_count
    count = len(satisfying)
    rng = random.Random(_derive_seed(seed, "selectivity", profile.label()))
    if count == int(profile.threshold * n):
        return dataset
    if count == 0:
        # nothing violates the bound and there is nothing to duplicate
        return dataset
    if count > profile.threshold * n:
        # remove satisfying rows until the fraction of the shrunk dataset
        # lands exactly on floor(threshold * rows)
        removed = 0
        while count - removed > int(profile.threshold * (n - removed)) and removed < count:
            removed += 1
        if removed == n:
            raise TransformFailure(
                f"meeting {profile.label()} would delete every row",
                best_violation=violation(dataset, profile))
        drop = set(rng.sample(satisfying, removed))
        keep = [i for i in range(n) if i not in drop]
        return dataset.take_rows(keep)
    added = 0
    while count + added != int(profile.threshold * (n + added)):
        added += 1
    extra = rng.choices(satisfying, k=added)
    return dataset.append_rows([dataset.row(i) for i in extra])


def _balanced_reassignment(groups: dict[str, list[int]], values: list[str],
                           rng: random.Random) -> dict[int, str]:
    """Permute ``values`` across the grouped rows so cell counts sit as close
    to the independence expectation as integrality allows."""
    n = len(values)
    value_counts: dict[str, int] = {}
    for v in values:
        value_counts[v] = value_counts.get(v, 0) + 1
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
    while any(d > 0 for d in row_left.values()):
        progressed = False
        for _, g, v in remainders:
            if row_left[g] > 0 and col_left[v] > 0:
                cells[(g, v)] += 1
                row_left[g] -= 1
                col_left[v] -= 1
                progressed = True
                if not any(d > 0 for d in row_left.values()):
                    break
        if not progressed:  # pragma: no cover - feasibility always holds
            break
    assignment: dict[int, str] = {}
    for g, rows in groups.items():
        shuffled = list(rows)
        rng.shuffle(shuffled)
        cursor = 0
        for v in sorted(value_counts):
            for _ in range(cells[(g, v)]):
                assignment[shuffled[cursor]] = v
                cursor += 1
    return assignment


def _decorrelate_chi2(dataset: Dataset, triplet: PvtTriplet, seed: int, max_iterations: int,
                      **_) -> Dataset:
    profile = triplet.profile
    if violation(dataset, profile) <= POSTCONDITION_TOL:
        return dataset
    target = triplet.perturb or profile.attributes()[1]
    anchor = profile.left if target == profile.right else profile.right
    n = dataset.row_count
    best = (violation(dataset, profile), dataset)

    def stat_of(candidate: Dataset) -> float:
        return chi_square_from_counts(contingency_table(candidate, anchor, target))

    if profile.limit > 1e-12:
        fraction = 0.125
        for attempt in range(max_iterations):
            rng = random.Random(_derive_seed(seed, "chi2", profile.label(), str(attempt)))
            k = max(2, min(n, round(fraction * n)))
            picked = rng.sample(range(n), k)
            cells = [dataset.column(target)[i] for i in picked]
            rng.shuffle(cells)
            column = list(dataset.column(target))
            for i, v in zip(picked, cells):
                column[i] = v
            candidate = dataset.with_column(target, column)
            if stat_of(candidate) <= profile.limit + 1e-12:
                return candidate
            v = violation(candidate, profile)
            if v < best[0]:
                best = (v, candidate)
            fraction = min(1.0, fraction * 2)
    # deterministic fallback: rearrange the column into the most balanced
    # permutation against the anchor attribute
    rng = random.Random(_derive_seed(seed, "chi2-balance", profile.label()))
    groups: dict[str, list[int]] = {}
    values: list[str] = []
    rows: list[int] = []
    for i, (a, b) in enumerate(zip(dataset.column(anchor), dataset.column(target))):
        if a is None or b is None:
            continue
        groups.setdefault(a, []).append(i)
        values.append(b)
        rows.append(i)
    if values:
        assignment = _balanced_reassignment(groups, values, rng)
        column = list(dataset.column(target))
        for i in rows:
            column[i] = assignment[i]
        candidate = dataset.with_column(target, column)
        if stat_of(candidate) <= profile.limit + 1e-12:
            return candidate
        v = violation(candidate, profile)
        if v < best[0]:
            best = (v, candidate)
    raise TransformFailure(
        f"could not push chi-square below {profile.limit:.6g} on "
        f"({profile.left},{profile.right})", best_violation=best[0])


def _decorrelate_pcc(dataset: Dataset, triplet: PvtTriplet, seed: int, max_iterations: int,
                     **_) -> Dataset:
    profile = triplet.profile
    if violation(dataset, profile) <= POSTCONDITION_TOL:
        return dataset
    target = triplet.perturb or profile.attributes()[1]
    col = dataset.column(target)
    present = [v for v in col if v is not None]
    sd = population_stddev(present) if present else 0.0
    scale = 0.1 * sd if sd > 0 else 0.1
    best = (violation(dataset, profile), dataset)
    for attempt in range(max_iterations):
        rng = random.Random(_derive_seed(seed, "pcc", profile.label(), str(attempt)))
        noisy = [v if v is None else v + rng.uniform(-scale, scale) for v in col]
        candidate = dataset.with_column(target, noisy)
        r = pearson_correlation(candidate, profile.left, profile.right)
        if abs(r) <= abs(profile.limit) + 1e-12:
            return candidate
        v = violation(candidate, profile)
        if v < best[0]:
            best = (v, candidate)
        scale *= 2.0
    raise TransformFailure(
        f"could not push |correlation| below {abs(profile.limit):.6g} on "
        f"({profile.left},{profile.right})", best_violation=best[0])


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
        moved = sum(1 for v in present if not profile.lower <= v <= profile.upper)
        return moved / n
    return len(present) / n


def _resample_coverage(dataset: Dataset, triplet: PvtTriplet, seed: int, **_) -> float:
    n = dataset.row_count
    result = _resample_selectivity(dataset, triplet, seed=seed)
    return min(1.0, abs(result.row_count - n) / n)


def _dry_run_coverage(dataset: Dataset, triplet: PvtTriplet, seed: int, max_iterations: int,
                      **_) -> float:
    """Run the seeded repair and count the cells it changed."""
    result = transform(dataset, triplet, seed=seed, max_iterations=max_iterations)
    if result is dataset:
        return 0.0
    changed = 0
    for before, after in zip(dataset.columns, result.columns):
        if before != after:
            changed = sum(1 for a, b in zip(before, after) if a != b)
            break
    return changed / dataset.row_count


#: variant name -> (repair, coverage formula); a kind lists its variants in
#: ``Profile.repairs``
REPAIRS = {
    "remap": (_remap, _offending_rows),
    "linear_map": (_linear_map, _linear_map_coverage),
    "winsorize": (_winsorize, _offending_rows),
    "fit_length": (_fit_text, _offending_rows),
    "replace_with_mean": (_replace_outliers, _offending_rows),
    "impute": (_impute_missing, _offending_rows),
    "resample": (_resample_selectivity, _resample_coverage),
    "shuffle": (_decorrelate_chi2, _dry_run_coverage),
    "add_noise": (_decorrelate_pcc, _dry_run_coverage),
}


def _variant(triplet: PvtTriplet):
    try:
        return REPAIRS[triplet.transform_id]
    except KeyError:
        raise ValueError(f"unknown transform id {triplet.transform_id!r}") from None


# --- public operations ------------------------------------------------------


def transform(dataset: Dataset, triplet: PvtTriplet, seed: int = 0,
              max_iterations: int = 40,
              remap_overrides: dict[str, dict[str, str]] | None = None) -> Dataset:
    """Apply the triplet's transformation; the result no longer violates
    the profile, or :class:`TransformFailure` is raised.

    ``remap_overrides`` optionally pins categorical replacements per
    attribute (bad value -> replacement inside the domain) where domain
    knowledge beats the default frequency-rank alignment.
    """
    repair, _ = _variant(triplet)
    result = repair(dataset, triplet, seed=seed, max_iterations=max_iterations,
                    remap_overrides=remap_overrides)
    residual = violation(result, triplet.profile)
    if residual > POSTCONDITION_TOL:
        raise TransformFailure(
            f"{triplet.id} left violation {residual:.3g}", best_violation=residual)
    return result


def coverage(dataset: Dataset, triplet: PvtTriplet, seed: int = 0,
             max_iterations: int = 40) -> float:
    """Fraction of rows the transformation would modify or resample.

    Counted analytically where possible; seeded kinds run a dry transform
    with the given seed.
    """
    _, rows_touched = _variant(triplet)
    return rows_touched(dataset, triplet, seed=seed, max_iterations=max_iterations)


@dataclass(frozen=True)
class ComposeResult:
    dataset: Dataset
    warnings: tuple[str, ...]


def compose(triplets, dataset: Dataset, seed: int = 0,
            max_iterations: int = 40,
            remap_overrides: dict[str, dict[str, str]] | None = None) -> ComposeResult:
    """Apply transformations sequentially in the given order.

    A warning is recorded whenever a later step re-breaks the profile of an
    earlier one.
    """
    current = dataset
    warnings: list[str] = []
    applied: list[PvtTriplet] = []
    for triplet in triplets:
        current = transform(current, triplet, seed=seed, max_iterations=max_iterations,
                            remap_overrides=remap_overrides)
        for earlier in applied:
            residual = violation(current, earlier.profile)
            if residual > POSTCONDITION_TOL:
                warnings.append(
                    f"{earlier.id} re-violated ({residual:.3g}) after {triplet.id}")
        applied.append(triplet)
    return ComposeResult(current, tuple(warnings))
