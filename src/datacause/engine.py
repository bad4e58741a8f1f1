"""Intervention search: which profile repairs actually fix the system.

Given a passing and a failing dataset plus a malfunction oracle, the
engine computes the discriminative triplets, then either greedily tries
the most promising repair one at a time or batch-tests halves of the
candidate set (group testing over the triplet dependency graph). Either
way the returned explanation is deletion-minimal: dropping any single
member pushes the oracle back above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from .errors import (
    DatacauseError,
    DegenerateInputError,
    NoExplanationFound,
    OracleError,
    SchemaError,
    TransformFailure,
    ValidationError,
    check_types,
)
from .graph import (
    attribute_degrees,
    best_bisection,
    build_dependency_graph,
    random_balanced_split,
)
from .oracle import MalfunctionOracle
from .profiles import (
    DependenceBound,
    Profile,
    discover_profiles,
    enumerate_selectivity_predicates,
    violation,
)
from .tabular import Dataset, TallyScope
from .transforms import (
    POSTCONDITION_TOL,
    PvtTriplet,
    compose,
    coverage,
    make_triplets,
    repair_once,
)

ALGORITHMS = ("greedy", "group_test", "group_test_random")
MAX_REFITS = 10  # failed conjunctions the decision tree learns from before giving up
MAX_TREE_DEPTH = 8


@dataclass(frozen=True)
class EngineConfig:
    tau: float
    seed: int = 0
    max_interventions: int = 1000
    algorithm: str = "greedy"
    # domain knowledge: per-attribute categorical replacements overriding
    # the frequency-rank alignment, e.g. {"target": {"0": "-1", "4": "1"}}
    remap_overrides: dict | None = None

    def __post_init__(self):
        check_types(self, {"tau": (int, float), "seed": int, "max_interventions": int},
                    ValidationError)
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {self.tau}")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if self.max_interventions < 1:
            raise ValidationError("max_interventions must be positive")
        if self.remap_overrides is not None and not (
                isinstance(self.remap_overrides, dict) and all(
                    isinstance(attribute, str) and isinstance(mapping, dict)
                    and all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items())
                    for attribute, mapping in self.remap_overrides.items())):
            raise ValidationError("remap_overrides must map each attribute to an object "
                                  f"of string replacements, got {self.remap_overrides!r}")


@dataclass(frozen=True)
class LogEntry:
    triplet_ids: tuple[str, ...]
    pre_score: float
    post_score: float
    accepted: bool
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "triplets": list(self.triplet_ids),
            "pre_score": self.pre_score,
            "post_score": self.post_score,
            "accepted": self.accepted,
            "warnings": list(self.warnings),
        }


@dataclass
class InterventionLog:
    """One entry per intervention of a run, plus free-form notes."""

    entries: list[LogEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"entries": [e.to_json_dict() for e in self.entries],
                "notes": list(self.notes)}


@dataclass(frozen=True)
class Explanation:
    """A verified minimal set of triplets that repairs the failing dataset."""

    triplets: tuple[PvtTriplet, ...]
    final_score: float
    log: InterventionLog
    repaired: Dataset

    @property
    def interventions(self) -> int:
        return len(self.log.entries)

    @property
    def repaired_fingerprint(self) -> str:
        return self.repaired.fingerprint

    def triplet_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.triplets)

    def to_json_dict(self) -> dict:
        return {
            "triplets": [
                {"id": t.id, "transform": t.transform_id,
                 "perturbs": t.perturb, "profile": t.profile.to_json_dict()}
                for t in self.triplets
            ],
            "final_score": self.final_score,
            "interventions": self.interventions,
            "repaired_fingerprint": self.repaired_fingerprint,
            "log": self.log.to_json_dict(),
        }


class _Run(TallyScope):
    """Per-run state: the run's interventions, their budget and their log.

    An intervention is a scorer call the run makes on a dataset it built,
    and each one gets exactly one log entry. Used as a context manager, the
    run attaches its log to a :class:`NoExplanationFound` or
    :class:`OracleError` that ends it.

    A run is a :class:`~datacause.tabular.TallyScope`: entered, it counts
    each tuple of dataset columns once and makes each repair once, or joins
    the scope already open. Its :meth:`transform` and :meth:`compose` bind
    the run's seed and overrides.
    """

    def __init__(self, oracle: MalfunctionOracle, config: EngineConfig,
                 log: InterventionLog | None = None):
        self.oracle = oracle
        self.config = config
        self.log = log if log is not None else InterventionLog()
        # members of group evaluations that failed to reduce, for A3 diagnostics
        self._flat_members: set[str] = set()

    def __exit__(self, exc_type, exc, traceback) -> None:
        super().__exit__(exc_type, exc, traceback)
        if isinstance(exc, (NoExplanationFound, OracleError)):
            exc.log = self.log

    def query(self, dataset: Dataset, triplet_ids: tuple[str, ...],
              pre_score: float, warnings: tuple[str, ...] = ()) -> float:
        fresh = not self.oracle.is_cached(dataset)
        if fresh and len(self.log.entries) >= self.config.max_interventions:
            raise NoExplanationFound(
                f"intervention budget ({self.config.max_interventions}) exhausted")
        score = self.oracle.evaluate(dataset)
        if fresh:
            self.log.entries.append(LogEntry(
                triplet_ids, pre_score, score, accepted=score < pre_score,
                warnings=warnings))
        self._check_a3(triplet_ids, pre_score, score)
        return score

    def _check_a3(self, triplet_ids: tuple[str, ...], pre: float, post: float) -> None:
        if len(triplet_ids) >= 2 and post >= pre:
            self._flat_members.update(triplet_ids)
        elif len(triplet_ids) == 1 and post < pre:
            member = triplet_ids[0]
            if member in self._flat_members:
                self.log.notes.append(
                    f"group-testing assumption violated: {member} reduces the "
                    f"score but a composed group containing it did not")

    def transform(self, dataset: Dataset, triplet: PvtTriplet) -> Dataset:
        return repair_once(dataset, triplet, seed=self.config.seed,
                           remap_overrides=self.config.remap_overrides)

    def compose(self, triplets, dataset: Dataset):
        return compose(triplets, dataset, seed=self.config.seed,
                       remap_overrides=self.config.remap_overrides)

    def attempt(self, triplets: list[PvtTriplet], dataset: Dataset, pre_score: float,
                failure: str) -> tuple[float | None, Dataset | None]:
        """Score ``triplets`` composed on ``dataset``: one intervention. A failed
        composition is noted as ``failure: reason`` and gives (None, None)."""
        try:
            composed = self.compose(triplets, dataset)
        except TransformFailure as exc:
            self.log.notes.append(f"{failure}: {exc}")
            return None, None
        score = self.query(composed.dataset, tuple(t.id for t in triplets), pre_score,
                           warnings=composed.warnings)
        return score, composed.dataset


# --- discriminative triplets -------------------------------------------------


def discriminative_pvts(d_pass: Dataset, d_fail: Dataset,
                        config: EngineConfig | None = None) -> list[PvtTriplet]:
    """Triplets whose profiles hold on the passing dataset but take different
    parameter values on the failing one.

    Profiles identical across both datasets (same kind, attributes and
    parameters within ``PARAM_TOLERANCE``) are discarded; dependence
    profiles additionally need the failing-side statistic to be significant
    at p <= 0.05.
    Discovery has no settings, so ``config`` is accepted but unused.
    """
    if not d_pass.same_schema(d_fail):
        raise SchemaError("pass and fail datasets must share a schema")
    with TallyScope():
        predicates = enumerate_selectivity_predicates(d_pass, d_fail)
        profiles_pass = discover_profiles(d_pass, predicates)
        profiles_fail = {p.label(): p for p in discover_profiles(d_fail, predicates)}

        discriminative: list[Profile] = []
        for profile in profiles_pass:
            twin = profiles_fail.get(profile.label())
            if twin is not None and profile.same_parameters(twin):
                continue
            if profile.significant(d_fail):
                discriminative.append(profile)

    degrees = attribute_degrees(discriminative)

    def perturb_target(profile: Profile) -> str | None:
        if not isinstance(profile, DependenceBound):
            return None
        # rewrite the endpoint entangled with more discriminative profiles;
        # ties go to the lexicographically first attribute
        a, b = profile.attributes()
        return min((a, b), key=lambda x: (-degrees[x], x))

    triplets: list[PvtTriplet] = []
    for profile in discriminative:
        triplets.extend(make_triplets(profile, perturb=perturb_target(profile)))
    triplets.sort(key=lambda t: t.sort_key)
    return triplets


def benefit_score(triplet: PvtTriplet, dataset: Dataset, seed: int = 0) -> float:
    """Violation times coverage: a prior on which repair to try first."""
    with TallyScope():
        v = violation(dataset, triplet.profile)
        c = coverage(dataset, triplet, seed=seed)
        return v * c


# --- shared plumbing ----------------------------------------------------------


def _check_inputs(d_fail: Dataset, others: list[Dataset]) -> None:
    """What a run checks before its first scorer call: every dataset has at
    least one row and shares the failing dataset's schema. Rows come first,
    since a header-only CSV has no cells to infer its column types from."""
    datasets = [d_fail, *others]
    if not all(d.row_count for d in datasets):
        raise DegenerateInputError("every pass and fail dataset needs at least one row")
    if not all(d.same_schema(d_fail) for d in datasets):
        raise SchemaError("pass and fail datasets must share a schema")


def _validate_inputs(d_pass: Dataset, d_fail: Dataset, oracle: MalfunctionOracle,
                     config: EngineConfig) -> float:
    """The failing dataset's score, once the inputs pass :func:`_check_inputs`
    and both baselines sit on the right side of tau."""
    _check_inputs(d_fail, [d_pass])
    score_pass = oracle.evaluate(d_pass)
    score_fail = oracle.evaluate(d_fail)
    if score_pass > config.tau:
        raise ValidationError(
            f"passing dataset scores {score_pass:.4g} above tau {config.tau:.4g}")
    if score_fail <= config.tau:
        raise ValidationError(
            f"failing dataset scores {score_fail:.4g}, already within tau "
            f"{config.tau:.4g}; nothing to explain")
    return score_fail


def _safe_benefit(run: _Run, triplet: PvtTriplet, dataset: Dataset) -> float:
    try:
        return benefit_score(triplet, dataset, seed=run.config.seed)
    except TransformFailure as exc:
        run.log.notes.append(f"benefit of {triplet.id} treated as 0: {exc}")
        return 0.0


def make_minimal(x_star, d_fail: Dataset, oracle: MalfunctionOracle,
                 config: EngineConfig, log: InterventionLog | None = None) -> list[PvtTriplet]:
    """Drop members one at a time while the remainder still passes.

    Restarts the scan after each successful drop and stops when no single
    deletion keeps the composed repair at or below tau, so the result is
    deletion-minimal.
    """
    baseline = oracle.evaluate(d_fail)
    with _Run(oracle, config, log) as run:
        return _minimize(run, x_star, d_fail, baseline)


def _minimize(run: _Run, x_star, d_fail: Dataset, baseline: float) -> list[PvtTriplet]:
    """The scan of :func:`make_minimal`, its probes made by ``run`` and
    scored against ``d_fail``'s ``baseline``."""
    current = list(x_star)
    while True:
        for i in range(len(current)):
            trial = current[:i] + current[i + 1:]
            score, _ = run.attempt(
                trial, d_fail, baseline,
                f"minimality probe without {current[i].id} failed to compose")
            if score is not None and score <= run.config.tau:
                current = trial
                break
        else:
            return current


def _finalize(run: _Run, members: list[PvtTriplet], d_fail: Dataset,
              fail_score: float) -> Explanation:
    """Make a set the oracle has seen pass deletion-minimal and report it.

    The minimality probes make their repairs in the run's scope but, as
    under :func:`make_minimal`, keep a group-testing assumption check of
    their own. The search or a probe composed the final set on ``d_fail``,
    so composing it again makes no repair; the closing query is a cache hit
    that runs the run's check on it.
    """
    probes = _Run(run.oracle, run.config, run.log)
    x_star = _minimize(probes, members, d_fail, fail_score)
    repaired = run.compose(x_star, d_fail).dataset
    final_score = run.query(repaired, tuple(t.id for t in x_star), fail_score)
    return Explanation(
        triplets=tuple(x_star),
        final_score=final_score,
        log=run.log,
        repaired=repaired,
    )


# --- greedy ------------------------------------------------------------------


def _greedy(run: _Run, candidates: list[PvtTriplet], d_fail: Dataset,
            fail_score: float) -> list[PvtTriplet]:
    """One repair at a time: among triplets adjacent to a highest-degree
    attribute, try the highest-benefit one; keep it only if the score drops.

    Tried triplets are never retried. Accepting a repair prunes candidates
    whose profiles the new dataset already satisfies and refreshes the
    benefit of candidates sharing an attribute with the accepted one.
    """
    config = run.config
    benefit: dict[str, float] = {t.id: _safe_benefit(run, t, d_fail) for t in candidates}
    remaining = {t.id: t for t in candidates}
    accepted: list[PvtTriplet] = []
    current = d_fail
    score = fail_score
    while score > config.tau:
        if not remaining:
            raise NoExplanationFound(
                f"candidates exhausted with score {score:.4g} above tau "
                f"{config.tau:.4g}")
        degrees = attribute_degrees(t.profile for t in remaining.values())
        top = max(degrees.values())
        hot = {a for a, d in degrees.items() if d == top}
        # ``remaining`` keeps the candidates' sort_key order, so ties go to the first
        chosen = max((t for t in remaining.values() if hot.intersection(t.profile.attributes())),
                     key=lambda t: benefit[t.id])
        del remaining[chosen.id]
        new_score, candidate = run.attempt([chosen], current, score, f"{chosen.id} untestable")
        if new_score is None or new_score >= score:
            continue
        current = candidate
        score = new_score
        accepted.append(chosen)
        touched = set(chosen.profile.attributes())
        for t in list(remaining.values()):
            try:
                residual = violation(current, t.profile)
            except DatacauseError as exc:
                run.log.notes.append(f"{t.id} dropped, violation unavailable: {exc}")
                del remaining[t.id]
                continue
            if residual <= POSTCONDITION_TOL:
                del remaining[t.id]
            elif touched.intersection(t.profile.attributes()):
                benefit[t.id] = _safe_benefit(run, t, current)
    return accepted


# --- group testing -------------------------------------------------------------


def _group_test(run: _Run, xs: list[PvtTriplet], dataset: Dataset,
                split: Callable[[list[str], int], tuple[Sequence[str], Sequence[str]]]
                ) -> tuple[Dataset, list[PvtTriplet]]:
    """Adaptive group intervention over the candidate set.

    Recursively splits the candidates' sorted ids in two with
    ``split(ids, seed)``, composes and scores each half, and descends only
    into halves that help. Assumes a composed repair helps iff some
    constituent repair helps.
    """
    config = run.config
    if len(xs) == 1:
        only = xs[0]
        try:
            return run.transform(dataset, only), [only]
        except TransformFailure as exc:
            run.log.notes.append(f"singleton {only.id} untransformable: {exc}")
            return dataset, []
    ids = sorted(t.id for t in xs)
    split_seed = (config.seed * 31 + len(ids) * 7 + sum(map(ord, "".join(ids)))) % (2 ** 31)
    first = set(split(ids, split_seed)[0])
    half1 = [t for t in xs if t.id in first]
    half2 = [t for t in xs if t.id not in first]
    base_score = run.query(dataset, (), 1.0)

    def try_group(group: list[PvtTriplet]) -> float:
        score, _ = run.attempt(group, dataset, base_score,
                               f"group {[t.id for t in group]} failed to compose")
        return base_score if score is None else score

    score1 = try_group(half1)
    if score1 <= config.tau:
        return _group_test(run, half1, dataset, split)
    score2 = try_group(half2)
    found: list[PvtTriplet] = []
    if score1 < base_score and score2 > config.tau:
        dataset, found = _group_test(run, half1, dataset, split)
    if score2 < base_score:
        dataset, sub = _group_test(run, half2, dataset, split)
        found += sub
    return dataset, found


def _group_testing(run: _Run, candidates: list[PvtTriplet], d_fail: Dataset,
                   fail_score: float) -> list[PvtTriplet]:
    """Group testing over the candidates, then one check that the repairs it
    collected pass together.

    The split is min-bisection of the candidates' dependency graph, or a
    seeded random split for ``group_test_random``. The halves it makes are
    disjoint, so each candidate is found at most once.
    """
    config = run.config
    split = (random_balanced_split if config.algorithm == "group_test_random"
             else partial(best_bisection, build_dependency_graph(candidates)))
    _, found = _group_test(run, candidates, d_fail, split)
    if not found:
        raise NoExplanationFound("group testing found no score-reducing repairs")
    found.sort(key=lambda t: t.sort_key)
    try:
        composed = run.compose(found, d_fail)
    except TransformFailure as exc:
        raise NoExplanationFound(f"collected repairs failed to compose: {exc}") from exc
    verify = run.query(composed.dataset, tuple(t.id for t in found), fail_score,
                       warnings=composed.warnings)
    if verify > config.tau:
        raise NoExplanationFound(
            f"collected repairs only reach {verify:.4g}, above tau {config.tau:.4g}")
    return found


def explain(d_pass: Dataset, d_fail: Dataset, oracle: MalfunctionOracle,
            config: EngineConfig) -> Explanation:
    """A deletion-minimal set of repairs that makes ``d_fail`` pass.

    ``config.algorithm`` picks the search over the discriminative triplets:
    greedy, or group testing with min-bisection or random splits. The search
    returns a set the oracle has seen pass; :func:`make_minimal` then drops
    every member the rest can do without.
    """
    fail_score = _validate_inputs(d_pass, d_fail, oracle, config)
    with _Run(oracle, config) as run:
        candidates = discriminative_pvts(d_pass, d_fail)
        if not candidates:
            raise NoExplanationFound("no discriminative profiles between the datasets")
        search = _greedy if config.algorithm == "greedy" else _group_testing
        members = search(run, candidates, d_fail, fail_score)
        return _finalize(run, members, d_fail, fail_score)


# --- decision-tree extension ---------------------------------------------------


def _gini(labels: list[bool]) -> float:
    p = sum(labels) / len(labels)
    return 2.0 * p * (1.0 - p)


def _pass_paths(rows: list[tuple[tuple[bool, ...], bool]], features: list[int],
                depth: int = 0, required: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """The features each pure passing leaf of a Gini tree over ``rows``
    requires satisfied, satisfied branch first. No node is empty, so a
    leaf is pure and passing iff all its labels pass."""
    labels = [label for _, label in rows]
    best_gain, best_feature = 0.0, None
    if len(set(labels)) > 1 and depth < MAX_TREE_DEPTH:
        parent = _gini(labels)
        for f in features:
            left = [label for sat, label in rows if sat[f]]
            right = [label for sat, label in rows if not sat[f]]
            if not left or not right:
                continue
            child = (len(left) * _gini(left) + len(right) * _gini(right)) / len(rows)
            gain = parent - child
            if gain > best_gain + 1e-12:
                best_gain, best_feature = gain, f
    if best_feature is None:
        return [required] if all(labels) else []
    rest = [f for f in features if f != best_feature]
    return (_pass_paths([r for r in rows if r[0][best_feature]], rest, depth + 1,
                        required + (best_feature,))
            + _pass_paths([r for r in rows if not r[0][best_feature]], rest, depth + 1,
                          required))


def decision_tree_explain(labeled, d_fail: Dataset, oracle: MalfunctionOracle,
                          config: EngineConfig) -> Explanation:
    """Explain via conjunctions read off a decision tree over profile
    satisfaction, for systems where repairs only help jointly.

    ``labeled`` is a sequence of (dataset, passed) observations containing
    at least one passing and one failing dataset. Candidate conjunctions
    are the profiles a pure passing leaf requires to be satisfied, tested
    in decreasing order of summed benefit; every failed attempt becomes a
    new failing training point and the tree is refit.
    """
    labeled = list(labeled)
    if len(labeled) < 2:
        raise ValidationError("need at least two labeled datasets")
    passing = [d for d, ok in labeled if ok]
    if len(passing) == len(labeled):
        raise ValidationError("all datasets pass; nothing to explain")
    if not passing:
        raise ValidationError("need at least one passing dataset")
    _check_inputs(d_fail, [d for d, _ in labeled])
    fail_score = oracle.evaluate(d_fail)
    if fail_score <= config.tau:
        raise ValidationError("failing dataset already scores within tau")
    with _Run(oracle, config) as run:
        unique: dict[str, Profile] = {}
        for d in passing:
            for t in discriminative_pvts(d, d_fail):
                unique.setdefault(t.profile.label(), t.profile)
        if not unique:
            raise NoExplanationFound("no discriminative profiles to learn from")
        profiles = sorted(unique.values(), key=lambda p: p.sort_key)
        variants = [make_triplets(p) for p in profiles]

        def features_of(dataset: Dataset) -> tuple[bool, ...]:
            flags = []
            for p in profiles:
                try:
                    flags.append(violation(dataset, p) <= POSTCONDITION_TOL)
                except DatacauseError:
                    flags.append(False)
            return tuple(flags)

        benefit = [max((_safe_benefit(run, t, d_fail) for t in options), default=0.0)
                   for options in variants]

        def transforms_d_fail(option: PvtTriplet) -> bool:
            try:
                run.transform(d_fail, option)
            except TransformFailure:
                return False
            return True

        def repair_set(conj: tuple[int, ...]) -> list[PvtTriplet] | None:
            chosen = [next(filter(transforms_d_fail, variants[f]), None) for f in conj]
            return None if None in chosen else chosen

        rows = [(features_of(d), ok) for d, ok in labeled]
        tested: set[tuple[int, ...]] = set()
        # a pass that neither returns nor gives up adds the failed conjunction as a row
        for _ in range(MAX_REFITS + 1):
            paths = {tuple(sorted(p)) for p in _pass_paths(rows, list(range(len(profiles)))) if p}
            for conj in sorted(paths - tested, key=lambda c: (-sum(benefit[f] for f in c), c)):
                tested.add(conj)
                triplets = repair_set(conj)
                if triplets is None:
                    run.log.notes.append(
                        f"conjunction {[profiles[f].label() for f in conj]} untransformable")
                    continue
                score, repaired = run.attempt(triplets, d_fail, fail_score,
                                              "conjunction failed to compose")
                if score is None:
                    continue
                if score <= config.tau:
                    return _finalize(run, triplets, d_fail, fail_score)
                rows.append((features_of(repaired), False))
                break
            else:
                raise NoExplanationFound("decision tree found no passing conjunction")
        raise NoExplanationFound(f"decision tree exhausted {MAX_REFITS} refits")
