"""Intervention search: which profile repairs actually fix the system.

Given a passing and a failing dataset plus a malfunction oracle, the
engine computes the discriminative triplets, then either greedily tries
the most promising repair one at a time or batch-tests halves of the
candidate set (group testing over the triplet dependency graph). Either
way the returned explanation is deletion-minimal: dropping any single
member pushes the oracle back above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import (
    DatacauseError,
    NoExplanationFound,
    OracleError,
    SchemaError,
    TransformFailure,
    ValidationError,
)
from .graph import (
    PvtDependencyGraph,
    best_bisection,
    build_dependency_graph,
    build_pvt_attribute_graph,
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
from .tabular import Dataset
from .transforms import (
    POSTCONDITION_TOL,
    PvtTriplet,
    compose,
    coverage,
    make_triplets,
    transform,
)

ALGORITHMS = ("greedy", "group_test", "group_test_random")
PARAM_TOLERANCE = 1e-9
MAX_REFITS = 10  # failed conjunctions the decision tree learns from before giving up


@dataclass(frozen=True)
class EngineConfig:
    tau: float
    seed: int = 0
    max_interventions: int = 1000
    algorithm: str = "greedy"
    a3: str = "warn"  # "warn" records assumption violations, "strict" falls back to greedy
    # domain knowledge: per-attribute categorical replacements overriding
    # the frequency-rank alignment, e.g. {"target": {"0": "-1", "4": "1"}}
    remap_overrides: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {self.tau}")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if self.a3 not in ("warn", "strict"):
            raise ValidationError(f"a3 must be 'warn' or 'strict', got {self.a3!r}")
        if self.max_interventions < 1:
            raise ValidationError("max_interventions must be positive")


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
    """One entry per counted intervention plus free-form notes."""

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
    repaired_fingerprint: str
    interventions: int
    log: InterventionLog
    repaired: Dataset

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


class _A3Abort(DatacauseError):
    """Internal: strict mode detected a group-testing assumption violation."""


class _Run:
    """Per-run state: oracle access with budget enforcement and logging."""

    def __init__(self, oracle: MalfunctionOracle, config: EngineConfig,
                 log: InterventionLog | None = None):
        self.oracle = oracle
        self.config = config
        self.log = log if log is not None else InterventionLog()
        # group evaluations that failed to reduce, for A3 diagnostics
        self._flat_groups: list[frozenset[str]] = []

    def query(self, dataset: Dataset, triplet_ids: tuple[str, ...],
              pre_score: float, warnings: tuple[str, ...] = ()) -> float:
        if not self.oracle.is_cached(dataset) and \
                self.oracle.intervention_count() >= self.config.max_interventions:
            raise NoExplanationFound(
                f"intervention budget ({self.config.max_interventions}) exhausted",
                log=self.log)
        before = self.oracle.intervention_count()
        try:
            score = self.oracle.evaluate(dataset)
        except OracleError as exc:
            exc.log = self.log  # abort the run, but keep the log reachable
            raise
        if self.oracle.intervention_count() > before:
            self.log.entries.append(LogEntry(
                triplet_ids, pre_score, score, accepted=score < pre_score,
                warnings=warnings))
        self._check_a3(triplet_ids, pre_score, score)
        return score

    def _check_a3(self, triplet_ids: tuple[str, ...], pre: float, post: float) -> None:
        if len(triplet_ids) >= 2 and post >= pre:
            self._flat_groups.append(frozenset(triplet_ids))
            return
        if len(triplet_ids) == 1 and post < pre:
            member = triplet_ids[0]
            for group in self._flat_groups:
                if member in group:
                    note = (f"group-testing assumption violated: {member} reduces the "
                            f"score but a composed group containing it did not")
                    self.log.notes.append(note)
                    if self.config.a3 == "strict":
                        raise _A3Abort(note)
                    return

    def transform(self, dataset: Dataset, triplet: PvtTriplet) -> Dataset:
        return transform(dataset, triplet, seed=self.config.seed,
                         remap_overrides=self.config.remap_overrides)

    def compose(self, triplets, dataset: Dataset):
        return compose(triplets, dataset, seed=self.config.seed,
                       remap_overrides=self.config.remap_overrides)


# --- discriminative triplets -------------------------------------------------


def discriminative_pvts(d_pass: Dataset, d_fail: Dataset,
                        config: EngineConfig | None = None) -> list[PvtTriplet]:
    """Triplets whose profiles hold on the passing dataset but take different
    parameter values on the failing one.

    Profiles identical across both datasets (same kind, attributes and
    parameters within 1e-9) are discarded; dependence profiles additionally
    need the failing-side statistic to be significant at p <= 0.05.
    Discovery has no settings, so ``config`` is accepted but unused.
    """
    if not d_pass.same_schema(d_fail):
        raise SchemaError("pass and fail datasets must share a schema")
    predicates = enumerate_selectivity_predicates(d_pass, d_fail)
    profiles_pass = discover_profiles(d_pass, predicates)
    profiles_fail = {p.identity(): p for p in discover_profiles(d_fail, predicates)}

    discriminative: list[Profile] = []
    for profile in profiles_pass:
        twin = profiles_fail.get(profile.identity())
        if twin is not None and profile.same_parameters(twin, tol=PARAM_TOLERANCE):
            continue
        if profile.significant(d_fail):
            discriminative.append(profile)

    degrees: dict[str, int] = {}
    for profile in discriminative:
        for attribute in profile.attributes():
            degrees[attribute] = degrees.get(attribute, 0) + 1

    def perturb_target(profile: Profile) -> str | None:
        if not isinstance(profile, DependenceBound):
            return None
        # rewrite the endpoint entangled with more discriminative profiles;
        # ties go to the lexicographically first attribute
        a, b = profile.attributes()
        return min((a, b), key=lambda x: (-degrees.get(x, 0), x))

    triplets: list[PvtTriplet] = []
    for profile in discriminative:
        triplets.extend(make_triplets(profile, perturb=perturb_target(profile)))
    triplets.sort(key=lambda t: t.sort_key)
    return triplets


def benefit_score(triplet: PvtTriplet, dataset: Dataset, seed: int = 0,
                  max_iterations: int = 40) -> float:
    """Violation times coverage: a prior on which repair to try first."""
    v = violation(dataset, triplet.profile)
    c = coverage(dataset, triplet, seed=seed, max_iterations=max_iterations)
    return v * c


# --- shared plumbing ----------------------------------------------------------


def _validate_inputs(d_pass: Dataset, d_fail: Dataset, oracle: MalfunctionOracle,
                     config: EngineConfig) -> tuple[float, float]:
    score_pass = oracle.evaluate(d_pass, baseline=True)
    score_fail = oracle.evaluate(d_fail, baseline=True)
    if score_pass > config.tau:
        raise ValidationError(
            f"passing dataset scores {score_pass:.4g} above tau {config.tau:.4g}")
    if score_fail <= config.tau:
        raise ValidationError(
            f"failing dataset scores {score_fail:.4g}, already within tau "
            f"{config.tau:.4g}; nothing to explain")
    return score_pass, score_fail


def _safe_benefit(triplet: PvtTriplet, dataset: Dataset, config: EngineConfig,
                  log: InterventionLog) -> float:
    try:
        return benefit_score(triplet, dataset, seed=config.seed)
    except TransformFailure as exc:
        log.notes.append(f"benefit of {triplet.id} treated as 0: {exc}")
        return 0.0


def make_minimal(x_star, d_fail: Dataset, oracle: MalfunctionOracle,
                 config: EngineConfig, log: InterventionLog | None = None) -> list[PvtTriplet]:
    """Drop members one at a time while the remainder still passes.

    Restarts the scan after each successful drop and stops when no single
    deletion keeps the composed repair at or below tau, so the result is
    deletion-minimal.
    """
    run = _Run(oracle, config, log)
    baseline = oracle.evaluate(d_fail, baseline=True)
    current = list(x_star)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            trial = current[:i] + current[i + 1:]
            try:
                composed = run.compose(trial, d_fail)
            except TransformFailure as exc:
                run.log.notes.append(
                    f"minimality probe without {current[i].id} failed to compose: {exc}")
                continue
            score = run.query(composed.dataset, tuple(t.id for t in trial),
                              baseline, warnings=composed.warnings)
            if score <= config.tau:
                current = trial
                changed = True
                break
    return current


def _finalize(x_star: list[PvtTriplet], d_fail: Dataset, run: _Run,
              fail_score: float) -> Explanation:
    config = run.config
    composed = run.compose(x_star, d_fail)
    final_score = run.query(composed.dataset, tuple(t.id for t in x_star),
                            fail_score, warnings=composed.warnings)
    if final_score > config.tau:  # pragma: no cover - minimality already verified this
        raise NoExplanationFound(
            f"final verification scored {final_score:.4g} above tau", log=run.log)
    return Explanation(
        triplets=tuple(x_star),
        final_score=final_score,
        repaired_fingerprint=composed.dataset.fingerprint,
        interventions=run.oracle.intervention_count(),
        log=run.log,
        repaired=composed.dataset,
    )


# --- greedy ------------------------------------------------------------------


def explain_greedy(d_pass: Dataset, d_fail: Dataset, oracle: MalfunctionOracle,
                   config: EngineConfig) -> Explanation:
    """One repair at a time: among triplets adjacent to a highest-degree
    attribute, try the highest-benefit one; keep it only if the score drops.

    Tried triplets are never retried. Accepting a repair prunes candidates
    whose profiles the new dataset already satisfies and refreshes the
    benefit of candidates sharing an attribute with the accepted one.
    """
    run = _Run(oracle, config)
    _, fail_score = _validate_inputs(d_pass, d_fail, oracle, config)
    candidates = discriminative_pvts(d_pass, d_fail)
    if not candidates:
        raise NoExplanationFound("no discriminative profiles between the datasets",
                                 log=run.log)
    build_pvt_attribute_graph(candidates, d_fail)  # validates attribute references
    benefit: dict[str, float] = {
        t.id: _safe_benefit(t, d_fail, config, run.log) for t in candidates}
    remaining = {t.id: t for t in candidates}
    accepted: list[PvtTriplet] = []
    current = d_fail
    score = fail_score
    while score > config.tau:
        if not remaining:
            raise NoExplanationFound(
                f"candidates exhausted with score {score:.4g} above tau "
                f"{config.tau:.4g}", log=run.log)
        degrees: dict[str, int] = {}
        for t in remaining.values():
            for attribute in t.profile.attributes():
                degrees[attribute] = degrees.get(attribute, 0) + 1
        top = max(degrees.values())
        hot = {a for a, d in degrees.items() if d == top}
        pool = sorted((t for t in remaining.values()
                       if hot.intersection(t.profile.attributes())),
                      key=lambda t: t.sort_key)
        chosen = max(pool, key=lambda t: benefit[t.id])
        del remaining[chosen.id]
        try:
            candidate = run.transform(current, chosen)
        except TransformFailure as exc:
            run.log.notes.append(f"{chosen.id} untestable: {exc}")
            continue
        new_score = run.query(candidate, (chosen.id,), score)
        if new_score >= score:
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
                benefit[t.id] = _safe_benefit(t, current, config, run.log)
    x_star = make_minimal(accepted, d_fail, oracle, config, log=run.log)
    return _finalize(x_star, d_fail, run, fail_score)


# --- group testing -------------------------------------------------------------


def group_test(xs, dataset: Dataset, g_pd: PvtDependencyGraph,
               oracle: MalfunctionOracle, config: EngineConfig,
               log: InterventionLog | None = None,
               random_partition: bool = False) -> tuple[Dataset, list[PvtTriplet]]:
    """Adaptive group intervention over the candidate set.

    Recursively bisects the candidates (minimum bisection of the dependency
    graph, or a seeded random split for the classical baseline), composes
    and scores each half, and descends only into halves that help. Assumes
    a composed repair helps iff some constituent repair helps.
    """
    run = _Run(oracle, config, log)
    return _group_test(run, list(xs), dataset, g_pd, random_partition)


def _group_test(run: _Run, xs: list[PvtTriplet], dataset: Dataset,
                g_pd: PvtDependencyGraph,
                random_partition: bool) -> tuple[Dataset, list[PvtTriplet]]:
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
    if random_partition:
        half1_ids, half2_ids = random_balanced_split(ids, split_seed)
    else:
        half1_ids, half2_ids = best_bisection(g_pd, ids, split_seed)
    half1 = [t for t in xs if t.id in set(half1_ids)]
    half2 = [t for t in xs if t.id in set(half2_ids)]
    base_score = run.query(dataset, (), 1.0)

    def try_group(group: list[PvtTriplet]) -> float:
        try:
            composed = run.compose(group, dataset)
        except TransformFailure as exc:
            run.log.notes.append(
                f"group {[t.id for t in group]} failed to compose: {exc}")
            return base_score
        return run.query(composed.dataset, tuple(t.id for t in group),
                         base_score, warnings=composed.warnings)

    score1 = try_group(half1)
    score2 = None
    if score1 > config.tau:
        score2 = try_group(half2)
    found: list[PvtTriplet] = []
    if score1 <= config.tau or (score1 < base_score and score2 is not None
                                and score2 > config.tau):
        dataset, sub = _group_test(run, half1, dataset, g_pd, random_partition)
        found.extend(sub)
        if score1 <= config.tau:
            return dataset, found
    if score2 is not None and score2 < base_score:
        dataset, sub = _group_test(run, half2, dataset, g_pd, random_partition)
        found.extend(sub)
    return dataset, found


def explain_group_testing(d_pass: Dataset, d_fail: Dataset, oracle: MalfunctionOracle,
                          config: EngineConfig) -> Explanation:
    """Group-testing search over the discriminative triplets, then minimality."""
    run = _Run(oracle, config)
    _, fail_score = _validate_inputs(d_pass, d_fail, oracle, config)
    candidates = discriminative_pvts(d_pass, d_fail)
    if not candidates:
        raise NoExplanationFound("no discriminative profiles between the datasets",
                                 log=run.log)
    g_pa = build_pvt_attribute_graph(candidates, d_fail)
    g_pd = build_dependency_graph(g_pa)
    random_partition = config.algorithm == "group_test_random"
    try:
        _, found = _group_test(run, candidates, d_fail, g_pd, random_partition)
    except _A3Abort:
        run.log.notes.append("falling back to the greedy search (strict assumption mode)")
        return explain_greedy(d_pass, d_fail, oracle,
                              replace(config, algorithm="greedy"))
    unique = sorted({t.id: t for t in found}.values(), key=lambda t: t.sort_key)
    if not unique:
        raise NoExplanationFound("group testing found no score-reducing repairs",
                                 log=run.log)
    try:
        composed = run.compose(unique, d_fail)
    except TransformFailure as exc:
        raise NoExplanationFound(f"collected repairs failed to compose: {exc}",
                                 log=run.log) from exc
    verify = run.query(composed.dataset, tuple(t.id for t in unique), fail_score,
                       warnings=composed.warnings)
    if verify > config.tau:
        raise NoExplanationFound(
            f"collected repairs only reach {verify:.4g}, above tau {config.tau:.4g}",
            log=run.log)
    x_star = make_minimal(unique, d_fail, oracle, config, log=run.log)
    return _finalize(x_star, d_fail, run, fail_score)


def explain(d_pass: Dataset, d_fail: Dataset, oracle: MalfunctionOracle,
            config: EngineConfig) -> Explanation:
    """Dispatch on the configured algorithm."""
    if config.algorithm == "greedy":
        return explain_greedy(d_pass, d_fail, oracle, config)
    return explain_group_testing(d_pass, d_fail, oracle, config)


# --- decision-tree extension ---------------------------------------------------


@dataclass
class _TreeNode:
    feature: int | None = None
    left: "_TreeNode | None" = None   # feature satisfied
    right: "_TreeNode | None" = None  # feature violated
    label: bool | None = None         # leaf: pure pass / pure fail majority
    pure: bool = False


def _gini(labels: list[bool]) -> float:
    if not labels:
        return 0.0
    p = sum(labels) / len(labels)
    return 2.0 * p * (1.0 - p)


def _fit_tree(rows: list[tuple[tuple[bool, ...], bool]], features: list[int],
              depth: int, max_depth: int) -> _TreeNode:
    labels = [label for _, label in rows]
    if len(set(labels)) <= 1 or depth >= max_depth or not features:
        majority = sum(labels) * 2 >= len(labels)
        return _TreeNode(label=majority, pure=len(set(labels)) <= 1)
    parent = _gini(labels)
    best_gain, best_feature = 0.0, None
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
        majority = sum(labels) * 2 >= len(labels)
        return _TreeNode(label=majority, pure=len(set(labels)) <= 1)
    rest = [f for f in features if f != best_feature]
    left_rows = [r for r in rows if r[0][best_feature]]
    right_rows = [r for r in rows if not r[0][best_feature]]
    return _TreeNode(
        feature=best_feature,
        left=_fit_tree(left_rows, rest, depth + 1, max_depth),
        right=_fit_tree(right_rows, rest, depth + 1, max_depth),
    )


def _pure_pass_paths(node: _TreeNode, required: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    if node.feature is None:
        if node.pure and node.label:
            return [required]
        return []
    paths = _pure_pass_paths(node.left, required + (node.feature,))
    paths += _pure_pass_paths(node.right, required)
    return paths


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
    failing = [d for d, ok in labeled if not ok]
    if not failing:
        raise ValidationError("all datasets pass; nothing to explain")
    if not passing:
        raise ValidationError("need at least one passing dataset")
    run = _Run(oracle, config)
    for d, _ in labeled:  # provided observations are inputs, not interventions
        oracle.mark_baseline(d)
    fail_score = oracle.evaluate(d_fail, baseline=True)
    if fail_score <= config.tau:
        raise ValidationError("failing dataset already scores within tau")

    profiles: list[Profile] = []
    seen_ids: set[tuple] = set()
    for d in passing:
        for t in discriminative_pvts(d, d_fail):
            key = t.profile.identity()
            if key not in seen_ids:
                seen_ids.add(key)
                profiles.append(t.profile)
    if not profiles:
        raise NoExplanationFound("no discriminative profiles to learn from", log=run.log)
    profiles.sort(key=lambda p: (p.attributes(), p.kind.value, p.label()))
    variants = {p.label(): make_triplets(p) for p in profiles}

    def features_of(dataset: Dataset) -> tuple[bool, ...]:
        flags = []
        for p in profiles:
            try:
                flags.append(violation(dataset, p) <= POSTCONDITION_TOL)
            except DatacauseError:
                flags.append(False)
        return tuple(flags)

    benefit_cache = {p.label(): max(
        (_safe_benefit(t, d_fail, config, run.log) for t in variants[p.label()]),
        default=0.0) for p in profiles}

    def repair_set(conj: tuple[int, ...]) -> list[PvtTriplet] | None:
        chosen = []
        for f in conj:
            options = variants[profiles[f].label()]
            picked = None
            probe = d_fail
            for option in options:
                try:
                    run.transform(probe, option)
                    picked = option
                    break
                except TransformFailure:
                    continue
            if picked is None:
                return None
            chosen.append(picked)
        return chosen

    rows = [(features_of(d), ok) for d, ok in labeled]
    tested: set[tuple[int, ...]] = set()
    refits = 0
    while True:
        tree = _fit_tree(rows, list(range(len(profiles))), 0, max_depth=8)
        paths = [tuple(sorted(p)) for p in _pure_pass_paths(tree) if p]
        paths = [p for p in dict.fromkeys(paths) if p not in tested]
        paths.sort(key=lambda conj: (-sum(benefit_cache[profiles[f].label()] for f in conj),
                                     conj))
        progressed = False
        for conj in paths:
            tested.add(conj)
            triplets = repair_set(conj)
            if triplets is None:
                run.log.notes.append(
                    f"conjunction {[profiles[f].label() for f in conj]} untransformable")
                continue
            try:
                composed = run.compose(triplets, d_fail)
            except TransformFailure as exc:
                run.log.notes.append(f"conjunction failed to compose: {exc}")
                continue
            score = run.query(composed.dataset, tuple(t.id for t in triplets),
                              fail_score, warnings=composed.warnings)
            if score <= config.tau:
                x_star = make_minimal(triplets, d_fail, oracle, config, log=run.log)
                return _finalize(x_star, d_fail, run, fail_score)
            rows.append((features_of(composed.dataset), False))
            refits += 1
            progressed = True
            if refits > MAX_REFITS:
                raise NoExplanationFound(
                    f"decision tree exhausted {MAX_REFITS} refits", log=run.log)
            break
        if not progressed:
            raise NoExplanationFound("decision tree found no passing conjunction",
                                     log=run.log)
