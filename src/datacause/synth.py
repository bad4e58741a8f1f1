"""Synthetic pass/fail dataset pairs with planted causes and matching oracles.

Each scenario builds two datasets sharing a schema: the failing one breaks
exactly the planted profiles (plus inert decoy differences) and ships with
a closed-form oracle that responds only to repairs of the planted causes,
per the configured conjunctive or disjunctive logic. Everything is
deterministic under the scenario seed.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass

from .errors import ScenarioSpecError
from .oracle import CallableOracle, MalfunctionOracle
from .profiles import chi_square_from_counts, contingency_table
from .tabular import ColumnType, Dataset, from_columns

FAMILIES = ("domain-remap", "dependence-bias", "skew-timeout", "interaction-pair")
CAUSE_KINDS = ("domain", "missing", "dependence", "selectivity")


@dataclass(frozen=True)
class PlantedCause:
    kind: str
    attribute: str

    def __post_init__(self):
        if self.kind not in CAUSE_KINDS:
            raise ScenarioSpecError(f"unknown cause kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    oracle_family: str
    planted_causes: tuple[PlantedCause, ...]
    n_rows: int = 200
    n_attributes: int = 0  # extra identical filler attributes
    seed: int = 0
    cause_logic: str = "conjunctive"
    decoys: int = 0
    tau: float = 0.2

    def __post_init__(self):
        if self.oracle_family not in FAMILIES:
            raise ScenarioSpecError(f"unknown oracle family {self.oracle_family!r}")
        if self.cause_logic not in ("conjunctive", "disjunctive"):
            raise ScenarioSpecError(f"unknown cause logic {self.cause_logic!r}")
        if not self.planted_causes:
            raise ScenarioSpecError("at least one planted cause required")
        if self.n_rows < 40 or self.n_rows % 4:
            raise ScenarioSpecError("n_rows must be >= 40 and divisible by 4")
        if self.decoys < 0 or self.decoys + 4 > self.n_rows // 2:
            raise ScenarioSpecError("too many decoys for the row count")
        if not 0.0 <= self.tau <= 1.0:
            raise ScenarioSpecError("tau must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "oracle_family": self.oracle_family,
            "planted_causes": [{"kind": c.kind, "attribute": c.attribute}
                               for c in self.planted_causes],
            "n_rows": self.n_rows,
            "n_attributes": self.n_attributes,
            "seed": self.seed,
            "cause_logic": self.cause_logic,
            "decoys": self.decoys,
            "tau": self.tau,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ScenarioSpec":
        try:
            causes = tuple(PlantedCause(c["kind"], c["attribute"])
                           for c in data["planted_causes"])
            return ScenarioSpec(
                oracle_family=data["oracle_family"],
                planted_causes=causes,
                n_rows=int(data.get("n_rows", 200)),
                n_attributes=int(data.get("n_attributes", 0)),
                seed=int(data.get("seed", 0)),
                cause_logic=data.get("cause_logic", "conjunctive"),
                decoys=int(data.get("decoys", 0)),
                tau=float(data.get("tau", 0.2)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioSpecError(f"malformed scenario spec: {exc}") from exc


# --- cell helpers ------------------------------------------------------------


def _as_number(cell) -> float | None:
    if cell is None:
        return None
    if isinstance(cell, float):
        return cell
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _letters(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(length))


def _fixed_width_token(index: int, width: int = 10) -> str:
    out = []
    for _ in range(width):
        out.append(string.ascii_lowercase[index % 26])
        index //= 26
    return "".join(out)


def _mask_cells(rng: random.Random, cells: list, count: int,
                protected: set[int] = frozenset()) -> list:
    eligible = [i for i in range(len(cells)) if i not in protected]
    out = list(cells)
    for i in rng.sample(eligible, count):
        out[i] = None
    return out


# --- built-in oracle families -------------------------------------------------


def _bad_value_fraction(dataset: Dataset, attribute: str, allowed: set[float]) -> float:
    col = dataset.column(attribute)
    present = [v for v in col if v is not None]
    if not present:
        return 1.0
    bad = 0
    for v in present:
        num = _as_number(v)
        if num is None or num not in allowed:
            bad += 1
    return bad / len(present)


def _missing_fraction(dataset: Dataset, attribute: str) -> float:
    col = dataset.column(attribute)
    return sum(1 for v in col if v is None) / len(col) if col else 0.0


def _cramers_v(dataset: Dataset, a: str, b: str) -> float:
    table = contingency_table(dataset, a, b)
    span = min(len({k[0] for k in table}), len({k[1] for k in table})) - 1
    if span < 1:  # also an empty table
        return 0.0
    return math.sqrt(chi_square_from_counts(table) / (sum(table.values()) * span))


def _value_fraction(dataset: Dataset, attribute: str, value: str) -> float:
    col = dataset.column(attribute)
    if not col:
        return 0.0
    return sum(1 for v in col if v is not None and str(v) == value) / len(col)


def build_builtin_oracle(family: str, params: dict[str, str]) -> MalfunctionOracle:
    """Construct one of the closed-form scorers by name.

    Reachable from the CLI as ``builtin:<family>?key=value&...``.
    """
    if family == "domain-remap":
        allowed = {float(v) for v in params.get("allowed", "-1,1").split(",")}
        logic = params.get("logic", "conjunctive")
        domain_attrs = [a for a in params.get("domain", "").split(",") if a]
        missing_attrs = [a for a in params.get("missing", "").split(",") if a]
        units: dict[str, list[str]] = {}
        for a in domain_attrs:
            units.setdefault(a, []).append("domain")
        for a in missing_attrs:
            units.setdefault(a, []).append("missing")
        if not units:
            raise ScenarioSpecError("domain-remap oracle needs at least one cause attribute")

        def score(dataset: Dataset) -> float:
            credits = []
            for attribute, kinds in units.items():
                parts = []
                if "domain" in kinds:
                    parts.append(1.0 - _bad_value_fraction(dataset, attribute, allowed))
                if "missing" in kinds:
                    # hidden cells break the unit outright until imputed
                    parts.append(1.0 if _missing_fraction(dataset, attribute) == 0.0 else 0.0)
                credits.append(sum(parts) / len(parts))
            if logic == "disjunctive":
                return 1.0 - max(credits)
            return 1.0 - sum(credits) / len(credits)

        return CallableOracle(score)

    if family == "dependence-bias":
        target = params.get("target", "target")
        protected = params.get("protected", "c1")
        skew = params.get("skew", "")
        skew_value = params.get("skew_value", "hi")
        skew_limit = float(params.get("skew_limit", "0.2"))

        def score(dataset: Dataset) -> float:
            dep = min(1.0, _cramers_v(dataset, target, protected))
            if not skew:
                return dep
            frac = _value_fraction(dataset, skew, skew_value)
            excess = max(0.0, (frac - skew_limit) / (1.0 - skew_limit))
            return max(dep, excess)

        return CallableOracle(score)

    if family == "skew-timeout":
        attribute = params.get("attribute", "plate_type")
        value = params.get("value", "black")
        limit = float(params.get("limit", "0.3"))

        def score(dataset: Dataset) -> float:
            frac = _value_fraction(dataset, attribute, value)
            return max(0.0, (frac - limit) / (1.0 - limit))

        return CallableOracle(score)

    if family == "interaction-pair":
        attrs = [a for a in params.get("attributes", "").split(",") if a]
        if len(attrs) != 2:
            raise ScenarioSpecError("interaction-pair oracle needs exactly two attributes")

        def score(dataset: Dataset) -> float:
            broken = any(_missing_fraction(dataset, a) > 0 for a in attrs)
            return 1.0 if broken else 0.0

        return CallableOracle(score)

    if family == "missing-flag":
        attribute = params.get("attribute", "")
        if not attribute:
            raise ScenarioSpecError("missing-flag oracle needs an attribute")

        def score(dataset: Dataset) -> float:
            return 1.0 if _missing_fraction(dataset, attribute) > 0 else 0.0

        return CallableOracle(score)

    raise ScenarioSpecError(f"unknown builtin oracle family {family!r}")


def builtin_oracle(argument: str) -> MalfunctionOracle:
    """The scorer a ``builtin:<family>?key=value&...`` string names."""
    family, _, query = argument[len("builtin:"):].partition("?")
    params = dict(piece.partition("=")[::2] for piece in query.split("&") if piece)
    return build_builtin_oracle(family, params)


def oracle_argument(spec: ScenarioSpec) -> str:
    """The ``--oracle`` string reconstructing this scenario's builtin scorer."""
    if spec.oracle_family == "domain-remap":
        domain = ",".join(c.attribute for c in spec.planted_causes if c.kind == "domain")
        missing = ",".join(c.attribute for c in spec.planted_causes if c.kind == "missing")
        parts = [f"logic={spec.cause_logic}"]
        if domain:
            parts.append(f"domain={domain}")
        if missing:
            parts.append(f"missing={missing}")
        return "builtin:domain-remap?" + "&".join(parts)
    if spec.oracle_family == "dependence-bias":
        has_skew = any(c.kind == "selectivity" for c in spec.planted_causes)
        target = next(c.attribute for c in spec.planted_causes if c.kind == "dependence")
        suffix = "&skew=usage_class" if has_skew else ""
        return f"builtin:dependence-bias?target={target}&protected=c1{suffix}"
    if spec.oracle_family == "skew-timeout":
        attribute = spec.planted_causes[0].attribute
        return f"builtin:skew-timeout?attribute={attribute}&value=black&limit=0.3"
    attrs = ",".join(c.attribute for c in spec.planted_causes)
    return f"builtin:interaction-pair?attributes={attrs}"


# --- generators ---------------------------------------------------------------


def _filler_columns(rng: random.Random, n_rows: int, count: int):
    cols = []
    for i in range(count):
        values = [round(rng.uniform(0, 50), 3) for _ in range(n_rows)]
        cols.append((f"filler_{i:02d}", ColumnType.NUMERICAL, values))
    return cols


def _decoy_text_column(rng: random.Random, name: str, n_rows: int, masked: int):
    """Same-shape text column in both datasets; the failing copy hides cells."""
    cells = [_fixed_width_token(rng.randrange(26 ** 9)) for _ in range(n_rows)]
    failing = _mask_cells(rng, cells, masked)
    return (name, ColumnType.TEXT, cells), (name, ColumnType.TEXT, failing)


def _note_columns(rng: random.Random, name: str, n_rows: int, short_fraction: float = 0.6):
    passing = [_letters(rng, rng.randint(30, 120)) for _ in range(n_rows)]
    failing = []
    for _ in range(n_rows):
        if rng.random() < short_fraction:
            failing.append(_letters(rng, rng.randint(5, 25)))
        else:
            failing.append(_letters(rng, rng.randint(35, 115)))
    return (name, ColumnType.TEXT, passing), (name, ColumnType.TEXT, failing)


def _two_point_column(name: str, n_rows: int, masked: int, rng: random.Random):
    cells = [0.0 if i % 2 == 0 else 100.0 for i in range(n_rows)]
    failing = _mask_cells(rng, cells, masked, protected={0, 1})
    return (name, ColumnType.NUMERICAL, cells), (name, ColumnType.NUMERICAL, failing)


def _generate_domain_remap(spec: ScenarioSpec):
    rng = random.Random(spec.seed * 1_000_003 + 17)
    n = spec.n_rows
    units: dict[str, list[str]] = {}
    for cause in spec.planted_causes:
        if cause.kind not in ("domain", "missing"):
            raise ScenarioSpecError(
                f"domain-remap supports domain/missing causes, got {cause.kind!r}")
        units.setdefault(cause.attribute, []).append(cause.kind)
    pass_cols = []
    fail_cols = []
    for attribute in sorted(units):
        kinds = units[attribute]
        good = ["-1" if i % 2 == 0 else "1" for i in range(n)]
        bad = ["0" if v == "-1" else "4" for v in good]
        if "domain" not in kinds:
            bad = list(good)
        if "missing" in kinds:
            bad = _mask_cells(rng, bad, max(2, n // 10))
        pass_cols.append((attribute, ColumnType.CATEGORICAL, good))
        fail_cols.append((attribute, ColumnType.CATEGORICAL, bad))
    note_pass, note_fail = _note_columns(rng, "review_note", n)
    pass_cols.append(note_pass)
    fail_cols.append(note_fail)
    flag_pass, flag_fail = _two_point_column("extra_flag", n, max(2, n // 10), rng)
    pass_cols.append(flag_pass)
    fail_cols.append(flag_fail)
    for d in range(spec.decoys):
        pass_col, fail_col = _decoy_text_column(rng, f"noise_{d:03d}", n, 2 + d)
        pass_cols.append(pass_col)
        fail_cols.append(fail_col)
    for col in _filler_columns(rng, n, spec.n_attributes):
        pass_cols.append(col)
        fail_cols.append(col)
    return from_columns(pass_cols), from_columns(fail_cols)


def _generate_dependence_bias(spec: ScenarioSpec):
    rng = random.Random(spec.seed * 1_000_003 + 29)
    n = spec.n_rows
    dependence = [c for c in spec.planted_causes if c.kind == "dependence"]
    skew = [c for c in spec.planted_causes if c.kind == "selectivity"]
    if len(dependence) != 1 or len(spec.planted_causes) - len(dependence) - len(skew):
        raise ScenarioSpecError(
            "dependence-bias needs exactly one dependence cause and optionally "
            "one selectivity cause")
    target = dependence[0].attribute
    protected = ["u" if i % 2 == 0 else "v" for i in range(n)]
    features = {"c1": protected}
    for j in range(2, 7):
        features[f"c{j}"] = [v if rng.random() >= 0.1 else ("u" if v == "v" else "v")
                             for v in protected]
    # failing target tracks the protected attribute with symmetric exceptions,
    # keeping the label marginal exactly balanced
    flips_per_group = round(0.15 * n / 2)
    u_rows = [i for i in range(n) if protected[i] == "u"]
    v_rows = [i for i in range(n) if protected[i] == "v"]
    flip = set(rng.sample(u_rows, flips_per_group)) | set(rng.sample(v_rows, flips_per_group))
    # non-numeric labels so CSV round-trips keep the column categorical
    fail_target = ["pos" if (protected[i] == "u") != (i in flip) else "neg"
                   for i in range(n)]
    # passing target: same label multiset, exactly balanced within each group
    pass_target: list[str] = [""] * n
    for rows in (u_rows, v_rows):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        for pos, i in enumerate(shuffled):
            pass_target[i] = "pos" if pos < len(rows) // 2 else "neg"
    pass_cols = [(target, ColumnType.CATEGORICAL, pass_target)]
    fail_cols = [(target, ColumnType.CATEGORICAL, fail_target)]
    for name in sorted(features):
        pass_cols.append((name, ColumnType.CATEGORICAL, features[name]))
        fail_cols.append((name, ColumnType.CATEGORICAL, features[name]))
    if skew:
        if skew[0].attribute != "usage_class":
            raise ScenarioSpecError("the selectivity cause attribute is 'usage_class'")
        hot_pass = round(0.2 * n)
        hot_fail = round(0.6 * n)
        pass_cols.append(("usage_class", ColumnType.CATEGORICAL,
                          ["hi" if i < hot_pass else "lo" for i in range(n)]))
        fail_cols.append(("usage_class", ColumnType.CATEGORICAL,
                          ["hi" if i < hot_fail else "lo" for i in range(n)]))
    for col in _filler_columns(rng, n, spec.n_attributes):
        pass_cols.append(col)
        fail_cols.append(col)
    return from_columns(pass_cols), from_columns(fail_cols)


def _generate_skew_timeout(spec: ScenarioSpec):
    rng = random.Random(spec.seed * 1_000_003 + 43)
    n = spec.n_rows
    if len(spec.planted_causes) != 1 or spec.planted_causes[0].kind != "selectivity":
        raise ScenarioSpecError("skew-timeout plants exactly one selectivity cause")
    attribute = spec.planted_causes[0].attribute
    hot_pass = round(0.2 * n)
    hot_fail = round(0.7 * n)
    pass_plate = ["black" if i < hot_pass else "white" for i in range(n)]
    fail_plate = ["black" if i < hot_fail else "white" for i in range(n)]
    note_pass, note_fail = _note_columns(rng, "capture_note", n, short_fraction=0.5)
    gain_pass, gain_fail = _two_point_column("sensor_gain", n, max(2, n // 10), rng)
    pass_cols = [(attribute, ColumnType.CATEGORICAL, pass_plate), note_pass, gain_pass]
    fail_cols = [(attribute, ColumnType.CATEGORICAL, fail_plate), note_fail, gain_fail]
    for col in _filler_columns(rng, n, spec.n_attributes):
        pass_cols.append(col)
        fail_cols.append(col)
    return from_columns(pass_cols), from_columns(fail_cols)


def _generate_interaction_pair(spec: ScenarioSpec):
    rng = random.Random(spec.seed * 1_000_003 + 59)
    n = spec.n_rows
    if len(spec.planted_causes) != 2 or any(c.kind != "missing" for c in spec.planted_causes):
        raise ScenarioSpecError("interaction-pair plants exactly two missing causes")
    if spec.cause_logic != "conjunctive":
        raise ScenarioSpecError("interaction-pair is conjunctive by construction")
    pass_cols = []
    fail_cols = []
    for cause in sorted(spec.planted_causes, key=lambda c: c.attribute):
        cells = ["u" if i % 2 == 0 else "v" for i in range(n)]
        fail_cols.append((cause.attribute, ColumnType.CATEGORICAL,
                          _mask_cells(rng, cells, max(2, n // 10))))
        pass_cols.append((cause.attribute, ColumnType.CATEGORICAL, cells))
    for d in range(max(2, spec.decoys)):
        note_pass, note_fail = _note_columns(rng, f"zz_note_{d}", n)
        pass_cols.append(note_pass)
        fail_cols.append(note_fail)
    for col in _filler_columns(rng, n, spec.n_attributes):
        pass_cols.append(col)
        fail_cols.append(col)
    return from_columns(pass_cols), from_columns(fail_cols)


_GENERATORS = {
    "domain-remap": _generate_domain_remap,
    "dependence-bias": _generate_dependence_bias,
    "skew-timeout": _generate_skew_timeout,
    "interaction-pair": _generate_interaction_pair,
}


def generate(spec: ScenarioSpec) -> tuple[Dataset, Dataset, MalfunctionOracle]:
    """Build (passing dataset, failing dataset, oracle) for a scenario; the
    oracle is the one :func:`oracle_argument` names."""
    d_pass, d_fail = _GENERATORS[spec.oracle_family](spec)
    return d_pass, d_fail, builtin_oracle(oracle_argument(spec))


def ground_truth(spec: ScenarioSpec) -> dict:
    """Planted causes and the admissible minimal explanations, unit by unit."""
    units: dict[str, list[str]] = {}
    for cause in spec.planted_causes:
        units.setdefault(cause.attribute, []).append(cause.kind)
    unit_list = [{"attribute": a, "cause_kinds": sorted(kinds)}
                 for a, kinds in sorted(units.items())]
    if spec.cause_logic == "disjunctive":
        admissible = [[{"attribute": u["attribute"], "cause_kinds": u["cause_kinds"]}]
                      for u in unit_list]
    else:
        admissible = [unit_list]
    return {
        "oracle_family": spec.oracle_family,
        "cause_logic": spec.cause_logic,
        "tau": spec.tau,
        "units": unit_list,
        "admissible_minimal_explanations": admissible,
        "oracle": oracle_argument(spec),
    }


# --- clustered pair scenario (group-testing comparisons) -----------------------


@dataclass(frozen=True)
class PairedCauseScenario:
    """Disjunctive root causes where each unit is a domain+missing pair on one
    attribute, so the triplets of a unit form a clique in the dependency graph."""

    units: int = 2
    junk_attributes: int = 2
    n_rows: int = 120
    seed: int = 0
    tau: float = 0.2
    logic: str = "disjunctive"


def generate_paired(scenario: PairedCauseScenario) -> tuple[Dataset, Dataset, MalfunctionOracle]:
    causes = []
    for i in range(scenario.units):
        causes.append(PlantedCause("domain", f"t{i + 1}"))
        causes.append(PlantedCause("missing", f"t{i + 1}"))
    spec = ScenarioSpec(
        oracle_family="domain-remap",
        planted_causes=tuple(causes),
        n_rows=scenario.n_rows,
        seed=scenario.seed,
        cause_logic=scenario.logic,
        decoys=0,
        tau=scenario.tau,
    )
    rng = random.Random(scenario.seed * 977 + 5)
    d_pass, d_fail, oracle = generate(spec)
    for j in range(scenario.junk_attributes):
        n = scenario.n_rows
        note_pass, note_fail = _note_columns(rng, f"junk_{j}", n)
        masked = max(2, n // 12)
        fail_cells = _mask_cells(rng, list(note_fail[2]), masked)
        cols_pass = [(a, t, list(d_pass.column(a))) for a, t in d_pass.schema]
        cols_fail = [(a, t, list(d_fail.column(a))) for a, t in d_fail.schema]
        cols_pass.append(note_pass)
        cols_fail.append((note_fail[0], note_fail[1], fail_cells))
        d_pass = from_columns(cols_pass)
        d_fail = from_columns(cols_fail)
    return d_pass, d_fail, oracle


# --- adversarial ranking --------------------------------------------------------


ADVERSARIAL_COLUMNS = 54
ADVERSARIAL_ROWS = 120


def adversarial_rank_scenario(seed: int) -> tuple[Dataset, Dataset, MalfunctionOracle]:
    """A scenario whose true cause ranks last by benefit.

    Every column carries one discriminative missing-rate profile; the cause
    column hides a single cell while decoys hide progressively more, so the
    cause's benefit (and therefore its greedy priority) is the smallest of
    all candidates.
    """
    rng = random.Random(seed * 7_777_777 + 101)
    n = ADVERSARIAL_ROWS
    pass_cols = []
    fail_cols = []
    token = rng.randrange(26 ** 6)
    for j in range(ADVERSARIAL_COLUMNS):
        name = f"col_{j:02d}"
        cells = [_fixed_width_token(token + j * n + i) for i in range(n)]
        masked = 1 if j == 0 else j + 1
        pass_cols.append((name, ColumnType.TEXT, cells))
        fail_cols.append((name, ColumnType.TEXT, _mask_cells(rng, cells, masked)))
    oracle = build_builtin_oracle("missing-flag", {"attribute": "col_00"})
    return from_columns(pass_cols), from_columns(fail_cols), oracle
