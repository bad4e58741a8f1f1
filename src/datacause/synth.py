"""Synthetic pass/fail dataset pairs with planted causes and matching oracles.

Each scenario builds two datasets sharing a schema: the failing one breaks
exactly the planted profiles (plus inert decoy differences) and ships with
a closed-form oracle that responds only to repairs of the planted causes,
per the configured conjunctive or disjunctive logic. Everything is
deterministic under the scenario seed.
"""

from __future__ import annotations

import inspect
import math
import random
import string
import struct
from dataclasses import asdict, dataclass

from .errors import ScenarioSpecError
from .oracle import CallableOracle, MalfunctionOracle
from .profiles import chi_square_from_counts, contingency_table
from .tabular import ColumnType, Dataset, from_columns

CAUSE_KINDS = ("domain", "missing", "dependence", "selectivity")
CAUSE_LOGICS = ("conjunctive", "disjunctive")


def _check_types(spec, fields) -> None:
    """Raise ScenarioSpecError unless each (name, types, kind) of ``fields``
    names a field of ``spec`` that holds one of ``types`` and is no bool."""
    for name, types, kind in fields:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ScenarioSpecError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class PlantedCause:
    kind: str
    attribute: str

    def __post_init__(self):
        if self.kind not in CAUSE_KINDS:
            raise ScenarioSpecError(f"unknown cause kind {self.kind!r}")
        # "," and "&" separate the names and parameters of a builtin: oracle string
        if not isinstance(self.attribute, str) or not self.attribute \
                or "," in self.attribute or "&" in self.attribute:
            raise ScenarioSpecError("a cause attribute must be a non-empty name without "
                                    f"',' or '&', got {self.attribute!r}")


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
        _check_types(self, (("n_rows", int, "an integer"), ("n_attributes", int, "an integer"),
                            ("seed", int, "an integer"), ("decoys", int, "an integer"),
                            ("tau", (int, float), "a number")))
        if not isinstance(self.planted_causes, (tuple, list)) or not all(
                isinstance(c, PlantedCause) for c in self.planted_causes):
            raise ScenarioSpecError("planted_causes must hold PlantedCause values, "
                                    f"got {self.planted_causes!r}")
        if not isinstance(self.oracle_family, str) or self.oracle_family not in _GENERATORS:
            raise ScenarioSpecError(f"unknown oracle family {self.oracle_family!r}")
        if self.cause_logic not in CAUSE_LOGICS:
            raise ScenarioSpecError(f"unknown cause logic {self.cause_logic!r}")
        if not self.planted_causes:
            raise ScenarioSpecError("at least one planted cause required")
        if self.n_rows < 40 or self.n_rows % 4:
            raise ScenarioSpecError("n_rows must be >= 40 and divisible by 4")
        if self.n_attributes < 0:
            raise ScenarioSpecError("n_attributes must be >= 0")
        if self.decoys < 0 or self.decoys + 4 > self.n_rows // 2:
            raise ScenarioSpecError("too many decoys for the row count")
        if not 0.0 <= self.tau <= 1.0:
            raise ScenarioSpecError("tau must lie in [0, 1]")
        _GENERATORS[self.oracle_family][1](self)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "planted_causes": list(map(asdict, self.planted_causes))}

    @staticmethod
    def from_json_dict(data: dict) -> "ScenarioSpec":
        try:
            causes = tuple(PlantedCause(**c) for c in data["planted_causes"])
            return ScenarioSpec(**{**data, "planted_causes": causes})
        except (KeyError, TypeError) as exc:
            raise ScenarioSpecError(f"malformed scenario spec: {exc}") from exc


# --- cell helpers ------------------------------------------------------------


def _as_number(cell) -> float | None:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


# Text cells are decoded in bulk from the words that one draw per cell would
# read, so the cells and the state left behind are the same: ``choice`` of 26
# letters takes a word's top 5 bits, ``randrange(26 ** 9)`` a whole word plus
# the next word's top 11 bits as bits 32-42, and both draw again when the value
# is too large. Each round draws for the cells still missing only, so no word
# is read that the per-cell draws would not have read.

#: a word's top byte below 208 gives the letter of its top five bits; the
#: bytes from 208 up, which ``choice`` would draw again, are deleted
_LETTER_OF_TOP_BYTE = bytes(97 + (b >> 3) if b < 208 else 0 for b in range(256))
_REDRAWN_TOP_BYTES = bytes(range(208, 256))
#: one 64-bit lane (two words, low first) of the masks that keep a lane's
#: first word and the top 11 bits of its second, shifted down to bit 0
_FIRST_WORD, _TOP_11_BITS = b"\xff\xff\xff\xff\0\0\0\0", b"\xff\x07\0\0\0\0\0\0"


def _letters(rng: random.Random, length: int) -> str:
    """What ``length`` calls of ``rng.choice(string.ascii_lowercase)`` give."""
    out = b""
    while len(out) < length:
        need = length - len(out)
        top_bytes = rng.getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
        out += top_bytes.translate(_LETTER_OF_TOP_BYTE, _REDRAWN_TOP_BYTES)
    return out.decode("ascii")


def _below_26_pow_9(rng: random.Random, count: int) -> list[int]:
    """What ``count`` calls of ``rng.randrange(26 ** 9)`` give."""
    out: list[int] = []
    while len(out) < count:
        need = count - len(out)
        lanes = rng.getrandbits(64 * need)
        first, top = (int.from_bytes(m * need, "little") for m in (_FIRST_WORD, _TOP_11_BITS))
        values = (lanes & first | (lanes >> 53 & top) << 32).to_bytes(8 * need, "little")
        out += filter((26 ** 9).__gt__, struct.unpack(f"<{need}Q", values))
    return out


#: every two-letter string, at the index it has as a two-digit base-26 number
#: written low digit first
_LETTER_PAIRS = [a + b for b in string.ascii_lowercase for a in string.ascii_lowercase]


def _fixed_width_token(index: int) -> str:
    """The low ten base-26 digits of ``index`` as letters, low digit first."""
    p = _LETTER_PAIRS
    return (p[index % 676] + p[index // 676 % 676] + p[index // 676 ** 2 % 676]
            + p[index // 676 ** 3 % 676] + p[index // 676 ** 4 % 676])


def _mask_cells(rng: random.Random, cells: list, count: int,
                protected: set[int] = frozenset()) -> list:
    eligible = [i for i in range(len(cells)) if i not in protected]
    out = list(cells)
    for i in rng.sample(eligible, count):
        out[i] = None
    return out


# --- built-in oracle families -------------------------------------------------


def _bad_value_fraction(dataset: Dataset, attribute: str, allowed: set[float]) -> float:
    present = [v for v in dataset.column(attribute) if v is not None]
    if not present:
        return 1.0
    return sum(_as_number(v) not in allowed for v in present) / len(present)


def _missing_fraction(dataset: Dataset, attribute: str) -> float:
    col = dataset.column(attribute)
    return col.missing / len(col) if col else 0.0


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


def _excess(fraction: float, limit: float) -> float:
    """How far ``fraction`` runs over ``limit``, as a share of the room above it."""
    return max(0.0, (fraction - limit) / (1.0 - limit))


def _float_param(key: str, text: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise ScenarioSpecError(
            f"builtin oracle parameter {key}: not a number: {text!r}") from None


def _limit_param(key: str, text: str) -> float:
    """A share limit; :func:`_excess` divides by the room above it."""
    limit = _float_param(key, text)
    if not 0.0 <= limit < 1.0:
        raise ScenarioSpecError(
            f"builtin oracle parameter {key} must lie in [0, 1), got {limit!r}")
    return limit


def _units(causes) -> dict[str, list[str]]:
    """Each attribute of the (kind, attribute) ``causes``, in planted order,
    with the kinds planted on it."""
    units: dict[str, list[str]] = {}
    for kind, attribute in causes:
        units.setdefault(attribute, []).append(kind)
    return units


def _domain_remap_scorer(allowed="-1,1", logic="conjunctive", domain="", missing=""):
    allowed = {_float_param("allowed", v) for v in allowed.split(",")}
    if logic not in CAUSE_LOGICS:
        raise ScenarioSpecError(f"unknown domain-remap logic {logic!r}")
    units = _units((kind, a) for kind, names in (("domain", domain), ("missing", missing))
                   for a in names.split(",") if a)
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

    return score


def _dependence_bias_scorer(target="target", protected="c1", skew="", skew_value="hi",
                            skew_limit="0.2"):
    skew_limit = _limit_param("skew_limit", skew_limit)

    def score(dataset: Dataset) -> float:
        dep = min(1.0, _cramers_v(dataset, target, protected))
        if skew:
            dep = max(dep, _excess(_value_fraction(dataset, skew, skew_value), skew_limit))
        return dep

    return score


def _skew_timeout_scorer(attribute="plate_type", value="black", limit="0.3"):
    limit = _limit_param("limit", limit)
    return lambda dataset: _excess(_value_fraction(dataset, attribute, value), limit)


def _missing_flag(attributes: list[str]):
    """1 while any of ``attributes`` has a missing cell, else 0."""
    return lambda dataset: float(any(_missing_fraction(dataset, a) > 0 for a in attributes))


def _interaction_pair_scorer(attributes=""):
    attrs = [a for a in attributes.split(",") if a]
    if len(attrs) != 2:
        raise ScenarioSpecError("interaction-pair oracle needs exactly two attributes")
    return _missing_flag(attrs)


def _missing_flag_scorer(attribute=""):
    if not attribute:
        raise ScenarioSpecError("missing-flag oracle needs an attribute")
    return _missing_flag([attribute])


#: builtin family -> scorer factory, whose keyword parameters (text, with
#: their defaults) are the family's ``builtin:`` parameters
_BUILTIN_SCORERS = {
    "domain-remap": _domain_remap_scorer, "dependence-bias": _dependence_bias_scorer,
    "skew-timeout": _skew_timeout_scorer, "interaction-pair": _interaction_pair_scorer,
    "missing-flag": _missing_flag_scorer,
}


def build_builtin_oracle(family: str, params: dict[str, str]) -> MalfunctionOracle:
    """Construct one of the closed-form scorers by name.

    Reachable from the CLI as ``builtin:<family>?key=value&...``.
    """
    if family not in _BUILTIN_SCORERS:
        raise ScenarioSpecError(f"unknown builtin oracle family {family!r}")
    factory = _BUILTIN_SCORERS[family]
    unknown = sorted(set(params) - set(inspect.signature(factory).parameters))
    if unknown:
        raise ScenarioSpecError(f"unknown {family} oracle parameter(s): {', '.join(unknown)}")
    return CallableOracle(factory(**params))


def builtin_oracle(argument: str) -> MalfunctionOracle:
    """The scorer a ``builtin:<family>?key=value&...`` string names."""
    family, _, query = argument[len("builtin:"):].partition("?")
    params = dict(piece.partition("=")[::2] for piece in query.split("&") if piece)
    return build_builtin_oracle(family, params)


def oracle_argument(spec: ScenarioSpec) -> str:
    """The ``--oracle`` string reconstructing this scenario's builtin scorer."""
    if spec.oracle_family == "domain-remap":
        parts = [f"logic={spec.cause_logic}"]
        for kind in ("domain", "missing"):
            names = ",".join(c.attribute for c in spec.planted_causes if c.kind == kind)
            if names:
                parts.append(f"{kind}={names}")
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
#
# A family generator returns the scenario's columns in schema order as
# (passing column, failing column) pairs; a column is (name, type, cells).


def _pair(name: str, ctype: ColumnType, passing, failing):
    return (name, ctype, passing), (name, ctype, failing)


def _datasets(pairs) -> tuple[Dataset, Dataset]:
    """Both datasets; a failing column that is its passing column's cells is
    taken over from the passing dataset, not normalized and hashed again."""
    d_pass = from_columns([p for p, _ in pairs])
    return d_pass, from_columns([(*f[:2], col if f[2] is p[2] else f[2])
                                 for (p, f), col in zip(pairs, d_pass.columns)])


def _alternating(n_rows: int, even, odd) -> list:
    return [even if i % 2 == 0 else odd for i in range(n_rows)]


def _hot_head(n_rows: int, share: float, hot: str, cold: str) -> list[str]:
    """``hot`` in the first ``share`` of the rows, ``cold`` in the rest."""
    cut = round(share * n_rows)
    return [hot] * cut + [cold] * (n_rows - cut)


def _filler_columns(rng: random.Random, n_rows: int, count: int):
    cols = []
    for i in range(count):
        values = [round(rng.uniform(0, 50), 3) for _ in range(n_rows)]
        cols.append((f"filler_{i:02d}", ColumnType.NUMERICAL, values))
    return cols


def _decoy_text_column(rng: random.Random, name: str, n_rows: int, masked: int):
    """Same-shape text column in both datasets; the failing copy hides cells."""
    cells = list(map(_fixed_width_token, _below_26_pow_9(rng, n_rows)))
    failing = _mask_cells(rng, cells, masked)
    return _pair(name, ColumnType.TEXT, cells, failing)


def _note_columns(rng: random.Random, name: str, n_rows: int, short_fraction: float = 0.6):
    passing = [_letters(rng, rng.randint(30, 120)) for _ in range(n_rows)]
    failing = []
    for _ in range(n_rows):
        if rng.random() < short_fraction:
            failing.append(_letters(rng, rng.randint(5, 25)))
        else:
            failing.append(_letters(rng, rng.randint(35, 115)))
    return _pair(name, ColumnType.TEXT, passing, failing)


def _two_point_column(name: str, n_rows: int, rng: random.Random):
    cells = _alternating(n_rows, 0.0, 100.0)
    return _pair(name, ColumnType.NUMERICAL, cells,
                 _mask_cells(rng, cells, max(2, n_rows // 10), protected={0, 1}))


def _numbered(name: str, prefix: str, width: int, count: int) -> bool:
    """Whether ``name`` is ``f"{prefix}{i:0{width}d}"`` for an ``i`` in ``range(count)``."""
    digits = name[len(prefix):]
    return (name.startswith(prefix) and digits.isascii() and digits.isdigit()
            and f"{int(digits):0{width}d}" == digits and int(digits) < count)


def _check_own_columns(spec: ScenarioSpec, causes, names=(), numbered=()) -> None:
    """Raise ScenarioSpecError when one of ``causes`` names a column that the
    family adds itself: one of ``names``, one of the ``(prefix, width, count)``
    runs of ``numbered`` or a filler column."""
    numbered = (*numbered, ("filler_", 2, spec.n_attributes))
    for cause in causes:
        if cause.attribute in names or any(_numbered(cause.attribute, *run) for run in numbered):
            raise ScenarioSpecError(f"{spec.oracle_family} adds a column named "
                                    f"{cause.attribute!r} itself, so no cause can name it")


def _domain_remap_causes(spec: ScenarioSpec) -> None:
    for cause in spec.planted_causes:
        if cause.kind not in ("domain", "missing"):
            raise ScenarioSpecError(
                f"domain-remap supports domain/missing causes, got {cause.kind!r}")
    _check_own_columns(spec, spec.planted_causes, ("review_note", "extra_flag"),
                       [("noise_", 3, spec.decoys)])


def _domain_remap_pairs(spec: ScenarioSpec, rng: random.Random):
    n = spec.n_rows
    units = _units((c.kind, c.attribute) for c in spec.planted_causes)
    pairs = []
    for attribute, kinds in sorted(units.items()):
        good = _alternating(n, "-1", "1")
        bad = _alternating(n, "0", "4") if "domain" in kinds else good
        if "missing" in kinds:
            bad = _mask_cells(rng, bad, max(2, n // 10))
        pairs.append(_pair(attribute, ColumnType.CATEGORICAL, good, bad))
    pairs.append(_note_columns(rng, "review_note", n))
    pairs.append(_two_point_column("extra_flag", n, rng))
    for d in range(spec.decoys):
        pairs.append(_decoy_text_column(rng, f"noise_{d:03d}", n, 2 + d))
    return pairs


def _dependence_bias_causes(spec: ScenarioSpec) -> None:
    if sorted(c.kind for c in spec.planted_causes) not in (
            ["dependence"], ["dependence", "selectivity"]):
        raise ScenarioSpecError(
            "dependence-bias needs exactly one dependence cause and optionally "
            "one selectivity cause")
    if any(c.kind == "selectivity" and c.attribute != "usage_class"
           for c in spec.planted_causes):
        raise ScenarioSpecError("the selectivity cause attribute is 'usage_class'")
    features = [f"c{j}" for j in range(1, 7)]
    if len(spec.planted_causes) == 2:
        features.append("usage_class")
    _check_own_columns(spec, [c for c in spec.planted_causes if c.kind == "dependence"],
                       features)


def _dependence_bias_pairs(spec: ScenarioSpec, rng: random.Random):
    n = spec.n_rows
    target = next(c.attribute for c in spec.planted_causes if c.kind == "dependence")
    protected = _alternating(n, "u", "v")
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
    pairs = [_pair(target, ColumnType.CATEGORICAL, pass_target, fail_target)]
    for name, cells in features.items():
        pairs.append(_pair(name, ColumnType.CATEGORICAL, cells, cells))
    if any(c.kind == "selectivity" for c in spec.planted_causes):
        pairs.append(_pair("usage_class", ColumnType.CATEGORICAL,
                           _hot_head(n, 0.2, "hi", "lo"), _hot_head(n, 0.6, "hi", "lo")))
    return pairs


def _skew_timeout_causes(spec: ScenarioSpec) -> None:
    if [c.kind for c in spec.planted_causes] != ["selectivity"]:
        raise ScenarioSpecError("skew-timeout plants exactly one selectivity cause")
    _check_own_columns(spec, spec.planted_causes, ("capture_note", "sensor_gain"))


def _skew_timeout_pairs(spec: ScenarioSpec, rng: random.Random):
    n = spec.n_rows
    attribute = spec.planted_causes[0].attribute
    return [_pair(attribute, ColumnType.CATEGORICAL,
                  _hot_head(n, 0.2, "black", "white"), _hot_head(n, 0.7, "black", "white")),
            _note_columns(rng, "capture_note", n, short_fraction=0.5),
            _two_point_column("sensor_gain", n, rng)]


def _interaction_pair_causes(spec: ScenarioSpec) -> None:
    if [c.kind for c in spec.planted_causes] != ["missing", "missing"]:
        raise ScenarioSpecError("interaction-pair plants exactly two missing causes")
    if spec.cause_logic != "conjunctive":
        raise ScenarioSpecError("interaction-pair is conjunctive by construction")
    if spec.planted_causes[0].attribute == spec.planted_causes[1].attribute:
        raise ScenarioSpecError("interaction-pair plants its two causes on two attributes")
    _check_own_columns(spec, spec.planted_causes, numbered=[("zz_note_", 1, max(2, spec.decoys))])


def _interaction_pair_pairs(spec: ScenarioSpec, rng: random.Random):
    n = spec.n_rows
    pairs = []
    for cause in sorted(spec.planted_causes, key=lambda c: c.attribute):
        cells = _alternating(n, "u", "v")
        pairs.append(_pair(cause.attribute, ColumnType.CATEGORICAL, cells,
                           _mask_cells(rng, cells, max(2, n // 10))))
    for d in range(max(2, spec.decoys)):
        pairs.append(_note_columns(rng, f"zz_note_{d}", n))
    return pairs


#: family -> (seed salt, the check that the family can plant a spec's causes,
#: which raises ScenarioSpecError, column-pair generator)
_GENERATORS = {
    "domain-remap": (17, _domain_remap_causes, _domain_remap_pairs),
    "dependence-bias": (29, _dependence_bias_causes, _dependence_bias_pairs),
    "skew-timeout": (43, _skew_timeout_causes, _skew_timeout_pairs),
    "interaction-pair": (59, _interaction_pair_causes, _interaction_pair_pairs),
}


def generate(spec: ScenarioSpec) -> tuple[Dataset, Dataset, MalfunctionOracle]:
    """Build (passing dataset, failing dataset, oracle) for a scenario; the
    oracle is the one :func:`oracle_argument` names."""
    salt, _, family_pairs = _GENERATORS[spec.oracle_family]
    rng = random.Random(spec.seed * 1_000_003 + salt)
    pairs = family_pairs(spec, rng)
    pairs += [(col, col) for col in _filler_columns(rng, spec.n_rows, spec.n_attributes)]
    return (*_datasets(pairs), builtin_oracle(oracle_argument(spec)))


def ground_truth(spec: ScenarioSpec) -> dict:
    """Planted causes and the admissible minimal explanations, unit by unit."""
    units = _units((c.kind, c.attribute) for c in spec.planted_causes)
    unit_list = [{"attribute": a, "cause_kinds": sorted(kinds)}
                 for a, kinds in sorted(units.items())]
    if spec.cause_logic == "disjunctive":
        admissible = [[dict(u)] for u in unit_list]
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

    def __post_init__(self):
        _check_types(self, (("units", int, "an integer"), ("junk_attributes", int, "an integer")))
        if self.junk_attributes < 0:
            raise ScenarioSpecError("junk_attributes must be >= 0")


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
        tau=scenario.tau,
    )
    rng = random.Random(scenario.seed * 977 + 5)
    d_pass, d_fail, oracle = generate(spec)
    pairs = [_pair(a, t, d_pass.column(a), d_fail.column(a)) for a, t in d_pass.schema]
    n = scenario.n_rows
    masked = max(2, n // 12)
    for j in range(scenario.junk_attributes):
        (name, ctype, note_pass), (_, _, note_fail) = _note_columns(rng, f"junk_{j}", n)
        pairs.append(_pair(name, ctype, note_pass, _mask_cells(rng, note_fail, masked)))
    return (*_datasets(pairs), oracle)


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
    pairs = []
    token = rng.randrange(26 ** 6)
    for j in range(ADVERSARIAL_COLUMNS):
        name = f"col_{j:02d}"
        cells = [_fixed_width_token(token + j * n + i) for i in range(n)]
        masked = 1 if j == 0 else j + 1
        pairs.append(_pair(name, ColumnType.TEXT, cells, _mask_cells(rng, cells, masked)))
    oracle = build_builtin_oracle("missing-flag", {"attribute": "col_00"})
    return (*_datasets(pairs), oracle)
