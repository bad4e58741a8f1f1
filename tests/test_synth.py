from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import divmod_token, per_call_decoy_draws, per_call_letters
from datacause.cli import main
from datacause.engine import benefit_score, discriminative_pvts
from datacause.errors import ScenarioSpecError
from datacause.synth import (
    ADVERSARIAL_COLUMNS,
    PairedCauseScenario,
    PlantedCause,
    ScenarioSpec,
    _below_26_pow_9,
    _fixed_width_token,
    _letters,
    adversarial_rank_scenario,
    build_builtin_oracle,
    generate,
    generate_paired,
    ground_truth,
    oracle_argument,
)
from datacause.tabular import from_columns
from datacause.transforms import compose, transform


def spec(**kwargs):
    base = dict(
        oracle_family="domain-remap",
        planted_causes=(PlantedCause("domain", "target"),),
        n_rows=200,
        seed=0,
    )
    base.update(kwargs)
    return ScenarioSpec(**base)


def planted_triplets(spec_, d_pass, d_fail):
    cause_keys = {(c.kind, c.attribute) for c in spec_.planted_causes}
    kind_map = {
        "domain": ("domain_categorical", "domain_numerical"),
        "missing": ("missing_rate",),
        "dependence": ("chi_square_dependence",),
        "selectivity": ("selectivity",),
    }
    chosen = []
    for t in discriminative_pvts(d_pass, d_fail):
        for kind, attribute in cause_keys:
            if t.profile.kind.value in kind_map[kind] and \
                    attribute in t.profile.attributes():
                chosen.append(t)
                break
    # one triplet per profile is enough to repair it
    unique = {}
    for t in chosen:
        unique.setdefault(t.profile.label(), t)
    return list(unique.values())


def test_generation_deterministic():
    a_pass, a_fail, _ = generate(spec(seed=9))
    b_pass, b_fail, _ = generate(spec(seed=9))
    assert a_pass.fingerprint == b_pass.fingerprint
    assert a_fail.fingerprint == b_fail.fingerprint
    c_pass, _, _ = generate(spec(seed=10))
    assert c_pass.fingerprint != a_pass.fingerprint


def test_oracle_scores_on_generated_pair():
    d_pass, d_fail, oracle = generate(spec())
    assert oracle.evaluate(d_pass) == 0.0
    assert oracle.evaluate(d_fail) == 1.0


@pytest.mark.parametrize("family_spec", [
    spec(),
    spec(oracle_family="dependence-bias",
         planted_causes=(PlantedCause("dependence", "target"),), n_rows=240, tau=0.3),
    spec(oracle_family="dependence-bias",
         planted_causes=(PlantedCause("dependence", "target"),
                         PlantedCause("selectivity", "usage_class")),
         n_rows=240, tau=0.3),
    spec(oracle_family="skew-timeout",
         planted_causes=(PlantedCause("selectivity", "plate_type"),), n_rows=120),
    spec(oracle_family="interaction-pair",
         planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
         n_rows=80),
], ids=lambda s: s.oracle_family + ("+skew" if len(s.planted_causes) > 1 and
                                    s.oracle_family == "dependence-bias" else ""))
def test_every_scenario_is_solvable(family_spec):
    d_pass, d_fail, oracle = generate(family_spec)
    assert oracle.evaluate(d_pass) <= family_spec.tau
    assert oracle.evaluate(d_fail) > family_spec.tau
    repairs = planted_triplets(family_spec, d_pass, d_fail)
    assert repairs, "planted causes must be discriminative"
    repaired = compose(repairs, d_fail, seed=family_spec.seed).dataset
    assert oracle.evaluate(repaired) <= family_spec.tau


def test_decoys_are_inert():
    s = spec(decoys=5)
    d_pass, d_fail, oracle = generate(s)
    base = oracle.evaluate(d_fail)
    cause_attrs = {c.attribute for c in s.planted_causes}
    for t in discriminative_pvts(d_pass, d_fail):
        if set(t.profile.attributes()) & cause_attrs:
            continue
        changed = transform(d_fail, t, seed=0)
        assert oracle.evaluate(changed) == base, t.id


def test_decoy_knob_controls_candidate_count():
    s = spec(decoys=13, n_rows=200)
    d_pass, d_fail, _ = generate(s)
    assert len(discriminative_pvts(d_pass, d_fail)) == 16


def test_many_discriminative_profiles_like_appendix_experiments():
    # wide fixture tuned to ~136 discriminative triplets
    s = spec(decoys=133, n_rows=400, n_attributes=15)
    d_pass, d_fail, _ = generate(s)
    count = len(discriminative_pvts(d_pass, d_fail))
    assert abs(count - 136) <= 5


def test_interaction_pair_requires_both():
    s = spec(oracle_family="interaction-pair",
             planted_causes=(PlantedCause("missing", "p1"),
                             PlantedCause("missing", "p2")),
             n_rows=80)
    d_pass, d_fail, oracle = generate(s)
    repairs = {t.profile.attributes()[0]: t for t in planted_triplets(s, d_pass, d_fail)}
    base = oracle.evaluate(d_fail)
    for attribute in ("p1", "p2"):
        alone = transform(d_fail, repairs[attribute], seed=0)
        assert oracle.evaluate(alone) == base
    both = compose(list(repairs.values()), d_fail, seed=0).dataset
    assert oracle.evaluate(both) == 0.0


def test_disjunctive_paired_scenario_admits_any_unit():
    scenario = PairedCauseScenario(units=2, junk_attributes=1, seed=3)
    d_pass, d_fail, oracle = generate_paired(scenario)
    assert oracle.evaluate(d_fail) == 1.0
    triplets = discriminative_pvts(d_pass, d_fail)
    for unit in ("t1", "t2"):
        unit_repairs = [t for t in triplets
                        if t.profile.attributes() == (unit,)
                        and t.transform_id in ("remap", "impute")]
        assert len(unit_repairs) == 2
        repaired = compose(unit_repairs, d_fail, seed=3).dataset
        assert oracle.evaluate(repaired) <= scenario.tau


def test_spec_validation_errors():
    with pytest.raises(ScenarioSpecError):
        spec(oracle_family="nope")
    with pytest.raises(ScenarioSpecError):
        spec(planted_causes=())
    with pytest.raises(ScenarioSpecError):
        spec(n_rows=30)
    with pytest.raises(ScenarioSpecError):
        spec(cause_logic="sometimes")
    with pytest.raises(ScenarioSpecError):
        PlantedCause("alien", "target")
    with pytest.raises(ScenarioSpecError):
        generate(spec(oracle_family="interaction-pair",
                      planted_causes=(PlantedCause("missing", "p1"),)))


def causes(*pairs):
    return tuple(PlantedCause(kind, attribute) for kind, attribute in pairs)


@pytest.mark.parametrize("build, message", [
    (lambda: spec(decoys=97), "too many decoys for the row count"),
    (lambda: spec(tau=1.5), r"tau must lie in \[0, 1\]"),
    (lambda: build_builtin_oracle("domain-remap", {}),
     "domain-remap oracle needs at least one cause attribute"),
    (lambda: build_builtin_oracle("interaction-pair", {"attributes": "p1"}),
     "interaction-pair oracle needs exactly two attributes"),
    (lambda: build_builtin_oracle("missing-flag", {}), "missing-flag oracle needs an attribute"),
    (lambda: build_builtin_oracle("nope", {}), "unknown builtin oracle family 'nope'"),
    (lambda: generate(spec(planted_causes=causes(("domain", "t1"), ("dependence", "t2")))),
     "domain-remap supports domain/missing causes, got 'dependence'"),
    (lambda: generate(spec(oracle_family="dependence-bias",
                           planted_causes=causes(("selectivity", "usage_class")))),
     "dependence-bias needs exactly one dependence cause"),
    (lambda: generate(spec(oracle_family="dependence-bias",
                           planted_causes=causes(("dependence", "target"),
                                                 ("selectivity", "c2")))),
     "the selectivity cause attribute is 'usage_class'"),
    (lambda: generate(spec(oracle_family="skew-timeout",
                           planted_causes=causes(("missing", "plate_type")))),
     "skew-timeout plants exactly one selectivity cause"),
    (lambda: generate(spec(oracle_family="interaction-pair", cause_logic="disjunctive",
                           planted_causes=causes(("missing", "p1"), ("missing", "p2")))),
     "interaction-pair is conjunctive by construction"),
], ids=["decoys", "tau", "domain-remap-oracle", "interaction-pair-oracle",
        "missing-flag-oracle", "unknown-family", "domain-remap-kind", "dependence-bias-kinds",
        "dependence-bias-skew", "skew-timeout-kinds", "interaction-pair-logic"])
def test_scenario_spec_errors(build, message):
    with pytest.raises(ScenarioSpecError, match=message):
        build()


@pytest.mark.parametrize("family, planted, message", [
    # ground_truth's oracle string needs the dependence cause
    ("dependence-bias", [("selectivity", "usage_class")],
     "dependence-bias needs exactly one dependence cause"),
    # a second selectivity cause would be listed as a unit with nothing planted on it
    ("dependence-bias", [("dependence", "target"), ("selectivity", "usage_class"),
                         ("selectivity", "c2")],
     "dependence-bias needs exactly one dependence cause and optionally one selectivity"),
    # the oracle string would name a scenario that cannot be generated
    ("skew-timeout", [("domain", "plate_type")],
     "skew-timeout plants exactly one selectivity cause"),
    ("interaction-pair", [("missing", "p1"), ("domain", "p2")],
     "interaction-pair plants exactly two missing causes"),
], ids=["no-dependence", "second-selectivity", "skew-domain", "interaction-domain"])
def test_spec_whose_family_cannot_plant_its_causes_is_rejected_at_construction(
        family, planted, message):
    with pytest.raises(ScenarioSpecError, match=message):
        spec(oracle_family=family, planted_causes=causes(*planted))


@pytest.mark.parametrize("family, planted, fields", [
    ("dependence-bias", [("dependence", "c1")], {}),
    ("dependence-bias", [("dependence", "usage_class"), ("selectivity", "usage_class")], {}),
    ("skew-timeout", [("selectivity", "capture_note")], {}),
    ("domain-remap", [("domain", "review_note")], {}),
    ("domain-remap", [("domain", "noise_000")], {"decoys": 2}),
    ("domain-remap", [("domain", "filler_00")], {"n_attributes": 1}),
    ("interaction-pair", [("missing", "p1"), ("missing", "p1")], {}),
], ids=["dependence-c1", "dependence-usage-class", "skew-capture-note", "domain-review-note",
        "domain-decoy", "domain-filler", "interaction-same-attribute"])
def test_cause_on_a_column_the_family_adds_is_rejected_at_construction(family, planted, fields):
    with pytest.raises(ScenarioSpecError):
        spec(oracle_family=family, planted_causes=causes(*planted), **fields)


@pytest.mark.parametrize("family, planted, fields", [
    ("dependence-bias", [("dependence", "usage_class")], {}),
    ("dependence-bias", [("dependence", "c7")], {}),
    ("domain-remap", [("domain", "noise_002")], {"decoys": 2}),
    ("domain-remap", [("domain", "noise_00")], {"decoys": 2}),
    ("domain-remap", [("domain", "filler_0")], {"n_attributes": 1}),
    ("interaction-pair", [("missing", "zz_note_2"), ("missing", "p1")], {}),
], ids=repr)
def test_cause_beside_the_columns_the_family_adds_is_generated(family, planted, fields):
    generated = spec(oracle_family=family, planted_causes=causes(*planted), **fields)
    d_pass, _, _ = generate(generated)
    assert {c.attribute for c in generated.planted_causes} <= set(d_pass.attributes)


@pytest.mark.parametrize("fields", [
    {"n_rows": "200"}, {"n_rows": 200.0}, {"n_rows": True},
    {"n_attributes": "2"}, {"n_attributes": -2}, {"n_attributes": 1.5},
    {"seed": "0"}, {"seed": 1.0}, {"seed": False},
    {"decoys": None}, {"decoys": "3"},
    {"tau": "0.2"}, {"tau": None}, {"tau": True},
    {"planted_causes": ("domain", "target")}, {"planted_causes": 5},
], ids=repr)
def test_spec_fields_of_the_wrong_type_rejected(fields):
    with pytest.raises(ScenarioSpecError):
        spec(**fields)


@pytest.mark.parametrize("attribute", [5, None, "", "a,b", "a&b"])
def test_cause_attribute_must_be_a_name_the_oracle_string_can_carry(attribute):
    with pytest.raises(ScenarioSpecError):
        PlantedCause("domain", attribute)


def test_spec_accepts_integer_tau_and_no_filler():
    assert spec(tau=0, n_attributes=0).tau == 0
    assert spec(tau=1).tau == 1


@pytest.mark.parametrize("fields", [{"n_rows": 40.9}, {"n_attributes": -2}, {"seed": "1"},
                                    {"tau": "0.2"}, {"decoys": 1.0}, {"n_row": 120}], ids=repr)
def test_spec_json_numbers_are_not_coerced_nor_unknown_keys_ignored(fields):
    data = {"oracle_family": "domain-remap",
            "planted_causes": [{"kind": "domain", "attribute": "target"}], **fields}
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec.from_json_dict(data)


def test_spec_json_round_trip():
    s = spec(decoys=3, cause_logic="disjunctive",
             planted_causes=(PlantedCause("domain", "t1"),
                             PlantedCause("missing", "t1")))
    again = ScenarioSpec.from_json_dict(s.to_json_dict())
    assert again == s
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec.from_json_dict({"oracle_family": "domain-remap"})


def test_ground_truth_lists_disjunctive_alternatives():
    s = spec(cause_logic="disjunctive",
             planted_causes=(PlantedCause("domain", "t1"),
                             PlantedCause("missing", "t1"),
                             PlantedCause("domain", "t2"),
                             PlantedCause("missing", "t2")))
    truth = ground_truth(s)
    assert len(truth["admissible_minimal_explanations"]) == 2
    assert truth["oracle"].startswith("builtin:domain-remap?")


def test_oracle_argument_round_trips_through_builder():
    s = spec()
    argument = oracle_argument(s)
    family, _, query = argument[len("builtin:"):].partition("?")
    params = dict(piece.split("=", 1) for piece in query.split("&"))
    oracle = build_builtin_oracle(family, params)
    d_pass, d_fail, _ = generate(s)
    assert oracle.evaluate(d_pass) == 0.0
    assert oracle.evaluate(d_fail) == 1.0


# --- adversarial ranking -------------------------------------------------------


def rank_of_cause(d_pass, d_fail):
    triplets = discriminative_pvts(d_pass, d_fail)
    ranked = sorted(triplets,
                    key=lambda t: (-benefit_score(t, d_fail), t.sort_key))
    for position, t in enumerate(ranked, start=1):
        if t.profile.attributes() == ("col_00",):
            return position, len(ranked)
    raise AssertionError("cause triplet not found")


def test_adversarial_rank_scenario_properties():
    d_pass, d_fail, oracle = adversarial_rank_scenario(seed=0)
    assert oracle.evaluate(d_pass) == 0.0
    assert oracle.evaluate(d_fail) == 1.0
    position, total = rank_of_cause(d_pass, d_fail)
    assert total == ADVERSARIAL_COLUMNS
    assert position == total >= 50


# --- pinned cells ----------------------------------------------------------------


def _cells_digest(dataset) -> str:
    """sha256 of the schema and every cell, independent of ``Dataset.fingerprint``."""
    payload = json.dumps([list(dataset.attributes), [t.value for t in dataset.types],
                          [list(col) for col in dataset.columns]])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: name -> builder of (passing, failing, oracle)
PINNED_SCENARIOS = {
    "domain-remap": lambda: generate(spec(
        planted_causes=(PlantedCause("domain", "t1"), PlantedCause("missing", "t1"),
                        PlantedCause("missing", "t2")),
        n_rows=120, seed=1, decoys=3, n_attributes=2, cause_logic="disjunctive")),
    "dependence-bias": lambda: generate(spec(
        oracle_family="dependence-bias", planted_causes=(PlantedCause("dependence", "target"),),
        n_rows=120, seed=1, decoys=3, n_attributes=2, tau=0.3)),
    "dependence-bias+skew": lambda: generate(spec(
        oracle_family="dependence-bias",
        planted_causes=(PlantedCause("dependence", "target"),
                        PlantedCause("selectivity", "usage_class")),
        n_rows=120, seed=2, n_attributes=1, tau=0.3)),
    "skew-timeout": lambda: generate(spec(
        oracle_family="skew-timeout", planted_causes=(PlantedCause("selectivity", "plate_type"),),
        n_rows=120, seed=1, decoys=3, n_attributes=2)),
    "interaction-pair": lambda: generate(spec(
        oracle_family="interaction-pair",
        planted_causes=(PlantedCause("missing", "p1"), PlantedCause("missing", "p2")),
        n_rows=80, seed=1, decoys=3, n_attributes=2)),
    "paired": lambda: generate_paired(PairedCauseScenario(units=2, junk_attributes=3, seed=1)),
    "adversarial": lambda: adversarial_rank_scenario(seed=1),
}

#: name -> (passing digest, failing digest, passing score, failing score)
PINNED_CELLS = {
    "adversarial": ("74797f35d400021d5ef04e8c879e89db50f4fd2808d95b972b01374afd9ac90c",
                    "d76ad7c08b1e6645e2622ae27494b0d3fb11f6be9d7a3d977ad5c95ebbb0101c",
                    0.0, 1.0),
    "dependence-bias": ("6189129ad0c37ef4999365becf571206bd6243afda1a52f1065533e653e248b5",
                        "e54731698993aae2c00a50dea825c4134f6b8b2b31178a46edd0a02f8f0439b7",
                        0.0, 0.7),
    "dependence-bias+skew": ("c961a38edd813937d04d157e62adb1f14f4272833d1e69e51c4d99188169f511",
                             "34dd6273c3bbf938e760c62703f1a415eb5c211a6af7a23795a6a410818fc3b3",
                             0.0, 0.7),
    "domain-remap": ("313a70dc412455e7df76ccb60acd4fd97c69a0882bac034bec42fdbbc6f351c5",
                     "8728e102f928ade8d2fbd674aa229b91ce8ce8c26078ac606ac79e002f23f2d3",
                     0.0, 1.0),
    "interaction-pair": ("c2cf3309037efe841838497b9e7a155d43738049fe91466ef394ff438d243c58",
                         "594ce43c1d4d0f760d83376c056fff3604f8919a5d8879ff90b5f38507bd7386",
                         0.0, 1.0),
    "paired": ("b53801fa5b311e0fd48fa1a6f57e0528b12057a55027e6e1a71ab12363a6b3c5",
               "b54f98a26133fbfa9216bed70fb9bdce0dd75d8c4a813371ff673f194abc059b",
               0.0, 1.0),
    "skew-timeout": ("8792b304ed3b016ba25c622e47c5aa038145bc762d72bb4d924bbbae3e10b5a0",
                     "f461ea94de0e05c470a685499cd6c10786c020567a2b3664b3c8c6ff0e5f61ab",
                     0.0, 4 / 7),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_generated_cells_are_pinned(name):
    d_pass, d_fail, oracle = PINNED_SCENARIOS[name]()
    got = (_cells_digest(d_pass), _cells_digest(d_fail),
           oracle.evaluate(d_pass), oracle.evaluate(d_fail))
    pass_digest, fail_digest, pass_score, fail_score = PINNED_CELLS[name]
    assert got[:2] == (pass_digest, fail_digest)
    assert got[2:] == (pytest.approx(pass_score, abs=1e-12),
                       pytest.approx(fail_score, abs=1e-12))


def test_benchmark_scale_scenarios_are_pinned(tmp_path):
    """The cells of gt-wide's first scenario and the CSVs that cli-subprocess's
    ``datacause synth`` writes at seed 0, as one draw per cell made them."""
    d_pass, d_fail, _ = generate(spec(n_rows=260, decoys=125))
    assert (_cells_digest(d_pass), _cells_digest(d_fail)) == (
        "037da03e42aae88d5e34eabafc3ae75b0c26939ec1d063aa4a9bf18fa760acc9",
        "a87c8a8ef535ed1805157e4c16ef92de444bed31d7f47ecc9066e3d032009dee")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec(n_rows=1000, decoys=20).to_json_dict()),
                         encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in ("pass.csv", "fail.csv")}
    assert digests == {
        "pass.csv": "142ef597cc1fda47c7bea454199d636043d452928ce8895eb43a28601d830a53",
        "fail.csv": "6d3929c7b22b366ed1b84937e26d8184386ab7049606accafd623b9455d6b61a"}


def test_bulk_text_draws_equal_one_draw_per_cell():
    for seed in range(40):
        for length in (0, 1, 2, 5, 25, 26, 30, 64, 115, 120, 130):
            bulk, per_call = random.Random(seed), random.Random(seed)
            assert _letters(bulk, length) == per_call_letters(per_call, length)
            assert bulk.getstate() == per_call.getstate()
        for count in (0, 1, 2, 3, 20, 125, 260, 300):
            bulk, per_call = random.Random(seed), random.Random(seed)
            assert _below_26_pow_9(bulk, count) == per_call_decoy_draws(per_call, count)
            assert bulk.getstate() == per_call.getstate()
    rng = random.Random(0)
    for index in [0, 675, 676, 26 ** 9 - 1, 26 ** 10 - 1, 26 ** 10, 10 ** 40] + [
            rng.randrange(26 ** 12) for _ in range(2000)]:
        assert _fixed_width_token(index) == divmod_token(index)


def test_failing_columns_equal_to_passing_ones_are_shared():
    d_pass, d_fail, _ = generate(spec(oracle_family="dependence-bias", n_attributes=2,
                                      planted_causes=(PlantedCause("dependence", "target"),)))
    shared = [a for a in d_fail.attributes if d_fail.column(a) is d_pass.column(a)]
    assert shared == [f"c{j}" for j in range(1, 7)] + ["filler_00", "filler_01"]
    rebuilt = from_columns([(a, t, list(d_fail.column(a))) for a, t in d_fail.schema])
    assert d_fail.fingerprint == rebuilt.fingerprint


@pytest.mark.parametrize("cause", [
    {"kind": "domain", "attribute": "target", "logic": "disjunctive"},
    {"kind": "domain", "attribute": "target", "atribute": "t2"},
    {"kind": "domain"},
    ["domain", "target"],
], ids=repr)
def test_spec_json_cause_with_unknown_or_missing_keys_rejected(cause):
    data = {"oracle_family": "domain-remap", "planted_causes": [cause]}
    with pytest.raises(ScenarioSpecError, match="malformed scenario spec"):
        ScenarioSpec.from_json_dict(data)


@pytest.mark.parametrize("fields", [{"units": 1.5}, {"units": "2"}, {"units": True},
                                    {"junk_attributes": "2"}, {"junk_attributes": 2.0},
                                    {"junk_attributes": False}, {"junk_attributes": -1}],
                         ids=repr)
def test_paired_scenario_counts_must_be_integers_and_junk_not_negative(fields):
    with pytest.raises(ScenarioSpecError):
        PairedCauseScenario(**fields)


def test_paired_scenario_without_junk_adds_no_junk_column():
    d_pass, d_fail, _ = generate_paired(PairedCauseScenario(units=1, junk_attributes=0))
    assert not [a for a in d_pass.attributes if a.startswith("junk_")]
    assert d_pass.same_schema(d_fail)
