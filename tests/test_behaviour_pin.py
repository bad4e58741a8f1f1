"""Pinned behaviour of the search on one seed of every synth family.

Each scenario pins its discriminative candidate ids with their exact
benefit, and, per algorithm, either the explanation (triplet ids,
intervention count, number of accepted log entries) or the error class
the run ends with. Fingerprints are deliberately left out: they depend on
the dataset encoding, not on the search.
"""

from __future__ import annotations

import pytest

from datacause.engine import (
    EngineConfig,
    benefit_score,
    decision_tree_explain,
    discriminative_pvts,
    explain,
)
from datacause.errors import NoExplanationFound
from datacause.synth import (
    PairedCauseScenario,
    PlantedCause,
    ScenarioSpec,
    adversarial_rank_scenario,
    generate,
    generate_paired,
)


def _spec(family, causes, n_rows, seed, **extra):
    return ScenarioSpec(oracle_family=family,
                        planted_causes=tuple(PlantedCause(k, a) for k, a in causes),
                        n_rows=n_rows, seed=seed, **extra)


#: name -> (scenario builder, seed, tau)
SCENARIOS = {
    "domain_remap_decoys": (
        lambda: generate(_spec("domain-remap", [("domain", "target")], 200, 1, decoys=20)),
        1, 0.2),
    "domain_remap_disjunctive": (
        lambda: generate(_spec("domain-remap", [("domain", "t1"), ("missing", "t2")], 200, 2,
                               cause_logic="disjunctive")),
        2, 0.2),
    "dependence_bias": (
        lambda: generate(_spec("dependence-bias", [("dependence", "target")], 400, 3, tau=0.3)),
        3, 0.3),
    "dependence_bias_skew": (
        lambda: generate(_spec("dependence-bias", [("dependence", "target"),
                                                   ("selectivity", "usage_class")], 240, 1,
                               tau=0.3)),
        1, 0.3),
    "skew_timeout": (
        lambda: generate(_spec("skew-timeout", [("selectivity", "plate_type")], 120, 4)),
        4, 0.2),
    "interaction_pair": (
        lambda: generate(_spec("interaction-pair", [("missing", "p1"), ("missing", "p2")], 80, 0)),
        0, 0.2),
    "adversarial": (lambda: adversarial_rank_scenario(5), 5, 0.2),
    "paired": (
        lambda: generate_paired(PairedCauseScenario(units=2, junk_attributes=2, seed=3)),
        3, 0.2),
}

ALGORITHMS = ("greedy", "group_test", "group_test_random")

#: (triplet ids, interventions, accepted log entries), or the error class raised
PINNED = {
    "domain_remap_decoys": {
        "candidates": [
            ("missing_rate(extra_flag)#impute", 0.010000000000000002),
            ("missing_rate(noise_000)#impute", 0.0001),
            ("missing_rate(noise_001)#impute", 0.000225),
            ("missing_rate(noise_002)#impute", 0.0004),
            ("missing_rate(noise_003)#impute", 0.0006250000000000001),
            ("missing_rate(noise_004)#impute", 0.0009),
            ("missing_rate(noise_005)#impute", 0.0012250000000000002),
            ("missing_rate(noise_006)#impute", 0.0016),
            ("missing_rate(noise_007)#impute", 0.002025),
            ("missing_rate(noise_008)#impute", 0.0025000000000000005),
            ("missing_rate(noise_009)#impute", 0.003025),
            ("missing_rate(noise_010)#impute", 0.0036),
            ("missing_rate(noise_011)#impute", 0.0042250000000000005),
            ("missing_rate(noise_012)#impute", 0.004900000000000001),
            ("missing_rate(noise_013)#impute", 0.005625),
            ("missing_rate(noise_014)#impute", 0.0064),
            ("missing_rate(noise_015)#impute", 0.007225000000000001),
            ("missing_rate(noise_016)#impute", 0.0081),
            ("missing_rate(noise_017)#impute", 0.009025),
            ("missing_rate(noise_018)#impute", 0.010000000000000002),
            ("missing_rate(noise_019)#impute", 0.011024999999999998),
            ("domain_text(review_note)#fit_length", 0.354025),
            ("domain_categorical(target)#remap", 1.0),
        ],
        "greedy": (("domain_categorical(target)#remap",), 1, 1),
        "group_test": (("domain_categorical(target)#remap",), 6, 4),
        "group_test_random": (("domain_categorical(target)#remap",), 6, 4),
    },
    "domain_remap_disjunctive": {
        "candidates": [
            ("missing_rate(extra_flag)#impute", 0.010000000000000002),
            ("domain_text(review_note)#fit_length", 0.39690000000000003),
            ("domain_categorical(t1)#remap", 1.0),
            ("chi_square_dependence(t1,t2)#shuffle", 0.0),
            ("missing_rate(t2)#impute", 0.010000000000000002),
        ],
        "greedy": (("domain_categorical(t1)#remap",), 1, 1),
        "group_test": (("missing_rate(t2)#impute",), 2, 2),
        "group_test_random": (("missing_rate(t2)#impute",), 3, 3),
    },
    "dependence_bias": {
        "candidates": [
            ("chi_square_dependence(c1,target)#shuffle", 0.47),
            ("selectivity(c1=u&target=neg)#resample", 0.0),
            ("selectivity(c1=u&target=pos)#resample", 0.05483333333333333),
            ("selectivity(c1=v&target=neg)#resample", 0.05483333333333333),
            ("selectivity(c1=v&target=pos)#resample", 0.0),
            ("chi_square_dependence(c2,target)#shuffle", 0.485),
            ("selectivity(c2=u&target=neg)#resample", 0.0),
            ("selectivity(c2=u&target=pos)#resample", 0.03115066225165563),
            ("selectivity(c2=v&target=neg)#resample", 0.03125415282392026),
            ("selectivity(c2=v&target=pos)#resample", 0.0),
            ("chi_square_dependence(c3,target)#shuffle", 0.55),
            ("selectivity(c3=u&target=neg)#resample", 0.0),
            ("selectivity(c3=u&target=pos)#resample", 0.03495762711864407),
            ("selectivity(c3=v&target=neg)#resample", 0.034144295302013426),
            ("selectivity(c3=v&target=pos)#resample", 0.0),
            ("chi_square_dependence(c4,target)#shuffle", 0.525),
            ("selectivity(c4=u&target=neg)#resample", 0.0),
            ("selectivity(c4=u&target=pos)#resample", 0.04380794701986755),
            ("selectivity(c4=v&target=neg)#resample", 0.04395348837209302),
            ("selectivity(c4=v&target=pos)#resample", 0.0),
            ("chi_square_dependence(c5,target)#shuffle", 0.495),
            ("selectivity(c5=u&target=neg)#resample", 0.0),
            ("selectivity(c5=u&target=pos)#resample", 0.03053691275167785),
            ("selectivity(c5=v&target=neg)#resample", 0.030333333333333334),
            ("selectivity(c5=v&target=pos)#resample", 0.0),
            ("chi_square_dependence(c6,target)#shuffle", 0.45),
            ("selectivity(c6=u&target=neg)#resample", 0.0),
            ("selectivity(c6=u&target=pos)#resample", 0.04090231788079471),
            ("selectivity(c6=v&target=neg)#resample", 0.04000000000000001),
            ("selectivity(c6=v&target=pos)#resample", 0.0),
        ],
        "greedy": (("chi_square_dependence(c3,target)#shuffle",), 1, 1),
        "group_test": (("chi_square_dependence(c4,target)#shuffle",), 6, 6),
        "group_test_random": (("chi_square_dependence(c4,target)#shuffle",), 6, 6),
    },
    "dependence_bias_skew": {
        "candidates": [
            ("chi_square_dependence(c1,target)#shuffle", 0.48333333333333334),
            ("selectivity(c1=u&target=neg)#resample", 0.0),
            ("selectivity(c1=u&target=pos)#resample", 0.05444444444444445),
            ("selectivity(c1=v&target=neg)#resample", 0.05444444444444445),
            ("selectivity(c1=v&target=pos)#resample", 0.0),
            ("selectivity(c1=u&usage_class=hi)#resample", 0.049999999999999996),
            ("selectivity(c1=u&usage_class=lo)#resample", 0.0),
            ("selectivity(c1=v&usage_class=hi)#resample", 0.049999999999999996),
            ("selectivity(c1=v&usage_class=lo)#resample", 0.0),
            ("chi_square_dependence(c2,target)#shuffle", 0.49166666666666664),
            ("selectivity(c2=u&target=neg)#resample", 0.0),
            ("selectivity(c2=u&target=pos)#resample", 0.03456703910614525),
            ("selectivity(c2=v&target=neg)#resample", 0.033611111111111105),
            ("selectivity(c2=v&target=pos)#resample", 0.0),
            ("selectivity(c2=u&usage_class=hi)#resample", 0.05949391171993911),
            ("selectivity(c2=u&usage_class=lo)#resample", 0.0),
            ("selectivity(c2=v&usage_class=hi)#resample", 0.04121674491392801),
            ("selectivity(c2=v&usage_class=lo)#resample", 0.0),
            ("chi_square_dependence(c3,target)#shuffle", 0.49166666666666664),
            ("selectivity(c3=u&target=neg)#resample", 0.0),
            ("selectivity(c3=u&target=pos)#resample", 0.03495762711864407),
            ("selectivity(c3=v&target=neg)#resample", 0.03288043478260869),
            ("selectivity(c3=v&target=pos)#resample", 0.0),
            ("selectivity(c3=u&usage_class=hi)#resample", 0.06221198156682028),
            ("selectivity(c3=u&usage_class=lo)#resample", 0.0),
            ("selectivity(c3=v&usage_class=hi)#resample", 0.03825581395348837),
            ("selectivity(c3=v&usage_class=lo)#resample", 0.0),
            ("chi_square_dependence(c4,target)#shuffle", 0.5583333333333333),
            ("selectivity(c4=u&target=neg)#resample", 0.0),
            ("selectivity(c4=u&target=pos)#resample", 0.03502747252747253),
            ("selectivity(c4=v&target=neg)#resample", 0.03640595903165736),
            ("selectivity(c4=v&target=pos)#resample", 0.0),
            ("selectivity(c4=u&usage_class=hi)#resample", 0.046141975308641975),
            ("selectivity(c4=u&usage_class=lo)#resample", 0.0),
            ("selectivity(c4=v&usage_class=hi)#resample", 0.05401234567901235),
            ("selectivity(c4=v&usage_class=lo)#resample", 0.0),
            ("chi_square_dependence(c5,target)#shuffle", 0.48333333333333334),
            ("selectivity(c5=u&target=neg)#resample", 0.0),
            ("selectivity(c5=u&target=pos)#resample", 0.03342541436464088),
            ("selectivity(c5=v&target=neg)#resample", 0.03456703910614525),
            ("selectivity(c5=v&target=pos)#resample", 0.0),
            ("selectivity(c5=u&usage_class=hi)#resample", 0.046141975308641975),
            ("selectivity(c5=u&usage_class=lo)#resample", 0.0),
            ("selectivity(c5=v&usage_class=hi)#resample", 0.05401234567901235),
            ("selectivity(c5=v&usage_class=lo)#resample", 0.0),
            ("chi_square_dependence(c6,target)#shuffle", 0.49166666666666664),
            ("selectivity(c6=u&target=neg)#resample", 0.0),
            ("selectivity(c6=u&target=pos)#resample", 0.027153558052434447),
            ("selectivity(c6=v&target=neg)#resample", 0.02746212121212121),
            ("selectivity(c6=v&target=pos)#resample", 0.0),
            ("selectivity(c6=u&usage_class=hi)#resample", 0.044894366197183094),
            ("selectivity(c6=u&usage_class=lo)#resample", 0.0),
            ("selectivity(c6=v&usage_class=hi)#resample", 0.054337899543379),
            ("selectivity(c6=v&usage_class=lo)#resample", 0.0),
            ("selectivity(target=neg&usage_class=hi)#resample", 0.04000000000000001),
            ("selectivity(target=neg&usage_class=lo)#resample", 0.0),
            ("selectivity(target=pos&usage_class=hi)#resample", 0.06004224270353302),
            ("selectivity(target=pos&usage_class=lo)#resample", 0.0),
            ("selectivity(usage_class=hi)#resample", 0.25),
            ("selectivity(usage_class=lo)#resample", 0.0),
        ],
        "greedy": (("chi_square_dependence(c4,target)#shuffle", "selectivity(usage_class=hi)#resample"), 4, 3),
        "group_test": NoExplanationFound,
        "group_test_random": (("selectivity(c2=u&target=neg)#resample", "selectivity(c2=u&target=pos)#resample", "selectivity(c3=v&target=neg)#resample", "selectivity(c5=v&usage_class=lo)#resample", "selectivity(c6=v&target=pos)#resample"), 27, 27),
    },
    "skew_timeout": {
        "candidates": [
            ("domain_text(capture_note)#fit_length", 0.32111111111111107),
            ("selectivity(plate_type=black)#resample", 0.390625),
            ("selectivity(plate_type=white)#resample", 0.0),
            ("missing_rate(sensor_gain)#impute", 0.010000000000000002),
        ],
        "greedy": (("selectivity(plate_type=black)#resample",), 1, 1),
        "group_test": (("selectivity(plate_type=black)#resample",), 1, 1),
        "group_test_random": (("selectivity(plate_type=white)#resample",), 2, 2),
    },
    "interaction_pair": {
        "candidates": [
            ("missing_rate(p1)#impute", 0.010000000000000002),
            ("chi_square_dependence(p1,p2)#shuffle", 0.0),
            ("selectivity(p1=u&p2=u)#resample", 0.0),
            ("missing_rate(p2)#impute", 0.010000000000000002),
            ("domain_text(zz_note_0)#fit_length", 0.31640625),
            ("domain_text(zz_note_1)#fit_length", 0.275625),
        ],
        "greedy": NoExplanationFound,
        "group_test": NoExplanationFound,
        "group_test_random": NoExplanationFound,
        "decision_tree": (("missing_rate(p1)#impute", "missing_rate(p2)#impute"), 5, 1),
    },
    "adversarial": {
        "candidates": [
            ("missing_rate(col_00)#impute", 6.944444444444444e-05),
            ("missing_rate(col_01)#impute", 0.0002777777777777778),
            ("missing_rate(col_02)#impute", 0.0006250000000000001),
            ("missing_rate(col_03)#impute", 0.0011111111111111111),
            ("missing_rate(col_04)#impute", 0.001736111111111111),
            ("missing_rate(col_05)#impute", 0.0025000000000000005),
            ("missing_rate(col_06)#impute", 0.003402777777777778),
            ("missing_rate(col_07)#impute", 0.0044444444444444444),
            ("missing_rate(col_08)#impute", 0.005625),
            ("missing_rate(col_09)#impute", 0.006944444444444444),
            ("missing_rate(col_10)#impute", 0.008402777777777776),
            ("missing_rate(col_11)#impute", 0.010000000000000002),
            ("missing_rate(col_12)#impute", 0.011736111111111112),
            ("missing_rate(col_13)#impute", 0.013611111111111112),
            ("missing_rate(col_14)#impute", 0.015625),
            ("missing_rate(col_15)#impute", 0.017777777777777778),
            ("missing_rate(col_16)#impute", 0.020069444444444442),
            ("missing_rate(col_17)#impute", 0.0225),
            ("missing_rate(col_18)#impute", 0.025069444444444443),
            ("missing_rate(col_19)#impute", 0.027777777777777776),
            ("missing_rate(col_20)#impute", 0.030624999999999996),
            ("missing_rate(col_21)#impute", 0.033611111111111105),
            ("missing_rate(col_22)#impute", 0.036736111111111115),
            ("missing_rate(col_23)#impute", 0.04000000000000001),
            ("missing_rate(col_24)#impute", 0.04340277777777778),
            ("missing_rate(col_25)#impute", 0.04694444444444445),
            ("missing_rate(col_26)#impute", 0.050625),
            ("missing_rate(col_27)#impute", 0.05444444444444445),
            ("missing_rate(col_28)#impute", 0.058402777777777776),
            ("missing_rate(col_29)#impute", 0.0625),
            ("missing_rate(col_30)#impute", 0.06673611111111112),
            ("missing_rate(col_31)#impute", 0.07111111111111111),
            ("missing_rate(col_32)#impute", 0.07562500000000001),
            ("missing_rate(col_33)#impute", 0.08027777777777777),
            ("missing_rate(col_34)#impute", 0.08506944444444446),
            ("missing_rate(col_35)#impute", 0.09),
            ("missing_rate(col_36)#impute", 0.09506944444444446),
            ("missing_rate(col_37)#impute", 0.10027777777777777),
            ("missing_rate(col_38)#impute", 0.10562500000000001),
            ("missing_rate(col_39)#impute", 0.1111111111111111),
            ("missing_rate(col_40)#impute", 0.11673611111111111),
            ("missing_rate(col_41)#impute", 0.12249999999999998),
            ("missing_rate(col_42)#impute", 0.12840277777777778),
            ("missing_rate(col_43)#impute", 0.13444444444444442),
            ("missing_rate(col_44)#impute", 0.140625),
            ("missing_rate(col_45)#impute", 0.14694444444444446),
            ("missing_rate(col_46)#impute", 0.15340277777777778),
            ("missing_rate(col_47)#impute", 0.16000000000000003),
            ("missing_rate(col_48)#impute", 0.1667361111111111),
            ("missing_rate(col_49)#impute", 0.17361111111111113),
            ("missing_rate(col_50)#impute", 0.18062499999999998),
            ("missing_rate(col_51)#impute", 0.1877777777777778),
            ("missing_rate(col_52)#impute", 0.19506944444444443),
            ("missing_rate(col_53)#impute", 0.2025),
        ],
        "greedy": (("missing_rate(col_00)#impute",), 54, 1),
        "group_test": (("missing_rate(col_00)#impute",), 10, 6),
        "group_test_random": (("missing_rate(col_00)#impute",), 10, 6),
    },
    "paired": {
        "candidates": [
            ("missing_rate(extra_flag)#impute", 0.010000000000000002),
            ("domain_text(junk_0)#fit_length", 0.28444444444444444),
            ("missing_rate(junk_0)#impute", 0.006944444444444444),
            ("domain_text(junk_1)#fit_length", 0.275625),
            ("missing_rate(junk_1)#impute", 0.006944444444444444),
            ("domain_text(review_note)#fit_length", 0.390625),
            ("domain_categorical(t1)#remap", 0.81),
            ("missing_rate(t1)#impute", 0.010000000000000002),
            ("chi_square_dependence(t1,t2)#shuffle", 0.0),
            ("domain_categorical(t2)#remap", 0.81),
            ("missing_rate(t2)#impute", 0.010000000000000002),
        ],
        "greedy": (("domain_categorical(t1)#remap", "missing_rate(t1)#impute"), 8, 3),
        "group_test": (("domain_categorical(t1)#remap", "missing_rate(t1)#impute"), 5, 4),
        "group_test_random": (("domain_categorical(t2)#remap", "missing_rate(t2)#impute"), 10, 8),
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_candidates_and_benefits_are_pinned(name):
    make, seed, _ = SCENARIOS[name]
    d_pass, d_fail, _ = make()
    got = [(t.id, benefit_score(t, d_fail, seed=seed))
           for t in discriminative_pvts(d_pass, d_fail)]
    assert got == PINNED[name]["candidates"]


def _outcome(run):
    try:
        result = run()
    except NoExplanationFound:
        return NoExplanationFound
    return (result.triplet_ids(), result.interventions,
            sum(e.accepted for e in result.log.entries))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_explanations_are_pinned(name, algorithm):
    make, seed, tau = SCENARIOS[name]
    d_pass, d_fail, oracle = make()
    config = EngineConfig(tau=tau, seed=seed, algorithm=algorithm)
    assert _outcome(lambda: explain(d_pass, d_fail, oracle, config)) == PINNED[name][algorithm]


def test_decision_tree_on_interaction_pair_is_pinned():
    make, seed, tau = SCENARIOS["interaction_pair"]
    d_pass, d_fail, oracle = make()
    outcome = _outcome(lambda: decision_tree_explain(
        [(d_pass, True), (d_fail, False)], d_fail, oracle, EngineConfig(tau=tau, seed=seed)))
    assert outcome == PINNED["interaction_pair"]["decision_tree"]
