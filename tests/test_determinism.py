"""A run is deterministic under its seed, also across processes whose
string hashes differ (``PYTHONHASHSEED``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import datacause

_RUN = """
import json
from datacause.engine import EngineConfig, explain
from datacause.synth import PlantedCause, ScenarioSpec, generate

runs = [
    (ScenarioSpec(oracle_family="domain-remap", planted_causes=(PlantedCause("domain", "target"),),
                  n_rows=120, seed=1, decoys=20), 0.2, "group_test"),
    (ScenarioSpec(oracle_family="dependence-bias",
                  planted_causes=(PlantedCause("dependence", "target"),
                                  PlantedCause("selectivity", "usage_class")),
                  n_rows=240, seed=1, tau=0.3), 0.3, "greedy"),
]
out = []
for spec, tau, algorithm in runs:
    d_pass, d_fail, oracle = generate(spec)
    e = explain(d_pass, d_fail, oracle, EngineConfig(tau=tau, seed=spec.seed, algorithm=algorithm))
    out.append([e.triplet_ids(), e.interventions, e.repaired_fingerprint])
print(json.dumps(out))
"""


def _explanations(hash_seed: str) -> list:
    src = str(Path(datacause.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _RUN], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_explanations_are_equal_under_different_string_hash_seeds():
    first, second = _explanations("0"), _explanations("1")
    assert first == second
    assert [len(ids) for ids, _, _ in first] == [1, 2]
