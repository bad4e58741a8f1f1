"""Causal root-cause analysis for datasets that break black-box systems.

Workflow: profile a passing and a failing dataset, keep the profiles whose
parameters differ (each bound to a repair, forming a candidate triplet),
then intervene on the failing dataset and ask the system's malfunction
oracle which repairs actually matter. The result is a minimal explanation:
a set of triplets whose composed repair makes the system pass and from
which no member can be dropped.
"""

from .engine import (
    EngineConfig,
    Explanation,
    InterventionLog,
    benefit_score,
    decision_tree_explain,
    discriminative_pvts,
    explain,
    explain_greedy,
    explain_group_testing,
    group_test,
    make_minimal,
)
from .errors import (
    DatacauseError,
    NoExplanationFound,
    OracleError,
    TransformFailure,
    ValidationError,
)
from .graph import (
    PvtAttributeGraph,
    PvtDependencyGraph,
    build_dependency_graph,
    build_pvt_attribute_graph,
    get_min_bisection,
)
from .oracle import CallableOracle, ExternalOracleSpec, MalfunctionOracle, SubprocessOracle
from .profiles import (
    Profile,
    chi_square_p_value,
    chi_square_statistic,
    discover_profiles,
    enumerate_selectivity_predicates,
    pearson_correlation,
    violation,
)
from .synth import PlantedCause, ScenarioSpec, adversarial_rank_scenario, generate
from .tabular import ColumnType, Dataset, Predicate, Term, from_columns, load_csv, save_csv, select_where
from .transforms import PvtTriplet, compose, coverage, make_triplets, transform

__version__ = "0.1.0"
