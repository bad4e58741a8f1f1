"""Every search against a brute-force reference on small instances (needs ``hypothesis``).

An instance is a :func:`conftest.missing_columns_pair` of two to eight
columns, whose only candidates are one impute per column, so a set of
candidates is a set of columns. The scorer passes exactly when a Boolean
formula over "column j has no missing cell" holds; below that it reads 1, or
with a graded score falls with each repaired column, so that searches also
collect repairs that do not matter. Enumerating every set of columns gives
the passing sets, against which each search must either give up or return a
passing, deletion-minimal set.
"""

from __future__ import annotations

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import missing_columns_pair  # noqa: E402
from datacause.engine import EngineConfig, decision_tree_explain, explain  # noqa: E402
from datacause.errors import DatacauseError  # noqa: E402
from datacause.oracle import CallableOracle  # noqa: E402

TAU = 0.5
SEARCHES = ("greedy", "group_test", "group_test_random", "decision_tree")


def formulas(columns: int, monotone: bool):
    """Formulas as nested tuples: ("var", j), ("not", f), ("and", f, g), ("or", f, g)."""
    def extend(children):
        ops = [st.tuples(st.sampled_from(["and", "or"]), children, children)]
        if not monotone:
            ops.append(st.tuples(st.just("not"), children))
        return st.one_of(ops)

    return st.recursive(st.tuples(st.just("var"), st.integers(0, columns - 1)), extend,
                        max_leaves=6)


def holds(formula, repaired: frozenset[int]) -> bool:
    op, *args = formula
    if op == "var":
        return args[0] in repaired
    if op == "not":
        return not holds(args[0], repaired)
    results = (holds(f, repaired) for f in args)
    return all(results) if op == "and" else any(results)


def truth_table(formula, columns: int) -> dict[frozenset[int], bool]:
    return {frozenset(s): holds(formula, frozenset(s))
            for size in range(columns + 1) for s in combinations(range(columns), size)}


def repaired_columns(dataset) -> frozenset[int]:
    return frozenset(j for j, (name, _) in enumerate(dataset.schema)
                     if None not in dataset.column(name))


def scorer(table: dict[frozenset[int], bool], columns: int, graded: bool):
    def score(dataset) -> float:
        repaired = repaired_columns(dataset)
        if table[repaired]:
            return 0.0
        return 1.0 - 0.4 * len(repaired) / columns if graded else 1.0
    return score


def run_search(search: str, columns: int, formula, seed: int, graded: bool):
    """(the explanation, or the error a search gives up with; the oracle;
    the truth table; the scorer calls the run makes outside its log)."""
    d_pass, d_fail = missing_columns_pair(columns, seed)
    table = truth_table(formula, columns)
    oracle = CallableOracle(scorer(table, columns, graded))
    tree = search == "decision_tree"
    config = EngineConfig(tau=TAU, seed=seed, algorithm="greedy" if tree else search)
    try:
        if tree:
            outcome = decision_tree_explain([(d_pass, True), (d_fail, False)], d_fail,
                                            oracle, config)
        else:
            outcome = explain(d_pass, d_fail, oracle, config)
    except DatacauseError as exc:
        outcome = exc
    # the tree scores d_fail before its first intervention, explain d_pass too
    return outcome, oracle, table, 1 if tree else 2


@st.composite
def instances(draw):
    """(columns, formula, seed, graded) with the failing copy failing and the
    passing dataset passing: f(no column) is false and f(every column) true."""
    columns = draw(st.integers(2, 8))
    formula = draw(formulas(columns, monotone=draw(st.booleans())))
    hypothesis.assume(not holds(formula, frozenset())
                      and holds(formula, frozenset(range(columns))))
    return columns, formula, draw(st.integers(0, 2 ** 16)), draw(st.booleans())


@pytest.mark.parametrize("search", SEARCHES)
@settings(deadline=None, max_examples=60)
@given(instances())
def test_search_gives_up_or_returns_a_passing_deletion_minimal_set(search, instance):
    columns, formula, seed, graded = instance
    outcome, oracle, table, baselines = run_search(search, *instance)
    if isinstance(outcome, DatacauseError):
        assert oracle.invocation_count == len(outcome.log.entries) + baselines
        return
    members = frozenset(int(t.profile.attribute[1:]) for t in outcome.triplets)
    assert repaired_columns(outcome.repaired) == members
    assert table[members]
    assert CallableOracle(scorer(table, columns, graded)).evaluate(outcome.repaired) <= TAU
    assert not any(table[members - {j}] for j in members)
    assert oracle.invocation_count == outcome.interventions + baselines
