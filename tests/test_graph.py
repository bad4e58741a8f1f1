from __future__ import annotations

import itertools
import random

import pytest

from datacause.errors import BisectionSizeError, SchemaError
from datacause.graph import (
    PvtDependencyGraph,
    attribute_graph_to_dot,
    best_bisection,
    build_dependency_graph,
    build_pvt_attribute_graph,
    get_min_bisection,
    random_balanced_split,
)
from datacause.engine import discriminative_pvts
from datacause.profiles import ChiSquareBound, MissingRate
from datacause.tabular import ColumnType, from_columns
from datacause.transforms import PvtTriplet, make_triplets


def graph_of(edges, nodes=None):
    node_set = set(nodes or [])
    for u, v in edges:
        node_set.update((u, v))
    return PvtDependencyGraph(tuple(sorted(node_set)),
                              frozenset(tuple(sorted(e)) for e in edges))


def cut_of(graph, half1, half2):
    h1, h2 = set(half1), set(half2)
    return sum(1 for u, v in graph.edges
               if (u in h1 and v in h2) or (u in h2 and v in h1))


def brute_force_min_cut(graph, nodes):
    nodes = sorted(nodes)
    half = (len(nodes) + 1) // 2
    best = None
    for combo in itertools.combinations(nodes, half):
        other = [n for n in nodes if n not in combo]
        cut = cut_of(graph, combo, other)
        best = cut if best is None else min(best, cut)
    return best


def clique_edges(names):
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


# --- bipartite graph -----------------------------------------------------------


def test_people_attribute_degrees(people_pass, people_fail):
    triplets = discriminative_pvts(people_pass, people_fail)
    graph = build_pvt_attribute_graph(triplets, people_fail)
    degrees = {a: graph.attribute_degree(a) for a in people_fail.attributes}
    assert degrees["high_expenditure"] >= 2


def test_empty_triplet_set():
    d = from_columns([("a", ColumnType.NUMERICAL, [1.0])])
    graph = build_pvt_attribute_graph([], d)
    assert graph.edges == frozenset()
    assert graph.attributes == ("a",)


def test_pairwise_profile_has_two_edges():
    d = from_columns([
        ("a", ColumnType.CATEGORICAL, ["x", "y"]),
        ("b", ColumnType.CATEGORICAL, ["u", "v"]),
    ])
    [t] = [PvtTriplet(ChiSquareBound("a", "b", 0.1), "shuffle")]
    graph = build_pvt_attribute_graph([t], d)
    assert len(graph.edges) == 2


def test_unknown_attribute_rejected():
    d = from_columns([("a", ColumnType.NUMERICAL, [1.0])])
    t = make_triplets(MissingRate("ghost", 0.0))[0]
    with pytest.raises(SchemaError):
        build_pvt_attribute_graph([t], d)


# --- dependency graph ------------------------------------------------------------


def test_shared_attribute_edge():
    d = from_columns([("a", ColumnType.NUMERICAL, [1.0, None])])
    ts = [PvtTriplet(MissingRate("a", 0.0), "impute"),
          PvtTriplet(MissingRate("a", 0.5), "impute")]
    # distinct ids via distinct thresholds would collide; fake ids via labels
    g_pa = build_pvt_attribute_graph(ts[:1], d)
    g_pd = build_dependency_graph(g_pa)
    assert g_pd.edges == frozenset()


def test_disjoint_attributes_no_edges(people_pass, people_fail):
    triplets = discriminative_pvts(people_pass, people_fail)
    g_pd = build_dependency_graph(build_pvt_attribute_graph(triplets, people_fail))
    for u, v in g_pd.edges:
        tu = next(t for t in triplets if t.id == u)
        tv = next(t for t in triplets if t.id == v)
        assert set(tu.profile.attributes()) & set(tv.profile.attributes())


def test_star_becomes_clique():
    d = from_columns([("hub", ColumnType.CATEGORICAL, ["x"]),
                      ("s1", ColumnType.CATEGORICAL, ["x"]),
                      ("s2", ColumnType.CATEGORICAL, ["x"]),
                      ("s3", ColumnType.CATEGORICAL, ["x"])])
    ts = [PvtTriplet(ChiSquareBound("hub", s, 0.0), "shuffle")
          for s in ("s1", "s2", "s3")]
    g_pd = build_dependency_graph(build_pvt_attribute_graph(ts, d))
    assert len(g_pd.edges) == 3  # K3 over the three triplets


# --- min bisection -----------------------------------------------------------------


def test_two_cliques_zero_cut():
    left = [f"X{i}" for i in range(1, 5)]
    right = [f"X{i}" for i in range(5, 9)]
    graph = graph_of(clique_edges(left) + clique_edges(right))
    half1, half2 = get_min_bisection(graph, left + right, seed=0)
    assert cut_of(graph, half1, half2) == 0
    assert {frozenset(half1), frozenset(half2)} == {frozenset(left), frozenset(right)}


def test_edgeless_graph_any_balanced_split():
    graph = graph_of([], nodes=[f"n{i}" for i in range(6)])
    half1, half2 = get_min_bisection(graph, list(graph.nodes), seed=1)
    assert len(half1) == len(half2) == 3
    assert cut_of(graph, half1, half2) == 0


def test_path_graph_optimal_cut():
    graph = graph_of([("a", "b"), ("b", "c"), ("c", "d")])
    half1, half2 = get_min_bisection(graph, ["a", "b", "c", "d"], seed=0)
    assert cut_of(graph, half1, half2) == 1
    assert {frozenset(half1), frozenset(half2)} == {frozenset("ab"), frozenset("cd")}


def test_partition_properties_random_graphs():
    rng = random.Random(0)
    for trial in range(60):
        k = rng.randint(2, 10)
        nodes = [f"n{i}" for i in range(k)]
        edges = [(a, b) for a, b in itertools.combinations(nodes, 2)
                 if rng.random() < 0.4]
        graph = graph_of(edges, nodes=nodes)
        history: list[int] = []
        half1, half2 = get_min_bisection(graph, nodes, seed=trial, history=history)
        assert set(half1) | set(half2) == set(nodes)
        assert not set(half1) & set(half2)
        assert abs(len(half1) - len(half2)) <= 1
        assert len(half1) >= len(half2)  # larger half first
        assert history == sorted(history, reverse=True)  # monotone descent
        # local optimality: no single swap improves the cut
        final = cut_of(graph, half1, half2)
        for u in half1:
            for v in half2:
                swapped1 = (set(half1) - {u}) | {v}
                swapped2 = (set(half2) - {v}) | {u}
                assert cut_of(graph, swapped1, swapped2) >= final
        assert final >= brute_force_min_cut(graph, nodes)


def test_bisection_deterministic():
    graph = graph_of(clique_edges(["a", "b", "c"]) + [("c", "d")])
    first = get_min_bisection(graph, ["a", "b", "c", "d"], seed=5)
    second = get_min_bisection(graph, ["a", "b", "c", "d"], seed=5)
    assert first == second


def test_bisection_subset_of_graph_nodes():
    graph = graph_of(clique_edges(["a", "b", "c", "d"]))
    half1, half2 = get_min_bisection(graph, ["a", "b", "c"], seed=2)
    assert set(half1) | set(half2) == {"a", "b", "c"}
    assert len(half1) == 2 and len(half2) == 1


def test_bisection_size_error():
    graph = graph_of([], nodes=["only"])
    with pytest.raises(BisectionSizeError):
        get_min_bisection(graph, ["only"], seed=0)


def test_best_bisection_beats_or_matches_single_run():
    rng = random.Random(4)
    nodes = [f"n{i}" for i in range(10)]
    edges = [(a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.5]
    graph = graph_of(edges, nodes=nodes)
    single = get_min_bisection(graph, nodes, seed=11)
    multi = best_bisection(graph, nodes, seed=11)
    assert cut_of(graph, *multi) <= cut_of(graph, *single)


def test_random_balanced_split():
    half1, half2 = random_balanced_split([f"n{i}" for i in range(7)], seed=3)
    assert len(half1) == 4 and len(half2) == 3
    assert random_balanced_split([f"n{i}" for i in range(7)], seed=3) == (half1, half2)


def test_dot_export(people_pass, people_fail):
    triplets = discriminative_pvts(people_pass, people_fail)
    graph = build_pvt_attribute_graph(triplets, people_fail)
    dot = attribute_graph_to_dot(graph)
    assert dot.startswith("graph pvt_attributes {")
    assert "--" in dot and dot.rstrip().endswith("}")
