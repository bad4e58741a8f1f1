from __future__ import annotations

import itertools
import random
import re

import pytest

from datacause.errors import BisectionSizeError
from datacause.graph import (
    PvtDependencyGraph,
    attribute_degrees,
    attribute_graph_to_dot,
    best_bisection,
    build_dependency_graph,
    get_min_bisection,
    random_balanced_split,
)
from datacause.engine import discriminative_pvts
from datacause.profiles import ChiSquareBound, MissingRate
from datacause.transforms import PvtTriplet


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


# --- triplet-attribute incidence ---------------------------------------------------


def test_people_attribute_degrees(people_pass, people_fail):
    triplets = discriminative_pvts(people_pass, people_fail)
    degrees = attribute_degrees(t.profile for t in triplets)
    assert degrees["high_expenditure"] >= 2


def test_empty_triplet_set():
    assert attribute_degrees([]) == {}
    graph = build_dependency_graph([])
    assert graph.nodes == ()
    assert graph.edges == frozenset()
    assert attribute_graph_to_dot([], ("a",)) == "graph pvt_attributes {\n  rankdir=LR;\n}"


def test_pairwise_profile_has_two_edges():
    t = PvtTriplet(ChiSquareBound("a", "b", 0.1), "shuffle")
    assert attribute_degrees([t.profile]) == {"a": 1, "b": 1}
    assert attribute_graph_to_dot([t], ("a", "b")).count(" -- ") == 2


# --- dependency graph ------------------------------------------------------------


def test_shared_attribute_edge():
    ts = [PvtTriplet(MissingRate("a", 0.0), "impute"),
          PvtTriplet(MissingRate("a", 0.5), "impute")]
    # distinct ids via distinct thresholds would collide; fake ids via labels
    g_pd = build_dependency_graph(ts[:1])
    assert g_pd.edges == frozenset()


def test_disjoint_attributes_no_edges(people_pass, people_fail):
    triplets = discriminative_pvts(people_pass, people_fail)
    g_pd = build_dependency_graph(triplets)
    for u, v in g_pd.edges:
        tu = next(t for t in triplets if t.id == u)
        tv = next(t for t in triplets if t.id == v)
        assert set(tu.profile.attributes()) & set(tv.profile.attributes())


def test_star_becomes_clique():
    ts = [PvtTriplet(ChiSquareBound("hub", s, 0.0), "shuffle")
          for s in ("s1", "s2", "s3")]
    g_pd = build_dependency_graph(ts)
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
    dot = attribute_graph_to_dot(triplets, people_fail.attributes)
    assert dot.startswith("graph pvt_attributes {")
    assert "--" in dot and dot.rstrip().endswith("}")


@pytest.mark.parametrize("name", ['a"b', "c\\", '\\"', 'q"'])
def test_dot_ids_escape_quotes_and_backslashes(name):
    t = PvtTriplet(MissingRate(name, 0.0), "impute")
    quoted = re.compile(r'"(?:\\.|[^"\\])*"')
    lines = attribute_graph_to_dot([t], (name,)).splitlines()[2:-1]
    assert [quoted.sub("ID", line).strip() for line in lines] == [
        "ID [shape=box];", "ID [shape=ellipse];", "ID -- ID;"]
    assert [[re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted.findall(line)]
            for line in lines] == [[t.id], [name], [t.id, name]]


# --- pinned against the first-improvement swap loop the search started from ------


def _reference_min_bisection(graph, nodes, seed, history=None):
    """The original local search: rescan every (u, v) pair in sorted order
    after each improving swap, recomputing each gain from the neighbour sets."""
    nodes = sorted(set(nodes))
    restricted = set(nodes)
    adjacency = {u: set() for u in nodes}
    for u, v in graph.edges:
        if u in restricted and v in restricted:
            adjacency[u].add(v)
            adjacency[v].add(u)
    shuffled = list(nodes)
    random.Random(seed).shuffle(shuffled)
    half = (len(shuffled) + 1) // 2
    half1, half2 = set(shuffled[:half]), set(shuffled[half:])
    cut = sum(1 for u in half1 for v in adjacency[u] if v in half2)
    if history is not None:
        history.append(cut)
    improved = True
    while improved:
        improved = False
        for u in sorted(half1):
            for v in sorted(half2):
                ext_u = len(adjacency[u] & half2)
                int_u = len(adjacency[u] & half1)
                ext_v = len(adjacency[v] & half1)
                int_v = len(adjacency[v] & half2)
                bond = 2 if v in adjacency[u] else 0
                gain = ext_u - int_u + ext_v - int_v - bond
                if gain > 0:
                    half1.remove(u)
                    half2.remove(v)
                    half1.add(v)
                    half2.add(u)
                    cut -= gain
                    if history is not None:
                        history.append(cut)
                    improved = True
                    break
            if improved:
                break
    return (tuple(sorted(half1)), tuple(sorted(half2))), cut


def _reference_best_bisection(graph, nodes, seed):
    best = None
    for attempt in range(3):
        halves, cut = _reference_min_bisection(graph, nodes, seed + 7919 * attempt)
        if best is None or cut < best[1]:
            best = halves, cut
    return best[0]


def test_search_matches_the_reference_loop_on_random_graphs():
    rng = random.Random(20)
    for trial in range(300):
        k = rng.randint(2, 14)
        density = rng.random()
        nodes = [f"n{i:02d}" for i in range(k)]
        edges = [(a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < density]
        graph = graph_of(edges, nodes=nodes)
        subset = rng.sample(nodes, rng.randint(2, k))
        history: list[int] = []
        expected_history: list[int] = []
        expected, _ = _reference_min_bisection(graph, subset, trial, expected_history)
        assert get_min_bisection(graph, subset, trial, history) == expected
        assert history == expected_history
        assert best_bisection(graph, subset, trial) == _reference_best_bisection(
            graph, subset, trial)
