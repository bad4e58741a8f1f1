"""Triplet-attribute graph, its square, and balanced min-cut partitioning."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BisectionSizeError, SchemaError
from .tabular import Dataset
from .transforms import PvtTriplet


@dataclass(frozen=True)
class PvtAttributeGraph:
    """Bipartite graph: triplets on one side, dataset attributes on the other."""

    triplet_ids: tuple[str, ...]
    attributes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # (triplet id, attribute)

    def attribute_degree(self, attribute: str) -> int:
        return sum(1 for _, a in self.edges if a == attribute)


@dataclass(frozen=True)
class PvtDependencyGraph:
    """Triplets connected whenever they share at least one attribute."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # sorted id pairs


def build_pvt_attribute_graph(triplets: Iterable[PvtTriplet], dataset: Dataset) -> PvtAttributeGraph:
    """One edge per (triplet, mentioned attribute); unknown attributes are rejected."""
    ids = []
    edges = set()
    for t in triplets:
        ids.append(t.id)
        for attribute in t.profile.attributes():
            if attribute not in dataset.attributes:
                raise SchemaError(f"{t.id} references unknown attribute {attribute!r}")
            edges.add((t.id, attribute))
    return PvtAttributeGraph(tuple(sorted(ids)), dataset.attributes, frozenset(edges))


def build_dependency_graph(graph: PvtAttributeGraph) -> PvtDependencyGraph:
    by_attribute: dict[str, list[str]] = {}
    for t, a in graph.edges:
        by_attribute.setdefault(a, []).append(t)
    edges = set()
    for members in by_attribute.values():
        members = sorted(members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                edges.add((u, v))
    return PvtDependencyGraph(graph.triplet_ids, frozenset(edges))


def _adjacency(graph: PvtDependencyGraph, nodes: list[str]) -> dict[str, set[str]]:
    """Neighbour sets of the subgraph induced by ``nodes``."""
    restricted = set(nodes)
    adjacency: dict[str, set[str]] = {u: set() for u in nodes}
    for u, v in graph.edges:
        if u in restricted and v in restricted:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def _cut_size(adjacency: dict[str, set[str]], half1: set[str], half2: set[str]) -> int:
    return sum(1 for u in half1 for v in adjacency[u] if v in half2)


def get_min_bisection(
    graph: PvtDependencyGraph,
    nodes: Sequence[str],
    seed: int,
    history: list[int] | None = None,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Swap-based local search for a balanced partition with few cross edges.

    Starts from a seeded random balanced split, then greedily takes the
    first pair swap that reduces the cut and rescans, until no swap helps.
    The cut size never increases between iterations; ``history`` (when
    given) collects it after every improving swap. With an odd node count
    the first half is the larger one.
    """
    nodes = sorted(set(nodes))
    if len(nodes) < 2:
        raise BisectionSizeError(f"bisection needs at least 2 nodes, got {len(nodes)}")
    adjacency = _adjacency(graph, nodes)
    rng = random.Random(seed)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    half = (len(shuffled) + 1) // 2
    half1, half2 = set(shuffled[:half]), set(shuffled[half:])
    cut = _cut_size(adjacency, half1, half2)
    if history is not None:
        history.append(cut)
    max_sweeps = 10 * len(nodes) ** 2
    sweeps = 0
    improved = True
    while improved and sweeps < max_sweeps:
        improved = False
        sweeps += 1
        for u in sorted(half1):
            for v in sorted(half2):
                # gain of swapping u and v across the cut
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
    return tuple(sorted(half1)), tuple(sorted(half2))


def best_bisection(
    graph: PvtDependencyGraph,
    nodes: Sequence[str],
    seed: int,
    restarts: int = 3,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Best of several seeded local searches (smallest final cut wins)."""
    best = None
    best_cut = None
    nodes = sorted(set(nodes))
    adjacency = _adjacency(graph, nodes)
    for attempt in range(max(1, restarts)):
        halves = get_min_bisection(graph, nodes, seed + 7919 * attempt)
        cut = _cut_size(adjacency, set(halves[0]), set(halves[1]))
        if best_cut is None or cut < best_cut:
            best, best_cut = halves, cut
    return best


def random_balanced_split(nodes: Sequence[str], seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded random balanced split (the classical group-testing partitioner)."""
    nodes = sorted(set(nodes))
    if len(nodes) < 2:
        raise BisectionSizeError(f"split needs at least 2 nodes, got {len(nodes)}")
    rng = random.Random(seed)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    half = (len(shuffled) + 1) // 2
    return tuple(sorted(shuffled[:half])), tuple(sorted(shuffled[half:]))


def attribute_graph_to_dot(graph: PvtAttributeGraph) -> str:
    """DOT rendering: triplets as boxes, attributes as ellipses."""
    lines = ["graph pvt_attributes {", "  rankdir=LR;"]
    for t in graph.triplet_ids:
        lines.append(f'  "{t}" [shape=box];')
    used = {a for _, a in graph.edges}
    for a in graph.attributes:
        if a in used:
            lines.append(f'  "{a}" [shape=ellipse];')
    for t, a in sorted(graph.edges):
        lines.append(f'  "{t}" -- "{a}";')
    lines.append("}")
    return "\n".join(lines)
