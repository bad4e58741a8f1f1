"""Triplet dependency graph and balanced min-cut partitioning."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import BisectionSizeError
from .profiles import Profile
from .transforms import PvtTriplet

#: seeded local searches :func:`best_bisection` runs; attempt 0 uses the seed
BISECTION_RESTARTS = 3


@dataclass(frozen=True)
class PvtDependencyGraph:
    """Triplets connected whenever they share at least one attribute."""

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # sorted id pairs


def attribute_degrees(profiles: Iterable[Profile]) -> Counter:
    """How many of ``profiles`` mention each attribute."""
    return Counter(a for profile in profiles for a in profile.attributes())


def build_dependency_graph(triplets: Iterable[PvtTriplet]) -> PvtDependencyGraph:
    ids = []
    by_attribute: dict[str, set[str]] = {}
    for t in triplets:
        ids.append(t.id)
        for attribute in t.profile.attributes():
            by_attribute.setdefault(attribute, set()).add(t.id)
    edges = {pair for members in by_attribute.values()
             for pair in combinations(sorted(members), 2)}
    return PvtDependencyGraph(tuple(sorted(ids)), frozenset(edges))


def _adjacency(graph: PvtDependencyGraph, nodes: Iterable[str]) -> dict[str, set[str]]:
    """Neighbour sets of the subgraph induced by ``nodes``."""
    adjacency: dict[str, set[str]] = {u: set() for u in nodes}
    for u, v in graph.edges:
        if u in adjacency and v in adjacency:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


def _shuffled_halves(nodes: Iterable[str], seed: int, what: str) -> tuple[list[str], list[str]]:
    """The distinct ``nodes`` in sorted order, shuffled by ``seed`` and cut in
    two; with an odd count the first half is the larger one."""
    shuffled = sorted(set(nodes))
    if len(shuffled) < 2:
        raise BisectionSizeError(f"{what} needs at least 2 nodes, got {len(shuffled)}")
    random.Random(seed).shuffle(shuffled)
    half = (len(shuffled) + 1) // 2
    return shuffled[:half], shuffled[half:]


def _local_search(adjacency: dict[str, set[str]], seed: int, history: list[int] | None = None
                  ) -> tuple[tuple[str, ...], tuple[str, ...], int]:
    """Both halves, sorted, and their cut: from the seeded split of the
    nodes, take the first pair swap in sorted order that lowers the cut,
    until none does."""
    half1, half2 = map(set, _shuffled_halves(adjacency, seed, "bisection"))
    cut = sum(1 for u in half1 for v in adjacency[u] if v in half2)
    while True:  # each swap lowers the integer cut, so this ends
        if history is not None:
            history.append(cut)
        order1, order2 = tuple(sorted(half1)), tuple(sorted(half2))
        if cut == 0:  # no swap lowers a zero cut
            return order1, order2, cut
        # external minus internal edges of every node
        excess = {u: 2 * len(adjacency[u] & other) - len(adjacency[u])
                  for own, other in ((half1, half2), (half2, half1)) for u in own}
        swap = next(((u, v, gain) for u in order1 for v in order2
                     if (gain := excess[u] + excess[v] - 2 * (v in adjacency[u])) > 0),
                    None)
        if swap is None:
            return order1, order2, cut
        u, v, gain = swap
        half1.remove(u)
        half2.remove(v)
        half1.add(v)
        half2.add(u)
        cut -= gain


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
    return _local_search(_adjacency(graph, nodes), seed, history)[:2]


def best_bisection(
    graph: PvtDependencyGraph,
    nodes: Sequence[str],
    seed: int,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Best of ``BISECTION_RESTARTS`` seeded local searches (the first with
    the smallest final cut wins)."""
    adjacency = _adjacency(graph, nodes)
    return min((_local_search(adjacency, seed + 7919 * attempt)
                for attempt in range(BISECTION_RESTARTS)), key=lambda found: found[2])[:2]


def random_balanced_split(nodes: Sequence[str], seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded random balanced split (the classical group-testing partitioner)."""
    half1, half2 = _shuffled_halves(nodes, seed, "split")
    return tuple(sorted(half1)), tuple(sorted(half2))


def _dot_id(name: str) -> str:
    """``name`` as a DOT quoted string, its ``\\`` and ``"`` escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def attribute_graph_to_dot(triplets: Sequence[PvtTriplet], attributes: Sequence[str]) -> str:
    """DOT rendering: triplets as boxes, the ``attributes`` they mention as ellipses."""
    edges = sorted({(t.id, a) for t in triplets for a in t.profile.attributes()})
    used = {a for _, a in edges}
    lines = ["graph pvt_attributes {", "  rankdir=LR;"]
    lines += [f"  {_dot_id(t)} [shape=box];" for t in sorted(t.id for t in triplets)]
    lines += [f"  {_dot_id(a)} [shape=ellipse];" for a in attributes if a in used]
    lines += [f"  {_dot_id(t)} -- {_dot_id(a)};" for t, a in edges]
    lines.append("}")
    return "\n".join(lines)
