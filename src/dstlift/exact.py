"""Exact reference computations: optimal Steiner trees and path enumeration.

Everything here runs in exact rational arithmetic and is meant for desk-scale
instances, where it serves as ground truth for the LP/SDP relaxations and the
randomized rounding.  The optimum uses the classic dynamic program over
(node, terminal-subset) states: subtrees covering a subset are either merged
at a common node from two smaller subsets or extended upward along one edge,
with the edge extension phase run as a Dijkstra sweep per subset.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .instance import (
    DstInstance,
    EdgeId,
    LayeredInstance,
    PathRecord,
    trace_path,
)

MAX_TERMINALS = 16
# More root paths than this to one target is an error, not a truncation.
PATH_CAP = 200_000


class CapExceededError(RuntimeError):
    """Raised when enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class ExactResult:
    cost: Fraction
    edges: frozenset[EdgeId]
    states: int


def exact_opt(inst: DstInstance) -> ExactResult:
    """Cheapest edge set connecting the root to every terminal, with witness.

    Runs the subset dynamic program exactly; refuses more than
    MAX_TERMINALS terminals.  The witness edge set is reconstructed from the
    DP choices and is verified by construction to cost exactly `cost` after
    deduplication, because overlapping sub-witnesses only ever lower cost and
    the DP value is a lower bound over all feasible sets.
    """
    terms = inst.terminals
    k = len(terms)
    if k > MAX_TERMINALS:
        raise CapExceededError(f"{k} terminals exceeds cap {MAX_TERMINALS}")
    bit_of = {s: 1 << i for i, s in enumerate(terms)}
    full = (1 << k) - 1
    nodes = inst.nodes

    # best[mask][v]: cheapest tree rooted at v spanning mask's terminals.
    best: list[dict[str, Fraction]] = [dict() for _ in range(full + 1)]
    choice: list[dict[str, tuple]] = [dict() for _ in range(full + 1)]
    for s in terms:
        best[bit_of[s]][s] = Fraction(0)
        choice[bit_of[s]][s] = ("leaf",)

    states = 0
    for mask in range(1, full + 1):
        table = best[mask]
        pick = choice[mask]
        sub = (mask - 1) & mask
        while sub > 0:
            other = mask ^ sub
            if sub < other:  # each split once
                for v, c1 in best[sub].items():
                    c2 = best[other].get(v)
                    if c2 is None:
                        continue
                    cand = c1 + c2
                    if v not in table or cand < table[v]:
                        table[v] = cand
                        pick[v] = ("merge", sub)
            sub = (sub - 1) & mask
        # extend trees upward: Dijkstra over reversed edges seeded with table
        heap = [(c, v) for v, c in table.items()]
        heapq.heapify(heap)
        settled: set[str] = set()
        while heap:
            c, v = heapq.heappop(heap)
            if v in settled:
                continue
            settled.add(v)
            states += 1
            for edge in inst.in_edges[v]:
                tail = edge[0]
                cand = c + inst.cost(edge)
                if tail not in table or cand < table[tail]:
                    table[tail] = cand
                    pick[tail] = ("edge", edge)
                    heapq.heappush(heap, (cand, tail))

    if inst.root not in best[full]:
        raise ValueError("no feasible solution (validated instance expected)")

    edges: set[EdgeId] = set()
    stack = [(full, inst.root)]
    while stack:
        mask, v = stack.pop()
        what = choice[mask][v]
        if what[0] == "leaf":
            continue
        if what[0] == "merge":
            stack.append((what[1], v))
            stack.append((mask ^ what[1], v))
        else:
            edge = what[1]
            edges.add(edge)
            stack.append((mask, edge[1]))
    return ExactResult(cost=best[full][inst.root], edges=frozenset(edges), states=states)


def enumerate_paths(
    layered: LayeredInstance, target: str | EdgeId
) -> list[PathRecord]:
    """All root paths in a layered graph ending at a node or with an edge.

    For a node target this is every directed root-to-node path; for an edge
    target, every root path whose final edge is exactly that edge.  Output is
    sorted by edge sequence for reproducibility.  More than PATH_CAP paths is
    an error rather than a truncation.
    """
    graph = layered.graph
    if isinstance(target, tuple):
        tail, head = target
        if target not in graph.cost_map:
            raise ValueError(f"unknown edge {target!r}")
        if tail == graph.root:
            return [trace_path(graph, [target])]
        stems = enumerate_paths(layered, tail)
        return [trace_path(graph, p.edges + (target,)) for p in stems]

    if target not in set(graph.nodes):
        raise ValueError(f"unknown node {target!r}")
    if target == graph.root:
        return []
    found: list[tuple[EdgeId, ...]] = []
    prefix: list[EdgeId] = []

    def walk(v: str) -> None:
        if v == target:
            found.append(tuple(prefix))
            if len(found) > PATH_CAP:
                raise CapExceededError(f"more than {PATH_CAP} paths to {target!r}")
            return
        for edge in graph.out_edges[v]:
            prefix.append(edge)
            walk(edge[1])
            prefix.pop()

    walk(graph.root)
    found.sort()
    return [trace_path(graph, edges) for edges in found]
