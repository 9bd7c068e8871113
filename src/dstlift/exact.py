"""Exact reference computations: optimal Steiner trees and the root-path table.

Everything here runs in exact rational arithmetic and is meant for desk-scale
instances, where it serves as ground truth for the LP/SDP relaxations and the
randomized rounding.  The optimum uses the classic dynamic program over
(node, terminal-subset) states: subtrees covering a subset are either merged
at a common node from two smaller subsets or extended upward along one edge,
with the edge extension phase run as a Dijkstra sweep per subset.  It runs on
ints: costs times the lcm of their denominators keep every comparison.
"""

from __future__ import annotations

import heapq
import math
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
    full = (1 << k) - 1
    scale = math.lcm(*(c.denominator for _, c in inst.edges))
    cost_of = {e: c.numerator * (scale // c.denominator) for e, c in inst.edges}
    in_edges = {
        v: [(e, e[0], cost_of[e]) for e in es] for v, es in inst.in_edges.items()
    }

    # best[mask][v]: cheapest tree rooted at v spanning mask's terminals.
    best: list[dict[str, int]] = [dict() for _ in range(full + 1)]
    choice: list[dict[str, tuple]] = [dict() for _ in range(full + 1)]
    for i, s in enumerate(terms):
        best[1 << i][s] = 0
        choice[1 << i][s] = ("leaf",)

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
            for edge, tail, cost in in_edges[v]:
                cand = c + cost
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
    cost = Fraction(best[full][inst.root], scale)
    return ExactResult(cost=cost, edges=frozenset(edges), states=states)


def root_paths(layered: LayeredInstance) -> dict[str, list[tuple[EdgeId, ...]]]:
    """Every root path of a layered graph as an edge sequence, keyed by end node.

    The root holds the empty path.  Levels are walked in order, and a node's
    paths are its in-edges appended to their tails' paths, sorted by edge
    sequence for reproducibility.  More than PATH_CAP paths to any one node
    is an error rather than a truncation, raised as the table is built.
    """
    graph = layered.graph
    paths: dict[str, list[tuple[EdgeId, ...]]] = {graph.root: [()]}
    for level in layered.levels[1:]:
        for v in level:
            found = sorted(p + (e,) for e in graph.in_edges[v] for p in paths[e[0]])
            if len(found) > PATH_CAP:
                raise CapExceededError(f"more than {PATH_CAP} paths to {v!r}")
            paths[v] = found
    return paths


def enumerate_paths(layered: LayeredInstance, target: str) -> list[PathRecord]:
    """All root-to-`target` paths in a layered graph, sorted by edge sequence.

    The root's only path is empty, which is not a PathRecord: it gets none.
    """
    graph = layered.graph
    if target not in set(graph.nodes):
        raise ValueError(f"unknown node {target!r}")
    if target == graph.root:
        return []
    return [trace_path(graph, p) for p in root_paths(layered)[target]]
