"""Directed Steiner tree instances, layered graphs, and the levelization reduction.

An instance is a directed graph with nonnegative rational edge costs, a root
node and a terminal set.  A layered instance partitions the nodes into levels
0..ell so that every edge goes from level j-1 to level j, level 0 holds only
the root, and the top level holds exactly the terminals.  `levelize` turns an
arbitrary instance into a layered one over metric-closure edges; `map_back`
translates layered solutions to original edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

EdgeId = tuple[str, str]


class InstanceError(ValueError):
    """Raised for malformed instances or instance files."""


class LayeringError(ValueError):
    """Raised when a graph does not admit the requested layer structure."""


def parse_rational(token: str) -> Fraction:
    """Parse a decimal ('-1.5') or ratio ('-3/2'): one sign, next to the digits."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"bad number {token!r}") from exc


def parse_cost(token: str) -> Fraction:
    """Parse a nonnegative cost given as a decimal ('1.5') or ratio ('3/2')."""
    value = parse_rational(token)
    if value < 0:
        raise InstanceError(f"negative cost {token!r}")
    return value


def format_cost(value: Fraction) -> str:
    """`p` or `p/q`; a negative value carries its sign on the numerator."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class DstInstance:
    """A rooted directed graph with rational edge costs and terminals.

    `nodes` and `edges` are kept in canonical sorted order; `edges` maps
    (tail, head) to its cost.  Construct through `make_instance` so parallel
    edges are merged and the structure is validated.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[EdgeId, Fraction], ...]
    root: str
    terminals: tuple[str, ...]

    def cost(self, edge: EdgeId) -> Fraction:
        try:
            return self.cost_map[edge]
        except KeyError:
            raise InstanceError(f"unknown edge {edge!r}") from None

    @cached_property
    def cost_map(self) -> dict[EdgeId, Fraction]:
        return dict(self.edges)

    @cached_property
    def out_edges(self) -> dict[str, tuple[EdgeId, ...]]:
        adj: dict[str, list[EdgeId]] = {v: [] for v in self.nodes}
        for (tail, head), _ in self.edges:
            adj[tail].append((tail, head))
        return {v: tuple(es) for v, es in adj.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[EdgeId, ...]]:
        adj: dict[str, list[EdgeId]] = {v: [] for v in self.nodes}
        for (tail, head), _ in self.edges:
            adj[head].append((tail, head))
        return {v: tuple(es) for v, es in adj.items()}


def make_instance(
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str, Fraction]],
    root: str,
    terminals: Iterable[str],
) -> DstInstance:
    """Validate and canonicalize an instance.

    Parallel edges are merged keeping the cheapest copy.  Self loops, unknown
    endpoints, a terminal root, and terminals unreachable from the root are
    all rejected.
    """
    node_set = set()
    for v in nodes:
        if not v or any(c.isspace() for c in v):
            raise InstanceError(f"bad node id {v!r}")
        if v in node_set:
            raise InstanceError(f"duplicate node {v!r}")
        node_set.add(v)
    if root not in node_set:
        raise InstanceError(f"root {root!r} is not a node")
    term_list = list(terminals)
    term_set = set(term_list)
    if len(term_set) != len(term_list):
        raise InstanceError("duplicate terminal")
    if not term_set:
        raise InstanceError("no terminals")
    if not term_set <= node_set:
        raise InstanceError("terminal is not a node")
    if root in term_set:
        raise InstanceError("root cannot be a terminal")

    merged: dict[EdgeId, Fraction] = {}
    for tail, head, cost in edges:
        if tail not in node_set or head not in node_set:
            raise InstanceError(f"edge ({tail!r}, {head!r}) has unknown endpoint")
        if tail == head:
            raise InstanceError(f"self loop at {tail!r}")
        if cost < 0:
            raise InstanceError(f"negative cost on ({tail!r}, {head!r})")
        key = (tail, head)
        if key not in merged or cost < merged[key]:
            merged[key] = Fraction(cost)

    inst = DstInstance(
        nodes=tuple(sorted(node_set)),
        edges=tuple(sorted(merged.items())),
        root=root,
        terminals=tuple(sorted(term_set)),
    )
    missing = term_set - reachable([root], (edge for edge, _ in inst.edges))
    if missing:
        raise InstanceError(f"terminals unreachable from root: {sorted(missing)}")
    return inst


def reachable(starts: Iterable[str], edges: Iterable[EdgeId]) -> set[str]:
    """Nodes reachable from `starts` along the directed `edges`, starts included."""
    adj: dict[str, list[str]] = {}
    for tail, head in edges:
        adj.setdefault(tail, []).append(head)
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def parse_instance(text: str) -> DstInstance:
    """Read the plain-text instance format.

    Line `dst <n> <m>` first, then `node`, `root`, `terminal` and
    `edge <tail> <head> <cost>` records in any order.  `#` starts a comment.
    """
    nodes: list[str] = []
    edges: list[tuple[str, str, Fraction]] = []
    root: str | None = None
    terminals: list[str] = []
    header: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "dst":
                if header is not None:
                    raise InstanceError("repeated header")
                if len(parts) != 3:
                    raise InstanceError("header wants 'dst <n> <m>'")
                header = (int(parts[1]), int(parts[2]))
            elif kind == "node":
                if len(parts) != 2:
                    raise InstanceError("node wants one id")
                nodes.append(parts[1])
            elif kind == "root":
                if len(parts) != 2 or root is not None:
                    raise InstanceError("exactly one root expected")
                root = parts[1]
            elif kind == "terminal":
                if len(parts) != 2:
                    raise InstanceError("terminal wants one id")
                terminals.append(parts[1])
            elif kind == "edge":
                if len(parts) != 4:
                    raise InstanceError("edge wants '<tail> <head> <cost>'")
                edges.append((parts[1], parts[2], parse_cost(parts[3])))
            else:
                raise InstanceError(f"unknown record {kind!r}")
        except (InstanceError, ValueError) as exc:
            raise InstanceError(f"line {lineno}: {exc}") from None
    if header is None:
        raise InstanceError("missing 'dst <n> <m>' header")
    if root is None:
        raise InstanceError("missing root record")
    if header != (len(nodes), len(edges)):
        raise InstanceError(
            f"header {header} does not match {len(nodes)} nodes / {len(edges)} edges"
        )
    return make_instance(nodes, edges, root, terminals)


def format_instance(inst: DstInstance, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"dst {len(inst.nodes)} {len(inst.edges)}")
    for v in inst.nodes:
        lines.append(f"node {v}")
    lines.append(f"root {inst.root}")
    for s in inst.terminals:
        lines.append(f"terminal {s}")
    for (tail, head), cost in inst.edges:
        lines.append(f"edge {tail} {head} {format_cost(cost)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PathRecord:
    """A directed path stored as its edge sequence with total cost."""

    edges: tuple[EdgeId, ...]
    start: str
    end: str
    cost: Fraction


def trace_path(inst: DstInstance, edges: Sequence[EdgeId]) -> PathRecord:
    """Build a PathRecord, checking consecutive incidence and known edges."""
    if not edges:
        raise InstanceError("empty edge sequence")
    cost = Fraction(0)
    for i, edge in enumerate(edges):
        cost += inst.cost(edge)
        if i > 0 and edges[i - 1][1] != edge[0]:
            raise InstanceError(f"edges {edges[i-1]} and {edge} do not join")
    return PathRecord(
        edges=tuple(edges), start=edges[0][0], end=edges[-1][1], cost=cost
    )


def _cheapest_from(inst: DstInstance, source: str) -> dict[str, PathRecord]:
    """Dijkstra from `source`: a cheapest path to every other reachable node."""
    dist: dict[str, Fraction] = {source: Fraction(0)}
    parent: dict[str, EdgeId] = {}
    heap: list[tuple[Fraction, str]] = [(Fraction(0), source)]
    done: set[str] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for edge in inst.out_edges[v]:
            head = edge[1]
            nd = d + inst.cost(edge)
            # strict improvement only: keeps the parent forest acyclic;
            # witness choice is still deterministic because edges are
            # visited in canonical order
            if head not in dist or nd < dist[head]:
                dist[head] = nd
                parent[head] = edge
                heapq.heappush(heap, (nd, head))
    out: dict[str, PathRecord] = {}
    for target in done:
        if target == source:
            continue
        chain: list[EdgeId] = []
        v = target
        while v != source:
            edge = parent[v]
            chain.append(edge)
            v = edge[0]
        chain.reverse()
        out[target] = PathRecord(tuple(chain), source, target, dist[target])
    return out


def metric_closure(inst: DstInstance) -> dict[EdgeId, PathRecord]:
    """All-pairs cheapest directed paths with witness edge sequences.

    Only finite, off-diagonal pairs appear in the result.  Ties are broken
    deterministically by node id so witnesses are reproducible.
    """
    return {
        (source, target): path
        for source in inst.nodes
        for target, path in _cheapest_from(inst, source).items()
    }


def shortest_path(inst: DstInstance, target: str, source: str | None = None) -> PathRecord:
    """Cheapest path from the root (or `source`) to `target`."""
    source = inst.root if source is None else source
    nodes = set(inst.nodes)
    if target not in nodes:
        raise InstanceError(f"unknown node {target!r}")
    if source == target:
        return PathRecord(edges=(), start=source, end=target, cost=Fraction(0))
    hit = _cheapest_from(inst, source).get(target) if source in nodes else None
    if hit is None:
        raise InstanceError(f"{target!r} not reachable from {source!r}")
    return hit


@dataclass(frozen=True)
class LayeredInstance:
    """A layered graph with its provenance back to a base instance.

    `levels` lists the node ids per level; `expansion` maps each layered edge
    to the base-instance edges it stands for (empty for duplicate-node edges,
    identity for graphs that were already layered).
    """

    graph: DstInstance
    base: DstInstance
    ell: int
    levels: tuple[tuple[str, ...], ...]
    expansion: Mapping[EdgeId, tuple[EdgeId, ...]] = field(hash=False)


def _copy_name(node: str, level: int) -> str:
    return f"{node}@{level}"


def levelize(inst: DstInstance, ell: int, prune: bool = False) -> LayeredInstance:
    """Unroll an instance into `ell` levels of metric-closure hops.

    Level 0 is the root copy, levels 1..ell-1 copy every non-terminal node,
    and level ell copies exactly the terminals.  Consecutive copies of one
    node are joined at cost zero; other in-level-order pairs get an edge at
    metric-closure cost when a directed path exists.  Any tree in the result
    maps back (through `map_back`) to a base solution of no greater cost.
    """
    if ell < 1:
        raise LayeringError("need at least one level")
    closure = metric_closure(inst)
    term_set = set(inst.terminals)
    inner = tuple(v for v in inst.nodes if v not in term_set)
    base_levels: list[tuple[str, ...]] = [(inst.root,)]
    for _ in range(1, ell):
        base_levels.append(inner)
    base_levels.append(inst.terminals)

    layer_names = [
        tuple(_copy_name(v, j) for v in layer) for j, layer in enumerate(base_levels)
    ]
    edges: list[tuple[str, str, Fraction]] = []
    expansion: dict[EdgeId, tuple[EdgeId, ...]] = {}
    for j in range(1, ell + 1):
        for u in base_levels[j - 1]:
            for v in base_levels[j]:
                lu, lv = _copy_name(u, j - 1), _copy_name(v, j)
                if u == v:
                    edges.append((lu, lv, Fraction(0)))
                    expansion[(lu, lv)] = ()
                else:
                    hit = closure.get((u, v))
                    if hit is not None:
                        edges.append((lu, lv, hit.cost))
                        expansion[(lu, lv)] = hit.edges

    if prune:
        keep_nodes, keep_edges = _prune_useless(
            layer_names, edges, _copy_name(inst.root, 0)
        )
        layer_names = [
            tuple(v for v in layer if v in keep_nodes) for layer in layer_names
        ]
        edges = [e for e in edges if (e[0], e[1]) in keep_edges]
        expansion = {k: v for k, v in expansion.items() if k in keep_edges}

    graph = make_instance(
        nodes=[v for layer in layer_names for v in layer],
        edges=edges,
        root=_copy_name(inst.root, 0),
        terminals=layer_names[-1],
    )
    return LayeredInstance(
        graph=graph,
        base=inst,
        ell=ell,
        levels=tuple(tuple(sorted(layer)) for layer in layer_names),
        expansion=expansion,
    )


def _prune_useless(
    layer_names: list[tuple[str, ...]],
    edges: list[tuple[str, str, Fraction]],
    root: str,
) -> tuple[set[str], set[EdgeId]]:
    forward = [(tail, head) for tail, head, _ in edges]
    backward = [(head, tail) for tail, head in forward]
    alive = reachable([root], forward) & reachable(layer_names[-1], backward)
    keep_edges = {
        (tail, head) for tail, head, _ in edges if tail in alive and head in alive
    }
    return alive, keep_edges


def as_layered(inst: DstInstance) -> LayeredInstance:
    """Wrap an already-layered instance with identity provenance.

    Checks that breadth levels from the root are consistent (every edge spans
    consecutive levels), that every node is reachable, and that the top level
    is exactly the terminal set.
    """
    level_of = {inst.root: 0}
    frontier = [inst.root]
    while frontier:
        nxt = []
        for v in frontier:
            for _, head in inst.out_edges[v]:
                if head not in level_of:
                    level_of[head] = level_of[v] + 1
                    nxt.append(head)
        frontier = nxt
    missing = set(inst.nodes) - set(level_of)
    if missing:
        raise LayeringError(f"unreachable nodes: {sorted(missing)}")
    for (tail, head), _ in inst.edges:
        if level_of[head] != level_of[tail] + 1:
            raise LayeringError(f"edge ({tail}, {head}) skips levels")
    ell = max(level_of.values())
    if ell < 1:
        raise LayeringError("graph has a single level")
    top = {v for v, j in level_of.items() if j == ell}
    if top != set(inst.terminals):
        raise LayeringError("top level must hold exactly the terminals")
    if any(level_of[s] != ell for s in inst.terminals):
        raise LayeringError("terminal below top level")
    levels: list[list[str]] = [[] for _ in range(ell + 1)]
    for v, j in level_of.items():
        levels[j].append(v)
    return LayeredInstance(
        graph=inst,
        base=inst,
        ell=ell,
        levels=tuple(tuple(sorted(layer)) for layer in levels),
        expansion={edge: (edge,) for edge, _ in inst.edges},
    )


def map_back(layered: LayeredInstance, edges: Iterable[EdgeId]) -> set[EdgeId]:
    """Translate a feasible layered edge set into base-instance edges.

    The chosen layered edges must connect the layered root to every layered
    terminal.  Expansion witnesses are unioned, so shared base edges are paid
    once and the mapped cost never exceeds the layered cost.
    """
    chosen = set(edges)
    for edge in chosen:
        if edge not in layered.expansion:
            raise InstanceError(f"edge {edge!r} is not in the layered graph")
    unreached = set(layered.graph.terminals) - reachable([layered.graph.root], chosen)
    if unreached:
        raise InstanceError(f"layered solution misses terminals {sorted(unreached)}")
    base_edges: set[EdgeId] = set()
    for edge in chosen:
        base_edges.update(layered.expansion[edge])
    return base_edges


def verify_solution(
    inst: DstInstance, edges: Iterable[EdgeId]
) -> tuple[bool, Fraction]:
    """Check that an edge set connects the root to all terminals; return cost.

    The cost of the (deduplicated) edge set is returned whether or not it is
    feasible, so callers can report both.
    """
    chosen = set(edges)
    cost = sum((inst.cost(edge) for edge in chosen), Fraction(0))
    return set(inst.terminals) <= reachable([inst.root], chosen), cost
