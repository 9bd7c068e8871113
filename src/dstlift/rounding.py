"""Randomized path sampling against a moment oracle, with repair and stats.

Sampling walks a layered graph level by level: root edges enter with their
own moment value as probability, and a kept partial path extends along each
outgoing edge with the conditional probability (path-plus-edge moment over
path moment).  The kept set is prefix-closed, so its edge union is exactly
the union of its paths.  Repetition plus cheapest-path repair for missed
terminals yields a feasible tree; `stats` measures the per-path hit rates,
per-terminal path counts, and cost against what the moments promise.

Randomness comes from a counter-based generator keyed by (seed, trial), so
every trial is reproducible in isolation and the draw order is fixed by the
documented traversal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol, Union

import numpy as np

from .exact import enumerate_paths
from .instance import (
    DstInstance,
    EdgeId,
    LayeredInstance,
    PathRecord,
    reachable,
    shortest_path,
    verify_solution,
)
from .flow_lp import VariableMap
from .moments import MomentVector, iset

Value = Union[Fraction, float]

DEAD_PATH_TOL = 1.0e-12


class MomentOracle(Protocol):
    """Moment access keyed by sets of layered edges."""

    def query(self, edges: frozenset[EdgeId]) -> Value: ...


class VectorOracle:
    """Oracle backed by a moment vector over a layered instance's variables."""

    def __init__(self, vector: MomentVector, vmap: VariableMap):
        self.vector = vector
        self.vmap = vmap
        self.queries = 0

    def query(self, edges: frozenset[EdgeId]) -> Value:
        self.queries += 1
        return self.vector.value(
            iset(self.vmap.edge_ordinal(e) for e in edges)
        )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one trial; streams never overlap."""
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


@dataclass
class SampleRun:
    """One sampling pass: the kept paths and bookkeeping counters."""

    paths: tuple[tuple[EdgeId, ...], ...]
    edges: frozenset[EdgeId]
    full_paths: tuple[tuple[EdgeId, ...], ...]
    z: dict[str, int]
    queries: int
    clamps: int
    dead: int

    def cost(self, graph: DstInstance) -> Fraction:
        return sum((graph.cost(e) for e in self.edges), Fraction(0))


def sample_once(
    oracle: MomentOracle,
    layered: LayeredInstance,
    rng: np.random.Generator,
) -> SampleRun:
    """Sample one prefix-closed path set from the oracle's distribution.

    Candidate edges are visited in sorted order within each level and kept
    paths in discovery order, so the number and order of uniform draws is a
    function of the draws themselves; one uniform is consumed per candidate.
    Conditional probabilities outside [0, 1] (possible for approximate
    oracles) are clamped and counted; paths whose moment falls below an
    absolute floor are not extended and counted as dead.
    """
    graph = layered.graph
    level_of = layered.level_of
    terminals = set(graph.terminals)
    queries = 0
    clamps = 0
    dead = 0
    kept: list[tuple[tuple[EdgeId, ...], Value]] = []

    for edge in graph.out_edges[graph.root]:
        queries += 1
        p = oracle.query(frozenset((edge,)))
        prob = float(p)
        if prob < 0.0 or prob > 1.0:
            clamps += 1
            prob = min(1.0, max(0.0, prob))
        if rng.random() < prob:
            kept.append(((edge,), p))

    for level in range(1, layered.ell):
        snapshot = [
            (path, weight)
            for path, weight in kept
            if level_of[path[-1][1]] == level
        ]
        for path, weight in snapshot:
            end = path[-1][1]
            if float(weight) <= DEAD_PATH_TOL:
                dead += 1
                continue
            for edge in graph.out_edges[end]:
                queries += 1
                extended = oracle.query(frozenset(path) | {edge})
                if isinstance(weight, Fraction) and isinstance(extended, Fraction):
                    ratio = extended / weight
                else:
                    ratio = float(extended) / float(weight)
                prob = float(ratio)
                if prob < 0.0 or prob > 1.0:
                    clamps += 1
                    prob = min(1.0, max(0.0, prob))
                if rng.random() < prob:
                    kept.append((path + (edge,), extended))

    z: dict[str, int] = {s: 0 for s in graph.terminals}
    full = []
    edges: set[EdgeId] = set()
    for path, _ in kept:
        edges.update(path)
        end = path[-1][1]
        if end in terminals:
            z[end] += 1
            full.append(path)
    return SampleRun(
        paths=tuple(path for path, _ in kept),
        edges=frozenset(edges),
        full_paths=tuple(full),
        z=z,
        queries=queries,
        clamps=clamps,
        dead=dead,
    )


def default_reps(layered: LayeredInstance) -> int:
    """Repetition count: about twice the depth times the log terminal count."""
    k = len(layered.graph.terminals)
    return max(1, math.ceil(2 * layered.ell * math.log2(max(k, 1))))


@dataclass
class RoundResult:
    edges: frozenset[EdgeId]
    cost: Fraction
    connected_before_repair: dict[str, bool]
    repair_edges: frozenset[EdgeId]
    repair_cost: Fraction
    repetitions: int
    queries: int
    clamps: int
    z_totals: dict[str, int]


def round_solution(
    oracle: MomentOracle,
    layered: LayeredInstance,
    reps: int | None = None,
    seed: int = 0,
) -> RoundResult:
    """Repeat sampling, union the edges, and repair missed terminals.

    Terminals not reached by the union get their cheapest root path added,
    so the result is always feasible; the repair cost is reported separately.
    Trial i uses the generator keyed by (seed, i).
    """
    graph = layered.graph
    reps = default_reps(layered) if reps is None else reps
    if reps < 1:
        raise ValueError("need at least one repetition")
    union: set[EdgeId] = set()
    queries = 0
    clamps = 0
    z_totals = {s: 0 for s in graph.terminals}
    for trial in range(reps):
        run = sample_once(oracle, layered, trial_rng(seed, trial))
        union.update(run.edges)
        queries += run.queries
        clamps += run.clamps
        for s, count in run.z.items():
            z_totals[s] += count

    reached = reachable([graph.root], union)
    connected = {s: s in reached for s in graph.terminals}
    repair: set[EdgeId] = set()
    for s in graph.terminals:
        if not connected[s]:
            path = shortest_path(graph, s)
            repair.update(set(path.edges) - union)
    final = union | repair
    feasible, cost = verify_solution(graph, final)
    assert feasible, "repair must reconnect every terminal"
    repair_cost = sum((graph.cost(e) for e in repair), Fraction(0))
    return RoundResult(
        edges=frozenset(final),
        cost=cost,
        connected_before_repair=connected,
        repair_edges=frozenset(repair),
        repair_cost=repair_cost,
        repetitions=reps,
        queries=queries,
        clamps=clamps,
        z_totals=z_totals,
    )


@dataclass
class TerminalStats:
    terminal: str
    trials: int
    mean_z: float
    se_mean_z: float
    p_positive: float
    se_p_positive: float
    mean_z_given_positive: float | None
    se_z_given_positive: float | None


@dataclass
class PathStats:
    terminal: str
    path: tuple[EdgeId, ...]
    oracle_value: Value
    hits: int
    frequency: float
    se: float


@dataclass
class EdgeStats:
    edge: EdgeId
    oracle_value: Value
    hits: int
    frequency: float
    se: float


@dataclass
class StatsReport:
    trials: int
    terminals: list[TerminalStats]
    paths: list[PathStats]
    edges: list[EdgeStats]
    mean_cost: float
    se_cost: float
    fractional_cost: float
    queries: int
    clamps: int
    dead: int


def collect_stats(
    oracle: MomentOracle,
    layered: LayeredInstance,
    trials: int,
    seed: int = 0,
) -> StatsReport:
    """Empirical sampling statistics against the oracle's promised values.

    Tracks per-terminal full-path counts (mean, positive fraction,
    conditional mean), per-full-path hit frequency with its binomial
    standard error next to the oracle moment, per-edge appearance frequency
    next to the edge moment, and the sampled cost against the fractional
    edge cost.
    """
    graph = layered.graph
    if trials < 1:
        raise ValueError("need at least one trial")
    z_hist: dict[str, dict[int, int]] = {s: {} for s in graph.terminals}
    path_hits: dict[tuple[EdgeId, ...], int] = {}
    edge_hits: dict[EdgeId, int] = {e: 0 for e, _ in graph.edges}
    cost_sum = 0.0
    cost_sq = 0.0
    queries = 0
    clamps = 0
    dead = 0
    terminal_of_level = set(graph.terminals)
    for trial in range(trials):
        run = sample_once(oracle, layered, trial_rng(seed, trial))
        queries += run.queries
        clamps += run.clamps
        dead += run.dead
        for s, count in run.z.items():
            z_hist[s][count] = z_hist[s].get(count, 0) + 1
        for path in run.full_paths:
            path_hits[path] = path_hits.get(path, 0) + 1
        for e in run.edges:
            edge_hits[e] += 1
        c = float(run.cost(graph))
        cost_sum += c
        cost_sq += c * c

    terminals = []
    for s in graph.terminals:
        hist = z_hist[s]
        total = sum(v * c for v, c in hist.items())
        mean = total / trials
        var = sum(c * (v - mean) ** 2 for v, c in hist.items()) / max(trials - 1, 1)
        pos_trials = sum(c for v, c in hist.items() if v >= 1)
        p_pos = pos_trials / trials
        se_p = math.sqrt(max(p_pos * (1 - p_pos), 0.0) / trials)
        if pos_trials:
            mean_pos = total / pos_trials
            var_pos = (
                sum(c * (v - mean_pos) ** 2 for v, c in hist.items() if v >= 1)
                / max(pos_trials - 1, 1)
            )
            se_pos = math.sqrt(var_pos / pos_trials)
        else:
            mean_pos = None
            se_pos = None
        terminals.append(
            TerminalStats(
                terminal=s,
                trials=trials,
                mean_z=mean,
                se_mean_z=math.sqrt(var / trials),
                p_positive=p_pos,
                se_p_positive=se_p,
                mean_z_given_positive=mean_pos,
                se_z_given_positive=se_pos,
            )
        )

    path_rows = []
    for s in graph.terminals:
        for record in enumerate_paths(layered, s):
            path = record.edges
            hits = path_hits.get(path, 0)
            freq = hits / trials
            path_rows.append(
                PathStats(
                    terminal=s,
                    path=path,
                    oracle_value=oracle.query(frozenset(path)),
                    hits=hits,
                    frequency=freq,
                    se=math.sqrt(max(freq * (1 - freq), 0.0) / trials),
                )
            )
    covered = {row.path for row in path_rows}
    for path, hits in sorted(path_hits.items()):
        if path not in covered and path[-1][1] in terminal_of_level:
            freq = hits / trials
            path_rows.append(
                PathStats(
                    terminal=path[-1][1],
                    path=path,
                    oracle_value=oracle.query(frozenset(path)),
                    hits=hits,
                    frequency=freq,
                    se=math.sqrt(max(freq * (1 - freq), 0.0) / trials),
                )
            )

    edge_rows = []
    frac_cost = 0.0
    for e, cost in graph.edges:
        hits = edge_hits[e]
        freq = hits / trials
        value = oracle.query(frozenset((e,)))
        frac_cost += float(cost) * float(value)
        edge_rows.append(
            EdgeStats(
                edge=e,
                oracle_value=value,
                hits=hits,
                frequency=freq,
                se=math.sqrt(max(freq * (1 - freq), 0.0) / trials),
            )
        )

    mean_cost = cost_sum / trials
    var_cost = max(cost_sq / trials - mean_cost * mean_cost, 0.0)
    if trials > 1:
        var_cost = var_cost * trials / (trials - 1)
    return StatsReport(
        trials=trials,
        terminals=terminals,
        paths=path_rows,
        edges=edge_rows,
        mean_cost=mean_cost,
        se_cost=math.sqrt(var_cost / trials),
        fractional_cost=frac_cost,
        queries=queries,
        clamps=clamps,
        dead=dead,
    )


@dataclass
class MarginalRow:
    label: str
    value: Value
    bound: Value
    ok: bool


@dataclass
class MarginalReport:
    edge_rows: list[MarginalRow]
    terminal_rows: list[MarginalRow]
    prefix_rows: list[MarginalRow]
    ok: bool


def edge_marginal_check(
    oracle: MomentOracle,
    layered: LayeredInstance,
    tol: float = 0.0,
) -> MarginalReport:
    """Exact consistency of path sums against edge and prefix moments.

    Per edge, the total moment of paths ending with it must not exceed the
    edge moment; per terminal, full-path moments must sum to one; per proper
    path prefix, the moments of its full-path extensions must not exceed the
    prefix moment.  For exact oracles `tol` should stay zero.
    """
    graph = layered.graph
    edge_rows = []
    for e, _ in graph.edges:
        total = _path_sum(oracle, layered, e)
        bound = oracle.query(frozenset((e,)))
        edge_rows.append(
            MarginalRow(
                label=f"edge[{e[0]}->{e[1]}]",
                value=total,
                bound=bound,
                ok=not _greater(total, bound, tol),
            )
        )

    terminal_rows = []
    prefix_rows = []
    for s in graph.terminals:
        records = [p.edges for p in enumerate_paths(layered, s)]
        weights = {p: oracle.query(frozenset(p)) for p in records}
        total = sum(weights.values())
        deviation = abs(total - 1)
        terminal_rows.append(
            MarginalRow(
                label=f"terminal[{s}]",
                value=total,
                bound=1,
                ok=deviation <= tol,
            )
        )
        prefixes = sorted(
            {p[:k] for p in records for k in range(1, len(p))}
        )
        for prefix in prefixes:
            partial = sum(w for p, w in weights.items() if p[: len(prefix)] == prefix)
            bound = oracle.query(frozenset(prefix))
            prefix_rows.append(
                MarginalRow(
                    label=f"prefix[{s}][{prefix!r}]",
                    value=partial,
                    bound=bound,
                    ok=not _greater(partial, bound, tol),
                )
            )
    ok = all(r.ok for r in edge_rows + terminal_rows + prefix_rows)
    return MarginalReport(
        edge_rows=edge_rows,
        terminal_rows=terminal_rows,
        prefix_rows=prefix_rows,
        ok=ok,
    )


def _path_sum(
    oracle: MomentOracle, layered: LayeredInstance, edge: EdgeId
):
    total = None
    for record in enumerate_paths(layered, edge):
        w = oracle.query(frozenset(record.edges))
        total = w if total is None else total + w
    if total is None:
        return Fraction(0)
    return total


def _greater(value, bound, tol: float) -> bool:
    if tol:
        return float(value) > float(bound) + tol
    return value > bound  # exact comparison, no float coercion
