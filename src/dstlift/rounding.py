"""Randomized path sampling against a moment oracle, with repair and stats.

Sampling grows root paths level by level from the empty path, whose moment
is one: a kept path P extends along each outgoing edge e of its end with the
conditional probability y(P + e) / y(P), which for the empty path is the
root edge's own moment.  A query takes the path's edges as they are; the
vector oracle ORs their bits into one mask and reads one entry.  The kept
set is prefix-closed, so its edge union is exactly the union of its paths.
Repetition plus cheapest-path repair for missed terminals yields a feasible
tree; `stats` measures the per-path hit rates, per-terminal path counts, and
cost against what the moments promise.

Every trial of one call walks the same tree of root paths, which grows as
trials reach new nodes: the first trial to keep a path reads its extensions'
moments and computes their probabilities and clamp and dead flags, and later
trials only draw against them.  So each path is read from the oracle at most
once a call, and a path below a branch that no trial keeps is never read.

Randomness comes from a counter-based generator keyed by (seed, trial), so
every trial is reproducible in isolation and the draw order is fixed by the
documented traversal order.  One call re-keys a single generator per trial
instead of building one; its draws equal those of `trial_rng(seed, trial)`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Iterator, Protocol

import numpy as np

from .exact import root_paths
from .instance import (
    EdgeId,
    LayeredInstance,
    reachable,
    shortest_path,
    verify_solution,
)
from .flow_lp import VariableMap
from .moments import MissingMomentError, MomentVector, Value, set_of

DEAD_PATH_TOL = 1.0e-12
# Uniforms per block in the rounding loops; a trial on the 12-node reference
# instance reads about 15.
_DRAW_BLOCK = 64


class MomentOracle(Protocol):
    """Moment access keyed by a path's edges: any iterable of distinct edges."""

    def query(self, edges: Iterable[EdgeId]) -> Value: ...


class VectorOracle:
    """Moment-vector oracle: a query ORs its edges' ordinal bits, reads one entry."""

    def __init__(self, vector: MomentVector, vmap: VariableMap):
        self.vector = vector
        self.queries = 0
        self._bit = {e: 1 << vmap.edge_ordinal(e) for e in vmap.edge_list}

    def query(self, edges: Iterable[EdgeId]) -> Value:
        self.queries += 1
        mask = 0
        for e in edges:
            mask |= self._bit[e]
        try:
            return self.vector.entries[mask]
        except KeyError:
            raise MissingMomentError(set_of(mask)) from None


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based generator for one trial; streams never overlap."""
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def _trial_draws(seed: int, trials: int) -> Iterator[Callable[[], float]]:
    """`trial_rng(seed, t).random` for t = 0, 1, ..., from one re-keyed generator.

    Each trial starts from a fresh state: key (seed, t), counter zero and an
    empty buffer.  The seed's key word is taken from the generator, which
    wraps a negative seed where a uint64 array would reject it.  Uniforms
    are drawn in blocks; reading ahead of a trial's last draw is harmless,
    since the next trial resets the state.
    """
    bits = np.random.Philox(key=[seed, 0])
    block = np.random.Generator(bits).random
    fresh = bits.state
    key = fresh["state"]["key"]

    def draws() -> Iterator[float]:
        while True:
            yield from block(_DRAW_BLOCK).tolist()

    for trial in range(trials):
        key[1] = trial
        bits.state = fresh
        yield draws().__next__


@dataclass
class SampleRun:
    """One sampling pass: the kept paths and bookkeeping counters.

    `queries` counts the candidates the pass examined, whether the oracle or
    the sampling tree (an earlier trial of the same call) supplied their
    moments.
    """

    paths: tuple[tuple[EdgeId, ...], ...]
    edges: frozenset[EdgeId]
    full_paths: tuple[tuple[EdgeId, ...], ...]
    queries: int
    clamps: int
    dead: int


def sample_once(
    oracle: MomentOracle,
    layered: LayeredInstance,
    rng: np.random.Generator,
) -> SampleRun:
    """Sample one prefix-closed path set from the oracle's distribution.

    Sampling starts from the empty root path, of moment one, and takes
    `layered.ell` steps: each extends the paths kept at the previous step,
    in discovery order, along their end's outgoing edges in sorted order, so
    the number and order of uniform draws is a function of the draws
    themselves; one uniform is consumed per candidate.  A root edge is kept
    with its own moment as probability, a longer extension with the ratio
    of its moment to its prefix's.  Probabilities outside [0, 1] (possible
    for approximate oracles) are clamped and counted; paths whose moment
    falls below an absolute floor are not extended and counted as dead.
    A path is kept with probability at most its moment, so with a real
    generator a dead path is a one-in-1e12 event: `dead` counts only under
    an injected draw source.
    """
    return _PathTree(oracle, layered).sample(rng.random)


class _Node:
    """A root path in the sampling tree, with its extensions once read.

    `children` holds (probability, node) per outgoing edge of `end`, in
    `out_edges` order, and `clamps` how many of those probabilities were
    clamped; `children` stays None until a trial extends the path.
    """

    __slots__ = ("path", "end", "weight", "dead", "children", "clamps")

    def __init__(self, path: tuple[EdgeId, ...], end: str, weight: Value):
        self.path = path
        self.end = end
        self.weight = weight
        self.dead = bool(path) and float(weight) <= DEAD_PATH_TOL
        self.children: list[tuple[float, _Node]] | None = None
        self.clamps = 0


class _PathTree:
    """The root paths that trials reach, grown on demand, and their moments.

    Every path is read from the oracle at most once: `moment` keeps what it
    read, and a node's extensions are read and turned into probabilities the
    first time a trial keeps it, in the order `sample_once` documents.
    """

    def __init__(self, oracle: MomentOracle, layered: LayeredInstance):
        self.oracle = oracle
        self.layered = layered
        self.root = _Node((), layered.graph.root, 1)
        self._moments: dict[tuple[EdgeId, ...], Value] = {}

    def moment(self, path: tuple[EdgeId, ...]) -> Value:
        try:
            return self._moments[path]
        except KeyError:
            value = self._moments[path] = self.oracle.query(path)
            return value

    def _extend(self, node: _Node) -> list[tuple[float, _Node]]:
        path, weight = node.path, node.weight
        children = []
        clamps = 0
        for edge in self.layered.graph.out_edges[node.end]:
            ext = path + (edge,)
            extended = self.moment(ext)
            prob = float(extended / weight if path else extended)
            if prob < 0.0 or prob > 1.0:
                clamps += 1
                prob = min(1.0, max(0.0, prob))
            children.append((prob, _Node(ext, edge[1], extended)))
        node.children = children
        node.clamps = clamps
        return children

    def sample(self, random: Callable[[], float]) -> SampleRun:
        """One trial of `sample_once`, with `random` giving the uniforms."""
        queries = 0
        clamps = 0
        dead = 0
        kept: list[_Node] = []
        frontier = [self.root]
        for _ in range(self.layered.ell):
            grown = []
            for node in frontier:
                if node.dead:
                    dead += 1
                    continue
                children = node.children
                if children is None:
                    children = self._extend(node)
                queries += len(children)
                clamps += node.clamps
                for prob, child in children:
                    if random() < prob:
                        grown.append(child)
            kept += grown
            frontier = grown

        return SampleRun(
            paths=tuple(node.path for node in kept),
            # prefix-closed: every edge of a kept path ends a kept path
            edges=frozenset(node.path[-1] for node in kept),
            full_paths=tuple(node.path for node in frontier),
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
    tree = _PathTree(oracle, layered)
    union: set[EdgeId] = set()
    queries = 0
    clamps = 0
    for draw in _trial_draws(seed, reps):
        run = tree.sample(draw)
        union.update(run.edges)
        queries += run.queries
        clamps += run.clamps

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
    # Int costs over a common denominator: a tree's cost is an exact sum,
    # so its float does not depend on the hash order of `run.edges`.
    scale = math.lcm(*(c.denominator for c in graph.cost_map.values()))
    scaled = {e: int(c * scale) for e, c in graph.cost_map.items()}
    z_hist: dict[str, Counter[int]] = {s: Counter() for s in graph.terminals}
    path_hits: Counter[tuple[EdgeId, ...]] = Counter()
    edge_hits: Counter[EdgeId] = Counter()
    cost_sum = 0.0
    cost_sq = 0.0
    queries = 0
    clamps = 0
    dead = 0
    tree = _PathTree(oracle, layered)
    for draw in _trial_draws(seed, trials):
        run = tree.sample(draw)
        queries += run.queries
        clamps += run.clamps
        dead += run.dead
        ends = Counter(path[-1][1] for path in run.full_paths)
        for s, hist in z_hist.items():
            hist[ends[s]] += 1
        path_hits.update(run.full_paths)
        edge_hits.update(run.edges)
        c = sum(scaled[e] for e in run.edges) / scale
        cost_sum += c
        cost_sq += c * c

    terminals = []
    for s, hist in z_hist.items():
        mean, se = _mean_se(hist.items(), trials)
        positive = [(v, c) for v, c in hist.items() if v >= 1]
        pos_trials = sum(c for _, c in positive)
        p_pos = pos_trials / trials
        mean_pos, se_pos = _mean_se(positive, pos_trials) if pos_trials else (None, None)
        terminals.append(
            TerminalStats(
                terminal=s,
                trials=trials,
                mean_z=mean,
                se_mean_z=se,
                p_positive=p_pos,
                se_p_positive=_se(p_pos, trials),
                mean_z_given_positive=mean_pos,
                se_z_given_positive=se_pos,
            )
        )

    # Every sampled full path ends at a terminal, so each terminal's
    # root paths list every path that was hit.
    paths = root_paths(layered)
    path_rows = []
    for s in graph.terminals:
        for path in paths[s]:
            hits = path_hits[path]
            path_rows.append(
                PathStats(
                    terminal=s,
                    path=path,
                    oracle_value=tree.moment(path),
                    hits=hits,
                    frequency=hits / trials,
                    se=_se(hits / trials, trials),
                )
            )

    edge_rows = []
    frac_cost = 0.0
    for e, cost in graph.edges:
        hits = edge_hits[e]
        freq = hits / trials
        value = tree.moment((e,))
        frac_cost += float(cost) * float(value)
        edge_rows.append(
            EdgeStats(
                edge=e,
                oracle_value=value,
                hits=hits,
                frequency=freq,
                se=_se(freq, trials),
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
    prefix moment.  For exact oracles `tol` should stay zero.  Each root
    path is queried once, by the row of its last edge; the terminal and
    prefix rows reuse those values.
    """
    graph = layered.graph
    paths = root_paths(layered)
    weight: dict[tuple[EdgeId, ...], Value] = {}
    edge_rows = []
    for e, _ in graph.edges:
        ends = [p + (e,) for p in paths[e[0]]]
        weight.update((q, oracle.query(q)) for q in ends)
        total = sum((weight[q] for q in ends), Fraction(0))
        bound = oracle.query((e,))
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
        total = sum(weight[p] for p in paths[s])
        deviation = abs(total - 1)
        terminal_rows.append(
            MarginalRow(
                label=f"terminal[{s}]",
                value=total,
                bound=1,
                ok=deviation <= tol,
            )
        )
        # one pass in path order, each sum starting from 0 as `sum` does
        partial: dict[tuple[EdgeId, ...], Value] = {}
        for p in paths[s]:
            for k in range(1, len(p)):
                partial[p[:k]] = partial.get(p[:k], 0) + weight[p]
        for prefix, value in sorted(partial.items()):
            bound = weight[prefix]
            prefix_rows.append(
                MarginalRow(
                    label=f"prefix[{s}][{prefix!r}]",
                    value=value,
                    bound=bound,
                    ok=not _greater(value, bound, tol),
                )
            )
    ok = all(r.ok for r in edge_rows + terminal_rows + prefix_rows)
    return MarginalReport(
        edge_rows=edge_rows,
        terminal_rows=terminal_rows,
        prefix_rows=prefix_rows,
        ok=ok,
    )


def _mean_se(pairs: Collection[tuple[int, int]], n: int) -> tuple[float, float]:
    """Mean and its standard error over `n` draws given (value, count) pairs."""
    mean = sum(v * c for v, c in pairs) / n
    var = sum(c * (v - mean) ** 2 for v, c in pairs) / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def _se(freq: float, trials: int) -> float:
    """Binomial standard error of a frequency over `trials` draws."""
    return math.sqrt(max(freq * (1 - freq), 0.0) / trials)


def _greater(value, bound, tol: float) -> bool:
    if tol:
        return float(value) > float(bound) + tol
    return value > bound  # exact comparison, no float coercion
