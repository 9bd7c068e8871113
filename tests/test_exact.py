"""Exact computations checked against independent brute-force oracles."""

import heapq
import itertools
import random
from fractions import Fraction

import pytest

from dstlift import (
    CapExceededError,
    enumerate_paths,
    exact,
    exact_opt,
    gen_set_cover,
    levelize,
    make_instance,
    parse_instance,
    verify_solution,
)

from conftest import REFERENCE_OPT, REFERENCE_OPT_EDGES, REFERENCE_TEXT


def _brute_opt(inst):
    """Try every edge subset; independent of the dynamic program."""
    edges = [e for e, _ in inst.edges]
    best = None
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            feasible, cost = verify_solution(inst, combo)
            if feasible and (best is None or cost < best):
                best = cost
        if best is not None and k >= len(inst.nodes):
            break  # a feasible set exists with < n edges per terminal path
    return best


def _integer_cost(rng, low):
    return Fraction(rng.randint(low, 7))


def _random_instance(rng, n, n_terms, draw=_integer_cost):
    """Random digraph plus the chain n0 -> n1 -> ..., so every node is reachable.

    `draw(rng, low)` gives each cost: low is 0 off the chain and 1 on it.
    """
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                edges.append((nodes[i], nodes[j], draw(rng, 0)))
    for i in range(n - 1):
        edges.append((nodes[i], nodes[i + 1], draw(rng, 1)))
    terms = rng.sample(nodes[1:], n_terms)
    return make_instance(nodes, edges, nodes[0], terms)


def _fraction_cost(rng, low):
    """p/q with q <= 6: the lcm scaling of the DP is exercised."""
    return Fraction(rng.randint(low, 12), rng.randint(1, 6))


# Few distinct values, so that many routes tie; 0 and 1/10**30 included.
_TIE_COSTS = [Fraction(0), Fraction(1, 10**30), Fraction(1, 3), Fraction(1, 2)]
_TIE_COSTS += [Fraction(2, 3), Fraction(5, 6), Fraction(1), Fraction(7, 4)]


def _tie_cost(rng, low):
    return rng.choice(_TIE_COSTS)  # on the chain too


def _fraction_dp(inst):
    """The subset DP on `Fraction` costs: the reference for the integer DP.

    Same merge-then-Dijkstra sweep as `exact.exact_opt`, without scaling;
    returns (cost, witness edges, settled states).
    """
    terms = inst.terminals
    full = (1 << len(terms)) - 1
    best = [dict() for _ in range(full + 1)]
    choice = [dict() for _ in range(full + 1)]
    for i, s in enumerate(terms):
        best[1 << i][s] = Fraction(0)
        choice[1 << i][s] = ("leaf",)
    states = 0
    for mask in range(1, full + 1):
        table, pick = best[mask], choice[mask]
        sub = (mask - 1) & mask
        while sub > 0:
            other = mask ^ sub
            if sub < other:
                for v, c1 in best[sub].items():
                    c2 = best[other].get(v)
                    if c2 is None:
                        continue
                    cand = c1 + c2
                    if v not in table or cand < table[v]:
                        table[v] = cand
                        pick[v] = ("merge", sub)
            sub = (sub - 1) & mask
        heap = [(c, v) for v, c in table.items()]
        heapq.heapify(heap)
        settled = set()
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
    edges = set()
    stack = [(full, inst.root)]
    while stack:
        mask, v = stack.pop()
        what = choice[mask][v]
        if what[0] == "merge":
            stack.append((what[1], v))
            stack.append((mask ^ what[1], v))
        elif what[0] == "edge":
            edges.add(what[1])
            stack.append((mask, what[1][1]))
    return best[full][inst.root], frozenset(edges), states


def _assert_same_as_fraction_dp(inst):
    result = exact_opt(inst)
    assert (result.cost, result.edges, result.states) == _fraction_dp(inst)
    assert type(result.cost) is Fraction


def test_reference_optimum(reference_instance):
    result = exact_opt(reference_instance)
    assert result.cost == REFERENCE_OPT
    assert result.edges == REFERENCE_OPT_EDGES
    feasible, cost = verify_solution(reference_instance, result.edges)
    assert feasible and cost == result.cost


@pytest.mark.parametrize("seed", range(15))
def test_exact_opt_matches_brute_force(seed):
    rng = random.Random(seed)
    inst = _random_instance(rng, rng.randint(3, 6), rng.randint(1, 2))
    result = exact_opt(inst)
    assert result.cost == _brute_opt(inst)
    feasible, cost = verify_solution(inst, result.edges)
    assert feasible
    assert cost == result.cost  # witness pays exactly the DP value


@pytest.mark.parametrize("seed", range(10))
def test_exact_opt_matches_brute_force_fractional(seed):
    rng = random.Random(seed)
    inst = _random_instance(rng, rng.randint(3, 6), rng.randint(1, 2), _fraction_cost)
    result = exact_opt(inst)
    assert result.cost == _brute_opt(inst)
    feasible, cost = verify_solution(inst, result.edges)
    assert feasible
    assert cost == result.cost


@pytest.mark.parametrize("seed", range(12))
def test_integer_dp_matches_fraction_dp(seed):
    rng = random.Random(seed)
    draw = _tie_cost if seed % 2 else _fraction_cost
    inst = _random_instance(rng, rng.randint(5, 9), rng.randint(1, 4), draw)
    _assert_same_as_fraction_dp(inst)


def test_integer_dp_matches_fraction_dp_on_tied_routes():
    # r -> s along four routes of equal cost 5/6, through 0 and 1/10**30
    third, half, tiny = Fraction(1, 3), Fraction(1, 2), Fraction(1, 10**30)
    edges = [("r", "a", third), ("a", "s", half), ("r", "b", half), ("b", "s", third)]
    edges += [("r", "c", Fraction(0)), ("c", "s", Fraction(5, 6))]
    edges += [("r", "d", Fraction(5, 6) - tiny), ("d", "s", tiny)]
    edges += [("s", "t", Fraction(0)), ("a", "t", half)]
    inst = make_instance(["r", "a", "b", "c", "d", "s", "t"], edges, "r", ["s", "t"])
    _assert_same_as_fraction_dp(inst)
    assert exact_opt(inst).cost == Fraction(5, 6)


@pytest.mark.parametrize("which", ["reference", "cover12"])
def test_integer_dp_matches_fraction_dp_on_fixed_instances(which):
    if which == "reference":
        inst = parse_instance(REFERENCE_TEXT)
    else:
        inst = gen_set_cover(12, 12, seed=0)
    _assert_same_as_fraction_dp(inst)


def test_terminal_cap():
    n = 18
    nodes = ["r"] + [f"t{i}" for i in range(n)]
    edges = [("r", f"t{i}", Fraction(1)) for i in range(n)]
    inst = make_instance(nodes, edges, "r", [f"t{i}" for i in range(n)])
    with pytest.raises(CapExceededError):
        exact_opt(inst)


def _paths_brute(layered, target):
    """Backward recursion from the target, independent of the level sweep."""
    graph = layered.graph

    def back(v):
        if v == graph.root:
            return [()]
        out = []
        for edge in graph.in_edges[v]:
            for stem in back(edge[0]):
                out.append(stem + (edge,))
        return out

    return sorted(back(target))


def test_enumerate_paths_matches_backward_oracle(reference_layered):
    for target in reference_layered.graph.nodes:
        if target == reference_layered.graph.root:
            continue
        found = [p.edges for p in enumerate_paths(reference_layered, target)]
        assert found == _paths_brute(reference_layered, target)


def test_reference_terminal_path_counts(reference_layered):
    counts = {
        s: len(enumerate_paths(reference_layered, s))
        for s in reference_layered.graph.terminals
    }
    # frozen from the agreement of the forward and backward enumerators;
    # s1 via u1-v1 / u1-v2 / u2-v2 was additionally checked by hand
    assert counts == {"s1": 3, "s2": 3, "s3": 3, "s4": 3}


def test_root_paths_match_backward_oracle(reference_instance, reference_layered):
    for layered in (reference_layered, levelize(reference_instance, 2)):
        paths = exact.root_paths(layered)
        assert set(paths) == set(layered.graph.nodes)
        for v, found in paths.items():
            assert found == _paths_brute(layered, v)


def test_root_paths_ending_with_an_edge(reference_layered):
    paths = exact.root_paths(reference_layered)
    edge = ("v2", "s1")
    ending = [p for p in paths["s1"] if p[-1] == edge]
    assert ending == [p + (edge,) for p in paths["v2"]]
    assert len(ending) == 2  # via u1 and via u2


def test_enumerate_paths_cap(reference_layered, monkeypatch):
    monkeypatch.setattr(exact, "PATH_CAP", 2)
    with pytest.raises(CapExceededError):
        enumerate_paths(reference_layered, "s1")
