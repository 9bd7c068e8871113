"""Exact computations checked against independent brute-force oracles."""

import itertools
import random
from fractions import Fraction

import pytest

from dstlift import (
    CapExceededError,
    enumerate_paths,
    exact,
    exact_opt,
    levelize,
    make_instance,
    verify_solution,
)

from conftest import REFERENCE_OPT, REFERENCE_OPT_EDGES


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


def _random_instance(rng, n, n_terms):
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.5:
                edges.append((nodes[i], nodes[j], Fraction(rng.randint(0, 7))))
    for i in range(n - 1):
        edges.append((nodes[i], nodes[i + 1], Fraction(rng.randint(1, 7))))
    terms = rng.sample(nodes[1:], n_terms)
    return make_instance(nodes, edges, nodes[0], terms)


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
