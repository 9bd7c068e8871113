"""Instance model: parsing, validation, closure, levelization, map-back."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dstlift import (
    InstanceError,
    LayeringError,
    as_layered,
    levelize,
    make_instance,
    map_back,
    metric_closure,
    parse_instance,
    format_instance,
    shortest_path,
    verify_solution,
)
from dstlift.instance import parse_cost, trace_path

from conftest import REFERENCE_TEXT


def test_parse_round_trip(reference_instance):
    text = format_instance(reference_instance, comment="round trip")
    again = parse_instance(text)
    assert again == reference_instance


def test_parse_costs():
    assert parse_cost("3/2") == Fraction(3, 2)
    assert parse_cost("1.5") == Fraction(3, 2)
    assert parse_cost("0") == 0
    with pytest.raises(InstanceError):
        parse_cost("-1")
    with pytest.raises(InstanceError):
        parse_cost("x")


def test_parse_rejects_bad_header():
    with pytest.raises(InstanceError):
        parse_instance("node a\n")
    bad_counts = REFERENCE_TEXT.replace("dst 12 17", "dst 12 16")
    with pytest.raises(InstanceError):
        parse_instance(bad_counts)


def test_parallel_edges_keep_cheapest():
    inst = make_instance(
        ["r", "s"],
        [("r", "s", Fraction(5)), ("r", "s", Fraction(2))],
        "r",
        ["s"],
    )
    assert inst.cost(("r", "s")) == 2
    assert len(inst.edges) == 1


@pytest.mark.parametrize(
    "nodes,edges,root,terminals",
    [
        (["r"], [], "r", []),  # no terminals
        (["r", "s"], [("r", "s", Fraction(1))], "r", ["r", "s"]),  # root terminal
        (["r", "s"], [("s", "r", Fraction(1))], "r", ["s"]),  # unreachable
        (["r", "s"], [("r", "r", Fraction(1))], "r", ["s"]),  # self loop
        (["r", "s"], [("r", "x", Fraction(1))], "r", ["s"]),  # unknown endpoint
        (["r", "s"], [("r", "s", Fraction(-1))], "r", ["s"]),  # negative cost
    ],
)
def test_validation_rejects(nodes, edges, root, terminals):
    with pytest.raises(InstanceError):
        make_instance(nodes, edges, root, terminals)


def _random_instance(rng: random.Random, n: int):
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.45:
                edges.append((nodes[i], nodes[j], Fraction(rng.randint(0, 8))))
    # guarantee reachability of the last node from the first via a chain
    for i in range(n - 1):
        edges.append((nodes[i], nodes[i + 1], Fraction(rng.randint(1, 8))))
    return make_instance(nodes, edges, nodes[0], [nodes[-1]])


def _closure_brute(inst, source, target):
    """Bellman-Ford style relaxation, independent of the Dijkstra code."""
    dist = {source: Fraction(0)}
    for _ in range(len(inst.nodes)):
        for (tail, head), cost in inst.edges:
            if tail in dist:
                cand = dist[tail] + cost
                if head not in dist or cand < dist[head]:
                    dist[head] = cand
    return dist.get(target)


@pytest.mark.parametrize("seed", range(12))
def test_metric_closure_matches_relaxation_oracle(seed):
    rng = random.Random(seed)
    inst = _random_instance(rng, rng.randint(3, 7))
    closure = metric_closure(inst)
    for u in inst.nodes:
        for v in inst.nodes:
            if u == v:
                continue
            expected = _closure_brute(inst, u, v)
            hit = closure.get((u, v))
            if expected is None:
                assert hit is None
            else:
                assert hit is not None and hit.cost == expected
                walked = trace_path(inst, hit.edges)
                assert walked.start == u and walked.end == v
                assert walked.cost == expected
                path = shortest_path(inst, v, u)
                assert (path.edges, path.cost) == (hit.edges, hit.cost)


def test_single_hop_levelize_collapses_to_closure_edge():
    # path r -> a -> s with a detour; one level keeps only the closure hop
    inst = make_instance(
        ["r", "a", "s"],
        [("r", "a", Fraction(1)), ("a", "s", Fraction(1)), ("r", "s", Fraction(5))],
        "r",
        ["s"],
    )
    layered = levelize(inst, 1)
    assert layered.ell == 1
    assert [("r@0", "s@1")] == [e for e, _ in layered.graph.edges]
    assert layered.graph.cost(("r@0", "s@1")) == 2
    assert layered.expansion[("r@0", "s@1")] == (("r", "a"), ("a", "s"))
    base = map_back(layered, {("r@0", "s@1")})
    assert base == {("r", "a"), ("a", "s")}


def test_levelize_structure(reference_instance):
    layered = levelize(reference_instance, 2)
    level_of = {v: j for j, layer in enumerate(layered.levels) for v in layer}
    assert set(layered.levels[0]) == {"r@0"}
    for (tail, head), _ in layered.graph.edges:
        assert level_of[head] == level_of[tail] + 1
    assert set(layered.levels[-1]) == {f"s{i}@2" for i in (1, 2, 3, 4)}
    # duplicate-node edges cost zero and expand to nothing
    for (tail, head), cost in layered.graph.edges:
        if tail.split("@")[0] == head.split("@")[0]:
            assert cost == 0
            assert layered.expansion[(tail, head)] == ()


def test_levelize_closure_costs(reference_instance):
    closure = metric_closure(reference_instance)
    assert closure[("r", "s4")].cost == 5  # r-u3-v4-s4
    assert closure[("r", "s2")].cost == 8  # r-u1-v2-s2
    layered = levelize(reference_instance, 1)
    assert layered.graph.cost(("r@0", "s4@1")) == 5
    assert layered.graph.cost(("r@0", "s2@1")) == 8


def test_levelize_prune_drops_dead_nodes():
    # node d is unreachable-to-terminal noise once layered
    inst = make_instance(
        ["r", "a", "d", "s"],
        [
            ("r", "a", Fraction(1)),
            ("a", "s", Fraction(1)),
            ("a", "d", Fraction(1)),
        ],
        "r",
        ["s"],
    )
    full = levelize(inst, 2)
    pruned = levelize(inst, 2, prune=True)
    assert len(pruned.graph.nodes) < len(full.graph.nodes)
    assert dstlift_opt_equal(full, pruned)


def dstlift_opt_equal(a, b):
    from dstlift import exact_opt

    return exact_opt(a.graph).cost == exact_opt(b.graph).cost


def test_levelize_solution_maps_back_no_worse(reference_instance):
    from dstlift import exact_opt

    for ell in (1, 2, 3):
        layered = levelize(reference_instance, ell)
        res = exact_opt(layered.graph)
        base_edges = map_back(layered, res.edges)
        feasible, cost = verify_solution(reference_instance, base_edges)
        assert feasible
        assert cost <= res.cost  # witness union can only deduplicate cost


def test_layered_optimum_within_theory_bound(reference_instance):
    from dstlift import exact_opt

    opt = exact_opt(reference_instance).cost
    n_terms = len(reference_instance.terminals)
    for ell in (1, 2, 3):
        layered = levelize(reference_instance, ell)
        opt_layered = exact_opt(layered.graph).cost
        assert opt_layered >= opt  # mapping back cannot be cheaper than OPT
        bound = ell * float(n_terms) ** (1.0 / ell) * float(opt)
        assert float(opt_layered) <= bound + 1e-9


def test_as_layered_identity(reference_layered, reference_instance):
    assert reference_layered.ell == 3
    assert reference_layered.graph == reference_instance
    for edge, expansion in reference_layered.expansion.items():
        assert expansion == (edge,)


def test_as_layered_rejects_level_skips():
    inst = make_instance(
        ["r", "a", "s"],
        [("r", "a", Fraction(1)), ("a", "s", Fraction(1)), ("r", "s", Fraction(3))],
        "r",
        ["s"],
    )
    with pytest.raises(LayeringError):
        as_layered(inst)


def test_as_layered_rejects_nonterminal_top():
    inst = make_instance(
        ["r", "s", "x"],
        [("r", "s", Fraction(1)), ("r", "x", Fraction(1))],
        "r",
        ["s"],
    )
    with pytest.raises(LayeringError):
        as_layered(inst)


def test_map_back_requires_feasible_layered_solution(reference_layered):
    with pytest.raises(InstanceError):
        map_back(reference_layered, {("r", "u1")})  # misses most terminals


def test_shortest_path(reference_instance):
    path = shortest_path(reference_instance, "s4")
    assert path.cost == 5
    assert path.edges == (("r", "u3"), ("u3", "v4"), ("v4", "s4"))


def test_verify_solution_reports_cost_even_when_infeasible(reference_instance):
    feasible, cost = verify_solution(reference_instance, {("r", "u1")})
    assert not feasible
    assert cost == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_levelize_always_layered_and_feasible(seed, ell):
    rng = random.Random(seed)
    inst = _random_instance(rng, rng.randint(3, 6))
    layered = levelize(inst, ell)
    # re-validates levels, reachability, terminal placement
    again = as_layered(layered.graph)
    assert again.ell == layered.ell
    assert set(layered.graph.terminals) == {
        f"{s}@{ell}" for s in inst.terminals
    }
