"""Instance generators, the end-to-end pipeline, and experiment suites.

Generators produce set-cover shaped instances (root, weighted set nodes,
free set-to-element edges), a small family with a known fractional gap, and
random layered graphs where every node keeps a forced parent so terminals
stay reachable.  Paid edges cost an integer drawn from `COST_RANGE`; beyond
its forced parent, an element joins each set with `MEMBERSHIP_PROB` and a
layered node takes each other parent with `EXTRA_EDGE_PROB`.
`run_pipeline` chains levelize, LP, lift, solve, certify, exact reference,
and rounding into one report row; `SUITES` lists each suite's rows as data,
which `run_experiment` runs in order, and `ratio_table` renders a
gnuplot-friendly table of the result.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass, is_dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from . import exact, flow_lp, lasserre, moments, rounding
from .instance import (
    DstInstance,
    LayeredInstance,
    as_layered,
    format_cost,
    levelize,
    make_instance,
    map_back,
    verify_solution,
)


COST_RANGE = (1, 9)
MEMBERSHIP_PROB = 0.4
EXTRA_EDGE_PROB = 0.35


class GenerationError(RuntimeError):
    """A generator could not produce a valid instance."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the stage name is attached."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def set_cover_instance(
    costs: Sequence[Fraction | int],
    memberships: Sequence[Iterable[int]],
) -> DstInstance:
    """Explicit set-cover instance: per-set costs and covered element lists."""
    n_sets = len(costs)
    if n_sets != len(memberships):
        raise GenerationError("one membership list per set expected")
    elements: set[int] = set()
    for members in memberships:
        elements.update(members)
    if not elements:
        raise GenerationError("no elements")
    uncovered = set(range(max(elements) + 1)) - elements
    if uncovered:
        raise GenerationError(f"elements never covered: {sorted(uncovered)}")
    nodes = ["r"] + [f"S{i}" for i in range(n_sets)] + [
        f"e{j}" for j in sorted(elements)
    ]
    edges: list[tuple[str, str, Fraction]] = []
    for i, cost in enumerate(costs):
        edges.append(("r", f"S{i}", Fraction(cost)))
    for i, members in enumerate(memberships):
        for j in members:
            edges.append((f"S{i}", f"e{j}", Fraction(0)))
    return make_instance(
        nodes, edges, "r", [f"e{j}" for j in sorted(elements)]
    )


def gen_set_cover(n_sets: int, n_elements: int, seed: int = 0) -> DstInstance:
    """Random set cover; every element gets a forced covering set."""
    if n_sets < 1 or n_elements < 1:
        raise GenerationError("need at least one set and one element")
    rng = random.Random(seed)
    costs = [rng.randint(*COST_RANGE) for _ in range(n_sets)]
    memberships: list[set[int]] = [set() for _ in range(n_sets)]
    for j in range(n_elements):
        memberships[rng.randrange(n_sets)].add(j)
        for i in range(n_sets):
            if rng.random() < MEMBERSHIP_PROB:
                memberships[i].add(j)
    return set_cover_instance(costs, memberships)


def gap_instance(k: int) -> DstInstance:
    """All (k-1)-subsets of k elements at unit cost.

    Two sets always cover everything while spreading weight 1/(k-1) over all
    sets is fractionally feasible, so the integral optimum is 2 against a
    fractional value of k/(k-1).
    """
    if k < 3:
        raise GenerationError("need k >= 3 for a gap")
    memberships = [
        set(combo) for combo in itertools.combinations(range(k), k - 1)
    ]
    return set_cover_instance([1] * len(memberships), memberships)


def gen_random_layered(
    ell: int, widths: Sequence[int], seed: int = 0
) -> DstInstance:
    """Random layered instance: `widths` sizes levels 1..ell, last = terminals.

    Each node below the root keeps one forced parent in the previous level,
    so the instance always validates; extra edges appear independently.
    """
    if ell < 1:
        raise GenerationError("need at least one level")
    if len(widths) != ell:
        raise GenerationError(f"widths wants {ell} entries")
    if any(w < 1 for w in widths):
        raise GenerationError("empty level")
    rng = random.Random(seed)
    levels: list[list[str]] = [["r"]]
    for j in range(1, ell):
        levels.append([f"a{j}n{i}" for i in range(widths[j - 1])])
    levels.append([f"t{i}" for i in range(widths[-1])])
    edges: list[tuple[str, str, Fraction]] = []
    for j in range(1, ell + 1):
        for node in levels[j]:
            parents = levels[j - 1]
            forced = parents[rng.randrange(len(parents))]
            chosen = {forced}
            for parent in parents:
                if parent != forced and rng.random() < EXTRA_EDGE_PROB:
                    chosen.add(parent)
            for parent in sorted(chosen):
                edges.append((parent, node, Fraction(rng.randint(*COST_RANGE))))
    inst = make_instance(
        [v for layer in levels for v in layer], edges, "r", levels[-1]
    )
    as_layered(inst)  # structural sanity; raises on a generator bug
    return inst


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, rationals as 'p/q' strings."""
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def _plain(value):
    if isinstance(value, Fraction):
        return format_cost(value)
    if is_dataclass(value) and not isinstance(value, type):
        return _plain(asdict(value))
    if isinstance(value, dict):
        return {_plain_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [_plain(v) for v in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _plain_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def layer(inst: DstInstance, ell: int | None) -> LayeredInstance:
    """`inst` as a layered instance: levelized to `ell` layers when given,
    otherwise it must already be layered."""
    return as_layered(inst) if ell is None else levelize(inst, ell)


def round_record(seed: int, result: rounding.RoundResult) -> dict:
    """The report fields of one rounding run."""
    return {
        "seed": seed,
        "cost": result.cost,
        "repair_cost": result.repair_cost,
        "repetitions": result.repetitions,
        "clamps": result.clamps,
        "queries": result.queries,
    }


def round_summary(runs: list[dict]) -> dict:
    """Rounding runs with their mean and best cost."""
    costs = [float(r["cost"]) for r in runs]
    return {"runs": runs, "mean_cost": sum(costs) / len(costs), "best_cost": min(costs)}


# Solver output is certified at this tolerance and rounded once per seed,
# each time with the default repetition count.
CERTIFY_TOL = 1.0e-5
ROUNDING_SEEDS = (0, 1, 2)


@dataclass
class PipelineConfig:
    solver: lasserre.SolverConfig = lasserre.SolverConfig()
    budget: int = lasserre.DEFAULT_BUDGET
    do_round: bool = True


def run_pipeline(
    inst: DstInstance,
    ell: int | None,
    level: int,
    name: str = "instance",
    config: PipelineConfig | None = None,
) -> dict:
    """One instance through the whole chain; returns a report row.

    With `ell` given the instance is levelized first, otherwise it must
    already be layered.  Rounding reads moments of path-sized sets, so it
    requires the lift level to reach the layer depth; that is rejected up
    front, before any solving happens.
    """
    cfg = config or PipelineConfig()

    def stage(name_: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineError(name_, str(exc)) from exc

    layered = stage("layering", layer, inst, ell)
    if cfg.do_round and level < layered.ell:
        raise PipelineError(
            "precondition",
            f"rounding needs lift level >= layer depth {layered.ell}, got {level}",
        )

    cs, vmap = stage("flow-lp", flow_lp.build_flow_lp, layered)
    lp = stage("lp-solve", flow_lp.solve_lp, cs)
    if lp.status != "optimal":
        raise PipelineError("lp-solve", f"unexpected status {lp.status}")

    problem = stage("lift", lasserre.assemble, cs, level, cfg.budget)
    sdp = stage("sdp-solve", lasserre.solve, problem, cfg.solver)
    report = stage(
        "certify",
        moments.certify,
        sdp.vector,
        level,
        cs.rows,
        CERTIFY_TOL,
    )

    opt_layered = stage("exact", exact.exact_opt, layered.graph)
    opt_base = stage("exact", exact.exact_opt, layered.base)

    row = {
        "name": name,
        "n_nodes": len(layered.graph.nodes),
        "n_edges": len(layered.graph.edges),
        "n_terminals": len(layered.graph.terminals),
        "ell": layered.ell,
        "level": level,
        "n_lp_vars": cs.n_vars,
        "n_lp_rows": len(cs.rows),
        "lp_value": lp.objective,
        "sdp_value": sdp.objective,
        "sdp_diagnostics": sdp.diagnostics,
        "certify_ok": report.ok,
        "certify_issues": len(report.issues),
        "opt_layered": opt_layered.cost,
        "opt_base": opt_base.cost,
        "lp_over_opt": float(lp.objective) / float(opt_layered.cost)
        if opt_layered.cost
        else None,
        "sdp_over_opt": sdp.objective / float(opt_layered.cost)
        if opt_layered.cost
        else None,
    }
    if cfg.do_round:
        oracle = rounding.VectorOracle(sdp.vector, vmap)
        rounds = []
        for seed in ROUNDING_SEEDS:
            result = stage(
                "rounding", rounding.round_solution, oracle, layered, None, seed
            )
            mapped = stage("map-back", _map_back_cost, layered, result)
            rounds.append(round_record(seed, result) | {"base_cost": mapped})
        summary = round_summary(rounds)
        summary["rounded_over_opt"] = (
            summary["best_cost"] / float(opt_layered.cost) if opt_layered.cost else None
        )
        row["rounding"] = summary
    return row


def _map_back_cost(layered: LayeredInstance, result: rounding.RoundResult):
    base_edges = map_back(layered, result.edges)
    feasible, cost = verify_solution(layered.base, base_edges)
    if not feasible:
        raise ValueError("mapped solution must stay feasible")
    return cost


def _chain() -> DstInstance:
    return make_instance(
        ["r", "a", "s"], [("r", "a", Fraction(2)), ("a", "s", Fraction(3))], "r", ["s"]
    )


def _diamond() -> DstInstance:
    """Two root-terminal routes of costs 5 and 3."""
    return make_instance(
        ["r", "a", "b", "s"],
        [
            ("r", "a", Fraction(1)),
            ("r", "b", Fraction(2)),
            ("a", "s", Fraction(4)),
            ("b", "s", Fraction(1)),
        ],
        "r",
        ["s"],
    )


# A suite is rows of (name, instance builder, lift level, round?); the builders
# look generators up at call time, so a wrapped generator is the one called.
_SMOKE = (("chain", _chain, 2, True), ("diamond", _diamond, 2, True))
_GAP = (("gap3", lambda: gap_instance(3), 1, False),)
SUITES = {
    "smoke": _SMOKE,
    "gap": _GAP,
    "full": _SMOKE + _GAP + (
        ("layered-2x2", lambda: gen_random_layered(2, [2, 2], seed=7), 1, False),
        ("cover-3x2", lambda: gen_set_cover(3, 2, seed=11), 1, False),
    ),
}


def run_experiment(
    suite: str, config: PipelineConfig | None = None
) -> dict:
    """Run a named suite and return its JSON-ready report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    config = config or PipelineConfig()
    no_round = replace(config, do_round=False)
    rows = [
        run_pipeline(make(), None, level, name, config if rounds else no_round)
        for name, make, level, rounds in SUITES[suite]
    ]
    return {
        "suite": suite,
        "rows": rows,
        "summary": {
            "instances": len(rows),
            "max_lp_over_opt": max(
                (r["lp_over_opt"] for r in rows if r["lp_over_opt"]), default=None
            ),
            "min_lp_over_opt": min(
                (r["lp_over_opt"] for r in rows if r["lp_over_opt"]), default=None
            ),
        },
    }


def ratio_table(report: dict) -> str:
    """Gnuplot-friendly table: name, lp/opt, sdp/opt, rounded/opt."""
    lines = ["# name lp_over_opt sdp_over_opt rounded_over_opt"]
    for row in report["rows"]:
        rounded = row.get("rounding", {}).get("rounded_over_opt")
        lines.append(
            f"{row['name']} "
            f"{_num(row['lp_over_opt'])} {_num(row['sdp_over_opt'])} {_num(rounded)}"
        )
    return "\n".join(lines) + "\n"


def _num(value) -> str:
    return "nan" if value is None else f"{value:.6f}"
