"""The three workloads: seeded inputs, fixed job lists, and output checks.

Every job returns a record and a list of problems.  The record is what must
repeat exactly on every pass of a run; a problem is a failed check.  Library
calls go through module attributes (`flow_lp.solve_lp`, not a bound name) so
that the tracer's wrappers see them.  Why each workload exists is written
down in README.md next to this file.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from dstlift import exact, flow_lp, harness, instance, lasserre, moments, rounding
from dstlift.moments import MomentVector

MODULES = {
    "instance": instance,
    "flow_lp": flow_lp,
    "lasserre": lasserre,
    "moments": moments,
    "rounding": rounding,
    "exact": exact,
    "harness": harness,
}

# Acceptance criterion 2's tolerance on LP <= SDP(0) <= SDP(1) <= OPT.
SANDWICH_TOL = 1.0e-5

# Acceptance-2 shapes that ADMM finishes in about 1.5 s or less at level 1,
# each pinned to its usual flow-LP column count so that every seed gives a
# lift of the same size.  The 9- and 12-column shapes take 4-23 s a solve.
LIFT_SHAPES = (
    (1, (1,), 2),
    (1, (2,), 6),
    (2, (1, 1), 4),
    (2, (2, 1), 6),
    (3, (1, 1, 1), 6),
)

ROUND_SEEDS = 250
STATS_TRIALS = 2500

REFERENCE_TEXT = """\
# three-hop reference instance, optimum 19
dst 12 17
node r
node u1
node u2
node u3
node v1
node v2
node v3
node v4
node s1
node s2
node s3
node s4
root r
terminal s1
terminal s2
terminal s3
terminal s4
edge r u1 3
edge r u2 4
edge r u3 2
edge u1 v1 3
edge u1 v2 5
edge u2 v2 8
edge u2 v3 9
edge u2 v4 7
edge u3 v4 2
edge v1 s1 2
edge v2 s1 6
edge v2 s2 0
edge v2 s3 1
edge v3 s2 7
edge v3 s3 4
edge v3 s4 8
edge v4 s4 1
"""

Result = tuple[object, list[str]]


@dataclass
class Job:
    name: str
    run: Callable[[], Result]


@dataclass
class Workload:
    jobs: list[Job]
    warmup: Callable[[], None]
    # Per-layer metrics that should account for most of a traced pass.
    target_layers: tuple[str, ...]


def _fr(*edges):
    return [(tail, head, Fraction(cost)) for tail, head, cost in edges]


def chain():
    return instance.make_instance(
        ["r", "a", "s"], _fr(("r", "a", 2), ("a", "s", 3)), "r", ["s"]
    )


def diamond():
    """Two root-terminal routes of costs 5 and 3."""
    return instance.make_instance(
        ["r", "a", "b", "s"],
        _fr(("r", "a", 1), ("r", "b", 2), ("a", "s", 4), ("b", "s", 1)),
        "r",
        ["s"],
    )


def star():
    """Two terminals straight below the root."""
    return instance.make_instance(
        ["r", "s1", "s2"], _fr(("r", "s1", 2), ("r", "s2", 5)), "r", ["s1", "s2"]
    )


def wide3():
    """Three disjoint two-hop routes to one terminal."""
    return instance.make_instance(
        ["r", "a", "b", "c", "s"],
        _fr(
            ("r", "a", 1),
            ("r", "b", 2),
            ("r", "c", 3),
            ("a", "s", 3),
            ("b", "s", 2),
            ("c", "s", 1),
        ),
        "r",
        ["s"],
    )


def pinned_random_layered(ell, widths, n_vars, start):
    """First `gen_random_layered` output from seed `start` on with `n_vars` columns."""
    for seed in range(start, start + 1000):
        inst = harness.gen_random_layered(ell, list(widths), seed=seed)
        if flow_lp.build_flow_lp(instance.as_layered(inst))[0].n_vars == n_vars:
            return inst
    raise RuntimeError(f"no {ell}-level {widths} instance with {n_vars} columns")


def _guard(run: Callable[[], Result]) -> Callable[[], Result]:
    """A job that raises has failed; the error text is its problem."""

    def guarded() -> Result:
        try:
            return run()
        except Exception as exc:  # any library error is a failed job
            return None, [f"{type(exc).__name__}: {exc}"]

    return guarded


# ---------------------------------------------------------------------------
# lift-solve


def _pipeline_job(name, inst, levels) -> Job:
    """`run_pipeline` at each level, rounding with seeds 0-2 once level >= ell."""
    ell = instance.as_layered(inst).ell
    configs = [harness.PipelineConfig(do_round=level >= ell) for level in levels]

    def run():
        rows = [
            harness.run_pipeline(inst, None, level, name=name, config=config)
            for level, config in zip(levels, configs)
        ]
        problems = []
        lp, opt = rows[0]["lp_value"], rows[0]["opt_layered"]
        scale = max(1.0, abs(float(opt)))
        sandwich = [float(lp)] + [row["sdp_value"] for row in rows] + [float(opt)]
        excess = max((lo - hi) / scale for lo, hi in zip(sandwich, sandwich[1:]))
        if excess > SANDWICH_TOL:
            problems.append(f"sandwich excess {excess:.2e}")
        if lp > opt:
            problems.append(f"LP {lp} above OPT {opt}")
        for level, row in zip(levels, rows):
            diag = row["sdp_diagnostics"]
            if not diag["converged"]:
                problems.append(f"level {level}: ADMM stopped at {diag['iterations']}")
            if not row["certify_ok"] or row["certify_issues"]:
                problems.append(f"level {level}: {row['certify_issues']} certify issues")
            dims = lasserre.lift_dimensions(row["n_lp_vars"], level)
            got = {k: diag[k] for k in dims}
            if got != dims or diag["n_row_blocks"] != row["n_lp_rows"]:
                problems.append(f"level {level}: lift sizes {got} against {dims}")
            for run_ in row.get("rounding", {}).get("runs", ()):
                if run_["base_cost"] > run_["cost"]:
                    problems.append(f"seed {run_['seed']}: base cost above layered")
                if run_["cost"] < opt:
                    problems.append(f"seed {run_['seed']}: tree cheaper than OPT")
        return "".join(harness.canonical_json(row) for row in rows), problems

    return Job(name, _guard(run))


def lift_solve(seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = [
        _pipeline_job("chain@2", chain(), (2,)),
        _pipeline_job("star@1", star(), (1,)),
        _pipeline_job("diamond@1", diamond(), (1,)),
    ]
    for ell, widths, n_vars in LIFT_SHAPES:
        inst = pinned_random_layered(ell, widths, n_vars, rng.randrange(1 << 30))
        name = f"rand{ell}-{'x'.join(map(str, widths))}@0,1"
        jobs.append(_pipeline_job(name, inst, (0, 1)))

    def warmup():
        # The diamond holds the largest blocks: the first solve at that size
        # in a process is about twice as slow as later ones.
        jobs[1].run()
        jobs[2].run()

    return Workload(jobs, warmup, ("lasserre.solve_s",))


# ---------------------------------------------------------------------------
# big-lp


def _lp_job(name, inst) -> Job:
    def run():
        layered = instance.as_layered(inst)
        cs, _ = flow_lp.build_flow_lp(layered)
        lp = flow_lp.solve_lp(cs)
        opt = exact.exact_opt(layered.graph)
        dims = lasserre.lift_dimensions(cs.n_vars, 1)
        if lp.status != "optimal":
            return lp.status, [f"LP status {lp.status}"]
        problems = []
        bad = flow_lp.check_point(cs, lp.values)
        if bad:
            problems.append(f"LP point violates {len(bad)} rows, first {bad[0].label}")
        value = sum((c * x for c, x in zip(cs.objective, lp.values)), Fraction(0))
        if value != lp.objective:
            problems.append(f"c.x = {value} but LP reports {lp.objective}")
        if value > opt.cost:
            problems.append(f"LP {value} above OPT {opt.cost}")
        if instance.verify_solution(layered.graph, opt.edges) != (True, opt.cost):
            problems.append("exact witness does not verify at its cost")
        return (str(lp.objective), str(opt.cost), dims), problems

    return Job(name, _guard(run))


def _cover_exact_job(name, inst) -> Job:
    def run():
        opt = exact.exact_opt(inst)
        problems = []
        if instance.verify_solution(inst, opt.edges) != (True, opt.cost):
            problems.append("exact witness does not verify at its cost")
        return (str(opt.cost), opt.states), problems

    return Job(name, _guard(run))


def _assemble_job(name, cs, level) -> Job:
    def run():
        problem = lasserre.assemble(cs, level)
        dims = lasserre.lift_dimensions(cs.n_vars, level)
        got = {
            "main_dim": problem.main_dim,
            "row_dim": problem.row_dim,
            "n_free": len(problem.free_sets),
        }
        problems = []
        if got != dims or problem.n_row_blocks != len(cs.rows):
            problems.append(f"assembled {got} against lift_dimensions {dims}")
        return tuple(sorted(got.items())), problems

    return Job(name, _guard(run))


def big_lp(seed: int) -> Workload:
    rng = random.Random(seed)
    gap3_cs, _ = flow_lp.build_flow_lp(instance.as_layered(harness.gap_instance(3)))
    jobs = [
        _lp_job("reference", instance.parse_instance(REFERENCE_TEXT)),
        _lp_job("gap4", harness.gap_instance(4)),
        _lp_job(
            "rand3-2x2x4",
            harness.gen_random_layered(3, [2, 2, 4], seed=rng.randrange(1 << 30)),
        ),
        # Fixed seed: this job sits at the median rank, and its DP time
        # swings 0.6-1.1 s with the generator seed.
        _cover_exact_job("cover12-exact", harness.gen_set_cover(12, 12, seed=0)),
        _assemble_job("gap3-assemble@1", gap3_cs, 1),
    ]

    def warmup():
        _lp_job("warmup", diamond()).run()
        star_cs, _ = flow_lp.build_flow_lp(instance.as_layered(star()))
        _assemble_job("warmup", star_cs, 1).run()

    return Workload(jobs, warmup, ("flow_lp.solve_s",))


# ---------------------------------------------------------------------------
# certify-round


def _route_points(layered, vmap, n_cols, with_flows):
    """One 0/1 point per choice of one root path for every terminal."""
    per_terminal = [
        [rec.edges for rec in exact.enumerate_paths(layered, s)]
        for s in layered.graph.terminals
    ]
    points = []
    for combo in itertools.product(*per_terminal):
        x = [0] * n_cols
        for s, path in zip(layered.graph.terminals, combo):
            for e in path:
                x[vmap.edge_ordinal(e)] = 1
                if with_flows:
                    x[vmap.flow_ordinal(s, e)] = 1
        points.append(tuple(x))
    return sorted(set(points))


def _seeded_distribution(points, rng, k):
    picked = points if len(points) <= k else rng.sample(points, k)
    weights = [rng.randint(1, 9) for _ in picked]
    total = sum(weights)
    return [(Fraction(w, total), p) for w, p in zip(weights, picked)]


def _certify_job(name, y, level, rows) -> Job:
    def run():
        report = moments.certify(y, level, rows)
        problems = []
        if not report.ok or report.issues:
            problems.append(f"exact certify: {len(report.issues)} issues")
        return (report.ok, len(report.issues), sorted(report.checks.items())), problems

    return Job(name, _guard(run))


def _round_job(name, layered, vmap, vector, opt) -> Job:
    def run():
        oracle = rounding.VectorOracle(vector, vmap)
        costs, problems = [], []
        for seed in range(ROUND_SEEDS):
            result = rounding.round_solution(oracle, layered, None, seed)
            costs.append(str(result.cost))
            if vector.exact and result.clamps:
                problems.append(f"seed {seed}: {result.clamps} clamps on exact oracle")
            if instance.verify_solution(layered.graph, result.edges) != (
                True,
                result.cost,
            ):
                problems.append(f"seed {seed}: rounded tree infeasible")
            base = instance.map_back(layered, result.edges)
            ok, base_cost = instance.verify_solution(layered.base, base)
            if not ok or base_cost > result.cost:
                problems.append(f"seed {seed}: mapped tree infeasible or dearer")
            if result.cost < opt:
                problems.append(f"seed {seed}: tree cheaper than OPT {opt}")
        return tuple(costs), problems

    return Job(name, _guard(run))


def _stats_job(name, layered, vmap, vector, seed) -> Job:
    def run():
        oracle = rounding.VectorOracle(vector, vmap)
        report = rounding.collect_stats(oracle, layered, STATS_TRIALS, seed)
        problems = []
        if vector.exact and report.clamps:
            problems.append(f"{report.clamps} clamps on exact oracle")
        if report.trials != STATS_TRIALS:
            problems.append(f"{report.trials} trials run")
        return (report.mean_cost, report.queries, report.clamps, report.dead), problems

    return Job(name, _guard(run))


def certify_round(seed: int) -> Workload:
    rng = random.Random(seed)
    rand12 = pinned_random_layered(3, (2, 2, 1), 12, rng.randrange(1 << 30))
    jobs = []
    for name, inst, level in (
        ("diamond", diamond(), 2),
        ("diamond", diamond(), 3),
        ("wide3", wide3(), 2),
        ("rand3-2x2x1", rand12, 2),
    ):
        layered = instance.as_layered(inst)
        cs, vmap = flow_lp.build_flow_lp(layered)
        points = _route_points(layered, vmap, cs.n_vars, with_flows=True)
        for point in points:
            if flow_lp.check_point(cs, [Fraction(v) for v in point]):
                raise RuntimeError(f"{name}: route point outside the flow polytope")
        y = moments.from_distribution(_seeded_distribution(points, rng, 4), level)
        jobs.append(_certify_job(f"certify-{name}@{level}", y, level, cs.rows))

    ref = instance.as_layered(instance.parse_instance(REFERENCE_TEXT))
    _, ref_vmap = flow_lp.build_flow_lp(ref)
    trees = _route_points(ref, ref_vmap, ref_vmap.n_edges, with_flows=False)
    y_exact = moments.from_distribution(_seeded_distribution(trees, rng, 6), 3)
    y_float = MomentVector(
        y_exact.n_vars,
        y_exact.level,
        {k: float(v) for k, v in y_exact.entries.items()},
        exact=False,
    )
    opt = exact.exact_opt(ref.graph).cost
    stats_seed = rng.randrange(1 << 30)
    for kind, vector in (("exact", y_exact), ("float", y_float)):
        jobs.append(_round_job(f"round-{kind}", ref, ref_vmap, vector, opt))
        jobs.append(_stats_job(f"stats-{kind}", ref, ref_vmap, vector, stats_seed))

    def warmup():
        layered = instance.as_layered(diamond())
        cs, vmap = flow_lp.build_flow_lp(layered)
        points = _route_points(layered, vmap, cs.n_vars, with_flows=True)
        y = moments.from_distribution([(Fraction(1, len(points)), p) for p in points], 1)
        moments.certify(y, 1, cs.rows)
        for vector in (y_exact, y_float):
            oracle = rounding.VectorOracle(vector, ref_vmap)
            rounding.round_solution(oracle, ref, None, 0)
            rounding.collect_stats(oracle, ref, 10, 0)

    return Workload(jobs, warmup, ("moments.certify_exact_s", "rounding.round_s"))


BUILDERS = {
    "lift-solve": lift_solve,
    "big-lp": big_lp,
    "certify-round": certify_round,
}
