"""Command-line interface.

Every command reads plain-text inputs (instances, constraint dumps, moment
files) and prints one deterministic JSON document to stdout, so repeated runs
on the same inputs are byte-identical.  File outputs are opt-in flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import exact, flow_lp, harness, lasserre, moments, rounding
from .harness import canonical_json
from .instance import format_instance, levelize, parse_instance


def _load_layered(path: str, ell: int | None):
    return harness.layer(parse_instance(Path(path).read_text()), ell)


def _cmd_levelize(args) -> int:
    inst = parse_instance(Path(args.instance).read_text())
    layered = levelize(inst, args.ell, prune=args.prune)
    text = format_instance(layered.graph, comment=f"levelized ell={args.ell}")
    Path(args.output).write_text(text)
    payload = {
        "ell": layered.ell,
        "levels": [list(layer) for layer in layered.levels],
        "n_nodes": len(layered.graph.nodes),
        "n_edges": len(layered.graph.edges),
        "output": args.output,
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def _cmd_solve_lp(args) -> int:
    layered = _load_layered(args.instance, args.ell)
    cs, vmap = flow_lp.build_flow_lp(layered)
    if args.dump:
        Path(args.dump).write_text(flow_lp.format_lp_dump(cs))
    solution = flow_lp.solve_lp(cs)
    payload = {"status": solution.status, "n_vars": cs.n_vars, "n_rows": len(cs.rows)}
    if solution.status == "optimal":
        payload["objective"] = solution.objective
        payload["nonzero"] = {
            vmap.columns[i].tag: value
            for i, value in enumerate(solution.values)
            if value != 0
        }
    sys.stdout.write(canonical_json(payload))
    return 0 if solution.status == "optimal" else 1


def _cmd_lift_dim(args) -> int:
    layered = _load_layered(args.instance, args.ell)
    cs, _ = flow_lp.build_flow_lp(layered)
    dims = lasserre.lift_dimensions(cs.n_vars, args.level)
    budget = lasserre.DEFAULT_BUDGET if args.budget is None else args.budget
    payload = dict(dims)
    payload.update(
        {
            "n_vars": cs.n_vars,
            "n_rows": len(cs.rows),
            "level": args.level,
            "budget": budget,
            "within_budget": dims["main_dim"] <= budget,
        }
    )
    sys.stdout.write(canonical_json(payload))
    return 0


def _issues(report: moments.CertifyReport) -> list[dict]:
    """The first ten certify issues, amounts as floats."""
    return [
        {"kind": i.kind, "where": i.where, "amount": float(i.amount)}
        for i in report.issues[:10]
    ]


def _cmd_lift_solve(args) -> int:
    layered = _load_layered(args.instance, args.ell)
    cs, _ = flow_lp.build_flow_lp(layered)
    problem = lasserre.assemble(cs, args.level, args.budget)
    if args.replay:
        solution = lasserre.solve_from_file(problem, Path(args.replay).read_text())
    else:
        config = lasserre.SolverConfig(max_iter=args.max_iter, tol=args.tol)
        solution = lasserre.solve(problem, config)
    if args.out:
        Path(args.out).write_text(moments.export_moments(solution.vector))
    report = moments.certify(
        solution.vector, args.level, cs.rows, tol=args.certify_tol
    )
    payload = {
        "diagnostics": solution.diagnostics,
        "objective": solution.objective,
        "certify_ok": report.ok,
        "certify_issues": _issues(report),
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def _cmd_check(args) -> int:
    vector = moments.import_moments(Path(args.moments).read_text())
    cs = flow_lp.parse_lp_dump(Path(args.system).read_text())
    if cs.n_vars != vector.n_vars:
        raise flow_lp.LpFormatError(
            f"system has {cs.n_vars} variables, moments {vector.n_vars}"
        )
    report = moments.certify(vector, args.level, cs.rows, tol=args.tol)
    n = vector.n_vars
    inversions = []
    for scope in ([0], [0, 1]):
        if max(scope) >= n or min(2 * args.level + 2, n) < len(scope):
            continue
        ok, dev = moments.inversion_check(vector, scope, tol=args.tol)
        inversions.append({"scope": scope, "ok": ok, "deviation": float(dev)})
    commute = []
    for row in cs.rows[:3]:
        try:
            ok, dev = moments.shift_commutes_check(
                vector, [], [0], row.coeffs, row.rhs, tol=args.tol
            )
        except moments.DomainError:
            continue
        commute.append({"row": row.label, "ok": ok, "deviation": float(dev)})
    payload = {
        "certify_ok": report.ok,
        "certify_checks": report.checks,
        "certify_issues": _issues(report),
        "inversion": inversions,
        "shift_commutes": commute,
        "ok": report.ok
        and all(r["ok"] for r in inversions)
        and all(r["ok"] for r in commute),
    }
    sys.stdout.write(canonical_json(payload))
    return 0 if payload["ok"] else 1


def _oracle_for(args, layered):
    vector = moments.import_moments(Path(args.moments).read_text())
    _, vmap = flow_lp.build_flow_lp(layered)
    if vector.n_vars != vmap.n_vars:
        raise moments.MomentFormatError(
            f"moments over {vector.n_vars} variables, instance wants {vmap.n_vars}"
        )
    return rounding.VectorOracle(vector, vmap)


def _cmd_round(args) -> int:
    if args.trials < 1:
        raise ValueError("need at least one trial")
    layered = _load_layered(args.instance, args.ell)
    oracle = _oracle_for(args, layered)
    runs = []
    for seed in range(args.seed, args.seed + args.trials):
        result = rounding.round_solution(oracle, layered, reps=args.reps, seed=seed)
        runs.append(
            harness.round_record(seed, result)
            | {
                "connected_before_repair": result.connected_before_repair,
                "edges": sorted(f"{t}->{h}" for t, h in result.edges),
            }
        )
    payload = {"trials": args.trials, **harness.round_summary(runs)}
    if args.out:
        Path(args.out).write_text(canonical_json(payload))
    sys.stdout.write(canonical_json(payload))
    return 0


def _cmd_stats(args) -> int:
    layered = _load_layered(args.instance, args.ell)
    oracle = _oracle_for(args, layered)
    report = rounding.collect_stats(oracle, layered, args.trials, seed=args.seed)
    marginals = rounding.edge_marginal_check(oracle, layered, tol=args.tol)
    payload = {
        "trials": report.trials,
        "terminals": report.terminals,
        "paths": [
            {
                "terminal": p.terminal,
                "path": [f"{t}->{h}" for t, h in p.path],
                "oracle_value": float(p.oracle_value),
                "hits": p.hits,
                "frequency": p.frequency,
                "se": p.se,
            }
            for p in report.paths
        ],
        "edges": [
            {
                "edge": f"{e.edge[0]}->{e.edge[1]}",
                "oracle_value": float(e.oracle_value),
                "hits": e.hits,
                "frequency": e.frequency,
                "se": e.se,
            }
            for e in report.edges
        ],
        "mean_cost": report.mean_cost,
        "se_cost": report.se_cost,
        "fractional_cost": report.fractional_cost,
        "queries": report.queries,
        "clamps": report.clamps,
        "marginals_ok": marginals.ok,
    }
    text = canonical_json(payload)
    if args.out:
        Path(args.out).write_text(text)
    if args.plot_data:
        lines = ["# terminal mean_z p_positive mean_z_given_positive"]
        for t in report.terminals:
            cond = "nan" if t.mean_z_given_positive is None else (
                f"{t.mean_z_given_positive:.6f}"
            )
            lines.append(
                f"{t.terminal} {t.mean_z:.6f} {t.p_positive:.6f} {cond}"
            )
        Path(args.plot_data).write_text("\n".join(lines) + "\n")
    sys.stdout.write(text)
    return 0


def _cmd_exact(args) -> int:
    inst = parse_instance(Path(args.instance).read_text())
    result = exact.exact_opt(inst)
    payload = {
        "optimum": result.cost,
        "edges": sorted(f"{t}->{h}" for t, h in result.edges),
        "states": result.states,
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def _cmd_experiment(args) -> int:
    config = harness.PipelineConfig(
        solver=lasserre.SolverConfig(max_iter=args.max_iter, tol=args.tol),
        budget=args.budget,
    )
    report = harness.run_experiment(args.suite, config)
    text = canonical_json(report)
    if args.out:
        Path(args.out).write_text(text)
    if args.tsv:
        Path(args.tsv).write_text(harness.ratio_table(report))
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstlift",
        description="Directed Steiner trees: flow LP, moment lifts, rounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levelize", help="unroll an instance into layers")
    p.add_argument("instance")
    p.add_argument("output")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prune", action="store_true")
    p.set_defaults(fn=_cmd_levelize)

    p = sub.add_parser("solve-lp", help="exact flow LP optimum")
    p.add_argument("instance")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--dump", default=None, help="write the constraint system")
    p.set_defaults(fn=_cmd_solve_lp)

    p = sub.add_parser("lift-dim", help="lift dimensions and budget verdict")
    p.add_argument("instance")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--t", dest="level", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=_cmd_lift_dim)

    p = sub.add_parser("lift-solve", help="solve the lifted relaxation")
    p.add_argument("instance")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--t", dest="level", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--tol", type=float, default=lasserre.SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=lasserre.SolverConfig.max_iter)
    p.add_argument("--certify-tol", type=float, default=harness.CERTIFY_TOL)
    p.add_argument("--out", default=None, help="write the moment file")
    p.add_argument("--replay", default=None, help="load moments instead of solving")
    p.set_defaults(fn=_cmd_lift_solve)

    p = sub.add_parser("check", help="certify a moment file against a system")
    p.add_argument("moments")
    p.add_argument("system")
    p.add_argument("--t", dest="level", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("round", help="sample trees from a moment file")
    p.add_argument("instance")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--moments", required=True)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_round)

    p = sub.add_parser("stats", help="sampling statistics for a moment file")
    p.add_argument("instance")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--moments", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1.0e-6)
    p.add_argument("--out", default=None)
    p.add_argument("--plot-data", default=None)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("exact", help="exact optimum by dynamic programming")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("experiment", help="run a reporting suite")
    p.add_argument("--suite", choices=list(harness.SUITES), required=True)
    p.add_argument("--tol", type=float, default=lasserre.SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=lasserre.SolverConfig.max_iter)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--tsv", default=None)
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError, LookupError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
