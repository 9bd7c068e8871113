"""End-to-end acceptance checks, one per release criterion.

Each test prints a single verdict line of the form

    ACCEPTANCE <n>: PASS - <detail>

(or FAIL with the failing margin) to the real stdout, so the lines are
visible even under pytest's output capture.  The tests share solved
vectors and sampling reports through module-level caches; every random
choice is seeded, so the whole suite is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from dstlift import as_layered, build_flow_lp, make_instance, parse_instance
from dstlift import exact, flow_lp, harness, lasserre, moments, rounding
from dstlift.cli import main as cli_main
from dstlift.instance import format_instance, verify_solution
from dstlift.moments import from_distribution

from conftest import (
    REFERENCE_OPT,
    REFERENCE_OPT_EDGES,
    REFERENCE_TEXT,
    lp_feasible,
    reconstruction_deviation,
    tiny_chain,
    tiny_diamond,
    tiny_path3,
)


_reported: set[int] = set()
_reporter = None


@pytest.fixture(scope="session", autouse=True)
def _verdict_writer(request):
    """Borrow the terminal reporter so verdicts survive output capture."""
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield
    _reporter = None


def _emit(line: str) -> None:
    if _reporter is not None:
        _reporter.write_line("\n" + line)
    else:
        print("\n" + line, file=sys.__stdout__, flush=True)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    _reported.add(num)
    _emit(line)
    assert ok, line


def criterion(num: int):
    """Guarantee one verdict line even when an assertion aborts the body."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if num not in _reported:
                    head = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                    _emit(f"ACCEPTANCE {num}: FAIL - {head}")
                    _reported.add(num)
                raise

        return run

    return wrap


# ---------------------------------------------------------------------------
# shared instances, solved vectors, and sampling reports


def _star():
    return make_instance(
        ["r", "s1", "s2"],
        [("r", "s1", Fraction(2)), ("r", "s2", Fraction(5))],
        "r",
        ["s1", "s2"],
    )


def _fork():
    """Two routes of costs 5 and 4 sharing their first edge."""
    return make_instance(
        ["r", "a", "b", "c", "s"],
        [
            ("r", "a", Fraction(1)),
            ("a", "b", Fraction(1)),
            ("a", "c", Fraction(2)),
            ("b", "s", Fraction(3)),
            ("c", "s", Fraction(1)),
        ],
        "r",
        ["s"],
    )


def _wide3():
    """Three disjoint two-hop routes to one terminal."""
    return make_instance(
        ["r", "a", "b", "c", "s"],
        [
            ("r", "a", Fraction(1)),
            ("r", "b", Fraction(2)),
            ("r", "c", Fraction(3)),
            ("a", "s", Fraction(3)),
            ("b", "s", Fraction(2)),
            ("c", "s", Fraction(1)),
        ],
        "r",
        ["s"],
    )


@functools.lru_cache(maxsize=None)
def _random_setup(ell: int, widths: tuple, target_nv: int):
    """First seeded generator output whose flow LP has `target_nv` columns."""
    for seed in range(60):
        inst = harness.gen_random_layered(ell, list(widths), seed=seed)
        layered = as_layered(inst)
        cs, vmap = build_flow_lp(layered)
        if cs.n_vars == target_nv:
            return layered, cs, vmap
    raise AssertionError(f"no generated instance with {target_nv} variables")


@functools.lru_cache(maxsize=None)
def _setup(name: str):
    if name == "rand9":
        return _random_setup(2, (1, 2), 9)
    if name == "rand12":
        return _random_setup(3, (1, 1, 2), 12)
    makers = {
        "chain": tiny_chain,
        "diamond": tiny_diamond,
        "path3": tiny_path3,
        "star": _star,
        "fork": _fork,
        "wide3": _wide3,
    }
    layered = as_layered(makers[name]())
    cs, vmap = build_flow_lp(layered)
    return layered, cs, vmap


@functools.lru_cache(maxsize=None)
def _solved(name: str, level: int) -> lasserre.SdpSolution:
    layered, cs, vmap = _setup(name)
    problem = lasserre.assemble(cs, level)
    sol = lasserre.solve(problem)
    assert sol.diagnostics["converged"], f"{name} at level {level} did not converge"
    return sol


def _terminal_routes(name: str):
    """Per-terminal lists of full root-to-terminal edge sequences."""
    layered, cs, vmap = _setup(name)
    return [
        (s, [rec.edges for rec in exact.enumerate_paths(layered, s)])
        for s in layered.graph.terminals
    ]


def _point_from_routes(name: str, combo) -> tuple:
    """0/1 assignment selecting one full route per terminal."""
    layered, cs, vmap = _setup(name)
    x = [0] * cs.n_vars
    for (s, _), path in zip(_terminal_routes(name), combo):
        for e in path:
            x[vmap.edge_ordinal(e)] = 1
            x[vmap.flow_ordinal(s, e)] = 1
    return tuple(x)


@functools.lru_cache(maxsize=None)
def _route_vector(name: str, level: int = 2) -> moments.MomentVector:
    """Pinned exact distribution over route selections (no stray edges).

    The diamond splits 3/4 on its cheap route and 1/4 on the expensive
    one; single-route instances get the point mass; generated instances
    get seeded rational weights over up to four route combinations.
    """
    per_terminal = _terminal_routes(name)
    combos = list(itertools.product(*[paths for _, paths in per_terminal]))
    if name == "diamond":
        by_first = {combo[0][0]: combo for combo in combos}
        dist = [
            (Fraction(3, 4), _point_from_routes(name, by_first[("r", "b")])),
            (Fraction(1, 4), _point_from_routes(name, by_first[("r", "a")])),
        ]
        return from_distribution(dist, level)
    if name == "fork":
        by_mid = {combo[0][1]: combo for combo in combos}
        dist = [
            (Fraction(2, 3), _point_from_routes(name, by_mid[("a", "b")])),
            (Fraction(1, 3), _point_from_routes(name, by_mid[("a", "c")])),
        ]
        return from_distribution(dist, level)
    rng = random.Random(7)
    picked = combos if len(combos) <= 4 else rng.sample(combos, 4)
    weights = [rng.randint(1, 9) for _ in picked]
    total = sum(weights)
    dist = [
        (Fraction(w, total), _point_from_routes(name, combo))
        for w, combo in zip(weights, picked)
    ]
    return from_distribution(dist, level)


@functools.lru_cache(maxsize=None)
def _stats(name: str, trials: int, seed: int) -> rounding.StatsReport:
    layered, cs, vmap = _setup(name)
    oracle = rounding.VectorOracle(_route_vector(name), vmap)
    return rounding.collect_stats(oracle, layered, trials, seed=seed)


# ---------------------------------------------------------------------------
# criterion 1: the exact baseline on the hand-checked reference instance


@criterion(1)
def test_exact_baseline_recovers_reference_optimum():
    layered = as_layered(parse_instance(REFERENCE_TEXT))
    start = time.perf_counter()
    result = exact.exact_opt(layered.graph)
    elapsed = time.perf_counter() - start

    feasible, cost = verify_solution(layered.graph, result.edges)
    ok = (
        result.cost == REFERENCE_OPT
        and result.edges == REFERENCE_OPT_EDGES
        and feasible
        and cost == REFERENCE_OPT
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"reference optimum {result.cost} with verified witness "
        f"({len(result.edges)} edges) in {elapsed * 1000:.1f} ms",
    )


# ---------------------------------------------------------------------------
# criterion 2: LP <= SDP(0) <= SDP(1) <= OPT on 50 generated instances


@criterion(2)
def test_relaxation_sandwich_on_generated_instances():
    shapes = [
        (1, [1]),
        (1, [2]),
        (1, [3]),
        (2, [1, 1]),
        (2, [2, 1]),
        (2, [1, 2]),
        (2, [2, 2]),
        (3, [1, 1, 1]),
        (3, [2, 1, 1]),
        (3, [1, 1, 2]),
    ]
    rows = []
    seed = 0
    while len(rows) < 50:
        ell, widths = shapes[seed % len(shapes)]
        inst = harness.gen_random_layered(ell, widths, seed=seed)
        layered = as_layered(inst)
        cs, _ = build_flow_lp(layered)
        if cs.n_vars <= 12:
            rows.append((seed, layered, cs))
        seed += 1

    tol = 1.0e-5
    worst = -math.inf
    converged = 0
    for seed, layered, cs in rows:
        lp = flow_lp.solve_lp(cs)
        assert lp.status == "optimal"
        sdp0 = lasserre.solve(lasserre.assemble(cs, 0))
        sdp1 = lasserre.solve(lasserre.assemble(cs, 1))
        converged += int(
            sdp0.diagnostics["converged"] and sdp1.diagnostics["converged"]
        )
        opt = exact.exact_opt(layered.graph)
        scale = max(1.0, abs(float(opt.cost)))
        chain = (
            float(lp.objective),
            sdp0.objective,
            sdp1.objective,
            float(opt.cost),
        )
        for lo, hi in zip(chain, chain[1:]):
            worst = max(worst, (lo - hi) / scale)

    ok = worst <= tol and converged == len(rows)
    _verdict(
        2,
        ok,
        f"{len(rows)} instances, {converged} fully converged, worst relative "
        f"sandwich excess {worst:.2e} (tolerance {tol:.0e})",
    )


# ---------------------------------------------------------------------------
# criterion 3: exact structural laws on a large family of true moment vectors


@functools.lru_cache(maxsize=None)
def _route_atoms(name: str):
    """Route-selection points plus the node heads each one covers."""
    layered, cs, vmap = _setup(name)
    per_terminal = _terminal_routes(name)
    combos = list(
        itertools.islice(itertools.product(*[p for _, p in per_terminal]), 12)
    )
    atoms = []
    for combo in combos:
        used = {e for path in combo for e in path}
        heads = {e[1] for e in used}
        atoms.append((_point_from_routes(name, combo), frozenset(used), frozenset(heads)))
    return atoms


def _distribution_family(name: str, level: int, count: int, seed: int):
    """Seeded exact distributions over feasible 0/1 points.

    Each atom selects one route per terminal; extra flowless edges may be
    switched on, but only into nodes with no bought edge yet, since the
    rows cap every in-degree at one.  Each support point is re-verified
    against the full row set, so the vectors are honest distributions
    over the polytope's integral points.
    """
    layered, cs, vmap = _setup(name)
    atoms = _route_atoms(name)
    all_edges = [e for e, _ in layered.graph.edges]
    rng = random.Random(seed)
    family = []
    for _ in range(count):
        n_pick = rng.randint(1, min(3, len(atoms)))
        points = set()
        for idx in rng.sample(range(len(atoms)), n_pick):
            x, used, heads = atoms[idx]
            x = list(x)
            covered = set(heads)
            for e in all_edges:
                if e not in used and e[1] not in covered and rng.random() < 0.4:
                    x[vmap.edge_ordinal(e)] = 1
                    covered.add(e[1])
            point = tuple(x)
            assert not flow_lp.check_point(cs, [Fraction(v) for v in point])
            points.add(point)
        points = sorted(points)
        weights = [rng.randint(1, 9) for _ in points]
        total = sum(weights)
        dist = [(Fraction(w, total), p) for w, p in zip(weights, points)]
        family.append(from_distribution(dist, level))
    return family


@functools.lru_cache(maxsize=None)
def _infeasible_sets(name: str):
    """Variable sets the flow polytope cannot activate simultaneously."""
    layered, cs, vmap = _setup(name)
    feasible_single = [
        i for i in range(cs.n_vars) if lp_feasible(cs, (i,))
    ]
    sets = [
        (i,) for i in range(cs.n_vars) if i not in set(feasible_single)
    ]
    for i, j in itertools.combinations(feasible_single, 2):
        if not lp_feasible(cs, (i, j)):
            sets.append((i, j))
    return tuple(sets)


@criterion(3)
def test_exact_vector_suite_certifies_and_decomposes():
    plan = [
        # (instance, level, how many vectors, of those: certified with rows)
        ("chain", 3, 1, 1),
        ("path3", 3, 1, 1),
        ("star", 3, 1, 1),
        ("diamond", 2, 45, 0),
        ("diamond", 3, 5, 5),
        ("fork", 2, 13, 2),
        ("rand9", 2, 2, 1),
        ("rand12", 2, 2, 1),
        ("wide3", 2, 31, 2),
    ]
    n_vectors = 0
    n_with_rows = 0
    n_zero_sets = 0
    for name, level, count, with_rows in plan:
        layered, cs, vmap = _setup(name)
        zero_sets = _infeasible_sets(name)
        rng = random.Random(1000 + level)
        for k, y in enumerate(_distribution_family(name, level, count, seed=level)):
            n_vectors += 1
            rows = cs.rows if k < with_rows else ()
            n_with_rows += int(bool(rows))
            report = moments.certify(y, level, rows)
            assert report.ok and not report.issues, f"{name}#{k}: {report.issues}"

            scope = rng.sample(range(cs.n_vars), 2)
            ok_inv, dev_inv = moments.inversion_check(y, scope)
            assert ok_inv and dev_inv == 0, f"{name}#{k}: inversion {dev_inv}"

            row = rng.choice(cs.rows)
            ones = tuple(i for i in scope if rng.random() < 0.5)
            ok_sc, dev_sc = moments.shift_commutes_check(
                y, ones, scope, row.coeffs, row.rhs
            )
            assert ok_sc and dev_sc == 0, f"{name}#{k}: commute {dev_sc}"

            dec = moments.decompose(y, scope, 2)
            assert reconstruction_deviation(dec, y) == 0
            assert sum(p.weight for p in dec.parts) == 1
            for part in dec.parts:
                for i in scope:
                    expected = Fraction(int(i in part.assignment))
                    assert part.vector.value([i]) == expected

            for var_set in zero_sets:
                n_zero_sets += 1
                assert y.value(var_set) == 0, f"{name}#{k}: {var_set}"

    ok = n_vectors >= 100
    _verdict(
        3,
        ok,
        f"{n_vectors} exact vectors ({n_with_rows} with full row blocks) "
        f"certified with zero deviation; {n_zero_sets} infeasible-set "
        f"moments all vanish",
    )


# ---------------------------------------------------------------------------
# criterion 4: sampled full-path frequencies track the oracle moments


@criterion(4)
def test_sampled_path_frequencies_match_oracle_moments():
    trials = 100_000
    worst = 0.0
    n_paths = 0
    for name in ("diamond", "star", "fork", "rand9"):
        report = _stats(name, trials, 0)
        for p in report.paths:
            n_paths += 1
            y = float(p.oracle_value)
            bound = 3.0 * math.sqrt(y * (1.0 - y) / trials)
            gap = abs(p.frequency - y)
            assert gap <= bound, f"{name} path {p.path}: |{p.frequency}-{y}|"
            if bound > 0:
                worst = max(worst, gap / bound)
    ok = n_paths >= 5
    _verdict(
        4,
        ok,
        f"{n_paths} full paths across 4 oracles at {trials} trials, worst "
        f"deviation {worst:.2f} of the 3-sigma budget",
    )


# ---------------------------------------------------------------------------
# criterion 5: marginal consistency, exactly for distributions and within
# float tolerance for solver output


@criterion(5)
def test_marginal_consistency_exact_and_solver_vectors():
    for name in ("chain", "star", "diamond", "fork", "rand9"):
        layered, cs, vmap = _setup(name)
        oracle = rounding.VectorOracle(_route_vector(name), vmap)
        report = rounding.edge_marginal_check(oracle, layered, tol=0.0)
        assert report.ok, f"{name}: exact marginal rows failed"

    tol = 1.0e-6
    worst = -math.inf
    for name in ("chain", "diamond", "star"):
        layered, cs, vmap = _setup(name)
        sol = _solved(name, 2)
        oracle = rounding.VectorOracle(sol.vector, vmap)
        report = rounding.edge_marginal_check(oracle, layered, tol=tol)
        assert report.ok, f"{name}: solver marginals exceeded {tol}"
        for row in report.edge_rows + report.prefix_rows:
            worst = max(worst, float(row.value - row.bound))
        for row in report.terminal_rows:
            worst = max(worst, abs(float(row.value - row.bound)))
    _verdict(
        5,
        True,
        f"5 exact oracles at tolerance 0; solver vectors within {tol:.0e} "
        f"(worst excess {worst:.2e})",
    )


# ---------------------------------------------------------------------------
# criterion 6: per-terminal count laws from repeated sampling


@criterion(6)
def test_per_terminal_count_laws_hold():
    trials = 100_000
    margins = []
    for name in ("diamond", "star", "fork", "rand9"):
        layered, cs, vmap = _setup(name)
        depth = layered.ell
        report = _stats(name, trials, 0)
        for t in report.terminals:
            gap = abs(t.mean_z - 1.0)
            assert gap <= 3.0 * t.se_mean_z + 1e-12, f"{name}/{t.terminal} mean"
            floor = 1.0 / (depth + 1) - 3.0 * t.se_p_positive
            assert t.p_positive >= floor, f"{name}/{t.terminal} positive rate"
            assert t.mean_z_given_positive is not None
            ceil = depth + 1 + 3.0 * (t.se_z_given_positive or 0.0)
            assert t.mean_z_given_positive <= ceil, f"{name}/{t.terminal} cond"
            margins.append(t.p_positive - 1.0 / (depth + 1))
    ok = len(margins) >= 4
    _verdict(
        6,
        ok,
        f"{len(margins)} terminals over 4 oracles: mean count within 3 sigma "
        f"of 1, positive rate beats 1/(depth+1) (min margin {min(margins):+.3f}), "
        f"conditional mean below depth+1",
    )


# ---------------------------------------------------------------------------
# criterion 7: rounded trees are always feasible and, on average, no more
# than (reps + 1) times the fractional cost


@criterion(7)
def test_rounding_feasibility_and_cost_bound():
    # Level-2 lifts, plus the single-route path3 at its layer depth 3: its
    # lift has one feasible point and no interior.
    seeds = range(20)
    details = []
    for name, level in (
        ("chain", 2),
        ("diamond", 2),
        ("star", 2),
        ("wide3", 2),
        ("path3", 3),
    ):
        layered, cs, vmap = _setup(name)
        sol = _solved(name, level)
        oracle = rounding.VectorOracle(sol.vector, vmap)
        reps = rounding.default_reps(layered)
        fractional = sum(
            float(cost) * float(sol.vector.value([vmap.edge_ordinal(e)]))
            for e, cost in layered.graph.edges
        )
        opt = float(exact.exact_opt(layered.graph).cost)

        costs = []
        for seed in seeds:
            result = rounding.round_solution(oracle, layered, None, seed)
            feasible, cost = verify_solution(layered.graph, result.edges)
            assert feasible and cost == result.cost, f"{name} seed {seed}"
            costs.append(float(result.cost))
        mean = float(np.mean(costs))
        se = float(np.std(costs, ddof=1) / math.sqrt(len(costs)))
        bound = (reps + 1) * fractional + 3.0 * se
        assert mean <= bound, f"{name}: mean {mean} above bound {bound}"
        details.append(f"{name} mean/opt {mean / opt:.2f} bound {bound:.1f}")
    _verdict(
        7,
        True,
        f"{len(details) * len(seeds)} roundings all independently verified "
        f"feasible; mean cost within (reps+1) x fractional: " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# criterion 8: the full-level lift is tight and decomposes into integral
# feasible solutions


@criterion(8)
def test_full_level_lift_recovers_exact_optimum():
    mass_tol = 1.0e-5
    details = []
    for name in ("chain", "star", "path3"):
        layered, cs, vmap = _setup(name)
        sol = _solved(name, cs.n_vars)
        opt = exact.exact_opt(layered.graph)
        scale = max(1.0, abs(float(opt.cost)))
        rel_err = abs(sol.objective - float(opt.cost)) / scale
        assert rel_err <= 1.0e-5, f"{name}: objective off by {rel_err:.2e}"

        atoms = moments.mobius_atoms(sol.vector)
        assert min(atoms.values()) >= -mass_tol, f"{name}: negative atom"
        kept = {p: m for p, m in atoms.items() if m > mass_tol}
        assert abs(sum(kept.values()) - 1.0) <= 1.0e-4, f"{name}: mass leak"

        weighted_cost = 0.0
        for point, mass in kept.items():
            values = [Fraction(v) for v in point]
            assert not flow_lp.check_point(cs, values), f"{name}: {point}"
            weighted_cost += mass * float(
                sum(c * v for c, v in zip(cs.objective, values))
            )
        assert abs(weighted_cost - float(opt.cost)) <= 1.0e-3 * scale

        dec = moments.decompose(
            sol.vector, range(cs.n_vars), cs.n_vars, tol=mass_tol
        )
        dec_support = {p.assignment: p.weight for p in dec.parts}
        atom_support = {
            tuple(i for i, v in enumerate(p) if v): m for p, m in kept.items()
        }
        assert set(dec_support) == set(atom_support), f"{name}: support mismatch"
        for key, mass in atom_support.items():
            assert abs(float(dec_support[key]) - mass) <= 1.0e-6
        details.append(
            f"{name} t={cs.n_vars} err {rel_err:.1e} atoms {len(kept)}"
        )
    _verdict(
        8,
        True,
        "full-level lifts integral and tight: " + "; ".join(details),
    )


# ---------------------------------------------------------------------------
# criterion 9: every command-line entry point is deterministic


@criterion(9)
def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    ref = tmp_path / "reference.dst"
    ref.write_text(REFERENCE_TEXT)
    diamond = tmp_path / "diamond.dst"
    diamond.write_text(format_instance(tiny_diamond()))
    chain = tmp_path / "chain.dst"
    chain.write_text(format_instance(tiny_chain()))
    layers = tmp_path / "layers.dst"
    dump = tmp_path / "system.lp"
    moments_file = tmp_path / "moments.json"

    def run_twice(argv, outputs=()):
        snapshots = []
        for _ in range(2):
            code = cli_main(argv)
            out, err = capsys.readouterr()
            assert code == 0, f"{argv}: exit {code}, stderr {err!r}"
            snapshots.append(
                (out, tuple(path.read_text() for path in outputs))
            )
        assert snapshots[0] == snapshots[1], f"{argv}: output changed on re-run"

    commands = [
        (["levelize", str(ref), str(layers), "--ell", "3"], (layers,)),
        (["solve-lp", str(diamond), "--dump", str(dump)], (dump,)),
        (["lift-dim", str(diamond), "--t", "3"], ()),
        (
            ["lift-solve", str(diamond), "--t", "2", "--out", str(moments_file)],
            (moments_file,),
        ),
        (
            ["lift-solve", str(diamond), "--t", "2", "--replay", str(moments_file)],
            (),
        ),
        (["check", str(moments_file), str(dump), "--t", "2", "--tol", "1e-5"], ()),
        (
            [
                "round",
                str(diamond),
                "--moments",
                str(moments_file),
                "--reps",
                "2",
                "--trials",
                "3",
                "--seed",
                "1",
            ],
            (),
        ),
        (
            [
                "stats",
                str(diamond),
                "--moments",
                str(moments_file),
                "--trials",
                "500",
                "--seed",
                "2",
            ],
            (),
        ),
        (["exact", str(ref)], ()),
        (["experiment", "--suite", "smoke", "--max-iter", "4000"], ()),
    ]
    for argv, outputs in commands:
        run_twice(argv, outputs)
    _verdict(
        9,
        True,
        f"{len(commands)} command invocations byte-identical on re-run "
        f"(stdout and written files)",
    )
