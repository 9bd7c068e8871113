"""Path sampling, repair, and the statistics machinery.

The reference oracle throughout is an explicit two-point distribution over
the diamond's routes, where every sampling probability is known in closed
form: the cheap route is kept with probability 3/4, the expensive one with
1/4, and both extensions are deterministic.
"""

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dstlift.flow_lp import build_flow_lp
from dstlift.instance import as_layered, verify_solution
from dstlift.moments import (
    MissingMomentError,
    MomentVector,
    from_distribution,
    import_moments,
    mask_of,
)
from dstlift.rounding import (
    VectorOracle,
    collect_stats,
    default_reps,
    edge_marginal_check,
    round_solution,
    sample_once,
    trial_rng,
)

from conftest import layered3_moments_text, tiny_chain, tiny_diamond, tiny_layered3

GOLDEN = Path(__file__).resolve().parent / "golden"

RA, RB = ("r", "a"), ("r", "b")
AS, BS = ("a", "s"), ("b", "s")


class DictOracle:
    """Moment table keyed by frozen edge sets; raises on unknown queries."""

    def __init__(self, table):
        self.table = {frozenset(k): v for k, v in table.items()}
        self.queries = 0

    def query(self, edges):
        self.queries += 1
        return self.table[frozenset(edges)]


class ZeroOracle:
    def query(self, edges):
        return Fraction(0)


class AlwaysKeep:
    """Fake generator whose uniforms are all zero: every candidate is kept."""

    def random(self):
        return 0.0


def diamond_setup():
    inst = tiny_diamond()
    layered = as_layered(inst)
    _, vmap = build_flow_lp(layered)
    n = vmap.n_vars
    hi = [0] * n
    lo = [0] * n
    for edge in (RB, BS):
        hi[vmap.edge_ordinal(edge)] = 1
        hi[vmap.flow_ordinal("s", edge)] = 1
    for edge in (RA, AS):
        lo[vmap.edge_ordinal(edge)] = 1
        lo[vmap.flow_ordinal("s", edge)] = 1
    dist = [(Fraction(3, 4), tuple(hi)), (Fraction(1, 4), tuple(lo))]
    vector = from_distribution(dist, 1)
    return inst, layered, VectorOracle(vector, vmap)


def test_vector_oracle_takes_any_iterable_of_edges():
    _, _, oracle = diamond_setup()
    path = (RB, BS)
    assert oracle.query(path) == Fraction(3, 4)
    assert oracle.query(frozenset(path)) == Fraction(3, 4)
    assert oracle.query(e for e in path) == Fraction(3, 4)
    assert oracle.query(()) == 1
    assert oracle.queries == 4


def test_vector_oracle_missing_moment_names_ordinals():
    layered = as_layered(tiny_layered3())
    _, vmap = build_flow_lp(layered)
    # level 0 stores the subsets of at most two variables
    y = from_distribution([(Fraction(1), (0,) * vmap.n_vars)], 0)
    oracle = VectorOracle(y, vmap)
    path = (("r", "a"), ("a", "c"), ("c", "s1"))
    assert oracle.query(path[:2]) == 0
    with pytest.raises(MissingMomentError) as info:
        oracle.query(path)
    assert info.value.index_set == tuple(sorted(vmap.edge_ordinal(e) for e in path))


def test_trial_rng_reproducible_and_distinct():
    a = trial_rng(7, 3).random(5).tolist()
    b = trial_rng(7, 3).random(5).tolist()
    c = trial_rng(7, 4).random(5).tolist()
    d = trial_rng(8, 3).random(5).tolist()
    assert a == b
    assert a != c and a != d


def test_default_reps():
    assert default_reps(as_layered(tiny_diamond())) == 1  # log2(1) = 0
    assert default_reps(as_layered(tiny_chain())) == 1


def test_default_reps_reference(reference_layered):
    # depth 3, four terminals: 2 * 3 * log2(4) = 12
    assert default_reps(reference_layered) == 12


def test_sample_once_prefix_closed_and_consistent():
    _, layered, oracle = diamond_setup()
    for trial in range(50):
        run = sample_once(oracle, layered, trial_rng(11, trial))
        kept = set(run.paths)
        for path in run.paths:
            if len(path) > 1:
                assert path[:-1] in kept
        assert run.edges == frozenset(e for p in run.paths for e in p)
        for path in run.full_paths:
            assert path[-1][1] == "s"
        assert sum(p[-1][1] == "s" for p in run.full_paths) == len(run.full_paths)
        assert run.clamps == 0 and run.dead == 0


def test_sample_once_deterministic_given_rng():
    _, layered, oracle = diamond_setup()
    a = sample_once(oracle, layered, trial_rng(3, 0))
    b = sample_once(oracle, layered, trial_rng(3, 0))
    assert a == b


def test_sample_query_counting():
    _, layered, oracle = diamond_setup()
    before = oracle.queries
    run = sample_once(oracle, layered, trial_rng(1, 0))
    assert oracle.queries - before == run.queries
    assert run.queries >= 2  # both root edges are always examined


def test_extension_is_deterministic_for_point_routes():
    # whenever a root edge is kept, the ratio to its full route is exactly 1
    _, layered, oracle = diamond_setup()
    for trial in range(40):
        run = sample_once(oracle, layered, trial_rng(5, trial))
        roots = {p[0] for p in run.paths}
        fulls = {p for p in run.paths if len(p) == 2}
        assert {(p[0],) for p in fulls} == {(e,) for e in roots}


def test_clamp_counted_for_inflated_ratio():
    table = {
        (RA,): Fraction(1, 4),
        (RB,): Fraction(0),
        (RA, AS): Fraction(1, 2),  # ratio 2: clamped to 1
    }
    _, layered, _ = diamond_setup()
    oracle = DictOracle(table)
    saw_clamp = False
    for trial in range(60):
        run = sample_once(oracle, layered, trial_rng(2, trial))
        if (RA,) in run.paths:
            assert (RA, AS) in run.paths  # clamped prob 1 extension
            assert run.clamps == 1
            saw_clamp = True
        else:
            assert run.clamps == 0
    assert saw_clamp


def test_negative_probability_clamped_to_zero():
    table = {
        (RA,): Fraction(-1, 2),
        (RB,): Fraction(0),
    }
    _, layered, _ = diamond_setup()
    oracle = DictOracle(table)
    run = sample_once(oracle, layered, AlwaysKeep())
    # uniform 0.0 is not < probability 0.0, so nothing is kept
    assert run.paths == ()
    assert run.clamps == 1


def test_dead_path_not_extended():
    tiny = Fraction(1, 10**13)
    table = {
        (RA,): tiny,
        (RB,): Fraction(0),
    }
    _, layered, _ = diamond_setup()
    oracle = DictOracle(table)
    run = sample_once(oracle, layered, AlwaysKeep())
    assert run.paths == ((RA,),)
    assert run.dead == 1  # kept but below the extension floor


def test_third_level_clamps_and_dead_paths():
    # AlwaysKeep keeps every candidate of positive probability.  Step two
    # clamps r->b->d (ratio 3/2) and keeps r->a->d at a moment below the
    # floor; step three clamps r->a->c->s1 (ratio 2) and r->b->d->s1
    # (ratio -1/3), and leaves the dead r->a->d unextended.
    ra, rb, ac, ad, bd = ("r", "a"), ("r", "b"), ("a", "c"), ("a", "d"), ("b", "d")
    cs1, ds1, ds2 = ("c", "s1"), ("d", "s1"), ("d", "s2")
    table = {
        (ra,): Fraction(1, 2),
        (rb,): Fraction(1, 2),
        (ra, ac): Fraction(1, 2),
        (ra, ad): Fraction(1, 10**13),
        (rb, bd): Fraction(3, 4),
        (ra, ac, cs1): Fraction(1),
        (rb, bd, ds1): Fraction(-1, 4),
        (rb, bd, ds2): Fraction(3, 4),
    }
    oracle = DictOracle(table)
    run = sample_once(oracle, as_layered(tiny_layered3()), AlwaysKeep())
    assert run.paths == (
        (ra,),
        (rb,),
        (ra, ac),
        (ra, ad),
        (rb, bd),
        (ra, ac, cs1),
        (rb, bd, ds2),
    )
    assert run.full_paths == ((ra, ac, cs1), (rb, bd, ds2))
    assert [p[-1][1] for p in run.full_paths] == ["s1", "s2"]
    assert run.clamps == 3
    assert run.dead == 1
    assert run.queries == oracle.queries == 8


def test_round_always_feasible_and_deterministic():
    inst, layered, oracle = diamond_setup()
    for seed in range(8):
        result = round_solution(oracle, layered, reps=3, seed=seed)
        feasible, cost = verify_solution(inst, result.edges)
        assert feasible and cost == result.cost
    again = round_solution(oracle, layered, reps=3, seed=5)
    once = round_solution(oracle, layered, reps=3, seed=5)
    assert once == again


def test_round_repairs_empty_sampling():
    inst, layered, _ = diamond_setup()
    result = round_solution(ZeroOracle(), layered, reps=2, seed=0)
    assert not result.connected_before_repair["s"]
    assert result.repair_edges == frozenset({RB, BS})
    assert result.cost == 3 and result.repair_cost == 3
    feasible, _ = verify_solution(inst, result.edges)
    assert feasible


def test_round_rejects_bad_reps():
    _, layered, oracle = diamond_setup()
    with pytest.raises(ValueError):
        round_solution(oracle, layered, reps=0)


def test_collect_stats_frequencies_match_oracle():
    _, layered, oracle = diamond_setup()
    trials = 4000
    report = collect_stats(oracle, layered, trials, seed=0)
    assert report.trials == trials
    assert report.clamps == 0 and report.dead == 0
    assert report.fractional_cost == pytest.approx(
        float(Fraction(3, 4) * 3 + Fraction(1, 4) * 5)
    )
    for row in report.paths:
        expect = float(row.oracle_value)
        se = math.sqrt(expect * (1 - expect) / trials)
        assert abs(row.frequency - expect) <= 4 * se
    # edge frequency equals its route frequency here (one path per edge)
    by_edge = {row.edge: row for row in report.edges}
    assert abs(by_edge[RB].frequency - 0.75) <= 4 * math.sqrt(0.1875 / trials)

    term = report.terminals[0]
    assert term.terminal == "s"
    assert abs(term.mean_z - 1.0) <= 4 * term.se_mean_z
    # Z >= 1 misses only when both routes are dropped: 1 - 3/16
    p_pos = 13 / 16
    assert abs(term.p_positive - p_pos) <= 4 * math.sqrt(
        p_pos * (1 - p_pos) / trials
    )
    assert term.mean_z_given_positive <= layered.ell + 1
    assert report.mean_cost <= report.fractional_cost + 4 * report.se_cost


def test_collect_stats_lists_every_sampled_full_path():
    # every sampled full path ends at a terminal, so the enumerated paths
    # cover them: per-path hits add up to the sampled full-path count
    inst = tiny_layered3()
    layered = as_layered(inst)
    _, vmap = build_flow_lp(layered)
    trees = [
        (Fraction(1, 2), [RA, ("a", "c"), ("c", "s1"), RB, ("b", "d"), ("d", "s2")]),
        (Fraction(1, 3), [RA, ("a", "d"), ("d", "s1"), ("d", "s2")]),
        (Fraction(1, 6), [RB, ("b", "d"), ("d", "s1"), ("d", "s2")]),
    ]
    dist = []
    for mass, edges in trees:
        point = [0] * vmap.n_vars
        for e in edges:
            point[vmap.edge_ordinal(e)] = 1
        dist.append((mass, tuple(point)))
    oracle = VectorOracle(from_distribution(dist, 1), vmap)
    trials = 300
    report = collect_stats(oracle, layered, trials, seed=4)
    sampled = {}
    for trial in range(trials):
        for path in sample_once(oracle, layered, trial_rng(4, trial)).full_paths:
            sampled[path] = sampled.get(path, 0) + 1
    rows = {row.path: row for row in report.paths}
    assert len(rows) == len(report.paths) == 5
    assert set(sampled) <= set(rows)
    for path, row in rows.items():
        assert row.terminal == path[-1][1]
        assert row.hits == sampled.get(path, 0)
    assert report.clamps == 0 and report.dead == 0


def test_collect_stats_deterministic():
    _, layered, oracle = diamond_setup()
    a = collect_stats(oracle, layered, 200, seed=9)
    b = collect_stats(oracle, layered, 200, seed=9)
    assert a == b


class CountingOracle:
    """Wraps an oracle and counts each queried path, as a tuple of edges."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = Counter()

    def query(self, edges):
        edges = tuple(edges)
        self.seen[edges] += 1
        return self.inner.query(edges)


def layered3_vector(kind, edits=None):
    """`tiny_layered3` with the conftest moments; `edits` maps paths, given
    as node strings, to new moments (None drops the entry)."""
    layered = as_layered(tiny_layered3())
    _, vmap = build_flow_lp(layered)
    vector = import_moments(layered3_moments_text(exact=kind == "exact"))
    entries = dict(vector.entries)
    for path, value in (edits or {}).items():
        nodes = path.split()
        mask = mask_of(vmap.edge_ordinal(e) for e in zip(nodes, nodes[1:]))
        if value is None:
            del entries[mask]
        else:
            entries[mask] = value
    vector = MomentVector(vector.n_vars, vector.level, entries, exact=vector.exact)
    return layered, vmap, vector


# Both vectors clamp: r->a->d and r->b->d->s1 sit above their prefixes.
# r->a->c has moment zero, so nothing below it is ever kept.  A path is
# kept with probability at most its moment, so real draws never keep one
# below the dead floor; `dead` is compared all the same.
CLAMPING = {
    "exact": {
        "r a d": Fraction(9, 10),
        "r b d s1": Fraction(7, 10),
        "r a c": Fraction(0),
    },
    "float": {"r a c": 0.0},
}


@pytest.mark.parametrize("seed", [0, -1, 2**63])
@pytest.mark.parametrize("kind", ["exact", "float"])
def test_rounding_loops_match_sample_once_per_trial(kind, seed):
    layered, vmap, vector = layered3_vector(kind, CLAMPING[kind])
    oracle = VectorOracle(vector, vmap)
    trials = 200
    runs = [sample_once(oracle, layered, trial_rng(seed, t)) for t in range(trials)]
    assert sum(run.clamps for run in runs) > 0

    reps = 25
    result = round_solution(oracle, layered, reps=reps, seed=seed)
    union = frozenset().union(*(run.edges for run in runs[:reps]))
    assert result.edges - result.repair_edges == union
    assert verify_solution(layered.graph, result.edges) == (True, result.cost)
    assert result.queries == sum(run.queries for run in runs[:reps])
    assert result.clamps == sum(run.clamps for run in runs[:reps])

    report = collect_stats(oracle, layered, trials, seed=seed)
    assert report.queries == sum(run.queries for run in runs)
    assert report.clamps == sum(run.clamps for run in runs)
    assert report.dead == sum(run.dead for run in runs)
    hits = Counter(path for run in runs for path in run.full_paths)
    assert {row.path: row.hits for row in report.paths if row.hits} == hits
    cost_sum = 0.0  # in trial order, as `collect_stats` adds them
    for run in runs:
        cost_sum += float(sum(layered.graph.cost(e) for e in run.edges))
    assert report.mean_cost == cost_sum / trials


def test_rounding_never_reads_below_a_branch_no_trial_keeps():
    # r->a has moment zero and the moments of r->a->c and r->a->d are gone;
    # full paths stay, since the stats rows list every one of them.
    layered, vmap, vector = layered3_vector(
        "exact", {"r a": Fraction(0), "r a c": None, "r a d": None}
    )
    oracle = CountingOracle(VectorOracle(vector, vmap))
    result = round_solution(oracle, layered, reps=20, seed=3)
    assert verify_solution(layered.graph, result.edges) == (True, result.cost)
    report = collect_stats(oracle, layered, 50, seed=3)
    assert report.trials == 50
    assert (("r", "a"), ("a", "c")) not in oracle.seen
    assert (("r", "a"), ("a", "d")) not in oracle.seen


def test_rounding_missing_moment_on_a_kept_path_names_its_ordinals():
    layered, vmap, vector = layered3_vector("exact", {"r b d": None})
    oracle = VectorOracle(vector, vmap)
    ordinals = tuple(sorted(vmap.edge_ordinal(e) for e in (RB, ("b", "d"))))
    with pytest.raises(MissingMomentError) as info:
        round_solution(oracle, layered, reps=20, seed=0)
    assert info.value.index_set == ordinals
    with pytest.raises(MissingMomentError) as info:
        collect_stats(oracle, layered, 20, seed=0)
    assert info.value.index_set == ordinals


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_rounding_reads_each_path_once_per_call(kind):
    layered, vmap, vector = layered3_vector(kind, CLAMPING[kind])
    oracle = CountingOracle(VectorOracle(vector, vmap))
    round_solution(oracle, layered, reps=30, seed=1)
    assert oracle.seen and max(oracle.seen.values()) == 1
    oracle.seen.clear()
    collect_stats(oracle, layered, 300, seed=1)
    assert oracle.seen and max(oracle.seen.values()) == 1


def test_edge_marginal_check_exact_ok():
    _, layered, oracle = diamond_setup()
    report = edge_marginal_check(oracle, layered, tol=0.0)
    assert report.ok
    assert all(r.ok for r in report.edge_rows)
    assert all(r.value == 1 for r in report.terminal_rows)
    # prefix sums are tight for point routes
    for row in report.prefix_rows:
        assert row.value == row.bound


def test_edge_marginal_check_flags_last_edge_deficit():
    table = {
        (RA,): Fraction(1, 4),
        (RB,): Fraction(3, 4),
        (AS,): Fraction(1, 4),
        (BS,): Fraction(1, 2),  # too small for the 3/4 route through it
        (RA, AS): Fraction(1, 4),
        (RB, BS): Fraction(3, 4),
    }
    _, layered, _ = diamond_setup()
    report = edge_marginal_check(DictOracle(table), layered, tol=0.0)
    assert not report.ok
    bad = [r for r in report.edge_rows if not r.ok]
    assert [r.label for r in bad] == ["edge[b->s]"]
    assert bad[0].value == Fraction(3, 4) and bad[0].bound == Fraction(1, 2)
    assert all(r.ok for r in report.prefix_rows)
    # the same deficit is inside float tolerance when allowed
    loose = edge_marginal_check(DictOracle(table), layered, tol=0.3)
    assert loose.ok


def test_edge_marginal_check_flags_prefix_deficit():
    table = {
        (RA,): Fraction(1, 4),
        (RB,): Fraction(1, 2),  # too small a stem for the 3/4 route
        (AS,): Fraction(1, 4),
        (BS,): Fraction(3, 4),
        (RA, AS): Fraction(1, 4),
        (RB, BS): Fraction(3, 4),
    }
    _, layered, _ = diamond_setup()
    report = edge_marginal_check(DictOracle(table), layered, tol=0.0)
    assert not report.ok
    assert all(r.ok for r in report.edge_rows)
    bad = [r for r in report.prefix_rows if not r.ok]
    assert len(bad) == 1
    assert bad[0].value == Fraction(3, 4) and bad[0].bound == Fraction(1, 2)


def test_edge_marginal_check_flags_terminal_mass():
    table = {
        (RA,): Fraction(1, 4),
        (RB,): Fraction(1, 2),
        (AS,): Fraction(1, 4),
        (BS,): Fraction(1, 2),
        (RA, AS): Fraction(1, 4),
        (RB, BS): Fraction(1, 2),
    }
    _, layered, _ = diamond_setup()
    report = edge_marginal_check(DictOracle(table), layered, tol=0.0)
    assert not report.ok
    assert [r.ok for r in report.terminal_rows] == [False]
    assert report.terminal_rows[0].value == Fraction(3, 4)


def _row_record(row):
    return [
        row.label,
        type(row.value).__name__,
        str(row.value),
        type(row.bound).__name__,
        str(row.bound),
        row.ok,
    ]


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_marginal_rows_are_pinned(kind):
    """Every row of the marginal check on `tiny_layered3`, with the value and
    bound types: the float mix pins the float sums bit for bit."""
    layered = as_layered(tiny_layered3())
    _, vmap = build_flow_lp(layered)
    vector = import_moments(layered3_moments_text(exact=kind == "exact"))
    report = edge_marginal_check(VectorOracle(vector, vmap), layered, tol=0.0)
    rows = report.edge_rows + report.terminal_rows + report.prefix_rows
    lines = [json.dumps(report.ok)] + [json.dumps(_row_record(row)) for row in rows]
    text = "\n".join(lines) + "\n"
    assert text == (GOLDEN / f"marginals_layered3_{kind}.json").read_text()
