"""Flow LP assembly and the exact simplex, cross-checked against scipy."""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from dstlift import (
    as_layered,
    build_flow_lp,
    check_point,
    exact_opt,
    format_lp_dump,
    levelize,
    parse_lp_dump,
    solve_lp,
)
from dstlift.flow_lp import ConstraintSystem, Row
from dstlift.harness import gap_instance

from conftest import lp_feasible, tiny_chain, tiny_diamond


def _scipy_value(cs):
    """Reference optimum from an unrelated implementation (HiGHS)."""
    a_ub = [
        [-float(row.coeffs.get(j, 0)) for j in range(cs.n_vars)] for row in cs.rows
    ]
    b_ub = [-float(row.rhs) for row in cs.rows]
    res = linprog(
        [float(c) for c in cs.objective],
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=[(0, None)] * cs.n_vars,
        method="highs",
    )
    return res


def _random_system(rng, n, m, pairs=0):
    """Box rows, then `m` random rows.  With `pairs`, every row holds at a
    point x0 >= 1 of the box, and `pairs` equalities `c.x = c.x0 > 0` follow,
    each split into two opposite rows as flow conservation is."""
    rows, upper = [], []
    for i in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(1)
        rows.append(Row(dict(enumerate(coeffs)), Fraction(0), f"lb{i}"))
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(-1)
        upper.append(rng.randint(1, 4))
        rows.append(Row(dict(enumerate(coeffs)), Fraction(-upper[-1]), f"ub{i}"))
    x0 = [rng.randint(1, u) for u in upper] if pairs else None
    for j in range(m):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rhs = Fraction(rng.randint(-4, 4))
        if x0:
            rhs = min(rhs, sum(a * x for a, x in zip(coeffs, x0)))
        rows.append(Row(dict(enumerate(coeffs)), rhs, f"c{j}"))
    for k in range(pairs):
        coeffs = [rng.randint(0, 2) for _ in range(n)]
        coeffs[k % n] += 1  # so c.x0 > 0
        rhs = Fraction(sum(a * x for a, x in zip(coeffs, x0)))
        rows.append(Row(dict(enumerate(map(Fraction, coeffs))), rhs, f"eq{k}.ge"))
        rows.append(Row({i: -Fraction(a) for i, a in enumerate(coeffs)}, -rhs, f"eq{k}.le"))
    objective = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
    return ConstraintSystem(n_vars=n, rows=tuple(rows), objective=objective)


@pytest.mark.parametrize("seed", range(40))
def test_simplex_agrees_with_scipy(seed):
    rng = random.Random(seed)
    # From seed 25 on, equality pairs leave artificials basic (at zero) after
    # phase 1, as in every flow LP, so the drive-out pivots run.
    pairs = 0 if seed < 25 else rng.randint(1, 3)
    cs = _random_system(rng, rng.randint(2, 5), rng.randint(1, 5), pairs)
    mine = solve_lp(cs)
    ref = _scipy_value(cs)
    if mine.status == "optimal":
        assert ref.status == 0
        assert abs(float(mine.objective) - ref.fun) <= 1e-7 * max(
            1.0, abs(ref.fun)
        )
        assert not check_point(cs, mine.values)
    elif mine.status == "infeasible":
        assert ref.status == 2
    else:
        # bounded boxes above make unbounded impossible here
        pytest.fail(f"unexpected status {mine.status}")


def test_simplex_returns_fractions_for_int_coefficients():
    cs = ConstraintSystem(
        2,
        (Row({0: 1, 1: 1}, 1, "a"), Row({0: -1}, -1, "b"), Row({1: -1}, -1, "c")),
        (2, 3),
    )
    solution = solve_lp(cs)
    assert solution.status == "optimal"
    assert solution.values == (1, 0) and solution.objective == 2
    assert all(type(v) is Fraction for v in solution.values)
    assert type(solution.objective) is Fraction


def test_simplex_detects_unbounded():
    # x0 >= 0 has no artificial row; x0 >= 1 is unbounded only after phase 1
    for rhs in (Fraction(0), Fraction(1)):
        cs = ConstraintSystem(
            n_vars=1,
            rows=(Row({0: Fraction(1)}, rhs, "lb"),),
            objective=(Fraction(-1),),
        )
        assert solve_lp(cs).status == "unbounded"


def test_simplex_detects_infeasible():
    cs = ConstraintSystem(
        n_vars=1,
        rows=(
            Row({0: Fraction(1)}, Fraction(3), "ge3"),
            Row({0: Fraction(-1)}, Fraction(-1), "le1"),
        ),
        objective=(Fraction(1),),
    )
    assert solve_lp(cs).status == "infeasible"


def test_flow_lp_shape(reference_lp):
    cs, vmap = reference_lp
    # 17 edge vars + 4 terminals * 17 flow vars
    assert cs.n_vars == 85
    assert vmap.n_edges == 17
    labels = [r.label for r in cs.rows]
    assert labels[0].startswith("lb.")
    assert any(l.startswith("consv.ge[") for l in labels)
    assert any(l.startswith("cap[") for l in labels)
    assert any(l.startswith("deg[") for l in labels)


def test_variable_order_is_canonical(reference_lp):
    _, vmap = reference_lp
    kinds = [vmap.columns[i].kind for i in range(vmap.n_vars)]
    assert kinds[: vmap.n_edges] == ["edge"] * vmap.n_edges
    flow_terms = [
        vmap.columns[i].terminal for i in range(vmap.n_edges, vmap.n_vars)
    ]
    assert flow_terms == sorted(flow_terms)  # grouped by sorted terminal


def test_reference_lp_value(reference_lp):
    cs, _ = reference_lp
    solution = solve_lp(cs)
    assert solution.status == "optimal"
    # frozen regression value: the relaxation is tight on the reference graph
    assert solution.objective == Fraction(19)


# The optimal vertex Bland's pivots reach, as the tags of its nonzero
# coordinates.  The reference vertex is the optimal tree at value 1; gap4 is
# degenerate (optimum 4/3) and its vertex puts 1/3 on every edge and on each
# terminal's three routes.
PINNED_LP_VERTICES = {
    "reference": (
        Fraction(1),
        """e[r->u1] e[r->u3] e[u1->v1] e[u1->v2] e[u3->v4] e[v1->s1] e[v2->s2]
        e[v2->s3] e[v4->s4] f[s1][r->u1] f[s1][u1->v1] f[s1][v1->s1]
        f[s2][r->u1] f[s2][u1->v2] f[s2][v2->s2] f[s3][r->u1] f[s3][u1->v2]
        f[s3][v2->s3] f[s4][r->u3] f[s4][u3->v4] f[s4][v4->s4]""",
    ),
    "gap4": (
        Fraction(1, 3),
        """e[S0->e0] e[S0->e1] e[S0->e2] e[S1->e0] e[S1->e1] e[S1->e3]
        e[S2->e0] e[S2->e2] e[S2->e3] e[S3->e1] e[S3->e2] e[S3->e3]
        e[r->S0] e[r->S1] e[r->S2] e[r->S3]
        f[e0][S0->e0] f[e0][S1->e0] f[e0][S2->e0]
        f[e0][r->S0] f[e0][r->S1] f[e0][r->S2]
        f[e1][S0->e1] f[e1][S1->e1] f[e1][S3->e1]
        f[e1][r->S0] f[e1][r->S1] f[e1][r->S3]
        f[e2][S0->e2] f[e2][S2->e2] f[e2][S3->e2]
        f[e2][r->S0] f[e2][r->S2] f[e2][r->S3]
        f[e3][S1->e3] f[e3][S2->e3] f[e3][S3->e3]
        f[e3][r->S1] f[e3][r->S2] f[e3][r->S3]""",
    ),
}


@pytest.mark.parametrize("which", sorted(PINNED_LP_VERTICES))
def test_lp_vertex_is_pinned(which, reference_instance):
    inst = reference_instance if which == "reference" else gap_instance(4)
    cs, vmap = build_flow_lp(as_layered(inst))
    solution = solve_lp(cs)
    got = {vmap.columns[i].tag: v for i, v in enumerate(solution.values) if v}
    value, tags = PINNED_LP_VERTICES[which]
    assert got == dict.fromkeys(tags.split(), value)


def test_lp_lower_bounds_optimum():
    for inst in (tiny_chain(), tiny_diamond()):
        layered = as_layered(inst)
        cs, _ = build_flow_lp(layered)
        solution = solve_lp(cs)
        assert solution.status == "optimal"
        assert solution.objective <= exact_opt(inst).cost


def test_integral_solution_is_feasible_point(reference_instance, reference_lp):
    cs, vmap = reference_lp
    opt = exact_opt(reference_instance)
    x = [Fraction(0)] * cs.n_vars
    for e in opt.edges:
        x[vmap.edge_ordinal(e)] = Fraction(1)
    # route each terminal's unit flow along its tree path
    from dstlift import enumerate_paths, as_layered

    layered = as_layered(reference_instance)
    for s in reference_instance.terminals:
        for record in enumerate_paths(layered, s):
            if set(record.edges) <= opt.edges:
                for e in record.edges:
                    x[vmap.flow_ordinal(s, e)] = Fraction(1)
                break
        else:
            pytest.fail("optimal tree must route every terminal")
    assert check_point(cs, x) == []


def test_check_point_reports_violations(reference_lp):
    cs, _ = reference_lp
    x = [Fraction(0)] * cs.n_vars
    bad = check_point(cs, x)
    assert bad  # conservation fails with zero flow
    assert all(v.amount > 0 for v in bad)
    with pytest.raises(ValueError):
        check_point(cs, x[:-1])


# The chain LP as written on disk: dense rows, zeros included.
CHAIN_LP_DUMP = """\
lpdump 4 18
min 3 2 0 0
ge 1 0 0 0 0 lb.e[a->s]
ge 0 1 0 0 0 lb.e[r->a]
ge 0 0 1 0 0 lb.f[s][a->s]
ge 0 0 0 1 0 lb.f[s][r->a]
ge -1 0 0 0 -1 ub.e[a->s]
ge 0 -1 0 0 -1 ub.e[r->a]
ge 0 0 -1 0 -1 ub.f[s][a->s]
ge 0 0 0 -1 -1 ub.f[s][r->a]
ge 0 0 1 -1 0 consv.ge[s][a]
ge 0 0 -1 1 0 consv.le[s][a]
ge 0 0 0 1 1 consv.ge[s][r]
ge 0 0 0 -1 -1 consv.le[s][r]
ge 0 0 -1 0 -1 consv.ge[s][s]
ge 0 0 1 0 1 consv.le[s][s]
ge 1 0 -1 0 0 cap[s][a->s]
ge 0 1 0 -1 0 cap[s][r->a]
ge 0 -1 0 0 -1 deg[a]
ge -1 0 0 0 -1 deg[s]
"""


def _assert_sparse_rows(cs):
    for row in cs.rows:
        assert all(a != 0 for a in row.coeffs.values()), row.label
        assert list(row.coeffs) == sorted(row.coeffs), row.label


@pytest.mark.parametrize("which", ["reference", "chain"])
def test_lp_dump_round_trip(which, reference_lp):
    if which == "reference":
        cs, _ = reference_lp
    else:
        cs, _ = build_flow_lp(as_layered(tiny_chain()))
        assert format_lp_dump(cs) == CHAIN_LP_DUMP
    _assert_sparse_rows(cs)
    again = parse_lp_dump(format_lp_dump(cs))
    _assert_sparse_rows(again)
    assert again == cs


def test_row_keeps_only_nonzero_coefficients_in_order():
    dense = {3: Fraction(2), 0: Fraction(0), 1: Fraction(-1), 2: Fraction(0)}
    row = Row(dense, Fraction(1), "r")
    assert list(row.coeffs.items()) == [(1, Fraction(-1)), (3, Fraction(2))]
    assert row.support() == [(1, Fraction(-1)), (3, Fraction(2))]
    assert Row(dict(enumerate([Fraction(0)] * 3)), Fraction(0), "empty").coeffs == {}


def test_lp_dump_rejects_malformed():
    from dstlift.flow_lp import LpFormatError

    with pytest.raises(LpFormatError):
        parse_lp_dump("nope\n")
    with pytest.raises(LpFormatError):
        parse_lp_dump("lpdump 2 1\nmin 1 1\nge 1 0\n")  # missing rhs/label
    with pytest.raises(LpFormatError):
        parse_lp_dump("lpdump 1 0\nmin --1\n")  # doubled sign
    with pytest.raises(LpFormatError):
        parse_lp_dump("lpdump 1 1\nmin 1\nge 1 --1 r\n")
    for header in ("lpdump 2 -1\n", "lpdump -1 0\nmin\n"):
        with pytest.raises(LpFormatError, match="negative count in header"):
            parse_lp_dump(header)


def test_lp_feasible_pinning():
    layered = as_layered(tiny_diamond())
    cs, vmap = build_flow_lp(layered)
    # either route alone is fine
    assert lp_feasible(cs, [vmap.edge_ordinal(("r", "a"))])
    # both edges into s cannot be fully active: indegree cap
    both = [vmap.edge_ordinal(("a", "s")), vmap.edge_ordinal(("b", "s"))]
    assert not lp_feasible(cs, both)
    assert lp_feasible(cs)


def test_levelized_lp_weakly_decreases_with_depth(reference_instance):
    # more levels can only help the relaxation reach the true optimum
    values = []
    for ell in (1, 2, 3):
        layered = levelize(reference_instance, ell, prune=True)
        cs, _ = build_flow_lp(layered)
        values.append(solve_lp(cs).objective)
    assert all(v is not None for v in values)
    assert values == sorted(values, reverse=True)
