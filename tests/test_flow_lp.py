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


def _random_system(rng, n, m):
    rows = []
    for i in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(1)
        rows.append(Row(dict(enumerate(coeffs)), Fraction(0), f"lb{i}"))
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(-1)
        rows.append(
            Row(dict(enumerate(coeffs)), Fraction(-rng.randint(1, 4)), f"ub{i}")
        )
    for j in range(m):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rows.append(Row(dict(enumerate(coeffs)), Fraction(rng.randint(-4, 4)), f"c{j}"))
    objective = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
    return ConstraintSystem(n_vars=n, rows=tuple(rows), objective=objective)


@pytest.mark.parametrize("seed", range(25))
def test_simplex_agrees_with_scipy(seed):
    rng = random.Random(seed)
    cs = _random_system(rng, rng.randint(2, 5), rng.randint(1, 5))
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


def test_simplex_detects_unbounded():
    cs = ConstraintSystem(
        n_vars=1,
        rows=(Row({0: Fraction(1)}, Fraction(0), "lb"),),
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
    kinds = [vmap.by_ordinal(i).kind for i in range(vmap.n_vars)]
    assert kinds[: vmap.n_edges] == ["edge"] * vmap.n_edges
    flow_terms = [
        vmap.by_ordinal(i).terminal for i in range(vmap.n_edges, vmap.n_vars)
    ]
    assert flow_terms == sorted(flow_terms)  # grouped by sorted terminal


def test_reference_lp_value(reference_lp):
    cs, _ = reference_lp
    solution = solve_lp(cs)
    assert solution.status == "optimal"
    # frozen regression value: the relaxation is tight on the reference graph
    assert solution.objective == Fraction(19)


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
    for ell in (1, 2):
        layered = levelize(reference_instance, ell, prune=True)
        cs, _ = build_flow_lp(layered)
        values.append(solve_lp(cs).objective)
    assert all(v is not None for v in values)
