"""Lift assembly and the first-order SDP solver.

The assembly is cross-checked against the moment-algebra route: for a
moment vector of an explicit distribution, the assembled sparse blocks must
reproduce the moment matrix and the shifted matrices computed symbolically.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dstlift.exact import exact_opt
from dstlift.flow_lp import ConstraintSystem, Row, build_flow_lp, solve_lp
from dstlift.instance import as_layered
from dstlift.lasserre import (
    BudgetError,
    SolverConfig,
    assemble,
    lift_dimensions,
    resolve_budget,
    solve,
    solve_from_file,
)
from dstlift.moments import (
    MomentFormatError,
    certify,
    export_moments,
    from_distribution,
    moment_matrix,
    shift,
    subsets_upto,
)

from conftest import tiny_chain, tiny_diamond


@pytest.mark.parametrize("n,level", [(3, 0), (5, 1), (8, 2), (4, 5)])
def test_lift_dimensions_match_enumeration(n, level):
    dims = lift_dimensions(n, level)
    assert dims["main_dim"] == len(subsets_upto(n, min(level + 1, n)))
    assert dims["row_dim"] == len(subsets_upto(n, min(level, n)))
    assert dims["n_free"] == len(subsets_upto(n, min(2 * level + 2, n))) - 1


def _empty_system(n_vars):
    return ConstraintSystem(
        n_vars=n_vars, rows=(), objective=tuple(Fraction(0) for _ in range(n_vars))
    )


def test_budget_checked_before_enumeration():
    # 2*level+2 = 8 over 600 variables is ~10^16 lifted entries; the guard
    # must trip on arithmetic alone, long before any enumeration starts
    cs = _empty_system(600)
    with pytest.raises(BudgetError) as err:
        assemble(cs, 3)
    assert err.value.main_dim == sum(math.comb(600, s) for s in range(5))
    assert err.value.n_free == sum(math.comb(600, s) for s in range(9)) - 1


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DSTLIFT_MOMENT_BUDGET", "3")
    assert resolve_budget() == 3
    assert resolve_budget(100) == 100  # explicit argument wins
    with pytest.raises(BudgetError):
        assemble(_empty_system(5), 0)  # main_dim 6 > 3
    monkeypatch.setenv("DSTLIFT_MOMENT_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        resolve_budget()


def test_budget_default(monkeypatch):
    monkeypatch.delenv("DSTLIFT_MOMENT_BUDGET", raising=False)
    assert resolve_budget() == 2000


def _float_grid(mat):
    return np.array([[float(v) for v in row] for row in mat.grid])


def _pick_cap_system():
    pick = dict(enumerate([Fraction(1), Fraction(1), Fraction(0)]))
    cap = dict(enumerate([Fraction(0), Fraction(0), Fraction(-1)]))
    rows = (
        Row(pick, Fraction(1), "pick"),
        Row(cap, Fraction(-1), "cap"),
    )
    return ConstraintSystem(
        n_vars=3,
        rows=rows,
        objective=(Fraction(1), Fraction(2), Fraction(3)),
    )


def _diamond_system():
    return build_flow_lp(as_layered(tiny_diamond()))[0]


@pytest.mark.parametrize(
    "make_system,level,dist",
    [
        (
            _pick_cap_system,
            1,
            [(Fraction(1, 2), (1, 1, 0)), (Fraction(1, 2), (0, 1, 1))],
        ),
        # 8 variables, 31 rows: rhs-0 rows and consv.ge/consv.le equality pairs
        (
            _diamond_system,
            2,
            [
                (Fraction(1, 2), (1, 0, 1, 0, 1, 0, 1, 0)),
                (Fraction(1, 3), (0, 1, 0, 1, 0, 1, 0, 1)),
                (Fraction(1, 6), (1, 1, 0, 0, 1, 1, 1, 0)),
            ],
        ),
    ],
    ids=["pick-cap@1", "diamond-lp@2"],
)
def test_assemble_matches_moment_algebra(make_system, level, dist):
    cs = make_system()
    rows = cs.rows
    prob = assemble(cs, level)
    assert prob.row_labels == tuple(row.label for row in rows)

    y = from_distribution(dist, level)
    x = np.array([float(y.value(s)) for s in prob.free_sets])

    lifted_main = (prob.L_main @ x).reshape(
        prob.main_dim, prob.main_dim
    ) + prob.C_main
    direct_main = _float_grid(moment_matrix(y, level + 1))
    assert np.allclose(lifted_main, direct_main)

    lifted_rows = (prob.L_rows @ x + prob.C_rows).reshape(
        prob.n_row_blocks, prob.row_dim, prob.row_dim
    )
    for b, row in enumerate(rows):
        z = shift(row.coeffs, row.rhs, y)
        direct = _float_grid(moment_matrix(z, level))
        assert np.allclose(lifted_rows[b], direct)

    # objective lands on singleton columns in variable order
    for i, c in enumerate(cs.objective):
        col = prob.col_of[1 << i]
        assert prob.objective[col] == float(c)


def _layered_lp(inst):
    layered = as_layered(inst)
    cs, vmap = build_flow_lp(layered)
    return layered, cs, vmap


def test_sdp_level0_matches_lp_on_chain():
    _, cs, _ = _layered_lp(tiny_chain())
    lp = solve_lp(cs)
    assert lp.status == "optimal" and lp.objective == 5
    sol = solve(assemble(cs, 0))
    assert sol.diagnostics["converged"]
    assert abs(sol.objective - 5.0) <= 1e-5 * 5.0
    assert sol.diagnostics["gap_estimate"] <= 1e-4


def test_sdp_ladder_on_diamond():
    inst = tiny_diamond()
    layered, cs, _ = _layered_lp(inst)
    lp = solve_lp(cs)
    opt = exact_opt(inst)
    assert lp.status == "optimal"
    sdp0 = solve(assemble(cs, 0))
    sdp1 = solve(assemble(cs, 1))
    slack = 1e-5 * max(1.0, float(opt.cost))
    assert float(lp.objective) <= sdp0.objective + slack
    assert sdp0.objective <= sdp1.objective + slack
    assert sdp1.objective <= float(opt.cost) + slack
    report = certify(sdp1.vector, 1, cs.rows, tol=1e-5)
    assert report.ok, report.issues


def test_sdp_high_level_chain_hits_opt():
    # 4 variables: level 2 already stores the full powerset
    _, cs, _ = _layered_lp(tiny_chain())
    values = []
    for level in (0, 1, 2):
        sol = solve(assemble(cs, level))
        assert sol.diagnostics["converged"]
        values.append(sol.objective)
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-5 * 5.0
    assert abs(values[-1] - 5.0) <= 1e-5 * 5.0


def test_solver_is_deterministic():
    _, cs, _ = _layered_lp(tiny_diamond())
    a = solve(assemble(cs, 1))
    b = solve(assemble(cs, 1))
    assert a.objective == b.objective
    assert a.diagnostics == b.diagnostics
    assert a.vector.entries == b.vector.entries


def test_diagnostics_fields():
    _, cs, _ = _layered_lp(tiny_chain())
    sol = solve(assemble(cs, 0), SolverConfig(max_iter=10))
    d = sol.diagnostics
    assert d["backend"] == "admm"
    assert d["iterations"] == 10 and not d["converged"]
    for key in (
        "primal_residual",
        "dual_residual",
        "dual_objective",
        "dual_infeasibility",
        "gap_estimate",
        "rho_final",
    ):
        assert key in d


def test_solve_from_file_replay():
    _, cs, vmap = _layered_lp(tiny_diamond())
    prob = assemble(cs, 1)
    # route r->b->s with probability 3/4, r->a->s with 1/4
    n = cs.n_vars
    hi = [0] * n
    lo = [0] * n
    for edge in (("r", "b"), ("b", "s")):
        hi[vmap.edge_ordinal(edge)] = 1
        hi[vmap.flow_ordinal("s", edge)] = 1
    for edge in (("r", "a"), ("a", "s")):
        lo[vmap.edge_ordinal(edge)] = 1
        lo[vmap.flow_ordinal("s", edge)] = 1
    dist = [(Fraction(3, 4), tuple(hi)), (Fraction(1, 4), tuple(lo))]
    y = from_distribution(dist, 1)
    sol = solve_from_file(prob, export_moments(y))
    assert sol.diagnostics["backend"] == "file"
    # expected cost: 3/4 * 3 + 1/4 * 5
    assert sol.objective == pytest.approx(float(Fraction(3, 4) * 3 + Fraction(1, 4) * 5))
    assert sol.vector.exact


def test_solve_from_file_rejects_mismatch():
    _, cs, _ = _layered_lp(tiny_diamond())
    prob = assemble(cs, 1)
    wrong = from_distribution([(Fraction(1), (1, 0))], 1)
    with pytest.raises(MomentFormatError):
        solve_from_file(prob, export_moments(wrong))
    shallow = from_distribution(
        [(Fraction(1), tuple([0] * cs.n_vars))], 0
    )
    with pytest.raises(MomentFormatError):
        solve_from_file(prob, export_moments(shallow))
