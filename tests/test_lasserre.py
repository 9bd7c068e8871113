"""Lift assembly and the first-order SDP solver.

The assembly is cross-checked against the moment-algebra route: for a
moment vector of an explicit distribution, the assembled sparse blocks must
reproduce the moment matrix and the shifted matrices computed symbolically.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dstlift.cli import main
from dstlift.exact import exact_opt
from dstlift.flow_lp import ConstraintSystem, Row, build_flow_lp, solve_lp
from dstlift.instance import as_layered, format_instance, parse_instance
from dstlift.lasserre import (
    BudgetError,
    SolverConfig,
    _project_psd_batch,
    assemble,
    lift_dimensions,
    solve,
    solve_from_file,
)
from dstlift.moments import (
    MomentFormatError,
    certify,
    export_moments,
    from_distribution,
    masks_upto,
    moment_matrix,
    shift,
)

from conftest import REFERENCE_TEXT, tiny_chain, tiny_diamond, tiny_path3


@pytest.mark.parametrize("n,level", [(3, 0), (5, 1), (8, 2), (4, 5)])
def test_lift_dimensions_match_enumeration(n, level):
    dims = lift_dimensions(n, level)
    assert dims["main_dim"] == len(list(masks_upto(n, min(level + 1, n))))
    assert dims["row_dim"] == len(list(masks_upto(n, min(level, n))))
    assert dims["n_free"] == len(list(masks_upto(n, min(2 * level + 2, n)))) - 1


def test_negative_level_rejected():
    with pytest.raises(ValueError, match="level must be nonnegative"):
        lift_dimensions(3, -1)
    with pytest.raises(ValueError, match="level must be nonnegative"):
        assemble(_empty_system(3), -1)


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


def test_budget_default(tmp_path, capsys):
    path = tmp_path / "diamond.dst"
    path.write_text(format_instance(tiny_diamond()))
    assert main(["lift-dim", str(path), "--t", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["budget"] == 2000


def _float_grid(grid):
    return np.array([[float(v) for v in row] for row in grid])


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
    # columns are the nonempty subsets in `masks_upto` order
    n = cs.n_vars
    assert prob.free_sets == tuple(masks_upto(n, min(2 * level + 2, n)))[1:]

    y = from_distribution(dist, level)
    x = np.array([float(y.entries[m]) for m in prob.free_sets])

    lifted = prob.L @ x + prob.C
    split = prob.main_dim**2
    assert lifted.shape == (split + prob.n_row_blocks * prob.row_dim**2,)
    lifted_main = lifted[:split].reshape(prob.main_dim, prob.main_dim)
    direct_main = _float_grid(moment_matrix(y, level + 1))
    assert np.allclose(lifted_main, direct_main)

    lifted_rows = lifted[split:].reshape(prob.n_row_blocks, prob.row_dim, prob.row_dim)
    for b, row in enumerate(rows):
        z = shift(row.coeffs, row.rhs, y)
        direct = _float_grid(moment_matrix(z, level))
        assert np.allclose(lifted_rows[b], direct)

    # objective lands on singleton columns in variable order
    for i, c in enumerate(cs.objective):
        col = prob.free_sets.index(1 << i)
        assert prob.objective[col] == float(c)


def _appended_slot_map(rows, masks, col_of):
    """Slot maps built one COO entry at a time: the reference for `_slot_map`.

    Slot by slot, the rhs term on I + J first, then the support in row order.
    """
    size = len(masks) ** 2
    C = np.zeros(len(rows) * size)
    data, rows_ix, cols_ix = [], [], []
    for b, (support, rhs) in enumerate(rows):
        unions = (mi | mj for mi in masks for mj in masks)
        for slot, base in enumerate(unions, start=b * size):
            if base == 0:
                C[slot] += -rhs
            else:
                rows_ix.append(slot)
                cols_ix.append(col_of[base])
                data.append(-rhs)
            for v, a in support:
                rows_ix.append(slot)
                cols_ix.append(col_of[base | (1 << v)])
                data.append(a)
    L = sp.coo_matrix(
        (data, (rows_ix, cols_ix)), shape=(len(rows) * size, len(col_of))
    ).tocsr()
    return L, C


def _thirds_system():
    """Rows with up to three support variables and coefficients like 1/3.

    At level 2 a support variable often lies in I + J already, so up to four
    terms of one slot land on one column and are summed.
    """
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    rows = (
        Row({0: third, 1: 2 * third, 2: Fraction(-1, 7)}, third, "a"),
        Row({1: Fraction(1), 3: third}, Fraction(0), "b"),
        Row({0: -third, 2: sixth, 3: -5 * sixth}, Fraction(-1), "c"),
    )
    return ConstraintSystem(n_vars=4, rows=rows, objective=(Fraction(1, 3),) * 4)


def _reference_system():
    """The reference flow LP: 85 variables, so masks pass 63 bits at level 0."""
    return build_flow_lp(as_layered(parse_instance(REFERENCE_TEXT)))[0]


@pytest.mark.parametrize(
    "make_system,level",
    [
        (_thirds_system, 2),
        (_diamond_system, 2),
        (_reference_system, 0),
        (lambda: _empty_system(3), 1),
    ],
    ids=["thirds@2", "diamond-lp@2", "reference@0", "no-rows@1"],
)
def test_assemble_matches_append_loop_bit_for_bit(make_system, level):
    cs = make_system()
    prob = assemble(cs, level)
    n = cs.n_vars
    col_of = {m: i for i, m in enumerate(prob.free_sets)}
    rows = [
        ([(i, float(a)) for i, a in r.coeffs.items()], float(r.rhs)) for r in cs.rows
    ]
    main = _appended_slot_map([([], -1.0)], list(masks_upto(n, level + 1)), col_of)
    row_blocks = _appended_slot_map(rows, list(masks_upto(n, level)), col_of)
    L = sp.vstack([main[0], row_blocks[0]], format="csr")
    C = np.concatenate([main[1], row_blocks[1]])

    assert prob.L.shape == L.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(prob.L, name), getattr(L, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # zeros keep their sign
    assert prob.C.tobytes() == C.tobytes()


def test_project_psd_batch_keeps_psd_blocks_and_clips_the_rest():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    psd = a @ a.T + 0.5 * np.eye(4)
    psd[0, 1] += 1e-3  # slightly asymmetric: the result is its symmetrization
    indefinite = np.diag([2.0, 1.0, -1.0, -3.0])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    indefinite = q @ indefinite @ q.T
    out = _project_psd_batch(np.stack([psd, indefinite]))

    assert np.array_equal(out[0], (psd + psd.T) / 2.0)
    vals, vecs = np.linalg.eigh(indefinite)
    clipped = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    assert np.allclose(out[1], clipped, atol=1e-12)
    assert np.allclose(np.linalg.eigvalsh(out[1]), [0.0, 0.0, 1.0, 2.0], atol=1e-12)

    # 1x1 blocks take the clip path
    ones = np.array([[[2.5]], [[-0.5]], [[0.0]]])
    assert np.array_equal(_project_psd_batch(ones), [[[2.5]], [[0.0]], [[0.0]]])


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
        "rho_changes",
    ):
        assert key in d


def test_full_level_single_route_lift_converges():
    # the lift of one three-edge route has a single feasible point and no
    # interior, where unaccelerated ADMM stalls (at 6.2 after 20,000 steps)
    _, cs, _ = _layered_lp(tiny_path3())
    sol = solve(assemble(cs, cs.n_vars), SolverConfig(max_iter=1000))
    assert sol.diagnostics["converged"]
    assert abs(sol.objective - 6.0) <= 1e-5


def test_solver_reaches_an_exact_fixed_point():
    # no rows and a zero objective: the iterates stop changing bit for bit,
    # so the acceleration history is all zeros and must not be solved with
    sol = solve(assemble(_empty_system(3), 1))
    assert sol.diagnostics["converged"]
    assert sol.objective == 0.0


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_solver_rejects_bad_tolerance(tol):
    _, cs, _ = _layered_lp(tiny_chain())
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve(assemble(cs, 0), SolverConfig(tol=tol))


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
