"""Moment-matrix lift of a constraint system and a first-order SDP solver.

`assemble` turns `min c.x over a.x >= b, x in [0,1]^n` into the level-t lift:
one free value per nonempty variable subset of size at most 2t+2, the main
moment matrix over subsets of size at most t+1, and one shifted matrix per
row over subsets of size at most t, all required positive semidefinite, with
the empty set pinned to one.  Equalities arrive as opposite row pairs and
force their shifted matrices to vanish.  One slot-map builder lays out every
block as a linear map of the free values; the main block is the shift by the
trivial row `0.x >= -1`.  This is a symbolic route of its own, kept apart
from `moments.shift` so that the two can check each other.

`solve` runs consensus ADMM with over-relaxation: a sparse SPD solve for the
subset values, eigenvalue projections for the cone blocks (row blocks share a
dimension and are projected in one batched call), and scaled-residual
stopping.  Everything is deterministic for fixed inputs.  The result carries
a float moment vector plus diagnostics including a projected dual bound; the
certifier in `moments` is the authority on feasibility quality.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .flow_lp import ConstraintSystem
from .moments import (
    IndexSet,
    MomentFormatError,
    MomentVector,
    import_moments,
    mask_of,
    subsets_upto,
)

DEFAULT_BUDGET = 2000
BUDGET_ENV = "DSTLIFT_MOMENT_BUDGET"


class BudgetError(RuntimeError):
    """The lift would exceed the configured moment-matrix dimension budget."""

    def __init__(self, message: str, main_dim: int, row_dim: int, n_free: int):
        super().__init__(message)
        self.main_dim = main_dim
        self.row_dim = row_dim
        self.n_free = n_free


def resolve_budget(budget: int | None = None) -> int:
    if budget is not None:
        return budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"bad {BUDGET_ENV} value {raw!r}") from exc


def lift_dimensions(n_vars: int, level: int) -> dict[str, int]:
    """Block dimensions and variable count of the lift, no enumeration needed."""
    main_dim = sum(math.comb(n_vars, s) for s in range(min(level + 1, n_vars) + 1))
    row_dim = sum(math.comb(n_vars, s) for s in range(min(level, n_vars) + 1))
    n_free = (
        sum(math.comb(n_vars, s) for s in range(min(2 * level + 2, n_vars) + 1)) - 1
    )
    return {"main_dim": main_dim, "row_dim": row_dim, "n_free": n_free}


@dataclass
class SdpProblem:
    """Assembled lift: sparse slot maps per cone block plus the objective."""

    n_vars: int
    level: int
    free_sets: tuple[IndexSet, ...]
    col_of: dict[int, int]
    main_dim: int
    row_dim: int
    n_row_blocks: int
    row_labels: tuple[str, ...]
    L_main: sp.csr_matrix = field(repr=False)
    C_main: np.ndarray = field(repr=False)
    L_rows: sp.csr_matrix = field(repr=False)
    C_rows: np.ndarray = field(repr=False)
    objective: np.ndarray = field(repr=False)


def _slot_map(
    rows: list[tuple[list[tuple[int, float]], float]],
    masks: list[int],
    col_of: dict[int, int],
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Slot maps of the shifted moment matrices M(g * y) over `masks`.

    Each row is `(support, rhs)` for `sum a_v x_v >= rhs`; its block is laid
    out row-major after the previous ones.  Slot (I, J) holds
    `sum a_v y(I + J + v) - rhs * y(I + J)`: terms on free subsets go to the
    sparse map, the term on the empty set (pinned to one) to the constant.
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


def assemble(
    cs: ConstraintSystem, level: int, budget: int | None = None
) -> SdpProblem:
    """Build the level-`level` lift of a constraint system.

    The budget (argument, else the DSTLIFT_MOMENT_BUDGET environment
    variable, else 2000) caps the main block dimension and is checked
    arithmetically before anything is enumerated.
    """
    n = cs.n_vars
    if level < 0:
        raise ValueError("level must be nonnegative")
    dims = lift_dimensions(n, level)
    cap = resolve_budget(budget)
    if dims["main_dim"] > cap:
        raise BudgetError(
            f"main moment matrix is {dims['main_dim']}x{dims['main_dim']} "
            f"(row blocks {dims['row_dim']}, {dims['n_free']} lifted variables); "
            f"budget allows {cap}",
            dims["main_dim"],
            dims["row_dim"],
            dims["n_free"],
        )

    free_sets = tuple(subsets_upto(n, min(2 * level + 2, n))[1:])
    col_of = {mask_of(s): i for i, s in enumerate(free_sets)}
    n_free = len(free_sets)

    # The main block is the shift by the trivial row 0.x >= -1.
    masks1 = [mask_of(s) for s in subsets_upto(n, min(level + 1, n))]
    L_main, C_main = _slot_map([([], -1.0)], masks1, col_of)
    masks0 = [mask_of(s) for s in subsets_upto(n, min(level, n))]
    L_rows, C_rows = _slot_map(
        [
            ([(i, float(a)) for i, a in row.coeffs.items()], float(row.rhs))
            for row in cs.rows
        ],
        masks0,
        col_of,
    )
    d1, d0 = len(masks1), len(masks0)

    objective = np.zeros(n_free)
    for i, c in enumerate(cs.objective):
        if c != 0:
            objective[col_of[1 << i]] = float(c)
    return SdpProblem(
        n_vars=n,
        level=level,
        free_sets=free_sets,
        col_of=col_of,
        main_dim=d1,
        row_dim=d0,
        n_row_blocks=len(cs.rows),
        row_labels=tuple(row.label for row in cs.rows),
        L_main=L_main,
        C_main=C_main.reshape(d1, d1),
        L_rows=L_rows,
        C_rows=C_rows,
        objective=objective,
    )


# ADMM starts at penalty RHO_START and rebalances it every 100 iterations;
# OVER_RELAX is the over-relaxation factor of the cone updates.  Residuals
# are checked every CHECK_EVERY iterations and at the last one.
RHO_START = 2.0
OVER_RELAX = 1.6
CHECK_EVERY = 25


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 20000
    tol: float = 1.0e-7


@dataclass
class SdpSolution:
    vector: MomentVector
    objective: float
    diagnostics: dict


def _factor_gram(G: sp.csc_matrix):
    """Linear solver for the SPD Gram matrix of the block maps.

    A subset that shows up in exactly one slot has a lone diagonal entry, and
    on big lifts that is the vast majority, so a direct factorization wastes
    almost all its effort.  Splitting those columns off and factoring only the
    coupled submatrix gives the same exact solve at a fraction of the setup.
    """
    n = G.shape[0]
    diag = G.diagonal()
    off = G - sp.diags(diag)
    off.eliminate_zeros()
    col_nnz = np.diff(off.tocsc().indptr)
    coupled = np.flatnonzero(col_nnz > 0)
    # G is SPD, so symmetric-mode ordering beats the default by a wide margin
    factor = lambda mat: splu(
        mat, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
    )
    if coupled.size == 0:
        return lambda rhs: rhs / diag
    if coupled.size == n:
        return factor(G).solve
    alone = np.setdiff1d(np.arange(n), coupled, assume_unique=True)
    sub = G.tocsr()[coupled].tocsc()[:, coupled].tocsc()
    lu = factor(sub)

    def solve(rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        out[alone] = rhs[alone] / diag[alone]
        out[coupled] = lu.solve(rhs[coupled])
        return out

    return solve


def _project_psd(mat: np.ndarray) -> np.ndarray:
    mat = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] >= 0:
        return mat
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped) @ vecs.T


def _project_psd_batch(stack: np.ndarray) -> np.ndarray:
    if stack.shape[0] == 0:
        return stack
    if stack.shape[1] == 1:
        return np.clip(stack, 0.0, None)
    sym = (stack + stack.transpose(0, 2, 1)) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped[:, None, :]) @ vecs.transpose(0, 2, 1)


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Run ADMM on the assembled lift and return a float moment vector.

    The iteration is deterministic; `diagnostics` records residuals, the
    objective, a projected dual bound with its infeasibility, and whether the
    tolerances were met within the iteration cap.
    """
    cfg = config or SolverConfig()
    d1, d0, nblk = problem.main_dim, problem.row_dim, problem.n_row_blocks
    n_free = len(problem.free_sets)
    LM = problem.L_main
    LR = problem.L_rows
    LMT = LM.T.tocsr()
    LRT = LR.T.tocsr()
    CM = problem.C_main
    CR = problem.C_rows.reshape(nblk, d0, d0) if nblk else np.zeros((0, d0, d0))

    scale = max(1.0, float(np.max(np.abs(problem.objective))) if n_free else 1.0)
    c = problem.objective / scale

    G = (LMT @ LM + LRT @ LR).tocsc()
    solve_gram = _factor_gram(G)

    x = np.zeros(n_free)
    zM = np.zeros((d1, d1))
    zR = np.zeros((nblk, d0, d0))
    uM = np.zeros_like(zM)
    uR = np.zeros_like(zR)
    rho = RHO_START
    total_slots = d1 * d1 + nblk * d0 * d0

    it = 0
    converged = False
    r_norm = s_norm = float("nan")
    for it in range(1, cfg.max_iter + 1):
        rhs = (
            LMT @ (zM - uM - CM).ravel()
            + LRT @ (zR - uR - CR).ravel()
            - c / rho
        )
        x = solve_gram(rhs)
        axM = np.asarray(LM @ x).reshape(d1, d1) + CM
        axR = np.asarray(LR @ x).reshape(nblk, d0, d0) + CR
        hM = OVER_RELAX * axM + (1.0 - OVER_RELAX) * zM
        hR = OVER_RELAX * axR + (1.0 - OVER_RELAX) * zR
        zM_new = _project_psd(hM + uM)
        zR_new = _project_psd_batch(hR + uR)
        uM = uM + hM - zM_new
        uR = uR + hR - zR_new

        if it % CHECK_EVERY == 0 or it == cfg.max_iter:
            rM = axM - zM_new
            rR = axR - zR_new
            r_norm = math.sqrt(float(np.sum(rM * rM) + np.sum(rR * rR)))
            dzM = (zM_new - zM).ravel()
            dzR = (zR_new - zR).ravel()
            s_vec = rho * (LMT @ dzM + LRT @ dzR)
            s_norm = float(np.linalg.norm(s_vec))
            ax_norm = math.sqrt(float(np.sum(axM * axM) + np.sum(axR * axR)))
            z_norm = math.sqrt(
                float(np.sum(zM_new * zM_new) + np.sum(zR_new * zR_new))
            )
            eps_pri = cfg.tol * math.sqrt(total_slots) + cfg.tol * max(
                ax_norm, z_norm
            )
            dual_ref = rho * (LMT @ uM.ravel() + LRT @ uR.ravel())
            eps_dual = cfg.tol * math.sqrt(max(n_free, 1)) + cfg.tol * float(
                np.linalg.norm(dual_ref)
            )
            if r_norm <= eps_pri and s_norm <= eps_dual:
                zM, zR = zM_new, zR_new
                converged = True
                break
            if it % 100 == 0 and it < 0.8 * cfg.max_iter:
                if r_norm > 10.0 * s_norm and rho < 1.0e6:
                    rho *= 2.0
                    uM /= 2.0
                    uR /= 2.0
                elif s_norm > 10.0 * r_norm and rho > 1.0e-6:
                    rho /= 2.0
                    uM *= 2.0
                    uR *= 2.0
        zM, zR = zM_new, zR_new

    objective = float(problem.objective @ x)
    YM = _project_psd(-rho * uM)
    YR = _project_psd_batch(-rho * uR)
    dual_objective = -float(np.sum(CM * YM) + np.sum(CR.ravel() * YR.ravel())) * scale
    dual_infeas = float(
        np.linalg.norm((LMT @ YM.ravel() + LRT @ YR.ravel()) * scale - problem.objective)
    )
    entries: dict[IndexSet, float] = {(): 1.0}
    for s, xi in zip(problem.free_sets, x):
        entries[s] = float(xi)
    vector = MomentVector(
        n_vars=problem.n_vars, level=problem.level, entries=entries, exact=False
    )
    diagnostics = {
        "backend": "admm",
        "iterations": it,
        "converged": converged,
        "primal_residual": r_norm,
        "dual_residual": s_norm,
        "objective": objective,
        "dual_objective": dual_objective,
        "dual_infeasibility": dual_infeas,
        "gap_estimate": abs(objective - dual_objective) / max(1.0, abs(objective)),
        "rho_final": rho,
        "main_dim": d1,
        "row_dim": d0,
        "n_row_blocks": nblk,
        "n_free": n_free,
    }
    return SdpSolution(vector=vector, objective=objective, diagnostics=diagnostics)


def solve_from_file(problem: SdpProblem, text: str) -> SdpSolution:
    """Replay a moment vector from a file instead of running the solver.

    The vector must match the problem's variable count and cover its level;
    the objective is recomputed from the vector.  Feasibility is up to the
    caller's certify pass, as with the builtin backend.
    """
    vector = import_moments(text)
    if vector.n_vars != problem.n_vars:
        raise MomentFormatError(
            f"file has {vector.n_vars} variables, problem wants {problem.n_vars}"
        )
    needed = min(2 * problem.level + 2, problem.n_vars)
    if vector.complete_size() < needed:
        raise MomentFormatError(
            f"file vector complete to size {vector.complete_size()}, "
            f"level {problem.level} wants {needed}"
        )
    objective = float(
        sum(
            float(problem.objective[i]) * float(vector.value(s))
            for i, s in enumerate(problem.free_sets)
            if problem.objective[i] != 0
        )
    )
    diagnostics = {
        "backend": "file",
        "iterations": 0,
        "converged": True,
        "objective": objective,
    }
    return SdpSolution(vector=vector, objective=objective, diagnostics=diagnostics)
