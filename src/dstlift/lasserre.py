"""Moment-matrix lift of a constraint system and a first-order SDP solver.

`assemble` turns `min c.x over a.x >= b, x in [0,1]^n` into the level-t lift:
one free value per nonempty variable subset of size at most 2t+2, the main
moment matrix over subsets of size at most t+1, and one shifted matrix per
row over subsets of size at most t, all required positive semidefinite, with
the empty set pinned to one.  Equalities arrive as opposite row pairs and
force their shifted matrices to vanish.  One slot-map builder lays out every
block as a linear map of the free values, from index arrays of the columns
of I + J and I + J + v built once per block size; the main block is the
shift by the trivial row `0.x >= -1`.  The blocks are stacked into one
affine map, the main block first, so the lift is a single cone.  This is a
symbolic route of its own, kept apart from `moments.shift` so that the two
can check each other.

`solve` runs consensus ADMM with over-relaxation on that one map: a sparse SPD
solve for the subset values, one eigenvalue projection per block size (the
blocks of a size go through one batched call, and blocks that are already PSD
are kept as they are), and scaled-residual stopping.  Everything is
deterministic for fixed inputs.  The result carries a float moment vector
plus diagnostics including a projected dual bound; the certifier in `moments`
is the authority on feasibility quality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .flow_lp import ConstraintSystem
from .moments import MomentFormatError, MomentVector, import_moments, masks_upto

DEFAULT_BUDGET = 2000


class BudgetError(RuntimeError):
    """The lift would exceed the configured moment-matrix dimension budget."""

    def __init__(self, message: str, main_dim: int, row_dim: int, n_free: int):
        super().__init__(message)
        self.main_dim = main_dim
        self.row_dim = row_dim
        self.n_free = n_free


def lift_dimensions(n_vars: int, level: int) -> dict[str, int]:
    """Block dimensions and variable count of the lift, no enumeration needed."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    main_dim = sum(math.comb(n_vars, s) for s in range(min(level + 1, n_vars) + 1))
    row_dim = sum(math.comb(n_vars, s) for s in range(min(level, n_vars) + 1))
    n_free = (
        sum(math.comb(n_vars, s) for s in range(min(2 * level + 2, n_vars) + 1)) - 1
    )
    return {"main_dim": main_dim, "row_dim": row_dim, "n_free": n_free}


@dataclass
class SdpProblem:
    """Assembled lift: the cone is `L @ x + C`, the objective `objective @ x`.

    `free_sets` holds the masks of the free subsets in column order: the
    `masks_upto` order, less the empty set.  The main block's `main_dim**2`
    slots come first, then the `n_row_blocks` row blocks of `row_dim**2`
    slots each, every block row-major.
    """

    n_vars: int
    level: int
    free_sets: tuple[int, ...]
    main_dim: int
    row_dim: int
    n_row_blocks: int
    L: sp.csr_matrix = field(repr=False)
    C: np.ndarray = field(repr=False)
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
    The columns of I + J and of each I + J + v are looked up once per call
    into index arrays (-1 marks the empty set); a block's (slot, term) table
    of them is read row-major, so its terms reach the map slot by slot, the
    rhs term first and the support in row order.
    """
    size = len(masks) ** 2

    @functools.cache
    def columns(bit: int) -> np.ndarray:
        unions = (col_of.get(mi | mj | bit, -1) for mi in masks for mj in masks)
        return np.fromiter(unions, np.int32, count=size)

    empty = columns(0) < 0
    C = np.zeros(len(rows) * size)
    slots, cols, data = [np.zeros(0, np.intp)], [np.zeros(0, np.int32)], [np.zeros(0)]
    for b, (support, rhs) in enumerate(rows):
        C[b * size : (b + 1) * size][empty] += -rhs
        table = np.stack([columns(0)] + [columns(1 << v) for v, _ in support], axis=1)
        keep = table >= 0
        slot, term = np.nonzero(keep)
        slots.append(slot + b * size)
        cols.append(table[keep])
        data.append(np.array([-rhs] + [a for _, a in support])[term])
    L = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(slots), np.concatenate(cols))),
        shape=(len(rows) * size, len(col_of)),
    ).tocsr()
    return L, C


def assemble(
    cs: ConstraintSystem, level: int, budget: int | None = None
) -> SdpProblem:
    """Build the level-`level` lift of a constraint system.

    The budget (DEFAULT_BUDGET when None) caps the main block dimension and
    is checked arithmetically before anything is enumerated.
    """
    n = cs.n_vars
    dims = lift_dimensions(n, level)
    cap = DEFAULT_BUDGET if budget is None else budget
    if dims["main_dim"] > cap:
        raise BudgetError(
            f"main moment matrix is {dims['main_dim']}x{dims['main_dim']} "
            f"(row blocks {dims['row_dim']}, {dims['n_free']} lifted variables); "
            f"budget allows {cap}",
            dims["main_dim"],
            dims["row_dim"],
            dims["n_free"],
        )

    free_sets = tuple(masks_upto(n, min(2 * level + 2, n)))[1:]
    col_of = {m: i for i, m in enumerate(free_sets)}

    # The main block is the shift by the trivial row 0.x >= -1 over subsets
    # of size <= level+1; the row blocks, over size <= level, follow it.
    rows = [
        ([(i, float(a)) for i, a in r.coeffs.items()], float(r.rhs)) for r in cs.rows
    ]
    parts = [
        _slot_map(blocks, list(masks_upto(n, t)), col_of)
        for blocks, t in (([([], -1.0)], level + 1), (rows, level))
    ]

    objective = np.zeros(len(free_sets))
    for i, c in enumerate(cs.objective):
        if c != 0:
            objective[col_of[1 << i]] = float(c)
    return SdpProblem(
        n_vars=n,
        level=level,
        free_sets=free_sets,
        main_dim=dims["main_dim"],
        row_dim=dims["row_dim"],
        n_row_blocks=len(cs.rows),
        L=sp.vstack([L for L, _ in parts], format="csr"),
        C=np.concatenate([C for _, C in parts]),
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
    """Linear solver for the SPD Gram matrix of the block maps."""
    # G is SPD, so symmetric-mode ordering beats the default by a wide margin
    return splu(G, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).solve


def _project_psd_batch(stack: np.ndarray) -> np.ndarray:
    """Project each `d x d` block of a stack onto the PSD cone; a block that
    is already PSD comes back as its symmetrization, not a reconstruction."""
    if stack.shape[0] == 0:
        return stack
    if stack.shape[1] == 1:
        return np.clip(stack, 0.0, None)
    sym = (stack + stack.transpose(0, 2, 1)) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    bad = vals[:, 0] < 0
    v, w = vecs[bad], np.clip(vals[bad], 0.0, None)
    sym[bad] = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
    return sym


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Run ADMM on the assembled lift and return a float moment vector.

    The iteration is deterministic; `diagnostics` records residuals, the
    objective, a projected dual bound with its infeasibility, and whether the
    tolerances were met within the iteration cap.  A cap below one iteration
    raises `ValueError`.
    """
    cfg = config or SolverConfig()
    if cfg.max_iter < 1:
        raise ValueError("need at least one iteration")
    d1, d0, nblk = problem.main_dim, problem.row_dim, problem.n_row_blocks
    n_free = len(problem.free_sets)
    L, C = problem.L, problem.C
    LT = L.T.tocsr()
    split = d1 * d1

    def project(v: np.ndarray) -> np.ndarray:
        head = _project_psd_batch(v[:split].reshape(1, d1, d1))
        rest = _project_psd_batch(v[split:].reshape(nblk, d0, d0))
        return np.concatenate([head.ravel(), rest.ravel()])

    scale = max(1.0, float(np.max(np.abs(problem.objective))) if n_free else 1.0)
    c = problem.objective / scale

    solve_gram = _factor_gram((LT @ L).tocsc())

    x = np.zeros(n_free)
    z = np.zeros(L.shape[0])
    u = np.zeros_like(z)
    rho = RHO_START

    it = 0
    converged = False
    r_norm = s_norm = float("nan")
    for it in range(1, cfg.max_iter + 1):
        x = solve_gram(LT @ (z - u - C) - c / rho)
        ax = L @ x + C
        h = OVER_RELAX * ax + (1.0 - OVER_RELAX) * z
        z_new = project(h + u)
        u = u + h - z_new

        if it % CHECK_EVERY == 0 or it == cfg.max_iter:
            r_norm = float(np.linalg.norm(ax - z_new))
            s_norm = float(np.linalg.norm(rho * (LT @ (z_new - z))))
            eps_pri = cfg.tol * math.sqrt(len(z)) + cfg.tol * max(
                float(np.linalg.norm(ax)), float(np.linalg.norm(z_new))
            )
            eps_dual = cfg.tol * math.sqrt(max(n_free, 1)) + cfg.tol * float(
                np.linalg.norm(rho * (LT @ u))
            )
            if r_norm <= eps_pri and s_norm <= eps_dual:
                converged = True
                break
            if it % 100 == 0 and it < 0.8 * cfg.max_iter:
                if r_norm > 10.0 * s_norm and rho < 1.0e6:
                    rho *= 2.0
                    u /= 2.0
                elif s_norm > 10.0 * r_norm and rho > 1.0e-6:
                    rho /= 2.0
                    u *= 2.0
        z = z_new

    objective = float(problem.objective @ x)
    Y = project(-rho * u)
    dual_objective = -float(C @ Y) * scale
    dual_infeas = float(np.linalg.norm((LT @ Y) * scale - problem.objective))
    entries = {0: 1.0, **dict(zip(problem.free_sets, x.tolist()))}
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
    me = vector.entries
    objective = float(
        sum(
            float(problem.objective[i]) * float(me[m])
            for i, m in enumerate(problem.free_sets)
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
