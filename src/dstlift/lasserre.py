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
are kept as they are), and scaled-residual stopping.  Its state is the one
point p that goes into the projection: the cone value is z = proj(p) and the
scaled dual is u = p - z.  Type-II Anderson acceleration extrapolates p
from the last 10 steps, at a cost of 2 * 10 * m doubles of history for m cone
slots.  Its memory starts over at every penalty change, and after an
extrapolation that raised the fixed-point residual more than fivefold; that
extrapolation is dropped for the plain step.  Everything is deterministic for
fixed inputs.  The result carries a float moment vector plus diagnostics
including a projected dual bound; the certifier in `moments` is the
authority on feasibility quality.
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


def check_budget(n_vars: int, level: int, budget: int) -> dict[str, int]:
    """`lift_dimensions`, raising `BudgetError` when the main block exceeds
    `budget`: arithmetic only, before anything is enumerated."""
    dims = lift_dimensions(n_vars, level)
    if dims["main_dim"] > budget:
        raise BudgetError(
            f"main moment matrix is {dims['main_dim']}x{dims['main_dim']} "
            f"(row blocks {dims['row_dim']}, {dims['n_free']} lifted variables); "
            f"budget allows {budget}",
            dims["main_dim"],
            dims["row_dim"],
            dims["n_free"],
        )
    return dims


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
    cs: ConstraintSystem, level: int, budget: int = DEFAULT_BUDGET
) -> SdpProblem:
    """Build the level-`level` lift of a constraint system.

    The budget caps the main block dimension; `check_budget` tests it first.
    """
    n = cs.n_vars
    dims = check_budget(n, level, budget)
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
# are checked every CHECK_EVERY iterations and at the last one.  Anderson
# acceleration extrapolates from the last ANDERSON_MEMORY steps; its small
# least-squares solve is damped by ANDERSON_REG times the largest Gram
# diagonal entry, and an extrapolated point whose fixed-point residual is
# over ANDERSON_SAFEGUARD times that of the point before it is rejected.
RHO_START = 2.0
OVER_RELAX = 1.6
CHECK_EVERY = 25
ANDERSON_MEMORY = 10
ANDERSON_REG = 1.0e-10
ANDERSON_SAFEGUARD = 5.0


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 20000
    tol: float = 1.0e-7


@dataclass
class SdpSolution:
    vector: MomentVector
    objective: float
    diagnostics: dict


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


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map `p -> f(p)`.

    Ring buffers hold the last `ANDERSON_MEMORY` differences of the iterates
    (`dp`) and of their residuals `g = f - p` (`dg`), one row per step, and
    the Gram matrix of `dg` gains one row and column per step.  `step`
    returns `f - gamma.dp - gamma.dg`, where gamma is the damped
    least-squares fit of g by the rows of `dg`.  When p was itself an
    extrapolation and its residual is over `ANDERSON_SAFEGUARD` times that of
    the point before it, `step` returns None instead and the memory starts
    over: the caller goes back to the plain step from that point.
    """

    def __init__(self, m: int):
        self.dp = np.zeros((ANDERSON_MEMORY, m))
        self.dg = np.zeros((ANDERSON_MEMORY, m))
        self.gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.reset()

    def reset(self) -> None:
        self.used = self.slot = 0
        self.last: tuple[np.ndarray, np.ndarray, float] | None = None
        self.extrapolated = False

    def step(self, p: np.ndarray, f: np.ndarray) -> np.ndarray | None:
        g = f - p
        g_norm = float(np.linalg.norm(g))
        if self.extrapolated and g_norm > ANDERSON_SAFEGUARD * self.last[2]:
            self.reset()
            return None
        last, self.last = self.last, (p, g, g_norm)
        self.extrapolated = False
        if last is None:
            return f
        j = self.slot
        np.subtract(p, last[0], out=self.dp[j])
        np.subtract(g, last[1], out=self.dg[j])
        self.slot = (j + 1) % ANDERSON_MEMORY
        self.used = k = min(self.used + 1, ANDERSON_MEMORY)
        dp, dg = self.dp[:k], self.dg[:k]
        self.gram[j, :k] = self.gram[:k, j] = dg @ dg[j]
        gram = self.gram[:k, :k]
        damp = ANDERSON_REG * float(np.diagonal(gram).max())
        if damp == 0.0:
            return f
        gamma = np.linalg.solve(gram + damp * np.eye(k), dg @ g)
        self.extrapolated = True
        return f - gamma @ dp - gamma @ dg


def solve(problem: SdpProblem, config: SolverConfig = SolverConfig()) -> SdpSolution:
    """Run ADMM on the assembled lift and return a float moment vector.

    The iteration is deterministic; `diagnostics` records residuals, the
    objective, a projected dual bound with its infeasibility, the number of
    penalty changes, and whether the tolerances were met within the
    iteration cap.  A cap below one iteration, or a tolerance that is not
    positive and finite, raises `ValueError`.
    """
    if config.max_iter < 1:
        raise ValueError("need at least one iteration")
    if not (math.isfinite(config.tol) and config.tol > 0):
        raise ValueError("tol must be positive and finite")
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

    # The Gram matrix of the block maps is SPD, so symmetric-mode ordering
    # beats the default by a wide margin.
    solve_gram = splu(
        (LT @ L).tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
    ).solve

    # The state is the point p that goes into the projection: z = proj(p)
    # and the scaled dual u = p - z are its Moreau parts.
    p = np.zeros(L.shape[0])
    z = np.zeros_like(p)
    accel = _Anderson(len(p))
    rho = RHO_START
    rho_changes = 0

    it = 0
    converged = False
    r_norm = s_norm = float("nan")
    for it in range(1, config.max_iter + 1):
        x = solve_gram(LT @ (2.0 * z - p - C) - c / rho)
        ax = L @ x + C
        f = p + OVER_RELAX * (ax - z)
        p_new = accel.step(p, f)
        if p_new is None:
            # p was a rejected extrapolation: redo the last iteration's plain
            # step instead, residuals included
            x, ax, z, p_new = plain
        else:
            plain = (x, ax, z, f)
        z_new = project(p_new)

        if it % CHECK_EVERY == 0 or it == config.max_iter:
            u = p_new - z_new
            r_norm = float(np.linalg.norm(ax - z_new))
            s_norm = float(np.linalg.norm(rho * (LT @ (z_new - z))))
            eps_pri = config.tol * math.sqrt(len(z)) + config.tol * max(
                float(np.linalg.norm(ax)), float(np.linalg.norm(z_new))
            )
            eps_dual = config.tol * math.sqrt(max(n_free, 1)) + config.tol * float(
                np.linalg.norm(rho * (LT @ u))
            )
            if r_norm <= eps_pri and s_norm <= eps_dual:
                converged = True
                break
            if it % 100 == 0 and it < 0.8 * config.max_iter:
                factor = 1.0
                if r_norm > 10.0 * s_norm and rho < 1.0e6:
                    factor = 2.0
                elif s_norm > 10.0 * r_norm and rho > 1.0e-6:
                    factor = 0.5
                if factor != 1.0:
                    # the new penalty rescales u and changes the map, so the
                    # acceleration memory starts over
                    rho *= factor
                    p_new = z_new + u / factor
                    rho_changes += 1
                    accel.reset()
        p, z = p_new, z_new

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
        "rho_changes": rho_changes,
        "main_dim": d1,
        "row_dim": d0,
        "n_row_blocks": nblk,
        "n_free": n_free,
    }
    return SdpSolution(vector=vector, objective=objective, diagnostics=diagnostics)


def solve_from_file(cs: ConstraintSystem, level: int, text: str) -> SdpSolution:
    """Replay a moment vector from a file instead of running the solver.

    The vector must match the system's variable count and cover the level;
    the objective is recomputed from the vector, over the nonzero costs in
    variable order.  Feasibility is up to the caller's certify pass, as with
    the builtin backend.
    """
    vector = import_moments(text)
    if vector.n_vars != cs.n_vars:
        raise MomentFormatError(
            f"file has {vector.n_vars} variables, problem wants {cs.n_vars}"
        )
    needed = min(2 * level + 2, cs.n_vars)
    if vector.complete_size() < needed:
        raise MomentFormatError(
            f"file vector complete to size {vector.complete_size()}, "
            f"level {level} wants {needed}"
        )
    me = vector.entries
    objective = float(
        sum(float(c) * float(me[1 << i]) for i, c in enumerate(cs.objective) if c != 0)
    )
    diagnostics = {
        "backend": "file",
        "iterations": 0,
        "converged": True,
        "objective": objective,
    }
    return SdpSolution(vector=vector, objective=objective, diagnostics=diagnostics)
