"""Flow relaxation of layered Steiner instances and an exact LP solver.

The relaxation has one capacity variable per edge and one flow variable per
(terminal, edge) pair.  Per terminal, a unit of flow is conserved from the
root to that terminal; flows are capped by the edge variable; every node has
total fractional indegree at most one; all variables live in [0, 1].

Constraint systems are rows `a . x >= b` over Fraction coefficients, each
row holding only its nonzero coefficients.  Dense vectors appear only in the
`.lp` dump, which writes every coefficient, and in the simplex tableau.
`solve_lp` is a two-phase tableau simplex with Bland's rule, running entirely
in rational arithmetic, so optima are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .instance import DstInstance, EdgeId, LayeredInstance, format_cost, parse_cost


class LpFormatError(ValueError):
    """Raised for malformed constraint-system dumps."""


@dataclass(frozen=True)
class VarIndex:
    """Descriptor of one LP column: an edge variable or a flow variable."""

    kind: str  # "edge" or "flow"
    edge: EdgeId
    terminal: str | None

    @property
    def tag(self) -> str:
        """`e[t->h]` for an edge variable, `f[s][t->h]` for a flow variable."""
        arc = f"[{self.edge[0]}->{self.edge[1]}]"
        return f"e{arc}" if self.kind == "edge" else f"f[{self.terminal}]{arc}"


class VariableMap:
    """Canonical column order for a layered instance.

    Edge variables come first, in the instance's sorted edge order; then flow
    variables grouped by terminal (sorted), each group in edge order.  Moment
    files and lifted solutions index variables by this order, so it is part
    of the on-disk contract.
    """

    def __init__(self, graph: DstInstance):
        self.graph = graph
        self.edge_list: tuple[EdgeId, ...] = tuple(e for e, _ in graph.edges)
        self._edge_pos = {e: i for i, e in enumerate(self.edge_list)}
        self.columns: list[VarIndex] = [
            VarIndex("edge", e, None) for e in self.edge_list
        ]
        for s in graph.terminals:
            for e in self.edge_list:
                self.columns.append(VarIndex("flow", e, s))
        self._flow_pos = {
            (vi.terminal, vi.edge): i
            for i, vi in enumerate(self.columns)
            if vi.kind == "flow"
        }

    @property
    def n_vars(self) -> int:
        return len(self.columns)

    @property
    def n_edges(self) -> int:
        return len(self.edge_list)

    def edge_ordinal(self, edge: EdgeId) -> int:
        try:
            return self._edge_pos[edge]
        except KeyError:
            raise KeyError(f"unknown edge {edge!r}") from None

    def flow_ordinal(self, terminal: str, edge: EdgeId) -> int:
        try:
            return self._flow_pos[(terminal, edge)]
        except KeyError:
            raise KeyError(f"unknown flow variable {terminal!r}/{edge!r}") from None

    def by_ordinal(self, i: int) -> VarIndex:
        return self.columns[i]


@dataclass(frozen=True)
class Row:
    """One inequality `coeffs . x >= rhs`.

    `coeffs` maps variable ordinals to coefficients; construction drops the
    zeros and sorts by ordinal, so every row holds only nonzero coefficients
    in ascending index order.
    """

    coeffs: dict[int, Fraction]
    rhs: Fraction
    label: str

    def __post_init__(self):
        nonzero = {i: a for i, a in sorted(self.coeffs.items()) if a != 0}
        object.__setattr__(self, "coeffs", nonzero)

    def support(self) -> list[tuple[int, Fraction]]:
        return list(self.coeffs.items())


@dataclass(frozen=True)
class ConstraintSystem:
    """`min objective . x` over rows `a . x >= b` with x implicitly >= 0.

    Nonnegativity is part of the solver contract rather than stored rows, but
    builders still emit explicit [0, 1] box rows so the row set alone
    describes the polytope (the lift consumes rows, not the solver contract).
    """

    n_vars: int
    rows: tuple[Row, ...]
    objective: tuple[Fraction, ...]


def build_flow_lp(layered: LayeredInstance) -> tuple[ConstraintSystem, VariableMap]:
    """Assemble the flow relaxation for a layered instance.

    Row order: lower bounds, upper bounds, per-terminal flow conservation
    (each equality split into >= and <=), capacities, node indegree caps.
    """
    graph = layered.graph
    vmap = VariableMap(graph)
    n = vmap.n_vars
    zero = Fraction(0)
    one = Fraction(1)

    rows = [Row({i: one}, zero, f"lb.{vi.tag}") for i, vi in enumerate(vmap.columns)]
    rows += [Row({i: -one}, -one, f"ub.{vi.tag}") for i, vi in enumerate(vmap.columns)]

    for s in graph.terminals:
        for v in graph.nodes:
            entries: dict[int, Fraction] = {}
            for e in graph.out_edges[v]:
                entries[vmap.flow_ordinal(s, e)] = one
            for e in graph.in_edges[v]:
                entries[vmap.flow_ordinal(s, e)] = -one
            if not entries:
                continue
            rhs = one if v == graph.root else (-one if v == s else zero)
            rows.append(Row(entries, rhs, f"consv.ge[{s}][{v}]"))
            rows.append(
                Row({i: -a for i, a in entries.items()}, -rhs, f"consv.le[{s}][{v}]")
            )

    for s in graph.terminals:
        for e in vmap.edge_list:
            rows.append(
                Row(
                    {vmap.edge_ordinal(e): one, vmap.flow_ordinal(s, e): -one},
                    zero,
                    f"cap[{s}][{e[0]}->{e[1]}]",
                )
            )

    for v in graph.nodes:
        if not graph.in_edges[v]:
            continue
        entries = {vmap.edge_ordinal(e): -one for e in graph.in_edges[v]}
        rows.append(Row(entries, -one, f"deg[{v}]"))

    objective = [zero] * n
    for e in vmap.edge_list:
        objective[vmap.edge_ordinal(e)] = graph.cost(e)
    return (
        ConstraintSystem(n_vars=n, rows=tuple(rows), objective=tuple(objective)),
        vmap,
    )


@dataclass(frozen=True)
class Violation:
    label: str
    amount: Fraction


def check_point(
    cs: ConstraintSystem, x: Sequence, tol=Fraction(0)
) -> list[Violation]:
    """Rows violated by `x` beyond `tol`, with the shortfall b - a.x."""
    if len(x) != cs.n_vars:
        raise ValueError(f"point has {len(x)} coordinates, system wants {cs.n_vars}")
    bad = []
    for r in cs.rows:
        lhs = sum(a * x[i] for i, a in r.coeffs.items())
        if lhs < r.rhs - tol:
            bad.append(Violation(r.label, r.rhs - lhs))
    return bad


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...] | None
    objective: Fraction | None


def solve_lp(cs: ConstraintSystem) -> LpSolution:
    """Exact two-phase simplex over the rows with x >= 0.

    Bland's rule everywhere, so the method terminates without cycling.
    Trivially redundant rows (nonnegative single-variable bounds with
    nonpositive rhs) are dropped before the tableau is built.
    """
    status, values = _simplex(cs)
    if status != "optimal":
        return LpSolution(status, None, None)
    obj = sum((c * v for c, v in zip(cs.objective, values)), Fraction(0))
    return LpSolution("optimal", tuple(values), obj)


def _simplex(cs: ConstraintSystem):
    n = cs.n_vars
    zero = Fraction(0)
    one = Fraction(1)

    work: list[tuple[dict[int, Fraction], Fraction]] = []
    for r in cs.rows:
        if not r.coeffs:
            if r.rhs > 0:
                return "infeasible", None
            continue
        if len(r.coeffs) == 1 and next(iter(r.coeffs.values())) > 0 and r.rhs <= 0:
            continue  # implied by x >= 0
        work.append((r.coeffs, r.rhs))

    m = len(work)
    art_rows = [i for i, (_, b) in enumerate(work) if b > 0]
    n_art = len(art_rows)
    width = n + m + n_art + 1
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = {}
    for k, i in enumerate(art_rows):
        art_col[i] = n + m + k
    for i, (coeffs, b) in enumerate(work):
        line = [zero] * width
        if b > 0:
            for j, a in coeffs.items():
                line[j] = a
            line[n + i] = -one
            line[art_col[i]] = one
            line[-1] = b
            basis.append(art_col[i])
        else:
            for j, a in coeffs.items():
                line[j] = -a
            line[n + i] = one
            line[-1] = -b
            basis.append(n + i)
        tab.append(line)

    def reduced_costs(cost):
        z = list(cost) + [zero] * (width - len(cost))
        for i, b in enumerate(basis):
            cb = cost[b] if b < len(cost) else zero
            if cb != 0:
                line = tab[i]
                for j in range(width):
                    if line[j]:
                        z[j] -= cb * line[j]
        return z

    def pivot(r, j):
        line = tab[r]
        piv = line[j]
        if piv != 1:
            inv = one / piv
            tab[r] = line = [v * inv for v in line]
        for i in range(m):
            if i == r:
                continue
            f = tab[i][j]
            if f:
                other = tab[i]
                tab[i] = [other[k] - f * line[k] for k in range(width)]
        basis[r] = j

    def optimize(z, allowed):
        while True:
            enter = -1
            for j in range(allowed):
                if z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[i] < basis[leave])
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            rline = tab[leave]
            piv = rline[enter]
            f = z[enter]
            if f:
                inv = f / piv
                for k in range(width):
                    if rline[k]:
                        z[k] -= inv * rline[k]
            pivot(leave, enter)

    if n_art:
        cost1 = [zero] * (n + m) + [one] * n_art
        z = reduced_costs(cost1)
        res = optimize(z, n + m)
        assert res == "optimal"  # phase 1 is bounded below by zero
        phase1 = sum(
            (tab[i][-1] for i in range(m) if basis[i] >= n + m), zero
        )
        if phase1 != 0:
            return "infeasible", None
        drop = []
        for i in range(m):
            if basis[i] >= n + m:
                for j in range(n + m):
                    if tab[i][j] != 0:
                        pivot(i, j)
                        break
                else:
                    drop.append(i)
        for i in reversed(drop):
            del tab[i], basis[i]
        m = len(tab)

    cost2 = list(cs.objective) + [zero] * (width - n)
    z = reduced_costs(cost2)
    res = optimize(z, n + m)
    if res != "optimal":
        return res, None
    x = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    return "optimal", x


def format_lp_dump(cs: ConstraintSystem) -> str:
    """Serialize a constraint system, one row per line, rational tokens.

    Rows are written dense, every coefficient including the zeros.
    """
    zero = Fraction(0)
    lines = [f"lpdump {cs.n_vars} {len(cs.rows)}"]
    lines.append("min " + " ".join(format_cost(c) for c in cs.objective))
    for r in cs.rows:
        dense = (r.coeffs.get(j, zero) for j in range(cs.n_vars))
        lines.append(
            "ge " + " ".join(_signed(c) for c in dense) + f" {_signed(r.rhs)} {r.label}"
        )
    return "\n".join(lines) + "\n"


def _signed(value: Fraction) -> str:
    if value < 0:
        return "-" + format_cost(-value)
    return format_cost(value)


def _parse_signed(token: str) -> Fraction:
    neg = token.startswith("-")
    mag = parse_cost(token[1:] if neg else token)
    return -mag if neg else mag


def parse_lp_dump(text: str) -> ConstraintSystem:
    lines = [
        ln.split("#", 1)[0].strip()
        for ln in text.splitlines()
    ]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("lpdump "):
        raise LpFormatError("missing 'lpdump <n_vars> <n_rows>' header")
    try:
        _, n_s, m_s = lines[0].split()
        n, m = int(n_s), int(m_s)
    except ValueError as exc:
        raise LpFormatError("bad header") from exc
    if len(lines) != m + 2:
        raise LpFormatError(f"expected {m + 2} lines, found {len(lines)}")
    obj_parts = lines[1].split()
    if obj_parts[0] != "min" or len(obj_parts) != n + 1:
        raise LpFormatError("objective wants 'min' and one token per variable")
    objective = tuple(_parse_signed(t) for t in obj_parts[1:])
    rows = []
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] != "ge" or len(parts) != n + 3:
            raise LpFormatError(f"row wants 'ge', {n} coefficients, rhs, label: {ln!r}")
        coeffs = {j: _parse_signed(t) for j, t in enumerate(parts[1 : n + 1])}
        rhs = _parse_signed(parts[n + 1])
        rows.append(Row(coeffs, rhs, parts[n + 2]))
    return ConstraintSystem(n_vars=n, rows=tuple(rows), objective=objective)
