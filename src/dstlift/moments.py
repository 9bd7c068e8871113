"""Moment vectors over variable subsets and the structural toolkit around them.

A moment vector assigns a value to each stored subset of the ground variables
(the empty set carries the normalization).  On top of that this module builds
moment matrices, the shift operator for linear constraints, conditioning on
partial 0/1 assignments, subset Moebius transforms between moments and atomic
masses, the induction-friendly decomposition into smaller-level vectors, and
a certifier that checks positive semidefiniteness plus the order and
propagation laws a lifted relaxation must satisfy.

`shift` and `moment_matrix` are the one evaluator of shifted moment
matrices: the certifier builds the block of row g as
`moment_matrix(shift(g, y), level)`.

Rational entries are handled exactly (including exact PSD via pivoted Schur
elimination); float entries go through numpy with explicit tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .exact import CapExceededError
from .instance import format_cost

Value = Union[Fraction, float]
IndexSet = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class MissingMomentError(LookupError):
    """A required subset entry is absent from the vector."""

    def __init__(self, index_set: IndexSet):
        super().__init__(f"moment entry for {index_set!r} is missing")
        self.index_set = index_set


class DomainError(ValueError):
    """An operation's domain requirement is not met."""


class DecompositionError(ValueError):
    """The vector does not satisfy the decomposition preconditions."""


class MomentFormatError(ValueError):
    """Raised for malformed moment files."""


def iset(items: Iterable[int]) -> IndexSet:
    return tuple(sorted(set(items)))


def union_sets(a: IndexSet, b: IndexSet) -> IndexSet:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(set(a) | set(b)))


def subsets_upto(n_vars: int, size: int) -> list[IndexSet]:
    """All subsets of range(n_vars) with at most `size` elements, by (size, lex)."""
    out: list[IndexSet] = []
    for k in range(min(size, n_vars) + 1):
        out.extend(itertools.combinations(range(n_vars), k))
    return out


def mask_of(index_set: IndexSet) -> int:
    m = 0
    for i in index_set:
        m |= 1 << i
    return m


def set_of(mask: int, n_vars: int) -> IndexSet:
    return tuple(i for i in range(n_vars) if mask >> i & 1)


@dataclass
class MomentVector:
    """Subset-indexed values with a nominal level.

    `entries` is authoritative: querying an absent subset raises instead of
    defaulting to zero, so silent domain mismatches cannot happen.  A vector
    of level t is normally defined on all subsets of size <= 2t+2 but
    restricted domains (from conditioning) are allowed.
    """

    n_vars: int
    level: int
    entries: dict[IndexSet, Value]
    exact: bool
    _mask_entries: dict[int, Value] | None = field(default=None, repr=False)
    _down_closed: bool | None = field(default=None, repr=False)
    _complete_size: int | None = field(default=None, repr=False)

    def value(self, index_set: Iterable[int]) -> Value:
        key = iset(index_set)
        try:
            return self.entries[key]
        except KeyError:
            raise MissingMomentError(key) from None

    def has(self, index_set: Iterable[int]) -> bool:
        return iset(index_set) in self.entries

    def mask_entries(self) -> dict[int, Value]:
        if self._mask_entries is None:
            self._mask_entries = {mask_of(k): v for k, v in self.entries.items()}
        return self._mask_entries

    def down_closed(self) -> bool:
        if self._down_closed is None:
            keys = self.entries
            ok = True
            for key in keys:
                for pos in range(len(key)):
                    if key[:pos] + key[pos + 1 :] not in keys:
                        ok = False
                        break
                if not ok:
                    break
            self._down_closed = ok
        return self._down_closed

    def complete_size(self) -> int:
        """Largest d such that every subset of size <= d is stored (-1 if none)."""
        if self._complete_size is None:
            counts: dict[int, int] = {}
            for key in self.entries:
                counts[len(key)] = counts.get(len(key), 0) + 1
            d = -1
            while counts.get(d + 1, 0) == math.comb(self.n_vars, d + 1) and d + 1 <= self.n_vars:
                d += 1
            self._complete_size = d
        return self._complete_size


@dataclass(frozen=True)
class MomentMatrix:
    sets: tuple[IndexSet, ...]
    grid: tuple[tuple[Value, ...], ...]


def moment_matrix(y: MomentVector, size: int) -> MomentMatrix:
    """The matrix indexed by subsets up to `size` with entries y(row | col)."""
    sets = subsets_upto(y.n_vars, size)
    masks = [mask_of(s) for s in sets]
    me = y.mask_entries()
    grid = []
    for i, mi in enumerate(masks):
        line = []
        for mj in masks:
            key = mi | mj
            try:
                line.append(me[key])
            except KeyError:
                raise MissingMomentError(set_of(key, y.n_vars)) from None
        grid.append(tuple(line))
    return MomentMatrix(tuple(sets), tuple(grid))


def shift(coeffs: Mapping[int, Value], rhs: Value, y: MomentVector) -> MomentVector:
    """Apply a constraint row `sum_i a_i x_i >= rhs` to the vector.

    Output entry at I is `sum_i a_i y(I + {i}) - rhs * y(I)`; the domain
    shrinks to the sets where every required entry exists.  Variables with a
    zero coefficient do not constrain the domain.
    """
    support = []
    for i, a in sorted(coeffs.items()):
        if i < 0 or i >= y.n_vars:
            raise ValueError(f"coefficient index {i} outside range({y.n_vars})")
        if a != 0:
            support.append((i, a))
    me = y.mask_entries()
    exact = y.exact and not isinstance(rhs, float) and all(
        not isinstance(a, float) for _, a in support
    )
    # Only the row is converted: a Fraction coefficient keeps int entries of
    # an exact vector exact, and a float one turns every product into the
    # float that converting the entry first would give.
    conv = Fraction if exact else float
    neg_rhs = -conv(rhs)
    support = [(1 << i, conv(a)) for i, a in support]
    out: dict[IndexSet, Value] = {}
    for key, (mask, base) in zip(y.entries, me.items()):
        total = neg_rhs * base
        ok = True
        for bit, a in support:
            hit = me.get(mask | bit)
            if hit is None:
                ok = False
                break
            total += a * hit
        if ok:
            out[key] = total
    return MomentVector(y.n_vars, y.level, out, exact=exact)


def _domain_minus(y: MomentVector, s_mask: int) -> list[IndexSet]:
    """Sets I whose every union with a subset of S stays in the domain."""
    me = y.mask_entries()
    if y.down_closed():
        return [k for k in y.entries if mask_of(k) | s_mask in me]
    bits = [i for i in range(y.n_vars) if s_mask >> i & 1]
    out = []
    for k in y.entries:
        mask = mask_of(k)
        extra = [b for b in bits if not mask >> b & 1]
        good = True
        for r in range(len(extra) + 1):
            for combo in itertools.combinations(extra, r):
                m2 = mask
                for b in combo:
                    m2 |= 1 << b
                if m2 not in me:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(k)
    return out


def _signed_subsets(items: Sequence[int]) -> list[tuple[int, int]]:
    """(mask, (-1)^|H|) for every subset H of `items`: inclusion-exclusion terms."""
    return [
        (mask_of(combo), -1 if r % 2 else 1)
        for r in range(len(items) + 1)
        for combo in itertools.combinations(items, r)
    ]


def condition(
    y: MomentVector, ones: Iterable[int], scope: Iterable[int]
) -> MomentVector:
    """Unnormalized conditioning on `ones` = 1 and `scope - ones` = 0.

    Entry at I becomes the inclusion-exclusion sum
    `sum over H within scope-ones of (-1)^|H| y(I + ones + H)`, restricted to
    the sets whose scope unions all stay in the stored domain.
    """
    x_set = iset(ones)
    s_set = iset(scope)
    if not set(x_set) <= set(s_set):
        raise ValueError("ones must be contained in scope")
    dom = _domain_minus(y, mask_of(s_set))
    if not dom:
        raise DomainError("conditioning domain is empty")
    me = y.mask_entries()
    x_mask = mask_of(x_set)
    terms = _signed_subsets([i for i in s_set if i not in x_set])
    zero = ZERO if y.exact else 0.0
    out: dict[IndexSet, Value] = {}
    for key in dom:
        base = mask_of(key) | x_mask
        total = zero
        for t_mask, sign in terms:
            v = me[base | t_mask]
            total = total + v if sign > 0 else total - v
        out[key] = total
    return MomentVector(
        y.n_vars, max(y.level - len(s_set), 0), out, exact=y.exact
    )


# Moebius inversion walks all 2^n subsets; refuse more than MAX_ATOM_VARS.
MAX_ATOM_VARS = 20


def mobius_atoms(y: MomentVector) -> dict[tuple[int, ...], Value]:
    """Invert moments to atomic masses on 0/1 points (full-domain vectors only).

    Returns the signed mass of every point; the masses sum to the empty-set
    moment, and for hierarchy-feasible full-level vectors they are the unique
    nonnegative representing distribution.
    """
    n = y.n_vars
    if n > MAX_ATOM_VARS:
        raise CapExceededError(f"{n} variables exceeds inversion cap {MAX_ATOM_VARS}")
    if y.complete_size() < n:
        raise DomainError("inversion needs every subset of the ground set")
    me = y.mask_entries()
    arr = [me[mask] for mask in range(1 << n)]
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit:
                arr[mask] -= arr[mask | bit]
    return {
        tuple(mask >> i & 1 for i in range(n)): arr[mask] for mask in range(1 << n)
    }


def from_atoms(
    atoms: Mapping[tuple[int, ...], Value], level: int
) -> MomentVector:
    """Moments of a weighted combination of 0/1 points, stored to size 2*level+2.

    Absent points carry zero mass; this is the inverse of `mobius_atoms` when
    the level covers the whole ground set.
    """
    points = list(atoms.items())
    if not points:
        raise ValueError("need at least one point")
    n = len(points[0][0])
    cap = min(2 * level + 2, n)
    any_float = any(isinstance(m, float) for _, m in points)
    zero = 0.0 if any_float else ZERO
    entries: dict[IndexSet, Value] = {key: zero for key in subsets_upto(n, cap)}
    for point, mass in points:
        if len(point) != n or any(b not in (0, 1) for b in point):
            raise ValueError(f"bad 0/1 point {point!r}")
        if mass == 0:
            continue
        support = tuple(i for i, b in enumerate(point) if b)
        add = float(mass) if any_float else Fraction(mass)
        for k in range(min(len(support), cap) + 1):
            for key in itertools.combinations(support, k):
                entries[key] += add
    return MomentVector(n, level, entries, exact=not any_float)


def from_distribution(
    weighted_points: Iterable[tuple[Value, Sequence[int]]], level: int
) -> MomentVector:
    """Moment vector of a probability distribution over 0/1 points.

    Validates nonnegative masses summing to one (exactly for rational input,
    to 1e-9 for floats) and merges duplicate points.
    """
    merged: dict[tuple[int, ...], Value] = {}
    any_float = False
    for mass, point in weighted_points:
        key = tuple(int(b) for b in point)
        if any(b not in (0, 1) for b in key):
            raise ValueError(f"bad 0/1 point {point!r}")
        if isinstance(mass, float):
            any_float = True
        if mass < 0:
            raise ValueError(f"negative mass {mass}")
        merged[key] = merged.get(key, 0) + mass
    if not merged:
        raise ValueError("empty distribution")
    total = sum(merged.values())
    if any_float:
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {total}, expected 1")
    elif total != 1:
        raise ValueError(f"masses sum to {total}, expected 1")
    return from_atoms(merged, level)


def inversion_check(
    y: MomentVector, scope: Iterable[int], tol: float = 0.0
) -> tuple[bool, Value]:
    """Do the conditioned vectors over all splits of `scope` sum back to y?

    Returns (ok, max deviation) over the common restricted domain.
    """
    s_set = iset(scope)
    parts = [
        condition(y, ones, s_set)
        for k in range(len(s_set) + 1)
        for ones in itertools.combinations(s_set, k)
    ]
    dev: Value = ZERO if y.exact else 0.0
    for key in parts[0].entries:
        total = sum(p.entries[key] for p in parts)
        delta = abs(total - y.entries[key])
        if delta > dev:
            dev = delta
    ok = dev == 0 if y.exact else dev <= tol
    return ok, dev


def shift_commutes_check(
    y: MomentVector,
    ones: Iterable[int],
    scope: Iterable[int],
    coeffs: Mapping[int, Value],
    rhs: Value,
    tol: float = 0.0,
) -> tuple[bool, Value]:
    """Conditioning then shifting equals shifting then conditioning.

    Compared entrywise on the intersection of the two result domains, which
    must be nonempty.
    """
    left = shift(coeffs, rhs, condition(y, ones, scope))
    right = condition(shift(coeffs, rhs, y), ones, scope)
    common = left.entries.keys() & right.entries.keys()
    if not common:
        raise DomainError("no common domain to compare on")
    dev: Value = ZERO if (left.exact and right.exact) else 0.0
    for key in common:
        delta = abs(left.entries[key] - right.entries[key])
        if delta > dev:
            dev = delta
    ok = dev == 0 if (left.exact and right.exact) else dev <= tol
    return ok, dev


@dataclass(frozen=True)
class DecompositionPart:
    weight: Value
    assignment: IndexSet
    vector: MomentVector


@dataclass(frozen=True)
class Decomposition:
    scope: IndexSet
    drop: int
    parts: tuple[DecompositionPart, ...]


def decompose(
    y: MomentVector, scope: Iterable[int], drop: int, tol: float = 0.0
) -> Decomposition:
    """Split y into a convex combination integral on `scope`, losing `drop` levels.

    Requires every stored entry whose overlap with the scope exceeds `drop`
    to vanish; then each conditioned-and-normalized vector in the combination
    assigns 0/1 to the scope variables and is a valid point two levels of
    overlap lower.  Entries outside the stored domain are treated as zero,
    matching the vanishing-overlap structure.
    """
    s_set = iset(scope)
    t = y.level
    if drop < 0 or drop > t:
        raise ValueError(f"drop {drop} outside 0..{t}")
    if y.complete_size() < min(2 * t + 2, y.n_vars):
        raise DomainError("vector is not complete to its declared level")
    s_mask = mask_of(s_set)
    offenders = [
        k
        for k, v in y.entries.items()
        if bin(mask_of(k) & s_mask).count("1") > drop
        and (v != 0 if y.exact else abs(v) > tol)
    ]
    if offenders:
        offenders.sort(key=lambda k: (len(k), k))
        raise DecompositionError(
            f"entries overlap scope in more than {drop} places: {offenders[:5]}"
        )

    me = y.mask_entries()
    zero = ZERO if y.exact else 0.0

    def ext(mask: int) -> Value:
        return me.get(mask, zero)

    out_level = t - drop
    base_dom = subsets_upto(y.n_vars, min(2 * out_level + 2, y.n_vars))
    extra_dom = _domain_minus(y, s_mask)
    dom_keys = dict.fromkeys(base_dom)
    for key in extra_dom:
        dom_keys.setdefault(key)
    parts = []
    for k in range(len(s_set) + 1):
        for ones in itertools.combinations(s_set, k):
            x_mask = mask_of(ones)
            terms = _signed_subsets([i for i in s_set if i not in ones])

            def masked_sum(base: int) -> Value:
                total = zero
                for t_mask, sign in terms:
                    v = ext(base | t_mask)
                    total = total + v if sign > 0 else total - v
                return total

            weight = masked_sum(x_mask)
            small = weight == 0 if y.exact else abs(weight) <= tol
            if small:
                continue
            if weight < 0:
                raise DecompositionError(
                    f"negative weight {weight} at assignment {ones!r}"
                )
            entries = {
                key: masked_sum(mask_of(key) | x_mask) / weight for key in dom_keys
            }
            parts.append(
                DecompositionPart(
                    weight=weight,
                    assignment=ones,
                    vector=MomentVector(y.n_vars, out_level, entries, exact=y.exact),
                )
            )
    return Decomposition(scope=s_set, drop=drop, parts=tuple(parts))


def reconstruction_deviation(dec: Decomposition, y: MomentVector) -> Value:
    """Max deviation of the weighted part sum from y on comparable entries."""
    dev: Value = ZERO if y.exact else 0.0
    if not dec.parts:
        raise DomainError("decomposition has no parts")
    common = set(y.entries)
    for part in dec.parts:
        common &= part.vector.entries.keys()
    if not common:
        raise DomainError("no common domain for reconstruction")
    for key in common:
        total = sum(p.weight * p.vector.entries[key] for p in dec.parts)
        delta = abs(total - y.entries[key])
        if delta > dev:
            dev = delta
    return dev


def _psd_violation_exact(grid: Sequence[Sequence[Fraction]]) -> tuple[str, Fraction] | None:
    """Schur-complement elimination: None when PSD, else (reason, witness value).

    A symmetric rational matrix is PSD iff elimination only meets nonnegative
    pivots and each zero pivot has an all-zero active row.  Cost is quadratic
    per positive pivot, so low-rank matrices are cheap regardless of size.
    """
    d = len(grid)
    work = [list(row) for row in grid]
    active = list(range(d))
    while active:
        p = active[0]
        pivot = work[p][p]
        if pivot < 0:
            return ("negative diagonal", pivot)
        if pivot == 0:
            row = work[p]
            for q in active:
                if row[q] != 0:
                    # 2x2 principal minor [[0, a], [a, d]] has determinant -a^2
                    return ("zero diagonal with nonzero row", row[q])
            active.pop(0)
            continue
        active.pop(0)
        prow = work[p]
        for i in active:
            f = work[i][p]
            if f:
                ratio = f / pivot
                wrow = work[i]
                for j in active:
                    if prow[j]:
                        wrow[j] -= ratio * prow[j]
    return None


def _psd_violation_float(
    grid: Sequence[Sequence[float]], tol: float
) -> tuple[str, float] | None:
    mat = np.array(grid, dtype=float)
    if mat.size == 0:
        return None
    scale = max(1.0, float(np.max(np.abs(mat))))
    eigs = np.linalg.eigvalsh((mat + mat.T) / 2.0)
    low = float(eigs[0])
    if low < -tol * scale:
        return ("negative eigenvalue", low)
    return None


# One-propagation is spot-checked: the first SPOT_ONES sets whose moment is
# one, each against the first SPOT_OTHER sets of the main matrix.
SPOT_ONES = 50
SPOT_OTHER = 200


@dataclass(frozen=True)
class CertifyIssue:
    kind: str
    where: str
    amount: Value


@dataclass(frozen=True)
class CertifyReport:
    ok: bool
    level: int
    issues: tuple[CertifyIssue, ...]
    checks: dict[str, int]


def certify(
    y: MomentVector,
    level: int,
    rows: Iterable = (),
    tol: float = 0.0,
) -> CertifyReport:
    """Check hierarchy membership at `level` plus structural consequences.

    Verifies normalization, positive semidefiniteness of the main moment
    matrix (one size above the level) and of every row-shifted matrix (at the
    level), set-monotonicity with [0,1] bounds, propagation of exact ones,
    and the product form when every singleton is integral.  Exact vectors use
    tolerance zero regardless of `tol`.
    """
    n = y.n_vars
    if y.complete_size() < min(2 * level + 2, n):
        raise DomainError("vector is not complete to the requested level")
    exact = y.exact
    eps: Value = ZERO if exact else tol
    issues: list[CertifyIssue] = []
    checks: dict[str, int] = {}

    norm_gap = abs(y.value(()) - 1)
    checks["normalization"] = 1
    if norm_gap > eps:
        issues.append(CertifyIssue("normalization", "empty set", norm_gap))

    def check_psd(grid, where: str) -> None:
        if exact:
            bad = _psd_violation_exact(grid)
        else:
            bad = _psd_violation_float(grid, tol)
        if bad is not None:
            issues.append(CertifyIssue("psd", f"{where}: {bad[0]}", bad[1]))

    check_psd(moment_matrix(y, min(level + 1, n)).grid, "main matrix")
    checks["psd_main"] = 1
    # A row block reads the shift on sets of size <= 2t, which needs y only up
    # to size 2t+1: shift a copy cut there instead of every stored entry.
    t = min(level, n)
    cut = MomentVector(
        n,
        y.level,
        {k: v for k, v in y.entries.items() if len(k) <= 2 * t + 1},
        exact=exact,
    )
    n_rows = 0
    for row in rows:
        n_rows += 1
        shifted = moment_matrix(shift(row.coeffs, row.rhs, cut), t)
        check_psd(shifted.grid, f"shifted matrix {row.label}")
    checks["psd_shifted"] = n_rows

    mono = 0
    for key, v in y.entries.items():
        if v < -eps:
            issues.append(CertifyIssue("bounds", f"{key!r} below zero", -v))
        if v > 1 + eps:
            issues.append(CertifyIssue("bounds", f"{key!r} above one", v - 1))
        for pos in range(len(key)):
            parent = key[:pos] + key[pos + 1 :]
            pv = y.entries.get(parent)
            if pv is None:
                continue
            mono += 1
            if v > pv + eps:
                issues.append(
                    CertifyIssue(
                        "monotonicity", f"{key!r} exceeds {parent!r}", v - pv
                    )
                )
    checks["monotonicity"] = mono

    cap_pairs = min(level + 1, n)
    one_sets = [
        k
        for k in subsets_upto(n, cap_pairs)
        if k and abs(y.entries[k] - 1) <= eps
    ][:SPOT_ONES]
    others = subsets_upto(n, cap_pairs)[:SPOT_OTHER]
    me = y.mask_entries()
    ones_checked = 0
    for full in one_sets:
        for other in others:
            joined = union_sets(full, other)
            jv = me.get(mask_of(joined))
            if jv is None:
                continue
            ones_checked += 1
            gap = abs(jv - y.entries[other])
            if gap > eps:
                issues.append(
                    CertifyIssue(
                        "one-propagation",
                        f"{full!r} at one but {joined!r} != {other!r}",
                        gap,
                    )
                )
    checks["one_propagation"] = ones_checked

    singles = [y.entries.get((i,)) for i in range(n)]
    if all(v is not None for v in singles) and all(
        min(abs(v), abs(v - 1)) <= eps for v in singles
    ):
        prod_checked = 0
        for key, v in y.entries.items():
            if not key:
                continue
            prod = ONE if exact else 1.0
            for i in key:
                prod *= singles[i]
            prod_checked += 1
            gap = abs(v - prod)
            if gap > eps:
                issues.append(
                    CertifyIssue("integral-product", f"{key!r}", gap)
                )
        checks["integral_product"] = prod_checked
    else:
        checks["integral_product"] = 0

    return CertifyReport(
        ok=not issues, level=level, issues=tuple(issues), checks=checks
    )


def export_moments(y: MomentVector) -> str:
    """Serialize a complete moment vector: header then `ordinals : value` lines."""
    lines = [f"moments {y.n_vars} {y.level}"]
    for key in sorted(y.entries, key=lambda k: (len(k), k)):
        left = " ".join(str(i) for i in key)
        value = y.entries[key]
        if isinstance(value, Fraction):
            right = format_cost(value) if value >= 0 else "-" + format_cost(-value)
        else:
            right = repr(float(value))
        lines.append(f"{left} : {right}".strip())
    return "\n".join(lines) + "\n"


def import_moments(text: str) -> MomentVector:
    """Parse a moment file; the vector must be complete to the declared level.

    Values are read exactly when every token is an integer or ratio, as
    floats when any token uses decimal or exponent notation.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("moments "):
        raise MomentFormatError("missing 'moments <n_vars> <level>' header")
    try:
        _, n_s, t_s = lines[0].split()
        n, level = int(n_s), int(t_s)
    except ValueError as exc:
        raise MomentFormatError("bad header") from exc
    raw: dict[IndexSet, str] = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise MomentFormatError(f"missing ':' in {ln!r}")
        left, right = ln.split(":", 1)
        try:
            key = tuple(int(tok) for tok in left.split())
        except ValueError as exc:
            raise MomentFormatError(f"bad ordinals in {ln!r}") from exc
        if list(key) != sorted(set(key)):
            raise MomentFormatError(f"ordinals not sorted/unique in {ln!r}")
        if key and (key[0] < 0 or key[-1] >= n):
            raise MomentFormatError(f"ordinal outside range({n}) in {ln!r}")
        if key in raw:
            raise MomentFormatError(f"duplicate entry for {key!r}")
        raw[key] = right.strip()
    floaty = any(
        "." in tok or "e" in tok.lower() for tok in raw.values()
    )
    entries: dict[IndexSet, Value] = {}
    for key, tok in raw.items():
        try:
            entries[key] = float(tok) if floaty else (
                -Fraction(tok[1:]) if tok.startswith("-") else Fraction(tok)
            )
        except (ValueError, ZeroDivisionError) as exc:
            raise MomentFormatError(f"bad value {tok!r}") from exc
    y = MomentVector(n, level, entries, exact=not floaty)
    if y.complete_size() < min(2 * level + 2, n):
        raise MomentFormatError(
            f"vector is not complete for level {level} over {n} variables"
        )
    return y
