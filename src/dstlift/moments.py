"""Moment vectors over variable subsets and the structural toolkit around them.

A moment vector assigns a value to each stored subset of the ground variables
(the empty set carries the normalization).  Entries are keyed by bitmask, bit
i standing for variable ordinal i; tuples of sorted ordinals appear only at
`value`/`has`, in moment files and in issue text.  On top of that this
module builds moment matrices, the shift operator for linear constraints,
conditioning on partial 0/1 assignments, subset Moebius transforms between
moments and atomic masses, the induction-friendly decomposition into
smaller-level vectors, and a certifier that checks positive semidefiniteness
plus the order and propagation laws a lifted relaxation must satisfy.

`shift` and `moment_matrix` are the one evaluator of shifted moment
matrices: the certifier builds the block of row g as
`moment_matrix(shift(g, y), level)`.

Rational entries are handled exactly: the certifier scales each exact block
to ints, tests it by fraction-free elimination and gives its witness back as
a `Fraction`.  Float entries go through numpy with explicit tolerances.
Every scalar judgment goes through `exceeds`, the one place where a value's
type decides whether a tolerance applies.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .exact import CapExceededError
from .instance import format_cost, parse_rational

Value = Union[Fraction, float]
IndexSet = tuple[int, ...]

ZERO = Fraction(0)


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


def exceeds(value: Value, bound: Value, tol: float) -> bool:
    """Is `value` above `bound`, with slack `tol` for floats only?

    Rationals (`Fraction` or `int`) compare exactly, whatever `tol` is.  With
    a float on either side the test is `not value <= bound + tol` in floats,
    so a NaN on either side exceeds.
    """
    if isinstance(value, float) or isinstance(bound, float):
        return not float(value) <= float(bound) + tol
    return value > bound


def masks_upto(n_vars: int, size: int) -> Iterator[int]:
    """Masks of the subsets of range(n_vars) with at most `size` elements.

    Ordered by size, then lexicographically by ordinals: the one index order
    of moment matrices and of the lift's columns.
    """
    bits = [1 << i for i in range(n_vars)]
    return itertools.chain.from_iterable(
        map(sum, itertools.combinations(bits, k)) for k in range(min(size, n_vars) + 1)
    )


def mask_of(index_set: Iterable[int]) -> int:
    m = 0
    for i in index_set:
        m |= 1 << i
    return m


def set_of(mask: int) -> IndexSet:
    """The ordinals of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass
class MomentVector:
    """Subset-indexed values with a nominal level.

    `entries` maps the bitmask of each stored subset (bit i = variable
    ordinal i) to its value.  It is authoritative: querying an absent subset
    raises instead of defaulting to zero, so silent domain mismatches cannot
    happen.  `value` and `has` take ordinals.  A vector of level t is
    normally defined on all subsets of size <= 2t+2 but restricted domains
    (from conditioning) are allowed.
    """

    n_vars: int
    level: int
    entries: dict[int, Value]
    exact: bool

    def value(self, index_set: Iterable[int]) -> Value:
        key = mask_of(index_set)
        try:
            return self.entries[key]
        except KeyError:
            raise MissingMomentError(set_of(key)) from None

    def has(self, index_set: Iterable[int]) -> bool:
        return mask_of(index_set) in self.entries

    def complete_size(self) -> int:
        """Largest d such that every subset of size <= d is stored (-1 if none)."""
        counts = Counter(key.bit_count() for key in self.entries)
        d = -1
        while d < self.n_vars and counts[d + 1] == math.comb(self.n_vars, d + 1):
            d += 1
        return d


def moment_matrix(y: MomentVector, size: int) -> tuple[tuple[Value, ...], ...]:
    """The grid y(row | col), rows and columns the `masks_upto(n, size)` sets."""
    masks = list(masks_upto(y.n_vars, size))
    me = y.entries
    try:
        return tuple(tuple([me[mi | mj] for mj in masks]) for mi in masks)
    except KeyError as exc:
        raise MissingMomentError(set_of(exc.args[0])) from None


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
    me = y.entries
    exact = y.exact and not isinstance(rhs, float) and all(
        not isinstance(a, float) for _, a in support
    )
    # Only the row is converted: a Fraction coefficient keeps int entries of
    # an exact vector exact, an int one keeps them ints, and a float one
    # turns every product into the float that converting the entry first
    # would give.
    conv = (lambda a: a if isinstance(a, int) else Fraction(a)) if exact else float
    neg_rhs = -conv(rhs)
    support = [(1 << i, conv(a)) for i, a in support]
    out: dict[int, Value] = {}
    for mask, base in me.items():
        total = neg_rhs * base
        ok = True
        for bit, a in support:
            hit = me.get(mask | bit)
            if hit is None:
                ok = False
                break
            total += a * hit
        if ok:
            out[mask] = total
    return MomentVector(y.n_vars, y.level, out, exact=exact)


def _domain_minus(y: MomentVector, s_mask: int) -> list[int]:
    """Sets I whose every union with a subset of S stays in the domain."""
    me = y.entries
    unions = [h for h, _ in _signed_subsets(set_of(s_mask))]
    return [k for k in me if all(k | h in me for h in unions)]


def _signed_subsets(items: Sequence[int]) -> list[tuple[int, int]]:
    """(mask, (-1)^|H|) for every subset H of `items`: inclusion-exclusion terms."""
    return [
        (mask_of(combo), -1 if r % 2 else 1)
        for r in range(len(items) + 1)
        for combo in itertools.combinations(items, r)
    ]


def _signed_sum(y: MomentVector, base: int, terms: list[tuple[int, int]]) -> Value:
    """Inclusion-exclusion `sum of sign * y(base + H)` over `terms`.

    An entry that is not stored counts as zero.
    """
    me = y.entries
    total = zero = ZERO if y.exact else 0.0
    for t_mask, sign in terms:
        v = me.get(base | t_mask, zero)
        total = total + v if sign > 0 else total - v
    return total


def condition(
    y: MomentVector, ones: Iterable[int], scope: Iterable[int]
) -> MomentVector:
    """Unnormalized conditioning on `ones` = 1 and `scope - ones` = 0.

    Entry at I becomes the inclusion-exclusion sum
    `sum over H within scope-ones of (-1)^|H| y(I + ones + H)`, restricted to
    the sets whose scope unions all stay in the stored domain.
    """
    x_mask = mask_of(ones)
    s_mask = mask_of(scope)
    if x_mask & ~s_mask:
        raise ValueError("ones must be contained in scope")
    dom = _domain_minus(y, s_mask)
    if not dom:
        raise DomainError("conditioning domain is empty")
    terms = _signed_subsets(set_of(s_mask & ~x_mask))
    out = {key: _signed_sum(y, key | x_mask, terms) for key in dom}
    return MomentVector(
        y.n_vars, max(y.level - s_mask.bit_count(), 0), out, exact=y.exact
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
    arr = [y.entries[mask] for mask in range(1 << n)]
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
    entries: dict[int, Value] = dict.fromkeys(masks_upto(n, cap), zero)
    for point, mass in points:
        if len(point) != n or any(b not in (0, 1) for b in point):
            raise ValueError(f"bad 0/1 point {point!r}")
        if mass == 0:
            continue
        support = [1 << i for i, b in enumerate(point) if b]
        add = float(mass) if any_float else Fraction(mass)
        for k in range(min(len(support), cap) + 1):
            for key in map(sum, itertools.combinations(support, k)):
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
    for mass, point in weighted_points:
        key = tuple(int(b) for b in point)
        if any(b not in (0, 1) for b in key):
            raise ValueError(f"bad 0/1 point {point!r}")
        if isinstance(mass, float) and not math.isfinite(mass):
            raise ValueError(f"non-finite mass {mass}")
        if mass < 0:
            raise ValueError(f"negative mass {mass}")
        merged[key] = merged.get(key, 0) + mass
    if not merged:
        raise ValueError("empty distribution")
    total = sum(merged.values())
    if exceeds(abs(total - 1), 0, 1e-9):
        raise ValueError(f"masses sum to {total}, expected 1")
    return from_atoms(merged, level)


def inversion_check(
    y: MomentVector, scope: Iterable[int], tol: float = 0.0
) -> tuple[bool, Value]:
    """Do the conditioned vectors over all splits of `scope` sum back to y?

    Returns (ok, max deviation) over the common restricted domain: the
    running maximum of |sum - y| from zero.
    """
    s_set = set_of(mask_of(scope))
    parts = [
        condition(y, ones, s_set)
        for k in range(len(s_set) + 1)
        for ones in itertools.combinations(s_set, k)
    ]
    deltas = (
        abs(sum(p.entries[key] for p in parts) - y.entries[key])
        for key in parts[0].entries
    )
    dev = max(itertools.chain([0], deltas))
    return not exceeds(dev, 0, tol), dev


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
    must be nonempty; returns (ok, max deviation) as `inversion_check` does.
    """
    left = shift(coeffs, rhs, condition(y, ones, scope))
    right = condition(shift(coeffs, rhs, y), ones, scope)
    common = left.entries.keys() & right.entries.keys()
    if not common:
        raise DomainError("no common domain to compare on")
    deltas = (abs(left.entries[key] - right.entries[key]) for key in common)
    dev = max(itertools.chain([0], deltas))
    return not exceeds(dev, 0, tol), dev


@dataclass(frozen=True)
class DecompositionPart:
    weight: Value
    assignment: IndexSet
    vector: MomentVector


@dataclass(frozen=True)
class Decomposition:
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
    s_mask = mask_of(scope)
    s_set = set_of(s_mask)
    t = y.level
    if drop < 0 or drop > t:
        raise ValueError(f"drop {drop} outside 0..{t}")
    if y.complete_size() < min(2 * t + 2, y.n_vars):
        raise DomainError("vector is not complete to its declared level")
    offenders = [
        set_of(k)
        for k, v in y.entries.items()
        if (k & s_mask).bit_count() > drop and exceeds(abs(v), 0, tol)
    ]
    if offenders:
        offenders.sort(key=lambda k: (len(k), k))
        raise DecompositionError(
            f"entries overlap scope in more than {drop} places: {offenders[:5]}"
        )

    out_level = t - drop
    dom_keys = dict.fromkeys(masks_upto(y.n_vars, 2 * out_level + 2))
    for key in _domain_minus(y, s_mask):
        dom_keys.setdefault(key)
    parts = []
    for k in range(len(s_set) + 1):
        for ones in itertools.combinations(s_set, k):
            x_mask = mask_of(ones)
            terms = _signed_subsets(set_of(s_mask & ~x_mask))
            weight = _signed_sum(y, x_mask, terms)
            if not exceeds(abs(weight), 0, tol):
                continue
            if weight < 0:
                raise DecompositionError(
                    f"negative weight {weight} at assignment {ones!r}"
                )
            entries = {
                key: _signed_sum(y, key | x_mask, terms) / weight for key in dom_keys
            }
            parts.append(
                DecompositionPart(
                    weight=weight,
                    assignment=ones,
                    vector=MomentVector(y.n_vars, out_level, entries, exact=y.exact),
                )
            )
    return Decomposition(parts=tuple(parts))


def _psd_violation_exact(
    grid: Sequence[Sequence[Union[int, Fraction]]], scale: int = 1
) -> tuple[str, Fraction] | None:
    """Fraction-free symmetric elimination: None when PSD, else (reason, witness).

    A symmetric rational matrix is PSD iff elimination in index order only
    meets nonnegative pivots and each zero pivot has an all-zero active row.
    The test runs on ints (Bareiss 1968): an int grid is `scale` times the
    matrix judged, and a `Fraction` grid is first scaled to ints by the lcm
    of its denominators.  Every entry is then a minor over the positive
    pivots taken so far, and `Fraction(entry, prev * scale)`, with `prev`
    the last positive pivot, is its Schur-complement value: the witness.
    Cost is quadratic per positive pivot, so low-rank matrices are cheap.
    """
    # An all-zero row stays zero under elimination and never gives a witness.
    keep = [i for i, row in enumerate(grid) if any(row)]
    # Symmetric: row a holds the entries of columns keep[a:] only.
    tri = [[grid[i][j] for j in keep[a:]] for a, i in enumerate(keep)]
    den = math.lcm(*(v.denominator for row in tri for v in row))
    if den != 1:
        tri = [[v.numerator * (den // v.denominator) for v in row] for row in tri]
        scale *= den
    prev = 1
    while tri:
        head = tri[0]
        pivot = head[0]
        if pivot < 0:
            return ("negative diagonal", Fraction(pivot, prev * scale))
        if pivot == 0:
            for v in head:
                if v:
                    # 2x2 principal minor [[0, a], [a, d]] has determinant -a^2
                    return ("zero diagonal with nonzero row", Fraction(v, prev * scale))
            del tri[0]
            continue
        new = []
        for a in range(1, len(tri)):
            row, f, tail = tri[a], head[a], head[a:]
            out = [(pivot * x - f * z) // prev for x, z in zip(row, tail)]
            # Sylvester's identity makes every division exact.  Floor
            # remainders are nonnegative, so the quotients sum back to the
            # numerators' sum iff each remainder is zero.
            assert pivot * sum(row) - f * sum(tail) == prev * sum(out)
            new.append(out)
        tri = new
        prev = pivot
    return None


def _psd_violation_float(
    grid: Sequence[Sequence[float]], tol: float
) -> tuple[str, float] | None:
    mat = np.array(grid, dtype=float)
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
    and the product form when every singleton is integral.  Each scalar check
    is an `exceeds` test, so `tol` is slack for float entries only and
    rational entries are judged exactly.  The PSD tests are Bareiss
    elimination for exact vectors and `eigvalsh` to within `tol` times the
    largest entry for float ones.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    n = y.n_vars
    if y.complete_size() < min(2 * level + 2, n):
        raise DomainError("vector is not complete to the requested level")
    exact = y.exact
    issues: list[CertifyIssue] = []
    checks: dict[str, int] = {}

    norm_gap = abs(y.value(()) - 1)
    checks["normalization"] = 1
    if exceeds(norm_gap, 0, tol):
        issues.append(CertifyIssue("normalization", "empty set", norm_gap))

    def check_psd(grid, where: str, scale: int = 1) -> None:
        if exact:
            bad = _psd_violation_exact(grid, scale)
        else:
            bad = _psd_violation_float(grid, tol)
        if bad is not None:
            issues.append(CertifyIssue("psd", f"{where}: {bad[0]}", bad[1]))

    check_psd(moment_matrix(y, min(level + 1, n)), "main matrix")
    checks["psd_main"] = 1
    # A row block reads the shift on sets of size <= 2t, which needs y only up
    # to size 2t+1: shift a copy cut there instead of every stored entry.  An
    # exact copy is scaled to ints by the lcm D of its denominators, and each
    # row by the lcm E of its own, so the block is built and tested in ints;
    # a positive scale leaves PSD-ness unchanged.
    t = min(level, n)
    cut = {k: v for k, v in y.entries.items() if k.bit_count() <= 2 * t + 1}
    y_scale = 1
    if exact:
        y_scale = math.lcm(*(v.denominator for v in cut.values()))
        cut = {k: v.numerator * (y_scale // v.denominator) for k, v in cut.items()}
    cut_y = MomentVector(n, y.level, cut, exact=exact)
    n_rows = 0
    for row in rows:
        n_rows += 1
        coeffs, rhs, scale = row.coeffs, row.rhs, y_scale
        if exact:
            # Fraction(a) is exact for a float too, a dyadic rational, so a
            # float row is judged at tolerance zero without roundoff.
            e = math.lcm(*(Fraction(a).denominator for a in (rhs, *coeffs.values())))
            coeffs = {i: int(Fraction(a) * e) for i, a in coeffs.items()}
            rhs, scale = int(Fraction(rhs) * e), scale * e
        shifted = moment_matrix(shift(coeffs, rhs, cut_y), t)
        check_psd(shifted, f"shifted matrix {row.label}", scale)
    checks["psd_shifted"] = n_rows

    # Each set is compared with its parents in ascending order of the
    # dropped ordinal.
    me = y.entries
    mono = 0
    for key, v in me.items():
        if exceeds(-v, 0, tol):
            issues.append(CertifyIssue("bounds", f"{set_of(key)!r} below zero", -v))
        if exceeds(v, 1, tol):
            issues.append(CertifyIssue("bounds", f"{set_of(key)!r} above one", v - 1))
        rest = key
        while rest:
            bit = rest & -rest
            rest ^= bit
            pv = me.get(key ^ bit)
            if pv is None:
                continue
            mono += 1
            if exceeds(v, pv, tol):
                issues.append(
                    CertifyIssue(
                        "monotonicity",
                        f"{set_of(key)!r} exceeds {set_of(key ^ bit)!r}",
                        v - pv,
                    )
                )
    checks["monotonicity"] = mono

    # Unions of two sets of size <= min(level + 1, n) pass the completeness check.
    pair_masks = list(masks_upto(n, min(level + 1, n)))
    one_sets = [k for k in pair_masks if k and not exceeds(abs(me[k] - 1), 0, tol)]
    one_sets = one_sets[:SPOT_ONES]
    others = pair_masks[:SPOT_OTHER]
    for full in one_sets:
        for other in others:
            gap = abs(me[full | other] - me[other])
            if exceeds(gap, 0, tol):
                issues.append(
                    CertifyIssue(
                        "one-propagation",
                        f"{set_of(full)!r} at one but {set_of(full | other)!r}"
                        f" != {set_of(other)!r}",
                        gap,
                    )
                )
    checks["one_propagation"] = len(one_sets) * len(others)

    singles = [me[1 << i] for i in range(n)]
    if not any(exceeds(min(abs(v), abs(v - 1)), 0, tol) for v in singles):
        prod_checked = 0
        for key, v in me.items():
            if not key:
                continue
            prod = 1
            for i in set_of(key):
                prod *= singles[i]
            prod_checked += 1
            gap = abs(v - prod)
            if exceeds(gap, 0, tol):
                issues.append(
                    CertifyIssue("integral-product", f"{set_of(key)!r}", gap)
                )
        checks["integral_product"] = prod_checked
    else:
        checks["integral_product"] = 0

    return CertifyReport(ok=not issues, issues=tuple(issues), checks=checks)


def export_moments(y: MomentVector) -> str:
    """The header, then one `ordinals : value` line per entry in `masks_upto` order."""
    lines = [f"moments {y.n_vars} {y.level}"]
    entries = y.entries
    top = max(map(int.bit_count, entries), default=-1)
    for mask in filter(entries.__contains__, masks_upto(y.n_vars, top)):
        value = entries[mask]
        left = " ".join(map(str, set_of(mask)))
        if isinstance(value, Fraction):
            right = format_cost(value)
        else:
            right = repr(float(value))
        lines.append(f"{left} : {right}".strip())
    return "\n".join(lines) + "\n"


def import_moments(text: str) -> MomentVector:
    """Parse a moment file; the vector must be complete to the declared level.

    Values are read exactly when every token is an integer or ratio, as
    floats when any token uses decimal or exponent notation; every value must
    be finite and both header counts nonnegative.
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
    if n < 0 or level < 0:
        raise MomentFormatError(f"negative count in header {lines[0]!r}")
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
    entries: dict[int, Value] = {}
    for key, tok in raw.items():
        try:
            value = float(tok) if floaty else parse_rational(tok)
        except (ValueError, ZeroDivisionError) as exc:
            raise MomentFormatError(f"bad value {tok!r}") from exc
        if floaty and not math.isfinite(value):  # a Fraction always is
            raise MomentFormatError(f"value {tok!r} is not finite")
        entries[mask_of(key)] = value
    y = MomentVector(n, level, entries, exact=not floaty)
    if y.complete_size() < min(2 * level + 2, n):
        raise MomentFormatError(
            f"vector is not complete for level {level} over {n} variables"
        )
    return y
