"""Moment toolkit: transforms, conditioning, decomposition, certification.

The independent oracles here are (a) direct probability computations on
explicit distributions, (b) numpy eigenvalues and rational Schur elimination
for rational PSD questions, and (c) the algebraic inclusion-exclusion
identities evaluated on arbitrary (not necessarily feasible) vectors.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstlift import moments
from dstlift.moments import (
    DecompositionError,
    DomainError,
    MissingMomentError,
    MomentVector,
    certify,
    condition,
    decompose,
    exceeds,
    export_moments,
    from_atoms,
    from_distribution,
    import_moments,
    inversion_check,
    masks_upto,
    mobius_atoms,
    moment_matrix,
    set_of,
    shift,
    shift_commutes_check,
)
from dstlift.flow_lp import Row

from conftest import reconstruction_deviation


def _rational_distribution(rng, n_vars, n_points):
    points = set()
    while len(points) < min(n_points, 2**n_vars):
        points.add(tuple(rng.randint(0, 1) for _ in range(n_vars)))
    weights = [rng.randint(1, 5) for _ in points]
    total = sum(weights)
    return [(Fraction(w, total), p) for w, p in zip(weights, sorted(points))]


def _subset_prob(dist, index_set):
    """Direct probability that all indexed coordinates are one."""
    return sum(
        (p for p, x in dist if all(x[i] for i in index_set)), Fraction(0)
    )


@pytest.mark.parametrize("seed", range(10))
def test_from_distribution_matches_direct_probabilities(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    dist = _rational_distribution(rng, n, rng.randint(1, 4))
    level = rng.randint(0, 3)
    y = from_distribution(dist, level)
    assert y.exact
    assert y.value(()) == 1
    for key in map(set_of, masks_upto(n, min(2 * level + 2, n))):
        assert y.value(key) == _subset_prob(dist, key)


def test_from_distribution_validation():
    with pytest.raises(ValueError):
        from_distribution([(Fraction(1, 2), (0, 1))], 1)  # mass sums to 1/2
    with pytest.raises(ValueError):
        from_distribution([(Fraction(-1), (0,)), (Fraction(2), (1,))], 1)
    with pytest.raises(ValueError):
        from_distribution([(Fraction(1), (0, 2))], 1)  # not a 0/1 point


def test_from_distribution_rejects_nan_mass():
    with pytest.raises(ValueError, match="nan"):
        from_distribution([(1.0, (0, 1)), (math.nan, (1, 0))], 0)


def test_missing_entry_raises():
    y = MomentVector(2, 0, {0b00: Fraction(1), 0b01: Fraction(1, 2)}, exact=True)
    with pytest.raises(MissingMomentError):
        y.value((1,))
    with pytest.raises(MissingMomentError):
        moment_matrix(y, 1)


def test_moment_matrix_layout():
    dist = [(Fraction(1, 2), (1, 1)), (Fraction(1, 2), (0, 1))]
    y = from_distribution(dist, 1)
    grid = moment_matrix(y, 1)
    # rows and columns in `masks_upto` order: (), (0,), (1,)
    assert list(masks_upto(2, 1)) == [0b00, 0b01, 0b10]
    assert [len(row) for row in grid] == [3, 3, 3]
    assert grid[0][0] == 1
    assert grid[0][2] == grid[2][0] == y.value((1,))
    assert grid[1][2] == y.value((0, 1))
    assert grid[1][1] == y.value((0,))  # idempotent: union with itself


@pytest.mark.parametrize("seed", range(8))
def test_mobius_round_trip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    dist = _rational_distribution(rng, n, rng.randint(1, 4))
    level = (n + 1) // 2  # 2*level+2 >= n: full domain
    y = from_distribution(dist, level)
    atoms = mobius_atoms(y)
    assert sum(atoms.values()) == y.value(())
    expected = {}
    for p, x in dist:
        expected[tuple(x)] = expected.get(tuple(x), Fraction(0)) + p
    for point, mass in atoms.items():
        assert mass == expected.get(point, Fraction(0))
    again = from_atoms(atoms, level)
    assert again.entries == y.entries


def test_mobius_needs_full_domain():
    y = from_distribution([(Fraction(1), (1, 0, 1, 0, 1, 0))], 1)
    with pytest.raises(DomainError):
        mobius_atoms(y)  # level 1 stores only subsets of size <= 4


def test_mobius_guard(monkeypatch):
    from dstlift import CapExceededError

    monkeypatch.setattr(moments, "MAX_ATOM_VARS", 2)
    y = from_distribution([(Fraction(1), (1,) * 3)], 3)
    with pytest.raises(CapExceededError):
        mobius_atoms(y)


def _random_full_vector(rng, n):
    """Arbitrary rational values on the full powerset; not a distribution."""
    entries = {
        key: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for key in masks_upto(n, n)
    }
    return MomentVector(n, n, entries, exact=True)


@pytest.mark.parametrize("seed", range(8))
def test_inversion_is_algebraic_identity(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    y = _random_full_vector(rng, n)
    scope = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
    ok, dev = inversion_check(y, scope)
    assert ok and dev == 0


@pytest.mark.parametrize("seed", range(8))
def test_shift_commutes_is_algebraic_identity(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    y = _random_full_vector(rng, n)
    scope = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
    ones = tuple(sorted(rng.sample(scope, rng.randint(0, len(scope)))))
    coeffs = {i: Fraction(rng.randint(-3, 3)) for i in range(n)}
    rhs = Fraction(rng.randint(-3, 3))
    ok, dev = shift_commutes_check(y, ones, scope, coeffs, rhs)
    assert ok and dev == 0


def test_shift_values_and_domain():
    dist = [(Fraction(1, 3), (1, 1, 0)), (Fraction(2, 3), (0, 1, 1))]
    y = from_distribution(dist, 0)  # stores subsets of size <= 2
    z = shift({0: Fraction(2)}, Fraction(1), y)
    # z_I = 2 y(I+{0}) - y(I)
    assert z.value(()) == 2 * y.value((0,)) - 1
    assert z.value((1,)) == 2 * y.value((0, 1)) - y.value((1,))
    # sets of size 2 need size-3 unions: domain shrinks
    assert not z.has((1, 2))
    # zero coefficients do not constrain the domain
    z2 = shift({0: Fraction(0)}, Fraction(1), y)
    assert set(z2.entries) == set(y.entries)


def test_condition_matches_subdistribution_oracle():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        dist = _rational_distribution(rng, n, rng.randint(1, 4))
        level = (n + 1) // 2
        y = from_distribution(dist, level)
        scope = tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 3)))))
        for k in range(len(scope) + 1):
            for ones in itertools.combinations(scope, k):
                zeros = set(scope) - set(ones)
                sub = [
                    (p, x)
                    for p, x in dist
                    if all(x[i] for i in ones) and not any(x[i] for i in zeros)
                ]
                z = condition(y, ones, scope)
                for key in map(set_of, z.entries):
                    assert z.value(key) == sum(
                        (p for p, x in sub if all(x[i] for i in key)),
                        Fraction(0),
                    )


def test_condition_requires_subset():
    y = from_distribution([(Fraction(1), (1, 0))], 1)
    with pytest.raises(ValueError):
        condition(y, [0], [1])


def test_condition_domain_when_entries_are_not_down_closed():
    # {0, 1} is stored but {1} is not: the empty set leaves the domain of a
    # split on scope {0, 1}, although its union with the whole scope is stored.
    entries = {0b00: Fraction(1), 0b01: Fraction(1, 2), 0b11: Fraction(1, 4)}
    y = MomentVector(2, 1, entries, exact=True)
    z = condition(y, [0], [0, 1])
    assert z.entries == {0b01: Fraction(1, 4), 0b11: Fraction(0)}


@pytest.mark.parametrize("seed", range(6))
def test_decompose_reconstructs_and_parts_are_integral(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    level = 2
    scope = tuple(sorted(rng.sample(range(n), rng.randint(1, 2))))
    drop = len(scope)
    # build a distribution where every point is 0/1 on the scope: always true
    dist = _rational_distribution(rng, n, rng.randint(2, 4))
    y = from_distribution(dist, level)
    dec = decompose(y, scope, drop)
    assert dec.parts, "a distribution always leaves mass somewhere"
    total = sum((p.weight for p in dec.parts), Fraction(0))
    assert total == 1
    assert reconstruction_deviation(dec, y) == 0
    for part in dec.parts:
        assert part.vector.level == level - drop
        report = certify(part.vector, level - drop)
        assert report.ok, report.issues
        for i in scope:
            expected = Fraction(1) if i in part.assignment else Fraction(0)
            assert part.vector.value((i,)) == expected


def test_decompose_requires_vanishing_overlap():
    # mass on a point with two scope coordinates set, but drop = 1
    dist = [
        (Fraction(1, 2), (1, 1, 0)),
        (Fraction(1, 2), (0, 0, 1)),
    ]
    y = from_distribution(dist, 2)
    with pytest.raises(DecompositionError) as err:
        decompose(y, (0, 1), 1)
    assert "overlap" in str(err.value)
    # with the full drop it goes through
    dec = decompose(y, (0, 1), 2)
    assert reconstruction_deviation(dec, y) == 0


def test_decompose_zero_scope_weight_skipped():
    dist = [(Fraction(1), (1, 0))]
    y = from_distribution(dist, 1)
    dec = decompose(y, (1,), 1)
    assert [p.assignment for p in dec.parts] == [()]
    assert dec.parts[0].weight == 1


def test_decompose_level_guard():
    y = from_distribution([(Fraction(1), (1, 0))], 1)
    with pytest.raises(ValueError):
        decompose(y, (0,), 2)


def _rational_psd(rng, d, rank):
    rows = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        for _ in range(rank)
    ]
    return [
        [
            sum((rows[k][i] * rows[k][j] for k in range(rank)), Fraction(0))
            for j in range(d)
        ]
        for i in range(d)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_exact_psd_checker_agrees_with_numpy(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 6)
    if seed % 2:
        grid = _rational_psd(rng, d, rng.randint(1, d))
    else:
        grid = [
            [Fraction(rng.randint(-4, 4)) for _ in range(d)] for _ in range(d)
        ]
        for i in range(d):
            for j in range(i):
                grid[i][j] = grid[j][i]
    verdict = moments._psd_violation_exact(grid) is None
    eigs = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in grid]))
    scale = max(1.0, float(np.abs(eigs).max()))
    if eigs[0] >= -1e-9 * scale and not verdict:
        pytest.fail(f"exact says not PSD, numpy min eig {eigs[0]}")
    if eigs[0] < -1e-7 * scale and verdict:
        pytest.fail(f"exact says PSD, numpy min eig {eigs[0]}")


def _schur_reference(grid):
    """Rational Schur-complement elimination, the reference for the int test."""
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


def _gram(cols):
    return [[sum((a * b for a, b in zip(u, v)), Fraction(0)) for v in cols] for u in cols]


def _reference_case(rng, kind):
    def vec(r):
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)]

    if kind == "low-rank":
        r = rng.randint(1, 3)
        return _gram([vec(r) for _ in range(rng.randint(r, 7))])
    if kind == "random":
        d = rng.randint(2, 6)
        grid = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)]
        return [[grid[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
    # Index 1 depends on index 0 and index 2 is zero, so after the first
    # pivot two zero pivots with zero rows are skipped, and more positive
    # pivots divide by the pivot taken before the skips.
    c0 = vec(4)
    while not any(c0):
        c0 = vec(4)
    lam = Fraction(rng.randint(1, 3), 2)
    cols = [c0, [lam * a for a in c0], [Fraction(0)] * 4]
    cols += [vec(4) for _ in range(rng.randint(2, 4))]
    grid = _gram(cols)
    if kind == "zero-pivot-nonzero-row":
        j = rng.randrange(3, len(grid))
        grid[1][j] += Fraction(1, rng.randint(1, 5))
        grid[j][1] = grid[1][j]
    elif kind == "negative-pivot":
        k = rng.randrange(3, len(grid))
        grid[k][k] -= grid[k][k] + Fraction(1, rng.randint(1, 5))
    return grid


REFERENCE_KINDS = (
    "low-rank",
    "zero-pivot-zero-row",
    "zero-pivot-nonzero-row",
    "negative-pivot",
    "random",
)


@pytest.mark.parametrize("seed", range(40))
def test_exact_psd_matches_schur_reference(seed):
    kind = REFERENCE_KINDS[seed % len(REFERENCE_KINDS)]
    grid = _reference_case(random.Random(seed), kind)
    want = _schur_reference(grid)
    if kind == "zero-pivot-zero-row":
        assert want is None
    if kind in ("zero-pivot-nonzero-row", "negative-pivot"):
        assert want is not None
    got = moments._psd_violation_exact(grid)
    assert got == want
    if want is not None:
        assert type(got[1]) is Fraction
    # The route certify takes: the grid already scaled to ints.
    den = math.lcm(*(v.denominator for row in grid for v in row))
    ints = [[int(v * den) for v in row] for row in grid]
    assert moments._psd_violation_exact(ints, den) == want


@pytest.mark.parametrize(
    "grid",
    [[], [[Fraction(3, 7)]], [[Fraction(0)]], [[Fraction(-2, 9)]]],
    ids=["0x0", "1x1-positive", "1x1-zero", "1x1-negative"],
)
def test_exact_psd_matches_schur_reference_on_tiny_grids(grid):
    assert moments._psd_violation_exact(grid) == _schur_reference(grid)


def test_exact_vector_judges_a_float_row_exactly():
    # x5 = 1 at every point, so x5 >= rhs holds for every rhs below one.
    # Shifted in floats, these blocks failed by roundoff at tolerance zero.
    rng = random.Random(5)
    points = [tuple(rng.randint(0, 1) for _ in range(5)) + (1,) for _ in range(4)]
    y = from_distribution([(Fraction(w, 10), p) for w, p in zip((1, 2, 3, 4), points)], 2)
    for rhs in (0.1, 0.2, 0.3, 0.35, 0.55, 0.7, 0.9):
        report = certify(y, 2, [Row({5: 1.0}, rhs, "x5>=rhs")])
        assert report.ok, (rhs, report.issues)
    # A violated float row gets its exact witness: x5 <= 0.9 at x5 = 1.
    report = certify(y, 2, [Row({5: -1.0}, -0.9, "x5<=0.9")])
    assert [(i.kind, i.amount) for i in report.issues] == [
        ("psd", Fraction(0.9) - 1)
    ]
    assert type(report.issues[0].amount) is Fraction


def test_certify_accepts_distributions_with_rows():
    dist = [(Fraction(1, 4), (1, 1, 0)), (Fraction(3, 4), (0, 1, 1))]
    y = from_distribution(dist, 1)
    rows = []
    for i in range(3):
        coeffs = [Fraction(0)] * 3
        coeffs[i] = Fraction(-1)
        rows.append(Row(dict(enumerate(coeffs)), Fraction(-1), f"ub{i}"))
    report = certify(y, 1, rows)
    assert report.ok
    assert report.checks["psd_shifted"] == 3
    assert report.checks["monotonicity"] > 0


def test_certify_rejects_negative_level():
    # at level -1 the row block would be empty and the check vacuous
    y = from_distribution([(Fraction(1, 2), (1, 0)), (Fraction(1, 2), (0, 0))], 0)
    row = Row({0: Fraction(1)}, Fraction(1), "x0")
    assert not certify(y, 0, [row]).ok
    with pytest.raises(ValueError, match="level must be nonnegative"):
        certify(y, -1, [row])


def test_certify_flags_bound_violation():
    dist = [(Fraction(1), (1, 0))]
    y = from_distribution(dist, 1)
    y.entries[0b10] = Fraction(-1, 4)
    report = certify(y, 1)
    assert not report.ok
    kinds = {issue.kind for issue in report.issues}
    assert "bounds" in kinds or "psd" in kinds


def test_certify_flags_monotonicity_violation():
    dist = [(Fraction(1, 2), (1, 1)), (Fraction(1, 2), (0, 0))]
    y = from_distribution(dist, 0)
    y.entries[0b11] = Fraction(9, 10)  # exceeds the singleton 1/2
    report = certify(y, 0)
    assert not report.ok
    assert any(issue.kind in ("monotonicity", "psd") for issue in report.issues)


def test_certify_flags_broken_one_propagation():
    entries = {
        0b00: Fraction(1),
        0b01: Fraction(1),
        0b10: Fraction(1, 2),
        0b11: Fraction(1, 4),  # should equal y( {1} ) because y({0}) = 1
    }
    y = MomentVector(2, 0, entries, exact=True)
    report = certify(y, 0)
    assert not report.ok


def test_certify_integral_product_check():
    dist = [(Fraction(1), (1, 0, 1))]
    y = from_distribution(dist, 1)
    report = certify(y, 1)
    assert report.ok
    assert report.checks["integral_product"] > 0
    y.entries[0b101] = Fraction(1, 2)  # breaks the product law
    report = certify(y, 1)
    assert not report.ok


def test_certify_judges_entries_edited_after_a_certify():
    # Three variables, each at 1/2: all equal or all zero.  With every pair
    # set to 0 the bounds, monotonicity and one-propagation laws still hold,
    # but the main block is no longer PSD.
    dist = [(Fraction(1, 2), (1, 1, 1)), (Fraction(1, 2), (0, 0, 0))]
    y = from_distribution(dist, 0)
    assert certify(y, 0).ok
    for pair in (0b011, 0b101, 0b110):
        y.entries[pair] = Fraction(0)
    report = certify(y, 0)
    assert [(i.kind, i.where, i.amount) for i in report.issues] == [
        ("psd", "main matrix: zero diagonal with nonzero row", Fraction(-1, 2))
    ]


def test_certify_float_tolerance():
    # pair moment exceeds a singleton by 1e-7: invisible at tol 1e-5,
    # flagged at tol 1e-9
    noisy = {
        0b00: 1.0,
        0b01: 0.25,
        0b10: 0.25,
        0b11: 0.2500001,
    }
    y = MomentVector(2, 0, noisy, exact=False)
    assert not y.exact
    assert certify(y, 0, tol=1e-5).ok
    assert not certify(y, 0, tol=1e-9).ok


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_shifted_block_catches_violated_row(exact):
    # point mass violating x0 <= 1/2
    y = from_distribution([(Fraction(1), (1, 1))], 1)
    if not exact:
        floats = {k: float(v) for k, v in y.entries.items()}
        y = MomentVector(2, 1, floats, exact=False)
    assert y.exact == exact
    coeffs = dict(enumerate([Fraction(-1), Fraction(0)]))
    row = Row(coeffs, Fraction(-1, 2), "x0<=1/2")
    report = certify(y, 1, [row], tol=1e-9)
    assert not report.ok
    assert [issue.kind for issue in report.issues] == ["psd"]
    assert "shifted matrix x0<=1/2" in report.issues[0].where


def test_moment_file_round_trip_exact():
    dist = [(Fraction(1, 3), (1, 0, 1)), (Fraction(2, 3), (0, 1, 0))]
    y = from_distribution(dist, 1)
    text = export_moments(y)
    again = import_moments(text)
    assert again.exact
    assert again.entries == y.entries
    assert again.level == y.level and again.n_vars == y.n_vars
    assert export_moments(again) == text


def test_export_moments_bytes_are_pinned():
    """Files list subsets by (size, lex), not in the order entries are
    stored; the shifted vector adds negative values and a cut domain."""
    dist = [
        (Fraction(1, 3), (1, 0, 1, 1)),
        (Fraction(1, 6), (0, 1, 1, 0)),
        (Fraction(1, 2), (1, 1, 0, 0)),
    ]
    y = from_distribution(dist, 1)
    row = {0: Fraction(-2), 3: Fraction(1)}
    z = shift(row, Fraction(-1, 5), from_distribution(dist, 0))
    text = export_moments(y) + export_moments(z)
    golden = Path(__file__).resolve().parent / "golden" / "export_moments.txt"
    assert text == golden.read_text()
    # the same bytes from entries stored in the opposite order: with four
    # variables numeric mask order ({1,2} = 0b0110 < {0,3} = 0b1001) is not
    # the file's lex order
    flipped = [
        dataclasses.replace(v, entries=dict(reversed(v.entries.items()))) for v in (y, z)
    ]
    assert "".join(map(export_moments, flipped)) == text


def test_moment_file_round_trip_float():
    entries = {0b00: 1.0, 0b01: 0.25, 0b10: 0.75, 0b11: 0.1}
    y = MomentVector(2, 0, entries, exact=False)
    text = export_moments(y)
    again = import_moments(text)
    assert not again.exact
    assert again.entries == y.entries
    assert export_moments(again) == text


def test_moment_file_errors():
    from dstlift.moments import MomentFormatError

    with pytest.raises(MomentFormatError):
        import_moments("bogus\n")
    with pytest.raises(MomentFormatError):
        import_moments("moments 2 0\n: 1\n0 : 1/2\n")  # incomplete
    with pytest.raises(MomentFormatError):
        import_moments("moments 1 0\n: 1\n0 : 1\n0 : 1\n")  # duplicate
    with pytest.raises(MomentFormatError):
        import_moments("moments 1 0\n: 1\n1 0 : 1\n")  # unsorted ordinals
    with pytest.raises(MomentFormatError):
        import_moments("moments 1 0\n: 1\n3 : 1\n")  # out of range
    for value in ("--1/2", "- 1/2"):  # one sign, next to the digits
        with pytest.raises(MomentFormatError):
            import_moments(f"moments 1 0\n: 1\n0 : {value}\n")


def test_moment_file_rejects_non_finite_values_and_negative_counts():
    from dstlift.moments import MomentFormatError

    # complete to size 2 for level 0, so a bad entry of size 3 is never read
    # by certify: it must be refused on import
    stored = "".join(
        f"{' '.join(map(str, key))} : 0.5\n"
        for size in (1, 2)
        for key in itertools.combinations(range(3), size)
    )
    with pytest.raises(MomentFormatError, match="not finite"):
        import_moments(f"moments 3 0\n: 1.0\n{stored}0 1 2 : nan\n")
    for value in ("nan", "inf", "-inf", "1e400"):  # in the main block
        with pytest.raises(MomentFormatError):
            import_moments(f"moments 2 0\n: 1.0\n0 : {value}\n1 : 0.5\n0 1 : 0.25\n")
    for header in ("moments -1 0", "moments 2 -1"):
        with pytest.raises(MomentFormatError, match="negative count"):
            import_moments(f"{header}\n: 1\n")


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2**20),
)
def test_distribution_vectors_always_certify(n, weights, seed):
    rng = random.Random(seed)
    points = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in weights]
    total = sum(weights)
    dist = [(Fraction(w, total), p) for w, p in zip(weights, points)]
    level = rng.randint(0, 2)
    y = from_distribution(dist, level)
    report = certify(y, level)
    assert report.ok, report.issues
    ok, dev = inversion_check(y, (0,))
    assert ok and dev == 0


_finite = st.floats(allow_nan=False, allow_infinity=False)
_rational = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
)
_tol = st.one_of(st.sampled_from([0.0, 0.5, 1e9]), _finite)


@given(_finite, _finite, _finite)
def test_exceeds_on_floats_is_value_above_bound_plus_tol(value, bound, tol):
    assert exceeds(value, bound, tol) == (value > bound + tol)
    assert not exceeds(bound + tol, bound, tol)


@given(_rational, _rational, _tol)
def test_exceeds_on_rationals_ignores_tol(value, bound, tol):
    assert exceeds(value, bound, tol) == (value > bound)
    assert exceeds(value, value, tol) is False


@given(_rational, _finite, _tol)
def test_exceeds_with_one_float_side_takes_the_float_rule(rational, x, tol):
    for value, bound in ((rational, x), (x, rational)):
        want = float(value) > float(bound) + tol
        assert exceeds(value, bound, tol) == want
    assert not exceeds(rational + tol, rational, tol)


@given(st.one_of(_rational, _finite, st.just(math.nan)), _tol)
def test_exceeds_fails_closed_on_nan(other, tol):
    assert exceeds(math.nan, other, tol)
    assert exceeds(other, math.nan, tol)
