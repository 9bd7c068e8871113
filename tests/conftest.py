"""Shared fixtures: the hand-checked reference instance and helpers.

The reference instance is a three-hop layered graph with 12 nodes and 17
edges whose optimum (19) and optimal edge set were verified by hand; it
doubles as parser input so the text format is exercised everywhere.
"""

from fractions import Fraction

import pytest

from dstlift import as_layered, build_flow_lp, make_instance, parse_instance, solve_lp
from dstlift.flow_lp import ConstraintSystem, Row
from dstlift.harness import _chain, _diamond
from dstlift.moments import MomentVector, export_moments, from_distribution, mask_of

REFERENCE_TEXT = """\
# three-hop reference instance, optimum 19
dst 12 17
node r
node u1
node u2
node u3
node v1
node v2
node v3
node v4
node s1
node s2
node s3
node s4
root r
terminal s1
terminal s2
terminal s3
terminal s4
edge r u1 3
edge r u2 4
edge r u3 2
edge u1 v1 3
edge u1 v2 5
edge u2 v2 8
edge u2 v3 9
edge u2 v4 7
edge u3 v4 2
edge v1 s1 2
edge v2 s1 6
edge v2 s2 0
edge v2 s3 1
edge v3 s2 7
edge v3 s3 4
edge v3 s4 8
edge v4 s4 1
"""

REFERENCE_OPT = Fraction(19)
REFERENCE_OPT_EDGES = frozenset(
    {
        ("r", "u1"),
        ("r", "u3"),
        ("u1", "v1"),
        ("u1", "v2"),
        ("u3", "v4"),
        ("v1", "s1"),
        ("v2", "s2"),
        ("v2", "s3"),
        ("v4", "s4"),
    }
)


# The experiment suites' toy instances: a two-edge chain of cost 5, and a
# diamond with two root-terminal routes of costs 5 and 3.
tiny_chain = _chain
tiny_diamond = _diamond


@pytest.fixture(scope="session")
def reference_instance():
    return parse_instance(REFERENCE_TEXT)


@pytest.fixture(scope="session")
def reference_layered(reference_instance):
    return as_layered(reference_instance)


@pytest.fixture(scope="session")
def reference_lp(reference_layered):
    return build_flow_lp(reference_layered)


def tiny_path3():
    """One route of three edges, costs 1, 2 and 3: the lift has one point."""
    return make_instance(
        ["r", "a", "b", "s"],
        [
            ("r", "a", Fraction(1)),
            ("a", "b", Fraction(2)),
            ("b", "s", Fraction(3)),
        ],
        "r",
        ["s"],
    )


def tiny_layered3():
    """Three levels, two terminals: s1 has three root paths, s2 has two."""
    return make_instance(
        ["r", "a", "b", "c", "d", "s1", "s2"],
        [
            ("r", "a", Fraction(1)),
            ("r", "b", Fraction(2)),
            ("a", "c", Fraction(1)),
            ("a", "d", Fraction(3)),
            ("b", "d", Fraction(1)),
            ("c", "s1", Fraction(2)),
            ("d", "s1", Fraction(1)),
            ("d", "s2", Fraction(2)),
        ],
        "r",
        ["s1", "s2"],
    )


def _edges(path):
    nodes = path.split()
    return list(zip(nodes, nodes[1:]))


def layered3_moments_text(exact=True):
    """Level-1 moments of a mix of three trees on `tiny_layered3`.

    The float copy raises two path moments above their prefixes' moments, so
    the ratio of r->a->d over r->a (second step) and of r->b->d->s1 over
    r->b->d (third step) clamp to one.
    """
    _, vmap = build_flow_lp(as_layered(tiny_layered3()))
    trees = [
        (Fraction(1, 2), ("r a c s1", "r b d s2")),
        (Fraction(1, 3), ("r a d s1", "r a d s2")),
        (Fraction(1, 6), ("r b d s1", "r b d s2")),
    ]
    dist = []
    for mass, paths in trees:
        point = [0] * vmap.n_vars
        for s, path in zip(("s1", "s2"), paths):
            for edge in _edges(path):
                point[vmap.edge_ordinal(edge)] = 1
                point[vmap.flow_ordinal(s, edge)] = 1
        dist.append((mass, tuple(point)))
    y = from_distribution(dist, 1)
    if not exact:
        entries = {k: float(v) for k, v in y.entries.items()}
        for path, value in (("r a d", 0.9), ("r b d s1", 0.7)):
            entries[mask_of(vmap.edge_ordinal(e) for e in _edges(path))] = value
        y = MomentVector(y.n_vars, y.level, entries, exact=False)
    return export_moments(y)


def lp_feasible(cs, force_one=()):
    """Can the rows (x >= 0) hold with every x_i, i in `force_one`, at one?

    With the [0, 1] boxes in the rows, `x_i >= 1` pins x_i = 1.
    """
    pins = tuple(Row({i: Fraction(1)}, Fraction(1), f"pin[{i}]") for i in force_one)
    probe = ConstraintSystem(cs.n_vars, cs.rows + pins, (Fraction(0),) * cs.n_vars)
    return solve_lp(probe).status == "optimal"


def reconstruction_deviation(dec, y):
    """Largest |sum of weight * part entry - y entry| over the keys all share."""
    common = set(y.entries).intersection(*(p.vector.entries for p in dec.parts))
    assert dec.parts and common, "nothing to reconstruct"
    return max(
        abs(sum(p.weight * p.vector.entries[key] for p in dec.parts) - y.entries[key])
        for key in common
    )
