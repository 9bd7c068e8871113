"""Shared fixtures: the hand-checked reference instance and helpers.

The reference instance is a three-hop layered graph with 12 nodes and 17
edges whose optimum (19) and optimal edge set were verified by hand; it
doubles as parser input so the text format is exercised everywhere.
"""

from fractions import Fraction

import pytest

from dstlift import as_layered, build_flow_lp, make_instance, parse_instance, solve_lp
from dstlift.flow_lp import ConstraintSystem, Row

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


@pytest.fixture(scope="session")
def reference_instance():
    return parse_instance(REFERENCE_TEXT)


@pytest.fixture(scope="session")
def reference_layered(reference_instance):
    return as_layered(reference_instance)


@pytest.fixture(scope="session")
def reference_lp(reference_layered):
    return build_flow_lp(reference_layered)


def tiny_diamond():
    """Two root-terminal routes of costs 5 and 3."""
    return make_instance(
        ["r", "a", "b", "s"],
        [
            ("r", "a", Fraction(1)),
            ("r", "b", Fraction(2)),
            ("a", "s", Fraction(4)),
            ("b", "s", Fraction(1)),
        ],
        "r",
        ["s"],
    )


def tiny_chain():
    return make_instance(
        ["r", "a", "s"],
        [("r", "a", Fraction(2)), ("a", "s", Fraction(3))],
        "r",
        ["s"],
    )


def lp_feasible(cs, force_one=()):
    """Can the rows (x >= 0) hold with every x_i, i in `force_one`, at one?

    With the [0, 1] boxes in the rows, `x_i >= 1` pins x_i = 1.
    """
    pins = tuple(Row({i: Fraction(1)}, Fraction(1), f"pin[{i}]") for i in force_one)
    probe = ConstraintSystem(cs.n_vars, cs.rows + pins, (Fraction(0),) * cs.n_vars)
    return solve_lp(probe).status == "optimal"
