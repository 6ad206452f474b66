import random

import pytest

from toricgb.buchberger import orient
from toricgb.errors import GuardViolated, ZeroVector
from toricgb.orders import (
    compare,
    degrevlex,
    lex,
    term_order,
    weighted_revlex,
)


def test_lex_basic():
    o = lex(3)
    assert compare((1, 0, 0), (0, 5, 5), o) == "Greater"
    assert compare((1, 1, 0), (1, 0, 7), o) == "Greater"
    assert compare((2, 0, 0), (2, 0, 0), o) == "Equal"


def test_lex_permutation_reorders_precedence():
    o = lex(3, permutation=(2, 1, 0))  # x3 most expensive
    assert compare((5, 0, 0), (0, 0, 1), o) == "Less"


def test_degrevlex_classic_comparison():
    # same total degree: revlex prefers the monomial missing the cheap end
    o = degrevlex(3)
    assert compare((0, 2, 0), (1, 0, 1), o) == "Greater"  # x2^2 > x1 x3
    assert compare((1, 1, 0), (1, 0, 1), o) == "Greater"
    assert compare((3, 0, 0), (0, 0, 2), o) == "Greater"  # degree wins first


def test_degrevlex_vs_lex_differ():
    o1, o2 = degrevlex(3), lex(3)
    u, v = (1, 0, 1), (0, 2, 0)
    assert compare(u, v, o1) == "Less"
    assert compare(u, v, o2) == "Greater"


def test_weight_layer_dominates():
    o = term_order(3, weight=(0, 1, 0))
    assert compare((0, 1, 0), (4, 0, 4), o) == "Greater"


def test_rational_weights_cleared():
    from fractions import Fraction

    o = term_order(2, weight=(Fraction(1, 2), Fraction(1, 3)))
    assert o.layers[0] == (3, 2)


def test_elimination_block_property():
    # any monomial touching the block beats any monomial outside it
    o = term_order(4, weight=(0, 0, 5, 5), elimination_block=2)
    assert compare((0, 1, 0, 0), (0, 0, 9, 9), o) == "Greater"
    assert compare((1, 0, 0, 0), (0, 1, 0, 0), o) != "Equal"


def test_elimination_block_range_checked():
    with pytest.raises(GuardViolated):
        term_order(3, elimination_block=4)


def test_term_order_rejects_unknown_tiebreak():
    with pytest.raises(GuardViolated):
        term_order(3, tiebreak="grlex")


def test_order_is_total_and_multiplicative():
    rng = random.Random(17)
    orders = [
        degrevlex(4),
        lex(4),
        term_order(4, weight=(2, 1, 1, 3)),
        term_order(4, weight=(1, 0, 2, 0), tiebreak="lex"),
        weighted_revlex((1, 2, 1, 1), cheapest=2),
    ]
    for o in orders:
        for _ in range(300):
            u = tuple(rng.randint(0, 6) for _ in range(4))
            v = tuple(rng.randint(0, 6) for _ in range(4))
            w = tuple(rng.randint(0, 6) for _ in range(4))
            c = compare(u, v, o)
            if u == v:
                assert c == "Equal"
            else:
                assert c in ("Greater", "Less")
                flipped = compare(v, u, o)
                assert {c, flipped} == {"Greater", "Less"}
            shifted = compare(
                tuple(a + b for a, b in zip(u, w)),
                tuple(a + b for a, b in zip(v, w)),
                o,
            )
            assert shifted == c


def test_degrevlex_is_a_well_order_on_monomials():
    o = degrevlex(3)
    rng = random.Random(23)
    zero = (0, 0, 0)
    for _ in range(200):
        u = tuple(rng.randint(0, 5) for _ in range(3))
        if u != zero:
            assert compare(u, zero, o) == "Greater"


def test_weighted_revlex_cheapest_variable_is_smallest():
    o = weighted_revlex((1, 1, 1), cheapest=1)
    # among the three variables, x2 must be the cheapest
    assert compare((0, 1, 0), (1, 0, 0), o) == "Less"
    assert compare((0, 1, 0), (0, 0, 1), o) == "Less"
    with pytest.raises(GuardViolated):
        weighted_revlex((1, 0, 1), cheapest=0)


def test_orient_splits_on_lead():
    o = degrevlex(4)
    b = orient((1, -2, 1, 0), o)
    assert b.lead == (0, 0, 1, 0) or sum(b.lead) >= 1
    # lead really is the larger side
    assert compare(b.lead, b.trail, o) == "Greater"
    b2 = orient((-1, 2, -1, 0), o)
    assert (b2.lead, b2.trail) == (b.lead, b.trail)
    with pytest.raises(ZeroVector):
        orient((0, 0, 0, 0), o)


def test_keys_usable_for_sorting():
    o = degrevlex(2)
    monos = [(2, 0), (0, 2), (1, 1), (0, 0), (1, 0)]
    ordered = sorted(monos, key=o.key)
    assert ordered[0] == (0, 0)
    assert ordered[-1] == (2, 0)
