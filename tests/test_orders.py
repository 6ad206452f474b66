import random
from fractions import Fraction

import pytest

from toricgb.errors import GuardViolated, ZeroVector
from toricgb.oracle import orient
from toricgb.orders import (
    degrevlex,
    lex,
    term_order,
    weighted_revlex,
)


def test_lex_basic():
    o = lex(3)
    assert o.key((1, 0, 0)) > o.key((0, 5, 5))
    assert o.key((1, 1, 0)) > o.key((1, 0, 7))
    assert o.key((2, 0, 0)) == o.key((2, 0, 0))


def test_lex_permutation_reorders_precedence():
    o = lex(3, permutation=(2, 1, 0))  # x3 most expensive
    assert o.key((5, 0, 0)) < o.key((0, 0, 1))


def test_lex_and_degrevlex_are_term_order_shorthands_seeded():
    # the layers and precedence are built in term_order alone; each
    # shorthand must give the very order term_order gives
    rng = random.Random(33)
    draws = {
        "none": lambda n: None,
        "int": lambda n: tuple(rng.randint(0, 9) for _ in range(n)),
        "negative": lambda n: tuple(rng.randint(-9, 9) for _ in range(n)),
        "fraction": lambda n: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                    for _ in range(n)),
    }
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        p = None if rng.random() < 0.3 else rng.sample(range(n), n)
        kind = rng.choice(sorted(draws))
        w = draws[kind](n)
        seen.add((kind, p is None))
        assert lex(n, p) == term_order(n, tiebreak="lex", permutation=p)
        assert degrevlex(n, w, p) == term_order(n, weight=w, permutation=p)
    assert len(seen) == 2 * len(draws)


def test_degrevlex_classic_comparison():
    # same total degree: revlex prefers the monomial missing the cheap end
    o = degrevlex(3)
    assert o.key((0, 2, 0)) > o.key((1, 0, 1))  # x2^2 > x1 x3
    assert o.key((1, 1, 0)) > o.key((1, 0, 1))
    assert o.key((3, 0, 0)) > o.key((0, 0, 2))  # degree wins first


def test_degrevlex_vs_lex_differ():
    o1, o2 = degrevlex(3), lex(3)
    u, v = (1, 0, 1), (0, 2, 0)
    assert o1.key(u) < o1.key(v)
    assert o2.key(u) > o2.key(v)


def test_weight_layer_dominates():
    o = term_order(3, weight=(0, 1, 0))
    assert o.key((0, 1, 0)) > o.key((4, 0, 4))


def test_rational_weights_cleared():
    o = term_order(2, weight=(Fraction(1, 2), Fraction(1, 3)))
    assert o.layers[0] == (3, 2)
    assert term_order(3, weight=(Fraction(-3, 4), 2, 0)).layers[0] == (-3, 8, 0)
    # integer weights are kept as they are, negative entries too
    assert term_order(3, weight=[4, -6, 0]).layers[0] == (4, -6, 0)


def test_elimination_block_property():
    # any monomial touching the block beats any monomial outside it
    o = term_order(4, weight=(0, 0, 5, 5), elimination_block=2)
    assert o.key((0, 1, 0, 0)) > o.key((0, 0, 9, 9))
    assert o.key((1, 0, 0, 0)) != o.key((0, 1, 0, 0))


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
            # keys are tuples, so two of them are equal, less or greater
            ku, kv = o.key(u), o.key(v)
            assert (ku == kv) == (u == v)
            kuw = o.key(tuple(a + b for a, b in zip(u, w)))
            kvw = o.key(tuple(a + b for a, b in zip(v, w)))
            assert (kuw < kvw, kuw == kvw) == (ku < kv, ku == kv)


def test_degrevlex_is_a_well_order_on_monomials():
    o = degrevlex(3)
    rng = random.Random(23)
    zero = (0, 0, 0)
    for _ in range(200):
        u = tuple(rng.randint(0, 5) for _ in range(3))
        if u != zero:
            assert o.key(u) > o.key(zero)


def test_weighted_revlex_cheapest_variable_is_smallest():
    o = weighted_revlex((1, 1, 1), cheapest=1)
    # among the three variables, x2 must be the cheapest
    assert o.key((0, 1, 0)) < o.key((1, 0, 0))
    assert o.key((0, 1, 0)) < o.key((0, 0, 1))
    with pytest.raises(GuardViolated):
        weighted_revlex((1, 0, 1), cheapest=0)


def test_orient_splits_on_lead():
    o = degrevlex(4)
    b = orient((1, -2, 1, 0), o)
    assert b.lead == (0, 0, 1, 0) or sum(b.lead) >= 1
    # lead really is the larger side
    assert o.key(b.lead) > o.key(b.trail)
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
