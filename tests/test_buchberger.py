import random

import pytest

from toricgb.buchberger import (
    Binomial,
    buchberger,
    normal_form,
    s_binomial,
)
from toricgb.errors import Budget, GuardViolated
from toricgb.oracle import orient, passes_buchberger_criterion
from toricgb.orders import degrevlex, lex, term_order
from toricgb.toric import ConfigMatrix, toric_generators

TWISTED = ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def assert_reduced(G):
    # no lead divides another lead, and no trail is divisible by any lead
    for i, g in enumerate(G):
        for j, h in enumerate(G):
            assert i == j or not divides(h.lead, g.lead)
            assert not divides(h.lead, g.trail)


def test_binomial_carries_both_sides():
    b = Binomial((2, 1, 0, 0), (0, 2, 1, 0))
    assert b.vector == (2, -1, -1, 0)


def test_twisted_cubic_reduced_basis():
    from toricgb.toric import normalize_sign

    G = buchberger(toric_generators(TWISTED), degrevlex(4))
    assert_reduced(G)
    assert sorted(normalize_sign(v) for v in G.vectors) == [
        (0, 1, -2, 1),
        (1, -2, 1, 0),
        (1, -1, -1, 1),
    ]


def test_reduced_basis_leads_form_antichain():
    G = buchberger(toric_generators(TWISTED), degrevlex(4))
    leads = [g.lead for g in G]
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not all(x <= y for x, y in zip(a, b))


def test_trails_are_in_normal_form():
    # in a reduced basis no trail exponent is divisible by any lead
    G = buchberger(toric_generators(TWISTED), degrevlex(4))
    for g in G:
        assert normal_form(g.trail, G) == g.trail


def test_s_pairs_reduce_to_zero():
    G = buchberger(toric_generators(TWISTED), degrevlex(4))
    assert passes_buchberger_criterion(G)


def test_s_binomial_both_terms_under_lcm():
    o = degrevlex(3)
    f = orient((1, -1, 0), o)
    g = orient((0, 1, -1), o)
    s = s_binomial(f, g, o)
    if s is not None:
        assert o.key(s.lead) > o.key(s.trail)
    assert s_binomial(f, f, o) is None


def test_normal_form_is_idempotent_and_order_independent_start():
    G = buchberger(toric_generators(TWISTED), degrevlex(4))
    rng = random.Random(31)
    for _ in range(100):
        u = tuple(rng.randint(0, 5) for _ in range(4))
        nf = normal_form(u, G)
        assert normal_form(nf, G) == nf
        # the normal form stays in the same fiber
        assert TWISTED.matrix.mulvec(nf) == TWISTED.matrix.mulvec(u)


def test_two_points_of_a_fiber_share_a_normal_form():
    G = buchberger(toric_generators(TWISTED), degrevlex(4))
    # (3,0,0,0) and (0,3,0,... ) style pairs: same image under A
    u = (2, 1, 1, 0)
    v = (1, 3, 0, 0)
    assert TWISTED.matrix.mulvec(u) == TWISTED.matrix.mulvec(v)
    assert normal_form(u, G) == normal_form(v, G)


def test_normal_form_rejects_negative_exponents():
    G = buchberger(toric_generators(TWISTED), degrevlex(4))
    with pytest.raises(GuardViolated):
        normal_form((-1, 0, 0, 0), G)


def test_buchberger_under_lex_still_reduced():
    G = buchberger(toric_generators(TWISTED), lex(4))
    assert_reduced(G)
    assert passes_buchberger_criterion(G)
    nf = normal_form((0, 0, 0, 4), G)
    assert TWISTED.matrix.mulvec(nf) == (4, 12)


def test_weight_order_changes_initial_ideal():
    gens = toric_generators(TWISTED)
    G1 = buchberger(gens, term_order(4, weight=(0, 10, 0, 0)))
    G2 = buchberger(gens, term_order(4, weight=(10, 0, 0, 10)))
    leads1 = sorted(g.lead for g in G1)
    leads2 = sorted(g.lead for g in G2)
    assert leads1 != leads2


def test_basis_generates_same_lattice():
    # every input generator must reduce to zero against the basis
    gens = toric_generators(TWISTED)
    o = term_order(4, weight=(3, 1, 4, 1))
    G = buchberger(gens, o)
    for g in gens:
        b = orient(g.vector if isinstance(g, Binomial) else g, o)
        assert normal_form(b.lead, G) == normal_form(b.trail, G)


def test_empty_generating_set():
    G = buchberger([], degrevlex(3))
    assert len(G) == 0
    assert normal_form((1, 2, 3), G) == (1, 2, 3)


def test_pair_budget_trips():
    from toricgb.errors import LimitExceeded

    gens = toric_generators(TWISTED)
    with pytest.raises(LimitExceeded):
        buchberger(gens, degrevlex(4), Budget(pairs=1))
    # a generous budget must not interfere with a run that completes
    G = buchberger(gens, degrevlex(4), Budget(pairs=10_000))
    assert len(G) == 3
