import random

import pytest
from hypothesis import given, settings, strategies as st

from toricgb.buchberger import (
    Binomial,
    _Packing,
    buchberger,
    normal_form,
    s_binomial,
)
from toricgb.errors import Budget, GuardViolated
from toricgb.oracle import orient, passes_buchberger_criterion
from toricgb.orders import degrevlex, lex, term_order, weighted_revlex
from toricgb.toric import ConfigMatrix, toric_generators, toric_groebner

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


# A basis {z^49488 - x y^2, y^4 - x y^2 z^49487} for the kernel of
# (2, 98975, 4) would let two elements alternate one step at a time, so
# z^k would take about k / 49 steps.  No reduced basis under
# weighted_revlex(grading, cheapest) is that basis: with cheapest x, y
# or z, z^(10^7) reduces in 1, 2 and 0 multi-steps.
@pytest.mark.parametrize("cheapest, steps", [(0, 1), (1, 2), (2, 0)])
def test_normal_form_of_a_high_power_takes_few_steps(monkeypatch, cheapest, steps):
    import toricgb.buchberger as engine

    A = ConfigMatrix(((2, 98975, 4),))
    G = toric_groebner(A, weighted_revlex(A.grading, cheapest=cheapest))
    calls = []
    real = engine._Reducer._step
    monkeypatch.setattr(engine._Reducer, "_step",
                        lambda self, e, u: calls.append(e) or real(self, e, u))
    nf = normal_form((0, 0, 10**7), G)
    assert not any(divides(g.lead, nf) for g in G.elements)
    assert len(calls) == steps <= 2


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
    # no variables at all: the packing has no fields to scale keys by
    assert len(buchberger([], degrevlex(0))) == 0


def test_pair_budget_trips():
    from toricgb.errors import LimitExceeded

    gens = toric_generators(TWISTED)
    with pytest.raises(LimitExceeded):
        buchberger(gens, degrevlex(4), Budget(pairs=1))
    # a generous budget must not interfere with a run that completes
    G = buchberger(gens, degrevlex(4), Budget(pairs=10_000))
    assert len(G) == 3


# one order of each kind the engine runs under, three with negative weights
KEY_ORDERS = [
    degrevlex(4),
    degrevlex(4, weight=(3, 0, 1, 2)),
    degrevlex(4, weight=(2, -3, 0, 1), permutation=(2, 0, 3, 1)),
    lex(4),
    lex(4, (3, 1, 0, 2)),
    weighted_revlex((1, 2, 3, 1), 2),
    term_order(4, weight=(1, 4, 0, 2), elimination_block=2),
    term_order(4, weight=(-1, 2, 0, -3), tiebreak="lex", elimination_block=1),
    term_order(4, weight=(5, -2, 1, 0), permutation=(1, 3, 0, 2)),
]
# 128-bit fields have no struct code, so they unpack by shifts
KEY_WIDTHS = (16, 32, 64, 128)


def sign(x):
    return (x > 0) - (x < 0)


def extreme_fields(width):
    """Field values at the ends and the middle of a field's range."""
    h = 1 << (width - 1)
    return (0, 1, 2, h // 2 - 1, h // 2, h // 2 + 1, h - 2, h - 1)


def assert_int_key_is_the_tuple_key(pk, o, monomials):
    """pk.key orders the monomials as o.key does, and is linear."""
    cases = [(u, pk.pack(u), o.key(u)) for u in monomials]
    for u, P, tu in cases:
        for v, Q, tv in cases:
            assert sign(pk.key(P) - pk.key(Q)) == (tu > tv) - (tu < tv), (u, v)
            if max(map(sum, zip(u, v))) < pk.half:
                assert pk.key(P + Q) == pk.key(P) + pk.key(Q)


@pytest.mark.parametrize("width", KEY_WIDTHS)
@pytest.mark.parametrize("o", KEY_ORDERS, ids=range(len(KEY_ORDERS)))
def test_int_key_orders_as_the_tuple_key_seeded(o, width):
    # single-variable monomials at the ends of the field range are the
    # pairs where the lower rows and the tie-break pull hardest against
    # a row that differs by one; random ones fill in between
    n = o.n
    values = extreme_fields(width)
    rng = random.Random(width)
    monomials = {tuple(c if i == j else 0 for j in range(n)) for c in values for i in range(n)}
    monomials |= {tuple(rng.choice(values) for _ in range(n)) for _ in range(20)}
    monomials |= {tuple(rng.randrange(1 << (width - 1)) for _ in range(n)) for _ in range(10)}
    assert_int_key_is_the_tuple_key(_Packing(n, width, o), o, sorted(monomials))


@st.composite
def key_problems(draw):
    n = draw(st.integers(1, 5))
    width = draw(st.sampled_from(KEY_WIDTHS))
    weight = draw(st.none() | st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    permutation = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(("degrevlex", "lex", "term_order")))
    if kind == "degrevlex":
        o = degrevlex(n, weight, permutation)
    elif kind == "lex":
        o = lex(n, permutation)
    else:
        o = term_order(n, weight, draw(st.sampled_from(("degrevlex", "lex"))),
                       permutation, draw(st.integers(0, n)))
    field = st.sampled_from(extreme_fields(width)) | st.integers(0, (1 << (width - 1)) - 1)
    monomial = st.lists(field, min_size=n, max_size=n).map(tuple)
    return o, width, draw(st.lists(monomial, min_size=2, max_size=4))


@settings(max_examples=300, deadline=None)
@given(key_problems())
def test_int_key_orders_as_the_tuple_key(problem):
    o, width, monomials = problem
    assert_int_key_is_the_tuple_key(_Packing(o.n, width, o), o, monomials)
