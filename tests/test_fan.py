"""Gröbner cones, triangulations, Stanley-Reisner, chain condition."""

import random

import pytest

from toricgb.buchberger import buchberger
from toricgb.errors import (
    Budget,
    DimensionMismatch,
    LimitExceeded,
    NonGenericOmega,
    ToricError,
)
from toricgb.exactmath import dot
from toricgb.fan import (
    Cone,
    MonomialIdeal,
    SimplicialComplex,
    assoc_primes_monomial,
    check_chain_property,
    check_radical_triangulation,
    groebner_cone,
    is_squarefree,
    regular_triangulation,
    stanley_reisner,
)
from toricgb.oracle import is_face, radical_monomial
from toricgb.orders import term_order
from toricgb.toric import ConfigMatrix, toric_generators, universal_gb

TWISTED = ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))
SEGMENT = ConfigMatrix(((1, 1, 1), (0, 1, 2)))


def test_monomial_ideal_minimalizes_generators():
    I = MonomialIdeal([(2, 0), (1, 1), (2, 1), (1, 1)], 2)
    assert I.gens == ((1, 1), (2, 0))
    assert I.contains((3, 0))
    assert I.contains((1, 1))
    assert not I.contains((1, 0))
    assert not I.is_zero


def test_monomial_ideal_zero_and_unit():
    Z = MonomialIdeal([], 3)
    assert Z.is_zero
    assert not Z.contains((0, 0, 0))
    U = MonomialIdeal([(0, 0, 0), (1, 2, 0)], 3)
    assert U.gens == ((0, 0, 0),)
    assert U.contains((0, 0, 0))


def test_monomial_ideal_validation():
    with pytest.raises(DimensionMismatch):
        MonomialIdeal([(1, 0)], 3)
    with pytest.raises(ToricError):
        MonomialIdeal([(1, -1)], 2)


def test_simplicial_complex_validation():
    delta = SimplicialComplex(4, ((2, 0), (1, 2), (3,)))
    assert delta.facets == ((0, 2), (1, 2), (3,))
    assert is_face(delta, ())
    assert is_face(delta, (2,))
    assert not is_face(delta, (0, 1))
    with pytest.raises(ToricError):
        SimplicialComplex(3, ((0, 0),))
    with pytest.raises(ToricError):
        SimplicialComplex(3, ((0, 1), (0,)))
    with pytest.raises(DimensionMismatch):
        SimplicialComplex(2, ((0, 5),))


def test_groebner_cone_of_twisted_cubic():
    G = buchberger(toric_generators(TWISTED), term_order(4, weight=(2, 1, 1, 3)))
    cone = groebner_cone(G)
    assert cone.facet_count == 2
    assert cone.lineality_dim == 2
    assert cone.contains((2, 1, 1, 3), strict=True)
    assert isinstance(cone, Cone)


def test_cone_membership_matches_recomputed_bases():
    # interior weights reproduce the basis; exterior ones change a lead
    G = buchberger(toric_generators(TWISTED), term_order(4, weight=(2, 1, 1, 3)))
    cone = groebner_cone(G)
    rng = random.Random(67)
    seen_in = seen_out = 0
    for _ in range(120):
        w = tuple(rng.randint(-4, 4) for _ in range(4))
        dots = [dot(g.vector, w) for g in G.elements]
        assert cone.contains(w, strict=True) == all(x > 0 for x in dots)
        if any(x == 0 for x in dots):
            continue  # boundary: the tie-break decides, either way is fine
        H = buchberger(toric_generators(TWISTED), term_order(4, weight=w))
        same = sorted(H.vectors) == sorted(G.vectors)
        assert same == all(x > 0 for x in dots)
        seen_in += same
        seen_out += not same
    assert seen_in and seen_out


def test_cone_of_degree_345_curve():
    A = ConfigMatrix(((15, 247, 248, 345),))
    G = buchberger(toric_generators(A), term_order(4, weight=(111, 0, 341, 1)))
    cone = groebner_cone(G)
    assert len(G) == 28
    assert cone.facet_count == 5
    assert cone.lineality_dim == 1
    assert cone.contains((111, 0, 341, 1), strict=True)


def test_triangulation_fine_and_coarse():
    fine = regular_triangulation(SEGMENT, (0, 0, 1))
    assert fine.facets == ((0, 1), (1, 2))
    # lifting a vertex of the segment keeps it on the lower hull
    assert regular_triangulation(SEGMENT, (1, 0, 0)).facets == fine.facets
    coarse = regular_triangulation(SEGMENT, (0, 1, 0))
    assert coarse.facets == ((0, 2),)


def test_triangulation_degenerate_weight():
    with pytest.raises(NonGenericOmega):
        regular_triangulation(SEGMENT, (0, 0, 0))


def test_triangulation_of_identity_is_one_simplex():
    I3 = ConfigMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert regular_triangulation(I3, (0, 0, 0)).facets == ((0, 1, 2),)


# the points (0,0), (2,0), (2,2), (0,2), (1,-2), (4,1), (1,4), (-2,1),
# homogenized; heights x^2 + y^2 put the four square corners on one plane
SQUARE = ConfigMatrix(((1,) * 8, (0, 2, 2, 0, 1, 4, 1, -2),
                       (0, 0, 2, 2, -2, 1, 4, 1)))
SQUARE_HEIGHTS = (0, 4, 8, 4, 5, 17, 17, 5)


def test_triangulation_rejects_the_uncovered_square():
    # eight triangles share every edge of the square, so each column is
    # covered and every maximal face is a simplex, yet the square is a cell
    with pytest.raises(NonGenericOmega, match="not generic"):
        regular_triangulation(SQUARE, SQUARE_HEIGHTS)


def test_triangulation_makes_no_fm_solve_or_hnf_call(monkeypatch):
    # each name is patched in exactmath and wherever fan binds it
    import toricgb.exactmath as exactmath
    import toricgb.fan as fan

    calls = []

    def recording(real, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("feasible_witness", "solve_affine", "hnf"):
        for module in (exactmath, fan):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recording(getattr(module, name), name))
    delta = regular_triangulation(TWISTED, (3, 1, 0, 2))
    assert delta.facets == ((0, 1), (1, 2), (2, 3))
    assert calls == []


def test_triangulation_guards():
    with pytest.raises(DimensionMismatch):
        regular_triangulation(SEGMENT, (0, 0))
    with pytest.raises(LimitExceeded):
        regular_triangulation(SEGMENT, (0, 0, 1), Budget(subsets=1))


def test_stanley_reisner_of_path():
    fine = regular_triangulation(SEGMENT, (0, 0, 1))
    assert stanley_reisner(fine).gens == ((1, 0, 1),)
    full = SimplicialComplex(3, ((0, 1, 2),))
    assert stanley_reisner(full).is_zero


def test_stanley_reisner_of_void_and_empty_complexes():
    # the void complex has no face, not even the empty one, so its ideal
    # is the unit ideal; the complex {{}} has only the empty face, and
    # every vertex is a minimal non-face
    assert stanley_reisner(SimplicialComplex(3, ())).gens == ((0, 0, 0),)
    empty = SimplicialComplex(3, ((),))
    assert stanley_reisner(empty).gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_radical_and_squarefree():
    I = MonomialIdeal([(2, 0), (1, 1)], 2)
    assert not is_squarefree(I)
    R = radical_monomial(I)
    assert R.gens == ((1, 0),)
    assert is_squarefree(R)


def test_radical_of_initial_ideal_matches_triangulation():
    assert check_radical_triangulation(TWISTED, (3, 1, 0, 2))
    assert check_radical_triangulation(TWISTED, (1, 0, 0, 2))


def test_radical_check_rejects_wall_weight():
    # equal weights zero out a basis binomial, so the fan wall is detected
    with pytest.raises(NonGenericOmega):
        check_radical_triangulation(TWISTED, (1, 1, 1, 1))


def test_associated_primes_of_small_ideals():
    assert assoc_primes_monomial(MonomialIdeal([(1, 1)], 2)) == [(0,), (1,)]
    assert assoc_primes_monomial(
        MonomialIdeal([(2, 0), (1, 1)], 2)
    ) == [(0,), (0, 1)]
    assert assoc_primes_monomial(MonomialIdeal([], 2)) == []


def test_associated_primes_are_capped_by_the_subsets_budget():
    # no fixed cap on the variables: the 2^13 grid of x_0 ... x_12 is
    # counted against budget.subsets as it grows
    I = MonomialIdeal([(1,) * 13], 13)
    assert assoc_primes_monomial(I) == [(i,) for i in range(13)]
    with pytest.raises(LimitExceeded) as info:
        assoc_primes_monomial(I, Budget(subsets=1000))
    assert info.value.guard == "subsets"


def test_chain_property_holds_for_toric_initial_ideal():
    G = buchberger(toric_generators(TWISTED), term_order(4, weight=(2, 1, 1, 3)))
    assert check_chain_property(MonomialIdeal([g.lead for g in G.elements], 4))


def test_chain_property_fails_for_crafted_ideal():
    # embedded primes on three variables, none on two: the chain breaks
    I = MonomialIdeal([(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 1)], 4)
    assert assoc_primes_monomial(I) == [(0,), (0, 1, 2), (0, 1, 3)]
    assert not check_chain_property(I)


def test_initial_ideal_enumeration_of_twisted_cubic():
    _, ideals, witnesses, _ = universal_gb(TWISTED)
    assert len(ideals) == len(witnesses) == 8
    assert len(set(ideals)) == 8
    for I, w in list(zip(ideals, witnesses))[:3]:
        G = buchberger(toric_generators(TWISTED), term_order(4, weight=w))
        assert MonomialIdeal([g.lead for g in G.elements], 4) == I
