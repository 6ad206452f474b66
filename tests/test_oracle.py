"""Cross-checks of the brute-force reference implementations."""

import contextlib
import random
import signal

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from toricgb.buchberger import buchberger, normal_form
from toricgb.errors import DimensionMismatch, LimitExceeded
from toricgb.fan import MonomialIdeal, enumerate_initial_ideals
from toricgb.oracle import (
    buchberger_every_pair,
    graver_bruteforce,
    irreducible_decomposition,
    kernel_vectors_up_to,
    single_step_normal_form,
    toric_generators_every_variable,
    universal_gb_every_cell,
    weight_grid_initial_ideals,
)
from toricgb.orders import degrevlex, lex, term_order, weighted_revlex
from toricgb.toric import (
    ConfigMatrix,
    graver,
    normalize_sign,
    toric_generators,
    universal_gb,
)

TWISTED = ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))


def test_kernel_vectors_small_degrees():
    assert kernel_vectors_up_to(TWISTED, 2) == [
        (0, 1, -2, 1),
        (1, -2, 1, 0),
        (1, -1, -1, 1),
    ]
    for v in kernel_vectors_up_to(TWISTED, 4):
        assert TWISTED.matrix.mulvec(v) == (0, 0)
        assert v == normalize_sign(v)


def test_kernel_vector_monomial_guard():
    with pytest.raises(LimitExceeded):
        kernel_vectors_up_to(TWISTED, 6, max_monomials=10)


def test_bruteforce_graver_matches_algebraic_graver():
    expected = sorted(normalize_sign(v) for v in graver(TWISTED))
    assert graver_bruteforce(TWISTED, 3) == expected
    line = ConfigMatrix(((1, 2),))
    assert graver_bruteforce(line, 2) == [(2, -1)]
    assert sorted(normalize_sign(v) for v in graver(line)) == [(2, -1)]


def test_bruteforce_graver_random_small_configs():
    rng = random.Random(71)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 4)
        rows = tuple(
            tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(1, 2))
        )
        if not any(any(r) for r in rows):
            continue
        A = ConfigMatrix(rows)
        if not A.pointed:
            continue
        try:
            grv = sorted(normalize_sign(v) for v in graver(A, max_degree=12))
        except LimitExceeded:
            continue
        bound = max((A.degree(v) for v in grv), default=1)
        assert graver_bruteforce(A, bound) == grv
        checked += 1


def test_single_step_reduction_agrees_with_kstep():
    rng = random.Random(73)
    gens = toric_generators(TWISTED)
    for _ in range(20):
        w = tuple(rng.randint(-4, 4) for _ in range(4))
        G = buchberger(gens, term_order(4, weight=w))
        for _ in range(10):
            u = tuple(rng.randint(0, 6) for _ in range(4))
            assert normal_form(u, G) == single_step_normal_form(u, G)


def test_weight_grid_finds_exactly_the_fan_cells():
    grid = weight_grid_initial_ideals(TWISTED, 2, degbound=3)
    full = {I for I, _ in enumerate_initial_ideals(TWISTED)}
    assert len(grid) == len(set(grid)) == 8
    assert set(grid) == full


def test_weight_grid_radius_one_is_a_lower_bound():
    grid = weight_grid_initial_ideals(TWISTED, 1, degbound=4)
    full = {I for I, _ in enumerate_initial_ideals(TWISTED)}
    assert set(grid) <= full


def pointed_configs(rng, count):
    """Small pointed configurations with 2 to 14 Graver elements.

    About two in five start with the all-ones row; the rest have entries
    in [-1, 3], so their grading comes from the feasibility search.
    """
    while count:
        ones_row = rng.random() < 0.4
        d = rng.randint(2 if ones_row else 1, 3)
        n = rng.randint(d + 1, 5)
        lo = 0 if ones_row else -1
        rows = [tuple(rng.randint(lo, 3) for _ in range(n)) for _ in range(d)]
        if ones_row:
            rows[0] = (1,) * n
        try:
            A = ConfigMatrix(rows)
        except DimensionMismatch:
            continue
        if not A.pointed or A.n == A.d:
            continue
        try:
            size = len(graver(A, max_degree=20))
        except LimitExceeded:
            continue
        if 2 <= size <= 14:
            count -= 1
            yield A


def test_universal_gb_matches_every_cell_enumeration():
    other_first_row = 0
    for A in pointed_configs(random.Random(7), 80):
        ugb, ideals, witnesses, bases = universal_gb(A)
        assert (ugb, ideals, witnesses) == universal_gb_every_cell(A), A.original
        gens = toric_generators(A)
        for w, G in zip(witnesses, bases):
            assert G == buchberger(gens, term_order(A.n, weight=w)), A.original
        other_first_row += A.original.row(0) != (1,) * A.n
    assert other_first_row >= 10


def test_irreducible_decomposition_of_monomial_ideal():
    I = MonomialIdeal([(2, 0), (1, 1)], 2)
    comps = irreducible_decomposition(I)
    assert [c.gens for c in comps] == [((0, 1), (2, 0)), ((1, 0),)]
    # every component is generated by pure powers and contains the ideal
    for c in comps:
        assert all(sum(1 for e in g if e) == 1 for g in c.gens)
        assert all(c.contains(g) for g in I.gens)
    # intersecting back recovers exactly the original ideal
    for m in [(x, y) for x in range(4) for y in range(4)]:
        assert I.contains(m) == all(c.contains(m) for c in comps)


def test_irreducible_decomposition_guards():
    with pytest.raises(LimitExceeded):
        irreducible_decomposition(MonomialIdeal([(1, 1, 1, 1, 1)], 5))
    with pytest.raises(LimitExceeded):
        irreducible_decomposition(MonomialIdeal([(9, 1)], 2))


ORDER_KINDS = ("degrevlex", "lex", "weighted_revlex", "elimination")


def order_of_kind(kind, weight, permutation, k, tiebreak, grading):
    """One order of each kind the engine serves, from drawn parameters."""
    n = len(weight)
    if kind == "degrevlex":
        return degrevlex(n, weight=weight)
    if kind == "lex":
        return lex(n, permutation)
    if kind == "weighted_revlex":
        return weighted_revlex(grading, cheapest=k)
    return term_order(n, weight=weight, tiebreak=tiebreak,
                      elimination_block=1 + k)


def pointed_or_none(rows):
    """ConfigMatrix of rows if it is pointed with a nonzero kernel, else None."""
    try:
        A = ConfigMatrix(rows)
    except DimensionMismatch:
        return None
    return A if A.pointed and A.n > A.d else None


def small_config(rows):
    """ConfigMatrix of rows, or None unless it is pointed with a small kernel.

    The kernel lattice basis must be nonzero with entries of at most 4:
    the every-pair engine can take many seconds beyond that.
    """
    A = pointed_or_none(rows)
    if A is None:
        return None
    return A if max(abs(x) for v in A.kernel_basis().entries for x in v) <= 4 else None


@contextlib.contextmanager
def time_limit(seconds):
    # wrong order keys can make a reduction cycle inside a fiber; that
    # must fail the test, not stall the suite
    def expire(signum, frame):
        raise AssertionError(f"no basis within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_same_basis(gens, order):
    with time_limit(10):
        G = buchberger(gens, order)
        assert G.elements == buchberger_every_pair(gens, order).elements, (gens, order)


@st.composite
def orders(draw, n, grading, low):
    """An order of any kind on n variables, weights drawn from [low, 5]."""
    return order_of_kind(
        draw(st.sampled_from(ORDER_KINDS)),
        tuple(draw(st.lists(st.integers(low, 5), min_size=n, max_size=n))),
        draw(st.permutations(range(n))),
        draw(st.integers(0, n - 1)),
        draw(st.sampled_from(("degrevlex", "lex"))),
        grading,
    )


@st.composite
def config_problems(draw):
    """The kernel lattice basis of a small pointed configuration.

    Every such basis is homogeneous for the grading, so weights may be
    negative.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 5))
    ones = draw(st.booleans())
    entry = st.integers(0 if ones else -1, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=d, max_size=d))
    if ones:
        rows[0] = [1] * n
    A = small_config(rows)
    assume(A is not None)
    return A.kernel_basis().entries, draw(orders(n, A.grading, -5))


@st.composite
def vector_problems(draw):
    """A few small lattice vectors under a well-order.

    These ideals need not be homogeneous, and their many small leads
    share lcms far more often than toric ones do.
    """
    n = draw(st.integers(3, 4))
    vector = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    gens = draw(st.lists(vector, min_size=2, max_size=3))
    return [tuple(v) for v in gens], draw(orders(n, (1,) * n, 0))


@settings(max_examples=200, deadline=None)
@given(st.one_of(config_problems(), vector_problems()))
def test_buchberger_matches_every_pair_engine(problem):
    assert_same_basis(*problem)


def test_buchberger_matches_every_pair_engine_seeded():
    rng = random.Random(17)
    for count in range(400):
        kind = ORDER_KINDS[count // 2 % len(ORDER_KINDS)]
        if count % 2:
            n = rng.randint(3, 4)
            gens = [tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(rng.randint(2, 3))]
            grading, low = (1,) * n, 0
        else:
            A = None
            while A is None:
                n = rng.randint(3, 5)
                rows = [tuple(rng.randint(-1, 3) for _ in range(n))
                        for _ in range(rng.randint(1, n - 1))]
                if rng.random() < 0.5:
                    rows[0] = (1,) * n
                A = small_config(rows)
            gens = A.kernel_basis().entries
            if rng.random() < 0.3:
                gens = toric_generators(A)
            grading, low = A.grading, -5
        order = order_of_kind(
            kind, tuple(rng.randint(low, 5) for _ in range(n)),
            rng.sample(range(n), n), rng.randrange(n),
            rng.choice(("degrevlex", "lex")), grading)
        assert_same_basis(gens, order)


# Kernel lattice basis (2, 3, 1, -3, -2, 4), (0, 6, 0, -3, -3, 5),
# (0, 0, 3, -2, 0, 0): no leading entry is 1, and the grading is not
# all-ones
NO_UNIT_PIVOT = ((0, 1, 2, 3, 4, 3), (2, 3, 2, 3, 3, 0), (1, 2, 0, 0, 4, 0))


def assert_same_toric_ideal(A):
    with time_limit(10):
        assert toric_generators(A) == toric_generators_every_variable(A), A.original


@st.composite
def small_pointed_configs(draw):
    """A pointed configuration of 1 to 3 rows and at most 6 columns.

    Entries lie in [-1, 3], or in [0, 3] under an all-ones first row:
    saturating every variable takes seconds on some configurations with
    entries of 4 or with 7 columns.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 6))
    ones = d > 1 and draw(st.booleans())
    entry = st.integers(0 if ones else -1, 3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=d, max_size=d))
    if ones:
        rows[0] = [1] * n
    A = pointed_or_none(rows)
    assume(A is not None)
    return A


@settings(max_examples=200, deadline=None)
@given(small_pointed_configs())
@example(ConfigMatrix(NO_UNIT_PIVOT))
def test_toric_generators_match_saturating_every_variable(A):
    assert_same_toric_ideal(A)


def test_toric_generators_match_saturating_every_variable_seeded():
    rng = random.Random(29)
    seen = {"pivot above 1": 0, "all-ones grading": 0, "other grading": 0}
    checked = [ConfigMatrix(NO_UNIT_PIVOT)]
    while len(checked) < 300:
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        ones = d > 1 and rng.random() < 0.3
        rows = [[rng.randint(0 if ones else -1, 3) for _ in range(n)]
                for _ in range(d)]
        if ones:
            rows[0] = [1] * n
        A = pointed_or_none(rows)
        if A is not None:
            checked.append(A)
    for A in checked:
        assert_same_toric_ideal(A)
        K = A.kernel_basis().entries
        seen["pivot above 1"] += any(next(x for x in row if x) > 1 for row in K)
        seen["all-ones grading" if A.grading == (1,) * A.n else "other grading"] += 1
    assert min(seen.values()) >= 50, seen
