"""Cross-checks of the brute-force reference implementations."""

import contextlib
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import toricgb.buchberger as engine
import toricgb.ip as ip
import toricgb.toric as toric
from toricgb.buchberger import Binomial, buchberger, normal_form
from toricgb.cli import generate
from toricgb.errors import Budget, DimensionMismatch, LimitExceeded, NonGenericOmega
from toricgb.exactmath import IntMatrix, solve_affine
from toricgb.fan import (
    Cone,
    MonomialIdeal,
    SimplicialComplex,
    groebner_cone,
    groebner_fan,
    regular_triangulation,
    stanley_reisner,
)
from toricgb.ip import IPInstance, _graded_feasible, solve_ip, solve_ip_elimination
from toricgb.oracle import (
    basis_pattern_by_minimal_generators,
    buchberger_every_pair,
    cone_facets_by_leaf_scan,
    det_bareiss,
    graded_feasible_every_point,
    graver_bruteforce,
    irreducible_decomposition,
    kernel_vectors_up_to,
    multi_step_normal_form,
    orient,
    passes_buchberger_criterion,
    regular_triangulation_every_subset,
    sign_tree_leaves_every_prefix,
    single_step_normal_form,
    stanley_reisner_by_nonfaces,
    strict_feasible_by_elimination,
    toric_generators_every_variable,
    universal_gb_every_cell,
    weight_grid_initial_ideals,
)
from toricgb.orders import degrevlex, lex, term_order, weighted_revlex
from toricgb.toric import (
    ConfigMatrix,
    _canonical_order,
    _lift,
    _sign_tree,
    circuits,
    degree_bound,
    graver,
    normalize_sign,
    saturate_variable,
    saturation_columns,
    toric_generators,
    toric_groebner,
    universal_gb,
)

from test_toric import record_calls, saturations

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
            grv = sorted(normalize_sign(v) for v in graver(A, Budget(degree=12)))
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
    full = set(universal_gb(TWISTED)[1])
    assert len(grid) == len(set(grid)) == 8
    assert set(grid) == full


def test_weight_grid_radius_one_is_a_lower_bound():
    grid = weight_grid_initial_ideals(TWISTED, 1, degbound=4)
    full = set(universal_gb(TWISTED)[1])
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
            size = len(graver(A, Budget(degree=20)))
        except LimitExceeded:
            continue
        if 2 <= size <= 14:
            count -= 1
            yield A


@pytest.mark.extended
def test_universal_gb_matches_every_cell_enumeration():
    other_first_row = 0
    for A in pointed_configs(random.Random(7), 80):
        ugb, ideals, witnesses, bases = universal_gb(A)
        assert (ugb, ideals, witnesses) == universal_gb_every_cell(A), A.original
        gens = toric_generators(A)
        for w, G in zip(witnesses, bases):
            assert G == buchberger(gens, term_order(A.n, weight=w)), A.original
        other_first_row += A.original.entries[0] != (1,) * A.n
    assert other_first_row >= 10


def test_sign_tree_leaves_match_every_prefix_test_seeded():
    # the walk decides a child sign by the passed-down point, the ray
    # from it, a stored certificate or refutation, or one program; the
    # oracle decides every prefix with its own Gordan test, so the
    # leaves, and their order, must agree; Segre 2x2x2 has 768 leaves
    segre222 = ConfigMatrix(generate("segre", (2, 2, 2)))
    for A in [*pointed_configs(random.Random(23), 40), segre222]:
        _, _, leaves = _sign_tree(A, Budget())
        assert leaves == sign_tree_leaves_every_prefix(A), A.original


def test_sign_tree_homes_and_facets_match_the_leaf_scan_seeded():
    # open Groebner cones are disjoint, so each leaf meets the pattern of
    # exactly one cell, and the walk must home it there; the facets read
    # off the k-flips of a cell's own leaves must be those of the scan
    # over every leaf
    segre222 = ConfigMatrix(generate("segre", (2, 2, 2)))
    for A in [*pointed_configs(random.Random(31), 40), segre222]:
        _, cells, leaves = _sign_tree(A, Budget())
        patterns = []
        for cell in cells:
            mask = sum(1 << k for k in cell.elements)
            patterns.append((mask, cell.leaves[0] & mask))
        for leaf in leaves:
            met = [cell for cell, (mask, bits) in zip(cells, patterns)
                   if not (leaf ^ bits) & mask]
            assert len(met) == 1 and leaf in met[0].leaves, A.original
        assert sorted(leaf for cell in cells for leaf in cell.leaves) == sorted(leaves)
        for cell, (mask, bits) in zip(cells, patterns):
            assert cell.facets == cone_facets_by_leaf_scan(mask, bits, leaves), A.original


def assert_leaves_read_off_their_cells(A):
    """Every leaf reads off the pattern of the cell it is homed in.

    A leaf's home is the cell keyed by the pattern the table reads off
    there, so the cell's pattern (its elements, oriented by its first
    leaf) is the table's read-off at each of its leaves, and the oracle's
    sort-and-minimise rule must give it too.  Returns the leaf count.
    """
    grv = graver(A)
    _, cells, leaves = _sign_tree(A, Budget())
    assert sorted(leaf for cell in cells for leaf in cell.leaves) == sorted(leaves)
    for cell in cells:
        mask = sum(1 << k for k in cell.elements)
        for leaf in cell.leaves:
            assert basis_pattern_by_minimal_generators(grv, leaf) == (
                mask, cell.leaves[0] & mask), (A.original, leaf)
    return len(leaves)


def test_sign_tree_reads_every_leaf_pattern_off_the_table_seeded():
    # every leaf, not only the first of each cell: Segre 2x2x2 has 768
    # leaves in 80 cells
    segre222 = ConfigMatrix(generate("segre", (2, 2, 2)))
    counts = [assert_leaves_read_off_their_cells(A)
              for A in [*pointed_configs(random.Random(37), 40), segre222]]
    assert counts[-1] == 768 and sum(counts) >= 1000, counts


def test_groebner_cone_counts_facets_and_lineality():
    # the degree-345 curve has a cone with 5 facets; two Segre 3x3
    # kernel vectors span less than the kernel, so their normals leave a
    # lineality of 7
    curve = ConfigMatrix(((15, 247, 248, 345),))
    G = buchberger(toric_generators(curve), term_order(4, weight=(111, 0, 341, 1)))
    assert groebner_cone(G).facet_count == 5
    segre = ConfigMatrix(generate("segre", (3, 3)))
    G = buchberger(segre.kernel_basis().entries[:2], degrevlex(9))
    assert groebner_cone(G).lineality_dim == 7


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


@contextlib.contextmanager
def packing_widths():
    """The field width of every packing the engine makes while inside."""
    widths = []

    class Recording(engine._Packing):
        def __init__(self, n, width, ord=None):
            widths.append(width)
            super().__init__(n, width, ord)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_Packing", Recording)
        yield widths


def wide_rows(shape, a, big, c):
    """Three columns, one entry between 2**13 and 2**17.

    The kernel lattice basis then has entries near or past 2**15, the
    most that 16-bit fields hold.  Four columns make bases of thousands
    of elements under some orders; three stay small.
    """
    if shape == "one row":
        return ((a, big, c),)
    return ((1, 1, 1), (0, a, big))


def assert_same_wide_basis(rows, order):
    """The engine's basis of the kernel lattice ideal of rows is the every-pair one.

    Returns whether the run widened its fields, and whether it widened
    although every generator fit in 16-bit fields.
    """
    gens = ConfigMatrix(rows).kernel_basis().entries
    with time_limit(10), packing_widths() as widths:
        G = buchberger(gens, order)
        assert G.elements == buchberger_every_pair(gens, order).elements, (rows, order)
    widened = max(widths) > 16
    return widened, widened and max(abs(x) for v in gens for x in v) < 2 ** 15


@st.composite
def wide_problems(draw):
    """Rows of wide_rows and an order of any kind."""
    rows = wide_rows(draw(st.sampled_from(("one row", "two rows"))),
                     draw(st.integers(1, 5)), draw(st.integers(2 ** 13, 2 ** 17)),
                     draw(st.integers(1, 5)))
    return rows, draw(orders(3, ConfigMatrix(rows).grading, -5))


@settings(max_examples=200, deadline=None)
@given(wide_problems())
@example((((3, 50000, 2),), lex(3)))
@example((((1, 40000, 70001),), lex(3, (2, 1, 0))))
@example((((1, 40000, 70001),), weighted_revlex((1, 40000, 70001), 0)))
def test_wide_entries_match_every_pair_engine(problem):
    assert_same_wide_basis(*problem)


def test_wide_entries_match_every_pair_engine_seeded():
    rng = random.Random(23)
    widened = Counter()
    for count in range(800):
        kind = ORDER_KINDS[count % len(ORDER_KINDS)]
        shape = ("one row", "two rows")[count // 4 % 2]
        rows = wide_rows(shape, rng.randint(1, 5), rng.randint(2 ** 13, 2 ** 17),
                         rng.randint(1, 5))
        order = order_of_kind(
            kind, tuple(rng.randint(-5, 5) for _ in range(3)), rng.sample(range(3), 3),
            rng.randrange(3), rng.choice(("degrevlex", "lex")), ConfigMatrix(rows).grading)
        run, late = assert_same_wide_basis(rows, order)
        widened[kind] += run
        widened["after the generators fit"] += late
    assert all(widened[kind] >= 60 for kind in ORDER_KINDS), widened
    assert widened["after the generators fit"] >= 12, widened


@pytest.mark.parametrize("gens, precedence", [
    ([(-11698, -1, 9651), (-2, 3, 11082)], (1, 2, 0)),
    ([(-1, -12030, -2, -2), (3, 18372, -18272, 1)], (3, 1, 0, 2)),
])
def test_s_pair_terms_past_the_guard_bit_match_every_pair_engine(gens, precedence):
    # every generator fits 16-bit fields, but an S-pair term of these lex
    # runs does not
    with packing_widths() as widths:
        assert_same_basis(gens, lex(len(precedence), precedence))
    assert max(widths) > 16


def unit(i, n):
    return tuple(int(j == i) for j in range(n))


@pytest.mark.parametrize("u, G, nf", [
    # 2**65 + 1 needs a 128-bit field from the start
    ((2 ** 65 + 1, 5), [Binomial((1, 0), (0, 3))], (0, 3 * 2 ** 65 + 8)),
    # 2**62 fits a 64-bit field, but one multi-step makes 5 * 2**62 of it
    ((2 ** 62, 0), [Binomial((1, 0), (0, 5))], (0, 5 * 2 ** 62)),
    # each multi-step adds less than 2**63, but the first sets x1's
    # guard bit and the third would carry past the field
    ((2 ** 62, 2 ** 63 - 1, 2 ** 62, 2 ** 62),
     [Binomial(unit(i, 4), unit(1, 4)) for i in (0, 2, 3)],
     (0, 2 ** 63 - 1 + 3 * 2 ** 62, 0, 0)),
    # a multi-step that passes the check before it, and a single step,
    # each landing x1 exactly on its guard bit, where the support would
    # read it as zero
    ((2 ** 62, 2 ** 62, 0),
     [Binomial(unit(0, 3), unit(1, 3)), Binomial((0, 2, 0), unit(2, 3))],
     (0, 0, 2 ** 62)),
    ((1, 2 ** 63 - 1, 0),
     [Binomial(unit(0, 3), unit(1, 3)), Binomial((0, 2, 0), unit(2, 3))],
     (0, 0, 2 ** 62)),
], ids=["past 64 bits", "widened before the step", "widened by the guard bit",
        "k steps onto the guard bit", "one step onto the guard bit"])
def test_normal_form_past_64_bits_matches_the_tuple_rule(u, G, nf):
    with packing_widths() as widths:
        assert normal_form(u, G) == nf == multi_step_normal_form(u, G)
    assert max(widths) == 128


# Kernel lattice basis (2, 3, 1, -3, -2, 4), (0, 6, 0, -3, -3, 5),
# (0, 0, 3, -2, 0, 0): no leading entry is 1, the grading is not
# all-ones, and two columns, 3 and 4, hold the negative entries
NO_UNIT_PIVOT = ((0, 1, 2, 3, 4, 3), (2, 3, 2, 3, 3, 0), (1, 2, 0, 0, 4, 0))


def budgeted_generators(A, budget):
    """toric_generators(A, budget), or the (guard, limit, reached) of its trip."""
    try:
        return toric_generators(A, budget)
    except LimitExceeded as e:
        return e.guard, e.limit, e.reached


def assert_same_toric_ideal(A, degree):
    """toric_generators agrees with the oracle, also under a degree cap.

    The cap is measured once in A's grading and once, with no grading
    named, in each run's top order row.  The two measures agree in every
    run, the one through the new variable included, so both budgets
    must trip alike; one that does not trip must give the oracle's
    answer.  Returns whether the cap tripped.
    """
    with time_limit(10):
        expected = toric_generators_every_variable(A)
        assert toric_generators(A) == expected, A.original
        capped = budgeted_generators(A, Budget(degree=degree, grading=A.grading))
        assert capped == budgeted_generators(A, Budget(degree=degree)), A.original
    if isinstance(capped, tuple):
        return True
    assert capped == expected, A.original
    return False


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
@given(small_pointed_configs(), st.integers(1, 8))
@example(ConfigMatrix(NO_UNIT_PIVOT), 2)
@example(ConfigMatrix(generate("segre", (2, 2))), 2)
@example(TWISTED, 2)
def test_toric_generators_match_saturating_every_variable(A, k):
    # the examples: a run through y for two columns under a grading that
    # is not all-ones (NO_UNIT_PIVOT), a kernel of rank 1, which makes no
    # run (Segre 2x2), and a run by one column (the twisted cubic,
    # negative in column 2 only)
    assert_same_toric_ideal(A, k * max(A.grading))


def assert_fan_matches_groebner_cone(A):
    _, _, witnesses, bases = universal_gb(A)
    fan = groebner_fan(A)
    assert [w for _, w in fan] == witnesses, A.original
    for (cone, _), G in zip(fan, bases):
        assert cone == groebner_cone(G), A.original


def test_groebner_fan_matches_groebner_cone_seeded():
    # facets read off the sign tree's cells, against the redundancy
    # programs, on every cell of small pointed configurations
    for A in pointed_configs(random.Random(13), 60):
        assert_fan_matches_groebner_cone(A)
    # no Graver element: one cone, with every weight in its lineality
    assert groebner_fan(ConfigMatrix(((1, 0), (0, 1)))) == [(Cone((), 2), (0, 0))]


@settings(max_examples=40, deadline=None)
@given(small_pointed_configs())
def test_groebner_fan_matches_groebner_cone(A):
    try:
        size = len(graver(A, Budget(degree=20)))
    except LimitExceeded:
        size = None
    assume(size is not None and size <= 12)
    assert_fan_matches_groebner_cone(A)


def test_printed_weights_are_the_fourier_motzkin_points_seeded(monkeypatch):
    # groebner_fan prints each cell's weight as the lift of
    # feasible_witness's point on the cell's walls, so on every cell it
    # must be the lift of the elimination oracle's point there; some
    # Segre 2x2x2 walls make more rows in one step than they have, so
    # the sweep reaches _slice_bound as well as the chain; 402 cells
    import toricgb.exactmath as exactmath

    programs = record_calls(monkeypatch, exactmath, "_slice_bound")
    named = [ConfigMatrix(generate(kind, params)) for kind, params in
             (("segre", (2, 2, 2)), ("segre", (2, 4)), ("hypersimplex2", (4,)))]
    cells_seen = 0
    for A in [*named, *pointed_configs(random.Random(41), 40)]:
        K = A.kernel_basis()
        _, cells, _ = _sign_tree(A, Budget())
        fan = groebner_fan(A)
        assert len(fan) == len(cells), A.original
        for (_, w), cell in zip(fan, cells):
            assert w == _lift(strict_feasible_by_elimination(cell.walls), K), (
                A.original, cell.walls)
        cells_seen += len(cells)
    assert programs and cells_seen >= 400, (len(programs), cells_seen)


@settings(max_examples=50, deadline=None)
@given(small_pointed_configs())
def test_sign_tree_reads_every_leaf_pattern_off_the_table(A):
    try:
        size = len(graver(A, Budget(degree=20)))
    except LimitExceeded:
        size = None
    assume(size is not None and size <= 12)
    assert_leaves_read_off_their_cells(A)


@st.composite
def rewritten_configs(draw):
    """A pointed_configs draw, the same rows under a drawn unimodular transform,
    and integer heights.

    Each step negates a row, swaps two, or adds a multiple of one to
    another, so the row lattice, and with it the kernel, stays the same.
    """
    A = next(pointed_configs(random.Random(draw(st.integers(0, 2**32))), 1))
    rows = [list(r) for r in A.original.entries]
    for _ in range(draw(st.integers(1, 4))):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        elif draw(st.booleans()):
            rows[i], rows[j] = rows[j], rows[i]
        else:
            k = draw(st.sampled_from((-2, -1, 1, 2)))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    omega = draw(st.lists(st.integers(0, 9), min_size=A.n, max_size=A.n))
    return A, ConfigMatrix(rows), omega


def row_free_answers(A, omega):
    _, ideals, witnesses, bases = universal_gb(A)
    try:
        triangulation = regular_triangulation(A, omega).facets
    except NonGenericOmega:
        triangulation = None
    return (A.grading, toric_groebner(A).vectors, circuits(A), graver(A), degree_bound(A),
            [I.gens for I in ideals], witnesses, [G.vectors for G in bases], triangulation)


@settings(max_examples=100, deadline=None)
@given(rewritten_configs())
def test_answers_do_not_depend_on_how_the_rows_are_written(problem):
    # the grading, and with it the circuits' true degrees and
    # toric_groebner's default order, is read off the row lattice
    A, B, omega = problem
    assert row_free_answers(A, omega) == row_free_answers(B, omega)


def seeded_configs(rng, count=300):
    """count pointed configurations with a kernel, and every draw made for them."""
    draws = [NO_UNIT_PIVOT]
    checked = [ConfigMatrix(NO_UNIT_PIVOT)]
    while len(checked) < count:
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        ones = d > 1 and rng.random() < 0.3
        rows = [[rng.randint(0 if ones else -1, 3) for _ in range(n)]
                for _ in range(d)]
        if ones:
            rows[0] = [1] * n
        draws.append(rows)
        A = pointed_or_none(rows)
        if A is not None:
            checked.append(A)
    return checked, draws


def test_toric_generators_match_saturating_every_variable_seeded():
    rng = random.Random(29)
    seen = dict.fromkeys(("pivot above 1", "all-ones grading", "other grading",
                          "new variable", "cap tripped", "cap not tripped"), 0)
    checked, _ = seeded_configs(rng)
    for A in checked:
        tripped = assert_same_toric_ideal(A, rng.randint(1, 8) * max(A.grading))
        K = A.kernel_basis().entries
        seen["pivot above 1"] += any(next(x for x in row if x) > 1 for row in K)
        seen["all-ones grading" if A.grading == (1,) * A.n else "other grading"] += 1
        # two or more columns to saturate: the run goes through y
        seen["new variable"] += len(saturation_columns(A)) >= 2
        seen["cap tripped" if tripped else "cap not tripped"] += 1
        # one route to the reduced basis under the canonical order
        G = toric_groebner(A)
        order = _canonical_order(A)
        assert G == toric_groebner(A, order), A.original
        assert G.elements == tuple(orient(v, order) for v in toric_generators(A)), A.original
    # the draws give 174 runs through y (49 when a first run by one
    # column left two or more for a second)
    assert all(v >= (150 if k == "new variable" else 50) for k, v in seen.items()), seen


def test_toric_generators_saturate_once_over_the_negative_columns_seeded(monkeypatch):
    # one saturation run per configuration with a kernel of rank 2 or
    # more, inverting exactly the columns where a kernel basis row is
    # negative: a second run, or a column too many or too few, shows
    # here; 500 draws, since the rank-1 kernels among them make no run
    checked, _ = seeded_configs(random.Random(29), 500)
    sizes = Counter()
    for A in checked:
        K = A.kernel_basis().entries
        T = tuple(j for j in range(A.n) if any(row[j] < 0 for row in K))
        runs = saturations(monkeypatch, A)
        if len(K) == 1:
            # the binomial of one row is divisible by no variable, so its
            # ideal is already saturated: the row itself generates I_A
            assert runs == [], A.original
            assert toric._saturated_generators(A, Budget()) == [K[0]], A.original
            sizes["rank 1"] += 1
        else:
            assert runs == [T[0] if len(T) == 1 else T], A.original
            sizes[len(T) >= 2] += 1
        monkeypatch.undo()
    assert min(sizes[False], sizes[True]) >= 100, sizes
    assert sizes["rank 1"] >= 100, sizes
    # with no kernel there is nothing to saturate
    assert saturations(monkeypatch, ConfigMatrix(((1, 0), (0, 1)))) == []


# The points (0,0), (2,0), (2,2), (0,2), (1,-2), (4,1), (1,4), (-2,1),
# homogenized, under heights x^2 + y^2: the square is a cell, but every
# edge of it is shared with a triangle
SQUARE = ConfigMatrix(((1,) * 8, (0, 2, 2, 0, 1, 4, 1, -2),
                       (0, 0, 2, 2, -2, 1, 4, 1)))
SQUARE_HEIGHTS = (0, 4, 8, 4, 5, 17, 17, 5)


def triangulation_or_none(method, A, omega):
    """The facets of the triangulation, or None for a weight that is not generic."""
    try:
        return method(A, omega).facets
    except NonGenericOmega:
        return None


def assert_same_triangulation(A, omega):
    """Both methods agree, and on a generic weight so do the two
    Stanley-Reisner constructions; returns whether the weight was generic."""
    with time_limit(10):
        facets = triangulation_or_none(regular_triangulation, A, omega)
        expected = triangulation_or_none(regular_triangulation_every_subset, A, omega)
    assert facets == expected, (A.original.entries, omega)
    if facets is None:
        return False
    delta = SimplicialComplex(A.n, facets)
    expected = stanley_reisner_by_nonfaces(delta)
    assert stanley_reisner(delta) == expected, (A.original.entries, omega)
    return True


def triangulation_rows(rng_int, d, n, signed):
    """Rows drawn like criterion 8 (all-ones row over [0, 4]) or in [-2, 2].

    The signed draws are mostly not pointed.
    """
    if signed:
        return [[rng_int(-2, 2) for _ in range(n)] for _ in range(d)]
    return [[1] * n] + [[rng_int(0, 4) for _ in range(n)] for _ in range(d - 1)]


def triangulation_weight(rng_int, n, kind):
    """Heights in [-6, 6], in {-1, 0, 1} to force ties, or fractions p/q."""
    if kind == "wide":
        return tuple(rng_int(-6, 6) for _ in range(n))
    if kind == "ties":
        return tuple(rng_int(-1, 1) for _ in range(n))
    return tuple(Fraction(rng_int(-12, 12), rng_int(1, 4)) for _ in range(n))


def test_triangulation_oracle_rejects_the_uncovered_square():
    with pytest.raises(NonGenericOmega, match="not generic"):
        regular_triangulation_every_subset(SQUARE, SQUARE_HEIGHTS)
    # moving one corner off the plane makes the weight generic
    lifted = (0, 4, 9) + SQUARE_HEIGHTS[3:]
    assert assert_same_triangulation(SQUARE, lifted)


@st.composite
def triangulation_problems(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 7))

    def draw_int(lo, hi):
        return draw(st.integers(lo, hi))

    rows = triangulation_rows(draw_int, d, n, draw(st.booleans()))
    try:
        A = ConfigMatrix(rows)
    except DimensionMismatch:
        assume(False)
    kind = draw(st.sampled_from(("wide", "ties", "fractions")))
    return A, triangulation_weight(draw_int, A.n, kind)


@settings(max_examples=200, deadline=None)
@given(triangulation_problems())
@example((SQUARE, SQUARE_HEIGHTS))
def test_triangulation_matches_every_subset_scan(problem):
    assert_same_triangulation(*problem)


@pytest.mark.extended
def test_triangulation_matches_every_subset_scan_seeded():
    rng = random.Random(37)
    seen = {"generic": 0, "not generic": 0, "not pointed": 0}
    checked = 0
    while checked < 400:
        d = rng.randint(1, 3)
        n = rng.randint(d, 7)
        try:
            A = ConfigMatrix(triangulation_rows(rng.randint, d, n, checked % 2))
        except DimensionMismatch:
            continue
        kind = ("wide", "ties", "wide", "fractions")[checked // 2 % 4]
        generic = assert_same_triangulation(
            A, triangulation_weight(rng.randint, A.n, kind))
        seen["generic" if generic else "not generic"] += 1
        seen["not pointed"] += not A.pointed
        checked += 1
    assert min(seen.values()) >= 100, seen
    # paraboloid lifts of points of a 5x5 grid: four cocircular points lift
    # onto one plane, and about 1 draw in 160 makes a cell of them whose
    # every edge is shared with a triangle, which only the ridge check sees
    grid = [(x, y) for x in range(5) for y in range(5)]
    square = 0
    for _ in range(300):
        pts = rng.sample(grid, rng.randint(5, 7))
        A = ConfigMatrix(((1,) * len(pts), tuple(x for x, _ in pts),
                          tuple(y for _, y in pts)))
        omega = tuple(x * x + y * y for x, y in pts)
        with time_limit(10):
            facets = triangulation_or_none(regular_triangulation, A, omega)
            try:
                expected = regular_triangulation_every_subset(A, omega).facets
            except NonGenericOmega as e:
                expected = None
                square += "ridge" in str(e)
        assert facets == expected, pts
    assert square >= 3


def test_grading_matches_fourier_motzkin_seeded(monkeypatch):
    # the draws of the sweep above, the non-pointed ones included, with
    # the grading's witness taken once from the simplex and once from
    # Fourier-Motzkin elimination
    _, draws = seeded_configs(random.Random(29))
    seen = Counter()
    for rows in draws:
        try:
            A = ConfigMatrix(rows)
        except DimensionMismatch:
            continue
        with monkeypatch.context() as m:
            m.setattr(toric, "strict_feasible", strict_feasible_by_elimination)
            assert ConfigMatrix(rows).grading == A.grading, rows
        seen["not pointed" if A.grading is None else
             "all-ones grading" if A.grading == (1,) * A.n else "other grading"] += 1
    assert min(seen.values()) >= 100 and sum(seen.values()) >= 400, seen


# Each right-hand side kind reaches one exit of the start-point search:
# a point of the fiber, a lattice point that may lie off the orthant
# (the search must decide), a shift that can make the grading degree
# fractional, and a contradicted dependent row
RHS_KINDS = ("point", "lattice", "fractional", "contradiction")


def ip_config(rng_int, dependent):
    """A pointed configuration of 1 to 3 rows in [-1, 3] and at most 5
    columns, or None.

    When `dependent`, the integer combination c of the drawn rows is
    inserted at a drawn position p.  Returns (A, rows drawn, c, p).
    """
    d = rng_int(1, 3)
    n = rng_int(d + 1, 5)
    base = [[rng_int(-1, 3) for _ in range(n)] for _ in range(d)]
    rows, combo, pos = base, None, None
    if dependent:
        combo = [rng_int(-1, 2) for _ in range(d)]
        pos = rng_int(0, d)
        extra = [sum(c * r[j] for c, r in zip(combo, base)) for j in range(n)]
        rows = base[:pos] + [extra] + base[pos:]
    try:
        A = ConfigMatrix(rows)
    except DimensionMismatch:
        return None
    return (A, base, combo, pos) if A.pointed else None


def ip_rhs(rng_int, base, combo, pos, kind):
    """A right-hand side of the given kind (see RHS_KINDS)."""
    n = len(base[0])
    x = [rng_int(0, 2) for _ in range(n)]
    if kind == "lattice":
        x[rng_int(0, n - 1)] -= rng_int(1, 3)
    b = [sum(a * v for a, v in zip(row, x)) for row in base]
    if kind == "fractional":
        b[rng_int(0, len(b) - 1)] += rng_int(0, 1) * 2 - 1
    if combo is None:
        return tuple(b)
    extra = sum(c * v for c, v in zip(combo, b))
    if kind == "contradiction":
        extra += rng_int(0, 1) * 2 - 1
    return tuple(b[:pos] + [extra] + b[pos:])


def grading_degree(A, b):
    """The grading degree that every rational solution of the kept rows has."""
    M = A.matrix
    w, _ = solve_affine([M.col(i) for i in range(A.n)], A.grading, ncols=A.d)
    return sum(Fraction(wi) * b[i] for wi, i in zip(w, A.kept_rows))


def assert_same_start(A, b, omega):
    """The Cramer search and the simplex walk agree; returns the point or None."""
    with time_limit(10):
        expected = graded_feasible_every_point(A, b)
        got = _graded_feasible(A, b, Budget())
        assert (got is None) == (expected is None), (A.original.entries, b)
        if got is None:
            return None
        assert min(got) >= 0 and A.original.mulvec(got) == b, (A.original.entries, b)
        G = buchberger(toric_generators(A), term_order(A.n, weight=omega))
        assert solve_ip(IPInstance(A, omega, b)) == normal_form(expected, G), (
            A.original.entries, b, omega)
    return got


@st.composite
def ip_problems(draw):
    def draw_int(lo, hi):
        return draw(st.integers(lo, hi))

    kind = draw(st.sampled_from(RHS_KINDS))
    drawn = ip_config(draw_int, kind == "contradiction" or draw(st.booleans()))
    assume(drawn is not None)
    A, base, combo, pos = drawn
    b = ip_rhs(draw_int, base, combo, pos, kind)
    return A, b, tuple(draw_int(-4, 6) for _ in range(A.n))


@settings(max_examples=200, deadline=None)
@given(ip_problems())
def test_start_point_matches_the_simplex_walk(problem):
    assert_same_start(*problem)


def test_start_point_matches_the_simplex_walk_seeded():
    rng = random.Random(41)
    seen = Counter()
    checked = 0
    while checked < 600:
        # twice as many lattice draws: a third of them need the search
        kind = ("point", "lattice", "fractional", "lattice", "contradiction")[checked % 5]
        drawn = ip_config(rng.randint, kind == "contradiction" or rng.random() < 0.5)
        if drawn is None:
            continue
        A, base, combo, pos = drawn
        b = ip_rhs(rng.randint, base, combo, pos, kind)
        degree = grading_degree(A, b)
        if kind == "fractional" and degree.denominator == 1:
            continue
        omega = tuple(rng.randint(-4, 6) for _ in range(A.n))
        found = assert_same_start(A, b, omega) is not None
        seen["feasible"] += found
        # empty although the degree and the dependent rows allow a point:
        # only the search itself can tell
        seen["empty by search"] += (not found and kind != "contradiction"
                                    and degree.denominator == 1 and degree >= 0)
        seen["fractional degree"] += degree.denominator != 1
        seen["dependent row"] += combo is not None
        block = [j for j in range(A.n) if j not in A.pivot_columns()]
        det = det_bareiss(A.matrix.submatrix(range(A.d), block))
        seen["block det < 0"] += det < 0
        seen["|block det| > 1"] += abs(det) > 1
        checked += 1
    assert min(seen.values()) >= 60, seen


# The runs on prime ideals skip each popped pair whose two terms share a
# variable; buchberger, the every-pair engine and the oracle's saturation
# by every variable skip none.


def count_prime_skips(monkeypatch):
    """Count the pairs popped in runs with prime=True, and those skipped."""
    tally = Counter()
    real_run, real_pair = engine._groebner, engine._s_pair
    prime = []

    def run(*args, **kwargs):
        prime.append(kwargs.get("prime", False))
        try:
            return real_run(*args, **kwargs)
        finally:
            prime.pop()

    def pair(L, vi, vj, guard):
        p, q = real_pair(L, vi, vj, guard)
        if prime and prime[-1]:
            ones = guard >> ((guard & -guard).bit_length() - 1)
            tally["popped"] += 1
            tally["skipped"] += p != q and bool(((p | guard) - ones) & ((q | guard) - ones) & guard)
        return p, q

    for module in (engine, toric, ip):
        monkeypatch.setattr(module, "_groebner", run)
    monkeypatch.setattr(engine, "_s_pair", pair)
    return tally


def assert_prime_runs_match(A, omega, x):
    """toric_groebner, solve_ip and solve_ip_elimination against runs with no skip.

    The elimination pipeline is checked on nonnegative matrices only.
    Returns whether it was.
    """
    with time_limit(10):
        order = term_order(A.n, weight=omega)
        gens = toric_generators_every_variable(A)
        G = buchberger(gens, order)
        assert toric_generators(A) == gens, A.original.entries
        assert toric_groebner(A, order) == G == buchberger_every_pair(gens, order), (
            A.original.entries, omega)
        inst = IPInstance(A, omega, A.original.mulvec(x))
        best = single_step_normal_form(x, G)
        assert solve_ip(inst) == best, (A.original.entries, omega, x)
        if any(v < 0 for row in A.original.entries for v in row):
            return False
        assert solve_ip_elimination(inst) == best, (A.original.entries, omega, x)
        return True


def prime_problem(rng_int, signed):
    """A small pointed configuration, a cost in [-4, 6] and a point in [0, 3]^n.

    Entries lie in [-1, 3] when signed, else in [0, 3]; the kernel basis
    is small enough for the every-pair engine.  None when the draw is
    not such a configuration.
    """
    d = rng_int(1, 3)
    n = rng_int(d + 1, 5)
    rows = [[rng_int(-1 if signed else 0, 3) for _ in range(n)] for _ in range(d)]
    A = small_config(rows)
    if A is None:
        return None
    return (A, tuple(rng_int(-4, 6) for _ in range(n)),
            tuple(rng_int(0, 3) for _ in range(n)))


@st.composite
def prime_problems(draw):
    problem = prime_problem(lambda lo, hi: draw(st.integers(lo, hi)), draw(st.booleans()))
    assume(problem is not None)
    return problem


@settings(max_examples=100, deadline=None)
@given(prime_problems())
def test_prime_runs_match_runs_without_the_skip(problem):
    assert_prime_runs_match(*problem)


def test_prime_runs_match_runs_without_the_skip_seeded(monkeypatch):
    rng = random.Random(43)
    tally = count_prime_skips(monkeypatch)
    seen = Counter()
    while seen["checked"] < 300:
        problem = prime_problem(rng.randint, seen["checked"] % 3 == 0)
        if problem is None:
            continue
        seen["elimination"] += assert_prime_runs_match(*problem)
        seen["checked"] += 1
    assert seen["elimination"] >= 200, seen
    # the skip fires on more than half of the pairs the prime runs pop
    # (2,541 of 4,524)
    assert 2 * tally["skipped"] > tally["popped"], tally


def test_the_skip_needs_a_saturated_ideal():
    # the kernel basis of Segre 2x3 generates an ideal that is not
    # saturated, so a pair whose terms share a variable need not be
    # redundant: under the order of a saturation by x2 (the first of the
    # two runs toric_generators used to make) the run that skips them
    # misses an element, and what it returns is no Groebner basis
    A = ConfigMatrix(generate("segre", (2, 3)))
    K = A.kernel_basis().entries
    order = weighted_revlex(A.grading, cheapest=2)
    skipping = engine._groebner(K, order, prime=True).basis(order)
    assert len(skipping) == 2 and not passes_buchberger_criterion(skipping)
    assert len(buchberger(K, order)) == 3
    assert engine._groebner(K, order).basis(order) == buchberger(K, order)
    # the toric ideal is prime: there the skip changes nothing
    gens = toric_generators_every_variable(A)
    assert engine._groebner(gens, order, prime=True).basis(order) == buchberger(gens, order)


def sublattice_basis(rng, K):
    """Rows spanning a sublattice of index at least 2 in the lattice of rows K."""
    while True:
        C = [[rng.randint(-2, 2) for _ in K] for _ in K]
        if abs(det_bareiss(IntMatrix(tuple(map(tuple, C))))) >= 2:
            return [tuple(sum(c * x for c, x in zip(row, col)) for col in zip(*K))
                    for row in C]


def strip_variable(basis, i):
    """The binomials of basis, each divided by its common power of x_i."""
    out = []
    for b in basis:
        c = min(b.lead[i], b.trail[i])
        out.append(Binomial(*(tuple(x - c if j == i else x for j, x in enumerate(side))
                              for side in (b.lead, b.trail))))
    return out


def test_dividing_saturations_match_undivided_runs_seeded():
    # a saturation run that divides each binomial by its common factor
    # in x_i, and one that carries every factor whole, strip to bases of
    # the same ideal J : x_i^infinity, on kernel lattice bases and on
    # sublattices of index >= 2, whose saturations are not prime.  The
    # vectors saturate_variable returns generate an ideal that contains it
    rng = random.Random(47)
    seen = Counter()
    for A in pointed_configs(rng, 40):
        K = [tuple(r) for r in A.kernel_basis().entries]
        for gens in (K, sublattice_basis(rng, K)):
            for i in range(A.n):
                order = weighted_revlex(A.grading, cheapest=i)
                divided = engine._groebner(gens, order, saturated={i}).basis(order)
                whole = engine._groebner(gens, order).basis(order)
                target = buchberger(strip_variable(whole, i), order)
                assert buchberger(strip_variable(divided, i), order) == target, (gens, i)
                out = buchberger(saturate_variable(gens, i, A.grading), order)
                assert all(normal_form(b.lead, out) == normal_form(b.trail, out)
                           for b in target), (gens, i)
                seen["runs"] += 1
                seen["divided"] += divided != whole
    assert seen["divided"] >= 50, seen


def test_the_division_stays_in_the_saturation():
    # the kernel basis of Segre 2x3 generates an ideal J_K that is not
    # saturated.  A saturation run by x2 (the first of the two runs
    # toric_generators used to make) that divides only in x2 divides the
    # S-binomial of the two rows by its common power of x2, which takes
    # it out of J_K but not out of J_K : x2^infinity: x2 times every
    # element of the run's basis lies in J_K.  Stripped of x2, that
    # basis generates the ideal the run without the division strips to,
    # J_K : x2^infinity
    A = ConfigMatrix(generate("segre", (2, 3)))
    K = A.kernel_basis().entries
    first = 2
    order = weighted_revlex(A.grading, cheapest=first)
    divided = engine._groebner(K, order, saturated={first}).basis(order)
    whole = engine._groebner(K, order).basis(order)
    JK = buchberger(K, order)

    def in_JK(b, k):
        # x2^k times b lies in J_K
        lead, trail = ([x + k if j == first else x for j, x in enumerate(side)]
                       for side in (b.lead, b.trail))
        return normal_form(lead, JK) == normal_form(trail, JK)

    assert len(divided) == len(whole) == 3 and divided != whole
    assert [in_JK(b, 0) for b in divided] == [True, True, False]
    assert all(in_JK(b, 1) for b in divided)
    assert buchberger(strip_variable(divided, first), order) == \
        buchberger(strip_variable(whole, first), order)
