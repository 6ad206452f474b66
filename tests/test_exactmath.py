import contextlib
import hashlib
import random
import signal
from collections import Counter
from fractions import Fraction
from itertools import combinations, takewhile
from math import gcd, inf

import pytest
from hypothesis import given, settings, strategies as st

import toricgb.exactmath as exactmath
from toricgb.errors import DimensionMismatch, LimitExceeded, RankDeficient
from toricgb.exactmath import (
    IntMatrix,
    cone_support,
    cramer,
    dot,
    feasible_witness,
    hnf,
    is_irredundant,
    kernel_lattice_basis,
    max_abs_minor,
    primitive,
    rank,
    solve_affine,
    strict_feasible,
    xgcd,
)
from toricgb.oracle import (
    _normalize_constraint,
    cramer_by_determinants,
    det_bareiss,
    feasible_witness_by_elimination,
    identity_matrix,
)
from toricgb.toric import ConfigMatrix


def random_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return IntMatrix(
        tuple(tuple(rng.randint(lo, hi) for _ in range(ncols)) for _ in range(nrows))
    )


def matmul(A, B):
    return tuple(tuple(dot(r, c) for c in zip(*B.entries)) for r in A.entries)


def test_xgcd_bezout():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_primitive_divides_out_content():
    assert primitive((4, -6, 2)) == (2, -3, 1)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    assert primitive((3,)) == (1,)


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        IntMatrix(((1, 2), (3,)))


def test_matmul_against_identity():
    rng = random.Random(1)
    M = random_matrix(rng, 3, 4)
    assert matmul(identity_matrix(3), M) == M.entries
    assert M.mulvec((1, 0, 0, 0)) == M.col(0)


def test_hnf_unimodular_transform():
    rng = random.Random(3)
    for _ in range(60):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        H, U = hnf(M)
        assert abs(det_bareiss(U)) == 1
        assert matmul(U, M) == H.entries
        # echelon shape: pivot columns increase strictly, zero rows last
        pivots = []
        for row in H.entries:
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is None:
                continue
            assert not pivots or nz > pivots[-1]
            assert row[nz] > 0
            pivots.append(nz)
        seen_zero = False
        for row in H.entries:
            if not any(row):
                seen_zero = True
            else:
                assert not seen_zero


def test_hnf_entries_reduced_above_pivot():
    H, _ = hnf(IntMatrix(((2, 7, 3), (0, 5, 1), (4, 1, 9))))
    pivots = {}
    for i, row in enumerate(H.entries):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is not None:
            pivots[nz] = (i, row[nz])
    for j, (i, p) in pivots.items():
        for k in range(i):
            assert 0 <= H.entries[k][j] < p


def test_hnf_is_canonical_under_row_shuffle():
    rng = random.Random(11)
    for _ in range(40):
        M = random_matrix(rng, 3, 4)
        rows = list(M.entries)
        rng.shuffle(rows)
        H1, _ = hnf(M)
        H2, _ = hnf(IntMatrix(tuple(rows)))
        assert H1.entries == H2.entries


def _det_cofactor(M):
    n = M.nrows
    if n == 1:
        return M.entries[0][0]
    total = 0
    for j in range(n):
        sub = M.submatrix(tuple(range(1, n)), tuple(k for k in range(n) if k != j))
        total += (-1) ** j * M.entries[0][j] * _det_cofactor(sub)
    return total


def test_det_bareiss_matches_cofactor_expansion():
    # cramer with no columns is the determinant production reads, and
    # the oracle's Bareiss elimination is the reference the tests read
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 4)
        M = random_matrix(rng, n, n)
        assert cramer(M, ())[0] == det_bareiss(M) == _det_cofactor(M)


def test_cramer_matches_the_determinant_formula_seeded():
    # one elimination of [M | v_1 ... v_c] against det_bareiss and one
    # determinant per column and right-hand side, on matrices with zeros
    # that force pivot swaps; a singular one gives (0, None)
    rng = random.Random(29)
    checked = Counter()
    while checked[True] < 400:
        n = rng.randint(1, 6)
        M = IntMatrix(tuple(tuple(rng.choice((0, 0, rng.randint(-20, 20))) for _ in range(n))
                            for _ in range(n)))
        det = det_bareiss(M)
        columns = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        expected = (det, [cramer_by_determinants(M, v) for v in columns]) if det else (0, None)
        assert cramer(M, columns) == expected, (M, columns)
        checked[det != 0] += 1
    assert checked[False] >= 100, checked


def test_cramer_refuses_a_singular_matrix():
    assert cramer(IntMatrix(((1, 2), (2, 4))), [(1, 1)]) == (0, None)
    assert cramer(IntMatrix(((1, 2), (2, 4))), ()) == (0, None)
    with pytest.raises(DimensionMismatch):
        cramer(IntMatrix(((1, 2, 3), (4, 5, 6))), [(1, 1)])
    with pytest.raises(DimensionMismatch):
        cramer(IntMatrix(((1, 2), (3, 4))), [(1, 1), (1, 1, 1)])


def test_det_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        det_bareiss(IntMatrix(((1, 2, 3), (4, 5, 6))))


def test_rank_of_outer_product_is_one():
    M = IntMatrix(tuple(tuple(3 * i * j for j in range(1, 5)) for i in range(1, 4)))
    assert rank(M) == 1


def test_kernel_lattice_basis_spans_and_saturates():
    rng = random.Random(9)
    for _ in range(60):
        d, n = rng.randint(1, 3), rng.randint(2, 6)
        M = random_matrix(rng, d, n)
        if rank(M) < d:
            continue
        K = kernel_lattice_basis(M)
        assert K.nrows == n - d
        for row in K.entries:
            assert M.mulvec(row) == (0,) * d
        if K.nrows:
            # saturation: the basis generates ker as a lattice, so its HNF
            # pivots must be 1 after clearing to a full-rank square part
            H, _ = hnf(K)
            assert rank(H) == K.nrows


def test_kernel_vector_membership():
    # every kernel vector must be an integer combination of the basis
    rng = random.Random(13)
    for _ in range(40):
        M = random_matrix(rng, 2, 4)
        if rank(M) < 2:
            continue
        K = kernel_lattice_basis(M)
        coeffs = [rng.randint(-4, 4) for _ in range(K.nrows)]
        v = tuple(
            sum(c * K.entries[i][j] for i, c in enumerate(coeffs))
            for j in range(4)
        )
        sol = solve_affine(
            [K.col(j) for j in range(K.ncols)], v, ncols=K.nrows
        )
        assert sol is not None
        part, _ = sol
        assert all(f.denominator == 1 for f in part)


def test_kernel_requires_full_row_rank():
    with pytest.raises(RankDeficient):
        kernel_lattice_basis(IntMatrix(((1, 2), (2, 4))))


def test_max_abs_minor():
    M = IntMatrix(((1, 0, 2), (0, 3, 1)))
    vals = [
        abs(det_bareiss(M.submatrix((0, 1), c)))
        for c in combinations(range(3), 2)
    ]
    assert max_abs_minor(M) == max(vals) == 6
    with pytest.raises(LimitExceeded):
        # comb(24, 12) = 2,704,156 column subsets, past the default 2,000,000
        max_abs_minor(random_matrix(random.Random(0), 12, 24))


def test_solve_affine_particular_plus_nullspace():
    rows = [(1, 2, 0), (0, 1, 1)]
    rhs = (5, 3)
    part, null = solve_affine(rows, rhs)
    for r, b in zip(rows, rhs):
        assert sum(Fraction(x) * c for x, c in zip(part, r)) == b
        for z in null:
            assert sum(Fraction(x) * c for x, c in zip(z, r)) == 0
    assert len(null) == 1


def test_solve_affine_inconsistent_returns_none():
    assert solve_affine([(1, 1), (2, 2)], (1, 3)) is None


def test_solve_affine_empty_system():
    part, null = solve_affine([], (), ncols=3)
    assert part == (Fraction(0),) * 3
    assert len(null) == 3


def test_feasible_witness_orthant():
    w = feasible_witness([(1, 0), (0, 1)], 2)
    assert w is not None and all(x > 0 for x in w)


def test_feasible_witness_infeasible():
    assert feasible_witness([(1, 0), (-1, 0)], 2) is None  # x > 0 and -x > 0


def test_feasible_witness_refuses_a_vector_of_the_wrong_width():
    with pytest.raises(DimensionMismatch):
        feasible_witness([(1, 0), (0, 1, 1)], 2)


def test_strict_feasible_positive_combination():
    assert strict_feasible([(1, 0), (0, 1), (1, 1)]) is not None
    # opposite vectors can never be simultaneously positive
    assert strict_feasible([(1, 2), (-1, -2)]) is None


def test_is_irredundant_square_cone():
    gens = [(1, 0), (0, 1), (1, 1)]  # third is implied by the first two
    assert is_irredundant(gens, 0)
    assert is_irredundant(gens, 1)
    assert not is_irredundant(gens, 2)


def test_dot():
    assert dot((1, 2, 3), (4, -5, 6)) == 12


# -- the integer route of the oracle's constraint normalization --------------

small = st.integers(-30, 30)


def constraints(n):
    return st.tuples(st.lists(small, min_size=n, max_size=n), small, st.booleans())


def as_fractions(con, q=1):
    a, b, strict = con
    return ([Fraction(x, q) for x in a], Fraction(b, q), strict)


@given(st.integers(0, 4).flatmap(constraints), st.integers(1, 12))
def test_integer_route_matches_fraction_route(con, q):
    n = len(con[0])
    expected = _normalize_constraint(as_fractions(con), n)
    assert _normalize_constraint(con, n) == expected
    # a constraint divided through by q normalizes to the same row
    assert _normalize_constraint(as_fractions(con, q), n) == expected


@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.tuples(st.lists(small, min_size=n, max_size=n), st.integers(1, 12)),
                       min_size=1, max_size=6)))
def test_feasible_witness_same_point_for_fraction_input(drawn):
    # each vector divided by a positive q leaves the open cone, and so
    # the point, as it was
    n = len(drawn[0][0])
    assert feasible_witness([a for a, _ in drawn], n) == feasible_witness(
        [[Fraction(x, q) for x in a] for a, q in drawn], n)


# -- feasible_witness against Fourier-Motzkin ---------------------------------


def check_same_witness(vectors, n):
    """feasible_witness gives the Fourier-Motzkin point, or None with it.

    The oracle reads each vector v as the strict homogeneous row v . y > 0.
    """
    got = feasible_witness(vectors, n)
    assert got == feasible_witness_by_elimination([(v, 0, True) for v in vectors], n), (
        vectors, n, got)
    if got is not None:
        assert all(type(x) is Fraction for x in got)
        for v in vectors:
            assert sum(Fraction(x) * y for x, y in zip(v, got)) > 0, (vectors, got)
    return got


def witness_problem(rng, n, most=None):
    """Vectors in Q^n of one of several shapes, and the shape.

    There are 1 to `most` drawn vectors (7 for n <= 4, else 5).  Half
    the time each is oriented positive at one drawn point, as a
    Groebner cell's walls are, so the open cone is mostly not empty.
    "line" vectors are all orthogonal to one nonzero vector, so a
    nonempty open cone has lineality; "empty" adds the negative of a
    positive combination of them, which leaves the open cone empty;
    "fractions" hands the vectors over as Fractions.
    """
    shape = rng.choice(["free", "line", "empty", "fractions"])
    rows = [[rng.randint(-3, 3) for _ in range(n)]
            for _ in range(rng.randint(1, most or (7 if n <= 4 else 5)))]
    if shape == "line":
        ell = [rng.randint(-2, 2) for _ in range(n)]
        ell[rng.randrange(n)] = rng.choice((-1, 1))
        ll = dot(ell, ell)
        rows = [[ll * x - dot(a, ell) * y for x, y in zip(a, ell)] for a in rows]
    if rng.random() < 0.5:
        point = [rng.randint(-3, 3) for _ in range(n)]
        rows = [a if dot(a, point) >= 0 else [-x for x in a] for a in rows]
    vectors = [tuple(a) for a in rows]
    if shape == "empty":
        mu = [rng.randint(1, 2) for _ in vectors]
        a = tuple(-sum(k * v[i] for k, v in zip(mu, vectors)) for i in range(n))
        vectors.insert(rng.randint(0, len(vectors)), a)
    elif shape == "fractions":
        vectors = [[Fraction(x, rng.randint(1, 4)) for x in a] for a in vectors]
    return shape, vectors


def count_choices(monkeypatch):
    """Tally how feasible_witness sets each coordinate, by its interval.

    Each bound is an integer ratio (p, q) with q > 0.
    """
    tally = Counter()
    real = exactmath._choose

    def choose(lo, up):
        tally["no bound" if lo is None and up is None else
              "one bound" if lo is None or up is None else
              "lo = up" if lo[0] * up[1] == up[0] * lo[1] else "midpoint"] += 1
        return real(lo, up)

    monkeypatch.setattr(exactmath, "_choose", choose)
    return tally


def count_first_step(monkeypatch):
    """Tally the cases of the chain's first elimination step, one per call.

    The first step is the one made with no cap: it eliminates x_{n-1}
    from the input rows, whatever the row count it makes.
    """
    tally = Counter()
    real = exactmath._eliminate_last

    def eliminate(level, cap):
        out = real(level, cap)
        if cap == inf:
            if any(r[-1] == 0 for r in level):
                tally["row 0 in x_{n-1}"] += 1
            if any(p[-1] * q[-2] == q[-1] * p[-2] for p in level if p[-1] > 0
                   for q in level if q[-1] < 0):
                tally["combination 0 in x_{n-2}"] += 1
            if not any(r[-1] > 0 for r in out) or not any(r[-1] < 0 for r in out):
                tally["a side of x_{n-2} with no rows"] += 1
            if len(out) > len(level):
                tally["more than m rows"] += 1
        return out

    monkeypatch.setattr(exactmath, "_eliminate_last", eliminate)
    return tally


def record_routes(monkeypatch):
    """Record the steps and routes of feasible_witness calls, for routes().

    Each elimination step is checked as it is made: a level it returns
    has at most cap rows, and every row it derives is primitive.
    """
    events = []
    real_eliminate = exactmath._eliminate_last

    def eliminate(level, cap):
        out = real_eliminate(level, cap)
        if out is not None:
            assert len(out) <= cap, (level, cap)
            kept = {r[:-1] for r in level if not r[-1]}
            assert all(gcd(*r) <= 1 for r in out if r not in kept), level
        events.append("refused" if out is None else "step")
        return out

    monkeypatch.setattr(exactmath, "_eliminate_last", eliminate)
    for name in ("_slice_bound", "_choose"):
        def wrapper(*args, real=getattr(exactmath, name), name=name):
            events.append(name)
            return real(*args)

        monkeypatch.setattr(exactmath, name, wrapper)
    return events


def routes(events, n):
    """The route that set each coordinate of the last call; clears events.

    "chain" is the ratios on a level the chain derived, "input rows"
    those on the input rows (the last coordinate) and "simplex" is
    _slice_bound.  The chain's s steps set x_{n-1-s}, ..., x_{n-2}; they
    lead the events.
    """
    steps = sum(e == "step" for e in takewhile(lambda e: e in ("step", "refused"), events))
    out, segment = [], set()
    for event in events:
        if event == "_choose":
            out.append("simplex" if "_slice_bound" in segment else
                       "input rows" if len(out) == n - 1 else "chain")
            segment = set()
        else:
            segment.add(event)
    assert [k for k, r in enumerate(out) if r == "chain"] == list(range(n - 1 - steps, n - 1))
    events.clear()
    return out


def test_feasible_witness_matches_fourier_motzkin_seeded(monkeypatch):
    tally = count_choices(monkeypatch)
    first = count_first_step(monkeypatch)
    events = record_routes(monkeypatch)
    route = Counter()
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(2000):
        n = rng.randint(1, 6)
        shape, vectors = witness_problem(rng, n)
        point = check_same_witness(vectors, n)
        route["refused"] += events.count("refused")
        route.update(routes(events, n))
        seen["empty" if point is None else shape] += 1
        seen[n, point is None] += 1
    # wider draws, whose first step mostly passes m rows; in half of
    # them no row is negative in x_{n-2}, so one side of the level that
    # step makes has no rows
    for _ in range(1000):
        n = rng.randint(2, 3)
        _, vectors = witness_problem(rng, n, most=10)
        if rng.random() < 0.5:
            vectors = [(*a[:-2], abs(a[-2]), a[-1]) for a in vectors]
        check_same_witness(vectors, n)
        route["refused"] += events.count("refused")
        route.update(routes(events, n))
    assert all(seen[n, empty] >= 40 for n in range(1, 7) for empty in (False, True)), seen
    assert all(seen[k] >= 150 for k in ("free", "line", "fractions", "empty")), seen
    assert all(tally[k] >= 200 for k in ("no bound", "one bound", "lo = up",
                                         "midpoint")), tally
    assert all(first[k] >= 300 for k in ("row 0 in x_{n-1}", "combination 0 in x_{n-2}",
                                         "a side of x_{n-2} with no rows")), first
    assert all(route[k] >= 300 for k in ("chain", "simplex")), route
    assert route["refused"] >= 200, route


# Both sides of the stop rule.  Two vectors positive and two negative in
# x_2 make 4 rows from 4; x_0 + x_2 plus x_0 - x_2 is 2 x_0, stored as
# x_0 after the gcd step.  A fifth vector negative in x_2 makes 6 rows
# from 5, but the first step is always taken, and its 6 rows make 1 in
# the next.  Six vectors, four positive and two negative in x_2, make 8
# rows from 6, two positive, two negative and four 0 in x_1; the step
# on those 8 would make 8, more than 6, so it is refused and x_0 takes
# the simplex route.
STEP_TO_M_ROWS = [(1, 0, 1), (0, 1, 1), (1, 0, -1), (0, 1, -1)]
SECOND_STEP_REFUSED = [(0, 1, 1), (0, -1, 1), (-1, 0, 1), (-1, 0, 2), (-1, 0, -2),
                       (-1, 0, -1)]


@pytest.mark.parametrize("cons, expected", [
    (STEP_TO_M_ROWS, ["chain", "chain", "input rows"]),
    (STEP_TO_M_ROWS + [(1, 1, -1)], ["chain", "chain", "input rows"]),
    (SECOND_STEP_REFUSED, ["simplex", "chain", "input rows"]),
])
def test_elimination_chain_stops_past_m_rows(monkeypatch, cons, expected):
    events = record_routes(monkeypatch)
    assert check_same_witness(cons, 3) is not None
    assert routes(events, 3) == expected


def wide_system(rng):
    """Up to 40 vectors in Q^2..Q^8 with a nonempty open cone, and n.

    Like a Groebner cell's walls, each vector is oriented positive at
    one drawn nonzero point, and a vector orthogonal to it is left out.
    A drawn share of the entries is 0, so some chains of elimination
    steps stay within m rows and some stop at once.
    """
    n, m = rng.randint(2, 8), rng.randint(8, 40)
    zero = rng.random()
    point = [rng.randint(-3, 3) for _ in range(n)]
    point[rng.randrange(n)] = rng.choice((-3, -2, -1, 1, 2, 3))
    vectors = []
    for _ in range(m):
        a = [0 if rng.random() < zero else rng.randint(-3, 3) for _ in range(n)]
        value = dot(a, point)
        if value:
            vectors.append(tuple(a) if value > 0 else tuple(-x for x in a))
    return n, vectors


# A 3-row configuration on 30 columns in Hermite normal form, so it is
# its own row-lattice basis, whose row space misses the all-ones vector
WIDE_CONFIG = ((1, 0, 2, 1, 0, 3, 1, 2, 0, 1, 4, 2, 1, 0, 3, 1, 2, 1, 0, 2,
                1, 3, 0, 1, 2, 1, 0, 4, 1, 2),
               (0, 1, 1, 0, 2, 1, 3, 0, 2, 1, 0, 1, 2, 3, 1, 0, 1, 2, 3, 0,
                1, 1, 2, 0, 1, 3, 1, 0, 2, 1),
               (0, 0, 0, 2, 1, 0, 1, 1, 3, 2, 1, 0, 1, 1, 0, 3, 2, 0, 1, 1,
                2, 0, 1, 3, 1, 0, 2, 1, 1, 0))
# sha256 of the points, taken with the witness solver that read each
# vector v as the triple (v, 0, True), before it took vectors
WIDE_DIGEST = "5ad3c68f3fa88dee08b25d43f32751beeb2ec8a6ba1137b8441f3f12f78f93dd"


def test_elimination_chain_stays_within_m_rows_on_wide_systems(monkeypatch):
    first = count_first_step(monkeypatch)
    events = record_routes(monkeypatch)
    route = Counter()
    digest = hashlib.sha256()
    rng = random.Random(2031)
    for _ in range(160):
        n, vectors = wide_system(rng)
        point = feasible_witness(vectors, n)
        assert point is not None, vectors
        route["refused"] += events.count("refused")
        route.update(routes(events, n))
        digest.update(repr(point).encode())
    A = ConfigMatrix(WIDE_CONFIG)
    assert A.grading is not None and A.grading != (1,) * A.n
    route.update(routes(events, A.d))
    digest.update(repr(A.grading).encode())
    assert digest.hexdigest() == WIDE_DIGEST
    assert all(route[k] >= 50 for k in ("chain", "simplex", "refused")), route
    assert first["more than m rows"] >= 50, first


@st.composite
def witness_problems(draw):
    n = draw(st.integers(1, 6))
    shape, vectors = witness_problem(random.Random(draw(st.integers(0, 2**32))), n)
    return n, vectors


@settings(max_examples=300, deadline=None)
@given(witness_problems())
def test_feasible_witness_matches_fourier_motzkin(problem):
    n, vectors = problem
    check_same_witness(vectors, n)


# -- cone_support against Fourier-Motzkin -------------------------------------


@contextlib.contextmanager
def time_limit(seconds):
    # a simplex that cycles must fail the test, not stall the suite
    def expire(signum, frame):
        raise AssertionError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fm_in_cone(c, vectors):
    # c is in the cone iff no y has v.y >= 0 for every v and c.y < 0
    n = len(c)
    system = [(v, 0, False) for v in vectors] + [(tuple(-x for x in c), 0, True)]
    return feasible_witness_by_elimination(system, n) is None


def check_against_fm(c, vectors):
    """Compare cone_support's certificate and is_irredundant with the FM decisions."""
    with time_limit(10):
        z = cone_support(c, vectors)[0]
    assert (z is None) == fm_in_cone(c, vectors), (c, vectors, z)
    if z is not None:
        assert all(type(x) is int for x in z)
        assert all(dot(v, z) >= 0 for v in vectors), (c, vectors, z)
        assert dot(c, z) < 0, (c, vectors, z)
    ineqs = [c, *vectors]
    for i in range(len(ineqs)):
        others = ineqs[:i] + ineqs[i + 1:]
        with time_limit(10):
            got = is_irredundant(ineqs, i)
        assert got == (not fm_in_cone(ineqs[i], others)), (ineqs, i)
    return z


def cone_problem(rng, n, m):
    """A target c and m vectors in Z^n, of one of several shapes.

    The shapes cover cones that are not full-dimensional (all vectors
    in a random subspace), not pointed (a vector with its negative),
    duplicate and zero vectors, c = 0, and c drawn inside the cone.
    """
    def entry():
        return rng.randint(-3, 3)

    shape = rng.choice(["free", "flat", "line", "repeat", "zero"])
    if shape == "flat":
        span = [[entry() for _ in range(n)] for _ in range(rng.randint(1, max(1, n - 1)))]
        vectors = [tuple(sum(rng.randint(-2, 2) * b[i] for b in span) for i in range(n))
                   for _ in range(m)]
    else:
        vectors = [tuple(entry() for _ in range(n)) for _ in range(m)]
    if vectors and shape == "line":
        vectors.append(tuple(-x for x in rng.choice(vectors)))
    elif vectors and shape == "repeat":
        vectors.append(rng.choice(vectors))
    elif shape == "zero":
        vectors.insert(rng.randint(0, len(vectors)), (0,) * n)
    target = rng.choice(["free", "inside", "zero"])
    if target == "zero":
        c = (0,) * n
    elif target == "inside" and vectors:
        c = tuple(sum(rng.randint(0, 2) * v[i] for v in vectors) for i in range(n))
    else:
        c = tuple(entry() for _ in range(n))
    return c, vectors


def test_cone_certificate_small_cases():
    assert cone_support((0, 0), [])[0] is None
    assert cone_support((1, -2), [])[0] == (-1, 1)
    assert cone_support((1, 1), [(1, 0), (0, 1)])[0] is None
    assert cone_support((2, 3), [(1, 0), (1, 0), (0, 0), (0, 1)])[0] is None
    z = cone_support((-1, 0), [(1, 0), (0, 1), (0, -1)])[0]
    assert z == (1, 0)
    with pytest.raises(DimensionMismatch):
        cone_support((1, 0), [(1, 0, 0)])


def test_cone_certificate_does_not_cycle():
    # degenerate: breaking ratio-test ties by the highest basic column
    # instead of the lowest pivots through the same bases forever
    c = (0, 1, 0, 0, 0)
    vectors = [(0, 0, 0, 2, 1), (1, 0, 0, 2, 0), (0, 0, 1, 0, 0), (-1, 1, 1, 2, -1),
               (-2, 1, 1, 0, 0), (1, 2, -2, -1, -2), (1, 0, 2, -2, 0)]
    assert check_against_fm(c, vectors) is not None


def test_cone_certificate_agrees_with_fm_seeded():
    rng = random.Random(2026)
    inside = outside = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        c, vectors = cone_problem(rng, n, rng.randint(0, 6 if n <= 4 else 4))
        if check_against_fm(c, vectors) is None:
            inside += 1
        else:
            outside += 1
    assert inside >= 300 and outside >= 300


def test_cone_support_names_a_positive_combination_seeded():
    # the basic columns of phase 1 are independent, so c has one
    # expression in vectors[S], and its coefficients are all positive
    rng = random.Random(2027)
    inside = 0
    for _ in range(800):
        n = rng.randint(1, 6)
        c, vectors = cone_problem(rng, n, rng.randint(0, 6 if n <= 4 else 4))
        z, S = cone_support(c, vectors)
        if z is not None:
            assert S is None
            continue
        inside += 1
        assert len(S) <= len(c) and list(S) == sorted(set(S))
        rows = [[vectors[j][i] for j in S] for i in range(n)]
        lam, free = solve_affine(rows, c, ncols=len(S))
        assert free == () and all(x > 0 for x in lam), (c, vectors, S)
        assert fm_in_cone(c, [vectors[j] for j in S])
    assert inside >= 200


@st.composite
def cone_problems(draw):
    n = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    vectors = draw(st.lists(vector, max_size=6 if n <= 4 else 4))
    c = draw(vector)
    extra = draw(st.sampled_from(["none", "line", "repeat", "zero", "inside"]))
    if vectors and extra == "line":
        vectors.append(tuple(-x for x in draw(st.sampled_from(vectors))))
    elif vectors and extra == "repeat":
        vectors.append(draw(st.sampled_from(vectors)))
    elif extra == "zero":
        vectors.append((0,) * n)
    elif extra == "inside":
        mult = draw(st.lists(st.integers(0, 2), min_size=len(vectors),
                             max_size=len(vectors)))
        c = tuple(sum(k * v[i] for k, v in zip(mult, vectors)) for i in range(n))
    return c, vectors


@settings(max_examples=300, deadline=None)
@given(cone_problems())
def test_cone_certificate_agrees_with_fm(problem):
    check_against_fm(*problem)
