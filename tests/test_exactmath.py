import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from toricgb.errors import DimensionMismatch, LimitExceeded, RankDeficient
from toricgb.exactmath import (
    IntMatrix,
    _normalize_constraint,
    det_bareiss,
    dot,
    feasible_witness,
    hnf,
    identity_matrix,
    is_irredundant,
    kernel_lattice_basis,
    max_abs_minor,
    primitive,
    rank,
    solve_affine,
    strict_feasible,
    xgcd,
)


def random_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return IntMatrix(
        tuple(tuple(rng.randint(lo, hi) for _ in range(ncols)) for _ in range(nrows))
    )


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
    assert identity_matrix(3).mul(M).entries == M.entries
    assert M.mulvec((1, 0, 0, 0)) == M.col(0)


def test_hnf_unimodular_transform():
    rng = random.Random(3)
    for _ in range(60):
        M = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        H, U = hnf(M)
        assert abs(det_bareiss(U)) == 1
        assert U.mul(M).entries == H.entries
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
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(1, 4)
        M = random_matrix(rng, n, n)
        assert det_bareiss(M) == _det_cofactor(M)


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
        max_abs_minor(random_matrix(random.Random(0), 12, 24), k=6, max_terms=10)


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
    w = feasible_witness([((1, 0), 0, True), ((0, 1), 0, True)], 2)
    assert w is not None and all(x > 0 for x in w)


def test_feasible_witness_infeasible():
    cons = [((1, 0), 0, True), ((-1, 0), 0, True)]  # x > 0 and -x > 0
    assert feasible_witness(cons, 2) is None


def test_feasible_witness_thin_slab():
    # 5 < x < 5 + 1/1000, exercising rational midpoints
    cons = [((1,), 5, True), ((-1,), Fraction(-5001, 1000), True)]
    w = feasible_witness(cons, 1)
    assert w is not None and 5 < w[0] < Fraction(5001, 1000)


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


# -- the integer route of constraint normalization ----------------------------

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
    lambda n: st.lists(constraints(n), min_size=1, max_size=6)))
def test_feasible_witness_same_point_for_fraction_input(cons):
    n = len(cons[0][0])
    assert feasible_witness(cons, n) == feasible_witness(
        [as_fractions(c) for c in cons], n)
