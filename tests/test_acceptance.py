"""Acceptance gate: one test per advertised capability, at desk scale.

Each numbered test pins down a headline behaviour end to end, mixing
named instances whose answers are known exactly with randomized sweeps
whose seeds are fixed.  Strict xfail tests record claims that the
implementation demonstrably refutes; see the assertions next to them
for the computed facts.
"""

import hashlib
import random
import time
from itertools import combinations, product

import pytest

from toricgb.buchberger import buchberger, normal_form
from toricgb.cli import generate
from toricgb.errors import Budget, LimitExceeded, NonGenericOmega, ToricError
from toricgb.exactmath import IntMatrix, hnf
from toricgb.fan import (
    MonomialIdeal,
    check_chain_property,
    check_radical_triangulation,
    groebner_cone,
    is_squarefree,
    regular_triangulation,
)
from toricgb.ip import (
    IPInstance,
    fiber,
    is_test_set,
    skeleton_graph,
    solve_ip,
    solve_ip_elimination,
)
from toricgb.oracle import det_bareiss, graver_bruteforce, single_step_normal_form
from toricgb.orders import term_order
from toricgb.toric import (
    ConfigMatrix,
    circuits,
    degree_bound,
    graver,
    is_unimodular,
    lawrence_lifting,
    normalize_sign,
    toric_generators,
    toric_groebner,
    universal_gb,
)


def signed_set(vectors):
    return set(normalize_sign(tuple(v)) for v in vectors)


def lattice_index(A: ConfigMatrix) -> int:
    H, _ = hnf(A.matrix.transpose())
    rows = tuple(r for r in H.entries if any(r))
    return abs(det_bareiss(IntMatrix(rows)))


# ---------------------------------------------------------------------------
# Shared instances.


@pytest.fixture(scope="module")
def seg33():
    """Product of two projective planes: configuration, circuits, universal
    basis, Graver basis, distinct initial ideals, and the elapsed seconds."""
    t0 = time.time()
    A = ConfigMatrix(generate("segre", (3, 3)).entries)
    cs = circuits(A)
    grv = graver(A)
    ugb, ideals, _, _ = universal_gb(A)
    return A, cs, grv, ugb, ideals, time.time() - t0


@pytest.fixture(scope="module")
def seg333():
    """Three-factor Segre configuration with its reduced default-order basis."""
    t0 = time.time()
    A = ConfigMatrix(generate("segre", (3, 3, 3)).entries)
    G = toric_groebner(A)
    return A, G, time.time() - t0


@pytest.fixture(scope="module")
def lawrenceB():
    """Lawrence lifting of a 2x5 matrix whose Graver basis is fully known."""
    t0 = time.time()
    B = IntMatrix(((1, 3, 4, 6, 0), (0, 0, 0, -5, 1)))
    LB = ConfigMatrix(lawrence_lifting(B).entries)
    grv = graver(LB)
    cs = circuits(LB)
    return LB, grv, cs, time.time() - t0


@pytest.fixture(scope="module")
def homogeneous_sweep():
    """200 graded configurations with a random weight each.

    Every matrix starts with the all-ones row, so the coordinate sum is a
    grading and the degree bound below applies.
    """
    rng = random.Random(101)
    out = []
    while len(out) < 200:
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, 6)
        rows = ((1,) * n,) + tuple(
            tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(d - 1)
        )
        A = ConfigMatrix(rows)
        omega = tuple(rng.randint(-5, 5) for _ in range(n))
        out.append((A, omega))
    return out


@pytest.fixture(scope="module")
def fan_sweep():
    """100 graded configurations with a generic weight each.

    Entries are (A, omega, radical_matches, initial_ideal, unimodular)
    where radical_matches reports whether the radical of the initial
    ideal equals the Stanley-Reisner ideal of the induced triangulation,
    and unimodular reports whether every facet simplex of that
    triangulation spans the full lattice of A.
    """
    rng = random.Random(103)
    entries = []
    while len(entries) < 100:
        d = rng.randint(2, 3)
        n = rng.randint(d + 1, 6)
        rows = ((1,) * n,) + tuple(
            tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(d - 1)
        )
        A = ConfigMatrix(rows)
        if A.d != d:
            continue
        for _ in range(8):
            omega = tuple(rng.randint(-6, 6) for _ in range(n))
            try:
                rad_ok = check_radical_triangulation(A, omega)
                delta = regular_triangulation(A, omega)
                break
            except NonGenericOmega:
                continue
        else:
            continue
        G = buchberger(toric_generators(A), term_order(n, weight=omega))
        init = MonomialIdeal([g.lead for g in G.elements], n)
        idx = lattice_index(A)
        all_rows = tuple(range(A.d))
        uni = all(
            abs(det_bareiss(A.matrix.submatrix(all_rows, f))) == idx
            for f in delta.facets
        )
        entries.append((A, omega, rad_ok, init, uni))
    return entries


# ---------------------------------------------------------------------------
# 1. Product of two projective planes.


def test_criterion_01_product_of_projective_planes(seg33):
    A, cs, grv, ugb, ideals, elapsed = seg33
    assert len(cs) == 15
    assert sorted(A.degree(c.vector) for c in cs) == [2] * 9 + [3] * 6
    assert is_unimodular(A)
    assert signed_set(c.vector for c in cs) == signed_set(ugb)
    assert len(ideals) == 108
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. Three-factor Segre: the quadratic basis and what flattenings miss.


def _flattening_minors():
    """Sign-normalized 2x2-minor vectors of the two extreme flattenings
    of a 3x3x3 tensor, as exponent vectors in the 27 joint coordinates."""

    def idx(i, j, k):
        return 9 * i + 3 * j + k

    minors = set()
    pairs = list(combinations(list(product(range(3), repeat=2)), 2))
    for r, rp in combinations(range(3), 2):
        for (j, k), (jp, kp) in pairs:
            v = [0] * 27
            v[idx(r, j, k)] += 1
            v[idx(rp, jp, kp)] += 1
            v[idx(r, jp, kp)] -= 1
            v[idx(rp, j, k)] -= 1
            minors.add(normalize_sign(v))
    first = set(minors)
    for r, rp in combinations(range(3), 2):
        for (i, j), (ip, jp) in pairs:
            v = [0] * 27
            v[idx(i, j, r)] += 1
            v[idx(ip, jp, rp)] += 1
            v[idx(i, j, rp)] -= 1
            v[idx(ip, jp, r)] -= 1
            minors.add(normalize_sign(v))
    return first, minors


def test_criterion_02_segre_cube_quadratic_basis(seg333):
    A, G, elapsed = seg333
    assert len(G) == 162
    assert set(A.degree(g.vector) for g in G.elements) == {2}
    # generators come out of the same reduction, so they agree as a set
    assert signed_set(toric_generators(A)) == signed_set(g.vector for g in G.elements)
    assert elapsed < 300


def test_criterion_02_segre_cube_flattening_counts(seg333):
    A, G, _ = seg333
    first, union = _flattening_minors()
    basis = signed_set(g.vector for g in G.elements)
    assert len(first) == 108
    assert len(union) == 189
    assert len(basis - union) == 27
    assert len(union - basis) == 54


# SHA-256 of the sorted basis vectors, one per line with entries separated
# by spaces; the gb-segre333 benchmark workload pins the same digest
SEGRE333_SHA256 = "5501130e3384b44855cd2feab715f45aec7a7fe7205e4753d79ed2e94e830096"


@pytest.mark.extended
def test_criterion_02_segre_cube_basis_is_pinned(seg333):
    _, G, _ = seg333
    text = "\n".join(" ".join(map(str, v)) for v in sorted(G.vectors))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == SEGRE333_SHA256


@pytest.mark.xfail(
    reason="the two extreme flattenings miss 27 basis quadrics and add 54 "
    "non-members, so the sets cannot agree",
    strict=True,
)
def test_criterion_02_segre_cube_flattening_equality(seg333):
    A, G, _ = seg333
    _, union = _flattening_minors()
    # boolean first: a rendered diff of two ~180-element exponent sets is
    # useless and very slow to build
    agree = signed_set(g.vector for g in G.elements) == union
    assert agree


# ---------------------------------------------------------------------------
# 3. A Lawrence lifting whose Graver basis exceeds its circuit degree.

# One representative per sign pair; the lifted vector is (u, -u).
LAWRENCE_GRAVER = [
    (-3, 1, 0, 0, 0), (-4, 0, 1, 0, 0), (0, -4, 3, 0, 0),
    (0, -2, 0, 1, 5), (-6, 0, 0, 1, 5), (0, 0, -3, 2, 10),
    (-2, 0, -1, 1, 5), (-3, -1, 0, 1, 5), (-1, -1, 1, 0, 0),
    (1, -1, -1, 1, 5), (0, 2, -3, 1, 5), (1, -3, 2, 0, 0),
    (2, -2, 1, 0, 0), (-1, 1, -2, 1, 5), (2, 0, -2, 1, 5),
    (-1, -1, -2, 2, 10),
]


def test_criterion_03_lawrence_lifting_graver(lawrenceB):
    LB, grv, cs, elapsed = lawrenceB
    lifted = [u + tuple(-x for x in u) for u in LAWRENCE_GRAVER]
    assert signed_set(grv) == signed_set(lifted)
    assert signed_set(c.vector for c in cs) == signed_set(lifted[:6])

    degs = sorted(LB.degree(c.vector) for c in cs)
    assert degs == [4, 5, 7, 8, 12, 15]
    cdeg = max(degs)
    top = [c for c in cs if LB.degree(c.vector) == cdeg]
    assert len(top) == 1 and top[0].true_degree == 30
    assert max(LB.degree(v) for v in grv) == 16 > cdeg
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 4. Facet count of a Groebner cone on a degree-345 monomial curve.


def test_criterion_04_curve_groebner_cone_facets():
    A = ConfigMatrix(((15, 247, 248, 345),))
    omega = (111, 0, 341, 1)
    G = buchberger(toric_generators(A), term_order(4, weight=omega))
    cone = groebner_cone(G)
    assert len(G) == 28
    assert cone.facet_count == 5
    assert cone.lineality_dim == 1
    assert cone.contains(omega, strict=True)


# ---------------------------------------------------------------------------
# 5. Degree bound for reduced bases of graded configurations.


def test_criterion_05_degree_bound_sweep(homogeneous_sweep):
    checked = 0
    for A, omega in homogeneous_sweep:
        assert A.grading == (1,) * A.n
        bound = degree_bound(A)
        cap = min(3 * bound + 20, 80)
        order = term_order(A.n, weight=omega, tiebreak="degrevlex")
        try:
            gens = toric_generators(A, Budget(elements=20_000, degree=cap))
            G = buchberger(gens, order, Budget(elements=20_000, degree=cap))
        except LimitExceeded:
            continue
        assert all(A.degree(g.vector) <= bound for g in G.elements), (
            A.original.entries,
            omega,
        )
        checked += 1
    assert checked >= 200


# ---------------------------------------------------------------------------
# 6. Integer programs: both solvers match fiber enumeration.


def test_criterion_06_ip_solver_agreement_and_skeletons():
    rng = random.Random(107)
    done = elim_ok = elim_skipped = 0
    while done < 100:
        if rng.random() < 0.5:
            r, c = rng.randint(2, 3), rng.randint(2, 3)
            rows = generate("transport", (r, c)).entries
        else:
            n = rng.randint(2, 5)
            rows = (tuple(rng.randint(1, 8) for _ in range(n)),)
        try:
            A = ConfigMatrix(rows)
        except ToricError:
            continue
        n = A.n
        x = tuple(rng.randint(0, 3) for _ in range(n))
        b = A.original.mulvec(x)
        omega = tuple(rng.randint(-4, 6) for _ in range(n))
        inst = IPInstance(A, omega, b)
        try:
            F = fiber(A, b, Budget(points=5000))
        except LimitExceeded:
            continue
        if not F:
            continue
        order = term_order(n, weight=omega, tiebreak="degrevlex")
        best = min(F, key=order.key)

        got = solve_ip(inst)
        assert got == best, (rows, omega, b)
        try:
            assert solve_ip_elimination(inst, Budget(pairs=200_000)) == best
            elim_ok += 1
        except LimitExceeded:
            elim_skipped += 1

        G = buchberger(toric_generators(A), order)
        sk = skeleton_graph(inst, G)
        assert sk.is_connected(), (rows, omega, b)
        assert sk.is_acyclic(), (rows, omega, b)
        assert sk.sinks() == (best,), (rows, omega, b)
        done += 1
    assert done == 100
    assert elim_ok + elim_skipped == 100
    assert elim_ok >= 90


# ---------------------------------------------------------------------------
# 7. Reduced bases certify optimality as test sets.


def test_criterion_07_test_set_certification():
    rng = random.Random(109)
    triples = negatives = 0
    while triples < 50:
        if rng.random() < 0.5:
            r, c = rng.randint(2, 3), rng.randint(2, 3)
            rows = generate("transport", (r, c)).entries
        else:
            n = rng.randint(2, 4)
            rows = (tuple(rng.randint(1, 6) for _ in range(n)),)
        try:
            A = ConfigMatrix(rows)
        except ToricError:
            continue
        n = A.n
        omega = tuple(rng.randint(-4, 6) for _ in range(n))
        order = term_order(n, weight=omega, tiebreak="degrevlex")
        G = buchberger(toric_generators(A), order)
        T = [g.vector for g in G.elements]
        for _ in range(2):
            x = tuple(rng.randint(0, 2) for _ in range(n))
            b = A.original.mulvec(x)
            try:
                pts = fiber(A, b, Budget(points=3000))
            except LimitExceeded:
                continue
            if not pts:
                continue
            assert is_test_set(T, A, omega, [b]), (rows, omega, b)
            triples += 1
            if len(pts) >= 2:
                assert not is_test_set([], A, omega, [b]), (rows, omega, b)
                negatives += 1
    assert triples >= 50
    assert negatives >= 30


# ---------------------------------------------------------------------------
# 8. Radical initial ideals against regular triangulations.


def test_criterion_08_radical_initial_vs_triangulation(fan_sweep):
    assert len(fan_sweep) >= 100
    squarefree = 0
    for A, omega, rad_ok, init, uni in fan_sweep:
        assert rad_ok, (A.original.entries, omega)
        assert is_squarefree(init) == uni, (A.original.entries, omega)
        squarefree += is_squarefree(init)
    # both outcomes must actually occur for the equivalence to mean anything
    assert 0 < squarefree < len(fan_sweep)


# ---------------------------------------------------------------------------
# 9. Circuits inside the universal basis inside the Graver basis.


def test_criterion_09_basis_inclusions_named(seg33, lawrenceB, seg333):
    A, cs, grv, ugb, _, _ = seg33
    assert signed_set(c.vector for c in cs) <= signed_set(ugb) <= signed_set(grv)
    # unimodular, so the chain collapses to equality
    assert signed_set(c.vector for c in cs) == signed_set(grv)

    LB, lgrv, lcs, _ = lawrenceB
    lu, _, _, _ = universal_gb(LB, Budget())
    assert signed_set(c.vector for c in lcs) <= signed_set(lu) <= signed_set(lgrv)
    assert signed_set(lu) == signed_set(lgrv)

    # the 27-column Segre cube sits beyond any reasonable Graver budget;
    # the guard is the documented exclusion
    S, _, _ = seg333
    with pytest.raises(LimitExceeded):
        graver(S, Budget(elements=500, degree=6))


def test_criterion_09_basis_inclusions_sweep(homogeneous_sweep):
    full = with_universal = 0
    for A, _ in homogeneous_sweep:
        try:
            grv = graver(A, Budget(elements=5000, degree=40))
        except LimitExceeded:
            continue
        sg = signed_set(grv)
        sc = signed_set(c.vector for c in circuits(A))
        assert sc <= sg, A.original.entries
        full += 1
        if A.pointed and A.n <= 5 and len(grv) <= 16:
            ugb, _, _, _ = universal_gb(A, Budget())
            su = signed_set(ugb)
            assert sc <= su <= sg, A.original.entries
            with_universal += 1
    assert full >= 150
    assert with_universal >= 100


# ---------------------------------------------------------------------------
# 10. Chain condition on associated primes of initial ideals.


def test_criterion_10_chain_property_with_negative_control(fan_sweep):
    for _, _, _, init, _ in fan_sweep:
        assert check_chain_property(init)
    # an arbitrary monomial ideal fails: its embedded primes skip a level
    bad = MonomialIdeal(((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 1)), 4)
    assert not check_chain_property(bad)


# ---------------------------------------------------------------------------
# 11. Walk degrees on a cycle graph with attached odd cycles.


@pytest.mark.extended
def test_criterion_11_cycle_graph_walk_degrees():
    s, l = 3, 3
    A = ConfigMatrix(generate("tt-graph", (s, l)).entries)
    grv = graver(A)
    max_graver = max(sum(abs(x) for x in v) for v in grv)
    assert max_graver == s * (l + 1) == 12

    cs = circuits(A)
    assert len(cs) == 9
    max_circuit = max(sum(abs(x) for x in c.vector) for c in cs)
    assert max_circuit == 2 * (l + s - 1) == 10
    assert max_graver > max_circuit


@pytest.mark.xfail(
    reason="measured with minor common factors the largest circuit degree "
    "is 16, not the plain support length 10",
    strict=True,
)
def test_criterion_11_cycle_graph_circuit_true_degree_claim():
    A = ConfigMatrix(generate("tt-graph", (3, 3)).entries)
    assert max(c.true_degree for c in circuits(A)) == 10


# ---------------------------------------------------------------------------
# 12. Independent oracles: brute-force Graver and single-step reduction.


def test_criterion_12_graver_bruteforce_agreement():
    named = [
        ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3))),
        ConfigMatrix(((1, 2),)),
    ]
    rng = random.Random(111)
    agree = 0
    queue = list(named)
    while agree < 27:
        if queue:
            A = queue.pop()
        else:
            d = rng.randint(1, 2)
            n = rng.randint(d + 1, 5)
            rows = tuple(
                tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d)
            )
            if any(not any(r) for r in rows):
                continue
            try:
                A = ConfigMatrix(rows)
            except ToricError:
                continue
            if not A.pointed:
                continue
        try:
            grv = graver(A, Budget(elements=2000, degree=12))
        except LimitExceeded:
            continue
        if not grv:
            continue
        db = max(A.degree(v) for v in grv)
        bf = graver_bruteforce(A, db, max_monomials=400_000)
        assert sorted(signed_set(grv)) == list(bf), A.original.entries
        agree += 1
    assert agree >= 27


def test_criterion_12_reduction_oracle_agreement():
    rng = random.Random(73)
    bases = []
    while len(bases) < 20:
        d = rng.randint(1, 2)
        n = rng.randint(d + 1, 5)
        rows = tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d))
        if any(not any(r) for r in rows):
            continue
        try:
            A = ConfigMatrix(rows)
        except ToricError:
            continue
        if not A.pointed:
            continue
        w = tuple(rng.randint(-3, 5) for _ in range(n))
        G = buchberger(toric_generators(A), term_order(n, weight=w, tiebreak="degrevlex"))
        bases.append((n, G))
    for count in range(10_000):
        n, G = bases[count % len(bases)]
        v = tuple(rng.randint(0, 6) for _ in range(n))
        assert normal_form(v, G) == single_step_normal_form(v, G)
