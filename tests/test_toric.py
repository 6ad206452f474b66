import hashlib
import json
import random
from collections import Counter

import pytest

from toricgb.buchberger import buchberger
from toricgb.cli import generate, main
from toricgb.errors import (
    Budget,
    DimensionMismatch,
    LimitExceeded,
    NotACircuit,
    NotPointed,
)
from toricgb.exactmath import dot, kernel_lattice_basis, strict_feasible
from toricgb.fan import groebner_cone
from toricgb.oracle import strict_feasible_by_elimination
from toricgb.toric import (
    ConfigMatrix,
    _lift,
    circuits,
    degree_bound,
    graver,
    is_unimodular,
    lawrence_lifting,
    normalize_sign,
    toric_generators,
    toric_groebner,
    true_degree,
    universal_gb,
)

TWISTED = ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))


def random_pointed(rng, dmax=3, nmax=6, lo=0, hi=5):
    while True:
        d = rng.randint(1, dmax)
        n = rng.randint(d + 1, nmax)
        M = tuple(
            tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(d)
        )
        if any(not any(col) for col in zip(*M)):
            continue
        try:
            A = ConfigMatrix(M)
        except DimensionMismatch:
            continue
        if A.pointed and A.n > A.d:
            return A


def test_config_drops_dependent_rows():
    A = ConfigMatrix(((1, 2, 3), (2, 4, 6), (0, 1, 1)))
    assert A.d == 2
    assert A.kept_rows == (0, 2)
    assert A.original.nrows == 3


def test_kernel_basis_is_the_kernel_lattice_basis_seeded():
    # the rows of U that ConfigMatrix's HNF leaves past the pivots span
    # the kernel; their HNF is the basis kernel_lattice_basis makes from
    # the kept rows, dependent input rows or not
    rng = random.Random(47)
    seen = Counter()
    while seen["checked"] < 200:
        d = rng.randint(1, 3)
        n = rng.randint(d, 6)
        rows = [tuple(rng.randint(-2, 4) for _ in range(n)) for _ in range(d)]
        if seen["checked"] % 2:
            # a combination of the rows drawn, put in at random
            coefficients = [rng.randint(-2, 2) for _ in rows]
            combo = tuple(sum(c * r[j] for c, r in zip(coefficients, rows)) for j in range(n))
            rows.insert(rng.randint(0, d), combo)
        try:
            A = ConfigMatrix(rows)
        except DimensionMismatch:
            continue
        assert A.kernel_basis() == kernel_lattice_basis(A.matrix), rows
        seen["checked"] += 1
        seen["dependent rows"] += A.d < len(rows)
        seen["no kernel"] += A.d == A.n
    assert seen["dependent rows"] >= 90 and seen["no kernel"] >= 10, seen


def test_config_rejects_rank_zero():
    with pytest.raises(DimensionMismatch):
        ConfigMatrix(((0, 0), (0, 0)))


def test_config_prefers_all_ones_grading():
    assert TWISTED.grading == (1, 1, 1, 1)
    B = ConfigMatrix(((1, 2, 3),))
    assert B.grading == (1, 2, 3)
    assert B.pointed


def test_non_pointed_configuration():
    A = ConfigMatrix(((1, -1),))
    assert not A.pointed
    with pytest.raises(NotPointed):
        graver(A)
    with pytest.raises(NotPointed):
        universal_gb(A)


def test_kernel_basis_annihilates():
    K = TWISTED.kernel_basis()
    assert K.nrows == 2
    for row in K.entries:
        assert TWISTED.matrix.mulvec(row) == (0, 0)


def test_toric_generators_lie_in_kernel():
    for A in (TWISTED, ConfigMatrix(((1, 3, 4, 6, 0), (0, 0, 0, -5, 1)))):
        for v in toric_generators(A):
            assert A.matrix.mulvec(v) == (0,) * A.d


def test_toric_groebner_default_order_matches_explicit():
    from toricgb.orders import degrevlex

    G1 = toric_groebner(TWISTED)
    G2 = toric_groebner(TWISTED, degrevlex(4))
    assert G1.vectors == G2.vectors
    assert len(G1) == 3


def test_lawrence_lifting_shape():
    L = lawrence_lifting(TWISTED.matrix)
    assert (L.nrows, L.ncols) == (6, 8)
    # top block [A 0], bottom block [I I]
    assert L.entries[0][:4] == (1, 1, 1, 1) and L.entries[0][4:] == (0,) * 4
    for i in range(4):
        row = L.entries[2 + i]
        assert row[i] == 1 and row[4 + i] == 1 and sum(row) == 2


def test_graver_single_relation():
    A = ConfigMatrix(((1, 2),))
    assert graver(A) == [(2, -1)]


def test_graver_twisted_cubic():
    grv = graver(TWISTED)
    assert sorted(grv) == [
        (0, 1, -2, 1),
        (1, -2, 1, 0),
        (1, -1, -1, 1),
        (1, 0, -3, 2),
        (2, -3, 0, 1),
    ]


def test_graver_elements_are_conformally_minimal():
    # no element is the conformal sum of two others
    grv = graver(TWISTED)
    signed = set(grv) | {tuple(-x for x in g) for g in grv}

    def conformal(u, v):
        return all(
            (x >= 0 and 0 <= y <= x) or (x <= 0 and x <= y <= 0)
            for x, y in zip(u, v)
        )

    for u in signed:
        for v in signed:
            if v != u and conformal(u, v):
                w = tuple(a - b for a, b in zip(u, v))
                assert not any(w) or w not in signed or not conformal(u, w)


def test_circuits_twisted_cubic():
    cs = circuits(TWISTED)
    assert len(cs) == 4
    vecs = {c.vector for c in cs}
    assert vecs == {
        (0, 1, -2, 1),
        (1, -2, 1, 0),
        (1, 0, -3, 2),
        (2, -3, 0, 1),
    }
    # supports are minimal: no circuit support strictly contains another
    sups = [frozenset(i for i, x in enumerate(c.vector) if x) for c in cs]
    for a in sups:
        for b in sups:
            if a != b:
                assert not a < b


def test_circuit_true_degree_at_least_plain():
    for c in circuits(TWISTED):
        assert c.true_degree >= TWISTED.degree(c.vector)
        assert true_degree(c.vector, TWISTED) == c.true_degree


def test_true_degree_rejects_non_circuits():
    with pytest.raises(NotACircuit):
        true_degree((1, -1, -1, 1), TWISTED)  # Graver, not a circuit


def test_degree_bound_dominates_twisted_gb():
    G = toric_groebner(TWISTED)
    bound = degree_bound(TWISTED)
    assert all(TWISTED.degree(v) <= bound for v in G.vectors)


def test_unimodular_configurations():
    # transportation matrices are network matrices, hence unimodular;
    # the twisted cubic has maximal minors 1, 2 and 3
    t22 = ConfigMatrix(
        ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1))
    )
    assert is_unimodular(t22)
    assert not is_unimodular(TWISTED)


def test_universal_gb_twisted_cubic():
    ugb, ideals, witnesses, bases = universal_gb(TWISTED)
    assert sorted(ugb) == sorted(graver(TWISTED))
    assert len(ideals) == 8
    assert len(witnesses) == 8
    # each witness reproduces its initial ideal and the returned basis
    from toricgb.orders import term_order

    gens = toric_generators(TWISTED)
    for ideal, w, B in zip(ideals, witnesses, bases):
        G = buchberger(gens, term_order(4, weight=w))
        assert sorted(g.lead for g in G) == sorted(ideal.gens)
        assert B == G


def test_universal_gb_without_graver_elements():
    # a kernel of rank zero: one cell, the zero weight, an empty basis
    ugb, ideals, witnesses, bases = universal_gb(ConfigMatrix(((1, 0), (0, 1))))
    assert ugb == [] and witnesses == [(0, 0)]
    assert [I.gens for I in ideals] == [()]
    assert [G.elements for G in bases] == [()]
    assert groebner_cone(bases[0]).facet_count == 0


def test_universal_gb_runs_no_buchberger_of_its_own(monkeypatch):
    # each cell reads its basis off the Graver basis, so every Buchberger
    # run is graver's, and the saturation pipeline runs on the Lawrence
    # lifting only.  One run per distinct basis (108) and the pipeline on
    # A itself were made before
    import toricgb.toric as toric

    own = nested = 0
    real = toric._groebner

    def counting(*args, **kwargs):
        nonlocal own
        own += nested == 0
        return real(*args, **kwargs)

    def shielded(fn):
        def run(*args, **kwargs):
            nonlocal nested
            nested += 1
            try:
                return fn(*args, **kwargs)
            finally:
                nested -= 1
        return run

    A = ConfigMatrix(generate("segre", (3, 3)))
    pipelines = record_calls(monkeypatch, toric, "toric_generators")
    monkeypatch.setattr(toric, "_groebner", counting)
    monkeypatch.setattr(toric, "graver", shielded(toric.graver))
    _, ideals, _, _ = universal_gb(A)
    assert len(ideals) == 108
    assert own == 0
    assert [B.n for B, *_ in pipelines] == [2 * A.n]


def test_universal_gb_makes_one_witness_call_per_basis(monkeypatch):
    # sign prefixes are decided by cone_support; strict_feasible runs
    # only for the witness of each new cell (1,446 calls when it decided
    # every prefix the passed-down point left open)
    import toricgb.toric as toric

    calls = record_calls(monkeypatch, toric, "strict_feasible")
    programs = record_calls(monkeypatch, toric, "cone_support")
    _, ideals, _, _ = universal_gb(ConfigMatrix(generate("segre", (3, 3))))
    assert len(ideals) == 108
    assert len(calls) == 108
    # a child sign the passed-down point satisfies needs no program, nor
    # does one that a ray from that point reaches, nor one that a stored
    # feasibility certificate favours, nor one whose refutation a stored
    # support repeats; testing both signs of every visited prefix makes
    # 2,694, 1,405 before the supports were stored, 489 before the
    # points on a hyperplane were moved off it, and 414 (342 of them
    # feasibility proofs) before the ray and the certificates; reading
    # the stored refutations before the ray changes no program
    assert len(programs) == 100
    # each witness is solved on its cell's facets only, about 4 per cell;
    # the full patterns have 15 each, and the signs the walk kept for
    # the cell made 996
    assert sum(len(args[0]) for args in calls) == 432


@pytest.mark.parametrize("dims, programs", [((3, 3), 0), ((2, 2, 2), 7)])
def test_witnesses_make_a_pinned_number_of_programs(monkeypatch, dims, programs):
    # each witness lives in R^4, and a chain of elimination steps bounds
    # every coordinate it reaches with no program while a step makes at
    # most m rows; two programs per coordinate but the last made 648 and
    # 480, and with only the last two coordinates eliminated and an open
    # homogeneous slice's upper program skipped, 370 and 270
    import toricgb.exactmath as exactmath

    A = ConfigMatrix(generate("segre", dims))
    calls = record_calls(monkeypatch, exactmath, "_slice_bound")
    universal_gb(A)
    assert len(calls) == programs


def test_segre_222_witnesses_still_reach_the_simplex_route(monkeypatch):
    # some walls of Segre 2x2x2's cells make more than m rows in one
    # elimination step, so the simplex route bounds a coordinate there;
    # its point is still the Fourier-Motzkin one
    import toricgb.exactmath as exactmath
    import toricgb.toric as toric

    walls = record_calls(monkeypatch, toric, "strict_feasible")
    universal_gb(ConfigMatrix(generate("segre", (2, 2, 2))))
    programs = record_calls(monkeypatch, exactmath, "_slice_bound")
    reached = 0
    for (vectors,) in walls:
        before = len(programs)
        point = strict_feasible(vectors)
        if len(programs) > before:
            reached += 1
            assert point == strict_feasible_by_elimination(vectors), vectors
    assert reached >= 1


def test_row_lattice_basis_is_computed_once(monkeypatch):
    # the grading, circuits and degree_bound all read the one basis the
    # matrix keeps: one hnf for the kept rows and one for the row
    # lattice, where computing the basis at each call made 5
    import toricgb.toric as toric

    calls = record_calls(monkeypatch, toric, "hnf")
    A = ConfigMatrix(((3, 3, 2, 0), (2, 2, 3, 2)))
    circuits(A)
    degree_bound(A)
    circuits(A)
    assert len(calls) == 2


def test_swapped_rows_keep_the_circuits_true_degrees():
    # the grading is found on the row lattice's Hermite basis
    # ((1, 1, 4, 4), (0, 0, 5, 6)), so both orders read (3, 3, 17, 18),
    # with true degrees 102, 18, 102; found on the rows as written they
    # read (2, 2, 3, 2) and (9, 9, 11, 6), with 18, 12, 18 and 66, 54, 66
    rows = ((3, 3, 2, 0), (2, 2, 3, 2))
    assert ConfigMatrix(rows).grading == ConfigMatrix(rows[::-1]).grading == (3, 3, 17, 18)
    assert circuits(ConfigMatrix(rows)) == circuits(ConfigMatrix(rows[::-1]))


@pytest.mark.parametrize("dims", [(3, 3), (2, 2, 2)])
def test_universal_gb_witness_is_that_of_the_full_sign_pattern(dims):
    # the witness program holds only the cell's facets, and
    # feasible_witness's point depends on the open cell alone, so it is
    # the point of the cell's sign pattern over every Graver vector;
    # Segre 2x2x2 has cells with more than 4 facets in R^4
    A = ConfigMatrix(generate("segre", dims))
    K = A.kernel_basis()
    grv = graver(A)
    coords = [tuple(dot(row, g) for row in K.entries) for g in grv]
    _, _, witnesses, _ = universal_gb(A)
    for w in witnesses:
        signs = [dot(g, w) for g in grv]
        assert 0 not in signs
        pattern = [c if s > 0 else tuple(-x for x in c) for c, s in zip(coords, signs)]
        assert _lift(strict_feasible(pattern), K) == w


def test_fan_cones_reads_every_facet_off_the_walk(monkeypatch, tmp_path, capsys):
    # each cone's facets come from the cells the sign tree reaches, so
    # the walk's own programs and witness calls are all that run (984
    # cone_certificate programs when groebner_cone tested each cone)
    import toricgb.exactmath as exactmath
    import toricgb.toric as toric

    path = tmp_path / "segre33.mat"
    assert main(["gen", "segre", "3", "3", "--out", str(path)]) == 0
    certificates = record_calls(monkeypatch, exactmath, "cone_certificate")
    witnesses = record_calls(monkeypatch, toric, "strict_feasible")
    programs = record_calls(monkeypatch, toric, "cone_support")
    capsys.readouterr()
    assert main(["fan", "cones", "--json", str(path)]) == 0
    cones = json.loads(capsys.readouterr().out)["cones"]
    assert Counter(c["facets"] for c in cones) == {4: 102, 6: 6}
    assert certificates == []
    assert len(witnesses) == 108
    # 414 before the ray test and the stored feasibility certificates
    assert len(programs) == 100


def test_only_printed_witnesses_are_solved(monkeypatch, tmp_path, capsys):
    # universal and fan count print no witness, so they solve none (108
    # each when they ran universal_gb); fan cones prints one per cone
    import toricgb.toric as toric

    path = tmp_path / "segre33.mat"
    assert main(["gen", "segre", "3", "3", "--out", str(path)]) == 0
    witnesses = record_calls(monkeypatch, toric, "strict_feasible")
    for argv, calls in ((["fan", "count"], 0), (["universal"], 0), (["fan", "cones"], 108)):
        witnesses.clear()
        assert main([*argv, str(path)]) == 0
        assert len(witnesses) == calls, argv
    capsys.readouterr()


def test_groebner_cone_makes_no_witness_call(monkeypatch):
    # redundancy is decided by cone_certificate, not feasible_witness
    import toricgb.exactmath as exactmath

    calls = record_calls(monkeypatch, exactmath, "feasible_witness")
    _, _, _, bases = universal_gb(ConfigMatrix(generate("segre", (3, 3))))
    calls.clear()
    counts = sorted(groebner_cone(G).facet_count for G in bases)
    assert counts == [4] * 102 + [6] * 6
    assert calls == []


def test_toric_groebner_reuses_the_canonical_basis(monkeypatch):
    # 1 saturation and the run under the canonical order, the default
    # (3 runs when the saturation took two, 6 when each of the 5 columns
    # without a leading entry had its own): the runs of toric_generators
    import toricgb.toric as toric

    runs = record_calls(monkeypatch, toric, "_groebner")
    real = buchberger
    A = ConfigMatrix(generate("segre", (3, 3)))
    G = toric_groebner(A)
    assert len(runs) == 2
    assert G == real(toric_generators(A), G.order)


def test_non_canonical_toric_groebner_makes_no_canonical_run(monkeypatch):
    # under another order the run starts from the one saturation's
    # output: 2 runs where two saturations made 3, computing the
    # canonical basis first made 4, and one saturation per column 7; the
    # same reduced basis.  The runs are told apart by what calls them,
    # not by their orders
    import toricgb.ip as ip
    import toricgb.toric as toric
    from toricgb.fan import check_radical_triangulation
    from toricgb.ip import IPInstance, solve_ip
    from toricgb.orders import term_order

    A = ConfigMatrix(generate("segre", (3, 3)))
    omega = (0, 1, 5, 2, 9, 4, 7, 3, 8)
    order = term_order(A.n, weight=omega)
    # solve_ip makes its last run from toricgb.ip: one recorder serves both
    runs = record_calls(monkeypatch, toric, "_groebner")
    monkeypatch.setattr(ip, "_groebner", toric._groebner)
    saturations = record_calls(monkeypatch, toric, "saturate_variable")
    canonical = record_calls(monkeypatch, toric, "toric_generators")
    G = toric_groebner(A, order)
    assert len(saturations) == 1
    assert len(runs) == 2
    assert runs[-1][1] == order
    # solve_ip and check_radical_triangulation take the same route
    b = A.original.mulvec((1, 0, 0, 0, 1, 0, 0, 0, 1))
    assert solve_ip(IPInstance(A, omega, b)) is not None
    assert check_radical_triangulation(A, omega)
    assert len(saturations) == 3 * 1
    assert len(runs) == 3 * 2
    assert canonical == []
    assert G == buchberger(toric.toric_generators.__wrapped__(A), order)


# (generator, parameters, S-pairs popped, SHA-256 of the pairs in order)
POPPED_PAIRS = (
    ("segre", (3, 3), 42,
     "0c22eb7329a825c51ecdb8d5655b6c354f03b6e567c024f55b9ecaf717e2f002"),
    ("segre", (2, 2, 3), 191,
     "14ba43b1cefec38a6ab2d33cd7df4b6fd3d1560b737f54cb1b41e422b0c71897"),
    ("segre", (3, 3, 3), 3796,
     "e5750f2ebada0dea253cfdb989dd43976f601e1c1896581fe51daa7e31be87f0"),
    ("hypersimplex2", (7,), 3615,
     "e970c1af25d8b7f0c419a690d5e5a7f067d2cb698af6282574404ca325949950"),
    ("monomial-curve", (3, 7, 8, 11), 49,
     "7ccdf3364956afd6573a60b406bc3394a726042e96102e57076e73ccec9d818a"),
)


def test_toric_generators_s_pair_count(monkeypatch):
    # S-pairs popped after the Gebauer-Moeller criteria, over every run,
    # and the order they are popped in: the digest runs over each pair's
    # packed lcm and the packed vectors of its two elements, since pairs
    # with one lcm can swap places without changing the lcms.  One
    # saturation per column without a leading entry made 104, 511 and
    # 15,169 pairs on the three Segre inputs.  Saturation runs that
    # carry every common factor whole made 66, 280, 6,917, 8,060 and 60
    # pairs on the five inputs, and a first run by one column before the
    # run over the rest made 58, 275, 5,516, 7,569 and 49 (the monomial
    # curve has one column to saturate, so it never made two).  The
    # leads of hypersimplex2 7 and of the monomial curve are not all
    # squarefree, so their colon monomials go past single variables
    import toricgb.buchberger as engine

    for kind, params, pairs, digest in POPPED_PAIRS:
        calls = record_calls(monkeypatch, engine, "_s_pair")
        toric_generators(ConfigMatrix(generate(kind, params)))
        assert len(calls) == pairs, params
        text = ";".join(",".join(map(str, args[:3])) for args in calls)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, params
        monkeypatch.undo()


def record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper; return the list of its positional args.

    The wrapper's __wrapped__ is the real function.
    """
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    recording.__wrapped__ = real
    monkeypatch.setattr(module, name, recording)
    return calls


def saturations(monkeypatch, A):
    """The saturation runs of toric_generators(A), in order.

    A run by one variable gives its column.  A run through a new
    variable y gives the columns y stands for, read off the generator
    y - x^rest that joins the others last.
    """
    import toricgb.toric as toric

    calls = record_calls(monkeypatch, toric, "saturate_variable")
    toric_generators(A)
    out = []
    for gens, i, *_ in calls:
        if i < A.n:
            out.append(i)
            continue
        *_, product = gens
        assert i == A.n and product[i] == 1
        assert set(product[:i]) <= {0, -1}
        out.append(tuple(j for j in range(i) if product[j]))
    return out


def test_toric_generators_saturates_the_uninverted_columns(monkeypatch):
    # the kernel basis of Segre 3x3 has four rows, negative in columns
    # 2, 5, 6 and 7; one run through y stands for all four.  A first run
    # by column 8, the column without a leading entry in the most rows,
    # made [8, (2, 5, 6, 7)]
    A = ConfigMatrix(generate("segre", (3, 3)))
    K = A.kernel_basis().entries
    unit = {next(j for j, x in enumerate(row) if x) for row in K}
    assert unit == {0, 1, 3, 4}
    assert {j for j in range(9) if any(row[j] < 0 for row in K)} == {2, 5, 6, 7}
    assert saturations(monkeypatch, A) == [(2, 5, 6, 7)]


def test_toric_generators_saturates_only_the_negative_columns(monkeypatch):
    # kernel basis rows (2, 3, 1, -3, -2, 4), (0, 6, 0, -3, -3, 5) and
    # (0, 0, 3, -2, 0, 0), under a grading that is not all-ones: columns
    # 3 and 4 hold every negative entry, and one run through y stands
    # for both.  Columns 0 to 2, where the rows lead, and column 5,
    # positive wherever it is nonzero, are never saturated.  A first run
    # by column 3 before a run by column 4 made [3, 4]
    A = ConfigMatrix(((0, 1, 2, 3, 4, 3), (2, 3, 2, 3, 3, 0), (1, 2, 0, 0, 4, 0)))
    assert A.grading != (1,) * A.n
    assert saturations(monkeypatch, A) == [(3, 4)]


def test_graver_makes_no_repeated_run(monkeypatch):
    # 1 saturation of the Lawrence lifting and its canonical run, whose
    # output graver reads directly: that order is already degrevlex(18).
    # Two saturations made 3 runs, and one saturation per column without
    # a leading entry 15
    import toricgb.toric as toric

    runs = record_calls(monkeypatch, toric, "_groebner")
    assert len(graver(ConfigMatrix(generate("segre", (3, 3))))) == 15
    assert len(runs) == 2


def test_universal_gb_guard():
    # the root, a child and a grandchild: the walk trips at its third node
    with pytest.raises(LimitExceeded) as exc:
        universal_gb(TWISTED, Budget(walk=2))
    assert (exc.value.guard, exc.value.reached) == ("walk", 3)


def test_normalize_sign():
    assert normalize_sign((0, -1, 2)) == (0, 1, -2)
    assert normalize_sign((1, -1)) == (1, -1)


def test_inclusion_chain_random_sweep():
    rng = random.Random(41)
    checked = 0
    while checked < 25:
        A = random_pointed(rng)
        try:
            grv = set(graver(A, Budget(degree=40)))
        except LimitExceeded:
            continue
        cs = {c.vector for c in circuits(A)}
        if len(grv) > 22:
            continue
        ugb, _, _, _ = universal_gb(A)
        ugb = set(ugb)
        assert cs <= ugb <= grv
        checked += 1
