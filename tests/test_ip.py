"""Integer programming: fibers, normal-form optimization, test sets."""

import ast
import inspect
import random
import time

import pytest

from toricgb.buchberger import buchberger
from toricgb.cli import generate
from toricgb.errors import (
    Budget,
    DimensionMismatch,
    GuardViolated,
    LimitExceeded,
    NotPointed,
)
from toricgb.ip import (
    IPInstance,
    fiber,
    is_test_set,
    skeleton_graph,
    solve_ip,
    solve_ip_elimination,
)
from toricgb.orders import term_order
from toricgb.toric import ConfigMatrix, toric_generators

from test_toric import pair_digest

LINE = ConfigMatrix(((1, 1),))
TWISTED = ConfigMatrix(((1, 1, 1, 1), (0, 1, 2, 3)))
FROBENIUS = ConfigMatrix(((5, 7),))
# the 2x3 transport: row sums, then column sums; the last row depends
# on the others
SEGRE23 = ConfigMatrix(((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1), (1, 0, 0, 1, 0, 0),
                        (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)))


def brute_optimum(inst: IPInstance):
    pts = fiber(inst.A, inst.b)
    if not pts:
        return None
    order = term_order(inst.A.n, weight=inst.omega)
    return min(pts, key=order.key)


def test_instance_validates_lengths():
    with pytest.raises(DimensionMismatch):
        IPInstance(LINE, (1, 0, 0), (5,))
    with pytest.raises(DimensionMismatch):
        IPInstance(LINE, (1, 0), (5, 2))


def test_fiber_of_line_segment():
    pts = fiber(LINE, (5,))
    assert pts == [(i, 5 - i) for i in range(6)]
    assert fiber(LINE, (-1,)) == []


def test_fiber_rejects_bad_matrices():
    with pytest.raises(GuardViolated):
        fiber(ConfigMatrix(((1, -1),)), (0,))
    with pytest.raises(GuardViolated):
        fiber(ConfigMatrix(((1, 0), (0, 0))), (1, 0))


def test_fiber_point_limit():
    with pytest.raises(LimitExceeded):
        fiber(LINE, (100,), Budget(points=10))


def test_fiber_respects_dependent_rows():
    # duplicated constraint rows must still be honoured by the search
    A = ConfigMatrix(((1, 1), (2, 2)))
    assert fiber(A, (3, 6)) == [(i, 3 - i) for i in range(4)]
    assert fiber(A, (3, 5)) == []


def test_solve_picks_cheapest_column():
    inst = IPInstance(LINE, (1, 0), (5,))
    opt = solve_ip(inst)
    assert opt == (0, 5)
    assert sum(o * x for o, x in zip(inst.omega, opt)) == 0


def test_solve_negative_cost_maximizes():
    # minimizing -x1 pushes everything onto the first column
    assert solve_ip(IPInstance(LINE, (-1, 0), (5,))) == (5, 0)


def test_solve_infeasible_returns_none():
    inst = IPInstance(ConfigMatrix(((2, 4),)), (1, 1), (5,))
    assert solve_ip(inst) is None
    assert solve_ip_elimination(inst) is None
    assert solve_ip_elimination(IPInstance(LINE, (1, 1), (-2,))) is None


def test_elimination_skips_buchberger_for_negative_rhs(monkeypatch):
    # a nonnegative matrix has an empty fiber over any b with a negative
    # entry, so no basis is computed; a pair budget of 1 cannot trip
    import toricgb.ip as ip

    runs = []
    real = ip._groebner

    def counting(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ip, "_groebner", counting)
    inst = IPInstance(TWISTED, (1, 0, 0, 1), (3, -1))
    assert solve_ip_elimination(inst) is None
    assert solve_ip_elimination(inst, Budget(pairs=1)) is None
    assert runs == []


def test_solve_requires_pointed():
    A = ConfigMatrix(((1, -1),))
    with pytest.raises(NotPointed):
        solve_ip(IPInstance(A, (1, 1), (0,)))


def test_solve_node_budget():
    # 23 is the Frobenius number of 5 and 7: the fiber is empty, so the
    # start-point search cannot stop early
    with pytest.raises(LimitExceeded):
        solve_ip(IPInstance(FROBENIUS, (1, 0), (23,)), Budget(nodes=3))


def test_solve_node_count_on_a_transport():
    # the kernel basis of Segre 2x3 has its leading entries in columns 0
    # and 1, so the search runs over those two and finds the start point
    # (0, 2, 4, 4, 2, 0) in 5 nodes: the root, x_0 = 0, and x_1 = 0, 1, 2
    inst = IPInstance(SEGRE23, (3, -1, 2, 0, 5, -4), (6, 6, 4, 4, 4))
    assert solve_ip(inst, Budget(nodes=5)) == (2, 4, 0, 2, 0, 4)
    with pytest.raises(LimitExceeded) as exc:
        solve_ip(inst, Budget(nodes=4))
    assert (exc.value.guard, exc.value.limit, exc.value.reached) == ("nodes", 4, 5)


def test_solve_checks_dependent_rows():
    A = ConfigMatrix(((1, 1), (2, 2)))
    assert solve_ip(IPInstance(A, (1, 0), (3, 6))) == (0, 3)
    assert solve_ip(IPInstance(A, (1, 0), (3, 5))) is None
    with pytest.raises(DimensionMismatch):
        solve_ip(IPInstance(A, (1, 0), (3,)))


def test_start_point_makes_no_linear_solve_or_hnf_call(monkeypatch):
    # each name is patched in exactmath and wherever ip or toric binds it
    import toricgb.exactmath as exactmath
    import toricgb.ip as ip
    import toricgb.toric as toric

    calls = []

    def recording(real, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    B = ConfigMatrix(((1, 3, 4, 6, 0), (0, 0, 0, -5, 1)))
    for A in (SEGRE23, TWISTED, B):
        A.kernel_basis()
    for name in ("solve_affine", "hnf"):
        for module in (exactmath, ip, toric):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    recording(getattr(module, name), name))
    assert ip._graded_feasible(SEGRE23, (6, 6, 4, 4, 4), Budget()) is not None
    assert ip._graded_feasible(SEGRE23, (6, 6, 4, 4, 5), Budget()) is None
    assert ip._graded_feasible(TWISTED, (4, 5), Budget()) is not None
    assert ip._graded_feasible(B, (7, 0), Budget()) is not None
    assert calls == []
    imported = {
        node.module for node in ast.walk(ast.parse(inspect.getsource(ip)))
        if isinstance(node, ast.ImportFrom)
    }
    assert "fractions" not in imported
    assert not hasattr(ip, "Fraction")


def test_elimination_rejects_negative_matrix():
    from toricgb.errors import NegativeEntries

    A = ConfigMatrix(((1, 3, 4, 6, 0), (0, 0, 0, -5, 1)))
    with pytest.raises(NegativeEntries):
        solve_ip_elimination(IPInstance(A, (1, 1, 1, 1, 1), (7, 0)))


def test_solvers_agree_on_random_instances():
    rng = random.Random(53)
    checked = 0
    while checked < 40:
        d = rng.randint(1, 2)
        n = rng.randint(2, 4)
        rows = tuple(
            tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(d)
        )
        if not any(any(r) for r in rows):
            continue
        A = ConfigMatrix(rows)
        if not A.pointed or any(not any(A.original.col(i)) for i in range(n)):
            continue
        x = tuple(rng.randint(0, 3) for _ in range(n))
        b = A.original.mulvec(x)
        if len(fiber(A, b, Budget(points=5000))) == 0:
            continue
        omega = tuple(rng.randint(-3, 6) for _ in range(n))
        inst = IPInstance(A, omega, b)
        opt = solve_ip(inst)
        assert opt == brute_optimum(inst)
        assert opt == solve_ip_elimination(inst)
        checked += 1


def with_dependent_row(rng, rows, kind):
    """rows plus one row that depends on them: a sum of two rows, a
    multiple of one row, or the zero row."""
    if kind == "sum":
        i, j = rng.sample(range(len(rows)), 2)
        extra = tuple(x + y for x, y in zip(rows[i], rows[j]))
    elif kind == "multiple":
        k = rng.randint(2, 3)
        extra = tuple(k * x for x in rng.choice(rows))
    else:
        extra = (0,) * len(rows[0])
    return rows + (extra,)


def test_elimination_on_rank_deficient_configurations():
    # consistent right-hand sides give the optimum over the fiber of the
    # original rows; moving the entry of a dependent row empties the
    # fiber, and the pipeline must say so
    rng = random.Random(71)
    kinds = dict.fromkeys(("transport", "sum", "multiple", "zero"), 0)
    consistent = inconsistent = 0
    shapes = ((2, 2), (2, 3), (3, 2))
    for draw in range(100):
        if draw % 4 == 0:
            kind = "transport"
            A = ConfigMatrix(generate(kind, rng.choice(shapes)))
        else:
            kind = ("sum", "multiple", "zero")[draw % 4 - 1]
            d = rng.randint(2 if kind == "sum" else 1, 3)
            n = rng.randint(2, 4)
            rows = tuple(
                tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(d)
            )
            if any(not any(col) for col in zip(*rows)):
                continue
            A = ConfigMatrix(with_dependent_row(rng, rows, kind))
        assert A.d < A.original.nrows
        kinds[kind] += 1
        x = tuple(rng.randint(0, 3) for _ in range(A.n))
        b = A.original.mulvec(x)
        omega = tuple(rng.randint(-3, 6) for _ in range(A.n))
        inst = IPInstance(A, omega, b)
        assert solve_ip_elimination(inst) == brute_optimum(inst) is not None
        consistent += 1
        dep = next(i for i in range(len(b)) if i not in A.kept_rows)
        moved = list(b)
        moved[dep] += rng.choice((-1, 1)) if moved[dep] else 1
        inst = IPInstance(A, omega, moved)
        assert brute_optimum(inst) is None
        assert solve_ip_elimination(inst) is None
        inconsistent += 1
    assert min(kinds.values()) >= 15, kinds
    assert consistent >= 80 and inconsistent >= 80


def elimination_run(monkeypatch, inst):
    """The answer, the number of variables of the Buchberger run, and the
    count and order digest of the S-pairs it pops."""
    import toricgb.buchberger as engine
    import toricgb.ip as ip

    sizes, calls = [], []
    real_run, real_pair = ip._groebner, engine._s_pair

    def run(gens, order, *args, **kwargs):
        sizes.append(order.n)
        return real_run(gens, order, *args, **kwargs)

    def pair(*args):
        calls.append(args)
        return real_pair(*args)

    monkeypatch.setattr(ip, "_groebner", run)
    monkeypatch.setattr(engine, "_s_pair", pair)
    x = solve_ip_elimination(inst)
    monkeypatch.undo()
    return x, sizes, len(calls), pair_digest(calls)


def test_elimination_has_one_t_variable_per_kept_row(monkeypatch):
    # SEGRE23 keeps 4 of its 5 rows: 4 + 6 variables and 20 popped
    # pairs (34 when the prime criterion was tested as a pair was
    # popped, 38 before the run was truncated at the degree of t^b; one
    # t variable per input row popped 83)
    inst = IPInstance(SEGRE23, (3, 1, 2, 1, 5, 4), (6, 6, 4, 4, 4))
    x, sizes, pairs, _ = elimination_run(monkeypatch, inst)
    assert x == solve_ip(inst) == (0, 4, 2, 4, 0, 2)
    assert sizes == [SEGRE23.d + SEGRE23.n] == [10]
    assert pairs == 20
    # the same basis serves a right-hand side that misses the dependent row
    moved = IPInstance(SEGRE23, inst.omega, (6, 6, 4, 4, 5))
    assert elimination_run(monkeypatch, moved)[0] is None


def test_elimination_on_a_full_rank_matrix_is_unchanged(monkeypatch):
    # TWISTED keeps every row, so its run has one t variable per input
    # row; the pair count and the pop order pin that run (8 pairs when
    # the prime criterion was tested as a pair was popped, 10 before the
    # run was truncated at the degree 9 of t^b)
    inst = IPInstance(TWISTED, (2, 1, 1, 3), (4, 5))
    assert elimination_run(monkeypatch, inst) == (
        (0, 3, 1, 0), [6], 3,
        "2aa864a719ff408292fd96b0423c9cb06b525b8a79028267b736bdf59f99ac5e",
    )


def test_truncated_elimination_answers_where_the_full_run_blew_up():
    # the full elimination run popped more than 20,000 S-pairs here and
    # raised LimitExceeded after about 14 s.  Truncated at the degree
    # 9 + 19 + 11 of t^b (t of degree 1, x_i of its column sum), it pops
    # 238, and solve_ip's run, truncated at the grading degree of its
    # start point, agrees
    A = ConfigMatrix(((0, 2, 3, 1, 3), (3, 3, 1, 3, 3), (3, 1, 1, 0, 0)))
    inst = IPInstance(A, (4, -3, 2, -1, -3), (9, 19, 11))
    t0 = time.perf_counter()
    x = solve_ip_elimination(inst, Budget(pairs=1_000))
    assert time.perf_counter() - t0 < 1
    assert x == solve_ip(inst) == (3, 1, 1, 1, 1)


def test_skeleton_is_connected_acyclic_with_unique_sink():
    inst = IPInstance(TWISTED, (2, 1, 1, 3), (4, 5))
    G = buchberger(toric_generators(TWISTED), term_order(4, weight=inst.omega))
    sk = skeleton_graph(inst, G)
    assert len(sk.vertices) == len(fiber(TWISTED, inst.b))
    assert sk.is_connected()
    assert sk.is_acyclic()
    assert sk.sinks() == (solve_ip(inst),)
    vecs = {g.vector for g in G.elements}
    for v, u in sk.edges:
        assert tuple(x - y for x, y in zip(v, u)) in vecs


def test_gb_is_test_set_and_empty_set_is_not():
    omega = (2, 1, 1, 3)
    G = buchberger(toric_generators(TWISTED), term_order(4, weight=omega))
    fibers = [(3, 4), (4, 5), (2, 2)]
    assert is_test_set([g.vector for g in G.elements], TWISTED, omega, fibers)
    assert not is_test_set([], TWISTED, omega, fibers)


def test_wrong_order_gb_fails_as_test_set():
    # a basis for one cost need not improve points for an opposite cost
    omega = (2, 1, 1, 3)
    G = buchberger(toric_generators(TWISTED), term_order(4, weight=omega))
    flipped = tuple(-w for w in omega)
    assert not is_test_set(
        [g.vector for g in G.elements], TWISTED, flipped, [(4, 5)]
    )
