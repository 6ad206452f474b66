"""Integer programming over fibers {x in N^n : Ax = b}.

Minimizing a linear cost over a fiber is normal-form reduction: compute
a Gröbner basis for the cost order and reduce any feasible point.  That
point comes from a search over the n - d columns outside one fixed
column basis of A, with the basis block solved exactly by integer
Cramer's rule, so no rational arithmetic is needed.  The module also
carries fiber enumeration, skeleton graphs, a literal test-set checker,
and the elimination-order pipeline that starts from the monomial t^b.
That pipeline has one t variable per kept row of A and checks its point
against A.original at the end; a full-rank A keeps every row, so there
it has a t variable per input row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .buchberger import GroebnerBasis, _groebner
from .errors import (
    Budget,
    DimensionMismatch,
    GuardViolated,
    NegativeEntries,
    NotPointed,
)
from .exactmath import cramer, dot
from .orders import term_order
from .toric import ConfigMatrix, _saturated_generators


@dataclass(frozen=True)
class IPInstance:
    """Minimize omega . x subject to Ax = b, x nonnegative integer."""

    A: ConfigMatrix
    omega: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(self.omega))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        if len(self.omega) != self.A.n:
            raise DimensionMismatch(
                f"cost of length {len(self.omega)}, expected {self.A.n}"
            )
        if len(self.b) != self.A.original.nrows:
            raise DimensionMismatch(
                f"right-hand side of length {len(self.b)}, "
                f"expected {self.A.original.nrows}"
            )


def _nonneg_guard(M):
    """Refuse a matrix with a negative entry or a zero column."""
    if any(x < 0 for row in M.entries for x in row):
        raise NegativeEntries("matrix has a negative entry")
    for i in range(M.ncols):
        if not any(M.col(i)):
            raise GuardViolated(f"column {i} is zero")


def fiber(A: ConfigMatrix, b, budget: Budget = Budget()):
    """The complete fiber {x >= 0 : Ax = b}, canonically sorted.

    An exhaustive search, for a nonnegative matrix with no zero column.
    It works on the original rows, so dependent constraints are
    honoured.  Upper bounds come from the residual right-hand side,
    which stays nonnegative along the search.  The budget caps the
    points found and the nodes visited.
    """
    M = A.original
    _nonneg_guard(M)
    d, n = M.nrows, M.ncols
    cols = [M.col(i) for i in range(n)]
    # rows that some later column can still touch; a positive residual
    # outside this set kills the branch
    support = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        mask = support[i + 1]
        for j in range(d):
            if cols[i][j] > 0:
                mask |= 1 << j
        support[i] = mask
    max_points, max_nodes = budget.points, budget.nodes
    out = []
    nodes = 0

    def search(i, residual, point):
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            budget.check("nodes", nodes)
        if any(residual[j] > 0 and not (support[i] >> j) & 1 for j in range(d)):
            return
        if i == n:
            if any(residual):
                return
            out.append(tuple(point))
            if max_points is not None and len(out) > max_points:
                budget.check("points", len(out))
            return
        cap = min(
            (residual[j] // cols[i][j] for j in range(d) if cols[i][j] > 0),
            default=0,
        )
        for v in range(cap + 1):
            point.append(v)
            search(i + 1, tuple(r - v * c for r, c in zip(residual, cols[i])), point)
            point.pop()

    b = tuple(int(x) for x in b)
    if all(x >= 0 for x in b):
        search(0, b, [])
    return sorted(out)


def _graded_feasible(A: ConfigMatrix, b, budget: Budget):
    """Feasible point for a pointed configuration, negative entries allowed.

    Let S be the columns that carry no leading entry of A.kernel_basis()
    and F the other n - d.
    The search enumerates x_F and solves A_S x_S = b - A_F x_F exactly:

    * S is a basis.  No nonzero kernel vector is supported on S, since
      a combination of the echelon-form kernel basis has its leading
      entry on F, so D = det A_S is not zero.  Cramer's rule gives
      D * x_S as the numerator vector N(b) - sum over F of x_j N(a_j),
      each N linear and integral; a leaf is a point when every
      numerator is >= 0 and divisible by |D|.
    * The grading bounds the search.  It lies in the row space, so
      every real solution has the degree of the one with x_F = 0,
      g0 = gamma_S . N(b) / D.  A negative or fractional g0 leaves the
      fiber empty; otherwise gamma_F . x_F <= g0 for every point.
    * One dependent-row check is enough.  The search uses the kept rows
      only, and a dependent row is a combination of them, so every
      solution of the kept rows gives it the same value: the point
      found satisfies A.original x = b, or no point does.

    budget.nodes caps the nodes of the search over x_F.
    """
    M = A.matrix
    pivots = A.pivot_columns()
    free = sorted(pivots)
    block = [j for j in range(M.ncols) if j not in pivots]
    # one elimination of [A_S | b, a_j for each free j]
    D, nums = cramer(M.submatrix(range(M.nrows), block),
                     [[b[i] for i in A.kept_rows]] + [M.col(j) for j in free])
    sign = 1 if D > 0 else -1
    D *= sign
    top, *steps = [tuple(sign * x for x in v) for v in nums]
    g0, frac = divmod(dot([A.grading[j] for j in block], top), D)
    if g0 < 0 or frac:
        return None
    degs = [A.grading[j] for j in free]
    values = [0] * len(free)
    max_nodes = budget.nodes
    nodes = 0

    def search(i, left, num):
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            budget.check("nodes", nodes)
        if i == len(free):
            return num if all(x >= 0 and x % D == 0 for x in num) else None
        step = steps[i]
        for v in range(left // degs[i] + 1):
            values[i] = v
            hit = search(i + 1, left - v * degs[i], num)
            if hit is not None:
                return hit
            num = tuple(x - s for x, s in zip(num, step))
        return None

    num = search(0, g0, top)
    if num is None:
        return None
    x = [0] * M.ncols
    for j, v in zip(free, values):
        x[j] = v
    for j, v in zip(block, num):
        x[j] = v // D
    x = tuple(x)
    return x if A.original.mulvec(x) == tuple(b) else None


def solve_ip(inst: IPInstance, budget: Budget = Budget()):
    """The omega-optimal fiber point, ties broken by the tie-break order.

    Finds one feasible point by _graded_feasible, then runs Buchberger
    for (omega, degrevlex) from the saturated generators of I_A and
    takes the point's normal form with the run's own reducer; the result
    is independent of the starting point.  I_A is prime, so the run
    skips the S-pairs whose terms share a variable, and the generators
    are homogeneous for A.grading, so it is truncated at the point's
    degree A.grading . start: no pair of higher degree is queued.  The
    buchberger module proves both exact; the truncated basis is never
    returned.  Returns None when the fiber is empty, without a
    Buchberger run.  budget.nodes caps the start-point search and the
    other fields the Buchberger runs.
    """
    A = inst.A
    if not A.pointed:
        raise NotPointed("integer program needs a positively graded matrix")
    start = _graded_feasible(A, inst.b, budget)
    if start is None:
        return None
    return _groebner(_saturated_generators(A, budget), term_order(A.n, weight=inst.omega),
                     budget, prime=True, monomial=(start, A.grading))


def solve_ip_elimination(inst: IPInstance, budget: Budget = Budget(),
                         max_pairs=None):
    """Optimize by reducing t^b against the graph ideal of x_i -> t^{a_i}.

    The generators (-a_i | e_i) present the toric ideal of [I | A]
    directly, so no saturation is needed; an elimination order with the
    t block first turns reduction of t^b into the integer program.
    There is one t variable per kept row of A, and b is read on those
    rows; on a full-rank A that is every row, in order.  On pure x
    monomials the order does not depend on the number of t variables,
    so the optimum is the one the original rows give.  The run reduces
    t^b with its own reducer.  The ideal is prime, since k[t, x] modulo
    it is k[t], so the run skips the S-pairs whose terms share a
    variable.  It is homogeneous when t has degree 1 and x_i the sum of
    its kept column, which is positive (a column zero on the kept rows
    is zero on every row), so the run is truncated at the degree sum b
    of t^b: no pair of higher degree is queued, and the pairs guard does
    not count one.  The buchberger module proves both exact.  Returns
    None when t variables survive in the normal form, or when the point
    misses A.original x = b: every solution of the kept rows gives a
    dependent row the same value, so then the fiber is empty.  The
    elimination basis can be far larger than the fiber warrants, so
    budget.pairs offers a deterministic bailout (LimitExceeded); the
    older max_pairs keyword, when given, overrides it.
    """
    budget = budget if max_pairs is None else replace(budget, pairs=max_pairs)
    A = inst.A
    M = A.original
    _nonneg_guard(M)
    if any(x < 0 for x in inst.b):
        return None  # a nonnegative matrix maps x >= 0 to b >= 0
    d, n = A.d, A.n
    gens = []
    for i in range(n):
        vec = tuple(-c for c in A.matrix.col(i))
        vec += tuple(1 if j == i else 0 for j in range(n))
        gens.append(vec)
    order = term_order(
        d + n, weight=(0,) * d + tuple(inst.omega), elimination_block=d
    )
    grading = (1,) * d + tuple(map(sum, zip(*A.matrix.entries)))
    nf = _groebner(gens, order, budget, prime=True,
                   monomial=(tuple(inst.b[i] for i in A.kept_rows) + (0,) * n, grading))
    if any(nf[:d]):
        return None
    x = nf[d:]
    return x if M.mulvec(x) == inst.b else None


@dataclass(frozen=True)
class SkeletonGraph:
    """Directed graph on a fiber; edges step down by oriented GB vectors."""

    vertices: tuple
    edges: tuple

    def is_connected(self) -> bool:
        """Connectivity of the underlying undirected graph."""
        if len(self.vertices) <= 1:
            return True
        adj = {v: [] for v in self.vertices}
        for v, u in self.edges:
            adj[v].append(u)
            adj[u].append(v)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)

    def is_acyclic(self) -> bool:
        out = {v: [] for v in self.vertices}
        for v, u in self.edges:
            out[v].append(u)
        state = dict.fromkeys(self.vertices, 0)  # 0 new, 1 open, 2 done

        def visit(v):
            state[v] = 1
            for u in out[v]:
                if state[u] == 1 or (state[u] == 0 and not visit(u)):
                    return False
            state[v] = 2
            return True

        return all(state[v] or visit(v) for v in self.vertices)

    def sinks(self):
        has_out = {v for v, _ in self.edges}
        return tuple(v for v in self.vertices if v not in has_out)


def skeleton_graph(inst: IPInstance, G: GroebnerBasis) -> SkeletonGraph:
    """The fiber graph whose edges subtract oriented basis vectors."""
    pts = fiber(inst.A, inst.b)
    vset = set(pts)
    edges = []
    for v in pts:
        for g in G.elements:
            u = tuple(x - y for x, y in zip(v, g.vector))
            if all(x >= 0 for x in u):
                if u not in vset:
                    raise GuardViolated("edge step left the fiber")
                edges.append((v, u))
    return SkeletonGraph(tuple(pts), tuple(sorted(edges)))


def is_test_set(T, A: ConfigMatrix, omega, fibers, budget: Budget = Budget()) -> bool:
    """Literal test-set check for the order (omega, degrevlex).

    (a) every non-optimal feasible point admits a vector of T stepping to
    a feasible, order-smaller point of the same fiber; (b) subtracting
    any vector of T from the optimum produces a negative entry.
    """
    order = term_order(A.n, weight=omega)
    vectors = [tuple(w) for w in T]
    M = A.matrix
    for b in fibers:
        pts = fiber(A, b, budget)
        if not pts:
            continue
        opt = min(pts, key=order.key)
        image_b = M.mulvec(pts[0])
        for v in pts:
            if v == opt:
                for w in vectors:
                    if all(x - y >= 0 for x, y in zip(v, w)):
                        return False
                continue
            improved = False
            for w in vectors:
                step = tuple(x - y for x, y in zip(v, w))
                if (all(x >= 0 for x in step)
                        and M.mulvec(step) == image_b
                        and order.key(step) < order.key(v)):
                    improved = True
                    break
            if not improved:
                return False
    return True
