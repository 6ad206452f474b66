"""Exact integer and rational linear algebra.

Everything in this module is pure Python over ``int`` and
``fractions.Fraction``; no floats anywhere.

Determinants come from cramer: one fraction-free elimination gives
det(M), and det(M) M^{-1} v for any columns v.

Yes/no polyhedral questions (is c in the cone of these vectors? is
this inequality redundant?) go to cone_support, the phase 1 of one
exact simplex method on a fraction-free integer tableau.  It answers
with a Farkas certificate when c is outside the cone, and otherwise
names the vectors of the combination that phase 1 found, so one
refutation serves every system that holds those vectors.  A question
whose answer is a point that gets printed or kept (a cell witness, a
grading) asks for a point of an open cone {y : v . y > 0} and goes to
feasible_witness, which fixes one coordinate at a time from its exact
bounds on the slice, and takes those bounds from a Fourier-Motzkin
chain first.  Its steps from the last coordinate up give the bounds
of the coordinates they reach as ratios of their rows, with no
program.  The first step is always taken: from m rows it makes at
most m^2/4, once, which is what bounding y_{n-2} on any slice takes.
Each later step is taken only while it makes at most m rows.  Each
coordinate above the chain takes two linear programs, each a phase 1
and a phase 2, or one on a homogeneous slice.  Its point is the one
Fourier-Motzkin elimination with back-substitution gives;
toricgb.oracle keeps that method as the reference.  The point is
carried as integers X over one positive denominator den, and each
bound as an integer ratio, so the only Fractions feasible_witness
builds are those of the point it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, inf, lcm
from operator import mul

from .errors import Budget, DimensionMismatch, RankDeficient, ZeroVector


def xgcd(a: int, b: int):
    """Extended gcd: (g, s, t) with g = s*a + t*b and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def dot(u, v) -> int:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def primitive(v):
    """v divided by the gcd of its entries, keeping orientation."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ZeroVector("primitive vector of the zero vector is undefined")
    return tuple(x // g for x in v)


def clear_to_ints(values):
    """The values times the least positive integer that makes them integral."""
    values = tuple(values)
    if {*map(type, values)} <= {int}:
        return values
    fracs = [Fraction(x) for x in values]
    scale = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (scale // f.denominator) for f in fracs)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple

    def __post_init__(self):
        rows = []
        for row in self.entries:
            cells = tuple(row)
            for x in cells:
                if not isinstance(x, int):
                    raise TypeError(f"integer entry expected, got {x!r}")
            rows.append(cells)
        rows = tuple(rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise DimensionMismatch("ragged rows")
            if w == 0:
                raise DimensionMismatch("rows must be nonempty")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def submatrix(self, rows, cols) -> "IntMatrix":
        return IntMatrix(tuple(tuple(self.entries[i][j] for j in cols) for i in rows))

    def mulvec(self, v):
        if self.entries and len(v) != self.ncols:
            raise DimensionMismatch(f"mulvec: {self.ncols} cols vs vector of {len(v)}")
        return tuple(dot(r, v) for r in self.entries)


def hnf(M: IntMatrix):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U*M = H.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), and zero rows sit
    at the bottom.  This fixes H uniquely; U is whatever the elimination
    produced.
    """
    nr, nc = M.nrows, M.ncols
    m = [list(r) for r in M.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    prow = 0
    for col in range(nc):
        if prow == nr:
            break
        pivot_at = next((i for i in range(prow, nr) if m[i][col] != 0), None)
        if pivot_at is None:
            continue
        if pivot_at != prow:
            m[prow], m[pivot_at] = m[pivot_at], m[prow]
            u[prow], u[pivot_at] = u[pivot_at], u[prow]
        for i in range(prow + 1, nr):
            if m[i][col] == 0:
                continue
            a, b = m[prow][col], m[i][col]
            g, s, t = xgcd(a, b)
            p, q = a // g, b // g
            # [[s, t], [-q, p]] has determinant (s*a + t*b)/g = 1
            m[prow], m[i] = (
                [s * x + t * y for x, y in zip(m[prow], m[i])],
                [-q * x + p * y for x, y in zip(m[prow], m[i])],
            )
            u[prow], u[i] = (
                [s * x + t * y for x, y in zip(u[prow], u[i])],
                [-q * x + p * y for x, y in zip(u[prow], u[i])],
            )
        if m[prow][col] < 0:
            m[prow] = [-x for x in m[prow]]
            u[prow] = [-x for x in u[prow]]
        piv = m[prow][col]
        for i in range(prow):
            f = m[i][col] // piv  # floor keeps the residue in [0, piv)
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[prow])]
                u[i] = [x - f * y for x, y in zip(u[i], u[prow])]
        prow += 1
    return IntMatrix(tuple(map(tuple, m))), IntMatrix(tuple(map(tuple, u)))


def rank(M: IntMatrix) -> int:
    H, _ = hnf(M)
    return sum(1 for r in H.entries if any(r))


def cramer(M: IntMatrix, columns):
    """(det(M), [det(M) * M^{-1} v for v in columns]) for a square M, or (0, None).

    Cramer's rule makes entry k of det(M) * M^{-1} v the determinant of
    M with column k replaced by v, so each result is integral and M y = v
    has the solution y = entry / det(M).  One fraction-free Gauss-Jordan
    elimination of [M | columns] gives the determinant and every entry at
    once: each step divides exactly by the previous pivot, and at the end
    every diagonal entry is det(PM), for the row permutation P of the
    pivot swaps, and each right-hand column is det(PM) * M^{-1} v.  A
    column with no pivot makes M singular, and the answer (0, None).
    With no columns this is the determinant alone, and only the rows
    below each pivot are eliminated (forward Bareiss): the last pivot is
    then det(PM).
    """
    n = M.nrows
    if n != M.ncols or any(len(v) != n for v in columns):
        raise DimensionMismatch("cramer needs a square matrix and vectors of its size")
    a = [list(r) + [v[i] for v in columns] for i, r in enumerate(M.entries)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0, None
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k]
        p = pivot[k]
        for i in range(k + 1 if not columns else 0, n):
            if i != k:
                row = a[i]
                f = row[k]
                a[i] = [(x * p - f * y) // prev for x, y in zip(row, pivot)]
        prev = p
    return sign * prev, [[sign * row[c] for row in a] for c in range(n, n + len(columns))]


def max_abs_minor(M: IntMatrix) -> int:
    """Largest absolute value of a maximal minor of M.

    M must have full row rank, so the result is positive.  Enumerates
    the column subsets of size M.nrows; the default Budget's subsets
    refuses inputs with more of them.
    """
    k = M.nrows
    if rank(M) < k:
        raise RankDeficient("maximal minors of a rank-deficient matrix are all 0")
    Budget().check("subsets", comb(M.ncols, k))
    return max(abs(cramer(M.submatrix(range(k), cols), ())[0])
               for cols in combinations(range(M.ncols), k))


def kernel_lattice_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel {u : A u = 0} as matrix rows.

    A must have full row rank (RankDeficient otherwise).  The returned
    basis is itself in Hermite normal form, so it is canonical for A.
    """
    H, U = hnf(A.transpose())
    r = sum(1 for row in H.entries if any(row))
    if r != A.nrows:
        raise RankDeficient(f"matrix has rank {r}, expected {A.nrows}")
    ker_rows = U.entries[r:]
    if not ker_rows:
        return IntMatrix(())
    HB, _ = hnf(IntMatrix(ker_rows))
    return HB


def solve_affine(rows, rhs, ncols=None):
    """Solve rows * y = rhs over the rationals.

    Returns (particular, nullspace_basis) with Fraction entries, free
    variables set to 0 in the particular solution, or None when the
    system is inconsistent.
    """
    if len(rows) != len(rhs):
        raise DimensionMismatch("one right-hand side per equation")
    if ncols is None:
        if not rows:
            raise DimensionMismatch("cannot infer width of an empty system")
        ncols = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    prow = 0
    for col in range(ncols):
        piv = next((i for i in range(prow, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[prow], aug[piv] = aug[piv], aug[prow]
        inv = 1 / aug[prow][col]
        aug[prow] = [x * inv for x in aug[prow]]
        for i in range(len(aug)):
            if i != prow and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[prow])]
        pivots.append(col)
        prow += 1
    for i in range(prow, len(aug)):
        if aug[i][ncols] != 0:
            return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][ncols]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][free]
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)


# ---------------------------------------------------------------------------
# Cones: membership by the simplex method, open-cone points by elimination.
# ---------------------------------------------------------------------------


def _simplex(rows, costs, basis, D, columns, stop_at_zero=False):
    """Minimize costs[0] in place; return D, or None when unbounded.

    The tableau is fraction-free (Edmonds): each entry of the rows (each
    ending in its right-hand side) and of every cost row is its rational
    value times the basis determinant D > 0.  Pivoting on p maps x to
    (x*p - f*y) // D, an exact division, after which D = p.  Bland's
    rule rules out cycling: the first of columns with a negative reduced
    cost enters, and ratio-test ties go to the lowest basic column.
    stop_at_zero ends a phase 1 as soon as the artificial sum is 0.
    """
    while not (stop_at_zero and costs[0][-1] == 0):
        cost = costs[0]
        enter = next((j for j in columns if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a <= 0:
                continue
            if leave is None:
                leave = i
                continue
            # row[-1] / a against best[-1] / best[enter], cleared of fractions
            best = rows[leave]
            lhs, rhs = row[-1] * best[enter], best[-1] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            return None
        prow = rows[leave]
        p = prow[enter]
        for i, row in enumerate(rows):
            if i != leave:
                f = row[enter]
                rows[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
        for i, cost in enumerate(costs):
            f = cost[enter]
            costs[i] = [(x * p - f * y) // D for x, y in zip(cost, prow)]
        basis[leave] = enter
        D = p
    return D


def cone_support(c, vectors):
    """(None, S) when c is a nonnegative combination of vectors[S], else (z, None).

    z is a primitive integer vector with v . z >= 0 for every v and
    c . z < 0, the certificate of Farkas' lemma that c lies outside the
    cone of the vectors.  S is a sorted tuple of at most len(c) indices,
    and c is a positive combination of vectors[S].

    Phase 1 of the simplex method on sum_j lam_j v_j = c, lam >= 0: rows
    with c_i < 0 are negated and one artificial variable per row starts
    in the basis.  When the artificial sum reaches 0 the basic solution
    solves the system, so S is the set of basic vector columns with a
    positive value.  At an optimum with artificial sum w > 0 the simplex
    multipliers y satisfy y . v' <= 0 for every sign-adjusted column v'
    and y . c' = w.  The reduced cost of artificial i is D*(1 - y_i), so
    undoing the row sign gives z_i = sign_i * (reduced cost - D), and the
    reduced costs of the vector columns are the products v . z.
    """
    c = tuple(c)
    n = len(c)
    vectors = [tuple(v) for v in vectors]
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch(f"cone_support: vectors of width other than {n}")
    m = len(vectors)
    sign = [-1 if x < 0 else 1 for x in c]
    rows = []
    for i, s in enumerate(sign):
        row = [s * v[i] for v in vectors] + [0] * n + [s * c[i]]
        row[m + i] = 1
        rows.append(row)
    # phase-1 reduced costs with the artificial basis priced out
    cost = [-sum(row[j] for row in rows) for j in range(m)] + [0] * n
    cost.append(-sum(row[-1] for row in rows))
    costs = [cost]
    basis = list(range(m, m + n))
    D = _simplex(rows, costs, basis, 1, range(m + n), True)
    cost = costs[0]
    if not cost[-1]:
        return None, tuple(sorted(j for j, row in zip(basis, rows) if j < m and row[-1]))
    z = [s * (cost[m + i] - D) for i, s in enumerate(sign)]
    return primitive(z), None


def _slice_bound(vectors, n, B, den, side):
    """min of side * y_0 subject to v_j . y >= B_j / den, times side.

    Solved as its dual, max B . lam / den subject to lam >= 0 and
    sum_j lam_j v_j = side * e_0 in Q^n.  The bound is an integer ratio
    (p, q) with q > 0, or None when the dual is infeasible or
    unbounded.  Phase 1 carries the phase-2 cost row along.  At its
    optimum every feasible lam is 0 where the reduced cost is positive,
    so phase 2 leaves those columns out and the artificials stay at 0.
    """
    m = len(vectors)
    rows = [[side * v[0] for v in vectors] + [1]]
    rows += [[v[i] for v in vectors] + [0] for i in range(1, n)]
    costs = [[-sum(column) for column in zip(*rows)]]
    if any(B):
        costs.append([-x for x in B] + [0])
    basis = list(range(m, m + len(rows)))  # artificial columns, not stored
    D = _simplex(rows, costs, basis, 1, range(m))
    if costs[0][-1]:
        return None
    if len(costs) == 1:
        return 0, 1
    allowed = [j for j in range(m) if not costs[0][j]]
    del costs[0]
    D = _simplex(rows, costs, basis, D, allowed)
    return None if D is None else (side * costs[0][-1], D * den)


def _choose(lo, up):
    # 0, lo + 1, up - 1 or the midpoint of integer ratios (p, q), q > 0,
    # as one reduced ratio
    if lo is None:
        if up is None:
            return 0, 1
        p, q = up[0] - up[1], up[1]
    elif up is None:
        p, q = lo[0] + lo[1], lo[1]
    else:
        p, q = lo[0] * up[1] + up[0] * lo[1], 2 * lo[1] * up[1]
    g = gcd(p, q)
    return p // g, q // g


def _ratio_bounds(rows, den):
    # (lo, up) of x on {x : a * x >= c / den for (a, c) in rows}; a = 0 bounds nothing.
    # Each side is kept as a ratio c / a with a > 0 and compared by
    # cross-multiplication; the winners come back as c / (a * den).
    lo = up = None
    for a, c in rows:
        if a > 0:
            if lo is None or c * lo[1] > lo[0] * a:
                lo = c, a
        elif a < 0:
            if up is None or c * up[1] > up[0] * a:  # -c / -a below up
                up = -c, -a
    return (None if lo is None else (lo[0], lo[1] * den),
            None if up is None else (up[0], up[1] * den))


def _eliminate_last(level, cap):
    """One Fourier-Motzkin step on rows c . x >= 0, or None past cap rows.

    Each row is (c_0, ..., c_k).  The step eliminates x_k: it keeps the
    rows that are 0 in x_k and adds each row positive in x_k combined
    with each negative one by positive multipliers, divided by the gcd
    of its entries.  None when that makes more than cap rows.
    """
    pos, neg, out = [], [], []
    for r in level:
        if r[-1] > 0:
            pos.append(r)
        elif r[-1] < 0:
            neg.append(r)
        else:
            out.append(r[:-1])
    if len(out) + len(pos) * len(neg) > cap:
        return None
    for p in pos:
        t = p[-1]
        for q in neg:
            s = -q[-1]
            r = [s * x + t * y for x, y in zip(p[:-1], q)]
            g = gcd(*r)
            out.append(tuple([x // g for x in r]) if g > 1 else tuple(r))
    return out


def feasible_witness(vectors, n):
    """A rational y with v . y > 0 for every v in Q^n, or None.

    With y_<k fixed, y_k is the midpoint of the least and greatest y_k
    on that slice of the open cone S = {y : v . y > 0} (lo + 1 or up - 1
    when one side is unbounded, 0 when both are): the point of
    Fourier-Motzkin elimination with back-substitution, as both depend
    on S alone.  If S is nonempty, so is each slice, and a segment from
    a point of it to a point of its closure stays in S short of its
    end, so lo and up are the optima on the closure.

    The point is carried in integers, y = X / den over one positive
    denominator den, and each vector as integers a_j, the input times
    the lcm of its denominators.  Each bound below is an integer ratio
    (p, q) with q > 0, and _choose makes y_k one reduced ratio p / q;
    den then moves to lcm(den, q) and X is scaled to match.  Fractions
    are built only of the returned point, so it is the point the same
    rules give over Fractions.  With y_<k fixed, row j reads
    a_j[k:] . y[k:] > B_j / den with B_j = -a_j[:k] . X.  A final
    B_j >= 0 means S is empty, so when S is empty the answer is None
    whatever y the bounds gave, and each rule below need only be exact
    when S is nonempty.

    - A chain of Fourier-Motzkin steps, made once before any coordinate
      is fixed.  Level n - 1 is the m input rows, each read as
      a_j . y >= 0; level k - 1 eliminates y_k from level k
      (_eliminate_last).  Each derived row is divided by the gcd of its
      entries, a positive factor, so coefficients do not double at
      every step.  Level k is the exact projection of the closed cone
      onto y_0..y_k.  Fixing y_<k commutes with eliminating the later
      coordinates, since a step reads only their coefficients, so
      level k with y_<k substituted is the projection of the closed
      slice, and its ratios are lo and up for y_k.  The first step is
      always taken, so level n - 2 always exists: from m rows it makes
      at most m^2/4, once, as many as the same step on any slice would
      make to bound y_{n-2}.  Each later step is taken only while its
      level has at most m rows, since each further step could square
      the count.
    - Each coordinate above the chain: two _slice_bound programs, except
      on a homogeneous slice (every B_j = 0).  Its closure is a closed
      cone, so lo and up are each 0 or unbounded.  Both 0 would put the
      cone in the hyperplane y_k = 0, but the open slice is nonempty
      when S is, and a nonempty open set lies in no hyperplane; so when
      lo = 0, up is unbounded, with no second program.
    """
    rows = []
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch(f"vector of width {len(v)}, expected {n}")
        rows.append(clear_to_ints(v))
    low = n - 1
    levels = [None] * low + [rows]
    cap = inf
    while low > 0 and (step := _eliminate_last(levels[low], cap)) is not None:
        low -= 1
        levels[low] = step
        cap = len(rows)
    X, den = [], 1
    for k in range(n):
        # a row r of a level or of the input reads r[:k] . X with X of length k
        if levels[k] is not None:
            lo, up = _ratio_bounds(
                [(r[k], -sum(map(mul, r, X))) for r in levels[k] if r[k]], den)
        else:
            B = [-sum(map(mul, r, X)) for r in rows]
            sliced = [r[k:] for r in rows]
            lo = _slice_bound(sliced, n - k, B, den, 1)
            if lo is not None and not any(B):
                up = None
            else:
                up = _slice_bound(sliced, n - k, B, den, -1)
        p, q = _choose(lo, up)
        scale = lcm(den, q) // den
        if scale > 1:
            X = [x * scale for x in X]
            den *= scale
        X.append(p * (den // q))
    if any(sum(map(mul, r, X)) <= 0 for r in rows):
        return None
    return tuple(Fraction(x, den) for x in X)


def strict_feasible(vectors):
    """feasible_witness of the vectors, at the width of the first.

    DimensionMismatch when no vector is given.
    """
    vectors = list(vectors)
    if not vectors:
        raise DimensionMismatch("no vectors given")
    return feasible_witness(vectors, len(vectors[0]))


def is_irredundant(ineqs, index: int) -> bool:
    """Whether inequality `index` is essential for the cone {w : g.w >= 0}.

    True iff some w has ineqs[index].w < 0 while g.w >= 0 for every other
    g.  By Farkas' lemma that holds exactly when ineqs[index] is not a
    nonnegative combination of the others, which cone_support decides.
    Callers should deduplicate the vectors first: a duplicate row masks
    its twin and both test as redundant.
    """
    vectors = list(ineqs)
    if not vectors:
        raise DimensionMismatch("no inequalities given")
    others = vectors[:index] + vectors[index + 1:]
    return cone_support(vectors[index], others)[0] is not None
