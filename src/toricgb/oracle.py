"""Brute-force reference implementations for the test suite.

Everything here trades speed for obviousness: kernel vectors come from
matching monomials with equal image fiber by fiber, Graver membership is
checked against the definition, initial ideals come from grid sweeps of
weight vectors or from a Buchberger run in every Graver cell, whose
cells come from a Gordan test on every sign prefix, a cell's basis
pattern comes from sorting and minimising the oriented Graver leads,
monomial ideals are decomposed by recursive splitting, Buchberger
itself has a version with no pair criterion but the coprime-lead skip,
whose monomial arithmetic is its own and works on exponent tuples, the
toric ideal has a version that saturates every variable, the
regular triangulation has a version that tests every column subset
for a face and then checks every ridge, the Stanley-Reisner ideal has
a version that scans for minimal non-faces, the integer program's start
point has a version that walks the whole grading simplex, Cramer's
rule has a version with one determinant per column, and the
witness of a system of inequalities has a version by Fourier-Motzkin
elimination.  A finished basis is checked by reducing every S-pair.
The main algorithm modules never call into this one.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

from .buchberger import (
    Binomial,
    GroebnerBasis,
    _groebner,
    _Packing,
    _Reducer,
    _s_pair,
    _widening,
    buchberger,
    s_binomial,
)
from .errors import DimensionMismatch, GuardViolated, LimitExceeded, NonGenericOmega, ZeroVector
from .exactmath import (
    IntMatrix,
    cone_certificate,
    det_bareiss,
    dot,
    rank,
    solve_affine,
)
from .fan import SimplicialComplex
from .orders import TermOrder, term_order, weighted_revlex
from .toric import (
    ConfigMatrix,
    MonomialIdeal,
    _canonical_order,
    degree_bound,
    graver,
    normalize_sign,
    toric_generators,
)


def _monomials_by_image(A: ConfigMatrix, degbound: int, max_monomials: int):
    """Group all monomials of grading degree <= degbound by their A-image."""
    gamma = A.grading
    M = A.matrix
    n = A.n
    cols = [M.col(i) for i in range(n)]
    groups = {}
    count = 0

    def walk(i, budget, image, point):
        nonlocal count
        if i == n:
            count += 1
            if count > max_monomials:
                raise LimitExceeded("monomials", max_monomials, count)
            groups.setdefault(image, []).append(tuple(point))
            return
        for v in range(budget // gamma[i] + 1):
            point.append(v)
            walk(
                i + 1,
                budget - v * gamma[i],
                tuple(p + v * c for p, c in zip(image, cols[i])),
                point,
            )
            point.pop()

    walk(0, int(degbound), (0,) * M.nrows, [])
    return groups


def kernel_vectors_up_to(A: ConfigMatrix, degbound: int,
                         max_monomials: int = 2_000_000):
    """All nonzero kernel vectors whose positive part has degree <= degbound.

    One representative per +- pair.  Two monomials share an A-image
    exactly when their difference is a kernel vector, and both sides of
    any such difference have equal grading degree, so each fiber lies
    entirely inside the degree cut: the enumeration is exhaustive.
    """
    found = set()
    for fiber in _monomials_by_image(A, degbound, max_monomials).values():
        for u, v in itertools.combinations(fiber, 2):
            found.add(normalize_sign(tuple(x - y for x, y in zip(u, v))))
    return sorted(found)


def _conformal(u, v) -> bool:
    # u sits in the same closed orthant as v and under it componentwise
    return all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(u, v))


def graver_bruteforce(A: ConfigMatrix, degbound: int,
                      max_monomials: int = 2_000_000):
    """Kernel vectors within the bound with no conformal decomposition.

    v survives unless some other kernel vector u (either sign) satisfies
    u below v in v's orthant; then v = u + (v - u) splits.  Equals the
    Graver basis whenever degbound reaches the true maximum degree.
    """
    kernel = kernel_vectors_up_to(A, degbound, max_monomials)
    signed = [k for v in kernel for k in (v, tuple(-x for x in v))]
    out = []
    for v in kernel:
        proper = (
            u for u in signed
            if u != v and _conformal(u, v)
        )
        if not any(proper):
            out.append(v)
    return sorted(out)


def single_step_normal_form(u, G):
    """Normal form by repeated single subtraction of a basis vector.

    Scans the basis in order, subtracts the first element whose leading
    exponent divides the current monomial, and starts over; no step-count
    shortcuts.  Agrees with the k-step reducer on reduced bases.
    """
    cur = tuple(u)
    changed = True
    while changed:
        changed = False
        for g in G.elements:
            if all(l <= c for l, c in zip(g.lead, cur)):
                cur = tuple(c - x for c, x in zip(cur, g.vector))
                changed = True
                break
    return cur


def _divides(a, u) -> bool:
    return all(x <= y for x, y in zip(a, u))


def _max_steps(u, lead, vec) -> int:
    # largest k with u - j*vec divisible by lead for j < k and u - k*vec >= 0
    k = None
    for i, w in enumerate(vec):
        if w > 0:
            cap = min(u[i] // w, (u[i] - lead[i]) // w + 1)
            if k is None or cap < k:
                k = cap
    if k is None:
        raise GuardViolated("binomial with nonpositive vector; configuration not pointed")
    return k


def multi_step_normal_form(u, G):
    """Normal form by the multi-step rule, on exponent tuples.

    The first element whose lead divides the current monomial is applied
    as many times as the chain stays divisible and nonnegative, the step
    count read entry by entry.  The engine follows the same rule on
    packed monomials, so the two agree step for step.
    """
    cur = tuple(u)
    while True:
        g = next((g for g in G if _divides(g.lead, cur)), None)
        if g is None:
            return cur
        vec = g.vector
        k = _max_steps(cur, g.lead, vec)
        cur = tuple(x - k * w for x, w in zip(cur, vec))


def _interreduce(elements):
    """Minimalize and tail-reduce a basis that is already a GB."""
    # divisors come before multiples when sorted by total degree
    by_size = sorted(elements, key=lambda b: (sum(b.lead), b.lead, b.trail))
    minimal = []
    for b in by_size:
        if not any(_divides(m.lead, b.lead) for m in minimal):
            minimal.append(b)
    return [Binomial(b.lead, multi_step_normal_form(b.trail, minimal)) for b in minimal]


def _canonical(elements, ord):
    return tuple(sorted(set(elements), key=lambda b: (ord.key(b.lead), b.lead, b.trail)))


def _minimal_vectors(items):
    uniq = sorted(set(tuple(g) for g in items))
    return [
        g for g in uniq
        if not any(h != g and all(x <= y for x, y in zip(h, g)) for h in uniq)
    ]


def weight_grid_initial_ideals(A: ConfigMatrix, grid_radius: int,
                               degbound=None, max_monomials: int = 500_000):
    """Distinct initial ideals met by integer weights in a box.

    For each omega in [-r, r]^n the initial ideal of the order (omega,
    degrevlex) is read off standard monomials: within each fiber the
    order-minimal monomial is standard and the rest generate.  The
    result is a lower bound for the full fan: thin cones can slip
    between grid points.  degbound defaults to the proven reduced-basis
    degree bound and caps the monomial enumeration.
    """
    if degbound is None:
        degbound = degree_bound(A)
    groups = [
        g for g in _monomials_by_image(A, degbound, max_monomials).values()
        if len(g) > 1
    ]
    n = A.n
    ideals = set()
    for omega in itertools.product(range(-grid_radius, grid_radius + 1), repeat=n):
        key = term_order(n, weight=omega).key
        nonstandard = []
        for fiber in groups:
            best = min(fiber, key=key)
            nonstandard.extend(u for u in fiber if u != best)
        ideals.add(MonomialIdeal(_minimal_vectors(nonstandard), n))
    return sorted(ideals, key=lambda I: I.gens)


def irreducible_decomposition(I: MonomialIdeal):
    """Irredundant decomposition into irreducible monomial ideals.

    Splits any generator with two support variables: I + <x_i^{g_i}> and
    I + <g without x_i> intersect back to I.  Leaves are generated by
    pure powers.  Guarded brute force for small ideals only.
    """
    if I.n > 4:
        raise LimitExceeded("variables", 4, I.n)
    if any(e > 8 for g in I.gens for e in g):
        raise LimitExceeded("exponent", 8, max(e for g in I.gens for e in g))
    components = []
    stack = [I.gens]

    def first_mixed(gens):
        for g in gens:
            if sum(1 for e in g if e) > 1:
                return g
        return None

    while stack:
        gens = stack.pop()
        g = first_mixed(gens)
        if g is None:
            components.append(MonomialIdeal(gens, I.n))
            continue
        i = next(j for j, e in enumerate(g) if e)
        pure = tuple(e if j == i else 0 for j, e in enumerate(g))
        rest = tuple(0 if j == i else e for j, e in enumerate(g))
        stack.append(MonomialIdeal(tuple(gens) + (pure,), I.n).gens)
        stack.append(MonomialIdeal(tuple(gens) + (rest,), I.n).gens)
    uniq = sorted(set(components), key=lambda c: c.gens)
    # drop any component containing another one; irreducible components
    # make pairwise containment checks sufficient
    keep = []
    for a in uniq:
        if not any(b is not a and _contains_ideal(a, b) for b in uniq):
            keep.append(a)
    return keep


def _contains_ideal(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Whether ideal a contains ideal b (every generator of b is in a)."""
    return all(a.contains(g) for g in b.gens)


# -- Fourier-Motzkin elimination --------------------------------------------
#
# A constraint is a triple (coeffs, rhs, strict), as in exactmath.


def _normalize_constraint(con, n):
    a, b, strict = con
    if len(a) != n:
        raise DimensionMismatch(f"constraint of width {len(a)}, expected {n}")
    if type(b) is int and all(type(x) is int for x in a):
        # the common case: nothing to clear, so skip Fraction entirely
        ints = [*a, b]
    else:
        fracs = [Fraction(x) for x in a] + [Fraction(b)]
        scale = lcm(*(f.denominator for f in fracs))
        ints = [int(f * scale) for f in fracs]
    if not any(ints[:-1]):
        # constant constraint; only the sign of the rhs matters
        c = ints[-1]
        return ((0,) * n, 0 if c == 0 else (1 if c > 0 else -1), bool(strict))
    g = gcd(*ints)
    ints = [x // g for x in ints]
    return (tuple(ints[:-1]), ints[-1], bool(strict))


def _dedupe(cons):
    # same normal: keep the strongest bound (larger rhs; strict beats weak)
    best = {}
    for a, b, strict in cons:
        cur = best.get(a)
        if cur is None or (b, strict) > cur:
            best[a] = (b, strict)
    return [(a, b, s) for a, (b, s) in best.items()]


def _eliminate(cons, k):
    pos, neg, rest = [], [], []
    for c in cons:
        ck = c[0][k]
        (pos if ck > 0 else neg if ck < 0 else rest).append(c)
    out = list(rest)
    n = len(cons[0][0]) if cons else 0
    for ap, bp, sp in pos:
        for aq, bq, sq in neg:
            mp, mq = -aq[k], ap[k]  # both positive, so the sense is preserved
            a = tuple(mp * x + mq * y for x, y in zip(ap, aq))
            out.append(_normalize_constraint((a, mp * bp + mq * bq, sp or sq), n))
    return _dedupe(out)


def feasible_witness_by_elimination(constraints, n):
    """feasible_witness by Fourier-Motzkin elimination.

    Constraints are normalized to primitive integer rows and eliminated
    from the highest variable down; each level is the exact projection
    of the solution set.  Back-substitution then picks midpoints of the
    exact intervals (or an endpoint shifted by 1 when only one side is
    bounded), the rule feasible_witness applies to its linear-programming
    bounds.  Exponential in the worst case.
    """
    levels = [None] * (n + 1)
    levels[n] = _dedupe([_normalize_constraint(c, n) for c in constraints])
    for k in range(n - 1, -1, -1):
        levels[k] = _eliminate(levels[k + 1], k)
    for _, b, strict in levels[0]:
        # constant constraints read 0 > b or 0 >= b
        if b >= 0 if strict else b > 0:
            return None
    x = [Fraction(0)] * n
    for k in range(n):
        lo = up = None
        lo_strict = up_strict = False
        for a, b, strict in levels[k + 1]:
            if a[k] == 0:
                continue
            bound = Fraction(b - sum(a[i] * x[i] for i in range(k)), a[k])
            if a[k] > 0:
                if lo is None or bound > lo or (bound == lo and strict):
                    lo, lo_strict = bound, strict
            else:
                if up is None or bound < up or (bound == up and strict):
                    up, up_strict = bound, strict
        if lo is None and up is None:
            x[k] = Fraction(0)
        elif lo is None:
            x[k] = up - 1
        elif up is None:
            x[k] = lo + 1
        elif lo == up:
            x[k] = lo  # projection feasibility rules out a strict tie
        else:
            x[k] = (lo + up) / 2
    return tuple(x)


def strict_feasible_by_elimination(vectors):
    """strict_feasible by Fourier-Motzkin elimination."""
    vectors = list(vectors)
    if not vectors:
        raise DimensionMismatch("no vectors given")
    n = len(vectors[0])
    return feasible_witness_by_elimination([(v, 0, True) for v in vectors], n)


def _open_cone_nonempty(vectors):
    """Whether some y has v . y > 0 for every v (Gordan's test).

    Such a y exists exactly when some (y, t) has v . y - t >= 0 for every
    v and t > 0 (scale y), and by Farkas' lemma that is when -e_t lies
    outside the cone of the rows (v, -1), which cone_certificate decides.
    """
    rows = [(*v, -1) for v in vectors]
    return cone_certificate((0,) * len(vectors[0]) + (-1,), rows) is not None


def _cells_every_prefix(coords):
    """The sign lists of the open cells of the hyperplane arrangement of coords.

    The cells come in the sign tree's order, +1 before -1 at each depth,
    and every sign prefix is tested on its full pattern with its own
    Gordan test.
    """
    cells = []

    def descend(signs, signed):
        if len(signs) == len(coords):
            cells.append(signs)
            return
        for s in (1, -1):
            nxt = signed + [tuple(s * x for x in coords[len(signs)])]
            if _open_cone_nonempty(nxt):
                descend(signs + [s], nxt)

    descend([], [])
    return cells


def sign_tree_leaves_every_prefix(A: ConfigMatrix):
    """The leaves of universal_gb's sign tree, as bitsets, in its order.

    Bit k of a leaf is set when Graver vector k is positive on the cell.
    No point, certificate or refutation is shared between prefixes.
    """
    K = A.kernel_basis().entries
    coords = [tuple(dot(row, g) for row in K) for g in graver(A)]
    return [sum(1 << k for k, s in enumerate(signs) if s > 0)
            for signs in _cells_every_prefix(coords)]


def basis_pattern_by_minimal_generators(grv, pos):
    """The basis pattern (mask, bits) of universal_gb's read-off at sign bits pos.

    Graver vector k (of grv, in the walk's order) is oriented positive
    part leading when bit k of pos is set, else negative part leading.
    The minimal generators of the ideal of the leads are the leads, in
    sorted order, that no generator kept before them divides (a proper
    divisor sorts first).  Element k is in mask when its lead is one of
    them and none of them divides its trail.  Exponent tuples are
    compared entry by entry, with no packing and no table.
    """
    sides = []
    for k, g in enumerate(grv):
        plus, minus = tuple(max(x, 0) for x in g), tuple(max(-x, 0) for x in g)
        sides.append((plus, minus) if pos >> k & 1 else (minus, plus))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    gens = []
    for lead in sorted({lead for lead, _ in sides}):
        if not any(divides(m, lead) for m in gens):
            gens.append(lead)
    mask = sum(1 << k for k, (lead, trail) in enumerate(sides)
               if lead in gens and not any(divides(m, trail) for m in gens))
    return mask, pos & mask


def cone_facets_by_leaf_scan(mask, bits, leaves):
    """The facets of a Groebner cone, as a bitset, by scanning every leaf.

    (mask, bits) is the cone's sign pattern: the Graver indices of its
    reduced basis, and those of them that are positive.  Index k is a
    facet exactly when some leaf agrees with the pattern on every other
    index and differs on k, that is when the bits where the leaf and the
    pattern differ on mask are that one bit (the argument is in
    universal_gb's docstring).  Every leaf is tested against every cone,
    with no leaf's home read.
    """
    facets = 0
    for leaf in leaves:
        d = (leaf ^ bits) & mask
        if not d & (d - 1):
            facets |= d
    return facets


def universal_gb_every_cell(A: ConfigMatrix):
    """(ugb, initial_ideals, witnesses) with no work shared between cells.

    Walks the sign patterns of the Graver hyperplane arrangement as
    universal_gb does, in the same order, but tests every sign prefix
    on its full pattern with its own Gordan test, takes each cell's
    witness from a Fourier-Motzkin strict_feasible call on its full
    pattern, and runs Buchberger in every cell.  The first cell to reach
    an initial ideal supplies its witness.
    """
    grv = graver(A)
    base = toric_generators(A)
    n = A.n
    if not grv:
        return [], [MonomialIdeal((), n)], [(0,) * n]
    K = A.kernel_basis().entries
    coords = [tuple(dot(row, g) for row in K) for g in grv]
    ugb = set()
    initial = {}

    for signs in _cells_every_prefix(coords):
        signed = [c if s > 0 else tuple(-x for x in c) for c, s in zip(coords, signs)]
        beta = strict_feasible_by_elimination(signed)
        w = [sum(Fraction(b) * row[j] for b, row in zip(beta, K)) for j in range(n)]
        scale = lcm(*(f.denominator for f in w))
        omega = tuple(int(f * scale) for f in w)
        gb = buchberger(base, term_order(n, weight=omega, tiebreak="degrevlex"))
        ugb.update(normalize_sign(v) for v in gb.vectors)
        initial.setdefault(tuple(sorted(b.lead for b in gb.elements)), omega)
    ideals = sorted(initial)
    return (
        sorted(ugb),
        [MonomialIdeal(gens, n) for gens in ideals],
        [initial[gens] for gens in ideals],
    )


def cramer_by_determinants(M: IntMatrix, v):
    """det(M) * M^{-1} v by Cramer's rule: entry k is the determinant of
    M with column k replaced by v."""
    return [
        det_bareiss(IntMatrix(tuple(r[:k] + (x,) + r[k + 1:]
                                    for r, x in zip(M.entries, v))))
        for k in range(M.ncols)
    ]


def orient(v, ord: TermOrder):
    """Split a nonzero lattice vector into an oriented binomial.

    The positive part of the returned vector is the leading exponent
    under ord; the vector is negated first when needed.
    """
    if not any(v):
        raise ZeroVector("cannot orient the zero vector")
    plus = tuple(x if x > 0 else 0 for x in v)
    minus = tuple(-x if x < 0 else 0 for x in v)
    if ord.key(plus) > ord.key(minus):
        return Binomial(plus, minus)
    return Binomial(minus, plus)


def buchberger_every_pair(gens, ord):
    """Reduced Groebner basis with no pair criterion but the coprime-lead skip.

    Every pair of elements whose leads share a variable is queued and
    reduced, smallest lcm first, and every reduction step recomputes the
    order keys of both sides.  The reduced basis is unique, so this
    returns the same GroebnerBasis as buchberger.
    """
    key = ord.key
    elements = []
    queue = []  # (key of the lcm, tick, i, j)
    tick = itertools.count()

    def reduce(lead, trail):
        while True:
            if key(lead) < key(trail):
                lead, trail = trail, lead
            g = next((g for g in elements if _divides(g.lead, lead)), None)
            if g is None:
                return Binomial(lead, trail)
            k = _max_steps(lead, g.lead, g.vector)
            lead = tuple(x - k * w for x, w in zip(lead, g.vector))
            if lead == trail:
                return None

    def add(b):
        for i, f in enumerate(elements):
            if any(x and y for x, y in zip(f.lead, b.lead)):
                L = tuple(max(x, y) for x, y in zip(f.lead, b.lead))
                heapq.heappush(queue, (key(L), next(tick), i, len(elements)))
        elements.append(b)

    seeds = []
    for g in gens:
        if isinstance(g, Binomial) or any(g):
            b = g if isinstance(g, Binomial) else orient(g, ord)
            if b not in seeds:
                seeds.append(b)
    for b in seeds:
        r = reduce(b.lead, b.trail)
        if r is not None:
            add(r)
    while queue:
        _, _, i, j = heapq.heappop(queue)
        s = s_binomial(elements[i], elements[j], ord)
        if s is not None:
            r = reduce(s.lead, s.trail)
            if r is not None:
                add(r)
    return GroebnerBasis(ord, _canonical(_interreduce(elements), ord))


def passes_buchberger_criterion(G: GroebnerBasis) -> bool:
    """Every S-pair of G reduces to zero (post-check for tests)."""
    def run(width):
        pk = _Packing(G.order.n, width, G.order)
        red = _Reducer(pk)
        for b in G.elements:
            lead, trail = pk.pack(b.lead), pk.pack(b.trail)
            red.append(lead, trail, pk.key(lead) - pk.key(trail))
        for j, b in enumerate(red.leads):
            for i, a in enumerate(red.leads[:j]):
                L = pk.lcm(a, b)
                p, q = _s_pair(L, red.vecs[i], red.vecs[j], pk.guard)
                if p == q:
                    continue
                kL = pk.key(L)
                if red.top_reduce(p, q, kL - red.kvecs[i], kL - red.kvecs[j]) is not None:
                    return False
        return True

    return _widening(run)


def toric_generators_every_variable(A: ConfigMatrix):
    """toric_generators with one saturation per variable, in index order.

    Saturating the kernel lattice ideal by every variable gives the
    toric ideal by definition, with no appeal to the shape of the
    kernel basis; the run under the canonical order then returns its
    reduced basis, which is unique, so this agrees with toric_generators.
    """
    K = A.kernel_basis()
    if K.nrows == 0:
        return []
    gens = [tuple(r) for r in K.entries]
    for i in range(A.n):
        gens = _groebner(gens, weighted_revlex(A.grading, cheapest=i)).vectors()
    return [b.vector for b in buchberger(gens, _canonical_order(A)).elements]


def graded_feasible_every_point(A: ConfigMatrix, b, max_nodes=None):
    """A fiber point of a pointed configuration, or None, by walking the
    grading simplex.

    Each dependent row of b is checked against its rational expression
    in the kept rows.  Every solution then has grading degree w . b,
    where the rational w expresses the grading in terms of the kept
    rows, and the search runs over the finite simplex {x >= 0 :
    grading . x <= that degree}, one coordinate at a time, until the
    kept rows map x to b.
    """
    if len(b) != A.original.nrows:
        raise DimensionMismatch(
            f"right-hand side of length {len(b)}, expected {A.original.nrows}"
        )
    M = A.matrix
    bk = tuple(b[i] for i in A.kept_rows)
    for i in range(A.original.nrows):
        if i not in A.kept_rows:
            y, _ = solve_affine(M.transpose().entries, A.original.row(i), ncols=A.d)
            if sum(Fraction(yi) * bi for yi, bi in zip(y, bk)) != b[i]:
                return None
    gamma = A.grading
    w, _ = solve_affine([M.col(i) for i in range(M.ncols)], gamma, ncols=M.nrows)
    g0 = sum(Fraction(wi) * bi for wi, bi in zip(w, bk))
    if g0 < 0 or g0.denominator != 1:
        return None
    g0 = int(g0)
    n = M.ncols
    cols = [M.col(i) for i in range(n)]
    nodes = 0

    def search(i, left, image, point):
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise LimitExceeded("nodes", max_nodes, nodes)
        if i == n:
            if left == 0 and image == bk:
                return tuple(point)
            return None
        for v in range(left // gamma[i] + 1):
            point.append(v)
            nxt = tuple(p + v * c for p, c in zip(image, cols[i]))
            hit = search(i + 1, left - v * gamma[i], nxt, point)
            point.pop()
            if hit is not None:
                return hit
        return None

    return search(0, g0, (0,) * M.nrows, [])


def _is_subdivision_face(cols, w, sigma):
    """Whether some y has a_i . y = w_i on sigma and a_j . y < w_j off it.

    w is integral.  Such a y exists exactly when some (y, s, t) has
    w_i s - a_i . y = 0 on sigma, w_j s - a_j . y + t >= 0 off it,
    s + t >= 0 and t < 0 (take s = 1, or y / s), and by Farkas' lemma
    that is when the unit vector of t lies outside the cone of those
    rows, which cone_certificate decides.
    """
    zero = (0,) * (len(cols[0]) + 1)
    vectors = [zero[1:] + (1, 1)]
    for j, (a, wj) in enumerate(zip(cols, w)):
        row = (*(-x for x in a), wj)
        if j in sigma:
            vectors += [row + (0,), tuple(-x for x in row) + (0,)]
        else:
            vectors.append(row + (1,))
    return cone_certificate(zero + (1,), vectors) is not None


def _cone_member(cols, facet, j) -> bool:
    """Whether column j lies in the nonnegative span of the facet columns."""
    d = len(cols[0])
    rows = [[cols[i][r] for i in facet] for r in range(d)]
    sol = solve_affine(rows, cols[j], ncols=len(facet))
    if sol is None:
        return False
    coeffs, _ = sol
    return all(c >= 0 for c in coeffs)


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def _spans_boundary(cols, ridge) -> bool:
    """Whether every column lies on one side of the hyperplane of the ridge."""
    d = len(cols[0])
    # normal . x = det(ridge columns, x), by cofactor expansion
    normal = tuple(
        det_bareiss(IntMatrix(tuple(cols[i] for i in ridge) + (unit,)))
        for unit in identity_matrix(d).entries
    )
    sides = {dot(normal, c) > 0 for c in cols if dot(normal, c)}
    return len(sides) < 2


def regular_triangulation_every_subset(A: ConfigMatrix, omega,
                                       max_subsets: int = 2_000_000):
    """regular_triangulation by a face test for every column subset.

    A subset sigma is a face exactly when some y satisfies a_i . y =
    omega_i on sigma and a_j . y < omega_j everywhere else.  Facets of a
    generic lift all have size d; a maximal face of smaller size, or a
    column left uncovered, certifies that the lifted subdivision is not
    simplicial.  Neither test sees a cell that is not a simplex when
    each of its own facets is shared with a simplex, so every ridge of a
    facet must also lie in a second facet or span a boundary hyperplane
    of cone(A), with every column on one side of its cofactor normal.
    """
    d, n = A.d, A.n
    if len(omega) != n:
        raise DimensionMismatch(f"weight of length {len(omega)}, expected {n}")
    scale = lcm(*(Fraction(x).denominator for x in omega))
    w = [int(Fraction(x) * scale) for x in omega]  # scaling keeps the faces
    count = sum(comb(n, k) for k in range(d + 1))
    if count > max_subsets:
        raise LimitExceeded("subsets", max_subsets, count)
    cols = [A.matrix.col(j) for j in range(n)]
    faces = []
    for k in range(d + 1):
        for sigma in itertools.combinations(range(n), k):
            if k and rank(IntMatrix(tuple(cols[i] for i in sigma))) < k:
                continue
            if _is_subdivision_face(cols, w, sigma):
                faces.append(sigma)
    sets = [set(f) for f in faces]
    facets = [f for f, fs in zip(faces, sets) if not any(fs < gs for gs in sets)]
    if any(len(f) != d for f in facets):
        raise NonGenericOmega(
            "weight is not generic: the induced subdivision has a cell "
            "that is not a simplex"
        )
    for j in range(n):
        if not any(_cone_member(cols, f, j) for f in facets):
            raise NonGenericOmega(
                f"weight is not generic: column {j} is not covered by any "
                "facet cone"
            )
    ridges = Counter(f[:i] + f[i + 1:] for f in facets for i in range(d))
    for ridge, count in ridges.items():
        if count == 2 or count == 1 and _spans_boundary(cols, ridge):
            continue
        raise NonGenericOmega(
            f"weight is not generic: ridge {ridge} lies in {count} facets"
        )
    return SimplicialComplex(n, tuple(facets))


def is_face(delta: SimplicialComplex, tau) -> bool:
    """Whether tau lies in some facet of delta."""
    t = set(tau)
    return any(t <= set(f) for f in delta.facets)


def radical_monomial(I: MonomialIdeal) -> MonomialIdeal:
    """Radical: squarefree-ize every generator, then re-minimalize."""
    return MonomialIdeal(
        [tuple(1 if e else 0 for e in g) for g in I.gens], I.n
    )


def stanley_reisner_by_nonfaces(delta: SimplicialComplex) -> MonomialIdeal:
    """fan.stanley_reisner by a scan for the minimal non-faces.

    A subset is a minimal non-face when it is not a face and dropping
    any one vertex gives a face.  Faces have at most top vertices, so no
    minimal non-face has more than top + 1.  The scan starts at the
    empty set, which is the one minimal non-face of the void complex.
    """
    n = delta.n_vertices
    top = max((len(f) for f in delta.facets), default=0)
    gens = []
    for k in range(top + 2):
        for tau in itertools.combinations(range(n), k):
            if is_face(delta, tau):
                continue
            if all(is_face(delta, tau[:i] + tau[i + 1:]) for i in range(k)):
                gens.append(tuple(1 if i in tau else 0 for i in range(n)))
    return MonomialIdeal(gens, n)
