"""Gröbner cones, initial ideals, and regular triangulations.

The weight vectors selecting one fixed reduced Gröbner basis form a
closed polyhedral cone, and the cones of all reduced bases fit together
into a complete fan.  This module finds the facets of one cone, or of
every cone of the fan at once, builds the regular triangulation
induced by a lifting weight and, from its definition alone, the
Stanley-Reisner ideal of a complex, and checks the combinatorial
statements tying the two pictures together: the Stanley-Reisner
correspondence and the chain condition on associated primes of initial
ideals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .buchberger import GroebnerBasis
from .errors import (
    Budget,
    DimensionMismatch,
    NonGenericOmega,
    ToricError,
)
from .exactmath import (
    IntMatrix,
    clear_to_ints,
    cramer,
    dot,
    is_irredundant,
    primitive,
    rank,
)
from .orders import term_order
from .toric import (
    ConfigMatrix,
    MonomialIdeal,
    _minimal_exponents,
    _sign_tree,
    _witness,
    toric_groebner,
)


@dataclass(frozen=True)
class Cone:
    """Intersection of half-spaces {w : g . w >= 0}, one g per inequality."""

    inequalities: tuple
    lineality_dim: int

    @property
    def facet_count(self) -> int:
        return len(self.inequalities)

    def contains(self, omega, strict: bool = False) -> bool:
        if strict:
            return all(dot(g, omega) > 0 for g in self.inequalities)
        return all(dot(g, omega) >= 0 for g in self.inequalities)


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets (inclusion-maximal faces)."""

    n_vertices: int
    facets: tuple

    def __post_init__(self):
        cleaned = []
        for f in self.facets:
            t = tuple(sorted(int(i) for i in f))
            if len(set(t)) != len(t):
                raise ToricError("repeated vertex in a facet")
            if t and not (0 <= t[0] and t[-1] < self.n_vertices):
                raise DimensionMismatch("facet vertex out of range")
            cleaned.append(t)
        cleaned = sorted(set(cleaned))
        sets = [set(f) for f in cleaned]
        for a in range(len(cleaned)):
            for b in range(len(cleaned)):
                if a != b and sets[a] <= sets[b]:
                    raise ToricError("facet contained in another facet")
        object.__setattr__(self, "facets", tuple(cleaned))


def groebner_cone(G: GroebnerBasis) -> Cone:
    """The closed cone of weights under which G stays the reduced basis.

    Each basis element contributes the inequality w . (lead - trail) >= 0.
    The normals live in the kernel lattice, which is exactly the
    orthogonal complement of the cone's lineality space, so no projection
    is needed before deduplication; primitive scaling plus redundancy
    removal leaves one inequality per facet, and the lineality is n
    minus the rank of the normals.

    `toricgb fan cones --weight` calls it for its one cone, and the
    tests take it as the reference for groebner_fan, which reads the
    facets of every cone of the fan off the walk with no program.
    """
    n = G.order.n
    normals = list(dict.fromkeys(primitive(g.vector) for g in G.elements))
    if not normals:
        return Cone((), n)
    keep = list(normals)
    for i in range(len(keep) - 1, -1, -1):
        if not is_irredundant(keep, i):
            del keep[i]
    return Cone(tuple(sorted(keep)), n - rank(IntMatrix(tuple(normals))))


def groebner_fan(A: ConfigMatrix, budget: Budget = Budget()):
    """(Cone, witness) for each initial ideal, in universal_gb's order.

    The walk of universal_gb hands over each cell's oriented basis
    elements, its facets and its witness program, and this builds the
    cones and solves the witnesses from them, with no linear program
    beyond the witnesses: no term order, sorted basis or monomial ideal
    is built.  Each leaf of the walk knows the cell whose pattern it
    meets, its home, and element k of a basis is a facet of its cone
    exactly when some leaf homed there has its k-flip among the leaves
    (the argument is in universal_gb's docstring).  The lineality is n
    minus the rank of the kernel lattice, which every reduced basis
    spans.  The cones equal groebner_cone of the bases.
    """
    _, cells, _ = _sign_tree(A, budget)
    lineality = A.n - A.kernel_basis().nrows
    fan = []
    for cell in cells:
        normals = sorted(b.vector for k, b in cell.elements.items() if cell.facets >> k & 1)
        fan.append((Cone(tuple(normals), lineality), _witness(A, cell)))
    return fan


def regular_triangulation(A: ConfigMatrix, omega,
                          budget: Budget = Budget()) -> SimplicialComplex:
    """The regular triangulation of cone(A) induced by lifting heights omega.

    Each cell is read off a vertex y of P = {y : a_j . y <= omega_j for
    all j}: it holds the columns with a_j . y = omega_j.  A.matrix has
    full row rank, so P is pointed and every vertex is y = A_sigma^{-T}
    omega_sigma for some basis sigma of d columns.  The scan visits each
    of the C(n, d) column subsets once (budget.subsets caps C(n, d))
    and, after scaling omega to integers, works with D = det(A_sigma)
    and D*y from Cramer's rule.  sigma is a facet when a_j . y < omega_j
    for every j off sigma.  When every j gives <= and one gives
    equality, the vertex is tight on more than d columns, its cell is
    not a simplex, and NonGenericOmega is raised.

    The facets cover cone(A) exactly when there is at least one.  For b
    in cone(A), min{omega . x : Ax = b, x >= 0} is dual to max{b . y :
    y in P}.  When P has a vertex it is not empty, so the minimum is
    bounded and attained at an optimal basis sigma; the dual solution
    of that basis is a vertex of P, and b lies in cone(A_sigma).  When P
    has no vertex it is empty, and no b has an optimal basis.
    """
    d, n = A.d, A.n
    if len(omega) != n:
        raise DimensionMismatch(f"weight of length {len(omega)}, expected {n}")
    budget.check("subsets", comb(n, d))
    w = clear_to_ints(omega)
    cols = [A.matrix.col(j) for j in range(n)]
    facets = []
    for sigma in itertools.combinations(range(n), d):
        D, solved = cramer(IntMatrix(tuple(cols[i] for i in sigma)), [[w[i] for i in sigma]])
        if not D:
            continue
        Dy = solved[0]
        sign = 1 if D > 0 else -1
        # |D| * (omega_j - a_j . y) for every column j off sigma
        slack = [
            sign * (D * w[j] - dot(cols[j], Dy))
            for j in range(n) if j not in sigma
        ]
        if all(s > 0 for s in slack):
            facets.append(sigma)
        elif all(s >= 0 for s in slack):
            raise NonGenericOmega(
                f"weight is not generic: the cell at columns {sigma} "
                "holds more columns and is not a simplex"
            )
    if not facets:
        raise NonGenericOmega(
            "weight is not generic: the lifted cone has no lower facet"
        )
    return SimplicialComplex(n, tuple(facets))


def _intersect_gens(a, b):
    """Generators of the intersection of two monomial ideals."""
    return list(_minimal_exponents(
        tuple(max(x, y) for x, y in zip(g, h)) for g in a for h in b
    ))


def stanley_reisner(delta: SimplicialComplex) -> MonomialIdeal:
    """The ideal of non-faces, by one construction: its definition.

    It is the intersection, over all facets, of the primes generated by
    the off-facet variables (Miller-Sturmfels, Combinatorial Commutative
    Algebra, 2005, Thm 1.7).  With no facet the intersection is empty
    and the ideal is the unit ideal: the void complex has no face, not
    even the empty one.  oracle.stanley_reisner_by_nonfaces scans for
    the minimal non-faces instead, as the tests' reference.
    """
    n = delta.n_vertices
    acc = [(0,) * n]  # unit ideal: intersecting with it changes nothing
    for f in delta.facets:
        inside = set(f)
        prime = [
            tuple(1 if i == v else 0 for i in range(n))
            for v in range(n)
            if v not in inside
        ]
        acc = _intersect_gens(acc, prime)
    return MonomialIdeal(acc, n)


def is_squarefree(I: MonomialIdeal) -> bool:
    return all(e <= 1 for g in I.gens for e in g)


def check_radical_triangulation(A: ConfigMatrix, omega,
                                budget: Budget = Budget()) -> bool:
    """Whether rad(in_w(I_A)) equals the Stanley-Reisner ideal of Delta_w."""
    G = toric_groebner(A, term_order(A.n, weight=omega), budget)
    for g in G.elements:
        if dot(omega, g.vector) == 0:
            raise NonGenericOmega("weight lies on a wall of the Gröbner fan")
    # the radical of a monomial ideal is generated by the supports of
    # its generators, so one minimalization of the lead supports gives it
    rad = MonomialIdeal([tuple(1 if e else 0 for e in g.lead) for g in G.elements], A.n)
    return rad == stanley_reisner(regular_triangulation(A, omega, budget))


def assoc_primes_monomial(I: MonomialIdeal, budget: Budget = Budget()):
    """Supports of the associated primes of a monomial ideal.

    A support sigma qualifies exactly when some monomial m outside I has
    (I : m) equal to the prime generated by {x_i : i in sigma}.  Witness
    exponents never need to exceed the largest generator exponent in each
    variable, so the grid below is exhaustive; budget.subsets caps its
    size as it is counted.
    """
    if I.is_zero:
        return []
    bounds = [max(g[i] for g in I.gens) for i in range(I.n)]
    count = 1
    for b in bounds:
        count *= b + 1
        budget.check("subsets", count)
    found = set()
    for m in itertools.product(*(range(b + 1) for b in bounds)):
        if I.contains(m):
            continue
        colon = _minimal_exponents(
            tuple(max(g[i] - m[i], 0) for i in range(I.n)) for g in I.gens
        )
        if all(sum(g) == 1 for g in colon):
            found.add(frozenset(i for g in colon for i in range(I.n) if g[i]))
    return sorted(tuple(sorted(s)) for s in found)


def check_chain_property(I: MonomialIdeal) -> bool:
    """Chain condition: every embedded prime covers some associated prime.

    For each non-minimal associated prime P there must be an associated
    prime Q with supp(Q) inside supp(P) and exactly one variable fewer.
    Initial ideals of toric ideals always satisfy this; arbitrary
    monomial ideals need not.
    """
    primes = [set(p) for p in assoc_primes_monomial(I)]
    for p in primes:
        if not any(q < p for q in primes):
            continue  # minimal prime, nothing to check
        if not any(q < p and len(q) == len(p) - 1 for q in primes):
            return False
    return True
