"""Constructions attached to an integer point configuration.

The central object is ConfigMatrix: an integer matrix whose columns are
the points.  Dependent rows are dropped up front (they change neither
the kernel nor any ideal computed from it), and a positive grading is
derived once and reused everywhere: a vector in the row space giving
every variable a strictly positive degree.  Such a grading exists
exactly when the configuration is pointed, which is what makes every
term order in sight terminate.

The toric ideal itself is obtained by the lattice-basis-plus-saturation
route: start from the Hermite normal form kernel lattice basis and
saturate it in one Groebner computation, under a reverse lexicographic
order in which the saturating variable is cheapest.  Only the columns
where some basis row is negative need saturating: once they are
inverted, every other variable is a unit (the argument is in
toric_generators).  One such column is saturated directly; several are
saturated at once through one new variable that stands for their
product.

MonomialIdeal lives here too, since universal_gb returns the initial
ideals it finds; toricgb.fan imports it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, gcd, lcm
from operator import le
from typing import NamedTuple

from .buchberger import Binomial, GroebnerBasis, _groebner, _Packing
from .errors import (
    Budget,
    DimensionMismatch,
    NotACircuit,
    NotPointed,
    ToricError,
    ZeroVector,
)
from .exactmath import (
    IntMatrix,
    cone_support,
    det_bareiss,
    dot,
    hnf,
    max_abs_minor,
    strict_feasible,
)
from .orders import TermOrder, degrevlex, term_order, weighted_revlex


def normalize_sign(v):
    """One representative per +/- pair: first nonzero entry positive."""
    for x in v:
        if x > 0:
            return tuple(v)
        if x < 0:
            return tuple(-y for y in v)
    raise ZeroVector("cannot sign-normalize the zero vector")


def _lift(y, M: IntMatrix):
    """y M times the least positive integer that makes it integral.

    y is a row of Fractions.  With y = X / den over one denominator,
    y M = X M / den, and that integer is den / gcd(den, X M).
    """
    den = lcm(*(x.denominator for x in y))
    X = [x.numerator * (den // x.denominator) for x in y]
    w = [sum(x * m for x, m in zip(X, column)) for column in zip(*M.entries)]
    g = gcd(den, *w)
    return tuple(v // g for v in w)


class ConfigMatrix:
    """Point configuration with rank and pointedness sorted out once.

    Attributes:
        original: the matrix as given.
        matrix: the working matrix; dependent rows of the input dropped.
        kept_rows: indices of the surviving rows.
        grading: positive integer degrees (one per column) lying in the
            row space of the matrix, or None when the configuration is
            not pointed.  The all-ones grading is preferred when valid;
            any other depends on the row lattice, not on how its rows
            are written.
    """

    def __init__(self, rows):
        M = rows if isinstance(rows, IntMatrix) else IntMatrix(tuple(tuple(r) for r in rows))
        if M.nrows == 0 or M.ncols == 0:
            raise DimensionMismatch("configuration must have rows and columns")
        self.original = M
        # U M^T = H: H's pivot columns are the rows of M outside the span
        # of the rows above them; U's rows past the pivots span ker M
        H, U = hnf(M.transpose())
        kept = [next(i for i, x in enumerate(row) if x) for row in H.entries if any(row)]
        if not kept:
            raise DimensionMismatch("configuration has rank zero")
        self.kept_rows = tuple(kept)
        self.matrix = IntMatrix(tuple(M.entries[i] for i in kept))
        self._kernel_rows = U.entries[len(kept):]
        self._kernel = self._row_lattice = None
        self.grading = self._find_grading(self._kernel_rows)

    @property
    def d(self) -> int:
        return self.matrix.nrows

    @property
    def n(self) -> int:
        return self.matrix.ncols

    @property
    def pointed(self) -> bool:
        return self.grading is not None

    def _find_grading(self, kernel):
        """All-ones when it lies in the row space, else a lifted feasibility point.

        All-ones is in the row space exactly when it is orthogonal to
        ker M.  Otherwise the point is found on the columns of the row
        lattice's Hermite basis, which does not depend on how the rows
        are written.  One kept row needs no basis: every positive point
        lifts to the same primitive multiple of it.
        """
        if all(sum(row) == 0 for row in kernel):
            return (1,) * self.n
        M = self.matrix if self.d == 1 else self.row_lattice_basis()
        y = strict_feasible([M.col(j) for j in range(M.ncols)])
        if y is None:
            return None
        return _lift(y, M)

    def kernel_basis(self):
        """Rows of a canonical lattice basis of {v : Av = 0}.

        The Hermite normal form of the kernel rows of U that __init__
        kept: U is unimodular, so they span ker M, which is ker A, and
        the form is the one kernel_lattice_basis(A) gives.
        """
        if self._kernel is None:
            rows = self._kernel_rows
            self._kernel = hnf(IntMatrix(rows))[0] if rows else IntMatrix(())
        return self._kernel

    def row_lattice_basis(self) -> IntMatrix:
        """A basis of the lattice the rows of original span, computed once.

        The nonzero rows of hnf(original).  The rows kept in matrix can
        span a sublattice of index k > 1, and their maximal minors are
        then k times those of this basis: minors read here do not depend
        on how the input's rows are written.
        """
        if self._row_lattice is None:
            self._row_lattice = IntMatrix(
                tuple(row for row in hnf(self.original)[0].entries if any(row)))
        return self._row_lattice

    def pivot_columns(self):
        """Columns where a row of kernel_basis() has its leading entry.

        There are n - d of them.  The other d columns form a basis of
        the column space: the basis is in echelon form, so no nonzero
        kernel vector is supported off the pivots.
        """
        return {next(j for j, x in enumerate(row) if x)
                for row in self.kernel_basis().entries}

    def degree(self, v) -> int:
        """Grading degree of the positive part of a kernel vector."""
        g = self.grading if self.grading is not None else (1,) * self.n
        return sum(gi * x for gi, x in zip(g, v) if x > 0)

    def __repr__(self):
        return f"ConfigMatrix({self.d}x{self.n}, pointed={self.pointed})"


def saturate_variable(gens, i: int, degrees, budget: Budget = Budget(), *,
                      saturated=()):
    """Generators of (ideal of gens) : x_i^infinity, as lattice vectors.

    One Groebner computation under a reverse lexicographic order with
    x_i cheapest; in such an order x_i divides a leading term only if it
    divides the whole binomial, so stripping the shared x_i power from
    every output element saturates the ideal.  The vectors strip every
    shared factor, so their binomials generate an ideal between that
    saturation and the lattice ideal of the lattice of gens.  The
    generators must be homogeneous for `degrees` (any lattice of kernel
    vectors of a graded configuration is).

    The ideal of gens need not be saturated, so the run skips no pair
    for sharing a variable, but its saturation is saturated in x_i and
    in the columns `saturated` names, and the run divides each binomial
    by the common factor of its terms in those variables (see the
    buchberger module).
    """
    gens = [tuple(v) for v in gens]
    if not gens:
        return []
    return _groebner(gens, weighted_revlex(tuple(degrees), cheapest=i), budget,
                     saturated={i, *saturated}).vectors()


def toric_generators(A: ConfigMatrix, budget: Budget = Budget()):
    """Lattice vectors whose binomials generate the toric ideal of A.

    Kernel lattice basis, then one saturation run (none for a kernel of
    rank 1), then one Buchberger run under the grading-refined reverse
    lexicographic order; the output is the reduced Groebner basis for
    that order, canonically sorted.

    Let K be the kernel lattice basis, J_K the ideal of its rows'
    binomials, and T the columns where some row of K is negative (see
    saturation_columns).  With one row v, nothing is saturated: J_K is
    (f) for f = x^(v+) - x^(v-), whose terms have disjoint supports, so
    no variable divides f, and in the unique factorization domain k[x]
    f divides g whenever it divides a monomial times g: J_K is already
    J_K : (x^T)^infinity, which is I_A (below).  With two or more rows,
    saturate J_K by the product x^T of their variables: one
    saturate_variable run when T is a single column, else the run of
    _saturate_product.  The result generates I_A:

    * Each row's negative part lies in T, by the definition of T.  (K
      is in Hermite normal form, so the entries above a pivot lie in
      [0, pivot) and every row is nonnegative on the pivot columns: T
      holds no pivot column.)
    * Invert the variables of T.  A row's binomial then makes x^(v+),
      its positive part, equal to x^(v-), a unit, so every variable in
      the support of v+ is a unit.  A column outside T that is nonzero
      in some row is positive there, so every variable in the support
      of the kernel lattice L is a unit.  J_K becomes the Laurent ideal
      of L on those variables; L is saturated, so that ideal is prime,
      and J_K : (x^T)^infinity is the kernel of a monomial map into a
      domain, which is I_A.  (A column zero in every row of K is zero
      on all of L, and its variable appears in neither ideal.)
    * T is not empty when K is not: the grading is positive and
      orthogonal to every row, so a nonzero row has a negative entry.
    * With two or more columns in T, the run adds a variable y of
      degree sum of A.grading[t] over T and the binomial y - x^T, which
      together with J_K make an ideal J', and it saturates J' by y
      (_saturate_product).  k[x, y] / (y - x^T) is k[x], and that
      isomorphism carries J' : y^infinity to J_K : (x^T)^infinity.  J'
      is homogeneous for the positive grading that extends A.grading by
      y's degree, so the Bayer-Stillman rule of saturate_variable
      applies to y.

    The canonical run and the saturation run converge to prime ideals:
    I_A, or with y its preimage under y -> x^T.  The canonical run's
    generators, the saturation's output, generate I_A, so it skips each
    S-pair whose two terms share a variable (the criterion and its
    proof are in the buchberger module).  The saturation run cannot,
    since J_K and J' need not be saturated.  It divides instead: a prime
    ideal that holds no monomial is saturated in every variable, so the
    run names them all and divides every binomial by the common factor
    of its terms (the buchberger module proves the answer unchanged).

    The output does not depend on how the saturation is made, since the
    canonical run makes the reduced basis, which is unique, but the
    intermediate elements do.  A degree or element cap can therefore
    trip on other inputs than it did under one saturation per column,
    or under two runs, or without the division; every answer computed
    each way is the same.
    """
    gens = _saturated_generators(A, budget)
    if not gens:
        return []
    return _groebner(gens, _canonical_order(A), budget, prime=True).vectors()


def saturation_columns(A: ConfigMatrix):
    """The columns the saturation run inverts, ascending.

    They are the columns where some row of A.kernel_basis() is negative.
    A kernel of rank 1 makes no run (see toric_generators).
    """
    K = A.kernel_basis().entries
    return tuple(j for j in range(A.n) if any(row[j] < 0 for row in K))


def _saturated_generators(A: ConfigMatrix, budget: Budget):
    """The saturation run of toric_generators, without its canonical run.

    The vectors generate I_A but are not a reduced basis.
    """
    if not A.pointed:
        raise NotPointed("toric generators require a pointed configuration")
    gens = [tuple(r) for r in A.kernel_basis().entries]
    if len(gens) <= 1:
        return gens
    T = saturation_columns(A)
    if len(T) == 1:
        return saturate_variable(gens, T[0], A.grading, budget, saturated=range(A.n))
    return _saturate_product(gens, T, A.grading, budget)


def _saturate_product(gens, rest, grading, budget: Budget):
    """Vectors that saturate J, the ideal of gens, by x^rest.

    One run on n + 1 variables.  The new variable y has degree
    sum of grading[t] over rest, and y - x^rest joins the generators,
    as the vector (-1 on rest, 0 elsewhere, 1 at y); call the ideal
    they generate J'.  The output is that of saturate_variable on J'
    and y, with y substituted back: v -> v[:n] + v[n] * (1 on rest).

    * y = x^rest maps k[x, y] onto k[x], with kernel (y - x^rest), and
      J' contains that kernel, so f is in J' : y^infinity exactly when
      its image is in J : (x^rest)^infinity.  The images of the output
      binomials therefore generate J : (x^rest)^infinity.
    * The image of an output binomial with vector v is a monomial times
      the binomial of w = v[:n] + v[n] * (1 on rest).  v is a vector of
      J's lattice, padded for y, plus a multiple of (-1 on rest, 1), so
      w lies in J's lattice.  The binomials of the vectors w generate
      an ideal between J : (x^rest)^infinity and the lattice ideal of
      J's lattice, as those of saturate_variable do for one variable.
    * J' is homogeneous for the grading extended by y's degree, which
      is positive, so the Bayer-Stillman rule of saturate_variable
      applies to y, the cheapest variable.
    * The one caller, _saturated_generators, passes the kernel lattice
      basis and the columns T of saturation_columns, so J :
      (x^rest)^infinity = I_A.  J' : y^infinity is then the preimage of
      I_A under y -> x^rest, which is prime and holds no monomial, so
      it is saturated in every variable, and the run divides in all
      n + 1 of them.

    budget.grading, when given, gains y's degree in that grading for
    this run, so a degree trip reports the degree of the substituted
    lead.  The binomial y - x^rest itself substitutes to zero and is
    dropped.
    """
    n = len(grading)
    product = tuple(-1 if j in rest else 0 for j in range(n)) + (1,)
    lifted = grading + (sum(grading[t] for t in rest),)
    if budget.grading is not None:
        g = tuple(budget.grading)
        if len(g) != n:
            raise DimensionMismatch(f"budget grading of length {len(g)}, expected {n}")
        budget = replace(budget, grading=g + (sum(g[t] for t in rest),))
    out = []
    for v in saturate_variable([u + (0,) for u in gens] + [product], n, lifted, budget,
                               saturated=range(n + 1)):
        w = tuple(x + v[n] if j in rest else x for j, x in enumerate(v[:n]))
        if any(w):
            out.append(w)
    return out


def _canonical_order(A: ConfigMatrix) -> TermOrder:
    if A.grading == (1,) * A.n:
        return degrevlex(A.n)
    return degrevlex(A.n, weight=A.grading)


def toric_groebner(A: ConfigMatrix, ord: TermOrder = None,
                   budget: Budget = Budget()) -> GroebnerBasis:
    """Reduced Groebner basis of the toric ideal under ord (or the default).

    One run from the saturated generators, under ord or the canonical
    order; the reduced basis is unique, so the start does not change it,
    and under the canonical order it is the basis of toric_generators.
    Those generators generate I_A, which is prime, so the run skips the
    S-pairs whose terms share a variable, as the canonical run does.
    """
    ord = ord or _canonical_order(A)
    return _groebner(_saturated_generators(A, budget), ord, budget, prime=True).basis(ord)


def lawrence_lifting(M: IntMatrix) -> IntMatrix:
    """The (d+n) x 2n block matrix [[A, 0], [I, I]]."""
    d, n = M.nrows, M.ncols
    top = [tuple(row) + (0,) * n for row in M.entries]
    bottom = [
        tuple(1 if j == i else 0 for j in range(n)) * 2 for i in range(n)
    ]
    return IntMatrix(tuple(top + bottom))


def graver(A: ConfigMatrix, budget: Budget = Budget()):
    """The Graver basis of A via its Lawrence lifting.

    The toric ideal of [[A, 0], [I, I]] has a unique reduced Groebner
    basis whose elements all look like x^u y^v - x^v y^u; the vectors
    u - v, one per +/- pair, form the Graver basis.  The rows [I, I]
    sum to the all-ones grading, so the canonical order of the lifting
    is degrevlex on 2n variables and toric_generators already returns
    the reduced basis for it.

    budget.degree bounds the degree of intermediate elements in the
    lifted computation, in the lifting's all-ones grading unless
    budget.grading names one (A.grading + (0,) * n gives each (u, -u)
    the A-degree of u); it is the practical guard for random sweeps.
    """
    if not A.pointed:
        raise NotPointed("Graver basis requires a pointed configuration")
    n = A.n
    lifted = ConfigMatrix(lawrence_lifting(A.matrix))
    out = set()
    for w in toric_generators(lifted, budget):
        u, v = w[:n], w[n:]
        if any(x + y for x, y in zip(u, v)):
            raise ToricError(
                "internal invariant violated: Lawrence Groebner element "
                f"{w} is not of the form (u, -u)"
            )
        out.add(normalize_sign(u))
    return sorted(out)


@dataclass(frozen=True)
class Circuit:
    """Primitive kernel vector of minimal support, with its true degree.

    true_degree is the degree the determinant formula assigns before
    dividing by the common factor of the maximal minors.
    """

    vector: tuple
    true_degree: int


def circuits(A: ConfigMatrix, budget: Budget = Budget()):
    """All circuits of A, one per +/- pair, with true degrees.

    Each (d+1)-subset S of columns with rank(A_S) = d gives a circuit
    from the maximal minors of A_S, read on a basis of the row lattice:
    ker(A_S) is one-dimensional, so the vector is support-minimal.  The
    true degree of a circuit is taken over every subset that produces
    it, since the common factor of the minors can differ with the
    subset when the support is smaller than d+1.  budget.subsets caps
    the C(n, d+1) subsets scanned, and budget.degree the degree of each
    circuit as it is found.
    """
    M = A.row_lattice_basis()
    d, n = M.nrows, M.ncols
    budget.check("subsets", comb(n, d + 1))
    all_rows = tuple(range(d))
    best = {}
    for S in combinations(range(n), d + 1):
        dets = [det_bareiss(M.submatrix(all_rows, S[:j] + S[j + 1:]))
                for j in range(d + 1)]
        if not any(dets):
            continue
        c = gcd(*dets)
        vec = [0] * n
        for j, col in enumerate(S):
            vec[col] = (-1) ** j * dets[j] // c
        vec = normalize_sign(vec)
        budget.check("degree", A.degree(vec))
        best[vec] = max(best.get(vec, 0), c * A.degree(vec))
    return [Circuit(v, best[v]) for v in sorted(best)]


def true_degree(c, A: ConfigMatrix, budget: Budget = Budget()) -> int:
    """Degree of a circuit before division by the minors' common factor."""
    vec = c.vector if isinstance(c, Circuit) else tuple(c)
    target = normalize_sign(vec)
    for circuit in circuits(A, budget):
        if circuit.vector == target:
            return circuit.true_degree
    raise NotACircuit(f"{vec} is not a circuit of the configuration")


def degree_bound(A: ConfigMatrix) -> int:
    """(n - d)(d + 1) D(A): every reduced-GB element has degree below this.

    D(A) is the largest absolute maximal minor of a basis of the row
    lattice, so the bound does not depend on how the rows are written.
    """
    return (A.n - A.d) * (A.d + 1) * max_abs_minor(A.row_lattice_basis())


def is_unimodular(A: ConfigMatrix, budget: Budget = Budget()) -> bool:
    """All nonzero maximal minors share one absolute value."""
    M = A.matrix
    budget.check("subsets", comb(M.ncols, M.nrows))
    all_rows = tuple(range(M.nrows))
    values = {abs(det_bareiss(M.submatrix(all_rows, S)))
              for S in combinations(range(M.ncols), M.nrows)}
    return len(values - {0}) == 1


def _minimal_exponents(items):
    """The antichain of componentwise-minimal vectors among `items`.

    A proper divisor sorts before its multiple, so each vector is tested
    against the minimal ones kept before it: a divisor that is not kept
    has a kept divisor of its own.
    """
    keep = []
    for g in sorted(set(tuple(g) for g in items)):
        if not any(all(map(le, h, g)) for h in keep):
            keep.append(g)
    return tuple(keep)


class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generators.

    The empty generator list is the zero ideal; the all-zero exponent
    vector generates the unit ideal.
    """

    __slots__ = ("gens", "n")

    def __init__(self, gens, n: int):
        items = []
        for g in gens:
            t = tuple(map(int, g))
            if len(t) != n:
                raise DimensionMismatch(
                    f"exponent vector of length {len(t)}, expected {n}"
                )
            if any(e < 0 for e in t):
                raise ToricError("monomial exponents must be nonnegative")
            items.append(t)
        self.gens = _minimal_exponents(items)
        self.n = n

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains(self, m) -> bool:
        """Whether the monomial with exponent vector m lies in the ideal."""
        return any(all(g[i] <= m[i] for i in range(self.n)) for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({len(self.gens)} generators, {self.n} variables)"


def universal_gb(A: ConfigMatrix, budget: Budget = Budget()):
    """Union of all reduced Groebner bases, with the distinct initial ideals.

    Returns (ugb, initial_ideals, witnesses, bases):
        ugb: sign-normalized lattice vectors, sorted;
        initial_ideals: deduplicated monomial initial ideals;
        witnesses: one generic weight vector per initial ideal;
        bases: the reduced Groebner basis of each initial ideal under
            the order (witness, degrevlex), aligned with the ideals.

    The weight space is explored by sign patterns over the Graver
    vectors: each full-dimensional cell of the Graver hyperplane
    arrangement fixes the orientation of every Groebner basis element,
    so one interior witness per cell reaches every reduced basis.
    Infeasible sign prefixes are pruned, which is the only difference
    from enumerating all 2^N patterns.  budget.walk caps the sign-tree
    nodes the walk enters, counted as it runs, so a trip names the node
    past the cap on every machine.  The budget goes to graver unchanged,
    and its Lawrence runs are the only Buchberger runs made.

    Signs are kept as bitsets.  A sign prefix, and each cell, is one int
    with bit k set when Graver vector k is positive there.  A set of
    sign conditions (a stored refutation support, or the pattern of a
    basis found) is a pair (mask, bits): the Graver indices it names,
    and those of them that are positive.  A prefix pos meets it exactly
    when (pos ^ bits) & mask is 0.

    Each leaf reads its cell's reduced basis G, for the order (witness,
    degrevlex), off the Graver basis.  Orient every Graver vector by the
    cell's sign, positive part leading, and keep the elements whose lead
    is a minimal generator of the ideal of the oriented leads (no other
    oriented lead properly divides it) and whose trail lies outside that
    ideal.  Sorted by the order key of the lead, as buchberger sorts,
    they are G:

    * Every reduced Groebner basis of I_A lies in the Graver basis
      (Sturmfels, Groebner Bases and Convex Polytopes, Prop. 4.11), and
      the witness orients each Graver vector as the cell's sign does,
      so every element of G is among the oriented elements.
    * The oriented elements lie in I_A with their leads as initial
      terms, and their leads include those of G, so they generate the
      initial ideal.  An element of G has a minimal generator as lead
      and a standard trail: it is kept.
    * A kept lead is a minimal generator, so G has an element with that
      lead, and both trails are standard.  Two elements with the same
      lead and different standard trails would make two standard
      monomials equal modulo I_A, so the kept element is that of G.

    The read-off makes no divisibility test per cell.  An oriented lead
    blocks an oriented element when it properly divides the element's
    lead or divides its trail.  A lead is a minimal generator when no
    oriented lead properly divides it, and a trail is standard when none
    divides it (each is a multiple of a minimal generator), so an
    element is kept exactly when no lead the cell orients blocks it.  A
    table built once holds, per oriented element, the bitset of the 2N
    oriented leads that block it, and a cell's pattern is N bit
    operations on it.  Both parts of each Graver vector are packed, one
    field per variable with a guard bit on top (buchberger._Packing): a
    divides b exactly when ((b | guard) - a) & guard == guard, so the
    table costs 4N^2 guard-bit tests on ints.  The binomials of both
    orientations are built once.

    The walk hands each cell only what its signs fix: the sorted minimal
    leads, the oriented elements by Graver index, the cone's facets and
    the witness program (see _Cell).  Each caller builds what it prints.
    This function lifts the witnesses and builds the monomial ideals, the
    orders (witness, degrevlex) and the sorted bases.  groebner_fan
    builds cones and witnesses only.  The universal and fan count
    subcommands read the union and the number of cells, and solve no
    witness.

    Element i of a basis is a facet of its Groebner cone exactly when
    some leaf agrees with the basis's pattern on every other element and
    differs on i:

    * The normal v_i is irredundant exactly when some w has v_i . w < 0
      and v_j . w >= 0 for every other j (Farkas).  Adding a small
      multiple of the witness, where every v_j is positive, makes the
      other inequalities strict, so the open set {v_i . w < 0, v_j . w
      > 0 for j != i} is then not empty.
    * Every normal is plus or minus a Graver vector, so that open set is
      a union of cells of the arrangement with its walls, and a
      nonempty one holds a full cell: a leaf with the signs named.
      Conversely such a leaf holds points of the open set.
    * The normals are the primitive vectors lead - trail, one per
      element (distinct Graver vectors are never parallel), so the
      facets are the normals of those elements.  A reduced basis
      generates I_A, so its vectors span the kernel lattice, and the
      cone's lineality is n minus the lattice's rank.

    The walk reads the facets off the leaves by adjacency, with no scan
    of every leaf against every cone: i is a facet exactly when some
    leaf homed in the cell (see the homes below) has its i-flip,
    the leaf's bits with bit i flipped, among the leaves.  That is one
    set lookup per leaf and basis element:

    * Take a generic point of the facet's relative interior.  It lies
      on Graver wall i only: any other wall through it would contain
      the facet's hyperplane, and no two Graver vectors are parallel.
    * So a small ball around it meets exactly two leaves, one on each
      side of wall i, and they differ in bit i alone.  The one on the
      cone's side lies in the open cone, so the cell is its home, and
      the other is its i-flip.
    * Conversely, the i-flip of a leaf in the open cone agrees with the
      basis's pattern on every element but i, and differs on i, so i
      is a facet by the criterion above.

    Each piece of work is done once:

    * An integer point y strictly feasible for the current sign prefix
      is passed down the tree as its values over the Graver vectors: the
      value at i is e_i . y, e_i being Graver vector i in kernel
      coordinates.  The Gram table e_i . e_j is built once.  A child
      sign c is +-e_k, so c . y, c . c and each v . c and v . y of a kept
      sign v = +-e_d are read off the values and the table, and the
      values of a new point p * y + q * c, or a * z + y, are the same
      combination of value vectors.  The only dot products left in the
      walk are the values of each program's certificate z, taken once.
      A child sign that y satisfies is feasible with no further test.
    * Otherwise c . y <= 0.  A stored refutation (below) that the
      prefix meets proves the child empty, and a ray point would prove
      it not, so at most one applies: the refutations are read first.
      Then the ray a * y + c with a > 0 is tried.  Each kept sign v has
      v . y > 0, so it is positive on the ray's point exactly when
      a > -(v . c) / (v . y); let lo be the largest of these bounds, or
      0.  c . (a * y + c) = a * (c . y) + c . c is positive for every a
      when c . y = 0 (c . c > 0), and exactly when a < hi = c . c /
      -(c . y) when c . y < 0.  So when lo < hi, every a strictly
      between them gives a point strictly feasible for the child.  The
      mediant of lo = p / q and hi = c . c / -(c . y), (p + c . c) /
      (q - c . y), lies strictly between two fractions with positive
      denominators, and when c . y = 0 it is lo + c . c / q > lo, so
      the integer point (p + c . c) * y + (q - c . y) * c, a positive
      multiple of the ray's point there, is passed down.
    * When the ray fails, with the prefix strictly feasible, the child
      is feasible exactly when -c is not a nonnegative combination of
      the prefix, which ``cone_support`` decides.  Its certificate z has
      prefix . z >= 0 and c . z > 0, so a * z + y with a = -(c . y) //
      (c . z) + 1 is strictly feasible for the child and is passed down
      its branch.  Each such z is stored, as its values and the bitsets
      of the Graver indices where it is positive and negative.  A later
      child whose kept signs z satisfies weakly (no kept + where z is
      negative, no kept - where it is positive), and whose sign c has
      c . z > 0, takes a * z + y with no program, by the same argument.
    * When -c is in the cone, ``cone_support`` names a support S with
      -c a nonnegative combination of the prefix vectors in S.  Every
      node at the same depth whose signs agree with this one on S has
      the same combination, so its child c is empty too: S is stored
      for (depth, sign) and read before the ray at any later node there.
    * Both children of a node are decided before either is descended
      into, +1 then -1, so cells are visited in the same order.  When
      only child c is feasible, -c is refuted: c is a nonnegative
      combination of the prefix and is positive on the whole open
      prefix cone, which c therefore leaves unchanged.  c is not passed
      to the programs below it; the leaf still orients by the full sign
      list.
    * Every leaf reads its basis pattern off the table and finds its
      home, the cell with that pattern, by one dict lookup; a pattern
      not yet met founds a new cell.  Each leaf lies in one open
      Groebner cone, whose reduced basis it reads off for every weight
      there, and distinct cones have distinct bases, so the leaves of a
      cone share its pattern and only its first leaf founds it.
    * The homes read only basis patterns, which the signs fix, so the
      witness waits until the walk is done.  Each new cell then keeps
      as its witness program its first leaf's facets in the
      arrangement: the signs k for which flipping bit k alone gives
      another leaf.  An open cell is the intersection of its facets'
      open half-spaces, and k is a facet exactly when that flip is a
      cell (as for the Groebner cone facets above).  A caller that
      prints the witness solves it with one ``strict_feasible`` call;
      ``feasible_witness``'s point depends on the open set alone, so it
      is that of the full sign pattern.  An integer lift makes it a
      weight.
    """
    ugb, cells, _ = _sign_tree(A, budget)
    n = A.n
    ideals, witnesses, bases = [], [], []
    for cell in cells:
        omega = _witness(A, cell)
        order = term_order(n, weight=omega, tiebreak="degrevlex")
        ideals.append(MonomialIdeal(cell.leads, n))
        witnesses.append(omega)
        bases.append(GroebnerBasis(order, tuple(
            sorted(cell.elements.values(), key=lambda b: order.key(b.lead)))))
    return ugb, ideals, witnesses, bases


class _Cell(NamedTuple):
    """One initial ideal as the walk finds it.

    leads: the minimal generators of the initial ideal, sorted: the
        leads of the reduced basis, and MonomialIdeal(leads).gens.
    elements: the reduced basis by Graver index, each element oriented
        by the cell's signs, in index order.
    facets: the bitset of the Graver indices whose elements are facets
        of the Groebner cone.
    walls: the witness program: the signed kernel coordinates of the
        first leaf's facets in the arrangement.
    leaves: the bits of every leaf whose home the cell is, in visit
        order; the first is the leaf that found it.
    """

    leads: tuple
    elements: dict
    facets: int
    walls: tuple
    leaves: list


def _witness(A: ConfigMatrix, cell: _Cell):
    """The cell's weight: the strict_feasible point of its walls, lifted.

    With no Graver vector there is no wall, one cone and the weight 0.
    """
    if not cell.walls:
        return (0,) * A.n
    return _lift(strict_feasible(cell.walls), A.kernel_basis())


def _sign_tree(A: ConfigMatrix, budget: Budget):
    """The walk of universal_gb: (ugb, cells, leaves).

    cells holds a _Cell per initial ideal, sorted by leads, which is
    universal_gb's order.  leaves holds the bits of every
    full-dimensional cell of the arrangement, in visit order.  No
    witness, order, sorted basis or monomial ideal is built: each
    caller builds what it prints.  budget.walk caps the nodes descend
    enters, the root and every leaf among them.
    """
    if not A.pointed:
        raise NotPointed("universal basis requires a pointed configuration")
    grv = graver(A, budget)
    if not grv:
        return [], [_Cell((), {}, 0, (), [0])], [0]

    K = A.kernel_basis()
    pk = _Packing(A.n, max(abs(x) for g in grv for x in g).bit_length() + 1)
    guard = pk.guard
    # per Graver vector, indexed by its sign bit, negative (0) or
    # positive (1): its kernel coordinates, the binomial it orients to
    # and that binomial's (lead, trail) packed
    coords, oriented, packed = [], [], []
    for g in grv:
        c = tuple(dot(row, g) for row in K.entries)
        coords.append((tuple(-x for x in c), c))
        plus = Binomial(tuple(max(x, 0) for x in g), tuple(max(-x, 0) for x in g))
        minus = Binomial(plus.trail, plus.lead)
        oriented.append((minus, plus))
        packed.append(tuple((pk.pack(b.lead), pk.pack(b.trail)) for b in (minus, plus)))
    # per Graver vector and sign bit, the oriented leads that block its
    # element, bit l for l's positive lead and bit N + l for its negative
    # one: those that properly divide its lead or divide its trail
    N = len(grv)
    leads = [pq[1][0] for pq in packed] + [pq[0][0] for pq in packed]
    blocked = [tuple(sum(1 << l for l, M in enumerate(leads)
                         if ((trail | guard) - M) & guard == guard
                         or M != lead and ((lead | guard) - M) & guard == guard)
                     for lead, trail in pq) for pq in packed]

    ugb = set()
    leaves = []
    found = []  # per new cell: (pos, its basis's Graver indices, its leaves)
    homes = {}  # basis pattern (mask, bits) -> the index in found of its cell
    max_nodes, nodes = budget.walk, 0

    # a point y travels as its values over the Graver vectors, y's
    # value at i being coords[i][1] . y, so every sign test reads a
    # value and every step to a new point adds value vectors
    gram = [tuple(dot(c, e) for _, e in coords) for _, c in coords]
    refuted = {}  # (depth, bit) -> supports, as (mask, bits) pairs
    proved = []  # per feasibility certificate: its values, and where > 0 and < 0

    def child(pos, k, kept, held, P, up):
        # the values of a point strictly feasible for bit `up` at depth
        # k, or None; held is the bitset of the depths kept
        s = 1 if up else -1
        cp = s * P[k]
        if cp > 0:
            return P
        # a stored refutation and a ray point never both apply: refutations first
        if any(not (pos ^ bits) & mask for mask, bits in refuted.get((k, up), ())):
            return None
        # the ray a * y + c: each kept sign v bounds a > -(v . c) / (v . y)
        # from below, and c . y < 0 bounds a < c . c / -(c . y) from above
        G = gram[k]
        cc = G[k]
        lo, den = 0, 1
        for d in kept:
            vc, vy = (G[d], P[d]) if pos >> d & 1 else (-G[d], -P[d])
            vc *= s
            if vc < 0 and -vc * den > lo * vy:
                lo, den = -vc, vy
        if lo * -cp < cc * den:
            # the mediant of lo / den and cc / -cp lies strictly between
            a, b = lo + cc, (den - cp) * s
            return [a * x + b * g for x, g in zip(P, G)]
        for Z, plus, minus in proved:
            # z weakly satisfies every kept sign and strictly favours c
            if (plus if up else minus) >> k & 1 and not held & (pos & minus | ~pos & plus):
                break
        else:
            z, S = cone_support(coords[k][1 - up], [coords[d][pos >> d & 1] for d in kept])
            if z is None:
                mask = sum(1 << kept[j] for j in S)
                refuted.setdefault((k, up), []).append((mask, pos & mask))
                return None
            Z = [dot(c, z) for _, c in coords]
            proved.append((Z, sum(1 << i for i, x in enumerate(Z) if x > 0),
                           sum(1 << i for i, x in enumerate(Z) if x < 0)))
        # the kept signs . z >= 0 and c . z > 0, so any a > -cp / (c . z)
        a = -cp // (s * Z[k]) + 1
        return [a * v + x for v, x in zip(Z, P)]

    def descend(pos, k, kept, held, P):
        # P holds the values of a point strictly feasible for the k signs
        # of pos; the signs at the depths kept cut out the same open cone
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            budget.check("walk", nodes)
        if k == N:
            leaves.append(pos)
            # the basis pattern: the elements no lead oriented by pos blocks
            oriented_leads = pos | ((1 << N) - 1 ^ pos) << N
            mask = sum(1 << i for i, b in enumerate(blocked)
                       if not b[pos >> i & 1] & oriented_leads)
            home = homes.setdefault((mask, pos & mask), len(found))
            if home == len(found):
                index = [i for i in range(N) if mask >> i & 1]
                ugb.update(grv[i] for i in index)
                found.append((pos, index, []))
            found[home][2].append(pos)
            return
        points = [child(pos, k, kept, held, P, up) for up in (1, 0)]
        if None not in points:
            kept, held = kept + [k], held | 1 << k
        for up, p in zip((1, 0), points):
            if p is not None:
                descend(pos | up << k, k + 1, kept, held, p)

    descend(0, 0, [], 0, [0] * N)
    reached = set(leaves)
    cells = []
    for pos, index, homed in found:
        # k is a facet of the cone exactly when a leaf homed here has its
        # k-flip among the leaves (see universal_gb)
        facets = 0
        for leaf in homed:
            for k in index:
                if leaf ^ 1 << k in reached:
                    facets |= 1 << k
        elements = {k: oriented[k][pos >> k & 1] for k in index}
        walls = tuple(coords[k][pos >> k & 1] for k in range(N)
                      if pos ^ 1 << k in reached)
        cells.append(_Cell(tuple(sorted(b.lead for b in elements.values())),
                           elements, facets, walls, homed))
    # every cell found is a new basis (see the homes), so the leads differ
    cells.sort(key=lambda cell: cell.leads)
    return sorted(ugb), cells, leaves
