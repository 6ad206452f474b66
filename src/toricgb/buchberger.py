"""Geometric Buchberger algorithm on binomials.

A binomial x^a - x^b is stored as the pair (a, b) with a the leading
exponent under the ambient order.  Generators coming from lattice
vectors have disjoint parts (a = v+, b = v-), but intermediate S-pair
results can pick up a common monomial factor, so the engine carries the
honest pair throughout and only the lattice vector a - b is exposed for
serialization.

Reduction uses the one-shot multi-step rule: when a leading exponent a
divides the current monomial u, the whole chain u, u-(a-b), u-2(a-b),
... is followed for the largest step count that keeps every intermediate
monomial divisible by x^a and the final one nonnegative.  This agrees
with single-step reduction and saves long division chains on fibers
with large entries.

Pairs are pruned by the Gebauer-Moeller criteria (Gebauer and Moeller,
"On an installation of Buchberger's algorithm", JSC 1988): the product
criterion, the M and F criteria on the pairs a new element makes, and
the B criterion on the pairs already queued.  Each criterion reaches
only the candidates it could affect, through bitsets kept per field:
one of the leads positive in the field, which gives the earlier leads
that share a variable with a new one, and one of the queued pairs whose
lcm is positive in the field, which gives the pairs whose lcm a new
lead could divide.  The M and F criteria test the colons lcm - lead of
the new pairs, which are smaller than the lcms and divide in the same
way.

Inside a run every monomial is packed into one Python int (Bachmann and
Schoenemann, "Monomial representations for Groebner bases
computations", ISSAC 1998).  Each variable owns a field of W bits, and
the top bit of each field is a guard bit that a monomial keeps clear.
The fields are laid out along the order's precedence: for a lex
tie-break the most expensive variable takes the top field, for revlex
the cheapest does.  Comparing packed ints then compares the tie-break.
The order key of a monomial is one int as well: the packed int, negated
under revlex, plus each weight-row dot product times a scale that
exceeds the range of everything below that row (see _Packing.key), so
comparing keys compares the weight rows first and the tie-break last.
That key is linear, so each element caches the key of lead - trail and
the engine moves keys by int subtraction.  A new pair's lcm is its colon
plus the new lead, so its heap key is the lead's key plus the colon's.
The colon is nearly always one variable to a power of two, and so are
most common factors that a saturation run divides out (see below).  As
a packed int such a monomial is a power of two, and its key is one
shift off a table of field keys, with no unpacking.  The hot operations
are a few big-int operations each, with G the guard bits and ONES the
low bit of every field:

* x^a divides x^u: ((u | G) - a) & G == G;
* support: ((u | G) - ONES) & G holds the guard bit of each field where
  u is positive;
* lcm and gcd: the guard bits of ((a | G) - b) & G mark the fields where
  a >= b, and a mask built from them picks each field from a or b;
* the S-pair terms of a pair with lcm L: L - (lead - trail) for each
  element, the element's vector packed as a signed int;
* k reduction steps: u - k * (lead - trail).

The reducer looks for the first element whose lead divides a monomial,
as before, but tests only the elements whose lowest and highest lead
fields lie in the monomial's support; bitsets of element indices, one
per field, give those candidates in index order.

A run starts with 8-bit fields.  When a result sets a guard bit, or k
steps could grow a field by 2**(W-1) or more (checked before the step),
the run starts again from its generators with fields twice as wide.
The run is deterministic, so the restart repeats the same work up to the
point of overflow, and every answer and guard trip is the one the
wider fields give.

The package's own callers enter through _groebner, which keeps the run
packed to the end: it hands back packed pairs, or reduces one monomial
with the run's own reducer, so no Binomial or GroebnerBasis is built
for the next step to take apart.  Four options of that entry skip work
that cannot change an answer.

Prime ideals (prime=True): a new pair whose packed terms share a
variable is dropped when it is made, before it is keyed or queued.  For
the pair of element i and the new element j with colon m = lcm - lead j
the terms are p = m + lead j - vec i and q = m + trail j, and the test
is support(p) & support(q) != 0.  This is the common-factor criterion
for saturated lattice ideals (cf. Hemmecke and Malkin, "Computing
generating sets of lattice ideals and Markov bases of lattices", JSC
44, 2009).  It holds for any term order when the ideal I that the
generators generate is homogeneous for a positive grading and saturated
in the variables of m = min(p, q), as a prime binomial ideal is in
every variable:

* The S-binomial is x^p - x^q = x^m h with h = x^(p-m) - x^(q-m).  I
  is saturated in the variables of m, so h lies in I, and its degree
  is that of the lcm L less deg m > 0.
* Induction on degree over the final basis G: let every element of I
  of degree below deg L have a standard representation by G, a sum of
  terms c x^a g with every x^a lead(g) at most its own lead.  h has
  one, and x^m times it is a representation of the S-binomial with
  every lead at most x^m lead(h) < L: an lcm-representation.
* Buchberger's criterion in its lcm-representation form, on which the
  Gebauer-Moeller criteria rest as well, needs only that, and each
  pair is handled in the degree of its lcm; so G is a Groebner basis
  in each degree once it is one in every lower degree.

The representation is by the final basis, so the proof does not ask
where the pair stands in the queue or which elements exist when it is
tested: the pair can go the moment it is made (Gebauer and Moeller
1988; Bigatti, La Scala and Robbiano, "Computing toric ideals", JSC 27,
1999).  The test runs on the pairs that the M and F criteria and the
truncation keep.  A dropped pair still has its lcm-representation, so
it stands for the pairs M and F dropped in its favour; tested before
them, it could not, and more pairs would be queued.  A dropped pair is
never popped, so the pairs guard never counts it.  A term field that
holds exactly 2**(W-1), its guard bit alone, reads as zero; that can
only keep the pair, and popping it widens the run.

The unsaturated ideal of a lattice basis, which saturate_variable
starts from, breaks the first step, so those runs do not pass prime.
Where a dropped pair would have reduced to zero, the run goes on as
without the criterion; every pinned canonical run does.  Under an order
that does not refine the grading, pairs of lower degree can still be
queued when a pair is popped, its S-binomial can then reduce to a new
element, and a run that drops it pops fewer pairs later.  The basis is
the same.

Saturated targets (saturated=cols): a saturation run of toricgb.toric
works under a reverse lexicographic order with x_i cheapest, on
generators homogeneous for a positive grading, and its result is
stripped of x_i (Bayer and Stillman).  The ideal it converges to, T = J
: x_i^infinity for J the ideal of the generators, is saturated in the
variables cols, x_i among them.  When a popped S-binomial, or the
result of reducing it or a generator, has lead and trail sharing a
factor x^m in those variables, the run divides x^m out: m is the
fieldwise min of the two under a mask of those fields, and both keys
move by subtracting key(m).  A divided result needs no further
reduction, since its lead divides the irreducible lead it came from.
The answer is the one the undivided run strips to:

* Each element the run adds lies in T.  A generator lies in J, a
  reduction or S-binomial of elements of T lies in T, and when x^m h
  lies in T with m in the variables of cols, so does h, as T is
  saturated in them.  So the ideal I of the final basis G lies between
  J and T.
* G is a Groebner basis of I.  A popped S-binomial x^m h, whose terms
  lie below the lcm, reduces from h to zero or to x^m' g for the
  element g it adds, each step with a lead at most lead(h).  So x^m h
  has a representation by G with every lead at most x^m lead(h): an
  lcm-representation, as the criteria need.
* J lies in I and I in T = J : x_i^infinity, so I : x_i^infinity = T,
  and stripping x_i from G gives a Groebner basis of it (Bayer and
  Stillman): G is homogeneous for the grading, and x_i is cheapest.

The prime skip needs I itself saturated; this needs only T saturated,
so the saturation runs, which start from ideals that are not, can use
it.  Carrying x^m h whole makes more leads divide x^m lead(h) and keeps
every multiple the unsaturated ideal needs: on Segre 3x3x3 the
saturation of toric_generators, through y, pops 2,076 pairs with the
division and 5,529 without, and ends with 181 elements against 412 (cf.
Bigatti, La Scala and Robbiano, "Computing toric ideals", JSC 27, 1999).

Truncation (monomial=(u, grading)): the generators are homogeneous for
the positive grading, the run returns the normal form of x^u, of degree
D = grading . u, and a new pair whose lcm has degree above D is not
queued, so the pairs guard never counts it.  The degree is linear as
the key is: the lcm's is the new lead's, taken once, plus the colon's.
An S-binomial and its reductions stay in the degree of its lcm, so
every element a pair adds has degree at most D, and the argument above,
degree by degree, makes the elements a Groebner basis in every degree
up to D.  Reducing the monomial meets only leads of degree at most D,
so its normal form is the one the full basis gives (Thomas and
Weismantel, "Truncated Groebner bases for integer programming", AAECC
8, 1997).  The truncated basis itself is never handed back.

Floor (floor=(grading, D)): the generators generate an ideal I,
homogeneous for the positive grading, and are a Groebner basis of it in
every degree below D under the run's order.  A new pair whose lcm has
degree below D is dropped when it is made, before it is keyed or
queued, so the pairs guard never counts it; the degree is taken as the
truncation takes it.

* The run adds an element for each generator before it pops a pair,
  and each generator's lead is divisible by the lead of one of them: it
  is top-reduced by the earlier ones, or added as it is.  So from the
  first pair on, the leads of the basis generate in(I) in every degree
  below D.
* The S-binomial of a dropped pair lies in I, in the degree of its lcm,
  below D.  It therefore reduces to zero by the basis of any moment,
  each step with a lead below the lcm: an lcm-representation, by the
  final basis as well.  As for the prime criterion, the pair can go the
  moment it is made, and it goes after M, F and the truncation, so it
  stands for the pairs M and F dropped in its favour.
* Popped, the pair would have reduced to zero and added nothing.  So
  the run adds the same elements in the same order as without the
  floor, and the degree and elements guards trip where they did.

toricgb.toric gives the floor to the canonical run that follows a
saturation through a new variable y under the all-ones grading, with D
= deg y; _canonical_floor there proves the generators a Groebner basis
below D.  On Segre 3x3x3 that run pops 0 pairs where it popped 820.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from operator import mul

from .errors import Budget, DimensionMismatch, GuardViolated
from .exactmath import dot
from .orders import TermOrder


@dataclass(frozen=True)
class Binomial:
    """Oriented binomial x^lead - x^trail, both exponent vectors in N^n."""

    lead: tuple
    trail: tuple

    def __post_init__(self):
        lead = tuple(self.lead)
        trail = tuple(self.trail)
        if len(lead) != len(trail):
            raise DimensionMismatch("lead and trail of different lengths")
        if lead == trail:
            raise GuardViolated("zero binomial")
        if any(x < 0 for x in lead) or any(x < 0 for x in trail):
            raise GuardViolated("negative exponent")
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "trail", trail)

    @property
    def vector(self):
        return tuple(a - b for a, b in zip(self.lead, self.trail))


@dataclass(frozen=True)
class GroebnerBasis:
    order: TermOrder
    elements: tuple

    @property
    def vectors(self):
        return tuple(b.vector for b in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


class _Overflow(Exception):
    """A field would reach its guard bit: run again with wider fields."""


# struct codes of the field widths that unpack in one call
_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


class _Packing:
    """The field layout of packed monomials on n variables at width W.

    With an order, variable precedence[0] takes the top field under lex
    and the bottom field under revlex, and key() gives order keys as
    ints; without one the fields follow the variable indices.  fields(P)
    gives the field values of P, bottom field first.
    """

    def __init__(self, n: int, width: int, ord: TermOrder = None):
        self.n, self.width = n, width
        self.half = 1 << (width - 1)
        self.ones = sum(1 << (width * f) for f in range(n))
        self.guard = self.ones << (width - 1)
        if ord is None:
            at_field, self.sign = tuple(range(n)), 1
        elif ord.tie == "lex":
            at_field, self.sign = tuple(reversed(ord.precedence)), 1
        else:
            at_field, self.sign = ord.precedence, -1
        self.at_field = at_field  # the variable of each field, bottom first
        self.field_of = tuple(sorted(range(n), key=at_field.__getitem__))
        self.rows = () if ord is None else tuple(
            tuple(row[v] for v in at_field) for row in ord.layers)
        # each row with its scale, built from the last row up: a strict
        # bound on how far apart the lower rows and the tie-break of two
        # guard-clear monomials can put their keys (see key).  An all-ones
        # row, the total degree, is None: its dot product is sum(fs)
        scaled, spread = [], 1 << (n * width) >> 1
        for row in reversed(self.rows):
            scaled.append((None if all(x == 1 for x in row) else row, spread))
            spread += spread * sum(map(abs, row)) * (self.half - 1)
        self._scaled = tuple(reversed(scaled))
        # the key of the monomial 1 in each field: sign times the field's
        # low bit, plus each row's entry for the field times its scale
        self._unit = [self.sign << (width * f) for f in range(n)]
        for row, scale in self._scaled:
            for f in range(n):
                self._unit[f] += scale if row is None else scale * row[f]
        code = _STRUCT_CODES.get(width)
        if code:
            layout = struct.Struct(f"<{n}{code}")
            nbytes, unpack = layout.size, layout.unpack
            self.fields = lambda P: unpack(P.to_bytes(nbytes, "little"))
            self._join = lambda fs: int.from_bytes(layout.pack(*fs), "little")
        else:
            mask, shifts = (1 << width) - 1, range(0, n * width, width)
            self.fields = lambda P: tuple([(P >> s) & mask for s in shifts])
            self._join = lambda fs: sum(x << s for x, s in zip(fs, shifts))

    def pack(self, u) -> int:
        if len(u) != self.n:
            raise DimensionMismatch(f"vector of length {len(u)}, expected {self.n}")
        if max(u) >= self.half:
            raise _Overflow
        return self._join([u[v] for v in self.at_field])

    def unpack(self, P) -> tuple:
        fs = self.fields(P)
        return tuple([fs[f] for f in self.field_of])

    def key(self, P) -> int:
        """Order key of the guard-clear monomial P: one int, linear in P.

        K(P) = sum over the weight rows r of S_r * (row_r . fields(P)),
        plus sign * P, and the ints compare as the order's tuples do.
        Each field of a guard-clear monomial lies in [0, 2**(W-1)), so
        sign * P takes values less than 2**(nW-1) apart, and
        row_r . fields(P) values at most M_r = sum |row_r| * (2**(W-1) - 1)
        apart, negative weights included.  S_r is a strict bound on the range of the lower part
        (the rows below r and the tie-break): S_last = 2**(nW-1), then
        S_(r-1) = S_r * M_r + S_r.  Two monomials whose rows first differ
        at row r have keys S_r * (difference of at least 1) apart, moved
        by less than S_r, so the sign is that of row r; when every row
        agrees it is that of sign * P, the tie-break.  The scales depend
        on W, and a widened run starts again with a new packing, so no
        key meets a key of another width.

        A single-variable monomial whose one field holds 2**e is a power
        of two, and by linearity its key is 2**e times the key of the
        monomial 1 in that field.  Those keys are a table built with the
        packing, so such a key is one shift, with no unpacking.
        """
        if not P & (P - 1):
            if not P:
                return 0
            f, e = divmod(P.bit_length() - 1, self.width)
            return self._unit[f] << e
        k = self.sign * P
        if self.rows:
            fs = self.fields(P)
            for row, scale in self._scaled:
                k += scale * (sum(fs) if row is None else sum(map(mul, row, fs)))
        return k

    def support(self, P) -> int:
        """The guard bits of the fields where P is positive."""
        return ((P | self.guard) - self.ones) & self.guard

    def gcd(self, a, b) -> int:
        # the guard bits of the fields where a >= b, widened to field masks
        ge = ((a | self.guard) - b) & self.guard
        return a ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))


class _Reducer:
    """Packed elements lead - trail, and reduction by them.

    Each element keeps its vector lead - trail as a signed int, and for
    top_reduce its kvec = key(lead) - key(trail), an int: one reduction
    step u -> u - k*(lead - trail) moves the key of u by -k*kvec, so
    top_reduce follows the key of the side it reduces without computing
    a key again.
    """

    def __init__(self, pk: _Packing):
        self.pk = pk
        self.leads, self.trails, self.vecs, self.kvecs = [], [], [], []
        # bit e of low[f] (high[f]) is set when field f is the lowest
        # (highest) field of lead e; bit e of unit when lead e is 1
        self.low, self.high = [0] * pk.n, [0] * pk.n
        self.unit = 0

    def append(self, lead, trail, kvec=None):
        bit = 1 << len(self.leads)
        self.leads.append(lead)
        self.trails.append(trail)
        self.vecs.append(lead - trail)
        self.kvecs.append(kvec)
        s = self.pk.support(lead)
        if s:
            W = self.pk.width
            self.low[(s & -s).bit_length() // W - 1] |= bit
            self.high[s.bit_length() // W - 1] |= bit
        else:
            self.unit |= bit

    def divisor(self, u):
        """Index of the first element whose lead divides u, or None.

        Only the elements whose lowest and highest lead fields both lie
        in the support of u are tested.
        """
        pk = self.pk
        G, W = pk.guard, pk.width
        ug = u | G
        s = (ug - pk.ones) & G
        low, high = self.low, self.high
        lo = hi = 0
        while s:
            t = s & -s
            f = t.bit_length() // W - 1
            lo |= low[f]
            hi |= high[f]
            s ^= t
        c = (lo & hi) | self.unit
        leads = self.leads
        while c:
            t = c & -c
            e = t.bit_length() - 1
            if (ug - leads[e]) & G == G:
                return e
            c ^= t
        return None

    def _step(self, e, u):
        """u less k*(lead - trail) of element e, whose lead divides u; and k.

        One step is taken first.  Only when the lead still divides the
        result is the full count k worked out, from the fields where the
        vector is positive: k = min (u - trail) // (lead - trail) there.
        """
        pk = self.pk
        G = pk.guard
        vec = self.vecs[e]
        v = u - vec
        if v & G:
            raise _Overflow
        if ((v | G) - self.leads[e]) & G != G:
            return v, 1
        fields = pk.fields
        lead, trail = fields(self.leads[e]), fields(self.trails[e])
        counts = [(x - t) // (a - t) for x, a, t in zip(fields(u), lead, trail) if a > t]
        if not counts:
            raise GuardViolated("binomial with nonpositive vector; configuration not pointed")
        k = min(counts)
        if k * max(t - a for a, t in zip(lead, trail)) >= pk.half:
            raise _Overflow
        v = u - k * vec
        if v & G:
            raise _Overflow
        return v, k

    def reduce_monomial(self, u):
        while True:
            e = self.divisor(u)
            if e is None:
                return u
            u = self._step(e, u)[0]

    def top_reduce(self, lead, trail, klead, ktrail):
        """Reduce the larger side until irreducible; None when it hits zero.

        klead and ktrail are the order keys of lead and trail.  Returns
        (lead, trail, klead, ktrail).
        """
        divisor, step, kvecs = self.divisor, self._step, self.kvecs
        if klead < ktrail:
            lead, trail, klead, ktrail = trail, lead, ktrail, klead
        while True:
            e = divisor(lead)
            if e is None:
                return lead, trail, klead, ktrail
            lead, k = step(e, lead)
            klead -= k * kvecs[e]
            if lead == trail:
                return None
            if klead < ktrail:
                lead, trail, klead, ktrail = trail, lead, ktrail, klead


def _widening(run):
    """run(width) at 8 bits, and again at twice the width after each overflow."""
    width = 8
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


def normal_form(u, G):
    """Normal form of the monomial exponent u against the basis G.

    G may be a GroebnerBasis or any iterable of oriented binomials.  The
    result carries no exponent divisible by a leading term of G; when G
    is reduced it is the unique normal form.
    """
    elements = list(G.elements if isinstance(G, GroebnerBasis) else G)
    if any(x < 0 for x in u):
        raise GuardViolated("monomial exponents must be nonnegative")
    if not elements:
        return tuple(u)

    def run(width):
        pk = _Packing(len(elements[0].lead), width)
        red = _Reducer(pk)
        for b in elements:
            red.append(pk.pack(b.lead), pk.pack(b.trail))
        return pk.unpack(red.reduce_monomial(pk.pack(u)))

    return _widening(run)


def s_binomial(f: Binomial, g: Binomial, ord: TermOrder):
    """Honest S-pair: both terms under lcm(lead f, lead g); None when zero.

    The terms are p = L - (f.lead - f.trail) and q = L - (g.lead - g.trail)
    for L the lcm, oriented by ord.key.
    """
    L = tuple(max(a, c) for a, c in zip(f.lead, g.lead))
    p = tuple(l - a + b for l, a, b in zip(L, f.lead, f.trail))
    q = tuple(l - c + d for l, c, d in zip(L, g.lead, g.trail))
    if p == q:
        return None
    if ord.key(p) > ord.key(q):
        return Binomial(p, q)
    return Binomial(q, p)


def _s_pair(L, vi, vj, guard):
    """The two packed terms L - vi and L - vj of the S-pair with lcm L.

    Each pair the engine pops passes through here, looked up by global
    name, so a test can count the pairs a run works on.
    """
    p, q = L - vi, L - vj
    if (p | q) & guard:
        raise _Overflow
    return p, q


def buchberger(gens, ord: TermOrder, budget: Budget = Budget()) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal generated by gens.

    gens may be lattice vectors or oriented binomials; zero vectors and
    repeated generators are ignored.  Pair selection follows the normal strategy (smallest lcm
    under the order, ties in the order the pairs were made), so the run
    is deterministic.

    Each new element gets the Gebauer-Moeller update:

    * B criterion: a queued pair (i, k) is dropped when the new lead
      divides its lcm and differs from it in both lcm(lead i, new lead)
      and lcm(lead k, new lead).  Each queued pair owns one bit, set in
      a bitset of live pairs and in the bitset of each field where its
      lcm is positive; only the live pairs in the bitsets of every field
      of the new lead are tested.  Dropping or popping a pair clears its
      live bit and frees its lcm; a dropped pair's heap entry is
      discarded when it comes up.
    * Product criterion: no pair is made with an earlier lead that has
      no variable in common with the new one.  The union of the bitsets
      of earlier leads positive in each field of the new lead lists
      exactly the others.
    * M and F criteria: of the other new pairs, one is queued per
      minimal lcm, the one made with the earliest element.  Every new
      lcm is a multiple of the new lead, so the test runs on the colons
      lcm - lead.  A colon that is one variable to the power 1 drops
      every colon positive in that variable with one AND of supports;
      the others are taken in packed order, where a divisor comes first,
      and tested against the colons kept so far.  The queued pairs take
      their ticks in the order of their lcms as packed ints.

    The run works on packed monomials (see the module docstring): one
    int per monomial with a W-bit field per variable, laid out along the
    order's precedence, and tuples only for the generators and the
    result.  An order key is one int, the packed int (negated under
    revlex) plus each weight-row dot product times its row's scale; a
    row's scale bounds the range of the rows below it and the tie-break
    on guard-clear monomials, so the ints compare as the order does.
    The key is linear: each element caches key(lead) - key(trail),
    reductions update keys by int subtraction, a new pair's heap key is
    the new lead's key plus the key of its colon lcm - lead (nearly
    always one variable to a power of two, keyed by one shift), and an
    S-pair's two term keys are that heap key minus the two cached
    element keys.  The reduced basis is ordered by the leads' keys kept
    from the run.
    Fields start at 8 bits; a result that would reach a guard bit
    restarts the run with the width doubled, so the basis, the pairs
    and every guard trip are those of fields wide enough from the start.

    The budget caps intermediate basis growth (elements) and the degree
    of any element added (budget.grading . lead, or the order's first
    weight layer without a grading), turning runaway instances into a
    prompt LimitExceeded instead of a crawl.  budget.pairs caps the
    S-pairs that survive the criteria and are popped; it catches runs
    whose basis stays small while the pair queue churns (elimination
    orders do this).
    """
    return _groebner(gens, ord, budget).basis(ord)


class _Reduced:
    """A reduced basis as packed (lead, trail) pairs, in the order of the leads' keys."""

    def __init__(self, pk: _Packing, pairs):
        self.pk, self.pairs = pk, pairs

    def vectors(self):
        """The lattice vectors lead - trail, as tuples."""
        fields, field_of = self.pk.fields, self.pk.field_of
        out = []
        for lead, trail in self.pairs:
            d = [a - b for a, b in zip(fields(lead), fields(trail))]
            out.append(tuple([d[f] for f in field_of]))
        return out

    def basis(self, ord: TermOrder) -> GroebnerBasis:
        unpack = self.pk.unpack
        return GroebnerBasis(ord, tuple(Binomial(unpack(lead), unpack(trail))
                                        for lead, trail in self.pairs))


def _groebner(gens, ord: TermOrder, budget: Budget = Budget(), *, prime=False,
               monomial=None, saturated=(), floor=None):
    """The Buchberger run of buchberger, kept packed: the package's own entry.

    Returns the reduced basis as a _Reduced.  prime=True: the generators
    generate a prime ideal, homogeneous for a positive grading, and the
    run drops each new pair whose terms share a variable.

    saturated=cols: the run is a saturation by its cheapest variable
    x_i, under a reverse lexicographic order on generators homogeneous
    for a positive grading, and (ideal of gens) : x_i^infinity is
    saturated in the variables cols.  The run divides each S-binomial,
    and each reduced result, by the common factor of its terms in those
    variables; stripping x_i from the basis then gives the saturation
    that the undivided run gives.

    monomial=(u, grading): the generators are homogeneous for the
    positive grading, and the run returns the normal form of x^u as a
    tuple.  It queues no pair whose lcm has a degree above grading . u,
    and it reduces u with its own reducer: the normal form by any
    Groebner basis is the same, so the basis is not interreduced.  u is
    packed as the run starts, so an exponent too wide for the fields
    widens them before any work.

    floor=(grading, D): the generators are homogeneous for the positive
    grading and a Groebner basis of their ideal in every degree below D,
    and the run queues no pair whose lcm has a degree below D.  No
    caller passes it with monomial, whose grading it would take.  The
    module docstring proves the four options exact.
    """
    gens = [g if isinstance(g, Binomial) else tuple(g) for g in gens]
    return _widening(lambda width: _run(gens, budget, _Packing(ord.n, width, ord),
                                        prime, monomial, saturated, floor))


def _run(gens, budget: Budget, pk: _Packing, prime, monomial, saturated, floor):
    key, guard, ones, W = pk.key, pk.guard, pk.ones, pk.width
    push = heapq.heappush
    max_elements, max_degree, max_pairs = budget.elements, budget.degree, budget.pairs
    grading = budget.grading
    if monomial is not None or floor is not None:
        degrees = monomial[1] if monomial is not None else floor[0]
        fields = pk.fields
        # the grading laid out along the fields
        by_field = tuple(degrees[v] for v in pk.at_field)

        def degree(P):
            # linear in P, as key is: a power of two is one shifted entry.
            # P is a lead or a colon, never 0
            if not P & (P - 1):
                f, e = divmod(P.bit_length() - 1, W)
                return by_field[f] << e
            return sum(map(mul, by_field, fields(P)))

    if monomial is not None:
        start = pk.pack(monomial[0])
        top = sum(map(mul, by_field, fields(start)))
    red = _Reducer(pk)
    leads, trails, vecs, kvecs = red.leads, red.trails, red.vecs, red.kvecs
    kleads = []  # the key of each lead
    # the value bits of the fields of the variables the target is
    # saturated in
    top_bits = sum(1 << (W * pk.field_of[v] + W - 1) for v in set(saturated))
    sat_bits = top_bits - (top_bits >> (W - 1))

    def divide(lead, trail, klead, ktrail):
        # lead and trail less their common factor in the saturated fields
        m = pk.gcd(lead, trail) & sat_bits
        if not m:
            return lead, trail, klead, ktrail
        km = key(m)
        return lead - m, trail - m, klead - km, ktrail - km

    # bit i of near[f] is set when lead i is positive in field f
    near = [0] * pk.n

    # one heap entry (key of the lcm, tick) per queued pair, and pairs[tick]
    # its (i, j, lcm) until it is popped or dropped, then None; the tick
    # breaks ties.  Bit t of live is set while the pair of tick t is
    # queued, and bit t of spans[f] when its lcm is positive in field f
    queue, pairs = [], []
    spans = [0] * pk.n
    live = 0

    def update(j, klead):
        nonlocal live
        lead = leads[j]
        lg = lead | guard
        bit = 1 << j
        # B criterion, on the live pairs whose lcm covers the support of lead
        c = live
        older = 0
        lfields = []
        s = mask = (lg - ones) & guard
        while s:
            t = s & -s
            s ^= t
            f = t.bit_length() // W - 1
            lfields.append(f)
            c &= spans[f]
            older |= near[f]
            near[f] |= bit
        while c:
            t = c & -c
            c ^= t
            i, k, L = pairs[t.bit_length() - 1]
            if ((L | guard) - lead) & guard != guard:
                continue
            # lcm(a, lead) == L exactly when each field of L is a's or lead's
            eq = (lg - L) & guard
            if (((leads[i] | guard) - L) & guard | eq) != guard and \
                    (((leads[k] | guard) - L) & guard | eq) != guard:
                live ^= t
                pairs[t.bit_length() - 1] = None
        if not older:
            return
        # Product criterion: only the earlier leads sharing a field with
        # lead make pairs.  The pair with lead i has the colon
        # m = lcm - lead, lead i less lead where lead i is larger.  Every
        # new lcm is a multiple of lead, so one divides another exactly
        # when its colon does.
        # M and F criteria: one pair is kept per minimal colon, the one
        # with the smallest i.  No earlier lead divides lead, so no colon
        # is 0, and a colon that is one variable to the power 1 (a single)
        # is minimal.  A single divides exactly the colons positive in its
        # field: one AND of supports drops them, and where lead is 0 in
        # that field, near[f] takes the later ones out of the scan.
        singles, rest = [], []
        single_fields = 0
        while older:
            t = older & -older
            older ^= t
            i = t.bit_length() - 1
            d = (leads[i] | guard) - lead
            ge = d & guard
            m = d & (ge - (ge >> (W - 1)))
            s = ((m | guard) - ones) & guard
            if m == s >> (W - 1) and not s & (s - 1):
                if not s & single_fields:
                    singles.append((m, i, s))
                    single_fields |= s
                    if not s & mask:
                        older &= ~near[s.bit_length() // W - 1]
            else:
                rest.append((m, i, s))
        # the other colons in packed order, which puts every divisor of a
        # colon before it
        rest = [e for e in rest if not e[2] & single_fields]
        rest.sort()
        kept = []
        for m, i, s in rest:
            mg = m | guard
            for K, _, ks in kept:
                if ks & s == ks and (mg - K) & guard == guard:
                    break
            else:
                kept.append((m, i, s))
        kept += singles
        # lcm = colon + lead, and the degree and the key are linear
        if monomial is not None:
            room = top - degree(lead)
            kept = [e for e in kept if degree(e[0]) <= room]
        # prime criterion: drop the pairs whose terms m + lead - vec i
        # and m + trail share a variable
        if prime:
            trail = trails[j]
            kept = [e for e in kept
                    if not (((e[0] + lead - vecs[e[1]]) | guard) - ones)
                    & (((e[0] + trail) | guard) - ones) & guard]
        # floor: drop the pairs whose lcm has degree below floor[1]
        if floor is not None:
            low = floor[1] - degree(lead)
            kept = [e for e in kept if degree(e[0]) >= low]
        kept.sort()
        first = len(pairs)
        for tick, (m, i, s) in enumerate(kept, first):
            pairs.append((i, j, m + lead))
            push(queue, (klead + key(m), tick))
            b = 1 << tick
            while s:
                t = s & -s
                s ^= t
                spans[t.bit_length() // W - 1] |= b
        # every new lcm is positive where lead is
        new = (1 << len(pairs)) - (1 << first)
        live |= new
        for f in lfields:
            spans[f] |= new

    def add(lead, trail, klead, ktrail):
        if max_degree is not None:
            if grading is None:
                deg = sum(map(mul, pk.rows[0], pk.fields(lead))) if pk.rows else 0
            else:
                deg = dot(grading, pk.unpack(lead))
            if deg > max_degree:
                budget.check("degree", deg)
        red.append(lead, trail, klead - ktrail)
        kleads.append(klead)
        if max_elements is not None and len(leads) > max_elements:
            budget.check("elements", len(leads))
        update(len(leads) - 1, klead)

    # every generator is packed before the first reduction, so one too
    # wide for the fields widens them before any work
    seen, packed = set(), []
    for g in gens:
        if isinstance(g, Binomial):
            lead, trail = pk.pack(g.lead), pk.pack(g.trail)
        elif any(g):
            lead = pk.pack([x if x > 0 else 0 for x in g])
            trail = pk.pack([-x if x < 0 else 0 for x in g])
        else:
            continue
        # a generator and its negative are one binomial; top_reduce
        # orients it by the keys, the larger side leading
        sides = (lead, trail) if lead > trail else (trail, lead)
        if sides in seen:
            continue
        seen.add(sides)
        packed.append((lead, trail))
    for lead, trail in packed:
        r = red.top_reduce(lead, trail, key(lead), key(trail))
        if r is not None:
            add(*divide(*r) if sat_bits else r)

    popped = 0
    while queue:
        kL, tick = heapq.heappop(queue)
        entry = pairs[tick]
        if entry is None:
            continue
        pairs[tick] = None
        live ^= 1 << tick
        i, j, L = entry
        popped += 1
        if max_pairs is not None and popped > max_pairs:
            budget.check("pairs", popped)
        p, q = _s_pair(L, vecs[i], vecs[j], guard)
        if p == q:
            continue
        kp, kq = kL - kvecs[i], kL - kvecs[j]
        if sat_bits:
            p, q, kp, kq = divide(p, q, kp, kq)
        r = red.top_reduce(p, q, kp, kq)
        if r is not None:
            add(*divide(*r) if sat_bits else r)

    if monomial is not None:
        return pk.unpack(red.reduce_monomial(start))
    return _Reduced(pk, _interreduce(pk, leads, red.trails, kleads))


def _interreduce(pk: _Packing, leads, trails, kleads):
    """Minimalize and tail-reduce a basis that is already a GB.

    kleads are the keys of the leads.  Returns the packed (lead, trail)
    pairs in the order of the leads' keys, each lead distinct.
    """
    # sort the packed ints themselves: a divisor has no field above its
    # multiple's and the fields do not carry, so it never packs larger,
    # and each lead comes after its divisors under any order, negative
    # weights included.  Of equal leads the one with the smallest trail
    # is kept, and its trail tail-reduces to the normal form they share
    red = _Reducer(pk)
    kept = []
    for lead, trail, klead in sorted(zip(leads, trails, kleads)):
        if red.divisor(lead) is None:
            red.append(lead, trail)
            kept.append((klead, lead, trail))
    kept.sort()
    return [(lead, red.reduce_monomial(trail)) for _, lead, trail in kept]
