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
the B criterion on the pairs already queued.  Order keys are linear, so
each element caches key(lead - trail) and the engine moves keys by
subtraction instead of recomputing them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import Budget, DimensionMismatch, GuardViolated
from .exactmath import dot
from .orders import TermOrder, orient


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

    @property
    def is_disjoint(self) -> bool:
        return all(a == 0 or b == 0 for a, b in zip(self.lead, self.trail))

    def stripped(self) -> "Binomial":
        """Divide out the common monomial factor of the two terms."""
        common = tuple(min(a, b) for a, b in zip(self.lead, self.trail))
        if not any(common):
            return self
        return Binomial(
            tuple(a - c for a, c in zip(self.lead, common)),
            tuple(b - c for b, c in zip(self.trail, common)),
        )


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


def _support_mask(u) -> int:
    m = 0
    for i, x in enumerate(u):
        if x > 0:
            m |= 1 << i
    return m


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


class _Reducer:
    """Precomputed reduction data for a fixed list of binomials.

    With a key function, each element also carries key(lead - trail).
    Order keys are linear, so one reduction step u -> u - k*(lead - trail)
    moves the key of u by -k times that cached key, and top_reduce
    follows the key of the side it reduces without calling key again.
    """

    def __init__(self, elements, key=None):
        self.key = key
        self.elements = []
        self.leads = []
        self.vecs = []
        self.masks = []
        self.kvecs = []
        for b in elements:
            self.append(b)

    def append(self, b: Binomial):
        self.elements.append(b)
        self.leads.append(b.lead)
        self.vecs.append(b.vector)
        self.masks.append(_support_mask(b.lead))
        if self.key is not None:
            self.kvecs.append(self.key(self.vecs[-1]))

    def reduce_monomial(self, u):
        u = tuple(u)
        umask = _support_mask(u)
        progress = True
        while progress:
            progress = False
            for lead, vec, mask in zip(self.leads, self.vecs, self.masks):
                if mask & umask == mask and _divides(lead, u):
                    k = _max_steps(u, lead, vec)
                    u = tuple(x - k * w for x, w in zip(u, vec))
                    umask = _support_mask(u)
                    progress = True
                    break
        return u

    def top_reduce(self, lead, trail, klead, ktrail):
        """Reduce the larger side until irreducible; None when it hits zero.

        klead and ktrail are the order keys of lead and trail.
        """
        if klead < ktrail:
            lead, trail, klead, ktrail = trail, lead, ktrail, klead
        lmask = _support_mask(lead)
        while True:
            hit = False
            for elead, vec, kvec, mask in zip(self.leads, self.vecs, self.kvecs,
                                              self.masks):
                if mask & lmask == mask and _divides(elead, lead):
                    k = _max_steps(lead, elead, vec)
                    lead = tuple(x - k * w for x, w in zip(lead, vec))
                    klead = tuple([x - k * w for x, w in zip(klead, kvec)])  # see _minus
                    hit = True
                    break
            if not hit:
                return Binomial(lead, trail)
            if lead == trail:
                return None
            if klead < ktrail:
                lead, trail, klead, ktrail = trail, lead, ktrail, klead
            lmask = _support_mask(lead)


def normal_form(u, G):
    """Normal form of the monomial exponent u against the basis G.

    G may be a GroebnerBasis or any iterable of oriented binomials.  The
    result carries no exponent divisible by a leading term of G; when G
    is reduced it is the unique normal form.
    """
    elements = list(G.elements if isinstance(G, GroebnerBasis) else G)
    if any(x < 0 for x in u):
        raise GuardViolated("monomial exponents must be nonnegative")
    if elements and len(u) != len(elements[0].lead):
        raise DimensionMismatch("vector length does not match the basis")
    return _Reducer(elements).reduce_monomial(u)


def s_binomial(f: Binomial, g: Binomial, ord: TermOrder, kp=None, kq=None):
    """Honest S-pair: both terms under lcm(lead f, lead g); None when zero.

    The terms are p = L - (f.lead - f.trail) and q = L - (g.lead - g.trail)
    for L the lcm.  kp and kq are their order keys when the caller already
    has them; without them ord.key is called.
    """
    L = tuple(max(a, c) for a, c in zip(f.lead, g.lead))
    p = tuple(l - a + b for l, a, b in zip(L, f.lead, f.trail))
    q = tuple(l - c + d for l, c, d in zip(L, g.lead, g.trail))
    if p == q:
        return None
    if kp is None or kq is None:
        kp, kq = ord.key(p), ord.key(q)
    if kp > kq:
        return Binomial(p, q)
    return Binomial(q, p)


def _canonical(elements, ord: TermOrder):
    return tuple(sorted(set(elements), key=lambda b: (ord.key(b.lead), b.lead, b.trail)))


def _as_binomial(v, ord: TermOrder):
    if isinstance(v, Binomial):
        return v
    return orient(v, ord)


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _minus(u, v):
    # built from a list, so the tuple is made at its final size and taken
    # from the free list of that size; tuple(genexpr) grows by resizing,
    # and freed keys would then pile up in that free list unused
    return tuple([x - y for x, y in zip(u, v)])


def buchberger(gens, ord: TermOrder, budget: Budget = Budget()) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal generated by gens.

    gens may be lattice vectors or oriented binomials; zero vectors are
    ignored.  Pair selection follows the normal strategy (smallest lcm
    under the order, ties in the order the pairs were made), so the run
    is deterministic.

    Each new element gets the Gebauer-Moeller update:

    * B criterion: a queued pair (i, k) is dropped when the new lead
      divides its lcm and differs from it in both lcm(lead i, new lead)
      and lcm(lead k, new lead).  Dropped pairs stay in the heap and are
      skipped when popped.
    * Product criterion: no pair is made with an earlier lead that has
      no variable in common with the new one.
    * M and F criteria: of the other new pairs, taken by lcm degree,
      only those whose lcm no kept lcm divides are queued, so one pair
      is kept per minimal lcm.

    Order keys are linear, so each element's key(lead - trail) is cached
    and reductions update keys by subtraction; an S-pair's two term keys
    are the lcm's key, computed once for the heap, minus the two cached
    element keys.

    The budget caps intermediate basis growth (elements) and the degree
    of any element added (budget.grading . lead, or the order's first
    weight layer without a grading), turning runaway instances into a
    prompt LimitExceeded instead of a crawl.  budget.pairs caps the
    S-pairs that survive the criteria and reach s_binomial; it catches
    runs whose basis stays small while the pair queue churns
    (elimination orders do this).
    """
    key = ord.key
    max_elements, max_degree, max_pairs = budget.elements, budget.degree, budget.pairs
    grading = budget.grading
    red = _Reducer([], key)
    seeds = []
    seen = set()
    for g in gens:
        if not isinstance(g, Binomial) and not any(g):
            continue
        b = _as_binomial(g, ord)
        if (b.lead, b.trail) not in seen:
            seen.add((b.lead, b.trail))
            seeds.append(b)

    # one entry [key of the lcm, tick, i, j] per queued pair; the tick
    # breaks ties, and i becomes None when the pair is dropped
    queue = []
    tick = 0

    def update(j):
        nonlocal tick
        leads, masks = red.leads, red.masks
        lead, mask = leads[j], masks[j]
        for e in queue:
            i, k = e[2], e[3]
            if i is None or mask & (masks[i] | masks[k]) != mask:
                continue
            L = _lcm(leads[i], leads[k])
            if (_divides(lead, L) and _lcm(leads[i], lead) != L
                    and _lcm(leads[k], lead) != L):
                e[2] = None
        fresh = sorted(
            (sum(L), i, L)
            for i, L in ((i, _lcm(leads[i], lead)) for i in range(j) if masks[i] & mask)
        )
        kept = []
        for _, i, L in fresh:
            Lmask = masks[i] | mask
            if any(km & Lmask == km and _divides(K, L) for K, km in kept):
                continue
            kept.append((L, Lmask))
            heapq.heappush(queue, [key(L), tick, i, j])
            tick += 1

    def add(b: Binomial):
        if max_degree is not None:
            deg = ord.weight_of(b.lead) if grading is None else dot(grading, b.lead)
            if deg > max_degree:
                budget.check("degree", deg)
        red.append(b)
        if max_elements is not None and len(red.elements) > max_elements:
            budget.check("elements", len(red.elements))
        update(len(red.elements) - 1)

    for b in seeds:
        r = red.top_reduce(b.lead, b.trail, key(b.lead), key(b.trail))
        if r is not None:
            add(r)

    popped = 0
    while queue:
        kL, _, i, j = heapq.heappop(queue)
        if i is None:
            continue
        popped += 1
        if max_pairs is not None and popped > max_pairs:
            budget.check("pairs", popped)
        kp, kq = _minus(kL, red.kvecs[i]), _minus(kL, red.kvecs[j])
        s = s_binomial(red.elements[i], red.elements[j], ord, kp, kq)
        if s is None:
            continue
        if kp < kq:
            kp, kq = kq, kp
        r = red.top_reduce(s.lead, s.trail, kp, kq)
        if r is not None:
            add(r)

    elements = _interreduce(red.elements, ord)
    return GroebnerBasis(ord, _canonical(elements, ord))


def _interreduce(elements, ord: TermOrder):
    """Minimalize and tail-reduce a basis that is already a GB."""
    # sort by total degree of the lead: divisors come before multiples
    # even under orders with negative weights, where the order key would
    # not be divisibility-compatible
    by_size = sorted(elements, key=lambda b: (sum(b.lead), b.lead, b.trail))
    minimal = []
    kept_mask = []
    for b in by_size:
        bmask = _support_mask(b.lead)
        if any(km & bmask == km and _divides(m.lead, b.lead)
               for m, km in zip(minimal, kept_mask)):
            continue
        minimal.append(b)
        kept_mask.append(bmask)
    red = _Reducer(minimal)
    out = []
    for b in minimal:
        trail = red.reduce_monomial(b.trail)
        out.append(Binomial(b.lead, trail))
    return out


def passes_buchberger_criterion(G: GroebnerBasis) -> bool:
    """Every S-pair of G reduces to zero (post-check for tests)."""
    key = G.order.key
    red = _Reducer(G.elements, key)
    for j in range(len(red.elements)):
        for i in range(j):
            s = s_binomial(red.elements[i], red.elements[j], G.order)
            if s is None:
                continue
            if red.top_reduce(s.lead, s.trail, key(s.lead), key(s.trail)) is not None:
                return False
    return True
