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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DimensionMismatch, GuardViolated, LimitExceeded
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
    reduced: bool

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
    """Precomputed reduction data for a fixed list of binomials."""

    def __init__(self, elements):
        self.elements = list(elements)
        self.leads = [b.lead for b in self.elements]
        self.vecs = [b.vector for b in self.elements]
        self.masks = [_support_mask(b.lead) for b in self.elements]

    def append(self, b: Binomial):
        self.elements.append(b)
        self.leads.append(b.lead)
        self.vecs.append(b.vector)
        self.masks.append(_support_mask(b.lead))

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

    def top_reduce(self, lead, trail, key):
        """Reduce the larger side until irreducible; None when it hits zero."""
        klead, ktrail = key(lead), key(trail)
        if klead < ktrail:
            lead, trail, klead, ktrail = trail, lead, ktrail, klead
        lmask = _support_mask(lead)
        while True:
            hit = False
            for elead, vec, mask in zip(self.leads, self.vecs, self.masks):
                if mask & lmask == mask and _divides(elead, lead):
                    k = _max_steps(lead, elead, vec)
                    lead = tuple(x - k * w for x, w in zip(lead, vec))
                    hit = True
                    break
            if not hit:
                return Binomial(lead, trail)
            if lead == trail:
                return None
            klead = key(lead)
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


def s_binomial(f: Binomial, g: Binomial, ord: TermOrder):
    """Honest S-pair: both terms under lcm(lead f, lead g); None when zero."""
    L = tuple(max(a, c) for a, c in zip(f.lead, g.lead))
    p = tuple(l - a + b for l, a, b in zip(L, f.lead, f.trail))
    q = tuple(l - c + d for l, c, d in zip(L, g.lead, g.trail))
    if p == q:
        return None
    if ord.key(p) > ord.key(q):
        return Binomial(p, q)
    return Binomial(q, p)


def _canonical(elements, ord: TermOrder):
    return tuple(sorted(set(elements), key=lambda b: (ord.key(b.lead), b.lead, b.trail)))


def _as_binomial(v, ord: TermOrder):
    if isinstance(v, Binomial):
        return v
    return orient(v, ord)


def buchberger(gens, ord: TermOrder, max_elements: int = 100_000,
               max_degree=None, max_pairs=None) -> GroebnerBasis:
    """Reduced Groebner basis of the binomial ideal generated by gens.

    gens may be lattice vectors or oriented binomials; zero vectors are
    ignored.  Pair selection follows the normal strategy (smallest lcm
    under the order) with the coprime-lead skip, so the run is
    deterministic.  max_elements caps intermediate basis growth;
    max_degree caps the top-layer weight of any intermediate lead (the
    grading degree for graded orders) and turns runaway instances into a
    prompt LimitExceeded instead of a crawl.  max_pairs caps the number
    of S-pairs processed, which catches runs whose basis stays small
    while the pair queue churns (elimination orders do this).
    """
    key = ord.key
    red = _Reducer([])
    seeds = []
    seen = set()
    for g in gens:
        if not isinstance(g, Binomial) and not any(g):
            continue
        b = _as_binomial(g, ord)
        if (b.lead, b.trail) not in seen:
            seen.add((b.lead, b.trail))
            seeds.append(b)

    queue = []  # (lcm key, tick, i, j)
    tick = 0

    def push_pairs(j):
        nonlocal tick
        bj = red.elements[j]
        jmask = red.masks[j]
        for i in range(j):
            if red.masks[i] & jmask == 0:
                continue  # coprime leads: S-pair reduces to zero
            L = tuple(max(a, c) for a, c in zip(red.leads[i], bj.lead))
            heapq.heappush(queue, (key(L), tick, i, j))
            tick += 1

    def add(b: Binomial):
        if max_degree is not None and ord.weight_of(b.lead) > max_degree:
            raise LimitExceeded(
                f"intermediate element of degree {ord.weight_of(b.lead)} "
                f"exceeds the cap of {max_degree}"
            )
        red.append(b)
        if len(red.elements) > max_elements:
            raise LimitExceeded(f"basis exceeded {max_elements} elements")
        push_pairs(len(red.elements) - 1)

    for b in seeds:
        r = red.top_reduce(b.lead, b.trail, key)
        if r is not None:
            add(r)

    popped = 0
    while queue:
        _, _, i, j = heapq.heappop(queue)
        popped += 1
        if max_pairs is not None and popped > max_pairs:
            raise LimitExceeded(f"pair queue exceeded {max_pairs} pairs")
        s = s_binomial(red.elements[i], red.elements[j], ord)
        if s is None:
            continue
        r = red.top_reduce(s.lead, s.trail, key)
        if r is not None:
            add(r)

    elements = _interreduce(red.elements, ord)
    return GroebnerBasis(ord, _canonical(elements, ord), True)


def _interreduce(elements, ord: TermOrder):
    """Minimalize and tail-reduce a basis that is already a GB."""
    # sort by total degree of the lead: divisors come before multiples
    # even under orders with negative weights, where the order key would
    # not be divisibility-compatible
    by_size = sorted(elements, key=lambda b: (sum(b.lead), b.lead, b.trail))
    minimal = []
    for b in by_size:
        bmask = _support_mask(b.lead)
        kept_mask = [_support_mask(m.lead) for m in minimal]
        if any(km & bmask == km and _divides(m.lead, b.lead)
               for m, km in zip(minimal, kept_mask)):
            continue
        minimal.append(b)
    red = _Reducer(minimal)
    out = []
    for b in minimal:
        trail = red.reduce_monomial(b.trail)
        out.append(Binomial(b.lead, trail))
    return out


def passes_buchberger_criterion(G: GroebnerBasis) -> bool:
    """Every S-pair of G reduces to zero (post-check for tests)."""
    red = _Reducer(list(G.elements))
    key = G.order.key
    for j in range(len(red.elements)):
        for i in range(j):
            s = s_binomial(red.elements[i], red.elements[j], G.order)
            if s is None:
                continue
            if red.top_reduce(s.lead, s.trail, key) is not None:
                return False
    return True
