"""Term orders on exponent vectors.

An order is a stack of integer weight rows, read top-down, refined by a
final lexicographic or reverse-lexicographic tie-break along a
precedence permutation.  term_order builds every such order from a
weight row, a tie-break and an elimination block; the two families
used throughout the package are shorthands of it:

* ``lex``: straight lexicographic along the permutation.
* ``degrevlex``: weight row (optional), then total degree, then reverse
  lexicographic.  The convention is the standard one: among monomials of
  equal weight and degree, the one with the smaller exponent on the
  cheapest variable is the larger monomial; equivalently x^u > x^v iff
  the last nonzero entry of u - v (scanned along the permutation) is
  negative.

Rational weights are cleared to integers on construction.  Every order
built here is total and multiplicative; it is a well-order whenever the
weight rows are nonnegative.  Orders with negative weight entries are
still usable on positively graded configurations because reductions
then stay inside finite fibers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, GuardViolated
from .exactmath import clear_to_ints


@dataclass(frozen=True)
class TermOrder:
    """Weight-stack term order with a lex or revlex tie-break.

    layers: integer weight rows, most significant first.
    tie: "lex" or "revlex".
    precedence: variable indices from most to least expensive.
    """

    n: int
    layers: tuple
    tie: str
    precedence: tuple

    def __post_init__(self):
        if sorted(self.precedence) != list(range(self.n)):
            raise GuardViolated("precedence must be a permutation of the variables")
        if self.tie not in ("lex", "revlex"):
            raise GuardViolated(f"unknown tie-break {self.tie!r}")
        for row in self.layers:
            if len(row) != self.n:
                raise DimensionMismatch("weight row of wrong length")

    def key(self, u):
        """Sort key: key(u) < key(v) exactly when x^u < x^v."""
        if len(u) != self.n:
            raise DimensionMismatch(f"vector of length {len(u)}, order on {self.n}")
        head = tuple(sum(w * x for w, x in zip(row, u)) for row in self.layers)
        if self.tie == "lex":
            return head + tuple(u[p] for p in self.precedence)
        return head + tuple(-u[p] for p in reversed(self.precedence))


def lex(n: int, permutation=None) -> TermOrder:
    """Pure lexicographic order; permutation lists variables expensive-first."""
    return term_order(n, tiebreak="lex", permutation=permutation)


def degrevlex(n: int, weight=None, permutation=None) -> TermOrder:
    """Graded reverse lexicographic order, optionally refined from a weight row.

    With a weight row, monomials are compared by weight first, then by
    total degree, then by the revlex rule.
    """
    return term_order(n, weight=weight, permutation=permutation)


def term_order(n: int, weight=None, tiebreak: str = "degrevlex",
               permutation=None, elimination_block: int = 0) -> TermOrder:
    """General constructor: weight row, tie-break, optional elimination block.

    elimination_block = k makes the first k variables infinitely more
    expensive than the rest (their total degree is compared first).
    """
    perm = tuple(permutation) if permutation is not None else tuple(range(n))
    layers = []
    if elimination_block:
        if not 0 < elimination_block <= n:
            raise GuardViolated("elimination block out of range")
        layers.append(tuple(1 if i < elimination_block else 0 for i in range(n)))
    if weight is not None:
        layers.append(clear_to_ints(weight))
    if tiebreak == "degrevlex":
        layers.append((1,) * n)
        return TermOrder(n, tuple(layers), "revlex", perm)
    if tiebreak == "lex":
        return TermOrder(n, tuple(layers), "lex", perm)
    raise GuardViolated(f"unknown tie-break {tiebreak!r}")


def weighted_revlex(gamma, cheapest: int) -> TermOrder:
    """Reverse lexicographic order refining a strictly positive grading.

    Used by the saturation pipeline: the grading row makes this a genuine
    term order, and the chosen variable is the cheapest, so it divides a
    leading term only if it divides the whole binomial.
    """
    n = len(gamma)
    g = clear_to_ints(gamma)
    if any(x <= 0 for x in g):
        raise GuardViolated("grading must be strictly positive")
    perm = tuple(j for j in range(n) if j != cheapest) + (cheapest,)
    return TermOrder(n, (g,), "revlex", perm)

