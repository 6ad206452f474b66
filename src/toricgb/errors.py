"""Exception hierarchy shared across the package, and the run's Budget.

Everything raised on purpose derives from ToricError so callers can catch
one base class.  Guard-type errors (LimitExceeded, GuardViolated) signal
that a computation was refused, not that it failed.  Every work limit is
a field of one Budget, passed from the caller down to each loop; a trip
raises LimitExceeded with the guard, its limit and how far the work got.
"""

from __future__ import annotations

from dataclasses import dataclass


class ToricError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ToricError):
    """Operands have incompatible shapes or lengths."""


class RankDeficient(ToricError):
    """A matrix does not have the rank the operation requires."""


class ZeroVector(ToricError):
    """A nonzero vector was required."""


class NotPointed(ToricError):
    """The configuration admits a nonzero nonnegative kernel vector."""


class NotACircuit(ToricError):
    """The given vector is not a circuit of the configuration."""


class NonGenericOmega(ToricError):
    """The weight vector lies on a wall; the induced structure is degenerate."""


class GuardViolated(ToricError):
    """An input violates a documented precondition."""


class LimitExceeded(ToricError):
    """A guard tripped: the work reached `reached`, past the `limit` of `guard`."""

    def __init__(self, guard: str, limit, reached):
        super().__init__(f"{guard} guard exceeded: reached {reached}, capped at {limit}")
        self.guard, self.limit, self.reached = guard, limit, reached


class NegativeEntries(GuardViolated):
    """A nonnegative matrix or vector was required."""


@dataclass(frozen=True)
class Budget:
    """Work limits of one run; None leaves a guard unlimited."""

    elements: int | None = 100_000  # basis size in a Buchberger run
    # S-pairs popped in a Buchberger run; a pair dropped as it is made
    # is never popped, so it is not counted
    pairs: int | None = None
    degree: int | None = None  # of an element a Buchberger run adds, or a circuit
    grading: tuple | None = None  # degree is grading . lead; None: the order's top row
    points: int | None = 200_000  # fiber points found
    nodes: int | None = None  # nodes of a fiber or IP start-point search
    subsets: int | None = 2_000_000  # candidates counted before a scan
    walk: int | None = 100_000  # sign-tree nodes the Groebner-fan walk enters

    def check(self, guard: str, reached):
        limit = getattr(self, guard)
        if limit is not None and reached > limit:
            raise LimitExceeded(guard, limit, reached)
