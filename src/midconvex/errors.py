"""Exception types shared across the toolkit."""

from __future__ import annotations


class MidconvexError(Exception):
    """Base class for all toolkit-specific errors."""


class NotMidconvexTrace(MidconvexError):
    """An integer trace admits no interval-and-odd-subgroup decomposition.

    Raised either because the minimal nonzero element of the trace is even,
    or because the reconstructed intersection disagrees with the trace.
    """

    def __init__(self, reason: str, *, minimal: int | None = None, witness: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.minimal = minimal
        self.witness = witness


class NotMidconvex(MidconvexError):
    """A set fails one of the midconvexity decompositions.

    Carries the failing reason and, when available, a violating triple
    (x, y, z) with 2z = x + y and z outside the set.
    """

    def __init__(self, reason: str, *, witness: tuple | None = None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


class CapExceeded(MidconvexError):
    """A configured resource cap (group order, lattice size, ...) was hit."""
