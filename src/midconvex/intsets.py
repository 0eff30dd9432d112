"""Windowed subsets of the integers and their midconvexity machinery.

An IntWindowSet is an exact view of a set X of integers inside a declared
window [lo, hi]: membership is fully known there and nothing is assumed
outside. Midpoints of window members stay inside the window, so midconvexity
checked on the window is genuinely midconvexity of X restricted to it.

A set may additionally be flagged as periodic: the window then presents one
full period of a periodic subset of the integers, and decompositions treat
it as the infinite set it denotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import NotMidconvexTrace


@dataclass(frozen=True)
class IntWindowSet:
    """Subset of the integers known exactly inside [lo, hi]."""

    lo: int
    hi: int
    membership: tuple[bool, ...]
    period: int | None = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        if len(self.membership) != self.hi - self.lo + 1:
            raise ValueError("membership table length does not match window")
        object.__setattr__(self, "membership", tuple(map(bool, self.membership)))
        if self.period is not None:
            if self.period < 1:
                raise ValueError("period must be positive")
            if (self.lo, self.hi) != (0, self.period - 1):
                raise ValueError("periodic sets must be presented on the window [0, period-1]")

    @classmethod
    def from_members(cls, lo: int, hi: int, members: Iterable[int]) -> "IntWindowSet":
        members = set(members)
        if any(n < lo or n > hi for n in members):
            raise ValueError("member outside the declared window")
        return cls(lo, hi, tuple(n in members for n in range(lo, hi + 1)))

    @classmethod
    def from_predicate(cls, lo: int, hi: int, pred: Callable[[int], bool]) -> "IntWindowSet":
        return cls(lo, hi, tuple(bool(pred(n)) for n in range(lo, hi + 1)))

    @classmethod
    def from_residues(cls, period: int, residues: Iterable[int]) -> "IntWindowSet":
        res = {r % period for r in residues}
        return cls(0, period - 1, tuple(n in res for n in range(period)), period)

    def contains(self, n: int) -> bool:
        """Membership inside the window; False outside (window-exact reading)."""
        if self.period is not None:
            return self.membership[n % self.period]
        if n < self.lo or n > self.hi:
            return False
        return self.membership[n - self.lo]

    def members(self) -> tuple[int, ...]:
        return tuple(n for n, b in zip(range(self.lo, self.hi + 1), self.membership) if b)

    @property
    def is_empty(self) -> bool:
        return not any(self.membership)

    def __str__(self) -> str:
        body = "{%s}" % ",".join(str(n) for n in self.members())
        if self.period is not None:
            return f"{body} mod {self.period}"
        return f"{body}@window[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class IntIntervalSpec:
    """Order-convex subset of the integers; a missing endpoint means unbounded."""

    lower: int | None
    upper: int | None

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("interval lower endpoint exceeds upper endpoint")

    def contains(self, n: int) -> bool:
        if self.lower is not None and n < self.lower:
            return False
        if self.upper is not None and n > self.upper:
            return False
        return True

    def shift(self, dx: int) -> "IntIntervalSpec":
        return IntIntervalSpec(
            None if self.lower is None else self.lower + dx,
            None if self.upper is None else self.upper + dx,
        )

    def __str__(self) -> str:
        lo = "-inf" if self.lower is None else str(self.lower)
        hi = "inf" if self.upper is None else str(self.upper)
        return f"[{lo},{hi}]"


@dataclass(frozen=True)
class ZSubgroupSpec:
    """Subgroup of the integers, encoded by a nonnegative modulus.

    modulus m >= 1 encodes the subgroup of all multiples of m. modulus 0 is a
    reserved marker used by trace decompositions for the singleton case: the
    trace was exactly {0}, decomposed with the singleton interval and the full
    group of integers. (Membership-wise both readings of m = 0 coincide there
    because the paired interval already pins the set to a single point.)
    """

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 0:
            raise ValueError("modulus must be nonnegative")

    def contains(self, n: int) -> bool:
        if self.modulus == 0:
            return n == 0
        return n % self.modulus == 0

    def __str__(self) -> str:
        if self.modulus == 0:
            return "Z (singleton marker)"
        return f"{self.modulus}Z"


@dataclass(frozen=True)
class TraceDecomposition:
    """Split of a trace as interval `C` intersected with coset `H + base`."""

    interval: IntIntervalSpec
    subgroup: ZSubgroupSpec
    base: int = 0

    def __post_init__(self) -> None:
        if self.subgroup.modulus >= 1 and self.subgroup.modulus % 2 == 0:
            raise ValueError("decomposition subgroup modulus must be odd")

    def contains(self, n: int) -> bool:
        if not self.interval.contains(n):
            return False
        m = self.subgroup.modulus
        if m == 0:
            # singleton marker: interval is [base, base], the subgroup is all
            # of the integers, so the interval alone decides membership
            return True
        return (n - self.base) % m == 0


def is_order_convex(window_set: IntWindowSet) -> bool:
    """True iff no gap occurs between two members inside the window."""
    members = window_set.members()
    if len(members) <= 1:
        return True
    return members[-1] - members[0] + 1 == len(members)


def midconvex_z_witness(window_set: IntWindowSet) -> tuple[int, int, int] | None:
    """First (x, y, z) with x, y members, 2z = x + y and z missing; None if midconvex.

    Witnesses are scanned in lexicographic order over (x, y), so reports are
    reproducible. Midpoints of window members never leave the window, hence
    a None answer is a true statement about the set restricted to the window.
    A periodic set is read as the set it denotes: x runs over one period and
    y over [x, x + 2*period), since the residue of (x + y)/2 modulo the
    period depends only on y modulo twice the period.
    """
    members = window_set.members()
    d = window_set.period
    for i, x in enumerate(members):
        ys = members[i:]
        if d is not None:
            ys += tuple(y + d for y in members) + tuple(y + 2 * d for y in members[:i])
        for y in ys:
            if (x + y) % 2 == 0:
                z = (x + y) // 2
                if not window_set.contains(z):
                    return (x, y, z)
    return None


def is_midconvex_z(window_set: IntWindowSet) -> bool:
    return midconvex_z_witness(window_set) is None


def trace_z(window_set: IntWindowSet, x: int, g: int) -> IntWindowSet:
    """The set of all n with x + n*g in X, on the largest window X determines.

    The result window is [ceil((lo-x)/g), floor((hi-x)/g)] for positive g and
    mirrored for negative g; outside it the window of X says nothing.
    """
    if g == 0:
        raise ValueError("trace direction g must be nonzero")
    if not window_set.lo <= x <= window_set.hi:
        raise ValueError(f"base point {x} outside window [{window_set.lo}, {window_set.hi}]")
    lo, hi = window_set.lo, window_set.hi
    if g > 0:
        n_lo = -((x - lo) // g)
        n_hi = (hi - x) // g
    else:
        n_lo = -((hi - x) // -g)
        n_hi = (x - lo) // -g
    return IntWindowSet.from_predicate(n_lo, n_hi, lambda n: window_set.contains(x + n * g))


def lemma1_check(window_set: IntWindowSet, x: int, y: int) -> bool:
    """True iff the trace of X at x along y - x is order-convex.

    This necessarily holds for every midconvex window-exact set and every
    pair of distinct members; it is not sufficient.
    """
    if x == y:
        raise ValueError("lemma1_check needs two distinct members")
    if not (window_set.contains(x) and window_set.contains(y)):
        raise ValueError("lemma1_check base points must be members")
    return is_order_convex(trace_z(window_set, x, y - x))


def minimal_nonzero_member(window_set: IntWindowSet) -> int | None:
    """Nonzero member of minimal absolute value; ties broken toward positive."""
    members = window_set.members()
    if window_set.period is not None and members:
        # the members of a periodic set nearest 0 lie within one period of it
        members = (members[-1] - window_set.period, *members, members[0] + window_set.period)
    # members ascend, so read backwards the positive one of a tie comes first
    return min((n for n in reversed(members) if n), key=abs, default=None)


def decompose_trace(trace: IntWindowSet) -> TraceDecomposition:
    """Split a trace containing 0 into an interval and an odd-modulus subgroup.

    Follows the minimal-|m| construction: find the nonzero member m of least
    absolute value (ties toward positive), reject even m, set H to the
    multiples of |m| and C to the smallest order-convex set with C and H
    intersecting to the trace, then verify the reconstruction; the witness
    is the least point where they differ.

    A periodic trace (one carrying a period) is read as the infinite periodic
    set it presents; its interval comes out unbounded.
    """
    d = trace.period
    if not trace.contains(0):
        raise ValueError("a trace always contains 0")

    m = minimal_nonzero_member(trace)
    if m is None:
        return TraceDecomposition(IntIntervalSpec(0, 0), ZSubgroupSpec(0))
    if m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)

    mod = abs(m)
    members = trace.members()
    if d is not None:
        interval = IntIntervalSpec(None, None)
        rebuilt = range(0, d, mod) if d % mod == 0 else range(0)
    else:
        # the multiples of mod in [first member, last member], all inside the window
        interval = IntIntervalSpec(members[0], members[-1])
        rebuilt = range(-(-members[0] // mod) * mod, members[-1] + 1, mod)
    differ = set(members).symmetric_difference(rebuilt)
    if differ:
        n = min(differ)
        if d is not None:
            reason = f"periodic trace is not the multiples of {mod}"
        else:
            reason = f"trace differs from interval-and-subgroup reconstruction at {n}"
        raise NotMidconvexTrace(reason, minimal=m, witness=n)
    return TraceDecomposition(interval, ZSubgroupSpec(mod))


def decompose_z(window_set: IntWindowSet, x: int | None = None) -> TraceDecomposition:
    """Decompose a window-exact integer set around a member x, by default the least.

    On success the returned decomposition, with its interval in the original
    coordinates and base x, reproduces the set exactly on the window.
    """
    if window_set.is_empty:
        raise ValueError("cannot decompose the empty set")
    if x is None:
        x = window_set.lo + window_set.membership.index(True)
    if not window_set.contains(x):
        raise ValueError(f"base point {x} is not a member")
    if window_set.period is not None:
        d = window_set.period
        shifted = IntWindowSet.from_residues(d, ((n - x) % d for n in window_set.members()))
        inner = decompose_trace(shifted)
        return TraceDecomposition(inner.interval, inner.subgroup, base=x)
    shifted = IntWindowSet(
        window_set.lo - x, window_set.hi - x, window_set.membership
    )
    inner = decompose_trace(shifted)
    return TraceDecomposition(inner.interval.shift(x), inner.subgroup, base=x)
