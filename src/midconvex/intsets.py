"""Windowed subsets of the integers and their midconvexity machinery.

An IntWindowSet is an exact view of a set X of integers inside a declared
window [lo, hi]: membership is fully known there and nothing is assumed
outside. Midpoints of window members stay inside the window, so midconvexity
checked on the window is genuinely midconvexity of X restricted to it.

A set may additionally be flagged as periodic: the window then presents one
full period of a periodic subset of the integers, and decompositions treat
it as the infinite set it denotes.

A decomposition is the rationals' description C ∩ (H + x) read over Z = (1, []):
C an interval with integer ends and H the descriptor (m, []) of the multiples of m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotMidconvexTrace
from .groups import least_index, mask_of, periodic_mask, set_bits
from .rationals import QIntervalSpec, RationalGroupDescriptor, RationalMidconvexDescription


@dataclass(frozen=True)
class IntWindowSet:
    """Subset of the integers known exactly inside [lo, hi], as a mask: bit n - lo stands for n."""

    lo: int
    hi: int
    mask: int
    period: int | None = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        if not 0 <= self.mask < 1 << (self.hi - self.lo + 1):
            raise ValueError("membership mask does not fit the window")
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
        return cls(lo, hi, mask_of(hi - lo + 1, (n - lo for n in members)))

    def contains(self, n: int) -> bool:
        """Membership inside the window; False outside (window-exact reading)."""
        if self.period is not None:
            n %= self.period
        elif n < self.lo or n > self.hi:
            return False
        return bool(self.mask >> n - self.lo & 1)

    def members(self) -> tuple[int, ...]:
        return tuple(map(self.lo.__add__, set_bits(self.mask)))

    def __str__(self) -> str:
        body = "{%s}" % ",".join(str(n) for n in self.members())
        if self.period is not None:
            return f"{body} mod {self.period}"
        return f"{body}@window[{self.lo},{self.hi}]"


def is_order_convex(window_set: IntWindowSet) -> bool:
    """True iff no gap occurs between two members inside the window."""
    # adding the lowest set bit carries through a run of ones and stops at a gap
    mask = window_set.mask
    return not (mask + (mask & -mask)) & mask


def midconvex_z_witness(window_set: IntWindowSet) -> tuple[int, int, int] | None:
    """First (x, y, z) with x, y members, 2z = x + y and z missing; None if midconvex.

    Read as a finite set of Z = (1, []) by engine.is_midconvex_q_finite, whose
    pair scan is lexicographic in (x, y). Midpoints of window members stay in
    the window, so None is true of the set restricted to it; a periodic set is not read.
    """
    from .engine import is_midconvex_q_finite  # engine imports this module

    if window_set.period is not None:
        raise ValueError("a periodic set has no finite pair scan")
    witness = is_midconvex_q_finite(RationalGroupDescriptor(1), window_set.members())
    return None if witness is None else tuple(map(int, witness))


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
    # every member lies in the window, so its n lies in [n_lo, n_hi]
    steps = ((n - x) // g for n in window_set.members() if (n - x) % g == 0)
    return IntWindowSet.from_members(n_lo, n_hi, steps)


def minimal_nonzero_member(window_set: IntWindowSet) -> int | None:
    """Nonzero member of minimal absolute value; ties broken toward positive.

    Read off the mask: the least positive member is the lowest set bit above
    the bit of 0, the nearest negative one the highest set bit below it. In
    a periodic set the nearest negative member is the top residue minus the
    period, and 0 alone has the period itself as its least positive member.
    """
    mask, lo = window_set.mask, window_set.lo
    if window_set.period is not None:
        if not mask:
            return None
        above = mask >> 1
        pos = least_index(above) + 1 if above else window_set.period
        neg = mask.bit_length() - 1 - window_set.period
    else:
        # bit -lo stands for 0; bits above it are the positive members
        shift = max(1 - lo, 0)
        above = mask >> shift
        pos = lo + shift + least_index(above) if above else None
        below = mask & ((1 << -lo) - 1) if lo < 0 else 0
        neg = lo + below.bit_length() - 1 if below else None
    if neg is None or (pos is not None and pos <= -neg):
        return pos
    return neg


def decompose_trace(trace: IntWindowSet) -> RationalMidconvexDescription:
    """Write a trace containing 0 as C ∩ H, a description over Z with base 0.

    Follows the minimal-|m| construction: find the nonzero member m of least
    absolute value (ties toward positive), reject even m, set H to the
    multiples of |m| and C to the smallest order-convex set with C and H
    intersecting to the trace, then verify the reconstruction; the witness
    is the least point where they differ. A trace of one member is C = [0, 0]
    with H = Z.

    A periodic trace (one carrying a period) is read as the infinite periodic
    set it presents; its interval comes out unbounded. The reconstruction is
    one mask of the multiples of |m|, compared with the trace's by one XOR.
    """
    d, lo, mask = trace.period, trace.lo, trace.mask
    if not trace.contains(0):
        raise ValueError("a trace always contains 0")

    m = minimal_nonzero_member(trace)
    if m is None:
        return RationalMidconvexDescription(QIntervalSpec(0, 0), RationalGroupDescriptor(1), 0)
    if m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)

    mod = abs(m)
    if d is not None:
        interval = QIntervalSpec()
        rebuilt = periodic_mask(1, mod, d) if d % mod == 0 else 0
    else:
        # the multiples of mod in [first member, last member], all inside the window
        first, last = lo + least_index(mask), lo + mask.bit_length() - 1
        interval = QIntervalSpec(first, last)
        start = -(-first // mod) * mod - lo
        rebuilt = periodic_mask(1, mod, last - lo + 1 - start) << start
    differ = mask ^ rebuilt
    if differ:
        n = lo + least_index(differ)
        if d is not None:
            reason = f"periodic trace is not the multiples of {mod}"
        else:
            reason = f"trace differs from interval-and-subgroup reconstruction at {n}"
        raise NotMidconvexTrace(reason, minimal=m, witness=n)
    return RationalMidconvexDescription(interval, RationalGroupDescriptor(mod), 0)


def decompose_z(window_set: IntWindowSet, x: int | None = None) -> RationalMidconvexDescription:
    """Decompose a window-exact integer set around a member x, by default the least.

    On success the returned description, with base x, reproduces the set
    exactly on the window: C runs from its least to its greatest member, or
    is unbounded for a periodic set, and H is the subgroup of the trace X - x.
    """
    mask = window_set.mask
    if not mask:
        raise ValueError("cannot decompose the empty set")
    if x is None:
        x = window_set.lo + least_index(mask)
    if not window_set.contains(x):
        raise ValueError(f"base point {x} is not a member")
    if window_set.period is not None:
        # X - x rotates the one period presented: residue r moves to r - x
        d, r = window_set.period, x % window_set.period
        rotated = (mask >> r | mask << d - r) & ((1 << d) - 1)
        trace = IntWindowSet(0, d - 1, rotated, d)
        interval = QIntervalSpec()
    else:
        trace = IntWindowSet(window_set.lo - x, window_set.hi - x, mask)
        lo = window_set.lo
        interval = QIntervalSpec(lo + least_index(mask), lo + mask.bit_length() - 1)
    return RationalMidconvexDescription(interval, decompose_trace(trace).subgroup, x)
