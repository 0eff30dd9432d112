"""Window sets of the integers, periodic traces, and their midconvexity machinery.

An IntWindowSet is an exact view of a finite set X of integers inside a
declared window [lo, hi], held as its sorted distinct members: membership is
fully known there and nothing is assumed outside. Midpoints of window members
stay inside the window, so midconvexity checked on the window is genuinely
midconvexity of X restricted to it. Every reading of it, the trace and the
Theorem-1 decomposition included, costs what the members cost, whatever the
width of the window.

A PeriodicTrace is one period of a periodic subset of the integers, the
trace of a set in a finite group, held as a mask: bit r stands for the
residue r, and decompositions treat it as the infinite set it denotes.

A decomposition is the rationals' description C ∩ (H + x) read over Z = (1, []):
C an interval with integer ends and H the descriptor (m, []) of the multiples of m.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import lt

from .errors import NotMidconvexTrace
from .groups import least_index, periodic_mask, set_bits
from .rationals import QIntervalSpec, RationalGroupDescriptor, RationalMidconvexDescription


@dataclass(frozen=True)
class IntWindowSet:
    """Finite set of integers known exactly inside [lo, hi], as its members in ascending order."""

    lo: int
    hi: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty window [{self.lo}, {self.hi}]")
        m = self.members
        if m and not (self.lo <= m[0] and m[-1] <= self.hi and all(map(lt, m, islice(m, 1, None)))):
            raise ValueError("members must ascend strictly inside the window")

    def __str__(self) -> str:
        return "{%s}@window[%d,%d]" % (",".join(map(str, self.members)), self.lo, self.hi)


@dataclass(frozen=True)
class PeriodicTrace:
    """Periodic subset of the integers, as a mask of one period: bit r stands for every n ≡ r."""

    period: int
    mask: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")
        if not 0 <= self.mask < 1 << self.period:
            raise ValueError("membership mask does not fit the period")

    def __str__(self) -> str:
        return "{%s} mod %d" % (",".join(map(str, set_bits(self.mask))), self.period)


def is_order_convex(mask: int) -> bool:
    """True iff no gap occurs between two set bits of the mask."""
    # adding the lowest set bit carries through a run of ones and stops at a gap
    return not (mask + (mask & -mask)) & mask


def midconvex_z_witness(window_set: IntWindowSet) -> tuple[int, int, int] | None:
    """First (x, y, z) with x, y members, 2z = x + y and z missing; None if midconvex.

    Read as a finite set of Z = (1, []) by engine.is_midconvex_q_finite, whose
    pair scan is lexicographic in (x, y). Midpoints of window members stay in
    the window, so None is true of the set restricted to it.
    """
    from .engine import is_midconvex_q_finite  # engine imports this module

    witness = is_midconvex_q_finite(RationalGroupDescriptor(1), window_set.members)
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
        ordered = window_set.members
    else:
        n_lo = -((hi - x) // -g)
        n_hi = (x - lo) // -g
        ordered = reversed(window_set.members)
    # every member lies in the window, so its n lies in [n_lo, n_hi]
    return IntWindowSet(n_lo, n_hi, tuple((n - x) // g for n in ordered if (n - x) % g == 0))


def minimal_nonzero_member(trace: PeriodicTrace) -> int | None:
    """Nonzero member of minimal absolute value; ties broken toward positive.

    Read off the mask: the least positive member is the lowest set bit above
    bit 0, or the period itself when 0 is the only residue, and the nearest
    negative one is the top residue minus the period.
    """
    mask = trace.mask
    if not mask:
        return None
    above = mask >> 1
    pos = least_index(above) + 1 if above else trace.period
    neg = mask.bit_length() - 1 - trace.period
    return pos if pos <= -neg else neg


def decompose_trace(trace: PeriodicTrace) -> RationalMidconvexDescription:
    """Write a periodic trace containing 0 as C ∩ H, a description over Z with base 0.

    Follows the minimal-|m| construction: find the nonzero member m of least
    absolute value (ties toward positive), reject even m, and set H to the
    multiples of |m|; the interval of the infinite set is unbounded. The
    reconstruction is one mask of the multiples of |m|, compared with the
    trace's by one XOR; the witness is the least residue where they differ.
    """
    d, mask = trace.period, trace.mask
    if not mask & 1:
        raise ValueError("a trace always contains 0")

    m = minimal_nonzero_member(trace)
    if m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)

    mod = abs(m)
    differ = mask ^ (periodic_mask(1, mod, d) if d % mod == 0 else 0)
    if differ:
        raise NotMidconvexTrace(
            f"periodic trace is not the multiples of {mod}", minimal=m, witness=least_index(differ)
        )
    return RationalMidconvexDescription(QIntervalSpec(), RationalGroupDescriptor(mod), 0)


def decompose_z(window_set: IntWindowSet, x: int | None = None) -> RationalMidconvexDescription:
    """Decompose a window set around a member x, by default the least, by Theorem 1.

    The trace X - x along 1 is read off the members: m is the member nearest
    x, less x, ties toward positive, and an even m is rejected. X must then
    be the progression of step |m| through x from its least to its greatest
    member, compared in one step; on success the returned description, with
    base x, reproduces the set exactly on the window. A rejected set's
    witness is the least point of the trace where the two differ. A set of
    one member is C = [x, x] with H = Z.
    """
    members = window_set.members
    if not members:
        raise ValueError("cannot decompose the empty set")
    if x is None:
        x = members[0]
    i = bisect_left(members, x)
    if members[i : i + 1] != (x,):
        raise ValueError(f"base point {x} is not a member")
    pos = members[i + 1] - x if i + 1 < len(members) else None
    neg = members[i - 1] - x if i else None
    m = neg if pos is None or (neg is not None and -neg < pos) else pos
    if m is not None and m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)

    mod = abs(m or 1)
    first, last = members[0], members[-1]
    progression = range(first + (x - first) % mod, last + 1, mod)
    if len(progression) != len(members) or members != tuple(progression):
        # both ascend and agree below their first differing pair, or else up to the shorter one's end
        n = next((min(a, b) for a, b in zip(members, progression) if a != b), None)
        if n is None:
            n = members[len(progression)] if len(members) > len(progression) else progression[len(members)]
        n -= x
        reason = f"trace differs from interval-and-subgroup reconstruction at {n}"
        raise NotMidconvexTrace(reason, minimal=m, witness=n)
    return RationalMidconvexDescription(QIntervalSpec(first, last), RationalGroupDescriptor(mod), x)
