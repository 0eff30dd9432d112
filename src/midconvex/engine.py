"""Midconvexity predicate, closure operator, and the decomposition pipelines.

A set X in an Abelian group is midconvex when for all members x, y every z
with 2z = x + y is again a member. Depending on 2-torsion the halving set of
x + y can be empty, a single point, or several points, so the predicate
deliberately includes the x = y pairs; dropping them is wrong in groups with
2-torsion.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import compress, count, cycle, islice, repeat
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from math import ceil, floor, gcd, inf, lcm, prod
from operator import add, and_, floordiv, mod, mul, or_, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapExceeded, NotMidconvex, NotMidconvexTrace
from .groups import (
    FiniteAbelianGroup, GroupElement, GroupSubset, bit_reader, cosets, is_subgroup, least_index, mask_of,
    periodic_mask, set_bits, subgroup_generated, sylow2_subgroup,
)
from .intsets import IntWindowSet, PeriodicTrace, decompose_trace, is_order_convex
from .rationals import (
    QIntervalSpec,
    Rational,
    RationalGroupDescriptor,
    RationalMidconvexDescription,
    cyclic_chain,
    is_two_pure,
    two_pure_closure,
)

# Bounds of the random lattice draws gen * num / den: |num| <= _DRAW_NUMERATORS,
# den a product of the inverted primes with exponents up to _DRAW_EXPONENTS.
_DRAW_NUMERATORS = 50
_DRAW_EXPONENTS = 4
# Each raw getrandbits word of randint(0, _DRAW_EXPONENTS) as the exponent it draws; None draws again.
_EXPONENT_DRAWS = tuple(e if e <= _DRAW_EXPONENTS else None for e in range(1 << (_DRAW_EXPONENTS + 1).bit_length()))
# A byte as each right shift 0..7 of it: getrandbits(k), k <= 8, is the top byte of its word shifted by 8 - k.
_BYTE_SHIFTS = tuple(bytes(b >> shift for b in range(256)) for shift in range(8))
# Most members that described_members lists.
_LATTICE_CAP = 500_000


@dataclass(frozen=True)
class RationalDecomposition:
    """A recovered description and its refinement depth, None for a singleton, which needs no refinement."""

    description: RationalMidconvexDescription
    depth: int | None = None


@dataclass(frozen=True)
class PeriodicDecomposition:
    """X as subgroup + base, with the subgroup of odd index in the group."""

    subgroup: GroupSubset
    base: GroupElement

    @property
    def index(self) -> int:
        return self.subgroup.index


# -- finite groups -------------------------------------------------------


def midconvex_witness(group: FiniteAbelianGroup, subset: GroupSubset) -> tuple[GroupElement, ...] | None:
    """First (x, y, z) in enumeration order with x, y members, 2z = x + y, z missing; None when midconvex.

    Each unordered pair is scanned once, as (x, y) with y not before x: the
    pair (y, x) has the same sum and came first. The halves of x + y come in
    ascending index order, so the first one missing is the least.
    """
    member = bit_reader(subset.mask, group.order)
    idxs = list(subset.indices())
    for a, xi in enumerate(idxs):
        for yi in idxs[a:]:
            for zi in group.halving_indices(group.add_index(xi, yi)):
                if not member(zi):
                    return group.element_at(xi), group.element_at(yi), group.element_at(zi)
    return None


def is_midconvex(group: FiniteAbelianGroup, subset: GroupSubset) -> bool:
    return midconvex_witness(group, subset) is None


def midconvex_bits(group: FiniteAbelianGroup, columns: Sequence[int], count: int) -> int:
    """Bit k is set iff the subset in bit k of the columns is midconvex.

    One pass decides all `count` subsets at once. Only a sum s in 2G has a
    half, so only those are read (_double_sums): the subsets with two
    members, equal ones included, adding up to s, fail exactly where they
    miss some z with 2z = s. A subset holding every such z holds the pair
    (z, z), so the AND of the halves lies inside the OR of the pairs and
    XOR takes it out: every word stays nonnegative, and column bits at or
    above `count` are cut from the result.
    """
    at = columns.__getitem__
    bad = 0
    for lefts, rights, halves in _double_sums(group):
        reached = reduce(or_, map(and_, map(at, lefts), map(at, rights)))
        bad |= reached ^ reduce(and_, map(at, halves))
    full = (1 << count) - 1
    return full ^ (full & bad)


@cache
def _double_sums(group: FiniteAbelianGroup) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """Per s in 2G, ascending: (lefts, rights, halves), the pairs i <= j with i + j = s and the z with 2z = s.

    The pairs are held as two index tuples, i in lefts and j in rights. G/2G
    has exponent 2, so -j lies in j + 2G, and i + j lies in 2G exactly when
    i and j lie in one coset of 2G: the pairs are read coset by coset.
    Built once per group and process.
    """
    halves = {s: h for s in range(group.order) if (h := group.halving_indices(s))}
    pairs: dict[int, tuple[list[int], list[int]]] = {s: ([], []) for s in halves}
    for _, coset in cosets(group, mask_of(group.order, halves)):
        members = list(set_bits(coset))
        for a, i in enumerate(members):
            for j in members[a:]:
                lefts, rights = pairs[group.add_index(i, j)]
                lefts.append(i)
                rights.append(j)
    return tuple((tuple(lefts), tuple(rights), halves[s]) for s, (lefts, rights) in pairs.items())


def midconvex_closure(group: FiniteAbelianGroup, subset: GroupSubset) -> GroupSubset:
    """Least midconvex superset: x + <X - x> + G_2 with x the least member; empty stays empty.

    G_2 is the Sylow 2-subgroup. Three facts give the closed form. A nonempty
    midconvex set is a coset of an odd-index subgroup (Theorem 2), so one
    containing X is x + K with K an odd-index subgroup containing X - x.
    Every odd-index K contains G_2: its image in G/K is a 2-group of odd
    order, hence trivial. Odd-index subgroups are closed under intersection, as
    G/(K ∩ K') embeds in G/K x G/K'. So the least such K exists, contains
    <X - x> + G_2, and equals it, since G/G_2 has odd order.
    """
    if not subset.mask:
        return subset
    xi = least_index(subset.mask)
    shifted = group.translate_mask(subset.mask, group.scale_index(xi, -1))
    h = subgroup_generated(GroupSubset(group, shifted | sylow2_subgroup(group).mask))
    return GroupSubset(group, group.translate_mask(h.mask, xi))


def _trace(group: FiniteAbelianGroup, mask: int, xi: int, gi: int) -> PeriodicTrace:
    """Trace at index xi along index gi of the set with this mask.

    The walk x, x + g, x + 2g, ... returns to x after ord(g) steps, the period;
    bit t of the trace's mask is the set's bit at x + t*g.
    """
    period, member = group.index_order(gi), bit_reader(mask, group.order)
    steps = compress(count(), map(member, group.walk(xi, gi)))
    return PeriodicTrace(period, mask_of(period, steps))


def trace_in_group(
    group: FiniteAbelianGroup, subset: GroupSubset, x: GroupElement, g: GroupElement
) -> PeriodicTrace:
    """Residues n mod ord(g) with x + n*g in X, as a periodic trace, read from the members of x + <g>.

    The coset's mask is built by doubling, C <- C | (C + 2^j*g) from C = {x},
    in about log2 ord(g) translates (all of G when ord(g) = |G|), and cut to
    X. The n of each member y = x + n*g is solved factor by factor: with
    c = gcd(g_k, n_k) and p = n_k/c, y_k - x_k = n*g_k (mod n_k) gives
    n = (y_k - x_k)/c * u (mod p), u the inverse of g_k/c mod p. The factors
    join through weights w_k, multiples of ord(g)/p with
    sum_k w_k*g_k/c = 1 (mod ord(g)) (_step_weights): n = sum_k (y_k - x_k)/c * w_k.
    As w_k*p = 0 (mod ord(g)), (y_k - x_k)/c counts only modulo p, where it
    equals y // (s*c) - x // (s*c), s the factor's stride: one floor
    division and one product per member and factor that g moves. The
    coset's members outside X are solved instead when they are fewer, so the
    work in Python grows with at most ord(g)/2 members, and not with |G|.
    `_trace`, the walk of ord(g) steps, is the reference.
    """
    xi, gi = group.index_of(x), group.index_of(g)
    period = group.index_order(gi)
    if period == group.order:
        coset = (1 << period) - 1
    else:
        coset, reach = 1 << xi, 1
        while reach < period:
            coset |= group.translate_mask(coset, group.scale_index(gi, reach))
            reach *= 2
    hits = subset.mask & coset
    flip = 2 * hits.bit_count() > period
    solved = list(set_bits(coset ^ hits if flip else hits))
    weights = _step_weights(group, gi, period)
    steps: Iterable[int] = repeat(-sum(xi // d * w for d, w in weights), len(solved))
    for d, w in weights:
        steps = map(add, steps, map(mul, map(floordiv, solved, repeat(d)), repeat(w)))
    trace = mask_of(period, map(mod, steps, repeat(period)))
    return PeriodicTrace(period, trace ^ ((1 << period) - 1) if flip else trace)


def _step_weights(group: FiniteAbelianGroup, gi: int, period: int) -> list[tuple[int, int]]:
    """(s*c, w) for each factor that index gi moves, with n*g's n = sum of (i // (s*c)) * w mod period.

    s is the factor's stride, c = gcd(g_k, n_k) and p = n_k/c. The weights
    keep sum_k w_k*g_k/c = b (mod period), with b dividing the period: from
    b = period and no weights, each factor's a = period/p * g_k/c joins as
    y*a = h (mod b), h = gcd(b, a), y the inverse of a/h mod b/h, so that
    y*a - j*b = h with j = (y*a - h)/b, and the earlier weights are scaled
    by -j. The gcd of the a's and the period is 1, so b ends at 1.
    """
    weights, b = [], period
    for stride, n in group._radix:
        c = gcd(gi // stride % n, n)
        p = n // c
        if p > 1:
            a = period // p * (gi // stride % n // c)
            h = gcd(b, a)
            y = pow(a // h, -1, b // h)
            j = (y * a - h) // b
            weights = [(d, -j * w % period) for d, w in weights] + [(stride * c, y * (period // p) % period)]
            b = h
    return weights


def verify_theorem1(group: FiniteAbelianGroup, subset: GroupSubset) -> bool:
    """True iff every trace of the set decomposes; equals is_midconvex."""
    traces = (_trace(group, subset.mask, xi, gi) for xi in subset.indices() for gi in range(group.order))
    return all(_accepts(decompose_trace, trace) for trace in traces)


def _accepts(verdict, trace: PeriodicTrace) -> bool:
    """True iff the verdict function, decompose_trace or a stand-in for it, accepts the trace."""
    try:
        verdict(trace)
    except NotMidconvexTrace:
        return False
    return True


def closed_traces(period: int, exhaustive: bool) -> tuple[tuple[int, ...], ...]:
    """The patterns Q that a coset of a cyclic subgroup of this order may read along its least generator g.

    Each Q comes as its bits, bit r first: whether the walk's r-th step along
    g is a member. The trace at the member t of Q is Q rotated down by t;
    these rotations to Q's members are Q's class. decompose_trace is asked
    about a class in ascending order up to its first rejection, as
    verify_theorem1 stops at its first rejected trace, and a class that
    passes contributes all its rotations; the empty pattern always passes.
    Exhaustive asks about every class of patterns that contain 0; otherwise
    only the multiples of each odd divisor of the period, the patterns that
    Theorem 1 allows in a finite group, each its own class.

    The generator u*g, u a unit mod period, reads Q at u*t, so a Q is kept
    only when every such reading passes. A unit maps the cosets of a
    subgroup pattern, a class of one, onto each other, so only the other
    classes, which only a faulty verdict passes, are read unit by unit.

    The table is built once per period, exhaustive flag and process for each
    verdict function: it is keyed on the decompose_trace in force at the
    call, so a table built under one verdict is never read under another.
    """
    return _closed_traces(period, exhaustive, decompose_trace)


@cache
def _closed_traces(period: int, exhaustive: bool, verdict) -> tuple[tuple[int, ...], ...]:
    """closed_traces with the verdicts of the given function."""
    full = (1 << period) - 1
    if exhaustive:
        candidates: Iterable[int] = range(1, 1 << period, 2)
    else:
        candidates = [periodic_mask(1, d, period) for d in range(1, period + 1, 2) if period % d == 0]
    decided: set[int] = set()
    kept, unchecked = {0}, set()
    for pattern in candidates:
        if pattern in decided:
            continue
        trace_class = sorted({(pattern >> t | pattern << period - t) & full for t in set_bits(pattern)})
        decided.update(trace_class)
        if all(_accepts(verdict, PeriodicTrace(period, p)) for p in trace_class):
            rotations = {(pattern << t | pattern >> period - t) & full for t in range(period)}
            (kept if len(trace_class) == 1 else unchecked).update(rotations)
    passed = kept | unchecked
    units = [u for u in range(period) if gcd(u, period) == 1]
    for q in unchecked:
        members = list(set_bits(q))
        if all(mask_of(period, (u * t % period for t in members)) in passed for u in units):
            kept.add(q)
    return tuple(tuple(q >> r & 1 for r in range(period)) for q in sorted(kept))


@cache
def _cyclic_subgroups(group: FiniteAbelianGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Each cyclic subgroup <g> once, by its least generator g, as the walks along g of its cosets.

    The first walk is <g> itself from 0, step t at t*g, so the generators
    u*g, u a unit mod ord(g), are marked as seen from it. The walk of each
    further coset starts at its least index s, step t at s + t*g. Built
    once per group and process.
    """
    n = group.order
    seen = bytearray(n)
    subgroups = []
    for gi in range(n):
        if seen[gi]:
            continue
        multiples = tuple(group.walk(0, gi))
        for u, i in enumerate(multiples):
            if gcd(u, len(multiples)) == 1:
                seen[i] = 1
        walks, covered = [], bytearray(n)
        for start in range(n):
            if not covered[start]:
                walk = tuple(group.add_index(start, m) for m in multiples) if walks else multiples
                for i in walk:
                    covered[i] = 1
                walks.append(walk)
        subgroups.append(tuple(walks))
    return tuple(subgroups)


def theorem1_bits(
    group: FiniteAbelianGroup, columns: Sequence[int], count: int, closed: Mapping[int, Sequence[tuple[int, ...]]]
) -> int:
    """Bit k is set iff every trace of the subset in bit k of the columns is accepted.

    As in verify_theorem1, every member x and every g are read, g = 0
    included. The members of one coset of <g> read rotations of one pattern
    Q, the coset's columns along the walk, and a generator u*g of <g> reads
    Q at u*t. So each cyclic subgroup and each of its cosets is walked once,
    along the least generator, and a coset passes where its columns match
    one of the patterns closed[ord(g)] exactly (closed_traces). A subgroup
    whose table holds all 2**ord(g) patterns passes every coset and is not
    read; under decompose_trace's verdicts only <0> is one.

    Each column is complemented once per call, within the `count` bits, and
    each match is an AND down from those bits, so every word stays
    nonnegative and column bits at or above `count` never reach the result.
    """
    full = (1 << count) - 1
    # (missing, member) of each column
    sides = [(full ^ column, column) for column in columns]
    bad = 0
    for walks in _cyclic_subgroups(group):
        patterns = closed[len(walks[0])]
        if len(patterns) == 1 << len(walks[0]):
            continue
        for walk in walks:
            pairs = [sides[i] for i in walk]
            ok = 0
            for bits in patterns:
                match = full
                for pair, bit in zip(pairs, bits):
                    match &= pair[bit]
                ok |= match
            bad |= full ^ ok
    return full ^ bad


def decompose_periodic(
    group: FiniteAbelianGroup, subset: GroupSubset, x: GroupElement | None = None
) -> PeriodicDecomposition:
    """Split X as (X - x) + x with X - x a subgroup of odd index, x by default the least member.

    For midconvex X this succeeds and the subgroup does not depend on the
    choice of the base point; otherwise NotMidconvex reports the reason.
    """
    if not subset.mask:
        raise ValueError("cannot decompose the empty set")
    if x is None:
        x = group.element_at(least_index(subset.mask))
    if x not in subset:
        raise ValueError("decomposition base point must be a member")
    shifted = group.translate_mask(subset.mask, group.scale_index(group.index_of(x), -1))
    candidate = GroupSubset(group, shifted)
    if not is_subgroup(candidate):
        raise NotMidconvex("X - x is not a subgroup")
    if candidate.index % 2 == 0:
        raise NotMidconvex(f"X - x has even index {candidate.index}")
    return PeriodicDecomposition(candidate, x)


def lemma1_holds_in_group(
    group: FiniteAbelianGroup, subset: GroupSubset, x: GroupElement, y: GroupElement
) -> bool:
    """Order-convexity of the trace at the member x along y - x, lifted over two periods.

    The trace of a finite-group set is periodic; the periodic set it denotes
    is order-convex in the integers only when it is everything, and a window
    of two periods is wide enough to exhibit any gap.
    """
    xi, yi = group.index_of(x), group.index_of(y)
    if xi == yi:
        raise ValueError("lemma check needs two distinct members")
    gi = group.add_index(yi, group.scale_index(xi, -1))
    trace = _trace(group, subset.mask, xi, gi)
    return is_order_convex(trace.mask | trace.mask << trace.period)


def lemma1_failures(group: FiniteAbelianGroup, columns: Sequence[int], within: int) -> int:
    """Bit k is set iff subset k, among the bits of within, fails lemma1_holds_in_group at some pair of members.

    The two-period lift of the trace at x along g = y - x holds bits 0 and
    ord(g), so it is order-convex exactly when the trace is full, that is when
    the subset holds the whole coset x + <g>. Each column is read masked to
    within. Each cyclic subgroup and coset is walked once, along the least
    generator g: the subsets holding the coset are the AND of its columns,
    and those holding two steps t and t + u, u a unit mod ord(g), but not the
    whole coset fail. A step u pairs the same members as ord(g) - u, so only
    the units up to ord(g) / 2 are read, each as one pass of ANDs of the
    walk's columns against their rotation by u. A coset where no subset
    holds two members without the whole is skipped. The trivial subgroup
    has no unit step (x != y is never a step along 0) and is not read.

    Every column is masked once per call, and the AND of a coset starts from
    within, so every word stays nonnegative. From period 2 on, a subset
    holding the whole coset holds two of its members, so the whole lies
    inside the OR of the steps, and XOR takes it out.
    """
    masked = [column & within for column in columns]
    bad = 0
    for walks in _cyclic_subgroups(group):
        period = len(walks[0])
        units = [u for u in range(1, period // 2 + 1) if gcd(u, period) == 1]
        if not units:
            continue
        for walk in walks:
            cols = [masked[i] for i in walk]
            one = two = 0
            whole = within
            for column in cols:
                two |= one & column
                one |= column
                whole &= column
            if two == whole:
                continue
            reached = 0
            for u in units:
                reached |= reduce(or_, map(and_, cols, cols[u:] + cols[:u]))
            bad |= reached ^ whole
    return bad


# -- subgroups of the rationals ------------------------------------------


def _described_range(
    description: RationalMidconvexDescription, x: Fraction, g: Fraction
) -> tuple[int, int, int | None, int | None] | None:
    """The k with x + k*g in the described set, as (r, m, first, last); None when there are none.

    Over one common denominator D, x - base = A/D and g = B/D. So x + k*g
    lies in H + base iff (A + k*B)/D lies in H, that is iff the subgroup's
    `modulus` w of D divides A + k*B: k = r modulo m = w/gcd(B, w), or no k.
    first and last are the class's extreme members in the interval's lattice
    cut, None on an unbounded side.
    """
    sub, interval = description.subgroup, description.interval
    a = x - description.base
    d = lcm(a.denominator, g.denominator)
    big_a, big_b = a.numerator * (d // a.denominator), g.numerator * (d // g.denominator)
    w = sub.modulus(d)
    c = gcd(big_b, w)
    if big_a % c:
        return None
    m = w // c
    r = -(big_a // c) * pow(big_b // c, -1, m) % m
    lo, hi = interval.lattice_cut(x, g)
    first = None if lo is None else lo + (r - lo) % m
    last = None if hi is None else hi - (hi - r) % m
    return None if None not in (first, last) and first > last else (r, m, first, last)


def lattice_trace(
    members: RationalMidconvexDescription | Iterable[Rational],
    x: Fraction,
    g: Fraction,
) -> RationalMidconvexDescription | IntWindowSet:
    """The whole trace {k : x + k*g in X} of a described or finite set.

    A described set's trace is Theorem 1's C ∩ H, read in closed form by
    `_described_range` and returned as a description over Z based at the
    member nearest r. A finite set's trace is every integer k = (p - x)/g,
    shown on the span of 0 and its members.
    """
    if g == 0:
        raise ValueError("trace direction must be nonzero")
    x, g = Fraction(x), Fraction(g)
    if isinstance(members, RationalMidconvexDescription):
        reading = _described_range(members, x, g)
        if reading is None:
            return IntWindowSet(0, 0, ())
        r, m, first, last = reading
        base = min(max(r, -inf if first is None else first), inf if last is None else last)
        return RationalMidconvexDescription(QIntervalSpec(first, last), RationalGroupDescriptor(m), base)
    ks = ((p - x) / g for p in members)
    inside = sorted({k.numerator for k in ks if k.denominator == 1})
    return IntWindowSet(min(inside[:1] + [0]), max(inside[-1:] + [0]), tuple(inside))


def _missing_midpoints(group: RationalGroupDescriptor, nums: Sequence[int], den: int):
    """Each (a, b, s) with a < b points, numerators over den, whose midpoint s/(2*den) is missing.

    nums ascend without repeats; s = a + b, and the midpoint is missing when
    it lies in the group, that is when the group's `modulus` of 2*den divides
    s, but is not a point. Pairs are scanned in increasing order; a = b never
    gives one, as the midpoint is a. An odd s has its midpoint off the den
    lattice, so not a point; an even one is the point s/2 over den when that
    is listed.
    """
    members = set(nums)
    w = group.modulus(2 * den)
    for i, a in enumerate(nums):
        for b in nums[i + 1 :]:
            s = a + b
            if not s % w and (s & 1 or s >> 1 not in members):
                yield a, b, s


def _finite_closure(
    group: RationalGroupDescriptor, points: Iterable[Rational]
) -> tuple[list[int], int, RationalMidconvexDescription | None]:
    """(nums, den, closure): the distinct points as ascending numerators over den, and their rational_closure.

    den is the least common denominator, and each point is read by its
    numerator and denominator, so an int builds no Fraction. The closure's
    base and ends are the least and greatest numerator over den, and the span
    of X - min X is the gcd of consecutive differences over den. X lies in the
    group exactly when its base and span do; two_pure_closure rejects the span.
    """
    points = list(points)
    den = lcm(*{p.denominator for p in points})
    nums = sorted({p.numerator * (den // p.denominator) for p in points})
    if not nums:
        return nums, den, None
    base = Fraction(nums[0], den)
    if not group.contains(base):
        raise ValueError(f"point {base} is not in the ambient group {group}")
    span = gcd(*map(sub, nums[1:], nums))
    # a singleton's order interval already pins the set to the base point
    h = two_pure_closure(RationalGroupDescriptor(Fraction(span, den)), group) if span else group
    return nums, den, RationalMidconvexDescription(QIntervalSpec(base, Fraction(nums[-1], den)), h, base)


def _finite_witness(
    group: RationalGroupDescriptor, nums: Sequence[int], den: int, closure: RationalMidconvexDescription | None
) -> tuple[Fraction, Fraction, Fraction] | None:
    """The first violating (x, y, z) of `_missing_midpoints`, scanned for only when Theorem 3 rejects X.

    The closure contains X, so X is midconvex exactly when the closure is
    finite with |X| members, counted from its lattice cut without listing.
    """
    if closure is None:
        return None
    cut = _finite_cut(closure)
    if cut is not None and cut[1] - cut[0] + 1 == len(nums):
        return None
    for a, b, s in _missing_midpoints(group, nums, den):
        return Fraction(a, den), Fraction(b, den), Fraction(s, 2 * den)
    return None


def is_midconvex_q_finite(
    group: RationalGroupDescriptor, points: Iterable[Rational]
) -> tuple[Fraction, Fraction, Fraction] | None:
    """The first violating (x, y, z) of a finite set of members of a rational group, or None.

    Decided by Theorem 3 in linear time; pairs are scanned only for a witness.
    """
    return _finite_witness(group, *_finite_closure(group, points))


def rational_closure(
    group: RationalGroupDescriptor, points: Iterable[Rational]
) -> RationalMidconvexDescription | None:
    """Least midconvex superset of a finite set of members of a rational group; None for the empty set.

    With x = min X and H the two-pure closure of the span <X - x>, it is
    K = hull(X) ∩ (H + x). K contains X, and it is midconvex by the "if"
    direction of Theorem 3, since G/H has no element of even order. By the
    "only if" direction any midconvex Y ⊇ X is C' ∩ (H' + x) with C' ⊇ hull(X)
    and G/H' free of even-order elements, for any subgroup H' of G, whether a
    descriptor or not. Such an H' contains the span, and as 2g in H' forces g
    in H', also the 2-isolator {g : 2^k g in <X - x> for some k}. That is what
    two_pure_closure returns: span * Z[1/2] when 2 is inverted in G, else
    span / 2^v * Z with 2^v the power of 2 in span / gen(G). So K ⊆ Y.
    """
    return _finite_closure(group, points)[2]


def _finite_cut(description: RationalMidconvexDescription) -> tuple[int, int] | None:
    """The first and last k of the members base + k*gen of a described set; None if it is infinite."""
    lower, upper = description.interval.lower, description.interval.upper
    if lower is None or upper is None or (description.subgroup.primes and lower != upper):
        return None
    # every k gives a point of H + base, so the interval's cut alone decides
    return description.interval.lattice_cut(description.base, description.subgroup.gen)


def described_members(description: RationalMidconvexDescription) -> tuple[Fraction, ...] | None:
    """Members of a described set in order, None if infinite; CapExceeded past _LATTICE_CAP."""
    cut = _finite_cut(description)
    if cut is None:
        return None
    first, last = cut
    if last - first + 1 > _LATTICE_CAP:
        raise CapExceeded(f"{last - first + 1} lattice points to list, cap is {_LATTICE_CAP}")
    base, step = description.base, description.subgroup.gen
    return tuple(base + k * step for k in range(first, last + 1))


def decompose_rational(
    group: RationalGroupDescriptor,
    description: RationalMidconvexDescription,
    x: Rational,
    x2: Rational,
    depth: int,
    window: Rational,
) -> RationalMidconvexDescription:
    """Recover the interval-and-subgroup form of a described midconvex set.

    Cuts the set once to the window [x - window, x + window], which must
    cover x2, an end closed exactly when the interval holds it, and reads
    the cut on each lattice x + k*g of the chain of cyclic groups seeded
    with {x, x2}. Every level's step g is M*G, M an integer, with G the
    deepest step, so the cut is read once, on x + j*G, by
    `_described_range`: the multiples of mod from lo to hi (x is a member,
    so its residue is 0). On the level of g = M*G it is the k with k*M
    among them, the multiples of m = mod/gcd(M, mod), so Theorem 1 reads
    each level in closed form, in integers in units of G (`_levels`): its
    step m must be odd, m*g generates the level's subgroup, and its first
    and last member, the multiples of M*m next inside lo and hi, are the
    level's ends. The chain refines each level by one prime, or by 1, so
    each M divides the M before it, and M*m = lcm(M, mod) divides the one
    before: the subgroup grows and the ends widen by construction, and only
    an even step rejects. An inverted prime of the ambient group joins the
    recovered subgroup H exactly when its latest refinement, the prime
    M_prev/M, enlarged it. Fractions are built only for the result and for
    NotMidconvex's reason.

    A discrete H keeps the deepest level's ends, both closed. When H inverts
    a prime, x + H is dense, so the level ends converge to those of the cut,
    and C is the cut. For a two-pure description H is the description's
    subgroup, so the report equals the input on the window.
    """
    x, x2 = Fraction(x), Fraction(x2)
    if x >= x2:
        raise ValueError("need two base points with x < x2")
    if not (description.contains(x) and description.contains(x2)):
        raise ValueError("base points must be members of the set")
    radius = Fraction(window)
    if radius < x2 - x:
        raise ValueError(f"window radius {radius} does not cover x2 - x = {x2 - x}")
    cut = description.interval
    lower = x - radius if cut.lower is None else max(cut.lower, x - radius)
    upper = x + radius if cut.upper is None else min(cut.upper, x + radius)
    window = QIntervalSpec(lower, upper, cut.contains(lower), cut.contains(upper))
    bounded = RationalMidconvexDescription(window, description.subgroup, x)

    chain = cyclic_chain(group, (x, x2), depth)
    big_g = chain[-1]
    _, mod, lo, hi = _described_range(bounded, x, big_g)
    grew_last: dict[int, bool] = {}
    prev_m = prev_unit = 0

    for step, (g, (big_m, m, unit, first, last)) in enumerate(zip(chain, _levels(chain, mod, lo, hi))):
        if m % 2 == 0:
            raise NotMidconvex(
                f"level {step} (lattice step {g}): minimal nonzero trace element {m} is even"
            )
        if step > 0:
            # the chain refines each level by one inverted prime, or by 1 when it has none
            grew_last[prev_m // big_m] = prev_unit > unit
        prev_m, prev_unit = big_m, unit

    recovered = RationalGroupDescriptor(big_g * unit, frozenset(p for p, grew in grew_last.items() if grew))
    interval = window if recovered.primes else QIntervalSpec(x + big_g * first, x + big_g * last)
    return RationalMidconvexDescription(interval, recovered, base=x)


def _levels(chain: Sequence[Fraction], mod: int, lo: int, hi: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Each level of the chain as (M, m, unit, first, last), in units of its deepest step G.

    The level's step is M*G, and the cut's members on x + j*G are the j in
    [lo, hi] divisible by mod, so the level's are the multiples of
    unit = M*m, m = mod/gcd(M, mod), from first, the least at or above lo,
    to last, the greatest at or below hi.
    """
    big_g = chain[-1]
    for g in chain:
        big_m = g.numerator * big_g.denominator // (g.denominator * big_g.numerator)
        m = mod // gcd(big_m, mod)
        unit = big_m * m
        yield big_m, m, unit, -(-lo // unit) * unit, hi // unit * unit


def _draw_numerators(
    rng: random.Random,
    subgroup: RationalGroupDescriptor,
    interval: QIntervalSpec,
    base: Fraction,
    count: int,
) -> tuple[list[int], int]:
    """The lattice draw in integers: numerators t over L of points base + t * gen / L.

    L = prod p**_DRAW_EXPONENTS over the subgroup's inverted primes. Each
    attempt draws den = prod p**e, each e in turn from 0.._DRAW_EXPONENTS, so
    that den divides L; then num with |num| <= _DRAW_NUMERATORS clipped to
    the interval, and keeps t = num * L/den. With the interval's ends
    measured from the base in units of gen, as the fractions u/v below and
    above it, the clipping is the integer floor division of u * den by v; it
    is worked out once per den in a call.

    Each draw of a value in lo..hi is `Random.randint(lo, hi)`'s own
    `_randbelow` rejection stream, read straight from `rng.getrandbits`:
    getrandbits(k), k the bit length of the width hi - lo + 1, until the value
    is below the width (a width of 1 still takes at least one word). Each raw
    word is read through a table: an exponent's through _EXPONENT_DRAWS, as
    the power p**e of its prime, and a numerator's through the table of its
    den's clip window (lo, hi, and whether an open end drops each), which
    maps it to lo + r, to a skip where an open end drops the point, or to
    None, draw again, at or past the width. Dens that clip alike share a
    table, and the scale L/den is multiplied once per kept point.

    A subgroup that inverts no prime has L = 1 and den = 1 on every attempt,
    so its draw reads numerator words alone, from the one clip window, and
    no word when that window is empty. It reads them a block at a time:
    every attempt reads at least one word and keeps at most one point, so
    the randint loop would read at least n = min(points still wanted,
    attempts left) more words, and one getrandbits(32n) reads exactly
    those. CPython fills it one 32-bit word at a time from the least
    significant end, and getrandbits(k) is a word's top k bits; the width
    is at most 2*_DRAW_NUMERATORS + 1, so k <= 8 and each draw is its
    word's top byte shifted right by 8 - k. One bytes.translate through
    _BYTE_SHIFTS deletes the redraws, whatever is left counts as an
    attempt, and a second deletes the open-end drops and maps r to lo + r
    mod 256, read back as a signed byte.

    The drawn points and the generator's state after the draw are those of
    the randint draw; the tests check this on each CPython from 3.10 to 3.13
    that is installed.
    """
    primes = sorted(subgroup.primes)
    big_l = prod(p**_DRAW_EXPONENTS for p in primes)
    e_bits = (_DRAW_EXPONENTS + 1).bit_length()
    # a raw word as the power p**e it draws, 0 to draw again
    powers = [[0 if e is None else p**e for e in _EXPONENT_DRAWS] for p in primes]
    below = None if interval.lower is None else (base - interval.lower) / subgroup.gen
    above = None if interval.upper is None else (interval.upper - base) / subgroup.gen
    skip = object()
    tables: dict[tuple[int, int, bool, bool], tuple[list, int]] = {}

    def clip(den: int) -> tuple[int, int, bool, bool] | None:
        """den's clip window: lo, hi, and whether an open end drops each; None when it is empty."""
        lo, hi, drop_lo, drop_hi = -_DRAW_NUMERATORS, _DRAW_NUMERATORS, False, False
        if below is not None:
            q, r = divmod(below.numerator * den, below.denominator)
            if -q >= lo:
                lo, drop_lo = -q, not r and not interval.lower_closed
        if above is not None:
            q, r = divmod(above.numerator * den, above.denominator)
            if q <= hi:
                hi, drop_hi = q, not r and not interval.upper_closed
        return (lo, hi, drop_lo, drop_hi) if lo <= hi else None

    def plan(den: int) -> tuple[list | None, int, int]:
        """The value table of den's clip window, its word's bit length, and L/den."""
        window = clip(den)
        if window is None:
            return None, 0, 0
        if window not in tables:
            lo, hi, drop_lo, drop_hi = window
            width = hi - lo + 1
            bits = width.bit_length()
            values: list = [*range(lo, hi + 1), *[None] * ((1 << bits) - width)]
            # clipped, the point lies in the closed interval; an open end drops the point on it
            if drop_lo:
                values[0] = skip
            if drop_hi:
                values[width - 1] = skip
            tables[window] = values, bits
        return (*tables[window], big_l // den)

    getrandbits = rng.getrandbits
    nums: list[int] = []
    if not primes:
        window = clip(1)
        if window is None:
            return nums, big_l
        lo, hi, drop_lo, drop_hi = window
        width = hi - lo + 1
        shift = 8 - width.bit_length()
        redraws = bytes(range(width << shift, 256))
        drops = bytes([0] * drop_lo + [width - 1] * drop_hi)
        rotation = bytes(range(lo % 256, 256)) + bytes(range(lo % 256))
        attempts = 0
        while n := min(count - len(nums), 100 * count - attempts):
            draws = getrandbits(32 * n).to_bytes(4 * n, "little")[3::4].translate(_BYTE_SHIFTS[shift], redraws)
            attempts += len(draws)
            nums += array("b", draws.translate(rotation, drops)).tolist()
        return nums, big_l
    plans: dict[int, tuple[list | None, int, int]] = {}
    for _ in range(100 * count):
        den = 1
        for table in powers:
            d = table[getrandbits(e_bits)]
            while not d:
                d = table[getrandbits(e_bits)]
            den *= d
        if den not in plans:
            plans[den] = plan(den)
        values, bits, scale = plans[den]
        if values is None:
            continue
        v = values[getrandbits(bits)]
        while v is None:
            v = values[getrandbits(bits)]
        if v is not skip:
            nums.append(v * scale)
            if len(nums) == count:
                break
    return nums, big_l


def draw_lattice_points(
    rng: random.Random,
    subgroup: RationalGroupDescriptor,
    interval: QIntervalSpec,
    base: Fraction,
    count: int,
) -> list[Fraction]:
    """Sample points base + num * gen / den of (subgroup + base) inside the interval.

    den is a product of the inverted primes with exponents up to
    _DRAW_EXPONENTS, and |num| <= _DRAW_NUMERATORS is clipped to the
    interval. The draw is `_draw_numerators`, which holds each point as an
    integer t over one L; one Fraction is built per returned point.
    """
    nums, big_l = _draw_numerators(rng, subgroup, interval, base, count)
    base_num, base_den = base.numerator, base.denominator
    gen_num, gen_den = subgroup.gen.numerator, subgroup.gen.denominator
    scale = big_l * gen_den
    return [Fraction(base_num * scale + t * gen_num * base_den, base_den * scale) for t in nums]


def _sampled_violation(
    description: RationalMidconvexDescription,
    group: RationalGroupDescriptor,
    samples: int,
    seed: int,
) -> tuple[Fraction, Fraction, Fraction] | None:
    """The sampler's scan, for any description: the first drawn pair whose midpoint is missing.

    Pair i is points 2i and 2i + 1 of the `_draw_numerators` draw, cycled
    when it returns fewer; the pair sums are read in one pass, and the draw
    is indexed only to report a violating pair.
    With base = bn/m and the subgroup's generator
    h = hn/m over one m, a point is base + h*t/L, so a midpoint is
    c = (2L*bn + hn*s)/(2L*m), s the sum of the two numerators. Each test on
    it is one in integers: c is in the group, and c - base = hn*s/(2L*m) in
    the subgroup, when the `modulus` of each at 2L*m divides its numerator;
    c = base + s*h/2L is in the interval when s lies in the interval's lattice
    cut along h/2L. A missing midpoint is one in the group but not in the
    set; Fractions are built only for it.

    The two divisibility tests read s only by its residue class: w divides
    hn*s - hn*s' exactly when w/gcd(hn, w) divides s - s', so the group's
    test reads s modulo m1 = in_group/gcd(hn, in_group), the subgroup's
    modulo m2 = in_sub/gcd(hn, in_sub), and both modulo lcm(m1, m2). When
    every sum lies in the cut, a pair is a violation exactly when the
    residue of its sum fails the tests, so the distinct residues decide the
    whole sample: if none fails, there is no violation. Only when a residue
    fails or a sum leaves the cut are the pairs scanned in order, so the
    pair reported is the first violating one. A period of 1 has the one
    residue 0, and is read without a pass over the sums. The least sum is
    read only when the cut has a lower end, and the greatest only when it
    has an upper one.
    """
    sub, interval, base = description.subgroup, description.interval, description.base
    nums, big_l = _draw_numerators(random.Random(seed), sub, interval, base, 2 * samples)
    if len(nums) < 2:
        return None
    h = sub.gen
    m = lcm(base.denominator, h.denominator)
    offset = 2 * big_l * base.numerator * (m // base.denominator)
    hn = h.numerator * (m // h.denominator)
    in_group, in_sub = group.modulus(2 * big_l * m), sub.modulus(2 * big_l * m)
    lo, hi = interval.lattice_cut(base, h / (2 * big_l))
    if len(nums) == 2 * samples:
        sums = list(map(add, nums[0::2], nums[1::2]))
    else:
        points = islice(cycle(nums), 2 * samples)
        sums = list(map(add, points, points))
    period = lcm(in_group // gcd(hn, in_group), in_sub // gcd(hn, in_sub))
    residues = {0} if period == 1 else set(map(mod, sums, repeat(period)))
    if (lo is None or lo <= min(sums)) and (hi is None or max(sums) <= hi) and not any(
        not (offset + hn * r) % in_group and (hn * r) % in_sub for r in residues
    ):
        return None
    s_lo, s_hi = -inf if lo is None else lo, inf if hi is None else hi
    for i, s in enumerate(sums):
        hs = hn * s
        if not (offset + hs) % in_group and (hs % in_sub or not s_lo <= s <= s_hi):
            n = len(nums)
            a, b = (base + h * Fraction(nums[j % n], big_l) for j in (2 * i, 2 * i + 1))
            return a, b, (a + b) / 2
    return None


def theorem3_if_violation(
    description: RationalMidconvexDescription,
    group: RationalGroupDescriptor,
    samples: int,
    seed: int,
) -> tuple[Fraction, Fraction, Fraction] | None:
    """Random search for a midconvexity violation of a described set.

    The description must have a two-pure subgroup, which certifies that no
    violation exists; the sampler is the differential check of that argument.
    Draws pairs (a, b) of members and, whenever (a+b)/2 lands in the ambient
    group, asserts that it is again a member; `_sampled_violation` does
    this in integers. Deterministic for a fixed seed.
    """
    if not is_two_pure(description.subgroup, group):
        raise ValueError("description subgroup is not two-pure in the ambient group")
    return _sampled_violation(description, group, samples, seed)


def _least_denominator(primes: Iterable[int], least: int) -> int | None:
    """Least product of the primes that is at least `least`; None if there is none.

    Some power of the least prime p is one, so the answer is d * p**e for a
    product d of the other primes up to that power, with e the least exponent
    that is enough for d.
    """
    if least <= 1:
        return 1
    if not primes:
        return None
    p, *others = sorted(primes)
    powers = [1]
    while powers[-1] < least:
        powers.append(powers[-1] * p)
    products = [1]
    for q in others:
        grown = []
        for d in products:
            while d <= powers[-1]:
                grown.append(d)
                d *= q
        products = grown
    return min(d * powers[bisect_left(powers, -(-least // d))] for d in products)


def _probe_members(description: RationalMidconvexDescription, around: Fraction):
    """The coarsest members around ± gen/den of the description, one per side.

    `around` must be a member. Then around ± gen/den lies in the coset for
    every product den of the subgroup's inverted primes, so on each side the
    coarsest member has the least den with gen/den within the distance to
    that end of the interval, strictly when the end is open; an unbounded
    side has den = 1. The interval is convex, so a member at around ± t*gen/den
    with t > 1 makes around ± gen/den a member too. The side with the smaller
    den comes first, + before - on a tie: the first hit is the coarsest
    neighbour of `around`.
    """
    sub, interval = description.subgroup, description.interval
    sides = []
    ends = ((1, interval.upper, interval.upper_closed), (-1, interval.lower, interval.lower_closed))
    for sign, end, closed in ends:
        if end is None:
            den = 1
        elif end == around:
            continue
        else:
            # gen/den must be at most the distance to a closed end, below it at an open one
            bound = sub.gen / abs(end - around)
            den = _least_denominator(sub.primes, ceil(bound) if closed else floor(bound) + 1)
        if den is not None:
            # on a tie the + side, keyed False, sorts first
            sides.append((den, sign < 0, around + sign * sub.gen / den))
    for _, _, r in sorted(sides):
        yield r


def described_midconvex_witness(
    description: RationalMidconvexDescription, group: RationalGroupDescriptor
) -> tuple[Fraction, Fraction, Fraction] | None:
    """Witness that a described set is not midconvex, or None when it is.

    With a two-pure subgroup the set is midconvex outright. Otherwise the
    witness pairs the base with its coarsest neighbour, the first hit of
    `_probe_members`, and their midpoint lies in the ambient group but not
    in the set; without a neighbour the set is a single point.
    """
    description.validate_ambient(group)
    if is_two_pure(description.subgroup, group):
        return None
    base = description.base
    for r in _probe_members(description, base):
        # an impure subgroup does not invert 2, so r - base = ±gen/den with den
        # odd, and the midpoint base ± gen/(2 den) is off the subgroup lattice
        c = (base + r) / 2
        if group.contains(c) and not description.contains(c):
            return (base, r, c) if r > base else (r, base, c)
    return None


def decompose_rational_set(
    group: RationalGroupDescriptor,
    members: RationalMidconvexDescription | Iterable[Rational],
    x: Rational | None = None,
) -> RationalDecomposition:
    """Decide and decompose a described set or a finite set of rationals.

    The set is decided exactly first; a set that is not midconvex raises
    NotMidconvex carrying the violating triple. A finite set is read once,
    in integers with its `rational_closure`, decided by Theorem 3 as in
    is_midconvex_q_finite, and then read as that closure, which it equals.
    The base `x` (by default the description's base, the least point of a
    finite set) must be a member; the lower of it and its coarsest
    neighbour, the first hit of `_probe_members`, becomes the base of
    `decompose_rational`. That runs at depth 3 * max(1, |P|) on the window
    [x - r, x + r], r one subgroup step more than the distance to the
    farther finite end of the set, or one step when it has none. So only an
    unbounded side reaches the window's edge, and it is reported as
    unbounded; a finite end comes back exact, with its closedness. A set
    without a second point is the singleton [x, x].
    """
    if isinstance(members, RationalMidconvexDescription):
        description, witness = members, described_midconvex_witness(members, group)
    else:
        nums, den, description = _finite_closure(group, members)
        if description is None:
            raise ValueError("cannot decompose the empty set")
        witness = _finite_witness(group, nums, den, description)
    if witness is not None:
        a, b, c = witness
        raise NotMidconvex(f"midpoint {c} of {a} and {b} is missing", witness=witness)
    x = description.base if x is None else Fraction(x)
    if not description.contains(x):
        raise ValueError(f"base point {x} is not a member")
    second = next(_probe_members(description, x), None)
    if second is None:
        return RationalDecomposition(RationalMidconvexDescription(QIntervalSpec(x, x), group, x))
    base, x2 = min(x, second), max(x, second)
    lo, hi, step = description.interval.lower, description.interval.upper, description.subgroup.gen
    radius = max(0 if hi is None else hi - base, 0 if lo is None else base - lo) + step
    depth = 3 * max(1, len(group.primes))
    recovered = decompose_rational(group, description, base, x2, depth, radius)
    cut = recovered.interval
    ends = (None if lo is None else cut.lower, None if hi is None else cut.upper)
    interval = QIntervalSpec(*ends, cut.lower_closed, cut.upper_closed)
    reported = RationalMidconvexDescription(interval, recovered.subgroup, base)
    return RationalDecomposition(reported, depth)
