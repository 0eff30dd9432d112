"""Midconvexity predicate, closure operator, and the decomposition pipelines.

A set X in an Abelian group is midconvex when for all members x, y every z
with 2z = x + y is again a member. Depending on 2-torsion the halving set of
x + y can be empty, a single point, or several points, so the predicate
deliberately includes the x = y pairs; dropping them is wrong in groups with
2-torsion.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import compress, count
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, inf, lcm, prod
from operator import sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import CapExceeded, NotMidconvex, NotMidconvexTrace
from .groups import (
    FiniteAbelianGroup, GroupElement, GroupSubset, bit_reader, is_subgroup, least_index, mask_of,
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

# Subgroup steps that a decomposition window reaches on an unbounded side.
_UNBOUNDED_REACH = 64
# Bounds of the random lattice draws gen * num / den: |num| <= _DRAW_NUMERATORS,
# den a product of the inverted primes with exponents up to _DRAW_EXPONENTS.
_DRAW_NUMERATORS = 50
_DRAW_EXPONENTS = 4
# Most members that described_members lists.
_LATTICE_CAP = 500_000


@dataclass(frozen=True)
class RationalDecomposition:
    """A recovered description with the refinement depth and the radius of the one window cut.

    Both are None for a singleton, which is described without refinement.
    """

    description: RationalMidconvexDescription
    depth: int | None = None
    radius: Fraction | None = None


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

    One pass decides all `count` subsets at once: sums[s] holds the subsets
    with two members, equal ones included, adding up to s, and a subset
    fails exactly where it reaches some 2z without containing z.
    """
    n = group.order
    sums = [0] * n
    for i in range(n):
        for j in range(i, n):
            s = group.add_index(i, j)
            sums[s] |= columns[i] & columns[j]
    bad = 0
    for z in range(n):
        bad |= sums[group.add_index(z, z)] & ~columns[z]
    return ((1 << count) - 1) & ~bad


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
    shifted = group.translate_mask(subset.mask, group.neg_index(xi))
    h = subgroup_generated(GroupSubset(group, shifted) | sylow2_subgroup(group))
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
    """Residues n mod ord(g) with x + n*g in X, as a periodic trace."""
    return _trace(group, subset.mask, group.index_of(x), group.index_of(g))


def verify_theorem1(group: FiniteAbelianGroup, subset: GroupSubset) -> bool:
    """True iff every trace of the set decomposes; equals is_midconvex."""
    return all(_accepts(_trace(group, subset.mask, xi, gi)) for xi in subset.indices() for gi in range(group.order))


def _accepts(trace: PeriodicTrace) -> bool:
    """True iff decompose_trace accepts the trace."""
    try:
        decompose_trace(trace)
    except NotMidconvexTrace:
        return False
    return True


def closed_traces(period: int, exhaustive: bool) -> list[tuple[int, ...]]:
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
    """
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
        if all(_accepts(PeriodicTrace(period, p)) for p in trace_class):
            rotations = {(pattern << t | pattern >> period - t) & full for t in range(period)}
            (kept if len(trace_class) == 1 else unchecked).update(rotations)
    passed = kept | unchecked
    units = [u for u in range(period) if gcd(u, period) == 1]
    for q in unchecked:
        members = list(set_bits(q))
        if all(mask_of(period, (u * t % period for t in members)) in passed for u in units):
            kept.add(q)
    return [tuple(q >> r & 1 for r in range(period)) for q in sorted(kept)]


def _cyclic_subgroups(group: FiniteAbelianGroup) -> Iterator[list[list[int]]]:
    """Each cyclic subgroup <g> once, by its least generator g, as the walks along g of its cosets.

    The first walk is <g> itself from 0, step t at t*g, so the generators
    u*g, u a unit mod ord(g), are marked as seen from it. The walk of each
    further coset starts at its least index s, step t at s + t*g.
    """
    n = group.order
    seen = bytearray(n)
    for gi in range(n):
        if seen[gi]:
            continue
        multiples = list(group.walk(0, gi))
        for u, i in enumerate(multiples):
            if gcd(u, len(multiples)) == 1:
                seen[i] = 1
        walks, covered = [], bytearray(n)
        for start in range(n):
            if not covered[start]:
                walk = [group.add_index(start, m) for m in multiples] if walks else multiples
                for i in walk:
                    covered[i] = 1
                walks.append(walk)
        yield walks


def theorem1_bits(
    group: FiniteAbelianGroup, columns: Sequence[int], count: int, closed: Mapping[int, Sequence[tuple[int, ...]]]
) -> int:
    """Bit k is set iff every trace of the subset in bit k of the columns is accepted.

    As in verify_theorem1, every member x and every g are read, g = 0
    included. The members of one coset of <g> read rotations of one pattern
    Q, the coset's columns along the walk, and a generator u*g of <g> reads
    Q at u*t. So each cyclic subgroup and each of its cosets is walked once,
    along the least generator, and a coset passes where its columns match
    one of the patterns closed[ord(g)] exactly (closed_traces).
    """
    bad = 0
    for walks in _cyclic_subgroups(group):
        patterns = closed[len(walks[0])]
        for walk in walks:
            # (missing, member) columns of the coset, in walk order
            pairs = [(~columns[i], columns[i]) for i in walk]
            ok = 0
            for bits in patterns:
                match = -1
                for pair, bit in zip(pairs, bits):
                    match &= pair[bit]
                ok |= match
            bad |= ~ok
    return ((1 << count) - 1) & ~bad


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
    shifted = group.translate_mask(subset.mask, group.neg_index(group.index_of(x)))
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
    gi = group.add_index(yi, group.neg_index(xi))
    trace = _trace(group, subset.mask, xi, gi)
    return is_order_convex(trace.mask | trace.mask << trace.period)


def lemma1_failures(group: FiniteAbelianGroup, columns: Sequence[int], within: int) -> list[tuple[int, int, int]]:
    """Sorted (k, x, y), subset k among the bits of within, where lemma1_holds_in_group fails.

    The two-period lift of the trace at x along g = y - x holds bits 0 and
    ord(g), so it is order-convex exactly when the trace is full, that is when
    the subset holds the whole coset x + <g>. Each column is read masked to
    within. Each cyclic subgroup and coset is walked once, along the least
    generator g: the subsets holding the coset are the AND of its columns,
    and those holding two steps t and t + u, u a unit mod ord(g), but not the
    whole coset fail. A coset where no subset holds two members without the
    whole is skipped.
    """
    if not within:
        return []
    failures = []
    for walks in _cyclic_subgroups(group):
        period = len(walks[0])
        units = [u for u in range(1, period) if gcd(u, period) == 1]
        for walk in walks:
            cols = [columns[i] & within for i in walk]
            one = two = 0
            whole = -1
            for column in cols:
                two |= one & column
                one |= column
                whole &= column
            if not two & ~whole:
                continue
            for u in units:
                for t, column in enumerate(cols):
                    s = (t + u) % period
                    bad = column & cols[s] & ~whole
                    if bad:
                        failures.extend((k, walk[t], walk[s]) for k in set_bits(bad))
    failures.sort()
    return failures


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
    with {x, x2}. There it is one progression of k through 0 and (x2 - x)/g,
    the reading of `_described_range`, so Theorem 1 reads each level in
    closed form: its step m must be odd, m*g generates the level's subgroup,
    and its first and last member are the level's ends. Ends and subgroup
    must grow across levels; an inverted prime of the ambient group joins
    the recovered subgroup H exactly when its latest refinement enlarged it.

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
    grew_last: dict[int, bool] = {}
    prev_lower = prev_upper = prev_gen = None

    for step, g in enumerate(chain):
        _, m, first, last = _described_range(bounded, x, g)
        if m % 2 == 0:
            raise NotMidconvex(
                f"level {step} (lattice step {g}): minimal nonzero trace element {m} is even"
            )
        lower, upper, h_gen = x + g * first, x + g * last, m * g
        if step > 0:
            if not (lower <= prev_lower and prev_upper <= upper):
                raise NotMidconvex(
                    f"level {step}: interval [{lower},{upper}] does not extend [{prev_lower},{prev_upper}]"
                )
            ratio = prev_gen / h_gen
            if ratio.denominator != 1 or ratio < 1:
                raise NotMidconvex(
                    f"level {step}: subgroup generated by {h_gen} does not extend {prev_gen}"
                )
            # the chain refines each level by one inverted prime, or by 1 when it has none
            grew_last[(chain[step - 1] / g).numerator] = ratio > 1
        prev_lower, prev_upper, prev_gen = lower, upper, h_gen

    recovered = RationalGroupDescriptor(h_gen, frozenset(p for p, grew in grew_last.items() if grew))
    interval = window if recovered.primes else QIntervalSpec(lower, upper)
    return RationalMidconvexDescription(interval, recovered, base=x)


def _denominators(primes: Iterable[int], max_exponent: int) -> list[int]:
    """Products of the primes with exponents up to max_exponent, the largest prime's fastest."""
    dens = [1]
    for p in sorted(primes):
        dens = [d * p**e for d in dens for e in range(max_exponent + 1)]
    return dens


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
    is below the width (a width of 1 still takes at least one word). The
    drawn points and the generator's state after the draw are those of the
    randint draw. That stream is the same in CPython 3.10 to 3.13 for any
    width of at least 1; 3.11 is the only version checked, and the tests pin
    it there.
    """
    primes = sorted(subgroup.primes)
    big_l = prod(p**_DRAW_EXPONENTS for p in primes)
    powers = [[p**e for e in range(_DRAW_EXPONENTS + 1)] for p in primes]
    below = None if interval.lower is None else (base - interval.lower) / subgroup.gen
    above = None if interval.upper is None else (interval.upper - base) / subgroup.gen

    def plan(den: int) -> tuple[int, int, int, int, tuple[int, ...]]:
        """lo, the width, its bit length, L/den and the open ends' numerators of one den."""
        lo, hi, skip = -_DRAW_NUMERATORS, _DRAW_NUMERATORS, ()
        if below is not None:
            q, r = divmod(below.numerator * den, below.denominator)
            lo = max(lo, -q)
            if not r and not interval.lower_closed:
                skip += (-q,)
        if above is not None:
            q, r = divmod(above.numerator * den, above.denominator)
            hi = min(hi, q)
            if not r and not interval.upper_closed:
                skip += (q,)
        width = max(hi - lo + 1, 0)
        return lo, width, width.bit_length(), big_l // den, skip

    getrandbits = rng.getrandbits
    e_bits = (_DRAW_EXPONENTS + 1).bit_length()
    plans: dict[int, tuple[int, int, int, int, tuple[int, ...]]] = {}
    nums: list[int] = []
    attempts = 0
    while len(nums) < count and attempts < 100 * count:
        attempts += 1
        den = 1
        for table in powers:
            e = getrandbits(e_bits)
            while e > _DRAW_EXPONENTS:
                e = getrandbits(e_bits)
            den *= table[e]
        if den not in plans:
            plans[den] = plan(den)
        lo, width, bits, scale, skip = plans[den]
        if not width:
            continue
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        # clipped, the point lies in the closed interval; an open end drops the point on it
        if lo + r not in skip:
            nums.append((lo + r) * scale)
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
    when it returns fewer. With base = bn/m and the subgroup's generator
    h = hn/m over one m, a point is base + h*t/L, so a midpoint is
    c = (2L*bn + hn*s)/(2L*m), s the sum of the two numerators. Each test on
    it is one in integers: c is in the group, and c - base = hn*s/(2L*m) in
    the subgroup, when the `modulus` of each at 2L*m divides its numerator;
    c = base + s*h/2L is in the interval when s lies in the interval's lattice
    cut along h/2L. A missing midpoint is one in the group but not in the
    set; Fractions are built only for it.
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
    s_lo, s_hi = interval.lattice_cut(base, h / (2 * big_l))
    s_lo, s_hi = -inf if s_lo is None else s_lo, inf if s_hi is None else s_hi
    n = len(nums)
    for i in range(samples):
        ta, tb = nums[2 * i % n], nums[(2 * i + 1) % n]
        s = ta + tb
        hs = hn * s
        if not (offset + hs) % in_group and (hs % in_sub or not s_lo <= s <= s_hi):
            a, b = (base + h * Fraction(t, big_l) for t in (ta, tb))
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
    `decompose_rational`. That runs at depth 3 * max(1, |P|) on a window
    reaching one subgroup step past the farther end of the set, an unbounded
    end counting as _UNBOUNDED_REACH steps away. So only an unbounded side
    reaches the window's edge, and it is reported as unbounded; a finite end
    comes back exact, with its closedness. A set without a second point is
    the singleton [x, x].
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
    far = _UNBOUNDED_REACH * step
    radius = max(far if hi is None else hi - base, far if lo is None else base - lo) + step
    depth = 3 * max(1, len(group.primes))
    recovered = decompose_rational(group, description, base, x2, depth, radius)
    cut = recovered.interval
    ends = (None if lo is None else cut.lower, None if hi is None else cut.upper)
    interval = QIntervalSpec(*ends, cut.lower_closed, cut.upper_closed)
    reported = RationalMidconvexDescription(interval, recovered.subgroup, base)
    return RationalDecomposition(reported, depth, radius)
