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
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, inf, prod
from typing import Iterable, Mapping, Sequence

from .errors import CapExceeded, NotMidconvex, NotMidconvexTrace, WindowTooSmall
from .groups import FiniteAbelianGroup, GroupElement, GroupSubset, is_subgroup, set_bits, subgroup_generated
from .intsets import IntWindowSet, decompose_trace, is_order_convex
from .rationals import (
    QIntervalSpec,
    Rational,
    RationalGroupDescriptor,
    RationalMidconvexDescription,
    cyclic_chain,
    is_two_pure,
    rational_gcd,
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
# Radius of the lattice window that a trace of a rational set is read on.
_TRACE_RADIUS = 64


@dataclass(frozen=True)
class MidconvexWitness:
    """A violating triple: x, y members, 2z = x + y, z not a member."""

    x: GroupElement
    y: GroupElement
    z: GroupElement


@dataclass(frozen=True)
class RationalDecomposition:
    """A recovered description with the refinement depth and window radius used.

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


def _packed(group: FiniteAbelianGroup, mask: int) -> bytes:
    """The mask as packed bytes, the codec's layout: index i is bit i & 7 of byte i >> 3.

    Reading membership there tests one byte; a shift of the |G|-bit mask per
    test would make a scan quadratic in the group order.
    """
    return mask.to_bytes((group.order + 7) >> 3, "little")


def midconvex_witness(group: FiniteAbelianGroup, subset: GroupSubset) -> MidconvexWitness | None:
    """First violating triple in enumeration order, or None when midconvex.

    Each unordered pair is scanned once, as (x, y) with y not before x: the
    pair (y, x) has the same sum and came first. The halves of x + y come in
    ascending index order, so the first one missing is the least.
    """
    packed = _packed(group, subset.mask)
    idxs = list(subset.indices())
    for a, xi in enumerate(idxs):
        for yi in idxs[a:]:
            for zi in group.halving_indices(group.add_index(xi, yi)):
                if not packed[zi >> 3] >> (zi & 7) & 1:
                    return MidconvexWitness(group.element_at(xi), group.element_at(yi), group.element_at(zi))
    return None


def is_midconvex(group: FiniteAbelianGroup, subset: GroupSubset) -> bool:
    return midconvex_witness(group, subset) is None


def subset_columns(group: FiniteAbelianGroup, masks: Sequence[int]) -> list[int]:
    """Bit-sliced membership: bit k of column i is set iff masks[k] contains index i.

    For every subset, range(1 << n), column i is bit i of k: runs of w = 2**i
    zeros and w ones, built by doubling one period of 2w bits up to 2**n bits.
    A list of masks is transposed. The closed form holds no per-subset rows:
    for every subset of Z(20) it takes 3 ms, the transposition about 2.8 s
    and 370 MB (2-vCPU Xeon).
    """
    n = group.order
    if masks == range(1 << n):
        columns = []
        for i in range(n):
            w = 1 << i
            column, width = ((1 << w) - 1) << w, 2 * w
            while width < 1 << n:
                column |= column << width
                width *= 2
            columns.append(column)
        return columns
    if not masks:
        return [0] * n
    # row strings put bit n - 1 first and the last mask on top, so the
    # columns of the zipped rows read highest element and highest k first
    rows = [format(m, f"0{n}b") for m in reversed(masks)]
    return [int("".join(bits), 2) for bits in reversed(list(zip(*rows)))]


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
    xi = (subset.mask & -subset.mask).bit_length() - 1
    shifted = group.translate_mask(subset.mask, group.neg_index(xi))
    # m times the unit of a factor of order 2^a * m, m odd, generates its 2-part (0 if a = 0)
    two_part, stride = [], 1
    for n in reversed(group.orders):
        two_part.append(n // (n & -n) % n * stride)
        stride *= n
    h = subgroup_generated(GroupSubset(group, shifted) | GroupSubset.from_indices(group, two_part))
    return GroupSubset(group, group.translate_mask(h.mask, xi))


def _trace(group: FiniteAbelianGroup, mask: int, xi: int, gi: int) -> IntWindowSet:
    """Trace at index xi along index gi of the set with this mask.

    The walk x, x + g, x + 2g, ... returns to x after ord(g) steps, the period.
    """
    packed = _packed(group, mask)
    if not packed[xi >> 3] >> (xi & 7) & 1:
        raise ValueError("trace base point must be a member")
    residues, n, i = [0], 1, group.add_index(xi, gi)
    while i != xi:
        if packed[i >> 3] >> (i & 7) & 1:
            residues.append(n)
        n, i = n + 1, group.add_index(i, gi)
    return IntWindowSet.from_residues(n, residues)


def trace_in_group(
    group: FiniteAbelianGroup, subset: GroupSubset, x: GroupElement, g: GroupElement
) -> IntWindowSet:
    """Residues n mod ord(g) with x + n*g in X, as a periodic window set."""
    return _trace(group, subset.mask, group.index_of(x), group.index_of(g))


def verify_theorem1(group: FiniteAbelianGroup, subset: GroupSubset) -> bool:
    """True iff every trace of the set decomposes; equals is_midconvex."""
    for xi in subset.indices():
        for gi in range(group.order):
            try:
                decompose_trace(_trace(group, subset.mask, xi, gi))
            except NotMidconvexTrace:
                return False
    return True


def accepted_traces(period: int, exhaustive: bool) -> tuple[int, ...]:
    """The traces of this period that decompose_trace accepts, bit r for residue r.

    Exhaustive asks about every residue pattern that contains 0, 2**(period-1)
    of them. Otherwise only the multiples of each odd divisor of the period
    are asked about, the patterns that Theorem 1 allows in a finite group.
    """
    if exhaustive:
        patterns: Iterable[int] = range(1, 1 << period, 2)
    else:
        patterns = [
            sum(1 << r for r in range(0, period, d)) for d in range(1, period + 1, 2) if period % d == 0
        ]
    accepted = []
    for pattern in patterns:
        try:
            decompose_trace(IntWindowSet.from_residues(period, set_bits(pattern)))
        except NotMidconvexTrace:
            continue
        accepted.append(pattern)
    return tuple(accepted)


def theorem1_bits(
    group: FiniteAbelianGroup, columns: Sequence[int], count: int, accepted: Mapping[int, Sequence[int]]
) -> int:
    """Bit k is set iff every trace of the subset in bit k of the columns is accepted.

    The trace at x along g reads the columns at x, x + g, x + 2g, ... for one
    period L = ord(g). A member x passes there where the subset matches some
    pattern of accepted[L] exactly. As in verify_theorem1, every member and
    every g are read, g = 0 included.
    """
    n = group.order
    missing = [~column for column in columns]
    bad = 0
    for gi in range(n):
        for xi in range(n):
            walk, i = [xi], group.add_index(xi, gi)
            while i != xi:
                walk.append(i)
                i = group.add_index(i, gi)
            ok = 0
            for pattern in accepted[len(walk)]:
                match = columns[xi]
                for r in range(1, len(walk)):
                    match &= columns[walk[r]] if pattern >> r & 1 else missing[walk[r]]
                ok |= match
            bad |= columns[xi] & ~ok
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
        x = group.element_at((subset.mask & -subset.mask).bit_length() - 1)
    if x not in subset:
        raise ValueError("decomposition base point must be a member")
    shifted = group.translate_mask(subset.mask, group.neg_index(group.index_of(x)))
    candidate = GroupSubset(group, shifted)
    if not is_subgroup(candidate):
        raise NotMidconvex("X - x is not a subgroup")
    if candidate.index % 2 == 0:
        raise NotMidconvex(f"X - x has even index {candidate.index}")
    return PeriodicDecomposition(candidate, x)


def doubling_claim_check(
    group: FiniteAbelianGroup, subset: GroupSubset, x: GroupElement
) -> bool:
    """True iff X - x is closed under doubling; holds for midconvex X."""
    shifted = group.translate_mask(subset.mask, group.neg_index(group.index_of(x)))
    for a in GroupSubset(group, shifted).indices():
        if not shifted >> group.add_index(a, a) & 1:
            return False
    return True


def lemma1_holds_at(group: FiniteAbelianGroup, mask: int, xi: int, gi: int) -> bool:
    """Order-convexity of the trace at index xi along index gi, lifted over two periods.

    The trace of a finite-group set is periodic; the periodic set it denotes
    is order-convex in the integers only when it is everything, and a window
    of two periods is wide enough to exhibit any gap.
    """
    trace = _trace(group, mask, xi, gi)
    d = trace.period
    assert d is not None
    lifted = IntWindowSet.from_predicate(0, 2 * d - 1, trace.contains)
    return is_order_convex(lifted)


def lemma1_holds_in_group(
    group: FiniteAbelianGroup, subset: GroupSubset, x: GroupElement, y: GroupElement
) -> bool:
    """`lemma1_holds_at` at the member x along y - x."""
    xi, yi = group.index_of(x), group.index_of(y)
    if xi == yi:
        raise ValueError("lemma check needs two distinct members")
    return lemma1_holds_at(group, subset.mask, xi, group.add_index(yi, group.neg_index(xi)))


# -- subgroups of the rationals ------------------------------------------


def _described_range(
    description: RationalMidconvexDescription, x: Fraction, g: Fraction, k_max: int
) -> range:
    """The k in [-k_max, k_max] with x + k*g in the described set, as one range.

    Over one common denominator D, (x - base)/gen = A/D and g/gen = B/D. So
    x + k*g lies in H + base iff (A + k*B)/D lies in Z[1/P], that is iff D'
    divides A + k*B, with D' the part of D coprime to the inverted primes P:
    one residue class of k modulo D'/gcd(B, D'), or none. The interval cuts
    an interval of k out of it; for g < 0 its ends swap.
    """
    sub, interval = description.subgroup, description.interval
    a, b = (x - description.base) / sub.gen, g / sub.gen
    d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    big_a, big_b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    for p in sub.primes:
        while d % p == 0:
            d //= p
    c = gcd(big_b, d)
    if big_a % c:
        return range(0)
    m = d // c
    r = -(big_a // c) * pow(big_b // c, -1, m) % m
    lo, hi = -k_max, k_max
    ends = [(interval.lower, interval.lower_closed), (interval.upper, interval.upper_closed)]
    (below, below_closed), (above, above_closed) = ends if g > 0 else ends[::-1]
    if below is not None:
        t = (below - x) / g
        lo = max(lo, ceil(t) if below_closed else floor(t) + 1)
    if above is not None:
        t = (above - x) / g
        hi = min(hi, floor(t) if above_closed else ceil(t) - 1)
    return range(lo + (r - lo) % m, hi + 1, m)


def lattice_trace(
    members: RationalMidconvexDescription | Iterable[Rational],
    x: Fraction,
    g: Fraction,
    k_max: int = _TRACE_RADIUS,
) -> IntWindowSet:
    """The trace {k : x + k*g in X} of a described or finite set on [-k_max, k_max].

    A described set's trace is one range of k in closed form, with no
    per-point test. A finite set is read per point: k = (p - x)/g, kept when
    it is an integer within the radius.
    """
    if g == 0:
        raise ValueError("trace direction must be nonzero")
    x, g = Fraction(x), Fraction(g)
    flags = [False] * (2 * k_max + 1)
    if isinstance(members, RationalMidconvexDescription):
        ks = _described_range(members, x, g, k_max)
        if ks:
            flags[ks.start + k_max : ks.stop + k_max : ks.step] = [True] * len(ks)
    else:
        for p in members:
            k = (p - x) / g
            if k.denominator == 1 and -k_max <= k <= k_max:
                flags[k.numerator + k_max] = True
    return IntWindowSet(-k_max, k_max, tuple(flags))


def _integer_points(points: Iterable[Rational]) -> tuple[list[int], int]:
    """The distinct points as ascending integer numerators over one common denominator."""
    fracs = sorted({Fraction(p) for p in points})
    den = 1
    for p in fracs:
        den = den * p.denominator // gcd(den, p.denominator)
    return [p.numerator * (den // p.denominator) for p in fracs], den


def _halving_modulus(group: RationalGroupDescriptor, den: int) -> int:
    """The w with s/(2*den) in the group exactly when w divides s.

    s/(2*den) over gen = a/b is s*b/(2*den*a), in Z[1/P] exactly when v, the
    part of 2*den*a coprime to P, divides s*b, that is when v/gcd(v, b)
    divides s.
    """
    v = 2 * den * group.gen.numerator
    for p in group.primes:
        while v % p == 0:
            v //= p
    return v // gcd(v, group.gen.denominator)


def _missing_midpoints(group: RationalGroupDescriptor, nums: Sequence[int], den: int):
    """Each (a, b, s) with a < b points, numerators over den, whose midpoint s/(2*den) is missing.

    nums ascend without repeats; s = a + b, and the midpoint is missing when
    it lies in the group but is not a point. Pairs are scanned in increasing
    order; a = b never gives one, as the midpoint is a. An odd s has its
    midpoint off the den lattice, so not a point; an even one is the point
    s/2 over den when that is listed.
    """
    members = set(nums)
    w = _halving_modulus(group, den)
    for i, a in enumerate(nums):
        for b in nums[i + 1 :]:
            s = a + b
            if not s % w and (s & 1 or s >> 1 not in members):
                yield a, b, s


def is_midconvex_q_finite(
    group: RationalGroupDescriptor, points: Iterable[Rational]
) -> tuple[Fraction, Fraction, Fraction] | None:
    """Exact midconvexity check of a finite set inside a rational group.

    Returns the first violating (x, y, z) of `_missing_midpoints`, or None.
    """
    nums, den = _integer_points(points)
    for a, b, s in _missing_midpoints(group, nums, den):
        return Fraction(a, den), Fraction(b, den), Fraction(s, 2 * den)
    return None


def rational_closure(
    group: RationalGroupDescriptor, points: Iterable[Rational]
) -> RationalMidconvexDescription | None:
    """Least midconvex superset of a finite set of rationals; None for the empty set.

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
    points = sorted(Fraction(p) for p in points)
    if not points:
        return None
    base = points[0]
    interval = QIntervalSpec(base, points[-1])
    span = rational_gcd([p - base for p in points])
    if span == 0:
        # singleton: the order interval already pins the set to the base point
        return RationalMidconvexDescription(interval, group, base)
    closure = two_pure_closure(RationalGroupDescriptor(span), group)
    return RationalMidconvexDescription(interval, closure, base)


def described_members(description: RationalMidconvexDescription) -> tuple[Fraction, ...] | None:
    """Members of a described set in order, None if infinite; CapExceeded past _LATTICE_CAP."""
    lower, upper = description.interval.lower, description.interval.upper
    if lower is None or upper is None or (description.subgroup.primes and lower != upper):
        return None
    base, step = description.base, description.subgroup.gen
    first, last = ceil((lower - base) / step), floor((upper - base) / step)
    if last - first + 1 > _LATTICE_CAP:
        raise CapExceeded(f"{last - first + 1} lattice points to list, cap is {_LATTICE_CAP}")
    ks = _described_range(description, base, step, max(-first, last))
    return tuple(base + k * step for k in ks)


def decompose_rational(
    group: RationalGroupDescriptor,
    description: RationalMidconvexDescription,
    x: Rational,
    x2: Rational,
    depth: int,
    window: Rational,
) -> RationalMidconvexDescription:
    """Recover the interval-and-subgroup form of a described midconvex set.

    Reads the set on each lattice x + k*g of the chain of cyclic groups
    seeded with {x, x2}, within `window` of x, which must cover x2. There the
    set is one progression of k through 0 and (x2 - x)/g, the range of
    `_described_range`, so Theorem 1 reads each level in closed form: its
    step m must be odd, m*g generates the level's subgroup, and its first and
    last member are the level's ends. Ends and subgroup must grow across
    levels; an inverted prime of the ambient group joins the recovered
    subgroup H exactly when its latest refinement enlarged it.

    A discrete H keeps the deepest level's ends. When H inverts a prime,
    x + H is dense, so the level ends converge to those of the description's
    interval cut to the closed window, and C is that cut. For a two-pure
    description H is the description's subgroup, so the report equals the
    input on the window.
    """
    x, x2 = Fraction(x), Fraction(x2)
    if x >= x2:
        raise ValueError("need two base points with x < x2")
    if not (description.contains(x) and description.contains(x2)):
        raise ValueError("base points must be members of the set")
    radius = Fraction(window)
    if radius < x2 - x:
        raise WindowTooSmall(f"window radius {radius} does not cover x2 - x = {x2 - x}")

    chain = cyclic_chain(group, (x, x2), depth)
    primes = sorted(group.primes)
    grew_last: dict[int, bool] = {}
    prev_lower = prev_upper = prev_gen = None

    for step, g in enumerate(chain):
        ks = _described_range(description, x, g, floor(radius / g))
        m = ks.step
        if m % 2 == 0:
            raise NotMidconvex(
                f"level {step} (lattice step {g}): minimal nonzero trace element {m} is even"
            )
        lower, upper, h_gen = x + g * ks[0], x + g * ks[-1], m * g
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
            if primes:
                grew_last[primes[(step - 1) % len(primes)]] = ratio > 1
        prev_lower, prev_upper, prev_gen = lower, upper, h_gen

    recovered = RationalGroupDescriptor(h_gen, frozenset(p for p, grew in grew_last.items() if grew))
    cut = description.interval
    if recovered.primes:
        lower = x - radius if cut.lower is None else max(cut.lower, x - radius)
        upper = x + radius if cut.upper is None else min(cut.upper, x + radius)
    # C is cut from the interval, so an end is closed exactly when the interval holds it
    interval = QIntervalSpec(lower, upper, cut.contains(lower), cut.contains(upper))
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
    above it, the clipping is the integer floor division of u * den by v.
    """
    primes = sorted(subgroup.primes)
    big_l = prod(p**_DRAW_EXPONENTS for p in primes)
    below = None if interval.lower is None else (base - interval.lower) / subgroup.gen
    above = None if interval.upper is None else (interval.upper - base) / subgroup.gen
    if below is not None:
        below_num, below_den = below.numerator, below.denominator
    if above is not None:
        above_num, above_den = above.numerator, above.denominator
    nums: list[int] = []
    attempts = 0
    while len(nums) < count and attempts < 100 * count:
        attempts += 1
        den = 1
        for p in primes:
            den *= p ** rng.randint(0, _DRAW_EXPONENTS)
        lo, hi = -_DRAW_NUMERATORS, _DRAW_NUMERATORS
        if below is not None:
            lo = max(lo, -(below_num * den // below_den))
        if above is not None:
            hi = min(hi, above_num * den // above_den)
        if lo > hi:
            continue
        num = rng.randint(lo, hi)
        # clipped, the point lies in the closed interval; an open end drops the point on it
        on_lower = below is not None and num * below_den == -below_num * den
        on_upper = above is not None and num * above_den == above_num * den
        if (on_lower and not interval.lower_closed) or (on_upper and not interval.upper_closed):
            continue
        nums.append(num * (big_l // den))
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
    the subgroup, when the `_halving_modulus` of each over L*m divides it;
    c is in the interval when s lies between its ends, each scaled once to
    (end - base)/h * 2L and rounded inward. A missing midpoint is one in the
    group but not in the set; Fractions are built only for it.
    """
    sub, interval, base = description.subgroup, description.interval, description.base
    nums, big_l = _draw_numerators(random.Random(seed), sub, interval, base, 2 * samples)
    if len(nums) < 2:
        return None
    h = sub.gen
    m = base.denominator * h.denominator // gcd(base.denominator, h.denominator)
    offset = 2 * big_l * base.numerator * (m // base.denominator)
    hn = h.numerator * (m // h.denominator)
    in_group, in_sub = _halving_modulus(group, big_l * m), _halving_modulus(sub, big_l * m)
    s_lo, s_hi = -inf, inf
    if interval.lower is not None:
        e = (interval.lower - base) / h * 2 * big_l
        s_lo = ceil(e) if interval.lower_closed else floor(e) + 1
    if interval.upper is not None:
        e = (interval.upper - base) / h * 2 * big_l
        s_hi = floor(e) if interval.upper_closed else ceil(e) - 1
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


def verify_theorem3_if(
    description: RationalMidconvexDescription,
    group: RationalGroupDescriptor,
    samples: int = 1000,
    seed: int = 0,
) -> bool:
    return theorem3_if_violation(description, group, samples, seed) is None


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
    NotMidconvex carrying the violating triple. A finite set is then read as
    its `rational_closure`, which it equals once midconvex. The base `x` (by
    default the description's base, the least point of a finite set) must be
    a member; the lower of it and its coarsest neighbour, the first hit of
    `_probe_members`, becomes the base of `decompose_rational`. That runs at
    depth 3 * max(1, |P|) on a window reaching one subgroup step past the
    farther end of the set, an unbounded end counting as _UNBOUNDED_REACH
    steps away. So only an unbounded side reaches the window's edge, and it
    is reported as unbounded; a finite end comes back exact, with its
    closedness. A set without a second point is the singleton [x, x].
    """
    if isinstance(members, RationalMidconvexDescription):
        description, witness = members, described_midconvex_witness(members, group)
    else:
        points = [Fraction(p) for p in members]
        description = rational_closure(group, points)
        if description is None:
            raise ValueError("cannot decompose the empty set")
        witness = is_midconvex_q_finite(group, points)
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
