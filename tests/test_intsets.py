"""Window sets and periodic traces: order convexity, midconvexity, traces, decompositions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from midconvex.errors import NotMidconvexTrace
from midconvex.groups import least_index, mask_of, periodic_mask, set_bits
from midconvex.intsets import (
    IntWindowSet,
    PeriodicTrace,
    decompose_trace,
    decompose_z,
    is_order_convex,
    midconvex_z_witness,
    minimal_nonzero_member,
    trace_z,
)
from midconvex.rationals import QIntervalSpec, RationalGroupDescriptor, RationalMidconvexDescription

UNBOUNDED = QIntervalSpec()


def over_z(interval, modulus, base=0):
    """The description C ∩ (mZ + base) of a decomposition over Z."""
    return RationalMidconvexDescription(interval, RationalGroupDescriptor(modulus), base)


def wset(lo, hi, members):
    return IntWindowSet(lo, hi, tuple(sorted(set(members))))


def residue_set(period, residues):
    """The periodic set of the residues modulo the period."""
    return PeriodicTrace(period, mask_of(period, (r % period for r in residues)))


def residues_of(trace):
    return tuple(set_bits(trace.mask))


def holds(trace, n):
    """Membership of any integer n in the periodic set."""
    return bool(trace.mask >> n % trace.period & 1)


def at_base(trace, x):
    """The periodic set less its member x: residue r moves to r - x."""
    d, r = trace.period, x % trace.period
    return PeriodicTrace(d, (trace.mask >> r | trace.mask << d - r) & ((1 << d) - 1))


def order_convex(window_set):
    """True iff the members are consecutive integers."""
    members = window_set.members
    return not members or members[-1] - members[0] == len(members) - 1


def lemma1_check(window_set, x, y):
    """True iff the trace of X at x along y - x is order-convex.

    This necessarily holds for every midconvex window-exact set and every
    pair of distinct members; it is not sufficient.
    """
    if x == y:
        raise ValueError("lemma1_check needs two distinct members")
    if not (x in window_set.members and y in window_set.members):
        raise ValueError("lemma1_check base points must be members")
    return order_convex(trace_z(window_set, x, y - x))


def periodic_pair_scan(trace):
    """Reference: the first (x, y, z) of a pair scan over the periodic set the trace denotes.

    x runs over one period and y over [x, x + 2*period), since the residue of
    (x + y)/2 modulo the period depends only on y modulo twice the period.
    """
    members = residues_of(trace)
    d = trace.period
    for i, x in enumerate(members):
        for y in members[i:] + tuple(y + d for y in members) + tuple(y + 2 * d for y in members[:i]):
            if (x + y) % 2 == 0 and not holds(trace, (x + y) // 2):
                return (x, y, (x + y) // 2)
    return None


def naive_midconvex(members):
    """Oracle: the definition, pair by pair."""
    members = set(members)
    for x in members:
        for y in members:
            if (x + y) % 2 == 0 and (x + y) // 2 not in members:
                return False
    return True


def test_window_validation():
    with pytest.raises(ValueError):
        IntWindowSet(3, 1, ())
    for members in [(5,), (-1, 2), (2, 1), (1, 1)]:
        with pytest.raises(ValueError):
            IntWindowSet(0, 3, members)
    with pytest.raises(ValueError):
        PeriodicTrace(0, 0)
    with pytest.raises(ValueError):
        PeriodicTrace(2, 0b100)
    with pytest.raises(ValueError):
        PeriodicTrace(2, -1)


def test_is_order_convex_examples():
    assert is_order_convex(0b1111 << 5)
    assert not is_order_convex(0b101 << 5)
    assert is_order_convex(0)


def test_midconvex_z_examples():
    assert midconvex_z_witness(wset(0, 9, [0, 3, 6, 9])) is None
    assert midconvex_z_witness(wset(-5, 5, [0, 2, 4])) == (0, 2, 1)
    assert midconvex_z_witness(wset(0, 9, [7])) is None


def test_periodic_witness_reads_across_the_period():
    # 0 and 2 are members of 2Z and their midpoint 1 is not; one period holds only 0
    assert periodic_pair_scan(residue_set(2, [0])) == (0, 2, 1)
    assert periodic_pair_scan(residue_set(3, [0])) is None


def test_periodic_witness_agrees_with_decompose_z_on_every_pattern_to_period_12():
    # each nonempty pattern is decomposed at its least member, as its trace there
    patterns = 0
    for period in range(1, 13):
        for mask in range(1, 1 << period):
            trace = PeriodicTrace(period, mask)
            try:
                decompose_trace(at_base(trace, least_index(mask)))
                decomposes = True
            except NotMidconvexTrace:
                decomposes = False
            witness = periodic_pair_scan(trace)
            assert decomposes == (witness is None), (period, mask)
            if witness is not None:
                x, y, z = witness
                assert holds(trace, x) and holds(trace, y) and 2 * z == x + y
                assert not holds(trace, z)
            patterns += 1
    assert patterns == 8178


def test_midconvex_z_witness_is_lexicographically_first():
    assert midconvex_z_witness(wset(0, 10, [0, 4, 8, 10])) == (0, 4, 2)


def test_midconvex_z_matches_definition_on_all_small_sets():
    lo, hi = 0, 8
    for mask in range(1 << (hi - lo + 1)):
        members = [lo + i for i in range(hi - lo + 1) if mask >> i & 1]
        assert (midconvex_z_witness(wset(lo, hi, members)) is None) == naive_midconvex(members)


def test_trace_z_examples():
    x_set = wset(0, 9, [0, 3, 6, 9])
    trace = trace_z(x_set, 0, 3)
    assert (trace.lo, trace.hi) == (0, 3)
    assert trace.members == (0, 1, 2, 3)

    identity = trace_z(x_set, 0, 1)
    assert (identity.lo, identity.hi) == (0, 9)
    assert identity.members == (0, 3, 6, 9)

    # a lift of the residues {1,4,7,10,13} mod 15, traced along 2
    lifted = wset(-15, 30, [n for n in range(-15, 31) if n % 15 in {1, 4, 7, 10, 13}])
    trace2 = trace_z(lifted, 1, 2)
    assert trace2.members == tuple(n for n in range(trace2.lo, trace2.hi + 1) if n % 3 == 0)


def test_trace_z_negative_direction():
    x_set = wset(0, 9, [0, 3, 6, 9])
    trace = trace_z(x_set, 9, -3)
    assert (trace.lo, trace.hi) == (0, 3)
    assert trace.members == (0, 1, 2, 3)


def test_trace_z_preconditions():
    x_set = wset(0, 9, [0, 3])
    with pytest.raises(ValueError):
        trace_z(x_set, 0, 0)
    with pytest.raises(ValueError):
        trace_z(x_set, 42, 1)


def test_lemma1_examples():
    assert lemma1_check(wset(0, 9, [0, 3, 6, 9]), 0, 3)
    # necessary but not sufficient: a non-midconvex set can still pass
    assert lemma1_check(wset(-5, 5, [0, 2, 4]), 0, 4)
    assert lemma1_check(wset(0, 1, [0, 1]), 0, 1)


def test_lemma1_preconditions():
    with pytest.raises(ValueError):
        lemma1_check(wset(0, 3, [0, 1]), 0, 0)
    with pytest.raises(ValueError):
        lemma1_check(wset(0, 3, [0, 1]), 0, 2)


def test_lemma1_necessity_on_all_small_midconvex_sets():
    lo, hi = -4, 6
    for mask in range(1 << (hi - lo + 1)):
        members = [lo + i for i in range(hi - lo + 1) if mask >> i & 1]
        window = wset(lo, hi, members)
        if midconvex_z_witness(window) is not None:
            continue
        for x in members:
            for y in members:
                if x != y:
                    assert lemma1_check(window, x, y)


def test_lemma1_detects_gaps_on_either_side_of_zero():
    # gap strictly above the base pair: trace {0,1,5} misses 2..4
    above = wset(-6, 6, [0, 1, 5])
    assert not lemma1_check(above, 0, 1)
    assert midconvex_z_witness(above) is not None
    # gap strictly below: trace {-5,0,1} misses -4..-1
    below = wset(-6, 6, [-5, 0, 1])
    assert not lemma1_check(below, 0, 1)
    assert midconvex_z_witness(below) is not None
    # filling the gaps restores both directions
    assert lemma1_check(wset(-6, 6, range(-5, 2)), 0, 1)


def test_minimal_nonzero_member_tie_break():
    # the nearest negative member of a periodic set is its top residue less the period
    assert minimal_nonzero_member(residue_set(11, [0, 3, 8])) == 3
    assert minimal_nonzero_member(residue_set(11, [0, 8])) == -3
    assert minimal_nonzero_member(residue_set(11, [0, 9, 5])) == -2
    assert minimal_nonzero_member(residue_set(11, [0])) == 11
    assert minimal_nonzero_member(PeriodicTrace(5, 0)) is None
    # a window set's m is its member nearest the base, ties toward positive
    assert decompose_z(wset(-5, 5, [-3, 0, 3]), 0).subgroup.gen == 3
    for members, m in [([-3, 0, 4], -3), ([-2, 0, 5], -2), ([-2, 0, 2], 2)]:
        with pytest.raises(NotMidconvexTrace) as exc:
            decompose_z(wset(-5, 5, members), 0)
        assert exc.value.minimal == m


def test_decompose_trace_bounded_example():
    # a window set decomposed at 0 is its own trace there
    assert decompose_z(wset(0, 9, [0, 3, 6, 9]), 0) == over_z(QIntervalSpec(0, 9), 3)


def test_decompose_trace_periodic_example():
    dec = decompose_trace(residue_set(15, range(0, 15, 3)))
    assert dec == over_z(UNBOUNDED, 3)
    # the same set given by unreduced residues
    unreduced = decompose_trace(residue_set(15, [0, 18, -9, 9, 12, 30]))
    assert unreduced == dec


def test_decompose_trace_singleton_is_a_point_interval_over_z():
    dec = decompose_z(wset(-2, 2, [0]), 0)
    assert dec == over_z(QIntervalSpec(0, 0), 1)
    assert dec.contains(0) and not dec.contains(1)


def test_decompose_trace_even_minimum_fails():
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(residue_set(6, [0, 2, 4]))
    with pytest.raises(NotMidconvexTrace):
        decompose_z(wset(0, 9, [0, 2, 4]), 0)


def test_decompose_trace_reconstruction_mismatch_fails():
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(residue_set(9, [0, 3, 5, 6]))
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(residue_set(10, [0, 3, 6]))
    with pytest.raises(NotMidconvexTrace):
        decompose_z(wset(0, 9, [0, 3, 5, 6, 9]), 0)
    with pytest.raises(NotMidconvexTrace):
        decompose_z(wset(0, 9, [0, 3, 9]), 0)


def looped_minimal_nonzero_member(trace):
    """Reference: the nearest nonzero members of a periodic set on either side, found by loops."""
    d = trace.period
    inside = set(residues_of(trace))
    pos = min((r for r in inside if r > 0), default=d if 0 in inside else None)
    neg = min((d - r for r in inside if r > 0), default=d if 0 in inside else None)
    if pos is None and neg is None:
        return None
    if neg is None or (pos is not None and pos <= neg):
        return pos
    return -neg


def looped_nearest_member(window_set):
    """Reference: the nonzero member of a window set nearest 0, ties toward positive, by a loop."""
    best = None
    for n in window_set.members:
        if n and (best is None or abs(n) < abs(best) or (abs(n) == abs(best) and n > 0)):
            best = n
    return best


def pointwise_decomposition(trace):
    """Reference: the reconstruction checked residue by residue or window point by point."""
    if isinstance(trace, PeriodicTrace):
        m = looped_minimal_nonzero_member(trace)
    else:
        m = looped_nearest_member(trace)
        if m is None:
            return over_z(QIntervalSpec(0, 0), 1)
    if m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)
    mod = abs(m)
    if isinstance(trace, PeriodicTrace):
        d, inside = trace.period, set(residues_of(trace))
        if d % mod != 0 or inside != set(range(0, d, mod)):
            bad = next((r for r in range(d) if (r in inside) != (d % mod == 0 and r % mod == 0)), None)
            raise NotMidconvexTrace(f"periodic trace is not the multiples of {mod}", minimal=m, witness=bad)
        return over_z(UNBOUNDED, mod)
    members = trace.members
    decomposition = over_z(QIntervalSpec(members[0], members[-1]), mod)
    for n in range(trace.lo, trace.hi + 1):
        if (n in members) != decomposition.contains(n):
            raise NotMidconvexTrace(
                f"trace differs from interval-and-subgroup reconstruction at {n}", minimal=m, witness=n
            )
    return decomposition


def outcome(decompose, trace):
    try:
        return decompose(trace)
    except NotMidconvexTrace as e:
        return (str(e), e.minimal, e.witness)


def test_decompose_trace_matches_the_pointwise_check_on_all_small_windows():
    # every subset containing 0 of every window [lo, hi], -6 <= lo <= 0 <= hi <= 6,
    # decomposed at 0: 127**2 = 16,129 traces
    count = 0
    for lo in range(-6, 1):
        for hi in range(0, 7):
            others = [n for n in range(lo, hi + 1) if n]
            for pattern in range(1 << len(others)):
                members = [0] + [n for k, n in enumerate(others) if pattern >> k & 1]
                trace = wset(lo, hi, members)
                got = outcome(lambda t: decompose_z(t, 0), trace)
                assert got == outcome(pointwise_decomposition, trace), trace
                count += 1
    assert count == 16129


def test_decompose_trace_matches_the_pointwise_check_on_all_periodic_traces_up_to_period_10():
    for period in range(1, 11):
        for pattern in range(1 << period):
            trace = PeriodicTrace(period, pattern)
            assert minimal_nonzero_member(trace) == looped_minimal_nonzero_member(trace)
            if pattern & 1:
                assert outcome(decompose_trace, trace) == outcome(pointwise_decomposition, trace)


def members_minimal_nonzero_member(trace):
    """Reference: the minimal nonzero member read from the tuple of residues."""
    members = residues_of(trace)
    if members:
        members = (members[-1] - trace.period, *members, members[0] + trace.period)
    return min((n for n in reversed(members) if n), key=abs, default=None)


def members_decompose_trace(trace):
    """Reference: decompose_trace with its reconstruction built as a set of residues."""
    d = trace.period
    if not holds(trace, 0):
        raise ValueError("a trace always contains 0")
    m = members_minimal_nonzero_member(trace)
    if m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)
    mod = abs(m)
    rebuilt = range(0, d, mod) if d % mod == 0 else range(0)
    differ = set(residues_of(trace)).symmetric_difference(rebuilt)
    if differ:
        raise NotMidconvexTrace(f"periodic trace is not the multiples of {mod}", minimal=m, witness=min(differ))
    return over_z(UNBOUNDED, mod)


def mask_nearest_member(lo, mask):
    """Reference: the nonzero member nearest 0 of the set with this mask on a window from lo.

    The least positive member is the lowest set bit above the bit of 0, the
    nearest negative one the highest set bit below it; ties toward positive.
    """
    shift = max(1 - lo, 0)
    above = mask >> shift
    pos = lo + shift + least_index(above) if above else None
    below = mask & ((1 << -lo) - 1) if lo < 0 else 0
    neg = lo + below.bit_length() - 1 if below else None
    if neg is None or (pos is not None and pos <= -neg):
        return pos
    return neg


def mask_decompose_z(lo, hi, mask, x=None):
    """Reference: decompose_z read on an int mask over the whole window, bit n - lo for n.

    The trace X - x has the same mask on [lo - x, hi - x]; its reconstruction
    is one periodic mask of the multiples of |m| from the least to the
    greatest member, compared by one XOR, the witness its least differing bit.
    """
    if not mask:
        raise ValueError("cannot decompose the empty set")
    if x is None:
        x = lo + least_index(mask)
    if not (lo <= x <= hi and mask >> x - lo & 1):
        raise ValueError(f"base point {x} is not a member")
    first, last = lo + least_index(mask), lo + mask.bit_length() - 1
    t_lo = lo - x
    m = mask_nearest_member(t_lo, mask)
    if m is not None and m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)
    mod = abs(m or 1)
    start = -(-(first - x) // mod) * mod - t_lo
    differ = mask ^ periodic_mask(1, mod, last - lo + 1 - start) << start
    if differ:
        n = t_lo + least_index(differ)
        raise NotMidconvexTrace(f"trace differs from interval-and-subgroup reconstruction at {n}", minimal=m, witness=n)
    return over_z(QIntervalSpec(first, last), mod, x)


def mask_trace_z(lo, hi, mask, x, g):
    """Reference: the text of trace_z read through a mask over the trace's whole window."""
    if g > 0:
        n_lo, n_hi = -((x - lo) // g), (hi - x) // g
    else:
        n_lo, n_hi = -((hi - x) // -g), (x - lo) // -g
    steps = ((lo + i - x) // g - n_lo for i in set_bits(mask) if (lo + i - x) % g == 0)
    trace = mask_of(n_hi - n_lo + 1, steps)
    return "{%s}@window[%d,%d]" % (",".join(str(n_lo + i) for i in set_bits(trace)), n_lo, n_hi)


def full_outcome(decompose, *args):
    """The description, or the error's type and message with a trace error's minimal and witness."""
    try:
        return decompose(*args)
    except (ValueError, NotMidconvexTrace) as e:
        return (type(e), str(e), getattr(e, "minimal", None), getattr(e, "witness", None))


def test_mask_reading_matches_the_members_reading_on_windows_and_periods():
    # windows: every subset of every window 1 to 11 wide at offsets -4, 0 and 3,
    # decomposed at the default base and at every member and traced at its
    # least and greatest member along ±1, ±2 and ±3, against the reading of
    # one mask over the window
    cases = rejected = 0
    for lo in (-4, 0, 3):
        for width in range(1, 12):
            hi = lo + width - 1
            for mask in range(1 << width):
                members = tuple(lo + i for i in set_bits(mask))
                window = IntWindowSet(lo, hi, members)
                for x in (None, *members):
                    got, want = full_outcome(decompose_z, window, x), full_outcome(mask_decompose_z, lo, hi, mask, x)
                    assert got == want, (window, x)
                    cases += 1
                    rejected += isinstance(want, tuple) and want[0] is NotMidconvexTrace
                for x in members[:1] + members[-1:]:
                    for g in (1, -1, 2, -2, 3, -3):
                        assert str(trace_z(window, x, g)) == mask_trace_z(lo, hi, mask, x, g), (window, x, g)
    assert cases == 73725 and rejected > 50_000
    # periods: every pattern of every period up to 14, against the residues read as a set
    rejected = 0
    for d in range(1, 15):
        for mask in range(1 << d):
            trace = PeriodicTrace(d, mask)
            assert minimal_nonzero_member(trace) == members_minimal_nonzero_member(trace), trace
            got, want = full_outcome(decompose_trace, trace), full_outcome(members_decompose_trace, trace)
            assert got == want, trace
            rejected += isinstance(want, tuple) and want[0] is NotMidconvexTrace
    assert rejected > 10_000


def test_decompose_trace_periodic_non_subgroup_fails():
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(residue_set(7, [0, 3, 4]))


def test_periodic_traces_accepted_are_exactly_the_odd_multiples():
    # in a finite group Theorem 1 leaves dZ/LZ with d odd and d | L as the
    # only decomposable traces of period L: all 4,095 patterns with 0 up to 12
    for period in range(1, 13):
        allowed = {frozenset(range(0, period, d)) for d in range(1, period + 1, 2) if period % d == 0}
        for pattern in range(1 << period - 1):
            inside = frozenset([0] + [r for r in range(1, period) if pattern >> r - 1 & 1])
            try:
                decompose_trace(residue_set(period, inside))
                accepted = True
            except NotMidconvexTrace:
                accepted = False
            assert accepted == (inside in allowed), (period, sorted(inside))


def test_decompose_trace_requires_zero():
    with pytest.raises(ValueError):
        decompose_trace(residue_set(9, [3, 6]))


def test_decompose_z_examples():
    assert decompose_z(wset(0, 9, [0, 3, 6, 9]), 0) == over_z(QIntervalSpec(0, 9), 3, 0)

    singleton = decompose_z(wset(0, 9, [5]), 5)
    assert singleton == over_z(QIntervalSpec(5, 5), 1, 5)
    assert singleton.contains(5) and not singleton.contains(0)

    with pytest.raises(NotMidconvexTrace):
        decompose_z(wset(0, 9, [0, 2, 4]), 0)


def test_decompose_z_requires_membership():
    with pytest.raises(ValueError):
        decompose_z(wset(0, 9, [0, 3]), 1)


def test_decompose_z_defaults_to_the_least_member():
    assert decompose_z(wset(0, 12, [3, 6, 9, 12])) == over_z(QIntervalSpec(3, 12), 3, 3)
    # the empty set is reported before the base is checked
    for x in (None, 2):
        with pytest.raises(ValueError, match="cannot decompose the empty set"):
            decompose_z(wset(0, 9, []), x)


def test_decompose_z_round_trip_on_small_sets():
    lo, hi = -4, 6
    for mask in range(1, 1 << (hi - lo + 1)):
        members = [lo + i for i in range(hi - lo + 1) if mask >> i & 1]
        window = wset(lo, hi, members)
        for x in members:
            try:
                dec = decompose_z(window, x)
            except NotMidconvexTrace:
                continue
            for n in range(lo, hi + 1):
                assert dec.contains(n) == (n in window.members)


def test_decompose_z_periodic_input():
    # a periodic set is decomposed at its member 1 as its trace there
    trace = at_base(residue_set(15, [1, 4, 7, 10, 13]), 1)
    dec = decompose_trace(trace)
    assert dec == over_z(UNBOUNDED, 3)
    assert all(dec.contains(n - 1) == holds(residue_set(15, [1, 4, 7, 10, 13]), n) for n in range(-30, 30))


def test_wide_windows_are_read_off_their_members():
    # the window's width costs nothing: no mask spans it
    window = wset(-10**18, 10**18, [0, 5, 10, 15])
    assert decompose_z(window) == over_z(QIntervalSpec(0, 15), 5, 0)
    assert midconvex_z_witness(window) is None
    assert str(trace_z(window, 0, 5)) == "{0,1,2,3}@window[-200000000000000000,200000000000000000]"
    with pytest.raises(NotMidconvexTrace, match="reconstruction at 2$"):
        decompose_z(wset(-10**18, 10**18, [1, 2, 17]), 1)


@given(
    st.integers(min_value=-20, max_value=20),
    st.sets(st.integers(min_value=0, max_value=12), max_size=13),
)
def test_window_equivalence_midconvex_iff_every_base_decomposes(shift, offsets):
    members = sorted(shift + o for o in offsets)
    lo, hi = shift - 1, shift + 13
    window = wset(lo, hi, members)
    decomposes = True
    for x in members:
        try:
            decompose_z(window, x)
        except NotMidconvexTrace:
            decomposes = False
            break
    assert decomposes == (midconvex_z_witness(window) is None)


class MemberSet:
    """Reference: a window or periodic set held as a Python set of members, every reading one member at a time."""

    def __init__(self, lo, hi, members, period=None):
        self.lo, self.hi, self.period = lo, hi, period
        self.inside = {n % period for n in members} if period else set(members)

    def contains(self, n):
        if self.period:
            return n % self.period in self.inside
        return self.lo <= n <= self.hi and n in self.inside

    def members(self):
        return tuple(sorted(self.inside))


def member_trace(ref, x, g):
    """(lo, hi, members) of the trace at x along g, by a membership test at every n."""
    ns = [n for n in range(-(ref.hi - ref.lo) - 1, ref.hi - ref.lo + 2) if ref.lo <= x + n * g <= ref.hi]
    return min(ns), max(ns), tuple(n for n in ns if ref.contains(x + n * g))


def member_witness(ref):
    """The first (x, y, z) with y in [x, x + 2*period) for a periodic set, y >= x in the window otherwise."""
    for x in ref.members():
        top = x + 2 * ref.period if ref.period else ref.hi + 1
        for y in range(x, top):
            if ref.contains(y) and (x + y) % 2 == 0 and not ref.contains((x + y) // 2):
                return x, y, (x + y) // 2
    return None


def seeded_windows(rng, count):
    """(built set, member reference) pairs: windows and periods, random sets and progressions."""
    for k in range(count):
        periodic = k % 3 == 2
        if periodic:
            d = rng.randint(1, 24)
            lo, hi = 0, d - 1
        else:
            lo = rng.randint(-20, 20)
            hi = lo + rng.randint(0, 40)
        if k % 2:
            members = [n for n in range(lo, hi + 1) if rng.random() < 0.4]
        else:
            # a progression with an odd step, midconvex unless its step misses the period
            step = rng.randrange(1, 8, 2)
            first = rng.randint(lo, hi)
            members = list(range(first, rng.randint(first, hi) + 1 if not periodic else hi + 1, step))
        if periodic:
            built = residue_set(d, [n + d * rng.randint(-3, 3) for n in members])
        else:
            built = wset(lo, hi, members + members[: len(members) // 2])
        yield built, MemberSet(lo, hi, members, d if periodic else None)


def test_mask_windows_match_the_member_set_reference():
    # windows are held as their members and periodic sets as masks; both
    # against a set of members, a periodic one decomposed as its trace at x
    rng = random.Random(2026)
    decomposed = failed = 0
    for built, ref in seeded_windows(rng, 600):
        lo, hi = ref.lo, ref.hi
        span = range(lo - 2 * (hi - lo + 1), hi + 2 * (hi - lo + 1) + 1)
        if ref.period is None:
            assert (built.lo, built.hi, built.members) == (lo, hi, ref.members())
        else:
            assert (built.period, residues_of(built)) == (ref.period, ref.members())
            assert [holds(built, n) for n in span] == [ref.contains(n) for n in span], built
        witness = member_witness(ref)
        if ref.period is None:
            assert midconvex_z_witness(built) == witness, built
        for x in ref.members()[:6]:
            if ref.period is None:
                for g in (1, -1, 2, -3, 5, hi - lo + 1):
                    trace = trace_z(built, x, g)
                    assert (trace.lo, trace.hi, trace.members) == member_trace(ref, x, g), (built, x, g)
            try:
                dec = decompose_z(built, x) if ref.period is None else decompose_trace(at_base(built, x))
            except NotMidconvexTrace:
                assert witness is not None, (built, x)
                failed += 1
                continue
            assert witness is None, (built, x)
            shift = x if ref.period else 0
            assert dec.base == x - shift, (built, x)
            assert [dec.contains(n - shift) for n in span] == [ref.contains(n) for n in span], (built, x)
            decomposed += 1
        if ref.inside and witness is None and ref.period is None:
            # the default base is the least member
            assert decompose_z(built).base == min(ref.inside), built
    assert decomposed > 300 and failed > 300, (decomposed, failed)
