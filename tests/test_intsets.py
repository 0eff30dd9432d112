"""Windowed integer sets: order convexity, midconvexity, traces, decompositions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from midconvex.errors import NotMidconvexTrace
from midconvex.groups import mask_of
from midconvex.intsets import (
    IntWindowSet,
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
    return IntWindowSet.from_members(lo, hi, members)


def residue_set(period, residues):
    """The periodic set of the residues modulo the period, on the window [0, period - 1]."""
    return IntWindowSet(0, period - 1, mask_of(period, (r % period for r in residues)), period)


def lemma1_check(window_set, x, y):
    """True iff the trace of X at x along y - x is order-convex.

    This necessarily holds for every midconvex window-exact set and every
    pair of distinct members; it is not sufficient.
    """
    if x == y:
        raise ValueError("lemma1_check needs two distinct members")
    if not (window_set.contains(x) and window_set.contains(y)):
        raise ValueError("lemma1_check base points must be members")
    return is_order_convex(trace_z(window_set, x, y - x))


def pair_scan_witness(window_set):
    """Reference: the first (x, y, z) of a pair scan that also reads a periodic set.

    For a window set, pairs x <= y of members run in lexicographic order. A
    periodic set is read as the set it denotes: x runs over one period and y
    over [x, x + 2*period), since the residue of (x + y)/2 modulo the period
    depends only on y modulo twice the period.
    """
    members = window_set.members()
    inside = set(members)
    d = window_set.period
    for i, x in enumerate(members):
        ys = members[i:]
        if d is not None:
            ys += tuple(y + d for y in members) + tuple(y + 2 * d for y in members[:i])
        for y in ys:
            if (x + y) % 2 == 0:
                z = (x + y) // 2
                if (z if d is None else z % d) not in inside:
                    return (x, y, z)
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
        IntWindowSet(3, 1, 0)
    with pytest.raises(ValueError):
        IntWindowSet(0, 2, 0b1000)
    with pytest.raises(ValueError):
        IntWindowSet(0, 2, -1)
    with pytest.raises(ValueError):
        wset(0, 3, [5])
    with pytest.raises(ValueError):
        IntWindowSet(1, 3, 0b111, period=3)


def test_is_order_convex_examples():
    assert is_order_convex(wset(-5, 5, [0, 1, 2, 3]))
    assert not is_order_convex(wset(-5, 5, [0, 2]))
    assert is_order_convex(wset(-5, 5, []))


def test_midconvex_z_examples():
    assert midconvex_z_witness(wset(0, 9, [0, 3, 6, 9])) is None
    assert midconvex_z_witness(wset(-5, 5, [0, 2, 4])) == (0, 2, 1)
    assert midconvex_z_witness(wset(0, 9, [7])) is None


def test_periodic_witness_reads_across_the_period():
    # 0 and 2 are members of 2Z and their midpoint 1 is not; one period holds only 0
    evens = residue_set(2, [0])
    assert pair_scan_witness(evens) == (0, 2, 1)
    assert pair_scan_witness(residue_set(3, [0])) is None
    # the library scan reads finite sets only
    with pytest.raises(ValueError):
        midconvex_z_witness(evens)


def test_periodic_witness_agrees_with_decompose_z_on_every_pattern_to_period_12():
    patterns = 0
    for period in range(1, 13):
        for mask in range(1, 1 << period):
            window = residue_set(period, [r for r in range(period) if mask >> r & 1])
            try:
                decompose_z(window)
                decomposes = True
            except NotMidconvexTrace:
                decomposes = False
            witness = pair_scan_witness(window)
            assert decomposes == (witness is None), (period, mask)
            if witness is not None:
                x, y, z = witness
                assert window.contains(x) and window.contains(y) and 2 * z == x + y
                assert not window.contains(z)
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
    assert trace.members() == (0, 1, 2, 3)

    identity = trace_z(x_set, 0, 1)
    assert (identity.lo, identity.hi) == (0, 9)
    assert identity.members() == (0, 3, 6, 9)

    # a lift of the residues {1,4,7,10,13} mod 15, traced along 2
    lifted = wset(-15, 30, [n for n in range(-15, 31) if n % 15 in {1, 4, 7, 10, 13}])
    trace2 = trace_z(lifted, 1, 2)
    assert set(trace2.members()) == {n for n in range(trace2.lo, trace2.hi + 1) if n % 3 == 0}


def test_trace_z_negative_direction():
    x_set = wset(0, 9, [0, 3, 6, 9])
    trace = trace_z(x_set, 9, -3)
    assert (trace.lo, trace.hi) == (0, 3)
    assert trace.members() == (0, 1, 2, 3)


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
    assert minimal_nonzero_member(wset(-5, 5, [-3, 0, 3])) == 3
    assert minimal_nonzero_member(wset(-5, 5, [-3, 0])) == -3
    assert minimal_nonzero_member(wset(-5, 5, [-2, 0, 5])) == -2
    assert minimal_nonzero_member(wset(-5, 5, [0])) is None


def test_decompose_trace_bounded_example():
    assert decompose_trace(wset(0, 9, [0, 3, 6, 9])) == over_z(QIntervalSpec(0, 9), 3)


def test_decompose_trace_periodic_example():
    dec = decompose_trace(residue_set(15, range(0, 15, 3)))
    assert dec == over_z(UNBOUNDED, 3)
    # the same set given by unreduced residues
    unreduced = decompose_trace(residue_set(15, [0, 18, -9, 9, 12, 30]))
    assert unreduced == dec


def test_decompose_trace_singleton_is_a_point_interval_over_z():
    dec = decompose_trace(wset(-2, 2, [0]))
    assert dec == over_z(QIntervalSpec(0, 0), 1)
    assert dec.contains(0) and not dec.contains(1)


def test_decompose_trace_even_minimum_fails():
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(wset(0, 9, [0, 2, 4]))


def test_decompose_trace_reconstruction_mismatch_fails():
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(wset(0, 9, [0, 3, 5, 6, 9]))
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(wset(0, 9, [0, 3, 9]))


def looped_minimal_nonzero_member(window_set):
    """Reference: the nearest nonzero members on either side, found by loops."""
    if window_set.period is not None:
        d = window_set.period
        residues = set(window_set.members())
        pos = min((r for r in residues if r > 0), default=d if 0 in residues else None)
        neg = min((d - r for r in residues if r > 0), default=d if 0 in residues else None)
        if pos is None and neg is None:
            return None
        if neg is None or (pos is not None and pos <= neg):
            return pos
        return -neg
    best = None
    for n in window_set.members():
        if n and (best is None or abs(n) < abs(best) or (abs(n) == abs(best) and n > 0)):
            best = n
    return best


def pointwise_decomposition(trace):
    """Reference: the reconstruction checked residue by residue or window point by point."""
    m = looped_minimal_nonzero_member(trace)
    d = trace.period
    if d is None and m is None:
        return over_z(QIntervalSpec(0, 0), 1)
    if m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)
    mod = abs(m)
    if d is not None:
        residues = set(trace.members())
        if d % mod != 0 or residues != set(range(0, d, mod)):
            bad = next((r for r in range(d) if (r in residues) != (d % mod == 0 and r % mod == 0)), None)
            raise NotMidconvexTrace(f"periodic trace is not the multiples of {mod}", minimal=m, witness=bad)
        return over_z(UNBOUNDED, mod)
    members = trace.members()
    decomposition = over_z(QIntervalSpec(members[0], members[-1]), mod)
    for n in range(trace.lo, trace.hi + 1):
        if trace.contains(n) != decomposition.contains(n):
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
    # every subset containing 0 of every window [lo, hi], -6 <= lo <= 0 <= hi <= 6:
    # 127**2 = 16,129 traces
    count = 0
    for lo in range(-6, 1):
        for hi in range(0, 7):
            others = [n for n in range(lo, hi + 1) if n]
            for pattern in range(1 << len(others)):
                members = [0] + [n for k, n in enumerate(others) if pattern >> k & 1]
                trace = wset(lo, hi, members)
                assert minimal_nonzero_member(trace) == looped_minimal_nonzero_member(trace)
                assert outcome(decompose_trace, trace) == outcome(pointwise_decomposition, trace), trace
                count += 1
    assert count == 16129


def test_decompose_trace_matches_the_pointwise_check_on_all_periodic_traces_up_to_period_10():
    for period in range(1, 11):
        for pattern in range(1 << period):
            window_set = residue_set(period, [r for r in range(period) if pattern >> r & 1])
            assert minimal_nonzero_member(window_set) == looped_minimal_nonzero_member(window_set)
            if pattern & 1:
                assert outcome(decompose_trace, window_set) == outcome(pointwise_decomposition, window_set)


def members_minimal_nonzero_member(window_set):
    """Reference: the minimal nonzero member read from the tuple of members."""
    members = window_set.members()
    if window_set.period is not None and members:
        members = (members[-1] - window_set.period, *members, members[0] + window_set.period)
    return min((n for n in reversed(members) if n), key=abs, default=None)


def members_decompose_trace(trace):
    """Reference: decompose_trace with its reconstruction built as a set of members."""
    d = trace.period
    if not trace.contains(0):
        raise ValueError("a trace always contains 0")
    m = members_minimal_nonzero_member(trace)
    if m is None:
        return over_z(QIntervalSpec(0, 0), 1)
    if m % 2 == 0:
        raise NotMidconvexTrace(f"minimal nonzero trace element {m} is even", minimal=m)
    mod = abs(m)
    members = trace.members()
    if d is not None:
        interval = UNBOUNDED
        rebuilt = range(0, d, mod) if d % mod == 0 else range(0)
    else:
        interval = QIntervalSpec(members[0], members[-1])
        rebuilt = range(-(-members[0] // mod) * mod, members[-1] + 1, mod)
    differ = set(members).symmetric_difference(rebuilt)
    if differ:
        n = min(differ)
        if d is not None:
            reason = f"periodic trace is not the multiples of {mod}"
        else:
            reason = f"trace differs from interval-and-subgroup reconstruction at {n}"
        raise NotMidconvexTrace(reason, minimal=m, witness=n)
    return over_z(interval, mod)


def full_outcome(decompose, trace):
    """The description, or the error's type and message with a trace error's minimal and witness."""
    try:
        return decompose(trace)
    except (ValueError, NotMidconvexTrace) as e:
        return (type(e), str(e), getattr(e, "minimal", None), getattr(e, "witness", None))


def test_mask_reading_matches_the_members_reading_on_windows_and_periods():
    # every subset of every window with lo in [-6, 2] and width up to 9, 0
    # inside the window or not, and every pattern of every period up to 14
    traces = [
        IntWindowSet(lo, lo + width - 1, mask)
        for lo in range(-6, 3)
        for width in range(1, 10)
        for mask in range(1 << width)
    ]
    traces += [IntWindowSet(0, d - 1, mask, d) for d in range(1, 15) for mask in range(1 << d)]
    rejected = 0
    for trace in traces:
        assert minimal_nonzero_member(trace) == members_minimal_nonzero_member(trace), trace
        got, want = full_outcome(decompose_trace, trace), full_outcome(members_decompose_trace, trace)
        assert got == want, trace
        rejected += isinstance(want, tuple) and want[0] is NotMidconvexTrace
    assert len(traces) == 9 * 1022 + 32766 and rejected > 10_000


def test_decompose_trace_periodic_non_subgroup_fails():
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(residue_set(7, [0, 3, 4]))


def test_periodic_traces_accepted_are_exactly_the_odd_multiples():
    # in a finite group Theorem 1 leaves dZ/LZ with d odd and d | L as the
    # only decomposable traces of period L: all 4,095 patterns with 0 up to 12
    for period in range(1, 13):
        allowed = {frozenset(range(0, period, d)) for d in range(1, period + 1, 2) if period % d == 0}
        for pattern in range(1 << period - 1):
            residues = frozenset([0] + [r for r in range(1, period) if pattern >> r - 1 & 1])
            try:
                decompose_trace(residue_set(period, residues))
                accepted = True
            except NotMidconvexTrace:
                accepted = False
            assert accepted == (residues in allowed), (period, sorted(residues))


def test_decompose_trace_requires_zero():
    with pytest.raises(ValueError):
        decompose_trace(wset(0, 9, [3, 6]))


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
    assert decompose_z(residue_set(15, [13, 4, 10, 1, 7])).base == 1
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
                assert dec.contains(n) == window.contains(n)


def test_decompose_z_periodic_input():
    window = residue_set(15, [1, 4, 7, 10, 13])
    dec = decompose_z(window, 1)
    assert dec == over_z(UNBOUNDED, 3, 1)
    assert dec.contains(4) and dec.contains(-2) and not dec.contains(2)


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
    """Reference: a window set held as a Python set of members, every reading one member at a time."""

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
    """(mask-built set, member reference) pairs: windows and periods, random sets and progressions."""
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
            built = IntWindowSet.from_members(lo, hi, members + members[: len(members) // 2])
        yield built, MemberSet(lo, hi, members, d if periodic else None)


def test_mask_windows_match_the_member_set_reference():
    rng = random.Random(2026)
    decomposed = failed = 0
    for built, ref in seeded_windows(rng, 600):
        lo, hi = ref.lo, ref.hi
        assert (built.lo, built.hi, built.period) == (lo, hi, ref.period)
        assert built.members() == ref.members() and (not built.mask) == (not ref.inside)
        span = range(lo - 2 * (hi - lo + 1), hi + 2 * (hi - lo + 1) + 1)
        assert [built.contains(n) for n in span] == [ref.contains(n) for n in span], built
        witness = member_witness(ref)
        if ref.period is None:
            assert midconvex_z_witness(built) == witness, built
        for x in ref.members()[:6]:
            for g in (1, -1, 2, -3, 5, hi - lo + 1):
                trace = trace_z(built, x, g)
                assert (trace.lo, trace.hi, trace.members()) == member_trace(ref, x, g), (built, x, g)
            try:
                dec = decompose_z(built, x)
            except NotMidconvexTrace:
                assert witness is not None, (built, x)
                failed += 1
                continue
            assert witness is None and dec.base == x, (built, x)
            assert [dec.contains(n) for n in span] == [ref.contains(n) for n in span], (built, x)
            decomposed += 1
        if ref.inside and witness is None:
            # the default base is the least member
            assert decompose_z(built).base == min(ref.inside), built
    assert decomposed > 300 and failed > 300, (decomposed, failed)
