"""Midconvexity predicate, closure, traces and the three decomposition routes."""

import functools
import hashlib
import inspect
import json
import math
import pathlib
import random
import re
import subprocess
import time
from fractions import Fraction as F

import pytest

from midconvex import engine, harness
from midconvex.engine import (
    _sampled_violation,
    closed_traces,
    decompose_periodic,
    decompose_rational,
    decompose_rational_set,
    described_members,
    described_midconvex_witness,
    draw_lattice_points,
    is_midconvex,
    is_midconvex_q_finite,
    lattice_trace,
    lemma1_holds_in_group,
    midconvex_bits,
    midconvex_closure,
    midconvex_witness,
    rational_closure,
    theorem1_bits,
    theorem3_if_violation,
    trace_in_group,
    verify_theorem1,
)
from midconvex.errors import CapExceeded, NotMidconvex, NotMidconvexTrace
from midconvex.groups import (
    FiniteAbelianGroup, GroupElement, GroupSubset, is_subgroup, make_group, mask_of, periodic_mask, set_bits
)
from midconvex.harness import enumerate_abelian_groups
from midconvex.intsets import IntWindowSet, PeriodicTrace, decompose_trace, decompose_z
from midconvex.rationals import (
    QIntervalSpec,
    RationalGroupDescriptor,
    RationalMidconvexDescription,
    cyclic_chain,
    is_two_pure,
    two_pure_closure,
)


def subset(group, elements):
    return GroupSubset.from_elements(group, elements)


def desc(gen, primes=()):
    return RationalGroupDescriptor(F(gen), frozenset(primes))


def naive_is_midconvex(group, members):
    """Oracle: the definition over all pairs, via exhaustive halving."""
    members = set(members)
    for x in members:
        for y in members:
            target = x + y
            for z in group:
                if z + z == target and z not in members:
                    return False
    return True


def every_subset_columns(n):
    """Bit k of column i is bit i of k, for every k < 2**n: runs of 2**i zeros and 2**i ones."""
    return [periodic_mask(((1 << w) - 1) << w, 2 * w, 1 << n) for w in (1 << i for i in range(n))]


def transposed_columns(n, masks):
    """Reference transposition of a list of masks: bit k of column i is bit i of masks[k]."""
    # row strings put bit n - 1 first and the last mask on top, so the
    # columns of the zipped rows read highest element and highest k first
    rows = [format(m, f"0{n}b") for m in reversed(masks)]
    return [int("".join(bits), 2) for bits in reversed(list(zip(*rows)))]


# -- predicate and closure -------------------------------------------------


def test_is_midconvex_examples():
    g4 = make_group([4])
    witness = midconvex_witness(g4, subset(g4, [0]))
    assert witness is not None
    assert tuple(v.residues for v in witness) == ((0,), (0,), (2,))

    g5 = make_group([5])
    assert is_midconvex(g5, subset(g5, [2]))
    assert is_midconvex(g5, GroupSubset(g5, 0))
    assert is_midconvex(g5, GroupSubset(g5, 0b11111))


def test_is_midconvex_requires_equal_pair_checks():
    # {0,3} in Z6 is the order-2 subgroup: index 3, midconvex; while {0} in Z4
    # fails precisely on the pair x = y = 0
    g6 = make_group([6])
    assert is_midconvex(g6, subset(g6, [0, 3]))
    g4 = make_group([4])
    assert not is_midconvex(g4, subset(g4, [0, 2]))


def test_is_midconvex_matches_definition_exhaustively():
    for orders in ([4], [5], [2, 3], [8], [2, 2, 2], [9]):
        group = make_group(orders)
        for mask in range(1 << group.order):
            members = GroupSubset(group, mask).members()
            assert is_midconvex(group, GroupSubset(group, mask)) == naive_is_midconvex(
                group, members
            )



def test_midconvex_bits_match_the_per_subset_predicate():
    # the bit-sliced pass against is_midconvex, the per-subset reference, on
    # every subset of every group up to order 10
    for group in enumerate_abelian_groups(10):
        masks = range(1 << group.order)
        columns = every_subset_columns(group.order)
        expected = sum(
            1 << k for k in masks if is_midconvex(group, GroupSubset(group, masks[k]))
        )
        assert midconvex_bits(group, columns, len(masks)) == expected, str(group)


def test_midconvex_bits_form_pair_sums_only_at_doubles(monkeypatch, cold_caches):
    # on a cold table Z(2x2x2x2) forms one sum, 0 = 2G, from its 16 pairs (i, i)
    sums, add_index = [], FiniteAbelianGroup.add_index
    monkeypatch.setattr(FiniteAbelianGroup, "add_index", lambda *args: sums.append(add_index(*args)) or sums[-1])
    group = make_group([2, 2, 2, 2])
    assert midconvex_bits(group, every_subset_columns(16), 1 << 16).bit_count() == 2
    assert sums == [0] * 16
    assert engine._double_sums(group) == ((tuple(range(16)),) * 3,)
    # seeded masks, each a midconvex closure of up to three members, half of
    # them with one bit flipped, against the per-subset predicate
    rng = random.Random(31)
    for orders in ([2, 2, 8], [4, 4], [2, 16], [3, 9]):
        group = make_group(orders)
        masks = []
        for _ in range(300):
            start = GroupSubset.from_indices(group, rng.sample(range(group.order), rng.randint(1, 3)))
            mask = midconvex_closure(group, start).mask
            masks.append(mask ^ (1 << rng.randrange(group.order)) * rng.randint(0, 1))
        bits = midconvex_bits(group, transposed_columns(group.order, masks), len(masks))
        truths = [is_midconvex(group, GroupSubset(group, m)) for m in masks]
        assert [bits >> k & 1 for k in range(len(masks))] == truths, str(group)
        assert 0 < sum(truths) < len(masks), str(group)


def test_subset_columns_transpose_a_list_of_masks():
    rng = random.Random(3)
    for orders in ([1], [6], [2, 2, 2], [3, 3]):
        group = make_group(orders)
        n = group.order
        # the closed form for every subset equals the transposed list
        assert every_subset_columns(n) == transposed_columns(n, list(range(1 << n)))
        masks = [rng.getrandbits(n) for _ in range(50)] + [0, (1 << n) - 1, 0]
        columns = transposed_columns(n, masks)
        assert all(
            (columns[i] >> k & 1) == (m >> i & 1) for k, m in enumerate(masks) for i in range(n)
        )
        bits = midconvex_bits(group, columns, len(masks))
        assert [bits >> k & 1 for k in range(len(masks))] == [
            is_midconvex(group, GroupSubset(group, m)) for m in masks
        ]

def test_midconvex_closure_examples():
    g4 = make_group([4])
    assert midconvex_closure(g4, subset(g4, [0])) == GroupSubset(g4, 0b1111)
    g15 = make_group([15])
    assert midconvex_closure(g15, subset(g15, [0, 1])) == GroupSubset(g15, (1 << 15) - 1)
    g5 = make_group([5])
    assert midconvex_closure(g5, subset(g5, [2])) == subset(g5, [2])


def test_midconvex_closure_laws_small():
    rng = random.Random(5)
    for orders in ([6], [8], [2, 2, 3], [12]):
        group = make_group(orders)
        for _ in range(20):
            x = GroupSubset(group, rng.getrandbits(group.order))
            y = GroupSubset(group, x.mask | rng.getrandbits(group.order))
            cx, cy = midconvex_closure(group, x), midconvex_closure(group, y)
            assert x.mask & ~cx.mask == 0
            assert cx.mask & ~cy.mask == 0
            assert midconvex_closure(group, cx) == cx
            assert is_midconvex(group, cx)
            assert is_midconvex(group, x) == (cx == x)


def halving_mask(group, s):
    """Mask of the indices z with 2z the element at index s."""
    return GroupSubset.from_indices(group, group.halving_indices(s)).mask


def worklist_closure(group, subset):
    """Reference: a worklist fixpoint that adds every missing halving point of every pair."""
    # there are |G| sums, so each halving mask is built once
    halving = functools.cache(functools.partial(halving_mask, group))
    mask = subset.mask
    members = list(subset.indices())
    work = list(members)
    while work:
        a = work.pop()
        for b in list(members):
            s = group.add_index(a, b)
            new = halving(s) & ~mask
            while new:
                low = new & -new
                zi = low.bit_length() - 1
                mask |= low
                members.append(zi)
                work.append(zi)
                new ^= low
    return GroupSubset(group, mask)


def test_closed_form_closure_matches_the_worklist_on_every_subset_up_to_order_10():
    for group in enumerate_abelian_groups(10):
        for mask in range(1 << group.order):
            x = GroupSubset(group, mask)
            assert midconvex_closure(group, x) == worklist_closure(group, x), (group, mask)


def test_closed_form_closure_matches_the_worklist_on_random_subsets_up_to_order_24():
    rng = random.Random(24)
    for group in enumerate_abelian_groups(24):
        for _ in range(30):
            x = GroupSubset(group, rng.getrandbits(group.order))
            assert midconvex_closure(group, x) == worklist_closure(group, x), (group, x.mask)


def multiple(group, k, g):
    total = 0
    for _ in range(k):
        total = group.add_index(total, g)
    return total


# a few multiples of g around x, with g a random element times each odd
# divisor k of the order in turn, so the closures range from x + G_2 to the
# whole group; in Z(1024) every nonempty closure is the whole group
@pytest.mark.parametrize("orders", [[600], [2, 300], [1024]], ids=str)
def test_closed_form_closure_matches_the_worklist_at_orders_above_512(orders):
    group = make_group(orders)
    rng = random.Random(group.order)
    for k in range(1, group.order, 2):
        if group.order % k:
            continue
        x = rng.randrange(group.order)
        g = multiple(group, k, rng.randrange(group.order))
        members = {group.add_index(x, multiple(group, rng.randrange(4), g)) for _ in range(4)}
        subset = GroupSubset.from_indices(group, members)
        assert midconvex_closure(group, subset) == worklist_closure(group, subset), (group, members)


def ordered_pair_witness(group, subset):
    """Reference: the first witness when every ordered pair (x, y) is scanned."""
    missing = ~subset.mask
    idxs = list(subset.indices())
    for xi in idxs:
        for yi in idxs:
            bad = halving_mask(group, group.add_index(xi, yi)) & missing
            if bad:
                zi = (bad & -bad).bit_length() - 1
                return (group.element_at(xi), group.element_at(yi), group.element_at(zi))
    return None


def test_unordered_pair_scan_finds_the_ordered_scan_witness_up_to_order_10():
    for group in enumerate_abelian_groups(10):
        for mask in range(1 << group.order):
            witness = midconvex_witness(group, GroupSubset(group, mask))
            assert witness == ordered_pair_witness(group, GroupSubset(group, mask)), (group, mask)


def test_pair_scan_of_a_large_listed_coset_is_fast():
    # the multiples of 729 in Z(3**12): a |G|-bit halving mask per pair took 36 s
    group = make_group([3**12])
    coset = GroupSubset.from_indices(group, range(0, group.order, 729))
    started = time.perf_counter()
    assert midconvex_witness(group, coset) is None
    assert time.perf_counter() - started < 5


# -- traces and the first decomposition route --------------------------------


def test_trace_in_group_examples():
    g15 = make_group([15])
    coset = subset(g15, [1, 4, 7, 10, 13])
    trace = trace_in_group(g15, coset, g15.element([1]), g15.element([1]))
    assert trace.period == 15
    assert tuple(set_bits(trace.mask)) == (0, 3, 6, 9, 12)

    zero_trace = trace_in_group(g15, coset, g15.element([1]), g15.element_at(0))
    assert zero_trace.period == 1
    assert tuple(set_bits(zero_trace.mask)) == (0,)

    g4 = make_group([4])
    trace2 = trace_in_group(g4, subset(g4, [0]), g4.element_at(0), g4.element([2]))
    assert trace2.period == 2
    assert tuple(set_bits(trace2.mask)) == (0,)
    with pytest.raises(NotMidconvexTrace):
        decompose_trace(trace2)


def bitwise_trace(group, mask, xi, gi):
    """Reference: the trace read with one shift of the mask per step of the walk."""
    residues, n, i = [0], 1, group.add_index(xi, gi)
    while i != xi:
        if mask >> i & 1:
            residues.append(n)
        n, i = n + 1, group.add_index(i, gi)
    return PeriodicTrace(n, mask_of(n, residues))


def test_trace_matches_the_per_bit_reading_on_every_subset_up_to_order_8():
    for group in enumerate_abelian_groups(8):
        for mask in range(1, 1 << group.order):
            s = GroupSubset(group, mask)
            for xi in s.indices():
                for gi in range(group.order):
                    x, g = group.element_at(xi), group.element_at(gi)
                    expected = bitwise_trace(group, mask, xi, gi)
                    assert trace_in_group(group, s, x, g) == expected, (str(group), mask, x, g)


def test_trace_of_a_full_set_is_linear_at_order_2_to_the_18():
    # one shift of the 2**18-bit mask per step took 1.7 s (2-vCPU Xeon)
    group = make_group([2**18])
    full = GroupSubset(group, (1 << group.order) - 1)
    started = time.perf_counter()
    trace = trace_in_group(group, full, group.element([0]), group.element([1]))
    assert time.perf_counter() - started < 1
    assert trace.period == 2**18 and trace.mask == (1 << 2**18) - 1


def test_trace_walks_in_closed_form_without_add_index(monkeypatch):
    # stepping the walk made one add_index call per step, 2**18 here
    calls = []
    add_index = FiniteAbelianGroup.add_index
    monkeypatch.setattr(FiniteAbelianGroup, "add_index", lambda self, i, j: calls.append(i) or add_index(self, i, j))
    group = make_group([2**18])
    mask = GroupSubset.from_indices(group, [3, 5, 2**17 + 3]).mask
    trace = engine._trace(group, mask, 3, 1)
    assert (trace.period, tuple(set_bits(trace.mask))) == (2**18, (0, 2, 2**17))
    assert calls == []


def seeded_trace_cases(seed):
    """1,280 seeded (group, mask, xi, gi): factors that share primes, Z(1), g = 0 and densities from 0 to 1."""
    rng = random.Random(seed)
    shapes = ([1], [12, 18], [4, 6, 10], [2, 2, 4], [9, 27], [3, 5, 7], [64], [6, 10, 15])
    for orders in shapes:
        group = make_group(orders)
        for density in (0, 0.1, 0.5, 0.9, 1):
            for _ in range(32):
                mask = sum(1 << i for i in range(group.order) if rng.random() < density)
                gi = 0 if rng.random() < 0.15 else rng.randrange(group.order)
                yield group, mask, rng.randrange(group.order), gi


def walk_mismatches():
    """The seeded cases where trace_in_group differs from engine._trace, the walk of ord(g) steps."""
    mismatches = []
    for group, mask, xi, gi in seeded_trace_cases(32):
        trace = trace_in_group(group, GroupSubset(group, mask), group.element_at(xi), group.element_at(gi))
        if trace != engine._trace(group, mask, xi, gi):
            mismatches.append((str(group), mask, xi, gi))
    return mismatches


def test_trace_in_group_equals_the_walk_on_seeded_cases():
    assert walk_mismatches() == []


def test_a_closed_form_that_drops_one_member_fails_the_walk_comparison(monkeypatch):
    # the highest coset member read is lost, as a reader one short would lose it
    monkeypatch.setattr(engine, "set_bits", lambda mask: list(set_bits(mask))[:-1])
    assert len(walk_mismatches()) > 100


def test_trace_in_group_makes_no_add_index_call(monkeypatch):
    # the walk stepped once per element; the closed form scales g by index digits
    calls = []
    add_index = FiniteAbelianGroup.add_index
    monkeypatch.setattr(FiniteAbelianGroup, "add_index", lambda self, i, j: calls.append(i) or add_index(self, i, j))
    for orders, x, g in (([2**18], (3,), (6,)), ([12, 18], (1, 5), (2, 3)), ([4, 6, 10], (3, 1, 4), (1, 5, 9))):
        group = make_group(orders)
        full = GroupSubset(group, (1 << group.order) - 1)
        trace = trace_in_group(group, full, group.element(x), group.element(g))
        assert trace.mask == (1 << trace.period) - 1
    assert calls == []


def best_of_three(call):
    times = []
    for _ in range(3):
        started = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - started)
    return min(times), result


@pytest.mark.parametrize(
    "case", ["Z(1024x1024) full", "Z(2^20) 20 members by 2^19", "Z(2^20) 20 members by 1", "Z(3)^12"]
)
def test_traces_of_large_groups_take_milliseconds(case):
    # measured on a 2-vCPU Xeon, best of five: the closed form 2.1, 0.1, 5.1
    # and 1.8 ms; the walk of ord(g) steps 2.9, 3.3, 161 and 1.1 ms. Each
    # bound is ten times the closed form or more; solving all 2**20 members
    # of X on the first, not only the 1,024 in x + <g>, took 404 ms
    rng = random.Random(7)
    if case == "Z(1024x1024) full":
        orders, x, g, bound = [1024, 1024], (3, 5), (1, 1), 0.025
        mask = (1 << 2**20) - 1
    elif case == "Z(3)^12":
        orders, x, g, bound = [3] * 12, (0,) * 12, (1,) * 12, 0.02
        mask = rng.getrandbits(3**12)
    else:
        by_half = case.endswith("2^19")
        orders, x, g, bound = [2**20], (0,), (2**19 if by_half else 1,), 0.002 if by_half else 0.06
        mask = mask_of(2**20, rng.sample(range(2**20), 20))
    group = make_group(orders)
    subset, x, g = GroupSubset(group, mask), group.element(x), group.element(g)
    elapsed, trace = best_of_three(lambda: trace_in_group(group, subset, x, g))
    assert trace == engine._trace(group, mask, group.index_of(x), group.index_of(g))
    assert elapsed < bound, elapsed


def test_verify_theorem1_examples():
    g4 = make_group([4])
    assert not verify_theorem1(g4, subset(g4, [0]))
    g15 = make_group([15])
    assert verify_theorem1(g15, subset(g15, [1, 4, 7, 10, 13]))
    assert verify_theorem1(g15, GroupSubset(g15, (1 << 15) - 1))


def test_verify_theorem1_equals_is_midconvex_small():
    for orders in ([4], [5], [6], [2, 2], [7], [8], [3, 3]):
        group = make_group(orders)
        for mask in range(1 << group.order):
            s = GroupSubset(group, mask)
            assert verify_theorem1(group, s) == is_midconvex(group, s)


def accepted_traces(period, exhaustive):
    """Reference verdict table: the traces of this period that engine.decompose_trace accepts, each asked about.

    Exhaustive asks about every residue pattern that contains 0; otherwise
    only the multiples of each odd divisor of the period, bit r for residue r.
    """
    if exhaustive:
        patterns = range(1, 1 << period, 2)
    else:
        patterns = [periodic_mask(1, d, period) for d in range(1, period + 1, 2) if period % d == 0]
    accepted = []
    for pattern in patterns:
        try:
            engine.decompose_trace(PeriodicTrace(period, pattern))
        except NotMidconvexTrace:
            continue
        accepted.append(pattern)
    return tuple(accepted)


def test_theorem1_bits_equal_verify_theorem1_on_every_subset_up_to_order_10():
    closed = {period: closed_traces(period, True) for period in range(1, 11)}
    for group in enumerate_abelian_groups(10):
        masks = range(1 << group.order)
        bits = theorem1_bits(group, every_subset_columns(group.order), len(masks), closed)
        expected = sum(1 << k for k in masks if verify_theorem1(group, GroupSubset(group, k)))
        assert bits == expected, str(group)


def per_member_theorem1_bits(group, columns, count, accepted):
    """Reference: theorem1_bits reading the walk from every member along every g."""
    n = group.order
    missing = [~column for column in columns]
    bad = 0
    for gi in range(n):
        patterns = accepted[group.index_order(gi)]
        for xi in range(n):
            walk = list(group.walk(xi, gi))
            ok = 0
            for pattern in patterns:
                match = columns[xi]
                for r in range(1, len(walk)):
                    match &= columns[walk[r]] if pattern >> r & 1 else missing[walk[r]]
                ok |= match
            bad |= columns[xi] & ~ok
    return ((1 << count) - 1) & ~bad


def plant_verdicts(monkeypatch, accepted):
    """Make engine.decompose_trace accept exactly the masks of accepted[period]."""

    def planted(trace):
        if trace.mask not in accepted[trace.period]:
            raise NotMidconvexTrace("planted rejection")

    monkeypatch.setattr(engine, "decompose_trace", planted)


def test_theorem1_bits_match_the_references_on_faulty_verdicts(monkeypatch):
    # 40 seeded verdict tables that drop accepted patterns and add rejected
    # ones, with 0 in every pattern, over every subset of every group up to
    # order 8; then two tables planted over Z(5), and two that turn
    # theorem1_bits' skip of a subgroup whose every pattern passes on and off
    rng = random.Random(18)
    periods = range(1, 9)
    honest = {period: set(accepted_traces(period, True)) for period in periods}
    tables = [
        {
            period: {p for p in range(1, 1 << period, 2) if rng.random() < (0.8 if p in honest[period] else 0.2)}
            for period in periods
        }
        for _ in range(40)
    ]
    # {0,1} mod 5 and its rotation {0,4} accepted, but not their images
    # {0,2} and {0,3} under the unit 2: the generator 2 of Z(5) rejects {0,1}
    tables.append({**honest, 5: honest[5] | {0b00011, 0b10001}})
    # {0,1} mod 5 accepted, but not its rotation {0,4}: the class fails at its second member
    tables.append({**honest, 5: honest[5] | {0b00011}})
    # the full trace of period 1 rejected: <0> is read walk by walk, and no
    # nonempty subset passes
    rejects_period_1 = {**honest, 1: set()}
    # every pattern of period 3 accepted: its table holds all 2**3 patterns,
    # so the subgroups of order 3 are not read
    accepts_period_3 = {**honest, 3: set(range(1, 1 << 3, 2))}
    tables += [rejects_period_1, accepts_period_3]
    groups = enumerate_abelian_groups(8)
    columns = {group: every_subset_columns(group.order) for group in groups}
    for number, table in enumerate(tables):
        plant_verdicts(monkeypatch, table)
        closed = {period: closed_traces(period, True) for period in periods}
        accepted = {period: accepted_traces(period, True) for period in periods}
        for group in groups:
            count = 1 << group.order
            got = theorem1_bits(group, columns[group], count, closed)
            assert got == per_member_theorem1_bits(group, columns[group], count, accepted), (number, str(group))
            if number % 4 == 0 or number >= 40:
                expected = sum(1 << k for k in range(count) if verify_theorem1(group, GroupSubset(group, k)))
                assert got == expected, (number, str(group))
        if table is rejects_period_1:
            assert closed[1] == ((0,),)
        if table is accepts_period_3:
            assert len(closed[3]) == 1 << 3


def test_closed_traces_ask_about_each_class_up_to_its_first_rejection(monkeypatch, cold_caches):
    # the classes of period 5: {1}, {3,17}, {5,9}, {7,19,25}, {11,13,21},
    # {15,23,27,29} and {31}, each a pattern's rotations to its members
    singletons = ((0,) * 5,) + tuple(tuple(int(r == t) for r in range(5)) for t in range(5))
    for table, asked_for in [
        # {0,1} and its rotation {0,4} pass as a class, but the unit 2 reads
        # {0,1} as {0,2}, whose class fails: no rotation of {0,1} is kept
        ({1, 0b00011, 0b10001}, [1, 3, 17, 5, 7, 11, 15, 31]),
        # {0,1} accepted, but its class fails at its second member {0,4}
        ({1, 0b00011}, [1, 3, 17, 5, 7, 11, 15, 31]),
        # {0,1} rejected: its class is decided at its first member
        ({1, 0b10001}, [1, 3, 5, 7, 11, 15, 31]),
    ]:
        plant_verdicts(monkeypatch, {5: table})
        asked = []
        decompose = engine.decompose_trace
        monkeypatch.setattr(engine, "decompose_trace", lambda trace: asked.append(trace.mask) or decompose(trace))
        assert closed_traces(5, True) == singletons
        assert asked == asked_for


def test_candidate_traces_are_the_accepted_ones_up_to_period_12():
    # above the exhaustive cap only the odd-modulus candidates are asked about
    for period in range(1, 13):
        assert sorted(accepted_traces(period, False)) == sorted(accepted_traces(period, True))
        assert closed_traces(period, False) == closed_traces(period, True)
    # 15 has the odd divisors 1, 3, 5 and 15
    assert sorted(accepted_traces(15, False)) == [1, 0b10000100001, 0b1001001001001, 0b111111111111111]
    # their cosets, 1 + 3 + 5 + 15 of them, and the empty pattern
    assert len(closed_traces(15, False)) == 25


# -- the periodic decomposition route ----------------------------------------


def test_decompose_periodic_examples():
    g15 = make_group([15])
    coset = subset(g15, [1, 4, 7, 10, 13])
    dec = decompose_periodic(g15, coset, g15.element([1]))
    assert sorted(e.residues[0] for e in dec.subgroup.members()) == [0, 3, 6, 9, 12]
    assert dec.index == 3

    g4 = make_group([4])
    with pytest.raises(NotMidconvex):
        decompose_periodic(g4, subset(g4, [0, 2]), g4.element_at(0))

    full = GroupSubset(g15, (1 << 15) - 1)
    assert decompose_periodic(g15, full, g15.element([7])).index == 1


def test_decompose_periodic_defaults_to_the_least_member():
    g15 = make_group([15])
    dec = decompose_periodic(g15, subset(g15, [13, 4, 7, 1, 10]))
    assert dec.base == g15.element([1]) and dec.index == 3
    with pytest.raises(ValueError, match="cannot decompose the empty set"):
        decompose_periodic(g15, GroupSubset(g15, 0))
    # the empty set is reported before the base is checked
    with pytest.raises(ValueError, match="cannot decompose the empty set"):
        decompose_periodic(g15, GroupSubset(g15, 0), g15.element([2]))


def test_decompose_periodic_is_base_independent_for_midconvex_sets():
    g15 = make_group([15])
    coset = subset(g15, [1, 4, 7, 10, 13])
    masks = {
        decompose_periodic(g15, coset, x).subgroup.mask for x in coset.members()
    }
    assert len(masks) == 1


def test_decompose_periodic_not_a_subgroup_reason():
    g9 = make_group([9])
    with pytest.raises(NotMidconvex, match="not a subgroup"):
        decompose_periodic(g9, subset(g9, [0, 1]), g9.element_at(0))


def test_decompose_periodic_agrees_with_predicate_small():
    for orders in ([4], [5], [6], [8], [2, 2, 2], [9], [2, 5]):
        group = make_group(orders)
        for mask in range(1, 1 << group.order):
            s = GroupSubset(group, mask)
            ok = True
            for x in s.members():
                try:
                    decompose_periodic(group, s, x)
                except NotMidconvex:
                    ok = False
                    break
            assert ok == is_midconvex(group, s)


def doubling_claim_check(group, subset, x):
    """True iff X - x is closed under doubling; holds for midconvex X."""
    shifted = group.translate_mask(subset.mask, group.scale_index(x.index, -1))
    return all(shifted >> group.add_index(a, a) & 1 for a in set_bits(shifted))


def test_doubling_claim_examples():
    g15 = make_group([15])
    assert doubling_claim_check(g15, subset(g15, [1, 4, 7, 10, 13]), g15.element([1]))
    g5 = make_group([5])
    assert doubling_claim_check(g5, subset(g5, [2]), g5.element([2]))
    g9 = make_group([9])
    assert doubling_claim_check(g9, subset(g9, [0, 3, 6]), g9.element_at(0))


def test_lemma1_lift_detects_gappy_traces():
    g15 = make_group([15])
    coset = subset(g15, [1, 4, 7, 10, 13])
    assert lemma1_holds_in_group(g15, coset, g15.element([1]), g15.element([4]))
    # {0,1} in Z15 is not midconvex and its trace along 1 has gaps
    bad = subset(g15, [0, 1])
    assert not lemma1_holds_in_group(g15, bad, g15.element_at(0), g15.element([1]))


def test_lemma1_failures_match_the_per_pair_check_on_every_subset_up_to_order_8():
    # every subset, midconvex or not, against lemma1_holds_in_group at every
    # pair of distinct members: bit k is set where some pair of subset k
    # fails; the bits outside `within` are never set, whether within is every
    # subset, two in three, a seeded sparse draw or none
    rng, failing = random.Random(8), 0
    for group in enumerate_abelian_groups(8):
        masks = range(1 << group.order)
        columns = every_subset_columns(group.order)
        elements = list(group)
        expected = 0
        for k in masks:
            subset = GroupSubset(group, k)
            members = [elements[i] for i in subset.indices()]
            if any(x != y and not lemma1_holds_in_group(group, subset, x, y) for x in members for y in members):
                expected |= 1 << k
        assert engine.lemma1_failures(group, columns, (1 << len(masks)) - 1) == expected, str(group)
        within = sum(1 << k for k in masks if k % 3)
        assert engine.lemma1_failures(group, columns, within) == expected & within, str(group)
        within = rng.getrandbits(len(masks)) & rng.getrandbits(len(masks)) & rng.getrandbits(len(masks))
        assert engine.lemma1_failures(group, columns, within) == expected & within, str(group)
        assert engine.lemma1_failures(group, columns, 0) == 0
        failing += expected.bit_count()
    assert failing == 662


@pytest.mark.parametrize(
    "orders,members",
    [
        ([15], [1, 4, 7, 10, 13]),
        ([3, 9], [(1, 2), (1, 5), (1, 8)]),
        ([5] * 5, [(a, 1, 2, 3, 4) for a in range(5)]),
    ],
    ids=["Z(15)", "Z(3x9)", "Z(5x5x5x5x5)"],
)
def test_finite_queries_on_a_midconvex_set_build_no_group_elements(monkeypatch, orders, members):
    group = make_group(orders)
    coset = subset(group, members)
    x, y = coset.members()[:2]
    g = group.element_at(group.order - 1)
    built = []
    original = GroupElement.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counting)
    assert trace_in_group(group, coset, x, g).period == g.order()
    dec = decompose_periodic(group, coset, x)
    assert is_subgroup(dec.subgroup)
    assert lemma1_holds_in_group(group, coset, x, y)
    assert verify_theorem1(group, coset)
    assert built == []


# -- closure and traces of rational sets ---------------------------------------


def test_rational_closure_examples():
    assert rational_closure(desc(1, [2]), []) is None
    # the span 12 loses its power of 2 in Z, so the step is 3
    closure = rational_closure(desc(1), [F(12), F(0)])
    assert described_members(closure) == tuple(F(k) for k in range(0, 13, 3))
    # odd inverted primes leave the closure finite
    assert described_members(rational_closure(desc(1, [3]), [F(0), F(1)])) == (F(0), F(1))
    # with 2 inverted two points spread densely; one point stays one
    dense = rational_closure(desc(1, [2]), [F(0), F(1)])
    assert str(dense) == "conv[0,1] ∩ ((1,[2]) + 0)" and described_members(dense) is None
    assert described_members(rational_closure(desc(1, [2]), [F(7)])) == (F(7),)


def test_described_members_lists_finite_sets_only():
    def described(lower, upper, sub, base, **closed):
        return RationalMidconvexDescription(QIntervalSpec(lower, upper, **closed), sub, base)

    assert described_members(described(F(-1), F(5), desc(2), F(1))) == (F(-1), F(1), F(3), F(5))
    half_open = described(F(0), F(4), desc(2), F(0), upper_closed=False)
    assert described_members(half_open) == (F(0), F(2))
    assert described_members(described(F(1, 2), F(1, 2), desc(1, [2]), F(1, 2))) == (F(1, 2),)
    assert described_members(described(F(0), F(1), desc(1, [3]), F(0))) is None
    assert described_members(described(None, F(1), desc(1), F(0))) is None
    # the count is checked before any member is built
    with pytest.raises(CapExceeded, match="500001 lattice points to list, cap is 500000"):
        described_members(described(F(0), F(500_000), desc(1), F(0)))


def test_lattice_trace_reads_the_whole_trace(monkeypatch):
    dyadic = RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), desc(1, [2]), F(0))
    assert str(lattice_trace(dyadic, F(0), F(1, 4))) == "conv[0,4] ∩ ((1,[]) + 0)"
    assert str(lattice_trace(dyadic, F(0), F(1, 128))) == "conv[0,128] ∩ ((1,[]) + 0)"
    # the base of a described trace is the member nearest its residue r, 0 <= r < m
    tail = RationalMidconvexDescription(QIntervalSpec(None, F(7, 2)), desc(1, [3]), F(0))
    assert str(lattice_trace(tail, F(0), F(-1, 9))) == "conv[-31,inf] ∩ ((1,[]) + 0)"
    assert str(lattice_trace(tail, F(-20), F(2))) == "conv[-inf,11] ∩ ((1,[]) + 0)"
    assert str(lattice_trace(tail, F(20), F(2))) == "conv[-inf,-9] ∩ ((1,[]) + -9)"
    odd = RationalMidconvexDescription(QIntervalSpec(F(7)), desc(3), F(10))
    assert str(lattice_trace(odd, F(0), F(1))) == "conv[7,inf] ∩ ((3,[]) + 7)"
    assert str(lattice_trace(odd, F(11), F(-1))) == "conv[-inf,4] ∩ ((3,[]) + 1)"
    # a finite trace is shown on the span of 0 and its members
    assert str(lattice_trace([F(0), F(3), F(6)], F(3), F(3))) == "{-1,0,1}@window[-1,1]"
    assert str(lattice_trace([F(0), F(1), F(2), F(500)], F(0), F(1))) == "{0,1,2,500}@window[0,500]"
    assert str(lattice_trace([F(5), F(1, 3)], F(0), F(1, 2))) == "{10}@window[0,10]"
    assert str(lattice_trace([F(-7)], F(1), F(1))) == "{-8}@window[-8,0]"
    assert str(lattice_trace([], F(0), F(1))) == "{}@window[0,0]"
    assert str(lattice_trace(dyadic, F(1, 2), F(3))) == "conv[0,0] ∩ ((1,[]) + 0)"
    assert str(lattice_trace(dyadic, F(2), F(1))) == "conv[-2,-1] ∩ ((1,[]) + -1)"
    assert str(lattice_trace(dyadic, F(2), F(3))) == "{}@window[0,0]"
    # both reach cases are answered in closed form: no point is tested
    monkeypatch.setattr(RationalMidconvexDescription, "contains", None)
    far = 10**18
    assert str(lattice_trace([F(0), F(far)], F(0), F(1))) == f"{{0,{far}}}@window[0,{far}]"
    wide = RationalMidconvexDescription(QIntervalSpec(F(-far), F(far)), desc(1), F(0))
    assert str(lattice_trace(wide, F(0), F(1))) == f"conv[{-far},{far}] ∩ ((1,[]) + 0)"
    with pytest.raises(ValueError, match="trace direction must be nonzero"):
        lattice_trace(dyadic, F(0), F(0))


# the per-point reference scans k in [-TRACE_SCAN, TRACE_SCAN]
TRACE_SCAN = 1000


def scanned_trace(members, x, g, reach=TRACE_SCAN):
    """Reference: the k in [-reach, reach] with x + k*g in the set, one test a point.

    Every point and end is an integer numerator over one denominator D, so
    each test is an integer one: a finite set holds the point when its
    numerator is a member's, and a described set when its interval's ends
    admit it and the subgroup's `modulus` of D divides its distance to the base.
    """
    ks = range(-reach, reach + 1)
    if not isinstance(members, RationalMidconvexDescription):
        points = [F(p) for p in members]
        d = math.lcm(x.denominator, g.denominator, *(p.denominator for p in points))
        nums = {int(p * d) for p in points}
        big_x, big_g = int(x * d), int(g * d)
        return [k for k in ks if big_x + k * big_g in nums]
    interval = members.interval
    ends = [e for e in (interval.lower, interval.upper) if e is not None]
    d = math.lcm(x.denominator, g.denominator, members.base.denominator, *(e.denominator for e in ends))
    big_x, big_g, big_b, w = int(x * d), int(g * d), int(members.base * d), members.subgroup.modulus(d)
    lo = None if interval.lower is None else (int(interval.lower * d), interval.lower_closed)
    hi = None if interval.upper is None else (int(interval.upper * d), interval.upper_closed)
    inside = []
    for k in ks:
        n = big_x + k * big_g
        if lo is not None and (n < lo[0] or (n == lo[0] and not lo[1])):
            continue
        if hi is not None and (n > hi[0] or (n == hi[0] and not hi[1])):
            continue
        if (n - big_b) % w == 0:
            inside.append(k)
    return inside


def assert_described_trace_is_scanned(trace, scan, label):
    """A described trace agrees with the scan at every k; a bounded end is the scan's extreme member."""
    if isinstance(trace, IntWindowSet):
        assert trace == IntWindowSet(0, 0, ()) and scan == [], label
        return
    interval, primes = trace.interval, trace.subgroup.primes
    assert primes == frozenset() and interval.lower_closed and interval.upper_closed, label
    ends = (interval.lower, interval.upper, trace.subgroup.gen, trace.base)
    assert all(e is None or e.denominator == 1 for e in ends), label
    lower, upper, m, base = (None if e is None else int(e) for e in ends)
    lo = -TRACE_SCAN if lower is None else max(lower, -TRACE_SCAN)
    hi = TRACE_SCAN if upper is None else min(upper, TRACE_SCAN)
    assert [k for k in range(lo, hi + 1) if (k - base) % m == 0] == scan, label
    # a bounded end is a member; an unbounded side reaches the edge of the scan
    assert scan[0] == lower if lower is not None else scan[0] < -TRACE_SCAN + m, label
    assert scan[-1] == upper if upper is not None else scan[-1] > TRACE_SCAN - m, label


def seeded_interval(rng, base, h):
    """A closed, open, half-bounded, unbounded or degenerate interval around base,
    with ends on or off the lattice of h."""
    kind = rng.choice(["closed", "open", "half", "unbounded", "degenerate"])
    if kind == "degenerate":
        return QIntervalSpec(base, base)
    if kind == "unbounded":
        return QIntervalSpec()
    lower = base - h * F(rng.randint(0, 8), rng.choice([1, 1, 2, 3, 7]))
    upper = base + h * F(rng.randint(0, 8), rng.choice([1, 1, 2, 3, 7]))
    if kind == "half":
        lower, upper = rng.choice([(lower, None), (None, upper)])
    # an open end must leave the base inside
    lower_closed = kind != "open" or lower == base
    upper_closed = kind != "open" or upper == base
    return QIntervalSpec(lower, upper, lower_closed, upper_closed)


def test_lattice_trace_matches_a_per_point_scan():
    rng = random.Random(9)
    seen = set()
    pools = [(), (2,), (3,), (2, 3), (5,), (3, 5)]
    for i in range(400):
        primes = pools[i % len(pools)]
        sub = desc(
            F(rng.randint(1, 6), rng.choice([1, 2, 3, 4, 9])),
            frozenset(p for p in primes if rng.random() < 0.7),
        )
        h = sub.gen
        base = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5]))
        description = RationalMidconvexDescription(seeded_interval(rng, base, h), sub, base)
        # x on or off the coset (7 and 11 are never inverted), g of either sign
        x = base + h * F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 9, 11, 25]))
        g = h * F(rng.choice([1, -1]) * rng.randint(1, 4), rng.choice([1, 2, 3, 5, 6, 9, 27]))
        label = (i, str(description), x, g)
        trace = lattice_trace(description, x, g)
        assert_described_trace_is_scanned(trace, scanned_trace(description, x, g), label)
        if isinstance(trace, IntWindowSet):
            seen.add("empty")
        else:
            seen.add((trace.interval.lower is None, trace.interval.upper is None))
        # a base off the coset: no lattice point along a subgroup element is a member
        off_x, off_g = base + h / 7, h * rng.choice([1, -1])
        off = lattice_trace(description, off_x, off_g)
        assert off == IntWindowSet(0, 0, ()) and scanned_trace(description, off_x, off_g) == [], label
        # a finite set with points on the lattice well past k = ±64, on both
        # sides of 0 or one, and points off the lattice
        reach = rng.choice([40, 200, 900])
        points = [x + k * g for k in rng.sample(range(-reach, reach + 1), rng.randint(0, 8))]
        points += [x + g * F(rng.randint(-900, 900), rng.choice([2, 3, 7])) for _ in range(rng.randint(0, 4))]
        rng.shuffle(points)
        scan = scanned_trace(points, x, g)
        window = (min(scan[:1] + [0]), max(scan[-1:] + [0]))
        assert lattice_trace(points, x, g) == IntWindowSet(*window, tuple(scan)), (label, points)
        if scan:
            seen.update(side for side, k in (("below -64", -scan[0]), ("above 64", scan[-1])) if k > 64)
    # every shape of described trace, and finite traces past k = ±64, were read
    assert seen == {"empty", (False, False), (True, False), (False, True), (True, True), "below -64", "above 64"}


# -- the rational decomposition route -----------------------------------------


def test_decompose_rational_dyadic_interval():
    group = desc(1, [2])
    description = RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), group, F(0))
    recovered = decompose_rational(group, description, F(0), F(1), depth=4, window=F(3))
    assert recovered.interval == QIntervalSpec(F(0), F(1))
    assert recovered.subgroup == desc(1, [2])
    assert recovered.base == 0


def described(lower, upper, sub, base):
    return RationalMidconvexDescription(QIntervalSpec(lower, upper), sub, base)


# sha256 of the decompose_rational results on the seeded descriptions below, taken
# before the window was cut once, when every level was clipped to floor(radius / g)
DECOMPOSE_RATIONAL_DIGEST = "6bc01dec720784e6b6a264bf357b2334b19cc273fc98b381a1869bc62b99fb45"


def test_decompose_rational_is_pinned_across_window_cuts():
    """Results on seeded descriptions that the window cuts on neither side, one side or both.

    The radii include each end's distance to the base, so a window end falls on
    an open or closed interval end. A subgroup that inverts a prime is dense,
    one that inverts none discrete, and the step 2 in Z is rejected as even.
    """
    rng = random.Random(26)
    pools = [(), (2,), (3,), (2, 3), (5,)]
    lines, seen = [], set()
    for i in range(600):
        pool = pools[i % len(pools)]
        group = desc(1, pool)
        inverted = frozenset(p for p in pool if p == 2 or rng.random() < 0.6)
        den = math.prod(rng.choice([1, p]) for p in pool)
        h = F(rng.choice([1, 3, 5, 9, 2 if not pool else 1]), den)
        sub = desc(h, inverted)
        h = sub.gen
        base = F(rng.randint(-6, 6), den)
        # the second base point base + h lies inside, so the upper end is at least h away
        below = None if rng.random() < 0.25 else h * F(rng.randint(0, 12), rng.choice([1, 2, 3]))
        above = None if rng.random() < 0.25 else h * (1 + F(rng.randint(0, 12), rng.choice([1, 2, 3])))
        lower_closed = below == 0 or rng.random() < 0.5
        upper_closed = above == h or rng.random() < 0.5
        lower = None if below is None else base - below
        upper = None if above is None else base + above
        interval = QIntervalSpec(lower, upper, lower_closed, upper_closed)
        description = RationalMidconvexDescription(interval, sub, base)
        finite = [r for r in (below, above) if r is not None]
        radius = rng.choice([h, h * F(rng.randint(2, 40), rng.choice([1, 2, 7])), *finite, *(r + h / 3 for r in finite)])
        radius = max(radius, h)
        depth = rng.randint(1, 3 * max(1, len(pool)))
        cuts = sum(r is None or radius < r for r in (below, above))
        try:
            recovered = decompose_rational(group, description, base, base + h, depth, radius)
        except NotMidconvex as exc:
            lines.append(f"{i} {exc}")
            seen.add("rejected")
            continue
        seen.add((bool(recovered.subgroup.primes), cuts))
        c = recovered.interval
        lines.append(f"{i} {c.lower} {c.upper} {c.lower_closed} {c.upper_closed} {recovered.subgroup} {recovered.base}")
    assert seen == {"rejected", *((dense, cuts) for dense in (False, True) for cuts in (0, 1, 2))}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DECOMPOSE_RATIONAL_DIGEST


def test_decompose_rational_integer_progression():
    # {0, 3, 6, 9} as a description
    recovered = decompose_rational(desc(1), described(F(0), F(9), desc(3), F(0)), F(0), F(3), 2, F(10))
    assert recovered.interval == QIntervalSpec(F(0), F(9))
    assert recovered.subgroup == desc(3)
    assert recovered.base == 0


def test_decompose_rational_flags_missing_midpoint():
    # {0, 1} among the dyadics: the next level's trace is {0, 2}
    even = r"level 1 \(lattice step 1/2\): minimal nonzero trace element 2 is even"
    with pytest.raises(NotMidconvex, match=even):
        decompose_rational(desc(1, [2]), described(F(0), F(1), desc(1), F(0)), F(0), F(1), 3, F(2))


def test_decompose_rational_preconditions():
    group = desc(1)
    pair = described(F(0), F(3), desc(3), F(0))
    with pytest.raises(ValueError):
        decompose_rational(group, pair, F(3), F(0), 2, F(5))
    with pytest.raises(ValueError, match="base points must be members of the set"):
        decompose_rational(group, pair, F(0), F(4), 2, F(5))
    with pytest.raises(ValueError, match="window radius"):
        decompose_rational(group, pair, F(0), F(3), 2, F(2))


def test_decompose_rational_scaled_lattice():
    # members of (3/2)Z inside [1/2, 13/2], based away from the minimum
    group = desc(F(1, 2))
    sub = desc(F(3, 2))
    description = RationalMidconvexDescription(QIntervalSpec(F(1, 2), F(13, 2)), sub, F(1, 2))
    recovered = decompose_rational(group, description, F(1, 2), F(2), 2, F(8))
    assert recovered.subgroup == sub
    assert recovered.interval == QIntervalSpec(F(1, 2), F(13, 2))


def test_decompose_rational_set_entry_point():
    dyadics = desc(1, [2])
    unit = RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), dyadics, F(0))
    result = decompose_rational_set(dyadics, unit)
    # second point: the coarsest probe offset, one generator above the base
    assert result.depth == 3
    assert result.description == decompose_rational(dyadics, unit, F(0), F(1), 3, F(2))
    assert result.description.subgroup == dyadics

    # points: the base is the lower of x and its nearest member
    result = decompose_rational_set(desc(1), [F(0), F(3), F(6), F(9)], x=F(9))
    assert result.description == RationalMidconvexDescription(
        QIntervalSpec(F(0), F(9)), desc(3), F(6)
    )
    assert result.depth == 3

    result = decompose_rational_set(desc(1), [F(5)])
    assert result.description == RationalMidconvexDescription(
        QIntervalSpec(F(5), F(5)), desc(1), F(5)
    )
    assert result.depth is None

    with pytest.raises(NotMidconvex) as exc:
        decompose_rational_set(desc(1), [F(0), F(2)])
    assert exc.value.witness == (0, 2, 1)
    impure = RationalMidconvexDescription(QIntervalSpec(F(0), F(10)), desc(2), F(0))
    with pytest.raises(NotMidconvex) as exc:
        decompose_rational_set(desc(1), impure)
    assert exc.value.witness == (0, 2, 1)
    with pytest.raises(ValueError):
        decompose_rational_set(desc(1), [F(0), F(3)], x=F(6))


def per_level_decompose_rational(group, description, x, x2, depth, window):
    """Reference: each level's trace read point by point and decomposed at 0 on its window.

    Returns the description at the deepest level and that level's step
    between members, h_gen. The ends of a dense set are the first and last
    member on the deepest lattice.
    """
    chain = cyclic_chain(group, (x, x2), depth)
    primes = sorted(group.primes)
    grew_last = {}
    prev_lower = prev_upper = prev_gen = None
    for step, g in enumerate(chain):
        try:
            reach = math.floor(window / g)
            dec = decompose_z(IntWindowSet(-reach, reach, tuple(scanned_trace(description, x, g, reach))), 0)
        except NotMidconvexTrace as exc:
            raise NotMidconvex(f"level {step} (lattice step {g}): {exc.reason}") from exc
        lower = x + g * dec.interval.lower
        upper = x + g * dec.interval.upper
        h_gen = dec.subgroup.gen * g
        if step > 0:
            if not (lower <= prev_lower and prev_upper <= upper):
                raise NotMidconvex(f"level {step}: interval does not extend")
            ratio = prev_gen / h_gen
            if ratio.denominator != 1 or ratio < 1:
                raise NotMidconvex(f"level {step}: subgroup does not extend")
            if primes:
                grew_last[primes[(step - 1) % len(primes)]] = ratio > 1
        prev_lower, prev_upper, prev_gen = lower, upper, h_gen
    recovered = RationalGroupDescriptor(h_gen, frozenset(p for p, grew in grew_last.items() if grew))
    return RationalMidconvexDescription(QIntervalSpec(lower, upper), recovered, x), h_gen


@pytest.mark.parametrize("depth", [3, 30])
def test_decompose_rational_reads_the_cut_once(monkeypatch, depth):
    # every level's step is an integer multiple of the deepest one, so a single
    # reading on the deepest lattice serves all levels
    reading, calls = engine._described_range, []

    def counted(*args):
        calls.append(args)
        return reading(*args)

    monkeypatch.setattr(engine, "_described_range", counted)
    group = desc(1, [2, 3, 5])
    interval = QIntervalSpec(F(-7, 3), F(5), False, True)
    description = RationalMidconvexDescription(interval, desc(3, [2, 3]), F(0))
    recovered = decompose_rational(group, description, F(0), F(1), depth, F(10))
    assert recovered == description
    assert len(calls) == 1
    with pytest.raises(NotMidconvex, match="is even"):
        decompose_rational(group, RationalMidconvexDescription(interval, desc(1, [3]), F(0)), F(0), F(1), depth, F(10))
    assert len(calls) == 2


def test_closed_form_levels_match_the_per_level_reading():
    rng = random.Random(11)
    pools = [(), (2,), (3,), (2, 3), (5,), (3, 5), (2, 3, 5)]
    outcomes = {"dense": 0, "discrete": 0, "not midconvex": 0}
    for i in range(350):
        primes = pools[i % len(pools)]
        ambient = desc(F(rng.choice([1, 2, 3]), rng.choice([1, 2])), primes)
        sub = desc(
            ambient.gen * rng.choice([1, 2, 3, 5, 6]), frozenset(p for p in primes if rng.random() < 0.7)
        )
        h = sub.gen
        base = ambient.gen * rng.randint(-4, 4)
        description = RationalMidconvexDescription(seeded_interval(rng, base, h), sub, base)
        x = base
        seconds = [x + h / d for d in (1, *sorted(sub.primes)) if description.contains(x + h / d)]
        if not seconds:
            continue
        x2 = rng.choice(seconds)
        depth, window = rng.randint(1, 4), (x2 - x) + h * rng.choice([0, 1, 2, 5])
        try:
            expected, last_step = per_level_decompose_rational(ambient, description, x, x2, depth, window)
        except NotMidconvex as exc:
            outcomes["not midconvex"] += 1
            with pytest.raises(NotMidconvex) as got:
                decompose_rational(ambient, description, x, x2, depth, window)
            assert got.value.reason == exc.reason, (i, description)
            continue
        recovered = decompose_rational(ambient, description, x, x2, depth, window)
        assert (recovered.subgroup, recovered.base) == (expected.subgroup, expected.base), (i, description)
        if not recovered.subgroup.primes:
            outcomes["discrete"] += 1
            assert recovered.interval == expected.interval, (i, description)
            continue
        # the per-level ends are the outermost members of the deepest lattice inside the exact ends
        outcomes["dense"] += 1
        exact, ends = recovered.interval, expected.interval
        assert exact.contains(ends.lower) and exact.contains(ends.upper), (i, description)
        assert not exact.contains(ends.lower - last_step), (i, description)
        assert not exact.contains(ends.upper + last_step), (i, description)
    assert min(outcomes.values()) >= 30, outcomes


def test_levels_widen_and_each_unit_divides_the_one_before(monkeypatch):
    # decompose_rational has no check that the ends widen or that the
    # subgroup grows: each M divides the M before it, so lcm(M, mod) does
    # too, and the multiples of a divisor next inside [lo, hi] reach as far
    levels, read = [], engine._levels

    def recorded(*args):
        levels.append([])
        for level in read(*args):
            levels[-1].append(level)
            yield level

    monkeypatch.setattr(engine, "_levels", recorded)
    rng = random.Random(17)
    pools = [(), (2,), (3,), (2, 3), (5,), (3, 5), (2, 3, 5)]
    for i in range(350):
        primes = pools[i % len(pools)]
        ambient = desc(F(rng.choice([1, 2, 3]), rng.choice([1, 2])), primes)
        sub = desc(ambient.gen * rng.choice([1, 2, 3, 5, 6]), frozenset(p for p in primes if rng.random() < 0.7))
        base = ambient.gen * rng.randint(-4, 4)
        description = RationalMidconvexDescription(seeded_interval(rng, base, sub.gen), sub, base)
        seconds = [base + sub.gen / d for d in (1, *sorted(sub.primes)) if description.contains(base + sub.gen / d)]
        if seconds:
            x2 = rng.choice(seconds)
            depth, window = rng.randint(1, 6), (x2 - base) + sub.gen * rng.choice([0, 1, 2, 5])
            try:
                decompose_rational(ambient, description, base, x2, depth, window)
            except NotMidconvex:
                pass
    grew = widened = 0
    for chain in levels:
        for (_, _, prev_unit, prev_first, prev_last), (_, _, unit, first, last) in zip(chain, chain[1:]):
            assert prev_unit % unit == 0 and first <= prev_first and prev_last <= last
            grew += unit < prev_unit
            widened += (first, last) != (prev_first, prev_last)
    assert len(levels) >= 200 and grew >= 300 and widened >= 50, (len(levels), grew, widened)


def test_decomposition_round_trips_seeded_two_pure_descriptions():
    # the exact ends: a dense set's off-lattice end and open ends come back as given
    ambient = desc(1, [2])
    given = RationalMidconvexDescription(QIntervalSpec(F(-1, 2), F(7, 3)), ambient, F(0))
    recovered = decompose_rational_set(ambient, given).description
    assert recovered == given and recovered.contains(F(37, 16))

    rng = random.Random(13)
    pools = [(), (2,), (3,), (2, 3), (5,), (3, 5), (2, 3, 5)]
    disagreements = []
    for i in range(280):
        primes = pools[i % len(pools)]
        ambient = desc(F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 4])), primes)
        inverted = frozenset(p for p in primes if rng.random() < 0.7)
        sub = two_pure_closure(desc(ambient.gen * rng.choice([1, 2, 3, 5, 9]), inverted), ambient)
        h = sub.gen
        base = ambient.gen * rng.randint(-6, 6)
        # ends on the lattice, off it by a fine denominator of the pool, or off the group
        dens = [p**e for p in (*primes, 7) for e in range(5)]
        lower = base - h * F(rng.randint(0, 12), rng.choice(dens))
        upper = base + h * F(rng.randint(0, 12), rng.choice(dens))
        kind = rng.choice(["closed", "open", "half", "unbounded"])
        if kind == "half":
            lower, upper = rng.choice([(lower, None), (None, upper)])
        elif kind == "unbounded":
            lower = upper = None
        lower_closed = kind != "open" or lower == base or rng.random() < 0.3
        upper_closed = kind != "open" or upper == base or rng.random() < 0.3
        interval = QIntervalSpec(lower, upper, lower_closed, upper_closed)
        given = RationalMidconvexDescription(interval, sub, base)
        recovered = decompose_rational_set(ambient, given).description
        points = draw_lattice_points(rng, sub, given.interval, base, 30)
        # points of the ambient group on and off the lattice, at and next to each end
        offsets = [F(n, d) for d in dens for n in range(-36, 37, 4)]
        points += [base + h * t for t in offsets]
        ends = [end for end in (lower, upper) if end is not None]
        points += [end + h * F(t, d) for end in ends for d in dens for t in (-1, 0, 1)]
        wrong = [r for r in points if recovered.contains(r) != given.contains(r)]
        if wrong:
            disagreements.append((i, str(given), str(recovered), str(wrong[0])))
    assert disagreements == [], disagreements[:3]


def test_theorem3_if_sampling():
    group = desc(1, [2])
    dyadics = RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), group, F(0))
    assert theorem3_if_violation(dyadics, group, 1000, 3) is None

    progression = RationalMidconvexDescription(QIntervalSpec(F(0), F(10)), desc(3), F(0))
    assert theorem3_if_violation(progression, desc(1), 500, 3) is None

    impure = RationalMidconvexDescription(QIntervalSpec(F(0), F(10)), desc(2), F(0))
    with pytest.raises(ValueError):
        theorem3_if_violation(impure, desc(1), 100, 0)


@pytest.mark.parametrize(
    "sub,interval,base,seed,expected",
    [
        (desc(1, [2]), (F(0), F(2)), F(0), 0, ["13/8", "1", "31/16", "9/8", "11/8", "13/16"]),
        (desc(1, [2]), (F(0), F(2)), F(0), 1, ["2", "1", "1", "15/8", "3/4", "1"]),
        (
            desc(F(3, 2), [2, 3]), (None, F(7)), F(1, 2), 0,
            ["7/24", "29/54", "47/72", "139/324", "5/24", "-17/2"],
        ),
        (
            desc(F(3, 2), [2, 3]), (None, F(7)), F(1, 2), 1,
            ["64/81", "-61/18", "59/108", "-13/12", "3/8", "371/648"],
        ),
    ],
)
def test_draw_lattice_points_is_pinned_per_seed(sub, interval, base, seed, expected):
    # the theorem-3 sampler and the hull check see these draws; a change in
    # the order of the random calls changes them
    points = draw_lattice_points(random.Random(seed), sub, QIntervalSpec(*interval), base, 6)
    assert [str(p) for p in points] == expected


def fraction_draw(rng, subgroup, interval, base, count):
    """Reference: the lattice draw with one Fraction step per attempt, 50 and 4 its bounds."""
    primes = sorted(subgroup.primes)
    points = []
    attempts = 0
    while len(points) < count and attempts < 100 * count:
        attempts += 1
        den = 1
        for p in primes:
            den *= p ** rng.randint(0, 4)
        step = subgroup.gen / den
        lo, hi = -50, 50
        if interval.lower is not None:
            lo = max(lo, -math.floor((base - interval.lower) / step))
        if interval.upper is not None:
            hi = min(hi, math.floor((interval.upper - base) / step))
        if lo > hi:
            continue
        r = base + rng.randint(lo, hi) * step
        if interval.contains(r):
            points.append(r)
    return points


def test_draw_lattice_points_matches_the_fraction_draw():
    pools = [(), (2,), (3,), (2, 3), (5,), (2, 3, 5)]
    for seed in range(300):
        rng = random.Random(seed)
        sub = desc(F(rng.randint(1, 6), rng.choice([1, 2, 3, 5])), rng.choice(pools))
        base = F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4]))
        interval = seeded_interval(rng, base, sub.gen * F(1, rng.choice([1, 8, 81])))
        count = rng.randint(1, 40)
        fast, slow = random.Random(seed), random.Random(seed)
        drawn = draw_lattice_points(fast, sub, interval, base, count)
        assert drawn == fraction_draw(slow, sub, interval, base, count), (seed, sub, interval, base)
        # the same random calls in the same order
        assert fast.random() == slow.random(), seed


def randint_draw(rng, subgroup, interval, base, count):
    """Reference: the lattice draw through Random.randint, as it was written before getrandbits."""
    primes = sorted(subgroup.primes)
    big_l = math.prod(p**engine._DRAW_EXPONENTS for p in primes)
    below = None if interval.lower is None else (base - interval.lower) / subgroup.gen
    above = None if interval.upper is None else (interval.upper - base) / subgroup.gen
    if below is not None:
        below_num, below_den = below.numerator, below.denominator
    if above is not None:
        above_num, above_den = above.numerator, above.denominator
    nums = []
    attempts = 0
    while len(nums) < count and attempts < 100 * count:
        attempts += 1
        den = 1
        for p in primes:
            den *= p ** rng.randint(0, engine._DRAW_EXPONENTS)
        lo, hi = -engine._DRAW_NUMERATORS, engine._DRAW_NUMERATORS
        if below is not None:
            lo = max(lo, -(below_num * den // below_den))
        if above is not None:
            hi = min(hi, above_num * den // above_den)
        if lo > hi:
            continue
        num = rng.randint(lo, hi)
        on_lower = below is not None and num * below_den == -below_num * den
        on_upper = above is not None and num * above_den == above_num * den
        if (on_lower and not interval.lower_closed) or (on_upper and not interval.upper_closed):
            continue
        nums.append(num * (big_l // den))
    return nums, big_l


# ends in units of the subgroup generator from the base: (lower, upper, lower closed, upper closed)
DRAW_INTERVALS = {
    "closed": (F(-3), F(5, 2), True, True),
    "open": (F(-2), F(3), False, False),
    "half-open": (F(-1, 3), F(4), True, False),
    "lower-only": (F(-1), None, False, True),
    "upper-only": (None, F(7, 9), True, True),
    "unbounded": (None, None, True, True),
    # every attempt draws from a width of 1, which still takes a word
    "one-point": (F(0), F(0), True, True),
    # den = 1 clips to lo > hi and draws no numerator; larger dens draw
    "short": (F(1, 7), F(2, 7), True, True),
    # open ends on every den's lattice: den = 1 drops -50 and 1, a larger den clips the
    # lower end to -50, so the numerator that end drops lies outside the drawn range
    "open-wide": (F(-50), F(1), False, False),
    # the base lies below the interval and den = 1 draws only its two open ends, so every
    # prime-free attempt skips and the draw stops at its attempt limit
    "all-dropped": (F(1), F(2), False, False),
}
DRAW_POOLS = [(), (2,), (3,), (2, 3), (5,), (2, 3, 5, 7)]
DRAW_COUNTS = (0, 1, 7, 60)
DRAW_SEEDS = (0, 1, 2)
# the roundtrip draw's length, over the prime-free loop and over the general loop with one prime
LONG_DRAW, LONG_DRAW_POOLS = 2000, [(), (2,)]


def draw_counts(pool):
    """The draw lengths checked for a pool: DRAW_COUNTS, and the long draw for the pools that take it."""
    return DRAW_COUNTS + (LONG_DRAW,) * (pool in LONG_DRAW_POOLS)


def draw_case(pool, kind):
    """(subgroup, interval, base) of a DRAW_INTERVALS case."""
    sub, base = desc(F(11, 13), pool), F(-5, 4)
    lower, upper, lower_closed, upper_closed = DRAW_INTERVALS[kind]
    interval = QIntervalSpec(
        None if lower is None else base + lower * sub.gen,
        None if upper is None else base + upper * sub.gen,
        lower_closed,
        upper_closed,
    )
    return sub, interval, base


@pytest.mark.parametrize("pool", DRAW_POOLS)
@pytest.mark.parametrize("kind", sorted(DRAW_INTERVALS))
def test_draw_numerators_is_the_randint_stream(pool, kind):
    sub, interval, base = draw_case(pool, kind)
    for count in draw_counts(pool):
        for seed in DRAW_SEEDS:
            fast, slow = random.Random(seed), random.Random(seed)
            drawn = engine._draw_numerators(fast, sub, interval, base, count)
            assert drawn == randint_draw(slow, sub, interval, base, count), (count, seed)
            assert fast.getstate() == slow.getstate(), (count, seed)


# The draw against its randint reference (whose source is prepended) on cases sent as JSON,
# each (primes, lower, upper, lower closed, upper closed, count, seed); prints the failing ones.
DRAW_STREAM_SCRIPT = """
import json, sys
from fractions import Fraction
from midconvex import engine
from midconvex.rationals import QIntervalSpec, RationalGroupDescriptor

failed = []
for case in json.load(sys.stdin):
    primes, lower, upper, lower_closed, upper_closed, count, seed = case
    sub, base = RationalGroupDescriptor(Fraction(11, 13), frozenset(primes)), Fraction(-5, 4)
    ends = [None if end is None else Fraction(end) for end in (lower, upper)]
    interval = QIntervalSpec(*ends, lower_closed, upper_closed)
    fast, slow = random.Random(seed), random.Random(seed)
    drawn = engine._draw_numerators(fast, sub, interval, base, count)
    if drawn != randint_draw(slow, sub, interval, base, count) or fast.getstate() != slow.getstate():
        failed.append(case)
json.dump(failed, sys.stdout)
"""


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_draw_numerators_is_the_randint_stream_on_each_installed_python(installed_python, version):
    # randint's _randbelow stream is an implementation detail of each CPython, so the
    # in-process test covers only the running version
    python, env = installed_python(version)
    cases = []
    for pool in DRAW_POOLS:
        for kind in sorted(DRAW_INTERVALS):
            _, interval, _ = draw_case(pool, kind)
            ends = [None if end is None else str(end) for end in (interval.lower, interval.upper)]
            for count in draw_counts(pool):
                for seed in DRAW_SEEDS:
                    cases.append([pool, *ends, interval.lower_closed, interval.upper_closed, count, seed])
    script = "import math, random\n" + inspect.getsource(randint_draw) + DRAW_STREAM_SCRIPT
    done = subprocess.run(
        [python, "-c", script], input=json.dumps(cases), capture_output=True, encoding="utf-8", env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


def test_callers_of_the_draw_report_as_under_randint(monkeypatch):
    # a passing report shows no drawn point, so each draw's result and the
    # generator's state after it are recorded beside the reports: the purity
    # campaign draws its next pair from that state
    def reports(draw):
        seen = []

        def recorded(rng, *args):
            out = draw(rng, *args)
            seen.append((out, hash(rng.getstate())))
            return out

        monkeypatch.setattr(engine, "_draw_numerators", recorded)
        out = [harness.sample_two_purity(trials=300, seed=seed).to_dict() for seed in (0, 5)]
        for primes in [(2,), (2, 3), (3, 5)]:
            ambient = desc(F(1, 2), primes)
            interval = QIntervalSpec(F(-7, 3), F(5), False, True)
            described = RationalMidconvexDescription(interval, desc(F(3, 2), primes), F(-1, 2))
            out += [harness.roundtrip_theorem3(ambient, described, seed=seed).to_dict() for seed in (0, 3)]
        # a one-point start draws every point from a width of 1
        for start in ([F(0), F(1, 3), F(1)], [F(2, 3)]):
            out += [harness.conjecture_hull_check(desc(1, [2, 3]), start, seed=seed).to_dict() for seed in (0, 7)]
        return out, seen

    assert reports(engine._draw_numerators) == reports(randint_draw)


def test_every_numerator_draw_fits_in_its_words_top_byte():
    # the prime-free draw reads each numerator from the top byte of a 32-bit word, as a signed byte
    assert 2 * engine._DRAW_NUMERATORS + 1 <= 256


def test_the_lattice_draw_never_calls_randint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the lattice draw went through randint or rewound the generator")

    sub = desc(F(3, 2), [2, 3])
    described = RationalMidconvexDescription(QIntervalSpec(F(-4), F(9), False, True), sub, F(1, 2))
    with monkeypatch.context() as patched:
        for name in ("randint", "randrange", "_randbelow"):
            patched.setattr(random.Random, name, refuse)
        assert theorem3_if_violation(described, desc(F(1, 2), [2, 3]), 500, 0) is None
        assert len(draw_lattice_points(random.Random(1), sub, described.interval, F(1, 2), 50)) == 50
    # the purity campaign draws its pairs through randint itself, so the
    # guard covers only its lattice draws; a draw reads each word once, so
    # it also never saves, restores or reseeds the generator's state
    draw = engine._draw_numerators

    def guarded(*args):
        with monkeypatch.context() as patched:
            for name in ("randint", "randrange", "getstate", "setstate", "seed"):
                patched.setattr(random.Random, name, refuse)
            return draw(*args)

    for kind in ("closed", "open-wide", "all-dropped"):
        for pool in ((), (2, 3)):
            case = draw_case(pool, kind)
            assert guarded(random.Random(0), *case, 200) == draw(random.Random(0), *case, 200)
    monkeypatch.setattr(engine, "_draw_numerators", guarded)
    assert harness.sample_two_purity(trials=50).passed


def fraction_sampled_violation(description, group, samples, seed):
    """Reference: the sampler's scan with one Fraction midpoint and two contains per pair."""
    rng = random.Random(seed)
    points = draw_lattice_points(
        rng, description.subgroup, description.interval, description.base, 2 * samples
    )
    if len(points) < 2:
        return None
    for i in range(samples):
        a = points[(2 * i) % len(points)]
        b = points[(2 * i + 1) % len(points)]
        c = (a + b) / 2
        if group.contains(c) and not description.contains(c):
            return (a, b, c)
    return None


def seeded_sampler_case(rng, i):
    """(description, ambient, samples, seed), pools in turn: impure subgroups and bases off the ambient lattice too."""
    pools = [(), (2,), (3,), (2, 3), (5,), (3, 5), (2, 3, 5)]
    primes = pools[i % len(pools)]
    ambient = desc(F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 4])), primes)
    inverted = frozenset(p for p in primes if rng.random() < 0.6)
    sub = desc(ambient.gen * F(rng.choice([1, 2, 3, 4, 6, 9]), rng.choice([1, 1, 2, 3])), inverted)
    base = ambient.gen * F(rng.randint(-6, 6), rng.choice([1, 1, 1, 2, 3, 7]))
    interval = seeded_interval(rng, base, sub.gen)
    description = RationalMidconvexDescription(interval, sub, base)
    samples, seed = rng.randint(1, 60), rng.randrange(1 << 31)
    return description, ambient, samples, seed


def test_integer_sampler_matches_the_fraction_scan():
    # impure subgroups and bases off the ambient lattice included, so that
    # every one of the three integer tests decides some pair
    rng = random.Random(23)
    found = 0
    for i in range(1500):
        description, ambient, samples, seed = seeded_sampler_case(rng, i)
        got = _sampled_violation(description, ambient, samples, seed)
        assert got == fraction_sampled_violation(description, ambient, samples, seed), (i, str(description))
        found += got is not None
    assert found >= 300, found


def test_integer_sampler_cycles_a_short_draw_as_the_fraction_scan(monkeypatch):
    # a described set's draw never clips away the base's own numerator 0, so every
    # attempt keeps a point and the draw returns all 2 * samples; cut to an odd
    # length it is cycled, and a pair reads the last point with the first
    draw, cut = engine._draw_numerators, {}

    def short(rng, *args):
        nums, big_l = draw(rng, *args)
        return nums[: cut["n"]], big_l

    monkeypatch.setattr(engine, "_draw_numerators", short)
    rng = random.Random(29)
    cycled = {"violation": 0, "none": 0}
    for i in range(1200):
        description, ambient, samples, seed = seeded_sampler_case(rng, i)
        n = cut["n"] = rng.randrange(1, min(2 * samples, 6), 2)
        got = _sampled_violation(description, ambient, samples, seed)
        assert got == fraction_sampled_violation(description, ambient, samples, seed), (i, str(description))
        points = draw_lattice_points(
            random.Random(seed), description.subgroup, description.interval, description.base, 2 * samples
        )
        assert len(points) == n < 2 * samples
        pairs = [(points[2 * k % n], points[(2 * k + 1) % n]) for k in range(samples)]
        if got is None:
            cycled["none"] += 2 * samples > n + 1
        else:
            cycled["violation"] += 2 * pairs.index(got[:2]) + 1 >= n
    assert min(cycled.values()) >= 30, cycled


def test_integer_sampler_scans_in_order_when_a_sum_leaves_the_cut(monkeypatch):
    # a described set's draw stays in its interval, so every pair sum lies in the
    # lattice cut and the residue classes decide the sample; pushed past the
    # interval's ends, some sums leave the cut and the pairs are scanned in order
    draw = engine._draw_numerators

    def strays(rng, *args):
        nums, big_l = draw(rng, *args)
        return [t + 200 * big_l * (k % 5 == 3) - 200 * big_l * (k % 7 == 4) for k, t in enumerate(nums)], big_l

    monkeypatch.setattr(engine, "_draw_numerators", strays)
    rng = random.Random(31)
    outside = 0
    for i in range(600):
        description, ambient, samples, seed = seeded_sampler_case(rng, i)
        got = _sampled_violation(description, ambient, samples, seed)
        assert got == fraction_sampled_violation(description, ambient, samples, seed), (i, str(description))
        outside += got is not None and not description.interval.contains(got[2])
    assert outside >= 100, outside


def test_described_midconvex_witness():
    ambient = desc(1)
    impure = RationalMidconvexDescription(QIntervalSpec(F(0), F(10)), desc(2), F(0))
    witness = described_midconvex_witness(impure, ambient)
    assert witness is not None
    a, b, c = witness
    assert impure.contains(a) and impure.contains(b)
    assert (a + b) / 2 == c
    assert ambient.contains(c) and not impure.contains(c)

    pure = RationalMidconvexDescription(QIntervalSpec(F(0), F(10)), desc(3), F(0))
    assert described_midconvex_witness(pure, ambient) is None

    # an impure subgroup whose window is a single point is still midconvex
    singleton = RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), desc(2), F(0))
    assert described_midconvex_witness(singleton, ambient) is None


def test_described_witness_dense_subgroup():
    ambient = desc(1, [2, 3])
    impure = RationalMidconvexDescription(
        QIntervalSpec(F(0), F(9)), desc(3, [3]), F(0)
    )
    witness = described_midconvex_witness(impure, ambient)
    assert witness is not None
    a, b, c = witness
    assert impure.contains(a) and impure.contains(b) and not impure.contains(c)


def test_is_midconvex_q_finite():
    group = desc(1)
    assert is_midconvex_q_finite(group, [F(0), F(3)]) is None
    assert is_midconvex_q_finite(group, [F(0), F(2)]) == (0, 2, 1)
    dyadic = desc(1, [2])
    assert is_midconvex_q_finite(dyadic, [F(0), F(3)]) == (0, 3, F(3, 2))


def test_round_trip_synthetic_descriptions():
    for seed in range(4):
        rng = random.Random(seed)
        primes = [(), (2,), (3,), (2, 3)][seed % 4]
        ambient = desc(F(rng.choice([1, 2, 3]), rng.choice([1, 2])), primes)
        sub = two_pure_closure(
            desc(ambient.gen * rng.choice([1, 3, 5]), frozenset(p for p in primes if rng.random() < 0.7)),
            ambient,
        )
        base = ambient.gen * rng.randint(-3, 3)
        h = sub.gen
        interval = QIntervalSpec(base - 4 * h, base + 5 * h)
        description = RationalMidconvexDescription(interval, sub, base)
        depth = 3 * max(1, len(primes))
        radius = 12 * h
        recovered = decompose_rational(ambient, description, base, base + h, depth, radius)
        for k in range(-40, 41):
            r = base + h * F(k, 8)
            if abs(r - base) <= radius - h:
                assert recovered.contains(r) == description.contains(r), (seed, r)


def test_described_sets_are_decided_and_decomposed_seeded():
    # bounded, half-bounded and unbounded intervals, endpoints on and off the
    # subgroup lattice, bases at the bottom, the top or inside
    rng = random.Random(8)
    pools = [(), (2,), (3,), (2, 3), (5,), (2, 5)]
    kinds = {"pure": 0, "impure": 0}
    for i in range(60):
        primes = pools[i % len(pools)]
        ambient = desc(F(rng.choice([1, 3]), rng.choice([1, 2])), primes)
        sub = desc(
            ambient.gen * rng.choice([1, 2, 3, 6]), frozenset(p for p in primes if rng.random() < 0.7)
        )
        h = sub.gen
        base = ambient.gen * rng.randint(-3, 3)
        below, above = rng.choice([(0, rng.randint(1, 4)), (rng.randint(1, 4), 0), (1, 2)])
        lower = base - below * h - rng.choice([0, F(1, 3), F(2, 5)]) * h
        upper = base + above * h + rng.choice([0, F(1, 3), F(2, 5)]) * h
        lower = None if rng.random() < 0.3 else lower
        upper = None if rng.random() < 0.3 else upper
        description = RationalMidconvexDescription(QIntervalSpec(lower, upper), sub, base)
        witness = described_midconvex_witness(description, ambient)
        if witness is not None:
            kinds["impure"] += 1
            a, b, c = witness
            assert description.contains(a) and description.contains(b), (i, description)
            assert (a + b) / 2 == c and ambient.contains(c) and not description.contains(c)
            with pytest.raises(NotMidconvex):
                decompose_rational_set(ambient, description)
            continue
        kinds["pure"] += 1
        assert is_two_pure(sub, ambient), (i, description)
        result = decompose_rational_set(ambient, description)
        recovered = result.description
        assert (recovered.interval.lower is None) == (lower is None), (i, description)
        assert (recovered.interval.upper is None) == (upper is None), (i, description)
        for den in (1, 2, 3, 4, 5, 8, 9, 25):
            for num in range(-30, 31):
                r = base + h * F(num, den)
                assert recovered.contains(r) == description.contains(r), (i, description, r)
    assert min(kinds.values()) >= 15, kinds


def test_probe_finds_the_coarsest_neighbour_at_any_denominator():
    # the only other members of these sets are finer than 3**10
    ambient = desc(1, [3])
    impure = RationalMidconvexDescription(QIntervalSpec(F(0), F(1, 59049)), desc(2, [3]), F(0))
    assert described_midconvex_witness(impure, ambient) == (0, F(2, 177147), F(1, 177147))
    # the neighbour 1/59049 is the second base point; each level is read in
    # closed form, however many lattice points the window holds
    pure = RationalMidconvexDescription(QIntervalSpec(F(0), F(1, 59049)), desc(1, [3]), F(0))
    assert decompose_rational_set(ambient, pure).description == pure

    # the witness pairs the base with its coarsest neighbour: the least den,
    # + before - on a tie, found here by trying every den up to 5**8, past
    # any den that these intervals need
    rng = random.Random(12)
    pools = [(3,), (5,), (3, 5)]
    for i in range(120):
        primes = pools[i % len(pools)]
        ambient = desc(1, primes)
        sub = desc(rng.choice([2, 4, 6, 10]), frozenset(p for p in primes if rng.random() < 0.7))
        base = F(rng.randint(-4, 4))
        interval = seeded_interval(rng, base, sub.gen * F(1, rng.choice([1, 10, 100, 3000])))
        description = RationalMidconvexDescription(interval, sub, base)
        witness = described_midconvex_witness(description, ambient)
        reach = sorted(d for d in {3**a * 5**b for a in range(13) for b in range(9)} if d <= 5**8)
        dens = [d for d in reach if desc(1, sub.primes).contains(F(1, d))]
        neighbours = [
            r for d in dens for r in (base + sub.gen / d, base - sub.gen / d) if description.contains(r)
        ]
        if not neighbours:
            assert witness is None, (i, description)
            continue
        assert witness is not None, (i, description)
        assert neighbours[0] in witness[:2] and base in witness[:2], (i, description)


def test_unbounded_sides_on_two_prime_pools_seeded():
    # unbounded and half-bounded sides on two inverted primes, where an
    # unbounded side reaches the window's edge and is reported as unbounded
    rng = random.Random(10)
    pools = [(2, 3), (2, 5), (3, 5)]
    for i in range(12):
        primes = pools[i % len(pools)]
        ambient = desc(F(rng.choice([1, 3]), rng.choice([1, 2])), primes)
        sub = two_pure_closure(
            desc(ambient.gen * rng.choice([1, 3, 5]), frozenset(p for p in primes if rng.random() < 0.7)),
            ambient,
        )
        h = sub.gen
        base = h * rng.randint(-3, 3)
        lower, upper = rng.choice(
            [
                (None, None),
                (None, base + h * rng.randint(0, 3)),
                (base - h * F(rng.randint(0, 9), 2), None),
            ]
        )
        description = RationalMidconvexDescription(QIntervalSpec(lower, upper), sub, base)
        result = decompose_rational_set(ambient, description)
        recovered = result.description
        assert (recovered.interval.lower is None) == (lower is None), (i, description)
        assert (recovered.interval.upper is None) == (upper is None), (i, description)
        for den in (1, 2, 3, 4, 5, 8, 9, 25):
            for num in range(-30, 31):
                r = base + h * F(num, den)
                assert recovered.contains(r) == description.contains(r), (i, description, r)
    # the whole line on two primes: 6 levels down to 1/3375
    started = time.perf_counter()
    whole = RationalMidconvexDescription(QIntervalSpec(), desc(1, [3, 5]), F(0))
    result = decompose_rational_set(desc(1, [3, 5]), whole)
    assert time.perf_counter() - started < 2
    assert result.description == whole


def test_readme_library_example_runs():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
