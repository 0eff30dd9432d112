"""Brute-force and randomized differential verification campaigns.

Each campaign pits an implementation against an independent reading of the
same property (exhaustive enumeration, direct sampling of an implication, or
a bounded fixpoint oracle) and reports mismatches. The decomposition
characterizations are theorems, so at the default bounds every exhaustive
campaign must come back empty; any mismatch is an implementation bug.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import repeat
from math import gcd, prod
from operator import and_, mod, or_
from typing import Iterable, Sequence

from . import engine
from .errors import NotMidconvex
from .groups import (
    FiniteAbelianGroup, GroupSubset, cosets, make_group, periodic_mask, set_bits, subgroup_generated,
    sylow2_subgroup,
)
from .rationals import (
    QIntervalSpec,
    Rational,
    RationalGroupDescriptor,
    RationalMidconvexDescription,
    is_two_pure,
)

EXHAUSTIVE_ORDER_CAP = 12
SAMPLED_SUBSET_COUNT = 10_000
# The purity campaign draws its descriptor pairs over these primes and tests
# each pair's implication on this many lattice points.
PURITY_PRIME_POOL = (2, 3, 5, 7)
PURITY_SAMPLES_PER_PAIR = 200
# Midpoint rounds the hull check runs the bounded closure oracle for.
HULL_ROUNDS = 8


@dataclass
class VerificationReport:
    """Outcome of one campaign: counts, mismatches, elapsed time, seed."""

    campaign: str
    counts: dict[str, int] = field(default_factory=dict)
    mismatches: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    seed: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def add_mismatch(self, group, subset, operation: str, lhs, rhs) -> dict:
        """Record one disagreement and return the appended record."""
        record = {
            "group": str(group),
            "subset": str(subset),
            "operation": operation,
            "lhs": lhs,
            "rhs": rhs,
        }
        self.mismatches.append(record)
        return record

    def to_dict(self, include_elapsed: bool = False) -> dict:
        """Canonical rendering; elapsed time is zeroed unless asked for."""
        return {
            "name": self.campaign,
            "counts": dict(self.counts),
            "mismatches": list(self.mismatches),
            "elapsed_ms": int(self.elapsed_s * 1000) if include_elapsed else 0,
            "seed": self.seed,
            "details": self.details,
            "passed": self.passed,
        }


def _partitions(n: int, largest: int | None = None) -> Iterable[tuple[int, ...]]:
    """Partitions of n with parts descending, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    if largest is None:
        largest = n
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _factorize(n: int) -> list[tuple[int, int]]:
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return factors


@cache
def enumerate_abelian_groups(max_order: int) -> tuple[FiniteAbelianGroup, ...]:
    """One representative per isomorphism class per order up to max_order; built once per max_order and process.

    Classes of order n correspond to choices of a partition of the exponent
    for each prime power in n; the representative concatenates the prime
    power factors with primes ascending and partition parts descending.
    """
    if max_order < 1:
        raise ValueError("max_order must be positive")
    groups = []
    for n in range(1, max_order + 1):
        if n == 1:
            groups.append(make_group([1]))
            continue
        per_prime = []
        for p, e in _factorize(n):
            per_prime.append([tuple(p**part for part in parts) for parts in _partitions(e)])
        combos = [()]
        for options in per_prime:
            combos = [before + opt for before in combos for opt in options]
        for orders in combos:
            groups.append(make_group(orders))
    return tuple(groups)


def _subset_columns(group: FiniteAbelianGroup, seed: int) -> tuple[Sequence[int], int]:
    """The subsets a sweep decides, bit-sliced: bit k of column i is set iff subset k holds index i.

    Up to EXHAUSTIVE_ORDER_CAP, or while 2**n is at most SAMPLED_SUBSET_COUNT,
    subset k is every k < 2**n (_every_subset_columns). Above both, column i
    is the i-th of n seeded getrandbits(SAMPLED_SUBSET_COUNT) draws, so each
    subset is n independent fair bits: SAMPLED_SUBSET_COUNT uniform draws
    with replacement, repeats included and each decided and counted.
    """
    n = group.order
    if n <= EXHAUSTIVE_ORDER_CAP or 1 << n <= SAMPLED_SUBSET_COUNT:
        return _every_subset_columns(n)
    rng = random.Random(f"{seed}:{group}")
    return [rng.getrandbits(SAMPLED_SUBSET_COUNT) for _ in range(n)], SAMPLED_SUBSET_COUNT


@cache
def _every_subset_columns(order: int) -> tuple[tuple[int, ...], int]:
    """Columns of every subset of `order` indices, and their count 2**order; built once per order and process.

    Subset k is every k < 2**order, so column i is bit i of k: runs of
    w = 2**i zeros and w ones, one period of 2w bits repeated up to
    2**order bits. The columns do not depend on the caps, which only
    decide whether a sweep reads them.
    """
    count = 1 << order
    return tuple(periodic_mask(((1 << w) - 1) << w, 2 * w, count) for w in (1 << i for i in range(order))), count


def _sweep(campaign: str, max_order: int, seed: int, operation: str, reading) -> VerificationReport:
    """Decide all of each group's subsets at once, and record every subset where two readings differ.

    reading(group, columns, count, midconvex) gets the group's `count`
    subsets as bit-sliced membership columns (see _subset_columns), and the
    bits k with subset k midconvex; it returns its own word of the same
    bits. Wherever bit k of the two words differs, subset k is one mismatch
    under `operation`, lhs its midconvex bit and rhs its bit in the reading,
    labelled from the columns.
    """
    started = time.perf_counter()
    report = VerificationReport(campaign, seed=seed)
    groups = enumerate_abelian_groups(max_order)
    total = 0
    for group in groups:
        columns, count = _subset_columns(group, seed)
        midconvex = engine.midconvex_bits(group, columns, count)
        other = reading(group, columns, count, midconvex)
        if differ := midconvex ^ other:
            name, names = str(group), group.format_indices(range(group.order))
            for k in set_bits(differ):
                label = _subset_label(names, columns, k)
                report.add_mismatch(name, label, operation, bool(midconvex >> k & 1), bool(other >> k & 1))
        total += count
    report.counts = {"groups": len(groups), "subsets": total}
    report.mismatches.sort(key=lambda m: (m["group"], m["subset"]))
    report.elapsed_s = time.perf_counter() - started
    return report


def _subset_label(names: Sequence[str], columns: Sequence[int], k: int) -> str:
    """Subset k of the columns as text, its members in index order, element i named names[i]."""
    return "{%s}" % ",".join(name for name, column in zip(names, columns) if column >> k & 1)


def _odd_coset_bits(group: FiniteAbelianGroup, columns: Sequence[int], count: int) -> int:
    """Bit k is set iff the subset in bit k of the columns is empty or an odd-index coset.

    Each odd-index subgroup H is read through its cosets (_odd_index_cosets).
    A subset is empty or one coset of H exactly when it holds each coset
    whole (the AND of the coset's columns) or not at all (their OR), and
    holds at most one. The AND lies inside the OR, so XOR takes it out, and
    the complement is taken within the `count` bits: every word stays
    nonnegative, and column bits at or above `count` are cut.
    """
    full = (1 << count) - 1
    at = columns.__getitem__
    bits = 0
    for tiling in _odd_index_cosets(group):
        one = two = mixed = 0
        for coset in tiling:
            some = reduce(or_, map(at, coset))
            mixed |= some ^ reduce(and_, map(at, coset))
            two |= one & some
            one |= some
        bits |= full ^ (full & (two | mixed))
    return bits


@cache
def _odd_index_cosets(group: FiniteAbelianGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Each odd-index subgroup once, as the index tuples of its cosets; built once per group and process.

    The odd-index subgroups are those that contain G_2 (see
    engine.midconvex_closure), walked up from G_2, each once. Each subgroup H
    is tiled by its cosets g + H, g the least member, and joining each g but
    0 to H reaches the subgroups above H (joining any member of g + H gives
    the same subgroup).
    """
    sylow2 = sylow2_subgroup(group).mask
    subgroups, frontier, tilings = {sylow2}, [sylow2], []
    while frontier:
        h = frontier.pop()
        tiling = []
        for g, coset in cosets(group, h):
            tiling.append(tuple(set_bits(coset)))
            if g:
                joined = subgroup_generated(GroupSubset(group, h | 1 << g)).mask
                if joined not in subgroups:
                    subgroups.add(joined)
                    frontier.append(joined)
        tilings.append(tuple(tiling))
    return tuple(tilings)


def exhaustive_theorem2(max_order: int = 12, *, seed: int = 0) -> VerificationReport:
    """Midconvexity versus odd-index subgroup translate, over all small groups."""
    midconvex_counts: dict[str, int] = {}

    def reading(group, columns, count, midconvex):
        midconvex_counts[str(group)] = midconvex.bit_count()
        return _odd_coset_bits(group, columns, count)

    report = _sweep("theorem2", max_order, seed, "is_midconvex vs subgroup characterization", reading)
    report.details["midconvex_counts"] = midconvex_counts
    return report


def exhaustive_theorem1(max_order: int = 10, *, seed: int = 0) -> VerificationReport:
    """Midconvexity versus decomposability of every trace.

    A trace in a group of order n has a period of at most n. The verdicts of
    decompose_trace are taken once per period and process for each verdict
    function, once per rotation class: on every residue pattern up to period
    EXHAUSTIVE_ORDER_CAP, and above it, where the 2**(period-1) patterns grow
    too many, on the odd-modulus candidates (see engine.closed_traces). The
    columns are then read once per cyclic subgroup and coset, along its least
    generator, against the patterns whose every rotation to a member, read
    along every generator, is accepted (engine.theorem1_bits).
    """
    closed: dict[int, tuple[tuple[int, ...], ...]] = {}

    def reading(group, columns, count, midconvex):
        # groups come in ascending order, so this reads each period's table once
        for period in range(len(closed) + 1, group.order + 1):
            closed[period] = engine.closed_traces(period, period <= EXHAUSTIVE_ORDER_CAP)
        return engine.theorem1_bits(group, columns, count, closed)

    return _sweep("theorem1", max_order, seed, "is_midconvex vs trace decomposition", reading)


def exhaustive_lemma1(max_order: int = 12, *, seed: int = 0) -> VerificationReport:
    """Order-convexity of traces along member differences, for midconvex sets.

    The columns, masked to the midconvex bits, are read against every coset
    of every cyclic subgroup at once (engine.lemma1_failures). A midconvex
    subset reads as failing when some trace along a difference of two of its
    members is not order-convex, so each such subset is one mismatch, lhs
    True and rhs False, however many of its pairs fail.
    """

    def reading(group, columns, count, midconvex):
        return midconvex ^ engine.lemma1_failures(group, columns, midconvex)

    return _sweep("lemma1", max_order, seed, "is_midconvex vs order-convex traces", reading)


def _purity_violation(
    group: RationalGroupDescriptor,
    sub: RationalGroupDescriptor,
    rng: random.Random,
    samples: int,
) -> Fraction | None:
    """Grid point g with 2g in the subgroup but g outside, if the sampler finds one.

    The probe set is the halved subgroup generator, which is the canonical
    impurity witness whenever one exists (including it makes the sampled
    verdict decisive at these bounds), then `samples` points of the engine's
    lattice draw over the whole group. All are drawn before any is tested, so
    the random generator advances the same way whatever the verdict. A drawn point
    g = gen*t/L, gen = a/b, is 2ta/(2bL): with w the subgroup's `modulus` of
    2bL, g is outside the subgroup when w does not divide 2ta, that is when
    w1 = w/gcd(w, 2a) does not divide t, and 2g inside it when w divides
    4ta, when w2 = w/gcd(w, 4a) divides t. w1 is w2 or 2*w2, so no point
    violates when they are equal, and otherwise t violates exactly when
    t mod w1 is w2.
    """
    nums, big_l = engine._draw_numerators(rng, group, QIntervalSpec(), Fraction(0), samples)
    half = sub.gen / 2
    if group.contains(half) and not sub.contains(half):
        return half
    a = group.gen.numerator
    w = sub.modulus(2 * group.gen.denominator * big_l)
    w1, w2 = w // gcd(w, 2 * a), w // gcd(w, 4 * a)
    if w1 == w2:
        return None
    residues = list(map(mod, nums, repeat(w1)))
    if w2 not in residues:
        return None
    return group.gen * Fraction(nums[residues.index(w2)], big_l)


def sample_two_purity(trials: int = 100, seed: int = 0) -> VerificationReport:
    """Differential test of the two-purity formula against direct sampling."""
    started = time.perf_counter()
    rng = random.Random(seed)
    report = VerificationReport("purity", seed=seed)
    for trial in range(trials):
        ambient_primes = frozenset(rng.sample(PURITY_PRIME_POOL, rng.randint(0, 2)))
        ambient = RationalGroupDescriptor(
            Fraction(rng.randint(1, 12), rng.randint(1, 12)), ambient_primes
        )
        sub_primes = frozenset(p for p in ambient_primes if rng.random() < 0.5)
        den = prod(p ** rng.randint(0, 2) for p in ambient_primes) if ambient_primes else 1
        sub = RationalGroupDescriptor(
            ambient.gen * Fraction(rng.randint(1, 20), den), sub_primes
        )
        formula = is_two_pure(sub, ambient)
        violation = _purity_violation(ambient, sub, rng, PURITY_SAMPLES_PER_PAIR)
        if formula != (violation is None):
            record = report.add_mismatch(
                ambient,
                sub,
                "is_two_pure formula vs sampled implication",
                formula,
                violation is None,
            )
            record["violation"] = str(violation)
    report.counts = {"pairs": trials, "samples_per_pair": PURITY_SAMPLES_PER_PAIR}
    report.elapsed_s = time.perf_counter() - started
    return report


def _same_set(a: RationalMidconvexDescription, b: RationalMidconvexDescription) -> bool:
    """Whether two descriptions C ∩ (H + x) denote one set, decided in closed form.

    Two finite sets are the members base + k*gen of their lattice cuts, each
    fixed by its least and greatest member and its count. An infinite set
    fixes its subgroup, the group its differences generate, and its coset.
    A discrete H then leaves the extreme members along gen to compare. A
    dense coset meets every interval, so the ends must be equal, and an
    end's closedness counts only where the end lies in the coset. A finite
    set fails that comparison with an infinite one: with a discrete H it is
    bounded and the other is not, with a dense H it is a point and the
    other is not.
    """
    cuts = engine._finite_cut(a), engine._finite_cut(b)
    if None not in cuts:
        (i, j), (k, l) = cuts
        ga, gb = a.subgroup.gen, b.subgroup.gen
        return (a.base + i * ga, a.base + j * ga, j - i) == (b.base + k * gb, b.base + l * gb, l - k)
    h = a.subgroup
    if h != b.subgroup or not h.contains(b.base - a.base):
        return False
    if not h.primes:
        return a.interval.lattice_cut(a.base, h.gen) == b.interval.lattice_cut(a.base, h.gen)

    def ends(c: QIntervalSpec) -> tuple:
        return tuple(
            (end, end is not None and closed and h.contains(end - a.base))
            for end, closed in ((c.lower, c.lower_closed), (c.upper, c.upper_closed))
        )

    return ends(a.interval) == ends(b.interval)


def roundtrip_theorem3(
    group: RationalGroupDescriptor,
    description: RationalMidconvexDescription,
    samples: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Sampled midpoint check plus decomposition round trip of a description.

    The recovered description must denote the same set as the original,
    which `_same_set` decides exactly; a failing round trip is one mismatch
    with the recovered description as lhs and the original as rhs.
    """
    started = time.perf_counter()
    report = VerificationReport("theorem3", seed=seed)
    violation = engine.theorem3_if_violation(description, group, samples, seed)
    if violation is not None:
        pair, midpoint = "(%s,%s)" % violation[:2], str(violation[2])
        report.add_mismatch(group, description, "midpoint escaped the described set", pair, midpoint)
    try:
        recovered = engine.decompose_rational_set(group, description).description
    except NotMidconvex as exc:
        witness = None if exc.witness is None else "(%s,%s,%s)" % exc.witness
        report.add_mismatch(group, description, "decomposition rejected the set", exc.reason, witness)
    else:
        if not _same_set(recovered, description):
            report.add_mismatch(group, description, "recovered description disagrees", str(recovered), str(description))
    report.counts = {"samples": samples}
    report.elapsed_s = time.perf_counter() - started
    return report


def bounded_closure_oracle(
    group: RationalGroupDescriptor, start: Iterable[Rational], max_iters: int
) -> tuple[frozenset[Fraction], bool]:
    """Iterate adding admissible midpoints; flag is True when a round was stable.

    Midpoints lie between their endpoints, so the result always stays inside
    the order interval of the starting set. In dense groups the fixpoint may
    be unreachable; the flag then comes back False. The points are integer
    numerators over one denominator D, read by `engine._finite_closure`,
    which rejects a point outside the group; a round that adds a midpoint off
    the D lattice doubles D once.
    """
    nums, den, _ = engine._finite_closure(group, start)
    for rounds in range(max(max_iters, 0) + 1):
        missing = engine._missing_midpoints(group, nums, den)
        if rounds >= max_iters:
            # the last round only reports, so that a set completed on the
            # last growing round is still reported complete
            complete = next(missing, None) is None
            break
        sums = {s for _, _, s in missing}
        if not sums:
            complete = True
            break
        if any(s & 1 for s in sums):
            nums, den = [2 * n for n in nums] + list(sums), 2 * den
        else:
            nums = nums + [s >> 1 for s in sums]
        nums.sort()
    return frozenset(Fraction(n, den) for n in nums), complete


def conjecture_hull_check(
    group: RationalGroupDescriptor,
    start: Sequence[Rational],
    samples: int = 200,
    seed: int = 0,
) -> VerificationReport:
    """Differential check of engine.rational_closure against HULL_ROUNDS of the bounded midpoint oracle.

    Every oracle point must lie in the closure. Sampled closure points the
    oracle has not produced are mismatches once the oracle is complete; in a
    dense closure, where it never completes, they are only counted.
    """
    started = time.perf_counter()
    report = VerificationReport("hull", seed=seed)
    candidate = engine.rational_closure(group, start)
    if candidate is None:
        raise ValueError("hull verification needs a nonempty set")
    label = "{%s}" % ",".join(map(str, sorted(map(Fraction, start))))
    produced, complete = bounded_closure_oracle(group, start, HULL_ROUNDS)
    for p in sorted(produced):
        if not candidate.contains(p):
            report.add_mismatch(
                group, label, "oracle point outside hull candidate", str(p), str(candidate)
            )
    rng = random.Random(seed)
    sampled = engine.draw_lattice_points(
        rng, candidate.subgroup, candidate.interval, candidate.base, samples
    )
    unproduced = sorted({p for p in sampled if p not in produced})
    if complete:
        # the oracle reached its fixpoint, so closure points it never
        # produced contradict the closure
        for p in unproduced:
            report.add_mismatch(
                group, label, "candidate point outside completed closure", str(candidate), str(p)
            )
    report.counts = {"oracle_points": len(produced)}
    report.details = {
        "candidate": str(candidate),
        "oracle_complete": complete,
        "candidate_points_not_yet_produced": len(unproduced),
        "reverse_containment": "exact" if complete else "unfalsified at this depth",
    }
    report.elapsed_s = time.perf_counter() - started
    return report
