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
from math import prod
from typing import Iterable, Sequence

from . import engine
from .errors import NotMidconvex
from .groups import (
    FiniteAbelianGroup, GroupSubset, least_index, make_group, periodic_mask, set_bits, subgroup_generated,
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


def enumerate_abelian_groups(max_order: int) -> list[FiniteAbelianGroup]:
    """One representative per isomorphism class per order up to max_order.

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
    return groups


def _subset_columns(group: FiniteAbelianGroup, seed: int) -> tuple[list[int], int]:
    """The subsets a sweep decides, bit-sliced: bit k of column i is set iff subset k holds index i.

    Up to EXHAUSTIVE_ORDER_CAP subset k is every k < 2**n, so column i is bit
    i of k: runs of w = 2**i zeros and w ones, one period of 2w bits repeated
    up to 2**n bits. Above it column i is the i-th of n seeded
    getrandbits(SAMPLED_SUBSET_COUNT) draws, so each subset is n independent
    fair bits: SAMPLED_SUBSET_COUNT uniform draws with replacement, repeats
    included and each decided and counted.
    """
    n = group.order
    if n <= EXHAUSTIVE_ORDER_CAP or 1 << n <= SAMPLED_SUBSET_COUNT:
        count = 1 << n
        return [periodic_mask(((1 << w) - 1) << w, 2 * w, count) for w in (1 << i for i in range(n))], count
    rng = random.Random(f"{seed}:{group}")
    return [rng.getrandbits(SAMPLED_SUBSET_COUNT) for _ in range(n)], SAMPLED_SUBSET_COUNT


def _sweep(campaign: str, max_order: int, seed: int, check) -> VerificationReport:
    """Run check once per group, with all of the group's subsets decided at once.

    check(report, group, columns, count, midconvex) gets the group's `count`
    subsets as bit-sliced membership columns (see _subset_columns), and the
    bits k with subset k midconvex.
    """
    started = time.perf_counter()
    report = VerificationReport(campaign, seed=seed)
    groups = enumerate_abelian_groups(max_order)
    total = 0
    for group in groups:
        columns, count = _subset_columns(group, seed)
        check(report, group, columns, count, engine.midconvex_bits(group, columns, count))
        total += count
    report.counts = {"groups": len(groups), "subsets": total}
    report.mismatches.sort(key=lambda m: (m["group"], m["subset"]))
    report.elapsed_s = time.perf_counter() - started
    return report


def _subset_label(names: Sequence[str], columns: Sequence[int], k: int) -> str:
    """Subset k of the columns as text, its members in index order, element i named names[i]."""
    return "{%s}" % ",".join(name for name, column in zip(names, columns) if column >> k & 1)


def _add_bit_mismatches(report, group, columns, operation: str, lhs: int, rhs: int) -> None:
    """Record subset k as a mismatch wherever bit k of the two readings differs."""
    differ = lhs ^ rhs
    if not differ:
        return
    name, names = str(group), list(map(group.format_index, range(group.order)))
    for k in set_bits(differ):
        label = _subset_label(names, columns, k)
        report.add_mismatch(name, label, operation, bool(lhs >> k & 1), bool(rhs >> k & 1))


def _odd_coset_bits(group: FiniteAbelianGroup, columns: Sequence[int], count: int) -> int:
    """Bit k is set iff the subset in bit k of the columns is empty or an odd-index coset.

    The odd-index subgroups are those that contain G_2 (see
    engine.midconvex_closure), walked up from G_2, each once. Each subgroup H
    is tiled by its cosets, each translated from its least uncovered index g,
    and joining each such g to H reaches the subgroups above H (joining any
    member of g + H gives the same subgroup). A subset is empty or one coset
    of H exactly when it holds each coset whole (the AND of the coset's
    columns) or not at all (their OR), and holds at most one.
    """
    full = (1 << count) - 1
    bits = 0
    sylow2 = sylow2_subgroup(group).mask
    subgroups, frontier = {sylow2}, [sylow2]
    while frontier:
        h = frontier.pop()
        uncovered = (1 << group.order) - 1
        one = two = mixed = 0
        while uncovered:
            g = least_index(uncovered)
            coset = group.translate_mask(h, g)
            uncovered &= ~coset
            whole, some = full, 0
            for i in set_bits(coset):
                whole &= columns[i]
                some |= columns[i]
            mixed |= some & ~whole
            two |= one & some
            one |= some
            if g:
                joined = subgroup_generated(GroupSubset(group, h | 1 << g)).mask
                if joined not in subgroups:
                    subgroups.add(joined)
                    frontier.append(joined)
        bits |= full & ~two & ~mixed
    return bits


def exhaustive_theorem2(max_order: int = 12, *, seed: int = 0) -> VerificationReport:
    """Midconvexity versus odd-index subgroup translate, over all small groups."""
    midconvex_counts: dict[str, int] = {}

    def check(report, group, columns, count, midconvex):
        cosets = _odd_coset_bits(group, columns, count)
        midconvex_counts[str(group)] = midconvex.bit_count()
        operation = "is_midconvex vs subgroup characterization"
        _add_bit_mismatches(report, group, columns, operation, midconvex, cosets)

    report = _sweep("theorem2", max_order, seed, check)
    report.details["midconvex_counts"] = midconvex_counts
    return report


def exhaustive_theorem1(max_order: int = 10, *, seed: int = 0) -> VerificationReport:
    """Midconvexity versus decomposability of every trace.

    A trace in a group of order n has a period of at most n. The verdicts of
    decompose_trace are taken once per call and period, once per rotation
    class: on every residue pattern up to period EXHAUSTIVE_ORDER_CAP, and
    above it, where the 2**(period-1) patterns grow too many, on the
    odd-modulus candidates (see engine.closed_traces). The columns are then
    read once per cyclic subgroup and coset, along its least generator,
    against the patterns whose every rotation to a member, read along every
    generator, is accepted (engine.theorem1_bits).
    """
    closed: dict[int, list[tuple[int, ...]]] = {}

    def check(report, group, columns, count, midconvex):
        # groups come in ascending order, so this asks about each period once
        for period in range(len(closed) + 1, group.order + 1):
            closed[period] = engine.closed_traces(period, period <= EXHAUSTIVE_ORDER_CAP)
        traces = engine.theorem1_bits(group, columns, count, closed)
        operation = "is_midconvex vs trace decomposition"
        _add_bit_mismatches(report, group, columns, operation, midconvex, traces)

    return _sweep("theorem1", max_order, seed, check)


def exhaustive_lemma1(max_order: int = 12, *, seed: int = 0) -> VerificationReport:
    """Order-convexity of traces along member differences, for midconvex sets.

    The columns, masked to the midconvex bits, are read against every coset
    of every cyclic subgroup at once (engine.lemma1_failures); each failing
    subset and pair of members is reported in the order of its subset, then
    x, then y. Each failing subset is labelled once, however many of its
    pairs fail.
    """

    def check(report, group, columns, count, midconvex):
        failures = engine.lemma1_failures(group, columns, midconvex)
        if not failures:
            return
        name, names, labels = str(group), list(map(group.format_index, range(group.order))), {}
        for k, xi, yi in failures:
            if k not in labels:
                labels[k] = _subset_label(names, columns, k)
            gi = group.add_index(yi, group.neg_index(xi))
            operation = f"trace at {names[xi]} along {names[gi]} not order-convex"
            report.add_mismatch(name, labels[k], operation, True, False)

    return _sweep("lemma1", max_order, seed, check)


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
    2bL, g is outside the subgroup when w does not divide 2ta, and 2g inside
    it when w divides 4ta.
    """
    nums, big_l = engine._draw_numerators(rng, group, QIntervalSpec(), Fraction(0), samples)
    half = sub.gen / 2
    if group.contains(half) and not sub.contains(half):
        return half
    a = group.gen.numerator
    w = sub.modulus(2 * group.gen.denominator * big_l)
    for t in nums:
        if 2 * t * a % w and not 4 * t * a % w:
            return group.gen * Fraction(t, big_l)
    return None


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


def _holds(reading, k: int) -> bool:
    """Whether k is in a reading (r, m, first, last) of `engine._described_range`; None holds none."""
    if reading is None:
        return False
    r, m, first, last = reading
    return (k - r) % m == 0 and (first is None or first <= k) and (last is None or k <= last)


def roundtrip_theorem3(
    group: RationalGroupDescriptor,
    description: RationalMidconvexDescription,
    samples: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Sampled midpoint check plus decomposition round trip of a description.

    The recovered description must agree with the original on a grid of
    points within one subgroup step inside the decomposition window.
    """
    started = time.perf_counter()
    report = VerificationReport("theorem3", seed=seed)
    violation = engine.theorem3_if_violation(description, group, samples, seed)
    if violation is not None:
        pair, midpoint = "(%s,%s)" % violation[:2], str(violation[2])
        report.add_mismatch(group, description, "midpoint escaped the described set", pair, midpoint)
    grid_checked = 0
    try:
        decomposition = engine.decompose_rational_set(group, description)
    except NotMidconvex as exc:
        witness = None if exc.witness is None else "(%s,%s,%s)" % exc.witness
        report.add_mismatch(group, description, "decomposition rejected the set", exc.reason, witness)
        decomposition = None
    if decomposition is not None and decomposition.radius is not None:
        recovered = decomposition.description
        # the radius is the base's farther reach, at least 0, plus this step
        margin = decomposition.radius - description.subgroup.gen
        # each den's grid is base + num * gen/den, |num| <= 24, cut to the
        # margin window; both sets are read along it once, in closed form
        base, rb = description.base, recovered.base
        window = QIntervalSpec(rb - margin, rb + margin)
        for den in engine._denominators(group.primes, 2):
            step = group.gen / den
            lo, hi = window.lattice_cut(base, step)
            nums = range(max(lo, -24), min(hi, 24) + 1)
            grid_checked += len(nums)
            inside = engine._described_range(description, base, step)
            recovered_inside = engine._described_range(recovered, base, step)
            for num in nums:
                if _holds(inside, num) != _holds(recovered_inside, num):
                    r = base + step * num
                    report.add_mismatch(
                        group, description, "recovered description disagrees", str(recovered), str(r)
                    )
    report.counts = {"samples": samples, "grid_points": grid_checked}
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
