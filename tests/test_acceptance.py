"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every bound and tolerance is pinned here; the exhaustive sweeps are
exact (zero mismatches), the randomized campaigns are seeded and
deterministic.
"""

import pathlib
import random
import time
from fractions import Fraction as F

from midconvex import cli, dsl
from midconvex.engine import (
    decompose_rational,
    is_midconvex,
    lemma1_holds_in_group,
    midconvex_closure,
    theorem3_if_violation,
)
from midconvex.errors import NotMidconvexTrace
from midconvex.groups import GroupSubset, make_group
from midconvex.harness import (
    enumerate_abelian_groups,
    exhaustive_lemma1,
    exhaustive_theorem1,
    exhaustive_theorem2,
    sample_two_purity,
)
from midconvex.intsets import IntWindowSet, decompose_z, midconvex_z_witness
from midconvex.rationals import (
    QIntervalSpec,
    RationalGroupDescriptor,
    RationalMidconvexDescription,
    two_pure_closure,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{status}] {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def test_criterion_1_theorem2_exhaustive_order_12():
    started = time.perf_counter()
    result = exhaustive_theorem2(12)
    elapsed = time.perf_counter() - started
    report(
        1,
        "theorem-2 equivalence, all groups of order <= 12, all subsets",
        result.passed and elapsed < 300,
        f"{result.counts['subsets']} subsets, {len(result.mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_theorem1_exhaustive_order_10():
    result = exhaustive_theorem1(10)
    report(
        2,
        "theorem-1 equivalence, all groups of order <= 10, all subsets",
        result.passed,
        f"{result.counts['subsets']} subsets, {len(result.mismatches)} mismatches",
    )


def test_criterion_3_lemma1_necessity_order_12():
    result = exhaustive_lemma1(12)
    # belt and braces: re-derive the midconvex subsets of one group directly
    g15 = make_group([15])
    pairs_checked = 0
    for mask in range(1 << 15):
        subset = GroupSubset(g15, mask)
        if subset.size < 2 or not is_midconvex(g15, subset):
            continue
        members = subset.members()
        for x in members:
            for y in members:
                if x != y:
                    assert lemma1_holds_in_group(g15, subset, x, y)
                    pairs_checked += 1
    report(
        3,
        "lemma-1 necessity for every midconvex subset found in the sweep",
        result.passed,
        f"{result.counts['subsets']} subsets swept, {pairs_checked} extra pairs on Z(15)",
    )


def test_criterion_4_derived_midconvex_counts():
    # independent oracle: direct enumeration with the bare definition
    def direct_count(n):
        group = make_group([n])
        count = 0
        for mask in range(1 << n):
            members = set(GroupSubset(group, mask).members())
            ok = True
            for x in members:
                for y in members:
                    target = x + y
                    if any(z + z == target and z not in members for z in group):
                        ok = False
                        break
                if not ok:
                    break
            count += ok
        return count

    direct4, direct5 = direct_count(4), direct_count(5)
    sweep = exhaustive_theorem2(5).details["midconvex_counts"]
    ok = (
        direct4 == 2
        and direct5 == 7
        and sweep["Z(4)"] == 2
        and sweep["Z(5)"] == 7
    )
    report(
        4,
        "cyclic order 4 has 2 midconvex subsets and order 5 has 7",
        ok,
        f"direct: {direct4}/{direct5}, sweep: {sweep['Z(4)']}/{sweep['Z(5)']}",
    )


def test_criterion_5_closure_laws_1000_random_subsets():
    rng = random.Random(2024)
    groups = enumerate_abelian_groups(24)
    violations = 0
    for _ in range(1000):
        group = rng.choice(groups)
        x = GroupSubset(group, rng.getrandbits(group.order))
        y = GroupSubset(group, x.mask | rng.getrandbits(group.order))
        cx = midconvex_closure(group, x)
        cy = midconvex_closure(group, y)
        if x.mask & ~cx.mask:
            violations += 1
        if cx.mask & ~cy.mask:
            violations += 1
        if midconvex_closure(group, cx) != cx:
            violations += 1
        if not is_midconvex(group, cx):
            violations += 1
    report(
        5,
        "closure is extensive, monotone, idempotent, and lands on midconvex sets",
        violations == 0,
        f"1000 subsets over {len(groups)} group classes, {violations} violations",
    )


def test_criterion_6_two_purity_formula_vs_sampling():
    started = time.perf_counter()
    result = sample_two_purity(100, seed=0)
    elapsed = time.perf_counter() - started
    report(
        6,
        "two-purity formula agrees with the sampled implication on 100 pairs",
        result.passed and result.counts == {"pairs": 100, "samples_per_pair": 200} and elapsed < 30,
        f"{result.counts['pairs']} pairs x {result.counts['samples_per_pair']} samples, {elapsed:.1f}s",
    )


def _synthetic_description(rng, pool):
    ambient = RationalGroupDescriptor(
        F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 4])), frozenset(pool)
    )
    gen = ambient.gen
    k = rng.choice([1, 3, 5, 7])
    sub_primes = frozenset(p for p in pool if rng.random() < 0.6)
    j = rng.randint(0, 1) if 2 in pool else 0
    seed_subgroup = RationalGroupDescriptor(gen * F(k, 2**j), sub_primes)
    subgroup = two_pure_closure(seed_subgroup, ambient)
    h = subgroup.gen
    base = gen * rng.randint(-4, 4)
    lo_off = rng.choice([None, 0, rng.randint(1, 6)])
    up_off = rng.choice([None, 1, rng.randint(2, 6)])
    lower = None if lo_off is None else base - h * lo_off
    upper = None if up_off is None else base + h * up_off
    lower_closed = True if lo_off == 0 else bool(rng.getrandbits(1))
    upper_closed = True if up_off == 1 else bool(rng.getrandbits(1))
    interval = QIntervalSpec(lower, upper, lower_closed, upper_closed)
    return ambient, RationalMidconvexDescription(interval, subgroup, base)


def test_criterion_7_theorem3_round_trip_50_descriptions():
    rng = random.Random(7)
    pools = [(), (2,), (3,), (2, 3), (5,)]
    sampling_failures = 0
    grid_mismatches = 0
    cases = 0
    for i in range(50):
        pool = pools[i % len(pools)]
        ambient, description = _synthetic_description(rng, pool)
        cases += 1
        if theorem3_if_violation(description, ambient, samples=1000, seed=i) is not None:
            sampling_failures += 1
            continue
        subgroup, base = description.subgroup, description.base
        h = subgroup.gen
        radius = max(24 * ambient.gen, 8 * h)
        depth = 3 * max(1, len(pool))
        recovered = decompose_rational(
            ambient, description, base, base + h, depth, radius
        )
        margin = radius - h
        for e1 in range(3):
            for p in (*pool, 1):
                den = p**e1 if p != 1 else 1
                for num in range(-20, 21):
                    r = base + ambient.gen * F(num, den)
                    if abs(r - base) > margin:
                        continue
                    if recovered.contains(r) != description.contains(r):
                        grid_mismatches += 1
    ok = sampling_failures == 0 and grid_mismatches == 0
    report(
        7,
        "theorem-3 sampling and decomposition round-trip on 50 synthetic descriptions",
        ok,
        f"{cases} cases, {sampling_failures} sampling failures, {grid_mismatches} grid mismatches",
    )


def test_criterion_8_windowed_integer_equivalence():
    lo, hi = 0, 10
    mismatches = 0
    for mask in range(1 << (hi - lo + 1)):
        members = [lo + i for i in range(hi - lo + 1) if mask >> i & 1]
        window = IntWindowSet(lo, hi, tuple(members))
        decomposes = True
        for x in members:
            try:
                decompose_z(window, x)
            except NotMidconvexTrace:
                decomposes = False
                break
        if decomposes != (midconvex_z_witness(window) is None):
            mismatches += 1
    report(
        8,
        "windowed-Z midconvexity iff decomposition succeeds at every base, 2^11 sets",
        mismatches == 0,
        f"{1 << 11} sets, {mismatches} mismatches",
    )


def test_criterion_9_cli_golden_transcripts():
    cases = [
        ("check_z4", "Z(4); {0}; check", 1),
        ("decompose_z15", "Z(15); {1,4,7,10,13}; decompose x=1", 0),
        ("verify_theorem2", "Z; {0}@window[0,0]; verify --theorem 2 --max-order 12", 0),
    ]
    failures = []
    for name, text, expected_code in cases:
        program = dsl.parse(text)
        for fmt, ext in (("text", "txt"), ("json", "json")):
            code, output = cli.run(program, fmt=fmt)
            want = (GOLDEN / f"{name}.{ext}").read_bytes()
            if code != expected_code or output.encode("utf-8") != want:
                failures.append(f"{name}.{ext}")
    report(
        9,
        "CLI transcripts are byte-identical to the committed goldens",
        not failures,
        f"6 transcripts checked" + (f", failing: {failures}" if failures else ""),
    )
