"""Differential campaigns: exhaustive sweeps, purity sampling, closure oracle."""

import importlib.util
import json
import pathlib
import random
import time
from fractions import Fraction as F

import pytest

from midconvex import engine, harness
from midconvex.engine import is_midconvex, rational_closure
from midconvex.errors import NotMidconvexTrace
from midconvex.groups import FiniteAbelianGroup, GroupElement, GroupSubset, is_subgroup, make_group
from midconvex.harness import (
    VerificationReport,
    bounded_closure_oracle,
    conjecture_hull_check,
    enumerate_abelian_groups,
    exhaustive_lemma1,
    exhaustive_theorem1,
    exhaustive_theorem2,
    sample_two_purity,
)
from midconvex.rationals import RationalGroupDescriptor

REFS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "refs.py"


def desc(gen, primes=()):
    return RationalGroupDescriptor(F(gen), frozenset(primes))


def load_refs():
    # the benchmark's closed-form references, loaded from their file; nothing
    # under bench/ is imported as a package
    spec = importlib.util.spec_from_file_location("bench_refs", REFS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def odd_coset_reference(group, mask):
    """Per subset: X - x is a subgroup of odd index for every member x."""
    for xi in GroupSubset(group, mask).indices():
        shifted = GroupSubset(group, group.translate_mask(mask, group.neg_index(xi)))
        if not (is_subgroup(shifted) and shifted.index % 2 == 1):
            return False
    return True


def test_enumerate_abelian_groups_examples():
    assert [str(g) for g in enumerate_abelian_groups(1)] == ["Z(1)"]
    by_order = {}
    for g in enumerate_abelian_groups(12):
        by_order.setdefault(g.order, []).append(str(g))
    assert by_order[8] == ["Z(8)", "Z(4x2)", "Z(2x2x2)"]
    assert by_order[6] == ["Z(2x3)"]
    assert by_order[12] == ["Z(4x3)", "Z(2x2x3)"]
    # one class per order for squarefree orders
    for n in (1, 2, 3, 5, 7, 10, 11):
        assert len(by_order[n]) == 1


def test_enumerate_abelian_groups_is_deterministic():
    assert [str(g) for g in enumerate_abelian_groups(10)] == [
        str(g) for g in enumerate_abelian_groups(10)
    ]
    with pytest.raises(ValueError):
        enumerate_abelian_groups(0)


def test_exhaustive_theorem2_small():
    report = exhaustive_theorem2(6)
    assert report.passed
    # orders 1..6 give classes Z(1..3), Z(4), Z(2x2), Z(5), Z(2x3)
    assert report.counts["groups"] == 7
    assert report.counts["subsets"] == 2 + 4 + 8 + 16 + 16 + 32 + 64


def test_exhaustive_theorem2_reproduces_direct_counts():
    # oracle: count midconvex subsets by the definition, straight enumeration
    def direct_count(n):
        group = make_group([n])
        return sum(
            1 for mask in range(1 << n) if is_midconvex(group, GroupSubset(group, mask))
        )

    assert direct_count(4) == 2
    assert direct_count(5) == 7
    report = exhaustive_theorem2(5)
    assert report.details["midconvex_counts"]["Z(4)"] == 2
    assert report.details["midconvex_counts"]["Z(5)"] == 7


def test_exhaustive_theorem1_small():
    report = exhaustive_theorem1(6)
    assert report.passed
    assert report.counts["groups"] == 7


def theorem1_reference(max_order, seed=0, sample_count=harness.SAMPLED_SUBSET_COUNT):
    # the theorem-1 sweep as it ran subset by subset, over the same seeded
    # masks, repeated draws included
    reference = VerificationReport("theorem1", seed=seed)
    total = 0
    groups = enumerate_abelian_groups(max_order)
    for group in groups:
        for mask in harness._subset_masks(group, seed, sample_count):
            total += 1
            subset = GroupSubset(group, mask)
            lhs, rhs = is_midconvex(group, subset), engine.verify_theorem1(group, subset)
            if lhs != rhs:
                label = harness._subset_label(subset)
                reference.add_mismatch(group, label, "is_midconvex vs trace decomposition", lhs, rhs)
    reference.counts = {"groups": len(groups), "subsets": total}
    reference.mismatches.sort(key=lambda m: (m["group"], m["subset"]))
    return reference


def test_sampled_theorem1_matches_the_per_subset_sweep():
    report = exhaustive_theorem1(14, sample_count=300)
    assert report.counts["subsets"] == 13326 + 300 + 300
    assert json.dumps(report.to_dict()) == json.dumps(theorem1_reference(14, sample_count=300).to_dict())


def test_theorem1_campaign_reports_a_faulty_decompose_trace(monkeypatch):
    # wrongly accept {0,2} mod 4 and wrongly reject {0,1,2} mod 3: the campaign
    # must report exactly what the per-subset reference reports
    decompose_trace = engine.decompose_trace

    def faulty(trace):
        pattern = (trace.period, trace.members())
        if pattern == (4, (0, 2)):
            return None
        if pattern == (3, (0, 1, 2)):
            raise NotMidconvexTrace("wrongly rejected")
        return decompose_trace(trace)

    monkeypatch.setattr(engine, "decompose_trace", faulty)
    report = exhaustive_theorem1(8)
    assert report.mismatches
    assert json.dumps(report.to_dict()) == json.dumps(theorem1_reference(8).to_dict())


def test_theorem1_campaign_asks_about_each_trace_once_per_call(monkeypatch):
    calls = []
    decompose_trace = engine.decompose_trace

    def counting(trace):
        calls.append(trace)
        return decompose_trace(trace)

    monkeypatch.setattr(engine, "decompose_trace", counting)
    per_call = []
    for _ in range(2):
        calls.clear()
        assert exhaustive_theorem1(10).passed
        per_call.append(len(calls))
    # every residue pattern that contains 0, for each period up to 10
    assert per_call == [1023, 1023]


def test_exhaustive_theorem1_to_order_20_in_bounded_time():
    started = time.perf_counter()
    report = exhaustive_theorem1(20)
    assert time.perf_counter() - started < 3
    assert report.passed
    assert report.counts == {"groups": 31, "subsets": 151518}


def test_exhaustive_lemma1_small():
    report = exhaustive_lemma1(8)
    assert report.passed


def test_lemma1_sweep_builds_no_group_elements(monkeypatch):
    built = []
    original = GroupElement.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counting)
    assert exhaustive_lemma1(8).passed
    assert built == []


def test_lemma1_mismatches_are_labelled_as_group_elements(monkeypatch):
    # a faulty reading that rejects every trace along a direction of even order
    def faulty(group, mask, xi, gi):
        return group.element_at(gi).order() % 2 == 1

    monkeypatch.setattr(engine, "lemma1_holds_at", faulty)
    report = exhaustive_lemma1(6)
    expected = []
    for group in harness.enumerate_abelian_groups(6):
        for mask in range(1 << group.order):
            subset = GroupSubset(group, mask)
            if not is_midconvex(group, subset):
                continue
            members = subset.members()
            for x in members:
                for y in members:
                    if x != y and (y - x).order() % 2 == 0:
                        label = "{%s}" % ",".join(str(m) for m in members)
                        expected.append((str(group), label, f"trace at {x} along {y - x} not order-convex"))
    got = [(m["group"], m["subset"], m["operation"]) for m in report.mismatches]
    assert expected and sorted(got) == sorted(expected)


def test_sampled_subsets_used_above_exhaustive_cap():
    report = exhaustive_theorem2(14, sample_count=300)
    assert report.passed
    # orders 13 and 14 are sampled at 300 subsets each rather than swept
    assert report.counts["subsets"] == 13326 + 300 + 300


def test_odd_coset_bits_match_the_per_subset_characterization():
    for group in enumerate_abelian_groups(10):
        masks = range(1 << group.order)
        columns = engine.subset_columns(group, masks)
        expected = sum(1 << k for k in masks if odd_coset_reference(group, masks[k]))
        assert harness._odd_coset_bits(group, columns, len(masks)) == expected, str(group)


def test_odd_index_cosets_translate_each_subgroup_once_per_coset(monkeypatch):
    calls = []
    translate = FiniteAbelianGroup.translate_mask
    monkeypatch.setattr(
        FiniteAbelianGroup, "translate_mask", lambda self, *a: calls.append(a) or translate(self, *a)
    )
    for group in enumerate_abelian_groups(12):
        cosets = harness._odd_index_cosets(group)
        # reference: every odd-index subgroup by every element
        subgroups = {m for m in range(1 << group.order) if is_subgroup(GroupSubset(group, m))}
        every = {
            translate(group, h, d)
            for h in subgroups
            if group.order // h.bit_count() % 2 == 1
            for d in range(group.order)
        }
        assert cosets == every, str(group)
    # 90 cosets up to order 12, each translated once (248 calls by every element)
    assert len(calls) == 90


def test_sampled_theorem2_matches_the_per_subset_sweep():
    # the sweep as it ran subset by subset, over the same seeded masks
    seed, sample_count = 0, 300
    reference = VerificationReport("theorem2", seed=seed)
    midconvex_counts, total = {}, 0
    groups = enumerate_abelian_groups(14)
    for group in groups:
        for mask in harness._subset_masks(group, seed, sample_count):
            total += 1
            lhs = is_midconvex(group, GroupSubset(group, mask))
            rhs = odd_coset_reference(group, mask)
            if lhs:
                midconvex_counts[str(group)] = midconvex_counts.get(str(group), 0) + 1
            if lhs != rhs:
                label = harness._subset_label(GroupSubset(group, mask))
                reference.add_mismatch(group, label, "is_midconvex vs subgroup characterization", lhs, rhs)
    reference.counts = {"groups": len(groups), "subsets": total}
    reference.details["midconvex_counts"] = midconvex_counts
    report = exhaustive_theorem2(14, seed=seed, sample_count=sample_count)
    assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


@pytest.mark.parametrize("orders", [[20], [2, 2, 5], [2, 2, 2, 2], [3, 3, 2]])
def test_every_subset_of_order_16_to_20_groups_is_decided(orders):
    # 2**20 subsets of Z(20) and Z(2x2x5): the closed-form count 1 + sum |K|
    # over subgroups K of the odd part, and the odd-index cosets, both agree
    group = make_group(orders)
    masks = range(1 << group.order)
    columns = engine.subset_columns(group, masks)
    midconvex = engine.midconvex_bits(group, columns, len(masks))
    assert midconvex.bit_count() == load_refs().midconvex_count(tuple(orders))
    assert midconvex == harness._odd_coset_bits(group, columns, len(masks))


def test_theorem2_mismatches_are_labelled_and_sorted(monkeypatch):
    # flip the coset reading on three subsets; each must be reported once,
    # sorted by group label and then subset label, not by mask
    flips = {"Z(4)": (1 << 2) | (1 << 9), "Z(2x2)": 1 << 6}
    coset_bits = harness._odd_coset_bits

    def flipped(group, columns, count):
        return coset_bits(group, columns, count) ^ flips.get(str(group), 0)

    monkeypatch.setattr(harness, "_odd_coset_bits", flipped)
    report = exhaustive_theorem2(4)
    operation = "is_midconvex vs subgroup characterization"
    assert report.mismatches == [
        {"group": "Z(2x2)", "subset": "{(0,1),(1,0)}", "operation": operation, "lhs": False, "rhs": True},
        {"group": "Z(4)", "subset": "{0,3}", "operation": operation, "lhs": False, "rhs": True},
        {"group": "Z(4)", "subset": "{1}", "operation": operation, "lhs": False, "rhs": True},
    ]
    assert report.counts == {"groups": 5, "subsets": 46}
    assert report.details["midconvex_counts"] == {"Z(1)": 2, "Z(2)": 2, "Z(3)": 5, "Z(4)": 2, "Z(2x2)": 2}


def test_passing_theorem2_sweep_builds_no_group_elements(monkeypatch):
    built = []
    original = GroupElement.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counting)
    assert exhaustive_theorem2(8).passed
    assert built == []

def test_sample_two_purity_passes_and_is_deterministic():
    first = sample_two_purity(40, seed=11)
    second = sample_two_purity(40, seed=11)
    assert first.passed
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
    assert first.counts == {"pairs": 40, "samples_per_pair": 200}


def fraction_purity_violation(group, sub, rng, samples):
    """The Fraction reading of the purity probe: every point built and tested as a Fraction."""
    primes = sorted(group.primes)
    candidates = [sub.gen / 2]
    for _ in range(samples):
        den = 1
        for p in primes:
            den *= p ** rng.randint(0, engine._DRAW_EXPONENTS)
        num = rng.randint(-engine._DRAW_NUMERATORS, engine._DRAW_NUMERATORS)
        candidates.append(group.gen * F(num, den))
    for g in candidates:
        if group.contains(g) and sub.contains(2 * g) and not sub.contains(g):
            return g
    return None


def purity_pairs(rng, count, foreign):
    """(ambient, sub) pairs drawn as sample_two_purity draws them.

    A foreign sub has a generator that is no multiple of the ambient one, so
    its halved generator may fall outside the ambient group and leave the
    verdict to the drawn points.
    """
    for _ in range(count):
        ambient_primes = frozenset(rng.sample([2, 3, 5, 7], rng.randint(0, 2)))
        ambient = RationalGroupDescriptor(F(rng.randint(1, 12), rng.randint(1, 12)), ambient_primes)
        sub_primes = frozenset(p for p in ambient_primes if rng.random() < 0.5)
        den = 1
        for p in ambient_primes:
            den *= p ** rng.randint(0, 2)
        gen = ambient.gen * F(rng.randint(1, 20), den)
        if foreign:
            gen = F(rng.randint(1, 30), rng.randint(1, 30))
        yield ambient, RationalGroupDescriptor(gen, sub_primes)


def test_integer_purity_probe_matches_the_fraction_probe():
    rng = random.Random(2024)
    drawn_verdicts = 0
    for foreign in (False, True):
        for k, (ambient, sub) in enumerate(purity_pairs(rng, 1200, foreign)):
            samples = 10 + k % 4 * 20
            state = rng.getstate()
            got = harness._purity_violation(ambient, sub, rng, samples)
            after = rng.getstate()
            rng.setstate(state)
            want = fraction_purity_violation(ambient, sub, rng, samples)
            assert got == want and type(got) is type(want), (ambient, sub)
            assert rng.getstate() == after
            drawn_verdicts += got is not None and got != sub.gen / 2
    # the drawn points, not only the halved generator, decide some foreign pairs
    assert drawn_verdicts > 100


def test_sample_two_purity_reports_are_unchanged_per_seed():
    for seed in range(10):
        assert sample_two_purity(100, seed=seed).to_dict() == {
            "name": "purity",
            "counts": {"pairs": 100, "samples_per_pair": 200},
            "mismatches": [],
            "elapsed_ms": 0,
            "seed": seed,
            "details": {},
            "passed": True,
        }


def test_verification_report_shape():
    report = VerificationReport("demo", seed=3)
    assert report.passed
    report.mismatches.append({"group": "Z(2)"})
    assert not report.passed
    rendered = report.to_dict(include_elapsed=False)
    assert rendered["elapsed_ms"] == 0 and rendered["name"] == "demo"


def test_bounded_closure_oracle_examples():
    integers = desc(1)
    points, complete = bounded_closure_oracle(integers, [F(0), F(3)], 5)
    assert points == {F(0), F(3)} and complete

    points, complete = bounded_closure_oracle(integers, [F(0), F(2)], 5)
    assert points == {F(0), F(1), F(2)} and complete

    dyadic = desc(1, [2])
    points, complete = bounded_closure_oracle(dyadic, [F(0), F(1)], 3)
    assert not complete
    fewer, _ = bounded_closure_oracle(dyadic, [F(0), F(1)], 2)
    assert len(fewer) < len(points)


def test_bounded_closure_oracle_stays_in_the_order_interval():
    group = desc(F(1, 2), [3])
    start = [F(-3, 2), F(0), F(5, 2)]
    points, _ = bounded_closure_oracle(group, start, 4)
    assert all(min(start) <= p <= max(start) for p in points)
    with pytest.raises(ValueError):
        bounded_closure_oracle(desc(1), [F(1, 2)], 3)


def test_bounded_closure_oracle_completes_on_final_round():
    # one round suffices; the stability probe must still report completion
    points, complete = bounded_closure_oracle(desc(1), [F(0), F(2)], 1)
    assert complete and points == {F(0), F(1), F(2)}


def test_rational_closure_matches_the_bounded_oracle():
    # a closure without 2 inverted is finite, and the oracle reaches it; with 2
    # inverted the oracle never completes on two or more points, so it gets
    # few rounds, and the closure is dense and holds every point it produced
    rng = random.Random(7)
    groups = [desc(1), desc(1, [2]), desc(1, [3]), desc(F(1, 2), [2, 3]), desc(F(1, 2), [5]), desc(3)]
    dense = 0
    for _ in range(200):
        group = rng.choice(groups)
        dens = [1] + sorted(group.primes)
        start = {group.gen * F(rng.randint(-4, 4), rng.choice(dens)) for _ in range(rng.randint(1, 4))}
        closure = rational_closure(group, start)
        inverts_two = 2 in group.primes
        produced, complete = bounded_closure_oracle(group, start, 3 if inverts_two else 12)
        if inverts_two and len(start) >= 2:
            dense += 1
            assert not complete and engine.described_members(closure) is None
            assert start <= produced and all(closure.contains(p) for p in produced)
        else:
            assert complete and set(engine.described_members(closure)) == produced, (group, sorted(start))
    assert 0 < dense < 200


def fraction_missing_midpoints(group, points):
    """Reference: each (x, y, z) with x < y points and z = (x+y)/2 in the group but not a point."""
    members = frozenset(points)
    pts = sorted(members)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            z = (x + y) / 2
            if z not in members and group.contains(z):
                yield x, y, z


def fraction_closure_oracle(group, start, max_iters):
    """Reference: the bounded oracle's all-pairs rounds on Fraction points."""
    points = frozenset(F(p) for p in start)
    for rounds in range(max(max_iters, 0) + 1):
        missing = (z for _, _, z in fraction_missing_midpoints(group, points))
        if rounds >= max_iters:
            return points, next(missing, None) is None
        added = set(missing)
        if not added:
            return points, True
        points = points | added


def test_integer_oracle_matches_the_fraction_oracle():
    rng = random.Random(31)
    pools = [(), (2,), (3,), (2, 3), (5,), (3, 5), (2, 3, 5)]
    violated = incomplete = 0
    for i in range(350):
        primes = pools[i % len(pools)]
        group = desc(F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 4])), primes)
        dens = [1, *primes]
        start = [group.gen * F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(1, 5))]
        first = engine.is_midconvex_q_finite(group, start)
        assert first == next(fraction_missing_midpoints(group, {F(p) for p in start}), None), (i, start)
        violated += first is not None
        rounds = rng.randint(0, 3 if 2 in primes else 6)
        got = bounded_closure_oracle(group, start, rounds)
        assert got == fraction_closure_oracle(group, start, rounds), (i, group, start, rounds)
        incomplete += not got[1]
    assert violated >= 100 and incomplete >= 50, (violated, incomplete)


def test_hull_candidate_and_conjecture_examples():
    integers = desc(1)
    report = conjecture_hull_check(integers, [F(0), F(2)])
    assert report.passed
    assert report.details["oracle_complete"]
    assert report.details["reverse_containment"] == "exact"
    assert report.counts["oracle_points"] == 3

    dyadic = desc(1, [2])
    report = conjecture_hull_check(dyadic, [F(0), F(1)], max_iters=4)
    assert report.passed
    assert not report.details["oracle_complete"]
    assert report.details["reverse_containment"] == "unfalsified at this depth"

    singleton = conjecture_hull_check(integers, [F(7)])
    assert singleton.passed
    assert singleton.counts["oracle_points"] == 1


@pytest.mark.parametrize("seed,unproduced", [(0, 5), (1, 2)])
def test_conjecture_hull_check_draws_are_pinned_per_seed(seed, unproduced):
    # one oracle round leaves most candidate points unproduced, so the count
    # depends on which points the seeded sampler drew
    start = [F(-1), F(4)]
    report = conjecture_hull_check(desc(1, [2, 5]), start, max_iters=1, samples=8, seed=seed)
    assert report.details["candidate_points_not_yet_produced"] == unproduced


def test_hull_candidate_structure():
    candidate = rational_closure(desc(1), [F(0), F(4)])
    # the span 4Z closes to Z, so the candidate is the whole interval
    assert candidate.subgroup == desc(1)
    assert [candidate.contains(F(k)) for k in range(-1, 6)] == [
        False, True, True, True, True, True, False,
    ]


def test_exhaustive_campaign_reports_are_byte_identical():
    first = exhaustive_theorem2(6).to_dict()
    second = exhaustive_theorem2(6).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
