"""Differential campaigns: exhaustive sweeps, purity sampling, closure oracle."""

import json
from fractions import Fraction as F

import pytest

from midconvex.engine import is_midconvex
from midconvex.groups import GroupSubset, make_group
from midconvex.harness import (
    VerificationReport,
    bounded_closure_oracle,
    conjecture_hull_check,
    enumerate_abelian_groups,
    exhaustive_lemma1,
    exhaustive_theorem1,
    exhaustive_theorem2,
    hull_candidate,
    sample_two_purity,
)
from midconvex.rationals import RationalGroupDescriptor


def desc(gen, primes=()):
    return RationalGroupDescriptor(F(gen), frozenset(primes))


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


def test_exhaustive_lemma1_small():
    report = exhaustive_lemma1(8)
    assert report.passed


def test_sampled_subsets_used_above_exhaustive_cap():
    report = exhaustive_theorem2(14, sample_count=300)
    assert report.passed
    # orders 13 and 14 are sampled at 300 subsets each rather than swept
    assert report.counts["subsets"] == 13326 + 300 + 300


def test_sample_two_purity_passes_and_is_deterministic():
    first = sample_two_purity(40, seed=11)
    second = sample_two_purity(40, seed=11)
    assert first.passed
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
    assert first.counts == {"pairs": 40, "samples_per_pair": 200}


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
    assert report.counts["candidate_samples"] == 8
    assert report.details["candidate_points_not_yet_produced"] == unproduced


def test_hull_candidate_structure():
    candidate = hull_candidate(desc(1), [F(0), F(4)])
    # the span 4Z closes to Z, so the candidate is the whole interval
    assert candidate.subgroup == desc(1)
    assert [candidate.contains(F(k)) for k in range(-1, 6)] == [
        False, True, True, True, True, True, False,
    ]


def test_exhaustive_campaign_reports_are_byte_identical():
    first = exhaustive_theorem2(6).to_dict()
    second = exhaustive_theorem2(6).to_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
