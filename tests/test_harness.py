"""Differential campaigns: exhaustive sweeps, purity sampling, closure oracle."""

import hashlib
import importlib.util
import json
import pathlib
import random
import time
import types
from fractions import Fraction as F

import pytest

from midconvex import engine, harness
from midconvex.cli import SIZE_CAPS
from midconvex.engine import is_midconvex, rational_closure
from midconvex.errors import NotMidconvexTrace
from midconvex.groups import (
    FiniteAbelianGroup, GroupElement, GroupSubset, is_subgroup, make_group, periodic_mask, set_bits,
    subgroup_generated,
)
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
from midconvex.rationals import QIntervalSpec, RationalGroupDescriptor, RationalMidconvexDescription, two_pure_closure

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


def subset_masks(group, seed):
    """The sweep's subsets one mask each: every subset up to the cap, above it bit k of the seeded column draws."""
    order, count = group.order, harness.SAMPLED_SUBSET_COUNT
    if order <= harness.EXHAUSTIVE_ORDER_CAP or 1 << order <= count:
        return range(1 << order)
    rng = random.Random(f"{seed}:{group}")
    # transposed back: bit i of mask k is bit k of column i
    return transposed_columns(count, [rng.getrandbits(count) for _ in range(order)])


def transposed_columns(n, masks):
    """Reference transposition through zipped rows: bit k of column i is bit i of masks[k]."""
    # row strings put bit n - 1 first and the last mask on top, so the
    # columns of the zipped rows read highest element and highest k first
    rows = [format(m, f"0{n}b") for m in reversed(masks)]
    return [int("".join(bits), 2) for bits in reversed(list(zip(*rows)))]


def mask_label(group, mask):
    return "{%s}" % ",".join(map(group.format_index, GroupSubset(group, mask).indices()))


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


def theorem1_reference(max_order, seed=0):
    # the theorem-1 sweep as it ran subset by subset, over the same seeded
    # masks, repeated draws included
    reference = VerificationReport("theorem1", seed=seed)
    total = 0
    groups = enumerate_abelian_groups(max_order)
    for group in groups:
        for mask in subset_masks(group, seed):
            total += 1
            subset = GroupSubset(group, mask)
            lhs, rhs = is_midconvex(group, subset), engine.verify_theorem1(group, subset)
            if lhs != rhs:
                label = mask_label(group, mask)
                reference.add_mismatch(group, label, "is_midconvex vs trace decomposition", lhs, rhs)
    reference.counts = {"groups": len(groups), "subsets": total}
    reference.mismatches.sort(key=lambda m: (m["group"], m["subset"]))
    return reference


def test_sampled_theorem1_matches_the_per_subset_sweep(monkeypatch):
    monkeypatch.setattr(harness, "SAMPLED_SUBSET_COUNT", 300)
    report = exhaustive_theorem1(14)
    assert report.counts["subsets"] == 13326 + 300 + 300
    assert json.dumps(report.to_dict()) == json.dumps(theorem1_reference(14).to_dict())


def plant_faulty_trace(monkeypatch):
    """Plant a decompose_trace fault: {0,2} mod 4 wrongly accepted, {0,1,2} mod 3 wrongly rejected."""
    decompose_trace = engine.decompose_trace

    def faulty(trace):
        pattern = (trace.period, tuple(set_bits(trace.mask)))
        if pattern == (4, (0, 2)):
            return None
        if pattern == (3, (0, 1, 2)):
            raise NotMidconvexTrace("wrongly rejected")
        return decompose_trace(trace)

    monkeypatch.setattr(engine, "decompose_trace", faulty)


def test_theorem1_campaign_reports_a_faulty_decompose_trace(monkeypatch):
    # the campaign must report exactly what the per-subset reference reports
    plant_faulty_trace(monkeypatch)
    report = exhaustive_theorem1(8)
    assert report.mismatches
    assert json.dumps(report.to_dict()) == json.dumps(theorem1_reference(8).to_dict())


def test_theorem1_campaign_asks_about_each_trace_once_per_call(monkeypatch):
    calls = []
    decompose_trace = engine.decompose_trace

    def counting(trace):
        calls.append((trace.period, trace.mask))
        return decompose_trace(trace)

    monkeypatch.setattr(engine, "decompose_trace", counting)
    per_call = []
    for _ in range(2):
        calls.clear()
        assert exhaustive_theorem1(10).passed
        assert len(set(calls)) == len(calls)
        per_call.append(len(calls))
    # one rotation class at a time, up to its first rejected pattern: 251 of
    # the 1,023 residue patterns that contain 0, for the periods up to 10
    assert per_call == [251, 251]


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
    # a faulty midconvexity pass that also claims every third subset: the sweep
    # must report each such subset at each pair x != y whose coset x + <y - x>
    # it does not hold, labelled and ordered as the reference built from
    # GroupElements
    midconvex_bits = engine.midconvex_bits

    def faulty(group, columns, count):
        return midconvex_bits(group, columns, count) | sum(1 << k for k in range(0, count, 3))

    monkeypatch.setattr(engine, "midconvex_bits", faulty)
    report = exhaustive_lemma1(6)
    expected = []
    for group in harness.enumerate_abelian_groups(6):
        for mask in range(1 << group.order):
            subset = GroupSubset(group, mask)
            if mask % 3 and not is_midconvex(group, subset):
                continue
            members = subset.members()
            label = "{%s}" % ",".join(str(m) for m in members)
            for x in members:
                for y in members:
                    g = y - x
                    if x != y and any(x + t * g not in subset for t in range(g.order())):
                        operation = f"trace at {x} along {g} not order-convex"
                        record = {"group": str(group), "subset": label, "operation": operation}
                        expected.append({**record, "lhs": True, "rhs": False})
    expected.sort(key=lambda m: (m["group"], m["subset"]))
    assert len(expected) > 100 and report.mismatches == expected


def test_lemma1_labels_each_failing_subset_once(monkeypatch):
    # under the every-third fault above, a failing subset fails at many pairs
    # of members, and its label is built once for all of them
    midconvex_bits, subset_label = engine.midconvex_bits, harness._subset_label
    calls = []

    def counted(names, columns, k):
        calls.append(k)
        return subset_label(names, columns, k)

    monkeypatch.setattr(engine, "midconvex_bits", lambda g, c, n: midconvex_bits(g, c, n) | periodic_mask(1, 3, n))
    monkeypatch.setattr(harness, "_subset_label", counted)
    report = exhaustive_lemma1(6)
    failing = {(m["group"], m["subset"]) for m in report.mismatches}
    assert len(calls) == len(failing) < len(report.mismatches)


def test_sweeps_walk_each_coset_once_and_lemma1_reads_no_trace(monkeypatch):
    def refuse(*args):
        pytest.fail("the lemma-1 sweep read a trace")

    monkeypatch.setattr(engine, "_trace", refuse)
    monkeypatch.setattr(engine, "lemma1_holds_in_group", refuse)
    assert exhaustive_lemma1(12).passed

    walk, cyclic_subgroups = FiniteAbelianGroup.walk, engine._cyclic_subgroups
    # each cyclic subgroup C walked once from 0, and each coset of it read once: order / |C| of them
    subgroups = cosets = 0
    for group in enumerate_abelian_groups(10):
        cyclic = {frozenset(walk(group, 0, g)) for g in range(group.order)}
        subgroups += len(cyclic)
        cosets += sum(group.order // len(c) for c in cyclic)

    def recording_walk(self, i, g):
        steps = list(walk(self, i, g))
        walks.append((str(self), i, frozenset(steps)))
        return iter(steps)

    def recording(group):
        for coset_walks in cyclic_subgroups(group):
            read.extend((str(group), frozenset(w)) for w in coset_walks)
            yield coset_walks

    monkeypatch.setattr(FiniteAbelianGroup, "walk", recording_walk)
    monkeypatch.setattr(engine, "_cyclic_subgroups", recording)
    for sweep in (exhaustive_theorem1, exhaustive_lemma1):
        walks, read = [], []
        assert sweep(10).passed
        assert len(set(walks)) == len(walks) == subgroups and {i for _, i, _ in walks} == {0}
        # each coset read is distinct, and cosets of distinct subgroups differ
        assert len(set(read)) == len(read) == cosets


class ScriptedDraws:
    """Seeded draws of which every fourth is, in turn, 0, the full mask or an earlier draw."""

    def __init__(self, seed):
        self.rng, self.drawn = random.Random(seed), []

    def getrandbits(self, n):
        mask, turn = self.rng.getrandbits(n), len(self.drawn)
        if turn % 4 == 3:
            mask = (0, (1 << n) - 1, self.rng.choice(self.drawn))[turn // 4 % 3]
        self.drawn.append(mask)
        return mask


def test_subset_columns_are_the_seeded_column_draws(monkeypatch):
    # above the cap column i is the i-th seeded getrandbits(count) draw, for
    # the honest draws and for scripted ones that hold the zero column, the
    # full column and a repeated column
    monkeypatch.setattr(harness, "SAMPLED_SUBSET_COUNT", 500)
    groups = [make_group(orders) for orders in ([14], [2, 2, 2, 2], [27], [8, 5], [64], [2] * 6, [68], [4, 17])]
    for group in groups:
        rng = random.Random(f"3:{group}")
        columns = [rng.getrandbits(500) for _ in range(group.order)]
        assert harness._subset_columns(group, 3) == (columns, 500), str(group)
    monkeypatch.setattr(harness, "random", types.SimpleNamespace(Random=ScriptedDraws))
    for group in groups:
        rng = ScriptedDraws(f"3:{group}")
        columns = [rng.getrandbits(500) for _ in range(group.order)]
        assert 0 in columns and (1 << 500) - 1 in columns and len(set(columns)) < len(columns)
        assert harness._subset_columns(group, 3) == (columns, 500), str(group)


# sha256 of each sweep's sorted JSON report at max_order 16, seed 0, with
# decompose_trace planted as in plant_faulty_trace and midconvex_bits also
# claiming subsets 0, 97, 194, ... of each group; taken from reports built
# subset by subset over subset_masks, as theorem1_reference builds them, with
# odd_coset_reference for theorem 2 and lemma1_holds_in_group at every pair
# of members for lemma 1
PLANTED_FAULT_DIGESTS = {
    exhaustive_theorem1: (977, "b2bb511bf0d45092a83fffc981e4619e478176e2a3810ec513275c24a78a52c6"),
    exhaustive_lemma1: (30992, "916f82bc406fb8741a7867e31f8cbef7bad57102af3e0c3fbf270642c23f8666"),
    exhaustive_theorem2: (944, "1754fa0e72db20bc2c263b70be7054bbfc14553e969bc80691603898d6f50848"),
}


def test_sweep_reports_under_planted_faults_hash_as_pinned(monkeypatch):
    plant_faulty_trace(monkeypatch)
    honest = engine.midconvex_bits
    every_97th = lambda group, columns, count: honest(group, columns, count) | periodic_mask(1, 97, count)
    monkeypatch.setattr(engine, "midconvex_bits", every_97th)
    for sweep, (mismatches, digest) in PLANTED_FAULT_DIGESTS.items():
        report = sweep(16)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert (len(report.mismatches), hashlib.sha256(text.encode()).hexdigest()) == (mismatches, digest), sweep


def test_sweeps_at_the_cli_cap_in_bounded_time():
    # read along every g, theorem 1 took 6.2 s and lemma 1 1.8 s; with the
    # sampled subsets drawn as rows and strided into columns, theorem 2 took
    # 0.78-1.6 s and lemma 1 0.61-1.05 s; with every odd-index coset listed
    # and matched against every column, theorem 2 took 0.30-0.69 s, and
    # walking each odd-index subgroup once, 0.11-0.25 s over 10 full-suite
    # runs (2-vCPU Xeon, shared)
    for sweep, budget in ((exhaustive_theorem1, 3), (exhaustive_lemma1, 0.6), (exhaustive_theorem2, 0.5)):
        started = time.perf_counter()
        report = sweep(SIZE_CAPS["--max-order"])
        assert time.perf_counter() - started < budget, sweep
        assert report.passed


def flip_every_97th_subset(monkeypatch):
    """Plant a midconvex_bits fault: subsets 5, 102, 199, ... of each group read flipped."""
    honest = engine.midconvex_bits

    def faulty(group, columns, count):
        return honest(group, columns, count) ^ sum(1 << k for k in range(5, count, 97))

    monkeypatch.setattr(engine, "midconvex_bits", faulty)
    return faulty


@pytest.mark.parametrize("max_order,count", [(14, 300), (40, harness.SAMPLED_SUBSET_COUNT)])
def test_sampled_mismatch_labels_are_read_from_the_columns(monkeypatch, max_order, count):
    # every flipped subset is a theorem-2 mismatch, labelled as its mask reads
    monkeypatch.setattr(harness, "SAMPLED_SUBSET_COUNT", count)
    flip_every_97th_subset(monkeypatch)
    groups = enumerate_abelian_groups(max_order)
    expected = [
        (str(group), mask_label(group, masks[k]))
        for group in groups
        for masks in [subset_masks(group, 0)]
        for k in range(5, len(masks), 97)
    ]
    report = exhaustive_theorem2(max_order)
    assert [(m["group"], m["subset"]) for m in report.mismatches] == sorted(expected)
    sampled = {str(g) for g in groups if g.order > harness.EXHAUSTIVE_ORDER_CAP and 1 << g.order > count}
    assert sum(name in sampled for name, _ in expected) == len(sampled) * len(range(5, count, 97)) > 0


def test_sampled_lemma1_labels_are_read_from_the_columns(monkeypatch):
    # each failure of a flipped subset is reported under its mask's label
    monkeypatch.setattr(harness, "SAMPLED_SUBSET_COUNT", 300)
    faulty = flip_every_97th_subset(monkeypatch)
    expected, sampled = [], {"Z(13)", "Z(2x7)"}
    for group in enumerate_abelian_groups(14):
        masks = list(subset_masks(group, 0))
        columns = transposed_columns(group.order, masks)
        for k, _, _ in engine.lemma1_failures(group, columns, faulty(group, columns, len(masks))):
            expected.append((str(group), mask_label(group, masks[k])))
    report = exhaustive_lemma1(14)
    assert [(m["group"], m["subset"]) for m in report.mismatches] == sorted(expected)
    assert {name for name, _ in expected} >= sampled


def test_sampled_subsets_used_above_exhaustive_cap(monkeypatch):
    monkeypatch.setattr(harness, "SAMPLED_SUBSET_COUNT", 300)
    report = exhaustive_theorem2(14)
    assert report.passed
    # orders 13 and 14 are sampled at 300 subsets each rather than swept
    assert report.counts["subsets"] == 13326 + 300 + 300


def test_odd_coset_bits_match_the_per_subset_characterization():
    for group in enumerate_abelian_groups(10):
        columns, count = harness._subset_columns(group, 0)
        expected = sum(1 << k for k in range(count) if odd_coset_reference(group, k))
        assert harness._odd_coset_bits(group, columns, count) == expected, str(group)
    # every subset up to the cap: the empty set and each odd-index coset, in closed form
    refs = load_refs()
    for group in enumerate_abelian_groups(harness.EXHAUSTIVE_ORDER_CAP):
        columns, count = harness._subset_columns(group, 0)
        assert harness._odd_coset_bits(group, columns, count).bit_count() == refs.midconvex_count(group.orders)


def every_odd_index_subgroup(group):
    """Reference: every subgroup, each joined with every element, kept where the index is odd."""
    subgroups, frontier = {1}, [1]
    while frontier:
        h = frontier.pop()
        for g in range(group.order):
            joined = subgroup_generated(GroupSubset(group, h | 1 << g)).mask
            if joined not in subgroups:
                subgroups.add(joined)
                frontier.append(joined)
    return {h for h in subgroups if group.order // h.bit_count() % 2 == 1}


def test_odd_coset_bits_translate_each_subgroup_once_per_coset(monkeypatch):
    translated = []
    translate = FiniteAbelianGroup.translate_mask

    def recording(self, *args):
        translated.append(translate(self, *args))
        return translated[-1]

    monkeypatch.setattr(FiniteAbelianGroup, "translate_mask", recording)
    calls = 0
    for group in enumerate_abelian_groups(12):
        del translated[:]
        columns, count = harness._subset_columns(group, 0)
        harness._odd_coset_bits(group, columns, count)
        calls += len(translated)
        # reference: every odd-index subgroup by every element, each translated once
        subgroups = {m for m in range(1 << group.order) if is_subgroup(GroupSubset(group, m))}
        every = {
            translate(group, h, d)
            for h in subgroups
            if group.order // h.bit_count() % 2 == 1
            for d in range(group.order)
        }
        assert sorted(translated) == sorted(every), str(group)
    # 90 cosets up to order 12, each translated once (248 calls by every element)
    assert calls == 90


@pytest.mark.parametrize("orders", [[3, 3, 3], [2, 2, 9], [3, 9], [2, 3, 3], [4, 3, 3]])
def test_odd_coset_bits_read_near_cosets(orders):
    # above the exhaustive cap: each odd-index coset, that coset less one
    # member, plus one nonmember, and joined with another coset of its subgroup
    group = make_group(orders)
    everything = (1 << group.order) - 1
    masks = [0, everything]
    for h in every_odd_index_subgroup(group):
        cosets = sorted({group.translate_mask(h, d) for d in range(group.order)})
        for coset, other in zip(cosets, cosets[1:] + cosets[:1]):
            outside = everything & ~coset
            masks += [coset, coset & coset - 1, coset | outside & -outside, coset | other]
    truths = [odd_coset_reference(group, mask) for mask in masks]
    columns = transposed_columns(len(masks), masks)
    assert harness._odd_coset_bits(group, columns, len(masks)) == sum(1 << k for k, t in enumerate(truths) if t)
    assert 0 < sum(truths) < len(masks)


def test_sampled_theorem2_matches_the_per_subset_sweep(monkeypatch):
    # the sweep as it ran subset by subset, over the same seeded masks
    monkeypatch.setattr(harness, "SAMPLED_SUBSET_COUNT", 300)
    seed = 0
    reference = VerificationReport("theorem2", seed=seed)
    midconvex_counts, total = {}, 0
    groups = enumerate_abelian_groups(14)
    for group in groups:
        midconvex_counts[str(group)] = 0
        for mask in subset_masks(group, seed):
            total += 1
            lhs = is_midconvex(group, GroupSubset(group, mask))
            rhs = odd_coset_reference(group, mask)
            if lhs:
                midconvex_counts[str(group)] += 1
            if lhs != rhs:
                label = mask_label(group, mask)
                reference.add_mismatch(group, label, "is_midconvex vs subgroup characterization", lhs, rhs)
    reference.counts = {"groups": len(groups), "subsets": total}
    reference.details["midconvex_counts"] = midconvex_counts
    report = exhaustive_theorem2(14, seed=seed)
    assert json.dumps(report.to_dict()) == json.dumps(reference.to_dict())


@pytest.mark.parametrize("orders", [[20], [2, 2, 5], [2, 2, 2, 2], [3, 3, 2]])
def test_every_subset_of_order_16_to_20_groups_is_decided(orders):
    # 2**20 subsets of Z(20) and Z(2x2x5): the closed-form count 1 + sum |K|
    # over subgroups K of the odd part, and the odd-index cosets, both agree
    group = make_group(orders)
    count = 1 << group.order
    # bit k of column i is bit i of k: runs of 2**i zeros and 2**i ones
    columns = [periodic_mask(((1 << w) - 1) << w, 2 * w, count) for w in (1 << i for i in range(group.order))]
    midconvex = engine.midconvex_bits(group, columns, count)
    assert midconvex.bit_count() == load_refs().midconvex_count(tuple(orders))
    assert midconvex == harness._odd_coset_bits(group, columns, count)


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


def test_integer_oracle_matches_the_fraction_oracle(monkeypatch):
    # the finite check scans pairs only for a set that Theorem 3 rejects
    scans = []
    scan = engine._missing_midpoints
    monkeypatch.setattr(engine, "_missing_midpoints", lambda *args: scans.append(args) or scan(*args))
    rng = random.Random(31)
    pools = [(), (2,), (3,), (2, 3), (5,), (3, 5), (2, 3, 5)]
    violated = incomplete = listed = 0
    for i in range(350):
        primes = pools[i % len(pools)]
        group = desc(F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 4])), primes)
        dens = [1, *primes]
        start = [group.gen * F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(rng.randint(1, 5))]
        if i % 5 == 4:
            # a finite closure, listed, is a midconvex start: Theorem 3 decides it by its count
            members = engine.described_members(rational_closure(group, start))
            if members is not None:
                start = list(members)
                listed += 1
        scans.clear()
        first = engine.is_midconvex_q_finite(group, start)
        assert first == next(fraction_missing_midpoints(group, {F(p) for p in start}), None), (i, start)
        assert bool(scans) == (first is not None), (i, start)
        violated += first is not None
        rounds = rng.randint(0, 3 if 2 in primes else 6)
        got = bounded_closure_oracle(group, start, rounds)
        assert got == fraction_closure_oracle(group, start, rounds), (i, group, start, rounds)
        incomplete += not got[1]
    assert violated >= 100 and incomplete >= 50 and listed >= 30, (violated, incomplete, listed)


def test_hull_candidate_and_conjecture_examples(monkeypatch):
    integers = desc(1)
    report = conjecture_hull_check(integers, [F(0), F(2)])
    assert report.passed
    assert report.details["oracle_complete"]
    assert report.details["reverse_containment"] == "exact"
    assert report.counts["oracle_points"] == 3

    dyadic = desc(1, [2])
    monkeypatch.setattr(harness, "HULL_ROUNDS", 4)
    report = conjecture_hull_check(dyadic, [F(0), F(1)])
    assert report.passed
    assert not report.details["oracle_complete"]
    assert report.details["reverse_containment"] == "unfalsified at this depth"

    singleton = conjecture_hull_check(integers, [F(7)])
    assert singleton.passed
    assert singleton.counts["oracle_points"] == 1


def test_failing_rational_campaigns_render_points_as_numbers(monkeypatch):
    # planted faults make the hull and theorem-3 campaigns report points,
    # which read {0,3} and (1/2,3/4) as in the other campaigns, not as reprs
    honest_closure = engine.rational_closure
    monkeypatch.setattr(engine, "rational_closure", lambda group, points: honest_closure(group, [min(points)]))
    hull = conjecture_hull_check(desc(1), [F(3), F(0)])
    assert [m["subset"] for m in hull.mismatches] == ["{0,3}"]

    triple = (F(1, 2), F(3, 4), F(5, 8))
    monkeypatch.setattr(engine, "_sampled_violation", lambda *args: triple)
    monkeypatch.setattr(engine, "described_midconvex_witness", lambda *args: triple)
    description = RationalMidconvexDescription(QIntervalSpec(F(0), F(1)), desc(1, [2]), F(0))
    theorem3 = harness.roundtrip_theorem3(desc(1, [2]), description, samples=10)
    assert [(m["lhs"], m["rhs"]) for m in theorem3.mismatches] == [
        ("(1/2,3/4)", "5/8"),
        ("midpoint 5/8 of 1/2 and 3/4 is missing", "(1/2,3/4,5/8)"),
    ]
    for report in (hull, theorem3):
        assert "Fraction(" not in json.dumps(report.to_dict())


@pytest.mark.parametrize("seed,unproduced", [(0, 5), (1, 2)])
def test_conjecture_hull_check_draws_are_pinned_per_seed(seed, unproduced, monkeypatch):
    # one oracle round leaves most candidate points unproduced, so the count
    # depends on which points the seeded sampler drew
    start = [F(-1), F(4)]
    monkeypatch.setattr(harness, "HULL_ROUNDS", 1)
    report = conjecture_hull_check(desc(1, [2, 5]), start, samples=8, seed=seed)
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


def grid_reference(group, description, decomposition):
    """The theorem-3 grid read point by point: (grid points, mismatch points) in the campaign's order."""
    recovered, checked, wrong = decomposition.description, 0, []
    if decomposition.radius is None:
        return checked, wrong
    margin = decomposition.radius - description.subgroup.gen
    for den in engine._denominators(group.primes, 2):
        for num in range(-24, 25):
            r = description.base + group.gen * F(num, den)
            if abs(r - recovered.base) <= margin:
                checked += 1
                if description.contains(r) != recovered.contains(r):
                    wrong.append(str(r))
    return checked, wrong


@pytest.mark.parametrize("fault", ["honest", "coarser subgroup", "shorter interval"])
def test_theorem3_grid_reads_as_the_per_point_reference(monkeypatch, fault):
    # the grid is read as ranges of numerators; a planted faulty decomposition
    # must be reported at the same points, in the same order, as point by point
    honest = engine.decompose_rational_set
    recorded = []

    def planted(group, members, x=None):
        decomposition = honest(group, members, x)
        recovered = decomposition.description
        sub, interval = recovered.subgroup, recovered.interval
        if fault == "coarser subgroup":
            sub = RationalGroupDescriptor(sub.gen * 3, sub.primes)
        elif fault == "shorter interval" and interval.upper is not None and interval.upper > recovered.base:
            upper = max(recovered.base, interval.upper - sub.gen / 7)
            interval = QIntervalSpec(interval.lower, upper, interval.lower_closed)
        recovered = RationalMidconvexDescription(interval, sub, recovered.base)
        recorded.append(engine.RationalDecomposition(recovered, decomposition.depth, decomposition.radius))
        return recorded[-1]

    monkeypatch.setattr(engine, "decompose_rational_set", planted)
    rng, grid, mismatches = random.Random(5), 0, 0
    for primes in [(), (2,), (3,), (2, 3), (3, 5)] * 4:
        ambient = desc(F(rng.choice([1, 2, 3]), rng.choice([1, 2, 4])), primes)
        inverted = [p for p in primes if rng.random() < 0.7]
        sub = two_pure_closure(desc(ambient.gen * rng.choice([1, 3, 5]), inverted), ambient)
        base = ambient.gen * rng.randint(-6, 6)
        lower, upper = base - sub.gen * F(rng.randint(0, 12), 7), base + sub.gen * F(rng.randint(1, 12), 5)
        description = RationalMidconvexDescription(QIntervalSpec(lower, upper, True, rng.random() < 0.5), sub, base)
        report = harness.roundtrip_theorem3(ambient, description, samples=10)
        checked, wrong = grid_reference(ambient, description, recorded[-1])
        assert report.counts["grid_points"] == checked
        assert [m["rhs"] for m in report.mismatches] == wrong
        grid, mismatches = grid + checked, mismatches + len(wrong)
    assert grid > 0 and (mismatches > 0) == (fault != "honest")
