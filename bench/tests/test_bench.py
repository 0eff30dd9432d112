"""Tests of the benchmark itself: inputs, references and tracing.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from midconvex import cli, dsl, engine, errors, groups, harness, intsets, rationals  # noqa: E402
from midconvex.groups import GroupSubset  # noqa: E402


def _inputs(workload):
    if isinstance(workload, workloads.Campaigns):
        return workload.orders
    if isinstance(workload, workloads.Queries):
        return [[(name, text, code) for name, text, code, _ in specs] for specs in workload.rounds]
    return workload.rounds


@pytest.mark.parametrize("cls", [workloads.Campaigns, workloads.Roundtrip, workloads.Queries])
def test_same_seed_same_items(cls):
    assert _inputs(cls(5)) == _inputs(cls(5))


@pytest.mark.parametrize("cls", [workloads.Roundtrip, workloads.Queries])
def test_other_seed_other_items(cls):
    assert _inputs(cls(5)) != _inputs(cls(6))


def test_rounds_share_structure():
    rounds = workloads.Queries(3).rounds
    names = sorted(name for name, *_ in rounds[0])
    assert all(sorted(name for name, *_ in r) == names for r in rounds)
    assert len(names) == len(workloads.TEMPLATES) == 35


def test_reference_closure_matches_engine_up_to_order_8():
    for group in harness.enumerate_abelian_groups(8):
        orders = group.orders
        elements = refs.elements(orders)
        for mask in range(1 << group.order):
            members = [elements[i] for i in range(group.order) if mask >> i & 1]
            program = engine.midconvex_closure(group, GroupSubset(group, mask))
            assert {e.residues for e in program.members()} == set(refs.closure(orders, members)), (
                group,
                members,
            )


@pytest.mark.parametrize(
    "orders, count", [((4,), 2), ((5,), 7), ((9,), 14), ((3, 3), 23), ((2, 2), 2), ((15,), 25)]
)
def test_closed_form_midconvex_counts(orders, count):
    assert refs.midconvex_count(orders) == count


def test_sweep_totals():
    assert refs.sweep_totals(12) == (len(harness.enumerate_abelian_groups(12)), 13326)
    assert refs.sweep_totals(10)[1] == 3086


def test_self_times_on_hand_built_tree():
    # a [0,10] has children b [1,4], c [3,6] (overlapping b) and d [8,12]
    # (running past a's end); b has child e [2,3]; a second root a runs [20,21].
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("e", 2.0, 3.0, 1),
        ("c", 3.0, 6.0, 0),
        ("d", 8.0, 12.0, 0),
        ("a", 20.0, 21.0, -1),
    ]
    name, start, end, parent = (list(col) for col in zip(*spans))
    got = tracing.self_times(name, start, end, parent)
    # a: 10 - |[1,6] u [8,10]| = 3, plus the second root's 1
    assert got == pytest.approx({"a": 4.0, "b": 2.0, "e": 1.0, "c": 3.0, "d": 4.0})


def test_scaled_time_is_wall_time_at_the_reference_speed():
    ref = run.REFERENCE_LOOP_S
    assert run.scale(0.5, ref, ref) == pytest.approx(0.5)
    # the machine ran at half speed before the call and at full speed after it
    assert run.scale(0.5, 2 * ref, ref) == pytest.approx(0.5 / 1.5)


MODULES = {
    "errors": errors,
    "groups": groups,
    "intsets": intsets,
    "rationals": rationals,
    "engine": engine,
    "harness": harness,
    "dsl": dsl,
    "cli": cli,
}


def test_tracer_wraps_aliases_and_restores_them():
    modules = MODULES
    original = groups.is_subgroup
    assert harness.is_subgroup is original and engine.is_subgroup is original
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert harness.is_subgroup is groups.is_subgroup is engine.is_subgroup
        assert harness.is_subgroup is not original
        harness.exhaustive_theorem2(4)
        code, _ = cli.run(dsl.parse("Q(gen=1, primes=[2]); conv[0,1] ∩ ((1,[2]) + 0); decompose"))
    finally:
        tracer.uninstall()
    assert harness.is_subgroup is original and groups.is_subgroup is original
    summary = tracer.summary()
    assert summary["harness.exhaustive_theorem2"]["calls"] == 1
    assert summary["engine.midconvex_witness"]["calls"] == 2 + 4 + 8 + 16 * 2
    assert summary["groups.is_subgroup"]["calls"] > 0
    assert summary["dsl.parse"]["calls"] == 1 and code == 0
    assert summary["engine.decompose_rational"]["calls"] == 1
    assert tracer.counters["groups.GroupElement.constructed"] > 0
    assert tracer.counters["rationals.RationalMidconvexDescription.contains.calls"] > 0
    # spans nest: every parent index points at an earlier span
    assert all(p < i for i, p in enumerate(tracer.parent))
    # the sweep's self time excludes the time of the calls it made
    total = summary["harness.exhaustive_theorem2"]["self_s"]
    assert 0 <= total < sum(
        tracer.end[i] - tracer.start[i]
        for i, n in enumerate(tracer.name)
        if tracer.names[n] == "harness.exhaustive_theorem2"
    )


def test_tracer_counts_the_known_defect_resource_exit():
    probe = workloads.Queries(1).probe_item(SimpleNamespace(**MODULES))
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        output = probe.run()
    finally:
        tracer.uninstall()
    assert output[0] == 3 and probe.check(output)
    assert tracer.counters["engine.decompose_rational.cap_exceeded"] == 1
    assert tracer.counters["cli.run.exit_3"] == 1


def test_traced_campaign_item_records_the_sweep():
    item = next(i for i in workloads.Campaigns(1).build(SimpleNamespace(**MODULES))[0] if "lemma1" in i.label)
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        report = item.run()
    finally:
        tracer.uninstall()
    assert item.check(report) == []
    summary = tracer.summary()
    assert summary["harness.exhaustive_lemma1"]["calls"] == 1
    assert summary["harness.exhaustive_lemma1"]["self_s"] > 0


def test_references_accept_program_outputs_for_one_round():
    """One round of the cheap query templates passes its own checks."""
    cheap = [spec for spec in workloads.Queries(11).rounds[0] if spec[0] not in ("q-decompose-3", "closure-512")]
    for name, text, code, check in cheap:
        got_code, rendered = cli.run(dsl.parse(text), fmt="json")
        report = json.loads(rendered)
        assert got_code == code, (name, text, report["result"])
        assert check(report) == [], (name, text)


def test_query_checks_reject_wrong_outputs():
    specs = {spec[0]: spec for spec in workloads.Queries(11).rounds[0]}
    _, text, _, check = specs["closure-4x45"]
    _, rendered = cli.run(dsl.parse(text), fmt="json")
    report = json.loads(rendered)
    report["closure"] = report["closure"].rsplit(",", 1)[0] + "}"
    assert check(report)
    _, text, _, check = specs["check-4x3x3-even"]
    _, rendered = cli.run(dsl.parse(text), fmt="json")
    report = json.loads(rendered)
    report["witness"]["z"] = report["witness"]["x"]
    assert check(report)
