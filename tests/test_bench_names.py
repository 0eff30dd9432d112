"""The benchmark's program names and library calls, checked from the tier-1 suite.

The traced benchmark run wraps program names listed in bench/tracing.py, and
the workloads in bench/workloads.py call the library by position. A refactor
that renames, drops or reorders one of them would break the benchmark without
failing any other test, so they are checked here. Nothing under bench/ is
imported as a package or written; its modules are loaded from their files.
"""

import importlib
import importlib.util
import pathlib
import random
import sys
from types import SimpleNamespace

import pytest

from midconvex import engine, groups, harness

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
MODULES = ("errors", "groups", "intsets", "rationals", "engine", "harness", "dsl", "cli")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports refs by its bare name from bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "refs", raising=False)
    # its dataclasses look their module up by name while it loads
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_workloads", module)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("refs", None)


def program_module(name):
    return importlib.import_module(f"midconvex.{name}")


def program():
    """The program's modules by short name, as the benchmark passes them to a workload."""
    return SimpleNamespace(**{m: program_module(m) for m in MODULES})


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for mod_name, fn_name in tracing.SPANNED:
        assert callable(getattr(program_module(mod_name), fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name, cls_name, method, _ in tracing.COUNTED:
        cls = getattr(program_module(mod_name), cls_name, None)
        assert callable(getattr(cls, method, None)), f"{mod_name}.{cls_name}.{method}"
    errors = program_module("errors")
    for error, _ in tracing.RAISES.values():
        assert issubclass(getattr(errors, error), errors.MidconvexError), error


def test_subgroup_test_is_imported_from_groups():
    # the tracer finds these aliases by identity, so they must stay the same object
    assert engine.is_subgroup is groups.is_subgroup
    # the bit-sliced sweeps need no subgroup test; a binding left behind must be the same one
    assert getattr(harness, "is_subgroup", groups.is_subgroup) is groups.is_subgroup


def test_roundtrip_calls_pass_their_checks(workloads):
    # one spec per pool and base kind, built by Roundtrip.build from its rounds
    # alone: constructing Roundtrip draws all 16 value sets
    rng = random.Random(0)
    specs = [
        workloads._roundtrip_spec(rng, pool, workloads.KS[i % len(workloads.KS)], base_zero, frozenset(pool))
        for i, pool in enumerate(workloads.POOLS)
        for base_zero in (True, False)
    ]
    (items,) = workloads.Roundtrip.build(SimpleNamespace(rounds=[specs]), program())
    for item in items:
        assert item.check(item.run()) == [], item.label


def test_each_query_template_passes_its_check(workloads):
    rng = random.Random(0)
    mc = program()
    for name, template in workloads.TEMPLATES:
        item = workloads._query_item(mc, name, *template(rng))
        assert item.check(item.run()) == [], item.label
