"""The traced benchmark run wraps program names listed in bench/tracing.py.

A refactor that renames or drops one of them would break that run without
failing any other test, so the names are checked here. Nothing under bench/
is imported as a package or written; tracing.py is loaded from its file.
"""

import importlib
import importlib.util
import pathlib

from midconvex import engine, groups, harness

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_module(name):
    return importlib.import_module(f"midconvex.{name}")


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
