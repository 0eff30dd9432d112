import os
import pathlib
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, settings

import midconvex
from midconvex import engine, harness

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def cold_caches():
    """The sweeps' per-process tables of group structure, emptied before the test runs; call it to empty them again.

    The tables are every functools.cache builder defined in engine and
    harness, found on the modules before the test patches anything, so a
    new cached builder is emptied too.
    """
    tables = [
        value
        for module in (engine, harness)
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and value.__module__ == module.__name__
    ]
    found = {f"{table.__module__}.{table.__qualname__}" for table in tables}
    assert found >= {
        "midconvex.engine._closed_traces", "midconvex.engine._cyclic_subgroups", "midconvex.engine._double_sums",
        "midconvex.harness._odd_index_cosets", "midconvex.harness.enumerate_abelian_groups",
        "midconvex.harness._every_subset_columns",
    }, found

    def clear():
        for table in tables:
            table.cache_clear()

    clear()
    return clear


@pytest.fixture
def digit_limit():
    """The longest integer literal int() converts, pinned to the default while a test runs."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter converts integer literals of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def installed_python():
    """Finds `python<version>` on PATH with an environment in which it imports these sources; skips when absent."""

    def find(version: str) -> tuple[str, dict[str, str]]:
        python = shutil.which(f"python{version}")
        if python is None:
            pytest.skip(f"python{version} is not on PATH")
        # a pyenv shim starts python3.10 only when a 3.10 version is selected
        src = pathlib.Path(midconvex.__file__).parents[1]
        env = {**os.environ, "PYENV_VERSION": version, "PYTHONPATH": str(src)}
        wanted = tuple(map(int, version.split(".")))
        probe = subprocess.run(
            [python, "-c", f"import sys; sys.exit(sys.version_info[:2] != {wanted})"], env=env, capture_output=True
        )
        if probe.returncode != 0:
            pytest.skip(f"python{version} on PATH does not start a Python {version}")
        return python, env

    return find
