import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def digit_limit():
    """The longest integer literal int() converts, pinned to the default while a test runs."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter converts integer literals of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)
