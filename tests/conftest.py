import pytest

from l3lab import _fanout


@pytest.fixture(autouse=True)
def _stop_the_fan_out_worker():
    # the fan-out worker keeps the module state it was forked with, so one
    # forked under a test's monkeypatches must not serve the next test
    yield
    _fanout._stop_worker()
