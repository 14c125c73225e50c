import os
import pathlib
import subprocess
import sys

import pytest

import l3lab
from l3lab import _fanout


@pytest.fixture(autouse=True)
def _stop_the_fan_out_worker():
    # the fan-out worker keeps the module state it was forked with, so one
    # forked under a test's monkeypatches must not serve the next test
    yield
    _fanout._stop_worker()


def run_python(args, timeout, preexec_fn=None):
    """Run ``python *args`` on this package in a fresh interpreter.

    ``PYTHONUNBUFFERED`` is dropped, so the child's stdout is a buffered
    pipe whatever the caller's environment says.
    """
    src = str(pathlib.Path(l3lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout,
                          preexec_fn=preexec_fn)
