"""Timing that allows for the host's speed, sampled from inside the timed code.

The benchmark runs on shared virtual CPUs whose speed drifts by up to a
factor of two over minutes: the same ``verify`` pass took 10 s to 16 s in ten
consecutive runs.  Raw wall times of runs minutes apart therefore differ by
more than any useful regression bound.

:class:`SpeedProbe` measures the host's speed while the timed code runs.  A
``SIGALRM`` interval timer interrupts it every ``PERIOD_S``; the handler runs
a fixed pure-Python loop (:func:`probe_loop`) in the same thread and records
how long it took.  No thread or process is started.  Over a region,

* ``busy_s`` is the time the probes took; it is taken off the region's wall
  time, so the probes do not count as the program's time;
* ``speed`` is the mean of ``REF_PROBE_S / sample``: the host's speed relative
  to the reference host, averaged uniformly over wall time (1.0 = the loop
  runs as fast as on the reference host);
* ``rescale(wall)`` is ``(wall - busy_s) * speed``: the region's time at the
  reference speed.  When the host is slowed by a factor, the program's wall
  time grows and ``speed`` falls by the same factor, so the product stays.

As a script it times ``import l3lab`` in this fresh interpreter and prints
``{"raw_s": ..., "ref_s": ...}``:

    python3 perfbench/speed.py src
"""
from __future__ import annotations

import json
import signal
import sys
import time

PERIOD_S = 0.02
PROBE_ITERATIONS = 5000
# time of probe_loop() on the reference host (shared 2-vCPU Intel Xeon VM,
# 2.1 GHz, Python 3.11) when nothing else contends for its core
REF_PROBE_S = 3.5e-4


def probe_loop() -> int:
    s = 0
    for i in range(PROBE_ITERATIONS):
        s += i * i % 7
    return s


class SpeedProbe:
    """``with SpeedProbe() as sp: ...``; then ``sp.rescale(wall)``."""

    def __init__(self):
        self.samples: list[float] = []
        self._saved = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    @property
    def speed(self) -> float:
        if not self.samples:
            raise RuntimeError("no speed sample: the region was shorter "
                               f"than the {PERIOD_S} s probe period")
        return sum(REF_PROBE_S / s for s in self.samples) / len(self.samples)

    def rescale(self, wall: float) -> float:
        return (wall - self.busy_s) * self.speed


def time_import(src: str) -> dict:
    sys.path.insert(0, src)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import l3lab  # noqa: F401
        wall = time.perf_counter() - t0
    return {"raw_s": wall, "ref_s": probe.rescale(wall)}


if __name__ == "__main__":
    print(json.dumps(time_import(sys.argv[1])))
