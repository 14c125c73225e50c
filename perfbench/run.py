"""Benchmark of l3lab: one workload per run, from the repository root.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this script sits in.
With ``--trace 0`` the workload runs as a closed loop (one pass after the
other, in this one process, no threads) until ``--seconds`` would be
exceeded, and the end-to-end metrics are reported.  Their times are rescaled
to the reference speed of the host, sampled during each timed region (see
``speed.py``); the raw wall times are printed beside them.  With ``--trace 1`` one
untraced pass is followed by one pass under the outside-in tracer, and the
per-layer metrics are reported; the spans go to ``perfbench/out/``.

Human-readable lines go first; the last line of standard output is the
result as one JSON object.  The exit code is 0 only if every correctness
gate passed.  Metric names and units come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("acceptance", "cli", "inner", "numerics", "rpc3bp", "separatrix",
           "splitting")
SETUP_REPEATS = 5
SPEED = Path(__file__).resolve().parent / "speed.py"


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_modules() -> dict:
    if not (SRC / "l3lab" / "__init__.py").is_file():
        die(f"no l3lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    m = {name: importlib.import_module("l3lab." + name) for name in MODULES}
    pkg = Path(sys.modules["l3lab"].__file__).resolve()
    if SRC.resolve() not in pkg.parents:
        die(f"imported l3lab from {pkg}, not from {SRC}")
    return m


def measure_setup() -> tuple[float, list[dict]]:
    """Median time, at the reference speed, to import l3lab in a fresh
    interpreter.

    One unmeasured import first writes the bytecode caches, which a user
    pays once per install, not per run.
    """
    env = dict(os.environ)
    env.pop("L3LAB_THREADS", None)
    samples = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, str(SPEED), str(SRC)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            die(f"importing l3lab failed:\n{done.stderr}")
        if k:
            samples.append(json.loads(done.stdout))
    return statistics.median(s["ref_s"] for s in samples), samples


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; RUSAGE_CHILDREN is the largest child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def timed_pass(run, m, inputs):
    t0 = time.perf_counter()
    outcome = run(m, inputs)
    return time.perf_counter() - t0, outcome


def untraced(run, m, inputs, seconds):
    setup_s, setup_samples = measure_setup()
    walls, refs, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        with SpeedProbe() as probe:
            wall, outcome = timed_pass(run, m, inputs)
        walls.append(wall)
        refs.append(probe.rescale(wall))
        outcomes.append(outcome)
        if outcome.failures:
            break
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    metrics = {"setup_s": setup_s,
               "wall_ref_s": statistics.median(refs),
               "peak_rss_mb": peak_rss_mb(),
               "accuracy_dev": outcomes[-1].accuracy}
    print("setup: import l3lab "
          f"{[round(t['raw_s'], 4) for t in setup_samples]} s raw, "
          f"{[round(t['ref_s'], 4) for t in setup_samples]} s at reference "
          "speed")
    print(f"passes: {len(walls)}, wall {[round(w, 3) for w in walls]} s raw, "
          f"{[round(w, 3) for w in refs]} s at reference speed")
    print(f"wall_s = {statistics.median(walls)!r} s (raw median)")
    return metrics, outcomes


def traced(run, m, inputs, workload, seed):
    wall0, first = timed_pass(run, m, inputs)
    with Tracer(m) as tracer:
        wall1, second = timed_pass(run, m, inputs)
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = wall1
    metrics["trace.overhead_s"] = wall1 - wall0
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    spans.write_text(json.dumps({"workload": workload, "seed": seed,
                                 "wall_s": wall1,
                                 "hot": tracer.hot,
                                 "spans": tracer.span_records()}))
    print(f"untraced pass {wall0:.3f} s, traced pass {wall1:.3f} s; "
          f"spans in {spans.relative_to(ROOT)}")
    return metrics, [first, second]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # the program's defaults: no fan-out threads
    os.environ.pop("L3LAB_THREADS", None)
    m = load_modules()
    make_inputs, run = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"inputs {json.dumps(inputs)}")

    if args.trace:
        values, outcomes = traced(run, m, inputs, args.workload, args.seed)
    else:
        values, outcomes = untraced(run, m, inputs, args.seconds)

    failures = [f for o in outcomes for f in o.failures]
    if any(o.fingerprint != outcomes[0].fingerprint for o in outcomes):
        failures.append("passes on the same inputs gave different results")
    attempted = sum(o.attempted for o in outcomes)
    for f in failures:
        print(f"FAILED: {f}")
    last = outcomes[-1]
    print(f"{last.accuracy_name} = {last.accuracy!r}")
    print(f"error_rate = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted!r}")

    missing = [d["name"] for d in wanted if d["name"] not in values]
    if missing:
        die(f"metrics not produced: {missing}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in wanted}
    for name, v in metrics.items():
        print(f"{name} = {v['value']!r} {v['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
