"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/repeat.py --workload splitting --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed, one after the other, with the
``run_seconds`` of ``BENCHMARK.json``, and prints one JSON object: per
metric the values, their median and quartiles (``statistics.quantiles``
with n=4) and the quartile distance as a share of the median.  A run that
fails or exits nonzero makes this script exit 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        last = done.stdout.strip().splitlines()[-1] if done.stdout else ""
        if done.returncode != 0 or not last.startswith("{"):
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        res = json.loads(last)
        results.append(res)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()
            if args.trace == 0), file=sys.stderr)

    names = list(results[0]["metrics"])
    summary = {name: summarise([r["metrics"][name]["value"] for r in results])
               for name in names}
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "trace": args.trace, "run_seconds": seconds,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
