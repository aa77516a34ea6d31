"""fuzzydb benchmark: point, scan and session workloads.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Each workload runs in a child process of its own, so peak memory is
measured per workload.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Without --workload
all three run one after another and the last line sums them, with the
metric names prefixed by the workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point", "scan", "session")
CHILD_TIMEOUT_S = 170


def run_one(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child process; returns its report lines and result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(f"{workload}: worker exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        lines, results[name] = run_one(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
