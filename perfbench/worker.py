"""One workload run in its own process; run.py starts it.

Imports fuzzydb from the checkout's src/ directory, generates the inputs
into perfbench/work/, sets up, measures whole rounds, finishes, and prints
a report whose last line is the JSON result.  With --trace 1 it reports the
per-layer metrics and writes the spans to perfbench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_program():
    """fuzzydb from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import fuzzydb
    except ImportError as exc:
        sys.exit(f"cannot import fuzzydb from {src}: {exc}")
    if not os.path.abspath(fuzzydb.__file__).startswith(src + os.sep):
        sys.exit(f"fuzzydb was imported from {fuzzydb.__file__}, not from {src}")
    return fuzzydb.engine, fuzzydb.catalog


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    engine, fcatalog = import_program()
    import workloads

    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = workloads.Run(engine, fcatalog, args.seconds, bool(args.trace))
        workloads.drive(workload, run)
        if args.trace:
            metrics = run.per_layer()
            out = os.path.join(HERE, "out")
            os.makedirs(out, exist_ok=True)
            run.tracer.write(os.path.join(out, f"spans-{args.workload}.jsonl"))
        else:
            metrics = run.end_to_end(workload.tail_pct)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(run.latencies)
    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds, {n} statements, "
          f"{run.attempted} operations attempted, {run.failed} failed, {run.wrong} wrong")
    if not args.trace:
        print(f"  stmt_ms_tail is p{workload.tail_pct} of {n} statements")
    for message in run.messages:
        print(f"  FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
