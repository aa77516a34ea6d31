"""Benchmark pairs: a parent revision against this checkout, seed by seed.

    python3 bench/pairs.py PARENT OUT.json [WORKLOAD ...]

PARENT is any git revision.  Its committed files are copied with git archive
into a temporary directory (under $TMPDIR), so each side runs its own
perfbench/run.py on its own src/.  For seeds 1-10 and, within each seed,
every workload of BENCHMARK.json in turn (or only the WORKLOADs named, in
BENCHMARK.json's order), each side runs

    perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

once, the parent first on odd seeds and the change first on even ones: the
randomised-order repetition of Kalibera & Jones, "Rigorous Benchmarking in
Reasonable Time" (ISMM 2013).  A drift of the host's speed over the run so
falls on every workload alike, and on both sides of each pair.  OUT.json
holds every raw run, with its correct and failed fields, and for each
workload and end-to-end metric each side's q1, median and q3, the number of
pairs the change won, the median gap as a percentage of the parent's median
and as a multiple of the parent's interquartile range, and the q1, median
and q3 of the per-seed ratio change/parent (Kalibera & Jones' paired
estimate, which drift between seeds moves less).  It also records the
seeds, the Python version and both commit ids.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of checkout; its last output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: {workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def summary(runs: list, spec: dict) -> dict:
    """Per workload and end-to-end metric: quartiles per side, wins, the median gap, and the
    quartiles of the per-seed ratio change/parent."""
    out = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        by_seed = {(r["side"], r["seed"]): r["metrics"] for r in runs if r["workload"] == name}
        out[name] = {}
        for metric in spec["end_to_end"]:
            m, lower = metric["name"], metric["better"] == "lower"
            parent = [by_seed["parent", s][m]["value"] for s in SEEDS]
            change = [by_seed["change", s][m]["value"] for s in SEEDS]
            ratios = [c / p for p, c in zip(parent, change)]
            pq, cq, rq = (statistics.quantiles(xs, n=4, method="inclusive")
                          for xs in (parent, change, ratios))
            gap, iqr = cq[1] - pq[1], pq[2] - pq[0]
            out[name][m] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
                "change_won": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
                "pairs": len(parent),
                "median_gap_pct": 100 * gap / pq[1],
                "median_gap_over_parent_iqr": gap / iqr if iqr else None,
                "parent_iqr_pct": 100 * iqr / pq[1],
                "change_over_parent_ratio_q1_median_q3": rq,
            }
    return out


def main(argv: list) -> int:
    if len(argv) < 2:
        sys.exit(__doc__)
    parent_rev, out_path, *names = argv
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        sys.exit(f"unknown workload {sorted(unknown)[0]!r}; BENCHMARK.json has "
                 f"{', '.join(w['name'] for w in spec['workloads'])}")
    if names:
        spec["workloads"] = [w for w in spec["workloads"] if w["name"] in names]
    parent_commit = git("rev-parse", "--verify", parent_rev + "^{commit}")
    change = {"commit": git("rev-parse", "HEAD"), "uncommitted_changes": bool(git("status", "--porcelain"))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as parent_dir:
        archive = subprocess.run(["git", "archive", parent_commit], cwd=ROOT, stdout=subprocess.PIPE,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive, check=True)
        sides = {"parent": parent_dir, "change": ROOT}
        for seed in SEEDS:
            for workload in spec["workloads"]:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for position, side in enumerate(order, start=1):
                    result = run(sides[side], workload["name"], seed, spec["run_seconds"])
                    runs.append({"workload": workload["name"], "seed": seed, "side": side,
                                 "position": position, **result})
                    print(f"{workload['name']} seed {seed} {side}: correct {result['correct']}, "
                          f"failed {result['failed']}", file=sys.stderr, flush=True)
    report = {
        "parent": {"revision": parent_rev, "commit": parent_commit},
        "change": change,
        "python": platform.python_version(),
        "workloads": [w["name"] for w in spec["workloads"]],
        "seeds": list(SEEDS),
        "run_seconds": spec["run_seconds"],
        "all_correct": all(r["correct"] is True and r["failed"] == 0 for r in runs),
        "summary": summary(runs, spec),
        "runs": runs,
    }
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
