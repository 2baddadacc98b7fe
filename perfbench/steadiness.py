"""Steadiness check: do repeated runs of the same code agree?

Run from the repository root::

    python3 perfbench/steadiness.py [--workload NAME ...]

Runs ``run.py`` ten times per workload in each of two sets, every run
with its own seed (1 to 20) and ``BENCHMARK.json``'s ``run_seconds``,
workloads interleaved so host drift hits them alike.  For each workload,
set and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median.  It fails a metric, ``setup_s``
excepted, whose spread exceeds the metric's bound, and warns when the
spread exceeds a third of the bound.  It fails any metric whose
second-set median is worse than the first by more than the bound.  Raw
results go to ``.perfbench_out/steadiness.json``.  Exits 1 when a run was
incorrect or a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_spec

OUT = os.path.join(ROOT, ".perfbench_out", "steadiness.json")
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def collect(workloads, seconds: int) -> dict:
    results = {"runs": []}
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    for set_index in range(SETS):
        for run_index in range(RUNS):
            seed = 1 + set_index * RUNS + run_index
            for workload in workloads:
                result = one_run(workload, seed, seconds)
                results["runs"].append({
                    "set": set_index, "workload": workload, "seed": seed,
                    "correct": result["correct"],
                    "values": {name: entry["value"] for name, entry
                               in result["metrics"].items()},
                })
                print(f"set {set_index} seed {seed} {workload}: "
                      f"{'ok' if result['correct'] else 'INCORRECT'}",
                      flush=True)
                with open(OUT, "w", encoding="utf-8") as handle:
                    json.dump(results, handle, indent=1)
    return results


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(spec: dict, workloads, results: dict) -> bool:
    ok = True
    runs = results["runs"]
    bad = [r for r in runs if not r["correct"]]
    if bad:
        ok = False
        print(f"INCORRECT runs: {[(r['workload'], r['seed']) for r in bad]}")
    print(f"{'workload':<15} {'metric':<16} set   n {'median':>11} "
          f"{'q1':>11} {'q3':>11} spread  bound  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index in range(SETS):
                values = [r["values"][name] for r in runs
                          if r["workload"] == workload
                          and r["set"] == set_index]
                median, q1, q3, spread = summarize(values)
                medians.append(median)
                if name == "setup_s":
                    verdict = "-"
                elif spread <= bound / 3.0:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "warning: above a third of the bound"
                else:
                    verdict = "TOO NOISY"
                    ok = False
                print(f"{workload:<15} {name:<16} {set_index:>3} "
                      f"{len(values):>3} {median:>11.5g} {q1:>11.5g} "
                      f"{q3:>11.5g} {spread:>6.3f} {bound:>6.2f}  {verdict}")
            change = worse_by(medians[0], medians[1], metric["better"])
            agree = change <= bound
            ok = ok and agree
            print(f"{workload:<15} {name:<16} medians: second is "
                  f"{change:+.3f} worse than first -> "
                  f"{'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark steadiness.")
    parser.add_argument("--workload", nargs="*",
                        help="workloads to run (default: all)")
    args = parser.parse_args(argv)
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = collect(workloads, spec["run_seconds"])
    return 0 if report(spec, workloads, results) else 1


if __name__ == "__main__":
    sys.exit(main())
