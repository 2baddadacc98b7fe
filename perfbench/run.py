"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload scale_epochs --seed 1 --seconds 20 --trace 0

Spawns the workload (``workload.py``) in fresh single processes with the
noise controls set, and prints every metric of ``BENCHMARK.json`` by name
and unit, then one JSON object as the last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; set-up time is
the median over ``SETUP_RUNS`` processes (the measuring one included).
With ``--trace 1`` they are the per-layer ones from a traced run.
``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SOURCE = os.path.join(ROOT, "src")

#: Processes whose set-up time is measured per run (median reported).
SETUP_RUNS = 5
#: Every child must be done this long after the run starts.
DEADLINE_S = 170.0
#: A p90 is reported only with at least this many samples beyond it.
MIN_BEYOND_P90 = 10
#: The workload's noise controls: one BLAS/OpenMP thread, fixed hashing.
NOISE_CONTROLS = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    """The noise controls, with the program and this directory on the path."""
    env = {**os.environ, **NOISE_CONTROLS}
    env["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(flags, deadline: float) -> dict:
    """Run ``workload.py`` once; its last stdout line is its result."""
    spawn = monotonic()
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--spawn-time", repr(spawn), *flags]
    completed = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - spawn), check=False, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"workload process exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    if not os.path.isfile(SPEC) or not os.path.isdir(
            os.path.join(SOURCE, "repro")):
        raise SystemExit(
            f"error: run from a checkout of the repository; "
            f"{SPEC} or {SOURCE}/repro is missing")
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(flags, child: dict, deadline: float, setup_runs: int) -> dict:
    setups = [child]
    for _ in range(setup_runs - 1):
        setups.append(run_child([*flags, "--setup-only"], deadline))
    return {
        "setup_s": statistics.median(s["setup_s.cal"] for s in setups),
        "setup_s.raw": statistics.median(s["setup_s"] for s in setups),
        "steps_per_s.cal": child["steps_per_s.cal"],
        "step_ms.p50.cal": child["step_ms.p50.cal"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads, for the smoke test")
    args = parser.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = monotonic() + DEADLINE_S
    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        flags.append("--tiny")
    child = run_child(flags, deadline)
    steps = child["timed_steps"]
    attempted, failed = child["attempted"], child["failed"]
    correct = failed == 0
    if args.trace:
        declared = spec["per_layer"]
        values = dict(child["layers"])
        values["calib_ms"] = child["calib_ms"]
        values["failed_frac"] = failed / attempted
        if not child["restored"]:
            print("error: a wrapped attribute was not restored",
                  file=sys.stderr)
            correct = False
    else:
        declared = spec["end_to_end"]
        values = end_to_end(flags, child, deadline,
                            2 if args.tiny else SETUP_RUNS)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }

    print(f"workload {args.workload} seed {args.seed}: {steps} timed steps, "
          f"{attempted} attempted, {failed} failed")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  uncalibrated: steps_per_s {child['steps_per_s']:.6g} 1/s, "
          f"step_ms.p50 {child['step_ms.p50']:.6g} ms, "
          f"setup_s {values.get('setup_s.raw', child['setup_s']):.6g} s, "
          f"calib_ms {child['calib_ms']:.6g} ms")
    if child["p90_beyond"] >= MIN_BEYOND_P90:
        print(f"  {'step_ms.p90':<28} {child['step_ms.p90']:>14.6g} ms "
              f"({child['p90_beyond']} steps beyond)")
    else:
        print(f"  step_ms.p90 not reported: {child['p90_beyond']} of {steps} "
              f"steps lie beyond it, fewer than {MIN_BEYOND_P90}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
