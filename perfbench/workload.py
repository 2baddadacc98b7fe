"""One workload in one process: set up, warm up, time a closed loop.

Started by ``run.py`` (never by hand) with the noise controls already in
its environment.  The process

1. imports the program and builds the workload's inputs;
2. runs the warm-up unit, whose first step ends set-up time (measured
   from the moment the parent spawned this process, then calibrated);
   the rest of the warm-up unit is measured by nothing;
3. with ``--setup-only``, reports set-up time and exits;
4. otherwise collects garbage once, then runs whole input cycles back to
   back with the collector left on, for as many cycles as fit in
   ``--seconds`` (at least one), checking each unit's output digest
   against the pinned reference;
5. with ``--trace 1``, spends the first half of the time untraced and the
   second half with the layer wrappers installed (``tracing.py``).

It prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import monotonic, perf_counter

import numpy as np

from workloads import WORKLOADS, variant_of

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

#: Unit time per calibration window; a calibration sample closes each.
WINDOW_S = 0.25
#: Median ``calib_ms`` of the kernel below on the reference host (a
#: 2-vCPU x86-64 VM, CPython 3.11, numpy with one BLAS thread).
REFERENCE_CALIB_MS = 10.0
#: How steeply the workloads' times follow the kernel's as the host's
#: speed changes.  Regressing log step time on log ``calib_ms`` across the
#: windows of single runs on the reference host gave slopes of 1.0 to 1.55
#: (mean 1.35) on the three network workloads: their step times rise
#: faster than the kernel's when the host slows.
CALIB_EXPONENT = 1.3


def calibration_kernel() -> float:
    """Fixed numpy + interpreter work; its time tracks host speed."""
    rng = np.random.default_rng(20240101)
    points = rng.standard_normal((150, 3))
    total = 0.0
    for _ in range(3):
        delta = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((delta * delta).sum(axis=-1)).ravel()
        order = np.argsort(distances, kind="stable")
        total += float(distances[order[:500]].sum())
    table = {}
    for index in range(10_000):
        key = (index * 7919) % 4099
        table[key] = table.get(key, 0) + index
    return total + len(table)


def time_calibration(repeats: int = 2) -> float:
    """Fastest of ``repeats`` kernel runs, in ms.

    The collector is paused so the kernel's time does not depend on how
    many objects the workload keeps alive.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            start = perf_counter()
            calibration_kernel()
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best * 1000.0


def host_scale(calib_ms: float) -> float:
    """How much slower than the reference host the workload runs now."""
    return (calib_ms / REFERENCE_CALIB_MS) ** CALIB_EXPONENT


class SetupDone(Exception):
    """Raised after the warm-up step when only set-up time is wanted."""


class StepTimer:
    """Times steps and units; ends set-up time at the first step.

    The first step ever timed is the warm-up step: it ends set-up time
    and is excluded from every step metric.  Between ``begin`` and
    ``finish`` the timer measures *windows*: the durations of the steps
    in it and the units' wall time spent in it, which counts the
    program's work between steps too.  A window closes with a
    calibration sample once it holds ``WINDOW_S`` of unit time, between
    two steps or at the end of a unit; its calibration is the mean of
    the samples on either side, because the host's speed changes within
    seconds.  Calibration and the benchmark's digest checks fall outside
    every unit's wall time.
    """

    def __init__(self, spawn_time: float, setup_only: bool):
        self.spawn_time = spawn_time
        self.setup_only = setup_only
        self.setup_s = None
        self.setup_s_cal = None
        self.on_step = None
        self.steps = 0
        self.windows = []
        self._calib = None
        self._durations = []
        self._work_s = 0.0
        self._mark = 0.0

    def time(self, fn, *args, **kwargs):
        if self.on_step is not None:
            self.on_step(self.steps)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._record(perf_counter() - start)

    def _record(self, seconds: float) -> None:
        self.steps += 1
        if self.setup_s is None:
            self.setup_s = monotonic() - self.spawn_time
            self.setup_s_cal = self.setup_s / host_scale(time_calibration())
            if self.setup_only:
                raise SetupDone()
            return
        if self._calib is None:
            return
        self._durations.append(seconds)
        self._account()

    def begin(self) -> None:
        """Start measuring windows, with a first calibration sample."""
        self.windows, self._durations, self._work_s = [], [], 0.0
        self._calib = time_calibration()

    def start_unit(self) -> None:
        self._mark = perf_counter()

    def end_unit(self) -> None:
        if self._calib is not None:
            self._account()

    def _account(self) -> None:
        """Add unit time since the mark; close the window once it is full."""
        now = perf_counter()
        self._work_s += now - self._mark
        self._mark = now
        if self._work_s >= WINDOW_S:
            self._close_window()

    def _close_window(self) -> None:
        calib = time_calibration()
        self.windows.append(
            (self._durations, self._work_s, (self._calib + calib) / 2.0))
        self._calib, self._durations, self._work_s = calib, [], 0.0
        self._mark = perf_counter()

    def finish(self) -> list:
        """Close the last window; returns every window since ``begin``."""
        if self._work_s:
            self._close_window()
        self._calib = None
        return self.windows


def step_metrics(windows) -> dict:
    """Raw and calibrated throughput and median step time.

    ``windows`` holds ``(step durations, unit seconds, calib_ms)`` per
    calibration window.  Throughput is timed steps over the units' wall
    time.  Calibrated figures divide each window's times by the
    ``host_scale`` of its ``calib_ms``, so a host running slow (a slower
    kernel) reads the same as one running fast.
    """
    steps_ms, steps_cal_ms = [], []
    wall = wall_cal = 0.0
    for durations, unit_s, calib in windows:
        scale = host_scale(calib)
        wall += unit_s
        wall_cal += unit_s / scale
        steps_ms.extend(d * 1000.0 for d in durations)
        steps_cal_ms.extend(d * 1000.0 / scale for d in durations)
    p90, beyond = tail_percentile(steps_ms)
    return {
        "steps_per_s": len(steps_ms) / wall,
        "steps_per_s.cal": len(steps_ms) / wall_cal,
        "step_ms.p50": statistics.median(steps_ms),
        "step_ms.p50.cal": statistics.median(steps_cal_ms),
        "step_ms.p90": p90,
        "p90_beyond": beyond,
        "calib_ms": statistics.median(calib for _, _, calib in windows),
        "timed_steps": len(steps_ms),
    }


def load_references(workload: str, tiny: bool):
    with open(REFERENCES, encoding="utf-8") as handle:
        table = json.load(handle)
    return table["tiny" if tiny else "full"][workload]


def run_unit(workload, unit: int, timer: StepTimer, refs, tally: dict):
    """Run one unit and check its output against the pinned digest."""
    before = timer.steps
    try:
        timer.start_unit()
        try:
            output = workload.run_unit(unit, timer)
        finally:
            timer.end_unit()
        ok = workload.digest(output) == refs[unit % workload.cycle]
    except SetupDone:
        raise
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    steps = max(timer.steps - before, 1)
    tally["attempted"] += steps
    if not ok:
        tally["failed"] += steps


def run_cycles(workload, timer: StepTimer, refs, seconds: float,
               first_unit: int, tally: dict):
    """Run whole input cycles while the next one should end in ``seconds``.

    At least one cycle runs.  Returns the next unit index and the
    timer's windows.
    """
    timer.begin()
    unit, cycles = first_unit, 0
    start = perf_counter()
    while True:
        for _ in range(workload.cycle):
            run_unit(workload, unit, timer, refs, tally)
            unit += 1
        cycles += 1
        if (perf_counter() - start) * (cycles + 1) / cycles > seconds:
            break
    return unit, timer.finish()


def tail_percentile(durations_ms, fraction: float = 0.9):
    """The ``fraction`` quantile and how many samples lie beyond it."""
    ordered = sorted(durations_ms)
    value = ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]
    return value, sum(1 for sample in ordered if sample > value)


def measure(args) -> dict:
    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(variant_of(args.seed), tiny=args.tiny)
    refs = load_references(args.workload, args.tiny)[str(variant_of(args.seed))]
    timer = StepTimer(args.spawn_time, args.setup_only)
    tally = {"attempted": 0, "failed": 0}
    try:
        run_unit(workload, 0, timer, refs, tally)
    except SetupDone:
        return {"setup_s": timer.setup_s, "setup_s.cal": timer.setup_s_cal}
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    gc.collect()
    unit, windows = run_cycles(workload, timer, refs, seconds, 1, tally)
    result = {
        "setup_s": timer.setup_s,
        "setup_s.cal": timer.setup_s_cal,
        **step_metrics(windows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        result.update(traced(workload, timer, refs, seconds, unit, tally,
                             result["steps_per_s.cal"], args))
    result.update(tally)
    return result


def traced(workload, timer, refs, seconds, unit, tally, untraced_rate,
           args) -> dict:
    """The traced half: per-layer metrics and the tracing overhead."""
    from tracing import LayerTracer

    tracer = LayerTracer()
    timer.on_step = lambda step: setattr(tracer, "step", step)
    gc.collect()
    tracer.install()
    try:
        _, windows = run_cycles(workload, timer, refs, seconds, unit, tally)
    finally:
        restored = tracer.uninstall()
        timer.on_step = None
    traced_metrics = step_metrics(windows)
    steps = traced_metrics["timed_steps"]
    metrics = tracer.layer_metrics(steps)
    metrics["trace.overhead_frac"] = (
        1.0 - traced_metrics["steps_per_s.cal"] / untraced_rate)
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(
        os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
        {"workload": args.workload, "seed": args.seed, "traced_steps": steps,
         "fields": ["name", "start_us", "end_us", "parent", "step"]},
    )
    return {"layers": metrics, "restored": restored}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
