"""Smoke tests of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _spec:
    SPEC = json.load(_spec)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    completed = run_bench("--workload", workload, "--seed", "5",
                          "--seconds", "1", "--trace", str(trace), "--tiny")
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_tail_percentile_counts_samples_beyond():
    from workload import tail_percentile

    value, beyond = tail_percentile([float(i) for i in range(100)])
    assert value == 90.0 and beyond == 9
    value, beyond = tail_percentile([float(i) for i in range(110)])
    assert value == 99.0 and beyond == 10


class _CountingWorkload:
    cycle = 3

    def __init__(self):
        self.units = []

    def run_unit(self, index, timer):
        self.units.append(index)
        return timer.time(lambda: index)

    @staticmethod
    def digest(output):
        return output % 3


def test_a_run_measures_whole_cycles_only():
    from workload import StepTimer, run_cycles

    workload = _CountingWorkload()
    timer = StepTimer(0.0, setup_only=False)
    timer.time(lambda: None)
    tally = {"attempted": 0, "failed": 0}
    unit, windows = run_cycles(workload, timer, [0, 1, 2], 0.0, 1, tally)
    assert workload.units == [1, 2, 3] and unit == 4
    assert tally == {"attempted": 3, "failed": 0}
    assert sum(len(durations) for durations, _, _ in windows) == 3


def test_tracer_restores_every_wrapped_attribute():
    from tracing import LayerTracer

    tracer = LayerTracer()
    before = [
        (owner, attr, owner.__dict__[attr] if isinstance(owner, type)
         else getattr(owner, attr))
        for owner, attr, _, _ in tracer._targets()
    ]
    tracer.install()
    assert all(
        (owner.__dict__[attr] if isinstance(owner, type)
         else getattr(owner, attr)) is not original
        for owner, attr, original in before
    )
    assert tracer.uninstall()
    for owner, attr, original in before:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original
