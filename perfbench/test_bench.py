"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench/test_bench.py

The determinism test is what lets a later change cite the per-layer counts
(calls, rows, distinct rows, rank, nullspace dimension, distinct kn
arguments) as evidence: two traced processes of one seed must agree on all
of them exactly.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from speedclock import REFERENCE_S, SpeedClock, kernel_duration  # noqa: E402
from workloads import WORKLOADS, make_items  # noqa: E402


def _counts(proc):
    return {k: v for k, v in proc.result["layers"].items() if run.is_count(k)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    bench = run.Run(workload, seed=7, seconds=0, trace=True)
    try:
        first = bench.worker(bench.items, trace=True)
        second = bench.worker(bench.items, trace=True)
    finally:
        bench.close()
    assert bench.failures == []
    assert _counts(first) == _counts(second)
    assert _counts(first)["trace.spans"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeded_inputs_are_reproducible_and_referenced(workload):
    assert make_items(workload, 3) == make_items(workload, 3)
    with open(os.path.join(HERE, "reference", workload + ".json"), encoding="utf-8") as fh:
        reference = json.load(fh)["items"]
    for seed in range(20):
        for item in make_items(workload, seed):
            assert item["op"] == "axiom" or item["id"] in reference


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_speed_clock_scales_work_and_leaves_out_its_samples():
    clock = SpeedClock()
    clock.start()
    begin = time.monotonic()
    while time.monotonic() - begin < 0.5:
        sum(i * i for i in range(1000))
    elapsed = time.monotonic() - begin
    clock.stop()
    assert clock.samples >= 5
    # the stretches cover the work and not the samples taken inside it
    assert elapsed - clock.kernel_s - 0.01 <= clock.raw_s <= elapsed + 0.01
    # each stretch is scaled by REFERENCE_S over a measured kernel duration
    speed = kernel_duration()
    assert 0.2 < clock.scaled_s / (clock.raw_s * REFERENCE_S / speed) < 5
