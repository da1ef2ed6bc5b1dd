"""The host probe and the CPU cost it normalises."""

import os

import pytest

from deploy import LOADGEN_CPUS, cpu_seconds, pin_loadgen
from hostprobe import CostMeter, probe


def test_cost_is_cpu_per_access_over_the_median_probe():
    meter = CostMeter(list)
    meter.probes = [0.010, 0.030, 0.020, 0.020, 0.500]
    meter.cycles = [(2.0, 1_000_000, 1.0), (0.5, 250_000, 0.3)]
    # 2.5 s of CPU for 1.25 M accesses, against a 20 ms probe.
    assert meter.probes_per_maccess() == pytest.approx(100.0)
    assert meter.accesses == 1_250_000
    assert meter.cpu_s == pytest.approx(2.5)


def test_a_host_twice_as_slow_reads_the_same():
    fast, slow = CostMeter(list), CostMeter(list)
    fast.probes, slow.probes = [0.02, 0.02], [0.04, 0.04]
    fast.cycles = [(1.0, 500_000, 1.0)]
    slow.cycles = [(2.0, 500_000, 2.0)]
    assert fast.probes_per_maccess() == pytest.approx(
        slow.probes_per_maccess())


def test_cpu_seconds_counts_this_process():
    before = cpu_seconds([os.getpid()])
    total = 0
    for i in range(3_000_000):
        total += i
    assert cpu_seconds([os.getpid()]) > before


def test_probe_returns_to_the_load_generator_cpu():
    pin_loadgen()
    assert len(probe()) == 3 and min(probe()) > 0
    assert os.sched_getaffinity(0) == LOADGEN_CPUS
